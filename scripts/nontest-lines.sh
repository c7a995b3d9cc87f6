#!/usr/bin/env sh
# Prints the line-budget count of ROADMAP item 8: the non-test lines of the
# `core`, `tree` and `storage` crates, per crate and in total, then those
# of `xml` on a row of its own, outside the total, then the four crates'
# total — code that moves from the engine into the XML crate shows there
# instead of as a cut — then the five largest engine files by the same
# count. A file's non-test lines are
# the lines before its first column-0 `#[cfg(test)]` (the whole file when
# it has none); only `src/` counts. It prints and gates nothing. Run from
# anywhere: `sh scripts/nontest-lines.sh`.
set -eu
cd "$(dirname "$0")/.."
nontest() {
    awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$1"
}
crate_lines() {
    find "crates/$1/src" -name '*.rs' | sort | while read -r f; do
        nontest "$f"
    done | awk '{ s += $1 } END { print s + 0 }'
}
total=0
for crate in core tree storage; do
    n=$(crate_lines "$crate")
    printf '%-8s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-8s %6d\n' total "$total"
xml=$(crate_lines xml)
printf '%-8s %6d  (not in the total)\n' xml "$xml"
printf '%-8s %6d  (engine plus xml)\n' all "$((total + xml))"
echo "largest files:"
for crate in core tree storage; do
    find "crates/$crate/src" -name '*.rs'
done | sort | while read -r f; do
    printf '%6d  %s\n' "$(nontest "$f")" "$f"
done | sort -rn | head -5
