//! `natix-lint` — repo-specific static invariants the compiler cannot
//! express and clippy does not know about. Run as
//! `cargo run -p natix-lint -- check` (CI does, and fails on violations).
//!
//! The scanner is hand-rolled: the build environment is offline, so no
//! `syn`. Sources are sanitised (comments and string/char literals blanked,
//! line structure preserved) and then checked line- and item-wise with
//! brace/paren tracking. That is enough for the six rules below, all of
//! which key on tokens that survive sanitisation:
//!
//! 1. **durable-gate** — every `pub fn` write API in `crates/core/src`
//!    (all of its files, read as one surface: they are one `impl
//!    Repository`) that reaches the version store's publish hook
//!    (`begin_write` / `defer_until_publish`) or appends a directory
//!    delta (`log_directory`, the one helper that does), directly or
//!    through helpers anywhere on that surface, must also reach
//!    `durable_gate`.
//!    Committed-but-not-durable write paths were PR 6's whole point; this
//!    keeps the next API honest. Call edges are by name, so a helper that
//!    publishes must not share its name with a std method its neighbours
//!    call (`insert`, `apply`, …): the collision flags every caller of
//!    either, loudly, in `workspace_is_clean`.
//! 2. **guard-discipline** — no `let _ = <guard-producing call>`: binding
//!    a `ReadPin`, `WriteOp`, page pin, or lock guard to `_` drops it on
//!    the same line, which compiles and then silently serialises nothing.
//! 3. **storage-panic** — no `.unwrap()` / `.expect(` in
//!    `crates/storage` non-test code. A panic in the storage layer while
//!    holding pool or allocator state poisons the engine; storage code
//!    returns `Result`.
//! 4. **shim-bypass** — no `std::sync::Mutex` / `RwLock` / `Condvar`
//!    outside `crates/shims`: locks built behind the shim's back are
//!    invisible to the lockdep hierarchy checker. (`Arc`, atomics and
//!    `OnceLock` are fine.)
//! 5. **prefetch-lock-hold** — upper-layer code must not issue a buffer
//!    prefetch or batched read (`prefetch` / `prefetch_pages` /
//!    `read_pages`, or the readers' `read_ahead` helpers that issue a
//!    planned batch) while a mutex guard is lexically live; those calls
//!    enter a buffer I/O region and the held lock would stall every
//!    contender for a device round-trip.
//! 6. **unranked-lock** — no bare `Mutex::new` / `RwLock::new` in
//!    `crates/{core,storage,tree}` non-test code: a long-lived lock
//!    built without `with_rank` is invisible to the lockdep hierarchy
//!    checker *and* unnamed in model-checker schedules. The engine has
//!    exactly one deliberately unranked lock family, the per-frame latch
//!    of `crates/storage/src/buffer.rs`, which carries a
//!    `// natix-lint: allow(unranked-lock): <reason>` exemption on the
//!    same or preceding line; the marker is honoured in that file only,
//!    so a second unranked family cannot come back behind a comment.
//!
//! Rule 3 covers `crates/storage` and `crates/tree`: both layers sit
//! under the engine's recovery and latching protocols, where a panic
//! while holding pool/allocator/version-store state poisons the engine.

use std::fmt;
use std::path::{Path, PathBuf};

/// A single rule violation, keyed by repo-relative path and 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub file: PathBuf,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

// ---------------------------------------------------------------------------
// Source sanitisation
// ---------------------------------------------------------------------------

/// Blank out comments and string/char literal *contents* with spaces,
/// preserving byte offsets and line structure, so later token scans never
/// match inside a literal or a doc comment. Handles nested block comments,
/// escape sequences, raw strings up to `r###"`, byte strings, and the
/// char-literal-vs-lifetime ambiguity (heuristically: a `'` opens a char
/// literal only if a closing `'` follows within a few bytes).
pub fn sanitize(source: &str) -> String {
    let b = source.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(b.len());
    let mut i = 0;
    let blank = |out: &mut Vec<u8>, b: &[u8], from: usize, to: usize| {
        for &c in &b[from..to] {
            out.push(if c == b'\n' { b'\n' } else { b' ' });
        }
    };
    while i < b.len() {
        let c = b[i];
        // Line comment.
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
            let end = source[i..].find('\n').map(|p| i + p).unwrap_or(b.len());
            blank(&mut out, b, i, end);
            i = end;
            continue;
        }
        // Block comment (nested).
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
            let mut depth = 1;
            let mut j = i + 2;
            while j < b.len() && depth > 0 {
                if b[j] == b'/' && j + 1 < b.len() && b[j + 1] == b'*' {
                    depth += 1;
                    j += 2;
                } else if b[j] == b'*' && j + 1 < b.len() && b[j + 1] == b'/' {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            blank(&mut out, b, i, j);
            i = j;
            continue;
        }
        // Raw (byte) string: r"..."  r#"..."#  br##"..."## etc.
        if c == b'r' || (c == b'b' && i + 1 < b.len() && b[i + 1] == b'r') {
            let r_at = if c == b'r' { i } else { i + 1 };
            // Must not be part of a longer identifier (e.g. `for r in ..`
            // is fine: we only trigger when `#` or `"` follows the `r`).
            let prev_ident = i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_');
            let mut j = r_at + 1;
            let mut hashes = 0;
            while j < b.len() && b[j] == b'#' {
                hashes += 1;
                j += 1;
            }
            if !prev_ident && j < b.len() && b[j] == b'"' {
                let closer: Vec<u8> = std::iter::once(b'"')
                    .chain(std::iter::repeat_n(b'#', hashes))
                    .collect();
                let body_start = j + 1;
                let end = b[body_start..]
                    .windows(closer.len())
                    .position(|w| w == closer.as_slice())
                    .map(|p| body_start + p + closer.len())
                    .unwrap_or(b.len());
                out.extend_from_slice(&b[i..body_start]);
                blank(&mut out, b, body_start, end);
                i = end;
                continue;
            }
        }
        // Plain (byte) string.
        if c == b'"' {
            let mut j = i + 1;
            while j < b.len() {
                if b[j] == b'\\' {
                    j += 2;
                } else if b[j] == b'"' {
                    j += 1;
                    break;
                } else {
                    j += 1;
                }
            }
            out.push(b'"');
            blank(&mut out, b, i + 1, j.min(b.len()));
            i = j;
            continue;
        }
        // Char literal vs lifetime.
        if c == b'\'' {
            let is_char = if i + 1 < b.len() && b[i + 1] == b'\\' {
                true
            } else {
                // 'x' closes within 5 bytes (covers multi-byte chars).
                b[i + 1..b.len().min(i + 6)].contains(&b'\'')
                    && !(i + 1 < b.len() && b[i + 1] == b'\'')
            };
            if is_char {
                let mut j = i + 1;
                if j < b.len() && b[j] == b'\\' {
                    j += 2;
                }
                while j < b.len() && b[j] != b'\'' {
                    j += 1;
                }
                j = (j + 1).min(b.len());
                out.push(b'\'');
                blank(&mut out, b, i + 1, j);
                i = j;
                continue;
            }
        }
        out.push(c);
        i += 1;
    }
    String::from_utf8(out).expect("sanitiser only substitutes ASCII spaces")
}

// ---------------------------------------------------------------------------
// `#[cfg(test)]` masking
// ---------------------------------------------------------------------------

/// Per-line flags: `true` when the line lies inside a `#[cfg(test)] mod`
/// item. Operates on sanitised source.
pub fn test_mask(clean: &str) -> Vec<bool> {
    let line_count = clean.lines().count();
    let mut mask = vec![false; line_count];
    let b = clean.as_bytes();
    let mut search_from = 0;
    while let Some(found) = clean[search_from..].find("#[cfg(test)]") {
        let attr_at = search_from + found;
        let mut j = attr_at + "#[cfg(test)]".len();
        // Skip whitespace and further attributes.
        loop {
            while j < b.len() && (b[j] as char).is_whitespace() {
                j += 1;
            }
            if j < b.len() && b[j] == b'#' {
                while j < b.len() && b[j] != b']' {
                    j += 1;
                }
                j += 1;
            } else {
                break;
            }
        }
        let rest = &clean[j..];
        let is_mod = rest.starts_with("mod ")
            || rest.starts_with("pub mod ")
            || rest.starts_with("pub(crate) mod ");
        if is_mod {
            if let Some(open_rel) = rest.find('{') {
                let open = j + open_rel;
                let close = match_brace(b, open);
                let start_line = clean[..attr_at].bytes().filter(|&c| c == b'\n').count();
                let end_line = clean[..close.min(b.len())]
                    .bytes()
                    .filter(|&c| c == b'\n')
                    .count()
                    + 1;
                for line_flag in mask
                    .iter_mut()
                    .take(end_line.min(line_count))
                    .skip(start_line)
                {
                    *line_flag = true;
                }
                search_from = close.min(b.len());
                continue;
            }
        }
        search_from = attr_at + 1;
    }
    mask
}

/// Index one past the brace matching `b[open]` (which must be `{`).
fn match_brace(b: &[u8], open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < b.len() {
        match b[j] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    b.len()
}

fn line_of(clean: &str, byte: usize) -> usize {
    clean[..byte.min(clean.len())]
        .bytes()
        .filter(|&c| c == b'\n')
        .count()
        + 1
}

fn is_ident(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Does `hay` contain `word` as a whole token (not part of a longer
/// identifier)?
fn contains_word(hay: &str, word: &str) -> bool {
    let b = hay.as_bytes();
    let mut from = 0;
    while let Some(p) = hay[from..].find(word) {
        let at = from + p;
        let before_ok = at == 0 || !is_ident(b[at - 1]);
        let end = at + word.len();
        let after_ok = end >= b.len() || !is_ident(b[end]);
        if before_ok && after_ok {
            return true;
        }
        from = at + 1;
    }
    false
}

/// Does `hay` call `name`: the whole token, directly followed by `(`?
fn calls(hay: &str, name: &str) -> bool {
    let b = hay.as_bytes();
    hay.match_indices(&format!("{name}("))
        .any(|(at, _)| at == 0 || !is_ident(b[at - 1]))
}

// ---------------------------------------------------------------------------
// Rule 1: durable-gate coverage in crates/core/src
// ---------------------------------------------------------------------------

struct FnItem {
    name: String,
    is_pub: bool,
    line: usize,
    /// Line of the body's opening brace (multi-line signatures put it
    /// well below `line`).
    body_line: usize,
    body: String,
    in_test: bool,
}

fn collect_fns(clean: &str, mask: &[bool]) -> Vec<FnItem> {
    let b = clean.as_bytes();
    let mut items = Vec::new();
    let mut from = 0;
    while let Some(p) = clean[from..].find("fn ") {
        let at = from + p;
        from = at + 3;
        // Must be the `fn` keyword, not the tail of an identifier.
        if at > 0 && is_ident(b[at - 1]) {
            continue;
        }
        let name_start = at + 3;
        let mut name_end = name_start;
        while name_end < b.len() && is_ident(b[name_end]) {
            name_end += 1;
        }
        if name_end == name_start {
            continue;
        }
        let name = clean[name_start..name_end].to_string();
        // `pub` on the same declaration line, before `fn`. Not
        // `pub(crate)` and the like: those are steps of an API, reached
        // and checked through the `pub fn`s that call them.
        let decl_line_start = clean[..at].rfind('\n').map(|x| x + 1).unwrap_or(0);
        let is_pub = clean[decl_line_start..at].split_whitespace().next() == Some("pub");
        // Body: first `{` at paren/bracket depth 0 after the signature.
        let mut j = name_end;
        let mut depth = 0i32;
        let open = loop {
            if j >= b.len() {
                break None;
            }
            match b[j] {
                b'(' | b'[' => depth += 1,
                b')' | b']' => depth -= 1,
                b'{' if depth == 0 => break Some(j),
                b';' if depth == 0 => break None, // trait method, no body
                _ => {}
            }
            j += 1;
        };
        let Some(open) = open else { continue };
        let close = match_brace(b, open);
        let line = line_of(clean, at);
        let in_test = mask.get(line - 1).copied().unwrap_or(false);
        items.push(FnItem {
            name,
            is_pub,
            line,
            body_line: line_of(clean, open),
            body: clean[open..close].to_string(),
            in_test,
        });
    }
    items
}

/// Check durable-gate coverage over the fns of one or more files belonging
/// to the same `impl` surface. `files` pairs a repo-relative path with its
/// *raw* source.
pub fn rule_durable_gate(files: &[(&Path, &str)]) -> Vec<Violation> {
    let mut all: Vec<(PathBuf, FnItem)> = Vec::new();
    for (path, source) in files {
        let clean = sanitize(source);
        let mask = test_mask(&clean);
        for f in collect_fns(&clean, &mask) {
            all.push((path.to_path_buf(), f));
        }
    }
    let publishes_directly = |f: &FnItem| {
        contains_word(&f.body, "begin_write")
            || contains_word(&f.body, "defer_until_publish")
            || contains_word(&f.body, "log_directory")
    };
    let gates_directly = |f: &FnItem| contains_word(&f.body, "durable_gate");

    // Transitive closure over the same-surface call graph: fn A "calls"
    // fn B if B's name appears as a call token in A's body.
    let closure = |direct: &dyn Fn(&FnItem) -> bool| -> Vec<bool> {
        let mut flag: Vec<bool> = all.iter().map(|(_, f)| direct(f)).collect();
        loop {
            let mut changed = false;
            for i in 0..all.len() {
                if flag[i] {
                    continue;
                }
                for j in 0..all.len() {
                    if flag[j] && calls(&all[i].1.body, &all[j].1.name) {
                        flag[i] = true;
                        changed = true;
                        break;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        flag
    };
    let publishes = closure(&publishes_directly);
    let gates = closure(&gates_directly);

    let mut out = Vec::new();
    for (i, (path, f)) in all.iter().enumerate() {
        if f.is_pub && !f.in_test && publishes[i] && !gates[i] && f.name != "durable_gate" {
            out.push(Violation {
                file: path.clone(),
                line: f.line,
                rule: "durable-gate",
                message: format!(
                    "pub fn `{}` publishes a write or appends a directory delta but \
                     never calls `durable_gate`; acknowledged work may be lost on crash",
                    f.name
                ),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rule 2: `let _ =` must not bind RAII guards
// ---------------------------------------------------------------------------

/// Method / function names whose return value is an RAII guard that must
/// outlive its use: lock guards, page pins, version-store pins and ops.
const GUARD_CALLS: &[&str] = &[
    "lock",
    "try_lock",
    "read",
    "write",
    "try_read",
    "try_write",
    "pin",
    "pin_new",
    "begin_read",
    "begin_write",
    "adopt_read",
    "wait",
    "wait_timeout",
    "io_region",
];

/// The name of the last *top-level* call in an expression (`a.b(c.d()).e()`
/// yields `e`; nested calls inside argument lists are ignored), peeling
/// trailing `unwrap`/`expect`.
fn last_toplevel_call(expr: &str) -> Option<String> {
    let b = expr.as_bytes();
    let mut depth = 0i32;
    let mut calls: Vec<String> = Vec::new();
    for (j, &c) in b.iter().enumerate() {
        match c {
            b'(' | b'[' => {
                if depth == 0 && c == b'(' {
                    let mut k = j;
                    while k > 0 && (is_ident(b[k - 1]) || b[k - 1] == b'!') {
                        k -= 1;
                    }
                    if k < j {
                        calls.push(expr[k..j].trim_end_matches('!').to_string());
                    }
                }
                depth += 1;
            }
            b')' | b']' => depth -= 1,
            _ => {}
        }
    }
    while matches!(
        calls.last().map(String::as_str),
        Some("unwrap") | Some("expect")
    ) {
        calls.pop();
    }
    calls.pop()
}

pub fn rule_guard_discipline(path: &Path, source: &str) -> Vec<Violation> {
    let clean = sanitize(source);
    let b = clean.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(p) = clean[from..].find("let _") {
        let at = from + p;
        from = at + 5;
        if at > 0 && is_ident(b[at - 1]) {
            continue;
        }
        // Exactly `_`, not `_named`.
        let mut j = at + 5;
        if j < b.len() && is_ident(b[j]) {
            continue;
        }
        while j < b.len() && (b[j] as char).is_whitespace() {
            j += 1;
        }
        if j >= b.len() || b[j] != b'=' || (j + 1 < b.len() && b[j + 1] == b'=') {
            continue;
        }
        // Statement RHS up to `;` at depth 0.
        let rhs_start = j + 1;
        let mut depth = 0i32;
        let mut k = rhs_start;
        while k < b.len() {
            match b[k] {
                b'(' | b'[' | b'{' => depth += 1,
                b')' | b']' | b'}' => depth -= 1,
                b';' if depth == 0 => break,
                _ => {}
            }
            k += 1;
        }
        let rhs = &clean[rhs_start..k.min(clean.len())];
        if let Some(call) = last_toplevel_call(rhs) {
            if GUARD_CALLS.contains(&call.as_str()) {
                out.push(Violation {
                    file: path.to_path_buf(),
                    line: line_of(&clean, at),
                    rule: "guard-discipline",
                    message: format!(
                        "`let _ = ...{call}(...)` drops the returned guard immediately; \
                         bind it to a named variable so it lives to the end of scope"
                    ),
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rule 3: no unwrap/expect in crates/storage or crates/tree non-test code
// ---------------------------------------------------------------------------

pub fn rule_storage_panic(path: &Path, source: &str) -> Vec<Violation> {
    let clean = sanitize(source);
    let mask = test_mask(&clean);
    let mut out = Vec::new();
    for (idx, line) in clean.lines().enumerate() {
        if mask.get(idx).copied().unwrap_or(false) {
            continue;
        }
        for needle in [".unwrap()", ".expect("] {
            if line.contains(needle) {
                out.push(Violation {
                    file: path.to_path_buf(),
                    line: idx + 1,
                    rule: "storage-panic",
                    message: format!(
                        "`{needle}..` in storage/tree non-test code; a panic here can \
                         poison pool/allocator/version-store state — return an error \
                         instead"
                    ),
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rule 6: long-lived locks in engine crates must be ranked
// ---------------------------------------------------------------------------

/// Exemption marker for rule 6, written in a comment on the same line as
/// the bare constructor or the line above it, followed by a reason:
/// `// natix-lint: allow(unranked-lock): per-frame latch, see rank docs`.
pub const UNRANKED_LOCK_ALLOW: &str = "natix-lint: allow(unranked-lock)";

/// The one file whose [`UNRANKED_LOCK_ALLOW`] markers are honoured: the
/// buffer pool's per-frame latch is the engine's only unranked lock family.
pub const UNRANKED_LOCK_HOME: &str = "crates/storage/src/buffer.rs";

/// No bare `Mutex::new` / `RwLock::new` in engine non-test code: an
/// unranked lock is invisible to the lockdep hierarchy checker and
/// unnamed in model-checker schedules, so every long-lived lock goes
/// through `with_rank`. The allow marker (see [`UNRANKED_LOCK_ALLOW`])
/// exempts the per-frame latch next to the lock it justifies, and only in
/// [`UNRANKED_LOCK_HOME`]: anywhere else the marker exempts nothing.
pub fn rule_unranked_lock(path: &Path, source: &str) -> Vec<Violation> {
    let clean = sanitize(source);
    let mask = test_mask(&clean);
    // The marker lives in a comment, which sanitisation blanks — read it
    // from the raw source. A marker covers its own line and the next.
    let raw_lines: Vec<&str> = source.lines().collect();
    let marker_honoured = path == Path::new(UNRANKED_LOCK_HOME);
    let marked = |idx: usize| {
        raw_lines
            .get(idx)
            .is_some_and(|l| l.contains(UNRANKED_LOCK_ALLOW))
    };
    let allowed = |idx: usize| marker_honoured && (marked(idx) || (idx > 0 && marked(idx - 1)));
    let mut out = Vec::new();
    for (idx, line) in clean.lines().enumerate() {
        if mask.get(idx).copied().unwrap_or(false) || allowed(idx) {
            continue;
        }
        for ty in ["Mutex", "RwLock"] {
            let needle = format!("{ty}::new(");
            let Some(p) = line.find(&needle) else {
                continue;
            };
            // A path-qualified constructor that is not the shim's is some
            // other type's business (`std::sync::Mutex::new` is rule 4's).
            let prefix = &line[..p];
            if prefix.ends_with("::") && !prefix.ends_with("parking_lot::") {
                continue;
            }
            out.push(Violation {
                file: path.to_path_buf(),
                line: idx + 1,
                rule: "unranked-lock",
                message: format!(
                    "bare `{ty}::new(..)` builds a lock with no rank — invisible to the \
                     lockdep hierarchy and unnamed in model schedules; use \
                     `{ty}::with_rank(&rank::..., ..)` (the \
                     `// {UNRANKED_LOCK_ALLOW}` exemption is honoured only in \
                     {UNRANKED_LOCK_HOME})"
                ),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rule 4: no std::sync lock primitives outside the shim
// ---------------------------------------------------------------------------

pub fn rule_shim_bypass(path: &Path, source: &str) -> Vec<Violation> {
    let clean = sanitize(source);
    let mask = test_mask(&clean);
    let mut out = Vec::new();
    for (idx, line) in clean.lines().enumerate() {
        if mask.get(idx).copied().unwrap_or(false) {
            continue;
        }
        let direct = [
            "std::sync::Mutex",
            "std::sync::RwLock",
            "std::sync::Condvar",
        ]
        .iter()
        .any(|n| line.contains(n));
        let via_use = line.trim_start().starts_with("use std::sync::")
            && ["Mutex", "RwLock", "Condvar"]
                .iter()
                .any(|n| contains_word(line, n));
        if direct || via_use {
            out.push(Violation {
                file: path.to_path_buf(),
                line: idx + 1,
                rule: "shim-bypass",
                message: "std::sync lock primitive outside the parking_lot shim; such \
                          locks bypass the lockdep hierarchy checker — use the shim's \
                          Mutex/RwLock/Condvar (ranked where long-lived)"
                    .to_string(),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rule 5: no lock held across buffer prefetch / batched reads
// ---------------------------------------------------------------------------

/// Call tokens that enter a buffer-pool I/O region: issuing one while a
/// ranked (non-io-tolerant) lock is held is a held-across-I/O bug that
/// lockdep would catch at runtime — this rule catches the lexical shape
/// statically, before the path is ever exercised.
const PREFETCH_IO_CALLS: &[&str] = &["prefetch", "prefetch_pages", "read_pages", "read_ahead"];

/// Guard producers whose result is a mutex guard in the upper layers.
/// RwLock and page-latch guards are left to the runtime `io_region`
/// check: their receivers are io-tolerant storage-band locks far more
/// often than not, and flagging them here would drown the signal.
const LOCK_GUARD_CALLS: &[&str] = &["lock", "try_lock"];

/// Scan one statement for a prefetch-band I/O call.
fn stmt_enters_io(stmt: &str) -> Option<&'static str> {
    PREFETCH_IO_CALLS
        .iter()
        .find(|c| contains_word(stmt, c) && stmt.contains(&format!("{c}(")))
        .copied()
}

/// Upper-layer callers of `prefetch` / `prefetch_pages` / `read_pages` /
/// `read_ahead` must not hold a mutex guard across the call: the pattern is "snapshot
/// under the lock, drop the guard (explicitly or by closing its block),
/// then issue the batched read". Tracked lexically per function body:
/// `let g = ....lock();` registers a live guard at the current brace
/// depth; `drop(g)` or leaving the guard's block retires it.
pub fn rule_prefetch_lock_hold(path: &Path, source: &str) -> Vec<Violation> {
    let clean = sanitize(source);
    let mask = test_mask(&clean);
    let mut out = Vec::new();
    for f in collect_fns(&clean, &mask) {
        if f.in_test {
            continue;
        }
        let b = f.body.as_bytes();
        let mut guards: Vec<(String, i32)> = Vec::new();
        let mut depth = 0i32;
        let mut stmt_start = 0usize;
        let mut j = 0;
        while j < b.len() {
            match b[j] {
                b'{' => {
                    depth += 1;
                    stmt_start = j + 1;
                }
                b'}' => {
                    depth -= 1;
                    guards.retain(|g| g.1 <= depth);
                    stmt_start = j + 1;
                }
                b';' => {
                    let stmt = &f.body[stmt_start..j];
                    if let Some(call) = stmt_enters_io(stmt) {
                        if let Some((name, _)) = guards.first() {
                            let call_at = stmt_start + stmt.find(&format!("{call}(")).unwrap_or(0);
                            out.push(Violation {
                                file: path.to_path_buf(),
                                line: f.body_line
                                    + f.body[..call_at].bytes().filter(|&c| c == b'\n').count(),
                                rule: "prefetch-lock-hold",
                                message: format!(
                                    "`{call}(..)` issued while lock guard `{name}` is live; \
                                     batched reads are an I/O region — snapshot under the \
                                     lock, drop the guard, then prefetch"
                                ),
                            });
                        }
                    }
                    let t = stmt.trim_start();
                    if let Some(rest) = t.strip_prefix("let ") {
                        let rest = rest.trim_start();
                        let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
                        let name: String = rest
                            .bytes()
                            .take_while(|&c| is_ident(c))
                            .map(char::from)
                            .collect();
                        if !name.is_empty() && name != "_" {
                            if let Some(eq) = stmt.find('=') {
                                if let Some(call) = last_toplevel_call(&stmt[eq + 1..]) {
                                    if LOCK_GUARD_CALLS.contains(&call.as_str()) {
                                        guards.push((name, depth));
                                    }
                                }
                            }
                        }
                    } else if t.starts_with("drop(") || t.starts_with("drop (") {
                        let inner: String = t[t.find('(').unwrap_or(0) + 1..]
                            .trim_start()
                            .bytes()
                            .take_while(|&c| is_ident(c))
                            .map(char::from)
                            .collect();
                        guards.retain(|g| g.0 != inner);
                    }
                    stmt_start = j + 1;
                }
                _ => {}
            }
            j += 1;
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Workspace driver
// ---------------------------------------------------------------------------

/// Files rule 1 reads together: every source file of the engine's top
/// crate. A list of names would miss the next file that grows a `pub`
/// write API (`ingest.rs` held one and was never on the list).
pub fn is_durable_gate_surface(rel: &Path) -> bool {
    rel.starts_with("crates/core/src")
}

fn is_storage_src(rel: &Path) -> bool {
    rel.starts_with("crates/storage/src")
}

/// Layers under the panic audit (rule 3): storage since PR 7, tree since
/// PR 10 — both run under the engine's recovery and latching protocols.
fn is_panic_audited_src(rel: &Path) -> bool {
    is_storage_src(rel) || rel.starts_with("crates/tree/src")
}

/// Crates whose locks participate in the rank hierarchy (rule 6).
fn is_ranked_lock_src(rel: &Path) -> bool {
    rel.starts_with("crates/core/src")
        || rel.starts_with("crates/storage/src")
        || rel.starts_with("crates/tree/src")
}

fn in_shim(rel: &Path) -> bool {
    rel.components()
        .any(|c| c.as_os_str().to_str() == Some("shims"))
}

fn is_test_tree(rel: &Path) -> bool {
    rel.components().any(|c| {
        matches!(
            c.as_os_str().to_str(),
            Some("tests") | Some("benches") | Some("examples") | Some("fixtures")
        )
    })
}

/// Apply every applicable rule to one file. `rel` is the repo-relative
/// path; dispatch is purely path-based so fixtures can impersonate any
/// location.
pub fn check_file(rel: &Path, source: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    if in_shim(rel) {
        return out;
    }
    out.extend(rule_guard_discipline(rel, source));
    if is_panic_audited_src(rel) {
        out.extend(rule_storage_panic(rel, source));
    }
    if !is_test_tree(rel) && is_ranked_lock_src(rel) {
        out.extend(rule_unranked_lock(rel, source));
    }
    if !is_test_tree(rel) {
        out.extend(rule_shim_bypass(rel, source));
        // Storage-band locks are io-tolerant by design (the runtime
        // io_region check exempts them); the static rule audits the
        // upper layers, where every lock is a scheduling lock.
        if !is_storage_src(rel) {
            out.extend(rule_prefetch_lock_hold(rel, source));
        }
    }
    out
}

fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" || name == "fixtures" {
                continue;
            }
            walk(&path, files);
        } else if name.ends_with(".rs") {
            files.push(path);
        }
    }
}

/// Scan the whole workspace rooted at `root`. Returns all violations,
/// sorted by path and line.
pub fn check_workspace(root: &Path) -> Vec<Violation> {
    let mut files = Vec::new();
    for top in ["src", "crates", "examples"] {
        walk(&root.join(top), &mut files);
    }
    files.sort();

    let mut out = Vec::new();
    let mut gate_files: Vec<(PathBuf, String)> = Vec::new();
    for path in &files {
        let Ok(source) = std::fs::read_to_string(path) else {
            continue;
        };
        let rel = path.strip_prefix(root).unwrap_or(path).to_path_buf();
        if is_durable_gate_surface(&rel) {
            gate_files.push((rel.clone(), source.clone()));
        }
        out.extend(check_file(&rel, &source));
    }
    let borrowed: Vec<(&Path, &str)> = gate_files
        .iter()
        .map(|(p, s)| (p.as_path(), s.as_str()))
        .collect();
    out.extend(rule_durable_gate(&borrowed));
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitizer_blanks_comments_and_strings() {
        let src = "let x = \"a.unwrap()\"; // .expect(\nlet c = 'y'; /* std::sync::Mutex */\n";
        let clean = sanitize(src);
        assert!(!clean.contains("unwrap"));
        assert!(!clean.contains("expect"));
        assert!(!clean.contains("Mutex"));
        assert_eq!(clean.lines().count(), src.lines().count());
    }

    #[test]
    fn sanitizer_handles_raw_strings_and_lifetimes() {
        let src = "fn f<'a>(x: &'a str) { let r = r#\"lock() \"inner\" \"#; }";
        let clean = sanitize(src);
        assert!(!clean.contains("lock()"));
        assert!(clean.contains("fn f<'a>"));
    }

    #[test]
    fn test_mask_covers_cfg_test_mod() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}\n";
        let clean = sanitize(src);
        let mask = test_mask(&clean);
        assert!(!mask[0]);
        assert!(mask[2]);
        assert!(mask[3]);
        assert!(!mask[5]);
    }

    #[test]
    fn last_toplevel_call_ignores_nested_args() {
        assert_eq!(
            last_toplevel_call("writeln!(s, \"{}\", m.lock())").as_deref(),
            Some("writeln")
        );
        assert_eq!(
            last_toplevel_call("results[i].lock()").as_deref(),
            Some("lock")
        );
        assert_eq!(
            last_toplevel_call("m.try_lock().unwrap()").as_deref(),
            Some("try_lock")
        );
        assert_eq!(
            last_toplevel_call("g.read().bytes()[0]").as_deref(),
            Some("bytes")
        );
    }
}
