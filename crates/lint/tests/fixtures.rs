//! Fixture tests: each known-bad snippet under `tests/fixtures/` must
//! trip exactly its rule at the expected lines, and the real workspace
//! must scan clean. Fixtures are fed to [`natix_lint::check_file`] under
//! impersonated repo-relative paths (rule dispatch is path-based), so a
//! fixture can pretend to live anywhere in the tree.

use std::path::Path;

use natix_lint::{check_file, rule_durable_gate, Violation};

fn lines_for(violations: &[Violation], rule: &str) -> Vec<usize> {
    violations
        .iter()
        .filter(|v| v.rule == rule)
        .map(|v| v.line)
        .collect()
}

#[test]
fn storage_panic_fixture_trips_rule() {
    let src = include_str!("fixtures/storage_panics.rs");
    let violations = check_file(Path::new("crates/storage/src/storage_panics.rs"), src);
    assert_eq!(lines_for(&violations, "storage-panic"), vec![5, 9]);
    assert!(
        violations.iter().all(|v| v.rule == "storage-panic"),
        "unexpected extra rules: {violations:?}"
    );
}

#[test]
fn storage_panic_rule_is_path_scoped() {
    // The same source outside crates/storage/src is not the rule's business.
    let src = include_str!("fixtures/storage_panics.rs");
    let violations = check_file(Path::new("crates/core/src/storage_panics.rs"), src);
    assert!(lines_for(&violations, "storage-panic").is_empty());
}

#[test]
fn dropped_guard_fixture_trips_rule() {
    let src = include_str!("fixtures/dropped_guards.rs");
    let violations = check_file(Path::new("crates/core/src/dropped_guards.rs"), src);
    assert_eq!(lines_for(&violations, "guard-discipline"), vec![5, 6, 7]);
}

#[test]
fn std_sync_fixture_trips_rule() {
    let src = include_str!("fixtures/std_sync.rs");
    let violations = check_file(Path::new("crates/core/src/std_sync.rs"), src);
    assert_eq!(lines_for(&violations, "shim-bypass"), vec![5, 9, 13, 14]);
}

#[test]
fn shim_itself_is_exempt() {
    let src = include_str!("fixtures/std_sync.rs");
    let violations = check_file(Path::new("crates/shims/parking_lot/src/std_sync.rs"), src);
    assert!(violations.is_empty());
}

#[test]
fn missing_gate_fixture_trips_rule() {
    let src = include_str!("fixtures/missing_gate.rs");
    let violations = rule_durable_gate(&[(Path::new("crates/core/src/document.rs"), src)]);
    let flagged: Vec<&str> = violations
        .iter()
        .map(|v| {
            v.message
                .split('`')
                .nth(1)
                .expect("message names the fn in backticks")
        })
        .collect();
    assert_eq!(flagged, vec!["bad_direct_edit", "bad_indirect_edit"]);
}

#[test]
fn missing_gate_directory_fixture_trips_rule() {
    let src = include_str!("fixtures/missing_gate_directory.rs");
    let violations = rule_durable_gate(&[(Path::new("crates/core/src/repository.rs"), src)]);
    let lines: Vec<usize> = violations.iter().map(|v| v.line).collect();
    assert_eq!(lines, vec![8, 13], "{violations:?}");
}

#[test]
fn durable_gate_surface_is_every_file_of_core() {
    // A write API outside document.rs / repository.rs is on the surface,
    // and reaches helpers of the other files by name.
    for file in [
        "document.rs",
        "repository.rs",
        "ingest.rs",
        "anything_new.rs",
    ] {
        let rel = Path::new("crates/core/src").join(file);
        assert!(natix_lint::is_durable_gate_surface(&rel), "{file}");
    }
    assert!(!natix_lint::is_durable_gate_surface(Path::new(
        "crates/tree/src/store.rs"
    )));
    let ingest = Path::new("crates/core/src/ingest.rs");
    let violations = rule_durable_gate(&[
        (
            Path::new("crates/core/src/document.rs"),
            include_str!("fixtures/missing_gate.rs"),
        ),
        (ingest, include_str!("fixtures/missing_gate_ingest.rs")),
    ]);
    let in_ingest: Vec<&Violation> = violations.iter().filter(|v| v.file == ingest).collect();
    assert_eq!(violations.len(), 3, "{violations:?}");
    assert_eq!(in_ingest.len(), 1, "{violations:?}");
    assert!(in_ingest[0].message.contains("`bad_parallel_load`"));
    assert_eq!(in_ingest[0].line, 8);
}

#[test]
fn held_prefetch_fixture_trips_rule() {
    let src = include_str!("fixtures/held_prefetch.rs");
    let violations = check_file(Path::new("crates/core/src/held_prefetch.rs"), src);
    assert_eq!(
        lines_for(&violations, "prefetch-lock-hold"),
        vec![7, 15, 39]
    );
}

#[test]
fn held_prefetch_rule_skips_storage_band() {
    // Storage-band locks are io-tolerant; the static rule stays out.
    let src = include_str!("fixtures/held_prefetch.rs");
    let violations = check_file(Path::new("crates/storage/src/held_prefetch.rs"), src);
    assert!(lines_for(&violations, "prefetch-lock-hold").is_empty());
}

#[test]
fn storage_panic_rule_covers_tree() {
    // The same fixture trips when impersonated as a crates/tree file —
    // the tree layer sits under the same recovery/latching protocols.
    let src = include_str!("fixtures/storage_panics.rs");
    let violations = check_file(Path::new("crates/tree/src/storage_panics.rs"), src);
    assert_eq!(lines_for(&violations, "storage-panic"), vec![5, 9]);
}

#[test]
fn unranked_lock_fixture_trips_rule() {
    // Impersonating the per-frame latch's file: the allow markers hold.
    let src = include_str!("fixtures/unranked_locks.rs");
    let violations = check_file(Path::new(natix_lint::UNRANKED_LOCK_HOME), src);
    assert_eq!(lines_for(&violations, "unranked-lock"), vec![7, 11, 15]);
}

#[test]
fn unranked_lock_fixture_trips_in_every_engine_crate() {
    // Anywhere else in the engine crates the escape comment exempts
    // nothing: the marked constructors (lines 26, 30) are flagged too.
    let src = include_str!("fixtures/unranked_locks.rs");
    for file in [
        "crates/storage/src/unranked_locks.rs",
        "crates/core/src/unranked_locks.rs",
        "crates/tree/src/unranked_locks.rs",
    ] {
        let violations = check_file(Path::new(file), src);
        assert_eq!(
            lines_for(&violations, "unranked-lock"),
            vec![7, 11, 15, 26, 30],
            "as {file}"
        );
    }
}

#[test]
fn unranked_lock_rule_is_path_scoped() {
    // Outside the engine crates (core/storage/tree) a bare constructor —
    // e.g. in a bench harness — is not the rule's business.
    let src = include_str!("fixtures/unranked_locks.rs");
    let violations = check_file(Path::new("crates/lint/src/unranked_locks.rs"), src);
    assert!(lines_for(&violations, "unranked-lock").is_empty());
}

#[test]
fn workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("lint crate sits two levels under the workspace root");
    let violations = natix_lint::check_workspace(root);
    assert!(
        violations.is_empty(),
        "workspace lint violations:\n{}",
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
