//! Golden tests for the interprocedural passes: fixture files under
//! `tests/fixtures/multipass/` run through [`rpm_lint::lint_files`] — the
//! same pipeline the `rpm-lint` binary uses — and must produce exactly
//! the seeded findings: rule IDs, lines, and call-chain text.
//!
//! Paths are synthetic. Pinned serving-layer paths (or engine paths) are
//! used so the fixtures draw only the finding under test and no
//! `lint-config-unclassified` noise; the unclassified golden uses a
//! deliberately unpinned path.

use rpm_lint::{baseline, lint_files, RULE_LOCK_ORDER, RULE_PANIC_REACH, RULE_UNCLASSIFIED};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/multipass/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

#[test]
fn panic_chain_two_deep_reports_the_full_chain() {
    let entry = fixture("panic_chain_entry.rs");
    let support = fixture("panic_chain_support.rs");
    let vs = lint_files(&[
        ("crates/core/src/engine/fx_entry.rs", &entry),
        ("crates/core/src/fx_support.rs", &support),
    ]);
    assert_eq!(vs.len(), 1, "got: {vs:#?}");
    let v = &vs[0];
    assert_eq!(v.rule, RULE_PANIC_REACH);
    assert_eq!(v.file, "crates/core/src/fx_support.rs");
    assert_eq!(v.line, 11, "the unwrap inside decode_bounds");
    assert_eq!(
        v.message,
        "`.unwrap(...)` in `decode_bounds`, reachable from serving entry `serve_window` via \
         serve_window -> parse_window -> decode_bounds; degrade to an error response instead \
         of panicking"
    );
}

#[test]
fn a_moved_reach_path_keeps_an_unchanged_site_baselined() {
    // Baseline the two-deep chain, then lint the support file after an
    // edit that adds a hop between the entry and the unchanged unwrap: the
    // site is still covered, and the printed message carries the new chain.
    let entry = fixture("panic_chain_entry.rs");
    let before = lint_files(&[
        ("crates/core/src/engine/fx_entry.rs", &entry),
        ("crates/core/src/fx_support.rs", &fixture("panic_chain_support.rs")),
    ]);
    let baseline = baseline::parse(&baseline::render(&before)).expect("baseline parses");
    let after = lint_files(&[
        ("crates/core/src/engine/fx_entry.rs", &entry),
        ("crates/core/src/fx_support.rs", &fixture("panic_reroute_support.rs")),
    ]);
    assert_eq!(after.len(), 1, "got: {after:#?}");
    assert!(
        after[0]
            .message
            .contains("via serve_window -> parse_window -> trim_window -> decode_bounds"),
        "{}",
        after[0].message
    );
    assert_ne!(after[0].message, before[0].message, "the chain moved");
    let d = baseline::diff(&after, &baseline);
    assert!(d.is_clean(), "{d:?}");
    assert!(d.stale.is_empty(), "{d:?}");
}

#[test]
fn seeded_two_lock_inversion_is_reported_as_a_cycle() {
    let src = fixture("deadlock.rs");
    let vs = lint_files(&[("crates/fake/src/pair.rs", &src)]);
    assert_eq!(vs.len(), 1, "got: {vs:#?}");
    let v = &vs[0];
    assert_eq!(v.rule, RULE_LOCK_ORDER);
    assert_eq!(v.file, "crates/fake/src/pair.rs");
    assert_eq!(v.line, 15, "anchored at forward's second acquisition");
    assert_eq!(
        v.message,
        "potential deadlock: lock-order cycle `Pair::alpha` -> `Pair::beta` -> `Pair::alpha`; \
         `Pair::alpha` then `Pair::beta` in `Pair::forward`; `Pair::beta` then `Pair::alpha` \
         in `Pair::backward`"
    );
}

#[test]
fn consistent_order_draws_no_cycle() {
    // The same fixture with `backward` taking the locks in forward's
    // order must pass: the lint keys on order, not on lock count.
    let src = fixture("deadlock.rs").replace(
        "let b = lock_recover(&self.beta);\n        let a = lock_recover(&self.alpha);",
        "let a = lock_recover(&self.alpha);\n        let b = lock_recover(&self.beta);",
    );
    assert!(src.contains("*a - *b"), "replacement must keep backward's body");
    let vs = lint_files(&[("crates/fake/src/pair.rs", &src)]);
    assert!(vs.is_empty(), "got: {vs:#?}");
}

#[test]
fn blocking_write_under_lock_is_reported() {
    let src = fixture("blocking.rs");
    let vs = lint_files(&[("crates/fake/src/shipper.rs", &src)]);
    assert_eq!(vs.len(), 1, "got: {vs:#?}");
    let v = &vs[0];
    assert_eq!(v.rule, RULE_LOCK_ORDER);
    assert_eq!(v.line, 16, "the write_all under the live guard");
    assert_eq!(
        v.message,
        "lock(s) `Shipper::state` held across blocking `.write_all(...)` in `Shipper::ship`; \
         drop the guard first or move the blocking work out of the critical section"
    );
}

#[test]
fn unpinned_server_file_draws_exactly_the_drift_warning() {
    let src = fixture("unclassified.rs");
    let vs = lint_files(&[("crates/server/src/fx_unpinned.rs", &src)]);
    assert_eq!(vs.len(), 1, "got: {vs:#?}");
    let v = &vs[0];
    assert_eq!(v.rule, RULE_UNCLASSIFIED);
    assert_eq!(v.line, 1);
    assert!(v.message.contains("SERVER_PINNED"), "{}", v.message);

    // The same content under a pinned path is entirely clean.
    let vs = lint_files(&[("crates/server/src/metrics.rs", &src)]);
    assert!(vs.is_empty(), "got: {vs:#?}");
}
