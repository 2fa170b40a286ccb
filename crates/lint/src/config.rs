//! The repo-specific knowledge: which files are request-reachable, which
//! are mining hot path, which crates may skip `#![forbid(unsafe_code)]`,
//! and which documents carry checkable constant claims.
//!
//! Paths are workspace-relative with `/` separators. Keeping this in code
//! (rather than a config file) is deliberate: the classification *is* an
//! invariant of the architecture, and changing it should look like a code
//! change in review.

/// Classification of one source file, driving which rules apply.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileCtx {
    /// A request can reach this module: the serving layer and the engine
    /// it drives. `panic-free-serving` applies.
    pub request_reachable: bool,
    /// Mining recursion / worker-loop code: `no-raw-clock-in-hot-path`
    /// applies.
    pub hot_path: bool,
    /// A crate root (`src/lib.rs`): `forbid-unsafe` applies.
    pub crate_root: bool,
    /// Crate allowlisted to omit `#![forbid(unsafe_code)]`.
    pub unsafe_allowlisted: bool,
    /// A file under `crates/server/src/` that is missing from
    /// `SERVER_PINNED`: it still gets the serving-layer rules (the safe
    /// default), and `lint-config-unclassified` flags it so the pin table
    /// cannot silently drift when new modules are added (PR 8 had to
    /// hand-pin `replica/` after the fact — this makes the omission loud).
    pub unclassified_serving: bool,
}

/// Module trees a request can reach: the whole server crate (HTTP codec,
/// pool, registry, cache, handlers) and the engine layer it calls into.
const REQUEST_REACHABLE_PREFIXES: &[&str] = &["crates/server/src/", "crates/core/src/engine"];

/// Files forming the mining recursion and the loops that drive it. Clock
/// access here must flow through `ControlProbe` (see DESIGN.md §6); the
/// probe's own implementation carries `lint:allow` pragmas, being the one
/// sanctioned reader of the wall clock.
const HOT_PATH_FILES: &[&str] = &[
    "crates/core/src/growth.rs",
    "crates/core/src/parallel.rs",
    "crates/core/src/incremental.rs",
    "crates/core/src/delta.rs",
    "crates/core/src/checkpoint.rs",
    "crates/core/src/rplist.rs",
    "crates/core/src/tree.rs",
    "crates/core/src/merge.rs",
    "crates/core/src/measures.rs",
    "crates/server/src/lib.rs",
    "crates/server/src/pool.rs",
];

/// Hot-path module trees (every file below them). The replication
/// subsystem is listed on purpose: its pacing must come from socket and
/// channel timeouts, never from raw clock reads on the apply path.
const HOT_PATH_PREFIXES: &[&str] = &["crates/core/src/engine", "crates/server/src/replica"];

/// Crates allowed to omit `#![forbid(unsafe_code)]` from their root.
/// Empty today — additions need a justification in DESIGN.md §7.
const UNSAFE_ALLOWLIST: &[&str] = &[];

/// Every file of the server crate, pinned by hand. A file under
/// `crates/server/src/` that is *not* in this list is linted under the
/// serving-layer default **and** flagged by `lint-config-unclassified`:
/// adding a server module forces an explicit classification decision
/// (serving-only, or also hot-path) in this table.
const SERVER_PINNED: &[&str] = &[
    "crates/server/src/lib.rs",
    "crates/server/src/http.rs",
    "crates/server/src/pool.rs",
    "crates/server/src/cache.rs",
    "crates/server/src/registry.rs",
    "crates/server/src/metrics.rs",
    "crates/server/src/timeparse.rs",
    "crates/server/src/persist/mod.rs",
    "crates/server/src/persist/wal.rs",
    "crates/server/src/persist/snapshot.rs",
    "crates/server/src/replica/mod.rs",
    "crates/server/src/replica/primary.rs",
    "crates/server/src/replica/follower.rs",
    "crates/server/src/replica/proto.rs",
];

/// Documents scanned by `doc-constant-drift` for `` `NAME = value` ``
/// claims.
pub const CHECKED_DOCS: &[&str] = &["DESIGN.md", "docs/ARCHITECTURE.md"];

/// Classifies a workspace-relative path.
pub fn classify(rel: &str) -> FileCtx {
    let crate_root =
        rel == "src/lib.rs" || (rel.starts_with("crates/") && rel.ends_with("/src/lib.rs"));
    FileCtx {
        request_reachable: REQUEST_REACHABLE_PREFIXES.iter().any(|p| rel.starts_with(p)),
        hot_path: HOT_PATH_FILES.contains(&rel)
            || HOT_PATH_PREFIXES.iter().any(|p| rel.starts_with(p)),
        crate_root,
        unsafe_allowlisted: crate_root && UNSAFE_ALLOWLIST.iter().any(|c| rel.starts_with(c)),
        unclassified_serving: rel.starts_with("crates/server/src/")
            && !SERVER_PINNED.contains(&rel),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_and_engine_are_request_reachable() {
        assert!(classify("crates/server/src/http.rs").request_reachable);
        assert!(classify("crates/server/src/lib.rs").request_reachable);
        assert!(classify("crates/core/src/engine/session.rs").request_reachable);
        assert!(classify("crates/core/src/engine.rs").request_reachable);
        assert!(!classify("crates/core/src/growth.rs").request_reachable);
        assert!(!classify("crates/bench/src/lib.rs").request_reachable);
    }

    #[test]
    fn persistence_layer_is_request_reachable_but_not_hot_path() {
        // The WAL/snapshot subsystem serves requests (appends journal
        // through it), so `panic-free-serving` applies; its fsync pacing
        // legitimately reads the wall clock, so it must stay off the
        // hot-path list.
        for file in ["mod.rs", "wal.rs", "snapshot.rs"] {
            let ctx = classify(&format!("crates/server/src/persist/{file}"));
            assert!(ctx.request_reachable, "persist/{file} must be serving-layer");
            assert!(!ctx.hot_path, "persist/{file} must not be clock-restricted");
        }
    }

    #[test]
    fn hot_path_covers_recursion_and_workers() {
        assert!(classify("crates/core/src/growth.rs").hot_path);
        assert!(classify("crates/core/src/delta.rs").hot_path);
        assert!(classify("crates/core/src/checkpoint.rs").hot_path);
        assert!(classify("crates/core/src/engine/control.rs").hot_path);
        assert!(classify("crates/server/src/lib.rs").hot_path);
        assert!(!classify("crates/datagen/src/zipf.rs").hot_path);
    }

    #[test]
    fn replication_is_serving_layer_and_clock_restricted() {
        // replica/ ships journal records on the request path (appends
        // publish into it under the dataset lock), so `panic-free-serving`
        // applies; its heartbeat pacing must come from `recv_timeout` and
        // socket deadlines rather than raw clock reads, so it is also
        // hot-path-classified.
        for file in ["mod.rs", "primary.rs", "follower.rs", "proto.rs"] {
            let ctx = classify(&format!("crates/server/src/replica/{file}"));
            assert!(ctx.request_reachable, "replica/{file} must be serving-layer");
            assert!(ctx.hot_path, "replica/{file} must be clock-restricted");
        }
    }

    #[test]
    fn pinned_server_files_are_classified() {
        for rel in SERVER_PINNED {
            assert!(!classify(rel).unclassified_serving, "{rel} is pinned");
        }
        assert!(!classify("crates/core/src/tree.rs").unclassified_serving);
    }

    #[test]
    fn unpinned_server_file_is_flagged_and_still_serving_layer() {
        let ctx = classify("crates/server/src/newmod.rs");
        assert!(ctx.unclassified_serving, "drift must be loud");
        assert!(ctx.request_reachable, "safe default: serving-layer rules apply");
    }

    #[test]
    fn crate_roots_are_detected() {
        assert!(classify("src/lib.rs").crate_root);
        assert!(classify("crates/lint/src/lib.rs").crate_root);
        assert!(!classify("crates/server/src/pool.rs").crate_root);
        assert!(!classify("src/bin/rpm.rs").crate_root);
    }
}
