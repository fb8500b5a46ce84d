//! Expected-exports guard for the facade crate.
//!
//! The facade is one front door (`CubeSession::query`) over one dispatch
//! table (`Algorithm::run_bound_with`), the engine has one entry point
//! (`run_partitioned`) over one task scheduler (`schedule`), and delta
//! maintenance runs on that scheduler. This test pins the public surface of
//! those layers (`src/lib.rs`, `src/session.rs`, and the engine and delta
//! crate roots) against a checked-in snapshot so a future change cannot
//! silently regrow a `run*` / `_with` / `_bound` entry-point fan-out. It is a
//! source-level guard (no rustdoc JSON on the offline toolchain): every
//! `pub fn/struct/enum/const/trait/type/mod` above the `#[cfg(test)]`
//! marker is extracted and compared, in order, with
//! `tests/expected_public_api.txt`.
//!
//! To accept an intentional surface change, regenerate the snapshot:
//!
//! ```sh
//! CCUBE_BLESS=1 cargo test --test public_api
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

const FACADE_SOURCES: [&str; 4] = [
    "src/lib.rs",
    "src/session.rs",
    "crates/engine/src/lib.rs",
    "crates/delta/src/lib.rs",
];
const SNAPSHOT: &str = "tests/expected_public_api.txt";

fn manifest_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// Extract `kind name` lines for every public item of `source`, stopping at
/// the unit-test module. `pub(crate)`/`pub(super)` items are internal and
/// skipped (they don't start with `pub `).
fn public_items(rel: &str) -> Vec<String> {
    let source = std::fs::read_to_string(manifest_path(rel))
        .unwrap_or_else(|e| panic!("cannot read {rel}: {e}"));
    let mut items = Vec::new();
    for line in source.lines() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("#[cfg(test)]") {
            break;
        }
        for kind in ["fn", "struct", "enum", "const", "trait", "type", "mod"] {
            if let Some(rest) = trimmed.strip_prefix(&format!("pub {kind} ")) {
                let name: String = rest
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if !name.is_empty() {
                    items.push(format!("{rel}: {kind} {name}"));
                }
            }
        }
    }
    items
}

fn current_surface() -> String {
    let mut out = String::from(
        "# Facade public API surface — regenerate with \
         `CCUBE_BLESS=1 cargo test --test public_api`.\n",
    );
    for rel in FACADE_SOURCES {
        for item in public_items(rel) {
            writeln!(out, "{item}").expect("write to string");
        }
    }
    out
}

#[test]
fn facade_exports_match_the_checked_in_snapshot() {
    let current = current_surface();
    let snapshot_path = manifest_path(SNAPSHOT);
    if std::env::var_os("CCUBE_BLESS").is_some() {
        std::fs::write(&snapshot_path, &current).expect("write snapshot");
        return;
    }
    let expected = std::fs::read_to_string(&snapshot_path).unwrap_or_else(|e| {
        panic!("missing snapshot {SNAPSHOT} ({e}); run CCUBE_BLESS=1 cargo test --test public_api")
    });
    assert_eq!(
        current, expected,
        "facade public surface changed; review the diff above and, if \
         intentional, re-bless with CCUBE_BLESS=1 cargo test --test public_api"
    );
}

#[test]
fn snapshot_covers_the_query_api() {
    // Belt and braces: the snapshot itself must mention the PR-5 types, so
    // an accidentally emptied snapshot cannot pass silently.
    let expected = std::fs::read_to_string(manifest_path(SNAPSHOT)).expect("snapshot present");
    for needle in [
        "struct CubeSession",
        "struct CubeQuery",
        "struct CellStream",
        "struct TableStats",
        "fn recommend",
        "enum Algorithm",
        "fn run_bound_with",
        "fn run_partitioned",
        "fn schedule",
        "struct MaterializedCube",
    ] {
        assert!(expected.contains(needle), "snapshot lost `{needle}`");
    }
}
