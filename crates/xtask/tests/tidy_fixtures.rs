//! End-to-end fixture coverage: every diagnostic code has at least one
//! violating and one conforming fixture.

use std::collections::BTreeSet;

use xtask::manifest::{check_lib_header, check_manifest};
use xtask::ownership::{check_ownership, counters, WRITERS};
use xtask::workspace::{SourceFile, Workspace};
use xtask::Code;

/// Lex a fixture into a one-file workspace.
fn fixture_ws(path: &str, source: &str) -> Workspace {
    Workspace {
        files: vec![SourceFile::new(path, source)],
    }
}

/// The writers both MCSD009 fixture tests run against: `shed` is owned
/// by `crates/smartfam/src/daemon.rs` and nowhere else.
const MCSD009_WRITERS: [(&str, &[&str]); 1] = [("DaemonStats", &["crates/smartfam/src/daemon.rs"])];

#[test]
fn mcsd009_flags_mutation_outside_owner_with_exact_span() {
    let ws = fixture_ws(
        "crates/fixturecrate/src/rogue.rs",
        include_str!("fixtures/mcsd009_violating.rs"),
    );
    let diags = check_ownership(&ws, &MCSD009_WRITERS);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, Code::Mcsd009);
    assert_eq!(diags[0].path, "crates/fixturecrate/src/rogue.rs");
    // The mutation `stats.shed += 1;` on line 7, anchored at `shed`.
    assert_eq!((diags[0].line, diags[0].col), (7, 11), "{}", diags[0]);
    assert!(diags[0].message.contains("crates/smartfam/src/daemon.rs"));
}

#[test]
fn mcsd009_clean_fixture_passes_at_the_owning_site() {
    let ws = fixture_ws(
        "crates/smartfam/src/daemon.rs",
        include_str!("fixtures/mcsd009_clean.rs"),
    );
    let diags = check_ownership(&ws, &MCSD009_WRITERS);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn mcsd009_field_entry_overrides_only_its_field() {
    let host = "crates/smartfam/src/host.rs";
    let writers: [(&str, &[&str]); 2] = [
        ("ResilienceStats", &["crates/smartfam/src/faults.rs"]),
        ("ResilienceStats.attempts", &[host]),
    ];
    let ws = fixture_ws(host, include_str!("fixtures/mcsd009_override.rs"));
    let diags = check_ownership(&ws, &writers);
    assert_eq!(diags.len(), 1, "{diags:?}");
    // `stats.failovers += 1;` on line 10; `attempts` on line 9 is allowed.
    assert_eq!((diags[0].line, diags[0].col), (10, 11), "{}", diags[0]);
    assert!(diags[0].message.contains("`failovers`"));
}

#[test]
fn mcsd006_flags_version_pins_and_missing_lints() {
    let diags = check_manifest(
        "crates/fixture/Cargo.toml",
        include_str!("fixtures/mcsd006_violating.toml"),
    );
    assert!(
        diags.iter().filter(|d| d.code == Code::Mcsd006).count() >= 3,
        "two pinned deps + missing [lints] table: {diags:?}"
    );
}

#[test]
fn mcsd006_clean_manifest_passes() {
    let diags = check_manifest(
        "crates/fixture/Cargo.toml",
        include_str!("fixtures/mcsd006_clean.toml"),
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn mcsd006_flags_weak_lib_header() {
    let diags = check_lib_header(
        "crates/fixture/src/lib.rs",
        include_str!("fixtures/mcsd006_lib_violating.rs"),
    );
    // `warn(missing_docs)`, and none of the four lint-policy lines.
    assert_eq!(diags.len(), 5, "{diags:?}");
    assert!(diags.iter().all(|d| d.code == Code::Mcsd006));
}

#[test]
fn mcsd006_clean_lib_header_passes() {
    let diags = check_lib_header(
        "crates/fixture/src/lib.rs",
        include_str!("fixtures/mcsd006_lib_clean.rs"),
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn real_workspace_is_tidy() {
    // The repository itself must stay clean: this is the acceptance
    // criterion "tidy exits 0 on the workspace", enforced as a test.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let report = xtask::run_tidy(root).expect("tidy runs");
    assert!(
        report.diagnostics.is_empty(),
        "workspace has tidy violations:\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.files_scanned > 50,
        "scanned {}",
        report.files_scanned
    );
    // `WRITERS` covers every `u64` field of the seven families and each
    // entry names at least one, so a renamed family fails here instead of
    // dropping out of enforcement. 51 is a floor: a new counter stays two
    // edits, its field and its `counter_family!` row.
    let ws = xtask::runner::load_workspace(root).expect("workspace loads");
    let counters = counters(&ws, &WRITERS);
    assert!(counters.iter().all(|c| c.writers.is_some()));
    assert!(counters.len() >= 51, "{} counters", counters.len());
    let families: BTreeSet<&str> = counters.iter().map(|c| c.family.as_str()).collect();
    assert_eq!(families.len(), 7, "{families:?}");
    for (entry, _) in WRITERS {
        assert!(
            counters.iter().any(|c| c.named_by(entry)),
            "`{entry}` names no counter"
        );
    }
}
