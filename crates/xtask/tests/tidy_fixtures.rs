//! End-to-end fixture coverage: every diagnostic code has at least one
//! violating and one conforming fixture, and the waiver lifecycle behaves.

use std::collections::BTreeSet;

use xtask::determinism::check_determinism;
use xtask::manifest::{check_lib_header, check_manifest};
use xtask::ownership::{check_ownership, counters, WRITERS};
use xtask::runner::apply_waivers;
use xtask::workspace::{SourceFile, Workspace};
use xtask::Code;

/// Lex a fixture into a one-file workspace.
fn fixture_ws(path: &str, source: &str) -> Workspace {
    Workspace {
        files: vec![SourceFile::new(path, source)],
    }
}

/// A library path outside every owning module.
const PLAIN_PATH: &str = "crates/bench/src/fixture.rs";

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
fn mcsd010_flags_hash_iteration_reaching_a_sink_with_exact_span() {
    let ws = fixture_ws(PLAIN_PATH, include_str!("fixtures/mcsd010_violating.rs"));
    let diags = check_determinism(&ws);
    assert_eq!(diags.len(), 2, "{diags:?}");
    assert_eq!(diags[0].code, Code::Mcsd010);
    assert_eq!(diags[0].path, PLAIN_PATH);
    // The iteration on line 6, anchored at `counts`; the sink is the
    // `push_str` on line 7.
    assert_eq!((diags[0].line, diags[0].col), (6, 19), "{}", diags[0]);
    assert!(diags[0].message.contains("`counts`"));
    assert!(diags[0].message.contains("line 7"));
    // Counter rows collected in hash order on line 15 reach the trace
    // export's entry point on line 16.
    assert_eq!(diags[1].line, 15, "{}", diags[1]);
    assert!(diags[1].message.contains("`totals`"));
    assert!(diags[1].message.contains("`jsonl_with(` on line 16"));
}

#[test]
fn mcsd010_clean_fixture_passes() {
    let ws = fixture_ws(PLAIN_PATH, include_str!("fixtures/mcsd010_clean.rs"));
    let diags = check_determinism(&ws);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn mcsd010_flags_a_second_domain_for_one_track_at_the_second_site() {
    let first = "crates/fixturecrate/src/daemon.rs";
    let second = "crates/fixturecrate/src/replication.rs";
    let ws = Workspace {
        files: vec![
            SourceFile::new(first, include_str!("fixtures/mcsd010_track_first.rs")),
            SourceFile::new(second, include_str!("fixtures/mcsd010_track_second.rs")),
        ],
    };
    let diags = check_determinism(&ws);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, Code::Mcsd010);
    assert_eq!(diags[0].path, second);
    // The literal call on line 5, anchored at `track`; the const call on
    // line 4 agrees with the first site.
    assert_eq!((diags[0].line, diags[0].col), (5, 12), "{}", diags[0]);
    assert!(diags[0].message.contains("ClockDomain::Work"));
    assert!(diags[0].message.contains(&format!("{first}:5")));
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
fn waiver_lifecycle() {
    // The four states, plus the waiver a migrating reader will hit: one
    // naming a code whose rule is a clippy lint now (spelled out of line
    // so the tree itself greps clean of such waivers).
    let source = format!(
        "{}// tidy:allow({}) -- written before the per-line rules became lints\npub fn migrated() {{}}\n",
        include_str!("fixtures/waivers.rs"),
        "MCSD002"
    );
    let ws = fixture_ws(PLAIN_PATH, &source);
    let out = apply_waivers(&ws.files[0], check_determinism(&ws));
    // Two well-formed waivers suppress their findings; the malformed one,
    // the unused one and the retired one each surface as MCSD000, and the
    // finding under the malformed waiver stays.
    assert_eq!(out.waivers_honored, 2, "{:?}", out.diagnostics);
    let count = |code| out.diagnostics.iter().filter(|d| d.code == code).count();
    assert_eq!(count(Code::Mcsd000), 3, "{:?}", out.diagnostics);
    assert_eq!(count(Code::Mcsd010), 1, "{:?}", out.diagnostics);
    let retired = out
        .diagnostics
        .iter()
        .filter(|d| d.message.contains("retired"));
    assert_eq!(retired.count(), 1, "{:?}", out.diagnostics);
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
    // The waiver budget is the count in the tree: the tree stays
    // analyzable without blanket escapes, and a new waiver shows up as a
    // diff of this number — a review decision, not a tweak.
    assert!(
        report.waivers_honored <= 1,
        "waiver budget exceeded: {} > 1",
        report.waivers_honored
    );
    // `WRITERS` covers every `u64` field of the seven families and each
    // entry names at least one, so a renamed family fails here instead of
    // dropping out of enforcement. 52 is a floor: a new counter stays two
    // edits, its field and its `counter_family!` row.
    let ws = xtask::runner::load_workspace(root).expect("workspace loads");
    let counters = counters(&ws, &WRITERS);
    assert!(counters.iter().all(|c| c.writers.is_some()));
    assert!(counters.len() >= 52, "{} counters", counters.len());
    let families: BTreeSet<&str> = counters.iter().map(|c| c.family.as_str()).collect();
    assert_eq!(families.len(), 7, "{families:?}");
    for (entry, _) in WRITERS {
        assert!(
            counters.iter().any(|c| c.named_by(entry)),
            "`{entry}` names no counter"
        );
    }
}
