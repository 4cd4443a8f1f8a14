//! End-to-end fixture coverage: every diagnostic code has at least one
//! violating and one conforming fixture, and the waiver lifecycle behaves.

use xtask::checks::{check_scanned, CheckOutcome};
use xtask::determinism::check_determinism;
use xtask::lex::lex;
use xtask::locks::check_locks;
use xtask::manifest::{check_lib_header, check_manifest};
use xtask::ownership::{check_ownership, parse_ownership_table};
use xtask::scan::{scan_source, scan_tokens};
use xtask::workspace::{SourceFile, Workspace};
use xtask::{Code, FileContext, FileKind};

/// Scan a fixture as library code at `path` and run the source checks.
fn check(path: &str, source: &str) -> CheckOutcome {
    let ctx = FileContext {
        path: path.to_string(),
        kind: FileKind::Lib,
    };
    check_scanned(&ctx, &scan_source(source))
}

/// Lex a fixture into a one-file workspace for the deep rules.
fn fixture_ws(path: &str, source: &str) -> Workspace {
    let tokens = lex(source);
    let scanned = scan_tokens(source, &tokens);
    Workspace {
        files: vec![SourceFile {
            ctx: FileContext {
                path: path.to_string(),
                kind: FileKind::Lib,
            },
            tokens,
            scanned,
        }],
    }
}

fn codes(outcome: &CheckOutcome) -> Vec<Code> {
    outcome.diagnostics.iter().map(|d| d.code).collect()
}

/// A path inside a simulation crate, where MCSD001 applies.
const SIM_PATH: &str = "crates/phoenix/src/fixture.rs";
/// A path outside the simulation crates (I/O-adjacent code).
const PLAIN_PATH: &str = "crates/bench/src/fixture.rs";

#[test]
fn mcsd001_flags_wall_clock_in_sim_crates() {
    let out = check(SIM_PATH, include_str!("fixtures/mcsd001_violating.rs"));
    let found = codes(&out);
    assert_eq!(
        found.iter().filter(|c| **c == Code::Mcsd001).count(),
        3,
        "Instant::now, thread::sleep and SystemTime::now must all fire: {found:?}"
    );
}

#[test]
fn mcsd001_clean_fixture_passes() {
    let out = check(SIM_PATH, include_str!("fixtures/mcsd001_clean.rs"));
    assert!(out.diagnostics.is_empty(), "{:?}", out.diagnostics);
}

#[test]
fn mcsd001_does_not_apply_outside_sim_crates() {
    let out = check(PLAIN_PATH, include_str!("fixtures/mcsd001_violating.rs"));
    assert!(
        !codes(&out).contains(&Code::Mcsd001),
        "MCSD001 is scoped to the simulation crates: {:?}",
        out.diagnostics
    );
}

#[test]
fn mcsd002_flags_panicking_library_code() {
    let out = check(PLAIN_PATH, include_str!("fixtures/mcsd002_violating.rs"));
    let found = codes(&out);
    assert_eq!(
        found.iter().filter(|c| **c == Code::Mcsd002).count(),
        4,
        "unwrap, expect, panic! and todo! must all fire: {found:?}"
    );
}

#[test]
fn mcsd002_clean_fixture_passes() {
    let out = check(PLAIN_PATH, include_str!("fixtures/mcsd002_clean.rs"));
    assert!(out.diagnostics.is_empty(), "{:?}", out.diagnostics);
}

#[test]
fn mcsd002_does_not_apply_to_binaries() {
    let ctx = FileContext {
        path: "crates/bench/src/bin/fixture.rs".to_string(),
        kind: FileKind::Bin,
    };
    let out = check_scanned(
        &ctx,
        &scan_source(include_str!("fixtures/mcsd002_violating.rs")),
    );
    assert!(out.diagnostics.is_empty(), "{:?}", out.diagnostics);
}

#[test]
fn mcsd008_flags_cycle_and_blocking_io_with_exact_spans() {
    let ws = fixture_ws(
        "crates/fixturecrate/src/locks.rs",
        include_str!("fixtures/mcsd008_violating.rs"),
    );
    let diags = check_locks(&ws);
    assert_eq!(diags.len(), 2, "{diags:?}");
    for d in &diags {
        assert_eq!(d.code, Code::Mcsd008);
        assert_eq!(d.path, "crates/fixturecrate/src/locks.rs");
    }
    let cycle = diags
        .iter()
        .find(|d| d.message.contains("lock-order cycle"))
        .expect("cycle finding");
    // Anchored at the first edge site: `p.b.lock()` on line 11, at `b`.
    assert_eq!((cycle.line, cycle.col), (11, 15), "{cycle}");
    assert!(cycle.message.contains("fixturecrate/a"));
    assert!(cycle.message.contains("fixturecrate/b"));
    let blocking = diags
        .iter()
        .find(|d| d.message.contains("blocking operation `is_file`"))
        .expect("blocking finding");
    assert_eq!((blocking.line, blocking.col), (25, 24), "{blocking}");
    assert!(blocking.message.contains("fixturecrate/a"));
}

#[test]
fn mcsd008_clean_fixture_passes() {
    let ws = fixture_ws(
        "crates/fixturecrate/src/locks.rs",
        include_str!("fixtures/mcsd008_clean.rs"),
    );
    let diags = check_locks(&ws);
    assert!(diags.is_empty(), "{diags:?}");
}

/// The §13-style table both MCSD009 fixture tests run against: `shed` is
/// owned by `crates/smartfam/src/daemon.rs` and nowhere else.
const MCSD009_DOC: &str = "\
<!-- mcsd009:counter-ownership-table:begin -->
| counter | owner | allowed mutation sites |
|---------|-------|------------------------|
| `DaemonStats.shed` | smartFAM daemon | `crates/smartfam/src/daemon.rs` |
<!-- mcsd009:counter-ownership-table:end -->
";

#[test]
fn mcsd009_flags_mutation_outside_owner_with_exact_span() {
    let (table, errs) = parse_ownership_table(MCSD009_DOC, "DESIGN.md");
    assert!(errs.is_empty(), "{errs:?}");
    let ws = fixture_ws(
        "crates/fixturecrate/src/rogue.rs",
        include_str!("fixtures/mcsd009_violating.rs"),
    );
    let diags = check_ownership(&ws, &table, "DESIGN.md");
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, Code::Mcsd009);
    assert_eq!(diags[0].path, "crates/fixturecrate/src/rogue.rs");
    // The mutation `stats.shed += 1;` on line 7, anchored at `shed`.
    assert_eq!((diags[0].line, diags[0].col), (7, 11), "{}", diags[0]);
    assert!(diags[0].message.contains("crates/smartfam/src/daemon.rs"));
}

#[test]
fn mcsd009_clean_fixture_passes_at_the_owning_site() {
    let (table, _) = parse_ownership_table(MCSD009_DOC, "DESIGN.md");
    let ws = fixture_ws(
        "crates/smartfam/src/daemon.rs",
        include_str!("fixtures/mcsd009_clean.rs"),
    );
    let diags = check_ownership(&ws, &table, "DESIGN.md");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn mcsd010_flags_hash_iteration_reaching_a_sink_with_exact_span() {
    let ws = fixture_ws(PLAIN_PATH, include_str!("fixtures/mcsd010_violating.rs"));
    let diags = check_determinism(&ws, None);
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
    let diags = check_determinism(&ws, None);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn mcsd004_flags_unseeded_rng() {
    let out = check(PLAIN_PATH, include_str!("fixtures/mcsd004_violating.rs"));
    assert!(
        codes(&out).contains(&Code::Mcsd004),
        "{:?}",
        out.diagnostics
    );
}

#[test]
fn mcsd004_applies_to_binaries_too() {
    let ctx = FileContext {
        path: "crates/bench/src/bin/fixture.rs".to_string(),
        kind: FileKind::Bin,
    };
    let out = check_scanned(
        &ctx,
        &scan_source(include_str!("fixtures/mcsd004_violating.rs")),
    );
    assert!(codes(&out).contains(&Code::Mcsd004));
}

#[test]
fn mcsd004_clean_fixture_passes() {
    let out = check(PLAIN_PATH, include_str!("fixtures/mcsd004_clean.rs"));
    assert!(out.diagnostics.is_empty(), "{:?}", out.diagnostics);
}

#[test]
fn mcsd005_flags_prints_in_library_code() {
    let out = check(PLAIN_PATH, include_str!("fixtures/mcsd005_violating.rs"));
    let found = codes(&out);
    assert_eq!(
        found.iter().filter(|c| **c == Code::Mcsd005).count(),
        2,
        "println! and dbg! must both fire: {found:?}"
    );
}

#[test]
fn mcsd005_clean_fixture_passes_and_allows_eprintln() {
    let out = check(PLAIN_PATH, include_str!("fixtures/mcsd005_clean.rs"));
    assert!(out.diagnostics.is_empty(), "{:?}", out.diagnostics);
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
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, Code::Mcsd006);
}

#[test]
fn mcsd006_clean_lib_header_passes() {
    let diags = check_lib_header(
        "crates/fixture/src/lib.rs",
        include_str!("fixtures/mcsd006_lib_clean.rs"),
    );
    assert!(diags.is_empty(), "{diags:?}");
}

/// A non-engine module inside the MCSD007 scope.
const ENGINE_SCOPE_PATH: &str = "crates/mcsd-core/src/fixture.rs";

#[test]
fn mcsd007_flags_policy_outside_engine() {
    let out = check(
        ENGINE_SCOPE_PATH,
        include_str!("fixtures/mcsd007_violating.rs"),
    );
    let found = codes(&out);
    assert_eq!(
        found.iter().filter(|c| **c == Code::Mcsd007).count(),
        5,
        "the import, breaker ctor, plan_admission call and both counter \
         mutations must all fire: {found:?}"
    );
}

#[test]
fn mcsd007_exempts_the_engine_itself() {
    for exempt in [
        "crates/mcsd-core/src/engine.rs",
        "crates/mcsd-core/src/breaker.rs",
        "crates/mcsd-core/src/admission.rs",
        "crates/mcsd-core/src/lib.rs",
    ] {
        let out = check(exempt, include_str!("fixtures/mcsd007_violating.rs"));
        assert!(
            !codes(&out).contains(&Code::Mcsd007),
            "{exempt} owns the policy and must be exempt: {:?}",
            out.diagnostics
        );
    }
}

#[test]
fn mcsd007_does_not_apply_outside_mcsd_core() {
    let out = check(PLAIN_PATH, include_str!("fixtures/mcsd007_violating.rs"));
    assert!(
        !codes(&out).contains(&Code::Mcsd007),
        "MCSD007 is scoped to crates/mcsd-core/src/: {:?}",
        out.diagnostics
    );
}

#[test]
fn mcsd007_clean_fixture_passes() {
    let out = check(ENGINE_SCOPE_PATH, include_str!("fixtures/mcsd007_clean.rs"));
    assert!(out.diagnostics.is_empty(), "{:?}", out.diagnostics);
}

#[test]
fn mcsd007_is_waivable() {
    let src = "fn f(b: &mut OverloadStats) {\n    // tidy:allow(MCSD007) -- fixture demonstrates the waiver path\n    b.steered_spans += 1;\n}\n";
    let out = check(ENGINE_SCOPE_PATH, src);
    assert!(out.diagnostics.is_empty(), "{:?}", out.diagnostics);
    assert_eq!(out.waivers_honored, 1);
}

#[test]
fn waiver_lifecycle() {
    let out = check(PLAIN_PATH, include_str!("fixtures/waivers.rs"));
    // Two well-formed waivers suppress their unwraps; the malformed one
    // and the unused one each surface as MCSD000, and the unwrap next to
    // the malformed waiver stays flagged.
    assert_eq!(out.waivers_honored, 2, "{:?}", out.diagnostics);
    let found = codes(&out);
    assert_eq!(
        found.iter().filter(|c| **c == Code::Mcsd000).count(),
        2,
        "malformed + unused waiver: {found:?}"
    );
    assert_eq!(
        found.iter().filter(|c| **c == Code::Mcsd002).count(),
        1,
        "the unwrap under the malformed waiver must stay: {found:?}"
    );
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
        report.waivers_honored <= 7,
        "waiver budget exceeded: {} > 7",
        report.waivers_honored
    );
}
