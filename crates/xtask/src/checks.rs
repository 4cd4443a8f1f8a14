//! The per-file pattern checks (MCSD001–005, 007) and waiver application.
//!
//! Each check walks the masked lines of a [`ScannedFile`] and produces raw
//! diagnostics. The runner merges those with the workspace-level findings
//! (MCSD008–010) for the same file and hands everything to
//! [`apply_waivers`], which filters through the file's waivers and reports
//! malformed or unused waivers as MCSD000.

use crate::diag::{Code, Diagnostic};
use crate::scan::{is_ident_char, FileContext, FileKind, ScannedFile};

/// Library-code subtrees of the simulation crates: wall-clock reads here
/// corrupt the virtual-time ledger that the paper's figures are built on.
const SIM_CRATE_PREFIXES: [&str; 5] = [
    "crates/cluster/src/",
    "crates/phoenix/src/",
    "crates/mcsd-core/src/",
    "crates/smartfam/src/",
    "crates/mcsd-obs/src/",
];

/// The one sanctioned wall-clock surface: the calibrated stopwatch shim.
const STOPWATCH_WHITELIST: &str = "crates/phoenix/src/stopwatch.rs";

const MCSD001_PATTERNS: [&str; 3] = ["Instant::now", "SystemTime::now", "thread::sleep"];
const MCSD002_PATTERNS: [&str; 5] = [
    ".unwrap()",
    ".expect(",
    "panic!(",
    "todo!(",
    "unimplemented!(",
];
const MCSD004_PATTERNS: [&str; 3] = ["thread_rng", "from_entropy", "rand::random"];
const MCSD005_PATTERNS: [&str; 3] = ["println!(", "print!(", "dbg!("];

/// MCSD007 (DESIGN.md §13): the unified offload scheduler owns placement
/// policy. Only these mcsd-core modules may reference the circuit breaker,
/// memory admission, or overload-counter mutation; anywhere else under the
/// scope prefix means policy is re-leaking into a front-end.
const MCSD007_SCOPE: &str = "crates/mcsd-core/src/";
const MCSD007_ALLOWED: [&str; 4] = [
    "crates/mcsd-core/src/engine.rs",
    "crates/mcsd-core/src/breaker.rs",
    "crates/mcsd-core/src/admission.rs",
    "crates/mcsd-core/src/lib.rs",
];
const MCSD007_PATTERNS: [&str; 8] = [
    "CircuitBreaker",
    "plan_admission",
    ".shed +=",
    ".expired +=",
    ".breaker_opens +=",
    ".half_open_probes +=",
    ".repartitions +=",
    ".steered_spans +=",
];

/// Result of checking one scanned file.
#[derive(Debug)]
pub struct CheckOutcome {
    /// Diagnostics that survived waiver filtering, plus MCSD000 findings.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of well-formed waivers that suppressed at least one finding.
    pub waivers_honored: usize,
}

/// Run the per-file pattern checks on a scanned file. The result is raw:
/// waivers have not been applied yet.
pub fn raw_checks(ctx: &FileContext, file: &ScannedFile) -> Vec<Diagnostic> {
    let mut raw = Vec::new();
    check_patterns_mcsd001(ctx, file, &mut raw);
    check_patterns_simple(
        ctx,
        file,
        Code::Mcsd002,
        &MCSD002_PATTERNS,
        ctx.kind == FileKind::Lib,
        &mut raw,
    );
    check_patterns_simple(ctx, file, Code::Mcsd004, &MCSD004_PATTERNS, true, &mut raw);
    check_patterns_simple(
        ctx,
        file,
        Code::Mcsd005,
        &MCSD005_PATTERNS,
        ctx.kind == FileKind::Lib,
        &mut raw,
    );
    check_mcsd007(ctx, file, &mut raw);
    raw
}

/// Filter raw diagnostics through the file's waivers and report waiver
/// hygiene (malformed or unused waivers) as MCSD000. A waiver covers its
/// own line and the next line.
pub fn apply_waivers(ctx: &FileContext, file: &ScannedFile, raw: Vec<Diagnostic>) -> CheckOutcome {
    let mut used = vec![false; file.waivers.len()];
    let mut diagnostics = Vec::new();
    for diag in raw {
        let mut waived = false;
        for (idx, waiver) in file.waivers.iter().enumerate() {
            let covers = waiver.line == diag.line || waiver.line + 1 == diag.line;
            if waiver.malformed.is_none() && covers && waiver.codes.contains(&diag.code) {
                used[idx] = true;
                waived = true;
                break;
            }
        }
        if !waived {
            diagnostics.push(diag);
        }
    }
    let mut waivers_honored = 0;
    for (idx, waiver) in file.waivers.iter().enumerate() {
        if let Some(why) = &waiver.malformed {
            diagnostics.push(Diagnostic {
                code: Code::Mcsd000,
                path: ctx.path.clone(),
                line: waiver.line,
                col: 0,
                message: format!("malformed waiver: {why}"),
            });
        } else if used[idx] {
            waivers_honored += 1;
        } else {
            diagnostics.push(Diagnostic {
                code: Code::Mcsd000,
                path: ctx.path.clone(),
                line: waiver.line,
                col: 0,
                message: "waiver suppresses nothing; remove it".to_string(),
            });
        }
    }
    CheckOutcome {
        diagnostics,
        waivers_honored,
    }
}

/// Run the per-file checks and apply waivers in one step. The runner uses
/// the split [`raw_checks`]/[`apply_waivers`] pair instead so the
/// workspace-level findings participate in waiver filtering too.
pub fn check_scanned(ctx: &FileContext, file: &ScannedFile) -> CheckOutcome {
    let raw = raw_checks(ctx, file);
    apply_waivers(ctx, file, raw)
}

/// MCSD001: wall-clock time in simulation-crate library code, outside the
/// sanctioned stopwatch shim.
fn check_patterns_mcsd001(ctx: &FileContext, file: &ScannedFile, out: &mut Vec<Diagnostic>) {
    if ctx.kind != FileKind::Lib
        || ctx.path == STOPWATCH_WHITELIST
        || !SIM_CRATE_PREFIXES.iter().any(|p| ctx.path.starts_with(p))
    {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for pat in MCSD001_PATTERNS {
            if contains_pattern(&line.code, pat) {
                out.push(Diagnostic {
                    code: Code::Mcsd001,
                    path: ctx.path.clone(),
                    line: idx + 1,
                    col: 0,
                    message: format!(
                        "`{pat}` bypasses the TimeBreakdown ledger; route through phoenix::stopwatch or waive with a reason"
                    ),
                });
                break;
            }
        }
    }
}

/// Shared body for the plain pattern checks (MCSD002/004/005).
fn check_patterns_simple(
    ctx: &FileContext,
    file: &ScannedFile,
    code: Code,
    patterns: &[&str],
    applies: bool,
    out: &mut Vec<Diagnostic>,
) {
    if !applies {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for pat in patterns {
            if contains_pattern(&line.code, pat) {
                out.push(Diagnostic {
                    code,
                    path: ctx.path.clone(),
                    line: idx + 1,
                    col: 0,
                    message: format!("found `{pat}`: {}", code.summary()),
                });
                break;
            }
        }
    }
}

/// MCSD007: scheduler policy referenced outside the engine-owned modules
/// of mcsd-core. Breaker gating, admission planning, and overload-counter
/// mutation must stay inside `engine.rs` (and the modules that define
/// them) so a front-end cannot grow its own copy of the decision pipeline.
fn check_mcsd007(ctx: &FileContext, file: &ScannedFile, out: &mut Vec<Diagnostic>) {
    if ctx.kind != FileKind::Lib
        || !ctx.path.starts_with(MCSD007_SCOPE)
        || MCSD007_ALLOWED.contains(&ctx.path.as_str())
    {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for pat in MCSD007_PATTERNS {
            if contains_pattern(&line.code, pat) {
                out.push(Diagnostic {
                    code: Code::Mcsd007,
                    path: ctx.path.clone(),
                    line: idx + 1,
                    col: 0,
                    message: format!(
                        "`{pat}` is engine-owned scheduler policy; route through crate::engine::Engine or waive with a reason"
                    ),
                });
                break;
            }
        }
    }
}

/// Substring search with identifier-boundary guards: when the pattern
/// starts or ends with an identifier character, the neighbouring character
/// in the haystack must not be one (so `eprintln!(` never matches
/// `println!(`, and `rand::random_range` never matches `rand::random`).
pub fn contains_pattern(haystack: &str, pattern: &str) -> bool {
    if pattern.is_empty() {
        return false;
    }
    let first_ident = pattern.chars().next().is_some_and(is_ident_char);
    let last_ident = pattern.chars().next_back().is_some_and(is_ident_char);
    let bytes = haystack.as_bytes();
    let mut start = 0;
    while let Some(pos) = haystack[start..].find(pattern) {
        let abs = start + pos;
        let end = abs + pattern.len();
        let pre_ok = !first_ident || abs == 0 || !is_ident_char(bytes[abs - 1] as char);
        let post_ok = !last_ident || end >= bytes.len() || !is_ident_char(bytes[end] as char);
        if pre_ok && post_ok {
            return true;
        }
        start = end;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan_source;

    fn lib_ctx(path: &str) -> FileContext {
        FileContext {
            path: path.to_string(),
            kind: FileKind::Lib,
        }
    }

    fn codes(ctx: &FileContext, src: &str) -> Vec<Code> {
        let scanned = scan_source(src);
        check_scanned(ctx, &scanned)
            .diagnostics
            .into_iter()
            .map(|d| d.code)
            .collect()
    }

    #[test]
    fn pattern_boundaries() {
        assert!(contains_pattern("println!(\"x\")", "println!("));
        assert!(!contains_pattern("eprintln!(\"x\")", "println!("));
        assert!(!contains_pattern("eprint!(\"x\")", "print!("));
        assert!(contains_pattern("rand::random()", "rand::random"));
        assert!(!contains_pattern(
            "rand::random_range(0..9)",
            "rand::random"
        ));
        assert!(contains_pattern(
            "let t = std::time::Instant::now();",
            "Instant::now"
        ));
    }

    #[test]
    fn mcsd001_only_in_sim_crates() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(
            codes(&lib_ctx("crates/phoenix/src/runtime.rs"), src),
            vec![Code::Mcsd001]
        );
        assert_eq!(codes(&lib_ctx("crates/apps/src/seq.rs"), src), vec![]);
        assert_eq!(
            codes(&lib_ctx("crates/phoenix/src/stopwatch.rs"), src),
            vec![]
        );
    }

    #[test]
    fn mcsd002_exempts_bins_and_tests() {
        let src = "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod t {\n    fn g() { y.unwrap(); }\n}\n";
        assert_eq!(
            codes(&lib_ctx("crates/apps/src/seq.rs"), src),
            vec![Code::Mcsd002]
        );
        let bin = FileContext {
            path: "crates/apps/src/main.rs".to_string(),
            kind: FileKind::Bin,
        };
        assert_eq!(codes(&bin, src), vec![]);
    }

    #[test]
    fn mcsd004_applies_to_bins_too() {
        let src = "fn f() { let mut rng = thread_rng(); }\n";
        let bin = FileContext {
            path: "crates/apps/src/main.rs".to_string(),
            kind: FileKind::Bin,
        };
        assert_eq!(codes(&bin, src), vec![Code::Mcsd004]);
    }

    #[test]
    fn waiver_suppresses_and_is_honored() {
        let src = "fn f() {\n    // tidy:allow(MCSD002) -- demo\n    x.unwrap();\n}\n";
        let scanned = scan_source(src);
        let outcome = check_scanned(&lib_ctx("crates/x/src/a.rs"), &scanned);
        assert!(outcome.diagnostics.is_empty());
        assert_eq!(outcome.waivers_honored, 1);
    }

    #[test]
    fn unused_waiver_reports_mcsd000() {
        let src = "// tidy:allow(MCSD002) -- nothing here\nfn f() {}\n";
        assert_eq!(
            codes(&lib_ctx("crates/x/src/a.rs"), src),
            vec![Code::Mcsd000]
        );
    }

    #[test]
    fn trailing_same_line_waiver() {
        let src = "fn f() { x.unwrap(); } // tidy:allow(MCSD002) -- demo\n";
        let scanned = scan_source(src);
        let outcome = check_scanned(&lib_ctx("crates/x/src/a.rs"), &scanned);
        assert!(outcome.diagnostics.is_empty());
        assert_eq!(outcome.waivers_honored, 1);
    }
}
