//! Filesystem walk and orchestration: discovers the files in scope, lexes
//! and scans them into a [`Workspace`], runs the workspace-level analyses
//! (MCSD009, MCSD010), applies waivers, and aggregates a [`TidyReport`].
//!
//! Scope (DESIGN.md §9): library code — `crates/*/src/**/*.rs` and root
//! `src/**/*.rs`, minus `main.rs` and `src/bin/` — plus every
//! `crates/*/Cargo.toml`. Binaries, examples and tests are out of scope,
//! as they are for the compiler lints. Shim crates under `shims/` mirror
//! third-party APIs and are deliberately out of scope too.
//!
//! Ordering matters: waivers are applied *last*, after the workspace
//! analyses have run, so a `// tidy:allow(MCSD010)` on an iteration line
//! suppresses the cross-file finding. A whole-file finding (line 0,
//! such as a `WRITERS` entry naming no counter) is a configuration
//! problem: no waiver covers it. Tidy reads no Markdown.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use crate::determinism::check_determinism;
use crate::diag::{Code, Diagnostic};
use crate::manifest::{check_lib_header, check_manifest};
use crate::ownership::{check_ownership, WRITERS};
use crate::workspace::{SourceFile, Workspace};

/// A fatal tidy failure (I/O, bad root) — distinct from diagnostics, which
/// are findings about the code.
#[derive(Debug)]
pub struct TidyError {
    /// Human-readable description including the path involved.
    pub message: String,
}

impl fmt::Display for TidyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for TidyError {}

fn io_err(path: &Path, err: std::io::Error) -> TidyError {
    TidyError {
        message: format!("{}: {err}", path.display()),
    }
}

/// Aggregated result of a tidy run.
#[derive(Debug, Default)]
pub struct TidyReport {
    /// All findings, sorted by path, then line, then code.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of manifests checked.
    pub manifests_checked: usize,
    /// Number of well-formed waivers that suppressed at least one finding.
    pub waivers_honored: usize,
}

/// One file's findings after waiver filtering.
#[derive(Debug)]
pub struct WaiverOutcome {
    /// Findings that survived waiver filtering, plus MCSD000 findings.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of well-formed waivers that suppressed at least one finding.
    pub waivers_honored: usize,
}

/// Run the full tidy pass over the workspace rooted at `root`.
pub fn run_tidy(root: &Path) -> Result<TidyReport, TidyError> {
    if !root.join("Cargo.toml").is_file() {
        return Err(TidyError {
            message: format!("{}: not a workspace root (no Cargo.toml)", root.display()),
        });
    }
    let mut report = TidyReport::default();
    let ws = walk(root, &mut report)?;

    let mut deep: Vec<Diagnostic> = check_ownership(&ws, &WRITERS);
    deep.extend(check_determinism(&ws));

    // Route every finding to its file and apply waivers last. Findings
    // against unscanned paths pass straight through.
    let mut per_file: Vec<Vec<Diagnostic>> = ws.files.iter().map(|_| Vec::new()).collect();
    for diag in deep {
        match ws.files.iter().position(|f| f.path == diag.path) {
            Some(i) => per_file[i].push(diag),
            None => report.diagnostics.push(diag),
        }
    }
    for (file, raw) in ws.files.iter().zip(per_file) {
        let outcome = apply_waivers(file, raw);
        report.diagnostics.extend(outcome.diagnostics);
        report.waivers_honored += outcome.waivers_honored;
    }

    report
        .diagnostics
        .sort_by(|a, b| (&a.path, a.line, a.code, a.col).cmp(&(&b.path, b.line, b.code, b.col)));
    report.diagnostics.dedup();
    Ok(report)
}

/// Lex every library source under `root` into the workspace the analyses
/// run on, as [`run_tidy`] does.
pub fn load_workspace(root: &Path) -> Result<Workspace, TidyError> {
    walk(root, &mut TidyReport::default())
}

/// Check every crate manifest and lex every library source; lib-header
/// and manifest findings go straight into `report`.
fn walk(root: &Path, report: &mut TidyReport) -> Result<Workspace, TidyError> {
    let mut ws = Workspace::default();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for crate_dir in sorted_subdirs(&crates_dir)? {
            let manifest_path = crate_dir.join("Cargo.toml");
            if manifest_path.is_file() {
                let content =
                    fs::read_to_string(&manifest_path).map_err(|e| io_err(&manifest_path, e))?;
                report
                    .diagnostics
                    .extend(check_manifest(&rel(root, &manifest_path), &content));
                report.manifests_checked += 1;
            }
            scan_tree(root, &crate_dir.join("src"), &mut ws, report)?;
        }
    }
    scan_tree(root, &root.join("src"), &mut ws, report)?;
    Ok(ws)
}

/// Filter one file's findings through its waivers and report waiver
/// hygiene (malformed or unused waivers) as MCSD000. A waiver covers its
/// own line and the next line.
pub fn apply_waivers(file: &SourceFile, raw: Vec<Diagnostic>) -> WaiverOutcome {
    let waivers = &file.scanned.waivers;
    let mut used = vec![false; waivers.len()];
    let mut diagnostics = Vec::new();
    for diag in raw {
        let waiver = waivers.iter().position(|w| {
            let covers = w.line == diag.line || w.line + 1 == diag.line;
            w.malformed.is_none() && covers && w.codes.contains(&diag.code)
        });
        match waiver {
            Some(idx) => used[idx] = true,
            None => diagnostics.push(diag),
        }
    }
    let mut waivers_honored = 0;
    for (waiver, used) in waivers.iter().zip(used) {
        let message = match &waiver.malformed {
            Some(why) => format!("malformed waiver: {why}"),
            None if used => {
                waivers_honored += 1;
                continue;
            }
            None => "waiver suppresses nothing; remove it".to_string(),
        };
        diagnostics.push(Diagnostic::new(
            Code::Mcsd000,
            &file.path,
            waiver.line,
            message,
        ));
    }
    WaiverOutcome {
        diagnostics,
        waivers_honored,
    }
}

/// Lex and scan every library `.rs` file under `dir` (tolerating its
/// absence) into the workspace; lib-header checks run here, everything
/// else later.
fn scan_tree(
    root: &Path,
    dir: &Path,
    ws: &mut Workspace,
    report: &mut TidyReport,
) -> Result<(), TidyError> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut files = Vec::new();
    collect_rs_files(dir, &mut files)?;
    for file in files {
        let rel_path = rel(root, &file);
        if !is_lib_source(&rel_path) {
            continue;
        }
        let content = fs::read_to_string(&file).map_err(|e| io_err(&file, e))?;
        if rel_path.ends_with("/src/lib.rs") || rel_path == "src/lib.rs" {
            report
                .diagnostics
                .extend(check_lib_header(&rel_path, &content));
        }
        ws.files.push(SourceFile::new(&rel_path, &content));
        report.files_scanned += 1;
    }
    Ok(())
}

/// Whether a file under a `src/` tree belongs to the library target (and
/// not a binary's).
fn is_lib_source(rel_path: &str) -> bool {
    !(rel_path.ends_with("/main.rs") || rel_path.contains("src/bin/"))
}

fn sorted_subdirs(dir: &Path) -> Result<Vec<PathBuf>, TidyError> {
    let mut out = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| io_err(dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, e))?;
        let path = entry.path();
        if path.is_dir() {
            out.push(path);
        }
    }
    out.sort();
    Ok(out)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), TidyError> {
    let mut entries = Vec::new();
    let iter = fs::read_dir(dir).map_err(|e| io_err(dir, e))?;
    for entry in iter {
        let entry = entry.map_err(|e| io_err(dir, e))?;
        entries.push(entry.path());
    }
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative `/`-separated path for reporting.
fn rel(root: &Path, path: &Path) -> String {
    let stripped = path.strip_prefix(root).unwrap_or(path);
    let mut s = String::new();
    for comp in stripped.components() {
        if !s.is_empty() {
            s.push('/');
        }
        s.push_str(&comp.as_os_str().to_string_lossy());
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_library_sources_are_in_scope() {
        assert!(is_lib_source("crates/x/src/lib.rs"));
        assert!(is_lib_source("src/lib.rs"));
        assert!(!is_lib_source("crates/x/src/main.rs"));
        assert!(!is_lib_source("crates/x/src/bin/tool.rs"));
        assert!(!is_lib_source("src/bin/tool.rs"));
    }

    #[test]
    fn missing_root_is_an_error() {
        let err = run_tidy(Path::new("/nonexistent-tidy-root")).err();
        assert!(err.is_some());
    }
}
