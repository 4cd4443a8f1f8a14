//! Filesystem walk and orchestration: discovers the files in scope, lexes
//! and scans them into a [`Workspace`], runs the workspace-level analysis
//! (MCSD009), and aggregates a [`TidyReport`].
//!
//! Scope (DESIGN.md §9): library code — `crates/*/src/**/*.rs` and root
//! `src/**/*.rs`, minus `main.rs` and `src/bin/` — plus every
//! `crates/*/Cargo.toml`. Binaries, examples and tests are out of scope,
//! as they are for the compiler lints. Shim crates under `shims/` mirror
//! third-party APIs and are deliberately out of scope too. Tidy reads no
//! Markdown.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use crate::diag::Diagnostic;
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
    report.diagnostics.extend(check_ownership(&ws, &WRITERS));
    report
        .diagnostics
        .sort_by(|a, b| (&a.path, a.line, a.code, a.col).cmp(&(&b.path, b.line, b.code, b.col)));
    report.diagnostics.dedup();
    Ok(report)
}

/// Lex every library source under `root` into the workspace MCSD009
/// runs on, as [`run_tidy`] does.
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
