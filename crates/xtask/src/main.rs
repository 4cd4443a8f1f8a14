//! `cargo run -p xtask -- tidy`: CLI front-end for the mcsd-tidy linter.
//!
//! Exit codes: 0 clean, 1 diagnostics found, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use xtask::runner::run_tidy;

const USAGE: &str = "\
usage: cargo run -p xtask -- tidy [--root PATH]

Runs the mcsd-tidy static-analysis pass over the workspace.

  --root PATH  workspace root (default: walk up from the current directory)

Exit status: 0 clean, 1 diagnostics found, 2 usage or I/O error.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("xtask: {message}");
            ExitCode::from(2)
        }
    }
}

fn real_main(args: &[String]) -> Result<ExitCode, String> {
    let mut root: Option<PathBuf> = None;
    let mut command: Option<&str> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--root" => {
                let value = iter.next().ok_or("--root requires a path argument")?;
                root = Some(PathBuf::from(value));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            "tidy" if command.is_none() => command = Some("tidy"),
            other => {
                return Err(format!("unrecognized argument `{other}`\n{USAGE}"));
            }
        }
    }
    if command != Some("tidy") {
        return Err(format!("expected the `tidy` subcommand\n{USAGE}"));
    }

    let root = match root {
        Some(path) => path,
        None => discover_root()?,
    };
    let report = run_tidy(&root).map_err(|e| e.message)?;

    for diag in &report.diagnostics {
        println!("{diag}");
    }
    println!(
        "tidy: {} files + {} manifests checked, {} diagnostic(s), {} waiver(s) honored",
        report.files_scanned,
        report.manifests_checked,
        report.diagnostics.len(),
        report.waivers_honored
    );
    if report.diagnostics.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::from(1))
    }
}

/// Walk up from the current directory to the first `Cargo.toml` declaring
/// `[workspace]`.
fn discover_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let content = std::fs::read_to_string(&manifest)
                .map_err(|e| format!("{}: {e}", manifest.display()))?;
            if content.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("no workspace root found above the current directory".to_string());
        }
    }
}
