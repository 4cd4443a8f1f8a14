//! `mcsd-experiments` argument handling, driven through real process
//! invocations (cargo builds the binary for us).

use std::path::PathBuf;
use std::process::{Command, Output};

/// Run the binary with `args` in a fresh, empty working directory.
fn experiments(tag: &str, args: &[&str]) -> (Output, PathBuf) {
    let dir = std::env::temp_dir().join(format!("mcsd-bench-cli-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_mcsd-experiments"))
        .args(args)
        .current_dir(&dir)
        .output()
        .unwrap();
    (out, dir)
}

#[test]
fn unknown_subcommand_is_a_usage_error_that_runs_nothing() {
    // A typo alone, a typo beside a name that would write files, and a
    // subcommand that no longer exists.
    for (tag, args) in [
        ("typo", &["trcae", "--seed", "42"][..]),
        ("mixed", &["trace", "trcae"][..]),
        ("faults", &["faults"][..]),
    ] {
        let (out, dir) = experiments(tag, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: mcsd-experiments [all|table1|"));
        assert!(stderr.contains("|rack|batched]"), "{stderr}");
        assert!(out.stdout.is_empty(), "nothing ran: {args:?}");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn table1_prints_the_testbed() {
    let (out, dir) = experiments("table1", &["table1"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("## Table I"));
    std::fs::remove_dir_all(&dir).unwrap();
}
