//! `mcsd-experiments` argument handling and `trace-diff`, driven through
//! real process invocations (cargo builds the binary for us).

use std::path::PathBuf;
use std::process::{Command, Output};

fn work_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mcsd-bench-cli-{}-{tag}", std::process::id()))
}

/// Run the binary with `args` in a fresh, empty working directory.
fn experiments(tag: &str, args: &[&str]) -> (Output, PathBuf) {
    let dir = work_dir(tag);
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

/// `trace-diff a.jsonl b.jsonl` over files holding `a` and `b` (`None`:
/// no `b.jsonl`): its exit code and stdout.
fn trace_diff(tag: &str, a: &[String], b: Option<&[String]>) -> (Option<i32>, String) {
    let dir = work_dir(tag);
    std::fs::create_dir_all(&dir).unwrap();
    for (name, lines) in [("a.jsonl", Some(a)), ("b.jsonl", b)] {
        if let Some(lines) = lines {
            let text: String = lines.iter().map(|l| format!("{l}\n")).collect();
            std::fs::write(dir.join(name), text).unwrap();
        }
    }
    let (out, dir) = experiments(tag, &["trace-diff", "a.jsonl", "b.jsonl"]);
    std::fs::remove_dir_all(&dir).unwrap();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into(),
    )
}

/// Event records 1..=n, one a line, as the `.jsonl` exports write them.
fn records(n: u64) -> Vec<String> {
    (1..=n)
        .map(|i| format!(r#"{{"v":1,"type":"event","track":"sd","at":{},"name":"e{i}","attrs":{{"size":"{i}"}}}}"#, 10 * i))
        .collect()
}

#[test]
fn trace_diff_exits_0_on_identical_files_and_2_on_a_missing_one() {
    let a = records(5);
    let (code, stdout) = trace_diff("same", &a, Some(&a));
    assert_eq!(code, Some(0), "{stdout}");
    assert_eq!(trace_diff("missing", &a, None), (Some(2), String::new()));
}

#[test]
fn trace_diff_names_a_changed_record_and_the_three_before_it() {
    let a = records(8);
    let mut b = a.clone();
    b[5] = b[5].replace(r#""size":"6""#, r#""size":"7""#);
    let (code, stdout) = trace_diff("changed", &a, Some(&b));
    assert_eq!(code, Some(1), "{stdout}");
    let want = format!(
        "first difference at line 6\nrecord: track sd, at 60, name e6\n      3  {}\n      4  {}\n      5  {}\na.jsonl:6: {}\nb.jsonl:6: {}\n",
        a[2], a[3], a[4], a[5], b[5]
    );
    assert_eq!(stdout, want);
}

#[test]
fn trace_diff_names_the_first_line_a_prefix_lacks() {
    let b = records(7);
    let (code, stdout) = trace_diff("prefix", &b[..4], Some(&b));
    assert_eq!(code, Some(1), "{stdout}");
    let want = format!(
        "first difference at line 5\nrecord: track sd, at 50, name e5\n      2  {}\n      3  {}\n      4  {}\na.jsonl:5: (none: the file ends here)\nb.jsonl:5: {}\n",
        b[1], b[2], b[3], b[4]
    );
    assert_eq!(stdout, want);
}
