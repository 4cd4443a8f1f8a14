//! Integration tests for the command-line tools, driven through real
//! process invocations (cargo builds the binaries for us).

use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

static N: AtomicU64 = AtomicU64::new(0);

fn temp_dir() -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "mcsd-cli-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn datagen_and_wordcount_roundtrip() {
    let dir = temp_dir();
    let corpus = dir.join("c.txt");
    let out = Command::new(env!("CARGO_BIN_EXE_mcsd-datagen"))
        .args(["text", "64K", "7", corpus.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(corpus.exists());

    for partition in [None, Some("16K"), Some("auto")] {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_wordcount"));
        cmd.arg(&corpus);
        if let Some(p) = partition {
            cmd.arg(p);
        }
        let out = cmd.output().unwrap();
        assert!(out.status.success());
        let stdout = String::from_utf8(out.stdout).unwrap();
        let first = stdout.lines().next().expect("at least one word");
        let (word, count) = first.rsplit_once('\t').unwrap();
        assert!(!word.is_empty());
        let count: u64 = count.parse().unwrap();
        assert!(count > 1, "most frequent word must repeat");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn wordcount_rejects_bad_args() {
    let out = Command::new(env!("CARGO_BIN_EXE_wordcount"))
        .output()
        .unwrap();
    assert!(!out.status.success());
    let out = Command::new(env!("CARGO_BIN_EXE_wordcount"))
        .args(["/nonexistent/file"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn stringmatch_cli_finds_planted_keys() {
    let dir = temp_dir();
    let keys = dir.join("k.txt");
    let encrypt = dir.join("e.bin");
    assert!(Command::new(env!("CARGO_BIN_EXE_mcsd-datagen"))
        .args(["keys", "4", "8", "3", keys.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    assert!(Command::new(env!("CARGO_BIN_EXE_mcsd-datagen"))
        .args([
            "encrypt",
            "32K",
            keys.to_str().unwrap(),
            "0.2",
            "5",
            encrypt.to_str().unwrap(),
        ])
        .status()
        .unwrap()
        .success());
    let out = Command::new(env!("CARGO_BIN_EXE_stringmatch"))
        .args([encrypt.to_str().unwrap(), keys.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.lines().count() > 5, "expected matches:\n{stdout}");
    // Every reported key is one of the generated keys.
    let key_set: Vec<String> = std::fs::read_to_string(&keys)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();
    for line in stdout.lines() {
        let (_, key) = line.split_once('\t').unwrap();
        assert!(key_set.iter().any(|k| k == key), "unknown key {key}");
    }
    // `[partition-size]` is a size label, as for `wordcount`: the same
    // lines from several fragments, and exit 2 on a size that is none.
    let run = |size: &str| {
        Command::new(env!("CARGO_BIN_EXE_stringmatch"))
            .args([encrypt.to_str().unwrap(), keys.to_str().unwrap(), size])
            .output()
            .unwrap()
    };
    let part = run("16K");
    assert!(part.status.success());
    assert_eq!(String::from_utf8(part.stdout).unwrap(), stdout);
    let stderr = String::from_utf8(part.stderr).unwrap();
    let fragments = stderr
        .split(", ")
        .find_map(|f| f.strip_suffix(" fragments"));
    assert!(fragments.unwrap().parse::<u64>().unwrap() > 1, "{stderr}");
    assert_eq!(run("bogus").status.code(), Some(2));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn datagen_refuses_more_keys_than_exist() {
    let dir = temp_dir();
    let out = dir.join("k.txt");
    let mut child = Command::new(env!("CARGO_BIN_EXE_mcsd-datagen"))
        .args(["keys", "30", "1", "7", out.to_str().unwrap()])
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if Instant::now() > deadline {
            child.kill().unwrap();
            panic!("`mcsd-datagen keys 30 1 7` still running after 10 s");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    assert_eq!(status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("only 26 distinct keys"), "{stderr}");
    // Exactly as many as exist is fine.
    assert!(Command::new(env!("CARGO_BIN_EXE_mcsd-datagen"))
        .args(["keys", "26", "1", "7", out.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    assert_eq!(std::fs::read_to_string(&out).unwrap().lines().count(), 26);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn matmul_cli_full_cycle() {
    let dir = temp_dir();
    let a = dir.join("a.mat");
    let c = dir.join("c.mat");
    assert!(Command::new(env!("CARGO_BIN_EXE_matmul"))
        .args(["gen", "8", "8", "1", a.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    assert!(Command::new(env!("CARGO_BIN_EXE_matmul"))
        .args([
            "mul",
            a.to_str().unwrap(),
            a.to_str().unwrap(),
            c.to_str().unwrap(),
        ])
        .status()
        .unwrap()
        .success());
    let out = Command::new(env!("CARGO_BIN_EXE_matmul"))
        .args(["show", c.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("8x8 matrix"));
    // Verify numerically against the library.
    let a_m = mcsd_apps::Matrix::from_bytes(&std::fs::read(&a).unwrap()).unwrap();
    let c_m = mcsd_apps::Matrix::from_bytes(&std::fs::read(&c).unwrap()).unwrap();
    assert!(c_m.max_abs_diff(&mcsd_apps::seq::matmul(&a_m, &a_m)) < 1e-9);
    // Shape mismatch is rejected.
    let bad = Command::new(env!("CARGO_BIN_EXE_matmul"))
        .args(["gen", "4", "6", "2", dir.join("b.mat").to_str().unwrap()])
        .status()
        .unwrap();
    assert!(bad.success());
    let out = Command::new(env!("CARGO_BIN_EXE_matmul"))
        .args([
            "mul",
            a.to_str().unwrap(),
            dir.join("b.mat").to_str().unwrap(),
            c.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("shape mismatch"));
    std::fs::remove_dir_all(&dir).unwrap();
}
