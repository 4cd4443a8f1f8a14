//! Golden digests of every file `mcsd-experiments` writes (DESIGN.md §12).
//!
//! Each test runs one subcommand's library run in-process, as the bin
//! does (`mcsd_bench::demos`), and pins an FNV-1a-64 digest of each file's
//! bytes, plus `table1`'s table. An export is a pure function of the seed
//! and the flags on any machine, so CI runs this file on all cores and
//! again on one. A change that moves an export updates its digest here in
//! the same diff, and says why in CHANGES.md. On a mismatch the test
//! writes the files as they now read, prints a `GOLDEN-RUN: <args>` line
//! (CI's follow-up step diffs those runs against the base build), and says
//! how `mcsd-experiments trace-diff` names the first record that moved.

use mcsd::cluster::{paper_testbed, Scale};
use mcsd::framework::des::{self, DesConfig};
use mcsd::obs::Tracer;
use mcsd_bench::demos::{self, Demo};

/// FNV-1a (64-bit) over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, b| {
        (hash ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Check the files of `mcsd-experiments <args>`, run as `demo`, against
/// `want`: (file name, digest) in write order.
fn check(args: &str, demo: &Demo, want: &[(&str, u64)]) {
    assert_eq!(
        demo.violations, 0,
        "`{args}` saw violations:\n{}",
        demo.text
    );
    let got: Vec<(&str, u64)> = demo
        .files
        .iter()
        .map(|(name, contents)| (name.as_str(), fnv1a(contents.as_bytes())))
        .collect();
    if got == want {
        return;
    }
    let dir = std::env::temp_dir().join(format!("mcsd-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (name, contents) in &demo.files {
        std::fs::write(dir.join(name), contents).unwrap();
    }
    let dir = dir.display();
    panic!(
        "`mcsd-experiments {args}` now writes {got:#x?}, pinned {want:#x?}.\n\
         GOLDEN-RUN: {args}\n\
         The files as they now read are in {dir}. To name the first record that moved:\n  \
         mkdir P && git archive <parent> | tar -x -C P\n  \
         (cd P && cargo run --release -p mcsd-bench --bin mcsd-experiments -- {args})\n  \
         cargo run --release -p mcsd-bench --bin mcsd-experiments -- trace-diff P/<file> {dir}/<file>\n\
         If the change is meant, update the digest here and say why in CHANGES.md."
    );
}

#[test]
fn trace_seed_42() {
    let demo = demos::trace(42).unwrap();
    check(
        "trace --seed 42",
        &demo,
        &[
            ("trace-42.jsonl", 0x6337_755a_a2ce_750c),
            ("trace-42.chrome.json", 0x827c_5708_7792_c363),
        ],
    );
}

#[test]
fn trace_seed_7() {
    let demo = demos::trace(7).unwrap();
    check(
        "trace --seed 7",
        &demo,
        &[
            ("trace-7.jsonl", 0x5959_98f4_bccd_c1fb),
            ("trace-7.chrome.json", 0x3309_47a6_9c64_7140),
        ],
    );
}

/// The failover export carries the replication counters and the group's
/// timeline, and neither depends on the corpus: the kill-one-replica plan
/// is fixed, and the seed only changes the text the spans count. Both
/// seeds therefore write the same bytes (1 465 of them).
const FAILOVER: u64 = 0x83b2_3eae_0353_f049;

#[test]
fn failover_seed_42() {
    let demo = demos::failover(42).unwrap();
    check(
        "failover --seed 42",
        &demo,
        &[("failover-42.jsonl", FAILOVER)],
    );
}

#[test]
fn failover_seed_7() {
    let demo = demos::failover(7).unwrap();
    check(
        "failover --seed 7",
        &demo,
        &[("failover-7.jsonl", FAILOVER)],
    );
}

#[test]
fn batched_seed_42() {
    let demo = demos::batched(42).unwrap();
    check(
        "batched --seed 42",
        &demo,
        &[("batched-42.jsonl", 0xb03a_d78c_839d_348e)],
    );
}

/// The default 8 racks and 1 200 jobs: nothing is shed.
#[test]
fn rack_seed_42() {
    let demo = demos::rack(42, 8, 1_200);
    check(
        "rack --seed 42",
        &demo,
        &[("rack-42.jsonl", 0x0107_fa22_2710_def2)],
    );
}

/// 20 000 jobs over the same virtual second shed most of them, so the
/// `des.shed` events and a saturated rack's same-microsecond ties are
/// pinned too.
#[test]
fn rack_seed_42_20000_jobs() {
    let demo = demos::rack(42, 8, 20_000);
    check(
        "rack --seed 42 --jobs 20000",
        &demo,
        &[("rack-42.jsonl", 0xda3d_3ce4_67aa_6afe)],
    );
}

/// The report line `rack --seed 42` prints, which no file holds: the DES
/// report and its counters' report line.
#[test]
fn rack_report_seed_42() {
    let cfg = DesConfig::default_experiment(1_200, 42);
    let report = des::run(&cfg, &Tracer::disabled()).report.to_string();
    assert_eq!(
        fnv1a(report.as_bytes()),
        0xac54_3d6b_7047_a5c9,
        "`mcsd-experiments rack --seed 42` prints a new report line:\n{report}"
    );
}

#[test]
fn table1() {
    let table = paper_testbed(Scale::default_experiment()).table1();
    assert_eq!(
        fnv1a(table.as_bytes()),
        0x7105_f5e4_79af_1030,
        "`mcsd-experiments table1` moved; diff its stdout against a parent build's. It now reads:\n{table}"
    );
}

#[test]
#[ignore = "≈47 s; CI runs it in release"]
fn chaos_seed_42() {
    let demo = demos::chaos(42).unwrap();
    check(
        "chaos --seed 42",
        &demo,
        &[("chaos-42.json", 0x5594_5f23_759c_99ca)],
    );
}
