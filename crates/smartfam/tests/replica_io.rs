//! What a replicated append costs and what it leaves on disk.
//!
//! Every member of a [`ReplicatedLog`] is a held log handle, so one quorum
//! round reads back exactly the frame it wrote on each member — `g × frame`
//! bytes whatever the log's age — and an aborted round cuts its ackers
//! back by truncation. The first test counts that (bytes, not time); the
//! second pins the group's observable behaviour — every outcome, every
//! member state, every byte of every copy — to digests captured from the
//! open-per-append implementation this one replaced.

use mcsd_smartfam::{
    FaultAction, FaultInjector, FaultPlan, FaultSite, Frame, ReplicaConfig, ReplicatedLog,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static N: AtomicU64 = AtomicU64::new(0);

fn temp_dir() -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "mcsd-replica-io-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Member `r`'s copy of module `module` under `dir` (DESIGN.md §15).
fn copy_path(dir: &Path, module: &str, r: usize) -> PathBuf {
    match r {
        0 => dir.join(format!("{module}.log")),
        r => dir.join(format!(".replica{r}/{module}.log")),
    }
}

/// Bytes this thread has asked `read`-family syscalls for so far, or
/// `None` where the kernel does not expose the counter.
fn thread_rchar() -> Option<u64> {
    let io = std::fs::read_to_string("/proc/thread-self/io").ok()?;
    io.lines()
        .find_map(|l| l.strip_prefix("rchar:"))
        .and_then(|v| v.trim().parse().ok())
}

#[test]
fn an_append_reads_back_one_frame_per_member_whatever_the_logs_age() {
    const HISTORY: u64 = 5_000;
    const MEASURED: u64 = 100;
    let dir = temp_dir();
    // The round after the measured ones loses replicas 1 and 2 together.
    let plan = FaultPlan::none().with(
        FaultSite::Group,
        HISTORY + MEASURED,
        FaultAction::CrashReplicas { mask: 0b110 },
    );
    let cfg = ReplicaConfig::new(3, 2).unwrap();
    let mut log = ReplicatedLog::create(&dir, "echo", cfg, FaultInjector::new(plan)).unwrap();
    let frame = Frame::response_ok(7, b"c123|0badcafe".to_vec());
    let frame_len = frame.encode().len() as u64;
    for _ in 0..HISTORY {
        assert!(log.append(&frame, 0).unwrap().committed);
    }

    let before = thread_rchar();
    for _ in 0..MEASURED {
        assert!(log.append(&frame, 0).unwrap().committed);
    }
    match (before, thread_rchar()) {
        (Some(before), Some(after)) => {
            let read = after - before;
            let budget = 2 * MEASURED * cfg.group_size as u64 * frame_len;
            assert!(
                read <= budget,
                "{MEASURED} appends after {HISTORY} entries read {read} B; \
                 verification may read {budget} B ({frame_len} B frames)"
            );
        }
        _ => eprintln!("skipped the read count: /proc/thread-self/io is unreadable"),
    }

    // Replica 0 acknowledges alone, the round aborts, and the rollback
    // leaves its copy byte-equal to its verified prefix.
    let committed = HISTORY + MEASURED;
    let out = log.append(&frame, 0).unwrap();
    assert!(!out.committed && out.group_crash);
    assert_eq!((out.acked, out.crashed), (vec![0], vec![1, 2]));
    assert_eq!(log.committed(), committed);
    assert_eq!(log.members()[0].good_bytes, committed * frame_len);
    assert!(log.members()[0].synced);
    let on_disk = std::fs::read(copy_path(&dir, "echo", 0)).unwrap();
    assert_eq!(on_disk.len() as u64, committed * frame_len);
    assert!(on_disk == log.verified_contents(0).unwrap());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// FNV-1a over everything a group lets an observer see.
struct Digest(u64);

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }

    fn list(&mut self, items: &[usize]) {
        self.word(items.len() as u64);
        items.iter().for_each(|i| self.word(*i as u64));
    }

    /// Every member's bookkeeping and every byte of its copy.
    fn group(&mut self, log: &ReplicatedLog, dir: &Path) {
        self.word(log.epoch());
        self.word(log.committed());
        for (r, m) in log.members().iter().enumerate() {
            self.word(u64::from(m.alive) | u64::from(m.synced) << 1);
            self.word(m.acked_entries);
            self.word(m.good_bytes);
            let copy = std::fs::read(copy_path(dir, "pin", r)).unwrap();
            self.word(copy.len() as u64);
            self.bytes(&copy);
        }
    }

    /// Drain the re-protection loop, hashing each step.
    fn reprotect(&mut self, log: &mut ReplicatedLog, dir: &Path) {
        loop {
            match log.reprotect_step() {
                Ok(Some(step)) => {
                    self.list(&[step.member, step.source, step.copied_bytes as usize]);
                }
                Ok(None) => break,
                Err(e) => {
                    self.bytes(e.kind().as_bytes());
                    break;
                }
            }
        }
        self.group(log, dir);
    }
}

/// Eight quorum rounds under `FaultPlan::replication_from_seed(seed)`
/// (whose faults all land in the first two): a promotion away from a
/// failed replica 0 after round 1, a re-protection pass after round 3 and
/// another at the end.
fn digest_of(seed: u64) -> u64 {
    let dir = temp_dir();
    let injector = FaultInjector::new(FaultPlan::replication_from_seed(seed));
    let mut log = ReplicatedLog::create(&dir, "pin", ReplicaConfig::default(), injector).unwrap();
    let mut d = Digest(0xcbf2_9ce4_8422_2325);
    for round in 0..8u64 {
        let frame = match round % 2 {
            0 => Frame::request(
                round,
                vec![format!("payload-{round}"), "x".repeat(round as usize)],
            ),
            _ => Frame::response_ok(round, vec![round as u8; 3 * round as usize]),
        };
        let epoch = log.epoch();
        let out = log.append(&frame, epoch).unwrap();
        d.word(u64::from(out.committed) | u64::from(out.group_crash) << 1);
        d.word(out.entry);
        d.list(&out.acked);
        d.list(&out.crashed);
        d.list(&out.rejected);
        d.group(&log, &dir);
        if round == 3 {
            d.reprotect(&mut log, &dir);
        }
        let leader = log.members()[0];
        if round == 1 && !(leader.alive && leader.synced) {
            match log.promote(0) {
                Ok((winner, epoch)) => d.list(&[winner, epoch as usize]),
                Err(e) => d.bytes(e.kind().as_bytes()),
            }
            // The deposed writer's epoch is fenced before any byte lands.
            if log.epoch() != epoch {
                d.bytes(log.append(&frame, epoch).unwrap_err().kind().as_bytes());
            }
            d.group(&log, &dir);
        }
    }
    d.reprotect(&mut log, &dir);
    std::fs::remove_dir_all(&dir).unwrap();
    d.0
}

/// `digest_of(seed)` for seeds `0..64`, captured from a build of the
/// parent commit (open-per-append writer, whole-file verify and rollback).
const PINNED: [u64; 64] = [
    0x3368_e790_1933_e8ac,
    0x6267_10aa_e560_112d,
    0x2af2_63e4_a47d_b97c,
    0x10a5_da0f_df50_702c,
    0xf7ac_3dc4_d2f1_c723,
    0x8189_c6b6_b90e_9fe2,
    0xdce1_dd10_809d_577b,
    0xcf6f_80fd_0146_2079,
    0x484c_887e_1435_ed33,
    0xc187_8cc4_f4cf_c6ab,
    0x2ae6_c47a_f117_ffa3,
    0x4c73_7176_dd65_c871,
    0x8134_3cb0_cb2b_0ae4,
    0xa0e2_5090_482f_e04e,
    0xcb73_0269_809e_50da,
    0xbec9_7ed6_c5c3_7114,
    0xd409_1025_fb38_f254,
    0xd47c_3482_a0bf_3c4c,
    0xc44c_606a_7cf6_c4f3,
    0xafbe_7af2_011c_5137,
    0x8544_e85f_77ef_009f,
    0x7491_535a_dd6c_3a9f,
    0x2311_8756_4be1_60af,
    0x08fd_0f90_a1eb_f852,
    0x3366_6548_b1cf_e6e6,
    0xfbee_97ef_c08d_68c2,
    0x7122_2850_79e3_1996,
    0x00ce_5a0b_3832_3d47,
    0x7cf7_301f_f342_6584,
    0xb946_d5f4_17c1_c74c,
    0xc871_1301_8f4d_2d1a,
    0x0479_5a85_8391_42f7,
    0x60c2_057f_f5d1_5fbc,
    0x3baf_530b_cedd_04ce,
    0x306a_183f_44b6_4548,
    0x2b5a_7bf5_7036_0246,
    0x94d2_e73a_7fbb_de2f,
    0x56a2_1235_7c85_b1bf,
    0xd3e2_191a_2a53_3bfa,
    0x3691_2ab9_9335_7a9c,
    0x4274_36d1_7621_61f9,
    0x3275_8437_d47b_7548,
    0x801a_b6b6_2f80_3a8b,
    0x7d60_24e6_3274_5814,
    0xb6ce_f735_3f04_87f1,
    0xe845_9d05_1187_0627,
    0x90ea_5425_de53_6005,
    0x4618_12a5_eee3_da1a,
    0x4f1b_8651_e4ea_18f6,
    0x4c73_7176_dd65_c871,
    0x8544_e85f_77ef_009f,
    0xcac7_b3f8_5b86_bbd0,
    0x8d24_ec77_79c2_5ca3,
    0xd1a5_db31_228d_279b,
    0xffe4_f9b6_b79a_7e9c,
    0xc187_8cc4_f4cf_c6ab,
    0x9e5b_2900_af6f_4ca2,
    0x3275_8437_d47b_7548,
    0x046f_2c7f_05b1_62bd,
    0xbfdb_2088_690d_532e,
    0x6f75_cff1_9fb4_d553,
    0x3c09_1841_c8e0_55ff,
    0xa386_65c5_590f_be11,
    0x0a6b_c319_031d_346f,
];

#[test]
fn held_handle_groups_behave_byte_for_byte_like_the_open_per_append_ones() {
    let got: Vec<u64> = (0..PINNED.len() as u64).map(digest_of).collect();
    if got != PINNED {
        let table: Vec<String> = got.iter().map(|d| format!("    {d:#018x},")).collect();
        let moved: Vec<usize> = (0..got.len()).filter(|&s| got[s] != PINNED[s]).collect();
        panic!(
            "seeds {moved:?} moved; digests of this build:\n{}",
            table.join("\n")
        );
    }
}
