//! Replicated scale-out integration tests (DESIGN.md §15).
//!
//! The contract under test, end to end through
//! [`MultiSdRunner::run_replicated`] (the leader-crash promotion is
//! `crates/bench/tests/failover.rs`, on the failover walkthrough's run):
//!
//! * a correlated group crash below the write quorum loses the round,
//!   the span re-dispatches through the normal chain, and re-protection
//!   heals the group before the retry commits;
//! * replaying a seeded schedule reproduces the output, the outcomes,
//!   and the [`ReplicationStats`] counters *exactly*, across a sweep of
//!   seeds of [`FaultPlan::replication_from_seed`].

use mcsd_apps::{seq, TextGen, WordCount};
use mcsd_cluster::multi_sd_testbed;
use mcsd_cluster::Scale;
use mcsd_core::driver::ExecMode;
use mcsd_core::{
    FaultAction, FaultInjector, FaultPlan, FaultSite, MultiSdRunner, ReplicationSetup, SpanOutcome,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn temp_dir() -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "mcsd-replication-it-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn runner(sd_count: usize) -> MultiSdRunner {
    let mut cluster = multi_sd_testbed(Scale::smoke(), sd_count);
    for n in &mut cluster.nodes {
        n.memory_bytes = 64 << 20;
    }
    MultiSdRunner::new(cluster).unwrap()
}

fn text(bytes: usize) -> Vec<u8> {
    TextGen::with_seed(77).generate(bytes)
}

/// A correlated group crash that drops span 0's round below its write
/// quorum loses the span's durable record: the output is discarded and
/// the span retries in place. Re-protection healed the group during the
/// failed round, so the retry commits on the same node.
#[test]
fn group_crash_below_quorum_redispatches_then_heals() {
    let dir = temp_dir();
    let runner = runner(3);
    let input = text(15_000);
    let plan = FaultPlan::none().with(
        FaultSite::Group,
        0,
        FaultAction::CrashReplicas { mask: 0b011 },
    );
    let injector = FaultInjector::new(plan);
    let setup = ReplicationSetup::new(&dir);
    let out = runner
        .run_replicated(
            &WordCount,
            &WordCount::merger(),
            &input,
            ExecMode::Parallel,
            &injector,
            &setup,
        )
        .unwrap();
    assert_eq!(out.pairs, seq::wordcount(&input));
    assert_eq!(out.outcomes[0], SpanOutcome::Retried { node: "sd0".into() });
    assert_eq!(out.resilience.retries, 1);
    assert_eq!(out.resilience.redispatches, 0);
    let stats = out.replication;
    assert_eq!(stats.group_crashes, 1);
    assert_eq!(stats.replica_crashes, 2);
    assert_eq!(stats.promotions, 0, "a lost round is not a promotion");
    // The aborted round contributes no committed append; the retry and
    // the other two spans contribute two each.
    assert_eq!(stats.quorum_appends, 6);
    assert_eq!(stats.reprotect_copies, 2, "both crashed slots rebuilt");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A clean replicated run commits every round on every member and is
/// indistinguishable from `run_with_faults` except for the append/ack
/// counters.
#[test]
fn clean_replicated_run_counts_appends_only() {
    let dir = temp_dir();
    let runner = runner(3);
    let input = text(12_000);
    let out = runner
        .run_replicated(
            &WordCount,
            &WordCount::merger(),
            &input,
            ExecMode::Parallel,
            &FaultInjector::disabled(),
            &ReplicationSetup::new(&dir),
        )
        .unwrap();
    assert_eq!(out.pairs, seq::wordcount(&input));
    assert!(out.resilience.is_clean());
    assert!(out.replication.is_clean());
    assert_eq!(out.replication.quorum_appends, 6);
    assert_eq!(out.replication.replica_acks, 18);
    assert!(out
        .outcomes
        .iter()
        .all(|o| matches!(o, SpanOutcome::Ok { .. })));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The seeded failover matrix: every seed of the replication generator
/// must (a) produce the correct merged output, and (b) replay to
/// byte-identical outcomes and *exact* [`ReplicationStats`] counters on
/// a second run — the §15 determinism contract.
#[test]
fn seeded_matrix_replays_exact_replication_stats() {
    let input = text(15_000);
    let oracle = seq::wordcount(&input);
    for seed in 0..12u64 {
        let plan = FaultPlan::replication_from_seed(seed);
        assert!(!plan.is_empty(), "seed {seed} schedules nothing");
        let mut runs = Vec::new();
        for _ in 0..2 {
            let dir = temp_dir();
            // A fresh runner per run: breaker state is persistent per
            // runner and would otherwise leak between the pair.
            let out = runner(3)
                .run_replicated(
                    &WordCount,
                    &WordCount::merger(),
                    &input,
                    ExecMode::Parallel,
                    &FaultInjector::new(plan.clone()),
                    &ReplicationSetup::new(&dir),
                )
                .unwrap();
            assert_eq!(out.pairs, oracle, "seed {seed}: output silently wrong");
            runs.push(out);
            std::fs::remove_dir_all(&dir).unwrap();
        }
        let (a, b) = (&runs[0], &runs[1]);
        assert_eq!(
            a.replication, b.replication,
            "seed {seed}: ReplicationStats did not replay exactly"
        );
        assert_eq!(a.outcomes, b.outcomes, "seed {seed}: outcomes diverged");
        assert_eq!(
            a.resilience.retries, b.resilience.retries,
            "seed {seed}: retry counts diverged"
        );
        assert_eq!(
            a.resilience.redispatches, b.resilience.redispatches,
            "seed {seed}: re-dispatch counts diverged"
        );
    }
}
