//! Run reports consumed by the experiment harness.

use mcsd_cluster::TimeBreakdown;
use mcsd_obs::CounterFamily;
use mcsd_phoenix::JobStats;
use mcsd_smartfam::ResilienceStats;
use std::fmt;
use std::time::Duration;

/// Counters of the replicated-log tier (DESIGN.md §15): quorum appends,
/// replica/group crashes, promotions, epoch fences and re-protection.
///
/// Single-owner rule (§13): every counter here is mutated only by the
/// replication engine (`crates/mcsd-core/src/replication.rs`) and merged
/// only through [`ReplicationStats::absorb`]; the golden `failover`
/// digests hold their values.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicationStats {
    /// Append rounds that gathered their write quorum and committed.
    pub quorum_appends: u64,
    /// Verified per-member acknowledgements across all committed rounds.
    pub replica_acks: u64,
    /// Individual replica crashes observed during append rounds.
    pub replica_crashes: u64,
    /// Correlated group-crash faults (one schedule entry, several
    /// members of the same group).
    pub group_crashes: u64,
    /// Promotions: a failed primary replaced by its most-advanced
    /// acknowledged replica instead of a span re-execution.
    pub promotions: u64,
    /// Appends rejected because the writer carried a stale group epoch.
    pub fenced_appends: u64,
    /// Background re-protection copies (one per rebuilt member).
    pub reprotect_copies: u64,
    /// Bytes copied by the re-protection loop.
    pub reprotect_bytes: u64,
}

mcsd_obs::counter_family!(ReplicationStats {
    owner: "mcsd.replication",
    prefix: "replication",
    counters: [
        quorum_appends,
        replica_acks as "acks",
        replica_crashes,
        group_crashes,
        promotions,
        fenced_appends as "fenced",
        reprotect_copies,
        reprotect_bytes,
    ],
});

impl ReplicationStats {
    /// Whether the run saw no replica disturbance at all (appends and
    /// acks still count on a clean replicated run).
    pub fn is_clean(&self) -> bool {
        *self
            == ReplicationStats {
                quorum_appends: self.quorum_appends,
                replica_acks: self.replica_acks,
                ..ReplicationStats::default()
            }
    }
}

impl fmt::Display for ReplicationStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.report(f)
    }
}

/// Counters of the rack-scale discrete-event scheduler (DESIGN.md §17):
/// arrivals, completions, shed jobs, shard busy time and cross-rack
/// traffic over the oversubscribed top-of-rack uplinks.
///
/// Single-owner rule (§13): every counter here is mutated only by the
/// discrete-event loop (`crates/mcsd-core/src/des.rs`) and merged only
/// through [`DesStats::absorb`]; the golden `rack` digests hold their
/// values.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DesStats {
    /// Jobs injected into the event loop (one arrival event each).
    pub arrivals: u64,
    /// Jobs that ran to completion on their placed shard.
    pub completed_jobs: u64,
    /// Jobs shed because their shard's bounded run queue was full.
    pub shed_jobs: u64,
    /// Total virtual microseconds shards spent executing jobs (summed
    /// across shards, so it can exceed the makespan).
    pub busy_us: u64,
    /// Transfers that crossed a top-of-rack uplink (source rack differs
    /// from the placed shard's rack).
    pub cross_rack_transfers: u64,
    /// Bytes moved across top-of-rack uplinks.
    pub cross_rack_bytes: u64,
}

mcsd_obs::counter_family!(DesStats {
    owner: "mcsd.des",
    prefix: "des",
    counters: [
        arrivals,
        completed_jobs as "completed",
        shed_jobs as "shed",
        busy_us,
        cross_rack_transfers,
        cross_rack_bytes,
    ],
});

impl DesStats {
    /// Conservation invariant: every arrival either completed or was
    /// shed. Holds whenever the event loop ran to quiescence.
    pub fn is_conserved(&self) -> bool {
        self.arrivals == self.completed_jobs + self.shed_jobs
    }
}

impl fmt::Display for DesStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.report(f)
    }
}

/// Summary of one rack-scale discrete-event run (`mcsd_core::des`): the
/// topology it ran on, the virtual makespan, and the [`DesStats`]
/// counters. Two runs with the same [`crate::des::DesConfig`] produce
/// equal reports — the determinism contract of DESIGN.md §17.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RackReport {
    /// Racks in the topology.
    pub racks: u32,
    /// Total nodes (hosts + SDs) across all racks.
    pub nodes: u32,
    /// Smart-storage nodes across all racks.
    pub sds: u32,
    /// Workload seed.
    pub seed: u64,
    /// Virtual time at which the last event fired, in microseconds.
    pub makespan_us: u64,
    /// Scheduler counters (owned by `mcsd.des`, §13).
    pub stats: DesStats,
}

impl RackReport {
    /// Completed jobs per *virtual* second of makespan — the paper-side
    /// throughput figure (wall-clock jobs/sec is measured by the bench
    /// harness around the run, not here).
    pub fn jobs_per_virtual_sec(&self) -> f64 {
        if self.makespan_us == 0 {
            return 0.0;
        }
        self.stats.completed_jobs as f64 / (self.makespan_us as f64 / 1e6)
    }
}

impl fmt::Display for RackReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "racks={} nodes={} sds={} seed={} makespan_us={} jobs_per_vsec={:.1} [{}]",
            self.racks,
            self.nodes,
            self.sds,
            self.seed,
            self.makespan_us,
            self.jobs_per_virtual_sec(),
            self.stats,
        )
    }
}

/// Summary of one job run on one node under one execution mode — the unit
/// the paper's elapsed-time curves and speedup bars are built from.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Job name.
    pub job: String,
    /// Node the job ran on.
    pub node: String,
    /// Execution mode label ("seq", "par", "par+part(…)").
    pub mode: String,
    /// Input size in (scaled) bytes.
    pub input_bytes: u64,
    /// Virtual elapsed time with its category breakdown.
    pub time: TimeBreakdown,
    /// Runtime statistics.
    pub stats: JobStats,
    /// Recovery counters for this run (all zero on an undisturbed run).
    pub resilience: ResilienceStats,
}

impl RunReport {
    /// Total virtual elapsed time.
    pub fn elapsed(&self) -> Duration {
        self.time.total()
    }

    /// One-line human-readable summary. Recovery counters are appended
    /// only when the run was actually disturbed.
    pub fn summary(&self) -> String {
        let mut line = format!(
            "{:<12} {:<14} {:<16} {:>10}B  total={:>9.3?} (cpu={:.3?} net={:.3?} disk={:.3?} ovh={:.3?}) frags={} swapped={}B",
            self.job,
            self.node,
            self.mode,
            self.input_bytes,
            self.time.total(),
            self.time.compute,
            self.time.network,
            self.time.disk,
            self.time.overhead,
            self.stats.fragments,
            self.stats.swapped_bytes,
        );
        if !self.resilience.is_clean() {
            line.push_str(&format!("  [{}]", self.resilience));
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(ms: u64) -> RunReport {
        RunReport {
            job: "wc".into(),
            node: "sd".into(),
            mode: "par".into(),
            input_bytes: 1000,
            time: TimeBreakdown::compute(Duration::from_millis(ms)),
            stats: JobStats::default(),
            resilience: ResilienceStats::default(),
        }
    }

    #[test]
    fn summary_contains_fields() {
        let r = report(5);
        let s = r.summary();
        assert!(s.contains("wc"));
        assert!(s.contains("sd"));
        assert!(s.contains("par"));
    }

    #[test]
    fn summary_appends_resilience_only_when_disturbed() {
        let mut r = report(5);
        assert!(!r.summary().contains("retries="));
        r.resilience.retries = 2;
        r.resilience.attempts = 3;
        assert!(r.summary().contains("retries=2"));
    }

    #[test]
    fn replication_cleanliness_ignores_appends_and_acks_only() {
        // A clean replicated run still counts appends and acks.
        let clean = ReplicationStats {
            quorum_appends: 4,
            replica_acks: 12,
            ..ReplicationStats::default()
        };
        assert!(clean.is_clean());
        for counter in 2..ReplicationStats::TABLE.len() {
            let mut stats = clean;
            *stats.slots().nth(counter).expect("in table") = 1;
            assert!(!stats.is_clean(), "counter {counter} is a disturbance");
        }
    }

    #[test]
    fn des_conservation_balances_arrivals() {
        let mut stats = DesStats::default();
        assert!(stats.is_conserved());
        stats.arrivals = 10;
        stats.completed_jobs = 7;
        assert!(!stats.is_conserved());
        stats.shed_jobs = 3;
        assert!(stats.is_conserved());
    }

    #[test]
    fn rack_report_throughput() {
        let r = RackReport {
            racks: 2,
            nodes: 10,
            sds: 6,
            seed: 42,
            makespan_us: 2_000_000,
            stats: DesStats {
                arrivals: 100,
                completed_jobs: 100,
                ..DesStats::default()
            },
        };
        assert!((r.jobs_per_virtual_sec() - 50.0).abs() < 1e-9);
        let zero = RackReport {
            makespan_us: 0,
            ..r
        };
        assert_eq!(zero.jobs_per_virtual_sec(), 0.0);
        assert!(r.to_string().contains("racks=2"));
    }
}
