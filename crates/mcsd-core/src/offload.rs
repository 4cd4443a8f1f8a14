//! The offload policy.
//!
//! "The APIs and runtime environment in our McSD programming framework
//! automatically handles computation offload, data partitioning, and load
//! balancing" (§I). The decision modelled here is the one the paper's
//! multi-application scenarios embody: computation-intensive functions run
//! on the host; data-intensive functions run next to their data on the
//! smart-storage node — unless a policy override or load condition says
//! otherwise.

use mcsd_cluster::{NodeRole, NodeSpec};
use serde::{Deserialize, Serialize};

/// Characteristics of a job the policy decides about.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobProfile {
    /// Job name (diagnostics).
    pub name: &'static str,
    /// Bytes of input the job reads.
    pub input_bytes: u64,
    /// Approximate compute work in "flop-equivalents" per input byte.
    /// Word Count ≈ 10, String Match ≈ 20, dense MM ≈ thousands.
    pub compute_per_byte: f64,
    /// Whether the input data already resides on the SD node.
    pub data_on_sd: bool,
}

impl JobProfile {
    /// Whether this job is data-intensive in the paper's sense: cheap per
    /// byte, dominated by moving data.
    pub fn is_data_intensive(&self) -> bool {
        self.compute_per_byte < DATA_INTENSITY_THRESHOLD
    }
}

/// Jobs below this compute density are classified data-intensive.
pub const DATA_INTENSITY_THRESHOLD: f64 = 100.0;

/// Where the framework decides to run a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OffloadDecision {
    /// Run on the host computing node.
    Host,
    /// Offload to a smart-storage node (by index among SD nodes).
    SmartStorage {
        /// Index into the cluster's SD node list.
        sd_index: usize,
    },
    /// The policy chose an SD node but the invocation failed and the
    /// framework degraded gracefully to host execution. Never produced by
    /// [`Offloader::decide`]; recorded by the framework's self-healing path
    /// so callers can tell a planned host run from a failover.
    FallbackToHost,
    /// The policy chose an SD node but overload protection steered the job
    /// to the host *before* any SD attempt: the node's circuit breaker was
    /// open or its heartbeat reported a saturated queue. Never produced by
    /// [`Offloader::decide`]; recorded by the framework so a proactive
    /// steer is distinguishable from a failover after wasted attempts.
    SteeredToHost,
}

/// Offload policies (`tests/end_to_end.rs` checks they change placement, not results).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OffloadPolicy {
    /// Never offload: everything on the host (the paper's "Host only"
    /// scenario).
    AlwaysHost,
    /// Offload everything to SD nodes.
    AlwaysSd,
    /// The McSD default: data-intensive jobs whose data lives on SD run
    /// there; compute-intensive jobs run on the host.
    DataIntensiveToSd,
    /// Like `DataIntensiveToSd`, but spread successive offloads across SD
    /// nodes round-robin (the multi-SD extension).
    Balanced,
}

/// Stateful decision maker.
#[derive(Debug, Clone)]
pub struct Offloader {
    policy: OffloadPolicy,
    sd_count: usize,
    next_sd: usize,
}

impl Offloader {
    /// A decision maker for a cluster with `sd_count` smart-storage nodes.
    pub fn new(policy: OffloadPolicy, sd_count: usize) -> Offloader {
        Offloader {
            policy,
            sd_count,
            next_sd: 0,
        }
    }

    /// Build from a node list.
    pub fn for_nodes(policy: OffloadPolicy, nodes: &[NodeSpec]) -> Offloader {
        let sd_count = nodes
            .iter()
            .filter(|n| n.role == NodeRole::SmartStorage)
            .count();
        Offloader::new(policy, sd_count)
    }

    /// Decide where `job` runs.
    pub fn decide(&mut self, job: &JobProfile) -> OffloadDecision {
        if self.sd_count == 0 {
            return OffloadDecision::Host;
        }
        match self.policy {
            OffloadPolicy::AlwaysHost => OffloadDecision::Host,
            OffloadPolicy::AlwaysSd => self.pick_sd(),
            OffloadPolicy::DataIntensiveToSd => {
                if job.is_data_intensive() && job.data_on_sd {
                    OffloadDecision::SmartStorage { sd_index: 0 }
                } else {
                    OffloadDecision::Host
                }
            }
            OffloadPolicy::Balanced => {
                if job.is_data_intensive() && job.data_on_sd {
                    self.pick_sd()
                } else {
                    OffloadDecision::Host
                }
            }
        }
    }

    fn pick_sd(&mut self) -> OffloadDecision {
        let sd_index = self.next_sd % self.sd_count;
        self.next_sd += 1;
        OffloadDecision::SmartStorage { sd_index }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsd_cluster::{paper_testbed, Scale};

    fn wc_profile() -> JobProfile {
        JobProfile {
            name: "wordcount",
            input_bytes: 1 << 20,
            compute_per_byte: 10.0,
            data_on_sd: true,
        }
    }

    fn mm_profile() -> JobProfile {
        JobProfile {
            name: "matmul",
            input_bytes: 1 << 10,
            compute_per_byte: 5_000.0,
            data_on_sd: false,
        }
    }

    #[test]
    fn classification() {
        assert!(wc_profile().is_data_intensive());
        assert!(!mm_profile().is_data_intensive());
    }

    #[test]
    fn default_policy_splits_the_pair() {
        let mut o = Offloader::new(OffloadPolicy::DataIntensiveToSd, 1);
        assert_eq!(
            o.decide(&wc_profile()),
            OffloadDecision::SmartStorage { sd_index: 0 }
        );
        assert_eq!(o.decide(&mm_profile()), OffloadDecision::Host);
    }

    #[test]
    fn always_host_never_offloads() {
        let mut o = Offloader::new(OffloadPolicy::AlwaysHost, 2);
        assert_eq!(o.decide(&wc_profile()), OffloadDecision::Host);
        assert_eq!(o.decide(&mm_profile()), OffloadDecision::Host);
    }

    #[test]
    fn always_sd_round_robins() {
        let mut o = Offloader::new(OffloadPolicy::AlwaysSd, 3);
        let picks: Vec<OffloadDecision> = (0..4).map(|_| o.decide(&mm_profile())).collect();
        assert_eq!(
            picks,
            vec![
                OffloadDecision::SmartStorage { sd_index: 0 },
                OffloadDecision::SmartStorage { sd_index: 1 },
                OffloadDecision::SmartStorage { sd_index: 2 },
                OffloadDecision::SmartStorage { sd_index: 0 },
            ]
        );
    }

    #[test]
    fn balanced_spreads_data_jobs_only() {
        let mut o = Offloader::new(OffloadPolicy::Balanced, 2);
        assert_eq!(
            o.decide(&wc_profile()),
            OffloadDecision::SmartStorage { sd_index: 0 }
        );
        assert_eq!(
            o.decide(&wc_profile()),
            OffloadDecision::SmartStorage { sd_index: 1 }
        );
        assert_eq!(o.decide(&mm_profile()), OffloadDecision::Host);
    }

    #[test]
    fn intensity_threshold_is_strict() {
        // Exactly 100 flop-equivalents per byte is compute-intensive: the
        // classification is a strict `<`, so the boundary job stays on the
        // host under the default policy.
        let mut p = wc_profile();
        p.compute_per_byte = DATA_INTENSITY_THRESHOLD;
        assert!(!p.is_data_intensive());
        let mut o = Offloader::new(OffloadPolicy::DataIntensiveToSd, 1);
        assert_eq!(o.decide(&p), OffloadDecision::Host);
        // One ulp under the threshold flips the classification.
        p.compute_per_byte = DATA_INTENSITY_THRESHOLD.next_down();
        assert!(p.is_data_intensive());
        assert_eq!(o.decide(&p), OffloadDecision::SmartStorage { sd_index: 0 });
    }

    #[test]
    fn balanced_cursor_ignores_host_placements_and_wraps() {
        // Interleave compute-intensive (host) jobs between data jobs: the
        // round-robin cursor must advance only on actual SD placements,
        // and wrap around after the last SD node.
        let mut o = Offloader::new(OffloadPolicy::Balanced, 2);
        assert_eq!(
            o.decide(&wc_profile()),
            OffloadDecision::SmartStorage { sd_index: 0 }
        );
        assert_eq!(o.decide(&mm_profile()), OffloadDecision::Host);
        assert_eq!(
            o.decide(&wc_profile()),
            OffloadDecision::SmartStorage { sd_index: 1 }
        );
        assert_eq!(o.decide(&mm_profile()), OffloadDecision::Host);
        assert_eq!(
            o.decide(&wc_profile()),
            OffloadDecision::SmartStorage { sd_index: 0 },
            "the cursor wraps to the first SD node"
        );
    }

    #[test]
    fn data_not_on_sd_stays_on_host() {
        let mut o = Offloader::new(OffloadPolicy::DataIntensiveToSd, 1);
        let mut p = wc_profile();
        p.data_on_sd = false;
        assert_eq!(o.decide(&p), OffloadDecision::Host);
    }

    #[test]
    fn no_sd_nodes_means_host() {
        let mut o = Offloader::new(OffloadPolicy::AlwaysSd, 0);
        assert_eq!(o.decide(&wc_profile()), OffloadDecision::Host);
    }

    #[test]
    fn for_nodes_counts_sds() {
        let c = paper_testbed(Scale::default_experiment());
        let o = Offloader::for_nodes(OffloadPolicy::DataIntensiveToSd, &c.nodes);
        assert_eq!(o.sd_count, 1);
    }
}
