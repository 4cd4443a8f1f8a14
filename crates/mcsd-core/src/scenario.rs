//! The paper's multi-application execution scenarios (§V-C).
//!
//! "For each pair of applications, we set up four scenarios to execute the
//! program: (1) the benchmarks running on the traditional single-core SD
//! mode (a combination of host and single-core SD node), (2) the
//! benchmarks running on the duo-core embedded SD mode without Partition
//! function, (3) the programs running on the host node only, and (4) the
//! programs follow the McSD execution framework; the host machine handles
//! the computation-intensive part and the SD machine processes the on-node
//! data-intensive function."
//!
//! Each pair couples a computation-intensive function (Matrix
//! Multiplication) with a data-intensive one (Word Count or String Match)
//! whose input lives on the SD node's disk. The modelled costs differ by
//! placement:
//!
//! * **Host only** — the data must first cross the network (NFS read of
//!   the whole input), and both applications contend for the host, so
//!   their times add.
//! * **SD placements** — host and SD run concurrently; the pair's elapsed
//!   time is the maximum of the two sides plus the smartFAM invocation
//!   overhead.
//!
//! These scenarios are the paper's *one-pair-at-a-time* evaluation
//! shape. The workload-rate generalization — a seeded stream of the
//! same three applications arriving concurrently over a rack topology —
//! lives in [`crate::des`] (DESIGN.md §17), whose job mix draws the
//! per-application compute densities from the same Table I calibration
//! these scenarios use.

use crate::driver::{ExecMode, NodeRunner};
use crate::error::McsdError;
use crate::report::RunReport;
use mcsd_apps::MatMul;
use mcsd_cluster::{Cluster, SandiaMicroBenchmark, TimeBreakdown};
use mcsd_phoenix::partition::Merger;
use mcsd_phoenix::Job;
use std::time::Duration;

/// smartFAM invocation overhead in paper space: log-file append, inotify
/// wake-up, daemon dispatch, and the response path (§IV-A's five steps).
/// Scaled down by the cluster's byte scale alongside everything else.
pub const SMARTFAM_OVERHEAD_PAPER: Duration = Duration::from_millis(10);

/// Where the pair's two applications are placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Scenario (3): both applications on the host; the data-intensive
    /// input is fetched from the SD node over NFS first.
    HostOnly,
    /// Scenario (1): traditional smart storage — the SD node has a
    /// single-core processor.
    TraditionalSd,
    /// Scenarios (2) and (4): the multicore (duo) SD node.
    DuoSd,
}

impl Placement {
    /// Label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            Placement::HostOnly => "host-only",
            Placement::TraditionalSd => "trad-sd",
            Placement::DuoSd => "duo-sd",
        }
    }
}

/// A full scenario: a placement plus the execution mode of the
/// data-intensive application ("each of the solutions performs three
/// tests: parallel processing without partition, parallel processing with
/// partition and the sequential solution").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairScenario {
    /// Placement of the data-intensive job.
    pub placement: Placement,
    /// Execution mode of the data-intensive job.
    pub data_mode: ExecMode,
}

impl PairScenario {
    /// Scenario (4): the McSD framework — data-intensive job partitioned
    /// on the duo-core SD node. `fragment_bytes` is the paper's 600 MB
    /// partition, already scaled; `None` = automatic.
    pub fn mcsd(fragment_bytes: Option<usize>) -> PairScenario {
        PairScenario {
            placement: Placement::DuoSd,
            data_mode: ExecMode::Partitioned { fragment_bytes },
        }
    }

    /// Scenario (2): duo-core SD without the Partition function.
    pub fn duo_sd_no_partition() -> PairScenario {
        PairScenario {
            placement: Placement::DuoSd,
            data_mode: ExecMode::Parallel,
        }
    }

    /// Scenario (1): traditional single-core SD (runs sequentially).
    pub fn traditional_sd(seq_footprint_factor: f64) -> PairScenario {
        PairScenario {
            placement: Placement::TraditionalSd,
            data_mode: ExecMode::Sequential {
                footprint_factor: seq_footprint_factor,
            },
        }
    }

    /// Scenario (3): host only, with the given data-job mode.
    pub fn host_only(data_mode: ExecMode) -> PairScenario {
        PairScenario {
            placement: Placement::HostOnly,
            data_mode,
        }
    }

    /// Label used in reports, e.g. `"duo-sd/par+part(2400000)"`.
    pub fn label(&self) -> String {
        format!("{}/{}", self.placement.label(), self.data_mode.label())
    }
}

/// The concrete workload pair: Matrix Multiplication (compute-intensive)
/// plus a data-intensive MapReduce job `D` with its partition merger `M`.
pub struct PairWorkload<D, M> {
    /// The computation-intensive application (always runs on the host).
    pub compute: MatMul,
    /// The data-intensive application.
    pub data_job: D,
    /// Merger for partitioned runs of the data job.
    pub data_merger: M,
    /// The data-intensive input (resides on the SD node's disk).
    pub data_input: Vec<u8>,
    /// Working-set factor of the data job's *sequential* implementation.
    pub seq_footprint_factor: f64,
}

/// Outcome of one pair scenario.
#[derive(Debug, Clone)]
pub struct PairReport {
    /// Scenario label.
    pub scenario: String,
    /// The compute-intensive side (always the host).
    pub compute: RunReport,
    /// The data-intensive side.
    pub data: RunReport,
    /// Staging/invocation costs not inside either job: NFS transfer for
    /// host-only, smartFAM overhead for SD placements.
    pub coupling: TimeBreakdown,
    /// Whether the two sides serialized on one node (host-only) rather
    /// than running concurrently.
    pub serialized: bool,
}

impl PairReport {
    /// The pair's virtual elapsed time: sum when serialized on the host,
    /// otherwise the slower of the two concurrent sides.
    pub fn elapsed(&self) -> Duration {
        if self.serialized {
            self.compute.elapsed() + self.data.elapsed() + self.coupling.total()
        } else {
            self.compute
                .elapsed()
                .max(self.data.elapsed() + self.coupling.total())
        }
    }

    /// Speedup of `self` relative to this report
    /// (`self.elapsed / mcsd.elapsed`), the paper's "ratio of the elapsed
    /// time without the optimization technique to that with the McSD
    /// technique".
    pub fn speedup_over(&self, mcsd: &PairReport) -> f64 {
        self.elapsed().as_secs_f64() / mcsd.elapsed().as_secs_f64().max(1e-12)
    }
}

/// Executes pair scenarios on a modelled cluster.
pub struct PairRunner {
    cluster: Cluster,
    /// smartFAM overhead, already scaled.
    overhead: Duration,
}

impl PairRunner {
    /// A runner over `cluster`. Network transfers see the SMB routine
    /// load; the smartFAM overhead is scaled by the cluster's byte scale.
    pub fn new(cluster: Cluster) -> PairRunner {
        let overhead = SMARTFAM_OVERHEAD_PAPER / cluster.scale.divisor as u32;
        PairRunner { cluster, overhead }
    }

    fn host_runner(&self) -> NodeRunner {
        NodeRunner::new(self.cluster.host().clone(), self.cluster.disk)
    }

    fn sd_runner(&self, placement: Placement) -> NodeRunner {
        let sd = self.cluster.sd();
        let spec = match placement {
            Placement::TraditionalSd => sd.single_core(),
            _ => sd.clone(),
        };
        NodeRunner::new(spec, self.cluster.disk)
    }

    /// Run one scenario over one workload.
    pub fn run<D, M>(
        &self,
        scenario: PairScenario,
        workload: &PairWorkload<D, M>,
    ) -> Result<PairReport, McsdError>
    where
        D: Job + Clone,
        M: Merger<D>,
    {
        // The computation-intensive side always runs on the host,
        // in parallel across its four cores.
        let host = self.host_runner();
        let mm_input = workload.compute.row_input();
        let compute = host.run_parallel(&workload.compute, &mm_input)?;

        let loaded_net = self
            .cluster
            .network
            .with_background_load(SandiaMicroBenchmark::routine_load());

        match scenario.placement {
            Placement::HostOnly => {
                // Fetch the data-intensive input from the SD node's NFS
                // export, then run both applications on the host,
                // serialized (they contend for the same four cores).
                let transfer = loaded_net.charge_transfer(workload.data_input.len() as u64);
                let data = host.run_mode(
                    &workload.data_job,
                    &workload.data_merger,
                    &workload.data_input,
                    scenario.data_mode,
                )?;
                Ok(PairReport {
                    scenario: scenario.label(),
                    compute: compute.report,
                    data: data.report,
                    coupling: transfer,
                    serialized: true,
                })
            }
            Placement::TraditionalSd | Placement::DuoSd => {
                // The data-intensive side runs next to its data on the SD
                // node, concurrently with the host; the host pays only the
                // smartFAM invocation round trip (parameters and results
                // through the log file — a few hundred bytes).
                let sd = self.sd_runner(scenario.placement);
                let data = sd.run_mode(
                    &workload.data_job,
                    &workload.data_merger,
                    &workload.data_input,
                    scenario.data_mode,
                )?;
                let coupling =
                    TimeBreakdown::overhead(self.overhead) + loaded_net.charge_transfer(512);
                Ok(PairReport {
                    scenario: scenario.label(),
                    compute: compute.report,
                    data: data.report,
                    coupling,
                    serialized: false,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsd_apps::{datagen, Matrix, TextGen, WordCount};
    use mcsd_cluster::{paper_testbed, Scale};
    use std::sync::Arc;

    fn small_cluster() -> Cluster {
        // "2 GB" nodes at 1/2048 scale -> 1 MiB memory.
        paper_testbed(Scale { divisor: 2048 })
    }

    type WcMerger = mcsd_phoenix::SumMerger<fn(&mut u64, u64)>;

    fn workload(data_bytes: usize) -> PairWorkload<WordCount, WcMerger> {
        let (a, b) = datagen::matrix_pair(48, 48, 48, 3);
        PairWorkload {
            compute: MatMul::new(Arc::new(a), &b),
            data_job: WordCount,
            data_merger: WordCount::merger(),
            data_input: TextGen::with_seed(9).generate(data_bytes),
            seq_footprint_factor: 1.2,
        }
    }

    // NOTE on assertions: unit tests run unoptimized, where per-byte
    // compute cost is ~25x the release build's and fixed runtime overheads
    // dominate small inputs, so the paper's *elapsed-time* speedup shapes
    // are only asserted by the release-mode experiment harness
    // (`mcsd-experiments`). Here we assert the structural properties that
    // produce those shapes: which side pays the network, who thrashes, and
    // that the duo core genuinely computes faster than the single core.

    #[test]
    fn mcsd_computes_faster_than_traditional_sd() {
        let cluster = small_cluster();
        let runner = PairRunner::new(cluster.clone());
        let w = workload(600_000);
        let mcsd = runner.run(PairScenario::mcsd(None), &w).unwrap();
        let trad = runner
            .run(PairScenario::traditional_sd(w.seq_footprint_factor), &w)
            .unwrap();
        assert_eq!(trad.data.mode, "seq");
        assert!(mcsd.data.mode.starts_with("par+part"));
        assert_eq!(trad.data.node, "sd-1core");
        assert_eq!(mcsd.data.node, "sd");
        assert_eq!(trad.data.stats.workers, 1);
        assert!(mcsd.data.stats.fragments > 1);
        // The duo-core data side out-computes the single-core one in the
        // model: one measured wall time charged at the two nodes' core
        // counts. The two runs' own compute times are not compared — they
        // also carry whatever else the test machine was doing.
        let charge = |node: mcsd_cluster::NodeSpec| {
            let cores = node.cores;
            let node = mcsd_cluster::NodeExecutor::new(node).with_machine_cores(1);
            node.virtual_compute(Duration::from_millis(100), cores)
        };
        let (duo, single) = (
            charge(cluster.sd().clone()),
            charge(cluster.sd().single_core()),
        );
        assert!(
            single.as_secs_f64() > 1.9 * duo.as_secs_f64(),
            "{single:?} !> 1.9 x {duo:?}"
        );
    }

    #[test]
    fn host_only_pays_transfer_and_thrash_that_mcsd_avoids() {
        let runner = PairRunner::new(small_cluster());
        // "1 GB" scaled: footprint 3x > available memory -> host thrashes
        // AND pays the transfer, while McSD partitions in place.
        let w = workload(512 * 1024);
        let mcsd = runner.run(PairScenario::mcsd(None), &w).unwrap();
        let host = runner
            .run(PairScenario::host_only(ExecMode::Parallel), &w)
            .unwrap();
        assert!(host.serialized);
        assert!(!mcsd.serialized);
        // Host-only moved the whole input across the wire.
        assert!(host.coupling.network > Duration::from_millis(1));
        assert!(mcsd.coupling.network < Duration::from_millis(1));
        // Host-only swapped; McSD did not.
        assert!(host.data.stats.swapped_bytes > 0);
        assert_eq!(mcsd.data.stats.swapped_bytes, 0);
        assert!(host.data.time.disk > mcsd.data.time.disk);
        // The modelled (non-compute) costs alone already favour McSD.
        let host_model = host.data.time.disk + host.coupling.total();
        let mcsd_model = mcsd.data.time.disk + mcsd.coupling.total();
        assert!(
            host_model > mcsd_model * 2,
            "{host_model:?} vs {mcsd_model:?}"
        );
    }

    #[test]
    fn mcsd_data_side_never_swaps() {
        let runner = PairRunner::new(small_cluster());
        let w = workload(512 * 1024);
        let mcsd = runner.run(PairScenario::mcsd(None), &w).unwrap();
        assert_eq!(mcsd.data.stats.swapped_bytes, 0);
        let nopart = runner.run(PairScenario::duo_sd_no_partition(), &w).unwrap();
        assert!(nopart.data.stats.swapped_bytes > 0);
    }

    #[test]
    fn labels_are_descriptive() {
        assert_eq!(PairScenario::duo_sd_no_partition().label(), "duo-sd/par");
        assert!(PairScenario::mcsd(Some(100)).label().contains("part"));
        assert!(PairScenario::traditional_sd(1.0)
            .label()
            .starts_with("trad-sd"));
        assert!(PairScenario::host_only(ExecMode::Parallel)
            .label()
            .starts_with("host-only"));
    }

    fn mk(ms: u64) -> RunReport {
        RunReport {
            job: "j".into(),
            node: "n".into(),
            mode: "m".into(),
            input_bytes: 0,
            time: TimeBreakdown::compute(Duration::from_millis(ms)),
            stats: Default::default(),
            resilience: Default::default(),
        }
    }

    #[test]
    fn elapsed_semantics() {
        let serial = PairReport {
            scenario: "s".into(),
            compute: mk(10),
            data: mk(20),
            coupling: TimeBreakdown::network(Duration::from_millis(5)),
            serialized: true,
        };
        assert_eq!(serial.elapsed(), Duration::from_millis(35));
        let conc = PairReport {
            serialized: false,
            ..serial
        };
        assert_eq!(conc.elapsed(), Duration::from_millis(25));
    }

    #[test]
    fn concurrent_elapsed_tie_charges_one_side() {
        // Compute side exactly equals data + coupling: the concurrent
        // elapsed time is that common value, never the sum.
        let tie = PairReport {
            scenario: "s".into(),
            compute: mk(20),
            data: mk(15),
            coupling: TimeBreakdown::network(Duration::from_millis(5)),
            serialized: false,
        };
        assert_eq!(tie.elapsed(), Duration::from_millis(20));
        // And a report's speedup over itself is exactly 1.
        assert_eq!(tie.speedup_over(&tie), 1.0);
    }

    #[test]
    fn speedup_over_a_zero_elapsed_report_stays_finite() {
        // A degenerate baseline (all-zero timings) must not divide by
        // zero: the guard clamps the denominator, so the ratio is finite
        // in both directions.
        let zero = PairReport {
            scenario: "z".into(),
            compute: mk(0),
            data: mk(0),
            coupling: TimeBreakdown::default(),
            serialized: false,
        };
        assert_eq!(zero.elapsed(), Duration::ZERO);
        let real = PairReport {
            scenario: "r".into(),
            compute: mk(10),
            data: mk(5),
            coupling: TimeBreakdown::default(),
            serialized: true,
        };
        let blown_up = real.speedup_over(&zero);
        assert!(blown_up.is_finite() && blown_up > 0.0, "{blown_up}");
        assert_eq!(zero.speedup_over(&real), 0.0);
        assert!(zero.speedup_over(&zero).is_finite());
    }

    #[test]
    fn concurrent_pair_is_bounded_by_slower_side() {
        let runner = PairRunner::new(small_cluster());
        let w = workload(200_000);
        let r = runner.run(PairScenario::mcsd(None), &w).unwrap();
        let elapsed = r.elapsed();
        assert!(elapsed >= r.compute.elapsed());
        assert!(elapsed >= r.data.elapsed());
        assert!(elapsed <= r.compute.elapsed() + r.data.elapsed() + r.coupling.total());
    }

    #[test]
    fn matmul_output_is_still_correct_through_scenarios() {
        // The scenario machinery must not corrupt results: re-run the MM
        // side directly and compare.
        let runner = PairRunner::new(small_cluster());
        let (a, b) = datagen::matrix_pair(16, 16, 16, 5);
        let job = MatMul::new(Arc::new(a.clone()), &b);
        let host = runner.host_runner();
        let out = host.run_parallel(&job, &job.row_input()).unwrap();
        let c = job.assemble(&out.pairs);
        let expect = mcsd_apps::seq::matmul(&a, &b);
        assert!(c.max_abs_diff(&expect) < 1e-9);
        let _ = Matrix::zeros(1, 1);
    }
}
