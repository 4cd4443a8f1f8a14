//! Run one MapReduce job "on a node".
//!
//! The [`NodeRunner`] is where real computation meets the testbed model:
//! the job genuinely executes on a Phoenix worker pool capped at the node's
//! core count; the measured wall time is scaled by the node's per-core
//! speed; and the memory model's swap verdict is converted into a disk-time
//! penalty. The result carries both the job output and a
//! [`TimeBreakdown`] the scenarios compose.

use crate::error::McsdError;
use crate::report::RunReport;
use mcsd_cluster::{DiskModel, NodeExecutor, NodeSpec, TimeBreakdown};
use mcsd_obs::Tracer;
use mcsd_phoenix::partition::{ConcatMerger, Merger};
use mcsd_phoenix::Stopwatch;
use mcsd_phoenix::{
    Job, MemoryVerdict, PartitionSpec, PartitionedRuntime, PhoenixConfig, PhoenixError, Runtime,
};

/// How a job is executed on the node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExecMode {
    /// The paper's sequential baseline: one worker, streaming footprint.
    /// `footprint_factor` describes the sequential implementation's
    /// working set (smaller than the MapReduce footprint because
    /// intermediate pairs are not buffered).
    Sequential {
        /// Working-set-to-input ratio of the sequential implementation.
        footprint_factor: f64,
    },
    /// Parallel MapReduce on all node cores, no partitioning (stock
    /// Phoenix).
    Parallel,
    /// Parallel MapReduce with the McSD Partition/Merge extension.
    /// `fragment_bytes: None` asks the runtime to size fragments from the
    /// node's memory model automatically.
    Partitioned {
        /// Fragment size in bytes; `None` = automatic.
        fragment_bytes: Option<usize>,
    },
}

impl ExecMode {
    /// Short label for reports.
    pub fn label(&self) -> String {
        match self {
            ExecMode::Sequential { .. } => "seq".into(),
            ExecMode::Parallel => "par".into(),
            ExecMode::Partitioned { fragment_bytes } => match fragment_bytes {
                Some(b) => format!("par+part({b})"),
                None => "par+part(auto)".into(),
            },
        }
    }
}

/// Result of a node run: the job output pairs plus the report.
#[derive(Debug, Clone)]
pub struct NodeRunReport<K, V> {
    /// Final output pairs.
    pub pairs: Vec<(K, V)>,
    /// The run report (time breakdown + stats).
    pub report: RunReport,
}

impl<K, V> NodeRunReport<K, V> {
    /// Virtual elapsed time.
    pub fn elapsed(&self) -> std::time::Duration {
        self.report.elapsed()
    }
}

/// Executes jobs on one modelled node.
#[derive(Debug, Clone)]
pub struct NodeRunner {
    exec: NodeExecutor,
    disk: DiskModel,
    tracer: Tracer,
}

impl NodeRunner {
    /// A runner for `node` with the cluster's disk model.
    pub fn new(node: NodeSpec, disk: DiskModel) -> NodeRunner {
        NodeRunner {
            exec: NodeExecutor::new(node),
            disk,
            tracer: Tracer::disabled(),
        }
    }

    /// Attach a tracer; every Phoenix runtime this runner builds records
    /// its span tree on the shared `phoenix` work track.
    pub fn with_tracer(mut self, tracer: Tracer) -> NodeRunner {
        self.tracer = tracer;
        self
    }

    /// The node this runner models.
    pub fn node(&self) -> &NodeSpec {
        self.exec.spec()
    }

    /// Run in [`ExecMode::Parallel`] (stock Phoenix on all cores).
    pub fn run_parallel<J: Job>(
        &self,
        job: &J,
        input: &[u8],
    ) -> Result<NodeRunReport<J::Key, J::Value>, McsdError> {
        self.run_mode(job, &ConcatMerger, input, ExecMode::Parallel)
    }

    /// Run in the given [`ExecMode`]; only `Partitioned` calls `merger`.
    pub fn run_mode<J, M>(
        &self,
        job: &J,
        merger: &M,
        input: &[u8],
        mode: ExecMode,
    ) -> Result<NodeRunReport<J::Key, J::Value>, McsdError>
    where
        J: Job,
        M: Merger<J>,
    {
        self.run_mode_at(job, merger, input, mode, 0)
    }

    /// [`NodeRunner::run_mode`] over a span starting at `base_offset` of a
    /// larger dataset — map tasks observe fully global offsets, so
    /// offset-keyed jobs behave identically under multi-SD scale-out.
    pub fn run_mode_at<J, M>(
        &self,
        job: &J,
        merger: &M,
        input: &[u8],
        mode: ExecMode,
        base_offset: usize,
    ) -> Result<NodeRunReport<J::Key, J::Value>, McsdError>
    where
        J: Job,
        M: Merger<J>,
    {
        let memory = self.node().memory_model();
        match mode {
            ExecMode::Sequential { footprint_factor } => {
                // The memory verdict is the sequential footprint's, not the
                // job's MapReduce one, so Phoenix runs without a model.
                let input_bytes = input.len() as u64;
                let swapped = match memory.verdict(input_bytes, footprint_factor) {
                    MemoryVerdict::Overflow { limit_bytes } => {
                        return Err(PhoenixError::MemoryOverflow {
                            input_bytes,
                            limit_bytes,
                        }
                        .into())
                    }
                    verdict => verdict.swapped_bytes(),
                };
                let cfg = PhoenixConfig::with_workers(1);
                self.measured_run(cfg, 1, input_bytes, mode.label(), |runtime| {
                    let mut out = runtime.run_at(job, input, base_offset)?;
                    out.stats.swapped_bytes = swapped;
                    Ok(out)
                })
            }
            ExecMode::Parallel => self.measured_run(
                self.exec.phoenix_config(),
                self.node().cores,
                input.len() as u64,
                mode.label(),
                |runtime| runtime.run_at(job, input, base_offset),
            ),
            ExecMode::Partitioned { fragment_bytes } => {
                let spec = match fragment_bytes {
                    Some(b) => PartitionSpec::new(b),
                    None => PartitionSpec::auto(&memory, job.footprint_factor()),
                };
                let label = ExecMode::Partitioned {
                    fragment_bytes: Some(spec.fragment_bytes),
                }
                .label();
                self.measured_run(
                    self.exec.phoenix_config(),
                    self.node().cores,
                    input.len() as u64,
                    label,
                    |runtime| {
                        PartitionedRuntime::new(runtime, spec).run_at(
                            job,
                            input,
                            base_offset,
                            merger,
                        )
                    },
                )
            }
        }
    }

    /// The shared execution core of every mode: build a traced runtime
    /// from `cfg`, measure `run` on it, and convert the finished Phoenix
    /// run into a node report — the measured wall time scaled to the
    /// emulated node's cores/speed, plus the swap penalty. (Input
    /// staging/transfer costs are charged by the scenario layer; the
    /// paper's per-run elapsed times are warm-cache.)
    fn measured_run<K, V>(
        &self,
        cfg: PhoenixConfig,
        emulated_workers: usize,
        input_bytes: u64,
        mode: String,
        run: impl FnOnce(Runtime) -> Result<mcsd_phoenix::JobOutput<K, V>, mcsd_phoenix::PhoenixError>,
    ) -> Result<NodeRunReport<K, V>, McsdError> {
        let runtime = Runtime::new(cfg).with_tracer(self.tracer.clone());
        let t0 = Stopwatch::start();
        let mcsd_phoenix::JobOutput { pairs, stats } = run(runtime)?;
        let wall = t0.elapsed();
        let mut time = TimeBreakdown::compute(self.exec.virtual_compute(wall, emulated_workers));
        time += self.disk.charge_thrash(stats.swapped_bytes);
        let report = RunReport {
            job: stats.job.clone(),
            node: self.node().name.to_string(),
            mode,
            input_bytes,
            time,
            stats,
            resilience: Default::default(),
        };
        Ok(NodeRunReport { pairs, report })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsd_apps::{TextGen, WordCount};
    use mcsd_cluster::{NodeId, Scale};

    /// Partitioned with the fragment size left to the runtime.
    const AUTO_PARTITIONED: ExecMode = ExecMode::Partitioned {
        fragment_bytes: None,
    };

    fn sd_runner(memory: u64) -> NodeRunner {
        let mut node = NodeSpec::paper_sd(NodeId(1), memory);
        node.core_speed = 0.75;
        NodeRunner::new(node, DiskModel::paper_sata())
    }

    fn host_runner(memory: u64) -> NodeRunner {
        NodeRunner::new(
            NodeSpec::paper_host(NodeId(0), memory),
            DiskModel::paper_sata(),
        )
    }

    #[test]
    fn parallel_run_produces_correct_counts() {
        let text = TextGen::with_seed(1).generate(20_000);
        let runner = sd_runner(64 << 20);
        let out = runner.run_parallel(&WordCount, &text).unwrap();
        let reference = mcsd_apps::seq::wordcount(&text);
        assert_eq!(out.pairs, reference);
        assert!(out.report.time.compute > std::time::Duration::ZERO);
        assert_eq!(out.report.node, "sd");
        assert_eq!(out.report.mode, "par");
    }

    #[test]
    fn sequential_uses_one_worker() {
        let text = TextGen::with_seed(2).generate(5_000);
        let runner = host_runner(64 << 20);
        let mode = ExecMode::Sequential {
            footprint_factor: 1.2,
        };
        let out = runner
            .run_mode(&WordCount, &WordCount::merger(), &text, mode)
            .unwrap();
        assert_eq!(out.report.stats.workers, 1);
        assert_eq!(out.report.mode, "seq");
    }

    #[test]
    fn sequential_runs_under_its_own_footprint() {
        // A 1 000-byte node: a 750-byte hard limit, 900 bytes available.
        let runner = sd_runner(1_000);
        let seq = |bytes, footprint_factor| {
            let mode = ExecMode::Sequential { footprint_factor };
            runner.run_mode(&WordCount, &WordCount::merger(), &vec![b'x'; bytes], mode)
        };
        assert_eq!(seq(400, 3.0).unwrap().report.stats.swapped_bytes, 300);
        assert_eq!(seq(400, 1.2).unwrap().report.stats.swapped_bytes, 0);
        assert!(seq(800, 1.2).unwrap_err().is_memory_overflow());
    }

    #[test]
    fn overflow_fails_parallel_but_not_partitioned() {
        let scale = Scale { divisor: 2048 };
        let memory = scale.bytes(2 << 30); // "2 GB" -> 1 MiB
        let input = TextGen::with_seed(3).generate(memory as usize); // 1x memory > 0.75 limit
        let runner = sd_runner(memory);
        let err = runner.run_parallel(&WordCount, &input).unwrap_err();
        assert!(err.is_memory_overflow());
        let ok = runner
            .run_mode(&WordCount, &WordCount::merger(), &input, AUTO_PARTITIONED)
            .unwrap();
        assert_eq!(ok.report.stats.swapped_bytes, 0);
        assert!(ok.report.stats.fragments > 1);
        assert_eq!(ok.pairs, mcsd_apps::seq::wordcount(&input));
    }

    #[test]
    fn thrash_charges_disk_time() {
        // Input below the hard limit but with a 3x footprint above
        // available memory.
        let memory: u64 = 200_000;
        let input = TextGen::with_seed(4).generate(140_000); // 140k*3=420k > 180k avail
        let runner = sd_runner(memory);
        let out = runner.run_parallel(&WordCount, &input).unwrap();
        assert!(out.report.stats.swapped_bytes > 0);
        // Disk time must dominate: thrash penalty plus input read.
        let seq_read = DiskModel::paper_sata().sequential_time(input.len() as u64);
        assert!(out.report.time.disk > seq_read * 2);
    }

    #[test]
    fn partitioned_avoids_the_thrash_charge() {
        let memory: u64 = 200_000;
        let input = TextGen::with_seed(4).generate(140_000);
        let runner = sd_runner(memory);
        let plain = runner.run_parallel(&WordCount, &input).unwrap();
        let part = runner
            .run_mode(&WordCount, &WordCount::merger(), &input, AUTO_PARTITIONED)
            .unwrap();
        assert_eq!(plain.pairs, part.pairs);
        assert!(part.report.time.disk < plain.report.time.disk);
    }

    #[test]
    fn mode_labels() {
        assert_eq!(
            ExecMode::Sequential {
                footprint_factor: 1.0
            }
            .label(),
            "seq"
        );
        assert_eq!(ExecMode::Parallel.label(), "par");
        assert_eq!(
            ExecMode::Partitioned {
                fragment_bytes: Some(600)
            }
            .label(),
            "par+part(600)"
        );
        assert_eq!(
            ExecMode::Partitioned {
                fragment_bytes: None
            }
            .label(),
            "par+part(auto)"
        );
    }
}
