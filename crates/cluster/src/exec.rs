//! Capped-core execution with virtual-time accounting.
//!
//! A [`NodeExecutor`] runs *real* computation while emulating a specific
//! node of the paper's testbed: the Phoenix worker count is capped at the
//! node's core count, and the measured wall-clock time is divided by the
//! node's per-core speed factor (an E4400 core retires the same work in
//! 1/0.75 ≈ 1.33× the time of a Q9400 core).
//!
//! ## Parallelism model
//!
//! The machine running the experiments may have fewer physical cores than
//! the node being emulated (CI boxes are often single-core), in which case
//! a 2-thread Phoenix run shows no wall-clock speedup at all. The executor
//! therefore converts measured wall time into total *work*
//! (`wall × effective_parallelism(min(threads, machine_cores))`) and
//! divides by the emulated node's effective parallelism — the *same*
//! Amdahl curve on both sides, calibrated to the paper's observation that
//! the duo-core SD achieves "a 2X speedup, which proves the fully
//! utilization of duo-core processor" (§V-B). With as many physical cores
//! as emulated workers the two factors cancel and virtual time is the
//! measured wall over the core speed; the machine's core count is
//! injectable ([`NodeExecutor::with_machine_cores`]) so the model is
//! testable at any shape on any host.

use crate::clock::TimeBreakdown;
use crate::node::NodeSpec;
use mcsd_phoenix::PhoenixConfig;
use mcsd_phoenix::Stopwatch;
use std::time::Duration;

/// Serial fraction of the Amdahl model for MapReduce jobs on a multicore
/// node: split and final merge are brief serial sections.
pub const SERIAL_FRACTION: f64 = 0.03;

/// Effective parallel speedup of `workers` cores under the Amdahl model:
/// `n / (1 + s·(n−1))`. `effective_parallelism(2) ≈ 1.94`,
/// `effective_parallelism(4) ≈ 3.67`.
pub fn effective_parallelism(workers: usize) -> f64 {
    let n = workers.max(1) as f64;
    n / (1.0 + SERIAL_FRACTION * (n - 1.0))
}

/// Physical cores of the machine running the experiments: the worker
/// count a default [`PhoenixConfig`] reads, so the machine's shape is read
/// in one place.
pub fn machine_cores() -> usize {
    PhoenixConfig::default().workers
}

/// Executes work "on" a modelled node.
#[derive(Debug, Clone)]
pub struct NodeExecutor {
    spec: NodeSpec,
    machine_cores: usize,
}

impl NodeExecutor {
    /// An executor for the given node.
    pub fn new(spec: NodeSpec) -> Self {
        NodeExecutor {
            spec,
            machine_cores: machine_cores(),
        }
    }

    /// Model a machine with `cores` physical cores instead of the one the
    /// process runs on (builder style).
    pub fn with_machine_cores(mut self, cores: usize) -> Self {
        self.machine_cores = cores.max(1);
        self
    }

    /// The node this executor models.
    pub fn spec(&self) -> &NodeSpec {
        &self.spec
    }

    /// Scale a measured single-threaded wall-clock duration to this node's
    /// virtual time.
    pub fn scale_compute(&self, wall: Duration) -> Duration {
        self.virtual_compute(wall, 1)
    }

    /// Virtual compute time of a run measured at `wall` with
    /// `workers_used` threads: reconstruct the total work from the
    /// machine's real concurrency, then divide by the emulated node's
    /// speed and effective parallelism — both through the Amdahl curve
    /// (see the module docs).
    pub fn virtual_compute(&self, wall: Duration, workers_used: usize) -> Duration {
        debug_assert!(self.spec.core_speed > 0.0);
        let concurrency = workers_used.max(1).min(self.machine_cores);
        let work = wall.as_secs_f64() * effective_parallelism(concurrency);
        Duration::from_secs_f64(work / (effective_parallelism(workers_used) * self.spec.core_speed))
    }

    /// Run `f` and charge its wall time (speed-scaled) as compute.
    pub fn measure<T>(&self, f: impl FnOnce() -> T) -> (T, TimeBreakdown) {
        let (out, wall) = Stopwatch::time(f);
        (out, TimeBreakdown::compute(self.scale_compute(wall)))
    }

    /// The Phoenix configuration matching this node: worker count = core
    /// count (capped at the physical cores of the machine running the
    /// experiment, so measured wall time stays an undistorted measure of
    /// work — the emulated node's extra cores are modelled by
    /// [`NodeExecutor::virtual_compute`]), memory model = the node's
    /// memory.
    pub fn phoenix_config(&self) -> PhoenixConfig {
        let workers = self.spec.cores.min(self.machine_cores);
        PhoenixConfig::with_workers(workers).memory(self.spec.memory_model())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;

    fn sd() -> NodeExecutor {
        NodeExecutor::new(NodeSpec::paper_sd(NodeId(1), 8 << 20))
    }

    #[test]
    fn slower_core_inflates_time() {
        let e = sd();
        let wall = Duration::from_millis(300);
        let scaled = e.scale_compute(wall);
        assert!((scaled.as_secs_f64() - 0.4).abs() < 1e-9, "{scaled:?}");
    }

    #[test]
    fn host_speed_is_identity() {
        let e = NodeExecutor::new(NodeSpec::paper_host(NodeId(0), 8 << 20));
        let wall = Duration::from_millis(250);
        assert_eq!(e.scale_compute(wall), wall);
    }

    #[test]
    fn measure_returns_value_and_charges_compute() {
        let e = sd();
        let (v, t) = e.measure(|| {
            std::thread::sleep(Duration::from_millis(5));
            42
        });
        assert_eq!(v, 42);
        assert!(t.compute >= Duration::from_millis(5));
        assert_eq!(t.network, Duration::ZERO);
    }

    #[test]
    fn effective_parallelism_values() {
        assert!((effective_parallelism(1) - 1.0).abs() < 1e-9);
        let two = effective_parallelism(2);
        assert!(two > 1.9 && two < 2.0, "{two}");
        let four = effective_parallelism(4);
        assert!(four > 3.5 && four < 4.0, "{four}");
        assert!(effective_parallelism(0) >= 1.0);
    }

    #[test]
    fn virtual_compute_models_parallel_speedup() {
        // On any machine, the same measured wall with more emulated
        // workers must report at most the single-worker virtual time, and
        // on a single-core machine exactly work/effective_parallelism.
        let e = NodeExecutor::new(NodeSpec::paper_host(NodeId(0), 8 << 20));
        let wall = Duration::from_millis(100);
        let v1 = e.virtual_compute(wall, 1);
        let v4 = e.virtual_compute(wall, 4);
        assert!(v4 <= v1);
        let single = e.clone().with_machine_cores(1);
        let expect = wall.as_secs_f64() / effective_parallelism(4);
        assert!((single.virtual_compute(wall, 4).as_secs_f64() - expect).abs() < 1e-9);
    }

    #[test]
    fn virtual_time_is_the_measured_wall_when_the_machine_has_the_cores() {
        // Enough physical cores for every emulated worker: the wall time
        // already contains the speedup, so the Amdahl factors cancel.
        let wall = Duration::from_millis(80);
        for machine in [2, 4, 8, 64] {
            let e = NodeExecutor::new(NodeSpec::paper_host(NodeId(0), 8 << 20))
                .with_machine_cores(machine);
            for workers in 1..=machine.min(8) {
                let v = e.virtual_compute(wall, workers);
                assert!((v.as_secs_f64() - wall.as_secs_f64()).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn virtual_compute_slower_core_takes_longer() {
        let host = NodeExecutor::new(NodeSpec::paper_host(NodeId(0), 8 << 20));
        let sd = NodeExecutor::new(NodeSpec::paper_sd(NodeId(1), 8 << 20));
        let wall = Duration::from_millis(60);
        assert!(sd.virtual_compute(wall, 2) > host.virtual_compute(wall, 2));
    }

    #[test]
    fn phoenix_config_matches_node() {
        let e = sd();
        let cfg = e.phoenix_config();
        assert_eq!(cfg.workers, 2usize.min(machine_cores()));
        assert!(cfg.workers >= 1);
        assert_eq!(cfg.memory.unwrap().total_bytes, 8 << 20);
    }
}
