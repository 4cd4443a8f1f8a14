//! The four workloads. Each is a closed loop with one client: the next op
//! is issued when the previous one has completed and been checked. A
//! workload is built (inputs generated from the seed, daemon or framework
//! started, warm-up run) by `start`, measured by `Workload::measure`, and
//! torn down by drop. Every op's output is checked; a wrong, failed,
//! refused or timed-out op counts as failed and contributes no latency.

use crate::spans::Recorder;
use crate::stats::ms;
use mcsd_apps::{seq, TextGen};
use mcsd_cluster::{paper_testbed, Cluster, Scale};
use mcsd_core::des::{self, DesConfig, RackRun};
use mcsd_core::{McsdError, McsdFramework, OffloadPolicy};
use mcsd_obs::Tracer;
use mcsd_smartfam::module::FnModule;
use mcsd_smartfam::{
    BatchConfig, BatchStats, Daemon, DaemonConfig, DaemonHandle, HostClient, InvokeOutcome,
    ModuleRegistry, SmartFamError, WindowConfig,
};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workload names, in the order a full run interleaves their segments.
pub const WORKLOADS: [&str; 4] = [
    "call_lockstep",
    "call_window16",
    "job_wc_offload",
    "rack_des",
];

/// Ops per segment. Sized on the 2-vCPU box so that seven segments
/// measure for about `run_seconds` per workload; fixed so that every
/// sample sees log files of the same length (the transport re-reads the
/// whole log on every poll, so run length changes the answer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub warmup: usize,
    pub ops: usize,
}

pub const WINDOW_DEPTH: usize = 16;
/// `call_window16` issues its calls in this many outside-timed chunks.
pub const WINDOW_CHUNKS: usize = 16;
pub const CORPUS_BYTES: usize = 4 << 20;
pub const WC_PARTITION: &str = "1M";
/// Simulated jobs per `rack_des` run. A 100 000-job run (the size the
/// layer probes time) has a working set beyond the private caches and ran
/// 30–47 % slower whenever a neighbour of the 2-vCPU box thrashed the shared
/// cache, for minutes at a time; a 10 000-job run moved 6–8 % in the same
/// weather, so the workload repeats and the large run is a layer metric.
pub const DES_JOBS: u64 = 10_000;
/// One arrival per 15 virtual ms (1500 virtual seconds for 100 000 jobs):
/// the default one-second spread sheds most jobs at the default queue depth.
pub const DES_ARRIVAL_US_PER_JOB: u64 = 15_000;
const CALL_TIMEOUT: Duration = Duration::from_secs(10);

pub fn counts(workload: &str, quick: bool) -> Option<Counts> {
    let (warmup, ops) = match workload {
        "call_lockstep" => (200, 1600),
        "call_window16" => (1000, 16_000),
        "job_wc_offload" => (3, 32),
        "rack_des" => (10, 400),
        _ => return None,
    };
    Some(if quick {
        Counts {
            warmup: (warmup / 10).max(1),
            ops: (ops / 10).max(1),
        }
    } else {
        Counts { warmup, ops }
    })
}

/// SplitMix64 step: the one generator every derived seed and input comes
/// from, so equal `--seed` means equal inputs.
pub fn mix(seed: u64, n: u64) -> u64 {
    let mut z = seed.wrapping_add(n.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 64-bit FNV-1a: names to seeds, and the harness's fixed speed kernel.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// Seed of one segment: differs per workload and per segment index.
pub fn segment_seed(seed: u64, workload: &str, index: u64) -> u64 {
    mix(mix(seed, fnv1a(workload.as_bytes())), index)
}

/// Parameters of the `i`-th echo call of a segment.
pub fn echo_params(seed: u64, i: usize) -> Vec<String> {
    vec![
        format!("c{i}"),
        format!("{:08x}", mix(seed, i as u64) as u32),
    ]
}

pub fn corpus(seed: u64) -> Vec<u8> {
    TextGen::with_seed(seed).generate(CORPUS_BYTES)
}

/// The paper's testbed with every node given this machine's cores and
/// 256 MiB, so Phoenix runs `nproc` workers and nothing swaps.
pub fn wc_cluster() -> Cluster {
    let mut cluster = paper_testbed(Scale::default_experiment());
    for node in &mut cluster.nodes {
        node.cores = crate::procfs::nproc();
        node.memory_bytes = 256 << 20;
    }
    cluster
}

pub fn des_config(seed: u64, i: usize, jobs: u64) -> DesConfig {
    DesConfig {
        arrival_spread_us: DES_ARRIVAL_US_PER_JOB * jobs,
        ..DesConfig::default_experiment(jobs, mix(seed, i as u64))
    }
}

pub fn echo_registry() -> ModuleRegistry {
    let registry = ModuleRegistry::new();
    registry.register(Arc::new(FnModule::new("echo", |p: &[String]| {
        Ok(p.join("|").into_bytes())
    })));
    registry
}

/// What one segment's measured phase produced.
#[derive(Debug, Default)]
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    /// Per-op latency of the ops that succeeded, in ms.
    pub lat_ms: Vec<f64>,
    /// Per-op time in measurement order, for `late_over_early`.
    pub series_ms: Vec<f64>,
    /// Numbers the layer report takes from this workload's own counters.
    pub extras: Vec<(&'static str, f64)>,
}

impl Measured {
    fn op(&mut self, ok: bool, ms: f64) {
        self.attempted += 1;
        if ok {
            self.lat_ms.push(ms);
        } else {
            self.failed += 1;
        }
    }
}

pub trait Workload {
    fn measure(&mut self, rec: &mut Recorder) -> Measured;
}

/// The call succeeded and echoed its params; a failure is named on stderr.
fn echo_ok(outcome: &Result<InvokeOutcome, SmartFamError>, params: &[String]) -> bool {
    match outcome {
        Ok(o) if o.payload == params.join("|").as_bytes() => true,
        Ok(o) => {
            let got = String::from_utf8_lossy(&o.payload);
            eprintln!("failed op: echo of {params:?} returned {got:?}");
            false
        }
        Err(e) => {
            eprintln!("failed op: echo of {params:?}: {e}");
            false
        }
    }
}

/// Set up `workload` for one segment: logs and data live under `dir`.
pub fn start(
    workload: &str,
    seed: u64,
    counts: Counts,
    dir: &Path,
) -> Result<Box<dyn Workload>, String> {
    Ok(match workload {
        "call_lockstep" => Box::new(Lockstep::start(seed, counts, dir)?),
        "call_window16" => Box::new(Window::start(seed, counts, dir)?),
        "job_wc_offload" => Box::new(WcOffload::start(seed, counts)?),
        "rack_des" => Box::new(RackDes::start(seed, counts)?),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// `call_lockstep`: one echo call in flight against an unbatched daemon.
struct Lockstep {
    client: HostClient,
    daemon: DaemonHandle,
    seed: u64,
    counts: Counts,
}

impl Lockstep {
    fn start(seed: u64, counts: Counts, dir: &Path) -> Result<Lockstep, String> {
        let logs = dir.join("logs");
        let daemon = Daemon::new(DaemonConfig::new(&logs), echo_registry())
            .spawn()
            .map_err(|e| format!("daemon spawn: {e}"))?;
        let client = HostClient::new(&logs);
        for i in 0..counts.warmup {
            let params = echo_params(seed, i);
            if !echo_ok(&client.invoke("echo", &params, CALL_TIMEOUT), &params) {
                return Err(format!("warm-up call {i} failed"));
            }
        }
        Ok(Lockstep {
            client,
            daemon,
            seed,
            counts,
        })
    }
}

impl Workload for Lockstep {
    fn measure(&mut self, rec: &mut Recorder) -> Measured {
        let mut m = Measured::default();
        for i in 0..self.counts.ops {
            let params = echo_params(self.seed, self.counts.warmup + i);
            let started = Instant::now();
            let outcome = rec.span("op", i as u64, |rec| {
                rec.span("smartfam.host.invoke", i as u64, |_| {
                    self.client.invoke("echo", &params, CALL_TIMEOUT)
                })
            });
            let took = ms(started.elapsed());
            m.series_ms.push(took);
            m.op(echo_ok(&outcome, &params), took);
        }
        let stats = self.daemon.stats();
        let per_1k = |n: u64| n as f64 * 1000.0 / stats.requests.max(1) as f64;
        m.extras = vec![
            ("smartfam.daemon.shed_per_1k", per_1k(stats.shed)),
            ("smartfam.daemon.expired_per_1k", per_1k(stats.expired)),
            (
                "smartfam.daemon.quarantined_per_1k",
                per_1k(stats.quarantined),
            ),
            (
                "smartfam.daemon.corrupt_skipped_bytes_per_1k",
                per_1k(stats.corrupt_skipped_bytes),
            ),
        ];
        m
    }
}

/// `call_window16`: sixteen echo calls in flight against a batched daemon.
struct Window {
    client: HostClient,
    daemon: DaemonHandle,
    seed: u64,
    counts: Counts,
}

impl Window {
    fn start(seed: u64, counts: Counts, dir: &Path) -> Result<Window, String> {
        let logs = dir.join("logs");
        let batch = BatchConfig {
            seed,
            ..BatchConfig::default()
        };
        let daemon = Daemon::new(
            DaemonConfig::new(&logs).with_batching(batch),
            echo_registry(),
        )
        .spawn()
        .map_err(|e| format!("daemon spawn: {e}"))?;
        let client = HostClient::new(&logs);
        let w = Window {
            client,
            daemon,
            seed,
            counts,
        };
        if w.chunk(0, counts.warmup).ops.iter().any(|(ok, _)| !ok) {
            return Err("warm-up window failed".into());
        }
        Ok(w)
    }

    /// Calls `first..first + len` through one `invoke_window`. The stack
    /// loses about one windowed call in three million (the cursor a call
    /// attaches at the end of the log can land inside a batch the daemon
    /// is still appending, and the call then never sees its response), so a
    /// call that times out is resubmitted once, in lockstep, and counted:
    /// the op succeeds with the whole wait as its latency.
    fn chunk(&self, first: usize, len: usize) -> Chunk {
        let calls: Vec<Vec<String>> = (first..first + len)
            .map(|i| echo_params(self.seed, i))
            .collect();
        let cfg = WindowConfig::with_depth(WINDOW_DEPTH);
        let run = self.client.invoke_window("echo", &calls, &cfg);
        let mut resubmits = 0;
        let ops = run
            .outcomes
            .iter()
            .zip(&calls)
            .map(|(outcome, params)| match outcome {
                Err(SmartFamError::Timeout { .. }) => {
                    eprintln!("call_window16: echo of {params:?} timed out; resubmitting");
                    resubmits += 1;
                    let again = self.client.invoke("echo", params, CALL_TIMEOUT);
                    let waited = again
                        .as_ref()
                        .map_or(0.0, |o| ms(cfg.call_timeout + o.elapsed));
                    (echo_ok(&again, params), waited)
                }
                _ => (
                    echo_ok(outcome, params),
                    outcome.as_ref().map_or(0.0, |o| ms(o.elapsed)),
                ),
            })
            .collect();
        Chunk {
            ops,
            stats: run.stats,
            resubmits,
        }
    }
}

/// What one `invoke_window` call produced: (succeeded, latency in ms) per
/// call, the window's counters, and how many calls were resubmitted.
struct Chunk {
    ops: Vec<(bool, f64)>,
    stats: BatchStats,
    resubmits: u64,
}

impl Workload for Window {
    fn measure(&mut self, rec: &mut Recorder) -> Measured {
        let mut m = Measured::default();
        let before = self.daemon.batch_stats();
        let mut window = BatchStats::default();
        let mut resubmits = 0;
        let chunk_len = self.counts.ops / WINDOW_CHUNKS;
        let started = Instant::now();
        for c in 0..WINDOW_CHUNKS {
            let first = self.counts.warmup + c * chunk_len;
            let chunk_started = Instant::now();
            let chunk = rec.span("smartfam.host.invoke_window", c as u64, |_| {
                self.chunk(first, chunk_len)
            });
            m.series_ms
                .push(ms(chunk_started.elapsed()) / chunk_len as f64);
            window.absorb(&chunk.stats);
            resubmits += chunk.resubmits;
            for (ok, took) in chunk.ops {
                m.op(ok, took);
            }
            let committed = self.daemon.batch_stats();
            rec.count("smartfam.batch.batches", c as u64, committed.batches as f64);
            rec.count("smartfam.batch.fsyncs", c as u64, committed.fsyncs as f64);
        }
        let wall_s = started.elapsed().as_secs_f64();
        let after = self.daemon.batch_stats();
        let batches = (after.batches - before.batches).max(1) as f64;
        let coalesced = (after.coalesced_appends - before.coalesced_appends).max(1) as f64;
        let calls = m.attempted.max(1) as f64;
        let occupancy = window.window_occupancy as f64 / calls;
        let mean_latency_s = m.lat_ms.iter().sum::<f64>() / m.lat_ms.len().max(1) as f64 / 1e3;
        m.extras = vec![
            (
                "smartfam.host.window_resubmits_per_1m",
                resubmits as f64 * 1e6 / calls,
            ),
            (
                "smartfam.batch.fsyncs_per_1k",
                (after.fsyncs - before.fsyncs) as f64 * 1000.0 / coalesced,
            ),
            ("smartfam.batch.mean_batch_size", coalesced / batches),
            ("smartfam.batch.mean_window_occupancy", occupancy),
            (
                "smartfam.batch.reordered_per_1k",
                window.reordered_completions as f64 * 1000.0 / calls,
            ),
            // Little's law: mean calls in flight = rate x mean latency.
            // Occupancy is sampled at submit, so ~1 is a consistent clock.
            (
                "harness.littles_law_ratio",
                occupancy / (calls / wall_s * mean_latency_s),
            ),
        ];
        m
    }
}

type WordcountResult = Result<(Vec<(String, u64)>, mcsd_cluster::TimeBreakdown), McsdError>;

/// `job_wc_offload`: Word Count offloaded through smartFAM to the SD
/// node's Phoenix runtime, four 1 MiB fragments of a 4 MiB corpus.
struct WcOffload {
    fw: McsdFramework,
    reference: Vec<(String, u64)>,
    counts: Counts,
}

impl WcOffload {
    fn start(seed: u64, counts: Counts) -> Result<WcOffload, String> {
        let fw = McsdFramework::start(wc_cluster(), OffloadPolicy::DataIntensiveToSd)
            .map_err(|e| format!("framework start: {e}"))?;
        let data = corpus(seed);
        fw.stage_data_local("corpus.txt", &data)
            .map_err(|e| format!("stage: {e}"))?;
        let w = WcOffload {
            fw,
            reference: seq::wordcount(&data),
            counts,
        };
        for i in 0..counts.warmup {
            if !w.check(w.job()) {
                return Err(format!("warm-up job {i} failed"));
            }
        }
        Ok(w)
    }

    fn job(&self) -> WordcountResult {
        self.fw.wordcount("corpus.txt", Some(WC_PARTITION))
    }

    /// The job ran on the SD node (the framework never degraded to the
    /// host) and its result equals the sequential reference.
    fn check(&self, result: WordcountResult) -> bool {
        let degraded = self.fw.degradations();
        match result {
            Ok((pairs, _)) if pairs == self.reference && degraded.is_empty() => true,
            Ok((pairs, _)) => {
                let same = pairs == self.reference;
                eprintln!(
                    "failed op: word count matches reference: {same}; degraded: {degraded:?}"
                );
                false
            }
            Err(e) => {
                eprintln!("failed op: word count: {e}");
                false
            }
        }
    }
}

impl Workload for WcOffload {
    fn measure(&mut self, rec: &mut Recorder) -> Measured {
        let mut m = Measured::default();
        for i in 0..self.counts.ops {
            let started = Instant::now();
            let result = rec.span("op", i as u64, |rec| {
                rec.span("mcsd-core.framework.wordcount", i as u64, |_| self.job())
            });
            let took = ms(started.elapsed());
            m.series_ms.push(took);
            let ok = rec.span("harness.check", i as u64, |_| self.check(result));
            m.op(ok, took);
        }
        m
    }
}

/// `rack_des`: the rack-scale discrete-event scheduler, one run per op.
struct RackDes {
    seed: u64,
    counts: Counts,
    /// The first measured run's config, already run once in set-up: the
    /// measured run must reproduce it exactly.
    first: RackRun,
}

impl RackDes {
    fn start(seed: u64, counts: Counts) -> Result<RackDes, String> {
        let first = des::run(&des_config(seed, 0, DES_JOBS), &Tracer::disabled());
        for i in 1..counts.warmup {
            // Warm-up seeds are outside the measured range.
            let cfg = des_config(seed, usize::MAX - i, DES_JOBS);
            if !des_ok(&des::run(&cfg, &Tracer::disabled())) {
                return Err(format!("warm-up run {i} failed its checks"));
            }
        }
        Ok(RackDes {
            seed,
            counts,
            first,
        })
    }
}

/// Every arrival completed or was shed, and fewer than 5 % were shed.
fn des_ok(run: &RackRun) -> bool {
    let stats = &run.report.stats;
    stats.is_conserved() && stats.arrivals == DES_JOBS && stats.shed_jobs * 20 < stats.arrivals
}

impl Workload for RackDes {
    fn measure(&mut self, rec: &mut Recorder) -> Measured {
        let mut m = Measured::default();
        for i in 0..self.counts.ops {
            let cfg = des_config(self.seed, i, DES_JOBS);
            let started = Instant::now();
            let run = rec.span("op", i as u64, |rec| {
                rec.span("mcsd-core.des.run", i as u64, |_| {
                    des::run(&cfg, &Tracer::disabled())
                })
            });
            let took = ms(started.elapsed());
            m.series_ms.push(took);
            rec.count(
                "mcsd-core.des.shed_jobs",
                i as u64,
                run.report.stats.shed_jobs as f64,
            );
            m.op(des_ok(&run) && (i > 0 || run == self.first), took);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_inputs_and_other_seeds_differ() {
        assert_eq!(echo_params(42, 7), echo_params(42, 7));
        assert_ne!(echo_params(42, 7), echo_params(43, 7));
        assert_ne!(echo_params(42, 7), echo_params(42, 8));
        assert_eq!(echo_params(42, 7)[0], "c7");

        assert_eq!(
            segment_seed(42, "rack_des", 3),
            segment_seed(42, "rack_des", 3)
        );
        assert_ne!(
            segment_seed(42, "rack_des", 3),
            segment_seed(42, "rack_des", 4)
        );
        assert_ne!(
            segment_seed(42, "rack_des", 3),
            segment_seed(42, "call_lockstep", 3)
        );
        assert_ne!(
            segment_seed(42, "rack_des", 3),
            segment_seed(7, "rack_des", 3)
        );

        assert_eq!(des_config(9, 2, 100), des_config(9, 2, 100));
        assert_ne!(des_config(9, 2, 100).seed, des_config(9, 3, 100).seed);
        assert_eq!(des_config(9, 2, 100).arrival_spread_us, 1_500_000);

        let (a, b) = (
            TextGen::with_seed(5).generate(4096),
            TextGen::with_seed(5).generate(4096),
        );
        assert_eq!(a, b);
        assert_ne!(a, TextGen::with_seed(6).generate(4096));
    }

    #[test]
    fn counts_exist_for_every_workload_and_quick_is_a_tenth() {
        for w in WORKLOADS {
            let (full, quick) = (counts(w, false).unwrap(), counts(w, true).unwrap());
            assert!(quick.ops <= full.ops && quick.ops >= 1, "{w}");
            assert!(quick.warmup >= 1);
        }
        assert_eq!(
            counts("call_window16", false).unwrap().ops % WINDOW_CHUNKS,
            0
        );
        assert_eq!(
            counts("call_window16", true).unwrap().ops % WINDOW_CHUNKS,
            0
        );
        assert_eq!(counts("nope", false), None);
    }

    #[test]
    fn echo_check_compares_the_payload_with_the_joined_params() {
        let params = echo_params(1, 2);
        let outcome = |payload: Vec<u8>| {
            Ok(InvokeOutcome {
                payload,
                request_bytes: 0,
                response_bytes: 0,
                elapsed: Duration::ZERO,
                resilience: Default::default(),
            })
        };
        assert!(echo_ok(&outcome(params.join("|").into_bytes()), &params));
        assert!(!echo_ok(&outcome(b"c2".to_vec()), &params));
        let timeout = Err(SmartFamError::Timeout {
            module: "echo".into(),
            request_id: 1,
        });
        assert!(!echo_ok(&timeout, &params));
    }
}
