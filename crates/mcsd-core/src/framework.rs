//! The top-level McSD facade.
//!
//! [`McsdFramework`] is the API a cluster application programs against: it
//! owns the modelled cluster, boots the live SD node (NFS share + smartFAM
//! daemon + preloaded modules), and exposes typed offload calls whose
//! results come back with their virtual-time cost. Placement is decided by
//! the unified scheduler in [`crate::engine`] — the framework contributes
//! only the transport (the smartFAM host client) and one [`OffloadCall`]
//! spec per application; callers can also force either side via the
//! policy.
//!
//! The offload path is *self-healing*: every SD invocation is one
//! [`McsdClient::invoke`], retried and probed under [`RetryPolicy`], and
//! when the SD side stays broken the engine degrades gracefully — it
//! re-runs the job on the host ([`OffloadDecision::FallbackToHost`])
//! instead of surfacing a timeout, recording the degradation in
//! [`McsdFramework::degradations`] and counting it in
//! [`McsdFramework::resilience_stats`].

use crate::bridge::{McsdClient, SdNodeServer};
use crate::driver::NodeRunner;
use crate::engine::DEFAULT_MIN_FRAGMENT_BYTES;
use crate::engine::{Engine, EngineConfig, MemoryAdmission, OffloadCall};
use crate::error::McsdError;
use crate::modules::{StringMatchModule, WordCountModule};
use crate::offload::{JobProfile, OffloadDecision, OffloadPolicy, Offloader};
use crate::{BreakerConfig, BreakerState};
use mcsd_apps::{MatMul, Matrix, StringMatch, WordCount};
use mcsd_cluster::{Cluster, TimeBreakdown};
use mcsd_obs::names::{SPAN_CLUSTER_FETCH, SPAN_CLUSTER_STAGE};
use mcsd_obs::Tracer;
use mcsd_phoenix::Job;
use mcsd_smartfam::{FaultInjector, ResilienceStats, RetryPolicy};
use std::sync::Arc;
use std::time::Duration;

pub use crate::engine::{CLUSTER_TRACE_TRACK, MCSD_TRACE_TRACK};

/// Default per-call timeout for offloaded modules.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(60);

/// How the framework behaves when the SD path misbehaves.
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Retry/backoff/liveness policy of every offloaded call: the host
    /// client is built with it.
    pub retry: RetryPolicy,
    /// Fault schedule shared by the daemon and the host client
    /// (disabled by default; seeded schedules make failures replayable).
    pub injector: FaultInjector,
    /// Degrade to host execution when the SD path fails for good
    /// (`true` by default). When `false`, SD errors surface to the caller.
    pub fallback_to_host: bool,
    /// Per-call deadline for offloaded invocations; each attempt gets the
    /// remaining deadline divided by the attempts left.
    pub call_timeout: Duration,
    /// Circuit-breaker tuning for the SD node: consecutive SD-path
    /// failures trip it open and offloads are steered to the host until a
    /// half-open probe succeeds.
    pub breaker: BreakerConfig,
    /// Daemon admission: module invocations running concurrently before
    /// new requests queue.
    pub max_in_flight: usize,
    /// Daemon admission: requests waiting for a slot before the daemon
    /// sheds further arrivals with a typed `Overloaded` reply.
    pub max_queued: usize,
    /// Steer offloads to the host when the daemon heartbeat reports at
    /// least this many queued requests (load-aware steering).
    pub steer_queue_depth: u64,
    /// Floor for memory-budget admission: an over-footprint job is
    /// re-partitioned by halving down to this fragment size; if even the
    /// floor fragment exceeds the SD node's hard memory limit the job is
    /// refused with [`McsdError::MemoryOverflow`].
    pub min_fragment_bytes: u64,
    /// Deterministic tracer shared by every layer the framework boots:
    /// the daemon, the host client, the host-fallback Phoenix runtime,
    /// and the engine's decision events. Disabled by default
    /// (zero-cost); pass [`Tracer::enabled`] to record a run.
    pub tracer: Tracer,
}

impl Default for ResilienceConfig {
    fn default() -> ResilienceConfig {
        ResilienceConfig {
            retry: RetryPolicy::default(),
            injector: FaultInjector::disabled(),
            fallback_to_host: true,
            call_timeout: DEFAULT_TIMEOUT,
            breaker: BreakerConfig::default(),
            max_in_flight: 64,
            max_queued: 1024,
            steer_queue_depth: 64,
            min_fragment_bytes: DEFAULT_MIN_FRAGMENT_BYTES,
            tracer: Tracer::disabled(),
        }
    }
}

/// The McSD programming framework.
pub struct McsdFramework {
    cluster: Cluster,
    server: SdNodeServer,
    client: McsdClient,
    resilience: ResilienceConfig,
    engine: Engine,
}

impl McsdFramework {
    /// Boot the framework on `cluster` with the given offload policy and
    /// default resilience (retries on, host fallback on, no faults).
    pub fn start(cluster: Cluster, policy: OffloadPolicy) -> Result<McsdFramework, McsdError> {
        McsdFramework::start_with(cluster, policy, ResilienceConfig::default())
    }

    /// Boot the framework with explicit resilience settings — the entry
    /// point the fault-matrix tests drive with seeded injectors.
    pub fn start_with(
        cluster: Cluster,
        policy: OffloadPolicy,
        resilience: ResilienceConfig,
    ) -> Result<McsdFramework, McsdError> {
        let server = SdNodeServer::start_with(&cluster, |daemon| {
            daemon
                .with_faults(resilience.injector.clone())
                .with_admission(resilience.max_in_flight, resilience.max_queued)
                .with_tracer(resilience.tracer.clone())
        })?;
        let client = server.host_client().with_retry(resilience.retry);
        // One breaker slot: the framework offloads to one live SD node.
        let engine = Engine::new(
            Offloader::for_nodes(policy, &cluster.nodes),
            1,
            EngineConfig {
                breaker: resilience.breaker,
                fallback_to_host: resilience.fallback_to_host,
                steer_queue_depth: resilience.steer_queue_depth,
                min_fragment_bytes: resilience.min_fragment_bytes,
                tracer: resilience.tracer.clone(),
            },
        );
        Ok(McsdFramework {
            cluster,
            server,
            client,
            resilience,
            engine,
        })
    }

    /// The modelled cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The live SD node.
    pub fn sd_node(&self) -> &SdNodeServer {
        &self.server
    }

    /// Recovery counters accumulated so far: the host side's attempts,
    /// retries, and failovers plus the daemon's replay/quarantine/skip
    /// counters, merged at read time. The daemon side owns quarantines and
    /// replays so they are never double-counted here.
    pub fn resilience_stats(&self) -> ResilienceStats {
        self.engine.resilience_report(&self.server.daemon_stats())
    }

    /// Current state of the SD node's circuit breaker.
    pub fn breaker_state(&self) -> BreakerState {
        self.engine.breaker_state(0)
    }

    /// Human-readable record of every graceful degradation, in order.
    pub fn degradations(&self) -> Vec<String> {
        self.engine.degradations()
    }

    /// Where each typed call actually ran, in call order — including
    /// [`OffloadDecision::FallbackToHost`] entries for degraded runs.
    pub fn decision_log(&self) -> Vec<(String, OffloadDecision)> {
        self.engine.decision_log()
    }

    /// Stage data onto the SD node from the host (pays the network).
    pub fn stage_data(&self, name: &str, data: &[u8]) -> Result<TimeBreakdown, McsdError> {
        Ok(self.record_stage(name, data.len(), self.server.stage_from_host(name, data)?))
    }

    /// Stage data that already lives on the SD node (disk cost only).
    pub fn stage_data_local(&self, name: &str, data: &[u8]) -> Result<TimeBreakdown, McsdError> {
        Ok(self.record_stage(name, data.len(), self.server.stage_local(name, data)?))
    }

    fn record_stage(&self, name: &str, len: usize, cost: TimeBreakdown) -> TimeBreakdown {
        self.engine
            .record_transfer(SPAN_CLUSTER_STAGE, name, len as u64, &cost);
        cost
    }

    /// Drive one typed call through the engine's state machine, wrapped
    /// in its end-to-end trace span. The closures hand the engine its
    /// transport: the daemon heartbeat's queue depth for load steering
    /// and one priced, retried call for dispatch.
    fn run_offloaded<C: OffloadCall>(
        &self,
        call: &mut C,
    ) -> Result<(C::Output, TimeBreakdown), McsdError> {
        let span = self.engine.open_call_span(call.job());
        let out = self.engine.run_call(
            call,
            || self.client.smartfam().daemon_load().map(|load| load.queued),
            |module, params| {
                self.client
                    .invoke(module, params, self.resilience.call_timeout)
            },
        );
        self.engine.close_call_span(span);
        out
    }

    /// Word Count over a staged file. The policy picks the node; the
    /// McSD path offloads to the SD module with the given partition
    /// parameter (`None` = native, `Some("auto")` = runtime-sized).
    pub fn wordcount(
        &self,
        file: &str,
        partition: Option<&str>,
    ) -> Result<(Vec<(String, u64)>, TimeBreakdown), McsdError> {
        self.run_offloaded(&mut StagedCall {
            fw: self,
            job: "wordcount",
            files: vec![file.to_string()],
            partition,
            data_len: self.staged_len(file)?,
            compute_per_byte: 10.0,
            footprint_factor: WordCount.footprint_factor(),
            decode: WordCountModule::decode,
            run_host: wordcount_host,
        })
    }

    /// String Match over staged encrypt/keys files.
    pub fn stringmatch(
        &self,
        encrypt_file: &str,
        keys_file: &str,
        partition: Option<&str>,
    ) -> Result<(Vec<(u64, u32)>, TimeBreakdown), McsdError> {
        self.run_offloaded(&mut StagedCall {
            fw: self,
            job: "stringmatch",
            files: vec![encrypt_file.to_string(), keys_file.to_string()],
            partition,
            data_len: self.staged_len(encrypt_file)?,
            compute_per_byte: 20.0,
            // String Match's footprint factor does not depend on the key
            // set, so an empty instance stands in for admission.
            footprint_factor: StringMatch::new(&[] as &[String]).footprint_factor(),
            decode: StringMatchModule::decode,
            run_host: stringmatch_host,
        })
    }

    /// Matrix multiplication. Dense MM is compute-intensive, so the
    /// default policy keeps it on the host; `AlwaysSd` forces the module
    /// path.
    pub fn matmul(&self, a: &Matrix, b: &Matrix) -> Result<(Matrix, TimeBreakdown), McsdError> {
        self.run_offloaded(&mut MatMulCall { fw: self, a, b })
    }

    /// Shut the framework down (daemon, share), as dropping it does.
    pub fn stop(self) {}

    fn host_runner(&self) -> NodeRunner {
        NodeRunner::new(self.cluster.host().clone(), self.cluster.disk)
            .with_tracer(self.resilience.tracer.clone())
    }

    fn staged_len(&self, file: &str) -> Result<u64, McsdError> {
        let path = self.server.data_root().join(file);
        Ok(std::fs::metadata(path)?.len())
    }

    fn read_staged(&self, file: &str) -> Result<(Vec<u8>, TimeBreakdown), McsdError> {
        let path = self.server.data_root().join(file);
        let data = std::fs::read(path)?;
        // The host reads through NFS: network + disk.
        let cost = self.cluster.network.charge_transfer(data.len() as u64)
            + self.cluster.disk.charge_sequential(data.len() as u64);
        self.engine
            .record_transfer(SPAN_CLUSTER_FETCH, file, data.len() as u64, &cost);
        Ok((data, cost))
    }
}

/// Host-side hook of a [`StagedCall`]: re-run the job from staged files.
type HostRun<O> = fn(&McsdFramework, &[String]) -> Result<(O, TimeBreakdown), McsdError>;

/// Call spec shared by the staged-input applications (Word Count, String
/// Match): the module reads files already staged on the SD node and the
/// data input's size drives both the profile and memory-planned
/// partitioning. The per-app residue is pure data: the module parameters,
/// the profile constants, and the decode/host-path hooks.
struct StagedCall<'a, O> {
    fw: &'a McsdFramework,
    job: &'static str,
    /// Staged file parameters in module order; the first is the data
    /// input whose size drives the profile and admission.
    files: Vec<String>,
    partition: Option<&'a str>,
    data_len: u64,
    compute_per_byte: f64,
    footprint_factor: f64,
    decode: fn(&[u8]) -> Result<O, String>,
    run_host: HostRun<O>,
}

impl<O> OffloadCall for StagedCall<'_, O> {
    type Output = O;

    fn job(&self) -> &'static str {
        self.job
    }

    fn profile(&self) -> JobProfile {
        JobProfile {
            name: self.job,
            input_bytes: self.data_len,
            compute_per_byte: self.compute_per_byte,
            data_on_sd: true,
        }
    }

    fn admission(&self) -> Option<MemoryAdmission> {
        Some(MemoryAdmission {
            model: self.fw.cluster.sd().memory_model(),
            caller_partition: self.partition.map(str::to_string),
            input_bytes: self.data_len,
            footprint_factor: self.footprint_factor,
        })
    }

    fn prepare(&mut self) -> Result<(Vec<String>, TimeBreakdown), McsdError> {
        Ok((self.files.clone(), TimeBreakdown::default()))
    }

    fn decode(&self, payload: &[u8]) -> Result<O, McsdError> {
        (self.decode)(payload).map_err(|detail| McsdError::BadScenario { detail })
    }

    fn run_host(&mut self) -> Result<(O, TimeBreakdown), McsdError> {
        (self.run_host)(self.fw, &self.files)
    }
}

/// Word Count host path: fetch the staged input across NFS, run the
/// parallel job on the host (planned host run or failover).
fn wordcount_host(
    fw: &McsdFramework,
    files: &[String],
) -> Result<(Vec<(String, u64)>, TimeBreakdown), McsdError> {
    let (data, fetch) = fw.read_staged(&files[0])?;
    let out = fw.host_runner().run_parallel(&WordCount, &data)?;
    Ok((out.pairs, fetch + out.report.time))
}

/// String Match host path: fetch both staged inputs, parse the key set,
/// run the parallel job on the host.
fn stringmatch_host(
    fw: &McsdFramework,
    files: &[String],
) -> Result<(Vec<(u64, u32)>, TimeBreakdown), McsdError> {
    let (encrypt, fetch_e) = fw.read_staged(&files[0])?;
    let (keys_raw, fetch_k) = fw.read_staged(&files[1])?;
    let keys: Vec<String> = String::from_utf8_lossy(&keys_raw)
        .lines()
        .filter(|l| !l.is_empty())
        .map(str::to_string)
        .collect();
    let job = StringMatch::new(&keys);
    let out = fw.host_runner().run_parallel(&job, &encrypt)?;
    Ok((out.pairs, fetch_e + fetch_k + out.report.time))
}

/// Matrix multiplication call spec: operands staged by `prepare`, no
/// memory admission (the module path works on whole matrices).
struct MatMulCall<'a> {
    fw: &'a McsdFramework,
    a: &'a Matrix,
    b: &'a Matrix,
}

impl OffloadCall for MatMulCall<'_> {
    type Output = Matrix;

    fn job(&self) -> &'static str {
        "matmul"
    }

    fn profile(&self) -> JobProfile {
        JobProfile {
            name: "matmul",
            input_bytes: (self.a.byte_len() + self.b.byte_len()) as u64,
            compute_per_byte: self.a.cols as f64, // ~n multiply-adds per stored byte
            data_on_sd: false,
        }
    }

    fn prepare(&mut self) -> Result<(Vec<String>, TimeBreakdown), McsdError> {
        let stage_a = self.fw.stage_data("mm_a.mat", &self.a.to_bytes())?;
        let stage_b = self.fw.stage_data("mm_b.mat", &self.b.to_bytes())?;
        Ok((
            vec!["mm_a.mat".to_string(), "mm_b.mat".to_string()],
            stage_a + stage_b,
        ))
    }

    fn decode(&self, payload: &[u8]) -> Result<Self::Output, McsdError> {
        Matrix::from_bytes(payload).map_err(|detail| McsdError::BadScenario { detail })
    }

    fn run_host(&mut self) -> Result<(Self::Output, TimeBreakdown), McsdError> {
        // Planned host run or failover. The operands are still in hand, so
        // the fallback recomputes directly instead of re-reading the
        // staged copies.
        let job = MatMul::new(Arc::new(self.a.clone()), self.b);
        let out = self.fw.host_runner().run_parallel(&job, &job.row_input())?;
        let c = job.assemble(&out.pairs);
        Ok((c, out.report.time))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsd_apps::{datagen, seq, TextGen};
    use mcsd_cluster::{paper_testbed, Scale};

    fn cluster() -> Cluster {
        let mut c = paper_testbed(Scale::default_experiment());
        for n in &mut c.nodes {
            n.memory_bytes = 256 << 20;
        }
        c
    }

    #[test]
    fn wordcount_offloads_to_sd_by_default() {
        let fw = McsdFramework::start(cluster(), OffloadPolicy::DataIntensiveToSd).unwrap();
        // A small vocabulary keeps the result payload (and thus the
        // log-file traffic) far below the input size, so the offload's
        // network saving is visible even at test scale.
        let gen = TextGen {
            vocab_size: 300,
            ..TextGen::with_seed(31)
        };
        let text = gen.generate(400_000);
        fw.stage_data_local("t.txt", &text).unwrap();
        let (pairs, cost) = fw.wordcount("t.txt", Some("auto")).unwrap();
        assert_eq!(pairs, seq::wordcount(&text));
        // Offloaded: only log-file bytes crossed the network, far less
        // than the input.
        let full_transfer = fw.cluster().network.transfer_time(text.len() as u64);
        assert!(cost.network < full_transfer);
        assert_eq!(fw.sd_node().daemon_stats().ok, 1);
        fw.stop();
    }

    #[test]
    fn always_host_fetches_data_instead() {
        let fw = McsdFramework::start(cluster(), OffloadPolicy::AlwaysHost).unwrap();
        let text = TextGen::with_seed(32).generate(6_000);
        fw.stage_data_local("t.txt", &text).unwrap();
        let (pairs, cost) = fw.wordcount("t.txt", None).unwrap();
        assert_eq!(pairs, seq::wordcount(&text));
        // Host path: the whole input crossed the network.
        assert!(cost.network >= fw.cluster().network.transfer_time(text.len() as u64));
        assert_eq!(fw.sd_node().daemon_stats().requests, 0);
        fw.stop();
    }

    #[test]
    fn stringmatch_both_paths_agree() {
        let keys = datagen::keys_file(3, 7, 8);
        let encrypt = datagen::encrypt_file(10_000, &keys, 0.08, 3);
        let expect = seq::stringmatch(&keys, &encrypt);

        let sd_fw = McsdFramework::start(cluster(), OffloadPolicy::DataIntensiveToSd).unwrap();
        sd_fw.stage_data_local("e.bin", &encrypt).unwrap();
        sd_fw
            .stage_data_local("k.txt", keys.join("\n").as_bytes())
            .unwrap();
        let (sd_pairs, _) = sd_fw.stringmatch("e.bin", "k.txt", None).unwrap();
        assert_eq!(sd_pairs, expect);
        sd_fw.stop();

        let host_fw = McsdFramework::start(cluster(), OffloadPolicy::AlwaysHost).unwrap();
        host_fw.stage_data_local("e.bin", &encrypt).unwrap();
        host_fw
            .stage_data_local("k.txt", keys.join("\n").as_bytes())
            .unwrap();
        let (host_pairs, _) = host_fw.stringmatch("e.bin", "k.txt", None).unwrap();
        assert_eq!(host_pairs, expect);
        host_fw.stop();
    }

    #[test]
    fn matmul_stays_on_host_under_default_policy() {
        let fw = McsdFramework::start(cluster(), OffloadPolicy::DataIntensiveToSd).unwrap();
        let (a, b) = datagen::matrix_pair(14, 9, 11, 2);
        let (c, _) = fw.matmul(&a, &b).unwrap();
        assert!(c.max_abs_diff(&seq::matmul(&a, &b)) < 1e-9);
        assert_eq!(fw.sd_node().daemon_stats().requests, 0);
        fw.stop();
    }

    #[test]
    fn daemon_crash_degrades_to_host_fallback() {
        use mcsd_smartfam::{FaultAction, FaultPlan, FaultSite};
        // The daemon crashes before dispatching the very first request.
        let plan = FaultPlan::none().with(FaultSite::Dispatch, 0, FaultAction::CrashBefore);
        let mut resilience = ResilienceConfig {
            injector: FaultInjector::new(plan),
            ..ResilienceConfig::default()
        };
        // Tight liveness bounds so the dead daemon is detected quickly.
        resilience.retry.heartbeat_max_age = Duration::from_millis(300);
        let fw = McsdFramework::start_with(cluster(), OffloadPolicy::DataIntensiveToSd, resilience)
            .unwrap();
        let text = TextGen::with_seed(9).generate(20_000);
        fw.stage_data_local("t.txt", &text).unwrap();
        let (pairs, _) = fw.wordcount("t.txt", None).unwrap();
        assert_eq!(pairs, seq::wordcount(&text));
        let stats = fw.resilience_stats();
        assert!(stats.failovers >= 1, "no failover recorded: {stats}");
        assert!(fw.degradations().iter().any(|d| d.contains("wordcount")));
        assert!(fw
            .decision_log()
            .iter()
            .any(|(j, d)| j == "wordcount" && *d == OffloadDecision::FallbackToHost));
        fw.stop();
    }

    #[test]
    fn fallback_can_be_disabled() {
        use mcsd_smartfam::{FaultAction, FaultPlan, FaultSite};
        let plan = FaultPlan::none().with(FaultSite::Dispatch, 0, FaultAction::CrashBefore);
        let mut resilience = ResilienceConfig {
            injector: FaultInjector::new(plan),
            fallback_to_host: false,
            ..ResilienceConfig::default()
        };
        resilience.retry.heartbeat_max_age = Duration::from_millis(300);
        let fw = McsdFramework::start_with(cluster(), OffloadPolicy::DataIntensiveToSd, resilience)
            .unwrap();
        let text = TextGen::with_seed(10).generate(5_000);
        fw.stage_data_local("t.txt", &text).unwrap();
        let err = fw.wordcount("t.txt", None).unwrap_err();
        assert!(err.to_string().contains("daemon"), "{err}");
        assert!(fw.degradations().is_empty());
        fw.stop();
    }

    #[test]
    fn offloads_report_their_attempts_and_retries() {
        use mcsd_smartfam::{FaultAction, FaultPlan, FaultSite};
        // The module fails its first dispatch, once.
        let plan = FaultPlan::none().with(FaultSite::Dispatch, 0, FaultAction::Fail);
        let resilience = ResilienceConfig {
            injector: FaultInjector::new(plan),
            ..ResilienceConfig::default()
        };
        let fw = McsdFramework::start_with(cluster(), OffloadPolicy::AlwaysSd, resilience).unwrap();
        for i in 0..3u64 {
            let name = format!("r{i}.txt");
            let text = TextGen::with_seed(70 + i).generate(2_000);
            fw.stage_data_local(&name, &text).unwrap();
            let (pairs, _) = fw.wordcount(&name, None).unwrap();
            assert_eq!(pairs, seq::wordcount(&text));
        }
        let stats = fw.resilience_stats();
        assert_eq!(stats.attempts, 4, "{stats}");
        assert_eq!(stats.retries, 1, "{stats}");
        assert_eq!(stats.failovers, 0, "{stats}");
        assert!(fw.degradations().is_empty());
        fw.stop();
    }

    #[test]
    fn matmul_can_be_forced_to_sd() {
        let fw = McsdFramework::start(cluster(), OffloadPolicy::AlwaysSd).unwrap();
        let (a, b) = datagen::matrix_pair(8, 8, 8, 4);
        let (c, cost) = fw.matmul(&a, &b).unwrap();
        assert!(c.max_abs_diff(&seq::matmul(&a, &b)) < 1e-9);
        assert!(cost.network > Duration::ZERO);
        assert_eq!(fw.sd_node().daemon_stats().ok, 1);
        fw.stop();
    }
}
