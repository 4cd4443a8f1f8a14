//! A *live* SD node: NFS share + smartFAM daemon + preloaded modules.
//!
//! Where [`crate::scenario`] models the testbed analytically for the
//! figures, this module actually wires the machinery together the way
//! Fig. 5 draws it: a shared folder (the NFS export), a daemon watching
//! per-module log files on the "SD side", and a host-side client that
//! passes parameters and reads results through those log files. The
//! examples and integration tests exercise McSD end-to-end through this
//! path.

use crate::engine::SdDispatch;
use crate::error::McsdError;
use crate::modules::{MatMulModule, StringMatchModule, WordCountModule};
use mcsd_cluster::{Cluster, NfsShare, NodeId, TimeBreakdown};
use mcsd_smartfam::{
    BatchStats, Daemon, DaemonConfig, DaemonHandle, DaemonStats, HostClient, ModuleRegistry,
    RetryPolicy, WindowConfig,
};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Subdirectory of the share holding the per-module log files.
pub const LOG_SUBDIR: &str = "logs";
/// Subdirectory of the share holding staged data files.
pub const DATA_SUBDIR: &str = "data";

/// A running smart-storage node.
pub struct SdNodeServer {
    /// Declared first, so dropped first: the daemon stops before the
    /// share's directory goes.
    daemon: Option<DaemonHandle>,
    share: NfsShare,
    registry: ModuleRegistry,
    sd_id: NodeId,
    host_id: NodeId,
    /// The configuration the daemon booted with;
    /// [`SdNodeServer::restart_daemon`] re-spawns from it, and host
    /// clients share its fault injector and tracer.
    config: DaemonConfig,
}

impl SdNodeServer {
    /// Boot the SD node of `cluster`: create the NFS export, preload the
    /// three benchmark modules, and start the smartFAM daemon with its
    /// default configuration.
    pub fn start(cluster: &Cluster) -> Result<SdNodeServer, McsdError> {
        SdNodeServer::start_with(cluster, |daemon| daemon)
    }

    /// Like [`SdNodeServer::start`], with `configure` adjusting the
    /// daemon's configuration (already rooted at the export's log
    /// folder) before it boots: a scripted fault schedule, admission
    /// limits, a tracer, batched dispatch (DESIGN.md §18). The fault
    /// injector and the tracer are shared with every host client this
    /// server hands out, so one seeded [`mcsd_smartfam::FaultInjector`]
    /// disturbs both sides of the log-file protocol deterministically and
    /// one trace carries both sides of it (DESIGN.md §12). The whole
    /// configuration survives [`SdNodeServer::restart_daemon`].
    pub fn start_with(
        cluster: &Cluster,
        configure: impl FnOnce(DaemonConfig) -> DaemonConfig,
    ) -> Result<SdNodeServer, McsdError> {
        let sd = cluster.sd().clone();
        let share = NfsShare::temp(sd.id, cluster.network, cluster.disk)?;
        let data_root = share.root().join(DATA_SUBDIR);
        std::fs::create_dir_all(&data_root)?;

        let registry = ModuleRegistry::new();
        registry.register(Arc::new(WordCountModule::new(&data_root, sd.clone())));
        registry.register(Arc::new(StringMatchModule::new(&data_root, sd.clone())));
        registry.register(Arc::new(MatMulModule::new(&data_root, sd.clone())));

        let config = configure(DaemonConfig::new(share.root().join(LOG_SUBDIR)));
        let daemon = Daemon::new(config.clone(), registry.clone()).spawn()?;
        Ok(SdNodeServer {
            share,
            daemon: Some(daemon),
            registry,
            sd_id: sd.id,
            host_id: cluster.host().id,
            config,
        })
    }

    /// The module registry (to preload additional modules — paper §VI:
    /// "the extensibility of data-processing modules").
    pub fn registry(&self) -> &ModuleRegistry {
        &self.registry
    }

    /// Daemon counters.
    pub fn daemon_stats(&self) -> DaemonStats {
        self.daemon.as_ref().map(|d| d.stats()).unwrap_or_default()
    }

    /// Batch-commit counters of the current daemon incarnation (all zero
    /// when the daemon runs lockstep, i.e. was started without a
    /// [`mcsd_smartfam::BatchConfig`], or after [`SdNodeServer::stop`]).
    pub fn batch_stats(&self) -> BatchStats {
        self.daemon
            .as_ref()
            .map(|d| d.batch_stats())
            .unwrap_or_default()
    }

    /// Absolute path of the staged-data directory.
    pub fn data_root(&self) -> PathBuf {
        self.share.root().join(DATA_SUBDIR)
    }

    /// Stage a data file onto the SD node as the *host* would: written
    /// through the NFS mount, so the returned cost includes the network.
    pub fn stage_from_host(&self, name: &str, data: &[u8]) -> Result<TimeBreakdown, McsdError> {
        let client = self.share.client(self.host_id);
        Ok(client.write(&format!("{DATA_SUBDIR}/{name}"), data)?)
    }

    /// Stage a data file that is already local to the SD node (disk cost
    /// only) — the common McSD case where the data was collected in place.
    pub fn stage_local(&self, name: &str, data: &[u8]) -> Result<TimeBreakdown, McsdError> {
        let client = self.share.client(self.sd_id);
        Ok(client.write(&format!("{DATA_SUBDIR}/{name}"), data)?)
    }

    /// A host-side offload client for this node.
    pub fn host_client(&self) -> McsdClient {
        McsdClient {
            inner: HostClient::new(&self.config.log_dir)
                .with_faults(self.config.injector.clone())
                .with_tracer(self.config.tracer.clone()),
            network_charge_per_byte: 1.0 / self.share.network().effective_bytes_per_sec(),
            latency: self.share.network().fabric.latency(),
        }
    }

    /// Stop the daemon. Also happens on drop.
    pub fn stop(&mut self) {
        if let Some(mut d) = self.daemon.take() {
            d.stop();
        }
    }

    /// Kill the daemon *without* answering outstanding requests, then
    /// restart it over the same log dir with the configuration it booted
    /// with. The replacement incarnation replays unanswered requests from
    /// the log on startup. For scripted, seed-reproducible
    /// failures install a [`mcsd_smartfam::FaultInjector`] schedule through
    /// [`SdNodeServer::start_with`] instead of calling this by hand; this
    /// manual restart remains useful for coarse crash-recovery tests.
    pub fn restart_daemon(&mut self) -> Result<(), McsdError> {
        self.stop();
        self.daemon = Some(Daemon::new(self.config.clone(), self.registry.clone()).spawn()?);
        Ok(())
    }
}

/// Host-side offload client: a [`HostClient`] plus network-cost
/// accounting for the log-file traffic.
pub struct McsdClient {
    inner: HostClient,
    network_charge_per_byte: f64,
    latency: Duration,
}

impl McsdClient {
    /// Invoke a preloaded module once: a window of one under the client's
    /// [`RetryPolicy`] (DESIGN.md §10), priced as the log-file bytes of
    /// both frames over the network plus two fabric crossings, with the
    /// wall time the host spent waiting as overhead. The call's recovery
    /// counters come back beside its outcome, kept when the call fails so
    /// callers can account for degraded runs.
    pub fn invoke(&self, module: &str, params: &[String], timeout: Duration) -> SdDispatch {
        let lockstep = WindowConfig {
            depth: 1,
            call_timeout: timeout,
        };
        let mut run = self.inner.invoke_window(module, &[params], &lockstep);
        // A window answers each of its calls: this one, once.
        let stats = run.resilience.swap_remove(0);
        let outcome = match run.outcomes.swap_remove(0) {
            Ok(outcome) => outcome,
            Err(e) => return (Err(e.into()), stats),
        };
        let bytes = outcome.request_bytes + outcome.response_bytes;
        let wire = Duration::from_secs_f64(bytes as f64 * self.network_charge_per_byte);
        let cost = TimeBreakdown::network(self.latency * 2 + wire)
            + TimeBreakdown::overhead(outcome.elapsed);
        (Ok((outcome.payload, cost)), stats)
    }

    /// Retry each [`McsdClient::invoke`] under `policy` instead of
    /// [`RetryPolicy::default`].
    pub fn with_retry(mut self, policy: RetryPolicy) -> McsdClient {
        self.inner = self.inner.with_retry(policy);
        self
    }

    /// The underlying smartFAM client.
    pub fn smartfam(&self) -> &HostClient {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modules::WordCountModule;
    use mcsd_apps::{datagen, seq, Matrix, TextGen};
    use mcsd_cluster::{paper_testbed, Scale};
    use mcsd_smartfam::{BatchConfig, Liveness, SmartFamError};

    const TIMEOUT: Duration = Duration::from_secs(120);

    fn cluster() -> Cluster {
        let mut c = paper_testbed(Scale::default_experiment());
        // Plenty of modelled memory so bridge tests exercise the
        // mechanism, not the memory model.
        for n in &mut c.nodes {
            n.memory_bytes = 256 << 20;
        }
        c
    }

    #[test]
    fn wordcount_offload_end_to_end() {
        let cluster = cluster();
        let server = SdNodeServer::start(&cluster).unwrap();
        let text = TextGen::with_seed(21).generate(8_000);
        server.stage_local("corpus.txt", &text).unwrap();
        let client = server.host_client();
        let (outcome, stats) = client.invoke("wordcount", &["corpus.txt".into()], TIMEOUT);
        let (payload, cost) = outcome.unwrap();
        let pairs = WordCountModule::decode(&payload).unwrap();
        assert_eq!(pairs, seq::wordcount(&text));
        assert!(cost.network > Duration::ZERO);
        assert_eq!((stats.attempts, stats.retries), (1, 0));
        assert_eq!(server.daemon_stats().ok, 1);
    }

    #[test]
    fn the_one_priced_call_retries_and_reports() {
        use mcsd_smartfam::{FaultAction, FaultPlan, FaultSite};
        // The module fails its first dispatch, once; the retry answers.
        let plan = FaultPlan::none().with(FaultSite::Dispatch, 0, FaultAction::Fail);
        let server = SdNodeServer::start_with(&cluster(), |daemon| {
            daemon.with_faults(mcsd_smartfam::FaultInjector::new(plan))
        })
        .unwrap();
        let text = TextGen::with_seed(22).generate(4_000);
        server.stage_local("corpus.txt", &text).unwrap();
        let client = server.host_client();
        let (outcome, stats) = client.invoke("wordcount", &["corpus.txt".into()], TIMEOUT);
        let (payload, _) = outcome.unwrap();
        assert_eq!(
            WordCountModule::decode(&payload).unwrap(),
            seq::wordcount(&text)
        );
        assert_eq!((stats.attempts, stats.retries), (2, 1), "{stats}");
    }

    #[test]
    fn matmul_offload_end_to_end() {
        let cluster = cluster();
        let server = SdNodeServer::start(&cluster).unwrap();
        let (a, b) = datagen::matrix_pair(10, 12, 8, 17);
        server.stage_local("a.mat", &a.to_bytes()).unwrap();
        server.stage_local("b.mat", &b.to_bytes()).unwrap();
        let client = server.host_client();
        let (payload, _) = client
            .invoke("matmul", &["a.mat".into(), "b.mat".into()], TIMEOUT)
            .0
            .unwrap();
        let c = Matrix::from_bytes(&payload).unwrap();
        assert!(c.max_abs_diff(&seq::matmul(&a, &b)) < 1e-9);
    }

    #[test]
    fn staging_from_host_costs_network_but_local_does_not() {
        let cluster = cluster();
        let server = SdNodeServer::start(&cluster).unwrap();
        let data = vec![7u8; 200_000];
        let remote = server.stage_from_host("r.bin", &data).unwrap();
        let local = server.stage_local("l.bin", &data).unwrap();
        assert!(remote.network > Duration::ZERO);
        assert_eq!(local.network, Duration::ZERO);
    }

    #[test]
    fn module_error_round_trips_through_the_log() {
        let cluster = cluster();
        let server = SdNodeServer::start(&cluster).unwrap();
        let client = server.host_client();
        let err = client
            .invoke("wordcount", &["missing.txt".into()], TIMEOUT)
            .0
            .unwrap_err();
        assert!(err.to_string().contains("missing.txt"));
    }

    #[test]
    fn daemon_crash_recovery_answers_pending_request() {
        let cluster = cluster();
        let mut server = SdNodeServer::start(&cluster).unwrap();
        let text = TextGen::with_seed(5).generate(2_000);
        server.stage_local("t.txt", &text).unwrap();
        // Kill the daemon, submit while it is down, then restart.
        server.stop();
        let client = server.host_client();
        let pending = client
            .smartfam()
            .submit("wordcount", &["t.txt".to_string()])
            .unwrap();
        server.restart_daemon().unwrap();
        let outcome = pending.wait(TIMEOUT).unwrap();
        let pairs = WordCountModule::decode(&outcome.payload).unwrap();
        assert_eq!(pairs, seq::wordcount(&text));
    }

    #[test]
    fn modules_can_be_preloaded_into_a_running_node() {
        // §VI extensibility: a new data-intensive module registered while
        // the daemon is live is served on the next invocation, no restart.
        use mcsd_smartfam::module::FnModule;
        let cluster = cluster();
        let server = SdNodeServer::start(&cluster).unwrap();
        let client = server.host_client();
        // Not preloaded yet:
        let err = client.invoke("echo", &["a".into()], TIMEOUT).0.unwrap_err();
        assert!(err.to_string().contains("no module registered"));
        // Preload at runtime.
        server
            .registry()
            .register(Arc::new(FnModule::new("echo", |p: &[String]| {
                Ok(p.join("|").into_bytes())
            })));
        let (payload, _) = client
            .invoke("echo", &["a".into(), "b".into()], TIMEOUT)
            .0
            .unwrap();
        assert_eq!(payload, b"a|b");
    }

    /// The daemon's batch-commit counters once `appends` responses were
    /// coalesced: it bumps them a beat after the response bytes become
    /// host-visible, so wait them out (bounded).
    fn commits_after(server: &SdNodeServer, appends: u64) -> BatchStats {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while server.batch_stats().coalesced_appends < appends
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(2));
        }
        server.batch_stats()
    }

    #[test]
    fn restart_respawns_the_daemon_from_the_config_it_booted_with() {
        use mcsd_smartfam::module::FnModule;
        let cluster = cluster();
        let mut server = SdNodeServer::start_with(&cluster, |daemon| {
            daemon
                .with_admission(1, 2)
                .with_batching(BatchConfig::default())
        })
        .unwrap();
        server
            .registry()
            .register(Arc::new(FnModule::new("echo", |p: &[String]| {
                Ok(p.join("|").into_bytes())
            })));
        // Submit while the daemon is down: the next incarnation's
        // single-threaded replay scan then makes every admission decision
        // in one sweep, so the shed count is arithmetic, not timing.
        server.stop();
        assert!(server.daemon.is_none(), "stop drops the daemon");
        let client = server.host_client();
        let pendings: Vec<_> = (0..5)
            .map(|i| {
                client
                    .smartfam()
                    .submit("echo", &[format!("r{i}")])
                    .unwrap()
            })
            .collect();
        server.restart_daemon().unwrap();
        // Admission limits: a batched daemon queues every admitted request,
        // so the 2-deep queue takes r0 and r1 and sheds the other three.
        for (i, pending) in pendings.into_iter().enumerate() {
            match pending.wait(TIMEOUT) {
                Ok(outcome) => {
                    assert!(i < 2, "request {i} should have been shed");
                    assert_eq!(outcome.payload, format!("r{i}").into_bytes());
                }
                Err(SmartFamError::Overloaded { .. }) => {
                    assert!(i >= 2, "request {i} should have been served");
                }
                Err(other) => panic!("request {i}: unexpected error {other}"),
            }
        }
        assert_eq!(server.daemon_stats().shed, 3);
        // Batching: the two served responses went out as coalesced commits.
        assert_eq!(commits_after(&server, 2).coalesced_appends, 2);
    }

    #[test]
    fn heartbeat_is_visible_to_the_host() {
        let cluster = cluster();
        let server = SdNodeServer::start(&cluster).unwrap();
        let client = server.host_client();
        // Wait for the first heartbeat write.
        let deadline = std::time::Instant::now() + TIMEOUT;
        while client.smartfam().daemon_liveness(Duration::from_secs(5)) != Liveness::Alive {
            assert!(std::time::Instant::now() < deadline, "no heartbeat");
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}
