//! The four-phase overload scenario (DESIGN.md §12, §16): daemon
//! saturation, circuit-breaker steering, a torn-append retry and
//! memory-budget admission, each on a freshly booted framework.
//!
//! This is the only definition of the four phases. [`crate::demos`]
//! drives it three ways: `trace` runs every phase under its baked plan
//! with the tracer on and exports the run, `overload` reports the breaker
//! and admission phases, and `chaos` hands the scenario to
//! [`mcsd_core::run_sweep`], which re-runs each phase once per discovered
//! injection point. A phase therefore has to absorb an arbitrary injected
//! fault: waits are bounded, nothing fault-reachable is unwrapped, and
//! the only hard failure is silently wrong output.

use mcsd_apps::{seq, TextGen};
use mcsd_cluster::{paper_testbed, Cluster, NodeRole, Scale};
use mcsd_core::chaos::default_actions;
use mcsd_core::{
    BreakerConfig, ChaosObservation, ChaosScenario, ConservationCheck, FaultAction, FaultInjector,
    FaultPlan, FaultSite, McsdError, McsdFramework, OffloadDecision, OffloadPolicy,
    ResilienceConfig, ResilienceStats,
};
use mcsd_obs::Tracer;
use mcsd_phoenix::Stopwatch;
use mcsd_smartfam::module::FnModule;
use mcsd_smartfam::{DaemonStats, PollBackoff, SmartFamError};
use std::sync::Arc;
use std::time::Duration;

/// Memory of every node that is not deliberately squeezed: far above any
/// footprint a walkthrough stages, so admission stays out of the way.
pub(crate) const ROOMY: u64 = 256 << 20;

/// The seeded four-phase scenario; one phase per [`ChaosScenario`]
/// segment, in the order saturation, breaker, retry, admission.
pub struct FourPhaseScenario {
    seed: u64,
    tracer: Tracer,
    wait: Duration,
}

/// What one phase run produced: the invariant-checkable observation the
/// sweep audits, plus the counters and logs the drivers print and export.
#[derive(Debug, Clone)]
pub struct PhaseRun {
    /// Output correctness and the phase's conservation checks.
    pub observation: ChaosObservation,
    /// The SD daemon's counters at the end of the phase.
    pub daemon: DaemonStats,
    /// The host side's counters at the end of the phase.
    pub resilience: ResilienceStats,
    /// Where the engine placed each call, in call order.
    pub decisions: Vec<(String, OffloadDecision)>,
    /// One line per call that degraded to host execution.
    pub degradations: Vec<String>,
}

impl FourPhaseScenario {
    /// A scenario whose corpora derive from `seed`, tracing every phase
    /// onto `tracer`, and giving each pending call at most `wait` — long
    /// for a run that must complete, short for a sweep whose injected
    /// daemon crashes should cost seconds rather than minutes.
    pub fn new(seed: u64, tracer: Tracer, wait: Duration) -> FourPhaseScenario {
        FourPhaseScenario { seed, tracer, wait }
    }

    /// Run phase `segment` once under `injector`. Fault effects (typed
    /// errors, timeouts) are absorbed into the observation; `Err` means
    /// the phase could not be set up at all.
    pub fn run_phase(
        &self,
        segment: usize,
        injector: &FaultInjector,
    ) -> Result<PhaseRun, McsdError> {
        // A run under the baked plan alone is the baseline: only there is
        // "every call answered" part of the output contract. One more
        // injected fault may turn any answer into a typed error.
        let strict = *injector.plan() == self.baked_plan(segment);
        match segment {
            0 => self.saturation(injector, strict),
            1 => self.breaker(injector, strict),
            2 => self.retry(injector, strict),
            _ => self.admission(injector, strict),
        }
    }

    /// The paper testbed with `sd_memory` bytes on the SD node.
    fn cluster(sd_memory: u64) -> Cluster {
        let mut c = paper_testbed(Scale::default_experiment());
        for n in &mut c.nodes {
            n.memory_bytes = if n.role == NodeRole::SmartStorage {
                sd_memory
            } else {
                ROOMY
            };
        }
        c
    }

    /// Boot a framework for one phase: the scenario's tracer, the caller's
    /// injector, liveness bounds that detect a crashed daemon well inside
    /// the wait budget (while 16 missed 50 ms beats keep a busy runner
    /// from being mistaken for a dead daemon), then the phase's own knobs.
    fn boot(
        &self,
        injector: &FaultInjector,
        sd_memory: u64,
        configure: impl FnOnce(&mut ResilienceConfig),
    ) -> Result<McsdFramework, McsdError> {
        let mut resilience = ResilienceConfig {
            injector: injector.clone(),
            tracer: self.tracer.clone(),
            call_timeout: self.wait,
            ..ResilienceConfig::default()
        };
        resilience.retry.heartbeat_max_age = Duration::from_millis(800);
        resilience.retry.base_backoff = Duration::from_millis(1);
        configure(&mut resilience);
        McsdFramework::start_with(
            Self::cluster(sd_memory),
            OffloadPolicy::DataIntensiveToSd,
            resilience,
        )
    }

    /// Stage `text` as `file` and run Word Count over it `calls` times;
    /// true when every answer matched the sequential oracle. A typed
    /// error is wrong only on a `strict` run.
    fn wordcounts(
        fw: &McsdFramework,
        file: &str,
        text: &[u8],
        partition: Option<&str>,
        calls: usize,
        strict: bool,
    ) -> Result<bool, McsdError> {
        fw.stage_data_local(file, text)?;
        let oracle = seq::wordcount(text);
        let mut correct = true;
        for _ in 0..calls {
            correct &= match fw.wordcount(file, partition) {
                Ok((pairs, _)) => pairs == oracle,
                Err(_) => !strict,
            };
        }
        Ok(correct)
    }

    /// The shared tail of every phase: snapshot the counters, stop the
    /// framework, and build the observation with the two conservation
    /// identities every phase owes (a phase appends its own, if any).
    fn finish(fw: McsdFramework, correct: bool) -> PhaseRun {
        let daemon = fw.sd_node().daemon_stats();
        let resilience = fw.resilience_stats();
        let decisions = fw.decision_log();
        let degradations = fw.degradations();
        fw.stop();
        let mut observation = ChaosObservation::clean();
        observation.outputs_correct = correct;
        observation.conservation = vec![
            ConservationCheck::ge(
                "daemon requests >= ok + module_errors + unknown + shed + expired + quarantine_rejected",
                daemon.requests,
                daemon.ok
                    + daemon.module_errors
                    + daemon.unknown_module
                    + daemon.shed
                    + daemon.expired
                    + daemon.quarantine_rejected,
            ),
            ConservationCheck::ge("attempts >= retries", resilience.attempts, resilience.retries),
        ];
        PhaseRun {
            observation,
            daemon,
            resilience,
            decisions,
            degradations,
        }
    }

    /// Phase A — admission control under saturation: 1 slot, 1 queue
    /// spot, 5 gated requests plus a pre-expired deadline.
    fn saturation(&self, injector: &FaultInjector, strict: bool) -> Result<PhaseRun, McsdError> {
        let fw = self.boot(injector, ROOMY, |r| {
            r.max_in_flight = 1;
            r.max_queued = 1;
        })?;
        let release = fw.sd_node().data_root().join("release.gate");
        let gate = release.clone();
        // The gate must outlast the host's three sequential waits on the
        // requests it expects to see shed.
        let shut_for = self.wait * 3;
        fw.sd_node()
            .registry()
            .register(Arc::new(FnModule::new("gate", move |p: &[String]| {
                let shut = Stopwatch::start();
                let mut pace = PollBackoff::new(Duration::from_millis(1));
                while !gate.exists() && !shut.expired(shut_for) {
                    pace.idle();
                }
                Ok(p.join("").into_bytes())
            })));
        let client = fw.sd_node().host_client();
        let smartfam = client.smartfam();

        let mut correct = true;
        // Once one wait times out on something other than a typed shed,
        // the daemon is presumed dead and the remaining waits shrink to a
        // token poll — bounds crash cases to seconds instead of
        // `6 × wait`.
        let mut dead = false;
        let budget = |dead: bool| {
            if dead {
                Duration::from_millis(50)
            } else {
                self.wait
            }
        };

        // r0 pins the only slot and r1 the only queue spot while the gate
        // is shut, so the daemon must shed r2..r4 with typed replies.
        let mut queued = Vec::new();
        let mut gated = Vec::new();
        for i in 0..5u32 {
            // A submit can fail with a typed host-side error under an
            // injected append fault; that is an acceptable outcome, the
            // request simply never entered the system.
            match smartfam.submit("gate", &[format!("r{i}")]) {
                Ok(p) if i < 2 => queued.push((i, p)),
                Ok(p) => gated.push((i, p)),
                Err(_) => {}
            }
        }
        let mut sheds = 0u32;
        for (i, p) in gated {
            match p.wait(budget(dead)) {
                Ok(out) => correct &= out.payload == format!("r{i}").into_bytes(),
                Err(SmartFamError::Overloaded { .. }) => sheds += 1,
                Err(_) => dead = true,
            }
        }
        std::fs::write(&release, b"go").map_err(McsdError::from)?;
        let mut served = 0u32;
        for (i, p) in queued {
            match p.wait(budget(dead)) {
                Ok(out) if out.payload == format!("r{i}").into_bytes() => served += 1,
                Ok(_) => correct = false,
                Err(SmartFamError::Overloaded { .. }) => {}
                Err(_) => dead = true,
            }
        }
        if let Ok(p) = smartfam.submit_with_deadline("gate", &[], 1) {
            // Clean outcome is a typed deadline-expired reply; anything
            // else a fault may produce is equally acceptable.
            let _ = p.wait(budget(dead));
        }
        correct &= !strict || (sheds == 3 && served == 2);
        Ok(Self::finish(fw, correct))
    }

    /// Phase B — circuit breaker (§11): the two baked dispatch failures
    /// trip the breaker (threshold 2), the 3 ms cooldown steers two calls
    /// to the host, and a half-open probe re-admits the node for the rest.
    fn breaker(&self, injector: &FaultInjector, strict: bool) -> Result<PhaseRun, McsdError> {
        let fw = self.boot(injector, ROOMY, |r| {
            r.breaker = BreakerConfig {
                failure_threshold: 2,
                cooldown: Duration::from_millis(3),
                probe_quota: 1,
            };
            r.retry.max_attempts = 1;
        })?;
        let text = TextGen::with_seed(self.seed).generate(20_000);
        let correct = Self::wordcounts(&fw, "wc.txt", &text, Some("auto"), 6, strict)?;
        let mut run = Self::finish(fw, correct);
        // probe_quota is 1, so every half-open probe is preceded by its
        // own transition into the open state.
        run.observation.conservation.push(ConservationCheck::ge(
            "breaker opens >= half-open probes",
            run.resilience.overload.breaker_opens,
            run.resilience.overload.half_open_probes,
        ));
        Ok(run)
    }

    /// Phase C — retry: the host's first append is torn mid-frame (baked);
    /// the typed error is transient, so the resilient client backs off and
    /// retries, and the daemon's recovering reader skips the torn bytes.
    fn retry(&self, injector: &FaultInjector, strict: bool) -> Result<PhaseRun, McsdError> {
        let fw = self.boot(injector, ROOMY, |r| r.retry.max_attempts = 2)?;
        let text = TextGen::with_seed(self.seed).generate(20_000);
        let correct = Self::wordcounts(&fw, "wc.txt", &text, Some("auto"), 1, strict)?;
        Ok(Self::finish(fw, correct))
    }

    /// Phase D — memory admission: a 900 kB job onto a 1 MiB SD node is
    /// re-partitioned down to budget before dispatch.
    fn admission(&self, injector: &FaultInjector, strict: bool) -> Result<PhaseRun, McsdError> {
        let fw = self.boot(injector, 1 << 20, |r| r.retry.max_attempts = 2)?;
        let text = TextGen::with_seed(self.seed.wrapping_add(1)).generate(900_000);
        let correct = Self::wordcounts(&fw, "big.txt", &text, None, 1, strict)?;
        let mut run = Self::finish(fw, correct);
        // Re-partitioning is a host-side admission decision taken before
        // any fault-reachable dispatch, so it happens in every run,
        // injected or not.
        run.observation.conservation.push(ConservationCheck::ge(
            "over-budget job re-partitioned at least once",
            run.resilience.overload.repartitions,
            1,
        ));
        Ok(run)
    }
}

impl ChaosScenario for FourPhaseScenario {
    fn name(&self) -> &str {
        "four-phase"
    }

    fn segment_names(&self) -> Vec<String> {
        ["saturation", "breaker", "retry", "admission"]
            .map(String::from)
            .to_vec()
    }

    /// The faults the phases schedule by design; the sweep reports the
    /// points they occupy as shadowed rather than injecting them twice.
    fn baked_plan(&self, segment: usize) -> FaultPlan {
        match segment {
            1 => FaultPlan::none()
                .with(FaultSite::Dispatch, 0, FaultAction::Fail)
                .with(FaultSite::Dispatch, 1, FaultAction::Fail),
            2 => FaultPlan::none().with(
                FaultSite::HostAppend,
                0,
                FaultAction::Torn { keep_sixteenths: 8 },
            ),
            _ => FaultPlan::none(),
        }
    }

    // One representative action per corruption family keeps the sweep
    // inside the CI budget; crash coverage at dispatch stays complete.
    fn actions(&self, site: FaultSite) -> Vec<FaultAction> {
        match site {
            FaultSite::HostAppend => vec![FaultAction::Torn { keep_sixteenths: 8 }],
            FaultSite::SdAppend => vec![FaultAction::Corrupt { xor_mask: 0x20 }],
            FaultSite::Dispatch => vec![
                FaultAction::CrashBefore,
                FaultAction::CrashAfter,
                FaultAction::Fail,
            ],
            other => default_actions(other),
        }
    }

    fn run_segment(
        &self,
        segment: usize,
        injector: &FaultInjector,
    ) -> Result<ChaosObservation, McsdError> {
        self.run_phase(segment, injector).map(|r| r.observation)
    }
}
