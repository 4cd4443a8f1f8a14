//! The unified offload scheduling engine.
//!
//! One decision engine owns the full per-call state machine the paper's
//! framework describes — profile → [`OffloadDecision`] via memory-budget
//! admission ([`plan_admission`]) + per-SD [`CircuitBreaker`]s +
//! heartbeat-load steering → dispatch → bounded retry/re-dispatch → host
//! fallback → stats/trace/decision-log recording — and both front-ends
//! are thin shells over it: [`crate::framework::McsdFramework`] drives
//! [`Engine::run_call`] (one typed call against the live SD node) and
//! [`crate::multisd::MultiSdRunner`] drives [`Engine::run_span`] (one
//! input span against a pool of modelled SD nodes). A single-SD
//! `MultiSdRunner` and a `McsdFramework` therefore make *identical*
//! decisions — the engine-parity test asserts exactly that.
//!
//! The engine is also the sole owner of the scheduler-side overload
//! counters ([`OverloadStats`]: steered spans, re-partitions, breaker
//! opens and probes); the daemon keeps owning sheds, expiries and
//! replay/quarantine/skip accounting, merged at read time by
//! [`Engine::resilience_report`]. DESIGN.md §13 has the state-machine
//! diagram and the counter-ownership rule; `clippy.toml` disallows the
//! policy primitives everywhere else (DESIGN.md §9), so they cannot re-leak
//! into the front-ends.

#![expect(
    clippy::disallowed_types,
    reason = "the engine owns the per-SD circuit breakers (DESIGN.md §13)"
)]

use crate::admission::plan_admission;
use crate::breaker::{Admission, BreakerConfig, BreakerState, CircuitBreaker};
use crate::error::McsdError;
use crate::offload::{JobProfile, OffloadDecision, Offloader};
use mcsd_cluster::TimeBreakdown;
use mcsd_obs::names::{
    EVENT_MCSD_BREAKER_OPEN, EVENT_MCSD_BREAKER_PROBE, EVENT_MCSD_FALLBACK, EVENT_MCSD_OFFLOAD,
    EVENT_MCSD_REPARTITION, EVENT_MCSD_STEER, SPAN_MCSD_CALL,
};
use mcsd_obs::{ClockDomain, CounterFamily, SpanId, Tracer, TrackId};
use mcsd_phoenix::MemoryModel;
use mcsd_smartfam::{BatchStats, DaemonStats, OverloadStats, ResilienceStats};
use parking_lot::Mutex;
use std::time::Duration;

/// Logical-clock quantum ticked per scheduling decision (see
/// [`crate::breaker`]: the breakers run on decision counts, not wall
/// time, so seeded runs replay their open/probe/close transitions
/// exactly).
const BREAKER_QUANTUM: Duration = Duration::from_millis(1);

/// Decision-domain trace track carrying the engine's placement decisions
/// (`mcsd.*` events and [`SPAN_MCSD_CALL`] spans; DESIGN.md §12).
pub const MCSD_TRACE_TRACK: &str = "mcsd";

/// Cluster-domain trace track carrying analytic data-movement spans
/// (stage/fetch spans, widths in virtual µs of network+disk time).
pub const CLUSTER_TRACE_TRACK: &str = "cluster";

/// Scheduling knobs the engine needs from its front-end's configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Circuit-breaker tuning applied to every SD slot.
    pub breaker: BreakerConfig,
    /// Degrade to host execution when the SD path fails for good; when
    /// `false`, SD errors surface to the caller.
    pub fallback_to_host: bool,
    /// Steer offloads to the host when the daemon heartbeat reports at
    /// least this many queued requests.
    pub steer_queue_depth: u64,
    /// Floor for memory-budget admission re-partitioning.
    pub min_fragment_bytes: u64,
    /// Deterministic tracer for the engine's decision events.
    pub tracer: Tracer,
}

/// Memory-budget admission request for one SD offload.
#[derive(Debug, Clone)]
pub struct MemoryAdmission {
    /// Memory model of the target SD node.
    pub model: MemoryModel,
    /// Caller-supplied partition parameter, honoured verbatim when
    /// present (no planning happens).
    pub caller_partition: Option<String>,
    /// Bytes of input the job reads.
    pub input_bytes: u64,
    /// Working-set-to-input ratio of the job.
    pub footprint_factor: f64,
}

/// The host-side outcome of one resilient SD dispatch: payload + virtual
/// cost (or the terminal error), alongside the recovery counters the
/// attempt chain accumulated.
pub type SdDispatch = (Result<(Vec<u8>, TimeBreakdown), McsdError>, ResilienceStats);

/// Job-specific hooks [`Engine::run_call`] drives. A front-end implements
/// one spec per typed call (Word Count, String Match, MM…); the engine
/// owns the placement pipeline around the hooks.
pub trait OffloadCall {
    /// Final output type of the call.
    type Output;

    /// Job (and module) name used in decision logs, trace events, and
    /// degradation strings.
    fn job(&self) -> &'static str;

    /// Placement profile the offload policy decides on.
    fn profile(&self) -> JobProfile;

    /// Memory-budget admission request for the SD path; `None` (the
    /// default) for jobs that stage their operands in
    /// [`OffloadCall::prepare`] instead of reading already-staged input.
    fn admission(&self) -> Option<MemoryAdmission> {
        None
    }

    /// Stage operands and build the module invocation parameters (the
    /// engine appends the admission-planned partition parameter last).
    /// The returned [`TimeBreakdown`] is the staging cost, added to the
    /// dispatch cost on success.
    fn prepare(&mut self) -> Result<(Vec<String>, TimeBreakdown), McsdError>;

    /// Decode the module's response payload into the typed output.
    fn decode(&self, payload: &[u8]) -> Result<Self::Output, McsdError>;

    /// Run the job on the host — a planned host placement or a failover
    /// after the SD path failed for good.
    fn run_host(&mut self) -> Result<(Self::Output, TimeBreakdown), McsdError>;
}

/// How one input span eventually produced its output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpanOutcome {
    /// Clean first run on the span's primary SD node.
    Ok {
        /// Node that ran the span.
        node: String,
    },
    /// The first run failed; a retry on the same node succeeded.
    Retried {
        /// Node that ran the span.
        node: String,
    },
    /// The span left its primary node and was re-run elsewhere.
    Redispatched {
        /// Failed runs before the successful one.
        attempts: u32,
        /// Node (surviving SD or the host) that finally ran the span.
        node: String,
    },
    /// The span never ran on its primary node: the primary's circuit
    /// breaker was open, so the span was steered elsewhere *before* any
    /// attempt was wasted on it.
    Steered {
        /// Node (surviving SD or the host) that ran the span.
        node: String,
    },
    /// The span's module work completed, but its primary log replica
    /// failed during the quorum round. Instead of re-dispatching the
    /// whole span, the most-advanced acknowledged replica was promoted
    /// (deterministic tiebreak by lowest node id) and the completed
    /// output stands — recovery cost one promotion, not a recompute
    /// (DESIGN.md §15).
    Promoted {
        /// Node holding the promoted authoritative log copy.
        node: String,
        /// Group epoch after the promotion; appends from the deposed
        /// primary carry the old epoch and are fenced.
        epoch: u64,
    },
}

impl SpanOutcome {
    /// The node that produced this span's output (for a promoted span:
    /// the node now holding the authoritative log copy).
    pub fn node(&self) -> &str {
        match self {
            SpanOutcome::Ok { node }
            | SpanOutcome::Retried { node }
            | SpanOutcome::Redispatched { node, .. }
            | SpanOutcome::Steered { node }
            | SpanOutcome::Promoted { node, .. } => node,
        }
    }
}

/// How one multi-SD span eventually produced its output; the raw
/// classification [`Engine::run_span`] hands back to the front-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanDisposition {
    /// Slot (SD index, or the host slot = SD count) that ran the span.
    pub slot: usize,
    /// Failed runs before the successful one.
    pub failures: u32,
    /// Whether the span's primary node rejected it at its breaker gate.
    pub steered: bool,
}

impl SpanDisposition {
    /// Whether the span never ran on `primary` because the breaker
    /// steered it away before any attempt.
    pub fn left_primary(&self, primary: usize) -> bool {
        self.steered && self.slot != primary
    }

    /// Classify this disposition as the caller-facing [`SpanOutcome`],
    /// naming the node that finally ran the span.
    pub fn outcome(&self, primary: usize, node: String) -> SpanOutcome {
        if self.failures == 0 && self.left_primary(primary) {
            SpanOutcome::Steered { node }
        } else if self.failures == 0 {
            SpanOutcome::Ok { node }
        } else if self.slot == primary {
            SpanOutcome::Retried { node }
        } else {
            SpanOutcome::Redispatched {
                attempts: self.failures,
                node,
            }
        }
    }

    /// Whether the span's output came from a re-dispatch (failed runs
    /// followed by success away from the primary).
    pub fn redispatched(&self, primary: usize) -> bool {
        self.failures > 0 && self.slot != primary
    }

    /// Per-span recovery counters for the span's report: the successful
    /// run plus every failed one, counted as retries, with the
    /// re-dispatch flagged.
    pub fn span_stats(&self, primary: usize) -> ResilienceStats {
        ResilienceStats {
            attempts: u64::from(self.failures) + 1,
            retries: u64::from(self.failures),
            redispatches: u64::from(self.redispatched(primary)),
            ..ResilienceStats::default()
        }
    }
}

/// Everything the engine mutates, behind [`Engine`]'s one lock.
struct State {
    offloader: Offloader,
    /// One breaker per SD slot, persistent across calls/runs so a node
    /// that failed stays avoided until it proves itself.
    breakers: Vec<CircuitBreaker>,
    /// Logical clock driving the breakers (one quantum per decision).
    clock: Duration,
    /// Scheduler-owned overload counters (steers, re-partitions); breaker
    /// opens/probes live in the breakers and are merged at read time.
    overload: OverloadStats,
    /// Host-side recovery counters absorbed from dispatch outcomes.
    stats: ResilienceStats,
    /// Window-side batch counters absorbed from pipelined dispatches
    /// (the daemon owns the commit-side fields; merged at read time by
    /// [`Engine::batch_report`]).
    batch: BatchStats,
    degradations: Vec<String>,
    decision_log: Vec<(String, OffloadDecision)>,
}

impl State {
    /// The engine's own overload counters plus the breakers' cumulative
    /// opens and half-open probes.
    fn overload_totals(&self) -> OverloadStats {
        let mut totals = self.overload;
        totals.breaker_opens += self.breakers.iter().map(CircuitBreaker::opens).sum::<u64>();
        totals.half_open_probes += self
            .breakers
            .iter()
            .map(CircuitBreaker::half_open_probes)
            .sum::<u64>();
        totals
    }
}

/// Where the gate sent one call.
enum Gated {
    /// SD-admitted: dispatch `params` to the module, then settle against
    /// breaker slot `sd_index`.
    Sd {
        sd_index: usize,
        params: Vec<String>,
        staging: TimeBreakdown,
    },
    /// Host-placed, by policy or by a steer.
    Host(OffloadDecision),
}

/// The unified offload scheduler: decision state shared by every
/// front-end path (see the module docs).
pub struct Engine {
    state: Mutex<State>,
    /// SD slot count (= the host slot's index in [`Engine::run_span`]).
    sd_slots: usize,
    config: EngineConfig,
}

impl Engine {
    /// An engine over `offloader` with `sd_slots` breaker-gated SD slots
    /// (the framework gates its single live SD node with one slot; the
    /// multi-SD runner gives every modelled SD node its own).
    pub fn new(offloader: Offloader, sd_slots: usize, config: EngineConfig) -> Engine {
        let sd_slots = sd_slots.max(1);
        Engine {
            state: Mutex::new(State {
                offloader,
                breakers: vec![CircuitBreaker::new(config.breaker); sd_slots],
                clock: Duration::ZERO,
                overload: OverloadStats::default(),
                stats: ResilienceStats::default(),
                batch: BatchStats::default(),
                degradations: Vec::new(),
                decision_log: Vec::new(),
            }),
            sd_slots,
            config,
        }
    }

    /// Run `f` on the decision state under the engine's one lock.
    ///
    /// The lock rule (DESIGN.md §13): the guard never leaves this
    /// function, and every `f` is a closure in this file that touches
    /// `State` only — none calls a caller-supplied hook (`queued_load`,
    /// `prepare`, `dispatch`, `decode`, `run_host`, `attempt`) or this
    /// function again. Hooks may therefore call any public method of the
    /// engine they are running under, and there is no lock order to get
    /// wrong.
    fn with<R>(&self, f: impl FnOnce(&mut State) -> R) -> R {
        f(&mut self.state.lock())
    }

    /// Ask the policy where a job should run.
    pub fn decide(&self, profile: &JobProfile) -> OffloadDecision {
        self.with(|s| s.offloader.decide(profile))
    }

    /// Current state of each SD slot's circuit breaker, in slot order.
    pub fn breaker_states(&self) -> Vec<BreakerState> {
        self.with(|s| s.breakers.iter().map(CircuitBreaker::state).collect())
    }

    /// Current state of one slot's breaker (clamped to the last slot).
    pub fn breaker_state(&self, slot: usize) -> BreakerState {
        self.with(|s| s.breakers[slot.min(self.sd_slots - 1)].state())
    }

    /// Human-readable record of every graceful degradation, in order.
    pub fn degradations(&self) -> Vec<String> {
        self.with(|s| s.degradations.clone())
    }

    /// Where each call actually ran, in call order — including
    /// [`OffloadDecision::FallbackToHost`] entries for degraded runs.
    pub fn decision_log(&self) -> Vec<(String, OffloadDecision)> {
        self.with(|s| s.decision_log.clone())
    }

    /// Scheduler-side overload totals: the engine's own counters plus the
    /// breakers' cumulative opens and half-open probes.
    pub fn overload_totals(&self) -> OverloadStats {
        self.with(|s| s.overload_totals())
    }

    /// Overload counters accumulated since `baseline` (a prior
    /// [`Engine::overload_totals`] snapshot) — how a front-end scopes the
    /// engine's cumulative counters to one run's report. A counter the
    /// baseline is ahead of (not a snapshot of this engine) reads zero.
    pub fn overload_delta(&self, baseline: &OverloadStats) -> OverloadStats {
        self.overload_totals().since(baseline)
    }

    /// Recovery counters merged for a caller-facing report: the engine's
    /// dispatch/overload counters plus the daemon-owned replay, quarantine,
    /// skip, shed and expiry counts (owned there so they are never
    /// double-counted; DESIGN.md §13).
    pub fn resilience_report(&self, daemon: &DaemonStats) -> ResilienceStats {
        let (mut stats, overload) = self.with(|s| (s.stats, s.overload_totals()));
        stats.replayed += daemon.replayed;
        stats.quarantines += daemon.quarantined;
        stats.corrupt_skipped_bytes += daemon.corrupt_skipped_bytes;
        stats.overload.absorb(&overload);
        stats.overload.shed += daemon.shed;
        stats.overload.expired += daemon.expired;
        stats
    }

    /// Absorb the window-side [`BatchStats`] of one pipelined dispatch
    /// (occupancy, shrinks, reordered completions). The commit-side
    /// fields are daemon-owned and must stay zero in `stats` — mixing
    /// them in here would double-count them in [`Engine::batch_report`].
    pub fn absorb_batch(&self, stats: &BatchStats) {
        self.with(|s| s.batch.absorb(stats));
    }

    /// Batched-mode counters merged for a caller-facing report: the
    /// window-side fields the engine absorbed from pipelined dispatches
    /// plus the daemon-owned batch-commit fields (batches, coalesced
    /// appends, fsyncs), merged at read time exactly like
    /// [`Engine::resilience_report`] so neither side is double-counted.
    pub fn batch_report(&self, daemon: &BatchStats) -> BatchStats {
        let mut stats = self.with(|s| s.batch);
        stats.absorb(daemon);
        stats
    }

    /// The engine's decision trace track.
    pub fn trace_track(&self) -> TrackId {
        self.config
            .tracer
            .track(MCSD_TRACE_TRACK, ClockDomain::Decision)
    }

    /// Open the end-to-end span for one typed call; `None` when tracing
    /// is off.
    pub fn open_call_span(&self, job: &str) -> Option<(TrackId, SpanId)> {
        if !self.config.tracer.is_enabled() {
            return None;
        }
        let track = self.trace_track();
        let span = self
            .config
            .tracer
            .open(track, SPAN_MCSD_CALL, &[("job", job)]);
        Some((track, span))
    }

    /// Close a span opened by [`Engine::open_call_span`].
    pub fn close_call_span(&self, span: Option<(TrackId, SpanId)>) {
        if let Some((track, span)) = span {
            self.config.tracer.close(track, span);
        }
    }

    /// Record an analytic data-movement span on the cluster track; its
    /// width is the virtual network+disk time in microseconds.
    pub fn record_transfer(
        &self,
        name: &'static str,
        file: &str,
        bytes: u64,
        cost: &TimeBreakdown,
    ) {
        if !self.config.tracer.is_enabled() {
            return;
        }
        let track = self
            .config
            .tracer
            .track(CLUSTER_TRACE_TRACK, ClockDomain::Cluster);
        let ticks = (cost.network + cost.disk).as_micros() as u64;
        self.config.tracer.leaf_with(track, name, ticks, |a| {
            a.str("file", file);
            a.u64("bytes", bytes);
        });
    }

    /// Record one decision event on the engine's trace track.
    fn event(&self, name: &'static str, attrs: &[(&'static str, &str)]) {
        self.config.tracer.event(self.trace_track(), name, attrs);
    }

    /// Ask `slot`'s circuit breaker (clamped to the last SD slot) whether
    /// a request may go there, and trace a half-open probe. `tick` pays
    /// the decision's clock quantum first; a re-check of the slot a
    /// decision already paid for passes `false`.
    fn breaker_gate(&self, label: &str, slot: usize, tick: bool) -> Admission {
        let slot = slot.min(self.sd_slots - 1);
        let admission = self.with(|s| {
            if tick {
                s.clock += BREAKER_QUANTUM;
            }
            s.breakers[slot].admission(s.clock)
        });
        if admission == Admission::Probe {
            self.event(EVENT_MCSD_BREAKER_PROBE, &[("job", label)]);
        }
        admission
    }

    /// Report one dispatch outcome to `slot`'s breaker (clamped like
    /// [`Engine::breaker_gate`]; at the current clock, without ticking:
    /// the decision already paid its quantum) and trace a trip when it
    /// opens.
    fn breaker_feedback(&self, label: &str, slot: usize, ok: bool) {
        let slot = slot.min(self.sd_slots - 1);
        let tripped = self.with(|s| {
            let breaker = &mut s.breakers[slot];
            let opens_before = breaker.opens();
            if ok {
                breaker.on_success(s.clock);
            } else {
                breaker.on_failure(s.clock);
            }
            breaker.opens() > opens_before
        });
        if tripped {
            self.event(EVENT_MCSD_BREAKER_OPEN, &[("module", label)]);
        }
    }

    /// Memory-budget admission for an SD offload: decide the partition
    /// parameter. A caller-supplied partition parameter is honoured
    /// verbatim; otherwise an over-footprint job is re-partitioned
    /// adaptively (the halvings are counted) and a job that cannot fit
    /// even at the floor fragment is refused with the typed error.
    fn admit_memory(
        &self,
        job: &str,
        request: &MemoryAdmission,
    ) -> Result<Option<String>, McsdError> {
        if let Some(p) = &request.caller_partition {
            return Ok(Some(p.clone()));
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "the engine is plan_admission's one sanctioned caller (DESIGN.md §13)"
        )]
        let plan = plan_admission(
            &request.model,
            request.input_bytes,
            request.footprint_factor,
            self.config.min_fragment_bytes,
        )
        .map_err(|refusal| McsdError::MemoryOverflow {
            input_bytes: refusal.input_bytes,
            limit_bytes: refusal.limit_bytes,
            min_fragment_bytes: refusal.min_fragment_bytes,
        })?;
        if plan.repartitions > 0 {
            self.config
                .tracer
                .event_with(self.trace_track(), EVENT_MCSD_REPARTITION, |a| {
                    a.str("job", job);
                    a.u64("halvings", plan.repartitions);
                });
        }
        self.with(|s| s.overload.repartitions += plan.repartitions);
        Ok(plan.partition_param())
    }

    /// The gate, the first half of the per-call state machine: decide →
    /// breaker/load admission → memory admission → [`OffloadCall::prepare`].
    /// An `Err` (memory refusal, staging failure) is the call's result.
    fn gate<C: OffloadCall>(
        &self,
        call: &mut C,
        queued_load: impl FnOnce() -> Option<u64>,
    ) -> Result<Gated, McsdError> {
        let job = call.job();
        let decision = self.decide(&call.profile());
        let OffloadDecision::SmartStorage { sd_index } = decision else {
            return Ok(Gated::Host(decision));
        };
        let admitted = self.breaker_gate(job, sd_index, true) != Admission::Reject;
        // Even a closed breaker defers to a saturated daemon: a queue at
        // the steering threshold means the request would mostly wait (or
        // be shed), so the host is the faster and kinder choice.
        let saturated =
            admitted && queued_load().is_some_and(|queued| queued >= self.config.steer_queue_depth);
        if !admitted || saturated {
            let reason = if saturated {
                "daemon queue saturated"
            } else {
                "circuit breaker open"
            };
            self.event(EVENT_MCSD_STEER, &[("job", job), ("reason", reason)]);
            self.with(|s| {
                s.overload.steered_spans += 1;
                s.degradations
                    .push(format!("{job}: steered to host ({reason})"));
            });
            return Ok(Gated::Host(OffloadDecision::SteeredToHost));
        }
        let partition = match call.admission() {
            Some(request) => self.admit_memory(job, &request)?,
            None => None,
        };
        let (mut params, staging) = call.prepare()?;
        // Protocol rule, one copy here: the admission-planned partition
        // parameter always rides as the final module parameter.
        params.extend(partition);
        Ok(Gated::Sd {
            sd_index,
            params,
            staging,
        })
    }

    /// The settle, the second half: absorb the dispatch's recovery
    /// counters → breaker feedback → record the decision → decode; a
    /// dispatch that failed for good degrades to host execution, or
    /// surfaces its error when fallback is off.
    fn settle<C: OffloadCall>(
        &self,
        call: &mut C,
        sd_index: usize,
        staging: TimeBreakdown,
        (outcome, mut stats): SdDispatch,
    ) -> Result<(C::Output, TimeBreakdown), McsdError> {
        let job = call.job();
        // The daemon owns corrupt-skip accounting (DESIGN.md §10/§12):
        // the host's recovering reader skips the same corrupt bytes in
        // the same shared log the daemon's scan skips, and
        // `resilience_report` merges the daemon's count at read time —
        // absorbing the host's count here would double it. Per-call
        // outcomes still carry the host-side count for direct
        // `HostClient` callers.
        stats.corrupt_skipped_bytes = 0;
        self.with(|s| s.stats.absorb(&stats));
        self.breaker_feedback(job, sd_index, outcome.is_ok());
        match outcome {
            Ok((payload, cost)) => {
                self.event(EVENT_MCSD_OFFLOAD, &[("job", job)]);
                let decision = OffloadDecision::SmartStorage { sd_index };
                self.with(|s| s.decision_log.push((job.to_string(), decision)));
                Ok((call.decode(&payload)?, staging + cost))
            }
            Err(err) if self.config.fallback_to_host => {
                // The event carries the stable error *kind*, not the
                // rendered message — Display output can embed request
                // ids, which would break byte-identical traces.
                self.event(EVENT_MCSD_FALLBACK, &[("job", job), ("error", err.kind())]);
                self.with(|s| {
                    s.stats.failovers += 1;
                    s.degradations
                        .push(format!("{job}: {err}; degraded to host execution"));
                });
                self.settle_on_host(call, OffloadDecision::FallbackToHost)
            }
            Err(err) => Err(err),
        }
    }

    /// Record a host placement (policy, steer or failover) and run it.
    fn settle_on_host<C: OffloadCall>(
        &self,
        call: &mut C,
        decision: OffloadDecision,
    ) -> Result<(C::Output, TimeBreakdown), McsdError> {
        self.with(|s| s.decision_log.push((call.job().to_string(), decision)));
        call.run_host()
    }

    /// Drive the full per-call state machine for one typed offload call:
    /// gate → dispatch → settle (DESIGN.md §13), running
    /// [`OffloadCall::run_host`] on steer, host placement, or terminal SD
    /// failure.
    ///
    /// `queued_load` reads the daemon heartbeat's queued-request count
    /// (`None` when no heartbeat is available); `dispatch` performs one
    /// resilient module invocation. Both are closures so the engine stays
    /// ignorant of the transport.
    pub fn run_call<C: OffloadCall>(
        &self,
        call: &mut C,
        queued_load: impl FnOnce() -> Option<u64>,
        dispatch: impl FnOnce(&str, &[String]) -> SdDispatch,
    ) -> Result<(C::Output, TimeBreakdown), McsdError> {
        match self.gate(call, queued_load)? {
            Gated::Sd {
                sd_index,
                params,
                staging,
            } => {
                let dispatched = dispatch(call.job(), &params);
                self.settle(call, sd_index, staging, dispatched)
            }
            Gated::Host(decision) => self.settle_on_host(call, decision),
        }
    }

    /// Drive a *batch* of typed calls through the same gate and settle as
    /// [`Engine::run_call`], but with the SD dispatches grouped into one
    /// pipelined window instead of N lockstep round trips (DESIGN.md
    /// §18): gate each → one window → settle each.
    ///
    /// Every gate still applies **per request inside the batch**: each
    /// call pays its own breaker admission + heartbeat-load check, its
    /// own memory-budget admission, and its own breaker feedback; a call
    /// that fails its gate is steered to the host without disturbing its
    /// neighbours, and a call whose windowed dispatch fails degrades (or
    /// surfaces its error) individually. Only the transport is batched —
    /// and so every gate of the batch runs before any of its settles.
    ///
    /// `dispatch_window` receives the `(module, params)` pairs of every
    /// SD-admitted call, in submit order, and must return exactly one
    /// [`SdDispatch`] per pair, in the same order — the framework backs
    /// it with the host client's pipelined window. Results come back in
    /// call order regardless of the SD node's completion order.
    pub fn run_calls<C: OffloadCall>(
        &self,
        calls: &mut [C],
        queued_load: impl Fn() -> Option<u64>,
        dispatch_window: impl FnOnce(&[(String, Vec<String>)]) -> Vec<SdDispatch>,
    ) -> Vec<Result<(C::Output, TimeBreakdown), McsdError>> {
        let mut window: Vec<(String, Vec<String>)> = Vec::new();
        let mut gated = Vec::with_capacity(calls.len());
        for call in calls.iter_mut() {
            let mut placed = self.gate(call, &queued_load);
            // The window takes the params; the settle needs only the rest.
            if let Ok(Gated::Sd { params, .. }) = &mut placed {
                window.push((call.job().to_string(), std::mem::take(params)));
            }
            gated.push(placed);
        }
        let dispatched = if window.is_empty() {
            Vec::new()
        } else {
            dispatch_window(&window)
        };
        assert_eq!(
            dispatched.len(),
            window.len(),
            "dispatch_window must answer every admitted request"
        );
        let mut dispatched = dispatched.into_iter();
        calls
            .iter_mut()
            .zip(gated)
            .map(|(call, placed)| match placed? {
                Gated::Sd {
                    sd_index, staging, ..
                } => {
                    #[expect(
                        clippy::expect_used,
                        reason = "construction invariant: the loop above pushed one window entry per `Gated::Sd` and the assert matched the dispatches to the window one-to-one; running dry is a bug here that must fail loudly"
                    )]
                    let dispatch = dispatched.next().expect("one dispatch per admitted call");
                    self.settle(call, sd_index, staging, dispatch)
                }
                Gated::Host(decision) => self.settle_on_host(call, decision),
            })
            .collect()
    }

    /// Drive the re-dispatch chain for one multi-SD input span: primary
    /// slot, in-place retry, surviving SD slots in order, finally the
    /// host slot (= SD count), which is never breaker-gated and so
    /// terminates every chain. A `primary` that is not an SD slot is a
    /// [`McsdError::BadScenario`].
    ///
    /// `attempt(slot)` runs the span once on `slot` and reports whether
    /// an *injected* failure ate the output (`true` loses the run and
    /// moves down the chain; real errors propagate and abort the run).
    /// Consecutive gates of the same slot (the in-place retry) re-check
    /// the breaker at the current clock without ticking it, so one span
    /// costs exactly one decision quantum on its primary — the same
    /// budget a framework call pays, which is what keeps the two
    /// front-ends' breaker timelines aligned.
    pub fn run_span<T>(
        &self,
        span_index: usize,
        primary: usize,
        mut attempt: impl FnMut(usize) -> Result<(bool, T), McsdError>,
    ) -> Result<(SpanDisposition, T), McsdError> {
        let host_slot = self.sd_slots;
        if primary >= host_slot {
            return Err(McsdError::BadScenario {
                detail: format!(
                    "span {span_index}: primary slot {primary} is not one of the {host_slot} SD slots"
                ),
            });
        }
        let label = format!("span{span_index}");
        let mut candidates = vec![primary, primary];
        candidates.extend((0..host_slot).filter(|&j| j != primary));
        candidates.push(host_slot);

        let mut failures: u32 = 0;
        let mut steered = false;
        let mut gated: Option<usize> = None;
        for &slot in &candidates {
            // An SD candidate must get past its circuit breaker; the host
            // terminates every chain and is never gated.
            if slot != host_slot {
                let admission = self.breaker_gate(&label, slot, gated != Some(slot));
                gated = Some(slot);
                if admission == Admission::Reject {
                    if slot == primary {
                        steered = true;
                    }
                    continue;
                }
            }
            let (injected, out) = attempt(slot)?;
            if slot != host_slot {
                self.breaker_feedback(&label, slot, !injected);
            }
            if injected {
                failures += 1;
                continue;
            }
            let disposition = SpanDisposition {
                slot,
                failures,
                steered,
            };
            if disposition.left_primary(primary) {
                self.with(|s| s.overload.steered_spans += 1);
            }
            return Ok((disposition, out));
        }
        // Only an `attempt` that reports the host's run as lost gets here.
        Err(McsdError::BadScenario {
            detail: format!("span {span_index} exhausted its re-dispatch chain"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offload::OffloadPolicy;

    fn engine(slots: usize) -> Engine {
        Engine::new(
            Offloader::new(OffloadPolicy::AlwaysSd, slots),
            slots,
            EngineConfig {
                breaker: BreakerConfig {
                    failure_threshold: 1,
                    cooldown: Duration::from_millis(4),
                    probe_quota: 1,
                },
                fallback_to_host: true,
                steer_queue_depth: 64,
                min_fragment_bytes: 4096,
                tracer: Tracer::disabled(),
            },
        )
    }

    #[test]
    fn span_chain_walks_primary_retry_others_host() {
        let e = engine(3);
        let mut visited = Vec::new();
        // Every SD attempt reports an injected failure; the host ends it.
        let (d, ()) = e
            .run_span(0, 1, |slot| {
                visited.push(slot);
                Ok((slot != 3, ()))
            })
            .unwrap();
        // Primary fails, its breaker (threshold 1) opens, the in-place
        // retry is rejected at the gate, the survivors fail, host runs.
        assert_eq!(visited, vec![1, 0, 2, 3]);
        assert_eq!(d.slot, 3);
        assert_eq!(d.failures, 3);
        assert!(
            d.steered,
            "post-failure re-gate rejection counts as a steer"
        );
    }

    #[test]
    fn clean_span_costs_one_quantum_and_no_steer() {
        let e = engine(2);
        let (d, ()) = e.run_span(0, 0, |_| Ok((false, ()))).unwrap();
        assert_eq!((d.slot, d.failures, d.steered), (0, 0, false));
        assert!(!d.left_primary(0));
        assert_eq!(e.overload_totals(), OverloadStats::default());
        assert_eq!(e.with(|s| s.clock), Duration::from_millis(1));
    }

    #[test]
    fn open_primary_steers_without_attempting() {
        let e = engine(2);
        // Trip slot 0: one failed attempt at threshold 1.
        let _ = e.run_span(0, 0, |slot| Ok((slot == 0, ())));
        // Next span never attempts slot 0.
        let (d, ()) = e
            .run_span(1, 0, |slot| {
                assert_ne!(slot, 0, "open breaker must gate the primary");
                Ok((false, ()))
            })
            .unwrap();
        assert!(d.left_primary(0));
        assert_eq!(e.overload_totals().steered_spans, 2);
        assert_eq!(e.breaker_state(0), BreakerState::Open);
    }

    #[test]
    fn batch_report_merges_window_and_daemon_sides_at_read_time() {
        let e = engine(1);
        // The engine absorbs window-side counters from two pipelined
        // dispatches; the daemon-side snapshot arrives at read time.
        e.absorb_batch(&BatchStats {
            window_occupancy: 12,
            window_shrinks: 1,
            reordered_completions: 2,
            ..BatchStats::default()
        });
        e.absorb_batch(&BatchStats {
            window_occupancy: 8,
            ..BatchStats::default()
        });
        let daemon = BatchStats {
            batches: 3,
            coalesced_appends: 12,
            fsyncs: 3,
            ..BatchStats::default()
        };
        let merged = e.batch_report(&daemon);
        assert_eq!(merged.batches, 3);
        assert_eq!(merged.coalesced_appends, 12);
        assert_eq!(merged.fsyncs, 3);
        assert_eq!(merged.window_occupancy, 20);
        assert_eq!(merged.window_shrinks, 1);
        assert_eq!(merged.reordered_completions, 2);
        // Reading the report twice never double-counts either side.
        assert_eq!(e.batch_report(&daemon), merged);
    }

    #[test]
    fn overload_delta_scopes_cumulative_counters_to_one_run() {
        let e = engine(1);
        let _ = e.run_span(0, 0, |slot| Ok((slot == 0, ())));
        let baseline = e.overload_totals();
        assert_eq!(baseline.breaker_opens, 1);
        let _ = e.run_span(1, 0, |_| Ok((false, ())));
        let delta = e.overload_delta(&baseline);
        assert_eq!(delta.breaker_opens, 0);
        assert_eq!(delta.steered_spans, 1);
    }

    #[test]
    fn overload_delta_saturates_on_a_baseline_ahead_of_the_totals() {
        let ahead = OverloadStats {
            shed: 1,
            ..OverloadStats::default()
        };
        assert_eq!(engine(1).overload_delta(&ahead), OverloadStats::default());
    }

    #[test]
    fn span_primary_outside_the_sd_slots_is_a_typed_error() {
        let e = engine(2);
        // Slot 2 is the host slot of a two-SD engine; neither it nor
        // anything beyond names an SD primary.
        for primary in [2, 7] {
            let err = e
                .run_span(5, primary, |_| -> Result<(bool, ()), McsdError> {
                    panic!("a span without an SD primary must not be attempted")
                })
                .unwrap_err();
            assert!(
                matches!(&err, McsdError::BadScenario { detail } if detail.contains("span 5")),
                "unexpected error: {err}"
            );
        }
        assert_eq!(e.with(|s| s.clock), Duration::ZERO, "no quantum was paid");
    }

    #[test]
    fn span_chain_traces_breaker_trips_and_probes() {
        let (e, tracer) = scripted_engine(1, true);
        // Span 0 trips slot 0 (threshold 1); the next spans are steered
        // to slot 1 while it cools down (3 quanta), then one is admitted
        // as the probe and closes it again.
        let _ = e.run_span(0, 0, |slot| Ok((slot == 0, ())));
        for i in 1..=3 {
            let _ = e.run_span(i, 0, |_| Ok((false, ())));
        }
        assert_eq!(e.breaker_state(0), BreakerState::Closed);
        let trace = mcsd_obs::export::jsonl(&tracer);
        assert!(trace.contains(EVENT_MCSD_BREAKER_OPEN), "{trace}");
        assert!(trace.contains(EVENT_MCSD_BREAKER_PROBE), "{trace}");
    }

    /// What one scripted call of the driver tests below runs into.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Fate {
        Clean,
        DispatchError,
        LoadSteer,
        Repartition,
        MemoryRefusal,
        PrepareError,
        DecodeError,
        HostPolicy,
    }

    impl Fate {
        const ALL: [Fate; 8] = [
            Fate::Clean,
            Fate::DispatchError,
            Fate::LoadSteer,
            Fate::Repartition,
            Fate::MemoryRefusal,
            Fate::PrepareError,
            Fate::DecodeError,
            Fate::HostPolicy,
        ];

        fn name(self) -> &'static str {
            match self {
                Fate::Clean => "clean",
                Fate::DispatchError => "dispatch-error",
                Fate::LoadSteer => "load-steer",
                Fate::Repartition => "repartition",
                Fate::MemoryRefusal => "memory-refusal",
                Fate::PrepareError => "prepare-error",
                Fate::DecodeError => "decode-error",
                Fate::HostPolicy => "host-policy",
            }
        }

        /// A seeded mix of `n` fates that contains every fate.
        fn seeded(seed: u64, n: usize) -> Vec<Fate> {
            let mut rng = mcsd_smartfam::faults::SplitMix64::new(seed);
            let fates: Vec<Fate> = (0..n)
                .map(|_| Fate::ALL[(rng.next_u64() % Fate::ALL.len() as u64) as usize])
                .collect();
            for fate in Fate::ALL {
                assert!(fates.contains(&fate), "seed {seed} never draws {fate:?}");
            }
            fates
        }
    }

    /// What every hook of the driver tests does first when handed the
    /// engine it is running under: read and write it. If the engine held
    /// its lock across a hook, this would deadlock — so only the test
    /// with a watchdog hands the engine over.
    fn reenter(engine: Option<&Engine>) {
        let Some(engine) = engine else { return };
        let _ = engine.decision_log();
        let _ = engine.degradations();
        let _ = engine.breaker_state(0);
        let _ = engine.resilience_report(&DaemonStats::default());
        engine.absorb_batch(&BatchStats::default());
        engine.record_transfer("reenter", "f", 1, &TimeBreakdown::default());
    }

    /// An [`OffloadCall`] that plays out its [`Fate`]. `profile` — the
    /// first hook the gate calls — publishes the heartbeat load the
    /// drivers' `queued_load` closure reads next, because that closure is
    /// not told which call it is asked about.
    struct Scripted<'a> {
        engine: Option<&'a Engine>,
        id: usize,
        fate: Fate,
        load: &'a std::cell::Cell<u64>,
    }

    impl OffloadCall for Scripted<'_> {
        type Output = String;

        fn job(&self) -> &'static str {
            self.fate.name()
        }

        fn profile(&self) -> JobProfile {
            reenter(self.engine);
            self.load
                .set(if self.fate == Fate::LoadSteer { 64 } else { 0 });
            JobProfile {
                name: self.fate.name(),
                input_bytes: 1 << 20,
                compute_per_byte: 10.0,
                data_on_sd: self.fate != Fate::HostPolicy,
            }
        }

        fn admission(&self) -> Option<MemoryAdmission> {
            reenter(self.engine);
            // The `admission.rs` unit-test shapes: two halvings fit the
            // first; the second overflows even at the 4 KiB floor.
            let (total_bytes, input_bytes) = match self.fate {
                Fate::Repartition => (1_000_000, 900_000),
                Fate::MemoryRefusal => (1_000, 900),
                _ => return None,
            };
            Some(MemoryAdmission {
                model: MemoryModel::new(total_bytes),
                caller_partition: None,
                input_bytes,
                footprint_factor: 3.0,
            })
        }

        fn prepare(&mut self) -> Result<(Vec<String>, TimeBreakdown), McsdError> {
            reenter(self.engine);
            if self.fate == Fate::PrepareError {
                return Err(McsdError::BadScenario {
                    detail: format!("call {} cannot stage", self.id),
                });
            }
            Ok((
                vec![self.fate.name().to_string(), self.id.to_string()],
                TimeBreakdown::disk(Duration::from_micros(self.id as u64)),
            ))
        }

        fn decode(&self, payload: &[u8]) -> Result<String, McsdError> {
            reenter(self.engine);
            if self.fate == Fate::DecodeError {
                return Err(McsdError::BadScenario {
                    detail: format!("call {} got garbage back", self.id),
                });
            }
            Ok(format!("sd:{}", String::from_utf8_lossy(payload)))
        }

        fn run_host(&mut self) -> Result<(String, TimeBreakdown), McsdError> {
            reenter(self.engine);
            Ok((
                format!("host:{}", self.id),
                TimeBreakdown::compute(Duration::from_millis(2)),
            ))
        }
    }

    /// The transport stub both drivers dispatch through: echoes the
    /// params, or fails for good when they name [`Fate::DispatchError`].
    fn wire(engine: Option<&Engine>, module: &str, params: &[String]) -> SdDispatch {
        reenter(engine);
        let stats = ResilienceStats {
            attempts: 2,
            retries: 1,
            corrupt_skipped_bytes: 9,
            ..ResilienceStats::default()
        };
        if params[0] == Fate::DispatchError.name() {
            let dead = mcsd_smartfam::SmartFamError::DaemonDead {
                module: module.to_string(),
            };
            return (Err(dead.into()), stats);
        }
        let cost = TimeBreakdown::network(Duration::from_millis(1));
        (Ok((params.join("|").into_bytes(), cost)), stats)
    }

    fn scripted_engine(failure_threshold: u32, fallback_to_host: bool) -> (Engine, Tracer) {
        let tracer = Tracer::enabled();
        let engine = Engine::new(
            Offloader::new(OffloadPolicy::Balanced, 2),
            2,
            EngineConfig {
                breaker: BreakerConfig {
                    failure_threshold,
                    cooldown: Duration::from_millis(3),
                    probe_quota: 1,
                },
                fallback_to_host,
                tracer: tracer.clone(),
                ..engine(2).config
            },
        );
        (engine, tracer)
    }

    /// Drive `fates` through `engine`: one [`Engine::run_call`] per fate
    /// when `window` is `None`, else one [`Engine::run_calls`] per
    /// `window`-sized chunk; `reentrant` makes every hook [`reenter`] the
    /// engine. Returns the rendered per-call results.
    fn drive(
        engine: &Engine,
        fates: &[Fate],
        window: Option<usize>,
        reentrant: bool,
    ) -> Vec<String> {
        let hooked = reentrant.then_some(engine);
        let load = std::cell::Cell::new(0);
        let queued_load = || {
            reenter(hooked);
            Some(load.get())
        };
        let mut calls: Vec<Scripted<'_>> = fates
            .iter()
            .enumerate()
            .map(|(id, &fate)| Scripted {
                engine: hooked,
                id,
                fate,
                load: &load,
            })
            .collect();
        let results: Vec<_> = match window {
            None => calls
                .iter_mut()
                .map(|call| engine.run_call(call, queued_load, |m, p| wire(hooked, m, p)))
                .collect(),
            Some(n) => calls
                .chunks_mut(n)
                .flat_map(|chunk| {
                    engine.run_calls(chunk, queued_load, |requests| {
                        requests.iter().map(|(m, p)| wire(hooked, m, p)).collect()
                    })
                })
                .collect(),
        };
        results.iter().map(|r| format!("{r:?}")).collect()
    }

    /// Everything a front-end can read back from an engine after a run,
    /// bar the degradation strings (compared apart: a window records them
    /// in phase order, like its trace).
    fn observable(engine: &Engine) -> String {
        format!(
            "{:#?}",
            (
                engine.decision_log(),
                engine.overload_totals(),
                engine.resilience_report(&DaemonStats::default()),
                engine.breaker_states(),
            )
        )
    }

    /// `lines` of N lockstep calls in the order one window records them:
    /// every gate-phase line (one naming a `gate_marker`) first.
    fn gates_first(lines: Vec<String>, gate_markers: &[&str]) -> Vec<String> {
        let (gates, settles): (Vec<_>, Vec<_>) = lines
            .into_iter()
            .partition(|line| gate_markers.iter().any(|m| line.contains(m)));
        [gates, settles].concat()
    }

    /// The decision track's event lines, ticks stripped.
    fn events(tracer: &Tracer) -> Vec<String> {
        mcsd_obs::export::jsonl(tracer)
            .lines()
            .filter(|line| line.contains("\"type\":\"event\""))
            .map(|line| {
                let (head, tail) = line.split_once("\"at\":").unwrap();
                format!("{head}{}", tail.split_once(',').unwrap().1)
            })
            .collect()
    }

    #[test]
    fn a_window_of_one_is_run_call_to_the_byte() {
        // A low threshold and a short cooldown: dispatch errors trip the
        // breakers, so later calls are steered, probed and re-admitted,
        // and both drivers must walk that timeline identically.
        for fallback in [true, false] {
            let fates = Fate::seeded(42, 96);
            let (a, trace_a) = scripted_engine(2, fallback);
            let (b, trace_b) = scripted_engine(2, fallback);
            assert_eq!(
                drive(&a, &fates, None, false),
                drive(&b, &fates, Some(1), false)
            );
            assert_eq!(observable(&a), observable(&b));
            assert_eq!(a.degradations(), b.degradations());
            assert_eq!(
                mcsd_obs::export::jsonl(&trace_a),
                mcsd_obs::export::jsonl(&trace_b)
            );
            // The mix really crossed the breaker branches.
            let totals = a.overload_totals();
            assert!(totals.breaker_opens > 0 && totals.half_open_probes > 0);
            assert!(a
                .degradations()
                .iter()
                .any(|d| d.contains("circuit breaker open")));
            let failovers = a.resilience_report(&DaemonStats::default()).failovers;
            assert_eq!(failovers > 0, fallback);
        }
    }

    #[test]
    fn one_window_settles_like_n_calls() {
        // `run_calls` runs every gate of the window before any settle,
        // so no settle may change what a later gate sees: the breakers
        // never trip here (the window of one above covers them), and the
        // two records kept in event order — degradation strings and the
        // trace — agree up to that phase order.
        for fallback in [true, false] {
            let fates = Fate::seeded(7, 64);
            let (a, trace_a) = scripted_engine(u32::MAX, fallback);
            let (b, trace_b) = scripted_engine(u32::MAX, fallback);
            assert_eq!(
                drive(&a, &fates, None, false),
                drive(&b, &fates, Some(fates.len()), false)
            );
            assert_eq!(observable(&a), observable(&b));
            assert_eq!(
                b.degradations(),
                gates_first(a.degradations(), &["steered to host"])
            );
            assert_eq!(
                events(&trace_b),
                gates_first(
                    events(&trace_a),
                    &[EVENT_MCSD_STEER, EVENT_MCSD_REPARTITION]
                )
            );
        }
    }

    #[test]
    fn hooks_may_reenter_the_engine_they_run_under() {
        // A lock held across a hook would deadlock, not fail: run all
        // three drivers, every hook re-entering, on a thread of their own
        // and bound the wait.
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let (e, _) = scripted_engine(2, true);
            let fates = Fate::seeded(42, 96);
            drive(&e, &fates, None, true);
            drive(&e, &fates, Some(8), true);
            let span = e.run_span(0, 0, |slot| {
                reenter(Some(&e));
                Ok((slot == 0, ()))
            });
            done.send(span.is_ok()).unwrap();
        });
        let span_ok = finished
            .recv_timeout(Duration::from_secs(30))
            .expect("a hook that re-entered the engine deadlocked (or panicked)");
        assert!(span_ok);
    }
}
