//! The SD daemon's decisions (DESIGN.md §11, §18): admission, the gate,
//! module health, the books and the batch plan, and no I/O. `daemon.rs` is
//! its driver: it polls the logs, runs the modules on its workers and
//! appends what [`SdMachine`] answers, reaching the machine through one
//! lock. The machine is generic over the log a request came from, so its
//! tests queue plain module names.

use crate::batch::BatchStats;
use crate::codec::{encode_response_into, encode_retry_after, FrameView, HeartbeatLoad, Status};
use crate::daemon::{
    DaemonConfig, DaemonStats, QUARANTINE_THRESHOLD, SD_TRACE_TRACK, SHED_RETRY_AFTER,
};
use crate::faults::{FaultAction, FaultSite, SplitMix64, QUARANTINE_TOKEN};
use crate::log_file::{BatchAppendOutcome, TAIL_KEEP_BYTES};
use crate::module::{ModuleRegistry, ProcessingModule};
use mcsd_obs::names::{
    EVENT_SD_BATCH_COMMIT, EVENT_SD_BATCH_RETRY, EVENT_SD_COMPLETE, EVENT_SD_DISPATCH,
    EVENT_SD_EXPIRED, EVENT_SD_QUARANTINE, EVENT_SD_QUARANTINE_REJECTED, EVENT_SD_QUEUE,
    EVENT_SD_REPLAY, EVENT_SD_REQUEST, EVENT_SD_SHED, EVENT_SD_UNKNOWN_MODULE, SPAN_SD_BATCH,
};
use mcsd_obs::{ClockDomain, TrackId};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// What the machine asks of the log a request came from.
pub(crate) trait Log {
    /// The module the log belongs to.
    fn module(&self) -> &str;
}

/// One admitted-but-not-yet-dispatched request. The frame itself already
/// sits in the log file; this is just the dispatch ticket.
pub(crate) struct QueuedRequest<L> {
    pub(crate) log: L,
    pub(crate) id: u64,
    pub(crate) params: Vec<String>,
    pub(crate) expires_unix_ms: u64,
}

/// One answer on its way to a log: what the daemon owns of a response. It
/// is encoded from here into a buffer its sender keeps between answers —
/// never built as a frame, never copied.
pub(crate) struct Reply {
    id: u64,
    status: Status,
    /// The module's result as it returned it, or an error's message.
    payload: Vec<u8>,
}

impl Reply {
    fn new(id: u64, status: Status, payload: Vec<u8>) -> Reply {
        Reply {
            id,
            status,
            payload,
        }
    }

    fn error(id: u64, message: impl Into<String>) -> Reply {
        Reply::new(id, Status::Error, message.into().into_bytes())
    }

    /// Append the response frame to `out`; `batch` is its framing word.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>, batch: u64) {
        encode_response_into(out, self.id, self.status, &self.payload, batch);
    }
}

/// What the gate decided about one request.
pub(crate) enum Gated {
    /// Run the module.
    Run(Arc<dyn ProcessingModule>),
    /// Answer with this instead of running anything.
    Reject(Reply),
    /// An injected crash fired: the driver stops the daemon and answers
    /// nothing, after running this module for a crash after execution.
    Crash(Option<Arc<dyn ProcessingModule>>),
}

/// A decision for the driver to carry out, and the request it is about.
pub(crate) type Next<L> = (Gated, QueuedRequest<L>);

/// One request of a batch between its phases.
pub(crate) struct Planned<L> {
    pub(crate) req: QueuedRequest<L>,
    /// The module to run, when the gate let the request through.
    pub(crate) run: Option<Arc<dyn ProcessingModule>>,
    /// What the module returned, once its worker has run it.
    result: Option<Result<Vec<u8>, String>>,
    /// The answer to commit: the gate's reject or the completed result.
    pub(crate) reply: Option<Reply>,
}

/// One entry of a worker's bucket: the request's slot in the batch, and
/// the module's result once the worker has run it in place.
pub(crate) type BucketedRun = (usize, Option<Result<Vec<u8>, String>>);

/// Per-module failure tracking for poison-module quarantine.
#[derive(Default)]
struct ModuleHealth {
    consecutive_failures: u32,
    quarantined: bool,
}

/// Everything the daemon decides and books, as plain values: one owner,
/// so one lock in the driver guards all of it.
pub(crate) struct SdMachine<L> {
    /// The admission limits, the `Dispatch` fault's injector, the tracer.
    config: DaemonConfig,
    registry: ModuleRegistry,
    /// The `sd.daemon` track, which the driver's polls and heartbeats share.
    pub(crate) track: TrackId,
    queue: VecDeque<QueuedRequest<L>>,
    health: HashMap<String, ModuleHealth>,
    /// Module invocations handed to a worker and not yet finished.
    in_flight: usize,
    /// Parameter sets whose requests are answered, waiting to carry the
    /// next requests' parameters.
    spares: Vec<Vec<String>>,
    /// Monotonic batch id; starts at 0 so the first formed batch is 1 (the
    /// codec's batch-framing word treats 0 as "unbatched").
    batch_seq: u64,
    pub(crate) stats: DaemonStats,
    /// The commit-side half of the family; the window's fields stay zero
    /// here, and `BatchStats::absorb` merges the halves.
    pub(crate) batch: BatchStats,
}

impl<L: Log> SdMachine<L> {
    /// A machine under `config` serving `registry`.
    pub(crate) fn new(config: DaemonConfig, registry: ModuleRegistry) -> Self {
        SdMachine {
            track: config.tracer.track(SD_TRACE_TRACK, ClockDomain::Decision),
            config,
            registry,
            queue: VecDeque::new(),
            health: HashMap::new(),
            in_flight: 0,
            spares: Vec::new(),
            batch_seq: 0,
            stats: DaemonStats::default(),
            batch: BatchStats::default(),
        }
    }

    fn event(&self, event: &'static str, attrs: &[(&'static str, &str)]) {
        self.config.tracer.event(self.track, event, attrs);
    }

    /// The load the heartbeat publishes: slots taken, requests queued.
    pub(crate) fn load(&self) -> HeartbeatLoad {
        HeartbeatLoad {
            in_flight: self.in_flight as u64,
            queued: self.queue.len() as u64,
        }
    }

    /// A set to copy the next request's parameters into.
    pub(crate) fn spare(&mut self) -> Vec<String> {
        self.spares.pop().unwrap_or_default()
    }

    /// Keep `set` for a later request unless its strings together hold more
    /// than [`TAIL_KEEP_BYTES`] — one huge parameter is not held for ever —
    /// or admission's `max_in_flight + max_queued` sets are kept already.
    fn give(&mut self, set: Vec<String>) {
        let kept = self
            .config
            .max_in_flight
            .saturating_add(self.config.max_queued);
        if set.iter().map(String::capacity).sum::<usize>() <= TAIL_KEEP_BYTES
            && self.spares.len() < kept
        {
            self.spares.push(set);
        }
    }

    /// Take one unanswered request at `at`, the run's time in Unix ms:
    /// dispatch it now when a slot is free and nothing is ahead in line
    /// (never in batched mode, whose queue forms the batches), queue it when
    /// the queue has room (`None`), shed it otherwise.
    pub(crate) fn admit(
        &mut self,
        req: QueuedRequest<L>,
        replay: bool,
        at: u64,
    ) -> Option<Next<L>> {
        self.stats.requests += 1;
        // No request-id attr: raw ids embed the pid and a process-global
        // counter, which would break byte-identical traces (DESIGN.md §12).
        let module = [("module", req.log.module())];
        self.event(EVENT_SD_REQUEST, &module);
        if replay {
            self.stats.replayed += 1;
            self.event(EVENT_SD_REPLAY, &module);
        }
        let free = self.in_flight < self.config.max_in_flight;
        if self.config.batch.is_none() && free && self.queue.is_empty() {
            Some(self.dispatch(req, at))
        } else if self.queue.len() < self.config.max_queued {
            self.event(EVENT_SD_QUEUE, &module);
            self.queue.push_back(req);
            None
        } else {
            self.stats.shed += 1;
            self.event(EVENT_SD_SHED, &module);
            let retry_after = encode_retry_after(SHED_RETRY_AFTER).to_vec();
            let reply = Reply::new(req.id, Status::Overloaded, retry_after);
            Some((Gated::Reject(reply), req))
        }
    }

    /// The oldest queued request, gated, once an execution slot is free.
    pub(crate) fn next_live(&mut self, at: u64) -> Option<Next<L>> {
        if self.in_flight >= self.config.max_in_flight {
            return None;
        }
        let req = self.queue.pop_front()?;
        Some(self.dispatch(req, at))
    }

    /// Gate one request of the live path; a run holds a slot until
    /// [`SdMachine::finish`].
    fn dispatch(&mut self, req: QueuedRequest<L>, at: u64) -> Next<L> {
        let gated = self.gate(&req, at);
        if let Gated::Run(_) = gated {
            self.in_flight += 1;
        }
        (gated, req)
    }

    /// The per-request checks both dispatch paths apply, in this order:
    /// deadline, quarantine, registry lookup, the `sd.dispatch` event,
    /// injected dispatch faults. One decision stream, so lockstep and
    /// batched mode count, trace and refuse identically.
    fn gate(&mut self, req: &QueuedRequest<L>, at: u64) -> Gated {
        let (name, id) = (req.log.module(), req.id);
        // Deadline check at dequeue: the caller has already given up, so
        // the request is dropped — counted, answered, never executed.
        if req.expires_unix_ms != 0 && at >= req.expires_unix_ms {
            self.stats.expired += 1;
            self.event(EVENT_SD_EXPIRED, &[("module", name)]);
            return Gated::Reject(Reply::error(
                id,
                "deadline expired before dispatch; request dropped",
            ));
        }
        // Poison-module quarantine: refuse fast with a distinguishable
        // message so the host fails over instead of waiting out its
        // deadline.
        if self.health.get(name).is_some_and(|h| h.quarantined) {
            self.stats.quarantine_rejected += 1;
            self.event(EVENT_SD_QUARANTINE_REJECTED, &[("module", name)]);
            return Gated::Reject(Reply::error(
                id,
                format!(
                    "module {name:?} {QUARANTINE_TOKEN} {QUARANTINE_THRESHOLD} consecutive failures"
                ),
            ));
        }
        let Some(module) = self.registry.get(name) else {
            self.stats.unknown_module += 1;
            self.event(EVENT_SD_UNKNOWN_MODULE, &[("module", name)]);
            return Gated::Reject(Reply::error(
                id,
                format!("no module registered under {name:?}"),
            ));
        };
        self.event(EVENT_SD_DISPATCH, &[("module", name)]);
        // Injected dispatch faults: a crash (in batched mode nothing of the
        // batch commits, so the whole chunk is replayed next incarnation)
        // or a forced module failure.
        match self.config.injector.fire(FaultSite::Dispatch) {
            Some(FaultAction::CrashBefore) => Gated::Crash(None),
            Some(FaultAction::CrashAfter) => Gated::Crash(Some(module)),
            Some(FaultAction::Fail) => {
                Gated::Reject(self.complete(name, id, Err("injected module failure".into())))
            }
            _ => Gated::Run(module),
        }
    }

    /// Record one invocation result; flips the module into quarantine when
    /// it crosses the threshold of consecutive failures.
    fn note_result(&mut self, name: &str, failed: bool) {
        // Only a module's first result pays for an owned key.
        if !self.health.contains_key(name) {
            self.health
                .insert(name.to_string(), ModuleHealth::default());
        }
        let Some(entry) = self.health.get_mut(name) else {
            return;
        };
        if !failed {
            entry.consecutive_failures = 0;
            return;
        }
        entry.consecutive_failures += 1;
        if !entry.quarantined && entry.consecutive_failures >= QUARANTINE_THRESHOLD {
            entry.quarantined = true;
            self.stats.quarantined += 1;
            self.event(EVENT_SD_QUARANTINE, &[("module", name)]);
        }
    }

    /// Book one finished invocation — counters, module health, the
    /// `sd.complete` event — and turn its result into the reply. The driver
    /// appends the reply *after* this returns, so a host can never observe
    /// a completion whose daemon-side trace record is still pending (the
    /// determinism argument of DESIGN.md §12).
    fn complete(&mut self, name: &str, id: u64, result: Result<Vec<u8>, String>) -> Reply {
        let failed = result.is_err();
        if failed {
            self.stats.module_errors += 1;
        } else {
            self.stats.ok += 1;
        }
        self.note_result(name, failed);
        let status = if failed { "error" } else { "ok" };
        self.event(EVENT_SD_COMPLETE, &[("module", name), ("status", status)]);
        match result {
            Ok(payload) => Reply::new(id, Status::Ok, payload),
            Err(message) => Reply::error(id, message),
        }
    }

    /// A live-path worker is done with `req`: its slot and parameter set
    /// come back, and its result is booked into the reply.
    pub(crate) fn finish(
        &mut self,
        req: &mut QueuedRequest<L>,
        result: Result<Vec<u8>, String>,
    ) -> Reply {
        self.in_flight -= 1;
        self.give(std::mem::take(&mut req.params));
        self.complete(req.log.module(), req.id, result)
    }

    /// Phase 1 of a batch (DESIGN.md §18), serial in queue order: the next
    /// `max_batch` queued requests into `planned`, each through the
    /// lockstep path's gate, and each to run into the bucket of its
    /// module's worker. Returns the batch's id, or — `planned` left empty,
    /// so nothing of the batch commits — an injected crash; `None` when
    /// nothing is queued or batching is off.
    pub(crate) fn plan_batch(
        &mut self,
        at: u64,
        planned: &mut Vec<Planned<L>>,
        buckets: &mut Vec<Vec<BucketedRun>>,
    ) -> Option<Result<u64, Next<L>>> {
        let cfg = self.config.batch.filter(|_| !self.queue.is_empty())?;
        let size = cfg.max_batch.max(1).min(self.queue.len());
        self.batch_seq += 1;
        // Span width = requests in the batch: the batch is one decision-
        // clock unit whose extent measures coalescing, not wall time.
        let (tracer, track) = (&self.config.tracer, self.track);
        tracer.leaf_with(track, SPAN_SD_BATCH, size as u64, |a| {
            a.u64("size", size as u64);
        });
        while planned.len() < size {
            let Some(req) = self.queue.pop_front() else {
                break;
            };
            let (run, reply) = match self.gate(&req, at) {
                Gated::Run(module) => (Some(module), None),
                Gated::Reject(reply) => (None, Some(reply)),
                crash @ Gated::Crash(_) => {
                    planned.clear();
                    return Some(Err((crash, req)));
                }
            };
            planned.push(Planned {
                req,
                run,
                result: None,
                reply,
            });
        }
        let workers = cfg.workers.max(1);
        buckets.resize_with(workers, Vec::new);
        for (slot, p) in planned.iter().enumerate() {
            if p.run.is_some() {
                buckets[worker_for(cfg.seed, p.req.log.module(), workers)].push((slot, None));
            }
        }
        Some(Ok(self.batch_seq))
    }

    /// Phase 3 of a batch, serial in batch order: every result the workers
    /// left in `buckets` booked into its reply — still before any append
    /// (DESIGN.md §12) — and every parameter set given back.
    pub(crate) fn complete_batch(
        &mut self,
        planned: &mut [Planned<L>],
        buckets: &mut [Vec<BucketedRun>],
    ) {
        for (slot, result) in buckets.iter_mut().flat_map(|b| b.drain(..)) {
            planned[slot].result = result;
        }
        for p in planned.iter_mut() {
            self.give(std::mem::take(&mut p.req.params));
            if let Some(result) = p.result.take() {
                p.reply = Some(self.complete(p.req.log.module(), p.req.id, result));
            }
        }
    }

    /// Book one coalesced append of `frames` replies and, when it tore, the
    /// retry of the frames past its durable prefix.
    pub(crate) fn committed(&mut self, outcome: &BatchAppendOutcome, frames: usize) {
        let durable = outcome.frames_durable as u64;
        self.batch.batches += 1;
        self.batch.coalesced_appends += durable;
        self.batch.fsyncs += 1;
        let (tracer, track) = (&self.config.tracer, self.track);
        tracer.event_with(track, EVENT_SD_BATCH_COMMIT, |a| {
            a.u64("size", durable);
        });
        if outcome.torn {
            tracer.event_with(track, EVENT_SD_BATCH_RETRY, |a| {
                a.u64("retried", (frames - outcome.frames_durable) as u64);
            });
        }
    }
}

/// Stable seeded module→worker assignment: FNV-1a over the module name,
/// folded with the configured seed through a SplitMix64 finisher. One
/// worker owns each module (the shard-per-owner model), so a module's
/// requests never run concurrently, and the same seed always reproduces
/// the same assignment — never `DefaultHasher`, whose per-process random
/// keys would break same-seed trace identity.
pub(crate) fn worker_for(seed: u64, name: &str, workers: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (SplitMix64::new(h ^ seed).next_u64() % workers.max(1) as u64) as usize
}

/// Ids first: one frame of a poll, met at `offset`. A request is open
/// until a response follows it, and of several requests under one id only
/// the last can stay open, since a response answers every request before
/// it — so at the end of the poll `open` holds the offset of every request
/// to serve and nothing was copied to find them.
pub(crate) fn note_frame(open: &mut HashMap<u64, usize>, offset: usize, view: &FrameView<'_>) {
    if view.is_request() {
        open.insert(view.id, offset);
    } else {
        open.remove(&view.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchConfig;
    use crate::codec::{decode_retry_after, decode_view, scan, DecodeStep, Frame};
    use crate::error::SmartFamError;
    use crate::faults::{FaultInjector, FaultPlan};
    use crate::module::{FnModule, ModuleError};
    use std::sync::atomic::{AtomicU64, Ordering};

    type Name = &'static str;
    type Machine = SdMachine<Name>;
    /// A call's outcome as the host reads it.
    type Answer = Result<Vec<u8>, SmartFamError>;

    impl Log for Name {
        fn module(&self) -> &str {
            self
        }
    }

    fn machine(config: DaemonConfig) -> Machine {
        SdMachine::new(config, registry())
    }

    /// Runs of `count`, which one test calls.
    static COUNTED: AtomicU64 = AtomicU64::new(0);

    fn registry() -> ModuleRegistry {
        let r = ModuleRegistry::new();
        r.register(Arc::new(FnModule::new("upper", |p: &[String]| {
            Ok(p.join(" ").to_uppercase().into_bytes())
        })));
        r.register(Arc::new(FnModule::new("fail", |_: &[String]| {
            Err(ModuleError::new("intentional failure"))
        })));
        let calls = AtomicU64::new(0);
        r.register(Arc::new(FnModule::new("blinky", move |_: &[String]| {
            // fail, succeed, fail, succeed, ... — never two in a row.
            match calls.fetch_add(1, Ordering::Relaxed) % 2 {
                0 => Err(ModuleError::new("odd call")),
                _ => Ok(b"ok".to_vec()),
            }
        })));
        r.register(Arc::new(FnModule::new("count", |_: &[String]| {
            COUNTED.fetch_add(1, Ordering::Relaxed);
            Ok(b"ran".to_vec())
        })));
        r
    }

    fn request(log: Name, id: u64, expires_unix_ms: u64) -> QueuedRequest<Name> {
        QueuedRequest {
            log,
            id,
            params: vec![format!("r{id}")],
            expires_unix_ms,
        }
    }

    fn answer(module: Name, reply: Reply) -> Answer {
        let (module, payload) = (module.to_string(), reply.payload);
        match reply.status {
            Status::Ok => Ok(payload),
            Status::Error => {
                let message = String::from_utf8(payload).unwrap();
                Err(SmartFamError::ModuleFailed { module, message })
            }
            Status::Overloaded => Err(SmartFamError::Overloaded {
                module,
                retry_after: decode_retry_after(&payload).unwrap(),
            }),
        }
    }

    /// What the driver does with a decision, in place: run the module and
    /// book it, or take the answer.
    fn serve(sd: &mut Machine, (gated, mut req): Next<Name>) -> Answer {
        let reply = match gated {
            Gated::Run(module) => {
                let result = module.invoke(&req.params).map_err(|e| e.message);
                sd.finish(&mut req, result)
            }
            Gated::Reject(reply) => reply,
            Gated::Crash(_) => panic!("no crash was planned"),
        };
        answer(req.log, reply)
    }

    /// One call admitted at `at` with nothing else in flight, served at once.
    fn invoke(sd: &mut Machine, module: Name, expires: u64, at: u64) -> Answer {
        let next = sd.admit(request(module, 0, expires), false, at);
        serve(sd, next.expect("dispatched at once"))
    }

    #[test]
    fn unknown_module_is_answered() {
        let mut sd = machine(DaemonConfig::new("logs"));
        match invoke(&mut sd, "nonexistent", 0, 0) {
            Err(SmartFamError::ModuleFailed { message, .. }) => {
                assert!(message.contains("no module registered"));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(sd.stats.unknown_module, 1);
    }

    #[test]
    fn failing_module_is_quarantined_with_distinguishable_message() {
        let mut sd = machine(DaemonConfig::new("logs"));
        // `QUARANTINE_THRESHOLD` real failures cross the threshold...
        for _ in 0..QUARANTINE_THRESHOLD {
            let err = invoke(&mut sd, "fail", 0, 0).unwrap_err();
            assert!(!err.is_quarantined(), "real failure misclassified: {err}");
        }
        // ...after which the daemon refuses immediately with the token.
        let err = invoke(&mut sd, "fail", 0, 0).unwrap_err();
        assert!(err.is_quarantined(), "expected quarantine refusal: {err}");
        let stats = sd.stats;
        assert_eq!(stats.quarantined, 1);
        assert_eq!(stats.quarantine_rejected, 1);
        assert_eq!(stats.module_errors, u64::from(QUARANTINE_THRESHOLD));
    }

    #[test]
    fn success_resets_the_consecutive_failure_count() {
        let mut sd = machine(DaemonConfig::new("logs"));
        // Without the reset, the failures alone would cross the threshold.
        for i in 0..2 * QUARANTINE_THRESHOLD {
            let res = invoke(&mut sd, "blinky", 0, 0);
            if i % 2 == 0 {
                let err = res.unwrap_err();
                assert!(
                    !err.is_quarantined(),
                    "alternating module quarantined: {err}"
                );
            } else {
                assert_eq!(res.unwrap(), b"ok");
            }
        }
        assert_eq!(sd.stats.quarantined, 0);
    }

    /// One saturation run: 6 requests under `max_in_flight = 1,
    /// max_queued = 2`, every admission decided before any request
    /// finishes — the shed count is decided by arithmetic, not timing.
    fn saturation_run() -> DaemonStats {
        let config = DaemonConfig::new("logs").with_admission(1, 2);
        let mut sd = machine(config);
        let mut running = Vec::new();
        for i in 0..6 {
            match sd.admit(request("upper", i, 0), true, 0) {
                None => {}
                Some(run @ (Gated::Run(_), _)) => running.push(run),
                Some(shed) => match serve(&mut sd, shed) {
                    Err(SmartFamError::Overloaded { retry_after, .. }) => {
                        assert!(i >= 3, "request {i} should have been served");
                        assert_eq!(retry_after, SHED_RETRY_AFTER);
                    }
                    other => panic!("request {i}: unexpected outcome {other:?}"),
                },
            }
        }
        assert!(sd.next_live(0).is_none(), "the one slot is taken");
        // Every admission decision is already made; serve the admitted.
        while let Some(next) = running.pop().or_else(|| sd.next_live(0)) {
            let i = next.1.id;
            assert!(i < 3, "request {i} should have been shed");
            assert_eq!(serve(&mut sd, next).unwrap(), format!("R{i}").into_bytes());
        }
        sd.stats
    }

    #[test]
    fn spare_sets_are_kept_to_the_byte_and_count_limits() {
        // Admission holds two requests at most, so two sets are kept.
        let mut sd = machine(DaemonConfig::new("logs").with_admission(1, 1));
        for bytes in [TAIL_KEEP_BYTES, TAIL_KEEP_BYTES + 1, 8, 8] {
            sd.give(vec![String::with_capacity(bytes)]);
        }
        let kept = [(); 3].map(|_| sd.spare().iter().map(String::capacity).sum::<usize>());
        assert_eq!(kept, [8, TAIL_KEEP_BYTES, 0]);
    }

    #[test]
    fn saturated_queue_sheds_typed_and_deterministically() {
        let first = saturation_run();
        assert_eq!(first.requests, 6);
        assert_eq!(first.ok, 3);
        assert_eq!(first.shed, 3);
        assert_eq!(first.expired, 0);
        // No hangs, no lost accepted requests — and the counters replay
        // exactly on an identical run.
        let second = saturation_run();
        assert_eq!(first, second, "shed counts must replay exactly");
    }

    #[test]
    fn expired_request_is_dropped_at_dequeue_without_executing() {
        let mut sd = machine(DaemonConfig::new("logs"));
        // The run's time stands at `t`. An expiry is passed once
        // `now >= expires`; 0 is no deadline.
        let t = 1_000_000;
        let outcomes = [1, t, t + 1, 0].map(|expires| invoke(&mut sd, "count", expires, t));
        for dropped in &outcomes[..2] {
            // Answered (typed), never executed.
            let err = dropped.as_ref().unwrap_err();
            assert!(err.to_string().contains("deadline expired"), "{err}");
        }
        for ran in &outcomes[2..] {
            assert_eq!(ran.as_ref().unwrap(), b"ran");
        }
        // After the clock steps back, an expiry of `t` is in the future.
        assert_eq!(invoke(&mut sd, "count", t, t - 1).unwrap(), b"ran");
        assert_eq!(sd.stats.expired, 2);
        assert_eq!(COUNTED.load(Ordering::Relaxed), 3);
    }

    /// Phase 1 of a batch over `sd`'s queue, at time 5.
    fn plan(sd: &mut Machine) -> (Result<u64, Next<Name>>, Vec<Planned<Name>>) {
        let (mut planned, mut buckets) = (Vec::new(), Vec::new());
        let batch = sd.plan_batch(5, &mut planned, &mut buckets);
        // Phase 2, as the driver's workers run it.
        for (slot, result) in buckets.iter_mut().flatten() {
            let p = &planned[*slot];
            let run = |m: &Arc<dyn ProcessingModule>| m.invoke(&p.req.params);
            *result = p.run.as_ref().map(|m| run(m).map_err(|e| e.message));
        }
        sd.complete_batch(&mut planned, &mut buckets);
        (batch.expect("a queued batch"), planned)
    }

    #[test]
    fn batched_mode_keeps_rejection_semantics_per_request_inside_a_batch() {
        let config = DaemonConfig::new("logs").with_batching(BatchConfig::default());
        let mut sd = machine(config);
        // One expired, one unknown-module, one good request — all in the
        // same batch; each must get its own typed answer.
        for (id, module, expires) in [(0, "upper", 1), (1, "nonexistent", 0), (2, "upper", 0)] {
            assert!(sd.admit(request(module, id, expires), true, 5).is_none());
        }
        let (batch, planned) = plan(&mut sd);
        assert_eq!(batch.ok(), Some(1));
        let mut answers = planned
            .into_iter()
            .map(|p| answer(p.req.log, p.reply.unwrap()));
        let err = answers.next().unwrap().unwrap_err();
        assert!(err.to_string().contains("deadline expired"), "{err}");
        let err = answers.next().unwrap().unwrap_err();
        assert!(err.to_string().contains("no module registered"), "{err}");
        assert_eq!(answers.next().unwrap().unwrap(), b"R2");
        assert_eq!(sd.stats.expired, 1);
        assert_eq!(sd.stats.unknown_module, 1);
        assert_eq!(sd.stats.ok, 1);
    }

    #[test]
    fn a_crash_in_phase_1_commits_nothing_of_its_batch() {
        // The second request's dispatch crashes, after the first passed.
        let faults = FaultPlan::none().with(FaultSite::Dispatch, 1, FaultAction::CrashBefore);
        let config = DaemonConfig::new("logs")
            .with_batching(BatchConfig::default())
            .with_faults(FaultInjector::new(faults));
        let mut sd = machine(config);
        for id in 0..3 {
            assert!(sd.admit(request("upper", id, 0), false, 5).is_none());
        }
        let (batch, planned) = plan(&mut sd);
        assert!(matches!(
            batch,
            Err((Gated::Crash(None), QueuedRequest { id: 1, .. }))
        ));
        // Nothing is left to commit; replay answers all three next time.
        assert!(planned.is_empty());
        assert_eq!((sd.stats.ok, sd.batch.batches), (0, 0));
    }

    #[test]
    fn worker_for_pins_each_module_by_seed_and_name_alone() {
        let pins = ["echo0", "echo1", "upper", "wordcount"].map(|m| worker_for(42, m, 4));
        assert_eq!(pins, [2, 0, 2, 0]);
        // Zero workers are one.
        assert_eq!(worker_for(42, "upper", 0), 0);
    }

    proptest::proptest! {
        /// The selection against the rule read off the log directly: a
        /// request is served iff no later frame answers it and no later
        /// request repeats its id.
        #[test]
        fn unanswered_selection_matches_the_quadratic_oracle(
            codes in proptest::collection::vec(0u64..15, 0..48),
        ) {
            // Five ids, so duplicates are the common case; responses come
            // unbatched and batch-framed.
            let log: Vec<Frame> = codes
                .iter()
                .enumerate()
                .map(|(at, code)| match code / 5 {
                    0 => Frame::request(code % 5, vec![at.to_string()]),
                    1 => Frame::response_ok(code % 5, vec![at as u8]),
                    _ => Frame::response_ok(code % 5, vec![at as u8]).in_batch(1, at as u64),
                })
                .collect();
            let expect: Vec<Frame> = log
                .iter()
                .enumerate()
                .filter(|(at, frame)| {
                    frame.is_request() && log[at + 1..].iter().all(|later| later.id != frame.id)
                })
                .map(|(_, frame)| frame.clone())
                .collect();
            // The daemon's own steps: ids first over a scan in place, then
            // the frames under the offsets left, in offset order.
            let bytes: Vec<u8> = log.iter().flat_map(Frame::encode).collect();
            let mut open = HashMap::new();
            scan(&bytes, 0, false, |offset, view| note_frame(&mut open, offset, &view));
            let mut offsets: Vec<usize> = open.into_values().collect();
            offsets.sort_unstable();
            let frames: Vec<Frame> = offsets
                .iter()
                .map(|&offset| match decode_view(&bytes[offset..]) {
                    DecodeStep::Complete { frame, .. } => frame.to_frame(),
                    other => panic!("{other:?}"),
                })
                .collect();
            proptest::prop_assert_eq!(frames, expect);
        }
    }
}
