//! The SD-side daemon.
//!
//! "The Daemon program opens the module's log file to retrieve the input
//! parameters passed from the host … the data-intensive module is invoked
//! by the Daemon program; the input parameters are passed from Daemon to
//! the module" (§IV-A, steps 3–4). Results are appended to the same log
//! file, where the host's watcher finds them.
//!
//! Fault tolerance (paper §VI future work): the daemon writes a heartbeat
//! file the host can probe, and on startup it replays each log file from
//! the beginning, answering any request that never received a response —
//! so a daemon crash/restart does not lose offloaded work.
//!
//! Overload protection: admission is bounded by `max_in_flight` running
//! invocations plus `max_queued` waiting ones. A request beyond both
//! limits is *shed* — answered immediately with a typed
//! [`Status::Overloaded`](crate::codec::Status) frame carrying a retry
//! delay — rather than silently queued. Requests carrying an absolute
//! expiry that has already passed by dequeue time are dropped (counted,
//! never executed): the caller has given up, so burning SD CPU on the
//! answer only deepens the overload. The heartbeat file publishes the
//! current load ([`HeartbeatLoad`]) so hosts can observe pressure without
//! a request round trip.

use crate::batch::{BatchConfig, BatchStats};
use crate::codec::{
    batch_word, encode_response_into, encode_retry_after, FrameView, HeartbeatLoad,
    HeartbeatRecord, Status, ViewBody,
};
use crate::faults::{FaultAction, FaultInjector, FaultSite, SplitMix64, QUARANTINE_TOKEN};
use crate::log_file::{give_back, module_of, LogFile, LogRole, TAIL_KEEP_BYTES};
use crate::module::{ModuleRegistry, ProcessingModule};
use crate::watch::{FileWatcher, WatchConfig, WatchEventKind};
use mcsd_obs::names::{
    EVENT_SD_BATCH_COMMIT, EVENT_SD_BATCH_RETRY, EVENT_SD_COMPLETE, EVENT_SD_DISPATCH,
    EVENT_SD_EXPIRED, EVENT_SD_HEARTBEAT, EVENT_SD_POLL, EVENT_SD_QUARANTINE,
    EVENT_SD_QUARANTINE_REJECTED, EVENT_SD_QUEUE, EVENT_SD_REPLAY, EVENT_SD_REQUEST, EVENT_SD_SHED,
    EVENT_SD_UNKNOWN_MODULE, SPAN_SD_BATCH,
};
use mcsd_obs::{ClockDomain, CounterFamily, Tracer, TrackId};
use mcsd_phoenix::{wall_clock_ms, Stopwatch};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;
use std::time::Duration;

/// Default [`DaemonConfig::max_in_flight`].
pub const DEFAULT_MAX_IN_FLIGHT: usize = 64;
/// Default [`DaemonConfig::max_queued`].
pub const DEFAULT_MAX_QUEUED: usize = 1024;
/// How often the heartbeat file is refreshed.
pub const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(50);
/// A module failing this many *consecutive* invocations is quarantined:
/// later requests get an immediate error response carrying
/// [`QUARANTINE_TOKEN`] so hosts fail over instead of burning their
/// deadline.
pub const QUARANTINE_THRESHOLD: u32 = 3;
/// Retry delay suggested in shed replies.
pub const SHED_RETRY_AFTER: Duration = Duration::from_millis(50);

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// The NFS-shared log-file folder.
    pub log_dir: PathBuf,
    /// Admission control: module invocations allowed to run at once.
    pub max_in_flight: usize,
    /// Admission control: requests allowed to wait for a free execution
    /// slot. A request arriving with the queue full is shed with a typed
    /// `Overloaded` reply instead of queueing unboundedly.
    pub max_queued: usize,
    /// Fault injector (disabled by default; tests install seeded plans).
    pub injector: FaultInjector,
    /// Tracer for daemon lifecycle events (disabled by default). Durable
    /// events land on the `sd.daemon` decision-domain track in log-scan
    /// order; heartbeats and polls are recorded volatile (DESIGN.md §12).
    pub tracer: Tracer,
    /// Batched dispatch (off by default — `None` keeps the lockstep
    /// request/response path byte-identical to previous releases). When
    /// set, admitted requests are drained in batches of up to
    /// `max_batch`, executed by a seeded multi-worker pool that keeps
    /// serial-per-module order, and answered through coalesced
    /// one-fsync append batches (DESIGN.md §18).
    pub batch: Option<BatchConfig>,
}

impl DaemonConfig {
    /// Defaults rooted at `log_dir`.
    pub fn new(log_dir: impl Into<PathBuf>) -> Self {
        DaemonConfig {
            log_dir: log_dir.into(),
            max_in_flight: DEFAULT_MAX_IN_FLIGHT,
            max_queued: DEFAULT_MAX_QUEUED,
            injector: FaultInjector::disabled(),
            tracer: Tracer::disabled(),
            batch: None,
        }
    }

    /// Install a fault injector (builder style).
    pub fn with_faults(mut self, injector: FaultInjector) -> Self {
        self.injector = injector;
        self
    }

    /// Attach a tracer (builder style).
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Set the admission limits (builder style).
    pub fn with_admission(mut self, max_in_flight: usize, max_queued: usize) -> Self {
        self.max_in_flight = max_in_flight.max(1);
        self.max_queued = max_queued;
        self
    }

    /// Enable the batched multi-worker dispatch path (builder style).
    pub fn with_batching(mut self, batch: BatchConfig) -> Self {
        self.batch = Some(batch);
        self
    }
}

/// Name of the heartbeat file inside the log dir.
pub const HEARTBEAT_FILE: &str = "daemon.heartbeat";

/// Name of the decision-domain track daemon lifecycle events land on.
pub const SD_TRACE_TRACK: &str = "sd.daemon";

/// Snapshot of daemon counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DaemonStats {
    /// Requests seen.
    pub requests: u64,
    /// Requests answered successfully.
    pub ok: u64,
    /// Requests whose module returned an error.
    pub module_errors: u64,
    /// Requests naming a module that is not registered.
    pub unknown_module: u64,
    /// Requests answered by the startup replay scan (left over from a
    /// previous daemon incarnation).
    pub replayed: u64,
    /// Modules put into quarantine.
    pub quarantined: u64,
    /// Requests refused because their module was quarantined.
    pub quarantine_rejected: u64,
    /// Provably-corrupt log bytes the daemon's recovering reads skipped.
    pub corrupt_skipped_bytes: u64,
    /// Requests shed at admission (queue full) with a typed `Overloaded`
    /// reply — never executed.
    pub shed: u64,
    /// Requests dropped at dequeue because their deadline had already
    /// passed — never executed.
    pub expired: u64,
}

mcsd_obs::counter_family!(DaemonStats {
    owner: "smartfam.daemon",
    prefix: "sd",
    counters: [
        requests,
        ok,
        module_errors,
        unknown_module,
        replayed,
        quarantined,
        quarantine_rejected,
        corrupt_skipped_bytes,
        shed,
        expired,
    ],
});

impl DaemonStats {
    /// Merge another daemon's counters into this one — for reporting
    /// paths that aggregate several daemon incarnations (or several
    /// scenario phases) into one set of totals.
    pub fn absorb(&mut self, other: &DaemonStats) {
        CounterFamily::absorb(self, other);
    }
}

#[derive(Default)]
struct StatsInner {
    requests: AtomicU64,
    ok: AtomicU64,
    module_errors: AtomicU64,
    unknown_module: AtomicU64,
    replayed: AtomicU64,
    quarantined: AtomicU64,
    quarantine_rejected: AtomicU64,
    corrupt_skipped_bytes: AtomicU64,
    shed: AtomicU64,
    expired: AtomicU64,
}

impl StatsInner {
    fn snapshot(&self) -> DaemonStats {
        DaemonStats {
            requests: self.requests.load(Ordering::Relaxed),
            ok: self.ok.load(Ordering::Relaxed),
            module_errors: self.module_errors.load(Ordering::Relaxed),
            unknown_module: self.unknown_module.load(Ordering::Relaxed),
            replayed: self.replayed.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            quarantine_rejected: self.quarantine_rejected.load(Ordering::Relaxed),
            corrupt_skipped_bytes: self.corrupt_skipped_bytes.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
        }
    }
}

/// Daemon-side half of the [`BatchStats`] family, kept as atomics so the
/// handle can snapshot while the dispatch loop is live. The host-side
/// window fields stay zero here; `BatchStats::absorb` merges the halves.
#[derive(Default)]
struct BatchInner {
    batches: AtomicU64,
    coalesced_appends: AtomicU64,
    fsyncs: AtomicU64,
}

impl BatchInner {
    fn snapshot(&self) -> BatchStats {
        BatchStats {
            batches: self.batches.load(Ordering::Relaxed),
            coalesced_appends: self.coalesced_appends.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            ..BatchStats::default()
        }
    }
}

/// Per-module failure tracking for poison-module quarantine.
#[derive(Default)]
struct ModuleHealth {
    consecutive_failures: u32,
    quarantined: bool,
}

/// What a finished invocation is booked against: one per daemon, shared
/// by the dispatch loop and its workers.
struct Books {
    stats: Arc<StatsInner>,
    health: Mutex<HashMap<String, ModuleHealth>>,
    /// Module invocations running (or handed to a worker) right now.
    in_flight: AtomicU64,
    /// Tracer handle plus the `sd.daemon` track it emits on.
    trace: (Tracer, TrackId),
    spare_params: SpareParams,
}

/// Parameter sets whose requests are answered, waiting to carry the next
/// requests' parameters: the loop takes one for each request it copies
/// out, and a set comes back once its reply is appended. A module log has
/// one owner at a time, so a set only ever moves loop → worker → here.
struct SpareParams {
    sets: Mutex<Vec<Vec<String>>>,
    /// `max_in_flight + max_queued`: admission holds no more requests at
    /// once, so a replay burst past it drops the extra sets.
    keep: usize,
}

impl SpareParams {
    fn take(&self) -> Vec<String> {
        self.sets.lock().pop().unwrap_or_default()
    }

    /// Keep `set` unless the list is full or its strings together hold
    /// more than [`TAIL_KEEP_BYTES`] — one huge parameter is not held for
    /// ever.
    fn give(&self, set: Vec<String>) {
        if set.iter().map(String::capacity).sum::<usize>() > TAIL_KEEP_BYTES {
            return;
        }
        let mut sets = self.sets.lock();
        if sets.len() < self.keep {
            sets.push(set);
        }
    }
}

impl Books {
    fn event(&self, event: &'static str, attrs: &[(&'static str, &str)]) {
        self.trace.0.event(self.trace.1, event, attrs);
    }

    /// Record one invocation result; flips the module into quarantine when
    /// it crosses the threshold of consecutive failures.
    fn note_result(&self, name: &str, failed: bool) {
        let mut map = self.health.lock();
        // Only a module's first result pays for an owned key.
        if !map.contains_key(name) {
            map.insert(name.to_string(), ModuleHealth::default());
        }
        let Some(entry) = map.get_mut(name) else {
            return;
        };
        if failed {
            entry.consecutive_failures += 1;
            if !entry.quarantined && entry.consecutive_failures >= QUARANTINE_THRESHOLD {
                entry.quarantined = true;
                self.stats.quarantined.fetch_add(1, Ordering::Relaxed);
                self.event(EVENT_SD_QUARANTINE, &[("module", name)]);
            }
        } else {
            entry.consecutive_failures = 0;
        }
    }

    /// Book one finished invocation — counters, module health, the
    /// `sd.complete` event — and turn its result into the reply. The caller
    /// appends the reply *after* this returns, so a host can never observe
    /// a completion whose daemon-side trace record is still pending (the
    /// determinism argument of DESIGN.md §12).
    fn complete(&self, name: &str, id: u64, result: Result<Vec<u8>, String>) -> Reply {
        let failed = result.is_err();
        let counter = if failed {
            &self.stats.module_errors
        } else {
            &self.stats.ok
        };
        counter.fetch_add(1, Ordering::Relaxed);
        self.note_result(name, failed);
        let status = if failed { "error" } else { "ok" };
        self.event(EVENT_SD_COMPLETE, &[("module", name), ("status", status)]);
        match result {
            Ok(payload) => Reply::new(id, Status::Ok, payload),
            Err(message) => Reply::error(id, message),
        }
    }
}

/// One answer on its way to a log: what the daemon owns of a response. It
/// is encoded from here into a buffer its sender keeps between answers —
/// never built as a frame, never copied.
struct Reply {
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
    fn encode_into(&self, out: &mut Vec<u8>, batch: u64) {
        encode_response_into(out, self.id, self.status, &self.payload, batch);
    }
}

/// The daemon, ready to spawn.
pub struct Daemon {
    config: DaemonConfig,
    registry: ModuleRegistry,
}

/// Handle to a running daemon.
pub struct DaemonHandle {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    stats: Arc<StatsInner>,
    batch: Arc<BatchInner>,
    log_dir: PathBuf,
}

impl Daemon {
    /// Create a daemon serving `registry` from `config.log_dir`.
    pub fn new(config: DaemonConfig, registry: ModuleRegistry) -> Daemon {
        Daemon { config, registry }
    }

    /// Start the daemon thread. Returns once the startup replay scan has
    /// finished, so requests submitted after `spawn` are always served by
    /// the live dispatch loop — never mistaken for replay leftovers.
    pub fn spawn(self) -> std::io::Result<DaemonHandle> {
        std::fs::create_dir_all(&self.config.log_dir)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(StatsInner::default());
        let batch = Arc::new(BatchInner::default());
        let log_dir = self.config.log_dir.clone();
        let replay_done: ReplayBarrier =
            Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
        let handle = {
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            let batch = Arc::clone(&batch);
            let replay_done = Arc::clone(&replay_done);
            std::thread::spawn(move || {
                daemon_loop(self.config, self.registry, stop, stats, batch, replay_done)
            })
        };
        let (lock, cvar) = &*replay_done;
        let mut done = lock.lock().unwrap_or_else(|e| e.into_inner());
        while !*done {
            done = cvar.wait(done).unwrap_or_else(|e| e.into_inner());
        }
        drop(done);
        Ok(DaemonHandle {
            stop,
            handle: Some(handle),
            stats,
            batch,
            log_dir,
        })
    }
}

impl DaemonHandle {
    /// Counter snapshot.
    pub fn stats(&self) -> DaemonStats {
        self.stats.snapshot()
    }

    /// Batched-dispatch counter snapshot (all zero unless
    /// [`DaemonConfig::batch`] is set). Window-side fields are always
    /// zero here — they belong to the pipelined host client.
    pub fn batch_stats(&self) -> BatchStats {
        self.batch.snapshot()
    }

    /// The log dir this daemon serves.
    pub fn log_dir(&self) -> &Path {
        &self.log_dir
    }

    /// Stop the daemon and wait for it to exit.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }

    /// Whether the daemon thread is still running.
    pub fn is_running(&self) -> bool {
        self.handle.is_some() && !self.stop.load(Ordering::Relaxed)
    }
}

impl Drop for DaemonHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

struct LogState {
    /// The daemon's one read cursor on this log.
    log: LogFile,
    /// Who the log belongs to and where its answers go.
    module: Arc<ModuleLog>,
}

/// The one identity of a module log, made when the daemon first sees the
/// log and shared by reference from then on — by its cursor state, every
/// request read from it and the worker answering one: path, module name,
/// and the held append handle every response goes through.
struct ModuleLog {
    path: PathBuf,
    name: String,
    primary: LogFile,
}

impl ModuleLog {
    /// Answer with `reply`, encoded into `out`, the sender's kept buffer.
    fn append(&self, reply: &Reply, out: &mut Vec<u8>) {
        out.clear();
        reply.encode_into(out, 0);
        let _ = self.primary.append_encoded(out);
        give_back(out);
    }
}

/// Signalled once the startup replay scan is done, so [`Daemon::spawn`]
/// can return a daemon that will never misattribute fresh requests to
/// replay.
type ReplayBarrier = Arc<(std::sync::Mutex<bool>, std::sync::Condvar)>;

/// One request of a batch between [`DaemonCtx::execute_batch`]'s phases.
struct Planned {
    req: QueuedRequest,
    /// The module to run, when the gate let the request through.
    run: Option<Arc<dyn ProcessingModule>>,
    /// What the module returned, once its worker has run it.
    result: Option<Result<Vec<u8>, String>>,
    /// The answer to commit: the gate's reject or the completed result.
    reply: Option<Reply>,
}

/// One entry of a worker's bucket: the request's slot in the batch, and
/// the module's result once the worker has run it in place.
type BucketedRun = (usize, Option<Result<Vec<u8>, String>>);

/// What [`DaemonCtx::execute_batch`] keeps from one batch to the next,
/// emptied after each.
#[derive(Default)]
struct BatchScratch {
    /// The batch, in batch order.
    planned: Vec<Planned>,
    /// One per worker.
    buckets: Vec<Vec<BucketedRun>>,
    /// The commit order: the slots of `planned` holding a reply, by
    /// (log path, slot).
    order: Vec<usize>,
}

/// What [`DaemonCtx::gate`] decided about one dequeued request.
enum Gated {
    /// Run the module.
    Run(Arc<dyn ProcessingModule>),
    /// Answer with this instead of running anything.
    Reject(Reply),
    /// An injected crash fired: the daemon is stopping, answer nothing.
    Crash,
}

/// Invoke a module. A panicking module must neither kill the daemon nor
/// leave the host waiting forever: the panic becomes an error result.
fn run_module(module: &dyn ProcessingModule, params: &[String]) -> Result<Vec<u8>, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| module.invoke(params))) {
        Ok(Ok(payload)) => Ok(payload),
        Ok(Err(e)) => Err(e.message),
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "module panicked".into());
            Err(format!("module panicked: {msg}"))
        }
    }
}

/// One admitted-but-not-yet-dispatched request. The frame itself already
/// sits in the log file; this is just the dispatch ticket.
struct QueuedRequest {
    log: Arc<ModuleLog>,
    id: u64,
    params: Vec<String>,
    expires_unix_ms: u64,
}

/// The live path's execution slots: workers that park between requests.
/// A request goes to a parked worker when one is free and to a new thread
/// otherwise, so the pool grows to the peak concurrency served — at most
/// `max_in_flight`: a worker that is not parked still holds a unit of
/// [`Books::in_flight`], given back under the lane lock as it counts
/// itself parked — before its reply is appended — and dispatch never
/// exceeds that bound.
struct WorkerPool {
    books: Arc<Books>,
    /// A worker parks holding nothing but this lock, which the wait gives
    /// up: no other lock, no file handle mid-write.
    lane: std::sync::Mutex<Lane>,
    wake: Condvar,
}

#[derive(Default)]
struct Lane {
    /// Handed to parked workers, not yet picked up; never longer than `parked`.
    jobs: VecDeque<LiveJob>,
    /// Workers holding no job: waiting, or appending their last reply on
    /// the way there.
    parked: usize,
    closed: bool,
    threads: Vec<JoinHandle<()>>,
}

/// One gated request on its way to a worker.
struct LiveJob {
    module: Arc<dyn ProcessingModule>,
    req: QueuedRequest,
}

impl WorkerPool {
    fn lane(&self) -> std::sync::MutexGuard<'_, Lane> {
        self.lane.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Hand `job` to a parked worker, or start one with it.
    fn run(self: &Arc<Self>, job: LiveJob) {
        let mut lane = self.lane();
        if lane.jobs.len() < lane.parked {
            lane.jobs.push_back(job);
            self.wake.notify_one();
        } else {
            let pool = Arc::clone(self);
            lane.threads
                .push(std::thread::spawn(move || pool.work(job)));
        }
    }

    /// Wake the parked workers and join all: running invocations answer first.
    fn close(&self) {
        let threads = {
            let mut lane = self.lane();
            lane.closed = true;
            std::mem::take(&mut lane.threads)
        };
        self.wake.notify_all();
        for worker in threads {
            let _ = worker.join();
        }
    }

    /// A worker's life: run the job in hand, answer it, park for the next.
    fn work(&self, mut job: LiveJob) {
        let mut encoded = Vec::new();
        loop {
            let LiveJob { module, req } = &mut job;
            let result = run_module(module.as_ref(), &req.params);
            let reply = self.books.complete(&req.log.name, req.id, result);
            // Slot and worker are free before the reply can be seen: the
            // host's next request is neither queued nor given a new thread.
            {
                let mut lane = self.lane();
                self.books.in_flight.fetch_sub(1, Ordering::Relaxed);
                lane.parked += 1;
            }
            req.log.append(&reply, &mut encoded);
            drop(reply);
            self.books
                .spare_params
                .give(std::mem::take(&mut req.params));
            let mut lane = self.lane();
            job = loop {
                if let Some(next) = lane.jobs.pop_front() {
                    lane.parked -= 1;
                    break next;
                }
                if lane.closed {
                    return;
                }
                lane = self.wake.wait(lane).unwrap_or_else(|e| e.into_inner());
            };
        }
    }
}

/// Everything the dispatch side of the daemon owns: log cursors, the
/// admission queue, and the books and workers of the live path.
struct DaemonCtx {
    config: DaemonConfig,
    registry: ModuleRegistry,
    stop: Arc<AtomicBool>,
    books: Arc<Books>,
    pool: Arc<WorkerPool>,
    logs: HashMap<PathBuf, LogState>,
    queue: VecDeque<QueuedRequest>,
    /// Scratch of one [`DaemonCtx::process_log`] poll — the offset of the
    /// latest request under each id no response has followed yet — and
    /// empty between polls: the daemon remembers no id it has served.
    unanswered: HashMap<u64, usize>,
    /// Scratch of the same poll: the unanswered requests, copied out, each
    /// with its offset. Empty between polls.
    fresh: Vec<(usize, QueuedRequest)>,
    /// The loop's kept reply buffer (rejects, sheds, batch commits) and the
    /// wire lengths of the frames a batch commit encoded into it.
    encoded: Vec<u8>,
    encoded_lens: Vec<usize>,
    batch_scratch: BatchScratch,
    /// Daemon-side batch counters (only mutated on the batched path).
    batch_stats: Arc<BatchInner>,
    /// Monotonic batch id; starts at 0 so the first formed batch is 1
    /// (the codec's batch-framing word treats 0 as "unbatched").
    batch_seq: u64,
}

fn daemon_loop(
    config: DaemonConfig,
    registry: ModuleRegistry,
    stop: Arc<AtomicBool>,
    stats: Arc<StatsInner>,
    batch_stats: Arc<BatchInner>,
    replay_done: ReplayBarrier,
) {
    let watch = WatchConfig::default();
    let watcher = FileWatcher::spawn(&config.log_dir, watch);
    // `None` = no heartbeat written yet, so the first loop turn emits one.
    let mut last_heartbeat: Option<Stopwatch> = None;
    let mut heartbeat_seq: u64 = 0;
    let tracer = config.tracer.clone();
    let track = tracer.track(SD_TRACE_TRACK, ClockDomain::Decision);
    let books = Arc::new(Books {
        stats,
        health: Mutex::new(HashMap::new()),
        in_flight: AtomicU64::new(0),
        trace: (tracer, track),
        spare_params: SpareParams {
            sets: Mutex::new(Vec::new()),
            keep: config.max_in_flight.saturating_add(config.max_queued),
        },
    });
    let heartbeat_tmp = config.log_dir.join("daemon.heartbeat.tmp");
    let heartbeat_file = config.log_dir.join(HEARTBEAT_FILE);
    let mut ctx = DaemonCtx {
        config,
        registry,
        stop,
        pool: Arc::new(WorkerPool {
            books: Arc::clone(&books),
            lane: Default::default(),
            wake: Condvar::new(),
        }),
        books,
        logs: HashMap::new(),
        queue: VecDeque::new(),
        unanswered: HashMap::new(),
        fresh: Vec::new(),
        encoded: Vec::new(),
        encoded_lens: Vec::new(),
        batch_scratch: BatchScratch::default(),
        batch_stats,
        batch_seq: 0,
    };

    // Startup replay: answer pending requests left over from a previous
    // daemon incarnation. Sorted so multi-log replay admits in a stable
    // order regardless of directory-iteration order.
    if let Ok(entries) = std::fs::read_dir(&ctx.config.log_dir) {
        let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
        paths.sort();
        for path in paths {
            if ctx.stop.load(Ordering::Relaxed) {
                break;
            }
            if module_of(&path).is_some() {
                ctx.process_log(&path, true);
            }
        }
    }
    {
        let (lock, cvar) = &*replay_done;
        *lock.lock().unwrap_or_else(|e| e.into_inner()) = true;
        cvar.notify_all();
    }

    while !ctx.stop.load(Ordering::Relaxed) {
        // Heartbeat (an injected stall suppresses the write, so the file
        // goes stale exactly the way a wedged daemon's would). Carries
        // the load snapshot hosts use for pressure-aware steering.
        if last_heartbeat
            .as_ref()
            .is_none_or(|sw| sw.expired(HEARTBEAT_INTERVAL))
        {
            heartbeat_seq += 1;
            let (tracer, track) = &ctx.books.trace;
            tracer.volatile_event(*track, EVENT_SD_HEARTBEAT, &[]);
            // `Stall` is the only action valid at the heartbeat site.
            if ctx.config.injector.fire(FaultSite::Heartbeat).is_none() {
                let record = HeartbeatRecord {
                    seq: heartbeat_seq,
                    load: Some(HeartbeatLoad {
                        in_flight: ctx.books.in_flight.load(Ordering::Relaxed),
                        queued: ctx.queue.len() as u64,
                    }),
                };
                // Write-then-rename so a host probing the heartbeat can
                // never observe a torn record: `fs::write` truncates in
                // place, and a reader catching the file mid-rewrite would
                // decode garbage and wrongly declare the daemon dead.
                if std::fs::write(&heartbeat_tmp, record.encode()).is_ok() {
                    let _ = std::fs::rename(&heartbeat_tmp, &heartbeat_file);
                }
            }
            last_heartbeat = Some(Stopwatch::start());
        }
        // Dispatch queued work into freed execution slots.
        ctx.drain_queue();
        // Wait for file events.
        let Some(event) = watcher.next_event(watch.poll_interval) else {
            continue;
        };
        if event.kind == WatchEventKind::Removed {
            // Cursor and append handles belong to the deleted inode: a log
            // recreated under this name is attached afresh.
            ctx.logs.remove(&*event.path);
        } else if module_of(&event.path).is_some() {
            ctx.process_log(&event.path, false);
            ctx.drain_queue();
        }
    }

    // Drain in-flight module invocations before exiting. (Queued but
    // never-dispatched requests stay unanswered in the log; the next
    // incarnation's replay scan picks them up.)
    ctx.pool.close();
}

/// Stable seeded module→worker assignment: FNV-1a over the module name,
/// folded with the configured seed through a SplitMix64 finisher. One
/// worker owns each module (the shard-per-owner model), so a module's
/// requests never run concurrently, and the same seed always reproduces
/// the same assignment — never `DefaultHasher`, whose per-process random
/// keys would break same-seed trace identity.
fn worker_for(seed: u64, name: &str, workers: usize) -> usize {
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
fn note_frame(open: &mut HashMap<u64, usize>, offset: usize, view: &FrameView<'_>) {
    if view.is_request() {
        open.insert(view.id, offset);
    } else {
        open.remove(&view.id);
    }
}

impl DaemonCtx {
    fn slots_busy(&self) -> bool {
        self.books.in_flight.load(Ordering::Relaxed) >= self.config.max_in_flight as u64
    }

    /// First sight of the log at `path`. `None` for an unreadable file
    /// (permissions, vanished between the watch event and now): the next
    /// event on the file retries.
    fn attach(&self, path: &Path) -> Option<LogState> {
        let attach = || {
            LogFile::attach_at_start(path)
                .map(|log| log.with_faults(self.config.injector.clone(), LogRole::Daemon))
        };
        let name = module_of(path)?.into_owned();
        Some(LogState {
            log: attach().ok()?,
            module: Arc::new(ModuleLog {
                path: path.to_path_buf(),
                name,
                primary: attach().ok()?,
            }),
        })
    }

    /// Poll one module log and run every unanswered request through
    /// admission. A request is answered iff a response carrying its id
    /// follows it in the log, and one poll decides that for every request
    /// it reads: the replay poll reads the whole history at once, and a
    /// live poll never meets an earlier poll's request again — the cursor
    /// only advances (DESIGN.md §10).
    fn process_log(&mut self, path: &Path, replay: bool) {
        let (tracer, track) = &self.books.trace;
        tracer.volatile_event(*track, EVENT_SD_POLL, &[]);
        // Borrowed lookup first: an owned key is built once per log.
        if !self.logs.contains_key(path) {
            let Some(state) = self.attach(path) else {
                return;
            };
            self.logs.insert(path.to_path_buf(), state);
        }
        let Some(state) = self.logs.get_mut(path) else {
            return;
        };
        // Recovering poll: provably-corrupt bytes (a host's torn write
        // that was later retried, or silent NFS corruption) are skipped
        // and counted instead of wedging the cursor forever.
        let open = &mut self.unanswered;
        let Ok(skipped) = state
            .log
            .poll_each(|offset, view| note_frame(open, offset, &view))
        else {
            return; // truncated or unreadable; skip this round
        };
        if skipped > 0 {
            self.books
                .stats
                .corrupt_skipped_bytes
                .fetch_add(skipped, Ordering::Relaxed);
        }
        // Copy out what will be admitted and nothing else, in log order,
        // each request's parameters into a recycled set.
        let mut fresh = std::mem::take(&mut self.fresh);
        let spares = &self.books.spare_params;
        fresh.extend(self.unanswered.drain().filter_map(|(id, offset)| {
            let ViewBody::Request {
                params,
                expires_unix_ms,
            } = state.log.frame_at(offset)?.body
            else {
                return None;
            };
            let mut set = spares.take();
            params.copy_into(&mut set);
            let request = QueuedRequest {
                log: Arc::clone(&state.module),
                id,
                params: set,
                expires_unix_ms,
            };
            Some((offset, request))
        }));
        state.log.release_poll();
        fresh.sort_unstable_by_key(|(offset, _)| *offset);
        for (_, req) in fresh.drain(..) {
            if self.stop.load(Ordering::Relaxed) {
                break;
            }
            self.books.stats.requests.fetch_add(1, Ordering::Relaxed);
            // No request-id attr: raw ids embed the pid and a
            // process-global counter, which would break byte-identical
            // traces (DESIGN.md §12).
            let module = [("module", req.log.name.as_str())];
            self.books.event(EVENT_SD_REQUEST, &module);
            if replay {
                self.books.stats.replayed.fetch_add(1, Ordering::Relaxed);
                self.books.event(EVENT_SD_REPLAY, &module);
            }
            self.admit(req);
        }
        if replay {
            // A history of unanswered requests grew the scratch; live
            // polls need a handful of slots.
            self.unanswered.shrink_to_fit();
            fresh.shrink_to_fit();
        }
        self.fresh = fresh;
    }

    /// Admission control: dispatch now when a slot is free and nothing is
    /// ahead in line, queue when the queue has room, shed otherwise.
    ///
    /// Batched mode never takes the dispatch-now fast path: the queue
    /// doubles as the batch former, so every admitted request waits (at
    /// most one loop turn) for its batch to fill. The shed bound is
    /// unchanged.
    fn admit(&mut self, req: QueuedRequest) {
        let batched = self.config.batch.is_some();
        if !batched && !self.slots_busy() && self.queue.is_empty() {
            self.dispatch(req);
        } else if self.queue.len() < self.config.max_queued {
            self.books
                .event(EVENT_SD_QUEUE, &[("module", &req.log.name)]);
            self.queue.push_back(req);
        } else {
            self.books.stats.shed.fetch_add(1, Ordering::Relaxed);
            self.books
                .event(EVENT_SD_SHED, &[("module", &req.log.name)]);
            let retry_after = encode_retry_after(SHED_RETRY_AFTER).to_vec();
            let reply = Reply::new(req.id, Status::Overloaded, retry_after);
            req.log.append(&reply, &mut self.encoded);
        }
    }

    /// Move queued requests into freed execution slots, FIFO. Batched
    /// mode instead drains the queue in `max_batch`-sized chunks through
    /// the multi-worker batch executor.
    fn drain_queue(&mut self) {
        if let Some(bcfg) = self.config.batch {
            let mut scratch = std::mem::take(&mut self.batch_scratch);
            while !self.stop.load(Ordering::Relaxed) && !self.queue.is_empty() {
                let n = bcfg.max_batch.max(1).min(self.queue.len());
                self.execute_batch(bcfg, n, &mut scratch);
            }
            self.batch_scratch = scratch;
            return;
        }
        while !self.stop.load(Ordering::Relaxed) && !self.slots_busy() {
            let Some(req) = self.queue.pop_front() else {
                break;
            };
            self.dispatch(req);
        }
    }

    /// The per-request checks both dispatch paths apply, in this order:
    /// deadline, quarantine, registry lookup, the `sd.dispatch` event,
    /// injected dispatch faults. One decision stream, so lockstep and
    /// batched mode count, trace and refuse identically.
    fn gate(&self, req: &QueuedRequest) -> Gated {
        let (name, id) = (req.log.name.as_str(), req.id);
        let books = &self.books;
        // Deadline check at dequeue: the caller has already given up, so
        // the request is dropped — counted, answered, never executed.
        if req.expires_unix_ms != 0 && wall_clock_ms() >= req.expires_unix_ms {
            books.stats.expired.fetch_add(1, Ordering::Relaxed);
            books.event(EVENT_SD_EXPIRED, &[("module", name)]);
            return Gated::Reject(Reply::error(
                id,
                "deadline expired before dispatch; request dropped",
            ));
        }
        // Poison-module quarantine: refuse fast with a distinguishable
        // message so the host fails over instead of waiting out its
        // deadline.
        if books.health.lock().get(name).is_some_and(|h| h.quarantined) {
            books
                .stats
                .quarantine_rejected
                .fetch_add(1, Ordering::Relaxed);
            books.event(EVENT_SD_QUARANTINE_REJECTED, &[("module", name)]);
            return Gated::Reject(Reply::error(
                id,
                format!(
                    "module {name:?} {QUARANTINE_TOKEN} {QUARANTINE_THRESHOLD} consecutive failures"
                ),
            ));
        }
        let Some(module) = self.registry.get(name) else {
            books.stats.unknown_module.fetch_add(1, Ordering::Relaxed);
            books.event(EVENT_SD_UNKNOWN_MODULE, &[("module", name)]);
            return Gated::Reject(Reply::error(
                id,
                format!("no module registered under {name:?}"),
            ));
        };
        books.event(EVENT_SD_DISPATCH, &[("module", name)]);
        // Injected dispatch faults: crash (stop the daemon loop without
        // answering — in batched mode nothing of the batch commits, so
        // the whole chunk is replayed next incarnation) or a forced
        // module failure.
        match self.config.injector.fire(FaultSite::Dispatch) {
            Some(FaultAction::CrashBefore) => {
                self.stop.store(true, Ordering::Relaxed);
                Gated::Crash
            }
            Some(FaultAction::CrashAfter) => {
                // Execute the module, then die before the response is
                // written — the worst crash window for replay
                // idempotency.
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    module.invoke(&req.params)
                }));
                self.stop.store(true, Ordering::Relaxed);
                Gated::Crash
            }
            Some(FaultAction::Fail) => {
                books.stats.module_errors.fetch_add(1, Ordering::Relaxed);
                books.note_result(name, true);
                books.event(EVENT_SD_COMPLETE, &[("module", name), ("status", "error")]);
                Gated::Reject(Reply::error(id, "injected module failure"))
            }
            _ => Gated::Run(module),
        }
    }

    /// Run one admitted request: the [`DaemonCtx::gate`] checks, then the
    /// module itself, on a pool worker so concurrent requests to
    /// different modules overlap.
    fn dispatch(&mut self, req: QueuedRequest) {
        match self.gate(&req) {
            Gated::Run(module) => {
                self.books.in_flight.fetch_add(1, Ordering::Relaxed);
                self.pool.run(LiveJob { module, req });
            }
            Gated::Crash => {}
            Gated::Reject(reply) => req.log.append(&reply, &mut self.encoded),
        }
    }

    /// Run the next `size` queued requests as one batch (DESIGN.md §18) in
    /// `scratch`, kept from batch to batch: admission-class checks per
    /// request in queue order, module execution on the seeded worker pool,
    /// then a single-threaded commit that appends every log's responses as
    /// one coalesced batch with one fsync.
    ///
    /// Determinism: the workers only *compute* — every trace event,
    /// health update and counter lands on this (single) thread in batch
    /// order, and module→worker assignment is a pure seeded hash, so a
    /// same-seed run over the same queued requests produces
    /// byte-identical traces regardless of worker timing.
    fn execute_batch(&mut self, cfg: BatchConfig, size: usize, scratch: &mut BatchScratch) {
        self.batch_seq += 1;
        let batch_id = self.batch_seq;
        // Span width = requests in the batch: the batch is one decision-
        // clock unit whose extent measures coalescing, not wall time.
        let (tracer, track) = &self.books.trace;
        tracer.leaf_with(*track, SPAN_SD_BATCH, size as u64, |a| {
            a.u64("size", size as u64);
        });
        let BatchScratch {
            planned,
            buckets,
            order,
        } = scratch;
        // Phase 1 (serial, batch order): the same per-request gate the
        // lockstep path applies.
        while planned.len() < size {
            let Some(req) = self.queue.pop_front() else {
                break;
            };
            let (run, reply) = match self.gate(&req) {
                Gated::Run(module) => (Some(module), None),
                Gated::Reject(reply) => (None, Some(reply)),
                Gated::Crash => {
                    planned.clear();
                    return;
                }
            };
            planned.push(Planned {
                req,
                run,
                result: None,
                reply,
            });
        }
        // Phase 2 (parallel): shard-per-owner execution. The seeded hash
        // pins each module to one worker, so one module's requests run
        // serially in batch order while distinct modules overlap. This
        // thread is a worker too: it runs one bucket and starts a thread
        // for each of the others, so a one-module batch starts none.
        let workers = cfg.workers.max(1);
        buckets.resize_with(workers, Vec::new);
        for (slot, p) in planned.iter().enumerate() {
            if p.run.is_some() {
                buckets[worker_for(cfg.seed, &p.req.log.name, workers)].push((slot, None));
            }
        }
        let running: u64 = buckets.iter().map(|b| b.len() as u64).sum();
        if running > 0 {
            self.books.in_flight.fetch_add(running, Ordering::Relaxed);
            let batch = &planned[..];
            let run_bucket = |bucket: &mut Vec<BucketedRun>| {
                for (slot, result) in bucket {
                    let p = &batch[*slot];
                    if let Some(module) = &p.run {
                        *result = Some(run_module(module.as_ref(), &p.req.params));
                    }
                }
            };
            std::thread::scope(|s| {
                let mut buckets = buckets.iter_mut().filter(|b| !b.is_empty());
                let own = buckets.next();
                let handles: Vec<_> = buckets
                    .map(|bucket| s.spawn(move || run_bucket(bucket)))
                    .collect();
                if let Some(own) = own {
                    run_bucket(own);
                }
                // Barrier: the commit below must see every outcome.
                for handle in handles {
                    let _ = handle.join();
                }
            });
            for (slot, result) in buckets.iter_mut().flat_map(|b| b.drain(..)) {
                planned[slot].result = result;
            }
            self.books.in_flight.fetch_sub(running, Ordering::Relaxed);
        }
        // Phase 3 (serial, batch order): health + counters + completion
        // events — still before any response append (DESIGN.md §12) —
        // then the coalesced per-log commit.
        for p in planned.iter_mut() {
            if let Some(result) = p.result.take() {
                p.reply = Some(self.books.complete(&p.req.log.name, p.req.id, result));
            }
        }
        // Logs in path order, each log's replies in slot order, each with
        // the batch-framing word naming its slot. The key is unique, so an
        // unstable sort gives the one order without a stable sort's scratch.
        order.extend((0..planned.len()).filter(|&slot| planned[slot].reply.is_some()));
        order.sort_unstable_by_key(|&slot| (planned[slot].req.log.path.as_path(), slot));
        for group in order.chunk_by(|&a, &b| planned[a].req.log.path == planned[b].req.log.path) {
            let replies = group.iter().filter_map(|&slot| {
                let reply = planned[slot].reply.as_ref()?;
                Some((batch_word(batch_id, slot as u64), reply))
            });
            self.commit_log_batch(&planned[group[0]].req.log, replies);
        }
        order.clear();
        for p in planned.drain(..) {
            self.books.spare_params.give(p.req.params);
        }
    }

    /// Append one log's share of a batch with a single fsync, retrying
    /// only a torn suffix — the durable prefix's batch boundary is
    /// already on disk and must replay exactly. The share is encoded once,
    /// into the loop's kept buffer: the first write and any retry are
    /// both written from those bytes.
    fn commit_log_batch<'a>(
        &mut self,
        log: &ModuleLog,
        replies: impl Iterator<Item = (u64, &'a Reply)>,
    ) {
        let (tracer, track) = &self.books.trace;
        self.encoded.clear();
        self.encoded_lens.clear();
        for (batch, reply) in replies {
            let start = self.encoded.len();
            reply.encode_into(&mut self.encoded, batch);
            self.encoded_lens.push(self.encoded.len() - start);
        }
        let (mut rest, mut lens) = (&self.encoded[..], &self.encoded_lens[..]);
        // Safety valve: a fault plan tearing every retry occurrence could
        // otherwise spin forever. Leftovers stay unanswered in the log
        // and are replayed by the next daemon incarnation.
        let mut attempts = 0;
        while !lens.is_empty() && attempts < 8 {
            attempts += 1;
            let Ok(outcome) = log.primary.append_batch_encoded(rest, lens.iter().copied()) else {
                break;
            };
            let durable = outcome.frames_durable as u64;
            let batch = &self.batch_stats;
            batch.batches.fetch_add(1, Ordering::Relaxed);
            batch
                .coalesced_appends
                .fetch_add(durable, Ordering::Relaxed);
            batch.fsyncs.fetch_add(outcome.fsyncs, Ordering::Relaxed);
            tracer.event_with(*track, EVENT_SD_BATCH_COMMIT, |a| {
                a.u64("size", durable);
            });
            if !outcome.torn {
                break;
            }
            let (done, retried) = lens.split_at(outcome.frames_durable);
            tracer.event_with(*track, EVENT_SD_BATCH_RETRY, |a| {
                a.u64("retried", retried.len() as u64);
            });
            rest = &rest[done.iter().sum::<usize>()..];
            lens = retried;
        }
        give_back(&mut self.encoded);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{Frame, FrameBody};
    use crate::host::HostClient;
    use crate::module::{FnModule, ModuleError};
    use crate::watch::PollBackoff;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64 as TestCounter;

    static N: TestCounter = TestCounter::new(0);

    fn temp_dir() -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "mcsd-daemon-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn registry() -> ModuleRegistry {
        let r = ModuleRegistry::new();
        r.register(Arc::new(FnModule::new("upper", |p: &[String]| {
            Ok(p.join(" ").to_uppercase().into_bytes())
        })));
        r.register(Arc::new(FnModule::new("fail", |_: &[String]| {
            Err(ModuleError::new("intentional failure"))
        })));
        r.register(Arc::new(FnModule::new("slow", |p: &[String]| {
            std::thread::sleep(Duration::from_millis(50));
            Ok(p.join("").into_bytes())
        })));
        r
    }

    const TIMEOUT: Duration = Duration::from_secs(120);

    #[test]
    fn end_to_end_invoke() {
        let dir = temp_dir();
        let mut daemon = Daemon::new(DaemonConfig::new(&dir), registry())
            .spawn()
            .unwrap();
        let client = HostClient::new(&dir);
        let out = client
            .invoke("upper", &["hello".into(), "world".into()], TIMEOUT)
            .unwrap();
        assert_eq!(out.payload, b"HELLO WORLD");
        assert!(out.request_bytes > 0);
        assert!(out.response_bytes > 0);
        daemon.stop();
        assert_eq!(daemon.stats().ok, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn traced_invoke_emits_cataloged_lifecycle_events() {
        let dir = temp_dir();
        let tracer = Tracer::enabled();
        let mut daemon = Daemon::new(
            DaemonConfig::new(&dir).with_tracer(tracer.clone()),
            registry(),
        )
        .spawn()
        .unwrap();
        let client = HostClient::new(&dir).with_tracer(tracer.clone());
        let out = client.invoke("upper", &["trace".into()], TIMEOUT).unwrap();
        assert_eq!(out.payload, b"TRACE");
        daemon.stop();
        let trace = mcsd_obs::export::jsonl(&tracer);
        // sd.queue is absent here on purpose: an uncontended request skips
        // the queue and dispatches straight from admission.
        for name in [
            "host.submit",
            EVENT_SD_REQUEST,
            EVENT_SD_DISPATCH,
            EVENT_SD_COMPLETE,
        ] {
            assert!(
                trace.contains(&format!("\"name\":\"{name}\"")),
                "missing {name} in:\n{trace}"
            );
            assert!(mcsd_obs::names::is_cataloged(name), "{name} not cataloged");
        }
        // Volatile polls/heartbeats are excluded from the default export.
        assert!(!trace.contains(EVENT_SD_POLL));
        assert!(!trace.contains(EVENT_SD_HEARTBEAT));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn module_failure_propagates() {
        let dir = temp_dir();
        let mut daemon = Daemon::new(DaemonConfig::new(&dir), registry())
            .spawn()
            .unwrap();
        let client = HostClient::new(&dir);
        match client.invoke("fail", &[], TIMEOUT) {
            Err(crate::error::SmartFamError::ModuleFailed { module, message }) => {
                assert_eq!(module, "fail");
                assert!(message.contains("intentional"));
            }
            other => panic!("{other:?}"),
        }
        daemon.stop();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_module_is_answered() {
        let dir = temp_dir();
        let mut daemon = Daemon::new(DaemonConfig::new(&dir), registry())
            .spawn()
            .unwrap();
        let client = HostClient::new(&dir);
        match client.invoke("nonexistent", &[], TIMEOUT) {
            Err(crate::error::SmartFamError::ModuleFailed { message, .. }) => {
                assert!(message.contains("no module registered"));
            }
            other => panic!("{other:?}"),
        }
        daemon.stop();
        assert_eq!(daemon.stats().unknown_module, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sequential_invocations_share_a_log() {
        let dir = temp_dir();
        let mut daemon = Daemon::new(DaemonConfig::new(&dir), registry())
            .spawn()
            .unwrap();
        let client = HostClient::new(&dir);
        for i in 0..5 {
            let out = client
                .invoke("upper", &[format!("msg{i}")], TIMEOUT)
                .unwrap();
            assert_eq!(out.payload, format!("MSG{i}").into_bytes());
        }
        daemon.stop();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_invocations_to_different_modules() {
        let dir = temp_dir();
        let mut daemon = Daemon::new(DaemonConfig::new(&dir), registry())
            .spawn()
            .unwrap();
        let client = Arc::new(HostClient::new(&dir));
        let c1 = Arc::clone(&client);
        let t1 = std::thread::spawn(move || c1.invoke("slow", &["a".into()], TIMEOUT).unwrap());
        let c2 = Arc::clone(&client);
        let t2 = std::thread::spawn(move || c2.invoke("upper", &["b".into()], TIMEOUT).unwrap());
        assert_eq!(t1.join().unwrap().payload, b"a");
        assert_eq!(t2.join().unwrap().payload, b"B");
        daemon.stop();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn heartbeat_file_appears_and_advances() {
        let dir = temp_dir();
        let mut daemon = Daemon::new(DaemonConfig::new(&dir), registry())
            .spawn()
            .unwrap();
        let hb = dir.join(HEARTBEAT_FILE);
        let waited = Stopwatch::start();
        let mut pace = PollBackoff::new(Duration::from_millis(10));
        while std::fs::metadata(&hb).map_or(true, |meta| meta.len() != 24) {
            assert!(
                !waited.expired(TIMEOUT),
                "no heartbeat file within {TIMEOUT:?}"
            );
            pace.idle();
        }
        let first = HeartbeatRecord::decode(&std::fs::read(&hb).unwrap()).unwrap();
        // The next record is due one `HEARTBEAT_INTERVAL` after the first.
        std::thread::sleep(HEARTBEAT_INTERVAL);
        let later = loop {
            let record = HeartbeatRecord::decode(&std::fs::read(&hb).unwrap()).unwrap();
            if record.seq > first.seq || waited.expired(TIMEOUT) {
                break record;
            }
            pace.idle();
        };
        assert!(later.seq > first.seq, "heartbeat stuck at {}", first.seq);
        // An idle daemon publishes a zero load snapshot.
        let load = later.load.expect("load field");
        assert_eq!(load.in_flight, 0);
        assert_eq!(load.queued, 0);
        // Stop before deleting the dir: a live daemon re-creating its
        // heartbeat file races `remove_dir_all`.
        daemon.stop();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn restart_replays_unanswered_requests() {
        let dir = temp_dir();
        // Write a request with no daemon running.
        let client = HostClient::new(&dir);
        let pending = client.submit("upper", &["late".into()]).unwrap();
        // Start the daemon afterwards: it must replay the log and answer.
        let mut daemon = Daemon::new(DaemonConfig::new(&dir), registry())
            .spawn()
            .unwrap();
        let out = pending.wait(TIMEOUT).unwrap();
        assert_eq!(out.payload, b"LATE");
        daemon.stop();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn restart_does_not_duplicate_answered_requests() {
        let dir = temp_dir();
        {
            let _daemon = Daemon::new(DaemonConfig::new(&dir), registry())
                .spawn()
                .unwrap();
            let client = HostClient::new(&dir);
            client.invoke("upper", &["once".into()], TIMEOUT).unwrap();
        }
        // Second daemon incarnation over the same log dir.
        let mut daemon2 = Daemon::new(DaemonConfig::new(&dir), registry())
            .spawn()
            .unwrap();
        std::thread::sleep(Duration::from_millis(50));
        daemon2.stop();
        // The replayed request must not be re-dispatched.
        assert_eq!(daemon2.stats().requests, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Pid reuse played by hand: ids are `(pid << 32) | seq`, so a later
    /// host process can submit under an id this log has already seen
    /// answered. It is a request like any other.
    #[test]
    fn reused_request_id_is_served_again() {
        let dir = temp_dir();
        let mut daemon = Daemon::new(DaemonConfig::new(&dir), registry())
            .spawn()
            .unwrap();
        let mut host = LogFile::attach_at_end(dir.join("upper.log")).unwrap();
        for word in ["one", "two"] {
            host.append(&Frame::request(7, vec![word.into()])).unwrap();
            let waited = Stopwatch::start();
            let mut pace = PollBackoff::new(Duration::from_millis(1));
            let answer = loop {
                let frames = host.poll().unwrap();
                if let Some(response) = frames.into_iter().find(|f| !f.is_request()) {
                    break response;
                }
                assert!(!waited.expired(TIMEOUT), "request {word:?} got no answer");
                pace.idle();
            };
            assert_eq!(
                answer,
                Frame::response_ok(7, word.to_uppercase().into_bytes())
            );
        }
        daemon.stop();
        assert_eq!(daemon.stats().requests, 2);
        assert_eq!(daemon.stats().ok, 2);
        std::fs::remove_dir_all(&dir).unwrap();
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
            // The daemon's own steps: ids first over a poll in place, then
            // the frames under the offsets left, in offset order.
            let path = temp_dir().join("oracle.log");
            let mut reader = LogFile::attach_at_start(&path).unwrap();
            reader.append_batch(&log).unwrap();
            let mut open = HashMap::new();
            reader
                .poll_each(|offset, view| note_frame(&mut open, offset, &view))
                .unwrap();
            let mut offsets: Vec<usize> = open.into_values().collect();
            offsets.sort_unstable();
            let frames: Vec<Frame> = offsets
                .iter()
                .map(|&offset| reader.frame_at(offset).expect("shown by the poll").to_frame())
                .collect();
            proptest::prop_assert_eq!(frames, expect);
            std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
        }
    }

    #[test]
    fn failing_module_is_quarantined_with_distinguishable_message() {
        let dir = temp_dir();
        let mut daemon = Daemon::new(DaemonConfig::new(&dir), registry())
            .spawn()
            .unwrap();
        let client = HostClient::new(&dir);
        // `QUARANTINE_THRESHOLD` real failures cross the threshold...
        for _ in 0..QUARANTINE_THRESHOLD {
            let err = client.invoke("fail", &[], TIMEOUT).unwrap_err();
            assert!(!err.is_quarantined(), "real failure misclassified: {err}");
        }
        // ...after which the daemon refuses immediately with the token.
        let err = client.invoke("fail", &[], TIMEOUT).unwrap_err();
        assert!(err.is_quarantined(), "expected quarantine refusal: {err}");
        daemon.stop();
        let stats = daemon.stats();
        assert_eq!(stats.quarantined, 1);
        assert_eq!(stats.quarantine_rejected, 1);
        assert_eq!(stats.module_errors, u64::from(QUARANTINE_THRESHOLD));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn success_resets_the_consecutive_failure_count() {
        let dir = temp_dir();
        let r = ModuleRegistry::new();
        let calls = Arc::new(TestCounter::new(0));
        let c = Arc::clone(&calls);
        r.register(Arc::new(FnModule::new("blinky", move |_: &[String]| {
            // fail, succeed, fail, succeed, ... — never two in a row.
            if c.fetch_add(1, Ordering::Relaxed).is_multiple_of(2) {
                Err(ModuleError::new("odd call"))
            } else {
                Ok(b"ok".to_vec())
            }
        })));
        let mut daemon = Daemon::new(DaemonConfig::new(&dir), r).spawn().unwrap();
        let client = HostClient::new(&dir);
        // Without the reset, the failures alone would cross the threshold.
        for i in 0..2 * QUARANTINE_THRESHOLD {
            let res = client.invoke("blinky", &[], TIMEOUT);
            if i % 2 == 0 {
                let err = res.unwrap_err();
                assert!(
                    !err.is_quarantined(),
                    "alternating module quarantined: {err}"
                );
            } else {
                assert_eq!(res.unwrap().payload, b"ok");
            }
        }
        daemon.stop();
        assert_eq!(daemon.stats().quarantined, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_crash_before_dispatch_is_replayed_by_next_incarnation() {
        use crate::faults::{FaultAction, FaultPlan, FaultSite};
        let dir = temp_dir();
        let plan = FaultPlan::none().with(FaultSite::Dispatch, 0, FaultAction::CrashBefore);
        let cfg = DaemonConfig::new(&dir).with_faults(FaultInjector::new(plan));
        let daemon1 = Daemon::new(cfg, registry()).spawn().unwrap();
        let client = HostClient::new(&dir);
        let pending = client.submit("upper", &["survivor".into()]).unwrap();
        // The daemon hits the crash fault and exits without answering.
        let died = Stopwatch::start();
        while daemon1.is_running() && !died.expired(TIMEOUT) {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(!daemon1.is_running(), "crash fault did not stop the daemon");
        assert_eq!(daemon1.stats().ok, 0);
        // A fresh incarnation replays the log and answers the orphan.
        let mut daemon2 = Daemon::new(DaemonConfig::new(&dir), registry())
            .spawn()
            .unwrap();
        let out = pending.wait(TIMEOUT).unwrap();
        assert_eq!(out.payload, b"SURVIVOR");
        daemon2.stop();
        assert_eq!(daemon2.stats().replayed, 1);
        assert_eq!(daemon2.stats().ok, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_after_execution_reexecutes_on_replay_but_answers_once() {
        use crate::faults::{FaultAction, FaultPlan, FaultSite};
        let dir = temp_dir();
        let invocations = Arc::new(TestCounter::new(0));
        let mk_registry = |counter: Arc<TestCounter>| {
            let r = ModuleRegistry::new();
            r.register(Arc::new(FnModule::new("count", move |_: &[String]| {
                counter.fetch_add(1, Ordering::Relaxed);
                Ok(b"done".to_vec())
            })));
            r
        };
        let plan = FaultPlan::none().with(FaultSite::Dispatch, 0, FaultAction::CrashAfter);
        let cfg = DaemonConfig::new(&dir).with_faults(FaultInjector::new(plan));
        let daemon1 = Daemon::new(cfg, mk_registry(Arc::clone(&invocations)))
            .spawn()
            .unwrap();
        let client = HostClient::new(&dir);
        let pending = client.submit("count", &[]).unwrap();
        let died = Stopwatch::start();
        while daemon1.is_running() && !died.expired(TIMEOUT) {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(!daemon1.is_running());
        // The module DID run once, but no response was written.
        assert_eq!(invocations.load(Ordering::Relaxed), 1);
        // Replay re-executes (at-least-once execution) and the host gets
        // exactly one response (exactly-once answering).
        let mut daemon2 = Daemon::new(
            DaemonConfig::new(&dir),
            mk_registry(Arc::clone(&invocations)),
        )
        .spawn()
        .unwrap();
        let out = pending.wait(TIMEOUT).unwrap();
        assert_eq!(out.payload, b"done");
        assert_eq!(invocations.load(Ordering::Relaxed), 2);
        daemon2.stop();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_response_frame_does_not_wedge_the_daemon() {
        use crate::faults::{FaultAction, FaultPlan, FaultSite};
        let dir = temp_dir();
        // The daemon's first response append is corrupted in flight; its
        // own recovering reads must skip the bad frame, and a retried
        // request must still be answerable.
        let plan = FaultPlan::none().with(
            FaultSite::SdAppend,
            0,
            FaultAction::Corrupt { xor_mask: 0x11 },
        );
        let cfg = DaemonConfig::new(&dir).with_faults(FaultInjector::new(plan));
        let mut daemon = Daemon::new(cfg, registry()).spawn().unwrap();
        let client = HostClient::new(&dir);
        // First call: the response is corrupt, so the host times out.
        let res = client.invoke("upper", &["lost".into()], Duration::from_millis(300));
        assert!(res.is_err(), "corrupted response should not decode");
        // Second call on the same log: daemon must still be functional.
        let out = client.invoke("upper", &["alive".into()], TIMEOUT).unwrap();
        assert_eq!(out.payload, b"ALIVE");
        daemon.stop();
        // The corrupt frame sat between the daemon's cursor and the second
        // request, so the daemon's recovering reader skipped (and counted)
        // it.
        assert!(daemon.stats().corrupt_skipped_bytes > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// One saturation run: 6 requests to a gated module under
    /// `max_in_flight = 1, max_queued = 2`, all submitted *before* the
    /// daemon starts so the (single-threaded) replay scan makes every
    /// admission decision before any worker can finish — the shed count
    /// is decided by arithmetic, not timing.
    fn saturation_run() -> DaemonStats {
        let dir = temp_dir();
        let release = dir.join("release.gate");
        let r = ModuleRegistry::new();
        let gate = release.clone();
        r.register(Arc::new(FnModule::new("gate", move |p: &[String]| {
            let waited = Stopwatch::start();
            while !gate.exists() && !waited.expired(TIMEOUT) {
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(p.join("").into_bytes())
        })));
        let client = HostClient::new(&dir);
        let pendings: Vec<_> = (0..6)
            .map(|i| client.submit("gate", &[format!("r{i}")]).unwrap())
            .collect();
        let cfg = DaemonConfig::new(&dir).with_admission(1, 2);
        let mut daemon = Daemon::new(cfg, r).spawn().unwrap();
        // Every admission decision is already made; open the gate and
        // collect the outcomes.
        std::fs::write(&release, b"go").unwrap();
        for (i, pending) in pendings.into_iter().enumerate() {
            match pending.wait(TIMEOUT) {
                Ok(out) => {
                    assert!(i < 3, "request {i} should have been shed");
                    assert_eq!(out.payload, format!("r{i}").into_bytes());
                }
                Err(crate::error::SmartFamError::Overloaded { retry_after, .. }) => {
                    assert!(i >= 3, "request {i} should have been served");
                    assert_eq!(retry_after, SHED_RETRY_AFTER);
                }
                Err(other) => panic!("request {i}: unexpected error {other}"),
            }
        }
        daemon.stop();
        let stats = daemon.stats();
        std::fs::remove_dir_all(&dir).unwrap();
        stats
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
        let dir = temp_dir();
        let invocations = Arc::new(TestCounter::new(0));
        let r = ModuleRegistry::new();
        let c = Arc::clone(&invocations);
        r.register(Arc::new(FnModule::new("count", move |_: &[String]| {
            c.fetch_add(1, Ordering::Relaxed);
            Ok(b"ran".to_vec())
        })));
        let client = HostClient::new(&dir);
        // expires_unix_ms = 1 is maximally in the past (0 = no deadline).
        let expired = client.submit_with_deadline("count", &[], 1).unwrap();
        let fresh = client.submit("count", &[]).unwrap();
        let mut daemon = Daemon::new(DaemonConfig::new(&dir), r).spawn().unwrap();
        // The expired request is answered (typed), never executed.
        let err = expired.wait(TIMEOUT).unwrap_err();
        assert!(err.to_string().contains("deadline expired"), "{err}");
        // The deadline-free request still runs normally.
        assert_eq!(fresh.wait(TIMEOUT).unwrap().payload, b"ran");
        daemon.stop();
        assert_eq!(daemon.stats().expired, 1);
        assert_eq!(invocations.load(Ordering::Relaxed), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batched_responses_carry_their_batch_framing_word() {
        use crate::batch::BatchConfig;
        let dir = temp_dir();
        let client = HostClient::new(&dir);
        let pending = client.submit("upper", &["framed".into()]).unwrap();
        let mut daemon = Daemon::new(
            DaemonConfig::new(&dir).with_batching(BatchConfig::default()),
            registry(),
        )
        .spawn()
        .unwrap();
        assert_eq!(pending.wait(TIMEOUT).unwrap().payload, b"FRAMED");
        // Re-read the log raw: the response frame names batch 1, slot 0.
        let mut log = LogFile::attach_at_start(dir.join("upper.log")).unwrap();
        let frames = log.poll().unwrap();
        let response = frames
            .iter()
            .find(|f| matches!(f.body, FrameBody::Response { .. }))
            .expect("response frame");
        assert_eq!(response.batch_id(), Some(1));
        assert_eq!(response.batch_index(), 0);
        daemon.stop();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batched_mode_keeps_rejection_semantics_per_request_inside_a_batch() {
        use crate::batch::BatchConfig;
        let dir = temp_dir();
        let client = HostClient::new(&dir);
        // One expired, one unknown-module, one good request — all in the
        // same batch; each must get its own typed answer.
        let expired = client.submit_with_deadline("upper", &[], 1).unwrap();
        let unknown = client.submit("nonexistent", &[]).unwrap();
        let good = client.submit("upper", &["ok".into()]).unwrap();
        let mut daemon = Daemon::new(
            DaemonConfig::new(&dir).with_batching(BatchConfig::default()),
            registry(),
        )
        .spawn()
        .unwrap();
        let err = expired.wait(TIMEOUT).unwrap_err();
        assert!(err.to_string().contains("deadline expired"), "{err}");
        let err = unknown.wait(TIMEOUT).unwrap_err();
        assert!(err.to_string().contains("no module registered"), "{err}");
        assert_eq!(good.wait(TIMEOUT).unwrap().payload, b"OK");
        daemon.stop();
        assert_eq!(daemon.stats().expired, 1);
        assert_eq!(daemon.stats().unknown_module, 1);
        assert_eq!(daemon.stats().ok, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Modules that echo their parameters joined by `|`.
    fn echo_registry(names: &[&str]) -> ModuleRegistry {
        let r = ModuleRegistry::new();
        for name in names {
            r.register(Arc::new(FnModule::new(*name, |p: &[String]| {
                Ok(p.join("|").into_bytes())
            })));
        }
        r
    }

    /// The parameters of call `call` to module `m` in `round`: 3, 1, 0 and
    /// then 2 of them, long in the first round and short after, multi-byte
    /// UTF-8 in every one.
    fn round_params(round: usize, m: usize, call: usize) -> Vec<String> {
        (0..[3, 1, 0, 2][round])
            .map(|j| {
                let tag = format!("{round}.{m}.{call}.{j}ж");
                if round == 0 {
                    tag.repeat(40) + "日本語"
                } else {
                    tag
                }
            })
            .collect()
    }

    #[test]
    fn a_recycled_parameter_set_never_leaks_an_earlier_request() {
        let dir = temp_dir();
        let mut daemon = Daemon::new(DaemonConfig::new(&dir), echo_registry(&["echo"]))
            .spawn()
            .unwrap();
        let client = HostClient::new(&dir);
        // One call at a time: each takes the set the call before gave back.
        for round in 0..4 {
            for call in 0..3 {
                let params = round_params(round, 0, call);
                let out = client.invoke("echo", &params, TIMEOUT).unwrap();
                assert_eq!(out.payload, params.join("|").into_bytes());
            }
        }
        daemon.stop();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_recycled_parameter_set_never_leaks_into_a_batch() {
        use crate::batch::BatchConfig;
        let cfg = BatchConfig::default();
        // Two modules on different workers: a batch of both runs one on
        // the daemon thread and the other on a thread of its own, and the
        // sets of both come back for the later rounds.
        let worker = |name: &str| worker_for(cfg.seed, name, cfg.workers);
        let second = (1..64)
            .map(|i| format!("echo{i}"))
            .find(|name| worker(name) != worker("echo0"))
            .expect("a module on another worker");
        let modules = ["echo0", second.as_str()];
        let dir = temp_dir();
        let client = HostClient::new(&dir);
        let mut daemon = None;
        for round in 0..4 {
            let mut calls = Vec::new();
            for call in 0..3 {
                for (m, name) in modules.iter().enumerate() {
                    let params = round_params(round, m, call);
                    calls.push((client.submit(name, &params).unwrap(), params));
                }
            }
            // The first round is staged before the daemon starts, so its
            // replay scan queues all six calls into one batch.
            daemon.get_or_insert_with(|| {
                Daemon::new(
                    DaemonConfig::new(&dir).with_batching(cfg),
                    echo_registry(&modules),
                )
                .spawn()
                .unwrap()
            });
            for (pending, params) in calls {
                let out = pending.wait(TIMEOUT).unwrap();
                assert_eq!(out.payload, params.join("|").into_bytes());
            }
        }
        let mut daemon = daemon.expect("spawned in the first round");
        daemon.stop();
        assert_eq!(daemon.stats().ok, 24);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn removed_and_recreated_log_is_served_again() {
        let dir = temp_dir();
        let mut daemon = Daemon::new(DaemonConfig::new(&dir), registry())
            .spawn()
            .unwrap();
        let first = HostClient::new(&dir);
        first.invoke("upper", &["one".into()], TIMEOUT).unwrap();
        std::fs::remove_file(first.log_path("upper")).unwrap();
        // A call on another log is answered only after a sweep that began
        // after the removal, and that sweep reports the removal too — so
        // the recreation below is never folded into one sweep with it.
        first.invoke("fail", &[], TIMEOUT).unwrap_err();
        // A fresh client: the first one's stream holds the deleted inode.
        let out = HostClient::new(&dir)
            .invoke("upper", &["two".into()], TIMEOUT)
            .unwrap();
        assert_eq!(out.payload, b"TWO");
        daemon.stop();
        assert_eq!(daemon.stats().requests, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A registry whose `tid` module answers with nothing and records the
    /// thread each invocation ran on.
    fn thread_recording_registry() -> (ModuleRegistry, Arc<Mutex<Vec<std::thread::ThreadId>>>) {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let r = registry();
        let record = Arc::clone(&seen);
        r.register(Arc::new(FnModule::new("tid", move |_: &[String]| {
            record.lock().push(std::thread::current().id());
            Ok(Vec::new())
        })));
        (r, seen)
    }

    #[test]
    fn sequential_calls_run_on_a_parked_worker_not_a_thread_each() {
        let dir = temp_dir();
        let (r, seen) = thread_recording_registry();
        let mut daemon = Daemon::new(DaemonConfig::new(&dir), r).spawn().unwrap();
        let client = HostClient::new(&dir);
        for _ in 0..200 {
            client.invoke("tid", &[], TIMEOUT).unwrap();
        }
        let threads: HashSet<_> = seen.lock().iter().copied().collect();
        // One worker serves them all; a second exists only if a request
        // was dispatched in the instant between its predecessor's answer
        // and that worker parking.
        assert!(threads.len() <= 2, "{} worker threads", threads.len());
        daemon.stop();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_calls_overlap_on_separate_workers() {
        let dir = temp_dir();
        let r = ModuleRegistry::new();
        // Returns only once four invocations are inside it at once.
        let together = Arc::new(std::sync::Barrier::new(4));
        r.register(Arc::new(FnModule::new("meet", move |_: &[String]| {
            together.wait();
            Ok(b"met".to_vec())
        })));
        let mut daemon = Daemon::new(DaemonConfig::new(&dir), r).spawn().unwrap();
        let client = HostClient::new(&dir);
        // Twice: the second round meets on the first round's parked workers.
        for _ in 0..2 {
            let pendings: Vec<_> = (0..4)
                .map(|_| client.submit("meet", &[]).unwrap())
                .collect();
            for pending in pendings {
                assert_eq!(pending.wait(TIMEOUT).unwrap().payload, b"met");
            }
        }
        daemon.stop();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_panicking_module_leaves_its_worker_serving() {
        let dir = temp_dir();
        let (r, seen) = thread_recording_registry();
        let panicked_on = Arc::new(Mutex::new(None));
        let record = Arc::clone(&panicked_on);
        r.register(Arc::new(FnModule::new("boom", move |_: &[String]| {
            *record.lock() = Some(std::thread::current().id());
            panic!("module bug");
        })));
        let mut daemon = Daemon::new(DaemonConfig::new(&dir), r).spawn().unwrap();
        let client = HostClient::new(&dir);
        let err = client.invoke("boom", &[], TIMEOUT).unwrap_err();
        assert!(err.to_string().contains("module panicked"), "{err}");
        for _ in 0..4 {
            client.invoke("tid", &[], TIMEOUT).unwrap();
        }
        let worker = panicked_on.lock().expect("boom ran");
        assert!(
            seen.lock().contains(&worker),
            "the worker died with its module"
        );
        daemon.stop();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stop_wakes_parked_workers() {
        let dir = temp_dir();
        let mut daemon = Daemon::new(DaemonConfig::new(&dir), registry())
            .spawn()
            .unwrap();
        let client = HostClient::new(&dir);
        // Two requests in one sweep leave two workers parked.
        let both = [(); 2].map(|_| client.submit("upper", &["x".into()]).unwrap());
        for pending in both {
            pending.wait(TIMEOUT).unwrap();
        }
        let stopping = Stopwatch::start();
        daemon.stop();
        // A worker left parked would hang the join forever; the bound only
        // says nothing waits out a timer on the way.
        assert!(
            !stopping.expired(Duration::from_secs(2)),
            "stop took {:?}",
            stopping.elapsed()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stop_is_idempotent() {
        let dir = temp_dir();
        let mut daemon = Daemon::new(DaemonConfig::new(&dir), registry())
            .spawn()
            .unwrap();
        daemon.stop();
        daemon.stop();
        assert!(!daemon.is_running());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
