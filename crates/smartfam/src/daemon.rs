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
//! current load ([`HeartbeatLoad`](crate::codec::HeartbeatLoad)) so hosts
//! can observe pressure without a request round trip.
//!
//! Every decision is `SdMachine`'s (`sd.rs`); this file is its driver:
//! the log sweep (the daemon's only watcher), the polls, the workers,
//! the appends and the heartbeat.

use crate::batch::{BatchConfig, BatchStats};
use crate::codec::{batch_word, HeartbeatRecord, ViewBody};
use crate::faults::{FaultInjector, FaultSite};
use crate::log_file::{give_back, module_of, LogFile, LogRole, FRESH_LOGS};
use crate::module::{ModuleRegistry, ProcessingModule};
use crate::sd::{
    note_frame, BucketedRun, Gated, Log, Next, Planned, QueuedRequest, Reply, SdMachine,
};
use crate::watch::{PollBackoff, Table, WatchConfig, WatchEventKind};
use mcsd_obs::names::{EVENT_SD_HEARTBEAT, EVENT_SD_POLL};
use mcsd_obs::{CounterFamily, Tracer, TrackId};
use mcsd_phoenix::Stopwatch;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
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
/// [`QUARANTINE_TOKEN`](crate::faults::QUARANTINE_TOKEN) so hosts fail
/// over instead of burning their deadline.
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
    /// Batched dispatch, off by default: under `None` each request is
    /// answered alone, by a reply that carries no batch word and is never
    /// synced. When set, admitted requests are drained in batches of up to
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

/// The daemon, ready to spawn.
pub struct Daemon {
    config: DaemonConfig,
    registry: ModuleRegistry,
}

/// Handle to a running daemon.
pub struct DaemonHandle {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    sd: Arc<Mutex<Sd>>,
}

impl Daemon {
    /// Create a daemon serving `registry` from `config.log_dir`.
    pub fn new(config: DaemonConfig, registry: ModuleRegistry) -> Daemon {
        Daemon { config, registry }
    }

    /// Take the census and replay it on this thread, then start the
    /// dispatch loop: requests submitted after `spawn` returns are always
    /// served live, never mistaken for replay leftovers.
    pub fn spawn(self) -> std::io::Result<DaemonHandle> {
        std::fs::create_dir_all(&self.config.log_dir)?;
        // Sampled before the census: no append or fresh log since is missed.
        let pace = PollBackoff::new(WatchConfig::default().poll_interval);
        let mut ctx = DaemonCtx::new(self.config, self.registry);
        let table = Table::census(ctx.config.log_dir.clone(), ctx.config.injector.clone());
        ctx.replay(&table);
        let (stop, sd) = (Arc::clone(&ctx.stop), Arc::clone(&ctx.sd));
        let handle = std::thread::spawn(move || ctx.run(table, pace));
        Ok(DaemonHandle {
            stop,
            handle: Some(handle),
            sd,
        })
    }
}

impl DaemonHandle {
    /// Counter snapshot.
    pub fn stats(&self) -> DaemonStats {
        self.sd.lock().stats
    }

    /// Batched-dispatch counter snapshot (all zero unless
    /// [`DaemonConfig::batch`] is set). Window-side fields are always
    /// zero here — they belong to the pipelined host client.
    pub fn batch_stats(&self) -> BatchStats {
        self.sd.lock().batch
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

/// The machine as this driver runs it: over module logs.
type Sd = SdMachine<Arc<ModuleLog>>;

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

impl Log for Arc<ModuleLog> {
    fn module(&self) -> &str {
        &self.name
    }
}

/// What [`DaemonCtx::execute_batch`] keeps from one batch to the next,
/// emptied after each.
#[derive(Default)]
struct BatchScratch {
    /// The batch, in batch order.
    planned: Vec<Planned<Arc<ModuleLog>>>,
    /// One per worker.
    buckets: Vec<Vec<BucketedRun>>,
    /// The commit order: the slots of `planned` holding a reply, by
    /// (log path, slot).
    order: Vec<usize>,
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

/// The live path's execution slots: workers that park between requests.
/// A request goes to a parked worker when one is free and to a new thread
/// otherwise, so the pool grows to the peak concurrency served — at most
/// `max_in_flight`: a worker that is not parked still holds one of the
/// machine's slots, given back under the lane lock as it counts itself
/// parked — before its reply is appended — and dispatch never exceeds
/// that bound.
struct WorkerPool {
    sd: Arc<Mutex<Sd>>,
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
    req: QueuedRequest<Arc<ModuleLog>>,
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
            // Slot, parameter set and worker are free before the reply can
            // be seen: the host's next request is neither queued nor given
            // a new thread.
            let reply = {
                let mut lane = self.lane();
                lane.parked += 1;
                self.sd.lock().finish(req, result)
            };
            req.log.append(&reply, &mut encoded);
            drop(reply);
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

/// The driver's side of the daemon: log cursors, the workers, the kept
/// buffers, and the one lock every decision is taken under.
struct DaemonCtx {
    config: DaemonConfig,
    /// The machine's track, copied for the polls and heartbeats: no lock.
    track: TrackId,
    stop: Arc<AtomicBool>,
    sd: Arc<Mutex<Sd>>,
    pool: Arc<WorkerPool>,
    logs: HashMap<PathBuf, LogState>,
    /// `FRESH_LOGS` when the loop last listed the directory for it.
    fresh_seen: u64,
    /// Scratch of one [`DaemonCtx::process_log`] poll — the offset of the
    /// latest request under each id no response has followed yet — and
    /// empty between polls: the daemon remembers no id it has served.
    unanswered: HashMap<u64, usize>,
    /// Scratch of the same poll: the unanswered requests, copied out, each
    /// with its offset. Empty between polls.
    fresh: Vec<(usize, QueuedRequest<Arc<ModuleLog>>)>,
    /// Scratch of the same poll: the machine's decisions, carried out after.
    decided: Vec<Next<Arc<ModuleLog>>>,
    /// The loop's kept reply buffer (rejects, sheds, batch commits) and the
    /// wire lengths of the frames a batch commit encoded into it.
    encoded: Vec<u8>,
    encoded_lens: Vec<usize>,
    batch_scratch: BatchScratch,
}

impl DaemonCtx {
    fn new(config: DaemonConfig, registry: ModuleRegistry) -> DaemonCtx {
        let sd = Arc::new(Mutex::new(SdMachine::new(config.clone(), registry)));
        let track = sd.lock().track;
        DaemonCtx {
            config,
            track,
            stop: Arc::new(AtomicBool::new(false)),
            pool: Arc::new(WorkerPool {
                sd: Arc::clone(&sd),
                lane: Default::default(),
                wake: Condvar::new(),
            }),
            sd,
            logs: HashMap::new(),
            fresh_seen: FRESH_LOGS.load(Ordering::Acquire),
            unanswered: HashMap::new(),
            fresh: Vec::new(),
            decided: Vec::new(),
            encoded: Vec::new(),
            encoded_lens: Vec::new(),
            batch_scratch: BatchScratch::default(),
        }
    }

    /// Startup replay: answer pending requests left over from a previous
    /// daemon incarnation, in the census's path order, so multi-log replay
    /// admits in a stable order regardless of directory-iteration order.
    fn replay(&mut self, census: &Table) {
        for path in census.paths().filter(|path| module_of(path).is_some()) {
            if self.stop.load(Ordering::Relaxed) {
                break;
            }
            self.process_log(path, true);
        }
    }

    /// The dispatch loop, until the daemon stops.
    fn run(mut self, mut table: Table, mut pace: PollBackoff) {
        // `None` = no heartbeat written yet, so the first loop turn emits one.
        let mut last_heartbeat: Option<Stopwatch> = None;
        let heartbeat_tmp = self.config.log_dir.join("daemon.heartbeat.tmp");
        let heartbeat_file = self.config.log_dir.join(HEARTBEAT_FILE);
        while !self.stop.load(Ordering::Relaxed) {
            // Heartbeat (an injected stall suppresses the write, so the file
            // goes stale exactly the way a wedged daemon's would): a stamp on
            // the run's clock and the load hosts steer by. Its cadence is a
            // `Stopwatch`, so stepping the clock never stops the beats.
            if last_heartbeat
                .as_ref()
                .is_none_or(|sw| sw.expired(HEARTBEAT_INTERVAL))
            {
                let injector = &self.config.injector;
                self.config
                    .tracer
                    .volatile_event(self.track, EVENT_SD_HEARTBEAT, &[]);
                // `Stall` is the only action valid at the heartbeat site.
                if injector.fire(FaultSite::Heartbeat).is_none() {
                    let record = HeartbeatRecord {
                        stamp_ms: injector.now_ms(),
                        load: self.sd.lock().load(),
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
            self.drain_queue();
            // Park until an append or the gap, then read what woke the loop.
            let appended = pace.idle();
            if self.read_logs(&mut table, appended) {
                pace.reset();
            }
        }
        // Drain in-flight module invocations before exiting. (Queued but
        // never-dispatched requests stay unanswered in the log; the next
        // incarnation's replay scan picks them up.)
        self.pool.close();
    }

    /// Read what woke the loop (DESIGN.md §3): on an append wake, each
    /// attached log a request landed in, or a listing sweep after a fresh
    /// log; on the gap, the sweep, which alone sees other processes' writes.
    fn read_logs(&mut self, table: &mut Table, appended: bool) -> bool {
        let fresh = FRESH_LOGS.load(Ordering::Acquire);
        if appended && std::mem::replace(&mut self.fresh_seen, fresh) == fresh {
            // In path order; no I/O for a log no request landed in.
            let mut read = false;
            for path in table.paths() {
                let written = self.logs.get(path).is_some_and(|s| s.log.written());
                if written && !self.stop.load(Ordering::Relaxed) {
                    self.process_log(path, false);
                    read = true;
                }
            }
            return read;
        }
        table.sweep(appended, |path, kind| {
            if self.stop.load(Ordering::Relaxed) {
                // What is left waits for the next incarnation's replay.
            } else {
                if kind != WatchEventKind::Modified {
                    // Cursor and append handles belong to the old inode: a
                    // log created under this name is attached afresh.
                    self.logs.remove(&**path);
                }
                if kind != WatchEventKind::Removed && module_of(path).is_some() {
                    self.process_log(path, false);
                }
            }
        })
    }

    /// First sight of the log at `path`. `None` for an unreadable file
    /// (permissions, vanished between the sweep's `stat` and now): the
    /// next change the sweep sees retries.
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
    /// admission under one lock, acting on the decisions once it is given
    /// up. A request is answered iff a response carrying its id follows it
    /// in the log, and one poll decides that for every request it reads:
    /// the replay poll reads the whole history at once, and a live poll
    /// never meets an earlier poll's request again — the cursor only
    /// advances (DESIGN.md §10).
    fn process_log(&mut self, path: &Path, replay: bool) {
        self.config
            .tracer
            .volatile_event(self.track, EVENT_SD_POLL, &[]);
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
        // Copy out what will be admitted and nothing else, each request's
        // parameters into a recycled set, and admit it in log order.
        let mut fresh = std::mem::take(&mut self.fresh);
        let mut decided = std::mem::take(&mut self.decided);
        if skipped > 0 || !self.unanswered.is_empty() {
            let at = self.config.injector.now_ms();
            let mut sd = self.sd.lock();
            sd.stats.corrupt_skipped_bytes += skipped;
            fresh.extend(self.unanswered.drain().filter_map(|(id, offset)| {
                let ViewBody::Request {
                    params,
                    expires_unix_ms,
                } = state.log.frame_at(offset)?.body
                else {
                    return None;
                };
                let mut set = sd.spare();
                params.copy_into(&mut set);
                let request = QueuedRequest {
                    log: Arc::clone(&state.module),
                    id,
                    params: set,
                    expires_unix_ms,
                };
                Some((offset, request))
            }));
            fresh.sort_unstable_by_key(|(offset, _)| *offset);
            for (_, req) in fresh.drain(..) {
                // An injected crash ends the poll: nothing after it is read.
                let crashed = matches!(decided.last(), Some((Gated::Crash(_), _)));
                if crashed || self.stop.load(Ordering::Relaxed) {
                    break;
                }
                decided.extend(sd.admit(req, replay, at));
            }
        }
        state.log.release_poll();
        for next in decided.drain(..) {
            self.act(next);
        }
        if replay {
            // A history of unanswered requests grew the scratch; live
            // polls need a handful of slots.
            self.unanswered.shrink_to_fit();
            fresh.shrink_to_fit();
            decided.shrink_to_fit();
        }
        (self.fresh, self.decided) = (fresh, decided);
    }

    /// Carry out one of the machine's decisions; `false` once the daemon
    /// is stopping.
    fn act(&mut self, (gated, req): Next<Arc<ModuleLog>>) -> bool {
        match gated {
            Gated::Run(module) => self.pool.run(LiveJob { module, req }),
            Gated::Reject(reply) => req.log.append(&reply, &mut self.encoded),
            Gated::Crash(run_first) => {
                // A crash after execution runs the module, then dies before
                // the response is written — the worst crash window for
                // replay idempotency.
                if let Some(module) = run_first {
                    let _ = run_module(module.as_ref(), &req.params);
                }
                self.stop.store(true, Ordering::Relaxed);
            }
        }
        !self.stop.load(Ordering::Relaxed)
    }

    /// Move queued requests into freed execution slots, FIFO; batched mode
    /// runs the queue as batches instead.
    fn drain_queue(&mut self) {
        let mut scratch = std::mem::take(&mut self.batch_scratch);
        while !self.stop.load(Ordering::Relaxed) {
            let at = self.config.injector.now_ms();
            let ran = if self.config.batch.is_some() {
                self.execute_batch(at, &mut scratch)
            } else {
                let next = self.sd.lock().next_live(at);
                next.is_some_and(|next| self.act(next))
            };
            if !ran {
                break;
            }
        }
        self.batch_scratch = scratch;
    }

    /// Run the next queued requests as one batch (DESIGN.md §18) in
    /// `scratch`, kept from batch to batch: the machine's plan, the modules
    /// on the seeded worker pool, the machine's books, then one coalesced
    /// commit per log with one fsync. The workers only *compute*: every
    /// event and counter lands in the machine in batch order, so a same-seed
    /// run gives byte-identical traces whatever the workers' timing.
    /// `false` once nothing is queued or the daemon is stopping.
    fn execute_batch(&mut self, at: u64, scratch: &mut BatchScratch) -> bool {
        let BatchScratch {
            planned,
            buckets,
            order,
        } = scratch;
        let plan = self.sd.lock().plan_batch(at, planned, buckets);
        let batch_id = match plan {
            None => return false,
            Some(Ok(batch_id)) => batch_id,
            Some(Err(crash)) => return self.act(crash),
        };
        // Phase 2 (parallel): shard-per-owner execution. The seeded hash
        // pins each module to one worker, so one module's requests run
        // serially in batch order while distinct modules overlap. This
        // thread is a worker too: it runs one bucket and starts a thread
        // for each of the others, so a one-module batch starts none.
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
        self.sd.lock().complete_batch(planned, buckets);
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
        planned.clear();
        true
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
            self.sd.lock().committed(&outcome, lens.len());
            if !outcome.torn {
                break;
            }
            let (done, retried) = lens.split_at(outcome.frames_durable);
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
    use crate::faults::FaultPlan;
    use crate::host::HostClient;
    use crate::module::{FnModule, ModuleError};
    use crate::temp_dir;
    use mcsd_obs::names::{EVENT_SD_COMPLETE, EVENT_SD_DISPATCH, EVENT_SD_REQUEST};
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64 as TestCounter;

    fn registry() -> ModuleRegistry {
        let r = ModuleRegistry::new();
        r.register(Arc::new(FnModule::new("upper", |p: &[String]| {
            Ok(p.join(" ").to_uppercase().into_bytes())
        })));
        r.register(Arc::new(FnModule::new("fail", |_: &[String]| {
            Err(ModuleError::new("intentional failure"))
        })));
        r
    }

    fn spawn(config: DaemonConfig, registry: ModuleRegistry) -> DaemonHandle {
        Daemon::new(config, registry).spawn().unwrap()
    }

    const TIMEOUT: Duration = Duration::from_secs(120);

    #[test]
    fn end_to_end_invoke() {
        let dir = temp_dir();
        let mut daemon = spawn(DaemonConfig::new(&dir), registry());
        let client = HostClient::new(&dir);
        let out = client
            .invoke("upper", &["hello".into(), "world".into()], TIMEOUT)
            .unwrap();
        assert_eq!(out.payload, b"HELLO WORLD");
        assert!(out.request_bytes > 0);
        assert!(out.response_bytes > 0);
        // A module's failure reaches the host typed, with its message.
        match client.invoke("fail", &[], TIMEOUT) {
            Err(crate::error::SmartFamError::ModuleFailed { module, message }) => {
                assert_eq!(module, "fail");
                assert!(message.contains("intentional"));
            }
            other => panic!("{other:?}"),
        }
        daemon.stop();
        assert_eq!(daemon.stats().ok, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn traced_invoke_emits_cataloged_lifecycle_events() {
        let dir = temp_dir();
        let tracer = Tracer::enabled();
        let mut daemon = spawn(
            DaemonConfig::new(&dir).with_tracer(tracer.clone()),
            registry(),
        );
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
    fn sequential_invocations_share_a_log() {
        let dir = temp_dir();
        let mut daemon = spawn(DaemonConfig::new(&dir), registry());
        let client = HostClient::new(&dir);
        for i in 0..10 {
            let out = client.invoke("upper", &[format!("msg{i}")], TIMEOUT);
            assert_eq!(out.unwrap().payload, format!("MSG{i}").into_bytes());
        }
        // Requests and responses interleaved decode as one clean stream.
        let data = std::fs::read(dir.join("upper.log")).unwrap();
        let (frames, end) = crate::codec::decode_stream(&data, 0).unwrap();
        assert_eq!(end, data.len(), "no trailing garbage");
        assert_eq!(frames.iter().filter(|f| f.is_request()).count(), 10);
        assert_eq!(frames.len(), 20);
        daemon.stop();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The driver reads expiry on the run's clock, which the client shares,
    /// both at admission and at a drain: on any other clock the first two
    /// calls would be dropped too.
    #[test]
    fn expiry_is_read_on_the_clock_the_client_shares() {
        let dir = temp_dir();
        let t = 1_000_000;
        let clock = FaultInjector::stepped(FaultPlan::none(), t);
        let client = HostClient::new(&dir).with_faults(clock.clone());
        // One slot: replay runs the first call from admission and queues
        // the others for the loop's drains.
        let params = ["x".to_string()];
        let calls = [t + 1, t + 1, t].map(|e| client.submit_with_deadline("upper", &params, e));
        let config = DaemonConfig::new(&dir).with_admission(1, 2);
        let mut daemon = spawn(config.with_faults(clock), registry());
        let [first, second, third] = calls.map(|call| call.unwrap().wait(TIMEOUT));
        assert_eq!(first.unwrap().payload, b"X");
        assert_eq!(second.unwrap().payload, b"X");
        let err = third.unwrap_err();
        assert!(err.to_string().contains("deadline expired"), "{err}");
        daemon.stop();
        assert_eq!(daemon.stats().expired, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn heartbeat_file_appears_and_advances() {
        let dir = temp_dir();
        let t = 1_000_000;
        let clock = FaultInjector::stepped(FaultPlan::none(), t);
        let config = DaemonConfig::new(&dir).with_faults(clock.clone());
        let mut daemon = spawn(config, registry());
        let hb = dir.join(HEARTBEAT_FILE);
        let waited = Stopwatch::start();
        let mut pace = PollBackoff::new(Duration::from_millis(10));
        // The daemon stamps each record on the run's clock.
        let mut beat_at = |stamp_ms: u64| loop {
            let record = std::fs::read(&hb).ok();
            if let Some(record) = record.and_then(|bytes| HeartbeatRecord::decode(&bytes)) {
                if record.stamp_ms == stamp_ms {
                    return record;
                }
            }
            assert!(
                !waited.expired(TIMEOUT),
                "no heartbeat stamped {stamp_ms} within {TIMEOUT:?}"
            );
            pace.idle();
        };
        beat_at(t);
        clock.set_clock(t + 7);
        let later = beat_at(t + 7);
        // An idle daemon publishes a zero load snapshot.
        assert_eq!(later.load.in_flight, 0);
        assert_eq!(later.load.queued, 0);
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
        let mut daemon = spawn(DaemonConfig::new(&dir), registry());
        let out = pending.wait(TIMEOUT).unwrap();
        assert_eq!(out.payload, b"LATE");
        daemon.stop();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn restart_does_not_duplicate_answered_requests() {
        let dir = temp_dir();
        {
            let _daemon = spawn(DaemonConfig::new(&dir), registry());
            let client = HostClient::new(&dir);
            client.invoke("upper", &["once".into()], TIMEOUT).unwrap();
        }
        // Second daemon incarnation over the same log dir.
        let mut daemon2 = spawn(DaemonConfig::new(&dir), registry());
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
        let mut daemon = spawn(DaemonConfig::new(&dir), registry());
        let mut host = LogFile::attach_at_end(dir.join("upper.log")).unwrap();
        for word in ["one", "two"] {
            let request = Frame::request(7, vec![word.into()]);
            if word == "one" {
                // A foreign client's write: the file format is the protocol.
                use std::io::Write;
                let path = dir.join("upper.log");
                let raw = std::fs::OpenOptions::new().append(true).open(path);
                raw.unwrap().write_all(&request.encode()).unwrap();
            } else {
                host.append(&request).unwrap();
            }
            let waited = Stopwatch::start();
            let mut pace = PollBackoff::new(Duration::from_millis(1));
            let answer = loop {
                let frames = host.poll_recovering().unwrap().0;
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

    /// A daemon's driver without its thread, sharing `io`: the census
    /// taken and replayed, the loop's reads left to the test.
    fn driven(dir: &Path, io: &FaultInjector) -> (DaemonCtx, Table) {
        let mut ctx = DaemonCtx::new(DaemonConfig::new(dir).with_faults(io.clone()), registry());
        let table = Table::census(dir.to_path_buf(), io.clone());
        ctx.replay(&table);
        (ctx, table)
    }

    #[test]
    fn a_request_no_wake_announces_is_answered_by_the_gap_sweep() {
        let dir = temp_dir();
        let io = FaultInjector::new(FaultPlan::none());
        let mut host = LogFile::attach_at_end(dir.join("upper.log")).unwrap();
        let (mut ctx, mut table) = driven(&dir, &io);
        // A foreign client's write, not through a `LogFile`: no append wake.
        let raw = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("upper.log"));
        let request = Frame::request(7, vec!["raw".into()]);
        std::io::Write::write_all(&mut raw.unwrap(), &request.encode()).unwrap();
        // The gap's sweep: a `stat` of the directory and of the log, the
        // poll's `fstat` (skipped if a request through a handle here landed
        // in a log sharing this one's slot), and one read of the request.
        let before = io.ledger();
        assert!(ctx.read_logs(&mut table, false));
        let swept = io.ledger().1.since(&before.1);
        assert!((2..=3).contains(&swept.metadata), "{swept:?}");
        assert_eq!(swept.reads, 1);
        assert_eq!(swept.read_bytes, request.encoded_len() as u64);
        ctx.pool.close();
        let answered = [request, Frame::response_ok(7, b"RAW".to_vec())];
        assert_eq!(host.poll_recovering().unwrap().0, answered);
        assert_eq!(io.ledger().0.appends, 0, "nothing woke the loop");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_log_created_after_the_census_is_attached_on_an_append_wake() {
        let dir = temp_dir();
        let io = FaultInjector::new(FaultPlan::none());
        let _upper = LogFile::attach_at_end(dir.join("upper.log")).unwrap();
        let (mut ctx, mut table) = driven(&dir, &io);
        // Within the directory's timestamp tick or not: the creation count
        // moved, so the wake lists the directory.
        let client = HostClient::new(&dir).with_faults(io.clone());
        let pending = client.submit("fail", &[]).unwrap();
        let before = io.ledger().1;
        assert!(ctx.read_logs(&mut table, true));
        assert!(ctx.logs.contains_key(&dir.join("fail.log")));
        // The directory's `stat`, its listing and the new log's `stat`,
        // the attached log's `stat`, and one read of the request.
        let woke = io.ledger().1.since(&before);
        assert_eq!((woke.metadata, woke.reads), (4, 1));
        ctx.pool.close();
        let answer = pending.wait(TIMEOUT).unwrap_err();
        assert!(answer.to_string().contains("intentional"), "{answer}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_crash_before_dispatch_is_replayed_by_next_incarnation() {
        use crate::faults::{FaultAction, FaultSite};
        let dir = temp_dir();
        let plan = FaultPlan::none().with(FaultSite::Dispatch, 0, FaultAction::CrashBefore);
        let cfg = DaemonConfig::new(&dir).with_faults(FaultInjector::new(plan));
        let daemon1 = spawn(cfg, registry());
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
        let mut daemon2 = spawn(DaemonConfig::new(&dir), registry());
        let out = pending.wait(TIMEOUT).unwrap();
        assert_eq!(out.payload, b"SURVIVOR");
        daemon2.stop();
        assert_eq!(daemon2.stats().replayed, 1);
        assert_eq!(daemon2.stats().ok, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_after_execution_reexecutes_on_replay_but_answers_once() {
        use crate::faults::{FaultAction, FaultSite};
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
        let daemon1 = spawn(cfg, mk_registry(Arc::clone(&invocations)));
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
        let mut daemon2 = spawn(
            DaemonConfig::new(&dir),
            mk_registry(Arc::clone(&invocations)),
        );
        let out = pending.wait(TIMEOUT).unwrap();
        assert_eq!(out.payload, b"done");
        assert_eq!(invocations.load(Ordering::Relaxed), 2);
        daemon2.stop();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_response_frame_does_not_wedge_the_daemon() {
        use crate::faults::{FaultAction, FaultSite};
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
        let mut daemon = spawn(cfg, registry());
        // A log holding nothing but garbage is skipped too.
        std::fs::write(dir.join("garbage.log"), b"this is not a frame").unwrap();
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

    #[test]
    fn batched_responses_carry_their_batch_framing_word() {
        use crate::batch::BatchConfig;
        let dir = temp_dir();
        let client = HostClient::new(&dir);
        let pending = client.submit("upper", &["framed".into()]).unwrap();
        let config = DaemonConfig::new(&dir).with_batching(BatchConfig::default());
        let mut daemon = spawn(config, registry());
        assert_eq!(pending.wait(TIMEOUT).unwrap().payload, b"FRAMED");
        // Re-read the log raw: the response frame names batch 1, slot 0.
        let mut log = LogFile::attach_at_start(dir.join("upper.log")).unwrap();
        let frames = log.poll_recovering().unwrap().0;
        let response = frames
            .iter()
            .find(|f| matches!(f.body, FrameBody::Response { .. }))
            .expect("response frame");
        assert_eq!(response.batch, batch_word(1, 0));
        daemon.stop();
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
        let mut daemon = spawn(DaemonConfig::new(&dir), echo_registry(&["echo"]));
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
        let worker = |name: &str| crate::sd::worker_for(cfg.seed, name, cfg.workers);
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
            let config = DaemonConfig::new(&dir).with_batching(cfg);
            daemon.get_or_insert_with(|| spawn(config, echo_registry(&modules)));
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
        let mut daemon = spawn(DaemonConfig::new(&dir), registry());
        let first = HostClient::new(&dir);
        first.invoke("upper", &["one".into()], TIMEOUT).unwrap();
        // The removal and the recreation may fall into one sweep.
        std::fs::remove_file(first.log_path("upper")).unwrap();
        // A fresh client: the first one's stream holds the deleted inode.
        let out = HostClient::new(&dir)
            .invoke("upper", &["two".into()], TIMEOUT)
            .unwrap();
        assert_eq!(out.payload, b"TWO");
        daemon.stop();
        assert_eq!(daemon.stats().requests, 2);
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
        let mut daemon = spawn(DaemonConfig::new(&dir), r);
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
        // Each answers only once four invocations, of either, are inside
        // one at once: both module logs are in flight together.
        let together = Arc::new(std::sync::Barrier::new(4));
        for (name, upper) in [("meet", false), ("shout", true)] {
            let together = Arc::clone(&together);
            r.register(Arc::new(FnModule::new(name, move |p: &[String]| {
                together.wait();
                let out = p.concat();
                Ok(if upper { out.to_uppercase() } else { out }.into_bytes())
            })));
        }
        let mut daemon = spawn(DaemonConfig::new(&dir), r);
        let client = HostClient::new(&dir);
        // Twice: the second round meets on the first round's parked workers.
        // Two host threads share the client, each calling both modules.
        for _ in 0..2 {
            std::thread::scope(|s| {
                for word in ["a", "b"] {
                    let client = &client;
                    s.spawn(move || {
                        let calls = ["meet", "shout"].map(|m| client.submit(m, &[word.into()]));
                        let [meet, shout] = calls.map(|c| c.unwrap().wait(TIMEOUT).unwrap());
                        assert_eq!(meet.payload, word.as_bytes());
                        assert_eq!(shout.payload, word.to_uppercase().into_bytes());
                    });
                }
            });
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
        let mut daemon = spawn(DaemonConfig::new(&dir), r);
        let client = HostClient::new(&dir);
        let err = client.invoke("boom", &[], TIMEOUT).unwrap_err();
        let typed = matches!(&err, crate::SmartFamError::ModuleFailed { message, .. }
            if message == "module panicked: module bug");
        assert!(typed, "{err}");
        for _ in 0..4 {
            client.invoke("tid", &[], TIMEOUT).unwrap();
        }
        assert!(daemon.is_running());
        let worker = panicked_on.lock().expect("boom ran");
        assert!(
            seen.lock().contains(&worker),
            "the worker died with its module"
        );
        daemon.stop();
        assert_eq!(daemon.stats().module_errors, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stop_wakes_parked_workers() {
        let dir = temp_dir();
        let mut daemon = spawn(DaemonConfig::new(&dir), registry());
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
        // Stopping again is a no-op.
        daemon.stop();
        assert!(!daemon.is_running());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Dropping the handle stops the daemon as `stop` does: a module still
    /// running has answered by the time the drop returns.
    #[test]
    fn dropping_the_handle_waits_for_a_running_module() {
        let dir = temp_dir();
        let r = ModuleRegistry::new();
        let (started, done) = (
            Arc::new(AtomicBool::new(false)),
            Arc::new(AtomicBool::new(false)),
        );
        let (start, finish) = (Arc::clone(&started), Arc::clone(&done));
        r.register(Arc::new(FnModule::new("slow", move |_: &[String]| {
            start.store(true, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(50));
            finish.store(true, Ordering::Relaxed);
            Ok(b"late".to_vec())
        })));
        let daemon = spawn(DaemonConfig::new(&dir), r);
        let pending = HostClient::new(&dir).submit("slow", &[]).unwrap();
        let waited = Stopwatch::start();
        while !started.load(Ordering::Relaxed) {
            assert!(!waited.expired(TIMEOUT), "the module never started");
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(daemon);
        assert!(done.load(Ordering::Relaxed), "the drop returned first");
        assert_eq!(pending.wait(TIMEOUT).unwrap().payload, b"late");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
