//! The host-side client.
//!
//! "The application on the host node writes input parameters of the module
//! to its log file … the inotify program in the host node monitors the log
//! file, checking whether or not the results have been generated by McSD"
//! (§IV-A). [`HostClient::invoke`] performs the full five-step round trip;
//! [`HostClient::submit`] returns a [`PendingCall`] so the host can overlap
//! its own computation with the offloaded work — the essence of the McSD
//! multi-application scenarios. [`HostClient::invoke_window`] drives the
//! window that budgets, stamps, probes and retries calls under the client's
//! [`RetryPolicy`]; a lockstep resilient call is a window of one.

use crate::batch::{BatchStats, WindowConfig};
use crate::codec::{
    decode_retry_after, encode_request_into, HeartbeatLoad, HeartbeatRecord, Status, ViewBody,
};
use crate::error::SmartFamError;
use crate::faults::{FaultInjector, ResilienceStats};
use crate::log_file::{give_back, log_path, LogFile, LogRole};
use crate::watch::PollBackoff;
use crate::window::{self, Attempt, Wire};
use mcsd_obs::names::EVENT_HOST_SUBMIT;
use mcsd_obs::{ClockDomain, Tracer, TrackId};
use mcsd_phoenix::Stopwatch;
use parking_lot::Mutex;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Result of a completed invocation, with the byte counts the cluster
/// layer charges to the NFS/network cost model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvokeOutcome {
    /// The module's result payload.
    pub payload: Vec<u8>,
    /// Bytes the host wrote into the log file (parameters).
    pub request_bytes: u64,
    /// Bytes the module wrote back (results).
    pub response_bytes: u64,
    /// Wall-clock time from the call's first submit to its response.
    pub elapsed: Duration,
    /// What the resilience machinery did to complete this call (on the
    /// plain [`HostClient::invoke`] path, only the corrupt bytes skipped).
    pub resilience: ResilienceStats,
}

/// The response demultiplexer of one (client, module log) pair: the
/// client's only reader of that log. One cursor checks each appended byte
/// once, where it lies in the read buffer, and routes every response to
/// the in-flight call it answers, by id; the client's own requests and
/// responses nobody on this client waits for cost that check and nothing
/// else.
///
/// Every access goes through the owning `Mutex`, and the guard spans the
/// stream's own cursor I/O on purpose: the lock *is* the serial
/// shard-owner of this cursor (DESIGN.md §18), contended only by threads
/// sharing one client on one module, and never held across another lock.
struct ResponseStream {
    log: LogFile,
    /// In-flight calls by request id: `None` while awaited, `Some` once
    /// the response is routed but not yet taken.
    calls: HashMap<u64, Option<Routed>>,
    /// The request being appended: a reused buffer, so a submit allocates
    /// nothing once it has grown to the largest request seen — unless that
    /// was over 256 KiB, which it gives back.
    request: Vec<u8>,
}

/// What a stream copies out of a response it routes: the status, the
/// payload — the one copy, the `Vec` [`InvokeOutcome`] hands its caller —
/// and the frame's length on the wire.
type Routed = (Status, Vec<u8>, usize);

/// One module log as a client sees it: the module's name — every call to
/// it shares this one copy — and the stream that reads its log.
struct ModuleStream {
    module: String,
    stream: Mutex<ResponseStream>,
}

impl ResponseStream {
    fn new(log: LogFile) -> ResponseStream {
        ResponseStream {
            log,
            calls: HashMap::new(),
            request: Vec::new(),
        }
    }

    /// Append a request — encoded straight from the caller's parameters —
    /// and register its id. An idle stream restarts its cursor at the end
    /// of this append — an aligned offset that precedes every response
    /// still of interest (see [`crate::log_file`]).
    fn submit(
        &mut self,
        id: u64,
        params: &[String],
        expires_unix_ms: u64,
    ) -> Result<u64, SmartFamError> {
        self.request.clear();
        encode_request_into(&mut self.request, id, params, expires_unix_ms);
        let bytes = if self.calls.is_empty() {
            self.log.append_and_rebase(&self.request)?
        } else {
            self.log.append_encoded(&self.request)?
        };
        give_back(&mut self.request);
        self.calls.insert(id, None);
        Ok(bytes)
    }

    /// The response to call `id` if it has arrived — polling the log once,
    /// and routing whatever responses that shows, when it has not been
    /// routed yet — plus the corrupt bytes that poll skipped.
    fn take(&mut self, id: u64) -> Result<(Option<Routed>, u64), SmartFamError> {
        let mut skipped = 0;
        if self.calls.get(&id).is_some_and(Option::is_none) {
            let calls = &mut self.calls;
            skipped = self.log.poll_each(|_, view| {
                if let ViewBody::Response { status, payload } = view.body {
                    if let Some(slot @ None) = calls.get_mut(&view.id) {
                        *slot = Some((status, payload.to_vec(), view.wire_len));
                    }
                }
            })?;
            self.log.release_poll();
        }
        let response = match self.calls.entry(id) {
            Entry::Occupied(call) if call.get().is_some() => call.remove(),
            _ => None,
        };
        Ok((response, skipped))
    }
}

/// An in-flight invocation: a ticket on its module log's response stream.
pub struct PendingCall {
    id: u64,
    log: Arc<ModuleStream>,
    request_bytes: u64,
    submitted: Stopwatch,
    skipped_bytes: u64,
}

impl Drop for PendingCall {
    /// Deregister, so a late response to an abandoned call is discarded
    /// instead of parked in the stream forever.
    fn drop(&mut self) {
        self.log.stream.lock().calls.remove(&self.id);
    }
}

impl PendingCall {
    /// The request id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Non-blocking progress check: `Ok(Some(outcome))` once the response
    /// arrived successfully, `Ok(None)` while still pending, `Err` when
    /// the module reported failure or I/O broke.
    pub fn poll_outcome(&mut self) -> Result<Option<InvokeOutcome>, SmartFamError> {
        let (response, skipped) = self.log.stream.lock().take(self.id)?;
        self.skipped_bytes += skipped;
        let Some((status, payload, wire_len)) = response else {
            return Ok(None);
        };
        match status {
            Status::Ok => Ok(Some(InvokeOutcome {
                payload,
                request_bytes: self.request_bytes,
                response_bytes: wire_len as u64,
                elapsed: self.submitted.elapsed(),
                resilience: ResilienceStats {
                    corrupt_skipped_bytes: self.skipped_bytes,
                    ..ResilienceStats::default()
                },
            })),
            Status::Error => Err(SmartFamError::ModuleFailed {
                module: self.log.module.clone(),
                message: String::from_utf8_lossy(&payload).into_owned(),
            }),
            Status::Overloaded => Err(SmartFamError::Overloaded {
                module: self.log.module.clone(),
                retry_after: decode_retry_after(&payload).unwrap_or_default(),
            }),
        }
    }

    /// The one blocking wait: poll the log file after every append in this
    /// process and at least every 1 ms (`HOST_POLL_INTERVAL`) until the
    /// response arrives or `timeout` elapses — short calls return fast and
    /// long offloads do not spin the host CPU — running `idle` after every
    /// poll that found nothing. The hook is where a caller watches what
    /// the wait depends on (the daemon's heartbeat, a crashed daemon to
    /// restart); its error aborts the wait.
    pub fn wait_with(
        &mut self,
        timeout: Duration,
        mut idle: impl FnMut() -> Result<(), SmartFamError>,
    ) -> Result<InvokeOutcome, SmartFamError> {
        let waited = Stopwatch::start();
        let mut pace = PollBackoff::new(HOST_POLL_INTERVAL);
        loop {
            if let Some(outcome) = self.poll_outcome()? {
                return Ok(outcome);
            }
            if waited.expired(timeout) {
                return Err(SmartFamError::Timeout {
                    module: self.log.module.clone(),
                    request_id: self.id,
                });
            }
            idle()?;
            pace.idle();
        }
    }

    /// Block until the response arrives or `timeout` elapses.
    pub fn wait(mut self, timeout: Duration) -> Result<InvokeOutcome, SmartFamError> {
        self.wait_with(timeout, || Ok(()))
    }
}

impl Attempt for PendingCall {
    fn id(&self) -> u64 {
        self.id
    }

    fn skipped(&self) -> u64 {
        self.skipped_bytes
    }

    fn poll(&mut self) -> Result<Option<InvokeOutcome>, SmartFamError> {
        self.poll_outcome()
    }
}

/// Process-global request-id counter, seeded with the process id so two
/// host *processes* sharing a log dir do not collide, and shared across
/// all [`HostClient`] instances so two clients in one process do not
/// either. Uniqueness is for the host side: a response stream routes each
/// response to the in-flight call waiting under its id, so two calls in
/// flight on one log must differ. The daemon remembers no id — it answers
/// an id met again (a recycled pid) like any other request.
static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(0);

fn fresh_request_id() -> u64 {
    let seq = NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed);
    ((std::process::id() as u64) << 32) | (seq & 0xffff_ffff)
}

/// What a heartbeat probe concluded about the SD daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Liveness {
    /// The heartbeat's stamp is within the allowed age on the run's clock.
    Alive,
    /// The heartbeat's stamp is older than the allowed age — the daemon
    /// stopped beating.
    Stale,
    /// Heartbeat file absent — the daemon never started here (or the
    /// share is fresh); callers should allow a grace period before
    /// reading this as death.
    Missing,
    /// The heartbeat file could not be read for a reason other than
    /// absence (permissions, I/O error), or holds no 24-byte record.
    Unreadable,
}

/// Retry/backoff/liveness policy of every call in a
/// [`HostClient::invoke_window`] run, a property of the client
/// ([`HostClient::with_retry`]). Fully deterministic: the jitter comes
/// from a seeded generator, never from entropy or the clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum invocation attempts (first try included). Each attempt's
    /// budget is the remaining deadline divided by the attempts left.
    pub max_attempts: u32,
    /// Backoff before retry `i` starts at `base_backoff * 2^i`, capped at
    /// 100 ms and stretched by a seeded, deterministic jitter.
    pub base_backoff: Duration,
    /// Heartbeat older than this ⇒ the daemon is declared dead and the
    /// call fails over instead of burning its remaining budget. A window
    /// with calls in flight re-probes the heartbeat every 1/32 of it.
    pub heartbeat_max_age: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(2),
            heartbeat_max_age: Duration::from_secs(1),
        }
    }
}

/// Result of a pipelined window run ([`HostClient::invoke_window`]).
#[derive(Debug)]
pub struct WindowRun {
    /// Per-call outcomes, in submit order — regardless of the order the
    /// SD node completed them in.
    pub outcomes: Vec<Result<InvokeOutcome, SmartFamError>>,
    /// Per-call attempts, retries and skipped corrupt bytes, in submit
    /// order. They survive a failed call, so failover layers can account
    /// honestly; a successful call's [`InvokeOutcome::resilience`] is the
    /// same value.
    pub resilience: Vec<ResilienceStats>,
    /// Window-side [`BatchStats`] fields: occupancy observed at each
    /// submit, shrink steps, and out-of-order completions. The
    /// daemon-side fields stay zero here.
    pub stats: BatchStats,
}

impl WindowRun {
    /// Whether every call in the run completed successfully.
    pub fn all_ok(&self) -> bool {
        self.outcomes.iter().all(Result::is_ok)
    }
}

/// Trace track carrying the host side of the offload protocol
/// (`host.*` events, [`ClockDomain::Decision`]; DESIGN.md §12).
pub const HOST_TRACE_TRACK: &str = "host";

/// The longest gap between two polls of a response stream that found
/// nothing. It is [`PollBackoff`]'s floor as well as its cap, so both
/// host-side waits (`wait` and the window, parked retries included) never
/// back off or reset. An answer appended in this process ends the gap at
/// once; the gap bounds how late an answer from another process is seen.
const HOST_POLL_INTERVAL: Duration = Duration::from_millis(1);

/// The host's handle to a smartFAM log-file folder.
pub struct HostClient {
    log_dir: PathBuf,
    /// The daemon's heartbeat file, joined once: every window probes it.
    heartbeat: PathBuf,
    injector: FaultInjector,
    tracer: Tracer,
    retry: RetryPolicy,
    /// One response stream per module log, attached on first submit.
    streams: Mutex<HashMap<String, Arc<ModuleStream>>>,
}

impl HostClient {
    /// A client over the shared log dir, retrying under
    /// [`RetryPolicy::default`].
    pub fn new(log_dir: impl Into<PathBuf>) -> HostClient {
        let log_dir = log_dir.into();
        HostClient {
            heartbeat: log_dir.join(crate::daemon::HEARTBEAT_FILE),
            log_dir,
            injector: FaultInjector::disabled(),
            tracer: Tracer::disabled(),
            retry: RetryPolicy::default(),
            streams: Mutex::new(HashMap::new()),
        }
    }

    /// Set the policy every call of [`HostClient::invoke_window`] is
    /// budgeted, probed and retried under.
    pub fn with_retry(mut self, policy: RetryPolicy) -> HostClient {
        self.retry = policy;
        self
    }

    /// Attach a tracer; submissions, attempts, retries, and outcomes are
    /// recorded as `host.*` events on the [`HOST_TRACE_TRACK`] decision
    /// track, in call order (deterministic for a single-threaded caller).
    pub fn with_tracer(mut self, tracer: Tracer) -> HostClient {
        self.tracer = tracer;
        self
    }

    fn trace_track(&self) -> TrackId {
        self.tracer.track(HOST_TRACE_TRACK, ClockDomain::Decision)
    }

    /// Attach a fault injector; the client's appends and polls will run
    /// under its host-side sites.
    pub fn with_faults(mut self, injector: FaultInjector) -> HostClient {
        self.injector = injector;
        self
    }

    /// Path of a module's log file.
    pub fn log_path(&self, module: &str) -> PathBuf {
        log_path(&self.log_dir, module, 0)
    }

    /// Write the request frame and return a [`PendingCall`] without
    /// blocking — the host can keep computing while the SD node works.
    pub fn submit(&self, module: &str, params: &[String]) -> Result<PendingCall, SmartFamError> {
        self.submit_with_deadline(module, params, 0)
    }

    /// Like [`HostClient::submit`], but the request carries an absolute
    /// expiry (Unix milliseconds; `0` = none). The daemon drops — never
    /// executes — a request whose expiry has passed by dequeue time, so a
    /// caller that has already given up stops costing SD CPU.
    pub fn submit_with_deadline(
        &self,
        module: &str,
        params: &[String],
        expires_unix_ms: u64,
    ) -> Result<PendingCall, SmartFamError> {
        let id = fresh_request_id();
        let mut streams = self.streams.lock();
        let log = match streams.get(module) {
            Some(log) => Arc::clone(log),
            None => {
                let log = LogFile::attach_at_end(self.log_path(module))?
                    .with_faults(self.injector.clone(), LogRole::Host);
                let log = Arc::new(ModuleStream {
                    module: module.to_string(),
                    stream: Mutex::new(ResponseStream::new(log)),
                });
                streams.insert(module.to_string(), Arc::clone(&log));
                log
            }
        };
        drop(streams);
        let request_bytes = log.stream.lock().submit(id, params, expires_unix_ms)?;
        // The raw request id is deliberately absent from the event: it
        // embeds the process id and a process-global counter, either of
        // which would break the byte-identical-trace guarantee
        // (DESIGN.md §12). Module name plus track order correlate calls.
        self.tracer
            .event(self.trace_track(), EVENT_HOST_SUBMIT, &[("module", module)]);
        Ok(PendingCall {
            id,
            log,
            request_bytes,
            submitted: Stopwatch::start(),
            skipped_bytes: 0,
        })
    }

    /// Full round trip: submit and wait.
    pub fn invoke(
        &self,
        module: &str,
        params: &[String],
        timeout: Duration,
    ) -> Result<InvokeOutcome, SmartFamError> {
        self.submit(module, params)?.wait(timeout)
    }

    /// Classify the daemon's heartbeat: fresh, stale, missing, or
    /// unreadable — the distinctions [`Liveness`] documents. Its age is
    /// the client's clock ([`FaultInjector::now_ms`]) less the record's
    /// stamp; a stamp from the future reads as fresh.
    pub fn daemon_liveness(&self, max_age: Duration) -> Liveness {
        let now = self.injector.now_ms();
        match self.heartbeat() {
            Ok(hb) if u128::from(now.saturating_sub(hb.stamp_ms)) > max_age.as_millis() => {
                Liveness::Stale
            }
            Ok(_) => Liveness::Alive,
            Err(liveness) => liveness,
        }
    }

    /// The daemon's most recent load snapshot, read from the heartbeat
    /// file. `None` when the heartbeat is absent or unreadable — absence
    /// of pressure data is not pressure.
    pub fn daemon_load(&self) -> Option<HeartbeatLoad> {
        self.heartbeat().ok().map(|record| record.load)
    }

    /// The heartbeat record, or why there is none to age.
    fn heartbeat(&self) -> Result<HeartbeatRecord, Liveness> {
        match std::fs::read(&self.heartbeat) {
            Ok(bytes) => HeartbeatRecord::decode(&bytes).ok_or(Liveness::Unreadable),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Err(Liveness::Missing),
            Err(_) => Err(Liveness::Unreadable),
        }
    }

    /// Run calls to one module through a pipelined in-flight window
    /// (DESIGN.md §18) under the client's [`RetryPolicy`]: a lockstep
    /// resilient call is a window of one. Each call's deadline is
    /// [`WindowConfig::call_timeout`], split across its attempts; DESIGN.md
    /// §10 states how calls are stamped, probed and retried. Outcomes come
    /// back in submit order, whatever order the SD node completed them in.
    /// An `Overloaded` shed halves the window and a full window of clean
    /// completions grows it back by one (AIMD).
    pub fn invoke_window<P: AsRef<[String]>>(
        &self,
        module: &str,
        calls: &[P],
        cfg: &WindowConfig,
    ) -> WindowRun {
        let mut wire = HostWire {
            client: self,
            module,
            calls,
            clock: Stopwatch::start(),
            pace: PollBackoff::new(HOST_POLL_INTERVAL),
        };
        let trace = (&self.tracer, self.trace_track());
        window::run(&mut wire, module, calls.len(), cfg, &self.retry, trace)
    }
}

/// The window's wire: a client's log files, a clock and its poll gap.
struct HostWire<'a, P> {
    client: &'a HostClient,
    module: &'a str,
    calls: &'a [P],
    clock: Stopwatch,
    pace: PollBackoff,
}

impl<P: AsRef<[String]>> Wire for HostWire<'_, P> {
    type Ticket = PendingCall;

    fn now(&self) -> Duration {
        self.clock.elapsed()
    }

    fn idle(&mut self) {
        self.pace.idle();
    }

    fn submit(&mut self, call: usize, budget: Duration) -> Result<PendingCall, SmartFamError> {
        // Never before the host gives up: the budget rounds up to whole
        // ms, plus the ms the clock's reading truncates.
        let budget_ms = budget.as_nanos().div_ceil(1_000_000) as u64;
        let expires = self.client.injector.now_ms().saturating_add(budget_ms + 1);
        let (client, params) = (self.client, self.calls[call].as_ref());
        client.submit_with_deadline(self.module, params, expires)
    }

    fn liveness(&self, max_age: Duration) -> Liveness {
        self.client.daemon_liveness(max_age)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{Frame, FrameBody};
    use crate::faults::FaultPlan;
    use std::path::Path;
    use std::sync::atomic::AtomicU64 as TestCounter;

    static N: TestCounter = TestCounter::new(0);

    fn temp_dir() -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "mcsd-host-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn submit_writes_a_request_frame() {
        let dir = temp_dir();
        let client = HostClient::new(&dir);
        let pending = client.submit("wc", &["file.txt".into()]).unwrap();
        let mut log = LogFile::attach_at_start(client.log_path("wc")).unwrap();
        let frames = log.poll().unwrap();
        assert_eq!(frames.len(), 1);
        assert!(frames[0].is_request());
        assert_eq!(frames[0].id, pending.id());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wait_times_out_without_a_daemon() {
        let dir = temp_dir();
        let client = HostClient::new(&dir);
        let pending = client.submit("lonely", &[]).unwrap();
        match pending.wait(Duration::from_millis(30)) {
            Err(SmartFamError::Timeout { module, .. }) => assert_eq!(module, "lonely"),
            other => panic!("{other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manual_response_completes_the_call() {
        let dir = temp_dir();
        let client = HostClient::new(&dir);
        let pending = client.submit("manual", &["p".into()]).unwrap();
        let id = pending.id();
        // Play the daemon by hand.
        let path = client.log_path("manual");
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            let log = LogFile::attach_at_end(&path).unwrap();
            log.append(&Frame::response_ok(id, b"result".to_vec()))
                .unwrap();
        });
        let out = pending.wait(Duration::from_secs(5)).unwrap();
        assert_eq!(out.payload, b"result");
        assert!(out.elapsed >= Duration::from_millis(10));
        t.join().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn responses_are_matched_by_id() {
        let dir = temp_dir();
        let client = HostClient::new(&dir);
        let a = client.submit("m", &["a".into()]).unwrap();
        let b = client.submit("m", &["b".into()]).unwrap();
        let (ida, idb) = (a.id(), b.id());
        assert_ne!(ida, idb);
        let path = client.log_path("m");
        // Answer b first, then a.
        let log = LogFile::attach_at_end(&path).unwrap();
        log.append(&Frame::response_ok(idb, b"B".to_vec())).unwrap();
        log.append(&Frame::response_ok(ida, b"A".to_vec())).unwrap();
        assert_eq!(a.wait(Duration::from_secs(5)).unwrap().payload, b"A");
        assert_eq!(b.wait(Duration::from_secs(5)).unwrap().payload, b"B");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Play the daemon by hand: append one unbatched `ok` response.
    fn answer(path: &Path, id: u64, payload: &[u8]) {
        let log = LogFile::attach_at_end(path).unwrap();
        log.append(&Frame::response_ok(id, payload.to_vec()))
            .unwrap();
    }

    fn in_flight(client: &HostClient, module: &str) -> usize {
        client.streams.lock()[module].stream.lock().calls.len()
    }

    #[test]
    fn one_stream_serves_two_threads_with_responses_in_reverse_order() {
        let dir = temp_dir();
        let client = Arc::new(HostClient::new(&dir));
        let path = client.log_path("m");
        // Both threads submit, then (barrier) the responses land in the
        // reverse of submit order, then (barrier) both wait on the one
        // shared cursor: whichever thread polls first routes both.
        let barrier = Arc::new(std::sync::Barrier::new(3));
        let (ids_tx, ids_rx) = std::sync::mpsc::channel();
        let workers: Vec<_> = (0..2u8)
            .map(|n| {
                let (client, barrier, ids_tx) =
                    (Arc::clone(&client), Arc::clone(&barrier), ids_tx.clone());
                std::thread::spawn(move || {
                    let pending = client.submit("m", &[n.to_string()]).unwrap();
                    ids_tx.send((pending.id(), n)).unwrap();
                    barrier.wait();
                    barrier.wait();
                    pending.wait(Duration::from_secs(5)).unwrap().payload
                })
            })
            .collect();
        barrier.wait();
        let mut ids: Vec<(u64, u8)> = ids_rx.iter().take(2).collect();
        ids.sort();
        for (id, n) in ids.iter().rev() {
            answer(&path, *id, &[*n]);
        }
        barrier.wait();
        for (n, worker) in workers.into_iter().enumerate() {
            assert_eq!(worker.join().unwrap(), vec![n as u8]);
        }
        assert_eq!(client.streams.lock().len(), 1, "one stream per module log");
        assert_eq!(in_flight(&client, "m"), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dropped_and_timed_out_calls_leave_the_stream_empty() {
        let dir = temp_dir();
        let client = HostClient::new(&dir);
        let dropped = client.submit("m", &[]).unwrap();
        let timed_out = client.submit("m", &[]).unwrap();
        let (dropped_id, timed_out_id) = (dropped.id(), timed_out.id());
        assert_eq!(in_flight(&client, "m"), 2);
        drop(dropped);
        assert_eq!(in_flight(&client, "m"), 1);
        assert!(matches!(
            timed_out.wait(Duration::from_millis(5)),
            Err(SmartFamError::Timeout { .. })
        ));
        assert_eq!(in_flight(&client, "m"), 0);
        // Late answers to abandoned calls, and answers to calls this
        // client never made, are decoded once and discarded — not parked.
        let path = client.log_path("m");
        let live = client.submit("m", &[]).unwrap();
        for id in [dropped_id, timed_out_id, 7] {
            answer(&path, id, b"nobody waits");
        }
        answer(&path, live.id(), b"mine");
        assert_eq!(live.wait(Duration::from_secs(5)).unwrap().payload, b"mine");
        assert_eq!(in_flight(&client, "m"), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn in_place_truncation_is_reported_through_the_held_handle() {
        let dir = temp_dir();
        let client = HostClient::new(&dir);
        let mut pending = client.submit("m", &["p".into()]).unwrap();
        assert!(pending.poll_outcome().unwrap().is_none());
        std::fs::write(client.log_path("m"), b"").unwrap();
        assert!(matches!(
            pending.poll_outcome(),
            Err(SmartFamError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hidden_host_polls_defer_delivery() {
        use crate::faults::{FaultAction, FaultPlan, FaultSite};
        let dir = temp_dir();
        let plan = FaultPlan::none().with(FaultSite::HostPoll, 0, FaultAction::Hide { polls: 2 });
        let client = HostClient::new(&dir).with_faults(FaultInjector::new(plan));
        let mut pending = client.submit("m", &[]).unwrap();
        answer(&client.log_path("m"), pending.id(), b"late");
        // Two stale reads, then the response becomes visible.
        assert!(pending.poll_outcome().unwrap().is_none());
        assert!(pending.poll_outcome().unwrap().is_none());
        assert_eq!(pending.poll_outcome().unwrap().unwrap().payload, b"late");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn response_bytes_are_the_wire_length_of_the_response_frame() {
        let dir = temp_dir();
        let client = HostClient::new(&dir);
        let mut pending = client.submit("m", &["p".into()]).unwrap();
        let response = Frame::response_ok(pending.id(), b"payload".to_vec()).in_batch(3, 1);
        LogFile::attach_at_end(client.log_path("m"))
            .unwrap()
            .append_batch(std::slice::from_ref(&response))
            .unwrap();
        let out = pending.poll_outcome().unwrap().unwrap();
        assert_eq!(out.response_bytes, response.encode().len() as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_ticket_counts_the_corrupt_bytes_before_its_answer_once() {
        let dir = temp_dir();
        let client = HostClient::new(&dir);
        let mut pending = client.submit("m", &[]).unwrap();
        // The answer lands behind 24 bytes that are no frame.
        let mut reply = vec![0xa5u8; 24];
        Frame::response_ok(pending.id(), b"e".to_vec()).encode_into(&mut reply);
        let log = LogFile::attach_at_end(client.log_path("m")).unwrap();
        log.append_encoded(&reply).unwrap();
        let out = pending.poll_outcome().unwrap().unwrap();
        assert_eq!(out.resilience.corrupt_skipped_bytes, 24);
        assert!(pending.poll_outcome().unwrap().is_none());
        assert_eq!(Attempt::skipped(&pending), 24);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// PR 12's lost windowed call. A batch the daemon is still writing can
    /// be half on disk when a host samples the file length, and the byte
    /// at that length can be a stray magic followed by a large length
    /// field — an "incomplete frame" that never completes. The daemon's
    /// write holds the file's append order, so the host's own request
    /// lands after the *whole* batch, and the end of that append — not
    /// the sampled length — is where the stream must start reading.
    #[test]
    fn cursor_sampled_inside_a_batch_does_not_wedge_the_call() {
        let dir = temp_dir();
        let client = HostClient::new(&dir);
        let path = client.log_path("m");
        // A payload that reads as `S` + a ~1 GiB length when decoded from
        // its first byte.
        let mut wedge = vec![b'S', 0xff, 0xff, 0xff, 0x3f];
        wedge.extend_from_slice(&[0u8; 24]);
        let mut batch = Vec::new();
        for i in 0..2 {
            Frame::response_ok(900 + i, wedge.clone())
                .in_batch(1, i)
                .encode_into(&mut batch);
        }
        let cut = batch.len() / 2 + 5 + 8 + 1 + 4; // payload start of frame 2
        assert_eq!(batch[cut], b'S');
        std::fs::write(&path, &batch[..cut]).unwrap();
        // The stream attaches: its sampled length is the cut.
        let log = LogFile::attach_at_end(&path).unwrap();
        assert_eq!(log.cursor(), cut as u64);
        let stream = Arc::new(ModuleStream {
            module: "m".into(),
            stream: Mutex::new(ResponseStream::new(log)),
        });
        client.streams.lock().insert("m".into(), stream);
        // The rest of the batch lands, then the host's request, then the
        // real response.
        let mut rest = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        std::io::Write::write_all(&mut rest, &batch[cut..]).unwrap();
        let pending = client.submit("m", &["p".into()]).unwrap();
        answer(&path, pending.id(), b"not lost");
        let out = pending.wait(Duration::from_secs(5)).unwrap();
        assert_eq!(out.payload, b"not lost");
        assert_eq!(out.resilience.corrupt_skipped_bytes, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ids_are_unique_and_increasing() {
        let dir = temp_dir();
        let client = HostClient::new(&dir);
        let a = client.submit("m", &[]).unwrap().id();
        let b = client.submit("m", &[]).unwrap().id();
        assert!(b > a);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Where a test's stepped clock stops.
    const T: u64 = 1_000_000;

    /// Write the heartbeat record a daemon stamped at `stamp_ms`.
    fn beat(dir: &Path, stamp_ms: u64) {
        let load = HeartbeatLoad {
            in_flight: 0,
            queued: 0,
        };
        let record = HeartbeatRecord { stamp_ms, load }.encode();
        std::fs::write(dir.join(crate::daemon::HEARTBEAT_FILE), record).unwrap();
    }

    #[test]
    fn liveness_classifies_missing_alive_and_stale() {
        let dir = temp_dir();
        let clock = FaultInjector::stepped(FaultPlan::none(), T);
        let client = HostClient::new(&dir).with_faults(clock.clone());
        let max_age = Duration::from_millis(100);
        assert_eq!(client.daemon_liveness(max_age), Liveness::Missing);
        beat(&dir, T);
        clock.set_clock(T + 100);
        assert_eq!(client.daemon_liveness(max_age), Liveness::Alive);
        clock.set_clock(T + 101);
        assert_eq!(client.daemon_liveness(max_age), Liveness::Stale);
        // A clock stepped back behind the stamp reads a fresh daemon.
        clock.set_clock(T - 1);
        assert_eq!(client.daemon_liveness(max_age), Liveness::Alive);
        // Eight bytes are no record.
        std::fs::write(dir.join(crate::daemon::HEARTBEAT_FILE), 1u64.to_le_bytes()).unwrap();
        assert_eq!(client.daemon_liveness(max_age), Liveness::Unreadable);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_attempt_is_never_stamped_before_its_own_timeout() {
        let dir = temp_dir();
        let client = HostClient::new(&dir)
            .with_faults(FaultInjector::stepped(FaultPlan::none(), T))
            .with_retry(RetryPolicy {
                max_attempts: 1,
                ..RetryPolicy::default()
            });
        // A budget under 1 ms, on a clock that does not move while the
        // host waits it out.
        let cfg = WindowConfig {
            depth: 1,
            call_timeout: Duration::from_micros(999),
        };
        let run = client.invoke_window("m", &[Vec::<String>::new()], &cfg);
        assert!(matches!(
            run.outcomes[0],
            Err(SmartFamError::Timeout { .. })
        ));
        let mut log = LogFile::attach_at_start(client.log_path("m")).unwrap();
        match &log.poll().unwrap()[0].body {
            FrameBody::Request {
                expires_unix_ms, ..
            } => assert!(*expires_unix_ms > T, "expires {expires_unix_ms}, now {T}"),
            other => panic!("{other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn window_pipelines_many_calls_against_a_batched_daemon() {
        use crate::batch::{BatchConfig, WindowConfig};
        use crate::daemon::{Daemon, DaemonConfig};
        use crate::module::{FnModule, ModuleRegistry};
        use std::sync::Arc;
        let dir = temp_dir();
        let registry = ModuleRegistry::new();
        registry.register(Arc::new(FnModule::new("upper", |p: &[String]| {
            Ok(p.join(" ").to_uppercase().into_bytes())
        })));
        let _daemon = Daemon::new(
            DaemonConfig::new(&dir).with_batching(BatchConfig::default()),
            registry,
        )
        .spawn()
        .unwrap();
        let client = HostClient::new(&dir);
        let calls: Vec<Vec<String>> = (0..12).map(|i| vec![format!("w{i}")]).collect();
        let run = client.invoke_window("upper", &calls, &WindowConfig::with_depth(4));
        assert!(run.all_ok(), "{:?}", run.outcomes);
        for (i, out) in run.outcomes.iter().enumerate() {
            assert_eq!(
                out.as_ref().unwrap().payload,
                format!("W{i}").into_bytes(),
                "outcomes must be in submit order"
            );
        }
        // Twelve submits, each observing at least one call in flight.
        assert!(run.stats.window_occupancy >= 12, "{}", run.stats);
        assert_eq!(run.stats.window_shrinks, 0, "{}", run.stats);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A windowed call whose first request is lost — torn (the append
    /// fails) or corrupted (the daemon skips it, so the attempt times out)
    /// — is resubmitted and answered inside its deadline.
    #[test]
    fn window_resubmits_a_lost_request() {
        use crate::batch::{BatchConfig, WindowConfig};
        use crate::daemon::{Daemon, DaemonConfig};
        use crate::faults::{FaultAction, FaultPlan, FaultSite};
        use crate::module::{FnModule, ModuleRegistry};
        let lost = [
            FaultAction::Torn { keep_sixteenths: 8 },
            FaultAction::Corrupt { xor_mask: 0x20 },
        ];
        for action in lost {
            let dir = temp_dir();
            let registry = ModuleRegistry::new();
            registry.register(Arc::new(FnModule::new("upper", |p: &[String]| {
                Ok(p.join(" ").to_uppercase().into_bytes())
            })));
            let config = DaemonConfig::new(&dir).with_batching(BatchConfig::default());
            let mut daemon = Daemon::new(config, registry).spawn().unwrap();
            let plan = FaultPlan::none().with(FaultSite::HostAppend, 0, action);
            let client = HostClient::new(&dir).with_faults(FaultInjector::new(plan));
            let cfg = WindowConfig {
                depth: 4,
                call_timeout: Duration::from_secs(3),
            };
            let run = client.invoke_window("upper", &[vec!["lost".to_string()]], &cfg);
            daemon.stop();
            let out = run.outcomes[0].as_ref().expect("resubmitted and answered");
            assert_eq!(out.payload, b"LOST", "{action:?}");
            assert!(out.elapsed < cfg.call_timeout, "{action:?}");
            assert_eq!(run.resilience[0].attempts, 2, "{action:?}");
            assert_eq!(run.resilience[0].retries, 1, "{action:?}");
            assert_eq!(out.resilience, run.resilience[0]);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn window_fails_every_call_on_a_stale_heartbeat() {
        // No daemon: one beat at `T`, read on a clock stopped 2 s later.
        let dir = temp_dir();
        beat(&dir, T);
        let clock = FaultInjector::stepped(FaultPlan::none(), T + 2_000);
        let client = HostClient::new(&dir).with_faults(clock);
        let calls: Vec<Vec<String>> = (0..8).map(|i| vec![format!("c{i}")]).collect();
        let run = client.invoke_window("echo", &calls, &WindowConfig::with_depth(4));
        assert_eq!(run.outcomes.len(), 8);
        for outcome in &run.outcomes {
            let dead = matches!(outcome, Err(SmartFamError::DaemonDead { .. }));
            assert!(dead, "{outcome:?}");
        }
        assert!(run.resilience.iter().all(|r| r.attempts == 1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn daemon_load_reads_the_heartbeat_load_field() {
        let dir = temp_dir();
        let client = HostClient::new(&dir);
        // No heartbeat at all.
        assert_eq!(client.daemon_load(), None);
        // Eight bytes are no record, so no load data.
        let hb = dir.join(crate::daemon::HEARTBEAT_FILE);
        std::fs::write(&hb, 3u64.to_le_bytes()).unwrap();
        assert_eq!(client.daemon_load(), None);
        let load = HeartbeatLoad {
            in_flight: 2,
            queued: 5,
        };
        std::fs::write(&hb, HeartbeatRecord { stamp_ms: 4, load }.encode()).unwrap();
        assert_eq!(client.daemon_load(), Some(load));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
