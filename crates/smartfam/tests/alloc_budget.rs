//! The allocation budget of one smartFAM call (EXPERIMENTS.md "Where each
//! workload's time goes"): the transport pays per *request* — not
//! per millisecond of watching, per worker thread or per copy of a name —
//! counted by this binary's own allocator so a per-sweep or per-call
//! allocation that creeps back in fails here and not only on the
//! benchmark box. The same allocator keeps the live-byte balance, which
//! gates what a long-running and a restarted daemon hold (DESIGN.md §10:
//! the log is the replay set). A `harness = false` binary: `main` takes
//! the readings in order and prints each, one `name value` line; a failed
//! gate names its reading and exits non-zero.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{allocations, live_bytes, thread_allocations};
use mcsd_smartfam::module::FnModule;
use mcsd_smartfam::{
    BatchConfig, Daemon, DaemonConfig, FileWatcher, Frame, HostClient, LogFile, ModuleRegistry,
    WatchConfig, WindowConfig,
};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mcsd-budget-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Echo calls built before anything is counted: parameters and the
/// payload they must come back as.
fn echo_calls(n: usize) -> Vec<(Vec<String>, Vec<u8>)> {
    (0..n)
        .map(|i| {
            let params = vec![format!("c{i}"), format!("{:08x}", i * 2_654_435_761)];
            let echoed = params.join("|").into_bytes();
            (params, echoed)
        })
        .collect()
}

const WARM_UP: usize = 50;

/// Submit, a poll that finds nothing, a poll that finds the answer — the
/// host's share of a call, against a daemon played by hand whose own
/// allocations stay outside the count.
fn host_side_per_call(calls: usize) -> f64 {
    let dir = temp_dir("host");
    let client = HostClient::new(&dir);
    let daemon = LogFile::attach_at_end(client.log_path("echo")).unwrap();
    let mut counted = 0;
    for (i, (params, echoed)) in echo_calls(WARM_UP + calls).iter().enumerate() {
        let before = allocations();
        let mut pending = client.submit("echo", params).unwrap();
        assert!(pending.poll_outcome().unwrap().is_none());
        let submitted = allocations();
        daemon
            .append(&Frame::response_ok(pending.id(), echoed.clone()))
            .unwrap();
        let answered = allocations();
        let outcome = pending.poll_outcome().unwrap().expect("answered");
        drop(pending);
        if i >= WARM_UP {
            counted += (submitted - before) + (allocations() - answered);
        }
        assert_eq!(&outcome.payload, echoed);
    }
    std::fs::remove_dir_all(&dir).unwrap();
    counted as f64 / calls as f64
}

/// The host's share of a resilient call — a window of one under the
/// default retry policy, its deadline split, its request stamped, the
/// heartbeat probed — against a live daemon: this thread's allocations
/// per call over `calls` echo calls after the warm-up.
fn resilient_per_call(calls: usize) -> f64 {
    let dir = temp_dir("resilient");
    let mut daemon = Daemon::new(DaemonConfig::new(&dir), echo_registry(&Arc::default()))
        .spawn()
        .unwrap();
    let client = HostClient::new(&dir);
    let window = WindowConfig::with_depth(1);
    let mut counted = 0;
    for (i, (params, echoed)) in echo_calls(WARM_UP + calls).iter().enumerate() {
        let before = thread_allocations();
        let run = client.invoke_window("echo", std::slice::from_ref(params), &window);
        if i >= WARM_UP {
            counted += thread_allocations() - before;
        }
        assert_eq!(&run.outcomes[0].as_ref().unwrap().payload, echoed);
    }
    daemon.stop();
    std::fs::remove_dir_all(&dir).unwrap();
    counted as f64 / calls as f64
}

/// What a watcher on a directory of three unchanging files allocates in
/// `window`, and how long the window really was.
fn quiet_watcher(window: Duration) -> (u64, Duration) {
    let dir = temp_dir("watch");
    for name in ["a.log", "b.log", "c.log"] {
        std::fs::write(dir.join(name), b"quiet").unwrap();
    }
    let mut watcher = FileWatcher::spawn(&dir, WatchConfig::default());
    let started = Instant::now();
    let before = allocations();
    std::thread::sleep(window);
    let counted = allocations() - before;
    let took = started.elapsed();
    assert!(watcher.next_event(Duration::ZERO).is_none());
    watcher.stop();
    std::fs::remove_dir_all(&dir).unwrap();
    (counted, took)
}

/// `echo` joins its parameters; `big` answers with a MiB; `tid` records
/// the thread it runs on in `threads`.
fn echo_registry(threads: &Arc<Mutex<HashSet<std::thread::ThreadId>>>) -> ModuleRegistry {
    let registry = ModuleRegistry::new();
    registry.register(Arc::new(FnModule::new("echo", |p: &[String]| {
        Ok(p.join("|").into_bytes())
    })));
    registry.register(Arc::new(FnModule::new("big", |_: &[String]| {
        Ok(vec![7; 1 << 20])
    })));
    let threads = Arc::clone(threads);
    registry.register(Arc::new(FnModule::new("tid", move |_: &[String]| {
        threads.lock().unwrap().insert(std::thread::current().id());
        Ok(Vec::new())
    })));
    registry
}

/// What one lockstep run reads.
struct Lockstep {
    /// Allocations per call, every thread's.
    per_call: f64,
    /// Live heap grown over the counted calls.
    grown: i64,
    /// Live heap grown by answering a MiB and one echo after it.
    after_big: i64,
    /// Live heap grown by a call with a MiB parameter and one echo after it.
    after_big_param: i64,
    /// Allocations of a second daemon's spawn — replay included — on the
    /// log the run left, and the live heap it holds then.
    replay: u64,
    held: i64,
}

/// One lockstep run through a real daemon, read by both counters over
/// `calls` echo calls after `warm_up`: every allocation of every thread —
/// host, daemon loop (its sweep too), worker, the module itself — per call, the
/// live heap daemon and host grew by, and what a second daemon does to
/// replay the log the run left behind.
fn lockstep(warm_up: usize, calls: usize) -> Lockstep {
    let dir = temp_dir("lockstep");
    let threads = Arc::default();
    let mut daemon = Daemon::new(DaemonConfig::new(&dir), echo_registry(&threads))
        .spawn()
        .unwrap();
    let client = HostClient::new(&dir);
    // Bound to a name: the calls must still be alive at the second reading.
    let echoes = echo_calls(warm_up + calls);
    let mut warm = (0, 0);
    let timeout = Duration::from_secs(60);
    for (i, (params, echoed)) in echoes.iter().enumerate() {
        if i == warm_up {
            warm = (allocations(), live_bytes());
        }
        let outcome = client.invoke("echo", params, timeout).unwrap();
        assert_eq!(&outcome.payload, echoed);
    }
    let per_call = (allocations() - warm.0) as f64 / calls as f64;
    let grown = live_bytes() - warm.1;
    // A MiB through every buffer of the path — the worker's reply buffer,
    // both read buffers — then an echo, which the daemon reads in the same
    // poll as its own big response or a later one.
    let before = live_bytes();
    assert_eq!(
        client.invoke("big", &[], timeout).unwrap().payload.len(),
        1 << 20
    );
    client.invoke("echo", &echoes[0].0, timeout).unwrap();
    let after_big = live_bytes() - before;
    // A MiB the other way: through the host's request buffer, the daemon's
    // read buffer and a recycled parameter set — which the echo after it
    // would take back, were it kept.
    let big_param = "p".repeat(1 << 20);
    let before = live_bytes();
    assert_eq!(
        client
            .invoke("echo", std::slice::from_ref(&big_param), timeout)
            .unwrap()
            .payload
            .len(),
        1 << 20
    );
    client.invoke("echo", &echoes[0].0, timeout).unwrap();
    let after_big_param = live_bytes() - before;
    daemon.stop();
    assert_eq!(daemon.stats().ok, (warm_up + calls + 4) as u64);
    drop((daemon, client, echoes));

    let registry = echo_registry(&threads);
    let before = (allocations(), live_bytes());
    let mut restarted = Daemon::new(DaemonConfig::new(&dir), registry)
        .spawn()
        .unwrap();
    let replay = allocations() - before.0;
    let held = live_bytes() - before.1;
    restarted.stop();
    assert_eq!(
        restarted.stats().requests,
        0,
        "replay answered a call twice"
    );
    std::fs::remove_dir_all(&dir).unwrap();
    Lockstep {
        per_call,
        grown,
        after_big,
        after_big_param,
        replay,
        held,
    }
}

/// Windows of 16 through a batched daemon: every allocation of every
/// thread per call over `calls` echo calls after `warm_up`, then the
/// threads 1 000 more calls to one module ran on.
fn windowed(warm_up: usize, calls: usize) -> (f64, usize) {
    let dir = temp_dir("windowed");
    let threads = Arc::default();
    let mut daemon = Daemon::new(
        DaemonConfig::new(&dir).with_batching(BatchConfig::default()),
        echo_registry(&threads),
    )
    .spawn()
    .unwrap();
    let client = HostClient::new(&dir);
    let (params, echoed): (Vec<_>, Vec<_>) = echo_calls(warm_up + calls).into_iter().unzip();
    let window = WindowConfig::with_depth(16);
    assert!(client
        .invoke_window("echo", &params[..warm_up], &window)
        .outcomes
        .iter()
        .all(Result::is_ok));
    let before = allocations();
    let run = client.invoke_window("echo", &params[warm_up..], &window);
    let per_call = (allocations() - before) as f64 / calls as f64;
    for (outcome, echoed) in run.outcomes.iter().zip(&echoed[warm_up..]) {
        assert_eq!(&outcome.as_ref().unwrap().payload, echoed);
    }
    let no_params = vec![Vec::new(); 1_000];
    assert!(client
        .invoke_window("tid", &no_params, &window)
        .outcomes
        .iter()
        .all(Result::is_ok));
    daemon.stop();
    std::fs::remove_dir_all(&dir).unwrap();
    let ran_on = threads.lock().unwrap().len();
    (per_call, ran_on)
}

fn main() {
    // One copy: the payload the outcome hands its caller.
    let host = host_side_per_call(200);
    println!("host {host}");
    assert!(host <= 2.0, "host: {host} host-side allocations per call");

    // A resilient call is a window of one: on top of that copy, the
    // window's outcome, counter and slot vectors and the outcomes it hands
    // back (reads 5).
    let resilient = resilient_per_call(1_000);
    println!("resilient {resilient}");
    assert!(
        resilient <= 6.0,
        "resilient: {resilient} host-side allocations per resilient call"
    );

    // A quiet sweep allocates nothing; what is left is the fallback
    // listing every 64th sweep (a directory handle, two copies of each
    // entry's name). Sweeps are at least 1 ms apart, so the bound follows
    // the window's real length, not the box's speed: 60 for a punctual
    // 300 ms.
    let (watcher, took) = quiet_watcher(Duration::from_millis(300));
    println!("watcher {watcher}");
    let listings = took.as_millis() as u64 / 64 + 1;
    assert!(
        watcher <= 12 * listings,
        "watcher: {watcher} allocations watching a quiet directory for {took:?}"
    );

    // What is left of a call is what is passed on — the module's result
    // and the host's copy of it — and the loop's fallback listing. The
    // request's parameters go into a recycled set (reads 2.11 and 2.07).
    let run = lockstep(1_000, 10_000);
    let (lockstep, replay) = (run.per_call, run.replay);
    println!("lockstep {lockstep}");
    assert!(
        lockstep <= 3.0,
        "lockstep: {lockstep} allocations per lockstep call"
    );
    let (window, ran_on) = windowed(1_600, 16_000);
    println!("windowed {window}");
    assert!(
        window <= 2.5,
        "windowed: {window} allocations per windowed call"
    );
    assert_eq!(
        ran_on, 1,
        "windowed: 1 000 calls to one module ran on {ran_on} threads"
    );
    // A restart reads the whole history and allocates for what is
    // unanswered in it: nothing, here.
    println!("replay {replay}");
    assert!(
        replay <= 200,
        "replay: {replay} allocations to replay 11 002 answered calls"
    );
    // Memory is what is in flight, not what was ever served. With one
    // remembered id per call and a kept whole-log read buffer these read
    // 129 000 B and 1 082 364 B; without, 11 B and 3 122 B.
    let (grown, after_big, held) = (run.grown, run.after_big, run.held);
    let after_big_param = run.after_big_param;
    println!(
        "grown {grown}\nafter_big {after_big}\nafter_big_param {after_big_param}\nheld {held}"
    );
    assert!(
        grown <= 4 << 10,
        "grown: {grown} B of heap grown over 10 000 calls"
    );
    assert!(
        after_big <= 64 << 10,
        "after_big: {after_big} B still held after answering 1 MiB"
    );
    assert!(
        after_big_param <= 64 << 10,
        "after_big_param: {after_big_param} B still held after a 1 MiB parameter"
    );
    assert!(
        held <= 64 << 10,
        "held: {held} B held after replaying 11 002 calls"
    );
}
