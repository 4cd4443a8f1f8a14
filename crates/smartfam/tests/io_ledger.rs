//! The run's I/O ledger over 1 000 lockstep calls (ROADMAP item 17(b)):
//! what the seed decides — appends, bytes appended, syncs — pinned
//! exactly, and what thread timing decides — reads and metadata calls —
//! bounded per call. One test, alone in its binary, so no other test's
//! appends wake its daemons.

use mcsd_obs::CounterFamily;
use mcsd_smartfam::module::FnModule;
use mcsd_smartfam::{Daemon, DaemonConfig, FaultInjector, FaultPlan, Frame, HostClient};
use mcsd_smartfam::{LogIo, ModuleRegistry};
use std::time::Duration;

const CALLS: u64 = 1_000;

/// 1 000 echo calls in lockstep on a daemon that also serves `idle_logs`
/// module logs no request reaches: the ledger's exact pins checked, and
/// the per-call reads and metadata calls of each side returned.
fn lockstep(idle_logs: usize) -> [(&'static str, f64); 4] {
    let dir = std::env::temp_dir().join(format!("mcsd-io-ledger-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for i in 0..idle_logs {
        std::fs::write(dir.join(format!("idle{i}.log")), b"").unwrap();
    }
    let registry = ModuleRegistry::new();
    registry.register(std::sync::Arc::new(FnModule::new(
        "echo",
        |p: &[String]| Ok(p.join("|").into_bytes()),
    )));
    // An empty plan fires nothing and keeps the ledger both sides count in.
    let io = FaultInjector::new(FaultPlan::none());
    let config = DaemonConfig::new(&dir).with_faults(io.clone());
    let mut daemon = Daemon::new(config, registry).spawn().unwrap();
    let client = HostClient::new(&dir).with_faults(io.clone());
    // The census and the replay that attached the idle logs are not calls.
    let before: (LogIo<false>, LogIo<true>) = io.ledger();
    let (mut request_bytes, mut reply_bytes, mut last_reply) = (0, 0, 0);
    for i in 0..CALLS {
        let msg = format!("call-{i}");
        let out = client.invoke("echo", std::slice::from_ref(&msg), Duration::from_secs(120));
        assert_eq!(out.unwrap().payload, msg.as_bytes());
        request_bytes += Frame::request(0, vec![msg.clone()]).encoded_len() as u64;
        last_reply = Frame::response_ok(0, msg.into_bytes()).encoded_len() as u64;
        reply_bytes += last_reply;
    }
    daemon.stop();
    std::fs::remove_dir_all(&dir).unwrap();
    let (host, sd) = io.ledger();
    let (host, sd) = (host.since(&before.0), sd.since(&before.1));
    println!("{idle_logs} idle logs\n{host:?}\n{sd:?}");
    // Decided by the calls: one request and one reply each, never synced.
    assert_eq!((host.appends, host.appended_bytes), (CALLS, request_bytes));
    assert_eq!((sd.appends, sd.appended_bytes), (CALLS, reply_bytes));
    assert_eq!((host.syncs, sd.syncs), (0, 0));
    // The host reads each reply once; the daemon reads every byte once,
    // but the last reply only if a sweep ran before it stopped.
    assert_eq!(host.read_bytes, reply_bytes);
    let logged = request_bytes + reply_bytes;
    assert!((logged - last_reply..=logged).contains(&sd.read_bytes));
    let per_call = |n: u64| n as f64 / CALLS as f64;
    [
        ("host reads", per_call(host.reads)),
        ("host metadata", per_call(host.metadata)),
        ("daemon reads", per_call(sd.reads)),
        ("daemon metadata", per_call(sd.metadata)),
    ]
}

#[test]
fn a_lockstep_call_appends_twice_syncs_never_and_reads_once_a_side() {
    // The host reads once after the reply's wake, and its one metadata
    // call is the `lseek` that rebases its cursor on its own request; the
    // daemon reads once on the request's wake, and `stat`s only on the
    // gap's sweeps: 1.0, 1.0, 1.0 and 0.004–0.008 in three runs on a lone
    // log, 0.024 beside eight idle logs, which the wake, naming the log a
    // request landed in, leaves alone. While every wake swept the
    // directory and a poll was `fstat`, `lseek`, `read`, the same ledger
    // read 1.0, 4.0, 1.39–1.44 and 6.96–7.23 on a lone log and 1.0,
    // 3.84–3.88, 1.42–1.49 and 18.5–19.4 beside eight idle logs. A
    // planted `stat` per poll fails the host's bound, one per wake the
    // lone daemon's; beside idle logs, where a gap's sweep costs ten, the
    // bound leaves room for a loaded core's gaps.
    for (idle_logs, bounds) in [(0, [1.5, 1.5, 2.0, 0.9]), (8, [1.5, 1.5, 2.0, 3.0])] {
        for ((name, value), bound) in lockstep(idle_logs).into_iter().zip(bounds) {
            println!("{name} {value}");
            assert!(
                value <= bound,
                "{idle_logs} idle logs, {name}: {value} a call, bound {bound}"
            );
        }
    }
}
