//! Stress and failure-injection tests for the smartFAM mechanism.

use mcsd_smartfam::codec::{decode_stream, Frame};
use mcsd_smartfam::module::FnModule;
use mcsd_smartfam::{Daemon, DaemonConfig, HostClient, ModuleRegistry, SmartFamError};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

static N: AtomicU64 = AtomicU64::new(0);
const TIMEOUT: Duration = Duration::from_secs(120);

fn temp_dir() -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "mcsd-fam-stress-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn echo_registry() -> ModuleRegistry {
    let r = ModuleRegistry::new();
    r.register(Arc::new(FnModule::new("echo", |p: &[String]| {
        Ok(p.join("|").into_bytes())
    })));
    r
}

#[test]
fn many_sequential_requests_on_one_log() {
    let dir = temp_dir();
    let mut daemon = Daemon::new(DaemonConfig::new(&dir), echo_registry())
        .spawn()
        .unwrap();
    let client = HostClient::new(&dir);
    for i in 0..50 {
        let out = client
            .invoke("echo", &[format!("msg-{i}")], TIMEOUT)
            .unwrap();
        assert_eq!(out.payload, format!("msg-{i}").into_bytes());
    }
    daemon.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn one_slot_serves_lockstep_calls_without_shedding_on_one_thread() {
    // No queue and one slot: a worker that gave its slot back only after
    // its reply was visible would shed the next call, and one not yet
    // counted as parked would hand it to a second thread.
    let dir = temp_dir();
    let threads = Arc::new(Mutex::new(HashSet::new()));
    let registry = ModuleRegistry::new();
    let seen = Arc::clone(&threads);
    registry.register(Arc::new(FnModule::new("tid", move |p: &[String]| {
        seen.lock().unwrap().insert(std::thread::current().id());
        Ok(p.join("|").into_bytes())
    })));
    let mut daemon = Daemon::new(DaemonConfig::new(&dir).with_admission(1, 0), registry)
        .spawn()
        .unwrap();
    let client = HostClient::new(&dir);
    for i in 0..2_000 {
        let msg = format!("call-{i}");
        let out = client
            .invoke("tid", std::slice::from_ref(&msg), TIMEOUT)
            .unwrap_or_else(|e| panic!("call {i}: {e}"));
        assert_eq!(out.payload, msg.into_bytes());
    }
    daemon.stop();
    assert_eq!(daemon.stats().shed, 0);
    assert_eq!(threads.lock().unwrap().len(), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn many_outstanding_requests_complete() {
    let dir = temp_dir();
    let mut daemon = Daemon::new(DaemonConfig::new(&dir), echo_registry())
        .spawn()
        .unwrap();
    let client = HostClient::new(&dir);
    // Submit a batch before collecting anything.
    let pending: Vec<_> = (0..20)
        .map(|i| client.submit("echo", &[format!("p{i}")]).unwrap())
        .collect();
    for (i, p) in pending.into_iter().enumerate() {
        let out = p.wait(TIMEOUT).unwrap();
        assert_eq!(out.payload, format!("p{i}").into_bytes());
    }
    daemon.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn concurrent_client_threads() {
    let dir = temp_dir();
    let mut daemon = Daemon::new(DaemonConfig::new(&dir), echo_registry())
        .spawn()
        .unwrap();
    let client = Arc::new(HostClient::new(&dir));
    let mut handles = Vec::new();
    for t in 0..4 {
        let client = Arc::clone(&client);
        handles.push(std::thread::spawn(move || {
            for i in 0..5 {
                let msg = format!("t{t}-i{i}");
                let out = client
                    .invoke("echo", std::slice::from_ref(&msg), TIMEOUT)
                    .unwrap();
                assert_eq!(out.payload, msg.into_bytes());
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    daemon.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn requests_at_daemon_startup_are_never_lost() {
    // Regression test: a log file created in the window between the
    // daemon's startup replay and its watcher's initial census used to be
    // seen by neither — the request sat unanswered forever. The watcher
    // now takes its census synchronously in spawn(), before the replay,
    // closing the window. Race many startup+submit rounds to ensure it
    // stays closed.
    for round in 0..30 {
        let dir = temp_dir();
        let registry = echo_registry();
        let client = HostClient::new(&dir);
        // Submit from another thread at the same instant the daemon boots.
        let submitter = {
            let dir2 = dir.clone();
            std::thread::spawn(move || {
                let c = HostClient::new(&dir2);
                c.submit("echo", &["racer".to_string()]).unwrap()
            })
        };
        let mut daemon = Daemon::new(DaemonConfig::new(&dir), registry)
            .spawn()
            .unwrap();
        let pending = submitter.join().unwrap();
        let out = pending
            .wait(TIMEOUT)
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        assert_eq!(out.payload, b"racer");
        // A second request through the same client also completes.
        let out = client.invoke("echo", &["after".into()], TIMEOUT).unwrap();
        assert_eq!(out.payload, b"after");
        daemon.stop();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn module_panics_become_error_responses() {
    // A panicking module must neither kill the daemon nor leave the host
    // waiting: the daemon converts the panic into an error response.
    let dir = temp_dir();
    let registry = echo_registry();
    registry.register(Arc::new(FnModule::new("bomb", |_: &[String]| {
        panic!("module exploded")
    })));
    let mut daemon = Daemon::new(DaemonConfig::new(&dir), registry)
        .spawn()
        .unwrap();
    let client = HostClient::new(&dir);
    match client.invoke("bomb", &[], TIMEOUT) {
        Err(SmartFamError::ModuleFailed { message, .. }) => {
            assert!(message.contains("panicked"), "{message}");
            assert!(message.contains("exploded"), "{message}");
        }
        other => panic!("expected ModuleFailed from panicking module, got {other:?}"),
    }
    // The daemon still answers other modules.
    let out = client.invoke("echo", &["alive".into()], TIMEOUT).unwrap();
    assert_eq!(out.payload, b"alive");
    assert!(daemon.is_running());
    assert_eq!(daemon.stats().module_errors, 1);
    daemon.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_log_does_not_kill_the_daemon() {
    let dir = temp_dir();
    let mut daemon = Daemon::new(DaemonConfig::new(&dir), echo_registry())
        .spawn()
        .unwrap();
    // Write garbage into a module log the daemon will try to parse.
    std::fs::write(dir.join("garbage.log"), b"this is not a frame").unwrap();
    std::thread::sleep(Duration::from_millis(50));
    // The daemon skipped the corrupt log and still serves valid ones.
    let client = HostClient::new(&dir);
    let out = client.invoke("echo", &["ok".into()], TIMEOUT).unwrap();
    assert_eq!(out.payload, b"ok");
    daemon.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn log_grows_but_stream_stays_decodable() {
    // The whole log (requests + responses interleaved) must decode as a
    // clean frame stream after heavy traffic.
    let dir = temp_dir();
    let mut daemon = Daemon::new(DaemonConfig::new(&dir), echo_registry())
        .spawn()
        .unwrap();
    let client = HostClient::new(&dir);
    for i in 0..10 {
        client.invoke("echo", &[format!("x{i}")], TIMEOUT).unwrap();
    }
    let data = std::fs::read(dir.join("echo.log")).unwrap();
    let (frames, pos) = decode_stream(&data, 0).unwrap();
    assert_eq!(pos, data.len(), "no trailing garbage");
    let requests = frames.iter().filter(|f| f.is_request()).count();
    assert_eq!(requests, 10);
    assert_eq!(frames.len(), 20);
    daemon.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn daemon_answers_requests_written_raw() {
    // A foreign client that writes frames by hand (no HostClient) is still
    // served — the protocol is the file format, not the Rust API.
    let dir = temp_dir();
    let mut daemon = Daemon::new(DaemonConfig::new(&dir), echo_registry())
        .spawn()
        .unwrap();
    std::thread::sleep(Duration::from_millis(30));
    let log_path = dir.join("echo.log");
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&log_path)
            .unwrap();
        f.write_all(&Frame::request(0xDEAD, vec!["raw".into()]).encode())
            .unwrap();
    }
    // Wait for a response frame with the same id.
    let deadline = std::time::Instant::now() + TIMEOUT;
    loop {
        let data = std::fs::read(&log_path).unwrap();
        let (frames, _) = decode_stream(&data, 0).unwrap();
        if let Some(resp) = frames.iter().find(|f| !f.is_request() && f.id == 0xDEAD) {
            match &resp.body {
                mcsd_smartfam::FrameBody::Response { payload, .. } => {
                    assert_eq!(&payload[..], b"raw");
                    break;
                }
                _ => unreachable!(),
            }
        }
        assert!(std::time::Instant::now() < deadline, "no response");
        std::thread::sleep(Duration::from_millis(2));
    }
    daemon.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}
