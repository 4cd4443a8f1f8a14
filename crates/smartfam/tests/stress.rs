//! Race guards for the live daemon, each run many times over: lockstep
//! calls on one slot, and requests written while the daemon starts.

use mcsd_smartfam::module::FnModule;
use mcsd_smartfam::{Daemon, DaemonConfig, HostClient, ModuleRegistry};
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
fn requests_at_daemon_startup_are_never_lost() {
    // Regression test: a log file created in the window between the
    // daemon's startup replay and its initial census used to be seen by
    // neither — the request sat unanswered forever. The daemon now takes
    // its census in spawn(), before the replay, closing the window. Race
    // many startup+submit rounds to ensure it stays closed.
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
