//! Ordering-invariant and fault-matrix tests for the batched smartFAM
//! dispatch path (DESIGN.md §18).
//!
//! The tentpole guarantee under test: the multi-worker pool preserves
//! **serial-per-module** order — every module is owned by exactly one
//! seeded worker, so its requests never run concurrently and always
//! execute in submit order — under *any* worker count, batch size, and
//! assignment seed. The fault-matrix tests pin the batch-commit recovery
//! contract: a torn batch tail retries only the torn suffix, and a crash
//! at a batch boundary replays exactly the uncommitted suffix.

use mcsd_smartfam::module::FnModule;
use mcsd_smartfam::{
    BatchConfig, Daemon, DaemonConfig, FaultAction, FaultInjector, FaultPlan, FaultSite,
    HostClient, ModuleRegistry,
};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

static N: AtomicU64 = AtomicU64::new(0);
const TIMEOUT: Duration = Duration::from_secs(120);

fn temp_dir() -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "mcsd-fam-batched-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Execution probe shared by every recording module: completion order,
/// plus an overlap detector that trips if two invocations of the same
/// module ever run concurrently.
struct Probe {
    order: Mutex<Vec<(String, u64)>>,
    busy: HashMap<String, AtomicBool>,
    overlaps: AtomicU64,
}

fn echo_registry() -> ModuleRegistry {
    let r = ModuleRegistry::new();
    r.register(Arc::new(FnModule::new("echo", |p: &[String]| {
        Ok(p.join("|").into_bytes())
    })));
    r
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(10))]
    /// Serial-per-module holds under ANY seeded worker interleaving:
    /// for every (assignment seed, worker count, batch size), requests
    /// of one module never overlap and complete in submit order, while
    /// distinct modules are free to interleave.
    #[test]
    fn serial_per_module_holds_under_any_seeded_interleaving(
        seed in 0u64..1024,
        workers in 1usize..5,
        max_batch in 1usize..6,
    ) {
        const MODULES: [&str; 3] = ["alpha", "beta", "gamma"];
        const PER_MODULE: u64 = 4;
        let dir = temp_dir();
        let probe = Arc::new(Probe {
            order: Mutex::new(Vec::new()),
            busy: MODULES
                .iter()
                .map(|m| (m.to_string(), AtomicBool::new(false)))
                .collect(),
            overlaps: AtomicU64::new(0),
        });
        let registry = ModuleRegistry::new();
        for m in MODULES {
            let p = Arc::clone(&probe);
            let name = m.to_string();
            registry.register(Arc::new(FnModule::new(m, move |params: &[String]| {
                let seq: u64 = params[0].parse().unwrap();
                if p.busy[&name].swap(true, Ordering::SeqCst) {
                    p.overlaps.fetch_add(1, Ordering::SeqCst);
                }
                // Dwell long enough that a second same-module invocation
                // running concurrently would be caught red-handed.
                std::thread::sleep(Duration::from_micros(500));
                p.order.lock().push((name.clone(), seq));
                p.busy[&name].store(false, Ordering::SeqCst);
                Ok(seq.to_string().into_bytes())
            })));
        }
        // Pre-stage every request before the daemon starts: the replay
        // scan queues them all, so batch formation (and therefore the
        // worker interleaving under test) is deterministic per seed.
        let client = HostClient::new(&dir);
        let mut pending = Vec::new();
        for seq in 0..PER_MODULE {
            for m in MODULES {
                pending.push((m, seq, client.submit(m, &[seq.to_string()]).unwrap()));
            }
        }
        let config = DaemonConfig::new(&dir).with_batching(BatchConfig {
            workers,
            max_batch,
            seed,
        });
        let mut daemon = Daemon::new(config, registry).spawn().unwrap();
        for (m, seq, p) in pending {
            let out = p.wait(TIMEOUT).unwrap();
            let _ = m;
            proptest::prop_assert_eq!(out.payload, seq.to_string().into_bytes());
        }
        daemon.stop();
        proptest::prop_assert_eq!(probe.overlaps.load(Ordering::SeqCst), 0);
        // Per-module completion order == submit order (0,1,2,3), for
        // every module, regardless of how the modules interleaved.
        let order = probe.order.lock();
        for m in MODULES {
            let seen: Vec<u64> = order
                .iter()
                .filter(|(name, _)| name == m)
                .map(|(_, seq)| *seq)
                .collect();
            let want: Vec<u64> = (0..PER_MODULE).collect();
            proptest::prop_assert_eq!(&seen, &want);
        }
        drop(order);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A torn batch tail retries only the torn suffix: the durable prefix is
/// committed once, the suffix rides a second commit, every request is
/// answered exactly once, and the counters account for both commits.
#[test]
fn torn_batch_tail_retries_only_the_suffix() {
    // Tear the first batch commit of six equal response frames: 7/16
    // lands inside frame 3, so frames 0-1 are durable and the 4-frame
    // suffix is retried; 8/16 tears exactly on the frame boundary, so
    // frames 0-2 are durable, no torn bytes lie between, and the 3-frame
    // suffix is retried.
    for keep_sixteenths in [7, 8] {
        let dir = temp_dir();
        let client = HostClient::new(&dir);
        let pending: Vec<_> = (0..6)
            .map(|i| client.submit("echo", &[format!("r{i}")]).unwrap())
            .collect();
        let plan = FaultPlan::none().with(
            FaultSite::BatchAppend,
            0,
            FaultAction::Torn { keep_sixteenths },
        );
        let config = DaemonConfig::new(&dir)
            .with_faults(FaultInjector::new(plan))
            .with_batching(BatchConfig {
                workers: 3,
                max_batch: 6,
                seed: 11,
            });
        let mut daemon = Daemon::new(config, echo_registry()).spawn().unwrap();
        for (i, p) in pending.into_iter().enumerate() {
            let out = p.wait(TIMEOUT).unwrap();
            assert_eq!(out.payload, format!("r{i}").into_bytes());
        }
        daemon.stop();
        let batch = daemon.batch_stats();
        // Two commits: the torn prefix and the retried suffix. Six
        // appends total — nothing was appended twice.
        assert_eq!(batch.batches, 2, "{keep_sixteenths}/16: {batch}");
        assert_eq!(batch.coalesced_appends, 6, "{keep_sixteenths}/16: {batch}");
        assert_eq!(batch.fsyncs, 2, "{keep_sixteenths}/16: {batch}");
        assert_eq!(daemon.stats().ok, 6);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A daemon crash at a batch boundary replays exactly the uncommitted
/// suffix: the committed batch is never re-executed, and the replacement
/// incarnation answers the remaining requests as one replayed batch.
#[test]
fn crash_at_batch_boundary_replays_exactly_the_uncommitted_suffix() {
    let dir = temp_dir();
    let client = HostClient::new(&dir);
    let mut pending: Vec<_> = (0..8)
        .map(|i| client.submit("echo", &[format!("b{i}")]).unwrap())
        .collect();
    // max_batch 4 splits the eight pre-staged requests into two batches;
    // dispatch occurrence 4 is the first request of the second batch, so
    // CrashBefore stops the daemon exactly on the batch boundary.
    let plan = FaultPlan::none().with(FaultSite::Dispatch, 4, FaultAction::CrashBefore);
    let batching = BatchConfig {
        workers: 2,
        max_batch: 4,
        seed: 7,
    };
    let config = DaemonConfig::new(&dir)
        .with_faults(FaultInjector::new(plan))
        .with_batching(batching);
    let mut first = Daemon::new(config, echo_registry()).spawn().unwrap();
    // The first batch is answered before the crash.
    for (i, p) in pending.drain(..4).enumerate() {
        let out = p.wait(TIMEOUT).unwrap();
        assert_eq!(out.payload, format!("b{i}").into_bytes());
    }
    first.stop();
    let before = first.batch_stats();
    assert_eq!(before.batches, 1, "{before}");
    assert_eq!(before.coalesced_appends, 4, "{before}");
    assert_eq!(before.fsyncs, 1, "{before}");
    assert_eq!(first.stats().ok, 4);

    // The replacement incarnation replays ONLY the uncommitted suffix —
    // the four answered requests are seen as answered by the replay scan
    // — and commits it as one batch.
    let replacement = DaemonConfig::new(&dir).with_batching(batching);
    let mut second = Daemon::new(replacement, echo_registry()).spawn().unwrap();
    for (i, p) in pending.into_iter().enumerate() {
        let out = p.wait(TIMEOUT).unwrap();
        assert_eq!(out.payload, format!("b{}", i + 4).into_bytes());
    }
    second.stop();
    assert_eq!(second.stats().replayed, 4);
    assert_eq!(second.stats().ok, 4);
    let after = second.batch_stats();
    assert_eq!(after.batches, 1, "{after}");
    assert_eq!(after.coalesced_appends, 4, "{after}");
    assert_eq!(after.fsyncs, 1, "{after}");
    std::fs::remove_dir_all(&dir).unwrap();
}
