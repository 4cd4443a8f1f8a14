//! smartFAM mechanics, bare (paper §IV-A, Fig. 5): a daemon watching
//! per-module log files, a host writing parameters into them, results
//! flowing back — including overlap of host compute with the offloaded
//! call, and crash recovery via log replay.
//!
//! ```sh
//! cargo run --example smartfam_demo
//! ```

use mcsd::smartfam::module::FnModule;
use mcsd::smartfam::{Daemon, DaemonConfig, HostClient, ModuleRegistry};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let dir = std::env::temp_dir().join(format!("mcsd-smartfam-demo-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Preload two "data-intensive processing modules" on the SD side.
    let registry = ModuleRegistry::new();
    registry.register(Arc::new(FnModule::new(
        "checksum",
        |params: &[String]| {
            let sum: u64 = params.iter().flat_map(|p| p.bytes()).map(u64::from).sum();
            Ok(sum.to_string().into_bytes())
        },
    )));
    registry.register(Arc::new(FnModule::new(
        "slow-scan",
        |params: &[String]| {
            std::thread::sleep(Duration::from_millis(150)); // a long on-disk scan
            Ok(format!("scanned {} files", params.len()).into_bytes())
        },
    )));

    let mut daemon = Daemon::new(DaemonConfig::new(&dir), registry.clone())
        .spawn()
        .expect("daemon starts");
    println!("daemon watching {:?}", dir);

    let client = HostClient::new(&dir);

    // 1. A simple synchronous invocation.
    let out = client
        .invoke(
            "checksum",
            &["hello".into(), "world".into()],
            Duration::from_secs(10),
        )
        .expect("invoke succeeds");
    println!(
        "checksum(hello, world) = {} ({} request bytes, {} response bytes through the log file)",
        String::from_utf8_lossy(&out.payload),
        out.request_bytes,
        out.response_bytes
    );

    // 2. Overlap: submit the slow module, keep computing on the host, then
    //    collect — the essence of McSD's host/SD concurrency.
    let t0 = Instant::now();
    let pending = client
        .submit("slow-scan", &["a".into(), "b".into(), "c".into()])
        .expect("submit succeeds");
    let host_work: u64 = (0..2_000_000u64).map(|x| x.wrapping_mul(x)).sum();
    println!("host computed {host_work:#x} while the SD node scanned");
    let out = pending
        .wait(Duration::from_secs(10))
        .expect("result arrives");
    println!(
        "slow-scan -> {:?} (total {:?}; the host never idled)",
        String::from_utf8_lossy(&out.payload),
        t0.elapsed()
    );

    // 3. Crash recovery: kill the daemon, submit into the void, restart —
    //    the new daemon replays the log and answers the pending request.
    daemon.stop();
    let pending = client
        .submit("checksum", &["recovered".into()])
        .expect("submit while daemon is down");
    println!("daemon down; request {} written to the log", pending.id());
    let mut daemon2 = Daemon::new(DaemonConfig::new(&dir), registry)
        .spawn()
        .expect("daemon restarts");
    let out = pending.wait(Duration::from_secs(10)).expect("replayed");
    println!(
        "after restart: checksum(recovered) = {}",
        String::from_utf8_lossy(&out.payload)
    );
    // The log is the replay set: the two calls answered before the crash
    // have a response after them in their logs and are not run again.
    daemon2.stop();
    let stats = daemon2.stats();
    println!(
        "second daemon read 3 requests in its logs and served {} ({} replayed)",
        stats.requests, stats.replayed
    );

    std::fs::remove_dir_all(&dir).ok();
}
