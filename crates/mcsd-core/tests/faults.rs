//! Seeded fault-matrix integration test.
//!
//! Sweeps a fixed set of seeds through [`FaultPlan::from_seed`] and runs
//! the three benchmark jobs end-to-end through [`McsdFramework`] under
//! each schedule. The contract under test:
//!
//! * every run ends within its deadline in either the correct output
//!   (identical to the fault-free oracle) or a typed [`McsdError`] —
//!   never a hang, never silently wrong data;
//! * replaying the same seed reproduces the same outputs and the same
//!   [`ResilienceStats`] counters exactly;
//! * the chosen seeds jointly cover every injectable fault kind: daemon
//!   crash mid-request (before and after execution), torn frame, corrupt
//!   frame, module failure, heartbeat stall, and stale-read hiding.

use mcsd_apps::{datagen, seq, Matrix, TextGen};
use mcsd_cluster::{paper_testbed, Cluster, Scale};
use mcsd_core::{
    FaultAction, FaultInjector, FaultPlan, FaultSite, McsdFramework, OffloadPolicy,
    ResilienceConfig, ResilienceStats,
};
use std::time::Duration;

/// Seeds chosen (see `FaultPlan::from_seed`) so the sweep covers every
/// fault kind; the coverage test below fails if this drifts.
const SEEDS: [u64; 10] = [0, 1, 3, 4, 5, 8, 12, 17, 20, 22];

fn cluster() -> Cluster {
    let mut c = paper_testbed(Scale::default_experiment());
    for n in &mut c.nodes {
        n.memory_bytes = 256 << 20;
    }
    c
}

/// Retry policy tuned for the test clock: liveness bounds generous enough
/// that a stalled heartbeat (≤5 missed 50 ms beats) is never mistaken for
/// death, yet tight enough that a real crash is detected well inside one
/// attempt budget — that margin is what makes the counters replay exactly.
fn resilience_for(seed: u64) -> ResilienceConfig {
    let mut r = ResilienceConfig {
        injector: FaultInjector::from_seed(seed),
        ..ResilienceConfig::default()
    };
    r.retry.heartbeat_max_age = Duration::from_millis(800);
    r.retry.base_backoff = Duration::from_millis(1);
    r.call_timeout = Duration::from_secs(6);
    r
}

struct SuiteRun {
    wc: Result<Vec<(String, u64)>, String>,
    sm: Result<Vec<(u64, u32)>, String>,
    mm: Result<Vec<u8>, String>,
    stats: ResilienceStats,
    degradations: Vec<String>,
}

/// One full suite: WC, SM, MM offloaded through a framework whose daemon
/// and host client share the seeded injector. `AlwaysSd` routes all three
/// jobs through the SD path so every fault site is reachable.
fn run_suite(resilience: ResilienceConfig) -> SuiteRun {
    let fw = McsdFramework::start_with(cluster(), OffloadPolicy::AlwaysSd, resilience).unwrap();

    let text = TextGen::with_seed(1234).generate(20_000);
    fw.stage_data_local("wc.txt", &text).unwrap();
    let keys = datagen::keys_file(3, 7, 8);
    let encrypt = datagen::encrypt_file(6_000, &keys, 0.08, 3);
    fw.stage_data_local("sm.bin", &encrypt).unwrap();
    fw.stage_data_local("sm.keys", keys.join("\n").as_bytes())
        .unwrap();
    let (a, b) = datagen::matrix_pair(8, 9, 7, 5);

    let wc = fw
        .wordcount("wc.txt", None)
        .map(|(p, _)| p)
        .map_err(|e| e.to_string());
    let sm = fw
        .stringmatch("sm.bin", "sm.keys", None)
        .map(|(p, _)| p)
        .map_err(|e| e.to_string());
    let mm = fw
        .matmul(&a, &b)
        .map(|(c, _)| c.to_bytes())
        .map_err(|e| e.to_string());

    let stats = fw.resilience_stats();
    let degradations = fw.degradations();
    fw.stop();
    SuiteRun {
        wc,
        sm,
        mm,
        stats,
        degradations,
    }
}

fn plan_has_dispatch_crash(plan: &FaultPlan) -> bool {
    plan.faults().iter().any(|f| {
        f.site == FaultSite::Dispatch
            && matches!(f.action, FaultAction::CrashBefore | FaultAction::CrashAfter)
    })
}

#[test]
fn fault_free_baseline_is_clean() {
    let run = run_suite(ResilienceConfig::default());
    let text = TextGen::with_seed(1234).generate(20_000);
    let keys = datagen::keys_file(3, 7, 8);
    let encrypt = datagen::encrypt_file(6_000, &keys, 0.08, 3);
    let (a, b) = datagen::matrix_pair(8, 9, 7, 5);
    assert_eq!(run.wc.unwrap(), seq::wordcount(&text));
    assert_eq!(run.sm.unwrap(), seq::stringmatch(&keys, &encrypt));
    let mm = Matrix::from_bytes(&run.mm.unwrap()).unwrap();
    assert!(mm.max_abs_diff(&seq::matmul(&a, &b)) < 1e-9);
    assert!(run.stats.is_clean(), "baseline not clean: {}", run.stats);
    assert!(run.degradations.is_empty());
}

/// Regression: corrupt log bytes must be counted exactly once in the
/// merged view. The host's recovering reader and the daemon's log scan
/// both skip the *same* corrupt frame in the *same* shared log file;
/// DESIGN.md §10 gives the daemon ownership of corrupt-skip accounting,
/// so `resilience_stats()` must report the daemon's count, not the sum.
///
/// Construction: call 1's response frame is corrupted. Its recovering
/// reader can only *prove* the corruption (and count the bytes) once a
/// valid frame lands behind it, so a second, overlapping call is issued
/// after the corrupt response is on disk — its request append is the
/// resync point. Call 1's reader counts the corrupt bytes, times out,
/// retries, and succeeds; the daemon's own scan skips (and counts) the
/// same bytes on its way to call 2's request.
#[test]
fn corrupt_skipped_bytes_are_counted_once() {
    let mut r = ResilienceConfig {
        injector: FaultInjector::new(FaultPlan::none().with(
            FaultSite::SdAppend,
            0,
            FaultAction::Corrupt { xor_mask: 0x20 },
        )),
        ..ResilienceConfig::default()
    };
    r.retry.base_backoff = Duration::from_millis(1);
    r.call_timeout = Duration::from_millis(1500);

    let fw = McsdFramework::start_with(cluster(), OffloadPolicy::AlwaysSd, r).unwrap();
    let text = TextGen::with_seed(1234).generate(20_000);
    fw.stage_data_local("wc.txt", &text).unwrap();

    std::thread::scope(|s| {
        let first = s.spawn(|| fw.wordcount("wc.txt", None));
        // Wait until the daemon has executed call 1 and written its
        // (corrupted) response, then overlap a second call whose request
        // append lets call 1's reader prove the corruption.
        while fw.sd_node().daemon_stats().ok < 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let second = fw.wordcount("wc.txt", None);
        assert!(second.is_ok(), "clean second call should succeed");
        let first = first.join().expect("call 1 panicked");
        assert!(first.is_ok(), "call 1 should recover via retry");
    });

    let merged = fw.resilience_stats();
    let daemon = fw.sd_node().daemon_stats();
    fw.stop();

    assert!(
        daemon.corrupt_skipped_bytes > 0,
        "the corrupt response was never observed by the daemon scan"
    );
    assert_eq!(
        merged.corrupt_skipped_bytes, daemon.corrupt_skipped_bytes,
        "host and daemon both counted the same corrupt bytes (merged {} vs daemon-owned {})",
        merged.corrupt_skipped_bytes, daemon.corrupt_skipped_bytes
    );
}

/// Regression (companion to the count-once test above): corrupt the
/// first daemon response append, then restart the daemon over the same
/// logs. The second incarnation's replay scan counts the corrupt
/// response's bytes exactly once and runs its request again.
#[test]
fn restart_counts_a_corrupt_response_once_and_reruns_its_request() {
    use mcsd_core::bridge::SdNodeServer;
    let plan = FaultPlan::none().with(
        FaultSite::SdAppend,
        0,
        FaultAction::Corrupt { xor_mask: 0x11 },
    );
    let mut server = SdNodeServer::start_with(&cluster(), |daemon| {
        daemon.with_faults(FaultInjector::new(plan))
    })
    .unwrap();
    let text = TextGen::with_seed(1234).generate(20_000);
    server.stage_local("t.txt", &text).unwrap();
    let client = server.host_client();
    let pending = client
        .smartfam()
        .submit("wordcount", &["t.txt".to_string()])
        .unwrap();
    // Wait for the first incarnation to execute the module and land its
    // (corrupted) response.
    let primary = server
        .data_root()
        .parent()
        .unwrap()
        .join("logs/wordcount.log");
    let len = || std::fs::metadata(&primary).map(|m| m.len()).unwrap_or(0);
    let len0 = len();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while len() == len0 {
        assert!(
            std::time::Instant::now() < deadline,
            "first incarnation never answered"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    // A second, clean call puts bytes *after* the corrupt response so
    // the restart scan can prove it corrupt — a corrupt final frame is
    // indistinguishable from a torn tail and is deliberately not counted
    // (same overlap trick as `corrupt_skipped_bytes_are_counted_once`).
    let second = client
        .smartfam()
        .submit("wordcount", &["t.txt".to_string()])
        .unwrap();
    let answer = second.wait(Duration::from_secs(30)).unwrap().payload;
    assert!(!answer.is_empty());
    // The same call over the same file: the corrupt response is as long
    // as this clean one.
    let corrupt_len = mcsd_smartfam::Frame::response_ok(0, answer).encoded_len() as u64;
    server.restart_daemon().unwrap();
    let outcome = pending.wait(Duration::from_secs(30)).unwrap();
    assert!(!outcome.payload.is_empty());
    let stats = server.daemon_stats();
    assert_eq!(
        stats.corrupt_skipped_bytes, corrupt_len,
        "the corrupt response is counted once, as the bytes it is"
    );
    assert_eq!(stats.replayed, 1, "the unanswered request runs again");
}

#[test]
fn seed_sweep_covers_every_fault_kind() {
    let mut crash = false;
    let mut torn = false;
    let mut corrupt = false;
    let mut fail = false;
    let mut stall = false;
    let mut hide = false;
    for seed in SEEDS {
        let plan = FaultPlan::from_seed(seed);
        assert!(!plan.is_empty(), "seed {seed} schedules nothing");
        for f in plan.faults() {
            match f.action {
                FaultAction::CrashBefore | FaultAction::CrashAfter => crash = true,
                FaultAction::Torn { .. } => torn = true,
                FaultAction::Corrupt { .. } => corrupt = true,
                FaultAction::Fail => fail = true,
                FaultAction::Stall { .. } => stall = true,
                FaultAction::Hide { .. } => hide = true,
                FaultAction::CrashReplicas { .. } => {
                    panic!("classic from_seed plans must not schedule replica-group faults")
                }
            }
        }
    }
    assert!(
        crash && torn && corrupt && fail && stall && hide,
        "sweep coverage hole: crash={crash} torn={torn} corrupt={corrupt} \
         fail={fail} stall={stall} hide={hide}"
    );
}

/// Exhaustiveness (DESIGN.md §16): every [`FaultSite`] and every
/// [`FaultAction`] variant is reachable by at least one plan drawn from
/// the seeded fault/replication matrices, completed by the chaos sweep's
/// per-site action sets for the sites the seeded generators deliberately
/// never draw (`SdPoll`, `Span`, `BatchAppend`). If a new site or action variant is
/// added without a generator arm or a `default_actions` entry, this test
/// names the hole.
#[test]
fn fault_space_is_exhaustively_reachable() {
    use std::collections::BTreeSet;

    let variant =
        |a: &FaultAction| -> String { a.label().split('[').next().unwrap_or_default().to_string() };

    let mut sites: BTreeSet<&'static str> = BTreeSet::new();
    let mut actions: BTreeSet<String> = BTreeSet::new();
    for seed in 0..256u64 {
        for plan in [
            FaultPlan::from_seed(seed),
            FaultPlan::replication_from_seed(seed),
        ] {
            for f in plan.faults() {
                sites.insert(f.site.label());
                actions.insert(variant(&f.action));
            }
        }
    }
    let seeded_sites = sites.clone();
    for site in FaultSite::ALL {
        for action in mcsd_core::chaos::default_actions(site) {
            assert!(
                action.valid_at(site),
                "default_actions emitted {} at invalid site {}",
                action.label(),
                site.label()
            );
            sites.insert(site.label());
            actions.insert(variant(&action));
        }
    }

    let all_sites: BTreeSet<&'static str> = FaultSite::ALL.iter().map(|s| s.label()).collect();
    let all_actions: BTreeSet<String> = [
        "crash_before",
        "crash_after",
        "torn",
        "corrupt",
        "hide",
        "fail",
        "stall",
        "crash_replicas",
    ]
    .into_iter()
    .map(String::from)
    .collect();
    assert_eq!(sites, all_sites, "unreachable fault site(s)");
    assert_eq!(actions, all_actions, "unreachable fault action variant(s)");

    // The seeded matrices alone must cover all but the three sweep-only
    // sites — pins the generators' scope so a dropped arm is caught here
    // rather than silently narrowing the nightly seed sweep. The
    // batch-append site is sweep-only by design: the classic matrices
    // predate batching and their plans must keep reproducing byte-for-
    // byte, so the site is reached through `default_actions` instead.
    let mut seeded_expected = all_sites;
    seeded_expected.remove("sd_poll");
    seeded_expected.remove("span");
    seeded_expected.remove("batch_append");
    assert_eq!(
        seeded_sites, seeded_expected,
        "seeded-matrix site coverage drifted"
    );
}

#[test]
fn fault_matrix_correct_or_typed_error_and_exact_replay() {
    let text = TextGen::with_seed(1234).generate(20_000);
    let keys = datagen::keys_file(3, 7, 8);
    let encrypt = datagen::encrypt_file(6_000, &keys, 0.08, 3);
    let (a, b) = datagen::matrix_pair(8, 9, 7, 5);
    let wc_oracle = seq::wordcount(&text);
    let sm_oracle = seq::stringmatch(&keys, &encrypt);
    let mm_oracle = seq::matmul(&a, &b);

    for seed in SEEDS {
        let first = run_suite(resilience_for(seed));
        let replay = run_suite(resilience_for(seed));

        // Correct output or typed error — wrong data is the one outcome
        // that must never happen.
        for (name, result, oracle) in [
            ("wordcount", &first.wc, &wc_oracle),
            ("wordcount(replay)", &replay.wc, &wc_oracle),
        ] {
            match result {
                Ok(pairs) => assert_eq!(pairs, oracle, "seed {seed}: {name} silently wrong"),
                Err(e) => assert!(!e.is_empty(), "seed {seed}: {name} untyped error"),
            }
        }
        for (name, result, oracle) in [
            ("stringmatch", &first.sm, &sm_oracle),
            ("stringmatch(replay)", &replay.sm, &sm_oracle),
        ] {
            match result {
                Ok(pairs) => assert_eq!(pairs, oracle, "seed {seed}: {name} silently wrong"),
                Err(e) => assert!(!e.is_empty(), "seed {seed}: {name} untyped error"),
            }
        }
        for (name, result) in [("matmul", &first.mm), ("matmul(replay)", &replay.mm)] {
            match result {
                Ok(bytes) => {
                    let m = Matrix::from_bytes(bytes).unwrap();
                    assert!(
                        m.max_abs_diff(&mm_oracle) < 1e-9,
                        "seed {seed}: {name} silently wrong"
                    );
                }
                Err(e) => assert!(!e.is_empty(), "seed {seed}: {name} untyped error"),
            }
        }

        // Same seed ⇒ same outcome and exactly the same counters.
        assert_eq!(
            first.wc, replay.wc,
            "seed {seed}: wordcount outcome not replayable"
        );
        assert_eq!(
            first.sm, replay.sm,
            "seed {seed}: stringmatch outcome not replayable"
        );
        assert_eq!(
            first.mm, replay.mm,
            "seed {seed}: matmul outcome not replayable"
        );
        assert_eq!(
            first.stats, replay.stats,
            "seed {seed}: ResilienceStats not replayable ({} vs {})",
            first.stats, replay.stats
        );

        // A daemon crash must surface as recorded host fallback, not as an
        // error: the framework degrades gracefully.
        if plan_has_dispatch_crash(&FaultPlan::from_seed(seed)) {
            assert!(
                first.stats.failovers >= 1,
                "seed {seed}: crash injected but no failover recorded ({})",
                first.stats
            );
            assert!(
                !first.degradations.is_empty(),
                "seed {seed}: failover not recorded in degradations"
            );
            assert!(first.wc.is_ok() && first.sm.is_ok() && first.mm.is_ok());
        }
    }
}
