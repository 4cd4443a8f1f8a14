//! Seeded end-to-end overload scenario.
//!
//! Drives the full overload-protection stack through [`McsdFramework`]:
//!
//! * daemon admission control — more requests than `max_in_flight +
//!   max_queued` can hold arrive at a live SD node; the excess is shed
//!   immediately with a typed `Overloaded` reply and every request
//!   resolves (served, shed, or expired — never a hang);
//! * deadline propagation — an already-expired request is answered typed
//!   and never executed;
//! * the SD circuit breaker — a failing SD node trips its breaker open,
//!   subsequent offloads are steered to the host *before* any SD attempt
//!   (visible in `decision_log()`), and a successful half-open probe
//!   re-admits the node;
//! * memory-budget admission — an over-footprint job is re-partitioned
//!   adaptively until it fits the SD node, and a job that cannot fit even
//!   at the configured floor fragment is refused with the typed
//!   [`McsdError::MemoryOverflow`];
//! * determinism — each scenario replays counter-for-counter: two runs of
//!   the same configuration produce identical [`OverloadStats`].

use mcsd_apps::{seq, TextGen};
use mcsd_cluster::{paper_testbed, Cluster, Scale};
use mcsd_core::{
    BreakerConfig, BreakerState, FaultAction, FaultInjector, FaultPlan, FaultSite, McsdFramework,
    OffloadDecision, OffloadPolicy, OverloadStats, ResilienceConfig,
};
use mcsd_smartfam::module::FnModule;
use mcsd_smartfam::SmartFamError;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(60);

fn cluster() -> Cluster {
    let mut c = paper_testbed(Scale::default_experiment());
    for n in &mut c.nodes {
        n.memory_bytes = 256 << 20;
    }
    c
}

/// Saturate a live SD daemon past its admission capacity, then expire a
/// request, and return the framework-level overload counters.
///
/// The gate module blocks until a release file appears, so the first
/// request holds the only execution slot and the second fills the only
/// queue spot for as long as the test needs — the three requests behind
/// them are shed by arithmetic, not timing.
fn saturation_scenario() -> OverloadStats {
    let resilience = ResilienceConfig {
        max_in_flight: 1,
        max_queued: 1,
        ..ResilienceConfig::default()
    };
    let fw =
        McsdFramework::start_with(cluster(), OffloadPolicy::DataIntensiveToSd, resilience).unwrap();
    let release = fw.sd_node().data_root().join("release.gate");
    let gate = release.clone();
    fw.sd_node()
        .registry()
        .register(Arc::new(FnModule::new("gate", move |p: &[String]| {
            let t0 = Instant::now();
            while !gate.exists() && t0.elapsed() < TIMEOUT {
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(p.join("").into_bytes())
        })));
    let client = fw.sd_node().host_client();
    let smartfam = client.smartfam();
    let mut pendings: Vec<_> = (0..5)
        .map(|i| smartfam.submit("gate", &[format!("r{i}")]).unwrap())
        .collect();
    // With the gate closed, r0 pins the only slot and r1 the only queue
    // spot, so the daemon must shed r2..r4 the moment it scans them —
    // their typed replies arrive while the gate is still shut.
    for (i, pending) in pendings.drain(2..).enumerate() {
        match pending.wait(TIMEOUT) {
            Err(SmartFamError::Overloaded { retry_after, .. }) => {
                assert!(retry_after > Duration::ZERO);
            }
            other => panic!("request {}: expected typed shed, got {other:?}", i + 2),
        }
    }
    // Only now open the gate; the two admitted requests complete.
    std::fs::write(&release, b"go").unwrap();
    for (i, pending) in pendings.into_iter().enumerate() {
        let out = pending
            .wait(TIMEOUT)
            .unwrap_or_else(|e| panic!("request {i} should have been served: {e}"));
        assert_eq!(out.payload, format!("r{i}").into_bytes());
    }
    // Deadline propagation: an already-expired request is dropped at
    // dequeue with a typed answer, never executed.
    let expired = smartfam.submit_with_deadline("gate", &[], 1).unwrap();
    let err = expired.wait(TIMEOUT).unwrap_err();
    assert!(err.to_string().contains("deadline expired"), "{err}");

    let overload = fw.resilience_stats().overload;
    fw.stop();
    overload
}

#[test]
fn saturated_daemon_sheds_typed_and_replays_exactly() {
    let first = saturation_scenario();
    assert_eq!(first.shed, 3, "counters: {first}");
    assert_eq!(first.expired, 1, "counters: {first}");
    assert_eq!(first.steered_spans, 0);
    let second = saturation_scenario();
    assert_eq!(first, second, "overload counters must replay exactly");
}

/// A failing SD trips the breaker; offloads steer to the host until a
/// half-open probe succeeds. Returns the decision log and counters.
fn breaker_scenario() -> (Vec<(String, OffloadDecision)>, OverloadStats) {
    // The daemon fails the first two dispatched requests; one attempt per
    // call makes each failure a failed call.
    let plan = FaultPlan::none()
        .with(FaultSite::Dispatch, 0, FaultAction::Fail)
        .with(FaultSite::Dispatch, 1, FaultAction::Fail);
    let mut resilience = ResilienceConfig {
        injector: FaultInjector::new(plan),
        breaker: BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_millis(3),
            probe_quota: 1,
        },
        ..ResilienceConfig::default()
    };
    resilience.retry.max_attempts = 1;
    resilience.retry.base_backoff = Duration::from_millis(1);
    let fw =
        McsdFramework::start_with(cluster(), OffloadPolicy::DataIntensiveToSd, resilience).unwrap();
    let text = TextGen::with_seed(40).generate(20_000);
    fw.stage_data_local("t.txt", &text).unwrap();
    let expect = seq::wordcount(&text);
    for _ in 0..6 {
        let (pairs, _) = fw.wordcount("t.txt", Some("auto")).unwrap();
        assert_eq!(pairs, expect, "every call returns correct output");
    }
    assert_eq!(fw.breaker_state(), BreakerState::Closed);
    let log = fw.decision_log();
    let overload = fw.resilience_stats().overload;
    fw.stop();
    (log, overload)
}

#[test]
fn breaker_steers_to_host_then_readmits_after_probe() {
    let (log, overload) = breaker_scenario();
    let decisions: Vec<OffloadDecision> = log.iter().map(|(_, d)| *d).collect();
    // Two failed calls trip the breaker (threshold 2); the breaker's
    // logical clock ticks once per call, so the 3 ms cooldown holds for
    // exactly two steered calls before the half-open probe re-admits the
    // node for the rest.
    assert_eq!(
        decisions,
        vec![
            OffloadDecision::FallbackToHost,
            OffloadDecision::FallbackToHost,
            OffloadDecision::SteeredToHost,
            OffloadDecision::SteeredToHost,
            OffloadDecision::SmartStorage { sd_index: 0 },
            OffloadDecision::SmartStorage { sd_index: 0 },
        ]
    );
    assert_eq!(overload.steered_spans, 2, "counters: {overload}");
    assert_eq!(overload.breaker_opens, 1);
    assert_eq!(overload.half_open_probes, 1);

    // Exact replay.
    let (log2, overload2) = breaker_scenario();
    assert_eq!(log, log2);
    assert_eq!(overload, overload2);
}

fn small_sd_cluster() -> Cluster {
    let mut c = paper_testbed(Scale::default_experiment());
    for n in &mut c.nodes {
        // Host keeps plenty of memory; the SD node is the tight one.
        n.memory_bytes = if n.role == mcsd_cluster::NodeRole::SmartStorage {
            1 << 20
        } else {
            256 << 20
        };
    }
    c
}

#[test]
fn over_budget_job_is_repartitioned_until_it_fits() {
    let fw = McsdFramework::start(small_sd_cluster(), OffloadPolicy::DataIntensiveToSd).unwrap();
    // 900 kB of input on a 1 MiB SD node: natively over the hard memory
    // limit, so admission must shrink the fragment until it fits.
    let text = TextGen::with_seed(41).generate(900_000);
    fw.stage_data_local("big.txt", &text).unwrap();
    let (pairs, _) = fw.wordcount("big.txt", None).unwrap();
    assert_eq!(pairs, seq::wordcount(&text));
    let overload = fw.resilience_stats().overload;
    // Two halvings: Word Count's footprint overflows the 1 MiB node's
    // hard limit at 900 000 B, thrashes it at 450 000 B, fits 225 000 B.
    assert_eq!(overload.repartitions, 2);
    // The job ran offloaded, not degraded to the host.
    assert!(fw
        .decision_log()
        .iter()
        .any(|(j, d)| j == "wordcount" && matches!(d, OffloadDecision::SmartStorage { .. })));
    fw.stop();

    // Replay: a second identical framework produces identical counters.
    let fw2 = McsdFramework::start(small_sd_cluster(), OffloadPolicy::DataIntensiveToSd).unwrap();
    fw2.stage_data_local("big.txt", &text).unwrap();
    let (pairs2, _) = fw2.wordcount("big.txt", None).unwrap();
    assert_eq!(pairs2, pairs);
    assert_eq!(fw2.resilience_stats().overload, overload);
    fw2.stop();
}

#[test]
fn floor_that_cannot_fit_is_refused_typed() {
    let resilience = ResilienceConfig {
        // Forbid shrinking below ~600 kB: a 900 kB input can never get
        // under the 1 MiB node's hard limit, so admission must refuse.
        min_fragment_bytes: 600_000,
        ..ResilienceConfig::default()
    };
    let fw = McsdFramework::start_with(
        small_sd_cluster(),
        OffloadPolicy::DataIntensiveToSd,
        resilience,
    )
    .unwrap();
    let text = TextGen::with_seed(42).generate(900_000);
    fw.stage_data_local("big.txt", &text).unwrap();
    let err = fw.wordcount("big.txt", None).unwrap_err();
    assert!(err.is_memory_overflow(), "wanted MemoryOverflow, got {err}");
    assert!(err.to_string().contains("admission refused"), "{err}");
    // Nothing was sent to the daemon and nothing was counted as executed.
    assert_eq!(fw.sd_node().daemon_stats().requests, 0);
    fw.stop();
}
