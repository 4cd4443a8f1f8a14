//! Deterministic-trace integration tests over the full McSD stack.
//!
//! Re-runs the §11 breaker scenario from `overload.rs` with tracing ON and
//! checks the two guarantees DESIGN.md §12 makes about observability:
//!
//! * **compat** — enabling the tracer changes nothing the legacy surface
//!   reports: the decision log replays decision-for-decision and the
//!   human-readable degradation strings render character-for-character as
//!   they did before instrumentation;
//! * **determinism** — two runs of the same seeded scenario export
//!   byte-identical JSON-lines traces, and every span/event name that
//!   reaches the export is present in the `mcsd_obs::names` catalog.

use mcsd_apps::TextGen;
use mcsd_cluster::{paper_testbed, Cluster, Scale};
use mcsd_core::{
    BreakerConfig, FaultAction, FaultInjector, FaultPlan, FaultSite, McsdFramework,
    OffloadDecision, OffloadPolicy, ResilienceConfig,
};
use mcsd_obs::Tracer;
use std::time::Duration;

fn cluster() -> Cluster {
    let mut c = paper_testbed(Scale::default_experiment());
    for n in &mut c.nodes {
        n.memory_bytes = 256 << 20;
    }
    c
}

/// The breaker scenario of `overload.rs`, traced: two injected dispatch
/// failures trip the breaker (threshold 2), two calls steer to the host
/// during cooldown, a half-open probe re-admits the SD node, and the last
/// two calls offload normally.
fn traced_breaker_scenario() -> (Vec<(String, OffloadDecision)>, Vec<String>, String) {
    let tracer = Tracer::enabled();
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
        tracer: tracer.clone(),
        ..ResilienceConfig::default()
    };
    resilience.retry.max_attempts = 1;
    resilience.retry.base_backoff = Duration::from_millis(1);
    let fw =
        McsdFramework::start_with(cluster(), OffloadPolicy::DataIntensiveToSd, resilience).unwrap();
    let text = TextGen::with_seed(40).generate(20_000);
    fw.stage_data_local("t.txt", &text).unwrap();
    for _ in 0..6 {
        fw.wordcount("t.txt", Some("auto")).unwrap();
    }
    let log = fw.decision_log();
    let degradations = fw.degradations();
    fw.stop();
    // Export only after `stop()` so the daemon thread has quiesced.
    (log, degradations, mcsd_obs::export::jsonl(&tracer))
}

/// Tracing must not perturb the legacy reporting surface: the decision
/// sequence and the degradation strings are exactly what the untraced
/// `overload.rs` scenario produces.
#[test]
fn traced_run_keeps_legacy_decisions_and_strings() {
    let (log, degradations, trace) = traced_breaker_scenario();
    let decisions: Vec<OffloadDecision> = log.iter().map(|(_, d)| *d).collect();
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
    // The exact pre-instrumentation strings, character for character.
    assert_eq!(degradations.len(), 4, "degradations: {degradations:?}");
    for d in &degradations[..2] {
        assert_eq!(
            d,
            "wordcount: smartFAM: module \"wordcount\" failed: injected module \
             failure; degraded to host execution"
        );
    }
    for d in &degradations[2..] {
        assert_eq!(d, "wordcount: steered to host (circuit breaker open)");
    }
    // The structured events behind those strings made it into the trace.
    for name in [
        "mcsd.fallback",
        "mcsd.steer",
        "mcsd.breaker_open",
        "mcsd.breaker_probe",
        "mcsd.offload",
    ] {
        assert!(
            trace.contains(&format!("\"name\":\"{name}\"")),
            "missing {name} in:\n{trace}"
        );
    }
    // The steer events carry the same reason the string renders.
    assert!(trace.contains("\"reason\":\"circuit breaker open\""));
    // And the fallback carries the stable error kind, not the rendered
    // message (which would embed run-varying request ids).
    assert!(trace.contains("\"error\":\"module_failed\""));
    assert!(!trace.contains("injected module failure"));
}

/// Extract the value of `"name":"..."` from one JSONL line.
fn name_field(line: &str) -> Option<&str> {
    let start = line.find("\"name\":\"")? + 8;
    let end = line[start..].find('"')?;
    Some(&line[start..start + end])
}

/// Two runs of the same seeded scenario export byte-identical traces, and
/// every name in them is in the `mcsd_obs::names` catalog.
#[test]
fn trace_replays_byte_identical_and_fully_cataloged() {
    let (_, _, first) = traced_breaker_scenario();
    let (_, _, second) = traced_breaker_scenario();
    assert_eq!(
        first, second,
        "same-seed traces must be byte-identical (DESIGN.md §12)"
    );
    let mut saw = 0;
    for line in first.lines() {
        if let Some(name) = name_field(line) {
            assert!(
                mcsd_obs::names::is_cataloged(name),
                "emitted name {name:?} missing from the mcsd_obs::names catalog"
            );
            saw += 1;
        }
    }
    assert!(saw > 10, "expected a substantive trace, got {saw} records");
}

/// An over-budget job on a tight SD node leaves a `mcsd.repartition`
/// event carrying the admission planner's halving count, alongside the
/// cluster-track staging span.
#[test]
fn repartition_and_staging_show_up_in_the_trace() {
    let tracer = Tracer::enabled();
    let mut c = paper_testbed(Scale::default_experiment());
    for n in &mut c.nodes {
        n.memory_bytes = if n.role == mcsd_cluster::NodeRole::SmartStorage {
            1 << 20
        } else {
            256 << 20
        };
    }
    let resilience = ResilienceConfig {
        tracer: tracer.clone(),
        ..ResilienceConfig::default()
    };
    let fw = McsdFramework::start_with(c, OffloadPolicy::DataIntensiveToSd, resilience).unwrap();
    let text = TextGen::with_seed(41).generate(900_000);
    fw.stage_data_local("big.txt", &text).unwrap();
    fw.wordcount("big.txt", None).unwrap();
    let repartitions = fw.resilience_stats().overload.repartitions;
    assert!(repartitions > 0);
    fw.stop();
    let trace = mcsd_obs::export::jsonl(&tracer);
    assert!(trace.contains("\"name\":\"mcsd.repartition\""), "{trace}");
    assert!(trace.contains(&format!("\"halvings\":\"{repartitions}\"")));
    assert!(trace.contains("\"name\":\"cluster.stage\""));
    assert!(trace.contains("\"file\":\"big.txt\""));
    assert!(trace.contains(&format!("\"bytes\":\"{}\"", text.len())));
}
