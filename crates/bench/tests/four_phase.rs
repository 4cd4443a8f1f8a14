//! The four-phase scenario as its three drivers use it: the fault points
//! `chaos` discovers, the facts `trace` and `overload` print, and the
//! export `trace` writes — all out of `mcsd_bench::four_phase`.

use mcsd_bench::four_phase::{FourPhaseScenario, PhaseRun};
use mcsd_core::OffloadDecision::{FallbackToHost, SmartStorage, SteeredToHost};
use mcsd_core::{chaos, ChaosObservation, ChaosScenario, FaultInjector, FaultSite};
use mcsd_obs::Tracer;
use std::time::Duration;

/// Every phase once under a probing injector carrying its baked plan —
/// the sweep's discovery pass, and (bar the probing) what `trace` runs.
fn discovery_pass(tracer: &Tracer) -> Vec<(PhaseRun, FaultInjector)> {
    let scenario = FourPhaseScenario::new(42, tracer.clone(), Duration::from_secs(60));
    (0..4)
        .map(|segment| {
            let injector = FaultInjector::probing(scenario.baked_plan(segment));
            let run = scenario.run_phase(segment, &injector).expect("set-up");
            let violations = chaos::evaluate(&run.observation);
            assert!(violations.is_empty(), "phase {segment}: {violations:?}");
            (run, injector)
        })
        .collect()
}

#[test]
fn phases_cross_the_pinned_points_and_report_what_the_drivers_print() {
    let pass = discovery_pass(&Tracer::disabled());
    let crossed: Vec<[u64; 3]> = pass
        .iter()
        .map(|(_, injector)| {
            [
                FaultSite::HostAppend,
                FaultSite::SdAppend,
                FaultSite::Dispatch,
            ]
            .map(|site| injector.occurrences(site))
        })
        .collect();
    assert_eq!(crossed, [[6, 6, 2], [4, 4, 4], [2, 1, 1], [1, 1, 1]]);
    let points: u64 = pass
        .iter()
        .flat_map(|(_, injector)| {
            FaultSite::ALL
                .iter()
                .filter(|site| site.counter_deterministic())
                .map(|site| injector.occurrences(*site))
        })
        .sum();
    assert_eq!(points, 33, "no enumerable site beyond the three above");

    let [saturation, breaker, retry, admission] = [0, 1, 2, 3].map(|i| &pass[i].0);
    assert_eq!((saturation.daemon.shed, saturation.daemon.expired), (3, 1));
    let placed: Vec<_> = breaker.decisions.iter().map(|(_, d)| *d).collect();
    let on_sd = SmartStorage { sd_index: 0 };
    assert_eq!(
        placed,
        [
            FallbackToHost,
            FallbackToHost,
            SteeredToHost,
            SteeredToHost,
            on_sd,
            on_sd
        ]
    );
    assert_eq!(breaker.degradations.len(), 4);
    assert_eq!(retry.resilience.retries, 1);
    assert!(retry.resilience.corrupt_skipped_bytes > 0);
    assert!(admission.resilience.overload.repartitions >= 1);
}

#[test]
fn traced_runs_replay_byte_identical_and_observe_what_untraced_runs_do() {
    let observe = |tracer: &Tracer| -> Vec<ChaosObservation> {
        let pass = discovery_pass(tracer);
        pass.into_iter().map(|(run, _)| run.observation).collect()
    };
    let traced_run = || {
        let tracer = Tracer::enabled();
        let observations = observe(&tracer);
        (mcsd_obs::export::jsonl(&tracer), observations)
    };
    let (first, traced) = traced_run();
    let (second, _) = traced_run();
    assert_eq!(first, second, "same seed, same bytes (DESIGN.md §12)");

    let names: Vec<&str> = first
        .lines()
        .filter_map(|line| line.split_once("\"name\":\"")?.1.split('"').next())
        .collect();
    assert!(names.len() > 100, "a substantive trace: {}", names.len());
    for name in names {
        assert!(mcsd_obs::names::is_cataloged(name), "{name} not cataloged");
    }
    assert_eq!(traced, observe(&Tracer::disabled()));
}
