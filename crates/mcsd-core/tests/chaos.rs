//! Chaos-sweep integration tests (DESIGN.md §16): the replication-rounds
//! scenario swept end to end, report byte-determinism as a property, and
//! a deliberately broken scenario double proving the durability and
//! at-most-once checkers actually fire.

use mcsd_core::chaos::{
    self, BatchedEchoScenario, ChaosObservation, ChaosScenario, ReplicationRoundsScenario,
};
use mcsd_core::{FaultInjector, FaultPlan, FaultSite, McsdError};
use mcsd_obs::Tracer;
use mcsd_smartfam::BatchConfig;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static N: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "mcsd-chaos-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// The full sweep over the pure replication scenario: every
/// counter-deterministic fault point of two span groups × every valid
/// action, zero invariant violations. This is the §16 tentpole claim for
/// the replication tier — durability, at-most-once, fencing,
/// conservation, and convergence hold at *every* reachable fault point,
/// not just at the seeded samples.
#[test]
fn replication_rounds_sweep_is_clean() {
    let dir = temp_dir("sweep");
    let scenario = ReplicationRoundsScenario::new(42, &dir);
    let report = chaos::run_sweep(&scenario, 42, &Tracer::disabled()).unwrap();
    // Two spans × two entries × three replicas = 12 replica points; one
    // group-crash point per append round = 4.
    let rounds = &report.segments[0];
    assert_eq!(
        rounds.points,
        vec![(FaultSite::Replica, 12), (FaultSite::Group, 4)]
    );
    // 12 replica points × 4 actions + 4 group points × 2 masks.
    assert_eq!(report.cases, 12 * 4 + 4 * 2);
    assert!(
        report.shadowed.is_empty(),
        "no baked plan, nothing shadowed"
    );
    assert!(
        report.is_clean(),
        "invariant violations:\n{}",
        report.render_table()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The full sweep over the batched daemon (DESIGN.md §18): every
/// dispatch slot and every batch-commit point of a six-request,
/// two-batch workload × the batch-boundary action matrix, audited
/// against all six invariants. Crashes heal by incarnation replay,
/// torn tails by suffix retry, corrupt frames by host-tier resubmit —
/// and none of it may re-execute already-answered work or break the
/// one-fsync-per-commit identity.
#[test]
fn batched_echo_sweep_is_clean() {
    let dir = temp_dir("batched");
    let batching = BatchConfig {
        workers: 2,
        max_batch: 3,
        seed: 7,
    };
    let scenario = BatchedEchoScenario::new(6, batching, Tracer::disabled(), &dir);
    let report = chaos::run_sweep(&scenario, 7, &Tracer::disabled()).unwrap();
    // Six per-request dispatch slots plus one batch-append point per
    // coalesced commit (two batches of three).
    let batched = &report.segments[0];
    assert_eq!(
        batched.points,
        vec![(FaultSite::Dispatch, 6), (FaultSite::BatchAppend, 2)]
    );
    // 6 dispatch points × 3 actions + 2 commit points × 2 actions.
    assert_eq!(report.cases, 6 * 3 + 2 * 2);
    assert!(
        report.is_clean(),
        "invariant violations:\n{}",
        report.render_table()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Determinism extends to the explorer itself: two sweeps of the
    /// same scenario produce byte-identical JSON reports (different temp
    /// dirs, same bytes — the report carries no paths or clock values).
    #[test]
    fn chaos_report_bytes_are_identical_across_runs(seed in 0u64..32) {
        let dir_a = temp_dir("prop-a");
        let dir_b = temp_dir("prop-b");
        let a = chaos::run_sweep(
            &ReplicationRoundsScenario::new(seed, &dir_a).with_spans(1),
            seed,
            &Tracer::disabled(),
        )
        .unwrap();
        let b = chaos::run_sweep(
            &ReplicationRoundsScenario::new(seed, &dir_b).with_spans(1),
            seed,
            &Tracer::disabled(),
        )
        .unwrap();
        prop_assert_eq!(a.to_json(), b.to_json());
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }
}

/// A deliberately broken in-memory log double: claims three committed
/// rounds of which only two are readable, and re-executes an
/// already-durable request once per "recovery". The sweep must convict
/// it on both the durability and the at-most-once invariants — proof the
/// checkers fire on real defects, not just on healthy runs.
struct BrokenLogScenario;

impl ChaosScenario for BrokenLogScenario {
    fn name(&self) -> &str {
        "broken-log-double"
    }

    fn segment_names(&self) -> Vec<String> {
        vec!["recover".to_string()]
    }

    fn baked_plan(&self, _segment: usize) -> FaultPlan {
        FaultPlan::none()
    }

    fn run_segment(
        &self,
        _segment: usize,
        injector: &FaultInjector,
    ) -> Result<ChaosObservation, McsdError> {
        // Cross one dispatch point so the sweep has something to inject
        // at; the "log" itself is an in-memory fake that drops a
        // committed round and re-runs a finished request on recovery.
        let _ = injector.fire(FaultSite::Dispatch);
        let mut obs = ChaosObservation::clean();
        obs.committed_rounds = 3;
        obs.readable_rounds = 2; // one committed round vanished
        obs.durable_reexecutions = 1; // replay re-ran answered work
        Ok(obs)
    }
}

#[test]
fn durability_and_at_most_once_checkers_fire_on_broken_double() {
    let report = chaos::run_sweep(&BrokenLogScenario, 0, &Tracer::disabled()).unwrap();
    // The baseline run is already convicted, and every injected case
    // re-convicts: both invariants appear, naming the broken double's
    // exact counters.
    let invariants: Vec<&str> = report
        .violations
        .iter()
        .map(|v| v.invariant.label())
        .collect();
    assert!(invariants.contains(&"durability"), "{invariants:?}");
    assert!(invariants.contains(&"at_most_once"), "{invariants:?}");
    let baseline: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.site == "baseline")
        .collect();
    assert_eq!(baseline.len(), 2, "clean run must be audited too");
    assert!(baseline[0]
        .detail
        .contains("committed 3 rounds but only 2 readable"));
    assert!(baseline[1].detail.contains("1 re-executions"));
}

/// A scenario whose injected runs return hard errors must surface them
/// as output-contract violations (with the error kind only — no paths),
/// not kill the sweep.
struct ErroringScenario;

impl ChaosScenario for ErroringScenario {
    fn name(&self) -> &str {
        "erroring"
    }

    fn segment_names(&self) -> Vec<String> {
        vec!["seg".to_string()]
    }

    fn baked_plan(&self, _segment: usize) -> FaultPlan {
        FaultPlan::none()
    }

    fn run_segment(
        &self,
        _segment: usize,
        injector: &FaultInjector,
    ) -> Result<ChaosObservation, McsdError> {
        // Discovery (empty probing plan) succeeds; any injected plan
        // makes the segment blow up with a path-carrying error.
        if injector.plan().is_empty() {
            let _ = injector.fire(FaultSite::Dispatch);
            return Ok(ChaosObservation::clean());
        }
        Err(McsdError::BadScenario {
            detail: format!("/tmp/volatile-{}", std::process::id()),
        })
    }
}

#[test]
fn injected_run_errors_become_output_violations_without_volatile_detail() {
    let report = chaos::run_sweep(&ErroringScenario, 0, &Tracer::disabled()).unwrap();
    assert_eq!(report.cases, 3, "dispatch point × 3 actions");
    assert_eq!(report.violations.len(), 3);
    for v in &report.violations {
        assert_eq!(v.invariant.label(), "output");
        assert_eq!(v.detail, "segment run failed: bad_scenario");
    }
}
