//! Engine parity: the two front-ends of the unified scheduler make
//! identical decisions.
//!
//! A [`McsdFramework`] drives `Engine::run_call` (typed calls against the
//! live SD node); a single-SD [`MultiSdRunner`] drives `Engine::run_span`
//! (input spans against modelled SD nodes). Both are thin shells over the
//! same engine, so with the same breaker tuning and the same fault
//! schedule they must walk the same state machine: offload, steer,
//! probe and fall back on the same call indices, and report equivalent
//! recovery counters. This test pins that equivalence across a sweep of
//! seeds that vary the fault schedule and the breaker cooldown — the
//! acceptance criterion for the scheduler unification (DESIGN.md §13).

use mcsd_apps::{seq, TextGen, WordCount};
use mcsd_cluster::{multi_sd_testbed, paper_testbed, Scale};
use mcsd_core::{
    BreakerConfig, ExecMode, FaultAction, FaultInjector, FaultPlan, FaultSite, JobProfile,
    McsdFramework, MultiSdRunner, OffloadDecision, OffloadPolicy, OverloadStats, ResilienceConfig,
    SpanOutcome,
};
use proptest::prelude::*;
use std::time::Duration;

/// Calls per scenario — enough to cross a full open → steer → probe →
/// re-admit breaker cycle at every cooldown in the sweep.
const CALLS: usize = 8;

/// Per-seed scenario knobs, shared verbatim by both front-ends.
struct Scenario {
    breaker: BreakerConfig,
    /// Fault-site occurrences (SD dispatch attempts) that fail.
    failing: [u64; 2],
    text: Vec<u8>,
}

impl Scenario {
    fn for_seed(seed: u64) -> Scenario {
        Scenario {
            // Threshold 1 with a short, seed-varied cooldown exercises
            // open, steer, half-open probe and re-admission within CALLS.
            breaker: BreakerConfig {
                failure_threshold: 1,
                cooldown: Duration::from_millis(1 + seed % 3),
                probe_quota: 1,
            },
            failing: [seed % 3, seed % 3 + 2 + seed % 2],
            text: TextGen::with_seed(seed).generate(20_000),
        }
    }

    fn plan_at(&self, site: FaultSite) -> FaultPlan {
        let mut plan = FaultPlan::none();
        for &occurrence in &self.failing {
            plan = plan.with(site, occurrence, FaultAction::Fail);
        }
        plan
    }
}

/// What one front-end did, reduced to the engine-visible facts.
struct Observed {
    /// Per-call decision, in framework vocabulary ([`OffloadDecision`]).
    decisions: Vec<OffloadDecision>,
    /// SD-path failures that ended on the host.
    failovers: u64,
    overload: OverloadStats,
}

/// Drive the framework front-end: CALLS typed wordcount calls against the
/// live SD node, with the scenario's faults injected at the dispatch site.
fn framework_side(scenario: &Scenario) -> Observed {
    let mut resilience = ResilienceConfig {
        injector: FaultInjector::new(scenario.plan_at(FaultSite::Dispatch)),
        breaker: scenario.breaker,
        ..ResilienceConfig::default()
    };
    // One attempt per call: a dispatch fault is a failed call, exactly as
    // a span fault is a failed span run on the multi-SD side.
    resilience.retry.max_attempts = 1;
    resilience.retry.base_backoff = Duration::from_millis(1);
    let mut cluster = paper_testbed(Scale::smoke());
    for n in &mut cluster.nodes {
        n.memory_bytes = 256 << 20;
    }
    let fw =
        McsdFramework::start_with(cluster, OffloadPolicy::DataIntensiveToSd, resilience).unwrap();
    fw.stage_data_local("t.txt", &scenario.text).unwrap();
    let expect = seq::wordcount(&scenario.text);
    for _ in 0..CALLS {
        let (pairs, _) = fw.wordcount("t.txt", Some("auto")).unwrap();
        assert_eq!(pairs, expect, "every call returns correct output");
    }
    let decisions = fw.decision_log().into_iter().map(|(_, d)| d).collect();
    let stats = fw.resilience_stats();
    fw.stop();
    Observed {
        decisions,
        failovers: stats.failovers,
        overload: stats.overload,
    }
}

/// Drive the multi-SD front-end at scale one: CALLS single-span runs, with
/// the scenario's faults injected at the span site, outcomes translated to
/// the framework's decision vocabulary.
fn multisd_side(scenario: &Scenario) -> Observed {
    let mut cluster = multi_sd_testbed(Scale::smoke(), 1);
    for n in &mut cluster.nodes {
        n.memory_bytes = 64 << 20;
    }
    let runner = MultiSdRunner::with_breaker_config(cluster, scenario.breaker).unwrap();
    let host = runner.cluster().host().name.to_string();
    let injector = FaultInjector::new(scenario.plan_at(FaultSite::Span));
    let expect = seq::wordcount(&scenario.text);

    let mut decisions = Vec::new();
    let mut failovers = 0;
    let mut overload = OverloadStats::default();
    for _ in 0..CALLS {
        let out = runner
            .run_with_faults(
                &WordCount,
                &WordCount::merger(),
                &scenario.text,
                ExecMode::Parallel,
                &injector,
            )
            .unwrap();
        assert_eq!(out.pairs, expect, "every run returns correct output");
        assert_eq!(out.outcomes.len(), 1, "one SD node means one span");
        // With one SD node the outcome vocabulary maps one-to-one onto
        // the framework's decisions; anything else is a parity break.
        decisions.push(match &out.outcomes[0] {
            SpanOutcome::Ok { node } | SpanOutcome::Retried { node } => {
                assert_eq!(node, "sd0");
                OffloadDecision::SmartStorage { sd_index: 0 }
            }
            SpanOutcome::Steered { node } => {
                assert_eq!(node, &host, "a 1-SD steer can only target the host");
                OffloadDecision::SteeredToHost
            }
            SpanOutcome::Redispatched { attempts, node } => {
                assert_eq!(
                    (*attempts, node),
                    (1, &host),
                    "a 1-SD re-dispatch is one failed run then the host"
                );
                OffloadDecision::FallbackToHost
            }
            SpanOutcome::Promoted { .. } => {
                panic!("run_with_faults never replicates, so nothing can be promoted")
            }
        });
        // The engine reports a failed span that ended on the host as a
        // re-dispatch; the framework calls the same event a failover.
        failovers += out.resilience.redispatches;
        assert_eq!(
            out.resilience.retries, out.resilience.redispatches,
            "threshold 1 rejects every in-place retry at the gate"
        );
        overload.absorb(&out.resilience.overload);
    }
    Observed {
        decisions,
        failovers,
        overload,
    }
}

#[test]
fn one_sd_runner_and_framework_make_identical_decisions() {
    let mut seen = Vec::new();
    for seed in 0..12u64 {
        let scenario = Scenario::for_seed(seed);
        let fw = framework_side(&scenario);
        let multi = multisd_side(&scenario);

        assert_eq!(
            fw.decisions, multi.decisions,
            "seed {seed}: the two front-ends diverged"
        );
        assert_eq!(fw.decisions.len(), CALLS);
        assert_eq!(
            fw.failovers, multi.failovers,
            "seed {seed}: failover counts diverged"
        );
        assert_eq!(
            fw.overload.breaker_opens, multi.overload.breaker_opens,
            "seed {seed}: breaker-open counts diverged"
        );
        assert_eq!(
            fw.overload.half_open_probes, multi.overload.half_open_probes,
            "seed {seed}: probe counts diverged"
        );
        // The one accounting asymmetry, pinned: a framework failover runs
        // the host path without a steer, while the span engine charges the
        // breaker-gated hop to the host as a steered span.
        assert_eq!(
            multi.overload.steered_spans,
            fw.overload.steered_spans + fw.failovers,
            "seed {seed}: steer accounting diverged"
        );
        seen.extend(fw.decisions);
    }
    // The sweep must actually exercise the full decision vocabulary —
    // otherwise the equalities above prove less than they claim.
    for needed in [
        OffloadDecision::SmartStorage { sd_index: 0 },
        OffloadDecision::SteeredToHost,
        OffloadDecision::FallbackToHost,
    ] {
        assert!(
            seen.contains(&needed),
            "seed sweep never produced {needed:?}"
        );
    }
}

proptest! {
    /// Policy-level parity: with a single SD node, the multi-SD
    /// `Balanced` policy and the framework's `DataIntensiveToSd` default
    /// are the same function — round-robin over one node is that node.
    /// Holds per call and across any call count (round-robin is
    /// stateful, so one agreeing call would not prove it).
    #[test]
    fn one_sd_balanced_policy_is_the_framework_default(
        input_bytes in 0u64..(1 << 32),
        compute_per_byte in 0.0f64..10_000.0,
        which in 0u32..4,
        calls in 1usize..16,
    ) {
        use mcsd_core::offload::Offloader;
        let profile = JobProfile {
            name: "prop",
            input_bytes,
            compute_per_byte,
            data_on_sd: which % 2 == 0,
        };
        let mut framework_shaped = Offloader::new(OffloadPolicy::DataIntensiveToSd, 1);
        let mut multisd_shaped = Offloader::new(OffloadPolicy::Balanced, 1);
        for _ in 0..calls {
            prop_assert_eq!(
                framework_shaped.decide(&profile),
                multisd_shaped.decide(&profile)
            );
        }
    }
}
