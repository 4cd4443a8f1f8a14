//! The runs behind `mcsd-experiments`' walkthrough subcommands (`overload`,
//! `trace`, `failover`, `chaos`, `rack`, `batched`). Each returns what its
//! subcommand prints and the exact bytes of every file it writes; the bin
//! only prints and writes, and `tests/golden.rs` pins a digest of every
//! file, so a run that moves an export moves a digest in the same diff.

use crate::four_phase::{FourPhaseScenario, PhaseRun, ROOMY};
use mcsd_apps::{seq, TextGen, WordCount};
use mcsd_cluster::{multi_sd_testbed, Scale};
use mcsd_core::chaos::{self, BatchedEchoScenario, ReplicationRoundsScenario};
use mcsd_core::des::{self, DesConfig};
use mcsd_core::{
    ChaosScenario, ExecMode, FaultAction, FaultInjector, FaultPlan, FaultSite, McsdError,
    MultiSdReport, MultiSdRunner, ReplicationSetup, ResilienceStats,
};
use mcsd_obs::export::{chrome, jsonl_with, JsonlOptions};
use mcsd_obs::{CounterFamily, MetricSample, Tracer};
use mcsd_phoenix::Stopwatch;
use mcsd_smartfam::{BatchConfig, DaemonStats};
use std::path::PathBuf;
use std::time::Duration;

/// What one walkthrough run produced.
#[derive(Debug, Clone, Default)]
pub struct Demo {
    /// The run's report, as `mcsd-experiments` prints it.
    pub text: String,
    /// Every file the run writes, as (name, contents), in write order.
    pub files: Vec<(String, String)>,
    /// Invariant violations and wrong outputs the run saw. The bin writes
    /// the files anyway, then exits non-zero.
    pub violations: usize,
}

impl Demo {
    fn titled(title: String) -> Demo {
        Demo {
            text: title + "\n\n",
            ..Demo::default()
        }
    }
}

/// The durable timeline of `tracer` (volatile records dropped) followed by
/// the `counters` rows, as the `.jsonl` exports carry it.
fn timeline(tracer: &Tracer, counters: &[MetricSample]) -> String {
    jsonl_with(
        tracer,
        JsonlOptions {
            metrics: counters,
            ..JsonlOptions::default()
        },
    )
}

/// A fresh directory for one run's log files, unique to this process, the
/// run and its seed (the golden test runs several at once).
fn scratch_dir(run: &str, seed: u64) -> Result<PathBuf, McsdError> {
    let dir = std::env::temp_dir().join(format!("mcsd-{run}-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Per-call wait budget of a four-phase run that must complete (`trace`,
/// `overload`); the sweep in [`chaos`] uses a much shorter one.
const CLEAN_WAIT: Duration = Duration::from_secs(60);

/// Run one phase under its baked plan alone and report what it did. There
/// is no injected fault to excuse anything, so any invariant it breaks is
/// a violation.
fn clean_phase(
    scenario: &FourPhaseScenario,
    segment: usize,
    out: &mut Demo,
) -> Result<PhaseRun, McsdError> {
    let letter = char::from(b'A' + segment as u8);
    out.text += &format!(
        "### Phase {letter} — {}\n\n",
        scenario.segment_names()[segment]
    );
    let injector = FaultInjector::new(scenario.baked_plan(segment));
    let run = scenario.run_phase(segment, &injector)?;
    for (invariant, detail) in chaos::evaluate(&run.observation) {
        out.text += &format!("clean phase violated {invariant:?}: {detail}\n");
        out.violations += 1;
    }
    for (job, decision) in &run.decisions {
        out.text += &format!("{job}: {decision:?}\n");
    }
    for d in &run.degradations {
        out.text += &format!("degraded: {d}\n");
    }
    out.text += &format!(
        "daemon: requests={} ok={} shed={} expired={}\nhost: {}\n\n",
        run.daemon.requests, run.daemon.ok, run.daemon.shed, run.daemon.expired, run.resilience
    );
    Ok(run)
}

/// The breaker and memory-admission phases of the four-phase scenario:
/// decision log, degradations and the `OverloadStats` counters.
pub fn overload(seed: u64) -> Result<Demo, McsdError> {
    let mut out = Demo::titled(format!(
        "## Overload protection — breaker steering and memory admission (seed {seed})"
    ));
    let scenario = FourPhaseScenario::new(seed, Tracer::disabled(), CLEAN_WAIT);
    for segment in [1, 3] {
        clean_phase(&scenario, segment, &mut out)?;
    }
    Ok(out)
}

/// Deterministic observability walkthrough (DESIGN.md §12): one shared
/// virtual-clock tracer follows the four seeded phases, exported as
/// `trace-<seed>.jsonl` (with the daemon and host counters) and
/// `trace-<seed>.chrome.json`.
pub fn trace(seed: u64) -> Result<Demo, McsdError> {
    let mut out = Demo::titled(format!(
        "## Deterministic trace — four-phase observability walkthrough (seed {seed})"
    ));
    let tracer = Tracer::enabled();
    let scenario = FourPhaseScenario::new(seed, tracer.clone(), CLEAN_WAIT);
    let mut daemon = DaemonStats::default();
    let mut resilience = ResilienceStats::default();
    for segment in 0..scenario.segment_names().len() {
        let run = clean_phase(&scenario, segment, &mut out)?;
        daemon.absorb(&run.daemon);
        resilience.absorb(&run.resilience);
    }
    let counters = [daemon.samples(), resilience.samples()].concat();
    out.files = vec![
        (format!("trace-{seed}.jsonl"), timeline(&tracer, &counters)),
        (format!("trace-{seed}.chrome.json"), chrome(&tracer)),
    ];
    Ok(out)
}

/// Failover walkthrough (DESIGN.md §15): [`leader_crash`]'s outcomes and
/// counters, its timeline exported to `failover-<seed>.jsonl`.
pub fn failover(seed: u64) -> Result<Demo, McsdError> {
    let mut out = Demo::titled(format!(
        "## Failover — replicated log groups, promotion, re-protection (seed {seed})"
    ));
    out.text += "### Kill one replica mid-run: promotion, not re-execution\n\n";
    let (text, run, tracer) = leader_crash(seed)?;
    for (i, outcome) in run.outcomes.iter().enumerate() {
        out.text += &format!("span {i}: {outcome:?}\n");
    }
    let verdict = if run.pairs == seq::wordcount(&text) {
        "output correct"
    } else {
        out.violations += 1;
        "OUTPUT WRONG"
    };
    out.text += &format!(
        "{verdict}; retries={} redispatches={}; {}\n",
        run.resilience.retries, run.resilience.redispatches, run.replication
    );
    let jsonl = timeline(&tracer, &run.replication.samples());
    out.files = vec![(format!("failover-{seed}.jsonl"), jsonl)];
    Ok(out)
}

/// The corpus the spans counted, the run's report and its timeline on the
/// §12 virtual clock.
pub type LeaderCrash = (Vec<u8>, MultiSdReport<String, u64>, Tracer);

/// A live three-member log group loses span 1's leader replica in its
/// response round — after the module already ran — so the span finishes
/// as a promotion of the most-advanced acknowledged member instead of a
/// re-dispatch, and re-protection restores full redundancy before the run
/// returns.
pub fn leader_crash(seed: u64) -> Result<LeaderCrash, McsdError> {
    let mut cluster = multi_sd_testbed(Scale::default_experiment(), 3);
    for n in &mut cluster.nodes {
        n.memory_bytes = ROOMY;
    }
    let runner = MultiSdRunner::new(cluster)?;
    let text = TextGen::with_seed(seed).generate(60_000);
    // Replica-site occurrences advance once per (entry, member) pair:
    // span 1's rounds cover occurrences 6..12, its response round
    // 9/10/11, and occurrence 9 is replica 0 — the leader. The crash lands
    // after the module work is already durable on another member.
    let plan = FaultPlan::none().with(FaultSite::Replica, 9, FaultAction::CrashBefore);
    let dir = scratch_dir("failover", seed)?;
    let tracer = Tracer::enabled();
    let report = runner.run_replicated(
        &WordCount,
        &WordCount::merger(),
        &text,
        ExecMode::Parallel,
        &FaultInjector::new(plan),
        &ReplicationSetup::new(&dir).with_tracer(tracer.clone()),
    );
    let _ = std::fs::remove_dir_all(&dir);
    Ok((text, report?, tracer))
}

/// Rack-scale run (DESIGN.md §17): `racks` racks of (4 hosts + 9 SDs)
/// behind 4:1-oversubscribed top-of-rack uplinks, `jobs` seeded concurrent
/// jobs through the deterministic discrete-event loop. The
/// arrival/dispatch/completion/shed timeline (§12 `des` track) and the
/// `mcsd.des` counters are exported to `rack-<seed>.jsonl`; the report
/// ends with the loop's wall-clock time.
pub fn rack(seed: u64, racks: u32, jobs: u64) -> Demo {
    let mut out = Demo::titled(format!(
        "## Rack scale — discrete-event scheduler, DESIGN.md section 17 (seed {seed})"
    ));
    let mut cfg = DesConfig::default_experiment(jobs, seed);
    cfg.spec.racks = racks.max(1);
    out.text += &format!(
        "topology: {} racks x ({} hosts + {} SDs) = {} nodes; uplink {}:1 oversubscribed\n",
        cfg.spec.racks,
        cfg.spec.hosts_per_rack,
        cfg.spec.sds_per_rack,
        cfg.spec.total_nodes(),
        cfg.spec.uplink_oversubscription,
    );
    let tracer = Tracer::enabled();
    let (run, wall) = Stopwatch::time(|| des::run(&cfg, &tracer));
    let stats = &run.report.stats;
    out.text += &format!("{}\n", run.report);
    if !stats.is_conserved() {
        out.text += "DES run lost jobs: arrivals != completed + shed\n";
        out.violations += 1;
    }
    let wall = wall.as_secs_f64();
    out.text += &format!(
        "wall-clock: {wall:.3}s ({:.0} completed jobs/sec)\n",
        stats.completed_jobs as f64 / wall
    );
    out.files = vec![(
        format!("rack-{seed}.jsonl"),
        timeline(&tracer, &stats.samples()),
    )];
    out
}

/// The §16 chaos sweep: enumerate every counter-deterministic fault point
/// the three scenarios cross, inject every applicable action at each,
/// audit the invariant catalog, and export the reports to
/// `chaos-<seed>.json`. Each violation counts.
pub fn chaos(seed: u64) -> Result<Demo, McsdError> {
    let mut out = Demo::titled(format!(
        "## Chaos sweep — exhaustive fault-space exploration (seed {seed})"
    ));
    let dir = scratch_dir("chaos", seed)?;
    // Per-call budget of the four-phase sweep: generous against CI
    // scheduling jitter on the clean path (which never waits anywhere near
    // this long), tight enough that injected daemon crashes cost seconds,
    // not minutes.
    let wait = Duration::from_secs(2);
    let batching = BatchConfig {
        workers: 2,
        max_batch: 3,
        seed,
    };
    let scenarios: [&dyn ChaosScenario; 3] = [
        &ReplicationRoundsScenario::new(seed, &dir),
        &FourPhaseScenario::new(seed, Tracer::disabled(), wait),
        &BatchedEchoScenario::new(6, batching, Tracer::disabled(), &dir),
    ];
    let reports: Result<Vec<_>, _> = scenarios
        .into_iter()
        .map(|scenario| chaos::run_sweep(scenario, seed, &Tracer::disabled()))
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    let mut json = Vec::new();
    for report in reports? {
        out.text += &format!("{}\n", report.render_table());
        out.violations += report.violations.len();
        json.push(report.to_json());
    }
    out.files = vec![(
        format!("chaos-{seed}.json"),
        format!("[\n{}\n]\n", json.join(",\n")),
    )];
    Ok(out)
}

/// Deterministic batched-dispatch walkthrough (DESIGN.md §18):
/// [`BatchedEchoScenario`] pre-stages twelve echo requests into the module
/// log *before* the daemon starts, so the replay scan queues them all and
/// the multi-worker batched executor forms exactly three four-request
/// batches — batch formation, worker assignment, completion order, and the
/// coalesced commits are all a pure function of the request sequence and
/// the `BatchConfig` seed. The `sd.*` timeline and the `batch.*` counters
/// are exported to `batched-<seed>.jsonl`.
pub fn batched(seed: u64) -> Result<Demo, McsdError> {
    const REQUESTS: usize = 12;
    let mut out = Demo::titled(format!(
        "## Batched dispatch — coalesced commits and the multi-worker pool, DESIGN.md section 18 (seed {seed})"
    ));
    let dir = scratch_dir("batched", seed)?;
    let tracer = Tracer::enabled();
    let batching = BatchConfig {
        workers: 4,
        max_batch: 4,
        seed,
    };
    let run = BatchedEchoScenario::new(REQUESTS, batching, tracer.clone(), &dir)
        .run(&FaultInjector::disabled());
    let _ = std::fs::remove_dir_all(&dir);
    let (observation, daemon, batch) = run?;
    for (invariant, detail) in chaos::evaluate(&observation) {
        out.text += &format!("clean run violated {invariant:?}: {detail}\n");
        out.violations += 1;
    }
    out.text += &format!(
        "{REQUESTS} pre-staged echo calls through the batched executor: ok={}; {batch}\n",
        daemon.ok
    );
    let counters = [daemon.samples(), batch.samples()].concat();
    out.files = vec![(
        format!("batched-{seed}.jsonl"),
        timeline(&tracer, &counters),
    )];
    Ok(out)
}
