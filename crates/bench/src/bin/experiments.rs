//! `mcsd-experiments` — regenerate every table and figure of the McSD
//! paper's evaluation (§V), plus the DESIGN.md ablations.
//!
//! ```text
//! mcsd-experiments [all|table1|fig8a|fig8b|fig8c|fig9|fig10|smb|ablations|faults|overload|trace|failover|chaos|rack|batched]
//!                  [--scale N] [--seed N] [--racks N] [--jobs N] [--quick] [--csv]
//! ```
//!
//! `faults` (not part of `all`) drives seeded fault schedules through the
//! live SD path and prints the recovery counters — the interactive
//! counterpart of `crates/mcsd-core/tests/faults.rs`.
//!
//! `overload` (not part of `all` either) drives the overload-protection
//! stack — circuit-breaker steering and memory-budget re-partitioning —
//! and prints the decision log plus the `OverloadStats` counters, the
//! interactive counterpart of `crates/mcsd-core/tests/overload.rs`.
//!
//! `trace` (not part of `all` either) runs a seeded four-phase
//! observability scenario with the DESIGN.md §12 virtual-clock tracer on
//! and writes `trace-<seed>.jsonl` plus `trace-<seed>.chrome.json` — two
//! runs with the same `--seed` produce byte-identical files, which CI
//! asserts with a plain `diff`.
//!
//! `failover` (not part of `all` either) walks the DESIGN.md §15
//! replication story on a live three-node group: the leader replica is
//! killed mid-round, the span is promoted instead of re-dispatched,
//! background re-protection restores full redundancy, and a seeded
//! sweep shows exact counter replay — the interactive counterpart of
//! `crates/mcsd-core/tests/replication.rs`.
//!
//! `rack` (not part of `all` either) runs the DESIGN.md §17 rack-scale
//! discrete-event scheduler — `--racks R` racks of (4 hosts + 9 SDs)
//! behind 4:1-oversubscribed uplinks, `--jobs J` seeded concurrent jobs
//! placed by the engine's balanced policy onto per-shard run queues —
//! and writes the arrival/dispatch/completion trace plus the `mcsd.des`
//! counters to `rack-<seed>.jsonl`. Same seed, same bytes, which CI
//! asserts with a plain `diff`.
//!
//! `chaos` (not part of `all` either) runs the DESIGN.md §16
//! deterministic fault-space sweep: discover every counter-deterministic
//! `(site, occurrence)` injection point the replication-rounds and
//! four-phase scenarios cross, re-run once per point × action, audit the
//! invariant catalog (output, durability, at-most-once, fencing,
//! conservation, convergence), and write `chaos-<seed>.json`. Exits
//! non-zero on any invariant violation; same seed, same report bytes,
//! which CI asserts with a plain `diff`.
//!
//! `batched` (not part of `all` either) pre-stages twelve echo requests
//! and drives them through the DESIGN.md §18 batched executor — three
//! coalesced four-request commits off the seeded multi-worker pool —
//! then writes the `sd.*` timeline and `batch.*` counters to
//! `batched-<seed>.jsonl`. Same seed, same bytes, which CI asserts with
//! a plain `diff` of two release-mode runs.
//!
//! Run in release mode: debug builds inflate per-byte compute cost ~25x
//! and distort the compute/IO balance the figures depend on.

use mcsd_bench::table::TextTable;
use mcsd_bench::{ablation, fig8, pairs, ExperimentConfig};
use mcsd_cluster::{paper_testbed, SandiaMicroBenchmark, Scale, SmbPattern};

fn usage() -> ! {
    eprintln!(
        "usage: mcsd-experiments [all|table1|fig8a|fig8b|fig8c|fig9|fig10|smb|ablations|faults|overload|trace|failover|chaos|rack|batched] \
         [--scale N] [--seed N] [--racks N] [--jobs N] [--quick] [--csv]"
    );
    std::process::exit(2);
}

/// Seeded fault sweep through the live framework: one Word Count offload
/// per seed, with the seed's fault schedule disturbing the daemon, the
/// log files, or the heartbeat. Prints the plan, the outcome, and the
/// exact `ResilienceStats` the run produced (replaying a seed reproduces
/// the same counters).
fn fault_sweep(seeds: &[u64]) {
    use mcsd_apps::{seq, TextGen};
    use mcsd_core::{FaultInjector, FaultPlan, McsdFramework, OffloadPolicy, ResilienceConfig};
    use std::time::Duration;

    for &seed in seeds {
        let plan = FaultPlan::from_seed(seed);
        let mut resilience = ResilienceConfig {
            injector: FaultInjector::from_seed(seed),
            ..ResilienceConfig::default()
        };
        resilience.retry.heartbeat_max_age = Duration::from_millis(800);
        resilience.retry.probe_interval = Duration::from_millis(25);
        resilience.call_timeout = Duration::from_secs(6);

        let mut cluster = paper_testbed(Scale::default_experiment());
        for n in &mut cluster.nodes {
            n.memory_bytes = 256 << 20;
        }
        let fw = McsdFramework::start_with(cluster, OffloadPolicy::AlwaysSd, resilience)
            .expect("framework boot");
        let text = TextGen::with_seed(1234).generate(20_000);
        fw.stage_data_local("wc.txt", &text).expect("stage");
        let oracle = seq::wordcount(&text);
        // Two invocations so schedules targeting the second request
        // (`nth == 1`) fire too.
        let mut verdict = "output correct";
        for _ in 0..2 {
            verdict = match fw.wordcount("wc.txt", None) {
                Ok((pairs, _)) if pairs == oracle => verdict,
                Ok(_) => "OUTPUT WRONG",
                Err(_) => "typed error",
            };
        }
        let stats = fw.resilience_stats();
        println!("seed {seed:>3}  wordcount: {verdict:<15} {stats}");
        for f in plan.faults() {
            println!(
                "          scheduled: {:?} #{} {:?}",
                f.site, f.nth, f.action
            );
        }
        for d in fw.degradations() {
            println!("          degraded: {d}");
        }
        fw.stop();
    }
    println!();
}

/// Overload-protection walkthrough: a failing SD trips its circuit
/// breaker and subsequent offloads are steered to the host until a
/// half-open probe re-admits the node; then an over-footprint job is
/// re-partitioned down to the SD node's memory budget. Both scenarios
/// are seeded — re-running prints identical decisions and counters.
fn overload_demo() {
    use mcsd_apps::{seq, TextGen};
    use mcsd_cluster::NodeRole;
    use mcsd_core::{
        BreakerConfig, FaultAction, FaultInjector, FaultPlan, FaultSite, McsdFramework,
        OffloadPolicy, ResilienceConfig,
    };
    use std::time::Duration;

    println!("### Circuit breaker: failing SD steered around, then re-admitted\n");
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
    let mut cluster = paper_testbed(Scale::default_experiment());
    for n in &mut cluster.nodes {
        n.memory_bytes = 256 << 20;
    }
    let fw = McsdFramework::start_with(cluster, OffloadPolicy::DataIntensiveToSd, resilience)
        .expect("framework boot");
    let text = TextGen::with_seed(40).generate(20_000);
    fw.stage_data_local("wc.txt", &text).expect("stage");
    let oracle = seq::wordcount(&text);
    for call in 0..6u32 {
        let verdict = match fw.wordcount("wc.txt", Some("auto")) {
            Ok((pairs, _)) if pairs == oracle => "output correct",
            Ok(_) => "OUTPUT WRONG",
            Err(_) => "typed error",
        };
        let (_, decision) = *fw.decision_log().last().expect("decision");
        println!("call {call}: {decision:?} ({verdict})");
    }
    let stats = fw.resilience_stats();
    println!("breaker: {:?}; {}", fw.breaker_state(), stats.overload);
    for d in fw.degradations() {
        println!("          degraded: {d}");
    }
    fw.stop();

    println!("\n### Memory-budget admission: over-footprint job re-partitioned\n");
    let mut cluster = paper_testbed(Scale::default_experiment());
    for n in &mut cluster.nodes {
        n.memory_bytes = if n.role == NodeRole::SmartStorage {
            1 << 20
        } else {
            256 << 20
        };
    }
    let fw = McsdFramework::start(cluster, OffloadPolicy::DataIntensiveToSd).expect("boot");
    let text = TextGen::with_seed(41).generate(900_000);
    fw.stage_data_local("big.txt", &text).expect("stage");
    let verdict = match fw.wordcount("big.txt", None) {
        Ok((pairs, _)) if pairs == seq::wordcount(&text) => "output correct",
        Ok(_) => "OUTPUT WRONG",
        Err(e) => {
            println!("refused: {e}");
            "typed error"
        }
    };
    let stats = fw.resilience_stats();
    println!(
        "900 kB input on a 1 MiB SD node: {verdict}; {}",
        stats.overload
    );
    fw.stop();
    println!();
}

/// Aggregate outcome of one four-phase scenario run: the merged counter
/// families.
struct PhaseTotals {
    daemon: mcsd_smartfam::DaemonStats,
    resilience: mcsd_core::ResilienceStats,
}

/// The seeded four-phase scenario behind `trace`: daemon saturation
/// (typed sheds plus a deadline expiry), circuit-breaker steering, a
/// torn-append retry, and memory-budget re-partitioning.
fn four_phases(seed: u64, tracer: &mcsd_obs::Tracer) -> PhaseTotals {
    use mcsd_apps::TextGen;
    use mcsd_cluster::NodeRole;
    use mcsd_core::{
        BreakerConfig, FaultAction, FaultInjector, FaultPlan, FaultSite, McsdFramework,
        OffloadPolicy, ResilienceConfig, ResilienceStats,
    };
    use mcsd_smartfam::module::FnModule;
    use mcsd_smartfam::{DaemonStats, SmartFamError};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    const TIMEOUT: Duration = Duration::from_secs(60);
    let mut daemon_totals = DaemonStats::default();
    let mut resilience_totals = ResilienceStats::default();
    let cluster = || {
        let mut c = paper_testbed(Scale::default_experiment());
        for n in &mut c.nodes {
            n.memory_bytes = 256 << 20;
        }
        c
    };

    println!("### Phase A — saturation: 5 requests into 1 slot + 1 queue spot\n");
    let resilience = ResilienceConfig {
        max_in_flight: 1,
        max_queued: 1,
        tracer: tracer.clone(),
        ..ResilienceConfig::default()
    };
    let fw = McsdFramework::start_with(cluster(), OffloadPolicy::DataIntensiveToSd, resilience)
        .expect("framework boot");
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
        .map(|i| {
            smartfam
                .submit("gate", &[format!("r{i}")])
                .expect("submit request")
        })
        .collect();
    // r0 pins the only slot and r1 the only queue spot while the gate is
    // shut, so the daemon must shed r2..r4 with typed replies.
    let mut sheds = 0;
    for pending in pendings.drain(2..) {
        if let Err(SmartFamError::Overloaded { .. }) = pending.wait(TIMEOUT) {
            sheds += 1;
        }
    }
    println!("gate shut: {sheds} of 5 requests shed at admission (typed Overloaded)");
    std::fs::write(&release, b"go").expect("open gate");
    for pending in pendings {
        pending.wait(TIMEOUT).expect("admitted request served");
    }
    let expired = smartfam
        .submit_with_deadline("gate", &[], 1)
        .expect("submit expired request");
    let _ = expired.wait(TIMEOUT);
    println!("gate open: admitted requests served; 1 expired deadline dropped at dequeue");
    daemon_totals.absorb(&fw.sd_node().daemon_stats());
    resilience_totals.absorb(&fw.resilience_stats());
    fw.stop();

    println!("\n### Phase B — breaker: failing SD steered around, then re-admitted\n");
    // The §11 breaker scenario: two dispatch failures trip the breaker
    // (threshold 2), the 3 ms cooldown steers two calls to the host, and
    // a half-open probe re-admits the node for the rest.
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
    let fw = McsdFramework::start_with(cluster(), OffloadPolicy::DataIntensiveToSd, resilience)
        .expect("framework boot");
    let text = TextGen::with_seed(seed).generate(20_000);
    fw.stage_data_local("wc.txt", &text).expect("stage");
    for _ in 0..6 {
        fw.wordcount("wc.txt", Some("auto")).expect("wordcount");
    }
    for (job, decision) in fw.decision_log() {
        println!("{job}: {decision:?}");
    }
    for d in fw.degradations() {
        println!("degraded: {d}");
    }
    daemon_totals.absorb(&fw.sd_node().daemon_stats());
    resilience_totals.absorb(&fw.resilience_stats());
    fw.stop();

    println!("\n### Phase C — retry: a torn request append recovered on the second attempt\n");
    // The host's first append is torn mid-frame; the typed FaultInjected
    // error is transient, so the resilient client backs off, retries, and
    // the daemon's recovering reader skips the corrupt bytes.
    let plan = FaultPlan::none().with(
        FaultSite::HostAppend,
        0,
        FaultAction::Torn { keep_sixteenths: 8 },
    );
    let mut resilience = ResilienceConfig {
        injector: FaultInjector::new(plan),
        tracer: tracer.clone(),
        ..ResilienceConfig::default()
    };
    resilience.retry.max_attempts = 2;
    resilience.retry.base_backoff = Duration::from_millis(1);
    let fw = McsdFramework::start_with(cluster(), OffloadPolicy::DataIntensiveToSd, resilience)
        .expect("framework boot");
    let text = TextGen::with_seed(seed).generate(20_000);
    fw.stage_data_local("wc.txt", &text).expect("stage");
    fw.wordcount("wc.txt", Some("auto")).expect("wordcount");
    let stats = fw.resilience_stats();
    println!(
        "call served on attempt 2: {} retry, {} corrupt bytes skipped",
        stats.retries, stats.corrupt_skipped_bytes
    );
    daemon_totals.absorb(&fw.sd_node().daemon_stats());
    resilience_totals.absorb(&stats);
    fw.stop();

    println!("\n### Phase D — memory admission: 900 kB job onto a 1 MiB SD node\n");
    let mut tight = paper_testbed(Scale::default_experiment());
    for n in &mut tight.nodes {
        n.memory_bytes = if n.role == NodeRole::SmartStorage {
            1 << 20
        } else {
            256 << 20
        };
    }
    let resilience = ResilienceConfig {
        tracer: tracer.clone(),
        ..ResilienceConfig::default()
    };
    let fw = McsdFramework::start_with(tight, OffloadPolicy::DataIntensiveToSd, resilience)
        .expect("framework boot");
    let text = TextGen::with_seed(seed.wrapping_add(1)).generate(900_000);
    fw.stage_data_local("big.txt", &text).expect("stage");
    fw.wordcount("big.txt", None).expect("wordcount");
    let halvings = fw.resilience_stats().overload.repartitions;
    println!("fragment halved {halvings}x to fit the SD node's memory budget");
    daemon_totals.absorb(&fw.sd_node().daemon_stats());
    resilience_totals.absorb(&fw.resilience_stats());
    fw.stop();

    PhaseTotals {
        daemon: daemon_totals,
        resilience: resilience_totals,
    }
}

/// Deterministic observability walkthrough (DESIGN.md §12): one shared
/// virtual-clock tracer follows the four seeded phases, then exports the
/// whole run as JSON-lines and Chrome `trace_event` files.
/// Same seed, same bytes: CI runs this twice and diffs the outputs.
fn trace_run(seed: u64) {
    use mcsd_obs::export::{chrome, jsonl_with, JsonlOptions};
    use mcsd_obs::{MetricsRegistry, Tracer};

    let tracer = Tracer::enabled();
    let totals = four_phases(seed, &tracer);

    // One unified registry for the whole run, filled through the typed
    // single-owner publish methods.
    let registry = MetricsRegistry::new();
    totals
        .daemon
        .publish(&registry)
        .expect("publish daemon counters");
    totals
        .resilience
        .publish(&registry)
        .expect("publish resilience counters");
    let jsonl = jsonl_with(
        &tracer,
        JsonlOptions {
            include_volatile: false,
            metrics: Some(&registry),
        },
    );
    let chrome_json = chrome(&tracer);
    let jsonl_path = format!("trace-{seed}.jsonl");
    let chrome_path = format!("trace-{seed}.chrome.json");
    std::fs::write(&jsonl_path, &jsonl).expect("write jsonl trace");
    std::fs::write(&chrome_path, &chrome_json).expect("write chrome trace");
    println!(
        "\nwrote {jsonl_path} ({} lines) and {chrome_path} — same seed, same bytes",
        jsonl.lines().count()
    );
    println!();
}

/// Failover walkthrough (DESIGN.md §15): a live three-member log group
/// loses its leader replica mid-round — after the module already ran —
/// so the span finishes as a promotion of the most-advanced
/// acknowledged mirror instead of a re-dispatch, and background
/// re-protection restores full redundancy before the run returns. A
/// seeded sweep over `FaultPlan::replication_from_seed` then replays
/// each schedule twice and shows the `ReplicationStats` match exactly.
///
/// The kill-one-replica run traces onto the §12 virtual clock and is
/// exported to `failover-<seed>.jsonl` in the working directory — same
/// seed, same bytes, which CI asserts with a plain `diff`.
fn failover_demo(seed: u64) {
    use mcsd_apps::{seq, TextGen, WordCount};
    use mcsd_cluster::multi_sd_testbed;
    use mcsd_core::{
        ExecMode, FaultAction, FaultInjector, FaultPlan, FaultSite, MultiSdRunner, ReplicationSetup,
    };
    use mcsd_obs::export::{jsonl_with, JsonlOptions};
    use mcsd_obs::{MetricsRegistry, Tracer};

    let runner = || {
        let mut cluster = multi_sd_testbed(Scale::default_experiment(), 3);
        for n in &mut cluster.nodes {
            n.memory_bytes = 256 << 20;
        }
        MultiSdRunner::new(cluster).expect("runner boot")
    };
    let log_dir = |tag: &str| {
        let dir = std::env::temp_dir().join(format!("mcsd-failover-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("log dir");
        dir
    };
    let text = TextGen::with_seed(seed).generate(60_000);
    let oracle = seq::wordcount(&text);

    println!("### Kill one replica mid-run: promotion, not re-execution\n");
    // Replica-site occurrences advance once per (entry, member) pair, so
    // occurrence 9 is the leader copy of span 1's response round — the
    // crash lands after the module work is already durable on a mirror.
    let plan = FaultPlan::none().with(FaultSite::Replica, 9, FaultAction::CrashBefore);
    let dir = log_dir("kill");
    let tracer = Tracer::enabled();
    let out = runner()
        .run_replicated(
            &WordCount,
            &WordCount::merger(),
            &text,
            ExecMode::Parallel,
            &FaultInjector::new(plan),
            &ReplicationSetup::new(&dir).with_tracer(tracer.clone()),
        )
        .expect("replicated run");
    let verdict = if out.pairs == oracle {
        "output correct"
    } else {
        "OUTPUT WRONG"
    };
    for (i, outcome) in out.outcomes.iter().enumerate() {
        println!("span {i}: {outcome:?}");
    }
    println!(
        "{verdict}; retries={} redispatches={}; {}",
        out.resilience.retries, out.resilience.redispatches, out.replication
    );
    let _ = std::fs::remove_dir_all(&dir);
    let registry = MetricsRegistry::new();
    out.replication
        .publish(&registry)
        .expect("publish replication counters");
    let jsonl = jsonl_with(
        &tracer,
        JsonlOptions {
            include_volatile: false,
            metrics: Some(&registry),
        },
    );
    let jsonl_path = format!("failover-{seed}.jsonl");
    std::fs::write(&jsonl_path, &jsonl).expect("write failover trace");
    println!(
        "wrote {jsonl_path} ({} lines) — same seed, same bytes",
        jsonl.lines().count()
    );

    println!("\n### Seeded failover sweep — exact counter replay\n");
    for s in seed..seed + 4 {
        let plan = FaultPlan::replication_from_seed(s);
        let mut runs = Vec::new();
        for pass in 0..2 {
            let dir = log_dir(&format!("sweep-{s}-{pass}"));
            let out = runner()
                .run_replicated(
                    &WordCount,
                    &WordCount::merger(),
                    &text,
                    ExecMode::Parallel,
                    &FaultInjector::new(plan.clone()),
                    &ReplicationSetup::new(&dir),
                )
                .expect("replicated run");
            let _ = std::fs::remove_dir_all(&dir);
            runs.push(out);
        }
        let verdict = if runs.iter().all(|r| r.pairs == oracle) {
            "output correct"
        } else {
            "OUTPUT WRONG"
        };
        let replay =
            if runs[0].replication == runs[1].replication && runs[0].outcomes == runs[1].outcomes {
                "replayed exactly"
            } else {
                "REPLAY DIVERGED"
            };
        println!(
            "seed {s:>3}  wordcount: {verdict:<15} {replay:<16} {}",
            runs[0].replication
        );
        for f in plan.faults() {
            println!(
                "          scheduled: {:?} #{} {:?}",
                f.site, f.nth, f.action
            );
        }
    }
    println!();
}

/// Rack-scale run (DESIGN.md §17): `racks` racks of (4 hosts + 9 SDs)
/// behind 4:1-oversubscribed top-of-rack uplinks, `jobs` seeded
/// concurrent jobs through the deterministic discrete-event loop. The
/// arrival/dispatch/completion/shed timeline (§12 `des` track) and the
/// `mcsd.des` counters are exported to `rack-<seed>.jsonl` — same seed,
/// same bytes, which CI asserts with a plain `diff` of two runs.
fn rack_run(racks: u32, jobs: u64, seed: u64) {
    use mcsd_core::des::{self, DesConfig};
    use mcsd_obs::export::{jsonl_with, JsonlOptions};
    use mcsd_obs::{MetricsRegistry, Tracer};
    use std::time::Instant;

    let mut cfg = DesConfig::default_experiment(jobs, seed);
    cfg.spec.racks = racks.max(1);
    println!(
        "topology: {} racks x ({} hosts + {} SDs) = {} nodes; uplink {}:1 oversubscribed",
        cfg.spec.racks,
        cfg.spec.hosts_per_rack,
        cfg.spec.sds_per_rack,
        cfg.spec.total_nodes(),
        cfg.spec.uplink_oversubscription,
    );
    let tracer = Tracer::enabled();
    let t0 = Instant::now();
    let run = des::run(&cfg, &tracer);
    let wall = t0.elapsed().as_secs_f64();
    let registry = MetricsRegistry::new();
    run.report
        .stats
        .publish(&registry)
        .expect("publish DES counters");
    let jsonl = jsonl_with(
        &tracer,
        JsonlOptions {
            include_volatile: false,
            metrics: Some(&registry),
        },
    );
    let path = format!("rack-{seed}.jsonl");
    std::fs::write(&path, &jsonl).expect("write rack trace");
    println!("{}", run.report);
    assert!(
        run.report.stats.is_conserved(),
        "DES run must conserve jobs (arrivals == completed + shed)"
    );
    println!(
        "wall-clock: {wall:.3}s ({:.0} completed jobs/sec)",
        run.report.stats.completed_jobs as f64 / wall
    );
    println!(
        "wrote {path} ({} lines) — same seed, same bytes",
        jsonl.lines().count()
    );
    println!();
}

/// Chaos-tolerant re-implementation of the four-phase scenario for the
/// DESIGN.md §16 sweep. Deliberately a *separate* implementation from
/// [`four_phases`]: that function's trace bytes are pinned by CI, while
/// this one must absorb an arbitrary injected fault at every discovered
/// point — every wait is short, nothing fault-reachable is `expect`ed,
/// and the only hard failure is silently wrong output.
///
/// Per-segment action sets are restricted (`actions`) so the full sweep
/// stays inside the CI budget; the segment-local baked plans (phase B's
/// dispatch failures, phase C's torn append) surface as *shadowed*
/// points in the report rather than being double-injected.
struct FourPhaseScenario {
    seed: u64,
}

impl FourPhaseScenario {
    /// Host-side wait budget per pending call. Generous against CI
    /// scheduling jitter on the clean path (which never waits anywhere
    /// near this long), tight enough that injected daemon crashes cost
    /// seconds, not minutes.
    const WAIT: std::time::Duration = std::time::Duration::from_secs(2);

    fn cluster() -> mcsd_cluster::Cluster {
        let mut c = paper_testbed(Scale::default_experiment());
        for n in &mut c.nodes {
            n.memory_bytes = 256 << 20;
        }
        c
    }

    /// Liveness bounds shared by every segment: crash detection well
    /// under the wait budget, but heartbeat tolerance wide enough (16
    /// missed 50 ms beats) that a busy runner is never mistaken for a
    /// dead daemon on the clean pass.
    fn tighten(r: &mut mcsd_core::ResilienceConfig) {
        use std::time::Duration;
        r.retry.heartbeat_max_age = Duration::from_millis(800);
        r.retry.probe_interval = Duration::from_millis(25);
        r.retry.base_backoff = Duration::from_millis(1);
        r.call_timeout = Self::WAIT;
    }

    fn daemon_conservation(d: &mcsd_smartfam::DaemonStats) -> mcsd_core::ConservationCheck {
        mcsd_core::ConservationCheck::ge(
            "daemon requests >= ok + module_errors + unknown + shed + expired + quarantine_rejected",
            d.requests,
            d.ok + d.module_errors + d.unknown_module + d.shed + d.expired + d.quarantine_rejected,
        )
    }

    fn resilience_conservation(r: &mcsd_core::ResilienceStats) -> mcsd_core::ConservationCheck {
        mcsd_core::ConservationCheck::ge("attempts >= retries", r.attempts, r.retries)
    }

    /// Phase A — admission control under saturation: 1 slot, 1 queue
    /// spot, 5 gated requests plus a pre-expired deadline.
    fn saturation(
        &self,
        injector: &mcsd_core::FaultInjector,
    ) -> Result<mcsd_core::ChaosObservation, mcsd_core::McsdError> {
        use mcsd_core::{
            ChaosObservation, McsdError, McsdFramework, OffloadPolicy, ResilienceConfig,
        };
        use mcsd_smartfam::module::FnModule;
        use mcsd_smartfam::SmartFamError;
        use std::sync::Arc;
        use std::time::{Duration, Instant};

        // The baseline (discovery) pass runs with an empty probing plan;
        // only there are the exact shed/served counts part of the output
        // contract. Injected runs may disturb them arbitrarily.
        let strict = injector.plan().is_empty();
        let mut resilience = ResilienceConfig {
            max_in_flight: 1,
            max_queued: 1,
            injector: injector.clone(),
            ..ResilienceConfig::default()
        };
        Self::tighten(&mut resilience);
        let fw = McsdFramework::start_with(
            Self::cluster(),
            OffloadPolicy::DataIntensiveToSd,
            resilience,
        )?;
        let release = fw.sd_node().data_root().join("release.gate");
        let gate = release.clone();
        fw.sd_node()
            .registry()
            .register(Arc::new(FnModule::new("gate", move |p: &[String]| {
                let t0 = Instant::now();
                while !gate.exists() && t0.elapsed() < Duration::from_secs(5) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok(p.join("").into_bytes())
            })));
        let client = fw.sd_node().host_client();
        let smartfam = client.smartfam();

        let mut wrong = false;
        // Once one wait times out on something other than a typed shed,
        // the daemon is presumed dead and the remaining waits shrink to a
        // token poll — bounds crash cases to seconds instead of
        // `6 × WAIT`.
        let mut dead = false;
        let budget = |dead: bool| {
            if dead {
                Duration::from_millis(50)
            } else {
                Self::WAIT
            }
        };

        let mut gated = Vec::new();
        let mut queued = Vec::new();
        for i in 0..5u32 {
            // A submit can fail with a typed host-side error under an
            // injected append fault; that is an acceptable outcome, the
            // request simply never entered the system.
            match smartfam.submit("gate", &[format!("r{i}")]) {
                Ok(p) if i < 2 => queued.push((i, p)),
                Ok(p) => gated.push((i, p)),
                Err(_) => {}
            }
        }
        let mut sheds = 0u32;
        for (i, p) in gated {
            match p.wait(budget(dead)) {
                Ok(out) => {
                    if out.payload != format!("r{i}").into_bytes() {
                        wrong = true;
                    }
                }
                Err(SmartFamError::Overloaded { .. }) => sheds += 1,
                Err(_) => dead = true,
            }
        }
        std::fs::write(&release, b"go").map_err(McsdError::from)?;
        let mut served = 0u32;
        for (i, p) in queued {
            match p.wait(budget(dead)) {
                Ok(out) => {
                    if out.payload == format!("r{i}").into_bytes() {
                        served += 1;
                    } else {
                        wrong = true;
                    }
                }
                Err(SmartFamError::Overloaded { .. }) => {}
                Err(_) => dead = true,
            }
        }
        if let Ok(p) = smartfam.submit_with_deadline("gate", &[], 1) {
            // Clean outcome is a typed deadline-expired reply; anything
            // else a fault may produce is equally acceptable.
            let _ = p.wait(budget(dead));
        }
        if strict && (sheds != 3 || served != 2) {
            wrong = true;
        }

        let daemon = fw.sd_node().daemon_stats();
        let stats = fw.resilience_stats();
        fw.stop();
        let mut obs = ChaosObservation::clean();
        obs.outputs_correct = !wrong;
        obs.conservation = vec![
            Self::daemon_conservation(&daemon),
            Self::resilience_conservation(&stats),
        ];
        Ok(obs)
    }

    /// Phase B — circuit breaker: two baked dispatch failures trip the
    /// breaker, later calls steer to the host and a half-open probe
    /// re-admits the node.
    fn breaker(
        &self,
        injector: &mcsd_core::FaultInjector,
    ) -> Result<mcsd_core::ChaosObservation, mcsd_core::McsdError> {
        use mcsd_apps::{seq, TextGen};
        use mcsd_core::{
            BreakerConfig, ChaosObservation, ConservationCheck, McsdFramework, OffloadPolicy,
            ResilienceConfig,
        };
        use std::time::Duration;

        let mut resilience = ResilienceConfig {
            injector: injector.clone(),
            breaker: BreakerConfig {
                failure_threshold: 2,
                cooldown: Duration::from_millis(3),
                probe_quota: 1,
            },
            ..ResilienceConfig::default()
        };
        Self::tighten(&mut resilience);
        resilience.retry.max_attempts = 1;
        let fw = McsdFramework::start_with(
            Self::cluster(),
            OffloadPolicy::DataIntensiveToSd,
            resilience,
        )?;
        let text = TextGen::with_seed(self.seed).generate(20_000);
        fw.stage_data_local("wc.txt", &text)?;
        let oracle = seq::wordcount(&text);
        let mut wrong = false;
        for _ in 0..6 {
            // An Err here is a typed error under injection — acceptable.
            if let Ok((pairs, _)) = fw.wordcount("wc.txt", Some("auto")) {
                wrong |= pairs != oracle;
            }
        }
        let daemon = fw.sd_node().daemon_stats();
        let stats = fw.resilience_stats();
        fw.stop();
        let mut obs = ChaosObservation::clean();
        obs.outputs_correct = !wrong;
        obs.conservation = vec![
            Self::daemon_conservation(&daemon),
            Self::resilience_conservation(&stats),
            // probe_quota is 1, so every half-open probe is preceded by
            // its own transition into the open state.
            ConservationCheck::ge(
                "breaker opens >= half-open probes",
                stats.overload.breaker_opens,
                stats.overload.half_open_probes,
            ),
        ];
        Ok(obs)
    }

    /// Phase C — retry: the baked torn request append is recovered on
    /// the second attempt.
    fn retry(
        &self,
        injector: &mcsd_core::FaultInjector,
    ) -> Result<mcsd_core::ChaosObservation, mcsd_core::McsdError> {
        use mcsd_apps::{seq, TextGen};
        use mcsd_core::{ChaosObservation, McsdFramework, OffloadPolicy, ResilienceConfig};

        let mut resilience = ResilienceConfig {
            injector: injector.clone(),
            ..ResilienceConfig::default()
        };
        Self::tighten(&mut resilience);
        resilience.retry.max_attempts = 2;
        let fw = McsdFramework::start_with(
            Self::cluster(),
            OffloadPolicy::DataIntensiveToSd,
            resilience,
        )?;
        let text = TextGen::with_seed(self.seed).generate(20_000);
        fw.stage_data_local("wc.txt", &text)?;
        let oracle = seq::wordcount(&text);
        let wrong = match fw.wordcount("wc.txt", Some("auto")) {
            Ok((pairs, _)) => pairs != oracle,
            Err(_) => false,
        };
        let daemon = fw.sd_node().daemon_stats();
        let stats = fw.resilience_stats();
        fw.stop();
        let mut obs = ChaosObservation::clean();
        obs.outputs_correct = !wrong;
        obs.conservation = vec![
            Self::daemon_conservation(&daemon),
            Self::resilience_conservation(&stats),
        ];
        Ok(obs)
    }

    /// Phase D — memory admission: a 900 kB job onto a 1 MiB SD node is
    /// re-partitioned down to budget before dispatch.
    fn admission(
        &self,
        injector: &mcsd_core::FaultInjector,
    ) -> Result<mcsd_core::ChaosObservation, mcsd_core::McsdError> {
        use mcsd_apps::{seq, TextGen};
        use mcsd_cluster::NodeRole;
        use mcsd_core::{
            ChaosObservation, ConservationCheck, McsdFramework, OffloadPolicy, ResilienceConfig,
        };

        let mut tight = paper_testbed(Scale::default_experiment());
        for n in &mut tight.nodes {
            n.memory_bytes = if n.role == NodeRole::SmartStorage {
                1 << 20
            } else {
                256 << 20
            };
        }
        let mut resilience = ResilienceConfig {
            injector: injector.clone(),
            ..ResilienceConfig::default()
        };
        Self::tighten(&mut resilience);
        resilience.retry.max_attempts = 2;
        let fw = McsdFramework::start_with(tight, OffloadPolicy::DataIntensiveToSd, resilience)?;
        let text = TextGen::with_seed(self.seed.wrapping_add(1)).generate(900_000);
        fw.stage_data_local("big.txt", &text)?;
        let wrong = match fw.wordcount("big.txt", None) {
            Ok((pairs, _)) => pairs != seq::wordcount(&text),
            Err(_) => false,
        };
        let daemon = fw.sd_node().daemon_stats();
        let stats = fw.resilience_stats();
        fw.stop();
        let mut obs = ChaosObservation::clean();
        obs.outputs_correct = !wrong;
        obs.conservation = vec![
            Self::daemon_conservation(&daemon),
            Self::resilience_conservation(&stats),
            // Re-partitioning is a host-side admission decision taken
            // before any fault-reachable dispatch, so it happens in every
            // run, injected or not.
            ConservationCheck::ge(
                "over-budget job re-partitioned at least once",
                stats.overload.repartitions,
                1,
            ),
        ];
        Ok(obs)
    }
}

impl mcsd_core::ChaosScenario for FourPhaseScenario {
    fn name(&self) -> &str {
        "four-phase"
    }

    fn segment_names(&self) -> Vec<String> {
        ["saturation", "breaker", "retry", "admission"]
            .into_iter()
            .map(String::from)
            .collect()
    }

    fn baked_plan(&self, segment: usize) -> mcsd_core::FaultPlan {
        use mcsd_core::{FaultAction, FaultPlan, FaultSite};
        match segment {
            1 => FaultPlan::none()
                .with(FaultSite::Dispatch, 0, FaultAction::Fail)
                .with(FaultSite::Dispatch, 1, FaultAction::Fail),
            2 => FaultPlan::none().with(
                FaultSite::HostAppend,
                0,
                FaultAction::Torn { keep_sixteenths: 8 },
            ),
            _ => FaultPlan::none(),
        }
    }

    // One representative action per corruption family keeps the sweep
    // inside the CI budget; crash coverage at dispatch stays complete.
    fn actions(&self, site: mcsd_core::FaultSite) -> Vec<mcsd_core::FaultAction> {
        use mcsd_core::{FaultAction, FaultSite};
        match site {
            FaultSite::HostAppend => vec![FaultAction::Torn { keep_sixteenths: 8 }],
            FaultSite::SdAppend => vec![FaultAction::Corrupt { xor_mask: 0x20 }],
            FaultSite::Dispatch => vec![
                FaultAction::CrashBefore,
                FaultAction::CrashAfter,
                FaultAction::Fail,
            ],
            other => mcsd_core::chaos::default_actions(other),
        }
    }

    fn run_segment(
        &self,
        segment: usize,
        injector: &mcsd_core::FaultInjector,
    ) -> Result<mcsd_core::ChaosObservation, mcsd_core::McsdError> {
        match segment {
            0 => self.saturation(injector),
            1 => self.breaker(injector),
            2 => self.retry(injector),
            _ => self.admission(injector),
        }
    }
}

/// The §16 chaos sweep: enumerate every counter-deterministic fault
/// point the replication-rounds and four-phase scenarios cross, inject
/// every applicable action at each, audit the invariant catalog, and
/// write both reports to `chaos-<seed>.json`. Exits non-zero on any
/// invariant violation; two consecutive runs produce byte-identical
/// reports, which CI asserts with a plain `diff`.
fn chaos_run(seed: u64) {
    use mcsd_core::chaos::{self, BatchedEchoScenario, ReplicationRoundsScenario};
    use mcsd_obs::Tracer;

    let tracer = Tracer::disabled();
    let dir = std::env::temp_dir().join(format!("mcsd-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("chaos scratch dir");
    let replication = chaos::run_sweep(&ReplicationRoundsScenario::new(seed, &dir), seed, &tracer)
        .expect("replication sweep");
    println!("{}", replication.render_table());
    let four =
        chaos::run_sweep(&FourPhaseScenario { seed }, seed, &tracer).expect("four-phase sweep");
    println!("{}", four.render_table());
    let batched = chaos::run_sweep(&BatchedEchoScenario::new(seed, &dir), seed, &tracer)
        .expect("batched sweep");
    let _ = std::fs::remove_dir_all(&dir);
    println!("{}", batched.render_table());

    let path = format!("chaos-{seed}.json");
    let body = format!(
        "[\n{},\n{},\n{}\n]\n",
        replication.to_json(),
        four.to_json(),
        batched.to_json()
    );
    std::fs::write(&path, body).expect("write chaos report");
    println!("wrote {path}");

    let violations =
        replication.violations.len() + four.violations.len() + batched.violations.len();
    if violations > 0 {
        eprintln!("chaos: {violations} invariant violation(s)");
        std::process::exit(1);
    }
    println!();
}

/// Deterministic batched-dispatch walkthrough (DESIGN.md §18): twelve
/// echo requests are pre-staged into the module log *before* the daemon
/// starts, so the replay scan queues them all and the multi-worker
/// batched executor forms exactly three four-request batches — batch
/// formation, worker assignment, completion order, and the coalesced
/// commits are all a pure function of the request sequence and the
/// `BatchConfig` seed. The `sd.*` timeline and the `batch.*` counters
/// are exported to `batched-<seed>.jsonl`; same seed, same bytes, which
/// CI asserts with a plain `diff` of two release-mode runs.
fn batched_run(seed: u64) {
    use mcsd_obs::export::{jsonl_with, JsonlOptions};
    use mcsd_obs::{MetricsRegistry, Tracer};
    use mcsd_smartfam::module::FnModule;
    use mcsd_smartfam::{BatchConfig, Daemon, DaemonConfig, HostClient, ModuleRegistry};
    use std::sync::Arc;
    use std::time::Duration;

    const REQUESTS: usize = 12;
    let dir = std::env::temp_dir().join(format!("mcsd-batched-{}-{seed}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("log dir");
    let registry = ModuleRegistry::new();
    registry.register(Arc::new(FnModule::new("echo", |p: &[String]| {
        Ok(p.join("|").into_bytes())
    })));
    let client = HostClient::new(&dir);
    let pendings: Vec<_> = (0..REQUESTS)
        .map(|i| {
            client
                .submit("echo", &[format!("r{i}-{seed}")])
                .expect("submit request")
        })
        .collect();
    let tracer = Tracer::enabled();
    let config = DaemonConfig::new(&dir)
        .with_tracer(tracer.clone())
        .with_batching(BatchConfig {
            workers: 4,
            max_batch: 4,
            seed,
        });
    let mut daemon = Daemon::new(config, registry).spawn().expect("daemon spawn");
    for (i, pending) in pendings.into_iter().enumerate() {
        let out = pending.wait(Duration::from_secs(60)).expect("response");
        assert_eq!(
            out.payload,
            format!("r{i}-{seed}").into_bytes(),
            "batched response diverged"
        );
    }
    daemon.stop();
    let batch = daemon.batch_stats();
    let stats = daemon.stats();
    println!(
        "{REQUESTS} pre-staged echo calls through the batched executor: ok={}; {batch}",
        stats.ok
    );

    let metrics = MetricsRegistry::new();
    stats.publish(&metrics).expect("publish daemon counters");
    batch.publish(&metrics).expect("publish batch counters");
    let jsonl = jsonl_with(
        &tracer,
        JsonlOptions {
            include_volatile: false,
            metrics: Some(&metrics),
        },
    );
    let path = format!("batched-{seed}.jsonl");
    std::fs::write(&path, &jsonl).expect("write batched trace");
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "wrote {path} ({} lines) — same seed, same bytes",
        jsonl.lines().count()
    );
    println!();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Vec<String> = Vec::new();
    let mut cfg = ExperimentConfig::default_run();
    let mut csv = false;
    let mut seed: u64 = 42;
    let mut racks: u32 = 8;
    let mut rack_jobs: u64 = 1200;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => cfg = ExperimentConfig::quick(),
            "--csv" => csv = true,
            "--scale" => {
                i += 1;
                let divisor = args
                    .get(i)
                    .and_then(|s| s.parse::<u64>().ok())
                    .unwrap_or_else(|| usage());
                cfg.scale = Scale {
                    divisor: divisor.max(1),
                };
            }
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse::<u64>().ok())
                    .unwrap_or_else(|| usage());
            }
            "--racks" => {
                i += 1;
                racks = args
                    .get(i)
                    .and_then(|s| s.parse::<u32>().ok())
                    .unwrap_or_else(|| usage());
            }
            "--jobs" => {
                i += 1;
                rack_jobs = args
                    .get(i)
                    .and_then(|s| s.parse::<u64>().ok())
                    .unwrap_or_else(|| usage());
            }
            flag if flag.starts_with('-') => usage(),
            name => which.push(name.to_string()),
        }
        i += 1;
    }
    if which.is_empty() {
        which.push("all".to_string());
    }
    let all = which.iter().any(|w| w == "all");
    let want = |name: &str| all || which.iter().any(|w| w == name);
    let show = |t: &TextTable| if csv { t.render_csv() } else { t.render() };

    println!("# McSD experiment harness");
    println!(
        "# scale: 1/{} (paper bytes per experiment byte); build: {}",
        cfg.scale.divisor,
        if cfg!(debug_assertions) {
            "DEBUG (numbers distorted; use --release)"
        } else {
            "release"
        }
    );
    println!();

    if want("table1") {
        println!("## Table I — testbed configuration\n");
        println!("{}", paper_testbed(cfg.scale).table1());
    }
    if want("fig8a") {
        println!("## Fig. 8(a) — single-application speedups (partition-enabled vs original vs sequential)\n");
        let rows = fig8::fig8a(&cfg).expect("fig8a sweep");
        println!("{}", show(&fig8::fig8a_table(&rows)));
    }
    if want("fig8b") {
        println!("## Fig. 8(b) — Word Count growth curve (elapsed vs size)\n");
        let points = fig8::fig8_growth(&cfg, fig8::AppKind::WordCount).expect("fig8b sweep");
        println!(
            "{}",
            show(&fig8::growth_table(fig8::AppKind::WordCount, &points))
        );
    }
    if want("fig8c") {
        println!("## Fig. 8(c) — String Match growth curve (elapsed vs size)\n");
        let points = fig8::fig8_growth(&cfg, fig8::AppKind::StringMatch).expect("fig8c sweep");
        println!(
            "{}",
            show(&fig8::growth_table(fig8::AppKind::StringMatch, &points))
        );
    }
    if want("fig9") {
        println!("## Fig. 9 — MM/WC pair: speedup of McSD over each scenario\n");
        let results = pairs::run_pair_figure(&cfg, pairs::PairKind::MmWc).expect("fig9 runs");
        println!(
            "{}",
            show(&pairs::pair_table(pairs::PairKind::MmWc, &results))
        );
    }
    if want("fig10") {
        println!("## Fig. 10 — MM/SM pair: speedup of McSD over each scenario\n");
        let results = pairs::run_pair_figure(&cfg, pairs::PairKind::MmSm).expect("fig10 runs");
        println!(
            "{}",
            show(&pairs::pair_table(pairs::PairKind::MmSm, &results))
        );
    }
    if want("smb") {
        println!("## SMB — modelled routine-work traffic (§V-A)\n");
        let smb = SandiaMicroBenchmark::new(paper_testbed(cfg.scale).network);
        for (name, pattern) in [
            (
                "pingpong 1KB x100",
                SmbPattern::PingPong {
                    message_bytes: 1024,
                    rounds: 100,
                },
            ),
            (
                "pingpong 1MB x10",
                SmbPattern::PingPong {
                    message_bytes: 1 << 20,
                    rounds: 10,
                },
            ),
            (
                "allreduce 4 nodes 64KB x10",
                SmbPattern::AllReduce {
                    participants: 4,
                    message_bytes: 64 << 10,
                    rounds: 10,
                },
            ),
            (
                "broadcast 4 nodes 1MB x5",
                SmbPattern::Broadcast {
                    participants: 4,
                    message_bytes: 1 << 20,
                    rounds: 5,
                },
            ),
        ] {
            let r = smb.run(pattern);
            println!(
                "{name:<28} elapsed={:>12?}  goodput={:>8.1} MB/s",
                r.elapsed,
                r.goodput_bytes_per_sec / 1e6
            );
        }
        println!();
    }
    if want("ablations") {
        println!("## Ablation: partition size (WC @ 1G, duo SD)\n");
        println!(
            "{}",
            show(&ablation::partition_size_table(
                &ablation::partition_size_sweep(&cfg).expect("partition sweep")
            ))
        );
        println!("## Ablation: SD core count (WC @ 1G, partitioned)\n");
        println!(
            "{}",
            show(&ablation::worker_table(
                &ablation::worker_sweep(&cfg).expect("worker sweep")
            ))
        );
        println!("## Ablation: interconnect fabric (cost of moving a 1G input)\n");
        println!(
            "{}",
            show(&ablation::network_table(
                &ablation::network_sweep(&cfg).expect("network sweep")
            ))
        );
        println!("## Ablation: multi-SD scale-out (WC @ 2G, §VI future work)\n");
        println!(
            "{}",
            show(&ablation::multisd_table(
                &ablation::multisd_sweep(&cfg).expect("multi-SD sweep")
            ))
        );
        println!("## Ablation: integrity check (Fig. 7)\n");
        let (correct, broken, differing) =
            ablation::integrity_ablation(&cfg).expect("integrity ablation");
        println!(
            "with integrity check: {correct} distinct words (correct)\n\
             without (raw byte cuts): {broken} distinct words, {differing} words with corrupted counts\n"
        );
    }
    // Deliberately excluded from `all`: fault seeds stall the real clock
    // (crash detection, heartbeat probes) and would slow the figure run.
    if which.iter().any(|w| w == "faults") {
        println!("## Fault matrix — seeded injection through the live SD path\n");
        fault_sweep(&[0, 3, 12, 17]);
    }
    // Same exclusion from `all`: breaker cooldowns and live daemons make
    // this a demo, not a figure.
    if which.iter().any(|w| w == "overload") {
        println!("## Overload protection — breaker steering and memory admission\n");
        overload_demo();
    }
    // Excluded from `all`: writes trace files into the working directory.
    if which.iter().any(|w| w == "trace") {
        println!("## Deterministic trace — four-phase observability walkthrough (seed {seed})\n");
        trace_run(seed);
    }
    // Excluded from `all`: live log groups and seeded crashes make this
    // a §15 resilience demo, not a figure.
    if which.iter().any(|w| w == "failover") {
        println!("## Failover — replicated log groups, promotion, re-protection (seed {seed})\n");
        failover_demo(seed);
    }
    // Excluded from `all`: an exhaustive robustness audit (tens of
    // injected re-runs), not a figure. Exits non-zero on violations.
    if which.iter().any(|w| w == "chaos") {
        println!("## Chaos sweep — exhaustive fault-space exploration (seed {seed})\n");
        chaos_run(seed);
    }
    // Excluded from `all`: writes a trace file into the working
    // directory, and its scale is driven by --racks/--jobs, not --scale.
    if which.iter().any(|w| w == "rack") {
        println!("## Rack scale — discrete-event scheduler, DESIGN.md section 17 (seed {seed})\n");
        rack_run(racks, rack_jobs, seed);
    }
    // Excluded from `all`: writes a trace file into the working
    // directory; the §18 determinism demo, not a figure.
    if which.iter().any(|w| w == "batched") {
        println!("## Batched dispatch — coalesced commits and the multi-worker pool, DESIGN.md section 18 (seed {seed})\n");
        batched_run(seed);
    }
}
