//! `mcsd-experiments` — regenerate every table and figure of the McSD
//! paper's evaluation (§V), plus the DESIGN.md ablations and the
//! operational walkthroughs (faults, overload, traces, chaos, rack scale).
//!
//! ```text
//! mcsd-experiments [all|table1|fig8a|fig8b|fig8c|fig9|fig10|smb|ablations|faults|overload|trace|failover|chaos|rack|batched]
//!                  [--scale N] [--seed N] [--racks N] [--jobs N] [--quick] [--csv]
//! ```
//!
//! `SUBCOMMANDS` is the one list of names: `usage()` prints it, `main`
//! checks every positional argument against it and runs from it, and each
//! row says what its subcommand does and why it is or is not part of `all`
//! (the default). This file is the command line and the printing; what the
//! subcommands run lives in the libraries (`mcsd_bench`, `mcsd_core`).
//!
//! Run in release mode: debug builds inflate per-byte compute cost ~25x
//! and distort the compute/IO balance the figures depend on.

use mcsd_bench::four_phase::{FourPhaseScenario, PhaseRun};
use mcsd_bench::table::TextTable;
use mcsd_bench::{ablation, fig8, pairs, ExperimentConfig};
use mcsd_cluster::{paper_testbed, Cluster, SandiaMicroBenchmark, Scale, SmbPattern};
use mcsd_obs::{CounterFamily, MetricSample, Tracer};
use std::time::Duration;

/// What the command line selected besides the subcommand names.
struct Options {
    cfg: ExperimentConfig,
    csv: bool,
    seed: u64,
    racks: u32,
    jobs: u64,
}

impl Options {
    fn show(&self, t: &TextTable) -> String {
        if self.csv {
            t.render_csv()
        } else {
            t.render()
        }
    }
}

struct Subcommand {
    name: &'static str,
    /// Whether `all` runs it: the paper's tables and figures, nothing that
    /// stalls the real clock or writes files into the working directory.
    in_all: bool,
    run: fn(&Options),
}

const fn figure(name: &'static str, run: fn(&Options)) -> Subcommand {
    Subcommand {
        name,
        in_all: true,
        run,
    }
}

const fn demo(name: &'static str, run: fn(&Options)) -> Subcommand {
    Subcommand {
        name,
        in_all: false,
        run,
    }
}

/// Every subcommand, in the order a multi-name invocation runs them.
const SUBCOMMANDS: [Subcommand; 15] = [
    figure("table1", table1),
    figure("fig8a", fig8a),
    figure("fig8b", fig8b),
    figure("fig8c", fig8c),
    figure("fig9", fig9),
    figure("fig10", fig10),
    figure("smb", smb),
    figure("ablations", ablations),
    // Seeded fault schedules through the live SD path, printing the
    // recovery counters — the interactive counterpart of
    // `crates/mcsd-core/tests/faults.rs`. Fault seeds stall the real clock
    // (crash detection, heartbeat probes) and would slow the figure run.
    demo("faults", fault_sweep),
    // The breaker and memory-admission phases of the four-phase scenario
    // (`mcsd_bench::four_phase`, seeded by `--seed`): decision log,
    // degradations and the `OverloadStats` counters — the interactive
    // counterpart of `crates/mcsd-core/tests/overload.rs`. Breaker
    // cooldowns and live daemons make it a demo, not a figure.
    demo("overload", overload_run),
    // All four phases with the DESIGN.md §12 virtual-clock tracer on,
    // exported to `trace-<seed>.jsonl` + `trace-<seed>.chrome.json`. Same
    // seed, same bytes, which CI asserts with a plain `diff`.
    demo("trace", trace_run),
    // The DESIGN.md §15 replication story on a live three-node group —
    // the interactive counterpart of
    // `crates/mcsd-core/tests/replication.rs`; writes
    // `failover-<seed>.jsonl`, diffed by CI.
    demo("failover", failover_demo),
    // The DESIGN.md §16 fault-space sweep over the replication-rounds,
    // four-phase and batched-echo scenarios: tens of injected re-runs, an
    // audit rather than a figure. Writes `chaos-<seed>.json` (diffed by
    // CI) and exits non-zero on any invariant violation.
    demo("chaos", chaos_run),
    // The DESIGN.md §17 discrete-event scheduler at `--racks`/`--jobs`
    // (not `--scale`); writes `rack-<seed>.jsonl`, diffed by CI.
    demo("rack", rack_run),
    // The DESIGN.md §18 batched executor over twelve pre-staged requests;
    // writes `batched-<seed>.jsonl`, diffed by CI.
    demo("batched", batched_run),
];

fn usage() -> ! {
    let names: Vec<&str> = SUBCOMMANDS.iter().map(|s| s.name).collect();
    eprintln!(
        "usage: mcsd-experiments [all|{}] \
         [--scale N] [--seed N] [--racks N] [--jobs N] [--quick] [--csv]",
        names.join("|")
    );
    std::process::exit(2);
}

/// The `N` of a `--flag N` pair; a missing or unparsable one is a usage
/// error.
fn flag_value<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>) -> T {
    args.next()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage())
}

/// `cluster` with 256 MiB on every node, so memory admission stays out of
/// a walkthrough that is about something else.
fn roomy(mut cluster: Cluster) -> Cluster {
    for n in &mut cluster.nodes {
        n.memory_bytes = 256 << 20;
    }
    cluster
}

/// Export `tracer`'s deterministic timeline (volatile records dropped)
/// followed by the `counters` rows to `<stem>-<seed>.jsonl` in the working
/// directory.
fn export_trace(stem: &str, seed: u64, tracer: &Tracer, counters: &[MetricSample]) {
    use mcsd_obs::export::{jsonl_with, JsonlOptions};

    let jsonl = jsonl_with(
        tracer,
        JsonlOptions {
            include_volatile: false,
            metrics: counters,
        },
    );
    let path = format!("{stem}-{seed}.jsonl");
    std::fs::write(&path, &jsonl).expect("write trace export");
    println!(
        "wrote {path} ({} lines) — same seed, same bytes",
        jsonl.lines().count()
    );
}

/// Seeded fault sweep through the live framework: one Word Count offload
/// per seed, with the seed's fault schedule disturbing the daemon, the
/// log files, or the heartbeat. Prints the plan, the outcome, and the
/// exact `ResilienceStats` the run produced (replaying a seed reproduces
/// the same counters).
fn fault_sweep(_: &Options) {
    use mcsd_apps::{seq, TextGen};
    use mcsd_core::{FaultInjector, FaultPlan, McsdFramework, OffloadPolicy, ResilienceConfig};

    println!("## Fault matrix — seeded injection through the live SD path\n");
    for seed in [0, 3, 12, 17] {
        let plan = FaultPlan::from_seed(seed);
        let mut resilience = ResilienceConfig {
            injector: FaultInjector::from_seed(seed),
            ..ResilienceConfig::default()
        };
        resilience.retry.heartbeat_max_age = Duration::from_millis(800);
        resilience.call_timeout = Duration::from_secs(6);

        let cluster = roomy(paper_testbed(Scale::default_experiment()));
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

/// Per-call wait budget of a four-phase run that must complete (`trace`,
/// `overload`); the sweep in `chaos_run` uses a much shorter one.
const CLEAN_WAIT: Duration = Duration::from_secs(60);

/// Run one phase under its baked plan alone and print what it did. There
/// is no injected fault to excuse anything, so an observation that is not
/// clean is a hard failure.
fn clean_phase(scenario: &FourPhaseScenario, segment: usize) -> PhaseRun {
    use mcsd_core::{chaos, ChaosScenario, FaultInjector};

    let letter = char::from(b'A' + segment as u8);
    println!(
        "### Phase {letter} — {}\n",
        scenario.segment_names()[segment]
    );
    let injector = FaultInjector::new(scenario.baked_plan(segment));
    let run = scenario
        .run_phase(segment, &injector)
        .expect("phase set-up");
    let violations = chaos::evaluate(&run.observation);
    assert!(violations.is_empty(), "clean phase violated {violations:?}");
    for (job, decision) in &run.decisions {
        println!("{job}: {decision:?}");
    }
    for d in &run.degradations {
        println!("degraded: {d}");
    }
    println!(
        "daemon: requests={} ok={} shed={} expired={}",
        run.daemon.requests, run.daemon.ok, run.daemon.shed, run.daemon.expired
    );
    println!("host: {}\n", run.resilience);
    run
}

fn overload_run(o: &Options) {
    let seed = o.seed;
    println!("## Overload protection — breaker steering and memory admission (seed {seed})\n");
    let scenario = FourPhaseScenario::new(seed, Tracer::disabled(), CLEAN_WAIT);
    clean_phase(&scenario, 1);
    clean_phase(&scenario, 3);
}

/// Deterministic observability walkthrough (DESIGN.md §12): one shared
/// virtual-clock tracer follows the four seeded phases, then the whole
/// run is exported as JSON-lines and Chrome `trace_event` files.
fn trace_run(o: &Options) {
    use mcsd_core::ChaosScenario;

    let seed = o.seed;
    println!("## Deterministic trace — four-phase observability walkthrough (seed {seed})\n");
    let tracer = Tracer::enabled();
    let scenario = FourPhaseScenario::new(seed, tracer.clone(), CLEAN_WAIT);
    let mut daemon = mcsd_smartfam::DaemonStats::default();
    let mut resilience = mcsd_core::ResilienceStats::default();
    for segment in 0..scenario.segment_names().len() {
        let run = clean_phase(&scenario, segment);
        daemon.absorb(&run.daemon);
        resilience.absorb(&run.resilience);
    }

    let counters = [daemon.samples(), resilience.samples()].concat();
    export_trace("trace", seed, &tracer, &counters);
    let chrome_path = format!("trace-{seed}.chrome.json");
    std::fs::write(&chrome_path, mcsd_obs::export::chrome(&tracer)).expect("write chrome trace");
    println!("wrote {chrome_path}\n");
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
/// exported to `failover-<seed>.jsonl`.
fn failover_demo(o: &Options) {
    use mcsd_apps::{seq, TextGen, WordCount};
    use mcsd_cluster::multi_sd_testbed;
    use mcsd_core::{
        ExecMode, FaultAction, FaultInjector, FaultPlan, FaultSite, MultiSdRunner, ReplicationSetup,
    };

    let seed = o.seed;
    println!("## Failover — replicated log groups, promotion, re-protection (seed {seed})\n");
    let runner = || {
        MultiSdRunner::new(roomy(multi_sd_testbed(Scale::default_experiment(), 3)))
            .expect("runner boot")
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
    export_trace("failover", seed, &tracer, &out.replication.samples());

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

/// Rack-scale run (DESIGN.md §17): `--racks` racks of (4 hosts + 9 SDs)
/// behind 4:1-oversubscribed top-of-rack uplinks, `--jobs` seeded
/// concurrent jobs through the deterministic discrete-event loop. The
/// arrival/dispatch/completion/shed timeline (§12 `des` track) and the
/// `mcsd.des` counters are exported to `rack-<seed>.jsonl`.
fn rack_run(o: &Options) {
    use mcsd_core::des::{self, DesConfig};
    use std::time::Instant;

    let seed = o.seed;
    println!("## Rack scale — discrete-event scheduler, DESIGN.md section 17 (seed {seed})\n");
    let mut cfg = DesConfig::default_experiment(o.jobs, seed);
    cfg.spec.racks = o.racks.max(1);
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
    println!("{}", run.report);
    assert!(
        run.report.stats.is_conserved(),
        "DES run must conserve jobs (arrivals == completed + shed)"
    );
    println!(
        "wall-clock: {wall:.3}s ({:.0} completed jobs/sec)",
        run.report.stats.completed_jobs as f64 / wall
    );
    export_trace("rack", seed, &tracer, &run.report.stats.samples());
    println!();
}

/// The §16 chaos sweep: enumerate every counter-deterministic fault
/// point the three scenarios cross, inject every applicable action at
/// each, audit the invariant catalog, and write the reports to
/// `chaos-<seed>.json`.
fn chaos_run(o: &Options) {
    use mcsd_core::chaos::{self, BatchedEchoScenario, ReplicationRoundsScenario};
    use mcsd_core::ChaosScenario;

    let seed = o.seed;
    println!("## Chaos sweep — exhaustive fault-space exploration (seed {seed})\n");
    let dir = std::env::temp_dir().join(format!("mcsd-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("chaos scratch dir");
    // Per-call budget of the four-phase sweep: generous against CI
    // scheduling jitter on the clean path (which never waits anywhere near
    // this long), tight enough that injected daemon crashes cost seconds,
    // not minutes.
    let wait = Duration::from_secs(2);
    let scenarios: [&dyn ChaosScenario; 3] = [
        &ReplicationRoundsScenario::new(seed, &dir),
        &FourPhaseScenario::new(seed, Tracer::disabled(), wait),
        &BatchedEchoScenario::new(seed, &dir),
    ];
    let mut reports = Vec::new();
    let mut violations = 0;
    for scenario in scenarios {
        let report = chaos::run_sweep(scenario, seed, &Tracer::disabled()).expect("chaos sweep");
        println!("{}", report.render_table());
        violations += report.violations.len();
        reports.push(report.to_json());
    }
    let _ = std::fs::remove_dir_all(&dir);

    let path = format!("chaos-{seed}.json");
    std::fs::write(&path, format!("[\n{}\n]\n", reports.join(",\n"))).expect("write chaos report");
    println!("wrote {path}");
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
/// are exported to `batched-<seed>.jsonl`.
fn batched_run(o: &Options) {
    use mcsd_smartfam::module::FnModule;
    use mcsd_smartfam::{BatchConfig, Daemon, DaemonConfig, HostClient, ModuleRegistry};
    use std::sync::Arc;

    const REQUESTS: usize = 12;
    let seed = o.seed;
    println!("## Batched dispatch — coalesced commits and the multi-worker pool, DESIGN.md section 18 (seed {seed})\n");
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

    let counters = [stats.samples(), batch.samples()].concat();
    export_trace("batched", seed, &tracer, &counters);
    let _ = std::fs::remove_dir_all(&dir);
    println!();
}

fn table1(o: &Options) {
    println!("## Table I — testbed configuration\n");
    println!("{}", paper_testbed(o.cfg.scale).table1());
}

fn fig8a(o: &Options) {
    println!("## Fig. 8(a) — single-application speedups (partition-enabled vs original vs sequential)\n");
    let rows = fig8::fig8a(&o.cfg).expect("fig8a sweep");
    println!("{}", o.show(&fig8::fig8a_table(&rows)));
}

fn fig8_growth(o: &Options, app: fig8::AppKind) {
    let points = fig8::fig8_growth(&o.cfg, app).expect("fig8 growth sweep");
    println!("{}", o.show(&fig8::growth_table(app, &points)));
}

fn fig8b(o: &Options) {
    println!("## Fig. 8(b) — Word Count growth curve (elapsed vs size)\n");
    fig8_growth(o, fig8::AppKind::WordCount);
}

fn fig8c(o: &Options) {
    println!("## Fig. 8(c) — String Match growth curve (elapsed vs size)\n");
    fig8_growth(o, fig8::AppKind::StringMatch);
}

fn pair_figure(o: &Options, kind: pairs::PairKind) {
    let results = pairs::run_pair_figure(&o.cfg, kind).expect("pair figure runs");
    println!("{}", o.show(&pairs::pair_table(kind, &results)));
}

fn fig9(o: &Options) {
    println!("## Fig. 9 — MM/WC pair: speedup of McSD over each scenario\n");
    pair_figure(o, pairs::PairKind::MmWc);
}

fn fig10(o: &Options) {
    println!("## Fig. 10 — MM/SM pair: speedup of McSD over each scenario\n");
    pair_figure(o, pairs::PairKind::MmSm);
}

fn smb(o: &Options) {
    println!("## SMB — modelled routine-work traffic (§V-A)\n");
    let smb = SandiaMicroBenchmark::new(paper_testbed(o.cfg.scale).network);
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

fn ablations(o: &Options) {
    let cfg = &o.cfg;
    println!("## Ablation: partition size (WC @ 1G, duo SD)\n");
    println!(
        "{}",
        o.show(&ablation::partition_size_table(
            &ablation::partition_size_sweep(cfg).expect("partition sweep")
        ))
    );
    println!("## Ablation: SD core count (WC @ 1G, partitioned)\n");
    println!(
        "{}",
        o.show(&ablation::worker_table(
            &ablation::worker_sweep(cfg).expect("worker sweep")
        ))
    );
    println!("## Ablation: interconnect fabric (cost of moving a 1G input)\n");
    println!(
        "{}",
        o.show(&ablation::network_table(
            &ablation::network_sweep(cfg).expect("network sweep")
        ))
    );
    println!("## Ablation: multi-SD scale-out (WC @ 2G, §VI future work)\n");
    println!(
        "{}",
        o.show(&ablation::multisd_table(
            &ablation::multisd_sweep(cfg).expect("multi-SD sweep")
        ))
    );
    println!("## Ablation: integrity check (Fig. 7)\n");
    let (correct, broken, differing) =
        ablation::integrity_ablation(cfg).expect("integrity ablation");
    println!(
        "with integrity check: {correct} distinct words (correct)\n\
         without (raw byte cuts): {broken} distinct words, {differing} words with corrupted counts\n"
    );
}

fn main() {
    let mut opts = Options {
        cfg: ExperimentConfig::default_run(),
        csv: false,
        seed: 42,
        racks: 8,
        jobs: 1200,
    };
    let mut which: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.cfg = ExperimentConfig::quick(),
            "--csv" => opts.csv = true,
            "--scale" => {
                opts.cfg.scale = Scale {
                    divisor: flag_value::<u64>(&mut args).max(1),
                }
            }
            "--seed" => opts.seed = flag_value(&mut args),
            "--racks" => opts.racks = flag_value(&mut args),
            "--jobs" => opts.jobs = flag_value(&mut args),
            name if name == "all" || SUBCOMMANDS.iter().any(|s| s.name == name) => which.push(arg),
            // An unknown flag, or a name that would otherwise run nothing.
            _ => usage(),
        }
    }
    let all = which.is_empty() || which.iter().any(|w| w == "all");

    println!("# McSD experiment harness");
    println!(
        "# scale: 1/{} (paper bytes per experiment byte); build: {}",
        opts.cfg.scale.divisor,
        if cfg!(debug_assertions) {
            "DEBUG (numbers distorted; use --release)"
        } else {
            "release"
        }
    );
    println!();

    for sub in &SUBCOMMANDS {
        if (all && sub.in_all) || which.iter().any(|w| w == sub.name) {
            (sub.run)(&opts);
        }
    }
}
