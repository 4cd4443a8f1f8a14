//! `mcsd-experiments` — regenerate every table and figure of the McSD
//! paper's evaluation (§V), plus the DESIGN.md ablations and the
//! operational walkthroughs (overload, traces, failover, chaos, rack scale).
//!
//! ```text
//! mcsd-experiments [all|table1|fig8a|fig8b|fig8c|fig9|fig10|smb|ablations|overload|trace|failover|chaos|rack|batched]
//!                  [--scale N] [--seed N] [--racks N] [--jobs N] [--quick] [--csv]
//! mcsd-experiments trace-diff <A> <B>
//! ```
//!
//! `trace-diff` is the one command that takes file arguments: `main`
//! dispatches it first, and alone. Every other run is named from
//! `SUBCOMMANDS`, the one list of names: `usage()` prints it, `main`
//! checks every positional argument against it and runs from it, and the
//! list says what each subcommand runs and why it is or is not part of
//! `all` (the default). This file is the command line, the printing and
//! the file writing; what the subcommands run lives in the libraries
//! (`mcsd_bench`, `mcsd_core`).
//!
//! Run in release mode: debug builds inflate per-byte compute cost ~25x
//! and distort the compute/IO balance the figures depend on.

use mcsd_bench::demos::{self, Demo};
use mcsd_bench::table::TextTable;
use mcsd_bench::{ablation, fig8, pairs, ExperimentConfig};
use mcsd_cluster::{paper_testbed, SandiaMicroBenchmark, Scale, SmbPattern};
use mcsd_core::McsdError;

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
const SUBCOMMANDS: [Subcommand; 14] = [
    figure("table1", table1),
    figure("fig8a", fig8a),
    figure("fig8b", fig8b),
    figure("fig8c", fig8c),
    figure("fig9", fig9),
    figure("fig10", fig10),
    figure("smb", smb),
    figure("ablations", ablations),
    // The walkthroughs, each a `mcsd_bench::demos` run whose doc says
    // what it does. Live daemons, breaker cooldowns and files written into
    // the working directory keep them out of `all`; `tests/golden.rs` pins
    // every file they write.
    demo("overload", |o| emit(demos::overload(o.seed))),
    demo("trace", |o| emit(demos::trace(o.seed))),
    demo("failover", |o| emit(demos::failover(o.seed))),
    demo("chaos", |o| emit(demos::chaos(o.seed))),
    demo("rack", |o| emit(Ok(demos::rack(o.seed, o.racks, o.jobs)))),
    demo("batched", |o| emit(demos::batched(o.seed))),
];

fn usage() -> ! {
    let names: Vec<&str> = SUBCOMMANDS.iter().map(|s| s.name).collect();
    eprintln!(
        "usage: mcsd-experiments [all|{}] \
         [--scale N] [--seed N] [--racks N] [--jobs N] [--quick] [--csv]\n       \
         mcsd-experiments trace-diff <A> <B>",
        names.join("|")
    );
    std::process::exit(2);
}

/// `trace-diff <A> <B>`: compare two exports line by line and name the
/// first line that differs — for a JSON-lines record, its `track`, `at`
/// and `name` — with the three lines before it and both versions of it.
/// Exits 0 when the files are identical, 1 when they differ, and 2 on a
/// usage or I/O error.
fn trace_diff(args: &[String]) -> i32 {
    let [a, b] = args else {
        eprintln!("usage: mcsd-experiments trace-diff <A> <B>");
        return 2;
    };
    let read =
        |path: &String| std::fs::read_to_string(path).map_err(|e| eprintln!("error: {path}: {e}"));
    let (Ok(left), Ok(right)) = (read(a), read(b)) else {
        return 2;
    };
    // Each line keeps its terminator, so line endings compare too.
    let left: Vec<&str> = left.split_inclusive('\n').collect();
    let right: Vec<&str> = right.split_inclusive('\n').collect();
    let Some(k) = (0..left.len().max(right.len())).find(|&i| left.get(i) != right.get(i)) else {
        println!("{a} and {b} are identical");
        return 0;
    };
    println!("first difference at line {}", k + 1);
    let record = left.get(k).or(right.get(k)).copied().unwrap_or_default();
    let fields: Vec<String> = ["track", "at", "name"]
        .into_iter()
        .filter_map(|key| Some(format!("{key} {}", json_field(record, key)?)))
        .collect();
    if !fields.is_empty() {
        println!("record: {}", fields.join(", "));
    }
    for (i, line) in left.iter().enumerate().take(k).skip(k.saturating_sub(3)) {
        println!("  {:>5}  {}", i + 1, line.trim_end_matches('\n'));
    }
    for (path, lines) in [(a, &left), (b, &right)] {
        let line = lines
            .get(k)
            .map_or("(none: the file ends here)", |l| l.trim_end_matches('\n'));
        println!("{path}:{}: {line}", k + 1);
    }
    1
}

/// The value of the first `"key":` in a one-line JSON record, unquoted.
fn json_field<'a>(record: &'a str, key: &str) -> Option<&'a str> {
    let rest = &record[record.find(&format!("\"{key}\":"))? + key.len() + 3..];
    match rest.strip_prefix('"') {
        Some(text) => text.split('"').next(),
        None => rest.split([',', '}']).next(),
    }
}

/// The `N` of a `--flag N` pair; a missing or unparsable one is a usage
/// error.
fn flag_value<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>) -> T {
    args.next()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage())
}

/// Print `demo`'s report, write its files into the working directory, and
/// exit non-zero on an error or on any violation the run saw.
fn emit(demo: Result<Demo, McsdError>) {
    let demo = demo.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    print!("{}", demo.text);
    for (name, contents) in &demo.files {
        std::fs::write(name, contents).expect("write export");
        println!(
            "wrote {name} ({} lines) — same seed, same bytes",
            contents.lines().count()
        );
    }
    if demo.violations > 0 {
        eprintln!("{} invariant violation(s)", demo.violations);
        std::process::exit(1);
    }
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
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|a| a == "trace-diff") {
        std::process::exit(trace_diff(&argv[1..]));
    }
    let mut opts = Options {
        cfg: ExperimentConfig::default_run(),
        csv: false,
        seed: 42,
        racks: 8,
        jobs: 1200,
    };
    let mut which: Vec<String> = Vec::new();
    let mut args = argv.into_iter();
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
