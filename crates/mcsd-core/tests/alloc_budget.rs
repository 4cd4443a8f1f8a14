//! What the SD side allocates, counted by this binary's own allocator so
//! an allocation that creeps back in fails here and not only on the
//! benchmark box. A `harness = false` binary: `main` takes the readings in
//! order and prints one `name value` line per reading; a failed gate
//! names its reading and exits non-zero.
//!
//! * The discrete-event loop (DESIGN.md §17): with a disabled tracer a run
//!   allocates for its set-up — the node list, the id lists, the job,
//!   placement and arrival-order vectors, the stable arrival sort's
//!   scratch, the shard queues' two vectors, the uplink clocks and the
//!   completion heap — and nothing per job, per node or per queued job.
//!   The count is one constant for every seed, job count (past the few
//!   hundred whose sort scratch fits on the stack), rack shape and queue
//!   depth.
//! * The Word Count module (DESIGN.md §19): the words stay in the Merge
//!   function's arena from the first fragment to the payload, so a job
//!   allocates for its tables, runs and buffers and for no word — far
//!   fewer times than there are distinct words.

#[path = "../../smartfam/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::counted;
use mcsd_apps::{seq, TextGen};
use mcsd_cluster::{NodeId, NodeSpec, RackSpec, Scale};
use mcsd_core::des::{self, DesConfig};
use mcsd_core::modules::WordCountModule;
use mcsd_obs::Tracer;
use mcsd_smartfam::ProcessingModule;

fn main() {
    des_run_allocates_a_constant_for_set_up();
    wordcount_module_allocates_for_no_word();
}

fn des_run_allocates_a_constant_for_set_up() {
    let default = RackSpec::default_experiment();
    let (topo, built) = counted(|| default.build(Scale::default_experiment()));
    assert_eq!(topo.cluster.nodes.len(), 104);
    println!("rack_build {built}");
    assert_eq!(built, 1, "rack_build: building the 104-node rack");

    let pair = RackSpec {
        racks: 1,
        hosts_per_rack: 1,
        sds_per_rack: 1,
        uplink_oversubscription: 4,
    };
    let mut counts = Vec::new();
    for jobs in [10_000, 20_000] {
        for seed in [17, 42] {
            for spec in [pair, default] {
                for queue_depth in [1, 64] {
                    // The `rack_des` benchmark's load: one arrival per 15
                    // virtual ms, which the default rack absorbs.
                    let cfg = DesConfig {
                        spec,
                        queue_depth,
                        arrival_spread_us: 15_000 * jobs,
                        ..DesConfig::default_experiment(jobs, seed)
                    };
                    let (run, count) = counted(|| des::run(&cfg, &Tracer::disabled()));
                    assert!(run.report.stats.is_conserved());
                    assert_eq!(run.report.stats.arrivals, jobs);
                    counts.push(count);
                }
            }
        }
    }
    let run = counts[0];
    println!("des_run {run}");
    assert!(
        counts.iter().all(|&count| count == run),
        "des_run: allocations per run vary: {counts:?}"
    );
    assert!(run <= 12, "des_run: {run} allocations per run");
}

fn wordcount_module_allocates_for_no_word() {
    let root = std::env::temp_dir().join(format!("mcsd-alloc-wc-{}", std::process::id()));
    std::fs::create_dir_all(&root).unwrap();
    let text = TextGen::with_seed(16).generate(1 << 20);
    std::fs::write(root.join("f"), &text).unwrap();
    let expect = WordCountModule::encode(&seq::wordcount(&text));
    let distinct_words = seq::wordcount(&text).len() as u64;
    // A paper SD node: two workers whatever the machine's core count.
    let module = WordCountModule::new(&root, NodeSpec::paper_sd(NodeId(1), 64 << 20));
    let params = ["f".to_string(), "256K".to_string()];

    let (payload, count) = counted(|| module.invoke(&params));
    std::fs::remove_dir_all(&root).unwrap();
    assert_eq!(payload.unwrap(), expect);
    println!("wc_module_invoke {count}");
    // A word owned once per job, on the SD, costs one allocation per
    // distinct word: eight times this budget.
    assert!(
        count < distinct_words / 8,
        "wc_module_invoke: {count} allocations for {distinct_words} distinct words"
    );
    // And within 16 of the 508 the module read while the runtime still
    // grouped by sorting keys: the tables' growth moves a few with the
    // process's hash keys, but a partition copied or rehashed in reduce,
    // or a Merge index grown key by key, costs more than that.
    let ceiling = 16 + 508;
    assert!(
        count <= ceiling,
        "wc_module_invoke: {count} allocations, over {ceiling}"
    );
}
