//! What the SD side allocates, counted by this binary's own allocator so
//! an allocation that creeps back in fails here and not only on the
//! benchmark box. One test, so nothing else allocates while it counts; run
//! it with `--nocapture` to print one `name value` line per reading.
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

#![allow(unsafe_code)] // a counting `GlobalAlloc` cannot be written without it

use mcsd_apps::{seq, TextGen};
use mcsd_cluster::{NodeId, NodeSpec, RackSpec, Scale};
use mcsd_core::des::{self, DesConfig};
use mcsd_core::modules::WordCountModule;
use mcsd_obs::Tracer;
use mcsd_smartfam::ProcessingModule;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is one atomic add that neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What `f` allocates.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let out = f();
    (ALLOCATIONS.load(Ordering::SeqCst) - before, out)
}

#[test]
fn sd_side_work_allocates_within_budget() {
    des_run_allocates_a_constant_for_set_up();
    wordcount_module_allocates_for_no_word();
}

fn des_run_allocates_a_constant_for_set_up() {
    let default = RackSpec::default_experiment();
    let (built, topo) = allocations(|| default.build(Scale::default_experiment()));
    assert_eq!(topo.cluster.nodes.len(), 104);
    println!("rack_build {built}");
    assert_eq!(built, 1, "building the 104-node rack");

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
                    let (count, run) = allocations(|| des::run(&cfg, &Tracer::disabled()));
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
        "allocations per run vary: {counts:?}"
    );
    assert!(run <= 12, "{run} allocations per run");
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

    let (count, payload) = allocations(|| module.invoke(&params));
    std::fs::remove_dir_all(&root).unwrap();
    assert_eq!(payload.unwrap(), expect);
    println!("wc_module_invoke {count}");
    // A word owned once per job, on the SD, costs one allocation per
    // distinct word: eight times this budget.
    assert!(
        count < distinct_words / 8,
        "{count} allocations for {distinct_words} distinct words"
    );
    // And within 16 of what the module read while the runtime still grouped
    // by sorting keys: the tables' growth moves a few with the process's
    // hash keys, but a partition copied or rehashed in reduce, or a Merge
    // index grown key by key, costs more than that.
    let ceiling = unsorted_ceiling(508, 546);
    assert!(count <= ceiling, "{count} allocations, over {ceiling}");
}

/// 16 over a count pinned from the runtime that grouped by sorting keys:
/// `printed` as `--nocapture` prints it, or `captured` when libtest
/// captures output, which costs every thread the job spawns an allocation.
fn unsorted_ceiling(printed: u64, captured: u64) -> u64 {
    let nocapture = std::env::args().any(|arg| arg == "--nocapture")
        || std::env::var_os("RUST_TEST_NOCAPTURE").is_some();
    16 + if nocapture { printed } else { captured }
}
