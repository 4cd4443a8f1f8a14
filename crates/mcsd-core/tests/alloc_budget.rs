//! The discrete-event loop's allocation budget (DESIGN.md §17): with a
//! disabled tracer a run allocates for its set-up — topology, shard
//! queues, the job, placement and arrival-order vectors — and nothing
//! per job, counted by this binary's own allocator so a per-job
//! allocation that creeps back in fails here and not only on the
//! benchmark box. One test, so nothing else allocates while it counts.

#![allow(unsafe_code)] // a counting `GlobalAlloc` cannot be written without it

use mcsd_core::des::{self, DesConfig};
use mcsd_obs::Tracer;
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

/// Allocations of one run on the default 104-node rack at the load the
/// `rack_des` benchmark workload offers: one arrival per 15 virtual ms,
/// which the rack absorbs without shedding.
fn allocations(jobs: u64) -> u64 {
    let cfg = DesConfig {
        arrival_spread_us: 15_000 * jobs,
        ..DesConfig::default_experiment(jobs, 17)
    };
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let run = des::run(&cfg, &Tracer::disabled());
    let allocations = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(run.report.stats.completed_jobs, jobs);
    allocations
}

#[test]
fn des_run_allocates_for_set_up_not_per_job() {
    let small = allocations(10_000);
    let large = allocations(20_000);
    assert!(small <= 450, "{small} allocations for 10 000 jobs");
    // Twice the jobs may deepen a few shard backlogs (a `VecDeque`
    // doubling each) and nothing else.
    assert!(
        large.saturating_sub(small) <= 32,
        "{small} allocations for 10 000 jobs, {large} for 20 000"
    );
}
