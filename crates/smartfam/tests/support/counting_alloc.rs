//! The counting allocator of the three `alloc_budget` gates (smartFAM,
//! the SD side, Word Count), included by each with `#[path]`. Each gate
//! is a `harness = false` binary whose `main` takes its readings in
//! order on one thread, so nothing but the code under test and the
//! threads it spawns allocates while a reading is open.
//!
//! Three counters: every allocation of every thread, the live bytes
//! (allocated and not yet freed, by requested size), and this thread's
//! own allocations — the host's share of a call made against a live
//! daemon, whose threads count only globally.

#![allow(
    unsafe_code,
    reason = "a counting `GlobalAlloc` cannot be written without it"
)]
#![allow(dead_code, reason = "each gate reads the counters it needs")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

thread_local! {
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    fn count(&self, freed: usize, allocated: usize) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(allocated as i64 - freed as i64, Ordering::Relaxed);
        let _ = THREAD_ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are atomic adds and a thread-local
// cell that neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.count(0, layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.count(0, layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.count(layout.size(), new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations so far, every thread's.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::SeqCst)
}

/// Bytes allocated and not yet freed.
pub fn live_bytes() -> i64 {
    LIVE_BYTES.load(Ordering::SeqCst)
}

/// Allocations so far by the calling thread.
pub fn thread_allocations() -> u64 {
    THREAD_ALLOCATIONS.with(Cell::get)
}

/// `f`'s result and the allocations it made, every thread's.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = allocations();
    let out = f();
    (out, allocations() - before)
}
