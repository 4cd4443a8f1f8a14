//! A counting global allocator: how many heap allocations the process
//! made and how many bytes it asked for. The stack's crates are linked
//! into this binary, so their allocations are counted from outside, and
//! unlike every timing on a shared 2-vCPU box the counts do not move with
//! the machine's speed. Counters are sharded per thread so that two
//! Phoenix workers allocating at once do not share a cache line.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

const SHARDS: usize = 16;

#[repr(align(64))]
struct Shard {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

static COUNTERS: [Shard; SHARDS] = [const {
    Shard {
        allocs: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
    }
}; SHARDS];

thread_local! {
    /// Its address tells threads apart; no destructor, no allocation.
    static MARK: u8 = const { 0 };
}

fn record(bytes: usize) {
    let shard = MARK
        .try_with(|m| (m as *const u8 as usize >> 12) % SHARDS)
        .unwrap_or(0);
    COUNTERS[shard].allocs.fetch_add(1, Relaxed);
    COUNTERS[shard].bytes.fetch_add(bytes as u64, Relaxed);
}

pub struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; `record` only touches atomics and a thread-local
// without a destructor, so it neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// (allocations, bytes requested) by every thread of the process so far.
pub fn totals() -> (u64, u64) {
    COUNTERS.iter().fold((0, 0), |(n, b), s| {
        (n + s.allocs.load(Relaxed), b + s.bytes.load(Relaxed))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_allocations_of_every_thread() {
        let (n0, b0) = totals();
        let worker = std::thread::spawn(|| std::hint::black_box(vec![0u8; 1 << 20]).len());
        let mine = std::hint::black_box(Vec::<u64>::with_capacity(1000));
        assert_eq!(worker.join().unwrap(), 1 << 20);
        let (n1, b1) = totals();
        assert!(n1 - n0 >= 2, "{} allocations", n1 - n0);
        assert!(b1 - b0 >= (1 << 20) + 8000, "{} bytes", b1 - b0);
        drop(mine);
    }
}
