//! Word Count's allocation budget on the owned path: one owned key per
//! distinct word per job (DESIGN.md §19), counted by this binary's own
//! allocator so a key allocation that creeps back in per fragment, per
//! chunk or per worker fails here and not only on the benchmark box. The
//! job's input pays per vocabulary entry and per distinct word, never per
//! word: the Zipf generator and the sequential oracle are counted too. One
//! test, so nothing else allocates while it counts; run it with
//! `--nocapture` to print its `textgen_generate`, `seq_wordcount` and
//! `wc_run_file` readings.

#![allow(unsafe_code)] // a counting `GlobalAlloc` cannot be written without it

use mcsd_apps::{seq, TextGen, WordCount};
use mcsd_phoenix::{PartitionSpec, PartitionedRuntime, PhoenixConfig, Runtime};
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

/// `f`'s result and the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::SeqCst) - before)
}

#[test]
fn wordcount_allocates_one_key_per_distinct_word_per_job() {
    // The benchmark's corpus: 4 MiB of seed 42. The generator spells its
    // vocabulary once, into one table, so its count is a constant: the same
    // at a quarter of the size, and far under one allocation per word.
    let (corpus, generate_4m) = counted(|| TextGen::with_seed(42).generate(4 << 20));
    let (_, generate_1m) = counted(|| TextGen::with_seed(42).generate(1 << 20));
    let (reference, oracle) = counted(|| seq::wordcount(&corpus));
    println!("textgen_generate {generate_4m}");
    println!("seq_wordcount {oracle}");
    assert!(
        generate_4m.abs_diff(generate_1m) <= 16 && generate_4m <= 64,
        "generate: {generate_4m} allocations for 4 MiB, {generate_1m} for 1 MiB"
    );
    let distinct = reference.len() as u64;
    assert!(
        oracle <= 2 * distinct + 64,
        "oracle: {oracle} allocations for {distinct} distinct words"
    );

    let text = TextGen::with_seed(16).generate(1 << 20);
    let path = std::env::temp_dir().join(format!("mcsd-alloc-budget-{}", std::process::id()));
    std::fs::write(&path, &text).unwrap();
    // Four fragments of four workers with four 16 KiB chunks each, whatever
    // the machine's core count: nearly every word is in every fragment, so
    // a key owned once per fragment, let alone once per worker or per
    // chunk, costs well over the budget's one and a half.
    let runtime = Runtime::new(PhoenixConfig::with_workers(4).chunk_bytes(16 << 10));
    let partitioned = PartitionedRuntime::new(runtime, PartitionSpec::new(256 << 10));
    let merger = WordCount::merger();

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let out = partitioned.run_file(&WordCount, &path, &merger).unwrap();
    let allocations = ALLOCATIONS.load(Ordering::SeqCst) - before;

    std::fs::remove_file(&path).unwrap();
    println!("wc_run_file {allocations}");
    assert_eq!(out.pairs, seq::wordcount(&text));
    assert_eq!(out.stats.fragments, 4);
    let distinct_words = out.pairs.len() as u64;
    let budget = distinct_words * 3 / 2 + 2_000;
    assert!(
        allocations <= budget,
        "{allocations} allocations for {distinct_words} distinct words in {} fragments (budget {budget})",
        out.stats.fragments
    );
    // And within 16 of what the runtime read while it still grouped by
    // sorting keys: the tables' growth moves a few with the process's hash
    // keys, but a partition copied or rehashed in reduce, or an index grown
    // key by key, costs more than that.
    let ceiling = unsorted_ceiling(11_266, 11_339);
    assert!(
        allocations <= ceiling,
        "{allocations} allocations, over {ceiling}"
    );
}

/// 16 over a count pinned from the runtime that grouped by sorting keys:
/// `printed` as `--nocapture` prints it, or `captured` when libtest
/// captures output, which costs every thread the job spawns an allocation.
fn unsorted_ceiling(printed: u64, captured: u64) -> u64 {
    let nocapture = std::env::args().any(|arg| arg == "--nocapture")
        || std::env::var_os("RUST_TEST_NOCAPTURE").is_some();
    16 + if nocapture { printed } else { captured }
}
