//! Word Count's allocation budget on the owned path: one owned key per
//! distinct word per job (DESIGN.md §19), counted by this binary's own
//! allocator so a key allocation that creeps back in per fragment, per
//! chunk or per worker fails here and not only on the benchmark box. The
//! job's input pays per vocabulary entry and per distinct word, never per
//! word: the Zipf generator and the sequential oracle are counted too.
//! A `harness = false` binary: `main` takes the readings in order and
//! prints `textgen_generate`, `seq_wordcount` and `wc_run_file`, one
//! `name value` line each; a failed gate names its reading and exits
//! non-zero.

#[path = "../../smartfam/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::counted;
use mcsd_apps::{seq, TextGen, WordCount};
use mcsd_phoenix::{PartitionSpec, PartitionedRuntime, PhoenixConfig, Runtime};

fn main() {
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
        "textgen_generate: {generate_4m} allocations for 4 MiB, {generate_1m} for 1 MiB"
    );
    let distinct = reference.len() as u64;
    assert!(
        oracle <= 2 * distinct + 64,
        "seq_wordcount: {oracle} allocations for {distinct} distinct words"
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

    let (out, allocations) = counted(|| partitioned.run_file(&WordCount, &path, &merger));
    let out = out.unwrap();
    std::fs::remove_file(&path).unwrap();
    println!("wc_run_file {allocations}");
    assert_eq!(out.pairs, seq::wordcount(&text));
    assert_eq!(out.stats.fragments, 4);
    let distinct_words = out.pairs.len() as u64;
    let budget = distinct_words * 3 / 2 + 2_000;
    assert!(
        allocations <= budget,
        "wc_run_file: {allocations} allocations for {distinct_words} distinct words in {} fragments (budget {budget})",
        out.stats.fragments
    );
    // And within 16 of the 11 266 the runtime read while it still grouped
    // by sorting keys: the tables' growth moves a few with the process's
    // hash keys, but a partition copied or rehashed in reduce, or an index
    // grown key by key, costs more than that.
    let ceiling = 16 + 11_266;
    assert!(
        allocations <= ceiling,
        "wc_run_file: {allocations} allocations, over {ceiling}"
    );
}
