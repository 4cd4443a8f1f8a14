//! Every key collides: a job whose key type's `Hash` writes one constant,
//! so the keyed hasher gives every key the same hash (DESIGN.md §19).
//!
//! The combining tables, reduce's grouping by `(hash, key)` and
//! `SumMerger`'s index all meet keys whose hashes are equal and whose texts
//! differ only here; a runtime that grouped by hash alone would fold every
//! word into one. Each run's pairs and counters are checked against a
//! `BTreeMap` model of the same chunks, workers and fragments.

use mcsd_phoenix::partition::ConcatMerger;
use mcsd_phoenix::prelude::*;
use mcsd_phoenix::Merger;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::path::Path;

/// A word whose hash is the same for every word.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Collide(String);

impl Hash for Collide {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u8(7);
    }
}

/// Word Count over colliding keys, with or without the combiner; output in
/// `(key, value)` order, which is total even where a key repeats across
/// fragments.
struct CollidingCount {
    combine: bool,
}

impl Job for CollidingCount {
    type Key = Collide;
    type Value = u64;

    fn map(&self, chunk: InputChunk<'_>, emitter: &mut Emitter<'_, Collide, u64>) {
        for word in words(chunk.bytes()) {
            emitter.emit(Collide(String::from_utf8_lossy(word).into_owned()), 1);
        }
    }

    fn reduce(&self, _key: &Collide, values: &mut ValueIter<'_, u64>) -> Option<u64> {
        Some(values.sum())
    }

    fn has_combiner(&self) -> bool {
        self.combine
    }

    fn combine(&self, acc: &mut u64, next: u64) {
        *acc += next;
    }

    fn output_order(&self) -> OutputOrder {
        OutputOrder::Custom
    }

    fn compare_output(&self, a: &(Collide, u64), b: &(Collide, u64)) -> Ordering {
        a.cmp(b)
    }
}

fn words(bytes: &[u8]) -> impl Iterator<Item = &[u8]> {
    bytes
        .split(|b| b.is_ascii_whitespace())
        .filter(|w| !w.is_empty())
}

const CHUNK: usize = 256;
const FRAGMENT: usize = 2048;

fn input() -> Vec<u8> {
    let mut text = String::new();
    for i in 0..3000usize {
        text.push_str(&format!("w{}", (i * i + 7 * i) % 41));
        text.push(if i % 13 == 0 { '\n' } else { ' ' });
    }
    text.into_bytes()
}

/// What a run must read: its pairs and `[map_tasks, emitted_pairs,
/// combined_pairs, distinct_keys, output_pairs, fragments]`.
type Expect = (Vec<(Collide, u64)>, [u64; 6]);

/// The runtime's work, modelled with `BTreeMap`s: the input cut into
/// `fragments`, each into chunks dealt to `workers` by stride; `fold`
/// merges across fragments (`SumMerger`) or concatenates (`ConcatMerger`).
fn model(
    input: &[u8],
    fragments: &[Range<usize>],
    workers: usize,
    combine: bool,
    fold: bool,
) -> Expect {
    let splitter = Splitter::new(SplitSpec::whitespace());
    let [mut tasks, mut emitted, mut combined, mut distinct] = [0u64; 4];
    let mut merged = BTreeMap::new();
    let mut concatenated = Vec::new();
    for fragment in fragments {
        let data = &input[fragment.clone()];
        let chunks = splitter.split(data, CHUNK);
        tasks += chunks.len() as u64;
        let mut counts = BTreeMap::new();
        for w in 0..workers {
            let mut held = BTreeMap::new();
            for chunk in chunks.iter().skip(w).step_by(workers) {
                for word in words(&data[chunk.clone()]) {
                    let word = Collide(String::from_utf8_lossy(word).into_owned());
                    *held.entry(word.clone()).or_insert(0u64) += 1;
                    *counts.entry(word).or_insert(0u64) += 1;
                    emitted += 1;
                    combined += u64::from(!combine);
                }
            }
            combined += if combine { held.len() as u64 } else { 0 };
        }
        distinct += counts.len() as u64;
        for (word, n) in counts {
            concatenated.push((word.clone(), n));
            *merged.entry(word).or_insert(0) += n;
        }
    }
    let mut pairs: Vec<_> = if fold {
        merged.into_iter().collect()
    } else {
        concatenated
    };
    pairs.sort();
    let counters = [
        tasks,
        emitted,
        combined,
        distinct,
        pairs.len() as u64,
        fragments.len() as u64,
    ];
    (pairs, counters)
}

fn read(out: JobOutput<Collide, u64>) -> Expect {
    let s = &out.stats;
    let counters = [
        s.map_tasks,
        s.emitted_pairs,
        s.combined_pairs,
        s.distinct_keys,
        s.output_pairs,
        s.fragments,
    ];
    (out.pairs, counters)
}

fn runtime(workers: usize) -> Runtime {
    Runtime::new(PhoenixConfig::with_workers(workers).chunk_bytes(CHUNK))
}

#[test]
fn colliding_keys_group_by_text_in_the_runtime() {
    let input = input();
    let whole = Splitter::new(SplitSpec::whitespace()).split(&input, input.len());
    assert_eq!(whole, vec![0..input.len()]);
    for workers in [1, 2, 4] {
        for combine in [true, false] {
            let job = CollidingCount { combine };
            let out = runtime(workers).run(&job, &input).unwrap();
            assert_eq!(
                read(out),
                model(&input, &whole, workers, combine, true),
                "{workers} workers, combiner {combine}"
            );
        }
    }
}

#[test]
fn colliding_keys_group_by_text_in_the_merge_functions() {
    let input = input();
    let fragments = Splitter::new(SplitSpec::whitespace()).split(&input, FRAGMENT);
    assert!(fragments.len() > 4);
    let path = std::env::temp_dir().join(format!("mcsd-collisions-{}", std::process::id()));
    std::fs::write(&path, &input).unwrap();
    let job = CollidingCount { combine: true };
    let sum = SumMerger::new(|acc: &mut u64, v: u64| *acc += v);
    for workers in [1, 2, 4] {
        let part = PartitionedRuntime::new(runtime(workers), PartitionSpec::new(FRAGMENT));
        let check = |fold: bool, run: &dyn Fn(&Path) -> JobOutput<Collide, u64>| {
            let expect = model(&input, &fragments, workers, true, fold);
            assert_eq!(read(run(&path)), expect, "{workers} workers, fold {fold}");
        };
        check(true, &|_| part.run(&job, &input, &sum).unwrap());
        check(true, &|path| part.run_file(&job, path, &sum).unwrap());
        check(false, &|_| part.run(&job, &input, &ConcatMerger).unwrap());
        check(false, &|path| {
            part.run_file(&job, path, &ConcatMerger).unwrap()
        });
    }
    std::fs::remove_file(&path).unwrap();
}

/// The Merge function's index on its own: keys of one hash, held and new,
/// owned and repeated, each kept once.
#[test]
fn sum_merger_keeps_every_colliding_key_once() {
    let sum = SumMerger::new(|acc: &mut u64, v: u64| *acc += v);
    let mut acc = Merger::<CollidingCount>::empty(&sum);
    let key = |w: &str, n| (InterKey::Owned(Collide(w.to_string())), n);
    Merger::<CollidingCount>::merge(&sum, &mut acc, vec![key("b", 1), key("a", 1), key("b", 1)]);
    Merger::<CollidingCount>::merge(&sum, &mut acc, vec![key("c", 1), key("a", 5)]);
    let mut pairs = Merger::<CollidingCount>::finish(&sum, acc);
    pairs.sort();
    let expect: Vec<_> = [("a", 6), ("b", 2), ("c", 1)]
        .iter()
        .map(|&(w, n)| (Collide(w.to_string()), n))
        .collect();
    assert_eq!(pairs, expect);
}
