//! Property-based tests for the Phoenix runtime's core invariants.

use mcsd_phoenix::prelude::*;
use mcsd_phoenix::sort::{is_sorted_by, kway_merge_by, parallel_sort_by};
use mcsd_phoenix::PartitionPlan;
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::HashMap;

/// Reference word counter.
fn reference_counts(text: &[u8]) -> HashMap<String, u64> {
    let mut counts = HashMap::new();
    for w in text
        .split(|b| b.is_ascii_whitespace())
        .filter(|w| !w.is_empty())
    {
        *counts
            .entry(String::from_utf8_lossy(w).into_owned())
            .or_insert(0) += 1;
    }
    counts
}

struct Wc;
impl Job for Wc {
    type Key = String;
    type Value = u64;
    fn map(&self, chunk: InputChunk<'_>, emitter: &mut Emitter<'_, String, u64>) {
        for w in chunk
            .bytes()
            .split(|b| b.is_ascii_whitespace())
            .filter(|w| !w.is_empty())
        {
            emitter.emit(String::from_utf8_lossy(w).into_owned(), 1);
        }
    }
    fn reduce(&self, _k: &String, values: &mut ValueIter<'_, u64>) -> Option<u64> {
        Some(values.sum())
    }
    fn has_combiner(&self) -> bool {
        true
    }
    fn combine(&self, acc: &mut u64, next: u64) {
        *acc += next;
    }
    fn footprint_factor(&self) -> f64 {
        3.0
    }
}

/// Strategy: text made of words and whitespace.
fn text_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![
            4 => "[a-e]{1,6}".prop_map(|s| s.into_bytes()),
            1 => Just(b" ".to_vec()),
            1 => Just(b"\n".to_vec()),
            1 => Just(b"  ".to_vec()),
        ],
        0..120,
    )
    .prop_map(|parts| {
        let mut out = Vec::new();
        for (i, p) in parts.into_iter().enumerate() {
            if i > 0 {
                out.push(b' ');
            }
            out.extend(p);
        }
        out
    })
}

/// Strategy: indices into the delimiter-rich alphabet of [`bytes_of`].
fn piece_strategy() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..8, 0..160)
}

/// `head` and `tail` spelled in a small delimiter-rich alphabet, around a
/// delimiter-free run of `run` bytes.
fn bytes_of(head: Vec<usize>, run: usize, tail: Vec<usize>) -> Vec<u8> {
    let byte = |i: usize| b"ab \n\t;,."[i];
    let mut out: Vec<u8> = head.into_iter().map(byte).collect();
    out.resize(out.len() + run, b'x');
    out.extend(tail.into_iter().map(byte));
    out
}

/// `data` written to a scratch file that is removed on drop.
struct TempFile(std::path::PathBuf);

impl TempFile {
    fn new(data: &[u8]) -> TempFile {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let name = format!("mcsd-phoenix-prop-{}-{n}.bin", std::process::id());
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, data).unwrap();
        TempFile(path)
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

proptest! {
    /// The one cutter: a slice through the splitter, a slice through the
    /// fragment planner and a never-loaded file through the on-file planner
    /// get the same ranges under every integrity check and target size, and
    /// those ranges cover the input on legal boundaries.
    #[test]
    fn every_cutter_entry_cuts_the_same_ranges(
        head in piece_strategy(),
        // A quarter of the cases carry a delimiter-free run longer than
        // the 64 KiB window of the on-file scan.
        run in prop_oneof![3 => Just(0usize), 1 => 65_537usize..70_000],
        tail in piece_strategy(),
        record in 2usize..16,
        mid in 2usize..4096,
    ) {
        let data = bytes_of(head, run, tail);
        let file = TempFile::new(&data);
        let checks = [
            IntegrityCheck::Delimited(Delimiter::Whitespace),
            IntegrityCheck::Delimited(Delimiter::Newline),
            IntegrityCheck::Delimited(Delimiter::Byte(b';')),
            IntegrityCheck::Delimited(Delimiter::AnyOf(vec![b',', b'.'])),
            IntegrityCheck::FixedRecord(record),
            IntegrityCheck::None,
        ];
        for integrity in checks {
            let spec = SplitSpec { integrity };
            for target in [1, mid, data.len() + 1] {
                let ranges = Splitter::new(spec.clone()).split(&data, target);
                let fragments = PartitionSpec::new(target);
                let in_memory = PartitionPlan::plan(&data, fragments, &spec);
                let on_file = PartitionPlan::plan_file(&file.0, fragments, &spec).unwrap();
                prop_assert!(in_memory.fragments == ranges, "plan: {spec:?} @ {target}");
                prop_assert!(on_file.plan.fragments == ranges, "plan_file: {spec:?} @ {target}");
                prop_assert_eq!(on_file.file_len, data.len());
                let mut pos = 0;
                for r in &ranges {
                    prop_assert_eq!(r.start, pos);
                    prop_assert!(r.end > r.start);
                    prop_assert!(spec.integrity.is_legal(&data, r.end), "{spec:?} cut at {}", r.end);
                    pos = r.end;
                }
                prop_assert_eq!(pos, data.len());
            }
        }
    }

    /// The one sweep: fragments streamed off a file, fragments of a slice
    /// and the unpartitioned runtime produce the same pairs, and the two
    /// sweeps the same deterministic counters.
    #[test]
    fn every_sweep_entry_runs_the_same_job(
        data in text_strategy(),
        fragment in 1usize..96,
    ) {
        let file = TempFile::new(&data);
        let rt = Runtime::new(PhoenixConfig::with_workers(2).chunk_bytes(32));
        let whole = rt.run(&Wc, &data).unwrap();
        let part = PartitionedRuntime::new(rt, PartitionSpec::new(fragment));
        let merger = SumMerger::new(|acc: &mut u64, v: u64| *acc += v);
        let in_memory = part.run(&Wc, &data, &merger).unwrap();
        let on_file = part.run_file(&Wc, &file.0, &merger).unwrap();
        prop_assert_eq!(&on_file.pairs, &in_memory.pairs);
        prop_assert_eq!(&on_file.pairs, &whole.pairs);
        let counters = |s: &JobStats| (s.fragments, s.map_tasks, s.emitted_pairs, s.output_pairs);
        prop_assert_eq!(counters(&on_file.stats), counters(&in_memory.stats));
        prop_assert_eq!(on_file.stats.emitted_pairs, whole.stats.emitted_pairs);
        prop_assert_eq!(on_file.stats.output_pairs, whole.stats.output_pairs);
    }

    #[test]
    fn splitter_covers_input_exactly(
        data in text_strategy(),
        target in 1usize..64,
    ) {
        let splitter = Splitter::new(SplitSpec::whitespace());
        let ranges = splitter.split(&data, target);
        let mut pos = 0;
        for r in &ranges {
            prop_assert_eq!(r.start, pos);
            prop_assert!(r.end > r.start);
            pos = r.end;
        }
        prop_assert_eq!(pos, data.len());
    }

    #[test]
    fn splitter_never_cuts_words(
        data in text_strategy(),
        target in 1usize..48,
    ) {
        let splitter = Splitter::new(SplitSpec::whitespace());
        let ranges = splitter.split(&data, target);
        for r in &ranges {
            if r.end < data.len() {
                prop_assert!(
                    data[r.end - 1].is_ascii_whitespace(),
                    "cut at {} splits a word", r.end
                );
            }
        }
    }

    #[test]
    fn wordcount_equals_reference(
        data in text_strategy(),
        workers in 1usize..5,
        chunk in 8usize..128,
    ) {
        let runtime = Runtime::new(
            PhoenixConfig::with_workers(workers).chunk_bytes(chunk),
        );
        let out = runtime.run(&Wc, &data).unwrap();
        let reference = reference_counts(&data);
        prop_assert_eq!(out.pairs.len(), reference.len());
        for (k, v) in &out.pairs {
            prop_assert_eq!(reference.get(k), Some(v));
        }
    }

    #[test]
    fn partitioned_equals_whole(
        data in text_strategy(),
        fragment in 8usize..96,
    ) {
        let rt = Runtime::new(PhoenixConfig::with_workers(2).chunk_bytes(32));
        let whole = rt.run(&Wc, &data).unwrap();
        let part = PartitionedRuntime::new(rt, PartitionSpec::new(fragment));
        let merger = SumMerger::new(|acc: &mut u64, v: u64| *acc += v);
        let split = part.run(&Wc, &data, &merger).unwrap();
        // Keys are sorted ByKey by default in both paths.
        prop_assert_eq!(whole.pairs, split.pairs);
    }

    #[test]
    fn parallel_sort_equals_std_sort(
        mut data in proptest::collection::vec(any::<i32>(), 0..2000),
        workers in 1usize..6,
    ) {
        let mut expect = data.clone();
        expect.sort_unstable();
        parallel_sort_by(&mut data, workers, |a, b| a.cmp(b));
        prop_assert_eq!(data, expect);
    }

    #[test]
    fn kway_merge_equals_flatten_sort(
        runs in proptest::collection::vec(
            proptest::collection::vec(any::<i16>(), 0..50),
            0..6,
        ),
    ) {
        let sorted_runs: Vec<Vec<i16>> = runs
            .iter()
            .map(|r| {
                let mut r = r.clone();
                r.sort_unstable();
                r
            })
            .collect();
        let mut expect: Vec<i16> = runs.into_iter().flatten().collect();
        expect.sort_unstable();
        let merged = kway_merge_by(sorted_runs, &|a: &i16, b: &i16| a.cmp(b));
        prop_assert_eq!(merged, expect);
    }

    #[test]
    fn integrity_adjust_is_legal_and_monotone(
        data in text_strategy(),
        proposed in 0usize..200,
    ) {
        let ic = IntegrityCheck::Delimited(Delimiter::Whitespace);
        let b = ic.adjust(&data, proposed);
        prop_assert!(b <= data.len());
        prop_assert!(b >= proposed.min(data.len()));
        prop_assert!(ic.is_legal(&data, b));
    }

    #[test]
    fn fixed_record_adjust_is_aligned(
        len in 0usize..256,
        record in 1usize..16,
        proposed in 0usize..300,
    ) {
        let data = vec![0u8; len];
        let ic = IntegrityCheck::FixedRecord(record);
        let b = ic.adjust(&data, proposed);
        prop_assert!(b <= len);
        prop_assert!(b.is_multiple_of(record) || b == len);
    }

    #[test]
    fn memory_verdict_is_monotone_in_input(
        total in 1000u64..1_000_000,
        a in 0u64..500_000,
        b in 0u64..500_000,
    ) {
        // Larger inputs never get a strictly "better" verdict.
        let m = MemoryModel::new(total);
        let (small, large) = if a <= b { (a, b) } else { (b, a) };
        let rank = |v: MemoryVerdict| match v {
            MemoryVerdict::Fits => 0,
            MemoryVerdict::Thrashing { .. } => 1,
            MemoryVerdict::Overflow { .. } => 2,
        };
        prop_assert!(rank(m.verdict(small, 3.0)) <= rank(m.verdict(large, 3.0)));
    }

    #[test]
    fn custom_sort_order_is_respected(
        data in text_strategy(),
    ) {
        struct ByCount;
        impl Job for ByCount {
            type Key = String;
            type Value = u64;
            fn map(&self, chunk: InputChunk<'_>, e: &mut Emitter<'_, String, u64>) {
                Wc.map(chunk, e)
            }
            fn reduce(&self, _k: &String, v: &mut ValueIter<'_, u64>) -> Option<u64> {
                Some(v.sum())
            }
            fn output_order(&self) -> OutputOrder {
                OutputOrder::Custom
            }
            fn compare_output(&self, a: &(String, u64), b: &(String, u64)) -> Ordering {
                b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0))
            }
        }
        let rt = Runtime::new(PhoenixConfig::with_workers(2).chunk_bytes(16));
        let out = rt.run(&ByCount, &data).unwrap();
        let cmp = |a: &(String, u64), b: &(String, u64)| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0));
        let sorted = is_sorted_by(&out.pairs, &cmp);
        prop_assert!(sorted);
    }
}
