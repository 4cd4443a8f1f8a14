//! The Phoenix scheduler: split → map → reduce → merge.
//!
//! The runtime "automatically manages thread creation, dynamic task
//! scheduling, data partitioning, and fault tolerance" (paper §I, on
//! Phoenix). Worker counts are explicit so the McSD experiments can emulate
//! a node's core count: 1 worker = the paper's sequential baseline, 2 = the
//! Core2 Duo SD node, 4 = the Core2 Quad host.

use crate::config::PhoenixConfig;
use crate::emitter::{Emitter, InterKey, Pair};
use crate::error::PhoenixError;
use crate::job::{InputChunk, Job, ValueIter};
use crate::memory::MemoryVerdict;
use crate::partition::sort_output;
use crate::splitter::Splitter;
use crate::stats::{JobStats, PhaseTimings};
use crate::stopwatch::Stopwatch;
use mcsd_obs::names::{
    SPAN_PHOENIX_JOB, SPAN_PHOENIX_MAP, SPAN_PHOENIX_MERGE, SPAN_PHOENIX_REDUCE, SPAN_PHOENIX_SPLIT,
};
use mcsd_obs::{ClockDomain, Tracer};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// The result of a job run: final output pairs plus run statistics.
#[derive(Debug, Clone)]
pub struct JobOutput<K, V> {
    /// Final `(key, value)` pairs, ordered per the job's
    /// [`OutputOrder`](crate::config::OutputOrder).
    pub pairs: Vec<(K, V)>,
    /// Statistics of the run.
    pub stats: JobStats,
}

impl<K, V> JobOutput<K, V> {
    /// Number of output pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the output is empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

/// Intermediate pairs of one reduce partition, as per-worker runs.
type PartitionBuckets<'i, K, V> = Vec<Vec<Pair<'i, K, V>>>;

/// Output of one worker's map phase.
struct WorkerMapOutput<'i, K, V> {
    partitions: PartitionBuckets<'i, K, V>,
    emitted: u64,
    buffered: u64,
}

/// A reduced partition: output pairs plus its distinct-key count.
type ReducedPartition<'i, K, V> = (Vec<Pair<'i, K, V>>, u64);
/// A work cell claimed by exactly one reduce worker.
type WorkCell<T> = Mutex<Option<T>>;

/// Run `f(worker_index)` on `workers` scoped threads, translating worker
/// panics into [`PhoenixError::WorkerPanicked`].
fn scoped_workers<F>(workers: usize, phase: &'static str, f: F) -> Result<(), PhoenixError>
where
    F: Fn(usize) + Sync,
{
    let panicked = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for w in 0..workers {
            let f = &f;
            let panicked = &panicked;
            scope.spawn(move || {
                if catch_unwind(AssertUnwindSafe(|| f(w))).is_err() {
                    panicked.store(true, Ordering::Relaxed);
                }
            });
        }
    });
    if panicked.load(Ordering::Relaxed) {
        Err(PhoenixError::WorkerPanicked { phase })
    } else {
        Ok(())
    }
}

/// Name of the work-domain track the runtime's span tree is recorded on.
pub const TRACE_TRACK: &str = "phoenix";

/// The Phoenix MapReduce runtime.
#[derive(Debug, Clone, Default)]
pub struct Runtime {
    config: PhoenixConfig,
    tracer: Tracer,
}

impl Runtime {
    /// Create a runtime with the given configuration (tracing disabled).
    pub fn new(config: PhoenixConfig) -> Self {
        Runtime {
            config,
            tracer: Tracer::disabled(),
        }
    }

    /// Attach a tracer: every job run records its
    /// `phoenix.job`/`phoenix.split`/`phoenix.map`/`phoenix.reduce`/
    /// `phoenix.merge` span tree on the [`TRACE_TRACK`] work-domain track.
    /// Span widths are work-proportional ticks derived from the
    /// deterministic [`JobStats`] counters — never the wall-clock
    /// [`PhaseTimings`], which are banned from traces (DESIGN.md §12).
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// The runtime's configuration.
    pub fn config(&self) -> &PhoenixConfig {
        &self.config
    }

    /// The runtime's tracer (disabled unless [`Runtime::with_tracer`] was
    /// called).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Run `job` over `input`, enforcing the memory model.
    ///
    /// Fails with [`PhoenixError::MemoryOverflow`] when the input exceeds
    /// the stock-Phoenix hard limit of the configured
    /// [`MemoryModel`](crate::memory::MemoryModel) — the paper's
    /// observation that non-partitioned Phoenix "cannot support the
    /// Word-count and the String-match for data size larger than 1.5G"
    /// (§V-B). Use [`PartitionedRuntime`](crate::partition::PartitionedRuntime)
    /// for larger inputs.
    pub fn run<J: Job>(
        &self,
        job: &J,
        input: &[u8],
    ) -> Result<JobOutput<J::Key, J::Value>, PhoenixError> {
        self.run_at(job, input, 0)
    }

    /// Like [`Runtime::run`], but `input` is a fragment of a larger
    /// dataset starting at byte `base_offset`. Map tasks observe global
    /// offsets via [`InputChunk::global_offset`], so offset-keyed jobs
    /// (String Match reports match positions) produce identical results
    /// whether or not the input was partitioned.
    pub fn run_at<J: Job>(
        &self,
        job: &J,
        input: &[u8],
        base_offset: usize,
    ) -> Result<JobOutput<J::Key, J::Value>, PhoenixError> {
        let JobOutput { pairs, mut stats } = self.reduce_at(job, input, base_offset, &mut 0)?;
        // The output outlives `input`: every key becomes owned here, by
        // its one allocation, and the job's order is applied.
        let t0 = Stopwatch::start();
        let owned = pairs.into_iter().map(|(k, v)| (k.into_owned(), v));
        let mut pairs = owned.collect();
        sort_output(job, &mut pairs, self.config.workers);
        stats.timings.merge += t0.elapsed();
        Ok(JobOutput { pairs, stats })
    }

    /// Split → map → shuffle → reduce → concatenate: the part of a run
    /// that [`Runtime::run_at`] shares with the fragment sweep of
    /// [`PartitionedRuntime`](crate::partition::PartitionedRuntime), memory
    /// model enforced, stats complete, span tree recorded. Its pairs are the
    /// reduced partitions one after another, in no key order — only the
    /// caller applies an order — and no key owned that was emitted as text
    /// of `input` (DESIGN.md §19). `table_keys` carries the size the
    /// combining tables reached from one fragment to the next.
    pub(crate) fn reduce_at<'i, J: Job>(
        &self,
        job: &'i J,
        input: &'i [u8],
        base_offset: usize,
        table_keys: &mut usize,
    ) -> Result<JobOutput<InterKey<'i, J::Key>, J::Value>, PhoenixError> {
        self.config.validate()?;
        let mut swapped_bytes = 0u64;
        if let Some(memory) = &self.config.memory {
            match memory.verdict(input.len() as u64, job.footprint_factor()) {
                MemoryVerdict::Overflow { limit_bytes } => {
                    return Err(PhoenixError::MemoryOverflow {
                        input_bytes: input.len() as u64,
                        limit_bytes,
                    });
                }
                MemoryVerdict::Thrashing {
                    swapped_bytes: swapped,
                } => swapped_bytes = swapped,
                MemoryVerdict::Fits => {}
            }
        }
        let workers = self.config.workers;
        let partitions = self.config.reduce_partitions;
        let mut timings = PhaseTimings::default();

        // ---- Split ----
        let t0 = Stopwatch::start();
        let splitter = Splitter::new(job.split_spec());
        let chunks = splitter.split(input, self.config.chunk_bytes);
        // Validated once: chunks and `emit_ref` slice its valid UTF-8 prefix.
        let text = std::str::from_utf8(input)
            .or_else(|e| std::str::from_utf8(&input[..e.valid_up_to()]))
            .unwrap_or_default();
        timings.split = t0.elapsed();
        let map_tasks = chunks.len() as u64;

        // ---- Map ----
        // Chunks are assigned by a deterministic stride (worker w takes
        // chunks w, w+workers, …) and outputs land at the worker's own
        // slot, never in completion order: which chunks a worker combines
        // decides its post-combine pair count, and `combined_pairs`
        // reaches the trace — dynamic work-stealing here made the trace
        // bytes depend on thread scheduling. Chunks are uniform-sized, so
        // the stride balances load as well as stealing did.
        let t0 = Stopwatch::start();
        type OutputSlots<'i, K, V> = Mutex<Vec<Option<WorkerMapOutput<'i, K, V>>>>;
        let worker_outputs: OutputSlots<'_, J::Key, J::Value> =
            Mutex::new((0..workers).map(|_| None).collect());
        scoped_workers(workers, "map", |w| {
            let emitter = if job.has_combiner() {
                Emitter::with_combiner(partitions, job)
            } else {
                Emitter::new(partitions)
            };
            let mut emitter = emitter.over(text, *table_keys);
            for (index, range) in chunks.iter().enumerate().skip(w).step_by(workers) {
                let chunk = InputChunk {
                    data: &input[range.clone()],
                    text: text.get(range.clone()),
                    global_offset: base_offset + range.start,
                    index,
                };
                job.map(chunk, &mut emitter);
            }
            let emitted = emitter.emitted();
            let buffered = emitter.buffered() as u64;
            worker_outputs.lock()[w] = Some(WorkerMapOutput {
                partitions: emitter.into_partitions(),
                emitted,
                buffered,
            });
        })?;
        timings.map = t0.elapsed();

        let outputs: Vec<WorkerMapOutput<'_, J::Key, J::Value>> =
            worker_outputs.into_inner().into_iter().flatten().collect();
        let emitted_pairs: u64 = outputs.iter().map(|o| o.emitted).sum();
        let combined_pairs: u64 = outputs.iter().map(|o| o.buffered).sum();

        // Regroup per-worker buffers by reduce partition, in worker-index
        // order.
        let mut buckets: Vec<PartitionBuckets<'_, J::Key, J::Value>> =
            (0..partitions).map(|_| Vec::new()).collect();
        *table_keys = 0;
        for output in outputs {
            for (p, buf) in output.partitions.into_iter().enumerate() {
                *table_keys = (*table_keys).max(buf.len());
                if !buf.is_empty() {
                    buckets[p].push(buf);
                }
            }
        }

        // ---- Reduce (parallel across partitions) ----
        let t0 = Stopwatch::start();
        let buckets: Vec<WorkCell<PartitionBuckets<'_, J::Key, J::Value>>> =
            buckets.into_iter().map(|b| Mutex::new(Some(b))).collect();
        let reduced: Vec<WorkCell<ReducedPartition<'_, J::Key, J::Value>>> =
            (0..partitions).map(|_| Mutex::new(None)).collect();
        let next_partition = AtomicUsize::new(0);
        scoped_workers(workers, "reduce", |_w| {
            // The worker's one key allocation: what `Job::reduce` is shown
            // of a key that is input text.
            let mut scratch = None;
            loop {
                let p = next_partition.fetch_add(1, Ordering::Relaxed);
                if p >= partitions {
                    break;
                }
                // The atomic counter hands each partition index to exactly
                // one worker, so the cell is always populated here; an empty
                // cell would mean the counter protocol broke, and skipping
                // is safer than bringing the whole pool down.
                let Some(bufs) = buckets[p].lock().take() else {
                    continue;
                };
                let result = reduce_partition(job, bufs, &mut scratch);
                *reduced[p].lock() = Some(result);
            }
        })?;
        timings.reduce = t0.elapsed();

        let mut partition_outputs = Vec::with_capacity(partitions);
        let mut distinct_keys = 0u64;
        for cell in reduced {
            let (out, distinct) = cell
                .into_inner()
                .ok_or(PhoenixError::WorkerPanicked { phase: "reduce" })?;
            distinct_keys += distinct;
            partition_outputs.push(out);
        }

        // ---- Merge ----
        // The hashes stay behind: what comes next sorts, or hashes anew.
        let t0 = Stopwatch::start();
        let pairs = concat(partition_outputs, |(key, value)| (key.key, value));
        timings.merge = t0.elapsed();

        let stats = JobStats {
            job: job.name().to_string(),
            input_bytes: input.len() as u64,
            map_tasks,
            workers,
            emitted_pairs,
            combined_pairs,
            distinct_keys,
            output_pairs: pairs.len() as u64,
            fragments: 1,
            swapped_bytes,
            timings,
        };
        self.record_span_tree(&stats);
        Ok(JobOutput { pairs, stats })
    }

    /// Record the finished job's span tree. Emitted after the run from the
    /// deterministic counters (not live from inside the worker pool), so
    /// thread scheduling can never reorder the records: same input, same
    /// config ⇒ same trace bytes.
    fn record_span_tree(&self, stats: &JobStats) {
        if !self.tracer.is_enabled() {
            return;
        }
        let track = self.tracer.track(TRACE_TRACK, ClockDomain::Work);
        let job = self
            .tracer
            .open_with(track, SPAN_PHOENIX_JOB, |a| a.str("job", &stats.job));
        self.tracer
            .leaf_with(track, SPAN_PHOENIX_SPLIT, stats.map_tasks, |a| {
                a.u64("map_tasks", stats.map_tasks);
            });
        self.tracer
            .leaf_with(track, SPAN_PHOENIX_MAP, stats.input_bytes, |a| {
                a.u64("input_bytes", stats.input_bytes);
                a.u64("emitted_pairs", stats.emitted_pairs);
            });
        self.tracer
            .leaf_with(track, SPAN_PHOENIX_REDUCE, stats.combined_pairs, |a| {
                a.u64("combined_pairs", stats.combined_pairs);
                a.u64("distinct_keys", stats.distinct_keys);
            });
        self.tracer
            .leaf_with(track, SPAN_PHOENIX_MERGE, stats.output_pairs, |a| {
                a.u64("output_pairs", stats.output_pairs);
            });
        self.tracer.close(track, job);
    }
}

/// One part after another, through `f`, in one vector sized once.
fn concat<T, U>(parts: Vec<Vec<T>>, f: impl FnMut(T) -> U) -> Vec<U> {
    let mut all = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    all.extend(parts.into_iter().flatten().map(f));
    all
}

/// Group and reduce the pairs of one partition. Returns the output pairs,
/// in no key order, and the number of distinct keys. No key becomes owned
/// here: `Job::reduce` is shown an owned key as it is and input text
/// through `scratch`, and the key moves into the output as it came.
fn reduce_partition<'i, J: Job>(
    job: &J,
    bufs: PartitionBuckets<'i, J::Key, J::Value>,
    scratch: &mut Option<J::Key>,
) -> ReducedPartition<'i, J::Key, J::Value> {
    let mut pairs = concat(bufs, |pair| pair);
    // By `(hash, key)`: keys are compared only where hashes are equal.
    pairs.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    // The sorted pairs leave the ring at the front and the reduced ones
    // join it at the back: at least one leaves for each that joins, so the
    // one buffer never grows and there is no second vector for the output.
    let mut ring = VecDeque::from(pairs);
    let mut unreduced = ring.len();
    let mut distinct = 0u64;
    // One key's values, contiguous for `ValueIter`; reused group to group.
    let mut group: Vec<J::Value> = Vec::new();
    while unreduced > 0 {
        let Some((key, value)) = ring.pop_front() else {
            break;
        };
        group.clear();
        group.push(value);
        while group.len() < unreduced && ring.front().is_some_and(|(next, _)| *next == key) {
            group.extend(ring.pop_front().map(|(_, value)| value));
        }
        unreduced -= group.len();
        distinct += 1;
        if let Some(v) = job.reduce(key.key.key_in(scratch), &mut ValueIter::new(&group)) {
            ring.push_back((key, v));
        }
    }
    (ring.into(), distinct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OutputOrder;
    use crate::memory::MemoryModel;
    use crate::splitter::SplitSpec;
    use std::cmp::Ordering as CmpOrdering;
    use std::collections::HashMap;

    /// Counts whitespace-separated words; sums with a combiner; output
    /// sorted by count descending then key ascending.
    struct MiniWordCount;

    impl Job for MiniWordCount {
        type Key = String;
        type Value = u64;

        fn map(&self, chunk: InputChunk<'_>, emitter: &mut Emitter<'_, String, u64>) {
            for word in chunk
                .bytes()
                .split(|b| b.is_ascii_whitespace())
                .filter(|w| !w.is_empty())
            {
                emitter.emit(String::from_utf8_lossy(word).into_owned(), 1);
            }
        }

        fn reduce(&self, _key: &String, values: &mut ValueIter<'_, u64>) -> Option<u64> {
            Some(values.sum())
        }

        fn has_combiner(&self) -> bool {
            true
        }

        fn combine(&self, acc: &mut u64, next: u64) {
            *acc += next;
        }

        fn output_order(&self) -> OutputOrder {
            OutputOrder::Custom
        }

        fn compare_output(&self, a: &(String, u64), b: &(String, u64)) -> CmpOrdering {
            b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0))
        }

        fn footprint_factor(&self) -> f64 {
            3.0
        }

        fn name(&self) -> &str {
            "mini-wc"
        }
    }

    /// Same job without the combiner, for equivalence testing.
    struct MiniWordCountNoCombine;

    impl Job for MiniWordCountNoCombine {
        type Key = String;
        type Value = u64;

        fn map(&self, chunk: InputChunk<'_>, emitter: &mut Emitter<'_, String, u64>) {
            MiniWordCount.map(chunk, emitter)
        }

        fn reduce(&self, _key: &String, values: &mut ValueIter<'_, u64>) -> Option<u64> {
            Some(values.sum())
        }

        fn output_order(&self) -> OutputOrder {
            OutputOrder::Custom
        }

        fn compare_output(&self, a: &(String, u64), b: &(String, u64)) -> CmpOrdering {
            b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0))
        }
    }

    fn sample_text() -> Vec<u8> {
        let mut text = String::new();
        for i in 0..500 {
            text.push_str(match i % 5 {
                0 => "apple ",
                1 => "banana ",
                2 => "apple ",
                3 => "cherry ",
                _ => "banana\n",
            });
        }
        text.into_bytes()
    }

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

    #[test]
    fn wordcount_matches_reference() {
        let text = sample_text();
        let runtime = Runtime::new(PhoenixConfig::with_workers(3).chunk_bytes(128));
        let out = runtime.run(&MiniWordCount, &text).unwrap();
        let reference = reference_counts(&text);
        assert_eq!(out.pairs.len(), reference.len());
        for (k, v) in &out.pairs {
            assert_eq!(reference.get(k), Some(v), "mismatch for key {k}");
        }
    }

    #[test]
    fn output_is_sorted_by_count_desc() {
        let text = sample_text();
        let runtime = Runtime::new(PhoenixConfig::with_workers(2).chunk_bytes(64));
        let out = runtime.run(&MiniWordCount, &text).unwrap();
        for w in out.pairs.windows(2) {
            assert!(w[0].1 >= w[1].1, "counts must be non-increasing");
        }
    }

    #[test]
    fn worker_count_does_not_change_result() {
        let text = sample_text();
        let mut outputs = Vec::new();
        for workers in [1, 2, 4, 8] {
            let runtime = Runtime::new(PhoenixConfig::with_workers(workers).chunk_bytes(97));
            outputs.push(runtime.run(&MiniWordCount, &text).unwrap().pairs);
        }
        for o in &outputs[1..] {
            assert_eq!(&outputs[0], o);
        }
    }

    #[test]
    fn combiner_and_plain_agree() {
        let text = sample_text();
        let runtime = Runtime::new(PhoenixConfig::with_workers(4).chunk_bytes(100));
        let with = runtime.run(&MiniWordCount, &text).unwrap();
        let without = runtime.run(&MiniWordCountNoCombine, &text).unwrap();
        assert_eq!(with.pairs, without.pairs);
        // The combiner must actually shrink the intermediate volume.
        assert!(with.stats.combined_pairs < with.stats.emitted_pairs);
        assert_eq!(without.stats.combined_pairs, without.stats.emitted_pairs);
    }

    #[test]
    fn empty_input_gives_empty_output() {
        let runtime = Runtime::new(PhoenixConfig::with_workers(2));
        let out = runtime.run(&MiniWordCount, b"").unwrap();
        assert!(out.is_empty());
        assert_eq!(out.stats.map_tasks, 0);
    }

    #[test]
    fn memory_overflow_is_reported() {
        let cfg = PhoenixConfig::with_workers(2).memory(MemoryModel::new(1000));
        let runtime = Runtime::new(cfg);
        let big = vec![b'a'; 800]; // hard limit = 750
        match runtime.run(&MiniWordCount, &big) {
            Err(PhoenixError::MemoryOverflow {
                input_bytes,
                limit_bytes,
            }) => {
                assert_eq!(input_bytes, 800);
                assert_eq!(limit_bytes, 750);
            }
            other => panic!("expected MemoryOverflow, got {other:?}"),
        }
    }

    #[test]
    fn thrashing_is_recorded_in_stats() {
        let cfg = PhoenixConfig::with_workers(2).memory(MemoryModel::new(1000));
        let runtime = Runtime::new(cfg);
        // 400 bytes * 3.0 footprint = 1200 > 900 available -> thrash, but
        // 400 < 750 hard limit -> still runs.
        let text = vec![b'a'; 400];
        let out = runtime.run(&MiniWordCount, &text).unwrap();
        assert_eq!(out.stats.swapped_bytes, 1200 - 900);
    }

    #[test]
    fn stats_are_plausible() {
        let text = sample_text();
        let runtime = Runtime::new(PhoenixConfig::with_workers(2).chunk_bytes(256));
        let out = runtime.run(&MiniWordCount, &text).unwrap();
        let s = &out.stats;
        assert_eq!(s.job, "mini-wc");
        assert_eq!(s.input_bytes, text.len() as u64);
        assert_eq!(s.workers, 2);
        assert_eq!(s.emitted_pairs, 500);
        assert_eq!(s.distinct_keys, 3);
        assert_eq!(s.output_pairs, 3);
        assert_eq!(s.fragments, 1);
        assert!(s.combined_pairs <= s.emitted_pairs);
    }

    /// A map-only job in the String Match mould: emits (line number, 1) for
    /// lines containing "key", identity reduce.
    struct LineMatch;

    impl Job for LineMatch {
        type Key = u64;
        type Value = u64;

        fn map(&self, chunk: InputChunk<'_>, emitter: &mut Emitter<'_, u64, u64>) {
            let base = chunk.global_offset() as u64;
            let mut offset = 0u64;
            for line in chunk.bytes().split(|&b| b == b'\n') {
                if line.windows(3).any(|w| w == b"key") {
                    emitter.emit(base + offset, 1);
                }
                offset += line.len() as u64 + 1;
            }
        }

        fn reduce(&self, _key: &u64, values: &mut ValueIter<'_, u64>) -> Option<u64> {
            values.next().copied()
        }

        fn split_spec(&self) -> SplitSpec {
            SplitSpec::lines()
        }

        fn name(&self) -> &str {
            "line-match"
        }
    }

    #[test]
    fn map_only_job_finds_all_matches() {
        let mut text = Vec::new();
        for i in 0..100 {
            if i % 7 == 0 {
                text.extend_from_slice(format!("line {i} with key inside\n").as_bytes());
            } else {
                text.extend_from_slice(format!("line {i} plain\n").as_bytes());
            }
        }
        let runtime = Runtime::new(PhoenixConfig::with_workers(3).chunk_bytes(64));
        let out = runtime.run(&LineMatch, &text).unwrap();
        assert_eq!(out.pairs.len(), 15); // i in 0,7,...,98
                                         // ByKey default order: offsets ascending.
        for w in out.pairs.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
    }

    struct PanickingJob;

    impl Job for PanickingJob {
        type Key = u8;
        type Value = u8;

        fn map(&self, _chunk: InputChunk<'_>, _emitter: &mut Emitter<'_, u8, u8>) {
            panic!("map exploded");
        }

        fn reduce(&self, _key: &u8, _values: &mut ValueIter<'_, u8>) -> Option<u8> {
            None
        }
    }

    #[test]
    fn worker_panic_is_an_error_not_a_crash() {
        let runtime = Runtime::new(PhoenixConfig::with_workers(2));
        match runtime.run(&PanickingJob, b"data here") {
            Err(PhoenixError::WorkerPanicked { phase }) => assert_eq!(phase, "map"),
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }

    #[test]
    fn reduce_returning_none_drops_keys() {
        struct DropOdd;
        impl Job for DropOdd {
            type Key = u64;
            type Value = u64;
            fn map(&self, chunk: InputChunk<'_>, emitter: &mut Emitter<'_, u64, u64>) {
                for &b in chunk.bytes() {
                    emitter.emit(b as u64, 1);
                }
            }
            fn reduce(&self, key: &u64, values: &mut ValueIter<'_, u64>) -> Option<u64> {
                if key.is_multiple_of(2) {
                    Some(values.sum())
                } else {
                    None
                }
            }
            fn split_spec(&self) -> SplitSpec {
                SplitSpec::bytes()
            }
        }
        let runtime = Runtime::new(PhoenixConfig::with_workers(2).chunk_bytes(4));
        let out = runtime.run(&DropOdd, &[1, 2, 3, 4, 2, 2]).unwrap();
        assert_eq!(out.pairs, vec![(2, 3), (4, 1)]);
        assert_eq!(out.stats.distinct_keys, 4);
        assert_eq!(out.stats.output_pairs, 2);
    }

    #[test]
    fn tracer_records_the_span_tree() {
        let text = sample_text();
        let tracer = Tracer::enabled();
        let runtime = Runtime::new(PhoenixConfig::with_workers(2).chunk_bytes(256))
            .with_tracer(tracer.clone());
        let out = runtime.run(&MiniWordCount, &text).unwrap();
        let trace = mcsd_obs::export::jsonl(&tracer);
        for name in [
            SPAN_PHOENIX_JOB,
            SPAN_PHOENIX_SPLIT,
            SPAN_PHOENIX_MAP,
            SPAN_PHOENIX_REDUCE,
            SPAN_PHOENIX_MERGE,
        ] {
            assert!(
                trace.contains(&format!("\"name\":\"{name}\"")),
                "missing {name} in trace:\n{trace}"
            );
        }
        // The map leaf is input_bytes ticks wide: work-proportional, never
        // wall-clock.
        assert!(trace.contains(&format!("\"input_bytes\":\"{}\"", out.stats.input_bytes)));
    }

    #[test]
    fn traced_runs_are_byte_identical() {
        let text = sample_text();
        let mut traces = Vec::new();
        for _ in 0..2 {
            let tracer = Tracer::enabled();
            let runtime = Runtime::new(PhoenixConfig::with_workers(4).chunk_bytes(97))
                .with_tracer(tracer.clone());
            runtime.run(&MiniWordCount, &text).unwrap();
            traces.push(mcsd_obs::export::jsonl(&tracer));
        }
        assert_eq!(traces[0], traces[1], "trace must not depend on scheduling");
    }

    #[test]
    fn invalid_config_is_rejected_before_running() {
        let cfg = PhoenixConfig {
            workers: 0,
            ..PhoenixConfig::with_workers(1)
        };
        let runtime = Runtime::new(cfg);
        assert_eq!(
            runtime.run(&MiniWordCount, b"a b c").unwrap_err(),
            PhoenixError::NoWorkers
        );
    }
}
