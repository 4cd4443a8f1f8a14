//! The McSD Partition/Merge extension (paper §IV-B/C, Fig. 6).
//!
//! Stock Phoenix keeps both the input and all intermediate pairs in memory,
//! so it "does not support any application whose required data size exceeds
//! approximately 60% of a computing node's memory size" — a real problem on
//! smart-storage nodes, whose memory is small compared to front-end compute
//! nodes. The McSD solution: partition the input into fragments that fit in
//! memory, run the MapReduce procedure per fragment, and fold the
//! per-fragment outputs with a user-supplied **Merge** function ("the
//! Partition function is provided by the runtime system, while the Merge
//! function needs to be programmed by the user").
//!
//! Fragment boundaries are legalized with the integrity check of Fig. 7 so
//! no record is cut in half: every plan here is
//! [`Splitter::split`](crate::splitter::Splitter::split) at fragment size,
//! over a slice or over a file that is never loaded, and every entry of
//! [`PartitionedRuntime`] is the same fragment sweep over one of the two.

use crate::config::OutputOrder;
use crate::emitter::{InterKey, TextKey};
use crate::error::PhoenixError;
use crate::hash::{PassThrough, WordState};
use crate::job::Job;
use crate::memory::MemoryModel;
use crate::runtime::{JobOutput, Runtime, TRACE_TRACK};
use crate::sort::parallel_sort_by;
use crate::splitter::{SplitSpec, Splitter};
use crate::stats::JobStats;
use crate::stopwatch::Stopwatch;
use mcsd_obs::names::SPAN_PHOENIX_PARTITIONED;
use mcsd_obs::ClockDomain;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::fs::File;
use std::hash::BuildHasher;
use std::io::{Read, Seek, SeekFrom};
use std::ops::Range;
use std::path::Path;

/// Out-of-core partitioning parameters — the `[partition-size]` argument of
/// the paper's `wordcount [data-file] [partition-size]` example.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionSpec {
    /// Target fragment size in bytes (before integrity-check displacement).
    pub fragment_bytes: usize,
}

impl PartitionSpec {
    /// A spec with an explicitly chosen fragment size (the paper's
    /// "manually filled in by the programmer").
    pub fn new(fragment_bytes: usize) -> Self {
        PartitionSpec { fragment_bytes }
    }

    /// Pick a fragment size automatically from the node's memory model
    /// (the paper's "automatically determined by the runtime system"):
    /// the largest fragment whose working set still fits in available
    /// memory, with a 10% safety margin.
    pub fn auto(memory: &MemoryModel, footprint_factor: f64) -> Self {
        let budget = memory.available_bytes() as f64 * 0.9;
        let fragment = (budget / footprint_factor.max(1.0)) as usize;
        PartitionSpec {
            fragment_bytes: fragment.max(1),
        }
    }

    /// Parse a `[partition-size]` argument: `auto` is [`PartitionSpec::auto`]
    /// for `memory`, anything else a [`parse_size_label`] of at least one
    /// byte.
    pub fn parse(arg: &str, memory: &MemoryModel, footprint_factor: f64) -> Option<Self> {
        match arg {
            "auto" => Some(Self::auto(memory, footprint_factor)),
            _ => parse_size_label(arg)
                .filter(|&bytes| bytes > 0)
                .map(|bytes| Self::new(bytes as usize)),
        }
    }

    /// Validate the spec.
    pub fn validate(&self) -> Result<(), PhoenixError> {
        if self.fragment_bytes == 0 {
            Err(PhoenixError::EmptyPartitionSize)
        } else {
            Ok(())
        }
    }
}

/// Parse a size as the paper writes one — `600M`, `1.5G`, `64K` (binary
/// multiples) or raw bytes — into bytes.
pub fn parse_size_label(label: &str) -> Option<u64> {
    let label = label.trim();
    let (num, mult): (&str, u64) = if let Some(n) = label.strip_suffix('G') {
        (n, 1 << 30)
    } else if let Some(n) = label.strip_suffix('M') {
        (n, 1 << 20)
    } else if let Some(n) = label.strip_suffix('K') {
        (n, 1 << 10)
    } else {
        (label, 1)
    };
    let value: f64 = num.parse().ok()?;
    (value >= 0.0).then_some((value * mult as f64) as u64)
}

/// Final ordering of output pairs, per the job's declared [`OutputOrder`]
/// — shared by [`Runtime::run_at`], the fragment sweep and the multi-SD
/// host merge (which sorts with one worker).
pub fn sort_output<J: Job>(job: &J, pairs: &mut Vec<(J::Key, J::Value)>, workers: usize) {
    match job.output_order() {
        OutputOrder::ByKey => parallel_sort_by(pairs, workers, |a, b| a.0.cmp(&b.0)),
        OutputOrder::Custom => parallel_sort_by(pairs, workers, |a, b| job.compare_output(a, b)),
    }
}

/// The fragment layout the Partition function chose for an input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionPlan {
    /// Byte ranges of the fragments; contiguous and covering the input.
    pub fragments: Vec<Range<usize>>,
}

impl PartitionPlan {
    /// Plan fragments of roughly `spec.fragment_bytes` each, with
    /// boundaries legalized by the job's split spec.
    pub fn plan(data: &[u8], spec: PartitionSpec, split: &SplitSpec) -> Self {
        let fragments = Splitter::new(split.clone()).split(data, spec.fragment_bytes);
        PartitionPlan { fragments }
    }

    /// Plan fragments over a *file* without loading it: only a small
    /// window around each proposed cut is read to run the integrity
    /// check. This is what makes partitioning genuinely out-of-core —
    /// "supporting huge datasets whose size may exceed the memory
    /// capacity of a McSD storage node" (§IV-B).
    pub fn plan_file(
        path: &Path,
        spec: PartitionSpec,
        split: &SplitSpec,
    ) -> Result<PlanOnFile, PhoenixError> {
        let mut file = File::open(path)?;
        let splitter = Splitter::new(split.clone());
        let fragments = splitter.split_file(&mut file, &mut Vec::new(), spec.fragment_bytes)?;
        // The fragments cover the file, so the last one ends at its length.
        let file_len = fragments.last().map_or(0, |f| f.end);
        let plan = PartitionPlan { fragments };
        Ok(PlanOnFile { plan, file_len })
    }

    /// Number of fragments.
    pub fn len(&self) -> usize {
        self.fragments.len()
    }

    /// Whether the plan is empty (empty input).
    pub fn is_empty(&self) -> bool {
        self.fragments.is_empty()
    }
}

/// A fragment plan computed directly over a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanOnFile {
    /// The fragment layout.
    pub plan: PartitionPlan,
    /// Total file length in bytes.
    pub file_len: usize,
}

/// User-programmed Merge function folding per-fragment outputs into a final
/// result (Fig. 6's "Merge" box).
///
/// The Merge function is who owns a key (DESIGN.md §19): a fragment's keys
/// arrive as [`InterKey`]s, input text still borrowed from the fragment
/// buffer, which is refilled once `merge` returns. A key the accumulator
/// keeps must outlive that buffer — [`SumMerger`] copies its text into the
/// run's one arena, and only `finish` makes it owned, once; a key it already
/// holds is found by hash, compared ([`InterKey::cmp_key`]) and dropped
/// without ever having been copied.
pub trait Merger<J: Job>: Sync {
    /// Accumulator carried across fragments.
    type Acc: Send;

    /// Fresh accumulator.
    fn empty(&self) -> Self::Acc;

    /// Fold one fragment's output pairs — reduced partitions in no key
    /// order: only `finish` + [`sort_output`], or a caller's own sort,
    /// applies one — into the accumulator.
    fn merge(&self, acc: &mut Self::Acc, fragment: Vec<(InterKey<'_, J::Key>, J::Value)>);

    /// Turn the accumulator into final output pairs (unsorted; the driver
    /// applies the job's output order).
    fn finish(&self, acc: Self::Acc) -> Vec<(J::Key, J::Value)>;
}

/// Merge by key, folding values with the job's combiner semantics. The
/// right merger for Word Count: per-fragment counts for the same word are
/// summed. The accumulator is one [`SumRun`] that each fragment's keys are
/// looked up in by hash, so only a key no earlier fragment held is kept —
/// input text by a copy into the run's arena, which allocates nothing per
/// key — in the order keys were first seen.
pub struct SumMerger<F> {
    fold: F,
}

impl<F> SumMerger<F> {
    /// `fold(acc_value, next_value)` must be associative and agree with the
    /// job's reduce semantics.
    pub fn new(fold: F) -> Self {
        SumMerger { fold }
    }
}

impl<J, F> Merger<J> for SumMerger<F>
where
    J: Job,
    F: Fn(&mut J::Value, J::Value) + Sync,
{
    type Acc = SumRun<J::Key, J::Value>;

    fn empty(&self) -> Self::Acc {
        SumRun {
            pairs: Vec::new(),
            arena: Arena {
                text: String::new(),
                as_text: None,
            },
            index: HashMap::default(),
        }
    }

    fn merge(&self, acc: &mut Self::Acc, fragment: Vec<(InterKey<'_, J::Key>, J::Value)>) {
        let SumRun {
            pairs: run,
            arena,
            index,
        } = acc;
        // The run and its index hold at least the keys of its largest
        // fragment, and the arena at least their text.
        let more = fragment.len().saturating_sub(run.len());
        run.reserve(more);
        index.reserve(more);
        arena.reserve(&fragment);
        for (key, value) in fragment {
            // A key whose hash a different key holds probes on to the next
            // hash value; no entry is ever removed, so its walk finds it.
            let mut probe = WordState::default().hash_one(&key);
            let other = |i: &&usize| !arena.holds(&key, &run[**i].0);
            while index.get(&probe).filter(other).is_some() {
                probe = probe.wrapping_add(1);
            }
            match index.get(&probe) {
                Some(&i) => (self.fold)(&mut run[i].1, value),
                None => {
                    index.insert(probe, run.len());
                    run.push((arena.hold(key), value));
                }
            }
        }
    }

    fn finish(&self, acc: Self::Acc) -> Vec<(J::Key, J::Value)> {
        let SumRun { pairs, arena, .. } = acc;
        pairs
            .into_iter()
            .filter_map(|(key, value)| Some((arena.own(key)?, value)))
            .collect()
    }
}

/// [`SumMerger`]'s accumulator: one run of folded pairs, first seen
/// first, and a hash index over it. A key handed over owned is moved in as
/// it is; input text is copied into one arena per run and held as a span of
/// it, so holding a word allocates nothing of its own — until
/// [`Merger::finish`] owns it, or never, for a caller that reads the words
/// through [`SumRun::texts`].
pub struct SumRun<K, V> {
    pairs: Vec<(Held<K>, V)>,
    arena: Arena<K>,
    /// Where each key is in `pairs`, by its hash (or the next free value).
    index: HashMap<u64, usize, PassThrough>,
}

/// A key a [`SumRun`] holds: owned, or a span of its arena — as wide as
/// an owned `String`, so a run of `String` keys finishes in place.
enum Held<K> {
    Owned(K),
    Text(Range<usize>),
}

/// The text a [`SumRun`]'s spans are cut from.
struct Arena<K> {
    text: String,
    /// How `K` stands for text, taken from the first input key copied in —
    /// so it is set whenever a span exists.
    as_text: Option<TextKey<K>>,
}

impl<K: Borrow<str>, V> SumRun<K, V> {
    /// The run's pairs in the order their keys were first seen, not in key
    /// order, every key as text borrowed from the run: [`Merger::finish`]
    /// without a key made owned.
    pub fn texts(&self) -> impl ExactSizeIterator<Item = (&str, &V)> + '_ {
        self.pairs.iter().map(|(key, value)| {
            let text = match key {
                Held::Owned(own) => own.borrow(),
                Held::Text(span) => self.arena.slice(span),
            };
            (text, value)
        })
    }
}

impl<K> Arena<K> {
    fn slice(&self, span: &Range<usize>) -> &str {
        &self.text[span.clone()]
    }
}

impl<K: Ord> Arena<K> {
    /// Room for the input text of `fragment`, once: grown key by key from
    /// empty the arena is reallocated at every doubling.
    fn reserve<V>(&mut self, fragment: &[(InterKey<'_, K>, V)]) {
        let text = fragment.iter().map(|(key, _)| match key {
            InterKey::Input(text, _) => text.len(),
            InterKey::Owned(_) => 0,
        });
        self.text
            .reserve(text.sum::<usize>().saturating_sub(self.text.len()));
    }

    /// Keep `key`: input text is copied in as a span, an owned key moved.
    fn hold(&mut self, key: InterKey<'_, K>) -> Held<K> {
        match key {
            InterKey::Owned(own) => Held::Owned(own),
            InterKey::Input(text, as_text) => {
                let start = self.text.len();
                self.text.push_str(text);
                self.as_text.get_or_insert(*as_text);
                Held::Text(start..self.text.len())
            }
        }
    }

    /// The owned key: for a span, its one allocation.
    fn own(&self, key: Held<K>) -> Option<K> {
        match key {
            Held::Owned(own) => Some(own),
            Held::Text(span) => {
                Some(InterKey::Input(self.slice(&span), self.as_text.as_ref()?).into_owned())
            }
        }
    }

    /// Whether a fragment's key is a held one.
    fn holds(&self, key: &InterKey<'_, K>, held: &Held<K>) -> bool {
        match (key, held) {
            (_, Held::Owned(own)) => key.cmp_key(own).is_eq(),
            (InterKey::Input(text, _), Held::Text(span)) => *text == self.slice(span),
            (InterKey::Owned(own), Held::Text(span)) => (self.as_text.as_ref())
                .is_some_and(|t| InterKey::Input(self.slice(span), t).cmp_key(own).is_eq()),
        }
    }
}

/// Concatenate fragment outputs. The right merger for map-only jobs whose
/// keys never repeat across fragments (String Match's byte-offset keys,
/// Matrix Multiplication's row/column keys) — so it owns every key.
pub struct ConcatMerger;

impl<J: Job> Merger<J> for ConcatMerger {
    type Acc = Vec<(J::Key, J::Value)>;

    fn empty(&self) -> Self::Acc {
        Vec::new()
    }

    fn merge(&self, acc: &mut Self::Acc, fragment: Vec<(InterKey<'_, J::Key>, J::Value)>) {
        acc.extend(fragment.into_iter().map(|(k, v)| (k.into_owned(), v)));
    }

    fn finish(&self, acc: Self::Acc) -> Vec<(J::Key, J::Value)> {
        acc
    }
}

/// The two-stage MapReduce driver of Fig. 6: Partition → (Split → Map →
/// Reduce → Merge)ⁿ → Merge.
#[derive(Debug, Clone)]
pub struct PartitionedRuntime {
    runtime: Runtime,
    spec: PartitionSpec,
}

impl PartitionedRuntime {
    /// Wrap a Phoenix runtime with a partitioning stage.
    pub fn new(runtime: Runtime, spec: PartitionSpec) -> Self {
        PartitionedRuntime { runtime, spec }
    }

    /// The inner runtime.
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// The partition spec.
    pub fn spec(&self) -> PartitionSpec {
        self.spec
    }

    /// Run `job` over `input` fragment by fragment, folding outputs with
    /// `merger`.
    pub fn run<J, M>(
        &self,
        job: &J,
        input: &[u8],
        merger: &M,
    ) -> Result<JobOutput<J::Key, J::Value>, PhoenixError>
    where
        J: Job,
        M: Merger<J>,
    {
        self.run_at(job, input, 0, merger)
    }

    /// Like [`PartitionedRuntime::run`], but `input` is itself a span of a
    /// larger dataset starting at `base_offset` (the multi-SD scale-out
    /// case): map tasks observe fully global offsets.
    pub fn run_at<J, M>(
        &self,
        job: &J,
        input: &[u8],
        base_offset: usize,
        merger: &M,
    ) -> Result<JobOutput<J::Key, J::Value>, PhoenixError>
    where
        J: Job,
        M: Merger<J>,
    {
        let (acc, stats) = self.sweep(job, merger, || Ok(Source::Memory(input, base_offset)))?;
        Ok(self.finish(job, merger, acc, stats))
    }

    /// Run `job` over a *file*, fragment by fragment, never holding more
    /// than one fragment in memory — true out-of-core execution: the
    /// dataset may exceed not just the memory model's limit but the real
    /// machine's RAM. Boundary legalization reads only small windows
    /// around the cuts.
    pub fn run_file<J, M>(
        &self,
        job: &J,
        path: &Path,
        merger: &M,
    ) -> Result<JobOutput<J::Key, J::Value>, PhoenixError>
    where
        J: Job,
        M: Merger<J>,
    {
        let (acc, stats) = self.merge_file(job, path, merger)?;
        Ok(self.finish(job, merger, acc, stats))
    }

    /// [`PartitionedRuntime::run_file`] up to its Merge function's
    /// accumulator: every fragment folded, nothing finished or ordered —
    /// for a caller that reads the accumulator in place (a Word Count
    /// module encodes from [`SumRun::texts`]). The stats are the run's,
    /// bar `output_pairs`, which only a finished run knows.
    pub fn merge_file<J, M>(
        &self,
        job: &J,
        path: &Path,
        merger: &M,
    ) -> Result<(M::Acc, JobStats), PhoenixError>
    where
        J: Job,
        M: Merger<J>,
    {
        self.sweep(job, merger, || {
            Ok(Source::File(File::open(path)?, Vec::new()))
        })
    }

    /// The end of every entry that returns pairs: the Merge function's
    /// `finish`, then the job's order, timed as merge work.
    fn finish<J, M>(
        &self,
        job: &J,
        merger: &M,
        acc: M::Acc,
        mut stats: JobStats,
    ) -> JobOutput<J::Key, J::Value>
    where
        J: Job,
        M: Merger<J>,
    {
        let t0 = Stopwatch::start();
        let mut pairs = merger.finish(acc);
        sort_output(job, &mut pairs, self.runtime.config().workers);
        stats.timings.merge += t0.elapsed();
        stats.output_pairs = pairs.len() as u64;
        JobOutput { pairs, stats }
    }

    /// The one fragment sweep behind every entry: plan the fragments of
    /// the source `open` yields, run each on the inner runtime as far as
    /// reduce, and fold the reduced pairs — keys not yet owned, order not
    /// yet applied: the Merge function destroys any order anyway — with
    /// `merger`. Each fragment's own `phoenix.job` tree nests inside one
    /// `phoenix.partitioned` span (when traced).
    fn sweep<'a, J, M>(
        &self,
        job: &J,
        merger: &M,
        open: impl FnOnce() -> Result<Source<'a>, PhoenixError>,
    ) -> Result<(M::Acc, JobStats), PhoenixError>
    where
        J: Job,
        M: Merger<J>,
    {
        self.spec.validate()?;
        self.runtime.config().validate()?;

        let t0 = Stopwatch::start();
        let mut source = open()?;
        let splitter = Splitter::new(job.split_spec());
        let fragments = match &mut source {
            Source::Memory(data, _) => splitter.split(data, self.spec.fragment_bytes),
            Source::File(file, buf) => {
                let fragments = splitter.split_file(file, buf, self.spec.fragment_bytes)?;
                // Room for the longest fragment, once: a buffer left to grow
                // on demand doubles when the second fragment is a word
                // longer than the first, and then holds two fragments' worth.
                let longest = fragments.iter().map(Range::len).max().unwrap_or(0);
                buf.reserve_exact(longest.saturating_sub(buf.len()));
                fragments
            }
        };
        let plan_time = t0.elapsed();

        let mut agg_stats = JobStats {
            job: job.name().to_string(),
            workers: self.runtime.config().workers,
            fragments: 0,
            ..Default::default()
        };
        agg_stats.timings.split += plan_time;

        let tracer = self.runtime.tracer();
        let span = tracer.is_enabled().then(|| {
            let track = tracer.track(TRACE_TRACK, ClockDomain::Work);
            let span = tracer.open_with(track, SPAN_PHOENIX_PARTITIONED, |a| {
                a.str("job", job.name());
                a.u64("fragments", fragments.len() as u64);
            });
            (track, span)
        });
        let mut acc = merger.empty();
        let mut merge_time = std::time::Duration::ZERO;
        let mut table_keys = 0;
        let fragment_loop = (|| -> Result<(), PhoenixError> {
            for range in &fragments {
                let (bytes, offset) = source.load(range)?;
                let out = self
                    .runtime
                    .reduce_at(job, bytes, offset, &mut table_keys)?;
                agg_stats.accumulate(&out.stats);
                let t0 = Stopwatch::start();
                merger.merge(&mut acc, out.pairs);
                merge_time += t0.elapsed();
            }
            Ok(())
        })();
        if let Some((track, span)) = span {
            tracer.close(track, span);
        }
        fragment_loop?;
        agg_stats.timings.merge += merge_time;
        Ok((acc, agg_stats))
    }
}

/// Where a sweep's fragments come from.
enum Source<'a> {
    /// A span in memory that starts at this offset of the whole dataset.
    Memory(&'a [u8], usize),
    /// A file, and the one buffer every scan window and every fragment is
    /// read into — never more than one fragment of it is in memory.
    File(File, Vec<u8>),
}

impl Source<'_> {
    /// The bytes of fragment `range` and their global offset.
    fn load(&mut self, range: &Range<usize>) -> std::io::Result<(&[u8], usize)> {
        match self {
            Source::Memory(data, base) => Ok((&data[range.clone()], *base + range.start)),
            Source::File(file, buf) => {
                buf.resize(range.len(), 0);
                file.seek(SeekFrom::Start(range.start as u64))?;
                file.read_exact(buf)?;
                Ok((buf, range.start))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PhoenixConfig;
    use crate::emitter::Emitter;
    use crate::integrity::{Delimiter, IntegrityCheck};
    use crate::job::{InputChunk, ValueIter};
    use std::cmp::Ordering as CmpOrdering;

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
            "wc"
        }
    }

    fn text(words: usize) -> Vec<u8> {
        let vocab = ["red", "green", "blue", "cyan", "magenta"];
        let mut s = String::new();
        for i in 0..words {
            s.push_str(vocab[(i * i) % vocab.len()]);
            s.push(if i % 11 == 0 { '\n' } else { ' ' });
        }
        s.into_bytes()
    }

    #[test]
    fn partitioned_equals_non_partitioned() {
        let data = text(2000);
        let rt = Runtime::new(PhoenixConfig::with_workers(2).chunk_bytes(256));
        let whole = rt.run(&Wc, &data).unwrap();
        let part = PartitionedRuntime::new(rt, PartitionSpec::new(1024));
        let merger = SumMerger::new(|acc: &mut u64, v: u64| *acc += v);
        let pieces = part.run(&Wc, &data, &merger).unwrap();
        assert_eq!(whole.pairs, pieces.pairs);
        assert!(pieces.stats.fragments > 1);
        // The same sweep over a file, stopped at the Merge function's run:
        // its borrowed words, ordered, are the run's pairs.
        let path = temp_file(&data);
        let (run, stats) = part.merge_file(&Wc, &path, &merger).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(stats.fragments, pieces.stats.fragments);
        let mut viewed: Vec<_> = run.texts().map(|(w, &n)| (w.to_string(), n)).collect();
        viewed.sort_by(|a, b| Wc.compare_output(a, b));
        assert_eq!(viewed, whole.pairs);
    }

    #[test]
    fn partitioning_avoids_memory_overflow() {
        let data = text(4000);
        let mem = MemoryModel::new(data.len() as u64 / 2); // input is 2x memory
        let cfg = PhoenixConfig::with_workers(2).memory(mem);
        let rt = Runtime::new(cfg);
        // Non-partitioned: hard overflow.
        assert!(matches!(
            rt.run(&Wc, &data),
            Err(PhoenixError::MemoryOverflow { .. })
        ));
        // Partitioned with auto fragment size: succeeds without swap.
        let spec = PartitionSpec::auto(&mem, Wc.footprint_factor());
        let part = PartitionedRuntime::new(rt, spec);
        let merger = SumMerger::new(|acc: &mut u64, v: u64| *acc += v);
        let out = part.run(&Wc, &data, &merger).unwrap();
        assert_eq!(out.stats.swapped_bytes, 0);
        assert!(out.stats.fragments >= 2);
        assert!(!out.pairs.is_empty());
    }

    #[test]
    fn auto_spec_fits_memory() {
        let mem = MemoryModel::new(10_000);
        let spec = PartitionSpec::auto(&mem, 3.0);
        // fragment * factor must fit the available budget
        assert!((spec.fragment_bytes as f64) * 3.0 <= mem.available_bytes() as f64);
        assert!(spec.fragment_bytes > 0);
    }

    #[test]
    fn plan_covers_input_on_word_boundaries() {
        let data = text(500);
        let plan = PartitionPlan::plan(&data, PartitionSpec::new(100), &SplitSpec::whitespace());
        let ic = IntegrityCheck::Delimited(Delimiter::Whitespace);
        let mut pos = 0;
        for f in &plan.fragments {
            assert_eq!(f.start, pos);
            assert!(f.end > f.start);
            assert!(ic.is_legal(&data, f.end));
            pos = f.end;
        }
        assert_eq!(pos, data.len());
    }

    #[test]
    fn partitioned_span_wraps_fragment_jobs() {
        let data = text(2000);
        let tracer = mcsd_obs::Tracer::enabled();
        let rt = Runtime::new(PhoenixConfig::with_workers(2).chunk_bytes(256))
            .with_tracer(tracer.clone());
        let part = PartitionedRuntime::new(rt, PartitionSpec::new(1024));
        let merger = SumMerger::new(|acc: &mut u64, v: u64| *acc += v);
        let out = part.run(&Wc, &data, &merger).unwrap();
        let trace = mcsd_obs::export::jsonl(&tracer);
        let opens: Vec<&str> = trace
            .lines()
            .filter(|l| l.contains("\"type\":\"span_open\""))
            .collect();
        assert!(
            opens[0].contains(SPAN_PHOENIX_PARTITIONED),
            "outermost span must be the partitioned wrapper: {}",
            opens[0]
        );
        let jobs = opens
            .iter()
            .filter(|l| l.contains("\"name\":\"phoenix.job\""))
            .count() as u64;
        assert_eq!(jobs, out.stats.fragments, "one phoenix.job per fragment");
    }

    #[test]
    fn sum_merger_folds_owned_borrowed_and_repeated_keys_into_one_run() {
        let merger = SumMerger::new(|acc: &mut u64, v: u64| *acc += v);
        let owned = |k: &str, v| (InterKey::Owned(k.to_string()), v);
        let input = |k, v| (InterKey::Input(k, &crate::emitter::TextKey::TABLE), v);
        let mut acc = <SumMerger<_> as Merger<Wc>>::empty(&merger);
        // In no key order, as reduce leaves them; `b` twice, in both forms.
        let fragment = vec![owned("b", 1), input("d", 1), input("a", 1), input("b", 1)];
        Merger::<Wc>::merge(&merger, &mut acc, fragment);
        // Keys new and held, in both forms.
        let fragment = vec![input("e", 5), owned("c", 5), owned("d", 5), input("0", 5)];
        Merger::<Wc>::merge(&merger, &mut acc, fragment);
        // The borrowed view holds each key once, folded: the same multiset
        // as the finished run.
        let mut viewed: Vec<_> = acc.texts().map(|(k, &v)| (k.to_string(), v)).collect();
        viewed.sort();
        let expect = [("0", 5), ("a", 1), ("b", 2), ("c", 5), ("d", 6), ("e", 5)];
        let expect: Vec<_> = expect.iter().map(|&(k, v)| (k.to_string(), v)).collect();
        assert_eq!(viewed, expect);
        // Order comes from `finish` + `sort_output` alone: count
        // descending, then key.
        let mut finished = Merger::<Wc>::finish(&merger, acc);
        sort_output(&Wc, &mut finished, 1);
        let order = [("d", 6), ("0", 5), ("c", 5), ("e", 5), ("b", 2), ("a", 1)];
        let order: Vec<_> = order.iter().map(|&(k, v)| (k.to_string(), v)).collect();
        assert_eq!(finished, order);
    }

    #[test]
    fn a_run_of_owned_keys_finishes_in_its_own_buffer() {
        // The multi-SD host merge hands over owned keys only: owning them
        // again at `finish` must not cost a second vector.
        assert_eq!(
            std::mem::size_of::<(Held<String>, u64)>(),
            std::mem::size_of::<(String, u64)>()
        );
        let merger = SumMerger::new(|acc: &mut u64, v: u64| *acc += v);
        let mut acc = <SumMerger<_> as Merger<Wc>>::empty(&merger);
        let owned = |k: usize| (InterKey::Owned(format!("w{k:03}")), 1);
        Merger::<Wc>::merge(&merger, &mut acc, (0..100).map(owned).collect());
        let buffer = acc.pairs.as_ptr() as usize;
        let pairs = Merger::<Wc>::finish(&merger, acc);
        assert_eq!(pairs.as_ptr() as usize, buffer);
        assert_eq!(pairs.len(), 100);
    }

    #[test]
    fn parse_labels() {
        assert_eq!(parse_size_label("500M"), Some(500 * 1024 * 1024));
        assert_eq!(parse_size_label("1G"), Some(1024 * 1024 * 1024));
        assert_eq!(
            parse_size_label("1.25G"),
            Some((1.25 * 1024.0 * 1024.0 * 1024.0) as u64)
        );
        assert_eq!(parse_size_label("2048"), Some(2048));
        assert_eq!(parse_size_label("64K"), Some(65536));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(parse_size_label("abcM"), None);
        assert_eq!(parse_size_label("-5G"), None);
        assert_eq!(parse_size_label(""), None);
    }

    #[test]
    fn partition_arg_is_auto_or_a_label_of_at_least_one_byte() {
        let memory = MemoryModel::new(1 << 20);
        let parse = |arg| PartitionSpec::parse(arg, &memory, 3.0);
        assert_eq!(parse("auto"), Some(PartitionSpec::auto(&memory, 3.0)));
        assert_eq!(parse("64K"), Some(PartitionSpec::new(65_536)));
        assert_eq!(parse("0"), None);
        assert_eq!(parse("bogus"), None);
    }

    #[test]
    fn zero_fragment_size_is_rejected() {
        let rt = Runtime::new(PhoenixConfig::with_workers(1));
        let part = PartitionedRuntime::new(rt, PartitionSpec::new(0));
        let merger = ConcatMerger;
        assert_eq!(
            part.run(&Wc, b"a b", &merger).unwrap_err(),
            PhoenixError::EmptyPartitionSize
        );
    }

    #[test]
    fn empty_input_partitioned() {
        let rt = Runtime::new(PhoenixConfig::with_workers(2));
        let part = PartitionedRuntime::new(rt, PartitionSpec::new(64));
        let merger = SumMerger::new(|acc: &mut u64, v: u64| *acc += v);
        let out = part.run(&Wc, b"", &merger).unwrap();
        assert!(out.pairs.is_empty());
        assert_eq!(out.stats.fragments, 0);
    }

    #[test]
    fn concat_merger_preserves_all_pairs() {
        struct ByteId;
        impl Job for ByteId {
            type Key = u64;
            type Value = u8;
            fn map(&self, chunk: InputChunk<'_>, emitter: &mut Emitter<'_, u64, u8>) {
                for (i, &b) in chunk.bytes().iter().enumerate() {
                    emitter.emit((chunk.global_offset() + i) as u64, b);
                }
            }
            fn reduce(&self, _k: &u64, values: &mut ValueIter<'_, u8>) -> Option<u8> {
                values.next().copied()
            }
            fn split_spec(&self) -> SplitSpec {
                SplitSpec::bytes()
            }
        }
        let data: Vec<u8> = (0..=255).collect();
        let rt = Runtime::new(PhoenixConfig::with_workers(2).chunk_bytes(16));
        let part = PartitionedRuntime::new(rt, PartitionSpec::new(50));
        let out = part.run(&ByteId, &data, &ConcatMerger).unwrap();
        assert_eq!(out.pairs.len(), 256);
        // ByKey order applies after merge: offsets ascending.
        for (i, (k, v)) in out.pairs.iter().enumerate() {
            assert_eq!(*k, i as u64);
            assert_eq!(*v, i as u8);
        }
    }

    fn temp_file(data: &[u8]) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let p = std::env::temp_dir().join(format!(
            "mcsd-part-{}-{}.bin",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&p, data).unwrap();
        p
    }

    #[test]
    fn run_file_missing_file_is_io_error() {
        let rt = Runtime::new(PhoenixConfig::with_workers(1));
        let part = PartitionedRuntime::new(rt, PartitionSpec::new(64));
        let merger = SumMerger::new(|acc: &mut u64, v: u64| *acc += v);
        match part.run_file(&Wc, std::path::Path::new("/nonexistent/x"), &merger) {
            Err(PhoenixError::Io { .. }) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn run_file_empty_file() {
        let path = temp_file(b"");
        let rt = Runtime::new(PhoenixConfig::with_workers(2));
        let part = PartitionedRuntime::new(rt, PartitionSpec::new(64));
        let merger = SumMerger::new(|acc: &mut u64, v: u64| *acc += v);
        let out = part.run_file(&Wc, &path, &merger).unwrap();
        assert!(out.pairs.is_empty());
        assert_eq!(out.stats.fragments, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fragment_stats_accumulate() {
        let data = text(1000);
        let rt = Runtime::new(PhoenixConfig::with_workers(2).chunk_bytes(128));
        let part = PartitionedRuntime::new(rt, PartitionSpec::new(512));
        let merger = SumMerger::new(|acc: &mut u64, v: u64| *acc += v);
        let out = part.run(&Wc, &data, &merger).unwrap();
        assert_eq!(out.stats.input_bytes, data.len() as u64);
        assert_eq!(out.stats.emitted_pairs, 1000);
        assert!(out.stats.fragments >= 2);
    }
}
