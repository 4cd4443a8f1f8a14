//! Word Count (paper §V-A).
//!
//! "The Map tasks process different sections of the input files and return
//! intermediate data ⟨key, value⟩ that consist of a word and a value of 1.
//! Then the Reduce tasks add up the values for each identity word. Finally,
//! the words are sorted and printed out in accordance with the frequency in
//! decreasing order."

use mcsd_phoenix::hash::WordState;
use mcsd_phoenix::prelude::*;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Working-set-to-input ratio for Word Count. The paper quotes "around
/// three times of the input data size" (§V-C) but its own threshold data —
/// "McSD can only make slightly improvement when the data size are 500MB
/// and 750MB (below the threshold)" on 2 GB nodes — places the steady
/// working set at ≈2.4× (750 MB × 2.4 ≈ the ~1.8 GB available after the
/// OS); the 3× figure includes transient peaks. We calibrate to the
/// threshold the paper measures.
pub const WC_FOOTPRINT_FACTOR: f64 = 2.4;

/// The Word Count MapReduce job.
#[derive(Debug, Clone, Copy, Default)]
pub struct WordCount;

impl WordCount {
    /// The merge function for partitioned runs: per-fragment counts of the
    /// same word are summed.
    pub fn merger() -> SumMerger<fn(&mut u64, u64)> {
        SumMerger::new(|acc: &mut u64, v: u64| *acc += v)
    }

    /// Word Count's output order: frequency descending, then word ascending
    /// for determinism — of owned pairs ([`Job::compare_output`]) and of
    /// pairs borrowed from the Merge function's run alike.
    pub fn order(a: (&str, u64), b: (&str, u64)) -> Ordering {
        b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0))
    }

    /// Tokenize a byte slice into words (whitespace-separated, non-empty).
    pub fn words(text: &[u8]) -> impl Iterator<Item = &[u8]> {
        text.split(|b| b.is_ascii_whitespace())
            .filter(|w| !w.is_empty())
    }
}

/// A word keyed by its bytes alone, no length prefix: [`WordState`] mixes it.
#[derive(PartialEq, Eq)]
pub(crate) struct Word<'a>(pub(crate) &'a [u8]);

impl Hash for Word<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write(self.0)
    }
}

impl Job for WordCount {
    type Key = String;
    type Value = u64;

    fn map(&self, chunk: InputChunk<'_>, emitter: &mut Emitter<'_, String, u64>) {
        // Aggregate within the chunk first, so a word is emitted once per
        // chunk — `emitted_pairs` counts distinct words per chunk, not
        // occurrences. A word of a valid-UTF-8 chunk is emitted as the
        // chunk's text it is, borrowed until the run's output or the Merge
        // function keeps it (DESIGN.md §19); only a word `from_utf8_lossy`
        // had to repair is copied. The table is sized once, for what a
        // default 64 KiB chunk of text holds at most: grown from empty for
        // every chunk it was a quarter of the job's allocated bytes.
        let distinct = (chunk.len() / 16).min(4096);
        let mut local = HashMap::with_capacity_and_hasher(distinct, WordState::default());
        for word in Self::words(chunk.bytes()) {
            *local.entry(Word(word)).or_insert(0) += 1;
        }
        let text_of = |word: &[u8]| {
            let at = word.as_ptr() as usize - chunk.bytes().as_ptr() as usize;
            chunk.text()?.get(at..at + word.len())
        };
        for (Word(word), count) in local {
            match text_of(word) {
                Some(text) => emitter.emit_ref(text, count),
                None => emitter.emit_ref(&String::from_utf8_lossy(word), count),
            }
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

    fn split_spec(&self) -> SplitSpec {
        SplitSpec::whitespace()
    }

    fn output_order(&self) -> OutputOrder {
        OutputOrder::Custom
    }

    fn compare_output(&self, a: &(String, u64), b: &(String, u64)) -> Ordering {
        Self::order((&a.0, a.1), (&b.0, b.1))
    }

    fn footprint_factor(&self) -> f64 {
        WC_FOOTPRINT_FACTOR
    }

    fn name(&self) -> &str {
        "wordcount"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq;
    use crate::textgen::TextGen;
    use mcsd_phoenix::{PhoenixConfig, Runtime};

    #[test]
    fn counts_simple_text() {
        let rt = Runtime::new(PhoenixConfig::with_workers(2));
        let out = rt
            .run(&WordCount, b"the cat and the hat and the bat")
            .unwrap();
        assert_eq!(out.pairs[0], ("the".to_string(), 3));
        assert_eq!(out.pairs[1], ("and".to_string(), 2));
        assert_eq!(out.pairs.len(), 5);
    }

    #[test]
    fn matches_sequential_reference_on_zipf_text() {
        let text = TextGen::with_seed(11).generate(50_000);
        let rt = Runtime::new(PhoenixConfig::with_workers(4).chunk_bytes(4096));
        let out = rt.run(&WordCount, &text).unwrap();
        let reference = seq::wordcount(&text);
        assert_eq!(out.pairs, reference);
    }

    #[test]
    fn partitioned_matches_whole() {
        let text = TextGen::with_seed(5).generate(30_000);
        let rt = Runtime::new(PhoenixConfig::with_workers(2).chunk_bytes(2048));
        let whole = rt.run(&WordCount, &text).unwrap();
        let part =
            mcsd_phoenix::PartitionedRuntime::new(rt, mcsd_phoenix::PartitionSpec::new(7000));
        let out = part.run(&WordCount, &text, &WordCount::merger()).unwrap();
        assert_eq!(whole.pairs, out.pairs);
        assert!(out.stats.fragments >= 4);
    }

    #[test]
    fn output_sorted_by_frequency_desc() {
        let text = TextGen::with_seed(2).generate(20_000);
        let rt = Runtime::new(PhoenixConfig::with_workers(2));
        let out = rt.run(&WordCount, &text).unwrap();
        for w in out.pairs.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn combiner_compresses_across_chunks() {
        // Map already aggregates within a chunk, so the emitter-level
        // combiner's job is folding duplicates *across* chunks: with a
        // small vocabulary every chunk emits the same words.
        let gen = TextGen {
            vocab_size: 300,
            ..TextGen::with_seed(8)
        };
        let text = gen.generate(40_000);
        let rt = Runtime::new(PhoenixConfig::with_workers(2).chunk_bytes(8192));
        let out = rt.run(&WordCount, &text).unwrap();
        assert!(
            out.stats.combine_ratio() > 1.5,
            "{}",
            out.stats.combine_ratio()
        );
    }

    #[test]
    fn words_tokenizer_skips_empties() {
        let words: Vec<&[u8]> = WordCount::words(b"  a\n\nb  c  ").collect();
        assert_eq!(words, vec![&b"a"[..], b"b", b"c"]);
    }
}
