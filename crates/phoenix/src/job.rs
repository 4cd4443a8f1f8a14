//! The user-facing MapReduce programming interface.
//!
//! Mirrors Phoenix's functional API (paper §II-C): the programmer supplies
//! `map` and `reduce` (plus an optional combiner), and the runtime handles
//! splitting, thread creation, scheduling and merging.

use crate::config::OutputOrder;
use crate::emitter::Emitter;
use crate::splitter::SplitSpec;
use std::cmp::Ordering;
use std::hash::Hash;

/// A chunk of the job input handed to one map task.
#[derive(Debug, Clone, Copy)]
pub struct InputChunk<'a> {
    pub(crate) data: &'a [u8],
    pub(crate) text: Option<&'a str>,
    pub(crate) global_offset: usize,
    pub(crate) index: usize,
}

impl<'a> InputChunk<'a> {
    /// Construct a chunk (used by tests), validating it as UTF-8.
    pub fn new(data: &'a [u8], global_offset: usize, index: usize) -> Self {
        InputChunk {
            data,
            text: std::str::from_utf8(data).ok(),
            global_offset,
            index,
        }
    }

    /// The chunk's bytes.
    pub fn bytes(&self) -> &'a [u8] {
        self.data
    }

    /// The chunk as text, if it is valid UTF-8 (checked once per input).
    pub fn text(&self) -> Option<&'a str> {
        self.text
    }

    /// Byte offset of this chunk within the whole job input.
    pub fn global_offset(&self) -> usize {
        self.global_offset
    }

    /// Sequence number of this chunk (0-based map-task id).
    pub fn index(&self) -> usize {
        self.index
    }

    /// Length of the chunk in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the chunk is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Iterate over fixed-size records in this chunk.
    ///
    /// Panics in debug builds if the chunk length is not a multiple of
    /// `size` (the splitter guarantees it is, for jobs declaring
    /// fixed-record inputs).
    pub fn records(&self, size: usize) -> impl Iterator<Item = &'a [u8]> {
        debug_assert!(size > 0);
        debug_assert_eq!(self.data.len() % size, 0);
        self.data.chunks_exact(size)
    }
}

/// Iterator over the values grouped under one intermediate key, handed to
/// [`Job::reduce`].
#[derive(Debug)]
pub struct ValueIter<'a, V> {
    inner: std::slice::Iter<'a, V>,
}

impl<'a, V> ValueIter<'a, V> {
    /// Wrap a slice of grouped values.
    pub fn new(values: &'a [V]) -> Self {
        ValueIter {
            inner: values.iter(),
        }
    }
}

impl<'a, V> Iterator for ValueIter<'a, V> {
    type Item = &'a V;

    fn next(&mut self) -> Option<&'a V> {
        self.inner.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<'a, V> ExactSizeIterator for ValueIter<'a, V> {}

/// A MapReduce job, in the style of Phoenix's programming API.
///
/// The three McSD benchmark applications implement this trait:
///
/// * **Word Count** — `map` tokenizes a text chunk and emits `(word, 1)`;
///   `reduce` sums; output is sorted by frequency, descending.
/// * **String Match** — `map` scans lines of the "encrypt" file for the
///   target keys and emits matches; "neither sort nor the reduce stage is
///   required" (§V-A), so `reduce` is the identity on a single value.
/// * **Matrix Multiplication** — `map` computes a set of output-matrix
///   rows; "the reduce task is just the identity function" (§V-A).
pub trait Job: Sync {
    /// Intermediate/output key type.
    type Key: Ord + Hash + Clone + Send + Sync;
    /// Intermediate/output value type.
    type Value: Clone + Send + Sync;

    /// Process one input chunk, emitting intermediate pairs.
    fn map(&self, chunk: InputChunk<'_>, emitter: &mut Emitter<'_, Self::Key, Self::Value>);

    /// Merge all values associated with one key into the final value for
    /// that key. Returning `None` drops the key from the output.
    fn reduce(
        &self,
        key: &Self::Key,
        values: &mut ValueIter<'_, Self::Value>,
    ) -> Option<Self::Value>;

    /// Whether the runtime should fold pairs with equal keys eagerly inside
    /// each map task using [`Job::combine`]. Dramatically shrinks the
    /// intermediate footprint of jobs like Word Count.
    fn has_combiner(&self) -> bool {
        false
    }

    /// Associative fold used when [`Job::has_combiner`] is true:
    /// `acc := acc ⊕ next`.
    #[expect(
        clippy::unimplemented,
        reason = "contract guard: a job declaring has_combiner() without overriding combine() must fail loudly, not fold incorrectly"
    )]
    fn combine(&self, _acc: &mut Self::Value, _next: Self::Value) {
        unimplemented!("job declared has_combiner() but did not implement combine()")
    }

    /// How the input may legally be cut into map chunks and out-of-core
    /// fragments.
    fn split_spec(&self) -> SplitSpec {
        SplitSpec::whitespace()
    }

    /// Final output ordering.
    fn output_order(&self) -> OutputOrder {
        OutputOrder::ByKey
    }

    /// Comparator used when [`Job::output_order`] is [`OutputOrder::Custom`]:
    /// a total order, or ties come out in hash-table order, which varies.
    fn compare_output(
        &self,
        a: &(Self::Key, Self::Value),
        b: &(Self::Key, Self::Value),
    ) -> Ordering {
        a.0.cmp(&b.0)
    }

    /// Ratio of the job's in-memory working set to its input size, used by
    /// the node memory model. The paper measures ≈3× for Word Count and
    /// ≈2× for String Match (§V-C); "the memory footprint is at least twice
    /// of input data size" in general (§IV-B).
    fn footprint_factor(&self) -> f64 {
        2.0
    }

    /// Human-readable job name (used in stats and experiment output).
    fn name(&self) -> &str {
        "job"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_accessors() {
        let data = b"hello";
        let c = InputChunk::new(data, 100, 3);
        assert_eq!(c.bytes(), b"hello");
        assert_eq!(c.global_offset(), 100);
        assert_eq!(c.index(), 3);
        assert_eq!(c.len(), 5);
        assert!(!c.is_empty());
        assert_eq!(c.text(), Some("hello"));
        assert_eq!(InputChunk::new(b"\xff", 0, 0).text(), None);
    }

    #[test]
    fn chunk_records_iteration() {
        let data = [1u8, 2, 3, 4, 5, 6];
        let c = InputChunk::new(&data, 0, 0);
        let recs: Vec<&[u8]> = c.records(2).collect();
        assert_eq!(recs, vec![&[1u8, 2][..], &[3, 4], &[5, 6]]);
    }

    #[test]
    fn value_iter_basics() {
        let vals = [1u64, 2, 3];
        let mut it = ValueIter::new(&vals);
        assert_eq!(it.len(), 3);
        assert_eq!(it.next(), Some(&1));
        let rest: u64 = it.sum();
        assert_eq!(rest, 5);
    }

    #[test]
    fn empty_chunk() {
        let c = InputChunk::new(b"", 0, 0);
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
    }
}
