//! Input splitting.
//!
//! Phoenix splits the input into cache-sized chunks, one per map task. The
//! splitter here produces byte ranges whose boundaries are legalized by an
//! [`IntegrityCheck`] so that no word/line/record spans two chunks. This is
//! the crate's only cutter: map chunks, fragments in memory or on file
//! ([`crate::partition`]) and multi-SD spans all come out of its one loop.

use crate::integrity::{Delimiter, IntegrityCheck};
use serde::{Deserialize, Serialize};
use std::convert::Infallible;
use std::ops::Range;

/// Describes how a job's input may be cut.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SplitSpec {
    /// Boundary legalization rule.
    pub integrity: IntegrityCheck,
}

impl SplitSpec {
    /// Whitespace-delimited text (Word Count's default).
    pub fn whitespace() -> Self {
        SplitSpec {
            integrity: IntegrityCheck::Delimited(Delimiter::Whitespace),
        }
    }

    /// Line-oriented text (String Match).
    pub fn lines() -> Self {
        SplitSpec {
            integrity: IntegrityCheck::Delimited(Delimiter::Newline),
        }
    }

    /// Fixed-size binary records (Matrix Multiplication row descriptors).
    pub fn records(size: usize) -> Self {
        SplitSpec {
            integrity: IntegrityCheck::FixedRecord(size),
        }
    }

    /// Arbitrary byte cuts (jobs that treat every byte independently).
    pub fn bytes() -> Self {
        SplitSpec {
            integrity: IntegrityCheck::None,
        }
    }
}

impl Default for SplitSpec {
    fn default() -> Self {
        SplitSpec::whitespace()
    }
}

/// Splits inputs into chunk ranges on legal boundaries.
#[derive(Debug, Clone)]
pub struct Splitter {
    spec: SplitSpec,
}

impl Splitter {
    /// Create a splitter for the given spec.
    pub fn new(spec: SplitSpec) -> Self {
        Splitter { spec }
    }

    /// Split `data` into ranges of roughly `target_bytes` each.
    ///
    /// Guarantees:
    /// * the ranges are non-empty, non-overlapping, sorted, and their
    ///   concatenation covers `data` exactly;
    /// * every interior boundary is legal under the spec's integrity check.
    ///
    /// A chunk may exceed `target_bytes` when the integrity check has to
    /// push its end forward to the next delimiter (the paper's "extra
    /// displacements").
    pub fn split(&self, data: &[u8], target_bytes: usize) -> Vec<Range<usize>> {
        let adjust = |at| Ok::<_, Infallible>(self.spec.integrity.adjust(data, at));
        cut(data.len(), target_bytes, adjust).unwrap_or_else(|never| match never {})
    }

    /// [`Splitter::split`] over a file that is never loaded: only the
    /// integrity check's scans read it, through `window`.
    pub(crate) fn split_file(
        &self,
        file: &mut std::fs::File,
        window: &mut Vec<u8>,
        target_bytes: usize,
    ) -> std::io::Result<Vec<Range<usize>>> {
        let len = file.metadata()?.len() as usize;
        cut(len, target_bytes, |at| {
            self.spec.integrity.adjust_file(file, len, window, at)
        })
    }

    /// The spec this splitter applies.
    pub fn spec(&self) -> &SplitSpec {
        &self.spec
    }
}

/// The one range-cutting loop: `adjust` legalizes each proposed cut of a
/// `len`-byte sequence and never moves it backwards, so no range is empty.
fn cut<E>(
    len: usize,
    target_bytes: usize,
    mut adjust: impl FnMut(usize) -> Result<usize, E>,
) -> Result<Vec<Range<usize>>, E> {
    let target = target_bytes.max(1);
    let mut ranges = Vec::with_capacity(len / target + 1);
    let mut start = 0usize;
    while start < len {
        let end = adjust(start.saturating_add(target))?;
        debug_assert!(end > start, "splitter produced an empty chunk");
        ranges.push(start..end);
        start = end;
    }
    Ok(ranges)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_cover(data: &[u8], ranges: &[Range<usize>]) {
        let mut pos = 0;
        for r in ranges {
            assert_eq!(r.start, pos, "ranges must be contiguous");
            assert!(r.end > r.start, "ranges must be non-empty");
            pos = r.end;
        }
        assert_eq!(pos, data.len(), "ranges must cover the input");
    }

    #[test]
    fn empty_input_yields_no_chunks() {
        let s = Splitter::new(SplitSpec::whitespace());
        assert!(s.split(b"", 16).is_empty());
    }

    #[test]
    fn single_small_input_is_one_chunk() {
        let s = Splitter::new(SplitSpec::whitespace());
        let r = s.split(b"tiny", 1024);
        assert_eq!(r, vec![0..4]);
    }

    #[test]
    fn text_chunks_do_not_split_words() {
        let data = b"alpha beta gamma delta epsilon zeta eta theta";
        let s = Splitter::new(SplitSpec::whitespace());
        let ranges = s.split(data, 10);
        assert_cover(data, &ranges);
        for r in &ranges {
            if r.end < data.len() {
                assert!(
                    data[r.end - 1].is_ascii_whitespace(),
                    "chunk must end just past a delimiter, got {:?}",
                    String::from_utf8_lossy(&data[r.clone()])
                );
            }
        }
        // Reconstructing words across chunk iteration must equal the
        // sequential tokenization.
        let seq: Vec<&[u8]> = data
            .split(|b| b.is_ascii_whitespace())
            .filter(|w| !w.is_empty())
            .collect();
        let mut chunked: Vec<Vec<u8>> = Vec::new();
        for r in &ranges {
            for w in data[r.clone()].split(|b| b.is_ascii_whitespace()) {
                if !w.is_empty() {
                    chunked.push(w.to_vec());
                }
            }
        }
        assert_eq!(seq.len(), chunked.len());
        for (a, b) in seq.iter().zip(chunked.iter()) {
            assert_eq!(a, &b.as_slice());
        }
    }

    #[test]
    fn record_chunks_are_multiples_of_record_size() {
        let data = [7u8; 64];
        let s = Splitter::new(SplitSpec::records(8));
        let ranges = s.split(&data, 20);
        assert_cover(&data, &ranges);
        for r in &ranges {
            assert_eq!(r.start % 8, 0);
            assert!(r.end % 8 == 0 || r.end == data.len());
        }
    }

    #[test]
    fn byte_chunks_hit_target_exactly() {
        let data = [0u8; 100];
        let s = Splitter::new(SplitSpec::bytes());
        let ranges = s.split(&data, 32);
        assert_cover(&data, &ranges);
        assert_eq!(ranges.len(), 4);
        assert_eq!(ranges[0], 0..32);
        assert_eq!(ranges[3], 96..100);
    }

    #[test]
    fn long_word_yields_oversized_chunk() {
        // A "word" longer than the target cannot be cut.
        let data = b"abcdefghijklmnopqrstuvwxyz end";
        let s = Splitter::new(SplitSpec::whitespace());
        let ranges = s.split(data, 4);
        assert_cover(data, &ranges);
        assert!(ranges[0].len() >= 26);
    }

    #[test]
    fn zero_target_is_clamped() {
        let data = b"a b";
        let s = Splitter::new(SplitSpec::whitespace());
        let ranges = s.split(data, 0);
        assert_cover(data, &ranges);
    }

    #[test]
    fn line_chunks_end_on_newlines() {
        let mut data = Vec::new();
        for i in 0..50 {
            data.extend_from_slice(format!("line number {i}\n").as_bytes());
        }
        let s = Splitter::new(SplitSpec::lines());
        let ranges = s.split(&data, 64);
        assert_cover(&data, &ranges);
        for r in &ranges {
            if r.end < data.len() {
                assert_eq!(data[r.end - 1], b'\n');
            }
        }
    }
}
