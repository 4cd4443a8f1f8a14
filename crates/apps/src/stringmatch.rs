//! String Match (paper §V-A).
//!
//! "Each Map searches one line in the 'encrypt' file to check whether the
//! target string from a 'keys' file is in the line. Neither sort or the
//! reduce stage is required." — a map-only job. Each match is emitted as
//! `(global line-start offset, key index)`; offsets are unique, so reduce
//! degenerates to the identity on a single value and partitioned runs merge
//! by concatenation.

use crate::search::Pattern;
use mcsd_phoenix::partition::ConcatMerger;
use mcsd_phoenix::prelude::*;

/// Working-set-to-input ratio for String Match. The paper quotes "around
/// two times of the input data size" (§V-C), yet its Fig. 10 shows the
/// non-partitioned runs staying within ~2× of McSD through 1.25 GB on 2 GB
/// nodes — i.e. no swap at 1.25 GB, which bounds the steady working set at
/// ≈1.4× (match output is tiny; the input dominates). We calibrate to the
/// behaviour Fig. 10 exhibits.
pub const SM_FOOTPRINT_FACTOR: f64 = 1.4;

/// The input pair of String Match: the keys file plus the encrypt file.
#[derive(Debug, Clone)]
pub struct StringMatchInput {
    /// Target strings from the "keys" file.
    pub keys: Vec<String>,
    /// Contents of the "encrypt" file (searched line by line).
    pub encrypt: Vec<u8>,
}

/// The String Match MapReduce job: holds the compiled keys; the job input
/// is the encrypt file's bytes.
#[derive(Debug, Clone)]
pub struct StringMatch {
    patterns: Vec<Pattern>,
}

impl StringMatch {
    /// Compile the target keys.
    pub fn new<S: AsRef<str>>(keys: &[S]) -> StringMatch {
        StringMatch {
            patterns: keys
                .iter()
                .map(|k| Pattern::new(k.as_ref().as_bytes().to_vec()))
                .collect(),
        }
    }

    /// The merge function for partitioned runs: matches never repeat
    /// across fragments (offsets are global), so concatenation suffices.
    pub fn merger() -> ConcatMerger {
        ConcatMerger
    }
}

impl Job for StringMatch {
    /// Global byte offset of the matched line's start.
    type Key = u64;
    /// Index of the key that matched.
    type Value = u32;

    fn map(&self, chunk: InputChunk<'_>, emitter: &mut Emitter<'_, u64, u32>) {
        let base = chunk.global_offset() as u64;
        let mut line_start = 0usize;
        for line in chunk.bytes().split(|&b| b == b'\n') {
            for (ki, pattern) in self.patterns.iter().enumerate() {
                if pattern.matches(line) {
                    emitter.emit(base + line_start as u64, ki as u32);
                }
            }
            line_start += line.len() + 1;
        }
    }

    fn reduce(&self, _key: &u64, values: &mut ValueIter<'_, u32>) -> Option<u32> {
        // Map-only: at most one value per (line, key)... a line can match
        // several keys, which hash to the same offset key; keep the lowest
        // key index deterministically.
        values.min().copied()
    }

    fn split_spec(&self) -> SplitSpec {
        SplitSpec::lines()
    }

    fn output_order(&self) -> OutputOrder {
        OutputOrder::ByKey
    }

    fn footprint_factor(&self) -> f64 {
        SM_FOOTPRINT_FACTOR
    }

    fn name(&self) -> &str {
        "stringmatch"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen;
    use crate::seq;
    use mcsd_phoenix::{PartitionSpec, PartitionedRuntime, PhoenixConfig, Runtime};

    fn encrypt_text() -> Vec<u8> {
        let mut t = Vec::new();
        for i in 0..200 {
            if i % 13 == 0 {
                t.extend_from_slice(format!("line {i} holds secretkey here\n").as_bytes());
            } else if i % 29 == 0 {
                t.extend_from_slice(format!("line {i} holds otherkey instead\n").as_bytes());
            } else {
                t.extend_from_slice(format!("line {i} is plain filler text\n").as_bytes());
            }
        }
        t
    }

    #[test]
    fn finds_planted_keys() {
        let text = encrypt_text();
        let sm = StringMatch::new(&["secretkey", "otherkey"]);
        let rt = Runtime::new(PhoenixConfig::with_workers(2).chunk_bytes(256));
        let out = rt.run(&sm, &text).unwrap();
        let secret_matches = out.pairs.iter().filter(|(_, k)| *k == 0).count();
        let other_matches = out.pairs.iter().filter(|(_, k)| *k == 1).count();
        assert_eq!(secret_matches, 16); // i = 0,13,...,195
        assert_eq!(other_matches, 6); // i = 29,58,...,174 minus overlap at 0? none: i%29==0 & i%13!=0
    }

    #[test]
    fn matches_sequential_reference() {
        let keys = vec!["beacon".to_string(), "cipher".to_string()];
        let text = datagen::encrypt_file(40_000, &keys, 0.05, 99);
        let sm = StringMatch::new(&keys);
        let rt = Runtime::new(PhoenixConfig::with_workers(4).chunk_bytes(1024));
        let out = rt.run(&sm, &text).unwrap();
        let reference = seq::stringmatch(&keys, &text);
        assert_eq!(out.pairs, reference);
        assert!(!out.pairs.is_empty(), "generator must plant keys");
    }

    #[test]
    fn partitioned_matches_whole() {
        let keys = vec!["beacon".to_string()];
        let text = datagen::encrypt_file(30_000, &keys, 0.1, 7);
        let sm = StringMatch::new(&keys);
        let rt = Runtime::new(PhoenixConfig::with_workers(2).chunk_bytes(512));
        let whole = rt.run(&sm, &text).unwrap();
        let part = PartitionedRuntime::new(rt, PartitionSpec::new(8000));
        let out = part.run(&sm, &text, &StringMatch::merger()).unwrap();
        assert_eq!(whole.pairs, out.pairs);
        assert!(out.stats.fragments >= 3);
    }

    #[test]
    fn offsets_point_at_matching_lines() {
        let text = encrypt_text();
        let sm = StringMatch::new(&["secretkey"]);
        let rt = Runtime::new(PhoenixConfig::with_workers(2).chunk_bytes(128));
        let out = rt.run(&sm, &text).unwrap();
        for (offset, _) in &out.pairs {
            let rest = &text[*offset as usize..];
            let line = rest.split(|&b| b == b'\n').next().unwrap();
            assert!(
                Pattern::new(b"secretkey".to_vec()).matches(line),
                "offset {offset} does not start a matching line"
            );
        }
    }

    #[test]
    fn line_matching_multiple_keys_keeps_lowest_index() {
        let text = b"both secretkey and otherkey in one line\nplain\n";
        let sm = StringMatch::new(&["secretkey", "otherkey"]);
        let rt = Runtime::new(PhoenixConfig::with_workers(1));
        let out = rt.run(&sm, text).unwrap();
        assert_eq!(out.pairs, vec![(0u64, 0u32)]);
    }

    #[test]
    fn no_keys_no_matches() {
        let sm = StringMatch::new::<&str>(&[]);
        let rt = Runtime::new(PhoenixConfig::with_workers(2));
        let out = rt.run(&sm, b"anything\ngoes\n").unwrap();
        assert!(out.pairs.is_empty());
    }
}
