//! Single-threaded reference implementations.
//!
//! The paper's Fig. 8(a) compares the MapReduce runtimes against "the
//! sequential approach"; these are those baselines. They are also the
//! correctness oracles for the MapReduce jobs.

use crate::matmul::Matrix;
use crate::search::Pattern;
use crate::wordcount::{Word, WordCount};
use mcsd_phoenix::hash::WordState;
use std::collections::HashMap;

/// Sequential word count, output ordered like [`WordCount`]: frequency
/// descending, then word ascending; words that repair to the same text
/// (U+FFFD) count as one.
pub fn wordcount(text: &[u8]) -> Vec<(String, u64)> {
    let mut counts: HashMap<Word, u64, WordState> = HashMap::default();
    for w in WordCount::words(text) {
        *counts.entry(Word(w)).or_insert(0) += 1;
    }
    let mut words: HashMap<String, u64, WordState> =
        HashMap::with_capacity_and_hasher(counts.len(), WordState::default());
    for (Word(w), n) in counts {
        let word = String::from_utf8_lossy(w).into_owned();
        *words.entry(word).or_insert(0) += n;
    }
    let mut pairs: Vec<(String, u64)> = words.into_iter().collect();
    pairs.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    pairs
}

/// Sequential string match, output ordered like
/// [`StringMatch`](crate::stringmatch::StringMatch): `(line offset, lowest
/// matching key index)` ascending by offset.
pub fn stringmatch(keys: &[String], encrypt: &[u8]) -> Vec<(u64, u32)> {
    let patterns: Vec<Pattern> = keys
        .iter()
        .map(|k| Pattern::new(k.as_bytes().to_vec()))
        .collect();
    let mut out = Vec::new();
    let mut line_start = 0usize;
    for line in encrypt.split(|&b| b == b'\n') {
        let mut best: Option<u32> = None;
        for (ki, p) in patterns.iter().enumerate() {
            if p.matches(line) {
                best = Some(best.map_or(ki as u32, |b| b.min(ki as u32)));
            }
        }
        if let Some(ki) = best {
            out.push((line_start as u64, ki));
        }
        line_start += line.len() + 1;
    }
    out
}

/// Sequential dense matrix multiplication (ikj loop order).
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols, b.rows);
    let mut c = Matrix::zeros(a.rows, b.cols);
    for i in 0..a.rows {
        for k in 0..a.cols {
            let aik = a.get(i, k);
            if aik == 0.0 {
                continue;
            }
            for j in 0..b.cols {
                c.set(i, j, c.get(i, j) + aik * b.get(k, j));
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen;

    #[test]
    fn wordcount_counts_and_orders() {
        let out = wordcount(b"b a b c b a");
        assert_eq!(
            out,
            vec![
                ("b".to_string(), 3),
                ("a".to_string(), 2),
                ("c".to_string(), 1)
            ]
        );
    }

    #[test]
    fn wordcount_merges_words_that_repair_to_the_same_text() {
        let out = wordcount(b"a \xff\xfe b \xff\xfd a");
        assert_eq!(
            out,
            vec![
                ("a".to_string(), 2),
                ("\u{FFFD}\u{FFFD}".to_string(), 2),
                ("b".to_string(), 1)
            ]
        );
    }

    #[test]
    fn wordcount_of_empty_is_empty() {
        assert!(wordcount(b"").is_empty());
        assert!(wordcount(b"  \n\t ").is_empty());
    }

    #[test]
    fn stringmatch_finds_lines() {
        let out = stringmatch(
            &["key".to_string()],
            b"no match\nhas key here\nnothing\nkey again\n",
        );
        // Line offsets: "no match\n" = 9 bytes, "has key here\n" = 13,
        // "nothing\n" = 8 → matches at 9 and 30.
        assert_eq!(out, vec![(9, 0), (30, 0)]);
    }

    #[test]
    fn stringmatch_lowest_key_wins() {
        let out = stringmatch(
            &["zzz".to_string(), "yyy".to_string()],
            b"yyy and zzz together\n",
        );
        assert_eq!(out, vec![(0, 0)]);
    }

    #[test]
    fn matmul_small_known_product() {
        let a = Matrix::from_fn(2, 2, |r, c| (r * 2 + c + 1) as f64); // [1 2; 3 4]
        let b = Matrix::from_fn(2, 2, |r, c| if r == c { 2.0 } else { 0.0 });
        let c = matmul(&a, &b);
        assert_eq!(c.get(0, 0), 2.0);
        assert_eq!(c.get(0, 1), 4.0);
        assert_eq!(c.get(1, 0), 6.0);
        assert_eq!(c.get(1, 1), 8.0);
    }

    #[test]
    fn matmul_associativity_spot_check() {
        let (a, b) = datagen::matrix_pair(6, 7, 8, 2);
        let c = datagen::random_matrix(8, 5, 3);
        let left = matmul(&matmul(&a, &b), &c);
        let right = matmul(&a, &matmul(&b, &c));
        assert!(left.max_abs_diff(&right) < 1e-9);
    }
}
