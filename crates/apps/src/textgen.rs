//! Zipf-distributed text generation for the Word Count workload.
//!
//! Natural-language word frequencies follow a Zipf law, and Word Count's
//! combiner effectiveness and intermediate volume depend directly on that
//! skew, so the generator samples a synthetic vocabulary with
//! `P(rank k) ∝ 1/k^s`.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Deterministic Zipf text generator.
#[derive(Debug, Clone)]
pub struct TextGen {
    /// Number of distinct words in the vocabulary (none: empty corpora).
    pub vocab_size: usize,
    /// Zipf exponent (1.0 ≈ natural language).
    pub exponent: f64,
    /// RNG seed; equal seeds give byte-identical corpora.
    pub seed: u64,
    /// Approximate line length in bytes before a newline is inserted.
    pub line_len: usize,
}

impl Default for TextGen {
    fn default() -> Self {
        TextGen {
            vocab_size: 10_000,
            exponent: 1.0,
            seed: 0x5eed,
            line_len: 80,
        }
    }
}

impl TextGen {
    /// A generator with the default shape and the given seed.
    pub fn with_seed(seed: u64) -> Self {
        TextGen {
            seed,
            ..Default::default()
        }
    }

    /// The `rank`-th vocabulary word (0-based): a short pronounceable
    /// token, unique per rank.
    pub fn word(&self, rank: usize) -> String {
        let mut letters = [0; 20]; // ten base-100 digits in `usize::MAX`
        let len = spell(rank, &mut letters);
        letters[..len].iter().map(|&b| char::from(b)).collect()
    }

    /// Generate approximately `target_bytes` of text (never less; words
    /// are whole; none from an empty vocabulary). Words are spelled once,
    /// and a guide table finds the first rank whose Zipf weight reaches a draw.
    pub fn generate(&self, target_bytes: usize) -> Vec<u8> {
        let m = self.vocab_size;
        if m == 0 {
            return Vec::new();
        }
        let mut cum = Vec::with_capacity(m);
        let mut words = Vec::with_capacity(m);
        let mut total = 0.0;
        for k in 1..=m {
            total += 1.0 / (k as f64).powf(self.exponent);
            cum.push(total);
            let mut word = [b' '; 23]; // letters, a space, padding to copy
            let len = spell(k - 1, &mut word) + 1;
            words.push((word, len));
        }
        // `guide[b]`: the first rank whose cumulative weight reaches `b·total/m`.
        let mut guide = Vec::with_capacity(m);
        let mut r = 0;
        for b in 0..m {
            while r < m - 1 && cum[r] < b as f64 * total / m as f64 {
                r += 1;
            }
            guide.push(r);
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut out = Vec::with_capacity(target_bytes + 23);
        let mut line = 0usize;
        while out.len() < target_bytes {
            let x: f64 = rng.random_range(0.0..total);
            // From any start, walking back then forward finds that rank: an
            // off-by-one bucket costs a step, never a different word.
            let mut r = guide[((x / total * m as f64) as usize).min(m - 1)];
            while r > 0 && cum[r - 1] >= x {
                r -= 1;
            }
            while r < m - 1 && cum[r] < x {
                r += 1;
            }
            let (word, len) = &words[r];
            let end = out.len() + len;
            out.extend_from_slice(word);
            out.truncate(end);
            line += len;
            if line >= self.line_len {
                out[end - 1] = b'\n';
                line = 0;
            }
        }
        out
    }
}

/// Writes word `n`'s letters to `out` and returns their count: the
/// base-100 digits of `n`, each a consonant and a vowel, so words look
/// plausible and never collide.
fn spell(mut n: usize, out: &mut [u8]) -> usize {
    const C: &[u8] = b"bcdfghjklmnpqrstvwxz";
    const V: &[u8] = b"aeiou";
    let mut len = 0;
    loop {
        out[len] = C[n % C.len()];
        n /= C.len();
        out[len + 1] = V[n % V.len()];
        n /= V.len();
        len += 2;
        if n == 0 {
            return len;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn words_are_unique_per_rank() {
        let g = TextGen::default();
        let mut seen = std::collections::HashSet::new();
        for rank in 0..5000 {
            assert!(seen.insert(g.word(rank)), "duplicate word at rank {rank}");
        }
    }

    #[test]
    fn words_are_nonempty_ascii() {
        let g = TextGen::default();
        for rank in [0, 1, 25, 1000, 99999] {
            let w = g.word(rank);
            assert!(!w.is_empty());
            assert!(w.bytes().all(|b| b.is_ascii_lowercase()));
        }
    }

    #[test]
    fn generate_hits_target_size() {
        let g = TextGen::with_seed(7);
        let text = g.generate(10_000);
        assert!(text.len() >= 10_000);
        assert!(text.len() < 10_100);
    }

    #[test]
    fn empty_vocabulary_generates_an_empty_corpus() {
        let g = TextGen {
            vocab_size: 0,
            ..TextGen::with_seed(1)
        };
        assert!(g.generate(0).is_empty());
        assert!(g.generate(10_000).is_empty());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = TextGen::with_seed(42).generate(5_000);
        let b = TextGen::with_seed(42).generate(5_000);
        assert_eq!(a, b);
        let c = TextGen::with_seed(43).generate(5_000);
        assert_ne!(a, c);
    }

    #[test]
    fn distribution_is_skewed() {
        let g = TextGen {
            vocab_size: 1000,
            ..TextGen::with_seed(1)
        };
        let text = g.generate(100_000);
        let mut counts: HashMap<&[u8], u64> = HashMap::new();
        for w in text.split(|b: &u8| b.is_ascii_whitespace()) {
            if !w.is_empty() {
                *counts.entry(w).or_insert(0) += 1;
            }
        }
        let mut freqs: Vec<u64> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        // Zipf: the most frequent word dominates the median word by a wide
        // margin.
        let top = freqs[0];
        let median = freqs[freqs.len() / 2];
        assert!(top > 10 * median, "top={top} median={median}");
    }

    #[test]
    fn lines_are_bounded() {
        let g = TextGen {
            line_len: 40,
            ..TextGen::with_seed(3)
        };
        let text = g.generate(20_000);
        for line in text.split(|&b| b == b'\n') {
            assert!(line.len() < 40 + 24, "line too long: {}", line.len());
        }
    }
}
