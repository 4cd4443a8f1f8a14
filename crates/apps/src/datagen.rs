//! Workload generators for the String Match and Matrix Multiplication
//! benchmarks (the "encrypt"/"keys" files and dense matrices the paper's
//! testbed reads from disk).

use crate::matmul::Matrix;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// How many keys of `len` letters exist (a `len` of 0 counts as 1); `None` past `usize::MAX`.
pub fn distinct_keys(len: usize) -> Option<usize> {
    26usize.checked_pow(u32::try_from(len.max(1)).ok()?)
}

/// Generate `count` (at most [`distinct_keys`]) random keys of `len` lowercase letters.
pub fn keys_file(count: usize, len: usize, seed: u64) -> Vec<String> {
    let count = distinct_keys(len).map_or(count, |n| count.min(n));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut keys = Vec::with_capacity(count);
    let mut seen = std::collections::HashSet::new();
    while keys.len() < count {
        let k: String = (0..len.max(1))
            .map(|_| (b'a' + rng.random_range(0..26u8)) as char)
            .collect();
        if seen.insert(k.clone()) {
            keys.push(k);
        }
    }
    keys
}

/// Generate an "encrypt" file of roughly `target_bytes`: lines of random
/// letters, where each line independently contains a randomly chosen key
/// with probability `plant_rate`.
pub fn encrypt_file(target_bytes: usize, keys: &[String], plant_rate: f64, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(target_bytes + 64);
    while out.len() < target_bytes {
        let line_len = rng.random_range(30..70usize);
        let mut line: Vec<u8> = (0..line_len)
            .map(|_| b'a' + rng.random_range(0..26u8))
            .collect();
        if !keys.is_empty() && rng.random_range(0.0..1.0) < plant_rate {
            let key = keys[rng.random_range(0..keys.len())].as_bytes();
            if key.len() <= line.len() {
                let at = rng.random_range(0..=line.len() - key.len());
                line[at..at + key.len()].copy_from_slice(key);
            }
        }
        out.extend_from_slice(&line);
        out.push(b'\n');
    }
    out
}

/// A deterministic random matrix with entries in `[-1, 1)`.
pub fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<f64> = (0..rows * cols)
        .map(|_| rng.random_range(-1.0..1.0))
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// A compatible pair `(A: m×k, B: k×n)` for multiplication.
pub fn matrix_pair(m: usize, k: usize, n: usize, seed: u64) -> (Matrix, Matrix) {
    (
        random_matrix(m, k, seed),
        random_matrix(k, n, seed.wrapping_add(1)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::Pattern;

    #[test]
    fn keys_are_distinct_and_sized() {
        let keys = keys_file(50, 8, 3);
        assert_eq!(keys.len(), 50);
        let set: std::collections::HashSet<&String> = keys.iter().collect();
        assert_eq!(set.len(), 50);
        assert!(keys.iter().all(|k| k.len() == 8));
    }

    #[test]
    fn keys_stop_at_the_distinct_keys_that_exist() {
        assert_eq!(distinct_keys(1), Some(26));
        assert_eq!(distinct_keys(0), Some(26));
        assert_eq!(distinct_keys(14), None);
        let keys = keys_file(30, 1, 7);
        let set: std::collections::HashSet<&String> = keys.iter().collect();
        assert_eq!((keys.len(), set.len()), (26, 26));
    }

    #[test]
    fn keys_are_deterministic() {
        assert_eq!(keys_file(10, 6, 1), keys_file(10, 6, 1));
        assert_ne!(keys_file(10, 6, 1), keys_file(10, 6, 2));
    }

    #[test]
    fn encrypt_file_hits_size_and_plants_keys() {
        let keys = keys_file(4, 10, 5);
        let data = encrypt_file(50_000, &keys, 0.2, 9);
        assert!(data.len() >= 50_000);
        let mut found = 0;
        for key in &keys {
            let p = Pattern::new(key.as_bytes().to_vec());
            found += p.find_all(&data).len();
        }
        // ~20% of ~1000 lines should carry a key.
        assert!(found > 50, "only {found} planted keys found");
    }

    #[test]
    fn zero_plant_rate_plants_nothing_long() {
        // With 10-letter random keys and no planting, accidental matches
        // are astronomically unlikely.
        let keys = keys_file(4, 10, 5);
        let data = encrypt_file(20_000, &keys, 0.0, 9);
        for key in &keys {
            let p = Pattern::new(key.as_bytes().to_vec());
            assert!(p.find(&data).is_none());
        }
    }

    #[test]
    fn encrypt_lines_end_with_newline() {
        let data = encrypt_file(5_000, &[], 0.0, 1);
        assert_eq!(*data.last().unwrap(), b'\n');
    }

    #[test]
    fn random_matrix_is_deterministic_and_bounded() {
        let a = random_matrix(10, 10, 7);
        let b = random_matrix(10, 10, 7);
        assert_eq!(a, b);
        for r in 0..10 {
            for c in 0..10 {
                let v = a.get(r, c);
                assert!((-1.0..1.0).contains(&v));
            }
        }
    }

    #[test]
    fn matrix_pair_shapes_compose() {
        let (a, b) = matrix_pair(3, 5, 7, 1);
        assert_eq!((a.rows, a.cols), (3, 5));
        assert_eq!((b.rows, b.cols), (5, 7));
    }
}
