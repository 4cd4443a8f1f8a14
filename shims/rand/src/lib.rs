//! Vendored deterministic subset of the `rand` API.
//!
//! The workspace's determinism discipline (see DESIGN.md, "Determinism &
//! lint invariants") forbids unseeded randomness outside tests, so the only
//! entry point this shim provides is `StdRng::seed_from_u64`: there is no
//! `thread_rng`, no `from_entropy`, and no `rand::random` — an unseeded
//! draw cannot even compile against it (which is why no lint rule
//! guards it). The generator is SplitMix64,
//! which passes BigCrush's smoke tests and is plenty for synthetic
//! workload generation; it is *not* the registry crate's ChaCha12, so
//! seeded streams differ from upstream `rand` (nothing in-tree depends on
//! the exact stream, only on it being fixed per seed).

#![deny(missing_docs)]
#![deny(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Random number generators.
pub mod rngs {
    /// The workspace's standard deterministic generator (SplitMix64).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        pub(crate) state: u64,
    }
}

use rngs::StdRng;

/// A generator seedable from a `u64`.
pub trait SeedableRng: Sized {
    /// Build a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> StdRng {
        StdRng { state: seed }
    }
}

/// The raw-output interface of a generator.
pub trait RngCore {
    /// Next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;
}

impl RngCore for StdRng {
    fn next_u64(&mut self) -> u64 {
        // SplitMix64 (Steele, Lea & Flood 2014).
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Extension methods for drawing typed values from a generator.
pub trait RngExt: RngCore {
    /// Draw a value uniformly from `range`.
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn random_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
        Self: Sized,
    {
        range.sample_in(self)
    }
}

impl<G: RngCore> RngExt for G {}

/// A range values can be drawn from.
pub trait SampleRange<T> {
    /// Draw one value uniformly from `self`.
    fn sample_in<G: RngCore>(self, rng: &mut G) -> T;
}

macro_rules! impl_sample_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_in<G: RngCore>(self, rng: &mut G) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = rng.next_u64() as u128 % span;
                (self.start as i128 + v as i128) as $t
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_in<G: RngCore>(self, rng: &mut G) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let v = rng.next_u64() as u128 % span;
                (lo as i128 + v as i128) as $t
            }
        }
    )*};
}

impl_sample_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_sample_float {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_in<G: RngCore>(self, rng: &mut G) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                // 53 uniform bits in [0, 1).
                let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                self.start + (self.end - self.start) * unit as $t
            }
        }
    )*};
}

impl_sample_float!(f32, f64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn int_ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = rng.random_range(0..26u8);
            assert!(v < 26);
            let w = rng.random_range(30..70usize);
            assert!((30..70).contains(&w));
            let x = rng.random_range(0..=255u8);
            let _ = x; // full domain, nothing to check beyond type
            let y = rng.random_range(-5..5i32);
            assert!((-5..5).contains(&y));
        }
    }

    #[test]
    fn float_ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..1000 {
            let v = rng.random_range(0.0..1.0);
            assert!((0.0..1.0).contains(&v));
            let w = rng.random_range(-1.0..1.0);
            assert!((-1.0..1.0).contains(&w));
        }
    }

    #[test]
    fn all_26_letters_reachable() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 26];
        for _ in 0..2000 {
            seen[rng.random_range(0..26u8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
