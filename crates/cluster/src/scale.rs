//! Paper-size ↔ experiment-size scaling.
//!
//! The paper's workloads are 500 MB–2 GB against 2 GB nodes. Running those
//! sizes for every figure would make the harness take hours, so every byte
//! quantity (inputs, node memory, partition size) is divided by a single
//! constant. Because the memory model, the network model and the disk
//! model are all linear in bytes, this leaves every *ratio* — and therefore
//! every reported speedup — unchanged (see the
//! `verdict_scales_with_input_invariantly` test in `mcsd-phoenix`).

use serde::{Deserialize, Serialize};

/// A byte-scale divisor applied uniformly to all paper sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Scale {
    /// Paper bytes per experiment byte.
    pub divisor: u64,
}

impl Scale {
    /// Identity scale (paper sizes; only sensible on a big machine).
    pub fn full() -> Self {
        Scale { divisor: 1 }
    }

    /// The default experiment scale: 1/256 of paper sizes. "500 MB"
    /// becomes ~2 MB, the 2 GB node memory becomes 8 MB.
    pub fn default_experiment() -> Self {
        Scale { divisor: 256 }
    }

    /// A coarser scale for quick smoke tests: 1/2048.
    pub fn smoke() -> Self {
        Scale { divisor: 2048 }
    }

    /// Scale a paper-space byte count down to experiment space.
    pub fn bytes(&self, paper_bytes: u64) -> u64 {
        (paper_bytes / self.divisor).max(1)
    }

    /// Scaled bytes for a paper label, e.g. `scaled("1.25G")` (grammar:
    /// [`mcsd_phoenix::parse_size_label`]).
    pub fn scaled(&self, label: &str) -> Option<u64> {
        mcsd_phoenix::parse_size_label(label).map(|b| self.bytes(b))
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale::default_experiment()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_divides() {
        let s = Scale { divisor: 256 };
        assert_eq!(s.bytes(256_000), 1000);
        assert_eq!(s.scaled("1G"), Some(1024 * 1024 * 1024 / 256));
    }

    #[test]
    fn scaling_never_reaches_zero() {
        let s = Scale { divisor: 1_000_000 };
        assert_eq!(s.bytes(10), 1);
    }

    #[test]
    fn default_is_256th() {
        assert_eq!(Scale::default().divisor, 256);
    }

    #[test]
    fn paper_memory_scales_to_8mb() {
        let s = Scale::default_experiment();
        assert_eq!(s.scaled("2G"), Some(8 * 1024 * 1024));
    }
}
