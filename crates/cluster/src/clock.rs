//! The virtual-time ledger.
//!
//! Every modelled activity charges time into one of four categories. The
//! experiment harness reports `total()` as the run's elapsed time — the
//! quantity the paper's speedup figures are ratios of.

use std::iter::Sum;
use std::ops::{Add, AddAssign};
use std::time::Duration;

/// Virtual elapsed time of a modelled activity, broken down by cause.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimeBreakdown {
    /// CPU time: measured wall-clock compute divided by the node's
    /// per-core speed factor.
    pub compute: Duration,
    /// Time on the wire (NFS transfers, smartFAM log-file traffic, SMB
    /// routine work).
    pub network: Duration,
    /// Disk time: swap/thrash penalties and local spooling.
    pub disk: Duration,
    /// Fixed overheads (invocation latency, daemon poll intervals).
    pub overhead: Duration,
}

impl TimeBreakdown {
    /// A breakdown with only compute time.
    pub fn compute(d: Duration) -> Self {
        TimeBreakdown {
            compute: d,
            ..Default::default()
        }
    }

    /// A breakdown with only network time.
    pub fn network(d: Duration) -> Self {
        TimeBreakdown {
            network: d,
            ..Default::default()
        }
    }

    /// A breakdown with only disk time.
    pub fn disk(d: Duration) -> Self {
        TimeBreakdown {
            disk: d,
            ..Default::default()
        }
    }

    /// A breakdown with only overhead time.
    pub fn overhead(d: Duration) -> Self {
        TimeBreakdown {
            overhead: d,
            ..Default::default()
        }
    }

    /// Total virtual elapsed time.
    pub fn total(&self) -> Duration {
        self.compute + self.network + self.disk + self.overhead
    }

    /// Whether no time at all has been charged.
    pub fn is_zero(&self) -> bool {
        self.total() == Duration::ZERO
    }
}

impl Add for TimeBreakdown {
    type Output = TimeBreakdown;

    fn add(self, rhs: TimeBreakdown) -> TimeBreakdown {
        TimeBreakdown {
            compute: self.compute + rhs.compute,
            network: self.network + rhs.network,
            disk: self.disk + rhs.disk,
            overhead: self.overhead + rhs.overhead,
        }
    }
}

impl AddAssign for TimeBreakdown {
    fn add_assign(&mut self, rhs: TimeBreakdown) {
        *self = *self + rhs;
    }
}

impl Sum for TimeBreakdown {
    fn sum<I: Iterator<Item = TimeBreakdown>>(iter: I) -> TimeBreakdown {
        iter.fold(TimeBreakdown::default(), |acc, t| acc + t)
    }
}

impl std::fmt::Display for TimeBreakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:?} (cpu {:?} + net {:?} + disk {:?} + ovh {:?})",
            self.total(),
            self.compute,
            self.network,
            self.disk,
            self.overhead
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn constructors_fill_single_category() {
        assert_eq!(TimeBreakdown::compute(ms(5)).total(), ms(5));
        assert_eq!(TimeBreakdown::network(ms(5)).network, ms(5));
        assert_eq!(TimeBreakdown::disk(ms(5)).disk, ms(5));
        assert_eq!(TimeBreakdown::overhead(ms(5)).overhead, ms(5));
    }

    #[test]
    fn add_sums_categories() {
        let a = TimeBreakdown::compute(ms(1)) + TimeBreakdown::network(ms(2));
        let b = a + TimeBreakdown::disk(ms(3));
        assert_eq!(b.total(), ms(6));
        assert_eq!(b.compute, ms(1));
        assert_eq!(b.network, ms(2));
        assert_eq!(b.disk, ms(3));
    }

    #[test]
    fn add_assign_and_sum() {
        let mut t = TimeBreakdown::default();
        t += TimeBreakdown::compute(ms(4));
        t += TimeBreakdown::compute(ms(6));
        assert_eq!(t.compute, ms(10));

        let parts = vec![TimeBreakdown::network(ms(1)); 5];
        let total: TimeBreakdown = parts.into_iter().sum();
        assert_eq!(total.network, ms(5));
    }

    #[test]
    fn is_zero() {
        assert!(TimeBreakdown::default().is_zero());
        assert!(!TimeBreakdown::compute(ms(1)).is_zero());
    }

    #[test]
    fn display_lists_categories() {
        let t = TimeBreakdown::compute(ms(3)) + TimeBreakdown::network(ms(1));
        let s = t.to_string();
        assert!(s.contains("cpu"));
        assert!(s.contains("net"));
        assert!(s.contains("4ms"));
    }
}
