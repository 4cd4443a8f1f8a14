//! The workspace's single sanctioned wall-clock surface.
//!
//! Every reported number in this reproduction is a *virtual-time* ratio:
//! measured wall time is calibrated through the cluster cost models
//! (`NodeExecutor::virtual_compute` downstream) before it reaches any
//! figure. The lint policy (DESIGN.md §9, `clippy::disallowed_methods`)
//! therefore bans raw `Instant::now`/`SystemTime::now`/`thread::sleep` in
//! library code: scattered wall-clock reads are exactly how uncalibrated
//! host time leaks into results. This module is the one expected
//! exception — all measurement flows through [`Stopwatch`], so there is a
//! single choke point to audit (and, if ever needed, to virtualize).
//!
//! `thread::sleep` has no shim on purpose: no library code sleeps (the
//! smartFAM poll loops wait on a condvar, timed by a [`Stopwatch`]), and a
//! site where blocking on real time is the point would carry its own
//! `#[expect(clippy::disallowed_methods, reason = "…")]` instead.

#![expect(
    clippy::disallowed_methods,
    reason = "the one sanctioned wall-clock surface: every measurement flows through here"
)]

use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Milliseconds since the Unix epoch, for *absolute* times that must
/// cross a process-ish boundary: a request's expiry and the daemon's
/// heartbeat stamp, both read through smartFAM's `FaultInjector::now_ms`.
/// `Instant` cannot serve here — it is process-relative — so this is the
/// one sanctioned `SystemTime` read. Host and daemon share a machine in
/// this reproduction, so the comparison is exact, not clock-skew-prone.
#[must_use]
pub fn wall_clock_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// A started wall-clock measurement.
///
/// Replaces the `let t0 = Instant::now(); … t0.elapsed()` idiom:
///
/// ```
/// use mcsd_phoenix::stopwatch::Stopwatch;
/// let sw = Stopwatch::start();
/// let wall = sw.elapsed();
/// assert!(wall >= std::time::Duration::ZERO);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Begin measuring now.
    #[must_use]
    pub fn start() -> Self {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Wall-clock time elapsed since [`Stopwatch::start`].
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// True once at least `timeout` has elapsed — the deadline idiom for
    /// real I/O waits (`sw.expired(timeout)` instead of comparing against
    /// a precomputed `Instant`).
    #[must_use]
    pub fn expired(&self, timeout: Duration) -> bool {
        self.elapsed() >= timeout
    }

    /// Run `f`, returning its result and the wall time it took.
    pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
        let sw = Stopwatch::start();
        let out = f();
        let wall = sw.elapsed();
        (out, wall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotone() {
        let sw = Stopwatch::start();
        let a = sw.elapsed();
        let b = sw.elapsed();
        assert!(b >= a);
    }

    #[test]
    fn time_returns_result_and_duration() {
        let (out, wall) = Stopwatch::time(|| 41 + 1);
        assert_eq!(out, 42);
        assert!(wall >= Duration::ZERO);
    }

    #[test]
    fn expired_immediately_for_zero_timeout() {
        let sw = Stopwatch::start();
        assert!(sw.expired(Duration::ZERO));
        assert!(!sw.expired(Duration::from_secs(3600)));
    }

    #[test]
    fn wall_clock_ms_is_monotone_enough() {
        let a = wall_clock_ms();
        let b = wall_clock_ms();
        // Plausibly past 2020 and non-decreasing within one test.
        assert!(a > 1_577_836_800_000);
        assert!(b >= a);
    }
}
