//! Per-SD circuit breakers.
//!
//! A smart-storage node that keeps failing offloads should stop receiving
//! them: every request burnt on a broken node is deadline spent before the
//! inevitable host fallback. The breaker watches observed outcomes and
//! walks the classic three-state machine — **closed** (traffic flows,
//! consecutive failures counted), **open** (traffic rejected outright until
//! a cooldown passes), **half-open** (a probe is let through; success
//! closes the breaker, failure re-opens it).
//!
//! ## Logical time
//!
//! The breaker never reads a wall clock. Callers supply `now` as a
//! [`Duration`] on a *logical* timeline of their choosing — the offload
//! runners tick a fixed quantum per admission decision — so a seeded run
//! replays its open/probe/close transitions counter-for-counter, which the
//! overload replay tests rely on.

use std::time::Duration;

/// Tuning for a per-SD circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures (while closed) that trip the breaker open;
    /// 0 acts as 1, as does a `probe_quota` of 0.
    pub failure_threshold: u32,
    /// Logical time the breaker stays open before admitting a probe.
    pub cooldown: Duration,
    /// Successful half-open probes required to close the breaker again.
    pub probe_quota: u32,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_millis(6),
            probe_quota: 1,
        }
    }
}

/// Where a breaker currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: traffic flows, consecutive failures are counted.
    Closed,
    /// Tripped: traffic is rejected until the cooldown elapses.
    Open,
    /// Cooling down ended: probes are admitted to test the node.
    HalfOpen,
}

/// The breaker's answer to "may this request go to the node?".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Node believed healthy; send the request.
    Allow,
    /// Node under test; send the request as a half-open probe.
    Probe,
    /// Node believed broken; steer the request elsewhere.
    Reject,
}

/// A three-state circuit breaker driven by caller-observed outcomes on a
/// caller-supplied logical clock.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    probe_successes: u32,
    opened_at: Duration,
    opens: u64,
    half_open_probes: u64,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    pub fn new(config: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            config,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            probe_successes: 0,
            opened_at: Duration::ZERO,
            opens: 0,
            half_open_probes: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Times the breaker has tripped open (including half-open re-opens).
    pub fn opens(&self) -> u64 {
        self.opens
    }

    /// Probes admitted while half-open.
    pub fn half_open_probes(&self) -> u64 {
        self.half_open_probes
    }

    /// Decide whether a request may go to the node at logical time `now`.
    /// An open breaker whose cooldown has elapsed transitions to half-open
    /// here; every `Probe` returned is counted.
    pub fn admission(&mut self, now: Duration) -> Admission {
        match self.state {
            BreakerState::Closed => Admission::Allow,
            BreakerState::Open => {
                if now >= self.opened_at + self.config.cooldown {
                    self.state = BreakerState::HalfOpen;
                    self.probe_successes = 0;
                    self.half_open_probes += 1;
                    Admission::Probe
                } else {
                    Admission::Reject
                }
            }
            BreakerState::HalfOpen => {
                self.half_open_probes += 1;
                Admission::Probe
            }
        }
    }

    /// Record a successful request outcome.
    pub fn on_success(&mut self, _now: Duration) {
        match self.state {
            BreakerState::Closed => self.consecutive_failures = 0,
            BreakerState::HalfOpen => {
                self.probe_successes += 1;
                if self.probe_successes >= self.config.probe_quota {
                    self.state = BreakerState::Closed;
                    self.consecutive_failures = 0;
                }
            }
            // A late success from before the trip changes nothing.
            BreakerState::Open => {}
        }
    }

    /// Record a failed request outcome at logical time `now`.
    pub fn on_failure(&mut self, now: Duration) {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.config.failure_threshold {
                    self.trip(now);
                }
            }
            // A failed probe re-opens for a fresh cooldown.
            BreakerState::HalfOpen => self.trip(now),
            BreakerState::Open => {}
        }
    }

    fn trip(&mut self, now: Duration) {
        self.state = BreakerState::Open;
        self.opened_at = now;
        self.consecutive_failures = 0;
        self.probe_successes = 0;
        self.opens += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const MS: Duration = Duration::from_millis(1);

    fn breaker(threshold: u32, cooldown_ms: u64, quota: u32) -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            failure_threshold: threshold,
            cooldown: Duration::from_millis(cooldown_ms),
            probe_quota: quota,
        })
    }

    #[test]
    fn trips_after_threshold_consecutive_failures() {
        let mut b = breaker(3, 5, 1);
        for t in 0..2 {
            b.on_failure(MS * t);
            assert_eq!(b.state(), BreakerState::Closed);
        }
        // A success resets the streak.
        b.on_success(MS * 2);
        b.on_failure(MS * 3);
        b.on_failure(MS * 4);
        assert_eq!(b.state(), BreakerState::Closed);
        b.on_failure(MS * 5);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.opens(), 1);
    }

    #[test]
    fn zero_threshold_and_quota_act_as_one() {
        let mut b = breaker(0, 5, 0);
        b.on_failure(Duration::ZERO);
        assert_eq!(b.admission(MS * 5), Admission::Probe);
        b.on_success(MS * 5);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn open_rejects_until_cooldown_then_probes() {
        let mut b = breaker(1, 5, 1);
        b.on_failure(MS * 10);
        assert_eq!(b.admission(MS * 11), Admission::Reject);
        assert_eq!(b.admission(MS * 14), Admission::Reject);
        assert_eq!(b.admission(MS * 15), Admission::Probe);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(b.half_open_probes(), 1);
    }

    #[test]
    fn successful_probe_closes_failed_probe_reopens() {
        let mut b = breaker(1, 5, 1);
        b.on_failure(Duration::ZERO);
        assert_eq!(b.admission(MS * 5), Admission::Probe);
        b.on_success(MS * 5);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.admission(MS * 6), Admission::Allow);

        b.on_failure(MS * 7);
        assert_eq!(b.admission(MS * 12), Admission::Probe);
        b.on_failure(MS * 12);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.opens(), 3);
        assert_eq!(b.admission(MS * 13), Admission::Reject);
    }

    #[test]
    fn probe_quota_requires_that_many_successes() {
        let mut b = breaker(1, 2, 3);
        b.on_failure(Duration::ZERO);
        for i in 0..3u32 {
            assert_eq!(b.admission(MS * (2 + i)), Admission::Probe);
            b.on_success(MS * (2 + i));
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.half_open_probes(), 3);
    }

    #[test]
    fn degenerate_config_is_clamped() {
        let mut b = breaker(0, 1, 0);
        b.on_failure(MS);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.admission(MS * 2), Admission::Probe);
        b.on_success(MS * 2);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    /// One step of the reference walk used by the property tests.
    #[derive(Debug, Clone, Copy)]
    enum Event {
        Admission,
        Success,
        Failure,
    }

    fn event_strategy() -> impl Strategy<Value = Event> {
        prop_oneof![
            Just(Event::Admission),
            Just(Event::Success),
            Just(Event::Failure),
        ]
    }

    proptest! {
        /// Core state-machine invariants over arbitrary outcome sequences:
        /// Reject only while open, Probe only at/after cooldown, opens()
        /// counts exactly the Closed/HalfOpen -> Open transitions, and the
        /// breaker only opens after `threshold` consecutive closed-state
        /// failures.
        #[test]
        fn state_machine_invariants(
            events in proptest::collection::vec(event_strategy(), 1..200),
            threshold in 1u32..5,
            cooldown_ms in 1u64..20,
            quota in 1u32..4,
        ) {
            let mut b = breaker(threshold, cooldown_ms, quota);
            let cooldown = Duration::from_millis(cooldown_ms);
            let mut now = Duration::ZERO;
            let mut opened_at = None;
            let mut closed_failure_streak = 0u32;
            let mut opens_seen = 0u64;
            let mut probes_seen = 0u64;
            for ev in events {
                now += MS;
                let before = b.state();
                match ev {
                    Event::Admission => {
                        let adm = b.admission(now);
                        match adm {
                            Admission::Reject => {
                                prop_assert_eq!(before, BreakerState::Open);
                                // Rejections only happen inside the cooldown.
                                let t = opened_at.expect("open without a trip");
                                prop_assert!(now < t + cooldown);
                            }
                            Admission::Probe => {
                                probes_seen += 1;
                                prop_assert_ne!(before, BreakerState::Closed);
                                if before == BreakerState::Open {
                                    let t = opened_at.expect("open without a trip");
                                    prop_assert!(now >= t + cooldown);
                                }
                                prop_assert_eq!(b.state(), BreakerState::HalfOpen);
                            }
                            Admission::Allow => {
                                prop_assert_eq!(before, BreakerState::Closed);
                            }
                        }
                    }
                    Event::Success => {
                        b.on_success(now);
                        // Success never opens the breaker.
                        prop_assert_ne!(
                            (before, b.state()),
                            (BreakerState::Closed, BreakerState::Open)
                        );
                        if before == BreakerState::Closed {
                            closed_failure_streak = 0;
                        }
                    }
                    Event::Failure => {
                        b.on_failure(now);
                        if before == BreakerState::Closed {
                            closed_failure_streak += 1;
                            if closed_failure_streak >= threshold {
                                prop_assert_eq!(b.state(), BreakerState::Open);
                            } else {
                                prop_assert_eq!(b.state(), BreakerState::Closed);
                            }
                        }
                        if before == BreakerState::HalfOpen {
                            prop_assert_eq!(b.state(), BreakerState::Open);
                        }
                    }
                }
                if b.state() == BreakerState::Open && before != BreakerState::Open {
                    opens_seen += 1;
                    opened_at = Some(now);
                    closed_failure_streak = 0;
                }
            }
            prop_assert_eq!(b.opens(), opens_seen);
            prop_assert_eq!(b.half_open_probes(), probes_seen);
        }

        /// Determinism: replaying the same event sequence on a fresh
        /// breaker reproduces every counter and the final state.
        #[test]
        fn replay_is_exact(
            events in proptest::collection::vec(event_strategy(), 1..100),
            threshold in 1u32..4,
            cooldown_ms in 1u64..10,
        ) {
            let run = || {
                let mut b = breaker(threshold, cooldown_ms, 1);
                let mut now = Duration::ZERO;
                let mut admissions = Vec::new();
                for ev in &events {
                    now += MS;
                    match ev {
                        Event::Admission => admissions.push(b.admission(now)),
                        Event::Success => b.on_success(now),
                        Event::Failure => b.on_failure(now),
                    }
                }
                (admissions, b.state(), b.opens(), b.half_open_probes())
            };
            prop_assert_eq!(run(), run());
        }
    }
}
