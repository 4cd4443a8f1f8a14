//! The host's window (DESIGN.md §10, §18): every decision about its calls
//! and no I/O. Its [`Wire`] tells the time, idles, submits and reads the
//! heartbeat: over the log files (`HostClient::invoke_window`) or in tests.

use crate::batch::{BatchStats, WindowConfig};
use crate::error::SmartFamError;
use crate::faults::{ResilienceStats, SplitMix64};
use crate::host::{InvokeOutcome, Liveness, RetryPolicy, WindowRun};
use mcsd_obs::names::{
    EVENT_HOST_ATTEMPT, EVENT_HOST_OUTCOME, EVENT_HOST_RETRY, EVENT_HOST_WINDOW_REFILL,
    EVENT_HOST_WINDOW_SHRINK,
};
use mcsd_obs::{Tracer, TrackId};
use std::collections::VecDeque;
use std::time::Duration;

/// Everything the window asks of the world.
pub(crate) trait Wire {
    /// One submitted attempt.
    type Ticket: Attempt;
    /// The time since the run began.
    fn now(&self) -> Duration;
    /// Wait out one gap after a sweep that made no progress.
    fn idle(&mut self);
    /// Submit an attempt of call `call` that may be dropped after `budget`.
    fn submit(&mut self, call: usize, budget: Duration) -> Result<Self::Ticket, SmartFamError>;
    /// Read the daemon's heartbeat against `max_age`.
    fn liveness(&self, max_age: Duration) -> Liveness;
}

/// One attempt in flight.
pub(crate) trait Attempt {
    /// The request id, for the timeout error.
    fn id(&self) -> u64;
    /// The corrupt bytes skipped so far while waiting for the answer.
    fn skipped(&self) -> u64;
    /// The answer if it has arrived: `Ok(None)` while it has not.
    fn poll(&mut self) -> Result<Option<InvokeOutcome>, SmartFamError>;
}

/// Ceiling of the exponential retry backoff (before jitter).
const RETRY_BACKOFF_CAP: Duration = Duration::from_millis(100);

/// Seed of the retry jitter (up to +25 % stretch): every call draws the
/// same sequence, so retry pauses repeat run to run.
const RETRY_JITTER_SEED: u64 = 0x6d63_7364; // "mcsd"

impl RetryPolicy {
    /// The pause before a call's retry number `retry` (0-based) after `err`:
    /// exponential, capped, stretched by up to +25 % by its `retry`-th seeded
    /// jitter draw, and never shorter than a shedding daemon's `retry_after`,
    /// since retrying earlier would just be shed again.
    fn pause(&self, retry: u32, err: &SmartFamError) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << retry.min(16))
            .min(RETRY_BACKOFF_CAP);
        let mut jitter = SplitMix64::new(RETRY_JITTER_SEED);
        let draw = (0..=retry).fold(0, |_, _| jitter.next_u64());
        let pause = exp.mul_f64(1.0 + (draw % 256) as f64 / 1024.0);
        match err {
            SmartFamError::Overloaded { retry_after, .. } => pause.max(*retry_after),
            _ => pause,
        }
    }
}

impl Liveness {
    /// Whether this reading, for a call that has waited `waited`, means the
    /// daemon is gone: stale, unreadable, or still missing after `max_age`.
    fn is_dead(self, waited: Duration, max_age: Duration) -> bool {
        match self {
            Liveness::Stale | Liveness::Unreadable => true,
            Liveness::Missing => waited > max_age,
            Liveness::Alive => false,
        }
    }
}

/// Run `calls` calls to `module` through a window of up to `cfg.depth`
/// attempts in flight, under `policy`, tracing on `track`. Outcomes come
/// back in call order, whatever order the attempts completed in.
pub(crate) fn run<W: Wire>(
    wire: &mut W,
    module: &str,
    calls: usize,
    cfg: &WindowConfig,
    policy: &RetryPolicy,
    (tracer, track): (&Tracer, TrackId),
) -> WindowRun {
    let max_age = policy.heartbeat_max_age;
    let max_attempts = u64::from(policy.max_attempts.max(1));
    let mut outcomes: Vec<Option<_>> = (0..calls).map(|_| None).collect();
    let mut resilience = vec![ResilienceStats::default(); calls];
    let mut stats = BatchStats::default();
    let (mut depth, mut next, mut clean_streak) = (cfg.depth.max(1), 0, 0);
    // (call, first submit, this submit, budget, ticket), in submit order.
    let mut inflight: Vec<(usize, Duration, Duration, Duration, W::Ticket)> = Vec::new();
    // (call, its first submit, when its retry is due, its last error).
    let mut parked: VecDeque<(usize, Duration, Duration, SmartFamError)> = VecDeque::new();
    let mut probed = Duration::ZERO;
    // Where a failed attempt leaves its call: parked for a pause, or settled
    // with its error (fatal, out of attempts or of deadline) or `DaemonDead`.
    let after_failure = |wire: &W, call: &mut ResilienceStats, waited, err: SmartFamError| {
        let pause = policy.pause(call.retries as u32, &err);
        let spent =
            call.attempts >= max_attempts || pause >= cfg.call_timeout.saturating_sub(waited);
        if spent || matches!(err, SmartFamError::DaemonDead { .. }) || err.is_quarantined() {
            return Err(err);
        }
        if wire.liveness(max_age).is_dead(waited, max_age) {
            let module = module.to_string();
            return Err(SmartFamError::DaemonDead { module });
        }
        call.retries += 1;
        tracer.event(track, EVENT_HOST_RETRY, &[("module", module)]);
        Ok((pause, err))
    };
    while next < calls || !inflight.is_empty() || !parked.is_empty() {
        let now = wire.now();
        let mut progressed = false;
        // Refill: due retries first (the oldest calls; one whose deadline
        // passed while parked settles instead), then fresh calls.
        while inflight.len() < depth {
            let due = parked.iter().position(|p| p.2 <= now);
            let (i, started) = match due.and_then(|d| parked.remove(d)) {
                Some((i, started, _, err)) if now - started >= cfg.call_timeout => {
                    outcomes[i] = Some(Err(err));
                    progressed = true;
                    continue;
                }
                Some((i, started, ..)) => (i, started),
                None if next < calls => {
                    next += 1;
                    (next - 1, now)
                }
                None => break,
            };
            progressed = true;
            // The attempt's budget: the deadline left over the attempts left.
            let call = &mut resilience[i];
            let left = max_attempts - call.attempts;
            let budget = cfg.call_timeout.saturating_sub(now - started) / left as u32;
            call.attempts += 1;
            tracer.event_with(track, EVENT_HOST_ATTEMPT, |a| {
                a.str("module", module);
                a.u64("attempt", call.attempts);
            });
            if inflight.is_empty() {
                probed = now;
            }
            match wire.submit(i, budget) {
                Ok(ticket) => {
                    inflight.push((i, started, now, budget, ticket));
                    // Summed at each submit: over submits, the mean fill.
                    stats.window_occupancy += inflight.len() as u64;
                }
                Err(e) => match after_failure(wire, &mut resilience[i], now - started, e) {
                    Ok((pause, e)) => parked.push_back((i, started, now + pause, e)),
                    Err(e) => outcomes[i] = Some(Err(e)),
                },
            }
        }
        // One heartbeat probe per `max_age / 32` for the whole window.
        let liveness = (!inflight.is_empty() && now - probed >= max_age / 32).then(|| {
            probed = now;
            wire.liveness(max_age)
        });
        // Poll sweep: completions leave from any slot, in any order.
        let mut k = 0;
        while k < inflight.len() {
            let (_, _, submitted, budget, ticket) = &mut inflight[k];
            let waited = now - *submitted;
            let dead = liveness.is_some_and(|l| l.is_dead(waited, max_age));
            let result = match ticket.poll() {
                Ok(Some(out)) => Ok(out),
                Ok(None) if waited >= *budget => Err(SmartFamError::Timeout {
                    module: module.to_string(),
                    request_id: ticket.id(),
                }),
                Ok(None) if dead => Err(SmartFamError::DaemonDead {
                    module: module.to_string(),
                }),
                Ok(None) => {
                    k += 1;
                    continue;
                }
                Err(e) => Err(e),
            };
            let (i, started, _, _, ticket) = inflight.remove(k);
            progressed = true;
            resilience[i].corrupt_skipped_bytes += ticket.skipped();
            match result {
                Ok(out) => {
                    if inflight.iter().any(|(j, ..)| *j < i) {
                        stats.reordered_completions += 1;
                    }
                    clean_streak += 1;
                    // Additive increase after a full clean window.
                    if clean_streak >= depth && depth < cfg.depth {
                        depth += 1;
                        clean_streak = 0;
                        tracer.event_with(track, EVENT_HOST_WINDOW_REFILL, |a| {
                            a.u64("depth", depth as u64)
                        });
                    }
                    outcomes[i] = Some(Ok(InvokeOutcome {
                        elapsed: now - started,
                        resilience: resilience[i],
                        ..out
                    }));
                }
                Err(e) => {
                    // Multiplicative decrease, counted when it shrinks.
                    if matches!(e, SmartFamError::Overloaded { .. }) {
                        clean_streak = 0;
                        if depth > 1 {
                            depth /= 2;
                            stats.window_shrinks += 1;
                            tracer.event_with(track, EVENT_HOST_WINDOW_SHRINK, |a| {
                                a.u64("depth", depth as u64)
                            });
                        }
                    }
                    match after_failure(wire, &mut resilience[i], now - started, e) {
                        Ok((pause, e)) => parked.push_back((i, started, now + pause, e)),
                        Err(e) => outcomes[i] = Some(Err(e)),
                    }
                }
            }
        }
        if !progressed {
            wire.idle();
        }
    }
    // Every call has settled (sized up front: `flatten` hints no length).
    let mut settled = Vec::with_capacity(calls);
    settled.extend(outcomes.into_iter().flatten());
    for outcome in &settled {
        let status = if outcome.is_ok() { "ok" } else { "error" };
        let attrs = [("module", module), ("status", status)];
        tracer.event(track, EVENT_HOST_OUTCOME, &attrs);
    }
    WindowRun {
        outcomes: settled,
        resilience,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsd_obs::ClockDomain;
    use std::cell::Cell;

    thread_local! {
        /// This test's virtual clock: only `idle` moves it.
        static CLOCK: Cell<Duration> = const { Cell::new(Duration::ZERO) };
    }

    fn clock() -> Duration {
        CLOCK.with(Cell::get)
    }

    /// An answer and the ms it shows at: after its submit in a script, on
    /// the clock in a ticket.
    type Answer = Option<(u64, Result<&'static [u8], SmartFamError>)>;

    /// A scripted attempt: its id, its answer and the bytes it skipped.
    struct Ticket(u64, Answer, u64);

    impl Attempt for Ticket {
        fn id(&self) -> u64 {
            self.0
        }

        fn skipped(&self) -> u64 {
            self.2
        }

        fn poll(&mut self) -> Result<Option<InvokeOutcome>, SmartFamError> {
            let shown = self.1.take_if(|a| Duration::from_millis(a.0) <= clock());
            let outcome = |payload: &[u8]| InvokeOutcome {
                payload: payload.to_vec(),
                request_bytes: 0,
                response_bytes: 0,
                elapsed: Duration::ZERO,
                resilience: ResilienceStats::default(),
            };
            shown.map(|(_, answer)| answer.map(outcome)).transpose()
        }
    }

    /// A wire whose first submit gets `first` and each later one `ok` after
    /// `rest` ms, whose tickets skip `skipped` bytes and whose heartbeat
    /// reads `liveness`. It logs each submit's time and budget.
    struct Scripted {
        first: Answer,
        rest: Option<u64>,
        skipped: u64,
        liveness: Liveness,
        submits: Vec<(Duration, Duration)>,
    }

    impl Wire for Scripted {
        type Ticket = Ticket;

        fn now(&self) -> Duration {
            clock()
        }

        fn idle(&mut self) {
            // A window that never settles fails instead of spinning.
            assert!(clock() < Duration::from_secs(3_600), "never settled");
            CLOCK.with(|c| c.set(c.get() + Duration::from_millis(1)));
        }

        fn submit(&mut self, _: usize, budget: Duration) -> Result<Ticket, SmartFamError> {
            let answer = if self.submits.is_empty() {
                self.first.take()
            } else {
                self.rest.and_then(ok)
            };
            let id = self.submits.len() as u64;
            self.submits.push((clock(), budget));
            let at = |ms: u64| ms.saturating_add(clock().as_millis() as u64);
            Ok(Ticket(id, answer.map(|(ms, a)| (at(ms), a)), self.skipped))
        }

        fn liveness(&self, _: Duration) -> Liveness {
            self.liveness
        }
    }

    fn wire(liveness: Liveness, first: Answer, rest: Option<u64>) -> Scripted {
        Scripted {
            first,
            rest,
            skipped: 0,
            liveness,
            submits: Vec::new(),
        }
    }

    /// Run `calls` calls, `depth` at a time and `timeout_ms` each, from
    /// time zero.
    fn run_on(
        wire: &mut Scripted,
        (calls, depth, timeout_ms): (usize, usize, u64),
        policy: RetryPolicy,
    ) -> WindowRun {
        CLOCK.with(|c| c.set(Duration::ZERO));
        let call_timeout = Duration::from_millis(timeout_ms);
        let cfg = WindowConfig {
            depth,
            call_timeout,
        };
        let tracer = Tracer::disabled();
        let track = tracer.track("host", ClockDomain::Decision);
        run(wire, "m", calls, &cfg, &policy, (&tracer, track))
    }

    /// `max_attempts` a call, 1 ms of backoff, stale after `max_age_ms`.
    fn policy(max_attempts: u32, max_age_ms: u64) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            base_backoff: Duration::from_millis(1),
            heartbeat_max_age: Duration::from_millis(max_age_ms),
        }
    }

    fn ok(ms: u64) -> Answer {
        Some((ms, Ok(b"ok")))
    }

    fn failed(message: &str) -> Answer {
        let (module, message) = ("m".to_string(), message.to_string());
        Some((0, Err(SmartFamError::ModuleFailed { module, message })))
    }

    fn shed(ms: u64) -> Answer {
        let (module, retry_after) = ("m".to_string(), Duration::from_millis(ms));
        let shed = SmartFamError::Overloaded {
            module,
            retry_after,
        };
        Some((0, Err(shed)))
    }

    fn dead(outcome: &Result<InvokeOutcome, SmartFamError>) -> bool {
        matches!(outcome, Err(SmartFamError::DaemonDead { .. }))
    }

    #[test]
    fn resilient_call_declares_dead_daemon_without_burning_deadline() {
        // No heartbeat was ever written: the probe declares the daemon
        // dead after the grace period, far inside the 30 s deadline.
        let mut wire = wire(Liveness::Missing, None, None);
        let run = run_on(&mut wire, (1, 1, 30_000), policy(3, 60));
        assert!(dead(&run.outcomes[0]), "{:?}", run.outcomes);
        assert!(clock() < Duration::from_secs(5), "{:?}", clock());
        assert!(run.resilience[0].attempts >= 1);
    }

    #[test]
    fn resilient_call_retries_transient_module_failure() {
        let mut wire = wire(Liveness::Alive, failed("transient glitch"), Some(0));
        let run = run_on(&mut wire, (1, 1, 30_000), policy(3, 1_000));
        let (out, r) = (run.outcomes[0].as_ref().unwrap(), run.resilience[0]);
        assert_eq!(out.payload, b"ok");
        assert_eq!((r.attempts, r.retries), (2, 1));
        assert_eq!(out.resilience, r);
        // Allowed one attempt, the call settles with the failure.
        let mut once = self::wire(Liveness::Alive, failed("transient glitch"), Some(0));
        let run = run_on(&mut once, (1, 1, 30_000), policy(1, 1_000));
        let failed = matches!(run.outcomes[0], Err(SmartFamError::ModuleFailed { .. }));
        assert!(failed && run.resilience[0].attempts == 1, "{run:?}");
    }

    #[test]
    fn remaining_deadline_flows_to_later_attempts() {
        // Attempt 1 fails at once. Split `deadline / max_attempts`, attempt
        // 2 would get 1 s and time out before its answer at 1.2 s; the
        // deadline left hands it nearly the full 2 s.
        let mut wire = wire(Liveness::Alive, failed("fast failure"), Some(1_200));
        let run = run_on(&mut wire, (1, 1, 2_000), policy(2, 1_000));
        let out = run.outcomes[0].as_ref().expect("attempt 2 in time");
        assert_eq!(out.payload, b"ok");
        assert_eq!(run.resilience[0].attempts, 2);
        let budgets: Vec<_> = wire.submits.iter().map(|s| s.1).collect();
        assert_eq!(budgets[0], Duration::from_secs(1));
        assert!(budgets[1] > Duration::from_millis(1_900), "{budgets:?}");
    }

    #[test]
    fn overloaded_reply_is_retried_after_the_suggested_delay() {
        let mut wire = wire(Liveness::Alive, shed(80), Some(0));
        let run = run_on(&mut wire, (1, 1, 30_000), policy(3, 1_000));
        assert_eq!(run.outcomes[0].as_ref().unwrap().payload, b"ok");
        assert_eq!(run.resilience[0].retries, 1);
        // The retry honoured the daemon's suggested delay, to the tick.
        assert_eq!(wire.submits[1].0, Duration::from_millis(80));
    }

    #[test]
    fn a_retry_pause_past_the_deadline_settles_the_call_at_once() {
        // A `retry_after` of u64::MAX ms would park the call for good, and
        // one of exactly the 300 ms left would only wait them out.
        for retry_ms in [u64::MAX, 300] {
            let mut wire = wire(Liveness::Alive, shed(retry_ms), Some(0));
            let run = run_on(&mut wire, (1, 1, 300), RetryPolicy::default());
            let shed = matches!(run.outcomes[0], Err(SmartFamError::Overloaded { .. }));
            assert!(shed, "{:?}", run.outcomes);
            let r = run.resilience[0];
            assert_eq!((r.attempts, r.retries), (1, 0));
            assert!(clock() < Duration::from_millis(300), "{:?}", clock());
        }
        // A pause ending inside the last tick parks the call, which settles
        // with its error when the tick reaches the deadline.
        let (module, retry_after) = ("m".to_string(), Duration::from_micros(299_500));
        let late = SmartFamError::Overloaded {
            module,
            retry_after,
        };
        let mut parked = wire(Liveness::Alive, Some((0, Err(late))), Some(0));
        let run = run_on(&mut parked, (1, 1, 300), RetryPolicy::default());
        let shed = matches!(run.outcomes[0], Err(SmartFamError::Overloaded { .. }));
        assert!(shed, "{:?}", run.outcomes);
        assert_eq!(clock(), Duration::from_millis(300));
    }

    /// Each bound falls on the tick it names: an attempt times out at its
    /// budget, and a stale heartbeat is read `max_age / 32` after the
    /// window last went busy, so a call answered sooner never meets it.
    #[test]
    fn timeouts_and_probes_fall_on_the_tick_they_name() {
        let mut lost = wire(Liveness::Alive, None, None);
        let run = run_on(&mut lost, (1, 1, 20), policy(1, 1_000));
        let timed_out = matches!(run.outcomes[0], Err(SmartFamError::Timeout { .. }));
        assert!(timed_out && clock() == Duration::from_millis(20), "{run:?}");
        // Read every 3 ms: calls answered after 2 ms never meet the beat...
        let mut quick = wire(Liveness::Stale, ok(2), Some(2));
        let run = run_on(&mut quick, (3, 1, 1_000), policy(1, 96));
        assert!(run.outcomes.iter().all(Result::is_ok), "{run:?}");
        // ...and an unanswered call meets it 3 ms after its submit.
        let mut silent = wire(Liveness::Stale, None, None);
        let run = run_on(&mut silent, (1, 1, 1_000), policy(1, 96));
        assert!(dead(&run.outcomes[0]) && clock() == Duration::from_millis(3));
    }

    #[test]
    fn window_depth_one_degenerates_to_lockstep() {
        let mut wire = wire(Liveness::Alive, ok(1), Some(1));
        let run = run_on(&mut wire, (4, 1, 5_000), policy(3, 1_000));
        assert!(run.outcomes.iter().all(Result::is_ok), "{:?}", run.outcomes);
        // Depth 1: exactly one call in flight per submit, and lockstep
        // order means nothing can complete out of order.
        assert_eq!(run.stats.window_occupancy, 4, "{}", run.stats);
        assert_eq!(run.stats.reordered_completions, 0, "{}", run.stats);
    }

    #[test]
    fn window_counts_each_completion_ahead_of_an_earlier_call() {
        // Call 0's first attempt goes unanswered and every other is
        // answered at once: calls 1-3 complete while call 0 is in flight,
        // and call 0 completes last, on its retry.
        let mut wire = wire(Liveness::Alive, None, Some(0));
        let run = run_on(&mut wire, (4, 4, 3_000), RetryPolicy::default());
        assert!(run.outcomes.iter().all(Result::is_ok), "{:?}", run.outcomes);
        assert_eq!(run.resilience[0].attempts, 2);
        assert_eq!(run.stats.reordered_completions, 3, "{}", run.stats);
    }

    #[test]
    fn window_counts_the_corrupt_bytes_before_its_answer_once() {
        // The ticket reports the 24 bytes it skipped on each of four polls.
        let mut wire = wire(Liveness::Alive, ok(3), Some(3));
        wire.skipped = 24;
        let run = run_on(&mut wire, (1, 1, 5_000), policy(3, 1_000));
        assert!(run.outcomes.iter().all(Result::is_ok), "{:?}", run.outcomes);
        assert_eq!(run.resilience[0].corrupt_skipped_bytes, 24);
    }

    #[test]
    fn window_shrinks_on_overloaded_and_retries_the_shed_call() {
        // Shed the very first request; serve the rest (its retry too).
        let mut wire = wire(Liveness::Alive, shed(10), Some(0));
        let run = run_on(&mut wire, (20, 4, 5_000), policy(3, 1_000));
        assert!(
            run.outcomes.iter().all(Result::is_ok),
            "shed call not retried: {run:?}"
        );
        assert_eq!(run.stats.window_shrinks, 1, "{}", run.stats);
        // Halved to 2, the depth grows by one per window's worth of clean
        // completions, 2 then 3: refills of 4 calls, 3, then 4 at a time.
        assert_eq!(run.stats.window_occupancy, 48, "{}", run.stats);
    }

    #[test]
    fn window_fails_every_call_fast_when_the_daemon_stopped() {
        let mut wire = wire(Liveness::Stale, None, None);
        let run = run_on(&mut wire, (8, 4, 10_000), policy(3, 100));
        assert!(clock() < Duration::from_secs(3), "{:?}", clock());
        assert!(run.outcomes.iter().all(dead), "{:?}", run.outcomes);
        assert_eq!(run.outcomes.len(), 8);
    }

    #[test]
    fn the_machines_own_no_file_and_read_no_clock() {
        for source in [include_str!("window.rs"), include_str!("sd.rs")] {
            let code = &source[..source.find("#[cfg(test)]").unwrap()];
            for word in "std::thread std::fs sleep now_ms Instant Stopwatch".split(' ') {
                assert!(
                    !code.contains(word),
                    "{:?} names {word}",
                    code.lines().next()
                );
            }
        }
    }
}
