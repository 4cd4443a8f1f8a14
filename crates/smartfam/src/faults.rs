//! Deterministic fault injection for the smartFAM offload path.
//!
//! The paper defers fault tolerance to future work (§VI); this module is
//! the correctness instrument that lets the rest of the workspace close
//! that gap reproducibly. A [`FaultPlan`] is a schedule of faults keyed by
//! *injection site* and *occurrence number*; a [`FaultInjector`] carries
//! the plan plus per-site atomic counters and is threaded (cloned) through
//! the host client, the log files, and the daemon. Every consumer asks the
//! injector "should this operation fail?" through the one hook,
//! [`FaultInjector::fire`], and matches on the [`FaultAction`] it gets
//! back, so a run with the same plan and the same request sequence fires
//! the same faults — there is no wall-clock or entropy input anywhere in
//! the schedule. Plans can be written by hand ([`FaultPlan::with`]) or derived
//! entirely from a `u64` seed ([`FaultPlan::from_seed`]), which is what the
//! fault-matrix tests sweep.
//!
//! Sites are split per role (host append vs SD append, host poll vs SD
//! poll) so the host's and daemon's activity never race for the same
//! counter — that separation is what makes replays byte-exact.

use crate::log_file::{LogIo, LogRole};
use mcsd_obs::CounterFamily;
use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Marker embedded in the daemon's error responses for quarantined
/// modules, so hosts can classify the failure without a schema change.
pub const QUARANTINE_TOKEN: &str = "quarantined after";

/// Where in the offload path a fault fires. Each site has its own
/// occurrence counter inside the injector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// The host appending a request frame to a module log.
    HostAppend,
    /// The daemon appending a response frame to a module log.
    SdAppend,
    /// The host polling a module log for responses.
    HostPoll,
    /// The daemon polling a module log for requests.
    SdPoll,
    /// The daemon dispatching a request to a processing module.
    Dispatch,
    /// The daemon writing its heartbeat file.
    Heartbeat,
    /// A multi-SD span being executed on its primary node.
    Span,
    /// One member of a replication group receiving a fanned-out append.
    /// Occurrences advance in fan-out order (entry-major, replica-minor),
    /// so occurrence `k` with group size `g` is entry `k / g`, replica
    /// `k % g` — exact and replayable.
    Replica,
    /// A whole replication group at an append round: a scheduled
    /// [`FaultAction::CrashReplicas`] takes down every replica named in
    /// its mask at once (correlated rack failure).
    Group,
    /// The daemon committing a coalesced append batch (one fsync per
    /// batch). Occurrences advance once per batch commit, in batch-id
    /// order, so they are a pure function of the request sequence.
    BatchAppend,
}

impl FaultSite {
    /// Every injection site, in declaration order (a site's discriminant
    /// is its counter slot). The chaos explorer sweeps this list; a new
    /// variant that is not added here fails the catalog test rather than
    /// being silently skipped.
    pub const ALL: [FaultSite; 10] = [
        FaultSite::HostAppend,
        FaultSite::SdAppend,
        FaultSite::HostPoll,
        FaultSite::SdPoll,
        FaultSite::Dispatch,
        FaultSite::Heartbeat,
        FaultSite::Span,
        FaultSite::Replica,
        FaultSite::Group,
        FaultSite::BatchAppend,
    ];

    /// Stable, seed-free name used in chaos reports and traces.
    pub fn label(self) -> &'static str {
        match self {
            FaultSite::HostAppend => "host_append",
            FaultSite::SdAppend => "sd_append",
            FaultSite::HostPoll => "host_poll",
            FaultSite::SdPoll => "sd_poll",
            FaultSite::Dispatch => "dispatch",
            FaultSite::Heartbeat => "heartbeat",
            FaultSite::Span => "span",
            FaultSite::Replica => "replica",
            FaultSite::Group => "group",
            FaultSite::BatchAppend => "batch_append",
        }
    }

    /// Whether this site's occurrence numbering is a pure function of the
    /// request sequence. Poll and heartbeat sites advance with wall-clock
    /// pacing (how often a waiter re-checks a file), so two clean runs of
    /// the same scenario cross them a different number of times; the
    /// chaos explorer excludes them from point enumeration and says so in
    /// its report instead of silently under-covering.
    pub fn counter_deterministic(self) -> bool {
        match self {
            FaultSite::HostAppend
            | FaultSite::SdAppend
            | FaultSite::Dispatch
            | FaultSite::Span
            | FaultSite::Replica
            | FaultSite::Group
            | FaultSite::BatchAppend => true,
            FaultSite::HostPoll | FaultSite::SdPoll | FaultSite::Heartbeat => false,
        }
    }
}

/// What happens when a scheduled fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Daemon exits before executing the request (valid at
    /// [`FaultSite::Dispatch`]).
    CrashBefore,
    /// Daemon executes the request, drops the response, and exits (valid
    /// at [`FaultSite::Dispatch`]).
    CrashAfter,
    /// The append writes only a prefix of the frame — `keep_sixteenths/16`
    /// of the encoded bytes, clamped so at least one byte is written and
    /// at least one is dropped (valid at append sites).
    Torn {
        /// Numerator of the kept fraction, out of 16.
        keep_sixteenths: u8,
    },
    /// The append writes the full frame with one mid-body byte XORed by
    /// this mask, driving the codec's `Corrupt` path (valid at append
    /// sites; the mask is forced non-zero).
    Corrupt {
        /// XOR mask applied to one body byte.
        xor_mask: u8,
    },
    /// The next `polls` polls at this site observe no new data — the
    /// stale-NFS-read emulation (valid at poll sites).
    Hide {
        /// Number of consecutive polls that see stale data.
        polls: u32,
    },
    /// The operation reports failure: at [`FaultSite::Dispatch`] the
    /// module "fails" with an injected error response; at
    /// [`FaultSite::Span`] the span's primary node refuses the work.
    Fail,
    /// The next `beats` heartbeat writes are skipped, so the heartbeat
    /// file goes stale (valid at [`FaultSite::Heartbeat`]).
    Stall {
        /// Number of consecutive heartbeats suppressed.
        beats: u32,
    },
    /// A correlated failure: every replica whose bit is set in `mask`
    /// crashes at the same append round (valid at [`FaultSite::Group`]).
    /// Bit `r` names replica index `r`; the mask is forced non-zero.
    CrashReplicas {
        /// Bitmask of replica indices taken down together.
        mask: u8,
    },
}

impl FaultAction {
    /// Whether this action has any effect at `site` — the one site ×
    /// action matrix. [`FaultInjector::fire`] never returns an entry this
    /// rejects, and the chaos explorer uses it to avoid scheduling runs
    /// that cannot fire.
    pub fn valid_at(self, site: FaultSite) -> bool {
        match self {
            FaultAction::CrashBefore | FaultAction::CrashAfter => {
                matches!(site, FaultSite::Dispatch | FaultSite::Replica)
            }
            FaultAction::Torn { .. } => matches!(
                site,
                FaultSite::HostAppend
                    | FaultSite::SdAppend
                    | FaultSite::Replica
                    | FaultSite::BatchAppend
            ),
            FaultAction::Corrupt { .. } => matches!(
                site,
                FaultSite::HostAppend
                    | FaultSite::SdAppend
                    | FaultSite::Replica
                    | FaultSite::BatchAppend
            ),
            FaultAction::Hide { .. } => {
                matches!(site, FaultSite::HostPoll | FaultSite::SdPoll)
            }
            FaultAction::Fail => matches!(site, FaultSite::Dispatch | FaultSite::Span),
            FaultAction::Stall { .. } => matches!(site, FaultSite::Heartbeat),
            FaultAction::CrashReplicas { .. } => matches!(site, FaultSite::Group),
        }
    }

    /// Stable, seed-free name (parameters included) used in chaos reports
    /// and traces.
    pub fn label(self) -> String {
        match self {
            FaultAction::CrashBefore => "crash_before".to_string(),
            FaultAction::CrashAfter => "crash_after".to_string(),
            FaultAction::Torn { keep_sixteenths } => format!("torn[{keep_sixteenths}/16]"),
            FaultAction::Corrupt { xor_mask } => format!("corrupt[0x{xor_mask:02x}]"),
            FaultAction::Hide { polls } => format!("hide[{polls}]"),
            FaultAction::Fail => "fail".to_string(),
            FaultAction::Stall { beats } => format!("stall[{beats}]"),
            FaultAction::CrashReplicas { mask } => format!("crash_replicas[0b{mask:03b}]"),
        }
    }
}

/// One scheduled fault: at `site`, on occurrence number `nth` (0-based),
/// perform `action`. `Hide` and `Stall` cover the window
/// `[nth, nth + n)` of occurrences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledFault {
    /// Injection site.
    pub site: FaultSite,
    /// 0-based occurrence at which the fault fires.
    pub nth: u64,
    /// What to do.
    pub action: FaultAction,
}

/// A deterministic schedule of faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<ScheduledFault>,
}

impl FaultPlan {
    /// The empty plan: no faults ever fire.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Add one scheduled fault (builder style).
    pub fn with(mut self, site: FaultSite, nth: u64, action: FaultAction) -> FaultPlan {
        self.faults.push(ScheduledFault { site, nth, action });
        self
    }

    /// The scheduled faults, in insertion order.
    pub fn faults(&self) -> &[ScheduledFault] {
        &self.faults
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Derive a plan of 1–3 faults entirely from `seed`. Only fault kinds
    /// whose observable effect is *counter-deterministic* are drawn here —
    /// host-side torn appends (fail synchronously), SD-side torn/corrupt
    /// appends (the host times the attempt out and retries), dispatch
    /// crashes and failures, heartbeat stalls, and hidden host polls — so
    /// replaying a seed reproduces the exact same `ResilienceStats`.
    pub fn from_seed(seed: u64) -> FaultPlan {
        let mut rng = SplitMix64::new(seed);
        let mut plan = FaultPlan::none();
        let n = 1 + rng.next_u64() % 3;
        for _ in 0..n {
            let (site, nth, action) = match rng.next_u64() % 7 {
                0 => (
                    FaultSite::Dispatch,
                    rng.next_u64() % 2,
                    FaultAction::CrashBefore,
                ),
                1 => (
                    FaultSite::Dispatch,
                    rng.next_u64() % 2,
                    FaultAction::CrashAfter,
                ),
                2 => (FaultSite::Dispatch, rng.next_u64() % 2, FaultAction::Fail),
                3 => (
                    FaultSite::SdAppend,
                    rng.next_u64() % 2,
                    FaultAction::Corrupt {
                        xor_mask: 1 + (rng.next_u64() % 255) as u8,
                    },
                ),
                4 => (
                    FaultSite::HostAppend,
                    rng.next_u64() % 2,
                    FaultAction::Torn {
                        keep_sixteenths: 4 + (rng.next_u64() % 9) as u8,
                    },
                ),
                5 => (
                    FaultSite::Heartbeat,
                    rng.next_u64() % 4,
                    FaultAction::Stall {
                        beats: 1 + (rng.next_u64() % 4) as u32,
                    },
                ),
                _ => (
                    FaultSite::HostPoll,
                    rng.next_u64() % 8,
                    FaultAction::Hide {
                        polls: 1 + (rng.next_u64() % 24) as u32,
                    },
                ),
            };
            plan = plan.with(site, nth, action);
        }
        plan
    }

    /// Derive a replication-focused plan of 1–3 faults entirely from
    /// `seed`. Kept separate from [`FaultPlan::from_seed`] so the
    /// seed→plan mappings pinned by the PR-2 fault-matrix tests never
    /// move. Draws only counter-deterministic replica-layer faults:
    /// per-replica torn/corrupt appends and crashes
    /// ([`FaultSite::Replica`]) and correlated group crashes
    /// ([`FaultSite::Group`], mask always leaves at least one replica of
    /// a 3-group standing), so replaying a seed reproduces the exact
    /// same `ReplicationStats`.
    pub fn replication_from_seed(seed: u64) -> FaultPlan {
        let mut rng = SplitMix64::new(seed);
        let mut plan = FaultPlan::none();
        let n = 1 + rng.next_u64() % 3;
        for _ in 0..n {
            let (site, nth, action) = match rng.next_u64() % 6 {
                0 => (
                    FaultSite::Replica,
                    rng.next_u64() % 6,
                    FaultAction::CrashBefore,
                ),
                1 => (
                    FaultSite::Replica,
                    rng.next_u64() % 6,
                    FaultAction::CrashAfter,
                ),
                2 => (
                    FaultSite::Replica,
                    rng.next_u64() % 6,
                    FaultAction::Torn {
                        keep_sixteenths: 4 + (rng.next_u64() % 9) as u8,
                    },
                ),
                3 | 4 => (
                    FaultSite::Replica,
                    rng.next_u64() % 6,
                    FaultAction::Corrupt {
                        xor_mask: 1 + (rng.next_u64() % 255) as u8,
                    },
                ),
                _ => (
                    FaultSite::Group,
                    rng.next_u64() % 2,
                    FaultAction::CrashReplicas {
                        mask: 1 + (rng.next_u64() % 6) as u8,
                    },
                ),
            };
            plan = plan.with(site, nth, action);
        }
        plan
    }
}

/// A fault that actually fired, for post-run inspection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// Where it fired.
    pub site: FaultSite,
    /// The occurrence number it fired at.
    pub occurrence: u64,
    /// What it did.
    pub action: FaultAction,
}

struct InjectorInner {
    plan: FaultPlan,
    /// When set, `fire` counts occurrences even with an empty (or
    /// never-matching) plan, so a clean run can *discover* its injection
    /// points. Production injectors keep this off and retain the
    /// zero-overhead fast path.
    probe: bool,
    counters: [AtomicU64; FaultSite::ALL.len()],
    fired: Mutex<Vec<InjectedFault>>,
    /// A stepped clock's reading; `None` reads the wall clock.
    clock: Option<AtomicU64>,
    /// The run's I/O ledger, a row per [`LogRole`] in its order.
    io: Option<Mutex<[LogIo<false>; 2]>>,
}

/// Shared handle to a fault plan plus its per-site occurrence counters,
/// and to the run's clock. Cloning is cheap and all clones share state,
/// so the host client, the log files, and the daemon all see one
/// consistent schedule and one "now".
#[derive(Clone)]
pub struct FaultInjector {
    inner: Arc<InjectorInner>,
}

impl fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultInjector")
            .field("plan", &self.inner.plan)
            .field("fired", &self.fired())
            .finish()
    }
}

impl FaultInjector {
    /// An injector that never fires (the production configuration). Every
    /// disabled injector is a clone of one process-wide instance — no
    /// allocation per call — which is sound because the empty-plan fast
    /// path never touches the counters or the fired list.
    pub fn disabled() -> FaultInjector {
        static DISABLED: OnceLock<FaultInjector> = OnceLock::new();
        DISABLED
            .get_or_init(|| FaultInjector::build(FaultPlan::none(), false, None, false))
            .clone()
    }

    /// An injector executing `plan`.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector::build(plan, false, None, true)
    }

    /// An injector executing `plan` on a clock stopped at `now_ms`, which
    /// moves only by [`FaultInjector::set_clock`].
    pub fn stepped(plan: FaultPlan, now_ms: u64) -> FaultInjector {
        FaultInjector::build(plan, false, Some(now_ms), true)
    }

    fn build(plan: FaultPlan, probe: bool, clock: Option<u64>, ledger: bool) -> FaultInjector {
        FaultInjector {
            inner: Arc::new(InjectorInner {
                plan,
                probe,
                counters: Default::default(),
                fired: Mutex::new(Vec::new()),
                clock: clock.map(AtomicU64::new),
                io: ledger.then(Default::default),
            }),
        }
    }

    /// A *probing* injector: executes `plan` exactly like
    /// [`FaultInjector::new`] but keeps the occurrence counters running
    /// even when the plan is empty or never matches, so a clean run of a
    /// scenario discovers every `(site, occurrence)` point it crosses.
    /// This is the discovery half of the chaos explorer; production code
    /// never uses it, so the empty-plan fast path stays intact there.
    pub fn probing(plan: FaultPlan) -> FaultInjector {
        FaultInjector::build(plan, true, None, true)
    }

    /// An injector executing the plan derived from `seed`.
    pub fn from_seed(seed: u64) -> FaultInjector {
        FaultInjector::new(FaultPlan::from_seed(seed))
    }

    /// Whether [`FaultInjector::fire`] does anything at all: either faults
    /// are scheduled or the injector is counting occurrences in probe mode.
    pub fn is_active(&self) -> bool {
        !self.inner.plan.is_empty() || self.inner.probe
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.inner.plan
    }

    /// Every fault that has fired so far, in firing order.
    pub fn fired(&self) -> Vec<InjectedFault> {
        self.inner.fired.lock().clone()
    }

    /// The run's time in Unix ms, which a request's expiry and the
    /// heartbeat's stamp are both read on: the wall clock, or a stepped one.
    pub fn now_ms(&self) -> u64 {
        match &self.inner.clock {
            Some(clock) => clock.load(Ordering::Relaxed),
            None => mcsd_phoenix::wall_clock_ms(),
        }
    }

    /// Move a stepped clock to `now_ms`, backwards too. An injector on the
    /// wall clock ignores it.
    pub fn set_clock(&self, now_ms: u64) {
        if let Some(clock) = &self.inner.clock {
            clock.store(now_ms, Ordering::Relaxed);
        }
    }

    /// Count I/O of a `role` handle in the run's ledger, if it keeps one.
    pub(crate) fn io(&self, role: LogRole, count: impl FnOnce(&mut LogIo<false>)) {
        if let Some(rows) = &self.inner.io {
            count(&mut rows.lock()[role as usize]);
        }
    }

    /// The run's I/O ledger so far, the host's row and the daemon's (its
    /// log sweep's `stat`s included); all zero on the disabled injector.
    pub fn ledger(&self) -> (LogIo<false>, LogIo<true>) {
        let rows = self.inner.io.as_ref().map(|rows| *rows.lock());
        let [host, sd] = rows.unwrap_or_default();
        (host, sd.retag())
    }

    /// How many times `site` has been hit so far.
    pub fn occurrences(&self, site: FaultSite) -> u64 {
        self.inner.counters[site as usize].load(Ordering::Relaxed)
    }

    /// The one injection hook: the operation at `site` is about to happen.
    /// A disabled injector returns at once without touching a counter;
    /// otherwise the site's occurrence counter advances and the first
    /// scheduled entry that is [`FaultAction::valid_at`] the site and
    /// covers this occurrence — `[nth, nth + n)` for `Hide`/`Stall`, `nth`
    /// alone otherwise — is recorded and returned. An entry that is
    /// invalid at its site never fires and never shadows a later one.
    pub fn fire(&self, site: FaultSite) -> Option<FaultAction> {
        if !self.is_active() {
            return None;
        }
        let occurrence = self.inner.counters[site as usize].fetch_add(1, Ordering::Relaxed);
        let action = self
            .inner
            .plan
            .faults
            .iter()
            .find(|f| {
                let width = match f.action {
                    FaultAction::Hide { polls: n } | FaultAction::Stall { beats: n } => n as u64,
                    _ => 1,
                };
                f.site == site
                    && f.action.valid_at(site)
                    && occurrence
                        .checked_sub(f.nth)
                        .is_some_and(|past| past < width)
            })?
            .action;
        self.inner.fired.lock().push(InjectedFault {
            site,
            occurrence,
            action,
        });
        Some(action)
    }
}

/// Counters describing what the overload-protection machinery did:
/// admission control, deadline enforcement, circuit breaking, and
/// pressure-driven repartitioning. Additive like [`ResilienceStats`]
/// (which embeds one of these per run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverloadStats {
    /// Requests the daemon rejected at admission (queue full) with a
    /// typed `Overloaded` reply.
    pub shed: u64,
    /// Requests dropped at dequeue because their deadline had already
    /// passed — counted, never executed.
    pub expired: u64,
    /// Circuit-breaker transitions into the open state.
    pub breaker_opens: u64,
    /// Probe dispatches admitted by half-open breakers.
    pub half_open_probes: u64,
    /// Jobs re-partitioned (partition size shrunk) to fit a node's
    /// memory budget before submission.
    pub repartitions: u64,
    /// Spans or calls steered away from an open/saturated node.
    pub steered_spans: u64,
}

mcsd_obs::counter_family!(OverloadStats {
    owner: "mcsd.framework",
    prefix: "overload",
    counters: [
        shed,
        expired,
        breaker_opens,
        half_open_probes,
        repartitions,
        steered_spans as "steered",
    ],
});

impl OverloadStats {
    /// Merge another layer's counters into this one.
    pub fn absorb(&mut self, other: &OverloadStats) {
        CounterFamily::absorb(self, other);
    }

    /// Whether overload protection never had to act.
    pub fn is_clean(&self) -> bool {
        *self == OverloadStats::default()
    }
}

impl fmt::Display for OverloadStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.report(f)
    }
}

/// Counters describing what the resilience machinery did for one call,
/// run, or job. Additive: [`ResilienceStats::absorb`] merges layers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Invocation attempts started (first try included).
    pub attempts: u64,
    /// Retries after a failed or timed-out attempt.
    pub retries: u64,
    /// Calls that gave up on the SD path and fell back to the host.
    pub failovers: u64,
    /// Modules quarantined by the daemon.
    pub quarantines: u64,
    /// Requests re-answered by the daemon's startup replay scan.
    pub replayed: u64,
    /// Multi-SD spans re-dispatched to a surviving node or the host.
    pub redispatches: u64,
    /// Provably-corrupt log bytes skipped by recovering readers. In the
    /// framework's merged view this is the daemon-owned count, copied
    /// read-only (DESIGN.md §12, the corrupt-skip double-count).
    pub corrupt_skipped_bytes: u64,
    /// Overload-protection counters (admission, deadlines, breakers).
    pub overload: OverloadStats,
}

mcsd_obs::counter_family!(ResilienceStats {
    owner: "mcsd.framework",
    prefix: "resilience",
    counters: [
        attempts,
        retries,
        failovers,
        quarantines,
        replayed,
        redispatches,
        corrupt_skipped_bytes as "corrupt_skipped" unit "B",
    ],
    nested: [overload: OverloadStats],
});

impl ResilienceStats {
    /// Merge another layer's counters into this one.
    pub fn absorb(&mut self, other: &ResilienceStats) {
        CounterFamily::absorb(self, other);
    }

    /// Whether the run was undisturbed. `attempts` is ignored: a clean
    /// run still makes first attempts; what matters is that nothing had
    /// to be retried, failed over, quarantined, replayed, or skipped.
    pub fn is_clean(&self) -> bool {
        *self
            == ResilienceStats {
                attempts: self.attempts,
                ..ResilienceStats::default()
            }
    }
}

/// The struct's own counters, then the overload counters only when
/// protection actually acted.
impl fmt::Display for ResilienceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.report(f)?;
        if !self.overload.is_clean() {
            write!(f, " {}", self.overload)?;
        }
        Ok(())
    }
}

/// SplitMix64 — the same tiny deterministic generator the vendored `rand`
/// shim uses, inlined here so the fault layer works without extra
/// dependencies. Also used for the host's deterministic retry jitter.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// The next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The chaos explorer's canonical action matrix, parameters fixed.
    const ACTIONS: [FaultAction; 9] = [
        FaultAction::CrashBefore,
        FaultAction::CrashAfter,
        FaultAction::Torn { keep_sixteenths: 8 },
        FaultAction::Corrupt { xor_mask: 0x20 },
        FaultAction::Hide { polls: 4 },
        FaultAction::Fail,
        FaultAction::Stall { beats: 3 },
        FaultAction::CrashReplicas { mask: 0b001 },
        FaultAction::CrashReplicas { mask: 0b011 },
    ];

    #[test]
    fn fire_follows_the_validity_matrix_at_every_site() {
        const NTH: u64 = 2;
        const HITS: u64 = 8;
        for site in FaultSite::ALL {
            for action in ACTIONS {
                let width = match action {
                    FaultAction::Hide { polls: n } | FaultAction::Stall { beats: n } => n as u64,
                    _ => 1,
                };
                // Fires iff valid, exactly over `[nth, nth + width)`.
                let want: Vec<Option<FaultAction>> = (0..HITS)
                    .map(|occ| {
                        (action.valid_at(site) && (NTH..NTH + width).contains(&occ))
                            .then_some(action)
                    })
                    .collect();
                let plan = FaultPlan::none().with(site, NTH, action);
                // Clones share one counter: alternate between two handles.
                let a = FaultInjector::new(plan.clone());
                let b = a.clone();
                let got: Vec<_> = (0..HITS)
                    .map(|i| if i % 2 == 0 { &a } else { &b }.fire(site))
                    .collect();
                assert_eq!(got, want, "{site:?} {action:?}");
                assert_eq!(b.fired().len(), want.iter().flatten().count());
                for (k, f) in a.fired().iter().enumerate() {
                    assert_eq!(
                        (f.site, f.occurrence, f.action),
                        (site, NTH + k as u64, action)
                    );
                }
                // Sites count independently: no other counter moved, and
                // the entry does not fire anywhere else.
                for other in FaultSite::ALL.into_iter().filter(|o| *o != site) {
                    assert_eq!(a.occurrences(other), 0);
                    for _ in 0..HITS {
                        assert_eq!(a.fire(other), None, "{action:?} leaked to {other:?}");
                    }
                }
                assert_eq!(a.occurrences(site), HITS);
                // Probing changes what is counted, never what fires.
                let probing = FaultInjector::probing(plan);
                let got: Vec<_> = (0..HITS).map(|_| probing.fire(site)).collect();
                assert_eq!(got, want, "probing {site:?} {action:?}");
            }
            // An empty probing plan counts without firing; a disabled
            // injector does not even count.
            let probe = FaultInjector::probing(FaultPlan::none());
            let disabled = FaultInjector::disabled();
            assert!(probe.is_active() && !disabled.is_active());
            for _ in 0..3 {
                assert_eq!(probe.fire(site), None);
                assert_eq!(disabled.fire(site), None);
            }
            assert!(probe.fired().is_empty() && disabled.fired().is_empty());
            assert_eq!(probe.occurrences(site), 3);
            assert_eq!(disabled.occurrences(site), 0);
        }
    }

    #[test]
    fn an_invalid_entry_never_fires_and_never_shadows() {
        // Two entries at one (site, nth), the first invalid there; and an
        // invalid window lying over a valid entry.
        let plan = FaultPlan::none()
            .with(FaultSite::Dispatch, 1, FaultAction::Stall { beats: 2 })
            .with(FaultSite::Dispatch, 1, FaultAction::Fail)
            .with(FaultSite::HostPoll, 0, FaultAction::Stall { beats: 9 })
            .with(FaultSite::HostPoll, 1, FaultAction::Hide { polls: 1 });
        let inj = FaultInjector::new(plan);
        let dispatch: Vec<_> = (0..4).map(|_| inj.fire(FaultSite::Dispatch)).collect();
        assert_eq!(dispatch, [None, Some(FaultAction::Fail), None, None]);
        let polls: Vec<_> = (0..3).map(|_| inj.fire(FaultSite::HostPoll)).collect();
        assert_eq!(polls, [None, Some(FaultAction::Hide { polls: 1 }), None]);
        assert_eq!(inj.fired().len(), 2);
        // Among valid entries covering one occurrence, the first wins.
        let plan = FaultPlan::none()
            .with(FaultSite::Dispatch, 0, FaultAction::CrashBefore)
            .with(FaultSite::Dispatch, 0, FaultAction::Fail);
        let inj = FaultInjector::new(plan);
        assert_eq!(
            inj.fire(FaultSite::Dispatch),
            Some(FaultAction::CrashBefore)
        );
    }

    #[test]
    fn from_seed_is_deterministic() {
        for seed in 0..64u64 {
            assert_eq!(FaultPlan::from_seed(seed), FaultPlan::from_seed(seed));
            assert!(!FaultPlan::from_seed(seed).is_empty());
        }
        // An injector shows its plan and what fired.
        let shown = format!("{:?}", FaultInjector::from_seed(7));
        assert!(
            shown.starts_with("FaultInjector { plan: FaultPlan"),
            "{shown}"
        );
        assert!(shown.ends_with("fired: [] }"), "{shown}");
    }

    #[test]
    fn from_seed_varies_with_seed() {
        let distinct: std::collections::BTreeSet<String> = (0..32u64)
            .map(|s| format!("{:?}", FaultPlan::from_seed(s)))
            .collect();
        assert!(distinct.len() > 8, "seeds barely vary: {}", distinct.len());
    }

    #[test]
    fn seeded_plans_only_use_counter_deterministic_sites() {
        for seed in 0..256u64 {
            for f in FaultPlan::from_seed(seed).faults() {
                assert!(
                    !matches!(f.site, FaultSite::SdPoll | FaultSite::Span),
                    "seed {seed} drew a non-replayable site: {f:?}"
                );
                if f.site == FaultSite::SdAppend {
                    assert!(
                        matches!(f.action, FaultAction::Corrupt { .. }),
                        "seed {seed}: SD appends are only corrupted, never torn: {f:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn replication_from_seed_is_deterministic_and_scoped() {
        for seed in 0..256u64 {
            let plan = FaultPlan::replication_from_seed(seed);
            assert_eq!(plan, FaultPlan::replication_from_seed(seed));
            assert!(!plan.is_empty());
            for f in plan.faults() {
                match f.site {
                    FaultSite::Replica => assert!(
                        matches!(
                            f.action,
                            FaultAction::CrashBefore
                                | FaultAction::CrashAfter
                                | FaultAction::Torn { .. }
                                | FaultAction::Corrupt { .. }
                        ),
                        "seed {seed}: bad replica action {f:?}"
                    ),
                    FaultSite::Group => match f.action {
                        FaultAction::CrashReplicas { mask } => assert!(
                            (1..=6).contains(&mask),
                            "seed {seed}: group mask must spare one of a 3-group: {f:?}"
                        ),
                        _ => panic!("seed {seed}: bad group action {f:?}"),
                    },
                    other => panic!("seed {seed}: non-replication site {other:?}"),
                }
            }
        }
    }

    #[test]
    fn replication_seeds_do_not_disturb_classic_plans() {
        // The PR-2 seed→plan mapping is pinned by the fault-matrix tests;
        // the replication generator must not share its draw sequence.
        for seed in 0..64u64 {
            let classic = FaultPlan::from_seed(seed);
            for f in classic.faults() {
                assert!(!matches!(f.site, FaultSite::Replica | FaultSite::Group));
            }
        }
    }

    #[test]
    fn is_clean_ignores_first_attempts_and_nothing_else() {
        let clean = ResilienceStats {
            attempts: 3,
            ..Default::default()
        };
        assert!(clean.is_clean() && clean.overload.is_clean());
        for counter in 1..ResilienceStats::rows().count() {
            let mut stats = clean;
            *stats.slots().nth(counter).expect("in table") = 1;
            assert!(!stats.is_clean(), "counter {counter} must dirty the run");
        }
        let shed = OverloadStats {
            shed: 1,
            ..Default::default()
        };
        assert!(!shed.is_clean());
    }

    #[test]
    fn site_catalog_is_total() {
        // ALL lists each variant once, in discriminant (= counter slot)
        // order, with distinct labels.
        let labels: std::collections::BTreeSet<&str> =
            FaultSite::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), FaultSite::ALL.len());
        for (i, site) in FaultSite::ALL.into_iter().enumerate() {
            assert_eq!(site as usize, i);
        }
    }

    #[test]
    fn seeded_generators_only_draw_valid_pairs() {
        for seed in 0..64u64 {
            for plan in [
                FaultPlan::from_seed(seed),
                FaultPlan::replication_from_seed(seed),
            ] {
                for f in plan.faults() {
                    assert!(f.action.valid_at(f.site), "seed {seed}: invalid pair {f:?}");
                }
            }
        }
    }

    #[test]
    fn action_labels_are_seed_free_and_stable() {
        assert_eq!(FaultAction::CrashBefore.label(), "crash_before");
        assert_eq!(
            FaultAction::Torn { keep_sixteenths: 8 }.label(),
            "torn[8/16]"
        );
        assert_eq!(
            FaultAction::Corrupt { xor_mask: 0x20 }.label(),
            "corrupt[0x20]"
        );
        assert_eq!(
            FaultAction::CrashReplicas { mask: 0b101 }.label(),
            "crash_replicas[0b101]"
        );
    }

    #[test]
    fn splitmix_matches_reference() {
        // Reference value for seed 0 from the published SplitMix64
        // algorithm (same constants as the vendored rand shim).
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xe220_a839_7b1d_cdaf);
    }
}
