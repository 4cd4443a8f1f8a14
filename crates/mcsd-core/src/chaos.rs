//! Deterministic chaos sweep: exhaustive fault-space exploration with
//! invariant auditing (DESIGN.md §16).
//!
//! The seeded fault matrices (`FaultPlan::from_seed`,
//! `FaultPlan::replication_from_seed`) *sample* the fault space; this
//! module *enumerates* it. A [`ChaosScenario`] is run once clean under a
//! probing [`FaultInjector`] to discover every `(site, occurrence)`
//! injection point it crosses, then re-run once per discovered point ×
//! action, and after every run a registry of cross-cutting safety
//! invariants ([`Invariant`]) is evaluated over the run's
//! [`ChaosObservation`]. Violations come back in a structured
//! [`ChaosReport`] naming the seed-free injection point, the action, and
//! the failed invariant — any finding reproduces with a single targeted
//! re-run of the scenario under `FaultPlan::with(site, occurrence,
//! action)`.
//!
//! Determinism extends to the explorer itself: the report contains no
//! wall-clock values, paths, or process ids, sites are iterated in
//! [`FaultSite::ALL`] order and occurrences ascending, so two sweeps of
//! the same scenario produce byte-identical reports (property-tested in
//! `crates/mcsd-core/tests/chaos.rs`, diffed in CI). Sites whose
//! occurrence numbering is wall-clock paced (polls, heartbeats) are
//! excluded from enumeration and listed in the report with the reason —
//! coverage gaps are stated, never silent.

use crate::error::McsdError;
use crate::replication::{ReplicationGroups, ReplicationSetup, RoundOutcome};
use mcsd_obs::export::Escaped;
use mcsd_obs::names::{EVENT_CHAOS_DISCOVER, EVENT_CHAOS_INJECT, EVENT_CHAOS_VIOLATION};
use mcsd_obs::{ClockDomain, Tracer};
use mcsd_smartfam::module::FnModule;
use mcsd_smartfam::{
    BatchConfig, BatchStats, Daemon, DaemonConfig, DaemonStats, FaultAction, FaultInjector,
    FaultPlan, FaultSite, Frame, HostClient, ModuleRegistry, SmartFamError,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Trace track carrying the sweep's discovery/injection timeline
/// (`chaos.*` events, [`ClockDomain::Decision`]; DESIGN.md §12).
pub const CHAOS_TRACE_TRACK: &str = "chaos";

/// The cross-cutting safety invariants every chaos run is audited
/// against (DESIGN.md §16). Each one is a property of the *whole run*,
/// not of a single call — exactly the class of bug seeded fault tests
/// miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invariant {
    /// Completed calls return correct output or a typed error — never a
    /// silently wrong answer.
    Output,
    /// Every round committed at quorum is readable after recovery.
    Durability,
    /// No module executed twice for one request id whose outcome was
    /// already durable — replay and promotion must not re-execute.
    AtMostOnce,
    /// Every promotion fences the deposed leader: `fenced_appends ==
    /// promotions`, no append lands at a stale epoch.
    Fencing,
    /// Counter identities across the stats families hold (scenario-
    /// supplied checks, e.g. attempts ≥ retries).
    Conservation,
    /// Re-protection restores full group membership by run end.
    Convergence,
}

impl Invariant {
    /// Stable, seed-free name used in reports and traces.
    pub fn label(self) -> &'static str {
        match self {
            Invariant::Output => "output",
            Invariant::Durability => "durability",
            Invariant::AtMostOnce => "at_most_once",
            Invariant::Fencing => "fencing",
            Invariant::Conservation => "conservation",
            Invariant::Convergence => "convergence",
        }
    }
}

/// How a [`ConservationCheck`] compares its two sides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// Left must equal right.
    Eq,
    /// Left must be at least right.
    Ge,
}

/// One counter identity the scenario asserts over its stats families.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConservationCheck {
    /// Seed-free description of the identity, e.g.
    /// `"replica_acks >= quorum_appends * write_quorum"`.
    pub label: String,
    /// Left-hand side value.
    pub lhs: u64,
    /// Right-hand side value.
    pub rhs: u64,
    /// How the sides must compare.
    pub relation: Relation,
}

impl ConservationCheck {
    /// An equality check.
    pub fn eq(label: impl Into<String>, lhs: u64, rhs: u64) -> ConservationCheck {
        ConservationCheck {
            label: label.into(),
            lhs,
            rhs,
            relation: Relation::Eq,
        }
    }

    /// A lower-bound check (`lhs >= rhs`).
    pub fn ge(label: impl Into<String>, lhs: u64, rhs: u64) -> ConservationCheck {
        ConservationCheck {
            label: label.into(),
            lhs,
            rhs,
            relation: Relation::Ge,
        }
    }

    /// Whether the identity holds.
    pub fn holds(&self) -> bool {
        match self.relation {
            Relation::Eq => self.lhs == self.rhs,
            Relation::Ge => self.lhs >= self.rhs,
        }
    }
}

/// What one scenario run observed, in invariant-checkable form. The
/// scenario fills the fields that apply and leaves the rest at their
/// vacuously-true defaults (e.g. a scenario without replication reports
/// zero groups, so convergence holds trivially).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosObservation {
    /// Every completed call returned correct output or a typed error.
    /// Defaults to `true` via [`ChaosObservation::clean`].
    pub outputs_correct: bool,
    /// Append rounds committed at quorum during the run.
    pub committed_rounds: u64,
    /// Rounds readable back from authoritative copies after recovery.
    pub readable_rounds: u64,
    /// Module re-executions for request ids whose outcome was already
    /// durable (replay or promotion re-running finished work).
    pub durable_reexecutions: u64,
    /// Replica promotions the run performed (`ReplicationStats.promotions`
    /// as observed by the scenario — named distinctly because the §13
    /// counter itself is single-owner).
    pub observed_promotions: u64,
    /// Stale-epoch appends fenced (`ReplicationStats.fenced_appends` as
    /// observed by the scenario).
    pub observed_fences: u64,
    /// Replication groups the run planned.
    pub groups: u64,
    /// Groups at full redundancy at run end.
    pub protected_groups: u64,
    /// Scenario-supplied counter identities.
    pub conservation: Vec<ConservationCheck>,
}

impl ChaosObservation {
    /// A vacuously clean observation (`outputs_correct` true, all
    /// counters zero) for scenarios to fill in.
    pub fn clean() -> ChaosObservation {
        ChaosObservation {
            outputs_correct: true,
            ..ChaosObservation::default()
        }
    }
}

/// Evaluate every [`Invariant`] over one run's observation. Returns the
/// violated invariants with seed-free detail strings (counters only — no
/// paths, pids, or durations, so reports stay byte-reproducible).
pub fn evaluate(obs: &ChaosObservation) -> Vec<(Invariant, String)> {
    let mut out = Vec::new();
    if !obs.outputs_correct {
        out.push((
            Invariant::Output,
            "a completed call returned wrong output".to_string(),
        ));
    }
    if obs.readable_rounds < obs.committed_rounds {
        out.push((
            Invariant::Durability,
            format!(
                "committed {} rounds but only {} readable after recovery",
                obs.committed_rounds, obs.readable_rounds
            ),
        ));
    }
    if obs.durable_reexecutions > 0 {
        out.push((
            Invariant::AtMostOnce,
            format!(
                "{} re-executions of already-durable requests",
                obs.durable_reexecutions
            ),
        ));
    }
    if obs.observed_fences != obs.observed_promotions {
        out.push((
            Invariant::Fencing,
            format!(
                "fenced_appends={} but promotions={}",
                obs.observed_fences, obs.observed_promotions
            ),
        ));
    }
    for check in &obs.conservation {
        if !check.holds() {
            let rel = match check.relation {
                Relation::Eq => "==",
                Relation::Ge => ">=",
            };
            out.push((
                Invariant::Conservation,
                format!("{}: {} {} {} fails", check.label, check.lhs, rel, check.rhs),
            ));
        }
    }
    if obs.protected_groups < obs.groups {
        out.push((
            Invariant::Convergence,
            format!(
                "only {} of {} groups back at full redundancy",
                obs.protected_groups, obs.groups
            ),
        ));
    }
    out
}

/// A fault-injectable scenario the sweep can drive. Each segment must be
/// independently runnable any number of times: `run_segment` builds all
/// of its own state (fresh framework, fresh log dirs) and the injector
/// it is handed is the *only* channel through which faults arrive.
pub trait ChaosScenario {
    /// Stable scenario name for the report header.
    fn name(&self) -> &str;

    /// The segment names, in run order. Discovery and injection both
    /// iterate segments in this order.
    fn segment_names(&self) -> Vec<String>;

    /// The faults segment `segment` schedules *by design* (e.g. the
    /// four-phase breaker segment bakes two dispatch failures). The
    /// discovery run executes them so the clean occurrence stream is the
    /// scenario's real one, and enumerated points the baked plan already
    /// covers are reported as shadowed instead of double-injected.
    fn baked_plan(&self, segment: usize) -> FaultPlan;

    /// The actions to inject at `site`, in report order. Defaults to the
    /// canonical total matrix ([`default_actions`]); scenarios narrow it
    /// to bound sweep cost.
    fn actions(&self, site: FaultSite) -> Vec<FaultAction> {
        default_actions(site)
    }

    /// Run segment `segment` once under `injector` and report what
    /// happened. Expected fault effects (typed errors, timeouts) must be
    /// absorbed into the observation, not returned as `Err` — an `Err`
    /// from an injected run is recorded as an [`Invariant::Output`]
    /// violation.
    fn run_segment(
        &self,
        segment: usize,
        injector: &FaultInjector,
    ) -> Result<ChaosObservation, McsdError>;
}

/// The canonical action matrix: every [`FaultAction`] variant that is
/// valid at `site`, with fixed representative parameters — total over
/// [`FaultSite::ALL`], which is what makes the exhaustiveness test able
/// to assert every site × action pair is reachable somewhere.
pub fn default_actions(site: FaultSite) -> Vec<FaultAction> {
    let candidates = [
        FaultAction::CrashBefore,
        FaultAction::CrashAfter,
        FaultAction::Torn { keep_sixteenths: 8 },
        FaultAction::Corrupt { xor_mask: 0x20 },
        FaultAction::Hide { polls: 4 },
        FaultAction::Fail,
        FaultAction::Stall { beats: 3 },
        // Masks 0b001 and 0b011 take down the leader alone and the
        // leader plus one member; a full-group wipe (0b111) is beyond
        // repair by design and not part of the canonical matrix.
        FaultAction::CrashReplicas { mask: 0b001 },
        FaultAction::CrashReplicas { mask: 0b011 },
    ];
    candidates
        .into_iter()
        .filter(|a| a.valid_at(site))
        .collect()
}

/// One discovered injection point that the segment's baked plan already
/// schedules — reported instead of double-injected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShadowedPoint {
    /// Segment name.
    pub segment: String,
    /// Injection site.
    pub site: FaultSite,
    /// Occurrence number.
    pub occurrence: u64,
}

/// One invariant violation: the seed-free coordinates that reproduce it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Segment name.
    pub segment: String,
    /// Injection site label (`"baseline"` for clean-run violations).
    pub site: String,
    /// Occurrence number the fault was injected at.
    pub occurrence: u64,
    /// Action label (`"none"` for clean-run violations).
    pub action: String,
    /// The violated invariant.
    pub invariant: Invariant,
    /// Counter-level detail (seed-free).
    pub detail: String,
}

/// Per-segment discovered point counts, in [`FaultSite::ALL`] order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentPoints {
    /// Segment name.
    pub segment: String,
    /// `(site, occurrence_count)` for every counter-deterministic site
    /// the segment crossed at least once.
    pub points: Vec<(FaultSite, u64)>,
}

/// The structured result of one sweep: discovered points, exclusions,
/// shadowed points, case count, and every invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosReport {
    /// Scenario name.
    pub scenario: String,
    /// The seed the scenario derived its workload from.
    pub seed: u64,
    /// Discovered injection points per segment.
    pub segments: Vec<SegmentPoints>,
    /// Sites excluded from enumeration, with the reason.
    pub excluded: Vec<(FaultSite, String)>,
    /// Points the baked plans already schedule.
    pub shadowed: Vec<ShadowedPoint>,
    /// Fault-injected runs executed.
    pub cases: u64,
    /// Every invariant violation, in deterministic sweep order.
    pub violations: Vec<Violation>,
}

/// Write the array field `key` of a report as `  "key": [` and one
/// element a line, each rendered by `item`, up to its closing `  ]`.
fn json_array<T>(out: &mut String, key: &str, items: &[T], item: impl Fn(&T) -> String) {
    out.push_str(&format!("  \"{key}\": [\n"));
    for (i, x) in items.iter().enumerate() {
        let sep = if i + 1 < items.len() { "," } else { "" };
        out.push_str(&format!("    {}{sep}\n", item(x)));
    }
    out.push_str("  ]");
}

impl ChaosReport {
    /// Total enumerated injection points across all segments.
    pub fn point_count(&self) -> u64 {
        self.segments
            .iter()
            .flat_map(|s| s.points.iter())
            .map(|(_, n)| n)
            .sum()
    }

    /// Whether the sweep found no invariant violations.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Render the report as deterministic JSON (hand-rolled like the §12
    /// exporters: field order frozen, no wall-clock or path content, so
    /// two sweeps of the same scenario produce identical bytes). Every
    /// string goes through [`Escaped`]: names and labels are caller input.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"v\": 1,\n  \"scenario\": \"{}\",\n",
            Escaped(&self.scenario)
        ));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        json_array(&mut out, "segments", &self.segments, |seg| {
            let points: Vec<String> = seg
                .points
                .iter()
                .map(|(site, n)| {
                    format!(
                        "{{\"site\": \"{}\", \"count\": {n}}}",
                        Escaped(site.label())
                    )
                })
                .collect();
            format!(
                "{{\"name\": \"{}\", \"points\": [{}]}}",
                Escaped(&seg.segment),
                points.join(", ")
            )
        });
        out.push_str(",\n");
        json_array(
            &mut out,
            "excluded_sites",
            &self.excluded,
            |(site, reason)| {
                format!(
                    "{{\"site\": \"{}\", \"reason\": \"{}\"}}",
                    Escaped(site.label()),
                    Escaped(reason)
                )
            },
        );
        out.push_str(",\n");
        json_array(&mut out, "shadowed", &self.shadowed, |s| {
            format!(
                "{{\"segment\": \"{}\", \"site\": \"{}\", \"occurrence\": {}}}",
                Escaped(&s.segment),
                Escaped(s.site.label()),
                s.occurrence
            )
        });
        out.push_str(",\n");
        out.push_str(&format!("  \"points\": {},\n", self.point_count()));
        out.push_str(&format!("  \"cases\": {},\n", self.cases));
        json_array(&mut out, "violations", &self.violations, |v| {
            format!(
                "{{\"segment\": \"{}\", \"site\": \"{}\", \"occurrence\": {}, \
                 \"action\": \"{}\", \"invariant\": \"{}\", \"detail\": \"{}\"}}",
                Escaped(&v.segment),
                Escaped(&v.site),
                v.occurrence,
                Escaped(&v.action),
                Escaped(v.invariant.label()),
                Escaped(&v.detail)
            )
        });
        out.push_str("\n}\n");
        out
    }

    /// Render the human-readable table the `mcsd-experiments chaos`
    /// subcommand prints.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "chaos sweep: {} (seed {})\n\n",
            self.scenario, self.seed
        ));
        out.push_str(&format!(
            "{:<24} {:<12} {:>6}\n",
            "segment", "site", "points"
        ));
        for seg in &self.segments {
            for (site, n) in &seg.points {
                out.push_str(&format!(
                    "{:<24} {:<12} {:>6}\n",
                    seg.segment,
                    site.label(),
                    n
                ));
            }
        }
        for (site, reason) in &self.excluded {
            out.push_str(&format!("excluded: {:<12} {reason}\n", site.label()));
        }
        for s in &self.shadowed {
            out.push_str(&format!(
                "shadowed: {} {} #{} (scheduled by the segment's baked plan)\n",
                s.segment,
                s.site.label(),
                s.occurrence
            ));
        }
        out.push_str(&format!(
            "\npoints: {}  injected cases: {}  violations: {}\n",
            self.point_count(),
            self.cases,
            self.violations.len()
        ));
        for v in &self.violations {
            out.push_str(&format!(
                "VIOLATION [{}] {} {} #{} under {}: {}\n",
                v.invariant.label(),
                v.segment,
                v.site,
                v.occurrence,
                v.action,
                v.detail
            ));
        }
        out
    }
}

/// Run the full sweep over `scenario`: one probing discovery run per
/// segment, then one injected run per discovered point × action, each
/// audited against the invariant registry. `seed` is recorded in the
/// report header (the scenario derives its workload from it); `tracer`
/// carries the `chaos.*` timeline (pass `Tracer::disabled()` to skip).
pub fn run_sweep(
    scenario: &dyn ChaosScenario,
    seed: u64,
    tracer: &Tracer,
) -> Result<ChaosReport, McsdError> {
    let track = tracer.track(CHAOS_TRACE_TRACK, ClockDomain::Decision);
    let names = scenario.segment_names();
    let mut report = ChaosReport {
        scenario: scenario.name().to_string(),
        seed,
        segments: Vec::new(),
        excluded: FaultSite::ALL
            .iter()
            .filter(|s| !s.counter_deterministic())
            .map(|s| {
                (
                    *s,
                    "wall-clock paced occurrence numbering; not enumerable".to_string(),
                )
            })
            .collect(),
        shadowed: Vec::new(),
        cases: 0,
        violations: Vec::new(),
    };

    // Discovery pass: run every segment clean (baked plan only) under a
    // probing injector and read off the occurrence counters. The clean
    // run is audited too — a scenario that violates an invariant with no
    // extra fault injected is itself a finding.
    let mut counts: Vec<Vec<(FaultSite, u64)>> = Vec::new();
    for (seg, name) in names.iter().enumerate() {
        let injector = FaultInjector::probing(scenario.baked_plan(seg));
        let obs = scenario.run_segment(seg, &injector)?;
        record_violations(&mut report, name, "baseline", 0, "none", &obs);
        let points: Vec<(FaultSite, u64)> = FaultSite::ALL
            .iter()
            .filter(|s| s.counter_deterministic())
            .map(|s| (*s, injector.occurrences(*s)))
            .filter(|(_, n)| *n > 0)
            .collect();
        tracer.event_with(track, EVENT_CHAOS_DISCOVER, |a| {
            a.str("segment", name);
            a.u64("points", points.iter().map(|(_, n)| n).sum());
        });
        report.segments.push(SegmentPoints {
            segment: name.clone(),
            points: points.clone(),
        });
        counts.push(points);
    }

    // Injection pass: one run per point × valid action, skipping points
    // the segment's baked plan already schedules (those fired during
    // discovery; re-injecting them would double-schedule the site).
    for (seg, name) in names.iter().enumerate() {
        let baked = scenario.baked_plan(seg);
        for &(site, n) in &counts[seg] {
            for occ in 0..n {
                if baked
                    .faults()
                    .iter()
                    .any(|f| f.site == site && f.nth == occ)
                {
                    report.shadowed.push(ShadowedPoint {
                        segment: name.clone(),
                        site,
                        occurrence: occ,
                    });
                    continue;
                }
                for action in scenario.actions(site) {
                    if !action.valid_at(site) {
                        continue;
                    }
                    let plan = baked.clone().with(site, occ, action);
                    let injector = FaultInjector::new(plan);
                    tracer.event_with(track, EVENT_CHAOS_INJECT, |a| {
                        a.str("segment", name);
                        a.str("site", site.label());
                        a.u64("occurrence", occ);
                        a.str("action", &action.label());
                    });
                    report.cases += 1;
                    match scenario.run_segment(seg, &injector) {
                        Ok(obs) => {
                            let before = report.violations.len();
                            record_violations(
                                &mut report,
                                name,
                                site.label(),
                                occ,
                                &action.label(),
                                &obs,
                            );
                            for v in &report.violations[before..] {
                                tracer.event(
                                    track,
                                    EVENT_CHAOS_VIOLATION,
                                    &[("invariant", v.invariant.label())],
                                );
                            }
                        }
                        // A hard error from an injected run is itself an
                        // output-contract violation: scenarios absorb
                        // expected fault effects as typed outcomes. Only
                        // the error kind is recorded — full error text
                        // can carry paths, which would break report
                        // byte-determinism.
                        Err(e) => {
                            tracer.event(
                                track,
                                EVENT_CHAOS_VIOLATION,
                                &[("invariant", Invariant::Output.label())],
                            );
                            report.violations.push(Violation {
                                segment: name.clone(),
                                site: site.label().to_string(),
                                occurrence: occ,
                                action: action.label(),
                                invariant: Invariant::Output,
                                detail: format!("segment run failed: {}", error_kind(&e)),
                            });
                        }
                    }
                }
            }
        }
    }
    Ok(report)
}

fn record_violations(
    report: &mut ChaosReport,
    segment: &str,
    site: &str,
    occurrence: u64,
    action: &str,
    obs: &ChaosObservation,
) {
    for (invariant, detail) in evaluate(obs) {
        report.violations.push(Violation {
            segment: segment.to_string(),
            site: site.to_string(),
            occurrence,
            action: action.to_string(),
            invariant,
            detail,
        });
    }
}

/// Deterministic short name of an error's kind (never its message —
/// messages can embed temp paths and process ids).
fn error_kind(e: &McsdError) -> &'static str {
    match e {
        McsdError::Phoenix(_) => "phoenix",
        McsdError::SmartFam(_) => "smartfam",
        McsdError::Io(_) => "io",
        McsdError::BadScenario { .. } => "bad_scenario",
        McsdError::MemoryOverflow { .. } => "memory_overflow",
    }
}

/// A pure replication scenario over [`ReplicationGroups`]: `spans` span
/// groups of three members (quorum two) each record a request/response
/// round; a lost quorum re-dispatches the span (bounded retries), a
/// promotion keeps its output, and a final sweep re-protects every
/// group. No threads, no clocks — the sweep over this scenario is fully
/// deterministic, which is what the report byte-identity property is
/// tested against.
pub struct ReplicationRoundsScenario {
    seed: u64,
    spans: usize,
    base_dir: PathBuf,
    runs: AtomicU64,
}

impl ReplicationRoundsScenario {
    /// A scenario writing its replicated logs under `base_dir` (each run
    /// uses a fresh subdirectory, removed afterwards).
    pub fn new(seed: u64, base_dir: impl Into<PathBuf>) -> ReplicationRoundsScenario {
        ReplicationRoundsScenario {
            seed,
            spans: 2,
            base_dir: base_dir.into(),
            runs: AtomicU64::new(0),
        }
    }

    /// Override the span-group count (sweep cost scales with it).
    pub fn with_spans(mut self, spans: usize) -> ReplicationRoundsScenario {
        self.spans = spans.max(1);
        self
    }
}

/// How many re-dispatch attempts a lost-quorum span gets before the run
/// reports its work as lost.
const REDISPATCH_BUDGET: u32 = 3;

impl ChaosScenario for ReplicationRoundsScenario {
    fn name(&self) -> &str {
        "replication-rounds"
    }

    fn segment_names(&self) -> Vec<String> {
        vec!["rounds".to_string()]
    }

    fn baked_plan(&self, _segment: usize) -> FaultPlan {
        FaultPlan::none()
    }

    fn run_segment(
        &self,
        _segment: usize,
        injector: &FaultInjector,
    ) -> Result<ChaosObservation, McsdError> {
        let dir = self
            .base_dir
            .join(format!("run-{}", self.runs.fetch_add(1, Ordering::Relaxed)));
        std::fs::create_dir_all(&dir).map_err(McsdError::Io)?;
        let result = self.run_in(&dir, injector);
        let _ = std::fs::remove_dir_all(&dir);
        result
    }
}

impl ReplicationRoundsScenario {
    fn run_in(
        &self,
        dir: &std::path::Path,
        injector: &FaultInjector,
    ) -> Result<ChaosObservation, McsdError> {
        let setup = ReplicationSetup::new(dir);
        let node_names = (0..3).map(|i| format!("sd{i}")).collect();
        let mut groups = ReplicationGroups::plan(&setup, node_names, self.spans, injector.clone())?;
        let mut obs = ChaosObservation::clean();
        let mut executions: u64 = 0;
        let mut quorum_losses: u64 = 0;
        for span in 0..self.spans {
            let req = Frame::request(
                span as u64,
                vec!["wc".to_string(), format!("span{span}-seed{}", self.seed)],
            );
            let resp = Frame::response_ok(
                span as u64,
                format!("pairs={span}-{}", self.seed).into_bytes(),
            );
            let mut settled = false;
            for _ in 0..REDISPATCH_BUDGET {
                if settled {
                    // Re-running a span whose outcome already stood would
                    // be a second execution of finished work. The loop
                    // breaks on settlement, so this counting stays zero
                    // unless the outcome contract itself regresses.
                    obs.durable_reexecutions += 1;
                }
                executions += 1;
                match groups.record_span(span, &req, &resp)? {
                    RoundOutcome::Committed | RoundOutcome::Promoted { .. } => {
                        settled = true;
                    }
                    RoundOutcome::QuorumLost => {
                        quorum_losses += 1;
                    }
                }
                if settled {
                    break;
                }
            }
            if !settled {
                // The span's work never became durable inside the retry
                // budget — lost work, not silent corruption, but still an
                // output-contract failure for a single injected fault.
                obs.outputs_correct = false;
            }
        }
        groups.reprotect_all()?;
        let stats = groups.stats();
        obs.committed_rounds = stats.quorum_appends;
        obs.readable_rounds = (0..self.spans)
            .map(|s| groups.readable_frames(s))
            .sum::<Result<u64, McsdError>>()?;
        obs.observed_promotions = stats.promotions;
        obs.observed_fences = stats.fenced_appends;
        obs.groups = groups.group_count() as u64;
        obs.protected_groups = groups.protected_group_count() as u64;
        obs.conservation = vec![
            ConservationCheck::ge(
                "replica_acks >= quorum_appends * write_quorum",
                stats.replica_acks,
                stats.quorum_appends * 2,
            ),
            ConservationCheck::eq(
                "executions == spans + quorum_losses",
                executions,
                self.spans as u64 + quorum_losses,
            ),
            ConservationCheck::ge(
                "replica_crashes >= group_crashes",
                stats.replica_crashes,
                stats.group_crashes,
            ),
        ];
        Ok(obs)
    }
}

/// A batched-daemon scenario over the real multi-worker dispatch pool
/// (DESIGN.md §18): `requests` pre-staged echo calls are chunked into
/// coalesced append batches, so the sweep enumerates exactly the
/// batch-boundary fault points — every per-request dispatch slot plus
/// one [`FaultSite::BatchAppend`] point per batch commit. The scenario
/// recovers the way the stack is designed to: an injected crash is
/// healed by a replacement incarnation on the *same* injector (replay
/// answers the uncommitted suffix), and a response lost to a corrupt
/// batch frame is resubmitted under a fresh key after the daemon proves
/// alive. At-most-once is audited with an answered-set probe inside the
/// module itself: any invocation for a key whose outcome the host
/// already read durably is a violation.
pub struct BatchedEchoScenario {
    requests: usize,
    batching: BatchConfig,
    tracer: Tracer,
    base_dir: PathBuf,
    runs: AtomicU64,
}

impl BatchedEchoScenario {
    /// `requests` echo calls on a daemon batching by `batching` (whose
    /// seed also names the requests) and tracing onto `tracer`, each run
    /// in a fresh subdirectory of `base_dir`, removed afterwards.
    pub fn new(
        requests: usize,
        batching: BatchConfig,
        tracer: Tracer,
        base_dir: impl Into<PathBuf>,
    ) -> BatchedEchoScenario {
        BatchedEchoScenario {
            requests,
            batching,
            tracer,
            base_dir: base_dir.into(),
            runs: AtomicU64::new(0),
        }
    }

    /// Run the requests once under `injector`: the observation the sweep
    /// audits, and the daemon's and the batch committer's counters summed
    /// over its incarnations.
    pub fn run(&self, injector: &FaultInjector) -> Result<BatchedRun, McsdError> {
        let dir = self
            .base_dir
            .join(format!("run-{}", self.runs.fetch_add(1, Ordering::Relaxed)));
        std::fs::create_dir_all(&dir).map_err(McsdError::Io)?;
        let result = self.run_in(&dir, injector);
        let _ = std::fs::remove_dir_all(&dir);
        result
    }
}

/// What [`BatchedEchoScenario::run`] returns: the observation, the daemon's
/// counters and the batch committer's.
pub type BatchedRun = (ChaosObservation, DaemonStats, BatchStats);

/// How many daemon incarnations one batched run may consume: the sweep
/// injects at most one fault per run, so one crash plus the original.
const INCARNATION_BUDGET: u64 = 3;

/// How long a lost response may stay unanswered while the daemon is
/// provably alive before the scenario resubmits under a fresh key —
/// the host-tier resilient-retry behaviour, inlined. Only a run with an
/// active injector resubmits.
const RESUBMIT_PATIENCE: std::time::Duration = std::time::Duration::from_secs(1);

/// Hard ceiling for one request's whole recovery chain.
const REQUEST_DEADLINE: std::time::Duration = std::time::Duration::from_secs(60);

impl ChaosScenario for BatchedEchoScenario {
    fn name(&self) -> &str {
        "batched-echo"
    }

    fn segment_names(&self) -> Vec<String> {
        vec!["batched".to_string()]
    }

    fn baked_plan(&self, _segment: usize) -> FaultPlan {
        FaultPlan::none()
    }

    /// Narrowed to the batch-boundary matrix: the canonical dispatch
    /// actions, and a mid-frame tear (7/16 — 8/16 can land exactly on a
    /// frame boundary and tear nothing) plus a one-byte corruption at
    /// the batch-append site.
    fn actions(&self, site: FaultSite) -> Vec<FaultAction> {
        match site {
            FaultSite::BatchAppend => vec![
                FaultAction::Torn { keep_sixteenths: 7 },
                FaultAction::Corrupt { xor_mask: 0x20 },
            ],
            _ => default_actions(site),
        }
    }

    fn run_segment(
        &self,
        _segment: usize,
        injector: &FaultInjector,
    ) -> Result<ChaosObservation, McsdError> {
        Ok(self.run(injector)?.0)
    }
}

impl BatchedEchoScenario {
    fn run_in(
        &self,
        dir: &std::path::Path,
        injector: &FaultInjector,
    ) -> Result<BatchedRun, McsdError> {
        use mcsd_phoenix::Stopwatch;
        use parking_lot::Mutex;
        use std::collections::HashSet;

        // Answered-set probe: keys whose outcome the host has durably
        // read. The module itself checks membership, so a replay or a
        // torn-suffix retry that re-*executes* (rather than re-appends)
        // finished work is caught at the moment it happens.
        let answered: Arc<Mutex<HashSet<String>>> = Arc::new(Mutex::new(HashSet::new()));
        let durable_reexecutions = Arc::new(AtomicU64::new(0));
        let invocations = Arc::new(AtomicU64::new(0));
        let mk_registry = || {
            let answered = Arc::clone(&answered);
            let reexec = Arc::clone(&durable_reexecutions);
            let invocations = Arc::clone(&invocations);
            let r = ModuleRegistry::new();
            r.register(Arc::new(FnModule::new("echo", move |p: &[String]| {
                invocations.fetch_add(1, Ordering::Relaxed);
                let key = p.first().cloned().unwrap_or_default();
                if answered.lock().contains(&key) {
                    reexec.fetch_add(1, Ordering::Relaxed);
                }
                Ok(format!("echo:{key}").into_bytes())
            })));
            r
        };

        // Pre-stage every request before the daemon starts, so batch
        // formation — and with it the enumerable fault-point stream — is
        // a pure function of the request sequence.
        let client = HostClient::new(dir);
        let mut calls = Vec::with_capacity(self.requests);
        for i in 0..self.requests {
            let key = format!("r{i}-{}", self.batching.seed);
            let pending = client
                .submit("echo", std::slice::from_ref(&key))
                .map_err(McsdError::SmartFam)?;
            calls.push((key, pending));
        }

        let spawn = |injector: &FaultInjector| {
            Daemon::new(
                DaemonConfig::new(dir)
                    .with_tracer(self.tracer.clone())
                    .with_faults(injector.clone())
                    .with_batching(self.batching),
                mk_registry(),
            )
            .spawn()
        };
        let mut daemon = spawn(injector).map_err(McsdError::Io)?;
        let mut incarnations: u64 = 1;
        // Counters accumulate across incarnations; a crashed daemon's
        // stats are read after it provably stopped.
        let mut served = DaemonStats::default();
        let mut commits = BatchStats::default();
        let mut answered_outcomes: u64 = 0;
        let mut ok_outcomes: u64 = 0;

        // Without faults nothing can swallow a response, so a clean run
        // waits out the whole deadline and never resubmits: its requests,
        // events and counters do not depend on timing.
        let patience = if injector.is_active() {
            RESUBMIT_PATIENCE
        } else {
            REQUEST_DEADLINE
        };
        let mut obs = ChaosObservation::clean();
        for (key, pending) in calls {
            let started = Stopwatch::start();
            let mut call = pending;
            let mut expect = format!("echo:{key}");
            let mut retries: u32 = 0;
            loop {
                // The host tier's own wait. While the response log is
                // quiet: settle and bank a dead incarnation's commit
                // counters, then heal with a replacement on the same
                // injector — replay answers the uncommitted suffix.
                let waited = call.wait_with(patience, || {
                    if !daemon.is_running() {
                        if incarnations >= INCARNATION_BUDGET {
                            return Err(SmartFamError::DaemonDead {
                                module: "echo".to_string(),
                            });
                        }
                        daemon.stop();
                        served.absorb(&daemon.stats());
                        commits.absorb(&daemon.batch_stats());
                        daemon = spawn(injector)?;
                        incarnations += 1;
                    }
                    Ok(())
                });
                match waited {
                    Ok(outcome) => {
                        if outcome.payload != expect.as_bytes() {
                            obs.outputs_correct = false;
                        }
                        ok_outcomes += 1;
                    }
                    Err(SmartFamError::Timeout { .. }) if !started.expired(REQUEST_DEADLINE) => {
                        // Daemon alive but the response never decoded — a
                        // corrupt batch frame swallowed it. Resubmit under a
                        // fresh key (a fresh id), exactly like the host's
                        // resilient tier. A clean run's one wait spent the
                        // whole deadline, so its timeout is the arm below.
                        retries += 1;
                        let key = format!("{key}#retry{retries}");
                        expect = format!("echo:{key}");
                        call = client.submit("echo", &[key]).map_err(McsdError::SmartFam)?;
                        continue;
                    }
                    // The recovery chain ran out of time or incarnations.
                    Err(SmartFamError::Timeout { .. } | SmartFamError::DaemonDead { .. }) => {
                        obs.outputs_correct = false;
                        break;
                    }
                    Err(SmartFamError::Io(e)) => return Err(McsdError::Io(e)),
                    // A typed module error is a valid outcome under an
                    // injected dispatch failure — never a wrong answer.
                    Err(_) => {}
                }
                answered.lock().insert(expect["echo:".len()..].to_string());
                answered_outcomes += 1;
                break;
            }
        }
        daemon.stop();
        served.absorb(&daemon.stats());
        commits.absorb(&daemon.batch_stats());

        obs.durable_reexecutions = durable_reexecutions.load(Ordering::Relaxed);
        obs.conservation = vec![
            // Every answered outcome rode a coalesced batch commit.
            ConservationCheck::ge(
                "coalesced_appends >= answered_outcomes",
                commits.coalesced_appends,
                answered_outcomes,
            ),
            // One fsync per batch commit — the §18 durability contract.
            ConservationCheck::eq("fsyncs == batches", commits.fsyncs, commits.batches),
            // Execution is at-least-once for every correct payload; a
            // typed error (injected module failure) answers without an
            // invocation, so errors are excluded from the bound.
            ConservationCheck::ge(
                "invocations >= ok_outcomes",
                invocations.load(Ordering::Relaxed),
                ok_outcomes,
            ),
        ];
        Ok((obs, served, commits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_observation_has_no_violations() {
        assert!(evaluate(&ChaosObservation::clean()).is_empty());
    }

    #[test]
    fn each_checker_fires_on_its_own_field() {
        let mut obs = ChaosObservation::clean();
        obs.outputs_correct = false;
        assert_eq!(evaluate(&obs)[0].0, Invariant::Output);

        let mut obs = ChaosObservation::clean();
        obs.committed_rounds = 3;
        obs.readable_rounds = 2;
        assert_eq!(evaluate(&obs)[0].0, Invariant::Durability);

        let mut obs = ChaosObservation::clean();
        obs.durable_reexecutions = 1;
        assert_eq!(evaluate(&obs)[0].0, Invariant::AtMostOnce);

        let mut obs = ChaosObservation::clean();
        obs.observed_promotions = 2;
        obs.observed_fences = 1;
        assert_eq!(evaluate(&obs)[0].0, Invariant::Fencing);

        let mut obs = ChaosObservation::clean();
        obs.conservation = vec![ConservationCheck::eq("a == b", 1, 2)];
        assert_eq!(evaluate(&obs)[0].0, Invariant::Conservation);

        let mut obs = ChaosObservation::clean();
        obs.groups = 2;
        obs.protected_groups = 1;
        assert_eq!(evaluate(&obs)[0].0, Invariant::Convergence);
    }

    #[test]
    fn default_actions_cover_every_action_variant_across_sites() {
        use std::collections::BTreeSet;
        let mut seen: BTreeSet<String> = BTreeSet::new();
        for site in FaultSite::ALL {
            for action in default_actions(site) {
                assert!(action.valid_at(site));
                // Variant name = label up to the first parameter bracket.
                let label = action.label();
                seen.insert(label.split('[').next().unwrap_or(&label).to_string());
            }
            assert!(
                !default_actions(site).is_empty(),
                "no canonical action for {site:?}"
            );
        }
        // 8 FaultAction variants, each drawn somewhere.
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn report_json_and_table_are_stable() {
        let report = ChaosReport {
            scenario: "demo".to_string(),
            seed: 7,
            segments: vec![SegmentPoints {
                segment: "a".to_string(),
                points: vec![(FaultSite::Dispatch, 2)],
            }],
            excluded: vec![(FaultSite::HostPoll, "timing".to_string())],
            shadowed: vec![ShadowedPoint {
                segment: "a".to_string(),
                site: FaultSite::Dispatch,
                occurrence: 0,
            }],
            cases: 3,
            violations: vec![Violation {
                segment: "a".to_string(),
                site: "dispatch".to_string(),
                occurrence: 1,
                action: "fail".to_string(),
                invariant: Invariant::Fencing,
                detail: "fenced_appends=0 but promotions=1".to_string(),
            }],
        };
        let json = report.to_json();
        assert_eq!(json, report.to_json());
        assert!(json.contains("\"scenario\": \"demo\""));
        assert!(json.contains("\"site\": \"dispatch\", \"count\": 2"));
        assert!(json.contains("\"invariant\": \"fencing\""));
        assert_eq!(report.point_count(), 2);
        assert!(!report.is_clean());
        let table = report.render_table();
        assert!(table.contains("VIOLATION [fencing] a dispatch #1 under fail"));
    }

    #[test]
    fn report_json_escapes_caller_supplied_strings() {
        let mut obs = ChaosObservation::clean();
        obs.conservation = vec![ConservationCheck::eq("say \"hi\" \\ then\nbye", 1, 2)];
        let (invariant, detail) = evaluate(&obs).remove(0);
        let report = ChaosReport {
            scenario: "q\"s".to_string(),
            seed: 1,
            segments: Vec::new(),
            excluded: Vec::new(),
            shadowed: Vec::new(),
            cases: 1,
            violations: vec![Violation {
                segment: "seg\\1".to_string(),
                site: "baseline".to_string(),
                occurrence: 0,
                action: "none".to_string(),
                invariant,
                detail,
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"scenario\": \"q\\\"s\""), "{json}");
        assert!(json.contains("\"segment\": \"seg\\\\1\""), "{json}");
        assert!(
            json.contains("\"detail\": \"say \\\"hi\\\" \\\\ then\\nbye: 1 "),
            "{json}"
        );
        assert!(!json.contains("then\nbye"), "{json}");
    }
}
