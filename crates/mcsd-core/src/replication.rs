//! The replication engine: replicated SD log groups with quorum appends,
//! replica promotion, and background re-protection (DESIGN.md §15).
//!
//! [`crate::multisd::MultiSdRunner::run_replicated`] drives one
//! [`ReplicationGroups`] per run: every span's module log becomes a
//! [`ReplicatedLog`] whose copies live on a replication group of SD
//! nodes assigned cyclically from the span's primary. Each span run
//! appends its request and response frames through a quorum round; the
//! seeded [`FaultInjector`] can crash, tear, or corrupt individual
//! replicas (or several at once via a correlated
//! [`FaultSite::Group`](mcsd_smartfam::FaultSite::Group) fault). Losing
//! the *leader* replica after the round committed costs one promotion —
//! the most-advanced acknowledged replica becomes authoritative and the
//! span's completed output stands — while losing the quorum itself sends
//! the span back through the engine's re-dispatch chain. After every
//! disturbed round a re-protection pass rebuilds failed slots from the
//! promoted log until the group is back at full redundancy.
//!
//! This module is the **single mutation site** of the
//! [`ReplicationStats`] counters (§13; merged views go through
//! its `CounterFamily::absorb`), and the single
//! emitter of the replication trace vocabulary: `mcsd.promote`,
//! `mcsd.epoch_fence`, `mcsd.group_crash` and the `mcsd.reprotect` span
//! on the `mcsd` track; `sd.replica_crash` and `sd.quorum_lost` on the
//! `sd.daemon` track.

use crate::engine::MCSD_TRACE_TRACK;
use crate::error::McsdError;
use crate::report::ReplicationStats;
use mcsd_obs::names::{
    EVENT_MCSD_EPOCH_FENCE, EVENT_MCSD_GROUP_CRASH, EVENT_MCSD_PROMOTE, EVENT_SD_QUORUM_LOST,
    EVENT_SD_REPLICA_CRASH, SPAN_MCSD_REPROTECT,
};
use mcsd_obs::{ClockDomain, Tracer, TrackId};
use mcsd_smartfam::daemon::SD_TRACE_TRACK;
use mcsd_smartfam::{FaultInjector, Frame, ReplicaConfig, ReplicatedLog, SmartFamError};
use std::path::PathBuf;

/// Configuration of one replicated run: group shape, where the
/// replicated span logs live, and the tracer carrying the replication
/// timeline.
#[derive(Debug, Clone)]
pub struct ReplicationSetup {
    /// Group size and write quorum applied to every span's log group.
    pub replica: ReplicaConfig,
    /// Directory holding the replicated span logs (replica 0 of span *i*
    /// is `<log_dir>/span<i>.log`, replica *r* under `.replica<r>/`).
    pub log_dir: PathBuf,
    /// Deterministic tracer for the replication events; disabled by
    /// default.
    pub tracer: Tracer,
}

impl ReplicationSetup {
    /// A setup with the default 3-member / quorum-2 groups and tracing
    /// off.
    pub fn new(log_dir: impl Into<PathBuf>) -> ReplicationSetup {
        ReplicationSetup {
            replica: ReplicaConfig::default(),
            log_dir: log_dir.into(),
            tracer: Tracer::disabled(),
        }
    }

    /// Attach a tracer.
    pub fn with_tracer(mut self, tracer: Tracer) -> ReplicationSetup {
        self.tracer = tracer;
        self
    }
}

/// What one span's quorum round did, as seen by the span scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoundOutcome {
    /// Both appends committed and the leader replica survived; the span
    /// completes normally.
    Committed,
    /// The appends committed but the leader replica failed: authority
    /// moved to the named node at the new epoch, and the span's
    /// completed output stands without re-execution.
    Promoted {
        /// Node holding the promoted authoritative copy.
        node: String,
        /// Group epoch after the promotion.
        epoch: u64,
    },
    /// The round could not gather its write quorum; the span's durable
    /// record is lost and the span must be re-dispatched.
    QuorumLost,
}

/// One span's replication group: the log, its member→SD-node mapping,
/// and the current leader replica.
struct SpanGroup {
    log: ReplicatedLog,
    /// SD node index backing each replica slot, `members[0]` being the
    /// span's primary.
    members: Vec<usize>,
    /// Replica index currently holding authority.
    leader: usize,
}

/// All replication groups of one multi-SD run, plus the run's
/// [`ReplicationStats`] (this module is their only mutation site; §13).
pub struct ReplicationGroups {
    groups: Vec<SpanGroup>,
    node_names: Vec<String>,
    tracer: Tracer,
    stats: ReplicationStats,
}

impl ReplicationGroups {
    /// Plan one replication group per span: span *i*'s group members are
    /// assigned cyclically from its primary SD node — nodes
    /// `p, p+1, …, p+g-1 (mod sd_count)` — so groups of neighbouring
    /// spans interleave and a single node failure degrades every group
    /// it belongs to by exactly one member. With fewer SD nodes than the
    /// group size a node can back more than one slot of the same group
    /// (the copies are still independent files).
    pub fn plan(
        setup: &ReplicationSetup,
        node_names: Vec<String>,
        span_count: usize,
        injector: FaultInjector,
    ) -> Result<ReplicationGroups, McsdError> {
        let sd_count = node_names.len().max(1);
        let mut groups = Vec::with_capacity(span_count);
        for i in 0..span_count {
            let primary = i.min(sd_count - 1);
            let members = (0..setup.replica.group_size)
                .map(|k| (primary + k) % sd_count)
                .collect();
            let log = ReplicatedLog::create(
                &setup.log_dir,
                format!("span{i}"),
                setup.replica,
                injector.clone(),
            )
            .map_err(McsdError::from)?;
            groups.push(SpanGroup {
                log,
                members,
                leader: 0,
            });
        }
        Ok(ReplicationGroups {
            groups,
            node_names,
            tracer: setup.tracer.clone(),
            stats: ReplicationStats::default(),
        })
    }

    fn mcsd_track(&self) -> TrackId {
        self.tracer.track(MCSD_TRACE_TRACK, ClockDomain::Decision)
    }

    fn sd_track(&self) -> TrackId {
        self.tracer.track(SD_TRACE_TRACK, ClockDomain::Decision)
    }

    fn node_name(&self, group: usize, replica: usize) -> String {
        let slot = self.groups[group].members[replica.min(self.groups[group].members.len() - 1)];
        self.node_names
            .get(slot)
            .cloned()
            .unwrap_or_else(|| format!("sd{slot}"))
    }

    /// The current group epoch of span `span` (0 until its first
    /// promotion).
    pub fn epoch(&self, span: usize) -> u64 {
        self.groups[span].log.epoch()
    }

    /// Append one frame of span `span` through a quorum round at the
    /// group's current epoch, folding the round's acknowledgements and
    /// casualties into the run counters and the trace.
    fn append(&mut self, span: usize, frame: &Frame) -> Result<bool, McsdError> {
        let epoch = self.groups[span].log.epoch();
        let outcome = self.groups[span]
            .log
            .append(frame, epoch)
            .map_err(McsdError::from)?;
        // Casualties count whether or not the round committed — a lost
        // quorum is still a round the group lived through.
        if outcome.group_crash {
            self.stats.group_crashes += 1;
            self.tracer
                .event_with(self.mcsd_track(), EVENT_MCSD_GROUP_CRASH, |a| {
                    a.u64("span", span as u64);
                    a.u64("crashed", outcome.crashed.len() as u64);
                });
        }
        for &r in &outcome.crashed {
            self.stats.replica_crashes += 1;
            self.tracer
                .event_with(self.sd_track(), EVENT_SD_REPLICA_CRASH, |a| {
                    a.u64("span", span as u64);
                    a.str("node", &self.node_name(span, r));
                });
        }
        if outcome.committed {
            self.stats.quorum_appends += 1;
            self.stats.replica_acks += outcome.acked.len() as u64;
        } else {
            let needed = self.groups[span].log.config().write_quorum;
            self.tracer
                .event_with(self.sd_track(), EVENT_SD_QUORUM_LOST, |a| {
                    a.u64("span", span as u64);
                    a.u64("acked", outcome.acked.len() as u64);
                    a.u64("needed", needed as u64);
                });
        }
        Ok(outcome.committed)
    }

    /// Record one completed span run: append its request and response
    /// frames through quorum rounds, promote away from a failed leader,
    /// and re-protect the group. The caller discards the span's output
    /// (and re-dispatches) only on [`RoundOutcome::QuorumLost`] — a
    /// promoted span keeps its completed work.
    pub fn record_span(
        &mut self,
        span: usize,
        request: &Frame,
        response: &Frame,
    ) -> Result<RoundOutcome, McsdError> {
        let mut committed = true;
        for frame in [request, response] {
            if !self.append(span, frame)? {
                committed = false;
                break;
            }
        }
        let outcome = if !committed {
            RoundOutcome::QuorumLost
        } else {
            let leader = self.groups[span].leader;
            let state = self.groups[span].log.members()[leader];
            if state.alive && state.synced {
                RoundOutcome::Committed
            } else {
                self.promote(span, response)?
            }
        };
        // Background re-protection: rebuild every failed or desynced slot
        // from the most-advanced synced copy before the next round. Timed
        // on the decision clock as one `mcsd.reprotect` span per pass.
        self.reprotect(span)?;
        Ok(outcome)
    }

    /// Promote the most-advanced acknowledged replica of span `span`
    /// over its failed leader, then probe the split-brain fence: the
    /// deposed leader re-flushes its last append at the epoch it knew,
    /// which the bumped group epoch must reject.
    fn promote(&mut self, span: usize, last_frame: &Frame) -> Result<RoundOutcome, McsdError> {
        let old_epoch = self.groups[span].log.epoch();
        let leader = self.groups[span].leader;
        let (winner, epoch) = match self.groups[span].log.promote(leader) {
            Ok(p) => p,
            // No acknowledged replica left to promote: the span's durable
            // record is gone and it must be re-dispatched.
            Err(SmartFamError::QuorumLost { .. }) => return Ok(RoundOutcome::QuorumLost),
            Err(e) => return Err(McsdError::from(e)),
        };
        self.groups[span].leader = winner;
        self.stats.promotions += 1;
        let node = self.node_name(span, winner);
        self.tracer
            .event_with(self.mcsd_track(), EVENT_MCSD_PROMOTE, |a| {
                a.u64("span", span as u64);
                a.str("node", &node);
                a.u64("epoch", epoch);
            });
        // Split-brain probe: a stale writer that has not observed the
        // promotion retries its unacknowledged append with the old epoch
        // and must bounce off the fence before a single byte lands.
        if let Err(SmartFamError::Fenced { stale, current }) =
            self.groups[span].log.append(last_frame, old_epoch)
        {
            self.stats.fenced_appends += 1;
            self.tracer
                .event_with(self.mcsd_track(), EVENT_MCSD_EPOCH_FENCE, |a| {
                    a.u64("span", span as u64);
                    a.u64("stale", stale);
                    a.u64("epoch", current);
                });
        }
        Ok(RoundOutcome::Promoted { node, epoch })
    }

    /// Drain the re-protection loop for span `span`: copy the promoted
    /// log onto failed or desynced members until the group is back at
    /// full redundancy. A group with no synced source left is beyond
    /// repair and is left as-is (its next quorum round reports the
    /// loss).
    fn reprotect(&mut self, span: usize) -> Result<(), McsdError> {
        if self.groups[span].log.fully_protected() {
            return Ok(());
        }
        let track = self.mcsd_track();
        let sp = self
            .tracer
            .open_with(track, SPAN_MCSD_REPROTECT, |a| a.u64("span", span as u64));
        loop {
            match self.groups[span].log.reprotect_step() {
                Ok(Some(step)) => {
                    self.stats.reprotect_copies += 1;
                    self.stats.reprotect_bytes += step.copied_bytes;
                }
                Ok(None) => break,
                Err(SmartFamError::QuorumLost { .. }) => break,
                Err(e) => {
                    self.tracer.close(track, sp);
                    return Err(McsdError::from(e));
                }
            }
        }
        self.tracer.close(track, sp);
        Ok(())
    }

    /// How many replication groups this run planned (one per span).
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// How many groups currently stand at full redundancy — the chaos
    /// convergence invariant compares this against [`Self::group_count`]
    /// after the final re-protection sweep.
    pub fn protected_group_count(&self) -> usize {
        self.groups
            .iter()
            .filter(|g| g.log.fully_protected())
            .count()
    }

    /// How many frames of span `span` are readable back from the current
    /// leader's verified copy — the durability invariant checks that
    /// every quorum-committed round is still readable after promotions
    /// and re-protection.
    pub fn readable_frames(&self, span: usize) -> Result<u64, McsdError> {
        let leader = self.groups[span].leader;
        let frames = self.groups[span]
            .log
            .reconstruct(leader)
            .map_err(McsdError::from)?;
        Ok(frames.len() as u64)
    }

    /// The run's replication counters.
    pub fn stats(&self) -> ReplicationStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsd_smartfam::{FaultAction, FaultPlan, FaultSite};
    use std::path::Path;
    use std::sync::atomic::{AtomicU64, Ordering};

    static N: AtomicU64 = AtomicU64::new(0);

    fn temp_dir() -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "mcsd-replication-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn setup(dir: &Path) -> ReplicationSetup {
        ReplicationSetup::new(dir)
    }

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("sd{i}")).collect()
    }

    fn frames(span: usize) -> (Frame, Frame) {
        let req = Frame::request(span as u64, vec!["wc".into(), format!("span{span}")]);
        let resp = Frame::response_ok(span as u64, format!("pairs={span}").into_bytes());
        (req, resp)
    }

    #[test]
    fn clean_round_commits_and_counts_acks() {
        let dir = temp_dir();
        let mut groups =
            ReplicationGroups::plan(&setup(&dir), names(3), 2, FaultInjector::disabled()).unwrap();
        let (req, resp) = frames(0);
        let out = groups.record_span(0, &req, &resp).unwrap();
        assert_eq!(out, RoundOutcome::Committed);
        let stats = groups.stats();
        assert_eq!(stats.quorum_appends, 2);
        assert_eq!(stats.replica_acks, 6);
        assert!(stats.is_clean());
        assert_eq!(groups.protected_group_count(), groups.group_count());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn leader_crash_promotes_and_reprotects() {
        let dir = temp_dir();
        // Occurrence 3 = entry 1 (the response), replica 0 (the leader).
        let plan = FaultPlan::none().with(FaultSite::Replica, 3, FaultAction::CrashBefore);
        let mut groups =
            ReplicationGroups::plan(&setup(&dir), names(3), 1, FaultInjector::new(plan)).unwrap();
        let (req, resp) = frames(0);
        let out = groups.record_span(0, &req, &resp).unwrap();
        assert_eq!(
            out,
            RoundOutcome::Promoted {
                node: "sd1".into(),
                epoch: 1
            }
        );
        let stats = groups.stats();
        assert_eq!(stats.promotions, 1);
        assert_eq!(stats.replica_crashes, 1);
        assert_eq!(stats.fenced_appends, 1, "stale-epoch probe must be fenced");
        assert_eq!(stats.reprotect_copies, 1, "failed slot rebuilt");
        assert_eq!(groups.protected_group_count(), groups.group_count());
        assert_eq!(groups.epoch(0), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn correlated_group_crash_below_quorum_loses_the_round() {
        let dir = temp_dir();
        // Mask 0b011 kills replicas 0 and 1 of a 3-group at round 0:
        // only replica 2 can ack, below the write quorum of 2.
        let plan = FaultPlan::none().with(
            FaultSite::Group,
            0,
            FaultAction::CrashReplicas { mask: 0b011 },
        );
        let mut groups =
            ReplicationGroups::plan(&setup(&dir), names(3), 1, FaultInjector::new(plan)).unwrap();
        let (req, resp) = frames(0);
        let out = groups.record_span(0, &req, &resp).unwrap();
        assert_eq!(out, RoundOutcome::QuorumLost);
        let stats = groups.stats();
        assert_eq!(stats.group_crashes, 1);
        assert_eq!(stats.replica_crashes, 2);
        assert_eq!(stats.quorum_appends, 0);
        // Re-protection rebuilt the crashed slots from the survivor.
        assert_eq!(groups.protected_group_count(), groups.group_count());
        // The healed group commits the span's re-dispatched round.
        let out = groups.record_span(0, &req, &resp).unwrap();
        assert_eq!(out, RoundOutcome::Committed);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn promoted_group_keeps_committing_at_the_new_epoch() {
        let dir = temp_dir();
        let plan = FaultPlan::none().with(FaultSite::Replica, 0, FaultAction::CrashAfter);
        let mut groups =
            ReplicationGroups::plan(&setup(&dir), names(3), 1, FaultInjector::new(plan)).unwrap();
        let (req, resp) = frames(0);
        let out = groups.record_span(0, &req, &resp).unwrap();
        assert!(matches!(out, RoundOutcome::Promoted { .. }));
        let out = groups.record_span(0, &req, &resp).unwrap();
        assert_eq!(out, RoundOutcome::Committed, "post-promotion rounds commit");
        assert_eq!(groups.stats().quorum_appends, 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
