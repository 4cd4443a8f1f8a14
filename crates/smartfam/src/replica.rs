//! Replicated module-log groups: quorum appends, replica promotion, and
//! background re-protection.
//!
//! The self-healing path of PR 2 recovers a dead SD by *re-executing* the
//! span elsewhere — correct, but it throws away completed module work.
//! This module implements the HA tier of DESIGN.md §15 (modeled on the
//! CPFS data-server RAID-group design): every module-log append fans out
//! to a small *replication group* of SD-side copies and acknowledges once
//! a configurable *write quorum* of members holds a **verified** copy of
//! the frame. Losing the primary then costs one promotion — the
//! most-advanced acknowledged replica becomes authoritative (deterministic
//! tiebreak: lowest replica index) — instead of a recompute, and a
//! background re-protect loop copies the promoted log onto the failed slot
//! until the group is back at full redundancy.
//!
//! Every group member is a held [`LogFile`] on a disabled injector, so
//! every byte is written by `LogFile::write_faulted` like any other log
//! append (DESIGN.md §10) and nothing here opens, names or re-reads a
//! whole file per append. [`ReplicatedLog`] is the deterministic,
//! modelled group used by the `mcsd-core` replication engine and the
//! seeded fault matrix. Appends are verified by read-back, so
//! *acknowledged implies byte-good*: any quorum of acknowledged replicas
//! reconstructs byte-identical log contents even under torn/corrupt
//! replica faults (property-tested). Stale writers deposed by a promotion
//! are fenced by a group *epoch*.

use crate::codec::{decode_stream, Frame};
use crate::error::SmartFamError;
use crate::faults::{FaultAction, FaultInjector, FaultSite};
use crate::log_file::{log_path, LogFile};
use std::path::PathBuf;

/// Replication-group shape: how many copies of each module log exist and
/// how many verified acknowledgements an append needs before it commits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaConfig {
    /// Members per group, including the primary copy. At most 8 (replica
    /// indices must fit the correlated-failure bitmask).
    pub group_size: usize,
    /// Verified acknowledgements required to commit an append.
    pub write_quorum: usize,
}

impl Default for ReplicaConfig {
    fn default() -> ReplicaConfig {
        ReplicaConfig {
            group_size: 3,
            write_quorum: 2,
        }
    }
}

impl ReplicaConfig {
    /// A validated config: `1 <= write_quorum <= group_size <= 8`.
    pub fn new(group_size: usize, write_quorum: usize) -> Result<ReplicaConfig, SmartFamError> {
        if group_size == 0 || group_size > 8 || write_quorum == 0 || write_quorum > group_size {
            return Err(SmartFamError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "invalid replica config: group_size={group_size} write_quorum={write_quorum} \
                     (need 1 <= quorum <= group <= 8)"
                ),
            )));
        }
        Ok(ReplicaConfig {
            group_size,
            write_quorum,
        })
    }
}

/// Per-member bookkeeping of one replication group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaState {
    /// Whether the member is up (crashed members stay down until the
    /// re-protect loop recruits a fresh member into the slot).
    pub alive: bool,
    /// Whether the member's copy is a verified prefix of the committed
    /// log. A torn/corrupt write desyncs the member until re-protection
    /// rebuilds it; an aborted quorum round instead rolls its ackers
    /// back (truncating the orphaned suffix), so they stay synced.
    pub synced: bool,
    /// Entries this member holds a verified copy of.
    pub acked_entries: u64,
    /// Length in bytes of the member's verified prefix.
    pub good_bytes: u64,
}

impl ReplicaState {
    fn fresh() -> ReplicaState {
        ReplicaState {
            alive: true,
            synced: true,
            acked_entries: 0,
            good_bytes: 0,
        }
    }
}

/// What one quorum append round did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppendOutcome {
    /// Whether the round gathered its write quorum and committed. A lost
    /// quorum is a normal round outcome, not an error: the casualties
    /// below still describe what the round did to the group.
    pub committed: bool,
    /// 0-based index of the entry the round tried to commit.
    pub entry: u64,
    /// Members that acknowledged a verified copy, in replica order.
    pub acked: Vec<usize>,
    /// Members that crashed during this round (individually or via a
    /// correlated group fault), in replica order.
    pub crashed: Vec<usize>,
    /// Members whose copy landed torn/corrupt and was therefore not
    /// acknowledged (the member is desynced until re-protected).
    pub rejected: Vec<usize>,
    /// Whether a correlated [`FaultSite::Group`]
    /// crash fired at this round.
    pub group_crash: bool,
}

/// One unit of background re-protection work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReprotectStep {
    /// The slot that was rebuilt (recruited fresh if it had crashed).
    pub member: usize,
    /// The synced member the verified prefix was copied from.
    pub source: usize,
    /// Bytes the rebuilt member was missing.
    pub copied_bytes: u64,
}

/// A replicated module log: `group_size` copies of one append-only log,
/// written in lock-step quorum rounds through one held handle per copy.
///
/// Replica 0 *is* the ordinary module log (`<dir>/<module>.log`), so
/// default readers — the host's watcher, the daemon's replay scan — see
/// an unchanged layout; replica `r ≥ 1` lives at
/// `<dir>/.replica<r>/<module>.log`.
#[derive(Debug)]
pub struct ReplicatedLog {
    cfg: ReplicaConfig,
    injector: FaultInjector,
    epoch: u64,
    committed: u64,
    members: Vec<ReplicaState>,
    /// Member `r`'s copy, parallel to `members`. The handles carry a
    /// disabled injector: `Replica`/`Group` occurrences are advanced by
    /// [`ReplicatedLog::append`] itself, in fan-out order.
    copies: Vec<LogFile>,
}

impl ReplicatedLog {
    /// Create (or truncate) a replicated log for `module` under `dir`,
    /// with every member alive, synced, and empty.
    pub fn create(
        dir: impl Into<PathBuf>,
        module: impl Into<String>,
        cfg: ReplicaConfig,
        injector: FaultInjector,
    ) -> Result<ReplicatedLog, SmartFamError> {
        let (dir, module) = (dir.into(), module.into());
        let copies = (0..cfg.group_size)
            .map(|r| {
                let copy = LogFile::attach_at_start(log_path(&dir, &module, r))?;
                copy.truncate_to(0)?;
                Ok(copy)
            })
            .collect::<Result<Vec<LogFile>, SmartFamError>>()?;
        Ok(ReplicatedLog {
            cfg,
            injector,
            epoch: 0,
            committed: 0,
            members: vec![ReplicaState::fresh(); cfg.group_size],
            copies,
        })
    }

    /// The group's current epoch. Bumped by every promotion; appends
    /// carrying an older epoch are fenced.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Entries committed (acknowledged by a write quorum).
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// The group shape (size and write quorum) this log was created with.
    pub fn config(&self) -> ReplicaConfig {
        self.cfg
    }

    /// Per-member state, indexed by replica.
    pub fn members(&self) -> &[ReplicaState] {
        &self.members
    }

    /// Members currently holding a verified copy of the committed log.
    pub fn synced_members(&self) -> usize {
        self.members.iter().filter(|m| m.synced).count()
    }

    /// Whether the group is back at full redundancy (every slot synced).
    pub fn fully_protected(&self) -> bool {
        self.synced_members() == self.cfg.group_size
    }

    /// Append one frame through a quorum round at `epoch`.
    ///
    /// The frame fans out to every member in replica order; each member's
    /// write is verified by read-back, so only byte-good copies
    /// acknowledge. Commits when at least `write_quorum` members
    /// acknowledge; otherwise the round aborts
    /// (`AppendOutcome::committed == false`) and every member that
    /// acknowledged the aborted entry is rolled back — its orphaned
    /// suffix truncated on the spot — so surviving ackers stay synced
    /// and can seed the re-protection of the members the round killed.
    /// An `epoch` older than the group's is fenced with
    /// [`SmartFamError::Fenced`] before any byte is written.
    ///
    /// The fault counter at [`FaultSite::Replica`] advances once per
    /// (entry, member) pair in fan-out order — so with group size `g`,
    /// scheduled occurrence `k` addresses entry `k / g`, replica `k % g`,
    /// deterministically.
    pub fn append(&mut self, frame: &Frame, epoch: u64) -> Result<AppendOutcome, SmartFamError> {
        if epoch != self.epoch {
            return Err(SmartFamError::Fenced {
                stale: epoch,
                current: self.epoch,
            });
        }
        let mut outcome = AppendOutcome {
            committed: false,
            entry: self.committed,
            acked: Vec::new(),
            crashed: Vec::new(),
            rejected: Vec::new(),
            group_crash: false,
        };
        // Correlated failure first: one schedule entry can take down
        // several members of the group at once.
        if let Some(FaultAction::CrashReplicas { mask }) = self.injector.fire(FaultSite::Group) {
            outcome.group_crash = true;
            let mask = mask.max(1);
            for (r, member) in self.members.iter_mut().enumerate() {
                if r < 8 && mask & (1 << r) != 0 && member.alive {
                    member.alive = false;
                    member.synced = false;
                    outcome.crashed.push(r);
                }
            }
        }
        let bytes = frame.encode();
        let frame_len = bytes.len() as u64;
        for (r, (member, copy)) in self.members.iter_mut().zip(&self.copies).enumerate() {
            // Advance the replica fault counter for EVERY (entry, member)
            // pair — dead or desynced members included — so occurrence
            // numbers stay a pure function of the append sequence.
            let fault = self.injector.fire(FaultSite::Replica);
            if !member.alive || !member.synced {
                continue;
            }
            // A crash-before member writes nothing; a crash-after one
            // lands the whole frame and dies before it can acknowledge
            // (promotion must not count those bytes); a torn or corrupt
            // write is applied by the one writer.
            if fault != Some(FaultAction::CrashBefore) {
                copy.write_faulted(&bytes, fault)?;
            }
            if let Some(FaultAction::CrashBefore | FaultAction::CrashAfter) = fault {
                member.alive = false;
                member.synced = false;
                outcome.crashed.push(r);
                continue;
            }
            // Read-back verification: the copy is exactly its verified
            // prefix plus this frame. Only the frame's bytes are read.
            let end = member.good_bytes + frame_len;
            if copy.len()? == end && copy.read_range(member.good_bytes, end)? == bytes {
                member.acked_entries += 1;
                member.good_bytes = end;
                outcome.acked.push(r);
            } else {
                member.synced = false;
                outcome.rejected.push(r);
            }
        }
        if outcome.acked.len() >= self.cfg.write_quorum {
            self.committed += 1;
            outcome.committed = true;
        } else {
            // Aborted round: members that acknowledged the uncommitted
            // entry now diverge from the committed history — roll their
            // bookkeeping back and truncate the orphaned suffix on the
            // spot. They stay synced: a rolled-back copy again equals
            // the verified committed prefix, and keeping it eligible is
            // what lets re-protection rebuild the members this round
            // killed (a desync here could leave a group with no synced
            // source at all).
            for &r in &outcome.acked {
                let member = &mut self.members[r];
                member.acked_entries -= 1;
                member.good_bytes -= frame_len;
                self.copies[r].truncate_to(member.good_bytes)?;
            }
        }
        Ok(outcome)
    }

    /// Record that member `failed` died and promote the most-advanced
    /// acknowledged replica in its place: maximum `acked_entries` among
    /// alive members, deterministic tiebreak by lowest replica index.
    /// Bumps the group epoch, fencing any stale writer that has not
    /// observed the promotion. Returns `(winner, new_epoch)`, or
    /// [`SmartFamError::QuorumLost`] when no acknowledged member remains.
    pub fn promote(&mut self, failed: usize) -> Result<(usize, u64), SmartFamError> {
        if let Some(member) = self.members.get_mut(failed) {
            member.alive = false;
            member.synced = false;
        }
        let winner = self
            .members
            .iter()
            .enumerate()
            .filter(|(_, m)| m.alive && m.synced)
            .max_by(|(ra, a), (rb, b)| {
                // Highest acked count wins; on a tie the LOWEST index
                // wins, so reverse the index ordering under `max_by`.
                a.acked_entries.cmp(&b.acked_entries).then(rb.cmp(ra))
            })
            .map(|(r, _)| r);
        match winner {
            Some(r) => {
                self.epoch += 1;
                Ok((r, self.epoch))
            }
            None => Err(SmartFamError::QuorumLost {
                acked: 0,
                needed: 1,
            }),
        }
    }

    /// One unit of background re-protection: rebuild the lowest-indexed
    /// unsynced slot from the most-advanced synced member — cut the slot
    /// back to its own verified prefix (dropping any torn, corrupt or
    /// unacknowledged tail) and append the verified bytes it is missing;
    /// a crashed slot is recruited back. Returns `Ok(None)` when the
    /// group is already fully protected, and [`SmartFamError::QuorumLost`]
    /// when no synced source remains.
    pub fn reprotect_step(&mut self) -> Result<Option<ReprotectStep>, SmartFamError> {
        let Some(dest) = self.members.iter().position(|m| !m.synced) else {
            return Ok(None);
        };
        let source = self
            .members
            .iter()
            .enumerate()
            .filter(|(_, m)| m.synced)
            .max_by(|(ra, a), (rb, b)| a.acked_entries.cmp(&b.acked_entries).then(rb.cmp(ra)))
            .map(|(r, _)| r)
            .ok_or(SmartFamError::QuorumLost {
                acked: 0,
                needed: 1,
            })?;
        // Verified prefixes are prefixes of one committed history, and
        // the source is the most advanced, so `dest`'s is a prefix of it.
        let src_state = self.members[source];
        let had = self.members[dest].good_bytes.min(src_state.good_bytes);
        let missing = self.copies[source].read_range(had, src_state.good_bytes)?;
        self.copies[dest].truncate_to(had)?;
        self.copies[dest].write_faulted(&missing, None)?;
        self.members[dest] = ReplicaState {
            alive: true,
            synced: true,
            ..src_state
        };
        Ok(Some(ReprotectStep {
            member: dest,
            source,
            copied_bytes: missing.len() as u64,
        }))
    }

    /// The verified prefix of member `r`'s copy — exactly the bytes whose
    /// read-back matched what the quorum rounds acknowledged.
    pub fn verified_contents(&self, r: usize) -> Result<Vec<u8>, SmartFamError> {
        match (self.copies.get(r), self.members.get(r)) {
            (Some(copy), Some(member)) => copy.read_range(0, member.good_bytes),
            _ => Ok(Vec::new()),
        }
    }

    /// Decode member `r`'s verified prefix back into frames. Verified
    /// bytes decode strictly — acknowledged implies byte-good — so this
    /// never needs the recovering scan (and therefore never touches the
    /// daemon-owned `corrupt_skipped_bytes` accounting).
    pub fn reconstruct(&self, r: usize) -> Result<Vec<Frame>, SmartFamError> {
        let data = self.verified_contents(r)?;
        let (frames, _) = decode_stream(&data, 0)
            .map_err(|detail| SmartFamError::Corrupt { offset: 0, detail })?;
        Ok(frames)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultAction, FaultPlan, FaultSite};
    use crate::temp_dir;

    fn frame(i: u64) -> Frame {
        Frame::request(i, vec![format!("payload-{i}")])
    }

    #[test]
    fn config_validation() {
        assert!(ReplicaConfig::new(3, 2).is_ok());
        assert!(ReplicaConfig::new(1, 1).is_ok());
        assert!(ReplicaConfig::new(0, 0).is_err());
        assert!(ReplicaConfig::new(3, 4).is_err());
        assert!(ReplicaConfig::new(9, 2).is_err());
        // A bad shape is a caller mistake, not an injected fault.
        let err = ReplicaConfig::new(3, 4).unwrap_err();
        assert_eq!(err.kind(), "io");
        assert!(
            matches!(&err, SmartFamError::Io(e) if e.kind() == std::io::ErrorKind::InvalidInput),
            "{err}"
        );
        let d = ReplicaConfig::default();
        assert_eq!((d.group_size, d.write_quorum), (3, 2));
    }

    #[test]
    fn fault_free_appends_commit_on_all_members_byte_identically() {
        let dir = temp_dir();
        let cfg = ReplicaConfig::default();
        let mut log = ReplicatedLog::create(&dir, "wc", cfg, FaultInjector::disabled()).unwrap();
        for i in 0..4 {
            let out = log.append(&frame(i), 0).unwrap();
            assert_eq!(out.acked, vec![0, 1, 2]);
            assert!(out.crashed.is_empty() && out.rejected.is_empty());
        }
        assert_eq!(log.committed(), 4);
        assert!(log.fully_protected());
        let a = log.verified_contents(0).unwrap();
        assert_eq!(a, log.verified_contents(1).unwrap());
        assert_eq!(a, log.verified_contents(2).unwrap());
        assert_eq!(log.reconstruct(1).unwrap().len(), 4);
        // Replica 0 is the plain module log, so default readers see it.
        assert_eq!(std::fs::read(dir.join("wc.log")).unwrap(), a);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_replica_is_not_acknowledged_and_reprotect_repairs_it() {
        let dir = temp_dir();
        // Entry 0, replica 1 (occurrence 0*3+1 = 1) lands corrupt.
        let plan = FaultPlan::none().with(
            FaultSite::Replica,
            1,
            FaultAction::Corrupt { xor_mask: 0x20 },
        );
        let mut log = ReplicatedLog::create(
            &dir,
            "wc",
            ReplicaConfig::default(),
            FaultInjector::new(plan),
        )
        .unwrap();
        let out = log.append(&frame(0), 0).unwrap();
        assert_eq!(out.acked, vec![0, 2]);
        assert_eq!(out.rejected, vec![1]);
        assert!(!log.fully_protected());
        let step = log.reprotect_step().unwrap().unwrap();
        assert_eq!((step.member, step.source), (1, 0));
        assert!(step.copied_bytes > 0);
        assert!(log.fully_protected());
        // The repaired copy is byte-identical to the acknowledged ones.
        assert_eq!(
            log.verified_contents(1).unwrap(),
            log.verified_contents(0).unwrap()
        );
        assert!(log.reprotect_step().unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_replica_garbage_is_truncated_by_reprotect() {
        let dir = temp_dir();
        let plan = FaultPlan::none().with(
            FaultSite::Replica,
            2,
            FaultAction::Torn { keep_sixteenths: 8 },
        );
        let mut log = ReplicatedLog::create(
            &dir,
            "wc",
            ReplicaConfig::default(),
            FaultInjector::new(plan),
        )
        .unwrap();
        log.append(&frame(0), 0).unwrap(); // replica 2 torn
        log.append(&frame(1), 0).unwrap(); // replicas 0,1 advance
        assert_eq!(log.committed(), 2);
        let torn_len = std::fs::read(log_path(&dir, "wc", 2)).unwrap().len();
        assert!(torn_len > 0, "torn write left a partial frame");
        log.reprotect_step().unwrap().unwrap();
        assert_eq!(
            log.verified_contents(2).unwrap(),
            log.verified_contents(0).unwrap()
        );
        assert_eq!(log.reconstruct(2).unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_after_bytes_are_never_counted_as_acknowledged() {
        let dir = temp_dir();
        // Entry 0: replica 0 writes then dies unacknowledged.
        let plan = FaultPlan::none().with(FaultSite::Replica, 0, FaultAction::CrashAfter);
        let mut log = ReplicatedLog::create(
            &dir,
            "wc",
            ReplicaConfig::default(),
            FaultInjector::new(plan),
        )
        .unwrap();
        let out = log.append(&frame(0), 0).unwrap();
        assert_eq!(out.acked, vec![1, 2]);
        assert_eq!(out.crashed, vec![0]);
        assert_eq!(log.members()[0].acked_entries, 0);
        // The bytes DID land — but promotion ranks by acknowledgement.
        assert!(!std::fs::read(log_path(&dir, "wc", 0)).unwrap().is_empty());
        let (winner, epoch) = log.promote(0).unwrap();
        assert_eq!(winner, 1, "lowest-index most-advanced replica wins");
        assert_eq!(epoch, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_epoch_append_is_fenced_before_any_write() {
        let dir = temp_dir();
        let mut log = ReplicatedLog::create(
            &dir,
            "wc",
            ReplicaConfig::default(),
            FaultInjector::disabled(),
        )
        .unwrap();
        log.append(&frame(0), 0).unwrap();
        let before = std::fs::read(dir.join("wc.log")).unwrap();
        log.promote(0).unwrap();
        // The deposed primary still believes epoch 0.
        let err = log.append(&frame(1), 0).unwrap_err();
        assert_eq!(err.kind(), "fenced");
        assert_eq!(std::fs::read(dir.join("wc.log")).unwrap(), before);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn correlated_group_crash_kills_masked_members_at_once() {
        let dir = temp_dir();
        // Round 1 (occurrence 1): replicas 0 and 2 die together.
        let plan = FaultPlan::none().with(
            FaultSite::Group,
            1,
            FaultAction::CrashReplicas { mask: 0b101 },
        );
        let mut log = ReplicatedLog::create(
            &dir,
            "wc",
            ReplicaConfig::default(),
            FaultInjector::new(plan),
        )
        .unwrap();
        log.append(&frame(0), 0).unwrap();
        // Quorum is 2 but only replica 1 survives: the round aborts.
        let out = log.append(&frame(1), 0).unwrap();
        assert!(!out.committed);
        assert!(out.group_crash);
        assert_eq!(out.crashed, vec![0, 2]);
        assert_eq!(log.committed(), 1);
        // Replica 1 acked the aborted entry and was rolled back: its
        // orphaned suffix is truncated and it STAYS synced, so it can
        // seed the re-protection of the two members the round killed.
        assert!(log.members()[1].synced);
        assert_eq!(log.members()[1].acked_entries, 1);
        assert_eq!(
            std::fs::read(log_path(&dir, "wc", 1)).unwrap().len() as u64,
            log.members()[1].good_bytes,
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn aborted_round_rollback_keeps_the_group_repairable() {
        let dir = temp_dir();
        let plan = FaultPlan::none().with(
            FaultSite::Group,
            1,
            FaultAction::CrashReplicas { mask: 0b110 },
        );
        let mut log = ReplicatedLog::create(
            &dir,
            "wc",
            ReplicaConfig::default(),
            FaultInjector::new(plan),
        )
        .unwrap();
        log.append(&frame(0), 0).unwrap();
        // Replicas 1,2 die; replica 0 writes the entry alone — aborted.
        assert!(!log.append(&frame(1), 0).unwrap().committed);
        // Replica 0 was rolled back to the committed prefix (the orphan
        // truncated) and remains the group's synced seed.
        assert_eq!(log.synced_members(), 1);
        let seed = log.verified_contents(0).unwrap();
        assert_eq!(
            std::fs::read(log_path(&dir, "wc", 0)).unwrap(),
            seed,
            "rollback truncates the aborted entry on disk"
        );
        // Two re-protect steps recruit the killed slots back to full
        // redundancy from that seed.
        assert!(log.reprotect_step().unwrap().is_some());
        assert!(log.reprotect_step().unwrap().is_some());
        assert!(log.fully_protected());
        assert_eq!(log.verified_contents(1).unwrap(), seed);
        assert_eq!(log.verified_contents(2).unwrap(), seed);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn promotion_prefers_most_advanced_then_lowest_index() {
        let dir = temp_dir();
        // Replica 2 misses entry 1 (torn at occurrence 1*3+2 = 5).
        let plan = FaultPlan::none().with(
            FaultSite::Replica,
            5,
            FaultAction::Torn { keep_sixteenths: 8 },
        );
        let mut log = ReplicatedLog::create(
            &dir,
            "wc",
            ReplicaConfig::default(),
            FaultInjector::new(plan),
        )
        .unwrap();
        log.append(&frame(0), 0).unwrap();
        log.append(&frame(1), 0).unwrap();
        // Members: 0 has 2 acked, 1 has 2 acked, 2 desynced with 1.
        let (winner, _) = log.promote(0).unwrap();
        assert_eq!(winner, 1, "replica 1 is most advanced among survivors");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    proptest::proptest! {
        /// The tentpole safety property: under arbitrary seeded
        /// torn/corrupt/crash replica faults, every pair of acknowledged
        /// copies agrees byte-for-byte on their common verified prefix,
        /// and any member whose acknowledged count reaches the committed
        /// count reconstructs the identical frame sequence — so ANY write
        /// quorum of acknowledged replicas rebuilds the same log.
        #[test]
        fn any_quorum_of_acked_replicas_reconstructs_identical_contents(
            seed in 0u64..512,
            appends in 1usize..8,
        ) {
            let dir = temp_dir();
            let plan = FaultPlan::replication_from_seed(seed);
            let mut log = ReplicatedLog::create(
                &dir,
                "prop",
                ReplicaConfig::default(),
                FaultInjector::new(plan),
            )
            .unwrap();
            let mut committed_frames: Vec<Frame> = Vec::new();
            for i in 0..appends as u64 {
                let f = frame(i);
                if log.append(&f, 0).unwrap().committed {
                    committed_frames.push(f);
                }
            }
            let g = log.members().len();
            for a in 0..g {
                let ca = log.verified_contents(a).unwrap();
                for b in (a + 1)..g {
                    let cb = log.verified_contents(b).unwrap();
                    let n = ca.len().min(cb.len());
                    proptest::prop_assert_eq!(&ca[..n], &cb[..n]);
                }
                if log.members()[a].acked_entries == log.committed() {
                    let frames = log.reconstruct(a).unwrap();
                    proptest::prop_assert_eq!(frames.len() as u64, log.committed());
                    for (got, want) in frames.iter().zip(committed_frames.iter()) {
                        proptest::prop_assert_eq!(got.encode(), want.encode());
                    }
                }
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
