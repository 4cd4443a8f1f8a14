//! The failover walkthrough's run (DESIGN.md §15), asserted on: the same
//! [`demos::leader_crash`] that `mcsd-experiments failover` exports.

use mcsd_apps::seq;
use mcsd_bench::demos;
use mcsd_core::SpanOutcome;

/// Span 1's leader replica is killed during its response round. The span
/// must finish as a promotion — module work completed, output kept, no
/// retry, no re-dispatch, no host fallback — and re-protection must
/// restore full redundancy (visible as exactly one rebuild copy) before
/// run end.
#[test]
fn killed_leader_replica_promotes_without_reexecution() {
    let (text, report, _) = demos::leader_crash(42).unwrap();
    assert_eq!(report.pairs, seq::wordcount(&text));
    // Span 1's group members are sd1, sd2, sd0; the most-advanced
    // acknowledged replica is slot 1 = sd2 (deterministic tiebreak).
    assert_eq!(
        report.outcomes[1],
        SpanOutcome::Promoted {
            node: "sd2".into(),
            epoch: 1
        }
    );
    assert!(matches!(report.outcomes[0], SpanOutcome::Ok { .. }));
    assert!(matches!(report.outcomes[2], SpanOutcome::Ok { .. }));
    // No recovery through the span chain: one attempt per span, nothing
    // retried, nothing re-dispatched, the host untouched.
    assert_eq!(report.resilience.attempts, 3);
    assert_eq!(report.resilience.retries, 0);
    assert_eq!(report.resilience.redispatches, 0);
    // Every round still committed; the crash cost one promotion, one
    // fenced stale append (the split-brain probe), and one rebuild.
    let stats = report.replication;
    assert_eq!(stats.quorum_appends, 6);
    assert_eq!(stats.promotions, 1);
    assert_eq!(stats.fenced_appends, 1);
    assert_eq!(stats.replica_crashes, 1);
    assert_eq!(stats.group_crashes, 0);
    assert_eq!(stats.reprotect_copies, 1, "redundancy not restored");
    assert!(stats.reprotect_bytes > 0);
}
