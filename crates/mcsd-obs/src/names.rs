//! The versioned catalog of every span name and event type the stack may
//! emit: one const each, whose doc comment says what it marks and its
//! width or attrs; the name's prefix is its track. This file *is* the
//! catalog; DESIGN.md §12 states the rules and lists no names. (Counter
//! keys are not listed here: they are `<prefix>.<field>` of the
//! [`crate::counter_family`] tables beside the stats structs.)
//!
//! Emission sites across `phoenix`, `smartfam`, `mcsd-core`, and `bench`
//! must reference these constants instead of string literals.

/// Version of the exported trace format. Bump on any change to the JSONL
/// line schema, the Chrome mapping, or the semantics of a catalogued name.
pub const TRACE_FORMAT_VERSION: u32 = 1;

// ---------------------------------------------------------------- spans

/// Out-of-core Partition→Merge wrapper around per-fragment jobs (work).
pub const SPAN_PHOENIX_PARTITIONED: &str = "phoenix.partitioned";
/// One Phoenix MapReduce job (work).
pub const SPAN_PHOENIX_JOB: &str = "phoenix.job";
/// Input splitting phase; width = map tasks produced (work).
pub const SPAN_PHOENIX_SPLIT: &str = "phoenix.split";
/// Map phase; width = input bytes mapped (work).
pub const SPAN_PHOENIX_MAP: &str = "phoenix.map";
/// Partition/sort/reduce phase; width = pairs entering reduce (work).
pub const SPAN_PHOENIX_REDUCE: &str = "phoenix.reduce";
/// Final merge/sort phase; width = output pairs (work).
pub const SPAN_PHOENIX_MERGE: &str = "phoenix.merge";
/// One typed framework call (wordcount/stringmatch/matmul) end to end
/// (decision).
pub const SPAN_MCSD_CALL: &str = "mcsd.call";
/// Staging data onto the SD node; width = analytic network+disk µs
/// (cluster).
pub const SPAN_CLUSTER_STAGE: &str = "cluster.stage";
/// Host fetching staged data over NFS; width = analytic network+disk µs
/// (cluster).
pub const SPAN_CLUSTER_FETCH: &str = "cluster.fetch";
/// Background re-protection pass rebuilding a replication group back to
/// full redundancy; width = re-protect steps performed (decision).
pub const SPAN_MCSD_REPROTECT: &str = "mcsd.reprotect";
/// One coalesced daemon append batch from formation to its single-fsync
/// commit; width = requests in the batch (decision).
pub const SPAN_SD_BATCH: &str = "sd.batch";

/// Every span name the stack may emit.
pub const ALL_SPANS: [&str; 11] = [
    SPAN_PHOENIX_PARTITIONED,
    SPAN_PHOENIX_JOB,
    SPAN_PHOENIX_SPLIT,
    SPAN_PHOENIX_MAP,
    SPAN_PHOENIX_REDUCE,
    SPAN_PHOENIX_MERGE,
    SPAN_MCSD_CALL,
    SPAN_CLUSTER_STAGE,
    SPAN_CLUSTER_FETCH,
    SPAN_MCSD_REPROTECT,
    SPAN_SD_BATCH,
];

// --------------------------------------------------------------- events

/// Host wrote a request frame into a module's log file.
pub const EVENT_HOST_SUBMIT: &str = "host.submit";
/// Host started one attempt of a call in a window (`attempt` attr).
pub const EVENT_HOST_ATTEMPT: &str = "host.attempt";
/// Host parked a call for a retry after a failed attempt.
pub const EVENT_HOST_RETRY: &str = "host.retry";
/// Final outcome of one call in a window (`status` attr: ok/error).
pub const EVENT_HOST_OUTCOME: &str = "host.outcome";
/// Daemon scanned a fresh request from a log file.
pub const EVENT_SD_REQUEST: &str = "sd.request";
/// Daemon re-processed an already-seen request during startup replay.
pub const EVENT_SD_REPLAY: &str = "sd.replay";
/// Daemon dispatched a request to its module.
pub const EVENT_SD_DISPATCH: &str = "sd.dispatch";
/// Daemon queued a request behind busy execution slots.
pub const EVENT_SD_QUEUE: &str = "sd.queue";
/// Daemon shed a request with a typed `Overloaded` reply.
pub const EVENT_SD_SHED: &str = "sd.shed";
/// Daemon dropped a request whose deadline had expired at dequeue.
pub const EVENT_SD_EXPIRED: &str = "sd.expired";
/// A module crossed its failure threshold and entered quarantine.
pub const EVENT_SD_QUARANTINE: &str = "sd.quarantine";
/// Daemon refused a request because its module is quarantined.
pub const EVENT_SD_QUARANTINE_REJECTED: &str = "sd.quarantine_rejected";
/// Daemon received a request for a module it does not know.
pub const EVENT_SD_UNKNOWN_MODULE: &str = "sd.unknown_module";
/// A dispatched request completed (`status` attr: ok/error).
pub const EVENT_SD_COMPLETE: &str = "sd.complete";
/// Daemon heartbeat write (volatile: wall-cadenced).
pub const EVENT_SD_HEARTBEAT: &str = "sd.heartbeat";
/// Daemon log-file poll (volatile: wall-cadenced).
pub const EVENT_SD_POLL: &str = "sd.poll";
/// Framework placed a job on the SD node.
pub const EVENT_MCSD_OFFLOAD: &str = "mcsd.offload";
/// Framework steered a job to the host before any SD attempt.
pub const EVENT_MCSD_STEER: &str = "mcsd.steer";
/// Framework degraded a failed SD call to host execution.
pub const EVENT_MCSD_FALLBACK: &str = "mcsd.fallback";
/// Memory-budget admission re-partitioned an over-footprint job.
pub const EVENT_MCSD_REPARTITION: &str = "mcsd.repartition";
/// The SD circuit breaker tripped open.
pub const EVENT_MCSD_BREAKER_OPEN: &str = "mcsd.breaker_open";
/// The SD circuit breaker admitted a half-open probe.
pub const EVENT_MCSD_BREAKER_PROBE: &str = "mcsd.breaker_probe";
/// One replication-group member crashed during an append round.
pub const EVENT_SD_REPLICA_CRASH: &str = "sd.replica_crash";
/// A quorum-append round aborted: too few verified acknowledgements
/// (`acked` and `needed` attrs).
pub const EVENT_SD_QUORUM_LOST: &str = "sd.quorum_lost";
/// The engine promoted the most-advanced acknowledged replica after a
/// primary failure (`node` and `epoch` attrs).
pub const EVENT_MCSD_PROMOTE: &str = "mcsd.promote";
/// A stale primary's append was fenced by the group epoch.
pub const EVENT_MCSD_EPOCH_FENCE: &str = "mcsd.epoch_fence";
/// A correlated failure took down several replicas of one group at once.
pub const EVENT_MCSD_GROUP_CRASH: &str = "mcsd.group_crash";
/// Chaos discovery run counted one scenario segment's injection points
/// (`segment` and `points` attrs).
pub const EVENT_CHAOS_DISCOVER: &str = "chaos.discover";
/// Chaos sweep re-ran a scenario with one fault injected (`site`,
/// `occurrence`, and `action` attrs).
pub const EVENT_CHAOS_INJECT: &str = "chaos.inject";
/// A chaos run violated a safety invariant (`invariant` attr).
pub const EVENT_CHAOS_VIOLATION: &str = "chaos.violation";
/// A job entered the rack-scale discrete-event loop (`job` attr).
pub const EVENT_DES_ARRIVE: &str = "des.arrive";
/// The DES dispatched a queued job onto a free shard slot (`job` and
/// `shard` attrs).
pub const EVENT_DES_DISPATCH: &str = "des.dispatch";
/// A DES job finished on its shard (`job` and `shard` attrs).
pub const EVENT_DES_COMPLETE: &str = "des.complete";
/// The DES shed an arrival because its shard's run queue was full
/// (`job` and `shard` attrs; no `shard` on a rack with no node to name).
pub const EVENT_DES_SHED: &str = "des.shed";
/// The daemon committed a coalesced append batch with one fsync (`size`
/// attr).
pub const EVENT_SD_BATCH_COMMIT: &str = "sd.batch_commit";
/// A torn batch tail was retried — only the frames past the durable
/// prefix were re-appended (`retried` attr).
pub const EVENT_SD_BATCH_RETRY: &str = "sd.batch_retry";
/// The host shrank its pipelined in-flight window after an `Overloaded`
/// reply or breaker-class failure (`depth` attr).
pub const EVENT_HOST_WINDOW_SHRINK: &str = "host.window_shrink";
/// The host refilled its pipelined window after completions freed slots
/// (`depth` attr).
pub const EVENT_HOST_WINDOW_REFILL: &str = "host.window_refill";

/// Every event type the stack may emit.
pub const ALL_EVENTS: [&str; 38] = [
    EVENT_HOST_SUBMIT,
    EVENT_HOST_ATTEMPT,
    EVENT_HOST_RETRY,
    EVENT_HOST_OUTCOME,
    EVENT_SD_REQUEST,
    EVENT_SD_REPLAY,
    EVENT_SD_DISPATCH,
    EVENT_SD_QUEUE,
    EVENT_SD_SHED,
    EVENT_SD_EXPIRED,
    EVENT_SD_QUARANTINE,
    EVENT_SD_QUARANTINE_REJECTED,
    EVENT_SD_UNKNOWN_MODULE,
    EVENT_SD_COMPLETE,
    EVENT_SD_HEARTBEAT,
    EVENT_SD_POLL,
    EVENT_MCSD_OFFLOAD,
    EVENT_MCSD_STEER,
    EVENT_MCSD_FALLBACK,
    EVENT_MCSD_REPARTITION,
    EVENT_MCSD_BREAKER_OPEN,
    EVENT_MCSD_BREAKER_PROBE,
    EVENT_SD_REPLICA_CRASH,
    EVENT_SD_QUORUM_LOST,
    EVENT_MCSD_PROMOTE,
    EVENT_MCSD_EPOCH_FENCE,
    EVENT_MCSD_GROUP_CRASH,
    EVENT_CHAOS_DISCOVER,
    EVENT_CHAOS_INJECT,
    EVENT_CHAOS_VIOLATION,
    EVENT_DES_ARRIVE,
    EVENT_DES_DISPATCH,
    EVENT_DES_COMPLETE,
    EVENT_DES_SHED,
    EVENT_SD_BATCH_COMMIT,
    EVENT_SD_BATCH_RETRY,
    EVENT_HOST_WINDOW_SHRINK,
    EVENT_HOST_WINDOW_REFILL,
];

/// Whether `name` is a catalogued span or event name.
pub fn is_cataloged(name: &str) -> bool {
    ALL_SPANS.contains(&name) || ALL_EVENTS.contains(&name)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Spans and events share the trace-record namespace and must never
    /// collide. (Counter keys live in their own namespace — a counter may
    /// mirror the event it counts, e.g. `sd.shed`.)
    #[test]
    fn catalog_has_no_duplicates() {
        let mut records: Vec<&str> = ALL_SPANS.iter().chain(ALL_EVENTS.iter()).copied().collect();
        let n = records.len();
        records.sort_unstable();
        records.dedup();
        assert_eq!(records.len(), n, "span/event names must be unique");
    }

    #[test]
    fn is_cataloged_covers_spans_and_events() {
        assert!(is_cataloged("phoenix.map"));
        assert!(is_cataloged("sd.shed"));
        assert!(!is_cataloged("made.up"));
    }
}
