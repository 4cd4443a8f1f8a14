//! Rack-scale deterministic discrete-event scheduler (DESIGN.md §17).
//!
//! Every driver so far runs one job at a time against the 5-node
//! testbed. This module is the workload-*rate* path: a seeded stream of
//! thousands of concurrent jobs arrives over a [`RackSpec`]-built rack
//! topology, each placed by the same [`Offloader`] policy the engine
//! front-ends use, then queued on its target node's [`ShardQueue`] and
//! charged analytic transfer + compute time from the cluster models.
//!
//! Determinism contract (§17):
//!
//! * **Event ordering rule** — events fire in ascending
//!   `(time, rank, seq)` order, where completions rank before arrivals
//!   at the same microsecond (a freed slot is visible to a simultaneous
//!   arrival) and `seq` is the push order, itself deterministic.
//! * **Shard ownership** — a shard is one node's run queue (SD or
//!   host), driven serially by the single event loop; no state is
//!   shared across shards, so no lock order can perturb the schedule.
//! * **Seeded workload** — the job stream is a pure function of
//!   [`DesConfig`] via SplitMix64; same config ⇒ byte-identical trace
//!   and equal [`RackReport`].

use crate::engine::ShardQueue;
use crate::offload::{JobProfile, OffloadDecision, OffloadPolicy, Offloader};
use crate::report::{DesStats, RackReport};
use mcsd_cluster::{NodeId, RackSpec, RackTopology, Scale};
use mcsd_obs::names::{EVENT_DES_ARRIVE, EVENT_DES_COMPLETE, EVENT_DES_DISPATCH, EVENT_DES_SHED};
use mcsd_obs::{ClockDomain, Tracer};
use mcsd_smartfam::faults::SplitMix64;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Track the discrete-event loop stamps its arrival/dispatch/complete/
/// shed events on (cluster clock domain: virtual microseconds).
pub const DES_TRACE_TRACK: &str = "des";

/// Calibration constant: flop-equivalents one core at speed 1.0 retires
/// per virtual microsecond. Chosen so a scaled word-count span costs
/// milliseconds, matching the per-fragment costs of the testbed drivers.
const FLOP_EQ_PER_US: f64 = 1_000.0;

/// Configuration of one rack-scale DES run — the complete input; two
/// runs with equal configs produce equal traces and reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesConfig {
    /// Rack shape to build.
    pub spec: RackSpec,
    /// Byte-scale divisor applied to paper-size inputs.
    pub scale: Scale,
    /// Jobs to synthesize.
    pub jobs: u64,
    /// Workload seed.
    pub seed: u64,
    /// Placement policy (the multi-SD default is [`OffloadPolicy::Balanced`]).
    pub policy: OffloadPolicy,
    /// Waiting jobs a shard accepts behind its busy slots before
    /// shedding.
    pub queue_depth: usize,
    /// Arrivals are spread uniformly over this many virtual
    /// microseconds.
    pub arrival_spread_us: u64,
}

impl DesConfig {
    /// The default rack experiment: the 104-node
    /// [`RackSpec::default_experiment`] topology at experiment scale,
    /// balanced placement, `jobs` arrivals over one virtual second.
    pub fn default_experiment(jobs: u64, seed: u64) -> DesConfig {
        DesConfig {
            spec: RackSpec::default_experiment(),
            scale: Scale::default_experiment(),
            jobs,
            seed,
            policy: OffloadPolicy::Balanced,
            queue_depth: 64,
            arrival_spread_us: 1_000_000,
        }
    }
}

/// One synthesized job: its profile plus where it arrives from and
/// where its data lives.
#[derive(Debug, Clone, PartialEq)]
pub struct DesJob {
    /// Job id (index into the workload, also the trace `job` attr).
    pub id: u64,
    /// Virtual arrival time in microseconds.
    pub arrival_us: u64,
    /// The profile the placement policy decides about.
    pub profile: JobProfile,
    /// Host node the request originates on (and runs on, for host
    /// placements).
    pub source: NodeId,
    /// Index into the topology's SD list of the node holding the job's
    /// input data.
    pub data_sd: usize,
}

/// The result of one DES run: the report plus the placement decision
/// sequence (job id, decision) in the order the policy made them — the
/// parity tests replay this against a bare [`Offloader`].
#[derive(Debug, Clone, PartialEq)]
pub struct RackRun {
    /// Topology, makespan, and counters.
    pub report: RackReport,
    /// Placement decisions in decision order.
    pub placements: Vec<(u64, OffloadDecision)>,
}

/// Synthesize the job stream for `cfg` — a pure function of the config,
/// shared by [`run`] and the parity tests. Jobs draw from the paper's
/// three applications (word count, string match, matrix multiply) with
/// paper-size inputs of 64–512 MB put through `cfg.scale`.
pub fn synthesize_workload(cfg: &DesConfig, topo: &RackTopology) -> Vec<DesJob> {
    let hosts = topo.host_ids();
    let sds = topo.sd_ids();
    let mut rng = SplitMix64::new(cfg.seed);
    (0..cfg.jobs)
        .map(|id| {
            let r = rng.next_u64();
            let (name, compute_per_byte) = match r % 3 {
                0 => ("wordcount", 10.0),
                1 => ("stringmatch", 20.0),
                _ => ("matmul", 5_000.0),
            };
            let paper_bytes = (64 + (r >> 2) % 449) * 1024 * 1024;
            DesJob {
                id,
                arrival_us: if cfg.arrival_spread_us == 0 {
                    0
                } else {
                    (r >> 16) % cfg.arrival_spread_us
                },
                profile: JobProfile {
                    name: name.into(),
                    input_bytes: cfg.scale.bytes(paper_bytes),
                    compute_per_byte,
                    data_on_sd: !(r >> 8).is_multiple_of(8),
                },
                source: hosts[(r >> 24) as usize % hosts.len()],
                data_sd: (r >> 40) as usize % sds.len(),
            }
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    /// Rank 0: a job finished on `shard` (a node id); its slot frees
    /// before any same-instant arrival is placed.
    Completion { shard: u32 },
    /// Rank 1: a job enters the system and is placed.
    Arrival,
}

/// Heap entry. Derived `Ord` realizes the §17 ordering rule through
/// field order: time, then kind rank (`Completion < Arrival`), then
/// push sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    at_us: u64,
    kind: EventKind,
    seq: u64,
    job: u64,
}

struct Loop<'a> {
    topo: &'a RackTopology,
    jobs: &'a [DesJob],
    sd_ids: Vec<NodeId>,
    shards: Vec<ShardQueue>,
    /// Virtual time each rack's ToR uplink is occupied until — cross-
    /// rack transfers out of one rack serialize on its uplink.
    uplink_busy_until: Vec<u64>,
    heap: BinaryHeap<Reverse<Event>>,
    seq: u64,
    stats: DesStats,
    tracer: &'a Tracer,
    track: mcsd_obs::TrackId,
}

impl Loop<'_> {
    fn push(&mut self, at_us: u64, kind: EventKind, job: u64) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Event {
            at_us,
            kind,
            seq,
            job,
        }));
    }

    /// Start every waiting job a free slot can take on `shard`, pushing
    /// its completion event.
    fn drain_shard(&mut self, shard: u32, now_us: u64) {
        let jobs = self.jobs;
        while let Some(id) = self.shards[shard as usize].try_start() {
            let done_us = now_us + self.service_us(&jobs[id as usize], shard, now_us);
            self.stats.busy_us += done_us - now_us;
            self.tracer.event(
                self.track,
                EVENT_DES_DISPATCH,
                &[
                    ("job", &id.to_string()),
                    ("shard", &self.topo.cluster.nodes[shard as usize].name),
                ],
            );
            self.push(done_us, EventKind::Completion { shard }, id);
        }
    }

    /// Virtual service time of `job` on `shard`: move the input from
    /// its data-home SD (free if it already sits there; serialized on
    /// the source rack's uplink if the move crosses racks), then
    /// compute at the node's core speed.
    fn service_us(&mut self, job: &DesJob, shard: u32, now_us: u64) -> u64 {
        let topo = self.topo;
        let node = &topo.cluster.nodes[shard as usize];
        let data_node = self.sd_ids[job.data_sd];
        let transfer_done = if data_node.0 == shard {
            now_us
        } else {
            let same_rack = topo.same_rack(data_node, NodeId(shard));
            let move_us = topo
                .network
                .transfer_time(same_rack, job.profile.input_bytes)
                .as_micros() as u64;
            if same_rack {
                now_us + move_us
            } else {
                let rack = topo.rack_of(data_node) as usize;
                let start = now_us.max(self.uplink_busy_until[rack]);
                self.uplink_busy_until[rack] = start + move_us;
                self.stats.cross_rack_transfers += 1;
                self.stats.cross_rack_bytes += job.profile.input_bytes;
                start + move_us
            }
        };
        let flops = job.profile.input_bytes as f64 * job.profile.compute_per_byte;
        let compute_us = (flops / (FLOP_EQ_PER_US * node.core_speed)).ceil() as u64;
        (transfer_done - now_us) + compute_us.max(1)
    }
}

/// Run the discrete-event loop for `cfg`, stamping arrival/dispatch/
/// completion/shed events on the [`DES_TRACE_TRACK`] track of `tracer`.
/// The loop runs to quiescence, so the returned report satisfies
/// [`DesStats::is_conserved`].
pub fn run(cfg: &DesConfig, tracer: &Tracer) -> RackRun {
    let topo = cfg.spec.build(cfg.scale);
    let jobs = synthesize_workload(cfg, &topo);
    let mut offloader = Offloader::for_nodes(cfg.policy, &topo.cluster.nodes);
    let sd_ids = topo.sd_ids();
    let track = tracer.track(DES_TRACE_TRACK, ClockDomain::Cluster);
    let mut lp = Loop {
        topo: &topo,
        jobs: &jobs,
        sd_ids: sd_ids.clone(),
        shards: topo
            .cluster
            .nodes
            .iter()
            .map(|n| ShardQueue::new(n.cores as u32, cfg.queue_depth))
            .collect(),
        uplink_busy_until: vec![0; cfg.spec.racks as usize],
        heap: BinaryHeap::new(),
        seq: 0,
        stats: DesStats::default(),
        tracer,
        track,
    };
    let mut placements = Vec::with_capacity(jobs.len());
    // Seed arrivals in job order; the heap re-sorts by (time, rank, seq).
    for job in &jobs {
        lp.push(job.arrival_us, EventKind::Arrival, job.id);
    }
    let mut makespan_us = 0;
    while let Some(Reverse(ev)) = lp.heap.pop() {
        makespan_us = ev.at_us;
        match ev.kind {
            EventKind::Arrival => {
                let job = &jobs[ev.job as usize];
                lp.stats.arrivals += 1;
                tracer.event(track, EVENT_DES_ARRIVE, &[("job", &ev.job.to_string())]);
                let decision = offloader.decide(&job.profile);
                placements.push((ev.job, decision));
                let shard = match decision {
                    OffloadDecision::SmartStorage { sd_index } => sd_ids[sd_index % sd_ids.len()].0,
                    _ => job.source.0,
                };
                if lp.shards[shard as usize].try_enqueue(ev.job) {
                    lp.drain_shard(shard, ev.at_us);
                } else {
                    lp.stats.shed_jobs += 1;
                    tracer.event(
                        track,
                        EVENT_DES_SHED,
                        &[
                            ("job", &ev.job.to_string()),
                            ("shard", &topo.cluster.nodes[shard as usize].name),
                        ],
                    );
                }
            }
            EventKind::Completion { shard } => {
                lp.stats.completed_jobs += 1;
                tracer.event(
                    track,
                    EVENT_DES_COMPLETE,
                    &[
                        ("job", &ev.job.to_string()),
                        ("shard", &topo.cluster.nodes[shard as usize].name),
                    ],
                );
                lp.shards[shard as usize].finish();
                lp.drain_shard(shard, ev.at_us);
            }
        }
    }
    RackRun {
        report: RackReport {
            racks: cfg.spec.racks,
            nodes: cfg.spec.total_nodes(),
            sds: cfg.spec.total_sds(),
            seed: cfg.seed,
            makespan_us,
            stats: lp.stats,
        },
        placements,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_order_puts_completions_before_same_instant_arrivals() {
        let completion = Event {
            at_us: 10,
            kind: EventKind::Completion { shard: 9 },
            seq: 5,
            job: 1,
        };
        let arrival = Event {
            at_us: 10,
            kind: EventKind::Arrival,
            seq: 0,
            job: 0,
        };
        assert!(completion < arrival, "rank outranks push order");
        let earlier = Event {
            at_us: 9,
            ..arrival
        };
        assert!(earlier < completion, "time outranks rank");
    }

    #[test]
    fn workload_is_a_pure_function_of_config() {
        let cfg = DesConfig::default_experiment(100, 7);
        let topo = cfg.spec.build(cfg.scale);
        assert_eq!(
            synthesize_workload(&cfg, &topo),
            synthesize_workload(&cfg, &topo)
        );
        let other = DesConfig { seed: 8, ..cfg };
        assert_ne!(
            synthesize_workload(&cfg, &topo),
            synthesize_workload(&other, &topo)
        );
    }

    #[test]
    fn small_run_conserves_and_finishes() {
        let cfg = DesConfig {
            jobs: 50,
            ..DesConfig::default_experiment(50, 1)
        };
        let run = run(&cfg, &Tracer::disabled());
        assert!(run.report.stats.is_conserved());
        assert_eq!(run.report.stats.arrivals, 50);
        assert_eq!(run.placements.len(), 50);
        assert!(run.report.makespan_us > 0);
        assert!(run.report.stats.busy_us > 0);
    }

    #[test]
    fn zero_arrival_spread_floods_time_zero() {
        let cfg = DesConfig {
            arrival_spread_us: 0,
            ..DesConfig::default_experiment(10, 3)
        };
        let topo = cfg.spec.build(cfg.scale);
        assert!(synthesize_workload(&cfg, &topo)
            .iter()
            .all(|j| j.arrival_us == 0));
        assert!(run(&cfg, &Tracer::disabled()).report.stats.is_conserved());
    }

    #[test]
    fn oversubscription_makes_cross_rack_traffic_slower() {
        // Same workload, tighter uplink: the makespan cannot shrink.
        let loose = DesConfig::default_experiment(200, 11);
        let tight = DesConfig {
            spec: RackSpec {
                uplink_oversubscription: 64,
                ..loose.spec
            },
            ..loose
        };
        let a = run(&loose, &Tracer::disabled());
        let b = run(&tight, &Tracer::disabled());
        assert!(a.report.stats.cross_rack_transfers > 0);
        assert!(b.report.makespan_us >= a.report.makespan_us);
    }
}
