//! Rack-scale deterministic discrete-event scheduler (DESIGN.md §17).
//!
//! Every driver so far runs one job at a time against the 5-node
//! testbed. This module is the workload-*rate* path: a seeded stream of
//! thousands of concurrent jobs arrives over a [`RackSpec`]-built rack
//! topology, each placed by the same [`Offloader`] policy the engine
//! front-ends use, then queued on its target node's shard (one run's
//! `ShardQueues`) and charged analytic transfer + compute time from the
//! cluster models.
//!
//! Determinism contract (§17):
//!
//! * **Event ordering rule** — events fire in ascending
//!   `(time, rank, shard, seq)` order: completions rank before arrivals
//!   at the same microsecond (a freed slot is visible to a simultaneous
//!   arrival), same-instant completions fire in node-id order, and
//!   `seq` — an arrival's job id, a completion's dispatch number
//!   counted on from `jobs.len()` — breaks what is left.
//! * **Two sources, one order** — arrivals are known before the loop
//!   starts, so they never enter the heap: the loop merges the jobs,
//!   stably sorted by arrival time (ties stay in job-id = `seq` order),
//!   with a [`BinaryHeap`] that holds only running jobs' completions,
//!   and a completion wins a same-microsecond tie. That is the order one
//!   heap over every event would pop, with the heap never larger than
//!   the rack's execution-slot count.
//! * **Shard ownership** — a shard is one node's run queue (SD or
//!   host), driven serially by the single event loop; no state is
//!   shared across shards, so no lock order can perturb the schedule.
//! * **Seeded workload** — the job stream is a pure function of
//!   [`DesConfig`] via SplitMix64; same config ⇒ byte-identical trace
//!   and equal [`RackReport`].
//!
//! Degenerate racks have defined results: with no SD nodes every job
//! has `data_on_sd = false` and runs where it originates, its data
//! already there; with no host nodes jobs originate on SD nodes; with no
//! nodes at all every arrival is shed.

use crate::offload::{JobProfile, OffloadDecision, OffloadPolicy, Offloader};
use crate::report::{DesStats, RackReport};
use mcsd_cluster::{NodeId, RackSpec, RackTopology, Scale};
use mcsd_obs::names::{EVENT_DES_ARRIVE, EVENT_DES_COMPLETE, EVENT_DES_DISPATCH, EVENT_DES_SHED};
use mcsd_obs::{ClockDomain, Tracer};
use mcsd_smartfam::faults::SplitMix64;
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

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
    /// Node the request originates on (and runs on, for host
    /// placements): a host, or an SD node on a rack without hosts. On a
    /// rack without nodes it names nothing and the job is shed.
    pub source: NodeId,
    /// Index into the topology's SD list of the node holding the job's
    /// input data; on a rack without SD nodes the data sits on `source`.
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
/// paper-size inputs of 64–512 MB put through `cfg.scale`. What a rack
/// without hosts, SD nodes or either yields is in the module docs.
pub fn synthesize_workload(cfg: &DesConfig, topo: &RackTopology) -> Vec<DesJob> {
    synthesize(cfg, &topo.host_ids(), &topo.sd_ids())
}

fn synthesize(cfg: &DesConfig, hosts: &[NodeId], sds: &[NodeId]) -> Vec<DesJob> {
    // Jobs originate on hosts; a rack without any originates them on its
    // SD nodes, and a rack without nodes names a node that is not there.
    let origins = if hosts.is_empty() { sds } else { hosts };
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
                    name,
                    input_bytes: cfg.scale.bytes(paper_bytes),
                    compute_per_byte,
                    data_on_sd: !sds.is_empty() && !(r >> 8).is_multiple_of(8),
                },
                source: match origins {
                    [] => NodeId(0),
                    _ => origins[(r >> 24) as usize % origins.len()],
                },
                data_sd: (r >> 40) as usize % sds.len().max(1),
            }
        })
        .collect()
}

/// A running job's completion — the only event the heap holds. Derived
/// `Ord` is the §17 rule among completions through field order: time,
/// then shard (node id), then dispatch sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Completion {
    at_us: u64,
    shard: u32,
    seq: u64,
    job: u64,
}

/// Every shard's run queue for one run (DESIGN.md §17): per node (SD or
/// host), a fixed number of execution slots plus a bounded FIFO backlog.
/// The backlogs thread through one link per job id, which is sound
/// because a run enqueues each job at most once; so the queues cost two
/// allocations whatever the load, depth or rack shape, and the depth
/// bounds a count, never a buffer. The event loop drives every shard
/// serially, so nothing here locks — determinism comes from the event
/// order, not from synchronization.
#[derive(Debug)]
struct ShardQueues {
    shards: Vec<Shard>,
    /// `next[id]`: the job waiting behind job `id` on its shard.
    next: Vec<u64>,
    /// Waiting jobs a shard accepts behind its busy slots.
    depth: usize,
}

/// One shard's slots and the ends of its backlog in [`ShardQueues::next`].
#[derive(Debug)]
struct Shard {
    slots: u32,
    busy: u32,
    len: usize,
    head: u64,
    tail: u64,
}

impl ShardQueues {
    /// One shard per entry of `slots`, each with room for `depth` waiting
    /// jobs (both clamped to at least 1), for job ids below `jobs`.
    fn new(slots: impl Iterator<Item = u32>, depth: usize, jobs: usize) -> ShardQueues {
        ShardQueues {
            shards: slots
                .map(|slots| Shard {
                    slots: slots.max(1),
                    busy: 0,
                    len: 0,
                    head: 0,
                    tail: 0,
                })
                .collect(),
            next: vec![0; jobs],
            depth: depth.max(1),
        }
    }

    /// Accept job `id` into `shard`'s backlog, or refuse it (shed) when
    /// the backlog is at the depth or there is no such shard.
    fn try_enqueue(&mut self, shard: u32, id: u64) -> bool {
        let Some(q) = self.shards.get_mut(shard as usize) else {
            return false;
        };
        if q.len >= self.depth {
            return false;
        }
        if q.len == 0 {
            q.head = id;
        } else {
            self.next[q.tail as usize] = id;
        }
        q.tail = id;
        q.len += 1;
        true
    }

    /// Pop `shard`'s oldest waiting job into a free slot; `None` when
    /// every slot is busy or nothing is waiting.
    fn try_start(&mut self, shard: u32) -> Option<u64> {
        let q = &mut self.shards[shard as usize];
        if q.busy >= q.slots || q.len == 0 {
            return None;
        }
        let id = q.head;
        q.len -= 1;
        // Only a job queued behind `id` wrote its link; an emptied
        // backlog leaves that cache line untouched.
        if q.len > 0 {
            q.head = self.next[id as usize];
        }
        q.busy += 1;
        Some(id)
    }

    /// Release the slot a finished job held on `shard`.
    fn finish(&mut self, shard: u32) {
        let q = &mut self.shards[shard as usize];
        q.busy = q.busy.saturating_sub(1);
    }
}

struct Loop<'a> {
    topo: &'a RackTopology,
    jobs: &'a [DesJob],
    sd_ids: &'a [NodeId],
    shards: ShardQueues,
    /// Virtual time each rack's ToR uplink is occupied until — cross-
    /// rack transfers out of one rack serialize on its uplink.
    uplink_busy_until: Vec<u64>,
    running: BinaryHeap<Reverse<Completion>>,
    seq: u64,
    stats: DesStats,
    tracer: &'a Tracer,
    track: mcsd_obs::TrackId,
}

impl Loop<'_> {
    /// Pop the earliest completion if it fires at or before `by_us`.
    fn completion_due(&mut self, by_us: u64) -> Option<Completion> {
        let next = self.running.peek_mut()?;
        (next.0.at_us <= by_us).then(|| PeekMut::pop(next).0)
    }

    /// Start every waiting job a free slot can take on `shard`, pushing
    /// its completion event.
    fn drain_shard(&mut self, shard: u32, now_us: u64) {
        let jobs = self.jobs;
        while let Some(id) = self.shards.try_start(shard) {
            let done_us = now_us + self.service_us(&jobs[id as usize], shard, now_us);
            self.stats.busy_us += done_us - now_us;
            self.tracer.event_with(self.track, EVENT_DES_DISPATCH, |a| {
                a.u64("job", id);
                a.display("shard", self.topo.cluster.nodes[shard as usize].name);
            });
            self.running.push(Reverse(Completion {
                at_us: done_us,
                shard,
                seq: self.seq,
                job: id,
            }));
            self.seq += 1;
        }
    }

    /// Virtual service time of `job` on `shard`: move the input from
    /// its data-home SD (free if it already sits there; serialized on
    /// the source rack's uplink if the move crosses racks), then
    /// compute at the node's core speed.
    fn service_us(&mut self, job: &DesJob, shard: u32, now_us: u64) -> u64 {
        let topo = self.topo;
        let node = &topo.cluster.nodes[shard as usize];
        let data_node = self.sd_ids.get(job.data_sd).copied().unwrap_or(job.source);
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
    let sd_ids = topo.sd_ids();
    let jobs = synthesize(cfg, &topo.host_ids(), &sd_ids);
    simulate(cfg, &topo, &sd_ids, &jobs, tracer)
}

/// The event loop over an already-built rack and job stream (`jobs[i].id
/// == i`).
fn simulate(
    cfg: &DesConfig,
    topo: &RackTopology,
    sd_ids: &[NodeId],
    jobs: &[DesJob],
    tracer: &Tracer,
) -> RackRun {
    let nodes = &topo.cluster.nodes;
    let mut offloader = Offloader::for_nodes(cfg.policy, nodes);
    let track = tracer.track(DES_TRACE_TRACK, ClockDomain::Cluster);
    let mut lp = Loop {
        topo,
        jobs,
        sd_ids,
        shards: ShardQueues::new(
            nodes.iter().map(|n| n.cores as u32),
            cfg.queue_depth,
            jobs.len(),
        ),
        uplink_busy_until: vec![0; cfg.spec.racks as usize],
        // One pending completion per busy execution slot, never more.
        running: BinaryHeap::with_capacity(nodes.iter().map(|n| n.cores).sum()),
        seq: jobs.len() as u64,
        stats: DesStats::default(),
        tracer,
        track,
    };
    let mut placements = Vec::with_capacity(jobs.len());
    // The arrival source: jobs in (arrival time, job id) order — the
    // sort is stable and `jobs` is in id order.
    let mut by_arrival: Vec<&DesJob> = jobs.iter().collect();
    by_arrival.sort_by_key(|job| job.arrival_us);
    let mut arrivals = by_arrival.into_iter().peekable();
    let mut makespan_us = 0;
    loop {
        // A completion wins a same-microsecond tie against an arrival.
        let next_arrival_us = arrivals.peek().map_or(u64::MAX, |job| job.arrival_us);
        if let Some(done) = lp.completion_due(next_arrival_us) {
            makespan_us = done.at_us;
            lp.stats.completed_jobs += 1;
            tracer.event_with(track, EVENT_DES_COMPLETE, |a| {
                a.u64("job", done.job);
                a.display("shard", nodes[done.shard as usize].name);
            });
            lp.shards.finish(done.shard);
            lp.drain_shard(done.shard, done.at_us);
            continue;
        }
        let Some(job) = arrivals.next() else {
            break;
        };
        makespan_us = job.arrival_us;
        lp.stats.arrivals += 1;
        tracer.event_with(track, EVENT_DES_ARRIVE, |a| a.u64("job", job.id));
        let decision = offloader.decide(&job.profile);
        placements.push((job.id, decision));
        let shard = match decision {
            OffloadDecision::SmartStorage { sd_index } => sd_ids[sd_index % sd_ids.len()].0,
            _ => job.source.0,
        };
        // A rack without nodes has no shard to take the job.
        if lp.shards.try_enqueue(shard, job.id) {
            lp.drain_shard(shard, job.arrival_us);
        } else {
            lp.stats.shed_jobs += 1;
            tracer.event_with(track, EVENT_DES_SHED, |a| {
                a.u64("job", job.id);
                if let Some(node) = nodes.get(shard as usize) {
                    a.display("shard", node.name);
                }
            });
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

    /// The paper pair (host = node 0 with four slots, SD = node 1) with
    /// room for one waiting job per shard.
    fn pair(policy: OffloadPolicy) -> (DesConfig, RackTopology) {
        let cfg = DesConfig {
            spec: RackSpec {
                racks: 1,
                hosts_per_rack: 1,
                sds_per_rack: 1,
                uplink_oversubscription: 4,
            },
            policy,
            queue_depth: 1,
            ..DesConfig::default_experiment(0, 0)
        };
        (cfg, cfg.spec.build(cfg.scale))
    }

    fn job(id: u64, arrival_us: u64, input_bytes: u64, data_on_sd: bool) -> DesJob {
        DesJob {
            id,
            arrival_us,
            profile: JobProfile {
                name: "wordcount",
                input_bytes,
                compute_per_byte: 10.0,
                data_on_sd,
            },
            source: NodeId(0),
            data_sd: 0,
        }
    }

    fn simulate_pair(cfg: &DesConfig, topo: &RackTopology, jobs: &[DesJob]) -> (RackRun, String) {
        let tracer = Tracer::enabled();
        let run = simulate(cfg, topo, &topo.sd_ids(), jobs, &tracer);
        (run, mcsd_obs::export::jsonl(&tracer))
    }

    #[test]
    fn a_completion_fires_before_a_same_microsecond_arrival() {
        let (cfg, topo) = pair(OffloadPolicy::AlwaysHost);
        let service_us = simulate_pair(&cfg, &topo, &[job(0, 0, 4096, true)])
            .0
            .report
            .makespan_us;
        // Five jobs at time zero fill the host's four slots and its one
        // backlog place; the four running ones all complete at
        // `service_us`.
        let flood = |last_arrival_us| {
            let mut jobs: Vec<DesJob> = (0..5).map(|id| job(id, 0, 4096, true)).collect();
            jobs.push(job(5, last_arrival_us, 4096, true));
            simulate_pair(&cfg, &topo, &jobs).0.report.stats
        };
        // Arriving with the completions, job 5 finds the backlog already
        // drained into a freed slot ...
        let tied = flood(service_us);
        assert_eq!((tied.completed_jobs, tied.shed_jobs), (6, 0));
        // ... one microsecond earlier it is still full.
        let early = flood(service_us - 1);
        assert_eq!((early.completed_jobs, early.shed_jobs), (5, 1));
    }

    #[test]
    fn same_microsecond_completions_fire_in_shard_order() {
        let (cfg, topo) = pair(OffloadPolicy::DataIntensiveToSd);
        let on_sd = job(0, 0, 1 << 20, true);
        let on_host = |id, arrival_us| job(id, arrival_us, 4096, false);
        let alone = |job| simulate_pair(&cfg, &topo, &[job]).0.report.makespan_us;
        let (sd_us, host_us) = (alone(on_sd.clone()), alone(on_host(0, 0)));
        assert!(sd_us > host_us);
        // Dispatched first on the SD (node 1), second on the host (node
        // 0), both done at `sd_us`: the lower node id completes first.
        let (run, trace) = simulate_pair(&cfg, &topo, &[on_sd, on_host(1, sd_us - host_us)]);
        assert_eq!(run.report.makespan_us, sd_us);
        let completed: Vec<&str> = trace
            .lines()
            .filter(|line| line.contains(EVENT_DES_COMPLETE))
            .collect();
        assert_eq!(completed.len(), 2);
        assert!(
            completed[0].contains("\"job\":\"1\",\"shard\":\"r0h0\""),
            "{trace}"
        );
        assert!(
            completed[1].contains("\"job\":\"0\",\"shard\":\"r0sd0\""),
            "{trace}"
        );
    }

    /// `(running, queued)` on `shard`.
    fn load(q: &ShardQueues, shard: usize) -> (u32, usize) {
        (q.shards[shard].busy, q.shards[shard].len)
    }

    #[test]
    fn shard_queue_bounds_backlog_and_slots() {
        let mut q = ShardQueues::new([2, 1].into_iter(), 3, 8);
        assert_eq!(load(&q, 0), (0, 0));
        // Backlog accepts up to `depth` jobs, then sheds.
        assert!(q.try_enqueue(0, 1));
        assert!(q.try_enqueue(0, 2));
        assert!(q.try_enqueue(0, 3));
        assert!(!q.try_enqueue(0, 4), "fourth arrival must be refused");
        assert_eq!(load(&q, 0), (0, 3));
        // The other shard's backlog threads through the same links.
        assert!(q.try_enqueue(1, 5));
        // Starts drain FIFO into the two slots.
        assert_eq!(q.try_start(0), Some(1));
        assert_eq!(q.try_start(0), Some(2));
        assert_eq!(q.try_start(0), None, "both slots busy");
        assert_eq!(load(&q, 0), (2, 1));
        // Finishing frees a slot; the backlog has room again.
        q.finish(0);
        assert!(q.try_enqueue(0, 4));
        assert_eq!(q.try_start(0), Some(3));
        q.finish(0);
        q.finish(0);
        assert_eq!(q.try_start(0), Some(4));
        q.finish(0);
        assert_eq!(load(&q, 0), (0, 0));
        assert_eq!(q.try_start(1), Some(5));
        assert_eq!(load(&q, 1), (1, 0));
    }

    #[test]
    fn shard_queue_clamps_degenerate_parameters() {
        let mut q = ShardQueues::new([0].into_iter(), 0, 8);
        assert!(q.try_enqueue(0, 7), "depth clamps to 1");
        assert!(!q.try_enqueue(1, 6), "there is no shard 1");
        assert_eq!(q.try_start(0), Some(7), "slots clamp to 1");
        // finish() below zero saturates rather than underflowing.
        q.finish(0);
        q.finish(0);
        assert_eq!(load(&q, 0), (0, 0));
    }

    #[test]
    fn an_unbounded_depth_sizes_nothing() {
        // The depth bounds a count: `usize::MAX` must neither overflow
        // nor reserve a backlog buffer.
        let mut q = ShardQueues::new([1, 1].into_iter(), usize::MAX, 4);
        for id in 0..4 {
            assert!(q.try_enqueue(id as u32 % 2, id));
        }
        assert_eq!((q.try_start(0), q.try_start(1)), (Some(0), Some(1)));
        assert_eq!((load(&q, 0), load(&q, 1)), ((1, 1), (1, 1)));
    }

    fn degenerate(racks: u32, hosts_per_rack: u32, sds_per_rack: u32) -> (DesConfig, RackRun) {
        let cfg = DesConfig {
            spec: RackSpec {
                racks,
                hosts_per_rack,
                sds_per_rack,
                uplink_oversubscription: 4,
            },
            ..DesConfig::default_experiment(200, 9)
        };
        let run = run(&cfg, &Tracer::enabled());
        assert_eq!(run.report.stats.arrivals, cfg.jobs);
        assert!(run.report.stats.is_conserved());
        (cfg, run)
    }

    #[test]
    fn a_rack_without_sds_runs_every_job_on_its_source_host() {
        let (cfg, run) = degenerate(2, 2, 0);
        let jobs = synthesize_workload(&cfg, &cfg.spec.build(cfg.scale));
        assert!(jobs.iter().all(|j| !j.profile.data_on_sd && j.source.0 < 4));
        assert!(run
            .placements
            .iter()
            .all(|(_, decision)| *decision == OffloadDecision::Host));
        assert_eq!(run.report.stats.completed_jobs, cfg.jobs);
        // The data already sits where the job runs.
        assert_eq!(run.report.stats.cross_rack_transfers, 0);
    }

    #[test]
    fn a_rack_without_hosts_originates_jobs_on_sd_nodes() {
        let (cfg, run) = degenerate(2, 0, 3);
        let topo = cfg.spec.build(cfg.scale);
        let sds = topo.sd_ids();
        assert!(synthesize_workload(&cfg, &topo)
            .iter()
            .all(|j| sds.contains(&j.source)));
        assert_eq!(run.report.stats.completed_jobs, cfg.jobs);
    }

    #[test]
    fn a_rack_without_nodes_sheds_every_arrival() {
        for (racks, hosts_per_rack, sds_per_rack) in [(0, 4, 9), (3, 0, 0)] {
            let (cfg, run) = degenerate(racks, hosts_per_rack, sds_per_rack);
            assert_eq!(run.report.stats.shed_jobs, cfg.jobs);
            assert_eq!(run.report.nodes, 0);
        }
    }

    #[test]
    fn zero_jobs_is_an_empty_run() {
        let run = run(&DesConfig::default_experiment(0, 1), &Tracer::disabled());
        assert_eq!(run.report.stats, DesStats::default());
        assert_eq!(run.report.makespan_us, 0);
        assert!(run.placements.is_empty());
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
