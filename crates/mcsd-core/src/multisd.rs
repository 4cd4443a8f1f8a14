//! Multi-SD parallelism (paper §VI: "the parallelisms among multiple McSD
//! smart disks").
//!
//! A data-intensive job whose input is spread across several smart-storage
//! nodes runs on all of them concurrently: the input is partitioned on
//! legal record boundaries into one span per SD node, each node runs its
//! span through its own Phoenix runtime (with the in-node Partition/Merge
//! extension for spans that exceed node memory), and the host folds the
//! per-node outputs with the job's Merge function. The pair's elapsed time
//! is the *slowest node* plus the merge — which is what makes the scale-out
//! interesting: heterogeneous SD nodes (different core counts or speeds)
//! bound the speedup.
//!
//! Placement, breaker gating and the re-dispatch chain are owned by the
//! unified scheduler ([`crate::engine`]); this front-end contributes the
//! span planning, the per-node execution and timeline accounting, and the
//! merge.
//!
//! Scope: this runner parallelizes *one job* across the SDs of the
//! 5-node testbed. The inverse shape — thousands of concurrent jobs
//! across racks of nodes, each job on one shard — is [`crate::des`]
//! (DESIGN.md §17), which reuses the same [`Offloader`] placement.

use crate::driver::{ExecMode, NodeRunner};
use crate::engine::{Engine, EngineConfig};
use crate::error::McsdError;
use crate::offload::{OffloadPolicy, Offloader};
use crate::replication::{ReplicationGroups, ReplicationSetup, RoundOutcome};
use crate::report::{ReplicationStats, RunReport};
use crate::BreakerConfig;
use mcsd_cluster::{Cluster, NodeRole, TimeBreakdown};
use mcsd_obs::Tracer;
use mcsd_phoenix::partition::Merger;
use mcsd_phoenix::Stopwatch;
use mcsd_phoenix::{InterKey, Job, Splitter};
use mcsd_smartfam::{FaultInjector, FaultSite, Frame, ResilienceStats};
use std::time::Duration;

pub use crate::engine::SpanOutcome;

/// Result of a scale-out run.
#[derive(Debug, Clone)]
pub struct MultiSdReport<K, V> {
    /// Final merged output pairs (ordered per the job's output order).
    pub pairs: Vec<(K, V)>,
    /// Per-span run reports, in span order (the node that finally ran the
    /// span is named in the report and in `outcomes`).
    pub per_node: Vec<RunReport>,
    /// Per-span recovery outcome, parallel to `per_node`.
    pub outcomes: Vec<SpanOutcome>,
    /// Aggregated recovery counters for the whole scale-out run.
    pub resilience: ResilienceStats,
    /// Replicated-log counters (all zero on a non-replicated run; a
    /// clean replicated run still counts quorum appends and acks).
    pub replication: ReplicationStats,
    /// Virtual elapsed time: busiest node timeline + host-side merge.
    /// Re-dispatched spans charge both the failed runs and the re-run, so
    /// recovery is never free.
    pub elapsed: Duration,
    /// Host-side merge cost.
    pub merge: TimeBreakdown,
}

impl<K, V> MultiSdReport<K, V> {
    /// Number of spans (= participating SD nodes on a clean run).
    pub fn nodes(&self) -> usize {
        self.per_node.len()
    }
}

/// Scale-out runner over every smart-storage node of a cluster.
pub struct MultiSdRunner {
    cluster: Cluster,
    /// The unified scheduler: one breaker slot per SD node, persistent
    /// across runs so a node that failed in one run stays avoided in the
    /// next until it proves itself.
    engine: Engine,
}

impl MultiSdRunner {
    /// A runner over `cluster`'s SD nodes. Fails fast if there are none.
    pub fn new(cluster: Cluster) -> Result<MultiSdRunner, McsdError> {
        MultiSdRunner::with_breaker_config(cluster, BreakerConfig::default())
    }

    /// Like [`MultiSdRunner::new`] with explicit breaker tuning.
    pub fn with_breaker_config(
        cluster: Cluster,
        breaker: BreakerConfig,
    ) -> Result<MultiSdRunner, McsdError> {
        let sd_count = cluster
            .nodes
            .iter()
            .filter(|n| n.role == NodeRole::SmartStorage)
            .count();
        if sd_count == 0 {
            return Err(McsdError::BadScenario {
                detail: "cluster has no smart-storage nodes".into(),
            });
        }
        // Placement here is positional (span i → SD node i), so the
        // offloader is a formality; the engine contributes the breaker
        // gates and the re-dispatch chain.
        let engine = Engine::new(
            Offloader::new(OffloadPolicy::AlwaysSd, sd_count),
            sd_count,
            EngineConfig {
                breaker,
                fallback_to_host: true,
                steer_queue_depth: u64::MAX,
                min_fragment_bytes: crate::engine::DEFAULT_MIN_FRAGMENT_BYTES,
                tracer: Tracer::disabled(),
            },
        );
        Ok(MultiSdRunner { cluster, engine })
    }

    /// The cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Current state of each SD node's circuit breaker, in node order.
    pub fn breaker_states(&self) -> Vec<crate::BreakerState> {
        self.engine.breaker_states()
    }

    fn sd_nodes(&self) -> Vec<mcsd_cluster::NodeSpec> {
        self.cluster
            .nodes
            .iter()
            .filter(|n| n.role == NodeRole::SmartStorage)
            .cloned()
            .collect()
    }

    /// Split `input` into one contiguous span per SD node, on boundaries
    /// legal for `job`.
    pub fn plan_spans<J: Job>(&self, job: &J, input: &[u8]) -> Vec<std::ops::Range<usize>> {
        let sd_count = self
            .cluster
            .nodes
            .iter()
            .filter(|n| n.role == NodeRole::SmartStorage)
            .count();
        let span = input.len().div_ceil(sd_count.max(1)).max(1);
        Splitter::new(job.split_spec()).split(input, span)
    }

    /// Run `job` across all SD nodes concurrently, folding per-node
    /// outputs with `merger`. Each node uses the given in-node execution
    /// mode (McSD runs use `ExecMode::Partitioned`).
    pub fn run<J, M>(
        &self,
        job: &J,
        merger: &M,
        input: &[u8],
        mode: ExecMode,
    ) -> Result<MultiSdReport<J::Key, J::Value>, McsdError>
    where
        J: Job + Clone,
        M: Merger<J>,
    {
        self.run_with_faults(job, merger, input, mode, &FaultInjector::disabled())
    }

    /// Like [`MultiSdRunner::run`], but every SD-side span run consults
    /// `injector` ([`mcsd_smartfam::FaultSite::Span`]): an injected failure
    /// loses that run's output and the span is re-dispatched — first a
    /// retry on its primary node, then the surviving SD nodes in order,
    /// finally the host, which never consults the injector (so the chain
    /// always terminates). Real runner errors (memory overflow, bad
    /// config) still propagate: only injected failures re-dispatch.
    pub fn run_with_faults<J, M>(
        &self,
        job: &J,
        merger: &M,
        input: &[u8],
        mode: ExecMode,
        injector: &FaultInjector,
    ) -> Result<MultiSdReport<J::Key, J::Value>, McsdError>
    where
        J: Job + Clone,
        M: Merger<J>,
    {
        self.run_inner(job, merger, input, mode, injector, None)
    }

    /// Like [`MultiSdRunner::run_with_faults`], with every span's module
    /// log replicated onto a group of SD nodes (DESIGN.md §15). Each
    /// completed span run appends its request and response frames
    /// through quorum rounds on the span's [`ReplicationGroups`] group;
    /// the injector's [`mcsd_smartfam::FaultSite::Replica`] and
    /// [`mcsd_smartfam::FaultSite::Group`] schedules crash, tear, or
    /// corrupt individual copies deterministically. A span whose leader
    /// replica fails after the round committed finishes as
    /// [`SpanOutcome::Promoted`] — its completed output stands, no
    /// re-execution — while a span whose round loses its write quorum is
    /// re-dispatched through the normal chain. Background re-protection
    /// restores full group redundancy before the report is built.
    pub fn run_replicated<J, M>(
        &self,
        job: &J,
        merger: &M,
        input: &[u8],
        mode: ExecMode,
        injector: &FaultInjector,
        setup: &ReplicationSetup,
    ) -> Result<MultiSdReport<J::Key, J::Value>, McsdError>
    where
        J: Job + Clone,
        M: Merger<J>,
    {
        self.run_inner(job, merger, input, mode, injector, Some(setup))
    }

    fn run_inner<J, M>(
        &self,
        job: &J,
        merger: &M,
        input: &[u8],
        mode: ExecMode,
        injector: &FaultInjector,
        replication: Option<&ReplicationSetup>,
    ) -> Result<MultiSdReport<J::Key, J::Value>, McsdError>
    where
        J: Job + Clone,
        M: Merger<J>,
    {
        let sd_nodes = self.sd_nodes();
        let spans = self.plan_spans(job, input);
        let mut groups = match replication {
            Some(setup) => Some(ReplicationGroups::plan(
                setup,
                sd_nodes.iter().map(|n| n.name.to_string()).collect(),
                spans.len(),
                injector.clone(),
            )?),
            None => None,
        };

        // Each node's span runs through its own NodeRunner. The spans are
        // executed one after another here so each measurement is clean
        // (running them as concurrent OS threads would make them contend
        // for this machine's cores and inflate every node's wall time);
        // node-level concurrency is then modelled the same way the pair
        // scenarios model host/SD concurrency — each node accumulates a
        // virtual timeline and the elapsed time is the busiest timeline.
        // Spans beyond the node count (possible only for degenerate tiny
        // inputs) fold into the last node. A failed run still charges its
        // node's timeline: the work happened, the output was lost.
        let host_slot = sd_nodes.len();
        let mut timelines = vec![Duration::ZERO; sd_nodes.len() + 1];
        let mut per_node = Vec::new();
        let mut outcomes = Vec::new();
        let mut resilience = ResilienceStats::default();
        let mut acc = merger.empty();
        let mut merge_wall = Duration::ZERO;
        // Engine counters (breaker opens/probes, steers) are cumulative
        // across runs; this run's report carries only its own delta.
        let overload_baseline = self.engine.overload_totals();
        for (i, span) in spans.iter().enumerate() {
            let primary = i.min(sd_nodes.len() - 1);
            let (disposition, (out, promoted)) = self.engine.run_span(i, primary, |slot| {
                let node = if slot == host_slot {
                    self.cluster.host().clone()
                } else {
                    sd_nodes[slot].clone()
                };
                let mut injected = slot != host_slot && injector.fire(FaultSite::Span).is_some();
                resilience.attempts += 1;
                let runner = NodeRunner::new(node, self.cluster.disk);
                let out =
                    runner.run_mode_at(job, merger, &input[span.clone()], mode, span.start)?;
                timelines[slot] += out.report.elapsed();
                // Durability: a completed SD-side run records its request
                // and response frames in the span's replicated module log.
                // Losing the write quorum counts as a lost run (the span
                // re-dispatches through the normal chain); a committed
                // round whose leader replica died promotes instead — the
                // output stands and only the log leadership moves.
                let mut promoted = None;
                if let (Some(groups), false) = (groups.as_mut(), injected) {
                    if slot != host_slot {
                        let request = Frame::request(
                            i as u64,
                            vec![format!("span{i}"), format!("{}..{}", span.start, span.end)],
                        );
                        let response = Frame::response_ok(
                            i as u64,
                            format!("pairs={}", out.pairs.len()).into_bytes(),
                        );
                        match groups.record_span(i, &request, &response)? {
                            RoundOutcome::Committed => {}
                            RoundOutcome::Promoted { node, epoch } => {
                                promoted = Some((node, epoch));
                            }
                            RoundOutcome::QuorumLost => injected = true,
                        }
                    }
                }
                Ok((injected, (out, promoted)))
            })?;

            let outcome = match promoted {
                Some((node, epoch)) => SpanOutcome::Promoted { node, epoch },
                None => disposition.outcome(primary, out.report.node.clone()),
            };
            resilience.retries += u64::from(disposition.failures);
            resilience.redispatches += u64::from(disposition.redispatched(primary));

            let t0 = Stopwatch::start();
            let owned = out.pairs.into_iter().map(|(k, v)| (InterKey::Owned(k), v));
            merger.merge(&mut acc, owned.collect());
            merge_wall += t0.elapsed();
            let mut report = out.report;
            report.resilience = disposition.span_stats(primary);
            per_node.push(report);
            outcomes.push(outcome);
        }
        let t0 = Stopwatch::start();
        let mut pairs = merger.finish(acc);
        // Host-side final ordering (single-threaded: the fold is host work).
        mcsd_phoenix::partition::sort_output(job, &mut pairs, 1);
        // The host merge is real compute on the host (fold + final sort).
        let host = mcsd_cluster::NodeExecutor::new(self.cluster.host().clone());
        let merge = TimeBreakdown::compute(host.scale_compute(merge_wall + t0.elapsed()));
        let busiest = timelines.iter().max().copied().unwrap_or(Duration::ZERO);
        resilience
            .overload
            .absorb(&self.engine.overload_delta(&overload_baseline));
        // Every quorum round ends in its group's re-protection, so a
        // degraded group never outlives its run.
        let replication = groups.map_or_else(ReplicationStats::default, |g| g.stats());

        Ok(MultiSdReport {
            pairs,
            per_node,
            outcomes,
            resilience,
            replication,
            elapsed: busiest + merge.total(),
            merge,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsd_apps::{seq, TextGen, WordCount};
    use mcsd_cluster::{multi_sd_testbed, paper_testbed, Scale};

    fn text(bytes: usize) -> Vec<u8> {
        TextGen::with_seed(77).generate(bytes)
    }

    #[test]
    fn no_sd_nodes_is_an_error() {
        let mut cluster = paper_testbed(Scale::smoke());
        cluster.nodes.retain(|n| n.role != NodeRole::SmartStorage);
        assert!(MultiSdRunner::new(cluster).is_err());
    }

    #[test]
    fn spans_cover_input_on_word_boundaries() {
        let cluster = multi_sd_testbed(Scale::smoke(), 3);
        let runner = MultiSdRunner::new(cluster).unwrap();
        let input = text(10_000);
        let spans = runner.plan_spans(&WordCount, &input);
        assert!(spans.len() <= 3);
        let mut pos = 0;
        for s in &spans {
            assert_eq!(s.start, pos);
            pos = s.end;
            if s.end < input.len() {
                assert!(input[s.end - 1].is_ascii_whitespace());
            }
        }
        assert_eq!(pos, input.len());
    }

    #[test]
    fn scale_out_result_matches_oracle() {
        let mut cluster = multi_sd_testbed(Scale::smoke(), 4);
        for n in &mut cluster.nodes {
            n.memory_bytes = 64 << 20;
        }
        let runner = MultiSdRunner::new(cluster).unwrap();
        let input = text(30_000);
        let out = runner
            .run(&WordCount, &WordCount::merger(), &input, ExecMode::Parallel)
            .unwrap();
        assert_eq!(out.nodes(), 4);
        assert_eq!(out.pairs, seq::wordcount(&input));
    }

    #[test]
    fn more_sd_nodes_shrink_the_busiest_span() {
        // The model's quantity, not measured time: the slowest node is
        // the one with the most bytes, and spans shrink as nodes grow.
        let input = text(200_000);
        let word = input
            .split(u8::is_ascii_whitespace)
            .map(<[u8]>::len)
            .max()
            .unwrap();
        for sd_count in [1usize, 2, 4] {
            let mut cluster = multi_sd_testbed(Scale::smoke(), sd_count);
            for n in &mut cluster.nodes {
                n.memory_bytes = 64 << 20;
            }
            let runner = MultiSdRunner::new(cluster).unwrap();
            let out = runner
                .run(&WordCount, &WordCount::merger(), &input, ExecMode::Parallel)
                .unwrap();
            assert_eq!(out.pairs, seq::wordcount(&input));
            let spans: Vec<u64> = out.per_node.iter().map(|r| r.input_bytes).collect();
            assert_eq!(spans.iter().sum::<u64>(), input.len() as u64, "{spans:?}");
            let busiest = *spans.iter().max().unwrap();
            let bound = input.len().div_ceil(sd_count) + word;
            assert!(
                busiest <= bound as u64,
                "{sd_count} nodes: {spans:?} over {bound}"
            );
        }
    }

    #[test]
    fn scale_out_plus_in_node_partitioning_compose() {
        // Each node's span still exceeds its memory: the in-node
        // Partition/Merge extension must kick in per node.
        let mut cluster = multi_sd_testbed(Scale::smoke(), 2);
        for n in &mut cluster.nodes {
            n.memory_bytes = 40_000;
        }
        let input = text(120_000); // 60k per node, 2.4x = 144k > 36k avail
        let runner = MultiSdRunner::new(cluster).unwrap();
        // Non-partitioned per-node mode hard-fails (span > hard limit).
        assert!(runner
            .run(&WordCount, &WordCount::merger(), &input, ExecMode::Parallel)
            .is_err());
        let out = runner
            .run(
                &WordCount,
                &WordCount::merger(),
                &input,
                ExecMode::Partitioned {
                    fragment_bytes: None,
                },
            )
            .unwrap();
        assert_eq!(out.pairs, seq::wordcount(&input));
        for report in &out.per_node {
            assert_eq!(report.stats.swapped_bytes, 0);
            assert!(report.stats.fragments > 1);
        }
    }

    #[test]
    fn clean_run_reports_all_spans_ok() {
        let mut cluster = multi_sd_testbed(Scale::smoke(), 3);
        for n in &mut cluster.nodes {
            n.memory_bytes = 64 << 20;
        }
        let runner = MultiSdRunner::new(cluster).unwrap();
        let input = text(12_000);
        let out = runner
            .run(&WordCount, &WordCount::merger(), &input, ExecMode::Parallel)
            .unwrap();
        assert!(out.resilience.is_clean());
        assert!(out
            .outcomes
            .iter()
            .all(|o| matches!(o, SpanOutcome::Ok { .. })));
    }

    #[test]
    fn injected_failure_retries_in_place_then_redispatches() {
        use mcsd_smartfam::{FaultAction, FaultPlan, FaultSite};
        let mut cluster = multi_sd_testbed(Scale::smoke(), 3);
        for n in &mut cluster.nodes {
            n.memory_bytes = 64 << 20;
        }
        let runner = MultiSdRunner::new(cluster).unwrap();
        let input = text(15_000);
        // Span-run occurrences: span0 ok (0), span1 primary (1) and its
        // in-place retry (2) both fail, re-dispatch to sd0 (3) succeeds,
        // span2 ok (4).
        let plan = FaultPlan::none()
            .with(FaultSite::Span, 1, FaultAction::Fail)
            .with(FaultSite::Span, 2, FaultAction::Fail);
        let injector = mcsd_smartfam::FaultInjector::new(plan);
        let out = runner
            .run_with_faults(
                &WordCount,
                &WordCount::merger(),
                &input,
                ExecMode::Parallel,
                &injector,
            )
            .unwrap();
        assert_eq!(out.pairs, seq::wordcount(&input));
        assert_eq!(
            out.outcomes[1],
            SpanOutcome::Redispatched {
                attempts: 2,
                node: "sd0".into()
            }
        );
        assert!(matches!(out.outcomes[0], SpanOutcome::Ok { .. }));
        assert!(matches!(out.outcomes[2], SpanOutcome::Ok { .. }));
        assert_eq!(out.resilience.retries, 2);
        assert_eq!(out.resilience.redispatches, 1);
        assert_eq!(out.per_node[1].resilience.attempts, 3);
    }

    #[test]
    fn single_injected_failure_recovers_on_the_same_node() {
        use mcsd_smartfam::{FaultAction, FaultPlan, FaultSite};
        let mut cluster = multi_sd_testbed(Scale::smoke(), 2);
        for n in &mut cluster.nodes {
            n.memory_bytes = 64 << 20;
        }
        let runner = MultiSdRunner::new(cluster).unwrap();
        let input = text(10_000);
        let plan = FaultPlan::none().with(FaultSite::Span, 0, FaultAction::Fail);
        let injector = mcsd_smartfam::FaultInjector::new(plan);
        let out = runner
            .run_with_faults(
                &WordCount,
                &WordCount::merger(),
                &input,
                ExecMode::Parallel,
                &injector,
            )
            .unwrap();
        assert_eq!(out.pairs, seq::wordcount(&input));
        assert_eq!(out.outcomes[0], SpanOutcome::Retried { node: "sd0".into() });
        assert_eq!(out.resilience.retries, 1);
        assert_eq!(out.resilience.redispatches, 0);
    }

    #[test]
    fn every_sd_attempt_failing_falls_back_to_the_host() {
        use mcsd_smartfam::{FaultAction, FaultPlan, FaultSite};
        let mut cluster = multi_sd_testbed(Scale::smoke(), 1);
        for n in &mut cluster.nodes {
            n.memory_bytes = 64 << 20;
        }
        let runner = MultiSdRunner::new(cluster).unwrap();
        let host_name = runner.cluster().host().name.to_string();
        let input = text(8_000);
        // The only SD node fails its primary run and its retry; the host
        // (which never consults the injector) finishes the span.
        let plan = FaultPlan::none()
            .with(FaultSite::Span, 0, FaultAction::Fail)
            .with(FaultSite::Span, 1, FaultAction::Fail);
        let injector = mcsd_smartfam::FaultInjector::new(plan);
        let out = runner
            .run_with_faults(
                &WordCount,
                &WordCount::merger(),
                &input,
                ExecMode::Parallel,
                &injector,
            )
            .unwrap();
        assert_eq!(out.pairs, seq::wordcount(&input));
        assert_eq!(
            out.outcomes[0],
            SpanOutcome::Redispatched {
                attempts: 2,
                node: host_name
            }
        );
        // The failed runs are charged: elapsed covers three span runs.
        assert!(out.elapsed > out.per_node[0].elapsed());
    }

    #[test]
    fn open_breaker_steers_spans_then_readmits_after_probe() {
        use crate::BreakerState;
        use mcsd_smartfam::{FaultAction, FaultPlan, FaultSite};
        let mut cluster = multi_sd_testbed(Scale::smoke(), 2);
        for n in &mut cluster.nodes {
            n.memory_bytes = 64 << 20;
        }
        let runner = MultiSdRunner::with_breaker_config(
            cluster,
            BreakerConfig {
                failure_threshold: 1,
                cooldown: Duration::from_millis(6),
                probe_quota: 1,
            },
        )
        .unwrap();
        let input = text(10_000);

        // Run 1: sd0 fails span 0's primary attempt -> its breaker opens
        // (threshold 1), the in-place retry is rejected, sd1 picks it up.
        let plan = FaultPlan::none().with(FaultSite::Span, 0, FaultAction::Fail);
        let injector = mcsd_smartfam::FaultInjector::new(plan);
        let out = runner
            .run_with_faults(
                &WordCount,
                &WordCount::merger(),
                &input,
                ExecMode::Parallel,
                &injector,
            )
            .unwrap();
        assert_eq!(out.pairs, seq::wordcount(&input));
        assert_eq!(
            out.outcomes[0],
            SpanOutcome::Redispatched {
                attempts: 1,
                node: "sd1".into()
            }
        );
        assert_eq!(out.resilience.overload.breaker_opens, 1);
        assert_eq!(runner.breaker_states()[0], BreakerState::Open);

        // Fault-free follow-up runs: while sd0's breaker cools down its
        // spans are steered to sd1 before any attempt; once the cooldown
        // elapses a half-open probe runs on sd0, succeeds, and re-admits
        // the node.
        let mut saw_steered = false;
        let mut readmitted = false;
        for _ in 0..8 {
            let out = runner
                .run(&WordCount, &WordCount::merger(), &input, ExecMode::Parallel)
                .unwrap();
            assert_eq!(out.pairs, seq::wordcount(&input));
            match &out.outcomes[0] {
                SpanOutcome::Steered { node } => {
                    assert_eq!(node, "sd1");
                    assert_eq!(out.resilience.overload.steered_spans, 1);
                    saw_steered = true;
                }
                SpanOutcome::Ok { node } if node == "sd0" => {
                    readmitted = true;
                    break;
                }
                other => panic!("unexpected outcome for span 0: {other:?}"),
            }
        }
        assert!(saw_steered, "no run steered span 0 away from open sd0");
        assert!(readmitted, "sd0 was never re-admitted after its cooldown");
        assert_eq!(runner.breaker_states()[0], BreakerState::Closed);
    }

    #[test]
    fn per_node_reports_are_in_node_order_and_count_their_span() {
        let mut cluster = multi_sd_testbed(Scale::smoke(), 3);
        for n in &mut cluster.nodes {
            n.memory_bytes = 64 << 20;
        }
        let runner = MultiSdRunner::new(cluster).unwrap();
        let input = text(15_000);
        let out = runner
            .run(&WordCount, &WordCount::merger(), &input, ExecMode::Parallel)
            .unwrap();
        let names: Vec<&str> = out.per_node.iter().map(|r| r.node.as_str()).collect();
        assert_eq!(names, vec!["sd0", "sd1", "sd2"]);
        // Each report's output is its own span's distinct words.
        let counted: Vec<u64> = out.per_node.iter().map(|r| r.stats.output_pairs).collect();
        let spans = runner.plan_spans(&WordCount, &input).into_iter();
        let distinct: Vec<u64> = spans
            .map(|s| seq::wordcount(&input[s]).len() as u64)
            .collect();
        assert_eq!(counted, distinct);
    }
}
