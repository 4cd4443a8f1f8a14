//! Job statistics and phase timings.
//!
//! Every run reports what the paper's evaluation needs: wall-clock compute
//! time per phase, intermediate volume, and the number of bytes the memory
//! model says would have spilled to swap (charged later by the cluster's
//! virtual clock).

use std::time::Duration;

/// Wall-clock duration of each runtime phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Input splitting.
    pub split: Duration,
    /// Map phase (all map tasks, including eager combining).
    pub map: Duration,
    /// Reduce phase (partition sort/group + reduce tasks).
    pub reduce: Duration,
    /// Final merge/sort of the output.
    pub merge: Duration,
}

impl PhaseTimings {
    /// Total time across phases.
    pub fn total(&self) -> Duration {
        self.split + self.map + self.reduce + self.merge
    }

    /// Element-wise sum (used when aggregating fragment runs).
    pub fn accumulate(&mut self, other: &PhaseTimings) {
        self.split += other.split;
        self.map += other.map;
        self.reduce += other.reduce;
        self.merge += other.merge;
    }
}

/// Statistics of one job run (or an aggregate over partition fragments).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobStats {
    /// Job name (from [`crate::job::Job::name`]).
    pub job: String,
    /// Total input bytes processed.
    pub input_bytes: u64,
    /// Number of map chunks (map tasks).
    pub map_tasks: u64,
    /// Number of worker threads used.
    pub workers: usize,
    /// Intermediate pairs emitted by map (before combining).
    pub emitted_pairs: u64,
    /// Intermediate pairs after combining (what reduce actually saw).
    pub combined_pairs: u64,
    /// Distinct keys reduced.
    pub distinct_keys: u64,
    /// Final output pairs.
    pub output_pairs: u64,
    /// Out-of-core fragments this run was split into (1 = non-partitioned).
    pub fragments: u64,
    /// Bytes the memory model says would spill to swap. Zero when the
    /// working set fits. For partitioned runs this accumulates across
    /// fragments (normally staying zero — that is the point of
    /// partitioning).
    pub swapped_bytes: u64,
    /// Wall-clock phase timings.
    pub timings: PhaseTimings,
}

impl JobStats {
    /// Total wall-clock compute time.
    pub fn elapsed(&self) -> Duration {
        self.timings.total()
    }

    /// Fold another (fragment) run's stats into this aggregate.
    pub fn accumulate(&mut self, other: &JobStats) {
        self.input_bytes += other.input_bytes;
        self.map_tasks += other.map_tasks;
        self.emitted_pairs += other.emitted_pairs;
        self.combined_pairs += other.combined_pairs;
        self.distinct_keys += other.distinct_keys;
        self.output_pairs = other.output_pairs; // final value wins
        self.fragments += other.fragments;
        self.swapped_bytes += other.swapped_bytes;
        self.timings.accumulate(&other.timings);
    }

    /// Combining effectiveness: emitted / combined pair ratio (1.0 when no
    /// combiner ran).
    pub fn combine_ratio(&self) -> f64 {
        if self.combined_pairs == 0 {
            1.0
        } else {
            self.emitted_pairs as f64 / self.combined_pairs as f64
        }
    }

    /// Input throughput in bytes per second of total elapsed time.
    pub fn throughput_bytes_per_sec(&self) -> f64 {
        let secs = self.elapsed().as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.input_bytes as f64 / secs
        }
    }
}

impl std::fmt::Display for PhaseTimings {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "split {:?} | map {:?} | reduce {:?} | merge {:?}",
            self.split, self.map, self.reduce, self.merge
        )
    }
}

impl std::fmt::Display for JobStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} B in {:?} ({:.1} MB/s) — {} map tasks x{} workers, \
             {} emitted → {} combined → {} keys → {} out, {} fragment(s), \
             {} B swapped [{}]",
            self.job,
            self.input_bytes,
            self.elapsed(),
            self.throughput_bytes_per_sec() / 1e6,
            self.map_tasks,
            self.workers,
            self.emitted_pairs,
            self.combined_pairs,
            self.distinct_keys,
            self.output_pairs,
            self.fragments,
            self.swapped_bytes,
            self.timings,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_total() {
        let t = PhaseTimings {
            split: Duration::from_millis(1),
            map: Duration::from_millis(2),
            reduce: Duration::from_millis(3),
            merge: Duration::from_millis(4),
        };
        assert_eq!(t.total(), Duration::from_millis(10));
    }

    #[test]
    fn timings_accumulate() {
        let mut a = PhaseTimings {
            map: Duration::from_millis(5),
            ..Default::default()
        };
        let b = PhaseTimings {
            map: Duration::from_millis(7),
            merge: Duration::from_millis(1),
            ..Default::default()
        };
        a.accumulate(&b);
        assert_eq!(a.map, Duration::from_millis(12));
        assert_eq!(a.merge, Duration::from_millis(1));
    }

    #[test]
    fn stats_accumulate_sums_fragments() {
        let mut agg = JobStats {
            job: "wc".into(),
            input_bytes: 100,
            fragments: 1,
            swapped_bytes: 0,
            emitted_pairs: 10,
            combined_pairs: 5,
            ..Default::default()
        };
        let frag = JobStats {
            job: "wc".into(),
            input_bytes: 50,
            fragments: 1,
            swapped_bytes: 8,
            emitted_pairs: 6,
            combined_pairs: 3,
            output_pairs: 4,
            ..Default::default()
        };
        agg.accumulate(&frag);
        assert_eq!(agg.input_bytes, 150);
        assert_eq!(agg.fragments, 2);
        assert_eq!(agg.swapped_bytes, 8);
        assert_eq!(agg.emitted_pairs, 16);
        assert_eq!(agg.output_pairs, 4);
    }

    #[test]
    fn display_mentions_key_fields() {
        let s = JobStats {
            job: "wc".into(),
            input_bytes: 1234,
            map_tasks: 5,
            workers: 2,
            emitted_pairs: 100,
            combined_pairs: 40,
            distinct_keys: 30,
            output_pairs: 30,
            fragments: 2,
            swapped_bytes: 0,
            timings: PhaseTimings {
                map: Duration::from_millis(3),
                ..Default::default()
            },
        };
        let text = s.to_string();
        assert!(text.contains("wc"));
        assert!(text.contains("1234"));
        assert!(text.contains("5 map tasks"));
        assert!(text.contains("2 fragment"));
    }

    #[test]
    fn throughput_is_bytes_over_elapsed() {
        let s = JobStats {
            input_bytes: 1_000_000,
            timings: PhaseTimings {
                map: Duration::from_millis(500),
                ..Default::default()
            },
            ..Default::default()
        };
        assert!((s.throughput_bytes_per_sec() - 2_000_000.0).abs() < 1.0);
        assert_eq!(JobStats::default().throughput_bytes_per_sec(), 0.0);
    }

    #[test]
    fn combine_ratio() {
        let s = JobStats {
            emitted_pairs: 100,
            combined_pairs: 10,
            ..Default::default()
        };
        assert!((s.combine_ratio() - 10.0).abs() < f64::EPSILON);
        let none = JobStats::default();
        assert!((none.combine_ratio() - 1.0).abs() < f64::EPSILON);
    }
}
