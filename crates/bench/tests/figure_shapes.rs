//! Shape tests for the figure-regeneration code at quick scale: the
//! *deterministic* (model-driven) parts of each figure's shape must hold
//! on every run — these are the properties EXPERIMENTS.md reports.

use mcsd_apps::WordCount;
use mcsd_bench::fig8::{self, AppKind};
use mcsd_bench::pairs::{self, PairKind};
use mcsd_bench::{workloads, ExperimentConfig};

#[test]
fn fig8a_has_all_rows_and_no_failures_in_the_sweep() {
    let cfg = ExperimentConfig::quick();
    let rows = fig8::fig8a(&cfg).unwrap();
    // 2 platforms x 2 apps x 4 sizes.
    assert_eq!(rows.len(), 16);
    for r in &rows {
        // The paper sweeps only up to 1.25G: everything runs.
        assert!(
            r.par.is_some(),
            "{:?} {:?} {} overflowed",
            r.platform,
            r.app,
            r.size
        );
        assert!(r.speedup_vs_seq() > 0.0);
    }
    // Rendering works and mentions both platforms.
    let table = fig8::fig8a_table(&rows).render();
    assert!(table.contains("Duo"));
    assert!(table.contains("Quad"));
}

#[test]
fn fig8_growth_fails_exactly_above_the_hard_limit() {
    let cfg = ExperimentConfig::quick();
    for app in [AppKind::WordCount, AppKind::StringMatch] {
        let points = fig8::fig8_growth(&cfg, app).unwrap();
        // 2 platforms x 6 sizes.
        assert_eq!(points.len(), 12);
        for p in &points {
            let should_fail = matches!(p.size.as_str(), "1.5G" | "2G");
            assert_eq!(
                p.par.is_none(),
                should_fail,
                "{:?} {:?} at {}",
                app,
                p.platform,
                p.size
            );
            // Partitioned always runs.
            assert!(p.part > std::time::Duration::ZERO);
        }
    }
}

#[test]
fn fig8_growth_is_monotone_in_size_for_partitioned_runs() {
    // Growth curves are "linear-like" (paper §V-B): at minimum, the
    // partitioned run's work must grow as input grows 4x. Assert it on the
    // *model-driven* quantities — the pairs the map emits and the
    // fragments the partitioner cuts, counted by `JobStats` — not on the
    // elapsed time, whose compute term is scaled wall time and flaked
    // under load. Compare the endpoints, each cell run as `fig8_growth`
    // runs it.
    let cfg = ExperimentConfig::quick();
    let cluster = mcsd_cluster::paper_testbed(cfg.scale);
    let mode = mcsd_core::driver::ExecMode::Partitioned {
        fragment_bytes: Some(workloads::partition_bytes(&cfg).unwrap()),
    };
    for (platform, node) in [("Duo", cluster.sd()), ("Quad", cluster.host())] {
        let runner = mcsd_core::driver::NodeRunner::new(node.clone(), cluster.disk);
        let of = |size: &str| {
            let input = workloads::wc_input(&cfg, size).unwrap();
            let out = runner.run_mode(&WordCount, &WordCount::merger(), &input, mode);
            let stats = out.unwrap().report.stats;
            (stats.emitted_pairs, stats.fragments)
        };
        let (small, large) = (of("500M"), of("2G"));
        assert!(
            large.0 > small.0 && large.1 > small.1,
            "{platform}: 2G (pairs, fragments) {large:?} !> 500M {small:?}"
        );
    }
}

#[test]
fn fig9_wc_swaps_past_threshold_and_fig10_sm_does_not() {
    let cfg = ExperimentConfig::quick();
    // Run just the 1G non-partitioned duo-SD cell for both pairs.
    let cluster = mcsd_cluster::paper_testbed(cfg.scale);
    let runner = mcsd_core::scenario::PairRunner::new(cluster);

    // The figure-shape claim is that at 1G the WC pair's non-partitioned
    // cell pays a swap penalty the SM pair's does not. Assert it on the
    // *model-driven* quantities — the memory model's swapped bytes and
    // the analytic disk charge — not on wall-clock-derived speedups:
    // those mix in measured compute, which full-workspace parallel test
    // load perturbs enough to flake in debug profile (the intermittent
    // failure CHANGES.md PR 8 recorded against this test).
    let wc = mcsd_bench::workloads::mm_wc_pair(&cfg, "1G").unwrap();
    let wc_run = runner
        .run(
            mcsd_core::scenario::PairScenario::duo_sd_no_partition(),
            &wc,
        )
        .unwrap();
    let sm = mcsd_bench::workloads::mm_sm_pair(&cfg, "1G").unwrap();
    let sm_run = runner
        .run(
            mcsd_core::scenario::PairScenario::duo_sd_no_partition(),
            &sm,
        )
        .unwrap();

    assert!(
        wc_run.data.stats.swapped_bytes > 0,
        "WC @1G duo-sd/par must overflow memory and swap"
    );
    assert_eq!(
        sm_run.data.stats.swapped_bytes, 0,
        "SM @1G duo-sd/par must fit in memory"
    );
    assert!(
        wc_run.data.time.disk > sm_run.data.time.disk,
        "WC's swap traffic must cost more disk time than SM's ({:?} !> {:?})",
        wc_run.data.time.disk,
        sm_run.data.time.disk
    );
}

#[test]
fn pair_figures_cover_all_sizes() {
    let cfg = ExperimentConfig::quick();
    let results = pairs::run_pair_figure(&cfg, PairKind::MmSm).unwrap();
    assert_eq!(results.len(), 4);
    let sizes: Vec<&str> = results.iter().map(|r| r.size.as_str()).collect();
    assert_eq!(sizes, vec!["500M", "750M", "1G", "1.25G"]);
    for r in &results {
        assert_eq!(r.cells.len(), 9);
    }
}
