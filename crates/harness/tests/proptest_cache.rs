//! Property tests: the cross-query caching layer is invisible in answers.
//!
//! The tentpole soundness claim of the feature-posting-list cache and the
//! canonical answer memo is that they are *pure* accelerators: for every
//! method (the six indexed ones plus the scan baseline), a service built
//! with [`CachePolicy::enabled`] must return bit-identical answer sets to
//! the cache-disabled service — on one shard and across a 4-shard wave —
//! including on *repeated* batches, where the second pass
//! is served substantially from cache (feature hits in the filter stage,
//! whole-answer hits at admission).
//!
//! Tree+Δ is the adversarial case: its Δ-feature learning mutates the
//! index during verification, so its candidate *sets* legitimately differ
//! between cached and uncached runs (the cache replays bitsets recorded
//! under an earlier Δ trajectory). Verification is exact, so the property
//! compares answers — the paper's observable — not candidates.

use proptest::prelude::*;
use sqbench_generator::{GraphGen, GraphGenConfig, QueryGen};
use sqbench_graph::{Dataset, Graph, GraphId};
use sqbench_harness::service::{CachePolicy, ServiceOptions, ShardedReport, ShardedService};
use sqbench_index::{MethodConfig, MethodKind};

const ALL_METHODS: [MethodKind; 7] = [
    MethodKind::Grapes,
    MethodKind::Ggsx,
    MethodKind::CtIndex,
    MethodKind::GIndex,
    MethodKind::TreeDelta,
    MethodKind::GCode,
    MethodKind::Scan,
];

fn dataset_from_seed(seed: u64, graphs: usize) -> Dataset {
    GraphGen::new(
        GraphGenConfig::default()
            .with_graph_count(graphs)
            .with_avg_nodes(10)
            .with_avg_density(0.14)
            .with_label_count(4)
            .with_seed(seed),
    )
    .generate()
}

/// A workload with repeats: every query appears twice in one batch, so a
/// single wave already exercises intra-batch cache reuse, and running the
/// batch twice exercises cross-batch reuse.
fn repeated_queries(ds: &Dataset, seed: u64) -> Vec<Graph> {
    let base: Vec<Graph> = QueryGen::new(seed ^ 0xcac4e)
        .generate(ds, 3, 4)
        .iter()
        .map(|(q, _)| q.clone())
        .collect();
    let mut queries = base.clone();
    queries.extend(base);
    queries
}

fn answers_of(report: &ShardedReport) -> Vec<Vec<GraphId>> {
    report.records.iter().map(|r| r.answers.clone()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Unsharded (one shard): cached answers equal uncached answers for
    /// every method, on a first wave and on an identical repeat wave
    /// (served warm).
    #[test]
    fn cached_batches_match_uncached_for_all_methods(
        seed in 0u64..300,
        graphs in 10usize..19,
    ) {
        let ds = dataset_from_seed(seed, graphs);
        let config = MethodConfig::fast();
        let queries = repeated_queries(&ds, seed);
        let refs: Vec<&Graph> = queries.iter().collect();

        for kind in ALL_METHODS {
            let mut cold = ShardedService::new(
                kind,
                &config,
                &ds,
                ServiceOptions::new().shards(1),
            );
            let mut warm = ShardedService::new(
                kind,
                &config,
                &ds,
                ServiceOptions::new().shards(1).cache(CachePolicy::enabled()),
            );
            for pass in 0..2 {
                let cold_report = cold.run_wave(&refs, None);
                let warm_report = warm.run_wave(&refs, None);
                prop_assert_eq!(cold_report.complete(), refs.len());
                prop_assert_eq!(
                    answers_of(&cold_report),
                    answers_of(&warm_report),
                    "{} diverged under caching (unsharded, pass {})",
                    kind.name(),
                    pass
                );
            }
        }
    }

    /// Sharded (4 shards): a cached wave equals the uncached wave for
    /// every method, cold and warm — per-shard feature caches and the
    /// service-level answer memo included.
    #[test]
    fn cached_waves_match_uncached_for_all_methods(
        seed in 0u64..300,
        graphs in 10usize..19,
    ) {
        let ds = dataset_from_seed(seed, graphs);
        let config = MethodConfig::fast();
        let queries = repeated_queries(&ds, seed);
        let refs: Vec<&Graph> = queries.iter().collect();

        for kind in ALL_METHODS {
            let mut cold = ShardedService::new(
                kind,
                &config,
                &ds,
                ServiceOptions::new().shards(4),
            );
            let mut warm = ShardedService::new(
                kind,
                &config,
                &ds,
                ServiceOptions::new().shards(4).cache(CachePolicy::enabled()),
            );
            for pass in 0..2 {
                let cold_report = cold.run_wave(&refs, None);
                let warm_report = warm.run_wave(&refs, None);
                for (qi, (c, w)) in cold_report
                    .records
                    .iter()
                    .zip(warm_report.records.iter())
                    .enumerate()
                {
                    prop_assert_eq!(
                        &c.answers,
                        &w.answers,
                        "{} diverged under caching (4 shards, pass {}, query {})",
                        kind.name(),
                        pass,
                        qi
                    );
                }
            }
            // The warm service genuinely cached: small queries repeat, so
            // by the second wave the answer memo must have served hits.
            let counters = warm.cache_counters();
            prop_assert!(
                counters.answer_hits > 0,
                "{}: repeated small queries must hit the answer memo",
                kind.name()
            );
        }
    }
}
