//! Property tests: sharding — and selective shard *routing* — are
//! invisible in match sets.
//!
//! For every method (the six indexed ones plus the scan baseline), serving
//! a workload over {1, 2, 4, 7} shards must return exactly the same
//! graph-id match sets as the unsharded one-shot `query()` path — on both
//! partitioning strategies, including shard counts that do not divide the
//! dataset evenly (the generated datasets have 10–18 graphs, so 4 and 7
//! leave ragged and even empty shards). Filtering power may differ per
//! shard; answers may not.
//!
//! The routing-equivalence property extends this to the synopsis router:
//! routed waves must be bit-identical to full fan-out *and* to the
//! unsharded oracle, on uniform datasets (where synopses rarely
//! discriminate) and on adversarially label-skewed ones (where routing
//! skips most shards — the exact regime where an unsound synopsis would
//! silently drop answers).
//!
//! Both matrices run over **all three** placement strategies —
//! round-robin, size-balanced (LPT) and label-aware clustering — so a
//! placement bug can never hide behind one layout; a final property pins
//! the point of label-aware placement itself: on interleaved
//! label-clustered ingest with a shard count coprime to the family count,
//! it must let routing probe strictly fewer shards than round-robin.

use proptest::prelude::*;
use sqbench_generator::{label_clustered, GraphGen, GraphGenConfig, QueryGen};
use sqbench_graph::{Dataset, Graph, GraphId};
use sqbench_harness::service::{RoutingMode, ServiceOptions, ShardStrategy, ShardedService};
use sqbench_index::{build_index, MethodConfig, MethodKind};

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

/// Adversarial label skew: four label-disjoint families interleaved
/// `i % 4`, so under round-robin placement with 2 or 4 shards every query
/// (drawn from one family) can only match on a single shard and a sound
/// router must skip all others.
fn skewed_dataset_from_seed(seed: u64, graphs: usize) -> Dataset {
    label_clustered(
        &GraphGenConfig::default()
            .with_graph_count(graphs)
            .with_avg_nodes(10)
            .with_avg_density(0.14)
            .with_label_count(4)
            .with_seed(seed),
        4,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Sharded answers equal unsharded answers for every method, shard
    /// count and placement strategy.
    #[test]
    fn sharded_matches_unsharded_for_all_methods(
        seed in 0u64..300,
        graphs in 10usize..19,
    ) {
        let ds = dataset_from_seed(seed, graphs);
        let config = MethodConfig::fast();
        let queries: Vec<Graph> = QueryGen::new(seed ^ 0x5a4d)
            .generate(&ds, 3, 4)
            .iter()
            .map(|(q, _)| q.clone())
            .collect();
        let refs: Vec<&Graph> = queries.iter().collect();

        for kind in ALL_METHODS {
            // Unsharded ground truth on a fresh index per query order
            // (Tree+Δ mutates its index while querying).
            let oracle = build_index(kind, &config, &ds);
            let expected: Vec<Vec<GraphId>> = queries
                .iter()
                .map(|q| oracle.query(&ds, q).answers)
                .collect();

            for strategy in ShardStrategy::ALL {
                for shards in [1usize, 2, 4, 7] {
                    let mut service = ShardedService::new(
                        kind,
                        &config,
                        &ds,
                        ServiceOptions::new().shards(shards).strategy(strategy),
                    );
                    prop_assert_eq!(service.shard_count(), shards);
                    prop_assert_eq!(
                        service.shard_sizes().iter().sum::<usize>(),
                        ds.len(),
                        "partition must cover the dataset exactly once"
                    );
                    let report = service.run_wave(&refs, None);
                    prop_assert_eq!(report.executed(), queries.len());
                    prop_assert_eq!(report.expired(), 0);
                    for (qi, record) in report.records.iter().enumerate() {
                        prop_assert_eq!(
                            &record.answers,
                            &expected[qi],
                            "{} diverged on query {} with {} shards ({})",
                            kind.name(),
                            qi,
                            shards,
                            strategy.name()
                        );
                        // Merged answers are sorted, deduplicated global ids.
                        prop_assert!(record.answers.windows(2).all(|w| w[0] < w[1]));
                        prop_assert!(record
                            .answers
                            .iter()
                            .all(|&id| id < ds.len()));
                        // No filtering false dismissals survive the merge:
                        // candidates cover the answers on every shard, so the
                        // merged candidate count can never undercut the
                        // merged answer count.
                        prop_assert!(record.candidate_count >= record.answer_count());
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Routing equivalence: for every method, placement strategy and
    /// multi-shard count, routed waves return bit-identical match sets to
    /// full fan-out and to the unsharded oracle — on uniform datasets and
    /// on adversarially label-skewed ones where routing skips most shards.
    #[test]
    fn routed_matches_fanout_and_unsharded_for_all_methods(
        seed in 0u64..200,
        graphs in 10usize..19,
        skewed in any::<bool>(),
    ) {
        let ds = if skewed {
            skewed_dataset_from_seed(seed, graphs)
        } else {
            dataset_from_seed(seed, graphs)
        };
        let config = MethodConfig::fast();
        let queries: Vec<Graph> = QueryGen::new(seed ^ 0x0_405)
            .generate(&ds, 3, 4)
            .iter()
            .map(|(q, _)| q.clone())
            .collect();
        let refs: Vec<&Graph> = queries.iter().collect();

        for kind in ALL_METHODS {
            let oracle = build_index(kind, &config, &ds);
            let expected: Vec<Vec<GraphId>> = queries
                .iter()
                .map(|q| oracle.query(&ds, q).answers)
                .collect();

            for strategy in ShardStrategy::ALL {
                for shards in [2usize, 4, 7] {
                    let base = ServiceOptions::new().shards(shards).strategy(strategy);
                    let mut fanout = ShardedService::new(
                        kind,
                        &config,
                        &ds,
                        base.clone().routing(RoutingMode::Fanout),
                    );
                    let mut routed = ShardedService::new(
                        kind,
                        &config,
                        &ds,
                        base.routing(RoutingMode::Synopsis),
                    );
                    let fanout_report = fanout.run_wave(&refs, None);
                    let routed_report = routed.run_wave(&refs, None);
                    prop_assert_eq!(routed_report.executed(), queries.len());
                    prop_assert_eq!(routed_report.expired(), 0);
                    for (qi, (f, r)) in fanout_report
                        .records
                        .iter()
                        .zip(routed_report.records.iter())
                        .enumerate()
                    {
                        // The three-way equivalence of the acceptance
                        // criterion: routed == fanout == unsharded oracle.
                        prop_assert_eq!(
                            &r.answers,
                            &expected[qi],
                            "{} routed≠oracle on query {} ({} shards, {}, skewed={})",
                            kind.name(), qi, shards, strategy.name(), skewed
                        );
                        prop_assert_eq!(
                            &r.answers,
                            &f.answers,
                            "{} routed≠fanout on query {}",
                            kind.name(), qi
                        );
                        // Probe accounting always partitions the shards...
                        prop_assert_eq!(f.shards_probed, shards);
                        prop_assert_eq!(f.shards_skipped, 0);
                        prop_assert_eq!(r.shards_probed + r.shards_skipped, shards);
                        // ...a sound router never skips a shard that holds
                        // an answer (the answers above prove it), and every
                        // query is a real subgraph of its source graph, so
                        // its home shard must admit it.
                        prop_assert!(r.shards_probed >= 1);
                        // Adversarial skew: families have ids ≡ f (mod 4),
                        // so with 2 or 4 round-robin shards each query's
                        // family — and thus every possible answer — lives
                        // on exactly one shard; routing must skip the rest.
                        if skewed
                            && strategy == ShardStrategy::RoundRobin
                            && (shards == 2 || shards == 4)
                        {
                            prop_assert_eq!(
                                r.shards_probed,
                                1,
                                "{}: skewed query {} leaked past its family shard",
                                kind.name(),
                                qi
                            );
                        }
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The reason [`ShardStrategy::LabelAware`] exists: on interleaved
    /// label-clustered ingest with a shard count that does not divide the
    /// family count (here 3 shards over 4 families — round-robin smears
    /// every family across every shard), label-aware placement must let
    /// synopsis routing probe strictly fewer shards than round-robin,
    /// while staying bit-identical to the unsharded oracle.
    #[test]
    fn label_aware_placement_beats_round_robin_on_interleaved_ingest(
        seed in 0u64..200,
        graphs in 16usize..25,
    ) {
        let ds = skewed_dataset_from_seed(seed, graphs);
        let config = MethodConfig::fast();
        let queries: Vec<Graph> = QueryGen::new(seed ^ 0x91ace)
            .generate(&ds, 4, 4)
            .iter()
            .map(|(q, _)| q.clone())
            .collect();
        let refs: Vec<&Graph> = queries.iter().collect();
        let kind = MethodKind::Ggsx;
        let oracle = build_index(kind, &config, &ds);
        let expected: Vec<Vec<GraphId>> = queries
            .iter()
            .map(|q| oracle.query(&ds, q).answers)
            .collect();
        let mut reports = Vec::new();
        for strategy in [ShardStrategy::RoundRobin, ShardStrategy::LabelAware] {
            let mut service = ShardedService::new(
                kind,
                &config,
                &ds,
                ServiceOptions::new().shards(3)
                    .strategy(strategy)
                    .routing(RoutingMode::Synopsis),
            );
            let report = service.run_wave(&refs, None);
            for (qi, record) in report.records.iter().enumerate() {
                prop_assert_eq!(
                    &record.answers,
                    &expected[qi],
                    "{} placement changed query {}'s match set",
                    strategy.name(),
                    qi
                );
            }
            reports.push(report);
        }
        let (rr, la) = (&reports[0], &reports[1]);
        prop_assert!(
            la.shards_probed() < rr.shards_probed(),
            "label-aware probed {} of round-robin's {} — clustering bought nothing",
            la.shards_probed(),
            rr.shards_probed()
        );
    }
}
