//! Throughput micro-benchmark of the cross-query caching layer on a
//! Zipf-skewed repeat-heavy workload: cache-disabled vs. warmed caches.
//!
//! Real query logs are skewed — a few hot queries account for most of the
//! traffic. The workload here makes that explicit: 12 distinct small
//! queries (4-edge walks, all under the canonical-key vertex bound, so
//! every one is answer-memo eligible) are sampled 48 times with Zipf(1)
//! weights, so the hottest query appears ~12x more often than the
//! coldest. Each of the 7 methods then serves the same batch two ways:
//!
//! * `<method>_cold` — [`CachePolicy::disabled`]: every repeat pays the
//!   full filter + verify pipeline (the pre-caching baseline);
//! * `<method>_warm` — [`CachePolicy::enabled`] after one priming pass:
//!   repeats hit the answer memo at admission and skip the pipeline, and
//!   the methods with cacheable posting lists also serve filter-stage
//!   feature hits.
//!
//! Before timing, the bench asserts the correctness gate: cold and warm
//! answer id lists are identical (the warm service is already serving
//! from cache by then, so hits are exercised, not just cold misses).
//! After timing it asserts the tentpole acceptance bar: warm median
//! throughput at least 3x cold for at least 4 of the 7 methods. The
//! committed `BENCH_micro_cache.json` baseline records this machine's
//! numbers for the CI regression gate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sqbench_generator::{GraphGen, GraphGenConfig, QueryGen};
use sqbench_graph::{Dataset, Graph, GraphId};
use sqbench_harness::service::{CachePolicy, ServiceOptions, ShardedService};
use sqbench_index::{MethodConfig, MethodKind};

const UNIVERSE: usize = 2_000;
const POOL: usize = 12;
const BATCH: usize = 48;

const METHODS: [MethodKind; 7] = [
    MethodKind::Grapes,
    MethodKind::Ggsx,
    MethodKind::CtIndex,
    MethodKind::GIndex,
    MethodKind::TreeDelta,
    MethodKind::GCode,
    MethodKind::Scan,
];

fn dataset() -> Dataset {
    GraphGen::new(
        GraphGenConfig::default()
            .with_graph_count(UNIVERSE)
            .with_avg_nodes(10)
            .with_avg_density(0.18)
            .with_label_count(5)
            .with_seed(20150901),
    )
    .generate()
}

/// 48 queries Zipf(1)-sampled from a 12-query pool: weight of the query
/// at popularity rank r is 1/(r+1). Sampling uses a fixed-seed LCG so the
/// workload is byte-identical on every run and machine.
fn zipf_workload(dataset: &Dataset) -> Vec<Graph> {
    let pool: Vec<Graph> = QueryGen::new(0x0ca_c4ed)
        .generate(dataset, POOL, 4)
        .iter()
        .map(|(q, _)| q.clone())
        .collect();
    let weights: Vec<f64> = (0..pool.len()).map(|r| 1.0 / (r + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut state = 0x5eed_cafe_u64;
    let mut queries = Vec::with_capacity(BATCH);
    for _ in 0..BATCH {
        // Numerical Recipes LCG; top bits into [0, 1).
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let mut u = (state >> 11) as f64 / (1u64 << 53) as f64 * total;
        let mut pick = pool.len() - 1;
        for (i, w) in weights.iter().enumerate() {
            if u < *w {
                pick = i;
                break;
            }
            u -= w;
        }
        queries.push(pool[pick].clone());
    }
    queries
}

/// One closed wave; answer counts only — the value the timed loops fold.
fn run_wave(service: &mut ShardedService, queries: &[&Graph]) -> usize {
    service
        .run_wave(queries, None)
        .records
        .iter()
        .map(|r| r.answers.len())
        .sum()
}

/// One closed wave keeping the full answer id lists — what the
/// correctness gate compares, so a stale cache entry that returns the
/// right *number* of wrong graph ids cannot slip past it.
fn gate_wave(service: &mut ShardedService, queries: &[&Graph]) -> Vec<Vec<GraphId>> {
    service
        .run_wave(queries, None)
        .records
        .iter()
        .map(|r| r.answers.clone())
        .collect()
}

fn bench_cache(c: &mut Criterion) {
    let dataset = dataset();
    let config = MethodConfig::default();
    let queries = zipf_workload(&dataset);
    let refs: Vec<&Graph> = queries.iter().collect();

    // Two one-shard services per method, each over its own index.
    let mut services = Vec::new();
    for kind in METHODS {
        let mut cold = ShardedService::new(kind, &config, &dataset, ServiceOptions::new());
        let mut warm = ShardedService::new(
            kind,
            &config,
            &dataset,
            ServiceOptions::new().cache(CachePolicy::enabled()),
        );

        // Prime the caches, then gate: the warm batch below is served
        // substantially from the answer memo, and its answers must still
        // be bit-identical to the cache-disabled service's.
        gate_wave(&mut warm, &refs);
        let cold_answers = gate_wave(&mut cold, &refs);
        let warm_answers = gate_wave(&mut warm, &refs);
        assert_eq!(
            cold_answers,
            warm_answers,
            "{}: caching changed a match set",
            kind.name()
        );
        let counters = warm.cache_counters();
        assert!(
            counters.answer_hits > 0,
            "{}: Zipf repeats must hit the answer memo before timing",
            kind.name()
        );
        services.push((kind, cold, warm));
    }

    let mut group = c.benchmark_group("micro_cache");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    for (kind, cold, warm) in &mut services {
        let name = kind.name();
        group.bench_with_input(
            BenchmarkId::new(format!("{name}_cold"), UNIVERSE),
            &refs,
            |b, refs| b.iter(|| run_wave(cold, refs)),
        );
        group.bench_with_input(
            BenchmarkId::new(format!("{name}_warm"), UNIVERSE),
            &refs,
            |b, refs| b.iter(|| run_wave(warm, refs)),
        );
    }
    group.finish();

    // The acceptance bar: ≥3x warm-over-cold median throughput for ≥4 of
    // the 7 methods, straight from the recorded medians.
    let results = c.results();
    let median = |name: &str, mode: &str| {
        results
            .iter()
            .find(|r| r.id == format!("micro_cache/{name}_{mode}/{UNIVERSE}"))
            .map(|r| r.median_ns)
    };
    let mut passing = 0;
    for kind in METHODS {
        let name = kind.name();
        if let (Some(cold_ns), Some(warm_ns)) = (median(name, "cold"), median(name, "warm")) {
            let speedup = cold_ns / warm_ns;
            let qps = |ns: f64| BATCH as f64 / (ns / 1e9);
            println!(
                "cache throughput @ {UNIVERSE} graphs / {BATCH}-query Zipf batch: \
                 {name} cold {:.1} q/s, warm {:.1} q/s ({speedup:.2}x)",
                qps(cold_ns),
                qps(warm_ns),
            );
            if speedup >= 3.0 {
                passing += 1;
            }
        }
    }
    assert!(
        passing >= 4,
        "only {passing} of {} methods reached 3x warm-over-cold; the caching \
         layer is not paying for itself on a Zipf-skewed workload",
        METHODS.len()
    );
}

criterion_group!(benches, bench_cache);
criterion_main!(benches);
