//! Throughput micro-benchmark of the sharded query service over a
//! 10k-graph synthetic dataset.
//!
//! Four execution modes serve the same 24-query workload:
//!
//! * `unsharded`    — a one-shard service (1 worker): one index over the
//!   whole dataset;
//! * `shards4_rr`   — 4 shards, round-robin placement, each shard a
//!   1-worker pool, waves fanned out to all shards concurrently;
//! * `shards4_lpt`  — 4 shards, size-balanced (LPT) placement;
//! * `admission4`   — the open path: 24 queries submitted to the bounded
//!   admission queue, then drained through the 4-shard service (measures
//!   the submit + drain overhead on top of the wave itself).
//!
//! Before timing, the bench asserts every mode returns the oneshot
//! `index.query()` answers — sharding must be invisible in match sets. On
//! a single-core container all modes land within noise of each other
//! (shard pools cannot overlap); the ≥1.5× shard-parallel gain only shows
//! on multi-core runners. The committed `BENCH_micro_sharded.json`
//! baseline records this machine's numbers for the CI regression gate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sqbench_generator::{GraphGen, GraphGenConfig, QueryGen};
use sqbench_graph::{Dataset, Graph};
use sqbench_harness::service::{AdmissionQueue, ServiceOptions, ShardStrategy, ShardedService};
use sqbench_index::{build_index, MethodConfig, MethodKind};

const UNIVERSE: usize = 10_000;
const BATCH: usize = 24;
const SHARDS: usize = 4;

fn sharded_dataset() -> Dataset {
    GraphGen::new(
        GraphGenConfig::default()
            .with_graph_count(UNIVERSE)
            .with_avg_nodes(10)
            .with_avg_density(0.2)
            .with_label_count(6)
            .with_seed(20150831),
    )
    .generate()
}

fn sharded_queries(dataset: &Dataset) -> Vec<Graph> {
    QueryGen::new(0x005e_aded)
        .generate(dataset, BATCH, 4)
        .iter()
        .map(|(q, _)| q.clone())
        .collect()
}

/// One closed wave through a sharded service; per-query answer counts.
fn run_wave(service: &mut ShardedService, queries: &[&Graph]) -> Vec<usize> {
    service
        .run_wave(queries, None)
        .records
        .iter()
        .map(|r| r.answer_count())
        .collect()
}

/// The open path: submit the whole workload, then drain it as one wave.
fn run_admission(service: &mut ShardedService, queries: &[Graph]) -> Vec<usize> {
    let queue = AdmissionQueue::new(ServiceOptions::new().queue_capacity(queries.len()));
    for q in queries {
        queue
            .submit(q.clone(), None)
            .expect("queue sized for the workload");
    }
    service
        .drain(&queue, None)
        .records
        .iter()
        .map(|r| r.answer_count())
        .collect()
}

fn bench_sharded(c: &mut Criterion) {
    let dataset = sharded_dataset();
    let config = MethodConfig::default();
    let queries = sharded_queries(&dataset);
    let refs: Vec<&Graph> = queries.iter().collect();

    let index = build_index(MethodKind::Ggsx, &config, &dataset);
    let mut unsharded = ShardedService::new(
        MethodKind::Ggsx,
        &config,
        &dataset,
        ServiceOptions::new().shards(1),
    );
    let mut rr = ShardedService::new(
        MethodKind::Ggsx,
        &config,
        &dataset,
        ServiceOptions::new().shards(SHARDS),
    );
    let mut lpt = ShardedService::new(
        MethodKind::Ggsx,
        &config,
        &dataset,
        ServiceOptions::new()
            .shards(SHARDS)
            .strategy(ShardStrategy::SizeBalanced),
    );

    // Correctness gate before any timing: sharding must be invisible in
    // the match sets — every mode equals the oneshot per-query answers.
    let oneshot: Vec<usize> = refs
        .iter()
        .map(|q| index.query(&dataset, q).answers.len())
        .collect();
    assert_eq!(oneshot, run_wave(&mut unsharded, &refs));
    assert_eq!(oneshot, run_wave(&mut rr, &refs));
    assert_eq!(oneshot, run_wave(&mut lpt, &refs));
    assert_eq!(oneshot, run_admission(&mut rr, &queries));

    let mut group = c.benchmark_group("micro_sharded_wave");
    group.sample_size(15);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(4));
    group.bench_with_input(BenchmarkId::new("unsharded", UNIVERSE), &refs, |b, refs| {
        b.iter(|| run_wave(&mut unsharded, refs))
    });
    group.bench_with_input(
        BenchmarkId::new("shards4_rr", UNIVERSE),
        &refs,
        |b, refs| b.iter(|| run_wave(&mut rr, refs)),
    );
    group.bench_with_input(
        BenchmarkId::new("shards4_lpt", UNIVERSE),
        &refs,
        |b, refs| b.iter(|| run_wave(&mut lpt, refs)),
    );
    group.bench_with_input(
        BenchmarkId::new("admission4", UNIVERSE),
        &queries,
        |b, queries| b.iter(|| run_admission(&mut rr, queries)),
    );
    group.finish();

    // Throughput summary straight from the recorded medians.
    let results = c.results();
    let median = |name: &str| {
        results
            .iter()
            .find(|r| r.id == format!("micro_sharded_wave/{name}/{UNIVERSE}"))
            .map(|r| r.median_ns)
    };
    if let (Some(base), Some(rr_ns), Some(lpt_ns), Some(adm)) = (
        median("unsharded"),
        median("shards4_rr"),
        median("shards4_lpt"),
        median("admission4"),
    ) {
        let qps = |ns: f64| BATCH as f64 / (ns / 1e9);
        println!(
            "sharded throughput @ {UNIVERSE} graphs / {BATCH}-query wave: \
             unsharded {:.1} q/s, shards4_rr {:.1} q/s, shards4_lpt {:.1} q/s, \
             admission4 {:.1} q/s (rr vs unsharded {:.2}x; admission overhead {:.2}x; cores: {})",
            qps(base),
            qps(rr_ns),
            qps(lpt_ns),
            qps(adm),
            base / rr_ns,
            adm / rr_ns,
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        );
    }
}

criterion_group!(benches, bench_sharded);
criterion_main!(benches);
