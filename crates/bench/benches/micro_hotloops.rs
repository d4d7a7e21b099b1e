//! Raw-speed A/B micro-benchmarks of the filter/verify hot-loop
//! optimisations, each timed against the implementation it replaced:
//!
//! * `hotloop_intersect` — the 4×u64 wide intersection/mask kernels of
//!   [`CandidateSet`] vs the one-word-at-a-time scalar loops they replaced
//!   (kept as `*_scalar` for exactly this comparison);
//! * `hotloop_posting_order` — a multi-feature posting fold applied
//!   rarest-feature-first (what every method's `filter_into` now does) vs
//!   the unordered arrival-order fold.
//!
//! A third group, `gallop_crossover`, measures where galloping intersection
//! overtakes the linear merge across size-skew ratios — the measurement
//! behind [`sqbench_index::candidates::GALLOP_CROSSOVER`].
//!
//! Every axis asserts its correctness gate **before** timing: both sides of
//! each A/B pair must produce identical results. The committed
//! `BENCH_micro_hotloops.json` baseline feeds the CI regression gate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sqbench_graph::GraphId;
use sqbench_index::candidates::{
    intersect_gallop, intersect_posting, CandidateSet, Tombstones, GALLOP_CROSSOVER,
};
use sqbench_index::intersect_sorted;

// ---------------------------------------------------------------- intersect

const INTERSECT_UNIVERSE: usize = 100_000;

/// Candidate sets shaped like a multi-feature filter fold: densities from
/// ~1/2 down to ~1/9, plus a ~1% tombstone mask.
fn intersect_fixture() -> (CandidateSet, Vec<CandidateSet>, Tombstones) {
    let sets: Vec<CandidateSet> = (0..8)
        .map(|i| {
            let stride = i + 2;
            let ids: Vec<GraphId> = (0..INTERSECT_UNIVERSE)
                .filter(|id| id % stride == i % stride)
                .collect();
            CandidateSet::from_sorted_ids(INTERSECT_UNIVERSE, &ids)
        })
        .collect();
    let dead_ids: Vec<GraphId> = (0..INTERSECT_UNIVERSE).step_by(101).collect();
    let dead = Tombstones::from_sorted(&dead_ids);
    (CandidateSet::full(INTERSECT_UNIVERSE), sets, dead)
}

fn fold_intersect_wide(base: &CandidateSet, sets: &[CandidateSet], dead: &Tombstones) -> usize {
    let mut acc = base.clone();
    for s in sets {
        acc.intersect_with(s);
    }
    dead.apply(&mut acc);
    acc.len()
}

fn fold_intersect_scalar(base: &CandidateSet, sets: &[CandidateSet], dead: &Tombstones) -> usize {
    let mut acc = base.clone();
    for s in sets {
        acc.intersect_with_scalar(s);
    }
    dead.apply_scalar(&mut acc);
    acc.len()
}

// ------------------------------------------------------------ posting order

const POSTING_UNIVERSE: usize = 100_000;

/// Posting lists in *arrival* order: dense features first, the rarest last
/// — the worst case the frequency-ordered fold exists to avoid.
fn posting_fixture() -> Vec<Vec<GraphId>> {
    [2usize, 3, 4, 6, 50, 400]
        .iter()
        .map(|&stride| (0..POSTING_UNIVERSE).step_by(stride).collect())
        .collect()
}

fn fold_postings(lists: &[&Vec<GraphId>]) -> Vec<GraphId> {
    let mut acc: Vec<GraphId> = lists[0].clone();
    for list in &lists[1..] {
        if acc.is_empty() {
            break;
        }
        acc = intersect_posting(&acc, list);
    }
    acc
}

// --------------------------------------------------------------------- main

fn bench_hotloops(c: &mut Criterion) {
    // ---- Axis 1: wide vs scalar intersection kernels.
    let (base, sets, dead) = intersect_fixture();
    {
        let mut wide = base.clone();
        let mut scalar = base.clone();
        for s in &sets {
            wide.intersect_with(s);
            scalar.intersect_with_scalar(s);
        }
        dead.apply(&mut wide);
        dead.apply_scalar(&mut scalar);
        assert_eq!(
            wide.to_sorted_vec(),
            scalar.to_sorted_vec(),
            "wide kernels diverged from the scalar reference"
        );
    }
    let mut group = c.benchmark_group("hotloop_intersect");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.bench_with_input(
        BenchmarkId::new("scalar", INTERSECT_UNIVERSE),
        &(&base, &sets, &dead),
        |b, (base, sets, dead)| b.iter(|| fold_intersect_scalar(base, sets, dead)),
    );
    group.bench_with_input(
        BenchmarkId::new("wide", INTERSECT_UNIVERSE),
        &(&base, &sets, &dead),
        |b, (base, sets, dead)| b.iter(|| fold_intersect_wide(base, sets, dead)),
    );
    group.finish();

    // ---- Axis 2: arrival-order vs rarest-first posting folds.
    let lists = posting_fixture();
    let arrival: Vec<&Vec<GraphId>> = lists.iter().collect();
    let mut rarest_first = arrival.clone();
    rarest_first.sort_by_key(|l| l.len());
    assert_eq!(
        fold_postings(&arrival),
        fold_postings(&rarest_first),
        "posting order changed the fold result"
    );
    let mut group = c.benchmark_group("hotloop_posting_order");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.bench_with_input(
        BenchmarkId::new("arrival", POSTING_UNIVERSE),
        &arrival,
        |b, lists| b.iter(|| fold_postings(lists)),
    );
    group.bench_with_input(
        BenchmarkId::new("rarest_first", POSTING_UNIVERSE),
        &rarest_first,
        |b, lists| b.iter(|| fold_postings(lists)),
    );
    group.finish();

    // ---- Gallop crossover measurement (the GALLOP_CROSSOVER constant).
    let mut group = c.benchmark_group("gallop_crossover");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(1));
    let large: Vec<GraphId> = (0..(1usize << 15)).map(|i| i * 2).collect();
    for ratio in [2usize, 4, 8, 10, 12, 16, 32, 64] {
        let small: Vec<GraphId> = large.iter().copied().step_by(ratio).collect();
        assert_eq!(
            intersect_gallop(&small, &large),
            intersect_sorted(&small, &large)
        );
        group.bench_with_input(
            BenchmarkId::new("merge", ratio),
            &(&small, &large),
            |b, (small, large)| b.iter(|| intersect_sorted(small, large)),
        );
        group.bench_with_input(
            BenchmarkId::new("gallop", ratio),
            &(&small, &large),
            |b, (small, large)| b.iter(|| intersect_gallop(small, large)),
        );
    }
    group.finish();

    // ---- Speedup summary straight from the recorded medians.
    let results = c.results();
    let median = |id: &str| results.iter().find(|r| r.id == id).map(|r| r.median_ns);
    let pairs = [
        (
            "intersect kernels",
            format!("hotloop_intersect/scalar/{INTERSECT_UNIVERSE}"),
            format!("hotloop_intersect/wide/{INTERSECT_UNIVERSE}"),
        ),
        (
            "posting order",
            format!("hotloop_posting_order/arrival/{POSTING_UNIVERSE}"),
            format!("hotloop_posting_order/rarest_first/{POSTING_UNIVERSE}"),
        ),
    ];
    for (name, before, after) in &pairs {
        if let (Some(before_ns), Some(after_ns)) = (median(before), median(after)) {
            println!(
                "{name:>18}: before {before_ns:>14.1} ns, after {after_ns:>14.1} ns, \
                 speedup {:.2}x",
                before_ns / after_ns
            );
        }
    }
    for ratio in [2usize, 4, 8, 10, 12, 16, 32, 64] {
        if let (Some(m), Some(g)) = (
            median(&format!("gallop_crossover/merge/{ratio}")),
            median(&format!("gallop_crossover/gallop/{ratio}")),
        ) {
            println!(
                "gallop @ ratio {ratio:>3}: merge {m:>12.1} ns, gallop {g:>12.1} ns ({})",
                if g < m { "gallop wins" } else { "merge wins" }
            );
        }
    }
    println!("configured GALLOP_CROSSOVER = {GALLOP_CROSSOVER}");
}

criterion_group!(benches, bench_hotloops);
criterion_main!(benches);
