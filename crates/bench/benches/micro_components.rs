//! Micro-benchmarks of the substrates every method is built from: path /
//! tree / cycle enumeration, canonical labels, fingerprints, and the VF2
//! subgraph-isomorphism matcher.

use criterion::{criterion_group, criterion_main, Criterion};
use sqbench_bench::default_dataset;
use sqbench_generator::QueryGen;

fn bench_components(c: &mut Criterion) {
    let dataset = default_dataset();
    let graph = dataset.graph_unchecked(0).clone();
    let workload = QueryGen::new(9).generate(&dataset, 1, 8);
    let (query, source) = workload.iter().next().unwrap();
    let target = dataset.graph_unchecked(source).clone();
    let query = query.clone();

    let mut group = c.benchmark_group("micro_feature_extraction");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.bench_function("enumerate_paths_len4", |b| {
        b.iter(|| sqbench_features::paths::enumerate_paths(&graph, 4))
    });
    group.bench_function("enumerate_trees_len4", |b| {
        b.iter(|| sqbench_features::trees::enumerate_trees(&graph, 4))
    });
    group.bench_function("enumerate_cycles_len4", |b| {
        b.iter(|| sqbench_features::cycles::enumerate_cycles(&graph, 4))
    });
    group.bench_function("enumerate_subgraphs_len3", |b| {
        b.iter(|| sqbench_features::subgraphs::enumerate_connected_subgraphs(&graph, 3))
    });
    group.finish();

    let mut canon = c.benchmark_group("micro_canonical_labels");
    canon.sample_size(20);
    canon.warm_up_time(std::time::Duration::from_secs(1));
    canon.measurement_time(std::time::Duration::from_secs(2));
    canon.bench_function("graph_key_8_edge_query", |b| {
        b.iter(|| sqbench_features::canonical::graph_key(&query))
    });
    canon.finish();

    let mut fp = c.benchmark_group("micro_fingerprint");
    fp.sample_size(20);
    fp.warm_up_time(std::time::Duration::from_secs(1));
    fp.measurement_time(std::time::Duration::from_secs(2));
    fp.bench_function("build_4096bit_fingerprint", |b| {
        b.iter(|| {
            let mut f = sqbench_features::Fingerprint::new(4096);
            for (key, _) in sqbench_features::trees::enumerate_trees(&graph, 4) {
                f.insert_key(&key, 1);
            }
            f
        })
    });
    fp.finish();

    let mut iso = c.benchmark_group("micro_subgraph_isomorphism");
    iso.sample_size(20);
    iso.warm_up_time(std::time::Duration::from_secs(1));
    iso.measurement_time(std::time::Duration::from_secs(2));
    iso.bench_function("vf2_first_match", |b| {
        b.iter(|| sqbench_iso::has_subgraph_embedding(&query, &target))
    });
    iso.finish();
}

criterion_group!(benches, bench_components);
criterion_main!(benches);
