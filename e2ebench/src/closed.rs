//! The closed loops (`aids_closed`, `dense_closed`): one client keeps one
//! query in flight, and each query is served in turn by all seven methods,
//! each on its own fresh 1-shard service with caches off. Serving the
//! methods in turn spreads machine drift over all of them alike.

use crate::report::{Reconcile, Report};
use crate::stats::{self, Metrics, MIB};
use crate::trace::Tracer;
use crate::work::{push_method_metrics, MethodLayers, MethodWork};
use crate::workload::{ClosedInputs, METHODS};
use sqbench_graph::GraphId;
use sqbench_harness::service::{QueryOutcome, ServiceOptions, ShardedService};
use sqbench_index::{build_index, exhaustive_answers, CandidateSet, GraphIndex, MethodConfig};
use sqbench_iso::MatchState;
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Largest relative gap the traced layer times may leave against the
/// untraced latency.
const RECONCILE_TOLERANCE: f64 = 0.25;

/// One served (query, method) pair: the wall time of the `run_wave` call
/// and the stage times its record reports.
struct Pair {
    method: usize,
    wall_s: f64,
    queue_wait_s: f64,
    cache_probe_s: f64,
    shards_probed: usize,
    complete: bool,
}

/// Exhaustive answers of every query. Each query must contain itself in
/// the graph it was extracted from.
fn oracle(inputs: &ClosedInputs) -> Result<Vec<Vec<GraphId>>, String> {
    let mut truth = Vec::with_capacity(inputs.queries.len());
    for (qi, query) in inputs.queries.iter().enumerate() {
        let answers = exhaustive_answers(&inputs.dataset, query);
        if answers.binary_search(&inputs.sources[qi]).is_err() {
            return Err(format!(
                "query {qi}: source graph {} missing from its exhaustive answers",
                inputs.sources[qi]
            ));
        }
        truth.push(answers);
    }
    Ok(truth)
}

fn build_services(inputs: &ClosedInputs, mut tracer: Option<&mut Tracer>) -> Vec<ShardedService> {
    let config = MethodConfig::default();
    METHODS
        .iter()
        .map(|m| {
            let span = tracer.as_mut().map(|t| t.begin("sharded.new", m.key, 0));
            let service =
                ShardedService::new(m.kind, &config, &inputs.dataset, ServiceOptions::new());
            if let (Some(t), Some(span)) = (tracer.as_mut(), span) {
                t.end(span);
            }
            service
        })
        .collect()
}

/// Runs the client loop on a thread of its own. The service's workers are
/// spawned threads too, so both sides allocate from per-thread heap arenas
/// rather than from the main one, which building the inputs fragmented.
fn on_client_thread<R: Send>(client: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|scope| scope.spawn(client).join().expect("client thread panicked"))
}

/// Serves query `qi` on method `mi`'s service and checks the answer. With
/// a tracer, the `run_wave` call is a span whose children are the stage
/// times the record reports, so its self time is the service's untimed
/// remainder.
fn serve(
    service: &mut ShardedService,
    mi: usize,
    qi: usize,
    inputs: &ClosedInputs,
    truth: &[Vec<GraphId>],
    mut tracer: Option<&mut Tracer>,
) -> Result<Pair, String> {
    let key = METHODS[mi].key;
    let qid = qi as u64;
    let span = tracer
        .as_mut()
        .map(|t| t.begin("sharded.run_wave", key, qid));
    let started = Instant::now();
    let report = service.run_wave(&[&inputs.queries[qi]], None);
    let wall_s = started.elapsed().as_secs_f64();
    let [record] = &report.records[..] else {
        return Err(format!(
            "query {qi}: a 1-query wave returned {} records",
            report.records.len()
        ));
    };
    let complete = record.outcome == QueryOutcome::Complete;
    if complete && record.answers != truth[qi] {
        return Err(format!(
            "query {qi} on {key}: {} answers served, {} exhaustive",
            record.answers.len(),
            truth[qi].len()
        ));
    }
    if let (Some(t), Some(span)) = (tracer, span) {
        t.end(span);
        let mut at = t.spans()[span as usize].start_ns;
        for (name, seconds) in [
            ("stage.queue_wait", record.queue_wait_s),
            ("stage.cache_probe", record.cache_probe_s),
            ("stage.filter", record.filter_s),
            ("stage.verify", record.verify_s),
        ] {
            let end = at + (seconds * 1e9) as u64;
            t.record(name, key, qid, at, end, Some(span));
            at = end;
        }
    }
    Ok(Pair {
        method: mi,
        wall_s,
        queue_wait_s: record.queue_wait_s,
        cache_probe_s: record.cache_probe_s,
        shards_probed: record.shards_probed,
        complete,
    })
}

/// One pass over every query, each served by every method in turn.
fn pass(
    services: &mut [ShardedService],
    inputs: &ClosedInputs,
    truth: &[Vec<GraphId>],
    pairs: &mut Vec<Pair>,
) -> Result<(), String> {
    for qi in 0..inputs.queries.len() {
        for (mi, service) in services.iter_mut().enumerate() {
            pairs.push(serve(service, mi, qi, inputs, truth, None)?);
        }
    }
    Ok(())
}

fn index_mb(services: &[ShardedService]) -> f64 {
    services
        .iter()
        .map(|s| s.stats().size_bytes as f64)
        .sum::<f64>()
        / MIB
}

/// Pairs not `Complete` (shed, refused, timed out, failed or degraded).
fn incomplete(pairs: &[Pair]) -> u64 {
    pairs.iter().filter(|p| !p.complete).count() as u64
}

/// Mean of `f` over the `Complete` pairs, in microseconds.
fn mean_us(pairs: &[Pair], f: impl Fn(&Pair) -> f64) -> f64 {
    let complete: Vec<f64> = pairs
        .iter()
        .filter(|p| p.complete)
        .map(|p| f(p) * 1e6)
        .collect();
    stats::mean(&complete)
}

/// Wall times of the `Complete` pairs, in milliseconds.
fn complete_ms(pairs: &[Pair]) -> Vec<f64> {
    pairs
        .iter()
        .filter(|p| p.complete)
        .map(|p| p.wall_s * 1e3)
        .collect()
}

/// Throughput and latency of one pass: `Complete` pairs per second spent
/// in `run_wave`, and the percentiles of their wall times.
struct PassFigures {
    qps: f64,
    p50_ms: f64,
    p99_ms: f64,
}

impl PassFigures {
    fn of(pairs: &[Pair]) -> Self {
        let walls_ms = complete_ms(pairs);
        let serving_s: f64 = pairs.iter().map(|p| p.wall_s).sum();
        PassFigures {
            qps: stats::ratio(walls_ms.len() as f64, serving_s),
            p50_ms: stats::median(&walls_ms),
            p99_ms: stats::percentile(&walls_ms, 0.99),
        }
    }
}

/// The untraced run: end-to-end metrics only.
pub fn run(inputs: &ClosedInputs, seconds: u64) -> Result<Report, String> {
    let truth = oracle(inputs)?;
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut services = Vec::new();
    for _ in 0..SETUPS {
        // Drop the previous set first so the peak holds one set, not two.
        drop(std::mem::take(&mut services));
        let started = Instant::now();
        services = build_services(inputs, None);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let index_mb = index_mb(&services);
    // A warm pass first: it checks every (query, method) answer once and
    // lets Tree+Δ's query-time learning settle before timing.
    let (warm, pairs) = on_client_thread(|| {
        let mut warm = Vec::new();
        pass(&mut services, inputs, &truth, &mut warm)?;
        let mut pairs = Vec::new();
        let started = Instant::now();
        while started.elapsed() < Duration::from_secs(seconds) {
            pass(&mut services, inputs, &truth, &mut pairs)?;
        }
        Ok::<_, String>((warm, pairs))
    })?;

    // The gated figures are best-case estimates of the code's own cost.
    // Every pass serves every (query, method) pair once, so a pair's
    // passes differ in how much the rest of the machine slowed them, and
    // its fastest `Complete` pass is the one slowed least. They are not
    // what the service delivered: that is each pass's figures over all of
    // its `Complete` pairs, stalls included, printed beside them (median
    // pass) and reported by the traced run as `serve.*`.
    let width = inputs.queries.len() * METHODS.len();
    let mut fastest_ms = vec![f64::INFINITY; width];
    for (i, pair) in pairs.iter().enumerate() {
        if pair.complete {
            fastest_ms[i % width] = fastest_ms[i % width].min(pair.wall_s * 1e3);
        }
    }
    fastest_ms.retain(|ms| ms.is_finite());
    let mut metrics = Metrics::default();
    metrics.push("setup_s", stats::median(&setup_s), "s");
    metrics.push("index_mb", index_mb, "MiB");
    metrics.push("rss_mb", stats::peak_rss_mb().unwrap_or(0.0), "MiB");
    metrics.push(
        "best_qps",
        stats::ratio(fastest_ms.len() as f64 * 1e3, fastest_ms.iter().sum()),
        "1/s",
    );
    metrics.push("best_p99_ms", stats::percentile(&fastest_ms, 0.99), "ms");

    let passes: Vec<PassFigures> = pairs.chunks(width).map(PassFigures::of).collect();
    let median_pass =
        |f: fn(&PassFigures) -> f64| stats::median(&passes.iter().map(f).collect::<Vec<_>>());
    let failed = incomplete(&warm) + incomplete(&pairs);
    let mut notes = vec![
        format!(
            "samples: {} passes of {width} (query, method) pairs; best_* over each pair's \
             fastest Complete pass",
            passes.len()
        ),
        format!(
            "delivered (median pass): qps = {:.1} 1/s, p50_ms = {:.4} ms, p99_ms = {:.4} ms; \
             per-pass p99 {:.4}..{:.4} ms",
            median_pass(|p| p.qps),
            median_pass(|p| p.p50_ms),
            median_pass(|p| p.p99_ms),
            passes
                .iter()
                .map(|p| p.p99_ms)
                .fold(f64::INFINITY, f64::min),
            passes.iter().map(|p| p.p99_ms).fold(0.0, f64::max),
        ),
        format!(
            "error_rate = {} (pairs not Complete / attempted, warm pass included)",
            stats::ratio(failed as f64, (warm.len() + pairs.len()) as f64)
        ),
        format!("setup_s per set-up: {setup_s:?}"),
    ];
    for (mi, m) in METHODS.iter().enumerate() {
        let own_ms: Vec<f64> = pairs
            .iter()
            .filter(|p| p.method == mi && p.complete)
            .map(|p| p.wall_s * 1e3)
            .collect();
        notes.push(format!(
            "  {:<10} mean {:.4} ms  p50 {:.4} ms",
            m.key,
            stats::mean(&own_ms),
            stats::median(&own_ms)
        ));
    }
    Ok(Report {
        metrics,
        attempted: (warm.len() + pairs.len()) as u64,
        failed,
        notes,
        reconcile: None,
        tracer: None,
    })
}

/// What the traced client loop measured.
struct Traced {
    tracer: Tracer,
    work: Vec<MethodWork>,
    warm: Vec<Pair>,
    untraced: Vec<Pair>,
    traced: Vec<Pair>,
}

/// The exact counters: one pass in query order over fresh indexes, every
/// answer checked against the oracle.
fn count_work(
    indexes: &[Box<dyn GraphIndex>],
    arenas: &mut [CandidateSet],
    inputs: &ClosedInputs,
    truth: &[Vec<GraphId>],
) -> Result<Vec<MethodWork>, String> {
    let mut work: Vec<MethodWork> = METHODS.iter().map(|_| MethodWork::default()).collect();
    let mut state = MatchState::new();
    for (qi, query) in inputs.queries.iter().enumerate() {
        for (mi, index) in indexes.iter().enumerate() {
            let answers = work[mi].add(
                index.as_ref(),
                &inputs.dataset,
                query,
                &mut arenas[mi],
                &mut state,
            );
            if answers != truth[qi] {
                return Err(format!(
                    "query {qi} on {} (direct): {} answers, {} exhaustive",
                    METHODS[mi].key,
                    answers.len(),
                    truth[qi].len()
                ));
            }
        }
    }
    Ok(work)
}

/// The traced client loop. Per query it runs three variants over all
/// methods — direct filter and verify calls on the benchmark's own index,
/// the service untraced, the service traced — rotating which goes first,
/// so the three see the same machine and the same cache warmth.
fn traced_loop(
    services: &mut [ShardedService],
    indexes: &[Box<dyn GraphIndex>],
    inputs: &ClosedInputs,
    truth: &[Vec<GraphId>],
    budget: Duration,
    epoch: Instant,
) -> Result<Traced, String> {
    let dataset = &inputs.dataset;
    let mut tracer = Tracer::new(epoch);
    let mut arenas: Vec<CandidateSet> = indexes
        .iter()
        .map(|i| CandidateSet::empty(i.universe()))
        .collect();
    let work = count_work(indexes, &mut arenas, inputs, truth)?;
    let mut warm = Vec::new();
    pass(services, inputs, truth, &mut warm)?;

    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let started = Instant::now();
    for qi in (0..inputs.queries.len()).cycle() {
        if started.elapsed() >= budget {
            break;
        }
        let query = &inputs.queries[qi];
        for variant in 0..3 {
            match (qi + variant) % 3 {
                0 => {
                    for (mi, index) in indexes.iter().enumerate() {
                        let key = METHODS[mi].key;
                        let qid = qi as u64;
                        let root = tracer.begin("query.direct", key, qid);
                        let span = tracer.begin("index.filter_into", key, qid);
                        index.filter_into(query, &mut arenas[mi]);
                        tracer.end(span);
                        let span = tracer.begin("iso.verify_set", key, qid);
                        let answers = index.verify_set(dataset, query, &arenas[mi]);
                        tracer.end(span);
                        tracer.end(root);
                        if answers != truth[qi] {
                            return Err(format!("query {qi} on {key} (direct): answers changed"));
                        }
                    }
                }
                1 => {
                    for (mi, service) in services.iter_mut().enumerate() {
                        untraced.push(serve(service, mi, qi, inputs, truth, None)?);
                    }
                }
                _ => {
                    for (mi, service) in services.iter_mut().enumerate() {
                        traced.push(serve(service, mi, qi, inputs, truth, Some(&mut tracer))?);
                    }
                }
            }
        }
    }
    Ok(Traced {
        tracer,
        work,
        warm,
        untraced,
        traced,
    })
}

/// The traced run: per-layer metrics.
pub fn run_traced(inputs: &ClosedInputs, seconds: u64) -> Result<Report, String> {
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);
    let truth = oracle(inputs)?;

    // Set-up, traced: the services, then the benchmark's own index of each
    // method, reached directly for the filter and verify layer spans.
    let mut services = build_services(inputs, Some(&mut tracer));
    let config = MethodConfig::default();
    let indexes: Vec<Box<dyn GraphIndex>> = METHODS
        .iter()
        .map(|m| {
            let span = tracer.begin("index.build", m.key, 0);
            let index = build_index(m.kind, &config, &inputs.dataset);
            tracer.end(span);
            index
        })
        .collect();
    let budget = Duration::from_secs(seconds);
    let Traced {
        tracer: client,
        work,
        warm,
        untraced,
        traced,
    } = on_client_thread(|| traced_loop(&mut services, &indexes, inputs, &truth, budget, epoch))?;
    tracer.absorb(client);

    let layers = tracer.layer_times();
    let layer = |name: &'static str, tag: &'static str| {
        layers.get(&(name, tag)).copied().unwrap_or_default()
    };
    let pooled = |name: &'static str| {
        METHODS.iter().fold((0u64, 0u64, 0u64), |acc, m| {
            let l = layer(name, m.key);
            (acc.0 + l.count, acc.1 + l.total_ns, acc.2 + l.self_ns)
        })
    };

    let mut metrics = Metrics::default();
    for (mi, m) in METHODS.iter().enumerate() {
        let layers = MethodLayers {
            build: layer("index.build", m.key),
            size_bytes: indexes[mi].stats().size_bytes,
            filter: layer("index.filter_into", m.key),
            verify: layer("iso.verify_set", m.key),
            work: &work[mi],
        };
        push_method_metrics(&mut metrics, m.key, Some(layers));
    }

    let (waves, wave_ns, overhead_ns) = pooled("sharded.run_wave");
    let per_wave_us = |ns: u64| stats::ratio(ns as f64, waves as f64) / 1e3;
    let share = |ns: u64| stats::ratio(ns as f64, wave_ns as f64);
    let (_, queue_wait_ns, _) = pooled("stage.queue_wait");
    let (_, filter_ns, _) = pooled("stage.filter");
    let (_, verify_ns, _) = pooled("stage.verify");
    metrics.push("service.overhead_us", per_wave_us(overhead_ns), "us");
    metrics.push("service.queue_wait_us", per_wave_us(queue_wait_ns), "us");
    metrics.push("share.filter", share(filter_ns), "ratio");
    metrics.push("share.verify", share(verify_ns), "ratio");
    metrics.push("share.overhead", share(overhead_ns), "ratio");
    metrics.push("route.plan_us", 0.0, "us");
    metrics.push(
        "route.shards_probed",
        warm.iter().map(|p| p.shards_probed as f64).sum(),
        "count",
    );
    metrics.push("route.shards_skipped", 0.0, "count");
    push_idle_service_layers(&mut metrics);
    let delivered = PassFigures::of(&untraced);
    metrics.push("serve.qps", delivered.qps, "1/s");
    metrics.push("serve.p50_ms", delivered.p50_ms, "ms");
    metrics.push("serve.p99_ms", delivered.p99_ms, "ms");
    let attempted = (warm.len() + untraced.len() + traced.len()) as u64;
    let failed = incomplete(&warm) + incomplete(&untraced) + incomplete(&traced);
    metrics.push(
        "serve.error_rate",
        stats::ratio(failed as f64, attempted as f64),
        "ratio",
    );
    metrics.push("index.partition_ms", 0.0, "ms");
    metrics.push("route.build_ms", 0.0, "ms");
    metrics.push(
        "answers.total",
        work.iter().map(|w| w.answers).sum::<u64>() as f64,
        "count",
    );

    // Reconciliation: the layer times (direct filter and verify, plus the
    // service's queue wait, cache probe and untimed remainder) against the
    // untraced latency of the same interleaved pairs.
    let untraced_us = mean_us(&untraced, |p| p.wall_s);
    let traced_us = mean_us(&traced, |p| p.wall_s);
    let (direct, _, _) = pooled("query.direct");
    let direct_us = |name| stats::ratio(pooled(name).1 as f64, direct as f64) / 1e3;
    let layer_sum_us = direct_us("index.filter_into")
        + direct_us("iso.verify_set")
        + mean_us(&traced, |p| p.queue_wait_s + p.cache_probe_s)
        + per_wave_us(overhead_ns);
    let reconcile = stats::ratio(layer_sum_us - untraced_us, untraced_us);
    metrics.push("trace.reconcile_err", reconcile, "ratio");
    metrics.push(
        "trace.overhead_pct",
        100.0 * stats::ratio(traced_us - untraced_us, untraced_us),
        "%",
    );

    let notes = vec![
        format!(
            "pairs: warm {}, untraced {}, traced {}; direct (query, method) calls {direct}",
            warm.len(),
            untraced.len(),
            traced.len()
        ),
        format!(
            "mean per (query, method): untraced {untraced_us:.2} us, traced {traced_us:.2} us, \
             layer sum {layer_sum_us:.2} us"
        ),
    ];
    Ok(Report {
        metrics,
        attempted,
        failed,
        notes,
        reconcile: Some(Reconcile {
            err: reconcile,
            tolerance: RECONCILE_TOLERANCE,
        }),
        tracer: Some(tracer),
    })
}

/// Layers the closed loops never reach: no admission queue, no caches, no
/// ingest and no arrival schedule.
fn push_idle_service_layers(metrics: &mut Metrics) {
    for (name, unit) in [
        ("cache.memo_hit_ratio", "ratio"),
        ("cache.feature_hit_ratio", "ratio"),
        ("cache.memo_key_us", "us"),
        ("cache.evictions", "count"),
        ("cache.invalidations", "count"),
        ("admission.submit_us", "us"),
        ("admission.queue_wait_p99_ms", "ms"),
        ("admission.shed_ratio", "ratio"),
        ("ingest.insert_us", "us"),
        ("ingest.remove_us", "us"),
        ("loadgen.lag_p99_ms", "ms"),
        ("serve.slo_qps", "1/s"),
    ] {
        metrics.push(name, 0.0, unit);
    }
}
