//! The open read/write loop (`aids_open_rw`): one paced producer thread
//! replays a seeded Poisson schedule at a fixed absolute rate over a
//! Zipf-popular pool of extracted queries, with a small share of inserts
//! and removes interleaved, into the `AdmissionQueue` of a 2-shard
//! `ShardedService` (label-aware placement, synopsis routing, both caches,
//! GGSX, one worker per shard). The calling thread drains waves.

use crate::report::{Reconcile, Report};
use crate::stats::{self, Metrics, MIB};
use crate::trace::Tracer;
use crate::work::{push_method_metrics, MethodLayers, MethodWork};
use crate::workload::{mix, OpenInputs, METHODS};
use sqbench_graph::{Dataset, GraphId};
use sqbench_harness::loadgen::{ArrivalProcess, LoadGenConfig};
use sqbench_harness::service::{
    answer_memo_key, partition_dataset, AdmissionQueue, CachePolicy, QueryOutcome, Router,
    RoutingMode, ServiceOptions, ShardStrategy, ShardedQueryRecord, ShardedService, Ticket,
};
use sqbench_harness::CacheCounters;
use sqbench_index::{
    build_index, exhaustive_answers, CandidateSet, GraphIndex, MethodConfig, MethodKind,
};
use sqbench_iso::{MatchState, Vf2Matcher};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const SHARDS: usize = 2;
/// Offered operations per second (reads and writes together). Fixed, not
/// calibrated: a slower service sees the same load and shows it.
const RATE_QPS: f64 = 1_000.0;
/// Share of operations that are writes, alternating insert and remove.
/// Each remove stalls the drain loop for tens of milliseconds, and at this
/// share roughly a tenth of the reads queue behind one, so `p99_ms` sits
/// among them and moves with the cost of ingest rather than with chance.
const WRITE_SHARE: f64 = 0.01;
/// Per-read deadline, counted from the read's due time.
const DEADLINE: Duration = Duration::from_millis(250);
const QUEUE_CAPACITY: usize = 1_024;
/// Set-ups per untraced run; `setup_s` is their median. One set-up takes
/// a fraction of a second, so more of them than the closed loops' three.
const SETUPS: usize = 15;
/// Equal spans of the schedule the `best_*` figures are chosen among.
const WINDOWS: usize = 5;
/// Longest the draining thread waits for the producer's doorbell.
const IDLE: Duration = Duration::from_millis(1);

/// The fixed rate ladder of `serve.slo_qps` and its limits: a rung passes
/// when p99 latency and the error rate stay under the limits and the queue
/// drains within `SLO_DRAIN` of the last due time. Writes scale with the
/// rate, so the rung that fails is where remove stalls start to pile up;
/// the p99 limit sits above one stall.
const LADDER_QPS: [f64; 6] = [250.0, 500.0, 1_000.0, 2_000.0, 4_000.0, 8_000.0];
const LADDER_SECONDS: f64 = 2.0;
const SLO_P99_MS: f64 = 100.0;
const SLO_ERROR_RATE: f64 = 0.01;
const SLO_DRAIN: Duration = Duration::from_millis(100);
/// Timed repetitions of the direct filter and verify calls over the pool.
const DIRECT_REPEATS: usize = 10;
/// Largest relative gap the traced layer times may leave against the
/// untraced mean latency. Wider than the closed loops' 25%: the mean is
/// mostly reads queued behind remove stalls, whose share grows with the
/// square of the stall length, so it lands up to ±20% off at 15 s (and
/// up to 60% on 3 s runs).
const RECONCILE_TOLERANCE: f64 = 0.5;
/// Serving passes of the traced run, in order (`true`: traced). Untraced
/// and traced passes alternate in ABBA order, each on a fresh service, so
/// a drift of the machine over the run cancels out of their comparison.
const TRACED_RUN_PASSES: [bool; 4] = [false, true, true, false];
/// Direct `insert_graph`/`remove_graph` calls timed after traced serving.
const INGEST_CALLS: usize = 10;

fn options() -> ServiceOptions {
    ServiceOptions::new()
        .shards(SHARDS)
        .strategy(ShardStrategy::LabelAware)
        .routing(RoutingMode::Synopsis)
        .cache(CachePolicy::enabled())
        .workers(1)
        .queue_capacity(QUEUE_CAPACITY)
}

fn build_service(dataset: &Dataset) -> ShardedService {
    ShardedService::new(
        MethodKind::Ggsx,
        &MethodConfig::default(),
        dataset,
        options(),
    )
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    /// Read of pool query `i`.
    Read(usize),
    /// Insert of held-out graph `i`.
    Insert(usize),
    /// Removal of a graph id that is live at this point of the schedule.
    Remove(GraphId),
}

#[derive(Debug, Clone, Copy)]
struct Op {
    due_ns: u64,
    kind: OpKind,
}

/// The operation schedule: the `loadgen` arrival schedule at `rate` over
/// `seconds`, with a seeded `WRITE_SHARE` of arrivals turned into writes.
/// Writes alternate insert and remove; a remove draws its id from the
/// graphs live at that point (a repeated remove would return early and
/// hide its cost), so the mirror and the service agree on every id.
fn schedule(inputs: &OpenInputs, rate: f64, seconds: f64, seed: u64) -> Vec<Op> {
    let arrivals = LoadGenConfig::new(
        ArrivalProcess::Poisson { qps: rate },
        (rate * seconds) as usize,
    )
    .seed(mix(seed, 11))
    .zipf_exponent(1.0)
    .schedule(inputs.pool.len());
    let mut draw = mix(seed, 12);
    let mut unit = move || {
        draw = mix(draw, 13);
        (draw >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut live: Vec<GraphId> = inputs.dataset.ids().collect();
    let mut next_id = inputs.dataset.len();
    // A fixed number of writes, one at a seeded position in each equal
    // block of the schedule, so every seed writes equally often.
    let writes = ((arrivals.len() as f64 * WRITE_SHARE).round() as usize).max(2);
    let block = (arrivals.len() / writes).max(1);
    let mut write_at: Vec<usize> = (0..writes)
        .map(|w| w * block + ((unit() * block as f64) as usize).min(block - 1))
        .collect();
    write_at.reverse();
    let (mut written, mut inserted) = (0usize, 0usize);
    arrivals
        .iter()
        .enumerate()
        .map(|(i, arrival)| {
            let kind = if write_at.last() != Some(&i) {
                OpKind::Read(arrival.pool_index)
            } else {
                write_at.pop();
                written += 1;
                if written % 2 == 1 && inserted < inputs.held_out.len() {
                    live.push(next_id);
                    next_id += 1;
                    inserted += 1;
                    OpKind::Insert(inserted - 1)
                } else {
                    let at = ((unit() * live.len() as f64) as usize).min(live.len() - 1);
                    OpKind::Remove(live.swap_remove(at))
                }
            };
            Op {
                due_ns: arrival.at_nanos,
                kind,
            }
        })
        .collect()
}

/// What the producer saw for one operation.
#[derive(Debug, Clone, Copy)]
struct Sent {
    ticket: Option<Ticket>,
    /// Nanoseconds the producer ran late: send time minus due time.
    lag_ns: u64,
}

/// One serving pass over a schedule.
struct Served {
    sent: Vec<Sent>,
    records: Vec<ShardedQueryRecord>,
    /// Seconds from the schedule's start until the last wave returned.
    wall_s: f64,
    inserts_applied: usize,
    removes_applied: usize,
}

/// Replays `ops` against a fresh queue in front of `service`. With an
/// epoch, both threads record spans and the merged tracer is returned.
fn serve(
    service: &mut ShardedService,
    inputs: &OpenInputs,
    ops: &[Op],
    epoch: Option<Instant>,
) -> (Served, Option<Tracer>) {
    let queue = AdmissionQueue::new(options());
    // The producer rings after every submission, so the draining thread
    // sleeps on the doorbell instead of polling the queue.
    let (bell, rings) = mpsc::channel::<()>();
    let start = Instant::now();
    let queue = &queue;
    std::thread::scope(|scope| {
        let producer = scope.spawn(move || {
            let mut tracer = epoch.map(Tracer::new);
            let mut sent = Vec::with_capacity(ops.len());
            for (i, op) in ops.iter().enumerate() {
                let due = start + Duration::from_nanos(op.due_ns);
                let wait = due.saturating_duration_since(Instant::now());
                if !wait.is_zero() {
                    std::thread::sleep(wait);
                }
                let send = Instant::now();
                if let (Some(t), OpKind::Read(p)) = (tracer.as_mut(), op.kind) {
                    let span = t.begin("cache.answer_memo_key", "read", i as u64);
                    std::hint::black_box(answer_memo_key(&inputs.pool[p]));
                    t.end(span);
                }
                let submit = Instant::now();
                let (tag, result) = match op.kind {
                    OpKind::Read(p) => (
                        "read",
                        queue.submit_or_shed(inputs.pool[p].clone(), Some(due + DEADLINE)),
                    ),
                    OpKind::Insert(h) => {
                        ("insert", queue.submit_insert(inputs.held_out[h].clone()))
                    }
                    OpKind::Remove(id) => ("remove", queue.submit_remove(id)),
                };
                if let Some(t) = tracer.as_mut() {
                    let (from, to) = (t.ns_since_epoch(submit), t.now_ns());
                    t.record("admission.submit", tag, i as u64, from, to, None);
                }
                // The receiver outlives the producer inside this scope.
                let _ = bell.send(());
                sent.push(Sent {
                    ticket: result.ok(),
                    lag_ns: send.saturating_duration_since(due).as_nanos() as u64,
                });
            }
            (sent, tracer)
        });
        let mut tracer = epoch.map(Tracer::new);
        let mut records = Vec::with_capacity(ops.len());
        let (mut inserts_applied, mut removes_applied) = (0, 0);
        let mut waves = 0u64;
        loop {
            let drain_start = Instant::now();
            let wave = service.drain(queue, None);
            if wave.records.is_empty() {
                if producer.is_finished() && queue.is_empty() {
                    break;
                }
                // A ring, a timeout and a hung-up producer all mean: drain
                // again.
                let _ = rings.recv_timeout(IDLE);
                continue;
            }
            if let Some(t) = tracer.as_mut() {
                let (from, to) = (t.ns_since_epoch(drain_start), t.now_ns());
                t.record("sharded.drain", "", waves, from, to, None);
            }
            waves += 1;
            inserts_applied += wave.inserts_applied;
            removes_applied += wave.removes_applied;
            records.extend(wave.records);
        }
        let wall_s = start.elapsed().as_secs_f64();
        let (sent, producer_tracer) = producer.join().expect("producer thread panicked");
        if let (Some(t), Some(p)) = (tracer.as_mut(), producer_tracer) {
            t.absorb(p);
        }
        let served = Served {
            sent,
            records,
            wall_s,
            inserts_applied,
            removes_applied,
        };
        (served, tracer)
    })
}

/// A served pass after the correctness gate: per-read outcomes joined
/// with the schedule.
#[derive(Default)]
struct Checked {
    reads: u64,
    /// Reads not `Complete`: shed, refused, timed out, failed or degraded.
    errors: u64,
    shed: u64,
    /// Due time (ns into the schedule) and due-time latency (ms) of every
    /// `Complete` read.
    latencies: Vec<(u64, f64)>,
    /// Records of the reads the service executed, each with the pool
    /// query it read.
    read_records: Vec<(usize, ShardedQueryRecord)>,
    /// Σ exhaustive answer counts over the scheduled reads.
    answer_total: u64,
    lag_ms: Vec<f64>,
}

/// The correctness gate of the open loop: replays the schedule in ticket
/// order on a mirror dataset and checks every executed read against the
/// mirror's exhaustive answers at that point — a `Complete` answer
/// (memo-served included) must equal them, a `Degraded` one must be a
/// subset. Every admitted ticket must come back in exactly one record.
fn check(inputs: &OpenInputs, ops: &[Op], served: Served) -> Result<Checked, String> {
    let mut op_of_ticket = vec![usize::MAX; ops.len()];
    for (i, sent) in served.sent.iter().enumerate() {
        match (sent.ticket, ops[i].kind) {
            (Some(ticket), _) => op_of_ticket[ticket as usize] = i,
            (None, OpKind::Read(_)) => {}
            (None, kind) => return Err(format!("write {kind:?} (op {i}) was refused")),
        }
    }
    let mut record_of_op: Vec<Option<ShardedQueryRecord>> = vec![None; ops.len()];
    for record in served.records {
        let op = *op_of_ticket
            .get(record.ticket as usize)
            .filter(|&&op| op != usize::MAX)
            .ok_or_else(|| format!("record for unknown ticket {}", record.ticket))?;
        if record_of_op[op].replace(record).is_some() {
            return Err(format!("ticket of op {op} answered twice"));
        }
    }

    let mut mirror = inputs.dataset.clone();
    let mut truth: Vec<Vec<GraphId>> = inputs
        .pool
        .iter()
        .map(|q| exhaustive_answers(&mirror, q))
        .collect();
    for (p, answers) in truth.iter().enumerate() {
        if answers.binary_search(&inputs.pool_sources[p]).is_err() {
            return Err(format!(
                "pool query {p}: source graph missing from its answers"
            ));
        }
    }
    let mut checked = Checked {
        reads: 0,
        errors: 0,
        shed: 0,
        latencies: Vec::new(),
        read_records: Vec::new(),
        answer_total: 0,
        lag_ms: served.sent.iter().map(|s| s.lag_ns as f64 / 1e6).collect(),
    };
    let mut removes = 0;
    for (i, op) in ops.iter().enumerate() {
        let record = record_of_op[i].take();
        match op.kind {
            OpKind::Read(p) => {
                checked.reads += 1;
                checked.answer_total += truth[p].len() as u64;
                let Some(record) = record else {
                    if served.sent[i].ticket.is_some() {
                        return Err(format!("read {i} was admitted but never answered"));
                    }
                    checked.errors += 1;
                    checked.shed += 1;
                    continue;
                };
                match record.outcome {
                    QueryOutcome::Complete if record.answers != truth[p] => {
                        return Err(format!(
                            "read {i} of pool query {p}: {} answers served, {} exhaustive",
                            record.answers.len(),
                            truth[p].len()
                        ));
                    }
                    QueryOutcome::Complete => {
                        let lag_s = served.sent[i].lag_ns as f64 / 1e9;
                        checked
                            .latencies
                            .push((op.due_ns, (lag_s + record.latency_s) * 1e3));
                    }
                    QueryOutcome::Degraded { .. } => {
                        if record
                            .answers
                            .iter()
                            .any(|id| truth[p].binary_search(id).is_err())
                        {
                            return Err(format!("read {i}: degraded answers are not a subset"));
                        }
                        checked.errors += 1;
                    }
                    _ => checked.errors += 1,
                }
                if record.outcome.is_executed() {
                    checked.read_records.push((p, record));
                }
            }
            OpKind::Insert(h) => {
                record.ok_or_else(|| format!("insert op {i} never drained"))?;
                let graph = &inputs.held_out[h];
                let id = mirror.push(graph.clone());
                for (p, query) in inputs.pool.iter().enumerate() {
                    if Vf2Matcher::new(query).matches(graph) {
                        truth[p].push(id);
                    }
                }
            }
            OpKind::Remove(id) => {
                record.ok_or_else(|| format!("remove op {i} never drained"))?;
                if !mirror.remove(id) {
                    return Err(format!("remove op {i}: id {id} was not live"));
                }
                removes += 1;
                for answers in &mut truth {
                    if let Ok(at) = answers.binary_search(&id) {
                        answers.remove(at);
                    }
                }
            }
        }
    }
    if served.removes_applied != removes {
        return Err(format!(
            "service applied {} of {removes} removes",
            served.removes_applied
        ));
    }
    // The incremental oracle must agree with a fresh exhaustive scan.
    for (p, query) in inputs.pool.iter().enumerate() {
        if exhaustive_answers(&mirror, query) != truth[p] {
            return Err(format!("pool query {p}: incremental oracle diverged"));
        }
    }
    Ok(checked)
}

impl Checked {
    /// Adds the outcomes of another pass.
    fn absorb(&mut self, other: Checked) {
        self.reads += other.reads;
        self.errors += other.errors;
        self.shed += other.shed;
        self.latencies.extend(other.latencies);
        self.read_records.extend(other.read_records);
        self.answer_total += other.answer_total;
        self.lag_ms.extend(other.lag_ms);
    }

    fn latency_ms(&self) -> Vec<f64> {
        self.latencies.iter().map(|&(_, ms)| ms).collect()
    }

    /// The `Complete` read latencies of each of `WINDOWS` equal spans of a
    /// schedule `span_ns` long, by due time.
    fn windows(&self, span_ns: u64) -> Vec<Vec<f64>> {
        let mut windows = vec![Vec::new(); WINDOWS];
        for &(due, ms) in &self.latencies {
            let w = (due as u128 * WINDOWS as u128 / span_ns.max(1) as u128) as usize;
            windows[w.min(WINDOWS - 1)].push(ms);
        }
        windows
    }
}

fn error_rate(checked: &Checked) -> f64 {
    stats::ratio(checked.errors as f64, checked.reads as f64)
}

/// The untraced run: end-to-end metrics only.
pub fn run(inputs: &OpenInputs, seconds: u64, seed: u64) -> Result<Report, String> {
    let ops = schedule(inputs, RATE_QPS, seconds as f64, seed);
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut service = None;
    for _ in 0..SETUPS {
        drop(service.take());
        let started = Instant::now();
        service = Some(build_service(&inputs.dataset));
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut service = service.expect("at least one set-up");
    let index_mb = service.stats().size_bytes as f64 / MIB;
    let (served, _) = serve(&mut service, inputs, &ops, None);
    let (wall_s, inserts, removes) = (
        served.wall_s,
        served.inserts_applied,
        served.removes_applied,
    );
    let checked = check(inputs, &ops, served)?;

    let mut metrics = Metrics::default();
    metrics.push("setup_s", stats::median(&setup_s), "s");
    metrics.push("index_mb", index_mb, "MiB");
    metrics.push("rss_mb", stats::peak_rss_mb().unwrap_or(0.0), "MiB");
    // The gated figures are best-case estimates: the offered load is the
    // same in each of `WINDOWS` equal spans of the schedule, so the spans
    // differ in how much the rest of the machine slowed them, and each
    // figure is taken from the span that came out best. What the service
    // delivered over the whole run is printed beside them and reported by
    // the traced run as `serve.*`.
    let span_ns = ops.last().map_or(0, |op| op.due_ns) + 1;
    let window_s = span_ns as f64 / 1e9 / WINDOWS as f64;
    let windows = checked.windows(span_ns);
    let best = |stat: fn(&[f64]) -> f64| windows.iter().map(move |w| stat(w));
    metrics.push(
        "best_qps",
        best(|w| w.len() as f64).fold(0.0, f64::max) / window_s,
        "1/s",
    );
    metrics.push(
        "best_p99_ms",
        best(|w| stats::percentile(w, 0.99)).fold(f64::INFINITY, f64::min),
        "ms",
    );
    let counters = service.cache_counters();
    let notes = vec![
        format!(
            "ops {} at {RATE_QPS} /s: reads {}, inserts {inserts}, removes {removes}; \
             latency samples {} (Complete reads, timed from due)",
            ops.len(),
            checked.reads,
            checked.latencies.len(),
        ),
        format!(
            "delivered (whole run): qps = {:.1} 1/s, p50_ms = {:.4} ms, p99_ms = {:.3} ms",
            checked.latencies.len() as f64 / wall_s,
            stats::median(&checked.latency_ms()),
            stats::percentile(&checked.latency_ms(), 0.99)
        ),
        format!(
            "error_rate = {} (shed {})",
            error_rate(&checked),
            checked.shed
        ),
        format!(
            "loadgen lag p99 = {:.3} ms; memo hits {} / {}",
            stats::percentile(&checked.lag_ms, 0.99),
            counters.answer_hits,
            counters.answer_hits + counters.answer_misses
        ),
        format!(
            "setup_s per set-up: {setup_s:?}; shard sizes {:?}",
            service.shard_sizes()
        ),
    ];
    Ok(Report {
        metrics,
        attempted: checked.reads,
        failed: checked.errors,
        notes,
        reconcile: None,
        tracer: None,
    })
}

/// GGSX's filter and verify layers over the query pool, called directly
/// on the benchmark's own index: exact work and layer spans.
struct Direct {
    tracer: Tracer,
    work: MethodWork,
    /// Mean direct filter + verify microseconds of each pool query.
    pool_us: Vec<f64>,
}

/// Runs on a thread of its own, as the service's workers do, so both
/// allocate from a per-thread heap arena. One pass in pool order gives the
/// exact counters and checks every answer; `DIRECT_REPEATS` more give the
/// layer spans.
fn direct_pass(
    index: &dyn GraphIndex,
    inputs: &OpenInputs,
    epoch: Instant,
) -> Result<Direct, String> {
    let dataset = &inputs.dataset;
    let mut work = MethodWork::default();
    let mut set = CandidateSet::empty(index.universe());
    let mut state = MatchState::new();
    for (p, query) in inputs.pool.iter().enumerate() {
        let answers = work.add(index, dataset, query, &mut set, &mut state);
        if answers != exhaustive_answers(dataset, query) {
            return Err(format!("pool query {p} on ggsx (direct): answers differ"));
        }
    }
    let mut tracer = Tracer::new(epoch);
    let mut pool_ns = vec![0u64; inputs.pool.len()];
    for _ in 0..DIRECT_REPEATS {
        for (p, query) in inputs.pool.iter().enumerate() {
            let qid = p as u64;
            let filter = tracer.begin("index.filter_into", "ggsx", qid);
            index.filter_into(query, &mut set);
            tracer.end(filter);
            let verify = tracer.begin("iso.verify_set", "ggsx", qid);
            std::hint::black_box(index.verify_set(dataset, query, &set));
            tracer.end(verify);
            let spans = tracer.spans();
            pool_ns[p] +=
                spans[filter as usize].duration_ns() + spans[verify as usize].duration_ns();
        }
    }
    let pool_us = pool_ns
        .iter()
        .map(|&ns| ns as f64 / DIRECT_REPEATS as f64 / 1e3)
        .collect();
    Ok(Direct {
        tracer,
        work,
        pool_us,
    })
}

/// The traced run: per-layer metrics.
pub fn run_traced(inputs: &OpenInputs, seconds: u64, seed: u64) -> Result<Report, String> {
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);
    let pass_s = (seconds as f64 / TRACED_RUN_PASSES.len() as f64).max(0.5);
    let dataset = &inputs.dataset;

    // Set-up layers reached directly: partition and router, then the
    // service itself, then a GGSX index over the whole set for the filter
    // and verify layer calls.
    let span = tracer.begin("sharded.partition_dataset", "", 0);
    let parts = partition_dataset(dataset, SHARDS, ShardStrategy::LabelAware);
    tracer.end(span);
    let span = tracer.begin("synopsis.router_build", "", 0);
    let router = Router::build(parts.iter().map(|p| &p.dataset));
    tracer.end(span);
    let span = tracer.begin("sharded.new", "ggsx", 0);
    let mut setup_service = Some(build_service(dataset));
    tracer.end(span);
    let span = tracer.begin("index.build", "ggsx", 0);
    let index = build_index(MethodKind::Ggsx, &MethodConfig::default(), dataset);
    tracer.end(span);

    let direct = std::thread::scope(|scope| {
        scope
            .spawn(|| direct_pass(index.as_ref(), inputs, epoch))
            .join()
            .expect("direct layer thread panicked")
    })?;
    let Direct {
        tracer: direct_tracer,
        work,
        pool_us,
    } = direct;
    tracer.absorb(direct_tracer);

    // Routing plan of every scheduled read on the set-up synopses.
    let ops = schedule(inputs, RATE_QPS, pass_s, seed);
    let (mut probed, mut skipped) = (0u64, 0u64);
    for (i, op) in ops.iter().enumerate() {
        if let OpKind::Read(p) = op.kind {
            let span = tracer.begin("synopsis.plan", "", i as u64);
            let plan = router.plan(&[&inputs.pool[p]], RoutingMode::Synopsis);
            tracer.end(span);
            let admitted = plan.iter().filter(|shard| !shard.is_empty()).count() as u64;
            probed += admitted;
            skipped += SHARDS as u64 - admitted;
        }
    }

    // Serving: the untraced and traced passes of the schedule.
    let (mut untraced, mut traced) = (Checked::default(), Checked::default());
    let mut untraced_wall_s = 0.0;
    let mut counters = CacheCounters::default();
    let mut invalidations = 0.0;
    let mut last_traced = None;
    for traced_pass in TRACED_RUN_PASSES {
        let mut service = setup_service
            .take()
            .unwrap_or_else(|| build_service(dataset));
        let (served, serve_tracer) =
            serve(&mut service, inputs, &ops, traced_pass.then_some(epoch));
        if traced_pass {
            invalidations += (served.inserts_applied + served.removes_applied) as f64;
            traced.absorb(check(inputs, &ops, served)?);
            tracer.absorb(serve_tracer.expect("traced pass records spans"));
            counters.merge(&service.cache_counters());
            last_traced = Some(service);
        } else {
            untraced_wall_s += served.wall_s;
            untraced.absorb(check(inputs, &ops, served)?);
        }
    }
    let mut service = last_traced.expect("a traced pass");

    // Ingest, called directly on the last traced pass's service: inserts
    // of held-out graphs, then removes of live ids.
    for h in 0..INGEST_CALLS.min(inputs.held_out.len()) {
        let span = tracer.begin("sharded.insert_graph", "", h as u64);
        service.insert_graph(inputs.held_out[h].clone());
        tracer.end(span);
    }
    let removed: std::collections::HashSet<GraphId> = ops
        .iter()
        .filter_map(|op| match op.kind {
            OpKind::Remove(id) => Some(id),
            _ => None,
        })
        .collect();
    for id in dataset
        .ids()
        .filter(|id| !removed.contains(id))
        .take(INGEST_CALLS)
    {
        let span = tracer.begin("sharded.remove_graph", "", id as u64);
        let removed = service.remove_graph(id);
        tracer.end(span);
        if !removed {
            return Err(format!("direct remove of live id {id} returned false"));
        }
    }

    let slo_qps = ladder(inputs, seed)?;

    let layers = tracer.layer_times();
    let layer = |name: &'static str, tag: &'static str| {
        layers.get(&(name, tag)).copied().unwrap_or_default()
    };
    let mut metrics = Metrics::default();
    for m in METHODS.iter() {
        let layers = (m.kind == MethodKind::Ggsx).then(|| MethodLayers {
            build: layer("index.build", m.key),
            size_bytes: index.stats().size_bytes,
            filter: layer("index.filter_into", m.key),
            verify: layer("iso.verify_set", m.key),
            work: &work,
        });
        push_method_metrics(&mut metrics, m.key, layers);
    }

    let records: Vec<&ShardedQueryRecord> = traced.read_records.iter().map(|(_, r)| r).collect();
    let mean_us = |f: &dyn Fn(&ShardedQueryRecord) -> f64| {
        stats::mean(&records.iter().map(|r| f(r) * 1e6).collect::<Vec<_>>())
    };
    let stages =
        |r: &ShardedQueryRecord| r.queue_wait_s + r.cache_probe_s + r.filter_s + r.verify_s;
    let overhead_us = mean_us(&|r| r.latency_s - stages(r));
    let sum_of = |f: &dyn Fn(&ShardedQueryRecord) -> f64| records.iter().map(|r| f(r)).sum::<f64>();
    let latency_total = sum_of(&|r| r.latency_s);
    metrics.push("service.overhead_us", overhead_us, "us");
    metrics.push("service.queue_wait_us", mean_us(&|r| r.queue_wait_s), "us");
    metrics.push(
        "share.filter",
        stats::ratio(sum_of(&|r| r.filter_s), latency_total),
        "ratio",
    );
    metrics.push(
        "share.verify",
        stats::ratio(sum_of(&|r| r.verify_s), latency_total),
        "ratio",
    );
    metrics.push(
        "share.overhead",
        stats::ratio(sum_of(&|r| r.latency_s - stages(r)), latency_total),
        "ratio",
    );
    metrics.push(
        "route.plan_us",
        layer("synopsis.plan", "").mean_self_us(),
        "us",
    );
    metrics.push("route.shards_probed", probed as f64, "count");
    metrics.push("route.shards_skipped", skipped as f64, "count");
    let memo_lookups = counters.answer_hits + counters.answer_misses;
    let feature_lookups = counters.feature_hits + counters.feature_misses;
    metrics.push(
        "cache.memo_hit_ratio",
        stats::ratio(counters.answer_hits as f64, memo_lookups as f64),
        "ratio",
    );
    metrics.push(
        "cache.feature_hit_ratio",
        stats::ratio(counters.feature_hits as f64, feature_lookups as f64),
        "ratio",
    );
    metrics.push(
        "cache.memo_key_us",
        layer("cache.answer_memo_key", "read").mean_self_us(),
        "us",
    );
    metrics.push("cache.evictions", counters.evictions as f64, "count");
    metrics.push("cache.invalidations", invalidations, "count");
    let submits = ["read", "insert", "remove"].map(|tag| layer("admission.submit", tag));
    metrics.push(
        "admission.submit_us",
        stats::ratio(
            submits.iter().map(|l| l.self_ns as f64).sum(),
            submits.iter().map(|l| l.count as f64).sum(),
        ) / 1e3,
        "us",
    );
    let queue_wait_ms: Vec<f64> = records.iter().map(|r| r.queue_wait_s * 1e3).collect();
    metrics.push(
        "admission.queue_wait_p99_ms",
        stats::percentile(&queue_wait_ms, 0.99),
        "ms",
    );
    metrics.push(
        "admission.shed_ratio",
        stats::ratio(traced.shed as f64, traced.reads as f64),
        "ratio",
    );
    metrics.push(
        "ingest.insert_us",
        layer("sharded.insert_graph", "").mean_self_us(),
        "us",
    );
    metrics.push(
        "ingest.remove_us",
        layer("sharded.remove_graph", "").mean_self_us(),
        "us",
    );
    metrics.push(
        "loadgen.lag_p99_ms",
        stats::percentile(&traced.lag_ms, 0.99),
        "ms",
    );
    metrics.push(
        "serve.qps",
        untraced.latencies.len() as f64 / untraced_wall_s,
        "1/s",
    );
    metrics.push("serve.p50_ms", stats::median(&untraced.latency_ms()), "ms");
    metrics.push(
        "serve.p99_ms",
        stats::percentile(&untraced.latency_ms(), 0.99),
        "ms",
    );
    metrics.push("serve.slo_qps", slo_qps, "1/s");
    metrics.push("serve.error_rate", error_rate(&traced), "ratio");
    metrics.push(
        "index.partition_ms",
        layer("sharded.partition_dataset", "").self_ns as f64 / 1e6,
        "ms",
    );
    metrics.push(
        "route.build_ms",
        layer("synopsis.router_build", "").self_ns as f64 / 1e6,
        "ms",
    );
    metrics.push("answers.total", traced.answer_total as f64, "count");

    // Reconciliation, as on the closed loops: per executed read of the
    // traced pass, the direct GGSX filter and verify time of its pool query
    // (when the memo did not serve it, so shards were probed) plus its
    // queue wait, cache probe and service overhead, against the mean
    // latency of the untraced pass.
    let layer_sum_us = stats::mean(
        &traced
            .read_records
            .iter()
            .map(|(p, r)| {
                let direct_us = if r.shards_probed > 0 {
                    pool_us[*p]
                } else {
                    0.0
                };
                direct_us + (r.latency_s - r.filter_s - r.verify_s) * 1e6
            })
            .collect::<Vec<_>>(),
    );
    let untraced_us = stats::mean(
        &untraced
            .read_records
            .iter()
            .map(|(_, r)| r.latency_s * 1e6)
            .collect::<Vec<_>>(),
    );
    let reconcile = stats::ratio(layer_sum_us - untraced_us, untraced_us);
    metrics.push("trace.reconcile_err", reconcile, "ratio");
    let untraced_p50 = stats::median(&untraced.latency_ms());
    let traced_p50 = stats::median(&traced.latency_ms());
    metrics.push(
        "trace.overhead_pct",
        100.0 * stats::ratio(traced_p50 - untraced_p50, untraced_p50),
        "%",
    );

    let notes = vec![
        format!(
            "passes {TRACED_RUN_PASSES:?} (true: traced) of {} reads each: untraced errors {}, \
             traced errors {}",
            traced.reads / 2,
            untraced.errors,
            traced.errors
        ),
        format!(
            "mean read latency from admission: untraced {untraced_us:.2} us, traced {:.2} us, \
             layer sum {layer_sum_us:.2} us; p50 from due: untraced {untraced_p50:.4} ms, \
             traced {traced_p50:.4} ms",
            mean_us(&|r| r.latency_s)
        ),
    ];
    Ok(Report {
        metrics,
        attempted: untraced.reads + traced.reads,
        failed: untraced.errors + traced.errors,
        notes,
        reconcile: Some(Reconcile {
            err: reconcile,
            tolerance: RECONCILE_TOLERANCE,
        }),
        tracer: Some(tracer),
    })
}

/// Walks the fixed rate ladder up, each rung on a fresh service, and
/// returns the highest rate that meets the SLO (0 when none does).
fn ladder(inputs: &OpenInputs, seed: u64) -> Result<f64, String> {
    let mut best = 0.0;
    for rate in LADDER_QPS {
        let ops = schedule(inputs, rate, LADDER_SECONDS, seed);
        let last_due = Duration::from_nanos(ops.last().map_or(0, |op| op.due_ns));
        let mut service = build_service(&inputs.dataset);
        let (served, _) = serve(&mut service, inputs, &ops, None);
        let drained_late = Duration::from_secs_f64(served.wall_s).saturating_sub(last_due);
        let checked = check(inputs, &ops, served)?;
        let p99 = stats::percentile(&checked.latency_ms(), 0.99);
        println!(
            "ladder {rate} /s: p99 {p99:.3} ms, error_rate {:.4}, drain tail {:.1} ms",
            error_rate(&checked),
            drained_late.as_secs_f64() * 1e3
        );
        if p99 > SLO_P99_MS || error_rate(&checked) > SLO_ERROR_RATE || drained_late > SLO_DRAIN {
            break;
        }
        best = rate;
    }
    Ok(best)
}
