//! Sharded query service: partition the dataset, build one index per
//! shard, fan every query wave out to all shard pools concurrently, and
//! merge the per-shard match sets back into global answers.
//!
//! The paper's study serves one index over one dataset. That stops
//! scaling when the dataset outgrows a single index build — the regime the
//! billion-node partition-then-match line of work targets. This module is
//! the one serving path for any shard count; one shard is the unsharded
//! service:
//!
//! ```text
//!              ┌────────────────────── ShardedService ──────────────────────┐
//!  submit ───► │ AdmissionQueue (bounded, multi-producer, per-query         │
//!  submit ───► │                 deadlines)                                 │
//!              │      │ drain → wave (admission order)                      │
//!              │      ▼                                                     │
//!              │ ┌─ shard 0 ──────┐ ┌─ shard 1 ──────┐ … ┌─ shard N ──────┐ │
//!              │ │ Dataset slice  │ │ Dataset slice  │   │ Dataset slice  │ │
//!              │ │ own GraphIndex │ │ own GraphIndex │   │ own GraphIndex │ │
//!              │ │ worker pool +  │ │ worker pool +  │   │ worker pool +  │ │
//!              │ │ arenas         │ │ arenas         │   │ arenas         │ │
//!              │ └───────┬────────┘ └───────┬────────┘   └───────┬────────┘ │
//!              │         ▼ local ids        ▼                    ▼          │
//!              │      merge: map → global ids, union answers, aggregate     │
//!              │             per-shard StageTotals                          │
//!              └──────────► ShardedReport (records in wave order) ──────────┘
//! ```
//!
//! * **Partitioner** — [`partition_dataset`] splits the dataset by
//!   [`ShardStrategy`]: `RoundRobin` (graph *i* → shard *i mod N*; keeps
//!   id-adjacent graphs apart, good when sizes are i.i.d.), `SizeBalanced`
//!   (longest-processing-time greedy on vertex+edge weight; good when
//!   graph sizes are skewed) or `LabelAware` (greedy dominant-label
//!   clustering under a balance cap; co-locates label-coherent graphs so
//!   synopsis routing skips shards even on interleaved ingest). Each shard
//!   remembers its local→global id mapping, and its dataset slice
//!   **shares** graph storage with the source dataset (`Arc` handles, no
//!   deep copies), so partitioning costs pointers, not bytes.
//! * **Per-shard pools** — each shard owns its dataset slice, its index and
//!   its worker arenas; a wave runs one `run_batch_on` pool per shard on
//!   the shard's persistent executor thread, so shards progress
//!   concurrently and arenas persist across waves.
//! * **Router** — before fan-out, the wave consults the per-shard
//!   [`Router`] synopses (under [`RoutingMode::Synopsis`]) and dispatches
//!   each query only to shards that can possibly hold a match; skipped
//!   shards are proven matchless, so routed answers stay bit-identical.
//!   Per-query [`ShardedQueryRecord::shards_probed`] /
//!   [`ShardedQueryRecord::shards_skipped`] account for the savings.
//! * **Merge** — per query, shard-local answer ids are mapped through the
//!   shard's id table and unioned. Shards partition the dataset, so the
//!   union is disjoint and the merged answer set is *bit-identical* to a
//!   one-shard service's (verification is exact on every shard); only
//!   filtering power — and therefore candidate counts — may differ, because
//!   each shard mines/encodes features over its own slice.
//!
//! A query expires if *any* shard had to skip it on deadline — a partially
//! executed query would otherwise report a silently incomplete answer set.

use super::admission::{AdmissionQueue, AdmittedQuery, IngestOp, Ticket};
use super::cache::{answer_memo_key, AnswerEntry, AnswerMemo, FeatureCache};
use super::fault::FaultPlan;
use super::options::ServiceOptions;
use super::pool::{WaveFaults, WorkerArena};
use super::run_batch_on;
use super::stages::{QueryOutcome, QueryRecord};
use super::synopsis::{Router, RoutingMode};
use crate::metrics::{counted_false_positive_ratio, CacheCounters, StageTotals, Stopwatch};
use sqbench_graph::{Dataset, Graph, GraphId, GraphSynopsis, ShardSynopsis};
use sqbench_index::{
    build_index, FeatureCacheStore, GraphIndex, IndexStats, MethodConfig, MethodKind,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How [`partition_dataset`] assigns graphs to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardStrategy {
    /// Graph `i` goes to shard `i % shards`. Deterministic, streaming, and
    /// even by *count*; the default.
    #[default]
    RoundRobin,
    /// Longest-processing-time greedy by graph weight (vertices + edges):
    /// graphs are placed heaviest-first onto the currently lightest shard,
    /// evening out total shard *size* when graph sizes are skewed.
    SizeBalanced,
    /// Label-affinity greedy clustering: graphs are placed heaviest-first
    /// onto the shard whose resident label set their own labels overlap
    /// most (dominant labels weigh proportionally to their multiplicity),
    /// under a per-shard weight cap that keeps the partition balanced.
    /// Label-coherent graph families end up co-located, which is what
    /// makes [`RoutingMode::Synopsis`] skip shards even when ingest
    /// interleaves the families — the regime where round-robin placement
    /// smears every family across every shard and routing saves nothing.
    LabelAware,
}

impl ShardStrategy {
    /// Every strategy, in documentation order — what sweeps and proptests
    /// iterate.
    pub const ALL: [ShardStrategy; 3] = [
        ShardStrategy::RoundRobin,
        ShardStrategy::SizeBalanced,
        ShardStrategy::LabelAware,
    ];

    /// Short name used in logs, CSV descriptions and bench ids.
    pub fn name(&self) -> &'static str {
        match self {
            ShardStrategy::RoundRobin => "round-robin",
            ShardStrategy::SizeBalanced => "size-balanced",
            ShardStrategy::LabelAware => "label-aware",
        }
    }
}

/// Bounded retry with exponential backoff for *failed* per-shard
/// executions (panics, dead pools — transient by assumption until the
/// bound is spent). Timed-out shards are never retried: their budget is
/// already gone by definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retry rounds per wave (0 disables retry).
    pub max_retries: u32,
    /// Backoff before the first retry round; doubles every round.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            backoff: Duration::from_micros(500),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (failures surface immediately).
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            backoff: Duration::ZERO,
        }
    }

    /// The backoff before retry round `round`. Saturates instead of
    /// panicking: the doubling factor saturates at `u32::MAX` and the
    /// multiplication at `Duration::MAX`, so adversarial-but-legal
    /// policies (a large base backoff with a deep retry budget) degrade
    /// to "never fits the deadline" instead of crashing the wave.
    fn backoff_for(&self, round: u32) -> Duration {
        self.backoff
            .checked_mul(2u32.saturating_pow(round))
            .unwrap_or(Duration::MAX)
    }

    /// When retry round `round` may run, or `None` when it may not: the
    /// backoff is capped by the query's remaining deadline budget (a
    /// retry scheduled at or past the deadline could only produce a
    /// timed-out probe), and without a deadline a backoff too large to
    /// land on the monotonic clock at all is refused rather than
    /// overflowing the `Instant` addition.
    fn retry_at(&self, round: u32, now: Instant, deadline: Option<Instant>) -> Option<Instant> {
        let backoff = self.backoff_for(round);
        match deadline {
            Some(d) => {
                let remaining = d.saturating_duration_since(now);
                (backoff < remaining).then(|| now + backoff)
            }
            None => now.checked_add(backoff),
        }
    }
}

/// One partition of a dataset: the shard-local dataset plus the mapping
/// from shard-local [`GraphId`]s back to ids in the original dataset.
#[derive(Debug, Clone)]
pub struct ShardPart {
    /// The shard's slice of the dataset (ids re-densified to `0..len`),
    /// sharing graph storage with the source dataset.
    pub dataset: Dataset,
    /// `to_global[local_id]` is the graph's id in the unsharded dataset.
    pub to_global: Vec<GraphId>,
}

/// Splits `dataset` into `shards` parts by `strategy`. Every graph lands in
/// exactly one part; parts may be empty when the dataset has fewer graphs
/// than shards (the service handles empty shards — they simply answer
/// nothing). Deterministic for a given dataset/strategy/shard count.
///
/// Partitioning is **zero-copy**: each part holds `Arc` handles onto the
/// source dataset's graphs (`Arc::clone` per graph — O(pointers), not
/// O(bytes)), so the incremental memory of a full partition is the parts'
/// pointer spines, not a second copy of the dataset. That is what makes
/// placement experiments — re-partitioning the same dataset under several
/// strategies and shard counts — cheap enough to run side by side; the
/// `ShardPart::dataset.owned_memory_bytes()` sum is the honest overhead
/// figure the harness reports as `partition_overhead_bytes`.
pub fn partition_dataset(
    dataset: &Dataset,
    shards: usize,
    strategy: ShardStrategy,
) -> Vec<ShardPart> {
    let shards = shards.max(1);
    let mut assignment: Vec<Vec<GraphId>> = vec![Vec::new(); shards];
    match strategy {
        ShardStrategy::RoundRobin => {
            for id in dataset.ids() {
                assignment[id % shards].push(id);
            }
        }
        ShardStrategy::SizeBalanced => {
            // LPT greedy: heaviest graph first onto the lightest shard.
            // Ties break on the lower id / lower shard index, keeping the
            // partition deterministic.
            let mut by_weight: Vec<(usize, GraphId)> = dataset
                .iter()
                .map(|(id, g)| (g.vertex_count() + g.edge_count(), id))
                .collect();
            by_weight.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            let mut loads = vec![0usize; shards];
            for (weight, id) in by_weight {
                let lightest = loads
                    .iter()
                    .enumerate()
                    .min_by_key(|&(shard, &load)| (load, shard))
                    .map(|(shard, _)| shard)
                    .expect("at least one shard");
                loads[lightest] += weight;
                assignment[lightest].push(id);
            }
        }
        ShardStrategy::LabelAware => {
            assignment = label_aware_assignment(dataset, shards);
        }
    }
    // Keep shard-local id order aligned with global id order so a shard's
    // answers come out sorted after mapping (round-robin emits ids in
    // order already; the greedy strategies do not).
    for ids in &mut assignment {
        ids.sort_unstable();
    }
    assignment
        .into_iter()
        .enumerate()
        .map(|(shard, ids)| {
            let graphs: Vec<std::sync::Arc<Graph>> = ids
                .iter()
                .map(|&id| std::sync::Arc::clone(dataset.shared_unchecked(id)))
                .collect();
            ShardPart {
                dataset: Dataset::from_shared(
                    format!("{}[shard {shard}/{shards}]", dataset.name()),
                    graphs,
                ),
                to_global: ids,
            }
        })
        .collect()
}

/// The [`ShardStrategy::LabelAware`] placement: greedy dominant-label
/// clustering under a balance cap.
///
/// Graphs are processed heaviest-first (LPT order, ties on lower id). Each
/// graph scores every shard by **label affinity** — the number of its
/// vertices whose label the shard already hosts, so a graph's dominant
/// labels dominate its placement — and goes to the highest-affinity shard
/// whose load stays within the cap `max(ceil(total_weight / shards),
/// heaviest graph)`; ties break on lighter load, then lower shard index.
/// The cap is what keeps a uniform-label dataset from collapsing onto one
/// shard: once every shard hosts the whole alphabet, affinity ties and the
/// load tie-break takes over, degrading gracefully to size-balanced
/// placement. Deterministic for a given dataset and shard count.
fn label_aware_assignment(dataset: &Dataset, shards: usize) -> Vec<Vec<GraphId>> {
    use std::collections::BTreeSet;
    let weight = |g: &Graph| g.vertex_count() + g.edge_count();
    let total: usize = dataset.iter().map(|(_, g)| weight(g)).sum();
    let heaviest = dataset.iter().map(|(_, g)| weight(g)).max().unwrap_or(0);
    let cap = total.div_ceil(shards).max(heaviest);
    let mut order: Vec<GraphId> = dataset.ids().collect();
    order.sort_by_key(|&id| (std::cmp::Reverse(weight(dataset.graph_unchecked(id))), id));
    let mut assignment: Vec<Vec<GraphId>> = vec![Vec::new(); shards];
    let mut loads = vec![0usize; shards];
    let mut shard_labels: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); shards];
    for id in order {
        let g = dataset.graph_unchecked(id);
        let w = weight(g);
        let affinity = |shard: usize| -> usize {
            g.labels()
                .iter()
                .filter(|label| shard_labels[shard].contains(label))
                .count()
        };
        // Highest affinity among shards with room; if every shard is at
        // the cap (possible when heavy graphs round badly), fall back to
        // the globally lightest shard so the partition always completes.
        let best = (0..shards)
            .filter(|&s| loads[s] + w <= cap)
            .max_by_key(|&s| {
                (
                    affinity(s),
                    std::cmp::Reverse(loads[s]),
                    std::cmp::Reverse(s),
                )
            })
            .unwrap_or_else(|| {
                loads
                    .iter()
                    .enumerate()
                    .min_by_key(|&(shard, &load)| (load, shard))
                    .map(|(shard, _)| shard)
                    .expect("at least one shard")
            });
        loads[best] += w;
        shard_labels[best].extend(g.labels().iter().copied());
        assignment[best].push(id);
    }
    assignment
}

/// One shard's mutable state: its dataset slice, its own index, its id
/// mapping, the worker arenas that persist across waves and its feature
/// cache. Shared behind a mutex between the service thread (mutations,
/// stats, cache control) and the shard's persistent executor thread
/// (probes) — the executor holds the lock for the duration of each job,
/// which is what serializes probes against online mutations.
struct ShardCore {
    dataset: Dataset,
    index: Box<dyn GraphIndex>,
    to_global: Vec<GraphId>,
    arenas: Vec<WorkerArena>,
    /// This shard's cross-query feature-bitset cache, shared by its
    /// workers across waves. Per-shard by design: cached bitsets are
    /// shard-local posting lists and must never leak across shards.
    features: Option<FeatureCache>,
}

/// One query's probe of one shard, as shipped to a shard executor.
struct ProbeItem {
    /// The query's wave index — the merge loop's slot for the reply.
    slot: usize,
    query: Arc<Graph>,
    /// The query's own deadline (the wave-wide one travels on the job).
    deadline: Option<Instant>,
    ticket: Ticket,
}

/// A batch of probes for one shard executor, carrying the wave's reply
/// channel. A wave the merge loop has abandoned simply drops its
/// receiver; the executor's late replies then fail silently and the
/// stale work is discarded.
struct ShardJob {
    items: Vec<ProbeItem>,
    wave_deadline: Option<Instant>,
    reply: Sender<WaveEvent>,
}

/// One `(query, shard)` probe completion, streamed to the merge loop the
/// moment the shard finishes it — per-query completion, no wave barrier.
struct WaveEvent {
    shard: usize,
    slot: usize,
    outcome: QueryOutcome,
    /// The probe's record with answers already mapped to *global* ids
    /// (the executor maps them under the core lock, where `to_global` is
    /// stable); `None` for timed-out and failed probes.
    record: Option<QueryRecord>,
}

/// Probe items per worker the dynamic scaler aims for: a backlog of more
/// than this many queries per worker grows the pool (up to the cap).
const QUERIES_PER_WORKER: usize = 4;

/// One shard of the service: shared core state plus the persistent
/// executor thread that serves probe jobs against it.
struct Shard {
    core: Arc<Mutex<ShardCore>>,
    jobs: Sender<ShardJob>,
    /// Probe items queued at (or executing on) this shard — the observed
    /// queue depth that drives dynamic worker scaling.
    backlog: Arc<AtomicUsize>,
    /// Most workers any probe batch on this shard actually ran with
    /// (diagnostics).
    worker_high_water: Arc<AtomicUsize>,
    thread: Option<JoinHandle<()>>,
}

impl Shard {
    fn lock(&self) -> MutexGuard<'_, ShardCore> {
        self.core.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        // Disconnect the job channel so the executor's recv loop exits
        // (after finishing any queued jobs), then join it — a service
        // never leaks threads past its own lifetime.
        let (dead, _) = mpsc::channel();
        drop(std::mem::replace(&mut self.jobs, dead));
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Everything one shard executor thread owns, bundled for spawning.
struct ExecutorSetup {
    shard: usize,
    core: Arc<Mutex<ShardCore>>,
    jobs: Receiver<ShardJob>,
    backlog: Arc<AtomicUsize>,
    high_water: Arc<AtomicUsize>,
    workers_min: usize,
    workers_max: usize,
    faults: Option<Arc<FaultPlan>>,
}

/// The shard executor loop: serve probe jobs until the service drops the
/// job channel. Each job locks the core, rescales the worker pool from
/// the observed backlog and runs the probe batch through the shared
/// filter → verify pipeline; per-item results stream back on the job's
/// reply channel as they are known.
fn spawn_shard_executor(setup: ExecutorSetup) -> JoinHandle<()> {
    let ExecutorSetup {
        shard: s,
        core,
        jobs,
        backlog,
        high_water,
        workers_min,
        workers_max,
        faults,
    } = setup;
    std::thread::spawn(move || {
        while let Ok(job) = jobs.recv() {
            // Snapshot the depth before serving: it includes this job's
            // items plus anything that queued behind it.
            let depth = backlog.load(Ordering::Relaxed).max(job.items.len());
            if let Some(plan) = faults.as_deref() {
                // Injected stall: the shard sleeps before serving, the way
                // a GC pause, page-cache miss storm or noisy neighbour
                // delays a real shard. Queries with deadlines degrade at
                // the merge without waiting for it; the rest arrive late.
                if let Some(stall) = plan.take_stall(s) {
                    std::thread::sleep(stall);
                }
            }
            let served = job.items.len();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let mut guard = core.lock().unwrap_or_else(PoisonError::into_inner);
                let core = &mut *guard;
                let target = depth
                    .div_ceil(QUERIES_PER_WORKER)
                    .clamp(workers_min, workers_max);
                if core.arenas.len() < target {
                    core.arenas.resize_with(target, WorkerArena::default);
                } else if core.arenas.len() > target {
                    core.arenas.truncate(target);
                }
                let queries: Vec<&Graph> = job.items.iter().map(|it| it.query.as_ref()).collect();
                let per_query: Vec<Option<Instant>> =
                    job.items.iter().map(|it| it.deadline).collect();
                let tickets: Vec<Ticket> = job.items.iter().map(|it| it.ticket).collect();
                let store = core.features.as_ref().map(|f| f as &dyn FeatureCacheStore);
                let run = run_batch_on(
                    &*core.index,
                    &core.dataset,
                    &mut core.arenas,
                    &queries,
                    job.wave_deadline,
                    Some(&per_query),
                    faults.as_deref().map(|plan| WaveFaults {
                        plan,
                        tickets: &tickets,
                    }),
                    store,
                );
                high_water.fetch_max(run.workers, Ordering::Relaxed);
                let mut results = run.results;
                for record in results.iter_mut().filter_map(|(_, r)| r.as_mut()) {
                    for answer in &mut record.answers {
                        *answer = core.to_global[*answer];
                    }
                }
                results
            }));
            match outcome {
                Ok(results) => {
                    for (item, (outcome, record)) in job.items.iter().zip(results) {
                        let _ = job.reply.send(WaveEvent {
                            shard: s,
                            slot: item.slot,
                            outcome,
                            record,
                        });
                    }
                }
                // Per-query panics are caught inside the pool's workers,
                // so this is shard infrastructure failing — every probe
                // of the job is `Failed` (retryable), not the whole wave.
                Err(_) => {
                    for item in &job.items {
                        let _ = job.reply.send(WaveEvent {
                            shard: s,
                            slot: item.slot,
                            outcome: QueryOutcome::Failed,
                            record: None,
                        });
                    }
                }
            }
            backlog.fetch_sub(served, Ordering::Relaxed);
        }
    })
}

/// What the sharded service records for one query of a wave.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedQueryRecord {
    /// The query's admission ticket (for open waves) or its position in the
    /// submitted slice (for closed waves).
    pub ticket: Ticket,
    /// Merged verified answers as *global* graph ids, sorted ascending.
    pub answers: Vec<GraphId>,
    /// Candidates surviving filtering, summed across shards.
    pub candidate_count: usize,
    /// Graphs pruned by filtering, summed across shards.
    pub candidates_pruned: usize,
    /// Longest queue wait across shards (the query is not done before its
    /// slowest shard picks it up), plus — for open waves served through
    /// [`ShardedService::drain`] — the time the query spent pending in the
    /// [`AdmissionQueue`] before the wave started.
    pub queue_wait_s: f64,
    /// Seconds spent probing the cross-query caches: per-shard feature
    /// cache probes summed across shards, or the single admission-time
    /// answer-memo probe for a memo-served query. `0.0` when caching is
    /// disabled.
    pub cache_probe_s: f64,
    /// Filter work summed across shards (total work, not critical path).
    pub filter_s: f64,
    /// Verify work summed across shards (total work, not critical path).
    pub verify_s: f64,
    /// End-to-end seconds from the query's submission (its admission
    /// point, for open waves; the wave start for closed waves) to the
    /// moment the merge finalized its outcome — the latency a caller
    /// observes, as opposed to the summed per-stage *work* above. This is
    /// what the wave's latency percentiles are built from. Mutations
    /// report their queue wait; memo hits their wait plus the probe.
    pub latency_s: f64,
    /// How the query's execution ended across its probed shards:
    ///
    /// * [`QueryOutcome::Complete`] — every probed shard verified it; the
    ///   answer set is exact.
    /// * [`QueryOutcome::Degraded`] — some probed shards finished, others
    ///   failed or ran out of deadline budget; the answers are the partial
    ///   union of the finished shards (sound — every id is a verified
    ///   match — but possibly incomplete).
    /// * [`QueryOutcome::TimedOut`] — the deadline expired before the
    ///   query could start on any shard; answers are dropped.
    /// * [`QueryOutcome::Failed`] — execution failed on every shard that
    ///   could have answered and retries did not recover it.
    pub outcome: QueryOutcome,
    /// Per-shard retry attempts spent on this query (0 on the happy path).
    pub retries: u32,
    /// Shards this query was actually dispatched to. Equals the shard
    /// count under [`RoutingMode::Fanout`]; under [`RoutingMode::Synopsis`]
    /// it can be as low as 0 (no shard can possibly match — the query is
    /// answered empty without touching any index).
    pub shards_probed: usize,
    /// Shards the router proved could hold no match and skipped.
    /// `shards_probed + shards_skipped` always equals the shard count.
    pub shards_skipped: usize,
}

impl ShardedQueryRecord {
    /// Number of verified answers (0 for expired/failed queries).
    pub fn answer_count(&self) -> usize {
        self.answers.len()
    }

    /// `true` when the query's deadline expired before it could start —
    /// the pre-outcome `expired` flag, kept as the deadline-accounting
    /// vocabulary of the soak tests and sweeps.
    pub fn expired(&self) -> bool {
        matches!(self.outcome, QueryOutcome::TimedOut)
    }
}

/// Everything one wave (closed batch or admission drain) produced.
#[derive(Debug)]
pub struct ShardedReport {
    /// Per-query records, in wave order.
    pub records: Vec<ShardedQueryRecord>,
    /// Stage totals per shard, indexed by shard — the balance view the
    /// shard-count experiments plot.
    pub per_shard: Vec<StageTotals>,
    /// Merged stage totals over executed (non-expired) queries: queue wait
    /// is the per-query max across shards, filter/verify are total work.
    pub totals: StageTotals,
    /// Wall-clock seconds the wave took end to end across all shards.
    pub wall_s: f64,
    /// Number of shards the wave ran on.
    pub shards: usize,
    /// Dataset inserts applied while serving this wave (open
    /// [`ShardedService::drain`] waves only; always 0 for closed waves).
    pub inserts_applied: usize,
    /// Dataset removals applied while serving this wave. Removals of
    /// already-dead or unknown ids are not counted.
    pub removes_applied: usize,
}

impl ShardedReport {
    /// Queries that produced an answer set: [`QueryOutcome::Complete`]
    /// plus [`QueryOutcome::Degraded`].
    pub fn executed(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.outcome.is_executed())
            .count()
    }

    /// Queries dropped because a deadline expired before execution.
    pub fn expired(&self) -> usize {
        self.records.iter().filter(|r| r.expired()).count()
    }

    /// Queries whose every probed shard completed (exact answers).
    pub fn complete(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.outcome == QueryOutcome::Complete)
            .count()
    }

    /// Queries answered partially within the deadline budget.
    pub fn degraded(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r.outcome, QueryOutcome::Degraded { .. }))
            .count()
    }

    /// Queries whose execution failed beyond retry on every shard.
    pub fn failed(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.outcome == QueryOutcome::Failed)
            .count()
    }

    /// Total per-shard retry attempts the wave spent recovering failures.
    pub fn retries(&self) -> u64 {
        self.records.iter().map(|r| r.retries as u64).sum()
    }

    /// Workload false positive ratio (Equation 3) over executed queries,
    /// with the sharded candidate sets. `0.0` for an empty wave — never
    /// NaN, so CSV reports stay well-formed.
    pub fn false_positive_ratio(&self) -> f64 {
        counted_false_positive_ratio(
            self.records
                .iter()
                .filter(|r| r.outcome.is_executed())
                .map(|r| (r.candidate_count, r.answer_count())),
        )
    }

    /// Executed queries per wall-clock second. `0.0` for an empty or
    /// zero-duration wave — never NaN or infinity.
    pub fn throughput_qps(&self) -> f64 {
        if self.wall_s > 0.0 && self.wall_s.is_finite() {
            self.executed() as f64 / self.wall_s
        } else {
            0.0
        }
    }

    /// Total `(query, shard)` probes the wave dispatched, over executed
    /// queries. A fanned-out wave probes `executed × shards`; the routed
    /// wave's savings show up as [`ShardedReport::shards_skipped`].
    pub fn shards_probed(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| r.outcome.is_executed())
            .map(|r| r.shards_probed as u64)
            .sum()
    }

    /// Total `(query, shard)` probes the router skipped, over executed
    /// queries. Always 0 under [`RoutingMode::Fanout`].
    pub fn shards_skipped(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| r.outcome.is_executed())
            .map(|r| r.shards_skipped as u64)
            .sum()
    }
}

/// The sharded query service: N shard pools behind one admission front.
/// Construct with [`ShardedService::new`] from a [`ServiceOptions`], then
/// either serve closed waves ([`ShardedService::run_wave`]) or drain an
/// open [`AdmissionQueue`] ([`ShardedService::drain`]).
pub struct ShardedService {
    shards: Vec<Shard>,
    strategy: ShardStrategy,
    routing: RoutingMode,
    router: Router,
    retry: RetryPolicy,
    /// Service-level whole-answer memo, probed at admission before any
    /// shard is touched. Service-level (not per-shard) because its entries
    /// are *merged global* answers.
    answers: Option<AnswerMemo>,
    partition_overhead_bytes: usize,
    /// The next global graph id [`ShardedService::insert_graph`] hands
    /// out. Global ids are append-only and never reused (removal
    /// tombstones), so this only grows.
    next_global_id: GraphId,
}

impl ShardedService {
    /// Partitions `dataset`, builds one `kind` index per shard, computes
    /// each shard's routing synopsis and sets up the per-shard worker
    /// pools (plus the cross-query caches when [`super::CachePolicy`] enables
    /// them). Building is sequential per shard; the returned service
    /// serves waves across all shards concurrently.
    ///
    /// `opts.workers` is the pool size *per shard*.
    pub fn new(
        kind: MethodKind,
        method_config: &MethodConfig,
        dataset: &Dataset,
        opts: ServiceOptions,
    ) -> Self {
        let workers = opts.workers.max(1);
        let workers_max = opts.workers_max.max(workers);
        let parts = partition_dataset(dataset, opts.shards, opts.strategy);
        // The partition shares graph storage with `dataset`, so each
        // part's uniquely-owned bytes are its pointer spine — summed here
        // while the source dataset is provably still alive, this is the
        // honest incremental memory the sharded layout costs on top of it.
        let partition_overhead_bytes = parts
            .iter()
            .map(|part| part.dataset.owned_memory_bytes())
            .sum();
        // The router is always built (one cheap synopsis pass per shard
        // slice): online placement reads it under every routing mode, and
        // `routing` only decides whether waves consult it.
        let router = Router::build(parts.iter().map(|p| &p.dataset));
        let shards: Vec<Shard> = parts
            .into_iter()
            .enumerate()
            .map(|(s, part)| {
                let index = build_index(kind, method_config, &part.dataset);
                let core = Arc::new(Mutex::new(ShardCore {
                    dataset: part.dataset,
                    index,
                    to_global: part.to_global,
                    arenas: (0..workers).map(|_| WorkerArena::default()).collect(),
                    features: (opts.cache.feature_capacity > 0)
                        .then(|| FeatureCache::new(opts.cache.feature_capacity)),
                }));
                let (jobs, job_rx) = mpsc::channel();
                let backlog = Arc::new(AtomicUsize::new(0));
                let worker_high_water = Arc::new(AtomicUsize::new(0));
                let thread = spawn_shard_executor(ExecutorSetup {
                    shard: s,
                    core: Arc::clone(&core),
                    jobs: job_rx,
                    backlog: Arc::clone(&backlog),
                    high_water: Arc::clone(&worker_high_water),
                    workers_min: workers,
                    workers_max,
                    faults: opts.faults.clone(),
                });
                Shard {
                    core,
                    jobs,
                    backlog,
                    worker_high_water,
                    thread: Some(thread),
                }
            })
            .collect();
        ShardedService {
            shards,
            strategy: opts.strategy,
            routing: opts.routing,
            router,
            retry: opts.retry,
            answers: (opts.cache.answer_capacity > 0)
                .then(|| AnswerMemo::new(opts.cache.answer_capacity)),
            partition_overhead_bytes,
            next_global_id: dataset.len(),
        }
    }

    /// Incremental heap bytes the shard partition added on top of the
    /// source dataset at build time: the shards' `Arc` pointer spines.
    /// Before the shared-storage data model this was a full second copy of
    /// the dataset (~100% of `Dataset::memory_bytes`); now it is
    /// O(pointers).
    pub fn partition_overhead_bytes(&self) -> usize {
        self.partition_overhead_bytes
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The partitioning strategy the service was built with.
    pub fn strategy(&self) -> ShardStrategy {
        self.strategy
    }

    /// The routing mode waves run under.
    pub fn routing(&self) -> RoutingMode {
        self.routing
    }

    /// The routing planner (one synopsis per shard), consultable even when
    /// the service was built in [`RoutingMode::Fanout`].
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Graphs per shard, indexed by shard.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.lock().dataset.len()).collect()
    }

    /// Most workers any probe batch ran with, indexed by shard — the
    /// dynamic-scaling high-water mark. A batch runs its shard's pool
    /// (the configured floor, or more while scaling is enabled through
    /// `workers_max`) clamped to the batch size; a shard that has served
    /// no batch reads 0.
    pub fn worker_high_water(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.worker_high_water.load(Ordering::Relaxed))
            .collect()
    }

    /// Aggregated index statistics: feature counts and sizes summed over
    /// all shard indexes.
    pub fn stats(&self) -> IndexStats {
        let mut total = IndexStats {
            distinct_features: 0,
            size_bytes: 0,
        };
        for shard in &self.shards {
            let stats = shard.lock().index.stats();
            total.distinct_features += stats.distinct_features;
            total.size_bytes += stats.size_bytes;
        }
        total
    }

    /// Aggregated cross-query cache counters: feature-cache hits/misses
    /// summed over the shards plus the service-level answer-memo counters.
    /// All zeros when caching is disabled.
    pub fn cache_counters(&self) -> CacheCounters {
        let mut counters = CacheCounters::default();
        for shard in &self.shards {
            if let Some(features) = &shard.lock().features {
                counters.feature_hits += features.hits();
                counters.feature_misses += features.misses();
                counters.evictions += features.evictions();
            }
        }
        if let Some(memo) = &self.answers {
            counters.answer_hits += memo.hits();
            counters.answer_misses += memo.misses();
            counters.evictions += memo.evictions();
        }
        counters
    }

    /// Drops every cached entry (all per-shard feature caches and the
    /// answer memo) and bumps their epochs. Every mutation entry point
    /// ([`ShardedService::insert_graph`], [`ShardedService::remove_graph`],
    /// and therefore the drained [`IngestOp`] mutations) calls this
    /// automatically, so a warm answer memo can never replay a
    /// pre-mutation answer — the caches stay *enabled* on mutable
    /// workloads instead of being turned off defensively.
    /// Hit/miss/eviction counters survive the flush.
    pub fn invalidate_caches(&self) {
        for shard in &self.shards {
            if let Some(features) = &shard.lock().features {
                features.invalidate_all();
            }
        }
        if let Some(memo) = &self.answers {
            memo.invalidate_all();
        }
    }

    /// Picks the shard a newly ingested graph lands on, mirroring the
    /// build-time [`partition_dataset`] strategy online:
    ///
    /// * `RoundRobin` — `global_id % shards`, exactly the offline rule.
    /// * `SizeBalanced` — the shard with the lightest total live weight
    ///   (vertices + edges), the streaming analogue of LPT greedy.
    /// * `LabelAware` — the shard whose synopsis already hosts most of the
    ///   graph's vertex labels (ties to the lighter shard, then the lower
    ///   index), keeping label-coherent families co-located so synopsis
    ///   routing keeps skipping shards under interleaved ingest.
    fn place(&self, graph: &Graph, global_id: GraphId) -> usize {
        let shard_count = self.shards.len();
        let load = |s: usize| -> usize {
            self.shards[s]
                .lock()
                .dataset
                .iter()
                .map(|(_, g)| g.vertex_count() + g.edge_count())
                .sum()
        };
        match self.strategy {
            ShardStrategy::RoundRobin => global_id % shard_count,
            ShardStrategy::SizeBalanced => (0..shard_count)
                .min_by_key(|&s| (load(s), s))
                .expect("at least one shard"),
            ShardStrategy::LabelAware => {
                let affinity = |s: usize| -> usize {
                    let hosted = &self.router.synopsis(s).max_label_counts;
                    graph
                        .labels()
                        .iter()
                        .filter(|label| hosted.contains_key(label))
                        .count()
                };
                (0..shard_count)
                    .max_by_key(|&s| {
                        (
                            affinity(s),
                            std::cmp::Reverse(load(s)),
                            std::cmp::Reverse(s),
                        )
                    })
                    .expect("at least one shard")
            }
        }
    }

    /// Appends `graph` to the service online: places it on a shard by the
    /// build-time strategy, pushes it into that shard's dataset, extends
    /// the shard's index incrementally (no rebuild), widens the shard's
    /// routing synopsis in place, and **invalidates every cache** so no
    /// stale answer survives the mutation. Returns the graph's new global
    /// id — dense, append-only, never reused.
    pub fn insert_graph(&mut self, graph: Graph) -> GraphId {
        let global = self.next_global_id;
        self.next_global_id += 1;
        let shard_idx = self.place(&graph, global);
        // Widen the routing tier before the graph moves into the shard:
        // `insert_graph` holds `&mut self`, so no wave can observe the
        // widened router ahead of the actual insert.
        self.router.absorb(shard_idx, &GraphSynopsis::of(&graph));
        {
            let mut core = self.shards[shard_idx].lock();
            // The index assigns the same local id the dataset push does:
            // both are defined as the current dense universe size.
            let local = core.index.insert(&graph);
            let pushed = core.dataset.push(graph);
            debug_assert_eq!(local, pushed);
            // New global ids exceed every id already in the table, so the
            // push keeps `to_global` sorted — the invariant that makes
            // merged answers come out in global id order.
            core.to_global.push(global);
        }
        self.invalidate_caches();
        global
    }

    /// Removes the graph with global id `global_id` online: tombstones it
    /// in its shard's dataset and index (ids stay dense; payload
    /// compaction is lazy), recomputes that shard's routing synopsis from
    /// its live contents, and **invalidates every cache**. Returns `false`
    /// when the id is unknown or already removed.
    ///
    /// The recomputed synopsis may stay wider than strictly necessary
    /// between compactions but is always recomputed over the live graphs
    /// only (dead slots hold empty placeholders that widen nothing), so
    /// [`ShardSynopsis::admits`] remains a sound necessary condition and
    /// never narrows below the shard's live contents.
    pub fn remove_graph(&mut self, global_id: GraphId) -> bool {
        for s in 0..self.shards.len() {
            let synopsis = {
                let mut core = self.shards[s].lock();
                let Ok(local) = core.to_global.binary_search(&global_id) else {
                    continue;
                };
                if !core.dataset.remove(local) {
                    // Already tombstoned: report idempotently, touch nothing.
                    return false;
                }
                let index_removed = core.index.remove(local);
                debug_assert!(index_removed, "dataset and index tombstones diverged");
                ShardSynopsis::of(&core.dataset)
            };
            self.router.replace(s, synopsis);
            self.invalidate_caches();
            return true;
        }
        false
    }

    /// Serves one closed wave of queries against every shard concurrently
    /// and merges the results. Records come back in wave order with the
    /// query's position as its ticket. `deadline` is wave-wide; see
    /// [`ShardedService::drain`] for per-query deadlines.
    pub fn run_wave(&mut self, queries: &[&Graph], deadline: Option<Instant>) -> ShardedReport {
        let tickets: Vec<Ticket> = (0..queries.len() as u64).collect();
        self.run_wave_inner(queries, deadline, None, &tickets, None)
    }

    /// Drains every operation currently admitted to `queue` and serves
    /// them as one wave, honouring each query's own admission deadline.
    /// Returns immediately with an empty report when nothing is pending —
    /// the caller's consumer loop paces itself. The queue is deliberately
    /// external to the service so any number of producer threads can
    /// `submit` against it while the consumer drains.
    ///
    /// Mutations ([`IngestOp::Insert`] / [`IngestOp::Remove`]) interleave
    /// with reads in **ticket order**: consecutive reads are batched and
    /// fanned out together, each mutation flushes the batch first and is
    /// then applied (through [`ShardedService::insert_graph`] /
    /// [`ShardedService::remove_graph`], so caches are invalidated and
    /// synopses widened automatically). A query therefore always observes
    /// exactly the dataset state of its admission point — never answers
    /// computed against a snapshot a later (or earlier) write belongs to.
    /// Mutations produce their own (empty-answer, `Complete`) records so
    /// the report stays wave-shaped; no ticket is ever lost.
    pub fn drain(&mut self, queue: &AdmissionQueue, deadline: Option<Instant>) -> ShardedReport {
        let wave: Vec<AdmittedQuery> = queue.drain_pending();
        let shard_count = self.shards.len();
        if wave.is_empty() {
            return ShardedReport {
                records: Vec::new(),
                per_shard: vec![StageTotals::default(); shard_count],
                totals: StageTotals::default(),
                wall_s: 0.0,
                shards: shard_count,
                inserts_applied: 0,
                removes_applied: 0,
            };
        }
        let watch = Stopwatch::start();
        // Queue-wait accounting starts at submission, not at wave start: a
        // query that sat in a backed-up admission queue carries that wait
        // into its record on top of the in-wave shard queue wait.
        let drained_at = Instant::now();
        let mut records: Vec<ShardedQueryRecord> = Vec::with_capacity(wave.len());
        let mut per_shard = vec![StageTotals::default(); shard_count];
        let mut totals = StageTotals::default();
        let (mut inserts_applied, mut removes_applied) = (0usize, 0usize);
        let mut reads: Vec<AdmittedQuery> = Vec::new();
        for admitted in wave {
            if !admitted.op.is_mutation() {
                reads.push(admitted);
                continue;
            }
            if !reads.is_empty() {
                let report = self.serve_read_batch(&reads, deadline, drained_at);
                feed_cost_model(queue, &report.records);
                records.extend(report.records);
                for (s, shard_totals) in report.per_shard.iter().enumerate() {
                    per_shard[s].merge(shard_totals);
                }
                totals.merge(&report.totals);
                reads.clear();
            }
            let wait_s = drained_at
                .saturating_duration_since(admitted.submitted_at)
                .as_secs_f64();
            match admitted.op {
                IngestOp::Insert(graph) => {
                    self.insert_graph(graph);
                    inserts_applied += 1;
                }
                IngestOp::Remove(id) => {
                    if self.remove_graph(id) {
                        removes_applied += 1;
                    }
                }
                IngestOp::Query(_) => unreachable!("filtered above"),
            }
            records.push(ShardedQueryRecord {
                ticket: admitted.ticket,
                answers: Vec::new(),
                candidate_count: 0,
                candidates_pruned: 0,
                queue_wait_s: wait_s,
                cache_probe_s: 0.0,
                filter_s: 0.0,
                verify_s: 0.0,
                outcome: QueryOutcome::Complete,
                retries: 0,
                shards_probed: 0,
                shards_skipped: 0,
                latency_s: wait_s,
            });
        }
        if !reads.is_empty() {
            let report = self.serve_read_batch(&reads, deadline, drained_at);
            feed_cost_model(queue, &report.records);
            records.extend(report.records);
            for (s, shard_totals) in report.per_shard.iter().enumerate() {
                per_shard[s].merge(shard_totals);
            }
            totals.merge(&report.totals);
        }
        ShardedReport {
            records,
            per_shard,
            totals,
            wall_s: watch.elapsed_secs(),
            shards: shard_count,
            inserts_applied,
            removes_applied,
        }
    }

    /// Serves one run of consecutive drained reads as a sub-wave.
    ///
    /// Every executed record that actually reached a shard feeds the
    /// queue's measured cost model, so future [`AdmissionQueue::submit_or_shed`]
    /// decisions are earned from observed filter/verify cost rather than
    /// asserted by callers. Memo hits (zero shards probed) are excluded:
    /// they carry candidate counts from the run that populated the memo
    /// but near-zero serve cost, and would drag the estimate toward zero.
    fn serve_read_batch(
        &mut self,
        batch: &[AdmittedQuery],
        deadline: Option<Instant>,
        drained_at: Instant,
    ) -> ShardedReport {
        let queries: Vec<&Graph> = batch
            .iter()
            .map(|a| a.query().expect("read batch holds only queries"))
            .collect();
        let per_query: Vec<Option<Instant>> = batch.iter().map(|a| a.deadline).collect();
        let tickets: Vec<Ticket> = batch.iter().map(|a| a.ticket).collect();
        let admission_wait_s: Vec<f64> = batch
            .iter()
            .map(|a| {
                drained_at
                    .saturating_duration_since(a.submitted_at)
                    .as_secs_f64()
            })
            .collect();
        self.run_wave_inner(
            &queries,
            deadline,
            Some(&per_query),
            &tickets,
            Some(&admission_wait_s),
        )
    }

    fn run_wave_inner(
        &mut self,
        queries: &[&Graph],
        deadline: Option<Instant>,
        per_query: Option<&[Option<Instant>]>,
        tickets: &[Ticket],
        admission_wait_s: Option<&[f64]>,
    ) -> ShardedReport {
        let shard_count = self.shards.len();
        let watch = Stopwatch::start();
        // Routing stage: per shard, the ascending wave indices of the
        // queries it must serve. Fanout keeps the pre-routing zero-copy
        // path (every shard serves the wave slice as-is, no plan is
        // materialized); synopsis routing builds per-shard subsets,
        // skipping shards the summary proves empty of matches — soundly,
        // so the merge below stays bit-identical.
        let plan: Option<Vec<Vec<usize>>> = match self.routing {
            RoutingMode::Fanout => None,
            mode => Some(self.router.plan(queries, mode)),
        };
        // Answer-memo admission: probe the whole-answer memo before any
        // shard sees the wave. A hit is served straight from the memo and
        // excluded from every shard's plan, so a repeated hot query costs
        // one canonical-key probe instead of up to `shard_count` index
        // probes. A query whose deadline has already expired is *not*
        // probed — it must flow through the pools and time out exactly
        // like the uncached path.
        let memo = self.answers.as_ref();
        let mut memo_keys: Vec<Option<String>> = Vec::new();
        let mut memo_hits: Vec<Option<(Arc<AnswerEntry>, f64)>> = Vec::new();
        let mut any_hit = false;
        if let Some(memo) = memo {
            memo_keys.reserve(queries.len());
            memo_hits.reserve(queries.len());
            for (qi, query) in queries.iter().enumerate() {
                let now = Instant::now();
                let expired = deadline.is_some_and(|d| now >= d)
                    || per_query.and_then(|p| p[qi]).is_some_and(|d| now >= d);
                let key = if expired {
                    None
                } else {
                    answer_memo_key(query)
                };
                let probe = Stopwatch::start();
                let hit = key.as_deref().and_then(|k| memo.lookup(k));
                any_hit |= hit.is_some();
                memo_hits.push(hit.map(|entry| (entry, probe.elapsed_secs())));
                memo_keys.push(key);
            }
        }
        let plan: Option<Vec<Vec<usize>>> = if any_hit {
            // Memo hits must reach no shard: materialize the plan (fanout
            // becomes an explicit every-shard plan) and strip them. The
            // merge cursors below stay consistent because the hit indices
            // vanish from every shard's admitted list at once.
            let mut plan = plan.unwrap_or_else(|| vec![(0..queries.len()).collect(); shard_count]);
            for admitted in &mut plan {
                admitted.retain(|&qi| memo_hits[qi].is_none());
            }
            Some(plan)
        } else {
            plan
        };
        // Dispatch stage: from here the wave is event-driven. Probes ship
        // to the persistent shard executors and the merge below folds each
        // `(query, shard)` result the moment it lands — per-query
        // completion, so a slow or stalled shard only gates the queries it
        // actually serves, and retries are heap-scheduled alongside live
        // probes instead of running as barrier rounds on this thread.
        let admitted: Vec<Vec<usize>> =
            plan.unwrap_or_else(|| vec![(0..queries.len()).collect(); shard_count]);
        let deadline_for = |qi: usize| -> Option<Instant> {
            let own = per_query.and_then(|p| p[qi]);
            match (deadline, own) {
                (Some(wave), Some(own)) => Some(wave.min(own)),
                (Some(wave), None) => Some(wave),
                (None, own) => own,
            }
        };
        let mut probes_of = vec![0usize; queries.len()];
        for list in &admitted {
            for &qi in list {
                probes_of[qi] += 1;
            }
        }
        let wave_started = Instant::now();
        let mut state = WaveMerge {
            flights: tickets
                .iter()
                .enumerate()
                .map(|(qi, &ticket)| Flight {
                    record: ShardedQueryRecord {
                        ticket,
                        answers: Vec::new(),
                        candidate_count: 0,
                        candidates_pruned: 0,
                        queue_wait_s: 0.0,
                        cache_probe_s: 0.0,
                        filter_s: 0.0,
                        verify_s: 0.0,
                        latency_s: 0.0,
                        outcome: QueryOutcome::Complete,
                        retries: 0,
                        shards_probed: probes_of[qi],
                        shards_skipped: shard_count - probes_of[qi],
                    },
                    done: 0,
                    failed: 0,
                    timed_out: 0,
                    outstanding: 0,
                    pending_retries: 0,
                    shard_wait_s: 0.0,
                    deadline: deadline_for(qi),
                    finalized: false,
                })
                .collect(),
            per_shard: vec![StageTotals::default(); shard_count],
            totals: StageTotals::default(),
            rounds: HashMap::new(),
            retry_heap: BinaryHeap::new(),
            remaining: queries.len(),
            retry: self.retry,
            wave_started,
            memo,
            memo_keys,
            admission_wait_s,
        };
        // Memo hits never reach a shard: serve them straight from the
        // cached entries (already stripped from every admitted list).
        for (qi, hit) in memo_hits.iter().enumerate() {
            if let Some((entry, probe_s)) = hit {
                state.serve_from_memo(qi, entry, *probe_s);
            }
        }
        // One fresh reply channel per wave: when this wave abandons a
        // flight (deadline) or returns, late executor replies land on a
        // dead channel and vanish instead of corrupting a later wave.
        let (reply, events) = mpsc::channel::<WaveEvent>();
        // Executors are persistent threads, so they need owning handles to
        // the queries they serve: one clone per query that some shard
        // probes. Memo hits and queries no shard admits are never cloned.
        let owned: Vec<Option<Arc<Graph>>> = queries
            .iter()
            .zip(&probes_of)
            .map(|(&q, &probes)| (probes > 0).then(|| Arc::new(q.clone())))
            .collect();
        let probe_item = |qi: usize| ProbeItem {
            slot: qi,
            query: Arc::clone(owned[qi].as_ref().expect("a probed query is owned")),
            deadline: per_query.and_then(|p| p[qi]),
            ticket: tickets[qi],
        };
        for (s, list) in admitted.iter().enumerate() {
            if list.is_empty() {
                continue;
            }
            let items: Vec<ProbeItem> = list.iter().map(|&qi| probe_item(qi)).collect();
            let count = items.len();
            self.shards[s].backlog.fetch_add(count, Ordering::Relaxed);
            let job = ShardJob {
                items,
                wave_deadline: deadline,
                reply: reply.clone(),
            };
            match self.shards[s].jobs.send(job) {
                Ok(()) => {
                    for &qi in list {
                        state.flights[qi].outstanding += 1;
                    }
                }
                // The executor died (pool infrastructure, not a query
                // panic): every probe of the job failed — retryable.
                Err(_) => {
                    self.shards[s].backlog.fetch_sub(count, Ordering::Relaxed);
                    let now = Instant::now();
                    for &qi in list {
                        state.fail_probe(qi, s, now);
                    }
                }
            }
        }
        // Queries with nothing in flight — admitted by no shard, or whose
        // every dispatch failed beyond retry — finalize immediately.
        let now = Instant::now();
        for qi in 0..state.flights.len() {
            state.maybe_finalize(qi, now);
        }
        // Merge loop: fold events as they arrive, fire due retries, abandon
        // flights whose deadline passed, and sleep only until whichever
        // comes first — the next event, retry due time or deadline.
        while state.remaining > 0 {
            // Drain everything already buffered before any deadline sweep:
            // a result that arrived in time is never abandoned.
            while let Ok(event) = events.try_recv() {
                state.handle(event);
            }
            if state.remaining == 0 {
                break;
            }
            let mut now = Instant::now();
            while let Some(&Reverse((due, qi, s))) = state.retry_heap.peek() {
                if due > now {
                    break;
                }
                state.retry_heap.pop();
                if state.flights[qi].finalized {
                    continue;
                }
                state.flights[qi].pending_retries -= 1;
                state.flights[qi].record.retries += 1;
                self.shards[s].backlog.fetch_add(1, Ordering::Relaxed);
                let job = ShardJob {
                    items: vec![probe_item(qi)],
                    wave_deadline: deadline,
                    reply: reply.clone(),
                };
                match self.shards[s].jobs.send(job) {
                    Ok(()) => state.flights[qi].outstanding += 1,
                    Err(_) => {
                        self.shards[s].backlog.fetch_sub(1, Ordering::Relaxed);
                        state.fail_probe(qi, s, now);
                        state.maybe_finalize(qi, now);
                    }
                }
                now = Instant::now();
            }
            for qi in 0..state.flights.len() {
                let flight = &state.flights[qi];
                if !flight.finalized && flight.deadline.is_some_and(|d| now > d) {
                    // Deadline abandonment: the flight finalizes from what
                    // its shards delivered so far (degraded, sound) instead
                    // of waiting out a stalled shard.
                    state.finalize(qi, now);
                }
            }
            if state.remaining == 0 {
                break;
            }
            let next_retry = state.retry_heap.peek().map(|&Reverse((due, _, _))| due);
            let next_deadline = state
                .flights
                .iter()
                .filter(|f| !f.finalized)
                .filter_map(|f| f.deadline)
                .min();
            let wake = match (next_retry, next_deadline) {
                (Some(r), Some(d)) => Some(r.min(d)),
                (Some(r), None) => Some(r),
                (None, d) => d,
            };
            match wake {
                None => match events.recv() {
                    Ok(event) => state.handle(event),
                    // Unreachable while this frame holds `reply`; bail
                    // defensively rather than spin on a dead channel.
                    Err(_) => {
                        state.finalize_all();
                        break;
                    }
                },
                Some(at) => {
                    let timeout = at.saturating_duration_since(Instant::now());
                    match events.recv_timeout(timeout) {
                        Ok(event) => state.handle(event),
                        Err(RecvTimeoutError::Timeout) => {}
                        Err(RecvTimeoutError::Disconnected) => {
                            state.finalize_all();
                            break;
                        }
                    }
                }
            }
        }
        let WaveMerge {
            flights,
            per_shard,
            totals,
            ..
        } = state;
        ShardedReport {
            records: flights.into_iter().map(|f| f.record).collect(),
            per_shard,
            totals,
            wall_s: watch.elapsed_secs(),
            shards: shard_count,
            inserts_applied: 0,
            removes_applied: 0,
        }
    }
}

/// One query's in-flight state while its wave is being merged.
struct Flight {
    /// The record under construction — returned as-is once finalized.
    record: ShardedQueryRecord,
    /// Probed shards that delivered a result.
    done: usize,
    /// Probed shards that failed beyond the retry budget.
    failed: usize,
    /// Probed shards whose probe timed out (never retried).
    timed_out: usize,
    /// Probes currently executing (or queued) on shard executors.
    outstanding: usize,
    /// Probes waiting on the retry heap for their backoff to elapse.
    pending_retries: usize,
    /// Longest shard-local queue wait seen so far.
    shard_wait_s: f64,
    /// The query's effective deadline: min(wave-wide, its own).
    deadline: Option<Instant>,
    finalized: bool,
}

/// The per-wave merge state: one [`Flight`] per query plus the retry
/// schedule and the running totals. Owned by the wave thread; shard
/// executors only ever talk to it through [`WaveEvent`]s.
struct WaveMerge<'w> {
    flights: Vec<Flight>,
    per_shard: Vec<StageTotals>,
    totals: StageTotals,
    /// Retry rounds spent per `(query, shard)` pair.
    rounds: HashMap<(usize, usize), u32>,
    /// Min-heap of `(due, query, shard)` retries awaiting their backoff.
    retry_heap: BinaryHeap<Reverse<(Instant, usize, usize)>>,
    /// Flights not yet finalized — the merge loop's exit condition.
    remaining: usize,
    retry: RetryPolicy,
    wave_started: Instant,
    memo: Option<&'w AnswerMemo>,
    memo_keys: Vec<Option<String>>,
    admission_wait_s: Option<&'w [f64]>,
}

impl WaveMerge<'_> {
    /// Serves query `qi` from a whole-answer memo hit: the record is
    /// synthesized from the cached entry (answers are already sorted
    /// global ids; candidate accounting carries over from the run that
    /// populated the memo) and the flight finalizes on the spot.
    fn serve_from_memo(&mut self, qi: usize, entry: &AnswerEntry, probe_s: f64) {
        let shard_count = self.per_shard.len();
        let admission_wait = self.admission_wait_s.map_or(0.0, |w| w[qi]);
        let flight = &mut self.flights[qi];
        let record = &mut flight.record;
        record.answers = entry.answers.clone();
        record.candidate_count = entry.candidate_count;
        record.candidates_pruned = entry.candidates_pruned;
        record.queue_wait_s = admission_wait;
        record.cache_probe_s = probe_s;
        record.outcome = QueryOutcome::Complete;
        record.shards_probed = 0;
        record.shards_skipped = shard_count;
        record.latency_s = admission_wait + probe_s;
        flight.finalized = true;
        self.remaining -= 1;
        self.totals
            .add_query(admission_wait, probe_s, 0.0, 0.0, entry.candidates_pruned);
        self.totals.observe_latency(record.latency_s);
    }

    /// Folds one `(query, shard)` completion into its flight. Events for
    /// an already-finalized flight are late replies from an abandoned
    /// probe and are dropped.
    fn handle(&mut self, event: WaveEvent) {
        let WaveEvent {
            shard,
            slot,
            outcome,
            record,
        } = event;
        if self.flights[slot].finalized {
            return;
        }
        self.flights[slot].outstanding -= 1;
        match record {
            Some(record) => {
                self.per_shard[shard].add_query(
                    record.queue_wait_s,
                    record.cache_probe_s,
                    record.filter_s,
                    record.verify_s,
                    record.candidates_pruned,
                );
                let flight = &mut self.flights[slot];
                let merged = &mut flight.record;
                // The executor mapped answers to global ids already.
                merged.answers.extend(record.answers.iter().copied());
                merged.candidate_count += record.candidate_count;
                merged.candidates_pruned += record.candidates_pruned;
                flight.shard_wait_s = flight.shard_wait_s.max(record.queue_wait_s);
                merged.cache_probe_s += record.cache_probe_s;
                merged.filter_s += record.filter_s;
                merged.verify_s += record.verify_s;
                flight.done += 1;
            }
            None => match outcome {
                // Timed-out probes are never retried: their deadline
                // budget is spent by definition.
                QueryOutcome::TimedOut => self.flights[slot].timed_out += 1,
                _ => self.fail_probe(slot, shard, Instant::now()),
            },
        }
        self.maybe_finalize(slot, Instant::now());
    }

    /// Registers a failed `(query, shard)` probe: schedules a retry with
    /// exponential backoff while the per-pair budget and the query's
    /// deadline allow, else counts the probe as failed for good.
    fn fail_probe(&mut self, qi: usize, shard: usize, now: Instant) {
        let flight = &mut self.flights[qi];
        let round = self.rounds.entry((qi, shard)).or_insert(0);
        if *round < self.retry.max_retries {
            if let Some(due) = self.retry.retry_at(*round, now, flight.deadline) {
                *round += 1;
                flight.pending_retries += 1;
                self.retry_heap.push(Reverse((due, qi, shard)));
                return;
            }
        }
        flight.failed += 1;
    }

    /// Finalizes `qi` iff nothing of it is in flight or awaiting retry.
    fn maybe_finalize(&mut self, qi: usize, now: Instant) {
        let flight = &self.flights[qi];
        if !flight.finalized && flight.outstanding == 0 && flight.pending_retries == 0 {
            self.finalize(qi, now);
        }
    }

    /// Settles query `qi`'s outcome from whatever its shards delivered by
    /// `now` and closes the flight. Probes still outstanding or awaiting
    /// retry count as missing — this is the deadline-abandonment path.
    fn finalize(&mut self, qi: usize, now: Instant) {
        let admission_wait = self.admission_wait_s.map_or(0.0, |w| w[qi]);
        let flight = &mut self.flights[qi];
        flight.finalized = true;
        self.remaining -= 1;
        let record = &mut flight.record;
        // Total queue wait = time pending in the admission queue (open
        // waves only) + the in-wave wait for the slowest shard.
        record.queue_wait_s = admission_wait + flight.shard_wait_s;
        record.latency_s = admission_wait
            + now
                .saturating_duration_since(self.wave_started)
                .as_secs_f64();
        let missing =
            flight.failed + flight.timed_out + flight.outstanding + flight.pending_retries;
        record.outcome = if record.shards_probed == 0 {
            // Deadline parity with fan-out for zero-probe queries: a
            // fanned-out wave would have had every shard skip a
            // past-deadline query, so a routed query that no shard admits
            // must not dodge its deadline just because its (empty) answer
            // was free — same `now > deadline` predicate the workers
            // apply at claim time.
            if flight.deadline.is_some_and(|d| now > d) {
                QueryOutcome::TimedOut
            } else {
                QueryOutcome::Complete
            }
        } else if missing == 0 {
            QueryOutcome::Complete
        } else if flight.done > 0 {
            // Graceful degradation: some probed shards delivered within
            // the budget, others did not. The partial union is sound
            // (verification is exact on every shard), so report it flagged
            // rather than blocking on — or discarding — the whole query.
            QueryOutcome::Degraded {
                shards_missing: missing,
            }
        } else if flight.failed > 0 {
            QueryOutcome::Failed
        } else {
            QueryOutcome::TimedOut
        };
        if record.outcome.is_executed() {
            // Shards partition the id space, so the concatenation is
            // duplicate-free; sorting restores global id order.
            record.answers.sort_unstable();
            // Only exact (Complete) merged answers are memoizable: a
            // Degraded union is sound but incomplete, and serving it from
            // the memo later would silently repeat the loss.
            if record.outcome == QueryOutcome::Complete {
                if let (Some(memo), Some(Some(key))) = (self.memo, self.memo_keys.get(qi)) {
                    memo.insert(
                        key.clone(),
                        AnswerEntry {
                            answers: record.answers.clone(),
                            candidate_count: record.candidate_count,
                            candidates_pruned: record.candidates_pruned,
                        },
                    );
                }
            }
            self.totals.add_query(
                record.queue_wait_s,
                record.cache_probe_s,
                record.filter_s,
                record.verify_s,
                record.candidates_pruned,
            );
            self.totals.observe_latency(record.latency_s);
        } else {
            // No shard delivered: report an explicit non-answer, not a
            // silently empty answer set.
            record.answers.clear();
            record.candidate_count = 0;
            record.candidates_pruned = 0;
        }
    }

    /// Defensive last resort for a dead event channel: settle every open
    /// flight from what has arrived so far.
    fn finalize_all(&mut self) {
        let now = Instant::now();
        for qi in 0..self.flights.len() {
            if !self.flights[qi].finalized {
                self.finalize(qi, now);
            }
        }
    }
}

/// Feeds one drained sub-wave's executed records into the admission
/// queue's measured cost model (see [`ShardedService::serve_read_batch`]).
fn feed_cost_model(queue: &AdmissionQueue, records: &[ShardedQueryRecord]) {
    for record in records {
        if record.outcome.is_executed() && record.shards_probed > 0 {
            queue
                .cost_model()
                .observe(record.candidate_count, record.filter_s, record.verify_s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqbench_generator::{GraphGen, GraphGenConfig, QueryGen};
    use std::time::Duration;

    fn setup(graphs: usize, queries: usize) -> (Dataset, Vec<Graph>) {
        let ds = GraphGen::new(
            GraphGenConfig::default()
                .with_graph_count(graphs)
                .with_avg_nodes(12)
                .with_avg_density(0.15)
                .with_label_count(4)
                .with_seed(23),
        )
        .generate();
        let workload = QueryGen::new(9).generate(&ds, queries, 4);
        let qs = workload.iter().map(|(q, _)| q.clone()).collect();
        (ds, qs)
    }

    #[test]
    fn round_robin_partition_covers_every_graph_once() {
        let (ds, _) = setup(13, 1);
        for shards in [1, 2, 4, 7] {
            let parts = partition_dataset(&ds, shards, ShardStrategy::RoundRobin);
            assert_eq!(parts.len(), shards);
            let mut seen: Vec<GraphId> = parts.iter().flat_map(|p| p.to_global.clone()).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..ds.len()).collect::<Vec<_>>());
            for part in &parts {
                assert_eq!(part.dataset.len(), part.to_global.len());
                // Local id order tracks global id order.
                assert!(part.to_global.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    #[test]
    fn size_balanced_partition_covers_every_graph_once_and_balances() {
        let (ds, _) = setup(12, 1);
        let parts = partition_dataset(&ds, 3, ShardStrategy::SizeBalanced);
        let mut seen: Vec<GraphId> = parts.iter().flat_map(|p| p.to_global.clone()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..ds.len()).collect::<Vec<_>>());
        for part in &parts {
            assert!(part.to_global.windows(2).all(|w| w[0] < w[1]));
        }
        // LPT keeps the heaviest shard within 2x of the lightest on any
        // non-degenerate dataset (loose bound; the partition is greedy).
        let weights: Vec<usize> = parts
            .iter()
            .map(|p| {
                p.dataset
                    .iter()
                    .map(|(_, g)| g.vertex_count() + g.edge_count())
                    .sum()
            })
            .collect();
        let max = *weights.iter().max().unwrap();
        let min = *weights.iter().min().unwrap();
        assert!(max <= min.max(1) * 2, "badly unbalanced: {weights:?}");
    }

    #[test]
    fn partition_shares_graph_storage_with_the_source() {
        let (ds, _) = setup(14, 1);
        for strategy in ShardStrategy::ALL {
            let parts = partition_dataset(&ds, 3, strategy);
            for part in &parts {
                for (local, global) in part.to_global.iter().enumerate() {
                    assert!(
                        std::sync::Arc::ptr_eq(
                            part.dataset.shared_unchecked(local),
                            ds.shared_unchecked(*global)
                        ),
                        "{}: shard graph {local} is not the source allocation",
                        strategy.name()
                    );
                }
                // Each part uniquely owns only its pointer spine.
                assert_eq!(
                    part.dataset.owned_memory_bytes() + part.dataset.shared_memory_bytes(),
                    part.dataset.memory_bytes()
                );
                if !part.dataset.is_empty() {
                    assert!(part.dataset.shared_memory_bytes() > 0);
                }
            }
            let overhead: usize = parts.iter().map(|p| p.dataset.owned_memory_bytes()).sum();
            assert!(
                overhead < ds.memory_bytes() / 10,
                "{}: partition overhead {overhead} not pointer-sized vs {}",
                strategy.name(),
                ds.memory_bytes()
            );
        }
    }

    #[test]
    fn label_aware_partition_covers_every_graph_once_and_stays_balanced() {
        let (ds, _) = setup(16, 1);
        let parts = partition_dataset(&ds, 4, ShardStrategy::LabelAware);
        let mut seen: Vec<GraphId> = parts.iter().flat_map(|p| p.to_global.clone()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..ds.len()).collect::<Vec<_>>());
        for part in &parts {
            assert!(part.to_global.windows(2).all(|w| w[0] < w[1]));
        }
        // The balance cap keeps any shard at roughly total/shards weight
        // even when label affinity pulls everything together (the uniform
        // generated dataset shares one label alphabet).
        let weights: Vec<usize> = parts
            .iter()
            .map(|p| {
                p.dataset
                    .iter()
                    .map(|(_, g)| g.vertex_count() + g.edge_count())
                    .sum()
            })
            .collect();
        let total: usize = weights.iter().sum();
        let cap = total.div_ceil(4);
        for (shard, &w) in weights.iter().enumerate() {
            assert!(
                w <= cap + total / ds.len().max(1),
                "shard {shard} weight {w} blew past the cap {cap} ({weights:?})"
            );
        }
    }

    #[test]
    fn label_aware_clusters_interleaved_families_and_routes_past_round_robin() {
        // Four label-disjoint families interleaved i % 4, served on 3
        // shards: round-robin smears every family across all shards (4 and
        // 3 are coprime), so routing cannot skip anything; label-aware
        // placement re-clusters the families, so each query's labels live
        // on a strict shard subset.
        let ds = sqbench_generator::label_clustered(
            &GraphGenConfig::default()
                .with_graph_count(24)
                .with_avg_nodes(10)
                .with_avg_density(0.16)
                .with_label_count(3)
                .with_seed(91),
            4,
        );
        let queries: Vec<Graph> = QueryGen::new(17)
            .generate(&ds, 8, 4)
            .iter()
            .map(|(q, _)| q.clone())
            .collect();
        let refs: Vec<&Graph> = queries.iter().collect();
        let config = MethodConfig::fast();
        let build = |strategy| {
            ShardedService::new(
                MethodKind::Ggsx,
                &config,
                &ds,
                ServiceOptions::new()
                    .shards(3)
                    .strategy(strategy)
                    .routing(RoutingMode::Synopsis),
            )
        };
        let mut round_robin = build(ShardStrategy::RoundRobin);
        let mut label_aware = build(ShardStrategy::LabelAware);
        let rr_report = round_robin.run_wave(&refs, None);
        let la_report = label_aware.run_wave(&refs, None);
        // Placement must be invisible in the answers...
        let oracle = build_index(MethodKind::Ggsx, &config, &ds);
        for ((rr, la), query) in rr_report
            .records
            .iter()
            .zip(la_report.records.iter())
            .zip(queries.iter())
        {
            let expected = oracle.query(&ds, query).answers;
            assert_eq!(rr.answers, expected);
            assert_eq!(la.answers, expected);
        }
        // ...and label-aware placement must make routing strictly cheaper
        // than round-robin on this interleaved ingest.
        assert!(
            la_report.shards_probed() < rr_report.shards_probed(),
            "label-aware probed {} vs round-robin {} — placement bought nothing",
            la_report.shards_probed(),
            rr_report.shards_probed()
        );
    }

    #[test]
    fn more_shards_than_graphs_leaves_empty_shards() {
        let (ds, _) = setup(3, 1);
        let parts = partition_dataset(&ds, 5, ShardStrategy::RoundRobin);
        assert_eq!(parts.len(), 5);
        assert_eq!(parts.iter().filter(|p| p.dataset.is_empty()).count(), 2);
    }

    #[test]
    fn sharded_wave_matches_unsharded_answers() {
        let (ds, queries) = setup(17, 6);
        let refs: Vec<&Graph> = queries.iter().collect();
        let config = MethodConfig::fast();
        for strategy in [ShardStrategy::RoundRobin, ShardStrategy::SizeBalanced] {
            let mut service = ShardedService::new(
                MethodKind::Ggsx,
                &config,
                &ds,
                ServiceOptions::new().shards(4).strategy(strategy),
            );
            assert_eq!(service.shard_count(), 4);
            let report = service.run_wave(&refs, None);
            assert_eq!(report.executed(), queries.len());
            assert_eq!(report.expired(), 0);
            let oracle = build_index(MethodKind::Ggsx, &config, &ds);
            for (record, query) in report.records.iter().zip(queries.iter()) {
                let outcome = oracle.query(&ds, query);
                assert_eq!(record.answers, outcome.answers, "{}", strategy.name());
            }
        }
    }

    #[test]
    fn drain_serves_admitted_queries_and_honours_expired_deadlines() {
        let (ds, queries) = setup(10, 4);
        let mut service = ShardedService::new(
            MethodKind::Ggsx,
            &MethodConfig::fast(),
            &ds,
            ServiceOptions::new().shards(2),
        );
        let queue = AdmissionQueue::new(ServiceOptions::new().queue_capacity(8));
        let past = Instant::now() - Duration::from_secs(1);
        let live = queue.submit(queries[0].clone(), None).unwrap();
        let dead = queue.submit(queries[1].clone(), Some(past)).unwrap();
        let report = service.drain(&queue, None);
        assert_eq!(report.records.len(), 2);
        assert_eq!(report.records[0].ticket, live);
        assert!(!report.records[0].expired());
        assert_eq!(report.records[0].outcome, QueryOutcome::Complete);
        assert_eq!(report.records[1].ticket, dead);
        assert!(report.records[1].expired());
        assert_eq!(report.records[1].outcome, QueryOutcome::TimedOut);
        assert!(report.records[1].answers.is_empty());
        assert_eq!(report.executed(), 1);
        assert_eq!(report.expired(), 1);
        assert!(queue.is_empty());
    }

    #[test]
    fn drain_accounts_time_pending_in_the_admission_queue() {
        let (ds, queries) = setup(8, 1);
        let mut service = ShardedService::new(
            MethodKind::Ggsx,
            &MethodConfig::fast(),
            &ds,
            ServiceOptions::new().shards(2),
        );
        let queue = AdmissionQueue::new(ServiceOptions::new().queue_capacity(4));
        queue.submit(queries[0].clone(), None).unwrap();
        std::thread::sleep(Duration::from_millis(40));
        let report = service.drain(&queue, None);
        let record = &report.records[0];
        assert!(
            record.queue_wait_s >= 0.04,
            "queue wait {} must include the ~40 ms spent pending in the \
             admission queue before the wave started",
            record.queue_wait_s
        );
        assert!((report.totals.queue_wait_s - record.queue_wait_s).abs() < 1e-12);
    }

    #[test]
    fn empty_drain_and_empty_shards_do_not_hang() {
        let (ds, queries) = setup(2, 2); // fewer graphs than shards
        let mut service = ShardedService::new(
            MethodKind::GCode,
            &MethodConfig::fast(),
            &ds,
            ServiceOptions::new().shards(4),
        );
        assert_eq!(service.shard_sizes().iter().filter(|&&n| n == 0).count(), 2);
        let queue = AdmissionQueue::new(ServiceOptions::new().queue_capacity(4));
        let report = service.drain(&queue, None);
        assert!(report.records.is_empty());
        assert_eq!(report.false_positive_ratio(), 0.0);
        assert_eq!(report.throughput_qps(), 0.0);
        // A real wave over the partly-empty shards still completes.
        let refs: Vec<&Graph> = queries.iter().collect();
        let wave = service.run_wave(&refs, None);
        assert_eq!(wave.executed(), 2);
        let oracle = build_index(MethodKind::GCode, &MethodConfig::fast(), &ds);
        for (record, query) in wave.records.iter().zip(queries.iter()) {
            assert_eq!(record.answers, oracle.query(&ds, query).answers);
        }
    }

    #[test]
    fn routed_wave_matches_fanout_and_skips_label_disjoint_shards() {
        // Four label-disjoint families interleaved i % 4: with 4 shards,
        // round-robin sends each family to its own shard, so a routed
        // query probes exactly the shards of its family.
        let ds = sqbench_generator::label_clustered(
            &GraphGenConfig::default()
                .with_graph_count(16)
                .with_avg_nodes(10)
                .with_avg_density(0.16)
                .with_label_count(3)
                .with_seed(77),
            4,
        );
        let queries: Vec<Graph> = QueryGen::new(13)
            .generate(&ds, 6, 4)
            .iter()
            .map(|(q, _)| q.clone())
            .collect();
        let refs: Vec<&Graph> = queries.iter().collect();
        let config = MethodConfig::fast();
        let mut fanout = ShardedService::new(
            MethodKind::Ggsx,
            &config,
            &ds,
            ServiceOptions::new().shards(4),
        );
        let mut routed = ShardedService::new(
            MethodKind::Ggsx,
            &config,
            &ds,
            ServiceOptions::new()
                .shards(4)
                .routing(RoutingMode::Synopsis),
        );
        assert_eq!(fanout.routing(), RoutingMode::Fanout);
        assert_eq!(routed.routing(), RoutingMode::Synopsis);
        let fanout_report = fanout.run_wave(&refs, None);
        let routed_report = routed.run_wave(&refs, None);
        for (f, r) in fanout_report
            .records
            .iter()
            .zip(routed_report.records.iter())
        {
            assert_eq!(f.answers, r.answers, "routing changed a match set");
            assert_eq!(f.shards_probed, 4);
            assert_eq!(f.shards_skipped, 0);
            assert_eq!(r.shards_probed + r.shards_skipped, 4);
            // Label-disjoint families: each query's labels live on exactly
            // one shard, so routing must skip the other three.
            assert_eq!(r.shards_probed, 1, "query leaked outside its family");
        }
        assert_eq!(fanout_report.shards_probed(), 4 * queries.len() as u64);
        assert_eq!(fanout_report.shards_skipped(), 0);
        assert_eq!(routed_report.shards_probed(), queries.len() as u64);
        assert_eq!(routed_report.shards_skipped(), 3 * queries.len() as u64);
        assert!(routed.router().memory_bytes() > 0);
    }

    #[test]
    fn query_admitted_by_no_shard_executes_with_empty_answers() {
        let (ds, _) = setup(9, 1);
        let mut service = ShardedService::new(
            MethodKind::Scan,
            &MethodConfig::fast(),
            &ds,
            ServiceOptions::new()
                .shards(3)
                .routing(RoutingMode::Synopsis),
        );
        // A query over a label far outside the generated alphabet: every
        // shard synopsis rejects it, no index is probed, and the (correct)
        // empty answer comes back as an executed record.
        let mut impossible = Graph::new("impossible");
        let a = impossible.add_vertex(9_999);
        let b = impossible.add_vertex(9_999);
        impossible.add_edge(a, b).unwrap();
        let report = service.run_wave(&[&impossible], None);
        assert_eq!(report.executed(), 1);
        let record = &report.records[0];
        assert!(!record.expired());
        assert!(record.answers.is_empty());
        assert_eq!(record.shards_probed, 0);
        assert_eq!(record.shards_skipped, 3);
        assert_eq!(record.candidate_count, 0);
        assert_eq!(report.shards_probed(), 0);

        // Deadline parity with fan-out: had the wave fanned out, every
        // shard would have skipped this past-deadline query (expired), so
        // the zero-probe path must report expired too — not sneak the
        // free empty answer past the deadline.
        let past = Instant::now() - Duration::from_secs(1);
        let late = service.run_wave(&[&impossible], Some(past));
        assert_eq!(late.expired(), 1);
        assert!(late.records[0].expired());
        assert_eq!(late.executed(), 0);
    }

    #[test]
    fn routed_drain_honours_deadlines_and_accounts_probes() {
        let (ds, queries) = setup(12, 4);
        let mut service = ShardedService::new(
            MethodKind::Ggsx,
            &MethodConfig::fast(),
            &ds,
            ServiceOptions::new()
                .shards(2)
                .routing(RoutingMode::Synopsis),
        );
        let queue = AdmissionQueue::new(ServiceOptions::new().queue_capacity(8));
        let past = Instant::now() - Duration::from_secs(1);
        queue.submit(queries[0].clone(), None).unwrap();
        queue.submit(queries[1].clone(), Some(past)).unwrap();
        let report = service.drain(&queue, None);
        assert_eq!(report.records.len(), 2);
        assert!(!report.records[0].expired());
        assert!(report.records[0].shards_probed <= 2);
        assert!(report.records[1].expired());
        assert!(report.records[1].answers.is_empty());
        // Expired queries are excluded from the probe totals.
        assert_eq!(
            report.shards_probed() + report.shards_skipped(),
            2 // one executed query × two shards accounted either way
        );
    }

    /// Tentpole: a transient verify panic is retried with backoff and the
    /// query comes back `Complete`, bit-identical to the oracle — the
    /// fault is invisible except in the retry counter.
    #[test]
    fn transient_panic_is_retried_to_completion() {
        super::super::fault::silence_injected_panics();
        let (ds, queries) = setup(14, 5);
        let refs: Vec<&Graph> = queries.iter().collect();
        let plan = Arc::new(FaultPlan::new().panic_in_verify(1, 1).panic_in_verify(3, 1));
        let mut service = ShardedService::new(
            MethodKind::Ggsx,
            &MethodConfig::fast(),
            &ds,
            ServiceOptions::new().shards(2).faults(Arc::clone(&plan)),
        );
        let report = service.run_wave(&refs, None);
        assert_eq!(plan.injected_panics(), 2);
        assert_eq!(report.complete(), queries.len());
        assert_eq!(report.failed(), 0);
        assert!(report.retries() >= 2, "retries: {}", report.retries());
        let oracle = build_index(MethodKind::Ggsx, &MethodConfig::fast(), &ds);
        for (record, query) in report.records.iter().zip(queries.iter()) {
            assert_eq!(record.answers, oracle.query(&ds, query).answers);
        }
        // The poisoned tickets carry their retry count; untouched ones 0.
        assert!(report.records[1].retries >= 1);
        assert_eq!(report.records[0].retries, 0);
    }

    /// Tentpole: a panic that outlives the retry budget fails *only* its
    /// own query — the rest of the wave completes exactly, and the fleet
    /// keeps serving the next wave.
    #[test]
    fn permanent_panic_fails_one_query_and_spares_the_wave() {
        super::super::fault::silence_injected_panics();
        let (ds, queries) = setup(14, 5);
        let refs: Vec<&Graph> = queries.iter().collect();
        // Budget 6 = 2 shards × (1 initial + 2 retry rounds): the panic
        // outlives every retry of the first wave, then the fault clears.
        let plan = Arc::new(FaultPlan::new().panic_in_verify(2, 6));
        let mut service = ShardedService::new(
            MethodKind::Ggsx,
            &MethodConfig::fast(),
            &ds,
            ServiceOptions::new().shards(2).faults(Arc::clone(&plan)),
        );
        let report = service.run_wave(&refs, None);
        assert_eq!(plan.injected_panics(), 6);
        assert_eq!(report.records[2].outcome, QueryOutcome::Failed);
        assert!(report.records[2].answers.is_empty());
        assert_eq!(report.failed(), 1);
        assert_eq!(report.complete(), queries.len() - 1);
        let oracle = build_index(MethodKind::Ggsx, &MethodConfig::fast(), &ds);
        for (qi, (record, query)) in report.records.iter().zip(queries.iter()).enumerate() {
            if qi != 2 {
                assert_eq!(record.answers, oracle.query(&ds, query).answers);
            }
        }
        // The pool survives: the next (fault-exhausted) wave is clean.
        let next = service.run_wave(&refs, None);
        assert_eq!(next.complete(), queries.len());
        assert_eq!(next.failed(), 0);
    }

    /// Tentpole: a stalled shard exhausts the deadline budget and the
    /// merge returns the *partial union* of the healthy shards flagged
    /// `Degraded` — sound (a subset of the oracle answers), not blocking,
    /// not silently incomplete.
    #[test]
    fn stalled_shard_degrades_to_a_sound_partial_answer() {
        let (ds, queries) = setup(16, 4);
        let plan = Arc::new(FaultPlan::new().stall_shard(0, Duration::from_millis(300)));
        let mut service = ShardedService::new(
            MethodKind::Ggsx,
            &MethodConfig::fast(),
            &ds,
            ServiceOptions::new().shards(2).faults(plan),
        );
        let queue = AdmissionQueue::new(ServiceOptions::new().queue_capacity(8));
        let deadline = Instant::now() + Duration::from_millis(60);
        for query in &queries {
            queue.submit(query.clone(), Some(deadline)).unwrap();
        }
        let report = service.drain(&queue, None);
        // Shard 0 wakes up long past every deadline, shard 1 answers in
        // microseconds: every query must degrade to shard 1's half.
        assert_eq!(report.degraded(), queries.len());
        let oracle = build_index(MethodKind::Ggsx, &MethodConfig::fast(), &ds);
        for (record, query) in report.records.iter().zip(queries.iter()) {
            assert_eq!(record.outcome, QueryOutcome::Degraded { shards_missing: 1 });
            let expected = oracle.query(&ds, query).answers;
            assert!(
                record.answers.iter().all(|id| expected.contains(id)),
                "degraded answers must be a subset of the oracle's"
            );
        }
    }

    /// `RetryPolicy::none()` surfaces the failure immediately — no retry
    /// rounds, no hidden sleeps. Budget 2 = both shards' initial probe, so
    /// every probe of query 0 fails and no partial answer survives (a
    /// single-shard panic would instead degrade to the other shard's
    /// sound partial union).
    #[test]
    fn disabled_retry_fails_fast() {
        super::super::fault::silence_injected_panics();
        let (ds, queries) = setup(12, 3);
        let refs: Vec<&Graph> = queries.iter().collect();
        let plan = Arc::new(FaultPlan::new().panic_in_verify(0, 2));
        let mut service = ShardedService::new(
            MethodKind::Ggsx,
            &MethodConfig::fast(),
            &ds,
            ServiceOptions::new()
                .shards(2)
                .retry(RetryPolicy::none())
                .faults(plan),
        );
        let report = service.run_wave(&refs, None);
        assert_eq!(report.records[0].outcome, QueryOutcome::Failed);
        assert_eq!(report.records[0].retries, 0);
        assert_eq!(report.retries(), 0);
    }

    /// Headline regression: the backoff schedule saturates on adversarial
    /// but legal policies instead of panicking. The old wave thread
    /// computed `backoff * 2u32.saturating_pow(round)` with `Duration *
    /// u32` (panics on overflow) and added the result to an `Instant`
    /// unchecked.
    #[test]
    fn adversarial_retry_policies_saturate_instead_of_panicking() {
        let policy = RetryPolicy {
            max_retries: 40,
            backoff: Duration::from_secs(1),
        };
        assert_eq!(policy.backoff_for(0), Duration::from_secs(1));
        assert_eq!(policy.backoff_for(31), Duration::from_secs(1 << 31));
        // The doubling factor saturates at u32::MAX past round 31.
        assert_eq!(policy.backoff_for(39), Duration::from_secs(u32::MAX as u64));
        let huge = RetryPolicy {
            max_retries: u32::MAX,
            backoff: Duration::MAX,
        };
        // The multiplication saturates at Duration::MAX.
        assert_eq!(huge.backoff_for(0), Duration::MAX);
        assert_eq!(huge.backoff_for(u32::MAX), Duration::MAX);
        let now = Instant::now();
        // A backoff that exceeds the remaining deadline budget is refused.
        let deadline = Some(now + Duration::from_secs(5));
        assert_eq!(policy.retry_at(39, now, deadline), None);
        assert_eq!(
            policy.retry_at(0, now, deadline),
            Some(now + Duration::from_secs(1))
        );
        // Without a deadline, a backoff too large for the monotonic clock
        // is refused instead of overflowing the `Instant` addition.
        assert_eq!(huge.retry_at(0, now, None), None);
        assert_eq!(
            policy.retry_at(0, now, None),
            Some(now + Duration::from_secs(1))
        );
    }

    /// Headline regression, end to end: `backoff: 1s, max_retries: 40` —
    /// the ISSUE repro — against a permanently panicking query finishes
    /// promptly. Every retry whose backoff cannot fit the deadline budget
    /// is refused up front, so the wave neither panics nor sleeps through
    /// 40 doubling rounds.
    #[test]
    fn overflow_prone_retry_policy_completes_without_panic() {
        super::super::fault::silence_injected_panics();
        let (ds, queries) = setup(12, 3);
        let refs: Vec<&Graph> = queries.iter().collect();
        let plan = Arc::new(FaultPlan::new().panic_in_verify(0, 1000));
        let mut service = ShardedService::new(
            MethodKind::Ggsx,
            &MethodConfig::fast(),
            &ds,
            ServiceOptions::new()
                .shards(2)
                .retry(RetryPolicy {
                    max_retries: 40,
                    backoff: Duration::from_secs(1),
                })
                .faults(Arc::clone(&plan)),
        );
        let started = Instant::now();
        let report = service.run_wave(&refs, Some(started + Duration::from_millis(250)));
        assert!(
            started.elapsed() < Duration::from_secs(20),
            "wave must not sleep through doubling backoff rounds"
        );
        // The 1s first-round backoff never fits the 250ms budget: the
        // poisoned query fails without a single retry, the rest complete.
        assert_eq!(report.records[0].outcome, QueryOutcome::Failed);
        assert_eq!(report.records[0].retries, 0);
        assert_eq!(report.complete(), queries.len() - 1);
    }

    /// Dynamic worker scaling: a deep wave grows the executors' pools
    /// from the observed backlog up to — and never past — `workers_max`;
    /// the default (cap at the floor) keeps the pools at their fixed size.
    #[test]
    fn worker_pools_scale_with_backlog_and_respect_bounds() {
        let (ds, queries) = setup(16, 24);
        let refs: Vec<&Graph> = queries.iter().collect();
        let mut fixed = ShardedService::new(
            MethodKind::Ggsx,
            &MethodConfig::fast(),
            &ds,
            ServiceOptions::new().shards(2).workers(2),
        );
        assert_eq!(fixed.worker_high_water(), vec![0, 0]);
        let report = fixed.run_wave(&refs, None);
        assert_eq!(report.complete(), queries.len());
        assert_eq!(fixed.worker_high_water(), vec![2, 2]);

        let mut scaled = ShardedService::new(
            MethodKind::Ggsx,
            &MethodConfig::fast(),
            &ds,
            ServiceOptions::new().shards(2).workers(1).workers_max(4),
        );
        let report = scaled.run_wave(&refs, None);
        assert_eq!(report.complete(), queries.len());
        // 24 fanned-out queries per shard at QUERIES_PER_WORKER=4 target 6
        // workers; the cap clamps the pools to 4.
        assert_eq!(scaled.worker_high_water(), vec![4, 4]);
        let oracle = build_index(MethodKind::Ggsx, &MethodConfig::fast(), &ds);
        for (record, query) in report.records.iter().zip(queries.iter()) {
            assert_eq!(record.answers, oracle.query(&ds, query).answers);
        }
    }

    /// Every wave record carries an end-to-end latency at least as large
    /// as its admission wait, and the wave totals expose percentiles.
    #[test]
    fn wave_records_carry_latency_and_percentiles() {
        let (ds, queries) = setup(12, 6);
        let refs: Vec<&Graph> = queries.iter().collect();
        let mut service = ShardedService::new(
            MethodKind::Ggsx,
            &MethodConfig::fast(),
            &ds,
            ServiceOptions::new().shards(2),
        );
        let report = service.run_wave(&refs, None);
        assert_eq!(report.complete(), queries.len());
        for record in &report.records {
            assert!(record.latency_s >= 0.0);
            assert!(
                record.latency_s * 1.001 + 1e-9 >= record.queue_wait_s,
                "latency {} must cover the queue wait {}",
                record.latency_s,
                record.queue_wait_s
            );
        }
        let p50 = report.totals.latency_percentile(0.50);
        let p99 = report.totals.latency_percentile(0.99);
        assert!(p50 > 0.0, "p50 over a served wave must be positive");
        assert!(
            p99 >= p50,
            "percentiles must be monotone: p50 {p50} p99 {p99}"
        );
    }

    #[test]
    fn stats_aggregate_over_shards() {
        let (ds, _) = setup(12, 1);
        let service = ShardedService::new(
            MethodKind::Ggsx,
            &MethodConfig::fast(),
            &ds,
            ServiceOptions::new().shards(3).workers(2),
        );
        let stats = service.stats();
        assert!(stats.size_bytes > 0);
        assert!(stats.distinct_features > 0);
        assert_eq!(service.shard_sizes().iter().sum::<usize>(), ds.len());
        assert_eq!(service.strategy(), ShardStrategy::RoundRobin);
    }

    /// Satellite 1 — the stale-cache regression. A warm answer memo must
    /// never replay a pre-mutation answer: before mutations invalidated
    /// the caches automatically, this test's post-removal wave would be
    /// served the removed graph straight from the memo.
    #[test]
    fn mutations_invalidate_the_answer_memo() {
        use crate::service::CachePolicy;
        let (ds, queries) = setup(12, 3);
        let config = MethodConfig::fast();
        let query = &queries[0];
        let mut service = ShardedService::new(
            MethodKind::Ggsx,
            &config,
            &ds,
            ServiceOptions::new()
                .shards(2)
                .cache(CachePolicy::enabled()),
        );
        // Warm the memo: cold wave populates, second wave hits.
        let before = service.run_wave(&[query], None).records[0].answers.clone();
        assert!(
            !before.is_empty(),
            "the generated query must match something"
        );
        let warm = service.run_wave(&[query], None);
        assert_eq!(warm.records[0].answers, before);
        assert!(
            service.cache_counters().answer_hits >= 1,
            "second wave must be memo-served"
        );

        // Remove one of the answers; a stale memo would keep replaying it.
        let victim = before[0];
        assert!(service.remove_graph(victim));
        let mut live = ds.clone();
        assert!(live.remove(victim));
        let oracle = build_index(MethodKind::Ggsx, &config, &live);
        let expected = oracle.query(&live, query).answers;
        assert!(!expected.contains(&victim));
        let after_remove = service.run_wave(&[query], None);
        assert_eq!(
            after_remove.records[0].answers, expected,
            "answer memo replayed a pre-removal answer"
        );

        // Warm the memo again, then insert a twin of the removed graph:
        // the answer must grow by the twin's new id.
        let _ = service.run_wave(&[query], None);
        let twin = ds.graph_unchecked(victim).clone();
        let twin_id = service.insert_graph(twin.clone());
        assert_eq!(twin_id, ds.len());
        let pushed = live.push(twin);
        assert_eq!(pushed, twin_id);
        let oracle = build_index(MethodKind::Ggsx, &config, &live);
        let expected = oracle.query(&live, query).answers;
        assert!(expected.contains(&twin_id));
        let after_insert = service.run_wave(&[query], None);
        assert_eq!(
            after_insert.records[0].answers, expected,
            "answer memo replayed a pre-insert answer"
        );
    }

    /// Tentpole behaviour end to end: reads and typed mutations drain from
    /// one admission queue in ticket order, every ticket gets a record,
    /// and each read observes exactly the dataset state of its admission
    /// point — with both cache levels enabled throughout.
    #[test]
    fn drained_mutations_interleave_with_reads_in_ticket_order() {
        use crate::service::CachePolicy;
        let (ds, queries) = setup(10, 2);
        let config = MethodConfig::fast();
        let query = &queries[0];
        let mut service = ShardedService::new(
            MethodKind::Ggsx,
            &config,
            &ds,
            ServiceOptions::new()
                .shards(2)
                .cache(CachePolicy::enabled()),
        );
        let before = build_index(MethodKind::Ggsx, &config, &ds)
            .query(&ds, query)
            .answers;
        assert!(!before.is_empty());
        let victim = before[0];
        let twin = ds.graph_unchecked(victim).clone();

        let queue = AdmissionQueue::new(ServiceOptions::new().queue_capacity(16));
        queue.submit(query.clone(), None).unwrap(); // t0: sees ds
        queue.submit_insert(twin.clone()).unwrap(); // t1
        queue.submit(query.clone(), None).unwrap(); // t2: sees ds + twin
        queue.submit_remove(victim).unwrap(); // t3
        queue.submit(query.clone(), None).unwrap(); // t4: sees ds + twin − victim
        let report = service.drain(&queue, None);

        assert_eq!(report.records.len(), 5, "no ticket may be lost");
        let tickets: Vec<Ticket> = report.records.iter().map(|r| r.ticket).collect();
        assert_eq!(tickets, vec![0, 1, 2, 3, 4]);
        assert_eq!(report.inserts_applied, 1);
        assert_eq!(report.removes_applied, 1);
        for mutation in [&report.records[1], &report.records[3]] {
            assert_eq!(mutation.outcome, QueryOutcome::Complete);
            assert!(mutation.answers.is_empty());
        }

        let mut with_twin = ds.clone();
        let twin_id = with_twin.push(twin);
        let mid = build_index(MethodKind::Ggsx, &config, &with_twin)
            .query(&with_twin, query)
            .answers;
        assert!(mid.contains(&twin_id), "the twin must join the answers");
        let mut end_state = with_twin.clone();
        assert!(end_state.remove(victim));
        let end = build_index(MethodKind::Ggsx, &config, &end_state)
            .query(&end_state, query)
            .answers;
        assert_eq!(report.records[0].answers, before);
        assert_eq!(
            report.records[2].answers, mid,
            "t2 replayed the pre-insert state"
        );
        assert_eq!(
            report.records[4].answers, end,
            "t4 replayed the pre-removal state"
        );
    }

    /// Satellite 3 — synopsis soundness across removals: after online
    /// removals the recomputed shard synopses may tighten, but routed
    /// answers must stay bit-identical to the rebuilt-from-scratch oracle
    /// over the live dataset (no live graph is ever routed past).
    #[test]
    fn routing_stays_sound_after_removals() {
        let (ds, queries) = setup(18, 5);
        let config = MethodConfig::fast();
        let mut service = ShardedService::new(
            MethodKind::Ggsx,
            &config,
            &ds,
            ServiceOptions::new()
                .shards(3)
                .routing(RoutingMode::Synopsis),
        );
        let mut live = ds.clone();
        for id in [0, 3, 5] {
            assert!(service.remove_graph(id));
            assert!(live.remove(id));
        }
        assert!(!service.remove_graph(0), "double removal must be a no-op");
        assert!(
            !service.remove_graph(ds.len() + 7),
            "unknown ids are refused"
        );
        // Every live graph is still admitted somewhere (a graph contains
        // itself, so the shard hosting it must admit it).
        for (id, g) in live.iter() {
            if live.is_live(id) {
                assert!(
                    service.router().route(g).iter().any(|&admitted| admitted),
                    "live graph {id} routed past every shard"
                );
            }
        }
        // And routed answers match the rebuilt oracle over the live set.
        let refs: Vec<&Graph> = queries.iter().collect();
        let report = service.run_wave(&refs, None);
        let oracle = build_index(MethodKind::Ggsx, &config, &live);
        for (record, query) in report.records.iter().zip(queries.iter()) {
            assert_eq!(record.answers, oracle.query(&live, query).answers);
        }
    }
}
