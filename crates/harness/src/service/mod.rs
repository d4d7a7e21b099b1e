//! The query service: a sharded, pipelined filter → verify serving layer.
//!
//! The paper measures one query at a time; a reproduction that wants to
//! expose how filtering and verification costs trade off *at scale* has to
//! serve whole workloads. This module is that serving layer — the
//! experiment runner, every figure driver and the end-to-end benchmark
//! route their workloads through [`ShardedService`]. There is one serving
//! path: an unsharded service is a one-shard [`ShardedService`].
//!
//! # Architecture
//!
//! ```text
//!           ┌──────────────────────── ShardedService ─────────────────────────┐
//!  wave ──► │ answer memo probe → Router::plan → one ShardJob per shard       │
//!           │      │                                                          │
//!           │      ▼ per shard: persistent executor thread                    │
//!           │ ┌───────────────── run_batch_on (one shard) ─────────────────┐  │
//!           │ │ BatchQueue (atomic claim = work stealing)                  │  │
//!           │ │ ┌─ worker 0 ─┐  ┌─ worker 1 ─┐ … ┌─ worker N ─┐            │  │
//!           │ │ │ filter_into│  │ filter_into│   │ filter_into│   stage 1  │  │
//!           │ │ │ VerifyJob ─┼─► StealDeque per worker ◄──────┼─ steal     │  │
//!           │ │ │ verify_set │  │ verify_set │   │ verify_set │   stage 2  │  │
//!           │ │ └────────────┘  └────────────┘   └────────────┘            │  │
//!           │ └────────────────────────────────────────────────────────────┘  │
//!           │      ▼ per-(query, shard) events                                │
//!           └──► merge: global ids, outcomes, StageTotals ──► ShardedReport ──┘
//! ```
//!
//! * **Request queue** (`queue`) — a shard's batch is an indexed slice;
//!   workers claim the next unstarted query with an atomic fetch-add.
//!   Claiming is the load-balancing mechanism: whichever worker is free
//!   takes the next query, so skewed per-query costs never idle the pool.
//! * **Worker pool** (`pool`) — workers are scoped threads, but each
//!   worker's candidate arena belongs to its shard and **persists across
//!   waves**: the filter stage narrows a recycled [`sqbench_index::CandidateSet`] in place
//!   via [`GraphIndex::filter_into`] and never materializes a
//!   `Vec<GraphId>` of candidates.
//! * **Pipeline stages** (`stages`) — filtering produces a verify job
//!   carrying the arena; verification runs [`GraphIndex::verify_set`]
//!   straight off the bits and recycles the arena. In a multi-worker pool
//!   each worker *filters ahead* by up to two queries before verifying,
//!   parking the filtered jobs where idle workers can steal them — which
//!   is what lets the filter of one query overlap the verification of
//!   another across the pool.
//!
//! # Determinism
//!
//! With one worker per shard a shard claims, filters and verifies its
//! queries in wave order — bit-for-bit the sequential runner semantics,
//! including the order-dependent feature learning of Tree+Δ. With several
//! workers answer sets are still exact per query (verification is exact
//! regardless of filtering power); only order-sensitive *candidate*
//! trajectories of learning methods may differ.
//!
//! # Sibling modules
//!
//! * [`sharded`] — the service itself: the dataset partitioner, the
//!   per-shard executors, the event-driven wave merge and the online
//!   mutation surface;
//! * [`synopsis`] — the selective shard-routing tier: per-shard label /
//!   degree / size synopses and the [`Router`] that lets a wave skip
//!   shards which provably hold no match;
//! * [`admission`] — a bounded, continuously-admitting queue
//!   (`submit`/`drain` with backpressure and per-query deadlines) for
//!   open traffic;
//! * [`cache`] — the cross-query caching layer: a per-(shard, method) LRU
//!   of hot per-feature candidate bitsets consulted inside the filter
//!   stage, plus an optional whole-answer memo keyed by canonical graph
//!   form and probed before any shard is planned;
//! * [`options`] — [`ServiceOptions`], the one configuration surface every
//!   constructor of the stack takes ([`ShardedService::new`],
//!   [`AdmissionQueue::new`]).

pub mod admission;
pub mod cache;
pub mod fault;
pub mod options;
mod pool;
mod queue;
pub mod sharded;
mod stages;
pub mod synopsis;

pub use admission::{AdmissionQueue, AdmittedQuery, CostModel, IngestOp, SubmitError, Ticket};
pub use cache::{answer_memo_key, AnswerEntry, AnswerMemo, CachePolicy, FeatureCache, Lru};
pub use fault::{silence_injected_panics, FaultPlan, FaultSpec, InjectedPanic};
pub use options::ServiceOptions;
pub use sharded::{
    partition_dataset, RetryPolicy, ShardPart, ShardStrategy, ShardedQueryRecord, ShardedReport,
    ShardedService,
};
pub use stages::QueryOutcome;
pub use synopsis::{Router, RoutingMode};

use pool::{worker_loop, BatchShared, WaveFaults, WorkerArena};
use sqbench_graph::{Dataset, Graph};
use sqbench_index::{FeatureCacheStore, GraphIndex};
use stages::QueryRecord;
use std::time::Instant;

/// Runs one batch of queries through the pipelined worker pool of one
/// shard, drawing the per-worker candidate arenas from `arenas` (which
/// persist across calls). This is the per-shard kernel of
/// [`ShardedService`]: each shard executor calls it once per job.
///
/// `deadline` is the batch-wide cutoff; `per_query` optionally attaches an
/// individual deadline to each query (indexed like `queries`); `faults`
/// optionally arms the fault-injection hooks (tickets indexed like
/// `queries`); `cache` optionally shares a cross-query feature-bitset
/// store with every worker's filter stage (see
/// [`sqbench_index::GraphIndex::filter_into_cached`]). Workers spawn up to
/// `arenas.len()` strong, clamped to the batch size; one worker runs in
/// place, in batch order.
///
/// Returns the number of workers the batch ran with and one
/// `(outcome, record)` pair per query, indexed like `queries`. At this
/// layer the outcome is `Complete` (record present), `TimedOut` (skipped
/// on deadline) or `Failed` (the query's execution panicked, or its worker
/// died before reporting); the sharded merge refines these across shards.
#[allow(clippy::too_many_arguments)] // internal fan-in point: every shard caller threads the same set
pub(crate) fn run_batch_on(
    index: &dyn GraphIndex,
    dataset: &Dataset,
    arenas: &mut [WorkerArena],
    queries: &[&Graph],
    deadline: Option<Instant>,
    per_query: Option<&[Option<Instant>]>,
    faults: Option<WaveFaults<'_>>,
    cache: Option<&dyn FeatureCacheStore>,
) -> BatchRun {
    let workers = arenas.len().min(queries.len()).max(1);
    let shared = BatchShared::with_deadlines(queries, workers, deadline, per_query, faults, cache);
    let completed: Vec<Vec<(usize, QueryOutcome, Option<QueryRecord>)>> = if workers == 1 {
        // In-place fast path: no thread spawn, strict batch order.
        vec![worker_loop(0, &shared, index, dataset, &mut arenas[0])]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = arenas
                .iter_mut()
                .take(workers)
                .enumerate()
                .map(|(w, arena)| {
                    let shared = &shared;
                    scope.spawn(move || worker_loop(w, shared, index, dataset, arena))
                })
                .collect();
            // Per-query panics are caught inside `worker_loop`, so a join
            // error means the worker died in pool infrastructure. Don't
            // take the whole batch down with it: the queries that worker
            // claimed but never reported keep their `Failed` default
            // below, and the sharded layer's retry can still recover them.
            handles.into_iter().filter_map(|h| h.join().ok()).collect()
        })
    };
    // Failed-by-default: a query nobody reported (its worker died) must
    // still carry an explicit outcome.
    let mut results: Vec<(QueryOutcome, Option<QueryRecord>)> =
        vec![(QueryOutcome::Failed, None); queries.len()];
    for (idx, outcome, record) in completed.into_iter().flatten() {
        results[idx] = (outcome, record);
    }
    BatchRun { workers, results }
}

/// What one [`run_batch_on`] call did.
pub(crate) struct BatchRun {
    /// Workers the batch actually ran with: the arena count clamped to the
    /// batch size (one for an empty batch, which runs in place).
    pub workers: usize,
    /// One `(outcome, record)` pair per query, indexed like the batch.
    pub results: Vec<(QueryOutcome, Option<QueryRecord>)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqbench_generator::{GraphGen, GraphGenConfig, QueryGen};
    use sqbench_index::{build_index, MethodConfig, MethodKind};
    use std::time::Duration;

    fn setup(graphs: usize) -> (Dataset, Vec<Graph>) {
        let ds = GraphGen::new(
            GraphGenConfig::default()
                .with_graph_count(graphs)
                .with_avg_nodes(12)
                .with_avg_density(0.15)
                .with_label_count(4)
                .with_seed(11),
        )
        .generate();
        let workload = QueryGen::new(5).generate(&ds, 8, 4);
        let queries: Vec<Graph> = workload.iter().map(|(q, _)| q.clone()).collect();
        (ds, queries)
    }

    fn arenas(workers: usize) -> Vec<WorkerArena> {
        (0..workers).map(|_| WorkerArena::default()).collect()
    }

    /// Runs the kernel with no deadlines, faults or cache.
    fn plain_batch(
        index: &dyn GraphIndex,
        ds: &Dataset,
        arenas: &mut [WorkerArena],
        queries: &[&Graph],
    ) -> BatchRun {
        run_batch_on(index, ds, arenas, queries, None, None, None, None)
    }

    fn one_shard(kind: MethodKind, ds: &Dataset, opts: ServiceOptions) -> ShardedService {
        ShardedService::new(kind, &MethodConfig::fast(), ds, opts.shards(1))
    }

    #[test]
    fn single_shard_single_worker_equals_one_shot_queries() {
        let (ds, queries) = setup(16);
        let index = build_index(MethodKind::Ggsx, &MethodConfig::fast(), &ds);
        let refs: Vec<&Graph> = queries.iter().collect();
        let mut service = one_shard(MethodKind::Ggsx, &ds, ServiceOptions::new());
        let report = service.run_wave(&refs, None);
        assert_eq!(report.complete(), queries.len());
        for (record, query) in report.records.iter().zip(queries.iter()) {
            let outcome = index.query(&ds, query);
            assert_eq!(record.answers, outcome.answers);
            assert_eq!(record.candidate_count, outcome.candidates.len());
            assert_eq!(record.shards_probed, 1);
        }
        assert_eq!(report.totals.queries as usize, queries.len());
        assert_eq!(report.per_shard.len(), 1);
        assert_eq!(report.per_shard[0].queries as usize, queries.len());
    }

    #[test]
    fn multi_worker_shard_matches_single_worker_answers() {
        let (ds, queries) = setup(20);
        let refs: Vec<&Graph> = queries.iter().collect();
        for kind in MethodKind::ALL {
            let mut serial = one_shard(kind, &ds, ServiceOptions::new().workers(1));
            let serial_report = serial.run_wave(&refs, None);
            let mut pooled = one_shard(kind, &ds, ServiceOptions::new().workers(4));
            let pooled_report = pooled.run_wave(&refs, None);
            assert_eq!(serial.worker_high_water(), vec![1]);
            assert_eq!(pooled.worker_high_water(), vec![4]);
            for (i, (s, p)) in serial_report
                .records
                .iter()
                .zip(pooled_report.records.iter())
                .enumerate()
            {
                assert_eq!(
                    s.answers,
                    p.answers,
                    "{}: answers diverged on query {i}",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn arenas_persist_and_are_recycled_across_batches() {
        let (ds, queries) = setup(16);
        let index = build_index(MethodKind::GIndex, &MethodConfig::fast(), &ds);
        let refs: Vec<&Graph> = queries.iter().collect();
        let mut pool = arenas(2);
        let first = plain_batch(&*index, &ds, &mut pool, &refs).results;
        let second = plain_batch(&*index, &ds, &mut pool, &refs).results;
        for ((oa, a), (ob, b)) in first.iter().zip(second.iter()) {
            assert_eq!((*oa, *ob), (QueryOutcome::Complete, QueryOutcome::Complete));
            assert_eq!(a.as_ref().unwrap().answers, b.as_ref().unwrap().answers);
        }
        // Every set went back to a worker's pool: a take now yields a
        // recycled set already targeted at the index's universe.
        assert!(pool
            .iter_mut()
            .any(|arena| arena.take_set().universe() == ds.len()));
    }

    #[test]
    fn expired_deadline_skips_all_queries() {
        let (ds, queries) = setup(10);
        let index = build_index(MethodKind::Ggsx, &MethodConfig::fast(), &ds);
        let refs: Vec<&Graph> = queries.iter().collect();
        let past = Instant::now() - Duration::from_secs(1);
        let results = run_batch_on(
            &*index,
            &ds,
            &mut arenas(2),
            &refs,
            Some(past),
            None,
            None,
            None,
        )
        .results;
        assert_eq!(results.len(), refs.len());
        for (outcome, record) in &results {
            assert_eq!(*outcome, QueryOutcome::TimedOut);
            assert!(record.is_none());
        }
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let (ds, _) = setup(6);
        let index = build_index(MethodKind::GCode, &MethodConfig::fast(), &ds);
        assert!(plain_batch(&*index, &ds, &mut arenas(3), &[])
            .results
            .is_empty());
    }

    #[test]
    fn per_query_deadlines_skip_only_expired_queries() {
        let (ds, queries) = setup(12);
        let index = build_index(MethodKind::Ggsx, &MethodConfig::fast(), &ds);
        let refs: Vec<&Graph> = queries.iter().collect();
        let past = Instant::now() - Duration::from_secs(1);
        let mut per_query: Vec<Option<Instant>> = vec![None; refs.len()];
        per_query[1] = Some(past);
        per_query[4] = Some(past);
        let results = run_batch_on(
            &*index,
            &ds,
            &mut arenas(2),
            &refs,
            None,
            Some(&per_query),
            None,
            None,
        )
        .results;
        for (i, (outcome, record)) in results.iter().enumerate() {
            if i == 1 || i == 4 {
                assert_eq!(*outcome, QueryOutcome::TimedOut, "expired query {i}");
                assert!(record.is_none(), "expired query {i} must be skipped");
            } else {
                assert_eq!(*outcome, QueryOutcome::Complete);
                let record = record.as_ref().expect("live query executed");
                assert_eq!(record.answers, index.query(&ds, &queries[i]).answers);
            }
        }
    }

    /// A query whose verify stage panics is recorded as `Failed` while
    /// every other query of the batch still completes — on the
    /// single-worker fast path and on a multi-worker pool (where the
    /// panicking claim must not deadlock the other workers' drain).
    #[test]
    fn injected_verify_panic_is_isolated_to_its_query() {
        fault::silence_injected_panics();
        let (ds, queries) = setup(14);
        let index = build_index(MethodKind::Ggsx, &MethodConfig::fast(), &ds);
        let refs: Vec<&Graph> = queries.iter().collect();
        let tickets: Vec<Ticket> = (0..refs.len() as u64).collect();
        for workers in [1usize, 4] {
            let plan = FaultPlan::new().panic_in_verify(2, 1).panic_in_verify(5, 1);
            let run = run_batch_on(
                &*index,
                &ds,
                &mut arenas(workers),
                &refs,
                None,
                None,
                Some(WaveFaults {
                    plan: &plan,
                    tickets: &tickets,
                }),
                None,
            );
            assert_eq!(run.workers, workers);
            assert_eq!(plan.injected_panics(), 2, "{workers} workers");
            for (i, (outcome, record)) in run.results.iter().enumerate() {
                if i == 2 || i == 5 {
                    assert_eq!(*outcome, QueryOutcome::Failed);
                    assert!(record.is_none());
                } else {
                    assert_eq!(*outcome, QueryOutcome::Complete);
                    let record = record.as_ref().expect("healthy query completed");
                    assert_eq!(record.answers, index.query(&ds, &queries[i]).answers);
                }
            }
        }
    }

    /// The fault hook really is zero-cost-off: a fault-free batch reports
    /// all-complete outcomes with `faults: None`.
    #[test]
    fn fault_free_batch_reports_all_complete() {
        let (ds, queries) = setup(10);
        let index = build_index(MethodKind::Grapes, &MethodConfig::fast(), &ds);
        let refs: Vec<&Graph> = queries.iter().collect();
        let run = plain_batch(&*index, &ds, &mut arenas(3), &refs);
        assert_eq!(run.workers, 3);
        assert!(run
            .results
            .iter()
            .all(|(o, r)| *o == QueryOutcome::Complete && r.is_some()));
    }

    /// With the feature cache enabled, answers stay bit-identical to the
    /// uncached service for every participating method, and the caching
    /// methods actually hit on a repeated wave.
    #[test]
    fn feature_cache_keeps_answers_identical() {
        let (ds, queries) = setup(18);
        let refs: Vec<&Graph> = queries.iter().collect();
        for kind in MethodKind::ALL {
            let mut cold = one_shard(kind, &ds, ServiceOptions::new());
            let cold_report = cold.run_wave(&refs, None);
            let mut warm = one_shard(
                kind,
                &ds,
                ServiceOptions::new().cache(CachePolicy {
                    feature_capacity: 512,
                    answer_capacity: 0,
                }),
            );
            // Two waves: the first populates, the second probes hot.
            warm.run_wave(&refs, None);
            let warm_report = warm.run_wave(&refs, None);
            for (i, (c, w)) in cold_report
                .records
                .iter()
                .zip(warm_report.records.iter())
                .enumerate()
            {
                assert_eq!(
                    c.answers,
                    w.answers,
                    "{}: cached answers diverged on query {i}",
                    kind.name()
                );
            }
            let counters = warm.cache_counters();
            match kind {
                MethodKind::Ggsx | MethodKind::Grapes | MethodKind::GIndex => {
                    assert!(
                        counters.feature_hits > 0,
                        "{} participates and must hit on a repeat wave",
                        kind.name()
                    );
                }
                MethodKind::CtIndex | MethodKind::GCode | MethodKind::Scan => {
                    assert_eq!(
                        (counters.feature_hits, counters.feature_misses),
                        (0, 0),
                        "{} opts out and must never probe",
                        kind.name()
                    );
                }
                // Tree+Δ probes (tree features hit; Δ probes depend on the
                // learned set) — participation is covered above.
                MethodKind::TreeDelta => {}
            }
        }
    }

    /// The answer memo serves a repeated wave entirely from the memo —
    /// zero filter/verify work, no shard probed — with bit-identical
    /// answers.
    #[test]
    fn answer_memo_serves_repeat_batches_identically() {
        let (ds, queries) = setup(16);
        let refs: Vec<&Graph> = queries.iter().collect();
        let mut service = one_shard(
            MethodKind::Ggsx,
            &ds,
            ServiceOptions::new().workers(2).cache(CachePolicy {
                feature_capacity: 0,
                answer_capacity: 64,
            }),
        );
        let first = service.run_wave(&refs, None);
        let eligible = queries
            .iter()
            .filter(|q| answer_memo_key(q).is_some())
            .count();
        assert!(eligible > 0, "workload must contain memo-eligible queries");
        let second = service.run_wave(&refs, None);
        assert_eq!(second.complete(), refs.len());
        for (i, (a, b)) in first.records.iter().zip(second.records.iter()).enumerate() {
            assert_eq!(a.answers, b.answers, "memo answers diverged on query {i}");
            assert_eq!(a.candidate_count, b.candidate_count);
        }
        let counters = service.cache_counters();
        assert_eq!(counters.answer_hits, eligible as u64);
        // Memo-served queries do no filter or verify work.
        let hits = second
            .records
            .iter()
            .filter(|r| r.shards_probed == 0 && r.filter_s == 0.0 && r.verify_s == 0.0)
            .count();
        assert_eq!(hits, eligible);
        // Invalidation drops every entry: the next wave misses again.
        service.invalidate_caches();
        let third = service.run_wave(&refs, None);
        assert_eq!(third.complete(), refs.len());
        assert_eq!(service.cache_counters().answer_hits, eligible as u64);
    }

    #[test]
    fn more_workers_than_queries_clamps() {
        let (ds, queries) = setup(8);
        let index = build_index(MethodKind::CtIndex, &MethodConfig::fast(), &ds);
        let two: Vec<&Graph> = queries.iter().take(2).collect();
        let mut pool = arenas(16);
        let run = plain_batch(&*index, &ds, &mut pool, &two);
        assert!(run
            .results
            .iter()
            .all(|(o, _)| *o == QueryOutcome::Complete));
        assert_eq!(run.workers, 2, "batch must not spawn idle workers");
    }
}
