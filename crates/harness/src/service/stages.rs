//! The two pipeline stages a query passes through, plus the job record that
//! travels between them.
//!
//! The filter stage narrows a worker-owned arena [`CandidateSet`] in place
//! via [`GraphIndex::filter_into`] — no candidate `Vec` is materialized.
//! The arena then travels *inside* the [`VerifyJob`] to the verify stage
//! (usually popped right back by the same worker, sometimes stolen by an
//! idle one), which runs [`GraphIndex::verify_set`] straight off the bits —
//! preserving each method's specialized verification (Grapes'
//! location-restricted matching, Tree+Δ's Δ learning) — and hands the set
//! back for recycling.

use crate::metrics::Stopwatch;
use sqbench_graph::{Dataset, Graph, GraphId};
use sqbench_index::{CandidateSet, FeatureCacheStore, FilterCacheCtx, GraphIndex};

/// How one query's service-side execution ended. Every query a wave
/// accepts gets exactly one outcome — there is no implicit
/// assume-success path — and the merge, the metrics and the CSV report all
/// speak this vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryOutcome {
    /// Every probed shard verified the query: the answer set is exact.
    Complete,
    /// Some probed shards finished and others failed or timed out within
    /// the deadline budget. The answer set is the union of the finished
    /// shards — *sound* (every reported id is a real match; shards verify
    /// exactly) but possibly incomplete by up to `shards_missing` shards'
    /// worth of answers.
    Degraded {
        /// Probed shards that contributed nothing (failed or timed out).
        shards_missing: usize,
    },
    /// The deadline expired before the query could start anywhere; no
    /// answers are reported.
    TimedOut,
    /// The query's execution panicked (or its pool died) on every shard
    /// that could have answered it, and retries did not recover it.
    Failed,
    /// Admission shed the query before it entered a wave: its deadline was
    /// infeasible given the backlog. Only admission-side accounting uses
    /// this variant — a shed query never reaches a wave.
    Shed,
}

impl QueryOutcome {
    /// `true` for outcomes that produced a (possibly partial) answer set:
    /// [`QueryOutcome::Complete`] and [`QueryOutcome::Degraded`].
    pub fn is_executed(&self) -> bool {
        matches!(self, QueryOutcome::Complete | QueryOutcome::Degraded { .. })
    }

    /// Short name used in logs and test diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            QueryOutcome::Complete => "complete",
            QueryOutcome::Degraded { .. } => "degraded",
            QueryOutcome::TimedOut => "timed-out",
            QueryOutcome::Failed => "failed",
            QueryOutcome::Shed => "shed",
        }
    }
}

/// A query that passed the filter stage and awaits verification, carrying
/// its candidate arena and the timings recorded so far.
pub struct VerifyJob<'q> {
    /// Position of the query in the submitted batch.
    pub query_index: usize,
    /// The query graph itself.
    pub query: &'q Graph,
    /// The filtered candidate set (an arena on loan from a worker; returned
    /// to whichever worker verifies the job).
    pub candidates: CandidateSet,
    /// Seconds the query waited in the request queue before filtering.
    pub queue_wait_s: f64,
    /// Seconds the filter stage spent probing the cross-query feature
    /// cache (0.0 when caching is disabled or the method opts out).
    pub cache_probe_s: f64,
    /// Seconds the filter stage took, cache probes excluded.
    pub filter_s: f64,
}

/// What a shard's pool records for one executed query.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct QueryRecord {
    /// Number of graphs that survived filtering.
    pub candidate_count: usize,
    /// Graphs pruned by filtering (`universe − candidate_count`).
    pub candidates_pruned: usize,
    /// The verified answer ids, sorted ascending.
    pub answers: Vec<GraphId>,
    /// Seconds spent waiting in the request queue.
    pub queue_wait_s: f64,
    /// Seconds spent probing the cross-query caches (feature-cache probes
    /// inside the filter stage, or the admission-time answer-memo probe for
    /// a memo-served query). `0.0` when caching is disabled.
    pub cache_probe_s: f64,
    /// Seconds spent in the filter stage, cache probes excluded.
    pub filter_s: f64,
    /// Seconds spent in the verify stage.
    pub verify_s: f64,
}

/// Filter stage: narrows the borrowed arena to the query's candidates and
/// returns `(filter_s, cache_probe_s)` — the stage's wall time split into
/// filtering proper and cross-query cache probing. With `cache: None` (or
/// a method that opts out of [`GraphIndex::filter_into_cached`]) the probe
/// time is exactly `0.0` and the path is byte-identical to the uncached
/// service.
pub fn filter_stage(
    index: &dyn GraphIndex,
    query: &Graph,
    arena: &mut CandidateSet,
    cache: Option<&dyn FeatureCacheStore>,
) -> (f64, f64) {
    let watch = Stopwatch::start();
    let cache_probe_s = match cache {
        Some(store) => {
            let mut ctx = FilterCacheCtx::new(store);
            index.filter_into_cached(query, arena, &mut ctx);
            ctx.probe_seconds()
        }
        None => {
            index.filter_into(query, arena);
            0.0
        }
    };
    let total = watch.elapsed_secs();
    ((total - cache_probe_s).max(0.0), cache_probe_s)
}

/// Verify stage: consumes a [`VerifyJob`], verifies its candidates straight
/// off the bitset, and returns the finished record together with the arena
/// set for recycling.
pub fn verify_stage(
    index: &dyn GraphIndex,
    dataset: &Dataset,
    job: VerifyJob<'_>,
) -> (usize, QueryRecord, CandidateSet) {
    let watch = Stopwatch::start();
    let answers = index.verify_set(dataset, job.query, &job.candidates);
    let verify_s = watch.elapsed_secs();
    let candidate_count = job.candidates.len();
    let record = QueryRecord {
        candidate_count,
        candidates_pruned: job.candidates.universe() - candidate_count,
        answers,
        queue_wait_s: job.queue_wait_s,
        cache_probe_s: job.cache_probe_s,
        filter_s: job.filter_s,
        verify_s,
    };
    (job.query_index, record, job.candidates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqbench_graph::GraphBuilder;
    use sqbench_index::{build_index, MethodConfig, MethodKind};

    #[test]
    fn stages_compose_into_a_full_query() {
        let tri = GraphBuilder::new("tri")
            .vertices(&[1, 1, 2])
            .edges(&[(0, 1), (1, 2), (2, 0)])
            .build()
            .unwrap();
        let path = GraphBuilder::new("path")
            .vertices(&[1, 2, 3])
            .edges(&[(0, 1), (1, 2)])
            .build()
            .unwrap();
        let ds = Dataset::from_graphs("ds", vec![tri, path]);
        let index = build_index(MethodKind::Ggsx, &MethodConfig::fast(), &ds);
        let query = GraphBuilder::new("q")
            .vertices(&[1, 2])
            .edge(0, 1)
            .build()
            .unwrap();

        let mut arena = CandidateSet::empty(0); // dirty universe on purpose
        let (filter_s, cache_probe_s) = filter_stage(&*index, &query, &mut arena, None);
        assert!(filter_s >= 0.0);
        assert_eq!(cache_probe_s, 0.0, "no cache, no probe time");
        let job = VerifyJob {
            query_index: 7,
            query: &query,
            candidates: arena,
            queue_wait_s: 0.0,
            cache_probe_s,
            filter_s,
        };
        let (idx, record, recycled) = verify_stage(&*index, &ds, job);
        assert_eq!(idx, 7);
        assert_eq!(record.candidate_count + record.candidates_pruned, ds.len());
        assert_eq!(recycled.universe(), ds.len());

        // The staged result equals the one-shot query path.
        let outcome = index.query(&ds, &query);
        assert_eq!(record.answers, outcome.answers);
        assert_eq!(record.candidate_count, outcome.candidates.len());
    }
}
