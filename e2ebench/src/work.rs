//! Per-method layer numbers of the traced run: exact work counters from
//! direct calls on the benchmark's own index, and the metrics they feed.

use crate::report::PER_METHOD;
use crate::stats::{Metrics, MIB};
use crate::trace::LayerTime;
use sqbench_graph::{Dataset, Graph, GraphId};
use sqbench_harness::counted_false_positive_ratio;
use sqbench_index::{CandidateSet, GraphIndex};
use sqbench_iso::{MatchState, MatchStats, Vf2Matcher};

/// Exact work of one method over a set of queries: candidates after
/// filtering, answers, VF2 states a generic first-match search expands
/// over the candidates, and (candidates, answers) per query for the
/// false-positive ratio.
#[derive(Default)]
pub struct MethodWork {
    pub candidates: u64,
    pub answers: u64,
    pub vf2_states: u64,
    fp_counts: Vec<(usize, usize)>,
}

impl MethodWork {
    /// Filters and verifies `query` on `index` (through `set`), adds the
    /// work it took and returns the answers for the caller to check.
    pub fn add(
        &mut self,
        index: &dyn GraphIndex,
        dataset: &Dataset,
        query: &Graph,
        set: &mut CandidateSet,
        state: &mut MatchState,
    ) -> Vec<GraphId> {
        index.filter_into(query, set);
        let answers = index.verify_set(dataset, query, set);
        let matcher = Vf2Matcher::new(query);
        let mut match_stats = MatchStats::default();
        for gid in set.iter() {
            matcher.find_with_limit_in(state, dataset.graph_unchecked(gid), 1, &mut match_stats);
        }
        self.candidates += set.len() as u64;
        self.answers += answers.len() as u64;
        self.vf2_states += match_stats.states_visited as u64;
        self.fp_counts.push((set.len(), answers.len()));
        answers
    }
}

/// What the traced run measured of one method's layers.
pub struct MethodLayers<'a> {
    pub build: LayerTime,
    pub size_bytes: usize,
    pub filter: LayerTime,
    pub verify: LayerTime,
    pub work: &'a MethodWork,
}

/// Pushes the [`PER_METHOD`] metrics of method `key`, in that order; all
/// 0 for a method the workload does not serve.
pub fn push_method_metrics(metrics: &mut Metrics, key: &str, layers: Option<MethodLayers<'_>>) {
    let values = layers.map_or([0.0; 7], |l| {
        [
            l.build.total_ns as f64 / 1e9,
            l.size_bytes as f64 / MIB,
            l.filter.mean_self_us(),
            l.work.candidates as f64,
            counted_false_positive_ratio(l.work.fp_counts.iter().copied()),
            l.verify.mean_self_us(),
            l.work.vf2_states as f64,
        ]
    });
    for ((family, unit), value) in PER_METHOD.into_iter().zip(values) {
        metrics.push(format!("{family}.{key}"), value, unit);
    }
}
