//! Selective shard routing: decide, per query, which shards can possibly
//! hold a match — before any index is probed.
//!
//! The paper's central finding is that *filtering power* dominates query
//! cost: every graph an index prunes is a verification the matcher never
//! runs. Sharding adds a coarser tier to that funnel. A fanned-out wave
//! pays index probe + merge on every shard, even ones that provably
//! contain no match; the distributed subgraph-matching line of work
//! (partition signatures on billion-node graphs, NScale's
//! neighborhood-satisfying subgraph routing) skips those partitions with
//! per-partition summaries. [`Router`] is that summary tier here: each
//! shard carries a [`ShardSynopsis`] (label multiplicities, degree
//! histogram, edge label pairs, size maxima — computed once at partition
//! time), and a wave consults [`Router::plan`] to dispatch each query only
//! to shards whose synopsis admits it.
//!
//! Routing obeys the same **no-false-negative contract** as index
//! filtering: [`ShardSynopsis::admits`] is a sound necessary condition
//! (see its docs for the monotonicity argument), so a skipped shard
//! *provably* holds no answer and routed match sets stay bit-identical to
//! full fan-out. The routing-equivalence proptest and the `micro_routing`
//! bench's correctness gate enforce exactly that.

use sqbench_graph::{Dataset, Graph, GraphSynopsis, ShardSynopsis};

/// How a [`super::ShardedService`] wave chooses which shards to probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingMode {
    /// Probe every shard for every query (the pre-routing behaviour; the
    /// default).
    #[default]
    Fanout,
    /// Consult the per-shard [`ShardSynopsis`] bound checks; probe only
    /// shards that admit the query. Sound: skipped shards provably hold no
    /// match. Planning costs one query-synopsis computation per query —
    /// microseconds per wave.
    Synopsis,
}

impl RoutingMode {
    /// Short name used in logs, CSV descriptions and bench ids.
    pub fn name(&self) -> &'static str {
        match self {
            RoutingMode::Fanout => "fanout",
            RoutingMode::Synopsis => "routed",
        }
    }
}

/// The routing planner: one [`ShardSynopsis`] per shard, consulted before
/// each wave. Building it costs one pass over every shard's graphs;
/// consulting it costs one query-synopsis computation plus `O(shards)`
/// admissibility checks per query — orders of magnitude below a single
/// index probe.
#[derive(Debug, Clone)]
pub struct Router {
    synopses: Vec<ShardSynopsis>,
}

impl Router {
    /// Builds the router over the shards' dataset slices, in shard order.
    pub fn build<'a>(shards: impl IntoIterator<Item = &'a Dataset>) -> Self {
        Router {
            synopses: shards.into_iter().map(ShardSynopsis::of).collect(),
        }
    }

    /// Number of shards the router covers.
    pub fn shard_count(&self) -> usize {
        self.synopses.len()
    }

    /// The synopsis of one shard.
    pub fn synopsis(&self, shard: usize) -> &ShardSynopsis {
        &self.synopses[shard]
    }

    /// Widens one shard's synopsis in place with a newly inserted graph's.
    /// Widening preserves the no-false-negative contract trivially: every
    /// bound only grows, so previously admitted queries stay admitted and
    /// the new graph's own subgraphs are now dominated too.
    pub fn absorb(&mut self, shard: usize, synopsis: &GraphSynopsis) {
        self.synopses[shard].absorb(synopsis);
    }

    /// Replaces one shard's synopsis wholesale — the removal path, which
    /// recomputes from the shard's live contents. The caller must supply a
    /// synopsis that still dominates every *live* graph (recomputing via
    /// [`ShardSynopsis::of`] over the mutated dataset does, because dead
    /// slots hold empty placeholder graphs that widen nothing).
    pub fn replace(&mut self, shard: usize, synopsis: ShardSynopsis) {
        self.synopses[shard] = synopsis;
    }

    /// Estimated heap bytes of all shard synopses — the memory the routing
    /// tier adds on top of the per-shard indexes.
    pub fn memory_bytes(&self) -> usize {
        self.synopses.iter().map(ShardSynopsis::memory_bytes).sum()
    }

    /// Routes one query through the bound checks: `mask[s]` is `true` iff
    /// shard `s` must be probed under [`RoutingMode::Synopsis`].
    pub fn route(&self, query: &Graph) -> Vec<bool> {
        let q = GraphSynopsis::of(query);
        self.synopses.iter().map(|s| s.admits(&q)).collect()
    }

    /// Plans a whole wave under `mode`: for each shard, the (ascending)
    /// wave indices of the queries it must serve. Under
    /// [`RoutingMode::Fanout`] every shard serves every query; under
    /// [`RoutingMode::Synopsis`] each query's synopsis is computed once and
    /// bound-tested against every shard.
    pub fn plan(&self, queries: &[&Graph], mode: RoutingMode) -> Vec<Vec<usize>> {
        match mode {
            RoutingMode::Fanout => self
                .synopses
                .iter()
                .map(|_| (0..queries.len()).collect())
                .collect(),
            RoutingMode::Synopsis => {
                let query_synopses: Vec<GraphSynopsis> =
                    queries.iter().map(|q| GraphSynopsis::of(q)).collect();
                self.synopses
                    .iter()
                    .map(|shard| {
                        (0..queries.len())
                            .filter(|&qi| shard.admits(&query_synopses[qi]))
                            .collect()
                    })
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqbench_graph::GraphBuilder;

    fn mono_path(label: u32, n: usize) -> Graph {
        let labels = vec![label; n];
        let edges: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
        GraphBuilder::new(format!("p{label}x{n}"))
            .vertices(&labels)
            .edges(&edges)
            .build()
            .unwrap()
    }

    fn shard_of(label: u32, sizes: &[usize]) -> Dataset {
        Dataset::from_graphs(
            format!("shard-l{label}"),
            sizes.iter().map(|&n| mono_path(label, n)).collect(),
        )
    }

    #[test]
    fn router_routes_by_label_family_and_fanout_probes_all() {
        // Three label-disjoint shards; queries can only match their own.
        let shards = [shard_of(0, &[4, 5]), shard_of(1, &[4]), shard_of(2, &[6])];
        let router = Router::build(shards.iter());
        assert_eq!(router.shard_count(), 3);
        assert!(router.memory_bytes() > 0);
        let q0 = mono_path(0, 3);
        let q2 = mono_path(2, 3);
        assert_eq!(router.route(&q0), vec![true, false, false]);
        assert_eq!(router.route(&q2), vec![false, false, true]);

        let queries = [&q0, &q2];
        let routed = router.plan(&queries, RoutingMode::Synopsis);
        assert_eq!(routed, vec![vec![0], vec![], vec![1]]);
        let fanout = router.plan(&queries, RoutingMode::Fanout);
        assert_eq!(fanout, vec![vec![0, 1]; 3]);
    }

    #[test]
    fn router_rejects_oversized_queries_everywhere() {
        let shards = [shard_of(0, &[3]), shard_of(0, &[4])];
        let router = Router::build(shards.iter());
        // 5 vertices fit no single graph: admitted nowhere, probed nowhere.
        let too_big = mono_path(0, 5);
        assert_eq!(router.route(&too_big), vec![false, false]);
        // 4 vertices fit only the second shard's graph.
        assert_eq!(router.route(&mono_path(0, 4)), vec![false, true]);
        // Synopses are consultable individually.
        assert_eq!(router.synopsis(1).max_vertices, 4);
    }

    #[test]
    fn empty_wave_plans_are_empty_for_every_shard() {
        let shards = [shard_of(0, &[3]), Dataset::new("empty")];
        let router = Router::build(shards.iter());
        for mode in [RoutingMode::Fanout, RoutingMode::Synopsis] {
            assert_eq!(router.plan(&[], mode), vec![Vec::<usize>::new(); 2]);
        }
        assert_eq!(RoutingMode::Fanout.name(), "fanout");
        assert_eq!(RoutingMode::Synopsis.name(), "routed");
        assert_eq!(RoutingMode::default(), RoutingMode::Fanout);
    }
}
