//! Property-based tests for the graph data model and the `.gfu` text format.

use proptest::prelude::*;
use sqbench_graph::{algo, gfu, Dataset, Graph};

/// Strategy producing an arbitrary labeled graph with up to `max_n` vertices
/// and a random subset of the possible edges.
fn arb_graph(max_n: usize, max_labels: u32) -> impl Strategy<Value = Graph> {
    (1..=max_n).prop_flat_map(move |n| {
        let labels = proptest::collection::vec(0..max_labels, n);
        let edge_flags = proptest::collection::vec(any::<bool>(), n * (n.saturating_sub(1)) / 2);
        (labels, edge_flags).prop_map(move |(labels, flags)| {
            let mut g = Graph::new("prop");
            for &l in &labels {
                g.add_vertex(l);
            }
            let mut k = 0usize;
            for u in 0..n {
                for v in (u + 1)..n {
                    if flags.get(k).copied().unwrap_or(false) {
                        g.add_edge(u, v).unwrap();
                    }
                    k += 1;
                }
            }
            g
        })
    })
}

/// A number on a count, label or edge line: half the time small (so the
/// lines that follow a count can satisfy it), otherwise an arbitrary `u64`
/// (out-of-range labels and endpoints, counts beyond any input).
fn arb_number() -> impl Strategy<Value = u64> {
    (any::<bool>(), 0u64..6, any::<u64>()).prop_map(|(small, n, big)| if small { n } else { big })
}

/// Near-valid `.gfu` text: one or two `#` headers, each followed by a
/// vertex count, arbitrary label lines, an edge count and arbitrary edge
/// lines, so missing and extra lines occur as well as bad numbers.
fn arb_near_gfu() -> impl Strategy<Value = String> {
    let graph = (
        arb_number(),
        proptest::collection::vec(arb_number(), 0..6),
        arb_number(),
        proptest::collection::vec((arb_number(), arb_number()), 0..6),
    )
        .prop_map(|(vcount, labels, ecount, edges)| {
            let mut text = format!("#g\n{vcount}\n");
            for label in labels {
                text.push_str(&format!("{label}\n"));
            }
            text.push_str(&format!("{ecount}\n"));
            for (u, v) in edges {
                text.push_str(&format!("{u} {v}\n"));
            }
            text
        });
    proptest::collection::vec(graph, 1..3).prop_map(|graphs| graphs.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Hostile or truncated `.gfu` text yields `Ok` or a typed error, never
    /// a panic or an allocation sized by an unchecked count.
    #[test]
    fn near_valid_gfu_never_panics(text in arb_near_gfu()) {
        if let Ok(ds) = gfu::parse_dataset("hostile", &text) {
            prop_assert!(ds.len() <= 2);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Density is always within [0, 1] and the degree-sum identity holds.
    #[test]
    fn density_and_degree_invariants(g in arb_graph(12, 5)) {
        prop_assert!(g.density() >= 0.0 && g.density() <= 1.0);
        let degree_sum: usize = g.vertices().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.edge_count());
        prop_assert!((g.average_degree() - degree_sum as f64 / g.vertex_count().max(1) as f64).abs() < 1e-9);
    }

    /// The edges iterator agrees with `has_edge` and yields each edge once.
    #[test]
    fn edges_iterator_consistent(g in arb_graph(10, 3)) {
        let edges: Vec<_> = g.edges().collect();
        prop_assert_eq!(edges.len(), g.edge_count());
        let mut seen = std::collections::HashSet::new();
        for (u, v) in edges {
            prop_assert!(u < v);
            prop_assert!(g.has_edge(u, v));
            prop_assert!(g.has_edge(v, u));
            prop_assert!(seen.insert((u, v)));
        }
    }

    /// Connected components partition the vertex set.
    #[test]
    fn components_partition_vertices(g in arb_graph(12, 4)) {
        let comps = algo::connected_components(&g);
        let mut all: Vec<usize> = comps.iter().flatten().copied().collect();
        all.sort_unstable();
        let expected: Vec<usize> = g.vertices().collect();
        prop_assert_eq!(all, expected);
        // Forest identity: #edges >= #vertices - #components, equality iff acyclic
        let slack = g.edge_count() as i64 - (g.vertex_count() as i64 - comps.len() as i64);
        prop_assert!(slack >= 0);
        prop_assert_eq!(slack > 0, algo::has_cycle(&g));
    }

    /// Induced subgraph on all vertices is the same graph up to renaming.
    #[test]
    fn induced_on_all_vertices_is_identity(g in arb_graph(10, 4)) {
        let all: Vec<usize> = g.vertices().collect();
        let sub = g.induced_subgraph(&all);
        prop_assert_eq!(sub.vertex_count(), g.vertex_count());
        prop_assert_eq!(sub.edge_count(), g.edge_count());
        for v in g.vertices() {
            prop_assert_eq!(sub.label(v), g.label(v));
        }
    }

    /// Writing a dataset to `.gfu` text and parsing it back is lossless
    /// (names, labels, edges).
    #[test]
    fn gfu_round_trip(graphs in proptest::collection::vec(arb_graph(8, 4), 1..5)) {
        let ds = Dataset::from_graphs("prop", graphs);
        let text = gfu::write_dataset(&ds);
        let parsed = gfu::parse_dataset("prop", &text).unwrap();
        prop_assert_eq!(parsed.len(), ds.len());
        for (id, g) in ds.iter() {
            let p = parsed.graph(id).unwrap();
            prop_assert_eq!(p.vertex_count(), g.vertex_count());
            prop_assert_eq!(p.edge_count(), g.edge_count());
            prop_assert_eq!(p.labels(), g.labels());
            for (u, v) in g.edges() {
                prop_assert!(p.has_edge(u, v));
            }
        }
    }

    /// BFS distance is symmetric and satisfies the triangle inequality
    /// through any intermediate vertex.
    #[test]
    fn bfs_distance_symmetric(g in arb_graph(9, 3)) {
        let n = g.vertex_count();
        for u in 0..n {
            for v in 0..n {
                let duv = algo::bfs_distance(&g, u, v);
                let dvu = algo::bfs_distance(&g, v, u);
                prop_assert_eq!(duv, dvu);
                if u == v {
                    prop_assert_eq!(duv, Some(0));
                }
            }
        }
    }
}
