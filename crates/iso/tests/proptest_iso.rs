//! Property-based tests for the subgraph isomorphism matchers.
//!
//! The oracles: queries extracted as subgraphs of a target must always be
//! found, VF2 must agree with a brute-force enumeration of every injective
//! map on small inputs, and any embedding returned must actually be a valid
//! label- and edge-preserving injective mapping.

use proptest::prelude::*;
use sqbench_graph::Graph;
use sqbench_iso::{vf2, Vf2Matcher};

/// Random labeled graph strategy.
fn arb_graph(max_n: usize, max_labels: u32) -> impl Strategy<Value = Graph> {
    (2..=max_n).prop_flat_map(move |n| {
        let labels = proptest::collection::vec(0..max_labels, n);
        let edge_flags = proptest::collection::vec(any::<bool>(), n * (n - 1) / 2);
        (labels, edge_flags).prop_map(move |(labels, flags)| {
            let mut g = Graph::new("target");
            for &l in &labels {
                g.add_vertex(l);
            }
            let mut k = 0;
            for u in 0..n {
                for v in (u + 1)..n {
                    if flags[k] {
                        g.add_edge(u, v).unwrap();
                    }
                    k += 1;
                }
            }
            g
        })
    })
}

/// A graph together with a randomly chosen induced subgraph of it.
fn graph_and_subgraph(max_n: usize, max_labels: u32) -> impl Strategy<Value = (Graph, Graph)> {
    arb_graph(max_n, max_labels).prop_flat_map(|g| {
        let n = g.vertex_count();
        proptest::collection::vec(any::<bool>(), n).prop_map(move |keep| {
            let vertices: Vec<usize> = (0..n).filter(|&v| keep[v]).collect();
            let sub = g.induced_subgraph(&vertices);
            (g.clone(), sub)
        })
    })
}

fn validate_embedding(query: &Graph, target: &Graph, emb: &[usize]) {
    assert_eq!(emb.len(), query.vertex_count());
    let mut sorted = emb.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), emb.len(), "embedding not injective");
    for v in query.vertices() {
        assert_eq!(query.label(v), target.label(emb[v]), "label mismatch");
    }
    for (u, v) in query.edges() {
        assert!(target.has_edge(emb[u], emb[v]), "edge not preserved");
    }
}

/// Counts every injective map from query to target vertices that keeps
/// labels and query edges, by trying all of them in query-id order — the
/// independent oracle VF2 is checked against (exponential; small inputs
/// only).
fn brute_force_embeddings(query: &Graph, target: &Graph) -> usize {
    fn extend(query: &Graph, target: &Graph, map: &mut Vec<usize>) -> usize {
        let qv = map.len();
        if qv == query.vertex_count() {
            return 1;
        }
        let mut count = 0;
        for tv in target.vertices() {
            let fits = !map.contains(&tv)
                && query.label(qv) == target.label(tv)
                && (0..qv).all(|qw| !query.has_edge(qv, qw) || target.has_edge(tv, map[qw]));
            if fits {
                map.push(tv);
                count += extend(query, target, map);
                map.pop();
            }
        }
        count
    }
    extend(query, target, &mut Vec::new())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// An induced subgraph of a graph is always contained in it, and the
    /// returned embedding is valid.
    #[test]
    fn extracted_subgraphs_are_always_found((target, query) in graph_and_subgraph(8, 3)) {
        let matcher = Vf2Matcher::new(&query);
        let emb = matcher.find_first(&target);
        prop_assert!(emb.is_some(), "query extracted from target not found");
        validate_embedding(&query, &target, &emb.unwrap());
    }

    /// VF2 agrees with the brute-force oracle on arbitrary (query, target)
    /// pairs: the same verdict, a valid first embedding exactly when one
    /// exists, and the same number of embeddings.
    #[test]
    fn matchers_agree(query in arb_graph(5, 3), target in arb_graph(7, 3)) {
        let expected = brute_force_embeddings(&query, &target);
        prop_assert_eq!(vf2::has_subgraph_embedding(&query, &target), expected > 0);
        let first = vf2::find_first_embedding(&query, &target);
        prop_assert_eq!(first.is_some(), expected > 0);
        if let Some(emb) = first {
            validate_embedding(&query, &target, &emb);
        }
        prop_assert_eq!(vf2::count_embeddings(&query, &target, usize::MAX), expected);
    }

    /// Containment is reflexive and monotone under edge removal from the
    /// query.
    #[test]
    fn containment_monotone_under_query_edge_removal(target in arb_graph(7, 3)) {
        prop_assert!(vf2::has_subgraph_embedding(&target, &target));
        // Remove one edge from a copy of the target; it must still embed.
        if let Some((u, v)) = target.edges().next() {
            let mut q = Graph::new("q");
            for w in target.vertices() {
                q.add_vertex(target.label(w));
            }
            for (a, b) in target.edges() {
                if (a, b) != (u, v) {
                    q.add_edge(a, b).unwrap();
                }
            }
            prop_assert!(vf2::has_subgraph_embedding(&q, &target));
        }
    }

    /// Adding a vertex with a label absent from the target makes the query
    /// unmatchable.
    #[test]
    fn foreign_label_blocks_matching(target in arb_graph(6, 3)) {
        let mut q = target.clone();
        q.add_vertex(999);
        prop_assert!(!vf2::has_subgraph_embedding(&q, &target));
    }
}
