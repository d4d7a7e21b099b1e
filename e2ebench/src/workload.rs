//! The three workloads and the seeded inputs each one generates.
//!
//! Every input derives from the `--seed` argument alone; the program under
//! test only ever sees the generated datasets, queries and operations.

use sqbench_generator::{GraphGen, GraphGenConfig, QueryGen, RealDataset};
use sqbench_graph::{Dataset, Graph, GraphId};
use sqbench_index::MethodKind;

/// One compared method: the metric key it reports under and its kind.
pub struct Method {
    pub key: &'static str,
    pub kind: MethodKind,
}

/// The six methods of the paper plus the Scan baseline, in the order the
/// closed loops serve them.
pub const METHODS: [Method; 7] = [
    Method {
        key: "grapes",
        kind: MethodKind::Grapes,
    },
    Method {
        key: "ggsx",
        kind: MethodKind::Ggsx,
    },
    Method {
        key: "ctindex",
        kind: MethodKind::CtIndex,
    },
    Method {
        key: "gindex",
        kind: MethodKind::GIndex,
    },
    Method {
        key: "treedelta",
        kind: MethodKind::TreeDelta,
    },
    Method {
        key: "gcode",
        kind: MethodKind::GCode,
    },
    Method {
        key: "scan",
        kind: MethodKind::Scan,
    },
];

/// Published AIDS graph count; `generate_with` scales relative to it.
const AIDS_GRAPHS: f64 = 40_000.0;
/// Molecule size relative to the published AIDS average of 45 vertices.
/// Smaller molecules keep the seven index builds (CT-Index's tree
/// enumeration above all) within a set-up the benchmark can repeat, while
/// the graph count keeps filtering the dominant layer.
const NODE_SCALE: f64 = 0.4;
/// Query sizes in edges of both closed loops (three of the paper's four).
const QUERY_EDGES: [usize; 3] = [4, 8, 16];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    AidsClosed,
    DenseClosed,
    AidsOpenRw,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "aids_closed" => Some(Workload::AidsClosed),
            "dense_closed" => Some(Workload::DenseClosed),
            "aids_open_rw" => Some(Workload::AidsOpenRw),
            _ => None,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            Workload::AidsClosed => "aids_closed",
            Workload::DenseClosed => "dense_closed",
            Workload::AidsOpenRw => "aids_open_rw",
        }
    }
}

/// Inputs of a closed loop: a dataset and queries extracted from it, each
/// with the graph it was extracted from.
pub struct ClosedInputs {
    pub dataset: Dataset,
    pub queries: Vec<Graph>,
    pub sources: Vec<GraphId>,
}

/// Inputs of the open read/write loop: the initial dataset, held-out
/// graphs for inserts and the pool of extracted read queries.
pub struct OpenInputs {
    pub dataset: Dataset,
    pub held_out: Vec<Graph>,
    pub pool: Vec<Graph>,
    pub pool_sources: Vec<GraphId>,
}

/// SplitMix64 finalizer: decorrelates the per-purpose seeds derived from
/// one `--seed`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn aids_like(graphs: usize, seed: u64) -> Dataset {
    RealDataset::Aids.generate_with(graphs as f64 / AIDS_GRAPHS, NODE_SCALE, seed)
}

fn extract(dataset: Dataset, per_size: usize, sizes: &[usize], seed: u64) -> ClosedInputs {
    let mut queries = Vec::new();
    let mut sources = Vec::new();
    for workload in QueryGen::new(seed).generate_all_sizes(&dataset, per_size, sizes) {
        queries.extend(workload.queries);
        sources.extend(workload.source_graphs);
    }
    ClosedInputs {
        dataset,
        queries,
        sources,
    }
}

/// `aids_closed`: many small sparse molecule-like graphs with 62 labels.
pub fn aids_closed(seed: u64) -> ClosedInputs {
    let dataset = aids_like(1_000, mix(seed, 1));
    extract(dataset, 200, &QUERY_EDGES, mix(seed, 2))
}

/// `dense_closed`: the few-label, dense corner of the paper's figures 3
/// and 5. CT-Index enumerates ≈ 50 ms of trees per graph here, so the
/// graph count is what keeps the set-up repeatable within a run.
pub fn dense_closed(seed: u64) -> ClosedInputs {
    let dataset = GraphGen::new(GraphGenConfig {
        graph_count: 64,
        avg_nodes: 60,
        stddev_nodes: 5.0,
        avg_density: 0.06,
        stddev_density: 0.01,
        label_count: 4,
        seed: mix(seed, 3),
    })
    .generate();
    extract(dataset, 64, &QUERY_EDGES, mix(seed, 4))
}

/// `aids_open_rw`: the AIDS-like set served from two shards, plus graphs
/// held out of it for online inserts.
pub fn aids_open_rw(seed: u64) -> OpenInputs {
    let dataset = aids_like(800, mix(seed, 5));
    let held_out: Vec<Graph> = aids_like(200, mix(seed, 6))
        .iter()
        .map(|(_, g)| g.clone())
        .collect();
    let extracted = extract(dataset, 32, &[4, 8], mix(seed, 7));
    OpenInputs {
        dataset: extracted.dataset,
        held_out,
        pool: extracted.queries,
        pool_sources: extracted.sources,
    }
}
