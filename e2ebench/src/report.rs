//! What one run reports, and the fixed metric names it must report.

use crate::stats::Metrics;
use crate::trace::Tracer;
use crate::workload::METHODS;

pub struct Report {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable lines printed before the metrics.
    pub notes: Vec<String>,
    /// How far the traced layer times land from the untraced latency, on
    /// a traced run.
    pub reconcile: Option<Reconcile>,
    pub tracer: Option<Tracer>,
}

/// Relative gap between the traced layer times and the untraced latency,
/// and the largest gap the run may leave before it fails.
pub struct Reconcile {
    pub err: f64,
    pub tolerance: f64,
}

/// End-to-end metrics of the untraced run, in print order.
pub const END_TO_END: [&str; 5] = ["setup_s", "index_mb", "rss_mb", "best_qps", "best_p99_ms"];

/// Per-method metric families of the traced run, with their units.
pub const PER_METHOD: [(&str, &str); 7] = [
    ("index.build_s", "s"),
    ("index.size_mb", "MiB"),
    ("filter.self_us", "us"),
    ("filter.candidates", "count"),
    ("filter.fp_ratio", "ratio"),
    ("verify.self_us", "us"),
    ("verify.vf2_states", "count"),
];

/// Service-wide metrics of the traced run.
const SERVICE: [&str; 29] = [
    "service.overhead_us",
    "service.queue_wait_us",
    "share.filter",
    "share.verify",
    "share.overhead",
    "route.plan_us",
    "route.shards_probed",
    "route.shards_skipped",
    "cache.memo_hit_ratio",
    "cache.feature_hit_ratio",
    "cache.memo_key_us",
    "cache.evictions",
    "cache.invalidations",
    "admission.submit_us",
    "admission.queue_wait_p99_ms",
    "admission.shed_ratio",
    "ingest.insert_us",
    "ingest.remove_us",
    "loadgen.lag_p99_ms",
    "serve.qps",
    "serve.p50_ms",
    "serve.p99_ms",
    "serve.slo_qps",
    "serve.error_rate",
    "answers.total",
    "trace.reconcile_err",
    "trace.overhead_pct",
    "index.partition_ms",
    "route.build_ms",
];

/// Every per-layer metric name, in print order.
pub fn per_layer() -> Vec<String> {
    let mut names = Vec::new();
    for (family, _) in PER_METHOD {
        for m in &METHODS {
            names.push(format!("{family}.{}", m.key));
        }
    }
    names.extend(SERVICE.iter().map(|s| s.to_string()));
    names
}
