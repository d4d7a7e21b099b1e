//! Experiment report structures and rendering.
//!
//! Every experiment produces an [`ExperimentReport`]: a series of
//! x-axis points (a dataset name for Figure 1, a parameter value for the
//! scalability sweeps), each carrying one [`MethodMetrics`] record per
//! method. [`render_text`] prints the same four panels the paper plots
//! (indexing time, index size, query processing time, false positive
//! ratio); [`render_csv`] emits a flat machine-readable table.

use crate::metrics::MethodMetrics;
use serde::{Deserialize, Serialize};

/// One x-axis point of an experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentPoint {
    /// Human-readable x-axis label (e.g. `"AIDS"` or `"nodes=200"`).
    pub x_label: String,
    /// Numeric x value where applicable (0 for categorical points).
    pub x_value: f64,
    /// Per-method measurements at this point.
    pub results: Vec<MethodMetrics>,
}

/// A full experiment report (one table or figure of the paper).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentReport {
    /// Short id, e.g. `"fig2_nodes"`.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Description of the workload/parameters used.
    pub description: String,
    /// The measured series.
    pub points: Vec<ExperimentPoint>,
}

impl ExperimentReport {
    /// Creates an empty report.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        description: impl Into<String>,
    ) -> Self {
        ExperimentReport {
            id: id.into(),
            title: title.into(),
            description: description.into(),
            points: Vec::new(),
        }
    }

    /// Adds a point to the report.
    pub fn push_point(&mut self, point: ExperimentPoint) {
        self.points.push(point);
    }

    /// All method names appearing in the report, in first-seen order.
    pub fn method_names(&self) -> Vec<String> {
        let mut names = Vec::new();
        for point in &self.points {
            for result in &point.results {
                if !names.contains(&result.method) {
                    names.push(result.method.clone());
                }
            }
        }
        names
    }

    /// Looks up the metrics of `method` at point index `point_idx`.
    pub fn metrics_at(&self, point_idx: usize, method: &str) -> Option<&MethodMetrics> {
        self.points
            .get(point_idx)?
            .results
            .iter()
            .find(|m| m.method == method)
    }
}

/// Extracts one formatted metric cell from a method's measurements.
type PanelExtractor = fn(&MethodMetrics) -> String;

/// The four metric panels of each figure in the paper.
const PANELS: [(&str, PanelExtractor); 4] = [
    ("Indexing time (s)", |m| format!("{:.4}", m.indexing_time_s)),
    ("Index size (MB)", |m| format!("{:.4}", m.index_size_mb())),
    ("Query processing time (s)", |m| {
        format!("{:.6}", m.avg_query_time_s)
    }),
    ("False positive ratio", |m| {
        format!("{:.4}", m.false_positive_ratio)
    }),
];

/// Renders the report as four plain-text panels (one per metric), each a
/// table with one row per x-axis point and one column per method — the same
/// series the corresponding paper figure plots.
pub fn render_text(report: &ExperimentReport) -> String {
    let methods = report.method_names();
    let mut out = String::new();
    out.push_str(&format!("# {} — {}\n", report.id, report.title));
    out.push_str(&format!("# {}\n", report.description));
    for (panel_title, extract) in PANELS {
        out.push_str(&format!("\n## {panel_title}\n"));
        // Header.
        out.push_str(&format!("{:>18}", "x"));
        for m in &methods {
            out.push_str(&format!("{m:>14}"));
        }
        out.push('\n');
        for point in &report.points {
            out.push_str(&format!("{:>18}", point.x_label));
            for m in &methods {
                let cell = point
                    .results
                    .iter()
                    .find(|r| &r.method == m)
                    .map(|r| {
                        if r.timed_out {
                            "DNF".to_string()
                        } else {
                            extract(r)
                        }
                    })
                    .unwrap_or_else(|| "-".to_string());
                out.push_str(&format!("{cell:>14}"));
            }
            out.push('\n');
        }
    }
    out
}

/// Renders the report as CSV with one row per (point, method) pair,
/// including the per-stage breakdown recorded by the query service (mean
/// queue wait / filter / verify seconds and total candidates pruned) and
/// the sharding columns (`shards`, the total `(query, shard)` probes the
/// routing tier dispatched and skipped, the busiest shard's processing
/// seconds, the lightest/heaviest *probed*-shard balance, and the
/// incremental `partition_overhead_bytes` the shard partition cost on top
/// of the source dataset — for an unsharded run: 1 shard, one probe per
/// executed query, no skips, balance 1 and one pointer spine).
///
/// The outcome columns (`queries_degraded`, `queries_failed`,
/// `queries_shed`, `retries`) report the fault-tolerance accounting: how
/// many queries returned a sound partial answer, how many exhausted their
/// retry budget, how many were shed at admission, and how many retry
/// probes were dispatched — all 0 on a healthy fault-free run.
///
/// The ingest columns (`inserts_applied`, `removes_applied`) count the
/// typed mutations the sharded service applied while draining a mixed
/// read/write admission queue — always 0 for batch runs, which serve a
/// frozen dataset snapshot.
///
/// The tail-latency columns (`latency_p50_s`, `latency_p95_s`,
/// `latency_p99_s`) are per-query end-to-end latency percentiles from the
/// run's latency histogram — the SLO view that a mean cannot give,
/// because saturation shows up in the tail long before it moves the
/// average. All 0 when the run recorded no latencies.
///
/// The cache columns report the cross-query caching layer:
/// `avg_cache_probe_s` is the mean per-query time spent probing the
/// feature cache and answer memo (already excluded from
/// `avg_filter_time_s`), and the `cache_*` counters are the run's
/// feature-cache and answer-memo hits/misses plus total LRU evictions —
/// all 0 when the run leaves [`crate::service::CachePolicy`] disabled.
///
/// The exact header and field order are pinned by the golden-file test in
/// `tests/golden_report.rs`; figure scripts parse these columns by name, so
/// changes here must update the golden file deliberately.
pub fn render_csv(report: &ExperimentReport) -> String {
    let mut out = String::from(
        "experiment,x_label,x_value,method,indexing_time_s,index_size_bytes,distinct_features,\
         avg_query_time_s,avg_queue_wait_s,avg_cache_probe_s,avg_filter_time_s,\
         avg_verify_time_s,latency_p50_s,latency_p95_s,latency_p99_s,\
         candidates_pruned,false_positive_ratio,queries_executed,shards,\
         shards_probed,shards_skipped,max_shard_time_s,shard_balance,partition_overhead_bytes,\
         queries_degraded,queries_failed,queries_shed,retries,inserts_applied,removes_applied,\
         timed_out,cache_feature_hits,\
         cache_feature_misses,cache_answer_hits,cache_answer_misses,cache_evictions\n",
    );
    for point in &report.points {
        for m in &point.results {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                report.id,
                point.x_label,
                point.x_value,
                m.method,
                m.indexing_time_s,
                m.index_size_bytes,
                m.distinct_features,
                m.avg_query_time_s,
                m.stages.avg_queue_wait_s(),
                m.stages.avg_cache_probe_s(),
                m.stages.avg_filter_s(),
                m.stages.avg_verify_s(),
                m.latency_p50_s(),
                m.latency_p95_s(),
                m.latency_p99_s(),
                m.stages.candidates_pruned,
                m.false_positive_ratio,
                m.queries_executed,
                m.shards,
                m.shards_probed,
                m.shards_skipped,
                m.max_shard_time_s(),
                m.shard_balance(),
                m.partition_overhead_bytes,
                m.queries_degraded,
                m.queries_failed,
                m.queries_shed,
                m.retries,
                m.inserts_applied,
                m.removes_applied,
                m.timed_out,
                m.cache.feature_hits,
                m.cache.feature_misses,
                m.cache.answer_hits,
                m.cache.answer_misses,
                m.cache.evictions
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_metrics(method: &str, t: f64) -> MethodMetrics {
        let mut stages = crate::metrics::StageTotals::default();
        for _ in 0..8 {
            stages.add_query(t / 1000.0, 0.0, t / 400.0, t / 200.0, 12);
        }
        MethodMetrics {
            method: method.to_string(),
            indexing_time_s: t,
            index_size_bytes: 1024 * 1024,
            distinct_features: 10,
            avg_query_time_s: t / 100.0,
            false_positive_ratio: 0.5,
            queries_executed: 8,
            timed_out: false,
            queries_degraded: 0,
            queries_failed: 0,
            queries_shed: 0,
            retries: 0,
            inserts_applied: 0,
            removes_applied: 0,
            stages,
            shards: 1,
            shards_probed: 0,
            shards_skipped: 0,
            shard_stages: Vec::new(),
            partition_overhead_bytes: 0,
            cache: crate::metrics::CacheCounters::default(),
        }
    }

    fn sample_report() -> ExperimentReport {
        let mut report = ExperimentReport::new("fig_test", "Test figure", "two points");
        report.push_point(ExperimentPoint {
            x_label: "50".into(),
            x_value: 50.0,
            results: vec![sample_metrics("Grapes", 1.0), sample_metrics("GGSX", 2.0)],
        });
        report.push_point(ExperimentPoint {
            x_label: "100".into(),
            x_value: 100.0,
            results: vec![
                sample_metrics("Grapes", 3.0),
                MethodMetrics {
                    timed_out: true,
                    ..sample_metrics("GGSX", 4.0)
                },
            ],
        });
        report
    }

    #[test]
    fn method_names_in_first_seen_order() {
        let report = sample_report();
        assert_eq!(report.method_names(), vec!["Grapes", "GGSX"]);
    }

    #[test]
    fn metrics_lookup() {
        let report = sample_report();
        assert!((report.metrics_at(0, "GGSX").unwrap().indexing_time_s - 2.0).abs() < 1e-12);
        assert!(report.metrics_at(0, "gCode").is_none());
        assert!(report.metrics_at(5, "Grapes").is_none());
    }

    #[test]
    fn text_rendering_contains_panels_and_dnf() {
        let text = render_text(&sample_report());
        assert!(text.contains("Indexing time (s)"));
        assert!(text.contains("Index size (MB)"));
        assert!(text.contains("Query processing time (s)"));
        assert!(text.contains("False positive ratio"));
        assert!(text.contains("DNF"));
        assert!(text.contains("Grapes"));
        assert!(text.contains("fig_test"));
    }

    #[test]
    fn csv_rendering_has_one_row_per_method_point() {
        let csv = render_csv(&sample_report());
        let lines: Vec<&str> = csv.trim().lines().collect();
        assert_eq!(lines.len(), 1 + 4); // header + 2 points × 2 methods
        assert!(lines[0].starts_with("experiment,"));
        assert!(lines[0].contains("avg_filter_time_s"));
        assert!(lines[0].contains("candidates_pruned"));
        assert!(
            lines[0].contains("shards,shards_probed,shards_skipped,max_shard_time_s,shard_balance")
        );
        assert!(lines[0].contains(
            "queries_degraded,queries_failed,queries_shed,retries,\
             inserts_applied,removes_applied,timed_out"
        ));
        assert_eq!(lines[0].split(',').count(), lines[1].split(',').count());
        assert!(lines[4].contains("true") || lines[3].contains("true")); // the DNF row
    }

    #[test]
    fn serde_round_trip_via_clone_eq() {
        let report = sample_report();
        let copy = report.clone();
        assert_eq!(report, copy);
    }
}
