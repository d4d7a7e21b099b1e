//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around its calls into
//! each layer's public functions; the program under test carries no
//! tracing. A span may also be *recorded* after the fact from bounds
//! measured elsewhere: the stage times a `ShardedQueryRecord` reports
//! become child spans of the benchmark's span around the service call, so
//! the service's untimed remainder shows up as that span's self time.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One finished (or still open) span. `tag` names the method or operation
/// kind the span belongs to ("" when it has none); `qid` ties together the
/// spans of one request.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub tag: &'static str,
    pub qid: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Total and self time of every span with one (name, tag) pair.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl LayerTime {
    pub fn mean_self_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`; tracers that share an
    /// epoch (one per thread) can be merged with [`Tracer::absorb`].
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn ns_since_epoch(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn now_ns(&self) -> u64 {
        self.ns_since_epoch(Instant::now())
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, tag: &'static str, qid: u64) -> u32 {
        let start = self.now_ns();
        let id = self.push(name, tag, qid, start, start, self.open.last().copied());
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: u32) {
        let innermost = self.open.pop();
        assert_eq!(innermost, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Records a finished span whose bounds were measured elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        tag: &'static str,
        qid: u64,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
    ) -> u32 {
        self.push(name, tag, qid, start_ns, end_ns.max(start_ns), parent)
    }

    /// Appends the per-thread spans of `other` (same epoch).
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            if span.parent != NO_PARENT {
                span.parent += offset;
            }
            span
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total and self time per (name, tag): a span's self time is its
    /// duration minus the durations of its direct children.
    pub fn layer_times(&self) -> BTreeMap<(&'static str, &'static str), LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.duration_ns();
            }
        }
        let mut layers: BTreeMap<(&'static str, &'static str), LayerTime> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let layer = layers.entry((span.name, span.tag)).or_default();
            layer.count += 1;
            layer.total_ns += span.duration_ns();
            layer.self_ns += span.duration_ns().saturating_sub(children);
        }
        layers
    }

    /// Writes every span as one tab-separated line:
    /// `id name tag qid start_ns end_ns parent` (`-` for no parent).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\ttag\tqid\tstart_ns\tend_ns\tparent")?;
        for (id, span) in self.spans.iter().enumerate() {
            let parent = if span.parent == NO_PARENT {
                "-".to_string()
            } else {
                span.parent.to_string()
            };
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{}\t{}\t{parent}",
                span.name, span.tag, span.qid, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }

    fn push(
        &mut self,
        name: &'static str,
        tag: &'static str,
        qid: u64,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
    ) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            name,
            tag,
            qid,
            start_ns,
            end_ns,
            parent: parent.unwrap_or(NO_PARENT),
        });
        id
    }
}
