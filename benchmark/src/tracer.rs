//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span has a name (`layer.operation`), start and end on one process
//! clock, the span that caused it, and the id of the request it belongs
//! to. Spans are kept in memory and written out once, at exit; nothing is
//! recorded inside the product crates.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use voxolap_json::Value;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one (`None` for a request's root).
    pub parent: Option<u64>,
    pub request: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// `layer` of `layer.operation`.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// Collects spans from every client thread of a traced run.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span; returns its id for children to name.
    pub fn record(
        &self,
        request: u64,
        parent: Option<u64>,
        name: &str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let mut spans = self.spans.lock().expect("a tracing thread panicked");
        let id = spans.len() as u64 + 1;
        spans.push(Span {
            id,
            parent,
            request,
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    /// Move the end of an already recorded span (a root is recorded first,
    /// so its children can name it, and closed when they are done).
    pub fn close(&self, id: u64, end: Instant) {
        let end_ns = self.ns(end);
        let mut spans = self.spans.lock().expect("a tracing thread panicked");
        if let Some(span) = spans.get_mut(id as usize - 1) {
            span.end_ns = end_ns;
        }
    }

    /// Time `f` as a child span of `parent`.
    pub fn time<T>(&self, request: u64, parent: u64, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(request, Some(parent), name, start, Instant::now());
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a tracing thread panicked").clone()
    }
}

/// Self time of every span: its duration minus the part of its own
/// interval its children cover (overlapping children count once; a child
/// reaching outside the parent is clipped to it).
pub fn self_times_ns(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    for s in spans {
        let Some(parent) = s.parent.and_then(|p| by_id.get(&p)) else { continue };
        let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
        if lo < hi {
            children.entry(parent.id).or_default().push((lo, hi));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            let mut intervals = children.remove(&s.id).unwrap_or_default();
            intervals.sort();
            for (lo, hi) in intervals {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Per-layer totals of a traced run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTime {
    pub spans: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn layer_table(spans: &[Span]) -> BTreeMap<String, LayerTime> {
    let selfs = self_times_ns(spans);
    let mut table: BTreeMap<String, LayerTime> = BTreeMap::new();
    for s in spans {
        let row = table.entry(s.layer().to_string()).or_default();
        row.spans += 1;
        row.total_ns += s.duration_ns();
        row.self_ns += selfs[&s.id];
    }
    table
}

/// `trace.json`: every span plus the per-layer self-time table.
pub fn to_json(spans: &[Span]) -> Value {
    let span_values: Vec<Value> = spans
        .iter()
        .map(|s| {
            Value::obj([
                ("id", s.id.into()),
                ("parent", s.parent.map_or(Value::Null, Into::into)),
                ("request", s.request.into()),
                ("name", s.name.as_str().into()),
                ("start_ns", s.start_ns.into()),
                ("end_ns", s.end_ns.into()),
            ])
        })
        .collect();
    let layers: Vec<Value> = layer_table(spans)
        .iter()
        .map(|(layer, t)| {
            Value::obj([
                ("layer", layer.as_str().into()),
                ("spans", t.spans.into()),
                ("total_ms", (t.total_ns as f64 / 1e6).into()),
                ("self_ms", (t.self_ns as f64 / 1e6).into()),
            ])
        })
        .collect();
    Value::obj([("layers", Value::Array(layers)), ("spans", Value::Array(span_values))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, request: 1, name: name.to_string(), start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children_clipped_to_the_parent() {
        let spans = [
            span(1, None, "client.request", 0, 100),
            span(2, Some(1), "client.write", 0, 10),
            // Overlapping children cover 20..60 once, not twice.
            span(3, Some(1), "client.wait_preamble", 20, 50),
            span(4, Some(1), "client.wait_sentence.0", 40, 60),
            // A replay caused by the request but running after it covers
            // none of the request's own interval.
            span(5, Some(1), "replay.request", 100, 300),
            span(6, Some(5), "core.stream_open", 100, 180),
            // A child sticking out of its parent is clipped to it.
            span(7, Some(5), "core.finish", 280, 350),
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs[&1], 100 - 10 - 40);
        assert_eq!(selfs[&2], 10);
        assert_eq!(selfs[&5], 200 - 80 - 20);
        assert_eq!(selfs[&7], 70);

        let table = layer_table(&spans);
        assert_eq!(
            table["client"],
            LayerTime { spans: 4, total_ns: 160, self_ns: 50 + 10 + 30 + 20 }
        );
        assert_eq!(table["core"], LayerTime { spans: 2, total_ns: 150, self_ns: 150 });
        assert_eq!(table["replay"].self_ns, 100);
    }

    #[test]
    fn recorded_spans_carry_parent_and_request_ids() {
        let tracer = Tracer::new();
        let t = Instant::now();
        let root = tracer.record(7, None, "client.request", t, t);
        let out = tracer.time(7, root, "voice.parse_question", || 41 + 1);
        assert_eq!(out, 42);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[1].parent, spans[1].request, spans[1].layer()), (Some(root), 7, "voice"));
        let json = to_json(&spans).to_string();
        assert!(json.contains("\"parent\":1") && json.contains("\"request\":7"), "{json}");
    }
}
