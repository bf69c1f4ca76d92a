//! The probe's span recorder. Spans are recorded from the benchmark's own
//! files, around its calls into each layer's public functions; they are kept
//! in memory and written to `spans.json` when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::Value;

/// One timed call. Spans of one replayed request share `request_id`; `parent`
/// indexes the span that made the call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Time `f` as a span named `name`, a child of whichever span is open.
    /// `f` gets the recorder back so the calls it makes nest under it.
    pub fn span<T>(
        &mut self,
        name: &str,
        request_id: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            request_id,
        });
        self.open.push(index);
        self.spans[index].start_ns = self.origin.elapsed().as_nanos() as u64;
        let out = f(self);
        self.spans[index].end_ns = self.origin.elapsed().as_nanos() as u64;
        self.open.pop();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in microseconds, grouped by span name.
    pub fn durations_us(&self) -> BTreeMap<String, Vec<f64>> {
        let mut by_name: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for span in &self.spans {
            by_name.entry(span.name.clone()).or_default().push(span.duration_ns() as f64 / 1e3);
        }
        by_name
    }

    /// Total self time in microseconds, grouped by span name.
    pub fn self_time_us(&self) -> BTreeMap<String, f64> {
        let mut by_name: BTreeMap<String, f64> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self_times_ns(&self.spans)) {
            *by_name.entry(span.name.clone()).or_default() += self_ns as f64 / 1e3;
        }
        by_name
    }
}

/// A span's self time: its duration minus the part of its interval that its
/// child spans cover (children may overlap each other or stick out of the
/// parent; the covered part is the union, clipped to the parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let (start, end) = (span.start_ns.max(p.start_ns), span.end_ns.min(p.end_ns));
            if start < end {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in intervals {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// The `spans.json` document: one object per span, in recording order.
pub fn to_json(workload_spans: &[(String, Vec<Span>)]) -> Value {
    let mut out = Vec::new();
    for (workload, spans) in workload_spans {
        let self_ns = self_times_ns(spans);
        for (index, span) in spans.iter().enumerate() {
            out.push(Value::Object(vec![
                ("workload".to_string(), Value::String(workload.clone())),
                ("id".to_string(), Value::UInt(index as u64)),
                ("name".to_string(), Value::String(span.name.clone())),
                ("start_ns".to_string(), Value::UInt(span.start_ns)),
                ("end_ns".to_string(), Value::UInt(span.end_ns)),
                ("self_ns".to_string(), Value::UInt(self_ns[index])),
                ("parent".to_string(), span.parent.map_or(Value::Null, |p| Value::UInt(p as u64))),
                ("request_id".to_string(), Value::UInt(span.request_id)),
            ]));
        }
    }
    Value::Array(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name: name.into(), start_ns: start, end_ns: end, parent, request_id: 1 }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = vec![
            span("request", 0, 100, None),
            span("handle", 10, 90, Some(0)),
            span("cache", 20, 50, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 50, 30]);
    }

    #[test]
    fn overlapping_and_protruding_children_count_their_union_inside_the_parent() {
        let spans = vec![
            span("root", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 140, 170, Some(0)),
            span("c", 190, 260, Some(0)),
            span("d", 120, 130, Some(0)),
        ];
        // Union inside the parent: [110,170) ∪ [190,200) = 70.
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn recorder_nests_by_call_structure() {
        let mut rec = Recorder::new();
        let out = rec.span("outer", 7, |rec| {
            rec.span("inner", 7, |_| std::hint::black_box(2 + 2));
            rec.span("inner", 7, |_| std::hint::black_box(3 + 3))
        });
        assert_eq!(out, 6);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        assert_eq!(rec.durations_us()["inner"].len(), 2);
        let selfs = rec.self_time_us();
        assert!(selfs["outer"] <= (spans[0].duration_ns() as f64) / 1e3);
    }
}
