//! In-memory spans recorded from the benchmark's side of each layer call.
//!
//! This PR traces outside-in: a span wraps a call into a layer's public
//! function, recorded by the benchmark's own files; spans inside the
//! program are a later change. Spans live in memory and are written out
//! once, when the run ends. The same [`Tracer::enter`] / [`Tracer::exit`]
//! pair times the call whether or not spans are being kept, so the traced
//! and the untraced run execute the same measurement code and differ only
//! in the recording.

use crate::clock;
use crate::json::Json;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `serve.call` or `store.get_into`.
    pub name: &'static str,
    /// Start, ns since tracer creation.
    pub start_ns: u64,
    /// End, ns since tracer creation.
    pub end_ns: u64,
    /// Index of the span that caused this one (`None` for a root).
    pub parent: Option<usize>,
}

impl Span {
    /// Whole duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span that has been entered and not yet exited.
#[derive(Debug)]
#[must_use = "an entered span must be handed back to Tracer::exit"]
pub struct Open {
    index: Option<usize>,
    start: Instant,
}

/// Span recorder for one benchmark run (single-threaded: only the driver
/// thread opens spans).
#[derive(Debug)]
pub struct Tracer {
    recording: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that keeps spans (`recording`) or only times calls.
    pub fn new(recording: bool) -> Self {
        Self { recording, origin: clock::now(), spans: Vec::new(), stack: Vec::new() }
    }

    /// Whether spans are being kept.
    pub fn is_recording(&self) -> bool {
        self.recording
    }

    /// Switch recording on or off (the traced run alternates replays with
    /// and without recording to measure the tracing overhead).
    pub fn set_recording(&mut self, recording: bool) {
        debug_assert!(self.stack.is_empty(), "recording toggled with spans still open");
        self.recording = recording;
    }

    /// Open a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let start = clock::now();
        let index = self.recording.then(|| {
            let at = start.duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: at,
                parent: self.stack.last().copied(),
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { index, start }
    }

    /// Close `open`, returning the seconds it covered. Spans close in
    /// LIFO order; anything still open above `open` is closed with it.
    pub fn exit(&mut self, open: Open) -> f64 {
        let end = clock::now();
        if let Some(index) = open.index {
            let at = end.duration_since(self.origin).as_nanos() as u64;
            while let Some(top) = self.stack.pop() {
                self.spans[top].end_ns = at;
                if top == index {
                    break;
                }
            }
        }
        end.duration_since(open.start).as_secs_f64()
    }

    /// Record an already-timed interval as a child of the innermost open
    /// span (for per-operation loops that read the clock themselves).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.recording {
            let at = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns: at(start),
                end_ns: at(end),
                parent: self.stack.last().copied(),
            });
        }
    }

    /// Time `f` inside a span; returns its result and the seconds taken.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.enter(name);
        let out = f();
        (out, self.exit(open))
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The span file's body: every span with its self time, plus one
    /// aggregate row per span name. `header` members come first.
    pub fn to_json(&self, workload: &str, header: Vec<(String, Json)>) -> Json {
        let selfs = self_times_ns(&self.spans);
        let spans = self
            .spans
            .iter()
            .zip(&selfs)
            .enumerate()
            .map(|(id, (s, &self_ns))| {
                Json::obj([
                    ("id", Json::Num(id as f64)),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                    ("workload", Json::str(workload)),
                    ("self_ns", Json::Num(self_ns as f64)),
                ])
            })
            .collect();
        let mut layers: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for (s, &self_ns) in self.spans.iter().zip(&selfs) {
            match layers.iter_mut().find(|row| row.0 == s.name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += s.duration_ns();
                    row.3 += self_ns;
                }
                None => layers.push((s.name, 1, s.duration_ns(), self_ns)),
            }
        }
        let layers = layers
            .into_iter()
            .map(|(name, count, total_ns, self_ns)| {
                Json::obj([
                    ("name", Json::str(name)),
                    ("count", Json::Num(count as f64)),
                    ("total_ns", Json::Num(total_ns as f64)),
                    ("self_ns", Json::Num(self_ns as f64)),
                ])
            })
            .collect();
        let mut members = header;
        members.push(("span_names".into(), Json::Arr(layers)));
        members.push(("spans".into(), Json::Arr(spans)));
        Json::Obj(members)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once, and a
/// child is clipped to its parent's interval).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_subtracts_sibling_children_once_each() {
        let spans = [
            span("call", 0, 100, None),
            span("prepare", 10, 30, Some(0)),
            span("replay", 40, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 50]);
    }

    #[test]
    fn self_time_of_nested_children_only_charges_the_direct_parent() {
        let spans = [
            span("call", 0, 100, None),
            span("replay", 20, 80, Some(0)),
            span("fit", 30, 50, Some(1)),
            span("score", 55, 60, Some(1)),
        ];
        // call: 100 - 60; replay: 60 - 20 - 5; leaves keep their duration.
        assert_eq!(self_times_ns(&spans), vec![40, 35, 20, 5]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_merged_and_clipped() {
        let spans = [
            span("call", 10, 50, None),
            span("a", 15, 35, Some(0)),
            span("b", 30, 45, Some(0)),    // overlaps a by 5
            span("late", 48, 70, Some(0)), // overhangs the parent by 20
            span("orphan", 0, 5, Some(99)),
        ];
        // covered = [15,45) ∪ [48,50) = 32 of 40.
        assert_eq!(self_times_ns(&spans)[0], 8);
        assert_eq!(self_times_ns(&spans)[4], 5, "a dangling parent index is ignored");
    }

    #[test]
    fn tracer_nests_spans_and_times_without_recording() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer");
        let ((), inner_s) = t.span("inner", || ());
        let outer_s = t.exit(outer);
        assert!(outer_s >= inner_s && inner_s >= 0.0);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);

        t.set_recording(false);
        let (value, secs) = t.span("unrecorded", || 7);
        assert_eq!((value, t.spans().len()), (7, 2), "timed, not recorded");
        assert!(secs >= 0.0);
    }

    #[test]
    fn span_file_carries_header_self_times_and_per_name_rows() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer");
        let _ = t.span("inner", || ());
        let _ = t.span("inner", || ());
        let _ = t.exit(outer);
        let doc = t.to_json("serve_original", vec![("seed".into(), Json::Num(42.0))]);
        assert_eq!(doc.get("seed").and_then(Json::as_f64), Some(42.0));
        let spans = doc.get("spans").and_then(Json::as_arr).expect("spans");
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(spans[0].get("workload").and_then(Json::as_str), Some("serve_original"));
        assert!(spans.iter().all(|s| s.get("self_ns").is_some()));
        let names = doc.get("span_names").and_then(Json::as_arr).expect("aggregate rows");
        let inner = names.iter().find(|r| r.get("name").and_then(Json::as_str) == Some("inner"));
        assert_eq!(inner.and_then(|r| r.get("count")).and_then(Json::as_f64), Some(2.0));
    }
}
