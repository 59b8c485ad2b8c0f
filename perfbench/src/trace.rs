//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer of the program; nothing inside the program is instrumented. A
//! span carries its name, start, end, parent and the id of the request
//! (decision, trial or training run) it belongs to. Spans are kept in
//! memory while the run measures and written out when it ends; self
//! times are derived from them afterwards.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `defense.sync`.
    pub name: &'static str,
    /// Start time.
    pub start: u64,
    /// End time (equal to `start` while the span is open).
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request this span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` nest
    /// under it.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let start = self.now();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.now();
        out
    }

    /// Runs `f` as the root span of request `id`.
    pub fn request<T>(
        &mut self,
        id: u64,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        assert!(self.open.is_empty(), "requests do not nest");
        self.request = id;
        self.span(name, f)
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array (one object per span).
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                    s.name, s.start, s.end, parent, s.request
                )
            })
            .collect();
        format!("[{}]", body.join(",\n"))
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children are merged and
/// clipped to the parent's interval).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// Per-layer totals of a set of requests.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Waterfall {
    /// Total self time per span name, nanoseconds.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Summed wall time of the root spans, nanoseconds.
    pub root_ns: u64,
    /// Number of root spans (requests).
    pub requests: u64,
}

impl Waterfall {
    /// Aggregates self times by span name. Root spans contribute their
    /// own self time under their own name (time the replica spent
    /// outside every layer span).
    pub fn of(spans: &[Span]) -> Self {
        let mut w = Waterfall::default();
        for (s, t) in spans.iter().zip(self_times(spans)) {
            *w.self_ns.entry(s.name).or_insert(0) += t;
            if s.parent.is_none() {
                w.root_ns += s.duration();
                w.requests += 1;
            }
        }
        w
    }

    /// Self time of `name`, nanoseconds (0 when absent).
    pub fn get(&self, name: &str) -> u64 {
        self.self_ns.get(name).copied().unwrap_or(0)
    }

    /// Sum of the self times of every span name in `layers`.
    pub fn attributed_ns(&self, layers: &[&str]) -> u64 {
        layers.iter().map(|l| self.get(l)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 7,
        }
    }

    /// root [0,100] ⊃ a [10,40] ⊃ g [20,30]; root ⊃ b [50,90].
    fn nested() -> Vec<Span> {
        vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("g", 20, 30, Some(1)),
            span("b", 50, 90, Some(0)),
        ]
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        assert_eq!(self_times(&nested()), vec![30, 20, 10, 40]);
    }

    #[test]
    fn self_times_reconcile_to_root_wall() {
        let spans = nested();
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, spans[0].duration());
        let w = Waterfall::of(&spans);
        assert_eq!(w.root_ns, 100);
        assert_eq!(w.requests, 1);
        assert_eq!(w.attributed_ns(&["a", "g", "b"]) + w.get("root"), w.root_ns);
    }

    #[test]
    fn overlapping_children_are_merged_and_clipped() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 80, Some(0)),
            span("c", 90, 130, Some(0)),
        ];
        // Covered: [10,80] ∪ [90,100] = 80.
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn waterfall_sums_repeated_names_across_requests() {
        let mut spans = nested();
        let offset = spans.len();
        for s in nested() {
            spans.push(Span {
                start: s.start + 200,
                end: s.end + 200,
                parent: s.parent.map(|p| p + offset),
                ..s
            });
        }
        let w = Waterfall::of(&spans);
        assert_eq!(w.requests, 2);
        assert_eq!(w.root_ns, 200);
        assert_eq!(w.get("a"), 40);
        assert_eq!(w.get("g"), 20);
        assert_eq!(w.get("missing"), 0);
    }

    #[test]
    fn tracer_records_parents_and_requests() {
        let mut t = Tracer::default();
        let v = t.request(3, "root", |t| {
            t.span("a", |t| t.span("g", |_| 1)) + t.span("b", |_| 2)
        });
        assert_eq!(v, 3);
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("root", None),
                ("a", Some(0)),
                ("g", Some(1)),
                ("b", Some(0))
            ]
        );
        assert!(t.spans().iter().all(|s| s.request == 3 && s.end >= s.start));
        let total: u64 = self_times(t.spans()).iter().sum();
        assert_eq!(total, t.spans()[0].duration());
        assert!(t.to_json().starts_with("[{\"name\":\"root\""));
    }
}
