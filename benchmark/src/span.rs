//! Spans the driver records around its calls into each layer.
//!
//! Spans stay in memory and are written out when the run ends. A recorder
//! that is switched off costs one branch per call, which is how untraced
//! runs keep their end-to-end numbers free of tracing cost.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Marks a span that belongs to no broadcast.
pub const NO_BCAST: u64 = u64::MAX;
const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span, `None` for a root (a phase).
    pub parent: Option<u32>,
    /// Spans of one broadcast share its sequence number.
    pub bcast: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Handle of an open span; hand it back to [`Recorder::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder { enabled, epoch: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        self.enter_bcast(name, NO_BCAST)
    }

    pub fn enter_bcast(&mut self, name: &'static str, bcast: u64) -> Open {
        if !self.enabled {
            return Open(NO_PARENT);
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, parent, bcast, start_ns, end_ns: start_ns });
        self.stack.push(id);
        Open(id)
    }

    pub fn exit(&mut self, open: Open) {
        if open.0 == NO_PARENT {
            return;
        }
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(open.0), "spans must close innermost first");
        self.spans[open.0 as usize].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn within<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let open = self.enter(name);
        let value = f(self);
        self.exit(open);
        value
    }

    /// Runs the leaf call `f` inside a span and returns its result with the
    /// nanoseconds it took; the time is taken whether or not recording is on.
    pub fn timed<T>(&mut self, name: &'static str, bcast: u64, f: impl FnOnce() -> T) -> (T, u64) {
        let open = self.enter_bcast(name, bcast);
        let started = self.now_ns();
        let value = f();
        let ns = self.now_ns() - started;
        self.exit(open);
        (value, ns)
    }

    /// Records a span whose ends were stamped elsewhere (a broadcast that
    /// was due at one instant and completed at another, overlapping its
    /// siblings), as a child of the innermost open span.
    pub fn add_closed(&mut self, name: &'static str, bcast: u64, start_ns: u64, end_ns: u64) {
        if self.enabled {
            let parent = self.stack.last().copied();
            self.spans.push(Span { name, parent, bcast, start_ns, end_ns });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Length of the union of `intervals`, clipped to `[low, high]`.
fn covered(intervals: &mut [(u64, u64)], low: u64, high: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0u64, low);
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(high));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Per span: its duration minus the part of that interval its children
/// cover (children may overlap each other; the union counts once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent as usize].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            let duration = span.end_ns - span.start_ns;
            duration - covered(kids, span.start_ns, span.end_ns)
        })
        .collect()
}

/// Share of `[0, wall_ns]` covered by root spans.
pub fn root_coverage(spans: &[Span], wall_ns: u64) -> f64 {
    let mut roots: Vec<(u64, u64)> =
        spans.iter().filter(|s| s.parent.is_none()).map(|s| (s.start_ns, s.end_ns)).collect();
    if wall_ns == 0 {
        0.0
    } else {
        covered(&mut roots, 0, wall_ns) as f64 / wall_ns as f64
    }
}

/// One row of the self-time table.
#[derive(Debug, Clone, PartialEq)]
pub struct NameTotal {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Totals per span name, largest self time first.
pub fn totals_by_name(spans: &[Span]) -> Vec<NameTotal> {
    let mut by_name: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let row = by_name.entry(span.name).or_insert(NameTotal {
            name: span.name,
            count: 0,
            total_ns: 0,
            self_ns: 0,
        });
        row.count += 1;
        row.total_ns += span.end_ns - span.start_ns;
        row.self_ns += self_ns;
    }
    let mut rows: Vec<NameTotal> = by_name.into_values().collect();
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
    rows
}

/// The trace document written at the end of a traced run.
pub fn trace_json(workload: &str, seed: u64, wall_ns: u64, spans: &[Span]) -> Json {
    let span_rows = spans
        .iter()
        .enumerate()
        .map(|(id, span)| {
            Json::object([
                ("id", Json::from(id as u64)),
                ("name", Json::from(span.name)),
                ("parent", span.parent.map_or(Json::Null, |p| Json::from(u64::from(p)))),
                ("bcast", if span.bcast == NO_BCAST { Json::Null } else { Json::from(span.bcast) }),
                ("workload", Json::from(workload)),
                ("seed", Json::from(seed)),
                ("start_ns", Json::from(span.start_ns)),
                ("end_ns", Json::from(span.end_ns)),
            ])
        })
        .collect();
    let self_rows = totals_by_name(spans)
        .into_iter()
        .map(|row| {
            Json::object([
                ("name", Json::from(row.name)),
                ("count", Json::from(row.count)),
                ("total_ns", Json::from(row.total_ns)),
                ("self_ns", Json::from(row.self_ns)),
            ])
        })
        .collect();
    Json::object([
        ("workload", Json::from(workload)),
        ("seed", Json::from(seed)),
        ("wall_ns", Json::from(wall_ns)),
        ("root_coverage", Json::from(root_coverage(spans, wall_ns))),
        ("self_time", Json::Array(self_rows)),
        ("spans", Json::Array(span_rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span { name, parent, bcast: NO_BCAST, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("window", None, 0, 100),
            span("bcast", Some(0), 10, 40),
            // Overlaps its sibling by 10 and pokes 5 past the parent's end.
            span("bcast", Some(0), 30, 105),
            span("call", Some(1), 10, 15),
        ];
        assert_eq!(self_times(&spans), vec![10, 25, 75, 5]);
        let rows = totals_by_name(&spans);
        assert_eq!(rows[0], NameTotal { name: "bcast", count: 2, total_ns: 105, self_ns: 100 });
        assert_eq!(rows[1].name, "window");
        assert_eq!(rows[1].self_ns, 10);
    }

    #[test]
    fn coverage_counts_roots_only_and_overlaps_once() {
        let spans = vec![
            span("set_up", None, 0, 40),
            span("window", None, 50, 90),
            span("call", Some(1), 40, 50),
            span("window", None, 80, 95),
        ];
        assert!((root_coverage(&spans, 100) - 0.85).abs() < 1e-12);
        assert_eq!(root_coverage(&spans, 0), 0.0);
    }

    #[test]
    fn recorder_nests_and_a_disabled_one_records_nothing() {
        let mut rec = Recorder::new(true);
        let root = rec.enter("window");
        let call = rec.enter_bcast("sim.broadcast", 7);
        rec.exit(call);
        rec.add_closed("net.bcast", 8, 1, 2);
        rec.exit(root);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[1].parent, spans[1].bcast), (Some(0), 7));
        assert_eq!((spans[2].parent, spans[2].bcast), (Some(0), 8));
        assert!(spans[0].end_ns >= spans[1].end_ns);

        let mut off = Recorder::new(false);
        let open = off.enter("window");
        off.exit(open);
        off.add_closed("net.bcast", 1, 0, 1);
        assert!(off.spans().is_empty());
    }
}
