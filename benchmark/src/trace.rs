//! Benchmark-side spans: one around every call into the program, kept
//! in memory and written out when the run ends. The program is not
//! touched — spans inside it are a later change — so a layer's time is
//! what its public entry points cost as seen from outside.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.call`, e.g. `core.read_level` or `storage.read`.
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one operation (one restore, one zoom, one request)
    /// share this identifier.
    pub op: u64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Handle to an open span; `None` while tracing is off, which makes
/// every tracer call a branch and nothing else.
pub type SpanId = Option<usize>;

pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// Span times count from `epoch`, the start of the run.
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Self {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self::new(Instant::now(), false)
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    pub fn begin(&mut self, name: &'static str, parent: SpanId, op: u64) -> SpanId {
        if !self.enabled {
            return None;
        }
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent,
            op,
        });
        Some(self.spans.len() - 1)
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end_us = self.now_us();
        }
    }

    /// Span around one call.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op: u64,
        call: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, op);
        let result = call();
        self.end(id);
        result
    }

    /// Microseconds since the run's epoch, the unit spans are kept in.
    pub fn us_since_epoch(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// A span whose interval was measured elsewhere: on another thread,
    /// or reconstructed from durations a call returned (the service's
    /// `queue_wait_s` / `service_s`).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op: u64,
        start_us: f64,
        end_us: f64,
    ) -> SpanId {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start_us,
            end_us,
            parent,
            op,
        });
        Some(self.spans.len() - 1)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of that
/// interval its direct children cover (overlapping children are counted
/// once; a child sticking out past its parent is clipped).
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_us, spans[p].end_us);
            let clipped = (s.start_us.clamp(lo, hi), s.end_us.clamp(lo, hi));
            children[p].push(clipped);
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (start, end) in kids {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            s.duration_us() - covered
        })
        .collect()
}

/// Per-name totals: how often a call ran, how long it was busy, and how
/// much of that was its own.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub busy_us: f64,
    pub self_us: f64,
}

impl NameTotals {
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.busy_us / self.count as f64 / 1e3
        }
    }
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_us) in spans.iter().zip(self_times_us(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.busy_us += s.duration_us();
        t.self_us += self_us;
    }
    out
}

/// The trace file: a per-name summary, then every span.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"unit\": \"us\",\n \"by_name\": {{"
    );
    for (i, (name, t)) in totals_by_name(spans).iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n  \"{name}\": {{\"count\": {}, \"busy_us\": {:.1}, \"self_us\": {:.1}}}",
            t.count, t.busy_us, t.self_us
        );
    }
    out.push_str("\n },\n \"spans\": [");
    for (i, (s, self_us)) in spans.iter().zip(self_times_us(spans)).enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{sep}\n  {{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
             \"start_us\": {:.1}, \"end_us\": {:.1}, \"self_us\": {self_us:.1}}}",
            s.name, s.op, s.start_us, s.end_us
        );
    }
    out.push_str("\n ]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_us: start,
            end_us: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        let spans = vec![
            span("op", 0.0, 100.0, None),        // 0
            span("open", 0.0, 10.0, Some(0)),    // 1
            span("read", 20.0, 80.0, Some(0)),   // 2
            span("fetch", 20.0, 50.0, Some(2)),  // 3
            span("decode", 40.0, 70.0, Some(2)), // 4: overlaps fetch by 10
            span("late", 95.0, 120.0, Some(0)),  // 5: sticks out, clipped to 5
        ];
        let st = self_times_us(&spans);
        // op: 100 - (10 + 60 + 5)
        assert_eq!(st[0], 25.0);
        assert_eq!(st[1], 10.0);
        // read: 60 - union([20,50],[40,70]) = 60 - 50
        assert_eq!(st[2], 10.0);
        assert_eq!(st[3], 30.0);
        assert_eq!(st[4], 30.0);
        assert_eq!(st[5], 25.0);
        // Self times of a tree with no overlap or overhang sum to the root.
        let clean = &spans[..3];
        assert_eq!(self_times_us(clean).iter().sum::<f64>(), 100.0);
    }

    #[test]
    fn totals_group_by_name() {
        let spans = vec![
            span("op", 0.0, 10.0, None),
            span("read", 2.0, 6.0, Some(0)),
            span("op", 10.0, 30.0, None),
            span("read", 12.0, 20.0, Some(2)),
        ];
        let t = totals_by_name(&spans);
        assert_eq!(t["op"].count, 2);
        assert_eq!(t["op"].busy_us, 30.0);
        assert_eq!(t["op"].self_us, 18.0);
        assert_eq!(t["read"].busy_us, 12.0);
        assert_eq!(t["read"].mean_ms(), 0.006);
    }

    #[test]
    fn disabled_tracer_records_nothing_enabled_one_nests() {
        let mut off = Tracer::off();
        let id = off.begin("x", None, 1);
        assert_eq!(off.time("y", id, 1, || 7), 7);
        assert_eq!(off.record("z", id, 1, 0.0, 1.0), None);
        off.end(id);
        assert!(off.spans().is_empty());

        let mut on = Tracer::new(Instant::now(), true);
        let root = on.begin("b", None, 2);
        on.time("b.child", root, 2, || ());
        on.record("b.reported", root, 2, 1.0, 3.0);
        on.end(root);
        assert_eq!(on.spans().len(), 3);
        assert_eq!(on.spans()[1].parent, Some(0));
        assert!(on.spans()[0].end_us >= on.spans()[1].end_us);
        assert_eq!(on.spans()[2].duration_us(), 2.0);
        let json = to_json("w", 1, on.spans());
        assert!(json.contains("\"b.child\": {\"count\": 1"));
    }
}
