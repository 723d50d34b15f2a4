//! Thread-safe metrics registry: monotonic counters, byte gauges, and
//! stage timers that record wall-clock and simulated-I/O time
//! side by side.
//!
//! Design constraints, in order:
//!
//! 1. **Hot-path cheapness.** Instruments are plain atomics; recording
//!    is one `fetch_add` with relaxed ordering. Name resolution takes a
//!    read lock + hash lookup, so hot loops should hold on to the
//!    `Arc<Counter>` handle instead of re-resolving per event (both
//!    styles are supported).
//! 2. **No torn totals.** Every instrument is independently atomic, and
//!    cross-instrument invariants are expressed over *monotonic*
//!    quantities, so concurrent snapshots observe each counter at some
//!    valid point of its own history.
//! 3. **Leaf crate.** The registry knows nothing about the storage
//!    clock; callers pass simulated seconds in explicitly, which keeps
//!    `canopus-obs` dependency-free and usable from every layer.

use crate::histogram::Histogram;
use crate::sink::{Event, FieldValue, NoopSink, Sink};
use crate::snapshot::{MetricsSnapshot, TimerStat};
use crate::span::{thread_lane, SpanContext, SpanGuard};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, by: u64) {
        self.value.fetch_add(by, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A signed up/down quantity (bytes resident, queue depth, ...).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, by: i64) {
        self.value.fetch_add(by, Ordering::Relaxed);
    }

    pub fn sub(&self, by: i64) {
        self.value.fetch_sub(by, Ordering::Relaxed);
    }

    /// Raise the gauge to `v` if it is currently lower (high-water
    /// marks: peak queue depth, max in-flight reads).
    pub fn set_max(&self, v: i64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Accumulated time for one pipeline stage.
///
/// Wall time covers real compute; sim time covers the deterministic
/// storage-device model (`SimClock`). Both are stored as integer
/// nanoseconds so concurrent updates cannot lose fractional carries.
/// Each recorded execution also folds its *total* (wall + sim) duration
/// into a running min/max.
#[derive(Debug)]
pub struct StageTimer {
    count: AtomicU64,
    wall_nanos: AtomicU64,
    sim_nanos: AtomicU64,
    /// Per-record total (wall + sim); `u64::MAX` until the first record.
    min_nanos: AtomicU64,
    max_nanos: AtomicU64,
}

impl Default for StageTimer {
    fn default() -> Self {
        StageTimer {
            count: AtomicU64::new(0),
            wall_nanos: AtomicU64::new(0),
            sim_nanos: AtomicU64::new(0),
            min_nanos: AtomicU64::new(u64::MAX),
            max_nanos: AtomicU64::new(0),
        }
    }
}

impl StageTimer {
    /// Record one completed stage execution.
    pub fn record(&self, wall_secs: f64, sim_secs: f64) {
        let wall = secs_to_nanos(wall_secs);
        let sim = secs_to_nanos(sim_secs);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.wall_nanos.fetch_add(wall, Ordering::Relaxed);
        self.sim_nanos.fetch_add(sim, Ordering::Relaxed);
        let total = wall.saturating_add(sim);
        self.min_nanos.fetch_min(total, Ordering::Relaxed);
        self.max_nanos.fetch_max(total, Ordering::Relaxed);
    }

    /// Record a wall-clock-only stage (compute with no modelled I/O).
    pub fn record_wall(&self, wall_secs: f64) {
        self.record(wall_secs, 0.0);
    }

    /// Time `f` on the wall clock and record it.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.record_wall(start.elapsed().as_secs_f64());
        out
    }

    pub fn stat(&self) -> TimerStat {
        // Load order matters for the monotone-snapshot guarantee: count
        // first, so a concurrent snapshot never sees time without its
        // corresponding count being at most one behind.
        let count = self.count.load(Ordering::Relaxed);
        let min = self.min_nanos.load(Ordering::Relaxed);
        TimerStat {
            count,
            wall_secs: self.wall_nanos.load(Ordering::Relaxed) as f64 * 1e-9,
            sim_secs: self.sim_nanos.load(Ordering::Relaxed) as f64 * 1e-9,
            min_secs: if min == u64::MAX {
                0.0
            } else {
                min as f64 * 1e-9
            },
            max_secs: self.max_nanos.load(Ordering::Relaxed) as f64 * 1e-9,
        }
    }
}

pub(crate) fn secs_to_nanos(secs: f64) -> u64 {
    if secs <= 0.0 || !secs.is_finite() {
        return 0;
    }
    (secs * 1e9).round().min(u64::MAX as f64) as u64
}

/// The metrics registry. One per storage hierarchy; shared via `Arc`
/// across every pipeline layer that hangs off it.
///
/// ## Lock order
///
/// The four instrument maps are **leaf locks**: `get_or_insert` takes a
/// read (or briefly a write) lock only to resolve a name to its `Arc`'d
/// instrument, and nothing is ever called while one is held — no sink,
/// no other registry map, no caller-provided code. Updates to a
/// resolved instrument are plain atomics and need no lock at all, which
/// is why hot paths (the reader's cache accounting, the serving layer's
/// per-class counters) pre-resolve their handles once and never touch
/// these maps again. Callers may therefore invoke the registry while
/// holding their own locks without ordering concerns — the reverse
/// (calling out of the registry into caller locks) never happens.
pub struct Registry {
    counters: RwLock<HashMap<String, Arc<Counter>>>,
    gauges: RwLock<HashMap<String, Arc<Gauge>>>,
    timers: RwLock<HashMap<String, Arc<StageTimer>>>,
    histograms: RwLock<HashMap<String, Arc<Histogram>>>,
    sink: RwLock<Arc<dyn Sink>>,
    sink_enabled: AtomicBool,
    /// Next span id (ids are per-registry, starting at 1).
    next_span_id: AtomicU64,
    /// Trace time origin: span `t_start_us` offsets are measured from
    /// registry creation.
    epoch: Instant,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// A registry with every instrument zeroed and the no-op sink
    /// installed (spans and events vanish at the cost of one relaxed
    /// atomic load).
    pub fn new() -> Self {
        Registry {
            counters: RwLock::new(HashMap::new()),
            gauges: RwLock::new(HashMap::new()),
            timers: RwLock::new(HashMap::new()),
            histograms: RwLock::new(HashMap::new()),
            sink: RwLock::new(Arc::new(NoopSink)),
            sink_enabled: AtomicBool::new(false),
            next_span_id: AtomicU64::new(1),
            epoch: Instant::now(),
        }
    }

    /// Get or create the counter registered under `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_insert(&self.counters, name)
    }

    /// Get or create the gauge registered under `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_insert(&self.gauges, name)
    }

    /// Get or create the stage timer registered under `name`.
    pub fn timer(&self, name: &str) -> Arc<StageTimer> {
        get_or_insert(&self.timers, name)
    }

    /// Get or create the latency histogram registered under `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_insert(&self.histograms, name)
    }

    /// Convenience: bump `name` by `by` without keeping a handle.
    pub fn inc(&self, name: &str, by: u64) {
        self.counter(name).add(by);
    }

    /// Install a sink and start forwarding spans/events to it.
    pub fn set_sink(&self, sink: Arc<dyn Sink>) {
        *self.sink.write().unwrap() = sink;
        self.sink_enabled.store(true, Ordering::Release);
    }

    /// Revert to the no-op sink.
    pub fn disable_sink(&self) {
        self.sink_enabled.store(false, Ordering::Release);
        *self.sink.write().unwrap() = Arc::new(NoopSink);
    }

    pub fn sink_enabled(&self) -> bool {
        self.sink_enabled.load(Ordering::Acquire)
    }

    /// Emit a one-shot structured event (no duration attached).
    pub fn event(&self, name: &str, fields: Vec<(String, FieldValue)>) {
        self.event_child(name, SpanContext::none(), fields);
    }

    /// Emit a one-shot event attached under `parent` (retry attempts,
    /// fault observations, cache probes). Every emitted event is
    /// stamped with its trace offset (`t_us`) and thread lane (`tid`)
    /// so exporters can place it on a timeline.
    pub fn event_child(
        &self,
        name: &str,
        parent: SpanContext,
        mut fields: Vec<(String, FieldValue)>,
    ) {
        if !self.sink_enabled() {
            return;
        }
        if let Some(id) = parent.id() {
            fields.push(("parent_id".to_string(), FieldValue::Uint(id)));
        }
        fields.push((
            "t_us".to_string(),
            FieldValue::Uint(self.epoch.elapsed().as_micros() as u64),
        ));
        fields.push(("tid".to_string(), FieldValue::Uint(thread_lane())));
        let sink = self.sink.read().unwrap().clone();
        sink.event(&Event {
            name: name.to_string(),
            fields,
        });
    }

    /// Open a root span that reports its wall duration to the sink on
    /// drop. Returns an inert guard when the sink is disabled.
    pub fn span(&self, name: &str, fields: Vec<(String, FieldValue)>) -> SpanGuard {
        self.span_child(name, SpanContext::none(), fields)
    }

    /// Open a span parented under `parent` (which may live on another
    /// thread — [`SpanContext`] is `Copy` and crosses freely). An inert
    /// parent yields a root span; a disabled sink yields an inert guard.
    pub fn span_child(
        &self,
        name: &str,
        parent: SpanContext,
        fields: Vec<(String, FieldValue)>,
    ) -> SpanGuard {
        if !self.sink_enabled() {
            return SpanGuard::inert();
        }
        let sink = self.sink.read().unwrap().clone();
        let id = self.next_span_id.fetch_add(1, Ordering::Relaxed);
        SpanGuard::activate(sink, name, fields, id, parent.id(), self.epoch)
    }

    /// A copy of every instrument (plus any events the current sink has
    /// retained).
    ///
    /// Instruments are lock-free atomics read one after another, in the
    /// name maps' (per-registry random) iteration order, while writers
    /// keep running. Each value is therefore one the instrument really
    /// held during the call — a counter never goes backwards across one
    /// observer's successive snapshots and never exceeds its final total
    /// — but the snapshot is not a consistent cut *across* instruments:
    /// of two counters a writer bumps in order, the second may be read
    /// after a bump the first was read before. Compare instruments with
    /// each other only once the writers are quiescent.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .read()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .gauges
            .read()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let timers = self
            .timers
            .read()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.stat()))
            .collect();
        let histograms = self
            .histograms
            .read()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.stat()))
            .collect();
        let sink = self.sink.read().unwrap().clone();
        let dropped_events = sink.dropped_events();
        let events = sink.drain_events();
        MetricsSnapshot {
            counters,
            gauges,
            timers,
            histograms,
            events,
            dropped_events,
        }
    }

    /// Zero every instrument (handles stay valid) and clear retained
    /// events. Used by benches to isolate measurement windows.
    pub fn reset(&self) {
        for c in self.counters.read().unwrap().values() {
            c.value.store(0, Ordering::Relaxed);
        }
        for g in self.gauges.read().unwrap().values() {
            g.value.store(0, Ordering::Relaxed);
        }
        for t in self.timers.read().unwrap().values() {
            t.count.store(0, Ordering::Relaxed);
            t.wall_nanos.store(0, Ordering::Relaxed);
            t.sim_nanos.store(0, Ordering::Relaxed);
            t.min_nanos.store(u64::MAX, Ordering::Relaxed);
            t.max_nanos.store(0, Ordering::Relaxed);
        }
        for h in self.histograms.read().unwrap().values() {
            h.reset();
        }
        self.next_span_id.store(1, Ordering::Relaxed);
        let _ = self.sink.read().unwrap().drain_events();
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("counters", &self.counters.read().unwrap().len())
            .field("gauges", &self.gauges.read().unwrap().len())
            .field("timers", &self.timers.read().unwrap().len())
            .field("histograms", &self.histograms.read().unwrap().len())
            .field("sink_enabled", &self.sink_enabled())
            .finish()
    }
}

fn get_or_insert<T: Default>(map: &RwLock<HashMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    if let Some(existing) = map.read().unwrap().get(name) {
        return Arc::clone(existing);
    }
    let mut w = map.write().unwrap();
    Arc::clone(w.entry(name.to_string()).or_default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::RingBufferSink;

    #[test]
    fn counters_and_gauges_accumulate() {
        let reg = Registry::new();
        reg.counter("a").add(3);
        reg.counter("a").inc();
        reg.gauge("g").add(10);
        reg.gauge("g").sub(4);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("a"), 4);
        assert_eq!(snap.gauge("g"), 6);
        assert_eq!(snap.counter("missing"), 0);
    }

    #[test]
    fn timers_track_wall_and_sim() {
        let reg = Registry::new();
        let t = reg.timer("io");
        t.record(0.5, 2.0);
        t.record(0.25, 1.0);
        let stat = reg.snapshot().timer("io");
        assert_eq!(stat.count, 2);
        assert!((stat.wall_secs - 0.75).abs() < 1e-9);
        assert!((stat.sim_secs - 3.0).abs() < 1e-9);
        // Min/max fold the per-record (wall + sim) totals.
        assert!((stat.min_secs - 1.25).abs() < 1e-9);
        assert!((stat.max_secs - 2.5).abs() < 1e-9);
        // Untouched timers report zero, not u64::MAX garbage.
        assert_eq!(reg.snapshot().timer("never").min_secs, 0.0);
    }

    #[test]
    fn histograms_register_and_reset() {
        let reg = Registry::new();
        let h = reg.histogram("lat");
        h.observe_secs(1e-6);
        h.observe_secs(2e-3);
        let stat = reg.snapshot().histogram("lat");
        assert_eq!(stat.count, 2);
        assert!(stat.min_nanos <= 1_000 && stat.max_nanos >= 2_000_000);
        reg.reset();
        let stat = reg.snapshot().histogram("lat");
        assert_eq!(stat.count, 0);
        assert_eq!(stat.min_nanos, 0);
    }

    #[test]
    fn span_inert_without_sink_active_with() {
        let reg = Registry::new();
        assert!(!reg.span("s", vec![]).is_active());

        let ring = Arc::new(RingBufferSink::with_capacity(8));
        reg.set_sink(ring.clone());
        {
            let _g = reg.span("restore", vec![("level".into(), FieldValue::Int(2))]);
        }
        let events = ring.drain_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "restore");
        assert!(events[0]
            .fields
            .iter()
            .any(|(k, v)| k == "level" && *v == FieldValue::Int(2)));
        assert!(events[0].fields.iter().any(|(k, _)| k == "wall_secs"));
    }

    #[test]
    fn reset_zeroes_but_keeps_handles() {
        let reg = Registry::new();
        let c = reg.counter("x");
        c.add(9);
        reg.reset();
        assert_eq!(c.get(), 0);
        c.add(2);
        assert_eq!(reg.snapshot().counter("x"), 2);
    }
}
