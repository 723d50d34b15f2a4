//! Causal spans: RAII guards that emit one structured event on drop,
//! carrying enough identity (`span_id`, `parent_id`, start offset,
//! thread lane) to reassemble a per-operation span *tree* from the flat
//! event stream — including across threads, which is what the restore
//! walk's geometry loader and the write pipeline's workers need.
//!
//! The cross-thread handle is [`SpanContext`]: a tiny `Copy` value a
//! parent span hands to worker threads so their child spans and events
//! attach to it. When the sink is disabled every context is inert and
//! the whole layer stays at one atomic load per call site.

use crate::sink::{Event, FieldValue, Sink};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Cheap cross-thread handle to an open span (or to nothing, when the
/// sink is disabled). Pass it by value into worker closures and open
/// children with [`Registry::span_child`](crate::Registry::span_child)
/// or the [`stage_child!`](crate::stage_child) macro.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanContext {
    id: Option<u64>,
}

impl SpanContext {
    /// The inert context: children parented to it become root spans.
    pub const fn none() -> Self {
        SpanContext { id: None }
    }

    pub(crate) fn from_id(id: u64) -> Self {
        SpanContext { id: Some(id) }
    }

    /// The span id, when this context refers to a live recorded span.
    pub fn id(&self) -> Option<u64> {
        self.id
    }

    /// Whether children attached here will carry a `parent_id`.
    pub fn is_recording(&self) -> bool {
        self.id.is_some()
    }
}

/// Small dense per-thread lane number for trace exports. Assigned on
/// first use in arrival order (stable within a run, not across runs);
/// `std::thread::ThreadId` stays opaque on stable, hence this shim.
pub fn thread_lane() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static LANE: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    LANE.with(|l| *l)
}

/// RAII span: emits one structured event on drop with the measured
/// wall duration and its causal identity fields. Inert (zero
/// allocation, no atomics) when the sink is disabled — construct
/// through [`Registry::span`](crate::Registry::span),
/// [`Registry::span_child`](crate::Registry::span_child) or the
/// [`stage!`](crate::stage) / [`stage_child!`](crate::stage_child)
/// macros.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    sink: Arc<dyn Sink>,
    name: String,
    fields: Vec<(String, FieldValue)>,
    id: u64,
    parent: Option<u64>,
    /// Registry creation instant: span start offsets are measured from
    /// it so one trace shares one time origin.
    epoch: Instant,
    start: Instant,
}

impl SpanGuard {
    pub fn inert() -> Self {
        SpanGuard { active: None }
    }

    pub(crate) fn activate(
        sink: Arc<dyn Sink>,
        name: &str,
        fields: Vec<(String, FieldValue)>,
        id: u64,
        parent: Option<u64>,
        epoch: Instant,
    ) -> Self {
        SpanGuard {
            active: Some(ActiveSpan {
                sink,
                name: name.to_string(),
                fields,
                id,
                parent,
                epoch,
                start: Instant::now(),
            }),
        }
    }

    pub fn is_active(&self) -> bool {
        self.active.is_some()
    }

    /// Handle for parenting child spans/events — possibly from other
    /// threads. Inert guards hand out the inert context.
    pub fn context(&self) -> SpanContext {
        match &self.active {
            Some(a) => SpanContext::from_id(a.id),
            None => SpanContext::none(),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(span) = self.active.take() {
            let mut fields = span.fields;
            fields.push(("span_id".to_string(), FieldValue::Uint(span.id)));
            if let Some(parent) = span.parent {
                fields.push(("parent_id".to_string(), FieldValue::Uint(parent)));
            }
            fields.push((
                "t_start_us".to_string(),
                FieldValue::Uint(span.start.duration_since(span.epoch).as_micros() as u64),
            ));
            fields.push(("tid".to_string(), FieldValue::Uint(thread_lane())));
            if let Some(name) = std::thread::current().name() {
                fields.push(("thread".to_string(), FieldValue::Str(name.to_string())));
            }
            // Kept last: consumers (and the PR-1 tests) rely on the
            // duration being the final appended field.
            fields.push((
                "wall_secs".to_string(),
                FieldValue::Float(span.start.elapsed().as_secs_f64()),
            ));
            span.sink.event(&Event {
                name: span.name,
                fields,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::RingBufferSink;
    use crate::Registry;

    #[test]
    fn inert_guard_has_inert_context() {
        let g = SpanGuard::inert();
        assert!(!g.is_active());
        assert_eq!(g.context(), SpanContext::none());
        assert!(!g.context().is_recording());
    }

    #[test]
    fn span_event_carries_identity_fields() {
        let reg = Registry::new();
        let ring = Arc::new(RingBufferSink::with_capacity(8));
        reg.set_sink(ring.clone());
        let parent_ctx;
        {
            let root = reg.span("root", vec![]);
            parent_ctx = root.context();
            assert!(parent_ctx.is_recording());
            let _child = reg.span_child("child", parent_ctx, vec![]);
        }
        let events = ring.drain_events();
        assert_eq!(events.len(), 2, "child drops before root");
        let child = events.iter().find(|e| e.name == "child").unwrap();
        let root = events.iter().find(|e| e.name == "root").unwrap();
        assert_eq!(
            child.field("parent_id"),
            Some(&FieldValue::Uint(parent_ctx.id().unwrap()))
        );
        assert_eq!(
            root.field("span_id"),
            Some(&FieldValue::Uint(parent_ctx.id().unwrap()))
        );
        assert!(root.field("parent_id").is_none(), "roots have no parent");
        for e in &events {
            assert!(e.field("t_start_us").is_some());
            assert!(e.field("tid").is_some());
            let last = e.fields.last().unwrap();
            assert_eq!(last.0, "wall_secs", "duration stays the final field");
        }
    }

    #[test]
    fn contexts_cross_threads() {
        let reg = Arc::new(Registry::new());
        let ring = Arc::new(RingBufferSink::with_capacity(16));
        reg.set_sink(ring.clone());
        let root = reg.span("read", vec![]);
        let ctx = root.context();
        std::thread::scope(|s| {
            for _ in 0..2 {
                let reg = Arc::clone(&reg);
                s.spawn(move || {
                    let _g = reg.span_child("decode", ctx, vec![]);
                });
            }
        });
        drop(root);
        let events = ring.drain_events();
        let decodes: Vec<_> = events.iter().filter(|e| e.name == "decode").collect();
        assert_eq!(decodes.len(), 2);
        for d in decodes {
            assert_eq!(
                d.field("parent_id"),
                Some(&FieldValue::Uint(ctx.id().unwrap()))
            );
        }
    }

    #[test]
    fn thread_lanes_are_stable_per_thread() {
        let here = thread_lane();
        assert_eq!(here, thread_lane());
        let other = std::thread::spawn(thread_lane).join().unwrap();
        assert_ne!(here, other);
    }
}
