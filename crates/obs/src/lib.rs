//! `canopus-obs` — the shared observability layer for the Canopus
//! pipeline.
//!
//! One [`Registry`] per storage hierarchy holds three instrument kinds:
//!
//! - [`Counter`] — monotonic event/byte counts (`fetch_add` relaxed);
//! - [`Gauge`] — signed up/down quantities (write-behind queue occupancy);
//! - [`StageTimer`] — per-stage totals recording **both** wall-clock
//!   seconds (real compute) and simulated seconds (the deterministic
//!   [`SimClock`] device model in `canopus-storage`), because the
//!   paper's evaluation mixes the two.
//!
//! On top of the instruments sits a structured span/event stream with a
//! pluggable [`Sink`]: the default [`NoopSink`] discards everything at
//! the cost of a single atomic load, while [`RingBufferSink`] retains
//! recent events for JSON export. Open spans with the [`stage!`] macro:
//!
//! ```
//! use canopus_obs::{stage, Registry, RingBufferSink};
//! use std::sync::Arc;
//!
//! let reg = Registry::new();
//! reg.set_sink(Arc::new(RingBufferSink::with_capacity(128)));
//! {
//!     let _span = stage!(reg, "restore", level = 2u32, var = "dpot");
//!     // ... do the work; the span reports its wall duration on drop
//! }
//! assert_eq!(reg.snapshot().events.len(), 1);
//! ```
//!
//! [`Registry::snapshot`] produces a [`MetricsSnapshot`]: plain sorted
//! maps with typed accessors (per-tier byte counts, per-codec
//! compression ratios, read/write phase breakdowns) and an exact JSON
//! round-trip via the self-contained [`json`] module.

pub mod export;
mod histogram;
pub mod json;
pub mod names;
mod registry;
mod sink;
mod snapshot;
mod span;
mod window;

pub use histogram::{bucket_upper_nanos, Histogram, HistogramStat, NUM_BUCKETS};
pub use registry::{Counter, Gauge, Registry, StageTimer};
pub use sink::{Event, FieldValue, NoopSink, RingBufferSink, Sink};
pub use snapshot::{MetricsSnapshot, TimerStat};
pub use span::{thread_lane, SpanContext, SpanGuard};
pub use window::{RollingWindow, WindowConfig, WindowDelta};

/// Open a stage span on a registry: `stage!(reg, "restore", level = l)`.
///
/// Field values are anything with `Into<FieldValue>` (ints, floats,
/// bools, strings). When the registry's sink is disabled the expansion
/// short-circuits before allocating the field vector, keeping the
/// disabled cost to one atomic load.
#[macro_export]
macro_rules! stage {
    ($reg:expr, $name:expr $(, $key:ident = $val:expr)* $(,)?) => {{
        let reg = &$reg;
        if reg.sink_enabled() {
            reg.span(
                $name,
                vec![$((stringify!($key).to_string(), $crate::FieldValue::from($val))),*],
            )
        } else {
            $crate::SpanGuard::inert()
        }
    }};
}

/// Open a child span under a [`SpanContext`] handed across from the
/// parent (possibly on another thread):
/// `stage_child!(reg, ctx, "decode", level = l)`. Same disabled-path
/// guarantee as [`stage!`]: one atomic load, no allocation.
#[macro_export]
macro_rules! stage_child {
    ($reg:expr, $parent:expr, $name:expr $(, $key:ident = $val:expr)* $(,)?) => {{
        let reg = &$reg;
        if reg.sink_enabled() {
            reg.span_child(
                $name,
                $parent,
                vec![$((stringify!($key).to_string(), $crate::FieldValue::from($val))),*],
            )
        } else {
            $crate::SpanGuard::inert()
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn stage_macro_emits_fields() {
        let reg = Registry::new();
        let ring = Arc::new(RingBufferSink::with_capacity(16));
        reg.set_sink(ring);
        {
            let _s = stage!(reg, "refine", level = 3u32, rms = 0.5, var = "dpot");
        }
        let snap = reg.snapshot();
        assert_eq!(snap.events.len(), 1);
        let e = &snap.events[0];
        assert_eq!(e.name, "refine");
        assert_eq!(e.field("level"), Some(&FieldValue::Uint(3)));
        assert_eq!(e.field("var"), Some(&FieldValue::Str("dpot".into())));
        assert!(e.field("wall_secs").is_some());
    }

    #[test]
    fn stage_macro_is_inert_when_disabled() {
        let reg = Registry::new();
        let guard = stage!(reg, "noop", x = 1u64);
        assert!(!guard.is_active());
        drop(guard);
        assert!(reg.snapshot().events.is_empty());
    }

    #[test]
    fn registry_snapshot_round_trips_through_json() {
        let reg = Registry::new();
        reg.counter(&names::tier_bytes_read(0)).add(1234);
        reg.timer(names::READ_IO).record(0.01, 2.5);
        reg.gauge(names::WRITE_STAGE_DEPTH).add(3);
        let snap = reg.snapshot();
        let back = MetricsSnapshot::from_json_str(&snap.to_json_string()).unwrap();
        assert_eq!(back.counter(&names::tier_bytes_read(0)), 1234);
        assert_eq!(back.gauge(names::WRITE_STAGE_DEPTH), 3);
        assert_eq!(back.timer(names::READ_IO).count, 1);
    }
}
