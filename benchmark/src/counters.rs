//! Before/after reads of the program's public metrics registry.
//! Instruments are looked up by string, so a renamed counter reads as
//! missing instead of breaking the build.

use crate::campaign::Campaign;
use crate::metrics::Values;
use canopus::MetricsSnapshot;
use std::time::Instant;

/// Printed for a counter the registry does not have (a `null`).
pub const MISSING: f64 = -1.0;

pub struct Counters {
    snapshot: MetricsSnapshot,
    /// Wall time `Registry::snapshot` took: the price of looking.
    pub snapshot_ms: f64,
}

impl Counters {
    pub fn take(c: &Campaign) -> Self {
        let t = Instant::now();
        let snapshot = c.canopus.metrics().snapshot();
        Self {
            snapshot,
            snapshot_ms: t.elapsed().as_secs_f64() * 1e3,
        }
    }

    /// Growth of a counter since `earlier`; `None` if it does not exist.
    pub fn since(&self, earlier: &Counters, name: &str) -> Option<u64> {
        let now = *self.snapshot.counters.get(name)?;
        Some(now - earlier.snapshot.counters.get(name).copied().unwrap_or(0))
    }

    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.snapshot.gauges.get(name).copied()
    }

    /// The read-path rows every traced slice reports from the registry:
    /// faults that must not happen, and how much the level cache served.
    /// Returns the reasons the slice is invalid (a counter that must be
    /// 0 is not).
    pub fn per_layer(&self, earlier: &Counters, v: &mut Values) -> Vec<String> {
        let mut invalid = Vec::new();
        for (metric, counter) in [
            ("core.read.retries", "canopus.read.retries"),
            (
                "core.read.checksum_failures",
                "canopus.read.checksum_failures",
            ),
            ("core.read.degraded", "canopus.read.degraded_restores"),
        ] {
            // Fault counters appear on first use: absent means none.
            let n = self.since(earlier, counter).unwrap_or(0);
            v.set(metric, n as f64, 1);
            if n > 0 {
                invalid.push(format!("{counter} rose by {n}, must be 0"));
            }
        }
        let hits = self.since(earlier, "canopus.read.cache_hits");
        let misses = self.since(earlier, "canopus.read.cache_misses");
        let ratio = match (hits, misses) {
            (Some(h), Some(m)) if h + m > 0 => h as f64 / (h + m) as f64,
            (Some(_), Some(_)) => 0.0,
            _ => MISSING,
        };
        v.set(
            "core.cache.hit_ratio",
            ratio,
            hits.unwrap_or(0) + misses.unwrap_or(0),
        );
        v.set(
            "obs.snapshot_ms",
            (self.snapshot_ms + earlier.snapshot_ms) / 2.0,
            2,
        );
        invalid
    }
}
