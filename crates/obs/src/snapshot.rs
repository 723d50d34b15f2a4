//! Point-in-time metrics snapshots with typed accessors and a JSON
//! round-trip.
//!
//! A [`MetricsSnapshot`] is plain data — `BTreeMap`s so exports are
//! deterministically ordered — and is what tests assert against and
//! what `repro --metrics out.json` writes to disk.

use crate::histogram::HistogramStat;
use crate::json::{self, Value};
use crate::names;
use crate::sink::Event;
use std::collections::BTreeMap;

/// Accumulated statistics for one stage timer.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TimerStat {
    /// Number of recorded executions.
    pub count: u64,
    /// Total wall-clock seconds across executions.
    pub wall_secs: f64,
    /// Total simulated storage-model seconds across executions.
    pub sim_secs: f64,
    /// Smallest single-record total (wall + sim); 0 when `count == 0`.
    pub min_secs: f64,
    /// Largest single-record total (wall + sim).
    pub max_secs: f64,
}

impl TimerStat {
    /// Wall + simulated time: the "experienced" stage cost under the
    /// paper's evaluation model, where device time is simulated and
    /// compute time is real.
    pub fn total_secs(&self) -> f64 {
        self.wall_secs + self.sim_secs
    }
}

/// A copy of every instrument in a [`Registry`](crate::Registry) at one
/// moment, plus any events the sink had retained.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub timers: BTreeMap<String, TimerStat>,
    pub histograms: BTreeMap<String, HistogramStat>,
    pub events: Vec<Event>,
    /// Events the sink discarded for capacity (ring-buffer eviction):
    /// nonzero means `events` is a truncated view of the run.
    pub dropped_events: u64,
}

impl MetricsSnapshot {
    /// Counter value, 0 when never touched.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, 0 when never touched.
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Timer stats, zeroed when never touched.
    pub fn timer(&self, name: &str) -> TimerStat {
        self.timers.get(name).copied().unwrap_or_default()
    }

    /// Histogram stats, empty (zero buckets) when never touched.
    pub fn histogram(&self, name: &str) -> HistogramStat {
        self.histograms.get(name).cloned().unwrap_or_default()
    }

    /// Sum of counter values whose name starts with `prefix`.
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }

    // ---- storage-tier accessors -------------------------------------

    pub fn tier_bytes_read(&self, tier: usize) -> u64 {
        self.counter(&names::tier_bytes_read(tier))
    }

    pub fn tier_bytes_written(&self, tier: usize) -> u64 {
        self.counter(&names::tier_bytes_written(tier))
    }

    /// Bytes read across every tier.
    pub fn total_tier_bytes_read(&self) -> u64 {
        (0..self.num_tiers_observed())
            .map(|t| self.tier_bytes_read(t))
            .sum()
    }

    /// Bytes written across every tier.
    pub fn total_tier_bytes_written(&self) -> u64 {
        (0..self.num_tiers_observed())
            .map(|t| self.tier_bytes_written(t))
            .sum()
    }

    /// Highest tier index seen in any per-tier counter, plus one.
    pub fn num_tiers_observed(&self) -> usize {
        self.counters
            .keys()
            .filter_map(|k| {
                let rest = k.strip_prefix("storage.tier.")?;
                rest.split('.').next()?.parse::<usize>().ok()
            })
            .map(|t| t + 1)
            .max()
            .unwrap_or(0)
    }

    /// Products placed on `tier` by the placement policy.
    pub fn placements_on_tier(&self, tier: usize) -> u64 {
        self.counter(&names::placements_on_tier(tier))
    }

    // ---- compression accessors --------------------------------------

    pub fn compress_bytes_in(&self, codec: &str) -> u64 {
        self.counter(&names::compress_bytes_in(codec))
    }

    pub fn compress_bytes_out(&self, codec: &str) -> u64 {
        self.counter(&names::compress_bytes_out(codec))
    }

    /// Compression ratio (input/output) for one codec, if it ran.
    pub fn compression_ratio(&self, codec: &str) -> Option<f64> {
        let input = self.compress_bytes_in(codec);
        let output = self.compress_bytes_out(codec);
        if output == 0 {
            None
        } else {
            Some(input as f64 / output as f64)
        }
    }

    /// Codec names that recorded any compression traffic.
    pub fn codecs_observed(&self) -> Vec<String> {
        self.counters
            .keys()
            .filter_map(|k| {
                k.strip_prefix("compress.")?
                    .strip_suffix(".bytes_in")
                    .map(str::to_string)
            })
            .collect()
    }

    // ---- pipeline-phase accessors -----------------------------------

    /// Write-path phase breakdown as `(phase, fraction)` pairs over the
    /// four instrumented phases (decimate / delta / compress / io),
    /// normalised by their combined total-time sum — so the fractions
    /// sum to 1 whenever any phase recorded time. I/O contributes
    /// simulated seconds; compute phases contribute wall seconds.
    pub fn write_breakdown(&self) -> Vec<(String, f64)> {
        self.phase_breakdown(&[
            names::WRITE_DECIMATE,
            names::WRITE_DELTA,
            names::WRITE_COMPRESS,
            names::WRITE_IO,
        ])
    }

    /// Read-path phase breakdown (io / decompress / restore), same
    /// normalisation as [`write_breakdown`](Self::write_breakdown).
    pub fn read_breakdown(&self) -> Vec<(String, f64)> {
        self.phase_breakdown(&[names::READ_IO, names::READ_DECOMPRESS, names::READ_RESTORE])
    }

    fn phase_breakdown(&self, phases: &[&str]) -> Vec<(String, f64)> {
        let totals: Vec<(String, f64)> = phases
            .iter()
            .map(|p| (p.to_string(), self.timer(p).total_secs()))
            .collect();
        let sum: f64 = totals.iter().map(|(_, t)| t).sum();
        if sum <= 0.0 {
            return totals;
        }
        totals.into_iter().map(|(p, t)| (p, t / sum)).collect()
    }

    /// Fraction of read-path time spent in (simulated) I/O.
    pub fn read_io_fraction(&self) -> f64 {
        self.read_breakdown()
            .iter()
            .find(|(p, _)| p == names::READ_IO)
            .map(|&(_, f)| f)
            .unwrap_or(0.0)
    }

    // ---- delta snapshots --------------------------------------------

    /// What happened between `earlier` and `self`, where `earlier` is
    /// an older snapshot of the same registry.
    ///
    /// Cumulative instruments subtract: counters, timer counts/totals,
    /// and histogram buckets become interval quantities (saturating, so
    /// instrument-by-instrument snapshot skew cannot underflow). Gauges
    /// are point-in-time, not cumulative — the diff carries `self`'s
    /// current values through unchanged. Timer min/max stay `self`'s
    /// cumulative extremes (the interval's are not recoverable).
    /// Retained events are dropped; `dropped_events` subtracts.
    pub fn diff(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), v.saturating_sub(earlier.counter(k))))
            .collect();
        let timers = self
            .timers
            .iter()
            .map(|(k, t)| {
                let e = earlier.timer(k);
                let stat = TimerStat {
                    count: t.count.saturating_sub(e.count),
                    wall_secs: (t.wall_secs - e.wall_secs).max(0.0),
                    sim_secs: (t.sim_secs - e.sim_secs).max(0.0),
                    min_secs: t.min_secs,
                    max_secs: t.max_secs,
                };
                (k.clone(), stat)
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| (k.clone(), h.diff(&earlier.histogram(k))))
            .collect();
        MetricsSnapshot {
            counters,
            gauges: self.gauges.clone(),
            timers,
            histograms,
            events: Vec::new(),
            dropped_events: self.dropped_events.saturating_sub(earlier.dropped_events),
        }
    }

    // ---- JSON round-trip --------------------------------------------

    pub fn to_json(&self) -> Value {
        let mut root = BTreeMap::new();
        root.insert(
            "counters".to_string(),
            Value::Obj(
                self.counters
                    .iter()
                    .map(|(k, &v)| (k.clone(), Value::Int(v as i128)))
                    .collect(),
            ),
        );
        root.insert(
            "gauges".to_string(),
            Value::Obj(
                self.gauges
                    .iter()
                    .map(|(k, &v)| (k.clone(), Value::Int(v as i128)))
                    .collect(),
            ),
        );
        root.insert(
            "timers".to_string(),
            Value::Obj(
                self.timers
                    .iter()
                    .map(|(k, t)| {
                        let mut obj = BTreeMap::new();
                        obj.insert("count".to_string(), Value::Int(t.count as i128));
                        obj.insert("wall_secs".to_string(), Value::Float(t.wall_secs));
                        obj.insert("sim_secs".to_string(), Value::Float(t.sim_secs));
                        obj.insert("min_secs".to_string(), Value::Float(t.min_secs));
                        obj.insert("max_secs".to_string(), Value::Float(t.max_secs));
                        (k.clone(), Value::Obj(obj))
                    })
                    .collect(),
            ),
        );
        root.insert(
            "histograms".to_string(),
            Value::Obj(
                self.histograms
                    .iter()
                    .map(|(k, h)| (k.clone(), h.to_json()))
                    .collect(),
            ),
        );
        root.insert(
            "events".to_string(),
            Value::Arr(self.events.iter().map(Event::to_json).collect()),
        );
        root.insert(
            "dropped_events".to_string(),
            Value::Int(self.dropped_events as i128),
        );
        Value::Obj(root)
    }

    /// Pretty-printed JSON document (what `--metrics out.json` writes).
    pub fn to_json_string(&self) -> String {
        self.to_json().to_pretty()
    }

    pub fn from_json(v: &Value) -> Result<Self, String> {
        let mut snap = MetricsSnapshot::default();
        if let Some(obj) = v.get("counters").and_then(Value::as_obj) {
            for (k, c) in obj {
                let c = c.as_u64().ok_or_else(|| format!("counter {k} not a u64"))?;
                snap.counters.insert(k.clone(), c);
            }
        }
        if let Some(obj) = v.get("gauges").and_then(Value::as_obj) {
            for (k, g) in obj {
                let g = g.as_i64().ok_or_else(|| format!("gauge {k} not an i64"))?;
                snap.gauges.insert(k.clone(), g);
            }
        }
        if let Some(obj) = v.get("timers").and_then(Value::as_obj) {
            for (k, t) in obj {
                let stat = TimerStat {
                    count: t
                        .get("count")
                        .and_then(Value::as_u64)
                        .ok_or_else(|| format!("timer {k} missing count"))?,
                    wall_secs: t
                        .get("wall_secs")
                        .and_then(Value::as_f64)
                        .ok_or_else(|| format!("timer {k} missing wall_secs"))?,
                    sim_secs: t
                        .get("sim_secs")
                        .and_then(Value::as_f64)
                        .ok_or_else(|| format!("timer {k} missing sim_secs"))?,
                    // Absent in pre-histogram dumps; default to zero so
                    // older artifacts stay parseable.
                    min_secs: t.get("min_secs").and_then(Value::as_f64).unwrap_or(0.0),
                    max_secs: t.get("max_secs").and_then(Value::as_f64).unwrap_or(0.0),
                };
                snap.timers.insert(k.clone(), stat);
            }
        }
        if let Some(obj) = v.get("histograms").and_then(Value::as_obj) {
            for (k, h) in obj {
                let h = HistogramStat::from_json(h)
                    .ok_or_else(|| format!("malformed histogram {k}"))?;
                snap.histograms.insert(k.clone(), h);
            }
        }
        if let Some(arr) = v.get("events").and_then(Value::as_arr) {
            for e in arr {
                snap.events
                    .push(Event::from_json(e).ok_or("malformed event")?);
            }
        }
        snap.dropped_events = v.get("dropped_events").and_then(Value::as_u64).unwrap_or(0);
        Ok(snap)
    }

    pub fn from_json_str(text: &str) -> Result<Self, String> {
        let v = json::parse(text).map_err(|e| e.to_string())?;
        Self::from_json(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::FieldValue;

    fn sample() -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        snap.counters
            .insert("storage.tier.0.bytes_read".into(), 4096);
        snap.counters
            .insert("storage.tier.1.bytes_read".into(), 123_456_789_012);
        snap.counters
            .insert("storage.tier.1.bytes_written".into(), 999);
        snap.counters.insert("compress.zfp.bytes_in".into(), 800);
        snap.counters.insert("compress.zfp.bytes_out".into(), 100);
        snap.gauges
            .insert("storage.writeback.tier.0.occupancy".into(), -0);
        snap.timers.insert(
            names::READ_IO.into(),
            TimerStat {
                count: 3,
                wall_secs: 0.001,
                sim_secs: 9.0,
                min_secs: 0.5,
                max_secs: 5.0,
            },
        );
        snap.timers.insert(
            names::READ_DECOMPRESS.into(),
            TimerStat {
                count: 3,
                wall_secs: 0.5,
                sim_secs: 0.0,
                ..Default::default()
            },
        );
        snap.timers.insert(
            names::READ_RESTORE.into(),
            TimerStat {
                count: 3,
                wall_secs: 0.5,
                sim_secs: 0.0,
                ..Default::default()
            },
        );
        let hist = {
            let h = crate::histogram::Histogram::default();
            h.observe_nanos(800);
            h.observe_nanos(40_000_000);
            h.stat()
        };
        snap.histograms.insert("read.decode.wall".into(), hist);
        snap.events.push(Event {
            name: "restore".into(),
            fields: vec![("level".into(), FieldValue::Uint(2))],
        });
        snap.dropped_events = 5;
        snap
    }

    #[test]
    fn typed_accessors() {
        let snap = sample();
        assert_eq!(snap.tier_bytes_read(0), 4096);
        assert_eq!(snap.tier_bytes_read(1), 123_456_789_012);
        assert_eq!(snap.num_tiers_observed(), 2);
        assert_eq!(snap.total_tier_bytes_read(), 123_456_793_108);
        assert_eq!(snap.compression_ratio("zfp"), Some(8.0));
        assert_eq!(snap.codecs_observed(), vec!["zfp".to_string()]);
        assert!((snap.read_io_fraction() - 9.001 / 10.001).abs() < 1e-9);
    }

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let snap = sample();
        let total: f64 = snap.read_breakdown().iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn diff_yields_interval_quantities() {
        let reg = crate::Registry::new();
        let c = reg.counter("reqs");
        let g = reg.gauge("depth");
        let t = reg.timer("io");
        let h = reg.histogram("lat");
        c.add(10);
        g.set(3);
        t.record(1.0, 2.0);
        h.observe_nanos(1_000);
        let earlier = reg.snapshot();
        c.add(5);
        g.set(7);
        t.record(0.5, 0.25);
        h.observe_nanos(9_000);
        h.observe_nanos(9_000);
        let later = reg.snapshot();
        let d = later.diff(&earlier);
        assert_eq!(d.counter("reqs"), 5, "counters subtract");
        assert_eq!(d.gauge("depth"), 7, "gauges are point-in-time");
        assert_eq!(d.timer("io").count, 1);
        assert!((d.timer("io").wall_secs - 0.5).abs() < 1e-9);
        assert!((d.timer("io").sim_secs - 0.25).abs() < 1e-9);
        assert_eq!(d.histogram("lat").count, 2, "histogram interval");
        assert!(d.histogram("lat").min_nanos > 1_000, "old stream excluded");
        // Self-diff is all zeros; diff never underflows on skew.
        let zero = later.diff(&later);
        assert_eq!(zero.counter("reqs"), 0);
        assert_eq!(zero.histogram("lat").count, 0);
        assert_eq!(earlier.diff(&later).counter("reqs"), 0, "saturates");
    }

    #[test]
    fn json_round_trip_is_exact() {
        let snap = sample();
        let text = snap.to_json_string();
        let back = MetricsSnapshot::from_json_str(&text).unwrap();
        assert_eq!(back.counters, snap.counters);
        assert_eq!(back.gauges, snap.gauges);
        assert_eq!(back.events, snap.events);
        assert_eq!(back.histograms, snap.histograms, "integer-exact");
        assert_eq!(back.dropped_events, snap.dropped_events);
        for (k, t) in &snap.timers {
            let b = back.timer(k);
            assert_eq!(b.count, t.count);
            assert!((b.wall_secs - t.wall_secs).abs() < 1e-12);
            assert!((b.sim_secs - t.sim_secs).abs() < 1e-12);
            assert!((b.min_secs - t.min_secs).abs() < 1e-12);
            assert!((b.max_secs - t.max_secs).abs() < 1e-12);
        }
    }

    #[test]
    fn pre_histogram_dumps_still_parse() {
        // A PR-1-era timer object without min/max, and no histogram or
        // dropped-event sections at all.
        let text = r#"{"timers": {"read.io": {"count": 1, "wall_secs": 0.5, "sim_secs": 2.0}}}"#;
        let snap = MetricsSnapshot::from_json_str(text).unwrap();
        assert_eq!(snap.timer("read.io").count, 1);
        assert_eq!(snap.timer("read.io").min_secs, 0.0);
        assert!(snap.histograms.is_empty());
        assert_eq!(snap.dropped_events, 0);
    }

    #[test]
    fn from_json_rejects_malformed() {
        assert!(MetricsSnapshot::from_json_str("{\"counters\": {\"x\": -1}}").is_err());
        assert!(MetricsSnapshot::from_json_str("not json").is_err());
    }
}
