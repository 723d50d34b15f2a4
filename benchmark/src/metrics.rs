//! The metric tables — the same names, units, directions and bounds
//! as `BENCHMARK.json` (a unit test keeps the two in step) — and the
//! result a run prints.

use crate::stats::{highest_supported_percentile, percentile};
use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only; per-layer metrics have no bound).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one of
/// these (README.md says what each means on each workload).
pub const END_TO_END: &[Def] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.15),
    e2e("write_s", "s", Lower, 0.25),
    e2e("stored_ratio", "ratio", Lower, 0.05),
    e2e("write_io_sim_s", "sim_s", Lower, 0.01),
    e2e("first_p50_ms", "ms", Lower, 0.25),
    e2e("op_p50_ms", "ms", Lower, 0.25),
    e2e("read_io_sim_s", "sim_s", Lower, 0.05),
    e2e("read_bytes", "B", Lower, 0.05),
    e2e("ops_per_s", "1/s", Higher, 0.25),
];

/// One row per thing a single layer does, measured from outside the
/// program. Printed by the traced run only.
pub const PER_LAYER: &[Def] = &[
    layer("data.gen_s", "s", Lower),
    layer("refactor.decimate_s", "s", Lower),
    layer("refactor.decimate_mvps", "Mvert/s", Higher),
    layer("refactor.delta_s", "s", Lower),
    layer("refactor.build_s", "s", Lower),
    layer("refactor.restore_s", "s", Lower),
    layer("refactor.restore_gbps", "GB/s", Higher),
    layer("compress.encode_s", "s", Lower),
    layer("compress.encode_gbps", "GB/s", Higher),
    layer("compress.decode_s", "s", Lower),
    layer("compress.decode_gbps", "GB/s", Higher),
    layer("compress.ratio", "ratio", Lower),
    layer("storage.read_ops", "count", Lower),
    layer("storage.read_bytes", "B", Lower),
    layer("storage.slow_read_bytes", "B", Lower),
    layer("storage.write_ops", "count", Lower),
    layer("storage.write_bytes", "B", Lower),
    layer("storage.read_us", "us", Lower),
    layer("storage.read_range_us", "us", Lower),
    layer("storage.write_us", "us", Lower),
    layer("storage.find_hit_us", "us", Lower),
    layer("storage.find_miss_us", "us", Lower),
    layer("storage.base_tier", "index", Lower),
    layer("adios.open_us", "us", Lower),
    layer("adios.manifest_bytes", "B", Lower),
    layer("adios.meta_parse_us", "us", Lower),
    layer("adios.checksum_gbps", "GB/s", Higher),
    layer("core.write.wall_s", "s", Lower),
    layer("core.write.unattributed_s", "s", Lower),
    layer("core.read.open_ms", "ms", Lower),
    layer("core.read.base_ms", "ms", Lower),
    layer("core.read.full_ms", "ms", Lower),
    layer("core.read.op_p90_ms", "ms", Lower),
    layer("core.read.unattributed_share", "ratio", Lower),
    layer("core.read.region_ms", "ms", Lower),
    layer("core.read.region_bytes", "B", Lower),
    layer("core.read.region_chunks_read", "count", Lower),
    layer("core.read.region_chunks_total", "count", Higher),
    layer("core.read.region_useful_ratio", "ratio", Higher),
    layer("core.read.max_err_ratio", "ratio", Lower),
    layer("core.read.retries", "count", Lower),
    layer("core.read.checksum_failures", "count", Lower),
    layer("core.read.degraded", "count", Lower),
    layer("core.cache.hit_ratio", "ratio", Higher),
    layer("core.cache.hit_copy_ms", "ms", Lower),
    layer("core.serve.queue_wait_p50_ms.quick", "ms", Lower),
    layer("core.serve.queue_wait_p99_ms.quick", "ms", Lower),
    layer("core.serve.service_p50_ms.quick", "ms", Lower),
    layer("core.serve.service_p99_ms.quick", "ms", Lower),
    layer("core.serve.queue_wait_p50_ms.heavy", "ms", Lower),
    layer("core.serve.queue_wait_p99_ms.heavy", "ms", Lower),
    layer("core.serve.service_p50_ms.heavy", "ms", Lower),
    layer("core.serve.service_p99_ms.heavy", "ms", Lower),
    layer("core.serve.quick_p50_ms", "ms", Lower),
    layer("core.serve.quick_p90_ms", "ms", Lower),
    layer("core.serve.quick_p99_ms", "ms", Lower),
    layer("core.serve.heavy_p50_ms", "ms", Lower),
    layer("core.serve.heavy_p90_ms", "ms", Lower),
    layer("core.serve.heavy_p99_ms", "ms", Lower),
    layer("core.serve.submit_block_ms", "ms", Lower),
    layer("core.serve.gen_late_p99_ms", "ms", Lower),
    layer("core.serve.queue_depth_peak", "count", Lower),
    layer("core.serve.workers", "count", Higher),
    layer("core.serve.rate_100.heavy_p90_ms", "ms", Lower),
    layer("core.serve.rate_100.attain", "ratio", Higher),
    layer("core.serve.rate_200.heavy_p90_ms", "ms", Lower),
    layer("core.serve.rate_200.attain", "ratio", Higher),
    layer("core.serve.rate_300.heavy_p90_ms", "ms", Lower),
    layer("core.serve.rate_300.attain", "ratio", Higher),
    layer("core.serve.rate_400.heavy_p90_ms", "ms", Lower),
    layer("core.serve.rate_400.attain", "ratio", Higher),
    layer("core.serve.max_rate_ok", "1/s", Higher),
    layer("analytics.raster_base_ms", "ms", Lower),
    layer("analytics.raster_full_ms", "ms", Lower),
    layer("analytics.blob_ms", "ms", Lower),
    layer("analytics.blobs_base", "count", Higher),
    layer("analytics.blobs_full", "count", Higher),
    layer("obs.snapshot_ms", "ms", Lower),
    layer("obs.trace_overhead_pct", "%", Lower),
];

/// Metric values of one run: `name -> (value, samples behind it)`,
/// plus free-form lines for the log.
#[derive(Debug, Default)]
pub struct Values {
    values: BTreeMap<&'static str, (f64, u64)>,
    notes: Vec<String>,
}

impl Values {
    /// # Panics
    /// On a name that is in neither table: a typo must not silently
    /// drop a metric.
    pub fn set(&mut self, name: &'static str, value: f64, n: u64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "unknown metric {name}"
        );
        self.values.insert(name, (value, n));
    }

    /// Log the highest percentile of `samples_ms` that still has ten
    /// samples beyond it: the tail this sample size supports, which at
    /// short run lengths is below the p90 the tables carry.
    pub fn note_tail(&mut self, what: &str, samples_ms: &[f64]) {
        let n = samples_ms.len();
        self.notes.push(match highest_supported_percentile(n) {
            Some(p) => format!("{what} p{p} {} ms n={n}", percentile(samples_ms, p)),
            None => format!("{what} n={n} supports no percentile beyond the median"),
        });
    }

    /// `(value, n)` of a metric. A layer the workload never entered did
    /// no work and was busy for no time, so an unset value reads 0.
    fn lookup(&self, name: &str) -> (f64, u64) {
        let (v, n) = self.values.get(name).copied().unwrap_or((0.0, 0));
        (if v.is_finite() { v } else { 0.0 }, n)
    }
}

/// Counts of operations checked, shared by every workload: an operation
/// that errors, is refused, comes back degraded or breaks a bound is
/// failed, and the first few reasons are kept for the log.
#[derive(Debug, Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    reasons: Vec<String>,
}

impl Checker {
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(why);
            }
        }
    }

    pub fn merge(&mut self, other: Checker) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.reasons.extend(other.reasons);
        self.reasons.truncate(8);
    }

    pub fn reasons(&self) -> &[String] {
        &self.reasons
    }
}

/// Everything one run reports.
pub struct Report {
    pub workload: &'static str,
    pub traced: bool,
    pub values: Values,
    pub check: Checker,
    /// A whole-run condition failed (open loop invalid, inputs not
    /// reproducible, a counter that must be 0 is not).
    pub invalid: Vec<String>,
    pub workload_hash: u64,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.check.failed == 0 && self.check.attempted > 0 && self.invalid.is_empty()
    }

    fn table(&self) -> &'static [Def] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// `METRIC workload name unit value n` per metric, for people and
    /// for `--compare`.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for d in self.table() {
            let (v, n) = self.values.lookup(d.name);
            let _ = writeln!(
                out,
                "METRIC {} {} {} {} {}",
                self.workload, d.name, d.unit, v, n
            );
        }
        for note in &self.values.notes {
            let _ = writeln!(out, "TAIL {} {note}", self.workload);
        }
        let _ = writeln!(
            out,
            "workload_hash {} {:016x}",
            self.workload, self.workload_hash
        );
        for why in self.check.reasons().iter().chain(&self.invalid) {
            let _ = writeln!(out, "FAILED {} {}", self.workload, why);
        }
        out
    }

    /// The result line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.check.attempted.max(1),
            self.check.failed
        );
        for (i, d) in self.table().iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let (v, _) = self.values.lookup(d.name);
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is written by hand; this is what keeps it equal
    /// to the tables the binary prints from.
    #[test]
    fn tables_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for d in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name,
                d.unit,
                d.better.as_str(),
                d.bound
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for d in PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name,
                d.unit,
                d.better.as_str()
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("{\"name\": ").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len() + crate::WORKLOADS.len(),
            "BENCHMARK.json lists a metric or workload the binary does not know"
        );
        for w in crate::WORKLOADS {
            assert!(json.contains(&format!("{{\"name\": \"{w}\", \"why\": ")));
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.bound <= 0.25);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().any(|d| d.name == "setup_s"));
    }

    #[test]
    fn result_line_has_the_four_keys_and_every_metric() {
        let mut values = Values::default();
        values.set("write_s", 11.25, 1);
        let mut check = Checker::default();
        check.op(Ok(()));
        check.op(Err("level 0 error 2.0 above bound 1.0".into()));
        let r = Report {
            workload: "ingest",
            traced: false,
            values,
            check,
            invalid: Vec::new(),
            workload_hash: 7,
        };
        let line = r.json_line();
        assert!(line
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": {"));
        assert!(line.contains("\"write_s\": {\"value\": 11.25, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        assert!(!line.contains('\n'));
        assert!(r.human().contains("FAILED ingest level 0 error"));
    }
}
