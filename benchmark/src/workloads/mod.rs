//! The four workloads. Each builds its own campaign from the seed, runs
//! its timed interval, checks every result and fills in the metrics.

pub mod ingest;
pub mod region_zoom;
pub mod restore_cold;
pub mod serve_mixed;

use crate::campaign::{Campaign, TierTotals};
use crate::counters::Counters;
use crate::metrics::Values;
use crate::ops::ReadSamples;
use crate::stats::{mean, median};
use crate::trace::Tracer;
use canopus::WriteReport;
use canopus_storage::ProductKind;

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    /// Length of the timed interval.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// 33k-vertex mesh for the smoke test.
    pub quick: bool,
}

impl Opts {
    /// Run `measure(seconds, tracer)` for the timed interval. An
    /// untraced run measures once, for the whole interval. A traced run
    /// measures a third of it with spans off and then a third with
    /// spans on, so the price of tracing is known; it returns the
    /// traced samples first and the untraced ones second.
    pub fn measure<S>(
        &self,
        tr: &mut Tracer,
        mut measure: impl FnMut(f64, &mut Tracer) -> S,
    ) -> (S, Option<S>) {
        if self.trace {
            let baseline = measure(self.seconds / 3.0, &mut Tracer::off());
            (measure(self.seconds / 3.0, tr), Some(baseline))
        } else {
            (measure(self.seconds, tr), None)
        }
    }
}

/// Everything a single-caller read workload reports, from its samples.
/// Both tables are filled whatever the run; which one is printed is the
/// report's business. Returns the reasons the run is invalid.
#[allow(clippy::too_many_arguments)]
pub fn report_reads(
    v: &mut Values,
    c: &Campaign,
    writes: &[Write],
    setup_s: f64,
    (samples, baseline): &(ReadSamples, Option<ReadSamples>),
    exact_ops: usize,
    tr: &Tracer,
    (before, after): (&Counters, &Counters),
) -> Vec<String> {
    v.set("setup_s", setup_s, 1);
    write_end_to_end(v, c, writes);
    write_per_layer(v, c, writes);
    samples.end_to_end(v, exact_ops);
    samples.per_layer(v, tr, exact_ops);
    if let Some(b) = baseline {
        trace_overhead_pct(v, &samples.op_ms, &b.op_ms);
    }
    after.per_layer(before, v)
}

/// Median latency of the traced slice over the untraced one, in percent.
pub fn trace_overhead_pct(v: &mut Values, traced_ms: &[f64], untraced_ms: &[f64]) {
    let base = median(untraced_ms);
    if base > 0.0 {
        let pct = (median(traced_ms) / base - 1.0) * 100.0;
        v.set("obs.trace_overhead_pct", pct, traced_ms.len() as u64);
    }
}

/// One `Canopus::write` as the workloads record it.
pub struct Write {
    pub report: WriteReport,
    pub wall_s: f64,
    /// What the tiers saw during the write.
    pub tier: TierTotals,
}

impl Write {
    pub fn run(c: &Campaign, file: &str, tr: &mut Tracer, op: u64) -> Result<Self, String> {
        let tiers = c.tier_totals();
        let (report, wall_s) = tr.time("core.write", None, op, || c.write(file))?;
        if report.num_levels != crate::campaign::NUM_LEVELS {
            return Err(format!("{file}: wrote {} levels", report.num_levels));
        }
        Ok(Self {
            report,
            wall_s,
            tier: c.tier_totals().since(tiers),
        })
    }

    /// Stored bytes of the data products (base and deltas, not the
    /// mesh/mapping metadata), and their bytes before compression.
    fn data_bytes(&self) -> (u64, u64) {
        self.report
            .products
            .iter()
            .filter(|p| !matches!(p.kind, ProductKind::Metadata { .. }))
            .fold((0, 0), |(s, r), p| (s + p.stored_bytes, r + p.raw_bytes))
    }
}

/// The write-side end-to-end metrics. Every workload has at least one
/// write — its campaign — so every workload reports them.
pub fn write_end_to_end(v: &mut Values, c: &Campaign, writes: &[Write]) {
    let n = writes.len() as u64;
    let wall: Vec<f64> = writes.iter().map(|w| w.wall_s).collect();
    v.set("write_s", median(&wall), n);
    let stored: u64 = writes.iter().map(|w| w.data_bytes().0).sum();
    let raw = n * (c.ds.len() * 8) as u64;
    v.set("stored_ratio", stored as f64 / raw as f64, n);
    let io: Vec<f64> = writes.iter().map(|w| w.report.io_time.seconds()).collect();
    v.set("write_io_sim_s", mean(&io), n);
}

/// The write-side per-layer rows, from the fields `write` returns.
pub fn write_per_layer(v: &mut Values, c: &Campaign, writes: &[Write]) {
    let n = writes.len() as u64;
    let avg = |f: &dyn Fn(&Write) -> f64| mean(&writes.iter().map(f).collect::<Vec<_>>());
    let decimate_s = avg(&|w| w.report.decimation_secs);
    let delta_s = avg(&|w| w.report.delta_secs);
    let encode_s = avg(&|w| w.report.compress_secs);
    let wall_s = avg(&|w| w.wall_s);
    v.set("data.gen_s", c.gen_s, 1);
    v.set("refactor.decimate_s", decimate_s, n);
    v.set("refactor.delta_s", delta_s, n);
    v.set("compress.encode_s", encode_s, n);
    v.set("core.write.wall_s", wall_s, n);
    // Negative when the stages overlap.
    v.set(
        "core.write.unattributed_s",
        wall_s - (decimate_s + delta_s + encode_s),
        n,
    );
    let Some(w) = writes.first() else { return };
    // Every delta's raw size is its finer level's vertex count x 8, and
    // each of those levels went through the decimation kernel once.
    let decimated: u64 = w
        .report
        .products
        .iter()
        .filter(|p| {
            !matches!(
                p.kind,
                ProductKind::Metadata { .. } | ProductKind::Base { .. }
            )
        })
        .map(|p| p.raw_bytes / 8)
        .sum();
    if decimate_s > 0.0 {
        v.set(
            "refactor.decimate_mvps",
            decimated as f64 / 1e6 / decimate_s,
            n,
        );
    }
    let (stored, raw) = w.data_bytes();
    v.set("compress.ratio", stored as f64 / raw.max(1) as f64, 1);
    v.set("storage.write_ops", avg(&|w| w.tier.write_ops as f64), n);
    v.set(
        "storage.write_bytes",
        avg(&|w| w.tier.write_bytes as f64),
        n,
    );
    if let Some(base) = w
        .report
        .products
        .iter()
        .find(|p| matches!(p.kind, ProductKind::Base { .. }))
    {
        v.set("storage.base_tier", base.tier as f64, 1);
    }
}
