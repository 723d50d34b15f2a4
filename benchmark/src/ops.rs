//! The read-side operations the workloads are built from, each wrapped
//! in spans and checked, and the samples they leave behind.

use crate::campaign::{Campaign, TierTotals};
use crate::gen::Zoom;
use crate::metrics::Values;
use crate::stats::{mean, median, percentile};
use crate::trace::{totals_by_name, Tracer};
use canopus::{CanopusReader, RegionStats};
use std::time::Instant;

/// What a run of read operations measured, one entry per operation.
#[derive(Debug, Default)]
pub struct ReadSamples {
    /// Start of the operation to base-accuracy data in hand.
    pub first_ms: Vec<f64>,
    /// Start of the operation to the accuracy asked for.
    pub op_ms: Vec<f64>,
    /// Simulated tier seconds the operation cost (clock difference).
    pub io_sim_s: Vec<f64>,
    /// What the tiers saw during the operation.
    pub tier: Vec<TierTotals>,
    /// `timing.decompress_secs` / `timing.restore_secs` summed over the
    /// operation's outcomes.
    pub decode_s: Vec<f64>,
    pub restore_s: Vec<f64>,
    pub region: Vec<RegionTotals>,
    /// Worst max-abs error seen, as a share of the allowed bound.
    pub max_err_ratio: f64,
    pub elapsed_s: f64,
}

/// `RegionStats` summed over the steps of one zoom.
#[derive(Debug, Clone, Copy, Default)]
pub struct RegionTotals {
    pub chunks_read: u64,
    pub chunks_total: u64,
    pub bytes_read: u64,
    /// In-window vertices over vertices restored exactly, last step.
    pub useful_ratio: f64,
}

impl RegionTotals {
    fn add(&mut self, s: &RegionStats) {
        self.chunks_read += s.chunks_read as u64;
        self.chunks_total += s.chunks_total as u64;
        self.bytes_read += s.bytes_read;
    }
}

/// Run `op(index)` until `seconds` have passed and at least `min_ops`
/// ran; returns the elapsed seconds. The floor is what the exact
/// metrics are averaged over, so they do not depend on machine speed.
pub fn run_for(seconds: f64, min_ops: usize, mut op: impl FnMut(u64)) -> f64 {
    let t = Instant::now();
    let mut i = 0;
    while t.elapsed().as_secs_f64() < seconds || i < min_ops {
        op(i as u64);
        i += 1;
    }
    t.elapsed().as_secs_f64()
}

impl ReadSamples {
    /// The paper's single-analyst path with every program cache cold: a
    /// fresh `open` (empty geometry and level caches, no knob needed),
    /// the base, then level 0, checked against the generated data.
    pub fn cold_restore(
        &mut self,
        c: &Campaign,
        file: &str,
        tr: &mut Tracer,
        op: u64,
    ) -> Result<(), String> {
        let (tiers, sim) = (c.tier_totals(), c.sim_now());
        let root = tr.begin("bench.cold_restore", None, op);
        let t = Instant::now();
        let reader = tr
            .time("core.open", root, op, || c.canopus.open(file))
            .map_err(|e| format!("open {file}: {e}"))?;
        let base = tr
            .time("core.read_base", root, op, || reader.read_base(c.var()))
            .map_err(|e| format!("read_base {file}: {e}"))?;
        let first_ms = t.elapsed().as_secs_f64() * 1e3;
        let full = tr
            .time("core.read_level", root, op, || {
                reader.read_level(c.var(), 0)
            })
            .map_err(|e| format!("read_level {file}: {e}"))?;
        let op_ms = t.elapsed().as_secs_f64() * 1e3;
        tr.end(root);
        let (io_sim_s, tier) = (c.sim_now() - sim, c.tier_totals().since(tiers));

        c.check_base(&base)?;
        let (err_ratio, _) = c.check_full(&full, None)?;
        self.max_err_ratio = self.max_err_ratio.max(err_ratio);
        self.first_ms.push(first_ms);
        self.op_ms.push(op_ms);
        self.io_sim_s.push(io_sim_s);
        self.tier.push(tier);
        self.decode_s
            .push(base.timing.decompress_secs + full.timing.decompress_secs);
        self.restore_s
            .push(base.timing.restore_secs + full.timing.restore_secs);
        Ok(())
    }

    /// One zoom on a long-lived reader: the base, then `refine_region`
    /// step by step to level 0 inside the window, checking that every
    /// vertex inside the window is within the bound.
    pub fn zoom(
        &mut self,
        c: &Campaign,
        reader: &CanopusReader,
        zoom: Zoom,
        tr: &mut Tracer,
        op: u64,
    ) -> Result<(), String> {
        let window = c.window(c.ds.mesh.points()[zoom.vertex], zoom.side);
        let (tiers, sim) = (c.tier_totals(), c.sim_now());
        let root = tr.begin("bench.zoom", None, op);
        let t = Instant::now();
        let mut cur = tr
            .time("core.read_base", root, op, || reader.read_base(c.var()))
            .map_err(|e| format!("read_base: {e}"))?;
        let first_ms = t.elapsed().as_secs_f64() * 1e3;
        let (mut decode_s, mut restore_s) = (cur.timing.decompress_secs, cur.timing.restore_secs);
        let mut region = RegionTotals::default();
        let mut exact_vertices = 0;
        while cur.level > 0 {
            let (next, stats) = tr
                .time("core.refine_region", root, op, || {
                    reader.refine_region(c.var(), &cur, window)
                })
                .map_err(|e| format!("refine_region to level {}: {e}", cur.level - 1))?;
            region.add(&stats);
            exact_vertices = stats.exact_vertices;
            decode_s += next.timing.decompress_secs;
            restore_s += next.timing.restore_secs;
            cur = next;
        }
        let op_ms = t.elapsed().as_secs_f64() * 1e3;
        tr.end(root);
        let (io_sim_s, tier) = (c.sim_now() - sim, c.tier_totals().since(tiers));

        let (err_ratio, in_window) = c.check_full(&cur, Some(&window))?;
        self.max_err_ratio = self.max_err_ratio.max(err_ratio);
        region.useful_ratio = in_window as f64 / exact_vertices.max(1) as f64;
        self.first_ms.push(first_ms);
        self.op_ms.push(op_ms);
        self.io_sim_s.push(io_sim_s);
        self.tier.push(tier);
        self.decode_s.push(decode_s);
        self.restore_s.push(restore_s);
        self.region.push(region);
        Ok(())
    }

    /// The end-to-end metrics every read workload derives the same way.
    /// Counts and simulated seconds are averaged over the first
    /// `exact_ops` operations only, a fixed set of inputs, so they are
    /// bit-identical between runs at one seed however many operations
    /// the machine got through.
    pub fn end_to_end(&self, v: &mut Values, exact_ops: usize) {
        let n = self.op_ms.len() as u64;
        v.set("first_p50_ms", median(&self.first_ms), n);
        v.set("op_p50_ms", median(&self.op_ms), n);
        v.note_tail("op_ms", &self.op_ms);
        let k = exact_ops.min(self.io_sim_s.len());
        v.set("read_io_sim_s", mean(&self.io_sim_s[..k]), k as u64);
        let bytes: Vec<f64> = self.tier[..k].iter().map(|t| t.read_bytes as f64).collect();
        v.set("read_bytes", mean(&bytes), k as u64);
        v.set("ops_per_s", n as f64 / self.elapsed_s, n);
    }

    /// The per-layer rows a traced slice of read operations fills.
    pub fn per_layer(&self, v: &mut Values, tr: &Tracer, exact_ops: usize) {
        let n = self.op_ms.len() as u64;
        let k = exact_ops.min(self.tier.len());
        let tier = |f: fn(&TierTotals) -> u64| {
            mean(
                &self.tier[..k]
                    .iter()
                    .map(|t| f(t) as f64)
                    .collect::<Vec<_>>(),
            )
        };
        v.set("storage.read_ops", tier(|t| t.read_ops), k as u64);
        v.set("storage.read_bytes", tier(|t| t.read_bytes), k as u64);
        v.set(
            "storage.slow_read_bytes",
            tier(|t| t.slow_read_bytes),
            k as u64,
        );
        v.set("compress.decode_s", mean(&self.decode_s), n);
        v.set("refactor.restore_s", mean(&self.restore_s), n);
        v.set("core.read.max_err_ratio", self.max_err_ratio, n);
        v.set("core.read.op_p90_ms", percentile(&self.op_ms, 90.0), n);
        let explained: f64 = self.decode_s.iter().chain(&self.restore_s).sum();
        let elapsed: f64 = self.op_ms.iter().sum::<f64>() / 1e3;
        if elapsed > 0.0 {
            v.set("core.read.unattributed_share", 1.0 - explained / elapsed, n);
        }
        let spans = totals_by_name(tr.spans());
        for (metric, span) in [
            ("core.read.open_ms", "core.open"),
            ("core.read.base_ms", "core.read_base"),
            ("core.read.full_ms", "core.read_level"),
            ("core.read.region_ms", "core.refine_region"),
        ] {
            if let Some(t) = spans.get(span) {
                v.set(metric, t.mean_ms(), t.count);
            }
        }
        if !self.region.is_empty() {
            let r = &self.region[..exact_ops.min(self.region.len())];
            let avg = |f: fn(&RegionTotals) -> f64| mean(&r.iter().map(f).collect::<Vec<_>>());
            let rn = r.len() as u64;
            v.set("core.read.region_bytes", avg(|r| r.bytes_read as f64), rn);
            v.set(
                "core.read.region_chunks_read",
                avg(|r| r.chunks_read as f64),
                rn,
            );
            v.set(
                "core.read.region_chunks_total",
                avg(|r| r.chunks_total as f64),
                rn,
            );
            v.set("core.read.region_useful_ratio", avg(|r| r.useful_ratio), rn);
        }
    }
}
