//! The set-up every workload shares: the generated variable, the
//! calibrated two-tier hierarchy, the engine at its defaults, and the
//! checks that decide whether a restored field is correct.

use canopus::config::RelativeCodec;
use canopus::{Canopus, CanopusConfig, ReadOutcome, WriteReport};
use canopus_data::Dataset;
use canopus_mesh::{Aabb, Point2};
use canopus_refactor::RefactorConfig;
use canopus_storage::{StorageHierarchy, TierSpec};
use std::sync::Arc;
use std::time::Instant;

/// 5 levels: the base holds 1/16 of the vertices, the decimation the
/// paper's blob analysis tolerates.
pub const NUM_LEVELS: u32 = 5;
const TIERS: usize = 2;

/// The engine configuration: `num_levels` and nothing else. Every other
/// field is slated for collapse or deletion, and the benchmark measures
/// what a user of the defaults gets — when a better path becomes the
/// default, the numbers move, and that is the point.
pub fn config() -> CanopusConfig {
    CanopusConfig {
        refactor: RefactorConfig {
            num_levels: NUM_LEVELS,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Relative error the default codec allows per level (0 if lossless).
fn rel_tolerance(codec: RelativeCodec) -> f64 {
    match codec {
        RelativeCodec::ZfpLike { rel_tolerance } => rel_tolerance,
        RelativeCodec::SzLike { rel_error_bound } => rel_error_bound,
        RelativeCodec::Fpc | RelativeCodec::Raw => 0.0,
    }
}

/// Summed I/O accounting over all tiers (`slow_*` = the slowest tier).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierTotals {
    pub read_ops: u64,
    pub read_bytes: u64,
    pub slow_read_bytes: u64,
    pub write_ops: u64,
    pub write_bytes: u64,
}

impl TierTotals {
    pub fn since(self, earlier: TierTotals) -> TierTotals {
        TierTotals {
            read_ops: self.read_ops - earlier.read_ops,
            read_bytes: self.read_bytes - earlier.read_bytes,
            slow_read_bytes: self.slow_read_bytes - earlier.slow_read_bytes,
            write_ops: self.write_ops - earlier.write_ops,
            write_bytes: self.write_bytes - earlier.write_bytes,
        }
    }
}

pub struct Campaign {
    pub ds: Dataset,
    pub lo: f64,
    pub hi: f64,
    /// Max-abs error a full restore may show:
    /// `num_levels x rel_tolerance x range`, the bound
    /// `tests/pipeline_roundtrip.rs` uses.
    pub err_bound: f64,
    pub hierarchy: Arc<StorageHierarchy>,
    pub canopus: Arc<Canopus>,
    pub gen_s: f64,
}

impl Campaign {
    /// Generate the variable and stand up an empty hierarchy with room
    /// for `files` written copies of it.
    ///
    /// The mesh is a 360 x 2900 XGC1-like annulus: 1 046 900 vertices,
    /// 2 088 000 triangles, 8.4 MB of raw f64 — about 16x the paper's
    /// largest mesh. `quick` shrinks it to 33k vertices for the smoke
    /// test, whose numbers are never compared.
    pub fn new(seed: u64, quick: bool, files: u64) -> Self {
        let t = Instant::now();
        let (radial, angular) = if quick { (64, 512) } else { (360, 2900) };
        let ds = canopus_data::xgc1_dataset_sized(radial, angular, seed);
        let gen_s = t.elapsed().as_secs_f64();

        let (lo, hi) = ds
            .data
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        let config = config();
        let err_bound =
            (NUM_LEVELS as f64 * rel_tolerance(config.codec) * (hi - lo)).max(1e-12 * (hi - lo));

        // The Titan two-tier calibration of crates/bench/src/setup.rs:
        // tmpfs holds a quarter of the raw bytes at DRAM speed, Lustre
        // is a contended share at 0.12 MB/s with millisecond latency, so
        // simulated I/O seconds are the paper's Fig. 9-11 quantity.
        // Devices are in memory and the clock is simulated: `*_io_sim_s`
        // repeats exactly. Only Lustre grows with `files`: tmpfs keeps
        // the one-file size, which holds several bases but no level's
        // geometry, so every file is placed like the first.
        let raw = (ds.len() * 8) as u64;
        let hierarchy = Arc::new(StorageHierarchy::new(vec![
            TierSpec::new("tmpfs", (raw / 4).max(4 * 1024), 2e9, 1.5e9, 2e-6),
            TierSpec::new("lustre", 64 * files * raw.max(1 << 20), 0.12e6, 0.1e6, 5e-3),
        ]));
        let canopus = Arc::new(Canopus::new(Arc::clone(&hierarchy), config));
        Self {
            ds,
            lo,
            hi,
            err_bound,
            hierarchy,
            canopus,
            gen_s,
        }
    }

    pub fn var(&self) -> &'static str {
        self.ds.var
    }

    /// One `Canopus::write` of the variable, with its wall seconds.
    pub fn write(&self, file: &str) -> Result<(WriteReport, f64), String> {
        let t = Instant::now();
        let report = self
            .canopus
            .write(file, self.ds.var, &self.ds.mesh, &self.ds.data)
            .map_err(|e| format!("write {file}: {e}"))?;
        Ok((report, t.elapsed().as_secs_f64()))
    }

    pub fn sim_now(&self) -> f64 {
        self.hierarchy.clock().now().seconds()
    }

    pub fn tier_totals(&self) -> TierTotals {
        let mut t = TierTotals::default();
        for idx in 0..TIERS {
            let s = self
                .hierarchy
                .tier_stats(idx)
                .expect("the hierarchy was built with two tiers");
            t.read_ops += s.reads;
            t.read_bytes += s.bytes_read;
            t.write_ops += s.writes;
            t.write_bytes += s.bytes_written;
            if idx == TIERS - 1 {
                t.slow_read_bytes = s.bytes_read;
            }
        }
        t
    }

    /// Max-abs error of a restored level 0 against the generated data,
    /// over all vertices or only those inside `window`, and how many
    /// vertices that was.
    fn max_abs_err(&self, restored: &[f64], window: Option<&Aabb>) -> (f64, usize) {
        let points = self.ds.mesh.points();
        restored
            .iter()
            .zip(&self.ds.data)
            .zip(points)
            .filter(|&(_, p)| window.is_none_or(|w| w.contains(*p)))
            .map(|((a, b), _)| (a - b).abs())
            .fold((0.0, 0), |(worst, n), err| (f64::max(worst, err), n + 1))
    }

    /// A hash of the generated variable, for workloads whose only input
    /// it is.
    pub fn data_hash(&self) -> u64 {
        let mut hash = crate::gen::InputHash::new();
        hash.u64(self.ds.len() as u64);
        self.ds.data.iter().step_by(997).for_each(|&x| hash.f64(x));
        hash.finish()
    }

    /// The checks every full-accuracy result must pass; returns the
    /// max-abs error as a share of the bound and the vertices checked.
    pub fn check_full(
        &self,
        out: &ReadOutcome,
        window: Option<&Aabb>,
    ) -> Result<(f64, usize), String> {
        if out.degraded || out.level != 0 || out.achieved_level != 0 {
            return Err(format!(
                "asked for level 0, got level {} (degraded: {})",
                out.achieved_level, out.degraded
            ));
        }
        if out.data.len() != self.ds.len() || out.mesh.num_vertices() != self.ds.len() {
            return Err(format!(
                "restored {} values for {} vertices",
                out.data.len(),
                self.ds.len()
            ));
        }
        let (err, checked) = self.max_abs_err(&out.data, window);
        if err > self.err_bound {
            return Err(format!(
                "max-abs error {err:e} above bound {:e}",
                self.err_bound
            ));
        }
        Ok((err / self.err_bound, checked))
    }

    /// The checks a base-level quick look must pass.
    pub fn check_base(&self, out: &ReadOutcome) -> Result<(), String> {
        if out.degraded || out.level != NUM_LEVELS - 1 {
            return Err(format!(
                "asked for the base, got level {} (degraded: {})",
                out.level, out.degraded
            ));
        }
        if out.data.is_empty() || out.data.len() != out.mesh.num_vertices() {
            return Err(format!(
                "base has {} values for {} vertices",
                out.data.len(),
                out.mesh.num_vertices()
            ));
        }
        Ok(())
    }

    /// A window of the bounding box: `side` of its width and height,
    /// centred on `centre`.
    pub fn window(&self, centre: Point2, side: f64) -> Aabb {
        let bb = self.ds.mesh.aabb();
        let (w, h) = (bb.width() * side / 2.0, bb.height() * side / 2.0);
        Aabb {
            min: Point2::new(centre.x - w, centre.y - h),
            max: Point2::new(centre.x + w, centre.y + h),
        }
    }

    /// Cell `index` of a `grid x grid` tiling of the bounding box.
    pub fn grid_window(&self, index: u32, grid: u32) -> Aabb {
        let bb = self.ds.mesh.aabb();
        let (w, h) = (bb.width() / grid as f64, bb.height() / grid as f64);
        let (col, row) = ((index % grid) as f64, (index / grid) as f64);
        Aabb {
            min: Point2::new(bb.min.x + col * w, bb.min.y + row * h),
            max: Point2::new(bb.min.x + (col + 1.0) * w, bb.min.y + (row + 1.0) * h),
        }
    }
}

/// Peak resident set of this process so far, from `VmHWM`.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
