//! Restore-engine throughput: the perf trajectory behind `BENCH_read.json`.
//!
//! Times a full base → L0 restoration on the Fig. 9 XGC1 configuration
//! under both read engines over the *same* stored variable:
//!
//! * `serial` — `pipeline_depth = 0`: fetch → decode → restore in strict
//!   sequence (chunk-framed streams still decode across cores);
//! * `pipelined` — bounded prefetch + parallel decode + eager restore.
//!
//! Tier I/O is simulated (`SimClock` advances without sleeping), so the
//! measured wall clock isolates the real CPU work — decompression and
//! delta application — which is exactly what the engines differ on. The
//! headline `speedup` is `serial` over `pipelined`.
//!
//! A second section exercises the decoded-level cache: the repeat read
//! of a cached `(var, level)` must move zero tier bytes. A third
//! refines a 1/8-domain window of a one-chunk and a 16-chunk file.

use crate::histsum;
use crate::setup::titan_hierarchy;
use canopus::{Canopus, CanopusConfig, MetricsSnapshot, PhaseTiming};
use canopus_data::Dataset;
use canopus_obs::{json::Value, names, HistogramStat};
use canopus_refactor::levels::RefactorConfig;
use std::collections::BTreeMap;
use std::time::Instant;

/// One engine configuration's measured full-restore cost.
#[derive(Debug, Clone)]
pub struct EngineSample {
    pub label: &'static str,
    /// Median measured wall seconds for one base → L0 restore.
    pub wall_secs: f64,
    /// Phase timing of the median iteration (I/O phases are simulated).
    pub timing: PhaseTiming,
}

/// Decoded-level cache behaviour on a repeat read.
#[derive(Debug, Clone, Copy)]
pub struct CacheSample {
    /// Tier bytes moved by the first (cold) full restore.
    pub first_read_bytes_io: u64,
    /// Tier bytes moved by the second read of the same `(var, level)` —
    /// zero when the cache answers.
    pub repeat_read_bytes_io: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

/// One storage layout's cost for a small-window region refinement.
#[derive(Debug, Clone)]
pub struct RegionSample {
    pub label: &'static str,
    /// Chunks the refined delta level is stored in.
    pub chunks_total: usize,
    /// Chunks the window actually needed.
    pub chunks_read: usize,
    /// Tier bytes moved by the region refine (deterministic).
    pub bytes_read: u64,
    /// Tier bytes a full-domain refine of the same level moves — the
    /// denominator of the O(region) claim.
    pub level_bytes: u64,
    /// Decode-histogram samples taken during the region refine.
    pub decode_count: u64,
    /// Wall seconds spent in those decodes (host-noisy; indicative).
    pub decode_secs: f64,
    /// Ranged chunk fetches issued: one per chunk that moved.
    pub chunk_fetches: u64,
}

/// Everything `BENCH_read.json` records for one run.
#[derive(Debug, Clone)]
pub struct ReadBenchReport {
    pub dataset: String,
    pub var: String,
    pub vertices: usize,
    pub num_levels: u32,
    pub iters: usize,
    pub threads: usize,
    pub engines: Vec<EngineSample>,
    /// `serial` wall over `pipelined` wall — the before/after speedup.
    pub speedup: f64,
    pub cache: CacheSample,
    /// Small-window region refinement of a one-chunk (default) and a
    /// 16-chunk file: the bytes-moved gap is the O(region) win.
    pub region: Vec<RegionSample>,
    /// Latency histograms of the pipelined engine's run (write + all
    /// restore iterations). The `.sim` entries are deterministic at a
    /// fixed seed — `bench_guard` diffs their medians across commits.
    pub histograms: BTreeMap<String, HistogramStat>,
}

impl ReadBenchReport {
    pub fn engine(&self, label: &str) -> Option<&EngineSample> {
        self.engines.iter().find(|e| e.label == label)
    }

    pub fn to_json(&self) -> Value {
        let engines: Vec<Value> = self
            .engines
            .iter()
            .map(|e| {
                let mut o = BTreeMap::new();
                o.insert("label".into(), Value::Str(e.label.into()));
                o.insert("wall_secs".into(), Value::Float(e.wall_secs));
                o.insert("io_secs".into(), Value::Float(e.timing.io_secs));
                o.insert(
                    "decompress_secs".into(),
                    Value::Float(e.timing.decompress_secs),
                );
                o.insert("restore_secs".into(), Value::Float(e.timing.restore_secs));
                o.insert("elapsed_secs".into(), Value::Float(e.timing.elapsed_secs));
                Value::Obj(o)
            })
            .collect();
        let mut cache = BTreeMap::new();
        cache.insert(
            "first_read_bytes_io".into(),
            Value::Int(self.cache.first_read_bytes_io as i128),
        );
        cache.insert(
            "repeat_read_bytes_io".into(),
            Value::Int(self.cache.repeat_read_bytes_io as i128),
        );
        cache.insert(
            "cache_hits".into(),
            Value::Int(self.cache.cache_hits as i128),
        );
        cache.insert(
            "cache_misses".into(),
            Value::Int(self.cache.cache_misses as i128),
        );
        let region: Vec<Value> = self
            .region
            .iter()
            .map(|r| {
                let mut o = BTreeMap::new();
                o.insert("label".into(), Value::Str(r.label.into()));
                o.insert("chunks_total".into(), Value::Int(r.chunks_total as i128));
                o.insert("chunks_read".into(), Value::Int(r.chunks_read as i128));
                o.insert("bytes_read".into(), Value::Int(r.bytes_read as i128));
                o.insert("level_bytes".into(), Value::Int(r.level_bytes as i128));
                o.insert("decode_count".into(), Value::Int(r.decode_count as i128));
                o.insert("decode_secs".into(), Value::Float(r.decode_secs));
                o.insert("chunk_fetches".into(), Value::Int(r.chunk_fetches as i128));
                Value::Obj(o)
            })
            .collect();
        let mut top = BTreeMap::new();
        top.insert("bench".into(), Value::Str("read".into()));
        top.insert("dataset".into(), Value::Str(self.dataset.clone()));
        top.insert("var".into(), Value::Str(self.var.clone()));
        top.insert("vertices".into(), Value::Int(self.vertices as i128));
        top.insert("num_levels".into(), Value::Int(self.num_levels as i128));
        top.insert("iters".into(), Value::Int(self.iters as i128));
        top.insert("threads".into(), Value::Int(self.threads as i128));
        top.insert("engines".into(), Value::Arr(engines));
        top.insert(
            "speedup_serial_over_pipelined".into(),
            Value::Float(self.speedup),
        );
        top.insert("cache".into(), Value::Obj(cache));
        top.insert("region".into(), Value::Arr(region));
        top.insert(
            "histograms".into(),
            histsum::summaries_json(&self.histograms),
        );
        Value::Obj(top)
    }
}

/// Median full-restore wall clock for one engine configuration. Each
/// iteration opens a fresh reader (cold data path) with warmed metadata,
/// so the measurement covers fetch + decode + restore only.
fn sample_engine(
    ds: &Dataset,
    iters: usize,
    label: &'static str,
    config: CanopusConfig,
) -> (EngineSample, MetricsSnapshot) {
    let raw = (ds.data.len() * 8) as u64;
    let canopus = Canopus::new(titan_hierarchy(raw), config);
    canopus
        .write("bench.bp", ds.var, &ds.mesh, &ds.data)
        .expect("bench write");
    let mut runs: Vec<(f64, PhaseTiming)> = (0..iters.max(1))
        .map(|_| {
            let reader = canopus.open("bench.bp").expect("open");
            reader.warm_metadata(ds.var).expect("warm");
            let t = Instant::now();
            let out = reader.read_level(ds.var, 0).expect("restore");
            (t.elapsed().as_secs_f64(), out.timing)
        })
        .collect();
    runs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (wall_secs, timing) = runs[runs.len() / 2];
    (
        EngineSample {
            label,
            wall_secs,
            timing,
        },
        canopus.metrics().snapshot(),
    )
}

/// Cache behaviour: repeat read of the same `(var, level)` on one reader.
fn sample_cache(ds: &Dataset, config: CanopusConfig) -> CacheSample {
    let raw = (ds.data.len() * 8) as u64;
    let canopus = Canopus::new(titan_hierarchy(raw), config);
    canopus
        .write("cache.bp", ds.var, &ds.mesh, &ds.data)
        .expect("cache write");
    let reader = canopus.open("cache.bp").expect("open");
    reader.warm_metadata(ds.var).expect("warm");
    let bytes = canopus.metrics().counter(names::READ_BYTES_IO);
    let before = bytes.get();
    reader.read_level(ds.var, 0).expect("first read");
    let after_first = bytes.get();
    reader.read_level(ds.var, 0).expect("repeat read");
    let after_repeat = bytes.get();
    CacheSample {
        first_read_bytes_io: after_first - before,
        repeat_read_bytes_io: after_repeat - after_first,
        cache_hits: canopus.metrics().counter(names::READ_CACHE_HITS).get(),
        cache_misses: canopus.metrics().counter(names::READ_CACHE_MISSES).get(),
    }
}

/// Region refinement of a 1/8-domain window of a file written with
/// `delta_chunks` chunks per delta. Cache off so every
/// planned-and-needed chunk is a real fetch; bytes are deterministic
/// (simulated tiers, fixed Morton partition).
fn sample_region(
    ds: &Dataset,
    num_levels: u32,
    label: &'static str,
    delta_chunks: u32,
) -> RegionSample {
    use canopus_mesh::geometry::{Aabb, Point2};
    let raw = (ds.data.len() * 8) as u64;
    let config = CanopusConfig {
        refactor: RefactorConfig {
            num_levels,
            ..Default::default()
        },
        level_cache: 0,
        delta_chunks,
        ..Default::default()
    };
    let canopus = Canopus::new(titan_hierarchy(raw), config);
    canopus
        .write("region.bp", ds.var, &ds.mesh, &ds.data)
        .expect("region write");
    let bb = ds.mesh.aabb();
    let window = Aabb::from_points([
        bb.min,
        Point2::new(
            bb.min.x + (bb.max.x - bb.min.x) * 0.5,
            bb.min.y + (bb.max.y - bb.min.y) * 0.25,
        ),
    ]);

    let reader = canopus.open("region.bp").expect("open");
    reader.warm_metadata(ds.var).expect("warm");
    let base = reader.read_base(ds.var).expect("base");
    let snap0 = canopus.metrics().snapshot();
    let (_, stats) = reader
        .refine_region(ds.var, &base, window)
        .expect("region refine");
    let snap1 = canopus.metrics().snapshot();

    // Full-domain refine on a fresh reader: the level's total bytes.
    let full_reader = canopus.open("region.bp").expect("open full");
    let full_base = full_reader.read_base(ds.var).expect("base full");
    let (_, full_stats) = full_reader
        .refine_region(ds.var, &full_base, bb)
        .expect("full refine");

    let d0 = snap0.histogram(names::READ_DECODE_HIST);
    let d1 = snap1.histogram(names::READ_DECODE_HIST);
    RegionSample {
        label,
        chunks_total: stats.chunks_total,
        chunks_read: stats.chunks_read,
        bytes_read: stats.bytes_read,
        level_bytes: full_stats.bytes_read,
        decode_count: d1.count - d0.count,
        decode_secs: d1.sum_secs() - d0.sum_secs(),
        chunk_fetches: snap1.histogram(names::READ_CHUNK_FETCH_HIST).count
            - snap0.histogram(names::READ_CHUNK_FETCH_HIST).count,
    }
}

/// Run the full benchmark: both read engines plus the cache and region
/// sections, all on `num_levels` refactoring of `ds`.
pub fn read_bench(ds: &Dataset, num_levels: u32, iters: usize) -> ReadBenchReport {
    let base = CanopusConfig {
        refactor: RefactorConfig {
            num_levels,
            ..Default::default()
        },
        level_cache: 0,
        ..Default::default()
    };
    let (serial, _) = sample_engine(
        ds,
        iters,
        "serial",
        CanopusConfig {
            pipeline_depth: 0,
            ..base
        },
    );
    let (pipelined, pipelined_snap) = sample_engine(ds, iters, "pipelined", base);
    let speedup = serial.wall_secs / pipelined.wall_secs.max(f64::MIN_POSITIVE);
    let engines = vec![serial, pipelined];
    let cache = sample_cache(
        ds,
        CanopusConfig {
            refactor: RefactorConfig {
                num_levels,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let region = vec![
        sample_region(ds, num_levels, "chunks_1", 1),
        sample_region(ds, num_levels, "chunks_16", 16),
    ];
    ReadBenchReport {
        dataset: ds.name.to_string(),
        var: ds.var.to_string(),
        vertices: ds.mesh.num_vertices(),
        num_levels,
        iters,
        threads: std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(1),
        engines,
        speedup,
        cache,
        region,
        histograms: histsum::summaries(&pipelined_snap),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canopus_data::xgc1_dataset_sized;

    #[test]
    fn report_covers_engines_and_cache() {
        let ds = xgc1_dataset_sized(10, 50, 7);
        let r = read_bench(&ds, 3, 1);
        assert_eq!(r.engines.len(), 2);
        assert!(r.engine("serial").is_some());
        assert!(r.engine("pipelined").is_some());
        for e in &r.engines {
            assert!(e.wall_secs > 0.0, "{e:?}");
            assert!(e.timing.io_secs > 0.0, "{e:?}");
        }
        assert!(r.speedup > 0.0);
        // The decoded-level cache answers the repeat read: no tier I/O.
        assert!(r.cache.first_read_bytes_io > 0);
        assert_eq!(r.cache.repeat_read_bytes_io, 0);
        assert!(r.cache.cache_hits > 0);
        // Region scenario: the one-chunk file moves the whole level
        // for a 1/8-domain window; the 16-chunk file moves a strict
        // chunk-and-byte subset. Both go through ranged fetches.
        assert_eq!(r.region.len(), 2);
        let one = &r.region[0];
        let shard = &r.region[1];
        assert_eq!(one.label, "chunks_1");
        assert_eq!(shard.label, "chunks_16");
        assert_eq!(one.chunks_total, 1);
        assert_eq!(one.bytes_read, one.level_bytes);
        assert_eq!(one.chunk_fetches, 1, "the one chunk is one ranged read");
        assert_eq!(shard.chunks_total, 16);
        assert!(shard.chunks_read < shard.chunks_total, "{shard:?}");
        assert!(shard.bytes_read < shard.level_bytes, "{shard:?}");
        assert_eq!(shard.chunk_fetches, shard.chunks_read as u64);
        assert_eq!(shard.decode_count, shard.chunks_read as u64);
    }

    #[test]
    fn json_is_parseable_and_complete() {
        let ds = xgc1_dataset_sized(8, 40, 3);
        let r = read_bench(&ds, 2, 1);
        let text = r.to_json().to_pretty();
        let parsed = canopus_obs::json::parse(&text).expect("valid json");
        assert!(parsed.get("speedup_serial_over_pipelined").is_some());
        assert!(parsed.get("engines").is_some());
        assert!(parsed.get("cache").is_some());
        let region = parsed.get("region").expect("region section");
        match region {
            Value::Arr(entries) => {
                assert_eq!(entries.len(), 2);
                for e in entries {
                    assert!(e.get("bytes_read").is_some());
                    assert!(e.get("level_bytes").is_some());
                    assert!(e.get("decode_count").is_some());
                }
            }
            other => panic!("region must be an array, got {other:?}"),
        }
        // The histogram section carries the deterministic sim latencies
        // the bench guard diffs.
        let hists = parsed.get("histograms").expect("histograms section");
        let sim = hists
            .get(&names::tier_read_latency_sim(0))
            .expect("tier 0 sim read latency");
        assert!(sim.get("p50_secs").is_some());
        assert!(sim.get("count").is_some());
    }
}
