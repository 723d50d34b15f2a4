//! Pipelined-restore equivalence: the level walk (bounded prefetch +
//! parallel decode + eager restore) must be observationally identical to
//! a stepwise restore — the base, then one whole-domain `refine_region`
//! per level on the calling thread (`support::stepwise_restore`). Every
//! codec restores bit-for-bit the same values both ways; lossy codecs
//! stay inside their per-level error bound; region refinement and the
//! decoded-level cache change *when* work happens, never *what* the
//! reader returns.

mod support;

use canopus::config::RelativeCodec;
use canopus::read::CanopusReader;
use canopus::{Canopus, CanopusConfig, FaultPlan, ReadOutcome, RetryPolicy};
use canopus_data::{all_datasets_small, xgc1_dataset_sized, Dataset};
use canopus_obs::names;
use canopus_refactor::levels::RefactorConfig;
use canopus_storage::StorageHierarchy;
use std::sync::Arc;

fn written(ds: &Dataset, codec: RelativeCodec, levels: u32) -> Canopus {
    let raw = (ds.data.len() * 8) as u64;
    let canopus = Canopus::new(
        Arc::new(StorageHierarchy::titan_two_tier(raw / 4, raw * 64)),
        CanopusConfig {
            refactor: RefactorConfig {
                num_levels: levels,
                ..Default::default()
            },
            codec,
            ..Default::default()
        },
    );
    canopus
        .write("eq.bp", ds.var, &ds.mesh, &ds.data)
        .expect("write");
    canopus
}

/// `level` restored step by step over the same stored bytes: the
/// reference.
fn reference(canopus: &Canopus, ds: &Dataset, level: u32) -> ReadOutcome {
    support::stepwise_restore(canopus, "eq.bp", ds.var, level)
}

/// A reader with the cache disabled, so every read exercises the walk's
/// prefetch/decode/restore stages rather than a cached level.
fn pipelined_reader(canopus: &Canopus) -> CanopusReader {
    canopus.open("eq.bp").expect("open").with_level_cache(0)
}

fn bits(data: &[f64]) -> Vec<u64> {
    data.iter().map(|x| x.to_bits()).collect()
}

fn max_err(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

fn value_range(data: &[f64]) -> f64 {
    let lo = data.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    hi - lo
}

/// Lossless codecs: the walk must return bit-identical values and
/// meshes to the reference at every level, for hierarchies from 1 (base
/// only, the walk's empty-plan path) through 5 levels.
#[test]
fn lossless_restores_are_bit_identical_to_the_stepwise_reference() {
    let ds = xgc1_dataset_sized(16, 80, 11);
    for codec in [RelativeCodec::Raw, RelativeCodec::Fpc] {
        for levels in 1..=5u32 {
            let canopus = written(&ds, codec, levels);
            for level in 0..levels {
                let a = reference(&canopus, &ds, level);
                let b = pipelined_reader(&canopus)
                    .read_level(ds.var, level)
                    .expect("pipelined");
                assert_eq!(
                    bits(&a.data),
                    bits(&b.data),
                    "{codec:?} N={levels} level {level}: walk disagrees"
                );
                assert_eq!(a.mesh, b.mesh);
                assert_eq!(a.level, b.level);
            }
        }
    }
}

/// A walk over more blocks than the prefetch queue's bound (4) plus one
/// decode worker per core, so the queue can fill and the prefetcher
/// wait on it: the restore is unchanged.
#[test]
fn walks_longer_than_the_prefetch_queue_restore_identically() {
    let ds = xgc1_dataset_sized(24, 120, 13);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let raw = (ds.data.len() * 8) as u64;
    let canopus = Canopus::new(
        Arc::new(StorageHierarchy::titan_two_tier(raw / 4, raw * 64)),
        CanopusConfig {
            refactor: RefactorConfig {
                num_levels: 4,
                ..Default::default()
            },
            codec: RelativeCodec::Fpc,
            // Eight chunks a shard: `cores + 5` shard objects at level 0.
            delta_chunks: 8 * (cores as u32 + 5),
            ..Default::default()
        },
    );
    canopus
        .write("eq.bp", ds.var, &ds.mesh, &ds.data)
        .expect("write");
    let reader = pipelined_reader(&canopus);
    let var = reader.file().inq_var(ds.var).expect("var");
    let blocks: usize = (0..3).map(|l| var.delta_shards_to(l).len()).sum();
    assert!(blocks > 4 + cores, "{blocks} blocks for {cores} cores");
    let walked = reader.read_level(ds.var, 0).expect("walk");
    let want = reference(&canopus, &ds, 0);
    assert_eq!(bits(&walked.data), bits(&want.data));
    let peak = canopus
        .metrics()
        .gauge(names::READ_PREFETCH_DEPTH_PEAK)
        .get();
    assert!(peak >= 1, "the prefetcher queued ahead of the decoders");
}

/// A field large enough to cross the chunk-framing threshold, so the
/// pipelined engine's parallel decode stage handles multi-chunk streams.
#[test]
fn chunked_streams_restore_identically() {
    // 82 000 vertices: level 0's delta is longer than one tile, so framed.
    let ds = xgc1_dataset_sized(40, 2000, 5);
    assert!(ds.data.len() > canopus_refactor::TILE);
    let canopus = written(&ds, RelativeCodec::Fpc, 4);
    let a = reference(&canopus, &ds, 0);
    let b = pipelined_reader(&canopus)
        .read_level(ds.var, 0)
        .expect("pipelined");
    assert_eq!(
        bits(&a.data),
        bits(&b.data),
        "chunk-framed streams must decode the same"
    );
}

/// Lossy codecs: deterministic decode means the walk still agrees with
/// the reference exactly, inside the accumulated per-level error bound.
#[test]
fn lossy_restores_agree_and_respect_error_bounds() {
    let rel = 1e-5;
    for ds in all_datasets_small(29) {
        for codec in [
            RelativeCodec::ZfpLike { rel_tolerance: rel },
            RelativeCodec::SzLike {
                rel_error_bound: rel,
            },
        ] {
            let levels = 3u32;
            let canopus = written(&ds, codec, levels);
            let a = reference(&canopus, &ds, 0);
            let b = pipelined_reader(&canopus)
                .read_level(ds.var, 0)
                .expect("pipelined");
            assert_eq!(
                bits(&a.data),
                bits(&b.data),
                "{}: lossy decode is deterministic",
                ds.name
            );
            // Base + (levels-1) deltas, each within rel * range.
            let bound = levels as f64 * rel * value_range(&ds.data);
            let err = max_err(&b.data, &ds.data);
            assert!(err <= bound, "{}: err {err} > bound {bound}", ds.name);
        }
    }
}

/// Region refinement reads chunk subsets outside the walk; the reader's
/// cache configuration must not change what a window restores.
#[test]
fn region_refinement_is_cache_invariant() {
    let ds = xgc1_dataset_sized(16, 80, 17);
    let raw = (ds.data.len() * 8) as u64;
    let canopus = Canopus::new(
        Arc::new(StorageHierarchy::titan_two_tier(raw / 4, raw * 64)),
        CanopusConfig {
            refactor: RefactorConfig {
                num_levels: 3,
                ..Default::default()
            },
            codec: RelativeCodec::Raw,
            delta_chunks: 8,
            ..Default::default()
        },
    );
    canopus
        .write("eq.bp", ds.var, &ds.mesh, &ds.data)
        .expect("write");

    let window = {
        let bb = ds.mesh.aabb();
        let cx = (bb.min.x + bb.max.x) / 2.0;
        let cy = (bb.min.y + bb.max.y) / 2.0;
        let hx = (bb.max.x - bb.min.x) / 4.0;
        let hy = (bb.max.y - bb.min.y) / 4.0;
        canopus_mesh::geometry::Aabb::from_points([
            canopus_mesh::geometry::Point2::new(cx - hx, cy - hy),
            canopus_mesh::geometry::Point2::new(cx + hx, cy + hy),
        ])
    };

    let uncached = pipelined_reader(&canopus);
    let base_a = uncached.read_base(ds.var).expect("base");
    let (roi_a, stats_a) = uncached
        .refine_region(ds.var, &base_a, window)
        .expect("uncached region");

    let cached = canopus.open("eq.bp").expect("open"); // default cache
    cached.read_level(ds.var, 0).expect("warm the cache");
    let base_b = cached.read_base(ds.var).expect("base");
    let (roi_b, stats_b) = cached
        .refine_region(ds.var, &base_b, window)
        .expect("cached region");

    assert_eq!(roi_a.data, roi_b.data);
    assert_eq!(stats_a.chunks_read, stats_b.chunks_read);
    assert_eq!(stats_a.chunks_total, stats_b.chunks_total);
}

/// An explicitly disarmed fault plan — and a non-default retry budget —
/// is observationally invisible on the read side: the walk and the
/// stepwise reference restore the same bytes as the default
/// configuration at every level, nothing degrades, and no fault metric
/// moves.
#[test]
fn disarmed_fault_plan_restores_identically() {
    let ds = xgc1_dataset_sized(16, 80, 11);
    let levels = 4u32;
    let baseline = written(&ds, RelativeCodec::Fpc, levels);
    let raw = (ds.data.len() * 8) as u64;
    let disarmed = Canopus::new(
        Arc::new(StorageHierarchy::titan_two_tier(raw / 4, raw * 64)),
        CanopusConfig {
            refactor: RefactorConfig {
                num_levels: levels,
                ..Default::default()
            },
            codec: RelativeCodec::Fpc,
            fault: FaultPlan::none(),
            retry: RetryPolicy {
                max_attempts: 7,
                ..RetryPolicy::new()
            },
            ..Default::default()
        },
    );
    disarmed
        .write("eq.bp", ds.var, &ds.mesh, &ds.data)
        .expect("write");

    for level in 0..levels {
        let a = pipelined_reader(&baseline)
            .read_level(ds.var, level)
            .expect("baseline");
        let b = pipelined_reader(&disarmed)
            .read_level(ds.var, level)
            .expect("disarmed");
        let c = reference(&disarmed, &ds, level);
        assert_eq!(a.data, b.data, "level {level}");
        assert_eq!(b.data, c.data, "level {level}, stepwise");
        assert!(!b.degraded, "nothing to degrade without faults");
        assert_eq!(b.achieved_level, b.level);
    }
    let snap = disarmed.metrics().snapshot();
    for name in [
        names::READ_RETRIES,
        names::READ_FAULTS_INJECTED,
        names::READ_CHECKSUM_FAILURES,
        names::READ_DEGRADED_RESTORES,
    ] {
        assert_eq!(snap.counter(name), 0, "{name} must stay zero");
    }
}

/// Acceptance: the second read of a cached `(var, level)` performs zero
/// tier I/O and returns the same values as the cold read.
#[test]
fn cached_repeat_read_moves_zero_bytes_and_matches() {
    let ds = xgc1_dataset_sized(16, 80, 23);
    let canopus = written(&ds, RelativeCodec::Fpc, 4);
    let reader = canopus.open("eq.bp").expect("open"); // cache enabled
    let bytes = canopus.metrics().counter(names::READ_BYTES_IO);

    let before = bytes.get();
    let cold = reader.read_level(ds.var, 0).expect("cold read");
    assert!(bytes.get() > before, "cold read moves tier bytes");

    let after_cold = bytes.get();
    let warm = reader.read_level(ds.var, 0).expect("warm read");
    assert_eq!(
        bytes.get(),
        after_cold,
        "cached repeat read must perform zero tier I/O"
    );
    assert_eq!(cold.data, warm.data, "cache returns the restored values");
    assert!(canopus.metrics().counter(names::READ_CACHE_HITS).get() >= 1);
}
