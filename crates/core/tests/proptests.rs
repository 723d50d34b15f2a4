//! Property-based tests for the core pipeline's newer surfaces: delta
//! chunking, region refinement, and metadata query pushdown.

mod support;

use canopus::config::RelativeCodec;
use canopus::{Canopus, CanopusConfig};
use canopus_mesh::generators::{jitter_interior, rectangle_mesh};
use canopus_mesh::geometry::{Aabb, Point2};
use canopus_refactor::levels::RefactorConfig;
use canopus_storage::StorageHierarchy;
use proptest::prelude::*;
use std::sync::Arc;

fn build_layout(
    nx: usize,
    ny: usize,
    seed: u64,
    chunks: u32,
    amp: f64,
    codec: RelativeCodec,
) -> (Canopus, canopus_mesh::TriMesh, Vec<f64>) {
    let bb = Aabb::from_points([Point2::new(0.0, 0.0), Point2::new(1.0, 1.0)]);
    let mesh = jitter_interior(&rectangle_mesh(nx, ny, bb), 0.2, seed);
    let data: Vec<f64> = mesh
        .points()
        .iter()
        .map(|p| amp * ((p.x * 8.0).sin() + (p.y * 6.0).cos()))
        .collect();
    let raw = (data.len() * 8) as u64;
    let canopus = Canopus::new(
        Arc::new(StorageHierarchy::titan_two_tier(raw, raw * 64)),
        CanopusConfig {
            refactor: RefactorConfig {
                num_levels: 3,
                ..Default::default()
            },
            codec,
            delta_chunks: chunks,
            ..Default::default()
        },
    );
    canopus.write("p.bp", "v", &mesh, &data).unwrap();
    (canopus, mesh, data)
}

fn build(
    nx: usize,
    ny: usize,
    seed: u64,
    chunks: u32,
    amp: f64,
) -> (Canopus, canopus_mesh::TriMesh, Vec<f64>) {
    build_layout(nx, ny, seed, chunks, amp, RelativeCodec::Raw)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any chunk count restores identically to the one-chunk default.
    #[test]
    fn chunking_is_transparent_to_full_reads(
        nx in 5usize..12,
        ny in 5usize..12,
        seed in 0u64..200,
        chunks in 1u32..20,
    ) {
        let (chunked, _, _) = build(nx, ny, seed, chunks, 3.0);
        let (plain, _, data) = build(nx, ny, seed, 1, 3.0);
        let a = chunked.open("p.bp").unwrap().read_level("v", 0).unwrap();
        let b = plain.open("p.bp").unwrap().read_level("v", 0).unwrap();
        prop_assert_eq!(&a.data, &b.data);
        let max_err = a
            .data
            .iter()
            .zip(&data)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f64, f64::max);
        prop_assert!(max_err < 1e-12);
    }

    /// A full-domain region refinement equals refine_once exactly.
    #[test]
    fn full_region_equals_full_refinement(
        nx in 5usize..12,
        ny in 5usize..12,
        seed in 0u64..200,
        chunks in 1u32..16,
    ) {
        let (canopus, mesh, _) = build(nx, ny, seed, chunks, 2.0);
        let reader = canopus.open("p.bp").unwrap();
        let base = reader.read_base("v").unwrap();
        let (full, _) = reader.refine_once("v", &base).unwrap();
        let (roi, stats) = reader
            .refine_region("v", &base, mesh.aabb())
            .unwrap();
        prop_assert_eq!(stats.chunks_read, stats.chunks_total);
        prop_assert_eq!(roi.data, full.data);
    }

    /// Region refinement is exact for every vertex inside the window.
    #[test]
    fn region_vertices_are_exact(
        seed in 0u64..200,
        cx in 0.2f64..0.8,
        cy in 0.2f64..0.8,
        half in 0.05f64..0.3,
    ) {
        let (canopus, _, _) = build(10, 10, seed, 8, 5.0);
        let reader = canopus.open("p.bp").unwrap();
        let base = reader.read_base("v").unwrap();
        let window = Aabb::from_points([
            Point2::new(cx - half, cy - half),
            Point2::new(cx + half, cy + half),
        ]);
        let (full, _) = reader.refine_once("v", &base).unwrap();
        let (roi, _) = reader.refine_region("v", &base, window).unwrap();
        for (v, p) in roi.mesh.points().iter().enumerate() {
            if window.contains(*p) {
                prop_assert_eq!(roi.data[v], full.data[v], "vertex {} at {:?}", v, p);
            }
        }
    }

    /// The level walk returns exactly what a stepwise restore returns,
    /// for any mesh, chunking and target level.
    #[test]
    fn walk_matches_the_stepwise_reference(
        nx in 5usize..12,
        ny in 5usize..12,
        seed in 0u64..200,
        chunks in 1u32..16,
        level in 0u32..3,
    ) {
        let (canopus, _, _) = build(nx, ny, seed, chunks, 4.0);
        let a = support::stepwise_restore(&canopus, "p.bp", "v", level);
        let walker = canopus.open("p.bp").unwrap().with_level_cache(0);
        let b = walker.read_level("v", level).unwrap();
        prop_assert_eq!(a.data, b.data);
        prop_assert_eq!(a.level, b.level);
        prop_assert_eq!(a.mesh, b.mesh);
    }

    /// One layout, any chunk count: files with 1, 4 and 16 chunks per
    /// delta restore every level — bit-identically to the one-chunk
    /// reference under `Raw`/`Fpc`, and within the codec bound under
    /// `ZfpLike`/`SzLike`, whose streams depend on how the values are
    /// split — and the walk gives the stepwise restore's bits on every
    /// file. A region refinement plans the file's whole chunk
    /// population.
    #[test]
    fn every_chunk_count_restores_every_level(
        nx in 5usize..12,
        ny in 5usize..12,
        seed in 0u64..200,
        codec_sel in 0u8..4,
        cx in 0.2f64..0.8,
        cy in 0.2f64..0.8,
        half in 0.05f64..0.4,
    ) {
        let (codec, rel) = match codec_sel {
            0 => (RelativeCodec::Raw, 0.0),
            1 => (RelativeCodec::Fpc, 0.0),
            2 => (RelativeCodec::ZfpLike { rel_tolerance: 1e-6 }, 1e-6),
            _ => (RelativeCodec::SzLike { rel_error_bound: 1e-4 }, 1e-4),
        };
        let (reference, _, data) = build(nx, ny, seed, 1, 3.0);
        let range = canopus_mesh::FieldStats::of(&data).range();
        // The base and each delta add at most one codec bound.
        let bound = 3.0 * rel * range;
        let window = Aabb::from_points([
            Point2::new(cx - half, cy - half),
            Point2::new(cx + half, cy + half),
        ]);
        for chunks in [1u32, 4, 16] {
            let (canopus, _, _) = build_layout(nx, ny, seed, chunks, 3.0, codec);
            let reader = canopus.open("p.bp").unwrap().with_level_cache(0);
            for level in 0..3u32 {
                let want = support::stepwise_restore(&reference, "p.bp", "v", level);
                let got = reader.read_level("v", level).unwrap();
                let stepwise = support::stepwise_restore(&canopus, "p.bp", "v", level);
                prop_assert_eq!(got.level, level);
                prop_assert_eq!(&got.data, &stepwise.data, "k={} level={}", chunks, level);
                prop_assert_eq!(got.data.len(), want.data.len());
                let max_err = got
                    .data
                    .iter()
                    .zip(want.data.iter())
                    .map(|(x, y)| (x - y).abs())
                    .fold(0.0f64, f64::max);
                prop_assert!(
                    max_err <= bound,
                    "k={} level={}: err {} > {}",
                    chunks, level, max_err, bound
                );
            }
            let reader = canopus.open("p.bp").unwrap();
            let base = reader.read_base("v").unwrap();
            let (roi, stats) = reader.refine_region("v", &base, window).unwrap();
            // The writer never makes more chunks than vertices.
            let expect = (chunks as usize).min(roi.mesh.num_vertices());
            prop_assert_eq!(stats.chunks_total, expect);
        }
    }

    /// Metadata bounds always contain the restored data at every level —
    /// the query pushdown can never produce a false negative.
    #[test]
    fn value_bounds_never_exclude_actual_values(
        nx in 5usize..12,
        ny in 5usize..12,
        seed in 0u64..200,
        amp in 0.1f64..100.0,
    ) {
        let (canopus, _, _) = build(nx, ny, seed, 1, amp);
        let reader = canopus.open("p.bp").unwrap();
        for level in 0..3u32 {
            let (lo, hi) = reader.value_bounds("v", level).unwrap();
            let out = reader.read_level("v", level).unwrap();
            for &x in out.data.iter() {
                prop_assert!(x >= lo - 1e-9 && x <= hi + 1e-9,
                    "level {}: value {} outside [{}, {}]", level, x, lo, hi);
            }
            // query_range must agree with the bounds.
            prop_assert!(reader.query_range("v", level, lo, hi).unwrap());
            prop_assert!(!reader.query_range("v", level, hi + 1.0, hi + 2.0).unwrap());
        }
    }
}
