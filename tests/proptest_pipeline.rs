//! Property-based integration tests over the whole pipeline.

use canopus::config::RelativeCodec;
use canopus::{Canopus, CanopusConfig};
use canopus_mesh::generators::{jitter_interior, rectangle_mesh};
use canopus_mesh::geometry::{Aabb, Point2};
use canopus_refactor::levels::RefactorConfig;
use canopus_storage::StorageHierarchy;
use proptest::prelude::*;
use std::sync::Arc;

/// Random smooth-ish field over a random jittered grid.
fn arb_case() -> impl Strategy<Value = (usize, usize, u64, f64, f64)> {
    (4usize..12, 4usize..12, 0u64..500, 0.5f64..20.0, 0.5f64..8.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the mesh, field and level count, the full pipeline
    /// restores L0 within an accumulated codec bound.
    #[test]
    fn pipeline_accuracy_contract((nx, ny, seed, amp, freq) in arb_case(), levels in 1u32..5) {
        let bb = Aabb::from_points([Point2::new(0.0, 0.0), Point2::new(1.0, 1.0)]);
        let mesh = jitter_interior(&rectangle_mesh(nx, ny, bb), 0.2, seed);
        let data: Vec<f64> = mesh
            .points()
            .iter()
            .map(|p| amp * ((p.x * freq).sin() + (p.y * freq * 0.7).cos()))
            .collect();
        let raw = (data.len() * 8) as u64;
        let rel = 1e-5;
        let canopus = Canopus::new(
            Arc::new(StorageHierarchy::titan_two_tier(raw, raw * 64)),
            CanopusConfig {
                refactor: RefactorConfig { num_levels: levels, ..Default::default() },
                codec: RelativeCodec::ZfpLike { rel_tolerance: rel },
                ..Default::default()
            },
        );
        canopus.write("p.bp", "v", &mesh, &data).unwrap();
        let reader = canopus.open("p.bp").unwrap();
        let out = reader.read_level("v", 0).unwrap();
        prop_assert_eq!(out.data.len(), data.len());

        let lo = data.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let bound = (levels as f64) * rel * (hi - lo).max(1e-9) + 1e-12;
        let max_err = out
            .data
            .iter()
            .zip(&data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        prop_assert!(max_err <= bound, "err {} > bound {}", max_err, bound);
    }

    /// Capacity is never exceeded on any tier, whatever the sizes.
    #[test]
    fn capacity_invariant((nx, ny, seed, amp, _freq) in arb_case(), shrink in 2u64..16) {
        let bb = Aabb::from_points([Point2::new(0.0, 0.0), Point2::new(1.0, 1.0)]);
        let mesh = jitter_interior(&rectangle_mesh(nx, ny, bb), 0.2, seed);
        let data: Vec<f64> = mesh.points().iter().map(|p| amp * p.x).collect();
        let raw = (data.len() * 8) as u64;
        let hierarchy = Arc::new(StorageHierarchy::titan_two_tier(raw / shrink, raw * 64));
        let canopus = Canopus::new(Arc::clone(&hierarchy), CanopusConfig::default());
        // Write may or may not succeed depending on capacity; either way
        // no tier may be over-full and no panic may occur.
        let _ = canopus.write("c.bp", "v", &mesh, &data);
        for t in 0..hierarchy.num_tiers() {
            let dev = hierarchy.tier_device(t).unwrap();
            prop_assert!(dev.used() <= dev.capacity());
        }
    }

    /// Progressive refinement is equivalent to direct read_level at every
    /// stop point.
    #[test]
    fn progressive_equals_direct((nx, ny, seed, amp, freq) in arb_case()) {
        let bb = Aabb::from_points([Point2::new(0.0, 0.0), Point2::new(1.0, 1.0)]);
        let mesh = jitter_interior(&rectangle_mesh(nx, ny, bb), 0.2, seed);
        let data: Vec<f64> = mesh
            .points()
            .iter()
            .map(|p| amp * (p.x * freq).sin() * (p.y * freq).cos())
            .collect();
        let raw = (data.len() * 8) as u64;
        let canopus = Canopus::new(
            Arc::new(StorageHierarchy::titan_two_tier(raw, raw * 64)),
            CanopusConfig {
                refactor: RefactorConfig { num_levels: 3, ..Default::default() },
                codec: RelativeCodec::Raw,
                ..Default::default()
            },
        );
        canopus.write("p.bp", "v", &mesh, &data).unwrap();
        let reader = canopus.open("p.bp").unwrap();
        let mut prog = reader.progressive("v").unwrap();
        loop {
            let direct = reader.read_level("v", prog.level()).unwrap();
            prop_assert_eq!(direct.data.as_slice(), prog.data());
            if prog.at_full_accuracy() {
                break;
            }
            prog.refine().unwrap();
        }
    }
}
