//! Integration tests of placement across deep hierarchies and
//! capacity-driven bypass behavior (paper §III-D).

use canopus::{Canopus, CanopusConfig};
use canopus_data::genasis_dataset_sized;
use canopus_refactor::levels::RefactorConfig;
use canopus_storage::{ProductKind, StorageHierarchy, TierSpec};
use std::sync::Arc;

fn dataset() -> canopus_data::Dataset {
    genasis_dataset_sized(24, 72, 7)
}

#[test]
fn four_tier_placement_spreads_base_to_fastest() {
    let ds = dataset();
    let raw = (ds.data.len() * 8) as u64;
    let hierarchy = Arc::new(StorageHierarchy::deep_four_tier(
        raw / 6,
        raw,
        raw * 8,
        raw * 64,
    ));
    let canopus = Canopus::new(
        Arc::clone(&hierarchy),
        CanopusConfig {
            refactor: RefactorConfig {
                num_levels: 4,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let report = canopus
        .write("deep.bp", ds.var, &ds.mesh, &ds.data)
        .expect("write");

    let tier_of = |kind: ProductKind| {
        report
            .products
            .iter()
            .find(|p| p.kind == kind)
            .map(|p| p.tier)
            .expect("product placed")
    };
    let base_tier = tier_of(ProductKind::Base { level: 3 });
    let d2 = tier_of(ProductKind::DeltaShard {
        finer: 2,
        coarser: 3,
        shard: 0,
    });
    let d1 = tier_of(ProductKind::DeltaShard {
        finer: 1,
        coarser: 2,
        shard: 0,
    });
    let d0 = tier_of(ProductKind::DeltaShard {
        finer: 0,
        coarser: 1,
        shard: 0,
    });
    assert_eq!(base_tier, 0, "base goes to the fastest tier");
    assert!(base_tier <= d2 && d2 <= d1 && d1 <= d0, "monotone spread");
    assert!(d0 >= 2, "finest delta lands low in the pyramid");
}

#[test]
fn full_fast_tier_is_bypassed_not_fatal() {
    let ds = dataset();
    let raw = (ds.data.len() * 8) as u64;
    // Fast tier can hold only a few hundred bytes: everything bypasses.
    let hierarchy = Arc::new(StorageHierarchy::new(vec![
        TierSpec::new("tiny", 256, 1e9, 1e9, 0.0),
        TierSpec::new("big", raw * 64, 1e6, 1e6, 1e-3),
    ]));
    let canopus = Canopus::new(Arc::clone(&hierarchy), CanopusConfig::default());
    let report = canopus
        .write("b.bp", ds.var, &ds.mesh, &ds.data)
        .expect("write bypasses");
    for p in &report.products {
        assert_eq!(p.tier, 1, "{} must bypass the tiny tier", p.key);
    }
    // And reading back still works.
    let reader = canopus.open("b.bp").expect("open");
    assert_eq!(
        reader.read_level(ds.var, 0).expect("read").data.len(),
        ds.data.len()
    );
}

#[test]
fn no_tier_ever_exceeds_capacity() {
    let ds = dataset();
    let raw = (ds.data.len() * 8) as u64;
    let hierarchy = Arc::new(StorageHierarchy::deep_four_tier(
        raw / 8,
        raw / 2,
        raw * 4,
        raw * 64,
    ));
    let canopus = Canopus::new(Arc::clone(&hierarchy), CanopusConfig::default());
    canopus
        .write("cap.bp", ds.var, &ds.mesh, &ds.data)
        .expect("write");
    for t in 0..hierarchy.num_tiers() {
        let dev = hierarchy.tier_device(t).expect("tier");
        assert!(
            dev.used() <= dev.capacity(),
            "tier {t} over capacity: {} > {}",
            dev.used(),
            dev.capacity()
        );
    }
}

#[test]
fn placement_failure_reports_cleanly_when_everything_is_full() {
    let ds = dataset();
    let hierarchy = Arc::new(StorageHierarchy::new(vec![TierSpec::new(
        "microscopic",
        128,
        1e9,
        1e9,
        0.0,
    )]));
    let canopus = Canopus::new(hierarchy, CanopusConfig::default());
    let err = canopus
        .write("fail.bp", ds.var, &ds.mesh, &ds.data)
        .expect_err("cannot fit");
    let msg = format!("{err}");
    assert!(
        msg.contains("placement") || msg.contains("room") || msg.contains("Placement"),
        "unexpected error: {msg}"
    );
}

#[test]
fn simulated_clock_accumulates_over_campaign() {
    let ds = dataset();
    let raw = (ds.data.len() * 8) as u64;
    let hierarchy = Arc::new(StorageHierarchy::titan_two_tier(raw / 4, raw * 256));
    let canopus = Canopus::new(Arc::clone(&hierarchy), CanopusConfig::default());
    // Write several "timesteps" as separate files; the clock must grow
    // with each.
    let mut last = 0.0;
    for step in 0..3 {
        canopus
            .write(&format!("step{step}.bp"), ds.var, &ds.mesh, &ds.data)
            .expect("write timestep");
        let now = hierarchy.clock().now().seconds();
        assert!(now > last, "clock must advance per timestep");
        last = now;
    }
    // Reads advance it further.
    let reader = canopus.open("step1.bp").expect("open");
    reader.read_level(ds.var, 0).expect("read");
    assert!(hierarchy.clock().now().seconds() > last);
}

#[test]
fn tier_stats_reflect_read_traffic_distribution() {
    let ds = dataset();
    let raw = (ds.data.len() * 8) as u64;
    let hierarchy = Arc::new(StorageHierarchy::titan_two_tier(raw / 4, raw * 64));
    let canopus = Canopus::new(Arc::clone(&hierarchy), CanopusConfig::default());
    canopus
        .write("t.bp", ds.var, &ds.mesh, &ds.data)
        .expect("write");
    let reader = canopus.open("t.bp").expect("open");
    reader.warm_metadata(ds.var).expect("warm");

    let before = (
        hierarchy.tier_stats(0).unwrap().bytes_read,
        hierarchy.tier_stats(1).unwrap().bytes_read,
    );
    reader.read_level(ds.var, 0).expect("full restore");
    let after = (
        hierarchy.tier_stats(0).unwrap().bytes_read,
        hierarchy.tier_stats(1).unwrap().bytes_read,
    );
    let fast_read = after.0 - before.0;
    let slow_read = after.1 - before.1;
    assert!(fast_read > 0, "base comes from the fast tier");
    assert!(slow_read > 0, "deltas come from the slow tier");
    assert!(
        slow_read > fast_read,
        "deltas carry more bytes than the base ({slow_read} vs {fast_read})"
    );
}
