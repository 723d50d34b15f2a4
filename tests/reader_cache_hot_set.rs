//! The hot set lives in the readers' decoded-level caches; nothing moves
//! an object after placement. A region step that refines a level stored
//! as one chunk, from a level-exact field, over a region that touches
//! that chunk, is a full refinement, so a reader already holding the
//! refined level answers it from its cache. A served hot mix therefore
//! stops reading the slow tier once each file's levels are held, while
//! every object stays on the tier placement gave it. A step from a
//! mixed-accuracy field, and a region that misses the mesh, are still
//! computed.

mod support;

use canopus::config::RelativeCodec;
use canopus::{
    Canopus, CanopusConfig, CanopusService, FaultPlan, RegionStats, ServeRequest, ServeResponse,
};
use canopus_adios::store::block_key;
use canopus_data::{xgc1_dataset_sized, Dataset};
use canopus_mesh::geometry::{Aabb, Point2};
use canopus_refactor::levels::RefactorConfig;
use canopus_storage::{ProductKind, StorageHierarchy};
use std::sync::Arc;

const LEVELS: u32 = 4;
/// The slow tier of the Titan-like hierarchy (Lustre).
const SLOW: usize = 1;

fn file(i: usize) -> String {
    format!("hot{i}.bp")
}

/// `files` copies of one XGC1 variable on a Titan-like hierarchy whose
/// fast tier holds a quarter of one file's raw values, as the benchmark
/// calibrates it: the deltas go to Lustre, and the bases fill the fast
/// tier and then spill. Returns the engine and every product placed.
fn engine(ds: &Dataset, files: usize) -> (Canopus, Vec<(String, usize)>) {
    engine_chunked(ds, files, 1)
}

/// [`engine`] with every delta stored in `chunks` spatial chunks.
fn engine_chunked(ds: &Dataset, files: usize, chunks: u32) -> (Canopus, Vec<(String, usize)>) {
    let raw = (ds.data.len() * 8) as u64;
    let canopus = Canopus::new(
        Arc::new(StorageHierarchy::titan_two_tier(raw / 4, raw * 64)),
        CanopusConfig {
            refactor: RefactorConfig {
                num_levels: LEVELS,
                ..Default::default()
            },
            codec: RelativeCodec::Raw,
            delta_chunks: chunks,
            serve_workers: 2,
            ..Default::default()
        },
    );
    let mut placed = Vec::new();
    for i in 0..files {
        let report = canopus
            .write(&file(i), ds.var, &ds.mesh, &ds.data)
            .expect("write");
        for p in report.products {
            assert!(
                !matches!(p.kind, ProductKind::DeltaShard { .. }) || p.tier == SLOW,
                "{} is a delta, placed on Lustre",
                p.key
            );
            placed.push((p.key, p.tier));
        }
    }
    (canopus, placed)
}

/// Bytes read so far from every tier together, and from the slow one.
fn tier_bytes_read(h: &StorageHierarchy) -> (u64, u64) {
    let read = |t| h.tier_stats(t).expect("tier").bytes_read;
    ((0..h.num_tiers()).map(read).sum(), read(SLOW))
}

/// One of four quadrant windows of the dataset's bounding box.
fn quadrant(ds: &Dataset, which: usize) -> Aabb {
    let bb = ds.mesh.aabb();
    let (cx, cy) = ((bb.min.x + bb.max.x) / 2.0, (bb.min.y + bb.max.y) / 2.0);
    let (x0, y0) = match which % 4 {
        0 => (bb.min.x, bb.min.y),
        1 => (cx, bb.min.y),
        2 => (bb.min.x, cy),
        _ => (cx, cy),
    };
    Aabb::from_points([
        Point2::new(x0, y0),
        Point2::new(x0 + (cx - bb.min.x), y0 + (cy - bb.min.y)),
    ])
}

/// A window far outside the mesh: it intersects no chunk.
fn nowhere() -> Aabb {
    Aabb::from_points([Point2::new(1e6, 1e6), Point2::new(1e6 + 1.0, 1e6 + 1.0)])
}

fn serve(service: &CanopusService, request: ServeRequest) -> ServeResponse {
    service
        .submit(request)
        .expect("submit")
        .wait()
        .expect("served")
}

/// Request `i` of a phase: 60% region windows, 25% levels, 15% bases.
fn mixed_request(ds: &Dataset, file: String, i: usize) -> ServeRequest {
    let var = ds.var.to_string();
    match i % 20 {
        0..=11 => ServeRequest::Region {
            file,
            var,
            region: quadrant(ds, i / 3),
        },
        12..=16 => ServeRequest::Level {
            file,
            var,
            level: (i as u32 / 2) % LEVELS,
        },
        _ => ServeRequest::Base { file, var },
    }
}

/// Two closed-loop clients drive `phases` phases of a hot mix over
/// `files` files: in phase `p`, nine requests in ten go to the hot pair
/// `p, p + 1` and the tenth to another file, so the hot set moves every
/// phase. Returns the region stats of every served region request.
fn hot_mix(
    service: &CanopusService,
    ds: &Dataset,
    files: usize,
    phases: usize,
) -> Vec<RegionStats> {
    let mut stats = Vec::new();
    for p in 0..phases {
        let served: Vec<Vec<RegionStats>> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..2)
                .map(|c| {
                    scope.spawn(move || {
                        (0..20)
                            .filter_map(|i| {
                                let f = match i % 10 {
                                    9 => p + 2 + c,
                                    _ => p + (i + c) % 2,
                                };
                                let request = mixed_request(ds, file(f % files), i + 20 * c);
                                serve(service, request).region_stats
                            })
                            .collect()
                    })
                })
                .collect();
            clients
                .into_iter()
                .map(|h| h.join().expect("client"))
                .collect()
        });
        stats.extend(served.into_iter().flatten());
    }
    stats
}

#[test]
fn a_served_region_after_a_level_request_of_the_same_file_moves_no_tier_bytes() {
    let ds = xgc1_dataset_sized(16, 80, 21);
    let (canopus, _) = engine(&ds, 1);
    let canopus = Arc::new(canopus);
    let service = CanopusService::start(Arc::clone(&canopus));
    let level = serve(
        &service,
        ServeRequest::Level {
            file: file(0),
            var: ds.var.to_string(),
            level: LEVELS - 2,
        },
    );

    let before = tier_bytes_read(canopus.hierarchy());
    let region = serve(
        &service,
        ServeRequest::Region {
            file: file(0),
            var: ds.var.to_string(),
            region: quadrant(&ds, 1),
        },
    );
    assert_eq!(
        tier_bytes_read(canopus.hierarchy()),
        before,
        "the level cache answered the region step"
    );
    assert_eq!(
        region.region_stats,
        Some(RegionStats {
            chunks_total: 1,
            chunks_read: 1,
            chunks_cached: 1,
            bytes_read: 0,
            exact_vertices: level.outcome.data.len(),
        })
    );
    assert!(region.outcome.level_exact);
    assert_eq!(region.outcome.level, LEVELS - 2);
    assert_eq!(region.outcome.data, level.outcome.data);
}

#[test]
fn a_shifting_hot_set_stops_reading_lustre_after_each_files_first_touches() {
    const FILES: usize = 4;
    let ds = xgc1_dataset_sized(16, 80, 22);
    let (canopus, _) = engine(&ds, FILES);
    let canopus = Arc::new(canopus);
    let service = CanopusService::start(Arc::clone(&canopus));

    // First touches: a full restore holds every level of the file, and
    // a request for each level completes that level's mesh.
    for f in 0..FILES {
        for level in 0..LEVELS {
            serve(
                &service,
                ServeRequest::Level {
                    file: file(f),
                    var: ds.var.to_string(),
                    level,
                },
            );
        }
    }
    let (_, slow) = tier_bytes_read(canopus.hierarchy());
    assert!(slow > 0, "the first touches read the deltas from Lustre");

    let regions = hot_mix(&service, &ds, FILES, 2 * FILES);
    assert!(regions.len() >= 8 * FILES, "{} region steps", regions.len());
    for stats in &regions {
        assert_eq!((stats.chunks_cached, stats.bytes_read), (1, 0), "{stats:?}");
    }
    assert_eq!(
        tier_bytes_read(canopus.hierarchy()).1,
        slow,
        "no Lustre read once the hot set moves between held files"
    );
}

#[test]
fn a_step_from_a_mixed_field_is_computed_not_answered_from_the_cache() {
    let ds = xgc1_dataset_sized(16, 80, 23);
    let (canopus, _) = engine(&ds, 1);
    let reader = canopus.open(&file(0)).expect("open");
    reader.read_level(ds.var, 0).expect("every level cached");
    let canonical = reader.read_level(ds.var, LEVELS - 3).expect("cached");

    // An estimate-only step leaves a mixed field one level down.
    let base = reader.read_base(ds.var).expect("base");
    let (mixed, _) = reader
        .refine_region(ds.var, &base, nowhere())
        .expect("estimate-only step");
    assert!(!mixed.level_exact);

    let (step, stats) = reader
        .refine_region(ds.var, &mixed, support::whole_domain())
        .expect("step from the mixed field");
    assert_eq!(stats.chunks_cached, 0, "computed: {stats:?}");
    assert!(stats.bytes_read > 0, "the delta is fetched: {stats:?}");
    assert!(!step.level_exact, "the mix is inherited");
    assert_ne!(step.data, canonical.data, "not the canonical level");

    // The same two steps on a reader with no cache give the same bits.
    let uncached = canopus.open(&file(0)).expect("open").with_level_cache(0);
    let base = uncached.read_base(ds.var).expect("base");
    let (mixed, _) = uncached.refine_region(ds.var, &base, nowhere()).unwrap();
    let (oracle, _) = uncached
        .refine_region(ds.var, &mixed, support::whole_domain())
        .unwrap();
    assert_eq!(step.data, oracle.data);
}

#[test]
fn a_region_that_misses_the_mesh_stays_estimate_only_while_the_level_is_cached() {
    let ds = xgc1_dataset_sized(16, 80, 24);
    let (canopus, _) = engine(&ds, 1);
    let reader = canopus.open(&file(0)).expect("open");
    let cached = reader.read_level(ds.var, LEVELS - 2).expect("restore");
    let base = reader.read_base(ds.var).expect("base");

    let (estimate, stats) = reader
        .refine_region(ds.var, &base, nowhere())
        .expect("estimate-only step");
    assert_eq!(
        stats,
        RegionStats {
            chunks_total: 1,
            ..RegionStats::default()
        }
    );
    assert!(!estimate.level_exact);
    assert_eq!(estimate.level, LEVELS - 2);
    assert_ne!(estimate.data, cached.data, "the estimate, not the level");

    let uncached = canopus.open(&file(0)).expect("open").with_level_cache(0);
    let base = uncached.read_base(ds.var).expect("base");
    let (oracle, _) = uncached.refine_region(ds.var, &base, nowhere()).unwrap();
    assert_eq!(estimate.data, oracle.data);
}

#[test]
fn every_object_keeps_the_tier_placement_gave_it_through_a_served_hot_mix() {
    const FILES: usize = 6;
    let ds = xgc1_dataset_sized(16, 80, 25);
    let (canopus, placed) = engine(&ds, FILES);
    let h = canopus.hierarchy();
    let base_on = |i: usize| {
        let base = block_key(&file(i), ds.var, ProductKind::Base { level: LEVELS - 1 });
        placed
            .iter()
            .find(|(key, _)| *key == base)
            .map(|&(_, tier)| tier)
    };
    assert_eq!(base_on(0), Some(0), "the first base is on the fast tier");
    assert_eq!(
        base_on(FILES - 1),
        Some(SLOW),
        "the fast tier is full: the last base spilled to Lustre"
    );
    let used: Vec<(u64, usize)> = (0..h.num_tiers())
        .map(|t| {
            let d = h.tier_device(t).expect("tier");
            (d.used(), d.len())
        })
        .collect();

    let canopus = Arc::new(canopus);
    let service = CanopusService::start(Arc::clone(&canopus));
    let regions = hot_mix(&service, &ds, FILES, 2 * FILES);
    assert!(!regions.is_empty());
    drop(service);

    let h = canopus.hierarchy();
    for (key, tier) in &placed {
        assert_eq!(h.find(key).expect("stored"), *tier, "{key} stayed put");
    }
    for (t, &(bytes, objects)) in used.iter().enumerate() {
        let d = h.tier_device(t).expect("tier");
        assert_eq!((d.used(), d.len()), (bytes, objects), "tier {t}");
    }
}

#[test]
fn a_warm_reader_zooms_to_full_accuracy_through_region_steps_without_tier_io() {
    let ds = xgc1_dataset_sized(16, 80, 26);
    let (canopus, _) = engine(&ds, 1);
    let reader = canopus.open(&file(0)).expect("open");
    let held: Vec<_> = (0..LEVELS)
        .map(|l| reader.read_level(ds.var, l).expect("restore"))
        .collect();

    let before = tier_bytes_read(canopus.hierarchy());
    let mut current = reader.read_base(ds.var).expect("base");
    for (step, window) in (0..LEVELS - 1).rev().zip(0..) {
        let (next, stats) = reader
            .refine_region(ds.var, &current, quadrant(&ds, window))
            .expect("region step");
        assert_eq!(
            (next.level, stats.chunks_cached, stats.bytes_read),
            (step, 1, 0)
        );
        assert!(next.level_exact);
        assert_eq!(next.data, held[step as usize].data, "level {step}");
        current = next;
    }
    assert_eq!(
        tier_bytes_read(canopus.hierarchy()),
        before,
        "every step was a full refinement the level cache held"
    );
}

#[test]
fn a_level_in_several_chunks_is_still_planned_from_its_chunks_while_cached() {
    const CHUNKS: u32 = 8;
    let ds = xgc1_dataset_sized(16, 80, 27);
    let (canopus, _) = engine_chunked(&ds, 1, CHUNKS);
    let reader = canopus.open(&file(0)).expect("open");
    let cached = reader.read_level(ds.var, LEVELS - 2).expect("restore");
    let base = reader.read_base(ds.var).expect("base");

    // A quadrant of the annulus: a strict subset of the chunks.
    let window = Aabb::from_points([Point2::new(0.0, 0.0), Point2::new(1.1, 1.1)]);
    let (roi, stats) = reader
        .refine_region(ds.var, &base, window)
        .expect("region step");
    assert_eq!(stats.chunks_total, CHUNKS as usize);
    assert!(stats.chunks_read < stats.chunks_total, "{stats:?}");
    assert_eq!(stats.chunks_cached, 0, "no chunk was decoded before");
    assert!(stats.bytes_read > 0, "the window's chunks are fetched");
    assert!(!roi.level_exact, "a partial step is mixed");
    assert_ne!(roi.data, cached.data, "not the cached level");
}

#[test]
fn a_held_level_answers_a_region_step_while_the_delta_tier_is_down() {
    let ds = xgc1_dataset_sized(16, 80, 28);
    let (canopus, _) = engine(&ds, 1);
    let warm = canopus.open(&file(0)).expect("open");
    let cold = canopus.open(&file(0)).expect("open");
    let level = warm.read_level(ds.var, LEVELS - 2).expect("restore");
    let base = warm.read_base(ds.var).expect("base");
    let cold_base = cold
        .read_base(ds.var)
        .expect("the base is on the fast tier");

    canopus
        .hierarchy()
        .set_fault_plan(
            SLOW,
            FaultPlan {
                down: Some((0, u64::MAX)),
                ..FaultPlan::none()
            },
        )
        .expect("the slow tier exists");
    let (roi, stats) = warm
        .refine_region(ds.var, &base, quadrant(&ds, 2))
        .expect("the held level needs no tier");
    assert_eq!(stats.chunks_cached, 1);
    assert_eq!(roi.data, level.data);
    assert!(
        cold.refine_region(ds.var, &cold_base, quadrant(&ds, 2))
            .is_err(),
        "a reader without the level must fetch the delta from the down tier"
    );
}
