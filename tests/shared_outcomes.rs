//! The sharing contract of restored levels: a level answered from the
//! reader's caches is handed out as references to the arrays the caches
//! hold — one allocation from the parser to the caller — and sharing is
//! never observable except as speed: what a caller does with its outcome
//! cannot change what the next caller is served, and an outcome outlives
//! the cache entry, the reader and the engine it came from.

mod support;

use canopus::config::RelativeCodec;
use canopus::read::ReadOutcome;
use canopus::{Canopus, CanopusConfig, CanopusService, ServeRequest};
use canopus_data::{xgc1_dataset_sized, Dataset};
use canopus_mesh::geometry::{Aabb, Point2};
use canopus_refactor::levels::RefactorConfig;
use canopus_storage::StorageHierarchy;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Barrier};

/// Tallies the bytes this thread asks the allocator for (the
/// `crates/compress/tests/zero_alloc.rs` pattern, counting bytes).
struct CountingAlloc;

thread_local! {
    static ALLOC_BYTES: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.with(|c| c.set(c.get() + layout.size()));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_BYTES.with(|c| c.set(c.get() + new_size));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocated_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOC_BYTES.with(Cell::get);
    let out = f();
    (out, ALLOC_BYTES.with(Cell::get) - before)
}

const FILE: &str = "shared.bp";
const LEVELS: u32 = 4;

fn dataset() -> Dataset {
    xgc1_dataset_sized(32, 320, 11)
}

/// A lossless four-level file of `ds`, its deltas in `delta_chunks`
/// chunks, behind `level_cache` cache entries.
fn engine(ds: &Dataset, level_cache: u32, delta_chunks: u32) -> Canopus {
    let raw = (ds.data.len() * 8) as u64;
    let canopus = Canopus::new(
        Arc::new(StorageHierarchy::titan_two_tier(raw / 4, raw * 64)),
        CanopusConfig {
            refactor: RefactorConfig {
                num_levels: LEVELS,
                ..Default::default()
            },
            codec: RelativeCodec::Raw,
            level_cache,
            delta_chunks,
            serve_workers: 4,
            ..Default::default()
        },
    );
    canopus
        .write(FILE, ds.var, &ds.mesh, &ds.data)
        .expect("write");
    canopus
}

/// Level 0 as a stepwise restore hands it out with no cache: the bits
/// every other path must hand out (the writer's, up to the rounding of
/// `(x - estimate) + estimate`).
fn level0_oracle(canopus: &Canopus, ds: &Dataset) -> Vec<u64> {
    bits(&support::stepwise_restore(canopus, FILE, ds.var, 0).data)
}

fn bits(data: &[f64]) -> Vec<u64> {
    data.iter().map(|x| x.to_bits()).collect()
}

/// Whether two outcomes read the very same three arrays.
fn same_allocations(a: &ReadOutcome, b: &ReadOutcome) -> bool {
    Arc::ptr_eq(&a.data, &b.data)
        && std::ptr::eq(a.mesh.points(), b.mesh.points())
        && std::ptr::eq(a.mesh.triangles(), b.mesh.triangles())
}

#[test]
fn cache_hits_hand_out_one_allocation_and_allocate_next_to_nothing() {
    let ds = dataset();
    let canopus = engine(&ds, 8, 1);
    let reader = canopus.open(FILE).unwrap();
    let cold = reader.read_level(ds.var, 0).unwrap();
    assert_eq!(bits(&cold.data), level0_oracle(&canopus, &ds));

    let level_bytes = ds.data.len() * 8;
    assert!(level_bytes > 64 << 10, "a level dwarfs the 4 KiB allowance");
    let (first, first_bytes) = allocated_during(|| reader.read_level(ds.var, 0).unwrap());
    let (second, second_bytes) = allocated_during(|| reader.read_level(ds.var, 0).unwrap());
    let third = reader.read_level(ds.var, 0).unwrap();
    for (what, hit) in [("first", &first), ("second", &second), ("third", &third)] {
        assert!(
            same_allocations(hit, &cold),
            "the {what} hit reads other arrays than the walk that filled the cache"
        );
        assert!(hit.level_exact && !hit.degraded);
    }
    for (what, bytes) in [("first", first_bytes), ("second", second_bytes)] {
        assert!(
            bytes < 4 << 10,
            "the {what} hit allocated {bytes} B for a {level_bytes} B level"
        );
    }

    // The base and a clone of an outcome share the same way.
    let (base, again) = (
        reader.read_base(ds.var).unwrap(),
        reader.read_base(ds.var).unwrap(),
    );
    assert!(same_allocations(&base, &again));
    let (copy, copy_bytes) = allocated_during(|| first.clone());
    assert!(same_allocations(&copy, &first) && copy_bytes == 0);
}

#[test]
fn a_callers_writes_never_reach_the_cache() {
    let ds = dataset();
    let canopus = engine(&ds, 8, 1);
    let reader = canopus.open(FILE).unwrap();
    for level in [0, LEVELS - 1] {
        let want = bits(&reader.read_level(ds.var, level).unwrap().data);
        let shared = reader.read_level(ds.var, level).unwrap();
        let held = shared.clone();
        // Shared with the cache and with `held`: `into_data` copies.
        let mut owned = shared.into_data();
        assert_eq!(bits(&owned), want);
        owned.iter_mut().for_each(|x| *x = f64::NAN);
        assert_eq!(bits(&held.data), want, "level {level}: a held outcome");
        let later = reader.read_level(ds.var, level).unwrap();
        assert_eq!(bits(&later.data), want, "level {level}: a later hit");
        assert!(Arc::ptr_eq(&later.data, &held.data));
    }

    // With no cache the outcome is the buffer's only holder: moved out.
    let uncached = canopus.open(FILE).unwrap().with_level_cache(0);
    let out = uncached.read_level(ds.var, 0).unwrap();
    let at = out.data.as_ptr();
    let owned = out.into_data();
    assert_eq!(owned.as_ptr(), at);
}

#[test]
fn mixed_accuracy_outcomes_are_fresh_and_stay_out_of_the_level_cache() {
    let ds = dataset();
    let canopus = engine(&ds, 8, 16);
    let reader = canopus.open(FILE).unwrap();
    let canonical: Vec<Vec<u64>> = (0..LEVELS)
        .map(|l| bits(&reader.read_level(ds.var, l).unwrap().data))
        .collect();

    let bb = ds.mesh.aabb();
    let corner = Aabb::from_points([
        bb.min,
        Point2::new(
            bb.min.x + (bb.max.x - bb.min.x) / 4.0,
            bb.min.y + (bb.max.y - bb.min.y) / 4.0,
        ),
    ]);
    let mut current = reader.read_base(ds.var).unwrap();
    while current.level > 0 {
        let (finer, stats) = reader.refine_region(ds.var, &current, corner).unwrap();
        assert!(stats.chunks_read < stats.chunks_total && !finer.level_exact);
        // The refined field is the step's own buffer; its mesh is the
        // level's shared one.
        let hit = reader.read_level(ds.var, finer.level).unwrap();
        assert!(!Arc::ptr_eq(&finer.data, &hit.data));
        assert!(std::ptr::eq(finer.mesh.points(), hit.mesh.points()));
        assert_ne!(bits(&finer.data), canonical[finer.level as usize]);
        assert_eq!(bits(&hit.data), canonical[finer.level as usize]);
        current = finer;
    }
}

#[test]
fn outcomes_outlive_eviction_the_reader_and_the_engine() {
    let ds = dataset();
    let canopus = engine(&ds, 1, 1);
    let want = level0_oracle(&canopus, &ds);
    let reader = canopus.open(FILE).unwrap();
    let full = reader.read_level(ds.var, 0).unwrap();
    let hit = reader.read_level(ds.var, 0).unwrap();
    assert!(same_allocations(&full, &hit), "level 0 is the one entry");

    // The base takes the cache's only slot; level 0 is walked again
    // into a buffer of its own, over the same geometry.
    let base = reader.read_base(ds.var).unwrap();
    let rewalked = reader.read_level(ds.var, 0).unwrap();
    assert!(!Arc::ptr_eq(&rewalked.data, &full.data));
    assert!(std::ptr::eq(rewalked.mesh.points(), full.mesh.points()));
    assert_eq!(bits(&full.data), want);
    assert_eq!(bits(&rewalked.data), want);

    drop(reader);
    drop(canopus);
    drop(hit);
    drop(rewalked);
    assert_eq!(bits(&full.data), want);
    assert_eq!(full.mesh, ds.mesh);
    assert_eq!(full.data.len(), full.mesh.num_vertices());
    assert!(base.mesh.num_vertices() < full.mesh.num_vertices());
    assert!(base
        .mesh
        .triangles()
        .iter()
        .flatten()
        .all(|&v| (v as usize) < base.data.len()));
}

#[test]
fn eight_threads_through_the_service_receive_one_allocation() {
    let ds = dataset();
    let canopus = Arc::new(engine(&ds, 8, 1));
    let want = level0_oracle(&canopus, &ds);
    let service = CanopusService::start(Arc::clone(&canopus));
    let request = ServeRequest::Level {
        file: FILE.into(),
        var: ds.var.to_string(),
        level: 0,
    };
    let warm = service
        .submit(request.clone())
        .unwrap()
        .wait()
        .unwrap()
        .outcome;
    assert_eq!(bits(&warm.data), want);

    let start = Barrier::new(8);
    let served: Vec<ReadOutcome> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    (0..4)
                        .map(|_| {
                            let response = service.submit(request.clone()).unwrap().wait().unwrap();
                            response.outcome
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client"))
            .collect()
    });
    assert_eq!(served.len(), 32);
    for out in &served {
        assert!(same_allocations(out, &warm));
    }
    drop(service);
    assert_eq!(bits(&served[31].data), want);
}
