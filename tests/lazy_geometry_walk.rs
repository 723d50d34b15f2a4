//! The walk loads each level's geometry lazily — the levels it passes
//! on the calling thread, the level it hands out on a loader thread of
//! its own, started before the first step. That reordering must not be
//! observable: the walk returns the bits of the stepwise reference
//! (`support::stepwise_restore`) for every chunk count and issues one
//! tier read per object the manifest says it needs, and a fault on a
//! level's *metadata* block — the block the reordering moved — is
//! retried within the budget and degrades the walk past it, exactly as a
//! fault on a delta does, with the counters the fault schedule fixes.
//! The loader changes who does the work, not what is done.
//!
//! Lazy goes one step further: a level's geometry object is two
//! separately verified sections, and a walk fetches only what it
//! consumes of each level — with the default (mean) estimator the
//! topology of the levels it passes through, and coordinates only where
//! a mesh is handed out, the chunk assignment has to be recomputed, or
//! the estimator weighs by position. The second half of this file pins
//! exactly which bytes move, and that a level's missing half arrives
//! once, later, when something does need it.
//!
//! Faults are aimed at one block by moving it alone onto a spare tier
//! that no placement rank reaches and arming only that tier.

mod support;

use bytes::Bytes;
use canopus::config::RelativeCodec;
use canopus::read::{CanopusReader, ReadOutcome};
use canopus::{Canopus, CanopusConfig, FaultPlan, RetryPolicy};
use canopus_adios::GeometrySection;
use canopus_data::{xgc1_dataset_sized, Dataset};
use canopus_obs::{names, Event, FieldValue, RingBufferSink};
use canopus_refactor::levels::RefactorConfig;
use canopus_refactor::{Estimator, LevelHierarchy};
use canopus_storage::{FaultOp, ProductKind, StorageHierarchy, TierSpec};
use std::sync::{Arc, Barrier};

const LEVELS: u32 = 4;
const FILE: &str = "walk.bp";
/// One tier per placement rank, then the spare.
const SPARE: usize = LEVELS as usize;

/// Chunks per delta: the default (one chunk in vertex order, identity
/// assignment), Morton chunks in one shard object, and in two.
const CHUNK_COUNTS: [u32; 3] = [1, 4, 16];

fn dataset() -> Dataset {
    xgc1_dataset_sized(16, 80, 11)
}

fn written(ds: &Dataset, delta_chunks: u32) -> Canopus {
    written_with(ds, delta_chunks, Estimator::Mean, RelativeCodec::Fpc)
}

fn written_with(
    ds: &Dataset,
    delta_chunks: u32,
    estimator: Estimator,
    codec: RelativeCodec,
) -> Canopus {
    written_in(ds, LEVELS, delta_chunks, estimator, codec)
}

fn written_in(
    ds: &Dataset,
    num_levels: u32,
    delta_chunks: u32,
    estimator: Estimator,
    codec: RelativeCodec,
) -> Canopus {
    let tiers = (0..=SPARE)
        .map(|i| TierSpec::new(format!("t{i}"), 1 << 26, 1e8, 1e8, 1e-4))
        .collect();
    let canopus = Canopus::new(
        Arc::new(StorageHierarchy::new(tiers)),
        CanopusConfig {
            refactor: RefactorConfig {
                num_levels,
                estimator,
                ..Default::default()
            },
            codec,
            delta_chunks,
            ..Default::default()
        },
    );
    canopus
        .write(FILE, ds.var, &ds.mesh, &ds.data)
        .expect("write");
    canopus
}

/// A reader without the level cache, so every read walks. Opened before
/// any fault is armed: the manifest read has no retry loop.
fn walker(canopus: &Canopus) -> CanopusReader {
    canopus.open(FILE).expect("open").with_level_cache(0)
}

fn bits(data: &[f64]) -> Vec<u64> {
    data.iter().map(|x| x.to_bits()).collect()
}

fn assert_same(a: &ReadOutcome, b: &ReadOutcome, what: &str) {
    assert_eq!(a.level, b.level, "{what}: level");
    assert_eq!(a.mesh, b.mesh, "{what}: mesh");
    assert_eq!(bits(&a.data), bits(&b.data), "{what}: data");
    assert_eq!(a.degraded, b.degraded, "{what}: degraded");
    assert_eq!(a.level_exact, b.level_exact, "{what}: level_exact");
}

/// Every level restored step by step, fault-free: the ground truth.
fn clean_levels(ds: &Dataset, canopus: &Canopus) -> Vec<ReadOutcome> {
    (0..LEVELS)
        .map(|l| support::stepwise_restore(canopus, FILE, ds.var, l))
        .collect()
}

/// Move `level`'s metadata block, alone, onto the spare tier.
fn isolate_metadata(ds: &Dataset, canopus: &Canopus, level: u32) -> String {
    let reader = canopus.open(FILE).expect("open");
    let key = reader
        .file()
        .inq_var(ds.var)
        .expect("variable")
        .metadata_for(level)
        .expect("every level has a metadata block")
        .key
        .clone();
    support::move_to_tier(canopus.hierarchy(), &key, SPARE);
    assert_eq!(canopus.hierarchy().find(&key).expect("still stored"), SPARE);
    key
}

/// A plan whose draw of `op` fires on the first two attempts at `key`
/// and not on the third: found by search, since draws are a pure hash
/// of (seed, op, key, attempt).
fn fires_twice_then_stops(op: FaultOp, key: &str) -> FaultPlan {
    (0..)
        .map(|seed| {
            let mut plan = FaultPlan {
                seed,
                ..FaultPlan::none()
            };
            match op {
                FaultOp::Corrupt => plan.corrupt_p = 0.5,
                _ => plan.get_error_p = 0.5,
            }
            plan
        })
        .find(|p| p.draws(op, key, 0) && p.draws(op, key, 1) && !p.draws(op, key, 2))
        .expect("one seed in eight fits")
}

#[test]
fn walks_match_the_stepwise_reference_at_every_level_of_every_layout() {
    let ds = dataset();
    for chunks in CHUNK_COUNTS {
        let canopus = written(&ds, chunks);
        let clean = clean_levels(&ds, &canopus);
        for level in 0..LEVELS {
            let out = walker(&canopus).read_level(ds.var, level).expect("walk");
            assert_same(
                &out,
                &clean[level as usize],
                &format!("k={chunks} level {level}"),
            );
        }
        // One long-lived reader with the level cache on: walks that
        // start from a cached coarser level, and geometry shared between
        // the geometry cache, the level cache and the walk.
        let reader = canopus.open(FILE).expect("open");
        for level in (0..LEVELS).rev().chain(0..LEVELS) {
            let out = reader.read_level(ds.var, level).expect("cached reader");
            assert_same(
                &out,
                &clean[level as usize],
                &format!("k={chunks} level {level}, long-lived reader"),
            );
        }
    }
}

#[test]
fn metadata_faults_within_the_budget_are_retried_at_every_level() {
    let ds = dataset();
    for chunks in CHUNK_COUNTS {
        // The base level too: its geometry is part of every read.
        for level in 0..LEVELS {
            let canopus = written(&ds, chunks);
            let clean = clean_levels(&ds, &canopus);
            let key = isolate_metadata(&ds, &canopus, level);
            for op in [FaultOp::GetError, FaultOp::Corrupt] {
                let plan = fires_twice_then_stops(op, &key);
                let reader = walker(&canopus);
                let m = canopus.metrics();
                let retries = m.counter(names::READ_RETRIES).get();
                let faults = m.counter(names::READ_FAULTS_INJECTED).get();
                let mismatches = m.counter(names::READ_CHECKSUM_FAILURES).get();
                // Arming restarts the tier's attempt counters.
                canopus
                    .hierarchy()
                    .set_fault_plan(SPARE, plan)
                    .expect("spare tier");
                let out = reader.read_level(ds.var, 0).expect("read");
                let what = format!("k={chunks} level {level} {op:?}");
                assert_same(&out, &clean[0], &what);
                assert!(!out.degraded, "{what}: two faults fit a budget of four");
                assert_eq!(
                    m.counter(names::READ_RETRIES).get() - retries,
                    2,
                    "{what}: one retry per fault"
                );
                assert_eq!(
                    m.counter(names::READ_FAULTS_INJECTED).get() - faults,
                    2,
                    "{what}: each fault seen once, by whichever thread fetched"
                );
                let caught = m.counter(names::READ_CHECKSUM_FAILURES).get() - mismatches;
                assert_eq!(
                    caught,
                    if op == FaultOp::Corrupt { 2 } else { 0 },
                    "{what}: the checksum caught each corrupted transfer"
                );
            }
        }
    }
}

#[test]
fn metadata_faults_past_the_budget_degrade_to_the_next_coarser_level() {
    let ds = dataset();
    let persistent = [
        FaultPlan {
            down: Some((0, u64::MAX)),
            ..FaultPlan::none()
        },
        FaultPlan {
            corrupt_p: 1.0,
            ..FaultPlan::none()
        },
    ];
    for chunks in CHUNK_COUNTS {
        for level in 0..LEVELS - 1 {
            let canopus = written(&ds, chunks);
            let clean = clean_levels(&ds, &canopus);
            isolate_metadata(&ds, &canopus, level);
            for plan in persistent {
                let reader = walker(&canopus);
                let m = canopus.metrics();
                let fault_counters = || {
                    [
                        names::READ_RETRIES,
                        names::READ_FAULTS_INJECTED,
                        names::READ_CHECKSUM_FAILURES,
                    ]
                    .map(|name| m.counter(name).get())
                };
                let counters = fault_counters();
                let degraded = m.counter(names::READ_DEGRADED_RESTORES);
                let before = degraded.get();
                canopus
                    .hierarchy()
                    .set_fault_plan(SPARE, plan)
                    .expect("spare tier");
                let out = reader
                    .read_level(ds.var, 0)
                    .expect("an unreachable level is not an error");
                let what = format!("k={chunks} level {level} {plan:?}");
                assert!(out.degraded, "{what}");
                assert_eq!(out.level, level + 1, "{what}: the next-coarser level");
                assert_eq!(out.achieved_level, out.level, "{what}");
                assert!(out.level_exact, "{what}: what is served is exact");
                assert_eq!(out.mesh, clean[out.level as usize].mesh, "{what}");
                assert_eq!(
                    bits(&out.data),
                    bits(&clean[out.level as usize].data),
                    "{what}"
                );
                assert_eq!(degraded.get() - before, 1, "{what}");
                let after = fault_counters();
                // Whichever thread met the fault, every attempt of the
                // budget failed, each but the last was retried, and
                // nobody fetched the block again.
                let budget = u64::from(RetryPolicy::new().max_attempts);
                let mismatches = if plan.corrupt_p > 0.0 { budget } else { 0 };
                assert_eq!(
                    [0, 1, 2].map(|i| after[i] - counters[i]),
                    [budget - 1, budget, mismatches],
                    "{what}: retries, faults, checksum failures"
                );
            }
        }
    }
}

#[test]
fn unreachable_base_geometry_is_still_an_error() {
    let ds = dataset();
    let canopus = written(&ds, 1);
    isolate_metadata(&ds, &canopus, LEVELS - 1);
    let reader = walker(&canopus);
    canopus
        .hierarchy()
        .set_fault_plan(
            SPARE,
            FaultPlan {
                down: Some((0, u64::MAX)),
                ..FaultPlan::none()
            },
        )
        .expect("spare tier");
    assert!(
        reader.read_level(ds.var, 0).is_err(),
        "there is no coarser level to degrade to"
    );
}

/// Stored sizes of what a read can fetch, from the manifest: the field
/// (base and delta blocks together) and each level's geometry sections
/// as `[coordinates, topology]`.
struct Stored {
    field: u64,
    sections: Vec<[u64; 2]>,
}

impl Stored {
    fn of(ds: &Dataset, canopus: &Canopus) -> Self {
        let reader = canopus.open(FILE).expect("open");
        let var = reader.file().inq_var(ds.var).expect("variable");
        let field = var
            .blocks
            .iter()
            .filter(|b| !matches!(b.kind, ProductKind::Metadata { .. }))
            .map(|b| b.stored_bytes)
            .sum();
        let sections = (0..LEVELS)
            .map(|level| {
                let block = var.metadata_for(level).expect("geometry of every level");
                let len = |s| block.section(s).expect("both sections").len;
                let lens = GeometrySection::ALL.map(len);
                assert_eq!(lens[0] + lens[1], block.stored_bytes, "sections tile");
                lens
            })
            .collect();
        Self { field, sections }
    }

    fn coordinates(&self, level: u32) -> u64 {
        self.sections[level as usize][0]
    }

    fn geometry(&self) -> u64 {
        self.sections.iter().flatten().sum()
    }

    /// Coordinates of the levels strictly between level 0 and the base:
    /// what a walk from the one to the other only passes through.
    fn passed_coordinates(&self) -> u64 {
        (1..LEVELS - 1).map(|l| self.coordinates(l)).sum()
    }
}

/// Reads every tier has served so far.
fn tier_reads(canopus: &Canopus) -> u64 {
    (0..=SPARE)
        .map(|t| canopus.hierarchy().tier_stats(t).expect("tier").reads)
        .sum()
}

/// Bytes every tier has served so far.
fn tier_bytes_read(canopus: &Canopus) -> u64 {
    (0..=SPARE)
        .map(|t| canopus.hierarchy().tier_stats(t).expect("tier").bytes_read)
        .sum()
}

/// What the writer refactored, rebuilt in memory: the reference no read
/// path had a hand in.
fn in_memory(ds: &Dataset, canopus: &Canopus) -> LevelHierarchy {
    LevelHierarchy::build(&ds.mesh, &ds.data, canopus.config().refactor)
}

#[test]
fn a_cold_walk_fetches_the_topology_it_passes_and_the_meshes_it_hands_out() {
    let ds = dataset();
    for chunks in [1, 4] {
        let canopus = written(&ds, chunks);
        let stored = Stored::of(&ds, &canopus);
        let h = in_memory(&ds, &canopus);
        // A level in several chunks needs its coordinates to recompute
        // which vertices each chunk holds; a one-chunk level does not.
        let skipped = if chunks == 1 {
            stored.passed_coordinates()
        } else {
            0
        };
        assert!(stored.passed_coordinates() > 0);
        let reader = walker(&canopus);
        let what = format!("k={chunks}");
        let m = canopus.metrics();
        let (tier, geometry, coordinates) = (
            tier_bytes_read(&canopus),
            m.counter(names::READ_GEOMETRY_BYTES).get(),
            m.counter(names::READ_COORDINATE_BYTES).get(),
        );
        let out = reader.read_level(ds.var, 0).expect("cold walk");
        assert_eq!(
            tier_bytes_read(&canopus) - tier,
            stored.field + stored.geometry() - skipped,
            "{what}: base + deltas + topology of every level + coordinates of level 0 and the base"
        );
        assert_eq!(
            m.counter(names::READ_GEOMETRY_BYTES).get() - geometry,
            stored.geometry() - skipped,
            "{what}"
        );
        let all: u64 = (0..LEVELS).map(|l| stored.coordinates(l)).sum();
        assert_eq!(
            m.counter(names::READ_COORDINATE_BYTES).get() - coordinates,
            all - skipped,
            "{what}"
        );
        assert!(!out.degraded, "{what}");
        assert_eq!(out.mesh, h.levels[0].mesh, "{what}");
        assert_eq!(bits(&out.data), bits(&h.restore_to(0)), "{what}");
    }
}

#[test]
fn the_barycentric_estimator_fetches_every_section() {
    let ds = dataset();
    let tolerance = 1e-6;
    let codec = RelativeCodec::ZfpLike {
        rel_tolerance: tolerance,
    };
    let canopus = written_with(&ds, 1, Estimator::Barycentric, codec);
    let stored = Stored::of(&ds, &canopus);
    let (lo, hi) = ds
        .data
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    // Base and each delta add at most the codec's error.
    let bound = LEVELS as f64 * tolerance * (hi - lo);
    let reader = walker(&canopus);
    let tier = tier_bytes_read(&canopus);
    let out = reader.read_level(ds.var, 0).expect("cold walk");
    assert_eq!(
        tier_bytes_read(&canopus) - tier,
        stored.field + stored.geometry(),
        "the weights are the vertices' positions"
    );
    assert_eq!(out.mesh, ds.mesh);
    let err = out
        .data
        .iter()
        .zip(&ds.data)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    assert!(err <= bound, "error {err} beyond {bound}");
}

#[test]
fn a_passed_level_gets_its_coordinates_once_when_it_is_handed_out() {
    let ds = dataset();
    let canopus = written(&ds, 1);
    let stored = Stored::of(&ds, &canopus);
    let h = in_memory(&ds, &canopus);
    let passed = 2;
    // Level cache on: the hand-out is a cache hit, and the coordinates
    // section is all that moves.
    let reader = canopus.open(FILE).expect("open");
    reader.read_level(ds.var, 0).expect("cold walk");
    let tier = tier_bytes_read(&canopus);
    for pass in ["first", "again"] {
        let hit = reader.read_level(ds.var, passed).expect("cached level");
        assert_eq!(hit.mesh, h.levels[passed as usize].mesh, "{pass}");
        assert_eq!(bits(&hit.data), bits(&h.restore_to(passed)), "{pass}");
        assert_eq!(
            tier_bytes_read(&canopus) - tier,
            stored.coordinates(passed),
            "{pass}: one section, once"
        );
    }

    // Level cache off: the read walks again, and of the geometry only
    // the target's coordinates are missing.
    let reader = walker(&canopus);
    reader.read_level(ds.var, 0).expect("cold walk");
    let geometry = canopus.metrics().counter(names::READ_GEOMETRY_BYTES);
    let before = geometry.get();
    let out = reader.read_level(ds.var, passed).expect("second walk");
    assert_eq!(out.mesh, h.levels[passed as usize].mesh);
    assert_eq!(bits(&out.data), bits(&h.restore_to(passed)));
    assert_eq!(geometry.get() - before, stored.coordinates(passed));
}

/// Flip one byte of `level`'s stored coordinates section, in place.
fn corrupt_coordinates(ds: &Dataset, canopus: &Canopus, level: u32) {
    let reader = canopus.open(FILE).expect("open");
    let block = reader
        .file()
        .inq_var(ds.var)
        .expect("variable")
        .metadata_for(level)
        .expect("geometry");
    let section = block
        .section(GeometrySection::Coordinates)
        .expect("coordinates");
    let h = canopus.hierarchy();
    let tier = h.find(&block.key).expect("stored");
    let mut bytes = h.remove(&block.key).expect("stored").to_vec();
    bytes[(section.offset + section.len / 2) as usize] ^= 0x5A;
    h.write_to_tier(tier, &block.key, Bytes::from(bytes))
        .expect("same size, same tier");
}

#[test]
fn damaged_coordinates_of_a_passed_level_fail_only_reads_that_need_them() {
    let ds = dataset();
    let canopus = written(&ds, 1);
    let clean = clean_levels(&ds, &canopus);
    let damaged = 2;
    corrupt_coordinates(&ds, &canopus, damaged);
    let m = canopus.metrics();
    let reader = walker(&canopus);
    // A walk through the level verifies and uses its topology only.
    let mismatches = m.counter(names::READ_CHECKSUM_FAILURES).get();
    let out = reader.read_level(ds.var, 0).expect("walk past the damage");
    assert_same(&out, &clean[0], "walk to level 0");
    assert_eq!(m.counter(names::READ_CHECKSUM_FAILURES).get(), mismatches);

    // A walk *to* the level reads its object whole: the checksum catches
    // it on every attempt of the budget, and the walk degrades.
    let out = reader.read_level(ds.var, damaged).expect("degrades");
    assert!(out.degraded);
    assert_same(
        &ReadOutcome {
            degraded: false,
            ..out
        },
        &clean[damaged as usize + 1],
        "degraded to the next coarser level",
    );
    assert_eq!(
        m.counter(names::READ_CHECKSUM_FAILURES).get() - mismatches,
        u64::from(RetryPolicy::new().max_attempts)
    );
    // A level-cache hit on the level has nothing coarser to offer.
    let reader = canopus.open(FILE).expect("open");
    reader.read_level(ds.var, 0).expect("walk past the damage");
    let err = reader
        .read_level(ds.var, damaged)
        .expect_err("no mesh to hand out");
    assert!(err.is_checksum_mismatch(), "{err}");
    // The damage costs the levels around it nothing.
    assert_same(
        &reader.read_level(ds.var, 1).expect("level 1"),
        &clean[1],
        "level 1",
    );
}

#[test]
fn a_walk_stopped_on_a_passed_level_hands_out_its_whole_mesh() {
    // Delta faults stop a walk on a level it had only meant to pass
    // through; the mesh it returns is nonetheless complete.
    let ds = dataset();
    let canopus = written(&ds, 1);
    let clean = clean_levels(&ds, &canopus);
    let reader = canopus.open(FILE).expect("open");
    let key = reader
        .file()
        .inq_var(ds.var)
        .expect("variable")
        .delta_shards_to(0)[0]
        .key
        .clone();
    support::move_to_tier(canopus.hierarchy(), &key, SPARE);
    let reader = walker(&canopus);
    canopus
        .hierarchy()
        .set_fault_plan(
            SPARE,
            FaultPlan {
                down: Some((0, u64::MAX)),
                ..FaultPlan::none()
            },
        )
        .expect("spare tier");
    let out = reader.read_level(ds.var, 0).expect("degrades");
    assert!(out.degraded);
    assert_same(
        &ReadOutcome {
            degraded: false,
            ..out
        },
        &clean[1],
        "stopped on level 1",
    );
}

#[test]
fn concurrent_cold_readers_fetch_each_geometry_section_once() {
    let ds = dataset();
    let canopus = written(&ds, 1);
    let stored = Stored::of(&ds, &canopus);
    let clean = clean_levels(&ds, &canopus);
    let one_walk = stored.geometry() - stored.passed_coordinates();

    const READERS: usize = 8;
    // No level cache: every thread walks from the base to level 0.
    let reader = walker(&canopus);
    let m = canopus.metrics();
    let (tier, geometry) = (
        tier_bytes_read(&canopus),
        m.counter(names::READ_GEOMETRY_BYTES).get(),
    );
    let start = Barrier::new(READERS);
    let outcomes: Vec<ReadOutcome> = std::thread::scope(|s| {
        let walkers: Vec<_> = (0..READERS)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    reader.read_level(ds.var, 0).expect("concurrent walk")
                })
            })
            .collect();
        walkers
            .into_iter()
            .map(|w| w.join().expect("walker"))
            .collect()
    });
    for out in &outcomes {
        assert_same(out, &clean[0], "concurrent walk");
    }
    assert_eq!(
        m.counter(names::READ_GEOMETRY_BYTES).get() - geometry,
        one_walk,
        "{READERS} walks share one load of each section"
    );
    assert_eq!(
        tier_bytes_read(&canopus) - tier,
        READERS as u64 * stored.field + one_walk,
        "each walk reads the field, one of them the geometry"
    );

    // Two targets at once: a walk to level 0 passes through level 1
    // — whose topology it claims for itself, or waits for — while
    // the loader of a walk to level 1 holds that level whole. Every
    // walk finishes, and level 1 is still loaded once: whole, or as
    // its two sections.
    let reader = walker(&canopus);
    let geometry = m.counter(names::READ_GEOMETRY_BYTES).get();
    let start = Barrier::new(READERS);
    std::thread::scope(|s| {
        let walkers: Vec<_> = (0..READERS as u32)
            .map(|i| {
                let (reader, start, clean, ds) = (&reader, &start, &clean, &ds);
                s.spawn(move || {
                    start.wait();
                    let target = i % 2;
                    let out = reader.read_level(ds.var, target).expect("concurrent walk");
                    assert_same(&out, &clean[target as usize], "two targets");
                })
            })
            .collect();
        for walker in walkers {
            walker.join().expect("walker");
        }
    });
    assert_eq!(
        m.counter(names::READ_GEOMETRY_BYTES).get() - geometry,
        one_walk + stored.coordinates(1),
        "two targets"
    );
}

fn text(e: &Event, key: &str) -> Option<String> {
    match e.field(key)? {
        FieldValue::Str(s) => Some(s.clone()),
        _ => None,
    }
}

fn uint(e: &Event, key: &str) -> Option<u64> {
    match e.field(key)? {
        FieldValue::Uint(u) => Some(*u),
        _ => None,
    }
}

/// A block fetch as its `read.block` span names it: the key and the
/// section, `None` being the whole object.
type Fetch = (String, Option<String>);

/// Run `read` with tracing armed: its outcome, its span events, and the
/// block fetches among them, sorted. Every tier read the hierarchy
/// counted meanwhile is one of those fetches.
fn traced<T>(canopus: &Canopus, read: impl FnOnce() -> T) -> (T, Vec<Event>, Vec<Fetch>) {
    let m = canopus.metrics();
    m.set_sink(Arc::new(RingBufferSink::with_capacity(4096)));
    let before = tier_reads(canopus);
    let out = read();
    let events = m.snapshot().events;
    let mut fetches: Vec<_> = events
        .iter()
        .filter(|e| e.name == "read.block")
        .map(|e| {
            (
                text(e, "key").expect("a fetch names its key"),
                text(e, "section"),
            )
        })
        .collect();
    fetches.sort();
    assert_eq!(
        tier_reads(canopus) - before,
        fetches.len() as u64,
        "{fetches:?}"
    );
    (out, events, fetches)
}

#[test]
fn fifty_cold_walks_issue_exactly_the_tier_reads_the_manifest_plans() {
    // Five levels, as the benchmark writes them.
    const FIVE: u32 = 5;
    let ds = dataset();
    let canopus = written_in(&ds, FIVE, 1, Estimator::Mean, RelativeCodec::Fpc);
    let clean = support::stepwise_restore(&canopus, FILE, ds.var, 0);
    // Base field and geometry, then per step the delta and the level's
    // geometry: with the open, the benchmark's eleven reads. Every field
    // block and the geometry of level 0 and the base move whole; of the
    // levels in between only the topology moves.
    let mut planned: Vec<Fetch> = walker(&canopus)
        .file()
        .inq_var(ds.var)
        .expect("variable")
        .blocks
        .iter()
        .map(|b| {
            let section = match b.kind {
                ProductKind::Metadata { level } if level > 0 && level < FIVE - 1 => {
                    Some("topology".to_string())
                }
                _ => None,
            };
            (b.key.clone(), section)
        })
        .collect();
    planned.sort();
    assert_eq!(planned.len() as u32, 2 * FIVE);
    let cold_walk = || {
        // A fresh reader: the open is one read, of the manifest.
        let before = tier_reads(&canopus);
        let reader = walker(&canopus);
        assert_eq!(tier_reads(&canopus) - before, 1);
        traced(&canopus, || {
            reader.read_level(ds.var, 0).expect("cold walk")
        })
    };

    for walk in 0..50 {
        let (out, events, fetched) = cold_walk();
        assert_eq!(fetched, planned, "walk {walk}");
        assert_same(&out, &clean, &format!("walk {walk}"));
        // The target's geometry is loaded beside the walk, not on its
        // thread; what the walk passes is loaded on it.
        let lane = |name: &str, level: u64| {
            let span = events
                .iter()
                .find(|e| e.name == name && uint(e, "level") == Some(level))
                .unwrap_or_else(|| panic!("walk {walk}: no {name} span of level {level}"));
            uint(span, "tid").expect("spans carry their thread's lane")
        };
        let caller = lane("read", 0);
        assert_ne!(lane("geometry", 0), caller, "walk {walk}");
        for passed in 1..u64::from(FIVE) - 1 {
            assert_eq!(lane("geometry", passed), caller, "walk {walk}");
        }
    }
}

#[test]
fn a_walk_to_a_level_whose_geometry_is_loaded_starts_no_loader() {
    let ds = dataset();
    let canopus = written(&ds, 1);
    let clean = clean_levels(&ds, &canopus);
    let reader = canopus.open(FILE).expect("open").with_level_cache(0);
    let loads = |events: &[Event]| -> Vec<(u64, String)> {
        let of = |e: &Event| (uint(e, "level").unwrap(), text(e, "section").unwrap());
        let mut loads: Vec<_> = events
            .iter()
            .filter(|e| e.name == "geometry")
            .map(of)
            .collect();
        loads.sort();
        loads
    };
    let whole = |level: u64| (level, "whole".to_string());
    let topology = |level: u64| (level, "topology".to_string());

    let (out, events, _) = traced(&canopus, || reader.read_level(ds.var, 0).expect("cold"));
    assert_same(&out, &clean[0], "cold");
    assert_eq!(
        loads(&events),
        [whole(0), topology(1), topology(2), whole(3)]
    );
    // Every entry on the way holds what a second walk consumes: no
    // geometry moves, and nothing is spawned to move it.
    let (out, events, fetches) = traced(&canopus, || reader.read_level(ds.var, 0).expect("warm"));
    assert_same(&out, &clean[0], "warm");
    assert_eq!(loads(&events), []);
    assert_eq!(fetches.len() as u32, LEVELS, "the base and the deltas");
    // A passed level handed out later lacks its coordinates alone, and
    // the loader fetches just those.
    let (out, events, _) = traced(&canopus, || reader.read_level(ds.var, 1).expect("level 1"));
    assert_same(&out, &clean[1], "level 1");
    assert_eq!(loads(&events), [(1, "coordinates".to_string())]);
}

#[test]
fn a_fault_on_a_coarser_delta_stops_the_loader_before_its_next_attempt() {
    let ds = dataset();
    let canopus = written(&ds, 1);
    let clean = clean_levels(&ds, &canopus);
    // The first delta of the walk and the target's geometry, both on
    // the spare tier, which is down for good.
    let level0 = isolate_metadata(&ds, &canopus, 0);
    let delta = {
        let reader = canopus.open(FILE).expect("open");
        let var = reader.file().inq_var(ds.var).expect("variable");
        var.delta_shards_to(LEVELS - 2)[0].key.clone()
    };
    support::move_to_tier(canopus.hierarchy(), &delta, SPARE);
    // Two attempts each, a long backoff between them, and a jitter that
    // has the delta's second attempt — the one that ends the walk — fall
    // well before the loader wakes for its own.
    let retry = (0..)
        .map(|jitter_seed| RetryPolicy {
            max_attempts: 2,
            base_backoff_s: 0.4,
            max_backoff_s: 0.4,
            jitter_seed,
        })
        .find(|p| p.backoff_s(&level0, 1) - p.backoff_s(&delta, 1) > 0.15)
        .expect("one seed in a few fits");
    let m = canopus.metrics();
    let counters =
        || [names::READ_FAULTS_INJECTED, names::READ_RETRIES].map(|name| m.counter(name).get());
    let reader = walker(&canopus).with_retry(retry);
    let before = counters();
    canopus
        .hierarchy()
        .set_fault_plan(
            SPARE,
            FaultPlan {
                down: Some((0, u64::MAX)),
                ..FaultPlan::none()
            },
        )
        .expect("spare tier");
    let out = reader.read_level(ds.var, 0).expect("degrades");
    assert!(out.degraded);
    assert_same(
        &ReadOutcome {
            degraded: false,
            ..out
        },
        &clean[LEVELS as usize - 1],
        "nothing past the base could be restored",
    );
    let after = counters();
    // The delta: a fault, a retry, a fault. The loader met its first
    // fault while the delta was being retried; told to stop, it never
    // made its second attempt.
    assert_eq!([after[0] - before[0], after[1] - before[1]], [3, 1]);
}
