//! The pipelined walk plans from the manifest alone and loads each
//! level's geometry lazily, on the restore thread, while the decode pool
//! is already running. That reordering must not be observable: the
//! engines return the same bits for every chunk count, and a fault on
//! a level's *metadata* block — the block the reordering moved — is
//! retried within the budget and degrades the walk past it, exactly as
//! a fault on a delta does.
//!
//! Faults are aimed at one block by moving it alone onto a spare tier
//! that no placement rank reaches and arming only that tier.

use canopus::config::RelativeCodec;
use canopus::read::{CanopusReader, ReadOutcome};
use canopus::{Canopus, CanopusConfig, FaultPlan};
use canopus_data::{xgc1_dataset_sized, Dataset};
use canopus_obs::names;
use canopus_refactor::levels::RefactorConfig;
use canopus_storage::{FaultOp, StorageHierarchy, TierSpec};
use std::sync::Arc;

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
    let tiers = (0..=SPARE)
        .map(|i| TierSpec::new(format!("t{i}"), 1 << 26, 1e8, 1e8, 1e-4))
        .collect();
    let canopus = Canopus::new(
        Arc::new(StorageHierarchy::new(tiers)),
        CanopusConfig {
            refactor: RefactorConfig {
                num_levels: LEVELS,
                ..Default::default()
            },
            codec: RelativeCodec::Fpc,
            delta_chunks,
            ..Default::default()
        },
    );
    canopus
        .write(FILE, ds.var, &ds.mesh, &ds.data)
        .expect("write");
    canopus
}

/// Serial then pipelined, both without the level cache so every read
/// walks. Opened before any fault is armed: the manifest read has no
/// retry loop.
fn both_engines(canopus: &Canopus) -> [CanopusReader; 2] {
    let open = || canopus.open(FILE).expect("open").with_level_cache(0);
    [open().with_pipeline_depth(0), open()]
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

/// Every level through the serial engine, fault-free: the ground truth.
fn clean_levels(ds: &Dataset, canopus: &Canopus) -> Vec<ReadOutcome> {
    let reader = canopus.open(FILE).expect("open").with_level_cache(0);
    (0..LEVELS)
        .map(|l| reader.read_level_serial(ds.var, l).expect("clean read"))
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
    canopus
        .hierarchy()
        .migrate(&key, SPARE)
        .expect("the spare tier has room");
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
fn engines_agree_bit_for_bit_at_every_level_of_every_layout() {
    let ds = dataset();
    for chunks in CHUNK_COUNTS {
        let canopus = written(&ds, chunks);
        let clean = clean_levels(&ds, &canopus);
        for level in 0..LEVELS {
            let [_, pipelined] = both_engines(&canopus);
            let out = pipelined.read_level(ds.var, level).expect("pipelined");
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
                for reader in both_engines(&canopus) {
                    let m = canopus.metrics();
                    let retries = m.counter(names::READ_RETRIES).get();
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
                for reader in both_engines(&canopus) {
                    let degraded = canopus.metrics().counter(names::READ_DEGRADED_RESTORES);
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
                }
            }
        }
    }
}

#[test]
fn unreachable_base_geometry_is_still_an_error() {
    let ds = dataset();
    let canopus = written(&ds, 1);
    isolate_metadata(&ds, &canopus, LEVELS - 1);
    for reader in both_engines(&canopus) {
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
}
