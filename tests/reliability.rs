//! Reliability integration: deterministic fault injection against the
//! full write → restore pipeline.
//!
//! The contract under test (paper-level: elastic analytics must keep
//! answering while the storage hierarchy misbehaves):
//!
//! * **equivalence** — under transient-only faults that stay within the
//!   retry budget, restored bytes are identical to the fault-free run
//!   (the stepwise reference of `support::stepwise_restore`);
//! * **degradation** — when a tier stays down past the budget, a level
//!   walk returns the finest restorable level with
//!   [`ReadOutcome::degraded`](canopus::ReadOutcome) set — level-only
//!   unavailability is never an error;
//! * **integrity** — in-flight payload corruption is caught by the
//!   manifest checksums and cured by re-fetching.
//!
//! Every fault schedule is seeded and keyed off the (op, key, attempt)
//! triple, so these tests are exactly reproducible — no sleeps, no
//! timing dependence, no flakes.

mod support;

use canopus::config::RelativeCodec;
use canopus::read::CanopusReader;
use canopus::{Canopus, CanopusConfig, FaultPlan};
use canopus_data::cfd_dataset_sized;
use canopus_obs::names;
use canopus_refactor::levels::RefactorConfig;
use canopus_storage::{StorageHierarchy, TierSpec};
use std::sync::Arc;

const LEVELS: u32 = 3;

/// A two-tier hierarchy with enough fast-tier headroom that the base
/// products always land on tier 0 — so only *finer levels* become
/// unreachable when tier 1 (where the placement rule sends the deltas) fails.
fn written() -> (canopus_data::Dataset, Canopus) {
    let ds = cfd_dataset_sized(20, 16, 44);
    let h = Arc::new(StorageHierarchy::new(vec![
        TierSpec::new("fast", 1 << 20, 1e9, 1e9, 1e-6),
        TierSpec::new("slow", 1 << 26, 1e7, 1e7, 1e-3),
    ]));
    let canopus = Canopus::new(
        h,
        CanopusConfig {
            refactor: RefactorConfig {
                num_levels: LEVELS,
                ..Default::default()
            },
            codec: RelativeCodec::Fpc,
            ..Default::default()
        },
    );
    canopus
        .write("rel.bp", ds.var, &ds.mesh, &ds.data)
        .expect("write");
    (ds, canopus)
}

/// Readers are opened *before* faults are armed: the manifest read has
/// no retry loop, and arming afterwards scopes injection to block I/O.
fn reader(canopus: &Canopus) -> CanopusReader {
    canopus.open("rel.bp").expect("open").with_level_cache(0)
}

/// Every level restored step by step before any fault is armed.
fn clean_levels(ds: &canopus_data::Dataset, canopus: &Canopus) -> Vec<canopus::ReadOutcome> {
    (0..LEVELS)
        .map(|l| support::stepwise_restore(canopus, "rel.bp", ds.var, l))
        .collect()
}

/// The layout the tier-down tests rely on, read off the manifest: the
/// base and its geometry on tier 0, every delta shard on tier 1 — so a
/// walk with tier 1 down reaches no level finer than the base.
fn assert_deltas_alone_on_tier_1(canopus: &Canopus) {
    let file = canopus.store().open("rel.bp").expect("open");
    for block in file.meta().vars.iter().flat_map(|v| &v.blocks) {
        let tier = canopus.hierarchy().find(&block.key).expect("placed");
        let want = match block.kind {
            canopus_storage::ProductKind::DeltaShard { .. } => 1,
            _ if block.kind.rank(LEVELS) == 0 => 0,
            _ => continue,
        };
        assert_eq!(tier, want, "{}", block.key);
    }
}

#[test]
fn transient_faults_restore_byte_identical_to_fault_free_run() {
    let (ds, canopus) = written();
    let clean = support::stepwise_restore(&canopus, "rel.bp", ds.var, 0);
    let reader = reader(&canopus);
    canopus.hierarchy().set_fault_plan_all(FaultPlan {
        seed: 9,
        get_error_p: 0.35,
        ..FaultPlan::none()
    });

    let out = reader.read_level(ds.var, 0).expect("rides out transients");
    assert!(!out.degraded, "transients within budget never degrade");
    assert_eq!(out.level, 0);
    assert_eq!(
        out.data, clean.data,
        "equivalence guarantee: restored bytes identical to the \
         fault-free run"
    );
    assert!(
        canopus.metrics().counter(names::READ_RETRIES).get() > 0,
        "the guarantee must have been exercised, not vacuous"
    );
}

#[test]
fn short_outage_is_cured_by_the_retry_budget() {
    let (ds, canopus) = written();
    let clean = support::stepwise_restore(&canopus, "rel.bp", ds.var, 0);
    let reader = reader(&canopus);
    // Tier 1 rejects its first two operations, then recovers — retries
    // advance the per-tier op index past the window.
    canopus
        .hierarchy()
        .set_fault_plan(
            1,
            FaultPlan {
                seed: 2,
                down: Some((0, 2)),
                ..FaultPlan::none()
            },
        )
        .expect("tier 1 exists");

    let out = reader.read_level(ds.var, 0).expect("outage within budget");
    assert!(!out.degraded);
    assert_eq!(out.data, clean.data);
    assert!(canopus.metrics().counter(names::READ_RETRIES).get() > 0);
}

#[test]
fn hard_down_tier_degrades_to_best_reachable_level_and_never_errors() {
    let (ds, canopus) = written();
    assert_deltas_alone_on_tier_1(&canopus);
    // Clean per-level ground truth before any faults.
    let clean = clean_levels(&ds, &canopus);
    let reader = reader(&canopus);
    // The delta tier goes down for good: no retry budget cures this.
    canopus
        .hierarchy()
        .set_fault_plan(
            1,
            FaultPlan {
                seed: 5,
                down: Some((0, u64::MAX)),
                ..FaultPlan::none()
            },
        )
        .expect("tier 1 exists");

    for target in 0..LEVELS {
        let out = reader
            .read_level(ds.var, target)
            .expect("level-only unavailability is never an error");
        // Every delta is on the down tier: the base is the best reachable.
        assert_eq!(out.level, LEVELS - 1, "asked {target}");
        assert_eq!(out.achieved_level, out.level);
        assert_eq!(out.degraded, out.level > target, "shortfall is flagged");
        assert!(out.level_exact, "whatever level is served is exact");
        assert_eq!(
            out.data, clean[out.level as usize].data,
            "degraded answer is byte-identical to a clean read of the \
             achieved level"
        );
    }
    assert_eq!(
        canopus
            .metrics()
            .counter(names::READ_DEGRADED_RESTORES)
            .get(),
        u64::from(LEVELS - 1),
        "every target finer than the base degraded, once"
    );
}

#[test]
fn warmed_metadata_moves_the_fault_to_the_fetch_stage_and_still_degrades() {
    // With cold metadata a down tier is caught while *planning* the walk
    // (the level-geometry read fails, truncating the plan). Warming the
    // metadata first makes planning succeed, so the fault surfaces for
    // the first time in the walk's prefetch stage — a
    // different shutdown path, which once deadlocked the decode pool's
    // done-channel drain. This pins: the walk terminates and degrades
    // exactly as in the planning-fault case.
    let (ds, canopus) = written();
    assert_deltas_alone_on_tier_1(&canopus);
    let clean = clean_levels(&ds, &canopus);
    let reader = reader(&canopus);
    reader.warm_metadata(ds.var).expect("warm before arming");
    canopus
        .hierarchy()
        .set_fault_plan(
            1,
            FaultPlan {
                seed: 5,
                down: Some((0, u64::MAX)),
                ..FaultPlan::none()
            },
        )
        .expect("tier 1 exists");

    let out = reader
        .read_level(ds.var, 0)
        .expect("fetch-stage unavailability is never an error");
    assert!(out.degraded, "the walk stopped short of L0");
    assert_eq!(out.level, LEVELS - 1, "no delta was reachable");
    assert_eq!(out.achieved_level, out.level);
    assert!(out.level_exact);
    assert_eq!(
        out.data, clean[out.level as usize].data,
        "fetch-stage degradation serves the same exact coarser level"
    );
    assert_eq!(
        canopus
            .metrics()
            .counter(names::READ_DEGRADED_RESTORES)
            .get(),
        1,
        "the one walk degraded"
    );
}

#[test]
fn in_flight_corruption_is_caught_by_checksums_and_cured_by_refetch() {
    let (ds, canopus) = written();
    let clean = support::stepwise_restore(&canopus, "rel.bp", ds.var, 0);
    let reader = reader(&canopus);
    // ~30% of gets deliver a bit-flipped payload; the stored object is
    // intact, so a retry fetches clean bytes.
    canopus.hierarchy().set_fault_plan_all(FaultPlan {
        seed: 21,
        corrupt_p: 0.3,
        ..FaultPlan::none()
    });

    let out = reader.read_level(ds.var, 0).expect("corruption is cured");
    assert!(!out.degraded);
    assert_eq!(
        out.data, clean.data,
        "checksum-verified refetch restores the exact bytes"
    );
    let m = canopus.metrics();
    assert!(
        m.counter(names::READ_CHECKSUM_FAILURES).get() > 0,
        "corruption must actually have been detected"
    );
    assert_eq!(
        m.counter(names::READ_CHECKSUM_FAILURES).get(),
        m.counter(names::READ_FAULTS_INJECTED).get(),
        "every observed fault here was a checksum mismatch"
    );
}

/// 0 in a manifest's checksum field once meant "unverified" (manifests
/// from before checksums). With one manifest revision it is an ordinary
/// value: zeroing the fields must not switch verification off — block
/// and chunk fetches alike fail with a mismatch, a region step errors,
/// and a level walk degrades to the base it verified before.
#[test]
fn zeroed_manifest_checksums_fail_reads() {
    let (ds, canopus) = written();
    let reader = canopus.open("rel.bp").expect("open").with_level_cache(0);
    let base = reader.read_base(ds.var).expect("the manifest is intact");

    let hier = canopus.hierarchy();
    let key = "rel.bp/.bpmeta";
    let tier = hier.find(key).expect("manifest");
    let mut meta =
        canopus_adios::FileMeta::from_bytes(&hier.remove(key).expect("manifest")).expect("parse");
    for block in meta.vars.iter_mut().flat_map(|v| &mut v.blocks) {
        // The base and its geometry stay readable.
        if block.kind.rank(LEVELS) > 0 {
            block.checksum = 0;
            block.chunks.iter_mut().for_each(|e| e.checksum = 0);
        }
    }
    hier.write_to_tier(tier, key, meta.to_bytes().into())
        .expect("republish");

    let m = canopus.metrics();
    let mismatches = m.counter(names::READ_CHECKSUM_FAILURES).get();
    let walker = canopus.open("rel.bp").expect("open").with_level_cache(0);
    let out = walker.read_level(ds.var, 0).expect("degrades");
    assert!(out.degraded, "no delta or geometry block verifies");
    assert_eq!(out.level, LEVELS - 1);
    assert_eq!(out.data, base.data);
    let err = walker
        .refine_region(ds.var, &out, ds.mesh.aabb())
        .expect_err("a region step has nothing coarser to fall back to");
    assert!(err.is_checksum_mismatch(), "{err}");
    assert!(m.counter(names::READ_CHECKSUM_FAILURES).get() > mismatches);
}

#[test]
fn fault_injection_is_deterministic_across_runs() {
    // Two identical runs under the same seed observe identical fault
    // counts and produce identical bytes.
    let run = || {
        let (ds, canopus) = written();
        let reader = canopus.open("rel.bp").expect("open").with_level_cache(0);
        canopus.hierarchy().set_fault_plan_all(FaultPlan {
            seed: 33,
            get_error_p: 0.25,
            corrupt_p: 0.1,
            ..FaultPlan::none()
        });
        let out = reader.read_level(ds.var, 0).expect("restore");
        let m = canopus.metrics();
        (
            out.data,
            out.degraded,
            m.counter(names::READ_RETRIES).get(),
            m.counter(names::READ_FAULTS_INJECTED).get(),
            m.counter(names::READ_CHECKSUM_FAILURES).get(),
        )
    };
    assert_eq!(run(), run(), "seeded schedules must replay exactly");
}
