//! Integration tests for workload-adaptive tier placement (PR 9).
//!
//! Everything here runs on the deterministic `SimClock` / logical access
//! clock, so the policy tests are exact: a skewed read stream promotes
//! the hot set into the fast tier, a shifted stream swaps the new hot
//! set in (demoting the stale one), and the swap-margin hysteresis
//! keeps alternating equal-heat access from ping-ponging objects
//! between tiers. The property test then hammers raw migrations with
//! concurrent readers and checks the copy-verify-then-remove invariant
//! end to end: no read ever fails, and no key is ever lost, duplicated
//! across tiers, or corrupted.

use bytes::Bytes;
use canopus::{TierMigrator, TieringPolicy};
use canopus_storage::{StorageHierarchy, TierSpec};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Two-tier hierarchy with the given byte capacities; bandwidths are
/// lopsided (fast tier 100x) so placement visibly matters.
fn two_tier(fast: u64, slow: u64) -> Arc<StorageHierarchy> {
    Arc::new(StorageHierarchy::new(vec![
        TierSpec::new("fast", fast, 1e9, 1e9, 1e-6),
        TierSpec::new("slow", slow, 1e7, 1e7, 1e-3),
    ]))
}

/// Deterministic payload for object `i`: recognizable fill byte so any
/// cross-key mixup shows up as a content mismatch, not just a length one.
fn payload(i: usize, len: usize) -> Bytes {
    Bytes::from(vec![(i * 37 + 11) as u8; len])
}

#[test]
fn shifting_hot_set_tracks_into_the_fast_tier() {
    // Fast tier: 500 B, high watermark 0.90 -> at most 450 B may be
    // resident. Eight 100 B objects, all written cold to the slow tier.
    let h = two_tier(500, 1 << 20);
    let keys: Vec<String> = (0..8).map(|i| format!("obj/{i}")).collect();
    for (i, k) in keys.iter().enumerate() {
        h.write_to_tier(1, k, payload(i, 100)).expect("seed write");
    }
    let policy = TieringPolicy {
        cooldown_ticks: 2,
        ..TieringPolicy::new()
    };
    let migrator = TierMigrator::new(Arc::clone(&h), policy);

    // Phase 1: skew the reads onto the first four objects. Four hits
    // each clears `promote_hits`, and 400 B fits under the watermark.
    for _ in 0..4 {
        for k in &keys[..4] {
            h.read(k).expect("hot read");
        }
    }
    let warm = migrator.maintain();
    assert!(warm.promotions > 0, "hot keys must promote: {warm:?}");
    for k in &keys[..4] {
        assert_eq!(h.find(k).expect("found"), 0, "{k} belongs on fast");
    }
    for k in &keys[4..] {
        assert_eq!(h.find(k).expect("found"), 1, "{k} was never touched");
    }
    // Steady state: with no new accesses there is nothing left to move.
    assert_eq!(migrator.maintain().moves(), 0, "idle ticks must be no-ops");

    // Phase 2: the workload shifts — the other four objects go hot
    // while the old hot set cools off. The fast tier is full past its
    // watermark for any newcomer, so every promotion must displace a
    // (now much colder) stale resident via the swap path.
    for _ in 0..10 {
        for k in &keys[4..] {
            h.read(k).expect("shifted read");
        }
    }
    let (mut promoted, mut demoted) = (0u32, 0u32);
    for _ in 0..6 {
        let r = migrator.maintain();
        promoted += r.promotions;
        demoted += r.demotions;
    }
    assert!(promoted > 0, "new hot set must promote");
    assert!(demoted > 0, "stale hot set must make room");
    let new_on_fast = keys[4..]
        .iter()
        .filter(|k| h.find(k).expect("found") == 0)
        .count();
    let old_on_slow = keys[..4]
        .iter()
        .filter(|k| h.find(k).expect("found") == 1)
        .count();
    assert!(new_on_fast >= 3, "shifted hot set on fast: {new_on_fast}/4");
    assert!(old_on_slow >= 3, "stale set demoted: {old_on_slow}/4");

    // The watermark invariant held through every swap: promotions only
    // ever land in (created) headroom, never above the high watermark.
    let used = h.tier_device(0).expect("t0").used();
    assert!(used <= 450, "fast tier above high watermark: {used} B");

    // And nothing was lost or corrupted by all the churn.
    for (i, k) in keys.iter().enumerate() {
        let (data, _, _) = h.read(k).expect("survives churn");
        assert_eq!(data, payload(i, 100), "{k} bytes intact");
    }
}

#[test]
fn equal_heat_alternation_does_not_ping_pong() {
    // Fast tier fits exactly one object under its watermark (0.9 * 150
    // = 135 B). Promote "a", then alternate reads between "a" and "b"
    // so their heats stay comparable: without the swap margin the two
    // would thrash places every tick; with it, nothing moves at all.
    let h = two_tier(150, 1 << 20);
    for (i, k) in ["a", "b"].iter().enumerate() {
        h.write_to_tier(1, k, payload(i, 100)).expect("seed write");
    }
    let migrator = TierMigrator::new(Arc::clone(&h), TieringPolicy::new());

    for _ in 0..4 {
        h.read("a").expect("warm a");
    }
    assert!(migrator.maintain().promotions > 0, "a promotes first");
    assert_eq!(h.find("a").expect("found"), 0);

    let mut later_moves = 0;
    for _ in 0..12 {
        h.read("a").expect("read a");
        h.read("b").expect("read b");
        later_moves += migrator.maintain().moves();
    }
    assert_eq!(
        later_moves, 0,
        "equal-heat rivals must not displace each other"
    );
    assert_eq!(h.find("a").expect("found"), 0, "a stays resident");
    assert_eq!(h.find("b").expect("found"), 1, "b never swaps in");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Migration under concurrent readers never loses, duplicates, or
    /// corrupts a key: readers spin on `read()` and `read_range()`
    /// (both ride the one find/get retry that covers the
    /// copy-verify-then-remove window) while the main thread shuttles
    /// every key between tiers; at the end each key lives on exactly
    /// one tier with its exact bytes.
    #[test]
    fn concurrent_readers_never_observe_loss_or_corruption(
        nkeys in 3usize..8,
        size in 64usize..400,
        rounds in 2usize..5,
        readers in 1usize..4,
    ) {
        let h = two_tier(1 << 22, 1 << 26);
        h.enable_access_tracking(); // tracker bookkeeping rides along
        let keys: Vec<String> = (0..nkeys).map(|i| format!("prop/{i}")).collect();
        for (i, k) in keys.iter().enumerate() {
            h.write_to_tier(1, k, payload(i, size + i)).expect("seed write");
        }

        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for r in 0..readers {
                let (h, keys, stop) = (&h, &keys, &stop);
                scope.spawn(move || {
                    let mut i = r;
                    while !stop.load(Ordering::Relaxed) {
                        let idx = i % keys.len();
                        let whole = payload(idx, size + idx);
                        // Whole and ranged reads take turns; a range is
                        // how one chunk of a shard object is fetched.
                        let (data, want) = if i % 2 == 0 {
                            let (data, _, _) = h
                                .read(&keys[idx])
                                .expect("reads must never fail mid-migration");
                            (data, whole)
                        } else {
                            let (offset, len) = (i % (size / 2), size / 2 + idx);
                            let (data, _, _) = h
                                .read_range(&keys[idx], offset as u64, len as u64)
                                .expect("ranged reads must never fail mid-migration");
                            (data, whole.slice(offset..offset + len))
                        };
                        assert_eq!(
                            data, want,
                            "mid-migration read of {} corrupted",
                            keys[idx]
                        );
                        i += 1;
                    }
                });
            }
            for round in 0..rounds {
                for (i, k) in keys.iter().enumerate() {
                    let target = (round + i) % 2;
                    h.migrate(k, target).expect("unfaulted migrate succeeds");
                }
            }
            stop.store(true, Ordering::Relaxed);
        });

        for (i, k) in keys.iter().enumerate() {
            let on_fast = h.tier_device(0).expect("t0").contains(k);
            let on_slow = h.tier_device(1).expect("t1").contains(k);
            prop_assert!(
                on_fast ^ on_slow,
                "{} must live on exactly one tier (fast={}, slow={})",
                k, on_fast, on_slow
            );
            let (data, _, _) = h.read(k).expect("final read");
            prop_assert_eq!(data, payload(i, size + i), "{} bytes exact", k);
        }
    }
}
