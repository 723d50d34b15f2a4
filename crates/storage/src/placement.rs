//! Data placement across tiers (paper §III-D).
//!
//! Canopus places the (compressed) base dataset onto a fast tier and the
//! deltas onto larger but slower tiers; a tier without sufficient capacity
//! is bypassed and the next one is selected. Adjacent accuracy levels need
//! not land on adjacent physical tiers.

use crate::error::StorageError;
use crate::hierarchy::StorageHierarchy;

/// What a refactored product is, in Canopus terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProductKind {
    /// The base dataset `L^{N-1}` (paper notation), i.e. the coarsest
    /// level.
    Base { level: u32 },
    /// One shard object of the delta `delta^{l-(l+1)}` between adjacent
    /// accuracy levels: one or more independently compressed spatial
    /// chunks packed back-to-back. A chunk index in the manifest records
    /// each chunk's byte range, enabling the paper's focused data
    /// retrieval ("reading smaller subsets of high accuracy data"): the
    /// read path can fetch only the chunks intersecting a region of
    /// interest. A delta written as one chunk is one shard.
    DeltaShard {
        finer: u32,
        coarser: u32,
        shard: u32,
    },
    /// Auxiliary metadata (mesh geometry, vertex→triangle mapping) that
    /// restoration needs alongside a delta or base.
    Metadata { level: u32 },
}

impl ProductKind {
    /// Placement rank: 0 for the base (fastest tier), increasing for
    /// deltas toward full accuracy (slower tiers). Metadata shares its
    /// level's rank.
    pub fn rank(&self, num_levels: u32) -> u32 {
        let cap = num_levels.saturating_sub(1);
        let level = match *self {
            ProductKind::Base { level } | ProductKind::Metadata { level } => level,
            ProductKind::DeltaShard { finer, .. } => finer,
        };
        cap - level.min(cap)
    }
}

/// The one placement rule: scan from the product's rank tier (base →
/// fastest, deltas toward full accuracy → slower) toward slower tiers,
/// bypassing any without room for `len` bytes (paper: "it will be
/// bypassed and the next tier will be selected"). Decides only; the
/// caller writes. `pending(tier)` is the bytes already decided for a tier
/// but not yet landed (the write-behind ledger), so a streaming caller
/// that reserves decided bytes sees exactly the capacity state that
/// placing one block at a time — zero pending, then the write — would.
pub fn choose_tier(
    hierarchy: &StorageHierarchy,
    kind: ProductKind,
    len: usize,
    num_levels: u32,
    key: &str,
    pending: &dyn Fn(usize) -> u64,
) -> Result<usize, StorageError> {
    let ntiers = hierarchy.num_tiers();
    let start = (kind.rank(num_levels) as usize).min(ntiers - 1);
    for tier in start..ntiers {
        let device = hierarchy.tier_device(tier)?;
        let free = device.available().saturating_sub(pending(tier));
        if (free as usize) < len {
            continue;
        }
        let obs = hierarchy.metrics();
        obs.counter(&canopus_obs::names::placements_on_tier(tier))
            .inc();
        obs.counter(&canopus_obs::names::placement_bytes_on_tier(tier))
            .add(len as u64);
        if tier != start {
            obs.counter("storage.placement.bypasses").inc();
        }
        return Ok(tier);
    }
    Err(StorageError::PlacementFailed(format!(
        "no tier from {start} down has room for {key} ({len} B)"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tier::TierSpec;
    use crate::SimDuration;
    use bytes::Bytes;

    /// Base + two deltas for a 3-level refactoring, paper Fig. 1 shapes:
    /// `(key, kind, bytes)`.
    fn three_products() -> [(&'static str, ProductKind, usize); 3] {
        [
            ("v/L2", ProductKind::Base { level: 2 }, 25),
            (
                "v/d1-2",
                ProductKind::DeltaShard {
                    finer: 1,
                    coarser: 2,
                    shard: 0,
                },
                25,
            ),
            (
                "v/d0-1",
                ProductKind::DeltaShard {
                    finer: 0,
                    coarser: 1,
                    shard: 0,
                },
                50,
            ),
        ]
    }

    /// Place the products one at a time: decide with nothing pending,
    /// then write. Returns each key's tier and the summed write time.
    fn place(
        h: &StorageHierarchy,
        products: &[(&str, ProductKind, usize)],
        num_levels: u32,
    ) -> Result<(Vec<(String, usize)>, SimDuration), StorageError> {
        let mut tiers = Vec::new();
        let mut time = SimDuration::ZERO;
        for &(key, kind, len) in products {
            let tier = choose_tier(h, kind, len, num_levels, key, &|_| 0)?;
            time += h.write_to_tier(tier, key, Bytes::from(vec![0u8; len]))?;
            tiers.push((key.to_string(), tier));
        }
        Ok((tiers, time))
    }

    fn tier_of(tiers: &[(String, usize)], key: &str) -> Option<usize> {
        tiers.iter().find(|(k, _)| k == key).map(|&(_, t)| t)
    }

    #[test]
    fn rank_ordering() {
        // N = 3 levels: base L2 rank 0, delta(1-2) rank 1, delta(0-1) rank 2.
        assert_eq!(ProductKind::Base { level: 2 }.rank(3), 0);
        assert_eq!(
            ProductKind::DeltaShard {
                finer: 1,
                coarser: 2,
                shard: 0
            }
            .rank(3),
            1
        );
        // Every shard ranks with its delta.
        assert_eq!(
            ProductKind::DeltaShard {
                finer: 0,
                coarser: 1,
                shard: 5
            }
            .rank(3),
            2
        );
        assert_eq!(ProductKind::Metadata { level: 2 }.rank(3), 0);
    }

    #[test]
    fn rank_survives_degenerate_level_counts() {
        // num_levels == 0 used to underflow (debug panic / release wrap);
        // every kind must now clamp to rank 0.
        for kind in [
            ProductKind::Base { level: 0 },
            ProductKind::Base { level: 7 },
            ProductKind::Metadata { level: 3 },
            ProductKind::DeltaShard {
                finer: 0,
                coarser: 1,
                shard: 4,
            },
        ] {
            assert_eq!(kind.rank(0), 0, "{kind:?} must not underflow at N=0");
            assert_eq!(kind.rank(1), 0, "{kind:?} single-level rank is 0");
        }
        // Levels beyond the count clamp instead of wrapping.
        assert_eq!(ProductKind::Base { level: 9 }.rank(3), 0);
    }

    #[test]
    fn spread_maps_products_to_tiers_like_fig1() {
        // Three tiers with plenty of room: base→ST0(fastest),
        // delta(1-2)→ST1, delta(0-1)→ST2 — exactly the paper's Fig. 1.
        let h = StorageHierarchy::new(vec![
            TierSpec::new("st2-fast", 1000, 100.0, 100.0, 0.0),
            TierSpec::new("st1", 1000, 10.0, 10.0, 0.0),
            TierSpec::new("st0-slow", 1000, 1.0, 1.0, 0.0),
        ]);
        let (tiers, _) = place(&h, &three_products(), 3).unwrap();
        assert_eq!(tier_of(&tiers, "v/L2"), Some(0));
        assert_eq!(tier_of(&tiers, "v/d1-2"), Some(1));
        assert_eq!(tier_of(&tiers, "v/d0-1"), Some(2));
    }

    #[test]
    fn two_tier_titan_collapses_deltas_to_lustre() {
        // The paper's testbed: base on tmpfs, both deltas on Lustre.
        let h = StorageHierarchy::new(vec![
            TierSpec::new("tmpfs", 1000, 100.0, 100.0, 0.0),
            TierSpec::new("lustre", 10_000, 1.0, 1.0, 0.0),
        ]);
        let (tiers, _) = place(&h, &three_products(), 3).unwrap();
        assert_eq!(tier_of(&tiers, "v/L2"), Some(0));
        assert_eq!(tier_of(&tiers, "v/d1-2"), Some(1));
        assert_eq!(tier_of(&tiers, "v/d0-1"), Some(1));
    }

    #[test]
    fn full_tier_is_bypassed() {
        // Fast tier too small for the base: base must land on tier 1.
        let h = StorageHierarchy::new(vec![
            TierSpec::new("tiny", 10, 100.0, 100.0, 0.0),
            TierSpec::new("big", 10_000, 1.0, 1.0, 0.0),
        ]);
        let (tiers, _) = place(&h, &three_products(), 3).unwrap();
        assert_eq!(tier_of(&tiers, "v/L2"), Some(1));
    }

    #[test]
    fn placement_fails_when_nothing_fits() {
        let h = StorageHierarchy::new(vec![TierSpec::new("tiny", 10, 1.0, 1.0, 0.0)]);
        let err = place(&h, &three_products(), 3).unwrap_err();
        assert!(matches!(err, StorageError::PlacementFailed(_)));
    }

    #[test]
    fn write_time_accumulates_across_products() {
        let h = StorageHierarchy::new(vec![
            TierSpec::new("fast", 1000, 100.0, 100.0, 0.0),
            TierSpec::new("slow", 1000, 10.0, 10.0, 0.0),
        ]);
        let (_, time) = place(&h, &three_products(), 3).unwrap();
        // 25/100 + 25/10 + 50/10 = 0.25 + 2.5 + 5.0
        assert!((time.seconds() - 7.75).abs() < 1e-9);
    }

    #[test]
    fn choose_tier_respects_pending_reservations() {
        // Tier 0 holds 30 B free; a 25 B reservation in flight must push
        // the next 25 B product to tier 1 — the decision placing one block
        // at a time would make after the reserved block landed.
        let h = StorageHierarchy::new(vec![
            TierSpec::new("fast", 30, 100.0, 100.0, 0.0),
            TierSpec::new("slow", 1000, 1.0, 1.0, 0.0),
        ]);
        let base = ProductKind::Base { level: 2 };
        let free = choose_tier(&h, base, 25, 3, "v/L2", &|_| 0).unwrap();
        assert_eq!(free, 0);
        let reserved =
            choose_tier(&h, base, 25, 3, "v/L2", &|t| if t == 0 { 25 } else { 0 }).unwrap();
        assert_eq!(reserved, 1, "pending bytes count against capacity");
        let err = choose_tier(&h, base, 25, 3, "v/L2", &|_| 10_000).unwrap_err();
        assert!(matches!(err, StorageError::PlacementFailed(_)));
    }

    #[test]
    fn placed_bytes_are_readable() {
        let h = StorageHierarchy::new(vec![
            TierSpec::new("fast", 1000, 100.0, 100.0, 0.0),
            TierSpec::new("slow", 1000, 10.0, 10.0, 0.0),
        ]);
        place(&h, &three_products(), 3).unwrap();
        for key in ["v/L2", "v/d1-2", "v/d0-1"] {
            let (data, _, _) = h.read(key).unwrap();
            assert!(!data.is_empty());
        }
    }
}
