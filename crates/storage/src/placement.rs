//! Data placement across tiers (paper §III-D).
//!
//! Canopus places the (compressed) base dataset onto a fast tier and the
//! deltas onto larger but slower tiers; a tier without sufficient capacity
//! is bypassed and the next one is selected. Adjacent accuracy levels need
//! not land on adjacent physical tiers.

use crate::error::StorageError;
use crate::hierarchy::StorageHierarchy;
use crate::SimDuration;
use bytes::Bytes;

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

/// One payload to place.
#[derive(Debug, Clone)]
pub struct Product {
    /// Storage key (unique within the hierarchy).
    pub key: String,
    pub kind: ProductKind,
    pub data: Bytes,
}

/// The outcome of placing a product set.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementPlan {
    /// `(product key, tier index)` in placement order.
    pub assignments: Vec<(String, usize)>,
    /// Total simulated write time.
    pub write_time: SimDuration,
}

impl PlacementPlan {
    /// Tier index assigned to `key`, if any.
    pub fn tier_of(&self, key: &str) -> Option<usize> {
        self.assignments
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, t)| t)
    }
}

/// Placement strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// The paper's policy: product rank selects the starting tier
    /// (base → fastest, later deltas → slower), scanning downward past
    /// full tiers.
    #[default]
    RankSpread,
    /// Greedy: every product tries the fastest tier first. Used as an
    /// ablation baseline.
    FastestFirst,
}

impl PlacementPolicy {
    /// Place `products` (base first, then deltas coarse→fine) onto the
    /// hierarchy, writing the real bytes and advancing simulated time.
    ///
    /// `num_levels` is the total level count `N` used to compute ranks.
    pub fn place(
        &self,
        hierarchy: &StorageHierarchy,
        products: &[Product],
        num_levels: u32,
    ) -> Result<PlacementPlan, StorageError> {
        let mut assignments = Vec::with_capacity(products.len());
        let mut write_time = SimDuration::ZERO;

        for product in products {
            let tier = self.choose_tier(
                hierarchy,
                product.kind,
                product.data.len(),
                num_levels,
                &product.key,
                &|_| 0,
            )?;
            let dt = hierarchy.write_to_tier(tier, &product.key, product.data.clone())?;
            write_time += dt;
            assignments.push((product.key.clone(), tier));
        }
        Ok(PlacementPlan {
            assignments,
            write_time,
        })
    }

    /// One placement decision without the write: scan from the product's
    /// ideal tier toward slower tiers, bypassing any without room
    /// (paper: "it will be bypassed and the next tier will be
    /// selected"). `pending(tier)` is the bytes already decided for a
    /// tier but not yet landed (the write-behind ledger); the serial
    /// path passes zero, so a streaming caller that reserves decided
    /// bytes sees exactly the capacity state the serial path would and
    /// makes byte-identical decisions.
    pub fn choose_tier(
        &self,
        hierarchy: &StorageHierarchy,
        kind: ProductKind,
        len: usize,
        num_levels: u32,
        key: &str,
        pending: &dyn Fn(usize) -> u64,
    ) -> Result<usize, StorageError> {
        let ntiers = hierarchy.num_tiers();
        let start = match self {
            PlacementPolicy::RankSpread => (kind.rank(num_levels) as usize).min(ntiers - 1),
            PlacementPolicy::FastestFirst => 0,
        };
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tier::TierSpec;

    fn product(key: &str, kind: ProductKind, size: usize) -> Product {
        Product {
            key: key.into(),
            kind,
            data: Bytes::from(vec![0u8; size]),
        }
    }

    /// Base + two deltas for a 3-level refactoring, paper Fig. 1 shapes.
    fn three_products() -> Vec<Product> {
        vec![
            product("v/L2", ProductKind::Base { level: 2 }, 25),
            product(
                "v/d1-2",
                ProductKind::DeltaShard {
                    finer: 1,
                    coarser: 2,
                    shard: 0,
                },
                25,
            ),
            product(
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
        let plan = PlacementPolicy::RankSpread
            .place(&h, &three_products(), 3)
            .unwrap();
        assert_eq!(plan.tier_of("v/L2"), Some(0));
        assert_eq!(plan.tier_of("v/d1-2"), Some(1));
        assert_eq!(plan.tier_of("v/d0-1"), Some(2));
    }

    #[test]
    fn two_tier_titan_collapses_deltas_to_lustre() {
        // The paper's testbed: base on tmpfs, both deltas on Lustre.
        let h = StorageHierarchy::new(vec![
            TierSpec::new("tmpfs", 1000, 100.0, 100.0, 0.0),
            TierSpec::new("lustre", 10_000, 1.0, 1.0, 0.0),
        ]);
        let plan = PlacementPolicy::RankSpread
            .place(&h, &three_products(), 3)
            .unwrap();
        assert_eq!(plan.tier_of("v/L2"), Some(0));
        assert_eq!(plan.tier_of("v/d1-2"), Some(1));
        assert_eq!(plan.tier_of("v/d0-1"), Some(1));
    }

    #[test]
    fn full_tier_is_bypassed() {
        // Fast tier too small for the base: base must land on tier 1.
        let h = StorageHierarchy::new(vec![
            TierSpec::new("tiny", 10, 100.0, 100.0, 0.0),
            TierSpec::new("big", 10_000, 1.0, 1.0, 0.0),
        ]);
        let plan = PlacementPolicy::RankSpread
            .place(&h, &three_products(), 3)
            .unwrap();
        assert_eq!(plan.tier_of("v/L2"), Some(1));
    }

    #[test]
    fn placement_fails_when_nothing_fits() {
        let h = StorageHierarchy::new(vec![TierSpec::new("tiny", 10, 1.0, 1.0, 0.0)]);
        let err = PlacementPolicy::RankSpread
            .place(&h, &three_products(), 3)
            .unwrap_err();
        assert!(matches!(err, StorageError::PlacementFailed(_)));
    }

    #[test]
    fn fastest_first_piles_onto_tier_zero() {
        let h = StorageHierarchy::new(vec![
            TierSpec::new("fast", 1000, 100.0, 100.0, 0.0),
            TierSpec::new("slow", 1000, 1.0, 1.0, 0.0),
        ]);
        let plan = PlacementPolicy::FastestFirst
            .place(&h, &three_products(), 3)
            .unwrap();
        for (_, tier) in &plan.assignments {
            assert_eq!(*tier, 0);
        }
    }

    #[test]
    fn write_time_accumulates_across_products() {
        let h = StorageHierarchy::new(vec![
            TierSpec::new("fast", 1000, 100.0, 100.0, 0.0),
            TierSpec::new("slow", 1000, 10.0, 10.0, 0.0),
        ]);
        let plan = PlacementPolicy::RankSpread
            .place(&h, &three_products(), 3)
            .unwrap();
        // 25/100 + 25/10 + 50/10 = 0.25 + 2.5 + 5.0
        assert!((plan.write_time.seconds() - 7.75).abs() < 1e-9);
    }

    #[test]
    fn choose_tier_respects_pending_reservations() {
        // Tier 0 holds 30 B free; a 25 B reservation in flight must push
        // the next 25 B product to tier 1 — the decision the serial path
        // would make after the reserved block landed.
        let h = StorageHierarchy::new(vec![
            TierSpec::new("fast", 30, 100.0, 100.0, 0.0),
            TierSpec::new("slow", 1000, 1.0, 1.0, 0.0),
        ]);
        let base = ProductKind::Base { level: 2 };
        let free = PlacementPolicy::RankSpread
            .choose_tier(&h, base, 25, 3, "v/L2", &|_| 0)
            .unwrap();
        assert_eq!(free, 0);
        let reserved = PlacementPolicy::RankSpread
            .choose_tier(&h, base, 25, 3, "v/L2", &|t| if t == 0 { 25 } else { 0 })
            .unwrap();
        assert_eq!(reserved, 1, "pending bytes count against capacity");
        let err = PlacementPolicy::RankSpread
            .choose_tier(&h, base, 25, 3, "v/L2", &|_| 10_000)
            .unwrap_err();
        assert!(matches!(err, StorageError::PlacementFailed(_)));
    }

    #[test]
    fn placed_bytes_are_readable() {
        let h = StorageHierarchy::new(vec![
            TierSpec::new("fast", 1000, 100.0, 100.0, 0.0),
            TierSpec::new("slow", 1000, 10.0, 10.0, 0.0),
        ]);
        PlacementPolicy::RankSpread
            .place(&h, &three_products(), 3)
            .unwrap();
        for key in ["v/L2", "v/d1-2", "v/d0-1"] {
            let (data, _, _) = h.read(key).unwrap();
            assert!(!data.is_empty());
        }
    }
}
