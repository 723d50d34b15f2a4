//! Property-based tests for the storage substrate: capacity, placement
//! and accounting invariants under arbitrary workloads.

use bytes::Bytes;
use canopus_storage::{choose_tier, Device, ProductKind, StorageError, StorageHierarchy, TierSpec};
use proptest::prelude::*;

fn hierarchy(caps: &[u64]) -> StorageHierarchy {
    StorageHierarchy::new(
        caps.iter()
            .enumerate()
            .map(|(i, &c)| {
                TierSpec::new(
                    format!("t{i}"),
                    c,
                    1e6 / (i as f64 + 1.0),
                    1e6 / (i as f64 + 1.0),
                    1e-5 * (i as f64 + 1.0),
                )
            })
            .collect(),
    )
}

proptest! {
    /// Whatever the product sizes and tier capacities, placing one
    /// product at a time either succeeds with no tier over capacity, or
    /// fails cleanly — and on success every product is readable
    /// bit-for-bit.
    #[test]
    fn placement_respects_capacity(
        caps in proptest::collection::vec(64u64..4096, 1..4),
        sizes in proptest::collection::vec(1usize..2048, 1..8),
    ) {
        let h = hierarchy(&caps);
        let products: Vec<(String, ProductKind, Bytes)> = sizes
            .iter()
            .enumerate()
            .map(|(i, &sz)| (
                format!("p{i}"),
                ProductKind::DeltaShard { finer: i as u32, coarser: i as u32 + 1, shard: 0 },
                Bytes::from(vec![(i & 0xFF) as u8; sz]),
            ))
            .collect();
        let n = sizes.len() as u32 + 1;
        let outcome = products
            .iter()
            .map(|(key, kind, data)| {
                let (tier, _) = h.place(key, data.clone(), |h| {
                    choose_tier(h, *kind, data.len(), n, key)
                })?;
                Ok(tier)
            })
            .collect::<Result<Vec<usize>, StorageError>>();
        for t in 0..h.num_tiers() {
            let dev = h.tier_device(t).unwrap();
            prop_assert!(dev.used() <= dev.capacity());
        }
        if let Ok(tiers) = outcome {
            prop_assert_eq!(tiers.len(), products.len());
            for (key, _, bytes) in &products {
                let (data, _, _) = h.read(key).unwrap();
                prop_assert_eq!(data, bytes.clone());
            }
        }
    }

    /// The simulated clock only moves forward and matches the sum of
    /// reported durations.
    #[test]
    fn clock_matches_reported_durations(
        sizes in proptest::collection::vec(1usize..512, 1..10),
    ) {
        let h = hierarchy(&[1 << 20]);
        let mut total = 0.0;
        for (i, &sz) in sizes.iter().enumerate() {
            let dt = h
                .write_to_tier(0, &format!("k{i}"), Bytes::from(vec![0u8; sz]))
                .unwrap();
            prop_assert!(dt.seconds() > 0.0);
            total += dt.seconds();
            let (_, _, rt) = h.read(&format!("k{i}")).unwrap();
            total += rt.seconds();
        }
        prop_assert!((h.clock().now().seconds() - total).abs() < 1e-6);
    }

    /// Accounting invariant, both backends: after an arbitrary sequence
    /// of puts and removes (some rejected for capacity or duplicate
    /// keys), `used` always equals the summed size of the indexed
    /// objects, and a file-backed reopen re-derives the same number.
    #[test]
    fn used_equals_sum_of_indexed_object_sizes(
        ops in proptest::collection::vec((0u8..8, 0usize..128), 1..24),
        file_backed in any::<bool>(),
    ) {
        // A directory of this case's own. The vendored `proptest!`
        // emits a `#[test]` beside the one written above, so this
        // property is registered twice and its two copies run on
        // parallel threads; under a name shared by both (it used to be
        // the pid alone) one copy's clean-up removed the directory the
        // other was about to reopen — the ENOENT this test failed with.
        static CASE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "canopus_prop_used_{}_{}",
            std::process::id(),
            CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let dev = if file_backed {
            Device::file_backed("t", 512, &dir).unwrap()
        } else {
            Device::new("t", 512)
        };
        for (slot, sz) in ops {
            let key = format!("k{}", slot % 4);
            if slot < 4 {
                let _ = dev.put(&key, Bytes::from(vec![slot; sz]));
            } else {
                let _ = dev.remove(&key);
            }
            let expected: u64 = dev
                .keys()
                .iter()
                .map(|k| dev.size_of(k).unwrap())
                .sum();
            prop_assert_eq!(dev.used(), expected);
            prop_assert_eq!(dev.available(), 512 - expected);
        }
        if file_backed {
            let expected = dev.used();
            drop(dev);
            let reopened = Device::file_backed("t", 512, &dir).unwrap();
            prop_assert_eq!(reopened.used(), expected);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
