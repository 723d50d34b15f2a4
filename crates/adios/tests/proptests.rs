//! Property-based tests for the BP metadata serialization and store.

use bytes::Bytes;
use canopus_adios::store::{block_key, BlockWrite};
use canopus_adios::{BlockMeta, BpStore, ChunkEntry, FileMeta, VarMeta};
use canopus_storage::{ProductKind, StorageHierarchy, TierSpec};
use proptest::prelude::*;
use std::sync::Arc;

fn arb_kind() -> impl Strategy<Value = ProductKind> {
    prop_oneof![
        (0u32..16).prop_map(|level| ProductKind::Base { level }),
        (0u32..16, 1u32..17, 0u32..64).prop_map(|(finer, d, shard)| {
            ProductKind::DeltaShard {
                finer,
                coarser: finer + d,
                shard,
            }
        }),
        (0u32..16).prop_map(|level| ProductKind::Metadata { level }),
    ]
}

/// One chunk-index entry; `offset` holds the gap to the previous
/// entry's end until `arb_block` lays the entries out.
fn arb_chunk_entry() -> impl Strategy<Value = ChunkEntry> {
    (
        0u32..64,
        0u64..1_000,
        0u64..1_000_000,
        0u64..1_000_000,
        any::<u64>(),
        (-1e9f64..1e9, -1e9f64..1e9, -1e9f64..1e9, -1e9f64..1e9),
        (-1e9f64..1e9, -1e9f64..1e9, 0u8..4),
    )
        .prop_map(
            |(
                chunk,
                offset,
                len,
                elements,
                checksum,
                (bx0, by0, bx1, by1),
                (min, max, codec_id),
            )| {
                ChunkEntry {
                    chunk,
                    offset,
                    len,
                    elements,
                    checksum,
                    bbox: [bx0, by0, bx1, by1],
                    min,
                    max,
                    codec_id,
                }
            },
        )
}

/// A block whose chunk index is consistent with it, as
/// `FileMeta::from_bytes` demands: entries ascend without overlapping
/// inside the stored bytes, and their element counts add up. A shard
/// always has an index; a base may (it is checked when present); a
/// geometry block's is its two sections, tiling the stored bytes.
fn arb_block() -> impl Strategy<Value = BlockMeta> {
    (
        "[a-z0-9/._-]{1,40}",
        arb_kind(),
        0u64..1_000,
        0u8..4,
        -1e9f64..1e9,
        0u64..1_000_000,
        0u64..1_000_000,
        -1e9f64..1e9,
        (
            -1e9f64..1e9,
            any::<u64>(),
            proptest::collection::vec(arb_chunk_entry(), 0..4),
        ),
    )
        .prop_map(
            |(
                key,
                kind,
                slack,
                codec_id,
                codec_param,
                raw,
                stored,
                min,
                (max, checksum, mut chunks),
            )| {
                let geometry = matches!(kind, ProductKind::Metadata { .. });
                if geometry {
                    let filler = ChunkEntry {
                        chunk: 0,
                        offset: 0,
                        len: slack,
                        elements: raw,
                        checksum,
                        bbox: [0.0; 4],
                        min: 0.0,
                        max: 0.0,
                        codec_id: 0,
                    };
                    chunks.resize(2, filler);
                }
                let mut end = 0;
                for (at, e) in chunks.iter_mut().enumerate() {
                    if geometry {
                        (e.chunk, e.offset) = (at as u32, 0);
                    }
                    e.offset += end;
                    end = e.offset + e.len;
                }
                let slack = if geometry { 0 } else { slack };
                let indexed = !chunks.is_empty() || matches!(kind, ProductKind::DeltaShard { .. });
                BlockMeta {
                    key,
                    kind,
                    elements: if geometry {
                        0
                    } else if indexed {
                        chunks.iter().map(|e| e.elements).sum()
                    } else {
                        stored / 8
                    },
                    codec_id,
                    codec_param,
                    raw_bytes: raw,
                    stored_bytes: if indexed { end + slack } else { stored },
                    min,
                    max,
                    checksum,
                    chunks,
                }
            },
        )
}

fn arb_meta() -> impl Strategy<Value = FileMeta> {
    (
        "[a-z0-9._-]{1,20}",
        0u32..8,
        proptest::collection::vec(
            (
                "[a-zA-Z0-9 _-]{1,20}",
                proptest::collection::vec(arb_block(), 0..6),
            ),
            0..4,
        ),
        proptest::collection::vec(("[a-z]{1,10}", "[ -~]{0,30}"), 0..4),
    )
        .prop_map(|(name, num_levels, vars, attrs)| FileMeta {
            name,
            num_levels,
            vars: vars
                .into_iter()
                .map(|(name, blocks)| {
                    let mut v = VarMeta::new(name);
                    v.blocks = blocks;
                    v
                })
                .collect(),
            attrs,
        })
}

/// Ways a manifest can be wrong that a flipped or missing byte rarely
/// produces: an earlier format revision, a delta kind no writer emits
/// any more, a chunk index that contradicts its block, a geometry block
/// whose sections are not the two that tile it.
#[derive(Debug, Clone, Copy)]
enum Damage {
    None,
    /// `CBP1` / `CBP2`.
    OldMagic(u8),
    /// Tags 1 (monolithic delta) and 3 (one object per chunk).
    RetiredTag(u8),
    Overlap,
    PastEnd,
    ElementsOff,
    MissingSections,
    SwappedSections,
    OverlappingSections,
    ShortSections,
}

fn arb_damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        Just(Damage::None),
        (1u8..3).prop_map(|rev| Damage::OldMagic(b'0' + rev)),
        prop_oneof![Just(1u8), Just(3u8)].prop_map(Damage::RetiredTag),
        Just(Damage::Overlap),
        Just(Damage::PastEnd),
        Just(Damage::ElementsOff),
        Just(Damage::MissingSections),
        Just(Damage::SwappedSections),
        Just(Damage::OverlappingSections),
        Just(Damage::ShortSections),
    ]
}

/// `meta` serialized with `damage` applied, and whether the damage took
/// (an index can only be broken where there is one).
fn damaged(mut meta: FileMeta, damage: Damage) -> (Vec<u8>, bool) {
    let is_geometry = |b: &BlockMeta| matches!(b.kind, ProductKind::Metadata { .. });
    let sections = matches!(
        damage,
        Damage::MissingSections
            | Damage::SwappedSections
            | Damage::OverlappingSections
            | Damage::ShortSections
    );
    let indexed = meta
        .vars
        .iter_mut()
        .flat_map(|v| &mut v.blocks)
        .find(|b| is_geometry(b) == sections && b.chunks.len() >= 2);
    let took = match (damage, indexed) {
        (Damage::MissingSections, Some(b)) => {
            b.chunks.clear();
            true
        }
        (Damage::SwappedSections, Some(b)) => {
            b.chunks.swap(0, 1);
            true
        }
        (Damage::OverlappingSections, Some(b)) => {
            b.chunks[0].len += 1;
            true
        }
        (Damage::ShortSections, Some(b)) => {
            b.stored_bytes += 1;
            true
        }
        (Damage::Overlap, Some(b)) => {
            // Below the first entry's end, or far past the object.
            b.chunks[1].offset = b.chunks[0].offset.wrapping_sub(1);
            true
        }
        (Damage::PastEnd, Some(b)) => {
            b.chunks[1].len = b.stored_bytes + 1;
            true
        }
        (Damage::ElementsOff, Some(b)) => {
            b.elements += 1;
            true
        }
        _ => false,
    };
    // The first block's kind tag follows its key.
    let first_tag = meta
        .vars
        .iter()
        .position(|v| !v.blocks.is_empty())
        .map(|at| {
            let skipped: usize = meta.vars[..at].iter().map(|v| 8 + v.name.len()).sum();
            let var = &meta.vars[at];
            4 + (4 + meta.name.len())
                + 8
                + skipped
                + (8 + var.name.len())
                + (4 + var.blocks[0].key.len())
        });
    let mut bytes = meta.to_bytes();
    match (damage, first_tag) {
        (Damage::OldMagic(rev), _) => {
            bytes[3] = rev;
            (bytes, true)
        }
        (Damage::RetiredTag(tag), Some(at)) => {
            assert!(matches!(bytes[at], 0 | 2 | 4), "kind tag at {at}");
            bytes[at] = tag;
            (bytes, true)
        }
        _ => (bytes, took),
    }
}

proptest! {
    /// Arbitrary metadata serializes and parses back identically.
    #[test]
    fn meta_roundtrip(meta in arb_meta()) {
        let bytes = meta.to_bytes();
        let back = FileMeta::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, meta);
    }

    /// Truncating serialized metadata anywhere yields an error, never a
    /// panic or a silent partial parse.
    #[test]
    fn truncated_meta_errors(meta in arb_meta(), damage in arb_damage(), cut_frac in 0.0f64..1.0) {
        let (bytes, _) = damaged(meta, damage);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        if cut < bytes.len() {
            prop_assert!(FileMeta::from_bytes(&bytes[..cut]).is_err());
        }
    }

    /// Flipping one byte either errors or parses into *something* — but
    /// never panics; and a retired revision, a retired kind tag or an
    /// inconsistent chunk index is always `Corrupt`, never a manifest a
    /// reader would go on to slice payloads by.
    #[test]
    fn corrupted_meta_never_panics(
        meta in arb_meta(),
        damage in arb_damage(),
        pos in 0usize..4096,
        x in any::<u8>(),
    ) {
        let (mut bytes, took) = damaged(meta, damage);
        if took {
            prop_assert!(
                matches!(FileMeta::from_bytes(&bytes), Err(canopus_adios::AdiosError::Corrupt(_))),
                "{:?} must be rejected", damage
            );
        }
        let pos = pos % bytes.len().max(1);
        if pos < bytes.len() {
            bytes[pos] ^= x;
        }
        let _ = FileMeta::from_bytes(&bytes);
    }

    /// Block keys are unique per (file, var, kind).
    #[test]
    fn block_keys_injective(a in arb_kind(), b in arb_kind()) {
        let ka = block_key("f", "v", a);
        let kb = block_key("f", "v", b);
        prop_assert_eq!(a == b, ka == kb, "{:?} vs {:?}", a, b);
    }

    /// Writing arbitrary payload sets and reading them back through the
    /// store is bit-exact, whatever the sizes.
    #[test]
    fn store_roundtrip(sizes in proptest::collection::vec(1usize..2000, 1..6)) {
        let h = Arc::new(StorageHierarchy::new(vec![
            TierSpec::new("fast", 1 << 14, 1e9, 1e9, 0.0),
            TierSpec::new("slow", 1 << 24, 1e6, 1e6, 1e-4),
        ]));
        let store = BpStore::new(h);
        let blocks: Vec<BlockWrite> = sizes
            .iter()
            .enumerate()
            .map(|(i, &sz)| {
                let data = Bytes::from(vec![(i % 251) as u8; sz]);
                BlockWrite {
                    var: "v".into(),
                    kind: ProductKind::DeltaShard { finer: i as u32, coarser: i as u32 + 1, shard: 0 },
                    elements: sz as u64 / 8,
                    codec_id: 0,
                    codec_param: 0.0,
                    raw_bytes: sz as u64,
                    min: 0.0,
                    max: 1.0,
                    chunks: vec![ChunkEntry {
                        chunk: 0,
                        offset: 0,
                        len: sz as u64,
                        elements: sz as u64 / 8,
                        checksum: canopus_adios::checksum64(&data),
                        bbox: [0.0, 0.0, 1.0, 1.0],
                        min: 0.0,
                        max: 1.0,
                        codec_id: 0,
                    }],
                    data,
                }
            })
            .collect();
        let mut write = store.begin_write("f.bp", sizes.len() as u32 + 1, 2);
        for b in blocks {
            write.push(b).unwrap();
        }
        write.commit().unwrap();
        let f = store.open("f.bp").unwrap();
        for (i, &sz) in sizes.iter().enumerate() {
            let shard = f.inq_var("v").unwrap().delta_shards_to(i as u32)[0].clone();
            for bytes in [
                f.read_block(&shard).unwrap().0,
                f.read_block_range(&shard, &shard.chunks[0]).unwrap().0,
            ] {
                prop_assert_eq!(bytes.len(), sz);
                prop_assert!(bytes.iter().all(|&b| b == (i % 251) as u8));
            }
        }
    }
}
