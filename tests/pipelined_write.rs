//! The level-streaming write engine (decimation overlapped with
//! mapping/delta/compression workers, blocks placed in order) pinned
//! without a twin: the exact bytes it places on each tier are fixed by a
//! digest table, every level it stores restores bit for bit to what an
//! in-memory refactoring of the same input computes, and two writes of
//! one input are byte-identical. The products it places must
//! also round-trip through the restore engine.

use bytes::Bytes;
use canopus::config::RelativeCodec;
use canopus::{Canopus, CanopusConfig, CanopusError, FaultPlan, RetryPolicy};
use canopus_adios::checksum64;
use canopus_adios::store::BlockWrite;
use canopus_adios::BpStore;
use canopus_compress::CodecKind;
use canopus_data::xgc1_dataset_sized;
use canopus_mesh::generators::{jitter_interior, rectangle_mesh};
use canopus_mesh::geometry::{Aabb, Point2};
use canopus_mesh::TriMesh;
use canopus_refactor::levels::RefactorConfig;
use canopus_refactor::LevelHierarchy;
use canopus_storage::{ProductKind, StorageHierarchy, TierSpec};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};

fn written(
    mesh: &TriMesh,
    data: &[f64],
    codec: RelativeCodec,
    levels: u32,
    chunks: u32,
) -> Canopus {
    let raw = (data.len() * 8) as u64;
    let canopus = Canopus::new(
        Arc::new(StorageHierarchy::titan_two_tier(raw / 4, raw * 64)),
        CanopusConfig {
            refactor: RefactorConfig {
                num_levels: levels,
                ..Default::default()
            },
            codec,
            delta_chunks: chunks,
            ..Default::default()
        },
    );
    canopus.write("eq.bp", "v", mesh, data).expect("write");
    canopus
}

/// Full dump of the hierarchy: key → (tier index, stored bytes). Reads
/// the devices directly so the dump itself moves no simulated I/O.
fn tier_contents(c: &Canopus) -> BTreeMap<String, (usize, Vec<u8>)> {
    let h = c.hierarchy();
    let mut out = BTreeMap::new();
    for tier in 0..h.num_tiers() {
        let dev = h.tier_device(tier).expect("tier device");
        for key in dev.keys() {
            let bytes = dev.get(&key).expect("stored block").to_vec();
            let prev = out.insert(key.clone(), (tier, bytes));
            assert!(prev.is_none(), "{key} stored on two tiers");
        }
    }
    out
}

/// One `checksum64` over the sorted dump: per entry the key's length and
/// bytes, the tier, the payload's length and bytes (lengths and the tier
/// as little-endian `u64`s).
fn digest(c: &Canopus) -> u64 {
    let mut buf = Vec::new();
    for (key, (tier, bytes)) in tier_contents(c) {
        buf.extend_from_slice(&(key.len() as u64).to_le_bytes());
        buf.extend_from_slice(key.as_bytes());
        buf.extend_from_slice(&(tier as u64).to_le_bytes());
        buf.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        buf.extend_from_slice(&bytes);
    }
    checksum64(&buf)
}

fn small_case() -> (TriMesh, Vec<f64>) {
    let ds = xgc1_dataset_sized(14, 70, 11);
    (ds.mesh, ds.data)
}

fn codec(name: &str) -> RelativeCodec {
    match name {
        "zfp" => RelativeCodec::ZfpLike {
            rel_tolerance: 1e-5,
        },
        "sz" => RelativeCodec::SzLike {
            rel_error_bound: 1e-5,
        },
        "fpc" => RelativeCodec::Fpc,
        "raw" => RelativeCodec::Raw,
        other => panic!("no codec {other}"),
    }
}

/// `(codec, levels, chunks, digest)` of [`small_case`] written under
/// every codec × level count × chunking: one chunk (identity
/// assignment), one shard of Morton chunks, two shards. Captured from
/// the serial barrier writer (refactor the whole chain, then compress,
/// then place) that the streaming engine replaced; the streaming engine
/// of the same revision gave the same table, case for case. The input
/// is too small for chunk-framed streams, so no entry depends on the
/// host's core count.
const DIGESTS: [(&str, u32, u32, u64); 60] = [
    ("zfp", 1, 1, 0x3c357ea082c13572),
    ("zfp", 1, 4, 0x3c357ea082c13572),
    ("zfp", 1, 16, 0x3c357ea082c13572),
    ("zfp", 2, 1, 0x8eaf3eea90014baf),
    ("zfp", 2, 4, 0x7bc33ac35d1da6d9),
    ("zfp", 2, 16, 0xcd07dc6bab6d84a0),
    ("zfp", 3, 1, 0xad15dc9df77cbca5),
    ("zfp", 3, 4, 0xf49eb88d6fbfa34b),
    ("zfp", 3, 16, 0xa28279b78ec95f62),
    ("zfp", 4, 1, 0xe67ecfc61d976fa8),
    ("zfp", 4, 4, 0xd62f57cef8c2ed45),
    ("zfp", 4, 16, 0x1473c619a176ebb2),
    ("zfp", 5, 1, 0x6a7c73fce79a6292),
    ("zfp", 5, 4, 0xddcadc8099a13b44),
    ("zfp", 5, 16, 0x53b47a969d1a6270),
    ("sz", 1, 1, 0x15cd199656eb5dfc),
    ("sz", 1, 4, 0x15cd199656eb5dfc),
    ("sz", 1, 16, 0x15cd199656eb5dfc),
    ("sz", 2, 1, 0xdcc4fb4642eca70d),
    ("sz", 2, 4, 0xee30beaf175bb5f2),
    ("sz", 2, 16, 0xa0f58ebf16f786e5),
    ("sz", 3, 1, 0x7bea45bbc8bc9a71),
    ("sz", 3, 4, 0x6f648371700abb94),
    ("sz", 3, 16, 0x6478e28edc055072),
    ("sz", 4, 1, 0x84a95f8d302ad0fc),
    ("sz", 4, 4, 0x1a3a196ce98f1d27),
    ("sz", 4, 16, 0x5f3af4a5ca64851b),
    ("sz", 5, 1, 0x53a8d9d115995dc4),
    ("sz", 5, 4, 0x4a7da0955e36432b),
    ("sz", 5, 16, 0x78517420660017fc),
    ("fpc", 1, 1, 0xe1baa44fc327662f),
    ("fpc", 1, 4, 0xe1baa44fc327662f),
    ("fpc", 1, 16, 0xe1baa44fc327662f),
    ("fpc", 2, 1, 0x9a8284dc7afd4ef8),
    ("fpc", 2, 4, 0x18955dc0a160d910),
    ("fpc", 2, 16, 0x3d0b3c9dd1ae9884),
    ("fpc", 3, 1, 0x9c2e31c2d59b7879),
    ("fpc", 3, 4, 0x11c2b96c42741515),
    ("fpc", 3, 16, 0xcc6040a656724901),
    ("fpc", 4, 1, 0xf634d9c10d9701c9),
    ("fpc", 4, 4, 0xf66a864007650f3b),
    ("fpc", 4, 16, 0xb337b1c92a6d8a6d),
    ("fpc", 5, 1, 0xf6975072379dbab3),
    ("fpc", 5, 4, 0x9bc5c375cf0888ed),
    ("fpc", 5, 16, 0x929e8ac27e365948),
    ("raw", 1, 1, 0x38c260b01eac8e4a),
    ("raw", 1, 4, 0x38c260b01eac8e4a),
    ("raw", 1, 16, 0x38c260b01eac8e4a),
    ("raw", 2, 1, 0x30b6e736775c500d),
    ("raw", 2, 4, 0x64ad69300a1cac1e),
    ("raw", 2, 16, 0x104101e9c38cb982),
    ("raw", 3, 1, 0xbbce2b7b299e33da),
    ("raw", 3, 4, 0xff770ff527be4ebf),
    ("raw", 3, 16, 0xeb424238e3e9c446),
    ("raw", 4, 1, 0xfc69ce9a84af391d),
    ("raw", 4, 4, 0x08a2d6c03a33e376),
    ("raw", 4, 16, 0xe87edfdba1527018),
    ("raw", 5, 1, 0x7ae5287df68169b0),
    ("raw", 5, 4, 0xe1df7bcc47c2fcff),
    ("raw", 5, 16, 0x720d67ea3a909dfd),
];

/// The headline contract: for every codec × level count × chunking, the
/// streaming engine places exactly the bytes, on exactly the tiers, the
/// table pins — manifest (`.bpmeta`) included.
#[test]
fn stored_bytes_match_the_pinned_digests_across_codecs_levels_and_chunking() {
    let (mesh, data) = small_case();
    for (name, levels, chunks, want) in DIGESTS {
        let canopus = written(&mesh, &data, codec(name), levels, chunks);
        assert!(
            tier_contents(&canopus).contains_key("eq.bp/.bpmeta"),
            "manifest missing ({name}, {levels} levels, {chunks} chunks)"
        );
        assert_eq!(
            digest(&canopus),
            want,
            "tier contents moved ({name}, {levels} levels, {chunks} chunks)"
        );
    }
}

/// The report describes what was stored: every product's key, tier and
/// stored size are the hierarchy's, every stored object is a product or
/// the manifest, and a repeat write reports the same.
#[test]
fn write_reports_describe_the_stored_products() {
    let (mesh, data) = small_case();
    let raw = (data.len() * 8) as u64;
    let mk = || {
        Canopus::new(
            Arc::new(StorageHierarchy::titan_two_tier(raw / 4, raw * 64)),
            CanopusConfig {
                refactor: RefactorConfig {
                    num_levels: 3,
                    ..Default::default()
                },
                delta_chunks: 4,
                ..Default::default()
            },
        )
    };
    let (a, b) = (mk(), mk());
    let ra = a.write("eq.bp", "v", &mesh, &data).expect("first");
    let rb = b.write("eq.bp", "v", &mesh, &data).expect("second");
    let summarize = |r: &canopus::WriteReport| {
        let mut v: Vec<(String, usize, u64, u64)> = r
            .products
            .iter()
            .map(|p| (p.key.clone(), p.tier, p.stored_bytes, p.raw_bytes))
            .collect();
        v.sort();
        v
    };
    assert_eq!(summarize(&ra), summarize(&rb));
    assert_eq!(ra.io_time.seconds(), rb.io_time.seconds());
    assert_eq!(ra.stored_data_bytes(), rb.stored_data_bytes());
    assert_eq!(ra.original_bytes(), rb.original_bytes());
    assert_eq!(ra.original_bytes(), raw);

    let mut stored = tier_contents(&a);
    for p in &ra.products {
        let (tier, bytes) = stored.remove(&p.key).expect("reported product is stored");
        assert_eq!(
            (p.tier, p.stored_bytes),
            (tier, bytes.len() as u64),
            "{}",
            p.key
        );
    }
    assert_eq!(
        stored.into_keys().collect::<Vec<_>>(),
        ["eq.bp/.bpmeta"],
        "nothing but the manifest goes unreported"
    );
}

/// A streamed write round-trips through the restore engine: with a
/// lossless codec only restoration's `(a - b) + b` rounding remains at
/// L0, and every coarser level is readable.
#[test]
fn pipelined_write_roundtrips_through_pipelined_reader() {
    let (mesh, data) = small_case();
    let range = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - data.iter().cloned().fold(f64::INFINITY, f64::min);
    let bound = 1e-12 * range.max(1.0);
    for chunks in [1u32, 4] {
        let canopus = written(&mesh, &data, RelativeCodec::Fpc, 4, chunks);
        let reader = canopus.open("eq.bp").expect("open");
        let out = reader.read_level("v", 0).expect("restore L0");
        let err = out
            .data
            .iter()
            .zip(&data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(err <= bound, "L0 err {err} > {bound} (chunks {chunks})");
        for level in 1..4u32 {
            let coarse = reader.read_level("v", level).expect("coarser level");
            assert!(coarse.data.len() < data.len());
        }
    }
}

/// An explicitly disarmed fault plan — and any retry budget — is
/// invisible to the write path: tier contents, manifest included, stay
/// byte-identical to the default configuration's.
#[test]
fn disarmed_fault_plan_leaves_tier_contents_byte_identical() {
    let (mesh, data) = small_case();
    let raw = (data.len() * 8) as u64;
    let baseline = written(&mesh, &data, RelativeCodec::Fpc, 4, 1);
    let disarmed = Canopus::new(
        Arc::new(StorageHierarchy::titan_two_tier(raw / 4, raw * 64)),
        CanopusConfig {
            refactor: RefactorConfig {
                num_levels: 4,
                ..Default::default()
            },
            codec: RelativeCodec::Fpc,
            fault: FaultPlan::none(),
            retry: RetryPolicy {
                max_attempts: 9,
                ..RetryPolicy::new()
            },
            ..Default::default()
        },
    );
    disarmed.write("eq.bp", "v", &mesh, &data).expect("write");
    assert_eq!(
        tier_contents(&baseline),
        tier_contents(&disarmed),
        "disarmed fault plan must not change placed bytes"
    );
}

/// A write the engine refuses — more levels than the mesh can hold, or a
/// lossy tolerance with no finite positive bound — ends promptly as
/// `Invalid` and leaves an earlier write of the same file untouched:
/// the tiers stay byte-identical and the file still restores. Sixteen
/// levels once stalled the write pipeline, so the writes run under a
/// deadline.
#[test]
fn refused_writes_end_promptly_and_leave_stored_files_untouched() {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let (mesh, data) = small_case();
        let raw = (data.len() * 8) as u64;
        let hierarchy = Arc::new(StorageHierarchy::titan_two_tier(raw / 4, raw * 64));
        let with = |codec: RelativeCodec, num_levels: u32| {
            Canopus::new(
                Arc::clone(&hierarchy),
                CanopusConfig {
                    refactor: RefactorConfig {
                        num_levels,
                        ..Default::default()
                    },
                    codec,
                    ..Default::default()
                },
            )
        };
        let stored = with(RelativeCodec::Fpc, 4);
        stored.write("eq.bp", "v", &mesh, &data).expect("write");
        let before = tier_contents(&stored);
        let refused = [
            ("16 levels", RelativeCodec::Fpc, 16),
            ("40 levels", RelativeCodec::Fpc, 40),
            (
                "zfp tolerance 0",
                RelativeCodec::ZfpLike { rel_tolerance: 0.0 },
                4,
            ),
            (
                "sz bound NaN",
                RelativeCodec::SzLike {
                    rel_error_bound: f64::NAN,
                },
                4,
            ),
        ];
        for (what, codec, levels) in refused {
            let err = with(codec, levels)
                .write("eq.bp", "v", &mesh, &data)
                .expect_err(what);
            assert!(matches!(err, CanopusError::Invalid(_)), "{what}: {err}");
            assert!(tier_contents(&stored) == before, "{what}: tiers changed");
        }
        let out = stored
            .open("eq.bp")
            .expect("open")
            .read_level("v", 0)
            .expect("restore L0");
        assert_eq!(out.data.len(), data.len());
        let _ = tx.send(());
    });
    rx.recv_timeout(std::time::Duration::from_secs(60))
        .expect("a refused write hung or panicked");
}

/// `(delta_chunks, key, kind, tier, raw bytes, stored bytes)` of every
/// data product a 5-level `zfp` write of [`small_case`] reports, taken
/// from the writer that rebuilt its report from the placement plan and
/// the tier devices.
const REPORT_GOLDEN: [(u32, &str, &str, usize, u64, u64); 19] = [
    (1, "eq.bp/v/L4", "Base { level: 4 }", 0, 528, 216),
    (
        1,
        "eq.bp/v/s3-4.0",
        "DeltaShard { finer: 3, coarser: 4, shard: 0 }",
        1,
        1056,
        410,
    ),
    (
        1,
        "eq.bp/v/s2-3.0",
        "DeltaShard { finer: 2, coarser: 3, shard: 0 }",
        1,
        2104,
        801,
    ),
    (
        1,
        "eq.bp/v/s1-2.0",
        "DeltaShard { finer: 1, coarser: 2, shard: 0 }",
        1,
        4200,
        1561,
    ),
    (
        1,
        "eq.bp/v/s0-1.0",
        "DeltaShard { finer: 0, coarser: 1, shard: 0 }",
        1,
        8400,
        3001,
    ),
    (4, "eq.bp/v/L4", "Base { level: 4 }", 0, 528, 216),
    (
        4,
        "eq.bp/v/s3-4.0",
        "DeltaShard { finer: 3, coarser: 4, shard: 0 }",
        1,
        1056,
        451,
    ),
    (
        4,
        "eq.bp/v/s2-3.0",
        "DeltaShard { finer: 2, coarser: 3, shard: 0 }",
        1,
        2104,
        846,
    ),
    (
        4,
        "eq.bp/v/s1-2.0",
        "DeltaShard { finer: 1, coarser: 2, shard: 0 }",
        1,
        4200,
        1600,
    ),
    (
        4,
        "eq.bp/v/s0-1.0",
        "DeltaShard { finer: 0, coarser: 1, shard: 0 }",
        1,
        8400,
        3072,
    ),
    (16, "eq.bp/v/L4", "Base { level: 4 }", 0, 528, 216),
    (
        16,
        "eq.bp/v/s3-4.0",
        "DeltaShard { finer: 3, coarser: 4, shard: 0 }",
        1,
        528,
        287,
    ),
    (
        16,
        "eq.bp/v/s3-4.1",
        "DeltaShard { finer: 3, coarser: 4, shard: 1 }",
        1,
        528,
        290,
    ),
    (
        16,
        "eq.bp/v/s2-3.0",
        "DeltaShard { finer: 2, coarser: 3, shard: 0 }",
        1,
        1048,
        486,
    ),
    (
        16,
        "eq.bp/v/s2-3.1",
        "DeltaShard { finer: 2, coarser: 3, shard: 1 }",
        1,
        1056,
        494,
    ),
    (
        16,
        "eq.bp/v/s1-2.0",
        "DeltaShard { finer: 1, coarser: 2, shard: 0 }",
        1,
        2096,
        870,
    ),
    (
        16,
        "eq.bp/v/s1-2.1",
        "DeltaShard { finer: 1, coarser: 2, shard: 1 }",
        1,
        2104,
        889,
    ),
    (
        16,
        "eq.bp/v/s0-1.0",
        "DeltaShard { finer: 0, coarser: 1, shard: 0 }",
        1,
        4200,
        1619,
    ),
    (
        16,
        "eq.bp/v/s0-1.1",
        "DeltaShard { finer: 0, coarser: 1, shard: 1 }",
        1,
        4200,
        1635,
    ),
];

/// The write report is what the store committed: every data product's
/// key, kind, tier, raw and stored size equal the golden, in placement
/// order, and every product — geometry included — reports the sizes
/// its manifest entry records.
#[test]
fn write_reports_match_the_golden_and_the_manifest() {
    let (mesh, data) = small_case();
    for chunks in [1u32, 4, 16] {
        let raw = (data.len() * 8) as u64;
        let canopus = Canopus::new(
            Arc::new(StorageHierarchy::titan_two_tier(raw / 4, raw * 64)),
            CanopusConfig {
                refactor: RefactorConfig {
                    num_levels: 5,
                    ..Default::default()
                },
                codec: codec("zfp"),
                delta_chunks: chunks,
                ..Default::default()
            },
        );
        let report = canopus.write("eq.bp", "v", &mesh, &data).expect("write");
        let got: Vec<(u32, String, String, usize, u64, u64)> = report
            .products
            .iter()
            .filter(|p| !matches!(p.kind, ProductKind::Metadata { .. }))
            .map(|p| {
                let kind = format!("{:?}", p.kind);
                (
                    chunks,
                    p.key.clone(),
                    kind,
                    p.tier,
                    p.raw_bytes,
                    p.stored_bytes,
                )
            })
            .collect();
        let want: Vec<(u32, String, String, usize, u64, u64)> = REPORT_GOLDEN
            .iter()
            .filter(|row| row.0 == chunks)
            .map(|&(c, key, kind, tier, raw, stored)| {
                (c, key.to_string(), kind.to_string(), tier, raw, stored)
            })
            .collect();
        assert_eq!(got, want, "{chunks} chunks");

        let file = canopus.store().open("eq.bp").expect("open");
        let blocks = &file.inq_var("v").expect("var").blocks;
        assert_eq!(blocks.len(), report.products.len(), "{chunks} chunks");
        for p in &report.products {
            let b = blocks.iter().find(|b| b.key == p.key).expect("in manifest");
            assert_eq!(
                (b.kind, b.raw_bytes, b.stored_bytes),
                (p.kind, p.raw_bytes, p.stored_bytes),
                "{}",
                p.key
            );
        }
    }
}

/// A write that runs out of room removes everything it stored: the
/// tiers are byte-identical to before it, and a smaller write then fits
/// in the room it freed. The tiers are filled with 4-level files until
/// a write fails; at the three smaller capacities the first one does.
#[test]
fn a_write_that_runs_out_of_room_leaves_the_tiers_as_they_were() {
    let (mesh, data) = small_case();
    let raw = (data.len() * 8) as u64;
    let small = xgc1_dataset_sized(4, 12, 11);
    for (cap, fit) in [(raw / 2, 0), (raw, 0), (2 * raw, 0), (16 * raw, 2)] {
        let canopus = Canopus::new(
            Arc::new(StorageHierarchy::new(vec![
                TierSpec::new("fast", cap / 8, 1e9, 1e9, 1e-6),
                TierSpec::new("slow", cap, 1e7, 1e7, 1e-3),
            ])),
            CanopusConfig {
                refactor: RefactorConfig {
                    num_levels: 4,
                    ..Default::default()
                },
                codec: RelativeCodec::Fpc,
                ..Default::default()
            },
        );
        let mut files = 0;
        let err = loop {
            let before = tier_contents(&canopus);
            match canopus.write(&format!("f{files}.bp"), "v", &mesh, &data) {
                Ok(_) => files += 1,
                Err(e) => {
                    assert!(
                        tier_contents(&canopus) == before,
                        "cap {cap}: the failed write left objects behind"
                    );
                    break e;
                }
            }
        };
        assert_eq!(files, fit, "cap {cap}: files written before one failed");
        assert!(err.to_string().contains("no tier"), "cap {cap}: {err}");
        assert!(!canopus.store().exists(&format!("f{files}.bp")));
        canopus
            .write_unrefactored("small.bp", small.var, &small.mesh, &small.data)
            .unwrap_or_else(|e| panic!("cap {cap}: the freed room holds a small write: {e}"));
        for f in 0..files {
            let out = canopus
                .open(&format!("f{f}.bp"))
                .expect("open")
                .read_level("v", 0)
                .expect("restore");
            assert_eq!(out.data.len(), data.len());
        }
    }
}

/// Writes into one hierarchy share one reservation ledger. Four writers
/// each stream a 400 B base block at once into a 1000 B fast tier over
/// a 1 MiB slow one: two fit the fast tier, and the others see the
/// bytes already reserved there and spill to the slow tier — as placing
/// one block at a time would — instead of failing when they land.
#[test]
fn concurrent_writes_into_one_store_spill_instead_of_failing() {
    const WRITERS: usize = 4;
    for round in 0..50 {
        let hierarchy = Arc::new(StorageHierarchy::new(vec![
            TierSpec::new("fast", 1000, 1e9, 1e9, 0.0),
            TierSpec::new("slow", 1 << 20, 1e9, 1e9, 0.0),
        ]));
        let store = BpStore::new(Arc::clone(&hierarchy));
        let block = |w: usize| Bytes::from(vec![w as u8 + 1; 400]);
        let start = Barrier::new(WRITERS);
        let commits: Vec<_> = std::thread::scope(|s| {
            let writers: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let (store, start) = (&store, &start);
                    s.spawn(move || {
                        let mut write = store.begin_write(&format!("w{w}.bp"), 1);
                        start.wait();
                        write.push(BlockWrite {
                            var: "v".into(),
                            kind: ProductKind::Base { level: 0 },
                            data: block(w),
                            elements: 50,
                            codec_id: CodecKind::Raw.id(),
                            codec_param: 0.0,
                            raw_bytes: 400,
                            min: 0.0,
                            max: 0.0,
                            chunks: Vec::new(),
                        })?;
                        write.commit()
                    })
                })
                .collect();
            writers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for (w, commit) in commits.into_iter().enumerate() {
            commit.unwrap_or_else(|e| panic!("round {round}: write {w}: {e}"));
            let file = store.open(&format!("w{w}.bp")).expect("open");
            let base = file.inq_var("v").expect("var").base().expect("base");
            let (bytes, _, _) = file.read_block(base).expect("read back");
            assert_eq!(bytes, block(w), "round {round}: write {w}");
        }
        let fast = hierarchy.tier_device(0).expect("fast tier");
        assert!(fast.used() <= fast.capacity(), "round {round}");
        assert_eq!(fast.used() / 400, 2, "round {round}: two blocks fit");
    }
}

/// A file is written once. A second write to a stored file — the same
/// variable, another variable, or the unrefactored baseline — is
/// refused naming the file, before any work, and leaves the tiers
/// byte-identical and the stored file restoring to the same bits.
#[test]
fn a_rewrite_is_refused_and_leaves_the_stored_file_untouched() {
    let (mesh, data) = small_case();
    let canopus = written(&mesh, &data, RelativeCodec::Fpc, 4, 1);
    let before = tier_contents(&canopus);
    let restored = |c: &Canopus| {
        let reader = c.open("eq.bp").expect("open").with_level_cache(0);
        bits(&reader.read_level("v", 0).expect("restore L0").data)
    };
    let want = restored(&canopus);
    // Every level job a write submits is picked up by a worker once.
    let level_jobs = || {
        let snapshot = canopus.metrics().snapshot();
        snapshot
            .histogram(canopus_obs::names::WRITE_QUEUE_WAIT_HIST)
            .count
    };
    let jobs = level_jobs();
    let attempts = [
        canopus.write("eq.bp", "v", &mesh, &data),
        canopus.write("eq.bp", "w", &mesh, &data),
        canopus.write_unrefactored("eq.bp", "v", &mesh, &data),
    ];
    for (i, outcome) in attempts.into_iter().enumerate() {
        let err = outcome.expect_err("a rewrite is refused");
        assert!(err.to_string().contains("eq.bp"), "attempt {i}: {err}");
    }
    assert_eq!(level_jobs(), jobs, "refused before any level job");
    assert!(tier_contents(&canopus) == before, "tiers changed");
    assert_eq!(restored(&canopus), want);
}

/// The digest of every stored object ([`digest`]) and a `checksum64` of
/// level 0's restored bits, for an input above the framing threshold:
/// 82 000 vertices in three levels, so level 0's delta spans two tiles.
fn framed_case_digests() -> (u64, u64) {
    let ds = xgc1_dataset_sized(40, 2000, 11);
    let canopus = written(&ds.mesh, &ds.data, codec("zfp"), 3, 1);
    let level0 = canopus
        .open("eq.bp")
        .expect("open")
        .read_level("v", 0)
        .expect("restore");
    let restored: Vec<u8> = level0.data.iter().flat_map(|x| x.to_le_bytes()).collect();
    (digest(&canopus), checksum64(&restored))
}

/// [`framed_case_digests`], pinned.
const FRAMED_CASE: (u64, u64) = (0xdd897ae2a678ced6, 0x08f511f5b5716c3b);

/// The same write on one CPU stores the same bytes and restores the same
/// bits as on however many this process has: the codec framing grain is
/// a constant, not a share of the writer's cores. The one-CPU write runs
/// in a child process of this test binary, started under `taskset -c 0`
/// ([`framed_write_on_this_process_cpus`] prints what it got).
#[test]
fn stored_bytes_and_restored_bits_do_not_depend_on_the_core_count() {
    let here = framed_case_digests();
    let child = std::process::Command::new("taskset")
        .args(["-c", "0"])
        .arg(std::env::current_exe().expect("this test binary"))
        .args([
            "framed_write_on_this_process_cpus",
            "--exact",
            "--ignored",
            "--nocapture",
        ])
        .output()
        .expect("taskset starts the one-CPU write");
    let stdout = String::from_utf8_lossy(&child.stdout);
    assert!(child.status.success(), "the one-CPU write failed: {stdout}");
    // The harness prints the test's name on the line the print lands on.
    let line = stdout
        .lines()
        .find_map(|l| l.split_once("framed write: "))
        .map(|(_, digests)| digests)
        .unwrap_or_else(|| panic!("no digests in the child's output: {stdout}"));
    let words: Vec<&str> = line.split_whitespace().collect();
    let [cpus, stored, bits] = words[..] else {
        panic!("unreadable digests: {line}")
    };
    assert_eq!(cpus, "1", "the child ran on one CPU");
    let hex = |w: &str| u64::from_str_radix(w.trim_start_matches("0x"), 16).expect("hex");
    assert_eq!(hex(stored), here.0, "stored bytes differ at one CPU");
    assert_eq!(hex(bits), here.1, "level 0's bits differ at one CPU");
    assert_eq!(here, FRAMED_CASE, "the pinned digests moved");
}

/// The framed write of [`framed_case_digests`] on the CPUs this process
/// may use: prints their count and the digests for
/// [`stored_bytes_and_restored_bits_do_not_depend_on_the_core_count`],
/// which runs it on one.
#[test]
#[ignore = "run on one CPU by stored_bytes_and_restored_bits_do_not_depend_on_the_core_count"]
fn framed_write_on_this_process_cpus() {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (stored, bits) = framed_case_digests();
    println!("framed write: {cpus} {stored:#x} {bits:#x}");
}

fn bits(data: &[f64]) -> Vec<u64> {
    data.iter().map(|x| x.to_bits()).collect()
}

fn arb_case() -> impl Strategy<Value = (usize, usize, u64, u32)> {
    (
        5usize..11,
        5usize..11,
        0u64..500,
        1u32..5, // num_levels
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever the mesh and level count, every level a streamed
    /// lossless write stores restores bit for bit to what an in-memory
    /// refactoring of the same input computes, on the same mesh; and two
    /// writes of one input are byte-identical.
    #[test]
    fn streaming_write_equivalence((nx, ny, seed, levels) in arb_case()) {
        let bb = Aabb::from_points([Point2::new(0.0, 0.0), Point2::new(1.0, 1.0)]);
        let mesh = jitter_interior(&rectangle_mesh(nx, ny, bb), 0.2, seed);
        let data: Vec<f64> = mesh
            .points()
            .iter()
            .map(|p| (p.x * 9.0).sin() * (p.y * 5.0).cos() + 0.3 * p.x)
            .collect();
        let canopus = written(&mesh, &data, RelativeCodec::Fpc, levels, 1);
        let h = LevelHierarchy::build(&mesh, &data, canopus.config().refactor);
        prop_assert_eq!(h.num_levels(), levels);
        for level in 0..levels {
            let reader = canopus.open("eq.bp").expect("open").with_level_cache(0);
            let out = reader.read_level("v", level).expect("restore");
            prop_assert_eq!(&out.mesh, &h.levels[level as usize].mesh);
            prop_assert_eq!(bits(&out.data), bits(&h.restore_to(level)));
        }
        let again = written(&mesh, &data, RelativeCodec::Fpc, levels, 1);
        prop_assert_eq!(tier_contents(&canopus), tier_contents(&again));
    }
}
