//! Pipelined-write equivalence: the level-streaming engine (decimation
//! overlapped with mapping/delta/compression workers and per-tier
//! write-behind queues) must leave the storage hierarchy in a state
//! byte-identical to the serial barrier engine it replaced — every data
//! block, every metadata block and the manifest itself, on the same
//! tiers — for every codec, level count and chunking. The products a
//! pipelined write places must also round-trip through the (default,
//! pipelined) restore engine.

use canopus::config::RelativeCodec;
use canopus::{Canopus, CanopusConfig, FaultPlan, RetryPolicy};
use canopus_data::xgc1_dataset_sized;
use canopus_mesh::generators::{jitter_interior, rectangle_mesh};
use canopus_mesh::geometry::{Aabb, Point2};
use canopus_mesh::TriMesh;
use canopus_refactor::levels::RefactorConfig;
use canopus_storage::StorageHierarchy;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

fn written(
    mesh: &TriMesh,
    data: &[f64],
    codec: RelativeCodec,
    levels: u32,
    chunks: u32,
    write_pipeline_depth: u32,
    decimation_parts: u32,
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
            write_pipeline_depth,
            decimation_parts,
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

fn small_case() -> (TriMesh, Vec<f64>) {
    let ds = xgc1_dataset_sized(14, 70, 11);
    (ds.mesh, ds.data)
}

/// The headline contract: for every codec × level count × chunking, the
/// two engines place identical bytes on identical tiers — manifest
/// (`.bpmeta`) included.
#[test]
fn engines_are_byte_identical_across_codecs_levels_and_chunking() {
    let (mesh, data) = small_case();
    let codecs = [
        RelativeCodec::ZfpLike {
            rel_tolerance: 1e-5,
        },
        RelativeCodec::SzLike {
            rel_error_bound: 1e-5,
        },
        RelativeCodec::Fpc,
        RelativeCodec::Raw,
    ];
    for codec in codecs {
        for levels in 1..=5u32 {
            // One chunk (identity assignment), one shard of Morton
            // chunks, two shards.
            for chunks in [1u32, 4, 16] {
                let serial = written(&mesh, &data, codec, levels, chunks, 0, 1);
                let pipelined = written(&mesh, &data, codec, levels, chunks, 4, 1);
                let a = tier_contents(&serial);
                let b = tier_contents(&pipelined);
                assert!(
                    a.contains_key("eq.bp/.bpmeta"),
                    "manifest missing ({codec:?}, {levels} levels, {chunks} chunks)"
                );
                assert_eq!(
                    a, b,
                    "tier contents diverge ({codec:?}, {levels} levels, {chunks} chunks)"
                );
            }
        }
    }
}

/// The parallel decimation kernel slots into both engines identically:
/// with `decimation_parts > 1` the two engines still agree byte-for-byte
/// (they share the kernel), and repeat runs are deterministic.
#[test]
fn parallel_decimation_kernel_keeps_engines_identical_and_deterministic() {
    let (mesh, data) = small_case();
    let codec = RelativeCodec::Fpc;
    for parts in [2u32, 3] {
        let serial = written(&mesh, &data, codec, 4, 1, 0, parts);
        let pipelined = written(&mesh, &data, codec, 4, 1, 4, parts);
        let again = written(&mesh, &data, codec, 4, 1, 4, parts);
        assert_eq!(
            tier_contents(&serial),
            tier_contents(&pipelined),
            "engines diverge at decimation_parts = {parts}"
        );
        assert_eq!(
            tier_contents(&pipelined),
            tier_contents(&again),
            "repeat run not deterministic at decimation_parts = {parts}"
        );
    }
}

/// Reports agree too: same product keys, tiers and stored sizes, and
/// simulated I/O time within float noise.
#[test]
fn write_reports_agree_between_engines() {
    let (mesh, data) = small_case();
    let raw = (data.len() * 8) as u64;
    let mk = |depth: u32| {
        Canopus::new(
            Arc::new(StorageHierarchy::titan_two_tier(raw / 4, raw * 64)),
            CanopusConfig {
                refactor: RefactorConfig {
                    num_levels: 3,
                    ..Default::default()
                },
                delta_chunks: 4,
                write_pipeline_depth: depth,
                ..Default::default()
            },
        )
    };
    let a = mk(0);
    let b = mk(4);
    let ra = a.write("eq.bp", "v", &mesh, &data).expect("serial");
    let rb = b.write("eq.bp", "v", &mesh, &data).expect("pipelined");
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
    assert!((ra.io_time.seconds() - rb.io_time.seconds()).abs() < 1e-12);
    assert_eq!(ra.stored_data_bytes(), rb.stored_data_bytes());
    assert_eq!(ra.original_bytes(), rb.original_bytes());
}

/// A pipelined write round-trips through the pipelined restore engine:
/// with a lossless codec only restoration's `(a - b) + b` rounding
/// remains at L0, and every coarser level is readable.
#[test]
fn pipelined_write_roundtrips_through_pipelined_reader() {
    let (mesh, data) = small_case();
    let range = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - data.iter().cloned().fold(f64::INFINITY, f64::min);
    let bound = 1e-12 * range.max(1.0);
    for chunks in [1u32, 4] {
        let canopus = written(&mesh, &data, RelativeCodec::Fpc, 4, chunks, 4, 1);
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
/// byte-identical to the default configuration's, through both engines.
#[test]
fn disarmed_fault_plan_leaves_tier_contents_byte_identical() {
    let (mesh, data) = small_case();
    let raw = (data.len() * 8) as u64;
    for depth in [0u32, 4] {
        let baseline = written(&mesh, &data, RelativeCodec::Fpc, 4, 1, depth, 1);
        let disarmed = Canopus::new(
            Arc::new(StorageHierarchy::titan_two_tier(raw / 4, raw * 64)),
            CanopusConfig {
                refactor: RefactorConfig {
                    num_levels: 4,
                    ..Default::default()
                },
                codec: RelativeCodec::Fpc,
                write_pipeline_depth: depth,
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
            "disarmed fault plan must not change placed bytes (depth {depth})"
        );
    }
}

fn arb_case() -> impl Strategy<Value = (usize, usize, u64, u32, u32, u32)> {
    (
        5usize..11,
        5usize..11,
        0u64..500,
        1u32..6, // write_pipeline_depth
        1u32..4, // decimation_parts
        1u32..5, // num_levels
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever the mesh, pipeline depth, kernel partitioning and level
    /// count, the streaming engine's hierarchy is byte-identical to the
    /// serial engine's.
    #[test]
    fn streaming_write_equivalence((nx, ny, seed, depth, parts, levels) in arb_case()) {
        let bb = Aabb::from_points([Point2::new(0.0, 0.0), Point2::new(1.0, 1.0)]);
        let mesh = jitter_interior(&rectangle_mesh(nx, ny, bb), 0.2, seed);
        let data: Vec<f64> = mesh
            .points()
            .iter()
            .map(|p| (p.x * 9.0).sin() * (p.y * 5.0).cos() + 0.3 * p.x)
            .collect();
        let codec = RelativeCodec::ZfpLike { rel_tolerance: 1e-5 };
        let serial = written(&mesh, &data, codec, levels, 1, 0, parts);
        let pipelined = written(&mesh, &data, codec, levels, 1, depth, parts);
        prop_assert_eq!(tier_contents(&serial), tier_contents(&pipelined));
    }
}
