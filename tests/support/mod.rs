//! The reference restore the level walk is pinned to. It shares no
//! scheduling code with the walk — no prefetch thread, decode pool,
//! geometry loader or decoded-level cache — only the public single-step
//! API: the base, then one whole-domain `refine_region` per level, each
//! fetched, decoded and applied on the calling thread. The reference one
//! such step is pinned to in turn: its delta decoded whole, then
//! restored in place. Also the fault tests' way to give one object a
//! tier of its own.
#![allow(dead_code)]

use canopus::{Canopus, ReadOutcome};
use canopus_compress::{Chunked, Codec, CodecKind, CHUNKED_CODEC_ID_FLAG};
use canopus_mesh::geometry::{Aabb, Point2};
use canopus_mesh::TriMesh;
use canopus_refactor::{build_mapping, restore_in_place};
use canopus_storage::StorageHierarchy;

/// A window no chunk's bounding box can miss: `refine_region` over it
/// fetches every chunk and refines the whole level.
pub fn whole_domain() -> Aabb {
    Aabb::from_points([
        Point2::new(f64::MIN, f64::MIN),
        Point2::new(f64::MAX, f64::MAX),
    ])
}

/// `level` of `var` in `file`, restored step by step on a reader with
/// no decoded-level cache.
pub fn stepwise_restore(canopus: &Canopus, file: &str, var: &str, level: u32) -> ReadOutcome {
    let reader = canopus.open(file).expect("open").with_level_cache(0);
    let mut out = reader.read_base(var).expect("base");
    while out.level > level {
        out = reader
            .refine_region(var, &out, whole_domain())
            .expect("refine")
            .0;
    }
    out
}

/// Put the object `key` alone on tier `to`, so a fault plan armed there
/// hits it and nothing else. Placement never moves an object, so this
/// goes below the read path: one device get, put and remove, with no
/// tier I/O accounted and no fault plan consulted.
pub fn move_to_tier(hierarchy: &StorageHierarchy, key: &str, to: usize) {
    let from = hierarchy.find(key).expect("the object is stored");
    let device = |tier| hierarchy.tier_device(tier).expect("the tier exists");
    let bytes = device(from).get(key).expect("the object is stored");
    device(to)
        .put(key, bytes)
        .expect("the destination tier has room");
    device(from).remove(key).expect("the source copy goes");
}

/// One refinement step of `var` in `file` from `current` to the next
/// finer level, whose mesh is `fine`, made as a step was made before
/// decode and restore shared a pass: the level's one delta stream
/// decoded whole, then restored in place. Returns the level's values
/// and the delta's RMS.
pub fn oracle_refine(
    canopus: &Canopus,
    file: &str,
    var: &str,
    current: &ReadOutcome,
    fine: &TriMesh,
) -> (Vec<f64>, f64) {
    let bp = canopus.store().open(file).expect("open");
    let shards = bp
        .inq_var(var)
        .expect("var")
        .delta_shards_to(current.level - 1);
    let [block] = shards[..] else {
        panic!("a one-chunk level is one shard, not {}", shards.len())
    };
    let [chunk] = &block.chunks[..] else {
        panic!(
            "a one-chunk level has one chunk, not {}",
            block.chunks.len()
        )
    };
    let (bytes, _, _) = bp.read_block(block).expect("the shard reads");
    let stream = &bytes[chunk.offset as usize..(chunk.offset + chunk.len) as usize];
    let kind = CodecKind::from_id(chunk.codec_id & !CHUNKED_CODEC_ID_FLAG, block.codec_param)
        .expect("a known codec");
    let n = fine.num_vertices();
    let mut values = if chunk.codec_id & CHUNKED_CODEC_ID_FLAG != 0 {
        Chunked::for_decode(kind.build()).decompress(stream, n)
    } else {
        kind.build().decompress(stream, n)
    }
    .expect("the stream decodes");
    let coarse = &current.mesh;
    let squares = restore_in_place(
        &mut values,
        coarse.triangles(),
        &current.data,
        &build_mapping(fine, coarse),
        canopus
            .config()
            .refactor
            .estimator
            .weights(fine.points(), coarse.points()),
    );
    (values, (squares / n as f64).sqrt())
}
