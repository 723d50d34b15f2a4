//! A refinement step decodes its delta through the codec's framed
//! decode, one tile per task, straight into the level's buffer, then
//! restores it through `restore_in_place`, one task per tile. These pin
//! the step to the oracle in `tests/support` (the delta decoded whole,
//! then restored in place): `refine_once`, a whole-domain
//! `refine_region` step and a cold `read_level` walk give its bits,
//! under every codec, on levels of less than one tile, of one tile and a
//! remainder, and of several tiles, and on steps of exactly `TILE - 1`,
//! `TILE` and `TILE + 1` values; a file whose streams are framed at
//! another grain (as files written before the grain was fixed are)
//! refines to its bits too; a stream whose chunk table disagrees with
//! the manifest is refused with an error; and so is a step one of whose
//! tiles does not decode, which leaves nothing in the cache. A step's
//! decode and restore rows are the wall seconds of each phase, so
//! together they fit in the step's elapsed time.
//!
//! Three files are written (decimation dominates a write): the main one,
//! one whose levels straddle the tile boundary, and one stored in eight
//! chunks a level. The others are copies of the first two with every
//! value stream recoded, so they share their geometry.

mod support;

use bytes::Bytes;
use canopus::config::RelativeCodec;
use canopus::{Canopus, CanopusConfig, CanopusError, PhaseTiming, ReadOutcome};
use canopus_adios::store::BlockWrite;
use canopus_adios::{checksum64, BpFile, ChunkEntry};
use canopus_compress::{ChunkTable, Chunked, Codec, CodecError, CodecKind, CHUNKED_CODEC_ID_FLAG};
use canopus_data::xgc1_dataset_sized;
use canopus_mesh::generators::{jitter_interior, rectangle_mesh};
use canopus_mesh::geometry::{Aabb, Point2};
use canopus_mesh::TriMesh;
use canopus_obs::names;
use canopus_refactor::{Estimator, RefactorConfig, TILE};
use canopus_storage::{ProductKind, StorageHierarchy};
use std::sync::{Arc, OnceLock};
use support::{oracle_refine, whole_domain};

/// The store holding `fpc.bp`, as the writer stored it: 150 000
/// vertices in four levels, so level 0 spans three tiles, level 1 one
/// tile and a remainder, level 2 less than one tile. Each test copies it
/// to files of its own names.
fn store() -> &'static Canopus {
    static STORE: OnceLock<Canopus> = OnceLock::new();
    STORE.get_or_init(|| {
        let ds = xgc1_dataset_sized(49, 3000, 7);
        let canopus = empty_store();
        canopus
            .write("fpc.bp", "v", &ds.mesh, &ds.data)
            .expect("write");
        canopus
    })
}

/// A store with room for a few copies of the written file.
fn empty_store() -> Canopus {
    store_of(levels(4), 1)
}

/// `n` levels, each half the vertices of the next finer one, restored
/// by the mean estimator.
fn levels(n: u32) -> RefactorConfig {
    RefactorConfig {
        num_levels: n,
        ..Default::default()
    }
}

/// An empty store whose writes are refactored by `refactor`, each delta
/// in `chunks` spatial chunks.
fn store_of(refactor: RefactorConfig, chunks: u32) -> Canopus {
    let raw = 150_000 * 8;
    Canopus::new(
        Arc::new(StorageHierarchy::titan_two_tier(raw, raw * 64)),
        CanopusConfig {
            refactor,
            codec: RelativeCodec::Fpc,
            delta_chunks: chunks,
            ..Default::default()
        },
    )
}

/// The store holding `edges.bp`: four levels of `TILE + 1`, `TILE`,
/// `TILE - 1` and `TILE - 2` vertices, so its three steps restore deltas
/// of one value past a tile, exactly a tile, and one value short of one,
/// by the barycentric estimator (the other files use the mean).
/// Decimation keeps `ceil(n / ratio)` of `n` vertices, so a ratio of
/// `1 + 1.5 / TILE` drops one vertex a level.
fn edges() -> &'static Canopus {
    static STORE: OnceLock<Canopus> = OnceLock::new();
    STORE.get_or_init(|| {
        // 256 x 256 grid vertices, one triangle split at its centroid.
        let unit = Aabb::from_points([Point2::new(0.0, 0.0), Point2::new(1.0, 1.0)]);
        let grid = jitter_interior(&rectangle_mesh(255, 255, unit), 0.2, 7);
        let mut points = grid.points().to_vec();
        let mut triangles = grid.triangles().to_vec();
        let [a, b, c] = triangles[0];
        let corners = [a, b, c].map(|v| points[v as usize]);
        let centroid = Point2::new(
            corners.iter().map(|p| p.x).sum::<f64>() / 3.0,
            corners.iter().map(|p| p.y).sum::<f64>() / 3.0,
        );
        let p = points.len() as u32;
        points.push(centroid);
        triangles[0] = [a, b, p];
        triangles.extend([[b, c, p], [c, a, p]]);
        let mesh = TriMesh::new(points, triangles);
        assert_eq!(mesh.num_vertices(), TILE + 1);
        let data: Vec<f64> = mesh
            .points()
            .iter()
            .map(|p| (p.x * 9.0).sin() + (p.y * 5.0).cos() * 0.5)
            .collect();
        let refactor = RefactorConfig {
            per_level_ratio: 1.0 + 1.5 / TILE as f64,
            estimator: Estimator::Barycentric,
            ..levels(4)
        };
        let canopus = store_of(refactor, 1);
        canopus.write("edges.bp", "v", &mesh, &data).expect("write");
        canopus
    })
}

const CODECS: [CodecKind; 4] = [
    CodecKind::ZfpLike { tolerance: 1e-4 },
    CodecKind::SzLike { error_bound: 1e-4 },
    CodecKind::Fpc,
    CodecKind::Raw,
];

fn bits(data: &[f64]) -> Vec<u64> {
    data.iter().map(|x| x.to_bits()).collect()
}

fn decode(stream: &[u8], codec_id: u8, param: f64, n: usize) -> Vec<f64> {
    let kind = CodecKind::from_id(codec_id & !CHUNKED_CODEC_ID_FLAG, param).expect("codec");
    if codec_id & CHUNKED_CODEC_ID_FLAG != 0 {
        Chunked::for_decode(kind.build()).decompress(stream, n)
    } else {
        kind.build().decompress(stream, n)
    }
    .expect("decode")
}

/// `values` as a stream of `kind` and its codec id: unframed up to one
/// tile, as the writer stores them, and framed at `grain` values a
/// chunk past it.
fn encode(values: &[f64], kind: CodecKind, grain: usize) -> (Vec<u8>, u8) {
    if values.len() > TILE {
        let stream = Chunked::new(kind.build(), grain).compress(values);
        (stream.expect("encode"), kind.id() | CHUNKED_CODEC_ID_FLAG)
    } else {
        (kind.build().compress(values).expect("encode"), kind.id())
    }
}

/// Copy `from` in `src` to `to` in `dest`, every value stream (the
/// base, each delta chunk) replaced by what `recode(stream, codec id,
/// codec param, values)` returns: a stream and its codec id. The value
/// blocks take `param` as their codec parameter; every index entry and
/// checksum is recomputed.
fn copy_recoded(
    (src, from): (&Canopus, &str),
    (dest, to): (&Canopus, &str),
    param: f64,
    recode: impl Fn(&[u8], u8, f64, usize) -> (Vec<u8>, u8),
) {
    let bp = src.store().open(from).expect("open");
    let mut write = dest.store().begin_write(to, bp.meta().num_levels);
    for var in &bp.meta().vars {
        for block in &var.blocks {
            let (bytes, _, _) = bp.read_block(block).expect("read");
            let mut copy = BlockWrite {
                var: var.name.clone(),
                kind: block.kind,
                data: bytes.clone(),
                elements: block.elements,
                codec_id: block.codec_id,
                codec_param: param,
                raw_bytes: block.raw_bytes,
                min: block.min,
                max: block.max,
                chunks: block.chunks.clone(),
            };
            match block.kind {
                ProductKind::Base { .. } => {
                    let n = block.elements as usize;
                    let (stream, id) = recode(&bytes, block.codec_id, block.codec_param, n);
                    (copy.data, copy.codec_id) = (Bytes::from(stream), id);
                }
                ProductKind::DeltaShard { .. } => {
                    let mut data = Vec::new();
                    for e in &mut copy.chunks {
                        let old = &bytes[e.offset as usize..(e.offset + e.len) as usize];
                        let n = e.elements as usize;
                        let (stream, id) = recode(old, e.codec_id, block.codec_param, n);
                        *e = ChunkEntry {
                            offset: data.len() as u64,
                            len: stream.len() as u64,
                            checksum: checksum64(&stream),
                            codec_id: id,
                            ..e.clone()
                        };
                        data.extend_from_slice(&stream);
                    }
                    copy.data = Bytes::from(data);
                }
                ProductKind::Metadata { .. } => copy.codec_param = block.codec_param,
            }
            write.push(copy).expect("push");
        }
    }
    write.commit().expect("commit");
}

/// Copy the written file `from` in `c` to `to` beside it, every value
/// stream stored by `kind` as the writer would store it.
fn transcoded(c: &Canopus, from: &str, kind: CodecKind, to: &str) {
    let param = kind.build().error_bound();
    copy_recoded((c, from), (c, to), param, |stream, id, old_param, n| {
        encode(&decode(stream, id, old_param, n), kind, TILE)
    });
}

/// Walk `file` in `c` from its base to level 0 one step at a time, each
/// step made by `refine_once` and by a whole-domain `refine_region`, and
/// each level restored by a cold `read_level` too, all held to the
/// oracle's values; `refine_once`'s RMS and the one the walk cached are
/// held to the oracle's bits. Returns level 0's values and each refined
/// level's value count, finest first.
fn refine_against_the_oracle(c: &Canopus, file: &str) -> (Vec<u64>, Vec<usize>) {
    let reader = c.open(file).expect("open").with_level_cache(0);
    let mut current: ReadOutcome = reader.read_base("v").expect("base");
    let mut lens = Vec::new();
    while current.level > 0 {
        let what = format!("{file} L{}", current.level - 1);
        let (once, rms) = reader.refine_once("v", &current).expect("refine_once");
        let (region, stats) = reader
            .refine_region("v", &current, whole_domain())
            .expect("refine_region");
        let (want, want_rms) = oracle_refine(c, file, "v", &current, &once.mesh);
        assert_eq!(bits(&once.data), bits(&want), "{what}: refine_once");
        assert_eq!(bits(&region.data), bits(&want), "{what}: refine_region");
        assert_eq!(rms.to_bits(), want_rms.to_bits(), "{what}: delta_rms");
        // A cold walk to the level restores it by the same step, and
        // caches the RMS it computed: a `refine_once` the cache answers
        // hands that back.
        let walker = c.open(file).expect("open");
        let walked = walker.read_level("v", once.level).expect("read_level");
        assert_eq!(bits(&walked.data), bits(&want), "{what}: read_level");
        let (hit, cached_rms) = walker.refine_once("v", &current).expect("cached");
        assert!(Arc::ptr_eq(&hit.data, &walked.data), "{what}: a cache hit");
        assert_eq!(
            cached_rms.to_bits(),
            want_rms.to_bits(),
            "{what}: the walk's"
        );
        assert_eq!(stats.exact_vertices, want.len(), "{what}");
        assert!(once.level_exact && region.level_exact, "{what}");
        lens.insert(0, want.len());
        current = once;
    }
    (bits(&current.data), lens)
}

/// The value counts of `fpc.bp`'s refined levels, finest first: three
/// tiles, one tile and a remainder, less than one tile.
const WRITTEN: [usize; 3] = [150_000, 75_000, 37_500];

#[test]
fn refine_steps_give_the_oracles_bits_under_every_codec() {
    // The written file's levels span three tiles, one tile and a
    // remainder, and less than one; the edge file's steps are one value
    // past a tile, a tile, and one value short of one. The two run side
    // by side, so that one file is written while the other is.
    let sources = [
        (store as fn() -> _, "fpc.bp", &WRITTEN),
        (edges, "edges.bp", &[TILE + 1, TILE, TILE - 1]),
    ];
    std::thread::scope(|s| {
        for (c, source, counts) in sources {
            s.spawn(move || {
                let c = c();
                for kind in CODECS {
                    let file = format!("steps-{}-{source}", kind.build().name());
                    transcoded(c, source, kind, &file);
                    let (_, lens) = refine_against_the_oracle(c, &file);
                    assert_eq!(lens, counts, "{file}: the levels' value counts");
                    c.store().delete(&file).unwrap();
                }
            });
        }
    });

    // The copies frame as the writer does: recoded by the writer's
    // codec, the written file comes back byte for byte.
    transcoded(store(), "fpc.bp", CodecKind::Fpc, "again.bp");
    let blocks = |file: &str| {
        let bp: BpFile = store().store().open(file).unwrap();
        let var = bp.inq_var("v").unwrap();
        let stored: Vec<Bytes> = var
            .blocks
            .iter()
            .map(|b| bp.read_block(b).unwrap().0)
            .collect();
        stored
    };
    assert_eq!(blocks("fpc.bp"), blocks("again.bp"));
    store().store().delete("again.bp").unwrap();
}

#[test]
fn a_file_framed_in_halves_refines_to_the_oracles_bits() {
    for kind in CODECS {
        let file = format!("{}-tiles.bp", kind.build().name());
        let halves = format!("{}-halves.bp", kind.build().name());
        transcoded(store(), "fpc.bp", kind, &file);
        // Two chunks of n/2 a framed stream: the grain a two-core
        // writer used.
        let param = kind.build().error_bound();
        let (from, to) = ((store(), file.as_str()), (store(), halves.as_str()));
        copy_recoded(from, to, param, |stream, id, param, n| {
            if id & CHUNKED_CODEC_ID_FLAG == 0 {
                return (stream.to_vec(), id);
            }
            encode(&decode(stream, id, param, n), kind, n.div_ceil(2))
        });
        // The restore runs by tile whatever the stream's framing, so even
        // the RMS keeps the oracle's bits.
        let (level0, lens) = refine_against_the_oracle(store(), &halves);
        assert_eq!(lens, WRITTEN, "{halves}");
        if kind.build().is_lossless() {
            // The reframed streams hold the same values.
            let (tiled, _) = refine_against_the_oracle(store(), &file);
            assert_eq!(level0, tiled, "{halves}: reframing moved a value");
        }
        store().store().delete(&file).unwrap();
        store().store().delete(&halves).unwrap();
    }
}

#[test]
fn a_chunk_table_that_disagrees_with_the_manifest_is_refused() {
    // A framed stream's chunk count is its bytes 10..18, the first
    // chunk's length its bytes 18..26.
    let corrupt = |at: usize| {
        move |stream: &[u8], id: u8, _: f64, _: usize| {
            let mut bad = stream.to_vec();
            if id & CHUNKED_CODEC_ID_FLAG != 0 {
                let word = u64::from_le_bytes(bad[at..at + 8].try_into().unwrap());
                bad[at..at + 8].copy_from_slice(&(word + 1).to_le_bytes());
            }
            (bad, id)
        }
    };
    let from = (store(), "fpc.bp");
    copy_recoded(from, (store(), "count.bp"), 0.0, corrupt(10));
    copy_recoded(from, (store(), "lengths.bp"), 0.0, corrupt(18));
    for file in ["count.bp", "lengths.bp"] {
        let reader = store().open(file).expect("open").with_level_cache(0);
        let base = reader.read_base("v").expect("base");
        // Level 2 is less than a tile, stored unframed: untouched.
        let (l2, _) = reader.refine_once("v", &base).expect("level 2");
        assert!(reader.refine_once("v", &l2).is_err(), "{file}: refine_once");
        assert!(
            reader.refine_region("v", &l2, whole_domain()).is_err(),
            "{file}: refine_region"
        );
        assert!(reader.read_level("v", 1).is_err(), "{file}: the walk");
    }
}

#[test]
fn a_tile_pass_counts_as_one_decode_of_its_stream() {
    // A store of its own: no other test's reads reach its registry.
    let own = empty_store();
    copy_recoded(
        (store(), "fpc.bp"),
        (&own, "fpc.bp"),
        0.0,
        |stream, id, _, _| (stream.to_vec(), id),
    );
    let reader = own.open("fpc.bp").expect("open").with_level_cache(0);
    let mut current = reader.read_base("v").expect("base");
    while current.level > 0 {
        let before = own.metrics().snapshot();
        let (next, _) = reader.refine_once("v", &current).expect("refine");
        let step = own.metrics().snapshot().diff(&before);
        let what = format!("L{}", next.level);
        // One observation and one timer record per stream, however many
        // tiles it has, and every value counted once.
        assert_eq!(step.histogram(names::READ_DECODE_HIST).count, 1, "{what}");
        assert_eq!(step.timer(names::READ_DECOMPRESS).count, 1, "{what}");
        let values = step.counter(names::READ_VALUES_DECODED);
        assert_eq!(values, next.data.len() as u64, "{what}");
        // The phase rows are what the timers recorded: the step's decode
        // and restore wall seconds.
        let decode = step.timer(names::READ_DECOMPRESS).wall_secs;
        assert!(
            (decode - next.timing.decompress_secs).abs() < 1e-9,
            "{what}"
        );
        let restore = step.timer(names::READ_RESTORE).wall_secs;
        assert!((restore - next.timing.restore_secs).abs() < 1e-9, "{what}");
        assert!(next.timing.decompress_secs > 0.0 && restore > 0.0, "{what}");
        current = next;
    }
}

#[test]
fn a_step_whose_tile_does_not_decode_fails_and_caches_nothing() {
    // Level 0's delta is the one stream of three chunks: the tiles the
    // step decodes into the level's unfilled buffer.
    for k in [1, 2] {
        // A store of its own: no other test's reads reach its registry.
        let own = empty_store();
        copy_recoded(
            (store(), "fpc.bp"),
            (&own, "bad.bp"),
            0.0,
            |stream, id, _, n| {
                let mut bad = stream.to_vec();
                if id & CHUNKED_CODEC_ID_FLAG != 0 {
                    let table = ChunkTable::parse(stream, n).expect("a framed stream");
                    if table.spans.len() == 3 {
                        // Tile k's first byte is its codec's magic.
                        bad[table.spans[k].start] ^= 0xFF;
                    }
                }
                (bad, id)
            },
        );
        let reader = own.open("bad.bp").expect("open");
        let l1 = reader.read_level("v", 1).expect("level 1 is intact");
        let hits = || reader.metrics().counter(names::READ_CACHE_HITS).get();
        // Twice: a failed step that had cached its buffer would be
        // answered from the cache the second time.
        for attempt in 0..2 {
            let what = format!("tile {k}, attempt {attempt}");
            let before = hits();
            let err = reader.refine_once("v", &l1).expect_err(&what);
            assert!(
                matches!(err, CanopusError::Codec(CodecError::Corrupt(_))),
                "{what}: {err}"
            );
            assert_eq!(hits(), before, "{what}: a cache hit");
        }
        assert!(reader.refine_region("v", &l1, whole_domain()).is_err());
        assert!(reader.read_level("v", 0).is_err(), "tile {k}: the walk");

        // The same step on the good file gives the oracle's bits.
        let good = store().open("fpc.bp").expect("open").with_level_cache(0);
        let l1 = good.read_level("v", 1).expect("level 1");
        let (once, _) = good.refine_once("v", &l1).expect("the good step");
        let (want, _) = oracle_refine(store(), "fpc.bp", "v", &l1, &once.mesh);
        assert_eq!(bits(&once.data), bits(&want), "tile {k}: the good step");
    }
}

#[test]
fn a_steps_decode_and_restore_rows_fit_in_its_elapsed_time() {
    // One-chunk levels, whose tiles decode and restore on every core: the
    // written file and its copies under the two slowest decoders. And a
    // file in eight chunks a level, whose steps decode the chunks on a
    // thread of their own beside the geometry load, or in parallel.
    let ds = xgc1_dataset_sized(20, 1000, 7);
    let chunked = store_of(levels(3), 8);
    chunked
        .write("chunks.bp", "v", &ds.mesh, &ds.data)
        .expect("write");
    let lossy = &CODECS[..2];
    let copies: Vec<String> = lossy
        .iter()
        .map(|kind| format!("phase-{}.bp", kind.build().name()))
        .collect();
    for (&kind, copy) in lossy.iter().zip(&copies) {
        transcoded(store(), "fpc.bp", kind, copy);
    }
    let mut files = vec![(store(), "fpc.bp"), (&chunked, "chunks.bp")];
    files.extend(copies.iter().map(|f| (store(), f.as_str())));
    for (c, file) in files {
        let check = |how: &str, t: PhaseTiming| {
            let what = format!("{file} {how}: {t:?}");
            assert!(t.decompress_secs > 0.0 && t.restore_secs > 0.0, "{what}");
            assert!(
                t.decompress_secs + t.restore_secs <= t.elapsed_secs,
                "{what}"
            );
        };
        // A cold walk to level 0 takes every step.
        let walker = c.open(file).expect("open").with_level_cache(0);
        check(
            "read_level",
            walker.read_level("v", 0).expect("walk").timing,
        );
        // With the geometry held, a step's elapsed time is little more
        // than its fetch, decode and restore.
        let reader = c.open(file).expect("open").with_level_cache(0);
        reader.warm_metadata("v").expect("geometry");
        let mut current = reader.read_base("v").expect("base");
        while current.level > 0 {
            let (once, _) = reader.refine_once("v", &current).expect("refine_once");
            let (region, _) = reader
                .refine_region("v", &current, whole_domain())
                .expect("refine_region");
            check(&format!("L{} refine_once", once.level), once.timing);
            check(&format!("L{} refine_region", once.level), region.timing);
            current = once;
        }
    }
    for copy in &copies {
        store().store().delete(copy).unwrap();
    }
}
