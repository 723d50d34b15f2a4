//! A refinement step of a level stored as one spatial chunk decodes and
//! restores each tile of its delta in one pass. These pin the pass to
//! the oracle in `tests/support` (the delta decoded whole, then restored
//! in place): `refine_once`, a whole-domain `refine_region` step and a
//! cold `read_level` walk give its bits, under every codec, on levels of
//! less than one tile, of one tile and a remainder, and of several
//! tiles; a file whose streams are framed at another grain (as files
//! written before the grain was fixed are) refines to its bits too; and
//! a stream whose chunk table disagrees with the manifest is refused
//! with an error.
//!
//! One file is written (decimation dominates a write); the others are
//! copies of it with every value stream recoded, so they share its
//! geometry.

mod support;

use bytes::Bytes;
use canopus::config::RelativeCodec;
use canopus::{Canopus, CanopusConfig, ReadOutcome};
use canopus_adios::store::BlockWrite;
use canopus_adios::{checksum64, BpFile, ChunkEntry};
use canopus_compress::{Chunked, Codec, CodecKind, CHUNKED_CODEC_ID_FLAG};
use canopus_data::xgc1_dataset_sized;
use canopus_obs::names;
use canopus_refactor::levels::RefactorConfig;
use canopus_refactor::TILE;
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
    let raw = 150_000 * 8;
    Canopus::new(
        Arc::new(StorageHierarchy::titan_two_tier(raw, raw * 64)),
        CanopusConfig {
            refactor: RefactorConfig {
                num_levels: 4,
                ..Default::default()
            },
            codec: RelativeCodec::Fpc,
            ..Default::default()
        },
    )
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

/// Copy `from` in [`store`] to `to` in `dest`, every value stream (the
/// base, each delta chunk) replaced by what `recode(stream, codec id,
/// codec param, values)` returns: a stream and its codec id. The value
/// blocks take `param` as their codec parameter; every index entry and
/// checksum is recomputed.
fn copy_recoded(
    dest: &Canopus,
    from: &str,
    to: &str,
    param: f64,
    recode: impl Fn(&[u8], u8, f64, usize) -> (Vec<u8>, u8),
) {
    let bp = store().store().open(from).expect("open");
    let mut write = dest.store().begin_write(to, bp.meta().num_levels, 4);
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

/// Copy the written file to `to`, every value stream stored by `kind`
/// as the writer would store it.
fn transcoded(kind: CodecKind, to: &str) {
    let param = kind.build().error_bound();
    copy_recoded(store(), "fpc.bp", to, param, |stream, id, old_param, n| {
        encode(&decode(stream, id, old_param, n), kind, TILE)
    });
}

/// Walk `file` from its base to level 0 one step at a time, each step
/// made by `refine_once` and by a whole-domain `refine_region`, and each
/// level restored by a cold `read_level` too, all held to the oracle's
/// values; `refine_once`'s RMS and the one the walk cached are handed to
/// `check_rms` with the oracle's. Returns level 0's values and each
/// refined level's tile count, finest first.
fn refine_against_the_oracle(
    file: &str,
    check_rms: impl Fn(f64, f64, &str),
) -> (Vec<u64>, Vec<usize>) {
    let c = store();
    let reader = c.open(file).expect("open").with_level_cache(0);
    let mut current: ReadOutcome = reader.read_base("v").expect("base");
    let mut tiles = Vec::new();
    while current.level > 0 {
        let what = format!("{file} L{}", current.level - 1);
        let (once, rms) = reader.refine_once("v", &current).expect("refine_once");
        let (region, stats) = reader
            .refine_region("v", &current, whole_domain())
            .expect("refine_region");
        let (want, want_rms) = oracle_refine(c, file, "v", &current, &once.mesh);
        assert_eq!(bits(&once.data), bits(&want), "{what}: refine_once");
        assert_eq!(bits(&region.data), bits(&want), "{what}: refine_region");
        check_rms(rms, want_rms, &what);
        // A cold walk to the level restores it by the same step, and
        // caches the RMS it computed: a `refine_once` the cache answers
        // hands that back.
        let walker = c.open(file).expect("open");
        let walked = walker.read_level("v", once.level).expect("read_level");
        assert_eq!(bits(&walked.data), bits(&want), "{what}: read_level");
        let (hit, cached_rms) = walker.refine_once("v", &current).expect("cached");
        assert!(Arc::ptr_eq(&hit.data, &walked.data), "{what}: a cache hit");
        check_rms(cached_rms, want_rms, &format!("{what}: the walk's"));
        assert_eq!(stats.exact_vertices, want.len(), "{what}");
        assert!(once.level_exact && region.level_exact, "{what}");
        tiles.insert(0, want.len().div_ceil(TILE));
        current = once;
    }
    (bits(&current.data), tiles)
}

#[test]
fn refine_steps_give_the_oracles_bits_under_every_codec() {
    // The copies frame as the writer does: recoded by the writer's
    // codec, the written file comes back byte for byte.
    transcoded(CodecKind::Fpc, "again.bp");
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

    for kind in CODECS {
        let file = format!("steps-{}.bp", kind.build().name());
        transcoded(kind, &file);
        let (_, tiles) = refine_against_the_oracle(&file, |rms, want, what| {
            assert_eq!(rms.to_bits(), want.to_bits(), "{what}: delta_rms");
        });
        assert_eq!(tiles, [3, 2, 1], "{file}: the levels' tile counts");
        store().store().delete(&file).unwrap();
    }
}

#[test]
fn a_file_framed_in_halves_refines_to_the_oracles_bits() {
    for kind in CODECS {
        let file = format!("{}-tiles.bp", kind.build().name());
        let halves = format!("{}-halves.bp", kind.build().name());
        transcoded(kind, &file);
        // Two chunks of n/2 a framed stream: the grain a two-core
        // writer used.
        let param = kind.build().error_bound();
        copy_recoded(store(), &file, &halves, param, |stream, id, param, n| {
            if id & CHUNKED_CODEC_ID_FLAG == 0 {
                return (stream.to_vec(), id);
            }
            encode(&decode(stream, id, param, n), kind, n.div_ceil(2))
        });
        // The squares are summed per tile, so the RMS may differ from
        // the oracle's in the last bits.
        let (level0, tiles) = refine_against_the_oracle(&halves, |rms, want, what| {
            assert!(
                (rms - want).abs() <= 1e-12 * want,
                "{what}: {rms} vs {want}"
            );
        });
        assert_eq!(tiles, [3, 2, 1], "{halves}");
        if kind.build().is_lossless() {
            // The reframed streams hold the same values.
            let (tiled, _) = refine_against_the_oracle(&file, |_, _, _| {});
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
    copy_recoded(store(), "fpc.bp", "count.bp", 0.0, corrupt(10));
    copy_recoded(store(), "fpc.bp", "lengths.bp", 0.0, corrupt(18));
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
    copy_recoded(&own, "fpc.bp", "fpc.bp", 0.0, |stream, id, _, _| {
        (stream.to_vec(), id)
    });
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
        // The phase rows are the tiles' decode and restore seconds.
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
