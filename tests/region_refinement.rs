//! Integration tests for focused data retrieval (paper §III-E/§IV-D:
//! "reading smaller subsets of high accuracy data"): deltas written as
//! indexed shards of spatial chunks, regions refined by fetching only
//! the intersecting chunks with ranged reads.

mod support;

use bytes::Bytes;
use canopus::config::RelativeCodec;
use canopus::{Canopus, CanopusConfig};
use canopus_data::xgc1_dataset_sized;
use canopus_mesh::geometry::{Aabb, Point2};
use canopus_obs::names;
use canopus_refactor::levels::RefactorConfig;
use canopus_storage::StorageHierarchy;
use std::sync::Arc;

const CHUNKS: u32 = 8;

fn setup_with(chunks: u32, codec: RelativeCodec) -> (canopus_data::Dataset, Canopus) {
    let ds = xgc1_dataset_sized(16, 80, 33);
    let raw = (ds.data.len() * 8) as u64;
    let canopus = Canopus::new(
        Arc::new(StorageHierarchy::titan_two_tier(raw / 4, raw * 64)),
        CanopusConfig {
            refactor: RefactorConfig {
                num_levels: 3,
                ..Default::default()
            },
            codec,
            delta_chunks: chunks,
            ..Default::default()
        },
    );
    canopus
        .write("roi.bp", ds.var, &ds.mesh, &ds.data)
        .expect("write");
    (ds, canopus)
}

fn setup(chunks: u32) -> (canopus_data::Dataset, Canopus) {
    // Raw codec: exactness makes assertions crisp.
    setup_with(chunks, RelativeCodec::Raw)
}

/// A quadrant of the annulus.
fn quadrant() -> Aabb {
    Aabb::from_points([Point2::new(0.0, 0.0), Point2::new(1.1, 1.1)])
}

#[test]
fn chunked_full_read_matches_unchunked() {
    let (ds, chunked) = setup(CHUNKS);
    let (_, plain) = setup(1);
    let a = chunked
        .open("roi.bp")
        .unwrap()
        .read_level(ds.var, 0)
        .unwrap();
    let b = plain.open("roi.bp").unwrap().read_level(ds.var, 0).unwrap();
    assert_eq!(a.mesh, b.mesh);
    assert_eq!(a.data, b.data, "chunking must not change full restores");
}

#[test]
fn region_refinement_reads_fewer_chunks_and_bytes() {
    let (ds, canopus) = setup(CHUNKS);
    // No chunk cache: every chunk a step needs is a fetch.
    let reader = canopus.open("roi.bp").unwrap().with_level_cache(0);
    reader.warm_metadata(ds.var).unwrap();
    let base = reader.read_base(ds.var).unwrap();

    let (_, stats) = reader.refine_region(ds.var, &base, quadrant()).unwrap();
    assert_eq!(stats.chunks_total, CHUNKS as usize);
    assert!(
        stats.chunks_read < stats.chunks_total,
        "a quadrant must not need every chunk: {stats:?}"
    );
    assert!(stats.chunks_read >= 1, "the quadrant is covered by data");
    assert!(stats.exact_vertices > 0);
    assert!((stats.exact_vertices as f64) < 0.95 * ds.len() as f64);

    // And the I/O cost is under the full refinement's.
    let (_, full_stats) = reader.refine_region(ds.var, &base, ds.mesh.aabb()).unwrap();
    assert_eq!(full_stats.chunks_read, full_stats.chunks_total);
    assert!(stats.bytes_read < full_stats.bytes_read);
}

#[test]
fn region_values_are_exact_inside_coarse_outside() {
    let (ds, canopus) = setup(CHUNKS);
    let reader = canopus.open("roi.bp").unwrap();
    let base = reader.read_base(ds.var).unwrap();
    let region = quadrant();

    let (roi, stats) = reader.refine_region(ds.var, &base, region).unwrap();
    let (full, _) = reader.refine_once(ds.var, &base).unwrap();
    assert_eq!(roi.level, full.level);
    assert_eq!(roi.mesh, full.mesh);

    // Inside the region every vertex matches the full refinement exactly
    // (Raw codec; same estimate arithmetic). We check via chunk ranges:
    // every vertex the stats call exact must equal the full restore.
    let mut exact_matches = 0usize;
    let mut coarse_only = 0usize;
    for v in 0..roi.data.len() {
        if roi.data[v] == full.data[v] {
            exact_matches += 1;
        } else {
            coarse_only += 1;
        }
    }
    assert!(
        exact_matches >= stats.exact_vertices,
        "all fetched-chunk vertices must be exact: {exact_matches} < {}",
        stats.exact_vertices
    );
    assert!(coarse_only > 0, "outside vertices carry the estimate only");

    // Strong check inside the region proper.
    for (v, p) in roi.mesh.points().iter().enumerate() {
        if region.contains(*p) {
            assert_eq!(
                roi.data[v], full.data[v],
                "vertex {v} at {p:?} inside the region must be level-exact"
            );
        }
    }
}

#[test]
fn unchunked_file_degrades_to_full_refinement() {
    let (ds, canopus) = setup(1);
    // A level cache of one entry: anything the region step admitted
    // would push the base out.
    let reader = canopus.open("roi.bp").unwrap().with_level_cache(1);
    let base = reader.read_base(ds.var).unwrap();
    let shard_bytes = {
        let shards = reader.file().inq_var(ds.var).unwrap().delta_shards_to(1);
        assert_eq!(shards.len(), 1, "a one-chunk delta is one shard");
        assert_eq!(shards[0].chunks.len(), 1);
        shards[0].stored_bytes
    };
    let (roi, stats) = reader.refine_region(ds.var, &base, quadrant()).unwrap();
    assert_eq!(stats.chunks_total, 1);
    assert_eq!(stats.chunks_read, 1);
    assert_eq!(stats.chunks_cached, 0);
    assert_eq!(stats.bytes_read, shard_bytes, "the one chunk is the shard");
    assert_eq!(stats.exact_vertices, roi.data.len());
    assert!(roi.level_exact, "every chunk fetched on an exact field");
    // (A second reader: a full refinement enters the level cache.)
    let warm = canopus.open("roi.bp").unwrap();
    let (full, _) = warm.refine_once(ds.var, &base).unwrap();
    assert_eq!(roi.data, full.data);

    // On that reader the region step is a full refinement the level
    // cache answers: the same bits, no tier fetch, one cache hit, and
    // the one chunk planned and skipped.
    let m = canopus.metrics();
    let counters = || {
        [
            names::READ_CHUNKS_PLANNED,
            names::READ_CHUNKS_FETCHED,
            names::READ_CHUNKS_SKIPPED,
            names::READ_CACHE_HITS,
            names::READ_BYTES_IO,
        ]
        .map(|n| m.counter(n).get())
    };
    let before = counters();
    let (hit, hit_stats) = warm.refine_region(ds.var, &base, quadrant()).unwrap();
    let moved: Vec<u64> = counters().iter().zip(before).map(|(a, b)| a - b).collect();
    assert_eq!(hit.data, roi.data);
    assert!(hit.level_exact);
    assert_eq!(hit_stats.chunks_total, 1);
    assert_eq!(hit_stats.chunks_read, 1);
    assert_eq!(hit_stats.chunks_cached, 1, "answered by the level cache");
    assert_eq!(hit_stats.bytes_read, 0);
    assert_eq!(hit_stats.exact_vertices, roi.data.len());
    assert_eq!(
        moved,
        [1, 0, 1, 1, 0],
        "planned, fetched, skipped, hits, bytes"
    );

    // The one chunk is the whole level's delta; it does not enter the
    // decoded-chunk cache, and a region step stores nothing in the
    // level cache, so a repeat on the first reader fetches again and
    // the level cache keeps what it held.
    let (again, repeat) = reader.refine_region(ds.var, &base, quadrant()).unwrap();
    assert_eq!(again.data, roi.data);
    assert_eq!(repeat.chunks_cached, 0, "nothing was stored");
    assert_eq!(repeat.bytes_read, shard_bytes);
    let (hits, io) = (
        m.counter(names::READ_CACHE_HITS).get(),
        m.counter(names::READ_BYTES_IO).get(),
    );
    let cached_base = reader.read_base(ds.var).unwrap();
    assert_eq!(cached_base.data, base.data);
    assert_eq!(m.counter(names::READ_CACHE_HITS).get(), hits + 1);
    assert_eq!(
        m.counter(names::READ_BYTES_IO).get(),
        io,
        "the region steps evicted nothing from the level cache"
    );
}

#[test]
fn region_refinement_at_full_accuracy_errors() {
    let (ds, canopus) = setup(CHUNKS);
    let reader = canopus.open("roi.bp").unwrap();
    let full = reader.read_level(ds.var, 0).unwrap();
    assert!(reader.refine_region(ds.var, &full, quadrant()).is_err());
}

#[test]
fn progressive_then_region_zoom_workflow() {
    // The paper's §IV-D workflow: "quickly scan for features at low
    // accuracy, then zoom into areas with features by fetching a subset
    // of high accuracy data."
    let (ds, canopus) = setup(CHUNKS);
    let reader = canopus.open("roi.bp").unwrap();
    reader.warm_metadata(ds.var).unwrap();

    // Scan pass: base only.
    let base = reader.read_base(ds.var).unwrap();
    let scan_io = base.timing.io_secs;

    // Zoom pass: one region refined to the next level.
    let (zoom, stats) = reader.refine_region(ds.var, &base, quadrant()).unwrap();
    assert!(zoom.data.len() > base.data.len());
    assert!(stats.chunks_read < stats.chunks_total);

    // Full refinement for comparison moves more bytes than the zoom.
    // (Bytes, not simulated seconds: each chunk is its own ranged read
    // and pays the tier's latency, which at this 1.3k-vertex scale
    // outweighs the transfer itself — a whole shard is one read.)
    let shard_bytes: u64 = reader
        .file()
        .inq_var(ds.var)
        .unwrap()
        .delta_shards_to(zoom.level)
        .iter()
        .map(|b| b.stored_bytes)
        .sum();
    assert!(
        stats.bytes_read < shard_bytes,
        "zoom {} B !< full {shard_bytes} B",
        stats.bytes_read
    );
    // Both cost more than the scan alone.
    assert!(zoom.timing.io_secs > 0.0 && scan_io > 0.0);
}

// ---------------------------------------------------------------------
// Chunk index, ranged fetches, decoded-chunk cache
// ---------------------------------------------------------------------

/// An octant of the bounding square: 1/8 of the domain area.
fn octant() -> Aabb {
    Aabb::from_points([Point2::new(0.0, 0.0), Point2::new(1.1, 0.55)])
}

#[test]
fn sharded_full_read_matches_monolithic() {
    // 16 chunks pack into two shard objects per delta.
    let (ds, sharded) = setup(16);
    let (_, plain) = setup(1);
    let shards = sharded.open("roi.bp").unwrap();
    assert_eq!(
        shards
            .file()
            .inq_var(ds.var)
            .unwrap()
            .delta_shards_to(0)
            .len(),
        2
    );
    let a = shards.read_level(ds.var, 0).unwrap();
    let b = plain.open("roi.bp").unwrap().read_level(ds.var, 0).unwrap();
    assert_eq!(a.mesh, b.mesh);
    assert_eq!(a.data, b.data, "sharding must not change full restores");
}

#[test]
fn every_chunk_count_restores_every_level_for_every_codec() {
    // One layout, whatever the chunk count: under the lossless codecs a
    // k-chunk file restores every level to the bits of the one-chunk
    // default; under the lossy ones, whose streams depend on how the
    // values are split, to within the codec bound (the base and each
    // delta add at most one). The walk restores the bits of the stepwise
    // reference on the same file.
    let bits = |data: &[f64]| data.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (codec, rel) in [
        (RelativeCodec::Raw, 0.0),
        (RelativeCodec::Fpc, 0.0),
        (
            RelativeCodec::ZfpLike {
                rel_tolerance: 1e-6,
            },
            1e-6,
        ),
        (
            RelativeCodec::SzLike {
                rel_error_bound: 1e-4,
            },
            1e-4,
        ),
    ] {
        let (ds, exact) = setup(1);
        let range = canopus_mesh::FieldStats::of(&ds.data).range();
        let bound = 3.0 * rel * range;
        for chunks in [1, 4, 16] {
            let (_, canopus) = setup_with(chunks, codec);
            let open = || canopus.open("roi.bp").unwrap().with_level_cache(0);
            let walker = open();
            for level in 0..3 {
                let want = support::stepwise_restore(&exact, "roi.bp", ds.var, level);
                let a = walker.read_level(ds.var, level).unwrap();
                let b = support::stepwise_restore(&canopus, "roi.bp", ds.var, level);
                let what = format!("{codec:?} k={chunks} level {level}");
                assert_eq!(a.mesh, want.mesh, "{what}");
                assert_eq!(bits(&a.data), bits(&b.data), "{what}: walk differs");
                let max_err = a
                    .data
                    .iter()
                    .zip(want.data.iter())
                    .map(|(x, y)| (x - y).abs())
                    .fold(0.0f64, f64::max);
                assert!(max_err <= bound, "{what}: err {max_err} > {bound}");
            }
            // A region step plans the file's whole chunk population and
            // agrees with the full refinement wherever it fetched.
            let reader = open();
            let base = reader.read_base(ds.var).unwrap();
            let (roi, stats) = reader.refine_region(ds.var, &base, quadrant()).unwrap();
            let (full, _) = reader.refine_once(ds.var, &base).unwrap();
            assert_eq!(stats.chunks_total, chunks as usize, "{codec:?}");
            for (v, p) in roi.mesh.points().iter().enumerate() {
                if quadrant().contains(*p) {
                    assert_eq!(roi.data[v], full.data[v], "{codec:?} k={chunks} vertex {v}");
                }
            }
        }
    }
}

/// The tentpole's acceptance: a small region moves a strict subset of
/// the level's chunks — observable in the `canopus.read.chunks_*`
/// counters — and at most half the full level's tier bytes.
#[test]
fn sharded_small_region_moves_strict_chunk_and_byte_subset() {
    const SHARD_TEST_CHUNKS: u32 = 16;
    let (ds, canopus) = setup(SHARD_TEST_CHUNKS);
    let reader = canopus.open("roi.bp").unwrap().with_level_cache(0); // no chunk cache: every planned hit is a fetch
    reader.warm_metadata(ds.var).unwrap();
    let base = reader.read_base(ds.var).unwrap();

    let snap0 = canopus.metrics().snapshot();
    let (roi, stats) = reader.refine_region(ds.var, &base, octant()).unwrap();
    let snap1 = canopus.metrics().snapshot();

    let planned =
        snap1.counter(names::READ_CHUNKS_PLANNED) - snap0.counter(names::READ_CHUNKS_PLANNED);
    let fetched =
        snap1.counter(names::READ_CHUNKS_FETCHED) - snap0.counter(names::READ_CHUNKS_FETCHED);
    let skipped =
        snap1.counter(names::READ_CHUNKS_SKIPPED) - snap0.counter(names::READ_CHUNKS_SKIPPED);
    assert_eq!(
        planned, SHARD_TEST_CHUNKS as u64,
        "planned = level's chunk population"
    );
    assert_eq!(
        fetched, stats.chunks_read as u64,
        "cache off: every read chunk is fetched"
    );
    assert_eq!(skipped, planned - fetched);
    assert!(
        fetched < planned,
        "an octant region must not fetch every chunk: {fetched}/{planned}"
    );
    assert!(fetched >= 1, "the octant is covered by data");
    assert_eq!(stats.chunks_cached, 0);
    // Ranged chunk fetches land in the per-fetch latency histogram.
    let fetch_hist = snap1.histogram(names::READ_CHUNK_FETCH_HIST).count
        - snap0.histogram(names::READ_CHUNK_FETCH_HIST).count;
    assert_eq!(fetch_hist, fetched, "one histogram sample per ranged fetch");

    // Byte bound: the region's tier bytes are at most half the level's.
    let full_reader = canopus.open("roi.bp").unwrap().with_level_cache(0);
    let full_base = full_reader.read_base(ds.var).unwrap();
    let (full, full_stats) = full_reader
        .refine_region(ds.var, &full_base, ds.mesh.aabb())
        .unwrap();
    assert_eq!(full_stats.chunks_read, full_stats.chunks_total);
    assert!(
        2 * stats.bytes_read <= full_stats.bytes_read,
        "octant bytes {} must be <= half of level bytes {}",
        stats.bytes_read,
        full_stats.bytes_read
    );

    // Byte identity: inside the region the refine equals the full
    // refinement exactly (Raw codec).
    for (v, p) in roi.mesh.points().iter().enumerate() {
        if octant().contains(*p) {
            assert_eq!(roi.data[v], full.data[v], "vertex {v} at {p:?}");
        }
    }
}

#[test]
fn sharded_chunk_cache_serves_repeat_regions() {
    let (ds, canopus) = setup(CHUNKS);
    let reader = canopus.open("roi.bp").unwrap();
    reader.warm_metadata(ds.var).unwrap();
    let base = reader.read_base(ds.var).unwrap();

    let (first, s1) = reader.refine_region(ds.var, &base, quadrant()).unwrap();
    assert_eq!(s1.chunks_cached, 0, "cold cache");
    assert!(s1.bytes_read > 0);

    let (second, s2) = reader.refine_region(ds.var, &base, quadrant()).unwrap();
    assert_eq!(second.data, first.data, "cache must not change results");
    assert_eq!(s2.chunks_read, s1.chunks_read);
    assert_eq!(
        s2.chunks_cached, s2.chunks_read,
        "repeat region is answered entirely from the chunk cache"
    );
    assert_eq!(s2.bytes_read, 0, "no tier I/O on the repeat");
}

/// `CBP3` is the only manifest revision: a manifest carrying the magic
/// of an earlier one is corrupt, not a file to read some other way.
#[test]
fn retired_manifest_revisions_are_rejected_on_open() {
    let (_, canopus) = setup(CHUNKS);
    let hier = canopus.hierarchy();
    let key = "roi.bp/.bpmeta";
    let tier = hier.find(key).unwrap();
    let manifest = hier.remove(key).unwrap();
    assert_eq!(&manifest[..4], b"CBP3");
    for rev in [b"CBP2", b"CBP1"] {
        let mut old = manifest.to_vec();
        old[..4].copy_from_slice(rev);
        hier.write_to_tier(tier, key, Bytes::from(old)).unwrap();
        let err = canopus.open("roi.bp").err().expect("must not open");
        assert!(
            err.to_string().contains("corrupt BP metadata"),
            "{}: {err}",
            String::from_utf8_lossy(rev)
        );
        hier.remove(key).unwrap();
    }
    hier.write_to_tier(tier, key, manifest).unwrap();
    canopus
        .open("roi.bp")
        .expect("the real manifest still opens");
}
