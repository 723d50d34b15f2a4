//! The layer-by-layer replay of a traced run. After the timed interval
//! the same campaign goes through each crate's public entry points on
//! its own — refactor, compress, storage, adios, the level cache,
//! analytics — so every layer has a busy time, a count and a GB/s on
//! exactly the data the workload used.

use crate::campaign::{config, Campaign};
use crate::metrics::Values;
use crate::trace::Tracer;
use crate::workloads::Write;
use bytes::Bytes;
use canopus_adios::{checksum64, BpStore, FileMeta};
use canopus_analytics::{BlobDetector, BlobParams, Raster};
use canopus_refactor::{restore_level, LevelHierarchy};
use canopus_storage::{StorageHierarchy, TierSpec};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const GB: f64 = 1e9;
/// Side of the blob-detection raster, as in the paper's experiments.
const RASTER: usize = 384;
const RANGE_SLICE: u64 = 64 * 1024;
const REPEATS: u32 = 20;

/// Seconds `call` takes, under a span.
fn timed<R>(tr: &mut Tracer, name: &'static str, op: u64, call: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = tr.time(name, None, op, call);
    (r, t.elapsed().as_secs_f64())
}

/// `full_analytics` also rasterizes level 0, which takes longer than
/// the rest of the replay together; one workload doing it is enough.
pub fn replay(
    c: &Campaign,
    file: &str,
    write: &Write,
    full_analytics: bool,
    tr: &mut Tracer,
    v: &mut Values,
) {
    refactor_and_compress(c, tr, v);
    storage(c, write, tr, v);
    adios(c, file, write, tr, v);
    cache_and_analytics(c, file, full_analytics, tr, v);
}

/// `LevelHierarchy::build` once, then every delta through the default
/// codec and back, then the restore chain from the base up.
fn refactor_and_compress(c: &Campaign, tr: &mut Tracer, v: &mut Values) {
    let cfg = config();
    let (h, build_s) = timed(tr, "refactor.build", 0, || {
        LevelHierarchy::build(&c.ds.mesh, &c.ds.data, cfg.refactor)
    });
    v.set("refactor.build_s", build_s, 1);

    let codec = cfg.codec.resolve(c.hi - c.lo).build();
    let (mut raw, mut encode_s, mut decode_s) = (0u64, 0.0, 0.0);
    let streams = std::iter::once(&h.levels[h.levels.len() - 1].data).chain(&h.deltas);
    for (i, values) in streams.enumerate() {
        let (packed, dt) = timed(tr, "compress.encode", i as u64, || codec.compress(values));
        let packed = packed.expect("the default codec compresses its own deltas");
        encode_s += dt;
        let (back, dt) = timed(tr, "compress.decode", i as u64, || {
            codec.decompress(&packed, values.len())
        });
        assert_eq!(back.expect("and decodes them").len(), values.len());
        decode_s += dt;
        raw += (values.len() * 8) as u64;
    }
    let n = h.deltas.len() as u64 + 1;
    v.set("compress.encode_gbps", raw as f64 / GB / encode_s, n);
    v.set("compress.decode_gbps", raw as f64 / GB / decode_s, n);

    let mut current = h.levels[h.levels.len() - 1].data.clone();
    let (mut restored, mut restore_s) = (0u64, 0.0);
    for l in (0..h.deltas.len()).rev() {
        let (next, dt) = timed(tr, "refactor.restore_level", l as u64, || {
            restore_level(
                &h.levels[l].mesh,
                &h.deltas[l],
                &h.levels[l + 1].mesh,
                &current,
                &h.mappings[l],
                cfg.refactor.estimator,
            )
        });
        restore_s += dt;
        restored += (next.len() * 8) as u64;
        current = next;
    }
    assert_eq!(current.len(), c.ds.len());
    v.set(
        "refactor.restore_gbps",
        restored as f64 / GB / restore_s,
        h.deltas.len() as u64,
    );
}

/// Every product key through `read`, the largest in 64 KiB ranges, all
/// of them into a scratch hierarchy, and `find` on a hit and a miss.
fn storage(c: &Campaign, write: &Write, tr: &mut Tracer, v: &mut Values) {
    let h = &c.hierarchy;
    let products = &write.report.products;
    let scratch = Arc::new(StorageHierarchy::new(vec![TierSpec::new(
        "scratch",
        u64::MAX / 4,
        2e9,
        1.5e9,
        2e-6,
    )]));
    let (mut read_s, mut write_s, mut bytes) = (0.0, 0.0, 0u64);
    let mut payloads: Vec<Bytes> = Vec::new();
    for (i, p) in products.iter().enumerate() {
        let (got, dt) = timed(tr, "storage.read", i as u64, || h.read(&p.key));
        let (data, _, _) = got.unwrap_or_else(|e| panic!("read {}: {e}", p.key));
        read_s += dt;
        bytes += data.len() as u64;
        let (put, dt) = timed(tr, "storage.write_to_tier", i as u64, || {
            scratch.write_to_tier(0, &p.key, data.clone())
        });
        put.unwrap_or_else(|e| panic!("scratch write {}: {e}", p.key));
        write_s += dt;
        payloads.push(data);
    }
    let n = products.len() as u64;
    v.set("storage.read_us", read_s * 1e6 / n as f64, n);
    v.set("storage.write_us", write_s * 1e6 / n as f64, n);

    let largest = products
        .iter()
        .max_by_key(|p| p.stored_bytes)
        .expect("a write reports products");
    let slices = (largest.stored_bytes / RANGE_SLICE).clamp(1, 256);
    let (_, dt) = timed(tr, "storage.read_range", 0, || {
        for i in 0..slices {
            let len = RANGE_SLICE.min(largest.stored_bytes - i * RANGE_SLICE);
            black_box(h.read_range(&largest.key, i * RANGE_SLICE, len))
                .unwrap_or_else(|e| panic!("read_range {}: {e}", largest.key));
        }
    });
    v.set("storage.read_range_us", dt * 1e6 / slices as f64, slices);

    let finds = 1000;
    let (_, hit_s) = timed(tr, "storage.find_hit", 0, || {
        for _ in 0..finds {
            black_box(h.find(black_box(&largest.key))).expect("the key was just read");
        }
    });
    let (_, miss_s) = timed(tr, "storage.find_miss", 0, || {
        for _ in 0..finds {
            assert!(black_box(h.find(black_box("no/such/key"))).is_err());
        }
    });
    v.set("storage.find_hit_us", hit_s * 1e6 / finds as f64, finds);
    v.set("storage.find_miss_us", miss_s * 1e6 / finds as f64, finds);

    let (sum, dt) = timed(tr, "adios.checksum64", 0, || {
        payloads
            .iter()
            .fold(0u64, |acc, p| acc ^ checksum64(p.as_slice()))
    });
    black_box(sum);
    v.set("adios.checksum_gbps", bytes as f64 / GB / dt, n);
}

/// The manifest through `BpStore::open` and `FileMeta::from_bytes`.
fn adios(c: &Campaign, file: &str, write: &Write, tr: &mut Tracer, v: &mut Values) {
    let store = BpStore::new(Arc::clone(&c.hierarchy));
    let (bp, open_s) = timed(tr, "adios.open", 0, || {
        (1..REPEATS).for_each(|_| drop(black_box(store.open(file))));
        store.open(file)
    });
    let bp = bp.unwrap_or_else(|e| panic!("BpStore::open {file}: {e}"));
    v.set(
        "adios.open_us",
        open_s * 1e6 / REPEATS as f64,
        REPEATS as u64,
    );
    let blocks = bp
        .inq_var(c.var())
        .unwrap_or_else(|e| panic!("inq_var: {e}"))
        .blocks
        .len();
    assert_eq!(
        blocks,
        write.report.products.len(),
        "manifest lists every product"
    );

    let manifest = bp.meta().to_bytes();
    v.set("adios.manifest_bytes", manifest.len() as f64, 1);
    let (parsed, parse_s) = timed(tr, "adios.meta_parse", 0, || {
        (1..REPEATS).for_each(|_| drop(black_box(FileMeta::from_bytes(black_box(&manifest)))));
        FileMeta::from_bytes(&manifest)
    });
    assert_eq!(parsed.expect("the manifest parses").to_bytes(), manifest);
    v.set(
        "adios.meta_parse_us",
        parse_s * 1e6 / REPEATS as f64,
        REPEATS as u64,
    );
}

/// What a level-cache hit costs to copy out, and the time to insight
/// beyond the data path: raster and blob detection (the paper's
/// Config1) on the base and, if `full`, on level 0.
fn cache_and_analytics(c: &Campaign, file: &str, full: bool, tr: &mut Tracer, v: &mut Values) {
    let reader = c
        .canopus
        .open(file)
        .unwrap_or_else(|e| panic!("open {file}: {e}"));
    let base = reader.read_base(c.var()).expect("base reads");
    let full_out = reader.read_level(c.var(), 0).expect("level 0 reads");
    let hits = 5;
    let (_, dt) = timed(tr, "core.cache.hit_copy", 0, || {
        for _ in 0..hits {
            black_box(reader.read_level(c.var(), 0)).expect("level 0 reads again");
        }
    });
    v.set("core.cache.hit_copy_ms", dt * 1e3 / hits as f64, hits);

    let detector = BlobDetector::new(BlobParams::paper_config(10, 200, 100));
    let bounds = c.ds.mesh.aabb();
    let blobs = |out: &canopus::ReadOutcome, tr: &mut Tracer| {
        let (raster, raster_s) = timed(tr, "analytics.raster", out.level as u64, || {
            Raster::from_mesh(&out.mesh, &out.data, RASTER, RASTER, bounds)
        });
        let (found, blob_s) = timed(tr, "analytics.blob_detect", out.level as u64, || {
            detector.detect(&raster.to_gray(c.lo, c.hi))
        });
        (found.len() as f64, raster_s, blob_s)
    };
    let (n_base, raster_s, blob_s) = blobs(&base, tr);
    v.set("analytics.blobs_base", n_base, 1);
    v.set("analytics.raster_base_ms", raster_s * 1e3, 1);
    v.set("analytics.blob_ms", blob_s * 1e3, 1);
    if full {
        let (n_full, raster_s, _) = blobs(&full_out, tr);
        v.set("analytics.blobs_full", n_full, 1);
        v.set("analytics.raster_full_ms", raster_s * 1e3, 1);
    }
}
