//! The write-side pipeline: refactor → compress → place (paper Fig. 1,
//! left half), with the §IV-C phase timing breakdown.

use crate::config::{CanopusConfig, RelativeCodec};
use crate::error::CanopusError;
use crate::geometry::level_meta_block;
use bytes::Bytes;
use canopus_adios::store::{BlockWrite, BpStore, StoredBlock};
use canopus_adios::{checksum64, BpFile, ChunkEntry};
use canopus_compress::{Chunked, Codec, CodecKind, ObservedCodec, CHUNKED_CODEC_ID_FLAG};
use canopus_mesh::geometry::{Aabb, Point2};
use canopus_mesh::{FieldStats, TriMesh};
use canopus_obs::{names, stage, stage_child, Registry, SpanContext};
use canopus_refactor::decimate::decimate;
use canopus_refactor::mapping::build_mapping;
use canopus_refactor::{compute_delta, Estimator, TILE};
use canopus_storage::{ProductKind, SimDuration, StorageHierarchy};
use crossbeam::channel;
use rayon::prelude::*;
use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

/// The value range `max - min` every level job's codec resolves against,
/// after refusing what cannot be stored: a value or a vertex coordinate
/// that is not finite, or a range that overflows. The lossy codecs
/// resolve their tolerance from that range, the lossless ones and the
/// deltas would spread a NaN to its neighbours, and decimation orders
/// collapses by coordinates.
fn storable_range(mesh: &TriMesh, data: &[f64]) -> Result<f64, CanopusError> {
    let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
    for (i, &v) in data.iter().enumerate() {
        if !v.is_finite() {
            return Err(CanopusError::Invalid(format!(
                "value {i} is {v}; only finite values can be stored"
            )));
        }
        min = min.min(v);
        max = max.max(v);
    }
    if let Some(i) = mesh
        .points()
        .iter()
        .position(|p| !(p.x.is_finite() && p.y.is_finite()))
    {
        let p = mesh.points()[i];
        return Err(CanopusError::Invalid(format!(
            "vertex {i} is at ({}, {}); only finite coordinates can be stored",
            p.x, p.y
        )));
    }
    // With no values `max - min` is -inf, which clamps to 0.
    let range = (max - min).max(0.0);
    if !range.is_finite() {
        return Err(CanopusError::Invalid(format!(
            "the value range {min} .. {max} overflows an f64"
        )));
    }
    Ok(range)
}

/// The codec every level job of one `write` builds: `codec` resolved
/// against the value `range`, refused unless a lossy bound comes out
/// finite and positive — zero, negative or NaN, or a product with the
/// range that overflows, is a bound no codec can be built with.
fn storable_codec(codec: RelativeCodec, range: f64) -> Result<CodecKind, CanopusError> {
    match codec.resolve(range) {
        CodecKind::ZfpLike { tolerance: bound } | CodecKind::SzLike { error_bound: bound }
            if !(bound.is_finite() && bound > 0.0) =>
        {
            Err(CanopusError::Invalid(format!(
                "{codec:?} resolves to an error bound of {bound} over the value range \
                 {range}; a lossy codec needs a finite positive bound"
            )))
        }
        kind => Ok(kind),
    }
}

/// Report for one product: the block as the store's commit reported it
/// (key, kind, tier, raw and stored bytes).
pub type ProductReport = StoredBlock;

/// Full write-side report: the paper's Fig. 6b time breakdown plus
/// per-product placement and sizes.
#[derive(Debug, Clone)]
pub struct WriteReport {
    /// Wall seconds spent decimating meshes (Alg. 1).
    pub decimation_secs: f64,
    /// Wall seconds spent on mapping + delta calculation (Alg. 2).
    pub delta_secs: f64,
    /// Wall seconds spent compressing base + deltas.
    pub compress_secs: f64,
    /// Simulated I/O time for writing all products + metadata.
    pub io_time: SimDuration,
    pub products: Vec<ProductReport>,
    pub num_levels: u32,
}

impl WriteReport {
    /// Total stored bytes across data products (excluding mesh metadata).
    pub fn stored_data_bytes(&self) -> u64 {
        self.products
            .iter()
            .filter(|p| !matches!(p.kind, ProductKind::Metadata { .. }))
            .map(|p| p.stored_bytes)
            .sum()
    }

    /// Raw bytes of the original variable.
    pub fn original_bytes(&self) -> u64 {
        self.products
            .iter()
            .filter(|p| matches!(p.kind, ProductKind::DeltaShard { finer: 0, .. }))
            .map(|p| p.raw_bytes)
            .sum::<u64>()
            .max(
                // Single-level writes have no deltas; the base is the
                // original.
                self.products
                    .iter()
                    .filter(|p| matches!(p.kind, ProductKind::Base { .. }))
                    .map(|p| p.raw_bytes)
                    .sum(),
            )
    }
}

/// Contiguous vertex-index ranges for splitting a delta of `n` values
/// into `chunks` spatial chunks. Writer and reader must agree; this is
/// the single source of truth.
pub(crate) fn chunk_ranges(n: usize, chunks: u32) -> Vec<std::ops::Range<usize>> {
    let c = (chunks.max(1) as usize).min(n.max(1));
    (0..c).map(|i| (i * n / c)..((i + 1) * n / c)).collect()
}

/// How many decimated level jobs may wait for the write pool, and how
/// many blocks each tier's write-behind queue holds.
const WRITE_DEPTH: usize = 4;

/// How many spatial chunks pack into one shard object. Few shards per
/// tier keep the object count (and placement decisions) small; the
/// chunk index makes each shard range-addressable.
const SHARD_CHUNKS: u32 = 8;

/// Interleave the low 21 bits of `x` and `y` into a Morton code
/// (bit-by-bit; this runs once per vertex per write/read of a level
/// with more than one chunk, so clarity beats the magic-mask variant).
fn morton(x: u32, y: u32) -> u64 {
    let mut out = 0u64;
    for bit in 0..21 {
        out |= (((x >> bit) & 1) as u64) << (2 * bit);
        out |= (((y >> bit) & 1) as u64) << (2 * bit + 1);
    }
    out
}

/// The chunk → vertex-id table of a level stored as `chunks` spatial
/// chunks, or `None` for the identity assignment: one chunk holds every
/// vertex in vertex order, so there is nothing to sort and no table to
/// build — a delta's values are its chunk's values as they stand.
///
/// For `chunks > 1` the partitioning is spatially coherent: vertices
/// sorted by the Morton code of their quantized position (ties by
/// vertex id, so the order is total), split into `chunks` equal runs.
/// Deterministic in the vertex positions, so the reader recomputes the same
/// assignment with no extra metadata — exactly how the focused-retrieval
/// chunks stay self-describing.
pub(crate) fn spatial_chunks(points: &[Point2], chunks: u32) -> Option<Vec<Vec<u32>>> {
    let n = points.len();
    let ranges = chunk_ranges(n, chunks);
    if ranges.len() <= 1 {
        return None;
    }
    let bb = Aabb::from_points(points.iter().copied());
    let w = bb.width().max(f64::MIN_POSITIVE);
    let h = bb.height().max(f64::MIN_POSITIVE);
    let scale = ((1u32 << 21) - 1) as f64;
    // Each key is computed once; the sort then compares plain pairs.
    let mut order: Vec<(u64, u32)> = (0..n as u32)
        .zip(points)
        .map(|(v, p)| {
            let qx = (((p.x - bb.min.x) / w) * scale) as u32;
            let qy = (((p.y - bb.min.y) / h) * scale) as u32;
            (morton(qx, qy), v)
        })
        .collect();
    order.sort_unstable();
    Some(
        ranges
            .into_iter()
            .map(|r| order[r].iter().map(|&(_, v)| v).collect())
            .collect(),
    )
}

/// The Canopus middleware handle: one storage hierarchy + one pipeline
/// configuration.
pub struct Canopus {
    store: BpStore,
    config: CanopusConfig,
}

impl Canopus {
    pub fn new(hierarchy: Arc<StorageHierarchy>, config: CanopusConfig) -> Self {
        // A configured fault plan arms every tier of the hierarchy; the
        // default `FaultPlan::none()` leaves injection entirely disabled
        // (and the tiers on their zero-overhead fast path).
        if !config.fault.is_none() {
            hierarchy.set_fault_plan_all(config.fault);
        }
        Self {
            store: BpStore::new(hierarchy),
            config,
        }
    }

    pub fn config(&self) -> &CanopusConfig {
        &self.config
    }

    pub fn store(&self) -> &BpStore {
        &self.store
    }

    pub fn hierarchy(&self) -> &StorageHierarchy {
        self.store.hierarchy()
    }

    /// Shared handle to the hierarchy (see [`BpStore::hierarchy_arc`]).
    pub fn hierarchy_arc(&self) -> Arc<StorageHierarchy> {
        self.store.hierarchy_arc()
    }

    /// The shared observability registry (anchored on the hierarchy).
    pub fn metrics(&self) -> &Arc<Registry> {
        self.store.hierarchy().metrics()
    }

    /// Refactor, compress and place one variable (paper Fig. 1 left)
    /// on the level-streaming engine ([`Self::write_pipelined`]).
    ///
    /// Products are written base-first then deltas coarse→fine, so the
    /// placement rule maps them fastest-tier-first exactly as §III-D
    /// prescribes. A file is written once: a file whose manifest exists
    /// is refused after the inputs are checked and before any work.
    pub fn write(
        &self,
        file: &str,
        var: &str,
        mesh: &TriMesh,
        data: &[f64],
    ) -> Result<WriteReport, CanopusError> {
        if data.len() != mesh.num_vertices() {
            return Err(CanopusError::Invalid(format!(
                "data has {} values for {} vertices",
                data.len(),
                mesh.num_vertices()
            )));
        }
        if self.config.refactor.num_levels == 0 {
            return Err(CanopusError::Invalid(
                "refactor.num_levels must be at least 1".to_string(),
            ));
        }
        let range = storable_range(mesh, data)?;
        let codec_kind = storable_codec(self.config.codec, range)?;
        self.refuse_existing(file)?;
        self.write_pipelined(file, var, mesh, data, codec_kind)
    }

    /// Refuse to write a file whose manifest exists: its objects are
    /// live, and a second write would collide with them.
    fn refuse_existing(&self, file: &str) -> Result<(), CanopusError> {
        if self.store.exists(file) {
            return Err(CanopusError::Invalid(format!(
                "{file} already exists; a file is written once"
            )));
        }
        Ok(())
    }

    /// What every level job of one `write` shares: the codec, and the
    /// layout knob.
    fn job_ctx(&self, var: &str, codec_kind: CodecKind, parent: SpanContext) -> WriteJobCtx {
        WriteJobCtx {
            var: var.to_string(),
            codec_kind,
            codec_param: match codec_kind {
                CodecKind::ZfpLike { tolerance } => tolerance,
                CodecKind::SzLike { error_bound } => error_bound,
                _ => 0.0,
            },
            delta_chunks: self.config.delta_chunks,
            estimator: self.config.refactor.estimator,
            obs: Arc::clone(self.metrics()),
            parent,
        }
    }

    /// The level-streaming write engine — the write-side counterpart of
    /// the restore engine in [`crate::read`]. Three stages run
    /// concurrently, connected by bounded channels:
    ///
    /// 1. **Decimate** — this thread walks the level chain (inherently
    ///    sequential: level `l + 1` is decimated from level `l`) and
    ///    submits level `l`'s mapping/delta/compression job the moment
    ///    level `l + 1` exists ([`names::WRITE_STAGE_DEPTH`] tracks the
    ///    queue, its `_PEAK` twin the high-water mark);
    /// 2. **Refactor + compress** — a worker pool builds each level's
    ///    mapping, delta and compressed shard blocks, in whatever order
    ///    jobs arrive;
    /// 3. **Place** — this thread emits finished blocks in placement
    ///    order (base first, then deltas coarse→fine) into a streaming
    ///    store write; per-tier write-behind queues
    ///    overlap the device writes with compression still in flight,
    ///    and the commit barrier drains every queue before the manifest
    ///    is published.
    ///
    /// Placement decisions reserve their bytes as they are made, in
    /// placement order, so tier choices — and therefore all stored bytes
    /// and the manifest — do not depend on which job finished first.
    /// Phase seconds are sums of per-stage work; the overlap won is
    /// exported under [`names::WRITE_OVERLAP`]. `codec_kind` is the
    /// codec [`storable_codec`] resolved.
    ///
    /// A level that decimation leaves without a triangle is refused
    /// before its job is submitted and before anything is stored. A job
    /// that panics is not an error: once every worker has died the job
    /// queue disconnects, and the panic surfaces when the scope joins.
    fn write_pipelined(
        &self,
        file: &str,
        var: &str,
        mesh: &TriMesh,
        data: &[f64],
        codec_kind: CodecKind,
    ) -> Result<WriteReport, CanopusError> {
        let n = self.config.refactor.num_levels;
        let ratio = self.config.refactor.per_level_ratio;
        let obs = Arc::clone(self.metrics());
        let span = stage!(obs, "write", file = file, var = var, levels = n);
        let root_ctx = span.context();
        let t_total = Instant::now();

        let ctx = self.job_ctx(var, codec_kind, root_ctx);

        let total_jobs = n as usize; // n - 1 delta jobs + the base job
        let workers = std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(1)
            .min(total_jobs)
            .max(1);

        // Jobs travel with their submit instant so worker pickup can
        // record the queue-wait distribution.
        let (job_tx, job_rx) = channel::bounded::<(WriteJob, Instant)>(WRITE_DEPTH);
        // Sized so worker sends can never block: an early error return
        // on the emitting side then cannot deadlock the pool, which
        // simply drains the job queue and exits.
        let (done_tx, done_rx) =
            channel::bounded::<(usize, Result<LevelBlocks, CanopusError>)>(total_jobs + 1);
        let depth_gauge = obs.gauge(names::WRITE_STAGE_DEPTH);
        let peak_gauge = obs.gauge(names::WRITE_STAGE_DEPTH_PEAK);

        let ctx = &ctx;
        let depth_gauge = &depth_gauge;

        let mut decimation_secs = 0.0;
        let mut delta_secs = 0.0;
        let mut compress_secs = 0.0;
        let mut store_secs = 0.0;

        let (products, io_time) = std::thread::scope(
            |s| -> Result<(Vec<ProductReport>, SimDuration), CanopusError> {
                // Stage 2: the worker pool. The receiver is
                // multi-consumer, so each worker holds its own clone of
                // the shared queue; workers exit when the decimation
                // stage is done and the queue is drained (recv
                // disconnects). Only the workers hold it: if they all
                // die, a submit fails instead of waiting for a free
                // slot forever.
                for _ in 0..workers {
                    let job_rx = job_rx.clone();
                    let done_tx = done_tx.clone();
                    let queue_wait = obs.histogram(names::WRITE_QUEUE_WAIT_HIST);
                    s.spawn(move || {
                        while let Ok((job, submitted)) = job_rx.recv() {
                            depth_gauge.sub(1);
                            queue_wait.observe_secs(submitted.elapsed().as_secs_f64());
                            let slot = job.slot(total_jobs);
                            if done_tx.send((slot, run_write_job(&job, ctx))).is_err() {
                                break;
                            }
                        }
                    });
                }
                drop(job_rx);
                drop(done_tx);

                // Stage 1: decimate the level chain on this thread,
                // streaming each finished level's job to the pool.
                let mut meshes: Vec<Arc<TriMesh>> = vec![Arc::new(mesh.clone())];
                let mut level_data: Vec<Arc<Vec<f64>>> = vec![Arc::new(data.to_vec())];
                {
                    let submit = |job: WriteJob| -> Result<(), CanopusError> {
                        depth_gauge.add(1);
                        peak_gauge.set_max(depth_gauge.get());
                        job_tx.send((job, Instant::now())).map_err(|_| {
                            depth_gauge.sub(1);
                            CanopusError::Invalid("write pipeline terminated early".into())
                        })
                    };
                    for l in 0..n.saturating_sub(1) as usize {
                        let t = Instant::now();
                        let r = decimate(&meshes[l], &level_data[l], ratio);
                        decimation_secs += t.elapsed().as_secs_f64();
                        if r.mesh.num_triangles() == 0 {
                            return Err(CanopusError::Invalid(format!(
                                "decimation left level {} with {} vertices and no triangle; \
                                 this mesh holds at most {} levels",
                                l + 1,
                                r.mesh.num_vertices(),
                                l + 1
                            )));
                        }
                        meshes.push(Arc::new(r.mesh));
                        level_data.push(Arc::new(r.data));
                        submit(WriteJob::delta(l, &meshes, &level_data))?;
                    }
                    // The base is submitted last: it is the first block
                    // to place, and with the chain fully decimated it is
                    // ready immediately.
                    submit(WriteJob::base(&meshes, &level_data))?;
                }
                drop(job_tx);

                // Stage 3: emit to the streaming store in placement
                // order as levels complete — base first, then deltas
                // coarse→fine.
                let mut slots: Vec<Option<LevelBlocks>> = (0..total_jobs).map(|_| None).collect();
                let mut stream = self.store.begin_write(file, n, WRITE_DEPTH);
                let order =
                    std::iter::once(total_jobs - 1).chain((0..total_jobs.saturating_sub(1)).rev());
                for slot in order {
                    while slots[slot].is_none() {
                        let (finished, out) = done_rx.recv().map_err(|_| {
                            CanopusError::Invalid("write pipeline terminated early".into())
                        })?;
                        slots[finished] = Some(out?);
                    }
                    let (blocks, delta_wall, compress_wall) =
                        slots[slot].take().expect("slot just filled");
                    delta_secs += delta_wall;
                    compress_secs += compress_wall;
                    for b in blocks {
                        let t = Instant::now();
                        stream.push(b)?;
                        store_secs += t.elapsed().as_secs_f64();
                    }
                }
                let t = Instant::now();
                let commit_span = stage_child!(obs, root_ctx, "write.commit", file = file);
                let committed = stream.commit()?;
                drop(commit_span);
                store_secs += t.elapsed().as_secs_f64();
                Ok(committed)
            },
        )?;

        obs.timer(names::WRITE_DECIMATE)
            .record_wall(decimation_secs);
        obs.timer(names::WRITE_DELTA).record_wall(delta_secs);
        obs.timer(names::WRITE_COMPRESS).record_wall(compress_secs);
        obs.timer(names::WRITE_IO)
            .record(store_secs, io_time.seconds());
        let elapsed = t_total.elapsed().as_secs_f64();
        let overlap =
            (decimation_secs + delta_secs + compress_secs + store_secs - elapsed).max(0.0);
        obs.timer(names::WRITE_OVERLAP).record_wall(overlap);

        let report = WriteReport {
            decimation_secs,
            delta_secs,
            compress_secs,
            io_time,
            products,
            num_levels: n,
        };
        self.record_write_totals(&obs, &report, data.len(), elapsed);
        Ok(report)
    }

    /// End-of-write bookkeeping shared by every kind of write: the
    /// total-phase timer plus the write counters.
    fn record_write_totals(
        &self,
        obs: &Registry,
        report: &WriteReport,
        raw_values: usize,
        total_wall: f64,
    ) {
        obs.timer(names::WRITE_TOTAL)
            .record(total_wall, report.io_time.seconds());
        obs.counter(names::WRITES).inc();
        obs.counter(names::WRITE_BYTES_RAW)
            .add(raw_values as u64 * 8);
        obs.counter(names::WRITE_BYTES_STORED)
            .add(report.stored_data_bytes());
        let stored: u64 = report.products.iter().map(|p| p.stored_bytes).sum();
        obs.counter(names::WRITE_GEOMETRY_BYTES)
            .add(stored - report.stored_data_bytes());
        obs.counter(names::WRITE_PRODUCTS)
            .add(report.products.len() as u64);
    }

    /// Write a variable *without* refactoring (the paper's "None"
    /// baseline): one raw full-accuracy block and its geometry, streamed
    /// like every write and placed wherever capacity allows (on the
    /// paper's testbed that is Lustre — tmpfs is sized proportionally
    /// and cannot hold the full data). An existing file is refused.
    pub fn write_unrefactored(
        &self,
        file: &str,
        var: &str,
        mesh: &TriMesh,
        data: &[f64],
    ) -> Result<WriteReport, CanopusError> {
        self.refuse_existing(file)?;
        let obs = Arc::clone(self.metrics());
        let _span = stage!(obs, "write_unrefactored", file = file, var = var);
        let t_total = Instant::now();
        let codec = ObservedCodec::new(CodecKind::Raw.build(), Arc::clone(&obs));
        let bytes = codec.compress(data)?;
        let stats = FieldStats::of(data);
        let geometry = level_meta_block(var, 0, mesh, &[]);
        let t_io = Instant::now();
        let mut stream = self.store.begin_write(file, 1, WRITE_DEPTH);
        stream.push(BlockWrite {
            var: var.to_string(),
            kind: ProductKind::Base { level: 0 },
            data: Bytes::from(bytes),
            elements: data.len() as u64,
            codec_id: CodecKind::Raw.id(),
            codec_param: 0.0,
            raw_bytes: data.len() as u64 * 8,
            min: stats.min,
            max: stats.max,
            chunks: vec![],
        })?;
        stream.push(geometry)?;
        let (products, io_time) = stream.commit()?;
        obs.timer(names::WRITE_IO)
            .record(t_io.elapsed().as_secs_f64(), io_time.seconds());
        let report = WriteReport {
            decimation_secs: 0.0,
            delta_secs: 0.0,
            compress_secs: 0.0,
            io_time,
            products,
            num_levels: 1,
        };
        self.record_write_totals(&obs, &report, data.len(), t_total.elapsed().as_secs_f64());
        Ok(report)
    }

    /// Open a previously written file for (progressive) reading. The
    /// reader inherits the configured decoded-level cache capacity
    /// (`level_cache`) and retry budget (`retry`).
    pub fn open(&self, file: &str) -> Result<crate::read::CanopusReader, CanopusError> {
        let bp: BpFile = self.store.open(file)?;
        Ok(
            crate::read::CanopusReader::new(bp, self.config.refactor.estimator)
                .with_level_cache(self.config.level_cache)
                .with_retry(self.config.retry),
        )
    }
}

/// Compress one value stream through the configured codec: a stream
/// longer than one [`TILE`] is chunk-framed via [`Chunked`] at exactly
/// `TILE` values a chunk (the last one shorter), so its chunks
/// (de)compress across cores and a reader restores each chunk as it
/// decodes it; a shorter stream is stored unframed. The grain is a
/// constant, so the stored bytes do not depend on the writer's core
/// count. The observed codec sits inside the framing, keeping per-chunk
/// metrics under the payload codec's name; the flag bit in the returned
/// codec id tells the reader which framing to expect.
pub(crate) fn compress_stream(
    values: &[f64],
    codec_kind: CodecKind,
    obs: &Arc<Registry>,
) -> Result<(Vec<u8>, u8), CanopusError> {
    let codec = ObservedCodec::new(codec_kind.build(), Arc::clone(obs));
    if values.len() > TILE {
        Ok((
            Chunked::new(codec, TILE).compress(values)?,
            codec_kind.id() | CHUNKED_CODEC_ID_FLAG,
        ))
    } else {
        Ok((codec.compress(values)?, codec_kind.id()))
    }
}

/// Build one delta level's shard blocks: the level's spatial chunks
/// ([`spatial_chunks`]) compress independently, then pack in chunk order
/// into shards of [`SHARD_CHUNKS`] chunks. Each shard carries a chunk
/// index (byte ranges, element counts, bounding boxes, value bounds,
/// per-chunk checksums) that the manifest records so readers can plan
/// ranged fetches per region. Under the identity assignment the one
/// chunk compresses `delta` where it lies — no gather, no copy — and its
/// bounding box is the mesh's.
fn build_shard_blocks(
    ctx: &WriteJobCtx,
    finer: u32,
    fine_mesh: &TriMesh,
    delta: &[f64],
) -> Result<Vec<BlockWrite>, CanopusError> {
    struct ChunkBuild {
        bytes: Vec<u8>,
        stats: FieldStats,
        elements: usize,
        codec_id: u8,
        bbox: [f64; 4],
    }
    let id_sets = spatial_chunks(fine_mesh.points(), ctx.delta_chunks);
    let chunks = id_sets.as_ref().map_or(1, Vec::len);
    let built: Vec<ChunkBuild> = (0..chunks)
        .into_par_iter()
        .map(|ci| {
            let (values, bb) = match &id_sets {
                None => (Cow::Borrowed(delta), fine_mesh.aabb()),
                Some(sets) => (
                    sets[ci].iter().map(|&v| delta[v as usize]).collect(),
                    Aabb::from_points(sets[ci].iter().map(|&v| fine_mesh.point(v))),
                ),
            };
            let (bytes, codec_id) = compress_stream(&values, ctx.codec_kind, &ctx.obs)?;
            Ok(ChunkBuild {
                stats: FieldStats::of(&values),
                elements: values.len(),
                codec_id,
                bbox: [bb.min.x, bb.min.y, bb.max.x, bb.max.y],
                bytes,
            })
        })
        .collect::<Result<_, CanopusError>>()?;
    let mut blocks = Vec::with_capacity(built.len().div_ceil(SHARD_CHUNKS as usize));
    for (si, group) in built.chunks(SHARD_CHUNKS as usize).enumerate() {
        let base_chunk = si * SHARD_CHUNKS as usize;
        let mut payload: Vec<u8> = Vec::with_capacity(group.iter().map(|c| c.bytes.len()).sum());
        let mut entries: Vec<ChunkEntry> = Vec::with_capacity(group.len());
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        let mut elements = 0u64;
        for (ci, c) in group.iter().enumerate() {
            entries.push(ChunkEntry {
                chunk: (base_chunk + ci) as u32,
                offset: payload.len() as u64,
                len: c.bytes.len() as u64,
                elements: c.elements as u64,
                checksum: checksum64(&c.bytes),
                bbox: c.bbox,
                min: c.stats.min,
                max: c.stats.max,
                codec_id: c.codec_id,
            });
            payload.extend_from_slice(&c.bytes);
            min = min.min(c.stats.min);
            max = max.max(c.stats.max);
            elements += c.elements as u64;
        }
        blocks.push(BlockWrite {
            var: ctx.var.clone(),
            kind: ProductKind::DeltaShard {
                finer,
                coarser: finer + 1,
                shard: si as u32,
            },
            data: Bytes::from(payload),
            elements,
            codec_id: ctx.codec_kind.id(),
            codec_param: ctx.codec_param,
            raw_bytes: elements * 8,
            min,
            max,
            chunks: entries,
        });
    }
    Ok(blocks)
}

/// Per-level output of one write job: the level's blocks in placement
/// order, plus the wall seconds its mapping+delta and compression stages
/// took.
type LevelBlocks = (Vec<BlockWrite>, f64, f64);

/// Everything a write job needs to build one level's blocks.
struct WriteJobCtx {
    var: String,
    codec_kind: CodecKind,
    codec_param: f64,
    delta_chunks: u32,
    estimator: Estimator,
    obs: Arc<Registry>,
    /// The enclosing `write` span — `write.level` spans (on worker
    /// threads) attach here so a write emits one connected tree.
    parent: SpanContext,
}

/// One level's unit of work for the write pool. Level meshes and data
/// are shared via `Arc` because the decimation stage keeps growing the
/// level chain while earlier levels are still compressing.
enum WriteJob {
    /// Mapping + delta + compression between `finer` and `finer + 1`.
    Delta {
        finer: usize,
        fine_mesh: Arc<TriMesh>,
        fine_data: Arc<Vec<f64>>,
        coarse_mesh: Arc<TriMesh>,
        coarse_data: Arc<Vec<f64>>,
    },
    /// Compression of the coarsest (base) level.
    Base {
        level: usize,
        mesh: Arc<TriMesh>,
        data: Arc<Vec<f64>>,
    },
}

impl WriteJob {
    /// The job refining level `finer + 1` of the chain into `finer`.
    fn delta(finer: usize, meshes: &[Arc<TriMesh>], level_data: &[Arc<Vec<f64>>]) -> Self {
        WriteJob::Delta {
            finer,
            fine_mesh: Arc::clone(&meshes[finer]),
            fine_data: Arc::clone(&level_data[finer]),
            coarse_mesh: Arc::clone(&meshes[finer + 1]),
            coarse_data: Arc::clone(&level_data[finer + 1]),
        }
    }

    /// The job for the coarsest level of a fully decimated chain.
    fn base(meshes: &[Arc<TriMesh>], level_data: &[Arc<Vec<f64>>]) -> Self {
        let level = meshes.len() - 1;
        WriteJob::Base {
            level,
            mesh: Arc::clone(&meshes[level]),
            data: Arc::clone(&level_data[level]),
        }
    }

    /// Result slot: delta jobs index by their finer level, the base job
    /// takes the last slot.
    fn slot(&self, total_jobs: usize) -> usize {
        match self {
            WriteJob::Delta { finer, .. } => *finer,
            WriteJob::Base { .. } => total_jobs - 1,
        }
    }

    /// The level this job produces blocks for (delta jobs are named by
    /// their finer level).
    fn level(&self) -> usize {
        match self {
            WriteJob::Delta { finer, .. } => *finer,
            WriteJob::Base { level, .. } => *level,
        }
    }
}

/// Build one level's blocks: the base stream and its geometry, or a
/// delta's mapping, values, shard blocks and geometry.
fn run_write_job(job: &WriteJob, ctx: &WriteJobCtx) -> Result<LevelBlocks, CanopusError> {
    let _span = stage_child!(
        ctx.obs,
        ctx.parent,
        "write.level",
        level = job.level() as u32
    );
    match job {
        WriteJob::Base { level, mesh, data } => {
            let t = Instant::now();
            let (bytes, codec_id) = compress_stream(data, ctx.codec_kind, &ctx.obs)?;
            let stats = FieldStats::of(data);
            let blocks = vec![
                BlockWrite {
                    var: ctx.var.clone(),
                    kind: ProductKind::Base {
                        level: *level as u32,
                    },
                    data: Bytes::from(bytes),
                    elements: data.len() as u64,
                    codec_id,
                    codec_param: ctx.codec_param,
                    raw_bytes: data.len() as u64 * 8,
                    min: stats.min,
                    max: stats.max,
                    chunks: vec![],
                },
                level_meta_block(&ctx.var, *level as u32, mesh, &[]),
            ];
            Ok((blocks, 0.0, t.elapsed().as_secs_f64()))
        }
        WriteJob::Delta {
            finer,
            fine_mesh,
            fine_data,
            coarse_mesh,
            coarse_data,
        } => {
            let t = Instant::now();
            let mapping = build_mapping(fine_mesh, coarse_mesh);
            let delta = compute_delta(
                fine_mesh,
                fine_data,
                coarse_mesh,
                coarse_data,
                &mapping,
                ctx.estimator,
            );
            let delta_wall = t.elapsed().as_secs_f64();

            let t = Instant::now();
            let l = *finer as u32;
            let mut blocks = build_shard_blocks(ctx, l, fine_mesh, &delta)?;
            blocks.push(level_meta_block(&ctx.var, l, fine_mesh, &mapping));
            Ok((blocks, delta_wall, t.elapsed().as_secs_f64()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RelativeCodec;
    use canopus_mesh::generators::{jitter_interior, rectangle_mesh};
    use canopus_mesh::geometry::{Aabb, Point2};
    use canopus_storage::TierSpec;

    /// An `n x n` jittered grid over the unit square.
    fn grid(n: usize, seed: u64) -> TriMesh {
        let square = Aabb::from_points([Point2::new(0.0, 0.0), Point2::new(1.0, 1.0)]);
        jitter_interior(&rectangle_mesh(n, n, square), 0.2, seed)
    }

    fn small_mesh() -> (TriMesh, Vec<f64>) {
        let mesh = grid(12, 3);
        let data: Vec<f64> = mesh
            .points()
            .iter()
            .map(|p| (p.x * 8.0).sin() * (p.y * 6.0).cos())
            .collect();
        (mesh, data)
    }

    fn canopus() -> Canopus {
        let h = Arc::new(StorageHierarchy::new(vec![
            TierSpec::new("fast", 1 << 20, 1e9, 1e9, 1e-6),
            TierSpec::new("slow", 1 << 26, 1e7, 1e7, 1e-3),
        ]));
        Canopus::new(h, CanopusConfig::default())
    }

    #[test]
    fn write_produces_expected_products() {
        let c = canopus();
        let (mesh, data) = small_mesh();
        let r = c.write("t.bp", "v", &mesh, &data).unwrap();
        assert_eq!(r.num_levels, 3);
        // base + 2 deltas + 3 metadata blocks.
        assert_eq!(r.products.len(), 6);
        let bases = r
            .products
            .iter()
            .filter(|p| matches!(p.kind, ProductKind::Base { level: 2 }))
            .count();
        assert_eq!(bases, 1);
        assert!(r.io_time.seconds() > 0.0);
        assert!(r.decimation_secs >= 0.0 && r.compress_secs >= 0.0);
    }

    #[test]
    fn base_lands_on_faster_tier_than_last_delta() {
        let c = canopus();
        let (mesh, data) = small_mesh();
        let r = c.write("t.bp", "v", &mesh, &data).unwrap();
        let base_tier = r
            .products
            .iter()
            .find(|p| matches!(p.kind, ProductKind::Base { .. }))
            .unwrap()
            .tier;
        let d0_tier = r
            .products
            .iter()
            .find(|p| matches!(p.kind, ProductKind::DeltaShard { finer: 0, .. }))
            .unwrap()
            .tier;
        assert!(base_tier < d0_tier);
    }

    #[test]
    fn compression_shrinks_data_products() {
        let c = canopus();
        let (mesh, data) = small_mesh();
        let r = c.write("t.bp", "v", &mesh, &data).unwrap();
        for p in &r.products {
            if !matches!(p.kind, ProductKind::Metadata { .. }) {
                assert!(
                    p.stored_bytes < p.raw_bytes,
                    "{}: {} !< {}",
                    p.key,
                    p.stored_bytes,
                    p.raw_bytes
                );
            }
        }
    }

    #[test]
    fn unrefactored_baseline_is_one_raw_block() {
        let c = canopus();
        let (mesh, data) = small_mesh();
        let r = c.write_unrefactored("raw.bp", "v", &mesh, &data).unwrap();
        assert_eq!(r.num_levels, 1);
        let base = r
            .products
            .iter()
            .find(|p| matches!(p.kind, ProductKind::Base { .. }))
            .unwrap();
        assert_eq!(base.stored_bytes, data.len() as u64 * 8);
    }

    #[test]
    fn zero_levels_are_rejected_before_anything_is_stored() {
        let h = Arc::new(StorageHierarchy::new(vec![TierSpec::new(
            "fast",
            1 << 26,
            1e9,
            1e9,
            1e-6,
        )]));
        let mut config = CanopusConfig::default();
        config.refactor.num_levels = 0;
        let c = Canopus::new(Arc::clone(&h), config);
        let (mesh, data) = small_mesh();
        let err = c.write("z.bp", "v", &mesh, &data).unwrap_err();
        assert!(matches!(err, CanopusError::Invalid(_)), "{err}");
        assert!(err.to_string().contains("num_levels"), "{err}");
        assert!(
            h.tier_device(0).unwrap().keys().is_empty(),
            "nothing stored"
        );
        assert_eq!(c.metrics().counter(names::WRITES).get(), 0);
    }

    #[test]
    fn inputs_that_cannot_be_stored_are_rejected_for_every_codec() {
        let ds = canopus_data::xgc1_dataset_sized(10, 40, 3);
        let with_value = |i: usize, v: f64| {
            let mut data = ds.data.clone();
            data[i] = v;
            (ds.mesh.clone(), data)
        };
        let mut points = ds.mesh.points().to_vec();
        points[5] = Point2::new(f64::NAN, f64::NAN);
        let nan_vertex = (
            TriMesh::new(points, ds.mesh.triangles().to_vec()),
            ds.data.clone(),
        );
        let mut overflowing = ds.data.clone();
        overflowing[3] = -1e308;
        overflowing[9] = 1e308;
        let overflowing = (ds.mesh.clone(), overflowing);
        let storable = (ds.mesh.clone(), ds.data.clone());
        let config = |codec: RelativeCodec, num_levels: u32| CanopusConfig {
            codec,
            refactor: canopus_refactor::RefactorConfig {
                num_levels,
                ..Default::default()
            },
            ..CanopusConfig::default()
        };
        let codecs = [
            RelativeCodec::ZfpLike {
                rel_tolerance: 1e-4,
            },
            RelativeCodec::SzLike {
                rel_error_bound: 1e-4,
            },
            RelativeCodec::Fpc,
            RelativeCodec::Raw,
        ];
        let mut rows = Vec::new();
        for codec in codecs {
            let bad_inputs = [
                ("+inf value", 3, with_value(7, f64::INFINITY), "value 7"),
                ("-inf value", 3, with_value(7, f64::NEG_INFINITY), "value 7"),
                ("NaN value", 3, with_value(11, f64::NAN), "value 11"),
                ("overflowing range", 3, overflowing.clone(), "range"),
                ("NaN coordinate", 3, nan_vertex.clone(), "vertex 5"),
                // 400 vertices run out of triangles long before 20 levels.
                ("20 levels", 20, storable.clone(), "no triangle"),
            ];
            for (what, levels, input, names_it) in bad_inputs {
                rows.push((what, config(codec, levels), input, names_it));
            }
        }
        // A lossy bound must resolve to a finite positive one; 1e308
        // overflows once it is multiplied by the value range.
        for rel in [0.0, -1.0, f64::NAN, 1e308] {
            for codec in [
                RelativeCodec::ZfpLike { rel_tolerance: rel },
                RelativeCodec::SzLike {
                    rel_error_bound: rel,
                },
            ] {
                rows.push(("tolerance", config(codec, 3), storable.clone(), "bound"));
            }
        }
        for (what, config, (mesh, data), names_it) in &rows {
            let h = Arc::new(StorageHierarchy::titan_two_tier(1 << 24, 1 << 28));
            let c = Canopus::new(Arc::clone(&h), *config);
            let codec = config.codec;
            let err = c.write("bad.bp", "v", mesh, data).unwrap_err();
            assert!(matches!(err, CanopusError::Invalid(_)), "{what}: {err}");
            assert!(err.to_string().contains(names_it), "{what}: {err}");
            for tier in 0..h.num_tiers() {
                assert!(
                    h.tier_device(tier).unwrap().keys().is_empty(),
                    "{what} under {codec:?}: nothing stored"
                );
            }
            assert_eq!(c.metrics().counter(names::WRITES).get(), 0);
        }
    }

    #[test]
    fn a_job_that_panics_surfaces_as_a_panic_not_a_hang() {
        // Every job builds a codec with tolerance 0, which panics, so each
        // worker dies on its first job. Ten levels are more jobs than the
        // workers of a machine with up to four cores and the queue take.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut config = CanopusConfig::default();
            config.refactor.num_levels = 10;
            let c = Canopus::new(
                Arc::new(StorageHierarchy::titan_two_tier(1 << 24, 1 << 28)),
                config,
            );
            let mesh = grid(96, 5);
            let data: Vec<f64> = mesh.points().iter().map(|p| p.x - p.y).collect();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let kind = CodecKind::ZfpLike { tolerance: 0.0 };
                c.write_pipelined("p.bp", "v", &mesh, &data, kind)
            }));
            let _ = tx.send(outcome.is_err());
        });
        let panicked = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the write hung instead of surfacing its job's panic");
        assert!(panicked, "a panicking job must surface as a panic");
    }

    #[test]
    fn mismatched_data_is_rejected() {
        let c = canopus();
        let (mesh, _) = small_mesh();
        assert!(matches!(
            c.write("t.bp", "v", &mesh, &[1.0, 2.0]),
            Err(CanopusError::Invalid(_))
        ));
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        for (n, c) in [(10usize, 3u32), (7, 7), (5, 1), (100, 8), (3, 10)] {
            let ranges = chunk_ranges(n, c);
            assert_eq!(ranges.first().unwrap().start, 0);
            assert_eq!(ranges.last().unwrap().end, n);
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "contiguous");
            }
        }
    }

    /// The comparator `spatial_chunks` used before it computed each key
    /// once: both keys re-derived on every comparison of a stable sort.
    fn spatial_chunks_by_recomputed_keys(mesh: &TriMesh, chunks: u32) -> Vec<Vec<u32>> {
        let n = mesh.num_vertices();
        let bb = mesh.aabb();
        let w = bb.width().max(f64::MIN_POSITIVE);
        let h = bb.height().max(f64::MIN_POSITIVE);
        let scale = ((1u32 << 21) - 1) as f64;
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by_key(|&v| {
            let p = mesh.point(v);
            let qx = (((p.x - bb.min.x) / w) * scale) as u32;
            let qy = (((p.y - bb.min.y) / h) * scale) as u32;
            (morton(qx, qy), v)
        });
        chunk_ranges(n, chunks)
            .into_iter()
            .map(|r| order[r].to_vec())
            .collect()
    }

    #[test]
    fn spatial_chunks_keep_the_permutation_of_the_old_comparator() {
        // `(key, id)` is a total order, so an unstable sort of
        // precomputed pairs lands on the same permutation — and every
        // stored byte of a k > 1 file with it. The unjittered grid has
        // vertices sharing a Morton key, where the id tie-break decides.
        let (jittered, _) = small_mesh();
        let grid = rectangle_mesh(
            9,
            7,
            Aabb::from_points([Point2::new(0.0, 0.0), Point2::new(1.0, 1.0)]),
        );
        for mesh in [&jittered, &grid] {
            for chunks in [2, 4, 16, 1000] {
                assert_eq!(
                    spatial_chunks(mesh.points(), chunks).unwrap(),
                    spatial_chunks_by_recomputed_keys(mesh, chunks),
                    "{chunks} chunks"
                );
            }
            assert!(
                spatial_chunks(mesh.points(), 1).is_none(),
                "one chunk: identity"
            );
            assert!(
                spatial_chunks(mesh.points(), 0).is_none(),
                "0 is treated as 1"
            );
        }
    }

    fn sharded_canopus() -> Canopus {
        let h = Arc::new(StorageHierarchy::new(vec![
            TierSpec::new("fast", 1 << 20, 1e9, 1e9, 1e-6),
            TierSpec::new("slow", 1 << 26, 1e7, 1e7, 1e-3),
        ]));
        Canopus::new(
            h,
            CanopusConfig {
                delta_chunks: 4,
                ..Default::default()
            },
        )
    }

    #[test]
    fn default_write_stores_each_delta_as_one_indexed_chunk() {
        let c = canopus();
        let (mesh, data) = small_mesh();
        c.write("t.bp", "v", &mesh, &data).unwrap();
        let f = c.store().open("t.bp").unwrap();
        let var = f.inq_var("v").unwrap();
        for finer in 0..2 {
            let shards = var.delta_shards_to(finer);
            assert_eq!(shards.len(), 1, "level {finer}");
            let b = shards[0];
            assert_eq!(b.key, format!("t.bp/v/s{finer}-{}.0", finer + 1));
            assert_eq!(b.chunks.len(), 1);
            let e = &b.chunks[0];
            assert_eq!((e.chunk, e.offset, e.len), (0, 0, b.stored_bytes));
            assert_eq!(e.elements, b.elements);
            assert_eq!(e.checksum, b.checksum, "the chunk is the whole object");
            assert_eq!((e.min, e.max), (b.min, b.max));
        }
    }

    #[test]
    fn sharded_write_produces_indexed_shards() {
        let c = sharded_canopus();
        let (mesh, data) = small_mesh();
        let r = c.write("sh.bp", "v", &mesh, &data).unwrap();
        // 4 chunks fit one shard: one shard per delta level.
        let shards: Vec<_> = r
            .products
            .iter()
            .filter(|p| matches!(p.kind, ProductKind::DeltaShard { .. }))
            .collect();
        assert_eq!(shards.len(), 2, "one shard per delta level");
        // Metadata still once per level.
        let metas = r
            .products
            .iter()
            .filter(|p| matches!(p.kind, ProductKind::Metadata { .. }))
            .count();
        assert_eq!(metas, 3);
        // The manifest indexes every shard: contiguous byte ranges that
        // cover the stored object exactly, with per-chunk checksums.
        let f = c.store().open("sh.bp").unwrap();
        let var = f.meta().vars.iter().find(|v| v.name == "v").unwrap();
        let mut indexed = 0;
        for b in &var.blocks {
            if !matches!(b.kind, ProductKind::DeltaShard { .. }) {
                continue;
            }
            indexed += 1;
            assert_eq!(b.chunks.len(), 4);
            let mut expect_off = 0u64;
            for e in &b.chunks {
                assert_eq!(e.offset, expect_off, "chunks pack contiguously");
                assert!(e.len > 0 && e.elements > 0);
                assert_ne!(e.checksum, 0, "per-chunk checksum recorded");
                assert!(e.bbox[0] <= e.bbox[2] && e.bbox[1] <= e.bbox[3]);
                expect_off += e.len;
            }
            assert_eq!(expect_off, b.stored_bytes, "index covers the shard");
        }
        assert_eq!(indexed, 2);
    }

    #[test]
    fn sharded_writes_are_byte_identical_run_to_run() {
        let (mesh, data) = small_mesh();
        let first = sharded_canopus();
        let second = sharded_canopus();
        first.write("e.bp", "v", &mesh, &data).unwrap();
        second.write("e.bp", "v", &mesh, &data).unwrap();
        let a = first.store().open("e.bp").unwrap();
        let b = second.store().open("e.bp").unwrap();
        assert_eq!(a.meta(), b.meta(), "manifests identical");
        for (va, vb) in a.meta().vars.iter().zip(&b.meta().vars) {
            for (ba, bb) in va.blocks.iter().zip(&vb.blocks) {
                let (da, _, _) = a.read_block(ba).unwrap();
                let (db, _, _) = b.read_block(bb).unwrap();
                assert_eq!(da, db, "{}", ba.key);
            }
        }
    }
}
