//! The read side: retrieve → decompress → restore (paper Fig. 1, right
//! half, and Alg. 3), with the Fig. 9–11 phase timing breakdown.
//!
//! Every refinement is one step, `refine_step`: fetch the delta that
//! refines a level into the next finer one, decode it and restore. Every
//! stream the reader decodes — a base block, a delta chunk — goes
//! through one decode (`decode_stream`): the codec's own, which decodes
//! a stream the writer framed in 64 Ki-value tiles one tile per task on
//! every core, straight into a buffer that is never zero-filled. Every
//! step restores through one kernel, [`restore_in_place`], one task per
//! tile. Of a level stored as one spatial chunk (the default layout) the
//! decoded stream is the level's delta; of a level in several chunks the
//! step decodes the chunks on a second thread while the geometry loads
//! and the level's chunk → vertex assignment is taken (sorted once, then
//! kept by the decoded-level cache), and puts their values in vertex
//! order first. A level walk
//! ([`CanopusReader::read_level`]) is a coarse-to-fine loop over that
//! step, with one loader thread fetching the target level's geometry
//! meanwhile; a single step
//! ([`CanopusReader::refine_once`]) is one iteration of it.
//! [`CanopusReader::refine_region`] prunes the step to the chunks a
//! region touches.
//!
//! Every restored level feeds one decoded-level LRU cache, so campaign
//! analytics that revisit a `(var, level)` pair skip tier I/O and
//! decompression entirely.
//!
//! Reads are also fault-tolerant: every block fetch retries
//! fault-class failures (transient tier errors, down tiers, manifest
//! checksum mismatches) with capped exponential backoff under a
//! configurable [`RetryPolicy`]; when a delta stays unreachable past the
//! budget, a level walk returns the finest level it *could* restore with
//! [`ReadOutcome::degraded`] set instead of failing. Missing blocks are
//! never retried or absorbed — absent data is a hard error.

use crate::cache::{Assignment, CachedLevel, LevelCache, Probe};
use crate::config::RetryPolicy;
use crate::error::CanopusError;
use crate::geometry::{section_of, Fill, LevelGeometry, Need};
use crate::write::spatial_chunks;
use bytes::Bytes;
use canopus_adios::{BlockMeta, BpFile, ChunkEntry, GeometrySection};
use canopus_compress::{Chunked, Codec, CodecKind, ObservedCodec, CHUNKED_CODEC_ID_FLAG};
use canopus_mesh::geometry::Point2;
use canopus_mesh::{Aabb, TriMesh, VertexId};
use canopus_obs::{names, stage, stage_child, FieldValue, Registry, SpanContext};
use canopus_refactor::{restore_in_place, Estimator};
use parking_lot::Mutex;
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{Scope, ScopedJoinHandle};
use std::time::Instant;

/// The paper's per-phase timing: I/O (simulated), decompression and
/// restoration (measured wall time). Figs. 9a/10a/11a stack exactly these.
///
/// `total()` sums the three phases — the cost model of a serial pipeline.
/// `elapsed_secs` is the *measured wall clock* of the same operation.
/// The decode and restore rows are the wall seconds of each phase, on
/// however many cores it ran, so together they never exceed
/// `elapsed_secs`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTiming {
    pub io_secs: f64,
    pub decompress_secs: f64,
    pub restore_secs: f64,
    /// Measured wall-clock seconds of the operation (`io_secs` is
    /// simulated device time rather than wall time, so the three phases
    /// together can exceed this).
    pub elapsed_secs: f64,
}

impl PhaseTiming {
    /// Serial-model cost: the sum of the three phases.
    pub fn total(&self) -> f64 {
        self.io_secs + self.decompress_secs + self.restore_secs
    }
}

impl std::ops::Add for PhaseTiming {
    type Output = PhaseTiming;
    fn add(self, o: Self) -> Self {
        Self {
            io_secs: self.io_secs + o.io_secs,
            decompress_secs: self.decompress_secs + o.decompress_secs,
            restore_secs: self.restore_secs + o.restore_secs,
            elapsed_secs: self.elapsed_secs + o.elapsed_secs,
        }
    }
}

impl std::ops::AddAssign for PhaseTiming {
    fn add_assign(&mut self, o: Self) {
        *self = *self + o;
    }
}

/// Accounting for a focused (region-of-interest) refinement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionStats {
    /// Chunks the delta was stored in.
    pub chunks_total: usize,
    /// Chunks applied at level accuracy (those intersecting the region,
    /// whether fetched from a tier or answered by the chunk cache).
    pub chunks_read: usize,
    /// Of [`chunks_read`](Self::chunks_read), chunks answered from the
    /// reader's caches — no tier fetch, no decode: by the decoded-chunk
    /// cache for a level in several chunks, and for a one-chunk level by
    /// the decoded-level cache holding the refined level whole.
    pub chunks_cached: usize,
    /// Compressed bytes transferred for the fetched chunks.
    pub bytes_read: u64,
    /// Fine vertices restored to level accuracy (the rest carry the
    /// estimate only).
    pub exact_vertices: usize,
}

/// Result of restoring a variable to some accuracy level.
///
/// The mesh and the field are shared and immutable: a level answered
/// from the reader's caches is handed out as pointers to the arrays the
/// caches hold, not as copies, so `clone` is cheap and an outcome stays
/// valid after its cache entry is evicted and after the reader is
/// dropped. Read through them as before (`out.data.len()`, `&out.data`
/// as `&[f64]`, `&out.mesh` as `&TriMesh`); for a field to own or
/// mutate, take [`ReadOutcome::into_data`].
#[derive(Debug, Clone)]
pub struct ReadOutcome {
    /// The mesh at the restored level.
    pub mesh: TriMesh,
    /// The restored data, one value per vertex of `mesh`.
    pub data: Arc<Vec<f64>>,
    /// Which level this is (0 = full accuracy).
    pub level: u32,
    /// The level actually restored — always equal to [`level`](Self::level).
    /// Meaningful together with [`degraded`](Self::degraded): when a
    /// requested finer level could not be reached (a tier down past the
    /// retry budget), this is the finest level the walk achieved.
    pub achieved_level: u32,
    /// Set when the walk could not reach the level it was asked for and
    /// returned the finest restorable one instead. Only fault-class
    /// failures (transient tier errors, down tiers, checksum mismatches
    /// that outlast the [`RetryPolicy`](crate::config::RetryPolicy))
    /// degrade; a missing block is still a hard error.
    pub degraded: bool,
    pub timing: PhaseTiming,
    /// Whether every vertex carries this level's accuracy. A partial
    /// [`CanopusReader::refine_region`] pass clears it (vertices outside
    /// the fetched chunks hold only the estimate), and refinements of a
    /// mixed-accuracy field inherit the mix. Only level-exact outcomes
    /// may enter or be answered from the decoded-level cache.
    pub level_exact: bool,
}

impl ReadOutcome {
    /// The field as a `Vec` of the caller's own: moved out when this
    /// outcome is the buffer's only holder, copied when a cache or
    /// another outcome shares it — which is what keeps a caller's writes
    /// away from what the next reader is served.
    pub fn into_data(self) -> Vec<f64> {
        Arc::unwrap_or_clone(self.data)
    }
}

/// A restored level inside the reader: its field — the one buffer the
/// level was restored in, shared with the decoded-level cache and handed
/// to the caller as it is — and the geometry entry it shares with the
/// caches, which holds the level's topology, and its coordinates only if
/// something needed them. A mesh is assembled where one is handed out
/// ([`CanopusReader::outcome`]).
struct Restored {
    level: u32,
    geometry: Arc<LevelGeometry>,
    data: Arc<Vec<f64>>,
    timing: PhaseTiming,
}

impl Restored {
    /// A cached level, by reference. Timing is zero: a cache hit
    /// performs no I/O, decompression or restoration.
    fn from_cached(level: u32, hit: &CachedLevel) -> Self {
        Self {
            level,
            geometry: Arc::clone(&hit.geometry),
            data: Arc::clone(&hit.data),
            timing: PhaseTiming::default(),
        }
    }

    /// The level as the caller receives it: a mesh over the geometry
    /// entry's own arrays and the shared field. `None` until the entry
    /// holds its coordinates; nothing is fetched here.
    fn handed_out(self) -> Option<ReadOutcome> {
        let mesh = self.geometry.mesh()?;
        Some(ReadOutcome {
            mesh,
            data: self.data,
            level: self.level,
            achieved_level: self.level,
            degraded: false,
            timing: self.timing,
            level_exact: true,
        })
    }

    fn as_coarse(&self) -> Result<Coarse<'_>, CanopusError> {
        let topology = self.geometry.topology().ok_or_else(|| {
            CanopusError::Invalid(format!(
                "level {} was restored without topology",
                self.level
            ))
        })?;
        Ok(Coarse {
            level: self.level,
            vertices: topology.connectivity.num_vertices(),
            triangles: topology.connectivity.triangles(),
            points: self.geometry.points().unwrap_or(&[]),
            data: &self.data,
        })
    }
}

/// The coarser level as one restore step reads it.
struct Coarse<'a> {
    level: u32,
    /// What every corner of `triangles` is below.
    vertices: usize,
    triangles: &'a [[VertexId; 3]],
    /// Vertex positions; may be empty unless the estimator reads them.
    points: &'a [Point2],
    data: &'a [f64],
}

impl<'a> Coarse<'a> {
    fn of_outcome(outcome: &'a ReadOutcome) -> Self {
        Self {
            level: outcome.level,
            vertices: outcome.mesh.num_vertices(),
            triangles: outcome.mesh.triangles(),
            points: outcome.mesh.points(),
            data: &outcome.data,
        }
    }
}

/// Where a level walk stands: the finest level restored so far and,
/// once the walk has left it, the level it started from (the base, read
/// whole, or a cached level) — which a walk that stops short falls back
/// on if the mesh of the level it stopped at cannot be completed.
struct Walk {
    cur: Restored,
    start: Option<Restored>,
}

impl Walk {
    fn new(start: Restored) -> Self {
        Self {
            cur: start,
            start: None,
        }
    }

    /// Step to `next`, keeping the level the walk started from.
    fn advance(&mut self, next: Restored) {
        let left = std::mem::replace(&mut self.cur, next);
        self.start.get_or_insert(left);
    }
}

/// Cached level geometry: `(var, level) -> entry`. Entries are created
/// empty and never removed; their halves fill on demand.
type MetaCache = Mutex<HashMap<(String, u32), Arc<LevelGeometry>>>;

/// Reader over one Canopus BP file.
///
/// Level meshes and mappings are cached after first use: simulations
/// write many timesteps of many variables over the *same* decimated mesh
/// hierarchy, so analytics pays the geometry I/O once per campaign, not
/// once per read — matching how the paper accounts only the variable's
/// own I/O in Figs. 9–11.
///
/// Every read method takes `&self`: a single reader is shared by the
/// serving layer's worker pool ([`crate::serve::CanopusService`]) and
/// by ad-hoc scoped threads, with all mutable state behind interior
/// mutability.
///
/// ## Lock order
///
/// The read path acquires its locks in this order, and holds none of
/// the map-like ones across I/O:
///
/// 1. `meta_cache` — lookup/insert of a level's (possibly still empty)
///    geometry entry; released before anything is fetched;
/// 2. a claim on one entry's halves ([`LevelGeometry::claim`], held as a
///    [`Fill`]) — not a lock a thread sits in but a flag per half
///    (topology, coordinates) under the entry's own small mutex, which
///    is a leaf: held for a few loads and stores, never across I/O. The
///    `Fill` is what is held across the tier read and the parse, by
///    whichever thread does the loading, so that concurrent misses on
///    one half wait (on the entry's condition variable) for a single
///    fetch instead of each repeating it; the topology half's claim
///    ends the moment it is published, before the coordinates unpack.
///    A calling thread holds at most one `Fill` at a time and waits for
///    no other claim while it does. A walk's loader thread
///    ([`Self::load_geometry_off_thread`]) holds the `Fill` of the
///    walk's target level, takes nothing else and waits for nobody, so
///    it always finishes: that is why the walk's calling thread may
///    claim — or wait for — the entries of the levels it passes while
///    its loader's claim stands, and waits for the loader itself last;
/// 3. `LevelCache::inner` — one [`Probe`]/insert per read (a leaf lock:
///    never held across I/O, decode or registry calls);
/// 4. registry instrument maps inside [`Registry`] — leaf locks of the
///    obs layer; hot-path hit/miss counters don't even reach them, they
///    bump pre-resolved atomic handles (`cache_hits` / `cache_misses`).
///
/// Storage locks (`Device`'s `RwLock`, per-tier stats) sit strictly
/// below all of these: of the reader-level locks none is held while
/// calling into a tier — only a claim is.
pub struct CanopusReader {
    file: BpFile,
    estimator: Estimator,
    meta_cache: MetaCache,
    /// Decoded-level LRU; disabled (capacity 0) unless configured.
    level_cache: LevelCache,
    /// Retry budget for fault-class block-read failures.
    retry: RetryPolicy,
    obs: Arc<Registry>,
    /// Pre-resolved cache-accounting counters: plain atomic increments,
    /// so concurrent hits/misses never race through a read-modify-write
    /// or contend on the registry's name map.
    cache_hits: Arc<canopus_obs::Counter>,
    cache_misses: Arc<canopus_obs::Counter>,
    /// Pre-resolved [`names::READ_GEOMETRY_PARSE`]: recorded from the
    /// loader thread, which is to allocate nothing of its own.
    geometry_parse: Arc<canopus_obs::StageTimer>,
}

impl CanopusReader {
    pub(crate) fn new(file: BpFile, estimator: Estimator) -> Self {
        let obs = Arc::clone(file.hierarchy().metrics());
        let cache_hits = obs.counter(names::READ_CACHE_HITS);
        let cache_misses = obs.counter(names::READ_CACHE_MISSES);
        let geometry_parse = obs.timer(names::READ_GEOMETRY_PARSE);
        Self {
            file,
            estimator,
            meta_cache: Mutex::new(HashMap::new()),
            level_cache: LevelCache::new(0),
            retry: RetryPolicy::new(),
            obs,
            cache_hits,
            cache_misses,
            geometry_parse,
        }
    }

    /// Retain up to `capacity` decoded `(var, level)` fields in an LRU
    /// cache so repeat reads skip tier I/O and decompression; 0
    /// disables caching. Resident memory is additionally bounded by an
    /// approximate byte budget (256 MiB unless overridden with
    /// [`Self::with_level_cache_bytes`]).
    pub fn with_level_cache(mut self, capacity: u32) -> Self {
        let max_bytes = self.level_cache.max_bytes();
        self.level_cache = LevelCache::new(capacity as usize);
        self.level_cache.set_max_bytes(max_bytes);
        self
    }

    /// Cap the decoded-level cache's resident size at approximately
    /// `max_bytes` (LRU entries are evicted past the budget; the most
    /// recent entry is always retained).
    pub fn with_level_cache_bytes(self, max_bytes: usize) -> Self {
        self.level_cache.set_max_bytes(max_bytes);
        self
    }

    /// Set the retry budget for fault-class block-read failures
    /// (transient tier errors, down tiers, checksum mismatches).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The configured retry budget.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Probe the decoded-level cache with hit/miss accounting.
    /// No counters move while the cache is disabled. Accounting goes
    /// through the pre-resolved atomic handles, so probes from many
    /// worker threads never lose an increment.
    fn cache_lookup(&self, var: &str, level: u32) -> Option<CachedLevel> {
        if !self.level_cache.enabled() {
            return None;
        }
        let hit = self.level_cache.get(var, level);
        if hit.is_some() {
            self.cache_hits.inc();
        } else {
            self.cache_misses.inc();
        }
        hit
    }

    /// Probe the decoded-chunk cache. Chunk residency is a side
    /// population of the level cache: no level hit/miss accounting
    /// moves.
    fn chunk_cache_get(&self, var: &str, level: u32, chunk: u32) -> Option<Arc<Vec<f64>>> {
        if !self.level_cache.enabled() {
            return None;
        }
        self.level_cache.get_chunk(var, level, chunk)
    }

    /// Retain one decoded spatial chunk for future region refinements
    /// (no-op when the cache is disabled).
    fn chunk_cache_insert(&self, var: &str, level: u32, chunk: u32, values: Arc<Vec<f64>>) {
        if !self.level_cache.enabled() {
            return;
        }
        self.level_cache.insert_chunk(var, level, chunk, values);
    }

    /// Retain a restored level for future reads (no-op when disabled):
    /// the cache takes a reference to the buffer the level was restored
    /// in, which the walk goes on to read and the caller to receive.
    fn cache_store(
        &self,
        var: &str,
        level: u32,
        geometry: &Arc<LevelGeometry>,
        data: &Arc<Vec<f64>>,
        delta_rms: f64,
    ) {
        if !self.level_cache.enabled() {
            return;
        }
        self.level_cache.insert(
            var,
            level,
            CachedLevel {
                geometry: Arc::clone(geometry),
                data: Arc::clone(data),
                delta_rms,
            },
        );
    }

    /// Hand a restored level to the caller. This is where a mesh is
    /// assembled over the level's shared arrays, and so where the
    /// level's coordinates are fetched, once, if no step that led here
    /// consumed them (a walk passed through the level, or stopped at it
    /// short of its target).
    fn outcome(
        &self,
        var: &str,
        mut restored: Restored,
        parent: SpanContext,
    ) -> Result<ReadOutcome, CanopusError> {
        let level = restored.level;
        if !restored.geometry.holds(Need::Whole) {
            restored.timing.io_secs += self.geometry(var, level, Need::Whole, parent)?.1;
        }
        restored.handed_out().ok_or_else(|| {
            CanopusError::Invalid(format!("geometry of level {level} of {var} is incomplete"))
        })
    }

    /// `level` of `var` as the decoded-level cache holds it, if it can be
    /// handed out as it stands: the exact entry, its mesh whole. Found
    /// with no I/O, decode or restore, and nothing counted.
    fn peek_level(&self, var: &str, level: u32) -> Option<ReadOutcome> {
        let hit = self.level_cache.get(var, level)?;
        Restored::from_cached(level, &hit).handed_out()
    }

    /// Whether a [`Self::refine_region`] step of `current` through the
    /// delta `shards` (`total` chunks) is a full refinement: from a
    /// level-exact field into a level stored as one chunk, which
    /// `region` touches. There is nothing to prune, so the decoded-level
    /// cache answers it when it holds the refined level.
    fn is_full_step(
        current: &ReadOutcome,
        shards: &[&BlockMeta],
        total: usize,
        region: &Aabb,
    ) -> bool {
        total == 1
            && current.level_exact
            && shards
                .iter()
                .flat_map(|b| &b.chunks)
                .any(|e| chunk_bbox(e).intersects(region))
    }

    /// The stats of a full refinement step the decoded-level cache
    /// answered, into a level of `vertices` vertices: its one chunk
    /// planned, held and skipped, no bytes read. Counts the chunk plan;
    /// the caller counts its level-cache probe.
    fn held_step(&self, vertices: usize) -> RegionStats {
        let stats = RegionStats {
            chunks_total: 1,
            chunks_read: 1,
            chunks_cached: 1,
            bytes_read: 0,
            exact_vertices: vertices,
        };
        self.count_chunk_plan(&stats);
        stats
    }

    /// `level` of `var` answered from the decoded-level cache alone —
    /// the exact entry, its mesh whole — with no I/O, decode or restore,
    /// counted as one level-cache hit. `None`, with nothing counted, when
    /// the cache does not hold the level whole: the caller goes its own
    /// way, which counts its own probe. The one test of a held level:
    /// [`Self::read_base`], [`Self::read_level`] and a full
    /// [`Self::refine_region`] step ask it first, and so does the serving
    /// layer before it queues a request ([`crate::serve`]).
    pub(crate) fn held_level(&self, var: &str, level: u32) -> Option<ReadOutcome> {
        let outcome = self.peek_level(var, level)?;
        self.cache_hits.inc();
        Some(outcome)
    }

    /// A served region request — the base, then one
    /// [`Self::refine_region`] step — answered from the decoded-level
    /// cache alone when both reads would be: the base held whole and
    /// the step a full refinement whose level is held whole. Counted as
    /// the two reads count their hits and the step its chunk plan;
    /// `None`, with nothing counted, otherwise.
    pub(crate) fn held_region(
        &self,
        var: &str,
        region: Aabb,
    ) -> Option<(ReadOutcome, RegionStats)> {
        let base_level = self.num_levels().checked_sub(1)?;
        let finer = base_level.checked_sub(1)?;
        let base = self.peek_level(var, base_level)?;
        let (shards, total) = self.delta_shards(var, finer).ok()?;
        if !Self::is_full_step(&base, &shards, total, &region) {
            return None;
        }
        let outcome = self.held_level(var, finer)?;
        // The base read's hit.
        self.cache_hits.inc();
        let stats = self.held_step(outcome.data.len());
        Some((outcome, stats))
    }

    /// Fetch one block — all of it, or the `range` of it one index
    /// entry describes — with I/O accounting: records the simulated
    /// transfer time under [`names::READ_IO`] and the byte volume under
    /// [`names::READ_BYTES_IO`]. Either way the bytes are verified
    /// against the checksum the manifest holds for exactly them.
    ///
    /// Fault-class failures — transient tier errors, down tiers, and
    /// manifest checksum mismatches — are retried up to the configured
    /// [`RetryPolicy`] budget with capped exponential backoff and
    /// deterministic per-key jitter; each observed fault increments
    /// [`names::READ_FAULTS_INJECTED`] (and
    /// [`names::READ_CHECKSUM_FAILURES`] for integrity failures), each
    /// retry [`names::READ_RETRIES`]. Anything else — notably a missing
    /// block — fails immediately. I/O accounting only records the
    /// successful attempt.
    ///
    /// When tracing is armed, one `read.fault` event per observed fault
    /// and one `read.retry` event (attempt number, backoff slept) per
    /// retry nest under `ctx`, the caller's span of the fetch. Backoffs
    /// also land in the [`names::READ_RETRY_BACKOFF_HIST`] histogram
    /// either way. Returns the payload, its simulated I/O seconds and
    /// the wall seconds of the attempt that succeeded.
    ///
    /// A fetch nobody may be waiting for any more — a loader's, once its
    /// walk has ended — takes the walk's `stop` flag: once it is set, a
    /// fault is returned as it is instead of being retried, a backoff
    /// under way included.
    fn fetch_with_retry(
        &self,
        block: &BlockMeta,
        range: Option<&ChunkEntry>,
        stop: Option<&AtomicBool>,
        ctx: SpanContext,
    ) -> Result<(Bytes, f64, f64), CanopusError> {
        let max_attempts = self.retry.max_attempts.max(1);
        let mut attempt = 0u32;
        let event = |name: &str, attempt: u32, what: (&str, FieldValue)| {
            if !self.obs.sink_enabled() {
                return;
            }
            let mut fields = vec![
                ("key".to_string(), FieldValue::from(block.key.as_str())),
                ("attempt".to_string(), FieldValue::from(attempt)),
                (what.0.to_string(), what.1),
            ];
            if let Some(entry) = range {
                fields.push(("chunk".to_string(), FieldValue::from(entry.chunk)));
            }
            self.obs.event_child(name, ctx, fields);
        };
        loop {
            attempt += 1;
            let t = Instant::now();
            let fetched = match range {
                None => self.file.read_block(block),
                Some(entry) => self.file.read_block_range(block, entry),
            };
            match fetched {
                Ok((bytes, _, dt)) => {
                    let wall = t.elapsed().as_secs_f64();
                    self.obs.timer(names::READ_IO).record(wall, dt.seconds());
                    self.obs
                        .counter(names::READ_BYTES_IO)
                        .add(bytes.len() as u64);
                    return Ok((bytes, dt.seconds(), wall));
                }
                Err(e) => {
                    let e = CanopusError::from(e);
                    if !e.is_availability_fault() {
                        return Err(e);
                    }
                    self.obs.counter(names::READ_FAULTS_INJECTED).inc();
                    if e.is_checksum_mismatch() {
                        self.obs.counter(names::READ_CHECKSUM_FAILURES).inc();
                    }
                    event(
                        "read.fault",
                        attempt,
                        ("cause", FieldValue::from(e.to_string())),
                    );
                    // The flag guards no data: it only ends this loop.
                    let stopped = || stop.is_some_and(|stop| stop.load(Ordering::Relaxed));
                    if attempt >= max_attempts || stopped() {
                        return Err(e);
                    }
                    let backoff = self.retry.backoff_s(&block.key, attempt);
                    if backoff > 0.0 {
                        std::thread::sleep(std::time::Duration::from_secs_f64(backoff));
                    }
                    // Nobody may be left to retry for.
                    if stopped() {
                        return Err(e);
                    }
                    self.obs.counter(names::READ_RETRIES).inc();
                    self.obs
                        .histogram(names::READ_RETRY_BACKOFF_HIST)
                        .observe_secs(backoff);
                    event(
                        "read.retry",
                        attempt,
                        ("backoff_s", FieldValue::from(backoff)),
                    );
                }
            }
        }
    }

    /// Read one block's payload whole ([`Self::fetch_with_retry`]),
    /// inside a `read.block` span under `parent` when tracing is armed.
    /// Returns the payload and its simulated I/O seconds.
    fn read_block_observed(
        &self,
        block: &BlockMeta,
        parent: SpanContext,
    ) -> Result<(Bytes, f64), CanopusError> {
        let span = stage_child!(self.obs, parent, "read.block", key = block.key.as_str());
        let (bytes, io, _) = self.fetch_with_retry(block, None, None, span.context())?;
        self.obs.counter(names::READ_BLOCKS).inc();
        Ok((bytes, io))
    }

    /// Ranged fetch of one spatial chunk out of a shard block — only
    /// `entry.len` bytes move off the tier — inside a `read.chunk` span.
    /// Each successful fetch feeds [`names::READ_CHUNK_FETCH_HIST`].
    fn read_chunk_observed(
        &self,
        block: &BlockMeta,
        entry: &ChunkEntry,
        parent: SpanContext,
    ) -> Result<(Bytes, f64), CanopusError> {
        let span = stage_child!(self.obs, parent, "read.chunk", key = block.key.as_str());
        let (bytes, io, wall) = self.fetch_with_retry(block, Some(entry), None, span.context())?;
        self.obs
            .histogram(names::READ_CHUNK_FETCH_HIST)
            .observe_secs(wall);
        Ok((bytes, io))
    }

    /// Fetch a geometry block — whole, or the one `section` of it that
    /// is missing — as a `read.block` span that names the section.
    /// Counts what moved under [`names::READ_GEOMETRY_BYTES`], and the
    /// coordinates among it under [`names::READ_COORDINATE_BYTES`].
    fn read_geometry_observed(
        &self,
        block: &BlockMeta,
        section: Option<GeometrySection>,
        stop: Option<&AtomicBool>,
        parent: SpanContext,
    ) -> Result<(Bytes, f64), CanopusError> {
        let entry = section.map(|s| section_of(block, s)).transpose()?;
        let key = block.key.as_str();
        let span = match section {
            None => stage_child!(self.obs, parent, "read.block", key = key),
            Some(s) => stage_child!(
                self.obs,
                parent,
                "read.block",
                key = key,
                section = s.name()
            ),
        };
        let (bytes, io, _) = self.fetch_with_retry(block, entry, stop, span.context())?;
        self.obs.counter(names::READ_BLOCKS).inc();
        self.obs
            .counter(names::READ_GEOMETRY_BYTES)
            .add(bytes.len() as u64);
        let coordinates = match section {
            None => section_of(block, GeometrySection::Coordinates)?.len,
            Some(GeometrySection::Coordinates) => bytes.len() as u64,
            Some(GeometrySection::Topology) => 0,
        };
        self.obs
            .counter(names::READ_COORDINATE_BYTES)
            .add(coordinates);
        Ok((bytes, io))
    }

    /// `level`'s geometry block in the manifest and its — possibly still
    /// empty — entry in the geometry cache.
    fn geometry_entry(
        &self,
        var: &str,
        level: u32,
    ) -> Result<(&BlockMeta, Arc<LevelGeometry>), CanopusError> {
        let block = self
            .file
            .inq_var(var)?
            .metadata_for(level)
            .ok_or_else(|| CanopusError::Invalid(format!("no metadata for level {level}")))?;
        let mut cache = self.meta_cache.lock();
        let key = (var.to_string(), level);
        let entry = match cache.get(&key) {
            Some(entry) => Arc::clone(entry),
            None => {
                let fresh = Arc::new(LevelGeometry::of(block)?);
                cache.insert(key, Arc::clone(&fresh));
                fresh
            }
        };
        Ok((block, entry))
    }

    /// The geometry entry of `level`, holding at least what `need` asks
    /// for: from the cache or — fetched, verified and parsed — from the
    /// level's metadata block. Only what is missing moves: the whole
    /// object in one read when nothing is loaded, else the one missing
    /// section as a ranged read. Concurrent callers that miss on the
    /// same level wait for the one fetch. Returns the simulated I/O
    /// seconds alongside (zero on a hit).
    fn geometry(
        &self,
        var: &str,
        level: u32,
        need: Need,
        parent: SpanContext,
    ) -> Result<(Arc<LevelGeometry>, f64), CanopusError> {
        let (block, entry) = self.geometry_entry(var, level)?;
        let io = match entry.claim(need) {
            // Loaded already, or while this thread waited to claim it.
            None => 0.0,
            Some(fill) => self.fill_geometry(block, level, fill, None, parent)?,
        };
        Ok((entry, io))
    }

    /// Load what `fill` claims of `level`'s geometry: one verified fetch
    /// ([`Self::read_geometry_observed`]), then the parse, which
    /// publishes the topology before it unpacks the coordinates. Both
    /// sit in a `geometry` span under `parent`; the parse alone is timed
    /// under [`names::READ_GEOMETRY_PARSE`]. Returns the simulated I/O
    /// seconds.
    fn fill_geometry(
        &self,
        block: &BlockMeta,
        level: u32,
        mut fill: Fill,
        stop: Option<&AtomicBool>,
        parent: SpanContext,
    ) -> Result<f64, CanopusError> {
        let section = fill.section();
        let bytes = match section {
            None => block.stored_bytes,
            Some(s) => section_of(block, s)?.len,
        };
        let span = stage_child!(
            self.obs,
            parent,
            "geometry",
            level = level,
            section = section.map_or("whole", |s| s.name()),
            bytes = bytes
        );
        let (bytes, io) = self.read_geometry_observed(block, section, stop, span.context())?;
        let t = Instant::now();
        fill.absorb(block, section, &bytes)?;
        self.geometry_parse.record_wall(t.elapsed().as_secs_f64());
        Ok(io)
    }

    /// Start loading `level`'s geometry, whole, on a thread of `scope`
    /// — the one way geometry is loaded off the calling thread. What the
    /// entry lacks is claimed here, so from this moment every other
    /// claimant (this thread included) waits for the loader instead of
    /// fetching, and the arrays it parses into are allocated here
    /// ([`Fill::reserve`]): a fresh thread's allocations land in an
    /// arena of its own, on pages no earlier restore has touched.
    /// `None` when the entry already holds everything.
    fn load_geometry_off_thread<'scope, 'env>(
        &'env self,
        scope: &'scope Scope<'scope, 'env>,
        var: &str,
        level: u32,
        parent: SpanContext,
    ) -> Result<Option<GeometryLoad<'scope>>, CanopusError> {
        let (block, entry) = self.geometry_entry(var, level)?;
        let Some(mut fill) = entry.claim(Need::Whole) else {
            return Ok(None);
        };
        fill.reserve();
        let publishes_topology = fill.claims_topology();
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let thread =
            scope.spawn(move || self.fill_geometry(block, level, fill, Some(&stopped), parent));
        Ok(Some(GeometryLoad {
            entry,
            publishes_topology,
            stop,
            thread: Some(thread),
        }))
    }

    /// The shared observability registry (anchored on the hierarchy).
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.obs
    }

    /// Pre-load every level's mesh + mapping for `var` into the cache
    /// (one-time campaign cost; subsequent reads skip geometry I/O).
    pub fn warm_metadata(&self, var: &str) -> Result<(), CanopusError> {
        for level in 0..self.num_levels() {
            self.geometry(var, level, Need::Whole, SpanContext::none())?;
        }
        Ok(())
    }

    pub fn file(&self) -> &BpFile {
        &self.file
    }

    /// Number of accuracy levels in the file.
    pub fn num_levels(&self) -> u32 {
        self.file.meta().num_levels
    }

    /// Decode one stream of `elements` values out of `bytes` — a base
    /// block, or one chunk of a delta shard — stored in `block` under
    /// `codec_id` (a shard's chunks each carry their own, since chunk
    /// framing depends on the element count). A set
    /// [`CHUNKED_CODEC_ID_FLAG`] bit marks a stream the writer framed
    /// through [`Chunked`], which decodes one chunk per task on every
    /// core; the observed codec sits *inside* the framing, so per-chunk
    /// metrics land under the real codec's name. The buffer is never
    /// filled before the decode: the codec writes its spare capacity
    /// ([`Codec::decompress_uninit`]), and if it fails the buffer is
    /// dropped with its length still 0.
    ///
    /// The decode runs inside a `decode` span under `parent` and counts
    /// once, however many chunks the stream has: its wall seconds under
    /// [`names::READ_DECOMPRESS`] and [`names::READ_DECODE_HIST`], its
    /// values under [`names::READ_VALUES_DECODED`]. Returns the values
    /// and those seconds.
    fn decode_stream(
        &self,
        block: &BlockMeta,
        codec_id: u8,
        elements: u64,
        bytes: &[u8],
        parent: SpanContext,
    ) -> Result<(Vec<f64>, f64), CanopusError> {
        let _span = stage_child!(self.obs, parent, "decode", key = block.key.as_str());
        let id = codec_id & !CHUNKED_CODEC_ID_FLAG;
        let kind = CodecKind::from_id(id, block.codec_param)
            .ok_or_else(|| CanopusError::Invalid(format!("unknown codec id {id}")))?;
        let codec = ObservedCodec::new(kind.build_any(), Arc::clone(&self.obs));
        let t = Instant::now();
        let n = elements as usize;
        let mut values = Vec::with_capacity(n);
        let spare = &mut values.spare_capacity_mut()[..n];
        if codec_id & CHUNKED_CODEC_ID_FLAG != 0 {
            Chunked::for_decode(codec).decompress_uninit(bytes, spare)?;
        } else {
            codec.decompress_uninit(bytes, spare)?;
        }
        // SAFETY: `spare` is `spare_capacity_mut()[..n]`, so the capacity
        // is at least `n`, and the codec returned `Ok`, which writes every
        // element of the slice it is given: the first `n` elements are
        // initialised.
        unsafe { values.set_len(n) };
        let secs = t.elapsed().as_secs_f64();
        self.obs.timer(names::READ_DECOMPRESS).record_wall(secs);
        self.obs
            .histogram(names::READ_DECODE_HIST)
            .observe_secs(secs);
        self.obs.counter(names::READ_VALUES_DECODED).add(elements);
        Ok((values, secs))
    }

    /// Read the base level: the paper's option (1), the fastest path.
    /// Served from the decoded-level cache when present.
    pub fn read_base(&self, var: &str) -> Result<ReadOutcome, CanopusError> {
        let base_level = self.num_levels() - 1;
        let root = stage!(self.obs, "read", var = var, level = base_level);
        if let Some(held) = self.held_level(var, base_level) {
            return Ok(held);
        }
        let base = self.base_restored(var, root.context())?;
        self.outcome(var, base, root.context())
    }

    /// The base level from the decoded-level cache (one accounted
    /// probe: a hit there holds the field, its coordinates still to be
    /// fetched) or, on a miss, from its blocks.
    fn base_restored(&self, var: &str, parent: SpanContext) -> Result<Restored, CanopusError> {
        let base_level = self.num_levels() - 1;
        match self.cache_lookup(var, base_level) {
            Some(hit) => Ok(Restored::from_cached(base_level, &hit)),
            None => self.restore_base(var, parent),
        }
    }

    /// Fetch and decode the base level without a cache probe, for
    /// callers that already accounted one (the missed tail of
    /// `read_level`). Still stores the decoded base for future reads.
    /// The base's geometry object is read whole: every read hands the
    /// base out or starts a walk from it. Block fetches and decodes
    /// attach under `parent` (the caller's root `read` span).
    fn restore_base(&self, var: &str, parent: SpanContext) -> Result<Restored, CanopusError> {
        let base_level = self.num_levels() - 1;
        let wall = Instant::now();
        let mut timing = PhaseTiming::default();

        let block = self
            .file
            .inq_var(var)?
            .base()
            .ok_or_else(|| CanopusError::Invalid(format!("no base block of {var}")))?
            .clone();
        // The base's geometry costs about what its field does (each is
        // a fetch, a checksum and a decode), so a cold read loads it on
        // a second thread meanwhile, as the walk does for its
        // target level. A field that fails drops the loader unjoined,
        // which tells it to stop retrying.
        let (data, io, decompress, meta_io) = std::thread::scope(|s| {
            let mut loader = self.load_geometry_off_thread(s, var, base_level, parent)?;
            let (bytes, io) = self.read_block_observed(&block, parent)?;
            let (data, decompress) =
                self.decode_stream(&block, block.codec_id, block.elements, &bytes, parent)?;
            let meta_io = loader.as_mut().map_or(Ok(0.0), GeometryLoad::join)?;
            Ok::<_, CanopusError>((data, io, decompress, meta_io))
        })?;
        let (_, geometry) = self.geometry_entry(var, base_level)?;
        timing.io_secs += io + meta_io;
        timing.decompress_secs += decompress;
        timing.elapsed_secs = wall.elapsed().as_secs_f64();

        let data = Arc::new(data);
        self.cache_store(var, base_level, &geometry, &data, 0.0);
        Ok(Restored {
            level: base_level,
            geometry,
            data,
            timing,
        })
    }

    /// The shard objects of the delta refining into `finer`, in shard
    /// order, and the number of chunks the level is stored in.
    fn delta_shards(
        &self,
        var: &str,
        finer: u32,
    ) -> Result<(Vec<&BlockMeta>, usize), CanopusError> {
        let shards = self.file.inq_var(var)?.delta_shards_to(finer);
        let chunks: usize = shards.iter().map(|b| b.chunks.len()).sum();
        if chunks == 0 {
            return Err(CanopusError::Invalid(format!(
                "no delta to level {finer} of {var}"
            )));
        }
        Ok((shards, chunks))
    }

    /// What restoring a level stored in `chunks` chunks consumes of its
    /// geometry: the topology always, the coordinates only if the level
    /// is `handed_out` as a mesh, if the chunk → vertex assignment is
    /// computed from them, or if the estimator weighs by them.
    fn geometry_need(&self, chunks: usize, handed_out: bool) -> Need {
        if handed_out || chunks > 1 || self.estimator.reads_coordinates() {
            Need::Whole
        } else {
            Need::Topology
        }
    }

    /// The chunk → vertex-id table of `level` of `var` stored in
    /// `chunks` chunks ([`spatial_chunks`]; `None` is the identity
    /// assignment of one chunk), from the coordinates
    /// [`Self::geometry_need`] had loaded for it. A Morton sort of every
    /// vertex, which depends on the coordinates and the chunk count
    /// alone, so the decoded-level cache keeps it once computed, charged
    /// to its byte budget and evicted like a chunk (no-op when the cache
    /// is disabled).
    fn assignment(
        &self,
        var: &str,
        level: u32,
        geometry: &LevelGeometry,
        chunks: usize,
    ) -> Option<Assignment> {
        if chunks <= 1 {
            return None;
        }
        if let Some(table) = self.level_cache.get_assignment(var, level) {
            return Some(table);
        }
        let points = geometry
            .points()
            .expect("a level in several chunks is loaded whole");
        let table = Arc::new(spatial_chunks(points, chunks as u32)?);
        self.level_cache
            .insert_assignment(var, level, Arc::clone(&table));
        Some(table)
    }

    /// Read and decode the full delta refining into a level stored in
    /// several chunks: every shard object is fetched whole (one object
    /// read each), and its chunks decoded, in shard and chunk order.
    /// Returns each chunk's index and values, and the fetch and decode
    /// rows.
    fn read_delta_chunks(
        &self,
        shards: &[&BlockMeta],
        parent: SpanContext,
    ) -> Result<(DecodedChunks, PhaseTiming), CanopusError> {
        let mut timing = PhaseTiming::default();
        let mut chunks = Vec::new();
        for &block in shards {
            let (bytes, io) = self.read_block_observed(block, parent)?;
            timing.io_secs += io;
            for e in &block.chunks {
                let stream = chunk_stream(block, e, &bytes)?;
                let (values, secs) =
                    self.decode_stream(block, e.codec_id, e.elements, stream, parent)?;
                timing.decompress_secs += secs;
                chunks.push((e.chunk, values));
            }
        }
        Ok((chunks, timing))
    }

    /// Turn the decoded `delta` into level `finer` itself, where it lies
    /// (paper Alg. 3): one pass ([`restore_in_place`]) adds each vertex's
    /// estimate from `coarse` and sums the squared deltas. What the pass
    /// reads is checked first: every array it indexes by came out of
    /// stored bytes, so a mapping, a coarse field, coordinates or a delta
    /// that do not fit the two levels are refused here rather than
    /// panicking in the kernel. Returns the level's data — from here on
    /// shared and read-only — the delta's RMS (the paper's adjacent-level
    /// termination criterion; 0 for an empty delta) and the wall seconds
    /// of the pass.
    fn apply_delta(
        &self,
        var: &str,
        finer: u32,
        geometry: &LevelGeometry,
        mut delta: Vec<f64>,
        coarse: &Coarse<'_>,
    ) -> Result<(Arc<Vec<f64>>, f64, f64), CanopusError> {
        let invalid =
            |why: String| CanopusError::Invalid(format!("restoring level {finer} of {var}: {why}"));
        let n = geometry.num_vertices();
        let topology = geometry
            .topology()
            .ok_or_else(|| invalid("topology not loaded".into()))?;
        if topology.mapping.len() != n || topology.mapping_end > coarse.triangles.len() {
            return Err(invalid(format!(
                "mapping of {} entries below {} for {n} vertices over {} triangles",
                topology.mapping.len(),
                topology.mapping_end,
                coarse.triangles.len()
            )));
        }
        if coarse.data.len() != coarse.vertices {
            return Err(invalid(format!(
                "level {} holds {} values for {} vertices",
                coarse.level,
                coarse.data.len(),
                coarse.vertices
            )));
        }
        let fine_points = geometry.points().unwrap_or(&[]);
        if self.estimator.reads_coordinates()
            && (fine_points.len() != n || coarse.points.len() != coarse.vertices)
        {
            return Err(invalid("coordinates not loaded".into()));
        }
        if delta.len() != n {
            return Err(invalid(format!(
                "delta decoded {} values for {n} vertices",
                delta.len()
            )));
        }
        let t = Instant::now();
        let squares = restore_in_place(
            &mut delta,
            coarse.triangles,
            coarse.data,
            &topology.mapping,
            self.estimator.weights(fine_points, coarse.points),
        );
        let secs = t.elapsed().as_secs_f64();
        Ok((Arc::new(delta), rms(squares, n), secs))
    }

    /// One refinement step, the one every read takes: fetch the delta
    /// refining `coarse` into the next finer level, decode it
    /// ([`Self::decode_stream`]) and restore (paper Alg. 3,
    /// [`Self::apply_delta`]) over that level's geometry, which
    /// `geometry` loads to what [`Self::geometry_need`] asks for and
    /// returns with its I/O seconds. A level stored as one chunk decodes
    /// to its delta. Of a level in several chunks every shard is fetched
    /// and its chunks decoded ([`Self::read_delta_chunks`]) on a second
    /// thread while this one loads the geometry and takes the chunk →
    /// vertex assignment ([`Self::assignment`], which the decoded-level
    /// cache keeps); then the chunks' values are put in vertex order
    /// ([`scatter`]). Block fetches and decodes attach under `parent`.
    ///
    /// Returns the level's geometry and data, the delta's RMS and the
    /// step's phase rows, geometry I/O included; the caller times the
    /// step.
    fn refine_step(
        &self,
        var: &str,
        shards: &[&BlockMeta],
        coarse: &Coarse<'_>,
        geometry: impl FnOnce() -> Result<(Arc<LevelGeometry>, f64), CanopusError>,
        parent: SpanContext,
    ) -> Result<Refined, CanopusError> {
        let finer = coarse.level - 1;
        let chunks: usize = shards.iter().map(|b| b.chunks.len()).sum();
        let (geometry, delta, mut timing) = if chunks <= 1 {
            // One chunk: its stream is the level's delta.
            let (geometry, meta_io) = geometry()?;
            let (block, entry) = shards
                .iter()
                .flat_map(|&b| b.chunks.iter().map(move |e| (b, e)))
                .next()
                .expect("a delta has a chunk");
            let (bytes, io) = self.read_block_observed(block, parent)?;
            let stream = chunk_stream(block, entry, &bytes)?;
            let (delta, decompress_secs) =
                self.decode_stream(block, entry.codec_id, entry.elements, stream, parent)?;
            let timing = PhaseTiming {
                io_secs: io + meta_io,
                decompress_secs,
                ..PhaseTiming::default()
            };
            (geometry, delta, timing)
        } else {
            // The delta is fetched and decoded on a thread of its own
            // while this one loads the geometry and takes the chunk
            // assignment, sorting it from the coordinates unless the
            // cache holds it.
            let (decoded, placed) = std::thread::scope(|s| {
                let decode = s.spawn(|| self.read_delta_chunks(shards, parent));
                let placed = geometry().and_then(|(geometry, meta_io)| {
                    let assignment =
                        self.assignment(var, finer, &geometry, chunks)
                            .ok_or_else(|| {
                                CanopusError::Invalid(format!(
                                    "{chunks} chunks of level {finer} of {var} for {} vertices",
                                    geometry.num_vertices()
                                ))
                            })?;
                    Ok((geometry, meta_io, assignment))
                });
                let decoded = decode
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                (decoded, placed)
            });
            let (geometry, meta_io, assignment) = placed?;
            let (decoded, mut timing) = decoded?;
            timing.io_secs += meta_io;
            let values = decoded.iter().map(|(chunk, v)| (*chunk, v.as_slice()));
            let (delta, _) = scatter(&assignment, geometry.num_vertices(), values)?;
            (geometry, delta, timing)
        };
        let (data, delta_rms, restore) = self.apply_delta(var, finer, &geometry, delta, coarse)?;
        timing.restore_secs = restore;
        self.obs.timer(names::READ_RESTORE).record_wall(restore);
        self.obs.counter(names::READ_REFINEMENTS).inc();
        Ok((geometry, data, delta_rms, timing))
    }

    /// Refine an already-restored level by one step: read + decompress
    /// `delta^{(l-1)-l}`, read the finer mesh + mapping, and restore
    /// (paper options (2)/(3)).
    ///
    /// Returns the finer outcome plus the RMS of the applied delta (the
    /// paper's suggested automatic termination criterion). A cached
    /// finer level short-circuits the whole step with zero timing.
    pub fn refine_once(
        &self,
        var: &str,
        current: &ReadOutcome,
    ) -> Result<(ReadOutcome, f64), CanopusError> {
        self.refine_once_ctx(var, current, SpanContext::none())
    }

    /// [`Self::refine_once`] with the block fetch / decode spans of the
    /// step attached under `parent` — the progressive reader passes its
    /// enclosing span so its trees stay connected like a walk's. The
    /// step fetches and decodes the delta, loads the finer level's
    /// geometry whole (its mesh is handed out) and restores.
    ///
    /// The cache holds canonical level-exact fields only. Refining a
    /// mixed-accuracy field (from a partial region pass, `level_exact`
    /// unset) must neither answer from the cache — the hit would
    /// silently replace the caller's field with the canonical one — nor
    /// store its contaminated result as the canonical level.
    pub(crate) fn refine_once_ctx(
        &self,
        var: &str,
        current: &ReadOutcome,
        parent: SpanContext,
    ) -> Result<(ReadOutcome, f64), CanopusError> {
        if current.level == 0 {
            return Err(CanopusError::Invalid(
                "already at full accuracy".to_string(),
            ));
        }
        let finer = current.level - 1;
        let exact = current.level_exact;
        if exact {
            if let Some(hit) = self.cache_lookup(var, finer) {
                let outcome = self.outcome(var, Restored::from_cached(finer, &hit), parent)?;
                return Ok((outcome, hit.delta_rms));
            }
        }
        let wall = Instant::now();
        let (shards, _) = self.delta_shards(var, finer)?;
        let coarse = Coarse::of_outcome(current);
        let (geometry, data, delta_rms, mut timing) = self.refine_step(
            var,
            &shards,
            &coarse,
            || self.geometry(var, finer, Need::Whole, parent),
            parent,
        )?;
        timing.elapsed_secs = wall.elapsed().as_secs_f64();

        if exact {
            self.cache_store(var, finer, &geometry, &data, delta_rms);
        }
        let restored = Restored {
            level: finer,
            geometry,
            data,
            timing,
        };
        let mut outcome = self.outcome(var, restored, parent)?;
        outcome.level_exact = exact;
        Ok((outcome, delta_rms))
    }

    /// Focused data retrieval (paper §III-E / §IV-D): refine one level,
    /// but fetch only the delta chunks whose bounding boxes intersect
    /// `region`, each as a ranged read of its shard object planned from
    /// the manifest's chunk index alone. Vertices outside the fetched
    /// chunks are restored from the estimate alone, giving a
    /// mixed-accuracy field.
    ///
    /// What "level accuracy inside the region" means depends on
    /// `current`: a vertex of a fetched chunk gets its exact delta, but
    /// its estimate interpolates `current` over the enclosing coarser
    /// triangle. One step from a level-exact `current` is therefore
    /// level-exact at every fetched vertex. Chained steps are not: a
    /// triangle that straddles the previous step's fetched chunks has
    /// estimate-only corners, and their error carries into fetched
    /// vertices near the region's edge. Exactness through a chain needs
    /// a halo of extra chunks per step, which this does not fetch.
    ///
    /// A level written as one chunk (`delta_chunks: 1`, the default) has
    /// nothing to prune: the step is a full refinement
    /// (`chunks_read == chunks_total == 1`) and, like any step that
    /// fetched every chunk, level-exact when `current` is. Such a step
    /// from a level-exact `current` is answered by the decoded-level
    /// cache when it holds the refined level, as [`Self::refine_once`]
    /// is (`chunks_cached == 1`, no bytes read). Region results are
    /// never stored there.
    pub fn refine_region(
        &self,
        var: &str,
        current: &ReadOutcome,
        region: Aabb,
    ) -> Result<(ReadOutcome, RegionStats), CanopusError> {
        if current.level == 0 {
            return Err(CanopusError::Invalid(
                "already at full accuracy".to_string(),
            ));
        }
        let finer = current.level - 1;
        let root = stage!(self.obs, "refine_region", var = var, level = finer);
        let ctx = root.context();
        // A one-chunk level has nothing to prune: a step whose region
        // touches the chunk, from a level-exact field, is a full
        // refinement, which a held level answers as in `refine_once`.
        let (shards, total) = self.delta_shards(var, finer)?;
        let full_step = Self::is_full_step(current, &shards, total, &region);
        if full_step {
            if let Some(outcome) = self.held_level(var, finer) {
                let stats = self.held_step(outcome.data.len());
                return Ok((outcome, stats));
            }
        }
        let wall = Instant::now();
        let mut timing = PhaseTiming::default();

        // The refined mesh is handed out, so the level is loaded whole.
        let (geometry, meta_io) = self.geometry(var, finer, Need::Whole, ctx)?;
        timing.io_secs += meta_io;
        let n = geometry.num_vertices();
        if full_step {
            // A level the cache held without its coordinates (a walk
            // only passed through it) answers now that they are loaded;
            // a full step it does not hold is one miss.
            if let Some(hit) = self.cache_lookup(var, finer) {
                let stats = self.held_step(n);
                let mut outcome = self.outcome(var, Restored::from_cached(finer, &hit), ctx)?;
                outcome.timing.io_secs += meta_io;
                return Ok((outcome, stats));
            }
        }

        let mut stats = RegionStats {
            chunks_total: total,
            ..RegionStats::default()
        };
        // `None` is the identity assignment of a one-chunk level. Its
        // one chunk is the whole level's delta, so it stays out of the
        // decoded-chunk cache: that shares the level cache's entry and
        // byte budget, and a level-sized chunk would evict levels.
        let assignment = self.assignment(var, finer, &geometry, total);

        // Plan purely from the manifest's chunk index — no geometry
        // pass, no whole-object reads. Only the chunks whose recorded
        // bounding boxes intersect the region move; the decoded-chunk
        // cache answers revisited chunks with zero I/O.
        let mut cached: Vec<(u32, Arc<Vec<f64>>)> = Vec::new();
        let mut plan: Vec<(&BlockMeta, &ChunkEntry)> = Vec::new();
        for &b in &shards {
            for e in &b.chunks {
                if !chunk_bbox(e).intersects(&region) {
                    continue;
                }
                let hit = assignment
                    .as_ref()
                    .and_then(|_| self.chunk_cache_get(var, finer, e.chunk));
                match hit {
                    Some(values) => cached.push((e.chunk, values)),
                    None => plan.push((b, e)),
                }
            }
        }
        let mut payloads: Vec<(&BlockMeta, &ChunkEntry, Bytes)> = Vec::with_capacity(plan.len());
        for (b, e) in plan {
            let (bytes, io) = self.read_chunk_observed(b, e, ctx)?;
            timing.io_secs += io;
            stats.bytes_read += bytes.len() as u64;
            payloads.push((b, e, bytes));
        }
        // Decode the fetched chunks in parallel.
        let t = Instant::now();
        let decoded: DecodedChunks = payloads
            .par_iter()
            .map(|(b, e, bytes)| {
                let (values, _) = self.decode_stream(b, e.codec_id, e.elements, bytes, ctx)?;
                Ok((e.chunk, values))
            })
            .collect::<Result<_, CanopusError>>()?;
        timing.decompress_secs += t.elapsed().as_secs_f64();
        stats.chunks_read = decoded.len() + cached.len();
        stats.chunks_cached = cached.len();
        let (delta, exact) = match &assignment {
            // The one chunk is the level's whole delta, every vertex
            // exact; a region that misses it gets the estimate alone.
            None => match decoded.into_iter().next() {
                Some((_, delta)) => (delta, n),
                None => (vec![0.0; n], 0),
            },
            Some(assignment) => {
                let fetched = decoded.iter().map(|(chunk, v)| (*chunk, v.as_slice()));
                let held = cached.iter().map(|(chunk, v)| (*chunk, v.as_slice()));
                let placed = scatter(assignment, n, fetched.chain(held))?;
                for (chunk, values) in decoded {
                    self.chunk_cache_insert(var, finer, chunk, Arc::new(values));
                }
                placed
            }
        };
        stats.exact_vertices = exact;
        let coarse = Coarse::of_outcome(current);
        let (data, _, restore) = self.apply_delta(var, finer, &geometry, delta, &coarse)?;
        self.count_chunk_plan(&stats);
        timing.restore_secs += restore;
        self.obs.timer(names::READ_RESTORE).record_wall(restore);
        self.obs.counter(names::READ_REGION_REFINEMENTS).inc();
        self.obs.event_child(
            "read.region",
            ctx,
            vec![
                ("var".to_string(), FieldValue::from(var)),
                ("level".to_string(), FieldValue::from(finer as u64)),
                (
                    "chunks_read".to_string(),
                    FieldValue::from(stats.chunks_read as u64),
                ),
                (
                    "chunks_total".to_string(),
                    FieldValue::from(stats.chunks_total as u64),
                ),
            ],
        );
        timing.elapsed_secs = wall.elapsed().as_secs_f64();

        let refined = Restored {
            level: finer,
            geometry,
            data,
            timing,
        };
        let mut outcome = self.outcome(var, refined, ctx)?;
        // Exact only when every chunk was fetched (a region covering the
        // mesh, or a one-chunk level) on top of an already-exact field.
        outcome.level_exact = current.level_exact && stats.chunks_read == stats.chunks_total;
        Ok((outcome, stats))
    }

    /// Chunk-planning accounting of one region step: planned = the
    /// level's chunk population, fetched = chunks that moved bytes
    /// (cache-served chunks count as skipped I/O).
    fn count_chunk_plan(&self, stats: &RegionStats) {
        let fetched = (stats.chunks_read - stats.chunks_cached) as u64;
        self.obs
            .counter(names::READ_CHUNKS_PLANNED)
            .add(stats.chunks_total as u64);
        self.obs.counter(names::READ_CHUNKS_FETCHED).add(fetched);
        self.obs
            .counter(names::READ_CHUNKS_SKIPPED)
            .add(stats.chunks_total as u64 - fetched);
    }

    /// Restore straight to `target_level` (0 = full accuracy),
    /// accumulating phase timings across all steps — what Figs. 9b/10b/11b
    /// measure for `target_level = 0`.
    ///
    /// Consults the decoded-level cache first: an exact hit answers with
    /// zero I/O, and otherwise the walk ([`Self::restore_walk`]) starts
    /// from the nearest cached coarser level (or the base).
    pub fn read_level(&self, var: &str, target_level: u32) -> Result<ReadOutcome, CanopusError> {
        let n = self.num_levels();
        if target_level >= n {
            return Err(CanopusError::Invalid(format!(
                "level {target_level} out of range (N = {n})"
            )));
        }
        // The root of this call's span tree: every block fetch, decode
        // (the chunk-decode thread's included), restore, geometry load
        // (the loader thread's included) and retry/fault event of the
        // walk nests beneath it.
        let root = stage!(self.obs, "read", var = var, level = target_level);
        let ctx = root.context();
        let base_level = n - 1;
        if let Some(held) = self.held_level(var, target_level) {
            return Ok(held);
        }
        // One accounting event per call: a hit when any cached level —
        // the exact target or a coarser starting point — answers, a
        // single miss otherwise (the base read below skips its own
        // probe, so a miss is never counted twice). The probe classifies
        // exact-vs-coarser-vs-miss under a single cache lock, so the
        // decision and its accounting stay consistent under contention.
        let start = if self.level_cache.enabled() {
            match self.level_cache.probe(var, target_level, base_level) {
                // Held, but not whole: the walk that cached the level
                // only passed through it, so its coordinates are fetched
                // as it is handed out below.
                Probe::Exact(hit) => {
                    self.cache_hits.inc();
                    Restored::from_cached(target_level, &hit)
                }
                Probe::Coarser(level, hit) => {
                    self.cache_hits.inc();
                    Restored::from_cached(level, &hit)
                }
                Probe::Miss => {
                    self.cache_misses.inc();
                    self.restore_base(var, ctx)?
                }
            }
        } else {
            self.restore_base(var, ctx)?
        };
        if start.level == target_level {
            return self.outcome(var, start, ctx);
        }
        self.restore_walk(var, start, target_level, ctx)
    }

    /// Mark `outcome` as the degraded answer to a request for
    /// `target_level`: count it, emit a `read.degraded` event, and set
    /// the flags. The data itself is exact at `outcome.level` — only the
    /// *request* fell short.
    fn degrade(
        &self,
        var: &str,
        mut outcome: ReadOutcome,
        target_level: u32,
        cause: &CanopusError,
        parent: SpanContext,
    ) -> ReadOutcome {
        self.obs.counter(names::READ_DEGRADED_RESTORES).inc();
        self.obs.event_child(
            "read.degraded",
            parent,
            vec![
                ("var".to_string(), FieldValue::from(var)),
                (
                    "requested_level".to_string(),
                    FieldValue::from(target_level as u64),
                ),
                (
                    "achieved_level".to_string(),
                    FieldValue::from(outcome.level as u64),
                ),
                ("cause".to_string(), FieldValue::from(cause.to_string())),
            ],
        );
        outcome.achieved_level = outcome.level;
        outcome.degraded = true;
        outcome
    }

    /// Close a level walk: hand out the level it reached, marked
    /// degraded if a fault stopped it short of `target_level`.
    ///
    /// A walk that stopped short stands on a level it only meant to
    /// pass through, so that level's coordinates are fetched here. If
    /// they cannot be had either, the walk falls back on the level it
    /// started from — the base, read whole, or a cached level.
    fn finish_walk(
        &self,
        var: &str,
        walk: Walk,
        target_level: u32,
        mut fault: Option<CanopusError>,
        ctx: SpanContext,
    ) -> Result<ReadOutcome, CanopusError> {
        let Walk { cur, start } = walk;
        let timing = cur.timing;
        let outcome = match (self.outcome(var, cur, ctx), start) {
            (Ok(outcome), _) => outcome,
            (Err(e), Some(mut start)) if e.is_availability_fault() => {
                start.timing = timing;
                fault.get_or_insert(e);
                self.outcome(var, start, ctx)?
            }
            (Err(e), _) => return Err(e),
        };
        match fault {
            Some(cause) if outcome.level > target_level => {
                Ok(self.degrade(var, outcome, target_level, &cause, ctx))
            }
            _ => Ok(outcome),
        }
    }

    /// The level walk: from `start`, one [`Self::refine_step`] per
    /// level, coarse to fine, on the calling thread. Before each step it
    /// loads what the level's restore consumes of its geometry (see
    /// [`Self::geometry_need`]); every restored level enters the
    /// decoded-level cache.
    ///
    /// Beside it one **loader** thread
    /// ([`Self::load_geometry_off_thread`]) loads the target level's
    /// geometry whole from the start of the walk — the largest object a
    /// cold walk moves, and one that depends on nothing the walk
    /// computes — into arrays this thread allocated. The walk restores
    /// the target as soon as the loader has published its topology and
    /// waits for the coordinates only once the walk is done. The
    /// loader's result is the target level's geometry result: the walk
    /// never fetches what the loader set out to, and a walk that ends
    /// short of the target, or in an error, tells the loader to stop at
    /// its next fault.
    ///
    /// Fault-class failures that outlast the per-block retry budget —
    /// on a delta or on a level's geometry — end the walk at the finest
    /// level already restored, returned with [`ReadOutcome::degraded`]
    /// set (see [`Self::finish_walk`]) instead of an error.
    fn restore_walk(
        &self,
        var: &str,
        start: Restored,
        target_level: u32,
        ctx: SpanContext,
    ) -> Result<ReadOutcome, CanopusError> {
        let wall = Instant::now();
        let mut timing = start.timing;

        type WalkResult = Result<(Walk, Option<CanopusError>), CanopusError>;
        let walked = std::thread::scope(|s| -> WalkResult {
            // The longest job of a cold walk starts first.
            let mut loader = self.load_geometry_off_thread(s, var, target_level, ctx)?;
            let mut walk = Walk::new(start);
            let mut fault = None;
            for finer in (target_level..walk.cur.level).rev() {
                let (shards, chunks) = self.delta_shards(var, finer)?;
                let at_target = finer == target_level;
                let geometry = || match loader.as_mut().filter(|_| at_target) {
                    // Restoring the level needs less than handing it out.
                    Some(loader) => loader
                        .wait_for(self.geometry_need(chunks, false))
                        .map(|io| (Arc::clone(&loader.entry), io)),
                    None => self.geometry(var, finer, self.geometry_need(chunks, at_target), ctx),
                };
                let stepped = walk.cur.as_coarse().and_then(|coarse| {
                    let _span = stage_child!(self.obs, ctx, "restore", var = var, level = finer);
                    self.refine_step(var, &shards, &coarse, geometry, ctx)
                });
                let (geometry, data, delta_rms, step) = match stepped {
                    Ok(stepped) => stepped,
                    Err(e) if e.is_availability_fault() => {
                        fault = Some(e);
                        break;
                    }
                    Err(e) => return Err(e),
                };
                timing += step;
                self.cache_store(var, finer, &geometry, &data, delta_rms);
                walk.advance(Restored {
                    level: finer,
                    geometry,
                    data,
                    timing: PhaseTiming::default(),
                });
            }
            // The target is restored; handing it out takes the rest of
            // what the loader set out to load.
            if let Some(loader) = loader.as_mut().filter(|_| walk.cur.level == target_level) {
                timing.io_secs += loader.join()?;
            }
            Ok((walk, fault))
        });

        let (mut walk, fault) = walked?;
        timing.elapsed_secs += wall.elapsed().as_secs_f64();
        walk.cur.timing = timing;
        self.obs.counter(names::READ_WALKS).inc();
        self.finish_walk(var, walk, target_level, fault, ctx)
    }

    /// Conservative bounds on the values of `var` restored to `level`,
    /// computed from block metadata alone — no data I/O. The ADIOS-style
    /// query pushdown: `Estimate` is a convex combination of coarser
    /// values, so `range(l) ⊆ [range(l+1).min + delta_l.min,
    /// range(l+1).max + delta_l.max]`, seeded by the base block's exact
    /// min/max.
    pub fn value_bounds(&self, var: &str, level: u32) -> Result<(f64, f64), CanopusError> {
        let n = self.num_levels();
        if level >= n {
            return Err(CanopusError::Invalid(format!(
                "level {level} out of range (N = {n})"
            )));
        }
        let v = self.file.inq_var(var)?;
        let base = v
            .base()
            .ok_or_else(|| CanopusError::Invalid(format!("no base block of {var}")))?;
        let (mut lo, mut hi) = (base.min, base.max);
        for l in (level..n - 1).rev() {
            // Shard blocks carry the fold of their chunk bounds.
            let shards = v.delta_shards_to(l);
            if shards.is_empty() {
                return Err(CanopusError::Invalid(format!(
                    "no delta to level {l} of {var}"
                )));
            }
            let (dmin, dmax) = shards
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), c| {
                    (a.min(c.min), b.max(c.max))
                });
            lo += dmin;
            hi += dmax;
        }
        Ok((lo, hi))
    }

    /// Whether any value of `var` at `level` *may* fall inside
    /// `[lo, hi]`. `false` is definitive (the metadata bounds exclude the
    /// interval); `true` means "possibly — read to know". Lets analytics
    /// skip whole files/timesteps without touching their payloads.
    pub fn query_range(
        &self,
        var: &str,
        level: u32,
        lo: f64,
        hi: f64,
    ) -> Result<bool, CanopusError> {
        let (bmin, bmax) = self.value_bounds(var, level)?;
        Ok(bmax >= lo && bmin <= hi)
    }

    /// Start a progressive exploration session for `var`.
    pub fn progressive(
        &self,
        var: &str,
    ) -> Result<crate::progressive::ProgressiveReader<'_>, CanopusError> {
        crate::progressive::ProgressiveReader::start(self, var)
    }
}

/// The bounding box a chunk index entry records for its vertices.
fn chunk_bbox(e: &ChunkEntry) -> Aabb {
    Aabb::from_points([
        Point2::new(e.bbox[0], e.bbox[1]),
        Point2::new(e.bbox[2], e.bbox[3]),
    ])
}

/// The stream of chunk `e` inside `bytes`, the payload of shard `block`.
fn chunk_stream<'b>(
    block: &BlockMeta,
    e: &ChunkEntry,
    bytes: &'b [u8],
) -> Result<&'b [u8], CanopusError> {
    e.offset
        .checked_add(e.len)
        .filter(|&end| end <= bytes.len() as u64)
        .map(|end| &bytes[e.offset as usize..end as usize])
        .ok_or_else(|| {
            CanopusError::Invalid(format!(
                "shard {} chunk {} range {}+{} exceeds payload of {} B",
                block.key,
                e.chunk,
                e.offset,
                e.len,
                bytes.len()
            ))
        })
}

/// The root mean square of `n` values whose squares sum to `squares`;
/// 0 for none.
fn rms(squares: f64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        (squares / n as f64).sqrt()
    }
}

/// A delta's decoded chunks: each chunk's index and values.
type DecodedChunks = Vec<(u32, Vec<f64>)>;

/// What one refinement step returns: the finer level's geometry and
/// data, its delta's RMS, and the step's phase rows.
type Refined = (Arc<LevelGeometry>, Arc<Vec<f64>>, f64, PhaseTiming);

/// Put decoded chunks' values at their vertices by the level's chunk →
/// vertex-id table ([`spatial_chunks`]). Returns the delta of a level
/// of `n` vertices, 0 at every vertex no chunk holds, and how many
/// vertices the chunks hold.
fn scatter<'v>(
    assignment: &[Vec<u32>],
    n: usize,
    chunks: impl Iterator<Item = (u32, &'v [f64])>,
) -> Result<(Vec<f64>, usize), CanopusError> {
    let mut delta = vec![0.0; n];
    let mut exact = vec![false; n];
    for (chunk, values) in chunks {
        let ids = chunk_vertices(assignment, chunk, values.len())?;
        for (&vid, &val) in ids.iter().zip(values) {
            delta[vid as usize] = val;
            exact[vid as usize] = true;
        }
    }
    Ok((delta, exact.iter().filter(|&&e| e).count()))
}

/// The vertex ids chunk `chunk` of a level holds, in stream order, by
/// the level's chunk → vertex-id table ([`spatial_chunks`]), checked
/// against the `values` its stream decoded to.
fn chunk_vertices(
    assignment: &[Vec<u32>],
    chunk: u32,
    values: usize,
) -> Result<&[u32], CanopusError> {
    let ids = assignment.get(chunk as usize).ok_or_else(|| {
        CanopusError::Invalid(format!(
            "chunk {chunk} beyond the {}-chunk assignment",
            assignment.len()
        ))
    })?;
    if values != ids.len() {
        return Err(CanopusError::Invalid(format!(
            "chunk {chunk} decoded {values} values for {} vertices",
            ids.len()
        )));
    }
    Ok(ids)
}

/// A level's geometry being loaded, whole, off the calling thread
/// ([`CanopusReader::load_geometry_off_thread`]). Its result *is* the
/// level's geometry result: while it runs every other claimant of the
/// entry waits for it, and nobody repeats a fetch it gave up on. Dropped
/// unjoined — its walk ended short of the level, or failed — it tells
/// the thread to return its next fault instead of retrying; the scope
/// joins it.
struct GeometryLoad<'scope> {
    entry: Arc<LevelGeometry>,
    /// Whether the entry's topology is the loader's to publish (else it
    /// was held already, and only the coordinates are being fetched).
    publishes_topology: bool,
    stop: Arc<AtomicBool>,
    thread: Option<ScopedJoinHandle<'scope, Result<f64, CanopusError>>>,
}

impl GeometryLoad<'_> {
    /// Wait until the entry holds what `need` asks for, or the load has
    /// failed. A walk that needs the topology alone goes on the moment
    /// the loader publishes it. If the loader fetches only coordinates,
    /// there is nothing to go ahead with that could not still fault, so
    /// the load is joined: a fault then ends the walk before this level
    /// is restored, as the calling thread's own fetch would have.
    /// Returns the load's simulated I/O seconds if this joined it.
    fn wait_for(&mut self, need: Need) -> Result<f64, CanopusError> {
        if need == Need::Topology && self.publishes_topology && self.entry.wait(need) {
            return Ok(0.0);
        }
        self.join()
    }

    /// The load's result: its simulated I/O seconds, once.
    fn join(&mut self) -> Result<f64, CanopusError> {
        match self.thread.take() {
            Some(thread) => thread
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            None => Ok(0.0),
        }
    }
}

impl Drop for GeometryLoad<'_> {
    fn drop(&mut self) {
        // The flag guards no data: it only ends the loader's retries.
        self.stop.store(true, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CanopusConfig, RelativeCodec};
    use crate::write::{spatial_chunks, Canopus};
    use canopus_mesh::generators::{jitter_interior, rectangle_mesh};
    use canopus_mesh::geometry::{Aabb, Point2};
    use canopus_storage::{FaultPlan, StorageHierarchy, TierSpec};
    use std::sync::Arc;

    fn setup(codec: RelativeCodec) -> (Canopus, TriMesh, Vec<f64>) {
        let h = Arc::new(StorageHierarchy::new(vec![
            TierSpec::new("fast", 1 << 20, 1e9, 1e9, 1e-6),
            TierSpec::new("slow", 1 << 26, 1e7, 1e7, 1e-3),
        ]));
        let c = Canopus::new(
            h,
            CanopusConfig {
                codec,
                ..Default::default()
            },
        );
        let mesh = jitter_interior(
            &rectangle_mesh(
                16,
                16,
                Aabb::from_points([Point2::new(0.0, 0.0), Point2::new(1.0, 1.0)]),
            ),
            0.2,
            9,
        );
        let data: Vec<f64> = mesh
            .points()
            .iter()
            .map(|p| (p.x * 9.0).sin() + (p.y * 5.0).cos() * 0.5)
            .collect();
        (c, mesh, data)
    }

    /// `level` of `v` in `t.bp` restored one step at a time on the
    /// calling thread: the base, then a whole-domain `refine_region`
    /// per level, with no cache — the walk's reference.
    fn stepwise(c: &Canopus, level: u32) -> ReadOutcome {
        let reader = c.open("t.bp").unwrap().with_level_cache(0);
        let everywhere = Aabb::from_points([
            Point2::new(f64::MIN, f64::MIN),
            Point2::new(f64::MAX, f64::MAX),
        ]);
        let mut out = reader.read_base("v").unwrap();
        while out.level > level {
            out = reader.refine_region("v", &out, everywhere).unwrap().0;
        }
        out
    }

    #[test]
    fn full_restore_respects_codec_bound() {
        let rel = 1e-6;
        let (c, mesh, data) = setup(RelativeCodec::ZfpLike { rel_tolerance: rel });
        c.write("t.bp", "v", &mesh, &data).unwrap();
        let reader = c.open("t.bp").unwrap();
        let out = reader.read_level("v", 0).unwrap();
        assert_eq!(out.level, 0);
        assert_eq!(out.data.len(), data.len());
        let range = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - data.iter().cloned().fold(f64::INFINITY, f64::min);
        // Errors accumulate across base + 2 deltas: 3x the bound is safe.
        let bound = 3.0 * rel * range;
        let max_err = out
            .data
            .iter()
            .zip(&data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_err <= bound, "err {max_err} > {bound}");
    }

    #[test]
    fn base_read_is_small_and_fast() {
        let (c, mesh, data) = setup(RelativeCodec::ZfpLike {
            rel_tolerance: 1e-6,
        });
        c.write("t.bp", "v", &mesh, &data).unwrap();
        let reader = c.open("t.bp").unwrap();
        let base = reader.read_base("v").unwrap();
        assert_eq!(base.level, 2);
        assert!(base.data.len() < data.len() / 3);
        let full = reader.read_level("v", 0).unwrap();
        assert!(
            full.timing.io_secs > base.timing.io_secs,
            "full restore reads more bytes from slower tiers"
        );
    }

    #[test]
    fn refine_steps_walk_levels() {
        let (c, mesh, data) = setup(RelativeCodec::ZfpLike {
            rel_tolerance: 1e-6,
        });
        c.write("t.bp", "v", &mesh, &data).unwrap();
        let reader = c.open("t.bp").unwrap();
        let base = reader.read_base("v").unwrap();
        let (mid, rms1) = reader.refine_once("v", &base).unwrap();
        assert_eq!(mid.level, 1);
        assert!(rms1 > 0.0);
        let (full, _) = reader.refine_once("v", &mid).unwrap();
        assert_eq!(full.level, 0);
        assert!(reader.refine_once("v", &full).is_err());
    }

    #[test]
    fn raw_codec_roundtrips_exactly_through_storage() {
        let (c, mesh, data) = setup(RelativeCodec::Raw);
        c.write("t.bp", "v", &mesh, &data).unwrap();
        let reader = c.open("t.bp").unwrap();
        let out = reader.read_level("v", 0).unwrap();
        let max_err = out
            .data
            .iter()
            .zip(&data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        // Raw products only accumulate restoration rounding.
        assert!(max_err < 1e-12, "err {max_err}");
    }

    #[test]
    fn sz_codec_end_to_end() {
        let (c, mesh, data) = setup(RelativeCodec::SzLike {
            rel_error_bound: 1e-5,
        });
        c.write("t.bp", "v", &mesh, &data).unwrap();
        let reader = c.open("t.bp").unwrap();
        let out = reader.read_level("v", 0).unwrap();
        let range = 2.0; // field spans roughly [-1.5, 1.5]
        let max_err = out
            .data
            .iter()
            .zip(&data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_err <= 3.0 * 1e-5 * range * 2.0, "err {max_err}");
    }

    #[test]
    fn stored_geometry_is_the_writers_through_every_read_path() {
        let (c, mesh, data) = setup(RelativeCodec::Fpc);
        c.write("t.bp", "v", &mesh, &data).unwrap();
        // What the writer decimated and mapped, rebuilt in memory.
        let h = canopus_refactor::LevelHierarchy::build(&mesh, &data, c.config().refactor);
        let base = h.num_levels() - 1;
        let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let open = || c.open("t.bp").unwrap().with_level_cache(0);
        // A cold `read_base` loads the geometry on its second thread,
        // the repeat takes it from the geometry cache.
        let reader = open();
        for pass in ["cold", "warm"] {
            let out = reader.read_base("v").unwrap();
            assert_eq!(out.mesh, h.levels[base as usize].mesh, "{pass} base");
            assert_eq!(bits(&out.data), bits(&h.base().data), "{pass} base");
        }
        for level in 0..=base {
            // Each walk on a reader of its own: every level's geometry
            // comes off the tier.
            let reader = open();
            let out = reader.read_level("v", level).unwrap();
            assert_eq!(out.mesh, h.levels[level as usize].mesh, "L{level}");
            // Lossless deltas: the restored bits are the in-memory
            // chain's exactly when every mapping on the way is.
            assert_eq!(bits(&out.data), bits(&h.restore_to(level)), "L{level}");
            let (geometry, _) = reader
                .geometry("v", level, Need::Whole, SpanContext::none())
                .unwrap();
            assert_eq!(geometry.mesh().unwrap(), h.levels[level as usize].mesh);
            let mapping = h.mappings.get(level as usize).cloned().unwrap_or_default();
            let stored = &geometry.topology().unwrap().mapping;
            assert_eq!(stored, &mapping, "L{level} mapping");
        }
        // One step at a time, on the calling thread: `refine_once` and a
        // whole-domain `refine_region` hand out the same levels.
        let reader = open();
        let mut once = reader.read_base("v").unwrap();
        while once.level > 0 {
            once = reader.refine_once("v", &once).unwrap().0;
            let region = stepwise(&c, once.level);
            for (how, out) in [("refine_once", &once), ("refine_region", &region)] {
                let level = out.level as usize;
                assert_eq!(out.mesh, h.levels[level].mesh, "{how} L{level}");
                assert_eq!(bits(&out.data), bits(&h.restore_to(out.level)), "{how}");
            }
        }

        // A walk only passes through the levels between the base and its
        // target, and loads no coordinates there; a later read that hands
        // such a level out — off the level cache, or by walking again —
        // completes the same shared entry, once.
        let reader = c.open("t.bp").unwrap();
        reader.read_level("v", 0).unwrap();
        let passed = 1;
        let entry = |need| {
            let cached = reader
                .meta_cache
                .lock()
                .get(&("v".to_string(), passed))
                .cloned();
            cached.is_some_and(|g| g.holds(need))
        };
        assert!(entry(Need::Topology) && !entry(Need::Whole));
        let coordinates = || reader.obs.counter(names::READ_COORDINATE_BYTES).get();
        let (before, io) = (
            coordinates(),
            reader.obs.counter(names::READ_BYTES_IO).get(),
        );
        let hit = reader.read_level("v", passed).unwrap();
        assert_eq!(hit.mesh, h.levels[passed as usize].mesh, "hit");
        assert_eq!(bits(&hit.data), bits(&h.restore_to(passed)), "hit");
        let section = reader
            .file
            .inq_var("v")
            .unwrap()
            .metadata_for(passed)
            .and_then(|b| b.section(GeometrySection::Coordinates))
            .unwrap()
            .len;
        assert_eq!(coordinates() - before, section, "one section");
        assert_eq!(
            reader.obs.counter(names::READ_BYTES_IO).get() - io,
            section,
            "and nothing else"
        );
        assert!(entry(Need::Whole));
        let again = reader.read_level("v", passed).unwrap();
        assert_eq!(again.mesh, hit.mesh, "again");
        assert_eq!(coordinates() - before, section, "fetched once");

        // The hit and the repeat are the cache's own arrays, so a caller
        // that wants to write takes a copy — and what it writes there is
        // not what the next hit is served.
        assert!(Arc::ptr_eq(&again.data, &hit.data));
        assert!(std::ptr::eq(again.mesh.points(), hit.mesh.points()));
        let mut scribbled = again.into_data();
        scribbled.fill(f64::NAN);
        let later = reader.read_level("v", passed).unwrap();
        assert!(Arc::ptr_eq(&later.data, &hit.data));
        assert_eq!(
            bits(&later.data),
            bits(&h.restore_to(passed)),
            "after a caller's writes"
        );
    }

    #[test]
    fn invalid_level_and_var_error() {
        let (c, mesh, data) = setup(RelativeCodec::Raw);
        c.write("t.bp", "v", &mesh, &data).unwrap();
        let reader = c.open("t.bp").unwrap();
        assert!(reader.read_level("v", 9).is_err());
        assert!(reader.read_base("nope").is_err());
    }

    /// A file whose deltas are split into spatial chunks, so region
    /// refinement can fetch a strict subset.
    fn chunked_setup() -> (Canopus, TriMesh, Vec<f64>) {
        let h = Arc::new(StorageHierarchy::new(vec![
            TierSpec::new("fast", 1 << 20, 1e9, 1e9, 1e-6),
            TierSpec::new("slow", 1 << 26, 1e7, 1e7, 1e-3),
        ]));
        let c = Canopus::new(
            h,
            CanopusConfig {
                codec: RelativeCodec::Raw,
                delta_chunks: 8,
                ..Default::default()
            },
        );
        let mesh = jitter_interior(
            &rectangle_mesh(
                24,
                24,
                Aabb::from_points([Point2::new(0.0, 0.0), Point2::new(1.0, 1.0)]),
            ),
            0.2,
            9,
        );
        let data: Vec<f64> = mesh
            .points()
            .iter()
            .map(|p| (p.x * 9.0).sin() + (p.y * 5.0).cos() * 0.5)
            .collect();
        c.write("t.bp", "v", &mesh, &data).unwrap();
        (c, mesh, data)
    }

    /// A corner window intersecting only some of the 8 chunks.
    fn corner_window(mesh: &TriMesh) -> Aabb {
        let bb = mesh.aabb();
        Aabb::from_points([
            bb.min,
            Point2::new(
                bb.min.x + (bb.max.x - bb.min.x) * 0.2,
                bb.min.y + (bb.max.y - bb.min.y) * 0.2,
            ),
        ])
    }

    #[test]
    fn a_levels_chunk_assignment_is_sorted_once_while_cached() {
        let (c, mesh, _) = chunked_setup();
        let reader = c.open("t.bp").unwrap();
        let base = reader.read_base("v").unwrap();
        let finer = base.level - 1;
        let table = || {
            let (_, chunks) = reader.delta_shards("v", finer).unwrap();
            assert!(chunks > 1);
            reader.level_cache.get_assignment("v", finer)
        };
        assert!(table().is_none(), "no step has needed it yet");
        let window = corner_window(&mesh);
        let (first, _) = reader.refine_region("v", &base, window).unwrap();
        let kept = table().expect("the first step keeps the table");
        let (second, _) = reader.refine_region("v", &base, window).unwrap();
        let again = table().expect("still cached");
        assert!(Arc::ptr_eq(&kept, &again), "the second step re-sorted");
        assert_eq!(first.data, second.data);
        // The table is the writer's partition of the level.
        let (geometry, _) = reader
            .geometry("v", finer, Need::Whole, SpanContext::none())
            .unwrap();
        assert_eq!(
            *kept,
            spatial_chunks(geometry.points().unwrap(), kept.len() as u32).unwrap()
        );
        // One-chunk levels keep the identity assignment.
        assert!(reader.assignment("v", finer, &geometry, 1).is_none());
        // Without a cache every step sorts the table afresh.
        let uncached = c.open("t.bp").unwrap().with_level_cache(0);
        let base = uncached.read_base("v").unwrap();
        let (third, _) = uncached.refine_region("v", &base, window).unwrap();
        assert_eq!(third.data, first.data);
        assert!(uncached.level_cache.get_assignment("v", finer).is_none());
    }

    #[test]
    fn mixed_accuracy_region_results_never_enter_the_cache() {
        let (c, mesh, _) = chunked_setup();
        // Ground truth from a cache-less stepwise restore.
        let reference = stepwise(&c, 0);

        let reader = c.open("t.bp").unwrap(); // cache on by default
        let base = reader.read_base("v").unwrap();
        assert!(base.level_exact);
        let (roi, stats) = reader
            .refine_region("v", &base, corner_window(&mesh))
            .unwrap();
        assert!(
            stats.chunks_read < stats.chunks_total,
            "window must hit a strict chunk subset ({stats:?})"
        );
        assert!(
            !roi.level_exact,
            "partial region results are mixed accuracy"
        );

        // Refine the mixed field down to L0; the results stay mixed and
        // must not be stored as the canonical levels.
        let (mixed, _) = reader.refine_once("v", &roi).unwrap();
        assert_eq!(mixed.level, 0);
        assert!(!mixed.level_exact, "the mix is inherited");

        // A canonical read afterwards restores the exact field.
        let canonical = reader.read_level("v", 0).unwrap();
        assert!(canonical.level_exact);
        assert_eq!(
            canonical.data, reference.data,
            "cache must not have been contaminated by the region walk"
        );
    }

    #[test]
    fn refining_a_mixed_field_ignores_the_canonical_cache_entry() {
        let (c, mesh, _) = chunked_setup();
        let reader = c.open("t.bp").unwrap();
        // Populate the cache with the canonical levels first.
        let full = reader.read_level("v", 0).unwrap();

        let base = reader.read_base("v").unwrap();
        let (roi, stats) = reader
            .refine_region("v", &base, corner_window(&mesh))
            .unwrap();
        assert!(stats.chunks_read < stats.chunks_total);
        let (refined, _) = reader.refine_once("v", &roi).unwrap();
        assert!(
            !refined.level_exact,
            "a cached canonical hit must not replace the caller's mixed field"
        );
        assert_ne!(
            refined.data, full.data,
            "the refinement applies to the mixed input, not the cached level"
        );
    }

    #[test]
    fn cache_accounting_is_symmetric() {
        let (c, mesh, data) = setup(RelativeCodec::Raw);
        c.write("t.bp", "v", &mesh, &data).unwrap();
        let reader = c.open("t.bp").unwrap(); // cache on
        let counts = || {
            (
                reader.metrics().counter(names::READ_CACHE_HITS).get(),
                reader.metrics().counter(names::READ_CACHE_MISSES).get(),
            )
        };

        reader.read_base("v").unwrap();
        assert_eq!(counts(), (0, 1), "cold base read: one probe, one miss");
        reader.read_base("v").unwrap();
        assert_eq!(counts(), (1, 1), "warm base read: one hit");
        reader.read_level("v", 2).unwrap();
        assert_eq!(counts(), (2, 1), "cached exact target: one hit, no miss");
        reader.read_level("v", 1).unwrap();
        assert_eq!(counts(), (3, 1), "coarser start found: one hit, no miss");
        reader.read_level("v", 0).unwrap();
        assert_eq!(counts(), (4, 1), "coarser start again: one hit");
        reader.read_level("v", 0).unwrap();
        assert_eq!(counts(), (5, 1), "warm exact target: one hit");
    }

    #[test]
    fn transient_faults_retry_to_byte_identical_results() {
        let (c, mesh, data) = setup(RelativeCodec::Raw);
        c.write("t.bp", "v", &mesh, &data).unwrap();
        let clean = stepwise(&c, 0);

        // Open before arming: arming faults also exposes the manifest
        // read (which has no retry loop) to injection.
        let reader = c.open("t.bp").unwrap().with_level_cache(0);
        c.hierarchy().set_fault_plan_all(FaultPlan {
            seed: 7,
            get_error_p: 0.25,
            ..FaultPlan::none()
        });

        let out = reader.read_level("v", 0).unwrap();
        assert!(!out.degraded, "transients within budget never degrade");
        assert_eq!(out.level, 0);
        assert_eq!(out.achieved_level, 0);
        assert_eq!(
            out.data, clean.data,
            "restored bytes identical to the fault-free run"
        );
        let m = c.metrics();
        assert!(
            m.counter(names::READ_RETRIES).get() > 0,
            "the walk must actually have retried"
        );
        assert!(m.counter(names::READ_FAULTS_INJECTED).get() > 0);
        assert_eq!(m.counter(names::READ_DEGRADED_RESTORES).get(), 0);
    }

    #[test]
    fn tier_down_past_retry_budget_degrades_instead_of_erroring() {
        let (c, mesh, data) = setup(RelativeCodec::Raw);
        c.write("t.bp", "v", &mesh, &data).unwrap();
        let base_level = 2;
        let clean: Vec<_> = (0..=base_level).map(|l| stepwise(&c, l)).collect();
        let reader = c.open("t.bp").unwrap().with_level_cache(0);
        // The slow tier — holding the fine deltas — goes hard down for
        // good; retries cannot cure it.
        c.hierarchy()
            .set_fault_plan(
                1,
                FaultPlan {
                    seed: 1,
                    down: Some((0, u64::MAX)),
                    ..FaultPlan::none()
                },
            )
            .unwrap();

        let out = reader.read_level("v", 0).unwrap();
        assert!(out.degraded, "unreachable levels degrade, never error");
        assert!(out.level > 0, "the full-accuracy level was unreachable");
        assert_eq!(out.achieved_level, out.level);
        assert!(out.level_exact, "the achieved level itself is exact");
        assert_eq!(
            out.data, clean[out.level as usize].data,
            "degraded result is byte-identical to a clean read of the \
             achieved level"
        );
        assert_eq!(c.metrics().counter(names::READ_DEGRADED_RESTORES).get(), 1);
    }

    #[test]
    fn unrefactored_file_reads_back() {
        let (c, mesh, data) = setup(RelativeCodec::Raw);
        c.write_unrefactored("raw.bp", "v", &mesh, &data).unwrap();
        let reader = c.open("raw.bp").unwrap();
        assert_eq!(reader.num_levels(), 1);
        let out = reader.read_level("v", 0).unwrap();
        assert_eq!(*out.data, data);
        assert_eq!(out.timing.restore_secs, 0.0);
    }
}
