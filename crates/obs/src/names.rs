//! Canonical metric names.
//!
//! Every layer that records into the shared registry goes through these
//! constants/builders so snapshots, tests, and the CLI agree on
//! spelling. Naming scheme: `<layer>.<subsystem>.<quantity>`, with
//! per-instance segments (tier index, codec name) in the middle.

// ---- core write path (timers) ---------------------------------------
pub const WRITE_DECIMATE: &str = "canopus.write.decimate";
pub const WRITE_DELTA: &str = "canopus.write.delta";
pub const WRITE_COMPRESS: &str = "canopus.write.compress";
pub const WRITE_IO: &str = "canopus.write.io";
pub const WRITE_TOTAL: &str = "canopus.write.total";

// ---- core write path (counters) -------------------------------------
pub const WRITE_BYTES_RAW: &str = "canopus.write.bytes_raw";
pub const WRITE_BYTES_STORED: &str = "canopus.write.bytes_stored";
/// Encoded bytes of the level-geometry (`Metadata`) products: meshes and
/// mappings, which `bytes_stored` leaves out.
pub const WRITE_GEOMETRY_BYTES: &str = "canopus.write.geometry_bytes";
pub const WRITE_PRODUCTS: &str = "canopus.write.products";
pub const WRITES: &str = "canopus.write.calls";

// ---- core write path: level-streaming pipeline -----------------------
/// Gauge: level jobs currently sitting in the bounded refactor→compress
/// queue (decimated levels waiting for a compression worker).
pub const WRITE_STAGE_DEPTH: &str = "canopus.write.stage_depth";
/// Gauge: deepest the bounded level-job queue ever got.
pub const WRITE_STAGE_DEPTH_PEAK: &str = "canopus.write.stage_depth_peak";
/// Timer: per-stage overlap reclaimed by the write pipeline — the amount
/// by which the sum of compute-phase times (decimate + delta + compress)
/// exceeds the measured wall clock of a pipelined write, clamped at
/// zero. Recorded once per refactored `write`.
pub const WRITE_OVERLAP: &str = "canopus.write.overlap_secs";

// ---- core read path --------------------------------------------------
pub const READ_IO: &str = "canopus.read.io";
pub const READ_DECOMPRESS: &str = "canopus.read.decompress";
pub const READ_RESTORE: &str = "canopus.read.restore";
/// Timer: unpacking a fetched geometry object or section into a level's
/// point, triangle and mapping arrays — on a cold walk mostly the loader
/// thread's time, so it is not one of the three phases above.
pub const READ_GEOMETRY_PARSE: &str = "canopus.read.geometry_parse";
pub const READ_BYTES_IO: &str = "canopus.read.bytes_io";
/// The part of `bytes_io` that was level geometry (`Metadata` blocks).
pub const READ_GEOMETRY_BYTES: &str = "canopus.read.geometry_bytes";
/// The part of `geometry_bytes` that was vertex coordinates: fetched for
/// the levels a read hands out as meshes, not for those a walk with the
/// mean estimator only passes through.
pub const READ_COORDINATE_BYTES: &str = "canopus.read.coordinate_bytes";
pub const READ_VALUES_DECODED: &str = "canopus.read.values_decoded";
pub const READ_BLOCKS: &str = "canopus.read.blocks";
pub const READ_REFINEMENTS: &str = "canopus.read.refinements";
pub const READ_REGION_REFINEMENTS: &str = "canopus.read.region_refinements";

// ---- core read path: sharded spatial chunk pruning -------------------
/// Counter: spatial chunks a region/restore plan considered (the level
/// totals — what a whole-level read would have fetched).
pub const READ_CHUNKS_PLANNED: &str = "canopus.read.chunks_planned";
/// Counter: spatial chunks actually fetched (ranged shard reads).
pub const READ_CHUNKS_FETCHED: &str = "canopus.read.chunks_fetched";
/// Counter: planned chunks pruned away because their bounding box
/// missed the requested region (or their values were already cached).
pub const READ_CHUNKS_SKIPPED: &str = "canopus.read.chunks_skipped";

// ---- core read path: decoded-level cache + level walks -------------
pub const READ_CACHE_HITS: &str = "canopus.read.cache_hits";
pub const READ_CACHE_MISSES: &str = "canopus.read.cache_misses";
/// Counter: level walks — `read_level` calls that restored at least one
/// level step (a cache hit on the target, or a read of the base alone,
/// walks nowhere).
pub const READ_WALKS: &str = "canopus.read.walks";

// ---- core read path: fault recovery ----------------------------------
/// Counter: block fetches retried after a transient fault.
pub const READ_RETRIES: &str = "canopus.read.retries";
/// Counter: faults the read engine observed (every failed or corrupted
/// fetch attempt, before retry/degradation decides the outcome).
pub const READ_FAULTS_INJECTED: &str = "canopus.read.faults_injected";
/// Counter: fetched blocks whose payload failed manifest checksum
/// verification (corruption treated as a retryable fault).
pub const READ_CHECKSUM_FAILURES: &str = "canopus.read.checksum_failures";
/// Counter: restores that exhausted the retry budget for some level and
/// returned a coarser-than-requested result instead of an error.
pub const READ_DEGRADED_RESTORES: &str = "canopus.read.degraded_restores";

// ---- serving layer ---------------------------------------------------
/// Counter: requests admitted into the service queue (all classes).
pub const SERVE_REQUESTS: &str = "canopus.serve.requests";
/// Counter: requests completed successfully (all classes).
pub const SERVE_COMPLETED: &str = "canopus.serve.completed";
/// Counter: requests that completed with an error (all classes).
pub const SERVE_FAILED: &str = "canopus.serve.failed";
/// Counter: requests refused at admission (queue closed by shutdown).
pub const SERVE_REJECTED: &str = "canopus.serve.rejected";
/// Gauge: requests currently waiting in the bounded admission queue.
pub const SERVE_QUEUE_DEPTH: &str = "canopus.serve.queue_depth";
/// Gauge: deepest the admission queue ever got.
pub const SERVE_QUEUE_DEPTH_PEAK: &str = "canopus.serve.queue_depth_peak";
/// Gauge: requests currently being executed by a worker.
pub const SERVE_INFLIGHT: &str = "canopus.serve.inflight";
/// Gauge: high-water mark of concurrently executing requests.
pub const SERVE_INFLIGHT_PEAK: &str = "canopus.serve.inflight_peak";

/// Counter: requests admitted for one priority class (`quick` / `full`).
pub fn serve_requests(class: &str) -> String {
    format!("canopus.serve.requests.{class}")
}

/// Counter: completions for one priority class.
pub fn serve_completed(class: &str) -> String {
    format!("canopus.serve.completed.{class}")
}

/// Counter: dequeues for one priority class (a worker picked the
/// request up; completion may still be in flight).
pub fn serve_dequeued(class: &str) -> String {
    format!("canopus.serve.dequeued.{class}")
}

/// Counter: requests of one priority class answered on arrival: from
/// the open reader's caches, on the submitting thread, without entering
/// the admission queue. Once the queue has drained,
/// `requests = dequeued + on_arrival` per class.
pub fn serve_on_arrival(class: &str) -> String {
    format!("canopus.serve.on_arrival.{class}")
}

/// Histogram (wall): time a request of one priority class waited in the
/// admission queue before a worker picked it up.
pub fn serve_queue_wait_hist(class: &str) -> String {
    format!("canopus.serve.queue_wait.{class}.wall")
}

/// Histogram (wall): end-to-end latency (queue wait + service) of one
/// priority class.
pub fn serve_latency_hist(class: &str) -> String {
    format!("canopus.serve.latency.{class}.wall")
}

// ---- serving layer: SLO accounting -----------------------------------
/// Counter: completions of one class that finished strictly before
/// their deadline.
pub fn serve_deadline_hit(class: &str) -> String {
    format!("canopus.serve.deadline_hit.{class}")
}

/// Counter: completions of one class that finished at or past their
/// deadline (a zero deadline budget therefore always misses).
pub fn serve_deadline_miss(class: &str) -> String {
    format!("canopus.serve.deadline_miss.{class}")
}

/// Gauge: cumulative deadline attainment of one class in parts per
/// million (`hits * 1e6 / (hits + misses)`). Only maintained while the
/// live telemetry plane is enabled — the disabled serve hot path pays a
/// single atomic load for the check.
pub fn serve_attainment_ppm(class: &str) -> String {
    format!("canopus.serve.attainment_ppm.{class}")
}

/// Gauge: serve worker threads currently alive (each worker decrements
/// on exit; `/healthz` liveness).
pub const SERVE_WORKERS_ALIVE: &str = "canopus.serve.workers_alive";
/// Counter: HTTP scrape requests the telemetry endpoint answered (any
/// route, including 404s).
pub const TELEMETRY_SCRAPES: &str = "canopus.telemetry.scrapes";

// ---- latency histograms ----------------------------------------------
// Histogram names live in their own instrument map; the `.wall`/`.sim`
// suffix convention marks which clock a distribution measures.

/// Histogram (wall): decode time of one block / chunk-framed stream.
pub const READ_DECODE_HIST: &str = "canopus.read.decode_block.wall";
/// Histogram (wall): backoff slept before each fault retry.
pub const READ_RETRY_BACKOFF_HIST: &str = "canopus.read.retry_backoff.wall";
/// Histogram (wall): one ranged chunk fetch off a shard object.
pub const READ_CHUNK_FETCH_HIST: &str = "canopus.read.chunk_fetch.wall";
/// Histogram (wall): time a level job waited in the bounded write
/// pipeline queue before a worker picked it up.
pub const WRITE_QUEUE_WAIT_HIST: &str = "canopus.write.queue_wait.wall";
/// Histogram (wall): time a finished block waited in a tier's
/// write-behind queue before its device put started.
pub const WRITEBACK_QUEUE_WAIT_HIST: &str = "storage.writeback.queue_wait.wall";

/// Histogram (wall): measured device-op latency of one tier read.
pub fn tier_read_latency_wall(tier: usize) -> String {
    format!("storage.tier.{tier}.read_latency.wall")
}

/// Histogram (sim): modelled device-op latency of one tier read.
pub fn tier_read_latency_sim(tier: usize) -> String {
    format!("storage.tier.{tier}.read_latency.sim")
}

/// Histogram (wall): measured device-op latency of one tier write.
pub fn tier_write_latency_wall(tier: usize) -> String {
    format!("storage.tier.{tier}.write_latency.wall")
}

/// Histogram (sim): modelled device-op latency of one tier write.
pub fn tier_write_latency_sim(tier: usize) -> String {
    format!("storage.tier.{tier}.write_latency.sim")
}

// ---- campaign layer --------------------------------------------------
pub const CAMPAIGN_QUERIES: &str = "canopus.campaign.queries";
pub const CAMPAIGN_QUERY_TIMER: &str = "canopus.campaign.query";
pub const CAMPAIGN_WRITES: &str = "canopus.campaign.writes";

// ---- storage hierarchy ----------------------------------------------
/// Gauge: reads currently being served by any tier (concurrent callers).
pub const STORAGE_INFLIGHT_READS: &str = "storage.read.inflight";
/// Gauge: high-water mark of concurrently served reads — evidence that
/// the restore pipeline actually overlaps tier fetches.
pub const STORAGE_INFLIGHT_READS_PEAK: &str = "storage.read.inflight_peak";

pub fn tier_bytes_read(tier: usize) -> String {
    format!("storage.tier.{tier}.bytes_read")
}

pub fn tier_bytes_written(tier: usize) -> String {
    format!("storage.tier.{tier}.bytes_written")
}

pub fn tier_reads(tier: usize) -> String {
    format!("storage.tier.{tier}.reads")
}

pub fn tier_writes(tier: usize) -> String {
    format!("storage.tier.{tier}.writes")
}

pub fn tier_read_timer(tier: usize) -> String {
    format!("storage.tier.{tier}.read")
}

pub fn tier_write_timer(tier: usize) -> String {
    format!("storage.tier.{tier}.write")
}

/// Counter: faults tier `tier`'s `FaultPlan` injected (transient
/// errors, corrupted payloads and down-window rejections combined).
pub fn tier_faults(tier: usize) -> String {
    format!("storage.tier.{tier}.faults_injected")
}

/// Gauge: blocks queued behind tier `tier`'s write-behind worker
/// (decided a placement, bytes not yet on the device).
pub fn writeback_occupancy(tier: usize) -> String {
    format!("storage.writeback.tier.{tier}.occupancy")
}

/// Gauge: high-water mark of [`writeback_occupancy`].
pub fn writeback_occupancy_peak(tier: usize) -> String {
    format!("storage.writeback.tier.{tier}.occupancy_peak")
}

pub fn placements_on_tier(tier: usize) -> String {
    format!("storage.placement.tier.{tier}")
}

pub fn placement_bytes_on_tier(tier: usize) -> String {
    format!("storage.placement.bytes.tier.{tier}")
}

// ---- compression -----------------------------------------------------
pub fn compress_bytes_in(codec: &str) -> String {
    format!("compress.{codec}.bytes_in")
}

pub fn compress_bytes_out(codec: &str) -> String {
    format!("compress.{codec}.bytes_out")
}

pub fn compress_calls(codec: &str) -> String {
    format!("compress.{codec}.calls")
}

pub fn decompress_bytes_in(codec: &str) -> String {
    format!("compress.{codec}.decompress_bytes_in")
}

pub fn decompress_values_out(codec: &str) -> String {
    format!("compress.{codec}.decompress_values_out")
}
