//! The ordered tier stack.
//!
//! `StorageHierarchy` composes [`TierSpec`]s with backing [`Device`]s and a
//! shared [`SimClock`]. Tier 0 is the fastest/smallest (the top of the
//! pyramid in the paper's Fig. 1); reads search fastest-first.
//!
//! ## Lock order
//!
//! Storage locks sit at the **bottom** of the whole stack: readers and
//! the serving layer never enter a tier while holding any of their own
//! locks, and no storage lock nests inside another. Per tier there are
//! three independent leaves — the device's `RwLock` (held only for the
//! keyed byte map operation itself), the stats mutex, and the fault
//! mutex — each taken and released separately; the sim clock is an
//! atomic. Metrics calls from in here go through instrument handles
//! resolved when the hierarchy is built — lock-free atomics, no name
//! lookup in the registry's maps (see `canopus_obs::Registry`) — so the
//! cross-crate order is: reader caches → scheduler/reader-map → storage
//! leaves, with at most one held at a time.
//!
//! One storage lock is not a leaf: the **placement mutex**
//! ([`StorageHierarchy::place`]) is held across a placement decision,
//! which reads the devices' free space, and across the device write
//! that lands the block. It is taken with no other lock held, and only
//! tier leaves nest inside it. It is one for the whole hierarchy, so
//! every placed block of every write into it — each block, each
//! manifest — lands one at a time, store-wide: a decision never sees a
//! block that is decided but not yet stored, and concurrent writers
//! spill to the next tier instead of over-committing one.

use crate::clock::{SimClock, SimDuration};
use crate::device::Device;
use crate::error::StorageError;
use crate::fault::{corrupt_payload, FaultOp, FaultPlan};
use crate::tier::TierSpec;
use bytes::Bytes;
use canopus_obs::{names, Counter, Gauge, Histogram, Registry, StageTimer};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Cumulative per-tier I/O accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TierStats {
    pub bytes_written: u64,
    pub bytes_read: u64,
    pub writes: u64,
    pub reads: u64,
    pub write_time: SimDuration,
    pub read_time: SimDuration,
}

struct TierState {
    spec: TierSpec,
    device: Device,
    stats: Mutex<TierStats>,
    faults: Mutex<FaultState>,
    metrics: TierMetrics,
}

/// One direction's per-tier instruments: bytes moved, operations, the
/// modelled transfer time, and the per-op latency on each clock.
struct OpMetrics {
    bytes: Arc<Counter>,
    ops: Arc<Counter>,
    timer: Arc<StageTimer>,
    latency_wall: Arc<Histogram>,
    latency_sim: Arc<Histogram>,
}

impl OpMetrics {
    fn record(&self, bytes: u64, wall_secs: f64, dt: SimDuration) {
        self.bytes.add(bytes);
        self.ops.inc();
        self.timer.record(0.0, dt.seconds());
        self.latency_wall.observe_secs(wall_secs);
        self.latency_sim.observe_secs(dt.seconds());
    }
}

/// A tier's instruments, resolved by name once, when the hierarchy is
/// built: an accounted read or write bumps atomics through these handles
/// and neither formats a metric name nor takes a registry map lock.
/// ([`Registry::reset`] zeroes instruments in place, so the handles
/// outlive [`StorageHierarchy::clear`].)
struct TierMetrics {
    read: OpMetrics,
    write: OpMetrics,
    faults: Arc<Counter>,
}

impl TierMetrics {
    fn resolve(obs: &Registry, idx: usize) -> Self {
        Self {
            read: OpMetrics {
                bytes: obs.counter(&names::tier_bytes_read(idx)),
                ops: obs.counter(&names::tier_reads(idx)),
                timer: obs.timer(&names::tier_read_timer(idx)),
                latency_wall: obs.histogram(&names::tier_read_latency_wall(idx)),
                latency_sim: obs.histogram(&names::tier_read_latency_sim(idx)),
            },
            write: OpMetrics {
                bytes: obs.counter(&names::tier_bytes_written(idx)),
                ops: obs.counter(&names::tier_writes(idx)),
                timer: obs.timer(&names::tier_write_timer(idx)),
                latency_wall: obs.histogram(&names::tier_write_latency_wall(idx)),
                latency_sim: obs.histogram(&names::tier_write_latency_sim(idx)),
            },
            faults: obs.counter(&names::tier_faults(idx)),
        }
    }
}

/// Runtime bookkeeping for a tier's [`FaultPlan`]: the per-tier
/// operation index (drives hard-down windows) and the per-key attempt
/// counters that keep probabilistic draws deterministic under any
/// thread interleaving.
#[derive(Default)]
struct FaultState {
    plan: FaultPlan,
    ops: u64,
    attempts: HashMap<String, u64>,
}

impl FaultState {
    /// Advance the tier op index and the attempt counter for `(op, key)`,
    /// returning `(op_index, attempt)` for this operation's draws.
    fn next(&mut self, op: FaultOp, key: &str) -> (u64, u64) {
        let op_index = self.ops;
        self.ops += 1;
        let slot = self
            .attempts
            .entry(format!("{}:{key}", op as u64))
            .or_insert(0);
        let attempt = *slot;
        *slot += 1;
        (op_index, attempt)
    }
}

/// An ordered stack of storage tiers (index 0 = fastest).
///
/// Also the anchor of the observability layer: the hierarchy owns the
/// process-wide [`Registry`] (shared via [`metrics`](Self::metrics))
/// that every layer above it — ADIOS store, compression, the Canopus
/// core — records into.
pub struct StorageHierarchy {
    tiers: Vec<TierState>,
    clock: SimClock,
    obs: Arc<Registry>,
    /// [`names::STORAGE_INFLIGHT_READS`] and its high-water mark.
    inflight_reads: Arc<Gauge>,
    inflight_reads_peak: Arc<Gauge>,
    /// Fast path: false ⇒ no tier has an active [`FaultPlan`], and the
    /// read/write paths skip fault bookkeeping entirely.
    faults_enabled: AtomicBool,
    /// The placement mutex ([`Self::place`]): one decision and its
    /// device write at a time, for every writer.
    placing: Mutex<()>,
}

impl StorageHierarchy {
    /// Build a hierarchy from fast-to-slow tier specs.
    ///
    /// # Panics
    /// Panics on an empty spec list.
    pub fn new(specs: Vec<TierSpec>) -> Self {
        assert!(!specs.is_empty(), "hierarchy needs at least one tier");
        Self::over(
            specs
                .into_iter()
                .map(|spec| {
                    let device = Device::new(spec.name.clone(), spec.capacity);
                    (spec, device)
                })
                .collect(),
        )
    }

    /// The hierarchy over `tiers`, fastest first, with a registry of its
    /// own and every tier's instruments resolved.
    fn over(tiers: Vec<(TierSpec, Device)>) -> Self {
        let obs = Arc::new(Registry::new());
        let tiers = tiers
            .into_iter()
            .enumerate()
            .map(|(idx, (spec, device))| TierState {
                spec,
                device,
                stats: Mutex::new(TierStats::default()),
                faults: Mutex::new(FaultState::default()),
                metrics: TierMetrics::resolve(&obs, idx),
            })
            .collect();
        Self {
            tiers,
            clock: SimClock::new(),
            inflight_reads: obs.gauge(names::STORAGE_INFLIGHT_READS),
            inflight_reads_peak: obs.gauge(names::STORAGE_INFLIGHT_READS_PEAK),
            obs,
            faults_enabled: AtomicBool::new(false),
            placing: Mutex::new(()),
        }
    }

    /// Build a hierarchy whose tiers persist as subdirectories of `root`
    /// (one per tier name). Reopening the same root resumes with all
    /// previously stored objects — this is what the `canopus` CLI uses to
    /// span process invocations.
    pub fn file_backed(
        specs: Vec<TierSpec>,
        root: impl AsRef<std::path::Path>,
    ) -> std::io::Result<Self> {
        assert!(!specs.is_empty(), "hierarchy needs at least one tier");
        let root = root.as_ref();
        let mut tiers = Vec::with_capacity(specs.len());
        for (i, spec) in specs.into_iter().enumerate() {
            let dir = root.join(format!("{i}-{}", spec.name));
            let device = Device::file_backed(spec.name.clone(), spec.capacity, dir)?;
            tiers.push((spec, device));
        }
        Ok(Self::over(tiers))
    }

    /// The paper's Titan testbed: DRAM tmpfs over Lustre. `tmpfs_capacity`
    /// reflects the proportional-allocation assumption of §IV-B (the tmpfs
    /// slice allocated to the simulation is `s/x` for output size `s`).
    pub fn titan_two_tier(tmpfs_capacity: u64, lustre_capacity: u64) -> Self {
        Self::new(vec![
            TierSpec::tmpfs(tmpfs_capacity),
            TierSpec::lustre(lustre_capacity),
        ])
    }

    /// A Summit/Aurora-style deep hierarchy (paper Fig. 2's tier stack).
    pub fn deep_four_tier(
        nvram_capacity: u64,
        bb_capacity: u64,
        pfs_capacity: u64,
        campaign_capacity: u64,
    ) -> Self {
        Self::new(vec![
            TierSpec::nvram(nvram_capacity),
            TierSpec::burst_buffer(bb_capacity),
            TierSpec::lustre(pfs_capacity),
            TierSpec::campaign(campaign_capacity),
        ])
    }

    pub fn num_tiers(&self) -> usize {
        self.tiers.len()
    }

    pub fn tier_spec(&self, idx: usize) -> Result<&TierSpec, StorageError> {
        self.tiers
            .get(idx)
            .map(|t| &t.spec)
            .ok_or(StorageError::NoSuchTier(idx))
    }

    pub fn tier_device(&self, idx: usize) -> Result<&Device, StorageError> {
        self.tiers
            .get(idx)
            .map(|t| &t.device)
            .ok_or(StorageError::NoSuchTier(idx))
    }

    pub fn tier_stats(&self, idx: usize) -> Result<TierStats, StorageError> {
        self.tiers
            .get(idx)
            .map(|t| *t.stats.lock())
            .ok_or(StorageError::NoSuchTier(idx))
    }

    /// The shared simulated clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The shared metrics registry for this hierarchy and everything
    /// layered on top of it.
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.obs
    }

    /// Attach (or clear, with [`FaultPlan::none`]) a fault schedule on
    /// one tier. Resets that tier's op/attempt counters so a fresh plan
    /// starts a fresh deterministic fault sequence.
    pub fn set_fault_plan(&self, idx: usize, plan: FaultPlan) -> Result<(), StorageError> {
        let tier = self.tiers.get(idx).ok_or(StorageError::NoSuchTier(idx))?;
        *tier.faults.lock() = FaultState {
            plan,
            ops: 0,
            attempts: HashMap::new(),
        };
        let any = self.tiers.iter().any(|t| !t.faults.lock().plan.is_none());
        self.faults_enabled.store(any, Ordering::Relaxed);
        Ok(())
    }

    /// Attach the same fault schedule to every tier.
    pub fn set_fault_plan_all(&self, plan: FaultPlan) {
        for idx in 0..self.tiers.len() {
            let _ = self.set_fault_plan(idx, plan);
        }
    }

    /// The fault schedule currently attached to a tier.
    pub fn fault_plan(&self, idx: usize) -> Result<FaultPlan, StorageError> {
        self.tiers
            .get(idx)
            .map(|t| t.faults.lock().plan)
            .ok_or(StorageError::NoSuchTier(idx))
    }

    /// Run the fault schedule for one `get`/`put` on tier `idx`.
    /// `Err` aborts the operation; on `Ok` the first element is the
    /// schedule's added latency (already applied to the simulated
    /// clock — the caller folds it into the op's reported duration so a
    /// slow tier shows up in phase timings, not just on the clock), and
    /// `Some(hash)` asks a `get` to corrupt its payload
    /// deterministically.
    fn inject(
        &self,
        idx: usize,
        op: FaultOp,
        key: &str,
    ) -> Result<(SimDuration, Option<u64>), StorageError> {
        let tier = &self.tiers[idx];
        let plan;
        let (op_index, attempt);
        {
            let mut st = tier.faults.lock();
            if st.plan.is_none() {
                return Ok((SimDuration::ZERO, None));
            }
            plan = st.plan;
            (op_index, attempt) = st.next(op, key);
        }
        // On success the caller folds `extra` into the op duration it
        // advances the clock by; only failed ops (which report no
        // duration) pay their latency directly here.
        let extra = SimDuration(plan.added_latency_s.max(0.0));
        if plan.is_down_at(op_index) {
            self.clock.advance(extra);
            tier.metrics.faults.inc();
            return Err(StorageError::TierDown { tier: idx });
        }
        if plan.draws(op, key, attempt) {
            self.clock.advance(extra);
            tier.metrics.faults.inc();
            return Err(StorageError::Transient {
                tier: idx,
                key: key.to_string(),
            });
        }
        if op == FaultOp::GetError && plan.draws(FaultOp::Corrupt, key, attempt) {
            tier.metrics.faults.inc();
            return Ok((extra, Some(plan.hash(FaultOp::Corrupt, key, attempt))));
        }
        Ok((extra, None))
    }

    /// Write an object to a specific tier, advancing simulated time by the
    /// modeled transfer cost. Returns the transfer duration.
    pub fn write_to_tier(
        &self,
        idx: usize,
        key: &str,
        data: Bytes,
    ) -> Result<SimDuration, StorageError> {
        let tier = self.tiers.get(idx).ok_or(StorageError::NoSuchTier(idx))?;
        let wall = Instant::now();
        let extra = if self.faults_enabled.load(Ordering::Relaxed) {
            self.inject(idx, FaultOp::PutError, key)?.0
        } else {
            SimDuration::ZERO
        };
        let sz = data.len() as u64;
        tier.device.put(key, data)?;
        let dt = SimDuration(tier.spec.write_time(sz)) + extra;
        self.clock.advance(dt);
        {
            let mut stats = tier.stats.lock();
            stats.bytes_written += sz;
            stats.writes += 1;
            stats.write_time += dt;
        }
        // Per-op latency distributions, one per clock: the measured
        // device op and the modelled transfer.
        tier.metrics
            .write
            .record(sz, wall.elapsed().as_secs_f64(), dt);
        Ok(dt)
    }

    /// Decide a tier for `data` and land it there, as one step against
    /// every other placement into the hierarchy: `decide` runs under the
    /// placement mutex against the devices' real free space, and the
    /// block is written before the mutex is released, so every decision
    /// sees the capacity state of placing one block at a time. Returns
    /// the tier and the modelled write time.
    pub fn place(
        &self,
        key: &str,
        data: Bytes,
        decide: impl FnOnce(&Self) -> Result<usize, StorageError>,
    ) -> Result<(usize, SimDuration), StorageError> {
        let _placing = self.placing.lock();
        let tier = decide(self)?;
        Ok((tier, self.write_to_tier(tier, key, data)?))
    }

    /// Locate an object, searching fastest-first. Returns its tier index.
    /// Nothing moves an object after it is written, so the answer holds
    /// until the object is removed.
    pub fn find(&self, key: &str) -> Result<usize, StorageError> {
        self.tiers
            .iter()
            .position(|t| t.device.contains(key))
            .ok_or_else(|| StorageError::NotFound(key.to_string()))
    }

    /// Read an object from wherever it lives (fastest tier first),
    /// advancing simulated time. Returns the bytes, the tier it came from
    /// and the transfer duration.
    ///
    /// Concurrent callers are tracked through the
    /// [`names::STORAGE_INFLIGHT_READS`] gauge (with its high-water mark
    /// in [`names::STORAGE_INFLIGHT_READS_PEAK`]) — a peak above 1 is
    /// direct evidence that a read pipeline overlapped tier fetches.
    pub fn read(&self, key: &str) -> Result<(Bytes, usize, SimDuration), StorageError> {
        self.read_inner(key, None)
    }

    /// Read `len` bytes of an object starting at `offset` (fastest tier
    /// first), advancing simulated time by the cost of moving only the
    /// requested range. This is the transport primitive behind region
    /// refinement: one chunk of a shard object moves without pulling the
    /// whole shard. Fault injection draws on the same per-key sequence
    /// as [`read`](Self::read).
    pub fn read_range(
        &self,
        key: &str,
        offset: u64,
        len: u64,
    ) -> Result<(Bytes, usize, SimDuration), StorageError> {
        self.read_inner(key, Some((offset, len)))
    }

    /// Locate `key` and fetch its bytes — all of them, or the
    /// `(offset, len)` range: one `find`, one device get. An object
    /// stays on the tier placement gave it until it is removed, so a
    /// get that misses after a hit means the object is gone.
    fn locate_and_get(
        &self,
        key: &str,
        range: Option<(u64, u64)>,
    ) -> Result<(Bytes, usize, SimDuration, Option<u64>), StorageError> {
        let idx = self.find(key)?;
        let (extra, corrupt) = if self.faults_enabled.load(Ordering::Relaxed) {
            self.inject(idx, FaultOp::GetError, key)?
        } else {
            (SimDuration::ZERO, None)
        };
        let device = &self.tiers[idx].device;
        let data = match range {
            None => device.get(key),
            Some((offset, len)) => device.get_range(key, offset, len),
        }?;
        Ok((data, idx, extra, corrupt))
    }

    /// Every accounted read — whole or ranged — runs through here: one
    /// locate, one accounting tail.
    fn read_inner(
        &self,
        key: &str,
        range: Option<(u64, u64)>,
    ) -> Result<(Bytes, usize, SimDuration), StorageError> {
        self.inflight_reads.add(1);
        self.inflight_reads_peak.set_max(self.inflight_reads.get());
        let wall = Instant::now();
        let located = self.locate_and_get(key, range);
        self.inflight_reads.sub(1);
        let (data, idx, extra, corrupt) = located?;
        let tier = &self.tiers[idx];
        let data = match corrupt {
            Some(hash) => corrupt_payload(data, hash),
            None => data,
        };
        let dt = SimDuration(tier.spec.read_time(data.len() as u64)) + extra;
        self.clock.advance(dt);
        {
            let mut stats = tier.stats.lock();
            stats.bytes_read += data.len() as u64;
            stats.reads += 1;
            stats.read_time += dt;
        }
        tier.metrics
            .read
            .record(data.len() as u64, wall.elapsed().as_secs_f64(), dt);
        Ok((data, idx, dt))
    }

    /// Remove an object from whichever tier holds it.
    pub fn remove(&self, key: &str) -> Result<Bytes, StorageError> {
        let idx = self.find(key)?;
        self.tiers[idx].device.remove(key)
    }

    /// Wipe all tiers and reset clock, stats, and metrics (between
    /// experiments). Metric handles already held stay valid — their
    /// values restart from zero.
    pub fn clear(&self) {
        for t in &self.tiers {
            t.device.clear();
            *t.stats.lock() = TierStats::default();
            // Keep each tier's fault plan but restart its deterministic
            // op/attempt sequence, matching the fresh clock and stats.
            let mut faults = t.faults.lock();
            faults.ops = 0;
            faults.attempts.clear();
        }
        self.clock.reset();
        self.obs.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_tier() -> StorageHierarchy {
        StorageHierarchy::new(vec![
            TierSpec::new("fast", 100, 1000.0, 1000.0, 0.0),
            TierSpec::new("slow", 10_000, 10.0, 10.0, 1.0),
        ])
    }

    #[test]
    fn write_read_roundtrip_with_timing() {
        let h = two_tier();
        let dt = h
            .write_to_tier(0, "base", Bytes::from(vec![7u8; 50]))
            .unwrap();
        assert!((dt.seconds() - 0.05).abs() < 1e-9);
        let (data, tier, dt) = h.read("base").unwrap();
        assert_eq!(data.len(), 50);
        assert_eq!(tier, 0);
        assert!((dt.seconds() - 0.05).abs() < 1e-9);
        assert!((h.clock().now().seconds() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn reads_prefer_fast_tier() {
        let h = two_tier();
        h.write_to_tier(0, "x", Bytes::from(vec![1u8; 10])).unwrap();
        h.write_to_tier(1, "y", Bytes::from(vec![2u8; 10])).unwrap();
        assert_eq!(h.read("x").unwrap().1, 0);
        assert_eq!(h.read("y").unwrap().1, 1);
    }

    #[test]
    fn missing_key_errors() {
        let h = two_tier();
        assert!(matches!(h.read("nope"), Err(StorageError::NotFound(_))));
        assert!(matches!(h.find("nope"), Err(StorageError::NotFound(_))));
    }

    #[test]
    fn capacity_error_propagates() {
        let h = two_tier();
        let err = h
            .write_to_tier(0, "big", Bytes::from(vec![0u8; 200]))
            .unwrap_err();
        assert!(matches!(err, StorageError::CapacityExceeded { .. }));
    }

    #[test]
    fn place_lands_where_the_decision_says_and_sees_what_landed() {
        let h = two_tier();
        // The first 60 B fit tier 0; the second decision sees them stored.
        let fastest_with_room = |h: &StorageHierarchy| {
            (0..h.num_tiers())
                .find(|&t| h.tier_device(t).unwrap().available() >= 60)
                .ok_or_else(|| StorageError::PlacementFailed("full".into()))
        };
        let (tier, dt) = h
            .place("a", Bytes::from(vec![1u8; 60]), fastest_with_room)
            .unwrap();
        assert_eq!((tier, h.read("a").unwrap().1), (0, 0));
        assert!((dt.seconds() - 0.06).abs() < 1e-9);
        let (tier, _) = h
            .place("b", Bytes::from(vec![2u8; 60]), fastest_with_room)
            .unwrap();
        assert_eq!(tier, 1);
        // A refused decision writes nothing; a refused write keeps nothing.
        let err = h
            .place("c", Bytes::from(vec![0u8; 8]), |_| {
                Err(StorageError::PlacementFailed("no".into()))
            })
            .unwrap_err();
        assert!(matches!(err, StorageError::PlacementFailed(_)));
        let err = h
            .place("a", Bytes::from(vec![0u8; 8]), |_| Ok(0))
            .unwrap_err();
        assert_eq!(err, StorageError::AlreadyExists("a".into()));
        assert_eq!(h.tier_device(0).unwrap().keys(), ["a"]);
        assert_eq!(h.tier_device(1).unwrap().keys(), ["b"]);
    }

    #[test]
    fn stats_accumulate() {
        let h = two_tier();
        h.write_to_tier(1, "a", Bytes::from(vec![0u8; 100]))
            .unwrap();
        h.read("a").unwrap();
        h.read("a").unwrap();
        let s = h.tier_stats(1).unwrap();
        assert_eq!(s.writes, 1);
        assert_eq!(s.reads, 2);
        assert_eq!(s.bytes_written, 100);
        assert_eq!(s.bytes_read, 200);
        assert!(s.read_time.seconds() > s.write_time.seconds());
    }

    #[test]
    fn clear_resets_everything() {
        let h = two_tier();
        h.write_to_tier(0, "a", Bytes::from(vec![0u8; 10])).unwrap();
        h.clear();
        assert!(h.read("a").is_err());
        assert_eq!(h.clock().now().seconds(), 0.0);
        assert_eq!(h.tier_stats(0).unwrap(), TierStats::default());
    }

    #[test]
    fn preset_hierarchies() {
        let t = StorageHierarchy::titan_two_tier(1 << 20, 1 << 30);
        assert_eq!(t.num_tiers(), 2);
        assert_eq!(t.tier_spec(0).unwrap().name, "tmpfs");
        let d = StorageHierarchy::deep_four_tier(1, 2, 3, 4);
        assert_eq!(d.num_tiers(), 4);
        assert!(d.tier_spec(4).is_err());
    }

    #[test]
    fn file_backed_hierarchy_persists_across_reopen() {
        let root = std::env::temp_dir().join(format!("canopus_hier_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let specs = || {
            vec![
                TierSpec::new("fast", 1000, 1e6, 1e6, 0.0),
                TierSpec::new("slow", 100_000, 1e3, 1e3, 1e-3),
            ]
        };
        {
            let h = StorageHierarchy::file_backed(specs(), &root).unwrap();
            h.write_to_tier(0, "x/base", Bytes::from(vec![7u8; 100]))
                .unwrap();
            h.write_to_tier(1, "x/delta", Bytes::from(vec![9u8; 500]))
                .unwrap();
        }
        {
            let h = StorageHierarchy::file_backed(specs(), &root).unwrap();
            assert_eq!(h.find("x/base").unwrap(), 0);
            assert_eq!(h.find("x/delta").unwrap(), 1);
            let (data, tier, _) = h.read("x/base").unwrap();
            assert_eq!(tier, 0);
            assert_eq!(data, Bytes::from(vec![7u8; 100]));
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn fault_plan_injects_transient_get_errors_deterministically() {
        let run = || {
            let h = two_tier();
            h.write_to_tier(1, "k", Bytes::from(vec![3u8; 20])).unwrap();
            h.set_fault_plan(
                1,
                FaultPlan {
                    seed: 9,
                    get_error_p: 0.5,
                    ..FaultPlan::none()
                },
            )
            .unwrap();
            (0..16).map(|_| h.read("k").is_ok()).collect::<Vec<_>>()
        };
        let outcomes = run();
        assert!(outcomes.iter().any(|ok| *ok), "some reads must survive");
        assert!(outcomes.iter().any(|ok| !ok), "some reads must fault");
        assert_eq!(outcomes, run(), "same seed ⇒ same fault sequence");
        // The faulted reads surfaced as Transient on the right tier.
        let h = two_tier();
        h.write_to_tier(1, "k", Bytes::from(vec![3u8; 20])).unwrap();
        h.set_fault_plan(
            1,
            FaultPlan {
                seed: 9,
                get_error_p: 1.0,
                ..FaultPlan::none()
            },
        )
        .unwrap();
        assert!(matches!(
            h.read("k"),
            Err(StorageError::Transient { tier: 1, .. })
        ));
        assert!(h.metrics().counter(&names::tier_faults(1)).get() > 0);
    }

    #[test]
    fn down_window_blocks_then_recovers() {
        let h = two_tier();
        h.write_to_tier(0, "k", Bytes::from(vec![1u8; 4])).unwrap();
        h.set_fault_plan(
            0,
            FaultPlan {
                down: Some((0, 3)),
                ..FaultPlan::none()
            },
        )
        .unwrap();
        for _ in 0..3 {
            assert!(matches!(
                h.read("k"),
                Err(StorageError::TierDown { tier: 0 })
            ));
        }
        assert!(h.read("k").is_ok(), "window [0,3) has passed");
    }

    #[test]
    fn corruption_changes_payload_but_read_succeeds() {
        let h = two_tier();
        let payload = Bytes::from(vec![7u8; 32]);
        h.write_to_tier(0, "k", payload.clone()).unwrap();
        h.set_fault_plan(
            0,
            FaultPlan {
                seed: 1,
                corrupt_p: 1.0,
                ..FaultPlan::none()
            },
        )
        .unwrap();
        let (data, _, _) = h.read("k").unwrap();
        assert_ne!(data, payload, "payload corrupted in flight");
        assert_eq!(data.len(), payload.len());
        // The stored object itself is untouched.
        h.set_fault_plan(0, FaultPlan::none()).unwrap();
        assert_eq!(h.read("k").unwrap().0, payload);
    }

    #[test]
    fn added_latency_advances_clock_and_none_costs_nothing() {
        let h = two_tier();
        h.write_to_tier(0, "k", Bytes::from(vec![1u8; 10])).unwrap();
        let t0 = h.clock().now().seconds();
        h.read("k").unwrap();
        let clean = h.clock().now().seconds() - t0;
        h.set_fault_plan(
            0,
            FaultPlan {
                added_latency_s: 0.25,
                ..FaultPlan::none()
            },
        )
        .unwrap();
        let t1 = h.clock().now().seconds();
        h.read("k").unwrap();
        let slowed = h.clock().now().seconds() - t1;
        assert!((slowed - clean - 0.25).abs() < 1e-9);
        // Clearing the plan restores the fast path.
        h.set_fault_plan(0, FaultPlan::none()).unwrap();
        let t2 = h.clock().now().seconds();
        h.read("k").unwrap();
        assert!((h.clock().now().seconds() - t2 - clean).abs() < 1e-9);
    }

    #[test]
    fn put_faults_surface_on_write() {
        let h = two_tier();
        h.set_fault_plan(
            1,
            FaultPlan {
                seed: 4,
                put_error_p: 1.0,
                ..FaultPlan::none()
            },
        )
        .unwrap();
        assert!(matches!(
            h.write_to_tier(1, "k", Bytes::from(vec![0u8; 8])),
            Err(StorageError::Transient { tier: 1, .. })
        ));
        // The other tier is unaffected.
        h.write_to_tier(0, "k", Bytes::from(vec![0u8; 8])).unwrap();
    }

    #[test]
    fn remove_from_hierarchy() {
        let h = two_tier();
        h.write_to_tier(1, "a", Bytes::from(vec![0u8; 10])).unwrap();
        assert_eq!(h.remove("a").unwrap().len(), 10);
        assert!(h.find("a").is_err());
    }
}
