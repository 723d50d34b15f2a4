//! Decoded-level LRU cache.
//!
//! Campaign analytics revisit levels: blob detection runs at several
//! accuracies, a coarse exploratory pass precedes a focused refinement,
//! dashboards re-render the same variable. [`LevelCache`] keeps the last
//! few fully restored `(var, level)` fields in memory so a repeat read
//! skips tier I/O *and* decompression entirely — the reader answers from
//! the cache with zero `read.bytes_io` traffic.
//!
//! Entries share their data and their level's geometry entry (the one
//! the reader's geometry cache holds, halves filled lazily) through
//! `Arc`s, so a hit clones two pointers — and nothing is copied after
//! that either: the [`ReadOutcome`](crate::read::ReadOutcome) a caller
//! receives points at the entry's field buffer and at the geometry
//! entry's point and triangle arrays. Nobody can write through those
//! pointers, which is what keeps an entry canonical; a caller that wants
//! to mutate copies first
//! ([`ReadOutcome::into_data`](crate::read::ReadOutcome::into_data)).
//! Only level-exact fields are cached — mixed-accuracy results from
//! region refinement never enter. Beside levels the cache keeps two
//! populations a region step reuses: decoded spatial chunks, and the
//! chunk → vertex table of a level stored in several chunks (a Morton
//! sort of every vertex, charged 4 B a vertex).
//!
//! Retention is bounded twice over: by entry count (the configured
//! capacity) and by approximate resident bytes
//! ([`LevelCache::DEFAULT_MAX_BYTES`] unless overridden), so caching the
//! fine levels of a large variable cannot pin unbounded memory. Eviction
//! is LRU-first under either bound; the most recently inserted entry is
//! always retained — even alone over the byte budget — so a repeat read
//! of the same `(var, level)` still answers from memory.
//!
//! The budget counts what the cache *retains*, each array once: an
//! entry is charged its field plus its level's point and triangle
//! arrays in full, however many outcomes point at them. Eviction drops
//! the cache's references and un-charges the entry; the memory itself
//! goes back to the allocator when the last outcome a caller still
//! holds does (and the geometry arrays stay with the reader's geometry
//! cache, which never evicts). The budget therefore bounds the cache,
//! not the process: callers that keep outcomes alive keep them resident.
//!
//! ## Lock order
//!
//! `Inner` sits behind a single mutex that is a **leaf lock** of the
//! read path: no code path acquires another lock, performs tier I/O,
//! decodes, or touches the metrics registry while holding it. Callers
//! that need a multi-step decision (exact hit *or* nearest coarser
//! fallback) use [`LevelCache::probe`], which classifies under one
//! acquisition so the answer is consistent even while concurrent
//! readers insert and evict. The reader-wide order is documented on
//! [`CanopusReader`](crate::read::CanopusReader): `meta_cache` →
//! `LevelCache::inner` → registry instrument maps, each released before
//! the next is taken.

use crate::geometry::LevelGeometry;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One cached restored level.
#[derive(Clone)]
pub(crate) struct CachedLevel {
    pub geometry: Arc<LevelGeometry>,
    pub data: Arc<Vec<f64>>,
    /// RMS of the delta applied to reach this level (0 for the base),
    /// so a cache-served refinement can still report the paper's
    /// adjacent-level RMSE termination criterion.
    pub delta_rms: f64,
}

impl CachedLevel {
    /// Approximate resident size: the vertex field plus the mesh's
    /// point and connectivity arrays (counted whether or not the
    /// coordinates have been loaded yet), each allocation once — the
    /// outcomes handed out for this entry add nothing to it.
    fn approx_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>() + self.geometry.approx_bytes()
    }
}

/// A level's chunk → vertex-id table ([`crate::write::spatial_chunks`]).
pub(crate) type Assignment = Arc<Vec<Vec<u32>>>;

/// Cache key: a fully restored level, one decoded spatial chunk of a
/// sharded delta (`(var, finer level, chunk)`), or the chunk → vertex
/// table of a level stored in several chunks. All populations share one
/// tick sequence, entry capacity and byte budget, so hot levels, hot
/// chunks and the tables that place them compete for the same
/// residency.
#[derive(Clone, PartialEq, Eq, Hash)]
enum CacheKey {
    Level(String, u32),
    Chunk(String, u32, u32),
    Assignment(String, u32),
}

/// What a cache entry holds, matching its key's shape.
enum CacheValue {
    Level(CachedLevel),
    Chunk(Arc<Vec<f64>>),
    Assignment(Assignment),
}

impl CacheValue {
    fn approx_bytes(&self) -> usize {
        match self {
            CacheValue::Level(l) => l.approx_bytes(),
            CacheValue::Chunk(v) => v.len() * std::mem::size_of::<f64>(),
            CacheValue::Assignment(table) => table
                .iter()
                .map(|ids| ids.len() * std::mem::size_of::<u32>())
                .sum(),
        }
    }
}

struct Entry {
    value: CacheValue,
    last_used: u64,
    bytes: usize,
}

struct Inner {
    map: HashMap<CacheKey, Entry>,
    tick: u64,
    /// Sum of `Entry::bytes` over `map`.
    bytes: usize,
}

/// A small LRU of decoded levels, keyed by `(var, level)`, bounded by
/// entry count and approximate bytes. Both bounds are on what the cache
/// itself retains: evicting an entry frees its arrays only once no
/// caller holds an outcome over them (see the module doc).
pub(crate) struct LevelCache {
    capacity: usize,
    /// Atomic (not a field behind the mutex, not `&mut`): the budget is
    /// adjustable through a shared reference, so a long-lived service
    /// holding the reader in an `Arc` can still retune it.
    max_bytes: AtomicUsize,
    inner: Mutex<Inner>,
}

/// Outcome of a single-lock [`LevelCache::probe`].
pub(crate) enum Probe {
    /// The exact `(var, level)` entry was resident.
    Exact(CachedLevel),
    /// No exact entry, but the finest strictly coarser cached level —
    /// the best starting point for a walk down to the target.
    Coarser(u32, CachedLevel),
    /// Nothing cached for this variable at or above the target.
    Miss,
}

impl LevelCache {
    /// Default byte budget: generous for the paper's meshes (a 130k-
    /// triangle level is a few MB) while capping the worst case of
    /// `capacity` fine levels of a large variable.
    pub const DEFAULT_MAX_BYTES: usize = 256 << 20;

    /// `capacity` = max retained entries; 0 disables the cache entirely.
    /// The byte budget defaults to [`Self::DEFAULT_MAX_BYTES`].
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            max_bytes: AtomicUsize::new(Self::DEFAULT_MAX_BYTES),
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
                bytes: 0,
            }),
        }
    }

    /// Override the approximate-byte budget (entry capacity still
    /// applies). Takes `&self`: the budget is an atomic so a shared
    /// reader never needs exclusive access to retune it.
    pub fn set_max_bytes(&self, max_bytes: usize) {
        self.max_bytes.store(max_bytes, Ordering::Relaxed);
    }

    /// The configured approximate-byte budget.
    pub fn max_bytes(&self) -> usize {
        self.max_bytes.load(Ordering::Relaxed)
    }

    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    #[cfg(test)]
    pub fn resident_bytes(&self) -> usize {
        self.inner.lock().bytes
    }

    /// Look up an exact `(var, level)` entry, refreshing its recency.
    pub fn get(&self, var: &str, level: u32) -> Option<CachedLevel> {
        if !self.enabled() {
            return None;
        }
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner
            .map
            .get_mut(&CacheKey::Level(var.to_string(), level))?;
        entry.last_used = tick;
        match &entry.value {
            CacheValue::Level(l) => Some(l.clone()),
            _ => unreachable!("level key holds a level value"),
        }
    }

    /// Look up one decoded spatial chunk of `(var, finer level)`,
    /// refreshing its recency. A hit saves the ranged fetch *and* the
    /// decode of a region refinement revisiting the same chunk.
    pub fn get_chunk(&self, var: &str, level: u32, chunk: u32) -> Option<Arc<Vec<f64>>> {
        if !self.enabled() {
            return None;
        }
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner
            .map
            .get_mut(&CacheKey::Chunk(var.to_string(), level, chunk))?;
        entry.last_used = tick;
        match &entry.value {
            CacheValue::Chunk(v) => Some(Arc::clone(v)),
            _ => unreachable!("chunk key holds a chunk value"),
        }
    }

    /// Look up the chunk → vertex table of `(var, level)`, refreshing its
    /// recency. A hit saves a Morton sort of every vertex of the level.
    pub fn get_assignment(&self, var: &str, level: u32) -> Option<Assignment> {
        if !self.enabled() {
            return None;
        }
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner
            .map
            .get_mut(&CacheKey::Assignment(var.to_string(), level))?;
        entry.last_used = tick;
        match &entry.value {
            CacheValue::Assignment(table) => Some(Arc::clone(table)),
            _ => unreachable!("assignment key holds a table"),
        }
    }

    /// Classify a read of `(var, level)` — exact hit, nearest coarser
    /// starting point, or miss — under **one** lock acquisition, so the
    /// classification (and therefore hit/miss accounting) is a single
    /// consistent decision even while other readers insert and evict
    /// concurrently. Whichever entry answers has its recency refreshed.
    pub fn probe(&self, var: &str, level: u32, coarsest: u32) -> Probe {
        if !self.enabled() {
            return Probe::Miss;
        }
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        // Only `Level` keys participate: a cached chunk is not a level
        // starting point.
        for candidate in level..=coarsest {
            if let Some(entry) = inner
                .map
                .get_mut(&CacheKey::Level(var.to_string(), candidate))
            {
                entry.last_used = tick;
                let value = match &entry.value {
                    CacheValue::Level(l) => l.clone(),
                    _ => unreachable!("level key holds a level value"),
                };
                return if candidate == level {
                    Probe::Exact(value)
                } else {
                    Probe::Coarser(candidate, value)
                };
            }
        }
        Probe::Miss
    }

    /// Insert (or refresh) an entry, evicting least-recently-used ones
    /// while over the entry capacity or the byte budget. The entry just
    /// inserted is never evicted, so one oversized level degrades to a
    /// single-entry cache instead of thrashing.
    pub fn insert(&self, var: &str, level: u32, value: CachedLevel) {
        self.insert_entry(
            CacheKey::Level(var.to_string(), level),
            CacheValue::Level(value),
        );
    }

    /// Retain one decoded spatial chunk of `(var, finer level)` under the
    /// same capacity and byte budget as whole levels.
    pub fn insert_chunk(&self, var: &str, level: u32, chunk: u32, values: Arc<Vec<f64>>) {
        self.insert_entry(
            CacheKey::Chunk(var.to_string(), level, chunk),
            CacheValue::Chunk(values),
        );
    }

    /// Retain the chunk → vertex table of `(var, level)` under the same
    /// capacity and byte budget as whole levels, charged 4 B a vertex.
    pub fn insert_assignment(&self, var: &str, level: u32, table: Assignment) {
        self.insert_entry(
            CacheKey::Assignment(var.to_string(), level),
            CacheValue::Assignment(table),
        );
    }

    /// Insert (or refresh) an entry, evicting least-recently-used ones
    /// while over the entry capacity or the byte budget. The entry just
    /// inserted is never evicted.
    fn insert_entry(&self, key: CacheKey, value: CacheValue) {
        if !self.enabled() {
            return;
        }
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let bytes = value.approx_bytes();
        if let Some(old) = inner.map.insert(
            key,
            Entry {
                value,
                last_used: tick,
                bytes,
            },
        ) {
            inner.bytes -= old.bytes;
        }
        inner.bytes += bytes;
        let max_bytes = self.max_bytes();
        while inner.map.len() > self.capacity || (inner.bytes > max_bytes && inner.map.len() > 1) {
            let oldest = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("non-empty map over a bound");
            let evicted = inner.map.remove(&oldest).expect("oldest key present");
            inner.bytes -= evicted.bytes;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::tests::sample_entry;

    fn level(v: f64) -> CachedLevel {
        CachedLevel {
            geometry: Arc::new(sample_entry(2, 2)),
            data: Arc::new(vec![v; 4]),
            delta_rms: v,
        }
    }

    /// A level with `n` data values, for byte-bound tests.
    fn sized_level(n: usize) -> CachedLevel {
        CachedLevel {
            geometry: Arc::new(sample_entry(2, 2)),
            data: Arc::new(vec![0.0; n]),
            delta_rms: 0.0,
        }
    }

    #[test]
    fn get_insert_roundtrip() {
        let c = LevelCache::new(4);
        assert!(c.get("v", 0).is_none());
        c.insert("v", 0, level(1.0));
        let hit = c.get("v", 0).unwrap();
        assert_eq!(*hit.data, vec![1.0; 4]);
        assert!(c.get("w", 0).is_none(), "keys include the variable");
    }

    #[test]
    fn evicts_least_recently_used() {
        let c = LevelCache::new(2);
        c.insert("v", 0, level(0.0));
        c.insert("v", 1, level(1.0));
        c.get("v", 0); // refresh 0 → 1 is now the LRU entry
        c.insert("v", 2, level(2.0));
        assert_eq!(c.len(), 2);
        assert!(c.get("v", 0).is_some());
        assert!(c.get("v", 1).is_none(), "LRU entry evicted");
        assert!(c.get("v", 2).is_some());
    }

    #[test]
    fn byte_budget_evicts_lru_and_tracks_residency() {
        let c = LevelCache::new(16);
        // Room for two ~8 KiB fields, not three.
        c.set_max_bytes(20 << 10);
        c.insert("v", 0, sized_level(1024));
        c.insert("v", 1, sized_level(1024));
        assert_eq!(c.len(), 2);
        c.get("v", 0); // 1 becomes the LRU entry
        c.insert("v", 2, sized_level(1024));
        assert_eq!(c.len(), 2, "byte budget holds two entries");
        assert!(c.get("v", 0).is_some());
        assert!(c.get("v", 1).is_none(), "LRU entry evicted on bytes");
        assert!(c.get("v", 2).is_some());
        assert!(c.resident_bytes() <= 20 << 10);
    }

    #[test]
    fn shared_arrays_are_charged_once_and_outlive_eviction() {
        let c = LevelCache::new(16);
        let entry = sized_level(1024);
        let one = 1024 * 8 + entry.geometry.approx_bytes();
        c.set_max_bytes(2 * one);
        c.insert("v", 0, entry.clone());
        // Outcomes in callers' hands point at the entry's arrays; the
        // cache still holds, and charges, one copy.
        let handed_out: Vec<CachedLevel> = (0..8).map(|_| c.get("v", 0).unwrap()).collect();
        assert!(handed_out.iter().all(|h| Arc::ptr_eq(&h.data, &entry.data)));
        assert_eq!(c.resident_bytes(), one);
        c.insert("v", 1, sized_level(1024));
        assert_eq!(c.resident_bytes(), 2 * one);

        // Over the budget: level 0 leaves the cache and its charge with
        // it, but not the memory its holders still read.
        c.insert("v", 2, sized_level(1024));
        assert!(c.get("v", 0).is_none());
        assert_eq!((c.len(), c.resident_bytes()), (2, 2 * one));
        assert_eq!(Arc::strong_count(&entry.data), 1 + handed_out.len());
        assert_eq!(*handed_out[7].data, vec![0.0; 1024]);
        drop(handed_out);
        assert_eq!(Arc::strong_count(&entry.data), 1);
    }

    #[test]
    fn oversized_entry_is_retained_alone() {
        let c = LevelCache::new(4);
        c.set_max_bytes(1 << 10);
        c.insert("v", 0, sized_level(64));
        c.insert("v", 1, sized_level(4096)); // alone exceeds the budget
        assert_eq!(c.len(), 1, "everything else evicted");
        assert!(
            c.get("v", 1).is_some(),
            "the newest entry survives its own insert"
        );
    }

    #[test]
    fn reinsert_replaces_byte_accounting() {
        let c = LevelCache::new(4);
        c.set_max_bytes(1 << 20);
        c.insert("v", 0, sized_level(1024));
        let first = c.resident_bytes();
        c.insert("v", 0, sized_level(2048));
        assert!(c.resident_bytes() > first);
        c.insert("v", 0, sized_level(1024));
        assert_eq!(c.resident_bytes(), first, "replaced entry fully released");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn probe_classifies_exact_coarser_and_miss_in_one_pass() {
        let c = LevelCache::new(4);
        c.insert("v", 3, level(3.0));
        c.insert("v", 1, level(1.0));
        // Exact entry wins over any coarser one.
        match c.probe("v", 1, 3) {
            Probe::Exact(hit) => assert_eq!(hit.delta_rms, 1.0),
            _ => panic!("expected exact hit"),
        }
        // No exact entry: the finest strictly coarser level answers.
        match c.probe("v", 0, 3) {
            Probe::Coarser(lvl, hit) => {
                assert_eq!(lvl, 1);
                assert_eq!(hit.delta_rms, 1.0);
            }
            _ => panic!("expected coarser hit"),
        }
        // Nothing cached at or above the target, or unknown variable.
        assert!(matches!(c.probe("w", 0, 3), Probe::Miss));
        c.insert("v", 0, level(0.0));
        assert!(matches!(c.probe("v", 0, 3), Probe::Exact(_)));
    }

    #[test]
    fn chunks_share_the_budget_with_levels() {
        let c = LevelCache::new(2);
        c.insert("v", 0, level(0.0));
        c.insert_chunk("v", 0, 3, Arc::new(vec![1.0; 8]));
        assert_eq!(c.len(), 2);
        assert_eq!(*c.get_chunk("v", 0, 3).unwrap(), vec![1.0; 8]);
        assert!(c.get_chunk("v", 0, 4).is_none());
        assert!(c.get_chunk("w", 0, 3).is_none(), "keys include the var");
        c.get_chunk("v", 0, 3); // refresh → the level is now the LRU entry
        c.insert_chunk("v", 0, 4, Arc::new(vec![2.0; 8]));
        assert_eq!(c.len(), 2, "levels and chunks share the capacity");
        assert!(c.get("v", 0).is_none(), "LRU level evicted by a chunk");
        // Chunk entries never answer level probes.
        assert!(matches!(c.probe("v", 0, 3), Probe::Miss));
    }

    #[test]
    fn assignments_are_charged_to_the_budget() {
        let c = LevelCache::new(4);
        let table: Assignment = Arc::new(vec![vec![0, 2], vec![1, 3, 4]]);
        c.insert_assignment("v", 1, Arc::clone(&table));
        assert_eq!(c.resident_bytes(), 5 * 4, "4 B a vertex");
        assert!(Arc::ptr_eq(&c.get_assignment("v", 1).unwrap(), &table));
        assert!(c.get_assignment("v", 0).is_none());
        // A table answers no level probe, and is evicted like any entry.
        assert!(matches!(c.probe("v", 1, 3), Probe::Miss));
        c.set_max_bytes(5 * 4);
        c.insert("v", 0, level(0.0));
        assert!(c.get_assignment("v", 1).is_none(), "LRU table evicted");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn zero_capacity_disables() {
        let c = LevelCache::new(0);
        assert!(!c.enabled());
        c.insert("v", 0, level(0.0));
        assert!(c.get("v", 0).is_none());
        assert_eq!(c.len(), 0);
    }
}
