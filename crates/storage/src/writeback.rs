//! Per-tier write-behind queues for the streaming write path.
//!
//! The streaming write decides a block's tier as soon as the block is
//! encoded, but hands the device write to a per-tier worker so placement
//! of the next block never waits on tier bandwidth. The landing ledger
//! keeps those decisions within capacity while blocks are in flight:
//! bytes are reserved at decision time (atomically with the decision,
//! under the ledger lock) and released only when the device write lands,
//! so `available - pending` always equals `capacity - (bytes decided so
//! far)`. Placing through the ledger is therefore equivalent to placing
//! one block at a time — [`choose_tier`](crate::placement::choose_tier)
//! with nothing pending, then the device write — and that oracle lives
//! in the tests.
//!
//! The commit barrier ([`WriteBehind::finish`]) drains every queue and
//! joins the workers — the "fsync" after which the caller may publish a
//! manifest knowing all tiers have landed. [`WriteBehind::undo`] is the
//! way back: it removes exactly what landed.

use crate::clock::SimDuration;
use crate::error::StorageError;
use crate::hierarchy::StorageHierarchy;
use bytes::Bytes;
use canopus_obs::{names, Gauge};
use crossbeam::channel::{self, Sender};
use parking_lot::Mutex;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

struct Job {
    key: String,
    data: Bytes,
    /// When the block entered the queue — worker pickup records the
    /// wait under [`names::WRITEBACK_QUEUE_WAIT_HIST`].
    enqueued: Instant,
}

struct Ledger {
    /// `pending[tier]` = bytes decided for the tier but not yet landed.
    pending: Vec<u64>,
    /// `(tier, key)` of every block that landed, in landing order.
    landed: Vec<(usize, String)>,
    /// The first failed device write; its worker stopped there.
    failed: Option<StorageError>,
}

/// One write-behind worker (plus bounded queue) per tier of a shared
/// hierarchy, with the landing ledger the streaming placer reads.
pub struct WriteBehind {
    hierarchy: Arc<StorageHierarchy>,
    senders: Vec<Sender<Job>>,
    workers: Vec<JoinHandle<Result<SimDuration, StorageError>>>,
    ledger: Arc<Mutex<Ledger>>,
    occupancy: Vec<(Arc<Gauge>, Arc<Gauge>)>,
}

impl WriteBehind {
    /// Spawn one worker per tier, each draining a queue bounded at
    /// `queue_depth` blocks (backpressure for the producing pipeline).
    pub fn new(hierarchy: Arc<StorageHierarchy>, queue_depth: usize) -> Self {
        let ntiers = hierarchy.num_tiers();
        let ledger = Arc::new(Mutex::new(Ledger {
            pending: vec![0; ntiers],
            landed: Vec::new(),
            failed: None,
        }));
        let obs = Arc::clone(hierarchy.metrics());
        let mut senders = Vec::with_capacity(ntiers);
        let mut workers = Vec::with_capacity(ntiers);
        let mut occupancy = Vec::with_capacity(ntiers);
        for tier in 0..ntiers {
            let (tx, rx) = channel::bounded::<Job>(queue_depth.max(1));
            let h = Arc::clone(&hierarchy);
            let ledger = Arc::clone(&ledger);
            let gauge = obs.gauge(&names::writeback_occupancy(tier));
            let worker_gauge = Arc::clone(&gauge);
            let queue_wait = obs.histogram(names::WRITEBACK_QUEUE_WAIT_HIST);
            workers.push(std::thread::spawn(move || {
                let mut io = SimDuration::ZERO;
                while let Ok(job) = rx.recv() {
                    queue_wait.observe_secs(job.enqueued.elapsed().as_secs_f64());
                    let len = job.data.len() as u64;
                    // Landing is atomic w.r.t. placement decisions: the
                    // device write and the reservation release happen
                    // under the same lock the placer reads through.
                    let written = {
                        let mut ledger = ledger.lock();
                        let r = h.write_to_tier(tier, &job.key, job.data);
                        ledger.pending[tier] = ledger.pending[tier].saturating_sub(len);
                        match &r {
                            Ok(_) => ledger.landed.push((tier, job.key)),
                            Err(e) => _ = ledger.failed.get_or_insert_with(|| e.clone()),
                        }
                        r
                    };
                    worker_gauge.sub(1);
                    io += written?;
                }
                Ok(io)
            }));
            senders.push(tx);
            occupancy.push((gauge, obs.gauge(&names::writeback_occupancy_peak(tier))));
        }
        Self {
            hierarchy,
            senders,
            workers,
            ledger,
            occupancy,
        }
    }

    /// Run a placement decision against a frozen view of the landing
    /// ledger and reserve the chosen tier's bytes atomically with it.
    /// `decide` receives `pending(tier)` — decided-but-unlanded bytes.
    pub fn reserve_with(
        &self,
        len: u64,
        decide: impl FnOnce(&dyn Fn(usize) -> u64) -> Result<usize, StorageError>,
    ) -> Result<usize, StorageError> {
        let mut ledger = self.ledger.lock();
        let pending = ledger.pending.clone();
        let tier = decide(&|t| pending[t])?;
        ledger.pending[tier] += len;
        Ok(tier)
    }

    /// Queue a block for its (already reserved) tier. Blocks when the
    /// tier's queue is full — the pipeline's backpressure. Once the
    /// tier's worker has stopped on a failed device write, the enqueue
    /// fails with the first failed write's own error.
    pub fn enqueue(&self, tier: usize, key: String, data: Bytes) -> Result<(), StorageError> {
        let (gauge, peak) = &self.occupancy[tier];
        gauge.add(1);
        peak.set_max(gauge.get());
        let job = Job {
            key,
            data,
            enqueued: Instant::now(),
        };
        if self.senders[tier].send(job).is_err() {
            gauge.sub(1);
            return Err(self.ledger.lock().failed.clone().unwrap_or_else(|| {
                StorageError::PlacementFailed(format!(
                    "write-behind worker for tier {tier} panicked"
                ))
            }));
        }
        Ok(())
    }

    /// The commit barrier: close every queue, wait for all tiers to
    /// land, and return the summed simulated write time (or the first
    /// worker error).
    pub fn finish(&mut self) -> Result<SimDuration, StorageError> {
        self.senders.clear();
        let mut io = SimDuration::ZERO;
        let mut first_err = None;
        for w in self.workers.drain(..) {
            let landed = w.join().unwrap_or_else(|_| {
                Err(StorageError::PlacementFailed(
                    "write-behind worker panicked".into(),
                ))
            });
            match landed {
                Ok(dt) => io += dt,
                Err(e) => _ = first_err.get_or_insert(e),
            }
        }
        first_err.map_or(Ok(io), Err)
    }

    /// Abandon the write: wait for the workers, then remove every block
    /// that landed from the tier it landed on — through that tier's own
    /// device, so an object under the same key on another tier stays.
    pub fn undo(&mut self) {
        let _ = self.finish();
        let landed = std::mem::take(&mut self.ledger.lock().landed);
        for (tier, key) in landed {
            if let Ok(device) = self.hierarchy.tier_device(tier) {
                let _ = device.remove(&key);
            }
        }
    }
}

impl Drop for WriteBehind {
    /// Abandoned queues still drain and join their workers so no thread
    /// outlives them.
    fn drop(&mut self) {
        let _ = self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tier::TierSpec;

    fn hierarchy() -> Arc<StorageHierarchy> {
        Arc::new(StorageHierarchy::new(vec![
            TierSpec::new("fast", 1000, 1000.0, 1000.0, 0.0),
            TierSpec::new("slow", 10_000, 10.0, 10.0, 0.01),
        ]))
    }

    #[test]
    fn queued_writes_land_and_sum_sim_time() {
        let h = hierarchy();
        let mut wb = WriteBehind::new(Arc::clone(&h), 4);
        wb.enqueue(0, "a".into(), Bytes::from(vec![1u8; 100]))
            .unwrap();
        wb.enqueue(1, "b".into(), Bytes::from(vec![2u8; 100]))
            .unwrap();
        let io = wb.finish().unwrap();
        // 100/1000 + 0.01 + 100/10 summed regardless of landing order.
        assert!((io.seconds() - (0.1 + 10.0 + 0.01)).abs() < 1e-9);
        assert_eq!(h.read("a").unwrap().1, 0);
        assert_eq!(h.read("b").unwrap().1, 1);
    }

    #[test]
    fn ledger_reserves_until_landing() {
        let h = hierarchy();
        let mut wb = WriteBehind::new(Arc::clone(&h), 4);
        let tier = wb
            .reserve_with(900, |pending| {
                assert_eq!(pending(0), 0);
                Ok(0)
            })
            .unwrap();
        assert_eq!(tier, 0);
        // A second decision sees the 900 reserved bytes even though
        // nothing was enqueued yet — tier 0 appears full.
        wb.reserve_with(200, |pending| {
            assert_eq!(pending(0), 900);
            Ok(1)
        })
        .unwrap();
        wb.enqueue(0, "a".into(), Bytes::from(vec![0u8; 900]))
            .unwrap();
        wb.enqueue(1, "b".into(), Bytes::from(vec![0u8; 200]))
            .unwrap();
        wb.finish().unwrap();
        assert_eq!(h.tier_device(0).unwrap().available(), 100);
    }

    #[test]
    fn occupancy_gauges_drain_to_zero() {
        let h = hierarchy();
        let mut wb = WriteBehind::new(Arc::clone(&h), 4);
        for i in 0..5 {
            wb.enqueue(1, format!("k{i}"), Bytes::from(vec![0u8; 10]))
                .unwrap();
        }
        wb.finish().unwrap();
        let obs = h.metrics();
        assert_eq!(obs.gauge(&names::writeback_occupancy(1)).get(), 0);
        assert!(obs.gauge(&names::writeback_occupancy_peak(1)).get() >= 1);
    }

    #[test]
    fn worker_error_surfaces_at_finish() {
        let h = hierarchy();
        let mut wb = WriteBehind::new(Arc::clone(&h), 4);
        // Oversized for tier 0's 1000 B: the device rejects it.
        wb.enqueue(0, "big".into(), Bytes::from(vec![0u8; 5000]))
            .unwrap();
        assert!(wb.finish().is_err());
    }

    #[test]
    fn enqueue_after_a_failed_write_returns_that_writes_error() {
        let h = hierarchy();
        let mut wb = WriteBehind::new(Arc::clone(&h), 4);
        wb.enqueue(0, "big".into(), Bytes::from(vec![0u8; 5000]))
            .unwrap();
        // The worker stops on the oversized block; the first enqueue
        // that finds it gone reports the device's refusal.
        let err = (0..10_000)
            .find_map(|i| {
                let r = wb.enqueue(0, format!("k{i}"), Bytes::from(vec![0u8; 10]));
                std::thread::sleep(std::time::Duration::from_millis(1));
                r.err()
            })
            .expect("the dead worker is noticed");
        assert!(
            matches!(err, StorageError::CapacityExceeded { .. }),
            "{err:?}"
        );
        assert_eq!(wb.finish().unwrap_err(), err, "finish reports it too");
    }

    #[test]
    fn undo_removes_exactly_what_landed() {
        let h = hierarchy();
        // A live object under the key the write will land on tier 1.
        h.write_to_tier(0, "a", Bytes::from(vec![7u8; 10])).unwrap();
        let mut wb = WriteBehind::new(Arc::clone(&h), 4);
        wb.enqueue(1, "a".into(), Bytes::from(vec![1u8; 100]))
            .unwrap();
        wb.enqueue(1, "b".into(), Bytes::from(vec![2u8; 100]))
            .unwrap();
        wb.undo();
        assert!(h.tier_device(1).unwrap().keys().is_empty());
        assert_eq!(h.tier_device(1).unwrap().used(), 0);
        assert_eq!(h.read("a").unwrap().0, Bytes::from(vec![7u8; 10]));
    }

    #[test]
    fn drop_without_finish_joins_workers() {
        let h = hierarchy();
        let wb = WriteBehind::new(Arc::clone(&h), 4);
        wb.enqueue(0, "a".into(), Bytes::from(vec![0u8; 10]))
            .unwrap();
        drop(wb);
        // The queued write still landed before the workers exited.
        assert!(h.read("a").is_ok());
    }
}
