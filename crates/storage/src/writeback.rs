//! Per-tier write-behind queues for the streaming write path.
//!
//! The streaming write decides a block's tier as soon as the block is
//! encoded, but hands the device write to a per-tier worker so placement
//! of the next block never waits on tier bandwidth. The hierarchy's
//! reservation ledger keeps those decisions within capacity while
//! blocks are in flight, across every write into the hierarchy: bytes
//! are reserved at decision time (atomically with the decision,
//! [`StorageHierarchy::reserve_with`]), travel with the block as its
//! [`Reservation`], and are released when the device write lands
//! ([`StorageHierarchy::land_reserved`]) or the block is given up, so
//! `available - reserved` always equals `capacity - (bytes decided so
//! far)`. Placing through the ledger is therefore equivalent to placing
//! one block at a time — [`choose_tier`](crate::placement::choose_tier)
//! with nothing reserved, then the device write — and that oracle lives
//! in the tests.
//!
//! The commit barrier ([`WriteBehind::finish`]) drains every queue and
//! joins the workers — the "fsync" after which the caller may publish a
//! manifest knowing all tiers have landed. [`WriteBehind::undo`] is the
//! way back: it removes exactly what landed.

use crate::clock::SimDuration;
use crate::error::StorageError;
use crate::hierarchy::{Reservation, StorageHierarchy};
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
    /// The block's bytes on its tier; dropped with a job that does not
    /// land, which gives them back.
    reservation: Reservation,
    /// When the block entered the queue — worker pickup records the
    /// wait under [`names::WRITEBACK_QUEUE_WAIT_HIST`].
    enqueued: Instant,
}

/// What one write has landed, for [`WriteBehind::undo`].
struct Ledger {
    /// `(tier, key)` of every block that landed, in landing order.
    landed: Vec<(usize, String)>,
    /// The first failed device write. Once it is set no worker of the
    /// write starts another landing, on any tier (one already under way
    /// may finish; [`WriteBehind::undo`] removes it with the rest).
    failed: Option<StorageError>,
}

/// One write-behind worker (plus bounded queue) per tier of a shared
/// hierarchy, with the write's own record of what landed.
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
                let mut failed = None;
                while let Ok(job) = rx.recv() {
                    queue_wait.observe_secs(job.enqueued.elapsed().as_secs_f64());
                    // A write that failed lands nothing more: dropping
                    // the job gives its reservation back to every writer.
                    if ledger.lock().failed.is_none() {
                        match h.land_reserved(job.reservation, &job.key, job.data) {
                            Ok(dt) => {
                                io += dt;
                                ledger.lock().landed.push((tier, job.key));
                            }
                            Err(e) => {
                                ledger.lock().failed.get_or_insert_with(|| e.clone());
                                failed = Some(e);
                            }
                        }
                    }
                    worker_gauge.sub(1);
                }
                failed.map_or(Ok(io), Err)
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

    /// Queue a block for the tier `reservation` holds its bytes on
    /// ([`StorageHierarchy::reserve_with`]). Blocks when the tier's
    /// queue is full — the pipeline's backpressure. Once a device write
    /// of this write has failed, the enqueue fails with that write's own
    /// error and gives the block's reservation back.
    pub fn enqueue(
        &self,
        reservation: Reservation,
        key: String,
        data: Bytes,
    ) -> Result<(), StorageError> {
        if let Some(e) = self.ledger.lock().failed.clone() {
            return Err(e);
        }
        let tier = reservation.tier();
        let (gauge, peak) = &self.occupancy[tier];
        gauge.add(1);
        peak.set_max(gauge.get());
        let job = Job {
            key,
            data,
            reservation,
            enqueued: Instant::now(),
        };
        if self.senders[tier].send(job).is_err() {
            gauge.sub(1);
            return Err(StorageError::PlacementFailed(format!(
                "write-behind worker for tier {tier} panicked"
            )));
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

    /// `len` bytes reserved on `tier`, whatever room it has.
    fn reserve(h: &StorageHierarchy, tier: usize, len: usize) -> Reservation {
        h.reserve_with(len as u64, |_| Ok(tier)).unwrap()
    }

    /// Queue `len` bytes of `fill` under `key` for `tier`, reserved.
    fn enqueue(
        wb: &WriteBehind,
        h: &StorageHierarchy,
        tier: usize,
        key: &str,
        len: usize,
        fill: u8,
    ) -> Result<(), StorageError> {
        wb.enqueue(
            reserve(h, tier, len),
            key.into(),
            Bytes::from(vec![fill; len]),
        )
    }

    /// The bytes reserved on each tier right now.
    fn reserved(h: &StorageHierarchy) -> Vec<u64> {
        let mut out = Vec::new();
        h.reserve_with(0, |reserved| {
            out = (0..h.num_tiers()).map(reserved).collect();
            Ok(0)
        })
        .unwrap();
        out
    }

    #[test]
    fn queued_writes_land_and_sum_sim_time() {
        let h = hierarchy();
        let mut wb = WriteBehind::new(Arc::clone(&h), 4);
        enqueue(&wb, &h, 0, "a", 100, 1).unwrap();
        enqueue(&wb, &h, 1, "b", 100, 2).unwrap();
        let io = wb.finish().unwrap();
        // 100/1000 + 0.01 + 100/10 summed regardless of landing order.
        assert!((io.seconds() - (0.1 + 10.0 + 0.01)).abs() < 1e-9);
        assert_eq!(h.read("a").unwrap().1, 0);
        assert_eq!(h.read("b").unwrap().1, 1);
    }

    #[test]
    fn the_ledger_reserves_across_writes_until_landing() {
        let h = hierarchy();
        let mut first = WriteBehind::new(Arc::clone(&h), 4);
        let mut second = WriteBehind::new(Arc::clone(&h), 4);
        let a = h
            .reserve_with(900, |reserved| {
                assert_eq!(reserved(0), 0);
                Ok(0)
            })
            .unwrap();
        assert_eq!(a.tier(), 0);
        // Another write's decision sees the 900 reserved bytes even
        // though nothing was enqueued yet — tier 0 appears full.
        let b = h
            .reserve_with(200, |reserved| {
                assert_eq!(reserved(0), 900);
                Ok(1)
            })
            .unwrap();
        first
            .enqueue(a, "a".into(), Bytes::from(vec![0u8; 900]))
            .unwrap();
        second
            .enqueue(b, "b".into(), Bytes::from(vec![0u8; 200]))
            .unwrap();
        first.finish().unwrap();
        second.finish().unwrap();
        assert_eq!(h.tier_device(0).unwrap().available(), 100);
        // Landing released both reservations.
        assert_eq!(reserved(&h), [0, 0]);
    }

    #[test]
    fn a_reservation_lands_only_its_own_block_and_drops_back() {
        let h = hierarchy();
        let unused = reserve(&h, 0, 300);
        assert_eq!(reserved(&h), [300, 0]);
        drop(unused);
        assert_eq!(reserved(&h), [0, 0], "dropped unused, given back");
        // A block of another length is refused, its reservation freed.
        let err = h
            .land_reserved(reserve(&h, 0, 300), "a", Bytes::from(vec![0u8; 200]))
            .unwrap_err();
        assert!(matches!(err, StorageError::PlacementFailed(_)), "{err:?}");
        // So is a reservation of another hierarchy's ledger.
        let other = hierarchy();
        let err = h
            .land_reserved(reserve(&other, 0, 10), "a", Bytes::from(vec![0u8; 10]))
            .unwrap_err();
        assert!(matches!(err, StorageError::PlacementFailed(_)), "{err:?}");
        assert_eq!((reserved(&h), reserved(&other)), (vec![0, 0], vec![0, 0]));
        assert!(h.tier_device(0).unwrap().keys().is_empty());
    }

    #[test]
    fn a_failed_write_gives_its_reservations_back() {
        let h = hierarchy();
        let mut wb = WriteBehind::new(Arc::clone(&h), 4);
        // Reserved past the device's room: the device refuses it, and
        // the block queued behind it lands nothing.
        for (key, len) in [("big", 5000), ("next", 10)] {
            // Refused once the failure is seen, which releases it too.
            let _ = enqueue(&wb, &h, 0, key, len, 0);
        }
        assert!(wb.finish().is_err());
        assert!(h.tier_device(0).unwrap().keys().is_empty());
        assert_eq!(reserved(&h), [0, 0], "every reservation released");
    }

    #[test]
    fn occupancy_gauges_drain_to_zero() {
        let h = hierarchy();
        let mut wb = WriteBehind::new(Arc::clone(&h), 4);
        for i in 0..5 {
            enqueue(&wb, &h, 1, &format!("k{i}"), 10, 0).unwrap();
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
        enqueue(&wb, &h, 0, "big", 5000, 0).unwrap();
        assert!(wb.finish().is_err());
    }

    #[test]
    fn enqueue_after_a_failed_write_returns_that_writes_error() {
        let h = hierarchy();
        let mut wb = WriteBehind::new(Arc::clone(&h), 4);
        enqueue(&wb, &h, 0, "big", 5000, 0).unwrap();
        // The worker stops on the oversized block; the first enqueue
        // that finds it gone reports the device's refusal.
        let err = (0..10_000)
            .find_map(|i| {
                let r = enqueue(&wb, &h, 0, &format!("k{i}"), 10, 0);
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
        enqueue(&wb, &h, 1, "a", 100, 1).unwrap();
        enqueue(&wb, &h, 1, "b", 100, 2).unwrap();
        wb.undo();
        assert!(h.tier_device(1).unwrap().keys().is_empty());
        assert_eq!(h.tier_device(1).unwrap().used(), 0);
        assert_eq!(h.read("a").unwrap().0, Bytes::from(vec![7u8; 10]));
    }

    #[test]
    fn drop_without_finish_joins_workers() {
        let h = hierarchy();
        let wb = WriteBehind::new(Arc::clone(&h), 4);
        enqueue(&wb, &h, 0, "a", 10, 0).unwrap();
        drop(wb);
        // The queued write still landed before the workers exited.
        assert!(h.read("a").is_ok());
    }
}
