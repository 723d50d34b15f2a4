//! Property tests for the metrics registry under real concurrency.
//!
//! The registry's contract is that instruments are lock-free atomics:
//! updates racing from rayon worker threads must never be lost, and a
//! snapshot taken concurrently with writers reads each instrument at a
//! value it really held — monotone per instrument, with no ordering
//! promised between two instruments.

use canopus_obs::{names, Registry, RingBufferSink};
use proptest::prelude::*;
use rayon::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Counter increments from many rayon threads all land.
    fn concurrent_counter_updates_never_lost(
        threads_work in proptest::collection::vec(1u64..200, 2..16),
        per_update in 1u64..5,
    ) {
        let reg = Registry::new();
        let c = reg.counter("test.hits");
        threads_work.clone().into_par_iter().for_each(|n| {
            for _ in 0..n {
                c.add(per_update);
            }
        });
        let expect: u64 = threads_work.iter().sum::<u64>() * per_update;
        prop_assert_eq!(reg.snapshot().counter("test.hits"), expect);
    }

    /// Timer records from many rayon threads: counts and totals both
    /// accumulate exactly (nanosecond-integer arithmetic, no float
    /// carries to lose).
    fn concurrent_timer_updates_never_lost(
        records in proptest::collection::vec((1u64..50, 1u64..50), 2..12),
    ) {
        let reg = Registry::new();
        let t = reg.timer(names::READ_IO);
        records.clone().into_par_iter().for_each(|(wall_ms, sim_ms)| {
            t.record(wall_ms as f64 * 1e-3, sim_ms as f64 * 1e-3);
        });
        let stat = reg.snapshot().timer(names::READ_IO);
        prop_assert_eq!(stat.count, records.len() as u64);
        let wall_expect: f64 = records.iter().map(|&(w, _)| w as f64 * 1e-3).sum();
        let sim_expect: f64 = records.iter().map(|&(_, s)| s as f64 * 1e-3).sum();
        prop_assert!((stat.wall_secs - wall_expect).abs() < 1e-9,
            "wall {} != {}", stat.wall_secs, wall_expect);
        prop_assert!((stat.sim_secs - sim_expect).abs() < 1e-9,
            "sim {} != {}", stat.sim_secs, sim_expect);
    }

    /// Gauge add/sub pairs from racing threads cancel exactly.
    fn concurrent_gauge_balance(
        deltas in proptest::collection::vec(1i64..1000, 2..16),
    ) {
        let reg = Registry::new();
        let g = reg.gauge(names::WRITE_STAGE_DEPTH);
        deltas.clone().into_par_iter().for_each(|d| {
            g.add(d);
            g.sub(d);
        });
        prop_assert_eq!(reg.snapshot().gauge(names::WRITE_STAGE_DEPTH), 0);
    }

    /// What a snapshot taken while writers race does guarantee: every
    /// counter it reads is a value that counter held at some moment of
    /// the call, so across one observer's successive snapshots each
    /// counter only grows and never passes its final total, and a
    /// snapshot taken after the writers are done is exact. It does *not*
    /// order two counters against each other — instruments are read one
    /// by one, in the name map's hash order — so a writer that bumps
    /// `started` and then `finished` between the two reads can show
    /// `started < finished`; this property used to assert otherwise and
    /// failed for about half the per-registry hash seeds.
    fn snapshots_are_never_torn(
        writers in 2usize..8,
        updates in 10u64..200,
    ) {
        let reg = Arc::new(Registry::new());
        let started = reg.counter("test.started");
        let finished = reg.counter("test.finished");

        let observers: Vec<Vec<(u64, u64)>> = (0..writers + 2)
            .into_par_iter()
            .map(|worker| {
                if worker < writers {
                    for _ in 0..updates {
                        started.inc();
                        finished.inc();
                    }
                    Vec::new()
                } else {
                    // Two snapshotting observers racing the writers.
                    (0..updates)
                        .map(|_| {
                            let s = reg.snapshot();
                            (s.counter("test.started"), s.counter("test.finished"))
                        })
                        .collect()
                }
            })
            .collect();

        let expect = writers as u64 * updates;
        for seen in observers {
            for pair in seen.windows(2) {
                let ((s0, f0), (s1, f1)) = (pair[0], pair[1]);
                prop_assert!(s1 >= s0 && f1 >= f0,
                    "a counter went backwards: ({s0}, {f0}) then ({s1}, {f1})");
            }
            if let Some(&(s, f)) = seen.last() {
                prop_assert!(s <= expect && f <= expect,
                    "({s}, {f}) exceeds the final total {expect}");
            }
        }
        let final_snap = reg.snapshot();
        prop_assert_eq!(final_snap.counter("test.started"), expect);
        prop_assert_eq!(final_snap.counter("test.finished"), expect);
    }

    /// Registering the same name from many threads yields one shared
    /// instrument, not parallel universes that split the count.
    fn handle_registration_is_race_free(
        n in 2u64..64,
    ) {
        let reg = Registry::new();
        (0..n).into_par_iter().for_each(|_| {
            reg.counter("test.shared").inc();
        });
        prop_assert_eq!(reg.snapshot().counter("test.shared"), n);
    }

    /// Events emitted concurrently into the ring sink are all retained
    /// (when under capacity) and the snapshot drains them exactly once.
    fn ring_sink_retains_concurrent_events(
        n in 1usize..64,
    ) {
        let reg = Registry::new();
        reg.set_sink(Arc::new(RingBufferSink::with_capacity(1024)));
        (0..n).into_par_iter().for_each(|i| {
            reg.event("e", vec![("i".to_string(), canopus_obs::FieldValue::from(i))]);
        });
        let snap = reg.snapshot();
        prop_assert_eq!(snap.events.len(), n);
        prop_assert!(reg.snapshot().events.is_empty(), "drain happened twice");
    }
}
