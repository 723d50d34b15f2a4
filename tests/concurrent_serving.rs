//! Concurrent-serving equivalence: the shared service — many client
//! threads over one engine, a bounded queue, a worker pool and the
//! shared decoded-level cache — must be observationally identical to a
//! stepwise oracle answering the same requests one at a time on the
//! calling thread (`support::stepwise_restore` for levels). Concurrency
//! changes *when* work happens and *which* cache entry answers, never
//! *what* a request returns. A reserved quick lane additionally pins
//! the scheduling contract: a `QuickLook` admitted while deep restores
//! are running completes without waiting for them.

mod support;

use canopus::config::RelativeCodec;
use canopus::read::CanopusReader;
use canopus::{Canopus, CanopusConfig, CanopusService, Priority, ServeRequest, ServeResponse};
use canopus_data::{xgc1_dataset_sized, Dataset};
use canopus_mesh::geometry::{Aabb, Point2};
use canopus_obs::names;
use canopus_refactor::levels::RefactorConfig;
use canopus_storage::StorageHierarchy;
use std::sync::Arc;

const FILE: &str = "serve.bp";
const LEVELS: u32 = 4;

fn engine(ds: &Dataset, workers: u32) -> Canopus {
    let raw = (ds.data.len() * 8) as u64;
    let canopus = Canopus::new(
        Arc::new(StorageHierarchy::titan_two_tier(raw / 4, raw * 64)),
        CanopusConfig {
            refactor: RefactorConfig {
                num_levels: LEVELS,
                ..Default::default()
            },
            codec: RelativeCodec::Raw,
            serve_workers: workers,
            ..Default::default()
        },
    );
    canopus
        .write(FILE, ds.var, &ds.mesh, &ds.data)
        .expect("write");
    canopus
}

/// The oracle's reader: no cache.
fn uncached_reader(canopus: &Canopus) -> CanopusReader {
    canopus.open(FILE).expect("open").with_level_cache(0)
}

/// One of four quadrant windows of the dataset's bounding box.
fn quadrant(ds: &Dataset, which: u64) -> Aabb {
    let bb = ds.mesh.aabb();
    let cx = (bb.min.x + bb.max.x) / 2.0;
    let cy = (bb.min.y + bb.max.y) / 2.0;
    let (x0, y0) = match which % 4 {
        0 => (bb.min.x, bb.min.y),
        1 => (cx, bb.min.y),
        2 => (bb.min.x, cy),
        _ => (cx, cy),
    };
    Aabb::from_points([
        Point2::new(x0, y0),
        Point2::new(x0 + (cx - bb.min.x), y0 + (cy - bb.min.y)),
    ])
}

/// A fixed mixed request set covering every request kind, every level
/// and every region quadrant.
fn mixed_requests(ds: &Dataset) -> Vec<ServeRequest> {
    let mut requests = Vec::new();
    for round in 0..3u64 {
        requests.push(ServeRequest::Base {
            file: FILE.into(),
            var: ds.var.to_string(),
        });
        for level in 0..LEVELS {
            requests.push(ServeRequest::Level {
                file: FILE.into(),
                var: ds.var.to_string(),
                level,
            });
        }
        requests.push(ServeRequest::Region {
            file: FILE.into(),
            var: ds.var.to_string(),
            region: quadrant(ds, round),
        });
        requests.push(ServeRequest::Region {
            file: FILE.into(),
            var: ds.var.to_string(),
            region: quadrant(ds, round + 3),
        });
    }
    requests
}

/// What the stepwise oracle answers for `request`, on a fresh reader so
/// no cache state leaks between oracle calls.
fn oracle(canopus: &Canopus, request: &ServeRequest) -> ServeOracle {
    let reader = uncached_reader(canopus);
    match request {
        ServeRequest::Base { var, .. } => {
            let out = reader.read_base(var).expect("oracle base");
            ServeOracle {
                bits: out.data.iter().map(|v| v.to_bits()).collect(),
                achieved_level: out.achieved_level,
                degraded: out.degraded,
                chunks_read: None,
            }
        }
        ServeRequest::Level { var, level, .. } => {
            let out = support::stepwise_restore(canopus, FILE, var, *level);
            ServeOracle {
                bits: out.data.iter().map(|v| v.to_bits()).collect(),
                achieved_level: out.achieved_level,
                degraded: out.degraded,
                chunks_read: None,
            }
        }
        ServeRequest::Region { var, region, .. } => {
            let base = reader.read_base(var).expect("oracle region base");
            let (roi, stats) = reader
                .refine_region(var, &base, *region)
                .expect("oracle refine");
            ServeOracle {
                bits: roi.data.iter().map(|v| v.to_bits()).collect(),
                achieved_level: roi.achieved_level,
                degraded: roi.degraded,
                chunks_read: Some((stats.chunks_read, stats.chunks_total, stats.exact_vertices)),
            }
        }
    }
}

struct ServeOracle {
    bits: Vec<u64>,
    achieved_level: u32,
    degraded: bool,
    chunks_read: Option<(usize, usize, usize)>,
}

fn assert_matches_oracle(expected: &ServeOracle, got: &ServeResponse, what: &str) {
    let got_bits: Vec<u64> = got.outcome.data.iter().map(|v| v.to_bits()).collect();
    assert_eq!(expected.bits, got_bits, "{what}: data bytes diverge");
    assert_eq!(
        expected.achieved_level, got.outcome.achieved_level,
        "{what}: achieved_level diverges"
    );
    assert_eq!(
        expected.degraded, got.outcome.degraded,
        "{what}: degraded flag diverges"
    );
    match (&expected.chunks_read, &got.region_stats) {
        (None, None) => {}
        (Some((reads, total, exact)), Some(stats)) => {
            assert_eq!(*reads, stats.chunks_read, "{what}: chunks_read diverges");
            assert_eq!(*total, stats.chunks_total, "{what}: chunks_total diverges");
            assert_eq!(
                *exact, stats.exact_vertices,
                "{what}: exact_vertices diverges"
            );
        }
        _ => panic!("{what}: region stats presence diverges"),
    }
}

/// N client threads hammering the service with a mixed workload must
/// each get byte-identical answers to the stepwise oracle — for every
/// request kind, on a lossless codec, while the shared decoded-level
/// cache is live and contended.
#[test]
fn concurrent_mixed_workload_is_byte_identical_to_stepwise_oracle() {
    let ds = xgc1_dataset_sized(16, 80, 5);
    let canopus = Arc::new(engine(&ds, 4));
    let requests = mixed_requests(&ds);
    let oracles: Vec<ServeOracle> = requests.iter().map(|r| oracle(&canopus, r)).collect();

    let service = CanopusService::start(Arc::clone(&canopus));
    let clients = 4usize;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let service = &service;
                let requests = &requests;
                let oracles = &oracles;
                scope.spawn(move || {
                    // Each client walks the request set from a different
                    // offset, so at any instant different clients contend
                    // on different cache entries.
                    for k in 0..requests.len() {
                        let i = (k + c * 3) % requests.len();
                        let response = service
                            .submit(requests[i].clone())
                            .expect("submit")
                            .wait()
                            .expect("serve");
                        assert_matches_oracle(
                            &oracles[i],
                            &response,
                            &format!("client {c} request {i}"),
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread");
        }
    });
}

/// Cache-hit accounting stays symmetric under contention: with the
/// cache enabled, every base/level read probes exactly once, so
/// `hits + misses` equals the number of probing calls no matter how
/// the worker pool interleaves them. (Region refinement never probes —
/// only its embedded base read does.)
#[test]
fn cache_accounting_is_symmetric_under_contention() {
    let ds = xgc1_dataset_sized(12, 60, 9);
    let canopus = Arc::new(engine(&ds, 4));
    let requests = mixed_requests(&ds);
    let probing_calls = requests.len() as u64; // one probe per request
    let clients = 4u64;

    let service = CanopusService::start(Arc::clone(&canopus));
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let service = &service;
                let requests = &requests;
                scope.spawn(move || {
                    for r in requests.iter() {
                        service
                            .submit(r.clone())
                            .expect("submit")
                            .wait()
                            .expect("serve");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread");
        }
    });

    let obs = canopus.metrics();
    let hits = obs.counter(names::READ_CACHE_HITS).get();
    let misses = obs.counter(names::READ_CACHE_MISSES).get();
    assert_eq!(
        hits + misses,
        probing_calls * clients,
        "every probing call must record exactly one hit or miss (hits {hits}, misses {misses})"
    );
    assert!(misses >= 1, "cold start must miss at least once");
    assert!(
        hits > misses,
        "a repeated workload over a shared cache must mostly hit (hits {hits}, misses {misses})"
    );
}

/// The reserved quick lane, deterministically: with two workers, worker
/// 0 only ever runs `QuickLook` jobs. Fill the pool with full restores
/// — only worker 1 may take them, one at a time — then admit a quick
/// look. It must complete while full restores are still pending, i.e.
/// without waiting for the backlog.
#[test]
fn quick_look_admitted_during_full_restores_does_not_wait_for_them() {
    let ds = xgc1_dataset_sized(24, 120, 3);
    let canopus = Arc::new(engine(&ds, 2));
    let service = CanopusService::start(Arc::clone(&canopus));
    assert_eq!(service.workers(), 2);

    let fulls: Vec<_> = (0..6)
        .map(|_| {
            service
                .submit(ServeRequest::Level {
                    file: FILE.into(),
                    var: ds.var.to_string(),
                    level: 0,
                })
                .expect("submit full")
        })
        .collect();

    // Wait until the general worker has actually picked up a full
    // restore, so the quick look genuinely races running deep work.
    let obs = Arc::clone(service.metrics());
    let dequeued_full = obs.counter(&names::serve_dequeued("full"));
    while dequeued_full.get() == 0 {
        std::thread::yield_now();
    }

    let quick = service
        .submit(ServeRequest::Base {
            file: FILE.into(),
            var: ds.var.to_string(),
        })
        .expect("submit quick")
        .wait()
        .expect("quick look");
    assert_eq!(quick.priority, Priority::QuickLook);

    // At the moment the quick look completed, the full backlog must not
    // have drained: one worker serves six restores sequentially, and
    // the quick lane never queues behind it.
    let completed_full = obs.counter(&names::serve_completed("full")).get();
    assert!(
        completed_full < 6,
        "quick look waited for the full-restore backlog ({completed_full}/6 already done)"
    );

    for t in fulls {
        let r = t.wait().expect("full restore");
        assert_eq!(r.priority, Priority::FullAccuracy);
        assert_eq!(r.outcome.achieved_level, 0);
    }
}
