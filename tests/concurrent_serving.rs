//! Concurrent-serving equivalence: the shared service — many client
//! threads over one engine, a bounded queue, a worker pool and the
//! shared decoded-level cache — must be observationally identical to a
//! stepwise oracle answering the same requests one at a time on the
//! calling thread (`support::stepwise_restore` for levels). Concurrency
//! changes *when* work happens and *which* cache entry answers, never
//! *what* a request returns. A reserved quick lane additionally pins
//! the scheduling contract: a `QuickLook` admitted while deep restores
//! are running completes without waiting for them. The default pool's
//! shape — one accuracy worker per core beside that lane — is pinned by
//! holding restores in flight and counting how many run at once.

mod support;

use canopus::config::RelativeCodec;
use canopus::read::CanopusReader;
use canopus::telemetry::http_get;
use canopus::{
    Canopus, CanopusConfig, CanopusService, FaultPlan, Priority, RetryPolicy, ServeRequest,
    ServeResponse, TelemetryConfig, TelemetryServer,
};
use canopus_data::{xgc1_dataset_sized, Dataset};
use canopus_mesh::geometry::{Aabb, Point2};
use canopus_obs::{json, names};
use canopus_refactor::levels::RefactorConfig;
use canopus_storage::{StorageHierarchy, TierSpec};
use std::sync::Arc;
use std::time::Duration;

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
/// the worker pool interleaves them. A region request probes twice: its
/// embedded base read, then the refined level — every window here
/// touches the one chunk a level is stored in, so each step is a full
/// refinement the level cache may answer.
#[test]
fn cache_accounting_is_symmetric_under_contention() {
    let ds = xgc1_dataset_sized(12, 60, 9);
    let canopus = Arc::new(engine(&ds, 4));
    let requests = mixed_requests(&ds);
    let regions = requests
        .iter()
        .filter(|r| matches!(r, ServeRequest::Region { .. }))
        .count();
    let probing_calls = (requests.len() + regions) as u64;
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
    // The queue has drained: every admitted request was either dequeued
    // by a worker or answered on arrival, and warm ones were.
    let mut on_arrival = 0;
    for class in ["quick", "full"] {
        let [requests, dequeued, arrived] = [
            names::serve_requests(class),
            names::serve_dequeued(class),
            names::serve_on_arrival(class),
        ]
        .map(|n| obs.counter(&n).get());
        assert_eq!(requests, dequeued + arrived, "{class}");
        on_arrival += arrived;
    }
    assert!(on_arrival > 0, "no warm request was answered on arrival");
}

/// Which way each request went, for one priority class:
/// (dequeued by a worker, answered on arrival).
fn routes(service: &CanopusService, class: &str) -> (u64, u64) {
    let obs = service.metrics();
    (
        obs.counter(&names::serve_dequeued(class)).get(),
        obs.counter(&names::serve_on_arrival(class)).get(),
    )
}

/// A request the shared reader's caches hold whole is answered on the
/// submitting thread (no queue wait) with what a worker would have
/// returned; a cold one, and one whose level the cache holds without
/// its coordinates, still goes through a worker.
#[test]
fn warm_requests_are_answered_on_arrival_and_the_rest_by_workers() {
    let ds = xgc1_dataset_sized(16, 80, 5);
    let canopus = Arc::new(engine(&ds, 2));
    let service = CanopusService::start(Arc::clone(&canopus));
    let var = ds.var.to_string();
    let level = |level| ServeRequest::Level {
        file: FILE.into(),
        var: var.clone(),
        level,
    };
    let region = ServeRequest::Region {
        file: FILE.into(),
        var: var.clone(),
        region: quadrant(&ds, 1),
    };
    let served = |request: &ServeRequest| {
        let response = service
            .submit(request.clone())
            .expect("submit")
            .wait()
            .expect("serve");
        assert_matches_oracle(&oracle(&canopus, request), &response, "served");
        response
    };

    // Cold: opening the file is I/O, so the walk runs on a worker. It
    // caches the levels it passes with their topology alone.
    served(&level(0));
    assert_eq!(routes(&service, "full"), (1, 0));
    let worked = served(&level(1));
    assert_eq!(routes(&service, "full"), (2, 0), "held without coordinates");
    let warm = served(&level(1));
    assert_eq!(routes(&service, "full"), (2, 1));
    assert_eq!(warm.queue_wait_s, 0.0);
    assert!(Arc::ptr_eq(&warm.outcome.data, &worked.outcome.data));

    let base = served(&ServeRequest::Base {
        file: FILE.into(),
        var: var.clone(),
    });
    assert_eq!(routes(&service, "quick"), (0, 1), "the walk's base");
    assert_eq!(base.queue_wait_s, 0.0);

    // The region step refines into level LEVELS - 2, which the walk
    // passed: a worker completes it from the cache, after which the
    // same request is answered on arrival with the same stats.
    let worked = served(&region);
    assert_eq!(routes(&service, "full"), (3, 1));
    let warm = served(&region);
    assert_eq!(routes(&service, "full"), (3, 2));
    assert_eq!(warm.queue_wait_s, 0.0);
    assert_eq!(warm.region_stats, worked.region_stats);
    assert_eq!(warm.region_stats.map(|s| s.chunks_cached), Some(1));
    assert!(Arc::ptr_eq(&warm.outcome.data, &worked.outcome.data));
}

/// An answer on arrival takes no queue slot: with every accuracy worker
/// inside a held restore and the admission queue full behind them, a
/// warm quick look is answered at once instead of blocking for a slot.
#[test]
fn a_warm_request_is_answered_while_the_queue_is_full() {
    let (canopus, requests) = held_restores(cores());
    let service = CanopusService::start(Arc::clone(&canopus));
    let warm = match &requests[0] {
        ServeRequest::Level { file, var, .. } => ServeRequest::Base {
            file: file.clone(),
            var: var.clone(),
        },
        _ => unreachable!("held restores are level requests"),
    };
    service
        .submit(warm.clone())
        .expect("submit")
        .wait()
        .expect("cold base");
    let obs = Arc::clone(service.metrics());
    let dequeued_full = obs.counter(&names::serve_dequeued("full"));
    let mut tickets: Vec<_> = requests
        .iter()
        .map(|r| service.submit(r.clone()).expect("submit held"))
        .collect();
    while dequeued_full.get() < cores() as u64 {
        std::thread::yield_now();
    }
    // The finest levels are not held yet: each of these is queued.
    for r in requests.iter().cycle().take(service.queue_capacity()) {
        tickets.push(service.submit(r.clone()).expect("submit queued"));
    }
    assert_eq!(
        obs.gauge(names::SERVE_QUEUE_DEPTH).get() as usize,
        service.queue_capacity()
    );

    let quick = service
        .submit(warm)
        .expect("submit warm")
        .wait()
        .expect("warm base");
    assert_eq!(quick.queue_wait_s, 0.0);
    assert_eq!(
        obs.counter(&names::serve_completed("full")).get(),
        0,
        "the warm request waited for a queue slot"
    );
    assert_eq!(routes(&service, "quick"), (1, 1));
    for t in tickets {
        let r = t.wait().expect("full restore");
        assert_eq!(r.outcome.achieved_level, 0);
    }
}

/// The reserved quick lane, deterministically: with two workers, worker
/// 0 only ever runs `QuickLook` jobs. Fill the pool with full restores
/// — only worker 1 may take them, one at a time — then admit a quick
/// look. It must complete while full restores are still pending, i.e.
/// without waiting for the backlog. The first restore is held by a
/// fault backoff, so the backlog is still there however the threads
/// are scheduled, and with the level cache off each of the six is a
/// restore of its own and the quick look a miss for the lane.
#[test]
fn quick_look_admitted_during_full_restores_does_not_wait_for_them() {
    let (canopus, requests) = held_restores_with(
        1,
        CanopusConfig {
            serve_workers: 2,
            level_cache: 0,
            ..Default::default()
        },
    );
    let service = CanopusService::start(Arc::clone(&canopus));
    assert_eq!(service.workers(), 2);
    let (full, quick) = match &requests[0] {
        ServeRequest::Level { file, var, .. } => (
            requests[0].clone(),
            ServeRequest::Base {
                file: file.clone(),
                var: var.clone(),
            },
        ),
        _ => unreachable!("held restores are level requests"),
    };

    let fulls: Vec<_> = (0..6)
        .map(|_| service.submit(full.clone()).expect("submit full"))
        .collect();

    // Wait until the general worker has actually picked up a full
    // restore, so the quick look genuinely races running deep work.
    let obs = Arc::clone(service.metrics());
    let dequeued_full = obs.counter(&names::serve_dequeued("full"));
    while dequeued_full.get() == 0 {
        std::thread::yield_now();
    }

    let quick = service
        .submit(quick)
        .expect("submit quick")
        .wait()
        .expect("quick look");
    assert_eq!(quick.priority, Priority::QuickLook);
    assert_eq!(routes(&service, "quick"), (1, 0), "served by the lane");

    // At the moment the quick look completed, the full backlog must not
    // have drained: one worker serves six restores sequentially, and
    // the quick lane never queues behind it.
    let completed_full = obs.counter(&names::serve_completed("full")).get();
    assert_eq!(
        completed_full, 0,
        "quick look waited for the full-restore backlog ({completed_full}/6 already done)"
    );

    for t in fulls {
        let r = t.wait().expect("full restore");
        assert_eq!(r.priority, Priority::FullAccuracy);
        assert_eq!(r.outcome.achieved_level, 0);
    }
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `files` copies of a small variable, each file's finest delta alone
/// on a spare tier whose first `files` operations fail, and one
/// full-accuracy request per file. A restore's first fetch of that
/// delta meets the outage and sleeps out a retry backoff of 0.5–1 s
/// before its next attempt succeeds, so every restore a worker has
/// picked up is still running half a second later on any host.
fn held_restores(files: usize) -> (Arc<Canopus>, Vec<ServeRequest>) {
    held_restores_with(files, CanopusConfig::default())
}

/// [`held_restores`] on an engine with `config`'s pool and cache.
fn held_restores_with(files: usize, config: CanopusConfig) -> (Arc<Canopus>, Vec<ServeRequest>) {
    let ds = xgc1_dataset_sized(8, 40, 3);
    let spare = 3;
    let tiers = (0..=spare)
        .map(|i| TierSpec::new(format!("t{i}"), 1 << 26, 1e8, 1e8, 1e-4))
        .collect();
    let canopus = Canopus::new(
        Arc::new(StorageHierarchy::new(tiers)),
        CanopusConfig {
            refactor: RefactorConfig {
                num_levels: 3,
                ..Default::default()
            },
            codec: RelativeCodec::Raw,
            retry: RetryPolicy {
                base_backoff_s: 1.0,
                max_backoff_s: 1.0,
                ..RetryPolicy::new()
            },
            ..config
        },
    );
    let requests = (0..files)
        .map(|i| {
            let file = format!("held{i}.bp");
            canopus
                .write(&file, ds.var, &ds.mesh, &ds.data)
                .expect("write");
            let reader = canopus.open(&file).expect("open");
            let var = reader.file().inq_var(ds.var).expect("variable");
            let finest = var.delta_shards_to(0)[0].key.clone();
            support::move_to_tier(canopus.hierarchy(), &finest, spare);
            ServeRequest::Level {
                file,
                var: ds.var.to_string(),
                level: 0,
            }
        })
        .collect();
    canopus
        .hierarchy()
        .set_fault_plan(
            spare,
            FaultPlan {
                down: Some((0, files as u64)),
                ..FaultPlan::none()
            },
        )
        .expect("spare tier");
    (Arc::new(canopus), requests)
}

/// The default pool is one accuracy worker per core plus the reserved
/// lane, and `/healthz` expects exactly that many.
#[test]
fn default_pool_is_a_worker_per_core_beside_the_quick_lane() {
    let ds = xgc1_dataset_sized(8, 40, 3);
    let service = CanopusService::start(Arc::new(engine(&ds, 0)));
    assert_eq!(service.workers(), cores() + 1);
    let server = TelemetryServer::start(
        "127.0.0.1:0",
        service.telemetry_sources(),
        TelemetryConfig::default(),
    )
    .expect("telemetry endpoint");
    let (status, body) =
        http_get(server.addr(), "/healthz", Duration::from_secs(5)).expect("/healthz");
    assert_eq!(status, 200, "{body}");
    let health = json::parse(&body).expect("json");
    for field in ["workers_expected", "workers_alive"] {
        assert_eq!(
            health.get(field).and_then(json::Value::as_i64),
            Some(cores() as i64 + 1),
            "{field}: {body}"
        );
    }
}

/// As many accuracy requests as there are cores, admitted at once, all
/// run together: every one is dequeued before any completes.
#[test]
fn one_accuracy_request_per_core_runs_at_once_in_the_default_pool() {
    let (canopus, requests) = held_restores(cores());
    let service = CanopusService::start(Arc::clone(&canopus));
    let obs = Arc::clone(service.metrics());
    let dequeued = obs.counter(&names::serve_dequeued("full"));
    let completed = obs.counter(&names::serve_completed("full"));
    let tickets: Vec<_> = requests
        .into_iter()
        .map(|r| service.submit(r).expect("submit"))
        .collect();
    // `dequeued` is read before `completed`: a zero read second was
    // zero when the first was read, so at that instant `running`
    // requests were in flight together.
    loop {
        let running = dequeued.get();
        let done = completed.get();
        assert_eq!(
            done,
            0,
            "a restore finished while only {running} of {} had started",
            cores()
        );
        if running == cores() as u64 {
            break;
        }
        std::thread::yield_now();
    }
    for t in tickets {
        let r = t.wait().expect("restore");
        assert_eq!(r.outcome.achieved_level, 0);
        assert!(
            !r.outcome.degraded,
            "one outage per restore fits the budget"
        );
    }
}

/// The reserved lane in the default pool: with every accuracy worker
/// inside a held restore and a backlog queued behind them, a quick look
/// completes before any of the restores does.
#[test]
fn quick_look_admitted_while_every_accuracy_worker_restores_does_not_wait() {
    let (canopus, requests) = held_restores(cores());
    let service = CanopusService::start(Arc::clone(&canopus));
    assert_eq!(service.workers(), cores() + 1);
    let quick = match &requests[0] {
        ServeRequest::Level { file, var, .. } => ServeRequest::Base {
            file: file.clone(),
            var: var.clone(),
        },
        _ => unreachable!("held restores are level requests"),
    };
    let fulls: Vec<_> = requests
        .iter()
        .chain(&requests)
        .map(|r| service.submit(r.clone()).expect("submit full"))
        .collect();

    // Wait until every accuracy worker has picked up a held restore.
    let obs = Arc::clone(service.metrics());
    let dequeued_full = obs.counter(&names::serve_dequeued("full"));
    while dequeued_full.get() < cores() as u64 {
        std::thread::yield_now();
    }

    let quick = service
        .submit(quick)
        .expect("submit quick")
        .wait()
        .expect("quick look");
    assert_eq!(quick.priority, Priority::QuickLook);
    let completed_full = obs.counter(&names::serve_completed("full")).get();
    assert_eq!(
        completed_full, 0,
        "quick look waited for an accuracy worker ({completed_full} restores already done)"
    );

    for t in fulls {
        let r = t.wait().expect("full restore");
        assert_eq!(r.priority, Priority::FullAccuracy);
        assert_eq!(r.outcome.achieved_level, 0);
    }
}
