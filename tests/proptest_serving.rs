//! Property-based concurrency tests for the serving layer: whatever
//! random mix of requests, worker-pool size and cache configuration,
//! concurrent service answers must match a stepwise oracle — and dropping
//! a service with requests still queued must neither deadlock nor lose
//! an in-flight response.

mod support;

use canopus::config::RelativeCodec;
use canopus::{Canopus, CanopusConfig, CanopusService, ServeRequest};
use canopus_data::xgc1_dataset_sized;
use canopus_mesh::geometry::{Aabb, Point2};
use canopus_obs::names;
use canopus_refactor::levels::RefactorConfig;
use canopus_storage::StorageHierarchy;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const FILE: &str = "prop.bp";
const VAR: &str = "dpot";
const LEVELS: u32 = 3;

fn engine(workers: u32, cache: bool, seed: u64) -> Canopus {
    let ds = xgc1_dataset_sized(10, 50, seed);
    let raw = (ds.data.len() * 8) as u64;
    let config = CanopusConfig {
        refactor: RefactorConfig {
            num_levels: LEVELS,
            ..Default::default()
        },
        codec: RelativeCodec::Raw,
        serve_workers: workers,
        ..Default::default()
    };
    let config = if cache {
        config
    } else {
        CanopusConfig {
            level_cache: 0,
            ..config
        }
    };
    let canopus = Canopus::new(
        Arc::new(StorageHierarchy::titan_two_tier(raw / 4, raw * 64)),
        config,
    );
    canopus.write(FILE, VAR, &ds.mesh, &ds.data).expect("write");
    canopus
}

/// Decode one `(kind, level, quadrant)` triple into a request.
fn request_from(kind: u8, level: u32, quadrant: u8, bb: &Aabb) -> ServeRequest {
    match kind % 3 {
        0 => ServeRequest::Base {
            file: FILE.into(),
            var: VAR.into(),
        },
        1 => ServeRequest::Level {
            file: FILE.into(),
            var: VAR.into(),
            level: level % LEVELS,
        },
        _ => {
            let cx = (bb.min.x + bb.max.x) / 2.0;
            let cy = (bb.min.y + bb.max.y) / 2.0;
            let (x0, y0) = match quadrant % 4 {
                0 => (bb.min.x, bb.min.y),
                1 => (cx, bb.min.y),
                2 => (bb.min.x, cy),
                _ => (cx, cy),
            };
            ServeRequest::Region {
                file: FILE.into(),
                var: VAR.into(),
                region: Aabb::from_points([
                    Point2::new(x0, y0),
                    Point2::new(x0 + (cx - bb.min.x), y0 + (cy - bb.min.y)),
                ]),
            }
        }
    }
}

fn arb_requests() -> impl Strategy<Value = Vec<(u8, u32, u8)>> {
    proptest::collection::vec((0u8..3, 0u32..LEVELS, 0u8..4), 3..14)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random interleavings of concurrent readers — any request vector,
    /// worker count (0 = the default pool, one accuracy worker per core
    /// beside the quick lane) and cache setting — return byte-identical
    /// data to the stepwise oracle for every single request.
    #[test]
    fn concurrent_answers_match_stepwise_oracle(
        specs in arb_requests(),
        workers in 0u32..5,
        cache in any::<bool>(),
        seed in 0u64..100,
    ) {
        let canopus = Arc::new(engine(workers, cache, seed));
        let bb = canopus
            .open(FILE)
            .expect("open")
            .read_base(VAR)
            .expect("base")
            .mesh
            .aabb();
        let requests: Vec<ServeRequest> = specs
            .iter()
            .map(|&(k, l, q)| request_from(k, l, q, &bb))
            .collect();

        // Stepwise oracle: a fresh cache-less reader per request, levels
        // restored one `refine_region` step at a time.
        let expected: Vec<Vec<u64>> = requests
            .iter()
            .map(|r| {
                let reader = canopus.open(FILE).expect("open").with_level_cache(0);
                let out = match r {
                    ServeRequest::Base { var, .. } => reader.read_base(var).expect("oracle"),
                    ServeRequest::Level { var, level, .. } => {
                        support::stepwise_restore(&canopus, FILE, var, *level)
                    }
                    ServeRequest::Region { var, region, .. } => {
                        let base = reader.read_base(var).expect("oracle base");
                        reader.refine_region(var, &base, *region).expect("oracle").0
                    }
                };
                out.data.iter().map(|v| v.to_bits()).collect()
            })
            .collect();

        let service = CanopusService::start(Arc::clone(&canopus));
        // Submit everything up front from two client threads (even/odd
        // split), wait tickets in submission order: maximal overlap.
        let answers: Vec<(usize, Vec<u64>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2usize)
                .map(|parity| {
                    let service = &service;
                    let requests = &requests;
                    scope.spawn(move || {
                        let tickets: Vec<(usize, _)> = requests
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| i % 2 == parity)
                            .map(|(i, r)| (i, service.submit(r.clone()).expect("submit")))
                            .collect();
                        tickets
                            .into_iter()
                            .map(|(i, t)| {
                                let r = t.wait().expect("serve");
                                (i, r.outcome.data.iter().map(|v| v.to_bits()).collect())
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread"))
                .collect()
        });

        for (i, bits) in answers {
            prop_assert_eq!(
                &expected[i],
                &bits,
                "request {} diverged from the stepwise oracle",
                i
            );
        }
    }
}

/// Dropping a service with requests still queued neither deadlocks nor
/// loses in-flight responses: drop drains the queue, and every ticket
/// resolves.
#[test]
fn dropping_service_with_queued_requests_drains_them_all() {
    let canopus = Arc::new(engine(2, true, 17));
    let service = CanopusService::start(Arc::clone(&canopus));
    let tickets: Vec<_> = (0..12)
        .map(|i| {
            let request = if i % 3 == 0 {
                ServeRequest::Base {
                    file: FILE.into(),
                    var: VAR.into(),
                }
            } else {
                ServeRequest::Level {
                    file: FILE.into(),
                    var: VAR.into(),
                    level: 0,
                }
            };
            service.submit(request).expect("submit")
        })
        .collect();

    // Drop immediately: most of the twelve are still queued. Drop must
    // block until the workers drain them, then join.
    drop(service);

    for (i, t) in tickets.into_iter().enumerate() {
        let resolved = t
            .wait_timeout(Duration::from_secs(60))
            .unwrap_or_else(|| panic!("ticket {i} never resolved: response lost in shutdown"));
        let response = resolved.unwrap_or_else(|e| panic!("ticket {i} failed: {e}"));
        assert!(!response.outcome.data.is_empty());
    }

    // The engine outlives the service; its counters agree: everything
    // admitted was completed, nothing failed or was rejected.
    let obs = canopus.metrics();
    assert_eq!(obs.counter(names::SERVE_COMPLETED).get(), 12);
    assert_eq!(obs.counter(names::SERVE_FAILED).get(), 0);
}
