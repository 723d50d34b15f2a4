//! Live telemetry plane, end to end: a real `CanopusService` behind the
//! embedded scrape endpoint. These tests pin the route surface on an
//! ephemeral port (`/metrics`, `/metrics.json`, `/healthz`, `/slo`),
//! the exactness of the SLO accounting under forced deadlines, the
//! zero-overhead contract when the plane is disabled (mirroring
//! `tests/observability.rs`'s disabled-sink pattern), and the rolling
//! window's bracketing of served work.

use canopus::config::RelativeCodec;
use canopus::telemetry::http_get;
use canopus::{
    Canopus, CanopusConfig, CanopusService, Priority, ServeOptions, ServeRequest, TelemetryConfig,
    TelemetryServer,
};
use canopus_data::{xgc1_dataset_sized, Dataset};
use canopus_obs::{json, names, RollingWindow, WindowConfig};
use canopus_refactor::levels::RefactorConfig;
use canopus_storage::StorageHierarchy;
use std::sync::Arc;
use std::time::Duration;

const FILE: &str = "telemetry.bp";
const TIMEOUT: Duration = Duration::from_secs(5);

fn engine(ds: &Dataset) -> Canopus {
    let raw = (ds.data.len() * 8) as u64;
    let canopus = Canopus::new(
        Arc::new(StorageHierarchy::titan_two_tier(raw / 4, raw * 64)),
        CanopusConfig {
            refactor: RefactorConfig {
                num_levels: 3,
                ..Default::default()
            },
            codec: RelativeCodec::Raw,
            serve_workers: 2,
            ..Default::default()
        },
    );
    canopus
        .write(FILE, ds.var, &ds.mesh, &ds.data)
        .expect("write");
    canopus
}

fn quick() -> ServeRequest {
    ServeRequest::Base {
        file: FILE.into(),
        var: "dpot".into(),
    }
}

fn get(server: &TelemetryServer, path: &str) -> (u16, String) {
    http_get(server.addr(), path, TIMEOUT).expect("scrape")
}

fn get_json(server: &TelemetryServer, path: &str) -> json::Value {
    let (status, body) = get(server, path);
    assert_eq!(status, 200, "{path} must answer 200, body: {body}");
    json::parse(&body).unwrap_or_else(|e| panic!("{path} must be JSON ({e:?}): {body}"))
}

/// Every route answers on an ephemeral port while a real service runs
/// behind it, and the payloads agree with the service's own counters.
#[test]
fn endpoint_serves_full_route_surface_against_live_service() {
    let ds = xgc1_dataset_sized(16, 80, 5);
    let canopus = Arc::new(engine(&ds));
    let service = CanopusService::start(Arc::clone(&canopus));
    service.enable_live_telemetry();
    let mut server = TelemetryServer::start(
        "127.0.0.1:0",
        service.telemetry_sources(),
        TelemetryConfig::default(),
    )
    .expect("bind telemetry endpoint");

    let quick_n = 6u64;
    for _ in 0..quick_n {
        service
            .submit(quick())
            .expect("submit")
            .wait()
            .expect("serve");
    }
    service
        .submit(ServeRequest::Level {
            file: FILE.into(),
            var: ds.var.to_string(),
            level: 0,
        })
        .expect("submit")
        .wait()
        .expect("serve");

    // `/healthz`: liveness derived from gauges, shaped by the pool.
    let health = get_json(&server, "/healthz");
    assert_eq!(
        health.get("status").and_then(json::Value::as_str),
        Some("ok")
    );
    assert_eq!(
        health.get("workers_expected").and_then(json::Value::as_i64),
        Some(2)
    );
    assert_eq!(
        health.get("queue_depth").and_then(json::Value::as_i64),
        Some(0),
        "queue must be drained once every ticket resolved"
    );

    // `/metrics`: Prometheus text including the plane's own scrape
    // counter (this is the second GET, so it has already counted one).
    let (status, prom) = get(&server, "/metrics");
    assert_eq!(status, 200);
    assert!(prom.contains("canopus_serve_requests"), "{prom}");
    assert!(prom.contains("canopus_serve_on_arrival_quick"), "{prom}");
    assert!(prom.contains("canopus_telemetry_scrapes"), "{prom}");

    // `/metrics.json`: the full snapshot, parseable.
    let snap_doc = get_json(&server, "/metrics.json");
    assert!(snap_doc.as_obj().is_some());

    // `/slo`: the quiesced cumulative ledger is exact.
    let slo = get_json(&server, "/slo");
    let budget = slo.get("deadline_budget_s").expect("budget block");
    assert_eq!(
        budget.get("quick").and_then(json::Value::as_f64),
        Some(0.05)
    );
    assert_eq!(budget.get("full").and_then(json::Value::as_f64), Some(30.0));
    for (class, expect_completed) in [("quick", quick_n), ("full", 1)] {
        let c = slo
            .get("cumulative")
            .and_then(|v| v.get(class))
            .unwrap_or_else(|| panic!("cumulative.{class} missing"));
        let completed = c.get("completed").and_then(json::Value::as_u64).unwrap();
        let hits = c
            .get("deadline_hits")
            .and_then(json::Value::as_u64)
            .unwrap();
        let misses = c
            .get("deadline_misses")
            .and_then(json::Value::as_u64)
            .unwrap();
        assert_eq!(completed, expect_completed, "{class}");
        assert_eq!(hits + misses, completed, "{class}: every completion judged");
        let ppm = c
            .get("attainment_ppm")
            .and_then(json::Value::as_i64)
            .unwrap();
        assert!((0..=1_000_000).contains(&ppm), "{class}: ppm {ppm}");
    }

    // Unknown routes 404 with the route list; the scrape counter saw
    // every GET above (5 so far including this one).
    let (status, body) = get(&server, "/nope");
    assert_eq!(status, 404);
    assert!(body.contains("/metrics"), "{body}");
    assert_eq!(server.scrapes(), 5);

    // After stop, the port no longer answers.
    let addr = server.addr();
    server.stop();
    assert!(http_get(addr, "/healthz", Duration::from_millis(500)).is_err());
}

/// Forced deadlines make the ledger exact: a zero budget can never be
/// met (completion is not strictly before admission), a one-hour budget
/// always is. The derived attainment gauge follows when the live plane
/// is on.
#[test]
fn slo_accounting_is_exact_under_forced_deadlines() {
    let ds = xgc1_dataset_sized(12, 60, 9);
    let canopus = Arc::new(engine(&ds));
    let service = CanopusService::start(Arc::clone(&canopus));
    service.enable_live_telemetry();

    let submit = |deadline: Duration, n: u64| {
        for _ in 0..n {
            service
                .submit_with(
                    quick(),
                    ServeOptions {
                        priority: Priority::QuickLook,
                        deadline: Some(deadline),
                    },
                )
                .expect("submit")
                .wait()
                .expect("serve");
        }
    };
    submit(Duration::ZERO, 3); // unmeetable: 3 misses
    submit(Duration::from_secs(3600), 9); // generous: 9 hits

    let snap = service.metrics().snapshot();
    assert_eq!(snap.counter(&names::serve_deadline_miss("quick")), 3);
    assert_eq!(snap.counter(&names::serve_deadline_hit("quick")), 9);
    assert_eq!(snap.counter(&names::serve_completed("quick")), 12);
    // attainment = 9 / 12 = 750_000 ppm, recomputed at last completion.
    assert_eq!(snap.gauge(&names::serve_attainment_ppm("quick")), 750_000);
    // Only the first, cold, went through a worker; the other eleven —
    // two of the misses among them — were cache hits answered on
    // arrival, each with one queue-wait sample of 0.
    assert_eq!(snap.counter(&names::serve_dequeued("quick")), 1);
    assert_eq!(snap.counter(&names::serve_on_arrival("quick")), 11);
    assert_eq!(snap.counter(&names::serve_requests("quick")), 12);
    let wait = snap.histogram(&names::serve_queue_wait_hist("quick"));
    assert_eq!(wait.count, 12);
}

/// With the live plane left off (the default), deadline bookkeeping
/// still runs — the counters are the ground truth — but the derived
/// attainment gauge is never touched: the hot path pays exactly the one
/// gating load. Mirrors the disabled-sink zero-overhead pattern.
#[test]
fn disabled_live_plane_never_touches_derived_gauges() {
    let ds = xgc1_dataset_sized(12, 60, 9);
    let canopus = Arc::new(engine(&ds));
    let service = CanopusService::start(Arc::clone(&canopus));
    assert!(!service.live_telemetry_enabled());

    for _ in 0..5 {
        service
            .submit(quick())
            .expect("submit")
            .wait()
            .expect("serve");
    }

    let snap = service.metrics().snapshot();
    let judged = snap.counter(&names::serve_deadline_hit("quick"))
        + snap.counter(&names::serve_deadline_miss("quick"));
    assert_eq!(judged, 5, "accounting is unconditional");
    assert_eq!(
        snap.gauge(&names::serve_attainment_ppm("quick")),
        0,
        "derived gauge belongs to the live plane and must stay untouched"
    );
}

/// A two-edge window (`buckets: 1`, unbounded width) brackets exactly
/// the requests served between its two samples, no matter what ran
/// before the first edge.
#[test]
fn rolling_window_brackets_exactly_the_work_between_samples() {
    let ds = xgc1_dataset_sized(12, 60, 9);
    let canopus = Arc::new(engine(&ds));
    let service = CanopusService::start(Arc::clone(&canopus));

    // Pre-window noise the delta must not see.
    for _ in 0..4 {
        service
            .submit(quick())
            .expect("submit")
            .wait()
            .expect("serve");
    }

    let window = RollingWindow::new(WindowConfig {
        buckets: 1,
        bucket_secs: f64::MAX,
    });
    let sim = || canopus.hierarchy().clock().now().seconds();
    window.sample_now(service.metrics(), sim());
    let empty = window.delta().expect("first sample seeds both edges");
    assert_eq!(
        empty.count(&names::serve_completed("quick")),
        0,
        "a single-edge window is empty regardless of pre-window work"
    );

    let in_window = 7u64;
    for _ in 0..in_window {
        service
            .submit(quick())
            .expect("submit")
            .wait()
            .expect("serve");
    }
    window.sample_now(service.metrics(), sim());

    let d = window.delta().expect("two edges");
    assert_eq!(d.count(&names::serve_completed("quick")), in_window);
    let lat = d.histogram(&names::serve_latency_hist("quick"));
    assert_eq!(lat.count, in_window, "histogram delta sees only the window");
    assert!(d.wall_secs >= 0.0 && d.sim_secs >= 0.0);
}
