//! Multi-tenant serving throughput: the story behind `BENCH_serve.json`.
//!
//! Drives the shared [`CanopusService`] with a closed-loop workload of
//! N clients, each issuing a deterministic seeded mix of requests over
//! one written campaign:
//!
//! * quick looks — base-level reads (`Priority::QuickLook`);
//! * deep restores — `read_level` to a random accuracy level
//!   (`Priority::FullAccuracy`);
//! * region refines — base read plus one focused quadrant refinement.
//!
//! Two runs measure the serving layer's scaling story on the same
//! dataset: a single client issuing `requests_per_client` requests,
//! then `clients` clients issuing the same count each against a fresh
//! engine. The shared decoded-level cache amortises restore work across
//! tenants, so multi-client throughput must not fall below the
//! single-client baseline. Per-priority queue-wait and end-to-end
//! latency quantiles come straight from the `canopus-obs` histograms
//! the service maintains (`canopus.serve.queue_wait.*` /
//! `canopus.serve.latency.*`); the `.wall` histograms vary run to run,
//! so `bench_guard` diffs only the deterministic `.sim` entries.

use crate::histsum;
use crate::setup::titan_hierarchy;
use canopus::{Canopus, CanopusConfig, CanopusService, Priority, ServeRequest};
use canopus_data::Dataset;
use canopus_mesh::geometry::{Aabb, Point2};
use canopus_obs::{
    json::Value, names, HistogramStat, MetricsSnapshot, RollingWindow, WindowConfig, WindowDelta,
};
use canopus_refactor::levels::RefactorConfig;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Request mix, in percent. The remainder goes to deep restores.
const QUICK_PCT: u64 = 50;
const REGION_PCT: u64 = 20;

/// One measured workload run (single- or multi-client).
#[derive(Debug, Clone)]
pub struct RunSample {
    pub label: &'static str,
    pub clients: u64,
    /// Requests issued across all clients (excluding the warm-up).
    pub requests: u64,
    pub completed: u64,
    pub failed: u64,
    pub wall_secs: f64,
    /// Completed requests per wall second.
    pub rps: f64,
}

/// Per-priority-class service quality, from the multi-client run.
#[derive(Debug, Clone)]
pub struct PrioritySample {
    /// `quick` or `full` — the metric-name segment.
    pub class: &'static str,
    pub completed: u64,
    /// Of `completed`, requests the reader's caches answered on
    /// arrival, without entering the admission queue.
    pub on_arrival: u64,
    pub queue_wait_p50_s: f64,
    pub queue_wait_p99_s: f64,
    pub latency_p50_s: f64,
    pub latency_p99_s: f64,
    /// Completions that finished strictly before their class deadline.
    pub deadline_hits: u64,
    pub deadline_misses: u64,
    /// `hits * 1e6 / (hits + misses)`, 1e6 when the class saw no work.
    pub attainment_ppm: i64,
    /// Tail quantiles over the measured workload interval only (a
    /// rolling-window diff bracketing the client threads), excluding
    /// the engine write and the warm-up request.
    pub window_queue_wait_p99_s: f64,
    pub window_latency_p99_s: f64,
}

/// Everything `BENCH_serve.json` records for one run.
#[derive(Debug, Clone)]
pub struct ServeBenchReport {
    pub dataset: String,
    pub var: String,
    pub vertices: usize,
    pub num_levels: u32,
    /// Worker threads the service resolved (config `serve_workers`).
    pub workers: usize,
    pub queue_capacity: usize,
    pub clients: u64,
    pub requests_per_client: u64,
    pub single: RunSample,
    pub multi: RunSample,
    /// `multi.rps / single.rps` — the multi-tenant scaling headline.
    pub scaling: f64,
    /// Failed requests across both runs; the serve CI gate requires 0.
    pub failed_requests: u64,
    pub per_priority: Vec<PrioritySample>,
    /// Histograms of the multi-client run. Only the `.sim` entries are
    /// deterministic at a fixed seed — `bench_guard` diffs those.
    pub histograms: BTreeMap<String, HistogramStat>,
}

impl ServeBenchReport {
    pub fn priority(&self, class: &str) -> Option<&PrioritySample> {
        self.per_priority.iter().find(|p| p.class == class)
    }

    pub fn to_json(&self) -> Value {
        let run = |r: &RunSample| {
            let mut o = BTreeMap::new();
            o.insert("label".into(), Value::Str(r.label.into()));
            o.insert("clients".into(), Value::Int(r.clients as i128));
            o.insert("requests".into(), Value::Int(r.requests as i128));
            o.insert("completed".into(), Value::Int(r.completed as i128));
            o.insert("failed".into(), Value::Int(r.failed as i128));
            o.insert("wall_secs".into(), Value::Float(r.wall_secs));
            o.insert("rps".into(), Value::Float(r.rps));
            Value::Obj(o)
        };
        let priorities: Vec<Value> = self
            .per_priority
            .iter()
            .map(|p| {
                let mut o = BTreeMap::new();
                o.insert("class".into(), Value::Str(p.class.into()));
                o.insert("completed".into(), Value::Int(p.completed as i128));
                o.insert("on_arrival".into(), Value::Int(p.on_arrival as i128));
                o.insert("queue_wait_p50_s".into(), Value::Float(p.queue_wait_p50_s));
                o.insert("queue_wait_p99_s".into(), Value::Float(p.queue_wait_p99_s));
                o.insert("latency_p50_s".into(), Value::Float(p.latency_p50_s));
                o.insert("latency_p99_s".into(), Value::Float(p.latency_p99_s));
                o.insert("deadline_hits".into(), Value::Int(p.deadline_hits as i128));
                o.insert(
                    "deadline_misses".into(),
                    Value::Int(p.deadline_misses as i128),
                );
                o.insert(
                    "attainment_ppm".into(),
                    Value::Int(p.attainment_ppm as i128),
                );
                o.insert(
                    "window_queue_wait_p99_s".into(),
                    Value::Float(p.window_queue_wait_p99_s),
                );
                o.insert(
                    "window_latency_p99_s".into(),
                    Value::Float(p.window_latency_p99_s),
                );
                Value::Obj(o)
            })
            .collect();
        let mut top = BTreeMap::new();
        top.insert("bench".into(), Value::Str("serve".into()));
        top.insert("dataset".into(), Value::Str(self.dataset.clone()));
        top.insert("var".into(), Value::Str(self.var.clone()));
        top.insert("vertices".into(), Value::Int(self.vertices as i128));
        top.insert("num_levels".into(), Value::Int(self.num_levels as i128));
        top.insert("workers".into(), Value::Int(self.workers as i128));
        top.insert(
            "queue_capacity".into(),
            Value::Int(self.queue_capacity as i128),
        );
        top.insert("clients".into(), Value::Int(self.clients as i128));
        top.insert(
            "requests_per_client".into(),
            Value::Int(self.requests_per_client as i128),
        );
        top.insert("single".into(), run(&self.single));
        top.insert("multi".into(), run(&self.multi));
        top.insert(
            "scaling_multi_over_single".into(),
            Value::Float(self.scaling),
        );
        top.insert(
            "failed_requests".into(),
            Value::Int(self.failed_requests as i128),
        );
        top.insert("per_priority".into(), Value::Arr(priorities));
        top.insert(
            "histograms".into(),
            histsum::summaries_json(&self.histograms),
        );
        Value::Obj(top)
    }
}

/// Deterministic per-request mixer (same shape as the CLI `serve`
/// driver, so workloads agree across the two entry points).
fn serve_mix(seed: u64, client: u64, i: u64) -> u64 {
    let mut x = seed ^ (client.wrapping_mul(0x9E37_79B9_7F4A_7C15)) ^ (i << 17);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One of four quadrant windows of `bb`, selected by `roll`.
fn quadrant(bb: &Aabb, roll: u64) -> Aabb {
    let cx = (bb.min.x + bb.max.x) / 2.0;
    let cy = (bb.min.y + bb.max.y) / 2.0;
    let (x0, y0) = match roll % 4 {
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

fn request_for(roll: u64, file: &str, var: &str, num_levels: u32, bb: &Aabb) -> ServeRequest {
    if roll % 100 < QUICK_PCT {
        ServeRequest::Base {
            file: file.to_string(),
            var: var.to_string(),
        }
    } else if roll % 100 < QUICK_PCT + REGION_PCT {
        ServeRequest::Region {
            file: file.to_string(),
            var: var.to_string(),
            region: quadrant(bb, roll >> 7),
        }
    } else {
        ServeRequest::Level {
            file: file.to_string(),
            var: var.to_string(),
            level: (roll >> 9) as u32 % num_levels,
        }
    }
}

/// One closed-loop run against a fresh engine: write the campaign, warm
/// the service with one quick look, then let `clients` threads each
/// issue `requests` seeded requests, waiting on every ticket.
fn run_workload(
    ds: &Dataset,
    num_levels: u32,
    clients: u64,
    requests: u64,
    seed: u64,
    label: &'static str,
) -> (RunSample, usize, usize, MetricsSnapshot, WindowDelta) {
    let raw = (ds.data.len() * 8) as u64;
    let config = CanopusConfig {
        refactor: RefactorConfig {
            num_levels,
            ..Default::default()
        },
        ..Default::default()
    };
    let canopus = Arc::new(Canopus::new(titan_hierarchy(raw), config));
    canopus
        .write("serve.bp", ds.var, &ds.mesh, &ds.data)
        .expect("serve write");
    let service = CanopusService::start(Arc::clone(&canopus));
    let workers = service.workers();
    let queue_capacity = service.queue_capacity();

    service
        .submit(ServeRequest::Base {
            file: "serve.bp".into(),
            var: ds.var.to_string(),
        })
        .expect("warm-up submit")
        .wait()
        .expect("warm-up request");
    let bb = ds.mesh.aabb();

    // Bracket the measured interval with a two-edge window: one sample
    // after warm-up, one after the clients drain. Its delta isolates
    // the workload's own tails from write/warm-up noise.
    let window = RollingWindow::new(WindowConfig {
        buckets: 1,
        bucket_secs: f64::MAX,
    });
    let sim_now = || canopus.hierarchy().clock().now().seconds();
    window.sample_now(service.metrics(), sim_now());

    let started = Instant::now();
    let (completed, failed) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let service = &service;
                let bb = &bb;
                scope.spawn(move || {
                    let (mut ok, mut failed) = (0u64, 0u64);
                    for i in 0..requests {
                        let roll = serve_mix(seed, c, i);
                        let request = request_for(roll, "serve.bp", ds.var, num_levels, bb);
                        match service.submit(request).map(|t| t.wait()) {
                            Ok(Ok(_)) => ok += 1,
                            _ => failed += 1,
                        }
                    }
                    (ok, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .fold((0, 0), |(a, b), (c, d)| (a + c, b + d))
    });
    let wall_secs = started.elapsed().as_secs_f64();
    window.sample_now(service.metrics(), sim_now());
    let delta = window.delta().expect("two samples were taken");
    let snapshot = service.metrics().snapshot();
    (
        RunSample {
            label,
            clients,
            requests: clients * requests,
            completed,
            failed,
            wall_secs,
            rps: completed as f64 / wall_secs.max(1e-9),
        },
        workers,
        queue_capacity,
        snapshot,
        delta,
    )
}

fn priority_sample(
    snap: &MetricsSnapshot,
    window: &WindowDelta,
    priority: Priority,
) -> PrioritySample {
    let class = priority.class();
    let wait = snap.histogram(&names::serve_queue_wait_hist(class));
    let latency = snap.histogram(&names::serve_latency_hist(class));
    let hits = snap.counter(&names::serve_deadline_hit(class));
    let misses = snap.counter(&names::serve_deadline_miss(class));
    let attainment_ppm = if hits + misses == 0 {
        1_000_000
    } else {
        ((hits as u128 * 1_000_000) / (hits + misses) as u128) as i64
    };
    PrioritySample {
        class,
        completed: snap.counter(&names::serve_completed(class)),
        on_arrival: snap.counter(&names::serve_on_arrival(class)),
        queue_wait_p50_s: wait.p50_secs(),
        queue_wait_p99_s: wait.p99_secs(),
        latency_p50_s: latency.p50_secs(),
        latency_p99_s: latency.p99_secs(),
        deadline_hits: hits,
        deadline_misses: misses,
        attainment_ppm,
        window_queue_wait_p99_s: window
            .histogram(&names::serve_queue_wait_hist(class))
            .p99_secs(),
        window_latency_p99_s: window
            .histogram(&names::serve_latency_hist(class))
            .p99_secs(),
    }
}

/// Run the full benchmark: a single-client baseline, then the
/// multi-client run, each against its own fresh engine and service.
pub fn serve_bench(
    ds: &Dataset,
    num_levels: u32,
    clients: u64,
    requests_per_client: u64,
    seed: u64,
) -> ServeBenchReport {
    let (single, workers, queue_capacity, _, _) =
        run_workload(ds, num_levels, 1, requests_per_client, seed, "single");
    let (multi, _, _, multi_snap, multi_window) = run_workload(
        ds,
        num_levels,
        clients.max(1),
        requests_per_client,
        seed,
        "multi",
    );
    let scaling = multi.rps / single.rps.max(f64::MIN_POSITIVE);
    ServeBenchReport {
        dataset: ds.name.to_string(),
        var: ds.var.to_string(),
        vertices: ds.mesh.num_vertices(),
        num_levels,
        workers,
        queue_capacity,
        clients: clients.max(1),
        requests_per_client,
        failed_requests: single.failed + multi.failed,
        scaling,
        per_priority: vec![
            priority_sample(&multi_snap, &multi_window, Priority::QuickLook),
            priority_sample(&multi_snap, &multi_window, Priority::FullAccuracy),
        ],
        histograms: histsum::summaries(&multi_snap),
        single,
        multi,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canopus_data::xgc1_dataset_sized;

    #[test]
    fn report_covers_runs_and_priorities() {
        let ds = xgc1_dataset_sized(8, 40, 11);
        let r = serve_bench(&ds, 3, 3, 6, 7);
        assert_eq!(r.failed_requests, 0);
        assert_eq!(r.single.completed, 6);
        assert_eq!(r.multi.completed, 18);
        assert!(r.single.rps > 0.0 && r.multi.rps > 0.0);
        assert!(r.priority("quick").is_some() && r.priority("full").is_some());
        // Every completed multi-run request (plus the warm-up quick
        // look) lands in exactly one priority class.
        let counted: u64 = r.per_priority.iter().map(|p| p.completed).sum();
        assert_eq!(counted, r.multi.completed + 1);
        for p in &r.per_priority {
            // SLO accounting partitions completions: every completion
            // is exactly one hit or one miss.
            assert_eq!(p.deadline_hits + p.deadline_misses, p.completed);
            assert!(p.attainment_ppm >= 0 && p.attainment_ppm <= 1_000_000);
            assert!(p.window_queue_wait_p99_s >= 0.0);
            assert!(p.window_latency_p99_s >= 0.0);
            // The window brackets only the client threads, so its tails
            // never exceed the cumulative stream's recorded maximum.
            assert!(
                p.window_latency_p99_s
                    <= r.histograms[&names::serve_latency_hist(p.class)].max_secs() + 1e-12
            );
        }
        let json = r.to_json().to_pretty();
        assert!(json.contains("\"bench\": \"serve\""));
        assert!(json.contains("scaling_multi_over_single"));
        assert!(json.contains("attainment_ppm"));
        assert!(json.contains("window_latency_p99_s"));
    }

    #[test]
    fn mix_covers_all_request_kinds() {
        let bb = xgc1_dataset_sized(8, 40, 1).mesh.aabb();
        let (mut base, mut region, mut level) = (0, 0, 0);
        for i in 0..200 {
            match request_for(serve_mix(9, 0, i), "f.bp", "v", 3, &bb) {
                ServeRequest::Base { .. } => base += 1,
                ServeRequest::Region { .. } => region += 1,
                ServeRequest::Level { .. } => level += 1,
            }
        }
        assert!(base > 0 && region > 0 && level > 0);
    }
}
