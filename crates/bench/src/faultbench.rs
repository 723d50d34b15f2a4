//! Fault-tolerance benchmark: the recovery-cost numbers behind
//! `BENCH_faults.json`.
//!
//! Runs a full base → L0 restoration of the Fig. 9 XGC1 configuration
//! under deterministic fault schedules (see `canopus_storage::FaultPlan`
//! and `docs/reliability.md`) and records what the recovery machinery
//! did about them:
//!
//! * `baseline` — no faults armed: the zero-overhead fast path;
//! * `transient` — seeded transient get errors on every tier, cured by
//!   the retry budget; the restored bytes must stay identical to the
//!   fault-free run (the equivalence guarantee);
//! * `corruption` — in-flight payload corruption caught by the manifest
//!   block checksums and cured by refetching;
//! * `tier_down` — the delta tier hard-down for the whole run: the read
//!   degrades to the finest restorable level instead of erroring.
//!
//! Every schedule is seeded and keyed off the (op, key, attempt) triple,
//! so reruns observe identical fault counts.

use crate::histsum;
use canopus::{Canopus, CanopusConfig, FaultPlan, MetricsSnapshot};
use canopus_data::Dataset;
use canopus_obs::{json::Value, names, HistogramStat};
use canopus_refactor::levels::RefactorConfig;
use canopus_storage::{StorageHierarchy, TierSpec};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// One fault schedule to measure.
struct Scenario {
    label: &'static str,
    plan: FaultPlan,
    /// `None` arms the plan on every tier; `Some(t)` on tier `t` only.
    tier: Option<usize>,
}

/// What one scenario's measured restore did.
#[derive(Debug, Clone)]
pub struct FaultSample {
    pub label: &'static str,
    /// Measured wall seconds for the base → target restore, retry
    /// backoff included.
    pub wall_secs: f64,
    pub retries: u64,
    pub faults_injected: u64,
    pub checksum_failures: u64,
    pub degraded_restores: u64,
    pub requested_level: u32,
    pub achieved_level: u32,
    pub degraded: bool,
    /// Restored bytes identical to a fault-free read of the *achieved*
    /// level — the equivalence guarantee, or (when degraded) exactness
    /// of the coarser answer.
    pub identical_to_clean: bool,
}

/// Everything `BENCH_faults.json` records for one run.
#[derive(Debug, Clone)]
pub struct FaultBenchReport {
    pub dataset: String,
    pub var: String,
    pub vertices: usize,
    pub num_levels: u32,
    pub retry_max_attempts: u32,
    pub scenarios: Vec<FaultSample>,
    /// Latency histograms of the `transient` scenario's run — the one
    /// whose retry-backoff distribution is the interesting trajectory.
    /// The `.sim` entries are deterministic at a fixed seed.
    pub histograms: BTreeMap<String, HistogramStat>,
}

impl FaultBenchReport {
    pub fn scenario(&self, label: &str) -> Option<&FaultSample> {
        self.scenarios.iter().find(|s| s.label == label)
    }

    pub fn to_json(&self) -> Value {
        let scenarios: Vec<Value> = self
            .scenarios
            .iter()
            .map(|s| {
                let mut o = BTreeMap::new();
                o.insert("label".into(), Value::Str(s.label.into()));
                o.insert("wall_secs".into(), Value::Float(s.wall_secs));
                o.insert("retries".into(), Value::Int(s.retries as i128));
                o.insert(
                    "faults_injected".into(),
                    Value::Int(s.faults_injected as i128),
                );
                o.insert(
                    "checksum_failures".into(),
                    Value::Int(s.checksum_failures as i128),
                );
                o.insert(
                    "degraded_restores".into(),
                    Value::Int(s.degraded_restores as i128),
                );
                o.insert(
                    "requested_level".into(),
                    Value::Int(s.requested_level as i128),
                );
                o.insert(
                    "achieved_level".into(),
                    Value::Int(s.achieved_level as i128),
                );
                o.insert("degraded".into(), Value::Bool(s.degraded));
                o.insert(
                    "identical_to_clean".into(),
                    Value::Bool(s.identical_to_clean),
                );
                Value::Obj(o)
            })
            .collect();
        let mut top = BTreeMap::new();
        top.insert("bench".into(), Value::Str("faults".into()));
        top.insert("dataset".into(), Value::Str(self.dataset.clone()));
        top.insert("var".into(), Value::Str(self.var.clone()));
        top.insert("vertices".into(), Value::Int(self.vertices as i128));
        top.insert("num_levels".into(), Value::Int(self.num_levels as i128));
        top.insert(
            "retry_max_attempts".into(),
            Value::Int(self.retry_max_attempts as i128),
        );
        top.insert("scenarios".into(), Value::Arr(scenarios));
        top.insert(
            "histograms".into(),
            histsum::summaries_json(&self.histograms),
        );
        Value::Obj(top)
    }
}

/// A two-tier hierarchy whose fast tier always holds the base products,
/// so the `tier_down` scenario loses only finer levels — Titan-like
/// bandwidth asymmetry, but without the proportional-capacity squeeze of
/// [`crate::setup::titan_hierarchy`] (which can push the base itself to
/// Lustre for small datasets, turning tier loss into full loss).
fn fault_hierarchy(raw_bytes: u64) -> Arc<StorageHierarchy> {
    Arc::new(StorageHierarchy::new(vec![
        TierSpec::new("tmpfs", raw_bytes.max(1 << 20), 2e9, 1.5e9, 2e-6),
        TierSpec::new("lustre", 64 * raw_bytes.max(1 << 20), 0.12e6, 0.1e6, 5e-3),
    ]))
}

/// Run one scenario: fresh hierarchy, write, fault-free ground truth at
/// every level, then the measured restore with the schedule armed.
fn sample(ds: &Dataset, num_levels: u32, sc: &Scenario) -> (FaultSample, MetricsSnapshot) {
    let raw = (ds.data.len() * 8) as u64;
    let canopus = Canopus::new(
        fault_hierarchy(raw),
        CanopusConfig {
            refactor: RefactorConfig {
                num_levels,
                ..Default::default()
            },
            level_cache: 0,
            ..Default::default()
        },
    );
    canopus
        .write("faults.bp", ds.var, &ds.mesh, &ds.data)
        .expect("bench write");
    let clean: Vec<Arc<Vec<f64>>> = (0..num_levels)
        .map(|l| {
            canopus
                .open("faults.bp")
                .expect("open")
                .read_level(ds.var, l)
                .expect("clean read")
                .data
        })
        .collect();

    // Open (and warm) before arming: the manifest read has no retry
    // loop, so the measurement covers block I/O recovery only.
    let reader = canopus.open("faults.bp").expect("open");
    reader.warm_metadata(ds.var).expect("warm");
    match sc.tier {
        None => canopus.hierarchy().set_fault_plan_all(sc.plan),
        Some(t) => canopus
            .hierarchy()
            .set_fault_plan(t, sc.plan)
            .expect("tier exists"),
    }

    let t = Instant::now();
    let out = reader
        .read_level(ds.var, 0)
        .expect("faults within the model never error a level walk");
    let wall_secs = t.elapsed().as_secs_f64();

    let m = canopus.metrics();
    (
        FaultSample {
            label: sc.label,
            wall_secs,
            retries: m.counter(names::READ_RETRIES).get(),
            faults_injected: m.counter(names::READ_FAULTS_INJECTED).get(),
            checksum_failures: m.counter(names::READ_CHECKSUM_FAILURES).get(),
            degraded_restores: m.counter(names::READ_DEGRADED_RESTORES).get(),
            requested_level: 0,
            achieved_level: out.achieved_level,
            degraded: out.degraded,
            identical_to_clean: out.data == clean[out.achieved_level as usize],
        },
        m.snapshot(),
    )
}

/// Run the full benchmark: all four scenarios on `num_levels`
/// refactoring of `ds`.
pub fn fault_bench(ds: &Dataset, num_levels: u32) -> FaultBenchReport {
    let scenarios = [
        Scenario {
            label: "baseline",
            plan: FaultPlan::none(),
            tier: None,
        },
        Scenario {
            label: "transient",
            plan: FaultPlan {
                seed: 9,
                get_error_p: 0.3,
                ..FaultPlan::none()
            },
            tier: None,
        },
        Scenario {
            label: "corruption",
            // Higher rate than `transient`: small runs fetch only a
            // handful of blocks, and the scenario is vacuous unless the
            // schedule actually flips at least one payload.
            plan: FaultPlan {
                seed: 21,
                corrupt_p: 0.5,
                ..FaultPlan::none()
            },
            tier: None,
        },
        Scenario {
            label: "tier_down",
            plan: FaultPlan {
                seed: 5,
                down: Some((0, u64::MAX)),
                ..FaultPlan::none()
            },
            tier: Some(1),
        },
    ];
    let mut histograms = BTreeMap::new();
    let mut samples = Vec::with_capacity(scenarios.len());
    for sc in &scenarios {
        let (s, snap) = sample(ds, num_levels, sc);
        if s.label == "transient" {
            histograms = histsum::summaries(&snap);
        }
        samples.push(s);
    }
    FaultBenchReport {
        dataset: ds.name.to_string(),
        var: ds.var.to_string(),
        vertices: ds.mesh.num_vertices(),
        num_levels,
        retry_max_attempts: CanopusConfig::default().retry.max_attempts,
        scenarios: samples,
        histograms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canopus_data::xgc1_dataset_sized;

    #[test]
    fn scenarios_exercise_the_recovery_machinery() {
        let ds = xgc1_dataset_sized(10, 50, 7);
        let r = fault_bench(&ds, 3);
        assert_eq!(r.scenarios.len(), 4);

        let baseline = r.scenario("baseline").unwrap();
        assert_eq!(baseline.faults_injected, 0);
        assert_eq!(baseline.retries, 0);
        assert!(!baseline.degraded && baseline.identical_to_clean);

        let transient = r.scenario("transient").unwrap();
        assert!(transient.retries > 0, "schedule must actually fire");
        assert!(!transient.degraded);
        assert!(transient.identical_to_clean, "equivalence guarantee");
        assert_eq!(transient.achieved_level, 0);

        let corruption = r.scenario("corruption").unwrap();
        assert!(corruption.checksum_failures > 0);
        assert!(corruption.identical_to_clean);

        let down = r.scenario("tier_down").unwrap();
        assert!(down.degraded, "losing the delta tier degrades");
        assert!(down.achieved_level > 0);
        assert!(down.degraded_restores >= 1);
        assert!(down.identical_to_clean, "coarser answer is still exact");
    }

    #[test]
    fn json_is_parseable_and_complete() {
        let ds = xgc1_dataset_sized(8, 40, 3);
        let r = fault_bench(&ds, 2);
        let text = r.to_json().to_pretty();
        let parsed = canopus_obs::json::parse(&text).expect("valid json");
        assert!(parsed.get("scenarios").is_some());
        assert!(parsed.get("retry_max_attempts").is_some());
        // The transient scenario populates the retry-backoff histogram.
        let hists = parsed.get("histograms").expect("histograms section");
        let backoff = hists
            .get(names::READ_RETRY_BACKOFF_HIST)
            .expect("retry backoff histogram");
        assert!(
            backoff.get("count").and_then(Value::as_i64).unwrap_or(0) > 0,
            "transient scenario must observe retry backoffs"
        );
    }
}
