//! Observability integration: the shared metrics registry must tell the
//! truth about the pipeline it instruments. A full write → restore-to-L0
//! cycle is replayed with a lossless codec, and the resulting
//! `MetricsSnapshot` is checked against ground truth the test can compute
//! independently (raw byte counts, block counts, tier traffic), plus the
//! structural invariants every snapshot must satisfy and the JSON
//! round-trip the `--metrics` flag and `canopus metrics` subcommand rely
//! on.

use canopus::config::RelativeCodec;
use canopus::{Canopus, CanopusConfig, MetricsSnapshot};
use canopus_adios::GeometrySection;
use canopus_data::xgc1_dataset_sized;
use canopus_obs::{names, Event, FieldValue, RingBufferSink};
use canopus_refactor::levels::RefactorConfig;
use canopus_storage::StorageHierarchy;
use std::collections::BTreeSet;
use std::sync::Arc;

const LEVELS: u32 = 3;

fn written_canopus() -> (Canopus, canopus_data::Dataset) {
    let ds = xgc1_dataset_sized(20, 20, 7);
    let raw = (ds.data.len() * 8) as u64;
    let hierarchy = Arc::new(StorageHierarchy::titan_two_tier(raw / 4, raw * 64));
    let canopus = Canopus::new(
        hierarchy,
        CanopusConfig {
            refactor: RefactorConfig {
                num_levels: LEVELS,
                ..Default::default()
            },
            codec: RelativeCodec::Fpc,
            ..Default::default()
        },
    );
    canopus
        .write("obs.bp", ds.var, &ds.mesh, &ds.data)
        .expect("write");
    (canopus, ds)
}

/// Restore to L0 through the instrumented read path and return the final
/// snapshot alongside the restored data.
fn restore_and_snapshot() -> (MetricsSnapshot, Vec<f64>, canopus_data::Dataset) {
    let (canopus, ds) = written_canopus();
    let reader = canopus.open("obs.bp").expect("open");
    let out = reader.read_level(ds.var, 0).expect("restore to L0");
    (canopus.metrics().snapshot(), out.into_data(), ds)
}

/// Stored bytes of the coordinates section of each level's geometry
/// object, from the manifest.
fn coordinate_sections(canopus: &Canopus, var: &str) -> Vec<u64> {
    let reader = canopus.open("obs.bp").expect("open");
    let var = reader.file().inq_var(var).expect("variable");
    (0..LEVELS)
        .map(|level| {
            var.metadata_for(level)
                .and_then(|block| block.section(GeometrySection::Coordinates))
                .expect("every level's geometry has its sections")
                .len
        })
        .collect()
}

fn max_err(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

fn value_range(data: &[f64]) -> f64 {
    let lo = data.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    hi - lo
}

#[test]
fn lossless_restore_to_l0_is_faithful_and_fully_counted() {
    let (snap, restored, ds) = restore_and_snapshot();

    // Data contract: FPC is lossless, so only the (a - b) + b restoration
    // rounding remains.
    assert_eq!(restored.len(), ds.data.len());
    let err = max_err(&restored, &ds.data);
    let bound = 1e-12 * value_range(&ds.data).max(1.0);
    assert!(
        err <= bound,
        "restore error {err} exceeds rounding bound {bound}"
    );

    // Write-side ground truth the test can compute independently.
    assert_eq!(snap.counter(names::WRITES), 1);
    assert_eq!(
        snap.counter(names::WRITE_BYTES_RAW),
        (ds.data.len() * 8) as u64,
        "raw byte counter must equal the input payload"
    );
    assert!(snap.counter(names::WRITE_BYTES_STORED) > 0);
    // base + (LEVELS - 1) deltas at minimum.
    assert!(snap.counter(names::WRITE_PRODUCTS) >= LEVELS as u64);

    // Read-side: restoring L0 from a base at level LEVELS-1 applies
    // exactly LEVELS-1 refinements, each reading one delta block, plus
    // the base block itself.
    assert_eq!(snap.counter(names::READ_REFINEMENTS), (LEVELS - 1) as u64);
    assert!(snap.counter(names::READ_BLOCKS) >= LEVELS as u64);
    assert!(snap.counter(names::READ_BYTES_IO) > 0);
    // A cold restore to L0 fetches the field and what it consumes of
    // the geometry, each once: every level's topology, and coordinates
    // only of the two levels whose meshes it handles — the base it
    // starts from and level 0 it returns — not of those it passes
    // through (the default estimator reads none).
    let written = snap.counter(names::WRITE_GEOMETRY_BYTES);
    assert!(written > 0);
    let (canopus, _) = written_canopus();
    let coordinates = coordinate_sections(&canopus, ds.var);
    let passed: u64 = coordinates[1..LEVELS as usize - 1].iter().sum();
    assert!(passed > 0);
    let geometry = snap.counter(names::READ_GEOMETRY_BYTES);
    assert_eq!(geometry, written - passed);
    assert_eq!(
        snap.counter(names::READ_COORDINATE_BYTES),
        coordinates.iter().sum::<u64>() - passed
    );
    assert_eq!(
        snap.counter(names::READ_BYTES_IO),
        snap.counter(names::WRITE_BYTES_STORED) + geometry
    );
    // Base + deltas are decoded per level, so the decoded-value count
    // strictly exceeds the final field size whenever refinements ran.
    assert!(
        snap.counter(names::READ_VALUES_DECODED) > restored.len() as u64,
        "decoded {} values for a {}-value L0 field",
        snap.counter(names::READ_VALUES_DECODED),
        restored.len()
    );
}

#[test]
fn timer_and_counter_invariants_hold() {
    let (snap, _, _) = restore_and_snapshot();

    // One READ_IO timer sample per block read.
    assert_eq!(
        snap.timer(names::READ_IO).count,
        snap.counter(names::READ_BLOCKS),
        "every observed block read records exactly one I/O timer sample"
    );
    // Simulated I/O time flows through the timers; wall time is recorded
    // alongside it.
    assert!(snap.timer(names::READ_IO).sim_secs > 0.0);
    assert!(snap.timer(names::WRITE_TOTAL).wall_secs > 0.0);
    assert!(snap.timer(names::WRITE_IO).sim_secs > 0.0);

    // Core-level I/O bytes are a subset of device-level traffic: the
    // tiers additionally serve metadata objects.
    assert!(snap.total_tier_bytes_read() >= snap.counter(names::READ_BYTES_IO));
    assert!(snap.total_tier_bytes_written() >= snap.counter(names::WRITE_BYTES_STORED));

    // Every stored product got a placement decision on some tier.
    let placements: u64 = (0..snap.num_tiers_observed())
        .map(|t| snap.placements_on_tier(t))
        .sum();
    assert_eq!(placements, snap.counter(names::WRITE_PRODUCTS));

    // Phase breakdowns are proper distributions once time was recorded.
    for breakdown in [snap.read_breakdown(), snap.write_breakdown()] {
        let sum: f64 = breakdown.iter().map(|(_, f)| f).sum();
        assert!(
            (sum - 1.0).abs() < 1e-9,
            "fractions sum to 1: {breakdown:?}"
        );
        assert!(breakdown.iter().all(|&(_, f)| (0.0..=1.0).contains(&f)));
    }
    let io_frac = snap.read_io_fraction();
    assert!(io_frac > 0.0 && io_frac <= 1.0, "io fraction {io_frac}");

    // FPC saw compression traffic, and its ratio is well-defined.
    assert!(snap.codecs_observed().contains(&"fpc".to_string()));
    assert!(snap.compression_ratio("fpc").unwrap() > 0.0);
}

#[test]
fn snapshot_round_trips_through_json() {
    let (snap, _, _) = restore_and_snapshot();
    let text = snap.to_json_string();
    let back = MetricsSnapshot::from_json_str(&text).expect("parse own JSON");
    assert_eq!(back, snap, "JSON round-trip must be lossless");

    // Typed accessors agree across the round-trip.
    assert_eq!(
        back.counter(names::READ_BLOCKS),
        snap.counter(names::READ_BLOCKS)
    );
    assert_eq!(back.timer(names::READ_IO), snap.timer(names::READ_IO));
    assert_eq!(back.read_breakdown(), snap.read_breakdown());
}

#[test]
fn ring_buffer_sink_captures_restore_spans() {
    let (canopus, ds) = written_canopus();
    canopus
        .metrics()
        .set_sink(Arc::new(RingBufferSink::with_capacity(256)));

    let reader = canopus.open("obs.bp").expect("open");
    let mut prog = reader.progressive(ds.var).expect("progressive");
    while !prog.at_full_accuracy() {
        prog.refine().expect("refine");
    }

    let snap = canopus.metrics().snapshot();
    let restores: Vec<_> = snap.events.iter().filter(|e| e.name == "restore").collect();
    assert_eq!(
        restores.len(),
        (LEVELS - 1) as usize,
        "one restore span per refinement: {:?}",
        snap.events
    );
    for event in restores {
        assert!(event.field("var").is_some(), "span keeps its fields");
        assert!(event.field("wall_secs").is_some(), "span records duration");
    }

    // Events survive the JSON round-trip too.
    let back = MetricsSnapshot::from_json_str(&snap.to_json_string()).expect("parse");
    assert_eq!(back.events, snap.events);
}

/// The level walk and the decoded-level cache publish their metrics
/// under the shared names, and they land in `MetricsSnapshot` exactly as
/// `canopus metrics` will report them.
#[test]
fn cache_and_walk_metrics_land_in_snapshot() {
    let (canopus, ds) = written_canopus();
    let reader = canopus.open("obs.bp").expect("open"); // default engine
    reader.read_level(ds.var, 0).expect("cold restore");

    let snap = canopus.metrics().snapshot();
    // One walk ran.
    assert_eq!(snap.counter(names::READ_WALKS), 1);
    // Cold read: every probed level missed, nothing hit yet.
    assert!(snap.counter(names::READ_CACHE_MISSES) > 0);
    assert_eq!(snap.counter(names::READ_CACHE_HITS), 0);

    // The repeat read hits the cache and moves zero tier bytes.
    let io_before = snap.counter(names::READ_BYTES_IO);
    reader.read_level(ds.var, 0).expect("warm restore");
    let snap = canopus.metrics().snapshot();
    assert_eq!(snap.counter(names::READ_CACHE_HITS), 1);
    assert_eq!(snap.counter(names::READ_BYTES_IO), io_before);

    // All of it survives the JSON round-trip the CLI depends on.
    let back = MetricsSnapshot::from_json_str(&snap.to_json_string()).expect("parse");
    for name in [
        names::READ_CACHE_HITS,
        names::READ_CACHE_MISSES,
        names::READ_WALKS,
    ] {
        assert_eq!(back.counter(name), snap.counter(name), "{name}");
    }
}

/// The level-streaming write engine publishes its `write.*` metrics
/// under the shared names, and they all land in the snapshot JSON the
/// CLI reports.
#[test]
fn write_pipeline_metrics_land_in_snapshot() {
    let (canopus, _) = written_canopus(); // default engine: pipelined
    let snap = canopus.metrics().snapshot();

    // One write ran; the stage-depth gauges saw it.
    assert_eq!(snap.counter(names::WRITES), 1);
    assert!(snap.gauge(names::WRITE_STAGE_DEPTH_PEAK) >= 1);
    assert_eq!(
        snap.gauge(names::WRITE_STAGE_DEPTH),
        0,
        "job queue drains back to empty"
    );
    // Overlap is recorded once per write (possibly zero wall).
    assert_eq!(snap.timer(names::WRITE_OVERLAP).count, 1);
    // The phase timers fire.
    assert!(snap.timer(names::WRITE_IO).sim_secs > 0.0);
    assert_eq!(snap.timer(names::WRITE_TOTAL).count, 1);

    // All of it survives the JSON round-trip the CLI depends on.
    let back = MetricsSnapshot::from_json_str(&snap.to_json_string()).expect("parse");
    assert_eq!(back.counter(names::WRITES), 1);
    assert_eq!(
        back.gauge(names::WRITE_STAGE_DEPTH_PEAK),
        snap.gauge(names::WRITE_STAGE_DEPTH_PEAK)
    );
    assert_eq!(
        back.timer(names::WRITE_OVERLAP),
        snap.timer(names::WRITE_OVERLAP)
    );
}

/// The fault-tolerance layer publishes its counters — retries, observed
/// faults, checksum failures, degraded restores and per-tier injection
/// counts — under the shared names, and they land in the snapshot JSON.
#[test]
fn fault_and_retry_metrics_land_in_snapshot() {
    use canopus_storage::FaultPlan;

    // Part 1: transient faults ridden out by retries.
    let (canopus, ds) = written_canopus();
    let reader = canopus.open("obs.bp").expect("open");
    // Armed only after open: the manifest read has no retry loop.
    canopus.hierarchy().set_fault_plan_all(FaultPlan {
        seed: 11,
        get_error_p: 0.25,
        ..FaultPlan::none()
    });
    let out = reader
        .read_level(ds.var, 0)
        .expect("transients within budget never fail the read");
    assert!(!out.degraded);

    let snap = canopus.metrics().snapshot();
    assert!(snap.counter(names::READ_RETRIES) > 0, "retries counted");
    assert!(snap.counter(names::READ_FAULTS_INJECTED) > 0);
    assert_eq!(snap.counter(names::READ_CHECKSUM_FAILURES), 0);
    assert_eq!(snap.counter(names::READ_DEGRADED_RESTORES), 0);
    // Every reader-observed fault was injected by some tier.
    let tier_faults: u64 = (0..snap.num_tiers_observed())
        .map(|t| snap.counter(&names::tier_faults(t)))
        .sum();
    assert_eq!(tier_faults, snap.counter(names::READ_FAULTS_INJECTED));

    // All of it survives the JSON round-trip the CLI depends on.
    let back = MetricsSnapshot::from_json_str(&snap.to_json_string()).expect("parse");
    for name in [names::READ_RETRIES, names::READ_FAULTS_INJECTED] {
        assert_eq!(back.counter(name), snap.counter(name), "{name}");
    }

    // Part 2: persistent in-flight corruption on the slow tier exhausts
    // the budget; the checksum counter moves and the walk degrades. The
    // fast tier is sized so the base products stay on tier 0 — only
    // finer levels become unreachable.
    let ds = xgc1_dataset_sized(20, 20, 7);
    let canopus = Canopus::new(
        Arc::new(StorageHierarchy::new(vec![
            canopus_storage::TierSpec::new("fast", 1 << 20, 1e9, 1e9, 1e-6),
            canopus_storage::TierSpec::new("slow", 1 << 26, 1e7, 1e7, 1e-3),
        ])),
        CanopusConfig {
            refactor: RefactorConfig {
                num_levels: LEVELS,
                ..Default::default()
            },
            codec: RelativeCodec::Fpc,
            ..Default::default()
        },
    );
    canopus
        .write("obs.bp", ds.var, &ds.mesh, &ds.data)
        .expect("write");
    let reader = canopus.open("obs.bp").expect("open");
    canopus
        .hierarchy()
        .set_fault_plan(
            1,
            FaultPlan {
                seed: 3,
                corrupt_p: 1.0,
                ..FaultPlan::none()
            },
        )
        .expect("tier 1 exists");
    let out = reader
        .read_level(ds.var, 0)
        .expect("unreachable levels degrade, never error");
    assert!(out.degraded, "slow-tier corruption must degrade the walk");
    let snap = canopus.metrics().snapshot();
    assert!(snap.counter(names::READ_CHECKSUM_FAILURES) > 0);
    assert!(snap.counter(names::READ_DEGRADED_RESTORES) >= 1);
    assert!(snap.counter(&names::tier_faults(1)) > 0);
}

#[test]
fn disabled_sink_records_no_events_but_all_metrics() {
    let (snap, _, _) = restore_and_snapshot();
    assert!(
        snap.events.is_empty(),
        "no sink installed, no events retained"
    );
    assert!(
        snap.counter(names::READ_BLOCKS) > 0,
        "metrics flow regardless"
    );
}

fn uint(e: &Event, key: &str) -> Option<u64> {
    match e.field(key)? {
        FieldValue::Uint(u) => Some(*u),
        _ => None,
    }
}

fn text<'a>(e: &'a Event, key: &str) -> Option<&'a str> {
    match e.field(key)? {
        FieldValue::Str(s) => Some(s),
        _ => None,
    }
}

/// The walk's largest stage has a name: each level's geometry load is a
/// `geometry` span under the read's root — level, section and stored
/// bytes on it, its verified fetch beneath it — and the parse a timer of
/// its own — whichever thread did the loading.
#[test]
fn geometry_loads_are_spans_under_the_root_and_a_parse_timer() {
    let (canopus, ds) = written_canopus();
    let reader = canopus.open("obs.bp").expect("open");
    canopus
        .metrics()
        .set_sink(Arc::new(RingBufferSink::with_capacity(1024)));
    let parsed = canopus.metrics().snapshot();
    let parsed = parsed.timer(names::READ_GEOMETRY_PARSE);
    reader.read_level(ds.var, 0).expect("cold restore");
    let snap = canopus.metrics().snapshot();
    let what = "cold walk";

    let id = |e: &Event| uint(e, "span_id").expect("a span");
    let named =
        |name: &str| -> Vec<&Event> { snap.events.iter().filter(|e| e.name == name).collect() };
    let [root] = named("read")[..] else {
        panic!("{what}: one read call, one root");
    };
    assert_eq!(uint(root, "parent_id"), None, "{what}");

    // One load per level: the target and the base whole, the level
    // passed in between its topology alone.
    let var = reader.file().inq_var(ds.var).expect("variable");
    let mut loaded = BTreeSet::new();
    let mut in_spans = 0.0;
    for load in named("geometry") {
        assert_eq!(uint(load, "parent_id"), Some(id(root)), "{what}");
        let level = uint(load, "level").expect("level") as u32;
        let block = var.metadata_for(level).expect("geometry block");
        let (section, stored) = match level {
            1 => {
                let topology = block.section(GeometrySection::Topology).expect("index");
                ("topology", topology.len)
            }
            _ => ("whole", block.stored_bytes),
        };
        assert_eq!(text(load, "section"), Some(section), "{what} L{level}");
        assert_eq!(uint(load, "bytes"), Some(stored), "{what} L{level}");
        assert!(loaded.insert(level), "{what}: level {level} loaded twice");
        // Its one child is the fetch of that object.
        let children: Vec<&Event> = snap
            .events
            .iter()
            .filter(|e| uint(e, "parent_id") == Some(id(load)))
            .collect();
        let [fetch] = children[..] else {
            panic!("{what} L{level}: {children:?}");
        };
        assert_eq!(fetch.name, "read.block", "{what} L{level}");
        assert_eq!(text(fetch, "key"), Some(block.key.as_str()), "{what}");
        match load.field("wall_secs") {
            Some(FieldValue::Float(secs)) => in_spans += secs,
            other => panic!("{what}: a span records its duration, not {other:?}"),
        }
    }
    assert_eq!(loaded, (0..LEVELS).collect(), "{what}");

    // Nothing else of the walk moved: every other span hangs off
    // the root directly.
    let loads: BTreeSet<u64> = named("geometry").into_iter().map(id).collect();
    let edges: BTreeSet<(&str, &str)> = snap
        .events
        .iter()
        .filter_map(|e| {
            let parent = uint(e, "parent_id")?;
            let under = if parent == id(root) {
                "read"
            } else if loads.contains(&parent) {
                "geometry"
            } else {
                "elsewhere"
            };
            Some((e.name.as_str(), under))
        })
        .collect();
    let expected = [
        ("decode", "read"),
        ("geometry", "read"),
        ("read.block", "geometry"),
        ("read.block", "read"),
        ("restore", "read"),
    ];
    assert_eq!(edges, BTreeSet::from(expected), "{what}");

    // The parse of each load is timed, inside its span.
    let timer = snap.timer(names::READ_GEOMETRY_PARSE);
    assert_eq!(timer.count - parsed.count, u64::from(LEVELS), "{what}");
    let parse_secs = timer.wall_secs - parsed.wall_secs;
    assert!(parse_secs > 0.0 && parse_secs <= in_spans, "{what}");
    assert_eq!(timer.sim_secs, 0.0, "{what}: a parse moves no bytes");
}
