//! Span causality: the flat event stream a [`RingBufferSink`] captures
//! must reassemble into one connected span *tree* per read call — the
//! property the Chrome-trace exporter and the `canopus trace`
//! subcommand rely on. The walk hands work to prefetch, decode-pool and
//! geometry-loader threads, so these tests pin down that cross-thread
//! spans still parent to the calling read's root, that retry/fault
//! events nest under the block fetch that observed them, and that the
//! tree has exactly the documented shape.

use canopus::config::RelativeCodec;
use canopus::{Canopus, CanopusConfig, FaultPlan};
use canopus_data::xgc1_dataset_sized;
use canopus_obs::{Event, FieldValue, RingBufferSink};
use canopus_refactor::levels::RefactorConfig;
use canopus_storage::StorageHierarchy;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

const LEVELS: u32 = 3;

/// The observability fixture (see `tests/observability.rs`).
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
        .write("trace.bp", ds.var, &ds.mesh, &ds.data)
        .expect("write");
    (canopus, ds)
}

/// Run one instrumented `read_level(var, 0)` and return the captured
/// events (the write happens before the sink is armed, so the stream
/// holds exactly one read call's tree).
fn traced_read() -> Vec<Event> {
    let (canopus, ds) = written_canopus();
    canopus
        .metrics()
        .set_sink(Arc::new(RingBufferSink::with_capacity(4096)));
    let reader = canopus.open("trace.bp").expect("open");
    reader.read_level(ds.var, 0).expect("restore to L0");
    let snap = canopus.metrics().snapshot();
    assert_eq!(snap.dropped_events, 0, "sink must hold the whole tree");
    snap.events
}

fn uint(e: &Event, key: &str) -> Option<u64> {
    match e.field(key)? {
        FieldValue::Uint(u) => Some(*u),
        _ => None,
    }
}

/// Whether a `read.block` span's `key` names a level's geometry object
/// (`…/m{level}`) rather than a base or delta block.
fn is_geometry_key(key: &FieldValue) -> bool {
    let FieldValue::Str(key) = key else {
        return false;
    };
    let name = key.rsplit('/').next().unwrap_or_default();
    name.strip_prefix('m')
        .is_some_and(|level| level.parse::<u32>().is_ok())
}

/// `span_id → name` for every span event in the stream.
fn span_names(events: &[Event]) -> BTreeMap<u64, String> {
    events
        .iter()
        .filter_map(|e| Some((uint(e, "span_id")?, e.name.clone())))
        .collect()
}

/// The tree as a set of `(name, parent name)` edges — instant events
/// included; roots parent to `"<root>"`.
fn edge_set(events: &[Event]) -> BTreeSet<(String, String)> {
    let names = span_names(events);
    events
        .iter()
        .map(|e| {
            let parent = match uint(e, "parent_id") {
                Some(id) => names
                    .get(&id)
                    .cloned()
                    .unwrap_or_else(|| panic!("{}: parent {id} missing from stream", e.name)),
                None => "<root>".to_string(),
            };
            (e.name.clone(), parent)
        })
        .collect()
}

#[test]
fn pipelined_decode_spans_all_parent_to_one_read_root() {
    let events = traced_read();

    // Exactly one root: the read call itself.
    let roots: Vec<&Event> = events
        .iter()
        .filter(|e| uint(e, "span_id").is_some() && uint(e, "parent_id").is_none())
        .collect();
    assert_eq!(roots.len(), 1, "one read call, one root span");
    assert_eq!(roots[0].name, "read");
    let root_id = uint(roots[0], "span_id").unwrap();

    // Every field fetch, decode (decode-pool threads included), geometry
    // load (the loader thread's included) and restore of the walk hangs
    // directly off that root — this is what lets the exporter reassemble
    // the tree even though the workers emit from their own thread lanes.
    // A geometry object's fetch hangs off its load.
    let loads: BTreeSet<u64> = events
        .iter()
        .filter(|e| e.name == "geometry")
        .filter_map(|e| uint(e, "span_id"))
        .collect();
    assert_eq!(loads.len(), LEVELS as usize, "one load per level");
    for name in ["read.block", "decode", "restore", "geometry"] {
        let children: Vec<&Event> = events.iter().filter(|e| e.name == name).collect();
        assert!(!children.is_empty(), "walk must emit {name} spans");
        for c in &children {
            let parent = uint(c, "parent_id").expect("only the read is a root");
            let of_geometry = name == "read.block" && c.field("key").is_some_and(is_geometry_key);
            if of_geometry {
                assert!(
                    loads.contains(&parent),
                    "a geometry fetch belongs to a load"
                );
            } else {
                assert_eq!(parent, root_id, "{name} span must parent to the read root");
            }
            assert!(uint(c, "tid").is_some(), "{name} carries a thread lane");
        }
    }
    // Base → L0 applies one restore per intermediate level.
    let restores = events.iter().filter(|e| e.name == "restore").count();
    assert_eq!(restores, (LEVELS - 1) as usize);
}

#[test]
fn retry_and_fault_events_nest_under_their_block_spans() {
    let (canopus, ds) = written_canopus();
    canopus
        .metrics()
        .set_sink(Arc::new(RingBufferSink::with_capacity(4096)));
    let reader = canopus.open("trace.bp").expect("open");
    // Deterministic transient faults, armed after open so the manifest
    // read stays clean — the same schedule the observability suite uses.
    canopus.hierarchy().set_fault_plan_all(FaultPlan {
        seed: 11,
        get_error_p: 0.25,
        ..FaultPlan::none()
    });
    reader
        .read_level(ds.var, 0)
        .expect("retries cure the faults");

    let events = canopus.metrics().snapshot().events;
    let block_ids: BTreeSet<u64> = events
        .iter()
        .filter(|e| e.name == "read.block")
        .filter_map(|e| uint(e, "span_id"))
        .collect();

    let faults: Vec<&Event> = events.iter().filter(|e| e.name == "read.fault").collect();
    let retries: Vec<&Event> = events.iter().filter(|e| e.name == "read.retry").collect();
    assert!(!faults.is_empty(), "the schedule must actually fire");
    assert!(!retries.is_empty(), "cured faults imply retries");
    for e in faults.iter().chain(&retries) {
        let parent = uint(e, "parent_id").expect("retry/fault events are never roots");
        assert!(
            block_ids.contains(&parent),
            "{} must nest under the read.block span that observed it",
            e.name
        );
        assert!(
            uint(e, "attempt").is_some(),
            "{} records its attempt",
            e.name
        );
    }
}

/// The documented shape of a walk's span tree, as `(name, parent)`
/// edges: a flat tree under a single read root, a geometry object's
/// fetch one step further down, under its load.
const WALK_EDGES: [(&str, &str); 6] = [
    ("read", "<root>"),
    ("read.block", "read"),
    ("decode", "read"),
    ("restore", "read"),
    ("geometry", "read"),
    ("read.block", "geometry"),
];

#[test]
fn a_walk_tells_the_documented_causal_story() {
    let edges = edge_set(&traced_read());
    let documented: BTreeSet<(String, String)> = WALK_EDGES
        .iter()
        .map(|&(child, parent)| (child.to_string(), parent.to_string()))
        .collect();
    assert_eq!(edges, documented, "the walk's span-tree shape");
}

#[test]
fn a_section_fetch_names_its_section_on_the_block_span() {
    // Base -> level 0 over three levels passes through level 1 alone:
    // its geometry object is the one fetched in part, and the span says
    // which part. Whole-object fetches carry no section.
    let events = traced_read();
    let fetches: Vec<(String, Option<String>)> = events
        .iter()
        .filter(|e| e.name == "read.block")
        .map(|e| {
            let text = |key| match e.field(key) {
                Some(FieldValue::Str(s)) => Some(s.clone()),
                _ => None,
            };
            (
                text("key").expect("every fetch names its key"),
                text("section"),
            )
        })
        .collect();
    let geometry = |level: u32| format!("/m{level}");
    for (key, section) in &fetches {
        let expect = key.ends_with(&geometry(1)).then(|| "topology".to_string());
        assert_eq!(section, &expect, "{key}");
    }
    for level in 0..LEVELS {
        let fetched = fetches
            .iter()
            .filter(|(k, _)| k.ends_with(&geometry(level)));
        assert_eq!(fetched.count(), 1, "level {level} geometry");
    }
}
