//! Snapshot exporters: Chrome `trace_event` JSON (load in
//! `chrome://tracing` or Perfetto) and Prometheus text exposition.
//!
//! Both consume a plain [`MetricsSnapshot`], so anything that can take
//! a snapshot — the CLI, `repro`, the bench bins, a test — can export
//! without touching the live registry again.
//!
//! The Chrome exporter reconstructs the span tree from the causal
//! fields spans emit (`span_id` / `parent_id` / `t_start_us` / `tid` /
//! `wall_secs`): each span becomes one complete (`ph: "X"`) event on
//! its recording thread's lane, every other event becomes a
//! thread-scoped instant (`ph: "i"`), and per-lane `thread_name`
//! metadata makes the worker lanes legible.

use crate::histogram::{bucket_upper_nanos, HistogramStat, NUM_BUCKETS};
use crate::json::Value;
use crate::sink::{Event, FieldValue};
use crate::snapshot::MetricsSnapshot;
use std::collections::BTreeMap;

/// Chrome trace for one snapshot (single process lane).
pub fn chrome_trace(snap: &MetricsSnapshot) -> String {
    chrome_trace_multi(&[("canopus", snap)])
}

/// Chrome trace merging several snapshots, one trace *process* per
/// labelled snapshot (`repro` uses a process per table row).
pub fn chrome_trace_multi(processes: &[(&str, &MetricsSnapshot)]) -> String {
    let mut trace_events: Vec<Value> = Vec::new();
    for (pidx, (label, snap)) in processes.iter().enumerate() {
        let pid = (pidx + 1) as i128;
        trace_events.push(metadata_event(
            "process_name",
            pid,
            0,
            Value::Str((*label).to_string()),
        ));
        // Thread lanes seen in this snapshot, named from the `thread`
        // field when the recording thread had a name.
        let mut lanes: BTreeMap<u64, Option<String>> = BTreeMap::new();
        for e in &snap.events {
            let tid = field_u64(e, "tid").unwrap_or(0);
            let name = match e.field("thread") {
                Some(FieldValue::Str(s)) => Some(s.clone()),
                _ => None,
            };
            let slot = lanes.entry(tid).or_default();
            if slot.is_none() {
                *slot = name;
            }
        }
        for (tid, name) in &lanes {
            let name = name.clone().unwrap_or_else(|| format!("worker-{tid}"));
            trace_events.push(metadata_event(
                "thread_name",
                pid,
                *tid as i128,
                Value::Str(name),
            ));
        }
        for e in &snap.events {
            trace_events.push(trace_event(e, pid));
        }
    }
    let mut root = BTreeMap::new();
    root.insert("traceEvents".to_string(), Value::Arr(trace_events));
    root.insert("displayTimeUnit".to_string(), Value::Str("ms".to_string()));
    Value::Obj(root).to_pretty()
}

fn metadata_event(name: &str, pid: i128, tid: i128, value: Value) -> Value {
    let mut args = BTreeMap::new();
    args.insert("name".to_string(), value);
    let mut obj = BTreeMap::new();
    obj.insert("name".to_string(), Value::Str(name.to_string()));
    obj.insert("ph".to_string(), Value::Str("M".to_string()));
    obj.insert("pid".to_string(), Value::Int(pid));
    obj.insert("tid".to_string(), Value::Int(tid));
    obj.insert("args".to_string(), Value::Obj(args));
    Value::Obj(obj)
}

fn field_u64(e: &Event, key: &str) -> Option<u64> {
    match e.field(key)? {
        FieldValue::Uint(u) => Some(*u),
        FieldValue::Int(i) => u64::try_from(*i).ok(),
        _ => None,
    }
}

fn field_f64(e: &Event, key: &str) -> Option<f64> {
    match e.field(key)? {
        FieldValue::Float(f) => Some(*f),
        FieldValue::Uint(u) => Some(*u as f64),
        FieldValue::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// One snapshot event → one trace event. Span-shaped events (causal
/// identity + duration present) become complete `"X"` slices; the rest
/// become thread-scoped instants.
fn trace_event(e: &Event, pid: i128) -> Value {
    let tid = field_u64(e, "tid").unwrap_or(0) as i128;
    let span = field_u64(e, "span_id").is_some();
    let (ts, ph) = if span {
        (field_u64(e, "t_start_us").unwrap_or(0), "X")
    } else {
        (field_u64(e, "t_us").unwrap_or(0), "i")
    };
    let mut obj = BTreeMap::new();
    obj.insert("name".to_string(), Value::Str(e.name.clone()));
    obj.insert("cat".to_string(), Value::Str("canopus".to_string()));
    obj.insert("ph".to_string(), Value::Str(ph.to_string()));
    obj.insert("ts".to_string(), Value::Int(ts as i128));
    obj.insert("pid".to_string(), Value::Int(pid));
    obj.insert("tid".to_string(), Value::Int(tid));
    if span {
        let dur_us = field_f64(e, "wall_secs").unwrap_or(0.0) * 1e6;
        obj.insert("dur".to_string(), Value::Float(dur_us));
    } else {
        obj.insert("s".to_string(), Value::Str("t".to_string()));
    }
    let mut args = BTreeMap::new();
    for (k, v) in &e.fields {
        // Identity/time fields already encode as ts/dur/tid; keep the
        // span ids in args so the tree stays inspectable in the UI.
        if matches!(k.as_str(), "t_start_us" | "t_us" | "tid" | "thread") {
            continue;
        }
        args.insert(k.clone(), v.to_json());
    }
    obj.insert("args".to_string(), Value::Obj(args));
    Value::Obj(obj)
}

/// Prometheus text exposition (content type
/// `text/plain; version=0.0.4`): counters and gauges map directly,
/// stage timers expand to `_count` / `_wall_seconds_total` /
/// `_sim_seconds_total` (+ min/max gauges), and the latency histograms
/// use the native cumulative-`le` histogram form in seconds.
pub fn prometheus_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.counters {
        let n = sanitize(name);
        push_header(&mut out, &n, "counter", &format!("Canopus counter {name}"));
        out.push_str(&format!("{n} {value}\n"));
    }
    for (name, value) in &snap.gauges {
        let n = sanitize(name);
        push_header(&mut out, &n, "gauge", &format!("Canopus gauge {name}"));
        out.push_str(&format!("{n} {value}\n"));
    }
    for (name, t) in &snap.timers {
        let n = sanitize(name);
        push_header(
            &mut out,
            &format!("{n}_count"),
            "counter",
            &format!("Recorded executions of stage {name}"),
        );
        out.push_str(&format!("{n}_count {}\n", t.count));
        push_header(
            &mut out,
            &format!("{n}_wall_seconds_total"),
            "counter",
            &format!("Total wall seconds of stage {name}"),
        );
        out.push_str(&format!("{n}_wall_seconds_total {}\n", t.wall_secs));
        push_header(
            &mut out,
            &format!("{n}_sim_seconds_total"),
            "counter",
            &format!("Total simulated seconds of stage {name}"),
        );
        out.push_str(&format!("{n}_sim_seconds_total {}\n", t.sim_secs));
        push_header(
            &mut out,
            &format!("{n}_min_seconds"),
            "gauge",
            &format!("Smallest recorded total of stage {name}"),
        );
        out.push_str(&format!("{n}_min_seconds {}\n", t.min_secs));
        push_header(
            &mut out,
            &format!("{n}_max_seconds"),
            "gauge",
            &format!("Largest recorded total of stage {name}"),
        );
        out.push_str(&format!("{n}_max_seconds {}\n", t.max_secs));
    }
    for (name, h) in &snap.histograms {
        push_histogram(&mut out, name, h);
    }
    let n = "canopus_obs_dropped_events";
    push_header(
        &mut out,
        n,
        "gauge",
        "Events the sink discarded for capacity",
    );
    out.push_str(&format!("{n} {}\n", snap.dropped_events));
    out
}

fn push_header(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str(&format!("# HELP {name} {help}\n"));
    out.push_str(&format!("# TYPE {name} {kind}\n"));
}

fn push_histogram(out: &mut String, name: &str, h: &HistogramStat) {
    let n = format!("{}_seconds", sanitize(name));
    push_header(out, &n, "histogram", &format!("Latency histogram {name}"));
    let mut cumulative = 0u64;
    for i in 0..NUM_BUCKETS {
        cumulative += h.buckets.get(i).copied().unwrap_or(0);
        match bucket_upper_nanos(i) {
            Some(upper) => {
                let le = upper as f64 * 1e-9;
                out.push_str(&format!("{n}_bucket{{le=\"{le}\"}} {cumulative}\n"));
            }
            None => {
                out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {cumulative}\n"));
            }
        }
    }
    out.push_str(&format!("{n}_sum {}\n", h.sum_secs()));
    out.push_str(&format!("{n}_count {}\n", h.count));
}

/// Metric-name sanitisation: Prometheus names are
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`; dots and anything else become `_`.
fn sanitize(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::RingBufferSink;
    use crate::{json, Registry};
    use std::sync::Arc;

    fn traced_snapshot() -> MetricsSnapshot {
        let reg = Registry::new();
        reg.set_sink(Arc::new(RingBufferSink::with_capacity(64)));
        reg.counter("canopus.read.blocks").add(3);
        reg.gauge("storage.writeback.tier.0.occupancy").set(2);
        reg.timer("canopus.read.io").record(0.5, 2.0);
        reg.histogram("storage.tier.0.read_latency.sim")
            .observe_secs(0.25);
        {
            let root = reg.span("read", vec![("var".into(), FieldValue::Str("dpot".into()))]);
            let ctx = root.context();
            let _child = reg.span_child("decode", ctx, vec![]);
            reg.event_child(
                "read.retry",
                ctx,
                vec![("attempt".into(), FieldValue::Uint(1))],
            );
        }
        reg.snapshot()
    }

    #[test]
    fn chrome_trace_is_wellformed_and_causal() {
        let snap = traced_snapshot();
        let text = chrome_trace(&snap);
        let parsed = json::parse(&text).expect("valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(Value::as_arr)
            .expect("traceEvents array");
        assert!(!events.is_empty());
        let mut complete = 0;
        let mut instants = 0;
        for e in events {
            let ph = e.get("ph").and_then(Value::as_str).expect("ph");
            assert!(e.get("pid").is_some() && e.get("tid").is_some());
            match ph {
                "X" => {
                    complete += 1;
                    assert!(e.get("ts").is_some(), "slices carry ts");
                    assert!(e.get("dur").is_some(), "complete events carry dur");
                }
                "i" => {
                    instants += 1;
                    assert!(e.get("ts").is_some(), "instants carry ts");
                }
                "M" => {}
                other => panic!("unexpected phase {other}"),
            }
        }
        assert_eq!(complete, 2, "root + decode");
        assert_eq!(instants, 1, "the retry instant");
        // The child slice's args keep the parent pointer.
        let decode = events
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("decode"))
            .unwrap();
        assert!(decode
            .get("args")
            .and_then(|a| a.get("parent_id"))
            .is_some());
    }

    #[test]
    fn chrome_trace_multi_separates_processes() {
        let a = traced_snapshot();
        let b = traced_snapshot();
        let text = chrome_trace_multi(&[("ratio-2", &a), ("ratio-4", &b)]);
        let parsed = json::parse(&text).unwrap();
        let events = parsed.get("traceEvents").and_then(Value::as_arr).unwrap();
        let pids: std::collections::BTreeSet<i64> = events
            .iter()
            .filter_map(|e| e.get("pid").and_then(Value::as_i64))
            .collect();
        assert_eq!(pids.into_iter().collect::<Vec<_>>(), vec![1, 2]);
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("name").and_then(Value::as_str) == Some("process_name"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        assert_eq!(names, vec!["ratio-2", "ratio-4"]);
    }

    #[test]
    fn prometheus_text_has_help_type_and_histogram_series() {
        let snap = traced_snapshot();
        let text = prometheus_text(&snap);
        assert!(text.contains("# HELP canopus_read_blocks "));
        assert!(text.contains("# TYPE canopus_read_blocks counter"));
        assert!(text.contains("canopus_read_blocks 3"));
        assert!(text.contains("# TYPE storage_writeback_tier_0_occupancy gauge"));
        assert!(text.contains("canopus_read_io_count 1"));
        assert!(text.contains("canopus_read_io_sim_seconds_total 2"));
        let hist = "storage_tier_0_read_latency_sim_seconds";
        assert!(text.contains(&format!("# TYPE {hist} histogram")));
        assert!(text.contains(&format!("{hist}_bucket{{le=\"+Inf\"}} 1")));
        assert!(text.contains(&format!("{hist}_count 1")));
        // Every non-comment line is `name{labels} value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.rsplit_once(' ').expect("name value");
            assert!(!name.is_empty());
            assert!(value.parse::<f64>().is_ok(), "unparseable sample {line:?}");
            let bare = name.split('{').next().unwrap();
            assert!(
                bare.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad metric name {bare:?}"
            );
        }
    }

    #[test]
    fn sanitize_handles_leading_digits_and_dots() {
        assert_eq!(sanitize("canopus.read.io"), "canopus_read_io");
        assert_eq!(sanitize("0weird"), "_0weird");
    }
}
