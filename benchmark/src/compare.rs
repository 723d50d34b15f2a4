//! `--compare`: two saved outputs of the same commit (A/A) or of two
//! commits, side by side, with the gap per end-to-end metric and
//! workload held against the metric's bound.

use crate::metrics::{Better, END_TO_END};
use std::collections::BTreeMap;
use std::process::ExitCode;

type Table = BTreeMap<(String, String), f64>;

/// `METRIC <workload> <name> <unit> <value> <n>` lines of a saved run.
fn parse(text: &str) -> Table {
    text.lines()
        .filter_map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            match f.as_slice() {
                ["METRIC", workload, name, _unit, value, _n] => Some((
                    (workload.to_string(), name.to_string()),
                    value.parse().ok()?,
                )),
                _ => None,
            }
        })
        .collect()
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative when it is better).
pub fn worsening(better: Better, first: f64, second: f64) -> f64 {
    let change = (second - first) / first.abs().max(f64::MIN_POSITIVE);
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// The comparison table and whether every pairing is within its bound.
/// In an A/A run neither side is the parent, so the gap counts in both
/// directions.
fn table(first: &Table, second: &Table) -> (String, bool) {
    let mut out = format!(
        "{:<14} {:<16} {:>16} {:>16} {:>8} {:>6}\n",
        "workload", "metric", "first", "second", "gap", "bound"
    );
    let mut ok = true;
    let mut rows = 0;
    for ((workload, name), &a) in first {
        let Some(def) = END_TO_END.iter().find(|d| d.name == name) else {
            continue;
        };
        let Some(&b) = second.get(&(workload.clone(), name.clone())) else {
            out.push_str(&format!(
                "{workload:<14} {name:<16} missing from the second run\n"
            ));
            ok = false;
            continue;
        };
        let gap = worsening(def.better, a, b).abs();
        let verdict = if gap > def.bound { "  EXCEEDS" } else { "" };
        ok &= gap <= def.bound;
        rows += 1;
        out.push_str(&format!(
            "{workload:<14} {name:<16} {a:>16.6} {b:>16.6} {:>7.2}% {:>5.0}%{verdict}\n",
            gap * 100.0,
            def.bound * 100.0
        ));
    }
    (out, ok && rows > 0)
}

pub fn run(first: &str, second: &str) -> ExitCode {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map(|t| parse(&t))
            .unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                Table::new()
            })
    };
    let (text, ok) = table(&read(first), &read(second));
    print!("{text}");
    if ok {
        println!("A/A: every end-to-end metric agrees within its bound");
        ExitCode::SUCCESS
    } else {
        println!("A/A: FAILED, see EXCEEDS above");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metrics_direction() {
        assert!((worsening(Better::Lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worsening(Better::Lower, 100.0, 90.0) + 0.10).abs() < 1e-12);
        assert!((worsening(Better::Higher, 400.0, 360.0) - 0.10).abs() < 1e-12);
        assert!(worsening(Better::Higher, 400.0, 440.0) < 0.0);
    }

    #[test]
    fn compares_saved_runs_against_the_bounds() {
        let a = parse(
            "noise\nMETRIC ingest write_s s 10.0 1\nMETRIC ingest stored_ratio ratio 0.677 1\n\
             METRIC ingest data.gen_s s 2.0 1\n{\"correct\": true}\n",
        );
        assert_eq!(a.len(), 3);
        let b = parse("METRIC ingest write_s s 10.5 1\nMETRIC ingest stored_ratio ratio 0.677 1\n");
        let (text, ok) = table(&a, &b);
        assert!(ok, "{text}");
        assert!(text.contains("5.00%") && !text.contains("data.gen_s"));
        // 8% on a 5% metric fails; a metric missing from one side fails.
        let c = parse("METRIC ingest write_s s 10.0 1\nMETRIC ingest stored_ratio ratio 0.731 1\n");
        assert!(!table(&a, &c).1);
        assert!(!table(&a, &parse("METRIC ingest write_s s 10.0 1\n")).1);
        assert!(!table(&Table::new(), &Table::new()).1);
    }
}
