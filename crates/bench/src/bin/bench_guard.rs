//! `bench_guard` — perf-trajectory regression gate over `BENCH_*.json`.
//!
//! ```text
//! bench_guard --baseline BENCH_serve.json --candidate BENCH_serve.new.json
//!             [--tolerance 0.25]
//! ```
//!
//! Diffs the `"histograms"` sections of two bench reports and fails
//! (exit 1) when any `.sim` histogram's median latency regressed by
//! more than the tolerance (default +25%). Simulated latencies are
//! deterministic at a fixed seed and scale, so an inflated median means
//! the engine moved more bytes or took more tier operations than the
//! baseline run — a real trajectory change, not host noise. `.wall`
//! histograms are ignored for exactly the opposite reason. CI runs this
//! against freshly regenerated quick-scale reports (see
//! `bench/baselines/`); reports without a `"histograms"` section pass
//! vacuously so old baselines never wedge the gate.

use canopus_bench::histsum;
use canopus_obs::json;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let baseline = take_flag_value(&mut args, "--baseline").unwrap_or_else(|| usage());
    let candidate = take_flag_value(&mut args, "--candidate").unwrap_or_else(|| usage());
    let tolerance: f64 = take_flag_value(&mut args, "--tolerance")
        .map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("bad value for --tolerance: {v:?}");
                std::process::exit(2);
            })
        })
        .unwrap_or(0.25);
    if let Some(extra) = args.first() {
        eprintln!("unknown argument {extra:?}");
        usage();
    }

    let base = load(&baseline);
    let cand = load(&candidate);
    let regressions = histsum::guard(&base, &cand, tolerance);
    if regressions.is_empty() {
        println!(
            "bench_guard: no .sim median regressed beyond +{:.0}% ({} vs {})",
            tolerance * 100.0,
            baseline,
            candidate
        );
        return;
    }
    eprintln!(
        "bench_guard: {} histogram(s) regressed beyond +{:.0}% ({} vs {}):",
        regressions.len(),
        tolerance * 100.0,
        baseline,
        candidate
    );
    for r in &regressions {
        eprintln!("  {r}");
    }
    std::process::exit(1);
}

fn load(path: &str) -> json::Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    json::parse(&text).unwrap_or_else(|e| {
        eprintln!("{path} is not valid JSON: {e}");
        std::process::exit(2);
    })
}

fn usage() -> ! {
    eprintln!("usage: bench_guard --baseline OLD.json --candidate NEW.json [--tolerance 0.25]");
    std::process::exit(2);
}

/// Remove `flag <value>` from `args`, returning the value if present.
fn take_flag_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        eprintln!("{flag} needs a value");
        std::process::exit(2);
    }
    let value = args.remove(i + 1);
    args.remove(i);
    Some(value)
}
