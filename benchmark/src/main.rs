//! The Canopus benchmark: four workloads on a 1.05M-vertex XGC1-like
//! variable, end-to-end metrics from an untraced run and a per-layer
//! table from a traced one. See README.md for what is measured and why.
//!
//! ```text
//! canopus-benchmark --workload <ingest|restore_cold|region_zoom|serve_mixed|all>
//!                   [--seed N] [--seconds S] [--trace [0|1]] [--quick]
//! canopus-benchmark --compare <first.txt> <second.txt>
//! ```

mod campaign;
mod compare;
mod counters;
mod gen;
mod layers;
mod metrics;
mod ops;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use workloads::Opts;

/// Names are fixed: later issues cite them.
pub const WORKLOADS: [&str; 4] = ["ingest", "restore_cold", "region_zoom", "serve_mixed"];
const DEFAULT_SEED: u64 = 42;
/// Matches `run_seconds` in BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 8.0;
const QUICK_SECONDS: f64 = 1.5;
const TRACE_DIR: &str = "benchmark/out";

struct Args {
    workload: String,
    opts: Opts,
}

fn usage(problem: &str) -> ExitCode {
    eprintln!(
        "{problem}\nusage: --workload <{}|all> [--seed N] [--seconds S] [--trace [0|1]] [--quick]\n       \
         --compare <first.txt> <second.txt>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = "all".to_string();
    let (mut seed, mut seconds, mut trace, mut quick) = (DEFAULT_SEED, None, false, false);
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => workload = value("a name")?,
            "--seed" => {
                seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds {s} is outside (0, 60]"));
                }
                seconds = Some(s);
            }
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => {
                trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") | Some("1") => it.next().is_some_and(|s| s == "1"),
                    _ => true,
                }
            }
            "--quick" => quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.unwrap_or(if quick {
        QUICK_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    Ok(Args {
        workload,
        opts: Opts {
            seed,
            seconds,
            trace,
            quick,
        },
    })
}

/// One workload, in this process: measure, replay the layers if traced,
/// print the table and the result line.
fn run_one(workload: &str, opts: &Opts) -> ExitCode {
    let (mut report, mut tracer, campaign, write) = match workload {
        "ingest" => workloads::ingest::run(opts),
        "restore_cold" => workloads::restore_cold::run(opts),
        "region_zoom" => workloads::region_zoom::run(opts),
        "serve_mixed" => workloads::serve_mixed::run(opts),
        other => unreachable!("parse() admits only known workloads, got {other}"),
    };
    if opts.trace {
        let full_analytics = workload == "restore_cold";
        layers::replay(
            &campaign,
            "t0.bp",
            &write,
            full_analytics,
            &mut tracer,
            &mut report.values,
        );
        let path = format!("{TRACE_DIR}/trace-{workload}.json");
        let json = trace::to_json(workload, opts.seed, tracer.spans());
        if let Err(e) =
            std::fs::create_dir_all(TRACE_DIR).and_then(|()| std::fs::write(&path, json))
        {
            report.invalid.push(format!("cannot write {path}: {e}"));
        } else {
            println!("trace {workload} {path} ({} spans)", tracer.spans().len());
        }
    } else {
        report
            .values
            .set("peak_rss_mib", campaign::peak_rss_mib(), 1);
    }
    print!("{}", report.human());
    println!("{}", report.json_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--workload all`: one child process per workload, so each has its
/// own peak memory and none inherits another's warm allocator.
fn run_all(args: &[String]) -> ExitCode {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let mut code = ExitCode::SUCCESS;
    for w in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w])
            .args(args)
            .status()
            .unwrap_or_else(|e| panic!("cannot start {w}: {e}"));
        if !status.success() {
            code = ExitCode::FAILURE;
        }
    }
    code
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "--compare") {
        return match &args[1..] {
            [first, second] => compare::run(first, second),
            _ => usage("--compare takes two files"),
        };
    }
    let parsed = match parse(&args) {
        Ok(p) => p,
        Err(problem) => return usage(&problem),
    };
    if parsed.workload == "all" {
        // Children get the same arguments minus `--workload all`.
        let mut rest = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if a == "--workload" {
                it.next();
            } else {
                rest.push(a.clone());
            }
        }
        run_all(&rest)
    } else {
        run_one(&parsed.workload, &parsed.opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let a = parse(&args("--workload ingest --seed 7 --seconds 10 --trace 0")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.opts.seed, a.opts.seconds),
            ("ingest", 7, 10.0)
        );
        assert!(!a.opts.trace && !a.opts.quick);
        assert!(
            parse(&args("--workload serve_mixed --trace 1"))
                .unwrap()
                .opts
                .trace
        );
        // `--trace` without a value, as run.sh documents it.
        let a = parse(&args("--trace --workload region_zoom")).unwrap();
        assert!(a.opts.trace && a.workload == "region_zoom");
        let a = parse(&args("--quick")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.opts.seconds),
            ("all", QUICK_SECONDS)
        );
        assert_eq!(a.opts.seed, DEFAULT_SEED);
    }

    #[test]
    fn rejects_what_it_does_not_know() {
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--seconds 0")).is_err());
        assert!(parse(&args("--seconds 61")).is_err());
        assert!(parse(&args("--seed")).is_err());
        assert!(parse(&args("--frobnicate")).is_err());
    }
}
