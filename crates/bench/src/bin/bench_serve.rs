//! `bench_serve` — multi-tenant serving throughput + tail latency.
//!
//! ```text
//! bench_serve [--out BENCH_serve.json]
//! ```
//!
//! Drives the shared `CanopusService` with a seeded closed-loop mix of
//! quick looks, deep restores and region refines (see
//! `canopus_bench::servebench`): a single-client baseline run, then the
//! multi-client run whose throughput must not fall below it. Prints a
//! summary table and writes the machine-readable report.
//! `CANOPUS_SCALE=quick` selects the reduced dataset used in CI smoke
//! runs; the checked-in `BENCH_serve.json` comes from a paper-scale
//! release run.

use canopus_bench::servebench;
use canopus_bench::setup::{self, Scale};
use canopus_bench::table;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let out = take_flag_value(&mut args, "--out").unwrap_or_else(|| "BENCH_serve.json".into());
    if let Some(extra) = args.first() {
        eprintln!("unknown argument {extra:?}");
        eprintln!("usage: bench_serve [--out BENCH_serve.json]");
        std::process::exit(2);
    }

    let scale = Scale::from_env();
    let (num_levels, clients, requests) = if scale == Scale::Paper {
        (6, 8, 24)
    } else {
        (4, 4, 8)
    };
    let ds = setup::xgc1(scale, 42);
    println!(
        "# Serving benchmark — {} ({}), {} vertices, {} levels, {} clients x {} requests\n",
        ds.name,
        ds.var,
        ds.mesh.num_vertices(),
        num_levels,
        clients,
        requests
    );
    let report = servebench::serve_bench(&ds, num_levels, clients, requests, 42);

    let rows: Vec<Vec<String>> = [&report.single, &report.multi]
        .iter()
        .map(|r| {
            vec![
                r.label.to_string(),
                r.clients.to_string(),
                r.completed.to_string(),
                r.failed.to_string(),
                table::secs(r.wall_secs),
                format!("{:.1}", r.rps),
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(
            &["run", "clients", "completed", "failed", "wall", "req/s"],
            &rows
        )
    );
    println!(
        "scaling (multi / single): {:.2}x over {} workers (queue {})",
        report.scaling, report.workers, report.queue_capacity
    );
    for p in &report.per_priority {
        println!(
            "{:>5}: {} completed ({} on arrival), queue-wait p50 {} / p99 {}, latency p50 {} / p99 {}",
            p.class,
            p.completed,
            p.on_arrival,
            table::secs(p.queue_wait_p50_s),
            table::secs(p.queue_wait_p99_s),
            table::secs(p.latency_p50_s),
            table::secs(p.latency_p99_s),
        );
        println!(
            "       deadlines {}/{} hit ({:.2}% attainment), workload-window p99 queue-wait {} / latency {}",
            p.deadline_hits,
            p.deadline_hits + p.deadline_misses,
            p.attainment_ppm as f64 / 1e4,
            table::secs(p.window_queue_wait_p99_s),
            table::secs(p.window_latency_p99_s),
        );
    }

    let json = report.to_json().to_pretty() + "\n";
    if let Err(e) = std::fs::write(&out, json) {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out}");
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
