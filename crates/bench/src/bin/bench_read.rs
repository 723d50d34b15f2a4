//! `bench_read` — restore-engine perf trajectory.
//!
//! ```text
//! bench_read [--out BENCH_read.json]
//! ```
//!
//! Runs the Fig. 9 XGC1 full-restoration benchmark (serial vs pipelined
//! engines plus the decoded-level cache section, see
//! `canopus_bench::readbench`), prints a summary table and writes the
//! machine-readable report. `CANOPUS_SCALE=quick` selects the reduced
//! dataset used in CI smoke runs; the checked-in `BENCH_read.json` comes
//! from a paper-scale release run.

use canopus_bench::readbench;
use canopus_bench::setup::{self, Scale};
use canopus_bench::table;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let out = take_flag_value(&mut args, "--out").unwrap_or_else(|| "BENCH_read.json".into());
    if let Some(extra) = args.first() {
        eprintln!("unknown argument {extra:?}");
        eprintln!("usage: bench_read [--out BENCH_read.json]");
        std::process::exit(2);
    }

    let scale = Scale::from_env();
    let (num_levels, iters) = if scale == Scale::Paper {
        (6, 7)
    } else {
        (4, 3)
    };
    let ds = setup::xgc1(scale, 42);
    println!(
        "# Restore benchmark — {} ({}), {} vertices, {} levels, {} iters\n",
        ds.name,
        ds.var,
        ds.mesh.num_vertices(),
        num_levels,
        iters
    );
    let report = readbench::read_bench(&ds, num_levels, iters);

    let rows: Vec<Vec<String>> = report
        .engines
        .iter()
        .map(|e| {
            vec![
                e.label.to_string(),
                table::secs(e.wall_secs),
                table::secs(e.timing.io_secs),
                table::secs(e.timing.decompress_secs),
                table::secs(e.timing.restore_secs),
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(
            &["engine", "wall", "I/O (sim)", "decompress", "restore"],
            &rows
        )
    );
    println!(
        "speedup (serial → pipelined): {:.2}x on {} threads",
        report.speedup, report.threads
    );
    println!(
        "cache: first read moved {} B, repeat read moved {} B ({} hits / {} misses)",
        report.cache.first_read_bytes_io,
        report.cache.repeat_read_bytes_io,
        report.cache.cache_hits,
        report.cache.cache_misses
    );

    println!("\n# Region refinement (1/8-domain window), delta_chunks 1 vs 16\n");
    let region_rows: Vec<Vec<String>> = report
        .region
        .iter()
        .map(|r| {
            vec![
                r.label.to_string(),
                format!("{}/{}", r.chunks_read, r.chunks_total),
                format!("{} B", r.bytes_read),
                format!("{} B", r.level_bytes),
                format!("{}", r.decode_count),
                table::secs(r.decode_secs),
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(
            &[
                "file",
                "chunks",
                "bytes moved",
                "level bytes",
                "decodes",
                "decode wall"
            ],
            &region_rows
        )
    );

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
