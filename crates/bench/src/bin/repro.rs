//! `repro` — regenerate every table and figure of the Canopus paper.
//!
//! ```text
//! repro [fig4|fig5|fig6a|fig6b|fig7|fig8|fig9|fig10|fig11|smoothness|ablations|all]
//! ```
//!
//! Image outputs land in `./out/`. Set `CANOPUS_SCALE=quick` for a fast
//! reduced-scale pass (CI); the default runs at paper scale. Tables print
//! to stdout in the same rows/series the paper reports; EXPERIMENTS.md
//! records a reference run.
//!
//! `--metrics <path>` (for the end-to-end figures 9/10/11) additionally
//! writes a JSON dump pairing every table row with the full observability
//! snapshot of its run, so the printed numbers can be cross-checked
//! against the shared metrics layer.
//!
//! `--no-cache` disables the decoded-level cache for the end-to-end
//! figures.
//!
//! `--fault-seed <s>`, `--fault-get-p <p>`, `--fault-corrupt-p <p>` and
//! `--fault-latency <secs>` arm the deterministic fault injector on every
//! tier for the end-to-end figures, and `--retry-attempts <n>` sets the
//! per-block retry budget that rides the faults out — the printed times
//! then include the recovery work (see docs/reliability.md).
//!
//! `--trace <path>` (end-to-end figures only) arms causal tracing on
//! every table row and merges the spans into one Chrome trace_event
//! file — one trace *process* per row, one lane per worker thread —
//! for chrome://tracing or Perfetto (see docs/observability.md).

use canopus_bench::endtoend::EngineOpts;
use canopus_bench::setup::{self, Scale};
use canopus_bench::{ablation, blobs, endtoend, fig5, fig6, table};
use canopus_refactor::Estimator;
use std::path::Path;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let metrics_path = take_flag_value(&mut args, "--metrics");
    let trace_path = take_flag_value(&mut args, "--trace");
    let mut opts = EngineOpts {
        trace: trace_path.is_some(),
        ..EngineOpts::default()
    };
    if take_flag(&mut args, "--no-cache") {
        opts.level_cache = 0;
    }
    if let Some(v) = take_flag_value(&mut args, "--fault-seed") {
        opts.fault.seed = parse_or_die(&v, "--fault-seed");
    }
    if let Some(v) = take_flag_value(&mut args, "--fault-get-p") {
        opts.fault.get_error_p = parse_or_die(&v, "--fault-get-p");
    }
    if let Some(v) = take_flag_value(&mut args, "--fault-corrupt-p") {
        opts.fault.corrupt_p = parse_or_die(&v, "--fault-corrupt-p");
    }
    if let Some(v) = take_flag_value(&mut args, "--fault-latency") {
        opts.fault.added_latency_s = parse_or_die(&v, "--fault-latency");
    }
    if let Some(v) = take_flag_value(&mut args, "--retry-attempts") {
        opts.retry.max_attempts = parse_or_die(&v, "--retry-attempts");
    }
    let what = args.first().map(String::as_str).unwrap_or("all");
    let scale = Scale::from_env();
    let seed = 42;
    println!(
        "# Canopus reproduction — {} scale\n",
        if scale == Scale::Paper {
            "paper"
        } else {
            "quick"
        }
    );

    let out_dir = Path::new("out");
    let mut metrics: Option<(String, Vec<endtoend::EndToEndRow>)> = None;
    match what {
        "fig4" => fig4(scale, seed, out_dir),
        "fig5" => run_fig5(scale, seed),
        "fig6a" => fig6a(),
        "fig6b" => fig6b(scale, seed),
        "fig7" => fig7(scale, seed, out_dir),
        "fig8" => fig8(scale, seed),
        "fig9" => metrics = Some(("fig9".into(), fig9(scale, seed, opts))),
        "fig10" => metrics = Some(("fig10".into(), fig10(scale, seed, opts))),
        "fig11" => metrics = Some(("fig11".into(), fig11(scale, seed, opts))),
        "smoothness" => smoothness(scale, seed),
        "ablations" => ablations(scale, seed),
        "extensions" => extensions(scale, seed),
        "all" => {
            fig4(scale, seed, out_dir);
            run_fig5(scale, seed);
            fig6a();
            fig6b(scale, seed);
            fig7(scale, seed, out_dir);
            fig8(scale, seed);
            metrics = Some(("fig9".into(), fig9(scale, seed, opts)));
            fig10(scale, seed, opts);
            fig11(scale, seed, opts);
            smoothness(scale, seed);
            ablations(scale, seed);
            extensions(scale, seed);
        }
        other => {
            eprintln!("unknown experiment {other:?}");
            eprintln!("usage: repro [fig4|fig5|fig6a|fig6b|fig7|fig8|fig9|fig10|fig11|smoothness|ablations|extensions|all] [--metrics out.json] [--no-cache] [--fault-seed s] [--fault-get-p p] [--fault-corrupt-p p] [--fault-latency secs] [--retry-attempts n]");
            std::process::exit(2);
        }
    }

    if let Some(path) = metrics_path {
        match &metrics {
            Some((figure, rows)) => {
                let json = metrics_json(figure, rows);
                if let Err(e) = std::fs::write(&path, json) {
                    eprintln!("cannot write metrics to {path}: {e}");
                    std::process::exit(1);
                }
                println!("wrote metrics dump to {path}");
            }
            None => {
                eprintln!(
                    "--metrics is only available for the end-to-end figures (fig9|fig10|fig11|all)"
                );
                std::process::exit(2);
            }
        }
    }
    if let Some(path) = trace_path {
        match &metrics {
            Some((figure, rows)) => {
                let processes: Vec<(String, &canopus::MetricsSnapshot)> = rows
                    .iter()
                    .map(|r| (format!("{figure} ratio={}", r.ratio_label), &r.metrics))
                    .collect();
                let borrowed: Vec<(&str, &canopus::MetricsSnapshot)> = processes
                    .iter()
                    .map(|(label, snap)| (label.as_str(), *snap))
                    .collect();
                let trace = canopus_obs::export::chrome_trace_multi(&borrowed);
                if let Err(e) = std::fs::write(&path, trace) {
                    eprintln!("cannot write trace to {path}: {e}");
                    std::process::exit(1);
                }
                let dropped: u64 = rows.iter().map(|r| r.metrics.dropped_events).sum();
                if dropped > 0 {
                    eprintln!("warning: sink dropped {dropped} events at capacity — spans are missing from the trace");
                }
                println!(
                    "wrote Chrome trace ({} rows) to {path} — open in chrome://tracing",
                    rows.len()
                );
            }
            None => {
                eprintln!(
                    "--trace is only available for the end-to-end figures (fig9|fig10|fig11|all)"
                );
                std::process::exit(2);
            }
        }
    }
}

/// Parse `value` for `flag` or exit with a usage error.
fn parse_or_die<T: std::str::FromStr>(value: &str, flag: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("bad value for {flag}: {value:?}");
        std::process::exit(2);
    })
}

/// Remove a bare `flag` from `args`, returning whether it was present.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
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

/// JSON dump pairing each table row with its registry snapshot.
fn metrics_json(figure: &str, rows: &[endtoend::EndToEndRow]) -> String {
    use canopus_obs::json::Value;
    use std::collections::BTreeMap;

    let rows_json: Vec<Value> = rows
        .iter()
        .map(|r| {
            let mut o = BTreeMap::new();
            o.insert("ratio".to_string(), Value::Str(r.ratio_label.clone()));
            o.insert("io_secs".to_string(), Value::Float(r.io_secs));
            o.insert(
                "decompress_secs".to_string(),
                Value::Float(r.decompress_secs),
            );
            o.insert("restore_secs".to_string(), Value::Float(r.restore_secs));
            o.insert("detect_secs".to_string(), Value::Float(r.detect_secs));
            o.insert("elapsed_secs".to_string(), Value::Float(r.elapsed_secs));
            o.insert(
                "full_restore_secs".to_string(),
                Value::Float(r.full_restore_secs),
            );
            o.insert(
                "full_restore_elapsed_secs".to_string(),
                Value::Float(r.full_restore_elapsed_secs),
            );
            o.insert("metrics".to_string(), r.metrics.to_json());
            Value::Obj(o)
        })
        .collect();
    let mut top = BTreeMap::new();
    top.insert("figure".to_string(), Value::Str(figure.to_string()));
    top.insert("rows".to_string(), Value::Arr(rows_json));
    Value::Obj(top).to_pretty()
}

fn fig4(scale: Scale, seed: u64, out: &Path) {
    println!("## Fig. 4 — data refactoring gallery (PPM files)\n");
    for ds in setup::datasets(scale, seed) {
        match blobs::write_fig4_gallery(&ds, out) {
            Ok(files) => {
                for f in files {
                    println!("  wrote {f}");
                }
            }
            Err(e) => eprintln!("  {}: {e}", ds.name),
        }
    }
    println!();
}

fn run_fig5(scale: Scale, seed: u64) {
    println!("## Fig. 5 — Canopus vs direct compression (normalized size vs total #levels)\n");
    for ds in setup::datasets(scale, seed) {
        let rows = fig5::compression_comparison(&ds, 4, 1e-3, Estimator::Mean);
        let table_rows: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.total_levels.to_string(),
                    table::frac(r.direct_normalized),
                    table::frac(r.canopus_normalized),
                    format!("{:.1}%", r.improvement() * 100.0),
                ]
            })
            .collect();
        println!("### {} ({})", ds.name, ds.var);
        println!(
            "{}",
            table::render(&["levels", "direct", "canopus", "improvement"], &table_rows)
        );
    }
}

fn fig6a() {
    println!("## Fig. 6a — storage-to-compute trend (bytes/s per 1M flops)\n");
    let rows: Vec<Vec<String>> = fig6::STORAGE_TO_COMPUTE_TREND
        .iter()
        .map(|&(y, v)| vec![y.to_string(), format!("{v:.0}")])
        .collect();
    println!("{}", table::render(&["year", "B/s per Mflops"], &rows));
}

fn fig6b(scale: Scale, seed: u64) {
    println!("## Fig. 6b — write-time fractions (XGC1 dpot, 2 levels)\n");
    let ds = setup::xgc1(scale, seed);
    let rows: Vec<Vec<String>> = fig6::write_breakdown(&ds)
        .iter()
        .map(|r| {
            vec![
                format!("{} ({} cores)", r.label, r.cores),
                table::frac(r.decimation_frac),
                table::frac(r.delta_compress_frac),
                table::frac(r.io_frac),
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(
            &["storage-to-compute", "decimation", "delta+compress", "I/O"],
            &rows
        )
    );
}

fn fig7(scale: Scale, seed: u64, out: &Path) {
    println!("## Fig. 7 — blob detection gallery, L0..L5 (PPM files)\n");
    let ds = setup::xgc1(scale, seed);
    let levels = if scale == Scale::Paper { 6 } else { 4 };
    match blobs::write_fig7_gallery(&ds, levels, out) {
        Ok(files) => {
            for f in files {
                println!("  wrote {f}");
            }
        }
        Err(e) => eprintln!("  {e}"),
    }
    println!();
}

fn fig8(scale: Scale, seed: u64) {
    println!("## Fig. 8 — blob metrics vs decimation ratio (XGC1)\n");
    let ds = setup::xgc1(scale, seed);
    let levels = if scale == Scale::Paper { 6 } else { 4 };
    let rows = blobs::blob_quality(&ds, levels);
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.config.to_string(),
                r.ratio_label.clone(),
                r.metrics.count.to_string(),
                format!("{:.1}", r.metrics.avg_diameter),
                format!("{:.0}", r.metrics.aggregate_area),
                table::frac(r.overlap),
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(
            &[
                "config",
                "ratio",
                "#blobs",
                "avg diam (px)",
                "area (px^2)",
                "overlap"
            ],
            &table_rows
        )
    );
}

fn endtoend_table(name: &str, rows: &[endtoend::EndToEndRow], with_detect: bool) {
    // Phase columns sum simulated I/O with measured CPU work; the two
    // "wall" columns are the measured clock alone, which undercuts the
    // sum when the pipelined engine overlaps stages.
    let mut headers = vec!["ratio", "I/O", "decompress", "restore"];
    if with_detect {
        headers.push("blob detect");
    }
    headers.push("analysis total");
    headers.push("analysis wall");
    headers.push("full restore");
    headers.push("full wall");
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut row = vec![
                r.ratio_label.clone(),
                table::secs(r.io_secs),
                table::secs(r.decompress_secs),
                table::secs(r.restore_secs),
            ];
            if with_detect {
                row.push(table::secs(r.detect_secs));
            }
            row.push(table::secs(r.analysis_total()));
            row.push(table::secs(r.elapsed_secs));
            row.push(table::secs(r.full_restore_secs));
            row.push(table::secs(r.full_restore_elapsed_secs));
            row
        })
        .collect();
    println!("### {name}");
    println!("{}", table::render(&headers, &table_rows));
}

fn fig9(scale: Scale, seed: u64, opts: EngineOpts) -> Vec<endtoend::EndToEndRow> {
    println!("## Fig. 9 — XGC1 end-to-end analytics\n");
    let ds = setup::xgc1(scale, seed);
    let max_k = if scale == Scale::Paper { 5 } else { 3 };
    let rows = endtoend::end_to_end_with(&ds, max_k, true, opts);
    endtoend_table("XGC1 (dpot), blob detection pipeline", &rows, true);
    rows
}

fn fig10(scale: Scale, seed: u64, opts: EngineOpts) -> Vec<endtoend::EndToEndRow> {
    println!("## Fig. 10 — GenASiS end-to-end phases\n");
    let ds = setup::genasis(scale, seed);
    let max_k = if scale == Scale::Paper { 5 } else { 3 };
    let rows = endtoend::end_to_end_with(&ds, max_k, false, opts);
    endtoend_table("GenASiS (normVec magnitude)", &rows, false);
    rows
}

fn fig11(scale: Scale, seed: u64, opts: EngineOpts) -> Vec<endtoend::EndToEndRow> {
    println!("## Fig. 11 — CFD end-to-end phases\n");
    let ds = setup::cfd(scale, seed);
    let rows = endtoend::end_to_end_with(&ds, 3, false, opts); // paper: ratios 2,4,8
    endtoend_table("CFD (pressure)", &rows, false);
    rows
}

fn smoothness(scale: Scale, seed: u64) {
    println!("## Observation §III-C2 — deltas are smoother than levels\n");
    for ds in setup::datasets(scale, seed) {
        let rows: Vec<Vec<String>> = ablation::smoothness(&ds, 3)
            .iter()
            .map(|r| {
                vec![
                    r.level.to_string(),
                    format!("{:.3}", r.level_std),
                    format!("{:.3}", r.delta_std),
                    format!("{:.3}", r.level_tv),
                    format!("{:.3}", r.delta_tv),
                ]
            })
            .collect();
        println!("### {}", ds.name);
        println!(
            "{}",
            table::render(
                &["level", "level std", "delta std", "level TV", "delta TV"],
                &rows
            )
        );
    }
}

fn extensions(scale: Scale, seed: u64) {
    use canopus_bench::extensions;
    println!("## Extensions (paper-stated, not evaluated there)\n");

    println!("### Focused retrieval: region refinement cost vs window size (XGC1, 16 chunks)\n");
    let ds = setup::xgc1(scale, seed);
    let rows: Vec<Vec<String>> = extensions::region_sweep(&ds, 16, &[0.1, 0.25, 0.5, 1.0])
        .iter()
        .map(|r| {
            vec![
                format!("{:.0}%", r.window_frac * 100.0),
                format!("{}/{}", r.chunks_read, r.chunks_total),
                r.bytes_read.to_string(),
                table::secs(r.io_secs),
                table::frac(r.exact_frac),
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(
            &["window", "chunks", "bytes read", "I/O", "exact vertices"],
            &rows
        )
    );

    println!("### Campaign query pushdown (growing-amplitude timesteps, threshold 60% of max)\n");
    let small = setup::xgc1(Scale::Quick, seed);
    let r = extensions::campaign_pushdown(&small, 10, 0.6);
    let rows = vec![vec![
        r.steps.to_string(),
        r.candidates.to_string(),
        r.skipped.to_string(),
    ]];
    println!(
        "{}",
        table::render(&["timesteps", "candidates", "skipped via metadata"], &rows)
    );
}

fn ablations(scale: Scale, seed: u64) {
    println!("## Ablations\n");

    println!("### Estimator (Canopus normalized size at N = 3; lower is better)\n");
    let rows: Vec<Vec<String>> = setup::datasets(scale, seed)
        .iter()
        .map(|ds| {
            let r = ablation::estimator_ablation(ds, 1e-4);
            vec![
                r.dataset.to_string(),
                table::frac(r.mean_normalized),
                table::frac(r.barycentric_normalized),
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(&["dataset", "mean (paper)", "barycentric"], &rows)
    );

    println!("### Codec on delta^(0-1) (XGC1)\n");
    let ds = setup::xgc1(scale, seed);
    let rows: Vec<Vec<String>> = ablation::codec_ablation(&ds, 1e-4)
        .iter()
        .map(|r| {
            vec![
                r.codec.to_string(),
                r.compressed_bytes.to_string(),
                table::frac(r.normalized),
                if r.lossless { "yes" } else { "no" }.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(&["codec", "bytes", "normalized", "lossless"], &rows)
    );

    println!("### Refactoring approach (paper SIII-C, 3 products, XGC1)\n");
    let rows: Vec<Vec<String>> = ablation::refactorer_comparison(&ds)
        .iter()
        .map(|r| {
            vec![
                r.approach.to_string(),
                r.base_bytes.to_string(),
                r.total_bytes.to_string(),
                format!("{:.2e}", r.base_rel_error),
                if r.mesh_complete { "yes" } else { "no" }.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(
            &[
                "approach",
                "base B",
                "total B",
                "base rel err",
                "mesh-complete"
            ],
            &rows
        )
    );

    println!("### Collapse priority (blob overlap after 8x decimation, XGC1)\n");
    let rows: Vec<Vec<String>> = ablation::priority_ablation(&ds)
        .iter()
        .map(|r| {
            vec![
                r.order.to_string(),
                table::frac(r.overlap),
                r.num_blobs.to_string(),
            ]
        })
        .collect();
    println!("{}", table::render(&["order", "overlap", "#blobs"], &rows));

    println!("### Mapping: stored (grid) vs brute-force point location (XGC1)\n");
    let r = ablation::mapping_ablation(&ds);
    let rows = vec![vec![
        table::secs(r.grid_secs),
        table::secs(r.brute_secs),
        format!("{:.0}x", r.speedup),
    ]];
    println!(
        "{}",
        table::render(&["grid (stored)", "brute force", "speedup"], &rows)
    );
}
