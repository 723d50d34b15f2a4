//! Subcommand implementations.

use crate::args::Args;
use crate::store::{self, StoreConfig};
use canopus::config::RelativeCodec;
use canopus::{Canopus, CanopusConfig, FaultPlan, RetryPolicy};
use canopus_mesh::TriMesh;
use canopus_refactor::levels::RefactorConfig;
use std::path::Path;

const USAGE: &str = "\
usage: canopus <command> [args]

commands:
  init <store> [--tmpfs-bytes N] [--lustre-bytes N]
      create a persistent two-tier store directory
  demo-data <xgc1|genasis|cfd> --mesh m.off --data d.f64 [--seed S] [--small]
      synthesize one of the paper's datasets to files
  write <store> <file.bp> <var> --mesh m.off --data d.f64
        [--levels N] [--chunks C] [--codec zfp|sz|fpc|raw]
        [--rel-tol T]
      refactor + compress + place a variable into the store (N >= 1);
      --chunks C (default 1) stores each delta as C spatial chunks in
      indexed shard objects; with C > 1 the chunks follow the Morton
      order and `region` fetches only the intersecting ones via ranged
      reads
  info <store> <file.bp>
      show the file's variables, blocks, codecs and tier placement
  read <store> <file.bp> <var> [--level L] [--no-cache]
       [--retry-attempts N] [--fault-seed S] [--fault-get-p P]
       [--fault-corrupt-p P] [--fault-latency SECS] [--fault-down A:B]
       --out d.f64
      restore a level (default 0 = full accuracy) to a raw f64 file;
      --no-cache disables the decoded-level cache. The --fault-* flags
      arm the deterministic fault injector on every tier (seeded
      error/corruption probabilities, added latency, a hard-down op
      window A:B — see docs/reliability.md); --retry-attempts bounds the
      per-block retry budget that rides out those faults
  render <store> <file.bp> <var> [--level L] --out img.ppm [--size W]
      rasterize a restored level to a PPM image
  explore <store> <file.bp> <var> [--rms-threshold T]
      progressive exploration: walk levels, print per-level cost + delta RMS
  region <store> <file.bp> <var> --x0 X --y0 Y --x1 X --y1 Y --out d.f64
         [--metrics metrics.json [--prom]]
      focused retrieval: refine one level inside a bounding box only;
      --metrics dumps the snapshot afterwards (the chunk-planning
      counters show planned vs fetched vs skipped)
  serve <store> <file.bp> <var> [--workers W] [--queue Q] [--clients N]
        [--requests R] [--seed S] [--quick-pct P] [--region-pct P]
        [--listen ADDR] [--addr-file PATH] [--linger-secs S]
      start the shared serving layer (bounded queue + worker pool: by
      default one accuracy worker per core plus a reserved QuickLook
      lane; --workers W is W threads in total, the lane among them once
      W >= 2) and drive it with a seeded closed-loop
      workload: N clients each issue R requests mixing QuickLook base
      reads, FullAccuracy level restores and region refines; prints
      throughput, per-class queue-wait / latency tails and deadline
      attainment.
      --listen starts the live telemetry plane: an embedded HTTP
      endpoint serving /metrics (Prometheus text), /metrics.json,
      /healthz and /slo (rolling-window deadline attainment). Port 0
      picks an ephemeral port; --addr-file writes the bound address to
      a file and --linger-secs keeps the endpoint up after the workload
      so external scrapers can pull
  metrics <store> <file.bp> <var> [--level L] [--no-cache]
          [--fault-* ...] [--retry-attempts N]
          [--out metrics.json] [--prom]
          [--watch SECS [--watch-iters N]]
      restore a level with the observability sink enabled and dump the
      metrics snapshot (counters, gauges, stage timers, histograms,
      events) as JSON — or as Prometheus text exposition with --prom;
      takes the same fault-injection flags as `read`.
      --watch turns the one-shot dump into a poll-and-diff loop: the
      restore re-runs every SECS seconds and each iteration prints the
      *interval* counters/quantiles (snapshot diff against the previous
      poll, so rates and windowed tails instead of cumulative totals);
      --watch-iters bounds the loop (default: run until interrupted)
  trace <store> <file.bp> <var> [--level L] [--no-cache]
        [--fault-* ...] [--retry-attempts N]
        [--out trace.json]
      restore a level with causal tracing armed and export the span
      tree as Chrome trace_event JSON (open in chrome://tracing or
      Perfetto); worker threads appear as named lanes
  tiers <store>
      show tier capacities and usage";

pub fn dispatch(argv: &[String]) -> Result<(), String> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Err(format!("no command given\n{USAGE}"));
    };
    match cmd.as_str() {
        "init" => cmd_init(rest),
        "demo-data" => cmd_demo_data(rest),
        "write" => cmd_write(rest),
        "info" => cmd_info(rest),
        "read" => cmd_read(rest),
        "render" => cmd_render(rest),
        "explore" => cmd_explore(rest),
        "region" => cmd_region(rest),
        "serve" => cmd_serve(rest),
        "metrics" => cmd_metrics(rest),
        "trace" => cmd_trace(rest),
        "tiers" => cmd_tiers(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
}

fn load_mesh(path: &str) -> Result<TriMesh, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("opening {path}: {e}"))?;
    canopus_mesh::io::read_off(file).map_err(|e| format!("parsing {path}: {e}"))
}

fn load_f64(path: &str) -> Result<Vec<f64>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    if bytes.len() % 8 != 0 {
        return Err(format!(
            "{path} is not a raw f64 file (length {} B)",
            bytes.len()
        ));
    }
    Ok(bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect())
}

fn save_f64(path: &str, data: &[f64]) -> Result<(), String> {
    let mut bytes = Vec::with_capacity(data.len() * 8);
    for v in data {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    std::fs::write(path, bytes).map_err(|e| format!("writing {path}: {e}"))
}

fn canopus_for(store_dir: &str, config: CanopusConfig) -> Result<Canopus, String> {
    let (hierarchy, _) = store::open(Path::new(store_dir))?;
    Ok(Canopus::new(hierarchy, config))
}

/// Default config with the decoded-level cache switch (`--no-cache`),
/// the fault-injection plan (`--fault-*`) and the retry budget
/// (`--retry-attempts`) applied. Commands taking these must list
/// `no-cache` in their `Args::parse` flag set and parse their options
/// from [`engine_options`].
fn engine_config(a: &Args) -> Result<CanopusConfig, String> {
    let defaults = CanopusConfig::default();
    Ok(CanopusConfig {
        level_cache: if a.flag("no-cache") {
            0
        } else {
            defaults.level_cache
        },
        fault: fault_plan(a)?,
        retry: RetryPolicy {
            max_attempts: a.opt_parse("retry-attempts", defaults.retry.max_attempts)?,
            ..defaults.retry
        },
        ..defaults
    })
}

/// The value-taking options [`engine_config`] reads, after a command's
/// own `extra` ones.
fn engine_options<'a>(extra: &[&'a str]) -> Vec<&'a str> {
    let engine = [
        "retry-attempts",
        "fault-seed",
        "fault-get-p",
        "fault-put-p",
        "fault-corrupt-p",
        "fault-latency",
        "fault-down",
    ];
    extra.iter().copied().chain(engine).collect()
}

/// The `--fault-*` flags assembled into a [`FaultPlan`] armed on every
/// tier. With none given this is `FaultPlan::none()` and the hierarchy
/// keeps its zero-overhead fast path. Note the injector covers *all*
/// storage traffic, manifest reads included — a plan aggressive enough
/// to fail the (unretried) open reports that as a plain error.
fn fault_plan(a: &Args) -> Result<FaultPlan, String> {
    let down = match a.opt("fault-down") {
        None => None,
        Some(v) => {
            let (start, end) = v
                .split_once(':')
                .ok_or_else(|| format!("bad --fault-down {v:?}: expected START:END op indices"))?;
            let start: u64 = start
                .parse()
                .map_err(|_| format!("bad --fault-down start {start:?}"))?;
            let end: u64 = if end == "inf" {
                u64::MAX
            } else {
                end.parse()
                    .map_err(|_| format!("bad --fault-down end {end:?}"))?
            };
            Some((start, end))
        }
    };
    Ok(FaultPlan {
        seed: a.opt_parse("fault-seed", 0u64)?,
        get_error_p: a.opt_parse("fault-get-p", 0.0f64)?,
        put_error_p: a.opt_parse("fault-put-p", 0.0f64)?,
        corrupt_p: a.opt_parse("fault-corrupt-p", 0.0f64)?,
        added_latency_s: a.opt_parse("fault-latency", 0.0f64)?,
        down,
    })
}

fn cmd_init(argv: &[String]) -> Result<(), String> {
    let a = Args::parse(argv, &[], &["tmpfs-bytes", "lustre-bytes"])?;
    let dir = a.pos(0, "store directory")?;
    let defaults = StoreConfig::default();
    let cfg = StoreConfig {
        tmpfs_bytes: a.opt_parse("tmpfs-bytes", defaults.tmpfs_bytes)?,
        lustre_bytes: a.opt_parse("lustre-bytes", defaults.lustre_bytes)?,
    };
    store::init(Path::new(dir), cfg)?;
    println!(
        "initialized store at {dir} (tmpfs {} B, lustre {} B)",
        cfg.tmpfs_bytes, cfg.lustre_bytes
    );
    Ok(())
}

fn cmd_demo_data(argv: &[String]) -> Result<(), String> {
    let a = Args::parse(argv, &["small"], &["mesh", "data", "seed"])?;
    let which = a.pos(0, "dataset name (xgc1|genasis|cfd)")?;
    let mesh_path = a.req("mesh")?;
    let data_path = a.req("data")?;
    let seed: u64 = a.opt_parse("seed", 42u64)?;
    let small = a.flag("small");

    let ds = match (which, small) {
        ("xgc1", false) => canopus_data::xgc1_dataset(seed),
        ("xgc1", true) => canopus_data::xgc1_dataset_sized(20, 100, seed),
        ("genasis", false) => canopus_data::genasis_dataset(seed),
        ("genasis", true) => canopus_data::genasis_dataset_sized(24, 72, seed),
        ("cfd", false) => canopus_data::cfd_dataset(seed),
        ("cfd", true) => canopus_data::cfd_dataset_sized(30, 24, seed),
        (other, _) => return Err(format!("unknown dataset {other:?}")),
    };
    let mesh_file =
        std::fs::File::create(mesh_path).map_err(|e| format!("creating {mesh_path}: {e}"))?;
    canopus_mesh::io::write_off(&ds.mesh, mesh_file)
        .map_err(|e| format!("writing {mesh_path}: {e}"))?;
    save_f64(data_path, &ds.data)?;
    println!(
        "{}: {} vertices / {} triangles -> {mesh_path}, {data_path}",
        ds.name,
        ds.mesh.num_vertices(),
        ds.mesh.num_triangles()
    );
    Ok(())
}

fn cmd_write(argv: &[String]) -> Result<(), String> {
    let a = Args::parse(
        argv,
        &[],
        &["mesh", "data", "levels", "chunks", "rel-tol", "codec"],
    )?;
    let store_dir = a.pos(0, "store directory")?;
    let file = a.pos(1, "file name")?;
    let var = a.pos(2, "variable name")?;
    let mesh = load_mesh(a.req("mesh")?)?;
    let data = load_f64(a.req("data")?)?;
    let levels: u32 = a.opt_parse("levels", 3u32)?;
    let chunks: u32 = a.opt_parse("chunks", 1u32)?;
    let rel_tol: f64 = a.opt_parse("rel-tol", 1e-4f64)?;
    let codec = match a.opt("codec").unwrap_or("zfp") {
        "zfp" => RelativeCodec::ZfpLike {
            rel_tolerance: rel_tol,
        },
        "sz" => RelativeCodec::SzLike {
            rel_error_bound: rel_tol,
        },
        "fpc" => RelativeCodec::Fpc,
        "raw" => RelativeCodec::Raw,
        other => return Err(format!("unknown codec {other:?}")),
    };

    let canopus = canopus_for(
        store_dir,
        CanopusConfig {
            refactor: RefactorConfig {
                num_levels: levels,
                ..Default::default()
            },
            codec,
            delta_chunks: chunks,
            ..Default::default()
        },
    )?;
    let report = canopus
        .write(file, var, &mesh, &data)
        .map_err(|e| format!("write failed: {e}"))?;
    println!(
        "wrote {var} to {file}: {} products, {} B stored (from {} B raw), simulated I/O {:.2} ms",
        report.products.len(),
        report.stored_data_bytes(),
        data.len() * 8,
        report.io_time.seconds() * 1e3,
    );
    for p in &report.products {
        println!("  tier {}  {:>9} B  {}", p.tier, p.stored_bytes, p.key);
    }
    Ok(())
}

fn cmd_info(argv: &[String]) -> Result<(), String> {
    let a = Args::parse(argv, &[], &[])?;
    let store_dir = a.pos(0, "store directory")?;
    let file = a.pos(1, "file name")?;
    let canopus = canopus_for(store_dir, CanopusConfig::default())?;
    let bp = canopus
        .store()
        .open(file)
        .map_err(|e| format!("opening {file}: {e}"))?;
    let meta = bp.meta();
    println!("{}: {} accuracy levels", meta.name, meta.num_levels);
    for var in &meta.vars {
        println!("  variable {:?}: {} blocks", var.name, var.blocks.len());
        for b in &var.blocks {
            let tier = canopus
                .hierarchy()
                .find(&b.key)
                .map(|t| t.to_string())
                .unwrap_or_else(|_| "?".into());
            // A level's geometry: the two sections a read fetches apart.
            let sections = canopus_adios::GeometrySection::ALL
                .iter()
                .filter_map(|&s| Some(format!("{} {} B", s.name(), b.section(s)?.len)))
                .collect::<Vec<_>>();
            let stored = match sections.is_empty() {
                true => format!("{} B", b.stored_bytes),
                false => format!("{} B ({})", b.stored_bytes, sections.join(" + ")),
            };
            println!(
                "    {:?} tier {} codec {} stored {stored} raw {} B range [{:.3}, {:.3}]",
                b.kind, tier, b.codec_id, b.raw_bytes, b.min, b.max
            );
        }
    }
    Ok(())
}

fn cmd_read(argv: &[String]) -> Result<(), String> {
    let a = Args::parse(argv, &["no-cache"], &engine_options(&["level", "out"]))?;
    let store_dir = a.pos(0, "store directory")?;
    let file = a.pos(1, "file name")?;
    let var = a.pos(2, "variable name")?;
    let level: u32 = a.opt_parse("level", 0u32)?;
    let out = a.req("out")?;
    let canopus = canopus_for(store_dir, engine_config(&a)?)?;
    let reader = canopus.open(file).map_err(|e| format!("open: {e}"))?;
    let outcome = reader
        .read_level(var, level)
        .map_err(|e| format!("read: {e}"))?;
    save_f64(out, &outcome.data)?;
    if outcome.degraded {
        eprintln!(
            "warning: degraded restore — tier faults outlasted the retry \
             budget, serving L{} instead of L{level}",
            outcome.achieved_level
        );
    }
    println!(
        "restored {var} L{}: {} values -> {out} (I/O {:.2} ms, decompress {:.2} ms, restore {:.2} ms, wall {:.2} ms)",
        outcome.level,
        outcome.data.len(),
        outcome.timing.io_secs * 1e3,
        outcome.timing.decompress_secs * 1e3,
        outcome.timing.restore_secs * 1e3,
        outcome.timing.elapsed_secs * 1e3,
    );
    Ok(())
}

fn cmd_render(argv: &[String]) -> Result<(), String> {
    let a = Args::parse(argv, &[], &["level", "size", "out"])?;
    let store_dir = a.pos(0, "store directory")?;
    let file = a.pos(1, "file name")?;
    let var = a.pos(2, "variable name")?;
    let level: u32 = a.opt_parse("level", 0u32)?;
    let size: usize = a.opt_parse("size", 512usize)?;
    let out = a.req("out")?;
    let canopus = canopus_for(store_dir, CanopusConfig::default())?;
    let reader = canopus.open(file).map_err(|e| format!("open: {e}"))?;
    let outcome = reader
        .read_level(var, level)
        .map_err(|e| format!("read: {e}"))?;

    let bounds = outcome.mesh.aabb();
    let raster = canopus_analytics::raster::Raster::from_mesh(
        &outcome.mesh,
        &outcome.data,
        size,
        size,
        bounds,
    );
    let (lo, hi) = raster
        .value_range()
        .ok_or_else(|| "raster is empty".to_string())?;
    let img = canopus_analytics::render::render_field(&raster, lo, hi);
    let mut f = std::fs::File::create(out).map_err(|e| format!("creating {out}: {e}"))?;
    img.write_ppm(&mut f)
        .map_err(|e| format!("writing {out}: {e}"))?;
    println!("rendered {var} L{level} at {size}x{size} -> {out}");
    Ok(())
}

fn cmd_explore(argv: &[String]) -> Result<(), String> {
    let a = Args::parse(argv, &[], &["rms-threshold"])?;
    let store_dir = a.pos(0, "store directory")?;
    let file = a.pos(1, "file name")?;
    let var = a.pos(2, "variable name")?;
    let threshold: f64 = a.opt_parse("rms-threshold", 0.0f64)?;
    let canopus = canopus_for(store_dir, CanopusConfig::default())?;
    let reader = canopus.open(file).map_err(|e| format!("open: {e}"))?;
    let mut prog = reader
        .progressive(var)
        .map_err(|e| format!("progressive: {e}"))?;
    println!(
        "L{}: {} vertices (base), I/O {:.2} ms",
        prog.level(),
        prog.num_vertices(),
        prog.last_timing().io_secs * 1e3
    );
    while !prog.at_full_accuracy() {
        let step = prog.refine().map_err(|e| format!("refine: {e}"))?;
        let rms = prog.last_delta_rms().unwrap_or(0.0);
        println!(
            "L{}: {} vertices, +{:.2} ms I/O, delta RMS {:.4}",
            prog.level(),
            prog.num_vertices(),
            step.io_secs * 1e3,
            rms
        );
        if threshold > 0.0 && rms < threshold {
            println!("stopping: delta RMS fell below {threshold}");
            break;
        }
    }
    let total = prog.cumulative_timing();
    println!(
        "cumulative: I/O {:.2} ms, decompress {:.2} ms, restore {:.2} ms",
        total.io_secs * 1e3,
        total.decompress_secs * 1e3,
        total.restore_secs * 1e3
    );
    Ok(())
}

fn cmd_region(argv: &[String]) -> Result<(), String> {
    use canopus_mesh::geometry::{Aabb, Point2};
    let a = Args::parse(argv, &["prom"], &["x0", "y0", "x1", "y1", "out", "metrics"])?;
    let store_dir = a.pos(0, "store directory")?;
    let file = a.pos(1, "file name")?;
    let var = a.pos(2, "variable name")?;
    let x0: f64 = a.req("x0")?.parse().map_err(|_| "bad --x0".to_string())?;
    let y0: f64 = a.req("y0")?.parse().map_err(|_| "bad --y0".to_string())?;
    let x1: f64 = a.req("x1")?.parse().map_err(|_| "bad --x1".to_string())?;
    let y1: f64 = a.req("y1")?.parse().map_err(|_| "bad --y1".to_string())?;
    let out = a.req("out")?;
    let window = Aabb::from_points([Point2::new(x0, y0), Point2::new(x1, y1)]);

    let canopus = canopus_for(store_dir, CanopusConfig::default())?;
    let reader = canopus.open(file).map_err(|e| format!("open: {e}"))?;
    let base = reader.read_base(var).map_err(|e| format!("base: {e}"))?;
    let (roi, stats) = reader
        .refine_region(var, &base, window)
        .map_err(|e| format!("region: {e}"))?;
    save_f64(out, &roi.data)?;
    println!(
        "refined L{} -> L{} inside [{x0},{y0}]x[{x1},{y1}]: {}/{} chunks, {} B, {} of {} vertices level-exact -> {out}",
        base.level,
        roi.level,
        stats.chunks_read,
        stats.chunks_total,
        stats.bytes_read,
        stats.exact_vertices,
        roi.data.len(),
    );
    // Optional snapshot dump so the chunk-planning counters
    // (canopus.read.chunks_{planned,fetched,skipped}) and the ranged
    // per-chunk fetch histogram are inspectable after a focused read.
    if let Some(path) = a.opt("metrics") {
        let snap = canopus.metrics().snapshot();
        let text = if a.flag("prom") {
            canopus_obs::export::prometheus_text(&snap)
        } else {
            snap.to_json_string()
        };
        std::fs::write(path, &text).map_err(|e| format!("writing {path}: {e}"))?;
        println!("metrics snapshot -> {path}");
    }
    Ok(())
}

/// Deterministic per-request mixer for the `serve` workload.
fn serve_mix(seed: u64, client: u64, i: u64) -> u64 {
    let mut x = seed ^ (client.wrapping_mul(0x9E37_79B9_7F4A_7C15)) ^ (i << 17);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn cmd_serve(argv: &[String]) -> Result<(), String> {
    use canopus::{CanopusService, Priority, ServeRequest};
    use canopus_mesh::geometry::{Aabb, Point2};
    use canopus_obs::names;

    let a = Args::parse(
        argv,
        &[],
        &[
            "workers",
            "queue",
            "clients",
            "requests",
            "seed",
            "quick-pct",
            "region-pct",
            "listen",
            "addr-file",
            "linger-secs",
        ],
    )?;
    let store_dir = a.pos(0, "store directory")?;
    let file = a.pos(1, "file name")?;
    let var = a.pos(2, "variable name")?;
    let defaults = CanopusConfig::default();
    let workers: u32 = a.opt_parse("workers", defaults.serve_workers)?;
    let queue: u32 = a.opt_parse("queue", defaults.serve_queue)?;
    let clients: u64 = a.opt_parse("clients", 4u64)?;
    let requests: u64 = a.opt_parse("requests", 8u64)?;
    let seed: u64 = a.opt_parse("seed", 42u64)?;
    let quick_pct: u64 = a.opt_parse("quick-pct", 50u64)?;
    let region_pct: u64 = a.opt_parse("region-pct", 20u64)?;
    if quick_pct + region_pct > 100 {
        return Err("--quick-pct + --region-pct must not exceed 100".into());
    }

    let canopus = canopus_for(
        store_dir,
        CanopusConfig {
            serve_workers: workers,
            serve_queue: queue,
            ..defaults
        },
    )?;
    let num_levels = canopus
        .store()
        .open(file)
        .map_err(|e| format!("opening {file}: {e}"))?
        .meta()
        .num_levels
        .max(1);
    let service = CanopusService::start(std::sync::Arc::new(canopus));

    // --listen arms the live telemetry plane: the in-service gauges plus
    // the embedded scrape endpoint over the same registry.
    let telemetry = match a.opt("listen") {
        Some(addr) => {
            service.enable_live_telemetry();
            let server = canopus::TelemetryServer::start(
                addr,
                service.telemetry_sources(),
                canopus::TelemetryConfig::default(),
            )
            .map_err(|e| format!("binding telemetry endpoint {addr}: {e}"))?;
            println!(
                "telemetry endpoint on {} (/metrics /metrics.json /healthz /slo)",
                server.base_url()
            );
            if let Some(path) = a.opt("addr-file") {
                std::fs::write(path, format!("{}\n", server.addr()))
                    .map_err(|e| format!("writing {path}: {e}"))?;
            }
            Some(server)
        }
        None => None,
    };

    // Warm-up quick look doubles as a liveness check and yields the
    // variable's bounding box for region requests.
    let warm = service
        .submit(ServeRequest::Base {
            file: file.to_string(),
            var: var.to_string(),
        })
        .map_err(|e| format!("submit: {e}"))?
        .wait()
        .map_err(|e| format!("serve: {e}"))?;
    let bb = warm.outcome.mesh.aabb();

    let window = |roll: u64| {
        let cx = (bb.min.x + bb.max.x) / 2.0;
        let cy = (bb.min.y + bb.max.y) / 2.0;
        let (x0, y0) = match roll % 4 {
            0 => (bb.min.x, bb.min.y),
            1 => (cx, bb.min.y),
            2 => (bb.min.x, cy),
            _ => (cx, cy),
        };
        Aabb::from_points([
            Point2::new(x0, y0),
            Point2::new(x0 + (cx - bb.min.x), y0 + (cy - bb.min.y)),
        ])
    };

    let started = std::time::Instant::now();
    let (ok, failed) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let service = &service;
                let window = &window;
                scope.spawn(move || {
                    let (mut ok, mut failed) = (0u64, 0u64);
                    for i in 0..requests {
                        let roll = serve_mix(seed, c, i);
                        let request = if roll % 100 < quick_pct {
                            ServeRequest::Base {
                                file: file.to_string(),
                                var: var.to_string(),
                            }
                        } else if roll % 100 < quick_pct + region_pct {
                            ServeRequest::Region {
                                file: file.to_string(),
                                var: var.to_string(),
                                region: window(roll >> 7),
                            }
                        } else {
                            ServeRequest::Level {
                                file: file.to_string(),
                                var: var.to_string(),
                                level: (roll >> 9) as u32 % num_levels,
                            }
                        };
                        match service.submit(request).map(|t| t.wait()) {
                            Ok(Ok(_)) => ok += 1,
                            _ => failed += 1,
                        }
                    }
                    (ok, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .fold((0, 0), |(a, b), (c, d)| (a + c, b + d))
    });
    let elapsed = started.elapsed().as_secs_f64();

    let total = ok + failed + 1; // + warm-up
    println!(
        "served {total} requests from {clients} clients in {:.1} ms ({:.1} req/s, {failed} failed) over {} workers",
        elapsed * 1e3,
        (ok + failed) as f64 / elapsed.max(1e-9),
        service.workers(),
    );
    let obs = std::sync::Arc::clone(service.metrics());
    for priority in [Priority::QuickLook, Priority::FullAccuracy] {
        let class = priority.class();
        let count = obs.counter(&names::serve_completed(class)).get();
        let wait = obs.histogram(&names::serve_queue_wait_hist(class)).stat();
        let lat = obs.histogram(&names::serve_latency_hist(class)).stat();
        let hits = obs.counter(&names::serve_deadline_hit(class)).get();
        let misses = obs.counter(&names::serve_deadline_miss(class)).get();
        let attainment = if hits + misses == 0 {
            100.0
        } else {
            hits as f64 * 100.0 / (hits + misses) as f64
        };
        println!(
            "  {class:<5} n={count:<5} queue-wait p50/p99 {:.2}/{:.2} ms   latency p50/p99 {:.2}/{:.2} ms   deadline {hits}/{} hit ({attainment:.1}%)",
            wait.p50_secs() * 1e3,
            wait.p99_secs() * 1e3,
            lat.p50_secs() * 1e3,
            lat.p99_secs() * 1e3,
            hits + misses,
        );
    }

    // Keep the endpoint up for external scrapers before tearing down.
    if let Some(server) = &telemetry {
        let linger: f64 = a.opt_parse("linger-secs", 0.0f64)?;
        if linger > 0.0 {
            println!(
                "lingering {linger:.1}s for scrapes on {} ...",
                server.base_url()
            );
            std::thread::sleep(std::time::Duration::from_secs_f64(linger));
        }
        println!("telemetry: {} scrapes answered", server.scrapes());
    }

    drop(telemetry);
    Ok(())
}

fn cmd_metrics(argv: &[String]) -> Result<(), String> {
    let a = Args::parse(
        argv,
        &["no-cache", "prom"],
        &engine_options(&["level", "out", "watch", "watch-iters"]),
    )?;
    let store_dir = a.pos(0, "store directory")?;
    let file = a.pos(1, "file name")?;
    let var = a.pos(2, "variable name")?;
    let level: u32 = a.opt_parse("level", 0u32)?;
    let out = a.opt("out");

    let canopus = canopus_for(store_dir, engine_config(&a)?)?;
    // Turn on the structured-event sink for this run so the snapshot
    // carries spans as well as counters/timers.
    let obs = std::sync::Arc::clone(canopus.metrics());
    obs.set_sink(std::sync::Arc::new(
        canopus_obs::RingBufferSink::with_capacity(4096),
    ));
    let reader = canopus.open(file).map_err(|e| format!("open: {e}"))?;

    let watch: f64 = a.opt_parse("watch", 0.0f64)?;
    if watch > 0.0 {
        let iters: u64 = a.opt_parse("watch-iters", 0u64)?;
        return watch_metrics(&obs, &reader, var, level, watch, iters);
    }

    let outcome = reader
        .read_level(var, level)
        .map_err(|e| format!("read: {e}"))?;

    let snap = obs.snapshot();
    warn_on_dropped_events(&snap);
    let text = if a.flag("prom") {
        canopus_obs::export::prometheus_text(&snap)
    } else {
        snap.to_json_string()
    };
    match out {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("writing {path}: {e}"))?;
            println!(
                "restored {var} L{level} ({} values); metrics snapshot -> {path}",
                outcome.data.len()
            );
        }
        None => println!("{text}"),
    }
    Ok(())
}

/// The `metrics --watch` loop: re-run the restore every `interval_s`
/// seconds and print each interval's metric *deltas* — a live view of
/// rates and windowed tails built on [`MetricsSnapshot::diff`] instead
/// of ever-growing cumulative totals. `iters == 0` runs until
/// interrupted.
///
/// [`MetricsSnapshot::diff`]: canopus::MetricsSnapshot::diff
fn watch_metrics(
    obs: &canopus::Registry,
    reader: &canopus::CanopusReader,
    var: &str,
    level: u32,
    interval_s: f64,
    iters: u64,
) -> Result<(), String> {
    use canopus_obs::names;
    println!(
        "watching {var} L{level}: one restore per {interval_s:.2}s poll, interval diffs{}",
        if iters == 0 {
            " (Ctrl-C to stop)".to_string()
        } else {
            format!(", {iters} iterations")
        }
    );
    println!(
        "{:>4}  {:>7}  {:>10}  {:>9}  {:>11}  {:>17}",
        "iter", "blocks", "bytes-io", "cache h/m", "values", "decode p50/p99 ms"
    );
    let mut prev = obs.snapshot();
    let mut i = 0u64;
    loop {
        i += 1;
        let begun = std::time::Instant::now();
        reader
            .read_level(var, level)
            .map_err(|e| format!("read: {e}"))?;
        let snap = obs.snapshot();
        let d = snap.diff(&prev);
        let decode = d.histogram(names::READ_DECODE_HIST);
        println!(
            "{i:>4}  {:>7}  {:>10}  {:>4}/{:<4}  {:>11}  {:>8.3}/{:<8.3}",
            d.counter(names::READ_BLOCKS),
            d.counter(names::READ_BYTES_IO),
            d.counter(names::READ_CACHE_HITS),
            d.counter(names::READ_CACHE_MISSES),
            d.counter(names::READ_VALUES_DECODED),
            decode.p50_secs() * 1e3,
            decode.p99_secs() * 1e3,
        );
        prev = snap;
        if iters > 0 && i >= iters {
            return Ok(());
        }
        let elapsed = begun.elapsed().as_secs_f64();
        if elapsed < interval_s {
            std::thread::sleep(std::time::Duration::from_secs_f64(interval_s - elapsed));
        }
    }
}

/// Capture depth of the `trace` subcommand's ring buffer. Larger than
/// the `metrics` buffer since every block contributes several spans and
/// a truncated trace is far less useful than a truncated snapshot.
const TRACE_SINK_CAPACITY: usize = 65536;

fn cmd_trace(argv: &[String]) -> Result<(), String> {
    let a = Args::parse(argv, &["no-cache"], &engine_options(&["level", "out"]))?;
    let store_dir = a.pos(0, "store directory")?;
    let file = a.pos(1, "file name")?;
    let var = a.pos(2, "variable name")?;
    let level: u32 = a.opt_parse("level", 0u32)?;
    let out = a.opt("out");

    let canopus = canopus_for(store_dir, engine_config(&a)?)?;
    let obs = std::sync::Arc::clone(canopus.metrics());
    obs.set_sink(std::sync::Arc::new(
        canopus_obs::RingBufferSink::with_capacity(TRACE_SINK_CAPACITY),
    ));
    let reader = canopus.open(file).map_err(|e| format!("open: {e}"))?;
    let outcome = reader
        .read_level(var, level)
        .map_err(|e| format!("read: {e}"))?;

    let snap = obs.snapshot();
    warn_on_dropped_events(&snap);
    let trace = canopus_obs::export::chrome_trace(&snap);
    match out {
        Some(path) => {
            std::fs::write(path, &trace).map_err(|e| format!("writing {path}: {e}"))?;
            println!(
                "restored {var} L{level} ({} values); {} trace events -> {path} \
                 (open in chrome://tracing)",
                outcome.data.len(),
                snap.events.len()
            );
        }
        None => println!("{trace}"),
    }
    Ok(())
}

/// Satellite warning: a ring-buffer sink that hit capacity silently
/// truncates the span tree, so surface that on stderr next to whatever
/// the command prints.
fn warn_on_dropped_events(snap: &canopus::MetricsSnapshot) {
    if snap.dropped_events > 0 {
        eprintln!(
            "warning: sink dropped {} events at capacity — spans are \
             missing; raise the buffer size or trace a smaller read",
            snap.dropped_events
        );
    }
}

fn cmd_tiers(argv: &[String]) -> Result<(), String> {
    let a = Args::parse(argv, &[], &[])?;
    let store_dir = a.pos(0, "store directory")?;
    let (hierarchy, _) = store::open(Path::new(store_dir))?;
    for t in 0..hierarchy.num_tiers() {
        let spec = hierarchy.tier_spec(t).map_err(|e| e.to_string())?;
        let dev = hierarchy.tier_device(t).map_err(|e| e.to_string())?;
        println!(
            "tier {t} {:<12} {:>12} / {:>12} B used ({} objects)",
            spec.name,
            dev.used(),
            dev.capacity(),
            dev.len()
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("canopus_cmd_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn run(args: &[String]) -> Result<(), String> {
        dispatch(args)
    }

    fn s(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|p| p.to_string()).collect()
    }

    #[test]
    fn full_cli_workflow() {
        let dir = tmpdir("flow");
        let store = dir.join("store");
        let mesh = dir.join("m.off");
        let data = dir.join("d.f64");
        let out = dir.join("restored.f64");
        let ppm = dir.join("img.ppm");
        let (store, mesh, data, out, ppm) = (
            store.to_str().unwrap(),
            mesh.to_str().unwrap(),
            data.to_str().unwrap(),
            out.to_str().unwrap(),
            ppm.to_str().unwrap(),
        );

        run(&s(&["init", store])).unwrap();
        run(&s(&[
            "demo-data",
            "cfd",
            "--mesh",
            mesh,
            "--data",
            data,
            "--small",
            "--seed",
            "7",
        ]))
        .unwrap();
        run(&s(&[
            "write", store, "p.bp", "pressure", "--mesh", mesh, "--data", data, "--levels", "3",
            "--codec", "raw",
        ]))
        .unwrap();
        run(&s(&["info", store, "p.bp"])).unwrap();
        run(&s(&["tiers", store])).unwrap();
        run(&s(&["read", store, "p.bp", "pressure", "--out", out])).unwrap();
        run(&s(&[
            "render", store, "p.bp", "pressure", "--out", ppm, "--size", "64",
        ]))
        .unwrap();

        // Raw codec: the restored file matches the input exactly.
        let orig = load_f64(data).unwrap();
        let restored = load_f64(out).unwrap();
        let max_err = orig
            .iter()
            .zip(&restored)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_err < 1e-12, "CLI roundtrip err {max_err}");
        assert!(std::fs::metadata(ppm).unwrap().len() > 1000);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_persists_across_reopen() {
        let dir = tmpdir("persist");
        let store = dir.join("store");
        let mesh = dir.join("m.off");
        let data = dir.join("d.f64");
        let out = dir.join("o.f64");
        let (store, mesh, data, out) = (
            store.to_str().unwrap(),
            mesh.to_str().unwrap(),
            data.to_str().unwrap(),
            out.to_str().unwrap(),
        );
        run(&s(&["init", store])).unwrap();
        run(&s(&[
            "demo-data",
            "xgc1",
            "--mesh",
            mesh,
            "--data",
            data,
            "--small",
        ]))
        .unwrap();
        run(&s(&[
            "write", store, "x.bp", "dpot", "--mesh", mesh, "--data", data,
        ]))
        .unwrap();
        // Separate "process": everything re-opened from disk.
        run(&s(&[
            "read", store, "x.bp", "dpot", "--level", "2", "--out", out,
        ]))
        .unwrap();
        let base = load_f64(out).unwrap();
        let orig = load_f64(data).unwrap();
        assert!(base.len() < orig.len() / 3, "level 2 is ~4x decimated");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        assert!(run(&s(&["bogus"])).is_err());
        assert!(run(&s(&["write"])).is_err());
        assert!(run(&s(&[
            "read",
            "/nonexistent",
            "f.bp",
            "v",
            "--out",
            "/tmp/x"
        ]))
        .is_err());
        assert!(run(&s(&[
            "demo-data",
            "marsattacks",
            "--mesh",
            "/tmp/m",
            "--data",
            "/tmp/d"
        ]))
        .is_err());
        assert!(run(&s(&[])).is_err());
        assert!(run(&s(&["help"])).is_ok());
    }

    #[test]
    fn explore_and_region_subcommands() {
        let dir = tmpdir("explore");
        let store = dir.join("store");
        let mesh = dir.join("m.off");
        let data = dir.join("d.f64");
        let out = dir.join("roi.f64");
        let (store, mesh, data, out) = (
            store.to_str().unwrap(),
            mesh.to_str().unwrap(),
            data.to_str().unwrap(),
            out.to_str().unwrap(),
        );
        run(&s(&["init", store])).unwrap();
        run(&s(&[
            "demo-data",
            "xgc1",
            "--mesh",
            mesh,
            "--data",
            data,
            "--small",
        ]))
        .unwrap();
        run(&s(&[
            "write", store, "x.bp", "dpot", "--mesh", mesh, "--data", data, "--levels", "3",
            "--chunks", "8",
        ]))
        .unwrap();
        run(&s(&["explore", store, "x.bp", "dpot"])).unwrap();
        run(&s(&[
            "region", store, "x.bp", "dpot", "--x0", "0.0", "--y0", "0.0", "--x1", "1.0", "--y1",
            "1.0", "--out", out,
        ]))
        .unwrap();
        assert!(std::fs::metadata(out).unwrap().len() > 0);
        // Missing bbox option errors cleanly.
        assert!(run(&s(&["region", store, "x.bp", "dpot", "--out", out])).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chunked_write_then_region_with_metrics() {
        let dir = tmpdir("chunked");
        let store = dir.join("store");
        let mesh = dir.join("m.off");
        let data = dir.join("d.f64");
        let out = dir.join("roi.f64");
        let metrics = dir.join("region_metrics.json");
        let (store, mesh, data, out, metrics) = (
            store.to_str().unwrap(),
            mesh.to_str().unwrap(),
            data.to_str().unwrap(),
            out.to_str().unwrap(),
            metrics.to_str().unwrap(),
        );
        run(&s(&["init", store])).unwrap();
        run(&s(&[
            "demo-data",
            "xgc1",
            "--mesh",
            mesh,
            "--data",
            data,
            "--small",
        ]))
        .unwrap();
        run(&s(&[
            "write", store, "x.bp", "dpot", "--mesh", mesh, "--data", data, "--levels", "3",
            "--chunks", "8",
        ]))
        .unwrap();
        // A small window against the persisted 8-chunk file: ranged
        // reads off the directory-backed device, counters in the dump.
        run(&s(&[
            "region",
            store,
            "x.bp",
            "dpot",
            "--x0",
            "0.0",
            "--y0",
            "0.0",
            "--x1",
            "1.1",
            "--y1",
            "0.55",
            "--out",
            out,
            "--metrics",
            metrics,
        ]))
        .unwrap();
        assert!(std::fs::metadata(out).unwrap().len() > 0);
        let text = std::fs::read_to_string(metrics).unwrap();
        let snap = canopus::MetricsSnapshot::from_json_str(&text).unwrap();
        let planned = snap.counter(canopus_obs::names::READ_CHUNKS_PLANNED);
        let fetched = snap.counter(canopus_obs::names::READ_CHUNKS_FETCHED);
        let skipped = snap.counter(canopus_obs::names::READ_CHUNKS_SKIPPED);
        assert_eq!(planned, 8, "one refined level of 8 chunks");
        assert!(fetched > 0 && fetched < planned, "{fetched}/{planned}");
        assert_eq!(skipped, planned - fetched);
        assert_eq!(
            snap.histogram(canopus_obs::names::READ_CHUNK_FETCH_HIST)
                .count,
            fetched,
            "one ranged fetch per moved chunk"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_subcommand_dumps_valid_snapshot() {
        let dir = tmpdir("metrics");
        let store = dir.join("store");
        let mesh = dir.join("m.off");
        let data = dir.join("d.f64");
        let json = dir.join("metrics.json");
        let (store, mesh, data, json) = (
            store.to_str().unwrap(),
            mesh.to_str().unwrap(),
            data.to_str().unwrap(),
            json.to_str().unwrap(),
        );
        run(&s(&["init", store])).unwrap();
        run(&s(&[
            "demo-data",
            "cfd",
            "--mesh",
            mesh,
            "--data",
            data,
            "--small",
        ]))
        .unwrap();
        run(&s(&[
            "write", store, "p.bp", "pressure", "--mesh", mesh, "--data", data,
        ]))
        .unwrap();
        run(&s(&["metrics", store, "p.bp", "pressure", "--out", json])).unwrap();

        let text = std::fs::read_to_string(json).unwrap();
        let snap = canopus::MetricsSnapshot::from_json_str(&text).unwrap();
        assert!(snap.counter(canopus_obs::names::READ_BYTES_IO) > 0);
        let geometry = snap.counter(canopus_obs::names::READ_GEOMETRY_BYTES);
        assert!(0 < geometry && geometry < snap.counter(canopus_obs::names::READ_BYTES_IO));
        let coordinates = snap.counter(canopus_obs::names::READ_COORDINATE_BYTES);
        assert!(0 < coordinates && coordinates < geometry);
        assert!(snap.counter(canopus_obs::names::READ_BLOCKS) > 0);
        assert!(snap.timer(canopus_obs::names::READ_IO).count > 0);
        // Default engine: cache enabled, so the cold read records misses.
        assert!(snap.counter(canopus_obs::names::READ_CACHE_MISSES) > 0);

        // --no-cache: no cache traffic, and still one walk.
        run(&s(&[
            "metrics",
            store,
            "p.bp",
            "pressure",
            "--no-cache",
            "--out",
            json,
        ]))
        .unwrap();
        let text = std::fs::read_to_string(json).unwrap();
        let snap = canopus::MetricsSnapshot::from_json_str(&text).unwrap();
        assert_eq!(snap.counter(canopus_obs::names::READ_CACHE_MISSES), 0);
        assert_eq!(snap.counter(canopus_obs::names::READ_CACHE_HITS), 0);
        assert_eq!(snap.counter(canopus_obs::names::READ_WALKS), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_flags_ride_out_transients_and_report_retries() {
        let dir = tmpdir("faults");
        let store = dir.join("store");
        let mesh = dir.join("m.off");
        let data = dir.join("d.f64");
        let clean = dir.join("clean.f64");
        let faulty = dir.join("faulty.f64");
        let json = dir.join("metrics.json");
        let (store, mesh, data, clean, faulty, json) = (
            store.to_str().unwrap(),
            mesh.to_str().unwrap(),
            data.to_str().unwrap(),
            clean.to_str().unwrap(),
            faulty.to_str().unwrap(),
            json.to_str().unwrap(),
        );
        run(&s(&["init", store])).unwrap();
        run(&s(&[
            "demo-data",
            "cfd",
            "--mesh",
            mesh,
            "--data",
            data,
            "--small",
        ]))
        .unwrap();
        run(&s(&[
            "write", store, "p.bp", "pressure", "--mesh", mesh, "--data", data, "--codec", "fpc",
        ]))
        .unwrap();
        run(&s(&["read", store, "p.bp", "pressure", "--out", clean])).unwrap();

        // Transient get errors plus in-flight corruption: the retry
        // budget rides both out and the restored bytes are identical to
        // the fault-free run. The seed is fixed, so the schedule (and
        // whether the unretried manifest read survives) is reproducible.
        run(&s(&[
            "read",
            store,
            "p.bp",
            "pressure",
            "--fault-seed",
            "9",
            "--fault-get-p",
            "0.2",
            "--fault-corrupt-p",
            "0.1",
            "--out",
            faulty,
        ]))
        .unwrap();
        assert_eq!(
            std::fs::read(clean).unwrap(),
            std::fs::read(faulty).unwrap(),
            "faulted restore must be byte-identical"
        );

        // The metrics subcommand shows the recovery work in its snapshot.
        run(&s(&[
            "metrics",
            store,
            "p.bp",
            "pressure",
            "--fault-seed",
            "9",
            "--fault-get-p",
            "0.2",
            "--fault-corrupt-p",
            "0.1",
            "--out",
            json,
        ]))
        .unwrap();
        let text = std::fs::read_to_string(json).unwrap();
        let snap = canopus::MetricsSnapshot::from_json_str(&text).unwrap();
        assert!(snap.counter(canopus_obs::names::READ_FAULTS_INJECTED) > 0);
        assert!(snap.counter(canopus_obs::names::READ_RETRIES) > 0);
        assert_eq!(snap.counter(canopus_obs::names::READ_DEGRADED_RESTORES), 0);

        // Malformed down-window is a clean error, not a panic.
        assert!(run(&s(&[
            "read",
            store,
            "p.bp",
            "pressure",
            "--fault-down",
            "nonsense",
            "--out",
            faulty,
        ]))
        .is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_subcommand_writes_causal_chrome_trace() {
        let dir = tmpdir("trace");
        let store = dir.join("store");
        let mesh = dir.join("m.off");
        let data = dir.join("d.f64");
        let trace = dir.join("trace.json");
        let (store, mesh, data, trace) = (
            store.to_str().unwrap(),
            mesh.to_str().unwrap(),
            data.to_str().unwrap(),
            trace.to_str().unwrap(),
        );
        run(&s(&["init", store])).unwrap();
        run(&s(&[
            "demo-data",
            "cfd",
            "--mesh",
            mesh,
            "--data",
            data,
            "--small",
        ]))
        .unwrap();
        run(&s(&[
            "write", store, "p.bp", "pressure", "--mesh", mesh, "--data", data,
        ]))
        .unwrap();
        run(&s(&["trace", store, "p.bp", "pressure", "--out", trace])).unwrap();

        let text = std::fs::read_to_string(trace).unwrap();
        let parsed = canopus_obs::json::parse(&text).unwrap();
        let events = parsed
            .get("traceEvents")
            .and_then(canopus_obs::json::Value::as_arr)
            .unwrap();
        // The restore emits a root "read" slice plus per-block children.
        let named = |n: &str| {
            events
                .iter()
                .filter(|e| e.get("name").and_then(canopus_obs::json::Value::as_str) == Some(n))
                .count()
        };
        assert!(named("read") >= 1, "root read span present");
        assert!(named("read.block") >= 1, "block spans present");
        assert!(named("decode") >= 1, "decode spans present");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_prom_flag_emits_prometheus_text() {
        let dir = tmpdir("prom");
        let store = dir.join("store");
        let mesh = dir.join("m.off");
        let data = dir.join("d.f64");
        let prom = dir.join("metrics.prom");
        let (store, mesh, data, prom) = (
            store.to_str().unwrap(),
            mesh.to_str().unwrap(),
            data.to_str().unwrap(),
            prom.to_str().unwrap(),
        );
        run(&s(&["init", store])).unwrap();
        run(&s(&[
            "demo-data",
            "cfd",
            "--mesh",
            mesh,
            "--data",
            data,
            "--small",
        ]))
        .unwrap();
        run(&s(&[
            "write", store, "p.bp", "pressure", "--mesh", mesh, "--data", data,
        ]))
        .unwrap();
        run(&s(&[
            "metrics", store, "p.bp", "pressure", "--prom", "--out", prom,
        ]))
        .unwrap();

        let text = std::fs::read_to_string(prom).unwrap();
        assert!(text.contains("# TYPE canopus_read_blocks counter"));
        assert!(text.contains("# TYPE canopus_read_decode_block_wall_seconds histogram"));
        assert!(text.contains("_bucket{le=\"+Inf\"}"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_subcommand_drives_mixed_workload() {
        let dir = tmpdir("serve");
        let store = dir.join("store");
        let mesh = dir.join("m.off");
        let data = dir.join("d.f64");
        let (store, mesh, data) = (
            store.to_str().unwrap(),
            mesh.to_str().unwrap(),
            data.to_str().unwrap(),
        );
        run(&s(&["init", store])).unwrap();
        run(&s(&[
            "demo-data",
            "xgc1",
            "--mesh",
            mesh,
            "--data",
            data,
            "--small",
        ]))
        .unwrap();
        run(&s(&[
            "write", store, "x.bp", "dpot", "--mesh", mesh, "--data", data, "--levels", "3",
            "--chunks", "8",
        ]))
        .unwrap();
        run(&s(&[
            "serve",
            store,
            "x.bp",
            "dpot",
            "--workers",
            "2",
            "--clients",
            "3",
            "--requests",
            "5",
            "--seed",
            "7",
        ]))
        .unwrap();
        // An option the command does not declare is refused by name,
        // not taken as a value-carrying option.
        let err = run(&s(&[
            "serve",
            store,
            "x.bp",
            "dpot",
            "--no-such-flag",
            "--workers",
            "2",
        ]))
        .unwrap_err();
        assert!(err.contains("--no-such-flag"), "{err}");
        // An impossible mix errors cleanly.
        assert!(run(&s(&[
            "serve",
            store,
            "x.bp",
            "dpot",
            "--quick-pct",
            "80",
            "--region-pct",
            "30",
        ]))
        .is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_listen_scrapes_and_metrics_watch_diffs() {
        let dir = tmpdir("telemetry");
        let store = dir.join("store");
        let mesh = dir.join("m.off");
        let data = dir.join("d.f64");
        let addr_file = dir.join("addr.txt");
        let (store, mesh, data, addr_file) = (
            store.to_str().unwrap().to_string(),
            mesh.to_str().unwrap().to_string(),
            data.to_str().unwrap().to_string(),
            addr_file.to_str().unwrap().to_string(),
        );
        run(&s(&["init", &store])).unwrap();
        run(&s(&[
            "demo-data",
            "xgc1",
            "--mesh",
            &mesh,
            "--data",
            &data,
            "--small",
        ]))
        .unwrap();
        run(&s(&[
            "write", &store, "x.bp", "dpot", "--mesh", &mesh, "--data", &data, "--levels", "3",
        ]))
        .unwrap();

        // `serve --listen` in a thread; the main thread scrapes the
        // endpoint during the linger window, then the command exits.
        let serve_args = s(&[
            "serve",
            &store,
            "x.bp",
            "dpot",
            "--workers",
            "2",
            "--clients",
            "2",
            "--requests",
            "4",
            "--listen",
            "127.0.0.1:0",
            "--addr-file",
            &addr_file,
            "--linger-secs",
            "3",
        ]);
        let server = std::thread::spawn(move || dispatch(&serve_args));

        // The CLI writes the bound (ephemeral) address once the endpoint
        // is up; poll for it.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let addr: std::net::SocketAddr = loop {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if let Ok(addr) = text.trim().parse() {
                    break addr;
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "serve never published its telemetry address"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        };

        let t = std::time::Duration::from_secs(5);
        let (status, body) = canopus::telemetry::http_get(addr, "/healthz", t).unwrap();
        assert_eq!(status, 200);
        let doc = canopus_obs::json::parse(&body).unwrap();
        assert_eq!(
            doc.get("status").and_then(canopus_obs::json::Value::as_str),
            Some("ok")
        );
        assert_eq!(
            doc.get("workers_expected")
                .and_then(canopus_obs::json::Value::as_i64),
            Some(2)
        );
        let (status, body) = canopus::telemetry::http_get(addr, "/metrics", t).unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("canopus_serve_requests"));
        let (status, body) = canopus::telemetry::http_get(addr, "/slo", t).unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("attainment_ppm"));
        server.join().unwrap().unwrap();

        // The watch loop: two bounded poll-and-diff iterations.
        run(&s(&[
            "metrics",
            &store,
            "x.bp",
            "dpot",
            "--watch",
            "0.01",
            "--watch-iters",
            "2",
        ]))
        .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chunked_write_via_cli() {
        let dir = tmpdir("chunks");
        let store = dir.join("store");
        let mesh = dir.join("m.off");
        let data = dir.join("d.f64");
        let (store, mesh, data) = (
            store.to_str().unwrap(),
            mesh.to_str().unwrap(),
            data.to_str().unwrap(),
        );
        run(&s(&["init", store])).unwrap();
        run(&s(&[
            "demo-data",
            "genasis",
            "--mesh",
            mesh,
            "--data",
            data,
            "--small",
        ]))
        .unwrap();
        run(&s(&[
            "write", store, "g.bp", "b", "--mesh", mesh, "--data", data, "--chunks", "4",
        ]))
        .unwrap();
        run(&s(&["info", store, "g.bp"])).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_rejects_zero_levels_and_lying_meshes_without_storing() {
        let dir = tmpdir("reject");
        let store = dir.join("store");
        let mesh = dir.join("m.off");
        let hostile = dir.join("hostile.off");
        let data = dir.join("d.f64");
        let files = |root: &Path| -> usize {
            fn walk(p: &Path) -> usize {
                std::fs::read_dir(p)
                    .unwrap()
                    .map(|e| e.unwrap().path())
                    .map(|p| if p.is_dir() { walk(&p) } else { 1 })
                    .sum()
            }
            walk(root)
        };
        std::fs::write(&hostile, "OFF\n1000000000000000 0 0\n0 0 0\n").unwrap();
        let (store_dir, store, mesh, hostile, data) = (
            store.clone(),
            store.to_str().unwrap(),
            mesh.to_str().unwrap(),
            hostile.to_str().unwrap(),
            data.to_str().unwrap(),
        );
        run(&s(&["init", store])).unwrap();
        run(&s(&[
            "demo-data",
            "cfd",
            "--mesh",
            mesh,
            "--data",
            data,
            "--small",
        ]))
        .unwrap();
        let before = files(&store_dir);
        let err = run(&s(&[
            "write", store, "z.bp", "p", "--mesh", mesh, "--data", data, "--levels", "0",
        ]))
        .unwrap_err();
        assert!(err.contains("num_levels must be at least 1"), "{err}");
        let err = run(&s(&[
            "write", store, "h.bp", "p", "--mesh", hostile, "--data", data,
        ]))
        .unwrap_err();
        assert!(err.contains("parsing"), "{err}");
        assert_eq!(files(&store_dir), before, "nothing stored");
        assert!(run(&s(&["info", store, "z.bp"])).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
