//! `serve_mixed`: the multi-tenant steady state. The campaign sits
//! behind `CanopusService::start` with every level and window warmed
//! once, and the repo's standing mix (50% base, 20% region over a 4x4
//! grid of windows, 30% whole levels, uniform) is sent two ways:
//!
//! * the untraced run is a **closed loop** of one client per core; its
//!   clients' latencies and its throughput are the end-to-end numbers;
//! * the traced run is an **open loop**: Poisson arrivals at a fixed
//!   [`RATE`] from one generator thread — independent analysts do not
//!   wait for each other — each request timed from when it was *due*,
//!   then a sweep over rates for attainment against load.
//!
//! The open loop's latencies are per-layer rows, not end-to-end metrics:
//! with one worker for all accuracy work they are mostly queueing, and
//! over the seconds a run may take they spread 10-40% between identical
//! runs (README.md has the numbers). The closed loop regulates itself.
//!
//! Admission, EDF and the reserved quick lane, level-cache probes and
//! the copy-out of 0.5-50 MB outcomes do the work here; codecs and
//! decimation do almost none.

use super::{trace_overhead_pct, write_end_to_end, write_per_layer, Opts, Write};
use crate::campaign::{Campaign, TierTotals, NUM_LEVELS};
use crate::counters::{Counters, MISSING};
use crate::gen::{poisson_arrivals, serve_mix, InputHash, Req, Rng, REGION_GRID};
use crate::metrics::{Checker, Report, Values};
use crate::stats::{due_time_latency_s, mean, median, percentile};
use crate::trace::Tracer;
use canopus::{CanopusError, CanopusService, ReadOutcome, ServeRequest, ServeResponse, Ticket};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const FILE: &str = "t0.bp";

/// Offered rate of the open loop, requests per second. Fixed: 0.3-0.6
/// of the saturation throughput measured on the 2-core target machine,
/// the nearest of {50, 100, 200, 400} that is.
pub const RATE: f64 = 200.0;

/// Latency limits from the due time: the service's own `QuickLook`
/// deadline budget, and a quarter second for accuracy work.
const QUICK_LIMIT_MS: f64 = 50.0;
const HEAVY_LIMIT_MS: f64 = 250.0;
/// Rates of the traced run's attainment sweep.
const SWEEP: [(f64, &str, &str); 4] = [
    (
        100.0,
        "core.serve.rate_100.heavy_p90_ms",
        "core.serve.rate_100.attain",
    ),
    (
        200.0,
        "core.serve.rate_200.heavy_p90_ms",
        "core.serve.rate_200.attain",
    ),
    (
        300.0,
        "core.serve.rate_300.heavy_p90_ms",
        "core.serve.rate_300.attain",
    ),
    (
        400.0,
        "core.serve.rate_400.heavy_p90_ms",
        "core.serve.rate_400.attain",
    ),
];

/// A few hundred values of a response, enough to tell it from any
/// other level or window. Responses are deterministic, so each must
/// match the fully checked warm-up response bit for bit.
struct Sketch {
    level: u32,
    len: usize,
    values: Vec<u64>,
}

impl Sketch {
    fn of(out: &ReadOutcome) -> Self {
        Self {
            level: out.level,
            len: out.data.len(),
            values: Self::sample(&out.data).collect(),
        }
    }

    fn sample(data: &[f64]) -> impl Iterator<Item = u64> + '_ {
        data.iter()
            .step_by((data.len() / 512).max(1))
            .map(|x| x.to_bits())
    }

    fn check(&self, out: &ReadOutcome) -> Result<(), String> {
        if out.degraded || out.level != self.level || out.achieved_level != self.level {
            return Err(format!(
                "asked for level {}, got level {} (degraded: {})",
                self.level, out.achieved_level, out.degraded
            ));
        }
        if out.data.len() != self.len || out.mesh.num_vertices() != self.len {
            return Err(format!(
                "level {}: {} values, expected {}",
                self.level,
                out.data.len(),
                self.len
            ));
        }
        if !Self::sample(&out.data).eq(self.values.iter().copied()) {
            return Err(format!(
                "level {}: values differ from the checked warm-up response",
                self.level
            ));
        }
        Ok(())
    }
}

/// The served campaign plus the reference responses.
struct Served<'a> {
    c: &'a Campaign,
    service: CanopusService,
    levels: Vec<Sketch>,
    regions: Vec<Sketch>,
}

impl<'a> Served<'a> {
    fn request(&self, req: Req) -> ServeRequest {
        let (file, var) = (FILE.to_string(), self.c.var().to_string());
        match req {
            Req::Base => ServeRequest::Base { file, var },
            Req::Level(level) => ServeRequest::Level { file, var, level },
            Req::Region(w) => ServeRequest::Region {
                file,
                var,
                region: self.c.grid_window(w, REGION_GRID),
            },
        }
    }

    fn call(&self, req: Req) -> Result<ServeResponse, String> {
        self.service
            .submit(self.request(req))
            .and_then(|ticket| ticket.wait())
            .map_err(|e| format!("{req:?}: {e}"))
    }

    fn check(&self, req: Req, resp: &ServeResponse) -> Result<(), String> {
        let reference = match req {
            Req::Base => &self.levels[NUM_LEVELS as usize - 1],
            Req::Level(l) => &self.levels[l as usize],
            Req::Region(w) => &self.regions[w as usize],
        };
        if matches!(req, Req::Region(_)) != resp.region_stats.is_some() {
            return Err(format!(
                "{req:?}: region stats present: {}",
                resp.region_stats.is_some()
            ));
        }
        reference
            .check(&resp.outcome)
            .map_err(|why| format!("{req:?}: {why}"))
    }

    /// Start the service and warm it: every level and every window
    /// once, each response fully checked and kept as the reference.
    fn start(c: &'a Campaign, check: &mut Checker) -> Self {
        let mut s = Served {
            c,
            service: CanopusService::start(std::sync::Arc::clone(&c.canopus)),
            levels: Vec::new(),
            regions: Vec::new(),
        };
        for l in 0..NUM_LEVELS {
            let resp = s
                .call(Req::Level(l))
                .unwrap_or_else(|why| panic!("warm-up: {why}"));
            check.op(if l == 0 {
                c.check_full(&resp.outcome, None).map(|_| ())
            } else if l == NUM_LEVELS - 1 {
                c.check_base(&resp.outcome)
            } else {
                Ok(())
            });
            s.levels.push(Sketch::of(&resp.outcome));
        }
        for w in 0..REGION_GRID * REGION_GRID {
            let resp = s
                .call(Req::Region(w))
                .unwrap_or_else(|why| panic!("warm-up: {why}"));
            let out = &resp.outcome;
            check.op(
                if out.degraded || out.level != NUM_LEVELS - 2 || resp.region_stats.is_none() {
                    Err(format!(
                        "warm-up: window {w} came back at level {}",
                        out.level
                    ))
                } else {
                    Ok(())
                },
            );
            s.regions.push(Sketch::of(out));
        }
        check.op(s.call(Req::Base).and_then(|resp| s.check(Req::Base, &resp)));
        s
    }
}

/// Per-class samples of an open loop.
#[derive(Default)]
struct Class {
    /// From the due time.
    latency_ms: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    service_ms: Vec<f64>,
}

/// Per-layer rows of one class: queue wait p50/p99, service p50/p99,
/// latency from the due time p50/p90/p99.
const QUICK_ROWS: [&str; 7] = [
    "core.serve.queue_wait_p50_ms.quick",
    "core.serve.queue_wait_p99_ms.quick",
    "core.serve.service_p50_ms.quick",
    "core.serve.service_p99_ms.quick",
    "core.serve.quick_p50_ms",
    "core.serve.quick_p90_ms",
    "core.serve.quick_p99_ms",
];
const HEAVY_ROWS: [&str; 7] = [
    "core.serve.queue_wait_p50_ms.heavy",
    "core.serve.queue_wait_p99_ms.heavy",
    "core.serve.service_p50_ms.heavy",
    "core.serve.service_p99_ms.heavy",
    "core.serve.heavy_p50_ms",
    "core.serve.heavy_p90_ms",
    "core.serve.heavy_p99_ms",
];

impl Class {
    fn per_layer(&self, v: &mut Values, rows: &[&'static str; 7]) {
        let n = self.latency_ms.len() as u64;
        v.set(rows[0], median(&self.queue_wait_ms), n);
        v.set(rows[1], percentile(&self.queue_wait_ms, 99.0), n);
        v.set(rows[2], median(&self.service_ms), n);
        v.set(rows[3], percentile(&self.service_ms, 99.0), n);
        v.set(rows[4], median(&self.latency_ms), n);
        v.set(rows[5], percentile(&self.latency_ms, 90.0), n);
        v.set(rows[6], percentile(&self.latency_ms, 99.0), n);
    }
}

#[derive(Default)]
struct OpenLoop {
    quick: Class,
    heavy: Class,
    /// How late the generator itself called `submit` (not counting time
    /// it was held inside the previous `submit`).
    gen_late_ms: Vec<f64>,
    submit_block_ms: Vec<f64>,
    decode_s: Vec<f64>,
    restore_s: Vec<f64>,
    offered: usize,
    within_limit: usize,
    /// Last due time to last response collected.
    drain_s: f64,
    tier: TierTotals,
    hash: u64,
}

impl OpenLoop {
    /// The open loop holds only while the generator keeps its schedule:
    /// at p99 it must not be a whole mean gap between arrivals behind.
    /// (A tenth of the gap cannot be held on the 2-core target: with
    /// four runnable threads the kernel's wake-up granularity alone puts
    /// p99 at 0.7-1.1 ms against a 5 ms gap, whatever the spin margin.
    /// The lateness is charged to the request's latency either way.)
    fn invalid(&self, rate: f64) -> Option<String> {
        let (late, limit) = (percentile(&self.gen_late_ms, 99.0), 1e3 / rate);
        (late > limit).then(|| {
            format!("open loop invalid: generator p99 lateness {late:.3} ms above {limit:.3} ms")
        })
    }

    fn attainment(&self) -> f64 {
        self.within_limit as f64 / self.offered.max(1) as f64
    }
}

/// What the generator hands the collector for each request.
struct Sent {
    index: usize,
    due: Instant,
    called: Instant,
    returned: Instant,
    ticket: Result<Ticket, CanopusError>,
}

fn wait_until(due: Instant) {
    loop {
        let left = due.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// One generator thread submits on schedule whatever the service does;
/// one collector thread waits for the tickets, checks the responses and
/// keeps the samples and spans.
fn open_loop(
    s: &Served,
    seed: u64,
    rate: f64,
    seconds: f64,
    tr: &mut Tracer,
    check: &mut Checker,
) -> OpenLoop {
    let count = ((rate * seconds).round() as usize).max(20);
    let due_s = poisson_arrivals(&mut Rng::new(seed ^ 0x6172_7276), rate, count);
    let mix = &serve_mix(seed, NUM_LEVELS, count);
    let mut hash = InputHash::new();
    due_s.iter().zip(mix).for_each(|(&t, &r)| {
        hash.f64(t);
        hash.req(r);
    });

    let tiers = s.c.tier_totals();
    let (tx, rx) = mpsc::channel::<Sent>();
    let start = Instant::now();
    let mut out = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut o = OpenLoop::default();
            for sent in rx {
                let Sent {
                    index,
                    due,
                    called,
                    returned,
                    ticket,
                } = sent;
                let req = mix[index];
                let resp = match ticket.and_then(Ticket::wait) {
                    Ok(resp) => resp,
                    Err(e) => {
                        check.op(Err(format!("{req:?}: {e}")));
                        continue;
                    }
                };
                let ok = s.check(req, &resp);
                let good = ok.is_ok();
                check.op(ok);
                let since_start = |at: Instant| at.duration_since(start).as_secs_f64();
                let lat_ms = 1e3
                    * due_time_latency_s(
                        since_start(due),
                        since_start(called),
                        resp.queue_wait_s,
                        resp.service_s,
                    );
                let (class, limit) = if req.is_quick() {
                    (&mut o.quick, QUICK_LIMIT_MS)
                } else {
                    (&mut o.heavy, HEAVY_LIMIT_MS)
                };
                class.latency_ms.push(lat_ms);
                class.queue_wait_ms.push(resp.queue_wait_s * 1e3);
                class.service_ms.push(resp.service_s * 1e3);
                o.within_limit += (good && lat_ms <= limit) as usize;
                o.decode_s.push(resp.outcome.timing.decompress_secs);
                o.restore_s.push(resp.outcome.timing.restore_secs);

                let (due_us, called_us) = (tr.us_since_epoch(due), tr.us_since_epoch(called));
                let dequeued_us = called_us + resp.queue_wait_s * 1e6;
                let done_us = dequeued_us + resp.service_s * 1e6;
                let op = index as u64;
                let root = tr.record("bench.request", None, op, due_us.min(called_us), done_us);
                tr.record("bench.gen_late", root, op, due_us.min(called_us), called_us);
                tr.record(
                    "core.serve.submit",
                    root,
                    op,
                    called_us,
                    tr.us_since_epoch(returned),
                );
                tr.record("core.serve.queue_wait", root, op, called_us, dequeued_us);
                tr.record("core.serve.service", root, op, dequeued_us, done_us);
            }
            o
        });

        let mut late = Vec::with_capacity(count);
        let mut block = Vec::with_capacity(count);
        let mut free_at = start;
        for (index, &t) in due_s.iter().enumerate() {
            let due = start + Duration::from_secs_f64(t);
            wait_until(due);
            let called = Instant::now();
            let ticket = s.service.submit(s.request(mix[index]));
            let returned = Instant::now();
            late.push(
                called
                    .saturating_duration_since(due.max(free_at))
                    .as_secs_f64()
                    * 1e3,
            );
            block.push((returned - called).as_secs_f64() * 1e3);
            free_at = returned;
            let _ = tx.send(Sent {
                index,
                due,
                called,
                returned,
                ticket,
            });
        }
        drop(tx);
        let mut o = collector.join().expect("collector thread panicked");
        o.gen_late_ms = late;
        o.submit_block_ms = block;
        o
    });
    out.offered = count;
    let last_due = start + Duration::from_secs_f64(*due_s.last().expect("count >= 20"));
    out.drain_s = last_due.elapsed().as_secs_f64();
    out.tier = s.c.tier_totals().since(tiers);
    out.hash = hash.finish();
    out
}

/// What the closed loop measured, as its clients saw it.
#[derive(Default)]
struct ClosedLoop {
    /// `submit` to response in hand, `Base` requests.
    quick_ms: Vec<f64>,
    /// Same, `Region` and `Level` requests.
    heavy_ms: Vec<f64>,
    /// Over each client's first [`EXACT_REQUESTS`] requests: simulated
    /// tier seconds and tier bytes the responses report.
    exact_io_sim_s: f64,
    exact_bytes: u64,
    exact_requests: u64,
    check: Checker,
    hash: InputHash,
}

/// Requests per client the exact metrics are summed over, and the
/// fewest each client sends: 20 rounds of the mix.
const EXACT_REQUESTS: usize = 200;

/// One client per core, each sending its next request when the last
/// one returned, each with its own seeded sequence of the mix.
fn closed_loop(s: &Served, seed: u64, seconds: f64) -> (ClosedLoop, f64) {
    let clients = std::thread::available_parallelism().map_or(2, |n| n.get());
    let start = Instant::now();
    let per_client: Vec<ClosedLoop> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients as u64)
            .map(|client| {
                scope.spawn(move || {
                    let mut o = ClosedLoop::default();
                    let mix = serve_mix(seed ^ (client + 1) << 40, NUM_LEVELS, 5 * EXACT_REQUESTS);
                    for (i, &req) in mix.iter().cycle().enumerate() {
                        if i >= EXACT_REQUESTS && start.elapsed().as_secs_f64() >= seconds {
                            break;
                        }
                        let t = Instant::now();
                        let resp = s.call(req);
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        if let Ok(resp) = &resp {
                            if req.is_quick() {
                                o.quick_ms.push(ms);
                            } else {
                                o.heavy_ms.push(ms);
                            }
                            if i < EXACT_REQUESTS {
                                o.hash.req(req);
                                o.exact_requests += 1;
                                o.exact_io_sim_s += resp.outcome.timing.io_secs;
                                o.exact_bytes += resp.region_stats.map_or(0, |r| r.bytes_read);
                            }
                        }
                        o.check.op(resp.and_then(|resp| s.check(req, &resp)));
                    }
                    o
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let mut all = ClosedLoop::default();
    for o in per_client {
        all.quick_ms.extend(o.quick_ms);
        all.heavy_ms.extend(o.heavy_ms);
        all.exact_io_sim_s += o.exact_io_sim_s;
        all.exact_bytes += o.exact_bytes;
        all.exact_requests += o.exact_requests;
        all.check.merge(o.check);
        all.hash.u64(o.hash.finish());
    }
    (all, elapsed_s)
}

/// The untraced run: the closed loop, for the whole interval.
fn end_to_end(s: &Served, opts: &Opts, v: &mut Values, check: &mut Checker) -> u64 {
    let (closed, elapsed_s) = closed_loop(s, opts.seed, opts.seconds);
    let (qn, hn) = (closed.quick_ms.len() as u64, closed.heavy_ms.len() as u64);
    v.set("first_p50_ms", median(&closed.quick_ms), qn);
    v.set("op_p50_ms", median(&closed.heavy_ms), hn);
    v.note_tail("op_ms", &closed.heavy_ms);
    let k = closed.exact_requests;
    v.set("read_io_sim_s", closed.exact_io_sim_s / k.max(1) as f64, k);
    v.set("read_bytes", closed.exact_bytes as f64 / k.max(1) as f64, k);
    v.set("ops_per_s", (qn + hn) as f64 / elapsed_s, qn + hn);
    check.merge(closed.check);
    closed.hash.finish()
}

/// The traced run: the open loop at the fixed rate — a third of the
/// interval with spans off, a third with spans on — then the sweep.
fn per_layer(
    s: &Served,
    opts: &Opts,
    tr: &mut Tracer,
    v: &mut Values,
    check: &mut Checker,
    invalid: &mut Vec<String>,
) -> u64 {
    let before = Counters::take(s.c);
    let (open, baseline) = opts.measure(tr, |seconds, tr| {
        open_loop(s, opts.seed, RATE, seconds, tr, check)
    });
    let after = Counters::take(s.c);
    invalid.extend(open.invalid(RATE));
    invalid.extend(after.per_layer(&before, v));

    let n = open.offered as u64;
    open.quick.per_layer(v, &QUICK_ROWS);
    open.heavy.per_layer(v, &HEAVY_ROWS);
    v.set("core.serve.submit_block_ms", mean(&open.submit_block_ms), n);
    v.set(
        "core.serve.gen_late_p99_ms",
        percentile(&open.gen_late_ms, 99.0),
        n,
    );
    v.set(
        "core.serve.queue_depth_peak",
        after
            .gauge("canopus.serve.queue_depth_peak")
            .map_or(MISSING, |g| g as f64),
        1,
    );
    v.set("core.serve.workers", s.service.workers() as f64, 1);
    v.set("storage.read_ops", open.tier.read_ops as f64 / n as f64, n);
    v.set(
        "storage.read_bytes",
        open.tier.read_bytes as f64 / n as f64,
        n,
    );
    v.set(
        "storage.slow_read_bytes",
        open.tier.slow_read_bytes as f64 / n as f64,
        n,
    );
    v.set("compress.decode_s", mean(&open.decode_s), n);
    v.set("refactor.restore_s", mean(&open.restore_s), n);
    if let Some(b) = baseline {
        trace_overhead_pct(v, &open.heavy.latency_ms, &b.heavy.latency_ms);
    }

    // Attainment against load: where the knee is.
    let mut max_ok = 0.0;
    for (rate, p90_name, attain_name) in SWEEP {
        let sweep_seed = opts.seed ^ rate as u64;
        let o = open_loop(
            s,
            sweep_seed,
            rate,
            opts.seconds / 4.0,
            &mut Tracer::off(),
            check,
        );
        v.set(
            p90_name,
            percentile(&o.heavy.latency_ms, 90.0),
            o.heavy.latency_ms.len() as u64,
        );
        v.set(attain_name, o.attainment(), o.offered as u64);
        // No growing backlog: what was queued when arrivals stopped
        // drained within the limit of the slowest class.
        let drained = o.drain_s * 1e3 <= HEAVY_LIMIT_MS;
        if o.attainment() >= 0.99 && drained && o.invalid(rate).is_none() {
            max_ok = rate;
        }
    }
    v.set("core.serve.max_rate_ok", max_ok, SWEEP.len() as u64);
    open.hash
}

pub fn run(opts: &Opts) -> (Report, Tracer, Campaign, Write) {
    let epoch = Instant::now();
    let mut tr = Tracer::new(epoch, opts.trace);
    let mut v = Values::default();
    let mut check = Checker::default();
    let mut invalid = Vec::new();

    let c = Campaign::new(opts.seed, opts.quick, 1);
    let write = Write::run(&c, FILE, &mut tr, 0).unwrap_or_else(|why| panic!("set-up: {why}"));
    let served = Served::start(&c, &mut check);
    let setup_s = epoch.elapsed().as_secs_f64();

    let workload_hash = if opts.trace {
        write_per_layer(&mut v, &c, std::slice::from_ref(&write));
        per_layer(&served, opts, &mut tr, &mut v, &mut check, &mut invalid)
    } else {
        v.set("setup_s", setup_s, 1);
        write_end_to_end(&mut v, &c, std::slice::from_ref(&write));
        end_to_end(&served, opts, &mut v, &mut check)
    };
    drop(served);
    let report = Report {
        workload: "serve_mixed",
        traced: opts.trace,
        values: v,
        check,
        invalid,
        workload_hash,
    };
    (report, tr, c, write)
}
