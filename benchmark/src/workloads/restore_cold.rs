//! `restore_cold`: the paper's single-analyst time-to-accuracy with
//! every program cache cold. One caller, closed loop; each operation is
//! a fresh `open` (so the geometry and level caches start empty, no
//! knob needed), the base, then level 0. Open/parse, tier fetch,
//! checksum, decode and restore do all the work; the level cache and
//! the serving layer do none, so a cache or scheduler change must not
//! move this workload.

use super::{report_reads, Opts, Write};
use crate::campaign::Campaign;
use crate::counters::Counters;
use crate::metrics::{Checker, Report, Values};
use crate::ops::{run_for, ReadSamples};
use crate::trace::Tracer;
use std::time::Instant;

const FILE: &str = "t0.bp";
/// Operations the exact metrics are averaged over, and the fewest run.
const EXACT_OPS: usize = 4;

pub fn run(opts: &Opts) -> (Report, Tracer, Campaign, Write) {
    let epoch = Instant::now();
    let mut tr = Tracer::new(epoch, opts.trace);
    let mut v = Values::default();
    let mut check = Checker::default();

    let c = Campaign::new(opts.seed, opts.quick, 1);
    let write = Write::run(&c, FILE, &mut tr, 0).unwrap_or_else(|why| panic!("set-up: {why}"));
    // One unmeasured restore lets the allocator and thread pool settle;
    // the program's own caches die with its reader.
    check.op(ReadSamples::default().cold_restore(&c, FILE, &mut Tracer::off(), 0));
    let setup_s = epoch.elapsed().as_secs_f64();

    let before = Counters::take(&c);
    let samples = opts.measure(&mut tr, |seconds, tr| {
        let mut s = ReadSamples::default();
        s.elapsed_s = run_for(seconds, EXACT_OPS, |i| {
            check.op(s.cold_restore(&c, FILE, tr, 1 + i));
        });
        s
    });
    let after = Counters::take(&c);
    let writes = std::slice::from_ref(&write);
    let counters = (&before, &after);
    let invalid = report_reads(
        &mut v, &c, writes, setup_s, &samples, EXACT_OPS, &tr, counters,
    );

    // Every operation is the same request; the input is the variable.
    let report = Report {
        workload: "restore_cold",
        traced: opts.trace,
        values: v,
        check,
        invalid,
        workload_hash: c.data_hash(),
    };
    (report, tr, c, write)
}
