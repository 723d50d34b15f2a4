//! `ingest`: the write path in isolation. One caller writes the
//! variable as `t0.bp`, `t1.bp`, ... into one hierarchy, closed loop,
//! until the interval is over; decimation does ~98% of the work,
//! compression ~2% and storage next to nothing, so this is where a
//! decimation kernel or its parallelism shows, and where a layout or
//! codec change that taxes writes or space is caught. Every written
//! file is then read back cold and checked, which is also where this
//! workload's read-side numbers come from.

use super::{report_reads, Opts, Write};
use crate::campaign::Campaign;
use crate::counters::Counters;
use crate::metrics::{Checker, Report, Values};
use crate::ops::ReadSamples;
use crate::trace::Tracer;
use std::time::Instant;

/// The hierarchy is sized for this many written files.
const MAX_FILES: usize = 3;
/// Cold read-backs, spread round-robin over the written files.
const VERIFY_READS: usize = 16;

pub fn run(opts: &Opts) -> (Report, Tracer, Campaign, Write) {
    let epoch = Instant::now();
    let mut tr = Tracer::new(epoch, opts.trace);
    let mut v = Values::default();
    let mut check = Checker::default();

    let c = Campaign::new(opts.seed, opts.quick, MAX_FILES as u64);
    let setup_s = epoch.elapsed().as_secs_f64();

    let seconds = if opts.trace {
        opts.seconds / 3.0
    } else {
        opts.seconds
    };
    let mut writes: Vec<Write> = Vec::new();
    let t = Instant::now();
    while writes.len() < MAX_FILES && (writes.is_empty() || t.elapsed().as_secs_f64() < seconds) {
        let op = writes.len() as u64;
        match Write::run(&c, &format!("t{op}.bp"), &mut tr, op) {
            Ok(w) => {
                check.op(Ok(()));
                writes.push(w);
            }
            Err(why) => {
                check.op(Err(why));
                break;
            }
        }
    }
    let write_elapsed_s = t.elapsed().as_secs_f64();
    if writes.is_empty() {
        panic!("ingest: the first write failed: {:?}", check.reasons());
    }

    // Read every file back: one unmeasured restore to let the allocator
    // and thread pool settle, then the measured ones, round-robin over
    // the files (half of them with spans off in a traced run).
    let files = writes.len();
    check.op(ReadSamples::default().cold_restore(&c, "t0.bp", &mut Tracer::off(), 0));
    let reads = if opts.trace {
        VERIFY_READS / 2
    } else {
        VERIFY_READS
    };
    let before = Counters::take(&c);
    let samples = opts.measure(&mut tr, |_, tr| {
        let mut s = ReadSamples::default();
        let t = Instant::now();
        for i in 0..reads {
            let file = format!("t{}.bp", i % files);
            check.op(s.cold_restore(&c, &file, tr, (MAX_FILES + i) as u64));
        }
        s.elapsed_s = t.elapsed().as_secs_f64();
        s
    });
    let after = Counters::take(&c);
    let counters = (&before, &after);
    let invalid = report_reads(&mut v, &c, &writes, setup_s, &samples, reads, &tr, counters);
    // The operation of this workload is the write, not the read-back.
    v.set("ops_per_s", files as f64 / write_elapsed_s, files as u64);

    // The inputs are the generated variable itself.
    let report = Report {
        workload: "ingest",
        traced: opts.trace,
        values: v,
        check,
        invalid,
        workload_hash: c.data_hash(),
    };
    let first = writes.swap_remove(0);
    (report, tr, c, first)
}
