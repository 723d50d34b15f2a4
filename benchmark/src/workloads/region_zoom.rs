//! `region_zoom`: the same read layers used differently — partial,
//! ranged retrieval instead of whole levels. One long-lived reader,
//! closed loop; each operation picks a seeded window centred on a
//! seeded mesh vertex, covering 1/64, 1/16 or 1/4 of the bounding box
//! (exact thirds), reads the base and refines step by step to level 0
//! inside the window. At the seed's defaults this degenerates to a full
//! refinement (one chunk per delta, the same bytes for any window), so
//! this is the workload on which a sharded default layout must show,
//! while `restore_cold`, `write_s` and `stored_ratio` show its cost.

use super::{report_reads, Opts, Write};
use crate::campaign::Campaign;
use crate::counters::Counters;
use crate::gen::{InputHash, Zoom, ZoomGen};
use crate::metrics::{Checker, Report, Values};
use crate::ops::{run_for, ReadSamples};
use crate::trace::Tracer;
use std::time::Instant;

const FILE: &str = "t0.bp";
/// Operations the exact metrics are averaged over, and the fewest run:
/// eight rounds of the three window sizes.
const EXACT_OPS: usize = 24;

pub fn run(opts: &Opts) -> (Report, Tracer, Campaign, Write) {
    let epoch = Instant::now();
    let mut tr = Tracer::new(epoch, opts.trace);
    let mut v = Values::default();
    let mut check = Checker::default();

    let c = Campaign::new(opts.seed, opts.quick, 1);
    let write = Write::run(&c, FILE, &mut tr, 0).unwrap_or_else(|why| panic!("set-up: {why}"));
    let reader = c
        .canopus
        .open(FILE)
        .unwrap_or_else(|e| panic!("set-up: open {FILE}: {e}"));
    // A long-lived reader has its level geometry loaded: one unmeasured
    // zoom over the middle of the mesh does that.
    let warm_up = Zoom {
        vertex: c.ds.len() / 2,
        side: 0.25,
    };
    check.op(ReadSamples::default().zoom(&c, &reader, warm_up, &mut Tracer::off(), 0));
    let setup_s = epoch.elapsed().as_secs_f64();

    let mut zooms = ZoomGen::new(opts.seed, c.ds.len());
    let mut hash = InputHash::new();
    let before = Counters::take(&c);
    let samples = opts.measure(&mut tr, |seconds, tr| {
        let mut s = ReadSamples::default();
        s.elapsed_s = run_for(seconds, EXACT_OPS, |i| {
            let zoom = zooms.draw();
            if i < EXACT_OPS as u64 {
                hash.u64(zoom.vertex as u64);
                hash.f64(zoom.side);
            }
            check.op(s.zoom(&c, &reader, zoom, tr, 1 + i));
        });
        s
    });
    let after = Counters::take(&c);
    drop(reader);
    let writes = std::slice::from_ref(&write);
    let counters = (&before, &after);
    let invalid = report_reads(
        &mut v, &c, writes, setup_s, &samples, EXACT_OPS, &tr, counters,
    );

    let report = Report {
        workload: "region_zoom",
        traced: opts.trace,
        values: v,
        check,
        invalid,
        workload_hash: hash.finish(),
    };
    (report, tr, c, write)
}
