//! The reference restore the level walk is pinned to. It shares no
//! scheduling code with the walk — no prefetch thread, decode pool,
//! geometry loader or decoded-level cache — only the public single-step
//! API: the base, then one whole-domain `refine_region` per level, each
//! fetched, decoded and applied on the calling thread.
#![allow(dead_code)]

use canopus::{Canopus, ReadOutcome};
use canopus_mesh::geometry::{Aabb, Point2};

/// A window no chunk's bounding box can miss: `refine_region` over it
/// fetches every chunk and refines the whole level.
pub fn whole_domain() -> Aabb {
    Aabb::from_points([
        Point2::new(f64::MIN, f64::MIN),
        Point2::new(f64::MAX, f64::MAX),
    ])
}

/// `level` of `var` in `file`, restored step by step on a reader with
/// no decoded-level cache.
pub fn stepwise_restore(canopus: &Canopus, file: &str, var: &str, level: u32) -> ReadOutcome {
    let reader = canopus.open(file).expect("open").with_level_cache(0);
    let mut out = reader.read_base(var).expect("base");
    while out.level > level {
        out = reader
            .refine_region(var, &out, whole_domain())
            .expect("refine")
            .0;
    }
    out
}
