//! Partition-parallel decimation.
//!
//! The paper stresses that "the decimation is done locally without
//! requiring communication with other processors, and therefore is
//! embarrassingly parallel." This module realizes that on a single node:
//! the mesh is split into spatial partitions, each partition is decimated
//! concurrently (rayon) with its *shared* vertices frozen, and the
//! results are stitched back into one mesh — shared vertices keep their
//! identity, so the union is watertight.
//!
//! Frozen boundary bands cannot collapse (the surface-to-volume overhead
//! a real distributed decimation pays), while per-partition targets are
//! computed on duplicated vertex counts and push slightly harder — so the
//! achieved ratio lands in a narrow band around the target rather than
//! exactly on it. The tests pin that trade-off.

use crate::decimate::{decimate_frozen, DecimationResult};
use canopus_mesh::partition::{morton_partition, strip_partition, Partition};
use canopus_mesh::{TriMesh, VertexId};
use rayon::prelude::*;
use std::collections::HashMap;

/// Decimate `mesh` by `ratio` using `num_parts` parallel strip
/// partitions.
///
/// # Panics
/// Panics if `ratio < 1`, `num_parts == 0`, or data/mesh disagree.
pub fn decimate_parallel(
    mesh: &TriMesh,
    data: &[f64],
    ratio: f64,
    num_parts: usize,
) -> DecimationResult {
    assert!(ratio >= 1.0, "decimation ratio must be >= 1");
    assert!(num_parts >= 1, "need at least one partition");
    assert_eq!(data.len(), mesh.num_vertices());
    if num_parts == 1 {
        return crate::decimate::decimate(mesh, data, ratio);
    }
    decimate_partitioned(mesh, data, ratio, strip_partition(mesh, num_parts))
}

/// [`decimate_parallel`] over Morton (Z-order) partitions instead of
/// strips: spatially compact blocks keep the frozen boundary bands short,
/// so more of each region stays collapsible at high partition counts.
/// This is the kernel the write pipeline uses when
/// `decimation_parts > 1`. Output depends only on the mesh, the data and
/// `num_parts` — never on how many threads actually ran — because the
/// partitioning is geometric and the stitch walks partitions in order
/// with a deterministic first-wins tie-break on shared vertices.
///
/// # Panics
/// Panics if `ratio < 1`, `num_parts == 0`, or data/mesh disagree.
pub fn decimate_parallel_morton(
    mesh: &TriMesh,
    data: &[f64],
    ratio: f64,
    num_parts: usize,
) -> DecimationResult {
    assert!(ratio >= 1.0, "decimation ratio must be >= 1");
    assert!(num_parts >= 1, "need at least one partition");
    assert_eq!(data.len(), mesh.num_vertices());
    if num_parts == 1 {
        return crate::decimate::decimate(mesh, data, ratio);
    }
    decimate_partitioned(mesh, data, ratio, morton_partition(mesh, num_parts))
}

/// Region-local decimation + deterministic stitch over prebuilt
/// partitions (the shared core of the strip and Morton front ends).
fn decimate_partitioned(
    mesh: &TriMesh,
    data: &[f64],
    ratio: f64,
    parts: Vec<Partition>,
) -> DecimationResult {
    // A parent vertex is *shared* iff it appears in more than one
    // partition; shared vertices are frozen everywhere.
    let mut occurrences = vec![0u8; mesh.num_vertices()];
    for p in &parts {
        for &g in &p.to_parent {
            occurrences[g as usize] = occurrences[g as usize].saturating_add(1);
        }
    }
    let shared: Vec<bool> = occurrences.iter().map(|&c| c > 1).collect();

    // Decimate every partition concurrently.
    let results: Vec<(Partition, DecimationResult)> = parts
        .into_par_iter()
        .map(|p| {
            let local_data = p.gather(data);
            let frozen: Vec<bool> = p.to_parent.iter().map(|&g| shared[g as usize]).collect();
            let r = decimate_frozen(&p.mesh, &local_data, ratio, &frozen);
            (p, r)
        })
        .collect();

    // --- stitch ---
    let mut points = Vec::new();
    let mut out_data = Vec::new();
    let mut original_index = Vec::new();
    let mut tris = Vec::new();
    // parent shared vertex -> stitched global id
    let mut shared_map: HashMap<VertexId, u32> = HashMap::new();
    let mut collapses = 0usize;
    let mut rejected = 0usize;

    for (part, r) in &results {
        collapses += r.collapses;
        rejected += r.rejected;
        let mut local_to_global = vec![u32::MAX; r.mesh.num_vertices()];
        for (local, &orig) in r.original_index.iter().enumerate() {
            let parent = orig.map(|o| part.to_parent[o as usize]);
            let global = match parent {
                Some(pv) if shared[pv as usize] => *shared_map.entry(pv).or_insert_with(|| {
                    let id = points.len() as u32;
                    points.push(r.mesh.point(local as u32));
                    out_data.push(r.data[local]);
                    original_index.push(Some(pv));
                    id
                }),
                _ => {
                    let id = points.len() as u32;
                    points.push(r.mesh.point(local as u32));
                    out_data.push(r.data[local]);
                    original_index.push(parent);
                    id
                }
            };
            local_to_global[local] = global;
        }
        for t in r.mesh.triangles() {
            tris.push([
                local_to_global[t[0] as usize],
                local_to_global[t[1] as usize],
                local_to_global[t[2] as usize],
            ]);
        }
    }

    let out_mesh = TriMesh::new(points, tris);
    DecimationResult {
        achieved_ratio: mesh.num_vertices() as f64 / out_mesh.num_vertices().max(1) as f64,
        mesh: out_mesh,
        data: out_data,
        collapses,
        rejected,
        original_index,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canopus_mesh::generators::{jitter_interior, rectangle_mesh};
    use canopus_mesh::geometry::{Aabb, Point2};
    use canopus_mesh::quality;

    fn grid(n: usize) -> (TriMesh, Vec<f64>) {
        let mesh = jitter_interior(
            &rectangle_mesh(
                n,
                n,
                Aabb::from_points([Point2::new(0.0, 0.0), Point2::new(1.0, 1.0)]),
            ),
            0.2,
            13,
        );
        let data: Vec<f64> = mesh
            .points()
            .iter()
            .map(|p| (p.x * 6.0).sin() + (p.y * 4.0).cos())
            .collect();
        (mesh, data)
    }

    #[test]
    fn parallel_result_is_a_valid_mesh() {
        let (mesh, data) = grid(24);
        for parts in [2, 4, 8] {
            let r = decimate_parallel(&mesh, &data, 2.0, parts);
            let rep = quality::check(&r.mesh);
            assert!(rep.is_manifold, "{parts} parts: {rep:?}");
            assert_eq!(rep.inverted_triangles, 0, "{parts} parts folded");
            assert_eq!(r.mesh.num_vertices(), r.data.len());
        }
    }

    #[test]
    fn stitching_preserves_total_area() {
        let (mesh, data) = grid(20);
        let r = decimate_parallel(&mesh, &data, 2.0, 4);
        // Interior collapses move area slightly; the stitched cover must
        // stay close to the original domain.
        let ratio = r.mesh.total_area() / mesh.total_area();
        assert!((0.95..=1.0001).contains(&ratio), "area ratio {ratio}");
    }

    #[test]
    fn achieved_ratio_stays_near_target() {
        // Frozen boundary bands block some collapses while per-partition
        // targets (computed on duplicated vertex counts) push a little
        // harder; the net ratio must stay in a tight band around 2x.
        let (mesh, data) = grid(32);
        let serial = crate::decimate::decimate(&mesh, &data, 2.0);
        assert!((serial.achieved_ratio - 2.0).abs() < 0.1);
        for parts in [2, 4, 8] {
            let parallel = decimate_parallel(&mesh, &data, 2.0, parts);
            assert!(
                (1.5..=2.6).contains(&parallel.achieved_ratio),
                "{parts} parts: ratio {}",
                parallel.achieved_ratio
            );
        }
    }

    #[test]
    fn one_partition_matches_serial() {
        let (mesh, data) = grid(12);
        let a = crate::decimate::decimate(&mesh, &data, 2.0);
        let b = decimate_parallel(&mesh, &data, 2.0, 1);
        assert_eq!(a.mesh, b.mesh);
        assert_eq!(a.data, b.data);
    }

    #[test]
    fn shared_vertices_survive_with_identity() {
        type Kernel = fn(&TriMesh, &[f64], f64, usize) -> DecimationResult;
        let (mesh, data) = grid(16);
        for (parts, kernel) in [
            (strip_partition(&mesh, 4), decimate_parallel as Kernel),
            (morton_partition(&mesh, 4), decimate_parallel_morton),
        ] {
            let mut occurrences = vec![0u8; mesh.num_vertices()];
            for p in &parts {
                for &g in &p.to_parent {
                    occurrences[g as usize] += 1;
                }
            }
            let r = kernel(&mesh, &data, 2.0, 4);
            // Every shared parent vertex appears in the output exactly
            // once, with its original position and data — wherever the
            // partitions' own numbering put their collapse products.
            for (pv, &c) in occurrences.iter().enumerate() {
                if c > 1 {
                    let hits: Vec<usize> = r
                        .original_index
                        .iter()
                        .enumerate()
                        .filter(|(_, &o)| o == Some(pv as u32))
                        .map(|(i, _)| i)
                        .collect();
                    assert_eq!(hits.len(), 1, "shared vertex {pv} stitched once");
                    let out = hits[0];
                    assert_eq!(r.mesh.point(out as u32), mesh.point(pv as u32));
                    assert_eq!(r.data[out], data[pv]);
                }
            }
            // And every survivor the output names is where it was.
            for (out, o) in r.original_index.iter().enumerate() {
                if let Some(o) = *o {
                    assert_eq!(r.mesh.point(out as u32), mesh.point(o));
                    assert_eq!(r.data[out], data[o as usize]);
                }
            }
        }
    }

    #[test]
    fn parallel_decimation_is_deterministic() {
        let (mesh, data) = grid(16);
        let a = decimate_parallel(&mesh, &data, 2.0, 4);
        let b = decimate_parallel(&mesh, &data, 2.0, 4);
        assert_eq!(a.mesh, b.mesh);
        assert_eq!(a.data, b.data);
    }

    #[test]
    fn morton_kernel_is_valid_and_deterministic() {
        let (mesh, data) = grid(24);
        for parts in [2, 4, 8] {
            let r = decimate_parallel_morton(&mesh, &data, 2.0, parts);
            let rep = quality::check(&r.mesh);
            assert!(rep.is_manifold, "{parts} parts: {rep:?}");
            assert_eq!(rep.inverted_triangles, 0, "{parts} parts folded");
            assert_eq!(r.mesh.num_vertices(), r.data.len());
            assert!(
                (1.5..=2.6).contains(&r.achieved_ratio),
                "{parts} parts: ratio {}",
                r.achieved_ratio
            );
            let again = decimate_parallel_morton(&mesh, &data, 2.0, parts);
            assert_eq!(r.mesh, again.mesh, "{parts} parts");
            assert_eq!(r.data, again.data, "{parts} parts");
        }
    }

    #[test]
    fn morton_kernel_one_partition_matches_serial() {
        let (mesh, data) = grid(12);
        let a = crate::decimate::decimate(&mesh, &data, 2.0);
        let b = decimate_parallel_morton(&mesh, &data, 2.0, 1);
        assert_eq!(a.mesh, b.mesh);
        assert_eq!(a.data, b.data);
    }
}
