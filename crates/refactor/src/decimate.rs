//! Edge-collapse mesh decimation (paper Alg. 1).
//!
//! The shortest edge is collapsed first: its endpoints `V_i, V_j` are
//! replaced by `V_k = (V_i + V_j) / 2` carrying `L_k = (L_i + L_j) / 2`
//! (the paper's `NewVertex` / `NewData` with the simple mean), incident
//! triangles are rewired, and the process repeats until the level's vertex
//! count has dropped by the decimation ratio (2 per level, so `d^l = 2^l`).
//!
//! Two guards keep every level restorable:
//! * the *link condition* (common neighbors of the endpoints must be
//!   exactly the opposite vertices of the edge's triangles) preserves
//!   manifoldness;
//! * an *orientation check* rejects collapses that would fold any rewired
//!   triangle (restoration's point location assumes an embedded mesh).
//!
//! Rejected edges are simply discarded — their endpoints usually become
//! collapsible via other edges; if the queue drains before the target is
//! met the achieved ratio is reported honestly.

use crate::pqueue::{edge, EdgeQueue};
use canopus_mesh::geometry::{signed_area2, Point2, GEOM_EPS};
use canopus_mesh::TriMesh;

/// Outcome of one decimation step (level `l` → level `l+1`).
#[derive(Debug, Clone)]
pub struct DecimationResult {
    /// The decimated mesh `G^{l+1}`.
    pub mesh: TriMesh,
    /// The decimated data `L^{l+1}` (same order as `mesh` vertices).
    pub data: Vec<f64>,
    /// Achieved `|V^l| / |V^{l+1}|`.
    pub achieved_ratio: f64,
    /// Number of collapses performed.
    pub collapses: usize,
    /// Number of candidate edges rejected by the guards.
    pub rejected: usize,
}

struct Working {
    points: Vec<Point2>,
    data: Vec<f64>,
    alive_v: Vec<bool>,
    tris: Vec<[u32; 3]>,
    alive_t: Vec<bool>,
    /// Triangles incident to each vertex.
    vtris: Vec<Vec<u32>>,
    alive_count: usize,
    queue: EdgeQueue,
    /// Data-contrast weight in the edge priority (0 = pure shortest-edge,
    /// the paper's default).
    data_weight: f64,
    /// `1 / field_range`, precomputed for the priority formula.
    inv_range: f64,
    /// Each vertex's place in the input order: its own index for an
    /// input vertex, the smaller of its parents' places for a collapse
    /// product. The parents die with the collapse, so the places of the
    /// vertices alive at any moment are distinct, and [`Self::finish`]
    /// numbers the output by them: every level keeps the locality of
    /// the level it was decimated from.
    slot: Vec<u32>,
}

impl Working {
    fn new(mesh: &TriMesh, data: &[f64], data_weight: f64) -> Self {
        assert_eq!(
            mesh.num_vertices(),
            data.len(),
            "data must have one value per vertex"
        );
        let nv = mesh.num_vertices();
        let tris: Vec<[u32; 3]> = mesh.triangles().to_vec();
        let mut vtris = vec![Vec::new(); nv];
        for (ti, t) in tris.iter().enumerate() {
            for &v in t {
                vtris[v as usize].push(ti as u32);
            }
        }
        let lo = data.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let inv_range = 1.0 / (hi - lo).max(f64::MIN_POSITIVE);
        let mut w = Self {
            points: mesh.points().to_vec(),
            data: data.to_vec(),
            alive_v: vec![true; nv],
            alive_t: vec![true; tris.len()],
            tris,
            vtris,
            alive_count: nv,
            queue: EdgeQueue::with_capacity(mesh.num_triangles() * 3 / 2),
            data_weight,
            inv_range,
            slot: (0..nv as u32).collect(),
        };
        for &(u, v) in &mesh.edges() {
            let pr = w.priority(u, v);
            w.queue.push(edge(u, v), pr);
        }
        w
    }

    /// Edge priority: length, optionally scaled up by the data contrast
    /// across the edge so feature-crossing edges collapse last.
    fn priority(&self, u: u32, v: u32) -> f64 {
        let len = self.points[u as usize].distance(self.points[v as usize]);
        if self.data_weight == 0.0 {
            len
        } else {
            let contrast = (self.data[u as usize] - self.data[v as usize]).abs() * self.inv_range;
            len * (1.0 + self.data_weight * contrast)
        }
    }

    /// Sorted unique one-ring neighbors of `v` (alive triangles only).
    fn neighbors(&self, v: u32) -> Vec<u32> {
        let mut out = Vec::with_capacity(8);
        for &t in &self.vtris[v as usize] {
            if !self.alive_t[t as usize] {
                continue;
            }
            for &w in &self.tris[t as usize] {
                if w != v {
                    out.push(w);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Alive triangles containing both `u` and `v`.
    fn edge_triangles(&self, u: u32, v: u32) -> Vec<u32> {
        self.vtris[u as usize]
            .iter()
            .copied()
            .filter(|&t| self.alive_t[t as usize] && self.tris[t as usize].contains(&v))
            .collect()
    }

    /// Attempt to collapse edge `(u, v)`. Returns whether it happened.
    fn try_collapse(&mut self, u: u32, v: u32) -> bool {
        debug_assert!(self.alive_v[u as usize] && self.alive_v[v as usize]);
        let tris_uv = self.edge_triangles(u, v);
        // A manifold interior edge has 2 incident triangles, a boundary
        // edge 1. Anything else is already broken.
        if tris_uv.is_empty() || tris_uv.len() > 2 {
            return false;
        }

        // Link condition: common one-ring neighbors must be exactly the
        // opposite vertices of the edge's triangles.
        let nu = self.neighbors(u);
        let nv = self.neighbors(v);
        let common: Vec<u32> = nu
            .iter()
            .copied()
            .filter(|x| nv.binary_search(x).is_ok())
            .collect();
        if common.len() != tris_uv.len() {
            return false;
        }

        let k_pos = self.points[u as usize].midpoint(self.points[v as usize]);

        // Simulate the rewired triangles: all must stay positively
        // oriented and mutually distinct.
        let mut new_tris: Vec<(u32, [u32; 3])> = Vec::with_capacity(8);
        let k_id = self.points.len() as u32;
        let mut seen: Vec<[u32; 3]> = Vec::with_capacity(8);
        for &src in [u, v].iter() {
            for &t in &self.vtris[src as usize] {
                if !self.alive_t[t as usize] || tris_uv.contains(&t) {
                    continue;
                }
                let mut tri = self.tris[t as usize];
                for slot in &mut tri {
                    if *slot == u || *slot == v {
                        *slot = k_id;
                    }
                }
                let pos = |id: u32| -> Point2 {
                    if id == k_id {
                        k_pos
                    } else {
                        self.points[id as usize]
                    }
                };
                if signed_area2(pos(tri[0]), pos(tri[1]), pos(tri[2])) <= GEOM_EPS {
                    return false; // would fold or degenerate
                }
                let mut sorted = tri;
                sorted.sort_unstable();
                if seen.contains(&sorted) {
                    return false; // would create a duplicate triangle
                }
                seen.push(sorted);
                new_tris.push((t, tri));
            }
        }

        // --- commit ---
        let k_data = (self.data[u as usize] + self.data[v as usize]) * 0.5;
        self.points.push(k_pos);
        self.data.push(k_data);
        self.alive_v.push(true);
        self.slot
            .push(self.slot[u as usize].min(self.slot[v as usize]));
        self.vtris.push(Vec::with_capacity(new_tris.len()));

        for &t in &tris_uv {
            self.alive_t[t as usize] = false;
        }
        for (t, tri) in &new_tris {
            self.tris[*t as usize] = *tri;
            self.vtris[k_id as usize].push(*t);
        }
        self.alive_v[u as usize] = false;
        self.alive_v[v as usize] = false;
        // Net vertex change: -2 dead +1 new.
        self.alive_count -= 1;

        // Queue maintenance: drop edges incident to u and v, insert edges
        // incident to k.
        for &x in &nu {
            self.queue.remove(edge(u, x));
        }
        for &x in &nv {
            self.queue.remove(edge(v, x));
        }
        for x in self.neighbors(k_id) {
            let pr = self.priority(k_id, x);
            self.queue.push(edge(k_id, x), pr);
        }
        true
    }

    /// Pop and try edges in priority order until at most `target`
    /// vertices are alive or no collapsible edge remains; returns how
    /// many collapsed and how many the guards rejected.
    fn collapse_until(&mut self, target: usize) -> (usize, usize) {
        let (mut collapses, mut rejected) = (0, 0);
        while self.alive_count > target {
            let Some(((u, v), _)) = self.queue.pop() else {
                break; // no collapsible edges left
            };
            if !self.alive_v[u as usize] || !self.alive_v[v as usize] {
                continue; // stale entry
            }
            if self.try_collapse(u, v) {
                collapses += 1;
            } else {
                rejected += 1;
            }
        }
        (collapses, rejected)
    }

    /// The step's result: alive vertices and triangles compacted into a
    /// fresh `TriMesh` + data, vertices in the order of their
    /// [`slot`](Self::slot)s (one bucket per input vertex, no sort) and
    /// triangles in input order.
    fn finish(
        self,
        original_count: usize,
        (collapses, rejected): (usize, usize),
    ) -> DecimationResult {
        let mut occupant = vec![u32::MAX; original_count];
        for (i, &alive) in self.alive_v.iter().enumerate() {
            if alive {
                occupant[self.slot[i] as usize] = i as u32;
            }
        }
        let mut remap = vec![u32::MAX; self.points.len()];
        let mut points = Vec::with_capacity(self.alive_count);
        let mut data = Vec::with_capacity(self.alive_count);
        for i in occupant.into_iter().filter(|&i| i != u32::MAX) {
            let i = i as usize;
            remap[i] = points.len() as u32;
            points.push(self.points[i]);
            data.push(self.data[i]);
        }
        debug_assert_eq!(points.len(), self.alive_count);
        let mut tris = Vec::new();
        for (ti, t) in self.tris.iter().enumerate() {
            if self.alive_t[ti] {
                tris.push([
                    remap[t[0] as usize],
                    remap[t[1] as usize],
                    remap[t[2] as usize],
                ]);
            }
        }
        DecimationResult {
            achieved_ratio: original_count as f64 / points.len().max(1) as f64,
            mesh: TriMesh::new(points, tris),
            data,
            collapses,
            rejected,
        }
    }
}

/// Decimate `mesh`/`data` by `ratio` (paper default 2): collapse shortest
/// edges until `|V^{l+1}| <= |V^l| / ratio` or no collapsible edge
/// remains.
///
/// # Panics
/// Panics if `ratio < 1` or `data.len() != mesh.num_vertices()`.
pub fn decimate(mesh: &TriMesh, data: &[f64], ratio: f64) -> DecimationResult {
    assert!(ratio >= 1.0, "decimation ratio must be >= 1, got {ratio}");
    let n0 = mesh.num_vertices();
    let target = ((n0 as f64 / ratio).ceil() as usize).max(3);

    let mut w = Working::new(mesh, data, 0.0);
    let counts = w.collapse_until(target);
    w.finish(n0, counts)
}

/// Data-aware collapse ordering: prioritize edges by
/// `length * (1 + w * |f_u - f_v| / field_range)`, so edges crossing
/// steep features (blob flanks, shock fronts) collapse *last*. The paper
/// leaves the priority choice "for future study" (§III-C1); this is the
/// natural feature-preserving refinement of its shortest-edge default,
/// ablated in `canopus-bench`.
pub fn decimate_data_aware(
    mesh: &TriMesh,
    data: &[f64],
    ratio: f64,
    weight: f64,
) -> DecimationResult {
    assert!(ratio >= 1.0, "decimation ratio must be >= 1");
    assert!(weight >= 0.0, "weight must be non-negative");
    let n0 = mesh.num_vertices();
    let target = ((n0 as f64 / ratio).ceil() as usize).max(3);

    let mut w = Working::new(mesh, data, weight);
    let counts = w.collapse_until(target);
    w.finish(n0, counts)
}

/// Random-order collapse baseline for the ablation bench: identical
/// machinery, but the "priority" is a hash of the edge instead of its
/// length. Shows why shortest-edge ordering preserves features.
pub fn decimate_random_order(
    mesh: &TriMesh,
    data: &[f64],
    ratio: f64,
    seed: u64,
) -> DecimationResult {
    assert!(ratio >= 1.0);
    let n0 = mesh.num_vertices();
    let target = ((n0 as f64 / ratio).ceil() as usize).max(3);

    let mut w = Working::new(mesh, data, 0.0);
    // Rebuild the queue with hashed priorities.
    let mut q = EdgeQueue::with_capacity(mesh.num_edges());
    for &(u, v) in &mesh.edges() {
        q.push(edge(u, v), hash_priority(u, v, seed));
    }
    w.queue = q;
    // Edges created by collapses get length-keyed priorities from
    // `try_collapse`, which is fine for a baseline: the initial order is
    // already randomized.
    let counts = w.collapse_until(target);
    w.finish(n0, counts)
}

fn hash_priority(u: u32, v: u32, seed: u64) -> f64 {
    let mut x = ((u as u64) << 32 | v as u64) ^ seed.wrapping_mul(0x9E3779B97F4A7C15);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51AFD7ED558CCD);
    x ^= x >> 33;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use canopus_mesh::generators::{annulus_mesh, jitter_interior, rectangle_mesh};
    use canopus_mesh::geometry::Aabb;
    use canopus_mesh::quality;

    fn grid(n: usize) -> TriMesh {
        jitter_interior(
            &rectangle_mesh(
                n,
                n,
                Aabb::from_points([Point2::new(0.0, 0.0), Point2::new(1.0, 1.0)]),
            ),
            0.2,
            42,
        )
    }

    #[test]
    fn halves_vertex_count() {
        let m = grid(16);
        let data: Vec<f64> = (0..m.num_vertices()).map(|i| i as f64).collect();
        let r = decimate(&m, &data, 2.0);
        assert!(
            (r.achieved_ratio - 2.0).abs() < 0.1,
            "achieved ratio {} should be ~2",
            r.achieved_ratio
        );
        assert_eq!(r.mesh.num_vertices(), r.data.len());
    }

    #[test]
    fn decimated_mesh_stays_valid() {
        let m = grid(16);
        let data = vec![0.0; m.num_vertices()];
        let r = decimate(&m, &data, 2.0);
        let rep = quality::check(&r.mesh);
        assert!(
            rep.is_manifold,
            "decimated mesh must stay manifold: {rep:?}"
        );
        assert_eq!(rep.inverted_triangles, 0);
        assert_eq!(rep.degenerate_triangles, 0);
    }

    #[test]
    fn repeated_decimation_builds_a_pyramid() {
        let m = grid(20);
        let mut mesh = m.clone();
        let mut data: Vec<f64> = mesh.points().iter().map(|p| p.x + p.y).collect();
        for level in 1..=4 {
            let r = decimate(&mesh, &data, 2.0);
            let rep = quality::check(&r.mesh);
            assert!(rep.is_manifold, "level {level} must be manifold");
            assert_eq!(rep.inverted_triangles, 0, "level {level} folded");
            assert!(r.mesh.num_vertices() < mesh.num_vertices());
            mesh = r.mesh;
            data = r.data;
        }
        // Total decimation ~16x.
        let total = m.num_vertices() as f64 / mesh.num_vertices() as f64;
        assert!(total > 10.0, "4 levels should reach >10x, got {total:.1}");
    }

    #[test]
    fn annulus_decimation_preserves_topology() {
        let m = jitter_interior(&annulus_mesh(8, 48, 0.4, 1.0), 0.2, 7);
        let data = vec![1.0; m.num_vertices()];
        let r = decimate(&m, &data, 2.0);
        let rep = quality::check(&r.mesh);
        assert!(rep.is_manifold);
        assert_eq!(
            rep.euler_characteristic, 0,
            "annulus must keep genus under decimation"
        );
    }

    #[test]
    fn data_averages_along_collapses() {
        // Constant field stays constant under midpoint/mean collapse.
        let m = grid(10);
        let data = vec![3.5; m.num_vertices()];
        let r = decimate(&m, &data, 2.0);
        for &v in &r.data {
            assert!((v - 3.5).abs() < 1e-12);
        }
    }

    #[test]
    fn linear_field_is_exactly_preserved() {
        // Midpoint collapse of a linear field keeps the field linear:
        // data(k) = (f(i)+f(j))/2 = f((Vi+Vj)/2).
        let m = grid(12);
        let f = |p: Point2| 2.0 * p.x - 3.0 * p.y + 1.0;
        let data: Vec<f64> = m.points().iter().map(|&p| f(p)).collect();
        let r = decimate(&m, &data, 2.0);
        for (i, &v) in r.data.iter().enumerate() {
            let expect = f(r.mesh.point(i as canopus_mesh::VertexId));
            assert!(
                (v - expect).abs() < 1e-9,
                "vertex {i}: {v} vs linear {expect}"
            );
        }
    }

    #[test]
    fn ratio_one_is_identity_sized() {
        let m = grid(6);
        let data = vec![0.0; m.num_vertices()];
        let r = decimate(&m, &data, 1.0);
        assert_eq!(r.mesh.num_vertices(), m.num_vertices());
        assert_eq!(r.collapses, 0);
    }

    #[test]
    fn shortest_edges_collapse_first() {
        // A mesh with one tiny edge: that edge's endpoints must merge in
        // the very first collapse.
        let mut points = vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(1.0, 1.0),
            Point2::new(0.0, 1.0),
            Point2::new(0.5, 0.5),
            Point2::new(0.5001, 0.5001), // nearly coincident with 4
        ];
        // Fan around the nearly-coincident pair.
        let tris = vec![
            [0u32, 1, 4],
            [1, 5, 4],
            [1, 2, 5],
            [2, 3, 5],
            [3, 4, 5],
            [3, 0, 4],
        ];
        let m = TriMesh::new(std::mem::take(&mut points), tris);
        let data = vec![0.0, 0.0, 0.0, 0.0, 10.0, 20.0];
        let r = decimate(&m, &data, 6.0 / 5.0);
        assert_eq!(r.collapses, 1);
        // The merged vertex carries the mean of the twins' data.
        assert!(r.data.contains(&15.0));
    }

    #[test]
    fn data_aware_priority_preserves_features_better() {
        // A field with one sharp bump: data-aware ordering should keep
        // the bump's peak value higher after aggressive decimation.
        let m = grid(24);
        let data: Vec<f64> = m
            .points()
            .iter()
            .map(|p| {
                let d2 = (p.x - 0.5).powi(2) + (p.y - 0.5).powi(2);
                (-d2 / (2.0 * 0.03f64.powi(2))).exp()
            })
            .collect();
        let peak = |r: &DecimationResult| r.data.iter().cloned().fold(0.0f64, f64::max);
        let mut mesh = m.clone();
        let mut plain_data = data.clone();
        let mut aware_mesh = m.clone();
        let mut aware_data = data.clone();
        for _ in 0..3 {
            let r = decimate(&mesh, &plain_data, 2.0);
            mesh = r.mesh;
            plain_data = r.data;
            let r = decimate_data_aware(&aware_mesh, &aware_data, 2.0, 8.0);
            aware_mesh = r.mesh;
            aware_data = r.data;
        }
        let plain_peak = plain_data.iter().cloned().fold(0.0f64, f64::max);
        let aware_peak = aware_data.iter().cloned().fold(0.0f64, f64::max);
        let _ = peak;
        assert!(
            aware_peak >= plain_peak,
            "data-aware ({aware_peak}) should preserve the bump at least as well as plain ({plain_peak})"
        );
        assert!(quality::check(&aware_mesh).is_manifold);
    }

    #[test]
    fn data_aware_zero_weight_matches_plain() {
        let m = grid(10);
        let data: Vec<f64> = (0..m.num_vertices())
            .map(|i| (i as f64 * 0.3).sin())
            .collect();
        let a = decimate(&m, &data, 2.0);
        let b = decimate_data_aware(&m, &data, 2.0, 0.0);
        assert_eq!(a.mesh, b.mesh, "weight 0 must reduce to shortest-edge");
        assert_eq!(a.data, b.data);
    }

    #[test]
    fn random_order_baseline_also_halves() {
        let m = grid(12);
        let data: Vec<f64> = (0..m.num_vertices()).map(|i| (i as f64).sin()).collect();
        let r = decimate_random_order(&m, &data, 2.0, 99);
        assert!((r.achieved_ratio - 2.0).abs() < 0.2);
        assert!(quality::check(&r.mesh).is_manifold);
    }

    #[test]
    fn decimation_is_deterministic() {
        let m = grid(10);
        let data: Vec<f64> = (0..m.num_vertices()).map(|i| i as f64 * 0.1).collect();
        let a = decimate(&m, &data, 2.0);
        let b = decimate(&m, &data, 2.0);
        assert_eq!(a.mesh, b.mesh);
        assert_eq!(a.data, b.data);
    }

    #[test]
    fn inherited_order_renumbers_the_same_level() {
        // The level as the former numbering listed it — survivors in
        // input order, then collapse products in the order they were
        // made — read off the working state before `finish` renumbers.
        let m = grid(14);
        let data: Vec<f64> = m.points().iter().map(|p| p.x * 3.0 - p.y).collect();
        let n0 = m.num_vertices();
        let mut w = Working::new(&m, &data, 0.0);
        let counts = w.collapse_until(n0.div_ceil(2));
        // Input ids of the vertices no collapse touched, ascending.
        let survivors: Vec<u32> = (0..n0 as u32).filter(|&i| w.alive_v[i as usize]).collect();
        let alive =
            |flags: &[bool]| -> Vec<usize> { (0..flags.len()).filter(|&i| flags[i]).collect() };
        let bits = |p: Point2, value: f64| [p.x.to_bits(), p.y.to_bits(), value.to_bits()];
        let mut old_vertices: Vec<[u64; 3]> = alive(&w.alive_v)
            .iter()
            .map(|&i| bits(w.points[i], w.data[i]))
            .collect();
        let mut old_tris: Vec<[[u64; 3]; 3]> = alive(&w.alive_t)
            .iter()
            .map(|&t| w.tris[t].map(|v| bits(w.points[v as usize], w.data[v as usize])))
            .collect();
        let r = w.finish(n0, counts);

        assert_eq!(r.collapses, counts.0);
        assert_eq!(
            r.collapses,
            n0 - r.mesh.num_vertices(),
            "one vertex per collapse"
        );
        let vertex = |v: u32| bits(r.mesh.point(v), r.data[v as usize]);
        let mut new_vertices: Vec<[u64; 3]> =
            (0..r.mesh.num_vertices() as u32).map(vertex).collect();
        let mut new_tris: Vec<[[u64; 3]; 3]> =
            r.mesh.triangles().iter().map(|t| t.map(vertex)).collect();
        // Same points carrying the same data, same triangles over them
        // with the same winding: only the numbering differs.
        for list in [&mut old_vertices, &mut new_vertices] {
            list.sort_unstable();
        }
        for list in [&mut old_tris, &mut new_tris] {
            list.sort_unstable();
        }
        assert_eq!(new_vertices, old_vertices);
        assert_eq!(new_tris, old_tris);

        // Survivors keep input order; products fall between them, where
        // the smaller of their parents stood. An output vertex is a
        // survivor when it carries an input vertex's point and value.
        let input: std::collections::HashMap<[u64; 3], u32> = (0..n0 as u32)
            .map(|i| (bits(m.point(i), data[i as usize]), i))
            .collect();
        let origin: Vec<Option<u32>> = (0..r.mesh.num_vertices() as u32)
            .map(|v| input.get(&vertex(v)).copied())
            .collect();
        let named: Vec<u32> = origin.iter().flatten().copied().collect();
        assert_eq!(named, survivors, "every survivor, in input order");
        assert!(
            survivors.len() < r.mesh.num_vertices(),
            "some vertices are products"
        );
        assert!(
            origin.iter().rposition(Option::is_none) > origin.iter().position(Option::is_some),
            "products are no longer appended after the survivors"
        );
    }

    #[test]
    fn levels_keep_the_input_orders_locality() {
        // How far apart a triangle's corners are numbered, on average: a
        // ring's width on a row-major annulus, and what a packed
        // connectivity or a gather through it pays for.
        fn spread(m: &TriMesh) -> f64 {
            let sum: u64 = m
                .triangles()
                .iter()
                .map(|t| (t.iter().max().unwrap() - t.iter().min().unwrap()) as u64)
                .sum();
            sum as f64 / m.num_triangles() as f64
        }
        let mut mesh = jitter_interior(&annulus_mesh(16, 96, 0.4, 1.0), 0.2, 7);
        let mut data = vec![0.0; mesh.num_vertices()];
        for level in 1..=3 {
            let r = decimate(&mesh, &data, 2.0);
            let (fine, coarse) = (spread(&mesh), spread(&r.mesh));
            // Appended in shortest-edge order, products were numbered at
            // random: a spread near a third of the vertex count.
            assert!(
                coarse <= 2.0 * fine,
                "level {level}: corner spread {coarse:.1} after {fine:.1} ({} vertices)",
                r.mesh.num_vertices()
            );
            mesh = r.mesh;
            data = r.data;
        }
    }

    #[test]
    #[should_panic(expected = "one value per vertex")]
    fn rejects_mismatched_data() {
        let m = grid(4);
        decimate(&m, &[1.0, 2.0], 2.0);
    }
}
