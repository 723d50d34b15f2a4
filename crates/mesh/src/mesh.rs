//! The indexed triangle mesh `G^l(V^l, E^l)` of the paper.

use crate::adjacency::Adjacency;
use crate::geometry::{Aabb, Point2, Triangle};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Index of a vertex within a [`TriMesh`]. Kept at 32 bits: the largest mesh
/// in the paper has 130 050 triangles, and u32 halves the memory traffic of
/// connectivity-heavy kernels.
pub type VertexId = u32;

/// Index of a triangle within a [`TriMesh`].
pub type TriId = u32;

/// An immutable indexed triangular mesh.
///
/// `TriMesh` is the at-rest representation: a flat vertex array plus a flat
/// triangle (connectivity) array. Mutation during decimation happens on the
/// dedicated working structure in `canopus-refactor`; everything else
/// (point location, rasterization, quality checks, serialization) consumes
/// this type.
///
/// Both arrays live in shared immutable storage, so `clone` is two
/// reference-count bumps and every clone — a reader's geometry cache, the
/// outcomes it hands out — reads the same allocations. Equality compares
/// contents. There is no way to mutate a mesh in place: for arrays of
/// your own, copy them out (`mesh.points().to_vec()`) and build a new
/// mesh with [`TriMesh::new`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TriMesh {
    points: Arc<Vec<Point2>>,
    tris: Arc<Vec<[VertexId; 3]>>,
}

/// The triangles of a mesh without its vertex positions: what
/// restoration with the mean estimator reads of a coarser level. Every
/// corner id is below [`num_vertices`](Self::num_vertices) — checked
/// once, by whoever built it — so a [`TriMesh`] can be assembled over
/// matching points without checking again. The triangle array is shared
/// with every mesh assembled over it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Connectivity {
    tris: Arc<Vec<[VertexId; 3]>>,
    num_vertices: usize,
}

impl Connectivity {
    /// For a parser that has range-checked every corner against
    /// `num_vertices` and reported a violation as an error of its own.
    pub(crate) fn from_checked(tris: Vec<[VertexId; 3]>, num_vertices: usize) -> Self {
        debug_assert!(tris.iter().flatten().all(|&v| (v as usize) < num_vertices));
        Self {
            tris: Arc::new(tris),
            num_vertices,
        }
    }

    #[inline]
    pub fn triangles(&self) -> &[[VertexId; 3]] {
        &self.tris
    }

    /// The vertex count the corner ids were checked against.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// The mesh these triangles form over `points`, or `None` unless
    /// there is exactly one point per vertex. Nothing is copied: the
    /// mesh shares `points` with the caller and the triangle array with
    /// `self`.
    pub fn mesh_over(&self, points: Arc<Vec<Point2>>) -> Option<TriMesh> {
        (points.len() == self.num_vertices).then(|| TriMesh {
            points,
            tris: Arc::clone(&self.tris),
        })
    }
}

impl TriMesh {
    /// Build a mesh from raw arrays.
    ///
    /// # Panics
    /// Panics if any triangle references an out-of-range vertex, so that
    /// every downstream indexing operation is in-bounds by construction.
    pub fn new(points: Vec<Point2>, tris: Vec<[VertexId; 3]>) -> Self {
        let n = points.len() as u64;
        for (i, t) in tris.iter().enumerate() {
            for &v in t {
                assert!(
                    (v as u64) < n,
                    "triangle {i} references vertex {v} but mesh has {n} vertices"
                );
            }
        }
        Self {
            points: Arc::new(points),
            tris: Arc::new(tris),
        }
    }

    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.points.len()
    }

    #[inline]
    pub fn num_triangles(&self) -> usize {
        self.tris.len()
    }

    #[inline]
    pub fn points(&self) -> &[Point2] {
        &self.points
    }

    #[inline]
    pub fn triangles(&self) -> &[[VertexId; 3]] {
        &self.tris
    }

    #[inline]
    pub fn point(&self, v: VertexId) -> Point2 {
        self.points[v as usize]
    }

    /// Corner positions of triangle `t`.
    #[inline]
    pub fn triangle(&self, t: TriId) -> Triangle {
        let [a, b, c] = self.tris[t as usize];
        Triangle::new(self.point(a), self.point(b), self.point(c))
    }

    /// Vertex indices of triangle `t`.
    #[inline]
    pub fn triangle_vertices(&self, t: TriId) -> [VertexId; 3] {
        self.tris[t as usize]
    }

    /// Number of undirected edges `|E|` (each shared edge counted once).
    pub fn num_edges(&self) -> usize {
        self.edges().len()
    }

    /// All undirected edges, each as an ordered pair `(lo, hi)`, sorted.
    pub fn edges(&self) -> Vec<(VertexId, VertexId)> {
        let mut edges: Vec<(VertexId, VertexId)> = Vec::with_capacity(self.tris.len() * 3);
        for &[a, b, c] in self.tris.iter() {
            for (u, v) in [(a, b), (b, c), (c, a)] {
                edges.push((u.min(v), u.max(v)));
            }
        }
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    /// Bounding box of all vertices.
    pub fn aabb(&self) -> Aabb {
        Aabb::from_points(self.points.iter().copied())
    }

    /// Cached adjacency structures (vertex→triangles, vertex→vertices).
    pub fn adjacency(&self) -> Adjacency {
        Adjacency::build(self)
    }

    /// Sum of all triangle areas — the area of the covered domain (for a
    /// valid non-overlapping triangulation).
    pub fn total_area(&self) -> f64 {
        (0..self.tris.len() as TriId)
            .map(|t| self.triangle(t).area())
            .sum()
    }

    /// Mean edge length; handy for choosing raster resolutions and locator
    /// cell sizes.
    pub fn mean_edge_length(&self) -> f64 {
        let edges = self.edges();
        if edges.is_empty() {
            return 0.0;
        }
        let total: f64 = edges
            .iter()
            .map(|&(u, v)| self.point(u).distance(self.point(v)))
            .sum();
        total / edges.len() as f64
    }

    /// The decimation ratio `d = |V^0| / |V^l|` relative to a finer mesh.
    pub fn decimation_ratio_from(&self, original: &TriMesh) -> f64 {
        original.num_vertices() as f64 / self.num_vertices().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two triangles forming a unit square: (0,0)-(1,0)-(1,1)-(0,1).
    pub(crate) fn square() -> TriMesh {
        TriMesh::new(
            vec![
                Point2::new(0.0, 0.0),
                Point2::new(1.0, 0.0),
                Point2::new(1.0, 1.0),
                Point2::new(0.0, 1.0),
            ],
            vec![[0, 1, 2], [0, 2, 3]],
        )
    }

    #[test]
    fn counts() {
        let m = square();
        assert_eq!(m.num_vertices(), 4);
        assert_eq!(m.num_triangles(), 2);
        assert_eq!(m.num_edges(), 5); // 4 boundary + 1 diagonal
    }

    #[test]
    #[should_panic(expected = "references vertex")]
    fn out_of_range_triangle_panics() {
        TriMesh::new(vec![Point2::new(0.0, 0.0)], vec![[0, 0, 7]]);
    }

    #[test]
    fn total_area_of_square_is_one() {
        assert!((square().total_area() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn edges_are_deduplicated_and_ordered() {
        let edges = square().edges();
        assert_eq!(edges, vec![(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]);
    }

    #[test]
    fn aabb_covers_mesh() {
        let bb = square().aabb();
        assert_eq!(bb.min, Point2::new(0.0, 0.0));
        assert_eq!(bb.max, Point2::new(1.0, 1.0));
    }

    #[test]
    fn mean_edge_length_square() {
        let m = square();
        let expect = (4.0 + std::f64::consts::SQRT_2) / 5.0;
        assert!((m.mean_edge_length() - expect).abs() < 1e-12);
    }

    #[test]
    fn decimation_ratio() {
        let m = square();
        let half = TriMesh::new(vec![Point2::new(0.0, 0.0), Point2::new(1.0, 0.0)], vec![]);
        assert!((half.decimation_ratio_from(&m) - 2.0).abs() < 1e-12);
    }
}
