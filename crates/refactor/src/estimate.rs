//! The `Estimate(·)` function (paper Eqs. 2–3).
//!
//! `Estimate` predicts a fine-level value from the three corners of its
//! containing coarse triangle: `α·L_i + β·L_j + γ·L_k` with
//! `α + β + γ = 1`. The paper fixes `α = β = γ = 1/3` "for simplicity"
//! and leaves the optimal form for future study — we implement both that
//! default and the natural improvement (barycentric weights from the
//! vertex position), and ablate them in `canopus-bench`.

use canopus_mesh::geometry::{Point2, Triangle};
use canopus_mesh::{TriMesh, VertexId};

/// Which estimator to use for delta calculation/restoration. Encoder and
/// decoder must agree (the choice is recorded in the BP attributes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Estimator {
    /// The paper's default: equal weights `1/3` per corner.
    #[default]
    Mean,
    /// Barycentric interpolation: weights from the fine vertex's position
    /// inside the coarse triangle (clamped extrapolation outside).
    Barycentric,
}

/// An [`Estimator`] together with what it reads of the two levels
/// besides the coarse triangles' corner ids and values: the mean reads
/// nothing more, so a level can be restored without any vertex position.
///
/// [`Weights::estimate`] picks the estimator per call. A loop over many
/// vertices picks it once instead: [`crate::restore_tile`] matches on
/// the weights once per tile and runs a loop with that estimator's
/// arithmetic inlined, the same arithmetic this method runs.
#[derive(Debug, Clone, Copy)]
pub enum Weights<'a> {
    Mean,
    /// The vertex positions of the fine and of the coarse level.
    Barycentric {
        fine: &'a [Point2],
        coarse: &'a [Point2],
    },
}

impl Weights<'_> {
    /// Predict the value at fine vertex `x` from the coarse triangle
    /// with corners `[i, j, k]`, corner data taken from `coarse_data`.
    #[inline]
    pub fn estimate(&self, x: usize, corners: [VertexId; 3], coarse_data: &[f64]) -> f64 {
        match self {
            Weights::Mean => mean(corners, coarse_data),
            Weights::Barycentric { fine, coarse } => {
                barycentric(fine, coarse, x, corners, coarse_data)
            }
        }
    }

    /// The loop of [`crate::restore_tile`]: `values` are a tile's deltas
    /// from the level's index `first` on, restored in place, and
    /// `mapping` is the tile's own. Returns the squared deltas summed in
    /// value order. One `match` picks the estimator, and each arm runs
    /// [`restore_with`] with that estimator's arithmetic inlined.
    pub(crate) fn restore(
        &self,
        values: &mut [f64],
        first: usize,
        mapping: &[u32],
        coarse_triangles: &[[VertexId; 3]],
        coarse_data: &[f64],
    ) -> f64 {
        match *self {
            Weights::Mean => restore_with(values, mapping, coarse_triangles, |_, corners| {
                mean(corners, coarse_data)
            }),
            Weights::Barycentric { fine, coarse } => {
                restore_with(values, mapping, coarse_triangles, |at, corners| {
                    barycentric(fine, coarse, first + at, corners, coarse_data)
                })
            }
        }
    }
}

/// The paper's estimate: the mean of the three corner values.
#[inline]
fn mean([i, j, k]: [VertexId; 3], coarse_data: &[f64]) -> f64 {
    (coarse_data[i as usize] + coarse_data[j as usize] + coarse_data[k as usize]) / 3.0
}

/// The corner values weighted by fine point `x`'s barycentric
/// coordinates in the coarse triangle; the mean where the triangle is
/// degenerate.
#[inline]
fn barycentric(
    fine: &[Point2],
    coarse: &[Point2],
    x: usize,
    [i, j, k]: [VertexId; 3],
    coarse_data: &[f64],
) -> f64 {
    let (li, lj, lk) = (
        coarse_data[i as usize],
        coarse_data[j as usize],
        coarse_data[k as usize],
    );
    let t = Triangle::new(coarse[i as usize], coarse[j as usize], coarse[k as usize]);
    match t.barycentric(fine[x]) {
        Some([wa, wb, wc]) => wa * li + wb * lj + wc * lk,
        // Degenerate coarse triangle: fall back to the mean.
        None => (li + lj + lk) / 3.0,
    }
}

/// One loop body for every estimator: `estimate` takes a value's index
/// in the tile and its coarse triangle's corners.
#[inline(always)]
fn restore_with(
    values: &mut [f64],
    mapping: &[u32],
    coarse_triangles: &[[VertexId; 3]],
    estimate: impl Fn(usize, [VertexId; 3]) -> f64,
) -> f64 {
    let mut squares = 0.0;
    for (at, (value, &tri)) in values.iter_mut().zip(mapping).enumerate() {
        let delta = *value;
        squares += delta * delta;
        *value = delta + estimate(at, coarse_triangles[tri as usize]);
    }
    squares
}

impl Estimator {
    /// Stable identifier for metadata.
    pub fn id(&self) -> u8 {
        match self {
            Estimator::Mean => 0,
            Estimator::Barycentric => 1,
        }
    }

    /// Inverse of [`Estimator::id`].
    pub fn from_id(id: u8) -> Option<Self> {
        match id {
            0 => Some(Estimator::Mean),
            1 => Some(Estimator::Barycentric),
            _ => None,
        }
    }

    /// Whether estimating reads vertex positions at all.
    pub fn reads_coordinates(&self) -> bool {
        matches!(self, Estimator::Barycentric)
    }

    /// This estimator over the vertex positions of a fine and a coarse
    /// level; either may be empty unless
    /// [`reads_coordinates`](Self::reads_coordinates).
    pub fn weights<'a>(&self, fine: &'a [Point2], coarse: &'a [Point2]) -> Weights<'a> {
        match self {
            Estimator::Mean => Weights::Mean,
            Estimator::Barycentric => Weights::Barycentric { fine, coarse },
        }
    }

    /// Predict the value at fine vertex `x` (a vertex of `fine_mesh`) from
    /// coarse triangle `tri` of `coarse_mesh` with corner data taken from
    /// `coarse_data`.
    #[inline]
    pub fn estimate(
        &self,
        fine_mesh: &TriMesh,
        x: u32,
        coarse_mesh: &TriMesh,
        coarse_data: &[f64],
        tri: u32,
    ) -> f64 {
        self.weights(fine_mesh.points(), coarse_mesh.points())
            .estimate(x as usize, coarse_mesh.triangle_vertices(tri), coarse_data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canopus_mesh::geometry::Point2;

    fn one_triangle() -> TriMesh {
        TriMesh::new(
            vec![
                Point2::new(0.0, 0.0),
                Point2::new(1.0, 0.0),
                Point2::new(0.0, 1.0),
            ],
            vec![[0, 1, 2]],
        )
    }

    fn fine_point(p: Point2) -> TriMesh {
        TriMesh::new(vec![p], vec![])
    }

    #[test]
    fn mean_estimator_ignores_position() {
        let coarse = one_triangle();
        let data = [3.0, 6.0, 9.0];
        for p in [Point2::new(0.1, 0.1), Point2::new(0.9, 0.05)] {
            let fine = fine_point(p);
            let e = Estimator::Mean.estimate(&fine, 0, &coarse, &data, 0);
            assert!((e - 6.0).abs() < 1e-12);
        }
    }

    #[test]
    fn barycentric_reproduces_linear_fields_exactly() {
        let coarse = one_triangle();
        // f(x, y) = 2x + 5y + 1 at the corners.
        let data = [1.0, 3.0, 6.0];
        let p = Point2::new(0.25, 0.5);
        let fine = fine_point(p);
        let e = Estimator::Barycentric.estimate(&fine, 0, &coarse, &data, 0);
        assert!((e - (2.0 * p.x + 5.0 * p.y + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn barycentric_at_corner_returns_corner_value() {
        let coarse = one_triangle();
        let data = [7.0, -2.0, 4.0];
        let fine = fine_point(Point2::new(1.0, 0.0));
        let e = Estimator::Barycentric.estimate(&fine, 0, &coarse, &data, 0);
        assert!((e - (-2.0)).abs() < 1e-12);
    }

    #[test]
    fn degenerate_triangle_falls_back_to_mean() {
        let coarse = TriMesh::new(
            vec![
                Point2::new(0.0, 0.0),
                Point2::new(1.0, 1.0),
                Point2::new(2.0, 2.0),
            ],
            vec![[0, 1, 2]],
        );
        let data = [3.0, 6.0, 9.0];
        let fine = fine_point(Point2::new(0.5, 0.5));
        let e = Estimator::Barycentric.estimate(&fine, 0, &coarse, &data, 0);
        assert!((e - 6.0).abs() < 1e-12);
    }

    #[test]
    fn id_roundtrip() {
        for e in [Estimator::Mean, Estimator::Barycentric] {
            assert_eq!(Estimator::from_id(e.id()), Some(e));
        }
        assert_eq!(Estimator::from_id(9), None);
    }
}
