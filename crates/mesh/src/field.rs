//! Scalar fields over mesh vertices, plus the smoothness statistics Canopus
//! uses to argue that deltas compress better than decimated levels
//! (paper §III-C2, Fig. 4).

use crate::mesh::{TriMesh, VertexId};

/// A scalar quantity `L^l` stored at every vertex of a mesh level — the
/// paper's "data variable" (e.g. XGC1 `dpot`, GenASiS `normVec magnitude`,
/// CFD `pressure`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScalarField {
    values: Vec<f64>,
}

impl ScalarField {
    pub fn new(values: Vec<f64>) -> Self {
        Self { values }
    }

    pub fn zeros(n: usize) -> Self {
        Self {
            values: vec![0.0; n],
        }
    }

    /// Evaluate `f(x, y)` at every vertex of `mesh`.
    pub fn from_fn(mesh: &TriMesh, mut f: impl FnMut(f64, f64) -> f64) -> Self {
        Self {
            values: mesh.points().iter().map(|p| f(p.x, p.y)).collect(),
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    #[inline]
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    pub fn into_values(self) -> Vec<f64> {
        self.values
    }

    #[inline]
    pub fn get(&self, v: VertexId) -> f64 {
        self.values[v as usize]
    }

    #[inline]
    pub fn set(&mut self, v: VertexId, value: f64) {
        self.values[v as usize] = value;
    }

    /// Summary statistics of the field.
    pub fn stats(&self) -> FieldStats {
        FieldStats::of(&self.values)
    }

    /// Mean absolute difference across mesh edges — a discrete
    /// total-variation proxy for "smoothness". Lower means smoother, and
    /// smoother fields are what block-transform compressors reward. The
    /// `repro smoothness` ablation compares this for `L^l` vs
    /// `delta^{l-(l+1)}` to validate the paper's pre-conditioner claim.
    pub fn edge_total_variation(&self, mesh: &TriMesh) -> f64 {
        let edges = mesh.edges();
        if edges.is_empty() {
            return 0.0;
        }
        let total: f64 = edges
            .iter()
            .map(|&(u, v)| (self.get(u) - self.get(v)).abs())
            .sum();
        total / edges.len() as f64
    }

    /// Root-mean-square error against another field of the same length.
    /// Canopus uses RMSE between adjacent levels as an automated
    /// progressive-retrieval termination criterion (paper §III-E).
    pub fn rmse(&self, other: &ScalarField) -> f64 {
        assert_eq!(self.len(), other.len(), "rmse requires equal lengths");
        if self.is_empty() {
            return 0.0;
        }
        let sum_sq: f64 = self
            .values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        (sum_sq / self.len() as f64).sqrt()
    }

    /// Maximum absolute pointwise difference against another field.
    pub fn max_abs_diff(&self, other: &ScalarField) -> f64 {
        assert_eq!(self.len(), other.len());
        self.values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

impl From<Vec<f64>> for ScalarField {
    fn from(values: Vec<f64>) -> Self {
        Self { values }
    }
}

/// Min / max / mean / variance of a value array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FieldStats {
    pub min: f64,
    pub max: f64,
    pub mean: f64,
    pub variance: f64,
}

impl FieldStats {
    pub fn of(values: &[f64]) -> Self {
        if values.is_empty() {
            return Self {
                min: 0.0,
                max: 0.0,
                mean: 0.0,
                variance: 0.0,
            };
        }
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        for &v in values {
            min = min.min(v);
            max = max.max(v);
            sum += v;
        }
        let mean = sum / values.len() as f64;
        let variance =
            values.iter().map(|&v| (v - mean) * (v - mean)).sum::<f64>() / values.len() as f64;
        Self {
            min,
            max,
            mean,
            variance,
        }
    }

    pub fn range(&self) -> f64 {
        (self.max - self.min).max(0.0)
    }

    pub fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point2;

    fn square() -> TriMesh {
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
    fn from_fn_evaluates_at_vertices() {
        let f = ScalarField::from_fn(&square(), |x, y| x + 10.0 * y);
        assert_eq!(f.values(), &[0.0, 1.0, 11.0, 10.0]);
    }

    #[test]
    fn stats_basics() {
        let s = FieldStats::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.mean - 2.5).abs() < 1e-15);
        assert!((s.variance - 1.25).abs() < 1e-15);
        assert!((s.range() - 3.0).abs() < 1e-15);
    }

    #[test]
    fn stats_empty() {
        let s = FieldStats::of(&[]);
        assert_eq!(s.range(), 0.0);
    }

    #[test]
    fn rmse_and_max_diff() {
        let a = ScalarField::new(vec![0.0, 0.0, 0.0, 0.0]);
        let b = ScalarField::new(vec![1.0, -1.0, 1.0, -1.0]);
        assert!((a.rmse(&b) - 1.0).abs() < 1e-15);
        assert!((a.max_abs_diff(&b) - 1.0).abs() < 1e-15);
        assert_eq!(a.rmse(&a), 0.0);
    }

    #[test]
    fn smooth_field_has_lower_tv_than_rough() {
        let m = square();
        let smooth = ScalarField::from_fn(&m, |x, _| x * 0.01);
        let rough = ScalarField::new(vec![0.0, 5.0, -5.0, 5.0]);
        assert!(smooth.edge_total_variation(&m) < rough.edge_total_variation(&m));
    }

    #[test]
    fn set_get_roundtrip() {
        let mut f = ScalarField::zeros(3);
        f.set(1, 42.0);
        assert_eq!(f.get(1), 42.0);
        assert_eq!(f.len(), 3);
    }
}
