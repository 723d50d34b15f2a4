//! Delta calculation (paper Alg. 2, Eq. 1) and restoration (Alg. 3).
//!
//! `delta_x^{l-(l+1)} = L_x^l - Estimate(L_i^{l+1}, L_j^{l+1}, L_k^{l+1})`
//! for the coarse triangle `<i, j, k>` containing `x`, and restoration is
//! the exact inverse. Both sides evaluate the identical f64 estimate, so
//! restoration with uncompressed deltas reproduces the fine level to
//! within one floating-point rounding of the estimate (`(a-b)+b` is not
//! always bit-identical to `a`); with compressed deltas the pointwise
//! error adds the codec's bound.

use crate::estimate::{Estimator, Weights};
use crate::mapping::Mapping;
use canopus_mesh::{TriMesh, VertexId};
use rayon::prelude::*;

/// Compute `delta^{l-(l+1)}` for all fine vertices.
///
/// # Panics
/// Panics on length mismatches between mesh, data and mapping.
pub fn compute_delta(
    fine_mesh: &TriMesh,
    fine_data: &[f64],
    coarse_mesh: &TriMesh,
    coarse_data: &[f64],
    mapping: &Mapping,
    estimator: Estimator,
) -> Vec<f64> {
    assert_eq!(fine_data.len(), fine_mesh.num_vertices());
    assert_eq!(coarse_data.len(), coarse_mesh.num_vertices());
    assert_eq!(mapping.len(), fine_mesh.num_vertices());

    (0..fine_data.len())
        .into_par_iter()
        .map(|x| {
            let est = estimator.estimate(fine_mesh, x as u32, coarse_mesh, coarse_data, mapping[x]);
            fine_data[x] - est
        })
        .collect()
}

/// Restore `L^l` from the coarse level and the delta (paper Alg. 3):
/// `L_x^l = delta_x + Estimate(...)`.
pub fn restore_level(
    fine_mesh: &TriMesh,
    delta: &[f64],
    coarse_mesh: &TriMesh,
    coarse_data: &[f64],
    mapping: &Mapping,
    estimator: Estimator,
) -> Vec<f64> {
    assert_eq!(delta.len(), fine_mesh.num_vertices());
    assert_eq!(coarse_data.len(), coarse_mesh.num_vertices());
    let mut values = delta.to_vec();
    restore_in_place(
        &mut values,
        coarse_mesh.triangles(),
        coarse_data,
        mapping,
        estimator.weights(fine_mesh.points(), coarse_mesh.points()),
    );
    values
}

/// Values in one tile, the one grain of a refinement step from codec to
/// restore. The writer frames every codec stream longer than a tile into
/// chunks of exactly `TILE` values, and [`restore_in_place`] runs one
/// task per tile, so a reader can decode and restore each tile in one
/// pass ([`restore_tile`]). Fixed, so that neither the stored bytes nor
/// the squares sum depend on how many cores made them.
pub const TILE: usize = 1 << 16;

/// [`restore_level`] where the delta lies: `values` holds `delta^{l-(l+1)}`
/// on entry and `L^l` on return, each value touched once. Of the coarse
/// level it takes the triangles' corner ids and the data, and whatever
/// `weights` carries. Returns the sum of the squared deltas (for the
/// paper's adjacent-level RMS), accumulated in the same pass: one
/// [`restore_tile`] per [`TILE`], their sums added in tile order.
///
/// # Panics
/// Panics if `mapping` is not one entry per value, or names a triangle
/// `coarse_triangles` does not have, or a corner is beyond `coarse_data`.
pub fn restore_in_place(
    values: &mut [f64],
    coarse_triangles: &[[VertexId; 3]],
    coarse_data: &[f64],
    mapping: &[u32],
    weights: Weights<'_>,
) -> f64 {
    assert_eq!(mapping.len(), values.len());
    values
        .par_chunks_mut(TILE)
        .enumerate()
        .map(|(tile, values)| {
            restore_tile(
                values,
                tile * TILE,
                coarse_triangles,
                coarse_data,
                mapping,
                weights,
            )
        })
        .collect::<Vec<f64>>()
        .iter()
        .sum()
}

/// One tile of [`restore_in_place`]: `values` are the level's values
/// from global index `first` on, delta on entry and restored on return.
/// `mapping` is the whole level's, and `first` is also what
/// [`Weights::Barycentric`] reads the fine point by. Returns the tile's
/// sum of squared deltas, accumulated in value order.
///
/// The estimator is chosen once per tile, not per vertex
/// (`Weights::restore`, beside the estimators): one loop, monomorphised
/// per estimator, runs the arithmetic [`Weights::estimate`] runs, so
/// the values and the sum keep their bits.
///
/// # Panics
/// Panics if `mapping` has no entry for some value, or names a triangle
/// `coarse_triangles` does not have, or a corner is beyond `coarse_data`.
pub fn restore_tile(
    values: &mut [f64],
    first: usize,
    coarse_triangles: &[[VertexId; 3]],
    coarse_data: &[f64],
    mapping: &[u32],
    weights: Weights<'_>,
) -> f64 {
    let mapping = &mapping[first..first + values.len()];
    weights.restore(values, first, mapping, coarse_triangles, coarse_data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decimate::decimate;
    use crate::mapping::build_mapping;
    use canopus_mesh::generators::{jitter_interior, rectangle_mesh};
    use canopus_mesh::geometry::{Aabb, Point2};
    use canopus_mesh::FieldStats;

    fn setup() -> (TriMesh, Vec<f64>, TriMesh, Vec<f64>, Mapping) {
        let fine = jitter_interior(
            &rectangle_mesh(
                14,
                14,
                Aabb::from_points([Point2::new(0.0, 0.0), Point2::new(1.0, 1.0)]),
            ),
            0.2,
            5,
        );
        let data: Vec<f64> = fine
            .points()
            .iter()
            .map(|p| (p.x * 6.0).sin() * (p.y * 5.0).cos() + 0.3 * p.x)
            .collect();
        let dec = decimate(&fine, &data, 2.0);
        let mapping = build_mapping(&fine, &dec.mesh);
        (fine, data, dec.mesh, dec.data, mapping)
    }

    #[test]
    fn delta_then_restore_inverts_to_rounding() {
        for estimator in [Estimator::Mean, Estimator::Barycentric] {
            let (fine, data, coarse, cdata, mapping) = setup();
            let delta = compute_delta(&fine, &data, &coarse, &cdata, &mapping, estimator);
            let restored = restore_level(&fine, &delta, &coarse, &cdata, &mapping, estimator);
            let max_err = restored
                .iter()
                .zip(&data)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            assert!(
                max_err < 1e-14,
                "estimator {estimator:?}: restoration error {max_err} beyond rounding"
            );
        }
    }

    #[test]
    fn restoring_in_place_gives_the_same_bits_and_the_delta_square_sum() {
        let (fine, data, coarse, cdata, mapping) = setup();
        for estimator in [Estimator::Mean, Estimator::Barycentric] {
            let delta = compute_delta(&fine, &data, &coarse, &cdata, &mapping, estimator);
            // What `restore_level` was before it shared this kernel.
            let expect: Vec<u64> = (0..delta.len())
                .map(|x| {
                    let est = estimator.estimate(&fine, x as u32, &coarse, &cdata, mapping[x]);
                    (delta[x] + est).to_bits()
                })
                .collect();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let restored = restore_level(&fine, &delta, &coarse, &cdata, &mapping, estimator);
            assert_eq!(bits(&restored), expect, "{estimator:?}");

            // The mean reads no vertex position of either level.
            let weights = match estimator {
                Estimator::Mean => estimator.weights(&[], &[]),
                Estimator::Barycentric => estimator.weights(fine.points(), coarse.points()),
            };
            let mut values = delta.clone();
            let squares =
                restore_in_place(&mut values, coarse.triangles(), &cdata, &mapping, weights);
            assert_eq!(bits(&values), expect, "{estimator:?} in place");
            let direct: f64 = delta.iter().map(|d| d * d).sum();
            assert!(
                (squares - direct).abs() <= 1e-12 * direct,
                "{squares} vs {direct}"
            );
        }
    }

    #[test]
    fn tiles_restored_one_by_one_give_the_bits_of_the_whole_pass() {
        let (fine, data, coarse, cdata, mapping) = setup();
        for estimator in [Estimator::Mean, Estimator::Barycentric] {
            let delta = compute_delta(&fine, &data, &coarse, &cdata, &mapping, estimator);
            let weights = estimator.weights(fine.points(), coarse.points());
            let mut whole = delta.clone();
            restore_in_place(&mut whole, coarse.triangles(), &cdata, &mapping, weights);
            // Uneven pieces: each reads its fine points from `first` on.
            let mut pieces = delta.clone();
            for (piece, values) in pieces.chunks_mut(37).enumerate() {
                restore_tile(
                    values,
                    piece * 37,
                    coarse.triangles(),
                    &cdata,
                    &mapping,
                    weights,
                );
            }
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&pieces), bits(&whole), "{estimator:?}");
        }
    }

    #[test]
    fn deltas_are_smaller_and_smoother_than_the_field() {
        // The paper's Fig. 4 observation: deltas are less variable than
        // the levels themselves — the pre-conditioner effect.
        let (fine, data, coarse, cdata, mapping) = setup();
        let delta = compute_delta(&fine, &data, &coarse, &cdata, &mapping, Estimator::Mean);
        let field_stats = FieldStats::of(&data);
        let delta_stats = FieldStats::of(&delta);
        assert!(
            delta_stats.std_dev() < field_stats.std_dev(),
            "delta std {} should be below field std {}",
            delta_stats.std_dev(),
            field_stats.std_dev()
        );
    }

    #[test]
    fn barycentric_deltas_beat_mean_deltas_on_smooth_fields() {
        let (fine, data, coarse, cdata, mapping) = setup();
        let d_mean = compute_delta(&fine, &data, &coarse, &cdata, &mapping, Estimator::Mean);
        let d_bary = compute_delta(
            &fine,
            &data,
            &coarse,
            &cdata,
            &mapping,
            Estimator::Barycentric,
        );
        let s_mean = FieldStats::of(&d_mean).std_dev();
        let s_bary = FieldStats::of(&d_bary).std_dev();
        assert!(
            s_bary < s_mean,
            "barycentric deltas ({s_bary}) should be tighter than mean deltas ({s_mean})"
        );
    }

    #[test]
    fn perturbed_coarse_data_perturbs_restoration_boundedly() {
        // Lossy compression of the coarse level shifts the restored fine
        // level by at most the same bound (Estimate is an affine map with
        // weights summing to 1).
        let (fine, data, coarse, cdata, mapping) = setup();
        let delta = compute_delta(&fine, &data, &coarse, &cdata, &mapping, Estimator::Mean);
        let eps = 1e-5;
        let perturbed: Vec<f64> = cdata.iter().map(|v| v + eps).collect();
        let restored = restore_level(
            &fine,
            &delta,
            &coarse,
            &perturbed,
            &mapping,
            Estimator::Mean,
        );
        for (r, d) in restored.iter().zip(&data) {
            assert!((r - d).abs() <= eps * 1.000001);
        }
    }

    #[test]
    #[should_panic]
    fn rejects_wrong_mapping_length() {
        let (fine, data, coarse, cdata, _) = setup();
        let bad_mapping = vec![0u32; 3];
        compute_delta(&fine, &data, &coarse, &cdata, &bad_mapping, Estimator::Mean);
    }
}
