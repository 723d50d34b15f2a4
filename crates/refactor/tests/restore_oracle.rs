//! The restore kernel against an oracle that shares none of its code.
//!
//! `restore_in_place` and `restore_tile` choose the estimator once per
//! tile and run a loop with its arithmetic inlined. The oracle here
//! restores one vertex at a time through the public
//! `Estimator::estimate` and sums the squared deltas tile by tile, in
//! value order, then over tiles in order. Both estimators, on a level
//! of three tiles and a remainder, must give its values and its sum bit
//! for bit: from a whole pass, from each tile restored on its own, and
//! from a piece that starts inside a tile.

use canopus_mesh::generators::{jitter_interior, rectangle_mesh};
use canopus_mesh::geometry::{Aabb, Point2};
use canopus_mesh::TriMesh;
use canopus_refactor::{restore_in_place, restore_tile, Estimator, TILE};

/// A coarse level and a fine one of `3 * TILE + 1234` vertices. The
/// fine points are spread over the coarse mesh's box and each is mapped
/// to a coarse triangle by a hash, so the gathers jump around the
/// coarse data; one coarse triangle is degenerate, so the barycentric
/// estimate's fallback to the mean runs too.
struct Level {
    fine: TriMesh,
    coarse: TriMesh,
    coarse_data: Vec<f64>,
    mapping: Vec<u32>,
    delta: Vec<f64>,
}

fn level() -> Level {
    let unit = Aabb::from_points([Point2::new(0.0, 0.0), Point2::new(1.0, 1.0)]);
    let grid = jitter_interior(&rectangle_mesh(30, 30, unit), 0.2, 3);
    let mut triangles = grid.triangles().to_vec();
    triangles.push([0, 1, 2]); // the first row's corners: collinear
    let coarse = TriMesh::new(grid.points().to_vec(), triangles);
    let coarse_data: Vec<f64> = coarse
        .points()
        .iter()
        .map(|p| (p.x * 5.0).sin() * (p.y * 3.0).cos() + 0.1 * p.x)
        .collect();

    let n = 3 * TILE + 1234;
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let unit_f64 = |r: u64| (r >> 11) as f64 / (1u64 << 53) as f64;
    let points: Vec<Point2> = (0..n)
        .map(|_| Point2::new(unit_f64(next()), unit_f64(next())))
        .collect();
    let tris = coarse.num_triangles() as u64;
    let mapping = (0..n).map(|_| (next() % tris) as u32).collect();
    let delta = (0..n).map(|_| (unit_f64(next()) - 0.5) * 1e-2).collect();
    Level {
        fine: TriMesh::new(points, vec![]),
        coarse,
        coarse_data,
        mapping,
        delta,
    }
}

/// Values `range` of the level restored one vertex at a time through
/// `Estimator::estimate`, and their squared deltas summed in value
/// order within each tile-aligned piece of `range`, the pieces' sums
/// then added in order.
fn oracle(l: &Level, estimator: Estimator, range: std::ops::Range<usize>) -> (Vec<u64>, u64) {
    let values = range
        .clone()
        .map(|x| {
            let est =
                estimator.estimate(&l.fine, x as u32, &l.coarse, &l.coarse_data, l.mapping[x]);
            (l.delta[x] + est).to_bits()
        })
        .collect();
    let mut sums = Vec::new();
    let mut at = range.start;
    while at < range.end {
        let end = ((at / TILE + 1) * TILE).min(range.end);
        let mut squares = 0.0;
        for d in &l.delta[at..end] {
            squares += d * d;
        }
        sums.push(squares);
        at = end;
    }
    (values, sums.iter().sum::<f64>().to_bits())
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

const ESTIMATORS: [Estimator; 2] = [Estimator::Mean, Estimator::Barycentric];

#[test]
fn a_whole_pass_gives_the_per_vertex_oracles_bits_and_sum() {
    let l = level();
    let n = l.delta.len();
    assert_eq!(n.div_ceil(TILE), 4, "three tiles and a remainder");
    for estimator in ESTIMATORS {
        let (want, want_sum) = oracle(&l, estimator, 0..n);
        let weights = estimator.weights(l.fine.points(), l.coarse.points());
        let mut values = l.delta.clone();
        let squares = restore_in_place(
            &mut values,
            l.coarse.triangles(),
            &l.coarse_data,
            &l.mapping,
            weights,
        );
        assert_eq!(bits(&values), want, "{estimator:?}: values");
        assert_eq!(squares.to_bits(), want_sum, "{estimator:?}: squares");
    }
}

#[test]
fn tiles_restored_on_their_own_give_the_oracles_bits_and_sums() {
    let l = level();
    let n = l.delta.len();
    for estimator in ESTIMATORS {
        let weights = estimator.weights(l.fine.points(), l.coarse.points());
        // Every tile at its own `first`, the remainder among them.
        for first in (0..n).step_by(TILE) {
            let range = first..(first + TILE).min(n);
            let (want, want_sum) = oracle(&l, estimator, range.clone());
            let mut tile = l.delta[range.clone()].to_vec();
            let squares = restore_tile(
                &mut tile,
                first,
                l.coarse.triangles(),
                &l.coarse_data,
                &l.mapping,
                weights,
            );
            let what = format!("{estimator:?} tile at {first}");
            assert_eq!(bits(&tile), want, "{what}: values");
            assert_eq!(squares.to_bits(), want_sum, "{what}: squares");
        }
        // A piece that starts inside a tile and ends inside the next
        // one: its sum is one accumulator in value order.
        let range = TILE + 777..2 * TILE + 4242;
        let (want, _) = oracle(&l, estimator, range.clone());
        let mut piece = l.delta[range.clone()].to_vec();
        let squares = restore_tile(
            &mut piece,
            range.start,
            l.coarse.triangles(),
            &l.coarse_data,
            &l.mapping,
            weights,
        );
        let mut want_sum = 0.0;
        for d in &l.delta[range] {
            want_sum += d * d;
        }
        assert_eq!(bits(&piece), want, "{estimator:?} piece: values");
        assert_eq!(squares.to_bits(), want_sum.to_bits(), "{estimator:?} piece");
    }
}
