//! Property-based tests for the mesh substrate.

use canopus_mesh::generators::{
    annulus_mesh, boundary_vertices, disk_mesh, jitter_interior, rectangle_mesh,
};
use canopus_mesh::geometry::{Aabb, Point2, Triangle};
use canopus_mesh::{quality, GridLocator, ScalarField, TriMesh};
use proptest::prelude::*;
use std::sync::Arc;

fn arb_point() -> impl Strategy<Value = Point2> {
    (-100.0f64..100.0, -100.0f64..100.0).prop_map(|(x, y)| Point2::new(x, y))
}

proptest! {
    /// Barycentric weights of any point w.r.t. a non-degenerate triangle
    /// sum to 1 and reproduce the point as an affine combination.
    #[test]
    fn barycentric_reconstructs_point(a in arb_point(), b in arb_point(), c in arb_point(), p in arb_point()) {
        let tri = Triangle::new(a, b, c);
        prop_assume!(tri.area() > 1e-6);
        let w = tri.barycentric(p).unwrap();
        prop_assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-6);
        let rx = w[0]*a.x + w[1]*b.x + w[2]*c.x;
        let ry = w[0]*a.y + w[1]*b.y + w[2]*c.y;
        prop_assert!((rx - p.x).abs() < 1e-5);
        prop_assert!((ry - p.y).abs() < 1e-5);
    }

    /// Triangle vertices and centroid are always "inside".
    #[test]
    fn triangle_contains_its_own_anchors(a in arb_point(), b in arb_point(), c in arb_point()) {
        let tri = Triangle::new(a, b, c);
        prop_assume!(tri.area() > 1e-6);
        prop_assert!(tri.contains(tri.centroid()));
        prop_assert!(tri.contains(a));
        prop_assert!(tri.contains(b));
        prop_assert!(tri.contains(c));
    }

    /// Every generated rectangle mesh is manifold with positive triangles,
    /// and its locator finds every mesh vertex inside some triangle.
    #[test]
    fn rectangle_mesh_valid_and_locatable(nx in 1usize..12, ny in 1usize..12, seed in 0u64..1000) {
        let bb = Aabb::from_points([Point2::new(0.0, 0.0), Point2::new(2.0, 1.0)]);
        let m = jitter_interior(&rectangle_mesh(nx, ny, bb), 0.2, seed);
        let rep = quality::check(&m);
        prop_assert!(rep.is_manifold);
        prop_assert_eq!(rep.inverted_triangles, 0);
        let loc = GridLocator::build(&m);
        for &p in m.points() {
            let r = loc.locate(&m, p).unwrap();
            prop_assert!(r.is_inside());
        }
    }

    /// Annulus meshes keep Euler characteristic 0; disks keep 1, before
    /// and after jitter (jitter never changes topology).
    #[test]
    fn euler_characteristics_stable_under_jitter(nr in 2usize..6, na in 6usize..20, seed in 0u64..100) {
        let ann = annulus_mesh(nr, na, 0.4, 1.0);
        prop_assert_eq!(quality::check(&ann).euler_characteristic, 0);
        prop_assert_eq!(
            quality::check(&jitter_interior(&ann, 0.2, seed)).euler_characteristic,
            0
        );
        let disk = disk_mesh(nr, na, 1.0);
        prop_assert_eq!(quality::check(&disk).euler_characteristic, 1);
    }

    /// Interior points of the domain are always located inside the mesh.
    #[test]
    fn interior_points_located_inside(x in 0.05f64..1.95, y in 0.05f64..0.95) {
        let bb = Aabb::from_points([Point2::new(0.0, 0.0), Point2::new(2.0, 1.0)]);
        let m = rectangle_mesh(9, 5, bb);
        let loc = GridLocator::build(&m);
        let r = loc.locate(&m, Point2::new(x, y)).unwrap();
        prop_assert!(r.is_inside());
        prop_assert!(m.triangle(r.triangle()).contains(Point2::new(x, y)));
    }

    /// Field RMSE is a metric-ish: zero on self, symmetric.
    #[test]
    fn rmse_symmetry(vals in proptest::collection::vec(-1e6f64..1e6, 1..64)) {
        let a = ScalarField::new(vals.clone());
        let shifted: Vec<f64> = vals.iter().map(|v| v + 1.0).collect();
        let b = ScalarField::new(shifted);
        prop_assert_eq!(a.rmse(&a), 0.0);
        prop_assert!((a.rmse(&b) - b.rmse(&a)).abs() < 1e-12);
        prop_assert!((a.rmse(&b) - 1.0).abs() < 1e-9);
    }

    /// Binary mesh serialization round-trips exactly.
    #[test]
    fn binary_io_roundtrip(nx in 1usize..8, ny in 1usize..8, seed in 0u64..50) {
        let bb = Aabb::from_points([Point2::new(-1.0, -1.0), Point2::new(1.0, 1.0)]);
        let m = jitter_interior(&rectangle_mesh(nx, ny, bb), 0.2, seed);
        let bytes = canopus_mesh::io::to_binary(&m);
        let limit = canopus_mesh::io::decoded_bytes(&m);
        let back = canopus_mesh::io::from_binary(&bytes, limit).unwrap();
        prop_assert_eq!(back, m);
    }

    /// Shared storage shows only as pointer identity: a clone and every
    /// mesh assembled over one set of parsed sections read the same
    /// arrays, while equality still compares contents — a mesh rebuilt
    /// from copies is equal and shares nothing, one moved vertex is
    /// unequal — and the section parsers round-trip exactly.
    #[test]
    fn shared_storage_keeps_equality_and_roundtrips(nx in 1usize..8, ny in 1usize..8, seed in 0u64..50) {
        let bb = Aabb::from_points([Point2::new(-1.0, -1.0), Point2::new(1.0, 1.0)]);
        let m = jitter_interior(&rectangle_mesh(nx, ny, bb), 0.2, seed);
        let copy = m.clone();
        prop_assert!(std::ptr::eq(copy.points(), m.points()));
        prop_assert!(std::ptr::eq(copy.triangles(), m.triangles()));

        let rebuilt = TriMesh::new(m.points().to_vec(), m.triangles().to_vec());
        prop_assert_eq!(&rebuilt, &m);
        prop_assert!(!std::ptr::eq(rebuilt.points(), m.points()));
        let mut moved = m.points().to_vec();
        moved[0].x += 1.0;
        prop_assert_ne!(&TriMesh::new(moved, m.triangles().to_vec()), &m);

        let (bytes, at) = canopus_mesh::io::to_binary_sections(&m);
        let limit = canopus_mesh::io::decoded_bytes(&m);
        let (points, nf) = canopus_mesh::io::points_from_binary(&bytes[..at], limit, Vec::new()).unwrap();
        let (connectivity, rest) = canopus_mesh::io::connectivity_from_binary(
            &bytes[at..], points.len(), nf, limit, Vec::new()).unwrap();
        prop_assert!(rest.is_empty());
        let points = Arc::new(points);
        let first = connectivity.mesh_over(Arc::clone(&points)).unwrap();
        let second = connectivity.mesh_over(Arc::clone(&points)).unwrap();
        prop_assert_eq!(&first, &m);
        prop_assert!(std::ptr::eq(first.points(), points.as_slice()));
        prop_assert!(std::ptr::eq(first.points(), second.points()));
        prop_assert!(std::ptr::eq(first.triangles(), connectivity.triangles()));
        prop_assert!(std::ptr::eq(first.triangles(), second.triangles()));
    }

    /// Boundary vertices of a rectangle grid are exactly the outer frame.
    #[test]
    fn rectangle_boundary_count(nx in 2usize..10, ny in 2usize..10) {
        let bb = Aabb::from_points([Point2::new(0.0, 0.0), Point2::new(1.0, 1.0)]);
        let m = rectangle_mesh(nx, ny, bb);
        let nb = boundary_vertices(&m).iter().filter(|&&b| b).count();
        prop_assert_eq!(nb, 2 * (nx + 1) + 2 * (ny + 1) - 4);
    }
}
