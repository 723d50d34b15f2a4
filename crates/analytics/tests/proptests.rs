//! Property-based tests for the analytics substrate.

use canopus_analytics::blob::{BlobDetector, BlobParams};
use canopus_analytics::components::label_components;
use canopus_analytics::errors::compare;
use canopus_analytics::raster::{GrayImage, Raster};
use canopus_mesh::generators::{jitter_interior, rectangle_mesh};
use canopus_mesh::geometry::{Aabb, Point2};
use proptest::prelude::*;

proptest! {
    /// Connected components partition the mask: areas sum to the number
    /// of set pixels, every centroid lies inside its bounding box.
    #[test]
    fn components_partition_mask(
        mask in proptest::collection::vec(any::<bool>(), 1..400),
        width in 1usize..20,
    ) {
        let width = width.min(mask.len());
        let height = mask.len() / width;
        prop_assume!(height >= 1);
        let mask = &mask[..width * height];
        let comps = label_components(mask, width, height);
        let total: usize = comps.iter().map(|c| c.area).sum();
        prop_assert_eq!(total, mask.iter().filter(|&&b| b).count());
        for c in &comps {
            let (x0, y0, x1, y1) = c.bbox;
            prop_assert!(x0 <= x1 && y0 <= y1);
            prop_assert!(c.centroid.0 >= x0 as f64 - 1e-9 && c.centroid.0 <= x1 as f64 + 1e-9);
            prop_assert!(c.centroid.1 >= y0 as f64 - 1e-9 && c.centroid.1 <= y1 as f64 + 1e-9);
            prop_assert!(c.area >= 1);
        }
    }

    /// The blob detector never panics on arbitrary images and every blob
    /// it reports lies within the image.
    #[test]
    fn detector_total_on_arbitrary_images(
        data in proptest::collection::vec(any::<u8>(), 64..1024),
        width in 8usize..32,
        min_t in 1u8..100,
        span in 1u8..150,
    ) {
        let width = width.min(data.len());
        let height = data.len() / width;
        prop_assume!(height >= 2);
        let img = GrayImage {
            width,
            height,
            data: data[..width * height].to_vec(),
        };
        let det = BlobDetector::new(BlobParams {
            min_threshold: min_t,
            max_threshold: min_t.saturating_add(span),
            min_area: 4,
            ..Default::default()
        });
        for blob in det.detect(&img) {
            prop_assert!(blob.center.0 >= 0.0 && blob.center.0 < width as f64);
            prop_assert!(blob.center.1 >= 0.0 && blob.center.1 < height as f64);
            prop_assert!(blob.radius > 0.0);
            prop_assert!(blob.repeatability >= 2);
        }
    }

    /// Rasterizing any field keeps pixel values within the field's range
    /// (barycentric interpolation is convex inside; clamped outside).
    #[test]
    fn raster_values_within_field_range(
        seed in 0u64..300,
        amp in 0.1f64..1e4,
        freq in 0.5f64..12.0,
    ) {
        let bb = Aabb::from_points([Point2::new(0.0, 0.0), Point2::new(1.0, 1.0)]);
        let mesh = jitter_interior(&rectangle_mesh(8, 8, bb), 0.2, seed);
        let data: Vec<f64> = mesh
            .points()
            .iter()
            .map(|p| amp * ((p.x * freq).sin() + (p.y * freq).cos()))
            .collect();
        let (lo, hi) = data
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), &v| (a.min(v), b.max(v)));
        let raster = Raster::from_mesh(&mesh, &data, 32, 32, bb);
        for &px in raster.pixels() {
            if !px.is_nan() {
                prop_assert!(px >= lo - 1e-9 * amp && px <= hi + 1e-9 * amp);
            }
        }
    }

    /// Error metrics: comparing a field against itself is perfect, and
    /// adding any perturbation only increases every metric.
    #[test]
    fn error_metrics_monotone(
        data in proptest::collection::vec(-1e3f64..1e3, 2..100),
        eps in 1e-6f64..1.0,
    ) {
        let zero = compare(&data, &data);
        prop_assert_eq!(zero.max_abs, 0.0);
        let perturbed: Vec<f64> = data.iter().map(|v| v + eps).collect();
        let r = compare(&data, &perturbed);
        prop_assert!(r.max_abs >= zero.max_abs);
        prop_assert!((r.max_abs - eps).abs() < 1e-9);
        prop_assert!((r.rmse - eps).abs() < 1e-9);
        prop_assert!(r.psnr_db < f64::INFINITY);
    }
}
