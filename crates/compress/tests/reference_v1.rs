//! The lane-major coder against the version-1 reference.
//!
//! Stream version 2 changed how a block's truncated coefficients are
//! serialized and nothing else: classification, fixed-point scaling, the
//! lifting transform, the negabinary map, the cutoff plane and the
//! reconstruction are the version-1 arithmetic. So for any input and
//! tolerance, `decompress(compress(x))` must equal — bit for bit — what
//! the scalar group-tested bit-plane coder of version 1 (kept verbatim
//! in `support`) return for the same input: across tolerances, zero
//! blocks, raw escapes, partial final blocks and 1e±300 magnitudes. The
//! streams differ, and the new one must not be the longer; a version-1
//! stream itself is refused as a retired format. Also here:
//! `decompress_into` against `decompress` for every codec kind.

mod support;

use canopus_compress::{Codec, CodecKind, ZfpLike};
use proptest::prelude::*;

/// Finite doubles spanning physics magnitudes plus extremes, with
/// lengths that exercise empty, single, and partial final blocks.
fn arb_wild() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(
        prop_oneof![
            -1e6f64..1e6,
            -1e-300f64..1e-300,
            -1e300f64..1e300,
            Just(0.0f64),
            Just(-0.0f64),
        ],
        0..300,
    )
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Deterministic pseudo-random doubles in [-scale, scale].
fn noise(n: usize, scale: f64, seed: u64) -> Vec<f64> {
    let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ((x >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) * scale
        })
        .collect()
}

proptest! {
    /// Both coders restore the same values, and `decompress_into`
    /// is `decompress`.
    #[test]
    fn restored_values_match_the_reference(data in arb_wild(), tol_exp in -12i32..0) {
        let tol = 10f64.powi(tol_exp);
        let codec = ZfpLike::with_tolerance(tol);
        let stream = codec.compress(&data).unwrap();
        let reference = support::zfp_like::compress(&data, tol).unwrap();
        let want = support::zfp_like::decompress(&reference, data.len()).unwrap();
        let got = codec.decompress(&stream, data.len()).unwrap();
        prop_assert_eq!(bits(&want), bits(&got));
        let mut into = vec![f64::NAN; data.len()];
        codec.decompress_into(&stream, &mut into).unwrap();
        prop_assert_eq!(bits(&got), bits(&into));
    }

    /// Every codec kind: the allocation-lean `decompress_into` agrees
    /// bit-for-bit with `decompress`, boxed or statically dispatched.
    #[test]
    fn decompress_into_matches_decompress_for_all_codecs(
        data in arb_wild(),
        which in 0u8..4,
        bound_exp in -9i32..-1,
    ) {
        let bound = 10f64.powi(bound_exp);
        let kind = match which {
            0 => CodecKind::Raw,
            1 => CodecKind::ZfpLike { tolerance: bound },
            2 => CodecKind::SzLike { error_bound: bound },
            _ => CodecKind::Fpc,
        };
        let boxed = kind.build();
        let bytes = boxed.compress(&data).unwrap();
        let via_vec = boxed.decompress(&bytes, data.len()).unwrap();
        let mut via_into = vec![0.0; data.len()];
        boxed.decompress_into(&bytes, &mut via_into).unwrap();
        prop_assert_eq!(bits(&via_vec), bits(&via_into));
        let mut via_any = vec![0.0; data.len()];
        kind.build_any().decompress_into(&bytes, &mut via_any).unwrap();
        prop_assert_eq!(bits(&via_into), bits(&via_any));
    }
}

/// The fixed cases the codecs' own unit tests compared byte for byte
/// while the reference still shipped: every run-staging boundary, with a
/// raw escape and an all-zero block forced into the mix.
#[test]
fn restored_values_match_the_reference_at_staging_boundaries() {
    for &tol in &[1e-2, 1e-6, 1e-12] {
        for n in [0usize, 1, 3, 4, 5, 63, 255, 256, 257, 1023] {
            let mut data = noise(n, 10.0, n as u64 + 1);
            if n > 8 {
                data[n / 2] = 1e300;
                data[n / 2 + 1] = 1e-300;
                data[0] = 0.0;
            }
            let codec = ZfpLike::with_tolerance(tol);
            let reference = support::zfp_like::compress(&data, tol).unwrap();
            assert_eq!(
                bits(
                    &codec
                        .decompress(&codec.compress(&data).unwrap(), n)
                        .unwrap()
                ),
                bits(&support::zfp_like::decompress(&reference, n).unwrap()),
                "tol {tol} n {n}"
            );
        }
    }
}

/// Never larger: over a smooth, a noisy and a delta-like (near-zero
/// residual) series, at loose to tight relative tolerances, the lane-major
/// stream is no longer than the version-1 stream of the same input. The
/// adaptive length field is what holds this at loose tolerances, where
/// blocks are a few planes deep and a fixed four bits a lane would cost
/// more than group testing did.
#[test]
fn streams_are_never_larger_than_version_1() {
    let n = 1 << 16;
    let smooth: Vec<f64> = (0..n)
        .map(|i| (i as f64 * 0.0007).sin() * 40.0 + (i as f64 * 0.011).cos())
        .collect();
    let noisy = noise(n, 40.0, 11);
    // What a Canopus delta looks like: a smooth field's residual against
    // its estimate, three orders of magnitude below the field's range,
    // with stretches that vanish entirely.
    let delta: Vec<f64> = noise(n, 1.0, 5)
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let envelope = (i as f64 * 0.0003).sin().max(0.0);
            r * 0.04 * envelope * envelope
        })
        .collect();
    let range = 80.0;
    for (name, series) in [("smooth", &smooth), ("noisy", &noisy), ("delta", &delta)] {
        for rel in [1e-2, 1e-4, 1e-6, 1e-8] {
            let tol = rel * range;
            let new = ZfpLike::with_tolerance(tol).compress(series).unwrap().len();
            let old = support::zfp_like::compress(series, tol).unwrap().len();
            assert!(
                new <= old,
                "{name} at {rel:e}: lane-major {new} B > version 1 {old} B"
            );
        }
    }
}

/// A version-1 stream is an error, not a second decoder.
#[test]
fn version_1_streams_are_refused_as_retired() {
    let data = noise(64, 3.0, 9);
    let old = support::zfp_like::compress(&data, 1e-6).unwrap();
    let err = ZfpLike::with_tolerance(1e-6)
        .decompress(&old, data.len())
        .unwrap_err();
    assert!(err.to_string().contains("retired"), "{err}");
}
