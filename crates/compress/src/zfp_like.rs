//! A fixed-accuracy block-transform codec in the ZFP family.
//!
//! ZFP (Lindstrom 2014) compresses floating-point arrays by splitting them
//! into small blocks and, per block: aligning all values to a common
//! exponent as fixed-point integers, applying a reversible decorrelating
//! integer transform, mapping coefficients to negabinary, and keeping
//! only the bit planes above a cutoff derived from the tolerance.
//!
//! This implementation keeps that architecture for 1-D streams (Canopus
//! feeds vertex-ordered mesh data, which is 1-D):
//!
//! * block size 4;
//! * ZFP's own 4-point integer lifting transform (annihilates constant,
//!   linear and quadratic trends within a block) as the decorrelator;
//! * negabinary signed→unsigned mapping so small magnitudes have short bit
//!   representations and truncation error stays bounded;
//! * fixed-accuracy truncation at a cutoff plane derived from the absolute
//!   `tolerance`.
//!
//! Where it departs from ZFP is how the truncated coefficients
//! `q_k = u_k >> cutoff` are written. ZFP emits them plane by plane with
//! group testing, which makes the stream embedded (cut it anywhere) and
//! makes decoding a chain of data-dependent single-bit steps. Nothing in
//! Canopus cuts a block short, so blocks are stored *lane-major* instead:
//! each coefficient's bit length, then each coefficient's bits — see
//! [`crate::lanes`] for the layout. That is stream version 2; version 1
//! (group-tested planes) is refused as a retired format.
//!
//! The essential behavioural property is preserved: **the smoother the
//! input, the smaller the stream**, because smooth blocks have tiny
//! high-pass coefficients, which cost their (short) bit length and
//! nothing more. That is precisely the property the paper's Fig. 5
//! exploits when it claims Canopus' deltas act as a pre-conditioner for
//! ZFP.
//!
//! The guarantee is `max_i |x_i - x'_i| <= tolerance`.

use crate::bitstream::{BitReader, BitWriter};
use crate::error::CodecError;
use crate::lanes::{self, BlockClass, DecodedClass, LaneReader, STREAM_VERSION};
use crate::{Codec, Slot};
use std::mem::MaybeUninit;

/// Values per block (matches ZFP's 4^d with d = 1).
const BLOCK: usize = 4;
/// Fixed-point scale: block values are mapped to integers `< 2^SCALE_BITS`.
/// The lifting transform grows magnitudes by at most 2 bits, so
/// coefficients stay below `2^62` and negabinary stays below `2^63`.
pub(crate) const SCALE_BITS: i32 = 60;
/// Guard bits between the tolerance and the bit-plane cutoff, absorbing
/// fixed-point rounding and inverse-transform error growth.
pub(crate) const GUARD_BITS: i32 = 4;
/// Bias applied to the per-block exponent when serialized (12 bits).
pub(crate) const EXP_BIAS: i32 = 1100;
const STREAM_MAGIC: u8 = 0xC2;

/// The ZFP-like fixed-accuracy codec. See the module docs.
#[derive(Debug, Clone, Copy)]
pub struct ZfpLike {
    tolerance: f64,
}

impl ZfpLike {
    /// Create a codec guaranteeing `max |x - x'| <= tolerance`.
    ///
    /// # Panics
    /// Panics if `tolerance` is not a finite positive number. (ZFP's
    /// reversible mode is out of scope; use [`crate::Fpc`] for lossless.)
    pub fn with_tolerance(tolerance: f64) -> Self {
        assert!(
            tolerance.is_finite() && tolerance > 0.0,
            "ZfpLike requires a finite positive tolerance, got {tolerance}"
        );
        Self { tolerance }
    }

    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }
}

/// `2^k` built directly from the exponent field. Exact and bit-identical
/// to `f64::powi(2.0, k)` for `|k| <= 1000` (powers of two are exact in
/// f64), but a shift instead of `__powidf2`'s multiply loop.
#[inline]
pub(crate) fn pow2(k: i32) -> f64 {
    debug_assert!((-1022..=1023).contains(&k));
    f64::from_bits(((k + 1023) as u64) << 52)
}

/// `x * 2^k` without intermediate overflow for any i32 `k`.
pub(crate) fn ldexp(x: f64, k: i32) -> f64 {
    // Split the shift so each factor stays within f64's exponent range.
    let half = k.clamp(-1000, 1000);
    let rest = k - half;
    let y = x * pow2(half);
    if rest == 0 {
        y
    } else {
        y * pow2(rest.clamp(-1000, 1000))
    }
}

/// frexp-style exponent: for finite non-zero `x`, the `e` with
/// `|x| = m * 2^e`, `0.5 <= m < 1`.
pub(crate) fn exponent(x: f64) -> i32 {
    debug_assert!(x != 0.0 && x.is_finite());
    let bits = x.abs().to_bits();
    let biased = ((bits >> 52) & 0x7FF) as i32;
    if biased == 0 {
        // Subnormal: renormalize by scaling up 64 binades.
        let scaled = x.abs() * f64::powi(2.0, 64);
        let b2 = ((scaled.to_bits() >> 52) & 0x7FF) as i32;
        b2 - 1022 - 64
    } else {
        biased - 1022
    }
}

/// ZFP's forward 4-point lifting transform (the "non-orthogonal
/// transform" of codec1.c):
///
/// ```text
///        ( 4  4  4  4) (x)
/// 1/16 * ( 5  1 -1 -5) (y)
///        (-4  4  4 -4) (z)
///        (-2  6 -6  2) (w)
/// ```
///
/// The output is sequency-ordered: x ≈ block mean, y ≈ slope,
/// z ≈ curvature, w ≈ third derivative — so smooth blocks concentrate
/// energy in the leading coefficients. Like ZFP's, the transform loses up
/// to one low-order bit per lifting step (the right shifts), which the
/// guard bits absorb.
#[inline]
pub(crate) fn transform_fwd(b: [i64; 4]) -> [i64; 4] {
    let [mut x, mut y, mut z, mut w] = b;
    x = x.wrapping_add(w);
    x >>= 1;
    w = w.wrapping_sub(x);
    z = z.wrapping_add(y);
    z >>= 1;
    y = y.wrapping_sub(z);
    x = x.wrapping_add(z);
    x >>= 1;
    z = z.wrapping_sub(x);
    w = w.wrapping_add(y);
    w >>= 1;
    y = y.wrapping_sub(w);
    w = w.wrapping_add(y >> 1);
    y = y.wrapping_sub(w >> 1);
    [x, y, z, w]
}

/// Inverse of [`transform_fwd`] (exact up to the forward shifts'
/// round-off, exactly as in ZFP's `inv_lift`).
#[inline]
pub(crate) fn transform_inv(c: [i64; 4]) -> [i64; 4] {
    let [mut x, mut y, mut z, mut w] = c;
    y = y.wrapping_add(w >> 1);
    w = w.wrapping_sub(y >> 1);
    y = y.wrapping_add(w);
    w = w.wrapping_shl(1);
    w = w.wrapping_sub(y);
    z = z.wrapping_add(x);
    x = x.wrapping_shl(1);
    x = x.wrapping_sub(z);
    y = y.wrapping_add(z);
    z = z.wrapping_shl(1);
    z = z.wrapping_sub(y);
    w = w.wrapping_add(x);
    x = x.wrapping_shl(1);
    x = x.wrapping_sub(w);
    [x, y, z, w]
}

/// Alternating-bit mask used by the negabinary mapping.
const NB_MASK: u64 = 0xAAAA_AAAA_AAAA_AAAA;

/// Signed → unsigned negabinary mapping (as in ZFP). Unlike zigzag,
/// truncating low bit planes of a negabinary number perturbs the signed
/// value by less than the weight of the lowest kept plane, which is what
/// makes embedded bit-plane truncation error-bounded.
#[inline]
pub(crate) fn int2uint(i: i64) -> u64 {
    (i as u64).wrapping_add(NB_MASK) ^ NB_MASK
}

/// Inverse of [`int2uint`].
#[inline]
pub(crate) fn uint2int(u: u64) -> i64 {
    ((u ^ NB_MASK).wrapping_sub(NB_MASK)) as i64
}

/// Tolerance mapped into the block's fixed-point scale.
pub(crate) fn int_tolerance(tolerance: f64, emax: i32) -> f64 {
    ldexp(tolerance, SCALE_BITS - emax)
}

/// Whether the block's dynamic range lets fixed-point coding honor the
/// tolerance. When the tolerance sits below the fixed-point resolution
/// (huge and tiny values sharing one block), the encoder escapes to a raw
/// block instead — real ZFP flushes such values and weakens its bound; we
/// keep the bound strict at the cost of 256 raw bits for that rare block.
pub(crate) fn transform_representable(tolerance: f64, emax: i32) -> bool {
    int_tolerance(tolerance, emax) >= f64::powi(2.0, GUARD_BITS)
}

/// Lowest bit plane kept, given the block exponent. Planes below carry
/// less than the tolerance (with guard bits for rounding and transform
/// error growth). Encoder and decoder must agree, so this is the single
/// source of truth: the encoder calls it per block (where
/// [`transform_representable`] holds), the decoder uses its closed form,
/// [`LaneReader::cutoff`], pinned equal for every exponent a stream can
/// name.
pub(crate) fn cutoff_plane(tolerance: f64, emax: i32) -> u32 {
    let int_tol = int_tolerance(tolerance, emax);
    // floor(log2(x)) for positive x is `exponent(x) - 1` (frexp puts the
    // mantissa in [0.5, 1)) — pure bit inspection where `log2().floor()`
    // was a libm call per block on the decode hot path. `exponent`'s
    // subnormal renormalization keeps the identity down to 2^-1074, and
    // an overflowed (infinite) `int_tol` reads as a huge exponent, which
    // the clamp pins to 62 exactly like the old saturating cast did.
    // A corrupt stream emax can push `int_tol` to 0 or infinity; mirror
    // the old `log2().floor() as i32` saturation at both ends.
    let p = if int_tol == 0.0 {
        i32::MIN
    } else if int_tol.is_finite() {
        exponent(int_tol) - 1 - GUARD_BITS
    } else {
        i32::MAX
    };
    p.clamp(0, 62) as u32
}

/// Blocks staged per batched run. One run's scratch (coefficients and
/// classes) stays cache-resident while the stages (classify + transform,
/// then serialize; parse, then reconstruct) each loop over it.
pub(crate) const RUN_BLOCKS: usize = 64;

/// Hoisted [`ldexp`] factors: `(x * a) * b` is bit-identical to
/// `ldexp(x, k)` for every finite `x` — the split and clamps match
/// exactly, and when the split has no remainder `b` is `1.0`, whose
/// multiplication is exact. Computing the pair once per block turns the
/// per-value scaling loop into two multiplies the autovectorizer can
/// handle.
#[inline]
pub(crate) fn scale_factors(k: i32) -> (f64, f64) {
    let half = k.clamp(-1000, 1000);
    let rest = k - half;
    let a = pow2(half);
    let b = if rest == 0 {
        1.0
    } else {
        pow2(rest.clamp(-1000, 1000))
    };
    (a, b)
}

/// Classify + fixed-point + forward-transform a run of blocks into `u`,
/// then serialize every block lane-major.
fn encode_run(
    w: &mut BitWriter,
    vals: &[[f64; BLOCK]],
    tolerance: f64,
    u: &mut [[u64; BLOCK]; RUN_BLOCKS],
    class: &mut [BlockClass; RUN_BLOCKS],
) -> Result<(), CodecError> {
    for (bi, block) in vals.iter().enumerate() {
        for &x in block {
            if !x.is_finite() {
                return Err(CodecError::Unsupported(format!(
                    "zfp-like cannot encode non-finite value {x}"
                )));
            }
        }
        let amax = block.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
        // A block whose magnitude is within tolerance reconstructs as zeros.
        if amax <= tolerance {
            class[bi] = BlockClass::AllZero;
            continue;
        }
        let emax = exponent(amax);
        if !transform_representable(tolerance, emax) {
            class[bi] = BlockClass::RawEscape;
            continue;
        }
        let (fa, fb) = scale_factors(SCALE_BITS - emax);
        let mut ints = [0i64; BLOCK];
        for (o, &x) in ints.iter_mut().zip(block) {
            *o = ((x * fa) * fb).round() as i64;
        }
        let coeffs = transform_fwd(ints);
        for (uk, &c) in u[bi].iter_mut().zip(&coeffs) {
            *uk = int2uint(c);
        }
        class[bi] = BlockClass::of_coefficients(&u[bi], emax, cutoff_plane(tolerance, emax));
    }

    for (bi, block) in vals.iter().enumerate() {
        lanes::encode_lanes(w, class[bi], block, &u[bi]);
    }
    Ok(())
}

/// The values of one decoded block: the one transform-and-scale body
/// every block of a stream goes through.
#[inline(always)]
fn block_values(class: DecodedClass, ub: &[u64; BLOCK]) -> [f64; BLOCK] {
    match class {
        DecodedClass::Zero => [0.0; BLOCK],
        DecodedClass::Raw => ub.map(f64::from_bits),
        DecodedClass::Coded { emax } => {
            let ints = transform_inv(ub.map(uint2int));
            let (fa, fb) = scale_factors(emax - SCALE_BITS);
            ints.map(|iv| (iv as f64 * fa) * fb)
        }
    }
}

/// Decode the body of a stream (`start_bit` is just past its header)
/// straight into `out`, staging runs of whole blocks: parse a run's
/// lanes, then write each block's values ([`block_values`]) through a
/// fixed-size `[_; 4]`. Only the stream's last block, when `out` ends
/// inside it, is decoded into a scratch block and its leading values
/// copied out.
fn decode_stream_into<T: Slot>(
    bytes: &[u8],
    start_bit: usize,
    tolerance: f64,
    out: &mut [T],
) -> Result<(), CodecError> {
    let mut r = LaneReader::new(bytes, start_bit, tolerance);
    let mut u = [[0u64; BLOCK]; RUN_BLOCKS];
    let mut class = [DecodedClass::Zero; RUN_BLOCKS];
    let whole = out.len() / BLOCK * BLOCK;
    let (blocks, tail) = out.split_at_mut(whole);
    for run in blocks.chunks_mut(RUN_BLOCKS * BLOCK) {
        let nb = run.len() / BLOCK;
        for (ub, cls) in u.iter_mut().zip(class.iter_mut()).take(nb) {
            *cls = r.decode_lanes(ub)?;
        }
        for ((dst, ub), &cls) in run.chunks_exact_mut(BLOCK).zip(&u).zip(&class) {
            let dst: &mut [T; BLOCK] = dst.try_into().expect("a whole block");
            for (o, v) in dst.iter_mut().zip(block_values(cls, ub)) {
                o.put(v);
            }
        }
    }
    if !tail.is_empty() {
        let ub = &mut u[0];
        let values = block_values(r.decode_lanes(ub)?, ub);
        for (o, v) in tail.iter_mut().zip(values) {
            o.put(v);
        }
    }
    Ok(())
}

/// Parse and validate the stream header, returning the stream tolerance.
fn read_stream_header(r: &mut BitReader<'_>) -> Result<f64, CodecError> {
    let magic = r.read_bits(8)? as u8;
    let version = r.read_bits(8)? as u8;
    if magic != STREAM_MAGIC {
        return Err(CodecError::Corrupt("bad zfp-like magic".into()));
    }
    lanes::check_stream_version("zfp-like", version)?;
    let tolerance = f64::from_bits(r.read_bits(64)?);
    if !(tolerance.is_finite() && tolerance > 0.0) {
        return Err(CodecError::Corrupt("bad tolerance in stream".into()));
    }
    Ok(tolerance)
}

/// Decode a whole stream, header first, into `out`.
fn decode<T: Slot>(bytes: &[u8], out: &mut [T]) -> Result<(), CodecError> {
    let mut r = BitReader::new(bytes);
    let tolerance = read_stream_header(&mut r)?;
    decode_stream_into(bytes, r.position(), tolerance, out)
}

impl Codec for ZfpLike {
    fn name(&self) -> &'static str {
        "zfp-like"
    }

    fn compress(&self, data: &[f64]) -> Result<Vec<u8>, CodecError> {
        let mut w = BitWriter::new();
        w.write_bits(STREAM_MAGIC as u64, 8);
        w.write_bits(STREAM_VERSION as u64, 8);
        w.write_bits(self.tolerance.to_bits(), 64);

        let mut vals = [[0.0f64; BLOCK]; RUN_BLOCKS];
        let mut u = [[0u64; BLOCK]; RUN_BLOCKS];
        let mut class = [BlockClass::AllZero; RUN_BLOCKS];
        let mut i = 0;
        while i < data.len() {
            let mut nb = 0;
            while nb < RUN_BLOCKS && i < data.len() {
                let take = (data.len() - i).min(BLOCK);
                let block = &mut vals[nb];
                block[..take].copy_from_slice(&data[i..i + take]);
                // Pad a trailing partial block by repeating its last value
                // so padding never inflates the block exponent.
                for k in take..BLOCK {
                    block[k] = block[take - 1];
                }
                i += take;
                nb += 1;
            }
            encode_run(&mut w, &vals[..nb], self.tolerance, &mut u, &mut class)?;
        }
        Ok(w.into_bytes())
    }

    fn decompress(&self, bytes: &[u8], n: usize) -> Result<Vec<f64>, CodecError> {
        let mut out = vec![0.0f64; n];
        self.decompress_into(bytes, &mut out)?;
        Ok(out)
    }

    fn decompress_into(&self, bytes: &[u8], out: &mut [f64]) -> Result<(), CodecError> {
        decode(bytes, out)
    }

    fn decompress_uninit(
        &self,
        bytes: &[u8],
        out: &mut [MaybeUninit<f64>],
    ) -> Result<(), CodecError> {
        decode(bytes, out)
    }

    fn is_lossless(&self) -> bool {
        false
    }

    fn error_bound(&self) -> f64 {
        self.tolerance
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_err(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
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

    #[test]
    fn block_transform_inverts_up_to_lifting_roundoff() {
        // ZFP's lifting transform loses at most a few low-order bits to
        // the forward right shifts; the inverse must reproduce the block
        // within that tiny budget.
        for b in [
            [0i64, 0, 0, 0],
            [1, -2, 3, -4],
            [1 << 59, -(1 << 59), 1 << 58, -(1 << 58)],
            [7, 7, 7, 7],
            [123456789, 123456790, 123456791, 123456792],
        ] {
            let back = transform_inv(transform_fwd(b));
            for (orig, rec) in b.iter().zip(&back) {
                assert!(
                    (orig - rec).abs() <= 4,
                    "lift roundoff too large: {b:?} -> {back:?}"
                );
            }
        }
    }

    #[test]
    fn transform_annihilates_polynomial_trends() {
        // Linear ramp: slope lands in y, curvature/3rd-derivative
        // coefficients must be (near-)zero. This is what makes the codec
        // reward smooth data.
        let b = [1000i64, 2000, 3000, 4000];
        let c = transform_fwd(b);
        assert!(c[2].abs() <= 2, "curvature of a ramp should vanish: {c:?}");
        assert!(c[3].abs() <= 2, "3rd deriv of a ramp should vanish: {c:?}");
        // Constant block: everything but the mean vanishes.
        let c = transform_fwd([5000, 5000, 5000, 5000]);
        assert_eq!(&c[1..], &[0, 0, 0]);
    }

    #[test]
    fn negabinary_roundtrip() {
        for i in [0i64, 1, -1, 42, -42, i64::MAX / 4, i64::MIN / 4] {
            assert_eq!(uint2int(int2uint(i)), i);
        }
        // Small magnitudes stay small.
        assert_eq!(int2uint(0), 0);
        assert_eq!(int2uint(1), 1);
        assert_eq!(int2uint(-1), 3);
        assert_eq!(int2uint(2), 6);
    }

    #[test]
    fn negabinary_truncation_error_is_bounded() {
        // Zeroing the low k planes must perturb the signed value by less
        // than 2^k — the property bit-plane truncation relies on.
        for &i in &[12345i64, -12345, 987654321, -987654321, 7, -8] {
            for k in 0..40u32 {
                let u = int2uint(i);
                let trunc = u >> k << k;
                let back = uint2int(trunc);
                assert!(
                    (i - back).abs() < 1i64 << k,
                    "i={i} k={k}: err {}",
                    (i - back).abs()
                );
            }
        }
    }

    #[test]
    fn exponent_matches_frexp_semantics() {
        assert_eq!(exponent(1.0), 1); // 1.0 = 0.5 * 2^1
        assert_eq!(exponent(0.5), 0);
        assert_eq!(exponent(0.75), 0);
        assert_eq!(exponent(4.0), 3);
        assert_eq!(exponent(-4.0), 3);
        assert_eq!(exponent(3e-320), exponent(3e-320)); // subnormal path runs
        let e = exponent(5e-324);
        assert!(ldexp(1.0, e) >= 5e-324);
    }

    #[test]
    fn ldexp_extremes() {
        assert_eq!(ldexp(1.0, 10), 1024.0);
        assert_eq!(ldexp(1024.0, -10), 1.0);
        assert_eq!(ldexp(1.0, -1074), 5e-324);
        assert!(ldexp(1.0, -1200) == 0.0);
    }

    #[test]
    fn roundtrip_respects_tolerance_random_data() {
        for &tol in &[1e-1, 1e-3, 1e-6, 1e-9, 1e-12] {
            let data = noise(1023, 10.0, 7);
            let codec = ZfpLike::with_tolerance(tol);
            let bytes = codec.compress(&data).unwrap();
            let back = codec.decompress(&bytes, data.len()).unwrap();
            assert_eq!(back.len(), data.len());
            let err = max_err(&data, &back);
            assert!(err <= tol, "tol {tol}: err {err} exceeds bound");
        }
    }

    #[test]
    fn roundtrip_mixed_magnitudes() {
        let mut data = noise(256, 1e6, 3);
        data.extend(noise(256, 1e-6, 4));
        data.extend([0.0, 0.0, 0.0, 0.0]);
        data.extend([1e300, -1e300, 1e-300, -1e-300]);
        let tol = 1e-3;
        let codec = ZfpLike::with_tolerance(tol);
        let back = codec
            .decompress(&codec.compress(&data).unwrap(), data.len())
            .unwrap();
        assert!(max_err(&data, &back) <= tol);
    }

    #[test]
    fn smooth_input_compresses_better_than_noise() {
        let n = 4096;
        let smooth: Vec<f64> = (0..n).map(|i| (i as f64 * 0.001).sin()).collect();
        let rough = noise(n, 1.0, 11);
        let codec = ZfpLike::with_tolerance(1e-6);
        let s = codec.compress(&smooth).unwrap().len();
        let r = codec.compress(&rough).unwrap().len();
        assert!(
            (s as f64) < 0.8 * r as f64,
            "smooth ({s} B) should beat noise ({r} B) clearly"
        );
    }

    #[test]
    fn near_zero_deltas_compress_extremely_well() {
        // This is the Canopus delta case: values near zero relative to the
        // tolerance should cost ~1 bit per block.
        let n = 4096;
        let deltas = noise(n, 1e-9, 5);
        let codec = ZfpLike::with_tolerance(1e-6);
        let bytes = codec.compress(&deltas).unwrap();
        assert!(
            bytes.len() < n / 8 + 32,
            "near-zero blocks should cost ~1 bit each, got {} bytes",
            bytes.len()
        );
    }

    #[test]
    fn tighter_tolerance_costs_more_bits() {
        let data = noise(2048, 1.0, 9);
        let loose = ZfpLike::with_tolerance(1e-2).compress(&data).unwrap();
        let tight = ZfpLike::with_tolerance(1e-10).compress(&data).unwrap();
        assert!(tight.len() > loose.len());
    }

    #[test]
    fn all_zero_input() {
        let data = vec![0.0; 100];
        let codec = ZfpLike::with_tolerance(1e-6);
        let bytes = codec.compress(&data).unwrap();
        assert!(bytes.len() <= 10 + 100 / 8 + 8);
        assert_eq!(codec.decompress(&bytes, 100).unwrap(), data);
    }

    #[test]
    fn partial_final_block() {
        for n in [1, 2, 3, 5, 6, 7, 9] {
            let data = noise(n, 5.0, n as u64);
            let codec = ZfpLike::with_tolerance(1e-8);
            let back = codec
                .decompress(&codec.compress(&data).unwrap(), n)
                .unwrap();
            assert_eq!(back.len(), n);
            assert!(max_err(&data, &back) <= 1e-8);
        }
    }

    #[test]
    fn empty_input() {
        let codec = ZfpLike::with_tolerance(1e-6);
        let bytes = codec.compress(&[]).unwrap();
        assert_eq!(codec.decompress(&bytes, 0).unwrap(), Vec::<f64>::new());
    }

    #[test]
    fn rejects_non_finite() {
        let codec = ZfpLike::with_tolerance(1e-6);
        assert!(codec.compress(&[1.0, f64::NAN]).is_err());
        assert!(codec.compress(&[f64::INFINITY]).is_err());
    }

    #[test]
    #[should_panic(expected = "positive tolerance")]
    fn rejects_zero_tolerance() {
        let _ = ZfpLike::with_tolerance(0.0);
    }

    #[test]
    fn rejects_corrupt_magic() {
        let codec = ZfpLike::with_tolerance(1e-6);
        let mut bytes = codec.compress(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        bytes[0] ^= 0xFF;
        assert!(codec.decompress(&bytes, 4).is_err());
    }

    #[test]
    fn rejects_truncated_stream() {
        let codec = ZfpLike::with_tolerance(1e-9);
        let data = noise(64, 1.0, 2);
        let bytes = codec.compress(&data).unwrap();
        assert!(codec.decompress(&bytes[..bytes.len() / 2], 64).is_err());
    }

    #[test]
    fn decode_uses_stream_tolerance_not_config() {
        // Compressing at 1e-6 and decompressing through a codec configured
        // differently must still honor the stream's own tolerance.
        let data = noise(128, 1.0, 8);
        let enc = ZfpLike::with_tolerance(1e-6);
        let bytes = enc.compress(&data).unwrap();
        let dec = ZfpLike::with_tolerance(1.0);
        let back = dec.decompress(&bytes, data.len()).unwrap();
        assert!(max_err(&data, &back) <= 1e-6);
    }

    #[test]
    fn decompress_into_matches_decompress() {
        let data = noise(301, 3.0, 17);
        let codec = ZfpLike::with_tolerance(1e-7);
        let bytes = codec.compress(&data).unwrap();
        let via_vec = codec.decompress(&bytes, data.len()).unwrap();
        let mut buf = vec![f64::NAN; data.len()];
        codec.decompress_into(&bytes, &mut buf).unwrap();
        assert_eq!(via_vec, buf);
    }

    #[test]
    fn constant_blocks_are_cheap() {
        let data = vec![123.456; 4096];
        let codec = ZfpLike::with_tolerance(1e-9);
        let bytes = codec.compress(&data).unwrap();
        // Constant block: one LL coefficient to store, every other lane a
        // zero length.
        assert!(
            bytes.len() < 4096 * 4,
            "constant data should compress >2x, got {} bytes",
            bytes.len()
        );
        let back = codec.decompress(&bytes, data.len()).unwrap();
        assert!(max_err(&data, &back) <= 1e-9);
    }
}
