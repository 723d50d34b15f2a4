//! The version-1 reference coder: the scalar, per-bit group-tested
//! bit-plane kernel the ZFP-like codec shipped before blocks became
//! lane-major (stream version 2), moved here verbatim from
//! `zfp_like::oracle` together with the helpers it called, so the
//! reference shares no code with the crate but its public bit stream. The
//! new coder changes only how the truncated coefficients are serialized:
//! everything this decoder reconstructs, it must reconstruct bit for bit,
//! in streams that are no longer.
#![allow(dead_code)]

use canopus_compress::bitstream::{BitReader, BitWriter};
use canopus_compress::CodecError;

/// Fixed-point scale: block values are mapped to integers `< 2^SCALE_BITS`.
/// The lifting transform grows magnitudes by at most 2 bits, so
/// coefficients stay below `2^62` and negabinary stays below `2^63`.
const SCALE_BITS: i32 = 60;
/// Guard bits between the tolerance and the bit-plane cutoff, absorbing
/// fixed-point rounding and inverse-transform error growth.
const GUARD_BITS: i32 = 4;
/// Bias applied to the per-block exponent when serialized (12 bits).
const EXP_BIAS: i32 = 1100;
const STREAM_VERSION: u8 = 1;

/// `2^k` built directly from the exponent field. Exact and bit-identical
/// to `f64::powi(2.0, k)` for `|k| <= 1000` (powers of two are exact in
/// f64), but a shift instead of `__powidf2`'s multiply loop.
#[inline]
fn pow2(k: i32) -> f64 {
    debug_assert!((-1022..=1023).contains(&k));
    f64::from_bits(((k + 1023) as u64) << 52)
}

/// `x * 2^k` without intermediate overflow for any i32 `k`.
fn ldexp(x: f64, k: i32) -> f64 {
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
fn exponent(x: f64) -> i32 {
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
fn transform_fwd(b: [i64; 4]) -> [i64; 4] {
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
fn transform_inv(c: [i64; 4]) -> [i64; 4] {
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
fn int2uint(i: i64) -> u64 {
    (i as u64).wrapping_add(NB_MASK) ^ NB_MASK
}

/// Inverse of [`int2uint`].
#[inline]
fn uint2int(u: u64) -> i64 {
    ((u ^ NB_MASK).wrapping_sub(NB_MASK)) as i64
}

/// Tolerance mapped into the block's fixed-point scale.
fn int_tolerance(tolerance: f64, emax: i32) -> f64 {
    ldexp(tolerance, SCALE_BITS - emax)
}

/// Whether the block's dynamic range lets fixed-point coding honor the
/// tolerance. When the tolerance sits below the fixed-point resolution
/// (huge and tiny values sharing one block), the encoder escapes to a raw
/// block instead — real ZFP flushes such values and weakens its bound; we
/// keep the bound strict at the cost of 256 raw bits for that rare block.
fn transform_representable(tolerance: f64, emax: i32) -> bool {
    int_tolerance(tolerance, emax) >= f64::powi(2.0, GUARD_BITS)
}

/// The 1-D version-1 coder (`zfp_like::oracle` at its last release).
pub mod zfp_like {
    use super::*;

    /// Values per block (matches ZFP's 4^d with d = 1).
    const BLOCK: usize = 4;
    const STREAM_MAGIC: u8 = 0xC2;

    /// Parse and validate the stream header, returning the stream tolerance.
    fn read_stream_header(r: &mut BitReader<'_>) -> Result<f64, CodecError> {
        let magic = r.read_bits(8)? as u8;
        let version = r.read_bits(8)? as u8;
        if magic != STREAM_MAGIC {
            return Err(CodecError::Corrupt("bad zfp-like magic".into()));
        }
        if version != STREAM_VERSION {
            return Err(CodecError::Corrupt(format!(
                "unsupported zfp-like version {version}"
            )));
        }
        let tolerance = f64::from_bits(r.read_bits(64)?);
        if !(tolerance.is_finite() && tolerance > 0.0) {
            return Err(CodecError::Corrupt("bad tolerance in stream".into()));
        }
        Ok(tolerance)
    }

    // The oracle keeps the earliest helper implementations verbatim
    // (libm `log2` / `powi` forms): it is exactly the scalar kernel
    // version 1 first shipped with. These shadow the bit-inspection
    // versions in the parent module; the two forms are mathematically
    // equal for every tolerance the codec accepts.
    fn ldexp(x: f64, k: i32) -> f64 {
        let half = k.clamp(-1000, 1000);
        let rest = k - half;
        let y = x * f64::powi(2.0, half);
        if rest == 0 {
            y
        } else {
            y * f64::powi(2.0, rest.clamp(-1000, 1000))
        }
    }

    fn int_tolerance(tolerance: f64, emax: i32) -> f64 {
        ldexp(tolerance, SCALE_BITS - emax)
    }

    fn cutoff_plane(tolerance: f64, emax: i32) -> u32 {
        let int_tol = int_tolerance(tolerance, emax);
        debug_assert!(int_tol >= f64::powi(2.0, GUARD_BITS));
        let p = int_tol.log2().floor() as i32 - GUARD_BITS;
        p.clamp(0, 62) as u32
    }

    pub fn compress(data: &[f64], tolerance: f64) -> Result<Vec<u8>, CodecError> {
        let mut w = BitWriter::new();
        w.write_bits(STREAM_MAGIC as u64, 8);
        w.write_bits(STREAM_VERSION as u64, 8);
        w.write_bits(tolerance.to_bits(), 64);

        let mut i = 0;
        while i < data.len() {
            let mut block = [0.0f64; BLOCK];
            let take = (data.len() - i).min(BLOCK);
            block[..take].copy_from_slice(&data[i..i + take]);
            for k in take..BLOCK {
                block[k] = block[take - 1];
            }
            encode_block(&mut w, block, tolerance)?;
            i += BLOCK;
        }
        Ok(w.into_bytes())
    }

    pub fn decompress(bytes: &[u8], n: usize) -> Result<Vec<f64>, CodecError> {
        let mut r = BitReader::new(bytes);
        let tolerance = read_stream_header(&mut r)?;
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let block = decode_block(&mut r, tolerance)?;
            let take = (n - out.len()).min(BLOCK);
            out.extend_from_slice(&block[..take]);
        }
        Ok(out)
    }

    fn encode_block(w: &mut BitWriter, block: [f64; 4], tolerance: f64) -> Result<(), CodecError> {
        for &x in &block {
            if !x.is_finite() {
                return Err(CodecError::Unsupported(format!(
                    "zfp-like cannot encode non-finite value {x}"
                )));
            }
        }
        let amax = block.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
        if amax <= tolerance {
            w.write_bit(true);
            return Ok(());
        }
        let emax = exponent(amax);
        if !transform_representable(tolerance, emax) {
            w.write_bit(false);
            w.write_bit(true);
            for &x in &block {
                w.write_bits(x.to_bits(), 64);
            }
            return Ok(());
        }

        let scale = SCALE_BITS - emax;
        let mut ints = [0i64; 4];
        for (i, &x) in block.iter().enumerate() {
            ints[i] = ldexp(x, scale).round() as i64;
        }

        let coeffs = transform_fwd(ints);
        let u: [u64; 4] = [
            int2uint(coeffs[0]),
            int2uint(coeffs[1]),
            int2uint(coeffs[2]),
            int2uint(coeffs[3]),
        ];

        let all = u[0] | u[1] | u[2] | u[3];
        let cutoff = cutoff_plane(tolerance, emax);
        if all >> cutoff == 0 {
            w.write_bit(true);
            return Ok(());
        }
        let msb = 63 - all.leading_zeros();
        debug_assert!(msb >= cutoff);

        w.write_bit(false);
        w.write_bit(false);
        w.write_bits((emax + EXP_BIAS) as u64, 12);
        w.write_bits(msb as u64, 6);

        let mut sig = [false; BLOCK];
        for p in (cutoff..=msb).rev() {
            for k in 0..BLOCK {
                if sig[k] {
                    w.write_bit((u[k] >> p) & 1 == 1);
                }
            }
            let any = (0..BLOCK).any(|k| !sig[k] && (u[k] >> p) & 1 == 1);
            w.write_bit(any);
            if any {
                for k in 0..BLOCK {
                    if !sig[k] {
                        let bit = (u[k] >> p) & 1 == 1;
                        w.write_bit(bit);
                        if bit {
                            sig[k] = true;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn decode_block(r: &mut BitReader<'_>, tolerance: f64) -> Result<[f64; 4], CodecError> {
        if r.read_bit()? {
            return Ok([0.0; 4]);
        }
        if r.read_bit()? {
            let mut out = [0.0f64; 4];
            for o in &mut out {
                *o = f64::from_bits(r.read_bits(64)?);
            }
            return Ok(out);
        }
        let emax = r.read_bits(12)? as i32 - EXP_BIAS;
        let msb = r.read_bits(6)? as u32;
        let cutoff = cutoff_plane(tolerance, emax);
        if msb < cutoff {
            return Err(CodecError::Corrupt(format!(
                "msb plane {msb} below cutoff {cutoff}"
            )));
        }

        let mut u = [0u64; 4];
        let mut sig = [false; BLOCK];
        for p in (cutoff..=msb).rev() {
            for k in 0..BLOCK {
                if sig[k] && r.read_bit()? {
                    u[k] |= 1u64 << p;
                }
            }
            if r.read_bit()? {
                for k in 0..BLOCK {
                    if !sig[k] && r.read_bit()? {
                        u[k] |= 1u64 << p;
                        sig[k] = true;
                    }
                }
            }
        }

        let coeffs = [
            uint2int(u[0]),
            uint2int(u[1]),
            uint2int(u[2]),
            uint2int(u[3]),
        ];
        let ints = transform_inv(coeffs);
        let scale = emax - SCALE_BITS;
        let mut out = [0.0f64; 4];
        for (o, &i) in out.iter_mut().zip(&ints) {
            *o = ldexp(i as f64, scale);
        }
        Ok(out)
    }
}
