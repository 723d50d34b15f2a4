//! 2-D variant of the ZFP-like codec: 4×4 blocks for raster data.
//!
//! The paper's analytics rasterize mesh fields into pixel grids before
//! blob detection; rasters are also what visualization pipelines consume.
//! This codec extends the 1-D machinery of [`crate::zfp_like`] to 2-D
//! exactly as ZFP does: the 4-point lifting transform is applied along
//! rows then columns of each 4×4 block, coefficients are reordered by
//! total sequency (low-frequency first), mapped to negabinary and cut at
//! the tolerance's plane; the sixteen truncated coefficients are then
//! stored lane-major by the same coder ([`crate::lanes`], stream version
//! 2; the group-tested bit planes of version 1 are a retired format).
//!
//! Guarantee: `max |x - x'| <= tolerance`, with the same raw-block escape
//! as the 1-D codec for extreme dynamic range.

use crate::bitstream::{BitReader, BitWriter};
use crate::error::CodecError;
use crate::lanes::{self, BlockClass, DecodedClass, LaneReader, STREAM_VERSION};
use crate::zfp_like::{
    cutoff_plane, exponent, int2uint, scale_factors, transform_fwd, transform_inv,
    transform_representable, uint2int, RUN_BLOCKS, SCALE_BITS,
};
use crate::Codec;

const STREAM_MAGIC: u8 = 0xC5;
const BLOCK: usize = 16;

/// Total-sequency order of a 4×4 block's coefficients: `(row_freq +
/// col_freq)` ascending, matching ZFP's PERM table for d = 2. Index i of
/// this array gives the position in the 4×4 block (row-major).
const SEQUENCY: [usize; 16] = [0, 1, 4, 5, 2, 8, 6, 9, 3, 12, 10, 7, 13, 11, 14, 15];

/// The 2-D ZFP-like fixed-accuracy codec. Element count alone does not
/// determine the grid, so the dimensions are part of the codec state.
#[derive(Debug, Clone, Copy)]
pub struct ZfpLike2d {
    tolerance: f64,
    width: usize,
    height: usize,
}

impl ZfpLike2d {
    /// Create a codec for `width x height` row-major rasters with the
    /// given absolute tolerance.
    ///
    /// # Panics
    /// Panics on a non-positive tolerance or an empty grid.
    pub fn new(width: usize, height: usize, tolerance: f64) -> Self {
        assert!(
            tolerance.is_finite() && tolerance > 0.0,
            "ZfpLike2d requires a finite positive tolerance"
        );
        assert!(width > 0 && height > 0, "grid must be non-empty");
        Self {
            tolerance,
            width,
            height,
        }
    }

    pub fn dims(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// Gather one 4×4 block starting at `(bx, by)` with edge replication.
    fn gather(&self, data: &[f64], bx: usize, by: usize) -> [f64; BLOCK] {
        let mut out = [0.0; BLOCK];
        for r in 0..4 {
            for c in 0..4 {
                let x = (bx + c).min(self.width - 1);
                let y = (by + r).min(self.height - 1);
                out[r * 4 + c] = data[y * self.width + x];
            }
        }
        out
    }

    /// Scatter a decoded block back, skipping replicated padding.
    fn scatter(&self, out: &mut [f64], block: &[f64; BLOCK], bx: usize, by: usize) {
        for r in 0..4 {
            for c in 0..4 {
                let x = bx + c;
                let y = by + r;
                if x < self.width && y < self.height {
                    out[y * self.width + x] = block[r * 4 + c];
                }
            }
        }
    }
}

/// Forward 2-D transform: lift rows, then columns.
fn transform2d_fwd(b: &mut [i64; BLOCK]) {
    for r in 0..4 {
        let row = [b[r * 4], b[r * 4 + 1], b[r * 4 + 2], b[r * 4 + 3]];
        let t = transform_fwd(row);
        b[r * 4..r * 4 + 4].copy_from_slice(&t);
    }
    for c in 0..4 {
        let col = [b[c], b[4 + c], b[8 + c], b[12 + c]];
        let t = transform_fwd(col);
        for r in 0..4 {
            b[r * 4 + c] = t[r];
        }
    }
}

/// Inverse of [`transform2d_fwd`]: columns, then rows.
fn transform2d_inv(b: &mut [i64; BLOCK]) {
    for c in 0..4 {
        let col = [b[c], b[4 + c], b[8 + c], b[12 + c]];
        let t = transform_inv(col);
        for r in 0..4 {
            b[r * 4 + c] = t[r];
        }
    }
    for r in 0..4 {
        let row = [b[r * 4], b[r * 4 + 1], b[r * 4 + 2], b[r * 4 + 3]];
        let t = transform_inv(row);
        b[r * 4..r * 4 + 4].copy_from_slice(&t);
    }
}

/// Classify + fixed-point + 2-D transform + sequency-reorder a run of
/// gathered blocks into `u`, then serialize each lane-major.
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
                    "zfp-like-2d cannot encode non-finite value {x}"
                )));
            }
        }
        let amax = block.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
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
        transform2d_fwd(&mut ints);

        // Sequency reorder + negabinary.
        let ub = &mut u[bi];
        for (uk, &pos) in ub.iter_mut().zip(&SEQUENCY) {
            *uk = int2uint(ints[pos]);
        }

        class[bi] = BlockClass::of_coefficients(ub, emax, cutoff_plane(tolerance, emax));
    }

    for (bi, block) in vals.iter().enumerate() {
        lanes::encode_lanes(w, class[bi], block, &u[bi]);
    }
    Ok(())
}

/// Parse a run of blocks. The reconstruction (inverse reorder +
/// transform + scale) happens in [`reconstruct_block`] per block so the
/// caller can scatter straight into the output raster.
fn parse_run(
    r: &mut LaneReader<'_>,
    nb: usize,
    u: &mut [[u64; BLOCK]; RUN_BLOCKS],
    class: &mut [DecodedClass; RUN_BLOCKS],
) -> Result<(), CodecError> {
    for (ub, cls) in u.iter_mut().zip(class.iter_mut()).take(nb) {
        *cls = r.decode_lanes(ub)?;
    }
    Ok(())
}

/// Reconstruct one parsed block's values from its scratch coefficients.
fn reconstruct_block(u: &[u64; BLOCK], class: DecodedClass) -> [f64; BLOCK] {
    let mut out = [0.0f64; BLOCK];
    match class {
        DecodedClass::Zero => {}
        DecodedClass::Raw => {
            for (o, &bits) in out.iter_mut().zip(u) {
                *o = f64::from_bits(bits);
            }
        }
        DecodedClass::Coded { emax } => {
            let mut ints = [0i64; BLOCK];
            for (&uk, &pos) in u.iter().zip(&SEQUENCY) {
                ints[pos] = uint2int(uk);
            }
            transform2d_inv(&mut ints);
            let (fa, fb) = scale_factors(emax - SCALE_BITS);
            for (o, &iv) in out.iter_mut().zip(&ints) {
                *o = (iv as f64 * fa) * fb;
            }
        }
    }
    out
}

impl Codec for ZfpLike2d {
    fn name(&self) -> &'static str {
        "zfp-like-2d"
    }

    fn compress(&self, data: &[f64]) -> Result<Vec<u8>, CodecError> {
        if data.len() != self.width * self.height {
            return Err(CodecError::BadConfig(format!(
                "data has {} samples for a {}x{} grid",
                data.len(),
                self.width,
                self.height
            )));
        }
        let mut w = BitWriter::new();
        w.write_bits(STREAM_MAGIC as u64, 8);
        w.write_bits(STREAM_VERSION as u64, 8);
        w.write_bits(self.tolerance.to_bits(), 64);
        w.write_bits(self.width as u64, 32);
        w.write_bits(self.height as u64, 32);

        let mut vals = [[0.0f64; BLOCK]; RUN_BLOCKS];
        let mut u = [[0u64; BLOCK]; RUN_BLOCKS];
        let mut class = [BlockClass::AllZero; RUN_BLOCKS];
        let mut nb = 0;
        let mut by = 0;
        while by < self.height {
            let mut bx = 0;
            while bx < self.width {
                vals[nb] = self.gather(data, bx, by);
                nb += 1;
                if nb == RUN_BLOCKS {
                    encode_run(&mut w, &vals[..nb], self.tolerance, &mut u, &mut class)?;
                    nb = 0;
                }
                bx += 4;
            }
            by += 4;
        }
        if nb > 0 {
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
        let n = out.len();
        let mut r = BitReader::new(bytes);
        if r.read_bits(8)? as u8 != STREAM_MAGIC {
            return Err(CodecError::Corrupt("bad zfp-like-2d magic".into()));
        }
        lanes::check_stream_version("zfp-like-2d", r.read_bits(8)? as u8)?;
        let tolerance = f64::from_bits(r.read_bits(64)?);
        if !(tolerance.is_finite() && tolerance > 0.0) {
            return Err(CodecError::Corrupt("bad tolerance in stream".into()));
        }
        let width = r.read_bits(32)? as usize;
        let height = r.read_bits(32)? as usize;
        if width != self.width || height != self.height {
            return Err(CodecError::Corrupt(format!(
                "stream is {width}x{height}, codec configured {}x{}",
                self.width, self.height
            )));
        }
        if n != width * height {
            return Err(CodecError::BadConfig(format!(
                "requested {n} samples from a {width}x{height} stream"
            )));
        }

        let mut r = LaneReader::new(bytes, r.position(), tolerance);
        let mut coords = [(0usize, 0usize); RUN_BLOCKS];
        let mut u = [[0u64; BLOCK]; RUN_BLOCKS];
        let mut class = [DecodedClass::Zero; RUN_BLOCKS];
        let mut nb = 0;
        let mut by = 0;
        while by < height {
            let mut bx = 0;
            while bx < width {
                coords[nb] = (bx, by);
                nb += 1;
                if nb == RUN_BLOCKS {
                    parse_run(&mut r, nb, &mut u, &mut class)?;
                    for bi in 0..nb {
                        let block = reconstruct_block(&u[bi], class[bi]);
                        self.scatter(out, &block, coords[bi].0, coords[bi].1);
                    }
                    nb = 0;
                }
                bx += 4;
            }
            by += 4;
        }
        if nb > 0 {
            parse_run(&mut r, nb, &mut u, &mut class)?;
            for bi in 0..nb {
                let block = reconstruct_block(&u[bi], class[bi]);
                self.scatter(out, &block, coords[bi].0, coords[bi].1);
            }
        }
        Ok(())
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

    fn image(w: usize, h: usize, mut f: impl FnMut(usize, usize) -> f64) -> Vec<f64> {
        let mut out = Vec::with_capacity(w * h);
        for y in 0..h {
            for x in 0..w {
                out.push(f(x, y));
            }
        }
        out
    }

    fn max_err(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn sequency_is_a_permutation() {
        let mut seen = [false; 16];
        for &p in &SEQUENCY {
            assert!(!seen[p], "duplicate {p}");
            seen[p] = true;
        }
        // Low-frequency corner first, high-frequency last.
        assert_eq!(SEQUENCY[0], 0);
        assert_eq!(SEQUENCY[15], 15);
    }

    #[test]
    fn transform2d_inverts_to_roundoff() {
        let mut b = [0i64; 16];
        for (i, v) in b.iter_mut().enumerate() {
            *v = (i as i64 * 977 - 7000) << 20;
        }
        let orig = b;
        transform2d_fwd(&mut b);
        transform2d_inv(&mut b);
        for (a, o) in b.iter().zip(&orig) {
            assert!((a - o).abs() <= 16, "roundoff too big: {a} vs {o}");
        }
    }

    #[test]
    fn roundtrip_respects_tolerance() {
        for &(w, h) in &[(16usize, 16usize), (17, 13), (4, 4), (5, 1), (1, 9)] {
            let data = image(w, h, |x, y| {
                ((x as f64) * 0.3).sin() * ((y as f64) * 0.2).cos() * 50.0
            });
            for &tol in &[1e-1, 1e-4, 1e-8] {
                let codec = ZfpLike2d::new(w, h, tol);
                let bytes = codec.compress(&data).unwrap();
                let back = codec.decompress(&bytes, data.len()).unwrap();
                let err = max_err(&data, &back);
                assert!(err <= tol, "{w}x{h} tol {tol}: err {err}");
            }
        }
    }

    #[test]
    fn smooth_images_beat_noise() {
        let w = 128;
        let h = 128;
        let smooth = image(w, h, |x, y| {
            ((x as f64) * 0.05).sin() + ((y as f64) * 0.04).cos()
        });
        let mut state = 12345u64;
        let noise = image(w, h, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        });
        let codec = ZfpLike2d::new(w, h, 1e-6);
        let s = codec.compress(&smooth).unwrap().len();
        let n = codec.compress(&noise).unwrap().len();
        assert!(
            (s as f64) < 0.7 * n as f64,
            "2-D decorrelation should shine on smooth images: {s} vs {n}"
        );
    }

    #[test]
    fn two_d_beats_one_d_on_images() {
        // The reason to have a 2-D codec at all.
        let w = 64;
        let h = 64;
        let data = image(w, h, |x, y| {
            ((x as f64) * 0.1).sin() * ((y as f64) * 0.12).cos() * 10.0
        });
        let c2 = ZfpLike2d::new(w, h, 1e-6);
        let c1 = crate::ZfpLike::with_tolerance(1e-6);
        let b2 = c2.compress(&data).unwrap().len();
        let b1 = c1.compress(&data).unwrap().len();
        assert!(
            (b2 as f64) < 0.9 * b1 as f64,
            "2-D ({b2} B) should beat 1-D ({b1} B) on images"
        );
    }

    #[test]
    fn wild_magnitudes_use_raw_escape() {
        let w = 8;
        let h = 4;
        let mut data = image(w, h, |x, y| (x + y) as f64);
        data[5] = 1e300;
        data[6] = 1e-300;
        let codec = ZfpLike2d::new(w, h, 1e-3);
        let back = codec
            .decompress(&codec.compress(&data).unwrap(), data.len())
            .unwrap();
        assert!(max_err(&data, &back) <= 1e-3);
    }

    #[test]
    fn rejects_bad_shapes_and_corruption() {
        let codec = ZfpLike2d::new(8, 8, 1e-6);
        assert!(codec.compress(&[0.0; 63]).is_err());
        let data = image(8, 8, |x, y| (x * y) as f64);
        let mut bytes = codec.compress(&data).unwrap();
        assert!(codec.decompress(&bytes, 63).is_err());
        bytes[0] ^= 0xFF;
        assert!(codec.decompress(&bytes, 64).is_err());
        // Dims mismatch across codecs.
        let other = ZfpLike2d::new(4, 16, 1e-6);
        let good = codec.compress(&data).unwrap();
        assert!(other.decompress(&good, 64).is_err());
    }

    #[test]
    #[should_panic(expected = "positive tolerance")]
    fn rejects_zero_tolerance() {
        ZfpLike2d::new(4, 4, 0.0);
    }

    #[test]
    fn rejects_non_finite() {
        let codec = ZfpLike2d::new(4, 4, 1e-6);
        let mut data = vec![0.0; 16];
        data[3] = f64::NAN;
        assert!(codec.compress(&data).is_err());
    }
}
