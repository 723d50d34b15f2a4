//! FPC: lossless double-precision compression (Burtscher &
//! Ratanaworabhan, IEEE ToC 2009) — the paper's lossless comparator class.
//!
//! Each value is predicted twice — by an FCM (finite context method) hash
//! predictor on the value stream and a DFCM predictor on the difference
//! stream — the better prediction is XORed with the actual bits, and only
//! the non-zero tail bytes of the XOR are emitted together with a 4-bit
//! header (1 bit predictor selector + 3 bits leading-zero-byte count).
//! Like the original, a count of exactly 4 leading zero bytes is encoded
//! as 3 (the 3-bit field cannot represent all 9 counts and 4 is the rarest).
//!
//! Lossless: decompression reproduces input bit-exactly, including NaN
//! payloads, infinities and signed zeros.

use crate::error::CodecError;
use crate::{Codec, Slot};
use std::mem::MaybeUninit;

const STREAM_MAGIC: u8 = 0xC4;
const STREAM_VERSION: u8 = 1;
/// log2 of the predictor table size. 2^16 entries * 8 B = 512 KiB per
/// table, matching the mid-range configuration of the original paper.
const TABLE_BITS: u32 = 16;
const TABLE_SIZE: usize = 1 << TABLE_BITS;
const TABLE_MASK: u64 = (TABLE_SIZE - 1) as u64;

/// The FPC lossless codec. See the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fpc;

impl Fpc {
    pub fn new() -> Self {
        Self
    }
}

/// Shared predictor state; encoder and decoder must evolve identically.
struct Predictors {
    fcm: Vec<u64>,
    dfcm: Vec<u64>,
    fcm_hash: u64,
    dfcm_hash: u64,
    last: u64,
}

impl Predictors {
    fn new() -> Self {
        Self {
            fcm: vec![0; TABLE_SIZE],
            dfcm: vec![0; TABLE_SIZE],
            fcm_hash: 0,
            dfcm_hash: 0,
            last: 0,
        }
    }

    /// Restore the pristine all-zero state so one allocation serves
    /// every (de)compression on this thread.
    fn reset(&mut self) {
        self.fcm.fill(0);
        self.dfcm.fill(0);
        self.fcm_hash = 0;
        self.dfcm_hash = 0;
        self.last = 0;
    }

    /// Current predictions `(fcm_pred, dfcm_pred)`.
    #[inline]
    fn predict(&self) -> (u64, u64) {
        let fcm_pred = self.fcm[self.fcm_hash as usize];
        let dfcm_pred = self.dfcm[self.dfcm_hash as usize].wrapping_add(self.last);
        (fcm_pred, dfcm_pred)
    }

    /// Feed the actual value and advance both hash chains.
    #[inline]
    fn update(&mut self, bits: u64) {
        self.fcm[self.fcm_hash as usize] = bits;
        self.fcm_hash = ((self.fcm_hash << 6) ^ (bits >> 48)) & TABLE_MASK;
        let delta = bits.wrapping_sub(self.last);
        self.dfcm[self.dfcm_hash as usize] = delta;
        self.dfcm_hash = ((self.dfcm_hash << 2) ^ (delta >> 40)) & TABLE_MASK;
        self.last = bits;
    }
}

thread_local! {
    /// The two 512 KiB predictor tables, allocated once per worker
    /// thread and zeroed between calls. FPC never nests (no codec calls
    /// another Fpc reentrantly), so the `RefCell` borrow is always free.
    static PREDICTOR_SCRATCH: std::cell::RefCell<Predictors> =
        std::cell::RefCell::new(Predictors::new());
}

/// Run `f` with this thread's freshly reset predictor state.
fn with_predictors<R>(f: impl FnOnce(&mut Predictors) -> R) -> R {
    PREDICTOR_SCRATCH.with(|cell| {
        let mut preds = cell.borrow_mut();
        preds.reset();
        f(&mut preds)
    })
}

/// Map a leading-zero-byte count (0..=8) to the 3-bit wire code.
#[inline]
fn lzb_to_code(lzb: u32) -> u8 {
    match lzb {
        0..=3 => lzb as u8,
        4 => 3, // the 4-case is folded into 3, as in the original FPC
        _ => (lzb - 1) as u8,
    }
}

/// Inverse of [`lzb_to_code`]: the number of zero bytes actually encoded.
#[inline]
fn code_to_lzb(code: u8) -> u32 {
    if code <= 3 {
        code as u32
    } else {
        code as u32 + 1
    }
}

impl Codec for Fpc {
    fn name(&self) -> &'static str {
        "fpc"
    }

    fn compress(&self, data: &[f64]) -> Result<Vec<u8>, CodecError> {
        with_predictors(|preds| self.compress_with(preds, data))
    }

    fn decompress(&self, bytes: &[u8], n: usize) -> Result<Vec<f64>, CodecError> {
        let mut out = vec![0.0; n];
        self.decompress_into(bytes, &mut out)?;
        Ok(out)
    }

    fn decompress_into(&self, bytes: &[u8], out: &mut [f64]) -> Result<(), CodecError> {
        with_predictors(|preds| self.decompress_with(preds, bytes, out))
    }

    fn decompress_uninit(
        &self,
        bytes: &[u8],
        out: &mut [MaybeUninit<f64>],
    ) -> Result<(), CodecError> {
        with_predictors(|preds| self.decompress_with(preds, bytes, out))
    }

    fn is_lossless(&self) -> bool {
        true
    }

    fn error_bound(&self) -> f64 {
        0.0
    }
}

impl Fpc {
    fn compress_with(&self, preds: &mut Predictors, data: &[f64]) -> Result<Vec<u8>, CodecError> {
        let mut headers = Vec::with_capacity(data.len().div_ceil(2));
        let mut residuals: Vec<u8> = Vec::with_capacity(data.len() * 4);

        let mut pending: Option<u8> = None;
        for &x in data {
            let bits = x.to_bits();
            let (fcm_pred, dfcm_pred) = preds.predict();
            let xor_fcm = bits ^ fcm_pred;
            let xor_dfcm = bits ^ dfcm_pred;
            let (selector, xor) = if xor_fcm.leading_zeros() >= xor_dfcm.leading_zeros() {
                (0u8, xor_fcm)
            } else {
                (1u8, xor_dfcm)
            };
            let lzb = (xor.leading_zeros() / 8).min(8);
            let code = lzb_to_code(lzb);
            let emitted_zeros = code_to_lzb(code); // <= lzb by construction
            let nibble = (selector << 3) | code;
            match pending.take() {
                None => pending = Some(nibble),
                Some(first) => headers.push((first << 4) | nibble),
            }
            // Emit the low (8 - emitted_zeros) bytes of the XOR, LSB first.
            let nbytes = 8 - emitted_zeros;
            let le = xor.to_le_bytes();
            residuals.extend_from_slice(&le[..nbytes as usize]);
            preds.update(bits);
        }
        if let Some(first) = pending {
            headers.push(first << 4);
        }

        let mut out = Vec::with_capacity(2 + headers.len() + residuals.len());
        out.push(STREAM_MAGIC);
        out.push(STREAM_VERSION);
        out.extend_from_slice(&(headers.len() as u64).to_le_bytes());
        out.extend_from_slice(&headers);
        out.extend_from_slice(&residuals);
        Ok(out)
    }

    /// The one decode loop behind both entry points.
    fn decompress_with<T: Slot>(
        &self,
        preds: &mut Predictors,
        bytes: &[u8],
        out: &mut [T],
    ) -> Result<(), CodecError> {
        let n = out.len();
        if bytes.len() < 10 {
            return Err(CodecError::Corrupt("fpc stream too short".into()));
        }
        if bytes[0] != STREAM_MAGIC {
            return Err(CodecError::Corrupt("bad fpc magic".into()));
        }
        if bytes[1] != STREAM_VERSION {
            return Err(CodecError::Corrupt(format!(
                "unsupported fpc version {}",
                bytes[1]
            )));
        }
        let header_len = u64::from_le_bytes(bytes[2..10].try_into().expect("8 bytes")) as usize;
        if header_len != n.div_ceil(2) {
            return Err(CodecError::Corrupt(format!(
                "fpc header block is {header_len} bytes, expected {}",
                n.div_ceil(2)
            )));
        }
        if 10 + header_len > bytes.len() {
            return Err(CodecError::Corrupt("fpc headers truncated".into()));
        }
        let headers = &bytes[10..10 + header_len];
        let mut residuals = &bytes[10 + header_len..];

        for (i, o) in out.iter_mut().enumerate() {
            let byte = headers[i / 2];
            let nibble = if i % 2 == 0 { byte >> 4 } else { byte & 0x0F };
            let selector = (nibble >> 3) & 1;
            let code = nibble & 0x07;
            let zeros = code_to_lzb(code);
            let nbytes = (8 - zeros) as usize;
            if residuals.len() < nbytes {
                return Err(CodecError::Corrupt("fpc residuals truncated".into()));
            }
            let mut le = [0u8; 8];
            le[..nbytes].copy_from_slice(&residuals[..nbytes]);
            residuals = &residuals[nbytes..];
            let xor = u64::from_le_bytes(le);

            let (fcm_pred, dfcm_pred) = preds.predict();
            let pred = if selector == 0 { fcm_pred } else { dfcm_pred };
            let bits = pred ^ xor;
            o.put(f64::from_bits(bits));
            preds.update(bits);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn roundtrip_is_bit_exact() {
        let mut data = noise(3000, 1e5, 1);
        data.extend([0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY]);
        data.push(f64::from_bits(0x7FF8_0000_0000_1234)); // NaN w/ payload
        data.push(5e-324); // min subnormal
        let codec = Fpc::new();
        let bytes = codec.compress(&data).unwrap();
        let back = codec.decompress(&bytes, data.len()).unwrap();
        assert_eq!(back.len(), data.len());
        for (a, b) in data.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits(), "bit-exact roundtrip required");
        }
    }

    #[test]
    fn lzb_code_mapping() {
        for lzb in 0..=8u32 {
            let code = lzb_to_code(lzb);
            assert!(code < 8);
            let back = code_to_lzb(code);
            assert!(back <= lzb, "decoded zero count must not exceed actual");
            if lzb != 4 {
                assert_eq!(back, lzb);
            } else {
                assert_eq!(back, 3);
            }
        }
    }

    #[test]
    fn repetitive_data_compresses() {
        // Linear ramps are DFCM's best case.
        let data: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
        let codec = Fpc::new();
        let bytes = codec.compress(&data).unwrap();
        assert!(
            bytes.len() < data.len() * 8 / 2,
            "ramp should compress >2x, got {} of {}",
            bytes.len(),
            data.len() * 8
        );
    }

    #[test]
    fn random_mantissas_do_not_explode() {
        let data = noise(4096, 1.0, 77);
        let codec = Fpc::new();
        let bytes = codec.compress(&data).unwrap();
        // Worst case per pair: 1 header byte + 16 residual bytes.
        assert!(bytes.len() <= 10 + data.len() / 2 + data.len() * 8 + 8);
    }

    #[test]
    fn odd_and_small_counts() {
        let codec = Fpc::new();
        for n in [0usize, 1, 2, 3, 7] {
            let data = noise(n, 3.0, n as u64 + 1);
            let bytes = codec.compress(&data).unwrap();
            let back = codec.decompress(&bytes, n).unwrap();
            assert_eq!(
                data.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                back.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn rejects_corruption() {
        let codec = Fpc::new();
        let data = noise(100, 1.0, 5);
        let bytes = codec.compress(&data).unwrap();
        assert!(codec.decompress(&bytes[..5], 100).is_err());
        let mut bad = bytes.clone();
        bad[0] = 0;
        assert!(codec.decompress(&bad, 100).is_err());
        // Wrong n vs header length (99 shares a header byte count with
        // 100, so use 98 which does not).
        assert!(codec.decompress(&bytes, 98).is_err());
    }

    #[test]
    fn scratch_reset_keeps_repeated_calls_bit_identical() {
        // The thread-local predictor tables must come back pristine:
        // compressing A, then B, then A again must give byte-identical
        // streams for the two A runs, and decompression likewise.
        let a = noise(2000, 1e4, 11);
        let b = noise(1500, 1e-3, 22);
        let codec = Fpc::new();
        let first = codec.compress(&a).unwrap();
        let _ = codec.compress(&b).unwrap();
        let again = codec.compress(&a).unwrap();
        assert_eq!(first, again);
        let d1 = codec.decompress(&first, a.len()).unwrap();
        let _ = codec
            .decompress(&codec.compress(&b).unwrap(), b.len())
            .unwrap();
        let d2 = codec.decompress(&first, a.len()).unwrap();
        assert_eq!(
            d1.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            d2.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn decompress_into_matches_decompress() {
        let data = noise(777, 2.0, 9);
        let codec = Fpc::new();
        let bytes = codec.compress(&data).unwrap();
        let via_vec = codec.decompress(&bytes, data.len()).unwrap();
        let mut via_into = vec![0.0; data.len()];
        codec.decompress_into(&bytes, &mut via_into).unwrap();
        assert_eq!(
            via_vec.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            via_into.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn zeros_are_nearly_free() {
        let data = vec![0.0f64; 10_000];
        let codec = Fpc::new();
        let bytes = codec.compress(&data).unwrap();
        // All-zero: predictor hits after warmup, 8 leading zero bytes,
        // so ~0.5 byte/value of headers only.
        assert!(bytes.len() < 6000, "got {}", bytes.len());
    }
}
