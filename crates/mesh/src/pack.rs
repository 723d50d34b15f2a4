//! Block bit-packing of `u32` sequences: the lossless integer layer of
//! the binary mesh format ([`crate::io`]) and of the stored fine → coarse
//! mapping.
//!
//! Each value is predicted by the value `STRIDE` places before it in its
//! sequence (zero before the start) and replaced by its *residual*: the
//! wrapping difference, zigzag-folded so that small differences of either
//! sign become small unsigned numbers. Folding is a bijection on `u32`,
//! so any sequence round-trips. Residuals are stored in blocks of up to
//! [`BLOCK`]: one width byte `w <= 32`, then every residual at `w` bits,
//! little-endian bit order, padded to a whole byte. A block whose
//! residuals are all zero costs its width byte alone; a block of
//! incompressible values costs one byte more than raw.
//!
//! Packer and unpacker carry the last `STRIDE` values from block to block
//! in a `history` the caller starts at zero. Blocks of several sequences
//! may be interleaved in one buffer, each sequence with its own history.

/// Values per block: the width adapts every 128 values, and the width
/// byte adds 0.2% to an incompressible sequence.
pub const BLOCK: usize = 128;

/// The residual of `value` against `predicted`.
#[inline]
fn fold(value: u32, predicted: u32) -> u32 {
    let d = value.wrapping_sub(predicted) as i32;
    ((d << 1) ^ (d >> 31)) as u32
}

/// The wrapping difference a residual stands for.
#[inline]
fn unfold(residual: u32) -> u32 {
    (residual >> 1) ^ (residual & 1).wrapping_neg()
}

/// Append the next block of a sequence, at most [`BLOCK`] values, to
/// `out`. A block before the sequence's last should hold a multiple of
/// `STRIDE` values, or the predictions after it fall out of step (the
/// round trip holds either way).
pub fn pack_block<const STRIDE: usize>(
    values: &[u32],
    history: &mut [u32; STRIDE],
    out: &mut Vec<u8>,
) {
    debug_assert!(values.len() <= BLOCK);
    let mut residuals = [0u32; BLOCK];
    for (i, (r, &v)) in residuals.iter_mut().zip(values).enumerate() {
        *r = fold(v, std::mem::replace(&mut history[i % STRIDE], v));
    }
    let residuals = &residuals[..values.len()];
    let width = 32 - residuals.iter().fold(0, |all, &r| all | r).leading_zeros();
    out.push(width as u8);
    if width == 0 {
        return;
    }
    // Fewer than 32 bits wait in `acc` between values, so a residual of
    // up to 32 bits always fits above them.
    let (mut acc, mut bits) = (0u64, 0u32);
    for &r in residuals {
        acc |= (r as u64) << bits;
        bits += width;
        if bits >= 32 {
            out.extend_from_slice(&(acc as u32).to_le_bytes());
            acc >>= 32;
            bits -= 32;
        }
    }
    out.extend_from_slice(&acc.to_le_bytes()[..bits.div_ceil(8) as usize]);
}

const TRUNCATED: &str = "packed data ends early";

/// A cursor over packed bytes that came off a tier: every read is
/// checked against what is left, and nothing here allocates.
pub struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len()
    }

    /// Everything not yet consumed.
    pub fn rest(self) -> &'a [u8] {
        self.bytes
    }

    /// The next `n` bytes as they are.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], &'static str> {
        let (head, rest) = self.bytes.split_at_checked(n).ok_or(TRUNCATED)?;
        self.bytes = rest;
        Ok(head)
    }

    pub fn u64(&mut self) -> Result<u64, &'static str> {
        let (head, rest) = self.bytes.split_first_chunk::<8>().ok_or(TRUNCATED)?;
        self.bytes = rest;
        Ok(u64::from_le_bytes(*head))
    }

    /// The next block of a sequence: `out.len() <= BLOCK` values. The
    /// passes are separate so that each is a loop the compiler can
    /// unroll or vectorise: cut the residuals out, unfold them, and run
    /// `STRIDE` independent sums over them.
    pub fn unpack_block<const STRIDE: usize>(
        &mut self,
        history: &mut [u32; STRIDE],
        out: &mut [u32],
    ) -> Result<(), &'static str> {
        debug_assert!(out.len() <= BLOCK);
        let (&width, rest) = self.bytes.split_first().ok_or(TRUNCATED)?;
        let width = width as usize;
        if width > 32 {
            return Err("packed block has a bit width above 32");
        }
        let need = (out.len() * width).div_ceil(8);
        if rest.len() < need {
            return Err(TRUNCATED);
        }
        if width == 0 {
            out.fill(0);
        } else if rest.len() >= need + 8 {
            // The eight bytes past the block are the next block's; they
            // only fill the window and are masked away.
            unpack(&rest[..need + 8], width, out);
        } else {
            // The last blocks of the buffer: give the window its slack.
            let mut tail = [0u8; BLOCK * 4 + 8];
            tail[..need].copy_from_slice(&rest[..need]);
            unpack(&tail[..need + 8], width, out);
        }
        self.bytes = &rest[need..];

        for r in out.iter_mut() {
            *r = unfold(*r);
        }
        // (`chunks_exact_mut`, with its fixed inner trip count, is what
        // keeps the sums in registers: `chunks_mut` ran 60% slower.)
        let sum = |values: &mut [u32], history: &mut [u32; STRIDE]| {
            for (v, h) in values.iter_mut().zip(history) {
                *h = h.wrapping_add(*v);
                *v = *h;
            }
        };
        let mut whole = out.chunks_exact_mut(STRIDE);
        for values in &mut whole {
            sum(values, history);
        }
        sum(whole.into_remainder(), history);
        Ok(())
    }
}

/// Extract `out.len()` values of `width` bits (1..=32) from `src`, which
/// holds them followed by at least eight more bytes: each value is cut
/// out of the unaligned 64-bit window that starts at its first byte.
/// Eight values fill `width` whole bytes, and such groups go through a
/// copy of the loop compiled for their width, where every offset and
/// shift is a constant.
fn unpack(src: &[u8], width: usize, out: &mut [u32]) {
    macro_rules! groups {
        ($($w:literal)*) => {
            match width {
                $($w => {
                    for (g, group) in out.chunks_exact_mut(8).enumerate() {
                        unpack_group::<$w>(&src[g * $w..], group);
                    }
                })*
                _ => unreachable!("width {width} was checked to be 1..=32"),
            }
        };
    }
    groups!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32);
    let whole = out.len() / 8 * 8;
    let mut bit = whole * width;
    for o in &mut out[whole..] {
        *o = window::<32>(&src[bit >> 3..], bit & 7) & (u32::MAX >> (32 - width));
        bit += width;
    }
}

#[inline(always)]
fn unpack_group<const W: usize>(src: &[u8], out: &mut [u32]) {
    let src = &src[..W + 8];
    let out: &mut [u32; 8] = out.try_into().expect("a group of 8");
    for (i, o) in out.iter_mut().enumerate() {
        *o = window::<W>(&src[(i * W) >> 3..], (i * W) & 7);
    }
}

/// The low `W` bits of the little-endian 64-bit word at the start of
/// `src`, shifted down by `shift < 8`.
#[inline(always)]
fn window<const W: usize>(src: &[u8], shift: usize) -> u32 {
    let word = u64::from_le_bytes(src[..8].try_into().expect("8 bytes"));
    ((word >> shift) & (u64::MAX >> (64 - W))) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pack `values` as one sequence and unpack it again, once alone in
    /// its buffer (the padded tail path) and once followed by other data
    /// (the in-place path).
    fn roundtrip<const STRIDE: usize>(values: &[u32]) -> Vec<u8> {
        let mut bytes = Vec::new();
        let mut history = [0; STRIDE];
        for block in values.chunks(BLOCK) {
            pack_block(block, &mut history, &mut bytes);
        }
        for slack in [0usize, 16] {
            let mut buf = bytes.clone();
            buf.extend(std::iter::repeat_n(0xA5, slack));
            let mut r = Reader::new(&buf);
            let mut back = vec![u32::MAX; values.len()];
            let mut history = [0; STRIDE];
            for block in back.chunks_mut(BLOCK) {
                r.unpack_block(&mut history, block).unwrap();
            }
            assert_eq!(back, values);
            assert_eq!(r.remaining(), slack);
        }
        bytes
    }

    #[test]
    fn every_width_and_length_roundtrips() {
        for width in 0..=32usize {
            // Steps of +-2^(width-2) from zero and back: the steps up
            // are residuals of exactly `width` bits.
            let (step, width) = match width {
                0 | 1 => (0, 0),
                w => (1u32 << (w - 2), w),
            };
            for n in [1usize, 7, 8, 9, 127, 128] {
                let values: Vec<u32> = (0..n).map(|i| [step, 0][i % 2]).collect();
                let bytes = roundtrip::<1>(&values);
                assert_eq!(bytes.len(), 1 + (n * width).div_ceil(8), "w{width} n{n}");
            }
        }
        assert!(roundtrip::<1>(&[]).is_empty());
    }

    #[test]
    fn strides_and_awkward_values_roundtrip() {
        let awkward = [
            0,
            u32::MAX,
            0,
            1 << 31,
            (1 << 31) - 1,
            u32::MAX - 1,
            7,
            7,
            0x3FF0_0000,
            0xBFF0_0000,
        ];
        let long: Vec<u32> = (0..1000u32)
            .map(|i| awkward[i as usize % awkward.len()] ^ i.wrapping_mul(0x9E37_79B9))
            .collect();
        for values in [
            &awkward[..],
            &long[..],
            &long[..BLOCK * 3],
            &long[..BLOCK + 1],
        ] {
            roundtrip::<1>(values);
            roundtrip::<2>(values);
            roundtrip::<3>(values);
        }
        // The prediction is the value STRIDE back: two interleaved ramps
        // are constant residuals at stride 2 and wide ones at stride 1.
        let ramps: Vec<u32> = (0..1024u32)
            .map(|i| if i % 2 == 0 { i } else { 1_000_000 + i })
            .collect();
        assert!(roundtrip::<2>(&ramps).len() * 3 < roundtrip::<1>(&ramps).len());
    }

    #[test]
    fn fold_keeps_small_differences_small() {
        assert_eq!(fold(7, 7), 0);
        assert_eq!(fold(8, 7), 2);
        assert_eq!(fold(6, 7), 1);
        assert_eq!(fold(0, u32::MAX), 2, "wrapping: one step up");
        for (value, predicted) in [(u32::MAX, 0), (0, u32::MAX), (1 << 31, 0), (5, 9)] {
            assert_eq!(
                predicted.wrapping_add(unfold(fold(value, predicted))),
                value
            );
        }
    }

    #[test]
    fn hostile_blocks_are_errors() {
        let mut h = [0];
        assert!(Reader::new(&[]).unpack_block(&mut h, &mut [0; 4]).is_err());
        let wide = [33, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
        assert!(
            Reader::new(&wide)
                .unpack_block(&mut h, &mut [0; 4])
                .is_err(),
            "width 33"
        );
        assert!(
            Reader::new(&[32, 1, 2, 3])
                .unpack_block(&mut h, &mut [0; 2])
                .is_err(),
            "8 bytes promised"
        );
        assert!(Reader::new(&[1, 2, 3]).u64().is_err());
        assert!(Reader::new(&[1, 2, 3]).raw(4).is_err());
    }
}
