//! Lane-major block serialization for the ZFP-like codec.
//!
//! The codec reduces a block to `LANES` negabinary coefficients `u_k`
//! and a cutoff plane; what is stored is `q_k = u_k >> cutoff`. This
//! module owns how a block's `q_k` are laid out in the stream (4 lanes
//! for [`crate::ZfpLike`]; the layout itself takes up to 16):
//!
//! ```text
//! 1                                  all-zero block
//! 0 1  LANES x 64 raw bits           raw escape (verbatim f64 bits)
//! 0 0  emax:12  nmax:6  lengths  lane 0 | lane 1 | ...
//! ```
//!
//! `nmax` is the bit length of the widest `q_k` (1..=63). The length
//! field adapts to it, so loose tolerances do not pay four bits a lane:
//!
//! * `nmax <= 15`: each lane's bit length `n_k` (0..=nmax) in
//!   `bitlen(nmax)` bits;
//! * `nmax >= 16`: four bits of `nmax - n_k` a lane, where 14 means "the
//!   low `nmax - 14` bits follow verbatim" and 15 means "lane is zero".
//!
//! Then every lane's bits below its implicit top bit, lanes in order —
//! `n_k - 1` bits for a lane of length `n_k >= 1`, nothing for a zero
//! lane. All lengths sit in front of the payload, so a block decodes from
//! one header window and one masked read per lane at prefix-summed
//! offsets: no per-plane step and no branch that depends on a bit read
//! one step earlier, which is what bounded the group-tested bit-plane
//! coding this replaces (stream version 1). The price is the embedded
//! property: a block can no longer be cut short at an arbitrary bit.
//!
//! Decoding has two paths over one body. While a worst-case block still
//! fits in front of the cursor, every load is a plain 8-byte read and
//! nothing is checked per field; within that distance of the end (and so
//! for any truncated stream) loads are zero-padded and the block's end is
//! checked against the buffer before the cursor moves. Both reject
//! `nmax = 0`, `nmax + cutoff > 64` and `n_k > nmax`.

use crate::bitstream::BitWriter;
use crate::error::CodecError;
use crate::zfp_like::{exponent, EXP_BIAS, GUARD_BITS, SCALE_BITS};

/// The stream version the codec writes. Version 1 was group-tested bit
/// planes; 2 is the lane-major blocks of this module.
pub(crate) const STREAM_VERSION: u8 = 2;

/// Accept [`STREAM_VERSION`] only; version 1 is named as what it was.
pub(crate) fn check_stream_version(codec: &str, version: u8) -> Result<(), CodecError> {
    match version {
        STREAM_VERSION => Ok(()),
        1 => Err(CodecError::Corrupt(format!(
            "{codec} stream version 1 (bit-plane coding) is a retired format"
        ))),
        v => Err(CodecError::Corrupt(format!(
            "unsupported {codec} version {v}"
        ))),
    }
}

/// Class bits + `emax` + `nmax`.
const HEADER_BITS: usize = 2 + 12 + 6;
/// Widest `nmax` whose lengths are stored directly; above it the field
/// holds `nmax - n_k` codes.
const DIRECT_NMAX: u32 = 15;
/// Length code: the lane's low `nmax - CODE_VERBATIM` bits follow as they
/// are (no implicit top bit).
const CODE_VERBATIM: u32 = 14;
/// Length code: the lane is zero.
const CODE_ZERO: u32 = 15;

/// Upper bound on the bits of one block (a coded block of 63-bit lanes;
/// a raw escape is shorter).
pub(crate) const fn worst_block_bits(lanes: usize) -> usize {
    HEADER_BITS + lanes * (4 + 63)
}

/// Per-block outcome of the classify/transform encode stage.
#[derive(Clone, Copy)]
pub(crate) enum BlockClass {
    /// Reconstructs as zeros: magnitude within tolerance, or nothing
    /// survives the cutoff plane.
    AllZero,
    /// Dynamic range too wide for fixed-point at this tolerance; the
    /// block is stored verbatim (bit-exact).
    RawEscape,
    /// Lane-major payload of `u_k >> cutoff`, the widest `nmax` bits.
    Coded { emax: i32, cutoff: u32, nmax: u32 },
}

impl BlockClass {
    /// Class of a transformed block whose coefficients are `u`: coded,
    /// unless nothing survives the cutoff.
    #[inline]
    pub(crate) fn of_coefficients(u: &[u64], emax: i32, cutoff: u32) -> Self {
        let all = u.iter().fold(0, |a, &b| a | b);
        let nmax = bitlen(all >> cutoff);
        match nmax {
            // Everything the tolerance allows us to keep is zero.
            0 => BlockClass::AllZero,
            // The lifting transform does not expand the 60-bit fixed-point
            // range past 63 negabinary bits; were it ever to, verbatim
            // storage is the answer that cannot be wrong.
            64 => BlockClass::RawEscape,
            _ => BlockClass::Coded { emax, cutoff, nmax },
        }
    }
}

/// Per-block outcome of the parse decode stage. For `Raw`, the scratch
/// coefficients hold the verbatim f64 bits.
#[derive(Clone, Copy)]
pub(crate) enum DecodedClass {
    Zero,
    Raw,
    Coded { emax: i32 },
}

#[inline]
fn bitlen(v: u64) -> u32 {
    64 - v.leading_zeros()
}

#[inline]
fn low_mask(n: u32) -> u64 {
    debug_assert!(n < 64);
    (1u64 << n) - 1
}

/// Bits of a lane in one length-field entry.
#[inline]
fn length_width(nmax: u32) -> u32 {
    if nmax <= DIRECT_NMAX {
        bitlen(nmax as u64)
    } else {
        4
    }
}

/// The payload bit count (0..=62) of a [`LANE_SHAPES`] entry.
const SHAPE_PAYLOAD: u8 = 0x3F;
/// Set in a [`LANE_SHAPES`] entry no encoder writes: a direct length
/// above `nmax`.
const SHAPE_INVALID: u8 = 1 << 7;
/// Set in a [`LANE_SHAPES`] entry whose lane has an implicit top bit
/// (just above its payload).
const SHAPE_TOP: u8 = 1 << 6;

/// `LANE_SHAPES[nmax][field]`: what a lane's length field means in a
/// block of width `nmax` — its payload bits (0..=62) plus the two flags.
static LANE_SHAPES: [[u8; 16]; 64] = {
    let mut t = [[SHAPE_INVALID; 16]; 64];
    let mut nmax = 1;
    while nmax < 64 {
        let direct = nmax <= DIRECT_NMAX as usize;
        let mut field = 0;
        while field < 16 {
            let n = if direct { field } else { nmax - field };
            if direct && n > nmax {
                // No lane is wider than its block.
            } else if n == 0 || (!direct && field == CODE_ZERO as usize) {
                t[nmax][field] = 0;
            } else if !direct && field == CODE_VERBATIM as usize {
                t[nmax][field] = n as u8;
            } else {
                t[nmax][field] = (n - 1) as u8 | SHAPE_TOP;
            }
            field += 1;
        }
        nmax += 1;
    }
    t
};

/// `SHAPE_BITS[shape & 0x7F]`: the payload mask and the implicit top bit
/// of a lane shape — two loads where the baseline x86-64 target would
/// spend two variable shifts (three micro-ops each without BMI2).
static SHAPE_BITS: [[u64; 2]; 128] = {
    let mut t = [[0u64; 2]; 128];
    let mut shape = 0;
    while shape < 128 {
        let payload = shape & SHAPE_PAYLOAD as usize;
        t[shape] = [(1u64 << payload) - 1, ((shape >> 6) as u64) << payload];
        shape += 1;
    }
    t
};

/// Serialize one classified block: `vals` are its values (stored only by
/// a raw escape), `u` its negabinary coefficients (read only when coded).
pub(crate) fn encode_lanes<const LANES: usize>(
    w: &mut BitWriter,
    class: BlockClass,
    vals: &[f64; LANES],
    u: &[u64; LANES],
) {
    let (emax, cutoff, nmax) = match class {
        BlockClass::AllZero => return w.write_bit(true),
        BlockClass::RawEscape => {
            w.reserve_bits(2 + LANES * 64);
            w.write_reserved(0b10, 2);
            for &x in vals {
                w.write_reserved(x.to_bits(), 64);
            }
            return;
        }
        BlockClass::Coded { emax, cutoff, nmax } => (emax, cutoff, nmax),
    };
    debug_assert!((1..64).contains(&nmax) && nmax + cutoff <= 64);
    w.reserve_bits(worst_block_bits(LANES));
    let header = (((emax + EXP_BIAS) as u64) << 2) | ((nmax as u64) << 14);
    w.write_reserved(header, HEADER_BITS as u32);

    // Length field first (at most 64 bits for 16 lanes), remembering how
    // many payload bits each lane contributes.
    let row = &LANE_SHAPES[nmax as usize];
    let width = length_width(nmax);
    let mut field = 0u64;
    let mut payload = [0u32; LANES];
    for (k, &uk) in u.iter().enumerate() {
        let n = bitlen(uk >> cutoff);
        let code = if nmax <= DIRECT_NMAX {
            n
        } else if n == 0 {
            CODE_ZERO
        } else {
            (nmax - n).min(CODE_VERBATIM)
        };
        field |= (code as u64) << (k as u32 * width);
        payload[k] = (row[code as usize] & SHAPE_PAYLOAD) as u32;
    }
    w.write_reserved(field, LANES as u32 * width);
    // `write_reserved` keeps the low `payload[k]` bits, which drops an
    // implicit top bit and is all of a verbatim lane.
    for (&uk, &n) in u.iter().zip(&payload) {
        w.write_reserved(uk >> cutoff, n);
    }
}

/// Cursor over the blocks of one stream.
pub(crate) struct LaneReader<'a> {
    bytes: &'a [u8],
    /// Read cursor in bits.
    pos: usize,
    /// `cutoff_plane(tolerance, emax) == (cut_base - emax).clamp(0, 62)`.
    cut_base: i32,
}

impl<'a> LaneReader<'a> {
    /// Read blocks of a stream coded at `tolerance`, starting `start_bit`
    /// bits into `bytes` (just past the stream header).
    pub(crate) fn new(bytes: &'a [u8], start_bit: usize, tolerance: f64) -> Self {
        debug_assert!(tolerance.is_finite() && tolerance > 0.0);
        Self {
            bytes,
            pos: start_bit,
            cut_base: exponent(tolerance) + SCALE_BITS - 1 - GUARD_BITS,
        }
    }

    /// Current cursor (bits from the start of the buffer).
    #[cfg(test)]
    pub(crate) fn position(&self) -> usize {
        self.pos
    }

    /// The cutoff plane of a block with exponent `emax`: the closed form
    /// of [`crate::zfp_like::cutoff_plane`] (scaling by a power of two
    /// shifts the exponent; underflow and overflow land on the clamp),
    /// so a block costs an add and a clamp, not two multiplies and a
    /// float inspection. Pinned equal over every exponent field by test.
    #[inline]
    pub(crate) fn cutoff(&self, emax: i32) -> u32 {
        (self.cut_base - emax).clamp(0, 62) as u32
    }

    /// Eight stream bytes from byte `p` as a little-endian word. `FAST`
    /// callers have established `p + 8 <= len`; otherwise bytes past the
    /// end read as zero.
    #[inline]
    fn load<const FAST: bool>(&self, p: usize) -> u64 {
        if FAST {
            return u64::from_le_bytes(self.bytes[p..p + 8].try_into().expect("8 bytes"));
        }
        let tail = self.bytes.get(p..).unwrap_or(&[]);
        let mut buf = [0u8; 8];
        let take = tail.len().min(8);
        buf[..take].copy_from_slice(&tail[..take]);
        u64::from_le_bytes(buf)
    }

    /// The stream from bit `at` on; the low 57 bits are valid.
    #[inline]
    fn window<const FAST: bool>(&self, at: usize) -> u64 {
        self.load::<FAST>(at >> 3) >> (at & 7)
    }

    /// All 64 stream bits from bit `at` on (a ninth byte supplies what
    /// the sub-byte offset shifts out).
    #[inline]
    fn word<const FAST: bool>(&self, at: usize) -> u64 {
        let p = at >> 3;
        let shift = (at & 7) as u32;
        let ninth = if FAST {
            self.bytes[p + 8]
        } else {
            self.bytes.get(p + 8).copied().unwrap_or(0)
        } as u64;
        (self.load::<FAST>(p) >> shift) | ((ninth << 1) << (63 - shift))
    }

    /// Parse the next block into `u` (every slot is written when the
    /// block is raw or coded).
    #[inline]
    pub(crate) fn decode_lanes<const LANES: usize>(
        &mut self,
        u: &mut [u64; LANES],
    ) -> Result<DecodedClass, CodecError> {
        // No load of a block starts past its last bit, and a load touches
        // nine bytes at most.
        if self.pos + worst_block_bits(LANES) + 72 <= self.bytes.len() * 8 {
            self.decode_block::<LANES, true>(u)
        } else {
            self.decode_block::<LANES, false>(u)
        }
    }

    #[inline]
    fn decode_block<const LANES: usize, const FAST: bool>(
        &mut self,
        u: &mut [u64; LANES],
    ) -> Result<DecodedClass, CodecError> {
        let header = self.window::<FAST>(self.pos);
        if header & 1 == 1 {
            return self.finish::<FAST>(self.pos + 1, DecodedClass::Zero);
        }
        if header & 2 == 2 {
            let mut at = self.pos + 2;
            for slot in u.iter_mut() {
                *slot = self.word::<FAST>(at);
                at += 64;
            }
            return self.finish::<FAST>(at, DecodedClass::Raw);
        }
        let emax = ((header >> 2) & 0xFFF) as i32 - EXP_BIAS;
        let nmax = ((header >> 14) & 0x3F) as u32;
        let cutoff = self.cutoff(emax);
        if nmax == 0 || nmax + cutoff > 64 {
            return Err(CodecError::Corrupt(format!(
                "block width {nmax} at cutoff plane {cutoff}"
            )));
        }
        let mut at = self.pos + HEADER_BITS;
        // The header window has 37 bits to spare: the whole length field
        // of a 4-lane block.
        let field = if HEADER_BITS + 4 * LANES <= 57 {
            header >> HEADER_BITS
        } else {
            self.word::<FAST>(at)
        };
        // One table row resolves both length-field forms, so the lanes
        // below run without a branch on what was just read.
        let row = &LANE_SHAPES[nmax as usize];
        let width = length_width(nmax);
        at += LANES * width as usize;
        let mut flags = 0;
        for (k, slot) in u.iter_mut().enumerate() {
            let shape = row[(field >> (k as u32 * width)) as usize & low_mask(width) as usize];
            flags |= shape;
            // An invalid shape reads as an empty lane; the block is
            // rejected below.
            let [mask, top] = SHAPE_BITS[(shape & 0x7F) as usize];
            // Only lanes past 57 bits need the ninth byte.
            let bits = if nmax <= 58 {
                self.window::<FAST>(at)
            } else {
                self.word::<FAST>(at)
            };
            *slot = (top | (bits & mask)) << cutoff;
            at += (shape & SHAPE_PAYLOAD) as usize;
        }
        if flags & SHAPE_INVALID != 0 {
            return Err(CodecError::Corrupt(format!(
                "lane wider than its block's {nmax} bits"
            )));
        }
        self.finish::<FAST>(at, DecodedClass::Coded { emax })
    }

    /// Move the cursor to the block's end — after checking, on the
    /// padded path, that the block ended inside the buffer.
    #[inline]
    fn finish<const FAST: bool>(
        &mut self,
        end: usize,
        class: DecodedClass,
    ) -> Result<DecodedClass, CodecError> {
        if !FAST && end > self.bytes.len() * 8 {
            return Err(CodecError::Corrupt("bitstream exhausted".into()));
        }
        self.pos = end;
        Ok(class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zfp_like::cutoff_plane;

    /// xorshift64: deterministic coefficients for the round-trip tests.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
    }

    /// A block whose widest coefficient has exactly `msb + 1` bits, the
    /// others anything from zero up to that.
    fn block<const LANES: usize>(rng: &mut Rng, msb: u32) -> [u64; LANES] {
        let mut u = [0u64; LANES];
        for slot in u.iter_mut() {
            let bits = rng.next() % (msb as u64 + 2);
            *slot = match bits {
                0 => 0,
                b => (rng.next() | 1 << 63) >> (64 - b),
            };
        }
        u[(rng.next() % LANES as u64) as usize] |= 1 << msb;
        u
    }

    /// Encode blocks over every `(cutoff, nmax)` pair, then decode them
    /// through the unchecked path (64 spare bytes behind the stream) and
    /// the padded one (none): both must return the coefficients with the
    /// planes below the cutoff cleared and stop on the same bit.
    fn roundtrip<const LANES: usize>(seed: u64) {
        let mut rng = Rng(seed);
        let mut w = BitWriter::new();
        let mut want = Vec::new();
        for cutoff in [0u32, 1, 7, 30, 62] {
            for msb in cutoff..63 {
                let u = block::<LANES>(&mut rng, msb);
                let class = BlockClass::of_coefficients(&u, 0, cutoff);
                assert!(
                    matches!(class, BlockClass::Coded { nmax, .. } if nmax == msb - cutoff + 1)
                );
                let before = w.len_bits();
                encode_lanes(&mut w, class, &[0.0; LANES], &u);
                assert!(w.len_bits() - before <= worst_block_bits(LANES));
                want.push((cutoff, u.map(|x| x >> cutoff << cutoff)));
            }
        }
        let exact = w.into_bytes();
        let mut spare = exact.clone();
        spare.resize(exact.len() + 2 * worst_block_bits(LANES) / 8, 0);

        // `cut_base - emax` is the cutoff while emax = 0 and it is <= 62.
        let reader = |bytes| LaneReader {
            bytes,
            pos: 0,
            cut_base: 0,
        };
        let (mut fast, mut padded) = (reader(&spare), reader(&exact));
        for (cutoff, u) in want {
            fast.cut_base = cutoff as i32;
            padded.cut_base = cutoff as i32;
            let (mut a, mut b) = ([0u64; LANES], [0u64; LANES]);
            let class = fast.decode_block::<LANES, true>(&mut a).unwrap();
            assert!(matches!(class, DecodedClass::Coded { emax: 0 }));
            padded.decode_block::<LANES, false>(&mut b).unwrap();
            assert_eq!(a, u);
            assert_eq!(b, u);
            assert_eq!(fast.position(), padded.position());
        }
        assert!(exact.len() * 8 - padded.position() < 8);
    }

    #[test]
    fn four_lanes_roundtrip_on_both_paths() {
        roundtrip::<4>(0x9E37_79B9_7F4A_7C15);
    }

    #[test]
    fn zero_and_raw_blocks_roundtrip() {
        let vals = [1e300, -1e-300, 0.0, -0.0];
        let mut w = BitWriter::new();
        encode_lanes(&mut w, BlockClass::AllZero, &vals, &[0; 4]);
        encode_lanes(&mut w, BlockClass::RawEscape, &vals, &[0; 4]);
        encode_lanes(&mut w, BlockClass::AllZero, &vals, &[0; 4]);
        assert_eq!(w.len_bits(), 1 + 2 + 256 + 1);
        let bytes = w.into_bytes();
        let mut r = LaneReader::new(&bytes, 0, 1e-6);
        let mut u = [7u64; 4];
        assert!(matches!(r.decode_lanes(&mut u), Ok(DecodedClass::Zero)));
        assert!(matches!(r.decode_lanes(&mut u), Ok(DecodedClass::Raw)));
        assert_eq!(u, vals.map(f64::to_bits));
        assert!(matches!(r.decode_lanes(&mut u), Ok(DecodedClass::Zero)));
        assert_eq!(r.position(), 260);
        // The stream's padding bits are zeros: a coded header cut short.
        assert!(r.decode_lanes(&mut u).is_err());
    }

    #[test]
    fn sixty_four_bit_coefficients_escape_to_raw() {
        let class = BlockClass::of_coefficients(&[1 << 63, 0, 0, 0], 0, 0);
        assert!(matches!(class, BlockClass::RawEscape));
        let class = BlockClass::of_coefficients(&[1 << 63, 0, 0, 0], 0, 1);
        assert!(matches!(class, BlockClass::Coded { nmax: 63, .. }));
        assert!(matches!(
            BlockClass::of_coefficients(&[7, 0, 1, 3], 0, 3),
            BlockClass::AllZero
        ));
    }

    #[test]
    fn every_shape_an_encoder_writes_is_valid_and_fits() {
        for nmax in 1..64u32 {
            for n in 0..=nmax {
                let code = if nmax <= DIRECT_NMAX {
                    n
                } else if n == 0 {
                    CODE_ZERO
                } else {
                    (nmax - n).min(CODE_VERBATIM)
                };
                assert!(code < 1 << length_width(nmax));
                let shape = LANE_SHAPES[nmax as usize][code as usize];
                assert_eq!(shape & SHAPE_INVALID, 0, "nmax {nmax} n {n}");
                let payload = (shape & SHAPE_PAYLOAD) as u32;
                if shape & SHAPE_TOP != 0 {
                    assert_eq!(payload + 1, n);
                } else {
                    assert!(payload >= n && (n == 0) == (payload == 0));
                }
            }
        }
        // Direct lengths above the block's width are the invalid entries.
        assert_eq!(LANE_SHAPES[5][6], SHAPE_INVALID);
        assert_eq!(LANE_SHAPES[0], [SHAPE_INVALID; 16]);
    }

    #[test]
    fn closed_form_cutoff_matches_cutoff_plane_for_every_exponent_field() {
        let tolerances = [
            5e-324,
            f64::MIN_POSITIVE,
            1e-300,
            1e-12,
            1.396_840_497_726_640_3e-4,
            0.75,
            1.0,
            3.0,
            1e6,
            1e300,
            f64::MAX,
        ];
        for tolerance in tolerances {
            let r = LaneReader::new(&[], 0, tolerance);
            for field in 0..4096 {
                let emax = field - EXP_BIAS;
                assert_eq!(
                    r.cutoff(emax),
                    cutoff_plane(tolerance, emax),
                    "tolerance {tolerance:e} emax {emax}"
                );
            }
        }
    }
}
