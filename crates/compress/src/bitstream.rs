//! Bit-granular stream writer/reader.
//!
//! The ZFP-like codec and the Huffman coder both need sub-byte output.
//! Bits are packed LSB-first into little-endian u64 words, which keeps the
//! hot `write_bits`/`read_bits` paths branch-light (at most one word
//! boundary crossing per call).
//!
//! The lane-major block coder ([`crate::lanes`]) pre-sizes the word
//! buffer with [`BitWriter::reserve_bits`] once per block and then emits
//! its fields through [`BitWriter::write_reserved`], so the per-call grow
//! check disappears from the encode hot path. (Its decoder keeps a cursor
//! of its own over the same LSB-first layout.)

use crate::error::CodecError;

/// Append-only bit writer.
#[derive(Debug, Default)]
pub struct BitWriter {
    /// Backing words. May be sized ahead of `len` by [`Self::reserve_bits`];
    /// all words at and beyond the write cursor are zero, so writes only
    /// ever OR bits in.
    words: Vec<u64>,
    /// Number of bits written so far.
    len: usize,
}

impl BitWriter {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn len_bits(&self) -> usize {
        self.len
    }

    /// Pre-size the backing buffer so the next `n` bits can be written
    /// through [`Self::write_reserved`] without any grow checks.
    #[inline]
    pub fn reserve_bits(&mut self, n: usize) {
        let total_words = (self.len + n).div_ceil(64);
        if total_words > self.words.len() {
            self.words.resize(total_words, 0);
        }
    }

    /// Write a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        let word = self.len >> 6;
        if word >= self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[word] |= 1u64 << (self.len & 63);
        }
        self.len += 1;
    }

    /// Write the low `n` bits of `value` (LSB first). `n` may be 0..=64.
    #[inline]
    pub fn write_bits(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 64);
        if n == 0 {
            return;
        }
        let end_word = (self.len + n as usize - 1) >> 6;
        if end_word >= self.words.len() {
            self.words.resize(end_word + 1, 0);
        }
        self.write_reserved(value, n);
    }

    /// [`Self::write_bits`] without the grow check: the caller must have
    /// pre-sized the buffer via [`Self::reserve_bits`].
    #[inline]
    pub fn write_reserved(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 64);
        if n == 0 {
            return;
        }
        debug_assert!(
            (self.len + n as usize).div_ceil(64) <= self.words.len(),
            "write_reserved requires reserve_bits"
        );
        let value = if n == 64 {
            value
        } else {
            value & ((1u64 << n) - 1)
        };
        let word = self.len >> 6;
        let off = (self.len & 63) as u32;
        self.words[word] |= value << off;
        if off + n > 64 {
            // Spill the high part into the next word.
            self.words[word + 1] |= value >> (64 - off);
        }
        self.len += n as usize;
    }

    /// Finish and return the packed little-endian bytes (padded with zero
    /// bits to a whole byte). Words reserved beyond the write cursor are
    /// dropped.
    pub fn into_bytes(self) -> Vec<u8> {
        let nbytes = self.len.div_ceil(8);
        let mut out = Vec::with_capacity(nbytes);
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.truncate(nbytes);
        out
    }
}

/// Sequential bit reader over a byte slice.
#[derive(Debug)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Read cursor in bits.
    pos: usize,
}

impl<'a> BitReader<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    #[inline]
    pub fn remaining_bits(&self) -> usize {
        self.bytes.len() * 8 - self.pos
    }

    /// Read a single bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool, CodecError> {
        if self.pos >= self.bytes.len() * 8 {
            return Err(CodecError::Corrupt("bitstream exhausted".into()));
        }
        let byte = self.bytes[self.pos >> 3];
        let bit = (byte >> (self.pos & 7)) & 1;
        self.pos += 1;
        Ok(bit == 1)
    }

    /// Read `n` bits (LSB first), `n <= 64`.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Result<u64, CodecError> {
        debug_assert!(n <= 64);
        if n == 0 {
            return Ok(0);
        }
        if self.pos + n as usize > self.bytes.len() * 8 {
            return Err(CodecError::Corrupt(format!(
                "bitstream exhausted reading {n} bits"
            )));
        }
        let byte_pos = self.pos >> 3;
        let off = (self.pos & 7) as u32;
        // Fast path: the whole read fits in one unaligned 8-byte load.
        if off + n <= 64 && byte_pos + 8 <= self.bytes.len() {
            let w = u64::from_le_bytes(
                self.bytes[byte_pos..byte_pos + 8]
                    .try_into()
                    .expect("8 bytes"),
            );
            let v = if n == 64 {
                // off must be 0 here (off + n <= 64).
                w
            } else {
                (w >> off) & ((1u64 << n) - 1)
            };
            self.pos += n as usize;
            return Ok(v);
        }
        // Slow path: near the end of the buffer, or a 64-bit read that
        // straddles 9 bytes.
        let mut value = 0u64;
        let mut got = 0u32;
        while got < n {
            let byte = self.bytes[self.pos >> 3] as u64;
            let off = (self.pos & 7) as u32;
            let avail = 8 - off;
            let take = avail.min(n - got);
            let chunk = (byte >> off) & ((1u64 << take) - 1);
            value |= chunk << got;
            got += take;
            self.pos += take as usize;
        }
        Ok(value)
    }

    /// Peek at the next `n` bits (LSB first) without advancing. Bits past
    /// the end of the stream read as zero — callers that act on a peek
    /// must still consume via [`Self::skip_bits`]/[`Self::read_bits`],
    /// which do bound-check. `n <= 56` so a single byte-window always
    /// suffices.
    #[inline]
    pub fn peek_bits(&self, n: u32) -> u64 {
        debug_assert!(n <= 56);
        let byte_pos = self.pos >> 3;
        let off = (self.pos & 7) as u32;
        let w = if byte_pos + 8 <= self.bytes.len() {
            u64::from_le_bytes(
                self.bytes[byte_pos..byte_pos + 8]
                    .try_into()
                    .expect("8 bytes"),
            )
        } else {
            let mut buf = [0u8; 8];
            if byte_pos < self.bytes.len() {
                let tail = &self.bytes[byte_pos..];
                buf[..tail.len()].copy_from_slice(tail);
            }
            u64::from_le_bytes(buf)
        };
        (w >> off) & ((1u64 << n) - 1)
    }

    /// Advance the cursor by `n` bits, erroring if that passes the end.
    #[inline]
    pub fn skip_bits(&mut self, n: u32) -> Result<(), CodecError> {
        if self.pos + n as usize > self.bytes.len() * 8 {
            return Err(CodecError::Corrupt(format!(
                "bitstream exhausted reading {n} bits"
            )));
        }
        self.pos += n as usize;
        Ok(())
    }

    /// Current cursor (bits from the start).
    pub fn position(&self) -> usize {
        self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bits_roundtrip() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, true, false, true];
        for &b in &pattern {
            w.write_bit(b);
        }
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 2);
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bit().unwrap(), b);
        }
    }

    #[test]
    fn multi_bit_roundtrip() {
        let mut w = BitWriter::new();
        w.write_bits(0b1011, 4);
        w.write_bits(0xDEADBEEF, 32);
        w.write_bits(u64::MAX, 64);
        w.write_bits(0, 0);
        w.write_bits(7, 3);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(4).unwrap(), 0b1011);
        assert_eq!(r.read_bits(32).unwrap(), 0xDEADBEEF);
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
        assert_eq!(r.read_bits(0).unwrap(), 0);
        assert_eq!(r.read_bits(3).unwrap(), 7);
    }

    #[test]
    fn word_boundary_crossing() {
        let mut w = BitWriter::new();
        w.write_bits(0x3FF, 10); // ends mid-byte
        w.write_bits(0xABCDEF0123456789, 64); // crosses word boundary
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(10).unwrap(), 0x3FF);
        assert_eq!(r.read_bits(64).unwrap(), 0xABCDEF0123456789);
    }

    #[test]
    fn values_are_masked_to_width() {
        let mut w = BitWriter::new();
        w.write_bits(0xFF, 4); // only low 4 bits should land
        w.write_bits(0x0, 4);
        let bytes = w.into_bytes();
        assert_eq!(bytes[0], 0x0F);
    }

    #[test]
    fn exhaustion_is_an_error() {
        let bytes = [0xFFu8];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(8).unwrap(), 0xFF);
        assert!(r.read_bit().is_err());
        assert!(r.read_bits(1).is_err());
    }

    #[test]
    fn remaining_and_position_track() {
        let bytes = [0u8; 4];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.remaining_bits(), 32);
        r.read_bits(5).unwrap();
        assert_eq!(r.position(), 5);
        assert_eq!(r.remaining_bits(), 27);
    }

    #[test]
    fn empty_writer_yields_no_bytes() {
        assert!(BitWriter::new().into_bytes().is_empty());
    }

    #[test]
    fn reserved_writes_match_write_bits() {
        // The pre-sized path must produce byte-identical streams to
        // the growing write_bits path, including interleaved write_bit
        // calls after an over-reservation.
        let mut x: u64 = 99;
        let mut ops = Vec::new();
        for i in 0..500u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let n = (i % 64) + 1;
            ops.push((x, n));
        }
        let mut plain = BitWriter::new();
        for &(v, n) in &ops {
            plain.write_bits(v, n);
        }
        let mut reserved = BitWriter::new();
        reserved.reserve_bits(ops.iter().map(|&(_, n)| n as usize).sum());
        for &(v, n) in &ops {
            reserved.write_reserved(v, n);
        }
        assert_eq!(plain.into_bytes(), reserved.into_bytes());
    }

    #[test]
    fn over_reserved_words_do_not_leak_into_output() {
        let mut w = BitWriter::new();
        w.reserve_bits(4096);
        w.write_reserved(0b101, 3);
        w.write_bit(true);
        w.write_bits(0xFFFF, 16);
        assert_eq!(w.len_bits(), 20);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 3);
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert!(r.read_bit().unwrap());
        assert_eq!(r.read_bits(16).unwrap(), 0xFFFF);
    }

    #[test]
    fn write_bits_after_reserve_is_safe() {
        // write_bits must OR into pre-sized words, never append past them.
        let mut w = BitWriter::new();
        w.reserve_bits(128);
        w.write_bits(u64::MAX, 64);
        w.write_bits(0x1234_5678_9ABC_DEF0, 64);
        w.write_bits(0x7F, 7); // beyond the reservation: grows cleanly
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
        assert_eq!(r.read_bits(64).unwrap(), 0x1234_5678_9ABC_DEF0);
        assert_eq!(r.read_bits(7).unwrap(), 0x7F);
    }

    #[test]
    fn read_bits_fast_and_slow_paths_agree() {
        // Odd-length buffer so reads near the tail exercise the byte loop
        // while earlier ones take the word load.
        let mut w = BitWriter::new();
        let mut expect = Vec::new();
        let mut x: u64 = 42;
        for i in 0..200u32 {
            x = x.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(i as u64);
            let n = (x % 64 + 1) as u32;
            w.write_bits(x, n);
            expect.push((x & if n == 64 { u64::MAX } else { (1 << n) - 1 }, n));
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for (v, n) in expect {
            assert_eq!(r.read_bits(n).unwrap(), v);
        }
    }

    #[test]
    fn peek_matches_read_and_pads_past_end() {
        let mut w = BitWriter::new();
        w.write_bits(0b1_1010_1101, 9);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.peek_bits(9), 0b1_1010_1101);
        assert_eq!(r.peek_bits(5), 0b10_1101 & 0b11111);
        r.skip_bits(4).unwrap();
        assert_eq!(r.peek_bits(5), 0b1_1010);
        assert_eq!(r.read_bits(5).unwrap(), 0b1_1010);
        // Past the 16-bit buffer: peeks read zero, skip errors.
        assert_eq!(r.peek_bits(20), (bytes[1] as u64) >> 1);
        assert!(r.skip_bits(20).is_err());
        assert!(r.skip_bits(7).is_ok());
        assert_eq!(r.remaining_bits(), 0);
    }

    #[test]
    fn many_mixed_writes_roundtrip() {
        // Stress word boundaries with a deterministic pattern.
        let mut w = BitWriter::new();
        let mut expect = Vec::new();
        let mut x: u64 = 0x12345;
        for i in 0..1000u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(144115188075855872);
            let n = (i % 63) + 1;
            let v = x & ((1u64 << n) - 1);
            w.write_bits(v, n);
            expect.push((v, n));
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for (v, n) in expect {
            assert_eq!(r.read_bits(n).unwrap(), v);
        }
    }
}
