//! An error-bounded prediction + quantization codec in the SZ family.
//!
//! SZ (Di & Cappello, IPDPS 2016) compresses each value by predicting it
//! from already-decompressed neighbors, quantizing the residual against the
//! user's absolute error bound into a small integer code, and entropy
//! coding the codes. Values whose residual exceeds the quantization range
//! are stored verbatim ("unpredictable"). Prediction always runs on
//! *decompressed* history, so errors never accumulate and the bound
//! `max |x - x'| <= error_bound` holds pointwise.
//!
//! This implementation uses the 1-D Lorenzo predictor (previous
//! decompressed value), a 2^16-code quantization table and canonical
//! Huffman coding — the same architecture as SZ 1.4 restricted to one
//! dimension, which is what Canopus feeds it (vertex-ordered mesh data).

use crate::bitstream::{BitReader, BitWriter};
use crate::error::CodecError;
use crate::{Codec, Slot};
use std::mem::MaybeUninit;

/// Quantization radius: codes live in `[1, 2*RADIUS - 1]`, code 0 marks an
/// unpredictable (verbatim) value.
const RADIUS: i64 = 32768;
const STREAM_MAGIC: u8 = 0xC3;
const STREAM_VERSION: u8 = 1;

/// The SZ-like error-bounded codec. See the module docs.
#[derive(Debug, Clone, Copy)]
pub struct SzLike {
    error_bound: f64,
}

impl SzLike {
    /// Create a codec guaranteeing `max |x - x'| <= error_bound`.
    ///
    /// # Panics
    /// Panics if `error_bound` is not a finite positive number.
    pub fn with_error_bound(error_bound: f64) -> Self {
        assert!(
            error_bound.is_finite() && error_bound > 0.0,
            "SzLike requires a finite positive error bound, got {error_bound}"
        );
        Self { error_bound }
    }

    pub fn error_bound_value(&self) -> f64 {
        self.error_bound
    }
}

/// The next `len` bytes of `bytes` from `*pos` on, advancing it; `None`
/// if the stream does not hold that many. `len` may be a length the
/// stream declares: the sum is checked, so that one near `usize::MAX`
/// cannot wrap past the bound.
fn take<'a>(bytes: &'a [u8], pos: &mut usize, len: usize) -> Option<&'a [u8]> {
    let s = bytes.get(*pos..pos.checked_add(len)?)?;
    *pos += len;
    Some(s)
}

impl Codec for SzLike {
    fn name(&self) -> &'static str {
        "sz-like"
    }

    fn compress(&self, data: &[f64]) -> Result<Vec<u8>, CodecError> {
        let eb = self.error_bound;
        let two_eb = 2.0 * eb;
        let mut codes: Vec<u32> = Vec::with_capacity(data.len());
        let mut literals: Vec<f64> = Vec::new();
        let mut prev = 0.0f64; // decompressed history

        for &x in data {
            let t = (x - prev) / two_eb;
            let q = if t.is_finite() { t.round() } else { f64::NAN };
            let mut unpredictable = true;
            if q.is_finite() && q.abs() < RADIUS as f64 {
                let qi = q as i64;
                let recon = prev + two_eb * qi as f64;
                // Guard against catastrophic cancellation: accept the code
                // only if the reconstruction actually honors the bound.
                if recon.is_finite() && (x - recon).abs() <= eb {
                    codes.push((qi + RADIUS) as u32);
                    prev = recon;
                    unpredictable = false;
                }
            }
            if unpredictable {
                codes.push(0);
                literals.push(x);
                prev = x;
            }
        }

        // --- entropy-code the quantization codes ---
        let huff = Huffman::from_symbols(&codes);
        let mut payload = BitWriter::new();
        for &c in &codes {
            huff.encode(c, &mut payload);
        }
        let payload = payload.into_bytes();

        // --- assemble the container ---
        let mut out = Vec::with_capacity(payload.len() + literals.len() * 8 + 64);
        out.push(STREAM_MAGIC);
        out.push(STREAM_VERSION);
        out.extend_from_slice(&eb.to_le_bytes());
        huff.serialize_table(&mut out);
        out.extend_from_slice(&(literals.len() as u32).to_le_bytes());
        for lit in &literals {
            out.extend_from_slice(&lit.to_le_bytes());
        }
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&payload);
        Ok(out)
    }

    fn decompress(&self, bytes: &[u8], n: usize) -> Result<Vec<f64>, CodecError> {
        let mut out = vec![0.0f64; n];
        self.decompress_into(bytes, &mut out)?;
        Ok(out)
    }

    fn decompress_into(&self, bytes: &[u8], out: &mut [f64]) -> Result<(), CodecError> {
        self.decode(bytes, out)
    }

    fn decompress_uninit(
        &self,
        bytes: &[u8],
        out: &mut [MaybeUninit<f64>],
    ) -> Result<(), CodecError> {
        self.decode(bytes, out)
    }

    fn is_lossless(&self) -> bool {
        false
    }

    fn error_bound(&self) -> f64 {
        self.error_bound
    }
}

impl SzLike {
    /// The one decode loop behind both entry points.
    fn decode<T: Slot>(&self, bytes: &[u8], out: &mut [T]) -> Result<(), CodecError> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, len: usize| {
            take(bytes, pos, len)
                .ok_or_else(|| CodecError::Corrupt("sz-like stream truncated".into()))
        };

        let magic = take(&mut pos, 1)?[0];
        if magic != STREAM_MAGIC {
            return Err(CodecError::Corrupt("bad sz-like magic".into()));
        }
        let version = take(&mut pos, 1)?[0];
        if version != STREAM_VERSION {
            return Err(CodecError::Corrupt(format!(
                "unsupported sz-like version {version}"
            )));
        }
        let eb = f64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes"));
        if !(eb.is_finite() && eb > 0.0) {
            return Err(CodecError::Corrupt("bad error bound in stream".into()));
        }
        let two_eb = 2.0 * eb;

        let huff = Huffman::deserialize_table(bytes, &mut pos)?;
        let lit_count =
            u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")) as usize;
        // Validate against the remaining stream before reading, so a
        // corrupted count cannot demand gigabytes. Literals are then read
        // straight from the stream slice on demand — no staging Vec.
        if lit_count.saturating_mul(8) > bytes.len() - pos {
            return Err(CodecError::Corrupt(format!(
                "literal count {lit_count} exceeds stream size"
            )));
        }
        let lit_bytes = take(&mut pos, lit_count * 8)?;
        let payload_len = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes"));
        let payload_len = usize::try_from(payload_len)
            .map_err(|_| CodecError::Corrupt("sz-like stream truncated".into()))?;
        let payload = take(&mut pos, payload_len)?;

        let mut reader = BitReader::new(payload);
        let mut prev = 0.0f64;
        let mut lit_idx = 0usize;
        for o in out.iter_mut() {
            let code = huff.decode(&mut reader)?;
            let x = if code == 0 {
                if lit_idx >= lit_count {
                    return Err(CodecError::Corrupt("missing literal".into()));
                }
                let off = lit_idx * 8;
                lit_idx += 1;
                f64::from_le_bytes(lit_bytes[off..off + 8].try_into().expect("8 bytes"))
            } else {
                let qi = code as i64 - RADIUS;
                prev + two_eb * qi as f64
            };
            o.put(x);
            prev = x;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Canonical Huffman coding over u32 symbols.
// ---------------------------------------------------------------------------

/// Width of the one-shot decode lookup: codes no longer than this many
/// bits resolve with a single peek + table index instead of a bit-by-bit
/// canonical walk. 2^11 entries keep the table cache-resident while
/// covering every code the quantization distribution produces in
/// practice.
const LOOKUP_BITS: u32 = 11;

/// Ceiling for the dense encoder table (entries = max symbol + 1).
/// Quantization codes stay below `2 * RADIUS`; anything larger (only
/// possible through hand-built tables) spills to a map so a hostile
/// stream cannot demand a giant allocation.
const DENSE_ENC_MAX: usize = 1 << 17;

/// Canonical Huffman code: symbols sorted by (length, symbol) receive
/// consecutive codes. Only `(symbol, length)` pairs are serialized; both
/// sides rebuild identical codebooks.
///
/// The hot paths are table-driven: encoding is one dense-table index plus
/// one [`BitWriter::write_bits`] call per symbol (codes are stored
/// bit-reversed so the LSB-first writer emits them MSB-first on the
/// wire), and decoding resolves short codes with a single peek into a
/// `2^LOOKUP_BITS` prefix table. The bit-by-bit canonical walk survives
/// only as the long-code fallback.
struct Huffman {
    /// Sorted unique symbols with their code lengths.
    entries: Vec<(u32, u8)>,
    /// Dense encoder table indexed by symbol: (bit-reversed code, length),
    /// length 0 marking absent symbols. Built only for encode-side use.
    dense_enc: Vec<(u64, u8)>,
    /// Encoder spill for symbols at or above [`DENSE_ENC_MAX`].
    spill_enc: std::collections::HashMap<u32, (u64, u8)>,
    /// Decoder tables per length: first code value and index of first
    /// symbol of that length in `sorted_symbols`.
    first_code: [u64; 65],
    first_index: [usize; 65],
    count_per_len: [usize; 65],
    sorted_symbols: Vec<u32>,
    /// Prefix lookup: next `LOOKUP_BITS` wire bits (MSB-first) ->
    /// (symbol, code length); length 0 where no short code matches.
    lookup: Vec<(u32, u8)>,
}

impl Huffman {
    /// Build from the raw symbol stream (frequencies are counted here).
    fn from_symbols(symbols: &[u32]) -> Self {
        use std::collections::HashMap;
        let mut freq: HashMap<u32, u64> = HashMap::new();
        for &s in symbols {
            *freq.entry(s).or_insert(0) += 1;
        }
        let lengths = huffman_code_lengths(&freq);
        Self::from_lengths(lengths, true)
    }

    fn from_lengths(mut lengths: Vec<(u32, u8)>, build_encoder: bool) -> Self {
        // Canonical order: by (length, symbol).
        lengths.sort_unstable_by_key(|&(sym, len)| (len, sym));

        let mut count_per_len = [0usize; 65];
        for &(_, len) in &lengths {
            count_per_len[len as usize] += 1;
        }
        // Kraft-consistent canonical first codes. A complete table with
        // 64-bit codes ends on 2^64 exactly: the sum wraps, unused.
        let mut first_code = [0u64; 65];
        let mut code = 0u64;
        for len in 1..=64usize {
            code <<= 1;
            first_code[len] = code;
            code = code.wrapping_add(count_per_len[len] as u64);
        }
        let mut first_index = [0usize; 65];
        let mut idx = 0usize;
        for len in 1..=64usize {
            first_index[len] = idx;
            idx += count_per_len[len];
        }

        let sorted_symbols: Vec<u32> = lengths.iter().map(|&(s, _)| s).collect();

        let mut dense_enc = Vec::new();
        let mut spill_enc = std::collections::HashMap::new();
        if build_encoder {
            let dense_len = lengths
                .iter()
                .map(|&(sym, _)| sym as usize + 1)
                .filter(|&l| l <= DENSE_ENC_MAX)
                .max()
                .unwrap_or(0);
            dense_enc = vec![(0u64, 0u8); dense_len];
            let mut next = first_code;
            for &(sym, len) in &lengths {
                let code = next[len as usize];
                next[len as usize] = code.wrapping_add(1);
                // Reverse so the LSB-first writer puts the MSB on the wire
                // first, matching canonical prefix order.
                let rev = code.reverse_bits() >> (64 - len as u32);
                if (sym as usize) < dense_enc.len() {
                    dense_enc[sym as usize] = (rev, len);
                } else {
                    spill_enc.insert(sym, (rev, len));
                }
            }
        }

        let mut lookup = vec![(0u32, 0u8); 1 << LOOKUP_BITS];
        {
            let mut next = first_code;
            for &(sym, len) in &lengths {
                let code = next[len as usize];
                next[len as usize] = code.wrapping_add(1);
                if (len as u32) <= LOOKUP_BITS {
                    let shift = LOOKUP_BITS - len as u32;
                    let base = (code << shift) as usize;
                    for slot in &mut lookup[base..base + (1 << shift)] {
                        *slot = (sym, len);
                    }
                }
            }
        }

        Self {
            entries: lengths,
            dense_enc,
            spill_enc,
            first_code,
            first_index,
            count_per_len,
            sorted_symbols,
            lookup,
        }
    }

    #[inline]
    fn encode(&self, symbol: u32, w: &mut BitWriter) {
        let (rev, len) = if (symbol as usize) < self.dense_enc.len() {
            self.dense_enc[symbol as usize]
        } else {
            self.spill_enc.get(&symbol).copied().unwrap_or((0, 0))
        };
        assert!(len != 0, "symbol was present when the codebook was built");
        w.write_bits(rev, len as u32);
    }

    #[inline]
    fn decode(&self, r: &mut BitReader<'_>) -> Result<u32, CodecError> {
        // Fast path: index the prefix table with the next LOOKUP_BITS wire
        // bits. The peek zero-pads past the end; skip_bits bound-checks,
        // so a truncated stream still errors.
        let peeked = r.peek_bits(LOOKUP_BITS);
        let idx = (peeked.reverse_bits() >> (64 - LOOKUP_BITS)) as usize;
        let (sym, len) = self.lookup[idx];
        if len != 0 {
            r.skip_bits(len as u32)?;
            return Ok(sym);
        }
        self.decode_slow(r)
    }

    /// Bit-by-bit canonical walk for codes longer than [`LOOKUP_BITS`]
    /// (and the empty-codebook error path).
    #[cold]
    fn decode_slow(&self, r: &mut BitReader<'_>) -> Result<u32, CodecError> {
        if self.entries.is_empty() {
            return Err(CodecError::Corrupt("empty huffman codebook".into()));
        }
        let mut code = 0u64;
        for len in 1..=64usize {
            code = (code << 1) | (r.read_bit()? as u64);
            let cnt = self.count_per_len[len];
            if cnt > 0 {
                let first = self.first_code[len];
                if code >= first && code - first < cnt as u64 {
                    let idx = self.first_index[len] + (code - first) as usize;
                    return Ok(self.sorted_symbols[idx]);
                }
            }
        }
        Err(CodecError::Corrupt("invalid huffman code".into()))
    }

    fn serialize_table(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for &(sym, len) in &self.entries {
            out.extend_from_slice(&sym.to_le_bytes());
            out.push(len);
        }
    }

    fn deserialize_table(bytes: &[u8], pos: &mut usize) -> Result<Self, CodecError> {
        let truncated = || CodecError::Corrupt("huffman table truncated".into());
        let mut take = |len: usize| take(bytes, pos, len).ok_or_else(truncated);
        let count = u32::from_le_bytes(take(4)?.try_into().expect("4 bytes")) as usize;
        // Five bytes an entry: nothing is allocated for a count the
        // stream is too short to back.
        let table = take(count.checked_mul(5).ok_or_else(truncated)?)?;
        let mut lengths = Vec::with_capacity(count);
        for entry in table.chunks_exact(5) {
            let sym = u32::from_le_bytes(entry[..4].try_into().expect("4 bytes"));
            let len = entry[4];
            if len == 0 || len > 64 {
                return Err(CodecError::Corrupt(format!("bad code length {len}")));
            }
            lengths.push((sym, len));
        }
        // Kraft check so corrupt tables cannot send the decoder spinning.
        let kraft: f64 = lengths
            .iter()
            .map(|&(_, len)| f64::powi(2.0, -(len as i32)))
            .sum();
        if count > 1 && kraft > 1.0 + 1e-9 {
            return Err(CodecError::Corrupt("huffman table violates Kraft".into()));
        }
        // Decode-side tables only: skip the encoder tables so decompress
        // never pays for them.
        Ok(Self::from_lengths(lengths, false))
    }
}

/// Package-merge-free Huffman code length computation via the standard
/// two-queue/heap algorithm. Returns `(symbol, code_length)` pairs.
fn huffman_code_lengths(freq: &std::collections::HashMap<u32, u64>) -> Vec<(u32, u8)> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    if freq.is_empty() {
        return Vec::new();
    }
    if freq.len() == 1 {
        // A single symbol still needs one bit on the wire.
        return vec![(*freq.keys().next().expect("len 1"), 1)];
    }

    #[derive(PartialEq, Eq)]
    struct Node {
        weight: u64,
        // Tie-break on creation order for determinism.
        order: u64,
        kind: NodeKind,
    }
    #[derive(PartialEq, Eq)]
    enum NodeKind {
        Leaf(u32),
        Internal(Box<Node>, Box<Node>),
    }
    impl Ord for Node {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            (self.weight, self.order).cmp(&(other.weight, other.order))
        }
    }
    impl PartialOrd for Node {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    let mut symbols: Vec<(u32, u64)> = freq.iter().map(|(&s, &f)| (s, f)).collect();
    symbols.sort_unstable();

    let mut order = 0u64;
    let mut heap: BinaryHeap<Reverse<Node>> = symbols
        .into_iter()
        .map(|(s, f)| {
            order += 1;
            Reverse(Node {
                weight: f,
                order,
                kind: NodeKind::Leaf(s),
            })
        })
        .collect();

    while heap.len() > 1 {
        let a = heap.pop().expect("len > 1").0;
        let b = heap.pop().expect("len > 1").0;
        order += 1;
        heap.push(Reverse(Node {
            weight: a.weight + b.weight,
            order,
            kind: NodeKind::Internal(Box::new(a), Box::new(b)),
        }));
    }
    let root = heap.pop().expect("non-empty").0;

    let mut lengths = Vec::with_capacity(freq.len());
    // Iterative DFS to avoid recursion depth issues on degenerate trees.
    let mut stack: Vec<(Node, u8)> = vec![(root, 0)];
    while let Some((node, depth)) = stack.pop() {
        match node.kind {
            NodeKind::Leaf(sym) => lengths.push((sym, depth.max(1))),
            NodeKind::Internal(a, b) => {
                stack.push((*a, depth + 1));
                stack.push((*b, depth + 1));
            }
        }
    }
    lengths
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

    fn max_err(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn roundtrip_respects_bound() {
        for &eb in &[1e-1, 1e-3, 1e-6, 1e-9] {
            let data = noise(2000, 10.0, 5);
            let codec = SzLike::with_error_bound(eb);
            let back = codec
                .decompress(&codec.compress(&data).unwrap(), data.len())
                .unwrap();
            assert_eq!(back.len(), data.len());
            assert!(max_err(&data, &back) <= eb, "bound {eb} violated");
        }
    }

    #[test]
    fn smooth_beats_noise() {
        let n = 8192;
        let smooth: Vec<f64> = (0..n).map(|i| (i as f64 * 0.002).sin() * 5.0).collect();
        let rough = noise(n, 5.0, 3);
        let codec = SzLike::with_error_bound(1e-4);
        let s = codec.compress(&smooth).unwrap().len();
        let r = codec.compress(&rough).unwrap().len();
        assert!((s as f64) < 0.8 * r as f64, "smooth {s} vs rough {r}");
    }

    #[test]
    fn wild_data_goes_to_literals_and_roundtrips() {
        let data = vec![0.0, 1e300, -1e300, 1e-300, 5.0, 1e250];
        let codec = SzLike::with_error_bound(1e-6);
        let back = codec
            .decompress(&codec.compress(&data).unwrap(), data.len())
            .unwrap();
        assert!(max_err(&data, &back) <= 1e-6);
    }

    #[test]
    fn non_finite_values_roundtrip_via_literals() {
        let data = vec![1.0, f64::INFINITY, 2.0, f64::NEG_INFINITY, 3.0];
        let codec = SzLike::with_error_bound(1e-3);
        let back = codec
            .decompress(&codec.compress(&data).unwrap(), data.len())
            .unwrap();
        assert_eq!(back[1], f64::INFINITY);
        assert_eq!(back[3], f64::NEG_INFINITY);
        assert!((back[4] - 3.0).abs() <= 1e-3);
    }

    #[test]
    fn empty_and_single() {
        let codec = SzLike::with_error_bound(1e-6);
        let b = codec.compress(&[]).unwrap();
        assert_eq!(codec.decompress(&b, 0).unwrap(), Vec::<f64>::new());
        let b = codec.compress(&[42.0]).unwrap();
        let back = codec.decompress(&b, 1).unwrap();
        assert!((back[0] - 42.0).abs() <= 1e-6);
    }

    #[test]
    fn constant_data_is_tiny() {
        let data = vec![3.25; 10_000];
        let codec = SzLike::with_error_bound(1e-6);
        let bytes = codec.compress(&data).unwrap();
        assert!(bytes.len() < 2000, "constant run should be ~1 bit/value");
    }

    #[test]
    #[should_panic(expected = "positive error bound")]
    fn rejects_bad_bound() {
        let _ = SzLike::with_error_bound(-1.0);
    }

    #[test]
    fn rejects_corrupt_stream() {
        let codec = SzLike::with_error_bound(1e-6);
        let data = noise(100, 1.0, 9);
        let mut bytes = codec.compress(&data).unwrap();
        bytes[0] ^= 0xFF;
        assert!(codec.decompress(&bytes, 100).is_err());
        let bytes2 = codec.compress(&data).unwrap();
        assert!(codec.decompress(&bytes2[..10], 100).is_err());
    }

    /// Where the literals' `u32` count and the payload's `u64` length
    /// sit in a stream.
    fn lengths_at(bytes: &[u8]) -> (usize, usize) {
        let table = u32::from_le_bytes(bytes[10..14].try_into().unwrap()) as usize;
        let literals_at = 14 + table * 5;
        let literals =
            u32::from_le_bytes(bytes[literals_at..literals_at + 4].try_into().unwrap()) as usize;
        (literals_at, literals_at + 4 + literals * 8)
    }

    #[test]
    fn crafted_lengths_are_corrupt_not_a_panic() {
        let codec = SzLike::with_error_bound(1e-6);
        let data = noise(500, 1.0, 9);
        let good = codec.compress(&data).unwrap();
        let (literals_at, at) = lengths_at(&good);
        let payload = good.len() - at - 8;
        assert_eq!(
            u64::from_le_bytes(good[at..at + 8].try_into().unwrap()),
            payload as u64
        );
        let with_len = |len: u64| {
            let mut bytes = good.clone();
            bytes[at..at + 8].copy_from_slice(&len.to_le_bytes());
            codec.decompress(&bytes, data.len())
        };
        assert!(with_len(payload as u64).is_ok());
        // `u64::MAX`, a sum that wraps to just inside the stream, one
        // byte past the payload.
        for len in [
            u64::MAX,
            u64::MAX - (at as u64 + 8) + 1,
            u64::MAX - (at as u64 + 8),
            1 << 63,
            payload as u64 + 1,
        ] {
            let err = with_len(len).unwrap_err();
            assert!(matches!(err, CodecError::Corrupt(_)), "{len}: {err}");
        }
        // A shorter payload runs out of codes.
        assert!(with_len(payload as u64 / 2).is_err());

        // The table's and the literals' counts, likewise.
        for count in [u32::MAX, u32::MAX / 5 + 1, 1 << 31, good.len() as u32] {
            let mut bytes = good.clone();
            bytes[10..14].copy_from_slice(&count.to_le_bytes());
            assert!(codec.decompress(&bytes, data.len()).is_err(), "{count}");
            let mut bytes = good.clone();
            bytes[literals_at..literals_at + 4].copy_from_slice(&count.to_le_bytes());
            assert!(codec.decompress(&bytes, data.len()).is_err(), "{count}");
        }
    }

    #[test]
    fn huffman_tables_with_64_bit_codes_neither_wrap_nor_spin() {
        // Complete: lengths 1, 2, ..., 63, 64, 64 — the canonical code
        // after the last symbol is 2^64.
        let mut lengths: Vec<(u32, u8)> = (1..=64u8).map(|len| (len as u32, len)).collect();
        lengths.push((65, 64));
        let h = Huffman::from_lengths(lengths, true);
        let symbols = [1u32, 64, 65, 2, 65, 64, 63];
        let mut w = BitWriter::new();
        for &s in &symbols {
            h.encode(s, &mut w);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &s in &symbols {
            assert_eq!(h.decode(&mut r).unwrap(), s);
        }

        // One symbol of length 64 (Kraft holds trivially): all-zero
        // codes decode, anything else is invalid, and either way a
        // decode consumes its 64 bits or the rest of the stream.
        let lone = Huffman::from_lengths(vec![(9, 64)], false);
        let zeros = [0u8; 16];
        let mut r = BitReader::new(&zeros);
        assert_eq!(lone.decode(&mut r).unwrap(), 9);
        assert_eq!(lone.decode(&mut r).unwrap(), 9);
        assert!(lone.decode(&mut r).is_err(), "stream exhausted");
        let mut r = BitReader::new(&[0xFF; 16]);
        assert!(lone.decode(&mut r).is_err());

        // An empty table decodes nothing.
        let empty = Huffman::from_lengths(Vec::new(), false);
        assert!(empty.decode(&mut BitReader::new(&zeros)).is_err());
    }

    #[test]
    fn decode_honors_stream_bound_not_config() {
        let data = noise(500, 1.0, 1);
        let enc = SzLike::with_error_bound(1e-8);
        let bytes = enc.compress(&data).unwrap();
        let dec = SzLike::with_error_bound(1.0);
        let back = dec.decompress(&bytes, data.len()).unwrap();
        assert!(max_err(&data, &back) <= 1e-8);
    }

    // --- Huffman unit tests ---

    #[test]
    fn huffman_roundtrip_skewed() {
        let mut symbols = vec![7u32; 1000];
        symbols.extend(vec![3u32; 100]);
        symbols.extend(vec![9u32; 10]);
        symbols.push(100_000);
        let h = Huffman::from_symbols(&symbols);
        let mut w = BitWriter::new();
        for &s in &symbols {
            h.encode(s, &mut w);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &s in &symbols {
            assert_eq!(h.decode(&mut r).unwrap(), s);
        }
        // The dominant symbol should get a 1-bit code.
        assert!(bytes.len() < symbols.len() / 4);
    }

    #[test]
    fn huffman_single_symbol() {
        let symbols = vec![5u32; 64];
        let h = Huffman::from_symbols(&symbols);
        let mut w = BitWriter::new();
        for &s in &symbols {
            h.encode(s, &mut w);
        }
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 8); // 64 one-bit codes
        let mut r = BitReader::new(&bytes);
        for _ in 0..64 {
            assert_eq!(h.decode(&mut r).unwrap(), 5);
        }
    }

    #[test]
    fn huffman_table_roundtrip() {
        let symbols: Vec<u32> = (0..64u32).flat_map(|s| vec![s; (s + 1) as usize]).collect();
        let h = Huffman::from_symbols(&symbols);
        let mut buf = Vec::new();
        h.serialize_table(&mut buf);
        let mut pos = 0usize;
        let h2 = Huffman::deserialize_table(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        let mut w = BitWriter::new();
        for &s in &symbols {
            h.encode(s, &mut w);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &s in &symbols {
            assert_eq!(h2.decode(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn huffman_rejects_bad_table() {
        // Kraft-violating table: three symbols of length 1.
        let mut buf = Vec::new();
        buf.extend_from_slice(&3u32.to_le_bytes());
        for s in 0..3u32 {
            buf.extend_from_slice(&s.to_le_bytes());
            buf.push(1);
        }
        let mut pos = 0;
        assert!(Huffman::deserialize_table(&buf, &mut pos).is_err());
    }

    #[test]
    fn table_driven_encode_matches_per_bit_reference() {
        let mut symbols = vec![7u32; 1000];
        symbols.extend(vec![3u32; 100]);
        symbols.extend(vec![9u32; 10]);
        symbols.extend(0..200u32);
        symbols.push(100_000);
        let h = Huffman::from_symbols(&symbols);
        // Reference: canonical (code, len) per symbol emitted MSB-first
        // one bit at a time — the pre-batching wire format.
        let mut next = h.first_code;
        let mut codes = std::collections::HashMap::new();
        for &(sym, len) in &h.entries {
            codes.insert(sym, (next[len as usize], len));
            next[len as usize] += 1;
        }
        let mut fast = BitWriter::new();
        let mut slow = BitWriter::new();
        for &s in &symbols {
            h.encode(s, &mut fast);
            let &(code, len) = codes.get(&s).unwrap();
            for i in (0..len).rev() {
                slow.write_bit((code >> i) & 1 == 1);
            }
        }
        assert_eq!(fast.into_bytes(), slow.into_bytes());
    }

    #[test]
    fn long_codes_fall_back_to_canonical_walk() {
        // Kraft-complete set with lengths 1..=19 — codes longer than the
        // lookup width must round-trip through the slow path.
        let mut lengths: Vec<(u32, u8)> = (0..19u32).map(|i| (i, (i + 1) as u8)).collect();
        lengths.push((19, 19));
        let h = Huffman::from_lengths(lengths, true);
        let symbols: Vec<u32> = (0..20u32).chain((0..20u32).rev()).collect();
        let mut w = BitWriter::new();
        for &s in &symbols {
            h.encode(s, &mut w);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &s in &symbols {
            assert_eq!(h.decode(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn decompress_into_matches_decompress() {
        let data = noise(777, 4.0, 21);
        let codec = SzLike::with_error_bound(1e-5);
        let bytes = codec.compress(&data).unwrap();
        let via_vec = codec.decompress(&bytes, data.len()).unwrap();
        let mut buf = vec![f64::NAN; data.len()];
        codec.decompress_into(&bytes, &mut buf).unwrap();
        assert_eq!(via_vec, buf);
    }

    #[test]
    fn huffman_deterministic() {
        let symbols = vec![1u32, 2, 2, 3, 3, 3, 4, 4, 4, 4];
        let h1 = Huffman::from_symbols(&symbols);
        let h2 = Huffman::from_symbols(&symbols);
        assert_eq!(h1.entries, h2.entries);
    }
}
