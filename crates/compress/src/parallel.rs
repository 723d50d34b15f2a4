//! Chunked compression.
//!
//! [`Chunked`] wraps any [`Codec`]: the input splits into chunks of a
//! fixed element count, chunks compress concurrently under rayon, and a
//! small offset table glues the pieces into one self-contained stream.
//! Decompression parallelizes the same way, and a caller that wants to
//! do more with each chunk than decode it reads the table itself
//! ([`ChunkTable::parse`]) and decodes chunk by chunk. The chunk size is
//! the caller's: the Canopus writer frames at one restore tile, so a
//! reader can decode and restore each tile in one pass. Error bounds are
//! inherited unchanged (each chunk honors the inner codec's bound
//! independently).

use crate::error::CodecError;
use crate::{Codec, Slot};
use rayon::prelude::*;
use std::mem::MaybeUninit;
use std::ops::Range;

const STREAM_MAGIC: u8 = 0xC6;
const STREAM_VERSION: u8 = 1;

/// A codec adaptor that (de)compresses fixed-size chunks in parallel.
pub struct Chunked<C: Codec> {
    inner: C,
    chunk_elems: usize,
}

impl<C: Codec> Chunked<C> {
    /// Wrap `inner`, processing `chunk_elems` values per parallel task.
    ///
    /// # Panics
    /// Panics if `chunk_elems` is 0.
    pub fn new(inner: C, chunk_elems: usize) -> Self {
        assert!(chunk_elems > 0, "chunks need at least one element");
        Self { inner, chunk_elems }
    }

    /// Wrap `inner` for decode-only use: `decompress` reads the chunk
    /// geometry from the stream header, so no meaningful `chunk_elems`
    /// is needed up front.
    pub fn for_decode(inner: C) -> Self {
        Self::new(inner, 1)
    }

    pub fn inner(&self) -> &C {
        &self.inner
    }
}

impl<C: Codec> Codec for Chunked<C> {
    fn name(&self) -> &'static str {
        "chunked"
    }

    fn compress(&self, data: &[f64]) -> Result<Vec<u8>, CodecError> {
        let chunks: Vec<Vec<u8>> = data
            .par_chunks(self.chunk_elems)
            .map(|chunk| self.inner.compress(chunk))
            .collect::<Result<_, _>>()?;

        // Header: magic, version, chunk_elems, chunk count, then chunk
        // byte lengths, then the concatenated payloads.
        let mut out =
            Vec::with_capacity(18 + chunks.len() * 8 + chunks.iter().map(Vec::len).sum::<usize>());
        out.push(STREAM_MAGIC);
        out.push(STREAM_VERSION);
        out.extend_from_slice(&(self.chunk_elems as u64).to_le_bytes());
        out.extend_from_slice(&(chunks.len() as u64).to_le_bytes());
        for c in &chunks {
            out.extend_from_slice(&(c.len() as u64).to_le_bytes());
        }
        for c in &chunks {
            out.extend_from_slice(c);
        }
        Ok(out)
    }

    fn decompress(&self, bytes: &[u8], n: usize) -> Result<Vec<f64>, CodecError> {
        let mut out = vec![0.0; n];
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
        self.inner.is_lossless()
    }

    fn error_bound(&self) -> f64 {
        self.inner.error_bound()
    }
}

impl<C: Codec> Chunked<C> {
    /// Both entry points: each chunk decodes straight into its disjoint
    /// span of `out` through the inner codec's entry point for `T`. No
    /// per-chunk Vec, no copy-and-concatenate stage. `chunks_mut`
    /// yields exactly as many slices as the table has spans (checked by
    /// the parse), the last one sized to the tail.
    fn decode<T: Slot>(&self, bytes: &[u8], out: &mut [T]) -> Result<(), CodecError> {
        let table = ChunkTable::parse(bytes, out.len())?;
        let jobs: Vec<(&mut [T], Range<usize>)> =
            out.chunks_mut(table.chunk_elems).zip(table.spans).collect();
        jobs.into_par_iter()
            .map(|(dst, span)| T::decode(&self.inner, &bytes[span], dst))
            .collect::<Result<Vec<()>, _>>()?;
        Ok(())
    }
}

/// The chunk table of a [`Chunked`] stream: how many values a chunk
/// holds, and where each chunk's bytes lie in the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkTable {
    /// Values per chunk; the last chunk holds the rest.
    pub chunk_elems: usize,
    /// Each chunk's byte range in the stream, in chunk order.
    pub spans: Vec<Range<usize>>,
}

impl ChunkTable {
    /// Read the table of a stream that decodes to `n` values: refused
    /// unless it has as many chunks as `n` values fill and every chunk's
    /// bytes lie inside `bytes`.
    pub fn parse(bytes: &[u8], n: usize) -> Result<Self, CodecError> {
        let fail = |m: &str| CodecError::Corrupt(format!("chunked stream: {m}"));
        if bytes.len() < 18 {
            return Err(fail("too short"));
        }
        if bytes[0] != STREAM_MAGIC {
            return Err(fail("bad magic"));
        }
        if bytes[1] != STREAM_VERSION {
            return Err(fail("bad version"));
        }
        let chunk_elems = u64::from_le_bytes(bytes[2..10].try_into().expect("8 bytes")) as usize;
        let num_chunks = u64::from_le_bytes(bytes[10..18].try_into().expect("8 bytes")) as usize;
        if chunk_elems == 0 {
            return Err(fail("zero chunk size"));
        }
        if num_chunks != n.div_ceil(chunk_elems) {
            return Err(fail("chunk count does not match element count"));
        }
        let table_end = 18 + num_chunks * 8;
        if bytes.len() < table_end {
            return Err(fail("offset table truncated"));
        }
        let mut spans = Vec::with_capacity(num_chunks);
        let mut cursor = table_end;
        for i in 0..num_chunks {
            let len = u64::from_le_bytes(bytes[18 + i * 8..26 + i * 8].try_into().expect("8 bytes"))
                as usize;
            // `len` is the stream's word: added unchecked, a length near
            // `u64::MAX` wraps past this test and panics at the slice.
            let end = cursor
                .checked_add(len)
                .filter(|&end| end <= bytes.len())
                .ok_or_else(|| fail("payload truncated"))?;
            spans.push(cursor..end);
            cursor = end;
        }
        Ok(Self { chunk_elems, spans })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fpc, ZfpLike};

    fn wave(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.01).sin() * 40.0).collect()
    }

    #[test]
    fn chunked_zfp_roundtrip_respects_bound() {
        let data = wave(10_000);
        for chunk in [100, 1000, 4096, 50_000] {
            let codec = Chunked::new(ZfpLike::with_tolerance(1e-6), chunk);
            let bytes = codec.compress(&data).unwrap();
            let back = codec.decompress(&bytes, data.len()).unwrap();
            let err = data
                .iter()
                .zip(&back)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            assert!(err <= 1e-6, "chunk {chunk}: err {err}");
        }
    }

    #[test]
    fn chunked_lossless_is_bit_exact() {
        let data = wave(5000);
        let codec = Chunked::new(Fpc::new(), 777);
        assert!(codec.is_lossless());
        let back = codec
            .decompress(&codec.compress(&data).unwrap(), data.len())
            .unwrap();
        for (a, b) in data.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn chunked_output_matches_sequential_sizes_closely() {
        // Per-chunk overhead is bounded: total size stays within a few
        // percent of the monolithic stream.
        let data = wave(50_000);
        let seq = ZfpLike::with_tolerance(1e-6).compress(&data).unwrap();
        let par = Chunked::new(ZfpLike::with_tolerance(1e-6), 8192)
            .compress(&data)
            .unwrap();
        assert!(
            (par.len() as f64) < 1.05 * seq.len() as f64,
            "chunked {} vs sequential {}",
            par.len(),
            seq.len()
        );
    }

    #[test]
    fn empty_and_partial_inputs() {
        let codec = Chunked::new(ZfpLike::with_tolerance(1e-6), 64);
        let empty = codec.compress(&[]).unwrap();
        assert_eq!(codec.decompress(&empty, 0).unwrap(), Vec::<f64>::new());
        let data = wave(65); // one full + one single-element chunk
        let back = codec
            .decompress(&codec.compress(&data).unwrap(), 65)
            .unwrap();
        assert_eq!(back.len(), 65);
    }

    #[test]
    fn rejects_corruption_and_mismatch() {
        let codec = Chunked::new(ZfpLike::with_tolerance(1e-6), 64);
        let data = wave(500);
        let bytes = codec.compress(&data).unwrap();
        assert!(codec.decompress(&bytes, 400).is_err(), "wrong n");
        assert!(codec.decompress(&bytes[..20], 500).is_err(), "truncated");
        let mut bad = bytes.clone();
        bad[0] = 0;
        assert!(codec.decompress(&bad, 500).is_err(), "bad magic");

        // A crafted length table. Chunk lengths start at byte 18.
        let corrupt = |bad: &[u8], n: usize, what: &str| {
            let err = codec.decompress(bad, n).expect_err(what);
            assert!(matches!(err, CodecError::Corrupt(_)), "{what}: {err}");
        };
        let two = codec.compress(&data[..128]).unwrap();
        let mut bad = two.clone();
        bad[18..26].fill(0xFF);
        corrupt(&bad, 128, "a chunk length of u64::MAX wraps the cursor");
        let mut bad = two.clone();
        bad[26..34].copy_from_slice(&(u64::MAX - 40).to_le_bytes());
        corrupt(&bad, 128, "a second length that wraps the running sum");
        let mut bad = two.clone();
        let len0 = u64::from_le_bytes(two[18..26].try_into().unwrap());
        bad[18..26].copy_from_slice(&(len0 + 1).to_le_bytes());
        corrupt(&bad, 128, "lengths that sum past the payload");
        let mut bad = two.clone();
        bad[10..18].copy_from_slice(&3u64.to_le_bytes());
        corrupt(&bad, 128, "a chunk count that disagrees with n");
        corrupt(&two, 129, "an n that disagrees with the chunk count");
    }

    #[test]
    fn the_chunk_table_is_the_one_decompress_reads() {
        let data = wave(1000);
        let codec = Chunked::new(Fpc::new(), 300);
        let bytes = codec.compress(&data).unwrap();
        let table = ChunkTable::parse(&bytes, data.len()).unwrap();
        assert_eq!(table.chunk_elems, 300);
        assert_eq!(table.spans.len(), 4);
        assert_eq!(table.spans.last().unwrap().end, bytes.len());
        // Chunk by chunk through the table gives the whole decode.
        for ((i, span), want) in table.spans.iter().enumerate().zip(data.chunks(300)) {
            let got = Fpc::new()
                .decompress(&bytes[span.clone()], want.len())
                .unwrap();
            assert_eq!(got, want, "chunk {i}");
        }
        assert!(ChunkTable::parse(&bytes, 1201).is_err(), "a fifth chunk");
        assert!(ChunkTable::parse(&bytes[..bytes.len() - 1], 1000).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one element")]
    fn rejects_zero_chunk() {
        let _ = Chunked::new(Fpc::new(), 0);
    }

    #[test]
    fn for_decode_reads_geometry_from_header() {
        let data = wave(3000);
        let bytes = Chunked::new(Fpc::new(), 512).compress(&data).unwrap();
        let back = Chunked::for_decode(Fpc::new())
            .decompress(&bytes, data.len())
            .unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn decompress_into_matches_decompress() {
        let data = wave(4321);
        let codec = Chunked::new(ZfpLike::with_tolerance(1e-9), 600);
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
    fn boxed_dyn_codec_chunks() {
        let data = wave(2000);
        let codec = Chunked::new(crate::CodecKind::Fpc.build(), 333);
        let back = codec
            .decompress(&codec.compress(&data).unwrap(), data.len())
            .unwrap();
        assert_eq!(back, data);
    }
}
