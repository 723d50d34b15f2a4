//! # canopus-compress
//!
//! Floating-point compression substrate for the Canopus reproduction.
//!
//! The paper compresses refactored data with ZFP ("As of 2016, Canopus has
//! integrated ZFP"), and reports SZ and FPC integrations as in progress.
//! None of those C libraries are assumed here — this crate reimplements the
//! relevant algorithm families in pure Rust:
//!
//! * [`zfp_like`] — a fixed-accuracy block-transform codec in the ZFP
//!   family: per-block common exponent, ZFP's integer lifting transform,
//!   negabinary mapping, truncation at the tolerance's bit plane, and the
//!   surviving coefficient bits stored lane-major (a length per
//!   coefficient, then its bits) so a block decodes without a per-bit
//!   loop. Like ZFP, it rewards smooth input with shorter streams — the
//!   property the paper's Fig. 5 ("Canopus as a pre-conditioner") depends
//!   on.
//! * [`sz_like`] — an error-bounded prediction + quantization codec in the
//!   SZ family: curve-fitting predictors, quantization-code table,
//!   canonical Huffman coding, verbatim literals for unpredictable points.
//! * [`fpc`] — the lossless FCM/DFCM predictor + leading-zero-byte codec of
//!   Burtscher & Ratanaworabhan (the paper's lossless comparator);
//! * [`parallel`] — a chunked adaptor running any codec concurrently
//!   under rayon, for streams a single core cannot keep up with.
//!
//! All codecs implement the common [`Codec`] trait, guarantee their stated
//! error bounds (`max |x - x'| <= tolerance`, or bit-exactness for FPC),
//! and are deterministic.

pub mod bitstream;
pub mod error;
pub mod fpc;
pub(crate) mod lanes;
pub mod observed;
pub mod parallel;
pub mod stats;
pub mod sz_like;
pub mod zfp_like;

pub use error::CodecError;
pub use fpc::Fpc;
pub use observed::ObservedCodec;
pub use parallel::{ChunkTable, Chunked};
pub use stats::CompressionStats;
pub use sz_like::SzLike;
pub use zfp_like::ZfpLike;

use std::mem::MaybeUninit;

/// One element of a decoder's output: a value of an initialised buffer,
/// or an element of a buffer's spare capacity. Each codec has one decode
/// loop, generic over it, behind both [`Codec::decompress_into`] and
/// [`Codec::decompress_uninit`].
pub(crate) trait Slot: Send {
    /// Store `value` here.
    fn put(&mut self, value: f64);

    /// Decode `bytes` into `out` through `codec`'s entry point for this
    /// kind of element.
    fn decode<C: Codec + ?Sized>(
        codec: &C,
        bytes: &[u8],
        out: &mut [Self],
    ) -> Result<(), CodecError>
    where
        Self: Sized;
}

impl Slot for f64 {
    #[inline(always)]
    fn put(&mut self, value: f64) {
        *self = value;
    }

    fn decode<C: Codec + ?Sized>(
        codec: &C,
        bytes: &[u8],
        out: &mut [f64],
    ) -> Result<(), CodecError> {
        codec.decompress_into(bytes, out)
    }
}

impl Slot for MaybeUninit<f64> {
    #[inline(always)]
    fn put(&mut self, value: f64) {
        self.write(value);
    }

    fn decode<C: Codec + ?Sized>(
        codec: &C,
        bytes: &[u8],
        out: &mut [MaybeUninit<f64>],
    ) -> Result<(), CodecError> {
        codec.decompress_uninit(bytes, out)
    }
}

/// A floating-point (de)compressor.
///
/// `compress` maps a slice of doubles to an opaque byte stream;
/// `decompress` inverts it given the original element count (Canopus always
/// knows the count from the ADIOS metadata, as real ZFP does from the field
/// dimensions). A decode into a caller's buffer is
/// [`decompress_into`](Codec::decompress_into) for an initialised one and
/// [`decompress_uninit`](Codec::decompress_uninit) for spare capacity;
/// every codec of this crate runs one loop behind both, and writes
/// whole 4-value blocks (`ZfpLike`) or single values in stream order.
pub trait Codec: Send + Sync {
    /// Short stable identifier (used in metadata and reports).
    fn name(&self) -> &'static str;

    /// Compress `data` into a self-contained byte stream.
    fn compress(&self, data: &[f64]) -> Result<Vec<u8>, CodecError>;

    /// Decompress a stream produced by [`Codec::compress`] back into
    /// exactly `n` values.
    fn decompress(&self, bytes: &[u8], n: usize) -> Result<Vec<f64>, CodecError>;

    /// Decompress into a caller-provided buffer whose length is the
    /// element count, avoiding the output allocation. The default
    /// delegates to [`Codec::decompress`]; hot codecs override it with a
    /// genuinely allocation-free path so decode arenas can recycle
    /// buffers across blocks.
    fn decompress_into(&self, bytes: &[u8], out: &mut [f64]) -> Result<(), CodecError> {
        let v = self.decompress(bytes, out.len())?;
        out.copy_from_slice(&v);
        Ok(())
    }

    /// [`Codec::decompress_into`] for a buffer that need not be
    /// initialised, such as a `Vec`'s spare capacity: on `Ok` every
    /// element of `out` holds its value, bit for bit what
    /// [`Codec::decompress`] returns; on `Err` any element may be left
    /// unwritten.
    fn decompress_uninit(
        &self,
        bytes: &[u8],
        out: &mut [MaybeUninit<f64>],
    ) -> Result<(), CodecError>;

    /// Whether decompression reproduces input bit-exactly.
    fn is_lossless(&self) -> bool;

    /// The guaranteed absolute error bound (`0.0` for lossless codecs).
    fn error_bound(&self) -> f64;
}

/// Boxed codecs are codecs, so adaptors like [`Chunked`] can wrap a
/// runtime-selected `Box<dyn Codec>` (or an [`ObservedCodec`] holding
/// one) without knowing the concrete type.
impl<C: Codec + ?Sized> Codec for Box<C> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn compress(&self, data: &[f64]) -> Result<Vec<u8>, CodecError> {
        (**self).compress(data)
    }

    fn decompress(&self, bytes: &[u8], n: usize) -> Result<Vec<f64>, CodecError> {
        (**self).decompress(bytes, n)
    }

    fn decompress_into(&self, bytes: &[u8], out: &mut [f64]) -> Result<(), CodecError> {
        (**self).decompress_into(bytes, out)
    }

    fn decompress_uninit(
        &self,
        bytes: &[u8],
        out: &mut [MaybeUninit<f64>],
    ) -> Result<(), CodecError> {
        (**self).decompress_uninit(bytes, out)
    }

    fn is_lossless(&self) -> bool {
        (**self).is_lossless()
    }

    fn error_bound(&self) -> f64 {
        (**self).error_bound()
    }
}

/// Bit set in a stored block's `codec_id` when the payload is a
/// [`Chunked`] stream wrapping the base codec identified by the low
/// bits. Kept here (not sniffed from stream magic) because a raw stream
/// of arbitrary f64 bytes can start with any byte value.
pub const CHUNKED_CODEC_ID_FLAG: u8 = 0x80;

/// Which codec to use, as plain data (for configs and metadata).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CodecKind {
    /// ZFP-family fixed-accuracy codec with the given absolute tolerance.
    ZfpLike { tolerance: f64 },
    /// SZ-family error-bounded codec with the given absolute bound.
    SzLike { error_bound: f64 },
    /// Lossless FPC.
    Fpc,
    /// Store raw little-endian bytes (the "None" baseline of the paper's
    /// Figs. 9–11).
    Raw,
}

impl CodecKind {
    /// Instantiate the codec.
    pub fn build(&self) -> Box<dyn Codec> {
        match *self {
            CodecKind::ZfpLike { tolerance } => Box::new(ZfpLike::with_tolerance(tolerance)),
            CodecKind::SzLike { error_bound } => Box::new(SzLike::with_error_bound(error_bound)),
            CodecKind::Fpc => Box::new(Fpc::new()),
            CodecKind::Raw => Box::new(RawCodec),
        }
    }

    /// Instantiate the codec as a statically dispatched [`AnyCodec`] —
    /// no heap allocation, suitable for per-block construction on the
    /// decode hot path.
    pub fn build_any(&self) -> AnyCodec {
        match *self {
            CodecKind::ZfpLike { tolerance } => AnyCodec::Zfp(ZfpLike::with_tolerance(tolerance)),
            CodecKind::SzLike { error_bound } => {
                AnyCodec::Sz(SzLike::with_error_bound(error_bound))
            }
            CodecKind::Fpc => AnyCodec::Fpc(Fpc::new()),
            CodecKind::Raw => AnyCodec::Raw(RawCodec),
        }
    }

    /// The codec [`Self::id`] names, with its parameter (ignored by the
    /// lossless ones); `None` for an id no codec has.
    pub fn from_id(id: u8, param: f64) -> Option<Self> {
        match id {
            0 => Some(CodecKind::Raw),
            1 => Some(CodecKind::ZfpLike { tolerance: param }),
            2 => Some(CodecKind::SzLike { error_bound: param }),
            3 => Some(CodecKind::Fpc),
            _ => None,
        }
    }

    /// Stable identifier for serialization.
    pub fn id(&self) -> u8 {
        match self {
            CodecKind::ZfpLike { .. } => 1,
            CodecKind::SzLike { .. } => 2,
            CodecKind::Fpc => 3,
            CodecKind::Raw => 0,
        }
    }
}

/// Identity codec: raw little-endian f64 bytes.
#[derive(Debug, Clone, Copy, Default)]
pub struct RawCodec;

impl Codec for RawCodec {
    fn name(&self) -> &'static str {
        "raw"
    }

    fn compress(&self, data: &[f64]) -> Result<Vec<u8>, CodecError> {
        let mut out = Vec::with_capacity(data.len() * 8);
        for v in data {
            out.extend_from_slice(&v.to_le_bytes());
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
        true
    }

    fn error_bound(&self) -> f64 {
        0.0
    }
}

impl RawCodec {
    /// The one decode loop behind both entry points.
    fn decode<T: Slot>(&self, bytes: &[u8], out: &mut [T]) -> Result<(), CodecError> {
        if bytes.len() != out.len() * 8 {
            return Err(CodecError::Corrupt(format!(
                "raw stream is {} bytes, expected {}",
                bytes.len(),
                out.len() * 8
            )));
        }
        for (o, c) in out.iter_mut().zip(bytes.chunks_exact(8)) {
            o.put(f64::from_le_bytes(c.try_into().expect("chunk of 8")));
        }
        Ok(())
    }
}

/// A statically dispatched union of the block codecs.
///
/// The decode hot path constructs one of these per block from the stored
/// `codec_id`; unlike [`CodecKind::build`] there is no `Box<dyn Codec>`
/// heap allocation, and every [`Codec`] method monomorphizes down to a
/// four-way match.
#[derive(Debug, Clone, Copy)]
pub enum AnyCodec {
    Zfp(ZfpLike),
    Sz(SzLike),
    Fpc(Fpc),
    Raw(RawCodec),
}

macro_rules! any_dispatch {
    ($self:expr, $c:ident => $body:expr) => {
        match $self {
            AnyCodec::Zfp($c) => $body,
            AnyCodec::Sz($c) => $body,
            AnyCodec::Fpc($c) => $body,
            AnyCodec::Raw($c) => $body,
        }
    };
}

impl Codec for AnyCodec {
    fn name(&self) -> &'static str {
        any_dispatch!(self, c => c.name())
    }

    fn compress(&self, data: &[f64]) -> Result<Vec<u8>, CodecError> {
        any_dispatch!(self, c => c.compress(data))
    }

    fn decompress(&self, bytes: &[u8], n: usize) -> Result<Vec<f64>, CodecError> {
        any_dispatch!(self, c => c.decompress(bytes, n))
    }

    fn decompress_into(&self, bytes: &[u8], out: &mut [f64]) -> Result<(), CodecError> {
        any_dispatch!(self, c => c.decompress_into(bytes, out))
    }

    fn decompress_uninit(
        &self,
        bytes: &[u8],
        out: &mut [MaybeUninit<f64>],
    ) -> Result<(), CodecError> {
        any_dispatch!(self, c => c.decompress_uninit(bytes, out))
    }

    fn is_lossless(&self) -> bool {
        any_dispatch!(self, c => c.is_lossless())
    }

    fn error_bound(&self) -> f64 {
        any_dispatch!(self, c => c.error_bound())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_roundtrip() {
        let data = vec![1.5, -2.25, 0.0, f64::MIN_POSITIVE, 1e300];
        let c = RawCodec;
        let bytes = c.compress(&data).unwrap();
        assert_eq!(bytes.len(), data.len() * 8);
        assert_eq!(c.decompress(&bytes, data.len()).unwrap(), data);
    }

    #[test]
    fn raw_rejects_wrong_length() {
        let c = RawCodec;
        assert!(c.decompress(&[0u8; 9], 1).is_err());
    }

    #[test]
    fn kind_builds_matching_codec() {
        assert_eq!(CodecKind::Raw.build().name(), "raw");
        assert_eq!(
            CodecKind::ZfpLike { tolerance: 1e-6 }.build().name(),
            "zfp-like"
        );
        assert_eq!(
            CodecKind::SzLike { error_bound: 1e-6 }.build().name(),
            "sz-like"
        );
        assert_eq!(CodecKind::Fpc.build().name(), "fpc");
    }

    #[test]
    fn build_any_matches_boxed_streams() {
        let data: Vec<f64> = (0..300).map(|i| (i as f64 * 0.1).cos() * 7.0).collect();
        for kind in [
            CodecKind::Raw,
            CodecKind::Fpc,
            CodecKind::ZfpLike { tolerance: 1e-7 },
            CodecKind::SzLike { error_bound: 1e-7 },
        ] {
            let boxed = kind.build();
            let any = kind.build_any();
            assert_eq!(any.name(), boxed.name());
            assert_eq!(any.is_lossless(), boxed.is_lossless());
            assert_eq!(any.error_bound(), boxed.error_bound());
            let bytes = boxed.compress(&data).unwrap();
            assert_eq!(any.compress(&data).unwrap(), bytes, "{}", any.name());
            let via_box = boxed.decompress(&bytes, data.len()).unwrap();
            let mut via_any = vec![0.0; data.len()];
            any.decompress_into(&bytes, &mut via_any).unwrap();
            assert_eq!(
                via_box.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                via_any.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
            assert_eq!(CodecKind::from_id(kind.id(), any.error_bound()), Some(kind));
        }
        assert_eq!(CodecKind::from_id(4, 0.0), None);
    }

    #[test]
    fn kind_ids_are_distinct() {
        let ids = [
            CodecKind::Raw.id(),
            CodecKind::ZfpLike { tolerance: 1.0 }.id(),
            CodecKind::SzLike { error_bound: 1.0 }.id(),
            CodecKind::Fpc.id(),
        ];
        let mut sorted = ids.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len());
    }
}
