//! Metrics-aware codec adaptor.
//!
//! [`ObservedCodec`] wraps any [`Codec`] and reports per-codec input and
//! output byte counts to a [`canopus_obs::Registry`], from which the
//! compression ratios of the paper's Figs. 5–8 fall out directly
//! (`compress.<codec>.bytes_in / compress.<codec>.bytes_out`). The wrapper
//! is transparent: same name, same bound, same streams.
//!
//! The inner codec is a generic parameter (defaulting to `Box<dyn Codec>`
//! for existing call sites), so hot paths that know their concrete codec —
//! e.g. the read path's [`crate::AnyCodec`] — keep static dispatch and
//! avoid a per-block box allocation.

use crate::{Codec, CodecError};
use canopus_obs::{names, Counter, Registry};
use std::mem::MaybeUninit;
use std::sync::Arc;

/// A [`Codec`] that records its traffic in an observability registry.
///
/// Its counters are looked up once, in [`ObservedCodec::new`], so a
/// (de)compression adds to them without formatting a name or taking
/// the registry's lock.
pub struct ObservedCodec<C: Codec = Box<dyn Codec>> {
    inner: C,
    compress_calls: Arc<Counter>,
    compress_bytes_in: Arc<Counter>,
    compress_bytes_out: Arc<Counter>,
    decompress_bytes_in: Arc<Counter>,
    decompress_values_out: Arc<Counter>,
}

impl<C: Codec> ObservedCodec<C> {
    pub fn new(inner: C, obs: Arc<Registry>) -> Self {
        let codec = inner.name();
        Self {
            compress_calls: obs.counter(&names::compress_calls(codec)),
            compress_bytes_in: obs.counter(&names::compress_bytes_in(codec)),
            compress_bytes_out: obs.counter(&names::compress_bytes_out(codec)),
            decompress_bytes_in: obs.counter(&names::decompress_bytes_in(codec)),
            decompress_values_out: obs.counter(&names::decompress_values_out(codec)),
            inner,
        }
    }

    /// The wrapped codec.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    fn record_decompress(&self, bytes_in: usize, values_out: usize) {
        self.decompress_bytes_in.add(bytes_in as u64);
        self.decompress_values_out.add(values_out as u64);
    }
}

impl<C: Codec> Codec for ObservedCodec<C> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn compress(&self, data: &[f64]) -> Result<Vec<u8>, CodecError> {
        let out = self.inner.compress(data)?;
        self.compress_calls.inc();
        self.compress_bytes_in.add((data.len() * 8) as u64);
        self.compress_bytes_out.add(out.len() as u64);
        Ok(out)
    }

    fn decompress(&self, bytes: &[u8], n: usize) -> Result<Vec<f64>, CodecError> {
        let values = self.inner.decompress(bytes, n)?;
        self.record_decompress(bytes.len(), values.len());
        Ok(values)
    }

    fn decompress_into(&self, bytes: &[u8], out: &mut [f64]) -> Result<(), CodecError> {
        self.inner.decompress_into(bytes, out)?;
        self.record_decompress(bytes.len(), out.len());
        Ok(())
    }

    fn decompress_uninit(
        &self,
        bytes: &[u8],
        out: &mut [MaybeUninit<f64>],
    ) -> Result<(), CodecError> {
        self.inner.decompress_uninit(bytes, out)?;
        self.record_decompress(bytes.len(), out.len());
        Ok(())
    }

    fn is_lossless(&self) -> bool {
        self.inner.is_lossless()
    }

    fn error_bound(&self) -> f64 {
        self.inner.error_bound()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CodecKind, RawCodec};

    #[test]
    fn records_compress_and_decompress_traffic() {
        let obs = Arc::new(Registry::new());
        let c: ObservedCodec = ObservedCodec::new(Box::new(RawCodec), Arc::clone(&obs));
        let data = vec![1.0, 2.0, 3.0];
        let bytes = c.compress(&data).unwrap();
        let back = c.decompress(&bytes, data.len()).unwrap();
        assert_eq!(back, data);

        let snap = obs.snapshot();
        assert_eq!(snap.counter(&names::compress_calls("raw")), 1);
        assert_eq!(snap.compress_bytes_in("raw"), 24);
        assert_eq!(snap.compress_bytes_out("raw"), 24);
        assert_eq!(snap.counter(&names::decompress_bytes_in("raw")), 24);
        assert_eq!(snap.counter(&names::decompress_values_out("raw")), 3);
        let ratio = snap.compression_ratio("raw").unwrap();
        assert!((ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    fn decompress_into_records_same_traffic() {
        let obs = Arc::new(Registry::new());
        let c = ObservedCodec::new(RawCodec, Arc::clone(&obs));
        let data = vec![4.0, 5.0];
        let bytes = c.compress(&data).unwrap();
        let mut out = vec![0.0; data.len()];
        c.decompress_into(&bytes, &mut out).unwrap();
        assert_eq!(out, data);
        let snap = obs.snapshot();
        assert_eq!(snap.counter(&names::decompress_bytes_in("raw")), 16);
        assert_eq!(snap.counter(&names::decompress_values_out("raw")), 2);
    }

    #[test]
    fn wrapper_is_transparent() {
        let obs = Arc::new(Registry::new());
        let inner = CodecKind::ZfpLike { tolerance: 1e-6 }.build();
        let bound = inner.error_bound();
        let c = ObservedCodec::new(inner, obs);
        assert_eq!(c.name(), "zfp-like");
        assert!(!c.is_lossless());
        assert_eq!(c.error_bound(), bound);
        let data: Vec<f64> = (0..64).map(|i| (i as f64).sin()).collect();
        let bytes = c.compress(&data).unwrap();
        let back = c.decompress(&bytes, data.len()).unwrap();
        for (a, b) in data.iter().zip(&back) {
            assert!((a - b).abs() <= 1e-6);
        }
    }

    #[test]
    fn generic_inner_keeps_static_dispatch() {
        // Compiles with a concrete (unboxed) inner codec; `inner()`
        // returns the concrete type.
        let obs = Arc::new(Registry::new());
        let c = ObservedCodec::new(crate::CodecKind::Fpc.build_any(), obs);
        assert_eq!(c.inner().name(), "fpc");
        let data = vec![1.0, 2.0, 3.0, 4.0];
        let bytes = c.compress(&data).unwrap();
        assert_eq!(c.decompress(&bytes, 4).unwrap(), data);
    }
}
