//! `Codec::decompress_uninit` writes what `Codec::decompress` returns.
//!
//! A reader decodes a level's tiles straight into the spare capacity of
//! a buffer it never filled, so the entry point must write every element
//! it is handed, bit for bit the value `decompress` gives. Each codec
//! (and each adaptor around one) is checked at lengths 1..=9, which end
//! inside and on `ZfpLike`'s 4-value blocks, and 253..=261, across the
//! 256-value runs it stages blocks in. The spare capacity holds a
//! sentinel beforehand, so an element left unwritten shows.

use canopus_compress::{Chunked, Codec, CodecKind, ObservedCodec};
use canopus_obs::Registry;
use std::sync::Arc;

const KINDS: [CodecKind; 4] = [
    CodecKind::ZfpLike { tolerance: 1e-6 },
    CodecKind::SzLike { error_bound: 1e-6 },
    CodecKind::Fpc,
    CodecKind::Raw,
];

/// A bit pattern no codec here decodes these inputs to.
const SENTINEL: u64 = 0x7FF8_DEAD_BEEF_0001;

fn lengths() -> impl Iterator<Item = usize> {
    (1..=9).chain(253..=261)
}

fn field(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| (i as f64 * 0.37).sin() * 3.0 + (i % 5) as f64 * 1e-3)
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `bytes` decoded by `codec` into the spare capacity of a buffer whose
/// spare elements hold [`SENTINEL`].
fn decode_uninit(codec: &dyn Codec, bytes: &[u8], n: usize) -> Vec<f64> {
    let mut values = vec![f64::from_bits(SENTINEL); n];
    values.clear();
    codec
        .decompress_uninit(bytes, &mut values.spare_capacity_mut()[..n])
        .expect("decodes");
    // SAFETY: `decompress_uninit` returned `Ok`, so it wrote all of the
    // first `n` elements of the spare capacity.
    unsafe { values.set_len(n) };
    values
}

fn check(what: &str, codec: &dyn Codec, data: &[f64]) {
    let n = data.len();
    let bytes = codec.compress(data).expect("encodes");
    let want = codec.decompress(&bytes, n).expect("decodes");
    let got = decode_uninit(codec, &bytes, n);
    assert_eq!(bits(&got), bits(&want), "{what} n={n}");
    assert!(!bits(&got).contains(&SENTINEL), "{what} n={n}");
}

#[test]
fn every_codec_writes_decompress_bits_into_spare_capacity() {
    for kind in KINDS {
        for n in lengths() {
            let data = field(n);
            let name = kind.build().name();
            check(name, &kind.build_any(), &data);
            check(&format!("boxed {name}"), &kind.build(), &data);
            let observed = ObservedCodec::new(kind.build_any(), Arc::new(Registry::new()));
            check(&format!("observed {name}"), &observed, &data);
            // Chunks of 4, 7 and 256: whole blocks, ragged ones and a
            // full run per chunk.
            for grain in [4, 7, 256] {
                let chunked = Chunked::new(kind.build_any(), grain);
                check(&format!("{name} in chunks of {grain}"), &chunked, &data);
            }
        }
    }
}

#[test]
fn a_truncated_stream_is_an_error_through_spare_capacity_too() {
    for kind in KINDS {
        let codec = kind.build_any();
        for n in [9, 261] {
            let bytes = codec.compress(&field(n)).expect("encodes");
            let mut values: Vec<f64> = Vec::with_capacity(n);
            for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
                let result =
                    codec.decompress_uninit(&bytes[..cut], &mut values.spare_capacity_mut()[..n]);
                assert!(result.is_err(), "{} n={n} cut at {cut}", codec.name());
            }
        }
    }
}
