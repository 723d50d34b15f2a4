//! Hostile input for every decoder: the lane-major `ZfpLike`, `SzLike`
//! and `Fpc`.
//!
//! Bytes from a tier are checksum-verified before they reach a codec,
//! but a decoder must not rely on that: a stream cut at any byte, with a
//! few bits flipped, or made of junk has to come back as `Err` or as
//! well-formed output — never a panic, a hang, or memory sized by what
//! the stream says. A counting allocator bounds every hostile decode: to
//! an error message's worth of heap where the decoder needs none of its
//! own, and for `SzLike` to its fixed lookup table plus a small multiple
//! of the stream's size (its Huffman table is stored in the stream at
//! five bytes an entry). Crafted block headers hit each check the
//! lane-major decoder makes, on the unchecked path (spare bytes behind
//! the block) and on the padded one, and the two paths must agree on
//! every valid stream; crafted Huffman tables and lengths hit `SzLike`'s.
//! Every decode runs through both entry points, `decompress_into` and
//! `decompress_uninit` (a `Vec`'s spare capacity), which must agree.

use canopus_compress::bitstream::BitWriter;
use canopus_compress::{Codec, CodecError, Fpc, SzLike, ZfpLike};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOC_BYTES: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.with(|c| c.set(c.get() + layout.size()));
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// An error's message is all a hostile decode may allocate.
const HOSTILE_ALLOC_LIMIT: usize = 512;

/// Decode `bytes` into `n` values: `Ok` must fill the caller's buffer
/// and nothing else; either way the heap stays untouched but for the
/// error's text.
fn decode_bounded(codec: &dyn Codec, bytes: &[u8], n: usize) -> Result<Vec<f64>, CodecError> {
    decode_within(codec, bytes, n, HOSTILE_ALLOC_LIMIT)
}

/// [`decode_bounded`] for a decoder with tables of its own: everything
/// it allocates on the way, freed or not, stays within `limit` bytes.
///
/// Every stream goes through both entry points: `decompress_into` on an
/// initialised buffer, and `decompress_uninit` on a `Vec`'s spare
/// capacity. They must fail with the same error or decode the same bits.
fn decode_within(
    codec: &dyn Codec,
    bytes: &[u8],
    n: usize,
    limit: usize,
) -> Result<Vec<f64>, CodecError> {
    let within = |decode: &mut dyn FnMut() -> Result<(), CodecError>| {
        let before = ALLOC_BYTES.with(Cell::get);
        let result = decode();
        let grew = ALLOC_BYTES.with(Cell::get) - before;
        assert!(
            grew <= limit,
            "decode allocated {grew} B for a {} B stream",
            bytes.len()
        );
        result
    };
    let mut out = vec![f64::NAN; n];
    let result = within(&mut || codec.decompress_into(bytes, &mut out));
    let mut spare: Vec<f64> = Vec::with_capacity(n);
    let uninit =
        within(&mut || codec.decompress_uninit(bytes, &mut spare.spare_capacity_mut()[..n]));
    match (&result, uninit) {
        (Ok(()), Ok(())) => {
            // SAFETY: `decompress_uninit` returned `Ok`, so it wrote all
            // of the first `n` elements of the spare capacity.
            unsafe { spare.set_len(n) };
            assert_eq!(bits(&spare), bits(&out), "the two entry points");
        }
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "the two entry points"),
        (a, b) => panic!("decompress_into gave {a:?}, decompress_uninit {b:?}"),
    }
    result.map(|()| out)
}

/// What an `SzLike` decode may allocate for a stream of `len` bytes: the
/// 2^11-entry prefix lookup (16 KiB) and the error's text, plus — per
/// five-byte table entry the stream really holds — the parsed entry and
/// its place in the canonical order.
fn sz_limit(len: usize) -> usize {
    (17 << 10) + 4 * len
}

fn sz_bounded(bytes: &[u8], n: usize) -> Result<Vec<f64>, CodecError> {
    decode_within(
        &SzLike::with_error_bound(1.0),
        bytes,
        n,
        sz_limit(bytes.len()),
    )
}

/// `Fpc` decodes through two predictor tables its thread allocates once
/// (1 MiB, whatever the stream says) and nothing else: after one decode
/// to warm them up, the error-message limit applies.
fn fpc_bounded(bytes: &[u8], n: usize) -> Result<Vec<f64>, CodecError> {
    let _ = Fpc::new().decompress_into(&[], &mut []);
    decode_bounded(&Fpc::new(), bytes, n)
}

fn arb_values() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(
        prop_oneof![-1e3f64..1e3, -1e-3f64..1e-3, -1e300f64..1e300, Just(0.0f64),],
        0..400,
    )
}

fn arb_flips() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..1 << 20, 0..5)
}

fn flip(bytes: &mut [u8], flips: &[usize]) {
    for &f in flips {
        if !bytes.is_empty() {
            let bit = f % (bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The checks shared by both decoders' hostile-stream properties.
fn check_hostile(
    codec: &dyn Codec,
    stream: &[u8],
    n: usize,
    cut: usize,
    flips: &[usize],
) -> Result<(), TestCaseError> {
    // As written: both paths decode it to the same values.
    let plain = decode_bounded(codec, stream, n).expect("a stream decodes");
    let mut spare = stream.to_vec();
    spare.resize(stream.len() + 64, 0);
    let padded = decode_bounded(codec, &spare, n).expect("trailing bytes are ignored");
    prop_assert_eq!(bits(&plain), bits(&padded));

    // Cut at any byte, then 0-4 bit flips: an error or `n` values.
    let mut hostile = stream[..cut.min(stream.len())].to_vec();
    flip(&mut hostile, flips);
    if let Ok(values) = decode_bounded(codec, &hostile, n) {
        prop_assert_eq!(values.len(), n);
        // Whatever decodes without spare bytes decodes the same with
        // them: the unchecked path reads the bits the padded one read.
        hostile.resize(hostile.len() + 64, 0);
        let again = decode_bounded(codec, &hostile, n).expect("spare bytes cannot hurt");
        prop_assert_eq!(bits(&values), bits(&again));
    }
    Ok(())
}

proptest! {
    #[test]
    fn zfp_like_survives_cuts_and_bit_flips(
        data in arb_values(),
        tol_exp in -9i32..0,
        cut in 0usize..4096,
        flips in arb_flips(),
    ) {
        let codec = ZfpLike::with_tolerance(10f64.powi(tol_exp));
        let stream = codec.compress(&data).unwrap();
        check_hostile(&codec, &stream, data.len(), cut, &flips)?;
    }

    /// Junk behind a valid stream header: the block parser sees random
    /// class bits, exponents, widths and lengths.
    #[test]
    fn junk_blocks_error_or_decode(
        junk in proptest::collection::vec(any::<u8>(), 0..600),
        n in 0usize..500,
        tol_exp in -12i32..3,
    ) {
        let tol = 10f64.powi(tol_exp);
        let mut stream = ZfpLike::with_tolerance(tol).compress(&[]).unwrap();
        stream.extend_from_slice(&junk);
        let _ = decode_bounded(&ZfpLike::with_tolerance(1.0), &stream, n);

        // And junk from the first byte on.
        let _ = decode_bounded(&ZfpLike::with_tolerance(1.0), &junk, n);
    }
}

/// The checks shared by the `SzLike` and `Fpc` properties: the stream as
/// written decodes within `bounded`'s limit to `expect`; cut at any byte
/// and bit-flipped it is an error or `n` values.
fn check_cut_and_flipped(
    bounded: fn(&[u8], usize) -> Result<Vec<f64>, CodecError>,
    stream: &[u8],
    expect: &[f64],
    tolerance: f64,
    cut: usize,
    flips: &[usize],
) -> Result<(), TestCaseError> {
    let n = expect.len();
    let plain = bounded(stream, n).expect("a stream decodes");
    for (a, b) in plain.iter().zip(expect) {
        prop_assert!(a.to_bits() == b.to_bits() || (a - b).abs() <= tolerance);
    }
    let mut hostile = stream[..cut.min(stream.len())].to_vec();
    flip(&mut hostile, flips);
    if let Ok(values) = bounded(&hostile, n) {
        prop_assert_eq!(values.len(), n);
    }
    // The asked length is the caller's, not the stream's.
    for other in [0, n / 2, n + 1, 4 * n + 7] {
        if let Ok(values) = bounded(stream, other) {
            prop_assert_eq!(values.len(), other);
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn sz_like_survives_cuts_and_bit_flips(
        data in arb_values(),
        bound_exp in -9i32..0,
        cut in 0usize..4096,
        flips in arb_flips(),
    ) {
        let bound = 10f64.powi(bound_exp);
        let stream = SzLike::with_error_bound(bound).compress(&data).unwrap();
        check_cut_and_flipped(sz_bounded, &stream, &data, bound, cut, &flips)?;
    }

    #[test]
    fn fpc_survives_cuts_and_bit_flips(
        data in arb_values(),
        cut in 0usize..4096,
        flips in arb_flips(),
    ) {
        let stream = Fpc::new().compress(&data).unwrap();
        check_cut_and_flipped(fpc_bounded, &stream, &data, 0.0, cut, &flips)?;
    }

    /// Junk behind a valid header, and from the first byte on: `SzLike`
    /// reads a table count, entries, a literal count and a payload
    /// length out of it, `Fpc` a header-block length and nibbles.
    #[test]
    fn junk_behind_sz_and_fpc_headers_errors_or_decodes(
        junk in proptest::collection::vec(any::<u8>(), 0..600),
        n in 0usize..500,
    ) {
        let mut sz = vec![0xC3, 1];
        sz.extend_from_slice(&1e-3f64.to_le_bytes());
        sz.extend_from_slice(&junk);
        let _ = sz_bounded(&sz, n);
        let _ = sz_bounded(&junk, n);

        let mut fpc = vec![0xC4, 1];
        fpc.extend_from_slice(&(n.div_ceil(2) as u64).to_le_bytes());
        fpc.extend_from_slice(&junk);
        if let Ok(values) = fpc_bounded(&fpc, n) {
            prop_assert_eq!(values.len(), n);
        }
        let _ = fpc_bounded(&junk, n);
    }
}

/// An `SzLike` stream by hand: error bound 1, the Huffman `table` as
/// `(symbol, length)` entries, no literals, then `payload` under the
/// length `payload_len` claims for it.
fn sz_stream(table: &[(u32, u8)], payload_len: u64, payload: &[u8]) -> Vec<u8> {
    let mut bytes = vec![0xC3, 1];
    bytes.extend_from_slice(&1f64.to_le_bytes());
    bytes.extend_from_slice(&(table.len() as u32).to_le_bytes());
    for &(symbol, len) in table {
        bytes.extend_from_slice(&symbol.to_le_bytes());
        bytes.push(len);
    }
    bytes.extend_from_slice(&0u32.to_le_bytes());
    bytes.extend_from_slice(&payload_len.to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

#[test]
fn crafted_huffman_tables_neither_hang_nor_panic() {
    let corrupt = |bytes: &[u8], n: usize, what: &str| {
        let result = sz_bounded(bytes, n);
        assert!(
            matches!(result, Err(CodecError::Corrupt(_))),
            "{what}: {result:?}"
        );
    };
    // Code 32768 is "the previous value again". One symbol of length 64:
    // each value costs 64 zero bits, and the payload runs out — after
    // at most a bit per bit of it — instead of spinning.
    let lone = [(32768, 64)];
    let decoded = sz_bounded(&sz_stream(&lone, 16, &[0; 16]), 2).expect("two 64-bit codes");
    assert_eq!(decoded, [0.0, 0.0]);
    corrupt(&sz_stream(&lone, 16, &[0; 16]), 3, "payload exhausted");
    corrupt(&sz_stream(&lone, 16, &[0xFF; 16]), 2, "no such code");
    // A complete table whose canonical codes end on 2^64.
    let mut deep: Vec<(u32, u8)> = (1..=64u8).map(|len| (32768, len)).collect();
    deep.push((32768, 64));
    let zeros = sz_bounded(&sz_stream(&deep, 4, &[0; 4]), 32).expect("32 one-bit codes");
    assert_eq!(zeros, [0.0; 32]);
    let ones = sz_bounded(&sz_stream(&deep, 16, &[0xFF; 16]), 2).expect("two all-ones codes");
    assert_eq!(ones, [0.0; 2]);
    // Tables that fail Kraft, have a zero or a 65-bit length, or are
    // empty although values are asked for.
    corrupt(
        &sz_stream(&[(1, 1), (2, 1), (3, 1)], 8, &[0; 8]),
        4,
        "Kraft",
    );
    corrupt(&sz_stream(&[(1, 0)], 8, &[0; 8]), 4, "zero length");
    corrupt(&sz_stream(&[(1, 65)], 8, &[0; 8]), 4, "65-bit length");
    corrupt(&sz_stream(&[], 8, &[0; 8]), 4, "empty table");
    assert_eq!(
        sz_bounded(&sz_stream(&[], 0, &[]), 0).expect("nothing to decode"),
        Vec::<f64>::new()
    );
    // A payload length that is `u64::MAX`, wraps the cursor to just
    // inside the stream, or runs one byte past the payload.
    let at = sz_stream(&lone, 0, &[]).len();
    for len in [u64::MAX, u64::MAX - at as u64 + 1, 1 << 63, 17] {
        corrupt(&sz_stream(&lone, len, &[0; 16]), 2, "payload length");
    }
    // A table count the stream cannot back allocates nothing for it.
    let mut lying = sz_stream(&lone, 16, &[0; 16]);
    for count in [u32::MAX, u32::MAX / 5 + 1, 1 << 20] {
        lying[10..14].copy_from_slice(&count.to_le_bytes());
        corrupt(&lying, 2, "table count");
    }
}

#[test]
fn fpc_header_checks_hold() {
    let values = [1.5, -2.25, 1e300, 0.0, f64::INFINITY];
    let good = Fpc::new().compress(&values).unwrap();
    assert_eq!(
        bits(&fpc_bounded(&good, values.len()).unwrap()),
        bits(&values)
    );
    // Cut anywhere, the stream is an error, never a short read.
    for cut in 0..good.len() {
        assert!(
            fpc_bounded(&good[..cut], values.len()).is_err(),
            "cut at {cut}"
        );
    }
    // The header-block length must be the asked length's, whatever it
    // claims: `u64::MAX` and friends are refused before any slicing.
    for len in [u64::MAX, u64::MAX - 9, 1 << 63, 0, 2, 4] {
        let mut bytes = good.clone();
        bytes[2..10].copy_from_slice(&len.to_le_bytes());
        let result = fpc_bounded(&bytes, values.len());
        assert!(
            matches!(result, Err(CodecError::Corrupt(_))),
            "{len}: {result:?}"
        );
    }
    for (at, what) in [(0, "magic"), (1, "version")] {
        let mut bytes = good.clone();
        bytes[at] ^= 0x10;
        assert!(fpc_bounded(&bytes, values.len()).is_err(), "{what}");
    }
}

/// Start a stream by hand.
fn stream_header(version: u8, tolerance: f64) -> BitWriter {
    let mut w = BitWriter::new();
    w.write_bits(0xC2, 8);
    w.write_bits(version as u64, 8);
    w.write_bits(tolerance.to_bits(), 64);
    w
}

/// Decode a hand-made stream as four values through `ZfpLike`.
fn decode_crafted(bytes: &[u8]) -> Result<Vec<f64>, CodecError> {
    decode_bounded(&ZfpLike::with_tolerance(1.0), bytes, 4)
}

/// A coded block's header: class bits `00`, the biased exponent, `nmax`.
fn coded_header(w: &mut BitWriter, emax: i32, nmax: u64) {
    w.write_bits(0b00, 2);
    w.write_bits((emax + 1100) as u64, 12);
    w.write_bits(nmax, 6);
}

/// The lanes of a `ZfpLike` block.
const LANES: usize = 4;

/// Decode one crafted block as the first of a stream, as written and
/// with spare zero bytes behind it (which put the block on the unchecked
/// path): both must be `Corrupt`.
fn assert_block_is_corrupt(what: &str, tolerance: f64, block: impl Fn(&mut BitWriter, usize)) {
    let mut w = stream_header(2, tolerance);
    block(&mut w, LANES);
    let exact = w.into_bytes();
    let mut spare = exact.clone();
    spare.resize(exact.len() + 256, 0);
    for bytes in [&exact, &spare] {
        let result = decode_crafted(bytes);
        assert!(
            matches!(result, Err(CodecError::Corrupt(_))),
            "{what}, {} B: {result:?}",
            bytes.len()
        );
    }
}

#[test]
fn crafted_block_headers_are_corrupt() {
    // A coded block of width zero (the encoder writes that as the
    // one-bit zero class).
    assert_block_is_corrupt("nmax = 0", 1e-6, |w, lanes| {
        coded_header(w, 0, 0);
        w.write_bits(0, lanes as u32);
    });
    // Tolerance 1 and a tiny block exponent put the cutoff at plane 62:
    // three more planes do not fit a 64-bit coefficient.
    assert_block_is_corrupt("nmax + cutoff > 64", 1.0, |w, lanes| {
        coded_header(w, -1000, 3);
        w.write_bits(0, 2 * lanes as u32);
    });
    // Width 5 stores lengths in three bits; 7 is not a length it has.
    assert_block_is_corrupt("length above nmax", 1e-6, |w, lanes| {
        coded_header(w, 0, 5);
        for k in 0..lanes {
            w.write_bits(if k == lanes - 1 { 7 } else { 1 }, 3);
        }
    });
}

#[test]
fn a_lane_running_past_the_buffer_is_corrupt() {
    // Every lane claims the block's full 40 bits; the stream ends with
    // the length field. (Spare bytes would make this a valid block, so
    // only the padded path can see it.)
    let mut w = stream_header(2, 1e-6);
    coded_header(&mut w, 0, 40);
    w.write_bits(0, 4 * LANES as u32);
    let bytes = w.into_bytes();
    let result = decode_crafted(&bytes);
    assert!(matches!(result, Err(CodecError::Corrupt(_))), "{result:?}");
}

#[test]
fn stream_header_checks_hold() {
    let decode = |w: BitWriter| {
        let mut bytes = w.into_bytes();
        bytes.resize(bytes.len() + 64, 0xFF); // all-zero blocks
        decode_crafted(&bytes)
    };
    // The well-formed header decodes (to the zero blocks behind it).
    assert_eq!(decode(stream_header(2, 1e-3)).unwrap(), vec![0.0; LANES]);
    // Retired and unknown versions.
    for version in [0, 1, 3, 255] {
        let err = decode(stream_header(version, 1e-3)).unwrap_err();
        assert!(matches!(err, CodecError::Corrupt(_)), "{err}");
        assert_eq!(version == 1, err.to_string().contains("retired"), "{err}");
    }
    // A tolerance no encoder accepts.
    for tolerance in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        let err = decode(stream_header(2, tolerance)).unwrap_err();
        assert!(err.to_string().contains("tolerance"), "{err}");
    }
    // A header cut short, byte by byte.
    let whole = stream_header(2, 1e-3).into_bytes();
    for cut in 0..whole.len() {
        assert!(
            decode_crafted(&whole[..cut]).is_err(),
            "header cut at {cut}"
        );
    }
    // Another codec's magic.
    let mut other = stream_header(2, 1e-3).into_bytes();
    other[0] = 0xC5;
    other.resize(other.len() + 64, 0xFF);
    assert!(decode_crafted(&other).is_err());
}
