//! Steady-state allocation-freedom of the hot decode paths.
//!
//! A counting `#[global_allocator]` wrapper tallies allocations made by
//! *this* thread; after a warmup call (which fills thread-local scratch
//! like FPC's predictor tables), `decompress_into` for the block codecs
//! must perform zero heap allocations — the property that lets the read
//! pipeline's decode arenas run without touching the allocator. So must
//! `decompress_uninit`, into a `Vec`'s spare capacity, and a decode
//! through the `ObservedCodec` the reader wraps every codec in.

use canopus_compress::{Codec, CodecKind, Fpc, ObservedCodec, RawCodec, ZfpLike};
use canopus_obs::Registry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct CountingAlloc;

thread_local! {
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made on this thread while running `f`.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOC_CALLS.with(Cell::get);
    f();
    ALLOC_CALLS.with(Cell::get) - before
}

fn field(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| (i as f64 * 0.013).sin() * 42.0 + (i as f64 * 0.0071).cos())
        .collect()
}

fn assert_steady_state_zero_alloc(name: &str, codec: &dyn Codec, data: &[f64]) {
    let bytes = codec.compress(data).unwrap();
    let mut out = vec![0.0; data.len()];
    // Warmup: populates any thread-local scratch (e.g. FPC's 2x512 KiB
    // predictor tables).
    codec.decompress_into(&bytes, &mut out).unwrap();
    let mut spare: Vec<f64> = Vec::with_capacity(data.len());
    let allocs = allocs_during(|| {
        for _ in 0..3 {
            codec.decompress_into(&bytes, &mut out).unwrap();
            codec
                .decompress_uninit(&bytes, &mut spare.spare_capacity_mut()[..data.len()])
                .unwrap();
        }
    });
    assert_eq!(allocs, 0, "{name}: steady-state decode must not allocate");
}

#[test]
fn zfp_like_decode_is_allocation_free() {
    let codec = ZfpLike::with_tolerance(1e-6);
    assert_steady_state_zero_alloc("zfp-like", &codec, &field(4097));
}

#[test]
fn fpc_decode_is_allocation_free() {
    let codec = Fpc::new();
    assert_steady_state_zero_alloc("fpc", &codec, &field(2048));
}

#[test]
fn raw_decode_is_allocation_free() {
    assert_steady_state_zero_alloc("raw", &RawCodec, &field(512));
}

#[test]
fn observed_decode_is_allocation_free() {
    // The reader decodes every stream through this wrapper; its counters
    // are looked up when it is made, not per decode.
    let data = field(4097);
    for kind in [
        CodecKind::ZfpLike { tolerance: 1e-6 },
        CodecKind::Fpc,
        CodecKind::Raw,
    ] {
        let obs = Arc::new(Registry::new());
        let codec = ObservedCodec::new(kind.build_any(), Arc::clone(&obs));
        assert_steady_state_zero_alloc(codec.name(), &codec, &data);
        let values = obs
            .snapshot()
            .counter(&canopus_obs::names::decompress_values_out(codec.name()));
        // The warm-up, then three rounds of both entry points.
        let decodes = 7;
        assert_eq!(values, decodes * data.len() as u64, "{}", codec.name());
    }
}
