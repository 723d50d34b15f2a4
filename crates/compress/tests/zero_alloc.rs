//! Steady-state allocation-freedom of the hot decode paths.
//!
//! A counting `#[global_allocator]` wrapper tallies allocations made by
//! *this* thread; after a warmup call (which fills thread-local scratch
//! like FPC's predictor tables), `decompress_into` for the block codecs
//! must perform zero heap allocations — the property that lets the read
//! pipeline's decode arenas run without touching the allocator.

use canopus_compress::{Codec, Fpc, RawCodec, ZfpLike};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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
    let allocs = allocs_during(|| {
        for _ in 0..3 {
            codec.decompress_into(&bytes, &mut out).unwrap();
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
