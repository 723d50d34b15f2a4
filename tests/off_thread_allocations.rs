//! What the threads a caller did not start may allocate.
//!
//! Two places in the library do work for a caller on a thread of their
//! own and must not size memory there by what they are handed:
//!
//! * the geometry **loader** of a cold walk unpacks the target
//!   level's 40-odd bytes per vertex into arrays the *calling* thread
//!   allocated (a fresh thread's allocations land in a malloc arena of
//!   its own, on pages no earlier restore has touched: measured, that
//!   doubled `peak_rss_mib`) — so beside the caller a walk allocates
//!   next to nothing, on any of its threads;
//! * a telemetry endpoint's **handler** thread reads a request head
//!   through a byte cap, so a client that sends a megabyte without a
//!   newline costs it the cap, not the megabyte.
//!
//! A global allocator attributes every allocation to "the test's own
//! thread" (tagged through a thread-local) or "elsewhere". The two tests
//! share that ledger, so they take turns.

use canopus::telemetry::http_get;
use canopus::{Canopus, CanopusConfig, TelemetryConfig, TelemetryServer, TelemetrySources};
use canopus_data::xgc1_dataset_sized;
use canopus_obs::Registry;
use canopus_refactor::levels::RefactorConfig;
use canopus_storage::{ProductKind, StorageHierarchy, TierSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

struct ThreadTaggedAlloc;

thread_local! {
    /// Set on the threads the test itself runs on.
    static OWN_THREAD: Cell<bool> = const { Cell::new(false) };
}

/// Bytes ever allocated on tagged threads, and on all others.
static OWN: AtomicUsize = AtomicUsize::new(0);
static ELSEWHERE: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for ThreadTaggedAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // A thread past its thread-locals' destruction counts as foreign.
        let own = OWN_THREAD.try_with(Cell::get).unwrap_or(false);
        let ledger = if own { &OWN } else { &ELSEWHERE };
        ledger.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: ThreadTaggedAlloc = ThreadTaggedAlloc;

/// One test at a time reads the ledger.
static LEDGER: Mutex<()> = Mutex::new(());

/// Run `f` on this thread, tagged; returns its result and the bytes
/// allocated meanwhile here and elsewhere.
fn attributed<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let before = (
        OWN.load(Ordering::Relaxed),
        ELSEWHERE.load(Ordering::Relaxed),
    );
    OWN_THREAD.with(|own| own.set(true));
    let out = f();
    OWN_THREAD.with(|own| own.set(false));
    (
        out,
        OWN.load(Ordering::Relaxed) - before.0,
        ELSEWHERE.load(Ordering::Relaxed) - before.1,
    )
}

/// All a walk's other threads, or the endpoint's, may allocate.
const ELSEWHERE_LIMIT: usize = 64 << 10;

#[test]
fn a_cold_walks_arrays_are_allocated_by_its_caller() {
    let _turn = LEDGER.lock().unwrap_or_else(|e| e.into_inner());
    // 100k vertices on in-memory tiers: level 0 parses to ~4 MB.
    let ds = xgc1_dataset_sized(199, 500, 5);
    assert!(ds.mesh.num_vertices() >= 100_000);
    let tiers = (0..3)
        .map(|i| TierSpec::new(format!("t{i}"), 1 << 28, 1e9, 1e9, 1e-5))
        .collect();
    let canopus = Canopus::new(
        Arc::new(StorageHierarchy::new(tiers)),
        CanopusConfig {
            refactor: RefactorConfig {
                num_levels: 3,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    canopus
        .write("big.bp", ds.var, &ds.mesh, &ds.data)
        .expect("write");

    // What level 0's three arrays occupy once parsed, from the manifest.
    let parsed = |reader: &canopus::CanopusReader| {
        let var = reader.file().inq_var(ds.var).expect("variable");
        let block = var.metadata_for(0).expect("level 0 geometry");
        assert!(matches!(block.kind, ProductKind::Metadata { level: 0 }));
        block.raw_bytes as usize
    };
    for walk in ["first", "second"] {
        // A fresh reader each: every cache of the program is cold, the
        // process's allocator is not (as in a long-lived analysis).
        let reader = canopus.open("big.bp").expect("open").with_level_cache(0);
        let level0 = parsed(&reader);
        let (out, own, elsewhere) = attributed(|| reader.read_level(ds.var, 0).expect("cold walk"));
        assert_eq!(out.mesh, ds.mesh, "{walk}");
        assert!(!out.degraded);
        assert!(
            own >= level0,
            "{walk}: the caller allocated {own} B, level 0 alone parses to {level0} B"
        );
        assert!(
            elsewhere < ELSEWHERE_LIMIT,
            "{walk}: decode, restore and loader threads allocated {elsewhere} B"
        );
    }
}

#[test]
fn a_megabyte_without_a_newline_costs_the_endpoint_its_cap() {
    let _turn = LEDGER.lock().unwrap_or_else(|e| e.into_inner());
    // No sampler pass during the test: the accept thread and a handler
    // are the only ones of the endpoint's that run.
    let config = TelemetryConfig {
        sample_interval: Duration::from_secs(3600),
        ..TelemetryConfig::default()
    };
    let sources = TelemetrySources::new(Arc::new(Registry::new()));
    let server = TelemetryServer::start("127.0.0.1:0", sources, config).expect("start");
    let t = Duration::from_secs(5);
    assert_eq!(
        http_get(server.addr(), "/healthz", t).expect("warm-up").0,
        200
    );

    let (answer, _, elsewhere) = attributed(|| {
        let mut client = TcpStream::connect(server.addr()).expect("connect");
        client.set_read_timeout(Some(t)).expect("timeout");
        client.set_write_timeout(Some(t)).expect("timeout");
        // The endpoint stops reading at its cap and closes: the rest of
        // the write, and the read of its answer, may meet a reset.
        let _ = client.write_all(&vec![b'a'; 1 << 20]);
        let mut answer = String::new();
        let _ = client.read_to_string(&mut answer);
        answer
    });
    assert!(
        answer.is_empty() || answer.starts_with("HTTP/1.1 431 "),
        "refused, or cut off: {answer}"
    );
    assert!(
        elsewhere < ELSEWHERE_LIMIT,
        "the endpoint allocated {elsewhere} B for one request head"
    );
    // And it is there for the next client.
    let (status, body) = http_get(server.addr(), "/healthz", t).expect("next connection");
    assert_eq!(status, 200, "{body}");
}
