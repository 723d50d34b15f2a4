//! Hostile OFF text: the counts line of a mesh file is not believed.
//!
//! Every CLI command that takes `--mesh` parses a user-supplied OFF file,
//! so a counts line that declares more vertices or faces than the file
//! holds — up to `usize::MAX` — must come back as `Err`, not as an
//! allocation sized by the claim (which aborts the process). A counting
//! allocator bounds each hostile parse to well under 1 MiB of heap.

use canopus_mesh::generators::{annulus_mesh, jitter_interior};
use canopus_mesh::io::{read_off, write_off};
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

/// What one hostile parse may allocate, freed or not.
const HOSTILE_ALLOC_LIMIT: usize = 1 << 20;

/// Parse `text`, which must be refused within [`HOSTILE_ALLOC_LIMIT`].
fn refused(text: &str) -> String {
    let before = ALLOC_BYTES.with(Cell::get);
    let parsed = read_off(text.as_bytes());
    let allocated = ALLOC_BYTES.with(Cell::get) - before;
    assert!(
        allocated < HOSTILE_ALLOC_LIMIT,
        "{allocated} B allocated for {text:?}"
    );
    match parsed {
        Ok(m) => panic!("{text:?} parsed as {} vertices", m.num_vertices()),
        Err(e) => e.to_string(),
    }
}

const TRIANGLE: &str = "0 0 0\n1 0 0\n0 1 0\n";

#[test]
fn absurd_vertex_counts_are_refused_without_reserving_them() {
    for count in [usize::MAX.to_string(), 10u64.pow(15).to_string()] {
        let why = refused(&format!("OFF\n{count} 0 0\n0 0 0\n"));
        assert!(why.contains("missing vertex line 1"), "{why}");
        let why = refused(&format!("OFF\n{count} 1 0\n{TRIANGLE}3 0 1 2\n"));
        assert!(why.contains("vertex line") || why.contains("bad"), "{why}");
    }
    // The file that used to abort the process, byte for byte.
    let text = "OFF\n1000000000000000 0 0\n0 0 0\n";
    assert_eq!(text.len(), 31);
    refused(text);
}

#[test]
fn absurd_face_counts_are_refused_without_reserving_them() {
    for count in [usize::MAX.to_string(), 10u64.pow(15).to_string()] {
        let why = refused(&format!("OFF\n3 {count} 0\n{TRIANGLE}3 0 1 2\n"));
        assert!(why.contains("missing face line 1"), "{why}");
    }
}

#[test]
fn counts_larger_than_the_lines_present_are_refused() {
    let why = refused(&format!("OFF\n5 1 0\n{TRIANGLE}"));
    assert!(why.contains("missing vertex line 3"), "{why}");
    let why = refused(&format!("OFF\n3 4 0\n{TRIANGLE}3 0 1 2\n3 0 2 1\n"));
    assert!(why.contains("missing face line 2"), "{why}");
    // A count that does not fit a length is a parse error too.
    let why = refused("OFF\n18446744073709551616 0 0\n");
    assert!(why.contains("bad vertex count"), "{why}");
}

#[test]
fn honest_files_past_the_up_front_reservation_still_parse() {
    let mesh = jitter_interior(&annulus_mesh(40, 200, 0.5, 1.0), 0.2, 3);
    assert!(mesh.num_vertices() > 4096 && mesh.num_triangles() > 4096);
    let mut text = Vec::new();
    write_off(&mesh, &mut text).unwrap();
    let back = read_off(&text[..]).unwrap();
    assert_eq!(back.num_vertices(), mesh.num_vertices());
    assert_eq!(back.triangles(), mesh.triangles());
}
