//! Fine-vertex → coarse-triangle mapping.
//!
//! Restoration must know, for each vertex `V_x^l`, which triangle
//! `<V_i^{l+1}, V_j^{l+1}, V_k^{l+1}>` it falls into. The paper stores
//! this mapping in ADIOS metadata at refactor time precisely because the
//! brute-force search at restore time "can be expensive" (§III-E2). We
//! compute it once here with the grid locator and serialize it next to
//! each delta.

use canopus_mesh::locate::GridLocator;
use canopus_mesh::pack::{pack_block, Reader, BLOCK};
use canopus_mesh::TriMesh;
use rayon::prelude::*;

/// For each fine vertex, the containing (or nearest, if the hull shrank)
/// coarse triangle id.
pub type Mapping = Vec<u32>;

/// Build the mapping from every vertex of `fine` to a triangle of
/// `coarse`. Vertices outside the coarse hull are clamped to the nearest
/// triangle — their barycentric estimate extrapolates, and the delta
/// absorbs whatever error that introduces.
///
/// # Panics
/// Panics if `coarse` has no triangles.
pub fn build_mapping(fine: &TriMesh, coarse: &TriMesh) -> Mapping {
    assert!(
        coarse.num_triangles() > 0,
        "cannot map onto an empty coarse mesh"
    );
    let locator = GridLocator::build(coarse);
    fine.points()
        .par_iter()
        .map(|&p| {
            locator
                .locate(coarse, p)
                .expect("coarse mesh is non-empty")
                .triangle()
        })
        .collect()
}

/// Serialize a mapping losslessly: its length, then every triangle id
/// packed against the previous vertex's ([`canopus_mesh::pack`]). Neighbouring fine vertices fall into
/// neighbouring coarse triangles, so where both levels are numbered
/// along the mesh the residuals are a few bits each.
pub fn mapping_to_bytes(mapping: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + mapping.len() * 2);
    out.extend_from_slice(&(mapping.len() as u64).to_le_bytes());
    let mut previous = [0];
    for block in mapping.chunks(BLOCK) {
        pack_block(block, &mut previous, &mut out);
    }
    out
}

/// `declared` as a length, if a mapping of that many entries fits
/// `max_decoded_bytes` (four per entry) once parsed and — a block costs
/// at least its width byte — the `stored` bytes of its blocks.
fn entries_fit(declared: u64, stored: u64, max_decoded_bytes: u64) -> Option<usize> {
    usize::try_from(declared).ok().filter(|_| {
        declared
            .checked_mul(4)
            .is_some_and(|d| d <= max_decoded_bytes)
            && declared.div_ceil(BLOCK as u64) <= stored
    })
}

/// Room for a mapping of `entries` stored in at most `stored` bytes,
/// under the limits [`mapping_from_bytes`] will hold it to; `None` if it
/// would refuse that many. For a caller that wants the array allocated
/// before — and on another thread than — the parse.
pub fn reserve_mapping(entries: u64, stored: u64, max_decoded_bytes: u64) -> Option<Mapping> {
    entries_fit(entries, stored.saturating_sub(8), max_decoded_bytes).map(Vec::with_capacity)
}

/// Parse a mapping serialized by [`mapping_to_bytes`] — bytes that came
/// off a tier — into `mapping`: `Vec::new()`, or an array the caller
/// reserved ([`reserve_mapping`]), which is emptied first. Packed data
/// can declare far more than its own size, so the declared length must
/// fit `max_decoded_bytes` (four per entry) before anything is
/// allocated; every block is checked against the bytes that are left,
/// and the last must end where `bytes` does.
pub fn mapping_from_bytes(
    bytes: &[u8],
    max_decoded_bytes: u64,
    mut mapping: Mapping,
) -> Result<Mapping, String> {
    let mut r = Reader::new(bytes);
    let declared = r.u64()?;
    let Some(n) = entries_fit(declared, r.remaining() as u64, max_decoded_bytes) else {
        return Err(format!(
            "mapping declares {declared} entries, which {} bytes and a limit \
             of {max_decoded_bytes} decoded do not hold",
            bytes.len()
        ));
    };
    mapping.clear();
    mapping.reserve_exact(n);
    let mut entries = [0u32; BLOCK];
    let mut previous = [0];
    while mapping.len() < n {
        let block = &mut entries[..BLOCK.min(n - mapping.len())];
        r.unpack_block(&mut previous, block)?;
        mapping.extend_from_slice(block);
    }
    if r.remaining() != 0 {
        return Err(format!(
            "{} bytes follow the mapping's last block",
            r.remaining()
        ));
    }
    Ok(mapping)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decimate::decimate;
    use canopus_mesh::generators::{jitter_interior, rectangle_mesh};
    use canopus_mesh::geometry::{Aabb, Point2};

    fn fine_and_coarse() -> (TriMesh, TriMesh) {
        let fine = jitter_interior(
            &rectangle_mesh(
                12,
                12,
                Aabb::from_points([Point2::new(0.0, 0.0), Point2::new(1.0, 1.0)]),
            ),
            0.2,
            11,
        );
        let data = vec![0.0; fine.num_vertices()];
        let coarse = decimate(&fine, &data, 2.0).mesh;
        (fine, coarse)
    }

    #[test]
    fn every_fine_vertex_gets_a_triangle() {
        let (fine, coarse) = fine_and_coarse();
        let mapping = build_mapping(&fine, &coarse);
        assert_eq!(mapping.len(), fine.num_vertices());
        for &t in &mapping {
            assert!((t as usize) < coarse.num_triangles());
        }
    }

    #[test]
    fn interior_vertices_map_to_containing_triangles() {
        let (fine, coarse) = fine_and_coarse();
        let mapping = build_mapping(&fine, &coarse);
        let mut contained = 0usize;
        for (v, &t) in mapping.iter().enumerate() {
            if coarse.triangle(t).contains(fine.point(v as u32)) {
                contained += 1;
            }
        }
        // Most fine vertices sit inside the coarse hull; only
        // boundary-adjacent ones (a perimeter band) may be clamped.
        assert!(
            contained as f64 > 0.8 * fine.num_vertices() as f64,
            "only {contained}/{} contained",
            fine.num_vertices()
        );
    }

    #[test]
    fn mapping_is_deterministic() {
        let (fine, coarse) = fine_and_coarse();
        assert_eq!(build_mapping(&fine, &coarse), build_mapping(&fine, &coarse));
    }

    #[test]
    fn serialization_roundtrip() {
        let parse = |bytes: &[u8], limit| mapping_from_bytes(bytes, limit, Vec::new());
        let m: Mapping = vec![0, 7, 42, u32::MAX, 0, u32::MAX - 1, 1 << 31];
        let bytes = mapping_to_bytes(&m);
        assert_eq!(parse(&bytes, 4 * 7).unwrap(), m);
        assert!(parse(&bytes, 4 * 7 - 1).is_err(), "limit");
        assert!(parse(&bytes[..bytes.len() - 1], 64).is_err());
        assert!(parse(&bytes[..5], 64).is_err());
        assert!(parse(&[], 64).is_err(), "no length");
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(parse(&longer, 64).is_err(), "trailing byte");
        let empty = mapping_to_bytes(&[]);
        assert_eq!(empty.len(), 8);
        assert_eq!(parse(&empty, 0).unwrap(), Vec::<u32>::new());

        // Several blocks, the last one partial.
        let (fine, coarse) = fine_and_coarse();
        let real = build_mapping(&fine, &coarse);
        assert!(real.len() > BLOCK && !real.len().is_multiple_of(BLOCK));
        let bytes = mapping_to_bytes(&real);
        assert!(bytes.len() < real.len() * 4, "{} B", bytes.len());
        assert_eq!(parse(&bytes, 4 * real.len() as u64).unwrap(), real);

        // Into an array the caller reserved, whatever it held: the
        // parse fills that allocation. Nothing is reserved for a length
        // the parser would refuse.
        let (n, stored) = (real.len() as u64, bytes.len() as u64);
        let mut reserved = reserve_mapping(n, stored, 4 * n).expect("the mapping's own length");
        assert!(reserved.capacity() >= real.len());
        reserved.push(9);
        let at_first = reserved.as_ptr();
        let parsed = mapping_from_bytes(&bytes, 4 * n, reserved).unwrap();
        assert_eq!(parsed, real);
        assert!(std::ptr::eq(parsed.as_ptr(), at_first));
        assert!(reserve_mapping(n, stored, 4 * n - 1).is_none(), "limit");
        let blocks = n.div_ceil(BLOCK as u64);
        assert!(reserve_mapping(n, 8 + blocks - 1, u64::MAX).is_none());
        assert!(reserve_mapping(n, 8 + blocks, u64::MAX).is_some());
        for absurd in [u64::MAX, u64::MAX / 4 + 1, 1 << 40] {
            assert!(reserve_mapping(absurd, stored, u64::MAX).is_none());
        }
    }

    #[test]
    fn hostile_lengths_never_allocate_beyond_the_limit() {
        // All-zero residuals cost one width byte per 128 entries: 1 KiB
        // of bytes can honestly declare 512 KiB of mapping, and a lying
        // header anything at all.
        let mut flat = (128u64 * 1024).to_le_bytes().to_vec();
        flat.resize(8 + 1024, 0);
        assert_eq!(
            mapping_from_bytes(&flat, 512 << 10, Vec::new()).unwrap(),
            vec![0; 128 * 1024]
        );
        assert!(mapping_from_bytes(&flat, (512 << 10) - 1, Vec::new()).is_err());
        for n in [u64::MAX, u64::MAX / 4 + 1, 1 << 40, 128 * 1024 + 1] {
            let mut lying = flat.clone();
            lying[..8].copy_from_slice(&n.to_le_bytes());
            assert!(
                mapping_from_bytes(&lying, u64::MAX, Vec::new()).is_err(),
                "{n}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "empty coarse mesh")]
    fn rejects_empty_coarse() {
        let (fine, _) = fine_and_coarse();
        build_mapping(&fine, &TriMesh::default());
    }
}
