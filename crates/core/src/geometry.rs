//! A level's geometry object — the `Metadata{level}` product — as it is
//! laid out, parsed and held in memory.
//!
//! The object is two contiguous sections, each with its own checksum in
//! the manifest's two-entry index ([`GeometrySection`]):
//!
//! * **coordinates** — the packed mesh's header and every vertex
//!   position ([`canopus_mesh::io::to_binary_sections`]);
//! * **topology** — the packed triangles, then the packed fine-vertex →
//!   coarse-triangle mapping (empty for the coarsest level).
//!
//! Restoring with the mean estimator reads a level's triangles and
//! mapping and never a coordinate, so a walk fetches the topology of the
//! levels it passes through and the whole object only where a mesh is
//! handed out. [`LevelGeometry`] is what the reader's caches share per
//! level: the two halves, each filled at most once.

use crate::error::CanopusError;
use bytes::Bytes;
use canopus_adios::store::BlockWrite;
use canopus_adios::{checksum64, BlockMeta, ChunkEntry, GeometrySection};
use canopus_mesh::geometry::Point2;
use canopus_mesh::io::{POINT_BYTES, TRI_BYTES};
use canopus_mesh::{Connectivity, TriMesh};
use canopus_refactor::mapping::{mapping_from_bytes, mapping_to_bytes};
use canopus_storage::ProductKind;
use parking_lot::{Mutex, MutexGuard};
use std::sync::{Arc, OnceLock};

/// Assemble a level's geometry block: both sections packed, and the
/// index that lets a reader fetch and verify either alone. The entries'
/// `elements` are the vertex and the triangle count — what the topology
/// is parsed against when the header, which lies in the other section,
/// was not fetched. `raw_bytes` is what the three arrays occupy once
/// parsed, and the most a reader will allocate for the block.
pub(crate) fn level_meta_block(
    var: &str,
    level: u32,
    mesh: &TriMesh,
    mapping: &[u32],
) -> BlockWrite {
    let (mut payload, topology_at) = canopus_mesh::io::to_binary_sections(mesh);
    payload.extend_from_slice(&mapping_to_bytes(mapping));
    let section =
        |section: GeometrySection, bytes: &[u8], offset: usize, elements: usize| ChunkEntry {
            chunk: section as u32,
            offset: offset as u64,
            len: bytes.len() as u64,
            elements: elements as u64,
            checksum: checksum64(bytes),
            bbox: [0.0; 4],
            min: 0.0,
            max: 0.0,
            codec_id: 0,
        };
    let (coordinates, topology) = payload.split_at(topology_at);
    let chunks = vec![
        section(
            GeometrySection::Coordinates,
            coordinates,
            0,
            mesh.num_vertices(),
        ),
        section(
            GeometrySection::Topology,
            topology,
            topology_at,
            mesh.num_triangles(),
        ),
    ];
    BlockWrite {
        var: var.to_string(),
        kind: ProductKind::Metadata { level },
        data: Bytes::from(payload),
        elements: 0,
        codec_id: 0,
        codec_param: 0.0,
        raw_bytes: canopus_mesh::io::decoded_bytes(mesh) + mapping.len() as u64 * 4,
        min: 0.0,
        max: 0.0,
        chunks,
    }
}

/// What a caller consumes of a level's geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Need {
    /// Triangles and mapping: enough to restore this level with the mean
    /// estimator and to serve as the coarser level of the next step.
    Topology,
    /// Vertex positions as well: a mesh to hand out, the barycentric
    /// estimator, or a spatial chunk assignment to recompute.
    Whole,
}

/// The parsed topology section.
#[derive(Debug)]
pub(crate) struct Topology {
    pub connectivity: Connectivity,
    /// Fine vertex → triangle of the next-coarser level (empty for the
    /// base level).
    pub mapping: Vec<u32>,
    /// One past the largest triangle id in `mapping` (0 when empty): in
    /// range of the coarser level exactly when every entry is.
    pub mapping_end: usize,
}

/// One level's geometry in memory. Shared, never copied: the geometry
/// cache, the decoded-level cache and a walk in flight hold the same
/// entry, and the mesh assembled for a caller's
/// [`ReadOutcome`](crate::read::ReadOutcome) reads the entry's own point
/// and triangle arrays.
///
/// The halves are filled lazily and at most once each, under
/// [`Self::filling`]: concurrent readers that miss on the same level
/// wait for the one that fetches it.
#[derive(Debug)]
pub(crate) struct LevelGeometry {
    /// Counts and parse limit, from the manifest alone.
    vertices: usize,
    triangles: u64,
    raw_bytes: u64,
    fill: Mutex<()>,
    points: OnceLock<Arc<Vec<Point2>>>,
    topology: OnceLock<Topology>,
}

fn malformed(block: &BlockMeta, why: impl std::fmt::Display) -> CanopusError {
    CanopusError::MeshIo(format!("{}: {why}", block.key))
}

/// `block`'s index entry for `section`. A parsed manifest always has it.
pub(crate) fn section_of(
    block: &BlockMeta,
    section: GeometrySection,
) -> Result<&ChunkEntry, CanopusError> {
    block
        .section(section)
        .ok_or_else(|| malformed(block, "no section index on the geometry block"))
}

impl LevelGeometry {
    /// An empty entry for the level `block` describes.
    pub fn of(block: &BlockMeta) -> Result<Self, CanopusError> {
        let vertices = section_of(block, GeometrySection::Coordinates)?.elements;
        let triangles = section_of(block, GeometrySection::Topology)?.elements;
        Ok(Self {
            vertices: usize::try_from(vertices)
                .map_err(|_| malformed(block, format!("{vertices} vertices")))?,
            triangles,
            raw_bytes: block.raw_bytes,
            fill: Mutex::new(()),
            points: OnceLock::new(),
            topology: OnceLock::new(),
        })
    }

    /// Vertices of the level, known before anything is fetched.
    pub fn num_vertices(&self) -> usize {
        self.vertices
    }

    /// Resident size of the point and triangle arrays once both halves
    /// are loaded (the decoded-level cache budgets an entry at this from
    /// the start). Each array is one allocation however many meshes have
    /// been assembled over it, so it is counted once.
    pub fn approx_bytes(&self) -> usize {
        let triangles = usize::try_from(self.triangles).unwrap_or(usize::MAX);
        (self.vertices.saturating_mul(POINT_BYTES))
            .saturating_add(triangles.saturating_mul(TRI_BYTES))
    }

    pub fn topology(&self) -> Option<&Topology> {
        self.topology.get()
    }

    /// The vertex positions, if they have been loaded.
    pub fn points(&self) -> Option<&[Point2]> {
        self.points.get().map(|points| points.as_slice())
    }

    /// Whether what `need` asks for is loaded.
    pub fn holds(&self, need: Need) -> bool {
        self.topology.get().is_some() && (need == Need::Topology || self.points.get().is_some())
    }

    /// The level's mesh over this entry's own arrays (two reference
    /// counts, no copy); `None` until both halves are loaded.
    pub fn mesh(&self) -> Option<TriMesh> {
        let points = Arc::clone(self.points.get()?);
        self.topology()?.connectivity.mesh_over(points)
    }

    /// The lock a filler holds from deciding what is missing until it
    /// has [`absorb`](Self::absorb)ed it, tier fetch included.
    pub fn filling(&self) -> MutexGuard<'_, ()> {
        self.fill.lock()
    }

    /// Parse what was fetched of `block` — the whole payload, or one
    /// section — into whichever halves are still missing. The bytes came
    /// off a tier: each section parser checks every count against the
    /// bytes it has and against `raw_bytes`, consumes its range exactly,
    /// and the header must agree with the manifest's counts.
    pub fn absorb(
        &self,
        block: &BlockMeta,
        fetched: Option<GeometrySection>,
        bytes: &[u8],
    ) -> Result<(), CanopusError> {
        let (coordinates, topology) = match fetched {
            Some(GeometrySection::Coordinates) => (Some(bytes), None),
            Some(GeometrySection::Topology) => (None, Some(bytes)),
            None => {
                let at = section_of(block, GeometrySection::Coordinates)?.len;
                let (c, t) = usize::try_from(at)
                    .ok()
                    .and_then(|at| bytes.split_at_checked(at))
                    .ok_or_else(|| malformed(block, "payload shorter than its sections"))?;
                (Some(c), Some(t))
            }
        };
        if let (Some(bytes), None) = (coordinates, self.points.get()) {
            let points = self
                .parse_coordinates(bytes)
                .map_err(|why| malformed(block, why))?;
            let _ = self.points.set(Arc::new(points));
        }
        if let (Some(bytes), None) = (topology, self.topology.get()) {
            let topology = self
                .parse_topology(bytes)
                .map_err(|why| malformed(block, why))?;
            let _ = self.topology.set(topology);
        }
        Ok(())
    }

    fn parse_coordinates(&self, bytes: &[u8]) -> Result<Vec<Point2>, String> {
        let (points, triangles) = canopus_mesh::io::points_from_binary(bytes, self.raw_bytes)
            .map_err(|e| e.to_string())?;
        if (points.len(), triangles) != (self.vertices, self.triangles) {
            return Err(format!(
                "header counts {} vertices and {triangles} triangles, the manifest {} and {}",
                points.len(),
                self.vertices,
                self.triangles
            ));
        }
        Ok(points)
    }

    fn parse_topology(&self, bytes: &[u8]) -> Result<Topology, String> {
        let limit = (self.vertices as u64)
            .checked_mul(POINT_BYTES as u64)
            .and_then(|points| self.raw_bytes.checked_sub(points))
            .ok_or("the manifest's vertex count exceeds the block's parsed size")?;
        let (connectivity, rest) =
            canopus_mesh::io::connectivity_from_binary(bytes, self.vertices, self.triangles, limit)
                .map_err(|e| e.to_string())?;
        let left = limit - connectivity.triangles().len() as u64 * TRI_BYTES as u64;
        let mapping = mapping_from_bytes(rest, left)?;
        if !mapping.is_empty() && mapping.len() != self.vertices {
            return Err(format!(
                "mapping of {} entries for {} vertices",
                mapping.len(),
                self.vertices
            ));
        }
        let mapping_end = mapping.iter().max().map_or(0, |&t| t as usize + 1);
        Ok(Topology {
            connectivity,
            mapping,
            mapping_end,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use canopus_mesh::generators::rectangle_mesh;
    use canopus_mesh::geometry::Aabb;

    /// The manifest entry [`level_meta_block`]'s output gets.
    fn placed(block: &BlockWrite) -> BlockMeta {
        BlockMeta {
            key: "f/v/m0".into(),
            kind: block.kind,
            elements: block.elements,
            codec_id: block.codec_id,
            codec_param: block.codec_param,
            raw_bytes: block.raw_bytes,
            stored_bytes: block.data.len() as u64,
            min: block.min,
            max: block.max,
            checksum: checksum64(&block.data),
            chunks: block.chunks.clone(),
        }
    }

    fn sample(nx: usize, ny: usize) -> (TriMesh, Vec<u32>, BlockWrite, BlockMeta) {
        let mesh = rectangle_mesh(
            nx,
            ny,
            Aabb::from_points([Point2::new(0.0, 0.0), Point2::new(1.0, 1.0)]),
        );
        let mapping: Vec<u32> = (0..mesh.num_vertices() as u32).rev().collect();
        let write = level_meta_block("v", 0, &mesh, &mapping);
        let meta = placed(&write);
        (mesh, mapping, write, meta)
    }

    /// An unfilled entry for an `nx` by `ny` rectangle mesh.
    pub(crate) fn sample_entry(nx: usize, ny: usize) -> LevelGeometry {
        LevelGeometry::of(&sample(nx, ny).3).unwrap()
    }

    fn range(e: &ChunkEntry) -> std::ops::Range<usize> {
        e.offset as usize..(e.offset + e.len) as usize
    }

    #[test]
    fn sections_tile_the_payload_and_load_in_either_order() {
        let (mesh, mapping, write, meta) = sample(5, 3);
        let [c, t] = GeometrySection::ALL.map(|s| section_of(&meta, s).unwrap().clone());
        assert_eq!(
            (c.offset, t.offset, t.offset + t.len),
            (0, c.len, meta.stored_bytes)
        );
        assert_eq!((c.elements, t.elements), (24, 30));
        for e in [&c, &t] {
            assert_eq!(e.checksum, checksum64(&write.data[range(e)]));
        }

        let whole = LevelGeometry::of(&meta).unwrap();
        assert!(!whole.holds(Need::Topology) && whole.mesh().is_none());
        whole.absorb(&meta, None, &write.data).unwrap();
        assert!(whole.holds(Need::Whole));
        assert_eq!(whole.mesh().as_ref(), Some(&mesh));

        for order in [[&t, &c], [&c, &t]] {
            let g = LevelGeometry::of(&meta).unwrap();
            for (step, e) in order.into_iter().enumerate() {
                let section = GeometrySection::ALL[e.chunk as usize];
                g.absorb(&meta, Some(section), &write.data[range(e)])
                    .unwrap();
                assert_eq!(g.holds(Need::Whole), step == 1);
                assert_eq!(g.holds(Need::Topology), g.topology().is_some());
            }
            // Every mesh handed out is the entry's own two arrays, so
            // `approx_bytes` below counts what all of them occupy.
            let (first, second) = (g.mesh().unwrap(), g.mesh().unwrap());
            assert_eq!(first, mesh);
            assert!(std::ptr::eq(first.points(), g.points().unwrap()));
            assert!(std::ptr::eq(first.triangles(), second.triangles()));
            let topology = g.topology().unwrap();
            assert!(std::ptr::eq(
                first.triangles(),
                topology.connectivity.triangles()
            ));
            assert_eq!(topology.mapping, mapping);
            assert_eq!(topology.mapping_end, mesh.num_vertices());
            assert_eq!(
                g.approx_bytes() as u64 + 4 * mapping.len() as u64,
                meta.raw_bytes
            );
        }
    }

    #[test]
    fn sections_that_disagree_with_the_manifest_are_errors() {
        let (_, _, write, meta) = sample(4, 4);
        let [c, t] = GeometrySection::ALL.map(|s| section_of(&meta, s).unwrap().clone());
        let load = |meta: &BlockMeta, section, bytes: &[u8]| {
            LevelGeometry::of(meta)?.absorb(meta, section, bytes)
        };
        let (coordinates, topology) = (&write.data[range(&c)], &write.data[range(&t)]);
        assert!(load(&meta, Some(GeometrySection::Coordinates), coordinates).is_ok());
        assert!(load(&meta, Some(GeometrySection::Topology), topology).is_ok());

        // One section handed in as the other, cut short, or run long.
        assert!(load(&meta, Some(GeometrySection::Coordinates), topology).is_err());
        assert!(load(&meta, Some(GeometrySection::Topology), coordinates).is_err());
        for (section, bytes) in [
            (GeometrySection::Coordinates, coordinates),
            (GeometrySection::Topology, topology),
        ] {
            assert!(load(&meta, Some(section), &bytes[..bytes.len() - 1]).is_err());
            let mut longer = bytes.to_vec();
            longer.push(0);
            assert!(load(&meta, Some(section), &longer).is_err(), "{section:?}");
        }
        assert!(load(&meta, None, &write.data[..write.data.len() - 1]).is_err());
        assert!(load(&meta, None, &write.data[..c.len as usize - 1]).is_err());

        // A manifest whose counts are not the header's: fewer vertices
        // than the corners name, more than the parsed size holds, other
        // triangle counts, a parsed size one byte short.
        type Edit = fn(&mut BlockMeta);
        let edits: [(&str, Edit); 6] = [
            ("fewer vertices", |b| b.chunks[0].elements -= 1),
            ("more vertices", |b| b.chunks[0].elements += 1),
            ("absurd vertices", |b| b.chunks[0].elements = u64::MAX / 8),
            ("fewer triangles", |b| b.chunks[1].elements -= 1),
            ("absurd triangles", |b| b.chunks[1].elements = u64::MAX / 8),
            ("small raw_bytes", |b| b.raw_bytes -= 1),
        ];
        for (what, edit) in edits {
            let mut lying = meta.clone();
            edit(&mut lying);
            assert!(load(&lying, None, &write.data).is_err(), "{what}");
            assert!(
                load(&lying, Some(GeometrySection::Topology), topology).is_err()
                    || load(&lying, Some(GeometrySection::Coordinates), coordinates).is_err(),
                "{what}, section by section"
            );
        }
        let mut bare = meta.clone();
        bare.chunks.clear();
        assert!(LevelGeometry::of(&bare).is_err());
    }

    proptest::proptest! {
        /// The section parsers read bytes that came off a tier: a
        /// truncated or bit-flipped payload is an error or a well-formed
        /// level no larger than the manifest's `raw_bytes` allows, never
        /// a panic, a hang or an allocation beyond that.
        #[test]
        fn level_meta_parsers_survive_hostile_input(
            nx in 1usize..6,
            ny in 1usize..6,
            flips in proptest::collection::vec((proptest::prelude::any::<u32>(), 0u8..8), 0..4),
            cut in proptest::prelude::any::<u32>(),
            truncate in proptest::prelude::any::<bool>(),
            boundary in proptest::prelude::any::<u32>(),
            junk in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..96),
        ) {
            let (mesh, mapping, write, meta) = sample(nx, ny);
            let clean = LevelGeometry::of(&meta).unwrap();
            clean.absorb(&meta, None, &write.data).unwrap();
            proptest::prop_assert_eq!(clean.mesh(), Some(mesh));
            proptest::prop_assert_eq!(&clean.topology().unwrap().mapping, &mapping);

            let mut hostile = write.data.to_vec();
            for (at, bit) in flips {
                let at = at as usize % hostile.len();
                hostile[at] ^= 1 << bit;
            }
            if truncate {
                hostile.truncate(cut as usize % (hostile.len() + 1));
            }
            // The payload whole, and cut into sections at the manifest's
            // boundary and at a wrong one.
            let at = boundary as usize % (hostile.len() + 1);
            let real = (meta.chunks[0].len as usize).min(hostile.len());
            let attempts = [
                (None, &hostile[..]),
                (Some(GeometrySection::Coordinates), &hostile[..real]),
                (Some(GeometrySection::Topology), &hostile[real..]),
                (Some(GeometrySection::Coordinates), &hostile[..at]),
                (Some(GeometrySection::Topology), &hostile[at..]),
                (None, &junk[..]),
                (Some(GeometrySection::Coordinates), &junk[..]),
                (Some(GeometrySection::Topology), &junk[..]),
            ];
            for (section, bytes) in attempts {
                let g = LevelGeometry::of(&meta).unwrap();
                if g.absorb(&meta, section, bytes).is_err() {
                    continue;
                }
                let points = g.points().map_or(0, <[Point2]>::len);
                let (triangles, entries) = g.topology().map_or((0, 0), |t| {
                    (t.connectivity.triangles().len(), t.mapping.len())
                });
                let held = points * POINT_BYTES + triangles * TRI_BYTES + entries * 4;
                proptest::prop_assert!(held as u64 <= meta.raw_bytes);
                if let Some(t) = g.topology() {
                    let n = t.connectivity.num_vertices();
                    proptest::prop_assert_eq!(n, g.num_vertices());
                    proptest::prop_assert!(t
                        .connectivity
                        .triangles()
                        .iter()
                        .flatten()
                        .all(|&v| (v as usize) < n));
                    proptest::prop_assert!(t.mapping.iter().all(|&m| (m as usize) < t.mapping_end));
                }
            }
        }
    }
}
