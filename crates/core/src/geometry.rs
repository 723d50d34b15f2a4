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
//! level: the two halves, each filled at most once, by whoever holds the
//! [`Fill`] that claimed it.

use crate::error::CanopusError;
use bytes::Bytes;
use canopus_adios::store::BlockWrite;
use canopus_adios::{checksum64, BlockMeta, ChunkEntry, GeometrySection};
use canopus_mesh::geometry::Point2;
use canopus_mesh::io::{POINT_BYTES, TRI_BYTES};
use canopus_mesh::{Connectivity, TriMesh, VertexId};
use canopus_refactor::mapping::{mapping_from_bytes, mapping_to_bytes, reserve_mapping};
use canopus_storage::ProductKind;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

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
/// The halves are filled lazily and at most once each. A reader that
/// misses [`claim`](Self::claim)s what it needs and is missing, and
/// whoever holds the [`Fill`] fetches and parses it; concurrent readers
/// that miss on the same half wait for that one load, each half's
/// waiters released the moment it is published.
#[derive(Debug)]
pub(crate) struct LevelGeometry {
    /// Counts, parse limit and stored section lengths (coordinates,
    /// topology), from the manifest alone.
    vertices: usize,
    triangles: u64,
    raw_bytes: u64,
    stored: [u64; 2],
    /// Which halves a [`Fill`] out there is loading.
    claimed: Mutex<Claimed>,
    /// Signalled whenever a claim on a half ends.
    released: Condvar,
    points: OnceLock<Arc<Vec<Point2>>>,
    topology: OnceLock<Topology>,
}

#[derive(Debug, Default)]
struct Claimed {
    topology: bool,
    points: bool,
}

/// The arrays a level parses into, allocated ahead of the parse.
#[derive(Debug, Default)]
struct Reserved {
    points: Vec<Point2>,
    triangles: Vec<[VertexId; 3]>,
    mapping: Vec<u32>,
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
        let coordinates = section_of(block, GeometrySection::Coordinates)?;
        let topology = section_of(block, GeometrySection::Topology)?;
        let vertices = coordinates.elements;
        Ok(Self {
            vertices: usize::try_from(vertices)
                .map_err(|_| malformed(block, format!("{vertices} vertices")))?,
            triangles: topology.elements,
            raw_bytes: block.raw_bytes,
            stored: [coordinates.len, topology.len],
            claimed: Mutex::default(),
            released: Condvar::new(),
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

    /// The claims, once no [`Fill`] is loading a half `need` asks for.
    fn settled(&self, need: Need) -> MutexGuard<'_, Claimed> {
        // A claim is two flags, valid whatever a panicking holder of the
        // lock was doing.
        let mut claimed = self.claimed.lock().unwrap_or_else(|e| e.into_inner());
        while claimed.topology || (need == Need::Whole && claimed.points) {
            claimed = self
                .released
                .wait(claimed)
                .unwrap_or_else(|e| e.into_inner());
        }
        claimed
    }

    /// Wait for whoever is loading a half `need` asks for to publish it
    /// or give up; whether the entry then holds what `need` asks for.
    pub fn wait(&self, need: Need) -> bool {
        drop(self.settled(need));
        self.holds(need)
    }

    /// Claim the halves `need` asks for and the entry lacks, after
    /// waiting for any of them that is being loaded: `None` when nothing
    /// is left to load. The [`Fill`] is the obligation to load what it
    /// claims — concurrent claimants wait for it — and may move to
    /// another thread to do so.
    pub fn claim(self: &Arc<Self>, need: Need) -> Option<Fill> {
        if self.holds(need) {
            return None;
        }
        let mut claimed = self.settled(need);
        let topology = self.topology.get().is_none();
        let points = need == Need::Whole && self.points.get().is_none();
        if !(topology || points) {
            return None;
        }
        *claimed = Claimed {
            topology,
            points: points || claimed.points,
        };
        Some(Fill {
            entry: Arc::clone(self),
            topology,
            points,
            reserved: Reserved::default(),
        })
    }

    /// End the claim on one or both halves and wake their waiters.
    fn release(&self, topology: bool, points: bool) {
        let mut claimed = self.claimed.lock().unwrap_or_else(|e| e.into_inner());
        claimed.topology &= !topology;
        claimed.points &= !points;
        drop(claimed);
        self.released.notify_all();
    }

    fn parse_coordinates(&self, bytes: &[u8], into: Vec<Point2>) -> Result<Vec<Point2>, String> {
        let (points, triangles) = canopus_mesh::io::points_from_binary(bytes, self.raw_bytes, into)
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

    /// What `raw_bytes` leaves for the triangles and the mapping once
    /// the manifest's vertices have taken their share.
    fn topology_limit(&self) -> Option<u64> {
        (self.vertices as u64)
            .checked_mul(POINT_BYTES as u64)
            .and_then(|points| self.raw_bytes.checked_sub(points))
    }

    fn parse_topology(
        &self,
        bytes: &[u8],
        triangles: Vec<[VertexId; 3]>,
        mapping: Vec<u32>,
    ) -> Result<Topology, String> {
        let limit = self
            .topology_limit()
            .ok_or("the manifest's vertex count exceeds the block's parsed size")?;
        let (connectivity, rest) = canopus_mesh::io::connectivity_from_binary(
            bytes,
            self.vertices,
            self.triangles,
            limit,
            triangles,
        )
        .map_err(|e| e.to_string())?;
        let left = limit - connectivity.triangles().len() as u64 * TRI_BYTES as u64;
        let mapping = mapping_from_bytes(rest, left, mapping)?;
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

/// The claim on the halves of a [`LevelGeometry`] its holder is to load
/// ([`LevelGeometry::claim`]). Each half's claim ends when
/// [`absorb`](Self::absorb) publishes it, and whatever is left when the
/// `Fill` is dropped — the fetch failed, the bytes did not parse — so a
/// waiter never outlasts the load it waited for.
#[derive(Debug)]
pub(crate) struct Fill {
    entry: Arc<LevelGeometry>,
    topology: bool,
    points: bool,
    reserved: Reserved,
}

impl Fill {
    /// What to fetch: the one section that is claimed, or `None` for the
    /// whole object.
    pub fn section(&self) -> Option<GeometrySection> {
        match (self.points, self.topology) {
            (true, true) => None,
            (true, false) => Some(GeometrySection::Coordinates),
            (false, _) => Some(GeometrySection::Topology),
        }
    }

    /// Whether this is the load that publishes the entry's topology.
    pub fn claims_topology(&self) -> bool {
        self.topology
    }

    /// Allocate the arrays the claimed halves parse into, here and now —
    /// for a `Fill` about to move to a thread whose allocations would
    /// land in an arena of its own. Their sizes come from the manifest,
    /// so each is held to what the section parsers would refuse (the
    /// block's `raw_bytes` once parsed; eight stored bytes a vertex,
    /// three per 128 triangles, one per 128 mapping entries): counts
    /// that do not fit reserve nothing, and the parse fails on them as
    /// it would have.
    pub fn reserve(&mut self) {
        let entry = &self.entry;
        let [coordinates, topology] = entry.stored;
        let reserved = || {
            let limit = entry.topology_limit()?;
            let triangle_bytes = entry.triangles.checked_mul(TRI_BYTES as u64)?;
            let left = limit.checked_sub(triangle_bytes)?;
            let (mut points, mut triangles, mut mapping) = Default::default();
            if self.points {
                let vertices = entry.vertices as u64;
                points = canopus_mesh::io::reserve_points(vertices, coordinates, entry.raw_bytes)?;
            }
            if self.topology {
                triangles = canopus_mesh::io::reserve_triangles(entry.triangles, topology, limit)?;
                // What is left of `raw_bytes` is the mapping: none for
                // the coarsest level, an entry per vertex otherwise.
                let entries = (left / 4).min(entry.vertices as u64);
                mapping = reserve_mapping(entries, topology, left)?;
            }
            Some(Reserved {
                points,
                triangles,
                mapping,
            })
        };
        self.reserved = reserved().unwrap_or_default();
    }

    /// Parse what was fetched of `block` — the whole payload, or one
    /// section — into the halves this `Fill` claims, topology first, and
    /// publish each the moment it is parsed: a walk waiting to restore
    /// the level goes on while its coordinates are still unpacking. The
    /// bytes came off a tier: each section parser checks every count
    /// against the bytes it has and against `raw_bytes`, consumes its
    /// range exactly, and the header must agree with the manifest's
    /// counts.
    pub fn absorb(
        &mut self,
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
        let entry = &self.entry;
        let reserved = &mut self.reserved;
        if let (Some(bytes), true) = (topology, self.topology) {
            let (triangles, mapping) = (
                std::mem::take(&mut reserved.triangles),
                std::mem::take(&mut reserved.mapping),
            );
            let topology = entry
                .parse_topology(bytes, triangles, mapping)
                .map_err(|why| malformed(block, why))?;
            let _ = entry.topology.set(topology);
            self.topology = false;
            entry.release(true, false);
        }
        if let (Some(bytes), true) = (coordinates, self.points) {
            let points = entry
                .parse_coordinates(bytes, std::mem::take(&mut reserved.points))
                .map_err(|why| malformed(block, why))?;
            let _ = entry.points.set(Arc::new(points));
            self.points = false;
            entry.release(false, true);
        }
        Ok(())
    }
}

impl Drop for Fill {
    fn drop(&mut self) {
        if self.topology || self.points {
            self.entry.release(self.topology, self.points);
        }
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

    fn entry(meta: &BlockMeta) -> Arc<LevelGeometry> {
        Arc::new(LevelGeometry::of(meta).unwrap())
    }

    /// Parse what was fetched into whichever halves are still missing.
    fn load(
        entry: &Arc<LevelGeometry>,
        meta: &BlockMeta,
        fetched: Option<GeometrySection>,
        bytes: &[u8],
    ) -> Result<(), CanopusError> {
        match entry.claim(Need::Whole) {
            Some(mut fill) => fill.absorb(meta, fetched, bytes),
            None => Ok(()),
        }
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

        let whole = entry(&meta);
        assert!(!whole.holds(Need::Topology) && whole.mesh().is_none());
        load(&whole, &meta, None, &write.data).unwrap();
        assert!(whole.holds(Need::Whole) && whole.claim(Need::Whole).is_none());
        assert_eq!(whole.mesh().as_ref(), Some(&mesh));

        for order in [[&t, &c], [&c, &t]] {
            let g = entry(&meta);
            for (step, e) in order.into_iter().enumerate() {
                let section = GeometrySection::ALL[e.chunk as usize];
                load(&g, &meta, Some(section), &write.data[range(e)]).unwrap();
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
            load(&Arc::new(LevelGeometry::of(meta)?), meta, section, bytes)
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

    #[test]
    fn a_topology_waiter_goes_on_before_the_coordinates_are_set() {
        use std::sync::mpsc::channel;
        let (mesh, _, write, meta) = sample(6, 5);
        let [c, t] = GeometrySection::ALL.map(|s| section_of(&meta, s).unwrap().clone());
        let g = entry(&meta);
        let mut fill = g.claim(Need::Whole).expect("nothing is loaded");
        assert_eq!(fill.section(), None, "the whole object, in one fetch");
        assert!(fill.claims_topology());

        // The filler parses the halves with a gate between them, which
        // only the released waiter opens: were the waiter held until the
        // coordinates are set, neither thread would ever finish.
        let (topology_set, proceed) = channel::<()>();
        let (open_gate, gate) = channel::<()>();
        std::thread::scope(|s| {
            let g = &g;
            let waiter = s.spawn(move || {
                proceed.recv().expect("the filler reached the gate");
                assert!(g.wait(Need::Topology), "released by the topology half");
                assert!(g.claim(Need::Topology).is_none());
                assert!(g.topology().is_some() && g.points().is_none());
                assert!(!g.holds(Need::Whole) && g.mesh().is_none());
                open_gate.send(()).expect("the filler waits at the gate");
                // A waiter for the whole entry is held until the rest is
                // there, and then finds nothing left to claim.
                assert!(g.wait(Need::Whole));
                assert!(g.claim(Need::Whole).is_none());
            });
            fill.absorb(
                &meta,
                Some(GeometrySection::Topology),
                &write.data[range(&t)],
            )
            .unwrap();
            topology_set.send(()).unwrap();
            gate.recv().expect("the waiter got past the topology");
            fill.absorb(
                &meta,
                Some(GeometrySection::Coordinates),
                &write.data[range(&c)],
            )
            .unwrap();
            waiter.join().unwrap();
        });
        assert_eq!(g.mesh(), Some(mesh));

        // The whole payload in one `absorb` takes the same two steps,
        // topology first: a parse that fails on the coordinates leaves
        // the topology published and the coordinates claimable again.
        let g = entry(&meta);
        let mut damaged = write.data.to_vec();
        damaged[0] ^= 0xFF;
        let mut fill = g.claim(Need::Whole).unwrap();
        assert!(fill.absorb(&meta, None, &damaged).is_err());
        drop(fill);
        assert!(g.wait(Need::Topology) && !g.wait(Need::Whole));
        let mut again = g
            .claim(Need::Whole)
            .expect("the coordinates are still missing");
        assert_eq!(again.section(), Some(GeometrySection::Coordinates));
        again
            .absorb(&meta, again.section(), &write.data[range(&c)])
            .unwrap();
        assert!(g.holds(Need::Whole));
    }

    #[test]
    fn a_failed_load_releases_its_waiters_to_claim_for_themselves() {
        let (_, _, write, meta) = sample(4, 3);
        let g = entry(&meta);
        let fill = g.claim(Need::Topology).expect("nothing is loaded");
        assert_eq!(fill.section(), Some(GeometrySection::Topology));
        std::thread::scope(|s| {
            let (claiming, about_to_claim) = std::sync::mpsc::channel::<()>();
            let (g, meta, write) = (&g, &meta, &write);
            let second = s.spawn(move || {
                claiming.send(()).unwrap();
                // Blocks while the first claim stands; that load gives
                // up (its fetch failed), and this one takes over.
                let mut fill = g.claim(Need::Whole).expect("still nothing loaded");
                assert_eq!(fill.section(), None);
                fill.absorb(meta, None, &write.data).unwrap();
            });
            about_to_claim.recv().unwrap();
            assert!(!g.holds(Need::Topology));
            drop(fill);
            second.join().unwrap();
        });
        assert!(g.holds(Need::Whole));
    }

    #[test]
    fn arrays_are_reserved_from_the_manifest_within_the_parsers_limits() {
        let (mesh, mapping, write, meta) = sample(9, 7);
        let (nv, nf) = (mesh.num_vertices(), mesh.num_triangles());
        let capacities = |fill: &Fill| {
            let r = &fill.reserved;
            [
                r.points.capacity(),
                r.triangles.capacity(),
                r.mapping.capacity(),
            ]
        };
        let reserved = |meta: &BlockMeta, need| {
            let mut fill = entry(meta).claim(need).expect("nothing is loaded");
            fill.reserve();
            capacities(&fill)
        };

        // An honest manifest: the three arrays, exactly; the topology
        // alone leaves the points out.
        assert_eq!(mapping.len(), nv);
        assert_eq!(reserved(&meta, Need::Whole), [nv, nf, nv]);
        assert_eq!(reserved(&meta, Need::Topology), [0, nf, nv]);

        // The parse fills those allocations and no others.
        let g = entry(&meta);
        let mut fill = g.claim(Need::Whole).unwrap();
        fill.reserve();
        let at = (
            fill.reserved.points.as_ptr(),
            fill.reserved.triangles.as_ptr(),
            fill.reserved.mapping.as_ptr(),
        );
        fill.absorb(&meta, None, &write.data).unwrap();
        let topology = g.topology().unwrap();
        assert!(std::ptr::eq(g.points().unwrap().as_ptr(), at.0));
        assert!(std::ptr::eq(
            topology.connectivity.triangles().as_ptr(),
            at.1
        ));
        assert!(std::ptr::eq(topology.mapping.as_ptr(), at.2));

        // Counts beyond `raw_bytes` or beyond what the stored sections
        // can hold — each a manifest the parsers refuse — reserve
        // nothing at all.
        type Edit = fn(&mut BlockMeta);
        let edits: [(&str, Edit); 8] = [
            ("more vertices than raw_bytes", |b| {
                b.chunks[0].elements = b.raw_bytes / POINT_BYTES as u64 + 1
            }),
            ("absurd vertices", |b| b.chunks[0].elements = u64::MAX / 8),
            ("more triangles than raw_bytes", |b| {
                b.chunks[1].elements += b.chunks[0].elements
            }),
            ("absurd triangles", |b| b.chunks[1].elements = u64::MAX / 8),
            ("small raw_bytes", |b| b.raw_bytes /= 2),
            ("vertices beyond the coordinates section", |b| {
                b.raw_bytes = u64::MAX / 2;
                b.chunks[0].elements = b.chunks[0].len / 8;
            }),
            ("triangles beyond the topology section", |b| {
                b.raw_bytes = u64::MAX / 2;
                b.chunks[1].elements = (b.chunks[1].len / 3 + 1) * 128;
            }),
            ("a mapping beyond the topology section", |b| {
                b.raw_bytes += 4 * 129 * b.chunks[1].len;
                b.chunks[0].elements = 129 * b.chunks[1].len;
                b.chunks[0].len = u64::MAX / 2;
            }),
        ];
        for (what, edit) in edits {
            let mut lying = meta.clone();
            edit(&mut lying);
            assert_eq!(reserved(&lying, Need::Whole), [0; 3], "{what}");
        }
        // A coarsest level has no mapping, and `raw_bytes` says so.
        let base = level_meta_block("v", 3, &mesh, &[]);
        assert_eq!(reserved(&placed(&base), Need::Whole), [nv, nf, 0]);
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
            let clean = entry(&meta);
            load(&clean, &meta, None, &write.data).unwrap();
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
                let g = entry(&meta);
                if load(&g, &meta, section, bytes).is_err() {
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
