//! Mesh (de)serialization.
//!
//! Two interchange forms:
//!
//! * a text format compatible with the classic OFF layout, convenient for
//!   eyeballing and for importing into external viewers;
//! * a lossless bit-packed binary format with a magic header, used by the
//!   ADIOS container to embed mesh levels next to their data.

use crate::geometry::Point2;
use crate::mesh::{Connectivity, TriMesh, VertexId};
use crate::pack::{pack_block, Reader, BLOCK};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::sync::Arc;

const BINARY_MAGIC: &[u8; 8] = b"CNPMESH2";
/// The raw 16 B/vertex, 12 B/triangle layout this format replaced.
const RETIRED_MAGIC: &[u8; 8] = b"CNPMESH1";

/// Errors raised by mesh parsing.
#[derive(Debug)]
pub enum MeshIoError {
    Io(io::Error),
    Parse(String),
}

impl std::fmt::Display for MeshIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeshIoError::Io(e) => write!(f, "mesh io error: {e}"),
            MeshIoError::Parse(m) => write!(f, "mesh parse error: {m}"),
        }
    }
}

impl std::error::Error for MeshIoError {}

impl From<io::Error> for MeshIoError {
    fn from(e: io::Error) -> Self {
        MeshIoError::Io(e)
    }
}

/// Write `mesh` in OFF text format.
pub fn write_off<W: Write>(mesh: &TriMesh, mut w: W) -> io::Result<()> {
    writeln!(w, "OFF")?;
    writeln!(
        w,
        "{} {} {}",
        mesh.num_vertices(),
        mesh.num_triangles(),
        mesh.num_edges()
    )?;
    for p in mesh.points() {
        writeln!(w, "{} {} 0", p.x, p.y)?;
    }
    for t in mesh.triangles() {
        writeln!(w, "3 {} {} {}", t[0], t[1], t[2])?;
    }
    Ok(())
}

/// Entries [`read_off`] reserves up front, whatever the counts line
/// declares: the arrays grow with the lines actually parsed beyond it.
const OFF_RESERVE: usize = 4096;

/// Parse a mesh from OFF text (z coordinates are dropped; only triangular
/// faces are accepted). The counts line is not believed: room for at
/// most [`OFF_RESERVE`] vertices and faces is reserved before the lines
/// that back them are read, and a count the file does not back is an
/// error.
pub fn read_off<R: Read>(r: R) -> Result<TriMesh, MeshIoError> {
    let reader = BufReader::new(r);
    let mut lines = reader
        .lines()
        .map(|l| l.map_err(MeshIoError::from))
        .filter(|l| match l {
            Ok(s) => {
                let t = s.trim();
                !t.is_empty() && !t.starts_with('#')
            }
            Err(_) => true,
        });

    let header = lines
        .next()
        .ok_or_else(|| MeshIoError::Parse("empty file".into()))??;
    if header.trim() != "OFF" {
        return Err(MeshIoError::Parse(format!(
            "expected OFF header, got {header:?}"
        )));
    }
    let counts = lines
        .next()
        .ok_or_else(|| MeshIoError::Parse("missing counts line".into()))??;
    let mut it = counts.split_whitespace();
    let nv: usize = parse_tok(it.next(), "vertex count")?;
    let nf: usize = parse_tok(it.next(), "face count")?;

    let mut points = Vec::with_capacity(nv.min(OFF_RESERVE));
    for i in 0..nv {
        let line = lines
            .next()
            .ok_or_else(|| MeshIoError::Parse(format!("missing vertex line {i}")))??;
        let mut it = line.split_whitespace();
        let x: f64 = parse_tok(it.next(), "x")?;
        let y: f64 = parse_tok(it.next(), "y")?;
        points.push(Point2::new(x, y));
    }
    let mut tris = Vec::with_capacity(nf.min(OFF_RESERVE));
    for i in 0..nf {
        let line = lines
            .next()
            .ok_or_else(|| MeshIoError::Parse(format!("missing face line {i}")))??;
        let mut it = line.split_whitespace();
        let arity: usize = parse_tok(it.next(), "face arity")?;
        if arity != 3 {
            return Err(MeshIoError::Parse(format!(
                "face {i} has arity {arity}, only triangles supported"
            )));
        }
        let a: VertexId = parse_tok(it.next(), "face vertex")?;
        let b: VertexId = parse_tok(it.next(), "face vertex")?;
        let c: VertexId = parse_tok(it.next(), "face vertex")?;
        if (a as usize) >= nv || (b as usize) >= nv || (c as usize) >= nv {
            return Err(MeshIoError::Parse(format!(
                "face {i} references vertex beyond {nv}"
            )));
        }
        tris.push([a, b, c]);
    }
    Ok(TriMesh::new(points, tris))
}

fn parse_tok<T: std::str::FromStr>(tok: Option<&str>, what: &str) -> Result<T, MeshIoError> {
    let tok = tok.ok_or_else(|| MeshIoError::Parse(format!("missing {what}")))?;
    tok.parse()
        .map_err(|_| MeshIoError::Parse(format!("bad {what}: {tok:?}")))
}

/// Serialize `mesh` in the packed binary format, losslessly.
///
/// After the magic and the two counts, vertices and then triangles follow
/// in blocks of [`BLOCK`]. A coordinate is split at the middle of its
/// `f64`: the high word (sign, exponent, leading mantissa) moves little
/// between neighbouring vertices and is packed ([`crate::pack`])
/// against the previous vertex's; the low word is noise and is stored as
/// it is. A vertex block is `x` highs, `y` highs, then the `(x, y)` low
/// words. A triangle block is its first corners, second corners, third
/// corners, each packed against the same corner two triangles back — in
/// a mesh built strip by strip that is the same corner of the
/// neighbouring quad. A mesh numbered at random gains nothing and pays
/// the width bytes, 0.2%.
pub fn to_binary(mesh: &TriMesh) -> Vec<u8> {
    to_binary_sections(mesh).0
}

/// [`to_binary`]'s bytes and the offset at which the triangle blocks
/// start. What lies before it — the header and every vertex block — is
/// what [`points_from_binary`] parses on its own, what lies after it
/// [`connectivity_from_binary`]: a reader that wants only one of the two
/// needs only those bytes.
pub fn to_binary_sections(mesh: &TriMesh) -> (Vec<u8>, usize) {
    let (nv, nf) = (mesh.num_vertices(), mesh.num_triangles());
    // Typical of a locality-ordered mesh; a shuffled one grows past it.
    let mut out = Vec::with_capacity(BINARY_HEADER + nv * 13 + nf * 3);
    out.extend_from_slice(BINARY_MAGIC);
    out.extend_from_slice(&(nv as u64).to_le_bytes());
    out.extend_from_slice(&(nf as u64).to_le_bytes());

    let mut values = [0u32; BLOCK];
    let (mut xs, mut ys) = ([0], [0]);
    for block in mesh.points().chunks(BLOCK) {
        for (history, coordinate) in [(&mut xs, 0), (&mut ys, 1)] {
            for (v, p) in values.iter_mut().zip(block) {
                *v = ([p.x, p.y][coordinate].to_bits() >> 32) as u32;
            }
            pack_block(&values[..block.len()], history, &mut out);
        }
        for p in block {
            out.extend_from_slice(&(p.x.to_bits() as u32).to_le_bytes());
            out.extend_from_slice(&(p.y.to_bits() as u32).to_le_bytes());
        }
    }
    let triangles_at = out.len();
    let mut corners = [[0; 2]; 3];
    for block in mesh.triangles().chunks(BLOCK) {
        for (c, history) in corners.iter_mut().enumerate() {
            for (v, t) in values.iter_mut().zip(block) {
                *v = t[c];
            }
            pack_block(&values[..block.len()], history, &mut out);
        }
    }
    (out, triangles_at)
}

/// Bytes `mesh` occupies once parsed: what [`from_binary`]'s limit is
/// measured against.
pub fn decoded_bytes(mesh: &TriMesh) -> u64 {
    (mesh.num_vertices() * POINT_BYTES + mesh.num_triangles() * TRI_BYTES) as u64
}

/// Magic, vertex count, triangle count.
const BINARY_HEADER: usize = 24;
/// Bytes one vertex, one triangle occupy once parsed.
pub const POINT_BYTES: usize = 16;
pub const TRI_BYTES: usize = 12;

fn fail(why: impl std::fmt::Display) -> MeshIoError {
    MeshIoError::Parse(format!("binary mesh: {why}"))
}

/// `n * each`, if that is at most `limit`.
fn within(n: u64, each: usize, limit: u64) -> Option<u64> {
    n.checked_mul(each as u64).filter(|&bytes| bytes <= limit)
}

/// `nv` as a length, if that many vertices fit `max_decoded_bytes` once
/// parsed and — a vertex has eight raw bytes, whatever the rest packs
/// to — the `stored` bytes of their blocks.
fn points_fit(nv: u64, stored: u64, max_decoded_bytes: u64) -> Option<usize> {
    within(nv, POINT_BYTES, max_decoded_bytes)
        .and(within(nv, 8, stored))
        .and(usize::try_from(nv).ok())
}

/// `nf` as a length, if that many triangles fit `max_decoded_bytes` once
/// parsed and — a block of triangles has three width bytes — the
/// `stored` bytes of their blocks.
fn triangles_fit(nf: u64, stored: u64, max_decoded_bytes: u64) -> Option<usize> {
    within(nf, TRI_BYTES, max_decoded_bytes)
        .and(within(nf.div_ceil(BLOCK as u64), 3, stored))
        .and(usize::try_from(nf).ok())
}

/// Room for the `nv` vertices of a coordinates section `section_len`
/// bytes long, under the limits [`points_from_binary`] will hold the
/// section to; `None` if it would refuse them. For a caller that wants
/// the array allocated before — and on another thread than — the parse.
pub fn reserve_points(nv: u64, section_len: u64, max_decoded_bytes: u64) -> Option<Vec<Point2>> {
    let stored = section_len.saturating_sub(BINARY_HEADER as u64);
    points_fit(nv, stored, max_decoded_bytes).map(Vec::with_capacity)
}

/// Room for `nf` triangles stored in at most `stored` bytes, under the
/// limits [`connectivity_from_binary`] will hold them to.
pub fn reserve_triangles(
    nf: u64,
    stored: u64,
    max_decoded_bytes: u64,
) -> Option<Vec<[VertexId; 3]>> {
    triangles_fit(nf, stored, max_decoded_bytes).map(Vec::with_capacity)
}

/// The header: the vertex and triangle counts it declares.
fn read_header(r: &mut Reader) -> Result<(u64, u64), MeshIoError> {
    match r.raw(BINARY_MAGIC.len()) {
        Ok(magic) if magic == BINARY_MAGIC => {}
        Ok(magic) if magic == RETIRED_MAGIC => {
            return Err(fail("CNPMESH1 is a retired format; rewrite the file"));
        }
        _ => return Err(fail("bad header")),
    }
    Ok((r.u64().map_err(fail)?, r.u64().map_err(fail)?))
}

/// `nv` vertices' blocks, into `points` (emptied first; its allocation is
/// kept when it is large enough). Nothing is allocated unless the points
/// fit `max_decoded_bytes` and the bytes that are left ([`points_fit`]).
fn read_points(
    r: &mut Reader,
    nv: u64,
    max_decoded_bytes: u64,
    mut points: Vec<Point2>,
) -> Result<Vec<Point2>, MeshIoError> {
    let Some(nv) = points_fit(nv, r.remaining() as u64, max_decoded_bytes) else {
        return Err(fail(format!(
            "{nv} vertices declared, which {} bytes and a limit of \
             {max_decoded_bytes} decoded do not hold",
            r.remaining()
        )));
    };
    points.clear();
    points.reserve_exact(nv);
    // Each block is decoded into local arrays and then appended whole.
    let mut values = [[0u32; BLOCK]; 2];
    let mut decoded = [Point2::default(); BLOCK];
    let (mut xs, mut ys) = ([0], [0]);
    while points.len() < nv {
        let n = BLOCK.min(nv - points.len());
        let [x, y] = &mut values;
        r.unpack_block(&mut xs, &mut x[..n]).map_err(fail)?;
        r.unpack_block(&mut ys, &mut y[..n]).map_err(fail)?;
        let lows = r.raw(n * 8).map_err(fail)?;
        let highs = x[..n].iter().zip(&y[..n]);
        for ((p, (&x, &y)), lows) in decoded.iter_mut().zip(highs).zip(lows.chunks_exact(8)) {
            let lows = u64::from_le_bytes(lows.try_into().expect("8 bytes"));
            *p = Point2::new(
                f64::from_bits((x as u64) << 32 | lows & 0xFFFF_FFFF),
                f64::from_bits((y as u64) << 32 | lows >> 32),
            );
        }
        points.extend_from_slice(&decoded[..n]);
    }
    Ok(points)
}

/// `nf` triangles' blocks over `nv` vertices, into `tris` (emptied
/// first; its allocation is kept when it is large enough). Nothing is
/// allocated unless the triangles fit `max_decoded_bytes` and the bytes
/// that are left ([`triangles_fit`]).
fn read_triangles(
    r: &mut Reader,
    nv: usize,
    nf: u64,
    max_decoded_bytes: u64,
    mut tris: Vec<[VertexId; 3]>,
) -> Result<Connectivity, MeshIoError> {
    let Some(nf) = triangles_fit(nf, r.remaining() as u64, max_decoded_bytes) else {
        return Err(fail(format!(
            "{nf} triangles declared, which {} bytes and a limit of \
             {max_decoded_bytes} decoded do not hold",
            r.remaining()
        )));
    };
    // The largest index stands for the per-index range check: it is in
    // range exactly when every index is.
    let mut largest: VertexId = 0;
    tris.clear();
    tris.reserve_exact(nf);
    let mut values = [[0u32; BLOCK]; 3];
    let mut decoded = [[0; 3]; BLOCK];
    let mut corners = [[0; 2]; 3];
    while tris.len() < nf {
        let n = BLOCK.min(nf - tris.len());
        for (corner, history) in values.iter_mut().zip(&mut corners) {
            r.unpack_block(history, &mut corner[..n]).map_err(fail)?;
            largest = corner[..n].iter().fold(largest, |m, &v| m.max(v));
        }
        let [a, b, c] = &values;
        let abc = a[..n].iter().zip(&b[..n]).zip(&c[..n]);
        for (t, ((&a, &b), &c)) in decoded.iter_mut().zip(abc) {
            *t = [a, b, c];
        }
        tris.extend_from_slice(&decoded[..n]);
    }
    if nf > 0 && largest as usize >= nv {
        return Err(fail(format!(
            "face references vertex {largest} beyond {nv}"
        )));
    }
    Ok(Connectivity::from_checked(tris, nv))
}

fn expect_end(r: &Reader, of: &str) -> Result<(), MeshIoError> {
    match r.remaining() {
        0 => Ok(()),
        n => Err(fail(format!("{n} bytes follow the last {of} block"))),
    }
}

/// Parse a mesh from the packed binary format, in one checked pass over
/// `bytes` — which came off a tier, so nothing in them is believed.
///
/// Packed data can declare far more than its own size, so the caller
/// says how large a mesh it expects: the header's counts must fit
/// `max_decoded_bytes` (see [`decoded_bytes`]) before anything is
/// allocated, and no more than that is. Every block is checked against
/// the bytes that are left, every corner against the vertex count, and
/// the last block must end where `bytes` does.
pub fn from_binary(bytes: &[u8], max_decoded_bytes: u64) -> Result<TriMesh, MeshIoError> {
    let mut r = Reader::new(bytes);
    let (nv, nf) = read_header(&mut r)?;
    let points = read_points(&mut r, nv, max_decoded_bytes, Vec::new())?;
    let left = max_decoded_bytes - (points.len() * POINT_BYTES) as u64;
    let connectivity = read_triangles(&mut r, points.len(), nf, left, Vec::new())?;
    expect_end(&r, "triangle")?;
    Ok(connectivity
        .mesh_over(Arc::new(points))
        .expect("checked against these points"))
}

/// Parse the part of a packed mesh before its triangle blocks (see
/// [`to_binary_sections`]) on its own: the vertex positions, and the
/// triangle count the header declares. Checked like [`from_binary`];
/// `bytes` must end with the last vertex block. The positions are
/// parsed into `points` — `Vec::new()`, or an array the caller reserved
/// ([`reserve_points`]) — which is emptied first and dropped on an error.
pub fn points_from_binary(
    bytes: &[u8],
    max_decoded_bytes: u64,
    points: Vec<Point2>,
) -> Result<(Vec<Point2>, u64), MeshIoError> {
    let mut r = Reader::new(bytes);
    let (nv, nf) = read_header(&mut r)?;
    let points = read_points(&mut r, nv, max_decoded_bytes, points)?;
    expect_end(&r, "vertex")?;
    Ok((points, nf))
}

/// Parse the triangle blocks of a packed mesh on their own. They do not
/// repeat the header, so the caller says how many vertices and triangles
/// the mesh has; every corner is checked against the former. The
/// triangles are parsed into `tris` — `Vec::new()`, or an array the
/// caller reserved ([`reserve_triangles`]). Returns what follows the
/// last triangle block along with the triangles.
pub fn connectivity_from_binary(
    bytes: &[u8],
    num_vertices: usize,
    num_triangles: u64,
    max_decoded_bytes: u64,
    tris: Vec<[VertexId; 3]>,
) -> Result<(Connectivity, &[u8]), MeshIoError> {
    let mut r = Reader::new(bytes);
    let connectivity =
        read_triangles(&mut r, num_vertices, num_triangles, max_decoded_bytes, tris)?;
    Ok((connectivity, r.rest()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{annulus_mesh, jitter_interior};

    fn sample() -> TriMesh {
        jitter_interior(&annulus_mesh(4, 12, 0.5, 1.0), 0.2, 3)
    }

    #[test]
    fn off_roundtrip() {
        let m = sample();
        let mut buf = Vec::new();
        write_off(&m, &mut buf).unwrap();
        let back = read_off(&buf[..]).unwrap();
        assert_eq!(back.num_vertices(), m.num_vertices());
        assert_eq!(back.triangles(), m.triangles());
        for (a, b) in m.points().iter().zip(back.points()) {
            assert!((a.x - b.x).abs() < 1e-12 && (a.y - b.y).abs() < 1e-12);
        }
    }

    /// Any limit will do where the input is the test's own.
    const NO_LIMIT: u64 = u64::MAX;

    #[test]
    fn binary_roundtrip_is_exact() {
        let m = sample();
        let bytes = to_binary(&m);
        let back = from_binary(&bytes, decoded_bytes(&m)).unwrap();
        assert_eq!(back, m, "binary roundtrip must be bit-exact");
        assert_eq!(
            from_binary(&to_binary(&TriMesh::default()), 0).unwrap(),
            TriMesh::default()
        );
    }

    #[test]
    fn sections_parse_on_their_own_and_end_exactly() {
        let m = sample();
        let (bytes, at) = to_binary_sections(&m);
        assert_eq!(bytes, to_binary(&m));
        let (nv, nf) = (m.num_vertices(), m.num_triangles() as u64);
        let (coordinates, triangles) = bytes.split_at(at);
        let points = |bytes, limit| points_from_binary(bytes, limit, Vec::new());
        let connectivity =
            |bytes, nv, nf, limit| connectivity_from_binary(bytes, nv, nf, limit, Vec::new());

        let (parsed, declared) = points(coordinates, (nv * POINT_BYTES) as u64).unwrap();
        assert_eq!((parsed.as_slice(), declared), (m.points(), nf));
        let limit = nf * TRI_BYTES as u64;
        let (parsed_triangles, rest) = connectivity(triangles, nv, nf, limit).unwrap();
        assert!(rest.is_empty());
        assert_eq!(parsed_triangles.num_vertices(), nv);
        let parsed = Arc::new(parsed);
        let over = parsed_triangles.mesh_over(Arc::clone(&parsed)).unwrap();
        assert_eq!(over, m);
        // Assembled, not copied: the mesh reads the parsed arrays.
        assert!(std::ptr::eq(over.points(), parsed.as_slice()));
        assert!(std::ptr::eq(over.triangles(), parsed_triangles.triangles()));
        assert_eq!(
            parsed_triangles.mesh_over(Arc::new(parsed[1..].to_vec())),
            None
        );

        // What follows the triangles is the caller's; what follows the
        // vertices is an error, as is a section cut short or mistaken
        // for the other, and a limit one byte short.
        let mut longer = triangles.to_vec();
        longer.extend_from_slice(b"next");
        let (again, rest) = connectivity(&longer, nv, nf, limit).unwrap();
        assert_eq!((again, rest), (parsed_triangles, &b"next"[..]));
        assert!(points(&bytes[..at + 1], NO_LIMIT).is_err());
        assert!(points(&bytes[..at - 1], NO_LIMIT).is_err());
        assert!(points(triangles, NO_LIMIT).is_err());
        assert!(points(coordinates, (nv * POINT_BYTES) as u64 - 1).is_err());
        assert!(connectivity(&triangles[..triangles.len() - 1], nv, nf, limit).is_err());
        assert!(connectivity(triangles, nv, nf, limit - 1).is_err());
        assert!(connectivity(triangles, nv, u64::MAX, NO_LIMIT).is_err());
        // Corners are checked against the caller's vertex count.
        let why = connectivity(triangles, nv - 1, nf, limit).unwrap_err();
        assert!(why.to_string().contains("beyond"), "{why}");
    }

    #[test]
    fn sections_parse_into_arrays_reserved_within_the_parsers_limits() {
        let m = sample();
        let (bytes, at) = to_binary_sections(&m);
        let (coordinates, triangles) = bytes.split_at(at);
        let (nv, nf) = (m.num_vertices() as u64, m.num_triangles() as u64);
        let (c, t) = (coordinates.len() as u64, triangles.len() as u64);
        let (point_bytes, tri_bytes) = (nv * POINT_BYTES as u64, nf * TRI_BYTES as u64);

        // The parse fills the caller's allocation, whatever it held.
        let mut reserved = reserve_points(nv, c, point_bytes).expect("the section's own counts");
        assert!(reserved.capacity() >= nv as usize);
        reserved.push(Point2::new(9.0, 9.0));
        let at_first = reserved.as_ptr();
        let (parsed, _) = points_from_binary(coordinates, point_bytes, reserved).unwrap();
        assert_eq!(parsed.as_slice(), m.points());
        assert!(std::ptr::eq(parsed.as_ptr(), at_first));

        let mut reserved = reserve_triangles(nf, t, tri_bytes).expect("the section's own counts");
        reserved.push([7; 3]);
        let at_first = reserved.as_ptr();
        let (parsed, _) =
            connectivity_from_binary(triangles, nv as usize, nf, tri_bytes, reserved).unwrap();
        assert_eq!(parsed.triangles(), m.triangles());
        assert!(std::ptr::eq(parsed.triangles().as_ptr(), at_first));

        // Nothing is reserved for counts the parsers would refuse: past
        // the decoded limit, past what the stored bytes can hold (eight
        // raw bytes a vertex after the header, three width bytes per 128
        // triangles), or past what a length can be.
        assert!(reserve_points(nv, c, point_bytes - 1).is_none());
        assert!(reserve_points(nv, BINARY_HEADER as u64 + 8 * nv - 1, NO_LIMIT).is_none());
        assert!(reserve_points(nv, BINARY_HEADER as u64 + 8 * nv, NO_LIMIT).is_some());
        assert!(
            reserve_points(1, 8, NO_LIMIT).is_none(),
            "no room for a header"
        );
        assert!(reserve_triangles(nf, t, tri_bytes - 1).is_none());
        let blocks = nf.div_ceil(BLOCK as u64);
        assert!(reserve_triangles(nf, 3 * blocks - 1, NO_LIMIT).is_none());
        assert!(reserve_triangles(nf, 3 * blocks, NO_LIMIT).is_some());
        for absurd in [u64::MAX, u64::MAX / 16 + 1, 1 << 40] {
            assert!(reserve_points(absurd, c, NO_LIMIT).is_none(), "{absurd}");
            assert!(reserve_triangles(absurd, t, NO_LIMIT).is_none(), "{absurd}");
        }
    }

    #[test]
    fn binary_roundtrips_awkward_coordinates_and_ids() {
        // Signed zeros, subnormals, NaNs with payloads, infinities and
        // neighbours on either side of zero: every bit must come back.
        let coordinates = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE / 4.0,
            -f64::from_bits(1),
            f64::from_bits(0x7FF8_0000_DEAD_BEEF),
            f64::from_bits(0xFFF0_0000_0000_0001),
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e-300,
            -1e300,
            0.25,
            -0.25,
        ];
        let points: Vec<Point2> = coordinates
            .iter()
            .zip(coordinates.iter().rev())
            .map(|(&x, &y)| Point2::new(x, y))
            .collect();
        let last = points.len() as u32 - 1;
        let m = TriMesh::new(points, vec![[0, last, 1], [last, 0, last], [2, 3, 4]]);
        let back = from_binary(&to_binary(&m), decoded_bytes(&m)).unwrap();
        assert_eq!(back.triangles(), m.triangles());
        let bits = |m: &TriMesh| -> Vec<[u64; 2]> {
            let of = |p: &Point2| [p.x.to_bits(), p.y.to_bits()];
            m.points().iter().map(of).collect()
        };
        assert_eq!(bits(&back), bits(&m));
    }

    #[test]
    fn locality_ordered_mesh_packs_and_shuffled_mesh_costs_width_bytes_only() {
        let m = jitter_interior(&annulus_mesh(40, 200, 0.5, 1.0), 0.2, 3);
        let raw = BINARY_HEADER as u64 + decoded_bytes(&m);
        let packed = to_binary(&m).len() as u64;
        assert!(
            packed * 10 < raw * 7,
            "row-major annulus: {packed} of {raw} B"
        );

        // Renumber the vertices and reorder the triangles at random.
        let n = m.num_vertices();
        let mut rank: Vec<u32> = (0..n as u32).collect();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |below: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % below as u64) as usize
        };
        for i in (1..n).rev() {
            rank.swap(i, next(i + 1));
        }
        let mut points = vec![Point2::default(); n];
        for (old, &new) in rank.iter().enumerate() {
            points[new as usize] = m.point(old as u32);
        }
        let mut tris: Vec<[u32; 3]> = m
            .triangles()
            .iter()
            .map(|t| t.map(|v| rank[v as usize]))
            .collect();
        for i in (1..tris.len()).rev() {
            tris.swap(i, next(i + 1));
        }
        let shuffled = TriMesh::new(points, tris);
        let bytes = to_binary(&shuffled);
        assert!(
            (bytes.len() as u64) * 100 <= raw * 101,
            "shuffled: {} of {raw} B",
            bytes.len()
        );
        assert_eq!(from_binary(&bytes, raw).unwrap(), shuffled);
    }

    #[test]
    fn off_rejects_bad_header() {
        assert!(read_off("PLY\n1 0 0\n0 0 0\n".as_bytes()).is_err());
    }

    #[test]
    fn off_rejects_non_triangle_face() {
        let text = "OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n";
        assert!(read_off(text.as_bytes()).is_err());
    }

    #[test]
    fn off_rejects_out_of_range_face() {
        let text = "OFF\n3 1 0\n0 0 0\n1 0 0\n1 1 0\n3 0 1 9\n";
        assert!(read_off(text.as_bytes()).is_err());
    }

    #[test]
    fn binary_rejects_bad_and_retired_magic() {
        let mut bytes = to_binary(&sample());
        bytes[0] = b'X';
        assert!(from_binary(&bytes, NO_LIMIT).is_err());
        // The raw layout this format replaced, as the parent wrote it.
        let mut old = b"CNPMESH1".to_vec();
        old.extend_from_slice(&1u64.to_le_bytes());
        old.extend_from_slice(&0u64.to_le_bytes());
        old.extend_from_slice(&[0; 16]);
        let why = from_binary(&old, NO_LIMIT).unwrap_err().to_string();
        assert!(why.contains("retired format"), "{why}");
    }

    #[test]
    fn binary_rejects_truncation() {
        let bytes = to_binary(&sample());
        assert!(from_binary(&bytes[..bytes.len() - 3], NO_LIMIT).is_err());
        assert!(
            from_binary(&bytes[..20], NO_LIMIT).is_err(),
            "inside the header"
        );
        assert!(from_binary(&[], NO_LIMIT).is_err());
    }

    #[test]
    fn binary_rejects_counts_the_bytes_or_the_limit_do_not_hold() {
        let m = sample();
        let good = to_binary(&m);
        let with_counts = |nv: u64, nf: u64| {
            let mut bytes = good.clone();
            bytes[8..16].copy_from_slice(&nv.to_le_bytes());
            bytes[16..24].copy_from_slice(&nf.to_le_bytes());
            bytes
        };
        let (nv, nf) = (m.num_vertices() as u64, m.num_triangles() as u64);
        assert!(from_binary(&with_counts(nv, nf), NO_LIMIT).is_ok());
        // Each would ask for terabytes, or overflow the size sum, if the
        // counts were believed before being compared with the length;
        // the last three are caught block by block.
        for (nv, nf) in [
            (u64::MAX, nf),
            (nv, u64::MAX),
            (1 << 40, nf),
            (nv, 1 << 40),
            (u64::MAX / 16 + 1, 0),
            (nv + 1, nf),
            (nv - 1, nf),
            (nv, nf + 1),
        ] {
            let bytes = with_counts(nv, nf);
            assert!(from_binary(&bytes, NO_LIMIT).is_err(), "{nv} x {nf}");
        }
        // One triangle fewer can end on the same byte (blocks are padded
        // to one): then it is the mesh without its last triangle.
        if let Ok(shorter) = from_binary(&with_counts(nv, nf - 1), NO_LIMIT) {
            assert_eq!(shorter.points(), m.points());
            assert_eq!(shorter.triangles(), &m.triangles()[..nf as usize - 1]);
        }
        // Trailing bytes are not a mesh either.
        let mut longer = good.clone();
        longer.push(0);
        assert!(from_binary(&longer, NO_LIMIT).is_err());

        // Packed blocks can promise 512 bytes for one: triangles whose
        // residuals are all zero cost three width bytes per 128. Only
        // the caller's limit stands between such a header and its
        // allocation.
        let mut bomb = BINARY_MAGIC.to_vec();
        bomb.extend_from_slice(&1u64.to_le_bytes());
        bomb.extend_from_slice(&(1u64 << 20).to_le_bytes());
        bomb.extend_from_slice(&[0; 2 + 8]);
        bomb.resize(bomb.len() + 3 * (1 << 13), 0);
        assert!(bomb.len() < 25 << 10);
        assert!(from_binary(&bomb, 16 + (12 << 20) - 1).is_err());
        let flat = from_binary(&bomb, 16 + (12 << 20)).unwrap();
        assert_eq!(flat.num_triangles(), 1 << 20);

        let exact = decoded_bytes(&m);
        assert!(from_binary(&good, exact).is_ok());
        assert!(from_binary(&good, exact - 1).is_err());
    }

    #[test]
    fn binary_rejects_out_of_range_face() {
        // A one-triangle mesh: its third corner's residual is the last
        // byte's low bits (a step of +v from zero is stored as 2v), so
        // the corner can be moved past the vertices.
        let m = TriMesh::new(
            vec![
                Point2::new(0.0, 0.0),
                Point2::new(1.0, 0.0),
                Point2::new(0.0, 1.0),
            ],
            vec![[0, 1, 2]],
        );
        let mut bytes = to_binary(&m);
        let (width, residual) = (bytes.len() - 2, bytes.len() - 1);
        assert_eq!((bytes[width], bytes[residual]), (3, 4));
        bytes[residual] = 6;
        let why = from_binary(&bytes, NO_LIMIT).unwrap_err().to_string();
        assert!(why.contains("beyond 3"), "{why}");
        bytes[residual] = 2;
        assert_eq!(
            from_binary(&bytes, NO_LIMIT).unwrap().triangles(),
            [[0, 1, 1]]
        );
    }

    proptest::proptest! {
        /// Bytes from a tier may be truncated or flipped anywhere: the
        /// parser answers with an error or a valid mesh within the
        /// caller's limit, and never panics.
        #[test]
        fn binary_parser_survives_hostile_input(
            flips in proptest::collection::vec((proptest::prelude::any::<u32>(), 0u8..8), 1..4),
            cut in proptest::prelude::any::<u32>(),
            truncate in proptest::prelude::any::<bool>(),
            slack in 0u64..64,
        ) {
            let limit = decoded_bytes(&sample()) + slack;
            let mut bytes = to_binary(&sample());
            for (at, bit) in flips {
                // Half of the flips land in the 24 header bytes.
                let at = at as usize % if at % 2 == 0 { 24 } else { bytes.len() };
                bytes[at] ^= 1 << bit;
            }
            if truncate {
                bytes.truncate(cut as usize % (bytes.len() + 1));
            }
            if let Ok(m) = from_binary(&bytes, limit) {
                proptest::prop_assert!(decoded_bytes(&m) <= limit);
                let n = m.num_vertices();
                proptest::prop_assert!(m.triangles().iter().flatten().all(|&v| (v as usize) < n));
            }
        }
    }

    #[test]
    fn off_skips_comments_and_blanks() {
        let text = "OFF\n# a comment\n\n3 1 0\n0 0 0\n1 0 0\n1 1 0\n# face\n3 0 1 2\n";
        let m = read_off(text.as_bytes()).unwrap();
        assert_eq!(m.num_triangles(), 1);
    }
}
