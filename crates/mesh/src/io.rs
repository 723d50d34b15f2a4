//! Mesh (de)serialization.
//!
//! Two interchange forms:
//!
//! * a text format compatible with the classic OFF layout, convenient for
//!   eyeballing and for importing into external viewers;
//! * a little-endian binary format with a magic header, used by the ADIOS
//!   container to embed mesh levels next to their data.

use crate::geometry::Point2;
use crate::mesh::{TriMesh, VertexId};
use std::io::{self, BufRead, BufReader, Read, Write};

const BINARY_MAGIC: &[u8; 8] = b"CNPMESH1";

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

/// Parse a mesh from OFF text (z coordinates are dropped; only triangular
/// faces are accepted).
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

    let mut points = Vec::with_capacity(nv);
    for i in 0..nv {
        let line = lines
            .next()
            .ok_or_else(|| MeshIoError::Parse(format!("missing vertex line {i}")))??;
        let mut it = line.split_whitespace();
        let x: f64 = parse_tok(it.next(), "x")?;
        let y: f64 = parse_tok(it.next(), "y")?;
        points.push(Point2::new(x, y));
    }
    let mut tris = Vec::with_capacity(nf);
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

/// Serialize `mesh` in the compact binary format.
pub fn write_binary<W: Write>(mesh: &TriMesh, mut w: W) -> io::Result<()> {
    w.write_all(BINARY_MAGIC)?;
    w.write_all(&(mesh.num_vertices() as u64).to_le_bytes())?;
    w.write_all(&(mesh.num_triangles() as u64).to_le_bytes())?;
    for p in mesh.points() {
        w.write_all(&p.x.to_le_bytes())?;
        w.write_all(&p.y.to_le_bytes())?;
    }
    for t in mesh.triangles() {
        for &v in t {
            w.write_all(&v.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Serialize `mesh` into an owned byte buffer.
pub fn to_binary(mesh: &TriMesh) -> Vec<u8> {
    let mut buf = Vec::with_capacity(24 + mesh.num_vertices() * 16 + mesh.num_triangles() * 12);
    write_binary(mesh, &mut buf).expect("writing to Vec cannot fail");
    buf
}

/// Bytes before the vertex array: magic, vertex count, triangle count.
const BINARY_HEADER: usize = 24;
const POINT_BYTES: usize = 16;
const TRI_BYTES: usize = 12;

/// Parse a mesh from the binary format, in one pass over `bytes`.
///
/// The header's counts must account for the slice's length exactly,
/// which is checked before anything is allocated: a corrupted header
/// can ask for no more memory than the bytes that are really there.
pub fn from_binary(bytes: &[u8]) -> Result<TriMesh, MeshIoError> {
    if bytes.len() < BINARY_HEADER || &bytes[..8] != BINARY_MAGIC {
        return Err(MeshIoError::Parse("bad binary mesh header".into()));
    }
    let count = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    let (nv, nf) = (count(8), count(16));
    let sized = |n: u64, each: usize| usize::try_from(n).ok()?.checked_mul(each);
    let expected = sized(nv, POINT_BYTES).and_then(|points| {
        sized(nf, TRI_BYTES)?
            .checked_add(points)?
            .checked_add(BINARY_HEADER)
    });
    if expected != Some(bytes.len()) {
        return Err(MeshIoError::Parse(format!(
            "binary mesh header counts {nv} vertices and {nf} triangles, \
             which {} bytes do not hold",
            bytes.len()
        )));
    }
    let (points, tris) = bytes[BINARY_HEADER..].split_at(nv as usize * POINT_BYTES);
    let f64_at = |c: &[u8]| f64::from_le_bytes(c.try_into().expect("8 bytes"));
    let points: Vec<Point2> = points
        .chunks_exact(POINT_BYTES)
        .map(|c| Point2::new(f64_at(&c[..8]), f64_at(&c[8..])))
        .collect();
    // The largest index stands for the per-index range check: it is in
    // range exactly when every index is.
    let mut largest: VertexId = 0;
    let tris: Vec<[VertexId; 3]> = tris
        .chunks_exact(TRI_BYTES)
        .map(|c| {
            let t = [0, 4, 8].map(|at| u32::from_le_bytes(c[at..at + 4].try_into().expect("4")));
            largest = largest.max(t[0]).max(t[1]).max(t[2]);
            t
        })
        .collect();
    if !tris.is_empty() && largest as u64 >= nv {
        return Err(MeshIoError::Parse(format!(
            "binary face references vertex {largest} beyond {nv}"
        )));
    }
    Ok(TriMesh::from_checked(points, tris))
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

    #[test]
    fn binary_roundtrip_is_exact() {
        let m = sample();
        let bytes = to_binary(&m);
        let back = from_binary(&bytes).unwrap();
        assert_eq!(back, m, "binary roundtrip must be bit-exact");
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
    fn binary_rejects_bad_magic() {
        let mut bytes = to_binary(&sample());
        bytes[0] = b'X';
        assert!(from_binary(&bytes).is_err());
    }

    #[test]
    fn binary_rejects_truncation() {
        let bytes = to_binary(&sample());
        assert!(from_binary(&bytes[..bytes.len() - 3]).is_err());
        assert!(from_binary(&bytes[..20]).is_err(), "inside the header");
        assert!(from_binary(&[]).is_err());
    }

    #[test]
    fn binary_rejects_counts_the_bytes_do_not_hold() {
        let good = to_binary(&sample());
        let with_counts = |nv: u64, nf: u64| {
            let mut bytes = good.clone();
            bytes[8..16].copy_from_slice(&nv.to_le_bytes());
            bytes[16..24].copy_from_slice(&nf.to_le_bytes());
            bytes
        };
        let (nv, nf) = (
            sample().num_vertices() as u64,
            sample().num_triangles() as u64,
        );
        assert!(from_binary(&with_counts(nv, nf)).is_ok());
        // Each would ask for terabytes, or overflow the size sum, if the
        // counts were believed before being compared with the length.
        for (nv, nf) in [
            (u64::MAX, nf),
            (nv, u64::MAX),
            (1 << 40, nf),
            (nv, 1 << 40),
            (u64::MAX / 16 + 1, 0),
            (nv + 1, nf),
            (nv, nf - 1),
        ] {
            assert!(from_binary(&with_counts(nv, nf)).is_err(), "{nv} x {nf}");
        }
        // Trailing bytes are not a mesh either.
        let mut longer = good.clone();
        longer.push(0);
        assert!(from_binary(&longer).is_err());
    }

    #[test]
    fn binary_rejects_out_of_range_face() {
        let m = sample();
        let mut bytes = to_binary(&m);
        let last = bytes.len() - 4;
        bytes[last..].copy_from_slice(&(m.num_vertices() as u32).to_le_bytes());
        assert!(from_binary(&bytes).is_err());
    }

    proptest::proptest! {
        /// Bytes from a tier may be truncated or flipped anywhere: the
        /// parser answers with an error or a valid mesh of exactly the
        /// input's size, and never panics.
        #[test]
        fn binary_parser_survives_hostile_input(
            flips in proptest::collection::vec((proptest::prelude::any::<u32>(), 0u8..8), 1..4),
            cut in proptest::prelude::any::<u32>(),
            truncate in proptest::prelude::any::<bool>(),
        ) {
            let mut bytes = to_binary(&sample());
            for (at, bit) in flips {
                // Half of the flips land in the 24 header bytes.
                let at = at as usize % if at % 2 == 0 { 24 } else { bytes.len() };
                bytes[at] ^= 1 << bit;
            }
            if truncate {
                bytes.truncate(cut as usize % (bytes.len() + 1));
            }
            if let Ok(m) = from_binary(&bytes) {
                proptest::prop_assert_eq!(
                    BINARY_HEADER + m.num_vertices() * POINT_BYTES + m.num_triangles() * TRI_BYTES,
                    bytes.len()
                );
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
