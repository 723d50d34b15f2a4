//! BP-style metadata model and its binary serialization.
//!
//! ADIOS' BP format is "metadata-rich": a reader can discover every
//! variable, its blocks and their locations without touching the payloads.
//! Canopus leans on this to know which tier holds which level and to stash
//! the vertex→triangle mapping needed for restoration (paper §III-E2).

use canopus_storage::ProductKind;

/// Errors raised by the ADIOS layer.
#[derive(Debug)]
pub enum AdiosError {
    /// Metadata bytes are malformed.
    Corrupt(String),
    /// Unknown variable or block.
    NotFound(String),
    /// Underlying storage failure.
    Storage(canopus_storage::StorageError),
    /// A block's payload does not match the checksum recorded in the
    /// manifest — the bytes were corrupted somewhere between placement
    /// and this read. Retryable: a fresh fetch may return clean bytes.
    ChecksumMismatch {
        key: String,
        expected: u64,
        actual: u64,
    },
}

impl std::fmt::Display for AdiosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdiosError::Corrupt(m) => write!(f, "corrupt BP metadata: {m}"),
            AdiosError::NotFound(m) => write!(f, "not found: {m}"),
            AdiosError::Storage(e) => write!(f, "storage error: {e}"),
            AdiosError::ChecksumMismatch {
                key,
                expected,
                actual,
            } => write!(
                f,
                "checksum mismatch for {key:?}: manifest {expected:#018x}, payload {actual:#018x}"
            ),
        }
    }
}

impl std::error::Error for AdiosError {}

impl From<canopus_storage::StorageError> for AdiosError {
    fn from(e: canopus_storage::StorageError) -> Self {
        AdiosError::Storage(e)
    }
}

/// One entry of a shard's chunk index: where one independently
/// compressed spatial chunk lives inside its shard object, what it
/// decodes to, and the spatial extent it covers. The read path plans
/// region refinements against the bounding boxes and issues ranged
/// fetches of `[offset, offset + len)` — one chunk moves without the
/// rest of the shard.
///
/// A [`ProductKind::Metadata`] block indexes its two
/// [`GeometrySection`]s the same way: `chunk` is the section's number,
/// `elements` what it holds (vertices, triangles), and the value and
/// codec fields are unused.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkEntry {
    /// Global chunk index within the delta's chunk order.
    pub chunk: u32,
    /// Byte offset of the chunk's compressed stream within the shard.
    pub offset: u64,
    /// Length of the chunk's compressed stream in bytes.
    pub len: u64,
    /// Number of f64 elements the chunk decodes to.
    pub elements: u64,
    /// [`checksum64`] of the chunk's stored bytes, verified on every
    /// ranged fetch.
    pub checksum: u64,
    /// Axis-aligned bounding box of the chunk's vertices:
    /// `[min_x, min_y, max_x, max_y]`.
    pub bbox: [f64; 4],
    /// Value range of the chunk's decompressed data.
    pub min: f64,
    pub max: f64,
    /// Codec identity of the chunk's stream. Chunk-framing decides per
    /// chunk (element count vs the framing threshold), so this can
    /// differ between chunks of one shard.
    pub codec_id: u8,
}

/// The two sections of a level's geometry object (a
/// [`ProductKind::Metadata`] block), in stored order. Each is verified
/// against its own checksum, so a reader fetches the one it consumes:
/// restoring with the mean estimator reads a passed level's topology and
/// never its coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeometrySection {
    /// The mesh header and every vertex position.
    Coordinates = 0,
    /// The triangles, then the fine-vertex → coarse-triangle mapping.
    Topology = 1,
}

impl GeometrySection {
    pub const ALL: [GeometrySection; 2] = [GeometrySection::Coordinates, GeometrySection::Topology];

    pub fn name(self) -> &'static str {
        match self {
            GeometrySection::Coordinates => "coordinates",
            GeometrySection::Topology => "topology",
        }
    }
}

/// Metadata for one stored block (one refactored product of one variable).
#[derive(Debug, Clone, PartialEq)]
pub struct BlockMeta {
    /// Storage key of the payload within the hierarchy.
    pub key: String,
    /// What this block is in Canopus terms.
    pub kind: ProductKind,
    /// Number of f64 elements after decompression (0 for opaque payloads
    /// such as mesh geometry).
    pub elements: u64,
    /// Codec identity (`CodecKind::id()`); 0 = raw.
    pub codec_id: u8,
    /// Codec parameter (tolerance / error bound; 0 for lossless/raw).
    pub codec_param: f64,
    /// Uncompressed payload size in bytes.
    pub raw_bytes: u64,
    /// Stored (compressed) size in bytes.
    pub stored_bytes: u64,
    /// Value range of the decompressed data (for query pushdown).
    pub min: f64,
    pub max: f64,
    /// Checksum of the stored payload ([`checksum64`]), recorded
    /// at placement and verified on every read.
    pub checksum: u64,
    /// Chunk index of a [`ProductKind::DeltaShard`] block, ordered by
    /// ascending in-shard offset, or the two-entry section index of a
    /// [`ProductKind::Metadata`] block; [`FileMeta::from_bytes`] checks
    /// either against the block's sizes. Empty for base blocks.
    pub chunks: Vec<ChunkEntry>,
}

impl BlockMeta {
    /// The index entry of one section of a geometry block. `None` for
    /// any other block (and for a hand-built one without its index; a
    /// parsed manifest has been checked).
    pub fn section(&self, section: GeometrySection) -> Option<&ChunkEntry> {
        matches!(self.kind, ProductKind::Metadata { .. })
            .then(|| self.chunks.get(section as usize))
            .flatten()
    }

    /// A geometry block's index is its two sections, in order, tiling
    /// `[0, stored_bytes)`: readers slice a whole payload and issue
    /// ranged fetches by these numbers.
    fn check_section_index(&self) -> Result<(), AdiosError> {
        let corrupt =
            |what: &str| AdiosError::Corrupt(format!("{}: section index {what}", self.key));
        let [coordinates, topology] = self.chunks.as_slice() else {
            return Err(corrupt("does not hold exactly two sections"));
        };
        for (entry, section) in [coordinates, topology]
            .into_iter()
            .zip(GeometrySection::ALL)
        {
            if entry.chunk != section as u32 {
                return Err(corrupt("is out of order"));
            }
        }
        let tiles = coordinates.offset == 0
            && topology.offset == coordinates.len
            && topology.offset.checked_add(topology.len) == Some(self.stored_bytes);
        if !tiles {
            return Err(corrupt("does not tile the stored bytes"));
        }
        Ok(())
    }

    /// Check the chunk index against the block's own sizes, once, where
    /// the manifest enters the program: a base block has none (its
    /// payload is one stream, and the writer never indexes it); a
    /// shard's entries each lie inside the stored object, ascend without
    /// overlapping, and their element counts add up to the block's.
    /// Readers slice payloads and size buffers by these numbers.
    fn check_chunk_index(&self) -> Result<(), AdiosError> {
        let corrupt = |what: &str| AdiosError::Corrupt(format!("{}: chunk index {what}", self.key));
        match self.kind {
            ProductKind::Metadata { .. } => return self.check_section_index(),
            ProductKind::Base { .. } if self.chunks.is_empty() => return Ok(()),
            ProductKind::Base { .. } => return Err(corrupt("on a base block")),
            ProductKind::DeltaShard { .. } => {}
        }
        let (mut end, mut elements) = (0u64, 0u64);
        for e in &self.chunks {
            if e.offset < end {
                return Err(corrupt("entries overlap or do not ascend"));
            }
            end = e
                .offset
                .checked_add(e.len)
                .filter(|&end| end <= self.stored_bytes)
                .ok_or_else(|| corrupt("entry runs past the stored bytes"))?;
            elements = elements
                .checked_add(e.elements)
                .ok_or_else(|| corrupt("element counts overflow"))?;
        }
        if elements != self.elements {
            return Err(corrupt("element counts do not add up to the block's"));
        }
        Ok(())
    }
}

/// Metadata for one variable: an ordered list of blocks (base, deltas,
/// auxiliary metadata).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct VarMeta {
    pub name: String,
    pub blocks: Vec<BlockMeta>,
}

impl VarMeta {
    /// An empty variable (blocks are pushed as products are placed).
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            blocks: Vec::new(),
        }
    }

    /// Find the base block.
    pub fn base(&self) -> Option<&BlockMeta> {
        self.blocks
            .iter()
            .find(|b| matches!(b.kind, ProductKind::Base { .. }))
    }

    /// All shards of the delta refining level `finer + 1` into `finer`,
    /// ordered by shard index.
    pub fn delta_shards_to(&self, finer: u32) -> Vec<&BlockMeta> {
        let mut shards: Vec<&BlockMeta> = self
            .blocks
            .iter()
            .filter(|b| matches!(b.kind, ProductKind::DeltaShard { finer: f, .. } if f == finer))
            .collect();
        shards.sort_by_key(|b| match b.kind {
            ProductKind::DeltaShard { shard, .. } => shard,
            _ => unreachable!("filtered to shards"),
        });
        shards
    }

    /// Find the auxiliary metadata block for `level`.
    pub fn metadata_for(&self, level: u32) -> Option<&BlockMeta> {
        self.blocks
            .iter()
            .find(|b| matches!(b.kind, ProductKind::Metadata { level: l } if l == level))
    }
}

/// Metadata for one BP file.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FileMeta {
    pub name: String,
    /// Total number of accuracy levels `N`.
    pub num_levels: u32,
    pub vars: Vec<VarMeta>,
    /// Free-form attributes (provenance, experiment parameters).
    pub attrs: Vec<(String, String)>,
}

impl FileMeta {
    pub fn var(&self, name: &str) -> Option<&VarMeta> {
        self.vars.iter().find(|v| v.name == name)
    }
}

/// The manifest format: per-block payload checksums and a per-block
/// chunk index (byte ranges, bounding boxes, per-chunk checksums). The
/// earlier revisions `CBP1`/`CBP2` are rejected like any other unknown
/// magic.
const META_MAGIC: &[u8; 4] = b"CBP3";

/// Multiplier of every [`checksum64`] step; odd, so multiplying by it
/// permutes `u64`.
const SUM_MUL: u64 = 0x9E37_79B9_7F4A_7C15;
/// Start values of the four lanes.
const SUM_LANES: [u64; 4] = [
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
];
/// What a sum of 0 is stored as, so a zeroed manifest field never
/// verifies.
const SUM_OF_ZERO: u64 = 0x4528_21E6_38D0_1377;

/// One step: for a fixed `word` a permutation of `h` (and the reverse),
/// so two states that differ stay different under equal input. The
/// rotation feeds the well-mixed high bits back under the next multiply.
#[inline(always)]
fn sum_step(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(SUM_MUL).rotate_left(29)
}

/// [`checksum64`] before 0 is mapped away (the tests invert it).
#[inline]
fn checksum64_raw(bytes: &[u8]) -> u64 {
    let mut lanes = SUM_LANES;
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = sum_step(
                *lane,
                u64::from_le_bytes(word.try_into().expect("8-byte word")),
            );
        }
    }
    let mut h = bytes.len() as u64;
    for lane in lanes {
        h = sum_step(h, lane);
    }
    for &b in blocks.remainder() {
        h = sum_step(h, b as u64);
    }
    h ^= h >> 32;
    h = h.wrapping_mul(SUM_MUL);
    h ^ (h >> 29)
}

/// The checksum recorded per block (and per shard chunk) in the
/// manifest. The payload is consumed 32 bytes at a time as four
/// independent little-endian 8-byte lanes of xor-multiply-rotate, so
/// the multiplies overlap and the sum runs near memory speed; the
/// lanes, the length and the up-to-31-byte tail then fold into one
/// word through the same step. Every step permutes its state, so any
/// change confined to one word — in particular any single flipped bit
/// or byte, what the fault injector or a real tier introduces — always
/// changes the sum. Never 0, so a payload cannot verify against a
/// checksum field that was zeroed.
pub fn checksum64(bytes: &[u8]) -> u64 {
    match checksum64_raw(bytes) {
        0 => SUM_OF_ZERO,
        h => h,
    }
}

// --- serialization helpers -------------------------------------------------

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_kind(out: &mut Vec<u8>, kind: ProductKind) {
    let (tag, a, b, c) = match kind {
        ProductKind::Base { level } => (0u8, level, 0, 0),
        ProductKind::Metadata { level } => (2, level, 0, 0),
        ProductKind::DeltaShard {
            finer,
            coarser,
            shard,
        } => (4, finer, coarser, shard),
    };
    out.push(tag);
    out.extend_from_slice(&a.to_le_bytes());
    out.extend_from_slice(&b.to_le_bytes());
    out.extend_from_slice(&c.to_le_bytes());
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], AdiosError> {
        if self.pos + n > self.bytes.len() {
            return Err(AdiosError::Corrupt("metadata truncated".into()));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, AdiosError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, AdiosError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, AdiosError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn f64(&mut self) -> Result<f64, AdiosError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn str(&mut self) -> Result<String, AdiosError> {
        let len = self.u32()? as usize;
        if len > 1 << 24 {
            return Err(AdiosError::Corrupt(format!("absurd string length {len}")));
        }
        let b = self.take(len)?;
        String::from_utf8(b.to_vec()).map_err(|_| AdiosError::Corrupt("bad utf8".into()))
    }

    fn kind(&mut self) -> Result<ProductKind, AdiosError> {
        let tag = self.u8()?;
        let a = self.u32()?;
        let b = self.u32()?;
        let c = self.u32()?;
        match tag {
            0 => Ok(ProductKind::Base { level: a }),
            2 => Ok(ProductKind::Metadata { level: a }),
            4 => Ok(ProductKind::DeltaShard {
                finer: a,
                coarser: b,
                shard: c,
            }),
            // 1 and 3 were the monolithic and per-chunk-object delta
            // layouts; no writer emits them any more.
            t => Err(AdiosError::Corrupt(format!("bad product kind tag {t}"))),
        }
    }
}

impl FileMeta {
    /// Serialize to the compact binary form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        out.extend_from_slice(META_MAGIC);
        put_str(&mut out, &self.name);
        out.extend_from_slice(&self.num_levels.to_le_bytes());
        out.extend_from_slice(&(self.vars.len() as u32).to_le_bytes());
        for var in &self.vars {
            put_str(&mut out, &var.name);
            out.extend_from_slice(&(var.blocks.len() as u32).to_le_bytes());
            for b in &var.blocks {
                put_str(&mut out, &b.key);
                put_kind(&mut out, b.kind);
                out.extend_from_slice(&b.elements.to_le_bytes());
                out.push(b.codec_id);
                out.extend_from_slice(&b.codec_param.to_le_bytes());
                out.extend_from_slice(&b.raw_bytes.to_le_bytes());
                out.extend_from_slice(&b.stored_bytes.to_le_bytes());
                out.extend_from_slice(&b.min.to_le_bytes());
                out.extend_from_slice(&b.max.to_le_bytes());
                out.extend_from_slice(&b.checksum.to_le_bytes());
                out.extend_from_slice(&(b.chunks.len() as u32).to_le_bytes());
                for e in &b.chunks {
                    out.extend_from_slice(&e.chunk.to_le_bytes());
                    out.extend_from_slice(&e.offset.to_le_bytes());
                    out.extend_from_slice(&e.len.to_le_bytes());
                    out.extend_from_slice(&e.elements.to_le_bytes());
                    out.extend_from_slice(&e.checksum.to_le_bytes());
                    for coord in e.bbox {
                        out.extend_from_slice(&coord.to_le_bytes());
                    }
                    out.extend_from_slice(&e.min.to_le_bytes());
                    out.extend_from_slice(&e.max.to_le_bytes());
                    out.push(e.codec_id);
                }
            }
        }
        out.extend_from_slice(&(self.attrs.len() as u32).to_le_bytes());
        for (k, v) in &self.attrs {
            put_str(&mut out, k);
            put_str(&mut out, v);
        }
        out
    }

    /// Parse the binary form.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, AdiosError> {
        let mut c = Cursor { bytes, pos: 0 };
        if c.take(4)? != META_MAGIC {
            return Err(AdiosError::Corrupt("bad BP metadata magic".into()));
        }
        let name = c.str()?;
        let num_levels = c.u32()?;
        let nvars = c.u32()? as usize;
        if nvars > 1 << 20 {
            return Err(AdiosError::Corrupt("absurd variable count".into()));
        }
        let mut vars = Vec::with_capacity(nvars);
        for _ in 0..nvars {
            let vname = c.str()?;
            let nblocks = c.u32()? as usize;
            if nblocks > 1 << 20 {
                return Err(AdiosError::Corrupt("absurd block count".into()));
            }
            let mut blocks = Vec::with_capacity(nblocks);
            for _ in 0..nblocks {
                let mut block = BlockMeta {
                    key: c.str()?,
                    kind: c.kind()?,
                    elements: c.u64()?,
                    codec_id: c.u8()?,
                    codec_param: c.f64()?,
                    raw_bytes: c.u64()?,
                    stored_bytes: c.u64()?,
                    min: c.f64()?,
                    max: c.f64()?,
                    checksum: c.u64()?,
                    chunks: Vec::new(),
                };
                let nchunks = c.u32()? as usize;
                if nchunks > 1 << 20 {
                    return Err(AdiosError::Corrupt("absurd chunk count".into()));
                }
                block.chunks.reserve_exact(nchunks);
                for _ in 0..nchunks {
                    block.chunks.push(ChunkEntry {
                        chunk: c.u32()?,
                        offset: c.u64()?,
                        len: c.u64()?,
                        elements: c.u64()?,
                        checksum: c.u64()?,
                        bbox: [c.f64()?, c.f64()?, c.f64()?, c.f64()?],
                        min: c.f64()?,
                        max: c.f64()?,
                        codec_id: c.u8()?,
                    });
                }
                block.check_chunk_index()?;
                blocks.push(block);
            }
            vars.push(VarMeta {
                name: vname,
                blocks,
            });
        }
        let nattrs = c.u32()? as usize;
        if nattrs > 1 << 20 {
            return Err(AdiosError::Corrupt("absurd attribute count".into()));
        }
        let mut attrs = Vec::with_capacity(nattrs);
        for _ in 0..nattrs {
            let k = c.str()?;
            let v = c.str()?;
            attrs.push((k, v));
        }
        Ok(Self {
            name,
            num_levels,
            vars,
            attrs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FileMeta {
        FileMeta {
            name: "xgc1.bp".into(),
            num_levels: 3,
            vars: vec![VarMeta {
                name: "dpot".into(),
                blocks: vec![
                    BlockMeta {
                        key: "xgc1.bp/dpot/L2".into(),
                        kind: ProductKind::Base { level: 2 },
                        elements: 5000,
                        codec_id: 1,
                        codec_param: 1e-6,
                        raw_bytes: 40_000,
                        stored_bytes: 9_000,
                        min: -1.5,
                        max: 2.25,
                        checksum: 0xDEAD_BEEF_0000_0001,
                        chunks: vec![],
                    },
                    // A one-chunk delta: the index covers the whole object.
                    BlockMeta {
                        key: "xgc1.bp/dpot/s1-2.0".into(),
                        kind: ProductKind::DeltaShard {
                            finer: 1,
                            coarser: 2,
                            shard: 0,
                        },
                        elements: 10_000,
                        codec_id: 1,
                        codec_param: 1e-6,
                        raw_bytes: 80_000,
                        stored_bytes: 7_000,
                        min: -0.1,
                        max: 0.1,
                        checksum: 0xDEAD_BEEF_0000_0002,
                        chunks: vec![ChunkEntry {
                            chunk: 0,
                            offset: 0,
                            len: 7_000,
                            elements: 10_000,
                            checksum: 0xDEAD_BEEF_0000_0002,
                            bbox: [0.0, 0.0, 1.0, 1.0],
                            min: -0.1,
                            max: 0.1,
                            codec_id: 1,
                        }],
                    },
                    BlockMeta {
                        key: "xgc1.bp/dpot/s0-1.0".into(),
                        kind: ProductKind::DeltaShard {
                            finer: 0,
                            coarser: 1,
                            shard: 0,
                        },
                        elements: 20_000,
                        codec_id: 1,
                        codec_param: 1e-6,
                        raw_bytes: 160_000,
                        stored_bytes: 14_000,
                        min: -0.2,
                        max: 0.2,
                        checksum: 0xDEAD_BEEF_0000_0003,
                        chunks: vec![
                            ChunkEntry {
                                chunk: 0,
                                offset: 0,
                                len: 7_000,
                                elements: 10_000,
                                checksum: 0xFEED_0000_0000_0001,
                                bbox: [0.0, 0.0, 0.5, 1.0],
                                min: -0.2,
                                max: 0.1,
                                codec_id: 1,
                            },
                            ChunkEntry {
                                chunk: 1,
                                offset: 7_000,
                                len: 7_000,
                                elements: 10_000,
                                checksum: 0xFEED_0000_0000_0002,
                                bbox: [0.5, 0.0, 1.0, 1.0],
                                min: -0.1,
                                max: 0.2,
                                codec_id: 1,
                            },
                        ],
                    },
                    BlockMeta {
                        key: "xgc1.bp/dpot/m1".into(),
                        kind: ProductKind::Metadata { level: 1 },
                        elements: 0,
                        codec_id: 0,
                        codec_param: 0.0,
                        raw_bytes: 500,
                        stored_bytes: 123,
                        min: 0.0,
                        max: 0.0,
                        checksum: 0,
                        chunks: vec![section(0, 0, 100, 10_000), section(1, 100, 23, 19_000)],
                    },
                ],
            }],
            attrs: vec![("app".into(), "XGC1".into())],
        }
    }

    /// One entry of a geometry block's section index.
    fn section(chunk: u32, offset: u64, len: u64, elements: u64) -> ChunkEntry {
        ChunkEntry {
            chunk,
            offset,
            len,
            elements,
            checksum: 0xFACE_0000_0000_0000 + chunk as u64,
            bbox: [0.0; 4],
            min: 0.0,
            max: 0.0,
            codec_id: 0,
        }
    }

    #[test]
    fn roundtrip_is_exact() {
        let m = sample();
        let bytes = m.to_bytes();
        let back = FileMeta::from_bytes(&bytes).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn query_helpers() {
        let m = sample();
        let v = m.var("dpot").unwrap();
        assert!(matches!(
            v.base().unwrap().kind,
            ProductKind::Base { level: 2 }
        ));
        assert_eq!(v.delta_shards_to(1).len(), 1);
        assert!(v.delta_shards_to(2).is_empty());
        assert!(v.metadata_for(1).is_some());
        assert!(v.metadata_for(2).is_none());
        assert!(m.var("nope").is_none());
    }

    #[test]
    fn rejects_corruption() {
        let m = sample();
        let mut bytes = m.to_bytes();
        bytes[0] = b'X';
        assert!(FileMeta::from_bytes(&bytes).is_err());
        let bytes2 = m.to_bytes();
        assert!(FileMeta::from_bytes(&bytes2[..bytes2.len() - 5]).is_err());
        assert!(FileMeta::from_bytes(&[]).is_err());
    }

    #[test]
    fn rejects_absurd_counts() {
        // Craft: magic + empty name + levels + huge var count.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(META_MAGIC);
        bytes.extend_from_slice(&0u32.to_le_bytes()); // name len 0
        bytes.extend_from_slice(&3u32.to_le_bytes()); // levels
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // nvars
        assert!(FileMeta::from_bytes(&bytes).is_err());
    }

    #[test]
    fn empty_file_meta_roundtrips() {
        let m = FileMeta {
            name: String::new(),
            num_levels: 0,
            vars: vec![],
            attrs: vec![],
        };
        assert_eq!(FileMeta::from_bytes(&m.to_bytes()).unwrap(), m);
    }

    /// The manifest `sample()` serializes to, with `edit` applied to its
    /// two-chunk shard block before serialization.
    fn sample_with(edit: impl FnOnce(&mut BlockMeta)) -> Vec<u8> {
        sample_with_block(2, edit)
    }

    fn sample_with_block(block: usize, edit: impl FnOnce(&mut BlockMeta)) -> Vec<u8> {
        let mut m = sample();
        edit(&mut m.vars[0].blocks[block]);
        m.to_bytes()
    }

    #[test]
    fn retired_revisions_and_kind_tags_are_rejected() {
        let good = sample().to_bytes();
        assert!(FileMeta::from_bytes(&good).is_ok());
        for magic in [b"CBP1", b"CBP2", b"CBP4"] {
            let mut bytes = good.clone();
            bytes[..4].copy_from_slice(magic);
            assert!(
                matches!(FileMeta::from_bytes(&bytes), Err(AdiosError::Corrupt(_))),
                "{}",
                String::from_utf8_lossy(magic)
            );
        }
        // The kind tag is the byte after a block's key; 1 and 3 were
        // the monolithic and per-chunk-object delta layouts.
        let key = b"xgc1.bp/dpot/s1-2.0";
        let tag_at = good.windows(key.len()).position(|w| w == key).unwrap() + key.len();
        assert_eq!(good[tag_at], 4);
        for tag in [1u8, 3, 5, 0xFF] {
            let mut bytes = good.clone();
            bytes[tag_at] = tag;
            assert!(
                matches!(FileMeta::from_bytes(&bytes), Err(AdiosError::Corrupt(_))),
                "kind tag {tag}"
            );
        }
    }

    #[test]
    fn inconsistent_chunk_indexes_are_rejected() {
        type Edit = fn(&mut BlockMeta);
        // Block 2 is the two-chunk shard, block 0 the base.
        let cases: [(&str, usize, Edit); 8] = [
            ("range past the object", 2, |b| b.chunks[1].len += 1),
            ("offset + len overflows", 2, |b| {
                b.chunks[1].offset = u64::MAX
            }),
            ("overlap", 2, |b| b.chunks[1].offset -= 1),
            ("descending", 2, |b| b.chunks.swap(0, 1)),
            ("elements short", 2, |b| b.chunks[0].elements -= 1),
            ("elements overflow", 2, |b| b.chunks[0].elements = u64::MAX),
            ("shard without an index", 2, |b| b.chunks.clear()),
            // An index that would hold for a shard: one entry over the
            // whole object and every value.
            ("base block with a chunk index", 0, |b| {
                b.chunks = vec![ChunkEntry {
                    len: b.stored_bytes,
                    elements: b.elements,
                    ..section(0, 0, 0, 0)
                }]
            }),
        ];
        for (what, block, edit) in cases {
            assert!(
                matches!(
                    FileMeta::from_bytes(&sample_with_block(block, edit)),
                    Err(AdiosError::Corrupt(_))
                ),
                "{what}"
            );
        }
        // Gaps between entries are allowed; only overlap is not.
        assert!(FileMeta::from_bytes(&sample_with(|b| b.chunks[0].len -= 1)).is_ok());
    }

    #[test]
    fn geometry_blocks_need_two_sections_tiling_the_object() {
        let geometry = sample().vars[0].blocks[3].clone();
        for (s, name) in GeometrySection::ALL
            .into_iter()
            .zip(["coordinates", "topology"])
        {
            assert_eq!(geometry.section(s), Some(&geometry.chunks[s as usize]));
            assert_eq!(s.name(), name);
        }
        // Only geometry blocks have sections.
        let shard = &sample().vars[0].blocks[2];
        assert_eq!(shard.section(GeometrySection::Coordinates), None);

        type Edit = fn(&mut BlockMeta);
        let cases: [(&str, Edit); 9] = [
            ("no index", |b| b.chunks.clear()),
            ("one section", |b| b.chunks.truncate(1)),
            ("three sections", |b| b.chunks.push(b.chunks[1].clone())),
            ("swapped", |b| b.chunks.swap(0, 1)),
            ("renumbered", |b| b.chunks[1].chunk = 2),
            ("gap", |b| b.chunks[0].len -= 1),
            ("overlap", |b| b.chunks[1].offset -= 1),
            ("short of the object", |b| b.chunks[1].len -= 1),
            ("end overflows", |b| b.chunks[1].len = u64::MAX),
        ];
        for (what, edit) in cases {
            assert!(
                matches!(
                    FileMeta::from_bytes(&sample_with_block(3, edit)),
                    Err(AdiosError::Corrupt(_))
                ),
                "{what}"
            );
        }
    }

    #[test]
    fn chunk_index_roundtrips_exactly() {
        let m = sample();
        let back = FileMeta::from_bytes(&m.to_bytes()).unwrap();
        let shard = back.vars[0]
            .blocks
            .iter()
            .find(|b| matches!(b.kind, ProductKind::DeltaShard { finer: 0, .. }))
            .unwrap();
        assert_eq!(shard.chunks.len(), 2);
        assert_eq!(shard.chunks[1].offset, 7_000);
        assert_eq!(shard.chunks[1].bbox, [0.5, 0.0, 1.0, 1.0]);
        assert_eq!(back, m);
        assert_eq!(back.vars[0].delta_shards_to(0).len(), 1);
        assert!(back.vars[0].delta_shards_to(2).is_empty());
    }

    /// Deterministic filler that is neither constant nor periodic in 8
    /// or 32 bytes.
    fn filler(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn checksum64_detects_every_single_bit_flip_at_lane_and_tail_boundaries() {
        // 0..=129 covers the empty payload, a pure tail, one and four
        // whole blocks, and every tail length after them.
        for len in 0..=129usize {
            let payload = filler(len, len as u64);
            let base = checksum64(&payload);
            assert_eq!(base, checksum64(&payload), "deterministic");
            for bit in 0..len * 8 {
                let mut flipped = payload.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(checksum64(&flipped), base, "len {len}, bit {bit}");
            }
        }
    }

    #[test]
    fn checksum64_detects_bit_flips_anywhere_in_a_large_payload() {
        let mut payload = filler(1 << 20, 7);
        let base = checksum64(&payload);
        for pick in filler(512 * 4, 99).chunks_exact(4) {
            let bit = u32::from_le_bytes(pick.try_into().unwrap()) as usize % (payload.len() * 8);
            payload[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(checksum64(&payload), base, "bit {bit}");
            payload[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(checksum64(&payload), base);
    }

    #[test]
    fn checksum64_covers_the_length() {
        // Trailing zeros are what a short transfer padded by the device
        // (or a truncated one) looks like; the bytes alone cannot tell.
        for len in 0..=129usize {
            for body in [vec![0u8; len], filler(len, 3)] {
                let base = checksum64(&body);
                let mut longer = body.clone();
                for extra in 1..=40 {
                    longer.push(0);
                    assert_ne!(checksum64(&longer), base, "len {len} + {extra} zeros");
                }
            }
        }
    }

    #[test]
    fn checksum64_is_independent_of_alignment() {
        let backing = filler(4096 + 8, 11);
        let expect = checksum64(&backing[..4096]);
        for shift in 0..8 {
            let mut moved = vec![0u8; 4096 + 8];
            moved[shift..shift + 4096].copy_from_slice(&backing[..4096]);
            assert_eq!(
                checksum64(&moved[shift..shift + 4096]),
                expect,
                "shift {shift}"
            );
        }
    }

    #[test]
    fn checksum64_is_never_zero() {
        // Every step can be undone, so a payload whose sum would be 0 can
        // be built: with no tail, the last fold reaches 0 exactly when
        // the fourth lane equals the running word, and the final mix
        // keeps 0 at 0.
        let mut inv = SUM_MUL;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(SUM_MUL.wrapping_mul(inv)));
        }
        assert_eq!(SUM_MUL.wrapping_mul(inv), 1, "inverse of the multiplier");
        let mut payload = filler(32, 5);
        let mut h = payload.len() as u64;
        for (seed, word) in SUM_LANES.iter().zip(payload.chunks_exact(8)).take(3) {
            let word = u64::from_le_bytes(word.try_into().unwrap());
            h = sum_step(h, sum_step(*seed, word));
        }
        let last = h.rotate_right(29).wrapping_mul(inv) ^ SUM_LANES[3];
        payload[24..].copy_from_slice(&last.to_le_bytes());
        assert_eq!(checksum64_raw(&payload), 0, "the construction holds");
        assert_eq!(checksum64(&payload), SUM_OF_ZERO);
        assert_ne!(checksum64(b""), 0);
    }

    #[test]
    fn checksum64_definition_is_pinned() {
        // The stored definition: a change here orphans every manifest.
        let payload: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        assert_eq!(checksum64(&payload), 0xC6F6_199E_6514_8344);
        assert_eq!(checksum64(b""), 0x411E_1BF4_1E2E_328F);
    }
}
