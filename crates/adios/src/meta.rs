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

/// One entry of a shard's chunk index (format rev `CBP3`): where one
/// independently compressed Morton spatial chunk lives inside its shard
/// object, what it decodes to, and the spatial extent it covers. The
/// read path plans region refinements against the bounding boxes and
/// issues ranged fetches of `[offset, offset + len)` — one chunk moves
/// without the rest of the shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkEntry {
    /// Global chunk index within the delta's Morton order.
    pub chunk: u32,
    /// Byte offset of the chunk's compressed stream within the shard.
    pub offset: u64,
    /// Length of the chunk's compressed stream in bytes.
    pub len: u64,
    /// Number of f64 elements the chunk decodes to.
    pub elements: u64,
    /// [`checksum64`] of the chunk's stored bytes, verified on every
    /// ranged fetch (0 = unverified).
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
    /// at placement and verified on every read. `0` means "unverified"
    /// — the manifest predates checksums (legacy `CBP1` format).
    pub checksum: u64,
    /// Chunk index of a [`ProductKind::DeltaShard`] block (format rev
    /// `CBP3`), ordered by ascending in-shard offset. Empty for
    /// monolithic blocks and for manifests predating `CBP3`.
    pub chunks: Vec<ChunkEntry>,
}

/// Metadata for one variable: an ordered list of blocks (base, deltas,
/// auxiliary metadata).
#[derive(Debug, Clone, Default)]
pub struct VarMeta {
    pub name: String,
    pub blocks: Vec<BlockMeta>,
    /// Parse-time restore-planner index: finer level → indices into
    /// `blocks` of that delta's `DeltaChunk` blocks in ascending chunk
    /// order. Built once by [`FileMeta::from_bytes`] so
    /// [`delta_chunks_to`](Self::delta_chunks_to) — a hot path in the
    /// restore planner — neither rescans nor re-sorts per call.
    /// Writer-side `VarMeta`s assembled block-by-block leave it empty
    /// and fall back to the scan. Never serialized, never compared.
    chunk_order: std::collections::HashMap<u32, Vec<u32>>,
}

/// `chunk_order` is a derived cache; two metas are equal iff their
/// serialized contents are.
impl PartialEq for VarMeta {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.blocks == other.blocks
    }
}

impl VarMeta {
    /// An empty variable (blocks are pushed as products are placed).
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            blocks: Vec::new(),
            chunk_order: std::collections::HashMap::new(),
        }
    }

    /// Find the base block.
    pub fn base(&self) -> Option<&BlockMeta> {
        self.blocks
            .iter()
            .find(|b| matches!(b.kind, ProductKind::Base { .. }))
    }

    /// Find the delta refining level `finer + 1` into `finer`.
    pub fn delta_to(&self, finer: u32) -> Option<&BlockMeta> {
        self.blocks
            .iter()
            .find(|b| matches!(b.kind, ProductKind::Delta { finer: f, .. } if f == finer))
    }

    /// All chunks of the delta refining into `finer`, ordered by chunk
    /// index (empty when the delta was stored unchunked). Served from
    /// the precomputed `chunk_order` index on parsed manifests; the
    /// scan-and-sort fallback only runs for writer-side metas that were
    /// never [`rebuild_indexes`](Self::rebuild_indexes)d.
    pub fn delta_chunks_to(&self, finer: u32) -> Vec<&BlockMeta> {
        if !self.chunk_order.is_empty() {
            return self
                .chunk_order
                .get(&finer)
                .map(|idxs| idxs.iter().map(|&i| &self.blocks[i as usize]).collect())
                .unwrap_or_default();
        }
        let mut chunks: Vec<&BlockMeta> = self
            .blocks
            .iter()
            .filter(|b| matches!(b.kind, ProductKind::DeltaChunk { finer: f, .. } if f == finer))
            .collect();
        chunks.sort_by_key(|b| match b.kind {
            ProductKind::DeltaChunk { chunk, .. } => chunk,
            _ => unreachable!("filtered to chunks"),
        });
        chunks
    }

    /// All shards of the delta refining into `finer`, ordered by shard
    /// index (empty when the delta was not stored sharded).
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

    /// (Re)build the derived lookup indexes from `blocks`. Called once
    /// per variable at manifest parse time.
    pub fn rebuild_indexes(&mut self) {
        self.chunk_order.clear();
        let mut keyed: Vec<(u32, u32, u32)> = self
            .blocks
            .iter()
            .enumerate()
            .filter_map(|(i, b)| match b.kind {
                ProductKind::DeltaChunk { finer, chunk, .. } => Some((finer, chunk, i as u32)),
                _ => None,
            })
            .collect();
        keyed.sort_unstable_by_key(|&(finer, chunk, _)| (finer, chunk));
        for (finer, _, idx) in keyed {
            self.chunk_order.entry(finer).or_default().push(idx);
        }
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

/// Current manifest format: v3 adds a per-block chunk index (byte
/// ranges, bounding boxes, per-chunk checksums) for sharded spatial
/// layouts.
const META_MAGIC: &[u8; 4] = b"CBP3";
/// v2 manifests (per-block payload checksum, no chunk index) are still
/// readable; their blocks carry an empty `chunks` vector and read via
/// the monolithic path.
const META_MAGIC_V2: &[u8; 4] = b"CBP2";
/// Legacy manifests (no checksums) are still readable; their blocks
/// carry `checksum == 0`, which reads treat as "skip verification".
const META_MAGIC_V1: &[u8; 4] = b"CBP1";

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
/// What a sum of 0 is stored as: 0 in a manifest means "unverified".
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
/// changes the sum. Never 0, which manifests reserve for "unverified".
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
        ProductKind::Delta { finer, coarser } => (1, finer, coarser, 0),
        ProductKind::Metadata { level } => (2, level, 0, 0),
        ProductKind::DeltaChunk {
            finer,
            coarser,
            chunk,
        } => (3, finer, coarser, chunk),
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
            1 => Ok(ProductKind::Delta {
                finer: a,
                coarser: b,
            }),
            2 => Ok(ProductKind::Metadata { level: a }),
            3 => Ok(ProductKind::DeltaChunk {
                finer: a,
                coarser: b,
                chunk: c,
            }),
            4 => Ok(ProductKind::DeltaShard {
                finer: a,
                coarser: b,
                shard: c,
            }),
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
        let magic = c.take(4)?;
        let (has_checksums, has_chunk_index) = match () {
            _ if magic == META_MAGIC => (true, true),
            _ if magic == META_MAGIC_V2 => (true, false),
            _ if magic == META_MAGIC_V1 => (false, false),
            _ => return Err(AdiosError::Corrupt("bad BP metadata magic".into())),
        };
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
                    checksum: if has_checksums { c.u64()? } else { 0 },
                    chunks: Vec::new(),
                };
                if has_chunk_index {
                    let nchunks = c.u32()? as usize;
                    if nchunks > 1 << 20 {
                        return Err(AdiosError::Corrupt("absurd chunk count".into()));
                    }
                    let mut chunks = Vec::with_capacity(nchunks);
                    for _ in 0..nchunks {
                        chunks.push(ChunkEntry {
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
                    block.chunks = chunks;
                }
                blocks.push(block);
            }
            let mut var = VarMeta {
                name: vname,
                blocks,
                ..VarMeta::default()
            };
            var.rebuild_indexes();
            vars.push(var);
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

    /// Serialize in the previous `CBP2` layout: per-block checksums but
    /// no chunk index. Back-compat fixture support — the regression
    /// tests downgrade a live manifest with this and prove old files
    /// keep opening and reading via the monolithic path. Lossy for
    /// sharded blocks (their chunk index is dropped).
    pub fn to_bytes_v2(&self) -> Vec<u8> {
        self.to_bytes_versioned(META_MAGIC_V2, true)
    }

    /// Serialize in the legacy `CBP1` layout: no checksums, no chunk
    /// index. See [`Self::to_bytes_v2`] for the intended use.
    pub fn to_bytes_v1(&self) -> Vec<u8> {
        self.to_bytes_versioned(META_MAGIC_V1, false)
    }

    fn to_bytes_versioned(&self, magic: &[u8; 4], checksums: bool) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        out.extend_from_slice(magic);
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
                if checksums {
                    out.extend_from_slice(&b.checksum.to_le_bytes());
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
                    BlockMeta {
                        key: "xgc1.bp/dpot/d1-2".into(),
                        kind: ProductKind::Delta {
                            finer: 1,
                            coarser: 2,
                        },
                        elements: 10_000,
                        codec_id: 1,
                        codec_param: 1e-6,
                        raw_bytes: 80_000,
                        stored_bytes: 7_000,
                        min: -0.1,
                        max: 0.1,
                        checksum: 0xDEAD_BEEF_0000_0002,
                        chunks: vec![],
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
                        raw_bytes: 123,
                        stored_bytes: 123,
                        min: 0.0,
                        max: 0.0,
                        checksum: 0,
                        chunks: vec![],
                    },
                ],
                ..VarMeta::default()
            }],
            attrs: vec![("app".into(), "XGC1".into())],
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
        assert!(v.delta_to(1).is_some());
        assert!(v.delta_to(0).is_none());
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

    #[test]
    fn legacy_v1_manifests_parse_with_unverified_checksums() {
        let m = sample();
        let back = FileMeta::from_bytes(&m.to_bytes_v1()).unwrap();
        assert_eq!(back.vars.len(), 1);
        for (old, new) in m.vars[0].blocks.iter().zip(&back.vars[0].blocks) {
            assert_eq!(new.checksum, 0, "v1 blocks are unverified");
            assert!(new.chunks.is_empty(), "v1 blocks carry no chunk index");
            assert_eq!(
                BlockMeta {
                    checksum: 0,
                    chunks: vec![],
                    ..old.clone()
                },
                *new,
                "everything but checksum and chunk index survives"
            );
        }
    }

    #[test]
    fn v2_manifests_parse_with_empty_chunk_index() {
        let m = sample();
        let back = FileMeta::from_bytes(&m.to_bytes_v2()).unwrap();
        for (old, new) in m.vars[0].blocks.iter().zip(&back.vars[0].blocks) {
            assert_eq!(new.checksum, old.checksum, "v2 keeps checksums");
            assert!(new.chunks.is_empty(), "v2 blocks carry no chunk index");
        }
    }

    #[test]
    fn chunk_index_roundtrips_exactly() {
        let m = sample();
        let back = FileMeta::from_bytes(&m.to_bytes()).unwrap();
        let shard = back.vars[0]
            .blocks
            .iter()
            .find(|b| matches!(b.kind, ProductKind::DeltaShard { .. }))
            .unwrap();
        assert_eq!(shard.chunks.len(), 2);
        assert_eq!(shard.chunks[1].offset, 7_000);
        assert_eq!(shard.chunks[1].bbox, [0.5, 0.0, 1.0, 1.0]);
        assert_eq!(back, m);
        assert_eq!(back.vars[0].delta_shards_to(0).len(), 1);
        assert!(back.vars[0].delta_shards_to(1).is_empty());
    }

    #[test]
    fn parsed_chunk_order_matches_scan_fallback() {
        // Chunks interleaved across two deltas, out of chunk order.
        let mk = |finer: u32, chunk: u32| BlockMeta {
            key: format!("f/v/d{finer}-{}.{chunk}", finer + 1),
            kind: ProductKind::DeltaChunk {
                finer,
                coarser: finer + 1,
                chunk,
            },
            elements: 8,
            codec_id: 0,
            codec_param: 0.0,
            raw_bytes: 64,
            stored_bytes: 64,
            min: 0.0,
            max: 1.0,
            checksum: 7,
            chunks: vec![],
        };
        let scrambled = VarMeta {
            name: "v".into(),
            blocks: vec![mk(1, 2), mk(0, 1), mk(1, 0), mk(0, 0), mk(1, 1)],
            ..VarMeta::default()
        };
        let m = FileMeta {
            name: "f".into(),
            num_levels: 3,
            vars: vec![scrambled.clone()],
            attrs: vec![],
        };
        let parsed = FileMeta::from_bytes(&m.to_bytes()).unwrap();
        for finer in 0..2 {
            let from_index = parsed.vars[0].delta_chunks_to(finer);
            let from_scan = scrambled.delta_chunks_to(finer);
            assert_eq!(from_index, from_scan, "finer {finer}");
            let order: Vec<u32> = from_index
                .iter()
                .map(|b| match b.kind {
                    ProductKind::DeltaChunk { chunk, .. } => chunk,
                    _ => unreachable!(),
                })
                .collect();
            assert!(order.windows(2).all(|w| w[0] < w[1]), "sorted: {order:?}");
        }
        assert!(parsed.vars[0].delta_chunks_to(2).is_empty());
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
