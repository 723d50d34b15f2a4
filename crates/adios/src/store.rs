//! The BP store: writing product sets through the placement policy and
//! reading them back with `inq_var`-style queries.

use crate::meta::{checksum64, AdiosError, BlockMeta, ChunkEntry, FileMeta, VarMeta};
use bytes::Bytes;
use canopus_storage::{
    PlacementPlan, Product, ProductKind, SimDuration, StorageHierarchy, WriteBehind,
};
use std::sync::Arc;

/// Key of the global metadata object for a file.
fn meta_key(file: &str) -> String {
    format!("{file}/.bpmeta")
}

/// Build the storage key for a block of a variable.
pub fn block_key(file: &str, var: &str, kind: ProductKind) -> String {
    match kind {
        ProductKind::Base { level } => format!("{file}/{var}/L{level}"),
        ProductKind::DeltaShard {
            finer,
            coarser,
            shard,
        } => format!("{file}/{var}/s{finer}-{coarser}.{shard}"),
        ProductKind::Metadata { level } => format!("{file}/{var}/m{level}"),
    }
}

/// One block handed to [`BpStore::write`]: payload plus everything the
/// metadata needs to describe it.
#[derive(Debug, Clone)]
pub struct BlockWrite {
    pub var: String,
    pub kind: ProductKind,
    pub data: Bytes,
    pub elements: u64,
    pub codec_id: u8,
    pub codec_param: f64,
    pub raw_bytes: u64,
    pub min: f64,
    pub max: f64,
    /// Chunk index of a delta shard (empty for everything else); copied
    /// verbatim into the manifest's [`BlockMeta::chunks`].
    pub chunks: Vec<ChunkEntry>,
}

/// Add block `b`'s manifest entry, stored under `key`, to its variable's
/// entry in `vars` (appended on the variable's first block), so blocks
/// stay in the order they were written.
fn record_block(vars: &mut Vec<VarMeta>, key: String, b: &BlockWrite) {
    let bm = BlockMeta {
        key,
        kind: b.kind,
        elements: b.elements,
        codec_id: b.codec_id,
        codec_param: b.codec_param,
        raw_bytes: b.raw_bytes,
        stored_bytes: b.data.len() as u64,
        min: b.min,
        max: b.max,
        checksum: checksum64(&b.data),
        chunks: b.chunks.clone(),
    };
    match vars.iter_mut().find(|v| v.name == b.var) {
        Some(v) => v.blocks.push(bm),
        None => {
            let mut v = VarMeta::new(b.var.clone());
            v.blocks.push(bm);
            vars.push(v);
        }
    }
}

/// The ADIOS-like store over a storage hierarchy.
#[derive(Clone)]
pub struct BpStore {
    hierarchy: Arc<StorageHierarchy>,
    policy: canopus_storage::placement::PlacementPolicy,
}

impl BpStore {
    pub fn new(hierarchy: Arc<StorageHierarchy>) -> Self {
        Self {
            hierarchy,
            policy: Default::default(),
        }
    }

    pub fn with_policy(
        hierarchy: Arc<StorageHierarchy>,
        policy: canopus_storage::placement::PlacementPolicy,
    ) -> Self {
        Self { hierarchy, policy }
    }

    pub fn hierarchy(&self) -> &StorageHierarchy {
        &self.hierarchy
    }

    /// Shared handle to the hierarchy (for long-lived workers that
    /// outlive a borrow, e.g. the telemetry plane's sim clock).
    pub fn hierarchy_arc(&self) -> Arc<StorageHierarchy> {
        Arc::clone(&self.hierarchy)
    }

    /// Write a file: place every block per the policy (blocks must come
    /// ordered base-first, deltas coarse→fine — the writer in
    /// `canopus` core produces that order), then store the global
    /// metadata on the fastest tier with room.
    ///
    /// Returns the placement plan (which tier got which block) and the
    /// total simulated write time including metadata.
    pub fn write(
        &self,
        file: &str,
        num_levels: u32,
        blocks: Vec<BlockWrite>,
    ) -> Result<(PlacementPlan, SimDuration), AdiosError> {
        // Assemble products + metadata in block order.
        let mut products = Vec::with_capacity(blocks.len());
        let mut vars: Vec<VarMeta> = Vec::new();
        for b in &blocks {
            let key = block_key(file, &b.var, b.kind);
            products.push(Product {
                key: key.clone(),
                kind: b.kind,
                data: b.data.clone(),
            });
            record_block(&mut vars, key, b);
        }

        let plan = self.policy.place(&self.hierarchy, &products, num_levels)?;

        let meta = FileMeta {
            name: file.to_string(),
            num_levels,
            vars,
            attrs: vec![("writer".into(), "canopus".into())],
        };
        let meta_time = self.write_file_meta(file, &meta)?;

        let total = plan.write_time + meta_time;
        Ok((plan, total))
    }

    /// Publish a file's global metadata object on the fastest tier that
    /// can hold it (it is tiny and every open touches it first).
    fn write_file_meta(&self, file: &str, meta: &FileMeta) -> Result<SimDuration, AdiosError> {
        let meta_bytes = Bytes::from(meta.to_bytes());
        for tier in 0..self.hierarchy.num_tiers() {
            let dev = self.hierarchy.tier_device(tier)?;
            if (dev.available() as usize) >= meta_bytes.len() {
                return Ok(self
                    .hierarchy
                    .write_to_tier(tier, &meta_key(file), meta_bytes)?);
            }
        }
        Err(AdiosError::Storage(
            canopus_storage::StorageError::PlacementFailed("no room for metadata".into()),
        ))
    }

    /// Start a streaming write: blocks are pushed one at a time (same
    /// order contract as [`BpStore::write`]), each placement decided
    /// immediately against reserved-capacity accounting and the device
    /// write handed to a per-tier write-behind queue bounded at
    /// `queue_depth` blocks. [`StreamingWrite::commit`] is the barrier
    /// that drains all tiers and only then publishes the manifest — so a
    /// reader can never observe the manifest before every block landed.
    pub fn begin_write(&self, file: &str, num_levels: u32, queue_depth: usize) -> StreamingWrite {
        StreamingWrite {
            writeback: WriteBehind::new(Arc::clone(&self.hierarchy), queue_depth),
            store: self.clone(),
            file: file.to_string(),
            num_levels,
            vars: Vec::new(),
            assignments: Vec::new(),
        }
    }

    /// Open a file by reading its global metadata.
    pub fn open(&self, file: &str) -> Result<BpFile, AdiosError> {
        let (bytes, _, _) = self.hierarchy.read(&meta_key(file))?;
        let meta = FileMeta::from_bytes(&bytes)?;
        Ok(BpFile {
            store: self.clone(),
            meta,
        })
    }

    /// Whether a file exists.
    pub fn exists(&self, file: &str) -> bool {
        self.hierarchy.find(&meta_key(file)).is_ok()
    }

    /// Delete a file: every block plus metadata.
    pub fn delete(&self, file: &str) -> Result<(), AdiosError> {
        let bp = self.open(file)?;
        for var in &bp.meta.vars {
            for block in &var.blocks {
                let _ = self.hierarchy.remove(&block.key);
            }
        }
        self.hierarchy.remove(&meta_key(file))?;
        Ok(())
    }
}

/// An in-flight streaming write created by [`BpStore::begin_write`]:
/// accepts blocks in placement order, overlaps their tier writes with
/// whatever the caller does next, and publishes the manifest only at the
/// commit barrier.
pub struct StreamingWrite {
    store: BpStore,
    file: String,
    num_levels: u32,
    writeback: WriteBehind,
    vars: Vec<VarMeta>,
    assignments: Vec<(String, usize)>,
}

impl StreamingWrite {
    /// Decide the block's tier (reserving its bytes so later decisions
    /// see the serial path's capacity state), queue the device write,
    /// and record the block's metadata in push order.
    pub fn push(&mut self, b: BlockWrite) -> Result<(), AdiosError> {
        let key = block_key(&self.file, &b.var, b.kind);
        let len = b.data.len();
        let policy = &self.store.policy;
        let hierarchy = &self.store.hierarchy;
        let tier = self.writeback.reserve_with(len as u64, |pending| {
            policy.choose_tier(hierarchy, b.kind, len, self.num_levels, &key, pending)
        })?;
        record_block(&mut self.vars, key.clone(), &b);
        self.writeback.enqueue(tier, key.clone(), b.data)?;
        self.assignments.push((key, tier));
        Ok(())
    }

    /// The commit barrier: wait for every tier's write-behind queue to
    /// drain (the "fsync"), then publish the manifest. Returns the same
    /// `(plan, total simulated time)` as [`BpStore::write`] — write time
    /// is a sum over blocks, so it is independent of landing order.
    pub fn commit(self) -> Result<(PlacementPlan, SimDuration), AdiosError> {
        let StreamingWrite {
            store,
            file,
            num_levels,
            writeback,
            vars,
            assignments,
        } = self;
        let write_time = writeback.finish()?;
        let meta = FileMeta {
            name: file.clone(),
            num_levels,
            vars,
            attrs: vec![("writer".into(), "canopus".into())],
        };
        let meta_time = store.write_file_meta(&file, &meta)?;
        let plan = PlacementPlan {
            assignments,
            write_time,
        };
        let total = write_time + meta_time;
        Ok((plan, total))
    }
}

/// An opened BP file: query + read surface (the paper's
/// `adios_inq_var` / `adios_read_var`).
pub struct BpFile {
    store: BpStore,
    meta: FileMeta,
}

impl BpFile {
    pub fn meta(&self) -> &FileMeta {
        &self.meta
    }

    pub fn hierarchy(&self) -> &StorageHierarchy {
        self.store.hierarchy()
    }

    /// `adios_inq_var`: variable metadata by name.
    pub fn inq_var(&self, name: &str) -> Result<&VarMeta, AdiosError> {
        self.meta
            .var(name)
            .ok_or_else(|| AdiosError::NotFound(format!("variable {name}")))
    }

    /// Read one block's payload, reporting the serving tier and the
    /// simulated transfer time. The payload is verified against the
    /// checksum the manifest recorded at placement; a mismatch is a
    /// retryable [`AdiosError::ChecksumMismatch`] (the stored object may
    /// be fine — the corruption can sit in the transfer). No recorded
    /// value skips the check.
    pub fn read_block(&self, block: &BlockMeta) -> Result<(Bytes, usize, SimDuration), AdiosError> {
        let (bytes, tier, dt) = self.store.hierarchy.read(&block.key)?;
        let actual = checksum64(&bytes);
        if actual != block.checksum {
            return Err(AdiosError::ChecksumMismatch {
                key: block.key.clone(),
                expected: block.checksum,
                actual,
            });
        }
        Ok((bytes, tier, dt))
    }

    /// Read one chunk of a shard block with a ranged fetch — only
    /// `entry.len` bytes move off the tier, not the whole shard. The
    /// slice is verified against the per-chunk checksum the manifest
    /// recorded at placement; a mismatch is retryable like
    /// [`read_block`](Self::read_block)'s.
    pub fn read_block_range(
        &self,
        block: &BlockMeta,
        entry: &ChunkEntry,
    ) -> Result<(Bytes, usize, SimDuration), AdiosError> {
        let (bytes, tier, dt) =
            self.store
                .hierarchy
                .read_range(&block.key, entry.offset, entry.len)?;
        let actual = checksum64(&bytes);
        if actual != entry.checksum {
            return Err(AdiosError::ChecksumMismatch {
                key: format!("{}#{}", block.key, entry.chunk),
                expected: entry.checksum,
                actual,
            });
        }
        Ok((bytes, tier, dt))
    }

    /// Convenience: read the base block of a variable.
    pub fn read_base(&self, var: &str) -> Result<(Bytes, BlockMeta, SimDuration), AdiosError> {
        let v = self.inq_var(var)?;
        let block = v
            .base()
            .ok_or_else(|| AdiosError::NotFound(format!("base block of {var}")))?
            .clone();
        let (bytes, _, dt) = self.read_block(&block)?;
        Ok((bytes, block, dt))
    }

    /// Plan the data blocks a restore walk needs, in fetch order: for
    /// each refinement step `finer = from_level - 1` down to `to_level`,
    /// the shard objects of the delta refining into `finer`, in shard
    /// order (each carries its chunk index in [`BlockMeta::chunks`]).
    /// This is the work-list the pipelined reader's prefetch stage walks
    /// ahead of the decoder.
    pub fn restore_plan(
        &self,
        var: &str,
        from_level: u32,
        to_level: u32,
    ) -> Result<Vec<(u32, Vec<BlockMeta>)>, AdiosError> {
        if to_level > from_level {
            return Err(AdiosError::NotFound(format!(
                "restore plan runs coarse to fine: {from_level} -> {to_level}"
            )));
        }
        let v = self.inq_var(var)?;
        let mut plan = Vec::with_capacity((from_level - to_level) as usize);
        for finer in (to_level..from_level).rev() {
            let blocks: Vec<BlockMeta> = v.delta_shards_to(finer).into_iter().cloned().collect();
            if blocks.is_empty() {
                return Err(AdiosError::NotFound(format!(
                    "delta to level {finer} of {var}"
                )));
            }
            plan.push((finer, blocks));
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canopus_storage::TierSpec;

    fn store() -> BpStore {
        let h = StorageHierarchy::new(vec![
            TierSpec::new("fast", 10_000, 1000.0, 1000.0, 0.0),
            TierSpec::new("slow", 1_000_000, 10.0, 10.0, 0.01),
        ]);
        BpStore::new(Arc::new(h))
    }

    fn sample_blocks() -> Vec<BlockWrite> {
        vec![
            BlockWrite {
                var: "dpot".into(),
                kind: ProductKind::Base { level: 2 },
                data: Bytes::from(vec![1u8; 100]),
                elements: 12,
                codec_id: 1,
                codec_param: 1e-6,
                raw_bytes: 96,
                min: -1.0,
                max: 1.0,
                chunks: vec![],
            },
            one_chunk_delta(1, vec![2u8; 200], 25),
            one_chunk_delta(0, vec![3u8; 400], 50),
        ]
    }

    /// A delta as the default layout writes it: one shard whose index
    /// holds one chunk covering the whole object.
    fn one_chunk_delta(finer: u32, payload: Vec<u8>, elements: u64) -> BlockWrite {
        BlockWrite {
            var: "dpot".into(),
            kind: ProductKind::DeltaShard {
                finer,
                coarser: finer + 1,
                shard: 0,
            },
            elements,
            codec_id: 1,
            codec_param: 1e-6,
            raw_bytes: elements * 8,
            min: -0.2,
            max: 0.2,
            chunks: vec![ChunkEntry {
                chunk: 0,
                offset: 0,
                len: payload.len() as u64,
                elements,
                checksum: checksum64(&payload),
                bbox: [0.0, 0.0, 1.0, 1.0],
                min: -0.2,
                max: 0.2,
                codec_id: 1,
            }],
            data: Bytes::from(payload),
        }
    }

    /// The one shard of the delta refining into `finer`.
    fn delta_block(f: &BpFile, finer: u32) -> BlockMeta {
        f.inq_var("dpot").unwrap().delta_shards_to(finer)[0].clone()
    }

    #[test]
    fn write_open_read_roundtrip() {
        let s = store();
        let (plan, t) = s.write("f.bp", 3, sample_blocks()).unwrap();
        assert_eq!(plan.assignments.len(), 3);
        assert!(t.seconds() > 0.0);

        let f = s.open("f.bp").unwrap();
        assert_eq!(f.meta().num_levels, 3);
        let v = f.inq_var("dpot").unwrap();
        assert_eq!(v.blocks.len(), 3);

        let (bytes, block, _) = f.read_base("dpot").unwrap();
        assert_eq!(bytes.len(), 100);
        assert_eq!(block.elements, 12);

        let block = delta_block(&f, 1);
        assert!(matches!(
            block.kind,
            ProductKind::DeltaShard { finer: 1, .. }
        ));
        assert_eq!(f.read_block(&block).unwrap().0.len(), 200);
        // One chunk: the ranged fetch of it moves the same bytes.
        let block = delta_block(&f, 0);
        let (whole, _, _) = f.read_block(&block).unwrap();
        let (ranged, _, _) = f.read_block_range(&block, &block.chunks[0]).unwrap();
        assert_eq!(whole.len(), 400);
        assert_eq!(whole, ranged);
    }

    #[test]
    fn base_lands_on_fast_tier_deltas_on_slow() {
        let s = store();
        let (plan, _) = s.write("f.bp", 3, sample_blocks()).unwrap();
        assert_eq!(plan.tier_of("f.bp/dpot/L2"), Some(0));
        assert_eq!(plan.tier_of("f.bp/dpot/s1-2.0"), Some(1));
        assert_eq!(plan.tier_of("f.bp/dpot/s0-1.0"), Some(1));
    }

    #[test]
    fn reading_base_is_faster_than_delta() {
        let s = store();
        s.write("f.bp", 3, sample_blocks()).unwrap();
        let f = s.open("f.bp").unwrap();
        let (_, _, t_base) = f.read_base("dpot").unwrap();
        let (_, _, t_delta) = f.read_block(&delta_block(&f, 1)).unwrap();
        assert!(
            t_delta.seconds() > t_base.seconds() * 5.0,
            "tier gap should dominate: base {} vs delta {}",
            t_base.seconds(),
            t_delta.seconds()
        );
    }

    #[test]
    fn restore_plan_orders_deltas_coarse_to_fine() {
        let s = store();
        s.write("f.bp", 3, sample_blocks()).unwrap();
        let f = s.open("f.bp").unwrap();
        let plan = f.restore_plan("dpot", 2, 0).unwrap();
        assert_eq!(plan.len(), 2);
        assert_eq!(plan[0].0, 1);
        assert_eq!(plan[1].0, 0);
        assert!(plan.iter().all(|(_, blocks)| blocks.len() == 1));
        assert_eq!(plan[0].1[0].key, "f.bp/dpot/s1-2.0");
        // Empty walk, inverted walk, unknown delta.
        assert!(f.restore_plan("dpot", 0, 0).unwrap().is_empty());
        assert!(f.restore_plan("dpot", 0, 2).is_err());
        assert!(f.restore_plan("nope", 2, 0).is_err());
    }

    #[test]
    fn streaming_write_matches_serial_byte_for_byte() {
        let a = store();
        let b = store();
        let (plan_a, t_a) = a.write("f.bp", 3, sample_blocks()).unwrap();
        let mut sw = b.begin_write("f.bp", 3, 2);
        for blk in sample_blocks() {
            sw.push(blk).unwrap();
        }
        let (plan_b, t_b) = sw.commit().unwrap();
        assert_eq!(plan_a.assignments, plan_b.assignments);
        assert!((t_a.seconds() - t_b.seconds()).abs() < 1e-12);
        for key in [
            "f.bp/dpot/L2",
            "f.bp/dpot/s1-2.0",
            "f.bp/dpot/s0-1.0",
            "f.bp/.bpmeta",
        ] {
            let (da, tier_a, _) = a.hierarchy().read(key).unwrap();
            let (db, tier_b, _) = b.hierarchy().read(key).unwrap();
            assert_eq!(da, db, "{key} bytes");
            assert_eq!(tier_a, tier_b, "{key} tier");
        }
    }

    #[test]
    fn streaming_commit_is_the_publish_barrier() {
        let s = store();
        let mut sw = s.begin_write("f.bp", 3, 2);
        for blk in sample_blocks() {
            sw.push(blk).unwrap();
        }
        assert!(
            !s.exists("f.bp"),
            "manifest must not be visible before commit"
        );
        sw.commit().unwrap();
        assert!(s.exists("f.bp"));
        let f = s.open("f.bp").unwrap();
        assert_eq!(f.inq_var("dpot").unwrap().blocks.len(), 3);
    }

    #[test]
    fn abandoned_streaming_write_publishes_nothing() {
        let s = store();
        let mut sw = s.begin_write("f.bp", 3, 2);
        sw.push(sample_blocks().remove(0)).unwrap();
        drop(sw);
        assert!(!s.exists("f.bp"));
    }

    #[test]
    fn missing_things_error() {
        let s = store();
        assert!(s.open("missing.bp").is_err());
        assert!(!s.exists("missing.bp"));
        s.write("f.bp", 3, sample_blocks()).unwrap();
        assert!(s.exists("f.bp"));
        let f = s.open("f.bp").unwrap();
        assert!(f.inq_var("nope").is_err());
        assert!(f.restore_plan("dpot", 8, 7).is_err());
    }

    #[test]
    fn delete_removes_blocks_and_meta() {
        let s = store();
        s.write("f.bp", 3, sample_blocks()).unwrap();
        s.delete("f.bp").unwrap();
        assert!(!s.exists("f.bp"));
        assert!(s.hierarchy().find("f.bp/dpot/L2").is_err());
    }

    #[test]
    fn two_files_coexist() {
        let s = store();
        s.write("a.bp", 3, sample_blocks()).unwrap();
        s.write("b.bp", 3, sample_blocks()).unwrap();
        assert!(s.open("a.bp").is_ok());
        assert!(s.open("b.bp").is_ok());
        let f = s.open("b.bp").unwrap();
        let (bytes, _, _) = f.read_base("dpot").unwrap();
        assert_eq!(bytes.len(), 100);
    }

    #[test]
    fn checksums_recorded_and_verified() {
        let s = store();
        s.write("f.bp", 3, sample_blocks()).unwrap();
        let f = s.open("f.bp").unwrap();
        for b in &f.inq_var("dpot").unwrap().blocks {
            assert_ne!(b.checksum, 0, "{}: checksum recorded at placement", b.key);
        }
        // Clean payloads verify.
        let base = f.inq_var("dpot").unwrap().base().unwrap().clone();
        f.read_block(&base).unwrap();
        // Corrupt the stored object in place: the next read must fail
        // with a checksum mismatch naming the block.
        let tier = s.hierarchy().find(&base.key).unwrap();
        let mut bytes = s.hierarchy().remove(&base.key).unwrap().to_vec();
        bytes[7] ^= 0xA5;
        s.hierarchy()
            .write_to_tier(tier, &base.key, Bytes::from(bytes))
            .unwrap();
        match f.read_block(&base) {
            Err(AdiosError::ChecksumMismatch { key, .. }) => assert_eq!(key, base.key),
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
        // Both write engines record identical checksums (part of the
        // byte-identical manifest contract).
        let a = store();
        let b = store();
        a.write("g.bp", 3, sample_blocks()).unwrap();
        let mut sw = b.begin_write("g.bp", 3, 2);
        for blk in sample_blocks() {
            sw.push(blk).unwrap();
        }
        sw.commit().unwrap();
        assert_eq!(
            a.open("g.bp").unwrap().meta(),
            b.open("g.bp").unwrap().meta()
        );
    }

    #[test]
    fn zeroed_checksum_fields_fail_the_read() {
        // 0 once meant "unverified" (manifests before checksums). It is
        // an ordinary value now: a manifest whose checksum fields were
        // zeroed must not read as if nothing had been recorded.
        let s = store();
        s.write("f.bp", 3, sample_blocks()).unwrap();
        let mut meta = s.open("f.bp").unwrap().meta().clone();
        for b in &mut meta.vars[0].blocks {
            b.checksum = 0;
            for e in &mut b.chunks {
                e.checksum = 0;
            }
        }
        s.hierarchy().remove(&meta_key("f.bp")).unwrap();
        s.write_file_meta("f.bp", &meta).unwrap();
        let f = s.open("f.bp").unwrap();
        for b in &f.inq_var("dpot").unwrap().blocks {
            match f.read_block(b) {
                Err(AdiosError::ChecksumMismatch { key, expected, .. }) => {
                    assert_eq!((key, expected), (b.key.clone(), 0));
                }
                other => panic!("{}: expected checksum mismatch, got {other:?}", b.key),
            }
            for e in &b.chunks {
                assert!(
                    matches!(
                        f.read_block_range(b, e),
                        Err(AdiosError::ChecksumMismatch { expected: 0, .. })
                    ),
                    "{}#{}",
                    b.key,
                    e.chunk
                );
            }
        }
    }

    #[test]
    fn block_key_format() {
        assert_eq!(
            block_key("f", "v", ProductKind::Base { level: 2 }),
            "f/v/L2"
        );
        assert_eq!(
            block_key("f", "v", ProductKind::Metadata { level: 1 }),
            "f/v/m1"
        );
        assert_eq!(
            block_key(
                "f",
                "v",
                ProductKind::DeltaShard {
                    finer: 0,
                    coarser: 1,
                    shard: 2
                }
            ),
            "f/v/s0-1.2"
        );
    }

    /// Two chunk payloads packed into one shard object.
    fn shard_block() -> BlockWrite {
        let part_a = vec![0x11u8; 64];
        let part_b = vec![0x22u8; 48];
        let mut payload = part_a.clone();
        payload.extend_from_slice(&part_b);
        BlockWrite {
            var: "dpot".into(),
            kind: ProductKind::DeltaShard {
                finer: 1,
                coarser: 2,
                shard: 0,
            },
            data: Bytes::from(payload),
            elements: 14,
            codec_id: 0,
            codec_param: 0.0,
            raw_bytes: 112,
            min: -0.5,
            max: 0.5,
            chunks: vec![
                ChunkEntry {
                    chunk: 0,
                    offset: 0,
                    len: 64,
                    elements: 8,
                    checksum: checksum64(&part_a),
                    bbox: [0.0, 0.0, 0.5, 1.0],
                    min: -0.5,
                    max: 0.0,
                    codec_id: 0,
                },
                ChunkEntry {
                    chunk: 1,
                    offset: 64,
                    len: 48,
                    elements: 6,
                    checksum: checksum64(&part_b),
                    bbox: [0.5, 0.0, 1.0, 1.0],
                    min: 0.0,
                    max: 0.5,
                    codec_id: 0,
                },
            ],
        }
    }

    #[test]
    fn shard_chunks_fetch_ranged_and_verified() {
        let s = store();
        let mut blocks = sample_blocks();
        blocks[1] = shard_block();
        s.write("f.bp", 3, blocks).unwrap();
        let f = s.open("f.bp").unwrap();
        let shard = delta_block(&f, 1);
        assert_eq!(shard.chunks.len(), 2);

        let tier = s.hierarchy().find(&shard.key).unwrap();
        let before = s.hierarchy().tier_stats(tier).unwrap().bytes_read;
        let (bytes, _, _) = f.read_block_range(&shard, &shard.chunks[1]).unwrap();
        assert_eq!(bytes, Bytes::from(vec![0x22u8; 48]));
        let moved = s.hierarchy().tier_stats(tier).unwrap().bytes_read - before;
        assert_eq!(moved, 48, "only the requested range moves off the tier");

        // A flipped byte inside the chunk's range fails its checksum.
        let mut raw = s.hierarchy().remove(&shard.key).unwrap().to_vec();
        raw[70] ^= 0xA5;
        s.hierarchy()
            .write_to_tier(tier, &shard.key, Bytes::from(raw))
            .unwrap();
        match f.read_block_range(&shard, &shard.chunks[1]) {
            Err(AdiosError::ChecksumMismatch { key, .. }) => {
                assert_eq!(key, format!("{}#1", shard.key));
            }
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
        // The untouched chunk still verifies.
        f.read_block_range(&shard, &shard.chunks[0]).unwrap();
    }

    #[test]
    fn restore_plan_returns_shards_with_chunk_index() {
        let s = store();
        // Base + two-chunk shard for level 1, one-chunk delta for level 0.
        let mut blocks = sample_blocks();
        blocks[1] = shard_block();
        s.write("f.bp", 3, blocks).unwrap();
        let f = s.open("f.bp").unwrap();
        let plan = f.restore_plan("dpot", 2, 0).unwrap();
        assert_eq!(plan.len(), 2);
        assert_eq!(plan[0].0, 1);
        assert!(matches!(
            plan[0].1[0].kind,
            ProductKind::DeltaShard { shard: 0, .. }
        ));
        assert_eq!(plan[0].1[0].chunks.len(), 2);
        assert_eq!(plan[1].0, 0);
        assert_eq!(plan[1].1[0].chunks.len(), 1);
    }
}
