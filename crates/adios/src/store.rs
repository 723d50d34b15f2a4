//! The BP store: writing a file through the streaming write and reading
//! it back with `inq_var`-style queries.

use crate::meta::{checksum64, AdiosError, BlockMeta, ChunkEntry, FileMeta, VarMeta};
use bytes::Bytes;
use canopus_storage::{choose_tier, ProductKind, SimDuration, StorageHierarchy, WriteBehind};
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

/// One block handed to [`StreamingWrite::push`]: payload plus everything
/// the metadata needs to describe it.
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

/// One block a committed write stored: where it went and its size
/// before and after encoding.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredBlock {
    pub key: String,
    pub kind: ProductKind,
    /// Tier index the block landed on.
    pub tier: usize,
    pub raw_bytes: u64,
    pub stored_bytes: u64,
}

/// The ADIOS-like store over a storage hierarchy.
#[derive(Clone)]
pub struct BpStore {
    hierarchy: Arc<StorageHierarchy>,
}

impl BpStore {
    pub fn new(hierarchy: Arc<StorageHierarchy>) -> Self {
        Self { hierarchy }
    }

    pub fn hierarchy(&self) -> &StorageHierarchy {
        &self.hierarchy
    }

    /// Shared handle to the hierarchy (for long-lived workers that
    /// outlive a borrow, e.g. the telemetry plane's sim clock).
    pub fn hierarchy_arc(&self) -> Arc<StorageHierarchy> {
        Arc::clone(&self.hierarchy)
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

    /// Start a write — the only way a file reaches the tiers. Blocks are
    /// pushed one at a time (base first, deltas coarse→fine: the order
    /// the placement rule ranks them in), each placement decided
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
            stored: Vec::new(),
            committed: false,
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
/// commit barrier. Dropped without a successful commit — an error, a
/// panic, a failed commit — it removes every block it landed, from the
/// tier it landed on.
pub struct StreamingWrite {
    store: BpStore,
    file: String,
    num_levels: u32,
    writeback: WriteBehind,
    vars: Vec<VarMeta>,
    stored: Vec<StoredBlock>,
    committed: bool,
}

impl StreamingWrite {
    /// Decide the block's tier (reserving its bytes so later decisions
    /// see the capacity state of placing one block at a time), queue the
    /// device write, and record the block's metadata in push order.
    pub fn push(&mut self, b: BlockWrite) -> Result<(), AdiosError> {
        let key = block_key(&self.file, &b.var, b.kind);
        let len = b.data.len();
        let hierarchy = &self.store.hierarchy;
        let tier = self.writeback.reserve_with(len as u64, |pending| {
            choose_tier(hierarchy, b.kind, len, self.num_levels, &key, pending)
        })?;
        record_block(&mut self.vars, key.clone(), &b);
        self.stored.push(StoredBlock {
            key: key.clone(),
            kind: b.kind,
            tier,
            raw_bytes: b.raw_bytes,
            stored_bytes: len as u64,
        });
        self.writeback.enqueue(tier, key, b.data)?;
        Ok(())
    }

    /// The commit barrier: wait for every tier's write-behind queue to
    /// drain (the "fsync"), then publish the manifest. Returns every
    /// block stored, in push order, and the total simulated write time,
    /// manifest included — a sum over blocks, so independent of landing
    /// order.
    pub fn commit(mut self) -> Result<(Vec<StoredBlock>, SimDuration), AdiosError> {
        let write_time = self.writeback.finish()?;
        let meta = FileMeta {
            name: self.file.clone(),
            num_levels: self.num_levels,
            vars: std::mem::take(&mut self.vars),
            attrs: vec![("writer".into(), "canopus".into())],
        };
        let meta_time = self.store.write_file_meta(&self.file, &meta)?;
        self.committed = true;
        Ok((std::mem::take(&mut self.stored), write_time + meta_time))
    }
}

impl Drop for StreamingWrite {
    fn drop(&mut self) {
        if !self.committed {
            self.writeback.undo();
        }
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
    use canopus_storage::{StorageError, TierSpec};

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

    /// Stream `blocks` into `file` as a 3-level file and commit.
    fn write(s: &BpStore, file: &str, blocks: Vec<BlockWrite>) -> (Vec<StoredBlock>, SimDuration) {
        let mut sw = s.begin_write(file, 3, 2);
        for b in blocks {
            sw.push(b).unwrap();
        }
        sw.commit().unwrap()
    }

    /// The streaming write's oracle: place one block at a time — the
    /// placement rule with nothing pending, then the device write — and
    /// publish the manifest. Returns each key's tier and the total time.
    fn write_one_at_a_time(
        s: &BpStore,
        file: &str,
        blocks: Vec<BlockWrite>,
    ) -> (Vec<(String, usize)>, SimDuration) {
        let h = s.hierarchy();
        let (mut tiers, mut vars, mut time) = (Vec::new(), Vec::new(), SimDuration::ZERO);
        for b in blocks {
            let key = block_key(file, &b.var, b.kind);
            let tier = choose_tier(h, b.kind, b.data.len(), 3, &key, &|_| 0).unwrap();
            time += h.write_to_tier(tier, &key, b.data.clone()).unwrap();
            record_block(&mut vars, key.clone(), &b);
            tiers.push((key, tier));
        }
        let meta = FileMeta {
            name: file.to_string(),
            num_levels: 3,
            vars,
            attrs: vec![("writer".into(), "canopus".into())],
        };
        time += s.write_file_meta(file, &meta).unwrap();
        (tiers, time)
    }

    fn tiers_of(stored: &[StoredBlock]) -> Vec<(String, usize)> {
        stored.iter().map(|b| (b.key.clone(), b.tier)).collect()
    }

    /// The base block of `dpot`, read and verified.
    fn read_base(f: &BpFile) -> (Bytes, BlockMeta, SimDuration) {
        let block = f.inq_var("dpot").unwrap().base().unwrap().clone();
        let (bytes, _, dt) = f.read_block(&block).unwrap();
        (bytes, block, dt)
    }

    /// The one shard of the delta refining into `finer`.
    fn delta_block(f: &BpFile, finer: u32) -> BlockMeta {
        f.inq_var("dpot").unwrap().delta_shards_to(finer)[0].clone()
    }

    #[test]
    fn write_open_read_roundtrip() {
        let s = store();
        let (stored, t) = write(&s, "f.bp", sample_blocks());
        assert_eq!(stored.len(), 3);
        assert!(t.seconds() > 0.0);

        let f = s.open("f.bp").unwrap();
        assert_eq!(f.meta().num_levels, 3);
        let v = f.inq_var("dpot").unwrap();
        assert_eq!(v.blocks.len(), 3);

        let (bytes, block, _) = read_base(&f);
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
        let (stored, _) = write(&s, "f.bp", sample_blocks());
        assert_eq!(
            tiers_of(&stored),
            [
                ("f.bp/dpot/L2".to_string(), 0),
                ("f.bp/dpot/s1-2.0".to_string(), 1),
                ("f.bp/dpot/s0-1.0".to_string(), 1),
            ]
        );
    }

    #[test]
    fn reading_base_is_faster_than_delta() {
        let s = store();
        write(&s, "f.bp", sample_blocks());
        let f = s.open("f.bp").unwrap();
        let (_, _, t_base) = read_base(&f);
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
        write(&s, "f.bp", sample_blocks());
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
    fn streaming_write_matches_one_block_at_a_time_byte_for_byte() {
        let a = store();
        let b = store();
        let (tiers_a, t_a) = write_one_at_a_time(&a, "f.bp", sample_blocks());
        let (stored_b, t_b) = write(&b, "f.bp", sample_blocks());
        assert_eq!(tiers_a, tiers_of(&stored_b));
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
        for tier in 0..2 {
            let dev = s.hierarchy().tier_device(tier).unwrap();
            assert!(dev.keys().is_empty() && dev.used() == 0, "tier {tier}");
        }
    }

    #[test]
    fn abandoned_write_removes_only_the_copy_it_landed() {
        // A live object fills tier 0 under the base's key, so the
        // streamed base bypasses to tier 1. Undoing the write removes the
        // tier-1 copy; a fastest-first remove would take the live one.
        let s = store();
        let live = Bytes::from(vec![9u8; 9_950]);
        s.hierarchy()
            .write_to_tier(0, "f.bp/dpot/L2", live.clone())
            .unwrap();
        let mut sw = s.begin_write("f.bp", 3, 2);
        sw.push(sample_blocks().remove(0)).unwrap();
        assert_eq!(sw.stored[0].tier, 1);
        drop(sw);
        let h = s.hierarchy();
        assert_eq!(h.tier_device(0).unwrap().get("f.bp/dpot/L2").unwrap(), live);
        assert!(h.tier_device(1).unwrap().keys().is_empty());
    }

    #[test]
    fn a_failed_write_reports_the_device_error_and_keeps_nothing() {
        // A stray object already holds the first delta's key on tier 1:
        // the write fails with the device's own refusal, wherever it
        // surfaces (a later push, or the commit barrier), and undoes
        // everything it landed.
        let s = store();
        let stray = Bytes::from_static(b"stray");
        s.hierarchy()
            .write_to_tier(1, "f.bp/dpot/s1-2.0", stray.clone())
            .unwrap();
        let mut sw = s.begin_write("f.bp", 3, 2);
        let outcome = sample_blocks()
            .into_iter()
            .try_for_each(|b| sw.push(b))
            .and_then(|()| sw.commit().map(drop));
        match outcome {
            Err(AdiosError::Storage(StorageError::AlreadyExists(key))) => {
                assert_eq!(key, "f.bp/dpot/s1-2.0")
            }
            other => panic!("expected the device's AlreadyExists, got {other:?}"),
        }
        assert!(!s.exists("f.bp"));
        let h = s.hierarchy();
        assert!(h.tier_device(0).unwrap().keys().is_empty());
        assert_eq!(h.tier_device(1).unwrap().keys(), ["f.bp/dpot/s1-2.0"]);
        assert_eq!(h.read("f.bp/dpot/s1-2.0").unwrap().0, stray);
    }

    #[test]
    fn a_failed_commit_keeps_nothing() {
        // The manifest's key is taken: every block lands, the publish
        // fails, and the blocks go again.
        let s = store();
        s.hierarchy()
            .write_to_tier(0, &meta_key("f.bp"), Bytes::from_static(b"x"))
            .unwrap();
        let mut sw = s.begin_write("f.bp", 3, 2);
        for b in sample_blocks() {
            sw.push(b).unwrap();
        }
        assert!(sw.commit().is_err());
        let h = s.hierarchy();
        assert_eq!(h.tier_device(0).unwrap().keys(), [meta_key("f.bp")]);
        assert!(h.tier_device(1).unwrap().keys().is_empty());
    }

    #[test]
    fn missing_things_error() {
        let s = store();
        assert!(s.open("missing.bp").is_err());
        assert!(!s.exists("missing.bp"));
        write(&s, "f.bp", sample_blocks());
        assert!(s.exists("f.bp"));
        let f = s.open("f.bp").unwrap();
        assert!(f.inq_var("nope").is_err());
        assert!(f.restore_plan("dpot", 8, 7).is_err());
    }

    #[test]
    fn delete_removes_blocks_and_meta() {
        let s = store();
        write(&s, "f.bp", sample_blocks());
        s.delete("f.bp").unwrap();
        assert!(!s.exists("f.bp"));
        assert!(s.hierarchy().find("f.bp/dpot/L2").is_err());
    }

    #[test]
    fn two_files_coexist() {
        let s = store();
        write(&s, "a.bp", sample_blocks());
        write(&s, "b.bp", sample_blocks());
        assert!(s.open("a.bp").is_ok());
        assert!(s.open("b.bp").is_ok());
        let f = s.open("b.bp").unwrap();
        let (bytes, _, _) = read_base(&f);
        assert_eq!(bytes.len(), 100);
    }

    #[test]
    fn checksums_recorded_and_verified() {
        let s = store();
        write(&s, "f.bp", sample_blocks());
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
        // The streaming write records the checksums its one-block-at-a-
        // time oracle does (part of the byte-identical manifest contract).
        let a = store();
        let b = store();
        write_one_at_a_time(&a, "g.bp", sample_blocks());
        write(&b, "g.bp", sample_blocks());
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
        write(&s, "f.bp", sample_blocks());
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
        write(&s, "f.bp", blocks);
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
        write(&s, "f.bp", blocks);
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
