//! # canopus-adios
//!
//! An ADIOS-like self-describing container and write/query/read API.
//!
//! Canopus is implemented in the paper as "a super I/O transport method in
//! ADIOS", relying on ADIOS' metadata-rich binary-packed (BP) format:
//! global metadata records where each refactored product lives, and
//! analytics reach data through `adios_inq_var` / `adios_read_var` style
//! calls, per accuracy level. This crate reproduces that surface:
//!
//! * [`meta`] — the BP-style metadata model: files → variables → blocks,
//!   each block carrying its [`ProductKind`](canopus_storage::ProductKind)
//!   (base / delta / mapping metadata), element count, codec identity and
//!   parameters, min/max, and sizes; with a compact self-describing binary
//!   serialization.
//! * [`store`] — [`store::BpStore`], whose streaming write
//!   ([`store::BpStore::begin_write`]) places each block by the one
//!   placement rule onto a [`StorageHierarchy`](canopus_storage::StorageHierarchy)
//!   and stores it there as it is pushed, and publishes the manifest
//!   only once every block is stored; and [`store::BpFile`] with
//!   `inq_var`-style queries and per-block reads that report which tier
//!   served them and at what simulated cost. That streaming write is the
//!   in-transit transport of §III-A: blocks reach the tiers while the
//!   writer is still producing later ones, and the manifest is published
//!   last. A write that fails removes what it stored.

pub mod meta;
pub mod store;

pub use meta::{checksum64, AdiosError, BlockMeta, ChunkEntry, FileMeta, GeometrySection, VarMeta};
pub use store::{BpFile, BpStore, StoredBlock};
