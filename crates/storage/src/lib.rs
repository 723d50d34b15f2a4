//! # canopus-storage
//!
//! Multi-tier HPC storage hierarchy substrate for the Canopus reproduction.
//!
//! The paper evaluates Canopus on a two-tier hierarchy (DRAM-backed tmpfs +
//! the Lustre parallel file system on Titan) and motivates deeper
//! hierarchies (HBM, NVRAM, SSD/burst buffer, PFS, campaign storage) on
//! Summit/Aurora-class machines. We do not have Titan; what the paper's
//! Figs. 6b and 9–11 actually depend on is the *relative* performance of
//! the tiers, so this crate provides:
//!
//! * [`tier::TierSpec`] — capacity / bandwidth / latency description of one
//!   tier, with presets calibrated to published numbers for tmpfs, NVRAM,
//!   burst-buffer SSDs, Lustre and campaign storage;
//! * [`device::Device`] — a real key→bytes store backing each tier
//!   (in-memory, thread-safe) with strict capacity enforcement, so every
//!   byte Canopus "places" is actually stored and read back bit-exactly;
//! * [`clock::SimClock`] — a deterministic simulated clock that integrates
//!   modeled transfer times (`latency + bytes/bandwidth`), giving
//!   reproducible I/O timings on any host;
//! * [`hierarchy::StorageHierarchy`] — the ordered tier stack with
//!   fastest-first reads, per-tier accounting, and
//!   [`StorageHierarchy::place`], which decides a block's tier and lands
//!   it there as one step against every other writer;
//! * [`placement`] — the paper's one placement rule (§III-D),
//!   [`placement::choose_tier`]: the base on the fastest tier, deltas on
//!   slower ones, a tier without room bypassed;
//! * [`fault::FaultPlan`] — deterministic, seedable fault injection per
//!   tier (transient errors, payload corruption, added latency, hard
//!   tier-down windows) so the layers above can be tested for graceful,
//!   accuracy-degrading recovery instead of hard failure.

pub mod clock;
pub mod device;
pub mod error;
pub mod fault;
pub mod hierarchy;
pub mod placement;
pub mod tier;

pub use clock::{SimClock, SimDuration};
pub use device::Device;
pub use error::StorageError;
pub use fault::{FaultOp, FaultPlan};
pub use hierarchy::{StorageHierarchy, TierStats};
pub use placement::{choose_tier, ProductKind};
pub use tier::TierSpec;
