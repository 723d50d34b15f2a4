//! # canopus
//!
//! **Canopus: elastic extreme-scale data analytics on HPC storage** —
//! a full reproduction of Lu et al., IEEE CLUSTER 2017.
//!
//! Canopus refactors simulation output (floating-point fields over
//! unstructured triangular meshes) into a small low-accuracy **base**
//! dataset plus a series of **deltas**, compresses each product with a
//! floating-point codec, and places them across a storage hierarchy —
//! base on the fastest tier, deltas on larger/slower tiers. Analytics
//! then trades accuracy for speed *on the fly*: read just the base for a
//! quick exploratory pass, or progressively fetch deltas to restore any
//! accuracy up to the original.
//!
//! ```
//! use canopus::{Canopus, CanopusConfig};
//! use canopus_storage::StorageHierarchy;
//! use canopus_data::xgc1_dataset;
//! use std::sync::Arc;
//!
//! // A Titan-like two-tier hierarchy: small fast tmpfs over big Lustre.
//! let hierarchy = Arc::new(StorageHierarchy::titan_two_tier(
//!     1 << 20,      // 1 MiB tmpfs slice (proportional allocation)
//!     1 << 30,      // 1 GiB Lustre slice
//! ));
//! let canopus = Canopus::new(hierarchy, CanopusConfig::default());
//!
//! // Refactor + compress + place one variable.
//! let ds = canopus_data::xgc1_dataset(42);
//! let report = canopus.write("xgc1.bp", "dpot", &ds.mesh, &ds.data).unwrap();
//! assert!(report.products.len() >= 3); // base + deltas + meshes
//!
//! // Progressive retrieval: base first, then refine.
//! let reader = canopus.open("xgc1.bp").unwrap();
//! let mut prog = reader.progressive("dpot").unwrap();
//! let coarse_len = prog.data().len();
//! prog.refine().unwrap();                  // one accuracy level up
//! assert!(prog.data().len() > coarse_len);
//! ```
//!
//! The crate composes the substrate crates:
//! `canopus-mesh` (meshes), `canopus-refactor` (decimation/deltas),
//! `canopus-compress` (ZFP-like / SZ-like / FPC codecs),
//! `canopus-storage` (tiers + placement), `canopus-adios` (BP container),
//! `canopus-analytics` (blob detection).

mod cache;
pub mod campaign;
pub mod config;
pub mod error;
mod geometry;
pub mod progressive;
pub mod read;
pub mod serve;
pub mod telemetry;
pub mod write;

pub use campaign::Campaign;
pub use canopus_obs::{MetricsSnapshot, Registry};
pub use canopus_storage::FaultPlan;
pub use config::{CanopusConfig, RetryPolicy};
pub use error::CanopusError;
pub use progressive::ProgressiveReader;
pub use read::{CanopusReader, PhaseTiming, ReadOutcome, RegionStats};
pub use serve::{CanopusService, Priority, ServeOptions, ServeRequest, ServeResponse, Ticket};
pub use telemetry::{TelemetryConfig, TelemetryServer, TelemetrySources};
pub use write::{Canopus, ProductReport, WriteReport};
