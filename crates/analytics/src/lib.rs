//! # canopus-analytics
//!
//! The analytics substrate for the Canopus reproduction: everything
//! §IV-D's "blob detection" use case needs.
//!
//! The paper detects high-electric-potential blobs in XGC1 `dpot` planes
//! with OpenCV's SimpleBlobDetector ("simple thresholding, grouping, and
//! merging techniques"), parameterized by
//! `<minThreshold, maxThreshold, minArea>` and reports blob counts,
//! average diameters (pixels), aggregate areas (square pixels) and the
//! overlap ratio against full-accuracy detections. We rebuild that stack:
//!
//! * [`raster`] — barycentric rasterization of a mesh field into a pixel
//!   grid plus 0–255 grayscale normalization (shared across accuracy
//!   levels so pixel metrics are comparable);
//! * [`components`] — 8-connected component labeling on binary masks;
//! * [`blob`] — the threshold-sweep detector with cross-threshold center
//!   grouping and min-area filtering, mirroring SimpleBlobDetector;
//! * [`metrics`] — the paper's four blob metrics including the
//!   center-distance overlap criterion;
//! * [`render`] — PGM/PPM writers with a colormap and blob-circle
//!   overlays, regenerating the paper's Figs. 4 and 7 imagery;
//! * [`errors`] — Laney-style reduction-error metrics (max/mean/RMSE,
//!   PSNR, relative-error histogram) for judging accuracy levels.

pub mod blob;
pub mod components;
pub mod errors;
pub mod metrics;
pub mod raster;
pub mod render;

pub use blob::{Blob, BlobDetector, BlobParams};
pub use components::{label_components, Component};
pub use errors::{compare, ErrorReport};
pub use metrics::{overlap_ratio, BlobMetrics};
pub use raster::Raster;
