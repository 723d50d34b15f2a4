//! # canopus-refactor
//!
//! The paper's core refactoring machinery: mesh decimation (Alg. 1), delta
//! calculation (Alg. 2, Eqs. 1–3) and data restoration (Alg. 3).
//!
//! Canopus turns a full-accuracy field `L^0` over a mesh `G^0` into a
//! progression of levels `L^0 .. L^{N-1}` by repeatedly collapsing the
//! shortest edge (halving the vertex count per level), then stores only
//! the coarsest level plus per-level deltas
//! `delta^{l-(l+1)} = L^l - Estimate(L^{l+1})`, where `Estimate` predicts
//! each fine vertex from the corners of its containing coarse triangle.
//! Restoration replays the estimates and adds the deltas back; with exact
//! (uncompressed) deltas it reproduces `L^0` bit-for-bit.
//!
//! Modules:
//! * [`pqueue`] — the edge priority queue (shortest first, lazy deletion);
//! * [`decimate`] — edge-collapse decimation with link-condition and
//!   orientation guards so every level stays a manifold triangulation.
//!   One serial kernel: the paper's decimation is parallel across
//!   processes and planes (independent writes), never inside one mesh;
//! * [`mapping`] — fine-vertex → coarse-triangle mapping (stored into BP
//!   metadata at refactor time, exactly as §III-E2 prescribes);
//! * [`estimate`] — the `Estimate(·)` function (paper default: equal
//!   weights 1/3) plus a barycentric variant for the ablation study;
//! * [`delta`] — delta calculation and restoration;
//! * [`levels`] — driving the whole hierarchy build and progressive
//!   restoration;
//! * [`bytesplit`] / [`blocksplit`] — the two alternative refactoring
//!   approaches §III-C names next to mesh decimation, implemented for the
//!   refactorer-comparison ablation.

pub mod blocksplit;
pub mod bytesplit;
pub mod decimate;
pub mod delta;
pub mod estimate;
pub mod levels;
pub mod mapping;
pub mod pqueue;

pub use decimate::{decimate, DecimationResult};
pub use delta::{compute_delta, restore_in_place, restore_level, restore_tile, TILE};
pub use estimate::{Estimator, Weights};
pub use levels::{LevelHierarchy, RefactorConfig};
pub use mapping::build_mapping;
