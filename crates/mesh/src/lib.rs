//! # canopus-mesh
//!
//! Unstructured triangular mesh substrate for the Canopus reproduction.
//!
//! Canopus (Lu et al., CLUSTER 2017) operates on floating-point quantities
//! stored over unstructured triangular meshes — "a pervasive data model used
//! by scientific modeling and simulations". This crate provides everything
//! the rest of the workspace needs to talk about such meshes:
//!
//! * [`geometry`] — 2-D points/vectors, robust-enough orientation tests,
//!   barycentric coordinates, triangle areas.
//! * [`TriMesh`] — an immutable indexed triangle mesh with cached adjacency
//!   ([`adjacency::Adjacency`]).
//! * [`locate`] — grid-accelerated point location (which triangle contains a
//!   query point), the kernel of Canopus' delta calculation and restoration.
//! * [`generators`] — synthetic mesh factories (structured rectangle,
//!   annulus, disk) sized to match the paper's three datasets.
//! * [`quality`] — mesh sanity and quality metrics (manifoldness, Euler
//!   characteristic, angle/aspect statistics).
//! * [`field`] — scalar fields over mesh vertices plus the smoothness
//!   statistics the paper uses to argue deltas compress better.
//! * [`io`] — a small text + binary mesh serialization, used by examples and
//!   the benchmark harness; the binary form is bit-packed ([`pack`]).
//!
//! The mesh is deliberately 2-D: every dataset evaluated in the paper
//! (XGC1 `dpot` planes, GenASiS slices, the CFD surface kernel) is a planar
//! triangulation with scalar data on vertices.

pub mod adjacency;
pub mod field;
pub mod generators;
pub mod geometry;
pub mod io;
pub mod locate;
pub mod mesh;
pub mod pack;
pub mod quality;

pub use adjacency::Adjacency;
pub use field::{FieldStats, ScalarField};
pub use geometry::{Aabb, Point2, Triangle};
pub use locate::GridLocator;
pub use mesh::{Connectivity, TriMesh, VertexId};
