//! # pi2m-oracle
//!
//! Geometric queries against the segmented image — the bridge between the
//! voxel world and the continuous refinement rules:
//!
//! * [`IsosurfaceOracle::closest_surface_point`] — the point `p̂ ∈ ∂O`
//!   nearest to a query `p`, found by asking the feature transform for the
//!   nearest surface voxel and marching the ray on small intervals,
//!   interpolating the positions of different labels (paper §3).
//! * [`IsosurfaceOracle::segment_surface_intersection`] — the surface-center
//!   `c_surf(f) = V(f) ∩ ∂O` of a facet's Voronoi edge (rule R3).
//! * [`SizeFn`] — user-specified element size functions (rule R5).

pub mod oracle;
pub mod sizefn;

pub use oracle::{IsosurfaceOracle, SurfaceProbe};
pub use sizefn::{RadialSize, SizeFn, UniformSize};
