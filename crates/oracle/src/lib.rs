//! # pi2m-oracle
//!
//! Geometric queries against the segmented image — the bridge between the
//! voxel world and the continuous refinement rules.
//!
//! The label field is nearest-voxel, so the isosurface ∂O *is* the staircase
//! of voxel faces between differently labeled voxels, and the first label
//! change along a ray is found exactly by walking the voxels the ray passes
//! through (a 3D-DDA), each read once. Every query is built on that walk:
//!
//! * [`IsosurfaceOracle::closest_surface_point`] — the point `p̂ ∈ ∂O` for a
//!   query `p`: ask the feature transform for the nearest surface voxel and
//!   walk the ray towards it to the first face at which the label changes
//!   (paper §3).
//! * [`IsosurfaceOracle::segment_surface_intersection`] — the surface-center
//!   `c_surf(f) = V(f) ∩ ∂O` of a facet's Voronoi edge (rule R3).
//! * [`IsosurfaceOracle::probe`] — a [`SurfaceProbe`]: the label at a point
//!   and its nearest surface voxel, read once and passed to the `_from`
//!   variants of the queries above by callers that ask several about one
//!   point (rule classification).
//! * [`SizeFn`] — user-specified element size functions (rule R5).

pub mod oracle;
pub mod sizefn;

pub use oracle::{IsosurfaceOracle, SegmentTest, SurfaceProbe};
pub use sizefn::{RadialSize, SizeFn, UniformSize};
