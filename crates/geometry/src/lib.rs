//! # pi2m-geometry
//!
//! Geometry kernel shared by the PI2M Delaunay mesher, the baselines, and the
//! quality analyzers: a small [`Point3`] vector type, axis-aligned boxes, and
//! tetrahedron/triangle measures (circumspheres, volumes, radius-edge ratio,
//! dihedral and planar angles) — the functionals driving the paper's
//! refinement rules R1–R6 and the quality columns of its Table 6.
//!
//! Robust orientation/insphere *decisions* live in `pi2m-predicates`;
//! this crate provides the non-robust metric computations (circumcenters
//! etc.) where floating point is appropriate.

pub mod point;
pub mod tet;

pub use point::{Aabb, Point3};
pub use tet::{
    circumcenter, circumradius, dihedral_angles, dihedral_extremes, min_triangle_angle,
    radius_edge_ratio, shortest_edge, signed_volume, triangle_angles, triangle_circumcenter,
    volume, AngleBound, TET_EDGES, TET_FACES,
};

/// Re-exported predicate entry points so downstream crates can depend on one
/// geometry facade.
pub use pi2m_predicates::{
    insphere, insphere_sign, insphere_sos, insphere_sos_batch, insphere_sos_staged,
    insphere_staged, orient3d, orient3d_batch4, orient3d_sign, orient3d_sign_staged,
    orient3d_staged, BatchStats, FilterStats, SemiStaticBounds, BATCH_LANES,
};
