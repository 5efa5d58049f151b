//! # pi2m-predicates
//!
//! Robust geometric predicates for the PI2M Delaunay kernel.
//!
//! The paper relies on CGAL's exact predicates for robustness (§7: "PI2M
//! adopts the exact predicates as implemented in CGAL"). This crate provides
//! the equivalent, built from scratch:
//!
//! * [`orient3d`] — side-of-plane test,
//! * [`insphere()`] — in-circumsphere test,
//!
//! each implemented as a *filtered* fast floating-point evaluation with a
//! proven forward error bound (Shewchuk's stage-A bounds), escalating to
//! fully exact evaluation with [`expansion::Expansion`] arithmetic only when
//! the filter cannot certify the sign. On meshing workloads the exact path
//! triggers for a small fraction of calls, so robustness costs little.
//!
//! Degeneracy policy: both predicates return exactly `0.0` for degenerate
//! (coplanar / cospherical) inputs, and the Delaunay kernel treats "on the
//! sphere" as "outside the cavity", which keeps Bowyer–Watson cavities valid
//! without symbolic perturbation; vertex removal resolves degenerate ball
//! re-triangulations by inserting vertices in global timestamp order (paper
//! §4.2).

pub mod batch;
pub mod expansion;
pub mod insphere;
pub mod orient;
pub mod primitives;
pub mod staged;

pub use batch::{
    insphere_sos_batch, orient3d_batch4, orient3d_batch_gather, BatchStats, BATCH_LANES,
};
pub use expansion::Expansion;
pub use insphere::{insphere, insphere_exact, insphere_fast, insphere_sign, insphere_sos};
pub use orient::{orient3d, orient3d_exact, orient3d_fast, orient3d_sign, P3};
pub use primitives::EPSILON;
pub use staged::{
    insphere_sign_staged, insphere_sos_staged, insphere_staged, orient3d_sign_staged,
    orient3d_staged, FilterStats, SemiStaticBounds,
};
