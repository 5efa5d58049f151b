//! # pi2m-edt
//!
//! Exact Euclidean distance **and feature** transform of 3D label images,
//! parallelized over scan lines — the stand-in for the parallel Maurer
//! filter of Staubs et al. that the paper uses as a preprocessing step (§4).
//!
//! The refinement rules need, for an arbitrary query point `p`, the *surface
//! voxel* closest to `p` (the feature); the isosurface oracle then walks
//! the ray towards it to the exact label interface. We compute
//! the feature transform once, up front, with the separable lower-envelope
//! algorithm (Felzenszwalb & Huttenlocher generalized to anisotropic spacing
//! and argmin propagation), which produces exactly the same result as
//! Maurer's algorithm: for every voxel, a nearest site under the Euclidean
//! metric.
//!
//! Each dimensional pass processes independent scan lines, so the passes
//! parallelize embarrassingly; like the paper's EDT, throughput scales
//! linearly with threads.
//!
//! The result is one `u32` site index per voxel (4 bytes a voxel), updated
//! in place by all three passes; distances are recomputed from the site, to
//! the bit, when asked for.

mod transform;

pub use transform::{
    feature_transform, surface_feature_transform, try_feature_transform_obs,
    try_surface_feature_transform_obs, FeatureTransform, EDT_BATCH_WIDTH, NO_SITE,
};
