//! # PI2M — Parallel Image-to-Mesh Conversion
//!
//! A Rust reproduction of *"High Quality Real-Time Image-to-Mesh Conversion
//! for Finite Element Simulations"* (Foteinos & Chrisochoides, SC 2012):
//! speculative shared-memory parallel 3D Delaunay refinement that starts
//! directly from a multi-labeled segmented image, recovers the isosurface
//! with fidelity guarantees, and meshes the volume with radius-edge quality
//! guarantees — supporting both parallel point *insertions* and *removals*.
//!
//! This facade re-exports the workspace crates:
//!
//! | module | contents |
//! |--------|----------|
//! | [`predicates`] | robust orient3d / insphere (expansion arithmetic) |
//! | [`geometry`] | points, tetrahedron measures, quality functionals |
//! | [`image`] | multi-label voxel images + synthetic atlas phantoms |
//! | [`edt`] | parallel exact Euclidean distance/feature transform |
//! | [`oracle`] | isosurface queries (closest surface point, surface centers) |
//! | [`delaunay`] | concurrent Delaunay kernel (insertions and removals) |
//! | [`faults`] | deterministic fault-injection plans (DST-style testing) |
//! | [`refine`] | PI2M refinement engine: rules R1–R6, contention managers, work stealing |
//! | [`obs`] | observability: metric catalog, phase spans, run reports, trace exporters |
//! | [`sim`] | discrete-event simulated cc-NUMA machine for scaling studies |
//! | [`baseline`] | sequential "CGAL-like" and "TetGen-like" comparison meshers |
//! | [`quality`] | mesh statistics, Hausdorff fidelity measurement |
//! | [`meshio`] | VTK / OFF / node-ele exporters |
//! | [`serve`] | fault-tolerant meshing service (`pi2m serve`): job queue, admission control, HTTP front door |
//!
//! ## Quickstart
//!
//! A [`MeshingSession`](refine::MeshingSession) holds a warm worker pool;
//! create it once and mesh any number of images over it:
//!
//! ```
//! use pi2m::image::phantoms;
//! use pi2m::refine::{MesherConfig, MeshingSession};
//!
//! let cfg = MesherConfig {
//!     delta: 4.0,
//!     threads: 2,
//!     ..MesherConfig::default()
//! };
//! let mut session = MeshingSession::new(cfg.threads);
//! // A small two-label sphere phantom (label 1 = tissue).
//! let out = session.mesh(phantoms::sphere(32, 1.0), cfg.clone()).unwrap();
//! assert!(out.mesh.num_tets() > 100);
//! // ...the next mesh() reuses the pool's threads, arenas, and grid.
//! ```
pub mod cli;

pub use pi2m_baseline as baseline;
pub use pi2m_delaunay as delaunay;
pub use pi2m_edt as edt;
pub use pi2m_faults as faults;
pub use pi2m_geometry as geometry;
pub use pi2m_image as image;
pub use pi2m_meshio as meshio;
pub use pi2m_obs as obs;
pub use pi2m_oracle as oracle;
pub use pi2m_predicates as predicates;
pub use pi2m_quality as quality;
pub use pi2m_refine as refine;
pub use pi2m_serve as serve;
pub use pi2m_sim as sim;
