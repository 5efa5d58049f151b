//! # pi2m-delaunay
//!
//! The concurrent 3D Delaunay triangulation kernel underpinning PI2M:
//! speculative Bowyer–Watson **insertions** and star-hole-filling
//! **removals** over a shared mesh, synchronized by per-vertex try-locks
//! with rollback (paper §4.2).
//!
//! Typical use:
//!
//! ```
//! use pi2m_delaunay::{SharedMesh, VertexKind};
//! use pi2m_geometry::{Aabb, Point3};
//!
//! let mesh = SharedMesh::with_box(Aabb::new(Point3::ORIGIN, Point3::new(1.0, 1.0, 1.0)));
//! let mut ctx = mesh.make_ctx(0); // one ctx per thread
//! let r = ctx.insert([0.3, 0.3, 0.3], VertexKind::Circumcenter).unwrap();
//! ctx.remove(r.vertex).unwrap();
//! assert_eq!(mesh.num_alive_cells(), 6);
//! ```

pub mod boxinit;
pub mod fxhash;
pub mod ids;
pub mod mesh;
pub mod pool;
pub mod scratch;

mod insert;
mod remove;
mod walk;

pub use ids::{CellId, CellRef, VertexId, VertexKind, NONE};
pub use mesh::{InsertResult, KernelError, OpCtx, OpError, RemoveResult, SharedMesh};
pub use pool::{Cell, CellSnap, Vertex};
pub use scratch::{KernelScratch, ScratchStats};
