//! # pi2m-refine
//!
//! The PI2M refinement engine: the paper's primary contribution. Starting
//! from a multi-label segmented image, it triangulates a virtual box,
//! recovers the isosurface(s) and meshes the volume by parallel speculative
//! Delaunay **insertions and removals** driven by rules R1–R6, with
//! pluggable contention managers (Aggressive / Random / Global / Local,
//! paper §5), load balancing over one flat begging list (paper §4.4; the
//! hierarchical HWS variant of §6.1 is not implemented), full wasted-cycle
//! accounting, and livelock watchdogging.
//!
//! The engine runs as a staged pipeline (Load → EDT → Oracle →
//! SurfaceRecovery → VolumeRefine → Quality → Export) over a persistent
//! [`MeshingSession`]: create the session once and mesh many images over the
//! same warm worker pool.
//!
//! ```no_run
//! use pi2m_refine::{MesherConfig, MeshingSession};
//! use pi2m_image::phantoms;
//!
//! let cfg = MesherConfig {
//!     delta: 2.0,
//!     threads: 4,
//!     ..Default::default()
//! };
//! let mut session = MeshingSession::new(cfg.threads);
//! for img in [phantoms::abdominal(1.0), phantoms::sphere(48, 1.0)] {
//!     let out = session.mesh(img, cfg.clone())?;
//!     println!(
//!         "{} tets at {:.0} elements/sec, {} rollbacks",
//!         out.mesh.num_tets(),
//!         out.stats.elements_per_second(),
//!         out.stats.total_rollbacks()
//!     );
//! }
//! # Ok::<(), pi2m_refine::RefineError>(())
//! ```

#![forbid(unsafe_code)]

pub mod balancer;
pub mod cm;
pub mod engine;
pub mod error;
pub mod grid;
pub mod integrity;
pub mod output;
pub mod rules;
pub mod shard;
pub mod stats;
pub mod sync;

pub use cm::{CmKind, ContentionManager};
pub use engine::{
    CancelTelemetry, MeshOutput, MesherConfig, MeshingSession, RunOptions, Stage, StageCallback,
    StageEvent, StageStatus,
};
pub use error::RefineError;
pub use grid::PointGrid;
pub use integrity::{audit_mesh, AuditReport, Violation};
pub use output::FinalMesh;
pub use pi2m_obs::{CancelToken, Cancelled};
pub use rules::{InsertAction, RuleConfig, Rules};
pub use shard::{
    mesh_sharded, parse_shard_grid, split_plan, ChunkRun, ChunkSpec, ShardError, ShardRun,
    ShardSpec, MAX_HALO,
};
pub use stats::{time_attribution, RefineStats, ThreadStats};
pub use sync::EngineSync;
