//! # pi2m-refine
//!
//! The PI2M refinement engine: the paper's primary contribution. Starting
//! from a multi-label segmented image, it triangulates a virtual box,
//! recovers the isosurface(s) and meshes the volume by parallel speculative
//! Delaunay **insertions and removals** driven by rules R1–R6, with
//! pluggable contention managers (Aggressive / Random / Global / Local,
//! paper §5) and work-stealing balancers (flat RWS / hierarchical HWS,
//! paper §6.1), full wasted-cycle accounting, and livelock watchdogging.
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
//!
//! One-shot callers can keep using [`Mesher::run`] / [`Mesher::try_run`],
//! which wrap a single-use session.

pub mod balancer;
pub mod cm;
pub mod engine;
pub mod error;
pub mod grid;
pub mod integrity;
pub mod output;
pub mod rules;
pub mod shard;
mod spheres;
pub mod stats;
pub mod sync;
pub mod topology;

pub use balancer::{BalancerKind, LoadBalancer, DONATE_THRESHOLD};
pub use cm::{CmKind, ContentionManager, R_PLUS, S_PLUS};
pub use engine::{
    CancelTelemetry, MeshOutput, Mesher, MesherConfig, MeshingSession, RunOptions, Stage,
    StageCallback, StageEvent, StageStatus,
};
pub use error::RefineError;
pub use grid::PointGrid;
pub use integrity::{audit_mesh, AuditReport, Violation};
pub use output::FinalMesh;
pub use pi2m_obs::{CancelToken, Cancelled};
pub use rules::{InsertAction, RuleConfig, Rules};
pub use shard::{
    mesh_sharded, parse_shard_grid, split_plan, ChunkRun, ChunkSpec, ShardError, ShardRun,
    ShardSpec,
};
pub use stats::{OverheadKind, RefineStats, ThreadStats, TraceEvent};
pub use sync::EngineSync;
pub use topology::MachineTopology;
