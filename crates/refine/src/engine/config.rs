//! Run configuration and the assembled run output.

use crate::output::FinalMesh;
use crate::stats::RefineStats;
use pi2m_delaunay::SharedMesh;
use pi2m_faults::FaultPlan;
use pi2m_obs::flight::{FlightEvent, DEFAULT_FLIGHT_CAPACITY};
use pi2m_obs::metrics::MetricsSnapshot;
use pi2m_obs::{TimeAttribution, TraceSpan};
use pi2m_oracle::{IsosurfaceOracle, SizeFn};
use std::sync::Arc;

/// Configuration of a PI2M run.
#[derive(Clone)]
pub struct MesherConfig {
    /// Isosurface sampling density δ (world units, typically a small
    /// multiple of the voxel size).
    pub delta: f64,
    pub threads: usize,
    /// Radius-edge quality bound (paper: 2).
    pub radius_edge_bound: f64,
    /// Boundary planar angle bound in degrees (paper: 30).
    pub planar_angle_min_deg: f64,
    /// Optional volume size function (rule R5).
    pub size_fn: Option<Arc<dyn SizeFn>>,
    /// Optional surface density function (spatially varying δ, clamped to
    /// `delta`).
    pub surface_size_fn: Option<Arc<dyn SizeFn>>,
    /// Enable rule R6 removals.
    pub enable_removals: bool,
    /// Watchdog: seconds without any completed operation before a livelock
    /// is declared.
    pub livelock_timeout: f64,
    /// Safety cap on total operations (0 = unlimited).
    pub max_operations: u64,
    /// Deterministic fault-injection plan (testing/DST only; `None` in
    /// production). Threaded into every kernel context and consulted at the
    /// engine's own named sites.
    pub faults: Option<Arc<FaultPlan>>,
    /// Always-on concurrency flight recorder (a bounded per-worker log of
    /// conflicts and waits).
    pub flight: bool,
    /// Per-worker log capacity in events: each worker keeps its newest this
    /// many (default [`DEFAULT_FLIGHT_CAPACITY`], 4 Ki).
    pub flight_capacity: usize,
}

impl Default for MesherConfig {
    fn default() -> Self {
        MesherConfig {
            delta: 2.0,
            threads: 1,
            radius_edge_bound: 2.0,
            planar_angle_min_deg: 30.0,
            size_fn: None,
            surface_size_fn: None,
            enable_removals: true,
            livelock_timeout: 30.0,
            max_operations: 0,
            faults: None,
            flight: true,
            flight_capacity: DEFAULT_FLIGHT_CAPACITY,
        }
    }
}

/// Result of a PI2M run.
pub struct MeshOutput {
    /// The reported mesh (tets whose circumcenter lies inside O).
    pub mesh: FinalMesh,
    pub stats: RefineStats,
    /// The full triangulation of the virtual box (for inspection/tests).
    pub shared: SharedMesh,
    pub oracle: Arc<IsosurfaceOracle>,
    /// Merged observability metrics (counters, histograms, worker events),
    /// drained from the per-thread recorders at join.
    pub metrics: MetricsSnapshot,
    /// Pipeline phase spans (one per [`Stage`](crate::engine::Stage), e.g.
    /// `edt`, `volume_refinement`, `extract`), in seconds since the run
    /// origin.
    pub phases: Vec<TraceSpan>,
    /// Flight-recorder events (time-sorted, shifted into the run-origin time
    /// base): the conflicts and waits the workers' logs kept, then each
    /// worker's `WorkerSums` events. Empty when the recorder was disabled.
    pub flight: Vec<FlightEvent>,
    /// Events the workers' logs dropped (each keeps its newest events).
    pub flight_dropped: u64,
    /// The workers' wall-time attribution of the refinement section, from
    /// their own sums: exact whatever the flight recorder kept.
    pub attribution: TimeAttribution,
}
