//! The typed stage sequence of the meshing pipeline.
//!
//! Every run walks the same seven stages in order, through one stage driver
//! in the session: it runs each stage inside an obs phase span under its
//! [`phase_name`](Stage::phase_name) (so reports, traces, and tests see one
//! canonical naming) and fires the run's optional progress callback on
//! entry and exit, stamped on the spans' clock. The
//! [`CancelToken`](pi2m_obs::CancelToken) is checked between stages, inside
//! the EDT's scan passes, and at every worker loop boundary during
//! [`VolumeRefine`](Stage::VolumeRefine); a cancelled run hands back the
//! spans and metrics it recorded in
//! [`RefineError::Cancelled`](crate::RefineError::Cancelled).

/// One stage of the meshing pipeline, in execution order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Image intake: config validation and voxel accounting.
    Load,
    /// The parallel Euclidean distance / surface feature transform.
    Edt,
    /// Isosurface oracle assembly over the feature transform.
    Oracle,
    /// Surface-domain recovery: the virtual-box triangulation enclosing the
    /// object, the proximity grid, the refinement rules, and the initial
    /// poor-element seed.
    SurfaceRecovery,
    /// Speculative parallel Delaunay refinement (rules R1–R6).
    VolumeRefine,
    /// Quality/observability assembly: flight-ring drain and per-thread
    /// metric merge.
    Quality,
    /// Final-mesh extraction and output assembly.
    Export,
}

impl Stage {
    /// All stages, in execution order.
    pub const ALL: [Stage; 7] = [
        Stage::Load,
        Stage::Edt,
        Stage::Oracle,
        Stage::SurfaceRecovery,
        Stage::VolumeRefine,
        Stage::Quality,
        Stage::Export,
    ];

    /// The obs phase-span name this stage records under. The `edt`,
    /// `volume_refinement`, and `extract` names predate the staged pipeline
    /// and are part of the report schema; the rest are additive.
    pub fn phase_name(self) -> &'static str {
        match self {
            Stage::Load => "load",
            Stage::Edt => "edt",
            Stage::Oracle => "oracle",
            Stage::SurfaceRecovery => "surface_recovery",
            Stage::VolumeRefine => "volume_refinement",
            Stage::Quality => "quality",
            Stage::Export => "extract",
        }
    }

    /// Position in [`Stage::ALL`].
    pub fn index(self) -> usize {
        Stage::ALL.iter().position(|s| *s == self).unwrap()
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.phase_name())
    }
}

/// Did the stage just start or just finish?
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StageStatus {
    Started,
    Finished,
}

/// One progress notification from a running pipeline.
#[derive(Clone, Copy, Debug)]
pub struct StageEvent {
    pub stage: Stage,
    pub status: StageStatus,
    /// Seconds since the run origin, on the clock of the run's phase spans.
    pub elapsed_s: f64,
}

/// A run's progress callback. Invoked synchronously from the pipeline
/// thread, twice per stage; keep it cheap.
pub type StageCallback = std::sync::Arc<dyn Fn(StageEvent) + Send + Sync>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_order_and_names() {
        assert_eq!(Stage::ALL.len(), 7);
        assert_eq!(Stage::Load.index(), 0);
        assert_eq!(Stage::Export.index(), 6);
        assert!(Stage::Edt < Stage::VolumeRefine);
        // schema-stable legacy names
        assert_eq!(Stage::Edt.phase_name(), "edt");
        assert_eq!(Stage::VolumeRefine.phase_name(), "volume_refinement");
        assert_eq!(Stage::Export.phase_name(), "extract");
        // all names distinct
        let mut names: Vec<_> = Stage::ALL.iter().map(|s| s.phase_name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 7);
    }
}
