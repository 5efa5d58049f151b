//! Watchdog escalation: a workload where every speculative operation
//! conflicts forever must trip the livelock watchdog and surface as a typed
//! error, not spin silently.

use pi2m_faults::{sites, FaultPlan};
use pi2m_image::phantoms;
use pi2m_refine::{audit_mesh, CmKind, MesherConfig, MeshingSession, RefineError};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Deny every single lock acquisition: no operation can ever make progress,
/// so the only way out is the watchdog. The whole test runs on a helper
/// thread behind a timeout so a watchdog regression fails fast instead of
/// hanging the suite.
#[test]
fn always_conflicting_workload_trips_watchdog() {
    let plan = FaultPlan::parse(
        42,
        &format!("site={},kind=deny,every=1", sites::LOCK_ACQUIRE),
    )
    .unwrap();
    let cfg = MesherConfig {
        delta: 2.0,
        threads: 4,
        cm: CmKind::Local,
        livelock_timeout: 0.5,
        ..Default::default()
    };
    let denied = MesherConfig {
        faults: Some(Arc::new(plan)),
        ..cfg.clone()
    };

    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut session = MeshingSession::new(4);
        let r = session.mesh(phantoms::sphere(12, 1.0), denied);
        let _ = tx.send((r, session));
    });

    let (result, mut session) = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("watchdog did not fire within 60s: engine is livelocked for real");
    match result {
        Err(RefineError::Livelock) => {}
        Err(other) => panic!("expected Livelock, got {other}"),
        Ok(out) => panic!(
            "engine claimed success with {} tets despite total denial",
            out.mesh.num_tets()
        ),
    }

    // The session that livelocked meshes again once the denials stop.
    let out = session
        .mesh(phantoms::sphere(12, 1.0), cfg)
        .expect("the session meshes again after a livelock");
    let report = audit_mesh(&out.shared, 42);
    assert!(report.clean(), "{}", report.summary());
}
