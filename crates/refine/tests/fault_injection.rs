//! Fault-injection robustness tests: the engine must absorb injected worker
//! panics mid-refinement, roll the victims back, and still produce a mesh
//! that passes the full integrity audit.
//!
//! The fault seed can be varied from the outside (CI runs a small matrix)
//! via `PI2M_FAULT_SEED`; the plans themselves are fixed per test so the
//! injected *counts* stay deterministic regardless of thread interleaving.

use pi2m_faults::{sites, FaultPlan};
use pi2m_image::phantoms;
use pi2m_obs::metrics;
use pi2m_refine::{audit_mesh, CancelToken, MesherConfig, MeshingSession, RefineError, RunOptions};
use std::sync::Arc;
use std::time::Duration;

fn seed_from_env() -> u64 {
    std::env::var("PI2M_FAULT_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(42)
}

fn cfg_with(threads: usize, plan: FaultPlan) -> MesherConfig {
    MesherConfig {
        delta: 2.0,
        threads,
        faults: Some(Arc::new(plan)),
        ..Default::default()
    }
}

/// Acceptance criterion of the fault-injection work: 8 threads, exactly two
/// panics injected at the insert-commit boundary (locks held, nothing
/// mutated yet). The run must complete, both panics must be quarantined
/// with rollback recovery, and the final mesh must audit clean.
#[test]
fn two_injected_panics_are_absorbed_and_mesh_audits_clean() {
    let seed = seed_from_env();
    let plan = FaultPlan::parse(
        seed,
        &format!("site={},kind=panic,every=40,count=2", sites::INSERT_COMMIT),
    )
    .unwrap();
    let faults = Arc::new(plan);
    let cfg = MesherConfig {
        faults: Some(faults.clone()),
        ..cfg_with(8, FaultPlan::disarmed())
    };

    let out = MeshingSession::new(cfg.threads)
        .mesh(phantoms::sphere(20, 1.0), cfg)
        .unwrap_or_else(|e| panic!("2 injected panics must be absorbed: {e}"));

    assert!(out.mesh.num_tets() > 100, "got {}", out.mesh.num_tets());
    assert_eq!(faults.injected(), 2, "plan should have fired exactly twice");
    assert_eq!(out.stats.total_panics(), 2, "both panics must be caught");
    assert_eq!(out.stats.total_quarantined(), 2);
    assert!(
        out.stats.total_recovery_rollbacks() > 0,
        "commit-site panics hold locks, so recovery must roll back"
    );
    assert_eq!(out.stats.workers_died, 0, "op-level isolation, no deaths");

    let report = audit_mesh(&out.shared, seed);
    assert!(report.clean(), "{}", report.summary());
    assert!(report.insphere_samples > 0);
}

/// A whole worker dying (panic escapes the per-op catch at the engine's own
/// worker site) must not hang or corrupt the run: the heirs inherit its
/// work and the mesh still audits clean.
#[test]
fn single_worker_death_is_survivable() {
    let seed = seed_from_env();
    let plan = FaultPlan::parse(
        seed,
        &format!("site={},kind=panic,nth=30,count=1", sites::ENGINE_WORKER),
    )
    .unwrap();
    let out = MeshingSession::new(4)
        .mesh(phantoms::sphere(16, 1.0), cfg_with(4, plan))
        .expect("1 death out of 4 workers is below the quorum threshold");

    assert_eq!(out.stats.workers_died, 1);
    assert!(out.mesh.num_tets() > 50, "got {}", out.mesh.num_tets());
    let report = audit_mesh(&out.shared, seed);
    assert!(report.clean(), "{}", report.summary());
}

/// Regression: a dying worker's observability must survive it. The per-op
/// recovery counters are merged at join (they live outside the panic
/// boundary) and so is the worker's flight log, so the death event recorded
/// *on the dying thread* must appear in the drained log along with
/// everything the worker recorded before the panic.
#[test]
fn dead_workers_counters_and_flight_ring_survive() {
    use pi2m_obs::flight::EventKind;

    let seed = seed_from_env();
    let plan = FaultPlan::parse(
        seed,
        &format!("site={},kind=panic,nth=30,count=1", sites::ENGINE_WORKER),
    )
    .unwrap();
    let out = MeshingSession::new(4)
        .mesh(phantoms::sphere(16, 1.0), cfg_with(4, plan))
        .expect("1 death out of 4 workers is below the quorum threshold");

    assert_eq!(out.stats.workers_died, 1);
    // The death counter was recorded through the dying worker's own
    // ThreadRecorder (in the cleanup path) and still reached the merged
    // snapshot.
    assert_eq!(out.metrics.counter(metrics::WORKER_DEATHS), 1);
    // The dying thread's log was drained, not dropped: its terminal
    // WorkerDeath event (emitted during cleanup, on the dying thread) is in
    // the global timeline.
    let deaths: Vec<_> = out
        .flight
        .iter()
        .filter(|e| e.kind == EventKind::WorkerDeath)
        .collect();
    assert_eq!(deaths.len(), 1, "exactly one death event");
    let dead_tid = deaths[0].tid;
    // Any work it bequeathed names a surviving heir.
    for e in out
        .flight
        .iter()
        .filter(|e| e.kind == EventKind::HeirBequest)
    {
        assert_eq!(e.tid, dead_tid, "bequest must come from the dead worker");
        assert_ne!(e.a as u16, dead_tid as u16, "heir must be a survivor");
    }
    // The run still audits clean on top of all that.
    let report = audit_mesh(&out.shared, seed);
    assert!(report.clean(), "{}", report.summary());
}

/// When a majority of workers die the run cannot meaningfully continue;
/// the session must escalate to a typed error instead of returning a
/// partially-refined mesh as if nothing happened — and stay usable.
#[test]
fn majority_worker_death_escalates_to_quorum_error() {
    let seed = seed_from_env();
    let plan = FaultPlan::parse(
        seed,
        &format!("site={},kind=panic,every=1", sites::ENGINE_WORKER),
    )
    .unwrap();
    let mut session = MeshingSession::new(4);
    let err = match session.mesh(phantoms::sphere(12, 1.0), cfg_with(4, plan)) {
        Err(e) => e,
        Ok(out) => panic!(
            "expected quorum loss, but the run produced {} tets",
            out.mesh.num_tets()
        ),
    };
    match err {
        RefineError::WorkerQuorumLost { died, threads } => {
            assert_eq!(threads, 4);
            assert!(died * 2 > threads, "died={died} of {threads}");
        }
        other => panic!("expected WorkerQuorumLost, got {other}"),
    }

    let out = session
        .mesh(
            phantoms::sphere(12, 1.0),
            cfg_with(4, FaultPlan::disarmed()),
        )
        .expect("the session meshes again after a quorum loss");
    let report = audit_mesh(&out.shared, seed);
    assert!(report.clean(), "{}", report.summary());
}

/// A cancelled run's salvaged telemetry counts the faults its plan
/// injected, exactly as a completed run's metrics do. The plan denies every
/// operation, so the run cannot end before the token trips, which it does
/// once the plan has fired a few times.
#[test]
fn cancelled_run_telemetry_counts_injected_faults() {
    let plan = FaultPlan::parse(
        seed_from_env(),
        &format!("site={},kind=deny,every=1", sites::ENGINE_OP),
    )
    .unwrap();
    let faults = Arc::new(plan);
    let token = CancelToken::new();
    let (trip, watched) = (token.clone(), faults.clone());
    let watcher = std::thread::spawn(move || {
        while watched.injected() < 3 {
            std::thread::sleep(Duration::from_millis(1));
        }
        trip.cancel();
    });
    let opts = RunOptions {
        cancel: Some(token),
        on_stage: None,
    };
    let mut session = MeshingSession::new(1);
    let cfg = MesherConfig {
        faults: Some(faults.clone()),
        ..cfg_with(1, FaultPlan::disarmed())
    };
    let err = session
        .mesh_with(phantoms::sphere(16, 1.0), cfg, &opts)
        .err();
    watcher.join().unwrap();
    assert!(
        matches!(err, Some(RefineError::Cancelled)),
        "expected Cancelled, got {err:?}"
    );
    let tel = session
        .take_cancel_telemetry()
        .expect("a refinement-section cancel stashes telemetry");
    assert_eq!(
        tel.metrics.counter(metrics::FAULTS_INJECTED),
        faults.injected()
    );
}

/// Forced operation failures (kind=fail) at the remove-prepare site are
/// surfaced as typed kernel errors, quarantined, and never kill a worker.
#[test]
fn forced_failures_are_quarantined_not_fatal() {
    let seed = seed_from_env();
    let plan = FaultPlan::parse(
        seed,
        &format!("site={},kind=fail,every=25,count=4", sites::INSERT_PREPARE),
    )
    .unwrap();
    let faults = Arc::new(plan);
    let cfg = MesherConfig {
        faults: Some(faults.clone()),
        ..cfg_with(4, FaultPlan::disarmed())
    };
    let out = MeshingSession::new(cfg.threads)
        .mesh(phantoms::sphere(16, 1.0), cfg)
        .unwrap();

    assert_eq!(faults.injected(), 4);
    assert_eq!(out.stats.total_kernel_errors(), 4);
    assert_eq!(out.stats.workers_died, 0);
    assert_eq!(out.stats.total_panics(), 0);
    let report = audit_mesh(&out.shared, seed);
    assert!(report.clean(), "{}", report.summary());
}

/// Injected lock denials look exactly like real speculative conflicts, so
/// they must be absorbed by the ordinary rollback machinery: the run
/// completes with extra rollbacks and a clean audit.
#[test]
fn injected_lock_denials_behave_like_conflicts() {
    let seed = seed_from_env();
    let plan = FaultPlan::parse(
        seed,
        &format!("site={},kind=deny,every=50,count=20", sites::LOCK_ACQUIRE),
    )
    .unwrap();
    let out = MeshingSession::new(4)
        .mesh(phantoms::sphere(16, 1.0), cfg_with(4, plan))
        .unwrap();

    assert!(
        out.stats.total_rollbacks() > 0,
        "denials must cost rollbacks"
    );
    assert!(out.mesh.num_tets() > 50);
    let report = audit_mesh(&out.shared, seed);
    assert!(report.clean(), "{}", report.summary());
}
