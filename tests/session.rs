//! Integration tests for the persistent [`MeshingSession`]: warm-pool reuse
//! must be behaviorally invisible (identical meshes where the schedule is
//! deterministic, structurally sound meshes where it is not), stage progress
//! must be reported in order, and cancellation must be typed, prompt, and
//! non-destructive to the session.

use pi2m::cli::{run_report, RunEnd};
use pi2m::faults::{sites, FaultPlan};
use pi2m::image::phantoms;
use pi2m::obs::json::{self, Json};
use pi2m::refine::{
    audit_mesh, CancelToken, MachineTopology, MeshOutput, MesherConfig, MeshingSession,
    RefineError, RunOptions, Stage, StageStatus,
};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn cfg(delta: f64, threads: usize) -> MesherConfig {
    MesherConfig {
        delta,
        threads,
        topology: MachineTopology::flat(threads),
        ..Default::default()
    }
}

/// The final mesh's arrays, coordinates bit-exact, in the order extraction
/// wrote them.
fn mesh_arrays(out: &MeshOutput) -> (Vec<[u64; 3]>, &[[u32; 4]], &[u8]) {
    let points = out
        .mesh
        .points
        .iter()
        .map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
        .collect();
    (points, &out.mesh.tets, &out.mesh.labels)
}

fn audit(out: &MeshOutput, what: &str) {
    let report = audit_mesh(&out.shared, 42);
    assert!(report.clean(), "{what} failed audit:\n{}", report.summary());
}

#[test]
fn warm_session_matches_cold_runs_single_thread() {
    // Single-threaded refinement is deterministic, so a warm pool (reused
    // arenas, flight rings, and a proximity grid whose node segments still
    // hold the previous run's entries behind its cleared bucket heads) must
    // produce the *identical* mesh as a fresh session's first run, array for
    // array — twice in a row.
    let cold = MeshingSession::new(1)
        .mesh(phantoms::sphere(20, 1.0), cfg(2.0, 1))
        .unwrap();
    audit(&cold, "cold run");

    let mut session = MeshingSession::new(1);
    for i in 0..2 {
        let warm = session
            .mesh(phantoms::sphere(20, 1.0), cfg(2.0, 1))
            .unwrap();
        audit(&warm, "warm run");
        assert!(
            mesh_arrays(&warm) == mesh_arrays(&cold),
            "warm run {i} diverged from the cold run"
        );
    }
}

#[test]
fn warm_session_is_sound_at_eight_threads() {
    // Speculative 8-thread schedules are not reproducible, so warm-vs-cold
    // identity is impossible by design; what must hold is that every run off
    // the warm pool is a valid Delaunay mesh of the same object. (δ well
    // below the feature scale: at coarse δ the schedule flips borderline
    // classifications and element counts are legitimately bimodal.)
    let cold = MeshingSession::new(8)
        .mesh(phantoms::sphere(18, 1.0), cfg(1.2, 8))
        .unwrap();
    let mut session = MeshingSession::new(8);
    for i in 0..2 {
        let warm = session
            .mesh(phantoms::sphere(18, 1.0), cfg(1.2, 8))
            .unwrap();
        audit(&warm, "8-thread warm run");
        warm.shared.check_adjacency().unwrap();
        warm.shared.check_delaunay_sos().unwrap();
        let (a, b) = (warm.mesh.num_tets() as f64, cold.mesh.num_tets() as f64);
        assert!(
            (a - b).abs() / b < 0.5,
            "warm run {i}: {a} tets vs cold {b}"
        );
    }
}

#[test]
fn session_reuses_pool_across_different_images() {
    // Different dimensions, labels, and deltas over one pool: the parked
    // grid/rings must reset cleanly between incompatible runs.
    let mut session = MeshingSession::new(2);
    let a = session
        .mesh(phantoms::sphere(16, 1.0), cfg(2.0, 2))
        .unwrap();
    let b = session
        .mesh(phantoms::nested_spheres(20, 1.0), cfg(1.5, 2))
        .unwrap();
    let c = session.mesh(phantoms::torus(24, 1.0), cfg(1.2, 2)).unwrap();
    for (out, what) in [(&a, "sphere"), (&b, "nested"), (&c, "torus")] {
        audit(out, what);
        assert!(out.mesh.num_tets() > 50, "{what}: {}", out.mesh.num_tets());
    }
    assert_eq!(session.threads(), 2);
}

#[test]
fn stage_callbacks_fire_in_order() {
    let events: Arc<Mutex<Vec<(Stage, StageStatus, f64)>>> = Arc::default();
    let sink = Arc::clone(&events);
    let opts = RunOptions {
        cancel: None,
        on_stage: Some(Arc::new(move |e| {
            sink.lock().unwrap().push((e.stage, e.status, e.elapsed_s));
        })),
    };
    let mut session = MeshingSession::new(1);
    session
        .mesh_with(phantoms::sphere(14, 1.0), cfg(2.5, 1), &opts)
        .unwrap();

    let events = events.lock().unwrap();
    // one Started + one Finished per stage, interleaved in pipeline order
    let expect: Vec<(Stage, StageStatus)> = Stage::ALL
        .iter()
        .flat_map(|&s| [(s, StageStatus::Started), (s, StageStatus::Finished)])
        .collect();
    let got: Vec<(Stage, StageStatus)> = events.iter().map(|&(s, st, _)| (s, st)).collect();
    assert_eq!(got, expect);
    // timestamps never run backwards
    assert!(
        events.windows(2).all(|w| w[0].2 <= w[1].2),
        "stage timestamps regressed: {events:?}"
    );
}

#[test]
fn cancel_mid_volume_refine_is_typed_prompt_and_recoverable() {
    let token = CancelToken::new();
    let trip = token.clone();
    let opts = RunOptions {
        cancel: Some(token),
        // Trip the token the moment volume refinement starts: the workers
        // observe it at their first loop boundary.
        on_stage: Some(Arc::new(move |e| {
            if e.stage == Stage::VolumeRefine && e.status == StageStatus::Started {
                trip.cancel();
            }
        })),
    };
    let mut session = MeshingSession::new(4);
    let t0 = Instant::now();
    let err = match session.mesh_with(phantoms::sphere(24, 1.0), cfg(1.2, 4), &opts) {
        Err(e) => e,
        Ok(out) => panic!(
            "expected Cancelled, got a mesh of {} tets",
            out.mesh.num_tets()
        ),
    };
    assert!(
        matches!(err, RefineError::Cancelled),
        "expected Cancelled, got {err:?}"
    );
    // Cooperative, not sloppy: workers bail at a loop boundary, well inside
    // any human timeout (generous bound for loaded CI machines).
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "cancellation took {:?}",
        t0.elapsed()
    );

    // A refinement-section cancel salvages the run's telemetry: the flight
    // log, phase spans, and wall clock survive so the CLI can still write
    // complete observability artifacts for the aborted run.
    let tel = session
        .take_cancel_telemetry()
        .expect("cancelled refinement stashes telemetry");
    assert_eq!(tel.attribution.per_worker.len(), 4);
    assert!(tel.attribution.wall_s >= 0.0);
    assert!(!tel.phases.is_empty(), "phase spans salvaged");
    // the salvage is take-once: a second take yields nothing
    assert!(session.take_cancel_telemetry().is_none());

    // The session survives: no leaked locks, grid/rings parked, next run ok.
    let out = session
        .mesh(phantoms::sphere(16, 1.0), cfg(2.0, 4))
        .unwrap();
    audit(&out, "post-cancel run");
    assert!(out.mesh.num_tets() > 50);
}

#[test]
fn deadline_mid_volume_refine_is_seen_between_clock_polls() {
    // The workers compare the clock with the token's deadline on a stride,
    // not on every pop. A first run times the stages; the second gets a
    // deadline that falls halfway through its refinement, which only the
    // worker loop can observe.
    let spans: Arc<Mutex<Vec<f64>>> = Arc::default();
    let sink = Arc::clone(&spans);
    let timed = RunOptions {
        cancel: None,
        on_stage: Some(Arc::new(move |e| {
            if e.stage == Stage::VolumeRefine {
                sink.lock().unwrap().push(e.elapsed_s);
            }
        })),
    };
    let mut session = MeshingSession::new(1);
    let job = || (phantoms::sphere(32, 1.0), cfg(0.8, 1));
    let (img, c) = job();
    session.mesh_with(img, c, &timed).unwrap();
    let (started, finished) = {
        let s = spans.lock().unwrap();
        (s[0], s[1])
    };
    let midway = Duration::from_secs_f64((started + finished) / 2.0);

    let opts = RunOptions {
        cancel: Some(CancelToken::with_deadline(midway)),
        on_stage: None,
    };
    let t0 = Instant::now();
    let (img, c) = job();
    let err = session.mesh_with(img, c, &opts).err();
    let late = t0.elapsed().saturating_sub(midway);
    assert!(
        matches!(err, Some(RefineError::Cancelled)),
        "expected Cancelled, got {err:?}"
    );
    // stopped by a worker, mid-refinement, and not a whole remaining
    // refinement later
    assert!(session.take_cancel_telemetry().is_some());
    assert!(
        late < Duration::from_secs_f64((finished - started) / 4.0 + 0.25),
        "deadline overshot by {late:?} of a {:.3} s refinement",
        finished - started
    );
}

#[test]
fn pre_expired_deadline_cancels_before_refinement() {
    let opts = RunOptions {
        cancel: Some(CancelToken::with_deadline(Duration::ZERO)),
        on_stage: None,
    };
    let mut session = MeshingSession::new(2);
    let err = match session.mesh_with(phantoms::sphere(24, 1.0), cfg(1.5, 2), &opts) {
        Err(e) => e,
        Ok(_) => panic!("expected Cancelled"),
    };
    assert!(matches!(err, RefineError::Cancelled));
    // a cancel before refinement has no worker telemetry to salvage
    assert!(session.take_cancel_telemetry().is_none());
    // and again: the session is not poisoned by an early-stage cancel
    let out = session
        .mesh(phantoms::sphere(14, 1.0), cfg(2.5, 2))
        .unwrap();
    assert!(out.mesh.num_tets() > 0);
}

/// A run its deadline cancelled reports through the same builder as a
/// finished one: the finished run's config keys plus `cancelled`, an
/// attribution that covers its worker's wall, and the workers' own rollback
/// count, which the wrapped flight ring alone would undercount.
#[test]
fn cancelled_run_reports_like_a_finished_one() {
    // one worker, every 7th element denied (one rollback each), and a
    // 64-event ring that wraps many times over
    let job = || {
        let spec = format!("site={},kind=deny,every=7", sites::ENGINE_OP);
        let cfg = MesherConfig {
            flight_capacity: 64,
            faults: Some(Arc::new(FaultPlan::parse(1, &spec).unwrap())),
            ..cfg(0.8, 1)
        };
        (phantoms::sphere(32, 1.0), cfg)
    };
    let spans: Arc<Mutex<Vec<f64>>> = Arc::default();
    let sink = Arc::clone(&spans);
    let timed = RunOptions {
        cancel: None,
        on_stage: Some(Arc::new(move |e| {
            if e.stage == Stage::VolumeRefine {
                sink.lock().unwrap().push(e.elapsed_s);
            }
        })),
    };
    let mut session = MeshingSession::new(1);
    let (img, c) = job();
    let t0 = Instant::now();
    let out = session.mesh_with(img, c.clone(), &timed).unwrap();
    let finished = run_report(
        "phantom:sphere",
        &c,
        RunEnd::Finished(&out),
        t0.elapsed().as_secs_f64(),
    );
    let midway = {
        let s = spans.lock().unwrap();
        Duration::from_secs_f64((s[0] + s[1]) / 2.0)
    };

    let (img, c) = job();
    let opts = RunOptions {
        cancel: Some(CancelToken::with_deadline(midway)),
        on_stage: None,
    };
    let t0 = Instant::now();
    let err = session.mesh_with(img, c.clone(), &opts).err();
    assert!(
        matches!(err, Some(RefineError::Cancelled)),
        "expected Cancelled, got {err:?}"
    );
    let tel = session
        .take_cancel_telemetry()
        .expect("cancelled refinement stashes telemetry");
    let cut = run_report(
        "phantom:sphere",
        &c,
        RunEnd::Cancelled(&tel),
        t0.elapsed().as_secs_f64(),
    );

    let keys = |r: &pi2m::obs::RunReport| -> Vec<String> {
        r.config.iter().map(|(k, _)| k.clone()).collect()
    };
    let mut want = keys(&finished);
    want.push("cancelled".to_string());
    assert_eq!(keys(&cut), want);

    let a = cut.attribution.as_ref().expect("attribution");
    assert_eq!(a.per_worker.len(), 1);
    let w = &a.per_worker[0];
    assert!(
        w.committed_s > 0.0,
        "the run committed work before its deadline"
    );
    assert!(
        (w.total_s() - a.wall_s).abs() <= 1e-9 * a.wall_s,
        "{} s of a {} s wall",
        w.total_s(),
        a.wall_s
    );

    // one worker: every rollback is an injected denial
    let injected = c.faults.as_ref().unwrap().injected();
    assert!(injected > 0 && tel.flight_dropped > 0);
    let j = json::parse(&cut.to_json_string()).unwrap();
    let rollbacks = j
        .get("counters")
        .and_then(|c| c.get("ops_rollbacks"))
        .and_then(Json::as_f64);
    assert_eq!(rollbacks, Some(injected as f64));
}
