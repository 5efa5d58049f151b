//! Simulator behaviour tests: correctness of the produced mesh, policy
//! orderings matching the paper, and determinism.

use pi2m_image::phantoms;
use pi2m_refine::CmKind;
use pi2m_sim::{BalancerKind, SimConfig, SimMachine, SimMesher};

fn base_cfg(vthreads: usize) -> SimConfig {
    SimConfig {
        vthreads,
        machine: SimMachine::blacklight(),
        delta: 2.0,
        ..Default::default()
    }
}

#[test]
fn single_vthread_produces_valid_mesh() {
    let out = SimMesher::new(phantoms::sphere(16, 1.0), base_cfg(1)).run();
    assert!(!out.stats.livelock);
    assert!(out.mesh.num_tets() > 50, "{} tets", out.mesh.num_tets());
    assert_eq!(out.stats.total_rollbacks(), 0);
    assert!(out.stats.vtime > 0.0);
    assert!(out.stats.elements_per_second() > 0.0);
}

#[test]
fn parallel_sim_matches_sequential_mesh_size() {
    let a = SimMesher::new(phantoms::sphere(16, 1.0), base_cfg(1)).run();
    let b = SimMesher::new(phantoms::sphere(16, 1.0), base_cfg(8)).run();
    assert!(!b.stats.livelock);
    let (na, nb) = (a.mesh.num_tets() as f64, b.mesh.num_tets() as f64);
    assert!((na - nb).abs() / na < 0.5, "1 vt {na} vs 8 vt {nb}");
}

#[test]
fn sim_is_deterministic() {
    let r1 = SimMesher::new(phantoms::sphere(16, 1.0), base_cfg(8)).run();
    let r2 = SimMesher::new(phantoms::sphere(16, 1.0), base_cfg(8)).run();
    assert_eq!(r1.mesh.num_tets(), r2.mesh.num_tets());
    assert_eq!(r1.stats.total_rollbacks(), r2.stats.total_rollbacks());
    assert_eq!(r1.stats.vtime, r2.stats.vtime);
}

#[test]
fn parallel_speedup_in_virtual_time() {
    let img = phantoms::sphere(24, 1.0);
    // enough elements per thread that the serial early phase amortizes
    let mut cfg1 = base_cfg(1);
    cfg1.delta = 0.5;
    let mut cfg16 = base_cfg(16);
    cfg16.delta = 0.5;
    let a = SimMesher::new(img.clone(), cfg1).run();
    let b = SimMesher::new(img, cfg16).run();
    assert!(!b.stats.livelock);
    let speedup = a.stats.vtime / b.stats.vtime;
    assert!(
        speedup > 4.0,
        "expected decent virtual speedup on 16 cores, got {speedup:.2} \
         (t1={:.4}s t16={:.4}s)",
        a.stats.vtime,
        b.stats.vtime
    );
}

#[test]
fn rollbacks_occur_under_contention() {
    let mut cfg = base_cfg(32);
    cfg.delta = 1.5;
    let out = SimMesher::new(phantoms::sphere(20, 1.0), cfg).run();
    assert!(!out.stats.livelock);
    assert!(
        out.stats.total_rollbacks() > 0,
        "32 contending vthreads must produce rollbacks"
    );
}

#[test]
fn hws_keeps_donations_local() {
    let img = phantoms::sphere(24, 1.0);
    let mk = |bal| {
        let mut cfg = base_cfg(64); // 4 blades
        cfg.delta = 0.7;
        cfg.balancer = bal;
        SimMesher::new(img.clone(), cfg).run()
    };
    let rws = mk(BalancerKind::Rws);
    let hws = mk(BalancerKind::Hws);
    assert!(!rws.stats.livelock && !hws.stats.livelock);
    // HWS's defining property: donated work preferentially stays within the
    // donor's socket/blade (paper §6.1: 98.9% of requests served in-blade).
    let cross_frac = |s: &pi2m_sim::SimStats| {
        s.inter_blade_donations() as f64 / s.total_donations().max(1) as f64
    };
    let (fr, fh) = (cross_frac(&rws.stats), cross_frac(&hws.stats));
    assert!(
        fh < fr,
        "HWS cross-blade donation fraction {fh:.3} must undercut RWS {fr:.3}"
    );
}

#[test]
fn blocking_cms_never_livelock() {
    for cm in [CmKind::Global, CmKind::Local] {
        let mut cfg = base_cfg(32);
        cfg.cm = cm;
        cfg.delta = 1.5;
        let out = SimMesher::new(phantoms::sphere(20, 1.0), cfg).run();
        assert!(!out.stats.livelock, "{cm:?} must not livelock");
        assert!(out.mesh.num_tets() > 100);
    }
}

/// The NUMA touch counts of one two-blade run, pinned exactly: the run is
/// deterministic, so only a change to which thread a cell is homed on (or to
/// the schedule) moves them.
#[test]
fn numa_touch_counts_are_pinned() {
    let mut cfg = base_cfg(32);
    cfg.delta = 1.5;
    let s = SimMesher::new(phantoms::sphere(20, 1.0), cfg).run().stats;
    assert_eq!(
        (
            s.local_touches,
            s.remote_socket_touches,
            s.inter_blade_touches
        ),
        (5325, 655, 1253)
    );
}

#[test]
fn removals_happen_in_sim() {
    let mut cfg = base_cfg(4);
    cfg.delta = 1.5;
    let out = SimMesher::new(phantoms::sphere(20, 1.0), cfg).run();
    assert!(out.stats.total_removals() > 0);
}

#[test]
fn smt_mode_runs() {
    let mut cfg = base_cfg(16);
    cfg.machine = SimMachine::blacklight_smt();
    let out = SimMesher::new(phantoms::sphere(16, 1.0), cfg).run();
    assert!(!out.stats.livelock);
    assert!(out.mesh.num_tets() > 50);
}

#[test]
fn trace_records_events() {
    let mut cfg = base_cfg(8);
    cfg.trace = true;
    cfg.delta = 1.5;
    let out = SimMesher::new(phantoms::sphere(16, 1.0), cfg).run();
    // some overhead events must exist on 8 contending threads
    assert!(!out.stats.merged_trace().is_empty());
}
