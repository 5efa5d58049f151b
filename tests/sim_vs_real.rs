//! Agreement between the real threaded engine and the discrete-event
//! simulator: same rules, same kernel, comparable outputs.

use pi2m::image::phantoms;
use pi2m::refine::{MesherConfig, MeshingSession};
use pi2m::sim::{SimConfig, SimMachine, SimMesher};

#[test]
fn sim_and_real_produce_comparable_meshes() {
    let img = phantoms::sphere(20, 1.0);
    let real = MeshingSession::new(2)
        .mesh(
            img.clone(),
            MesherConfig {
                delta: 1.5,
                threads: 2,
                ..Default::default()
            },
        )
        .unwrap();
    let sim = SimMesher::new(
        img,
        SimConfig {
            vthreads: 2,
            machine: SimMachine::crtc(),
            delta: 1.5,
            ..Default::default()
        },
    )
    .run();
    let (a, b) = (real.mesh.num_tets() as f64, sim.mesh.num_tets() as f64);
    assert!(
        (a - b).abs() / a < 0.35,
        "real {a} vs simulated {b} elements"
    );
    // both meshes cover the same object volume
    let (va, vb) = (real.mesh.volume(), sim.mesh.volume());
    assert!((va - vb).abs() / va < 0.2, "volume {va} vs {vb}");
}

#[test]
fn sim_single_thread_mirrors_real_single_thread_ops() {
    let img = phantoms::nested_spheres(16, 1.0);
    let real = MeshingSession::new(1)
        .mesh(
            img.clone(),
            MesherConfig {
                delta: 2.0,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
    let sim = SimMesher::new(
        img,
        SimConfig {
            vthreads: 1,
            machine: SimMachine::crtc(),
            delta: 2.0,
            ..Default::default()
        },
    )
    .run();
    // single-threaded: no speculation anywhere, op counts close
    let (a, b) = (
        real.stats.total_operations() as f64,
        sim.stats.total_operations() as f64,
    );
    assert!((a - b).abs() / a < 0.25, "ops real {a} vs sim {b}");
    assert_eq!(sim.stats.total_rollbacks(), 0);
    assert_eq!(real.stats.total_rollbacks(), 0);
}
