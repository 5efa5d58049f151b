//! Golden mesh digests for the one-thread pipeline.
//!
//! At one thread the whole refinement trajectory is deterministic, so the
//! final mesh of a fixed input is a fixed byte string. These tests pin that
//! string down as an FNV-1a digest over point bits, tets and labels. The
//! constants were recorded at commit `49867e6` with the since-deleted scalar
//! kernel path (`MesherConfig { batch: false, .. }`) and matched by the
//! wide-lane path there, so they certify that the one remaining path still
//! builds the mesh the scalar cascade built. The one exception is
//! `ABDOMINAL_NO_R6`, re-recorded when `SurfaceProbe`'s lower bound was made
//! sound (it is now measured from the probed voxel's center). The new bound
//! is never larger than the old, so it can only send a run through more
//! exact surface queries; in that run it changed the mesh, not its tet count.
//! An 8-thread run, which is schedule-dependent, is checked for soundness
//! only.
//!
//! A change that is *meant* to alter the one-thread trajectory (a new rule
//! order, a different seed cell) re-records: run
//! `cargo test --release --test mesh_digest -- --nocapture`, read the
//! `got` pairs off the failure messages, and replace the constants below,
//! saying in the commit why the mesh moved.

use pi2m::image::{phantoms, LabeledImage};
use pi2m::obs::metrics::{PRED_BATCH_INSPHERE_LANES, PRED_BATCH_ORIENT_LANES};
use pi2m::refine::{audit_mesh, FinalMesh, MachineTopology, MeshOutput, Mesher, MesherConfig};

fn run(img: LabeledImage, delta: f64, threads: usize, enable_removals: bool) -> MeshOutput {
    Mesher::new(
        img,
        MesherConfig {
            delta,
            threads,
            enable_removals,
            topology: MachineTopology::flat(threads),
            ..Default::default()
        },
    )
    .run()
}

/// FNV-1a over the LE bytes of each point's `x, y, z` bit patterns, then
/// each tet index as `u64`, then each label as `u64`.
fn digest(m: &FinalMesh) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |v: u64| {
        for byte in v.to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for p in &m.points {
        feed(p.x.to_bits());
        feed(p.y.to_bits());
        feed(p.z.to_bits());
    }
    for t in &m.tets {
        t.iter().for_each(|&i| feed(i as u64));
    }
    for &l in &m.labels {
        feed(l as u64);
    }
    h
}

fn assert_golden(name: &str, out: &MeshOutput, tets: usize, want: u64) {
    let got = (out.mesh.num_tets(), digest(&out.mesh));
    assert_eq!(
        got,
        (tets, want),
        "{name}: the one-thread mesh changed; got (tets, digest) = {got:?}. \
         If the change is intended, re-record as the header of tests/mesh_digest.rs says."
    );
}

#[test]
fn single_thread_sphere_matches_golden_digest() {
    let out = run(phantoms::sphere(18, 1.0), 2.0, 1, true);
    assert_golden("sphere(18) delta 2", &out, SPHERE.0, SPHERE.1);
    assert!(audit_mesh(&out.shared, 42).clean());
    // the wide-lane filters must really have run: a digest that matched
    // with them idle would certify nothing about them
    let lanes = out.metrics.counter(PRED_BATCH_INSPHERE_LANES)
        + out.metrics.counter(PRED_BATCH_ORIENT_LANES);
    assert!(
        lanes > 1000,
        "wide-lane filters barely exercised: {lanes} lanes"
    );
}

#[test]
fn single_thread_nested_spheres_matches_golden_digest() {
    let out = run(phantoms::nested_spheres(16, 1.0), 2.0, 1, true);
    assert_golden("nested_spheres(16) delta 2", &out, NESTED.0, NESTED.1);
    assert!(audit_mesh(&out.shared, 7).clean());
}

#[test]
fn single_thread_abdominal_matches_golden_digest() {
    let on = run(phantoms::abdominal(1.0), 1.0, 1, true);
    assert_golden("abdominal(1.0) delta 1", &on, ABDOMINAL.0, ABDOMINAL.1);
    let off = run(phantoms::abdominal(1.0), 1.0, 1, false);
    assert_golden(
        "abdominal(1.0) delta 1, removals off",
        &off,
        ABDOMINAL_NO_R6.0,
        ABDOMINAL_NO_R6.1,
    );
}

#[test]
fn eight_thread_run_passes_audit() {
    // multi-threaded trajectories are schedule-dependent, so no digest
    // here — only soundness of the kernel under real contention
    let out = run(phantoms::nested_spheres(16, 1.0), 2.0, 8, true);
    assert!(!out.stats.livelock);
    assert!(out.mesh.num_tets() > 100);
    assert!(audit_mesh(&out.shared, 42).clean(), "8-thread audit");
}

// (tets, digest) of each one-thread mesh.
const SPHERE: (usize, u64) = (180, 8_347_468_031_460_994_259);
const NESTED: (usize, u64) = (213, 8_254_135_320_297_425_449);
const ABDOMINAL: (usize, u64) = (68_461, 4_553_734_149_023_760_472);
const ABDOMINAL_NO_R6: (usize, u64) = (74_917, 14_260_699_267_559_941_256);
