//! Per-layer measurements of the traced run. Each layer is measured from
//! outside: the harness times calls into the layer's public functions,
//! replaying the traced mesh call's own output so that the inputs are the
//! ones the run met, and reads the counters `MeshOutput` already carries.
//! Every timed call is a span.

use crate::meshing::{MeshWorkload, Ready};
use crate::report::RunResult;
use crate::span::Tracer;
use crate::stats;
use pi2m::delaunay::{SharedMesh, VertexId, VertexKind};
use pi2m::edt::surface_feature_transform;
use pi2m::geometry::Point3;
use pi2m::image::LabeledImage;
use pi2m::obs::metrics as m;
use pi2m::oracle::IsosurfaceOracle;
use pi2m::predicates::{
    insphere_sos, insphere_sos_batch, orient3d, BatchStats, FilterStats, BATCH_LANES, P3,
};
use pi2m::quality;
use pi2m::refine::{FinalMesh, MeshOutput, MesherConfig, PointGrid, RuleConfig, Rules};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::sync::Arc;

/// Seeded oracle queries per kind.
const ORACLE_QUERIES: usize = 200_000;
/// Seeded point locations on the replayed triangulation.
const LOCATE_QUERIES: usize = 50_000;
/// Cells whose predicates are re-evaluated, at most.
const PREDICATE_CELLS: usize = 200_000;

/// Quality and fidelity of `mesh` against the image behind `oracle`: `(max radius-edge, min boundary
/// planar angle in degrees, two-sided Hausdorff distance)`. The traced run
/// also records what each measurement cost and the `quality.*` ledger.
pub fn measure_quality(
    tr: Option<&mut Tracer>,
    res: &mut RunResult,
    mesh: &FinalMesh,
    oracle: &IsosurfaceOracle,
) -> (f64, f64, f64) {
    let Some(tr) = tr else {
        let tris = mesh.boundary_triangles();
        return (
            quality::mesh_quality(mesh).max_radius_edge,
            quality::report::boundary_report_of(&mesh.points, &tris).min_planar_angle_deg,
            quality::hausdorff_distance(&mesh.points, &tris, oracle, 7),
        );
    };
    let (mq, mq_s) = tr.time("quality.mesh_quality", 0, || quality::mesh_quality(mesh));
    let (br, br_s) = tr.time("quality.boundary_report", 0, || {
        quality::boundary_report(mesh)
    });
    let tris = mesh.boundary_triangles();
    let (hd, hd_s) = tr.time("quality.hausdorff", 0, || {
        quality::hausdorff_distance(&mesh.points, &tris, oracle, 7)
    });
    res.set("quality.mesh_quality_s", mq_s);
    res.set("quality.boundary_report_s", br_s);
    res.set("quality.hausdorff_s", hd_s);
    res.set("quality.tets", mq.num_tets as f64);
    res.set("quality.points", mq.num_points as f64);
    res.set("quality.over_bound_frac", mq.over_bound_fraction);
    res.set("quality.min_dihedral_deg", mq.min_dihedral_deg);
    res.set("quality.non_manifold_edges", br.non_manifold_edges as f64);
    (mq.max_radius_edge, br.min_planar_angle_deg, hd)
}

/// The image, edt, oracle, predicates, delaunay, refine.rules, meshio and
/// obs layers, measured against the traced call's output.
pub fn kernel_layers(
    tr: &mut Tracer,
    res: &mut RunResult,
    img: &LabeledImage,
    out: &MeshOutput,
    cfg: &MesherConfig,
    seed: u64,
) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x6c61_7965_7273);
    edt_and_oracle(tr, res, img, out, cfg.threads, &mut rng);
    predicates(tr, res, out);
    delaunay(tr, res, out, &mut rng);
    rules(tr, res, out, cfg);

    write_vtk(tr, res, &out.mesh);

    res.set("obs.flight_events", out.flight.len() as f64);
    res.set("obs.flight_dropped", out.flight_dropped as f64);
}

/// The `meshio` layer: one in-memory VTK export of `mesh`.
pub fn write_vtk(tr: &mut Tracer, res: &mut RunResult, mesh: &FinalMesh) {
    let mut vtk = Vec::new();
    let (written, s) = tr.time("meshio.write_vtk", 0, || {
        pi2m::meshio::write_vtk(mesh, &mut vtk)
    });
    if let Err(e) = written {
        res.problem(format!("write_vtk failed: {e}"));
    }
    res.set("meshio.write_vtk_s", s);
    res.set("meshio.vtk_bytes", vtk.len() as f64);
    res.set("meshio.write_vtk_mb_per_s", vtk.len() as f64 / 1e6 / s);
}

fn edt_and_oracle(
    tr: &mut Tracer,
    res: &mut RunResult,
    img: &LabeledImage,
    out: &MeshOutput,
    threads: usize,
    rng: &mut ChaCha8Rng,
) {
    let (ft, edt_s) = tr.time("edt.transform", 0, || {
        surface_feature_transform(img, threads)
    });
    res.set("edt.transform_s", edt_s);
    res.set("edt.voxels_per_s", img.num_voxels() as f64 / edt_s);
    let copy = img.clone();
    let (_, build_s) = tr.time("oracle.build", 0, || {
        black_box(IsosurfaceOracle::from_parts(copy, ft))
    });
    res.set("oracle.build_s", build_s);

    // Seeded queries against the run's own oracle, uniform over the image.
    let oracle = &out.oracle;
    let b = oracle.image().bounds();
    let mut point = || {
        Point3::new(
            rng.gen_range(b.min.x..b.max.x),
            rng.gen_range(b.min.y..b.max.y),
            rng.gen_range(b.min.z..b.max.z),
        )
    };
    let points: Vec<Point3> = (0..ORACLE_QUERIES).map(|_| point()).collect();
    let per_query_ns = |s: f64| s * 1e9 / ORACLE_QUERIES as f64;
    let (_, s) = tr.time("oracle.closest_point", 0, || {
        for &p in &points {
            black_box(oracle.closest_surface_point(p));
        }
    });
    res.set("oracle.closest_point_ns", per_query_ns(s));
    // Segments about two voxels long, the scale of a Voronoi edge.
    let reach = 2.0 * oracle.image().min_spacing();
    let ends: Vec<Point3> = points
        .iter()
        .map(|&p| {
            let mut d = || rng.gen_range(-reach..reach);
            Point3::new(p.x + d(), p.y + d(), p.z + d())
        })
        .collect();
    let (_, s) = tr.time("oracle.segment", 0, || {
        for (&a, &b) in points.iter().zip(&ends) {
            black_box(oracle.segment_surface_intersection(a, b));
        }
    });
    res.set("oracle.segment_ns", per_query_ns(s));
    let (_, s) = tr.time("oracle.label_at", 0, || {
        for &p in &points {
            black_box(oracle.label_at(p));
        }
    });
    res.set("oracle.label_at_ns", per_query_ns(s));
}

/// Predicate timings on the final mesh's own cells (each cell against the
/// apex of its first neighbour, the test Bowyer–Watson makes), and the
/// filter counters of the run itself.
fn predicates(tr: &mut Tracer, res: &mut RunResult, out: &MeshOutput) {
    let mesh = &out.shared;
    let mut cases: Vec<([P3; 5], [u64; 5])> = Vec::new();
    for c in mesh.alive_cells().take(PREDICATE_CELLS) {
        let cell = mesh.cell(c);
        let n = cell.nei(0);
        if n.is_none() {
            continue;
        }
        let verts = cell.verts();
        let Some(apex) = mesh
            .cell(n)
            .verts()
            .into_iter()
            .find(|v| !verts.contains(v))
        else {
            continue;
        };
        let ids = [verts[0], verts[1], verts[2], verts[3], apex];
        cases.push((ids.map(|v| mesh.pos3(v)), ids.map(|v| v.0 as u64)));
    }
    if cases.is_empty() {
        return;
    }
    let per_case_ns = |s: f64| s * 1e9 / cases.len() as f64;
    let (_, s) = tr.time("predicates.orient3d", 0, || {
        for (p, _) in &cases {
            black_box(orient3d(&p[0], &p[1], &p[2], &p[3]));
        }
    });
    res.set("predicates.orient3d_ns", per_case_ns(s));
    let (_, s) = tr.time("predicates.insphere_sos", 0, || {
        for (p, k) in &cases {
            black_box(insphere_sos(&p[0], &p[1], &p[2], &p[3], &p[4], *k));
        }
    });
    res.set("predicates.insphere_sos_ns", per_case_ns(s));

    // Wide-lane waves: BATCH_LANES consecutive cells against one query
    // point, staged into SoA arrays beforehand as the kernel stages them.
    let bounds = mesh.semi_static_bounds();
    let waves: Vec<_> = cases
        .chunks_exact(BATCH_LANES)
        .map(|w| {
            let (mut xs, mut ys, mut zs) = (Vec::new(), Vec::new(), Vec::new());
            for (p, _) in w {
                for q in &p[..4] {
                    xs.push(q[0]);
                    ys.push(q[1]);
                    zs.push(q[2]);
                }
            }
            let keys: Vec<[u64; 5]> = w.iter().map(|(_, k)| *k).collect();
            (xs, ys, zs, w[0].0[4], keys)
        })
        .collect();
    if !waves.is_empty() {
        let (mut st, mut bt) = (FilterStats::default(), BatchStats::default());
        let mut signs = Vec::new();
        let (_, s) = tr.time("predicates.insphere_batch", 0, || {
            for (xs, ys, zs, pe, keys) in &waves {
                insphere_sos_batch(bounds, &mut st, &mut bt, xs, ys, zs, pe, keys, &mut signs);
                black_box(&signs);
            }
        });
        res.set(
            "predicates.insphere_batch_ns_per_lane",
            s * 1e9 / (waves.len() * BATCH_LANES) as f64,
        );
    }

    let c = |id| out.metrics.counter(id) as f64;
    let semi = c(m::PRED_ORIENT_SEMI_STATIC) + c(m::PRED_INSPHERE_SEMI_STATIC);
    let exact = c(m::PRED_ORIENT_EXACT) + c(m::PRED_INSPHERE_EXACT);
    let all = semi + exact + c(m::PRED_ORIENT_FILTERED) + c(m::PRED_INSPHERE_FILTERED);
    res.set("predicates.semi_static_hit_frac", semi / all.max(1.0));
    res.set("predicates.exact_calls", exact);
    let lanes = c(m::PRED_BATCH_ORIENT_LANES) + c(m::PRED_BATCH_INSPHERE_LANES);
    let batches = c(m::PRED_BATCH_ORIENT_BATCHES) + c(m::PRED_BATCH_INSPHERE_BATCHES);
    let fallbacks = c(m::PRED_BATCH_ORIENT_FALLBACKS) + c(m::PRED_BATCH_INSPHERE_FALLBACKS);
    res.set(
        "predicates.batch_occupancy",
        lanes / (batches * BATCH_LANES as f64).max(1.0),
    );
    res.set("predicates.batch_fallback_frac", fallbacks / lanes.max(1.0));
}

/// Replay the final vertices into a fresh triangulation through
/// `OpCtx::insert`, locate seeded points in it, then remove a seeded 5% of
/// its vertices. Walk, cavity and scratch figures are the run's own.
fn delaunay(tr: &mut Tracer, res: &mut RunResult, out: &MeshOutput, rng: &mut ChaCha8Rng) {
    let src = &out.shared;
    let corners = src.corner_ids();
    let verts: Vec<(P3, VertexKind)> = (0..src.num_vertices() as u32)
        .map(VertexId)
        .filter(|v| !corners.contains(v) && src.vertex(*v).is_alive())
        .map(|v| (src.pos3(v), src.vertex(v).kind()))
        .collect();
    let replay = SharedMesh::with_box(src.bbox());
    let mut ctx = replay.make_ctx(0);
    let mut inserted = Vec::with_capacity(verts.len());
    let (_, s) = tr.time("delaunay.insert_replay", 0, || {
        for &(p, kind) in &verts {
            if let Ok(r) = ctx.insert(p, kind) {
                inserted.push(r.vertex);
                ctx.recycle_insert(r);
            }
        }
    });
    if inserted.len() != verts.len() {
        res.problem(format!(
            "replay inserted {} of the mesh's {} vertices",
            inserted.len(),
            verts.len()
        ));
    }
    res.set("delaunay.insert_us", s * 1e6 / inserted.len().max(1) as f64);

    let b = replay.bbox();
    let queries: Vec<P3> = (0..LOCATE_QUERIES)
        .map(|_| {
            [
                rng.gen_range(b.min.x..b.max.x),
                rng.gen_range(b.min.y..b.max.y),
                rng.gen_range(b.min.z..b.max.z),
            ]
        })
        .collect();
    let (_, s) = tr.time("delaunay.locate", 0, || {
        for &p in &queries {
            black_box(ctx.locate_readonly(p));
        }
    });
    res.set("delaunay.locate_us", s * 1e6 / LOCATE_QUERIES as f64);

    let victims: Vec<VertexId> = inserted
        .iter()
        .copied()
        .filter(|_| rng.gen_bool(0.05))
        .collect();
    let (mut removed, mut ball_cells) = (0u64, 0u64);
    let (_, s) = tr.time("delaunay.remove", 0, || {
        for &v in &victims {
            if let Ok(r) = ctx.remove(v) {
                removed += 1;
                ball_cells += r.killed.len() as u64;
                ctx.recycle_remove(r);
            }
        }
    });
    res.set("delaunay.remove_us", s * 1e6 / removed.max(1) as f64);
    res.set(
        "delaunay.ball_cells_per_remove",
        ball_cells as f64 / removed.max(1) as f64,
    );

    let c = |id| out.metrics.counter(id) as f64;
    res.set(
        "delaunay.walk_steps_per_locate",
        c(m::WALK_STEPS) / c(m::WALK_LOCATES).max(1.0),
    );
    res.set(
        "delaunay.cavity_cells_per_insert",
        out.metrics.hist(m::CAVITY_CELLS).mean(),
    );
    res.set("delaunay.scratch_allocs", c(m::SCRATCH_ALLOCS));
}

/// Replay `Rules::classify` over every alive cell of the final
/// triangulation, with a proximity grid rebuilt from its vertices, and the
/// R6 victim query at every isosurface vertex.
fn rules(tr: &mut Tracer, res: &mut RunResult, out: &MeshOutput, cfg: &MesherConfig) {
    let mesh = &out.shared;
    let grid = PointGrid::new(cfg.delta);
    let mut surface = Vec::new();
    for v in (0..mesh.num_vertices() as u32).map(VertexId) {
        let vert = mesh.vertex(v);
        if vert.is_alive() {
            grid.insert(v, vert.pos());
            if vert.kind() == VertexKind::Isosurface {
                surface.push(vert.pos());
            }
        }
    }
    let rules = Rules::new(
        RuleConfig {
            delta: cfg.delta,
            radius_edge_bound: cfg.radius_edge_bound,
            planar_angle_min_deg: cfg.planar_angle_min_deg,
            size_fn: cfg.size_fn.clone(),
            surface_size_fn: cfg.surface_size_fn.clone(),
        },
        Arc::clone(&out.oracle),
        Arc::new(grid),
    );
    let cells: Vec<_> = mesh
        .alive_cells()
        .map(|c| (c, mesh.cell(c).gen()))
        .collect();
    let (_, s) = tr.time("refine.classify_replay", 0, || {
        for &(c, gen) in &cells {
            black_box(rules.classify(mesh, c, gen));
        }
    });
    res.set("refine.classify_ns", s * 1e9 / cells.len().max(1) as f64);
    let c = |id| out.metrics.counter(id) as f64;
    res.set("refine.classify_calls", c(m::CLASSIFY_CALLS));
    res.set(
        "refine.classify_calls_per_op",
        c(m::CLASSIFY_CALLS) / c(m::OPS_TOTAL).max(1.0),
    );
    let (_, s) = tr.time("refine.r6_victims", 0, || {
        for &z in &surface {
            black_box(rules.r6_victims(mesh, z));
        }
    });
    res.set(
        "refine.r6_victims_us",
        s * 1e6 / surface.len().max(1) as f64,
    );
}

/// `obs.flight_overhead_frac`: interleaved recorder-on / recorder-off calls
/// on the warm session, the median on-wall over the median off-wall, less 1.
pub fn flight_overhead(
    w: &MeshWorkload,
    ready: &mut Ready,
    budget_s: f64,
    res: &mut RunResult,
) -> Result<(), String> {
    let (mut on, mut off) = (Vec::new(), Vec::new());
    let start = std::time::Instant::now();
    while on.len() < 2 || start.elapsed().as_secs_f64() < budget_s {
        let order = if on.len() % 2 == 0 {
            [true, false]
        } else {
            [false, true]
        };
        for flight in order {
            ready.flight = flight;
            let wall = w.call(ready, ready.width, None)?.wall_s;
            if flight { &mut on } else { &mut off }.push(wall);
        }
    }
    ready.flight = true;
    res.set(
        "obs.flight_overhead_frac",
        stats::median(&on) / stats::median(&off) - 1.0,
    );
    Ok(())
}
