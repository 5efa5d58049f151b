//! The refinement rules R1–R6 (paper §3).
//!
//! A tetrahedron is *poor* when some rule applies to it; classification
//! computes the corresponding remedy:
//!
//! * **R1** — circumball intersects ∂O and the closest isosurface point `z`
//!   is ≥ δ from every existing isosurface vertex ⇒ insert `z`.
//! * **R2** — circumball intersects ∂O and circumradius > 2δ ⇒ insert the
//!   circumcenter.
//! * **R3** — a facet's Voronoi edge crosses ∂O and the facet has a small
//!   planar angle (< 30°) or a non-isosurface vertex ⇒ insert the
//!   surface-center.
//! * **R4** — circumcenter inside O and radius-edge ratio > 2 ⇒ insert the
//!   circumcenter.
//! * **R5** — circumcenter inside O and circumradius > sf(c) ⇒ insert the
//!   circumcenter.
//! * **R6** — on insertion of an isosurface vertex `z`, already-inserted
//!   circumcenters within 2δ of `z` are deleted (termination guarantee);
//!   realized by the engine as removal actions after R1 commits.

use crate::grid::PointGrid;
use crate::spheres::{Circumsphere, SphereTable};
use pi2m_delaunay::{CellId, CellSnap, SharedMesh, VertexKind};
use pi2m_geometry::{circumcenter, min_triangle_angle, Point3, TET_EDGES, TET_FACES};
use pi2m_image::BACKGROUND;
use pi2m_oracle::{IsosurfaceOracle, SizeFn};
use std::sync::Arc;

/// Rule parameters.
pub struct RuleConfig {
    /// Base sampling density δ (world units); lower δ ⇒ denser surface
    /// sampling and better fidelity (Theorem 1).
    pub delta: f64,
    /// Radius-edge ratio bound (paper: 2).
    pub radius_edge_bound: f64,
    /// Boundary planar angle bound in degrees (paper: 30°).
    pub planar_angle_min_deg: f64,
    /// Optional volume size function (rule R5).
    pub size_fn: Option<Arc<dyn SizeFn>>,
    /// Optional *surface* density function: a spatially varying δ, letting
    /// high-curvature or high-interest parts of the isosurface be sampled
    /// more densely (paper §2: "our method is able to satisfy both surface
    /// and volume custom element densities"). Values are clamped to
    /// `[0, delta]`; `None` means uniform δ.
    pub surface_size_fn: Option<Arc<dyn SizeFn>>,
}

impl Default for RuleConfig {
    fn default() -> Self {
        RuleConfig {
            delta: 1.0,
            radius_edge_bound: 2.0,
            planar_angle_min_deg: 30.0,
            size_fn: None,
            surface_size_fn: None,
        }
    }
}

impl RuleConfig {
    /// The effective sampling density at `p`.
    #[inline]
    pub fn delta_at(&self, p: Point3) -> f64 {
        match &self.surface_size_fn {
            Some(sf) => sf.size_at(p).clamp(f64::MIN_POSITIVE, self.delta),
            None => self.delta,
        }
    }
}

/// Remedy for a poor element.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InsertAction {
    pub point: [f64; 3],
    pub kind: VertexKind,
    /// Which rule fired (1..=5), for diagnostics.
    pub rule: u8,
}

/// Shared rule evaluator. Immutable apart from its circumsphere table, a
/// cache that any thread may fill (see the private `spheres` module).
pub struct Rules {
    pub cfg: RuleConfig,
    pub oracle: Arc<IsosurfaceOracle>,
    pub grid: Arc<PointGrid>,
    spheres: SphereTable,
    /// Calls of [`Rules::classify`], for the engine's pop-accounting test.
    #[cfg(test)]
    pub(crate) classify_calls: std::sync::atomic::AtomicU64,
}

impl Rules {
    pub fn new(cfg: RuleConfig, oracle: Arc<IsosurfaceOracle>, grid: Arc<PointGrid>) -> Self {
        Rules {
            cfg,
            oracle,
            grid,
            spheres: SphereTable::new(),
            #[cfg(test)]
            classify_calls: Default::default(),
        }
    }

    /// Circumcenter of the cell `snap` was taken from, and the label there:
    /// from the table when `(c, snap.gen)` is published, else computed and
    /// published. `None` for a degenerate (flat) cell.
    fn circumsphere(&self, mesh: &SharedMesh, c: CellId, snap: &CellSnap) -> Option<Circumsphere> {
        if let Some(hit) = self.spheres.get(c.0, snap.gen) {
            return Some(hit);
        }
        let p = snap.verts.map(|v| mesh.position(v));
        let cc = circumcenter(p[0], p[1], p[2], p[3])?;
        let sphere = (cc, self.oracle.label_at(cc));
        self.spheres.put(c.0, snap.gen, sphere);
        Some(sphere)
    }

    /// Classify a cell; `None` means the cell satisfies all rules. The cell
    /// must be alive with the given generation when called. The result may
    /// race with concurrent kills: execute the remedy through
    /// `OpCtx::insert_for`, which drops it if the cell has died by the time
    /// the cavity is locked.
    ///
    /// The circumcenter is probed once (label, nearest surface voxel) and
    /// every rule reads that probe; see DESIGN.md "Classification cost".
    pub fn classify(&self, mesh: &SharedMesh, c: CellId, gen: u32) -> Option<InsertAction> {
        #[cfg(test)]
        self.classify_calls
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let snap = mesh.cell(c).snapshot().filter(|s| s.gen == gen)?;
        let verts = snap.verts;
        let p = verts.map(|v| mesh.position(v));
        let (cc, label) = self.circumsphere(mesh, c, &snap)?;
        let r = cc.distance(p[0]);
        let probe = self.oracle.probe_labeled(cc, label);

        // Does the circumball intersect ∂O? The probe's bounds decide the
        // clear cases; in between, the closest surface point itself does,
        // and R1 wants that point anyway.
        if probe.surface_distance_lower_bound() <= r {
            let z = self.oracle.closest_surface_point_from(&probe);
            let certain = probe.surface_distance_upper_bound() < r;
            let z = z.filter(|z| certain || z.distance(cc) <= r);
            // R1: sample the isosurface near this circumball, at the local
            // target density.
            if let Some(z) = z {
                let za = z.to_array();
                let dz = self.cfg.delta_at(z);
                if !self.grid.any_surface_sample_near(mesh, za, dz) {
                    return Some(InsertAction {
                        point: za,
                        kind: VertexKind::Isosurface,
                        rule: 1,
                    });
                }
            }
            // R2: surface-crossing ball too big.
            if (certain || z.is_some()) && r > 2.0 * self.cfg.delta_at(cc) {
                return Some(InsertAction {
                    point: cc.to_array(),
                    kind: VertexKind::Circumcenter,
                    rule: 2,
                });
            }
        }

        // R3: facet surface-centers. A facet whose vertices all lie on the
        // isosurface and whose planar angles are fine needs no surface-center
        // whether or not its Voronoi edge crosses ∂O, so it is not marched.
        let on_surface = verts.map(|v| {
            matches!(
                mesh.vertex(v).kind(),
                // both isosurface vertices and surface-centers lie
                // precisely on the isosurface
                VertexKind::Isosurface | VertexKind::SurfaceCenter
            )
        });
        for (i, &f) in TET_FACES.iter().enumerate() {
            let n = snap.neis[i];
            if n.is_none() {
                continue;
            }
            let small_angle =
                || min_triangle_angle(p[f[0]], p[f[1]], p[f[2]]) < self.cfg.planar_angle_min_deg;
            if f.iter().all(|&k| on_surface[k]) && !small_angle() {
                continue;
            }
            let Some(nsnap) = mesh.cell(n).snapshot() else {
                continue;
            };
            // Slot `n` may have been freed and reused since `snap` was taken.
            // Two cells that are not neighbours have no Voronoi edge: the
            // segment between their circumcenters crosses ∂O wherever it
            // likes, and a surface-center planted there, next to vertices
            // that already sample the surface, starts a cascade of small
            // angles and further surface-centers.
            if !nsnap.neis.contains(&c) {
                continue;
            }
            let Some((ncc, nlabel)) = self.circumsphere(mesh, n, &nsnap) else {
                continue;
            };
            // Voronoi edge of the shared facet.
            if let Some(cs) = self
                .oracle
                .segment_surface_intersection_from(&probe, ncc, nlabel)
            {
                return Some(InsertAction {
                    point: cs.to_array(),
                    kind: VertexKind::SurfaceCenter,
                    rule: 3,
                });
            }
        }

        if label != BACKGROUND {
            // R4: radius-edge quality.
            let mut shortest = f64::INFINITY;
            for (a, b) in TET_EDGES {
                shortest = shortest.min(p[a].distance(p[b]));
            }
            if shortest > 0.0 && r / shortest > self.cfg.radius_edge_bound {
                return Some(InsertAction {
                    point: cc.to_array(),
                    kind: VertexKind::Circumcenter,
                    rule: 4,
                });
            }
            // R5: user sizing.
            if let Some(sf) = &self.cfg.size_fn {
                if r > sf.size_at(cc) {
                    return Some(InsertAction {
                        point: cc.to_array(),
                        kind: VertexKind::Circumcenter,
                        rule: 5,
                    });
                }
            }
        }

        None
    }

    /// R6 targets: circumcenter vertices within 2δ of a freshly inserted
    /// isosurface vertex at `z` (local δ when a surface density is set).
    pub fn r6_victims(&self, mesh: &SharedMesh, z: [f64; 3]) -> Vec<pi2m_delaunay::VertexId> {
        let dz = self.cfg.delta_at(Point3::from_array(z));
        self.grid
            .collect_near(mesh, z, 2.0 * dz, VertexKind::Circumcenter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi2m_geometry::Aabb;
    use pi2m_image::phantoms;

    fn setup(delta: f64) -> (SharedMesh, Rules) {
        let img = phantoms::sphere(24, 1.0);
        let oracle = Arc::new(IsosurfaceOracle::new(img, 1));
        let bb = oracle.image().foreground_bounds().unwrap();
        let mesh = SharedMesh::enclosing(&bb);
        let grid = Arc::new(PointGrid::new(delta));
        let rules = Rules::new(
            RuleConfig {
                delta,
                ..Default::default()
            },
            oracle,
            grid,
        );
        (mesh, rules)
    }

    #[test]
    fn initial_cells_are_poor() {
        let (mesh, rules) = setup(2.0);
        // the huge initial box cells must trigger a surface rule
        let mut poor = 0;
        for c in mesh.alive_cells() {
            let gen = mesh.cell(c).gen();
            if rules.classify(&mesh, c, gen).is_some() {
                poor += 1;
            }
        }
        assert!(poor > 0, "at least one initial cell must be refinable");
    }

    #[test]
    fn r1_respects_existing_samples() {
        let (mesh, rules) = setup(2.0);
        let c = mesh.alive_cells().next().unwrap();
        let gen = mesh.cell(c).gen();
        if let Some(act) = rules.classify(&mesh, c, gen) {
            if act.rule == 1 {
                // plant an isosurface vertex exactly at the proposed point:
                // re-classification must not propose R1 there again
                let mut ctx = mesh.make_ctx(0);
                let r = ctx.insert(act.point, VertexKind::Isosurface).unwrap();
                rules.grid.insert(r.vertex, act.point);
                for c2 in mesh.alive_cells() {
                    let g2 = mesh.cell(c2).gen();
                    if let Some(a2) = rules.classify(&mesh, c2, g2) {
                        if a2.rule == 1 {
                            let d = Point3::from_array(a2.point)
                                .distance(Point3::from_array(act.point));
                            assert!(
                                d >= rules.cfg.delta * 0.999,
                                "R1 proposed a sample {d} away from an existing one"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn stale_generation_not_classified() {
        let (mesh, rules) = setup(2.0);
        let c = mesh.alive_cells().next().unwrap();
        let gen = mesh.cell(c).gen();
        assert!(rules.classify(&mesh, c, gen + 1).is_none());
    }

    #[test]
    fn sizing_rule_fires_inside() {
        let img = phantoms::sphere(24, 1.0);
        let oracle = Arc::new(IsosurfaceOracle::new(img, 1));
        let bb = oracle.image().foreground_bounds().unwrap();
        let mesh = SharedMesh::enclosing(&bb);
        let grid = Arc::new(PointGrid::new(1.0));
        let rules = Rules::new(
            RuleConfig {
                delta: 1.0,
                size_fn: Some(Arc::new(pi2m_oracle::UniformSize(0.5))),
                ..Default::default()
            },
            oracle.clone(),
            grid,
        );
        // insert a few interior points to make an interior tet whose cc is
        // inside; then any such tet bigger than 0.5 must be classified poor
        let mut ctx = mesh.make_ctx(0);
        let center = oracle.image().bounds().center();
        for d in [
            [0.0, 0.0, 0.0],
            [2.0, 0.0, 0.0],
            [0.0, 2.0, 0.0],
            [0.0, 0.0, 2.0],
        ] {
            let p = [center.x + d[0], center.y + d[1], center.z + d[2]];
            ctx.insert(p, VertexKind::Circumcenter).unwrap();
        }
        let mut fired = false;
        for c in mesh.alive_cells() {
            let gen = mesh.cell(c).gen();
            if let Some(a) = rules.classify(&mesh, c, gen) {
                if a.rule == 5 || a.rule == 4 || a.rule <= 3 {
                    fired = true;
                }
            }
        }
        assert!(fired);
        let _ = Aabb::empty();
    }

    #[test]
    fn surface_size_fn_controls_local_density() {
        use pi2m_oracle::RadialSize;
        let img = phantoms::sphere(24, 1.0);
        let oracle = Arc::new(IsosurfaceOracle::new(img, 1));
        let center = oracle.image().bounds().center();
        // fine sampling near +x pole of the sphere, coarse elsewhere
        let focus = center + Point3::new(0.7 * 12.0, 0.0, 0.0);
        let cfg = RuleConfig {
            delta: 4.0,
            surface_size_fn: Some(Arc::new(RadialSize {
                focus,
                near: 1.0,
                growth: 1.0,
                far: 4.0,
            })),
            ..Default::default()
        };
        assert!((cfg.delta_at(focus) - 1.0).abs() < 1e-12);
        assert_eq!(cfg.delta_at(focus + Point3::new(-100.0, 0.0, 0.0)), 4.0);
        // clamped to the base delta
        let cfg2 = RuleConfig {
            delta: 2.0,
            surface_size_fn: Some(Arc::new(pi2m_oracle::UniformSize(10.0))),
            ..Default::default()
        };
        assert_eq!(cfg2.delta_at(focus), 2.0);
    }

    #[test]
    fn r6_victims_respect_radius() {
        let (mesh, rules) = setup(1.0);
        let mut ctx = mesh.make_ctx(0);
        let center = rules.oracle.image().bounds().center().to_array();
        let near = [center[0] + 1.0, center[1], center[2]];
        let far = [center[0] + 10.0, center[1], center[2]];
        let v1 = ctx.insert(near, VertexKind::Circumcenter).unwrap().vertex;
        let v2 = ctx.insert(far, VertexKind::Circumcenter).unwrap().vertex;
        rules.grid.insert(v1, near);
        rules.grid.insert(v2, far);
        let victims = rules.r6_victims(&mesh, center);
        assert!(victims.contains(&v1));
        assert!(!victims.contains(&v2));
    }

    // ---- the probe-sharing, table-backed classify against its past self ----

    /// `ball_intersects_surface` as the oracle had it: the nearest surface
    /// voxel decides the clear cases, the interpolated distance the rest.
    fn ball_intersects_surface(oracle: &IsosurfaceOracle, c: Point3, r: f64) -> bool {
        let Some(q) = oracle.feature_transform().nearest_site_world(c) else {
            return false;
        };
        let sp = oracle.image().spacing();
        let half_diag = 0.5 * (sp[0] * sp[0] + sp[1] * sp[1] + sp[2] * sp[2]).sqrt();
        let d = q.distance(c);
        if d - half_diag > r {
            return false;
        }
        if d + half_diag < r {
            return true;
        }
        oracle.surface_distance(c).is_some_and(|sd| sd <= r)
    }

    /// Classification as it stood before the circumcenter probe was shared
    /// and the circumspheres tabled: straight-line, every rule asking the
    /// oracle from scratch through its public queries.
    fn classify_reference(
        rules: &Rules,
        mesh: &SharedMesh,
        c: CellId,
        gen: u32,
    ) -> Option<InsertAction> {
        let (cfg, oracle) = (&rules.cfg, &rules.oracle);
        let cell = mesh.cell(c);
        if !cell.is_alive() || cell.gen() != gen {
            return None;
        }
        let verts = cell.verts();
        let p = verts.map(|v| mesh.position(v));
        let cc = circumcenter(p[0], p[1], p[2], p[3])?;
        let r = cc.distance(p[0]);
        let action = |point: Point3, kind, rule| {
            Some(InsertAction {
                point: point.to_array(),
                kind,
                rule,
            })
        };

        if ball_intersects_surface(oracle, cc, r) {
            if let Some(z) = oracle.closest_surface_point(cc) {
                if !rules
                    .grid
                    .any_surface_sample_near(mesh, z.to_array(), cfg.delta_at(z))
                {
                    return action(z, VertexKind::Isosurface, 1);
                }
            }
            if r > 2.0 * cfg.delta_at(cc) {
                return action(cc, VertexKind::Circumcenter, 2);
            }
        }
        for (i, &f) in TET_FACES.iter().enumerate() {
            let n = cell.nei(i);
            if n.is_none() {
                continue;
            }
            let Some(nsnap) = mesh.cell(n).snapshot() else {
                continue;
            };
            let np = nsnap.verts.map(|v| mesh.position(v));
            let Some(ncc) = circumcenter(np[0], np[1], np[2], np[3]) else {
                continue;
            };
            if let Some(cs) = oracle.segment_surface_intersection(cc, ncc) {
                let angle = min_triangle_angle(p[f[0]], p[f[1]], p[f[2]]);
                let all_iso = f.iter().all(|&k| {
                    matches!(
                        mesh.vertex(verts[k]).kind(),
                        VertexKind::Isosurface | VertexKind::SurfaceCenter
                    )
                });
                if angle < cfg.planar_angle_min_deg || !all_iso {
                    return action(cs, VertexKind::SurfaceCenter, 3);
                }
            }
        }
        if oracle.is_inside(cc) {
            let shortest = TET_EDGES
                .iter()
                .map(|&(a, b)| p[a].distance(p[b]))
                .fold(f64::INFINITY, f64::min);
            if shortest > 0.0 && r / shortest > cfg.radius_edge_bound {
                return action(cc, VertexKind::Circumcenter, 4);
            }
            if cfg.size_fn.as_ref().is_some_and(|sf| r > sf.size_at(cc)) {
                return action(cc, VertexKind::Circumcenter, 5);
            }
        }
        None
    }

    /// Rules over the triangulation a run left behind, the proximity grid
    /// rebuilt from its alive vertices.
    fn rules_over(out: &crate::MeshOutput, delta: f64) -> Rules {
        let grid = PointGrid::new(delta);
        for v in (0..out.shared.num_vertices() as u32).map(pi2m_delaunay::VertexId) {
            let vert = out.shared.vertex(v);
            if vert.is_alive() {
                grid.insert(v, vert.pos());
            }
        }
        let cfg = RuleConfig {
            delta,
            ..Default::default()
        };
        Rules::new(cfg, Arc::clone(&out.oracle), Arc::new(grid))
    }

    /// Every alive cell: cold table ≡ warm table ≡ the reference. Returns
    /// how many cells each rule claimed.
    fn differential(name: &str, img: pi2m_image::LabeledImage, delta: f64, cap: u64) -> [usize; 6] {
        let out = crate::Mesher::new(
            img,
            crate::MesherConfig {
                delta,
                max_operations: cap,
                ..Default::default()
            },
        )
        .run();
        let mesh = &out.shared;
        let rules = rules_over(&out, delta);
        let cells: Vec<(CellId, u32)> = mesh
            .alive_cells()
            .map(|c| (c, mesh.cell(c).gen()))
            .collect();
        let mut fired = [0usize; 6];
        let cold: Vec<_> = cells
            .iter()
            .map(|&(c, gen)| rules.classify(mesh, c, gen))
            .collect();
        for (&(c, gen), cold) in cells.iter().zip(&cold) {
            let warm = rules.classify(mesh, c, gen);
            let reference = classify_reference(&rules, mesh, c, gen);
            assert_eq!(*cold, reference, "{name}: cell {c:?} cold vs reference");
            assert_eq!(warm, reference, "{name}: cell {c:?} warm vs reference");
            fired[reference.map_or(0, |a| a.rule as usize)] += 1;
        }
        fired
    }

    #[test]
    fn classify_matches_the_uncached_reference_on_finished_meshes() {
        use phantoms::{abdominal, nested_spheres, sphere};
        let quiet = |fired: [usize; 6]| fired[1..].iter().sum::<usize>() == 0;
        assert!(quiet(differential("sphere", sphere(24, 1.0), 1.5, 0)));
        assert!(quiet(differential(
            "nested",
            nested_spheres(28, 1.0),
            1.5,
            0
        )));
        assert!(quiet(differential("abdominal", abdominal(1.5), 2.0, 0)));
    }

    #[test]
    fn classify_matches_the_uncached_reference_mid_refinement() {
        // Runs capped after so many PEL pops leave poor cells of every kind
        // behind, so the rules' firing branches are compared too, not only
        // their silence.
        let mut fired = [0usize; 6];
        for (name, img, delta, cap) in [
            ("sphere", phantoms::sphere(24, 1.0), 1.5, 4_000),
            ("nested", phantoms::nested_spheres(28, 1.0), 1.5, 12_000),
            ("abdominal", phantoms::abdominal(1.5), 2.0, 60_000),
        ] {
            let f = differential(name, img, delta, cap);
            for (sum, n) in fired.iter_mut().zip(f) {
                *sum += n;
            }
        }
        for rule in 1..=4 {
            assert!(fired[rule] > 0, "no cell exercised R{rule}: {fired:?}");
        }
    }

    /// Eight threads refine one triangulation (cell ids are recycled by
    /// every cavity) while looking up circumspheres of cells all over it:
    /// whatever the table hands out must be bit-identical to recomputing it
    /// from the same snapshot.
    #[test]
    fn table_never_serves_a_circumsphere_that_differs_from_recomputation() {
        const THREADS: u64 = 8;
        let (mesh, rules) = setup(1.0);
        let bb = mesh.bbox();
        let start = std::sync::Barrier::new(THREADS as usize);
        let checked = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for tid in 0..THREADS {
                let (mesh, rules, start, checked) = (&mesh, &rules, &start, &checked);
                s.spawn(move || {
                    let mut ctx = mesh.make_ctx(tid as u32);
                    let mut x = 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(tid + 1);
                    let mut next = move || {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x
                    };
                    let mut unit = || (next() >> 11) as f64 / (1u64 << 53) as f64;
                    start.wait();
                    let mut n = 0u64;
                    for _ in 0..400 {
                        let p = [
                            bb.min.x + unit() * (bb.max.x - bb.min.x),
                            bb.min.y + unit() * (bb.max.y - bb.min.y),
                            bb.min.z + unit() * (bb.max.z - bb.min.z),
                        ];
                        // conflicts with the other seven are expected
                        if let Ok(r) = ctx.insert(p, VertexKind::Circumcenter) {
                            ctx.recycle_insert(r);
                        }
                        let slots = mesh.num_cell_slots() as f64;
                        for _ in 0..40 {
                            let c = CellId((unit() * slots) as u32);
                            let Some(snap) = mesh.cell(c).snapshot() else {
                                continue;
                            };
                            let np = snap.verts.map(|v| mesh.position(v));
                            let expect = circumcenter(np[0], np[1], np[2], np[3])
                                .map(|cc| (cc, rules.oracle.label_at(cc)));
                            let got = rules.circumsphere(mesh, c, &snap);
                            assert_eq!(
                                got.map(|(cc, l)| (cc.to_array().map(f64::to_bits), l)),
                                expect.map(|(cc, l)| (cc.to_array().map(f64::to_bits), l)),
                                "cell {c:?} gen {}",
                                snap.gen
                            );
                            n += 1;
                        }
                    }
                    checked.fetch_add(n, std::sync::atomic::Ordering::Relaxed);
                });
            }
        });
        assert!(checked.load(std::sync::atomic::Ordering::Relaxed) > 10_000);
    }
}
