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
use pi2m_delaunay::{CellId, SharedMesh, VertexKind};
use pi2m_geometry::{circumcenter, AngleBound, Point3, TET_EDGES, TET_FACES};
use pi2m_image::{Label, BACKGROUND};
use pi2m_oracle::{IsosurfaceOracle, SegmentTest, SizeFn};
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

/// log₂ of a [`FacetMemo`]'s slot count. Of the 688 904 facets R3 reaches on
/// the one-thread `abdominal(1.0)` run at δ = 1, the memo clears 164k at 64
/// slots, 192k at 256, 205k at 1024, 212k at 4096 and 240k at 2²⁰: 1024
/// slots (16 KiB) is the knee.
const MEMO_BITS: u32 = 10;

/// log₂ of a [`FacetMemo`]'s circumsphere slots: 2048 of 40 B (80 KiB).
const SPHERE_BITS: u32 = 11;

/// A cell's circumcenter and the label there, under the cell's
/// `(id, generation)` key; key 0 (cell 0 at generation 0, which is dead)
/// marks an empty slot.
#[derive(Clone, Copy, Default)]
struct SphereSlot {
    key: u64,
    cc: Point3,
    label: Label,
}

/// One worker's record of the facets whose R3 test found no remedy, keyed
/// by the unordered pair of `(cell id, generation)` on its two sides.
///
/// A pair names two vertex sets (a slot's vertices change only across a
/// free, and every free bumps the generation), so it fixes everything the
/// test reads: both circumcenters and their labels, the facet's vertices
/// and their kinds. A pair is recorded only after the traversal between the
/// two circumcenters found no crossing, with the neighbour's snapshot
/// confirming the adjacency at that generation. Tested again from the same
/// cell, the facet gets the same verdict. Tested from the other cell, the
/// kind/angle skip either fires, which is no remedy too, or the traversal
/// runs the other way, and that finds a crossing exactly when this one
/// does (DESIGN.md "Classification cost"). So a hit skips the facet as the
/// test would.
///
/// Direct-mapped: a new pair overwrites whatever shared its slot, which
/// costs a later traversal, never a wrong verdict. A memo lives for one run
/// of one worker, so it needs no invalidation and no synchronization.
///
/// The memo also keeps circumspheres: a cell's circumcenter and its label,
/// keyed by `(cell id, generation)`. Its own classification and the R3
/// test of each of its neighbours want them, and a key names one vertex set
/// in one order, whose positions never change, so a stored value is the one
/// recomputation gives. Direct-mapped as well, overwritten on collision.
#[derive(Default)]
pub(crate) struct FacetMemo {
    /// Pair keys; 0 (cell 0 at generation 0 on both sides) is never a key.
    /// Empty in the memo [`Rules::classify`] runs over, which never hits.
    slots: Box<[u128]>,
    /// Circumspheres; empty in that memo too.
    spheres: Box<[SphereSlot]>,
    /// Facets with a neighbour that the R3 loop reached.
    pub(crate) visits: u64,
    /// Of those, the ones a recorded pair cleared.
    pub(crate) hits: u64,
    /// Voronoi edges the R3 loop left to the traversal.
    pub(crate) traversals: u64,
    /// Voronoi edges the voxel box certificate cleared.
    #[cfg(test)]
    certified: u64,
    /// Circumspheres read from the table.
    #[cfg(test)]
    sphere_hits: u64,
}

impl FacetMemo {
    pub(crate) fn new() -> Self {
        FacetMemo {
            slots: vec![0; 1 << MEMO_BITS].into_boxed_slice(),
            spheres: vec![SphereSlot::default(); 1 << SPHERE_BITS].into_boxed_slice(),
            ..Default::default()
        }
    }

    /// The key of the facet between `a` and `b`, each a `(cell, generation)`:
    /// the same from either side.
    fn key(a: (CellId, u32), b: (CellId, u32)) -> u128 {
        let [x, y] = [a, b].map(|(c, gen)| (c.0 as u64) << 32 | gen as u64);
        (x.min(y) as u128) << 64 | x.max(y) as u128
    }

    fn slot(key: u128) -> usize {
        let h =
            ((key >> 64) as u64 ^ (key as u64).rotate_left(32)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (h >> (64 - MEMO_BITS)) as usize
    }

    fn holds(&self, key: u128) -> bool {
        self.slots.get(Self::slot(key)) == Some(&key)
    }

    fn record(&mut self, key: u128) {
        if let Some(slot) = self.slots.get_mut(Self::slot(key)) {
            *slot = key;
        }
    }

    /// The circumcenter of cell `c` at generation `gen` and the label
    /// there, from the table or else from `points`, the cell's corners.
    fn circumsphere(
        &mut self,
        rules: &Rules,
        (c, gen): (CellId, u32),
        points: impl FnOnce() -> [Point3; 4],
    ) -> Option<(Point3, Label)> {
        let key = (c.0 as u64) << 32 | gen as u64;
        let i = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - SPHERE_BITS)) as usize;
        let Some(slot) = self.spheres.get_mut(i) else {
            return rules.circumsphere(points());
        };
        if slot.key == key {
            #[cfg(test)]
            {
                self.sphere_hits += 1;
            }
            return Some((slot.cc, slot.label));
        }
        let (cc, label) = rules.circumsphere(points())?;
        *slot = SphereSlot { key, cc, label };
        Some((cc, label))
    }

    /// Count how the oracle settled a Voronoi edge.
    fn count(&mut self, test: SegmentTest) {
        match test {
            SegmentTest::Traversed(_) => self.traversals += 1,
            #[cfg(test)]
            SegmentTest::Certified => self.certified += 1,
            _ => {}
        }
    }
}

/// Shared, immutable rule evaluator.
pub struct Rules {
    pub cfg: RuleConfig,
    pub oracle: Arc<IsosurfaceOracle>,
    pub grid: Arc<PointGrid>,
    /// `cfg.planar_angle_min_deg` with its cosine, for R3's angle test.
    min_angle: AngleBound,
    /// Calls of [`Rules::classify_with`], for the engine's pop-accounting
    /// test.
    #[cfg(test)]
    pub(crate) classify_calls: std::sync::atomic::AtomicU64,
}

impl Rules {
    pub fn new(cfg: RuleConfig, oracle: Arc<IsosurfaceOracle>, grid: Arc<PointGrid>) -> Self {
        Rules {
            min_angle: AngleBound::new(cfg.planar_angle_min_deg),
            cfg,
            oracle,
            grid,
            #[cfg(test)]
            classify_calls: Default::default(),
        }
    }

    /// Circumcenter of the tetrahedron `p` and the label there; `None` for a
    /// degenerate (flat) one.
    fn circumsphere(&self, p: [Point3; 4]) -> Option<(Point3, Label)> {
        let cc = circumcenter(p[0], p[1], p[2], p[3])?;
        Some((cc, self.oracle.label_at(cc)))
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
        self.classify_with(mesh, c, gen, &mut FacetMemo::default())
    }

    /// [`classify`](Self::classify), skipping the R3 test of every facet
    /// `memo` holds as cleared and recording each facet it clears, and
    /// reading circumspheres through `memo`'s table.
    pub(crate) fn classify_with(
        &self,
        mesh: &SharedMesh,
        c: CellId,
        gen: u32,
        memo: &mut FacetMemo,
    ) -> Option<InsertAction> {
        #[cfg(test)]
        self.classify_calls
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let snap = mesh.cell(c).snapshot().filter(|s| s.gen == gen)?;
        let verts = snap.verts;
        let p = verts.map(|v| mesh.position(v));
        let (cc, label) = memo.circumsphere(self, (c, gen), || p)?;
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
            // A pair cleared before is clear now (see `FacetMemo`). No alive
            // check: had `n` died at the generation read, the snapshot below
            // would skip the facet as well.
            let ncell = mesh.cell(n);
            memo.visits += 1;
            if memo.holds(FacetMemo::key((c, gen), (n, ncell.gen()))) {
                memo.hits += 1;
                continue;
            }
            let small_angle = || self.min_angle.any_angle_below(p[f[0]], p[f[1]], p[f[2]]);
            if f.iter().all(|&k| on_surface[k]) && !small_angle() {
                continue;
            }
            let Some(nsnap) = ncell.snapshot() else {
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
            let Some((ncc, nlabel)) = memo.circumsphere(self, (n, nsnap.gen), || {
                nsnap.verts.map(|v| mesh.position(v))
            }) else {
                continue;
            };
            // Voronoi edge of the shared facet.
            let test = self.oracle.segment_test_from(&probe, ncc, nlabel);
            memo.count(test);
            if let Some(cs) = test.crossing() {
                return Some(InsertAction {
                    point: cs.to_array(),
                    kind: VertexKind::SurfaceCenter,
                    rule: 3,
                });
            }
            memo.record(FacetMemo::key((c, gen), (n, nsnap.gen)));
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
    use pi2m_geometry::min_triangle_angle;
    use pi2m_image::{phantoms, LabeledImage};

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

    // ---- the probe-sharing, memoised classify against its past self ----

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
    /// and R3's verdicts memoised: straight-line, every rule asking the
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

    /// Rules over the triangulation a run left behind, with the run's rule
    /// parameters and the proximity grid rebuilt from its alive vertices.
    fn rules_over(out: &crate::MeshOutput, cfg: &crate::MesherConfig) -> Rules {
        let grid = PointGrid::new(cfg.delta);
        for v in (0..out.shared.num_vertices() as u32).map(pi2m_delaunay::VertexId) {
            let vert = out.shared.vertex(v);
            if vert.is_alive() {
                grid.insert(v, vert.pos());
            }
        }
        let rule_cfg = RuleConfig {
            delta: cfg.delta,
            size_fn: cfg.size_fn.clone(),
            ..Default::default()
        };
        Rules::new(rule_cfg, Arc::clone(&out.oracle), Arc::new(grid))
    }

    fn run(img: LabeledImage, delta: f64, cap: u64) -> (crate::MeshOutput, Rules) {
        run_with(
            img,
            crate::MesherConfig {
                delta,
                max_operations: cap,
                ..Default::default()
            },
        )
    }

    fn run_with(img: LabeledImage, cfg: crate::MesherConfig) -> (crate::MeshOutput, Rules) {
        let out = crate::MeshingSession::new(1)
            .mesh(img, cfg.clone())
            .unwrap();
        let rules = rules_over(&out, &cfg);
        (out, rules)
    }

    /// Every alive cell: [`Rules::classify`] (an empty memo), the worker's
    /// path through one memo in the order a worker pops the cells (a run
    /// seeds PEL 0 with the alive cells and pops the newest first), and the
    /// reference agree. Every facet reads the same to R3 from both sides.
    /// Returns how many cells each rule claimed.
    fn differential(name: &str, (out, rules): (crate::MeshOutput, Rules)) -> [usize; 6] {
        let mesh = &out.shared;
        let cells: Vec<(CellId, u32)> = mesh
            .alive_cells()
            .map(|c| (c, mesh.cell(c).gen()))
            .collect();
        let mut memo = FacetMemo::new();
        let mut fired = [0usize; 6];
        for &(c, gen) in cells.iter().rev() {
            let reference = classify_reference(&rules, mesh, c, gen);
            let memoised = rules.classify_with(mesh, c, gen, &mut memo);
            assert_eq!(memoised, reference, "{name}: cell {c:?} memo vs reference");
            let cold = rules.classify(mesh, c, gen);
            assert_eq!(cold, reference, "{name}: cell {c:?} cold vs reference");
            fired[reference.map_or(0, |a| a.rule as usize)] += 1;
        }
        assert!(memo.hits > 0, "{name}: the memo never hit");
        assert!(memo.certified > 0, "{name}: the voxel box never certified");
        assert!(
            memo.sphere_hits > 0,
            "{name}: the circumsphere table never hit"
        );
        assert_facets_read_alike(name, &rules, mesh);
        fired
    }

    /// The facts a memo hit carries over from one side of a facet to the
    /// other are the same from both: the traversal crosses ∂O from one
    /// circumcenter to the other exactly when it does the other way, and the
    /// kind/angle skip gives one verdict.
    fn assert_facets_read_alike(name: &str, rules: &Rules, mesh: &SharedMesh) {
        let on_surface = |v| {
            matches!(
                mesh.vertex(v).kind(),
                VertexKind::Isosurface | VertexKind::SurfaceCenter
            )
        };
        let skips = |c: CellId, i: usize| {
            let verts = mesh.cell(c).verts();
            let f = TET_FACES[i].map(|k| verts[k]);
            let p = f.map(|v| mesh.position(v));
            f.iter().all(|&v| on_surface(v))
                && min_triangle_angle(p[0], p[1], p[2]) >= rules.cfg.planar_angle_min_deg
        };
        let crosses = |a, b| rules.oracle.segment_surface_intersection(a, b).is_some();
        let mut crossing = 0;
        for c in mesh.alive_cells() {
            let Some(cc) = rules.circumsphere(mesh.cell_points(c)) else {
                continue;
            };
            for i in 0..4 {
                let n = mesh.cell(c).nei(i);
                if n.is_none() {
                    continue;
                }
                let j = mesh.cell(n).face_to(c).expect("adjacency is mutual");
                assert_eq!(skips(c, i), skips(n, j), "{name}: skip of {c:?}/{n:?}");
                if let Some(ncc) = rules.circumsphere(mesh.cell_points(n)) {
                    let there = crosses(cc.0, ncc.0);
                    assert_eq!(there, crosses(ncc.0, cc.0), "{name}: {c:?}/{n:?}");
                    crossing += there as usize;
                }
            }
        }
        assert!(crossing > 0, "{name}: no Voronoi edge crosses ∂O");
    }

    /// Two nested ellipsoidal tissues on voxels of three different sizes.
    fn anisotropic() -> LabeledImage {
        LabeledImage::from_fn([30, 24, 12], [0.8, 1.0, 1.9], |p| {
            let q = Point3::new((p.x - 12.0) / 10.0, (p.y - 12.0) / 9.0, (p.z - 11.4) / 9.5);
            match q.norm() {
                r if r < 0.5 => 2,
                r if r < 1.0 => 1,
                _ => 0,
            }
        })
    }

    #[test]
    fn classify_matches_the_uncached_reference_on_finished_meshes() {
        use phantoms::{abdominal, nested_spheres, sphere};
        let quiet = |fired: [usize; 6]| fired[1..].iter().sum::<usize>() == 0;
        assert!(quiet(differential("sphere", run(sphere(24, 1.0), 1.5, 0))));
        assert!(quiet(differential(
            "nested",
            run(nested_spheres(28, 1.0), 1.5, 0)
        )));
        assert!(quiet(differential(
            "abdominal",
            run(abdominal(1.5), 2.0, 0)
        )));
        assert!(quiet(differential(
            "anisotropic",
            run(anisotropic(), 1.5, 0)
        )));
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
            ("anisotropic", anisotropic(), 1.5, 3_000),
        ] {
            let f = differential(name, run(img, delta, cap));
            for (sum, n) in fired.iter_mut().zip(f) {
                *sum += n;
            }
        }
        for rule in 1..=4 {
            assert!(fired[rule] > 0, "no cell exercised R{rule}: {fired:?}");
        }
    }

    /// R5 fires where the size function asks for smaller elements than R1–R4
    /// leave behind, and agrees with the reference there.
    #[test]
    fn sizing_rule_fires_mid_refinement() {
        let cfg = crate::MesherConfig {
            delta: 1.5,
            size_fn: Some(Arc::new(pi2m_oracle::UniformSize(1.5))),
            max_operations: 6_000,
            ..Default::default()
        };
        let fired = differential("sphere", run_with(phantoms::sphere(24, 1.0), cfg));
        assert!(fired[5] > 0, "no cell exercised R5: {fired:?}");
    }

    /// A recorded pair names its two cells at their generations: once the
    /// neighbour's slot is freed and reused, the facet is tested again.
    #[test]
    fn a_recycled_neighbour_is_tested_again() {
        let (out, rules) = run(phantoms::sphere(24, 1.0), 1.5, 0);
        let mesh = &out.shared;
        let mut ctx = mesh.make_ctx(0);
        let mut memo = FacetMemo::new();
        let key =
            |(c, gen): (CellId, u32), n: CellId| FacetMemo::key((c, gen), (n, mesh.cell(n).gen()));
        let cells: Vec<(CellId, u32)> = mesh
            .alive_cells()
            .map(|c| (c, mesh.cell(c).gen()))
            .collect();
        let mut retested = 0;
        for (c, gen) in cells {
            if !mesh.cell(c).is_alive() || mesh.cell(c).gen() != gen {
                continue;
            }
            assert_eq!(rules.classify_with(mesh, c, gen, &mut memo), None);
            let Some(i) = (0..4).find(|&i| {
                let n = mesh.cell(c).nei(i);
                !n.is_none() && memo.holds(key((c, gen), n))
            }) else {
                continue;
            };
            // Kill the neighbour with a point of its circumball outside the
            // cell's, next to its apex, then take the point out again: the
            // triangulation comes back, its cells on the freed slots.
            let n = mesh.cell(c).nei(i);
            let old = (mesh.cell(n).gen(), sorted(mesh.cell(n).verts()));
            let apex = mesh.cell(n).verts()[mesh.cell(n).face_to(c).unwrap()];
            let (ncc, _) = rules.circumsphere(mesh.cell_points(n)).unwrap();
            let (cc, _) = rules.circumsphere(mesh.cell_points(c)).unwrap();
            let a = mesh.position(apex);
            let p = a + (ncc - a) * 0.05;
            if p.distance(cc) <= cc.distance(mesh.position(mesh.cell(c).vert(0))) * 1.001 {
                continue;
            }
            let Ok(ins) = ctx.insert(p.to_array(), VertexKind::Circumcenter) else {
                continue;
            };
            assert!(!mesh.cell(n).is_alive() || mesh.cell(n).gen() != old.0);
            if ctx.remove(ins.vertex).is_err() {
                continue;
            }
            assert_eq!(mesh.cell(c).gen(), gen, "the cell itself was kept");
            if mesh.cell(c).nei(i) != n || sorted(mesh.cell(n).verts()) != old.1 {
                continue;
            }
            // Same slot, same vertices, a later generation: not a hit.
            assert!(mesh.cell(n).gen() > old.0);
            let pair = key((c, gen), n);
            assert!(!memo.holds(pair));
            assert_eq!(rules.classify_with(mesh, c, gen, &mut memo), None);
            assert!(memo.holds(pair), "the facet was tested and recorded again");
            retested += 1;
            if retested == 3 {
                break;
            }
        }
        assert!(retested > 0, "no neighbour came back on its own slot");
    }

    fn sorted<T: Ord>(mut a: [T; 4]) -> [T; 4] {
        a.sort();
        a
    }
}
