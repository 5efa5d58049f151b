//! Strong-scaling benchmark: the standard refinement workload at a ladder
//! of thread counts over ONE warm [`MeshingSession`], reported as a JSON
//! record — the fig5-style speedup curve, with the per-worker wall-time
//! attribution explaining *where* the non-scaling time went at every rung.
//!
//! Driven by `pi2m bench --scaling` (see the CLI), whose `--check` gates
//! parallel efficiency against an earlier record with a relative tolerance
//! like the kernel gate. Efficiency is compared *relatively* because
//! absolute values are a property of the host (a single-core runner
//! legitimately reports efficiency ~1/n — threads just timeshare the core),
//! which is also why no record is committed: one taken on fewer cores than
//! its top rung describes the host, not the engine.
//!
//! Schema of the emitted JSON (`schema_version` 1):
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "tool": "pi2m-bench-scaling",
//!   "quick": false,
//!   "host_threads": 8,
//!   "workload": {"phantom": "sphere", "res": 32, "delta": 0.8},
//!   "points": [
//!     {"threads": 1, "ops": 31415, "elements": 9000, "seconds": 2.7,
//!      "ops_per_sec": 11635.0, "speedup": 1.0, "efficiency": 1.0,
//!      "rollbacks": 0, "rollback_rate": 0.0,
//!      "time_attribution": {"wall_s": 2.7, "totals": {...},
//!                           "fractions": {...}, "workers": [...]}},
//!     ...
//!   ]
//! }
//! ```
//!
//! `ops` counts committed refinement operations; `seconds` is the
//! refinement-section wall time (not whole-pipeline), so `ops_per_sec`
//! isolates the part of the pipeline that actually scales with threads.

use pi2m_obs::attribution::TimeAttribution;
use pi2m_obs::json::Json;
use pi2m_refine::{mesh_sharded, MachineTopology, MesherConfig, MeshingSession, ShardSpec};

/// Options for one scaling-bench run.
#[derive(Clone, Debug)]
pub struct ScalingBenchOpts {
    /// Smaller workload and a shorter thread ladder for CI smoke runs.
    pub quick: bool,
    /// Thread ladder. `None` picks 1/2/4/8/16 (quick: 1/2/4).
    pub threads: Option<Vec<usize>>,
    /// Phantom sphere resolution override (`None` = mode default).
    pub res: Option<usize>,
    /// Refinement δ override (`None` = mode default).
    pub delta: Option<f64>,
    /// Timed runs per rung; the best (highest ops/sec) is kept.
    pub runs_per_point: usize,
}

impl Default for ScalingBenchOpts {
    fn default() -> Self {
        ScalingBenchOpts {
            quick: false,
            threads: None,
            res: None,
            delta: None,
            runs_per_point: 2,
        }
    }
}

impl ScalingBenchOpts {
    fn thread_ladder(&self) -> Vec<usize> {
        match &self.threads {
            Some(t) => t.clone(),
            None if self.quick => vec![1, 2, 4],
            None => vec![1, 2, 4, 8, 16],
        }
    }

    fn workload(&self) -> (usize, f64) {
        let res = self.res.unwrap_or(if self.quick { 16 } else { 32 });
        let delta = self.delta.unwrap_or(if self.quick { 2.0 } else { 0.8 });
        (res, delta)
    }
}

/// One rung of the thread ladder.
#[derive(Clone, Debug)]
pub struct ScalingPoint {
    pub threads: usize,
    /// Committed refinement operations.
    pub ops: u64,
    /// Final mesh elements.
    pub elements: u64,
    /// Refinement-section wall time, seconds.
    pub seconds: f64,
    pub rollbacks: u64,
    /// Per-worker wall-time decomposition of the kept run.
    pub attribution: TimeAttribution,
}

impl ScalingPoint {
    pub fn ops_per_sec(&self) -> f64 {
        if self.seconds > 0.0 {
            self.ops as f64 / self.seconds
        } else {
            0.0
        }
    }

    /// Rollbacks per attempted operation (committed + rolled back).
    pub fn rollback_rate(&self) -> f64 {
        let attempts = self.ops + self.rollbacks;
        if attempts > 0 {
            self.rollbacks as f64 / attempts as f64
        } else {
            0.0
        }
    }
}

/// The sharded rung: the same workload meshed as a 2x1x1 chunk
/// decomposition with seam stitching at the widest thread count, so the
/// shard overhead (chunk meshing + stitch vs one monolithic run) is tracked
/// in the scaling baseline alongside the thread ladder. Recorded, not gated:
/// overhead is a property of the workload size, and the tiny CI workloads
/// legitimately pay proportionally more stitch.
#[derive(Clone, Debug)]
pub struct ShardRung {
    pub grid: [usize; 3],
    pub halo: usize,
    pub lanes: usize,
    /// Whole sharded-run wall time, seconds.
    pub wall_s: f64,
    /// Summed per-chunk meshing wall time, seconds.
    pub chunk_wall_s: f64,
    /// Seam-stitch pass wall time, seconds.
    pub stitch_wall_s: f64,
    /// Final stitched-mesh elements.
    pub elements: u64,
}

/// The full report of one `pi2m bench --scaling` run.
#[derive(Clone, Debug)]
pub struct ScalingReport {
    pub quick: bool,
    /// `std::thread::available_parallelism()` of the measuring host — the
    /// context needed to read the efficiency column (a 1-core host cannot
    /// speed up, only timeshare).
    pub host_threads: usize,
    /// Workload identity: phantom sphere resolution and refinement δ.
    pub res: usize,
    pub delta: f64,
    pub points: Vec<ScalingPoint>,
    /// The sharded rung, when the bench ran one (see [`ShardRung`]).
    pub shard: Option<ShardRung>,
}

impl ScalingReport {
    fn base_ops_per_sec(&self) -> f64 {
        self.points
            .iter()
            .find(|p| p.threads == 1)
            .or(self.points.first())
            .map(ScalingPoint::ops_per_sec)
            .unwrap_or(0.0)
    }

    /// Throughput relative to the 1-thread rung.
    pub fn speedup(&self, p: &ScalingPoint) -> f64 {
        let base = self.base_ops_per_sec();
        if base > 0.0 {
            p.ops_per_sec() / base
        } else {
            0.0
        }
    }

    /// Parallel efficiency: speedup over thread count.
    pub fn efficiency(&self, p: &ScalingPoint) -> f64 {
        if p.threads > 0 {
            self.speedup(p) / p.threads as f64
        } else {
            0.0
        }
    }

    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema_version", Json::int(1)),
            ("tool", Json::str("pi2m-bench-scaling")),
            ("quick", Json::Bool(self.quick)),
            ("host_threads", Json::int(self.host_threads as u64)),
            (
                "workload",
                Json::obj(vec![
                    ("phantom", Json::str("sphere")),
                    ("res", Json::int(self.res as u64)),
                    ("delta", Json::num(self.delta)),
                ]),
            ),
            (
                "points",
                Json::Arr(
                    self.points
                        .iter()
                        .map(|p| {
                            Json::obj(vec![
                                ("threads", Json::int(p.threads as u64)),
                                ("ops", Json::int(p.ops)),
                                ("elements", Json::int(p.elements)),
                                ("seconds", Json::num(p.seconds)),
                                ("ops_per_sec", Json::num(p.ops_per_sec())),
                                ("speedup", Json::num(self.speedup(p))),
                                ("efficiency", Json::num(self.efficiency(p))),
                                ("rollbacks", Json::int(p.rollbacks)),
                                ("rollback_rate", Json::num(p.rollback_rate())),
                                ("time_attribution", p.attribution.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ];
        if let Some(s) = &self.shard {
            fields.push((
                "shard",
                Json::obj(vec![
                    (
                        "grid",
                        Json::str(format!("{}x{}x{}", s.grid[0], s.grid[1], s.grid[2])),
                    ),
                    ("halo", Json::int(s.halo as u64)),
                    ("lanes", Json::int(s.lanes as u64)),
                    ("wall_s", Json::num(s.wall_s)),
                    ("chunk_wall_s", Json::num(s.chunk_wall_s)),
                    ("stitch_wall_s", Json::num(s.stitch_wall_s)),
                    ("elements", Json::int(s.elements)),
                ]),
            ));
        }
        Json::obj(fields)
    }

    pub fn to_json_string(&self) -> String {
        self.to_json().dump_pretty()
    }
}

/// Run the refinement workload up the thread ladder over one warm session.
pub fn run_scaling_bench(opts: ScalingBenchOpts) -> ScalingReport {
    let ladder = opts.thread_ladder();
    let (res, delta) = opts.workload();
    let max_threads = ladder.iter().copied().max().unwrap_or(1);
    let runs = opts.runs_per_point.max(1);

    let cfg_for = |threads: usize| MesherConfig {
        delta,
        threads,
        topology: MachineTopology::flat(threads),
        ..Default::default()
    };
    // One session for the whole ladder: pool sized to the widest rung up
    // front so no rung pays thread-spawn cost, arenas and grid stay warm.
    let mut session = MeshingSession::new(max_threads);
    let _warmup = session
        .mesh(pi2m_image::phantoms::sphere(res, 1.0), cfg_for(max_threads))
        .expect("scaling warmup run failed");

    let mut points = Vec::with_capacity(ladder.len());
    for &threads in &ladder {
        let mut best: Option<ScalingPoint> = None;
        for _ in 0..runs {
            let img = pi2m_image::phantoms::sphere(res, 1.0);
            let out = session
                .mesh(img, cfg_for(threads))
                .expect("scaling run failed");
            let point = ScalingPoint {
                threads,
                ops: out.stats.total_operations(),
                elements: out.mesh.num_tets() as u64,
                seconds: out.stats.wall_time,
                rollbacks: out.stats.total_rollbacks(),
                attribution: pi2m_obs::attribution::attribute(
                    &out.flight,
                    threads,
                    out.stats.wall_time,
                )
                .with_dropped(out.flight_dropped),
            };
            let better = best
                .as_ref()
                .is_none_or(|b| point.ops_per_sec() > b.ops_per_sec());
            if better {
                best = Some(point);
            }
        }
        points.push(best.expect("at least one run per rung"));
    }

    // The sharded rung: same workload, 2x1x1 decomposition + stitch at the
    // widest thread count. The halo is the δ-derived default clamped below
    // the chunk core so tiny smoke workloads stay plannable.
    let grid = [2usize, 1, 1];
    let halo = pi2m_refine::shard::auto_halo(delta, 1.0).min((res / grid[0]).saturating_sub(1));
    let t0 = std::time::Instant::now();
    let run = mesh_sharded(
        &mut session,
        pi2m_image::phantoms::sphere(res, 1.0),
        cfg_for(max_threads),
        &Default::default(),
        &ShardSpec {
            grid,
            halo: Some(halo),
            lanes: None,
        },
    )
    .expect("sharded scaling rung failed");
    let phase_total = |name: &str| -> f64 {
        run.out
            .phases
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_s)
            .sum()
    };
    let shard = Some(ShardRung {
        grid,
        halo: run.halo,
        lanes: run.lanes,
        wall_s: t0.elapsed().as_secs_f64(),
        chunk_wall_s: phase_total("shard_chunk"),
        stitch_wall_s: phase_total("shard_stitch"),
        elements: run.out.mesh.num_tets() as u64,
    });

    ScalingReport {
        quick: opts.quick,
        host_threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        res,
        delta,
        points,
        shard,
    }
}

/// Render the human-readable ladder table printed by `pi2m bench --scaling`.
pub fn render_scaling_table(report: &ScalingReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>7} {:>10} {:>9} {:>10} {:>8} {:>10} {:>9} {:>9} {:>7}",
        "threads",
        "ops",
        "seconds",
        "ops/sec",
        "speedup",
        "efficiency",
        "rollbacks",
        "rb-rate",
        "idle"
    );
    for p in &report.points {
        let _ = writeln!(
            out,
            "{:>7} {:>10} {:>9.3} {:>10.0} {:>8.2} {:>10.3} {:>9} {:>9.4} {:>6.0}%",
            p.threads,
            p.ops,
            p.seconds,
            p.ops_per_sec(),
            report.speedup(p),
            report.efficiency(p),
            p.rollbacks,
            p.rollback_rate(),
            p.attribution
                .fraction(pi2m_obs::attribution::Category::Idle)
                * 100.0,
        );
    }
    if let Some(s) = &report.shard {
        let _ = writeln!(
            out,
            "sharded {}x{}x{} (halo {}, {} lane{}): {:.3}s wall \
             ({:.3}s chunks + {:.3}s stitch), {} elements",
            s.grid[0],
            s.grid[1],
            s.grid[2],
            s.halo,
            s.lanes,
            if s.lanes == 1 { "" } else { "s" },
            s.wall_s,
            s.chunk_wall_s,
            s.stitch_wall_s,
            s.elements
        );
    }
    out
}

/// Gate a fresh scaling report against a checked-in baseline JSON: for every
/// thread count present in both, parallel efficiency must be at least
/// `(1 - tolerance)` of the baseline's. The 1-thread rung anchors both
/// curves, so it is exempt (its efficiency is 1.0 by construction); absolute
/// throughput is the kernel gate's job. Returns the human-readable
/// comparison lines; `Err` lists the regressions.
pub fn check_scaling_baseline(
    report: &ScalingReport,
    baseline_json: &str,
    tolerance: f64,
) -> Result<Vec<String>, String> {
    let base = pi2m_obs::json::parse(baseline_json).map_err(|e| format!("bad baseline: {e}"))?;
    let base_points = base
        .get("points")
        .and_then(Json::as_arr)
        .ok_or("baseline missing 'points'")?;
    let base_eff = |threads: usize| -> Option<f64> {
        base_points
            .iter()
            .find(|p| p.get("threads").and_then(Json::as_f64) == Some(threads as f64))
            .and_then(|p| p.get("efficiency"))
            .and_then(Json::as_f64)
    };
    let mut lines = Vec::new();
    let mut regressions = Vec::new();
    let mut matched = 0usize;
    for p in &report.points {
        if p.threads <= 1 {
            continue;
        }
        let Some(b) = base_eff(p.threads) else {
            continue; // rung not in the baseline (quick vs full ladders)
        };
        matched += 1;
        let now = report.efficiency(p);
        let ratio = if b > 0.0 { now / b } else { f64::INFINITY };
        lines.push(format!(
            "{} threads: efficiency {now:.3} vs baseline {b:.3} (x{ratio:.2})",
            p.threads
        ));
        if ratio < 1.0 - tolerance {
            regressions.push(format!(
                "{} threads: efficiency {now:.3} is {:.0}% below baseline {b:.3}",
                p.threads,
                (1.0 - ratio) * 100.0
            ));
        }
    }
    if matched == 0 {
        return Err("no thread count overlaps between report and baseline".into());
    }
    if regressions.is_empty() {
        Ok(lines)
    } else {
        Err(regressions.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_attr(threads: usize, wall_s: f64) -> TimeAttribution {
        pi2m_obs::attribution::attribute(&[], threads, wall_s)
    }

    fn tiny_report() -> ScalingReport {
        let p = |threads: usize, ops: u64, seconds: f64, rollbacks: u64| ScalingPoint {
            threads,
            ops,
            elements: ops / 2,
            seconds,
            rollbacks,
            attribution: flat_attr(threads, seconds),
        };
        ScalingReport {
            quick: true,
            host_threads: 8,
            res: 16,
            delta: 2.0,
            points: vec![
                p(1, 10_000, 1.0, 0),
                p(2, 10_000, 0.55, 40),   // speedup 1.82, efficiency 0.91
                p(4, 10_000, 0.3125, 90), // speedup 3.2, efficiency 0.8
            ],
            shard: Some(ShardRung {
                grid: [2, 1, 1],
                halo: 4,
                lanes: 2,
                wall_s: 0.9,
                chunk_wall_s: 0.5,
                stitch_wall_s: 0.35,
                elements: 5_000,
            }),
        }
    }

    #[test]
    fn speedup_and_efficiency_math() {
        let r = tiny_report();
        assert!((r.speedup(&r.points[0]) - 1.0).abs() < 1e-12);
        assert!((r.speedup(&r.points[1]) - 1.0 / 0.55).abs() < 1e-9);
        assert!((r.efficiency(&r.points[2]) - 0.8).abs() < 1e-9);
        let rate = r.points[1].rollback_rate();
        assert!((rate - 40.0 / 10_040.0).abs() < 1e-12);
    }

    #[test]
    fn report_json_round_trips() {
        let r = tiny_report();
        let j = pi2m_obs::json::parse(&r.to_json_string()).unwrap();
        assert_eq!(j.get("schema_version").unwrap().as_f64(), Some(1.0));
        assert_eq!(j.get("tool").unwrap().as_str(), Some("pi2m-bench-scaling"));
        assert_eq!(
            j.get("workload").unwrap().get("res").unwrap().as_f64(),
            Some(16.0)
        );
        let points = j.get("points").unwrap().as_arr().unwrap();
        assert_eq!(points.len(), 3);
        let p4 = &points[2];
        assert_eq!(p4.get("threads").unwrap().as_f64(), Some(4.0));
        assert!((p4.get("efficiency").unwrap().as_f64().unwrap() - 0.8).abs() < 1e-9);
        // every rung carries its attribution with per-worker fractions
        let at = p4.get("time_attribution").expect("attribution");
        assert_eq!(at.get("workers").unwrap().as_arr().unwrap().len(), 4);
        // the sharded rung is recorded alongside the ladder
        let s = j.get("shard").expect("shard rung");
        assert_eq!(s.get("grid").unwrap().as_str(), Some("2x1x1"));
        assert_eq!(s.get("elements").unwrap().as_f64(), Some(5000.0));
        // ...and a baseline predating the rung still gates (points only)
        let mut old = tiny_report();
        old.shard = None;
        check_scaling_baseline(&tiny_report(), &old.to_json_string(), 0.25).unwrap();
    }

    #[test]
    fn baseline_gate_passes_on_itself_and_flags_regression() {
        let r = tiny_report();
        let baseline = r.to_json_string();
        let lines = check_scaling_baseline(&r, &baseline, 0.25).unwrap();
        assert_eq!(lines.len(), 2); // rungs 2 and 4; rung 1 exempt

        // halve the 4-thread throughput: efficiency drops 50%, over tolerance
        let mut slow = tiny_report();
        slow.points[2].seconds *= 2.0;
        let err = check_scaling_baseline(&slow, &baseline, 0.25).unwrap_err();
        assert!(err.contains("4 threads"), "{err}");
        // ...but a generous tolerance tolerates it
        check_scaling_baseline(&slow, &baseline, 0.6).unwrap();
    }

    #[test]
    fn baseline_gate_rejects_malformed_or_disjoint() {
        let r = tiny_report();
        assert!(check_scaling_baseline(&r, "{}", 0.25).is_err());
        assert!(check_scaling_baseline(&r, "not json", 0.25).is_err());
        let disjoint = "{\"points\": [{\"threads\": 32, \"efficiency\": 0.5}]}";
        let err = check_scaling_baseline(&r, disjoint, 0.25).unwrap_err();
        assert!(err.contains("overlap"), "{err}");
    }

    #[test]
    fn table_renders_every_rung() {
        let r = tiny_report();
        let t = render_scaling_table(&r);
        assert!(t.contains("threads"));
        assert_eq!(t.lines().count(), 5); // header + 3 rungs + shard line
        assert!(t.contains("0.800"));
        assert!(t.contains("sharded 2x1x1"), "{t}");
    }

    #[test]
    fn tiny_scaling_bench_runs_end_to_end() {
        // minimal smoke: a 2-rung ladder on a tiny phantom must complete,
        // measure real work, and produce unit attribution per worker
        let rep = run_scaling_bench(ScalingBenchOpts {
            quick: true,
            threads: Some(vec![1, 2]),
            res: Some(10),
            delta: Some(3.0),
            runs_per_point: 1,
        });
        assert_eq!(rep.points.len(), 2);
        for p in &rep.points {
            assert!(p.ops > 0, "{} threads measured no ops", p.threads);
            assert!(p.seconds > 0.0);
            assert_eq!(p.attribution.per_worker.len(), p.threads);
            for w in &p.attribution.per_worker {
                let sum: f64 = w.fractions().iter().sum();
                assert!(
                    (sum - 1.0).abs() < 1e-6,
                    "threads {} tid {} fractions sum {sum}",
                    p.threads,
                    w.tid
                );
            }
        }
        // the sharded rung ran on the same warm session and measured work
        let s = rep.shard.as_ref().expect("shard rung");
        assert_eq!(s.grid, [2, 1, 1]);
        assert!(s.elements > 0);
        assert!(s.wall_s > 0.0);
        let j = pi2m_obs::json::parse(&rep.to_json_string()).unwrap();
        assert_eq!(j.get("points").unwrap().as_arr().unwrap().len(), 2);
        assert!(j.get("shard").is_some());
    }
}
