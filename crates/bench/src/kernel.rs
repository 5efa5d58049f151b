//! Kernel hot-path benchmark: fixed-seed insertion / removal / refinement
//! workloads, reported as `BENCH_kernel.json`.
//!
//! Driven by `pi2m bench` (see the CLI) and by the CI smoke job. The
//! workloads are deterministic in their *inputs* (seeded xorshift point
//! streams, fixed phantoms) so runs are comparable; wall-clock numbers vary
//! with the machine, which is why the regression check uses a generous
//! relative tolerance instead of exact values.
//!
//! Schema of the emitted JSON (`schema_version` 1):
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "tool": "pi2m-bench-kernel",
//!   "quick": false,
//!   "seed": 42,
//!   "workloads": {
//!     "insertion":  {"ops": 20000, "seconds": 1.9, "ops_per_sec": 10526.0},
//!     "removal":    {"ops": 4000,  "seconds": 1.1, "ops_per_sec": 3636.0},
//!     "refinement": {"ops": 31415, "seconds": 2.7, "ops_per_sec": 11635.0}
//!   },
//!   "predicates": {"orient_semi_static": 0, "orient_filtered": 0,
//!                  "orient_exact": 0, "insphere_semi_static": 0,
//!                  "insphere_filtered": 0, "insphere_exact": 0},
//!   "scratch": {"reuses": 0, "allocs": 0, "allocs_avoided": 0,
//!               "footprint_elems": 0},
//!   "flight_overhead": {"on": {...}, "off": {...}, "overhead_frac": 0.01},
//!   "session": {"warm": {...}, "cold": {...}, "setup_saving_frac": 0.05},
//!   "parent_comparison": {"commit": "abc1234", "insertion_ops_per_sec": 0.0,
//!                         "insertion_speedup": 0.0,
//!                         "removal_ops_per_sec": 0.0, "removal_speedup": 0.0}
//! }
//! ```
//!
//! `parent_comparison` is optional: an A/B record of an older kernel run on
//! the identical insertion workload (`--parent-commit`/`--parent-insertion`);
//! the removal pair of keys appears only when `--parent-removal` was given
//! too.
//!
//! `refinement.ops` counts finished tetrahedra (elements/second); the other
//! two count committed kernel operations.

use pi2m_delaunay::{SharedMesh, VertexKind};
use pi2m_geometry::{Aabb, FilterStats, Point3};
use pi2m_obs::json::Json;
use pi2m_refine::{MachineTopology, Mesher, MesherConfig, MeshingSession};
use std::time::Instant;

/// Options for one benchmark run.
#[derive(Clone, Copy, Debug)]
pub struct KernelBenchOpts {
    /// Smaller workloads for CI smoke runs.
    pub quick: bool,
    /// Seed of the deterministic point streams.
    pub seed: u64,
}

impl Default for KernelBenchOpts {
    fn default() -> Self {
        KernelBenchOpts {
            quick: false,
            seed: 42,
        }
    }
}

/// One timed workload.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadResult {
    /// Committed operations (or finished elements for refinement).
    pub ops: u64,
    /// Wall time spent in the timed section.
    pub seconds: f64,
}

impl WorkloadResult {
    pub fn ops_per_sec(&self) -> f64 {
        if self.seconds > 0.0 {
            self.ops as f64 / self.seconds
        } else {
            0.0
        }
    }

    fn to_json(self) -> Json {
        Json::obj(vec![
            ("ops", Json::int(self.ops)),
            ("seconds", Json::num(self.seconds)),
            ("ops_per_sec", Json::num(self.ops_per_sec())),
        ])
    }
}

/// The refinement workload measured with the concurrency flight recorder on
/// and off (best of two runs each, to cut scheduler noise). The recorder is
/// always-on in production, so its cost is budgeted and gated in CI.
#[derive(Clone, Copy, Debug)]
pub struct FlightOverhead {
    pub on: WorkloadResult,
    pub off: WorkloadResult,
}

impl FlightOverhead {
    /// Fraction of throughput lost to the recorder (negative = noise made
    /// the recorded run faster).
    pub fn overhead_frac(&self) -> f64 {
        let (on, off) = (self.on.ops_per_sec(), self.off.ops_per_sec());
        if off > 0.0 {
            1.0 - on / off
        } else {
            0.0
        }
    }

    fn to_json(self) -> Json {
        Json::obj(vec![
            ("on", self.on.to_json()),
            ("off", self.off.to_json()),
            ("overhead_frac", Json::num(self.overhead_frac())),
        ])
    }
}

/// Full pipeline runs over one warm [`MeshingSession`] vs fresh cold
/// [`Mesher`] runs on the identical input. `ops` counts *runs*, so
/// `ops_per_sec()` is runs/second; the gap is pure per-run setup cost
/// (thread spawning, arena/grid/ring allocation) that the session amortizes.
#[derive(Clone, Copy, Debug)]
pub struct SessionComparison {
    pub warm: WorkloadResult,
    pub cold: WorkloadResult,
}

impl SessionComparison {
    /// Fraction of a cold run's wall time saved by reusing a warm session
    /// (negative = noise made the cold runs faster).
    pub fn setup_saving_frac(&self) -> f64 {
        let (warm, cold) = (self.warm.ops_per_sec(), self.cold.ops_per_sec());
        if warm > 0.0 {
            1.0 - cold / warm
        } else {
            0.0
        }
    }

    fn to_json(self) -> Json {
        Json::obj(vec![
            ("warm", self.warm.to_json()),
            ("cold", self.cold.to_json()),
            ("setup_saving_frac", Json::num(self.setup_saving_frac())),
        ])
    }
}

/// A reference measurement of an older kernel on the identical insertion
/// workload (recorded with `pi2m bench --parent-commit --parent-insertion`,
/// measured via the same point stream on the same machine).
pub struct ParentComparison {
    /// Commit of the reference kernel.
    pub commit: String,
    /// Its single-thread insertion throughput.
    pub insertion_ops_per_sec: f64,
    /// Its single-thread removal throughput (`--parent-removal`).
    pub removal_ops_per_sec: Option<f64>,
}

/// The full report of one `pi2m bench` run.
pub struct KernelBenchReport {
    pub opts: KernelBenchOpts,
    pub insertion: WorkloadResult,
    pub removal: WorkloadResult,
    pub refinement: WorkloadResult,
    /// Optional A/B record against a pre-change kernel.
    pub parent: Option<ParentComparison>,
    /// Predicate stage hits summed over the insertion + removal workloads.
    pub pred: FilterStats,
    /// Scratch reuse counters summed over the insertion + removal workloads.
    pub scratch_reuses: u64,
    pub scratch_allocs: u64,
    /// Arena capacity high-water mark at the end (elements, not bytes).
    pub scratch_footprint: usize,
    /// Refinement throughput with the flight recorder on vs off.
    pub flight: FlightOverhead,
    /// Whole-pipeline runs over one warm session vs fresh cold meshers.
    pub session: SessionComparison,
}

impl KernelBenchReport {
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema_version", Json::int(1)),
            ("tool", Json::str("pi2m-bench-kernel")),
            ("quick", Json::Bool(self.opts.quick)),
            ("seed", Json::int(self.opts.seed)),
            (
                "workloads",
                Json::obj(vec![
                    ("insertion", self.insertion.to_json()),
                    ("removal", self.removal.to_json()),
                    ("refinement", self.refinement.to_json()),
                ]),
            ),
            (
                "predicates",
                Json::obj(vec![
                    (
                        "orient_semi_static",
                        Json::int(self.pred.orient_semi_static),
                    ),
                    ("orient_filtered", Json::int(self.pred.orient_filtered)),
                    ("orient_exact", Json::int(self.pred.orient_exact)),
                    (
                        "insphere_semi_static",
                        Json::int(self.pred.insphere_semi_static),
                    ),
                    ("insphere_filtered", Json::int(self.pred.insphere_filtered)),
                    ("insphere_exact", Json::int(self.pred.insphere_exact)),
                ]),
            ),
            (
                "scratch",
                Json::obj(vec![
                    ("reuses", Json::int(self.scratch_reuses)),
                    ("allocs", Json::int(self.scratch_allocs)),
                    // every reuse is a buffer that did not have to grow cold
                    ("allocs_avoided", Json::int(self.scratch_reuses)),
                    ("footprint_elems", Json::int(self.scratch_footprint as u64)),
                ]),
            ),
            ("flight_overhead", self.flight.to_json()),
            ("session", self.session.to_json()),
        ];
        if let Some(p) = &self.parent {
            let speedup = |now: f64, then: f64| if then > 0.0 { now / then } else { 0.0 };
            let ins = speedup(self.insertion.ops_per_sec(), p.insertion_ops_per_sec);
            let mut block = vec![
                ("commit", Json::str(&p.commit)),
                ("insertion_ops_per_sec", Json::num(p.insertion_ops_per_sec)),
                ("insertion_speedup", Json::num(ins)),
            ];
            if let Some(then) = p.removal_ops_per_sec {
                let rem = speedup(self.removal.ops_per_sec(), then);
                block.push(("removal_ops_per_sec", Json::num(then)));
                block.push(("removal_speedup", Json::num(rem)));
            }
            fields.push(("parent_comparison", Json::obj(block)));
        }
        Json::obj(fields)
    }

    pub fn to_json_string(&self) -> String {
        self.to_json().dump_pretty()
    }
}

fn xorshift_stream(seed: u64) -> impl FnMut() -> f64 {
    let mut s = seed.max(1);
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Run the three workloads and collect the report.
pub fn run_kernel_bench(opts: KernelBenchOpts) -> KernelBenchReport {
    let (n_insert, sphere_res) = if opts.quick {
        (4_000, 16)
    } else {
        (20_000, 24)
    };

    // ---- insertion: N seeded pseudo-random points, one worker ----
    let mesh = SharedMesh::with_box(Aabb::new(Point3::ORIGIN, Point3::new(1.0, 1.0, 1.0)));
    let mut ctx = mesh.make_ctx(0);
    let mut next = xorshift_stream(opts.seed);
    let points: Vec<[f64; 3]> = (0..n_insert)
        .map(|_| {
            [
                next() * 0.98 + 0.01,
                next() * 0.98 + 0.01,
                next() * 0.98 + 0.01,
            ]
        })
        .collect();
    let t0 = Instant::now();
    let mut inserted = Vec::with_capacity(points.len());
    for &p in &points {
        if let Ok(r) = ctx.insert(p, VertexKind::Circumcenter) {
            inserted.push(r.vertex);
            ctx.recycle_insert(r);
        }
    }
    let insertion = WorkloadResult {
        ops: inserted.len() as u64,
        seconds: t0.elapsed().as_secs_f64(),
    };

    // ---- removal: every 4th inserted vertex (every 2nd in quick mode, so
    // the row is not a ~20 ms sample), same mesh ----
    let stride = if opts.quick { 2 } else { 4 };
    let t0 = Instant::now();
    let mut removed = 0u64;
    for v in inserted.iter().copied().step_by(stride) {
        if let Ok(r) = ctx.remove(v) {
            removed += 1;
            ctx.recycle_remove(r);
        }
    }
    let removal = WorkloadResult {
        ops: removed,
        seconds: t0.elapsed().as_secs_f64(),
    };

    let pred = ctx.take_pred_stats();
    let ss = ctx.take_scratch_stats();
    let footprint = ctx.scratch_footprint();

    // ---- refinement: the full pipeline on a phantom, one thread ----
    // The recorder-on/off comparison runs as back-to-back (on, off) pairs
    // after a discarded warmup and keeps the *median* pair by on/off ratio:
    // pairing makes slow scheduler/frequency drift hit both sides of each
    // ratio equally, and the median discards pairs a CPU hiccup skewed
    // either way. The flight-on number is the headline `refinement`
    // workload because the recorder is on in production.
    let delta = if opts.quick { 2.0 } else { 1.5 };
    let run_refinement = |flight: bool| -> WorkloadResult {
        let img = pi2m_image::phantoms::sphere(sphere_res, 1.0);
        let t0 = Instant::now();
        let out = Mesher::new(
            img,
            MesherConfig {
                delta,
                threads: 1,
                topology: MachineTopology::flat(1),
                flight,
                ..Default::default()
            },
        )
        .run();
        WorkloadResult {
            ops: out.mesh.num_tets() as u64,
            seconds: t0.elapsed().as_secs_f64(),
        }
    };
    let _warmup = run_refinement(true);
    let mut pairs: Vec<(WorkloadResult, WorkloadResult)> = (0..7)
        .map(|_| (run_refinement(true), run_refinement(false)))
        .collect();
    let ratio =
        |p: &(WorkloadResult, WorkloadResult)| p.0.ops_per_sec() / p.1.ops_per_sec().max(1e-12);
    pairs.sort_by(|p, q| ratio(p).total_cmp(&ratio(q)));
    let (flight_on, flight_off) = pairs[pairs.len() / 2];

    // ---- session: warm MeshingSession vs cold Mesher, identical input ----
    // Small input + several threads so per-run setup (thread spawn, arena /
    // grid / flight-ring allocation) is a visible slice of the wall time.
    // Runs are interleaved warm,cold,warm,cold,... so machine drift hits
    // both sides equally.
    let (session_runs, session_res, session_threads) =
        if opts.quick { (4, 12, 2) } else { (8, 16, 4) };
    let session_cfg = || MesherConfig {
        delta: 2.0,
        threads: session_threads,
        topology: MachineTopology::flat(session_threads),
        ..Default::default()
    };
    let mut session = MeshingSession::new(session_threads);
    // prime the pool so the first timed warm run is actually warm
    let _ = session
        .mesh(
            pi2m_image::phantoms::sphere(session_res, 1.0),
            session_cfg(),
        )
        .expect("session warmup run failed");
    let (mut warm_s, mut cold_s) = (0.0f64, 0.0f64);
    for _ in 0..session_runs {
        let img = pi2m_image::phantoms::sphere(session_res, 1.0);
        let t0 = Instant::now();
        let _ = session
            .mesh(img, session_cfg())
            .expect("warm session run failed");
        warm_s += t0.elapsed().as_secs_f64();

        let img = pi2m_image::phantoms::sphere(session_res, 1.0);
        let t0 = Instant::now();
        let _ = Mesher::new(img, session_cfg()).run();
        cold_s += t0.elapsed().as_secs_f64();
    }
    let session = SessionComparison {
        warm: WorkloadResult {
            ops: session_runs,
            seconds: warm_s,
        },
        cold: WorkloadResult {
            ops: session_runs,
            seconds: cold_s,
        },
    };

    KernelBenchReport {
        opts,
        insertion,
        removal,
        refinement: flight_on,
        parent: None,
        pred,
        scratch_reuses: ss.reuses,
        scratch_allocs: ss.allocs,
        scratch_footprint: footprint,
        flight: FlightOverhead {
            on: flight_on,
            off: flight_off,
        },
        session,
    }
}

/// Gate the flight-recorder cost: the refinement workload with the recorder
/// on must lose no more than `max_frac` of its recorder-off throughput.
/// Returns the human-readable comparison line; `Err` carries the same line
/// when the gate fails.
pub fn check_flight_overhead(report: &KernelBenchReport, max_frac: f64) -> Result<String, String> {
    let f = &report.flight;
    let line = format!(
        "flight overhead {:+.2}% (on {:.0} vs off {:.0} ops/s, gate {:.0}%)",
        f.overhead_frac() * 100.0,
        f.on.ops_per_sec(),
        f.off.ops_per_sec(),
        max_frac * 100.0
    );
    if f.overhead_frac() > max_frac {
        Err(line)
    } else {
        Ok(line)
    }
}

/// How many insertions one removal may cost before `--check` fails.
pub const REMOVAL_COST_GATE: f64 = 8.0;

/// Host-independent gate on the *shape* of the kernel: both rates come from
/// the same run on the same mesh, so their ratio does not move with the
/// machine. A removal retriangulates a ball about the size of an insertion's
/// cavity; one that costs more than [`REMOVAL_COST_GATE`] insertions is
/// doing per-operation work that does not belong there (it was ÷47 when
/// every removal rebuilt an auxiliary box triangulation). Returns the
/// comparison line; `Err` carries the same line when the gate fails.
pub fn check_removal_cost(report: &KernelBenchReport) -> Result<String, String> {
    let (ins, rem) = (report.insertion.ops_per_sec(), report.removal.ops_per_sec());
    let line = format!(
        "removal    {rem:>12.0} ops/s vs insertion {ins:>12.0} (one removal = {:.1} insertions, gate {REMOVAL_COST_GATE:.0})",
        ins / rem
    );
    if rem * REMOVAL_COST_GATE >= ins {
        Ok(line)
    } else {
        Err(line)
    }
}

/// Compare a fresh report against a checked-in baseline JSON: each workload's
/// `ops_per_sec` must be at least `(1 - tolerance)` of the baseline's.
/// Returns the human-readable comparison lines; `Err` lists the regressions.
pub fn check_against_baseline(
    report: &KernelBenchReport,
    baseline_json: &str,
    tolerance: f64,
) -> Result<Vec<String>, String> {
    let base = pi2m_obs::json::parse(baseline_json).map_err(|e| format!("bad baseline: {e}"))?;
    let workloads = base
        .get("workloads")
        .ok_or("baseline missing 'workloads'")?;
    let current = [
        ("insertion", report.insertion.ops_per_sec()),
        ("removal", report.removal.ops_per_sec()),
        ("refinement", report.refinement.ops_per_sec()),
    ];
    let mut lines = Vec::new();
    let mut regressions = Vec::new();
    for (name, now) in current {
        let Some(b) = workloads
            .get(name)
            .and_then(|w| w.get("ops_per_sec"))
            .and_then(Json::as_f64)
        else {
            return Err(format!("baseline missing workloads.{name}.ops_per_sec"));
        };
        let ratio = if b > 0.0 { now / b } else { f64::INFINITY };
        lines.push(format!(
            "{name:<10} {now:>12.0} ops/s vs baseline {b:>12.0} (x{ratio:.2})"
        ));
        if ratio < 1.0 - tolerance {
            regressions.push(format!(
                "{name}: {now:.0} ops/s is {:.0}% below baseline {b:.0}",
                (1.0 - ratio) * 100.0
            ));
        }
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

    fn tiny_report() -> KernelBenchReport {
        KernelBenchReport {
            opts: KernelBenchOpts {
                quick: true,
                seed: 1,
            },
            insertion: WorkloadResult {
                ops: 1000,
                seconds: 0.5,
            },
            removal: WorkloadResult {
                ops: 100,
                seconds: 0.25,
            },
            refinement: WorkloadResult {
                ops: 5000,
                seconds: 1.0,
            },
            parent: None,
            pred: FilterStats::default(),
            scratch_reuses: 10,
            scratch_allocs: 2,
            scratch_footprint: 1234,
            flight: FlightOverhead {
                on: WorkloadResult {
                    ops: 5000,
                    seconds: 1.01,
                },
                off: WorkloadResult {
                    ops: 5000,
                    seconds: 1.0,
                },
            },
            session: SessionComparison {
                warm: WorkloadResult {
                    ops: 8,
                    seconds: 1.9,
                },
                cold: WorkloadResult {
                    ops: 8,
                    seconds: 2.0,
                },
            },
        }
    }

    #[test]
    fn report_json_round_trips() {
        let r = tiny_report();
        let j = pi2m_obs::json::parse(&r.to_json_string()).unwrap();
        assert_eq!(j.get("schema_version").unwrap().as_f64(), Some(1.0));
        assert_eq!(
            j.get("workloads")
                .unwrap()
                .get("insertion")
                .unwrap()
                .get("ops_per_sec")
                .unwrap()
                .as_f64(),
            Some(2000.0)
        );
        assert_eq!(
            j.get("scratch")
                .unwrap()
                .get("allocs_avoided")
                .unwrap()
                .as_f64(),
            Some(10.0)
        );
    }

    #[test]
    fn parent_comparison_round_trips_with_speedup() {
        let mut r = tiny_report();
        r.parent = Some(ParentComparison {
            commit: "abc1234".into(),
            insertion_ops_per_sec: 1000.0,
            removal_ops_per_sec: None,
        });
        let j = pi2m_obs::json::parse(&r.to_json_string()).unwrap();
        let p = j.get("parent_comparison").expect("parent block");
        assert_eq!(p.get("commit").unwrap().as_str(), Some("abc1234"));
        // 1000 ops / 0.5 s = 2000 ops/s now vs 1000 then: 2x
        assert_eq!(p.get("insertion_speedup").unwrap().as_f64(), Some(2.0));
        assert!(p.get("removal_ops_per_sec").is_none());

        r.parent.as_mut().unwrap().removal_ops_per_sec = Some(40.0);
        let j = pi2m_obs::json::parse(&r.to_json_string()).unwrap();
        let p = j.get("parent_comparison").unwrap();
        // 100 ops / 0.25 s = 400 ops/s now vs 40 then: 10x
        assert_eq!(p.get("removal_ops_per_sec").unwrap().as_f64(), Some(40.0));
        assert_eq!(p.get("removal_speedup").unwrap().as_f64(), Some(10.0));
    }

    #[test]
    fn removal_cost_gate_is_a_ratio_within_one_run() {
        // 2000 insertions/s vs 400 removals/s: one removal = 5 insertions
        let mut r = tiny_report();
        assert!(check_removal_cost(&r).unwrap().contains("5.0 insertions"));
        // the pre-filler shape: one removal = 47 insertions
        r.removal.seconds = 0.25 * 47.0 / 5.0;
        let err = check_removal_cost(&r).unwrap_err();
        assert!(err.contains("47.0 insertions"), "{err}");
        // a uniformly slower host moves both rates, not the verdict
        r.removal.seconds = 0.25 * 10.0;
        r.insertion.seconds = 0.5 * 10.0;
        check_removal_cost(&r).unwrap();
    }

    #[test]
    fn flight_overhead_round_trips_and_gates() {
        let r = tiny_report();
        // 5000/1.01 vs 5000/1.0: ~0.99% overhead
        let frac = r.flight.overhead_frac();
        assert!(frac > 0.0 && frac < 0.02, "frac {frac}");
        let j = pi2m_obs::json::parse(&r.to_json_string()).unwrap();
        let fo = j.get("flight_overhead").expect("flight_overhead block");
        assert!(fo.get("on").unwrap().get("ops_per_sec").is_some());
        assert!(fo.get("off").unwrap().get("ops_per_sec").is_some());
        assert_eq!(fo.get("overhead_frac").unwrap().as_f64(), Some(frac));
        // within a 5% gate
        check_flight_overhead(&r, 0.05).unwrap();
        // a 10% slowdown trips the same gate
        let mut slow = tiny_report();
        slow.flight.on.seconds = 1.12;
        let err = check_flight_overhead(&slow, 0.05).unwrap_err();
        assert!(err.contains("flight overhead"), "{err}");
    }

    #[test]
    fn session_comparison_round_trips() {
        let r = tiny_report();
        // 8 runs / 1.9 s warm vs 8 / 2.0 s cold: 5% of a cold run saved
        let frac = r.session.setup_saving_frac();
        assert!((frac - 0.05).abs() < 1e-9, "frac {frac}");
        let j = pi2m_obs::json::parse(&r.to_json_string()).unwrap();
        let s = j.get("session").expect("session block");
        assert!(s.get("warm").unwrap().get("ops_per_sec").is_some());
        assert!(s.get("cold").unwrap().get("ops_per_sec").is_some());
        assert_eq!(s.get("setup_saving_frac").unwrap().as_f64(), Some(frac));
        // the baseline gate only reads the three kernel workloads, so a
        // baseline written before the session block existed still checks
        check_against_baseline(&r, "{\"workloads\": {\"insertion\": {\"ops_per_sec\": 2000.0}, \"removal\": {\"ops_per_sec\": 400.0}, \"refinement\": {\"ops_per_sec\": 5000.0}}}", 0.25).unwrap();
    }

    #[test]
    fn baseline_check_passes_within_tolerance() {
        let r = tiny_report();
        let baseline = r.to_json_string();
        let lines = check_against_baseline(&r, &baseline, 0.25).unwrap();
        assert_eq!(lines.len(), 3);
    }

    #[test]
    fn baseline_check_flags_regression() {
        let mut r = tiny_report();
        let baseline = r.to_json_string();
        // halve throughput: 50% below baseline, over the 25% tolerance
        r.insertion.seconds *= 2.0;
        let err = check_against_baseline(&r, &baseline, 0.25).unwrap_err();
        assert!(err.contains("insertion"), "{err}");
    }

    #[test]
    fn baseline_check_rejects_malformed() {
        let r = tiny_report();
        assert!(check_against_baseline(&r, "{}", 0.25).is_err());
        assert!(check_against_baseline(&r, "not json", 0.25).is_err());
    }

    #[test]
    fn quick_bench_runs_end_to_end() {
        // minimal smoke: the harness itself must complete and observe work
        let rep = run_kernel_bench(KernelBenchOpts {
            quick: true,
            seed: 7,
        });
        assert!(rep.insertion.ops > 3_000);
        assert!(rep.removal.ops > 100);
        assert!(rep.refinement.ops > 100);
        assert!(rep.pred.orient_total() > 0);
        assert!(rep.pred.insphere_total() > 0);
        assert!(
            rep.pred.orient_semi_static > rep.pred.orient_exact,
            "semi-static stage should dominate on generic input"
        );
        assert!(rep.scratch_reuses > rep.scratch_allocs);
        let j = pi2m_obs::json::parse(&rep.to_json_string()).unwrap();
        assert!(j.get("workloads").is_some());
    }
}
