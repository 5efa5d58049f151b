//! Golden-structure integration test of the flight recorder and contention
//! analyzer on real meshing runs. Structural invariants only — never float
//! values or exact counts, which vary with thread interleaving.

use pi2m::faults::{sites, FaultPlan};
use pi2m::image::phantoms;
use pi2m::obs::flight::EventKind;
use pi2m::obs::json;
use pi2m::obs::{analyze, AnalyzeOpts, RunReport};
use pi2m::refine::{BalancerKind, CmKind, MachineTopology, MesherConfig, MeshingSession};
use std::sync::Arc;

const CONTENTION_KEYS: &[&str] = &[
    "total_events",
    "dropped_events",
    "commits",
    "rollbacks",
    "lock_conflicts",
    "rollback_ratio",
    "hot_vertices",
    "hot_regions",
    "workers",
    "window_s",
    "windows",
    "speedup_self_report",
];

fn run(threads: usize, cm: CmKind, res: usize) -> pi2m::refine::MeshOutput {
    run_with(threads, cm, res, None)
}

fn run_with(
    threads: usize,
    cm: CmKind,
    res: usize,
    faults: Option<FaultPlan>,
) -> pi2m::refine::MeshOutput {
    let cfg = MesherConfig {
        delta: 2.0,
        threads,
        cm,
        balancer: BalancerKind::Rws,
        topology: MachineTopology::flat(threads),
        faults: faults.map(Arc::new),
        ..Default::default()
    };
    MeshingSession::new(cfg.threads)
        .mesh(phantoms::sphere(res, 1.0), cfg)
        .unwrap()
}

/// A seeded 2-thread run produces a structurally complete contention section
/// whose totals agree with the engine's own counters.
#[test]
fn two_thread_run_produces_golden_contention_structure() {
    let out = run(2, CmKind::Local, 16);
    let report = analyze(
        &out.flight,
        AnalyzeOpts {
            threads: 2,
            wall_s: out.stats.wall_time,
            dropped: out.flight_dropped,
            ..Default::default()
        },
    );

    let j = json::parse(&report.to_json().dump()).expect("contention report is valid JSON");
    for key in CONTENTION_KEYS {
        assert!(j.get(key).is_some(), "contention report missing key {key}");
    }

    // totals agree with the engine's own accounting when nothing dropped
    if out.flight_dropped == 0 {
        assert_eq!(report.commits, out.stats.total_operations());
        assert_eq!(report.rollbacks, out.stats.total_rollbacks());
    }
    assert_eq!(report.per_worker.len(), 2);
    for (t, w) in report.per_worker.iter().enumerate() {
        assert_eq!(w.tid as usize, t);
        assert!(!w.died);
    }
    assert!(report.busy_s() > 0.0, "no busy time attributed");
    assert!(
        report.effective_parallelism() > 0.0 && report.effective_parallelism() <= 2.1,
        "effective parallelism {} out of range",
        report.effective_parallelism()
    );

    // time series: windows tile [0, wall] with non-negative counts
    let windows = j.get("windows").unwrap().as_arr().unwrap();
    assert!(!windows.is_empty(), "no time-series windows");
    for w in windows {
        for key in [
            "t0_s",
            "commits",
            "rollbacks",
            "rollback_ratio",
            "lock_wait_s",
        ] {
            assert!(w.get(key).is_some(), "window missing {key}");
        }
        assert!(w.get("t0_s").unwrap().as_f64().unwrap() >= 0.0);
    }

    // the speedup self-report is wired into schema-v2 run reports
    let mut rr = RunReport::new("flight_contention_test");
    rr.contention = Some(report);
    let rj = json::parse(&rr.to_json_string()).unwrap();
    assert_eq!(
        rj.get("schema_version").unwrap().as_f64(),
        Some(RunReport::SCHEMA_VERSION as f64)
    );
    let c = rj.get("contention").expect("schema v2 contention section");
    let s = c.get("speedup_self_report").unwrap();
    for key in [
        "busy_s",
        "wall_s",
        "effective_parallelism",
        "utilization",
        "lock_wait_fraction",
    ] {
        assert!(s.get(key).is_some(), "speedup self-report missing {key}");
    }
}

/// On a contended >=4-thread run the analyzer must attribute rollbacks to
/// concrete hot vertices and grid regions (the acceptance criterion of the
/// contention-analysis work).
#[test]
fn four_thread_run_attributes_rollbacks() {
    // Aggressive CM on a small sphere: maximal speculative contention. On
    // two cores the four workers may still never collide, so a seeded plan
    // also denies every 400th lock acquisition (a few times per run): an
    // injected denial rolls back through the same path as a real conflict
    // and names the vertex it was taking, so every schedule has rollbacks
    // to attribute.
    let plan = FaultPlan::parse(
        42,
        &format!("site={},kind=deny,every=400,count=6", sites::LOCK_ACQUIRE),
    )
    .unwrap();
    let out = run_with(4, CmKind::Aggressive, 20, Some(plan));
    assert!(
        out.stats.total_rollbacks() > 0,
        "no contention generated — test workload too easy"
    );
    let report = analyze(
        &out.flight,
        AnalyzeOpts {
            threads: 4,
            wall_s: out.stats.wall_time,
            dropped: out.flight_dropped,
            ..Default::default()
        },
    );
    assert!(report.rollbacks > 0);
    assert!(
        !report.hot_vertices.is_empty(),
        "rollback attribution empty despite {} rollbacks",
        report.rollbacks
    );
    assert!(!report.hot_regions.is_empty(), "no hot regions attributed");
    // attribution is ranked
    for pair in report.hot_vertices.windows(2) {
        assert!(pair[0].1 >= pair[1].1, "hot vertices not sorted");
    }
    // every rollback in the log names a conflicting vertex
    let named = out
        .flight
        .iter()
        .filter(|e| e.kind == EventKind::Rollback)
        .count() as u64;
    assert_eq!(named, report.rollbacks);
    let attributed: u64 = report.hot_vertices.iter().map(|&(_, n)| n).sum();
    assert!(attributed > 0 && attributed <= report.rollbacks + report.lock_conflicts);
}
