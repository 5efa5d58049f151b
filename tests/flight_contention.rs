//! Golden-structure integration test of the flight recorder and contention
//! analyzer on real meshing runs. Structural invariants only — never float
//! values or exact counts, which vary with thread interleaving.

use pi2m::faults::{sites, FaultPlan};
use pi2m::image::phantoms;
use pi2m::obs::flight::EventKind;
use pi2m::obs::json::{self, Json};
use pi2m::obs::{analyze, attribute, AnalyzeOpts, Category, RunReport};
use pi2m::refine::{time_attribution, MeshOutput, MesherConfig, MeshingSession};
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
    "window_s",
    "windows",
];

fn run(threads: usize, res: usize) -> MeshOutput {
    run_with(threads, res, None)
}

fn run_with(threads: usize, res: usize, faults: Option<FaultPlan>) -> MeshOutput {
    let cfg = MesherConfig {
        delta: 2.0,
        threads,
        faults: faults.map(Arc::new),
        ..Default::default()
    };
    MeshingSession::new(cfg.threads)
        .mesh(phantoms::sphere(res, 1.0), cfg)
        .unwrap()
}

/// A seeded 2-thread run produces a contention section of exactly the
/// golden keys, whose totals agree with the engine's own counters.
#[test]
fn two_thread_run_produces_golden_contention_structure() {
    let out = run(2, 16);
    let report = analyze(
        &out.flight,
        AnalyzeOpts {
            threads: 2,
            wall_s: out.stats.wall_time,
            dropped: out.flight_dropped,
        },
    );

    let j = json::parse(&report.to_json().dump()).expect("contention report is valid JSON");
    let Json::Obj(fields) = &j else {
        panic!("the contention report is not a JSON object");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, CONTENTION_KEYS);

    // commits come from the workers' sums, whatever the logs kept; the
    // rollbacks from the logs agree with the engine when nothing dropped
    assert_eq!(report.commits, out.stats.total_operations());
    if out.flight_dropped == 0 {
        assert_eq!(report.rollbacks, out.stats.total_rollbacks());
    }
    assert!(report.commits > 0, "no commits summed");

    // time series: windows tile [0, wall] with rollbacks and lock wait
    let windows = j.get("windows").unwrap().as_arr().unwrap();
    assert!(!windows.is_empty(), "no time-series windows");
    for w in windows {
        let Json::Obj(fields) = w else {
            panic!("a window is not a JSON object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["t0_s", "rollbacks", "lock_wait_s", "lock_wait_fraction"]
        );
        assert!(w.get("t0_s").unwrap().as_f64().unwrap() >= 0.0);
    }

    // the section is wired into run reports as is
    let mut rr = RunReport::new("flight_contention_test");
    rr.contention = Some(report);
    let rj = json::parse(&rr.to_json_string()).unwrap();
    assert_eq!(
        rj.get("schema").unwrap().as_f64(),
        Some(RunReport::SCHEMA_VERSION as f64)
    );
    assert_eq!(rj.get("contention"), Some(&j));
}

/// On a contended >=4-thread run the analyzer must attribute rollbacks to
/// concrete hot vertices and grid regions (the acceptance criterion of the
/// contention-analysis work).
#[test]
fn four_thread_run_attributes_rollbacks() {
    // Four workers on a small sphere: maximal speculative contention. On
    // two cores the workers may still never collide, so a seeded plan also
    // denies every 400th lock acquisition (a few times per run): an
    // injected denial rolls back through the same path as a real conflict
    // and names the vertex it was taking, so every schedule has rollbacks
    // to attribute. The denial names the operating thread as the owner,
    // so the contention manager never parks on it.
    let plan = FaultPlan::parse(
        42,
        &format!("site={},kind=deny,every=400,count=6", sites::LOCK_ACQUIRE),
    )
    .unwrap();
    let out = run_with(4, 20, Some(plan));
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
    // each conflict is one rollback: it counts once among the hot vertices,
    // and a lock conflict is a rollback that was not injected
    let attributed: u64 = report.hot_vertices.iter().map(|&(_, n)| n).sum();
    assert!(attributed > 0 && attributed <= report.rollbacks);
    assert!(report.lock_conflicts <= report.rollbacks);
}

/// The run's attribution comes from the workers' own sums, and the drain
/// appends them to the flight log: folding that log gives the attribution
/// back per worker and bucket within a nanosecond (each sum travels as
/// whole nanoseconds), whatever the log capacity. A 64-event log wraps and
/// drops conflicts, never the sums. A recorder that is off logs nothing,
/// and the sums stay whole.
#[test]
fn worker_sums_equal_the_flight_fold() {
    let cfg = |flight: bool, flight_capacity: usize| MesherConfig {
        delta: 1.5,
        threads: 2,
        flight,
        flight_capacity,
        ..Default::default()
    };
    let covers_the_wall = |out: &MeshOutput| {
        let a = &out.attribution;
        assert_eq!(a.wall_s, out.stats.wall_time);
        assert_eq!(a.per_worker.len(), 2);
        for w in &a.per_worker {
            assert!(
                (w.total_s() - a.wall_s).abs() <= 1e-9 * a.wall_s,
                "worker {}: {} s of a {} s wall",
                w.tid,
                w.total_s(),
                a.wall_s
            );
        }
        assert!(a.total(Category::Committed) > 0.0);
        assert_eq!(
            out.attribution,
            time_attribution(&out.stats.per_thread, out.stats.wall_time)
        );
    };
    let fold_equals_the_sums = |out: &MeshOutput| {
        let fold = attribute(&out.flight, 2, out.stats.wall_time);
        for (sums, folded) in out.attribution.per_worker.iter().zip(&fold.per_worker) {
            let split = [
                ("insert", sums.committed_insert_s, folded.committed_insert_s),
                ("remove", sums.committed_remove_s, folded.committed_remove_s),
            ];
            let measured = Category::ALL
                .into_iter()
                .filter(|&c| c != Category::Idle)
                .map(|c| (c.key(), sums.get(c), folded.get(c)));
            for (key, s, f) in measured.chain(split) {
                assert!(
                    (s - f).abs() <= 1e-9,
                    "worker {} {key}: sums {s} vs fold {f}",
                    sums.tid
                );
            }
            // the residual takes the rounding of all six sums
            assert!((sums.idle_s - folded.idle_s).abs() <= 3e-9);
        }
    };
    let mut session = MeshingSession::new(2);
    for img in [phantoms::sphere(20, 1.0), phantoms::nested_spheres(20, 1.0)] {
        let out = session.mesh(img.clone(), cfg(true, 1 << 18)).unwrap();
        assert_eq!(out.flight_dropped, 0, "the log must hold the whole run");
        covers_the_wall(&out);
        fold_equals_the_sums(&out);

        // a 64-event log may wrap; the sums are not in it
        let out = session.mesh(img.clone(), cfg(true, 64)).unwrap();
        covers_the_wall(&out);
        fold_equals_the_sums(&out);

        // and with the recorder off
        let out = session.mesh(img, cfg(false, 64)).unwrap();
        assert!(out.flight.is_empty());
        covers_the_wall(&out);
    }
}

/// The recorder logs conflicts, not operations: a one-thread run has none
/// to log beyond its final begging episode, so its drained log, the six
/// sums included, holds at most a tenth of an event per operation.
#[test]
fn one_thread_log_holds_at_most_a_tenth_of_an_event_per_op() {
    let cfg = MesherConfig {
        delta: 1.5,
        threads: 1,
        ..Default::default()
    };
    let out = MeshingSession::new(1)
        .mesh(phantoms::nested_spheres(20, 1.0), cfg)
        .unwrap();
    let ops = out.stats.total_operations();
    assert_eq!(out.flight_dropped, 0);
    assert!(
        out.flight.len() as f64 <= 0.1 * ops as f64,
        "{} events for {ops} ops",
        out.flight.len()
    );
    let sums = out
        .flight
        .iter()
        .filter(|e| e.kind == EventKind::WorkerSums)
        .count();
    assert_eq!(sums, 6);
}
