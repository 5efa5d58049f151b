//! Golden-file style integration test of the observability exports: a real
//! (small) meshing run must produce a schema-valid JSON run report and a
//! loadable Chrome trace. Keys and structural invariants are asserted —
//! never float values, which vary run to run.

use pi2m::cli::{run_report, RunEnd};
use pi2m::image::phantoms;
use pi2m::obs::json::{self, Json};
use pi2m::obs::metrics;
use pi2m::obs::{render_chrome_trace, RunReport};
use pi2m::refine::{MesherConfig, MeshingSession};

/// The schema-8 run report's keys, in order: the envelope, then the run.
const REPORT_KEYS: &[&str] = &[
    "kind",
    "schema",
    "tool",
    "version",
    "git_describe",
    "config",
    "phases",
    "threads",
    "wall_s",
    "elements",
    "elements_per_second",
    "counters",
    "histograms",
    "contention",
    "time_attribution",
];

#[test]
fn real_run_produces_schema_valid_report_and_trace() {
    let cfg = MesherConfig {
        delta: 5.0,
        threads: 2,
        ..MesherConfig::default()
    };
    let threads = cfg.threads;
    let out = MeshingSession::new(threads)
        .mesh(phantoms::sphere(24, 1.0), cfg.clone())
        .unwrap();
    assert!(out.mesh.num_tets() > 0);

    // --- report: the CLI's one report builder ----------------------------
    let wall_s = out.stats.wall_time;
    let report = run_report("phantom:sphere", &cfg, RunEnd::Finished(&out), wall_s);
    let j = json::parse(&report.to_json_string()).expect("report is valid JSON");
    let Json::Obj(fields) = &j else {
        panic!("the report is not a JSON object");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, REPORT_KEYS);
    assert_eq!(j.get("kind").and_then(Json::as_str), Some("run_report"));
    assert_eq!(j.get("schema").and_then(Json::as_f64), Some(8.0));

    // phase timings present for the acceptance-criteria phases
    let phases = j.get("phases").unwrap();
    for phase in ["edt", "volume_refinement"] {
        let v = phases
            .get(phase)
            .unwrap_or_else(|| panic!("missing phase {phase}"));
        assert!(v.as_f64().unwrap() >= 0.0);
    }

    // counters mirror RefineStats exactly
    let counters = j.get("counters").unwrap();
    let counter = |name: &str| counters.get(name).and_then(Json::as_f64).unwrap_or(0.0) as u64;
    assert_eq!(counter("ops_total"), out.stats.total_operations());
    assert_eq!(counter("ops_rollbacks"), out.stats.total_rollbacks());

    // staged-predicate stage hits: every orient3d/insphere evaluation lands
    // in exactly one stage, and a generic run must certify the vast majority
    // in the semi-static stage
    let orient_total = counter("pred_orient_semi_static")
        + counter("pred_orient_filtered")
        + counter("pred_orient_exact");
    assert!(orient_total > 0, "no orient3d stage hits recorded");
    let insphere_total = counter("pred_insphere_semi_static")
        + counter("pred_insphere_filtered")
        + counter("pred_insphere_exact");
    assert!(insphere_total > 0, "no insphere stage hits recorded");
    assert!(
        counter("pred_orient_semi_static") + counter("pred_insphere_semi_static") > 0,
        "semi-static filter never fired on a generic run"
    );
    // scratch arenas: after warm-up nearly every op reuses buffers
    assert!(counter("scratch_reuses") > 0, "scratch arenas never reused");

    // each recorded histogram carries count/sum/buckets
    let hists = j.get("histograms").unwrap();
    let cavity = hists.get("cavity_cells").expect("cavity_cells histogram");
    for key in ["count", "sum", "max", "mean", "buckets"] {
        assert!(cavity.get(key).is_some(), "histogram missing {key}");
    }
    assert!(cavity.get("count").unwrap().as_f64().unwrap() > 0.0);

    // --- the one decomposition of worker time ----------------------------
    let at = j.get("time_attribution").unwrap();
    let workers = at.get("workers").unwrap().as_arr().unwrap();
    assert_eq!(workers.len(), threads, "one attribution row per worker");
    const CATEGORIES: &[&str] = &[
        "committed",
        "rolled_back",
        "cm_park",
        "beg_park",
        "steal_donate",
        "idle",
    ];
    let fractions = at.get("fractions").unwrap();
    for cat in CATEGORIES {
        let f = fractions.get(cat).and_then(Json::as_f64).unwrap();
        assert!((0.0..=1.0).contains(&f), "fraction {cat} = {f}");
    }
    // each worker's six fractions account for its full wall clock
    for w in workers {
        let wf = w.get("fractions").unwrap();
        let sum: f64 = CATEGORIES
            .iter()
            .map(|cat| wf.get(cat).and_then(Json::as_f64).unwrap())
            .sum();
        assert!((sum - 1.0).abs() < 1e-6, "worker fractions sum to {sum}");
    }
    // committed work splits by op kind (additive keys)
    let totals = at.get("totals").unwrap();
    let total = |k: &str| totals.get(k).and_then(Json::as_f64).unwrap();
    let (ins, rem) = (total("committed_insert_s"), total("committed_remove_s"));
    assert!(ins > 0.0, "a run commits insertions");
    assert!((ins + rem - total("committed_s")).abs() < 1e-9);
    // the contention section holds hot spots and the windowed series, no
    // second account of worker time
    let cont = j.get("contention").unwrap();
    for key in ["time_attribution", "workers", "speedup_self_report"] {
        assert!(cont.get(key).is_none(), "contention carries {key}");
    }
    assert!(cont.get("hot_vertices").is_some() && cont.get("windows").is_some());

    // --- Chrome trace: the CLI's --trace-out composition ------------------
    let trace = render_chrome_trace(&out.phases, &out.metrics.events, &out.flight);
    let t = json::parse(&trace).expect("trace is valid JSON");
    let evs = t.get("traceEvents").unwrap().as_arr().unwrap();

    let by = |ph: &'static str| {
        evs.iter()
            .filter(move |e| e.get("ph").and_then(Json::as_str) == Some(ph))
    };
    // thread_name metadata for the pipeline track and both workers
    assert!(by("M").count() > threads, "missing thread_name metadata");
    // at least one complete event per worker track (the lifetime events)
    for tid in 1..=threads as u64 {
        assert!(
            by("X").any(|e| e.get("tid").and_then(Json::as_f64) == Some(tid as f64)),
            "no events on worker track {tid}"
        );
    }
    // one attribution sample per worker, from the sums the drain appended
    assert_eq!(
        by("C").count(),
        threads,
        "one attribution sample per worker"
    );
    // no per-op slices: the logs hold conflicts, not operations
    assert!(!by("X").any(|e| e.get("name").and_then(Json::as_str) == Some("op")));
    // every complete event has non-negative microsecond timestamps
    for e in by("X") {
        assert!(e.get("ts").unwrap().as_f64().unwrap() >= 0.0);
        assert!(e.get("dur").unwrap().as_f64().unwrap() >= 0.0);
    }

    // the metrics snapshot that fed the report observed real work
    assert!(out.metrics.counter(metrics::OPS_INSERTIONS) > 0);
    assert_eq!(out.metrics.threads_merged as usize, threads + 1); // workers + pipeline
}

/// Reports written while `pi2m mesh` still sharded carry a `shard` section
/// (and `shards`/`halo` config keys) under the current schema number. The
/// section was always optional, so such a report still loads and renders:
/// the reader skips the key it no longer knows.
#[test]
fn a_report_with_an_old_shard_section_loads_and_renders() {
    use pi2m::obs::{load_artifact, render_summary};

    let mut report = RunReport::new("obs_report_test");
    report.config("shards", "2x2x1").config("halo", 3);
    report.threads = 2;
    report.wall_s = 1.0;
    report.elements = 1234;
    let Json::Obj(mut fields) = json::parse(&report.to_json_string()).unwrap() else {
        panic!("a run report is a JSON object");
    };
    let old = r#"{"grid": "2x2x1", "halo": 3, "lanes": 2, "seed_points": 400,
        "seed_duplicates": 2, "chunks": [{"index": [0, 0, 0], "tets": 100,
        "vertices": 60, "wall_s": 0.25}]}"#;
    fields.push(("shard".to_string(), json::parse(old).unwrap()));
    let text = Json::Obj(fields).dump_pretty();
    assert_eq!(
        json::parse(&text)
            .unwrap()
            .get("schema")
            .and_then(Json::as_f64),
        Some(f64::from(RunReport::SCHEMA_VERSION))
    );

    let art = load_artifact(&text).expect("a report with a shard section loads");
    let summary = render_summary(&art);
    assert!(
        summary.contains("config  : shards=2x2x1, halo=3"),
        "{summary}"
    );
    assert!(summary.contains("output  : 1234 elements"), "{summary}");
    assert!(!summary.contains("chunk"), "{summary}");
}
