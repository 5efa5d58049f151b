//! `pi2m` — command-line Image-to-Mesh conversion.
//!
//! ```text
//! pi2m mesh   <input.pim|phantom:NAME> [-o out.vtk] [--delta D] [--threads N]
//!             [--cm aggressive|random|global|local] [--balancer rws|hws]
//!             [--no-removals] [--size S] [--off out.off] [--stats]
//!             [--report run.json] [--trace-out trace.json] [--metrics]
//!             [--audit] [--live[=INTERVAL]] [--contention-out c.json]
//!             [--no-flight] [--force] [--deadline DUR]
//!             [--shards AxBxC [--halo N]]
//!             (a run killed by --deadline still writes its --report /
//!             --contention-out / --trace-out artifacts; --shards meshes
//!             the image as a grid of overlapping chunks and stitches the
//!             seams — see README "Sharded meshing")
//! pi2m batch  <inputs...> [--outdir DIR] [--keep-going] [--reports]
//!             [mesh options]
//!             mesh several inputs sequentially over ONE warm session
//!             (threads, kernel arenas, flight rings, and the proximity
//!             grid are reused run-to-run); --reports adds one
//!             <stem>.report.json per job next to its mesh
//! pi2m phantom <name> <out.pim> [--scale S]    generate a phantom image
//! pi2m info   <input.pim>                      print image metadata
//! pi2m bench  [--quick] [--seed N] [--out BENCH_kernel.json]
//!             [--check baseline.json] [--tolerance 0.25]
//!             [--flight-gate FRAC]
//!             [--parent-commit HASH --parent-insertion OPS_PER_SEC
//!              [--parent-removal OPS_PER_SEC]]  kernel benchmark harness;
//!             --check also gates removal ops/s >= insertion ops/s / 8
//! pi2m analyze <artifact.json> [new.json]      offline artifact inspection:
//!             one file renders its attribution/hot-spot summary; two files
//!             diff the runs and attribute the regression to a waste category
//! pi2m serve  [--addr HOST:PORT] [--sessions N] [--threads N]
//!             [--queue-cap N] [--spool DIR] [--default-deadline DUR]
//!             [--max-retries N] [--drain-grace DUR] [--log[=PATH]]
//!             long-running meshing service: submit jobs over HTTP
//!             (POST /jobs), poll (GET /jobs/job-N), fetch artifacts and
//!             per-job traces (GET /jobs/job-N/trace), scrape /metrics;
//!             SIGTERM drains gracefully
//! pi2m --version                               crate + schema versions
//! ```
//!
//! Every command logs through a structured journal. Interactive commands
//! print human lines on stderr as before; `pi2m serve` emits JSONL.
//! `--log` forces JSONL on stderr, `--log=PATH` appends JSONL to a file
//! (`PI2M_LOG` is the env equivalent), and `PI2M_LOG_LEVEL`
//! (debug|info|warn|error) sets the minimum level.
//!
//! Input images use the `.pim` format (see `pi2m::image::io`); `phantom:NAME`
//! meshes a built-in phantom directly (sphere, nested, torus, abdominal,
//! knee, head-neck).
//!
//! Failures exit with a typed code (see [`pi2m::cli::CliError`]): 1 generic,
//! 3 cancelled (deadline), 4 I/O, 5 integrity, 6 worker loss.

use pi2m::cli::{parse_args, parse_duration, write_new, Args, CliError};
use pi2m::image::{io as img_io, phantoms, LabeledImage};
use pi2m::meshio;
use pi2m::obs::journal::{Journal, Level};
use pi2m::obs::json::Json;
use pi2m::obs::metrics::ObsEvent;
use pi2m::obs::{
    analyze, render_chrome_trace_with_flight, render_prometheus, AnalyzeOpts, OverheadBreakdown,
    RunReport,
};
use pi2m::quality;
use pi2m::refine::{
    BalancerKind, CancelTelemetry, CancelToken, CmKind, MeshOutput, MesherConfig, MeshingSession,
    OverheadKind, RunOptions,
};
use std::io::BufWriter;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

fn load_input(spec: &str) -> Result<LabeledImage, String> {
    if let Some(name) = spec.strip_prefix("phantom:") {
        phantoms::by_name(name, 1.0).ok_or_else(|| format!("unknown phantom '{name}'"))
    } else {
        img_io::load(spec).map_err(|e| format!("cannot read {spec}: {e}"))
    }
}

/// Build a command's journal from `--log[=PATH]`, `PI2M_LOG`, and
/// `PI2M_LOG_LEVEL`. With none of them set, interactive commands keep
/// their human stderr lines (`default_jsonl = false`); the serve daemon
/// defaults to JSONL so its stderr is machine-parseable end to end.
fn init_journal(args: &Args, default_jsonl: bool) -> Result<Arc<Journal>, String> {
    let min = match std::env::var("PI2M_LOG_LEVEL") {
        Ok(v) => Level::parse(&v)
            .ok_or_else(|| format!("bad PI2M_LOG_LEVEL '{v}' (expected debug|info|warn|error)"))?,
        Err(_) => Level::Info,
    };
    let spec: Option<String> = if let Some(path) = args.flags.get("log") {
        Some(path.clone())
    } else if args.switches.contains("log") {
        Some(String::new()) // bare --log: JSONL on stderr
    } else {
        std::env::var("PI2M_LOG").ok()
    };
    Journal::from_spec(spec.as_deref(), min, default_jsonl)
}

/// Mesh options shared by `pi2m mesh` and `pi2m batch`, parsed once. `delta`
/// stays optional here because its default depends on each input image's
/// voxel spacing.
struct MeshOpts {
    delta: Option<f64>,
    threads: usize,
    cm: CmKind,
    balancer: BalancerKind,
    size_fn: Option<Arc<dyn pi2m::oracle::SizeFn>>,
    enable_removals: bool,
    force: bool,
    live: Option<f64>,
    trace: bool,
    flight: bool,
    faults: Option<Arc<pi2m::faults::FaultPlan>>,
}

fn parse_mesh_opts(args: &Args, journal: &Journal) -> Result<MeshOpts, String> {
    let delta = args
        .flags
        .get("delta")
        .map(|v| v.parse().map_err(|_| "bad --delta"))
        .transpose()?;
    let threads: usize = args
        .flags
        .get("threads")
        .map(|v| v.parse().map_err(|_| "bad --threads"))
        .transpose()?
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
    let cm = match args.flags.get("cm").map(String::as_str) {
        None | Some("local") => CmKind::Local,
        Some("global") => CmKind::Global,
        Some("random") => CmKind::Random,
        Some("aggressive") => CmKind::Aggressive,
        Some(other) => return Err(format!("unknown --cm '{other}'")),
    };
    let balancer = match args.flags.get("balancer").map(String::as_str) {
        None | Some("hws") => BalancerKind::Hws,
        Some("rws") => BalancerKind::Rws,
        Some(other) => return Err(format!("unknown --balancer '{other}'")),
    };
    let size_fn = args
        .flags
        .get("size")
        .map(|v| -> Result<_, String> {
            let s: f64 = v.parse().map_err(|_| "bad --size")?;
            Ok(Arc::new(pi2m::oracle::UniformSize(s)) as Arc<dyn pi2m::oracle::SizeFn>)
        })
        .transpose()?;
    let live = if let Some(v) = args.flags.get("live") {
        Some(parse_duration(v).map_err(|e| format!("bad --live interval: {e}"))?)
    } else if args.switches.contains("live") {
        Some(1.0)
    } else {
        None
    };
    // Deterministic fault injection (testing): armed only when the
    // PI2M_FAULT_PLAN / PI2M_FAULT_SEED environment variables are set.
    let faults = pi2m::faults::FaultPlan::from_env()
        .map_err(|e| format!("bad fault plan: {e}"))?
        .map(Arc::new);
    if let Some(f) = &faults {
        journal.info(
            "faults.armed",
            &[
                (
                    "msg",
                    Json::str(format!("fault injection armed: {}", f.describe())),
                ),
                ("plan", Json::str(f.describe())),
            ],
        );
    }
    Ok(MeshOpts {
        delta,
        threads,
        cm,
        balancer,
        size_fn,
        enable_removals: !args.switches.contains("no-removals"),
        force: args.switches.contains("force"),
        live,
        // per-episode overhead events are needed for the Chrome trace
        trace: args.flags.contains_key("trace-out"),
        flight: !args.switches.contains("no-flight"),
        faults,
    })
}

fn config_for(o: &MeshOpts, img: &LabeledImage) -> MesherConfig {
    MesherConfig {
        delta: o.delta.unwrap_or(2.0 * img.min_spacing()),
        threads: o.threads,
        cm: o.cm,
        balancer: o.balancer,
        size_fn: o.size_fn.clone(),
        enable_removals: o.enable_removals,
        faults: o.faults.clone(),
        topology: pi2m::refine::MachineTopology::flat(o.threads),
        trace: o.trace,
        flight: o.flight,
        live: o.live,
        ..Default::default()
    }
}

fn write_vtk(out: &MeshOutput, path: &str, journal: &Journal) -> Result<(), String> {
    let f = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
    meshio::write_vtk(&out.mesh, &mut BufWriter::new(f)).map_err(|e| e.to_string())?;
    wrote(journal, path);
    Ok(())
}

/// The `wrote <path>` artifact confirmation, as a journal event.
fn wrote(journal: &Journal, path: &str) {
    journal.info(
        "artifact.written",
        &[
            ("msg", Json::str(format!("wrote {path}"))),
            ("path", Json::str(path)),
        ],
    );
}

fn cmd_mesh(args: &Args) -> Result<(), CliError> {
    let input = args
        .positional
        .get(1)
        .ok_or("usage: pi2m mesh <input.pim|phantom:NAME> [options]")?;
    let img = load_input(input).map_err(CliError::Io)?;
    let journal = init_journal(args, false)?;
    let o = parse_mesh_opts(args, &journal)?;
    let cfg = config_for(&o, &img);
    let (delta, threads, cm, balancer, force) = (cfg.delta, o.threads, o.cm, o.balancer, o.force);

    journal.info(
        "mesh.start",
        &[
            (
                "msg",
                Json::str(format!(
                    "meshing {input}: δ={delta}, {threads} threads, {cm:?}-CM, {balancer:?}"
                )),
            ),
            ("input", Json::str(input)),
            ("delta", Json::num(delta)),
            ("threads", Json::int(threads as u64)),
        ],
    );
    let mut session = MeshingSession::new(threads);
    let run_opts = RunOptions {
        cancel: args
            .flags
            .get("deadline")
            .map(|v| -> Result<_, String> {
                let secs = parse_duration(v).map_err(|e| format!("bad --deadline: {e}"))?;
                Ok(CancelToken::with_deadline(
                    std::time::Duration::from_secs_f64(secs),
                ))
            })
            .transpose()?,
        on_stage: None,
    };
    let shard_spec = args
        .flags
        .get("shards")
        .map(|v| -> Result<pi2m::refine::ShardSpec, String> {
            let grid = pi2m::refine::parse_shard_grid(v).map_err(|e| e.to_string())?;
            let halo = args
                .flags
                .get("halo")
                .map(|h| h.parse().map_err(|_| "bad --halo".to_string()))
                .transpose()?;
            Ok(pi2m::refine::ShardSpec {
                grid,
                halo,
                lanes: None,
            })
        })
        .transpose()?;

    let t0 = Instant::now();
    let (out, shard) = if let Some(spec) = &shard_spec {
        match pi2m::refine::mesh_sharded(&mut session, img, cfg, &run_opts, spec) {
            Ok(run) => {
                journal.info(
                    "mesh.sharded",
                    &[
                        (
                            "msg",
                            Json::str(format!(
                                "sharded: {} chunks over {} lane(s), halo {} voxels, {} seed \
                                 vertices ({} duplicates dropped)",
                                run.chunks.len(),
                                run.lanes,
                                run.halo,
                                run.seed_points,
                                run.seed_duplicates
                            )),
                        ),
                        ("chunks", Json::int(run.chunks.len() as u64)),
                        ("lanes", Json::int(run.lanes as u64)),
                        ("halo", Json::int(run.halo as u64)),
                    ],
                );
                let section = pi2m::obs::ShardSection {
                    grid: format!("{}x{}x{}", run.grid[0], run.grid[1], run.grid[2]),
                    halo: run.halo,
                    lanes: run.lanes,
                    seed_points: run.seed_points,
                    seed_duplicates: run.seed_duplicates,
                    chunks: run
                        .chunks
                        .iter()
                        .map(|c| pi2m::obs::ShardChunk {
                            index: c.index,
                            tets: c.tets,
                            vertices: c.vertices,
                            wall_s: c.wall_s,
                        })
                        .collect(),
                };
                (run.out, Some(section))
            }
            Err(pi2m::refine::ShardError::Run(pi2m::refine::RefineError::Cancelled)) => {
                write_cancelled_artifacts(
                    args,
                    input,
                    &o,
                    delta,
                    threads,
                    session.take_cancel_telemetry(),
                    &journal,
                )?;
                return Err(CliError::Cancelled(
                    "run cancelled (deadline); observability artifacts written".into(),
                ));
            }
            Err(pi2m::refine::ShardError::Run(e)) => return Err(CliError::from_refine(&e)),
            Err(e) => return Err(CliError::Generic(e.to_string())),
        }
    } else {
        match session.mesh_with(img, cfg, &run_opts) {
            Ok(out) => (out, None),
            Err(pi2m::refine::RefineError::Cancelled) => {
                // a killed run still reports: write the observability artifacts
                // from the telemetry salvaged at the cancellation point
                write_cancelled_artifacts(
                    args,
                    input,
                    &o,
                    delta,
                    threads,
                    session.take_cancel_telemetry(),
                    &journal,
                )?;
                return Err(CliError::Cancelled(
                    "run cancelled (deadline); observability artifacts written".into(),
                ));
            }
            Err(e) => return Err(CliError::from_refine(&e)),
        }
    };
    let dt = t0.elapsed().as_secs_f64();
    journal.info(
        "mesh.result",
        &[
            (
                "msg",
                Json::str(format!(
                    "{} tets / {} points in {:.2}s ({:.0} elements/s), {} rollbacks, {} removals",
                    out.mesh.num_tets(),
                    out.mesh.num_points(),
                    dt,
                    out.mesh.num_tets() as f64 / dt,
                    out.stats.total_rollbacks(),
                    out.stats.total_removals()
                )),
            ),
            ("tets", Json::int(out.mesh.num_tets() as u64)),
            ("points", Json::int(out.mesh.num_points() as u64)),
            ("wall_s", Json::num(dt)),
        ],
    );
    if out.stats.total_panics() > 0 || out.stats.workers_died > 0 {
        journal.warn(
            "mesh.recovered",
            &[
                (
                    "msg",
                    Json::str(format!(
                        "recovered: {} op panics, {} quarantined, {} recovery rollbacks, \
                         {} workers died",
                        out.stats.total_panics(),
                        out.stats.total_quarantined(),
                        out.stats.total_recovery_rollbacks(),
                        out.stats.workers_died
                    )),
                ),
                ("panics", Json::int(out.stats.total_panics())),
                ("workers_died", Json::int(out.stats.workers_died as u64)),
            ],
        );
    }

    if args.switches.contains("audit") {
        let report = pi2m::refine::audit_mesh(&out.shared, 42);
        journal.info(
            "mesh.audit",
            &[
                ("msg", Json::str(report.summary().trim_end())),
                ("violations", Json::int(report.violations.len() as u64)),
            ],
        );
        if !report.clean() {
            return Err(CliError::Integrity(format!(
                "mesh integrity audit failed with {} violation(s)",
                report.violations.len()
            )));
        }
    }

    if args.switches.contains("stats") {
        let q = quality::mesh_quality(&out.mesh);
        let b = quality::boundary_report(&out.mesh);
        let tris = out.mesh.boundary_triangles();
        let hd = quality::hausdorff_distance(&out.mesh.points, &tris, &out.oracle, 7);
        journal.info(
            "mesh.quality",
            &[
                (
                    "msg",
                    Json::str(format!(
                        "quality: max radius-edge {:.3}, dihedral ({:.1}°,{:.1}°), \
                         min boundary angle {:.1}°, Hausdorff {:.3}",
                        q.max_radius_edge,
                        q.min_dihedral_deg,
                        q.max_dihedral_deg,
                        b.min_planar_angle_deg,
                        hd
                    )),
                ),
                ("max_radius_edge", Json::num(q.max_radius_edge)),
                ("hausdorff", Json::num(hd)),
            ],
        );
    }

    // --- observability exports -------------------------------------------
    // Contention analysis from the flight-recorder log (empty when the
    // recorder was off: the report section is then all zeros).
    let contention = analyze(
        &out.flight,
        AnalyzeOpts {
            threads,
            wall_s: out.stats.wall_time,
            dropped: out.flight_dropped,
            ..Default::default()
        },
    );
    if let Some(path) = args.flags.get("contention-out") {
        write_new(path, &(contention.to_json().dump_pretty() + "\n"), force)
            .map_err(CliError::Io)?;
        wrote(&journal, path);
    }
    if args.flags.contains_key("report")
        || args.flags.contains_key("trace-out")
        || args.switches.contains("metrics")
    {
        let mut report = build_run_report(input, &o, delta, threads, &out, dt, &contention);
        if let Some(s) = &shard {
            report.config("shards", &s.grid).config("halo", s.halo);
            report.shard = Some(s.clone());
        }

        if let Some(path) = args.flags.get("report") {
            write_new(path, &report.to_json_string(), force).map_err(CliError::Io)?;
            wrote(&journal, path);
        }
        if let Some(path) = args.flags.get("trace-out") {
            // worker lifetime events are already in the run time base;
            // overhead episodes carry refinement-clock stamps and shift by
            // the recorded origin.
            let mut events = out.metrics.events.clone();
            for ev in out.stats.merged_trace() {
                let name = match ev.kind {
                    OverheadKind::Contention => "contention",
                    OverheadKind::LoadBalance => "load_balance",
                    OverheadKind::Rollback => "rollback",
                };
                events.push((
                    ev.tid,
                    ObsEvent {
                        name,
                        cat: "overhead",
                        at_s: out.stats.trace_origin + ev.at,
                        dur_s: ev.dur,
                    },
                ));
            }
            write_new(
                path,
                &render_chrome_trace_with_flight(&out.phases, &events, &out.flight),
                force,
            )
            .map_err(CliError::Io)?;
            wrote(&journal, path);
        }
        if args.switches.contains("metrics") {
            print!("{}", render_prometheus(&report));
        }
    }

    let out_path = args
        .flags
        .get("o")
        .cloned()
        .unwrap_or_else(|| "mesh.vtk".into());
    write_vtk(&out, &out_path, &journal).map_err(CliError::Io)?;
    if let Some(off) = args.flags.get("off") {
        let f = std::fs::File::create(off).map_err(|e| CliError::Io(format!("{off}: {e}")))?;
        meshio::write_off(&out.mesh, &mut BufWriter::new(f))
            .map_err(|e| CliError::Io(e.to_string()))?;
        wrote(&journal, off);
    }
    Ok(())
}

/// Assemble the schema-v3 run report for one finished run — shared by
/// `pi2m mesh --report` and the per-job reports of `pi2m batch --reports`.
fn build_run_report(
    input: &str,
    o: &MeshOpts,
    delta: f64,
    threads: usize,
    out: &MeshOutput,
    wall_s: f64,
    contention: &pi2m::obs::ContentionReport,
) -> RunReport {
    let mut report = RunReport::new("pi2m");
    report
        .config("input", input)
        .config("delta", delta)
        .config("threads", threads)
        .config("cm", format!("{:?}", o.cm))
        .config("balancer", format!("{:?}", o.balancer))
        .config("enable_removals", o.enable_removals);
    report.set_phases(&out.phases);
    report.overheads = OverheadBreakdown {
        contention_s: out.stats.contention_overhead(),
        load_balance_s: out.stats.load_balance_overhead(),
        rollback_s: out.stats.rollback_overhead(),
        rollbacks: out.stats.total_rollbacks(),
        livelock: out.stats.livelock,
    };
    report.threads = threads;
    report.wall_s = wall_s;
    report.elements = out.mesh.num_tets() as u64;
    report.metrics = out.metrics.clone();
    report.attribution = Some(contention.attribution.clone());
    report.contention = Some(contention.clone());
    report
}

/// Honor `--contention-out` / `--report` / `--trace-out` for a run that was
/// cancelled, using the telemetry the session salvaged at the cancellation
/// point (`None` / empty when the run died before refinement started — the
/// artifacts are then structurally complete but all-zero).
fn write_cancelled_artifacts(
    args: &Args,
    input: &str,
    o: &MeshOpts,
    delta: f64,
    threads: usize,
    tel: Option<CancelTelemetry>,
    journal: &Journal,
) -> Result<(), String> {
    let wrote_cancelled = |path: &str| {
        journal.info(
            "artifact.written",
            &[
                ("msg", Json::str(format!("wrote {path} (cancelled run)"))),
                ("path", Json::str(path)),
                ("cancelled", Json::Bool(true)),
            ],
        );
    };
    let tel = tel.unwrap_or_else(|| CancelTelemetry {
        flight: Vec::new(),
        flight_dropped: 0,
        metrics: pi2m::obs::MetricsSnapshot::new(),
        phases: Vec::new(),
        wall_s: 0.0,
        threads,
    });
    let contention = analyze(
        &tel.flight,
        AnalyzeOpts {
            threads: tel.threads,
            wall_s: tel.wall_s,
            dropped: tel.flight_dropped,
            ..Default::default()
        },
    );
    if let Some(path) = args.flags.get("contention-out") {
        write_new(path, &(contention.to_json().dump_pretty() + "\n"), o.force)?;
        wrote_cancelled(path);
    }
    if args.flags.contains_key("report") || args.flags.contains_key("trace-out") {
        let mut report = RunReport::new("pi2m");
        report
            .config("input", input)
            .config("delta", delta)
            .config("threads", threads)
            .config("cm", format!("{:?}", o.cm))
            .config("balancer", format!("{:?}", o.balancer))
            .config("cancelled", true);
        report.set_phases(&tel.phases);
        report.threads = tel.threads;
        report.wall_s = tel.wall_s;
        report.metrics = tel.metrics;
        // the usual per-thread overhead stats died with the run; the flight
        // log still knows how many operations were rolled back
        report.overheads.rollbacks = contention.rollbacks;
        report.attribution = Some(contention.attribution.clone());
        report.contention = Some(contention);
        if let Some(path) = args.flags.get("report") {
            write_new(path, &report.to_json_string(), o.force)?;
            wrote_cancelled(path);
        }
        if let Some(path) = args.flags.get("trace-out") {
            write_new(
                path,
                &render_chrome_trace_with_flight(&tel.phases, &report.metrics.events, &tel.flight),
                o.force,
            )?;
            wrote_cancelled(path);
        }
    }
    Ok(())
}

/// The output stem for one batch input: `phantom:torus` → `torus`,
/// `scans/knee.pim` → `knee`.
fn batch_stem(input: &str) -> String {
    match input.strip_prefix("phantom:") {
        Some(name) => name.to_string(),
        None => std::path::Path::new(input)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "mesh".into()),
    }
}

/// The output filename for one batch input: `phantom:torus` → `torus.vtk`,
/// `scans/knee.pim` → `knee.vtk`.
fn batch_output_name(input: &str) -> String {
    format!("{}.vtk", batch_stem(input))
}

/// `pi2m batch`: mesh every input sequentially over ONE warm
/// [`MeshingSession`] — worker threads, kernel scratch arenas, flight rings,
/// and the proximity grid are created once and reused run-to-run instead of
/// being torn down after every image like repeated `pi2m mesh` calls.
fn cmd_batch(args: &Args) -> Result<(), CliError> {
    let inputs = &args.positional[1..];
    if inputs.is_empty() {
        return Err(
            "usage: pi2m batch <inputs...> [--outdir DIR] [--keep-going] [--reports] \
             [mesh options]"
                .into(),
        );
    }
    let journal = init_journal(args, false)?;
    let o = parse_mesh_opts(args, &journal)?;
    let keep_going = args.switches.contains("keep-going");
    let write_reports = args.switches.contains("reports");
    let outdir = std::path::PathBuf::from(
        args.flags
            .get("outdir")
            .cloned()
            .unwrap_or_else(|| ".".into()),
    );
    std::fs::create_dir_all(&outdir)
        .map_err(|e| CliError::Io(format!("{}: {e}", outdir.display())))?;

    let mut session = MeshingSession::new(o.threads);
    let t_all = Instant::now();
    let (mut done, mut tets) = (0usize, 0u64);
    let mut failures: Vec<(String, CliError)> = Vec::new();
    for (i, input) in inputs.iter().enumerate() {
        let mut run = || -> Result<(), CliError> {
            let path = outdir.join(batch_output_name(input));
            let path = path.to_string_lossy().into_owned();
            if !o.force && std::path::Path::new(&path).exists() {
                return Err(CliError::Io(format!(
                    "{path} already exists; pass --force to overwrite it"
                )));
            }
            // fail the clobber check BEFORE meshing, not after the work
            let rpath = outdir.join(format!("{}.report.json", batch_stem(input)));
            let rpath = rpath.to_string_lossy().into_owned();
            if write_reports && !o.force && std::path::Path::new(&rpath).exists() {
                return Err(CliError::Io(format!(
                    "{rpath} already exists; pass --force to overwrite it"
                )));
            }
            let img = load_input(input).map_err(CliError::Io)?;
            let cfg = config_for(&o, &img);
            let delta = cfg.delta;
            let t0 = Instant::now();
            let out = session
                .mesh(img, cfg)
                .map_err(|e| CliError::from_refine(&e))?;
            let dt = t0.elapsed().as_secs_f64();
            journal.info(
                "batch.job",
                &[
                    (
                        "msg",
                        Json::str(format!(
                            "[{}/{}] {input}: δ={delta}, {} tets in {dt:.2}s ({:.0} elements/s)",
                            i + 1,
                            inputs.len(),
                            out.mesh.num_tets(),
                            out.mesh.num_tets() as f64 / dt,
                        )),
                    ),
                    ("input", Json::str(input.as_str())),
                    ("tets", Json::int(out.mesh.num_tets() as u64)),
                    ("wall_s", Json::num(dt)),
                ],
            );
            tets += out.mesh.num_tets() as u64;
            write_vtk(&out, &path, &journal).map_err(CliError::Io)?;
            if write_reports {
                // one schema-v3 run report per job, next to its mesh
                let contention = analyze(
                    &out.flight,
                    AnalyzeOpts {
                        threads: o.threads,
                        wall_s: out.stats.wall_time,
                        dropped: out.flight_dropped,
                        ..Default::default()
                    },
                );
                let report = build_run_report(input, &o, delta, o.threads, &out, dt, &contention);
                write_new(&rpath, &report.to_json_string(), o.force).map_err(CliError::Io)?;
                wrote(&journal, &rpath);
            }
            Ok(())
        };
        match run() {
            Ok(()) => done += 1,
            Err(e) if keep_going => {
                journal.error(
                    "batch.job_failed",
                    &[
                        ("msg", Json::str(format!("error: {input}: {e}"))),
                        ("input", Json::str(input.as_str())),
                        ("kind", Json::str(e.kind())),
                        ("error", Json::str(e.to_string())),
                    ],
                );
                failures.push((input.clone(), e));
            }
            Err(e) => {
                return Err(match e {
                    CliError::Generic(m) => CliError::Generic(format!("{input}: {m}")),
                    CliError::Cancelled(m) => CliError::Cancelled(format!("{input}: {m}")),
                    CliError::Io(m) => CliError::Io(format!("{input}: {m}")),
                    CliError::Integrity(m) => CliError::Integrity(format!("{input}: {m}")),
                    CliError::WorkerLoss(m) => CliError::WorkerLoss(format!("{input}: {m}")),
                })
            }
        }
    }
    journal.info(
        "batch.done",
        &[
            (
                "msg",
                Json::str(format!(
                    "batch: {done}/{} inputs, {tets} tets in {:.2}s over one warm session \
                     ({} threads)",
                    inputs.len(),
                    t_all.elapsed().as_secs_f64(),
                    session.threads(),
                )),
            ),
            ("done", Json::int(done as u64)),
            ("inputs", Json::int(inputs.len() as u64)),
            ("tets", Json::int(tets)),
        ],
    );
    if !failures.is_empty() {
        // --keep-going already logged each error inline as it happened;
        // repeat them as one summary block so a long run ends with the
        // complete casualty list in one place.
        let mut block = format!(
            "batch: {} of {} input(s) failed:",
            failures.len(),
            inputs.len()
        );
        for (input, e) in &failures {
            block.push_str(&format!("\n  {input}: [{}] {e}", e.kind()));
        }
        journal.error(
            "batch.failures",
            &[
                ("msg", Json::str(block)),
                ("failed", Json::int(failures.len() as u64)),
                ("inputs", Json::int(inputs.len() as u64)),
            ],
        );
        // exit with the class of the first failure so scripts can branch
        let (_, first) = failures.swap_remove(0);
        return Err(first);
    }
    Ok(())
}

/// `pi2m serve`: the long-running meshing service (see `crates/serve`).
/// Binds the HTTP front door, spawns the warm session slots, then blocks
/// until SIGTERM/SIGINT (or `POST /drain`) starts a graceful drain: stop
/// admitting, finish or deadline-cancel in-flight jobs, flush artifacts,
/// exit 0 on a clean drain.
fn cmd_serve(args: &Args) -> Result<(), CliError> {
    use pi2m::serve::{self, HttpServer, MeshService, ServiceConfig};

    let parse_usize = |name: &str, default: usize| -> Result<usize, String> {
        args.flags
            .get(name)
            .map(|v| v.parse().map_err(|_| format!("bad --{name} '{v}'")))
            .transpose()
            .map(|v| v.unwrap_or(default))
    };
    let addr = args
        .flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7473".into());
    let sessions = parse_usize("sessions", 2)?.max(1);
    let threads = parse_usize("threads", 2)?.max(1);
    let queue_capacity = parse_usize("queue-cap", 16)?.max(1);
    let max_retries = parse_usize("max-retries", 2)? as u32;
    let spool = std::path::PathBuf::from(
        args.flags
            .get("spool")
            .cloned()
            .unwrap_or_else(|| "pi2m-spool".into()),
    );
    let default_deadline_s = args
        .flags
        .get("default-deadline")
        .map(|v| parse_duration(v).map_err(|e| format!("bad --default-deadline: {e}")))
        .transpose()?;
    let drain_grace = args
        .flags
        .get("drain-grace")
        .map(|v| parse_duration(v).map_err(|e| format!("bad --drain-grace: {e}")))
        .transpose()?
        .unwrap_or(30.0);
    let faults = pi2m::faults::FaultPlan::from_env()
        .map_err(|e| format!("bad fault plan: {e}"))?
        .map(Arc::new);
    // the daemon's stderr defaults to JSONL so every line is machine-parseable
    let journal = init_journal(args, true)?;
    if let Some(f) = &faults {
        journal.info(
            "faults.armed",
            &[
                (
                    "msg",
                    Json::str(format!("fault injection armed: {}", f.describe())),
                ),
                ("plan", Json::str(f.describe())),
            ],
        );
    }

    let svc = MeshService::start(ServiceConfig {
        sessions,
        threads,
        queue_capacity,
        spool: spool.clone(),
        default_deadline_s,
        max_retries,
        faults,
        journal: Arc::clone(&journal),
        ..Default::default()
    })?;
    serve::signal::install();
    let server =
        HttpServer::bind(&addr).map_err(|e| CliError::Io(format!("cannot bind {addr}: {e}")))?;
    let local = server
        .local_addr()
        .map_err(|e| CliError::Io(e.to_string()))?;
    // stdout on purpose: wrappers parse this line for the resolved port
    println!("pi2m serve: listening on {local}");
    journal.info(
        "serve.config",
        &[
            (
                "msg",
                Json::str(format!(
                    "serve: {sessions} session(s) x {threads} thread(s), queue capacity \
                     {queue_capacity}, spool {}, retries {max_retries}, deadline {}",
                    spool.display(),
                    default_deadline_s.map_or("none".into(), |d| format!("{d}s")),
                )),
            ),
            ("addr", Json::str(local.to_string())),
            ("sessions", Json::int(sessions as u64)),
            ("threads", Json::int(threads as u64)),
            ("queue_capacity", Json::int(queue_capacity as u64)),
            ("max_retries", Json::int(max_retries as u64)),
        ],
    );

    // The accept loop runs on its own thread so the HTTP API stays up
    // DURING the drain: late submits get the typed 503, pollers see their
    // jobs reach terminal states, artifacts stay fetchable.
    let http_stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let server_thread = {
        let svc = Arc::clone(&svc);
        let stop = Arc::clone(&http_stop);
        std::thread::Builder::new()
            .name("pi2m-http".into())
            .spawn(move || server.serve(svc, || stop.load(std::sync::atomic::Ordering::SeqCst)))
            .map_err(|e| format!("cannot spawn http thread: {e}"))?
    };
    while !serve::signal::requested() && !svc.is_draining() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    journal.info(
        "serve.drain",
        &[
            (
                "msg",
                Json::str(format!(
                    "serve: drain requested ({} queued, {} running); grace {drain_grace}s",
                    svc.queue_depth(),
                    svc.busy_slots()
                )),
            ),
            ("queued", Json::int(svc.queue_depth() as u64)),
            ("running", Json::int(svc.busy_slots() as u64)),
            ("grace_s", Json::num(drain_grace)),
        ],
    );
    let clean = svc.drain(std::time::Duration::from_secs_f64(drain_grace));
    http_stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let _ = server_thread.join();
    let (succeeded, failed, cancelled, shed, retries, recycles) = (
        svc.counter(pi2m::obs::metrics::SERVE_JOBS_SUCCEEDED),
        svc.counter(pi2m::obs::metrics::SERVE_JOBS_FAILED),
        svc.counter(pi2m::obs::metrics::SERVE_JOBS_CANCELLED),
        svc.counter(pi2m::obs::metrics::SERVE_JOBS_SHED),
        svc.counter(pi2m::obs::metrics::SERVE_JOB_RETRIES),
        svc.counter(pi2m::obs::metrics::SERVE_SESSIONS_RECYCLED),
    );
    journal.info(
        "serve.drained",
        &[
            (
                "msg",
                Json::str(format!(
                    "serve: drained: {succeeded} succeeded, {failed} failed, \
                     {cancelled} cancelled, {shed} shed, {retries} retries, {recycles} recycles"
                )),
            ),
            ("succeeded", Json::int(succeeded)),
            ("failed", Json::int(failed)),
            ("cancelled", Json::int(cancelled)),
            ("shed", Json::int(shed)),
            ("retries", Json::int(retries)),
            ("recycles", Json::int(recycles)),
        ],
    );
    if clean {
        Ok(())
    } else {
        Err(CliError::Cancelled(format!(
            "drain grace of {drain_grace}s expired; remaining jobs were force-cancelled"
        )))
    }
}

fn cmd_phantom(args: &Args) -> Result<(), String> {
    let name = args
        .positional
        .get(1)
        .ok_or("usage: pi2m phantom <name> <out.pim>")?;
    let out = args
        .positional
        .get(2)
        .ok_or("usage: pi2m phantom <name> <out.pim>")?;
    let scale: f64 = args
        .flags
        .get("scale")
        .map(|v| v.parse().map_err(|_| "bad --scale"))
        .transpose()?
        .unwrap_or(1.0);
    let img = phantoms::by_name(name, scale).ok_or_else(|| {
        format!("unknown phantom '{name}' (try sphere, nested, torus, abdominal, knee, head-neck)")
    })?;
    img_io::save(&img, out).map_err(|e| e.to_string())?;
    let d = img.dims();
    eprintln!(
        "wrote {out}: {}x{}x{}, {} tissues",
        d[0],
        d[1],
        d[2],
        img.num_tissues()
    );
    Ok(())
}

fn cmd_info(args: &Args) -> Result<(), String> {
    let input = args
        .positional
        .get(1)
        .ok_or("usage: pi2m info <input.pim>")?;
    let img = load_input(input)?;
    let d = img.dims();
    let s = img.spacing();
    println!("dims     : {} x {} x {}", d[0], d[1], d[2]);
    println!("spacing  : {} x {} x {} mm", s[0], s[1], s[2]);
    println!("tissues  : {}", img.num_tissues());
    println!("volume   : {:.1} mm^3 foreground", img.foreground_volume());
    let h = img.label_histogram();
    for (l, &c) in h.iter().enumerate().skip(1) {
        if c > 0 {
            println!("  label {l:>3}: {c:>9} voxels");
        }
    }
    Ok(())
}

/// `pi2m bench`: run the fixed-seed kernel workloads (insertion, removal,
/// refinement), print the throughput summary, optionally write
/// `BENCH_kernel.json` and/or gate against a checked-in baseline.
fn cmd_bench(args: &Args) -> Result<(), String> {
    use pi2m_bench::kernel::{
        check_against_baseline, check_flight_overhead, check_removal_cost, run_kernel_bench,
        KernelBenchOpts,
    };

    let opts = KernelBenchOpts {
        quick: args.switches.contains("quick"),
        seed: args
            .flags
            .get("seed")
            .map(|v| v.parse().map_err(|_| "bad --seed"))
            .transpose()?
            .unwrap_or(42),
    };
    let mode = if opts.quick { "quick" } else { "full" };
    eprintln!("running kernel benchmark ({mode}, seed {})...", opts.seed);
    let mut report = run_kernel_bench(opts);

    // optional A/B record: an older kernel's measured insertion (and
    // removal) throughput on the identical workload (see README
    // "Benchmarking")
    if let Some(ops) = args.flags.get("parent-insertion") {
        let insertion_ops_per_sec: f64 = ops.parse().map_err(|_| "bad --parent-insertion")?;
        let removal = args.flags.get("parent-removal").map(|v| v.parse::<f64>());
        let removal_ops_per_sec = removal.transpose().map_err(|_| "bad --parent-removal")?;
        let commit = args
            .flags
            .get("parent-commit")
            .cloned()
            .ok_or("--parent-insertion requires --parent-commit")?;
        report.parent = Some(pi2m_bench::kernel::ParentComparison {
            commit,
            insertion_ops_per_sec,
            removal_ops_per_sec,
        });
    }

    println!("workload     ops         seconds     ops/sec");
    for (name, w) in [
        ("insertion", report.insertion),
        ("removal", report.removal),
        ("refinement", report.refinement),
    ] {
        println!(
            "{name:<12} {:>10}  {:>9.3}  {:>10.0}",
            w.ops,
            w.seconds,
            w.ops_per_sec()
        );
    }
    let p = &report.pred;
    let ot = p.orient_total().max(1);
    let it = p.insphere_total().max(1);
    println!(
        "predicates   orient: {:.1}% semi-static, {:.1}% filtered, {:.1}% exact ({} calls)",
        100.0 * p.orient_semi_static as f64 / ot as f64,
        100.0 * p.orient_filtered as f64 / ot as f64,
        100.0 * p.orient_exact as f64 / ot as f64,
        p.orient_total(),
    );
    println!(
        "             insphere: {:.1}% semi-static, {:.1}% filtered, {:.1}% exact ({} calls)",
        100.0 * p.insphere_semi_static as f64 / it as f64,
        100.0 * p.insphere_filtered as f64 / it as f64,
        100.0 * p.insphere_exact as f64 / it as f64,
        p.insphere_total(),
    );
    println!(
        "scratch      {} reuses, {} cold allocs, footprint {} elems",
        report.scratch_reuses, report.scratch_allocs, report.scratch_footprint
    );
    println!(
        "flight       recorder on {:.0} vs off {:.0} ops/s ({:+.2}% overhead)",
        report.flight.on.ops_per_sec(),
        report.flight.off.ops_per_sec(),
        report.flight.overhead_frac() * 100.0
    );
    println!(
        "session      warm {:.0} vs cold {:.0} runs/s (setup saving {:.1}%/run)",
        report.session.warm.ops_per_sec(),
        report.session.cold.ops_per_sec(),
        report.session.setup_saving_frac() * 100.0
    );
    if let Some(parent) = &report.parent {
        println!(
            "parent       {}: {:.0} insert ops/s -> x{:.2}",
            parent.commit,
            parent.insertion_ops_per_sec,
            report.insertion.ops_per_sec() / parent.insertion_ops_per_sec
        );
        if let Some(then) = parent.removal_ops_per_sec {
            println!(
                "parent       {}: {then:.0} remove ops/s -> x{:.2}",
                parent.commit,
                report.removal.ops_per_sec() / then
            );
        }
    }

    if let Some(out) = args.flags.get("out") {
        std::fs::write(out, report.to_json_string() + "\n")
            .map_err(|e| format!("cannot write {out}: {e}"))?;
        eprintln!("wrote {out}");
    }

    if let Some(baseline_path) = args.flags.get("check") {
        let tolerance: f64 = args
            .flags
            .get("tolerance")
            .map(|v| v.parse().map_err(|_| "bad --tolerance"))
            .transpose()?
            .unwrap_or(0.25);
        let baseline = std::fs::read_to_string(baseline_path)
            .map_err(|e| format!("cannot read {baseline_path}: {e}"))?;
        let lines = check_against_baseline(&report, &baseline, tolerance)
            .map_err(|e| format!("throughput regression: {e}"))?;
        for l in lines {
            println!("check        {l}");
        }
        let line = check_removal_cost(&report)
            .map_err(|l| format!("removal costs too many insertions: {l}"))?;
        println!("check        {line}");
        println!("check        OK (tolerance {:.0}%)", tolerance * 100.0);
    }

    if let Some(gate) = args.flags.get("flight-gate") {
        let max_frac: f64 = gate.parse().map_err(|_| "bad --flight-gate")?;
        let line = check_flight_overhead(&report, max_frac)
            .map_err(|l| format!("flight recorder too expensive: {l}"))?;
        println!("check        {line}");
    }
    Ok(())
}

/// `pi2m analyze`: offline inspection of saved observability artifacts.
/// One file renders its attribution / hot-spot summary; two files diff the
/// runs (base first) and attribute the regression to a waste category.
fn cmd_analyze(args: &Args) -> Result<(), String> {
    use pi2m::obs::{load_artifact, render_diff, render_summary};

    let load = |path: &str| -> Result<pi2m::obs::Artifact, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        load_artifact(&text).map_err(|e| format!("{path}: {e}"))
    };
    match (args.positional.get(1), args.positional.get(2)) {
        (Some(one), None) => {
            print!("{}", render_summary(&load(one)?));
            Ok(())
        }
        (Some(base), Some(new)) => {
            let (base, new) = (load(base)?, load(new)?);
            print!("{}", render_diff(&base, &new));
            Ok(())
        }
        _ => Err("usage: pi2m analyze <artifact.json> [new.json]  \
                  (one file: summary; two files: diff base -> new)"
            .into()),
    }
}

/// `pi2m --version`: the crate version plus the versions of the two stable
/// on-disk layouts tools may depend on — the run-report JSON schema and the
/// flight-recorder event layout.
fn print_version() {
    println!("pi2m {}", env!("CARGO_PKG_VERSION"));
    println!("report-schema {}", RunReport::SCHEMA_VERSION);
    println!("flight-layout {}", pi2m::obs::flight::LAYOUT_VERSION);
    println!("journal-schema {}", pi2m::obs::journal::SCHEMA_VERSION);
    println!("job-trace-schema {}", pi2m::serve::TRACE_SCHEMA_VERSION);
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&raw);
    if args.switches.contains("version") {
        print_version();
        return ExitCode::SUCCESS;
    }
    let r: Result<(), CliError> = match args.positional.first().map(String::as_str) {
        Some("mesh") => cmd_mesh(&args),
        Some("batch") => cmd_batch(&args),
        Some("serve") => cmd_serve(&args),
        Some("phantom") => cmd_phantom(&args).map_err(CliError::from),
        Some("info") => cmd_info(&args).map_err(CliError::from),
        Some("bench") => cmd_bench(&args).map_err(CliError::from),
        Some("analyze") => cmd_analyze(&args).map_err(CliError::from),
        Some("version") => {
            print_version();
            Ok(())
        }
        _ => Err(
            "usage: pi2m <mesh|batch|serve|phantom|info|bench|analyze|version> ... (see README)"
                .into(),
        ),
    };
    match r {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // typed: scripts branch on the exit code, humans on the prefix
            eprintln!("error[{}]: {e}", e.kind());
            ExitCode::from(e.exit_code())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_output_names() {
        assert_eq!(batch_output_name("phantom:torus"), "torus.vtk");
        assert_eq!(batch_output_name("scans/knee.pim"), "knee.vtk");
        assert_eq!(batch_output_name("plain"), "plain.vtk");
    }
}
