//! `pi2m` — command-line Image-to-Mesh conversion.
//!
//! ```text
//! pi2m mesh   <input.pim|phantom:NAME>... [--delta D] [--threads N]
//!             [--no-removals] [--size S] [--stats] [--audit] [--force]
//!             [--deadline DUR]
//!             one input:    [-o out.vtk] [--off out.off] [--report run.json]
//!                           [--trace-out trace.json] [--metrics]
//!             many inputs:  [--outdir DIR] [--reports] [--keep-going]
//!             mesh every input in order over ONE warm session (threads,
//!             kernel arenas and the proximity grid are reused run-to-run).
//!             With several inputs or --outdir, each input writes
//!             <outdir>/<stem>.vtk (outdir defaults to .), --reports adds
//!             <stem>.report.json, and the one-input file flags are
//!             refused. Every output path is checked before the first input
//!             loads. --deadline gives each input a fresh deadline, and a
//!             run it kills still writes its run report
//! pi2m phantom <name> <out.pim> [--scale S]    generate a phantom image
//! pi2m info   <input.pim>                      print image metadata
//! pi2m analyze <artifact.json> [new.json]      offline artifact inspection:
//!             one run report or job trace renders its summary; two run
//!             reports diff the runs and attribute the regression to a
//!             waste category
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
//! Every command refuses an option it does not read, and a positional
//! argument past the ones it takes (exit 1, naming it).
//! Failures exit with a typed code (see [`pi2m::cli::CliError`]): 1 generic,
//! 3 cancelled (deadline), 4 I/O, 5 integrity, 6 worker loss.

use pi2m::cli::{
    check_new, check_options, parse_args, run_report, write_new, Args, CliError, RunEnd,
};
use pi2m::image::{io as img_io, load_input, phantoms};
use pi2m::meshio;
use pi2m::obs::journal::{Journal, Level};
use pi2m::obs::json::Json;
use pi2m::obs::{render_chrome_trace, render_prometheus, FlightEvent, RunReport, TraceSpan};
use pi2m::quality;
use pi2m::refine::{CancelToken, MesherConfig, MeshingSession, RefineError, RunOptions};
use pi2m::serve::parse_duration_str;
use std::io::{BufWriter, Write};
use std::ops::RangeInclusive;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// The `pi2m mesh` options, parsed once for every input. `delta` stays
/// optional here because its default depends on each input image's voxel
/// spacing.
struct MeshOpts {
    delta: Option<f64>,
    threads: usize,
    size_fn: Option<Arc<dyn pi2m::oracle::SizeFn>>,
    enable_removals: bool,
    faults: Option<Arc<pi2m::faults::FaultPlan>>,
    /// Each input's run gets a fresh token with this deadline.
    deadline: Option<Duration>,
    audit: bool,
    stats: bool,
    metrics: bool,
    force: bool,
}

/// The value of `--NAME`, which must be a positive finite number (the bound
/// the serve `JobSpec` puts on `delta`).
fn positive_finite(args: &Args, name: &str) -> Result<Option<f64>, String> {
    args.flags
        .get(name)
        .map(|v| match v.parse::<f64>() {
            Ok(x) if x.is_finite() && x > 0.0 => Ok(x),
            _ => Err(format!(
                "bad --{name} '{v}': must be a positive finite number"
            )),
        })
        .transpose()
}

/// The most threads one `--threads` or `--sessions` may ask for: four times
/// the paper's largest run (256 cores). A count in the tens of thousands
/// would exhaust the process's threads before the first mesh.
const MAX_THREADS: usize = 1024;

/// The value of `--NAME`, which must be an integer in `bounds`.
fn bounded_count(
    args: &Args,
    name: &str,
    bounds: RangeInclusive<usize>,
) -> Result<Option<usize>, String> {
    args.flags
        .get(name)
        .map(|v| match v.parse::<usize>() {
            Ok(n) if bounds.contains(&n) => Ok(n),
            _ => Err(format!(
                "bad --{name} '{v}': must be an integer from {} to {}",
                bounds.start(),
                bounds.end()
            )),
        })
        .transpose()
}

/// Parse and bound-check the mesh options. A bad `--threads`, `--delta`,
/// `--size` or `--deadline` is refused here, naming its flag, before any
/// input is loaded.
fn parse_mesh_opts(args: &Args, journal: &Journal) -> Result<MeshOpts, String> {
    let delta = positive_finite(args, "delta")?;
    let threads = bounded_count(args, "threads", 1..=MAX_THREADS)?.unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(1, |n| n.get().min(MAX_THREADS))
    });
    let size_fn = positive_finite(args, "size")?
        .map(|s| Arc::new(pi2m::oracle::UniformSize(s)) as Arc<dyn pi2m::oracle::SizeFn>);
    let deadline = args
        .flags
        .get("deadline")
        .map(|v| parse_duration_str(v).map_err(|e| format!("bad --deadline: {e}")))
        .transpose()?
        .map(Duration::from_secs_f64);
    Ok(MeshOpts {
        delta,
        threads,
        size_fn,
        enable_removals: !args.switches.contains("no-removals"),
        faults: arm_faults(journal)?,
        deadline,
        audit: args.switches.contains("audit"),
        stats: args.switches.contains("stats"),
        metrics: args.switches.contains("metrics"),
        force: args.switches.contains("force"),
    })
}

/// The deterministic fault plan (testing) that the `PI2M_FAULT_PLAN` /
/// `PI2M_FAULT_SEED` environment variables arm, announced on the journal;
/// `None` when they are unset.
fn arm_faults(journal: &Journal) -> Result<Option<Arc<pi2m::faults::FaultPlan>>, String> {
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
    Ok(faults)
}

/// Where one input's artifacts go.
struct Outputs {
    vtk: String,
    off: Option<String>,
    report: Option<String>,
    trace: Option<String>,
}

/// The file stem of an input's outputs under `--outdir`: `phantom:torus` →
/// `torus`, `scans/knee.pim` → `knee`.
fn output_stem(input: &str) -> &str {
    let file_stem = || std::path::Path::new(input).file_stem()?.to_str();
    input
        .strip_prefix("phantom:")
        .or_else(file_stem)
        .unwrap_or("mesh")
}

/// Every output path of every input, checked before the first input
/// loads: no two inputs may write one path, and no path may exist unless
/// `--force`. Without `outdir` the one input writes where `-o`, `--off`,
/// `--report` and `--trace-out` say; with it, each input writes
/// `<outdir>/<stem>.vtk`, plus `<stem>.report.json` with `--reports`.
fn plan_outputs(
    args: &Args,
    inputs: &[String],
    outdir: Option<&str>,
    force: bool,
) -> Result<Vec<Outputs>, CliError> {
    // each way of naming outputs refuses the other's flags
    let (refused, why) = match outdir {
        None => (&["reports"][..], "needs several inputs or --outdir"),
        Some(_) => (
            &["o", "off", "report", "trace-out", "metrics"][..],
            "is for one input: with several inputs or --outdir, each input writes \
             <outdir>/<stem>.vtk",
        ),
    };
    if let Some(name) = refused
        .iter()
        .find(|&&name| args.flags.contains_key(name) || args.switches.contains(name))
    {
        let dash = if name.len() == 1 { "-" } else { "--" };
        return Err(format!("{dash}{name} {why}").into());
    }
    let plans: Vec<Outputs> = match outdir {
        None => {
            let flag = |name: &str| args.flags.get(name).cloned();
            vec![Outputs {
                vtk: flag("o").unwrap_or_else(|| "mesh.vtk".into()),
                off: flag("off"),
                report: flag("report"),
                trace: flag("trace-out"),
            }]
        }
        Some(dir) => {
            let reports = args.switches.contains("reports");
            let path = |stem: &str, ext: &str| {
                let p = std::path::Path::new(dir).join(format!("{stem}.{ext}"));
                p.to_string_lossy().into_owned()
            };
            inputs
                .iter()
                .map(|input| {
                    let stem = output_stem(input);
                    Outputs {
                        vtk: path(stem, "vtk"),
                        off: None,
                        report: reports.then(|| path(stem, "report.json")),
                        trace: None,
                    }
                })
                .collect()
        }
    };
    let mut writer: std::collections::BTreeMap<&str, &str> = Default::default();
    for (input, out) in inputs.iter().zip(&plans) {
        let optional = [&out.off, &out.report, &out.trace];
        for path in std::iter::once(&out.vtk).chain(optional.into_iter().flatten()) {
            if let Some(first) = writer.insert(path, input) {
                return Err(format!("{first} and {input} both write {path}").into());
            }
        }
    }
    for path in writer.keys() {
        check_new(path, force).map_err(CliError::Io)?;
    }
    if let Some(dir) = outdir {
        std::fs::create_dir_all(dir).map_err(|e| CliError::Io(format!("{dir}: {e}")))?;
    }
    Ok(plans)
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

/// `pi2m mesh`: mesh every input in order over ONE warm
/// [`MeshingSession`] — worker threads, kernel scratch arenas and the
/// proximity grid are created once and reused run-to-run. With
/// `--keep-going` a failed input is logged and the rest still run; the
/// command then exits with the class of the first failure.
fn cmd_mesh(args: &Args) -> Result<(), CliError> {
    let inputs = &args.positional[1..];
    if inputs.is_empty() {
        return Err("usage: pi2m mesh <input.pim|phantom:NAME>... [options]".into());
    }
    let journal = init_journal(args, false)?;
    let o = parse_mesh_opts(args, &journal)?;
    let outdir = match args.flags.get("outdir") {
        Some(dir) => Some(dir.as_str()),
        None if inputs.len() > 1 => Some("."),
        None => None,
    };
    let outputs = plan_outputs(args, inputs, outdir, o.force)?;

    let mut session = MeshingSession::new(o.threads);
    let t_all = Instant::now();
    let mut tets = 0;
    let mut failures: Vec<(&str, CliError)> = Vec::new();
    for (input, out) in inputs.iter().zip(&outputs) {
        match mesh_one(input, out, &o, &mut session, &journal) {
            Ok(n) => tets += n,
            Err(e) if args.switches.contains("keep-going") => {
                journal.error(
                    "mesh.failed",
                    &[
                        ("msg", Json::str(format!("error: {input}: {e}"))),
                        ("input", Json::str(input.as_str())),
                        ("kind", Json::str(e.kind())),
                    ],
                );
                failures.push((input.as_str(), e));
            }
            Err(e) => return Err(e),
        }
    }
    if outdir.is_some() {
        let done = inputs.len() - failures.len();
        let mut msg = format!(
            "mesh: {done}/{} inputs, {tets} tets in {:.2}s over one warm session ({} threads)",
            inputs.len(),
            t_all.elapsed().as_secs_f64(),
            session.threads(),
        );
        // each failure was logged as it happened; the closing line repeats
        // them so a long run ends with the complete casualty list
        for (input, e) in &failures {
            msg.push_str(&format!("\n  failed {input}: [{}] {e}", e.kind()));
        }
        let level = if failures.is_empty() {
            Level::Info
        } else {
            Level::Error
        };
        journal.emit(
            level,
            "mesh.done",
            &[
                ("msg", Json::str(msg)),
                ("done", Json::int(done as u64)),
                ("inputs", Json::int(inputs.len() as u64)),
                ("tets", Json::int(tets as u64)),
            ],
        );
    }
    // exit with the class of the first failure so scripts can branch
    failures.into_iter().next().map_or(Ok(()), |(_, e)| Err(e))
}

/// Mesh one input over the shared session and write its artifacts to
/// `out`; returns its tet count.
fn mesh_one(
    input: &str,
    out: &Outputs,
    o: &MeshOpts,
    session: &mut MeshingSession,
    journal: &Journal,
) -> Result<usize, CliError> {
    let img = load_input(input).map_err(CliError::Io)?;
    let cfg = MesherConfig {
        delta: o.delta.unwrap_or(2.0 * img.min_spacing()),
        threads: o.threads,
        size_fn: o.size_fn.clone(),
        enable_removals: o.enable_removals,
        faults: o.faults.clone(),
        ..Default::default()
    };
    let (delta, threads) = (cfg.delta, o.threads);
    journal.info(
        "mesh.start",
        &[
            (
                "msg",
                // δ as its JSON field writes it, so a huge one stays short
                Json::str(format!(
                    "meshing {input}: δ={}, {threads} threads",
                    Json::num(delta).dump()
                )),
            ),
            ("input", Json::str(input)),
            ("delta", Json::num(delta)),
            ("threads", Json::int(threads as u64)),
        ],
    );
    let run_opts = RunOptions {
        cancel: o.deadline.map(CancelToken::with_deadline),
        on_stage: None,
    };

    let t0 = Instant::now();
    let mesh = match session.mesh_with(img, cfg.clone(), &run_opts) {
        Ok(mesh) => mesh,
        Err(RefineError::Cancelled(tel)) => {
            // A run its deadline killed still reports, through the same
            // builder and writer as a finished one, from the telemetry the
            // error carries (before refinement: the phases and preprocessing
            // metrics so far, and no workers).
            let wall_s = t0.elapsed().as_secs_f64();
            let report = run_report(input, &cfg, RunEnd::Cancelled(&tel), wall_s);
            let written = write_run_artifacts(out, o, &report, &tel.phases, &tel.flight, journal)
                .map_err(CliError::Io)?;
            let what = if written.is_empty() {
                "no run report or trace was requested".to_string()
            } else {
                format!("wrote {}", written.join(", "))
            };
            return Err(CliError::Cancelled(format!(
                "run cancelled (deadline); {what}"
            )));
        }
        Err(e) => return Err(CliError::from_refine(&e)),
    };
    let dt = t0.elapsed().as_secs_f64();
    let tets = mesh.mesh.num_tets();
    journal.info(
        "mesh.result",
        &[
            (
                "msg",
                Json::str(format!(
                    "{tets} tets / {} points in {dt:.2}s ({:.0} elements/s), {} rollbacks, \
                     {} removals",
                    mesh.mesh.num_points(),
                    tets as f64 / dt,
                    mesh.stats.total_rollbacks(),
                    mesh.stats.total_removals()
                )),
            ),
            ("input", Json::str(input)),
            ("tets", Json::int(tets as u64)),
            ("points", Json::int(mesh.mesh.num_points() as u64)),
            ("wall_s", Json::num(dt)),
        ],
    );
    if mesh.stats.total_panics() > 0 || mesh.stats.workers_died > 0 {
        journal.warn(
            "mesh.recovered",
            &[
                (
                    "msg",
                    Json::str(format!(
                        "recovered: {} op panics, {} quarantined, {} recovery rollbacks, \
                         {} workers died",
                        mesh.stats.total_panics(),
                        mesh.stats.total_quarantined(),
                        mesh.stats.total_recovery_rollbacks(),
                        mesh.stats.workers_died
                    )),
                ),
                ("panics", Json::int(mesh.stats.total_panics())),
                ("workers_died", Json::int(mesh.stats.workers_died as u64)),
            ],
        );
    }

    if o.audit {
        let report = pi2m::refine::audit_mesh(&mesh.shared, 42);
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

    if o.stats {
        let q = quality::mesh_quality(&mesh.mesh);
        let tris = mesh.mesh.boundary_triangles();
        let b = quality::report::boundary_report_of(&mesh.mesh.points, &tris);
        let hd = quality::hausdorff_distance(&mesh.mesh.points, &tris, &mesh.oracle, 7);
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
    if out.report.is_some() || out.trace.is_some() || o.metrics {
        let report = run_report(input, &cfg, RunEnd::Finished(&mesh), dt);
        write_run_artifacts(out, o, &report, &mesh.phases, &mesh.flight, journal)
            .map_err(CliError::Io)?;
    }

    // the flush returns the write error that dropping the buffer would drop
    let io = |path: &str, e: std::io::Error| CliError::Io(format!("{path}: {e}"));
    let mut w = BufWriter::new(std::fs::File::create(&out.vtk).map_err(|e| io(&out.vtk, e))?);
    meshio::write_vtk(&mesh.mesh, &mut w)
        .and_then(|()| w.flush())
        .map_err(|e| io(&out.vtk, e))?;
    wrote(journal, &out.vtk);
    if let Some(off) = &out.off {
        let mut w = BufWriter::new(std::fs::File::create(off).map_err(|e| io(off, e))?);
        meshio::write_off(&mesh.mesh, &mut w)
            .and_then(|()| w.flush())
            .map_err(|e| io(off, e))?;
        wrote(journal, off);
    }
    Ok(tets)
}

/// Write a run's requested report, trace and `--metrics` artifacts, all
/// from its one run report (the trace adds the run's phase spans and
/// flight log). Returns the paths of the files written.
fn write_run_artifacts<'a>(
    out: &'a Outputs,
    o: &MeshOpts,
    report: &RunReport,
    phases: &[TraceSpan],
    flight: &[FlightEvent],
    journal: &Journal,
) -> Result<Vec<&'a str>, String> {
    let mut written = Vec::new();
    if let Some(path) = &out.report {
        write_new(path, &report.to_json_string(), o.force)?;
        wrote(journal, path);
        written.push(path.as_str());
    }
    if let Some(path) = &out.trace {
        let trace = render_chrome_trace(phases, &report.metrics.events, flight);
        write_new(path, &trace, o.force)?;
        wrote(journal, path);
        written.push(path.as_str());
    }
    if o.metrics {
        print!("{}", render_prometheus(report));
    }
    Ok(written)
}

/// `pi2m serve`: the long-running meshing service (see `crates/serve`).
/// Binds the HTTP front door, spawns the warm session slots, then blocks
/// until SIGTERM/SIGINT (or `POST /drain`) starts a graceful drain: stop
/// admitting, finish or deadline-cancel in-flight jobs, flush artifacts,
/// exit 0 on a clean drain.
fn cmd_serve(args: &Args) -> Result<(), CliError> {
    use pi2m::serve::{self, HttpServer, MeshService, ServiceConfig};

    let addr = args
        .flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7473".into());
    // refused before a slot or pool thread is spawned; a job spec's
    // `max_retries` has the same bounds
    let sessions = bounded_count(args, "sessions", 1..=MAX_THREADS)?.unwrap_or(2);
    let threads = bounded_count(args, "threads", 1..=MAX_THREADS)?.unwrap_or(2);
    let queue_capacity = bounded_count(args, "queue-cap", 1..=usize::MAX)?.unwrap_or(16);
    let max_retries = bounded_count(args, "max-retries", 0..=100)?.unwrap_or(2) as u32;
    let spool = std::path::PathBuf::from(
        args.flags
            .get("spool")
            .cloned()
            .unwrap_or_else(|| "pi2m-spool".into()),
    );
    let default_deadline_s = args
        .flags
        .get("default-deadline")
        .map(|v| parse_duration_str(v).map_err(|e| format!("bad --default-deadline: {e}")))
        .transpose()?;
    let drain_grace = args
        .flags
        .get("drain-grace")
        .map(|v| parse_duration_str(v).map_err(|e| format!("bad --drain-grace: {e}")))
        .transpose()?
        .unwrap_or(30.0);
    // the daemon's stderr defaults to JSONL so every line is machine-parseable
    let journal = init_journal(args, true)?;

    let svc = MeshService::start(ServiceConfig {
        sessions,
        threads,
        queue_capacity,
        spool: spool.clone(),
        default_deadline_s,
        max_retries,
        faults: arm_faults(&journal)?,
        journal: Arc::clone(&journal),
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
    let scale = positive_finite(args, "scale")?.unwrap_or(1.0);
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

/// `pi2m analyze`: offline inspection of saved observability artifacts.
/// One file renders its attribution / hot-spot summary; two files diff the
/// runs (base first) and attribute the regression to a waste category.
fn cmd_analyze(args: &Args) -> Result<(), String> {
    use pi2m::obs::{load_artifact, render_diff, render_summary, Artifact};

    let load = |path: &str| -> Result<Artifact, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        load_artifact(&text).map_err(|e| format!("{path}: {e}"))
    };
    match (args.positional.get(1), args.positional.get(2)) {
        (Some(one), None) => {
            print!("{}", render_summary(&load(one)?));
            Ok(())
        }
        (Some(base), Some(new)) => match (load(base)?, load(new)?) {
            (Artifact::Report(base), Artifact::Report(new)) => {
                print!("{}", render_diff(&base, &new));
                Ok(())
            }
            _ => Err("a diff takes two run reports".into()),
        },
        _ => Err("usage: pi2m analyze <artifact.json> [new.json]  \
                  (one file: summary; two run reports: diff base -> new)"
            .into()),
    }
}

/// `pi2m --version`: the crate version plus the versions of the on-disk
/// JSON layouts tools may depend on — the run report, the journal and the
/// job trace.
fn print_version() {
    println!("pi2m {}", env!("CARGO_PKG_VERSION"));
    println!("report-schema {}", RunReport::SCHEMA_VERSION);
    println!("journal-schema {}", pi2m::obs::journal::SCHEMA_VERSION);
    println!("job-trace-schema {}", pi2m::serve::TRACE_SCHEMA_VERSION);
}

/// Run the subcommand `args` names, once its options have passed
/// [`check_options`].
fn run(args: &Args) -> Result<(), CliError> {
    check_options(args)?;
    match args.positional.first().map(String::as_str) {
        Some("mesh") => cmd_mesh(args),
        Some("serve") => cmd_serve(args),
        Some("phantom") => cmd_phantom(args).map_err(CliError::from),
        Some("info") => cmd_info(args).map_err(CliError::from),
        Some("analyze") => cmd_analyze(args).map_err(CliError::from),
        Some("version") => {
            print_version();
            Ok(())
        }
        _ => Err("usage: pi2m <mesh|serve|phantom|info|analyze|version> ... (see README)".into()),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&raw);
    if args.switches.contains("version") {
        print_version();
        return ExitCode::SUCCESS;
    }
    match run(&args) {
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
    fn output_stems() {
        assert_eq!(output_stem("phantom:torus"), "torus");
        assert_eq!(output_stem("scans/knee.pim"), "knee");
        assert_eq!(output_stem("plain"), "plain");
    }
}
