//! `pi2m` — command-line Image-to-Mesh conversion.
//!
//! ```text
//! pi2m mesh   <input.pim|phantom:NAME> [-o out.vtk] [--delta D] [--threads N]
//!             [--cm aggressive|random|global|local] [--no-removals]
//!             [--size S] [--off out.off] [--stats]
//!             [--report run.json] [--trace-out trace.json] [--metrics]
//!             [--audit] [--no-flight] [--force] [--deadline DUR]
//!             [--shards AxBxC [--halo N]]
//!             (a run killed by --deadline still writes its --report /
//!             --trace-out / --metrics artifacts, from the same run report
//!             a finished run writes; --shards meshes the image as a grid
//!             of overlapping chunks and stitches the seams — see README
//!             "Sharded meshing")
//! pi2m batch  <inputs...> [--outdir DIR] [--keep-going] [--reports]
//!             [--delta D] [--threads N] [--cm ...] [--no-removals]
//!             [--size S] [--no-flight] [--force]
//!             mesh several inputs sequentially over ONE warm session
//!             (threads, kernel arenas, flight rings, and the proximity
//!             grid are reused run-to-run); --reports adds one
//!             <stem>.report.json per job next to its mesh
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
//! Every command refuses an option it does not read (exit 1, naming it).
//! Failures exit with a typed code (see [`pi2m::cli::CliError`]): 1 generic,
//! 3 cancelled (deadline), 4 I/O, 5 integrity, 6 worker loss.

use pi2m::cli::{check_options, parse_args, run_report, write_new, Args, CliError, RunEnd};
use pi2m::image::{io as img_io, load_input, phantoms, LabeledImage};
use pi2m::meshio;
use pi2m::obs::journal::{Journal, Level};
use pi2m::obs::json::Json;
use pi2m::obs::{render_chrome_trace, render_prometheus, FlightEvent, RunReport, TraceSpan};
use pi2m::quality;
use pi2m::refine::{CancelToken, CmKind, MeshOutput, MesherConfig, MeshingSession, RunOptions};
use pi2m::serve::parse_duration_str;
use std::io::BufWriter;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

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
    size_fn: Option<Arc<dyn pi2m::oracle::SizeFn>>,
    enable_removals: bool,
    force: bool,
    flight: bool,
    faults: Option<Arc<pi2m::faults::FaultPlan>>,
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

/// Parse and bound-check the mesh options. A bad `--threads`, `--delta` or
/// `--size` is refused here, naming its flag, before any input is loaded.
fn parse_mesh_opts(args: &Args, journal: &Journal) -> Result<MeshOpts, String> {
    let delta = positive_finite(args, "delta")?;
    let threads = match args.flags.get("threads") {
        Some(v) => match v.parse::<usize>() {
            Ok(n) if (1..=MAX_THREADS).contains(&n) => n,
            _ => {
                return Err(format!(
                    "bad --threads '{v}': must be an integer from 1 to {MAX_THREADS}"
                ))
            }
        },
        None => std::thread::available_parallelism().map_or(1, |n| n.get().min(MAX_THREADS)),
    };
    let cm = match args.flags.get("cm").map(String::as_str) {
        None | Some("local") => CmKind::Local,
        Some("global") => CmKind::Global,
        Some("random") => CmKind::Random,
        Some("aggressive") => CmKind::Aggressive,
        Some(other) => return Err(format!("unknown --cm '{other}'")),
    };
    let size_fn = positive_finite(args, "size")?
        .map(|s| Arc::new(pi2m::oracle::UniformSize(s)) as Arc<dyn pi2m::oracle::SizeFn>);
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
        size_fn,
        enable_removals: !args.switches.contains("no-removals"),
        force: args.switches.contains("force"),
        flight: !args.switches.contains("no-flight"),
        faults,
    })
}

fn config_for(o: &MeshOpts, img: &LabeledImage) -> MesherConfig {
    MesherConfig {
        delta: o.delta.unwrap_or(2.0 * img.min_spacing()),
        threads: o.threads,
        cm: o.cm,
        size_fn: o.size_fn.clone(),
        enable_removals: o.enable_removals,
        faults: o.faults.clone(),
        flight: o.flight,
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
    let journal = init_journal(args, false)?;
    let o = parse_mesh_opts(args, &journal)?;
    let img = load_input(input).map_err(CliError::Io)?;
    let cfg = config_for(&o, &img);
    let (delta, threads, cm, force) = (cfg.delta, o.threads, o.cm, o.force);

    journal.info(
        "mesh.start",
        &[
            (
                "msg",
                Json::str(format!(
                    "meshing {input}: δ={delta}, {threads} threads, {cm:?}-CM"
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
                let secs = parse_duration_str(v).map_err(|e| format!("bad --deadline: {e}"))?;
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
        match pi2m::refine::mesh_sharded(&mut session, img, cfg.clone(), &run_opts, spec) {
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
                return Err(report_cancelled(
                    args,
                    &o,
                    input,
                    &cfg,
                    &mut session,
                    t0,
                    &journal,
                ));
            }
            Err(pi2m::refine::ShardError::Run(e)) => return Err(CliError::from_refine(&e)),
            Err(e) => return Err(CliError::Generic(e.to_string())),
        }
    } else {
        match session.mesh_with(img, cfg.clone(), &run_opts) {
            Ok(out) => (out, None),
            Err(pi2m::refine::RefineError::Cancelled) => {
                return Err(report_cancelled(
                    args,
                    &o,
                    input,
                    &cfg,
                    &mut session,
                    t0,
                    &journal,
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
    if args.flags.contains_key("report")
        || args.flags.contains_key("trace-out")
        || args.switches.contains("metrics")
    {
        let mut report = run_report(input, &cfg, RunEnd::Finished(&out), dt);
        if let Some(s) = &shard {
            report.config("shards", &s.grid).config("halo", s.halo);
            report.shard = Some(s.clone());
        }
        write_run_artifacts(args, &report, &out.phases, &out.flight, force, &journal)
            .map_err(CliError::Io)?;
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

/// Write a run's requested `--report`, `--trace-out` and `--metrics`
/// artifacts, all from its one run report (the trace adds the run's phase
/// spans and flight log).
fn write_run_artifacts(
    args: &Args,
    report: &RunReport,
    phases: &[TraceSpan],
    flight: &[FlightEvent],
    force: bool,
    journal: &Journal,
) -> Result<(), String> {
    if let Some(path) = args.flags.get("report") {
        write_new(path, &report.to_json_string(), force)?;
        wrote(journal, path);
    }
    if let Some(path) = args.flags.get("trace-out") {
        let trace = render_chrome_trace(phases, &report.metrics.events, flight);
        write_new(path, &trace, force)?;
        wrote(journal, path);
    }
    if args.switches.contains("metrics") {
        print!("{}", render_prometheus(report));
    }
    Ok(())
}

/// A run its deadline killed still reports, through the same builder and
/// writer as a finished one, from the telemetry the session salvaged at the
/// cancellation point (none when the run stopped before refinement: the
/// artifacts are then structurally complete but all-zero). Returns the
/// error the command exits with.
fn report_cancelled(
    args: &Args,
    o: &MeshOpts,
    input: &str,
    cfg: &MesherConfig,
    session: &mut MeshingSession,
    t0: Instant,
    journal: &Journal,
) -> CliError {
    let tel = session.take_cancel_telemetry().unwrap_or_default();
    let wall_s = t0.elapsed().as_secs_f64();
    let report = run_report(input, cfg, RunEnd::Cancelled(&tel), wall_s);
    match write_run_artifacts(args, &report, &tel.phases, &tel.flight, o.force, journal) {
        Ok(()) => {
            CliError::Cancelled("run cancelled (deadline); observability artifacts written".into())
        }
        Err(e) => CliError::Io(e),
    }
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
             [--delta D] [--threads N] [--cm ...] [--no-removals] [--size S] [--no-flight] \
             [--force]"
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
                .mesh(img, cfg.clone())
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
                // one run report per job, next to its mesh
                let report = run_report(input, &cfg, RunEnd::Finished(&out), dt);
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
    // refused before a slot or pool thread is spawned
    for (name, n) in [("sessions", sessions), ("threads", threads)] {
        if n > MAX_THREADS {
            return Err(format!("bad --{name} '{n}': must be at most {MAX_THREADS}").into());
        }
    }
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
        .map(|v| parse_duration_str(v).map_err(|e| format!("bad --default-deadline: {e}")))
        .transpose()?;
    let drain_grace = args
        .flags
        .get("drain-grace")
        .map(|v| parse_duration_str(v).map_err(|e| format!("bad --drain-grace: {e}")))
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

/// Run the subcommand `args` names, once its options have passed
/// [`check_options`].
fn run(args: &Args) -> Result<(), CliError> {
    check_options(args)?;
    match args.positional.first().map(String::as_str) {
        Some("mesh") => cmd_mesh(args),
        Some("batch") => cmd_batch(args),
        Some("serve") => cmd_serve(args),
        Some("phantom") => cmd_phantom(args).map_err(CliError::from),
        Some("info") => cmd_info(args).map_err(CliError::from),
        Some("analyze") => cmd_analyze(args).map_err(CliError::from),
        Some("version") => {
            print_version();
            Ok(())
        }
        _ => Err(
            "usage: pi2m <mesh|batch|serve|phantom|info|analyze|version> ... (see README)".into(),
        ),
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
    fn batch_output_names() {
        assert_eq!(batch_output_name("phantom:torus"), "torus.vtk");
        assert_eq!(batch_output_name("scans/knee.pim"), "knee.vtk");
        assert_eq!(batch_output_name("plain"), "plain.vtk");
    }
}
