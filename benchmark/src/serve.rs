//! The `serve-mix` workload: an in-process `MeshService` behind its HTTP
//! front door, driven over real sockets by a closed loop of clients.
//!
//! Closed loop, because each FEM client waits for its mesh before it asks
//! for the next: `T` client threads (one connection at a time each), each
//! keeping two jobs outstanding, so `2T` jobs are in the system on `T`
//! one-thread session slots.

use crate::checks::{check_final_mesh, Limits, Quality};
use crate::host::{self, TempDir};
use crate::layers;
use crate::report::RunResult;
use crate::span::{self, timed, Tracer};
use crate::spec;
use crate::stats;
use pi2m::delaunay::VertexKind;
use pi2m::geometry::Point3;
use pi2m::image::{io as image_io, phantoms, LabeledImage};
use pi2m::obs::json::{self, Json};
use pi2m::obs::metrics as m;
use pi2m::oracle::IsosurfaceOracle;
use pi2m::refine::FinalMesh;
use pi2m::serve::{
    HttpServer, JobRecord, JobStatus, MeshService, Priority, ServiceConfig, TraceEventKind,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub const NAME: &str = "serve-mix";

/// Jobs each client keeps outstanding.
const OUTSTANDING: usize = 2;
/// Pause between a client's polling rounds.
const POLL_INTERVAL: Duration = Duration::from_millis(1);

/// The inputs: four phantom kinds at the two ends of the size range
/// (n = 28 and 40 voxels a side, head-neck at scale 0.6 and 1.0).
type Input = (&'static str, fn() -> LabeledImage);
const INPUTS: [Input; 8] = [
    ("sphere28", || phantoms::sphere(28, 1.0)),
    ("sphere40", || phantoms::sphere(40, 1.0)),
    ("nested28", || phantoms::nested_spheres(28, 1.0)),
    ("nested40", || phantoms::nested_spheres(40, 1.0)),
    ("torus28", || phantoms::torus(28, 1.0)),
    ("torus40", || phantoms::torus(40, 1.0)),
    ("headneck06", || phantoms::head_neck(0.6)),
    ("headneck10", || phantoms::head_neck(1.0)),
];

/// One deck of job types, `(input, delta)`: every input at two of the four
/// densities 1.0/1.2/1.5/2.0. The deck is fixed so that every seed carries
/// the same total work; the seed orders it and hands out the priorities.
/// On the reference host a job runs 20 to 230 ms, 90 ms on average.
const DECK: [(usize, f64); 16] = [
    (0, 1.0),
    (0, 1.5),
    (1, 1.5),
    (1, 2.0),
    (2, 1.2),
    (2, 2.0),
    (3, 1.5),
    (3, 2.0),
    (4, 1.0),
    (4, 1.5),
    (5, 1.2),
    (5, 2.0),
    (6, 1.2),
    (6, 2.0),
    (7, 1.5),
    (7, 2.0),
];
/// Decks in a run's job list: enough for the longest run the contract allows.
const DECKS: usize = 256;
/// Priorities dealt per deck.
const DECK_PRIORITIES: [(Priority, usize); 3] = [
    (Priority::High, 4),
    (Priority::Normal, 8),
    (Priority::Low, 4),
];
/// The job type whose first artifact is parsed back and checked for quality
/// and fidelity: the full-size head-neck phantom at delta 2.0.
const REFERENCE_JOB: (usize, f64) = (7, 2.0);
/// `hausdorff_mm` of the reference artifact at the seed commit.
const REFERENCE_HAUSDORFF_MM: f64 = 3.3;

#[derive(Clone, Debug, PartialEq)]
pub struct Job {
    pub input: usize,
    pub delta: f64,
    pub priority: Priority,
}

fn shuffle<T>(v: &mut [T], rng: &mut impl Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// The seeded job list: `decks` shuffled decks back to back, each with its
/// priorities dealt afresh.
pub fn job_list(seed: u64, decks: usize) -> Vec<Job> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x6a6f_6273);
    let mut jobs = Vec::with_capacity(decks * DECK.len());
    for _ in 0..decks {
        let mut deck = DECK;
        shuffle(&mut deck, &mut rng);
        let mut priorities: Vec<Priority> = DECK_PRIORITIES
            .iter()
            .flat_map(|&(p, n)| std::iter::repeat_n(p, n))
            .collect();
        shuffle(&mut priorities, &mut rng);
        jobs.extend(
            deck.iter()
                .zip(priorities)
                .map(|(&(input, delta), priority)| Job {
                    input,
                    delta,
                    priority,
                }),
        );
    }
    jobs
}

/// Service, HTTP server and on-disk inputs of one set-up. Dropping it stops
/// the server, drains the service and removes the temporary directory.
struct Ready {
    svc: Arc<MeshService>,
    addr: String,
    inputs: Vec<PathBuf>,
    images: Vec<LabeledImage>,
    sessions: usize,
    stop: Arc<AtomicBool>,
    server: Option<JoinHandle<()>>,
    _dir: TempDir,
}

impl Drop for Ready {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.server.take() {
            let _ = h.join();
        }
        self.svc.drain(Duration::from_secs(10));
    }
}

fn setup(mut tr: Option<&mut Tracer>) -> Result<Ready, String> {
    let dir = TempDir::new("serve")?;
    let images: Vec<LabeledImage> = timed(&mut tr, "image.generate", || {
        INPUTS.iter().map(|(_, make)| make()).collect()
    });
    let mut inputs = Vec::new();
    for ((name, _), img) in INPUTS.iter().zip(&images) {
        let path = dir.path().join(format!("{name}.pim"));
        image_io::save(img, &path).map_err(|e| format!("{}: {e}", path.display()))?;
        inputs.push(path);
    }
    let sessions = host::host_threads();
    let svc = timed(&mut tr, "refine.session_new", || {
        MeshService::start(ServiceConfig {
            sessions,
            threads: 1,
            queue_capacity: 32,
            spool: dir.path().join("spool"),
            ..Default::default()
        })
    })?;
    let server = HttpServer::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?
        .to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let handle = {
        let (svc, stop) = (Arc::clone(&svc), Arc::clone(&stop));
        std::thread::Builder::new()
            .name("bench-http".into())
            .spawn(move || server.serve(svc, || stop.load(Ordering::SeqCst)))
            .map_err(|e| format!("spawn server: {e}"))?
    };
    let ready = Ready {
        svc,
        addr,
        inputs,
        images,
        sessions,
        stop,
        server: Some(handle),
        _dir: dir,
    };
    // Warm-up: one discarded job per slot and outstanding place, the same
    // jobs for every seed so that set-up time does not depend on the seed.
    let warm: Vec<Job> = DECK
        .iter()
        .cycle()
        .take(sessions * OUTSTANDING)
        .map(|&(input, delta)| Job {
            input,
            delta,
            priority: Priority::Normal,
        })
        .collect();
    let n = warm.len();
    let lap = closed_loop(&ready, &warm, None, None);
    if lap.samples.iter().any(|s| !s.ok) || lap.samples.len() != n {
        return Err(format!(
            "warm-up jobs failed: {:?} {:?}",
            lap.errors, lap.problems
        ));
    }
    Ok(ready)
}

/// One blocking HTTP/1.1 exchange; the server closes after its response.
fn http(addr: &str, method: &str, path: &str, body: &str) -> Result<(u16, Vec<u8>), String> {
    let io = |e: std::io::Error| format!("{method} {path}: {e}");
    let mut s = TcpStream::connect(addr).map_err(io)?;
    s.set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(io)?;
    write!(
        s,
        "{method} {path} HTTP/1.1\r\nHost: pi2m\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .map_err(io)?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).map_err(io)?;
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: no header terminator"))?;
    let status = std::str::from_utf8(&raw[..head_end])
        .ok()
        .and_then(|h| h.split_whitespace().nth(1))
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| format!("{method} {path}: bad status line"))?;
    Ok((status, raw.split_off(head_end + 4)))
}

/// Cell count declared by a legacy-VTK unstructured grid (`CELLS n m`).
pub fn vtk_cell_count(vtk: &[u8]) -> Option<u64> {
    vtk.split(|&b| b == b'\n')
        .find_map(|l| l.strip_prefix(b"CELLS "))
        .and_then(|rest| std::str::from_utf8(rest).ok())
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Parse a PI2M VTK artifact back into a `FinalMesh`.
pub fn parse_vtk(vtk: &[u8]) -> Result<FinalMesh, String> {
    type Tokens<'a> = std::str::SplitWhitespace<'a>;
    fn skip_to(tok: &mut Tokens<'_>, word: &str) -> Result<(), String> {
        tok.find(|t| *t == word)
            .map(|_| ())
            .ok_or_else(|| format!("artifact has no {word} section"))
    }
    fn next<T: std::str::FromStr>(tok: &mut Tokens<'_>, what: &str) -> Result<T, String> {
        tok.next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| format!("artifact: bad {what}"))
    }
    let text = std::str::from_utf8(vtk).map_err(|_| "artifact is not UTF-8".to_string())?;
    let tok = &mut text.split_whitespace();
    let mut mesh = FinalMesh::default();
    skip_to(tok, "POINTS")?;
    let n: usize = next(tok, "point count")?;
    tok.next(); // "double"
    for _ in 0..n {
        let (x, y, z) = (
            next(tok, "coordinate")?,
            next(tok, "coordinate")?,
            next(tok, "coordinate")?,
        );
        mesh.points.push(Point3::new(x, y, z));
    }
    mesh.point_kinds = vec![VertexKind::Circumcenter; n];
    skip_to(tok, "CELLS")?;
    let cells: usize = next(tok, "cell count")?;
    tok.next(); // list length
    for _ in 0..cells {
        if next::<u32>(tok, "cell arity")? != 4 {
            return Err("artifact: a cell is not a tetrahedron".into());
        }
        let mut t = [0u32; 4];
        for v in &mut t {
            *v = next(tok, "cell vertex")?;
            if *v as usize >= n {
                return Err("artifact: cell vertex out of range".into());
            }
        }
        mesh.tets.push(t);
    }
    skip_to(tok, "LOOKUP_TABLE")?;
    tok.next(); // "default"
    for _ in 0..cells {
        mesh.labels.push(next(tok, "tissue label")?);
    }
    Ok(mesh)
}

/// What a client saw of one job.
struct Sample {
    id: u64,
    ok: bool,
    /// POST sent → artifact bytes fully received.
    latency_s: f64,
    submit_ms: f64,
    fetch_ms: f64,
    polls: u32,
}

#[derive(Default)]
struct Lap {
    samples: Vec<Sample>,
    /// Jobs that errored (refused, ended failed, artifact unreachable).
    errors: Vec<String>,
    /// Artifacts that failed their check.
    problems: Vec<String>,
    wall_s: f64,
    /// Artifact of the first completed reference job.
    reference: Option<Vec<u8>>,
    spans: Vec<span::Span>,
}

struct InFlight {
    job: usize,
    name: String,
    id: u64,
    sent: Instant,
    submit_ms: f64,
    polls: u32,
}

/// Run `jobs` (in order, or as many as are submitted before `deadline`)
/// through the service in a closed loop and wait for every one submitted.
fn closed_loop(
    ready: &Ready,
    jobs: &[Job],
    deadline: Option<Instant>,
    trace_origin: Option<Instant>,
) -> Lap {
    let cursor = AtomicUsize::new(0);
    let shared = Mutex::new(Lap::default());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..ready.sessions {
            let (cursor, shared) = (&cursor, &shared);
            scope.spawn(move || {
                let mut tr = trace_origin.map(|o| Tracer::new(o, client as u32 + 1));
                let mut lap = Lap::default();
                client_loop(ready, jobs, deadline, cursor, &mut lap, &mut tr);
                let mut all = shared.lock().expect("lap poisoned");
                all.samples.append(&mut lap.samples);
                all.errors.append(&mut lap.errors);
                all.problems.append(&mut lap.problems);
                if all.reference.is_none() {
                    all.reference = lap.reference;
                }
                if let Some(tr) = tr {
                    all.spans.extend(tr.into_spans());
                }
            });
        }
    });
    let mut lap = shared.into_inner().expect("lap poisoned");
    lap.wall_s = start.elapsed().as_secs_f64();
    lap
}

fn client_loop(
    ready: &Ready,
    jobs: &[Job],
    deadline: Option<Instant>,
    cursor: &AtomicUsize,
    lap: &mut Lap,
    tr: &mut Option<Tracer>,
) {
    // A traced call is a root span: one client interleaves two jobs, so
    // their spans do not nest; the job id ties them together.
    let call = |tr: &mut Option<Tracer>, name: &str, op: u64, m: &str, path: &str, body: &str| {
        let t0 = Instant::now();
        let r = http(&ready.addr, m, path, body);
        let t1 = Instant::now();
        if let Some(t) = tr {
            t.record(None, name, op, t0, t1);
        }
        (r, t1.duration_since(t0).as_secs_f64() * 1e3)
    };
    let mut inflight: Vec<InFlight> = Vec::new();
    loop {
        while inflight.len() < OUTSTANDING && deadline.is_none_or(|d| Instant::now() < d) {
            let job = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(j) = jobs.get(job) else { break };
            let body = Json::obj(vec![
                (
                    "input",
                    Json::str(ready.inputs[j.input].display().to_string()),
                ),
                ("delta", Json::num(j.delta)),
                ("priority", Json::str(j.priority.as_str())),
            ])
            .dump();
            let sent = Instant::now();
            let (r, submit_ms) = call(tr, "serve.submit", job as u64, "POST", "/jobs", &body);
            let name = match r {
                Ok((202, b)) => std::str::from_utf8(&b)
                    .ok()
                    .and_then(|b| json::parse(b).ok())
                    .and_then(|v| Some(v.get("id")?.as_str()?.to_string())),
                _ => None,
            };
            let id = name
                .as_deref()
                .and_then(|n| n.strip_prefix("job-")?.parse().ok());
            match (name, id) {
                (Some(name), Some(id)) => inflight.push(InFlight {
                    job,
                    name,
                    id,
                    sent,
                    submit_ms,
                    polls: 0,
                }),
                _ => {
                    lap.errors.push(format!("job {job}: submission refused"));
                    lap.samples.push(Sample {
                        id: 0,
                        ok: false,
                        latency_s: 0.0,
                        submit_ms,
                        fetch_ms: 0.0,
                        polls: 0,
                    });
                }
            }
        }
        if inflight.is_empty() {
            break;
        }
        let mut i = 0;
        while i < inflight.len() {
            let f = &mut inflight[i];
            f.polls += 1;
            let op = f.job as u64;
            let (r, _) = call(
                tr,
                "serve.poll",
                op,
                "GET",
                &format!("/jobs/{}", f.name),
                "",
            );
            let record = match r {
                Ok((200, b)) => std::str::from_utf8(&b)
                    .ok()
                    .and_then(|b| json::parse(b).ok()),
                _ => None,
            };
            let status = record
                .as_ref()
                .and_then(|v| v.get("status")?.as_str())
                .unwrap_or("unreachable");
            if matches!(status, "queued" | "running") {
                i += 1;
                continue;
            }
            let f = inflight.swap_remove(i);
            let mut sample = Sample {
                id: f.id,
                ok: false,
                latency_s: 0.0,
                submit_ms: f.submit_ms,
                fetch_ms: 0.0,
                polls: f.polls,
            };
            if status != "succeeded" {
                lap.errors.push(format!("{} ended {status}", f.name));
                lap.samples.push(sample);
                continue;
            }
            let tets = record.as_ref().and_then(|v| v.get("tets")?.as_f64());
            let path = format!("/jobs/{}/artifact", f.name);
            let (r, fetch_ms) = call(tr, "serve.artifact_fetch", op, "GET", &path, "");
            let done = Instant::now();
            sample.latency_s = done.duration_since(f.sent).as_secs_f64();
            sample.fetch_ms = fetch_ms;
            if let Some(t) = tr {
                t.record(None, "serve.job", op, f.sent, done);
            }
            match r {
                Ok((200, vtk)) if vtk_cell_count(&vtk).map(|c| c as f64) == tets => {
                    sample.ok = true;
                    let j = &jobs[f.job];
                    if (j.input, j.delta) == REFERENCE_JOB && lap.reference.is_none() {
                        lap.reference = Some(vtk);
                    }
                }
                Ok((200, vtk)) => lap.problems.push(format!(
                    "{}: artifact has {:?} cells, the record says {tets:?}",
                    f.name,
                    vtk_cell_count(&vtk)
                )),
                other => lap.errors.push(format!(
                    "{}: artifact fetch failed: {:?}",
                    f.name,
                    other.map(|(code, _)| code)
                )),
            }
            lap.samples.push(sample);
        }
        std::thread::sleep(POLL_INTERVAL);
    }
}

/// Server-side view of the lap's jobs, from the `JobRecord`s.
#[derive(Default)]
struct ServerSide {
    queue_wait_s: Vec<f64>,
    run_s: Vec<f64>,
    tets_per_s: Vec<f64>,
    artifact_write_s: Vec<f64>,
    /// Seconds per pipeline stage, summed over jobs.
    stage_s: Vec<(&'static str, f64)>,
}

fn server_side(ready: &Ready, lap: &Lap) -> ServerSide {
    let mut s = ServerSide::default();
    let records: Vec<JobRecord> = lap
        .samples
        .iter()
        .filter(|x| x.ok)
        .filter_map(|x| ready.svc.job(x.id))
        .filter(|r| r.status == JobStatus::Succeeded)
        .collect();
    for r in &records {
        let (Some(wait), Some(run), Some(tets)) = (r.queue_wait_s, r.run_s, r.tets) else {
            continue;
        };
        s.queue_wait_s.push(wait);
        s.run_s.push(run);
        s.tets_per_s.push(tets as f64 / run);
        let (mut last_stage, mut terminal) = (None, None);
        let mut started: Option<(&'static str, f64)> = None;
        for e in r.trace.events() {
            match &e.kind {
                TraceEventKind::StageStarted { stage, run_t_s } => {
                    started = Some((*stage, *run_t_s));
                }
                TraceEventKind::StageFinished { stage, run_t_s } => {
                    last_stage = Some(e.t_s);
                    if let Some((name, t0)) = started.take().filter(|(n, _)| n == stage) {
                        match s.stage_s.iter_mut().find(|(n, _)| *n == name) {
                            Some(slot) => slot.1 += run_t_s - t0,
                            None => s.stage_s.push((name, run_t_s - t0)),
                        }
                    }
                }
                TraceEventKind::Terminal { .. } => terminal = Some(e.t_s),
                _ => {}
            }
        }
        if let (Some(a), Some(b)) = (last_stage, terminal) {
            s.artifact_write_s.push(b - a);
        }
    }
    s
}

/// Fold a lap's failures into the result and return the latencies of its
/// good jobs.
fn account(lap: &Lap, res: &mut RunResult) -> Vec<f64> {
    res.attempted += lap.samples.len() as u64;
    res.failed += lap.samples.iter().filter(|s| !s.ok).count() as u64;
    res.notes.extend(lap.errors.iter().take(5).cloned());
    res.problems.extend(lap.problems.iter().take(5).cloned());
    lap.samples
        .iter()
        .filter(|s| s.ok)
        .map(|s| s.latency_s)
        .collect()
}

/// Quality and fidelity of the reference artifact against its input image.
fn check_reference(
    ready: &Ready,
    lap: &Lap,
    res: &mut RunResult,
    tr: Option<&mut Tracer>,
) -> Result<(FinalMesh, Quality), String> {
    let vtk = lap
        .reference
        .as_ref()
        .ok_or("no reference job completed in the measured section")?;
    let mesh = parse_vtk(vtk)?;
    let img = &ready.images[REFERENCE_JOB.0];
    let oracle = IsosurfaceOracle::new(img.clone(), 1);
    let limits = Limits {
        paper_bounds: true, // every job meshes at one thread
        hausdorff_ref_mm: REFERENCE_HAUSDORFF_MM,
    };
    let q = check_final_mesh(&mesh, img, &oracle, &limits, res, tr);
    Ok((mesh, q))
}

/// The untraced run: every end-to-end metric.
pub fn run(seed: u64, seconds: f64, started: Instant) -> Result<RunResult, String> {
    let mut res = RunResult::default();
    let ready = setup(None)?;
    let mut setups = vec![started.elapsed().as_secs_f64()];
    let jobs = job_list(seed, DECKS);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let lap = closed_loop(&ready, &jobs, Some(deadline), None);
    let latencies = account(&lap, &mut res);
    if latencies.is_empty() {
        return Err(format!("no job succeeded: {:?}", res.notes));
    }
    let server = server_side(&ready, &lap);
    let (_, q) = check_reference(&ready, &lap, &mut res, None)?;
    drop(ready);
    for _ in 1..spec::SETUPS_PER_RUN {
        let t0 = Instant::now();
        let again = setup(None)?;
        setups.push(t0.elapsed().as_secs_f64());
        // Tearing down is not setting up: draining the service joins its
        // watchdog, which wakes every 100 ms.
        drop(again);
    }

    res.set_summary("setup_s", stats::summary(&setups));
    // The mesh call of a job is what the service times as `run_s`.
    res.set_summary("mesh_wall_s", stats::summary(&server.run_s));
    res.set_summary("tets_per_s", stats::summary(&server.tets_per_s));
    // Every job meshes on a one-thread session: its own baseline.
    res.set("parallel_efficiency", 1.0);
    res.set("peak_rss_mb", host::peak_rss_mb()?);
    res.set("max_radius_edge", q.max_radius_edge);
    res.set("min_boundary_angle_deg", q.min_boundary_angle_deg);
    res.set("hausdorff_mm", q.hausdorff_mm);
    res.set_summary("serve_latency_s_p50", stats::summary(&latencies));
    res.set("serve_latency_s_p90", stats::tail(&latencies, 90));
    res.set("serve_jobs_per_s", latencies.len() as f64 / lap.wall_s);
    eprintln!(
        "serve-mix: {} jobs in {:.2} s, tail read at p{}",
        latencies.len(),
        lap.wall_s,
        stats::tail_percentile(latencies.len(), 90)
    );
    Ok(res)
}

/// The traced run: the `serve`, `image`, `meshio` and `quality` ledgers,
/// the engine's stage split as the job traces report it, and the span file.
pub fn run_traced(seed: u64, seconds: f64) -> Result<RunResult, String> {
    let mut res = RunResult::default();
    let origin = Instant::now();
    let mut tr = Tracer::new(origin, 0);
    let setup_span = tr.begin("setup", 0);
    let ready = setup(Some(&mut tr))?;
    tr.end(setup_span);
    let jobs = job_list(seed, DECKS);

    // An untraced lap, then a traced one over the jobs that follow it.
    let lap_for = |from: usize, origin: Option<Instant>| {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds * 0.3);
        closed_loop(&ready, &jobs[from..], Some(deadline), origin)
    };
    let plain = lap_for(0, None);
    let plain_latencies = account(&plain, &mut res);
    let lap = lap_for(plain.samples.len(), Some(origin));
    let latencies = account(&lap, &mut res);
    if latencies.is_empty() || plain_latencies.is_empty() {
        return Err(format!("no job succeeded: {:?}", res.notes));
    }
    res.set(
        "trace.overhead_frac",
        stats::median(&latencies) / stats::median(&plain_latencies) - 1.0,
    );

    let good: Vec<&Sample> = lap.samples.iter().filter(|s| s.ok).collect();
    let pick = |f: fn(&Sample) -> f64| -> Vec<f64> { good.iter().map(|s| f(s)).collect() };
    res.set("serve.submit_ms_p50", stats::median(&pick(|s| s.submit_ms)));
    res.set(
        "serve.artifact_fetch_ms_p50",
        stats::median(&pick(|s| s.fetch_ms)),
    );
    res.set(
        "serve.polls_per_job",
        pick(|s| s.polls as f64).iter().sum::<f64>() / good.len() as f64,
    );
    let server = server_side(&ready, &lap);
    res.set(
        "serve.queue_wait_s_p50",
        stats::median(&server.queue_wait_s),
    );
    res.set(
        "serve.queue_wait_s_p90",
        stats::tail(&server.queue_wait_s, 90),
    );
    res.set("serve.run_s_p50", stats::median(&server.run_s));
    res.set(
        "serve.artifact_write_s_p50",
        stats::median(&server.artifact_write_s),
    );
    res.set("serve.shed", ready.svc.counter(m::SERVE_JOBS_SHED) as f64);
    res.set(
        "serve.retries",
        ready.svc.counter(m::SERVE_JOB_RETRIES) as f64,
    );
    let run_total: f64 = server.run_s.iter().sum();
    res.set(
        "serve.slot_busy_frac",
        run_total / (ready.sessions as f64 * lap.wall_s),
    );

    // The engine's stages, per job on average, as the job traces saw them;
    // their sum against the service's own `run_s` is the stage ledger.
    let n = server.run_s.len() as f64;
    let mut stage_total = 0.0;
    for (stage, total) in &server.stage_s {
        stage_total += total;
        res.set(&format!("refine.stage.{stage}_s"), total / n);
        if *stage == "edt" {
            res.set("edt.stage_s", total / n);
        }
    }
    let frac = stage_total / run_total;
    res.set("refine.stage_sum_frac", frac);
    if server.stage_s.len() != 7 || (frac - 1.0).abs() > 0.02 {
        res.problem(format!(
            "ledger: {} stages cover {frac:.4} of the jobs' run_s (want 7 within 2%)",
            server.stage_s.len()
        ));
    }
    // A client cannot see a job finish before the service ran it.
    for s in &good {
        let Some(r) = ready.svc.job(s.id) else {
            continue;
        };
        let inside = r.queue_wait_s.unwrap_or(0.0) + r.run_s.unwrap_or(0.0);
        if s.latency_s < inside {
            res.problem(format!(
                "ledger: job-{} took {:.4} s at the client but {inside:.4} s in the service",
                s.id, s.latency_s
            ));
        }
    }

    let span_s = |tr: &Tracer, name: &str| tr.first(name).map_or(0.0, |s| s.dur_s());
    res.set("image.generate_s", span_s(&tr, "image.generate"));
    res.set("refine.session_new_s", span_s(&tr, "refine.session_new"));
    res.set(
        "image.voxels",
        ready.images.iter().map(|i| i.num_voxels()).sum::<usize>() as f64,
    );
    let (loaded, load_s) = tr.time("image.pim_load", 0, || {
        ready
            .inputs
            .iter()
            .map(image_io::load)
            .filter(Result::is_ok)
            .count()
    });
    if loaded != ready.inputs.len() {
        res.problem("a .pim input did not load back");
    }
    res.set("image.pim_load_s", load_s / ready.inputs.len() as f64);

    let (mesh, _) = check_reference(&ready, &lap, &mut res, Some(&mut tr))?;
    layers::write_vtk(&mut tr, &mut res, &mesh);

    let mut spans = tr.into_spans();
    spans.extend(lap.spans);
    if let Err(e) = span::check_self_times(&spans) {
        res.problem(format!("ledger: {e}"));
    }
    let path = host::out_dir().join(format!("trace-{NAME}.json"));
    span::write_chrome_trace(&path, &spans)?;
    eprintln!("spans: {} -> {}", spans.len(), path.display());
    Ok(res)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_one_job_list_and_another_seed_another() {
        let a = job_list(spec::DEFAULT_SEED, 4);
        assert_eq!(a, job_list(spec::DEFAULT_SEED, 4));
        assert_ne!(a, job_list(spec::HELD_OUT_SEED, 4));
        assert_eq!(a.len(), 4 * DECK.len());
        // every deck carries the same work and the same priorities
        for deck in a.chunks(DECK.len()) {
            let mut kinds: Vec<(usize, u64)> =
                deck.iter().map(|j| (j.input, j.delta.to_bits())).collect();
            kinds.sort_unstable();
            let mut want: Vec<(usize, u64)> = DECK.iter().map(|&(i, d)| (i, d.to_bits())).collect();
            want.sort_unstable();
            assert_eq!(kinds, want);
            for (p, n) in DECK_PRIORITIES {
                assert_eq!(deck.iter().filter(|j| j.priority == p).count(), n);
            }
        }
        assert!(DECK.contains(&REFERENCE_JOB));
    }

    #[test]
    fn vtk_cell_count_and_round_trip() {
        assert_eq!(
            vtk_cell_count(b"# vtk\nPOINTS 4 double\nCELLS 12 60\n4 0 1 2 3\n"),
            Some(12)
        );
        assert_eq!(vtk_cell_count(b"# vtk\nPOINTS 4 double\n"), None);
        assert_eq!(vtk_cell_count(b"CELLS many\n"), None);
        let mesh = FinalMesh {
            points: vec![
                Point3::new(0.0, 0.0, 0.0),
                Point3::new(1.0, 0.0, 0.0),
                Point3::new(0.0, 1.0, 0.0),
                Point3::new(0.0, 0.0, 1.5),
            ],
            point_kinds: vec![VertexKind::Circumcenter; 4],
            tets: vec![[0, 1, 2, 3]],
            labels: vec![3],
        };
        let mut vtk = Vec::new();
        pi2m::meshio::write_vtk(&mesh, &mut vtk).unwrap();
        assert_eq!(vtk_cell_count(&vtk), Some(1));
        let back = parse_vtk(&vtk).unwrap();
        assert_eq!(back.points, mesh.points);
        assert_eq!((back.tets, back.labels), (mesh.tets, mesh.labels));
        assert!(parse_vtk(b"# vtk\nPOINTS 1 double\n0 0\n").is_err());
    }
}
