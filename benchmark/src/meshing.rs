//! The six meshing workloads: synthesise the image, build a warm session,
//! then time whole image→mesh calls from outside.

use crate::checks::{check_final_mesh, Limits, Quality};
use crate::host;
use crate::layers;
use crate::report::RunResult;
use crate::span::{self, timed, Tracer};
use crate::spec;
use crate::stats;
use pi2m::image::{phantoms, LabeledImage};
use pi2m::obs::attribution::attribute;
use pi2m::refine::{
    audit_mesh, mesh_sharded, CancelToken, ChunkRun, MeshOutput, MesherConfig, MeshingSession,
    RunOptions, ShardSpec, Stage, StageCallback, StageEvent, StageStatus,
};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// One-thread session; every rep is one `mesh` call.
    OneThread,
    /// Session of host width; every rep is a (1 thread, T threads) pair.
    Interleaved,
    /// `mesh_sharded` over a 2×1×1 grid, stitch at host width.
    Sharded,
}

/// Flight-ring capacity (events per worker) of the traced run. The default
/// ring keeps the newest 16 Ki events and a one-thread run of these inputs
/// emits several times that, so an attribution read off it misses most of
/// the run; every call of the traced run gets a ring that holds all of it.
const TRACED_FLIGHT_CAPACITY: usize = 1 << 18;

/// A mesh call that overstays this is cancelled and counted as failed. At
/// two threads the engine has been seen, once in some four hundred calls, to
/// refine without end (memory growing, both workers busy); a run must report that
/// as a failed operation, not hang. Polling a deadline token costs one clock
/// read per operation, the same token `pi2m serve` gives every job.
const CALL_DEADLINE: Duration = Duration::from_secs(30);

pub struct MeshWorkload {
    pub name: &'static str,
    image: fn() -> LabeledImage,
    delta: f64,
    removals: bool,
    kind: Kind,
    /// `hausdorff_mm` of this workload's mesh at the seed commit.
    hausdorff_ref_mm: f64,
    /// The traced run also measures `obs.flight_overhead_frac` here.
    flight_pairs: bool,
}

const WORKLOADS: &[MeshWorkload] = &[
    MeshWorkload {
        name: "abdominal-1t",
        image: || phantoms::abdominal(1.0),
        delta: 1.0,
        removals: true,
        kind: Kind::OneThread,
        hausdorff_ref_mm: 4.05,
        flight_pairs: false,
    },
    MeshWorkload {
        name: "abdominal-noR6-1t",
        image: || phantoms::abdominal(1.0),
        delta: 1.0,
        removals: false,
        kind: Kind::OneThread,
        hausdorff_ref_mm: 4.05,
        flight_pairs: false,
    },
    MeshWorkload {
        name: "sphere-fine-1t",
        image: || phantoms::sphere(32, 1.0),
        delta: 0.5,
        removals: true,
        kind: Kind::OneThread,
        hausdorff_ref_mm: 2.41,
        flight_pairs: true,
    },
    MeshWorkload {
        name: "headneck-hires-coarse-1t",
        image: || phantoms::head_neck(4.0),
        delta: 4.0,
        removals: true,
        kind: Kind::OneThread,
        hausdorff_ref_mm: 5.19,
        flight_pairs: false,
    },
    MeshWorkload {
        name: "abdominal-mt",
        image: || phantoms::abdominal(1.0),
        delta: 1.0,
        removals: true,
        kind: Kind::Interleaved,
        hausdorff_ref_mm: 4.05,
        flight_pairs: false,
    },
    MeshWorkload {
        name: "knee-sharded",
        image: || phantoms::knee(1.0),
        delta: 1.0,
        removals: true,
        kind: Kind::Sharded,
        hausdorff_ref_mm: 3.27,
        flight_pairs: false,
    },
];

pub fn find(name: &str) -> Option<&'static MeshWorkload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Shard bookkeeping of one `mesh_sharded` call.
pub struct ShardLedger {
    pub chunks: Vec<ChunkRun>,
    pub seed_points: u64,
    pub lanes: usize,
}

/// One timed image→mesh call.
pub struct Call {
    pub wall_s: f64,
    pub out: MeshOutput,
    pub shard: Option<ShardLedger>,
    /// Stage intervals seen by the stage callback (traced calls only).
    pub stages: Vec<(Stage, Instant, Instant)>,
}

/// Image, warm session and config of one set-up.
pub struct Ready {
    pub img: LabeledImage,
    session: MeshingSession,
    /// Width of the session: 1, or the host width for the wide workloads.
    pub width: usize,
    /// `MesherConfig::flight_capacity` and `::flight` of every call on this
    /// set-up; the recorder is on except in the recorder-overhead pairs.
    flight_capacity: usize,
    pub flight: bool,
}

impl Call {
    fn tets_per_s(&self) -> f64 {
        self.out.mesh.num_tets() as f64 / self.wall_s
    }

    /// Share of the chunk phase's lane-seconds spent meshing chunks.
    fn lane_occupancy(&self) -> Option<f64> {
        let lanes = self.shard.as_ref()?.lanes as f64;
        let chunks = || self.out.phases.iter().filter(|s| s.name == "shard_chunk");
        let busy: f64 = chunks().map(|s| s.dur_s).sum();
        let start = chunks().map(|s| s.start_s).fold(f64::INFINITY, f64::min);
        let end = chunks().map(|s| s.start_s + s.dur_s).fold(0.0, f64::max);
        Some(busy / (lanes * (end - start)))
    }
}

impl MeshWorkload {
    pub fn config(&self, threads: usize) -> MesherConfig {
        MesherConfig {
            delta: self.delta,
            threads,
            enable_removals: self.removals,
            ..Default::default()
        }
    }

    fn width(&self) -> usize {
        match self.kind {
            Kind::OneThread => 1,
            // A one-core host still runs the wide workloads two wide, so
            // that they report something; the fingerprint shows nproc=1.
            Kind::Interleaved | Kind::Sharded => host::host_threads().max(2),
        }
    }

    /// Input synthesis, session creation and one discarded warm-up call.
    /// The phantom is the same for every seed: runs on different seeds must
    /// carry equal work to be comparable, and a perturbed image does not (a
    /// sub-voxel shift of the origin alone moves the tet count by up to 6%).
    fn setup(&self, mut tr: Option<&mut Tracer>) -> Result<Ready, String> {
        let img = timed(&mut tr, "image.generate", self.image);
        let width = self.width();
        let session = timed(&mut tr, "refine.session_new", || MeshingSession::new(width));
        let flight_capacity = match tr {
            Some(_) => TRACED_FLIGHT_CAPACITY,
            None => MesherConfig::default().flight_capacity,
        };
        let mut ready = Ready {
            img,
            session,
            width,
            flight_capacity,
            flight: true,
        };
        timed(&mut tr, "refine.warmup", || {
            self.call(&mut ready, width, None)
        })?;
        Ok(ready)
    }

    /// One image→`FinalMesh` call at `threads`, timed from outside. With a
    /// tracer the call runs with `RunOptions.on_stage` set and is recorded
    /// as a span with one child per pipeline stage.
    pub fn call(
        &self,
        ready: &mut Ready,
        threads: usize,
        traced: Option<(&mut Tracer, u64)>,
    ) -> Result<Call, String> {
        let img = ready.img.clone();
        let cfg = MesherConfig {
            flight_capacity: ready.flight_capacity,
            flight: ready.flight,
            ..self.config(threads)
        };
        let events: Arc<Mutex<Vec<(StageEvent, Instant)>>> = Arc::default();
        let on_stage = traced.is_some().then(|| -> StageCallback {
            let sink = Arc::clone(&events);
            Arc::new(move |e: StageEvent| {
                sink.lock()
                    .expect("stage sink poisoned")
                    .push((e, Instant::now()));
            })
        });
        let opts = RunOptions {
            cancel: Some(CancelToken::with_deadline(CALL_DEADLINE)),
            on_stage,
        };
        let mut traced = traced;
        let open = traced.as_mut().map(|(t, op)| t.begin("refine.mesh", *op));
        let t0 = Instant::now();
        let result = match self.kind {
            Kind::Sharded => {
                let spec = ShardSpec {
                    lanes: Some(host::nproc().min(2)),
                    ..ShardSpec::new([2, 1, 1])
                };
                mesh_sharded(&mut ready.session, img, cfg, &opts, &spec)
                    .map(|run| {
                        let ledger = ShardLedger {
                            chunks: run.chunks,
                            seed_points: run.seed_points,
                            lanes: run.lanes,
                        };
                        (run.out, Some(ledger))
                    })
                    .map_err(|e| e.to_string())
            }
            _ => ready
                .session
                .mesh_with(img, cfg, &opts)
                .map(|out| (out, None))
                .map_err(|e| e.to_string()),
        };
        let wall_s = t0.elapsed().as_secs_f64();
        let mut stages = Vec::new();
        if let (Some((t, op)), Some(open)) = (traced, open) {
            let events = events.lock().expect("stage sink poisoned");
            for (e, at) in events
                .iter()
                .filter(|(e, _)| e.status == StageStatus::Finished)
            {
                let started = events
                    .iter()
                    .find(|(s, _)| s.stage == e.stage && s.status == StageStatus::Started)
                    .map(|(_, at)| *at)
                    .ok_or_else(|| format!("stage {} finished but never started", e.stage))?;
                let name = format!("refine.stage.{}", e.stage.phase_name());
                t.record(Some(open), &name, op, started, *at);
                stages.push((e.stage, started, *at));
            }
            t.end(open);
        }
        let (out, shard) = result?;
        Ok(Call {
            wall_s,
            out,
            shard,
            stages,
        })
    }

    /// The untraced run: every end-to-end metric.
    pub fn run(&self, seed: u64, seconds: f64, started: Instant) -> Result<RunResult, String> {
        let mut res = RunResult::default();
        let mut ready = self.setup(None)?;
        let mut setups = vec![started.elapsed().as_secs_f64()];
        let width = ready.width;

        // Timed section. `walls` and `rates` are the reps at the workload's
        // own width; the interleaved workload also keeps the 1-thread side
        // of each pair.
        let (mut walls, mut rates, mut efficiency) = (Vec::new(), Vec::new(), Vec::new());
        let mut peaks = Vec::new();
        let mut tets_seen: Option<usize> = None;
        let mut last: Option<Call> = None;
        let section = Instant::now();
        let mut rep_cost = 0.0f64;
        while walls.len() < 3 || section.elapsed().as_secs_f64() + rep_cost <= seconds {
            let rep_start = Instant::now();
            let mut widths = match self.kind {
                Kind::Interleaved => vec![1, width],
                _ => vec![width],
            };
            if walls.len() % 2 == 1 {
                widths.reverse(); // alternate which side of the pair goes first
            }
            let mut pair_rates = Vec::new();
            for threads in widths {
                res.attempted += 1;
                // Drop the kept output before making its successor, or peak
                // memory depends on when the allocator reuses it.
                if threads == width {
                    last = None;
                }
                let marked = host::reset_peak_rss();
                let call = match self.call(&mut ready, threads, None) {
                    Ok(call) => call,
                    Err(e) => {
                        res.op_failed(format!("mesh call failed: {e}"));
                        continue;
                    }
                };
                pair_rates.push((threads, call.tets_per_s()));
                if threads != width {
                    continue;
                }
                // One thread is deterministic: every rep must give the same mesh.
                if self.kind == Kind::OneThread {
                    let n = call.out.mesh.num_tets();
                    if *tets_seen.get_or_insert(n) != n {
                        res.failed += 1;
                        res.problem(format!("tet count changed between reps: {n}"));
                    }
                }
                walls.push(call.wall_s);
                rates.push(call.tets_per_s());
                efficiency.extend(call.lane_occupancy());
                if marked {
                    peaks.push(host::peak_rss_mb()?);
                }
                last = Some(call);
            }
            if let [(a, ra), (_, rb)] = pair_rates[..] {
                let (one, wide) = if a == 1 { (ra, rb) } else { (rb, ra) };
                efficiency.push(wide / (width as f64 * one));
            }
            rep_cost = rep_start.elapsed().as_secs_f64();
            if res.failed > 0 && walls.len() < 3 && res.attempted >= 6 {
                break; // nothing works; report instead of looping
            }
        }
        let last = last.ok_or("no mesh call succeeded")?;

        // Correctness and quality, on the last rep, outside the timed section.
        let q = check_mesh(self, &ready.img, &last.out, seed, &mut res, None);
        drop(last);
        drop(ready);

        // Further set-ups, so that setup_s is a median within the run.
        for _ in 1..spec::SETUPS_PER_RUN {
            let t0 = Instant::now();
            let again = self.setup(None)?;
            setups.push(t0.elapsed().as_secs_f64());
            drop(again); // tearing down is not setting up
        }

        res.set_summary("setup_s", stats::summary(&setups));
        // The call's wall is read off the fastest timed call, not the
        // median one. At one thread every call does identical work, so what
        // differs between calls is the host, and a shared host only ever
        // adds time: the fastest of a run's calls moves less from run to
        // run than their median does (README, "Steadiness"). At T threads
        // the schedules differ too, and now and then a call refines a mesh
        // several times the usual size; the fastest call is the usual mesh
        // in the quietest moment, and `tets_per_s` is that same call's
        // rate. The table prints median, quartiles and extremes beside both.
        let (wall, rate) = (stats::summary(&walls), stats::summary(&rates));
        let fastest = (0..walls.len())
            .min_by(|&a, &b| walls[a].total_cmp(&walls[b]))
            .expect("at least one timed call");
        res.set_from("mesh_wall_s", wall.min, wall);
        res.set_from("tets_per_s", rates[fastest], rate);
        match self.kind {
            // One thread is its own baseline.
            Kind::OneThread => res.set("parallel_efficiency", 1.0),
            _ => res.set_summary("parallel_efficiency", stats::summary(&efficiency)),
        }
        // Peak resident set while one call runs: the run's overall peak is
        // the worst call's and grows with the number of calls. The smallest
        // of the calls' peaks, because the mark can only be reset to what
        // is resident, and after an outsized call that is the memory the
        // allocator kept, not what the next call needs. Where the mark
        // cannot be reset, the overall peak.
        if peaks.is_empty() {
            res.set("peak_rss_mb", host::peak_rss_mb()?);
        } else {
            let peak = stats::summary(&peaks);
            res.set_from("peak_rss_mb", peak.min, peak);
        }
        res.set("max_radius_edge", q.max_radius_edge);
        res.set("min_boundary_angle_deg", q.min_boundary_angle_deg);
        res.set("hausdorff_mm", q.hausdorff_mm);
        // A mesh call is this workload's job: its latency is the call's wall.
        res.set("serve_latency_s_p50", wall.min);
        res.set("serve_latency_s_p90", wall.min);
        res.set("serve_jobs_per_s", 1.0 / wall.min);
        Ok(res)
    }

    /// The traced run: every per-layer metric this workload's layers give,
    /// the ledger invariants, and the span file.
    pub fn run_traced(&self, seed: u64, seconds: f64) -> Result<RunResult, String> {
        let mut res = RunResult::default();
        let mut tr = Tracer::new(Instant::now(), 0);
        let setup = tr.begin("setup", 0);
        let mut ready = self.setup(Some(&mut tr))?;
        tr.end(setup);
        let width = ready.width;

        // Pairs of an untraced and a traced call, in alternating order;
        // their ratio is the tracing overhead, and the last traced call
        // feeds the ledger and the replays.
        let (mut plain, mut traced_walls, mut coverage) = (Vec::new(), Vec::new(), Vec::new());
        let mut last: Option<Call> = None;
        let section = Instant::now();
        let mut pair_cost = 0.0;
        while last.is_none() || section.elapsed().as_secs_f64() + pair_cost <= seconds * 0.8 {
            let pair_start = Instant::now();
            let op = traced_walls.len() as u64 + 1;
            let mut order = [false, true];
            if op.is_multiple_of(2) {
                order.reverse();
            }
            for traced in order {
                res.attempted += 1;
                let tracer = traced.then_some((&mut tr, op));
                match self.call(&mut ready, width, tracer) {
                    Ok(c) if traced => {
                        traced_walls.push(c.wall_s);
                        coverage.push(stage_coverage(&c));
                        last = Some(c);
                    }
                    Ok(c) => plain.push(c.wall_s),
                    Err(e) => res.op_failed(format!("mesh call failed: {e}")),
                }
            }
            pair_cost = pair_start.elapsed().as_secs_f64();
            if res.failed >= 4 {
                break;
            }
        }
        let call = last.ok_or("no traced mesh call succeeded")?;
        if !plain.is_empty() {
            res.set(
                "trace.overhead_frac",
                stats::median(&traced_walls) / stats::median(&plain) - 1.0,
            );
        }

        // Ledger: the seven stage spans sum to the call's wall within 2%.
        // A step the stages miss would show in every call, a stall of the
        // host between two stages in one, so the best-covered call decides.
        let best = coverage
            .iter()
            .copied()
            .min_by(|a, b| (a - 1.0).abs().total_cmp(&(b - 1.0).abs()))
            .unwrap_or(0.0);
        if call.stages.len() != Stage::ALL.len() || (best - 1.0).abs() > 0.02 {
            res.problem(format!(
                "ledger: {} stage spans cover {best:.4} of the call's wall (want 7 within 2%)",
                call.stages.len()
            ));
        }
        engine_ledger(&call, width, &mut res);
        let span_s = |name: &str| tr.first(name).map_or(0.0, |s| s.dur_s());
        res.set("image.generate_s", span_s("image.generate"));
        res.set("refine.session_new_s", span_s("refine.session_new"));
        res.set("image.voxels", ready.img.num_voxels() as f64);

        let cfg = self.config(width);
        layers::kernel_layers(&mut tr, &mut res, &ready.img, &call.out, &cfg, seed);
        if self.flight_pairs {
            layers::flight_overhead(self, &mut ready, seconds * 0.3, &mut res)?;
        }
        check_mesh(self, &ready.img, &call.out, seed, &mut res, Some(&mut tr));

        let spans = tr.into_spans();
        if let Err(e) = span::check_self_times(&spans) {
            res.problem(format!("ledger: {e}"));
        }
        let path = host::out_dir().join(format!("trace-{}.json", self.name));
        span::write_chrome_trace(&path, &spans)?;
        eprintln!("spans: {} -> {}", spans.len(), path.display());
        Ok(res)
    }
}

/// The correctness check of one mesh call's output: the triangulation's
/// audit, then the checks every produced mesh goes through.
fn check_mesh(
    w: &MeshWorkload,
    img: &LabeledImage,
    out: &MeshOutput,
    seed: u64,
    res: &mut RunResult,
    tr: Option<&mut Tracer>,
) -> Quality {
    let audit = audit_mesh(&out.shared, seed);
    if !audit.clean() {
        res.problem(audit.summary());
    }
    let limits = Limits {
        paper_bounds: w.kind == Kind::OneThread,
        hausdorff_ref_mm: w.hausdorff_ref_mm,
    };
    check_final_mesh(&out.mesh, img, &out.oracle, &limits, res, tr)
}

/// Share of a traced call's wall that its stage spans cover. A sharded call
/// runs the seven stages in its stitch pass only; what precedes the stitch
/// (split, chunk phase, seed gathering) is on the sharded run's own clock in
/// `out.phases`.
fn stage_coverage(call: &Call) -> f64 {
    let stages: f64 = call
        .stages
        .iter()
        .map(|(_, start, end)| end.duration_since(*start).as_secs_f64())
        .sum();
    let phases = &call.out.phases;
    let before_stitch = phases
        .iter()
        .find(|s| s.name == "shard_stitch")
        .map_or(0.0, |s| s.start_s);
    (before_stitch + stages) / call.wall_s
}

/// `refine.engine` and `refine.shard` metrics of the traced call, and the
/// ledger invariant that each worker's attribution buckets sum to that
/// worker's wall.
fn engine_ledger(call: &Call, threads: usize, res: &mut RunResult) {
    let out = &call.out;
    for (stage, start, end) in &call.stages {
        let s = end.duration_since(*start).as_secs_f64();
        res.set(&format!("refine.stage.{}_s", stage.phase_name()), s);
        if *stage == Stage::Edt {
            res.set("edt.stage_s", s);
        }
    }
    res.set("refine.stage_sum_frac", stage_coverage(call));

    let att = attribute(&out.flight, threads, out.stats.wall_time);
    for wk in &att.per_worker {
        if (wk.total_s() - att.wall_s).abs() > 0.02 * att.wall_s {
            res.problem(format!(
                "ledger: worker {} buckets sum to {:.4} s of a {:.4} s wall",
                wk.tid,
                wk.total_s(),
                att.wall_s
            ));
        }
    }
    let sum =
        |f: fn(&pi2m::obs::WorkerAttribution) -> f64| -> f64 { att.per_worker.iter().map(f).sum() };
    // Summed over workers. The attribution calls the remainder `idle`; a
    // lone worker is never idle, it is classifying, querying the oracle and
    // popping its PEL between operations, so the ledger names it that.
    res.set("refine.op_committed_s", sum(|a| a.committed_s));
    res.set("refine.between_ops_s", sum(|a| a.idle_s));
    res.set("refine.rolled_back_s", sum(|a| a.rolled_back_s));
    res.set("refine.cm_park_s", sum(|a| a.cm_park_s));
    res.set("refine.beg_park_s", sum(|a| a.beg_park_s));
    res.set("refine.steal_donate_s", sum(|a| a.steal_donate_s));

    let per = &out.stats.per_thread;
    let total =
        |f: fn(&pi2m::refine::ThreadStats) -> u64| -> f64 { per.iter().map(f).sum::<u64>() as f64 };
    let (ins, rem, rb) = (
        total(|t| t.insertions),
        total(|t| t.removals),
        total(|t| t.rollbacks),
    );
    res.set("refine.ops_insertions", ins);
    res.set("refine.ops_removals", rem);
    res.set("refine.ops_skipped", total(|t| t.skipped));
    res.set("refine.removal_frac", rem / (ins + rem).max(1.0));
    res.set("refine.cells_created", total(|t| t.cells_created));
    res.set("refine.rollbacks", rb);
    res.set("refine.rollback_frac", rb / (ins + rem + rb).max(1.0));
    res.set("refine.donations", total(|t| t.donations_made));

    if let Some(sh) = &call.shard {
        let phase_s = |name: &str| {
            let found = out.phases.iter().find(|s| s.name == name);
            found.map_or(0.0, |s| s.dur_s)
        };
        let walls: Vec<f64> = sh.chunks.iter().map(|c| c.wall_s).collect();
        let sum: f64 = walls.iter().sum();
        let max = walls.iter().copied().fold(0.0, f64::max);
        res.set("shard.split_s", phase_s("shard_split"));
        res.set("shard.chunk_wall_s_sum", sum);
        res.set("shard.chunk_wall_s_max", max);
        res.set("shard.lane_imbalance", max / (sum / walls.len() as f64));
        res.set("shard.seed_points", sh.seed_points as f64);
        res.set("shard.stitch_s", phase_s("shard_stitch"));
        res.set(
            "shard.stitch_ops",
            out.metrics
                .counter(pi2m::obs::metrics::SHARD_STITCH_INSERTIONS) as f64,
        );
    }
}
