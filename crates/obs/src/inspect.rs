//! Offline inspection of saved observability artifacts: load a `--report`
//! run report or a `--contention-out` contention dump back from disk, render
//! a human-readable attribution / hot-spot summary, and diff two runs to
//! attribute a throughput regression to a specific waste category.
//!
//! Drives `pi2m analyze` (see the CLI); kept in the library so the loader
//! and renderers are unit-tested and reusable (e.g. by a future live
//! telemetry endpoint).
//!
//! The loader is deliberately lenient: every field is optional and missing
//! ones read as zero/empty, so older artifacts (schema v1/v2 reports without
//! a `time_attribution` section) still load and render — their attribution
//! table simply says it was not recorded.

use crate::attribution::{Category, TimeAttribution};
use crate::json::{parse, Json};
use std::fmt::Write as _;

/// What kind of artifact a JSON file turned out to be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArtifactKind {
    /// A `--report` run report (`RunReport::to_json`).
    RunReport,
    /// A standalone `--contention-out` dump (`ContentionReport::to_json`).
    Contention,
    /// A per-job lifecycle trace saved from `GET /jobs/<id>/trace`.
    JobTrace,
}

impl ArtifactKind {
    pub fn name(self) -> &'static str {
        match self {
            ArtifactKind::RunReport => "run report",
            ArtifactKind::Contention => "contention dump",
            ArtifactKind::JobTrace => "job trace",
        }
    }
}

/// Lenient view of a served job's lifecycle trace. Every field degrades:
/// a trace fetched while the job is still queued has no checkout, stage,
/// or terminal events yet, and the renderer must say "not recorded"
/// rather than erroring.
#[derive(Clone, Debug, Default)]
pub struct TraceInfo {
    /// Job id the service assigned (`"?"` when absent).
    pub id: String,
    pub schema_version: u64,
    /// Events present in the artifact (after any server-side capping).
    pub events: u64,
    /// Events the service dropped past its per-job cap.
    pub dropped: u64,
    /// Seconds the job sat queued, when a `queue_wait` event was recorded.
    pub queue_wait_s: Option<f64>,
    /// Session checkouts (one per attempt), with their session generations.
    pub checkouts: Vec<u64>,
    /// Backoff pauses between retried attempts.
    pub backoffs: u64,
    /// One line per failed attempt: `kind (class, retried|gave up)`.
    pub failures: Vec<String>,
    /// Completed stages as `(name, seconds)` in completion order, paired
    /// from `stage_started`/`stage_finished` events on the run clock.
    pub stages: Vec<(String, f64)>,
    /// Per-chunk spans of a sharded job.
    pub shard_chunks: u64,
    /// `(status, t_s)` of the terminal event, `None` while non-terminal.
    pub terminal: Option<(String, f64)>,
}

impl TraceInfo {
    /// The completed stage that consumed the most run time.
    pub fn dominant_stage(&self) -> Option<(&str, f64)> {
        self.stages
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(n, s)| (n.as_str(), *s))
    }
}

/// Lenient view of a run report's sharded-run section. Every field is
/// optional on disk: a run cancelled mid-shard (or written by a newer tool)
/// may carry the section header without per-chunk accounting, and the
/// renderer must degrade to "not recorded" rather than erroring.
#[derive(Clone, Debug, Default)]
pub struct ShardInfo {
    /// Chunk grid as `AxBxC`, or `"?"` when absent.
    pub grid: String,
    pub halo: u64,
    pub lanes: u64,
    pub seed_points: u64,
    /// Per-chunk `(tets, wall_s)` in plan order; `None` when the report was
    /// cut short before chunk accounting was written.
    pub chunks: Option<Vec<(u64, f64)>>,
}

/// Batched-kernel counters of a schema v5+ run report (the `pred_batch_*`
/// and `scratch_soa_*` entries of the counter catalog). Kept as raw counts;
/// the derived rates live in the methods so the renderer and any future
/// consumer agree on the arithmetic.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchKernelInfo {
    /// Wide-lane orient3d waves evaluated by the batched filter.
    pub orient_batches: u64,
    /// orient3d lanes evaluated through those waves.
    pub orient_lanes: u64,
    /// orient3d lanes that fell back to the scalar cascade.
    pub orient_fallbacks: u64,
    /// Wide-lane insphere waves evaluated by the batched filter.
    pub insphere_batches: u64,
    /// insphere lanes evaluated through those waves.
    pub insphere_lanes: u64,
    /// insphere lanes that fell back to the scalar cascade.
    pub insphere_fallbacks: u64,
    /// SoA staging waves gathered from the vertex pool.
    pub soa_gathers: u64,
    /// Points copied into SoA staging buffers across all gathers.
    pub soa_points: u64,
}

impl BatchKernelInfo {
    /// Mean occupied lanes per wave across both predicates.
    pub fn lanes_per_wave(&self) -> f64 {
        let waves = self.orient_batches + self.insphere_batches;
        if waves == 0 {
            0.0
        } else {
            (self.orient_lanes + self.insphere_lanes) as f64 / waves as f64
        }
    }

    /// Fraction of batched lanes that fell back to the scalar cascade.
    pub fn fallback_rate(&self) -> f64 {
        let lanes = self.orient_lanes + self.insphere_lanes;
        if lanes == 0 {
            0.0
        } else {
            (self.orient_fallbacks + self.insphere_fallbacks) as f64 / lanes as f64
        }
    }

    /// Mean points gathered per SoA staging wave.
    pub fn points_per_gather(&self) -> f64 {
        if self.soa_gathers == 0 {
            0.0
        } else {
            self.soa_points as f64 / self.soa_gathers as f64
        }
    }
}

/// The loaded, shape-normalized view of one artifact: the fields the
/// renderer and differ need, regardless of which artifact kind carried them.
#[derive(Clone, Debug)]
pub struct Artifact {
    pub kind: ArtifactKind,
    /// `schema_version` of a run report (`None` for contention dumps).
    pub schema_version: Option<u64>,
    /// Producing tool of a run report (`None` for contention dumps).
    pub tool: Option<String>,
    /// Free-form config pairs of a run report, insertion order preserved.
    pub config: Vec<(String, String)>,
    pub threads: u64,
    pub wall_s: f64,
    pub elements: u64,
    pub commits: u64,
    pub rollbacks: u64,
    /// Aggregated per-phase seconds of a run report.
    pub phases: Vec<(String, f64)>,
    /// Top contended `(vertex id, conflicts)`, most-contended first.
    pub hot_vertices: Vec<(u64, u64)>,
    /// Top contended `(region code, conflicts)`, most-contended first.
    pub hot_regions: Vec<(u64, u64)>,
    /// The wall-time decomposition, when the artifact recorded one.
    pub attribution: Option<TimeAttribution>,
    /// The sharded-run section (schema v4), when the artifact carries one.
    pub shard: Option<ShardInfo>,
    /// Batched-kernel counters (schema v5). `None` for pre-v5 reports,
    /// which predate the counters entirely.
    pub batch: Option<BatchKernelInfo>,
    /// Completed kernel operations (`ops_total` counter; 0 when the artifact
    /// has no counters). Unlike `commits` it does not depend on how much of
    /// the run the flight ring kept.
    pub ops_total: u64,
    /// PEL pops, live and stale (`classify_calls`).
    pub classify_calls: u64,
    /// How many of those found their cell already dead. `None` when the
    /// artifact does not carry the counter (it predates `classify_stale`, or
    /// no pop was stale: zero counters are not written).
    pub classify_stale: Option<u64>,
    /// Dead PEL entries dropped without being popped (`pel_pruned`; 0 when
    /// the artifact does not carry the counter).
    pub pel_pruned: u64,
    /// Facets rule R3 reached (`r3_facets`), and how many of them the
    /// worker's facet memo cleared without a traversal (`r3_memo_hits`);
    /// 0 when the artifact does not carry the counters.
    pub r3_facets: u64,
    pub r3_memo_hits: u64,
    /// The per-job lifecycle view, when the artifact is a job trace.
    pub trace: Option<TraceInfo>,
}

impl Artifact {
    pub fn rollback_ratio(&self) -> f64 {
        let ops = self.commits + self.rollbacks;
        if ops == 0 {
            0.0
        } else {
            self.rollbacks as f64 / ops as f64
        }
    }

    /// Elements per second for run reports; committed ops per second for
    /// contention dumps (which do not know the final element count).
    pub fn throughput(&self) -> f64 {
        let ops = if self.kind == ArtifactKind::RunReport {
            self.elements
        } else {
            self.commits
        };
        if self.wall_s > 0.0 {
            ops as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

fn get_u64(j: &Json, key: &str) -> u64 {
    j.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64
}

fn get_f64(j: &Json, key: &str) -> f64 {
    j.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn hot_pairs(j: Option<&Json>, id_key: &str) -> Vec<(u64, u64)> {
    j.and_then(Json::as_arr)
        .map(|arr| {
            arr.iter()
                .map(|e| (get_u64(e, id_key), get_u64(e, "conflicts")))
                .collect()
        })
        .unwrap_or_default()
}

fn get_str(j: &Json, key: &str) -> String {
    j.get(key).and_then(Json::as_str).unwrap_or("?").to_string()
}

/// Fold the event stream of a `GET /jobs/<id>/trace` artifact into the
/// summary the renderer needs. Unknown event kinds are skipped so newer
/// services stay analyzable; stage durations pair `stage_started` /
/// `stage_finished` by name on the run clock (`run_t_s`).
fn load_trace(j: &Json) -> TraceInfo {
    let mut t = TraceInfo {
        id: get_str(j, "id"),
        schema_version: get_u64(j, "trace_schema_version"),
        dropped: get_u64(j, "events_dropped"),
        ..Default::default()
    };
    let mut open: Vec<(String, f64)> = Vec::new();
    for ev in j.get("events").and_then(Json::as_arr).into_iter().flatten() {
        t.events += 1;
        match ev.get("kind").and_then(Json::as_str).unwrap_or("") {
            "queue_wait" => t.queue_wait_s = Some(get_f64(ev, "wait_s")),
            "checkout" => t.checkouts.push(get_u64(ev, "session_generation")),
            "backoff" => t.backoffs += 1,
            "attempt_failed" => {
                let retried = ev
                    .get("will_retry")
                    .and_then(Json::as_bool)
                    .unwrap_or(false);
                t.failures.push(format!(
                    "{} ({}, {})",
                    get_str(ev, "error_kind"),
                    get_str(ev, "class"),
                    if retried { "retried" } else { "gave up" }
                ));
            }
            "stage_started" => open.push((get_str(ev, "stage"), get_f64(ev, "run_t_s"))),
            "stage_finished" => {
                let name = get_str(ev, "stage");
                if let Some(i) = open.iter().rposition(|(n, _)| *n == name) {
                    let (name, started) = open.remove(i);
                    t.stages.push((name, get_f64(ev, "run_t_s") - started));
                }
            }
            "shard_chunk" => t.shard_chunks += 1,
            "terminal" => t.terminal = Some((get_str(ev, "status"), get_f64(ev, "t_s"))),
            _ => {}
        }
    }
    t
}

/// Parse one artifact from its JSON text, autodetecting the kind: run
/// reports carry `schema_version` + `tool`, contention dumps carry
/// `hot_vertices` + `speedup_self_report`, and job traces carry
/// `trace_schema_version` + `events` at the top level.
pub fn load_artifact(text: &str) -> Result<Artifact, String> {
    let j = parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    if j.get("trace_schema_version").is_some() && j.get("events").is_some() {
        // a served job's lifecycle trace (GET /jobs/<id>/trace)
        let trace = load_trace(&j);
        let wall_s = trace.terminal.as_ref().map(|&(_, t)| t).unwrap_or(0.0);
        return Ok(Artifact {
            kind: ArtifactKind::JobTrace,
            schema_version: Some(trace.schema_version),
            tool: None,
            config: Vec::new(),
            threads: 0,
            wall_s,
            elements: 0,
            commits: 0,
            rollbacks: 0,
            phases: Vec::new(),
            hot_vertices: Vec::new(),
            hot_regions: Vec::new(),
            attribution: None,
            shard: None,
            batch: None,
            ops_total: 0,
            classify_calls: 0,
            classify_stale: None,
            pel_pruned: 0,
            r3_facets: 0,
            r3_memo_hits: 0,
            trace: Some(trace),
        });
    }
    if j.get("schema_version").is_some() && j.get("tool").is_some() {
        // a run report; its contention section (if any) holds the hot spots
        let c = j.get("contention");
        let attribution = j
            .get("time_attribution")
            .or_else(|| c.and_then(|c| c.get("time_attribution")))
            .and_then(TimeAttribution::from_json);
        let counters = j.get("counters");
        let cnt = |name: &str| counters.map_or(0, |c| get_u64(c, name));
        // the batched-kernel counters joined the catalog in schema v5;
        // earlier reports get `None` and render as "not recorded"
        let batch = if get_u64(&j, "schema_version") >= 5 {
            Some(BatchKernelInfo {
                orient_batches: cnt("pred_batch_orient_batches"),
                orient_lanes: cnt("pred_batch_orient_lanes"),
                orient_fallbacks: cnt("pred_batch_orient_fallbacks"),
                insphere_batches: cnt("pred_batch_insphere_batches"),
                insphere_lanes: cnt("pred_batch_insphere_lanes"),
                insphere_fallbacks: cnt("pred_batch_insphere_fallbacks"),
                soa_gathers: cnt("scratch_soa_gathers"),
                soa_points: cnt("scratch_soa_points"),
            })
        } else {
            None
        };
        Ok(Artifact {
            kind: ArtifactKind::RunReport,
            schema_version: Some(get_u64(&j, "schema_version")),
            tool: j.get("tool").and_then(Json::as_str).map(String::from),
            config: match j.get("config") {
                Some(Json::Obj(pairs)) => pairs
                    .iter()
                    .map(|(k, v)| (k.clone(), v.as_str().unwrap_or("?").to_string()))
                    .collect(),
                _ => Vec::new(),
            },
            threads: get_u64(&j, "threads"),
            wall_s: get_f64(&j, "wall_s"),
            elements: get_u64(&j, "elements"),
            commits: c.map(|c| get_u64(c, "commits")).unwrap_or(0),
            rollbacks: j
                .get("overheads")
                .map(|o| get_u64(o, "rollbacks"))
                .unwrap_or(0),
            phases: match j.get("phases") {
                Some(Json::Obj(pairs)) => pairs
                    .iter()
                    .map(|(k, v)| (k.clone(), v.as_f64().unwrap_or(0.0)))
                    .collect(),
                _ => Vec::new(),
            },
            hot_vertices: hot_pairs(c.and_then(|c| c.get("hot_vertices")), "vertex"),
            hot_regions: hot_pairs(c.and_then(|c| c.get("hot_regions")), "region"),
            attribution,
            batch,
            ops_total: cnt("ops_total"),
            classify_calls: cnt("classify_calls"),
            classify_stale: counters
                .and_then(|c| c.get("classify_stale"))
                .map(|_| cnt("classify_stale")),
            pel_pruned: cnt("pel_pruned"),
            r3_facets: cnt("r3_facets"),
            r3_memo_hits: cnt("r3_memo_hits"),
            shard: j.get("shard").map(|s| ShardInfo {
                grid: s
                    .get("grid")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string(),
                halo: get_u64(s, "halo"),
                lanes: get_u64(s, "lanes"),
                seed_points: get_u64(s, "seed_points"),
                chunks: s.get("chunks").and_then(Json::as_arr).map(|arr| {
                    arr.iter()
                        .map(|c| (get_u64(c, "tets"), get_f64(c, "wall_s")))
                        .collect()
                }),
            }),
            trace: None,
        })
    } else if j.get("hot_vertices").is_some() && j.get("speedup_self_report").is_some() {
        // wall time rides in the speedup self-report; the worker count is
        // the length of the per-worker timeline array
        let threads = j
            .get("workers")
            .and_then(Json::as_arr)
            .map(|w| w.len() as u64)
            .unwrap_or(0);
        let wall_s = j
            .get("speedup_self_report")
            .map(|s| get_f64(s, "wall_s"))
            .unwrap_or(0.0);
        Ok(Artifact {
            kind: ArtifactKind::Contention,
            schema_version: None,
            tool: None,
            config: Vec::new(),
            threads,
            wall_s,
            elements: 0,
            commits: get_u64(&j, "commits"),
            rollbacks: get_u64(&j, "rollbacks"),
            phases: Vec::new(),
            hot_vertices: hot_pairs(j.get("hot_vertices"), "vertex"),
            hot_regions: hot_pairs(j.get("hot_regions"), "region"),
            attribution: j
                .get("time_attribution")
                .and_then(TimeAttribution::from_json),
            shard: None,
            batch: None,
            ops_total: 0,
            classify_calls: 0,
            classify_stale: None,
            pel_pruned: 0,
            r3_facets: 0,
            r3_memo_hits: 0,
            trace: None,
        })
    } else {
        Err(
            "unrecognized artifact: not a run report (schema_version + tool), \
             a contention dump (hot_vertices + speedup_self_report), or a job \
             trace (trace_schema_version + events)"
                .into(),
        )
    }
}

fn render_attribution(out: &mut String, a: &TimeAttribution) {
    let _ = writeln!(
        out,
        "time attribution ({} worker{}, wall {:.3}s):",
        a.per_worker.len(),
        if a.per_worker.len() == 1 { "" } else { "s" },
        a.wall_s
    );
    // A ring that overwrote events folds only part of the run: the measured
    // rows are lower bounds and `idle` absorbs everything that was lost, so
    // shares (and a "dominant waste") would be fiction.
    let partial = a.is_partial();
    if partial {
        let _ = writeln!(
            out,
            "  partial: {} of {} events (the flight ring overwrote the rest); \
             seconds are lower bounds, idle an upper bound, shares not shown",
            a.events,
            a.events + a.events_dropped
        );
    }
    let _ = writeln!(out, "  {:<13} {:>10} {:>9}", "category", "seconds", "share");
    let row = |out: &mut String, name: &str, secs: f64, frac: f64| {
        let share = if partial {
            "n/a".to_string()
        } else {
            format!("{:.1}%", frac * 100.0)
        };
        let _ = writeln!(out, "  {name:<13} {secs:>9.3}s {share:>9}");
    };
    let worker_s: f64 = a.per_worker.iter().map(|w| w.total_s()).sum();
    // op-kind split of committed work (absent from older artifacts)
    let (ins, rem) = (a.committed_insert_s(), a.committed_remove_s());
    for cat in Category::ALL {
        row(out, cat.key(), a.total(cat), a.fraction(cat));
        if cat == Category::Committed && ins + rem > 0.0 {
            row(out, "  insert", ins, ins / worker_s);
            row(out, "  remove", rem, rem / worker_s);
        }
    }
    if partial {
        return;
    }
    if let Some((cat, secs)) = a.dominant_waste() {
        let _ = writeln!(
            out,
            "  dominant waste: {} ({secs:.3} worker-seconds, {:.1}% of worker time)",
            cat.key(),
            a.fraction(cat) * 100.0
        );
    }
}

/// Render a served job's lifecycle timeline: queue wait, per-attempt
/// checkouts and failures, completed stage durations with the dominant
/// phase, shard chunks, terminal state. Anything the trace did not record
/// degrades to an explicit "not recorded" line.
fn render_trace_summary(out: &mut String, t: &TraceInfo) {
    let _ = writeln!(
        out,
        "artifact: job trace ({}, schema v{}, {} event{}{})",
        t.id,
        t.schema_version,
        t.events,
        if t.events == 1 { "" } else { "s" },
        if t.dropped > 0 {
            format!(", {} dropped", t.dropped)
        } else {
            String::new()
        }
    );
    match t.queue_wait_s {
        Some(w) => {
            let _ = writeln!(out, "queue   : waited {w:.3}s");
        }
        None => {
            let _ = writeln!(out, "queue   : wait not recorded (job never started?)");
        }
    }
    if t.checkouts.is_empty() {
        let _ = writeln!(out, "attempts: none recorded");
    } else {
        let gens: Vec<String> = t.checkouts.iter().map(|g| format!("gen {g}")).collect();
        let _ = writeln!(
            out,
            "attempts: {} checkout{} ({}), {} backoff{}",
            t.checkouts.len(),
            if t.checkouts.len() == 1 { "" } else { "s" },
            gens.join(", "),
            t.backoffs,
            if t.backoffs == 1 { "" } else { "s" }
        );
    }
    for (i, f) in t.failures.iter().enumerate() {
        let _ = writeln!(out, "  attempt {} failed: {f}", i + 1);
    }
    if t.stages.is_empty() {
        let _ = writeln!(out, "stages  : not recorded");
    } else {
        let stages: Vec<String> = t
            .stages
            .iter()
            .map(|(name, s)| format!("{name} {s:.3}s"))
            .collect();
        let _ = writeln!(out, "stages  : {}", stages.join(", "));
        let total: f64 = t.stages.iter().map(|&(_, s)| s).sum();
        if let Some((name, secs)) = t.dominant_stage() {
            if total > 0.0 {
                let _ = writeln!(
                    out,
                    "dominant stage: {name} ({secs:.3}s, {:.1}% of staged time)",
                    100.0 * secs / total
                );
            }
        }
    }
    if t.shard_chunks > 0 {
        let _ = writeln!(out, "shards  : {} chunk span{}", t.shard_chunks, {
            if t.shard_chunks == 1 {
                ""
            } else {
                "s"
            }
        });
    }
    match &t.terminal {
        Some((status, at)) => {
            let _ = writeln!(out, "terminal: {status} at {at:.3}s");
        }
        None => {
            let _ = writeln!(out, "terminal: not recorded (job still in flight?)");
        }
    }
}

/// Render the human-readable summary `pi2m analyze <artifact>` prints.
pub fn render_summary(art: &Artifact) -> String {
    let mut out = String::new();
    if let Some(t) = &art.trace {
        render_trace_summary(&mut out, t);
        return out;
    }
    match (&art.tool, art.schema_version) {
        (Some(tool), Some(v)) => {
            let _ = writeln!(out, "artifact: {} ({tool}, schema v{v})", art.kind.name());
        }
        _ => {
            let _ = writeln!(out, "artifact: {}", art.kind.name());
        }
    }
    if !art.config.is_empty() {
        let cfg: Vec<String> = art.config.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let _ = writeln!(out, "config  : {}", cfg.join(", "));
    }
    let _ = writeln!(
        out,
        "run     : {} threads, {:.3}s wall, {} rollbacks (ratio {:.4})",
        art.threads,
        art.wall_s,
        art.rollbacks,
        art.rollback_ratio()
    );
    if art.elements > 0 {
        let _ = writeln!(
            out,
            "output  : {} elements ({:.0} elements/s)",
            art.elements,
            art.throughput()
        );
    }
    if !art.phases.is_empty() {
        let phases: Vec<String> = art
            .phases
            .iter()
            .map(|(name, s)| format!("{name} {s:.3}s"))
            .collect();
        let _ = writeln!(out, "phases  : {}", phases.join(", "));
    }
    if let Some(shard) = &art.shard {
        let _ = writeln!(
            out,
            "sharded : grid {}, halo {}, {} lane{}, {} seed vertices",
            shard.grid,
            shard.halo,
            shard.lanes,
            if shard.lanes == 1 { "" } else { "s" },
            shard.seed_points
        );
        match &shard.chunks {
            Some(chunks) if !chunks.is_empty() => {
                let tets: u64 = chunks.iter().map(|&(t, _)| t).sum();
                let slowest = chunks.iter().map(|&(_, w)| w).fold(0.0f64, f64::max);
                let _ = writeln!(
                    out,
                    "chunks  : {} meshed, {} pre-stitch tets, slowest {:.3}s",
                    chunks.len(),
                    tets,
                    slowest
                );
            }
            _ => {
                let _ = writeln!(
                    out,
                    "chunks  : not recorded (run cancelled before chunk accounting)"
                );
            }
        }
    }
    if art.kind == ArtifactKind::RunReport {
        match &art.batch {
            None => {
                let _ = writeln!(out, "batched : not recorded (pre-v5 artifact)");
            }
            Some(b) => {
                let _ = writeln!(
                    out,
                    "batched : orient {} waves / {} lanes, insphere {} waves / {} lanes \
                     ({:.1} lanes/wave, {:.2}% scalar fallback)",
                    b.orient_batches,
                    b.orient_lanes,
                    b.insphere_batches,
                    b.insphere_lanes,
                    b.lanes_per_wave(),
                    b.fallback_rate() * 100.0
                );
                let _ = writeln!(
                    out,
                    "soa     : {} staging gathers, {} points ({:.1} points/gather)",
                    b.soa_gathers,
                    b.soa_points,
                    b.points_per_gather()
                );
            }
        }
    }
    if art.classify_calls > 0 {
        let per_op = |n: u64| n as f64 / art.ops_total.max(1) as f64;
        let _ = match art.classify_stale {
            Some(stale) => {
                let live = art.classify_calls.saturating_sub(stale);
                write!(
                    out,
                    "classify: {} PEL pops ({:.1}/op): {} stale ({:.1}%), {} live ({:.1}/op)",
                    art.classify_calls,
                    per_op(art.classify_calls),
                    stale,
                    stale as f64 * 100.0 / art.classify_calls as f64,
                    live,
                    per_op(live)
                )
            }
            None => write!(
                out,
                "classify: {} PEL pops ({:.1}/op), stale share not recorded",
                art.classify_calls,
                per_op(art.classify_calls)
            ),
        };
        // pruned entries were never popped: they are not in the pop count
        if art.pel_pruned > 0 {
            let _ = write!(out, "; {} dead entries pruned unpopped", art.pel_pruned);
        }
        if art.r3_facets > 0 {
            let _ = write!(
                out,
                "; R3 {} facets, {} ({:.1}%) cleared by the memo",
                art.r3_facets,
                art.r3_memo_hits,
                art.r3_memo_hits as f64 * 100.0 / art.r3_facets as f64
            );
        }
        out.push('\n');
    }
    match &art.attribution {
        Some(a) => render_attribution(&mut out, a),
        None => {
            let _ = writeln!(
                out,
                "time attribution: not recorded (pre-v3 artifact or flight recorder off)"
            );
        }
    }
    if !art.hot_vertices.is_empty() {
        let hv: Vec<String> = art
            .hot_vertices
            .iter()
            .take(5)
            .map(|(v, n)| format!("v{v} x{n}"))
            .collect();
        let _ = writeln!(out, "hot vertices: {}", hv.join(", "));
    }
    if !art.hot_regions.is_empty() {
        let hr: Vec<String> = art
            .hot_regions
            .iter()
            .take(5)
            .map(|(r, n)| format!("r{r} x{n}"))
            .collect();
        let _ = writeln!(out, "hot regions : {}", hr.join(", "));
    }
    out
}

/// Diff two runs (`base` → `new`) and attribute the change. The verdict
/// names the waste category whose summed worker-seconds grew the most —
/// the first place to look when `new` is slower than `base`.
pub fn render_diff(base: &Artifact, new: &Artifact) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "diff: base {} -> new {}",
        base.kind.name(),
        new.kind.name()
    );
    let pct = |b: f64, n: f64| -> String {
        if b > 0.0 {
            format!("{:+.1}%", (n / b - 1.0) * 100.0)
        } else {
            "n/a".into()
        }
    };
    let _ = writeln!(
        out,
        "  wall        {:>9.3}s -> {:>9.3}s  ({})",
        base.wall_s,
        new.wall_s,
        pct(base.wall_s, new.wall_s)
    );
    let _ = writeln!(
        out,
        "  throughput  {:>9.0}/s -> {:>9.0}/s ({})",
        base.throughput(),
        new.throughput(),
        pct(base.throughput(), new.throughput())
    );
    let _ = writeln!(
        out,
        "  rollbacks   {:>10} -> {:>10}  (ratio {:.4} -> {:.4})",
        base.rollbacks,
        new.rollbacks,
        base.rollback_ratio(),
        new.rollback_ratio()
    );
    match (&base.attribution, &new.attribution) {
        (Some(b), Some(n)) => {
            let _ = writeln!(
                out,
                "  {:<13} {:>10} {:>10} {:>9} {:>14}",
                "category", "base", "new", "delta", "share shift"
            );
            let mut worst: Option<(Category, f64)> = None;
            for cat in Category::ALL {
                let (bs, ns) = (b.total(cat), n.total(cat));
                let shift = (n.fraction(cat) - b.fraction(cat)) * 100.0;
                let _ = writeln!(
                    out,
                    "  {:<13} {:>9.3}s {:>9.3}s {:>+8.3}s {:>+12.1}pp",
                    cat.key(),
                    bs,
                    ns,
                    ns - bs,
                    shift
                );
                if cat.is_waste() && worst.as_ref().is_none_or(|(_, w)| ns - bs > *w) {
                    worst = Some((cat, ns - bs));
                }
            }
            match worst {
                _ if b.is_partial() || n.is_partial() => {
                    let _ = writeln!(
                        out,
                        "  verdict: none — partial attribution (base {} of {} events, new {} of {})",
                        b.events,
                        b.events + b.events_dropped,
                        n.events,
                        n.events + n.events_dropped
                    );
                }
                Some((cat, grew)) if grew > 0.0 => {
                    let _ = writeln!(
                        out,
                        "  verdict: waste grew most in '{}' (+{grew:.3} worker-seconds)",
                        cat.key()
                    );
                }
                _ => {
                    let _ = writeln!(out, "  verdict: no waste category grew");
                }
            }
        }
        _ => {
            let _ = writeln!(
                out,
                "  (attribution diff unavailable: one or both artifacts lack it)"
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{analyze, AnalyzeOpts};
    use crate::flight::{EventKind, FlightEvent};
    use crate::report::RunReport;

    fn ev(t_ms: u64, tid: u16, kind: EventKind, a: u32, c: u32) -> FlightEvent {
        FlightEvent {
            t_ns: t_ms * 1_000_000,
            kind,
            cause: 0,
            tid,
            a,
            b: 0,
            c,
        }
    }

    fn sample_report(rollback_ns: u32) -> String {
        let ms = 1_000_000u32;
        let events = vec![
            ev(1, 0, EventKind::OpCommit, 0, 10 * ms),
            ev(2, 1, EventKind::Rollback, 7, rollback_ns),
            ev(3, 1, EventKind::CmUnpark, 0, 2 * ms),
        ];
        let contention = analyze(
            &events,
            AnalyzeOpts {
                threads: 2,
                wall_s: 0.02,
                ..Default::default()
            },
        );
        let mut r = RunReport::new("pi2m");
        r.config("input", "phantom:sphere").config("delta", 2.0);
        r.threads = 2;
        r.wall_s = 0.02;
        r.elements = 500;
        r.overheads.rollbacks = 1;
        r.attribution = Some(contention.attribution.clone());
        r.contention = Some(contention);
        r.to_json_string()
    }

    #[test]
    fn loads_run_report_with_attribution() {
        let art = load_artifact(&sample_report(1_000_000)).unwrap();
        assert_eq!(art.kind, ArtifactKind::RunReport);
        assert_eq!(art.schema_version, Some(RunReport::SCHEMA_VERSION as u64));
        assert_eq!(art.tool.as_deref(), Some("pi2m"));
        assert_eq!(art.threads, 2);
        assert_eq!(art.elements, 500);
        assert_eq!(art.rollbacks, 1);
        assert_eq!(art.hot_vertices, vec![(7, 1)]);
        let a = art.attribution.expect("attribution");
        assert_eq!(a.per_worker.len(), 2);
        assert!((a.per_worker[1].rolled_back_s - 1e-3).abs() < 1e-9);
    }

    #[test]
    fn loads_standalone_contention_dump() {
        let ms = 1_000_000u32;
        let events = vec![
            ev(1, 0, EventKind::OpCommit, 0, ms),
            ev(2, 0, EventKind::Rollback, 3, ms),
        ];
        let dump = analyze(
            &events,
            AnalyzeOpts {
                threads: 1,
                wall_s: 0.01,
                ..Default::default()
            },
        )
        .to_json()
        .dump_pretty();
        let art = load_artifact(&dump).unwrap();
        assert_eq!(art.kind, ArtifactKind::Contention);
        assert_eq!(art.commits, 1);
        assert_eq!(art.rollbacks, 1);
        assert!(art.attribution.is_some());
        // ops/sec for contention dumps
        assert!((art.throughput() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_unrecognized_json() {
        assert!(load_artifact("not json at all").is_err());
        let err = load_artifact("{\"foo\": 1}").unwrap_err();
        assert!(err.contains("unrecognized"), "{err}");
    }

    #[test]
    fn summary_renders_all_sections() {
        let art = load_artifact(&sample_report(1_000_000)).unwrap();
        let s = render_summary(&art);
        assert!(s.contains("run report"), "{s}");
        assert!(s.contains("input=phantom:sphere"), "{s}");
        assert!(s.contains("500 elements"), "{s}");
        assert!(s.contains("time attribution"), "{s}");
        assert!(s.contains("committed"), "{s}");
        assert!(s.contains("idle"), "{s}");
        assert!(s.contains("hot vertices: v7 x1"), "{s}");
    }

    #[test]
    fn summary_splits_committed_by_op_kind() {
        let ms = 1_000_000u32;
        let mut rem = ev(2, 0, EventKind::OpCommit, 0, 6 * ms);
        rem.cause = crate::flight::cause::OP_REMOVE;
        let events = vec![ev(1, 0, EventKind::OpCommit, 0, 2 * ms), rem];
        let opts = AnalyzeOpts {
            threads: 1,
            wall_s: 0.01,
            ..Default::default()
        };
        let dump = analyze(&events, opts).to_json().dump_pretty();
        let s = render_summary(&load_artifact(&dump).unwrap());
        let line = |name: &str| {
            s.lines()
                .find(|l| l.trim_start().starts_with(name))
                .unwrap_or_else(|| panic!("no '{name}' row in:\n{s}"))
                .to_string()
        };
        assert!(line("committed").contains("0.008s"), "{s}");
        assert!(line("insert").contains("0.002s") && line("insert").contains("20.0%"));
        assert!(line("remove").contains("0.006s") && line("remove").contains("60.0%"));
        assert!(!s.contains("partial"), "{s}");
    }

    #[test]
    fn partial_fold_is_labelled_and_shows_no_shares() {
        let events = vec![ev(1, 0, EventKind::OpCommit, 0, 1_000_000)];
        let opts = AnalyzeOpts {
            threads: 1,
            wall_s: 0.01,
            dropped: 3,
            ..Default::default()
        };
        let dump = analyze(&events, opts).to_json().dump_pretty();
        let s = render_summary(&load_artifact(&dump).unwrap());
        assert!(s.contains("partial: 1 of 4 events"), "{s}");
        assert!(s.contains("n/a") && !s.contains("dominant waste"), "{s}");
        let att = s.split("time attribution").nth(1).unwrap();
        assert!(!att.contains('%'), "no share may be printed:\n{att}");
    }

    #[test]
    fn summary_degrades_without_attribution() {
        // strip the attribution sections to simulate a pre-v3 report
        let mut r = RunReport::new("pi2m");
        r.threads = 1;
        r.wall_s = 1.0;
        let art = load_artifact(&r.to_json_string()).unwrap();
        assert!(art.attribution.is_none());
        let s = render_summary(&art);
        assert!(s.contains("not recorded"), "{s}");
    }

    #[test]
    fn shard_section_loads_and_renders() {
        let mut r = RunReport::new("pi2m");
        r.threads = 2;
        r.wall_s = 1.0;
        r.shard = Some(crate::report::ShardSection {
            grid: "2x1x1".into(),
            halo: 4,
            lanes: 2,
            seed_points: 100,
            seed_duplicates: 1,
            chunks: vec![
                crate::report::ShardChunk {
                    index: [0, 0, 0],
                    tets: 80,
                    vertices: 40,
                    wall_s: 0.1,
                },
                crate::report::ShardChunk {
                    index: [1, 0, 0],
                    tets: 90,
                    vertices: 45,
                    wall_s: 0.2,
                },
            ],
        });
        let art = load_artifact(&r.to_json_string()).unwrap();
        let shard = art.shard.as_ref().expect("shard info");
        assert_eq!(shard.grid, "2x1x1");
        assert_eq!(shard.chunks.as_deref(), Some(&[(80, 0.1), (90, 0.2)][..]));
        let s = render_summary(&art);
        assert!(s.contains("grid 2x1x1, halo 4, 2 lanes"), "{s}");
        assert!(s.contains("2 meshed, 170 pre-stitch tets"), "{s}");
    }

    #[test]
    fn truncated_shard_section_degrades_to_not_recorded() {
        // a cancelled sharded run can flush the section header without the
        // per-chunk accounting; analyze must render, not error
        let text = r#"{
            "schema_version": 4, "tool": "pi2m", "threads": 2, "wall_s": 0.5,
            "shard": {"grid": "2x2x2", "halo": 3, "lanes": 4, "seed_points": 0}
        }"#;
        let art = load_artifact(text).unwrap();
        let shard = art.shard.as_ref().expect("shard info");
        assert!(shard.chunks.is_none());
        let s = render_summary(&art);
        assert!(s.contains("grid 2x2x2"), "{s}");
        assert!(
            s.contains("chunks  : not recorded (run cancelled before chunk accounting)"),
            "{s}"
        );
    }

    #[test]
    fn loads_job_trace_and_renders_timeline() {
        // the wire shape of GET /jobs/<id>/trace (serve's JobTrace::to_json)
        let text = r#"{
            "id": "job-3", "trace_schema_version": 1,
            "events": [
                {"t_s": 0.0, "kind": "admitted", "priority": "normal", "queue_depth": 0},
                {"t_s": 0.01, "kind": "queue_wait", "wait_s": 0.01},
                {"t_s": 0.01, "kind": "checkout", "attempt": 1, "slot": 0, "session_generation": 0},
                {"t_s": 0.02, "kind": "stage_started", "stage": "edt", "run_t_s": 0.001},
                {"t_s": 0.05, "kind": "stage_finished", "stage": "edt", "run_t_s": 0.031},
                {"t_s": 0.06, "kind": "attempt_failed", "attempt": 1, "error_kind": "worker_loss",
                 "class": "transient", "will_retry": true},
                {"t_s": 0.06, "kind": "backoff", "attempt": 1, "backoff_s": 0.05},
                {"t_s": 0.11, "kind": "checkout", "attempt": 2, "slot": 0, "session_generation": 1},
                {"t_s": 0.12, "kind": "stage_started", "stage": "edt", "run_t_s": 0.001},
                {"t_s": 0.14, "kind": "stage_finished", "stage": "edt", "run_t_s": 0.021},
                {"t_s": 0.15, "kind": "stage_started", "stage": "volume_refinement", "run_t_s": 0.031},
                {"t_s": 0.35, "kind": "stage_finished", "stage": "volume_refinement", "run_t_s": 0.231},
                {"t_s": 0.36, "kind": "shard_chunk", "index": "0,0,0", "tets": 100, "wall_s": 0.1},
                {"t_s": 0.36, "kind": "shard_chunk", "index": "1,0,0", "tets": 120, "wall_s": 0.12},
                {"t_s": 0.4, "kind": "terminal", "status": "succeeded", "attempts": 2}
            ]
        }"#;
        let art = load_artifact(text).unwrap();
        assert_eq!(art.kind, ArtifactKind::JobTrace);
        let t = art.trace.as_ref().expect("trace info");
        assert_eq!(t.id, "job-3");
        assert_eq!(t.events, 15);
        assert_eq!(t.queue_wait_s, Some(0.01));
        assert_eq!(t.checkouts, vec![0, 1]);
        assert_eq!(t.backoffs, 1);
        assert_eq!(t.failures, vec!["worker_loss (transient, retried)"]);
        assert_eq!(t.stages.len(), 3);
        assert_eq!(t.shard_chunks, 2);
        assert_eq!(t.terminal.as_ref().unwrap().0, "succeeded");
        assert_eq!(t.dominant_stage().unwrap().0, "volume_refinement");
        let s = render_summary(&art);
        assert!(s.contains("job trace (job-3, schema v1, 15 events)"), "{s}");
        assert!(s.contains("queue   : waited 0.010s"), "{s}");
        assert!(s.contains("2 checkouts (gen 0, gen 1), 1 backoff"), "{s}");
        assert!(
            s.contains("attempt 1 failed: worker_loss (transient, retried)"),
            "{s}"
        );
        assert!(s.contains("dominant stage: volume_refinement"), "{s}");
        assert!(s.contains("shards  : 2 chunk spans"), "{s}");
        assert!(s.contains("terminal: succeeded at 0.400s"), "{s}");
    }

    #[test]
    fn queued_only_trace_degrades_to_not_recorded() {
        // fetched while the job still sits in the queue: nothing ran yet
        let text = r#"{
            "id": "job-9", "trace_schema_version": 1,
            "events": [
                {"t_s": 0.0, "kind": "admitted", "priority": "low", "queue_depth": 4}
            ]
        }"#;
        let art = load_artifact(text).unwrap();
        let s = render_summary(&art);
        assert!(s.contains("wait not recorded"), "{s}");
        assert!(s.contains("attempts: none recorded"), "{s}");
        assert!(s.contains("stages  : not recorded"), "{s}");
        assert!(s.contains("terminal: not recorded"), "{s}");
    }

    #[test]
    fn batch_counters_load_and_render() {
        let text = r#"{
            "schema_version": 5, "tool": "pi2m", "threads": 1, "wall_s": 0.5,
            "counters": {
                "pred_batch_orient_batches": 100, "pred_batch_orient_lanes": 900,
                "pred_batch_orient_fallbacks": 9,
                "pred_batch_insphere_batches": 100, "pred_batch_insphere_lanes": 700,
                "pred_batch_insphere_fallbacks": 7,
                "scratch_soa_gathers": 200, "scratch_soa_points": 2400
            }
        }"#;
        let art = load_artifact(text).unwrap();
        let b = art.batch.as_ref().expect("batch info");
        assert_eq!(b.orient_lanes, 900);
        assert!((b.lanes_per_wave() - 8.0).abs() < 1e-9);
        assert!((b.fallback_rate() - 0.01).abs() < 1e-9);
        assert!((b.points_per_gather() - 12.0).abs() < 1e-9);
        let s = render_summary(&art);
        assert!(s.contains("batched : orient 100 waves / 900 lanes"), "{s}");
        assert!(s.contains("8.0 lanes/wave, 1.00% scalar fallback"), "{s}");
        assert!(s.contains("soa     : 200 staging gathers"), "{s}");
    }

    #[test]
    fn classify_line_splits_stale_from_live_pops() {
        let report = |counters: &str| {
            format!(
                r#"{{"schema_version": 5, "tool": "pi2m", "threads": 1, "wall_s": 0.5,
                    "counters": {{"ops_total": 100, {counters}}}}}"#
            )
        };
        let art =
            load_artifact(&report(r#""classify_calls": 2600, "classify_stale": 1750"#)).unwrap();
        assert_eq!((art.classify_calls, art.classify_stale), (2600, Some(1750)));
        let s = render_summary(&art);
        assert!(
            s.contains(
                "classify: 2600 PEL pops (26.0/op): 1750 stale (67.3%), 850 live (8.5/op)\n"
            ),
            "{s}"
        );
        // entries pruned from the PEL were never popped: named after the split
        let art = load_artifact(&report(
            r#""classify_calls": 2600, "classify_stale": 1750, "pel_pruned": 300"#,
        ))
        .unwrap();
        let s = render_summary(&art);
        assert!(
            s.contains("850 live (8.5/op); 300 dead entries pruned unpopped\n"),
            "{s}"
        );
        // R3's facet visits and memo hits close the line
        let art = load_artifact(&report(
            r#""classify_calls": 2600, "classify_stale": 1750, "r3_facets": 3000, "r3_memo_hits": 1000"#,
        ))
        .unwrap();
        let s = render_summary(&art);
        assert!(
            s.contains("850 live (8.5/op); R3 3000 facets, 1000 (33.3%) cleared by the memo\n"),
            "{s}"
        );
        // an artifact without the counter cannot tell "none stale" from
        // "not counted": the line says so instead of printing a zero
        let art = load_artifact(&report(r#""classify_calls": 2600"#)).unwrap();
        let s = render_summary(&art);
        assert!(
            s.contains("2600 PEL pops (26.0/op), stale share not recorded"),
            "{s}"
        );
    }

    #[test]
    fn pre_v5_report_degrades_batch_to_not_recorded() {
        let text = r#"{"schema_version": 4, "tool": "pi2m", "threads": 1, "wall_s": 0.5}"#;
        let art = load_artifact(text).unwrap();
        assert!(art.batch.is_none());
        let s = render_summary(&art);
        assert!(
            s.contains("batched : not recorded (pre-v5 artifact)"),
            "{s}"
        );
    }

    #[test]
    fn diff_attributes_regression_to_grown_waste_category() {
        let base = load_artifact(&sample_report(1_000_000)).unwrap();
        // the "regressed" run rolled back 12ms instead of 1ms
        let new = load_artifact(&sample_report(12_000_000)).unwrap();
        let d = render_diff(&base, &new);
        assert!(
            d.contains("verdict: waste grew most in 'rolled_back'"),
            "{d}"
        );
        // identical runs: nothing grew
        let d = render_diff(&base, &base);
        assert!(d.contains("no waste category grew"), "{d}");
    }
}
