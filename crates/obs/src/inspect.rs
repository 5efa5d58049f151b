//! Offline inspection of saved observability artifacts: load a `--report`
//! run report or a served job's trace back from disk, render a
//! human-readable attribution / hot-spot summary, and diff two run reports
//! to attribute a throughput regression to a specific waste category.
//!
//! Drives `pi2m analyze` (see the CLI); kept in the library so the loader
//! and renderers are unit-tested.
//!
//! Every artifact opens with a `kind` tag and a `schema` number, and the
//! loader reads exactly one schema of each kind ([`ArtifactKind::schema`]);
//! anything else is rejected with an error naming what it found.

use crate::attribution::{Category, TimeAttribution};
use crate::json::{parse, Json};
use crate::report::RunReport;
use std::fmt::Write as _;

/// The artifact kinds `pi2m analyze` reads, by the `kind` tag they open with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArtifactKind {
    /// A `--report` run report (`RunReport::to_json`).
    RunReport,
    /// A per-job lifecycle trace saved from `GET /jobs/<id>/trace`.
    JobTrace,
}

impl ArtifactKind {
    pub const ALL: [ArtifactKind; 2] = [ArtifactKind::RunReport, ArtifactKind::JobTrace];

    /// The artifact's `kind` tag.
    pub const fn tag(self) -> &'static str {
        match self {
            ArtifactKind::RunReport => "run_report",
            ArtifactKind::JobTrace => "job_trace",
        }
    }

    /// The one `schema` of this kind that is written and read.
    pub const fn schema(self) -> u32 {
        match self {
            ArtifactKind::RunReport => RunReport::SCHEMA_VERSION,
            ArtifactKind::JobTrace => 2,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            ArtifactKind::RunReport => "run report",
            ArtifactKind::JobTrace => "job trace",
        }
    }

    /// The two fields every artifact of this kind opens with.
    pub fn envelope(self) -> Vec<(&'static str, Json)> {
        vec![
            ("kind", Json::str(self.tag())),
            ("schema", Json::int(self.schema() as u64)),
        ]
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

/// Batched-kernel counters of a run report (the `pred_batch_*` and
/// `scratch_soa_*` entries of the counter catalog). Kept as raw counts; the
/// derived rates live in the methods so the renderer and any future
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

/// The loaded view of one run report: the fields the renderer and differ
/// need. Counters the report does not carry read as zero (zero counters are
/// not written).
#[derive(Clone, Debug, Default)]
pub struct ReportInfo {
    /// Producing tool.
    pub tool: String,
    /// Free-form config pairs, insertion order preserved.
    pub config: Vec<(String, String)>,
    pub threads: u64,
    pub wall_s: f64,
    pub elements: u64,
    /// Aggregated per-phase seconds.
    pub phases: Vec<(String, f64)>,
    /// Top contended `(vertex id, conflicts)`, most-contended first.
    pub hot_vertices: Vec<(u64, u64)>,
    /// Top contended `(region code, conflicts)`, most-contended first.
    pub hot_regions: Vec<(u64, u64)>,
    /// The worker-time attribution; `None` for a report that describes no
    /// refinement run of its own (the serve daemon's aggregate).
    pub attribution: Option<TimeAttribution>,
    pub batch: BatchKernelInfo,
    /// Completed kernel operations (`ops_total`).
    pub ops_total: u64,
    /// Operations rolled back (`ops_rollbacks`).
    pub rollbacks: u64,
    /// PEL pops, live and stale (`classify_calls`).
    pub classify_calls: u64,
    /// How many of those found their cell already dead (`classify_stale`).
    pub classify_stale: u64,
    /// Dead PEL entries dropped without being popped (`pel_pruned`).
    pub pel_pruned: u64,
    /// Facets rule R3 reached (`r3_facets`), how many of them the worker's
    /// facet memo cleared without a traversal (`r3_memo_hits`), and how
    /// many Voronoi edges the traversal walked (`r3_traversals`).
    pub r3_facets: u64,
    pub r3_memo_hits: u64,
    pub r3_traversals: u64,
}

impl ReportInfo {
    pub fn rollback_ratio(&self) -> f64 {
        let ops = self.ops_total + self.rollbacks;
        if ops == 0 {
            0.0
        } else {
            self.rollbacks as f64 / ops as f64
        }
    }

    /// Elements per second of wall time.
    pub fn throughput(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.elements as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

/// One loaded artifact.
#[derive(Clone, Debug)]
pub enum Artifact {
    Report(ReportInfo),
    Trace(TraceInfo),
}

impl Artifact {
    pub fn kind(&self) -> ArtifactKind {
        match self {
            Artifact::Report(_) => ArtifactKind::RunReport,
            Artifact::Trace(_) => ArtifactKind::JobTrace,
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
/// summary the renderer needs. Unknown event kinds are skipped; stage
/// durations pair `stage_started` / `stage_finished` by name on the run
/// clock (`run_t_s`).
fn load_trace(j: &Json) -> TraceInfo {
    let mut t = TraceInfo {
        id: get_str(j, "id"),
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
            "terminal" => t.terminal = Some((get_str(ev, "status"), get_f64(ev, "t_s"))),
            _ => {}
        }
    }
    t
}

/// Read a run report's sections: its counters (exact, whatever the flight
/// logs kept), its contention section's hot spots, and its attribution.
fn load_report(j: &Json) -> ReportInfo {
    let c = j.get("contention");
    let counters = j.get("counters");
    let cnt = |name: &str| counters.map_or(0, |c| get_u64(c, name));
    ReportInfo {
        tool: get_str(j, "tool"),
        config: match j.get("config") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(k, v)| (k.clone(), v.as_str().unwrap_or("?").to_string()))
                .collect(),
            _ => Vec::new(),
        },
        threads: get_u64(j, "threads"),
        wall_s: get_f64(j, "wall_s"),
        elements: get_u64(j, "elements"),
        phases: match j.get("phases") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(k, v)| (k.clone(), v.as_f64().unwrap_or(0.0)))
                .collect(),
            _ => Vec::new(),
        },
        hot_vertices: hot_pairs(c.and_then(|c| c.get("hot_vertices")), "vertex"),
        hot_regions: hot_pairs(c.and_then(|c| c.get("hot_regions")), "region"),
        attribution: j
            .get("time_attribution")
            .and_then(TimeAttribution::from_json),
        batch: BatchKernelInfo {
            orient_batches: cnt("pred_batch_orient_batches"),
            orient_lanes: cnt("pred_batch_orient_lanes"),
            orient_fallbacks: cnt("pred_batch_orient_fallbacks"),
            insphere_batches: cnt("pred_batch_insphere_batches"),
            insphere_lanes: cnt("pred_batch_insphere_lanes"),
            insphere_fallbacks: cnt("pred_batch_insphere_fallbacks"),
            soa_gathers: cnt("scratch_soa_gathers"),
            soa_points: cnt("scratch_soa_points"),
        },
        ops_total: cnt("ops_total"),
        rollbacks: cnt("ops_rollbacks"),
        classify_calls: cnt("classify_calls"),
        classify_stale: cnt("classify_stale"),
        pel_pruned: cnt("pel_pruned"),
        r3_facets: cnt("r3_facets"),
        r3_memo_hits: cnt("r3_memo_hits"),
        r3_traversals: cnt("r3_traversals"),
    }
}

/// What an artifact the loader does not read opens with, for the error.
fn found(j: &Json) -> String {
    let num = |key: &str| j.get(key).and_then(Json::as_f64);
    match (j.get("kind").and_then(Json::as_str), num("schema")) {
        (Some(kind), Some(schema)) => format!("kind {kind:?} schema {schema}"),
        (Some(kind), None) => format!("kind {kind:?} without a schema"),
        (None, _) => match ["schema_version", "trace_schema_version"]
            .into_iter()
            .find_map(|key| Some((key, num(key)?)))
        {
            Some((key, v)) => format!("no kind tag, {key} {v}"),
            None => "no kind tag".to_string(),
        },
    }
}

/// Parse one artifact from its JSON text, by its `kind` tag and `schema`.
pub fn load_artifact(text: &str) -> Result<Artifact, String> {
    let j = parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let kind = j.get("kind").and_then(Json::as_str);
    let schema = j.get("schema").and_then(Json::as_f64);
    let read = ArtifactKind::ALL
        .into_iter()
        .find(|k| kind == Some(k.tag()) && schema == Some(k.schema() as f64));
    match read {
        Some(ArtifactKind::RunReport) => Ok(Artifact::Report(load_report(&j))),
        Some(ArtifactKind::JobTrace) => Ok(Artifact::Trace(load_trace(&j))),
        None => {
            let reads: Vec<String> = ArtifactKind::ALL
                .iter()
                .map(|k| format!("kind {:?} schema {}", k.tag(), k.schema()))
                .collect();
            Err(format!(
                "unsupported artifact: found {}; pi2m analyze reads {}",
                found(&j),
                reads.join(" and ")
            ))
        }
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
    let _ = writeln!(out, "  {:<13} {:>10} {:>9}", "category", "seconds", "share");
    let row = |out: &mut String, name: &str, secs: f64, frac: f64| {
        let _ = writeln!(out, "  {name:<13} {secs:>9.3}s {:>8.1}%", frac * 100.0);
    };
    let worker_s: f64 = a.per_worker.iter().map(|w| w.total_s()).sum();
    let (ins, rem) = (a.committed_insert_s(), a.committed_remove_s());
    for cat in Category::ALL {
        row(out, cat.key(), a.total(cat), a.fraction(cat));
        if cat == Category::Committed && ins + rem > 0.0 {
            row(out, "  insert", ins, ins / worker_s);
            row(out, "  remove", rem, rem / worker_s);
        }
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
/// phase, terminal state. Anything the trace did not record
/// degrades to an explicit "not recorded" line.
fn render_trace_summary(out: &mut String, t: &TraceInfo) {
    let _ = writeln!(
        out,
        "artifact: job trace ({}, schema v{}, {} event{}{})",
        t.id,
        ArtifactKind::JobTrace.schema(),
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
    match &t.terminal {
        Some((status, at)) => {
            let _ = writeln!(out, "terminal: {status} at {at:.3}s");
        }
        None => {
            let _ = writeln!(out, "terminal: not recorded (job still in flight?)");
        }
    }
}

/// Render a run report: config, throughput, rollback ratio, phases,
/// kernel counters, the attribution table and the hot spots.
fn render_report_summary(out: &mut String, r: &ReportInfo) {
    let _ = writeln!(
        out,
        "artifact: run report ({}, schema v{})",
        r.tool,
        ArtifactKind::RunReport.schema()
    );
    if !r.config.is_empty() {
        let cfg: Vec<String> = r.config.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let _ = writeln!(out, "config  : {}", cfg.join(", "));
    }
    let _ = writeln!(
        out,
        "run     : {} threads, {:.3}s wall, {} rollbacks (ratio {:.4})",
        r.threads,
        r.wall_s,
        r.rollbacks,
        r.rollback_ratio()
    );
    if r.elements > 0 {
        let _ = writeln!(
            out,
            "output  : {} elements ({:.0} elements/s)",
            r.elements,
            r.throughput()
        );
    }
    if !r.phases.is_empty() {
        let phases: Vec<String> = r
            .phases
            .iter()
            .map(|(name, s)| format!("{name} {s:.3}s"))
            .collect();
        let _ = writeln!(out, "phases  : {}", phases.join(", "));
    }
    let b = &r.batch;
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
    if r.classify_calls > 0 {
        let per_op = |n: u64| n as f64 / r.ops_total.max(1) as f64;
        let live = r.classify_calls.saturating_sub(r.classify_stale);
        let _ = write!(
            out,
            "classify: {} PEL pops ({:.1}/op): {} stale ({:.1}%), {} live ({:.1}/op)",
            r.classify_calls,
            per_op(r.classify_calls),
            r.classify_stale,
            r.classify_stale as f64 * 100.0 / r.classify_calls as f64,
            live,
            per_op(live)
        );
        // pruned entries were never popped: they are not in the pop count
        if r.pel_pruned > 0 {
            let _ = write!(out, "; {} dead entries pruned unpopped", r.pel_pruned);
        }
        if r.r3_facets > 0 {
            let _ = write!(
                out,
                "; R3 {} facets, {} ({:.1}%) cleared by the memo",
                r.r3_facets,
                r.r3_memo_hits,
                r.r3_memo_hits as f64 * 100.0 / r.r3_facets as f64
            );
            if r.r3_traversals > 0 {
                let _ = write!(
                    out,
                    ", {} ({:.1}%) traversed",
                    r.r3_traversals,
                    r.r3_traversals as f64 * 100.0 / r.r3_facets as f64
                );
            }
        }
        out.push('\n');
    }
    match &r.attribution {
        Some(a) => render_attribution(out, a),
        None => {
            let _ = writeln!(out, "time attribution: none (no refinement run of its own)");
        }
    }
    if !r.hot_vertices.is_empty() {
        let hv: Vec<String> = r
            .hot_vertices
            .iter()
            .take(5)
            .map(|(v, n)| format!("v{v} x{n}"))
            .collect();
        let _ = writeln!(out, "hot vertices: {}", hv.join(", "));
    }
    if !r.hot_regions.is_empty() {
        let hr: Vec<String> = r
            .hot_regions
            .iter()
            .take(5)
            .map(|(r, n)| format!("r{r} x{n}"))
            .collect();
        let _ = writeln!(out, "hot regions : {}", hr.join(", "));
    }
}

/// Render the human-readable summary `pi2m analyze <artifact>` prints.
pub fn render_summary(art: &Artifact) -> String {
    let mut out = String::new();
    match art {
        Artifact::Report(r) => render_report_summary(&mut out, r),
        Artifact::Trace(t) => render_trace_summary(&mut out, t),
    }
    out
}

/// Diff two run reports (`base` → `new`) and attribute the change. The
/// verdict names the waste category whose summed worker-seconds grew the
/// most — the first place to look when `new` is slower than `base`.
pub fn render_diff(base: &ReportInfo, new: &ReportInfo) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "diff: base run report -> new run report");
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
    let (Some(b), Some(n)) = (&base.attribution, &new.attribution) else {
        let _ = writeln!(
            out,
            "  (attribution diff unavailable: one or both reports lack it)"
        );
        return out;
    };
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{analyze, AnalyzeOpts};
    use crate::attribution::attribute;
    use crate::flight::{EventKind, FlightEvent, SumBucket};
    use crate::metrics;

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

    /// A two-worker report whose attribution folds `events` over a 20 ms
    /// wall, the way a run's sums would read.
    fn report_of(events: &[FlightEvent]) -> String {
        let opts = AnalyzeOpts {
            threads: 2,
            wall_s: 0.02,
            ..Default::default()
        };
        let mut r = RunReport::new("pi2m");
        r.config("input", "phantom:sphere").config("delta", 2.0);
        r.threads = 2;
        r.wall_s = 0.02;
        r.elements = 500;
        r.metrics.add_counter(metrics::OPS_TOTAL, 9);
        r.metrics.add_counter(metrics::OPS_ROLLBACKS, 1);
        r.attribution = Some(attribute(events, opts.threads, opts.wall_s));
        r.contention = Some(analyze(events, opts));
        r.to_json_string()
    }

    /// Worker `tid`'s `bucket` sum, appended at the end of the 20 ms wall.
    fn sum(tid: u16, bucket: SumBucket, ns: u64) -> FlightEvent {
        FlightEvent::worker_sum(20_000_000, tid, bucket, ns, 1)
    }

    fn sample_report(rollback_ns: u32) -> String {
        let ms = 1_000_000u32;
        report_of(&[
            ev(2, 1, EventKind::Rollback, 7, rollback_ns),
            ev(3, 1, EventKind::CmUnpark, 0, 2 * ms),
            sum(0, SumBucket::CommittedInsert, 10 * ms as u64),
            sum(1, SumBucket::RolledBack, rollback_ns as u64),
            sum(1, SumBucket::CmPark, 2 * ms as u64),
        ])
    }

    fn report(text: &str) -> ReportInfo {
        match load_artifact(text).unwrap() {
            Artifact::Report(r) => r,
            other => panic!("expected a run report, got a {}", other.kind().name()),
        }
    }

    fn trace(text: &str) -> TraceInfo {
        match load_artifact(text).unwrap() {
            Artifact::Trace(t) => t,
            other => panic!("expected a job trace, got a {}", other.kind().name()),
        }
    }

    #[test]
    fn loads_run_report_with_attribution() {
        let r = report(&sample_report(1_000_000));
        assert_eq!(r.tool, "pi2m");
        assert_eq!(r.threads, 2);
        assert_eq!(r.elements, 500);
        assert_eq!((r.ops_total, r.rollbacks), (9, 1));
        assert!((r.rollback_ratio() - 0.1).abs() < 1e-12);
        assert_eq!(r.hot_vertices, vec![(7, 1)]);
        let a = r.attribution.expect("attribution");
        assert_eq!(a.per_worker.len(), 2);
        assert!((a.per_worker[1].rolled_back_s - 1e-3).abs() < 1e-9);
    }

    #[test]
    fn rejects_unrecognized_json() {
        assert!(load_artifact("not json at all").is_err());
        let err = load_artifact("{\"foo\": 1}").unwrap_err();
        assert!(
            err.contains("unsupported artifact: found no kind tag"),
            "{err}"
        );
    }

    /// Only `run_report` schema 8 and `job_trace` schema 2 load; an
    /// artifact of an older schema, or of a kind no longer written, is
    /// rejected with what it opens with and what the loader reads.
    #[test]
    fn rejects_other_schemas_and_kinds_by_name() {
        let reads = "pi2m analyze reads kind \"run_report\" schema 8 and \
                     kind \"job_trace\" schema 2";
        for (text, found) in [
            (
                r#"{"schema_version": 5, "tool": "pi2m", "threads": 1}"#,
                "found no kind tag, schema_version 5",
            ),
            (
                r#"{"id": "job-1", "trace_schema_version": 1, "events": []}"#,
                "found no kind tag, trace_schema_version 1",
            ),
            (
                r#"{"kind": "run_report", "schema": 7}"#,
                "found kind \"run_report\" schema 7",
            ),
            (
                r#"{"kind": "contention", "schema": 6}"#,
                "found kind \"contention\" schema 6",
            ),
        ] {
            let err = load_artifact(text).unwrap_err();
            assert!(err.contains(found) && err.contains(reads), "{err}");
        }
    }

    #[test]
    fn summary_renders_all_sections() {
        let s = render_summary(&load_artifact(&sample_report(1_000_000)).unwrap());
        assert!(s.contains("run report (pi2m, schema v8)"), "{s}");
        assert!(s.contains("input=phantom:sphere"), "{s}");
        assert!(s.contains("500 elements"), "{s}");
        assert!(s.contains("time attribution"), "{s}");
        assert!(s.contains("committed"), "{s}");
        assert!(s.contains("idle"), "{s}");
        assert!(s.contains("dominant waste"), "{s}");
        assert!(s.contains("hot vertices: v7 x1"), "{s}");
    }

    #[test]
    fn summary_splits_committed_by_op_kind() {
        let ms = 1_000_000u64;
        let text = report_of(&[
            sum(0, SumBucket::CommittedInsert, 4 * ms),
            sum(0, SumBucket::CommittedRemove, 12 * ms),
        ]);
        let s = render_summary(&load_artifact(&text).unwrap());
        let line = |name: &str| {
            s.lines()
                .find(|l| l.trim_start().starts_with(name))
                .unwrap_or_else(|| panic!("no '{name}' row in:\n{s}"))
                .to_string()
        };
        // shares of 2 workers x 20 ms
        assert!(line("committed").contains("0.016s"), "{s}");
        assert!(line("insert").contains("0.004s") && line("insert").contains("10.0%"));
        assert!(line("remove").contains("0.012s") && line("remove").contains("30.0%"));
    }

    #[test]
    fn an_old_shard_section_is_skipped_like_any_unknown_key() {
        // reports written while the CLI still sharded carry a `shard`
        // section; it is an unknown key now and must not stop the render
        let text = r#"{
            "kind": "run_report", "schema": 8, "tool": "pi2m", "threads": 2, "wall_s": 0.5,
            "shard": {"grid": "2x2x2", "halo": 3, "lanes": 4, "seed_points": 0}
        }"#;
        let s = render_summary(&load_artifact(text).unwrap());
        assert!(s.contains("run     : 2 threads, 0.500s wall"), "{s}");
        assert!(!s.contains("2x2x2"), "{s}");
    }

    #[test]
    fn loads_job_trace_and_renders_timeline() {
        // the wire shape of GET /jobs/<id>/trace (serve's JobTrace::to_json)
        let text = r#"{
            "kind": "job_trace", "schema": 2, "id": "job-3",
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
                {"t_s": 0.4, "kind": "terminal", "status": "succeeded", "attempts": 2}
            ]
        }"#;
        let t = trace(text);
        assert_eq!(t.id, "job-3");
        assert_eq!(t.events, 14);
        assert_eq!(t.queue_wait_s, Some(0.01));
        assert_eq!(t.checkouts, vec![0, 1]);
        assert_eq!(t.backoffs, 1);
        assert_eq!(t.failures, vec!["worker_loss (transient, retried)"]);
        assert_eq!(t.stages.len(), 3);
        assert_eq!(t.terminal.as_ref().unwrap().0, "succeeded");
        assert_eq!(t.dominant_stage().unwrap().0, "volume_refinement");
        let s = render_summary(&load_artifact(text).unwrap());
        assert!(s.contains("job trace (job-3, schema v2, 14 events)"), "{s}");
        assert!(s.contains("queue   : waited 0.010s"), "{s}");
        assert!(s.contains("2 checkouts (gen 0, gen 1), 1 backoff"), "{s}");
        assert!(
            s.contains("attempt 1 failed: worker_loss (transient, retried)"),
            "{s}"
        );
        assert!(s.contains("dominant stage: volume_refinement"), "{s}");
        // an event kind this reader does not know (an old trace's
        // `shard_chunk`) is counted and otherwise skipped
        assert!(!s.contains("shard"), "{s}");
        assert!(s.contains("terminal: succeeded at 0.400s"), "{s}");
    }

    #[test]
    fn queued_only_trace_degrades_to_not_recorded() {
        // fetched while the job still sits in the queue: nothing ran yet
        let text = r#"{
            "kind": "job_trace", "schema": 2, "id": "job-9",
            "events": [
                {"t_s": 0.0, "kind": "admitted", "priority": "low", "queue_depth": 4}
            ]
        }"#;
        let s = render_summary(&load_artifact(text).unwrap());
        assert!(s.contains("wait not recorded"), "{s}");
        assert!(s.contains("attempts: none recorded"), "{s}");
        assert!(s.contains("stages  : not recorded"), "{s}");
        assert!(s.contains("terminal: not recorded"), "{s}");
    }

    #[test]
    fn batch_counters_load_and_render() {
        let text = r#"{
            "kind": "run_report", "schema": 8, "tool": "pi2m", "threads": 1, "wall_s": 0.5,
            "counters": {
                "pred_batch_orient_batches": 100, "pred_batch_orient_lanes": 900,
                "pred_batch_orient_fallbacks": 9,
                "pred_batch_insphere_batches": 100, "pred_batch_insphere_lanes": 700,
                "pred_batch_insphere_fallbacks": 7,
                "scratch_soa_gathers": 200, "scratch_soa_points": 2400
            }
        }"#;
        let b = report(text).batch;
        assert_eq!(b.orient_lanes, 900);
        assert!((b.lanes_per_wave() - 8.0).abs() < 1e-9);
        assert!((b.fallback_rate() - 0.01).abs() < 1e-9);
        assert!((b.points_per_gather() - 12.0).abs() < 1e-9);
        let s = render_summary(&load_artifact(text).unwrap());
        assert!(s.contains("batched : orient 100 waves / 900 lanes"), "{s}");
        assert!(s.contains("8.0 lanes/wave, 1.00% scalar fallback"), "{s}");
        assert!(s.contains("soa     : 200 staging gathers"), "{s}");
    }

    #[test]
    fn classify_line_splits_stale_from_live_pops() {
        let summary = |counters: &str| {
            let text = format!(
                r#"{{"kind": "run_report", "schema": 8, "tool": "pi2m", "threads": 1,
                    "wall_s": 0.5, "counters": {{"ops_total": 100, {counters}}}}}"#
            );
            render_summary(&load_artifact(&text).unwrap())
        };
        let s = summary(r#""classify_calls": 2600, "classify_stale": 1750"#);
        assert!(
            s.contains(
                "classify: 2600 PEL pops (26.0/op): 1750 stale (67.3%), 850 live (8.5/op)\n"
            ),
            "{s}"
        );
        // entries pruned from the PEL were never popped: named after the split
        let s = summary(r#""classify_calls": 2600, "classify_stale": 1750, "pel_pruned": 300"#);
        assert!(
            s.contains("850 live (8.5/op); 300 dead entries pruned unpopped\n"),
            "{s}"
        );
        // R3's facet visits and memo hits close the line
        let s = summary(
            r#""classify_calls": 2600, "classify_stale": 1750, "r3_facets": 3000, "r3_memo_hits": 1000"#,
        );
        assert!(
            s.contains("850 live (8.5/op); R3 3000 facets, 1000 (33.3%) cleared by the memo\n"),
            "{s}"
        );
        // ... and the Voronoi edges the traversal walked end it
        let s = summary(
            r#""classify_calls": 2600, "r3_facets": 3000, "r3_memo_hits": 1000, "r3_traversals": 120"#,
        );
        assert!(
            s.contains("R3 3000 facets, 1000 (33.3%) cleared by the memo, 120 (4.0%) traversed\n"),
            "{s}"
        );
        // zero counters are not written: no stale pop reads as none
        let s = summary(r#""classify_calls": 2600"#);
        assert!(s.contains("2600 PEL pops (26.0/op): 0 stale (0.0%)"), "{s}");
    }

    #[test]
    fn diff_attributes_regression_to_grown_waste_category() {
        let base = report(&sample_report(1_000_000));
        // the "regressed" run rolled back 12ms instead of 1ms
        let new = report(&sample_report(12_000_000));
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
