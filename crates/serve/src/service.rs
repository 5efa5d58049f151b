//! The meshing service: N warm session slots draining a bounded job queue,
//! with a typed failure model wrapped around every attempt.
//!
//! ## Failure model
//!
//! Every admitted job terminates in exactly one typed state:
//!
//! * **Succeeded** — the mesh ran, the artifact is flushed (written to a
//!   temp file and renamed into place).
//! * **Failed** — a *deterministic* error (unreadable input, a typed
//!   kernel-invariant error) fails fast on the first attempt; *transient*
//!   errors (worker-quorum loss, livelock, session-checkout faults,
//!   artifact I/O) are retried with capped exponential backoff until the
//!   retry budget is spent.
//! * **Cancelled** — the per-job deadline passed (while queued, mid-attempt
//!   via the engine's cooperative [`CancelToken`], or because a drain ran
//!   out of grace).
//!
//! A transient failure that poisons the slot (worker deaths, livelock,
//! checkout faults) **quarantines the session**: the slot recycles its
//! [`MeshingSession`] — fresh pool threads, arenas, rings, grid — before
//! the retry, so a poisoned run can never bleed state into the next
//! attempt. A *successful* run that still lost workers (the PEL-bequest
//! recovery path) is also followed by a recycle, acting as the worker-death
//! watchdog. An independent watchdog thread force-cancels jobs that
//! overstay their deadline by more than a grace period, so no job can hang
//! the service even if a cooperative cancellation point is missed.

use crate::job::{job_name, JobId, JobRecord, JobSpec, JobStatus, Priority};
use crate::queue::{AdmitError, JobQueue};
use crate::trace::TraceEventKind;
use parking_lot::Mutex;
use pi2m_faults::{sites, FaultPlan};
use pi2m_image::load_input;
use pi2m_obs::journal::Journal;
use pi2m_obs::json::Json;
use pi2m_obs::metrics::{self, Hist, MetricsSnapshot};
use pi2m_obs::{render_prometheus, CancelToken, RunReport};
use pi2m_refine::{
    MesherConfig, MeshingSession, RefineError, RunOptions, StageCallback, StageEvent, StageStatus,
};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Service-wide configuration (fixed at start).
#[derive(Clone)]
pub struct ServiceConfig {
    /// Warm session slots executing jobs concurrently.
    pub sessions: usize,
    /// Worker threads per session (also the per-job thread cap).
    pub threads: usize,
    /// Bounded queue capacity; submissions beyond it are shed.
    pub queue_capacity: usize,
    /// Directory artifacts are flushed into.
    pub spool: PathBuf,
    /// Default per-job deadline when the spec does not set one (`None` =
    /// unlimited).
    pub default_deadline_s: Option<f64>,
    /// Default retry budget for transient failures.
    pub max_retries: u32,
    /// First retry backoff; doubles per attempt.
    pub backoff_base_ms: u64,
    /// Backoff ceiling.
    pub backoff_cap_ms: u64,
    /// Seconds past a job's deadline before the watchdog force-cancels it.
    pub deadline_grace_s: f64,
    /// Watchdog sweep interval.
    pub watchdog_interval_ms: u64,
    /// Deterministic fault plan, consulted at the service sites
    /// (`serve.queue.admit`, `serve.session.checkout`,
    /// `serve.artifact.write`) and threaded into every job's engine config.
    pub faults: Option<Arc<FaultPlan>>,
    /// Structured log for control-plane events (admissions, sheds, retries,
    /// recycles, terminals). Defaults to a null journal so embedders and
    /// tests stay silent.
    pub journal: Arc<Journal>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            sessions: 2,
            threads: 2,
            queue_capacity: 32,
            spool: std::env::temp_dir().join("pi2m-spool"),
            default_deadline_s: None,
            max_retries: 2,
            backoff_base_ms: 50,
            backoff_cap_ms: 2_000,
            deadline_grace_s: 5.0,
            watchdog_interval_ms: 100,
            faults: None,
            journal: Journal::null(),
        }
    }
}

/// How an attempt failed, and what that means for the job.
enum FailureClass {
    /// Deadline passed; terminal, never retried.
    Cancelled,
    /// Same inputs would fail the same way; fail fast.
    Deterministic,
    /// Worth retrying; `poison` additionally quarantines the session.
    Transient { poison: bool },
}

impl FailureClass {
    /// Stable classification label for traces and journal lines.
    fn name(&self) -> &'static str {
        match self {
            FailureClass::Cancelled => "cancelled",
            FailureClass::Deterministic => "deterministic",
            FailureClass::Transient { .. } => "transient",
        }
    }
}

struct AttemptFailure {
    class: FailureClass,
    /// Stable error class for the job record (`cancelled`, `load`,
    /// `kernel`, `worker_quorum_lost`, `livelock`, `checkout`, `io`).
    kind: &'static str,
    message: String,
}

impl AttemptFailure {
    fn from_refine(e: &RefineError) -> AttemptFailure {
        let (class, kind) = match e {
            RefineError::Cancelled => (FailureClass::Cancelled, "cancelled"),
            RefineError::WorkerQuorumLost { .. } => (
                FailureClass::Transient { poison: true },
                "worker_quorum_lost",
            ),
            RefineError::Livelock => (FailureClass::Transient { poison: true }, "livelock"),
            RefineError::Kernel(_) => (FailureClass::Deterministic, "kernel"),
        };
        AttemptFailure {
            class,
            kind,
            message: e.to_string(),
        }
    }
}

/// What a successful attempt hands back to the retry loop.
struct AttemptSuccess {
    tets: u64,
    run_s: f64,
    artifact: PathBuf,
    /// Workers died (but quorum held) — recycle the session afterwards.
    dirty: bool,
}

const LATENCY_CLASSES: [&str; 3] = ["high", "normal", "low"];
const LATENCY_STATES: [&str; 3] = ["succeeded", "failed", "cancelled"];

/// Per-priority-class, per-terminal-state latency histograms, observed once
/// when a job goes terminal and rendered into `/metrics` as the labeled
/// `pi2m_serve_queue_wait_seconds` / `pi2m_serve_run_seconds` families.
struct LatencyPanel {
    /// Indexed `[Priority::class()][terminal state]`.
    queue_wait: [[Hist; 3]; 3],
    run: [[Hist; 3]; 3],
}

impl LatencyPanel {
    fn new() -> LatencyPanel {
        LatencyPanel {
            queue_wait: std::array::from_fn(|_| std::array::from_fn(|_| Hist::default())),
            run: std::array::from_fn(|_| std::array::from_fn(|_| Hist::default())),
        }
    }

    fn state_index(status: JobStatus) -> usize {
        match status {
            JobStatus::Succeeded => 0,
            JobStatus::Cancelled => 2,
            _ => 1,
        }
    }

    fn observe(&mut self, priority: Priority, status: JobStatus, wait_s: f64, run_s: f64) {
        let (c, s) = (priority.class(), LatencyPanel::state_index(status));
        self.queue_wait[c][s].observe(wait_s);
        self.run[c][s].observe(run_s);
    }

    fn render(&self, out: &mut String) {
        LatencyPanel::render_family(
            out,
            "pi2m_serve_queue_wait_seconds",
            "Seconds jobs spent queued before their first attempt, by priority class and terminal state (s)",
            &self.queue_wait,
        );
        LatencyPanel::render_family(
            out,
            "pi2m_serve_run_seconds",
            "Seconds jobs spent executing after leaving the queue, by priority class and terminal state (s)",
            &self.run,
        );
    }

    /// One labeled histogram family, following the exposition-format rules
    /// `render_prometheus` uses: HELP/TYPE once, cumulative `le` buckets
    /// with a closing `+Inf`, `_sum`/`_count` per label set; label sets
    /// with no observations are skipped.
    fn render_family(out: &mut String, name: &str, help: &str, grid: &[[Hist; 3]; 3]) {
        if grid.iter().flatten().all(|h| h.count == 0) {
            return;
        }
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} histogram");
        for (c, row) in grid.iter().enumerate() {
            for (s, h) in row.iter().enumerate() {
                if h.count == 0 {
                    continue;
                }
                let labels = format!(
                    "class=\"{}\",state=\"{}\"",
                    LATENCY_CLASSES[c], LATENCY_STATES[s]
                );
                let mut cum = 0u64;
                for (i, &n) in h.buckets.iter().enumerate() {
                    if n == 0 {
                        continue;
                    }
                    cum += n;
                    let le = metrics::bucket_upper_bound(i);
                    if le.is_infinite() {
                        let _ = writeln!(out, "{name}_bucket{{{labels},le=\"+Inf\"}} {cum}");
                    } else {
                        let _ = writeln!(out, "{name}_bucket{{{labels},le=\"{le}\"}} {cum}");
                    }
                }
                if h.buckets[h.buckets.len() - 1] == 0 {
                    let _ = writeln!(out, "{name}_bucket{{{labels},le=\"+Inf\"}} {}", h.count);
                }
                let _ = writeln!(out, "{name}_sum{{{labels}}} {}", h.sum);
                let _ = writeln!(out, "{name}_count{{{labels}}} {}", h.count);
            }
        }
    }
}

/// The running service. Fully interior-mutable: share behind an [`Arc`]
/// between the HTTP front door, the signal handler, and tests.
pub struct MeshService {
    cfg: ServiceConfig,
    queue: JobQueue,
    jobs: Mutex<HashMap<JobId, JobRecord>>,
    /// Cancel handles (and deadlines) of attempts currently executing.
    running: Mutex<HashMap<JobId, (CancelToken, Option<Instant>)>>,
    /// Service-lifetime metrics: the serve counters plus every finished
    /// job's engine metrics merged in.
    metrics: Mutex<MetricsSnapshot>,
    /// EWMA of recent job run time, for `Retry-After` hints.
    avg_run_s: Mutex<Option<f64>>,
    /// Per-class latency histograms, observed at each job's terminal state.
    latency: Mutex<LatencyPanel>,
    next_id: AtomicU64,
    busy_slots: AtomicUsize,
    /// Set when a drain exhausted its grace: attempts and backoffs abort.
    abort: AtomicBool,
    watchdog_stop: AtomicBool,
    handles: Mutex<Vec<JoinHandle<()>>>,
    started: Instant,
}

impl MeshService {
    /// Create the spool directory, spawn the session slots and the
    /// watchdog, and start serving the queue.
    pub fn start(cfg: ServiceConfig) -> Result<Arc<MeshService>, String> {
        assert!(cfg.sessions >= 1, "need at least one session slot");
        assert!(cfg.threads >= 1, "need at least one worker thread");
        assert!(cfg.queue_capacity >= 1, "queue capacity must be positive");
        std::fs::create_dir_all(&cfg.spool)
            .map_err(|e| format!("cannot create spool dir {}: {e}", cfg.spool.display()))?;
        let svc = Arc::new(MeshService {
            queue: JobQueue::new(cfg.queue_capacity),
            jobs: Mutex::new(HashMap::new()),
            running: Mutex::new(HashMap::new()),
            metrics: Mutex::new(MetricsSnapshot::new()),
            avg_run_s: Mutex::new(None),
            latency: Mutex::new(LatencyPanel::new()),
            next_id: AtomicU64::new(1),
            busy_slots: AtomicUsize::new(0),
            abort: AtomicBool::new(false),
            watchdog_stop: AtomicBool::new(false),
            handles: Mutex::new(Vec::new()),
            started: Instant::now(),
            cfg,
        });
        let mut handles = Vec::new();
        for slot in 0..svc.cfg.sessions {
            let s = Arc::clone(&svc);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("pi2m-slot-{slot}"))
                    .spawn(move || s.runner(slot))
                    .map_err(|e| format!("cannot spawn slot thread: {e}"))?,
            );
        }
        {
            let s = Arc::clone(&svc);
            handles.push(
                std::thread::Builder::new()
                    .name("pi2m-watchdog".into())
                    .spawn(move || s.watchdog())
                    .map_err(|e| format!("cannot spawn watchdog thread: {e}"))?,
            );
        }
        *svc.handles.lock() = handles;
        Ok(svc)
    }

    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// The service's structured log (the HTTP front door logs through it).
    pub fn journal(&self) -> &Journal {
        &self.cfg.journal
    }

    /// Jobs currently waiting in the queue.
    pub fn queue_depth(&self) -> usize {
        self.queue.depth()
    }

    /// Slots currently executing (or backing off between attempts of) a job.
    pub fn busy_slots(&self) -> usize {
        self.busy_slots.load(Ordering::Relaxed)
    }

    pub fn is_draining(&self) -> bool {
        self.queue.is_draining()
    }

    pub fn uptime_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// The `Retry-After` hint stamped into shed responses: roughly how long
    /// until a queue slot frees up, from the current depth and the measured
    /// average job time.
    pub fn retry_after_s(&self) -> u64 {
        let avg = self.avg_run_s.lock().unwrap_or(1.0);
        let per_slot = (self.queue.depth() as f64 + 1.0) * avg / self.cfg.sessions as f64;
        (per_slot.ceil() as u64).clamp(1, 60)
    }

    /// Admit one job or shed it with a typed error. Shedding is counted but
    /// leaves no record: the rejection is the whole story.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, AdmitError> {
        let retry_after_s = self.retry_after_s();
        // Seeded fault site: shed as if the queue were full (`fail`/`deny`),
        // or stall the submitting connection (`delay`).
        if let Some(f) = &self.cfg.faults {
            if f.fire(sites::SERVE_ADMIT, 0).is_some() {
                self.count(metrics::SERVE_JOBS_SHED, 1);
                self.journal_shed(spec.priority, "injected admission fault", retry_after_s);
                return Err(AdmitError::QueueFull {
                    depth: self.queue.depth(),
                    capacity: self.cfg.queue_capacity,
                    retry_after_s,
                });
            }
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let deadline_s = spec.deadline_s.or(self.cfg.default_deadline_s);
        let deadline = deadline_s.map(|s| Instant::now() + Duration::from_secs_f64(s));
        let prio = spec.priority;
        let depth = self.queue.depth();
        // Insert the record BEFORE admission so a slot popping the id always
        // finds it; roll back on shed.
        let mut rec = JobRecord::new(id, spec, deadline);
        rec.trace.push(
            0.0,
            TraceEventKind::Admitted {
                priority: prio,
                queue_depth: depth,
            },
        );
        self.jobs.lock().insert(id, rec);
        match self.queue.admit(id, prio, retry_after_s) {
            Ok(()) => {
                self.count(metrics::SERVE_JOBS_SUBMITTED, 1);
                self.cfg.journal.info(
                    "job.admitted",
                    &[
                        ("job", Json::str(job_name(id))),
                        ("priority", Json::str(prio.as_str())),
                        ("depth", Json::int(depth as u64)),
                    ],
                );
                Ok(id)
            }
            Err(e) => {
                self.jobs.lock().remove(&id);
                self.count(metrics::SERVE_JOBS_SHED, 1);
                let reason = match e {
                    AdmitError::QueueFull { .. } => "queue full",
                    AdmitError::Draining => "draining",
                };
                self.journal_shed(prio, reason, retry_after_s);
                Err(e)
            }
        }
    }

    fn journal_shed(&self, priority: Priority, reason: &str, retry_after_s: u64) {
        self.cfg.journal.warn(
            "job.shed",
            &[
                ("priority", Json::str(priority.as_str())),
                ("reason", Json::str(reason)),
                ("depth", Json::int(self.queue.depth() as u64)),
                ("retry_after_s", Json::int(retry_after_s)),
            ],
        );
    }

    /// Snapshot one job record.
    pub fn job(&self, id: JobId) -> Option<JobRecord> {
        self.jobs.lock().get(&id).cloned()
    }

    /// Snapshot all job records, oldest first.
    pub fn jobs(&self) -> Vec<JobRecord> {
        let mut v: Vec<JobRecord> = self.jobs.lock().values().cloned().collect();
        v.sort_by_key(|r| r.id);
        v
    }

    /// Stop admitting new jobs. Queued and running jobs keep going;
    /// idempotent (only the first call counts a drain).
    pub fn begin_drain(&self) {
        if !self.queue.is_draining() {
            self.count(metrics::SERVE_DRAINS, 1);
        }
        self.queue.begin_drain();
    }

    /// Graceful drain: stop admitting, let in-flight jobs finish (or hit
    /// their own deadlines), then join every service thread. If the backlog
    /// is not gone after `grace`, remaining attempts are force-cancelled
    /// (they terminate `Cancelled`, typed). Returns `true` when everything
    /// finished within the grace period.
    pub fn drain(&self, grace: Duration) -> bool {
        self.begin_drain();
        let deadline = Instant::now() + grace;
        let clean = loop {
            let idle = self.busy_slots() == 0 && self.queue_depth() == 0;
            if idle {
                break true;
            }
            if Instant::now() >= deadline {
                // Out of grace: abort backoffs and cancel running attempts.
                self.abort.store(true, Ordering::SeqCst);
                for (token, _) in self.running.lock().values() {
                    token.cancel();
                }
                break false;
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        self.watchdog_stop.store(true, Ordering::SeqCst);
        let handles = std::mem::take(&mut *self.handles.lock());
        for h in handles {
            let _ = h.join();
        }
        clean
    }

    /// Prometheus exposition of the service: the obs catalog (serve
    /// counters plus every job's merged engine metrics) and the live
    /// service gauges.
    pub fn render_metrics(&self) -> String {
        let mut report = RunReport::new("pi2m-serve");
        report.threads = self.cfg.sessions * self.cfg.threads;
        report.wall_s = self.uptime_s();
        report.metrics = self.metrics.lock().clone();
        let mut out = render_prometheus(&report);
        self.latency.lock().render(&mut out);
        let mut gauge = |name: &str, help: &str, v: f64| {
            let _ = writeln!(out, "# HELP pi2m_{name} {help}");
            let _ = writeln!(out, "# TYPE pi2m_{name} gauge");
            let _ = writeln!(out, "pi2m_{name} {v}");
        };
        gauge(
            "serve_queue_depth",
            "Jobs waiting in the admission queue",
            self.queue_depth() as f64,
        );
        gauge(
            "serve_queue_capacity",
            "Bounded queue capacity",
            self.cfg.queue_capacity as f64,
        );
        gauge(
            "serve_slots_busy",
            "Session slots executing a job",
            self.busy_slots() as f64,
        );
        gauge(
            "serve_sessions",
            "Warm session slots",
            self.cfg.sessions as f64,
        );
        gauge(
            "serve_draining",
            "1 once a drain was requested",
            if self.is_draining() { 1.0 } else { 0.0 },
        );
        gauge(
            "serve_uptime_seconds",
            "Seconds since the service started",
            self.uptime_s(),
        );
        out
    }

    /// Read one service counter (tests and the drain summary).
    pub fn counter(&self, id: metrics::CounterId) -> u64 {
        self.metrics.lock().counter(id)
    }

    fn count(&self, id: metrics::CounterId, n: u64) {
        self.metrics.lock().add_counter(id, n);
    }

    // ---- slot side ------------------------------------------------------

    fn runner(self: Arc<Self>, slot: usize) {
        let mut session = MeshingSession::new(self.cfg.threads);
        while let Some(id) = self.queue.pop() {
            self.busy_slots.fetch_add(1, Ordering::SeqCst);
            // Crash isolation of last resort: a panic escaping the attempt
            // (e.g. an injected `kind=panic` at a service fault site) must
            // not kill the slot — the job fails typed, the session is
            // quarantined, and the runner keeps draining the queue.
            let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                Arc::clone(&self).run_job(&mut session, slot, id)
            }));
            if attempt.is_err() {
                self.running.lock().remove(&id);
                self.recycle(&mut session, slot, "panic escaped the attempt");
                self.finish_failed(
                    id,
                    JobStatus::Failed,
                    &AttemptFailure {
                        class: FailureClass::Deterministic,
                        kind: "panic",
                        message: "attempt panicked; session slot quarantined".into(),
                    },
                );
            }
            self.busy_slots.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Append one lifecycle event to a job's trace, timestamped on the
    /// record's submission clock.
    fn trace(&self, id: JobId, kind: TraceEventKind) {
        if let Some(r) = self.jobs.lock().get_mut(&id) {
            let t = r.submitted.elapsed().as_secs_f64();
            r.trace.push(t, kind);
        }
    }

    /// Bridge one refine stage notification into the job's trace. Invoked
    /// synchronously from the pipeline thread via the run's
    /// [`StageCallback`]; `elapsed_s` is seconds since the *attempt's* run
    /// origin and is preserved as `run_t_s` so stage durations survive
    /// retries.
    fn trace_stage(&self, id: JobId, ev: StageEvent) {
        let stage = ev.stage.phase_name();
        let kind = match ev.status {
            StageStatus::Started => TraceEventKind::StageStarted {
                stage,
                run_t_s: ev.elapsed_s,
            },
            StageStatus::Finished => TraceEventKind::StageFinished {
                stage,
                run_t_s: ev.elapsed_s,
            },
        };
        self.trace(id, kind);
    }

    /// Execute one job to a typed terminal state, retrying transient
    /// failures with capped exponential backoff.
    fn run_job(self: Arc<Self>, session: &mut MeshingSession, slot: usize, id: JobId) {
        let Some((spec, deadline, wait_s)) = ({
            let mut jobs = self.jobs.lock();
            jobs.get_mut(&id).map(|r| {
                r.status = JobStatus::Running;
                let wait = r.submitted.elapsed().as_secs_f64();
                r.queue_wait_s = Some(wait);
                r.trace
                    .push(wait, TraceEventKind::QueueWait { wait_s: wait });
                (r.spec.clone(), r.deadline, wait)
            })
        }) else {
            return; // record vanished (never happens in practice)
        };
        self.cfg.journal.debug(
            "job.start",
            &[
                ("job", Json::str(job_name(id))),
                ("wait_s", Json::num(wait_s)),
                ("slot", Json::int(slot as u64)),
            ],
        );
        // Stage notifications outlive the borrow of `self` held by the
        // attempt, so the callback captures a weak handle.
        let weak = Arc::downgrade(&self);
        let on_stage: StageCallback = Arc::new(move |ev| {
            if let Some(svc) = weak.upgrade() {
                svc.trace_stage(id, ev);
            }
        });
        let max_retries = spec.max_retries.unwrap_or(self.cfg.max_retries);
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            if let Some(r) = self.jobs.lock().get_mut(&id) {
                r.attempts = attempt;
                r.session_generation = Some(session.generation());
                let t = r.submitted.elapsed().as_secs_f64();
                r.trace.push(
                    t,
                    TraceEventKind::Checkout {
                        attempt,
                        slot,
                        session_generation: session.generation(),
                    },
                );
            }
            match self.attempt(session, slot, id, &spec, deadline, &on_stage) {
                Ok(done) => {
                    if done.dirty {
                        // Worker-death watchdog: the run finished (PEL
                        // bequest kept it sound) but the slot is suspect.
                        self.recycle(session, slot, "workers died during a successful run");
                    }
                    let mut avg = self.avg_run_s.lock();
                    *avg = Some(match *avg {
                        Some(a) => 0.8 * a + 0.2 * done.run_s,
                        None => done.run_s,
                    });
                    drop(avg);
                    if let Some(r) = self.jobs.lock().get_mut(&id) {
                        r.status = JobStatus::Succeeded;
                        r.run_s = Some(done.run_s);
                        r.tets = Some(done.tets);
                        r.artifact = Some(done.artifact);
                        let t = r.submitted.elapsed().as_secs_f64();
                        r.trace.push(
                            t,
                            TraceEventKind::Terminal {
                                status: JobStatus::Succeeded,
                                attempts: attempt,
                            },
                        );
                    }
                    self.count(metrics::SERVE_JOBS_SUCCEEDED, 1);
                    self.observe_latency(id, JobStatus::Succeeded);
                    self.cfg.journal.info(
                        "job.terminal",
                        &[
                            ("job", Json::str(job_name(id))),
                            ("status", Json::str("succeeded")),
                            ("attempts", Json::int(attempt as u64)),
                            ("run_s", Json::num(done.run_s)),
                            ("tets", Json::int(done.tets)),
                        ],
                    );
                    return;
                }
                Err(fail) => {
                    let will_retry = matches!(fail.class, FailureClass::Transient { .. })
                        && attempt <= max_retries
                        && !self.abort.load(Ordering::SeqCst);
                    self.trace(
                        id,
                        TraceEventKind::AttemptFailed {
                            attempt,
                            kind: fail.kind,
                            class: fail.class.name(),
                            will_retry,
                        },
                    );
                    self.cfg.journal.warn(
                        "job.attempt_failed",
                        &[
                            ("job", Json::str(job_name(id))),
                            ("attempt", Json::int(attempt as u64)),
                            ("error_kind", Json::str(fail.kind)),
                            ("class", Json::str(fail.class.name())),
                            ("will_retry", Json::Bool(will_retry)),
                        ],
                    );
                    if let FailureClass::Transient { poison: true } = fail.class {
                        self.recycle(session, slot, fail.kind);
                    }
                    match fail.class {
                        FailureClass::Cancelled => {
                            self.finish_failed(id, JobStatus::Cancelled, &fail);
                            return;
                        }
                        FailureClass::Deterministic => {
                            self.finish_failed(id, JobStatus::Failed, &fail);
                            return;
                        }
                        FailureClass::Transient { .. } => {
                            if attempt > max_retries {
                                let fail = AttemptFailure {
                                    message: format!(
                                        "{} (retry budget of {max_retries} spent over {attempt} attempts)",
                                        fail.message
                                    ),
                                    ..fail
                                };
                                self.finish_failed(id, JobStatus::Failed, &fail);
                                return;
                            }
                            self.count(metrics::SERVE_JOB_RETRIES, 1);
                            let backoff_s = self.backoff_duration(attempt).as_secs_f64();
                            self.trace(id, TraceEventKind::Backoff { attempt, backoff_s });
                            if !self.backoff(attempt, deadline) {
                                let fail = AttemptFailure {
                                    class: FailureClass::Cancelled,
                                    kind: "cancelled",
                                    message: format!(
                                        "deadline passed while backing off after: {}",
                                        fail.message
                                    ),
                                };
                                self.finish_failed(id, JobStatus::Cancelled, &fail);
                                return;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Feed a terminal job's latency split into the per-class histograms.
    /// The queue wait is known exactly; the run side is everything after it
    /// (attempts, backoffs), so the two sum to the job's age at terminal.
    fn observe_latency(&self, id: JobId, status: JobStatus) {
        let Some((priority, wait_s, run_s)) = ({
            let jobs = self.jobs.lock();
            jobs.get(&id).map(|r| {
                let age = r.submitted.elapsed().as_secs_f64();
                let wait = r.queue_wait_s.unwrap_or(age);
                (r.spec.priority, wait, (age - wait).max(0.0))
            })
        }) else {
            return;
        };
        self.latency.lock().observe(priority, status, wait_s, run_s);
    }

    fn finish_failed(&self, id: JobId, status: JobStatus, fail: &AttemptFailure) {
        let attempts = {
            let mut jobs = self.jobs.lock();
            let Some(r) = jobs.get_mut(&id) else { return };
            if r.status.is_terminal() {
                return; // already terminal; never overwrite (or double-count)
            }
            r.status = status;
            r.error_kind = Some(fail.kind.to_string());
            r.error = Some(fail.message.clone());
            let t = r.submitted.elapsed().as_secs_f64();
            r.trace.push(
                t,
                TraceEventKind::Terminal {
                    status,
                    attempts: r.attempts,
                },
            );
            r.attempts
        };
        self.count(
            match status {
                JobStatus::Cancelled => metrics::SERVE_JOBS_CANCELLED,
                _ => metrics::SERVE_JOBS_FAILED,
            },
            1,
        );
        self.observe_latency(id, status);
        self.cfg.journal.warn(
            "job.terminal",
            &[
                ("job", Json::str(job_name(id))),
                ("status", Json::str(status.as_str())),
                ("attempts", Json::int(attempts as u64)),
                ("error_kind", Json::str(fail.kind)),
                ("error", Json::str(fail.message.clone())),
            ],
        );
    }

    fn recycle(&self, session: &mut MeshingSession, slot: usize, why: &str) {
        self.cfg.journal.warn(
            "serve.recycle",
            &[
                ("slot", Json::int(slot as u64)),
                ("from_generation", Json::int(session.generation())),
                ("to_generation", Json::int(session.generation() + 1)),
                ("why", Json::str(why)),
            ],
        );
        session.recycle();
        self.count(metrics::SERVE_SESSIONS_RECYCLED, 1);
    }

    /// One attempt: checkout, load, mesh under the job's deadline token,
    /// flush the artifact.
    fn attempt(
        &self,
        session: &mut MeshingSession,
        slot: usize,
        id: JobId,
        spec: &JobSpec,
        deadline: Option<Instant>,
        on_stage: &StageCallback,
    ) -> Result<AttemptSuccess, AttemptFailure> {
        if self.abort.load(Ordering::SeqCst) {
            return Err(AttemptFailure {
                class: FailureClass::Cancelled,
                kind: "cancelled",
                message: "drain grace period expired before the attempt started".into(),
            });
        }
        // Seeded fault site: a poisoned checkout is transient and
        // quarantines the slot, exactly like a real poisoned session.
        if let Some(f) = &self.cfg.faults {
            if f.fire(sites::SERVE_CHECKOUT, slot as u32).is_some() {
                return Err(AttemptFailure {
                    class: FailureClass::Transient { poison: true },
                    kind: "checkout",
                    message: "injected session-checkout fault".into(),
                });
            }
        }
        let remaining = match deadline {
            Some(d) => {
                let now = Instant::now();
                if now >= d {
                    return Err(AttemptFailure {
                        class: FailureClass::Cancelled,
                        kind: "cancelled",
                        message: "deadline passed before the attempt started".into(),
                    });
                }
                Some(d - now)
            }
            None => None,
        };
        let img = load_input(&spec.input).map_err(|e| AttemptFailure {
            class: FailureClass::Deterministic,
            kind: "load",
            message: e,
        })?;
        let threads = spec
            .threads
            .unwrap_or(self.cfg.threads)
            .clamp(1, self.cfg.threads);
        let cfg = MesherConfig {
            delta: spec.delta.unwrap_or(2.0 * img.min_spacing()),
            threads,
            faults: self.cfg.faults.clone(),
            ..Default::default()
        };
        let token = match remaining {
            Some(d) => CancelToken::with_deadline(d),
            None => CancelToken::new(),
        };
        self.running.lock().insert(id, (token.clone(), deadline));
        let t0 = Instant::now();
        let run_opts = RunOptions {
            cancel: Some(token),
            on_stage: Some(on_stage.clone()),
        };
        // Sharded jobs route through the chunk-and-stitch orchestrator on
        // the same warm session; plan errors are deterministic (a retry
        // cannot fix a degenerate grid), engine errors keep their class.
        let result = match spec.shards {
            Some(grid) => pi2m_refine::mesh_sharded(
                session,
                img,
                cfg,
                &run_opts,
                &pi2m_refine::ShardSpec {
                    grid,
                    halo: spec.halo,
                    lanes: None,
                },
            )
            .map(|run| {
                // Chunk accounting becomes per-chunk spans on the trace.
                for c in &run.chunks {
                    self.trace(
                        id,
                        TraceEventKind::ShardChunk {
                            index: c.index,
                            tets: c.tets,
                            wall_s: c.wall_s,
                        },
                    );
                }
                run.out
            })
            .map_err(|e| match e {
                pi2m_refine::ShardError::Run(e) => AttemptFailure::from_refine(&e),
                other => AttemptFailure {
                    class: FailureClass::Deterministic,
                    kind: "shard",
                    message: other.to_string(),
                },
            }),
            None => session
                .mesh_with(img, cfg, &run_opts)
                .map_err(|e| AttemptFailure::from_refine(&e)),
        };
        self.running.lock().remove(&id);
        let out = result?;
        let run_s = t0.elapsed().as_secs_f64();
        let dirty = out.stats.workers_died > 0;
        // Fold the job's engine metrics into the service-lifetime view
        // (events are per-run timelines — dropped to keep memory bounded).
        {
            let mut m = self.metrics.lock();
            m.merge(&out.metrics);
            m.events.clear();
        }
        let artifact = self
            .flush_artifact(id, &out)
            .map_err(|message| AttemptFailure {
                class: FailureClass::Transient { poison: false },
                kind: "io",
                message,
            })?;
        Ok(AttemptSuccess {
            tets: out.mesh.num_tets() as u64,
            run_s,
            artifact,
            dirty,
        })
    }

    /// Flush the mesh artifact: write to a temp file, rename into place.
    /// The rename makes a fetched artifact always complete, and the temp
    /// write is the `serve.artifact.write` fault site.
    fn flush_artifact(&self, id: JobId, out: &pi2m_refine::MeshOutput) -> Result<PathBuf, String> {
        if let Some(f) = &self.cfg.faults {
            if f.fire(sites::SERVE_ARTIFACT, 0).is_some() {
                return Err("injected artifact-write fault".into());
            }
        }
        let path = self
            .cfg
            .spool
            .join(format!("{}.vtk", crate::job::job_name(id)));
        let tmp = self
            .cfg
            .spool
            .join(format!(".{}.vtk.tmp", crate::job::job_name(id)));
        let write = || -> std::io::Result<()> {
            let f = std::fs::File::create(&tmp)?;
            let mut w = std::io::BufWriter::new(f);
            pi2m_meshio::write_vtk(&out.mesh, &mut w)?;
            w.flush()?;
            std::fs::rename(&tmp, &path)
        };
        write().map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            format!("artifact write failed: {e}")
        })?;
        Ok(path)
    }

    /// The capped exponential backoff before retry `attempt + 1`.
    fn backoff_duration(&self, attempt: u32) -> Duration {
        let exp = self
            .cfg
            .backoff_base_ms
            .saturating_mul(1u64 << (attempt - 1).min(16));
        Duration::from_millis(exp.min(self.cfg.backoff_cap_ms))
    }

    /// Sleep out a retry backoff (capped exponential), aborting early on
    /// the job deadline or a drain running out of grace. Returns `false`
    /// when the job must stop retrying.
    fn backoff(&self, attempt: u32, deadline: Option<Instant>) -> bool {
        let until = Instant::now() + self.backoff_duration(attempt);
        while Instant::now() < until {
            if self.abort.load(Ordering::SeqCst) {
                return false;
            }
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    return false;
                }
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        true
    }

    // ---- watchdog -------------------------------------------------------

    /// Deadline enforcement of last resort: if a running attempt overstays
    /// its deadline by more than the grace period (a missed cooperative
    /// cancellation point), cancel its token so the engine unwinds at the
    /// next boundary and the job terminates `Cancelled` instead of hanging.
    fn watchdog(self: Arc<Self>) {
        let interval = Duration::from_millis(self.cfg.watchdog_interval_ms.max(10));
        let grace = Duration::from_secs_f64(self.cfg.deadline_grace_s.max(0.0));
        while !self.watchdog_stop.load(Ordering::SeqCst) {
            std::thread::sleep(interval);
            let now = Instant::now();
            for (token, deadline) in self.running.lock().values() {
                if let Some(d) = deadline {
                    if now >= *d + grace {
                        token.cancel();
                    }
                }
            }
        }
    }
}

impl Drop for MeshService {
    fn drop(&mut self) {
        // Safety net for callers that never drained: stop the threads so
        // the process can exit. (Drain is the intended path.)
        self.queue.begin_drain();
        self.abort.store(true, Ordering::SeqCst);
        self.watchdog_stop.store(true, Ordering::SeqCst);
        for (token, _) in self.running.lock().values() {
            token.cancel();
        }
        for h in std::mem::take(&mut *self.handles.lock()) {
            let _ = h.join();
        }
    }
}
