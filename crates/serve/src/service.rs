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
//! recovery path) is also followed by a recycle.
//!
//! Each job has one [`CancelToken`] (`JobRecord::cancel`), made at
//! admission with its deadline. Every attempt runs under a clone of it,
//! and every cooperative cancellation point of the engine polls it (the
//! worker loop, the EDT passes, the stage boundaries); the check before an
//! attempt and a backoff read the same token. A drain out of grace cancels
//! every job's token. No other timer exists.
//!
//! ## One account per job
//!
//! Every lifecycle fact of a job after its admission is one call,
//! `MeshService::event` (`finish` for the terminal one): under one hold of
//! the jobs lock it appends the trace event, updates the record fields the
//! event implies and bumps the matching counter (and, at the terminal, the
//! latency panel); after the lock it writes the journal line `job.<kind>`.
//! Admission writes the record, its opening `admitted` event, the counter
//! and the line under the same lock. The trace, the record, `/metrics` and
//! the journal therefore cannot disagree about a job.

use crate::job::{job_name, JobId, JobRecord, JobSpec, JobStatus, Priority};
use crate::queue::{AdmitError, JobQueue};
use crate::trace::TraceEventKind;
use parking_lot::Mutex;
use pi2m_faults::{sites, FaultPlan};
use pi2m_image::load_input;
use pi2m_obs::export::render_histogram;
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
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
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
            faults: None,
            journal: Journal::null(),
        }
    }
}

/// First retry backoff; doubles per attempt up to [`BACKOFF_CAP`].
const BACKOFF_BASE: Duration = Duration::from_millis(50);
/// Backoff ceiling.
const BACKOFF_CAP: Duration = Duration::from_secs(2);

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
    /// `kernel`, `no_elements`, `worker_quorum_lost`, `livelock`,
    /// `checkout`, `io`).
    kind: &'static str,
    message: String,
}

impl AttemptFailure {
    fn from_refine(e: &RefineError) -> AttemptFailure {
        let (class, kind) = match e {
            RefineError::Cancelled(_) => (FailureClass::Cancelled, "cancelled"),
            RefineError::WorkerQuorumLost { .. } => (
                FailureClass::Transient { poison: true },
                "worker_quorum_lost",
            ),
            RefineError::Livelock => (FailureClass::Transient { poison: true }, "livelock"),
            RefineError::Kernel(_) => (FailureClass::Deterministic, "kernel"),
            RefineError::NoElements { .. } => (FailureClass::Deterministic, "no_elements"),
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

/// How a job ended: what its `Terminal` event stores on the record.
type Outcome = Result<AttemptSuccess, AttemptFailure>;

const LATENCY_CLASSES: [&str; 3] = ["high", "normal", "low"];
const LATENCY_STATES: [&str; 3] = ["succeeded", "failed", "cancelled"];

/// Per-priority-class, per-terminal-state latency histograms, observed once
/// when a job goes terminal and rendered into `/metrics` as the labeled
/// `pi2m_serve_queue_wait_seconds` / `pi2m_serve_run_seconds` families.
#[derive(Default)]
struct LatencyPanel {
    /// Indexed `[Priority::class()][terminal state]`.
    queue_wait: [[Hist; 3]; 3],
    run: [[Hist; 3]; 3],
}

impl LatencyPanel {
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

    /// Each family with observations: HELP/TYPE once, then each label set
    /// with observations through `render_prometheus`'s histogram lines.
    fn render(&self, out: &mut String) {
        for (name, what, grid) in [
            (
                "pi2m_serve_queue_wait_seconds",
                "spent queued before their first attempt",
                &self.queue_wait,
            ),
            (
                "pi2m_serve_run_seconds",
                "spent executing after leaving the queue",
                &self.run,
            ),
        ] {
            if grid.iter().flatten().all(|h| h.count == 0) {
                continue;
            }
            let _ = writeln!(
                out,
                "# HELP {name} Seconds jobs {what}, by priority class and terminal state (s)"
            );
            let _ = writeln!(out, "# TYPE {name} histogram");
            for (c, row) in grid.iter().enumerate() {
                for (s, h) in row.iter().enumerate().filter(|(_, h)| h.count > 0) {
                    let labels = format!(
                        "class=\"{}\",state=\"{}\"",
                        LATENCY_CLASSES[c], LATENCY_STATES[s]
                    );
                    render_histogram(out, name, &labels, h);
                }
            }
        }
    }
}

/// The running service. Fully interior-mutable: share behind an [`Arc`]
/// between the HTTP front door, the signal handler, and tests.
pub struct MeshService {
    cfg: ServiceConfig,
    queue: JobQueue,
    /// Each record is boxed: the table holds a pointer per slot, so its
    /// spare slots and a resize (old and new tables alive at once) cost
    /// 16 bytes a slot instead of a whole record.
    jobs: Mutex<HashMap<JobId, Box<JobRecord>>>,
    /// Service-lifetime metrics: the serve counters plus every finished
    /// job's engine metrics merged in.
    metrics: Mutex<MetricsSnapshot>,
    /// EWMA of recent job run time, for `Retry-After` hints.
    avg_run_s: Mutex<Option<f64>>,
    /// Per-class latency histograms, observed at each job's terminal state.
    latency: Mutex<LatencyPanel>,
    next_id: AtomicU64,
    busy_slots: AtomicUsize,
    handles: Mutex<Vec<JoinHandle<()>>>,
    started: Instant,
}

impl MeshService {
    /// Create the spool directory, spawn one thread per session slot, and
    /// start serving the queue.
    pub fn start(cfg: ServiceConfig) -> Result<Arc<MeshService>, String> {
        assert!(cfg.sessions >= 1, "need at least one session slot");
        assert!(cfg.threads >= 1, "need at least one worker thread");
        assert!(cfg.queue_capacity >= 1, "queue capacity must be positive");
        std::fs::create_dir_all(&cfg.spool)
            .map_err(|e| format!("cannot create spool dir {}: {e}", cfg.spool.display()))?;
        let svc = Arc::new(MeshService {
            queue: JobQueue::new(cfg.queue_capacity),
            jobs: Mutex::new(HashMap::new()),
            metrics: Mutex::new(MetricsSnapshot::new()),
            avg_run_s: Mutex::new(None),
            latency: Mutex::default(),
            next_id: AtomicU64::new(1),
            busy_slots: AtomicUsize::new(0),
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
        *svc.handles.lock() = handles;
        Ok(svc)
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
        let cancel = match spec.deadline_s.or(self.cfg.default_deadline_s) {
            Some(s) => CancelToken::with_deadline(Duration::from_secs_f64(s)),
            None => CancelToken::new(),
        };
        let prio = spec.priority;
        let depth = self.queue.depth();
        // The jobs lock is held across admission, so a slot that pops the
        // id waits for the record, and no later event of the job (each
        // waits for this lock) can be journaled before `job.admitted`.
        // Only an admitted job gets a record, a count and a line.
        let admitted = TraceEventKind::Admitted {
            priority: prio,
            queue_depth: depth,
        };
        let mut jobs = self.jobs.lock();
        match self.queue.admit(id, prio, retry_after_s) {
            Ok(()) => {
                let mut rec = JobRecord::new(id, spec, cancel);
                rec.trace.push(0.0, admitted.clone());
                jobs.insert(id, Box::new(rec));
                self.count(metrics::SERVE_JOBS_SUBMITTED, 1);
                self.journal_event(id, &admitted);
                Ok(id)
            }
            Err(e) => {
                drop(jobs);
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
        self.jobs.lock().get(&id).map(|r| JobRecord::clone(r))
    }

    /// Snapshot all job records, oldest first.
    pub fn jobs(&self) -> Vec<JobRecord> {
        let mut v: Vec<JobRecord> = self
            .jobs
            .lock()
            .values()
            .map(|r| JobRecord::clone(r))
            .collect();
        v.sort_by_key(|r| r.id);
        v
    }

    /// Snapshot the `n` newest job records, newest first. The ids are
    /// chosen under the lock and only their records are cloned, so a long
    /// job table costs a scan of its keys, not a copy of every record. At
    /// 10⁴ finished jobs (2-vCPU VM) a call takes about 30 µs, where
    /// `jobs()` takes 5–6 ms with the lock held for its copy, and a poll of
    /// it every 1 ms raised the 99th-percentile wait of other lock takers
    /// (job events among them) from 4 µs to 3–4.5 ms; with this, to 65 µs.
    pub fn recent_jobs(&self, n: usize) -> Vec<JobRecord> {
        let jobs = self.jobs.lock();
        let mut ids: Vec<JobId> = jobs.keys().copied().collect();
        if n < ids.len() {
            ids.select_nth_unstable_by(n, |a, b| b.cmp(a));
            ids.truncate(n);
        }
        ids.sort_unstable_by(|a, b| b.cmp(a));
        ids.iter().map(|id| JobRecord::clone(&jobs[id])).collect()
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
    /// is not gone after `grace`, every job's token is cancelled, so queued
    /// jobs, attempts (loading or meshing) and backoffs all terminate
    /// `Cancelled`, typed. Returns `true` when everything finished within
    /// the grace period.
    pub fn drain(&self, grace: Duration) -> bool {
        self.begin_drain();
        let deadline = Instant::now() + grace;
        let clean = loop {
            let idle = self.busy_slots() == 0 && self.queue_depth() == 0;
            if idle {
                break true;
            }
            if Instant::now() >= deadline {
                self.cancel_all();
                break false;
            }
            std::thread::sleep(Duration::from_millis(10));
        };
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

    /// Cancel every job's token: whatever a job is doing (queued, loading,
    /// meshing, backing off), it stops at its next check.
    fn cancel_all(&self) {
        for r in self.jobs.lock().values() {
            r.cancel.cancel();
        }
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
                self.recycle(&mut session, slot, "panic escaped the attempt");
                self.finish(
                    id,
                    Err(AttemptFailure {
                        class: FailureClass::Deterministic,
                        kind: "panic",
                        message: "attempt panicked; session slot quarantined".into(),
                    }),
                );
            }
            self.busy_slots.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Record one lifecycle event of job `id`. Under one hold of the jobs
    /// lock: append it to the trace (stamped on the record's submission
    /// clock), update the record fields it implies, and bump its counter;
    /// then journal it as `job.<kind>`. A terminal job takes no further
    /// event, so nothing overwrites or double-counts its end.
    fn event(&self, id: JobId, kind: TraceEventKind) {
        self.record(id, kind, None);
    }

    /// End job `id`: its `Terminal` event, with the outcome stored on the
    /// record under the same lock hold as the status.
    fn finish(&self, id: JobId, outcome: Outcome) {
        let status = match &outcome {
            Ok(_) => JobStatus::Succeeded,
            Err(f) if matches!(f.class, FailureClass::Cancelled) => JobStatus::Cancelled,
            Err(_) => JobStatus::Failed,
        };
        let kind = TraceEventKind::Terminal {
            status,
            attempts: 0, // the record's count, filled in under the lock
        };
        self.record(id, kind, Some(outcome));
    }

    /// The body of [`event`](Self::event) and [`finish`](Self::finish).
    fn record(&self, id: JobId, mut kind: TraceEventKind, outcome: Option<Outcome>) {
        {
            let mut jobs = self.jobs.lock();
            let Some(r) = jobs.get_mut(&id) else { return };
            if r.status.is_terminal() {
                return;
            }
            let age = r.submitted.elapsed().as_secs_f64();
            match &mut kind {
                TraceEventKind::QueueWait { wait_s } => {
                    r.status = JobStatus::Running;
                    r.queue_wait_s = Some(*wait_s);
                }
                TraceEventKind::Checkout {
                    attempt,
                    session_generation,
                    ..
                } => {
                    r.attempts = *attempt;
                    r.session_generation = Some(*session_generation);
                }
                TraceEventKind::Backoff { .. } => self.count(metrics::SERVE_JOB_RETRIES, 1),
                TraceEventKind::Terminal { status, attempts } => {
                    r.status = *status;
                    *attempts = r.attempts;
                    match outcome {
                        Some(Ok(done)) => {
                            r.run_s = Some(done.run_s);
                            r.tets = Some(done.tets);
                            r.artifact = Some(done.artifact);
                        }
                        Some(Err(fail)) => {
                            r.error_kind = Some(fail.kind.to_string());
                            r.error = Some(fail.message);
                        }
                        None => {}
                    }
                    self.count(
                        match status {
                            JobStatus::Succeeded => metrics::SERVE_JOBS_SUCCEEDED,
                            JobStatus::Cancelled => metrics::SERVE_JOBS_CANCELLED,
                            _ => metrics::SERVE_JOBS_FAILED,
                        },
                        1,
                    );
                    // The queue wait is known exactly; the run side is
                    // everything after it (attempts, backoffs), so the two
                    // sum to the job's age at its end.
                    let wait = r.queue_wait_s.unwrap_or(age);
                    self.latency.lock().observe(
                        r.spec.priority,
                        *status,
                        wait,
                        (age - wait).max(0.0),
                    );
                }
                _ => {}
            }
            r.trace.push(age, kind.clone());
            if r.status.is_terminal() {
                r.trace.shrink_to_fit();
            }
        }
        self.journal_event(id, &kind);
    }

    /// The journal line `job.<kind>` of one event, built only when the
    /// journal takes its level.
    fn journal_event(&self, id: JobId, kind: &TraceEventKind) {
        let level = kind.journal_level();
        if self.cfg.journal.enabled(level) {
            let mut fields = vec![("job", Json::str(job_name(id)))];
            fields.extend(kind.fields());
            let event = format!("job.{}", kind.name());
            self.cfg.journal.emit(level, &event, &fields);
        }
    }

    /// Execute one job to a typed terminal state, retrying transient
    /// failures with capped exponential backoff.
    fn run_job(self: Arc<Self>, session: &mut MeshingSession, slot: usize, id: JobId) {
        let Some((spec, cancel, submitted)) = self
            .jobs
            .lock()
            .get(&id)
            .map(|r| (r.spec.clone(), r.cancel.clone(), r.submitted))
        else {
            return; // record vanished (never happens in practice)
        };
        self.event(
            id,
            TraceEventKind::QueueWait {
                wait_s: submitted.elapsed().as_secs_f64(),
            },
        );
        // Stage notifications outlive the borrow of `self` held by the
        // attempt, so the callback captures a weak handle. `run_t_s` is
        // seconds since the *attempt's* run origin, so stage durations
        // survive retries.
        let weak = Arc::downgrade(&self);
        let on_stage: StageCallback = Arc::new(move |ev: StageEvent| {
            if let Some(svc) = weak.upgrade() {
                let (stage, run_t_s) = (ev.stage.phase_name(), ev.elapsed_s);
                svc.event(
                    id,
                    match ev.status {
                        StageStatus::Started => TraceEventKind::StageStarted { stage, run_t_s },
                        StageStatus::Finished => TraceEventKind::StageFinished { stage, run_t_s },
                    },
                );
            }
        });
        let max_retries = spec.max_retries.unwrap_or(self.cfg.max_retries);
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            self.event(
                id,
                TraceEventKind::Checkout {
                    attempt,
                    slot,
                    session_generation: session.generation(),
                },
            );
            let fail = match self.attempt(session, slot, id, &spec, &cancel, &on_stage) {
                Ok(done) => {
                    if done.dirty {
                        // The run finished (PEL bequest kept it sound) but
                        // workers died: the slot is suspect.
                        self.recycle(session, slot, "workers died during a successful run");
                    }
                    let mut avg = self.avg_run_s.lock();
                    *avg = Some(match *avg {
                        Some(a) => 0.8 * a + 0.2 * done.run_s,
                        None => done.run_s,
                    });
                    drop(avg);
                    self.finish(id, Ok(done));
                    return;
                }
                Err(fail) => fail,
            };
            let will_retry = matches!(fail.class, FailureClass::Transient { .. })
                && attempt <= max_retries
                && !cancel.is_cancelled();
            self.event(
                id,
                TraceEventKind::AttemptFailed {
                    attempt,
                    kind: fail.kind,
                    class: fail.class.name(),
                    will_retry,
                },
            );
            if let FailureClass::Transient { poison: true } = fail.class {
                self.recycle(session, slot, fail.kind);
            }
            if !matches!(fail.class, FailureClass::Transient { .. }) {
                self.finish(id, Err(fail));
                return;
            }
            if attempt > max_retries {
                let message = format!(
                    "{} (retry budget of {max_retries} spent over {attempt} attempts)",
                    fail.message
                );
                self.finish(id, Err(AttemptFailure { message, ..fail }));
                return;
            }
            let backoff = backoff_duration(attempt);
            self.event(
                id,
                TraceEventKind::Backoff {
                    attempt,
                    backoff_s: backoff.as_secs_f64(),
                },
            );
            if !backoff_under(backoff, &cancel) {
                let fail = AttemptFailure {
                    class: FailureClass::Cancelled,
                    kind: "cancelled",
                    message: format!("cancelled while backing off after: {}", fail.message),
                };
                self.finish(id, Err(fail));
                return;
            }
        }
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

    /// One attempt: checkout, load, mesh under the job's cancel token,
    /// flush the artifact.
    fn attempt(
        &self,
        session: &mut MeshingSession,
        slot: usize,
        id: JobId,
        spec: &JobSpec,
        cancel: &CancelToken,
        on_stage: &StageCallback,
    ) -> Result<AttemptSuccess, AttemptFailure> {
        if cancel.is_cancelled() {
            return Err(AttemptFailure {
                class: FailureClass::Cancelled,
                kind: "cancelled",
                message: "cancelled before the attempt started".into(),
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
        let t0 = Instant::now();
        let run_opts = RunOptions {
            cancel: Some(cancel.clone()),
            on_stage: Some(on_stage.clone()),
        };
        let out = session
            .mesh_with(img, cfg, &run_opts)
            .map_err(|e| AttemptFailure::from_refine(&e))?;
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
}

/// Sleep out a retry backoff, stopping early when the job's token trips
/// (its deadline, or a drain out of grace). Returns `false` when the job
/// must stop retrying.
fn backoff_under(backoff: Duration, cancel: &CancelToken) -> bool {
    let until = Instant::now() + backoff;
    while Instant::now() < until {
        if cancel.is_cancelled() {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    true
}

/// The capped exponential backoff before retry `attempt + 1`.
fn backoff_duration(attempt: u32) -> Duration {
    BACKOFF_BASE
        .saturating_mul(1u32 << (attempt - 1).min(16))
        .min(BACKOFF_CAP)
}

impl Drop for MeshService {
    fn drop(&mut self) {
        // Safety net for callers that never drained: stop the threads so
        // the process can exit. (Drain is the intended path.)
        self.queue.begin_drain();
        self.cancel_all();
        for h in std::mem::take(&mut *self.handles.lock()) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::ONE_ATTEMPT_EVENTS;

    /// A finished job holds its trace at exactly its events, and every
    /// snapshot of the record shares that one copy. The first job here is
    /// retried (an injected worker death), so its trace grew past one
    /// attempt's reservation before its end trimmed it.
    #[test]
    fn a_finished_trace_is_stored_once_at_its_exact_size() {
        let spool = std::env::temp_dir().join(format!("pi2m-trace-size-{}", std::process::id()));
        let faults = FaultPlan::parse(7, "site=refine.engine.worker,kind=panic,nth=1,count=1");
        let svc = MeshService::start(ServiceConfig {
            sessions: 1,
            threads: 1,
            spool: spool.clone(),
            faults: Some(Arc::new(faults.unwrap())),
            ..Default::default()
        })
        .unwrap();
        let spec = JobSpec {
            input: "phantom:sphere".into(),
            delta: Some(4.0),
            threads: None,
            priority: Priority::Normal,
            deadline_s: None,
            max_retries: None,
        };
        let retried = svc.submit(spec.clone()).unwrap();
        let clean = svc.submit(spec).unwrap();
        assert!(svc.drain(Duration::from_secs(60)));
        for (id, attempts) in [(retried, 2), (clean, 1)] {
            let (a, b) = (svc.job(id).unwrap(), svc.job(id).unwrap());
            assert_eq!(a.status, JobStatus::Succeeded, "{:?}", a.error);
            assert_eq!(a.attempts, attempts);
            assert_eq!(a.trace.events().as_ptr(), b.trace.events().as_ptr());
            assert_eq!(a.trace.capacity(), a.trace.events().len());
        }
        let clean = svc.job(clean).unwrap();
        assert_eq!(clean.trace.events().len(), ONE_ATTEMPT_EVENTS);
        let _ = std::fs::remove_dir_all(&spool);
    }
}
