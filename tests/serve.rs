//! End-to-end drills for the meshing service's failure model: admission
//! shedding under burst, worker-death retry with session quarantine,
//! deterministic fail-fast, deadline cancellation, graceful drain, and a
//! SIGTERM drill against the spawned `pi2m serve` binary.
//!
//! Everything fault-driven uses the seeded [`FaultPlan`] machinery so the
//! drills are deterministic, not race-dependent.

use pi2m::faults::FaultPlan;
use pi2m::obs::json;
use pi2m::obs::metrics as m;
use pi2m::serve::{
    AdmitError, JobSpec, JobStatus, MeshService, Priority, ServiceConfig, TraceEventKind,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn spool(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pi2m-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec(input: &str) -> JobSpec {
    JobSpec {
        input: input.into(),
        delta: Some(4.0),
        threads: None,
        priority: Priority::Normal,
        deadline_s: None,
        max_retries: None,
    }
}

/// Poll until the job is terminal (every admitted job must terminate — the
/// service's core guarantee — so a long timeout here is a real failure).
fn wait_terminal(svc: &MeshService, id: u64, timeout: Duration) -> pi2m::serve::JobRecord {
    let t0 = Instant::now();
    loop {
        let r = svc.job(id).expect("job record");
        if r.status.is_terminal() {
            return r;
        }
        assert!(
            t0.elapsed() < timeout,
            "job-{id} stuck {:?} after {timeout:?}",
            r.status
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn burst_beyond_capacity_sheds_typed() {
    // One slot, held at checkout for 400ms by a seeded delay fault, so the
    // burst below races nothing: the queue fills to its capacity of 2 and
    // every further submission sheds.
    let faults = FaultPlan::parse(
        7,
        "site=serve.session.checkout,kind=delay,delay_ms=400,count=1",
    )
    .unwrap();
    let svc = MeshService::start(ServiceConfig {
        sessions: 1,
        threads: 2,
        queue_capacity: 2,
        spool: spool("burst"),
        faults: Some(Arc::new(faults)),
        ..Default::default()
    })
    .unwrap();

    let first = svc.submit(spec("phantom:sphere")).unwrap();
    // let the slot pop job 1 and enter the 400ms checkout delay
    std::thread::sleep(Duration::from_millis(100));
    let mut admitted = vec![first];
    let mut shed = 0;
    for _ in 0..5 {
        match svc.submit(spec("phantom:sphere")) {
            Ok(id) => admitted.push(id),
            Err(AdmitError::QueueFull {
                depth,
                capacity,
                retry_after_s,
            }) => {
                assert_eq!((depth, capacity), (2, 2));
                assert!(retry_after_s >= 1, "Retry-After hint must be actionable");
                shed += 1;
            }
            Err(other) => panic!("expected QueueFull, got {other}"),
        }
    }
    assert_eq!(admitted.len(), 3, "1 running + capacity 2");
    assert_eq!(shed, 3);
    assert_eq!(svc.counter(m::SERVE_JOBS_SHED), 3);

    // shedding lost nothing that was admitted: all three jobs complete
    for id in admitted {
        let r = wait_terminal(&svc, id, Duration::from_secs(60));
        assert_eq!(r.status, JobStatus::Succeeded, "job-{id}: {:?}", r.error);
        assert!(r.artifact.as_ref().unwrap().exists());
    }
    assert!(svc.drain(Duration::from_secs(10)));
}

#[test]
fn worker_death_mid_job_retries_on_fresh_session() {
    // threads=1 and a one-shot panic at the worker site: the first attempt
    // loses its only worker (quorum lost), the session is quarantined, and
    // the retry on the fresh pool succeeds. Concurrent jobs on the other
    // slot are untouched.
    let faults = FaultPlan::parse(7, "site=refine.engine.worker,kind=panic,nth=1,count=1").unwrap();
    let svc = MeshService::start(ServiceConfig {
        sessions: 2,
        threads: 1,
        queue_capacity: 8,
        spool: spool("death"),
        faults: Some(Arc::new(faults)),
        ..Default::default()
    })
    .unwrap();

    let poisoned = svc.submit(spec("phantom:sphere")).unwrap();
    // The one-shot fault kills the first worker to reach the site; wait for
    // the resulting quarantine before submitting the bystander so the drill
    // is deterministic about WHICH job was poisoned. The bystander then
    // runs concurrently with the poisoned job's retry.
    let t0 = Instant::now();
    while svc.counter(m::SERVE_SESSIONS_RECYCLED) == 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "worker-death fault never fired"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let bystander = svc.submit(spec("phantom:sphere")).unwrap();

    let r = wait_terminal(&svc, poisoned, Duration::from_secs(60));
    assert_eq!(
        r.status,
        JobStatus::Succeeded,
        "retry should recover: {:?}",
        r.error
    );
    assert_eq!(r.attempts, 2, "one failed attempt + one retry");
    assert_eq!(
        r.session_generation,
        Some(1),
        "final attempt must run on the recycled session"
    );
    let b = wait_terminal(&svc, bystander, Duration::from_secs(60));
    assert_eq!(b.status, JobStatus::Succeeded);

    assert_eq!(svc.counter(m::SERVE_JOB_RETRIES), 1);
    assert!(svc.counter(m::SERVE_SESSIONS_RECYCLED) >= 1);
    assert!(svc.drain(Duration::from_secs(10)));
}

#[test]
fn retried_job_trace_records_both_attempts() {
    // Same poisoned-worker setup as the drill above, but the assertion
    // target is the job's end-to-end trace: both attempts must be visible,
    // each with the session generation that served it.
    let faults = FaultPlan::parse(7, "site=refine.engine.worker,kind=panic,nth=1,count=1").unwrap();
    let svc = MeshService::start(ServiceConfig {
        sessions: 1,
        threads: 1,
        queue_capacity: 4,
        spool: spool("trace"),
        faults: Some(Arc::new(faults)),
        ..Default::default()
    })
    .unwrap();
    let id = svc.submit(spec("phantom:sphere")).unwrap();
    let r = wait_terminal(&svc, id, Duration::from_secs(60));
    assert_eq!(r.status, JobStatus::Succeeded, "{:?}", r.error);
    assert_eq!(r.attempts, 2);

    let events = r.trace.events();
    assert!(
        matches!(events[0].kind, TraceEventKind::Admitted { .. }),
        "trace must open with admission"
    );
    let mut last = 0.0;
    for e in events {
        assert!(e.t_s >= last, "timestamps must be non-decreasing");
        last = e.t_s;
    }
    let gens: Vec<u64> = events
        .iter()
        .filter_map(|e| match e.kind {
            TraceEventKind::Checkout {
                session_generation, ..
            } => Some(session_generation),
            _ => None,
        })
        .collect();
    assert_eq!(
        gens,
        vec![0, 1],
        "both attempts traced, retry on the recycled session"
    );
    let retried: Vec<bool> = events
        .iter()
        .filter_map(|e| match e.kind {
            TraceEventKind::AttemptFailed { will_retry, .. } => Some(will_retry),
            _ => None,
        })
        .collect();
    assert_eq!(retried, vec![true], "one transient failure, marked retried");
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, TraceEventKind::Backoff { .. })),
        "the retry pause must be traced"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, TraceEventKind::QueueWait { .. })),
        "queue wait must be traced"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, TraceEventKind::StageStarted { .. })),
        "stage transitions must be traced"
    );
    match &events.last().unwrap().kind {
        TraceEventKind::Terminal { status, attempts } => {
            assert_eq!(*status, JobStatus::Succeeded);
            assert_eq!(*attempts, 2);
        }
        other => panic!("trace must close with the terminal state, got {other:?}"),
    }
    assert!(svc.drain(Duration::from_secs(10)));
}

#[test]
fn deterministic_failure_fails_fast_without_retry() {
    let svc = MeshService::start(ServiceConfig {
        sessions: 1,
        threads: 1,
        queue_capacity: 4,
        spool: spool("det"),
        ..Default::default()
    })
    .unwrap();
    let id = svc.submit(spec("phantom:no-such-phantom")).unwrap();
    let r = wait_terminal(&svc, id, Duration::from_secs(30));
    assert_eq!(r.status, JobStatus::Failed);
    assert_eq!(r.error_kind.as_deref(), Some("load"));
    assert_eq!(r.attempts, 1, "deterministic errors must not burn retries");
    assert_eq!(svc.counter(m::SERVE_JOB_RETRIES), 0);
    assert_eq!(svc.counter(m::SERVE_JOBS_FAILED), 1);
    assert!(svc.drain(Duration::from_secs(10)));
}

#[test]
fn a_job_that_meshes_nothing_fails_deterministic() {
    let svc = MeshService::start(ServiceConfig {
        sessions: 1,
        threads: 1,
        queue_capacity: 4,
        spool: spool("empty"),
        ..Default::default()
    })
    .unwrap();
    let id = svc
        .submit(JobSpec {
            delta: Some(1e308),
            ..spec("phantom:sphere")
        })
        .unwrap();
    let r = wait_terminal(&svc, id, Duration::from_secs(30));
    assert_eq!(r.status, JobStatus::Failed);
    assert_eq!(r.error_kind.as_deref(), Some("no_elements"));
    assert_eq!(r.attempts, 1, "deterministic errors must not burn retries");
    assert!(r.artifact.is_none());
    assert!(svc.drain(Duration::from_secs(10)));
}

#[test]
fn deadline_cancels_job_stuck_behind_slow_queue() {
    // The slot is held for 500ms; a job with a 100ms deadline behind it
    // must terminate Cancelled (deadline measured from submission).
    let faults = FaultPlan::parse(
        7,
        "site=serve.session.checkout,kind=delay,delay_ms=500,count=1",
    )
    .unwrap();
    let svc = MeshService::start(ServiceConfig {
        sessions: 1,
        threads: 1,
        queue_capacity: 4,
        spool: spool("deadline"),
        faults: Some(Arc::new(faults)),
        ..Default::default()
    })
    .unwrap();
    let blocker = svc.submit(spec("phantom:sphere")).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let mut doomed = spec("phantom:sphere");
    doomed.deadline_s = Some(0.1);
    let doomed = svc.submit(doomed).unwrap();

    let r = wait_terminal(&svc, doomed, Duration::from_secs(30));
    assert_eq!(r.status, JobStatus::Cancelled, "{:?}", r.error);
    assert_eq!(r.error_kind.as_deref(), Some("cancelled"));
    let b = wait_terminal(&svc, blocker, Duration::from_secs(60));
    assert_eq!(b.status, JobStatus::Succeeded);
    assert_eq!(svc.counter(m::SERVE_JOBS_CANCELLED), 1);
    assert!(svc.drain(Duration::from_secs(10)));
}

/// The seconds (since submission) of the first trace event matching `pick`.
fn trace_t(r: &pi2m::serve::JobRecord, pick: impl Fn(&TraceEventKind) -> bool) -> Option<f64> {
    r.trace
        .events()
        .iter()
        .find(|e| pick(&e.kind))
        .map(|e| e.t_s)
}

#[test]
fn deadline_mid_refinement_cancels_within_a_second() {
    // The attempt's cancel token carries the job's deadline, and the
    // engine polls it; nothing waits for a grace period on top. Two
    // untimed runs of the same job (the second on a warm session) time
    // its volume refinement; the third gets a deadline a quarter of the
    // way into it, counted from submission like every job deadline.
    let svc = MeshService::start(ServiceConfig {
        sessions: 1,
        threads: 1,
        queue_capacity: 4,
        spool: spool("midrefine"),
        ..Default::default()
    })
    .unwrap();
    let job = || JobSpec {
        delta: Some(0.8),
        ..spec("phantom:sphere")
    };
    let mut timed = None;
    for _ in 0..2 {
        let id = svc.submit(job()).unwrap();
        let r = wait_terminal(&svc, id, Duration::from_secs(120));
        assert_eq!(r.status, JobStatus::Succeeded, "{:?}", r.error);
        let started = trace_t(&r, |e| {
            matches!(
                e,
                TraceEventKind::StageStarted {
                    stage: "volume_refinement",
                    ..
                }
            )
        });
        let finished = trace_t(&r, |e| {
            matches!(
                e,
                TraceEventKind::StageFinished {
                    stage: "volume_refinement",
                    ..
                }
            )
        });
        timed = started.zip(finished);
    }
    let (started, finished) = timed.expect("volume refinement is traced");
    let deadline_s = started + (finished - started) / 4.0;

    let id = svc
        .submit(JobSpec {
            deadline_s: Some(deadline_s),
            ..job()
        })
        .unwrap();
    let r = wait_terminal(&svc, id, Duration::from_secs(120));
    assert_eq!(r.status, JobStatus::Cancelled, "{:?}", r.error);
    assert_eq!(r.error_kind.as_deref(), Some("cancelled"));
    assert!(
        trace_t(&r, |e| matches!(e, TraceEventKind::StageStarted { .. })).is_some(),
        "the job was running when its deadline passed"
    );
    let ended = trace_t(&r, |e| matches!(e, TraceEventKind::Terminal { .. })).unwrap();
    assert!(
        ended - deadline_s < 1.0,
        "cancelled {:.3} s after a deadline {deadline_s:.3} s into a {:.3} s refinement",
        ended - deadline_s,
        finished - started
    );
    assert!(svc.drain(Duration::from_secs(10)));
}

/// A shared byte buffer that a journal writes into.
#[derive(Clone, Default)]
struct Capture(Arc<std::sync::Mutex<Vec<u8>>>);

impl std::io::Write for Capture {
    fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(b);
        Ok(b.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn journal_and_trace_tell_the_same_story() {
    use pi2m::obs::journal::{Journal, Level};
    // One injected checkout fault: the job's first attempt fails transient,
    // the slot recycles, and the retry succeeds. Every lifecycle event is
    // one call, so the debug journal's `job.*` lines for the job are its
    // trace kinds, in order, ending in exactly one `job.terminal`.
    let faults =
        FaultPlan::parse(7, "site=serve.session.checkout,kind=fail,nth=1,count=1").unwrap();
    let capture = Capture::default();
    let svc = MeshService::start(ServiceConfig {
        sessions: 1,
        threads: 1,
        queue_capacity: 4,
        spool: spool("journal"),
        faults: Some(Arc::new(faults)),
        journal: Journal::to_writer(Level::Debug, Box::new(capture.clone())),
        ..Default::default()
    })
    .unwrap();
    let id = svc.submit(spec("phantom:sphere")).unwrap();
    let r = wait_terminal(&svc, id, Duration::from_secs(60));
    assert_eq!(r.status, JobStatus::Succeeded, "{:?}", r.error);
    assert_eq!(r.attempts, 2);
    assert!(svc.drain(Duration::from_secs(10)));

    let text = String::from_utf8(capture.0.lock().unwrap().clone()).unwrap();
    let name = format!("job-{id}");
    let journaled: Vec<String> = text
        .lines()
        .map(|l| json::parse(l).expect("every journal line is JSON"))
        .filter(|v| v.get("job").and_then(json::Json::as_str) == Some(name.as_str()))
        .filter_map(|v| {
            let event = v.get("event")?.as_str()?;
            event.strip_prefix("job.").map(String::from)
        })
        .collect();
    let traced: Vec<String> = r
        .trace
        .events()
        .iter()
        .map(|e| e.kind.name().to_string())
        .collect();
    assert_eq!(journaled, traced);
    assert_eq!(journaled.iter().filter(|k| *k == "terminal").count(), 1);
    assert!(traced.contains(&"attempt_failed".to_string()), "{traced:?}");
}

#[test]
fn metrics_declare_each_family_once() {
    // One success and one failure put every kind of family on the page:
    // the serve counters, the merged engine histograms and both labeled
    // latency families, with two label sets each.
    let svc = MeshService::start(ServiceConfig {
        sessions: 1,
        threads: 1,
        queue_capacity: 4,
        spool: spool("families"),
        ..Default::default()
    })
    .unwrap();
    for input in ["phantom:sphere", "phantom:no-such-phantom"] {
        let id = svc.submit(spec(input)).unwrap();
        wait_terminal(&svc, id, Duration::from_secs(60));
    }
    let text = svc.render_metrics();
    let mut seen = std::collections::HashMap::new();
    for line in text.lines().filter(|l| l.starts_with("# TYPE ")) {
        let name = line.split_whitespace().nth(2).unwrap();
        *seen.entry(name.to_string()).or_insert(0) += 1;
    }
    assert!(seen.contains_key("pi2m_serve_queue_wait_seconds"), "{text}");
    assert!(seen.contains_key("pi2m_serve_run_seconds"), "{text}");
    let twice: Vec<_> = seen.iter().filter(|(_, &n)| n > 1).collect();
    assert!(twice.is_empty(), "declared more than once: {twice:?}");
    assert!(svc.drain(Duration::from_secs(10)));
}

#[test]
fn drain_finishes_inflight_and_rejects_late_submits() {
    let svc = MeshService::start(ServiceConfig {
        sessions: 1,
        threads: 2,
        queue_capacity: 8,
        spool: spool("drain"),
        ..Default::default()
    })
    .unwrap();
    let a = svc.submit(spec("phantom:sphere")).unwrap();
    let b = svc.submit(spec("phantom:sphere")).unwrap();
    svc.begin_drain();
    match svc.submit(spec("phantom:sphere")) {
        Err(AdmitError::Draining) => {}
        other => panic!("late submit must be rejected as Draining, got {other:?}"),
    }
    assert!(
        svc.drain(Duration::from_secs(60)),
        "backlog must drain clean"
    );
    for id in [a, b] {
        let r = svc.job(id).unwrap();
        assert_eq!(
            r.status,
            JobStatus::Succeeded,
            "in-flight job-{id} must finish"
        );
        assert!(r.artifact.as_ref().unwrap().exists(), "artifact flushed");
    }
    assert_eq!(svc.counter(m::SERVE_DRAINS), 1);
    assert_eq!(svc.counter(m::SERVE_JOBS_SHED), 1);
}

#[test]
fn drain_out_of_grace_cancels_an_attempt_still_loading() {
    // The slot is held at checkout for 400ms, before the input loads; the
    // drain's 50ms grace runs out inside that window. The job's one cancel
    // token is cancelled there, so the attempt stops at the engine's first
    // check instead of meshing the whole abdominal phantom.
    let faults = FaultPlan::parse(
        7,
        "site=serve.session.checkout,kind=delay,delay_ms=400,count=1",
    )
    .unwrap();
    let svc = MeshService::start(ServiceConfig {
        sessions: 1,
        threads: 1,
        queue_capacity: 4,
        spool: spool("drain-loading"),
        faults: Some(Arc::new(faults)),
        ..Default::default()
    })
    .unwrap();
    let id = svc
        .submit(JobSpec {
            delta: Some(0.5),
            ..spec("phantom:abdominal")
        })
        .unwrap();
    std::thread::sleep(Duration::from_millis(100));
    let t0 = Instant::now();
    assert!(!svc.drain(Duration::from_millis(50)), "grace must run out");
    let took = t0.elapsed();
    let r = svc.job(id).unwrap();
    assert_eq!(r.status, JobStatus::Cancelled, "{:?}", r.error);
    assert!(took < Duration::from_secs(2), "drain took {took:?}");
}

// ---- the spawned-binary drill ------------------------------------------

/// Minimal blocking HTTP/1.1 client against the daemon (std only).
fn http(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(
        s,
        "{method} {path} HTTP/1.1\r\nHost: pi2m\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| panic!("bad response: {raw}"));
    let payload = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, payload)
}

/// Spawn `pi2m serve` on an ephemeral port with one session and return it
/// with the address from its "pi2m serve: listening on HOST:PORT" banner.
fn spawn_daemon(spool_dir: &std::path::Path) -> (std::process::Child, String) {
    use std::io::BufRead;
    use std::process::{Command, Stdio};

    let mut child = Command::new(env!("CARGO_BIN_EXE_pi2m"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--sessions",
            "1",
            "--threads",
            "2",
            "--queue-cap",
            "8",
            "--drain-grace",
            "60",
            "--spool",
            spool_dir.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn pi2m serve");
    let stdout = child.stdout.take().unwrap();
    let mut line = String::new();
    std::io::BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read listen line");
    let addr = line
        .trim()
        .rsplit(' ')
        .next()
        .expect("address in listen line")
        .to_string();
    assert!(line.contains("listening on"), "unexpected banner: {line}");
    (child, addr)
}

/// SIGTERM the daemon and require the clean-drain exit 0.
fn terminate(mut child: std::process::Child) {
    let pid = child.id().to_string();
    let status = std::process::Command::new("kill")
        .args(["-TERM", &pid])
        .status()
        .unwrap();
    assert!(status.success(), "kill -TERM failed");
    let status = child.wait().expect("daemon exit status");
    assert!(status.success(), "clean drain must exit 0, got {status:?}");
}

/// The job name in a `POST /jobs` reply.
fn job_id(body: &str) -> String {
    let v = json::parse(body).unwrap();
    v.get("id").unwrap().as_str().unwrap().to_string()
}

/// Poll `GET /jobs/{name}` until the job is terminal; returns its status.
fn poll_terminal(addr: &str, name: &str, timeout: Duration) -> String {
    let t0 = Instant::now();
    loop {
        let (code, body) = http(addr, "GET", &format!("/jobs/{name}"), "");
        assert_eq!(code, 200, "{body}");
        let v = json::parse(&body).unwrap();
        let status = v.get("status").unwrap().as_str().unwrap().to_string();
        if ["succeeded", "failed", "cancelled"].contains(&status.as_str()) {
            return status;
        }
        assert!(t0.elapsed() < timeout, "{name} stuck {status}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Hostile request bodies are refused or finished, never fatal: 40 KB of
/// nested brackets (under the body cap) is a 400, not a stack overflow, and
/// a δ near `f64::MAX` runs to a terminal state instead of spinning in the
/// proximity grid. The same daemon then meshes a normal job and drains
/// cleanly.
#[test]
fn hostile_bodies_leave_the_daemon_serving() {
    let spool_dir = spool("hostile");
    let (mut child, addr) = spawn_daemon(&spool_dir);
    let result = std::panic::catch_unwind(|| {
        let deep = format!("{}{}", "[".repeat(20_000), "]".repeat(20_000));
        let (code, body) = http(&addr, "POST", "/jobs", &deep);
        assert_eq!(code, 400, "{body}");
        assert!(body.contains("nesting deeper than"), "{body}");

        let (code, body) = http(
            &addr,
            "POST",
            "/jobs",
            r#"{"input":"phantom:sphere","delta":1e308,"deadline":5}"#,
        );
        assert_eq!(code, 202, "{body}");
        let name = job_id(&body);
        poll_terminal(&addr, &name, Duration::from_secs(60));

        let (code, body) = http(&addr, "GET", "/healthz", "");
        assert_eq!((code, body.as_str()), (200, "ok\n"));
        let (code, body) = http(
            &addr,
            "POST",
            "/jobs",
            r#"{"input":"phantom:sphere","delta":4.0}"#,
        );
        assert_eq!(code, 202, "{body}");
        let name = job_id(&body);
        assert_eq!(
            poll_terminal(&addr, &name, Duration::from_secs(60)),
            "succeeded"
        );
    });
    if let Err(p) = result {
        child.kill().ok();
        child.wait().ok();
        std::panic::resume_unwind(p);
    }
    terminate(child);
    let _ = std::fs::remove_dir_all(&spool_dir);
}

#[test]
fn sigterm_drains_spawned_daemon_cleanly() {
    use std::process::Command;

    let spool_dir = spool("sigterm");
    let (mut child, addr) = spawn_daemon(&spool_dir);

    let result = std::panic::catch_unwind(|| {
        let (code, body) = http(&addr, "GET", "/healthz", "");
        assert_eq!((code, body.as_str()), (200, "ok\n"));

        // submit two jobs, then SIGTERM while they are in flight
        let (code, body) = http(
            &addr,
            "POST",
            "/jobs",
            r#"{"input":"phantom:sphere","delta":4.0}"#,
        );
        assert_eq!(code, 202, "{body}");
        let (code, _) = http(
            &addr,
            "POST",
            "/jobs",
            r#"{"input":"phantom:sphere","delta":4.0,"priority":"high"}"#,
        );
        assert_eq!(code, 202);

        let pid = child.id().to_string();
        let status = Command::new("kill").args(["-TERM", &pid]).status().unwrap();
        assert!(status.success(), "kill -TERM failed");

        // While draining, the API stays up: readiness flips 503 and late
        // submits are rejected typed. (The drain may finish fast; only
        // assert on responses we actually get before the socket closes.)
        std::thread::sleep(Duration::from_millis(100));
        if let Ok(mut s) = std::net::TcpStream::connect(&addr) {
            use std::io::{Read, Write};
            let _ = write!(
                s,
                "POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 21\r\n\r\n{{\"input\":\"phantom:x\"}}"
            );
            let mut raw = String::new();
            let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
            if s.read_to_string(&mut raw).is_ok() && !raw.is_empty() {
                assert!(
                    raw.contains("503"),
                    "late submit during drain must be 503, got: {raw}"
                );
            }
        }
    });

    let status = child.wait().expect("daemon exit status");
    if let Err(p) = result {
        std::panic::resume_unwind(p);
    }
    assert!(status.success(), "clean drain must exit 0, got {status:?}");
    // in-flight jobs finished and flushed their artifacts before exit
    let artifacts: Vec<_> = std::fs::read_dir(&spool_dir)
        .expect("spool dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "vtk"))
        .collect();
    assert_eq!(artifacts.len(), 2, "both in-flight jobs must flush");
    let _ = std::fs::remove_dir_all(&spool_dir);
}

#[test]
fn http_api_round_trips_jobs_and_metrics() {
    use pi2m::serve::HttpServer;

    let svc = MeshService::start(ServiceConfig {
        sessions: 1,
        threads: 2,
        queue_capacity: 4,
        spool: spool("http"),
        ..Default::default()
    })
    .unwrap();
    let server = HttpServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let handle = {
        let svc = Arc::clone(&svc);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            server.serve(svc, || stop.load(std::sync::atomic::Ordering::SeqCst))
        })
    };

    let (code, body) = http(
        &addr,
        "POST",
        "/jobs",
        r#"{"input":"phantom:sphere","delta":4.0}"#,
    );
    assert_eq!(code, 202, "{body}");
    let name = job_id(&body);
    assert_eq!(
        poll_terminal(&addr, &name, Duration::from_secs(60)),
        "succeeded"
    );

    let (code, vtk) = http(&addr, "GET", &format!("/jobs/{name}/artifact"), "");
    assert_eq!(code, 200);
    assert!(vtk.starts_with("# vtk"), "artifact is a VTK file");

    let (code, metrics) = http(&addr, "GET", "/metrics", "");
    assert_eq!(code, 200);
    for needle in [
        "pi2m_serve_jobs_submitted 1",
        "pi2m_serve_jobs_succeeded 1",
        "pi2m_serve_queue_depth 0",
        "pi2m_serve_queue_wait_seconds",
        // per-class latency histograms, labeled by priority and outcome
        "pi2m_serve_run_seconds",
        "class=\"normal\",state=\"succeeded\"",
    ] {
        assert!(metrics.contains(needle), "metrics missing '{needle}'");
    }
    // one run's gauges belong to its run report; the daemon aggregates many
    // jobs, whose waits are in the merged histograms (every run ends in a beg)
    for gauge in ["pi2m_overhead_seconds", "pi2m_elements"] {
        assert!(
            !metrics.contains(gauge),
            "daemon exports a constant {gauge}"
        );
    }
    assert!(
        metrics.contains("pi2m_lb_wait_seconds_count"),
        "merged begging-list waits missing"
    );

    // the per-job trace is served as JSON and as a Chrome trace
    let (code, body) = http(&addr, "GET", &format!("/jobs/{name}/trace"), "");
    assert_eq!(code, 200, "{body}");
    let trace = json::parse(&body).unwrap();
    assert_eq!(
        trace.get("kind").and_then(json::Json::as_str),
        Some("job_trace")
    );
    assert_eq!(trace.get("schema").unwrap().as_f64(), Some(2.0));
    let events = trace.get("events").unwrap().as_arr().unwrap();
    let kinds: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("kind").and_then(json::Json::as_str))
        .collect();
    assert_eq!(kinds.first(), Some(&"admitted"));
    assert_eq!(kinds.last(), Some(&"terminal"));
    for needle in ["queue_wait", "checkout", "stage_started", "stage_finished"] {
        assert!(
            kinds.contains(&needle),
            "trace missing '{needle}': {kinds:?}"
        );
    }
    let (code, chrome) = http(
        &addr,
        "GET",
        &format!("/jobs/{name}/trace?format=chrome"),
        "",
    );
    assert_eq!(code, 200);
    let chrome = json::parse(&chrome).expect("chrome trace parses");
    assert!(chrome.get("traceEvents").is_some());

    // newest-first bounded job listing
    let (code, body) = http(&addr, "GET", "/jobs?recent=1", "");
    assert_eq!(code, 200, "{body}");
    let v = json::parse(&body).unwrap();
    let jobs = v.get("jobs").unwrap().as_arr().unwrap();
    assert_eq!(jobs.len(), 1);
    assert_eq!(jobs[0].get("id").unwrap().as_str(), Some(name.as_str()));
    assert!(jobs[0].get("trace_events").unwrap().as_f64().unwrap() > 0.0);

    // bad requests are typed, not 500s
    let (code, body) = http(&addr, "POST", "/jobs", r#"{"input":"x","bogus":1}"#);
    assert_eq!(code, 400);
    assert!(body.contains("bad_spec"));
    let (code, _) = http(&addr, "GET", "/jobs/job-999", "");
    assert_eq!(code, 404);

    // drain over HTTP: readyz flips, late submits shed typed
    let (code, _) = http(&addr, "POST", "/drain", "");
    assert_eq!(code, 202);
    let (code, _) = http(&addr, "GET", "/readyz", "");
    assert_eq!(code, 503);
    let (code, body) = http(&addr, "POST", "/jobs", r#"{"input":"phantom:sphere"}"#);
    assert_eq!(code, 503);
    assert!(body.contains("draining"), "{body}");

    assert!(svc.drain(Duration::from_secs(30)));
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    handle.join().unwrap();
}

/// `GET` over a fresh connection, returning the status, the
/// `Content-Length` header and the body as raw bytes.
fn http_bytes(addr: &str, path: &str) -> (u16, usize, Vec<u8>) {
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(s, "GET {path} HTTP/1.1\r\nHost: pi2m\r\n\r\n").unwrap();
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).expect("read response");
    let end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("a header block");
    let head = String::from_utf8(raw[..end].to_vec()).expect("an ASCII head");
    let status = head.split_whitespace().nth(1).unwrap().parse().unwrap();
    let length = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("a Content-Length header")
        .parse()
        .unwrap();
    (status, length, raw[end + 4..].to_vec())
}

/// An artifact streams from the spool: the bytes fetched are the spool
/// file's, under a `Content-Length` read from the file, for a mesh many
/// times the connection's 8 KiB write buffer. A spool file gone before
/// the fetch is a typed 404.
#[test]
fn artifact_streams_byte_identical_from_the_spool() {
    use pi2m::serve::HttpServer;

    let spool_dir = spool("stream");
    let svc = MeshService::start(ServiceConfig {
        sessions: 1,
        threads: 1,
        queue_capacity: 4,
        spool: spool_dir.clone(),
        ..Default::default()
    })
    .unwrap();
    let server = HttpServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let handle = {
        let svc = Arc::clone(&svc);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            server.serve(svc, || stop.load(std::sync::atomic::Ordering::SeqCst))
        })
    };

    let id = svc
        .submit(JobSpec {
            delta: Some(1.0),
            ..spec("phantom:sphere")
        })
        .unwrap();
    let record = wait_terminal(&svc, id, Duration::from_secs(120));
    assert_eq!(record.status, JobStatus::Succeeded, "{:?}", record.error);
    let path = record.artifact.expect("a spooled artifact");
    let file = std::fs::read(&path).unwrap();
    assert!(file.len() > 10 * 8192, "VTK of {} bytes", file.len());

    let url = format!("/jobs/job-{id}/artifact");
    let (code, length, body) = http_bytes(&addr, &url);
    assert_eq!(code, 200);
    assert_eq!(length, file.len());
    assert!(body == file, "fetched artifact differs from its spool file");

    std::fs::remove_file(&path).unwrap();
    let (code, _, body) = http_bytes(&addr, &url);
    assert_eq!(code, 404);
    let v = json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    assert_eq!(
        v.get("error").and_then(json::Json::as_str),
        Some("artifact_missing")
    );

    assert!(svc.drain(Duration::from_secs(30)));
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&spool_dir);
}

/// One refinement per image: a job asking for `shards` or a `halo` is
/// refused at submission like any other unknown field, and never queued.
#[test]
fn a_job_with_shards_or_halo_is_refused() {
    use pi2m::serve::HttpServer;

    let svc = MeshService::start(ServiceConfig {
        sessions: 1,
        threads: 1,
        queue_capacity: 4,
        spool: spool("no-shards"),
        ..Default::default()
    })
    .unwrap();
    let server = HttpServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let handle = {
        let svc = Arc::clone(&svc);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            server.serve(svc, || stop.load(std::sync::atomic::Ordering::SeqCst))
        })
    };
    for (field, body) in [
        ("shards", r#"{"input":"phantom:sphere","shards":"2x1x1"}"#),
        ("halo", r#"{"input":"phantom:sphere","halo":3}"#),
    ] {
        let (code, reply) = http(&addr, "POST", "/jobs", body);
        assert_eq!(code, 400, "{field}: {reply}");
        assert!(
            reply.contains(&format!("unknown job field '{field}'")),
            "{field}: {reply}"
        );
    }
    assert_eq!(svc.counter(m::SERVE_JOBS_SUBMITTED), 0);
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    handle.join().unwrap();
    assert!(svc.drain(Duration::from_secs(10)));
}

/// `len` bytes of a xorshift stream seeded by `seed`.
fn noise(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect()
}

/// `valid` after `edits` byte edits drawn from `seed`: each overwrites,
/// inserts or deletes one byte, and half of the written bytes are ASCII
/// digits and delimiters, which reach further into a parser than noise.
fn mutate(valid: &[u8], edits: usize, seed: u64) -> Vec<u8> {
    let mut out = valid.to_vec();
    let draws = noise(4 * edits, seed);
    for d in draws.chunks(4) {
        let at = (u16::from_le_bytes([d[0], d[1]]) as usize) % (out.len() + 1);
        const SYNTAX: &[u8] = b"0123456789-.:,{}[]\"\r\n eE";
        let byte = match d[3] % 2 {
            0 => SYNTAX[d[2] as usize % SYNTAX.len()],
            _ => d[2],
        };
        match d[3] % 3 {
            0 if at < out.len() => out[at] = byte,
            1 if at < out.len() => {
                out.remove(at);
            }
            _ => out.insert(at, byte),
        }
    }
    out
}

const SPEC_TEXT: &str = r#"{"input":"phantom:sphere","delta":3.0,"threads":2,"priority":"high","deadline":"5s","max_retries":1}"#;

fn request_text() -> Vec<u8> {
    format!(
        "POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{SPEC_TEXT}",
        SPEC_TEXT.len()
    )
    .into_bytes()
}

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    /// Any bytes on the socket give a request or a typed error, and a
    /// request's body is the bytes that follow its header block.
    #[test]
    fn read_request_never_panics(
        noisy in 0u8..2,
        len in 0usize..600,
        edits in 1usize..12,
        seed in any::<u64>(),
    ) {
        let bytes = match noisy {
            0 => noise(len, seed),
            _ => mutate(&request_text(), edits, seed),
        };
        if let Ok(req) = pi2m::serve::http::read_request(&mut &bytes[..]) {
            prop_assert!(req.path.starts_with('/'));
            let head = bytes.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
            prop_assert_eq!(&bytes[head..head + req.body.len()], &req.body[..]);
        }
    }

    /// Any bytes as a job spec give a spec or a typed error.
    #[test]
    fn job_spec_from_json_never_panics(
        noisy in 0u8..2,
        len in 0usize..300,
        edits in 1usize..12,
        seed in any::<u64>(),
    ) {
        let bytes = match noisy {
            0 => noise(len, seed),
            _ => mutate(SPEC_TEXT.as_bytes(), edits, seed),
        };
        if let Ok(v) = json::parse(&String::from_utf8_lossy(&bytes)) {
            if let Ok(spec) = JobSpec::from_json(&v) {
                prop_assert!(!spec.input.is_empty());
            }
        }
    }
}
