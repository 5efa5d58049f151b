//! A deliberately small HTTP/1.1 front door for the meshing service.
//!
//! The workspace vendors no network stack, so this is a hand-rolled
//! blocking server: a non-blocking accept loop polled against a stop
//! predicate hands each connection to an idle handler thread over a
//! channel. Handlers are kept and reused; a new one starts only when every
//! live one is busy, up to `MAX_CONNS`, and past that a connection is
//! answered `503` at once — the same shedding philosophy as the job queue.
//! `Connection: close` on every response.
//!
//! An artifact is never read into memory: its response holds the open
//! spool file, which is copied onto the socket through the connection's
//! write buffer, so a fetch costs the daemon that buffer whatever the
//! mesh's size.
//!
//! Routes:
//!
//! | route | behaviour |
//! |-------|-----------|
//! | `POST /jobs` | submit a job spec; `202` with the job id, or `503` + `Retry-After` when shed |
//! | `GET /jobs` | list all job records |
//! | `GET /jobs?recent=N` | compact summaries of the N newest jobs |
//! | `GET /jobs/job-N` | poll one job record |
//! | `GET /jobs/job-N/trace` | the job's lifecycle trace; `?format=chrome` for Perfetto |
//! | `GET /jobs/job-N/artifact` | stream the flushed VTK artifact from the spool (`409` until terminal) |
//! | `GET /healthz` | liveness: `200` while the process serves |
//! | `GET /readyz` | readiness: `503` once draining |
//! | `GET /metrics` | Prometheus exposition |
//! | `POST /drain` | begin a graceful drain (admission stops) |

use crate::job::{parse_job_name, JobSpec, JobStatus};
use crate::queue::AdmitError;
use crate::service::MeshService;
use pi2m_obs::json::{self, Json};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::time::Duration;

/// Cap on header bytes before a request is rejected.
const MAX_HEAD: usize = 16 * 1024;
/// Cap on body bytes before a request is rejected.
const MAX_BODY: usize = 1024 * 1024;
/// Handler threads, all busy, before new connections are shed.
const MAX_CONNS: usize = 64;
/// The accept loop's first sleep after finding no connection; each further
/// empty poll doubles it up to `IDLE_MAX`, and an accept resets it. A
/// request arriving on a busy listener waits microseconds, not a fixed
/// tick, while an idle one still wakes only every `IDLE_MAX`.
const IDLE_MIN: Duration = Duration::from_micros(50);
/// Longest accept-loop sleep, and so the longest `stop` goes unpolled.
const IDLE_MAX: Duration = Duration::from_millis(5);

/// A parsed request: just enough HTTP for the routes above.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    pub path: String,
    pub body: Vec<u8>,
}

/// Read one request off `r`. Returns a typed error string suitable for a
/// `400` body when the bytes are not the HTTP we speak.
pub fn read_request<R: Read>(r: &mut R) -> Result<Request, String> {
    // Read until the blank line ending the header block.
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        if head.len() >= MAX_HEAD {
            return Err("header block too large".into());
        }
        match r.read(&mut byte) {
            Ok(0) => return Err("connection closed mid-request".into()),
            Ok(_) => head.push(byte[0]),
            Err(e) => return Err(format!("read error: {e}")),
        }
    }
    let head = String::from_utf8_lossy(&head);
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("").to_string();
    if method.is_empty() || !path.starts_with('/') {
        return Err(format!("malformed request line '{request_line}'"));
    }
    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad content-length '{}'", value.trim()))?;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(format!("body of {content_length} bytes exceeds {MAX_BODY}"));
    }
    // Read through `take` into a growing buffer: the content-length is the
    // client's promise, so memory follows the bytes that actually arrive.
    let mut body = Vec::new();
    r.take(content_length as u64)
        .read_to_end(&mut body)
        .map_err(|e| format!("short body: {e}"))?;
    if body.len() != content_length {
        return Err(format!(
            "short body: content-length promises {content_length} bytes, got {}",
            body.len()
        ));
    }
    Ok(Request { method, path, body })
}

/// A response ready to serialize: status, content type, optional
/// `Retry-After` seconds, body.
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    pub retry_after_s: Option<u64>,
    pub body: Body,
}

/// What follows a response's head.
pub enum Body {
    Bytes(Vec<u8>),
    /// An open file, sent from its read position (its start, once opened),
    /// and its length. The length is read from the open file, and a
    /// spooled artifact is renamed into place complete and never
    /// rewritten, so the file cannot change size under the copy.
    File(File, u64),
}

impl Body {
    fn len(&self) -> u64 {
        match self {
            Body::Bytes(b) => b.len() as u64,
            Body::File(_, len) => *len,
        }
    }
}

impl Response {
    pub fn json(status: u16, v: &Json) -> Response {
        let mut body = v.dump_pretty().into_bytes();
        body.push(b'\n');
        Response {
            status,
            content_type: "application/json",
            retry_after_s: None,
            body: Body::Bytes(body),
        }
    }

    pub fn text(status: u16, s: &str) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            retry_after_s: None,
            body: Body::Bytes(s.as_bytes().to_vec()),
        }
    }

    pub fn error(status: u16, kind: &str, message: &str) -> Response {
        Response::json(
            status,
            &Json::obj(vec![
                ("error", Json::str(kind)),
                ("message", Json::str(message)),
            ]),
        )
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            503 => "Service Unavailable",
            _ => "",
        }
    }

    /// Serialize onto the wire (`Connection: close` always). A file body
    /// is copied in pieces through `w`; one that ends before its promised
    /// length is an `UnexpectedEof` error, never a short body sent as whole.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        write!(w, "HTTP/1.1 {} {}\r\n", self.status, self.reason())?;
        write!(w, "Content-Type: {}\r\n", self.content_type)?;
        write!(w, "Content-Length: {}\r\n", self.body.len())?;
        if let Some(s) = self.retry_after_s {
            write!(w, "Retry-After: {s}\r\n")?;
        }
        write!(w, "Connection: close\r\n\r\n")?;
        match &self.body {
            Body::Bytes(b) => w.write_all(b)?,
            Body::File(f, len) => {
                let sent = io::copy(&mut f.take(*len), w)?;
                if sent != *len {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        format!("file body ended after {sent} of {len} bytes"),
                    ));
                }
            }
        }
        w.flush()
    }
}

/// The value of one query parameter (`?recent=5&format=chrome`), if set.
fn query_param<'a>(query: &'a str, key: &str) -> Option<&'a str> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        (k == key).then_some(v)
    })
}

/// Route one request against the service. Pure request → response; the
/// socket handling lives in [`HttpServer::serve`].
pub fn handle(svc: &MeshService, req: &Request) -> Response {
    let (path, query) = req.path.split_once('?').unwrap_or((req.path.as_str(), ""));
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("POST", ["jobs"]) => submit(svc, &req.body),
        ("GET", ["jobs"]) => match query_param(query, "recent") {
            Some(n) => recent_jobs(svc, n),
            None => {
                let jobs: Vec<Json> = svc.jobs().iter().map(|r| r.to_json()).collect();
                Response::json(200, &Json::obj(vec![("jobs", Json::Arr(jobs))]))
            }
        },
        ("GET", ["jobs", name]) => match parse_job_name(name).and_then(|id| svc.job(id)) {
            Some(record) => Response::json(200, &record.to_json()),
            None => Response::error(404, "unknown_job", &format!("no job '{name}'")),
        },
        ("GET", ["jobs", name, "trace"]) => trace(svc, name, query),
        ("GET", ["jobs", name, "artifact"]) => artifact(svc, name),
        ("GET", ["healthz"]) => Response::text(200, "ok\n"),
        ("GET", ["readyz"]) => {
            if svc.is_draining() {
                Response::error(503, "draining", "service is draining")
            } else {
                Response::text(200, "ready\n")
            }
        }
        ("GET", ["metrics"]) => Response::text(200, &svc.render_metrics()),
        ("POST", ["drain"]) => {
            svc.begin_drain();
            Response::json(202, &Json::obj(vec![("status", Json::str("draining"))]))
        }
        ("GET" | "POST", _) => {
            Response::error(404, "not_found", &format!("no route for {}", req.path))
        }
        _ => Response::error(405, "method_not_allowed", &req.method),
    }
}

fn submit(svc: &MeshService, body: &[u8]) -> Response {
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => return Response::error(400, "bad_request", "body is not UTF-8"),
    };
    let parsed = match json::parse(text) {
        Ok(v) => v,
        Err(e) => return Response::error(400, "bad_json", &e),
    };
    let spec = match JobSpec::from_json(&parsed) {
        Ok(s) => s,
        Err(e) => return Response::error(400, "bad_spec", &e),
    };
    match svc.submit(spec) {
        Ok(id) => Response::json(
            202,
            &Json::obj(vec![
                ("id", Json::str(crate::job::job_name(id))),
                ("status", Json::str("queued")),
            ]),
        ),
        Err(AdmitError::QueueFull {
            depth,
            capacity,
            retry_after_s,
        }) => {
            let mut resp = Response::json(
                503,
                &Json::obj(vec![
                    ("error", Json::str("queue_full")),
                    ("depth", Json::int(depth as u64)),
                    ("capacity", Json::int(capacity as u64)),
                    ("retry_after_s", Json::int(retry_after_s)),
                ]),
            );
            resp.retry_after_s = Some(retry_after_s);
            resp
        }
        Err(AdmitError::Draining) => Response::error(
            503,
            "draining",
            "service is draining; not admitting new jobs",
        ),
    }
}

/// `GET /jobs?recent=N`: compact summaries of the N newest jobs, newest
/// first — the triage view (status, latency split, attempts) without the
/// full spec echoes.
fn recent_jobs(svc: &MeshService, n: &str) -> Response {
    let Ok(n) = n.parse::<usize>() else {
        return Response::error(
            400,
            "bad_request",
            &format!("recent: expected a count, got '{n}'"),
        );
    };
    let summaries: Vec<Json> = svc
        .recent_jobs(n)
        .iter()
        .map(|r| r.summary_json())
        .collect();
    Response::json(200, &Json::obj(vec![("jobs", Json::Arr(summaries))]))
}

/// `GET /jobs/<name>/trace`: the job's end-to-end lifecycle trace as JSON,
/// or as Chrome Trace Event JSON with `?format=chrome`. Available at any
/// point in the lifecycle — a queued job simply has fewer events.
fn trace(svc: &MeshService, name: &str, query: &str) -> Response {
    let Some(record) = parse_job_name(name).and_then(|id| svc.job(id)) else {
        return Response::error(404, "unknown_job", &format!("no job '{name}'"));
    };
    match query_param(query, "format") {
        None | Some("json") => Response::json(200, &record.trace.to_json(record.id)),
        Some("chrome") => {
            let mut resp = Response::text(200, &record.trace.to_chrome_trace());
            resp.content_type = "application/json";
            resp
        }
        Some(other) => Response::error(
            400,
            "bad_request",
            &format!("format: expected json or chrome, got '{other}'"),
        ),
    }
}

fn artifact(svc: &MeshService, name: &str) -> Response {
    let Some(record) = parse_job_name(name).and_then(|id| svc.job(id)) else {
        return Response::error(404, "unknown_job", &format!("no job '{name}'"));
    };
    match record.status {
        JobStatus::Succeeded => {}
        JobStatus::Queued | JobStatus::Running => {
            return Response::error(
                409,
                "not_ready",
                &format!("job is {}; poll until terminal", record.status.as_str()),
            );
        }
        JobStatus::Failed | JobStatus::Cancelled => {
            return Response::error(
                409,
                "no_artifact",
                &format!(
                    "job terminated {} ({})",
                    record.status.as_str(),
                    record.error.as_deref().unwrap_or("no error recorded")
                ),
            );
        }
    }
    let Some(path) = &record.artifact else {
        return Response::error(409, "no_artifact", "job succeeded but recorded no artifact");
    };
    // The file is streamed by `write_to`, not read here: a fetch holds a
    // file handle, not the mesh.
    match File::open(path).and_then(|f| Ok((f.metadata()?.len(), f))) {
        Ok((len, f)) => Response {
            status: 200,
            content_type: "application/octet-stream",
            retry_after_s: None,
            body: Body::File(f, len),
        },
        Err(e) => Response::error(404, "artifact_missing", &format!("{}: {e}", path.display())),
    }
}

/// The accept loop. Owns the listening socket; request handling is
/// delegated to [`handle`].
pub struct HttpServer {
    listener: TcpListener,
}

impl HttpServer {
    /// Bind (e.g. `127.0.0.1:0` for an ephemeral port) without serving yet.
    pub fn bind(addr: &str) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(HttpServer { listener })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve until `stop()` turns true (polled between accepts, at least
    /// every 5 ms). Each connection goes to an idle handler thread; a new
    /// handler starts only when every live one is busy, up to `MAX_CONNS`
    /// (64), and beyond that connections are answered `503` inline. This
    /// returns as soon as `stop` is seen: a handler still holding a
    /// connection finishes it on its own, and every handler exits at its
    /// next wait for a stream.
    pub fn serve<F: Fn() -> bool>(&self, svc: Arc<MeshService>, stop: F) {
        self.serve_counted(svc, stop);
    }

    /// [`serve`](Self::serve), returning how many handler threads it
    /// started.
    fn serve_counted<F: Fn() -> bool>(&self, svc: Arc<MeshService>, stop: F) -> usize {
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(parking_lot::Mutex::new(rx));
        // Handlers free for a new stream and not yet claimed: a handler
        // adds itself once its response is written, and the accept loop
        // takes one off before each send, so no sent stream waits behind a
        // busy handler.
        let idle = Arc::new(AtomicUsize::new(0));
        let mut handlers = 0;
        let mut idle_sleep = IDLE_MIN;
        while !stop() {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    idle_sleep = IDLE_MIN;
                    let claimed = idle
                        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                        .is_ok();
                    let started = !claimed && handlers < MAX_CONNS && {
                        let (svc, rx, idle) =
                            (Arc::clone(&svc), Arc::clone(&rx), Arc::clone(&idle));
                        std::thread::Builder::new()
                            .name("pi2m-http-handler".into())
                            .spawn(move || handler(&svc, &rx, &idle))
                            .is_ok()
                    };
                    handlers += usize::from(started);
                    if claimed || started {
                        let _ = tx.send(stream);
                    } else {
                        let mut stream = stream;
                        let _ = Response::error(503, "overloaded", "too many connections")
                            .write_to(&mut stream);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(idle_sleep);
                    idle_sleep = (idle_sleep * 2).min(IDLE_MAX);
                }
                Err(e) => {
                    // The sleep paces a flapping socket to at most 20
                    // lines a second, so it cannot flood stderr.
                    svc.journal()
                        .warn("serve.accept_error", &[("error", Json::str(e.to_string()))]);
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
        // Returning drops the sender, so every handler's next `recv` fails.
        handlers
    }
}

/// One handler thread: take streams off the channel and answer each, until
/// the accept loop drops the sender. The handler counts itself idle once
/// its response is written and before the socket closes, so a client that
/// sends its next request after reading a whole response always finds it
/// idle. A panic in a route (an injected `kind=panic` at
/// `serve.queue.admit` fires on this thread) costs only its connection: the
/// handler still counts itself idle and takes the next stream.
fn handler(
    svc: &MeshService,
    streams: &parking_lot::Mutex<Receiver<TcpStream>>,
    idle: &AtomicUsize,
) {
    loop {
        let Ok(stream) = streams.lock().recv() else {
            return;
        };
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| respond(svc, &stream)));
        idle.fetch_add(1, Ordering::SeqCst);
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }
}

/// Serve one request. Both directions are buffered: `read_request` takes
/// the head a byte at a time and `write_to` emits the head a line at a
/// time, which unbuffered is a syscall per byte and per line, and on the
/// client side a wake-up per segment.
fn respond(svc: &MeshService, stream: &TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let _ = stream.set_nonblocking(false);
    let response = match read_request(&mut BufReader::new(stream)) {
        Ok(req) => handle(svc, &req),
        Err(e) => Response::error(400, "bad_request", &e),
    };
    // `write_to` ends with a flush, so no write error is lost with the
    // buffer.
    let _ = response.write_to(&mut BufWriter::new(stream));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_post_with_body() {
        let raw = b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd";
        let req = read_request(&mut &raw[..]).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn parses_get_without_body() {
        let raw = b"GET /healthz HTTP/1.1\r\n\r\n";
        let req = read_request(&mut &raw[..]).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_short_body_and_garbage() {
        let raw = b"POST /jobs HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        assert!(read_request(&mut &raw[..]).is_err());
        let raw = b"not http at all\r\n\r\n";
        assert!(read_request(&mut &raw[..]).is_err());
        let raw = b"POST /jobs HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n";
        assert!(read_request(&mut &raw[..]).is_err());
    }

    #[test]
    fn response_serializes_with_retry_after() {
        let mut resp = Response::text(503, "busy");
        resp.retry_after_s = Some(7);
        let mut out = Vec::new();
        resp.write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 7\r\n"));
        assert!(text.contains("Content-Length: 4\r\n"));
        assert!(text.ends_with("\r\n\r\nbusy"));
    }

    /// Run `client` against a served `MeshService` (one slot), then stop
    /// the server; returns what `client` returned and the handler threads
    /// the server started. A test asserts on the result afterwards: an
    /// assertion inside the scope would leave `serve` running and the
    /// scope waiting for it.
    fn with_server<T>(
        faults: Option<pi2m_faults::FaultPlan>,
        client: impl FnOnce(SocketAddr) -> T,
    ) -> (T, usize) {
        use crate::service::ServiceConfig;
        use std::sync::atomic::AtomicBool;
        static SPOOLS: AtomicUsize = AtomicUsize::new(0);

        let spool = std::env::temp_dir().join(format!(
            "pi2m-http-test-{}-{}",
            std::process::id(),
            SPOOLS.fetch_add(1, Ordering::SeqCst)
        ));
        let svc = MeshService::start(ServiceConfig {
            sessions: 1,
            threads: 1,
            spool: spool.clone(),
            faults: faults.map(Arc::new),
            ..Default::default()
        })
        .unwrap();
        let server = HttpServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let stop = AtomicBool::new(false);
        let out = std::thread::scope(|s| {
            let served =
                s.spawn(|| server.serve_counted(Arc::clone(&svc), || stop.load(Ordering::SeqCst)));
            let out = client(addr);
            stop.store(true, Ordering::SeqCst);
            (out, served.join().unwrap())
        });
        assert!(svc.drain(Duration::from_secs(10)));
        let _ = std::fs::remove_dir_all(&spool);
        out
    }

    /// Send `req` on a fresh connection and read the reply to its end.
    fn exchange(addr: SocketAddr, req: &[u8]) -> String {
        let mut c = TcpStream::connect(addr).unwrap();
        c.write_all(req).unwrap();
        let mut out = Vec::new();
        let _ = c.read_to_end(&mut out);
        String::from_utf8_lossy(&out).into_owned()
    }

    /// Requests sent one after another are all answered by the first
    /// handler thread: a handler is idle again before its client reads the
    /// end of its response, so no request finds every handler busy.
    #[test]
    fn sequential_requests_reuse_one_handler() {
        let (answers, handlers) = with_server(None, |addr| {
            (0..20)
                .map(|_| exchange(addr, b"GET /healthz HTTP/1.1\r\n\r\n"))
                .collect::<Vec<_>>()
        });
        for out in &answers {
            assert!(out.starts_with("HTTP/1.1 200 OK"), "{out}");
        }
        assert_eq!(handlers, 1);
    }

    /// A route that panics (here an injected panic at admission) costs its
    /// connection only: the same handler answers the next request (a panic
    /// that escaped its handler would end that thread, and the next request
    /// would start a second one).
    #[test]
    fn a_panicking_route_costs_only_its_connection() {
        let faults =
            pi2m_faults::FaultPlan::parse(1, "site=serve.queue.admit,kind=panic,count=1").unwrap();
        let body = r#"{"input":"phantom:sphere"}"#;
        let post = format!(
            "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let ((panicked, next), handlers) = with_server(Some(faults), |addr| {
            let panicked = exchange(addr, post.as_bytes());
            (panicked, exchange(addr, b"GET /healthz HTTP/1.1\r\n\r\n"))
        });
        assert_eq!(panicked, "", "the panicking request gets no answer");
        assert!(next.starts_with("HTTP/1.1 200 OK"), "{next}");
        assert_eq!(handlers, 1);
    }

    /// A file body goes out after the head exactly as the file holds it,
    /// through a writer buffer many times smaller than the file; one whose
    /// file ends short of the promised length is an error.
    #[test]
    fn file_body_writes_head_then_the_file() {
        let path = std::env::temp_dir().join(format!("pi2m-http-body-{}", std::process::id()));
        let content: Vec<u8> = (0..100_000u32).map(|i| (i * 7 % 251) as u8).collect();
        std::fs::write(&path, &content).unwrap();
        let open = || File::open(&path).unwrap();
        let resp = Response {
            status: 200,
            content_type: "application/octet-stream",
            retry_after_s: None,
            body: Body::File(open(), content.len() as u64),
        };
        let mut out = Vec::new();
        resp.write_to(&mut BufWriter::with_capacity(8192, &mut out))
            .unwrap();
        let head = b"HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\n\
                     Content-Length: 100000\r\nConnection: close\r\n\r\n";
        assert_eq!(&out[..head.len()], &head[..]);
        assert!(
            out[head.len()..] == content[..],
            "body differs from the file"
        );

        let short = Response {
            body: Body::File(open(), content.len() as u64 + 1),
            ..resp
        };
        let err = short.write_to(&mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        std::fs::remove_file(&path).unwrap();
    }
}
