//! A deliberately small HTTP/1.1 front door for the meshing service.
//!
//! The workspace vendors no network stack, so this is a hand-rolled
//! blocking server: a non-blocking accept loop polled against a stop
//! predicate, one short-lived thread per connection (bounded; excess
//! connections are answered `503` immediately — the same shedding
//! philosophy as the job queue), `Connection: close` on every response.
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
//! | `GET /jobs/job-N/artifact` | fetch the flushed VTK artifact (`409` until terminal) |
//! | `GET /healthz` | liveness: `200` while the process serves |
//! | `GET /readyz` | readiness: `503` once draining |
//! | `GET /metrics` | Prometheus exposition |
//! | `POST /drain` | begin a graceful drain (admission stops) |

use crate::job::{parse_job_name, JobSpec, JobStatus};
use crate::queue::AdmitError;
use crate::service::MeshService;
use pi2m_obs::json::{self, Json};
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Cap on header bytes before a request is rejected.
const MAX_HEAD: usize = 16 * 1024;
/// Cap on body bytes before a request is rejected.
const MAX_BODY: usize = 1024 * 1024;
/// Concurrent connection threads before new connections are shed.
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
    let mut body = vec![0u8; content_length];
    r.read_exact(&mut body)
        .map_err(|e| format!("short body: {e}"))?;
    Ok(Request { method, path, body })
}

/// A response ready to serialize: status, content type, optional
/// `Retry-After` seconds, body.
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    pub retry_after_s: Option<u64>,
    pub body: Vec<u8>,
}

impl Response {
    pub fn json(status: u16, v: &Json) -> Response {
        let mut body = v.dump_pretty().into_bytes();
        body.push(b'\n');
        Response {
            status,
            content_type: "application/json",
            retry_after_s: None,
            body,
        }
    }

    pub fn text(status: u16, s: &str) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            retry_after_s: None,
            body: s.as_bytes().to_vec(),
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

    /// Serialize onto the wire (`Connection: close` always).
    pub fn write_to<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        write!(w, "HTTP/1.1 {} {}\r\n", self.status, self.reason())?;
        write!(w, "Content-Type: {}\r\n", self.content_type)?;
        write!(w, "Content-Length: {}\r\n", self.body.len())?;
        if let Some(s) = self.retry_after_s {
            write!(w, "Retry-After: {s}\r\n")?;
        }
        write!(w, "Connection: close\r\n\r\n")?;
        w.write_all(&self.body)?;
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
    let mut jobs = svc.jobs();
    jobs.reverse(); // jobs() is oldest-first
    let summaries: Vec<Json> = jobs.iter().take(n).map(|r| r.summary_json()).collect();
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
    match std::fs::read(path) {
        Ok(bytes) => Response {
            status: 200,
            content_type: "application/octet-stream",
            retry_after_s: None,
            body: bytes,
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
    /// every 5 ms). Each connection gets its own short-lived thread, bounded
    /// at `MAX_CONNS` (64); beyond that, connections are answered `503`
    /// inline.
    pub fn serve<F: Fn() -> bool>(&self, svc: Arc<MeshService>, stop: F) {
        let live = Arc::new(AtomicUsize::new(0));
        let mut idle = IDLE_MIN;
        while !stop() {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    idle = IDLE_MIN;
                    if live.load(Ordering::SeqCst) >= MAX_CONNS {
                        let mut stream = stream;
                        let _ = Response::error(503, "overloaded", "too many connections")
                            .write_to(&mut stream);
                        continue;
                    }
                    live.fetch_add(1, Ordering::SeqCst);
                    let svc = Arc::clone(&svc);
                    let live = Arc::clone(&live);
                    let _ = std::thread::Builder::new()
                        .name("pi2m-conn".into())
                        .spawn(move || {
                            handle_connection(&svc, stream);
                            live.fetch_sub(1, Ordering::SeqCst);
                        });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(idle);
                    idle = (idle * 2).min(IDLE_MAX);
                }
                Err(e) => {
                    // Rate-limited by the journal: a flapping socket cannot
                    // flood stderr.
                    svc.journal()
                        .warn("serve.accept_error", &[("error", Json::str(e.to_string()))]);
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
    }
}

/// Serve one request. Both directions are buffered: `read_request` takes
/// the head a byte at a time and `write_to` emits the head a line at a
/// time, which unbuffered is a syscall per byte and per line, and on the
/// client side a wake-up per segment.
fn handle_connection(svc: &MeshService, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let _ = stream.set_nonblocking(false);
    let response = match read_request(&mut BufReader::new(&stream)) {
        Ok(req) => handle(svc, &req),
        Err(e) => Response::error(400, "bad_request", &e),
    };
    // `write_to` ends with a flush, so no write error is lost with the
    // buffer.
    let _ = response.write_to(&mut BufWriter::new(&stream));
    let _ = stream.shutdown(std::net::Shutdown::Both);
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
}
