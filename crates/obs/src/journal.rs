//! Structured logging: a leveled, rate-limited JSONL journal.
//!
//! Every line the journal emits is one JSON object — `{"t":…,"level":…,
//! "event":…,…}` — so daemon stderr (and `--log=PATH` files) can be parsed,
//! filtered, and shipped without regexes. The CLI's interactive commands use
//! the same journal in *text* mode, which prints each event's `msg` field
//! as the familiar human line; switching a command to machine-readable
//! output is therefore just a sink change (`--log`), not a reformat of
//! every call site.
//!
//! Properties the serve daemon leans on:
//!
//! * **Leveled** — events below the journal's minimum level, and every
//!   event of a null journal, are dropped before any formatting
//!   (`PI2M_LOG_LEVEL=debug|info|warn|error`); callers that build fields
//!   for a line ask [`Journal::enabled`] first.
//! * **Rate-limited per event name** — at most [`RATE_MAX_PER_WINDOW`]
//!   lines per event name per one-second window, so a flapping socket or a
//!   recycle storm cannot flood stderr. Suppressed lines are counted, and
//!   the count is surfaced on the next emitted line of that event
//!   (`"suppressed": N`) when the window rolls.
//! * **Monotonic timestamps** — `t` is seconds since the journal was
//!   created, measured on [`Instant`] and clamped so lines never go
//!   backwards even across threads.

use crate::json::Json;
use std::collections::HashMap;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Version of the JSONL line schema (`t`/`level`/`event` + free-form
/// fields). Bump when a stable field changes meaning; printed by
/// `pi2m --version` as `journal-schema`.
pub const SCHEMA_VERSION: u32 = 1;

/// Max lines per event name per one-second window before suppression.
pub const RATE_MAX_PER_WINDOW: u32 = 10;

/// Event severity, ordered. The journal drops anything below its minimum.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    Debug,
    Info,
    Warn,
    Error,
}

impl Level {
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "debug" => Some(Level::Debug),
            "info" => Some(Level::Info),
            "warn" | "warning" => Some(Level::Warn),
            "error" => Some(Level::Error),
            _ => None,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }
}

/// Where accepted lines go.
enum Sink {
    /// Human lines on stderr: the event's `msg` field when present, else
    /// `event key=value …`.
    StderrText,
    /// One JSON object per stderr line.
    StderrJsonl,
    /// One JSON object per line into an arbitrary writer (`--log=PATH`).
    Jsonl(Box<dyn Write + Send>),
}

/// Per-event-name rate limiter state for one window.
struct Rate {
    /// Window index: whole seconds since the journal origin.
    window: u64,
    emitted: u32,
    suppressed: u64,
}

struct Inner {
    sink: Sink,
    rates: HashMap<String, Rate>,
    /// Last emitted timestamp; lines are clamped to never go backwards.
    last_t: f64,
}

/// A leveled, rate-limited structured log. Cheap to share (`Arc`); all
/// state sits behind one mutex — journals are for control-plane events
/// (admissions, retries, drains), not hot-path metrics.
pub struct Journal {
    min: Level,
    origin: Instant,
    /// `None` for a null journal, which accepts nothing.
    inner: Option<Mutex<Inner>>,
}

impl Journal {
    fn with_sink(min: Level, sink: Sink) -> Arc<Journal> {
        Arc::new(Journal {
            min,
            origin: Instant::now(),
            inner: Some(Mutex::new(Inner {
                sink,
                rates: HashMap::new(),
                last_t: 0.0,
            })),
        })
    }

    /// A journal that writes nowhere and formats nothing. The default for
    /// library embedders (e.g. the serve `ServiceConfig` in tests).
    pub fn null() -> Arc<Journal> {
        Arc::new(Journal {
            min: Level::Info,
            origin: Instant::now(),
            inner: None,
        })
    }

    /// Human-readable lines on stderr (interactive CLI default).
    pub fn stderr_text(min: Level) -> Arc<Journal> {
        Journal::with_sink(min, Sink::StderrText)
    }

    /// JSONL on stderr (daemon default; also bare `--log`).
    pub fn stderr_jsonl(min: Level) -> Arc<Journal> {
        Journal::with_sink(min, Sink::StderrJsonl)
    }

    /// JSONL into an arbitrary writer (tests capture lines this way).
    pub fn to_writer(min: Level, w: Box<dyn Write + Send>) -> Arc<Journal> {
        Journal::with_sink(min, Sink::Jsonl(w))
    }

    /// JSONL appended to a file, created if absent.
    pub fn to_path(min: Level, path: &str) -> Result<Arc<Journal>, String> {
        let f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open log file {path}: {e}"))?;
        Ok(Journal::with_sink(min, Sink::Jsonl(Box::new(f))))
    }

    /// Resolve a `--log[=PATH]` / `PI2M_LOG` spec. `None` falls back to
    /// stderr — JSONL when `default_jsonl` (daemons), else text
    /// (interactive commands). `"stderr"`, `"-"`, or empty force stderr
    /// JSONL; anything else is a file path.
    pub fn from_spec(
        spec: Option<&str>,
        min: Level,
        default_jsonl: bool,
    ) -> Result<Arc<Journal>, String> {
        match spec {
            Some("stderr") | Some("-") | Some("") => Ok(Journal::stderr_jsonl(min)),
            Some(path) => Journal::to_path(min, path),
            None if default_jsonl => Ok(Journal::stderr_jsonl(min)),
            None => Ok(Journal::stderr_text(min)),
        }
    }

    /// Whether an event at `level` would reach a sink (it may still be
    /// rate-limited). False for every level of a null journal.
    pub fn enabled(&self, level: Level) -> bool {
        level >= self.min && self.inner.is_some()
    }

    pub fn info(&self, event: &str, fields: &[(&str, Json)]) {
        self.emit(Level::Info, event, fields);
    }

    pub fn warn(&self, event: &str, fields: &[(&str, Json)]) {
        self.emit(Level::Warn, event, fields);
    }

    pub fn error(&self, event: &str, fields: &[(&str, Json)]) {
        self.emit(Level::Error, event, fields);
    }

    /// Record one event. Level-filtered, rate-limited, then written to the
    /// sink with a monotonic timestamp.
    pub fn emit(&self, level: Level, event: &str, fields: &[(&str, Json)]) {
        self.emit_at(self.origin.elapsed().as_secs_f64(), level, event, fields);
    }

    /// [`emit`](Journal::emit) with an explicit timestamp (seconds since
    /// origin) — the testable core: window rollover and monotonicity are
    /// driven by `t`, not the wall clock.
    fn emit_at(&self, t: f64, level: Level, event: &str, fields: &[(&str, Json)]) {
        let Some(inner) = self.inner.as_ref().filter(|_| level >= self.min) else {
            return;
        };
        let mut inner = inner.lock().unwrap();
        let t = if t > inner.last_t { t } else { inner.last_t };
        inner.last_t = t;
        let window = t as u64;
        let backlog = {
            let rate = inner.rates.entry(event.to_string()).or_insert(Rate {
                window,
                emitted: 0,
                suppressed: 0,
            });
            let rolled = if rate.window != window {
                let s = rate.suppressed;
                *rate = Rate {
                    window,
                    emitted: 0,
                    suppressed: 0,
                };
                s
            } else {
                0
            };
            if rate.emitted >= RATE_MAX_PER_WINDOW {
                rate.suppressed += 1;
                None
            } else {
                rate.emitted += 1;
                Some(rolled)
            }
        };
        let Some(backlog) = backlog else {
            return;
        };
        let mut obj: Vec<(&str, Json)> = Vec::with_capacity(fields.len() + 4);
        // microsecond precision keeps lines short without losing ordering
        obj.push(("t", Json::num((t * 1e6).round() / 1e6)));
        obj.push(("level", Json::str(level.as_str())));
        obj.push(("event", Json::str(event)));
        for (k, v) in fields {
            obj.push((k, v.clone()));
        }
        if backlog > 0 {
            obj.push(("suppressed", Json::int(backlog)));
        }
        let line = Json::obj(obj);
        match &mut inner.sink {
            Sink::StderrText => eprintln!("{}", render_text(event, fields, backlog)),
            Sink::StderrJsonl => eprintln!("{}", line.dump()),
            Sink::Jsonl(w) => {
                let _ = writeln!(w, "{}", line.dump());
                let _ = w.flush();
            }
        }
    }
}

/// The human form of one event: its `msg` field verbatim when present
/// (the interactive CLI passes its legacy progress lines this way), else
/// `event key=value …`.
fn render_text(event: &str, fields: &[(&str, Json)], backlog: u64) -> String {
    let mut line = match fields.iter().find(|(k, _)| *k == "msg") {
        Some((_, Json::Str(msg))) => msg.clone(),
        _ => {
            let mut s = event.to_string();
            for (k, v) in fields {
                let rendered = match v {
                    Json::Str(text) => text.clone(),
                    other => other.dump(),
                };
                s.push_str(&format!(" {k}={rendered}"));
            }
            s
        }
    };
    if backlog > 0 {
        line.push_str(&format!(" ({backlog} similar suppressed)"));
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// A shared capture buffer usable as a journal sink.
    #[derive(Clone, Default)]
    struct Buf(Arc<StdMutex<Vec<u8>>>);

    impl Write for Buf {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(b);
            Ok(b.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl Buf {
        fn lines(&self) -> Vec<String> {
            String::from_utf8(self.0.lock().unwrap().clone())
                .unwrap()
                .lines()
                .map(String::from)
                .collect()
        }
    }

    #[test]
    fn golden_jsonl_structure() {
        let buf = Buf::default();
        let jl = Journal::to_writer(Level::Debug, Box::new(buf.clone()));
        jl.info(
            "job.admitted",
            &[("job", Json::str("job-1")), ("depth", Json::int(3))],
        );
        jl.warn("serve.recycle", &[("slot", Json::int(0))]);
        let lines = buf.lines();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let v = crate::json::parse(line).expect("every journal line parses as JSON");
            assert!(v.get("t").and_then(Json::as_f64).is_some(), "{line}");
            assert!(v.get("level").and_then(Json::as_str).is_some(), "{line}");
            assert!(v.get("event").and_then(Json::as_str).is_some(), "{line}");
        }
        let first = crate::json::parse(&lines[0]).unwrap();
        assert_eq!(first.get("level").unwrap().as_str(), Some("info"));
        assert_eq!(first.get("event").unwrap().as_str(), Some("job.admitted"));
        assert_eq!(first.get("job").unwrap().as_str(), Some("job-1"));
        assert_eq!(first.get("depth").unwrap().as_f64(), Some(3.0));
        let second = crate::json::parse(&lines[1]).unwrap();
        assert_eq!(second.get("level").unwrap().as_str(), Some("warn"));
        // monotone timestamps
        let (t0, t1) = (
            first.get("t").unwrap().as_f64().unwrap(),
            second.get("t").unwrap().as_f64().unwrap(),
        );
        assert!(t1 >= t0, "timestamps must be non-decreasing: {t0} {t1}");
        assert_eq!(SCHEMA_VERSION, 1);
    }

    #[test]
    fn levels_filter_below_minimum() {
        let buf = Buf::default();
        let jl = Journal::to_writer(Level::Warn, Box::new(buf.clone()));
        jl.emit(Level::Debug, "noisy", &[]);
        jl.info("noisy", &[]);
        jl.warn("kept", &[]);
        jl.error("kept", &[]);
        let lines = buf.lines();
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines.iter().all(|l| l.contains("kept")));
        assert!(!jl.enabled(Level::Info) && jl.enabled(Level::Warn));
    }

    #[test]
    fn a_null_journal_accepts_nothing() {
        let jl = Journal::null();
        for level in [Level::Debug, Level::Info, Level::Warn, Level::Error] {
            assert!(!jl.enabled(level), "{level:?}");
        }
        jl.error("dropped", &[("i", Json::int(1))]);
    }

    #[test]
    fn rate_limiter_bounds_each_event_name_and_surfaces_backlog() {
        let buf = Buf::default();
        let jl = Journal::to_writer(Level::Info, Box::new(buf.clone()));
        // 50 identical events inside one window: only the cap gets through
        for i in 0..50 {
            jl.emit_at(0.01 * i as f64, Level::Info, "flap", &[]);
        }
        // a different event name is not throttled by "flap"'s window
        jl.emit_at(0.9, Level::Info, "other", &[]);
        assert_eq!(
            buf.lines().len(),
            RATE_MAX_PER_WINDOW as usize + 1,
            "cap per event name per window"
        );
        // the next window's first line carries the suppressed count
        jl.emit_at(1.5, Level::Info, "flap", &[]);
        let last = buf.lines().pop().unwrap();
        let v = crate::json::parse(&last).unwrap();
        assert_eq!(
            v.get("suppressed").unwrap().as_f64(),
            Some((50 - RATE_MAX_PER_WINDOW) as f64),
            "{last}"
        );
    }

    #[test]
    fn timestamps_never_go_backwards() {
        let buf = Buf::default();
        let jl = Journal::to_writer(Level::Info, Box::new(buf.clone()));
        jl.emit_at(5.0, Level::Info, "a", &[]);
        jl.emit_at(3.0, Level::Info, "b", &[]); // clock skew: clamped to 5.0
        let lines = buf.lines();
        let t0 = crate::json::parse(&lines[0])
            .unwrap()
            .get("t")
            .unwrap()
            .as_f64()
            .unwrap();
        let t1 = crate::json::parse(&lines[1])
            .unwrap()
            .get("t")
            .unwrap()
            .as_f64()
            .unwrap();
        assert_eq!(t0, 5.0);
        assert!(t1 >= t0, "clamped: {t1} >= {t0}");
    }

    #[test]
    fn text_mode_prints_msg_verbatim() {
        assert_eq!(
            render_text("mesh.done", &[("msg", Json::str("12 tets in 0.5s"))], 0),
            "12 tets in 0.5s"
        );
        assert_eq!(
            render_text(
                "serve.recycle",
                &[("slot", Json::int(2)), ("why", Json::str("livelock"))],
                3
            ),
            "serve.recycle slot=2 why=livelock (3 similar suppressed)"
        );
    }

    #[test]
    fn level_parsing() {
        assert_eq!(Level::parse("debug"), Some(Level::Debug));
        assert_eq!(Level::parse("INFO"), Some(Level::Info));
        assert_eq!(Level::parse(" warn "), Some(Level::Warn));
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse("error"), Some(Level::Error));
        assert_eq!(Level::parse("loud"), None);
        assert!(Level::Debug < Level::Info && Level::Warn < Level::Error);
    }
}
