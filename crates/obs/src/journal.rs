//! Structured logging: a leveled JSONL journal.
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
//! * **Complete** — every accepted event is written: a line is never
//!   dropped for being frequent, so the journal is a full account of the
//!   jobs and inputs it logs. A caller that could repeat an event without
//!   bound paces itself (the HTTP accept loop sleeps 50 ms after an error).
//! * **Monotonic timestamps** — `t` is seconds since the journal was
//!   created, measured on [`Instant`] and clamped so lines never go
//!   backwards even across threads.

use crate::json::Json;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Version of the JSONL line schema (`t`/`level`/`event` + free-form
/// fields). Bump when a stable field changes meaning; printed by
/// `pi2m --version` as `journal-schema`.
pub const SCHEMA_VERSION: u32 = 1;

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

struct Inner {
    sink: Sink,
    /// Last emitted timestamp; lines are clamped to never go backwards.
    last_t: f64,
}

/// A leveled structured log. Cheap to share (`Arc`); all
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
            inner: Some(Mutex::new(Inner { sink, last_t: 0.0 })),
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

    /// JSONL into an arbitrary writer (tests capture lines this way).
    pub fn to_writer(min: Level, w: Box<dyn Write + Send>) -> Arc<Journal> {
        Journal::with_sink(min, Sink::Jsonl(w))
    }

    /// Resolve a `--log[=PATH]` / `PI2M_LOG` spec. `None` falls back to
    /// stderr — JSONL when `default_jsonl` (daemons), else human lines
    /// (interactive commands). `"stderr"`, `"-"`, or empty force stderr
    /// JSONL; anything else is a file path, appended to and created if
    /// absent.
    pub fn from_spec(
        spec: Option<&str>,
        min: Level,
        default_jsonl: bool,
    ) -> Result<Arc<Journal>, String> {
        let sink = match spec {
            Some("stderr") | Some("-") | Some("") => Sink::StderrJsonl,
            Some(path) => Sink::Jsonl(Box::new(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .map_err(|e| format!("cannot open log file {path}: {e}"))?,
            )),
            None if default_jsonl => Sink::StderrJsonl,
            None => Sink::StderrText,
        };
        Ok(Journal::with_sink(min, sink))
    }

    /// Whether an event at `level` would reach a sink. False for every
    /// level of a null journal.
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

    /// Record one event. Level-filtered, then written to the sink with a
    /// monotonic timestamp.
    pub fn emit(&self, level: Level, event: &str, fields: &[(&str, Json)]) {
        self.emit_at(self.origin.elapsed().as_secs_f64(), level, event, fields);
    }

    /// [`emit`](Journal::emit) with an explicit timestamp (seconds since
    /// origin) — the testable core: monotonicity is driven by `t`, not the
    /// wall clock.
    fn emit_at(&self, t: f64, level: Level, event: &str, fields: &[(&str, Json)]) {
        let Some(inner) = self.inner.as_ref().filter(|_| level >= self.min) else {
            return;
        };
        let mut inner = inner.lock().unwrap();
        let t = if t > inner.last_t { t } else { inner.last_t };
        inner.last_t = t;
        let mut obj: Vec<(&str, Json)> = Vec::with_capacity(fields.len() + 3);
        // microsecond precision keeps lines short without losing ordering
        obj.push(("t", Json::num((t * 1e6).round() / 1e6)));
        obj.push(("level", Json::str(level.as_str())));
        obj.push(("event", Json::str(event)));
        for (k, v) in fields {
            obj.push((k, v.clone()));
        }
        let line = Json::obj(obj);
        match &mut inner.sink {
            Sink::StderrText => eprintln!("{}", render_text(event, fields)),
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
fn render_text(event: &str, fields: &[(&str, Json)]) -> String {
    match fields.iter().find(|(k, _)| *k == "msg") {
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
    }
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
    fn frequent_lines_of_one_name_are_all_written() {
        let buf = Buf::default();
        let jl = Journal::to_writer(Level::Info, Box::new(buf.clone()));
        // 40 lines of one event name inside one second
        for i in 0..40 {
            jl.emit_at(0.02 * i as f64, Level::Info, "job.admitted", &[]);
        }
        assert_eq!(buf.lines().len(), 40);
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
            render_text("mesh.done", &[("msg", Json::str("12 tets in 0.5s"))]),
            "12 tets in 0.5s"
        );
        assert_eq!(
            render_text(
                "serve.recycle",
                &[("slot", Json::int(2)), ("why", Json::str("livelock"))]
            ),
            "serve.recycle slot=2 why=livelock"
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
