//! Spans around the calls the harness makes into each layer. Held in memory
//! during the traced run and written out in Chrome trace format at its end.
//! Untraced runs never construct a [`Tracer`].

use pi2m::obs::json::Json;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    /// Harness thread (0 = main, 1.. = serve clients).
    pub tid: u32,
    /// The rep or job this span belongs to; spans of one operation share it.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// One thread's span recorder. All tracers of a run share `origin`, so their
/// spans merge onto one timeline.
pub struct Tracer {
    origin: Instant,
    tid: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span, returned by [`Tracer::begin`].
#[derive(Clone, Copy)]
pub struct Open(usize);

impl Tracer {
    pub fn new(origin: Instant, tid: u32) -> Tracer {
        Tracer {
            origin,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &str, op: u64) -> Open {
        let idx = self.spans.len();
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            id: (self.tid as u64) << 32 | idx as u64,
            parent: self.open.last().map(|&p| self.spans[p].id),
            name: name.to_string(),
            tid: self.tid,
            op,
            start_ns: now,
            end_ns: now,
        });
        self.open.push(idx);
        Open(idx)
    }

    /// Close `span`, which must be the innermost open one. Returns its
    /// duration in seconds.
    pub fn end(&mut self, span: Open) -> f64 {
        assert_eq!(self.open.pop(), Some(span.0), "spans close innermost first");
        self.spans[span.0].end_ns = self.ns(Instant::now());
        self.spans[span.0].dur_s()
    }

    /// Time `f` as a leaf span; returns its result and duration in seconds.
    pub fn time<T>(&mut self, name: &str, op: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let s = self.begin(name, op);
        let r = f();
        (r, self.end(s))
    }

    /// Record a finished span from instants taken elsewhere: a child of the
    /// open span `parent` (the engine's stage callback fires inside the mesh
    /// call), or a root when the caller interleaves operations on one thread.
    pub fn record(
        &mut self,
        parent: Option<Open>,
        name: &str,
        op: u64,
        start: Instant,
        end: Instant,
    ) {
        let idx = self.spans.len();
        self.spans.push(Span {
            id: (self.tid as u64) << 32 | idx as u64,
            parent: parent.map(|p| self.spans[p.0].id),
            name: name.to_string(),
            tid: self.tid,
            op,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
    }

    /// The first span recorded under `name`.
    pub fn first(&self, name: &str) -> Option<&Span> {
        self.spans.iter().find(|s| s.name == name)
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "a span was left open");
        self.spans
    }
}

/// Run `f`, as a leaf span when a tracer is there.
pub fn timed<T>(tr: &mut Option<&mut Tracer>, name: &str, f: impl FnOnce() -> T) -> T {
    match tr {
        Some(t) => t.time(name, 0, f).0,
        None => f(),
    }
}

/// Ledger invariant: a span's self time — its duration minus the part its
/// child spans cover — is never negative, and children lie inside it.
pub fn check_self_times(spans: &[Span]) -> Result<(), String> {
    let by_id: std::collections::HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut child_ns: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for s in spans {
        if s.end_ns < s.start_ns {
            return Err(format!("span {} ends before it starts", s.name));
        }
        let Some(pid) = s.parent else { continue };
        let p = by_id
            .get(&pid)
            .ok_or_else(|| format!("span {} has an unknown parent", s.name))?;
        if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
            return Err(format!("span {} leaves its parent {}", s.name, p.name));
        }
        *child_ns.entry(pid).or_default() += s.end_ns - s.start_ns;
    }
    for (pid, covered) in child_ns {
        let p = by_id[&pid];
        if covered > p.end_ns - p.start_ns {
            return Err(format!(
                "span {} has negative self time ({} ns of children in {} ns)",
                p.name,
                covered,
                p.end_ns - p.start_ns
            ));
        }
    }
    Ok(())
}

/// Write `spans` as a Chrome trace (`chrome://tracing`, Perfetto).
pub fn write_chrome_trace(path: &Path, spans: &[Span]) -> Result<(), String> {
    let events = spans
        .iter()
        .map(|s| {
            let mut args = vec![("id", Json::int(s.id)), ("op", Json::int(s.op))];
            if let Some(p) = s.parent {
                args.push(("parent", Json::int(p)));
            }
            Json::obj(vec![
                ("name", Json::str(s.name.clone())),
                ("cat", Json::str(s.name.split('.').next().unwrap_or(""))),
                ("ph", Json::str("X")),
                ("ts", Json::num(s.start_ns as f64 / 1e3)),
                ("dur", Json::num((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("pid", Json::int(1)),
                ("tid", Json::int(s.tid as u64)),
                ("args", Json::obj(args)),
            ])
        })
        .collect();
    let doc = Json::obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
    ]);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.dump()).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_have_parents_and_pass_the_self_time_check() {
        let mut t = Tracer::new(Instant::now(), 0);
        let outer = t.begin("refine.mesh", 7);
        let (v, _) = t.time("edt.transform", 7, || 41 + 1);
        assert_eq!(v, 42);
        let (a, b) = (Instant::now(), Instant::now());
        t.record(Some(outer), "refine.stage.edt", 7, a, b);
        t.end(outer);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!(spans[2].parent, Some(spans[0].id));
        assert!(spans.iter().all(|s| s.op == 7));
        check_self_times(&spans).unwrap();
    }

    #[test]
    fn a_child_longer_than_its_parent_fails_the_check() {
        let span = |id, parent, start_ns, end_ns| Span {
            id,
            parent,
            name: format!("s{id}"),
            tid: 0,
            op: 0,
            start_ns,
            end_ns,
        };
        let bad = [span(0, None, 10, 20), span(1, Some(0), 5, 15)];
        assert!(check_self_times(&bad).is_err());
        let overfull = [
            span(0, None, 0, 10),
            span(1, Some(0), 0, 8),
            span(2, Some(0), 2, 10),
        ];
        assert!(check_self_times(&overfull).is_err());
    }
}
