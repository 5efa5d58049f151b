//! Exporters: Prometheus text exposition and Chrome Trace Event JSON.

use crate::attribution::{Category, WorkerAttribution};
use crate::flight::{EventKind, FlightEvent};
use crate::json::Json;
use crate::metrics::{bucket_upper_bound, ObsEvent};
use crate::report::{RunReport, TraceSpan};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Prometheus text exposition (0.0.4 format) of a run report: counters,
/// histograms (`_bucket`/`_sum`/`_count`), per-phase gauges and the wall. A
/// report of one refinement run — one with an attribution — adds its
/// per-overhead-kind seconds, read from the attribution, and its element
/// count. Metric names are prefixed `pi2m_`.
pub fn render_prometheus(report: &RunReport) -> String {
    let mut out = String::new();

    for (def, v) in report.metrics.counters() {
        let name = format!("pi2m_{}", def.name);
        let _ = writeln!(out, "# HELP {name} {} ({})", def.help, def.unit);
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {v}");
    }

    for (def, h) in report.metrics.histograms() {
        if h.count == 0 {
            continue;
        }
        let name = format!("pi2m_{}", def.name);
        let _ = writeln!(out, "# HELP {name} {} ({})", def.help, def.unit);
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cum = 0u64;
        for (i, &c) in h.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            cum += c;
            let le = bucket_upper_bound(i);
            if le.is_infinite() {
                let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cum}");
            } else {
                let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cum}");
            }
        }
        if h.buckets[h.buckets.len() - 1] == 0 {
            // the exposition format requires a closing +Inf bucket
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
        }
        let _ = writeln!(out, "{name}_sum {}", h.sum);
        let _ = writeln!(out, "{name}_count {}", h.count);
    }

    let _ = writeln!(
        out,
        "# HELP pi2m_phase_seconds Wall time per pipeline phase"
    );
    let _ = writeln!(out, "# TYPE pi2m_phase_seconds gauge");
    for p in &report.phases {
        let _ = writeln!(
            out,
            "pi2m_phase_seconds{{phase=\"{}\"}} {}",
            p.name, p.seconds
        );
    }

    let _ = writeln!(
        out,
        "# HELP pi2m_wall_seconds Wall time of the measured section"
    );
    let _ = writeln!(out, "# TYPE pi2m_wall_seconds gauge");
    let _ = writeln!(out, "pi2m_wall_seconds {}", report.wall_s);
    // A report without an attribution (the serve daemon's aggregate over
    // many jobs) describes no one run, and has no run gauges to give.
    if let Some(a) = &report.attribution {
        let _ = writeln!(
            out,
            "# HELP pi2m_overhead_seconds Wasted cycles per category, summed over workers"
        );
        let _ = writeln!(out, "# TYPE pi2m_overhead_seconds gauge");
        for (kind, cat) in [
            ("contention", Category::CmPark),
            ("load_balance", Category::BegPark),
            ("rollback", Category::RolledBack),
        ] {
            let _ = writeln!(
                out,
                "pi2m_overhead_seconds{{kind=\"{kind}\"}} {}",
                a.total(cat)
            );
        }
        let _ = writeln!(out, "# HELP pi2m_elements Final mesh elements");
        let _ = writeln!(out, "# TYPE pi2m_elements gauge");
        let _ = writeln!(out, "pi2m_elements {}", report.elements);
    }
    out
}

/// Chrome Trace Event JSON (the `chrome://tracing` / Perfetto "JSON Array
/// Format" with a `traceEvents` wrapper object).
///
/// * `phases` appear as complete (`"ph":"X"`) events on a dedicated
///   "pipeline" track (`tid` 0).
/// * `events` (worker lifetimes, a served job's lifecycle markers) appear
///   on `tid = worker + 1`.
/// * `flight`, the flight-recorder timeline, lands on the same worker
///   tracks: rollbacks, CM parks and begging waits as complete (`"X"`)
///   slices, lock conflicts, steals, donations and worker deaths as instant
///   (`"i"`) markers (`CmPark`/`BegPark` are skipped: their end events
///   carry the duration). A worker's `WorkerSums` events become one sample
///   on its counter track (`"ph":"C"`, `attribution w<tid>`): its seconds
///   per measured [`Category`], the report's `time_attribution` row.
///
/// All timestamps must share the run-origin time base; they are emitted in
/// microseconds as the format requires.
pub fn render_chrome_trace(
    phases: &[TraceSpan],
    events: &[(u32, ObsEvent)],
    flight: &[FlightEvent],
) -> String {
    let us = |s: f64| (s * 1e6).max(0.0);
    let mut trace_events: Vec<Json> = Vec::new();

    // Track-name metadata so Perfetto shows labels instead of bare tids.
    let thread_meta = |tid: u64, name: &str| {
        Json::obj(vec![
            ("name", Json::str("thread_name")),
            ("ph", Json::str("M")),
            ("pid", Json::int(1)),
            ("tid", Json::int(tid)),
            ("args", Json::obj(vec![("name", Json::str(name))])),
        ])
    };
    trace_events.push(thread_meta(0, "pipeline"));
    let mut seen_tids: Vec<u32> = events.iter().map(|(t, _)| *t).collect();
    seen_tids.extend(flight.iter().map(|e| e.tid as u32));
    seen_tids.sort_unstable();
    seen_tids.dedup();
    for &t in &seen_tids {
        trace_events.push(thread_meta(t as u64 + 1, &format!("worker {t}")));
    }

    for s in phases {
        trace_events.push(Json::obj(vec![
            ("name", Json::str(s.name)),
            ("cat", Json::str("phase")),
            ("ph", Json::str("X")),
            ("pid", Json::int(1)),
            ("tid", Json::int(0)),
            ("ts", Json::num(us(s.start_s))),
            ("dur", Json::num(us(s.dur_s))),
        ]));
    }
    for (tid, e) in events {
        trace_events.push(Json::obj(vec![
            ("name", Json::str(e.name)),
            ("cat", Json::str(e.cat)),
            ("ph", Json::str("X")),
            ("pid", Json::int(1)),
            ("tid", Json::int(*tid as u64 + 1)),
            ("ts", Json::num(us(e.at_s))),
            ("dur", Json::num(us(e.dur_s))),
        ]));
    }

    // Each worker's sums, summed up for its one counter sample.
    let mut sums: BTreeMap<u16, (u64, WorkerAttribution)> = BTreeMap::new();
    for e in flight {
        let end_us = e.t_ns as f64 * 1e-3;
        let dur_us = e.c as f64 * 1e-3;
        let tid = Json::int(e.tid as u64 + 1);
        match e.kind {
            // duration-bearing: the event is stamped at the *end*; its `c`
            // word is the duration in ns, so the slice starts at t - c.
            EventKind::Rollback | EventKind::CmUnpark | EventKind::BegUnpark => {
                let name = match e.kind {
                    EventKind::Rollback => "rollback",
                    EventKind::CmUnpark => "cm_park",
                    _ => "beg_wait",
                };
                let mut obj = vec![
                    ("name", Json::str(name)),
                    ("cat", Json::str("flight")),
                    ("ph", Json::str("X")),
                    ("pid", Json::int(1)),
                    ("tid", tid),
                    ("ts", Json::num((end_us - dur_us).max(0.0))),
                    ("dur", Json::num(dur_us)),
                ];
                if e.kind == EventKind::Rollback {
                    obj.push((
                        "args",
                        Json::obj(vec![
                            ("vertex", Json::int(e.a as u64)),
                            ("owner", Json::int(e.rollback_owner() as u64)),
                            ("region", Json::int(e.rollback_region() as u64)),
                        ]),
                    ));
                }
                trace_events.push(Json::obj(obj));
            }
            EventKind::LockConflict
            | EventKind::Steal
            | EventKind::Donate
            | EventKind::WorkerDeath
            | EventKind::HeirBequest => {
                trace_events.push(Json::obj(vec![
                    ("name", Json::str(e.kind.name())),
                    ("cat", Json::str("flight")),
                    ("ph", Json::str("i")),
                    ("s", Json::str("t")),
                    ("pid", Json::int(1)),
                    ("tid", tid),
                    ("ts", Json::num(end_us)),
                    (
                        "args",
                        Json::obj(vec![
                            ("a", Json::int(e.a as u64)),
                            ("b", Json::int(e.b as u64)),
                        ]),
                    ),
                ]));
            }
            EventKind::WorkerSums => {
                if let Some((bucket, ns)) = e.sum() {
                    let (t_ns, w) = sums.entry(e.tid).or_default();
                    *t_ns = (*t_ns).max(e.t_ns);
                    w.add_sum(bucket, ns as f64 * 1e-9);
                }
            }
            EventKind::CmPark | EventKind::BegPark => {}
        }
    }
    for (tid, (t_ns, w)) in sums {
        trace_events.push(Json::obj(vec![
            ("name", Json::str(format!("attribution w{tid}"))),
            ("cat", Json::str("attribution")),
            ("ph", Json::str("C")),
            ("pid", Json::int(1)),
            ("tid", Json::int(tid as u64 + 1)),
            ("ts", Json::num(t_ns as f64 * 1e-3)),
            (
                "args",
                Json::Obj(
                    Category::ALL[..5]
                        .iter()
                        .map(|&c| (c.key().to_string(), Json::num(w.get(c))))
                        .collect(),
                ),
            ),
        ]));
    }

    Json::obj(vec![
        ("traceEvents", Json::Arr(trace_events)),
        ("displayTimeUnit", Json::str("ms")),
    ])
    .dump()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribution::{TimeAttribution, WorkerAttribution};
    use crate::json;
    use crate::metrics::{self, ThreadRecorder};

    fn sample_report() -> RunReport {
        let mut rec = ThreadRecorder::new();
        rec.inc(metrics::OPS_INSERTIONS, 5);
        rec.observe(metrics::ROLLBACK_SECONDS, 0.001);
        rec.observe(metrics::ROLLBACK_SECONDS, 0.1);
        rec.event("worker", "worker", 0.0, 1.0);
        let mut r = RunReport::new("test");
        r.set_phases(&[TraceSpan {
            name: "edt",
            start_s: 0.0,
            dur_s: 0.5,
        }]);
        r.wall_s = 1.0;
        r.elements = 10;
        rec.merge_into(0, &mut r.metrics);
        r
    }

    #[test]
    fn prometheus_exposition_shape() {
        let text = render_prometheus(&sample_report());
        assert!(text.contains("# TYPE pi2m_ops_insertions counter"));
        assert!(text.contains("pi2m_ops_insertions 5"));
        assert!(text.contains("# TYPE pi2m_rollback_seconds histogram"));
        assert!(text.contains("pi2m_rollback_seconds_count 2"));
        assert!(text.contains("pi2m_phase_seconds{phase=\"edt\"} 0.5"));
        // cumulative bucket counts end at the total count
        let last_bucket = text
            .lines()
            .rfind(|l| l.starts_with("pi2m_rollback_seconds_bucket"))
            .unwrap();
        assert!(last_bucket.ends_with(" 2"), "{last_bucket}");
    }

    /// The run gauges come from the attribution, and only with one: a
    /// report without it (the serve daemon's aggregate) has neither.
    #[test]
    fn run_gauges_follow_the_attribution() {
        let mut r = sample_report();
        let text = render_prometheus(&r);
        assert!(!text.contains("pi2m_overhead_seconds"), "{text}");
        assert!(!text.contains("pi2m_elements"), "{text}");
        let worker = WorkerAttribution {
            rolled_back_s: 0.25,
            cm_park_s: 0.125,
            ..Default::default()
        };
        r.attribution = Some(TimeAttribution::from_workers(1.0, vec![worker]));
        let text = render_prometheus(&r);
        assert!(text.contains("pi2m_overhead_seconds{kind=\"rollback\"} 0.25"));
        assert!(text.contains("pi2m_overhead_seconds{kind=\"contention\"} 0.125"));
        assert!(text.contains("pi2m_overhead_seconds{kind=\"load_balance\"} 0"));
        assert!(text.contains("pi2m_elements 10"));
    }

    #[test]
    fn chrome_trace_is_valid_json_with_events() {
        let r = sample_report();
        let spans = [TraceSpan {
            name: "edt",
            start_s: 0.0,
            dur_s: 0.5,
        }];
        let s = render_chrome_trace(&spans, &r.metrics.events, &[]);
        let j = json::parse(&s).unwrap();
        let evs = j.get("traceEvents").unwrap().as_arr().unwrap();
        // 2 thread_name metadata + 1 phase + 1 worker event
        assert_eq!(evs.len(), 4);
        let worker_ev = evs
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("worker"))
            .unwrap();
        assert_eq!(worker_ev.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(worker_ev.get("dur").unwrap().as_f64(), Some(1e6));
        assert_eq!(worker_ev.get("tid").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn chrome_trace_renders_flight_kinds() {
        let flight = [
            FlightEvent {
                t_ns: 2_000_000, // op ending at 2ms, 1ms long
                kind: EventKind::Rollback,
                cause: 0,
                tid: 0,
                a: 42,
                b: crate::flight::pack_owner_region(1, 5),
                c: 1_000_000,
            },
            FlightEvent {
                t_ns: 3_000_000,
                kind: EventKind::Steal,
                cause: 0,
                tid: 1,
                a: 0,
                b: 0,
                c: 0,
            },
            FlightEvent {
                t_ns: 100, // paired-begin kinds are skipped
                kind: EventKind::CmPark,
                cause: 0,
                tid: 0,
                a: 0,
                b: 0,
                c: 0,
            },
        ];
        let s = render_chrome_trace(&[], &[], &flight);
        let j = json::parse(&s).unwrap();
        let evs = j.get("traceEvents").unwrap().as_arr().unwrap();
        let rb = evs
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("rollback"))
            .expect("rollback slice");
        assert_eq!(rb.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(rb.get("ts").unwrap().as_f64(), Some(1_000.0)); // 2ms - 1ms
        assert_eq!(rb.get("dur").unwrap().as_f64(), Some(1_000.0));
        let args = rb.get("args").unwrap();
        assert_eq!(args.get("vertex").unwrap().as_f64(), Some(42.0));
        assert_eq!(args.get("owner").unwrap().as_f64(), Some(1.0));
        let steal = evs
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("steal"))
            .expect("steal marker");
        assert_eq!(steal.get("ph").unwrap().as_str(), Some("i"));
        assert!(!evs
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some("cm_park")));
        // worker tracks exist for both tids
        assert!(s.contains("worker 0") && s.contains("worker 1"));
    }

    /// One counter sample per worker, from its sums, whatever else the
    /// log holds: the rings' duration-bearing events draw slices only.
    #[test]
    fn chrome_trace_samples_attribution_once_per_worker() {
        use crate::flight::SumBucket;
        let ms = 1_000_000u64;
        let sum = |tid: u16, bucket, ns| FlightEvent::worker_sum(9 * ms, tid, bucket, ns, 1);
        let rollback = FlightEvent {
            t_ns: 6 * ms,
            kind: EventKind::Rollback,
            cause: 0,
            tid: 0,
            a: 0,
            b: 0,
            c: ms as u32,
        };
        let flight = [
            rollback,
            sum(0, SumBucket::CommittedInsert, ms),
            sum(0, SumBucket::CommittedRemove, 2 * ms),
            sum(0, SumBucket::RolledBack, ms),
            sum(1, SumBucket::BegPark, 3 * ms),
        ];
        let s = render_chrome_trace(&[], &[], &flight);
        let j = json::parse(&s).unwrap();
        let evs = j.get("traceEvents").unwrap().as_arr().unwrap();
        let counters: Vec<_> = evs
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("C"))
            .collect();
        assert_eq!(counters.len(), 2);
        let name = |e: &Json| e.get("name").and_then(Json::as_str).unwrap().to_string();
        assert_eq!(name(counters[0]), "attribution w0");
        assert_eq!(name(counters[1]), "attribution w1");
        let arg = |e: &Json, key: &str| e.get("args").unwrap().get(key).unwrap().as_f64().unwrap();
        // committed sums both op kinds; the sample sits at the sums' time
        assert!((arg(counters[0], "committed") - 0.003).abs() < 1e-12);
        assert!((arg(counters[0], "rolled_back") - 0.001).abs() < 1e-12);
        assert_eq!(counters[0].get("ts").unwrap().as_f64(), Some(9_000.0));
        assert!((arg(counters[1], "beg_park") - 0.003).abs() < 1e-12);
        assert_eq!(arg(counters[1], "committed"), 0.0);
        // the sums draw no slices; the rollback still does
        let slices: Vec<String> = evs
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .map(name)
            .collect();
        assert_eq!(slices, ["rollback"]);
    }
}
