//! Offline analysis of a drained flight-recorder timeline: what only the
//! logs know — who conflicted with whom (hot vertices, hot grid regions,
//! lock conflicts) and when (a windowed rollback and lock-wait series).
//! The logs hold no committed operations; the commit count comes from the
//! workers' sums the drain appends. The result is the run report's
//! `contention` section; where a worker's time went is the report's
//! `time_attribution`, from the same sums.

use crate::flight::{EventKind, FlightEvent, SumBucket};
use crate::json::Json;
use std::collections::HashMap;

/// Time-series window width, seconds.
pub const WINDOW_S: f64 = 0.25;

/// How many hot vertices / regions the report keeps.
pub const TOP_K: usize = 10;

/// What the analyzer needs to know about the run beyond its events.
#[derive(Clone, Copy, Debug, Default)]
pub struct AnalyzeOpts {
    pub threads: usize,
    /// Wall time of the refinement section, seconds.
    pub wall_s: f64,
    /// Events the workers' bounded logs dropped (from the drain).
    pub dropped: u64,
}

/// One time-series window.
#[derive(Clone, Copy, Debug, Default)]
pub struct WindowStats {
    /// Window start, seconds since the run origin.
    pub t0_s: f64,
    pub rollbacks: u64,
    /// CM-park seconds *ending* in this window, summed over threads.
    pub lock_wait_s: f64,
}

/// The contention report derived from one flight-recorder drain. Its
/// conflict totals count the events the logs kept, not the run's;
/// `commits` is the run's, from the workers' sums.
#[derive(Clone, Debug, Default)]
pub struct ContentionReport {
    pub total_events: u64,
    pub dropped_events: u64,
    pub commits: u64,
    pub rollbacks: u64,
    /// Rollbacks on a vertex another worker held (not injected denials).
    pub lock_conflicts: u64,
    /// Top-K `(vertex id, rollback count)`, most-contended first.
    pub hot_vertices: Vec<(u32, u64)>,
    /// Top-K `(region code, conflict count)` over the engine's coarse
    /// spatial lattice, most-contended first.
    pub hot_regions: Vec<(u16, u64)>,
    pub windows: Vec<WindowStats>,
    pub threads: usize,
}

impl ContentionReport {
    pub fn rollback_ratio(&self) -> f64 {
        let attempts = self.commits + self.rollbacks;
        self.rollbacks as f64 / attempts.max(1) as f64
    }

    pub fn to_json(&self) -> Json {
        let top = |pairs: &[(u32, u64)], key: &str| {
            Json::Arr(
                pairs
                    .iter()
                    .map(|&(id, n)| {
                        Json::obj(vec![
                            (key, Json::int(id as u64)),
                            ("conflicts", Json::int(n)),
                        ])
                    })
                    .collect(),
            )
        };
        let windows = Json::Arr(
            self.windows
                .iter()
                .map(|w| {
                    let denom = WINDOW_S * self.threads as f64;
                    Json::obj(vec![
                        ("t0_s", Json::num(w.t0_s)),
                        ("rollbacks", Json::int(w.rollbacks)),
                        ("lock_wait_s", Json::num(w.lock_wait_s)),
                        (
                            "lock_wait_fraction",
                            Json::num(if denom > 0.0 {
                                w.lock_wait_s / denom
                            } else {
                                0.0
                            }),
                        ),
                    ])
                })
                .collect(),
        );
        let regions: Vec<(u32, u64)> = self
            .hot_regions
            .iter()
            .map(|&(r, n)| (r as u32, n))
            .collect();
        Json::obj(vec![
            ("total_events", Json::int(self.total_events)),
            ("dropped_events", Json::int(self.dropped_events)),
            ("commits", Json::int(self.commits)),
            ("rollbacks", Json::int(self.rollbacks)),
            ("lock_conflicts", Json::int(self.lock_conflicts)),
            ("rollback_ratio", Json::num(self.rollback_ratio())),
            ("hot_vertices", top(&self.hot_vertices, "vertex")),
            ("hot_regions", top(&regions, "region")),
            ("window_s", Json::num(WINDOW_S)),
            ("windows", windows),
        ])
    }
}

fn top_k<K: Copy + Ord>(counts: HashMap<K, u64>) -> Vec<(K, u64)> {
    let mut v: Vec<(K, u64)> = counts.into_iter().collect();
    // most conflicts first; tie-break on the id for determinism
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    v.truncate(TOP_K);
    v
}

/// Build a [`ContentionReport`] from a time-sorted drained event log.
pub fn analyze(events: &[FlightEvent], opts: AnalyzeOpts) -> ContentionReport {
    let threads = opts.threads.max(1);
    let mut vertex_conflicts: HashMap<u32, u64> = HashMap::new();
    let mut region_conflicts: HashMap<u16, u64> = HashMap::new();
    let mut commits = 0u64;
    let mut rollbacks = 0u64;
    let mut lock_conflicts = 0u64;

    let end_s = opts.wall_s.max(events.last().map_or(0.0, FlightEvent::t_s));
    let n_windows = ((end_s / WINDOW_S).ceil() as usize).clamp(1, 100_000);
    let mut windows: Vec<WindowStats> = (0..n_windows)
        .map(|i| WindowStats {
            t0_s: i as f64 * WINDOW_S,
            ..Default::default()
        })
        .collect();
    let win_of = |t_s: f64| -> usize { ((t_s / WINDOW_S) as usize).min(n_windows - 1) };

    // a foreign tid (corrupt or out-of-range) is skipped
    for e in events.iter().filter(|e| (e.tid as usize) < threads) {
        match e.kind {
            EventKind::WorkerSums => {
                if let Some((SumBucket::CommittedInsert | SumBucket::CommittedRemove, _)) = e.sum()
                {
                    commits += e.c as u64;
                }
            }
            EventKind::Rollback => {
                rollbacks += 1;
                lock_conflicts += e.is_lock_conflict() as u64;
                *vertex_conflicts.entry(e.a).or_insert(0) += 1;
                *region_conflicts.entry(e.rollback_region()).or_insert(0) += 1;
                windows[win_of(e.t_s())].rollbacks += 1;
            }
            EventKind::CmUnpark => {
                windows[win_of(e.t_s())].lock_wait_s += e.c as f64 * 1e-9;
            }
            _ => {}
        }
    }

    // Drop empty trailing windows (short runs produce mostly-empty tails).
    while windows.len() > 1 {
        let last = windows.last().unwrap();
        if last.rollbacks == 0 && last.lock_wait_s == 0.0 {
            windows.pop();
        } else {
            break;
        }
    }

    ContentionReport {
        total_events: events.len() as u64,
        dropped_events: opts.dropped,
        commits,
        rollbacks,
        lock_conflicts,
        hot_vertices: top_k(vertex_conflicts),
        hot_regions: top_k(region_conflicts),
        windows,
        threads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::{cause, pack_owner_region};

    fn e(t_ms: u64, tid: u16, kind: EventKind, a: u32, b: u32, c: u32) -> FlightEvent {
        FlightEvent {
            t_ns: t_ms * 1_000_000,
            kind,
            cause: 0,
            tid,
            a,
            b,
            c,
        }
    }

    fn opts(threads: usize, wall_s: f64) -> AnalyzeOpts {
        AnalyzeOpts {
            threads,
            wall_s,
            ..Default::default()
        }
    }

    #[test]
    fn attribution_ranks_hot_vertices_and_regions() {
        let ms = 1_000_000u32;
        let events = vec![
            e(20, 1, EventKind::Rollback, 77, pack_owner_region(0, 9), ms),
            e(30, 1, EventKind::Rollback, 77, pack_owner_region(0, 9), ms),
            e(40, 0, EventKind::Rollback, 42, pack_owner_region(1, 4), ms),
            FlightEvent::worker_sum(100, 0, SumBucket::CommittedInsert, 5_000, 1),
        ];
        let r = analyze(&events, opts(2, 0.1));
        assert_eq!(r.commits, 1);
        assert_eq!(r.rollbacks, 3);
        assert_eq!(r.lock_conflicts, 3);
        assert_eq!(r.hot_vertices[0], (77, 2));
        assert_eq!(r.hot_vertices[1], (42, 1));
        assert_eq!(r.hot_regions[0], (9, 2));
        assert_eq!(r.hot_vertices.len(), 2);
        assert_eq!(r.rollback_ratio(), 0.75);
    }

    /// A conflict is one fact: its rollback counts once among the hot
    /// vertices and once as a lock conflict. An injected denial is a
    /// rollback but no lock conflict, whether the kernel injected it (it
    /// names the rolling-back worker as the owner) or the engine did
    /// (cause `INJECTED`).
    #[test]
    fn each_conflict_counts_once() {
        let rollback = |t_ms, cause, owner, vertex| {
            let b = pack_owner_region(owner, 3);
            FlightEvent {
                cause,
                ..e(t_ms, 1, EventKind::Rollback, vertex, b, 0)
            }
        };
        let r = analyze(&[rollback(1, cause::INSERT_CONFLICT, 0, 5)], opts(2, 0.1));
        assert_eq!((r.rollbacks, r.lock_conflicts), (1, 1));
        assert_eq!(r.hot_vertices, [(5, 1)]);

        let events = [
            rollback(1, cause::REMOVE_CONFLICT, 0, 5),
            rollback(2, cause::INSERT_CONFLICT, 1, 6),
            rollback(3, cause::INJECTED, 1, 7),
        ];
        let r = analyze(&events, opts(2, 0.1));
        assert_eq!((r.rollbacks, r.lock_conflicts), (3, 1));
        assert_eq!(r.hot_vertices, [(5, 1), (6, 1), (7, 1)]);
    }

    /// Commits are the committed buckets' counts, insertions and removals;
    /// the other sums count something else and add none.
    #[test]
    fn commits_come_from_the_worker_sums() {
        let events: Vec<FlightEvent> = SumBucket::ALL
            .iter()
            .enumerate()
            .flat_map(|(i, &b)| {
                (0..2u16).map(move |tid| FlightEvent::worker_sum(100, tid, b, 1_000, 10 + i as u32))
            })
            .collect();
        let r = analyze(&events, opts(2, 0.01));
        assert_eq!(r.commits, 2 * (10 + 11));
        assert_eq!((r.rollbacks, r.lock_conflicts), (0, 0));
        assert_eq!(r.total_events, 12);
    }

    #[test]
    fn foreign_tids_and_time_keeping_events_are_not_folded() {
        let ms = 1_000_000u32;
        let events = vec![
            e(2, 0, EventKind::CmUnpark, 0, 0, 2 * ms),
            e(3, 1, EventKind::BegUnpark, 0, 0, 5 * ms),
            e(5, 7, EventKind::Rollback, 3, 0, ms),
            FlightEvent::worker_sum(6, 7, SumBucket::CommittedInsert, 1, 4),
        ];
        let r = analyze(&events, opts(2, 0.01));
        assert_eq!(r.total_events, 4);
        assert_eq!((r.commits, r.rollbacks), (0, 0));
        assert!(r.hot_vertices.is_empty());
        assert!((r.windows[0].lock_wait_s - 0.002).abs() < 1e-12);
    }

    #[test]
    fn windows_bucket_by_time() {
        let ms = 1_000_000u32;
        let mut events = Vec::new();
        // 1 rollback and 4 ms of lock wait in [0, 0.25), 3 rollbacks in
        // [0.25, 0.5)
        events.push(e(10, 0, EventKind::Rollback, 1, 0, ms));
        events.push(e(20, 0, EventKind::CmUnpark, 0, 0, 4 * ms));
        for i in 0..3 {
            events.push(e(310 + i, 0, EventKind::Rollback, 1, 0, ms));
        }
        let r = analyze(&events, opts(1, 0.5));
        assert_eq!(r.windows.len(), 2);
        assert_eq!(r.windows[0].rollbacks, 1);
        assert!((r.windows[0].lock_wait_s - 0.004).abs() < 1e-12);
        assert_eq!(r.windows[1].rollbacks, 3);
        assert_eq!(r.windows[1].lock_wait_s, 0.0);
    }

    #[test]
    fn json_has_all_sections() {
        let events = vec![e(
            1,
            0,
            EventKind::Rollback,
            9,
            pack_owner_region(1, 2),
            1000,
        )];
        let r = analyze(&events, opts(2, 0.001));
        let j = crate::json::parse(&r.to_json().dump()).unwrap();
        for key in [
            "total_events",
            "dropped_events",
            "commits",
            "rollbacks",
            "lock_conflicts",
            "rollback_ratio",
            "hot_vertices",
            "hot_regions",
            "window_s",
            "windows",
        ] {
            assert!(j.get(key).is_some(), "missing {key}");
        }
        let hv = j.get("hot_vertices").unwrap().as_arr().unwrap();
        assert_eq!(hv[0].get("vertex").unwrap().as_f64(), Some(9.0));
        assert_eq!(hv[0].get("conflicts").unwrap().as_f64(), Some(1.0));
        let Json::Obj(window) = &j.get("windows").unwrap().as_arr().unwrap()[0] else {
            panic!("a window is not an object");
        };
        let keys: Vec<&str> = window.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["t0_s", "rollbacks", "lock_wait_s", "lock_wait_fraction"]
        );
    }

    #[test]
    fn empty_log_is_a_valid_report() {
        let r = analyze(&[], AnalyzeOpts::default());
        assert_eq!(r.commits, 0);
        assert_eq!(r.rollback_ratio(), 0.0);
        assert!(r.hot_vertices.is_empty());
        assert!(crate::json::parse(&r.to_json().dump()).is_ok());
    }
}
