//! Offline analysis of a drained flight-recorder timeline: what only the
//! rings know — who conflicted with whom (hot vertices, hot grid regions,
//! lock conflicts) and when (a windowed rollback-ratio and lock-wait
//! series). The result is the run report's `contention` section; where a
//! worker's time went is the report's `time_attribution`, from the
//! workers' own sums.

use crate::flight::{EventKind, FlightEvent};
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
    /// Events lost to ring overwrites (from the drain).
    pub dropped: u64,
}

/// One time-series window.
#[derive(Clone, Copy, Debug, Default)]
pub struct WindowStats {
    /// Window start, seconds since the run origin.
    pub t0_s: f64,
    pub commits: u64,
    pub rollbacks: u64,
    /// CM-park seconds *ending* in this window, summed over threads.
    pub lock_wait_s: f64,
}

impl WindowStats {
    pub fn rollback_ratio(&self) -> f64 {
        ratio(self.rollbacks, self.commits + self.rollbacks)
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The contention report derived from one flight-recorder drain. Its
/// totals count the events the rings kept, not the run's.
#[derive(Clone, Debug, Default)]
pub struct ContentionReport {
    pub total_events: u64,
    pub dropped_events: u64,
    pub commits: u64,
    pub rollbacks: u64,
    pub lock_conflicts: u64,
    /// Top-K `(vertex id, conflict count)` by rollback + lock-conflict
    /// attribution, most-contended first.
    pub hot_vertices: Vec<(u32, u64)>,
    /// Top-K `(region code, conflict count)` over the engine's coarse
    /// spatial lattice, most-contended first.
    pub hot_regions: Vec<(u16, u64)>,
    pub windows: Vec<WindowStats>,
    pub threads: usize,
}

impl ContentionReport {
    pub fn rollback_ratio(&self) -> f64 {
        ratio(self.rollbacks, self.commits + self.rollbacks)
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
                        ("commits", Json::int(w.commits)),
                        ("rollbacks", Json::int(w.rollbacks)),
                        ("rollback_ratio", Json::num(w.rollback_ratio())),
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
            EventKind::OpCommit => {
                commits += 1;
                windows[win_of(e.t_s())].commits += 1;
            }
            EventKind::Rollback => {
                rollbacks += 1;
                *vertex_conflicts.entry(e.a).or_insert(0) += 1;
                *region_conflicts.entry(e.rollback_region()).or_insert(0) += 1;
                windows[win_of(e.t_s())].rollbacks += 1;
            }
            EventKind::LockConflict => {
                lock_conflicts += 1;
                *vertex_conflicts.entry(e.a).or_insert(0) += 1;
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
        if last.commits == 0 && last.rollbacks == 0 && last.lock_wait_s == 0.0 {
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
    use crate::flight::pack_owner_region;

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

    #[test]
    fn attribution_ranks_hot_vertices_and_regions() {
        let ms = 1_000_000u32;
        let events = vec![
            e(10, 0, EventKind::OpCommit, 5, 3, ms),
            e(20, 1, EventKind::Rollback, 77, pack_owner_region(0, 9), ms),
            e(30, 1, EventKind::Rollback, 77, pack_owner_region(0, 9), ms),
            e(40, 0, EventKind::Rollback, 42, pack_owner_region(1, 4), ms),
            e(50, 1, EventKind::LockConflict, 77, 0, 1),
        ];
        let r = analyze(
            &events,
            AnalyzeOpts {
                threads: 2,
                wall_s: 0.1,
                ..Default::default()
            },
        );
        assert_eq!(r.commits, 1);
        assert_eq!(r.rollbacks, 3);
        assert_eq!(r.lock_conflicts, 1);
        assert_eq!(r.hot_vertices[0], (77, 3));
        assert_eq!(r.hot_vertices[1], (42, 1));
        assert_eq!(r.hot_regions[0], (9, 2));
        assert_eq!(r.hot_vertices.len(), 2);
        assert_eq!(r.rollback_ratio(), 0.75);
    }

    #[test]
    fn foreign_tids_and_time_keeping_events_are_not_folded() {
        let ms = 1_000_000u32;
        let events = vec![
            e(1, 0, EventKind::OpCommit, 1, 0, ms),
            e(2, 0, EventKind::CmUnpark, 0, 0, 2 * ms),
            e(3, 1, EventKind::BegUnpark, 0, 0, 5 * ms),
            e(4, 1, EventKind::Steal, 0, 0, 0),
            e(5, 7, EventKind::Rollback, 3, 0, ms),
        ];
        let r = analyze(
            &events,
            AnalyzeOpts {
                threads: 2,
                wall_s: 0.01,
                ..Default::default()
            },
        );
        assert_eq!(r.total_events, 5);
        assert_eq!((r.commits, r.rollbacks), (1, 0));
        assert!(r.hot_vertices.is_empty());
        assert!((r.windows[0].lock_wait_s - 0.002).abs() < 1e-12);
    }

    #[test]
    fn windows_bucket_by_time() {
        let ms = 1_000_000u32;
        let mut events = Vec::new();
        // 4 commits in [0, 0.25), 1 commit + 3 rollbacks in [0.25, 0.5)
        for i in 0..4 {
            events.push(e(10 + i, 0, EventKind::OpCommit, 0, 0, ms));
        }
        events.push(e(300, 0, EventKind::OpCommit, 0, 0, ms));
        for i in 0..3 {
            events.push(e(310 + i, 0, EventKind::Rollback, 1, 0, ms));
        }
        let r = analyze(
            &events,
            AnalyzeOpts {
                threads: 1,
                wall_s: 0.5,
                ..Default::default()
            },
        );
        assert_eq!(r.windows.len(), 2);
        assert_eq!(r.windows[0].commits, 4);
        assert_eq!(r.windows[0].rollbacks, 0);
        assert_eq!(r.windows[1].commits, 1);
        assert_eq!(r.windows[1].rollbacks, 3);
        assert_eq!(r.windows[1].rollback_ratio(), 0.75);
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
        let r = analyze(
            &events,
            AnalyzeOpts {
                threads: 2,
                wall_s: 0.001,
                ..Default::default()
            },
        );
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
