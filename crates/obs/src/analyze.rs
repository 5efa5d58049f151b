//! Offline analysis of a drained flight-recorder timeline: rollback
//! attribution (hot vertices / hot grid regions), per-worker
//! utilization/park/steal timelines, windowed rollback-ratio and
//! lock-wait-fraction series, a speedup self-report, and the per-worker
//! wall-time attribution ([`crate::attribution`]). The result is appended
//! to the JSON run report as its `contention` section (schema v3).

use crate::attribution::{attribute, TimeAttribution};
use crate::flight::{EventKind, FlightEvent};
use crate::json::Json;
use std::collections::HashMap;

/// Analyzer knobs. `window_s` controls the time-series resolution.
#[derive(Clone, Copy, Debug)]
pub struct AnalyzeOpts {
    pub threads: usize,
    /// Wall time of the refinement section, seconds.
    pub wall_s: f64,
    /// Time-series window width, seconds.
    pub window_s: f64,
    /// How many hot vertices / regions to keep.
    pub top_k: usize,
    /// Events lost to ring overwrites (from the drain).
    pub dropped: u64,
}

impl Default for AnalyzeOpts {
    fn default() -> Self {
        AnalyzeOpts {
            threads: 1,
            wall_s: 0.0,
            window_s: 0.25,
            top_k: 10,
            dropped: 0,
        }
    }
}

/// One worker's summary over the whole run.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerTimeline {
    pub tid: u16,
    pub commits: u64,
    pub rollbacks: u64,
    /// Seconds spent inside committed or rolled-back operations.
    pub busy_s: f64,
    /// Seconds parked by the contention manager.
    pub cm_park_s: f64,
    /// Seconds parked in a begging list.
    pub beg_park_s: f64,
    pub steals: u64,
    pub donations: u64,
    pub died: bool,
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
        let ops = self.commits + self.rollbacks;
        if ops == 0 {
            0.0
        } else {
            self.rollbacks as f64 / ops as f64
        }
    }
}

/// The full contention report derived from one flight-recorder drain.
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
    pub per_worker: Vec<WorkerTimeline>,
    pub windows: Vec<WindowStats>,
    pub window_s: f64,
    pub threads: usize,
    pub wall_s: f64,
    /// Per-worker wall-time decomposition (committed / rolled-back / parked
    /// / steal-donate / idle), normalized against `wall_s`.
    pub attribution: TimeAttribution,
}

impl ContentionReport {
    pub fn rollback_ratio(&self) -> f64 {
        let ops = self.commits + self.rollbacks;
        if ops == 0 {
            0.0
        } else {
            self.rollbacks as f64 / ops as f64
        }
    }

    /// Total busy seconds summed over workers.
    pub fn busy_s(&self) -> f64 {
        self.per_worker.iter().map(|w| w.busy_s).sum()
    }

    /// The speedup self-report: busy time over wall time — how many
    /// processors' worth of useful kernel work the run sustained.
    pub fn effective_parallelism(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.busy_s() / self.wall_s
        } else {
            0.0
        }
    }

    /// Effective parallelism normalized by the worker count (0..1-ish;
    /// op-duration timestamping costs keep it approximate).
    pub fn utilization(&self) -> f64 {
        if self.threads > 0 {
            self.effective_parallelism() / self.threads as f64
        } else {
            0.0
        }
    }

    /// Fraction of total worker-seconds spent CM-parked.
    pub fn lock_wait_fraction(&self) -> f64 {
        let denom = self.wall_s * self.threads as f64;
        if denom > 0.0 {
            self.per_worker.iter().map(|w| w.cm_park_s).sum::<f64>() / denom
        } else {
            0.0
        }
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
        let workers = Json::Arr(
            self.per_worker
                .iter()
                .map(|w| {
                    Json::obj(vec![
                        ("tid", Json::int(w.tid as u64)),
                        ("commits", Json::int(w.commits)),
                        ("rollbacks", Json::int(w.rollbacks)),
                        ("busy_s", Json::num(w.busy_s)),
                        ("cm_park_s", Json::num(w.cm_park_s)),
                        ("beg_park_s", Json::num(w.beg_park_s)),
                        ("steals", Json::int(w.steals)),
                        ("donations", Json::int(w.donations)),
                        ("died", Json::Bool(w.died)),
                    ])
                })
                .collect(),
        );
        let windows = Json::Arr(
            self.windows
                .iter()
                .map(|w| {
                    let denom = self.window_s * self.threads as f64;
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
            ("workers", workers),
            ("window_s", Json::num(self.window_s)),
            ("windows", windows),
            ("time_attribution", self.attribution.to_json()),
            (
                "speedup_self_report",
                Json::obj(vec![
                    ("busy_s", Json::num(self.busy_s())),
                    ("wall_s", Json::num(self.wall_s)),
                    (
                        "effective_parallelism",
                        Json::num(self.effective_parallelism()),
                    ),
                    ("utilization", Json::num(self.utilization())),
                    ("lock_wait_fraction", Json::num(self.lock_wait_fraction())),
                ]),
            ),
        ])
    }
}

fn top_k<K: Copy + Ord>(counts: HashMap<K, u64>, k: usize) -> Vec<(K, u64)> {
    let mut v: Vec<(K, u64)> = counts.into_iter().collect();
    // most conflicts first; tie-break on the id for determinism
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    v.truncate(k);
    v
}

/// Build a [`ContentionReport`] from a time-sorted drained event log.
pub fn analyze(events: &[FlightEvent], opts: AnalyzeOpts) -> ContentionReport {
    let threads = opts.threads.max(1);
    let mut per_worker: Vec<WorkerTimeline> = (0..threads)
        .map(|t| WorkerTimeline {
            tid: t as u16,
            ..Default::default()
        })
        .collect();
    let mut vertex_conflicts: HashMap<u32, u64> = HashMap::new();
    let mut region_conflicts: HashMap<u16, u64> = HashMap::new();
    let mut commits = 0u64;
    let mut rollbacks = 0u64;
    let mut lock_conflicts = 0u64;

    let end_s = opts.wall_s.max(events.last().map_or(0.0, FlightEvent::t_s));
    let window_s = opts.window_s.max(1e-3);
    let n_windows = ((end_s / window_s).ceil() as usize).clamp(1, 100_000);
    let mut windows: Vec<WindowStats> = (0..n_windows)
        .map(|i| WindowStats {
            t0_s: i as f64 * window_s,
            ..Default::default()
        })
        .collect();
    let win_of = |t_s: f64| -> usize { ((t_s / window_s) as usize).min(n_windows - 1) };

    for e in events {
        let w = match per_worker.get_mut(e.tid as usize) {
            Some(w) => w,
            None => continue, // foreign tid (corrupt or out-of-range): skip
        };
        match e.kind {
            EventKind::OpCommit => {
                commits += 1;
                w.commits += 1;
                w.busy_s += e.c as f64 * 1e-9;
                windows[win_of(e.t_s())].commits += 1;
            }
            EventKind::Rollback => {
                rollbacks += 1;
                w.rollbacks += 1;
                w.busy_s += e.c as f64 * 1e-9;
                *vertex_conflicts.entry(e.a).or_insert(0) += 1;
                *region_conflicts.entry(e.rollback_region()).or_insert(0) += 1;
                windows[win_of(e.t_s())].rollbacks += 1;
            }
            EventKind::LockConflict => {
                lock_conflicts += 1;
                *vertex_conflicts.entry(e.a).or_insert(0) += 1;
            }
            EventKind::CmUnpark => {
                let dur_s = e.c as f64 * 1e-9;
                w.cm_park_s += dur_s;
                windows[win_of(e.t_s())].lock_wait_s += dur_s;
            }
            EventKind::BegUnpark => {
                w.beg_park_s += e.c as f64 * 1e-9;
            }
            EventKind::Steal => w.steals += 1,
            EventKind::Donate => w.donations += 1,
            EventKind::WorkerDeath => w.died = true,
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
        hot_vertices: top_k(vertex_conflicts, opts.top_k),
        hot_regions: top_k(region_conflicts, opts.top_k),
        per_worker,
        windows,
        window_s,
        threads,
        wall_s: opts.wall_s,
        attribution: attribute(events, threads, opts.wall_s).with_dropped(opts.dropped),
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
                top_k: 2,
                ..Default::default()
            },
        );
        assert_eq!(r.commits, 1);
        assert_eq!(r.rollbacks, 3);
        assert_eq!(r.lock_conflicts, 1);
        assert_eq!(r.hot_vertices[0], (77, 3));
        assert_eq!(r.hot_vertices[1], (42, 1));
        assert_eq!(r.hot_regions[0], (9, 2));
        assert_eq!(r.rollback_ratio(), 0.75);
        // busy time: 4 ops × 1ms
        assert!((r.busy_s() - 0.004).abs() < 1e-9);
        assert!((r.effective_parallelism() - 0.04).abs() < 1e-9);
    }

    #[test]
    fn per_worker_timelines_split_by_tid() {
        let ms = 1_000_000u32;
        let events = vec![
            e(1, 0, EventKind::OpCommit, 1, 0, ms),
            e(2, 0, EventKind::CmUnpark, 0, 0, 2 * ms),
            e(3, 1, EventKind::BegUnpark, 0, 0, 5 * ms),
            e(4, 1, EventKind::Steal, 0, 0, 0),
            e(5, 0, EventKind::Donate, 1, 8, 0),
            e(6, 1, EventKind::WorkerDeath, 0, 0, 0),
        ];
        let r = analyze(
            &events,
            AnalyzeOpts {
                threads: 2,
                wall_s: 0.01,
                ..Default::default()
            },
        );
        let w0 = &r.per_worker[0];
        let w1 = &r.per_worker[1];
        assert_eq!(w0.commits, 1);
        assert!((w0.cm_park_s - 0.002).abs() < 1e-12);
        assert_eq!(w0.donations, 1);
        assert_eq!(w1.steals, 1);
        assert!((w1.beg_park_s - 0.005).abs() < 1e-12);
        assert!(w1.died);
        assert!(!w0.died);
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
                window_s: 0.25,
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
            "workers",
            "window_s",
            "windows",
            "time_attribution",
            "speedup_self_report",
        ] {
            assert!(j.get(key).is_some(), "missing {key}");
        }
        // the embedded attribution mirrors the event log: one rollback of
        // 1000ns on worker 0, everything else idle
        let at = j.get("time_attribution").unwrap();
        let w0 = &at.get("workers").unwrap().as_arr().unwrap()[0];
        let rb = w0.get("rolled_back_s").unwrap().as_f64().unwrap();
        assert!((rb - 1e-6).abs() < 1e-12, "rolled_back_s {rb}");
        let hv = j.get("hot_vertices").unwrap().as_arr().unwrap();
        assert_eq!(hv[0].get("vertex").unwrap().as_f64(), Some(9.0));
        assert_eq!(hv[0].get("conflicts").unwrap().as_f64(), Some(1.0));
        let sp = j.get("speedup_self_report").unwrap();
        assert!(sp.get("effective_parallelism").is_some());
    }

    #[test]
    fn empty_log_is_a_valid_report() {
        let r = analyze(&[], AnalyzeOpts::default());
        assert_eq!(r.commits, 0);
        assert_eq!(r.rollback_ratio(), 0.0);
        assert_eq!(r.utilization(), 0.0);
        assert!(r.hot_vertices.is_empty());
        assert!(crate::json::parse(&r.to_json().dump()).is_ok());
    }
}
