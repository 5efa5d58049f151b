//! The persistent worker pool behind a [`MeshingSession`](super::MeshingSession).
//!
//! A session's first run pays setup that its later runs skip: spawning OS
//! threads, growing each worker's kernel scratch arenas to their
//! steady-state footprint, and allocating the proximity grid's bucket heads
//! and node segments. The pool owns all three. Threads live across runs and
//! receive one [`Job`] per run; the grid is checked out at run start and
//! parked again at run end. Each job gets a fresh `ThreadRecorder`, flight
//! log included, which the worker hands back in its [`WorkerDone`].
//!
//! Correctness of reuse:
//! - **Arenas** are capacity-only caches ([`KernelScratch`] buffers are
//!   cleared before use by the kernel) — no behavioral effect.
//! - **The grid** is [`reset`](PointGrid::reset) at checkout: every bucket
//!   head cleared, the node pool rewound to empty, the cell size re-keyed to
//!   the run's δ. The node segments stay allocated and still hold the last
//!   run's entries, which nothing can reach any more.

use super::session::CancelTelemetry;
use super::worker::{worker, worker_death_cleanup, RunState};
use crate::grid::PointGrid;
use crate::stats::ThreadStats;
use pi2m_delaunay::KernelScratch;
use pi2m_obs::flight::FlightLog;
use pi2m_obs::metrics::ThreadRecorder;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

/// One run's worth of work for one pool thread.
pub(crate) struct Job {
    state: Arc<RunState>,
    tid: usize,
    done: mpsc::Sender<WorkerDone>,
}

/// What a pool thread hands back when its worker finishes a run.
pub(crate) struct WorkerDone {
    pub tid: usize,
    pub stats: ThreadStats,
    pub rec: ThreadRecorder,
    pub died: bool,
}

struct PoolThread {
    job_tx: Option<mpsc::Sender<Job>>,
    handle: Option<JoinHandle<()>>,
}

/// Persistent worker threads plus the warm resources they use across runs.
pub(crate) struct WorkerPool {
    threads: Vec<PoolThread>,
    grid: Option<Arc<PointGrid>>,
    /// Telemetry salvaged from the last cancelled run (the typed
    /// `RefineError::Cancelled` cannot carry it — the error derives `Eq`).
    cancel_telemetry: Option<CancelTelemetry>,
}

impl WorkerPool {
    pub(crate) fn new(threads: usize) -> Self {
        let mut pool = WorkerPool {
            threads: Vec::new(),
            grid: None,
            cancel_telemetry: None,
        };
        pool.ensure_threads(threads.max(1));
        pool
    }

    pub(crate) fn threads(&self) -> usize {
        self.threads.len()
    }

    /// Grow the pool to at least `n` threads (runs may ask for more threads
    /// than the session was created with; the pool never shrinks).
    pub(crate) fn ensure_threads(&mut self, n: usize) {
        while self.threads.len() < n {
            let (tx, rx) = mpsc::channel::<Job>();
            let handle = std::thread::Builder::new()
                .name(format!("pi2m-worker-{}", self.threads.len()))
                .spawn(move || pool_thread_main(rx))
                .expect("failed to spawn pool worker thread");
            self.threads.push(PoolThread {
                job_tx: Some(tx),
                handle: Some(handle),
            });
        }
    }

    /// Hand one job per participating thread to the pool; results arrive on
    /// the returned channel, one [`WorkerDone`] per thread, in completion
    /// order.
    pub(crate) fn dispatch(&self, state: &Arc<RunState>) -> mpsc::Receiver<WorkerDone> {
        let n = state.cfg.threads;
        assert!(n <= self.threads.len(), "pool not grown to run width");
        let (done_tx, done_rx) = mpsc::channel();
        for (tid, t) in self.threads.iter().enumerate().take(n) {
            t.job_tx
                .as_ref()
                .expect("pool thread already shut down")
                .send(Job {
                    state: Arc::clone(state),
                    tid,
                    done: done_tx.clone(),
                })
                .expect("pool worker thread vanished");
        }
        done_rx
    }

    /// Check out the proximity grid, re-keyed to this run's δ and emptied
    /// (node segments kept). Falls back to a fresh grid if the parked one is
    /// still referenced (it never should be).
    pub(crate) fn checkout_grid(&mut self, delta: f64) -> Arc<PointGrid> {
        match self.grid.take().map(Arc::try_unwrap) {
            Some(Ok(mut g)) => {
                g.reset(delta);
                Arc::new(g)
            }
            _ => Arc::new(PointGrid::new(delta)),
        }
    }

    /// Park the grid for the next run. Call after the run's other holders
    /// (the rules) have dropped their clones.
    pub(crate) fn park_grid(&mut self, grid: Arc<PointGrid>) {
        self.grid = Some(grid);
    }

    /// Stash the telemetry of a cancelled run for the caller to collect.
    pub(crate) fn stash_cancel_telemetry(&mut self, t: CancelTelemetry) {
        self.cancel_telemetry = Some(t);
    }

    /// Take (and clear) the last cancelled run's telemetry.
    pub(crate) fn take_cancel_telemetry(&mut self) -> Option<CancelTelemetry> {
        self.cancel_telemetry.take()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Close every job channel first so all threads exit their recv loop,
        // then join them.
        for t in &mut self.threads {
            t.job_tx.take();
        }
        for t in &mut self.threads {
            if let Some(h) = t.handle.take() {
                let _ = h.join();
            }
        }
    }
}

/// A pool thread's main loop: one persistent kernel arena, one job per run.
fn pool_thread_main(rx: mpsc::Receiver<Job>) {
    let mut arena = KernelScratch::default();
    while let Ok(job) = rx.recv() {
        let Job { state, tid, done } = job;
        let mut stats = ThreadStats::default();
        let mut rec = ThreadRecorder::new();
        rec.flight = FlightLog::new(state.cfg.flight_capacity);
        let died;
        {
            // Same isolation contract as the scoped-thread engine had: a
            // panic escaping the worker's per-operation boundary retires the
            // worker *for this run*; the pool thread itself survives and can
            // serve the next run. (The warm arena is lost with the panicked
            // context — `mem::take` left a fresh default in its place.)
            died = catch_unwind(AssertUnwindSafe(|| {
                worker(&state, tid, &mut stats, &mut rec, &mut arena)
            }))
            .is_err();
            if died {
                // Cleanup must not take the pool thread down with it — a
                // dead thread would leave the session hanging on the done
                // channel. (It has never panicked in the scoped engine
                // either; this is the pool's containment boundary.)
                let _ = catch_unwind(AssertUnwindSafe(|| {
                    worker_death_cleanup(&state, tid, &mut rec)
                }));
            }
        }
        // Drop our Arc BEFORE signalling completion: once the pipeline has
        // every `WorkerDone`, it holds the run state's last reference.
        drop(state);
        let _ = done.send(WorkerDone {
            tid,
            stats,
            rec,
            died,
        });
    }
}
