//! Static metric catalog, thread-local recorders, and merged snapshots.
//!
//! The catalog ([`COUNTERS`], [`HISTOGRAMS`]) is a `const`
//! registry: every metric the pipeline can emit is declared here with a
//! stable name, unit, and help string, and addressed by a typed index
//! ([`CounterId`] / [`HistId`]). Recorders are sized by the catalog at
//! compile time, so registration has zero runtime cost and recording indexes
//! a plain array.
//!
//! ## Hot-path cost model
//!
//! [`ThreadRecorder`] is the only write path and every mutation takes
//! `&mut self` over plain `u64`/`f64` fields — **no atomic RMW, no locks,
//! no shared cache lines**. Exclusive ownership is enforced by the borrow
//! checker, exactly like `pi2m-refine`'s `ThreadStats`: each worker owns its
//! recorder and the results are merged after the thread joins. The type is
//! deliberately *not* shareable for writing:
//!
//! ```compile_fail
//! use pi2m_obs::metrics::{self, ThreadRecorder};
//! let rec = ThreadRecorder::new();
//! let r = &rec;
//! r.inc(metrics::OPS_INSERTIONS, 1); // ERROR: `inc` needs `&mut`
//! ```

/// What a metric measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone event count.
    Counter,
    /// Log₂-bucketed distribution of samples.
    Histogram,
}

/// A catalog entry: stable name (exported verbatim), unit, and description.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub kind: MetricKind,
    pub unit: &'static str,
    pub help: &'static str,
}

/// Index of a counter in [`COUNTERS`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(pub u16);

/// Index of a histogram in [`HISTOGRAMS`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistId(pub u16);

macro_rules! counters {
    ($($id:ident = ($name:literal, $unit:literal, $help:literal)),* $(,)?) => {
        counters!(@consts 0u16; $($id)*);
        /// Every counter the pipeline can record, in id order.
        pub const COUNTERS: &[MetricDef] = &[
            $(MetricDef { name: $name, kind: MetricKind::Counter, unit: $unit, help: $help }),*
        ];
    };
    (@consts $n:expr;) => {};
    (@consts $n:expr; $id:ident $($rest:ident)*) => {
        pub const $id: CounterId = CounterId($n);
        counters!(@consts $n + 1; $($rest)*);
    };
}

macro_rules! histograms {
    ($($id:ident = ($name:literal, $unit:literal, $help:literal)),* $(,)?) => {
        histograms!(@consts 0u16; $($id)*);
        /// Every histogram the pipeline can record, in id order.
        pub const HISTOGRAMS: &[MetricDef] = &[
            $(MetricDef { name: $name, kind: MetricKind::Histogram, unit: $unit, help: $help }),*
        ];
    };
    (@consts $n:expr;) => {};
    (@consts $n:expr; $id:ident $($rest:ident)*) => {
        pub const $id: HistId = HistId($n);
        histograms!(@consts $n + 1; $($rest)*);
    };
}

counters! {
    // refinement engine (bridged from ThreadStats at thread join)
    OPS_TOTAL            = ("ops_total", "ops", "Completed speculative operations (insertions + removals)"),
    OPS_INSERTIONS       = ("ops_insertions", "ops", "Committed point insertions"),
    OPS_REMOVALS         = ("ops_removals", "ops", "Committed vertex removals (rule R6)"),
    OPS_ROLLBACKS        = ("ops_rollbacks", "ops", "Operations rolled back after a lock conflict"),
    OPS_SKIPPED          = ("ops_skipped", "ops", "Remedies dropped as duplicate/outside-domain/degenerate"),
    REMOVALS_BLOCKED     = ("removals_blocked", "ops", "Rule-R6 removals refused by the kernel"),
    CELLS_CREATED        = ("cells_created", "cells", "Tetrahedra created by committed operations"),
    CELLS_KILLED         = ("cells_killed", "cells", "Tetrahedra destroyed by committed operations"),
    DONATIONS_MADE       = ("donations_made", "events", "Work donations to begging threads"),
    DONATIONS_RECEIVED   = ("donations_received", "events", "Work batches received while begging"),
    INTER_BLADE_DONATIONS = ("inter_blade_donations", "events", "Donations crossing a blade boundary (HWS)"),
    CLASSIFY_CALLS       = ("classify_calls", "ops", "PEL pops, live and stale; only the live ones reach rule classification"),
    // Delaunay kernel
    WALK_LOCATES         = ("walk_locates", "ops", "Point-location walks started (BRIO remembering walk)"),
    WALK_STEPS           = ("walk_steps", "cells", "Total cells visited by point-location walks"),
    // staged geometric predicates (stage hit = cheapest stage that certified
    // the sign; see DESIGN.md "Three-stage predicate pipeline")
    PRED_ORIENT_SEMI_STATIC   = ("pred_orient_semi_static", "ops", "orient3d signs certified by the per-mesh semi-static filter"),
    PRED_ORIENT_FILTERED      = ("pred_orient_filtered", "ops", "orient3d signs certified by the dynamic error-bound filter"),
    PRED_ORIENT_EXACT         = ("pred_orient_exact", "ops", "orient3d signs resolved by exact expansion arithmetic"),
    PRED_INSPHERE_SEMI_STATIC = ("pred_insphere_semi_static", "ops", "insphere signs certified by the per-mesh semi-static filter"),
    PRED_INSPHERE_FILTERED    = ("pred_insphere_filtered", "ops", "insphere signs certified by the dynamic error-bound filter"),
    PRED_INSPHERE_EXACT       = ("pred_insphere_exact", "ops", "insphere signs resolved by exact expansion arithmetic"),
    // per-worker scratch arenas
    SCRATCH_REUSES       = ("scratch_reuses", "buffers", "Kernel operations served by warm (reused) scratch buffers"),
    SCRATCH_ALLOCS       = ("scratch_allocs", "buffers", "Kernel operations that had to grow cold scratch buffers"),
    // EDT / oracle
    EDT_VOXELS           = ("edt_voxels", "voxels", "Voxels swept by the Euclidean distance transform"),
    EDT_PASSES           = ("edt_passes", "passes", "Separable EDT axis passes executed"),
    ORACLE_SURFACE_VOXELS = ("oracle_surface_voxels", "voxels", "Surface voxels feeding the isosurface oracle"),
    // fault recovery (panic isolation + quarantine; see DESIGN.md)
    WORKER_PANICS        = ("worker_panics", "events", "Panics caught by the per-operation isolation boundary"),
    WORKER_DEATHS        = ("worker_deaths", "events", "Workers lost to un-recovered panics (run continued)"),
    QUARANTINED_OPS      = ("quarantined_ops", "ops", "Poison work items dropped after a caught panic"),
    RECOVERY_ROLLBACKS   = ("recovery_rollbacks", "ops", "Lock sets force-released while recovering from a panic"),
    KERNEL_ERRORS        = ("kernel_errors", "ops", "Operations abandoned on a typed kernel-invariant error"),
    FAULTS_INJECTED      = ("faults_injected", "events", "Faults fired by the deterministic injection plan"),
    // meshing service (`pi2m serve`; incremented by the service layer)
    SERVE_JOBS_SUBMITTED = ("serve_jobs_submitted", "jobs", "Jobs admitted to the service queue"),
    SERVE_JOBS_SHED      = ("serve_jobs_shed", "jobs", "Jobs rejected at admission (queue full or draining)"),
    SERVE_JOB_RETRIES    = ("serve_job_retries", "attempts", "Job attempts re-run after a transient failure"),
    SERVE_JOBS_SUCCEEDED = ("serve_jobs_succeeded", "jobs", "Jobs completed with their artifact flushed"),
    SERVE_JOBS_FAILED    = ("serve_jobs_failed", "jobs", "Jobs that reached a terminal typed failure"),
    SERVE_JOBS_CANCELLED = ("serve_jobs_cancelled", "jobs", "Jobs cancelled by their per-job deadline"),
    SERVE_SESSIONS_RECYCLED = ("serve_sessions_recycled", "sessions", "Warm sessions replaced after worker deaths or checkout faults"),
    SERVE_DRAINS         = ("serve_drains", "events", "Graceful drains initiated (SIGTERM or POST /drain)"),
    // sharded meshing (chunked domain decomposition + seam stitching)
    SHARD_CHUNKS_MESHED  = ("shard_chunks_meshed", "chunks", "Image chunks meshed by the sharded runner"),
    SHARD_SEED_VERTICES  = ("shard_seed_vertices", "vertices", "Chunk vertices carried into the stitch triangulation"),
    SHARD_SEED_DUPLICATES = ("shard_seed_duplicates", "vertices", "Duplicate or out-of-box chunk vertices dropped at the stitch seed"),
    SHARD_STITCH_INSERTIONS = ("shard_stitch_insertions", "ops", "Refinement insertions committed by the seam-stitch pass"),
    // batched SoA kernel path (wide-lane predicate filters + SoA staging;
    // appended at the end — the catalog is positional)
    PRED_BATCH_ORIENT_BATCHES   = ("pred_batch_orient_batches", "waves", "Batched orient3d waves evaluated by the wide-lane filter"),
    PRED_BATCH_ORIENT_LANES     = ("pred_batch_orient_lanes", "ops", "orient3d lanes evaluated through the batched filter"),
    PRED_BATCH_ORIENT_FALLBACKS = ("pred_batch_orient_fallbacks", "ops", "Batched orient3d lanes that fell back to the scalar cascade"),
    PRED_BATCH_INSPHERE_BATCHES   = ("pred_batch_insphere_batches", "waves", "Batched insphere waves evaluated by the wide-lane filter"),
    PRED_BATCH_INSPHERE_LANES     = ("pred_batch_insphere_lanes", "ops", "insphere lanes evaluated through the batched filter"),
    PRED_BATCH_INSPHERE_FALLBACKS = ("pred_batch_insphere_fallbacks", "ops", "Batched insphere lanes that fell back to the scalar cascade"),
    SCRATCH_SOA_GATHERS  = ("scratch_soa_gathers", "waves", "SoA staging waves gathered from the vertex pool"),
    SCRATCH_SOA_POINTS   = ("scratch_soa_points", "points", "Points copied into SoA staging buffers across all gathers"),
    // PEL pops whose cell was already dead: counted in `classify_calls` too
    CLASSIFY_STALE       = ("classify_stale", "ops", "PEL pops discarded while draining, the element's cell having died or been recycled"),
}

histograms! {
    CAVITY_CELLS         = ("cavity_cells", "cells", "Cavity size per committed insertion (cells killed)"),
    LOCK_WAIT_SECONDS    = ("lock_wait_seconds", "seconds", "Contention-manager wait after a conflict"),
    ROLLBACK_SECONDS     = ("rollback_seconds", "seconds", "Wasted work per rolled-back operation"),
    LB_WAIT_SECONDS      = ("lb_wait_seconds", "seconds", "Begging-list wait per empty-PEL episode"),
    WALK_STEPS_PER_LOCATE = ("walk_steps_per_locate", "cells", "Cells visited per point-location walk"),
    EDT_PASS_SECONDS     = ("edt_pass_seconds", "seconds", "Wall time per separable EDT axis pass"),
    SERVE_QUEUE_WAIT_SECONDS = ("serve_queue_wait_seconds", "seconds", "Time jobs spent queued before their first attempt"),
    SHARD_CHUNK_SECONDS  = ("shard_chunk_seconds", "seconds", "Wall time per meshed chunk of a sharded run"),
}

/// Combined catalog view (counters, then histograms).
pub fn catalog() -> impl Iterator<Item = &'static MetricDef> {
    COUNTERS.iter().chain(HISTOGRAMS.iter())
}

/// Number of log₂ buckets per histogram: bucket 0 collects non-positive
/// (and NaN) samples, buckets `1..=64` hold `[2^(i-34), 2^(i-33))` — i.e.
/// ~1.2e-10 through ~2.1e9 — with both tails clamped into the edge buckets.
pub const HIST_BUCKETS: usize = 65;
const HIST_EXP_BIAS: i32 = 34;

/// Bucket index for a sample. Total (0, subnormal, huge, inf, and NaN all
/// land deterministically).
#[inline]
pub fn bucket_index(v: f64) -> usize {
    if v.is_nan() || v <= 0.0 {
        return 0;
    }
    // Clamp in f64: log2 handles subnormals exactly (returns < -1022) and
    // +inf clamps into the top bucket without any integer overflow.
    let e = v.log2().floor() + HIST_EXP_BIAS as f64;
    e.clamp(1.0, (HIST_BUCKETS - 1) as f64) as usize
}

/// Inclusive upper bound of bucket `i`, for Prometheus `le` labels.
/// Bucket 0 (non-positive samples) reports `le = 0`.
pub fn bucket_upper_bound(i: usize) -> f64 {
    assert!(i < HIST_BUCKETS);
    if i == 0 {
        0.0
    } else if i == HIST_BUCKETS - 1 {
        f64::INFINITY
    } else {
        2f64.powi(i as i32 - HIST_EXP_BIAS + 1)
    }
}

/// One histogram's merged state.
#[derive(Clone, Debug)]
pub struct Hist {
    pub buckets: [u64; HIST_BUCKETS],
    pub count: u64,
    pub sum: f64,
    pub max: f64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0.0,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Hist {
    #[inline]
    pub fn observe(&mut self, v: f64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        if v.is_finite() {
            self.sum += v;
            if v > self.max {
                self.max = v;
            }
        }
    }

    fn merge(&mut self, other: &Hist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.max > self.max {
            self.max = other.max;
        }
    }

    pub fn mean(&self) -> f64 {
        if self.count > 0 {
            self.sum / self.count as f64
        } else {
            0.0
        }
    }
}

/// A timeline event recorded by a worker (bridged into the Chrome trace).
#[derive(Clone, Debug)]
pub struct ObsEvent {
    /// Event name (e.g. `"rollback"`, `"worker"`).
    pub name: &'static str,
    /// Trace category (Perfetto groups by this; e.g. `"overhead"`).
    pub cat: &'static str,
    /// Start, seconds since the run origin.
    pub at_s: f64,
    /// Duration in seconds.
    pub dur_s: f64,
}

/// Per-thread recorder: exclusively owned by one worker; all writes are
/// plain loads/stores behind `&mut self` (see module docs for why this is
/// atomics-free by construction).
#[derive(Clone, Debug)]
pub struct ThreadRecorder {
    counters: Vec<u64>,
    hists: Vec<Hist>,
    /// Optional timeline events (worker lifetime, overhead episodes).
    pub events: Vec<ObsEvent>,
}

impl Default for ThreadRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl ThreadRecorder {
    pub fn new() -> Self {
        ThreadRecorder {
            counters: vec![0; COUNTERS.len()],
            hists: vec![Hist::default(); HISTOGRAMS.len()],
            events: Vec::new(),
        }
    }

    /// Add `n` to a counter. Plain `u64` add — no atomics.
    #[inline]
    pub fn inc(&mut self, id: CounterId, n: u64) {
        self.counters[id.0 as usize] += n;
    }

    /// Record one histogram sample. Plain array increment — no atomics.
    #[inline]
    pub fn observe(&mut self, id: HistId, v: f64) {
        self.hists[id.0 as usize].observe(v);
    }

    /// Push a timeline event (cold path; used for worker lifetimes and
    /// traced overhead episodes).
    pub fn event(&mut self, name: &'static str, cat: &'static str, at_s: f64, dur_s: f64) {
        self.events.push(ObsEvent {
            name,
            cat,
            at_s,
            dur_s,
        });
    }

    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id.0 as usize]
    }

    /// Merge this recorder into a snapshot under thread id `tid`
    /// (join-time drain; the recorder can keep recording afterwards, the
    /// merged values are a prefix sum).
    pub fn merge_into(&self, tid: u32, snap: &mut MetricsSnapshot) {
        for (a, b) in snap.counters.iter_mut().zip(self.counters.iter()) {
            *a += b;
        }
        for (a, b) in snap.hists.iter_mut().zip(self.hists.iter()) {
            a.merge(b);
        }
        snap.events
            .extend(self.events.iter().map(|e| (tid, e.clone())));
        snap.threads_merged += 1;
    }
}

/// Merged, run-level metrics: the read side handed to exporters.
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    counters: Vec<u64>,
    hists: Vec<Hist>,
    /// Timeline events tagged with the recording thread id.
    pub events: Vec<(u32, ObsEvent)>,
    pub threads_merged: u32,
}

impl Default for MetricsSnapshot {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsSnapshot {
    pub fn new() -> Self {
        MetricsSnapshot {
            counters: vec![0; COUNTERS.len()],
            hists: vec![Hist::default(); HISTOGRAMS.len()],
            events: Vec::new(),
            threads_merged: 0,
        }
    }

    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id.0 as usize]
    }

    /// Bridge an externally-tracked count (e.g. a `ThreadStats` field) into
    /// the snapshot.
    pub fn add_counter(&mut self, id: CounterId, n: u64) {
        self.counters[id.0 as usize] += n;
    }

    /// Record one histogram sample directly into the snapshot (long-lived
    /// aggregators like the meshing service have no per-thread recorder).
    pub fn observe(&mut self, id: HistId, v: f64) {
        self.hists[id.0 as usize].observe(v);
    }

    /// Fold another snapshot into this one: counters add, histograms merge,
    /// events concatenate. Used by long-lived aggregators (e.g. `pi2m serve`
    /// accumulating every job's run metrics into one service-lifetime view).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (a, b) in self.counters.iter_mut().zip(other.counters.iter()) {
            *a += b;
        }
        for (a, b) in self.hists.iter_mut().zip(other.hists.iter()) {
            a.merge(b);
        }
        self.events.extend(other.events.iter().cloned());
        self.threads_merged = self.threads_merged.max(other.threads_merged);
    }

    pub fn hist(&self, id: HistId) -> &Hist {
        &self.hists[id.0 as usize]
    }

    /// All counters with non-zero values, in catalog order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static MetricDef, u64)> + '_ {
        COUNTERS.iter().zip(self.counters.iter().copied())
    }

    /// All histograms, in catalog order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static MetricDef, &Hist)> + '_ {
        HISTOGRAMS.iter().zip(self.hists.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_are_total() {
        // zero, negative, NaN → bucket 0
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-0.0), 0);
        assert_eq!(bucket_index(-1.5), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        // subnormals clamp into the first positive bucket
        assert_eq!(bucket_index(f64::MIN_POSITIVE / 4.0), 1);
        assert_eq!(bucket_index(1e-300), 1);
        // huge / infinite values clamp into the top bucket
        assert_eq!(bucket_index(f64::MAX), HIST_BUCKETS - 1);
        assert_eq!(bucket_index(f64::INFINITY), HIST_BUCKETS - 1);
        // interior values are ordered
        assert!(bucket_index(1e-6) < bucket_index(1e-3));
        assert!(bucket_index(1e-3) < bucket_index(1.0));
        assert!(bucket_index(1.0) <= bucket_index(2.0));
        // bucket bounds are monotone and bracket the sample
        for &v in &[1e-9, 3.7e-4, 0.125, 1.0, 42.0, 9.9e8] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper_bound(i), "{v} vs bucket {i}");
            if i > 1 {
                // buckets are [lower, upper): exact powers of two sit at the
                // lower edge of their bucket
                assert!(v >= bucket_upper_bound(i - 1), "{v} vs bucket {}", i - 1);
            }
        }
    }

    #[test]
    fn recorder_records_and_merges() {
        let mut a = ThreadRecorder::new();
        let mut b = ThreadRecorder::new();
        a.inc(OPS_INSERTIONS, 3);
        b.inc(OPS_INSERTIONS, 4);
        a.observe(CAVITY_CELLS, 8.0);
        b.observe(CAVITY_CELLS, 16.0);
        b.event("worker", "worker", 0.0, 1.0);
        let mut snap = MetricsSnapshot::new();
        a.merge_into(0, &mut snap);
        b.merge_into(1, &mut snap);
        assert_eq!(snap.counter(OPS_INSERTIONS), 7);
        assert_eq!(snap.hist(CAVITY_CELLS).count, 2);
        assert_eq!(snap.hist(CAVITY_CELLS).sum, 24.0);
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].0, 1);
        assert_eq!(snap.threads_merged, 2);
    }

    #[test]
    fn catalog_names_are_unique() {
        let mut names: Vec<&str> = catalog().map(|d| d.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric names in catalog");
    }
}
