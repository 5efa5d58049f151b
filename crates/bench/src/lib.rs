//! # pi2m-bench
//!
//! Shared plumbing for the per-table harnesses under `benches/` (see
//! DESIGN.md's experiment index). Every harness prints the same rows the
//! paper reports; EXPERIMENTS.md records paper-vs-measured values. The
//! repository's performance is measured by the standalone `benchmark/`
//! package, not here.
//!
//! Knob (environment variable): `PI2M_FULL=1` runs closer-to-paper problem
//! sizes (slower).

/// True when `PI2M_FULL=1`: larger problems, longer runs.
pub fn full_mode() -> bool {
    std::env::var("PI2M_FULL")
        .map(|v| v == "1")
        .unwrap_or(false)
}
