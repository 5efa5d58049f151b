//! # pi2m-bench
//!
//! Shared plumbing for the per-table/per-figure harnesses (see DESIGN.md's
//! experiment index). Every harness prints the same rows/series the paper
//! reports; EXPERIMENTS.md records paper-vs-measured values.
//!
//! Knobs (environment variables):
//! * `PI2M_FULL=1` — run closer-to-paper problem sizes (slower).
//! * `PI2M_EPT` — target elements per virtual thread in scaling studies.
//! * `PI2M_REPORT_DIR` — when set, harnesses drop a machine-readable JSON
//!   run report per configuration into that directory (see `emit_report`).

pub mod kernel;

use pi2m_obs::{OverheadBreakdown, RunReport};
use pi2m_refine::CmKind;
use pi2m_sim::SimStats;
use std::path::PathBuf;

/// True when `PI2M_FULL=1`: larger problems, longer runs.
pub fn full_mode() -> bool {
    std::env::var("PI2M_FULL")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Target elements per thread for weak-scaling studies.
pub fn elements_per_thread() -> f64 {
    std::env::var("PI2M_EPT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if full_mode() { 4000.0 } else { 1200.0 })
}

/// The weak-scaling δ for `n` threads given the 1-thread δ: the paper's
/// volume argument (§6.3) — "a decrease of δ by a factor of x results in an
/// x³ times increase of the mesh size" — so δ(n) = δ(1)·n^(-1/3) keeps
/// elements per thread constant.
pub fn weak_scaling_delta(delta1: f64, n: usize) -> f64 {
    delta1 * (n as f64).powf(-1.0 / 3.0)
}

/// All four contention managers in the paper's column order.
pub fn all_cms() -> [CmKind; 4] {
    [
        CmKind::Aggressive,
        CmKind::Random,
        CmKind::Global,
        CmKind::Local,
    ]
}

/// The wasted-cycle breakdown of one simulated run, in the shape the
/// `pi2m-obs` exporters consume.
pub fn sim_breakdown(stats: &SimStats) -> OverheadBreakdown {
    OverheadBreakdown {
        contention_s: stats.contention_overhead(),
        load_balance_s: stats.load_balance_overhead(),
        rollback_s: stats.rollback_overhead(),
        rollbacks: stats.total_rollbacks(),
        livelock: stats.livelock,
    }
}

/// Build a JSON run report for one simulated configuration. Harness-agnostic:
/// the caller adds any extra `config` keys before emitting.
pub fn sim_report(
    tool: &str,
    cm: CmKind,
    vthreads: usize,
    delta: f64,
    stats: &SimStats,
) -> RunReport {
    let mut r = RunReport::new(tool);
    r.config("cm", format!("{cm:?}"))
        .config("vthreads", vthreads)
        .config("delta", delta)
        .config("full_mode", full_mode());
    r.overheads = sim_breakdown(stats);
    r.threads = vthreads;
    r.wall_s = stats.vtime;
    r.elements = stats.final_elements as u64;
    r
}

/// Write `report` to `$PI2M_REPORT_DIR/<tool>-<suffix>.json` and return the
/// path; `None` (and no I/O) when the variable is unset. Harnesses call this
/// after each configuration so table/figure runs leave machine-readable
/// artifacts next to their printed output.
pub fn emit_report(report: &RunReport, suffix: &str) -> Option<PathBuf> {
    let dir = PathBuf::from(std::env::var_os("PI2M_REPORT_DIR")?);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("PI2M_REPORT_DIR {}: {e}", dir.display());
        return None;
    }
    let path = dir.join(format!("{}-{suffix}.json", report.tool));
    match std::fs::write(&path, report.to_json_string()) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("{}: {e}", path.display());
            None
        }
    }
}

/// Pretty horizontal rule for harness output.
pub fn rule(width: usize) -> String {
    "-".repeat(width)
}

/// Format a float with engineering-style compactness.
pub fn eng(v: f64) -> String {
    if !v.is_finite() {
        return format!("{v}");
    }
    let a = v.abs();
    if a >= 1e6 {
        format!(
            "{:.2}e{}",
            v / 10f64.powi(a.log10() as i32),
            a.log10() as i32
        )
    } else if a >= 100.0 {
        format!("{v:.0}")
    } else if a >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weak_delta_scales_cubically() {
        let d1 = 2.0;
        let d8 = weak_scaling_delta(d1, 8);
        assert!((d8 - 1.0).abs() < 1e-12);
        // elements ratio (d1/d8)^3 == 8
        assert!(((d1 / d8).powi(3) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn sim_report_round_trips_overheads() {
        let stats = SimStats {
            vtime: 2.0,
            final_elements: 500,
            ..Default::default()
        };
        let r = sim_report("table1_cm", CmKind::Local, 128, 1.1, &stats);
        assert_eq!(r.tool, "table1_cm");
        assert_eq!(r.threads, 128);
        assert_eq!(r.elements, 500);
        let j = pi2m_obs::json::parse(&r.to_json_string()).unwrap();
        assert_eq!(
            j.get("config").unwrap().get("cm").unwrap().as_str(),
            Some("Local")
        );
        assert_eq!(j.get("wall_s").unwrap().as_f64(), Some(2.0));
    }

    #[test]
    fn eng_formats() {
        assert_eq!(eng(1234567.0), "1.23e6");
        assert_eq!(eng(123.4), "123");
        assert_eq!(eng(1.5), "1.50");
        assert_eq!(eng(0.0123), "0.0123");
    }
}
