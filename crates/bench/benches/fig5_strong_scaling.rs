//! **Figure 5** — strong scaling: Random Work Stealing (RWS) vs Hierarchical
//! Work Stealing (HWS) on the simulated Blacklight with a *fixed* problem
//! size:
//!
//! * (a) speedup curves — RWS deteriorates past 64 cores, HWS keeps
//!   improving through 176;
//! * (b) inter-blade accesses — HWS cuts them (paper: −28.8% at 176 cores,
//!   98.9% of donations served within the blade);
//! * (c) overhead breakdown per thread for HWS across core counts.
//!
//! Run: `cargo bench -p pi2m-bench --bench fig5_strong_scaling`

use pi2m_bench::full_mode;
use pi2m_image::phantoms;
use pi2m_sim::{BalancerKind, SimConfig, SimMachine, SimMesher, SimStats};

fn main() {
    let thread_counts = [1usize, 16, 32, 64, 128, 144, 160, 176];
    let delta = if full_mode() { 0.7 } else { 1.1 };
    let img = phantoms::abdominal(1.0);

    let run = |bal: BalancerKind, n: usize| -> SimStats {
        let cfg = SimConfig {
            vthreads: n,
            machine: SimMachine::blacklight(),
            delta,
            balancer: bal,
            livelock_vtime: 2.0,
            ..Default::default()
        };
        SimMesher::new(img.clone(), cfg).run().stats
    };

    let mut rws: Vec<SimStats> = Vec::new();
    let mut hws: Vec<SimStats> = Vec::new();
    for &n in &thread_counts {
        rws.push(run(BalancerKind::Rws, n));
        hws.push(run(BalancerKind::Hws, n));
    }
    let t1 = hws[0].vtime.min(rws[0].vtime);

    println!(
        "Figure 5a — strong scaling speedup (fixed problem, {} elements)",
        hws[0].final_elements
    );
    println!("{:<10} {:>12} {:>12}", "#Threads", "RWS", "HWS");
    for (i, &n) in thread_counts.iter().enumerate() {
        println!(
            "{n:<10} {:>12.2} {:>12.2}",
            t1 / rws[i].vtime,
            t1 / hws[i].vtime
        );
    }

    println!("\nFigure 5b — inter-blade accesses");
    println!(
        "{:<10} {:>14} {:>14} {:>12}",
        "#Threads", "RWS", "HWS", "reduction"
    );
    for (i, &n) in thread_counts.iter().enumerate() {
        let (a, b) = (rws[i].inter_blade_touches, hws[i].inter_blade_touches);
        let red = if a > 0 {
            100.0 * (a.saturating_sub(b)) as f64 / a as f64
        } else {
            0.0
        };
        println!("{n:<10} {a:>14} {b:>14} {red:>11.1}%");
    }
    // donation locality at the largest count
    let last = hws.last().unwrap();
    let total_don = last.total_donations();
    let cross = last.inter_blade_donations();
    if total_don > 0 {
        println!(
            "\nHWS at {} threads: {:.1}% of donations served within the blade",
            thread_counts.last().unwrap(),
            100.0 * (total_don - cross) as f64 / total_don as f64
        );
    }

    println!("\nFigure 5c — HWS overhead breakdown (total seconds across threads)");
    println!(
        "{:<10} {:>14} {:>14} {:>14} {:>14}",
        "#Threads", "contention", "load balance", "rollback", "per-thread"
    );
    for (i, &n) in thread_counts.iter().enumerate() {
        let s = &hws[i];
        println!(
            "{n:<10} {:>14.4} {:>14.4} {:>14.4} {:>14.4}",
            s.contention_overhead(),
            s.load_balance_overhead(),
            s.rollback_overhead(),
            s.overhead_per_thread()
        );
    }
}
