//! The simulated machine: topology plus a virtual-time cost model.
//!
//! The simulator executes the *real* speculative algorithm (actual mesh,
//! actual rules, actual conflicts) but charges operations in virtual seconds
//! using this model: compute costs per classification/operation, incremental
//! lock-acquisition steps (which enable mutual preemption and hence genuine
//! livelocks for the non-blocking contention managers), and a cc-NUMA memory
//! model — touched cells homed on another socket or blade cost extra, with
//! hop counts and a root-switch congestion term reproducing the paper's
//! degradation beyond 144 cores (§6.3: each hop adds a ~2000 cycle penalty
//! and the upper-level switches saturate).

use crate::topology::MachineTopology;

/// Virtual-time costs, in seconds. Defaults are loosely calibrated so a
/// single virtual thread generates on the order of 10⁵ elements per virtual
/// second — the paper's single-core rate (Table 4: 1.18×10⁵).
#[derive(Clone, Debug)]
pub struct CostModel {
    /// Classifying one element against R1–R6 (includes oracle queries).
    pub classify: f64,
    /// Acquiring one vertex lock (the incremental-acquisition step).
    pub lock_step: f64,
    /// Fixed cost of a Bowyer–Watson insertion.
    pub insert_base: f64,
    /// Additional cost per cavity cell.
    pub per_cavity_cell: f64,
    /// Removal cost multiplier (ball gathering + local triangulation).
    pub remove_factor: f64,
    /// Cost of skipping an unrealizable element.
    pub skip: f64,
    /// Extra cost per touched cell homed on another socket of the same blade.
    pub remote_socket: f64,
    /// Extra cost per touched cell per hop when homed on another blade.
    pub per_hop: f64,
    /// Root-switch congestion: extra factor on cross-group traffic per
    /// active blade beyond the first switch group (8 blades).
    pub congestion_per_blade: f64,
    /// Latency of waking a begging thread (same blade).
    pub wake_latency: f64,
    /// Per-thread compute slowdown when two hardware threads share a core
    /// (the shared pipeline; combined throughput ≈ 2/factor).
    pub smt_compute_factor: f64,
    /// Power draw of a busy core, watts (X7560: 130 W / 8 cores ≈ 16 W).
    pub busy_watts: f64,
    /// Power draw of a core busy-waiting in a contention/begging list.
    pub idle_watts: f64,
    /// Power draw of an idling core dropped into a deep low-power state —
    /// the opportunity the paper's §8 highlights ("the CPU frequency could
    /// be decreased during such an idling").
    pub throttled_idle_watts: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            classify: 0.9e-6,
            lock_step: 0.05e-6,
            insert_base: 1.15e-6,
            per_cavity_cell: 0.07e-6,
            remove_factor: 3.0,
            skip: 0.15e-6,
            remote_socket: 0.08e-6,
            per_hop: 0.9e-6, // ~2000 cycles at 2.27 GHz (paper §6.3)
            congestion_per_blade: 0.18,
            wake_latency: 1.0e-6,
            smt_compute_factor: 1.28,
            busy_watts: 16.0,
            idle_watts: 10.0,
            throttled_idle_watts: 3.0,
        }
    }
}

/// A machine to simulate: shape + costs.
#[derive(Clone, Debug)]
pub struct SimMachine {
    pub topo: MachineTopology,
    pub cost: CostModel,
}

impl SimMachine {
    /// PSC Blacklight (paper Table 2).
    pub fn blacklight() -> Self {
        SimMachine {
            topo: MachineTopology::blacklight(),
            cost: CostModel::default(),
        }
    }

    /// Blacklight with hyper-threading enabled (Table 5).
    pub fn blacklight_smt() -> Self {
        SimMachine {
            topo: MachineTopology::blacklight().with_smt(2),
            cost: CostModel::default(),
        }
    }

    /// CRTC single-blade workstation (paper Table 2).
    pub fn crtc() -> Self {
        SimMachine {
            topo: MachineTopology::crtc(),
            cost: CostModel::default(),
        }
    }

    /// Compute-cost multiplier for thread `vt` given the total virtual
    /// thread count: hardware threads whose core sibling is also in use run
    /// slower.
    pub fn compute_factor(&self, vt: usize, vthreads: usize) -> f64 {
        if self.topo.smt < 2 {
            return 1.0;
        }
        let core = self.topo.core_of(vt);
        // sibling occupied iff the other hw thread index on this core < n
        let sibling_busy = (0..self.topo.smt)
            .map(|k| core * self.topo.smt + k)
            .any(|t| t != vt && t < vthreads);
        if sibling_busy {
            self.cost.smt_compute_factor
        } else {
            1.0
        }
    }

    /// Memory penalty for touching a cell homed on `home_vt` from `vt`, with
    /// `blades_in_use` active blades (congestion input).
    pub fn touch_penalty(&self, vt: usize, home_vt: usize, blades_in_use: usize) -> f64 {
        let (s1, s2) = (self.topo.socket_of(vt), self.topo.socket_of(home_vt));
        if s1 == s2 {
            return 0.0;
        }
        let (b1, b2) = (self.topo.blade_of(vt), self.topo.blade_of(home_vt));
        if b1 == b2 {
            return self.cost.remote_socket;
        }
        let hops = self.topo.hops_between(b1, b2) as f64;
        let congestion = if hops > 3.0 {
            // cross-group traffic rides the shared root switches
            1.0 + self.cost.congestion_per_blade * (blades_in_use.saturating_sub(8)) as f64
        } else {
            1.0
        };
        hops * self.cost.per_hop * congestion
    }

    /// Wake latency from `from` to `to` (cross-blade wakes ride the network).
    pub fn wake_penalty(&self, from: usize, to: usize, blades_in_use: usize) -> f64 {
        let base = self.cost.wake_latency;
        let (b1, b2) = (self.topo.blade_of(from), self.topo.blade_of(to));
        if b1 == b2 {
            base
        } else {
            base + self.touch_penalty(from, to, blades_in_use)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_touch_is_free() {
        let m = SimMachine::blacklight();
        assert_eq!(m.touch_penalty(0, 1, 16), 0.0); // same socket
    }

    #[test]
    fn penalties_grow_with_distance() {
        let m = SimMachine::blacklight();
        let same_blade = m.touch_penalty(0, 8, 16); // other socket, same blade
        let near_blade = m.touch_penalty(0, 16, 8); // blade 1
        let far_blade = m.touch_penalty(0, 16 * 9, 12); // blade 9: cross-group
        assert!(same_blade > 0.0);
        assert!(near_blade > same_blade);
        assert!(far_blade > near_blade);
    }

    #[test]
    fn congestion_kicks_in_beyond_eight_blades() {
        let m = SimMachine::blacklight();
        let quiet = m.touch_penalty(0, 16 * 9, 8);
        let busy = m.touch_penalty(0, 16 * 9, 11);
        assert!(busy > quiet);
    }

    #[test]
    fn smt_factor() {
        let m = SimMachine::blacklight_smt();
        // 2 hw threads per core: vt 0 and 1 share core 0
        assert!(m.compute_factor(0, 2) > 1.0);
        assert_eq!(m.compute_factor(0, 1), 1.0); // sibling idle
        let m1 = SimMachine::blacklight();
        assert_eq!(m1.compute_factor(0, 128), 1.0);
    }
}
