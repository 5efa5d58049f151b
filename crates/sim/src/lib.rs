//! # pi2m-sim
//!
//! A discrete-event simulated cc-NUMA machine executing the PI2M
//! speculative refinement algorithm in virtual time. The paper's scaling
//! studies ran on PSC Blacklight (256 blades, cc-NUMA, retired); this crate
//! substitutes it (see DESIGN.md), executing the *real* algorithm over the
//! real concurrent mesh kernel with virtual threads, an incremental
//! lock-acquisition model that admits genuine mutual rollbacks and
//! livelocks, and a calibrated NUMA/congestion cost model — reproducing the
//! paper's Tables 1, 4, 5 and Figures 5–6 shapes on a single host core.

pub mod engine;
pub mod machine;
pub mod topology;

pub use engine::{BalancerKind, SimConfig, SimMesher, SimOutput, SimStats, TraceEvent};
pub use machine::{CostModel, SimMachine};
pub use topology::MachineTopology;
