//! # pi2m-sim
//!
//! The shape and prices of the machine the paper's scaling studies ran on:
//! PSC Blacklight (256 blades, cc-NUMA, retired) and the CRTC workstation
//! (paper Table 2). [`MachineTopology`] maps threads onto cores, sockets
//! and blades; [`SimMachine`] adds a virtual-time [`CostModel`] — compute,
//! lock steps, NUMA hops, root-switch congestion, SMT sharing and power —
//! that prices a yield point by where its thread and the data it touches
//! live.
//!
//! No engine runs here: a model of the paper's scaling studies is meant to
//! run over the one real worker loop and price its yield points with this
//! crate, not to re-implement that loop.

pub mod machine;
pub mod topology;

pub use machine::{CostModel, SimMachine};
pub use topology::MachineTopology;
