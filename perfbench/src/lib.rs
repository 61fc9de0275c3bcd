//! End-to-end, layer-attributed benchmark of the finrad SER flow.
//!
//! The binary (`src/main.rs`) runs one workload per process and prints
//! its metrics; this library holds the parts the tests check. See
//! `README.md` for the workloads and the metric table.

#![deny(rust_2018_idioms)]

pub mod flow;
pub mod host;
pub mod metrics;
pub mod reference;
pub mod stats;
pub mod trace;
pub mod workloads;
