//! End-to-end and per-layer benchmark of the NUMFabric simulator.
//!
//! The benchmark is a client of the workspace crates: it drives every
//! layer through that layer's public functions and traits and changes no
//! library code. See `README.md` in this directory for the workloads, the
//! metrics and how to run it.

pub mod probe;
pub mod procfs;
pub mod spans;
pub mod workloads;
