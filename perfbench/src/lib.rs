//! Host wall-clock benchmark of the mcio simulator.
//!
//! Four workloads each load a different simulator layer (see
//! `README.md` beside this crate). [`run`] measures one workload for a
//! fixed time and returns the result document that `run.py`
//! prints: end-to-end metrics from untraced repetitions, or per-layer
//! metrics from traced ones.

pub mod host;
pub mod layers;
pub mod runner;
pub mod workload;

pub use runner::{run, Options, Report};
