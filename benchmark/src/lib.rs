//! The repo's benchmark. See `benchmark/README.md`.
//!
//! `api` is the only module that names the system under test; everything else
//! is generators (`gen`), oracles (`oracle`), the drivers of the six
//! workloads (`workloads`), the per-layer probes (`layers`, `delta_layers`),
//! span recording (`span`) and reporting (`harness`, `report`).

pub mod api;
pub mod cli;
pub mod config;
pub mod delta_layers;
pub mod gen;
pub mod harness;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod oracle;
pub mod report;
pub mod span;
pub mod stats;
pub mod workloads;

/// Engine threads and serve workers: the host's hardware threads.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
