//! The repository benchmark.
//!
//! Four workloads, each a closed loop of one client on one thread: an
//! operation starts when the previous one has finished. Inside each
//! simulated operation the traffic is open loop (Bernoulli injection in
//! simulated time). See `README.md` beside this crate for why each
//! workload exists and which end-to-end metric each per-layer metric
//! should move.

pub mod calibrate;
pub mod digest;
pub mod layers;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workload;
