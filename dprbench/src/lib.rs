//! Host-performance benchmark of the RV-CAP DPR simulator.
//!
//! Four paper operations, each forked from a warm-booted checkpoint
//! and checked, measured in a closed loop on one thread. See
//! `README.md` in this directory for why each workload is there and
//! which end-to-end metric each per-layer metric should move.

mod host;
pub mod measure;
pub mod trace;
pub mod workload;
