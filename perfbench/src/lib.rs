//! The repository benchmark: three seeded closed-loop workloads on the
//! default ASVM configuration over STS, reported end to end (host and
//! simulated) and, in a separate traced run, layer by layer.
//!
//! See `NOTES.md` beside this crate for why each workload exists, which
//! layer each per-layer metric should move, and what is left unmeasured.

pub mod report;
pub mod run;
pub mod shape;
pub mod task;
pub mod trace;
