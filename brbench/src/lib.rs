//! # brbench — the replication pipeline's benchmark
//!
//! Four workloads drive the public pipeline entry points of `brepl` from
//! outside: [`workload`] builds their inputs from a seed and ships them
//! through the real entry points, [`oracle`] checks every shipped program
//! against the original under the reference interpreter, and [`replay`]
//! re-runs each entry point phase by phase through its public layer calls
//! with one [`spans`] span per call, for the per-layer numbers.
//! [`calibrate`] scales the end-to-end timings to a reference host speed.
//! See `README.md` for the workloads, metrics and bounds.

pub mod alloc;
pub mod calibrate;
pub mod compare;
pub mod oracle;
pub mod replay;
pub mod spans;
pub mod stats;
pub mod workload;
