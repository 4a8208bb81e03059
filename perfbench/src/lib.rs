//! End-to-end and per-layer benchmark of the croxmap mapping pipeline.
//!
//! A run generates its inputs from a seed ([`workload::setup`]), then
//! calls the pipeline's public entry points in a closed loop from one
//! client thread ([`op::run_op`]), checking every output. A traced run
//! replays each op call by call through the same public functions
//! ([`replay::replay_op`]) to attribute wall time and work to layers.
//! See `perfbench/README.md` for the workloads and every metric.

#![forbid(unsafe_code)]

pub mod clock;
pub mod metrics;
pub mod op;
pub mod replay;
pub mod trace;
pub mod workload;
