//! # adamel-bench
//!
//! The reproduction harness: experiment-scale worlds, the uniform method
//! roster, and one module per table/figure of the paper. The `repro` binary
//! (`cargo run -p adamel-bench --bin repro --release -- --exp all`)
//! regenerates every artifact. Timings live in the benchmark of record
//! (`bench_record/`); the `perfjson` binary writes the deterministic
//! counters of `BENCH_parallel.json`.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod methods;
pub mod table;
pub mod worlds;

pub use methods::{run_method, Method, Metric, RunOutcome};
pub use worlds::{MonitorExperiment, MusicExperiment, Scale};
