//! The repository's end-to-end benchmark: Table II PAR-2 with and without
//! Bosphorus on two cipher workloads, with per-layer spans traced from
//! outside the engine. README.md describes the workloads and the metrics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod run;
pub mod solve;
pub mod trace;
pub mod workloads;
