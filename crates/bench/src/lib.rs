//! # vcop-bench — experiment harnesses
//!
//! The application catalogue ([`app`]) and the reusable experiment
//! runners behind the figure-regeneration binaries (`fig7`, `fig8`,
//! `fig9`, `overheads`, `ablations`) and the Criterion benches. Each
//! runner builds a full [`vcop::System`], executes a workload end to
//! end, **verifies the outputs bit-exactly against the software
//! reference**, and returns the time decomposition.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod app;
pub mod experiments;
pub mod json;
pub mod runner;
pub mod serving;
pub mod table;
