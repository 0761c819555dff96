//! The repository benchmark: host- and virtual-time metrics of the
//! simulated edge system on three Trade2 workloads, with a traced run that
//! breaks host time down by layer. See `README.md` in this directory.

#![forbid(unsafe_code)]

pub mod bench;
pub mod report;
pub mod run;
pub mod stack;
pub mod stats;
pub mod timed;
pub mod workload;
