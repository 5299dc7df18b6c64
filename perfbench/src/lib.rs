//! The repository benchmark: named simulator workloads measured end to end
//! (host and simulated time) and layer by layer, with a correctness gate on
//! every run. See `README.md` in this directory.

pub mod host;
pub mod report;
pub mod run;
pub mod spans;
pub mod traced;
pub mod workload;
