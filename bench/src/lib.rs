//! The repo's performance benchmark: five long-running TSJ workloads, six
//! end-to-end metrics, and per-layer metrics from a separate traced pass.
//!
//! The program under test receives only generated inputs and is driven
//! exclusively through its public functions. See `bench/README.md` for
//! every metric and workload with its reason.

pub mod alloc;
pub mod checks;
pub mod cli;
pub mod json;
pub mod procstat;
pub mod replay;
pub mod run;
pub mod spec;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod workload;
