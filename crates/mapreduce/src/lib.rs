//! An in-process MapReduce runtime with a simulated shared-nothing cluster.
//!
//! The paper's TSJ framework (Sec. III) is "parallelized using MapReduce"
//! and its evaluation (Sec. V) reports runtimes as a function of the number
//! of machines (100–1000). This crate substitutes Google's production
//! MapReduce with:
//!
//! * **Real execution** — `map`, shuffle, and `reduce` run on a local thread
//!   pool (all cores), so joins over hundreds of thousands of strings finish
//!   in seconds. Mappers partition their output by key hash *at emit time*
//!   and can fold it through a map-side [`Combiner`] before the shuffle
//!   (see [`shuffle`]). With a [`ShuffleConfig`] the whole data plane is
//!   *memory-bounded*: mappers periodically combine and spill sorted runs
//!   to disk ([`spill`]) and reducers consume their partitions through a
//!   streaming k-way sort-merge ([`merge`]), modelling genuinely
//!   out-of-core workloads. The [`transport`] layer decides how map
//!   output reaches reducers: an in-process segment handoff (default),
//!   or map tasks publishing their output as run files in the spill-run
//!   wire format that reducers read in place — from the local
//!   filesystem ([`Transport::MultiProcess`]) or from a per-stage run
//!   server over a socket with vectored reads, retries, and deadlines
//!   ([`Transport::Remote`], [`tsj_netshuffle`]), and
//! * **A simulated cluster clock** — every map task and every reduce group
//!   is charged its declared work (records in, records out, explicit
//!   units — never a wall-clock measurement) to one of `machines` *simulated*
//!   machines (map tasks round-robin, reduce groups by key hash — exactly
//!   how a real shuffler routes keys to reducers), and the job's simulated
//!   runtime is the *makespan*: startup overheads plus the busiest machine's
//!   load per phase. Load imbalance from skewed keys therefore shows up in
//!   the simulated runtime exactly as it does in the paper's Figures 1–3
//!   and 7.
//!
//! The semantics follow Sec. III-A:
//!
//! ```text
//! map:    ⟨key1, value1⟩        → [⟨key2, value2⟩]
//! reduce: ⟨key2, [value2]⟩      → [value3]
//! ```
//!
//! Every job is a stage of a [`dataset`] plan ([`Cluster::input`] →
//! [`Dataset::map_reduce`] → … → [`Dataset::collect`]), which records a
//! *lazy job DAG*: interior stage output stays partitioned inside the
//! runtime instead of materializing in driver memory, and the terminal
//! executes the whole graph with partition-level cross-stage overlap on
//! one shared worker pool (an upstream reduce task finishing a partition
//! immediately readies the downstream map task for it). [`Cluster::run`]
//! and [`Cluster::run_combined`] are the single-job convenience: exactly
//! the one-stage plan `input` → stage → `collect`, handed back as a
//! [`JobResult`]. See [`JobStats`] for what gets measured and
//! [`SimReport`] for aggregating a multi-job pipeline.
//!
//! A plan is a tree, and lowering returns it: each stage's depth below the
//! terminal is its pool priority, and the tree is structurally analyzed
//! before execution — statically empty inputs, combiner opportunities and
//! merge fan-in hazards surface as [`PlanDiagnostic`]s on the terminal's
//! [`SimReport`] — or, under [`PlanCheck::Deny`], fail the terminal before
//! any stage runs.

// Keeps the stage engine from regrowing into one function: the threshold
// lives in the workspace `clippy.toml`, and CI runs clippy with
// `-D warnings`.
#![warn(clippy::too_many_lines)]

pub mod cluster;
mod dag;
pub mod dataset;
pub mod env;
pub mod hash;
pub mod job;
pub mod merge;
pub mod pool;
pub mod report;
pub mod shuffle;
pub mod spill;
pub mod transport;

pub use cluster::{Cluster, ClusterConfig, CostModel};
pub use dag::analyze::{PlanCheck, PlanDiagnostic, MERGE_FAN_IN_BUDGET};
pub use dataset::{DataPartition, Dataset, DatasetMode};
pub use hash::{fingerprint64, fingerprint_str, FxBuildHasher, FxHasher};
pub use job::{Emitter, JobError, JobResult, JobStats, OutputSink, PhaseSim};
pub use pool::{SchedulerConfig, SchedulerMode, StraggleInjection};
pub use report::SimReport;
pub use shuffle::{combine_records, Combiner, Count, Dedup, PartitionedBuffer, ShuffleConfig};
pub use spill::{read_varint, write_varint, RunMeta, RunReader, Spill, SpillError, SpillWriter};
pub use transport::Transport;
// The network-shuffle knobs callers configure through [`ShuffleConfig`].
pub use tsj_netshuffle::{FaultConfig, FetchStats};
