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
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    reason = "a panic in the job path kills the process or passes for a logic bug; \
              worker failures surface as structured `JobError` / `SpillError` values"
)]
#![warn(
    clippy::let_underscore_must_use,
    reason = "a discarded `Result` turns an I/O failure into silent data loss"
)]
#![warn(
    clippy::iter_over_hash_type,
    reason = "hash order is arbitrary; in output it breaks every byte-identity test"
)]
#![warn(
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason,
    reason = "a stale `#[expect]` fails the build; a stale `#[allow]` waves the next one through"
)]

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

/// The data plane's static guarantees are rustc and clippy lints (CI's
/// `cargo clippy --all-targets -- -D warnings`). These tests pin the
/// configuration that turns them on, so deleting a crate-root `#![warn]`
/// or a `clippy.toml` entry fails `cargo test` instead of silently
/// dropping the guarantee.
#[cfg(test)]
mod tests {
    use std::path::Path;

    const CLIPPY_TOML: &str = include_str!("../../../clippy.toml");
    const ROOTS: [(&str, &str); 2] = [
        ("tsj-mapreduce", include_str!("lib.rs")),
        (
            "tsj-netshuffle",
            include_str!("../../netshuffle/src/lib.rs"),
        ),
    ];
    const NETSHUFFLE_SRC: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../netshuffle/src");

    /// The lints named by the file's column-0 `#![warn(…)]` attributes.
    fn warned_lints(src: &str) -> Vec<&str> {
        src.split("\n#![warn(")
            .skip(1)
            .flat_map(|attr| {
                let end = attr.find(")]").unwrap();
                let names = &attr[..attr.find("reason =").map_or(end, |r| r.min(end))];
                names.split(',').map(str::trim).filter(|n| !n.is_empty())
            })
            .collect()
    }

    fn assert_warns(file: &str, src: &str, lint: &str) {
        let lints = warned_lints(src);
        assert!(
            lints.contains(&lint),
            "{file} does not warn {lint}: {lints:?}"
        );
    }

    /// `clippy.toml`'s `disallowed-methods` as `(path, reason)` pairs.
    fn disallowed_methods() -> Vec<(&'static str, &'static str)> {
        let quoted = |line: &'static str, key: &str| {
            let rest = &line[line.find(key)? + key.len()..];
            Some(&rest[..rest.find('"')?])
        };
        CLIPPY_TOML
            .lines()
            .filter_map(|line| Some((quoted(line, "path = \"")?, quoted(line, "reason = \"")?)))
            .collect()
    }

    fn assert_disallowed(paths: &[&str]) {
        let entries = disallowed_methods();
        for path in paths {
            let reason = entries.iter().find(|(p, _)| p == path).map(|(_, r)| r);
            assert!(
                reason.is_some_and(|r| !r.is_empty()),
                "{path} is not disallowed with a reason"
            );
        }
    }

    /// Every `.rs` file under `dir`, with its code: the lines before its
    /// first `#[cfg(test)]`, comment lines dropped.
    fn code_files(dir: &Path) -> Vec<(String, String)> {
        let mut files = Vec::new();
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                files.extend(code_files(&path));
            } else if path.extension().is_some_and(|e| e == "rs") {
                let src = std::fs::read_to_string(&path).unwrap();
                let code: Vec<&str> = src
                    .lines()
                    .take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"))
                    .filter(|l| !l.trim_start().starts_with("//"))
                    .collect();
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                files.push((name, code.join("\n")));
            }
        }
        files.sort();
        files
    }

    fn files_naming(dir: &Path, needles: &[&str]) -> Vec<String> {
        code_files(dir)
            .into_iter()
            .filter(|(_, code)| needles.iter().any(|n| code.contains(n)))
            .map(|(name, _)| name)
            .collect()
    }

    fn data_plane_dirs() -> [&'static Path; 2] {
        [
            Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/src")),
            Path::new(NETSHUFFLE_SRC),
        ]
    }

    #[test]
    fn no_panic_catches_all_five_forms() {
        for lint in ["unwrap_used", "expect_used", "panic", "unreachable", "todo"] {
            assert_warns("tsj-mapreduce", ROOTS[0].1, &format!("clippy::{lint}"));
        }
    }

    #[test]
    fn violations_in_test_code_are_ignored() {
        for key in [
            "allow-unwrap-in-tests",
            "allow-expect-in-tests",
            "allow-panic-in-tests",
        ] {
            let line = format!("{key} = true");
            assert!(
                CLIPPY_TOML.lines().any(|l| l.trim() == line),
                "clippy.toml lacks `{line}`"
            );
        }
    }

    #[test]
    fn env_reads_flagged_outside_the_knob_table() {
        assert_disallowed(&[
            "std::env::var",
            "std::env::var_os",
            "std::env::vars",
            "std::env::vars_os",
            "std::env::temp_dir",
            "std::env::set_var",
            "std::env::remove_var",
        ]);
    }

    #[test]
    fn env_reads_allowed_in_the_knob_table_file_only() {
        for dir in data_plane_dirs() {
            let readers = files_naming(dir, &["env::var"]);
            let expected: &[&str] = if dir.ends_with("netshuffle/src") {
                &[]
            } else {
                &["env.rs"]
            };
            assert_eq!(
                readers, expected,
                "environment variables read outside the knob table"
            );
        }
    }

    #[test]
    fn wallclock_banned_in_deterministic_modules_only() {
        assert_disallowed(&["std::time::Instant::now", "std::time::SystemTime::now"]);
        let mapreduce = data_plane_dirs()[0];
        let readers = files_naming(mapreduce, &["Instant::now", "SystemTime::now"]);
        assert!(
            readers.iter().all(|f| f == "cluster.rs" || f == "pool.rs"),
            "the wall clock is read outside the timed modules: {readers:?}"
        );
    }

    #[test]
    fn let_underscore_discard_is_flagged() {
        for (krate, src) in ROOTS {
            assert_warns(krate, src, "clippy::let_underscore_must_use");
        }
    }

    #[test]
    fn bare_result_statement_is_flagged() {
        // rustc's `unused_must_use` warns by default; nothing may lower it.
        for manifest in [
            include_str!("../../../Cargo.toml"),
            include_str!("../Cargo.toml"),
        ] {
            assert!(!manifest.contains("unused_must_use"));
        }
        for dir in data_plane_dirs() {
            assert_eq!(
                files_naming(dir, &["unused_must_use"]),
                Vec::<String>::new()
            );
        }
    }

    #[test]
    fn hashmap_for_loop_in_output_path_is_flagged() {
        for (krate, src) in ROOTS {
            assert_warns(krate, src, "clippy::iter_over_hash_type");
        }
    }

    #[test]
    fn hashset_method_iteration_is_flagged() {
        let methods = [
            "iter",
            "iter_mut",
            "keys",
            "values",
            "values_mut",
            "drain",
            "into_keys",
        ];
        let maps = methods
            .iter()
            .map(|m| format!("std::collections::HashMap::{m}"));
        let sets = ["iter", "drain"].map(|m| format!("std::collections::HashSet::{m}"));
        let paths: Vec<String> = maps.chain(sets).collect();
        assert_disallowed(&paths.iter().map(String::as_str).collect::<Vec<_>>());
    }

    #[test]
    fn allow_without_reason_is_malformed() {
        for (krate, src) in ROOTS {
            assert_warns(krate, src, "clippy::allow_attributes_without_reason");
        }
    }

    #[test]
    fn allow_that_suppresses_nothing_is_unused() {
        // Only `#[expect]` is left, and a stale one fails as
        // `unfulfilled_lint_expectations`, which nothing may lower.
        for (krate, src) in ROOTS {
            assert_warns(krate, src, "clippy::allow_attributes");
        }
        for dir in data_plane_dirs() {
            assert_eq!(
                files_naming(dir, &["unfulfilled_lint_expectations"]),
                Vec::<String>::new()
            );
        }
    }

    #[test]
    fn lossy_cast_flags_narrowing_as() {
        for (file, src) in [
            ("spill.rs", include_str!("spill.rs")),
            ("transport.rs", include_str!("transport.rs")),
            (
                "protocol.rs",
                include_str!("../../netshuffle/src/protocol.rs"),
            ),
        ] {
            assert_warns(file, src, "clippy::cast_possible_truncation");
        }
    }
}
