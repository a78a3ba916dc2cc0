//! Plan-time analysis of lowered [`Dataset`](crate::dataset::Dataset) job
//! graphs.
//!
//! A plan is a tree — every handle is consumed by the one stage or union
//! that wraps it — and lowering returns that tree as `PlanShape`s (inputs,
//! materialized partition sets, stages; a union is its consumer having
//! several producers). `analyze_plan` walks it and runs a set of structural
//! checks *before* any stage executes:
//!
//! * **`empty-input`** — a stage whose transitive static inputs carry zero
//!   records: it can never produce output, so either the graph wiring or
//!   the data feeding it is wrong.
//! * **`uncombined-dedup-foldable`** — a stage shuffling zero-sized
//!   values without a combiner: the reducer can only observe key
//!   presence, so a [`Dedup`](crate::shuffle::Dedup) combiner would fold
//!   shuffle volume at no semantic cost (the paper's map-side-aggregation
//!   argument, Sec. III-G1).
//! * **`merge-fan-in-hazard`** — under the active
//!   [`ShuffleConfig`](crate::shuffle::ShuffleConfig), a spilling stage
//!   whose estimated incoming segment count exceeds
//!   [`MERGE_FAN_IN_BUDGET`] while no
//!   [`merge_fan_in`](crate::shuffle::ShuffleConfig::merge_fan_in) cap is
//!   set: its reduce tasks may open one file handle per spilled run.
//!
//! Every stage of a cluster shuffles into the cluster's one partition
//! count, and a union only joins handles of one cluster, so partition
//! counts need no check of their own.
//!
//! Diagnostics surface through
//! [`SimReport::plan_diagnostics`](crate::report::SimReport::plan_diagnostics)
//! (warn mode, the default) or fail the terminal with
//! [`JobError::Plan`](crate::job::JobError::Plan) when the cluster runs
//! with [`PlanCheck::Deny`]
//! ([`Cluster::with_plan_check`](crate::cluster::Cluster::with_plan_check)).

use crate::shuffle::ShuffleConfig;

/// Reduce tasks merging more sorted runs than this in one pass are flagged
/// when no [`merge_fan_in`](crate::shuffle::ShuffleConfig::merge_fan_in)
/// cap bounds them — a typical per-process open-file budget share for one
/// worker's k-way merge.
pub const MERGE_FAN_IN_BUDGET: usize = 64;

/// Structural metadata of one recorded stage (see [`NodeKind::Stage`]).
#[derive(Debug)]
pub(crate) struct StageInfo {
    /// The stage name (as reported in [`JobStats`](crate::job::JobStats)).
    pub(crate) name: String,
    /// Configured shuffle partition count (the cluster's).
    pub(crate) partitions: usize,
    /// Whether the stage runs a map-side combiner.
    pub(crate) combined: bool,
    /// Whether the shuffle value type is zero-sized (`()`-like): the
    /// reducer can only observe key presence and multiplicity.
    pub(crate) value_is_zst: bool,
    /// Stages between this one's output and the collected terminal (0 for
    /// the terminal's own producers, +1 per consuming stage; a union adds
    /// none). It is the stage's pool priority: upstream stages outrank the
    /// consumers waiting on them, so the scheduler keeps every downstream
    /// map wave fed — cross-stage overlap by policy, not by luck.
    pub(crate) depth: u32,
}

/// What one plan node is.
#[derive(Debug)]
pub(crate) enum NodeKind {
    /// A driver-resident input slice ([`Cluster::input`](crate::cluster::Cluster::input)).
    Input {
        /// Records the slice holds.
        records: u64,
        /// Map tasks the consuming stage will chunk it into.
        tasks: usize,
    },
    /// Already-executed stage output resident in the runtime.
    Materialized {
        /// Non-empty partitions held.
        partitions: usize,
        /// Total records across them.
        records: u64,
    },
    /// A recorded, not-yet-executed stage.
    Stage(StageInfo),
}

/// One node of a lowered plan with the subtrees feeding it, producers in
/// build order (a union's left side first). The slice lowering returns for
/// the whole plan is the collected terminal's producers.
#[derive(Debug)]
pub(crate) struct PlanShape {
    pub(crate) kind: NodeKind,
    pub(crate) producers: Vec<PlanShape>,
}

impl PlanShape {
    /// Statically estimated number of output partitions this node delivers
    /// to its consumer's map wave.
    fn output_partitions(&self) -> usize {
        match &self.kind {
            NodeKind::Input { tasks, .. } => *tasks,
            NodeKind::Materialized { partitions, .. } => *partitions,
            NodeKind::Stage(s) => s.partitions,
        }
    }
}

/// Partition skew of a materialized boundary: the largest partition's
/// record count over the mean across the given (non-empty) partitions.
/// `1.0` means perfectly balanced; the auto-repartition response
/// ([`Cluster::with_auto_repartition`](crate::cluster::Cluster::with_auto_repartition))
/// triggers when this crosses its configured ratio. Degenerate inputs
/// (fewer than two partitions, or no records) report `1.0` — never
/// skewed.
pub(crate) fn partition_skew(records: &[u64]) -> f64 {
    if records.len() < 2 {
        return 1.0;
    }
    let total: u64 = records.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let max = records.iter().copied().max().unwrap_or(0);
    let mean = total as f64 / records.len() as f64;
    max as f64 / mean
}

/// One structural finding about a lowered plan. Stable codes (see
/// [`PlanDiagnostic::code`]) make the set greppable; `Display` renders the
/// human-readable explanation.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanDiagnostic {
    /// A stage whose transitive static inputs are empty.
    EmptyInput {
        /// The orphaned stage's name.
        stage: String,
    },
    /// A stage shuffling zero-sized values without a combiner.
    UncombinedDedupFoldable {
        /// The stage's name.
        stage: String,
    },
    /// A spilling stage whose estimated merge fan-in exceeds the budget
    /// with no configured cap.
    MergeFanInHazard {
        /// The stage's name.
        stage: String,
        /// Statically estimated incoming segment count (≥ one sorted run
        /// per producing task under a spilling shuffle).
        incoming: usize,
        /// The budget it exceeds ([`MERGE_FAN_IN_BUDGET`]).
        budget: usize,
    },
}

impl PlanDiagnostic {
    /// Stable machine-readable code for this diagnostic kind.
    pub fn code(&self) -> &'static str {
        match self {
            PlanDiagnostic::EmptyInput { .. } => "empty-input",
            PlanDiagnostic::UncombinedDedupFoldable { .. } => "uncombined-dedup-foldable",
            PlanDiagnostic::MergeFanInHazard { .. } => "merge-fan-in-hazard",
        }
    }
}

impl std::fmt::Display for PlanDiagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanDiagnostic::EmptyInput { stage } => write!(
                f,
                "[empty-input] stage `{stage}` consumes a statically empty input \
                 and can never produce output"
            ),
            PlanDiagnostic::UncombinedDedupFoldable { stage } => write!(
                f,
                "[uncombined-dedup-foldable] stage `{stage}` shuffles zero-sized \
                 values without a combiner; a Dedup combiner would fold shuffle \
                 volume at no semantic cost"
            ),
            PlanDiagnostic::MergeFanInHazard {
                stage,
                incoming,
                budget,
            } => write!(
                f,
                "[merge-fan-in-hazard] stage `{stage}` may merge ~{incoming} \
                 spilled runs per reduce task (budget {budget}) under the active \
                 spilling ShuffleConfig; set merge_fan_in to bound open files"
            ),
        }
    }
}

/// Whether diagnosed plans still execute; pinned through
/// [`Cluster::with_plan_check`](crate::cluster::Cluster::with_plan_check).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PlanCheck {
    /// Record diagnostics in the terminal's
    /// [`SimReport`](crate::report::SimReport) and execute anyway (the
    /// default).
    #[default]
    Warn,
    /// Fail the terminal with [`JobError::Plan`](crate::job::JobError)
    /// before any stage executes — for tests pinning graphs clean.
    Deny,
}

/// Runs every structural check over a lowered plan — `roots` are the
/// collected terminal's producers — under the given shuffle configuration.
/// Diagnostics come out grouped by check, each group in build order.
pub(crate) fn analyze_plan(roots: &[PlanShape], shuffle: &ShuffleConfig) -> Vec<PlanDiagnostic> {
    let mut diags = Vec::new();

    // ---- empty-input --------------------------------------------------
    for root in roots.iter().rev() {
        static_records(root, &mut diags);
    }

    // ---- uncombined-dedup-foldable -----------------------------------
    pre_order(roots, &mut |node| {
        if let NodeKind::Stage(s) = &node.kind {
            if s.value_is_zst && !s.combined {
                diags.push(PlanDiagnostic::UncombinedDedupFoldable {
                    stage: s.name.clone(),
                });
            }
        }
    });

    // ---- merge-fan-in-hazard -----------------------------------------
    // Under a spilling shuffle every producing task contributes at least
    // one sorted run per reduce partition; without a merge_fan_in cap the
    // reduce-side k-way merge opens them all at once.
    if shuffle.spill_threshold.is_some() && shuffle.merge_fan_in.is_none() {
        pre_order(roots, &mut |node| {
            let NodeKind::Stage(s) = &node.kind else {
                return;
            };
            let incoming: usize = node
                .producers
                .iter()
                .map(PlanShape::output_partitions)
                .sum();
            if incoming > MERGE_FAN_IN_BUDGET {
                diags.push(PlanDiagnostic::MergeFanInHazard {
                    stage: s.name.clone(),
                    incoming,
                    budget: MERGE_FAN_IN_BUDGET,
                });
            }
        });
    }

    diags
}

/// Calls `f(node)` on every node of the forest, each node before its
/// producers, producers in build order.
fn pre_order(nodes: &[PlanShape], f: &mut impl FnMut(&PlanShape)) {
    for node in nodes {
        f(node);
        pre_order(&node.producers, f);
    }
}

/// A node's static output record count, flagging every statically empty
/// stage on the way. A stage's output count is unknowable statically —
/// except when its entire input is statically empty, in which case it is
/// empty too (and orphaned). Producers are visited last-built first, each
/// before its consumer.
fn static_records(node: &PlanShape, diags: &mut Vec<PlanDiagnostic>) -> Option<u64> {
    match &node.kind {
        NodeKind::Input { records, .. } | NodeKind::Materialized { records, .. } => Some(*records),
        NodeKind::Stage(s) => {
            let mut input_records = Some(0);
            for producer in node.producers.iter().rev() {
                let records = static_records(producer, diags);
                input_records = input_records.zip(records).map(|(a, b)| a + b);
            }
            if input_records == Some(0) {
                diags.push(PlanDiagnostic::EmptyInput {
                    stage: s.name.clone(),
                });
            }
            input_records.filter(|&n| n == 0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(name: &str, producers: Vec<PlanShape>) -> PlanShape {
        PlanShape {
            kind: NodeKind::Stage(StageInfo {
                name: name.to_owned(),
                partitions: 8,
                combined: false,
                value_is_zst: false,
                depth: 0,
            }),
            producers,
        }
    }

    fn input(records: u64, tasks: usize) -> PlanShape {
        PlanShape {
            kind: NodeKind::Input { records, tasks },
            producers: Vec::new(),
        }
    }

    #[test]
    fn clean_chain_has_no_diagnostics() {
        let plan = [stage("reduce", vec![input(100, 4)])];
        assert!(analyze_plan(&plan, &ShuffleConfig::default()).is_empty());
    }

    #[test]
    fn empty_input_propagates_down_a_chain() {
        // terminal stage <- interior stage <- empty input
        let plan = [stage("last", vec![stage("first", vec![input(0, 1)])])];
        let diags = analyze_plan(&plan, &ShuffleConfig::default());
        let empties: Vec<&str> = diags
            .iter()
            .filter_map(|d| match d {
                PlanDiagnostic::EmptyInput { stage } => Some(stage.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(empties, ["first", "last"]);
    }

    #[test]
    fn merge_fan_in_hazard_needs_spilling_config_without_cap() {
        let plan = [stage("wide", vec![input(10_000, 100)])];
        // Unbounded: clean.
        assert!(analyze_plan(&plan, &ShuffleConfig::default()).is_empty());
        // Spilling without a cap: hazard.
        let spilling = ShuffleConfig::bounded(32, 48);
        let diags = analyze_plan(&plan, &spilling);
        assert!(
            diags
                .iter()
                .any(|d| matches!(d, PlanDiagnostic::MergeFanInHazard { incoming: 100, .. })),
            "{diags:?}"
        );
        // Spilling with a cap: clean again.
        assert!(analyze_plan(&plan, &spilling.with_merge_fan_in(8)).is_empty());
    }

    #[test]
    fn partition_skew_is_max_over_mean() {
        assert_eq!(partition_skew(&[]), 1.0);
        assert_eq!(partition_skew(&[100]), 1.0);
        assert_eq!(partition_skew(&[0, 0]), 1.0);
        assert_eq!(partition_skew(&[10, 10, 10, 10]), 1.0);
        // One fat partition: 40 vs mean 10 → skew 4.
        assert_eq!(partition_skew(&[40, 0, 0, 0]), 4.0);
        assert!((partition_skew(&[30, 5, 5]) - 2.25).abs() < 1e-12);
    }

    #[test]
    fn diagnostics_render_their_codes() {
        let d = PlanDiagnostic::UncombinedDedupFoldable { stage: "x".into() };
        assert_eq!(d.code(), "uncombined-dedup-foldable");
        assert!(d.to_string().contains("[uncombined-dedup-foldable]"));
        assert!(d.to_string().contains('x'));
    }
}
