//! Plan-time analysis of lowered [`Dataset`](crate::dataset::Dataset) job
//! graphs.
//!
//! Lowering a plan tree records one [`PlanNodeInfo`] per node (inputs,
//! materialized partition sets, stages) with its consumer edge, and
//! [`analyze_plan`] runs a set of structural checks over that graph
//! *before* any stage executes:
//!
//! * **`empty-input`** — a stage whose transitive static inputs carry zero
//!   records: it can never produce output, so either the graph wiring or
//!   the data feeding it is wrong.
//! * **`unreachable-stage`** — a node whose consumer chain never reaches
//!   the collected terminal: its work would be computed and discarded.
//! * **`union-partition-mismatch`** — a union whose recorded stage
//!   producers are configured with different shuffle partition counts, so
//!   downstream map parallelism is unbalanced by construction. Only
//!   *recorded stages* are compared: materialized partition counts are
//!   data-dependent (empty partitions are dropped), not a plan property.
//! * **`terminal-repartition`** — a
//!   [`repartition`](crate::dataset::Dataset::repartition) stage feeding
//!   the terminal directly: collect concatenates every partition anyway,
//!   so the extra shuffle pass only reorders driver-bound records.
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageInfo {
    /// The stage name (as reported in [`JobStats`](crate::job::JobStats)).
    pub name: String,
    /// Configured shuffle partition count.
    pub partitions: usize,
    /// Whether the stage runs a map-side combiner.
    pub combined: bool,
    /// Whether the shuffle value type is zero-sized (`()`-like): the
    /// reducer can only observe key presence and multiplicity.
    pub value_is_zst: bool,
    /// Whether this is a [`repartition`](crate::dataset::Dataset::repartition)
    /// stage (identity re-routing, no user reduce logic).
    pub is_repartition: bool,
}

/// What one plan node is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
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

/// One node of a lowered plan, with its consumer edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanNodeInfo {
    /// Node id (index into [`PlanInfo::nodes`]). Consumers are always
    /// recorded before their producers, so `consumer < id` in lowered
    /// plans.
    pub id: usize,
    /// The node consuming this node's output; `None` for producers feeding
    /// the collected terminal.
    pub consumer: Option<usize>,
    /// What the node is.
    pub kind: NodeKind,
}

impl PlanNodeInfo {
    /// Display name for diagnostics.
    fn label(&self) -> String {
        match &self.kind {
            NodeKind::Input { records, .. } => format!("input({records} records)"),
            NodeKind::Materialized { partitions, .. } => {
                format!("materialized({partitions} partitions)")
            }
            NodeKind::Stage(s) => s.name.clone(),
        }
    }

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

/// The structural graph a plan lowered into — what [`analyze_plan`] runs
/// over.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlanInfo {
    nodes: Vec<PlanNodeInfo>,
}

impl PlanInfo {
    /// Builds a plan graph from explicit nodes (the builder records them
    /// during lowering; tests construct synthetic shapes directly).
    pub fn from_nodes(nodes: Vec<PlanNodeInfo>) -> Self {
        Self { nodes }
    }

    /// All recorded nodes, in lowering order (consumers before producers).
    pub fn nodes(&self) -> &[PlanNodeInfo] {
        &self.nodes
    }

    /// Critical-path depth of a node — see [`critical_path_depth`].
    pub fn depth_of(&self, id: usize) -> u32 {
        critical_path_depth(&self.nodes, id)
    }
}

/// Critical-path depth of node `id`: hops along its consumer chain to the
/// collected terminal (`consumer: None`). The terminal's direct producers
/// have depth 1, their producers 2, and so on — so *upstream* nodes carry
/// *higher* depths. The scheduler uses this as task priority: scheduling
/// upstream stages first keeps every downstream consumer fed, which is
/// the policy form of cross-stage overlap. Dangling edges and cycles
/// (possible only in synthetic graphs) stop the walk instead of looping.
pub fn critical_path_depth(nodes: &[PlanNodeInfo], id: usize) -> u32 {
    let mut depth = 0u32;
    let mut cur = id;
    // Hop budget = node count: a well-formed chain can't be longer, and a
    // cyclic synthetic graph terminates instead of spinning.
    for _ in 0..nodes.len() {
        match nodes.get(cur).and_then(|n| n.consumer) {
            Some(c) if c < nodes.len() => {
                depth += 1;
                cur = c;
            }
            _ => break,
        }
    }
    depth
}

/// Partition skew of a materialized boundary: the largest partition's
/// record count over the mean across the given (non-empty) partitions.
/// `1.0` means perfectly balanced; the auto-repartition response
/// ([`Cluster::with_auto_repartition`](crate::cluster::Cluster::with_auto_repartition))
/// triggers when this crosses its configured ratio. Degenerate inputs
/// (fewer than two partitions, or no records) report `1.0` — never
/// skewed.
pub fn partition_skew(records: &[u64]) -> f64 {
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
    /// A node whose output never reaches the collected terminal.
    Unreachable {
        /// The dangling node's label.
        node: String,
    },
    /// A union mixing stage producers configured with different partition
    /// counts.
    UnionPartitionMismatch {
        /// The consumer the union feeds (`collect` for the terminal).
        consumer: String,
        /// The producers' configured partition counts, in build order.
        partitions: Vec<usize>,
    },
    /// A repartition stage feeding the terminal directly.
    TerminalRepartition {
        /// The repartition stage's name.
        stage: String,
    },
    /// A repartition whose shuffle pass cannot usefully change the data's
    /// layout: its consumer immediately repartitions again, or its
    /// partition count equals what its stage producers already deliver.
    RedundantRepartition {
        /// The repartition stage's name.
        stage: String,
        /// `Some(consumer_name)` when the consumer repartitions again;
        /// `None` when the count matches the producers'.
        chained_into: Option<String>,
        /// The repartition's configured partition count.
        partitions: usize,
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
            PlanDiagnostic::Unreachable { .. } => "unreachable-stage",
            PlanDiagnostic::UnionPartitionMismatch { .. } => "union-partition-mismatch",
            PlanDiagnostic::TerminalRepartition { .. } => "terminal-repartition",
            PlanDiagnostic::RedundantRepartition { .. } => "redundant-repartition",
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
            PlanDiagnostic::Unreachable { node } => write!(
                f,
                "[unreachable-stage] node `{node}` never reaches the collected \
                 terminal; its work would be discarded"
            ),
            PlanDiagnostic::UnionPartitionMismatch {
                consumer,
                partitions,
            } => write!(
                f,
                "[union-partition-mismatch] union into `{consumer}` mixes stage \
                 partition counts {partitions:?}; downstream map parallelism is \
                 unbalanced by construction"
            ),
            PlanDiagnostic::TerminalRepartition { stage } => write!(
                f,
                "[terminal-repartition] `{stage}` feeds collect directly; the \
                 extra shuffle pass only reorders driver-bound records"
            ),
            PlanDiagnostic::RedundantRepartition {
                stage,
                chained_into: Some(consumer),
                ..
            } => write!(
                f,
                "[redundant-repartition] `{stage}` feeds `{consumer}`, which \
                 immediately repartitions again; the first shuffle pass is wasted"
            ),
            PlanDiagnostic::RedundantRepartition {
                stage,
                chained_into: None,
                partitions,
            } => write!(
                f,
                "[redundant-repartition] `{stage}` repartitions to {partitions} \
                 partitions — the count its producers already deliver; the shuffle \
                 pass moves every record without changing the layout"
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

/// Runs every structural check over a lowered plan under the given
/// shuffle configuration. Diagnostics come out grouped by check, each
/// group in node order.
pub fn analyze_plan(plan: &PlanInfo, shuffle: &ShuffleConfig) -> Vec<PlanDiagnostic> {
    let nodes = plan.nodes();
    let n = nodes.len();
    let mut diags = Vec::new();

    // Producer lists per consumer (terminal producers kept separately).
    let mut producers: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut terminal_producers: Vec<usize> = Vec::new();
    for node in nodes {
        match node.consumer {
            Some(c) if c < n => producers[c].push(node.id),
            // Dangling consumer edge: the reachability walk flags it.
            Some(_) => {}
            None => terminal_producers.push(node.id),
        }
    }

    // ---- unreachable-stage -------------------------------------------
    for node in nodes {
        if !reaches_terminal(nodes, node.id) {
            diags.push(PlanDiagnostic::Unreachable { node: node.label() });
        }
    }

    // ---- empty-input --------------------------------------------------
    // Static output record counts, bottom-up. Consumers are recorded
    // before their producers (consumer id < producer id), so a reverse
    // scan visits producers first. A stage's output count is unknowable
    // statically — except when its entire input is statically empty, in
    // which case it is empty too (and orphaned).
    let mut static_out: Vec<Option<u64>> = vec![None; n];
    for id in (0..n).rev() {
        static_out[id] = match &nodes[id].kind {
            NodeKind::Input { records, .. } => Some(*records),
            NodeKind::Materialized { records, .. } => Some(*records),
            NodeKind::Stage(s) => {
                let feeding = &producers[id];
                let input_records: Option<u64> = if feeding.is_empty() {
                    // Synthetic graphs may omit producers; nothing to say.
                    None
                } else {
                    feeding.iter().map(|&p| static_out[p]).sum::<Option<u64>>()
                };
                match input_records {
                    Some(0) => {
                        diags.push(PlanDiagnostic::EmptyInput {
                            stage: s.name.clone(),
                        });
                        Some(0)
                    }
                    _ => None,
                }
            }
        };
    }

    // ---- union-partition-mismatch ------------------------------------
    // Compare configured partition counts only across *stage* producers:
    // materialized/input partition counts are data-dependent, not a plan
    // property.
    let mut check_union = |consumer: String, prods: &[usize]| {
        if prods.len() < 2 {
            return;
        }
        let stage_parts: Vec<usize> = prods
            .iter()
            .filter(|&&p| matches!(nodes[p].kind, NodeKind::Stage(_)))
            .map(|&p| nodes[p].output_partitions())
            .collect();
        if stage_parts.len() >= 2 && stage_parts.windows(2).any(|w| w[0] != w[1]) {
            diags.push(PlanDiagnostic::UnionPartitionMismatch {
                consumer,
                partitions: stage_parts,
            });
        }
    };
    for (cid, prods) in producers.iter().enumerate() {
        check_union(nodes[cid].label(), prods);
    }
    check_union("collect".to_owned(), &terminal_producers);

    // ---- terminal-repartition ----------------------------------------
    for node in nodes {
        if let NodeKind::Stage(s) = &node.kind {
            if s.is_repartition && node.consumer.is_none() {
                diags.push(PlanDiagnostic::TerminalRepartition {
                    stage: s.name.clone(),
                });
            }
        }
    }

    // ---- redundant-repartition ---------------------------------------
    for node in nodes {
        let NodeKind::Stage(s) = &node.kind else {
            continue;
        };
        if !s.is_repartition {
            continue;
        }
        // Chained: the consumer repartitions again, so this pass's layout
        // never survives to a computation.
        if let Some(c) = node.consumer.filter(|&c| c < n) {
            if let NodeKind::Stage(cs) = &nodes[c].kind {
                if cs.is_repartition {
                    diags.push(PlanDiagnostic::RedundantRepartition {
                        stage: s.name.clone(),
                        chained_into: Some(cs.name.clone()),
                        partitions: s.partitions,
                    });
                    continue;
                }
            }
        }
        // Count-equal: every producer is a stage already configured for
        // the same partition count. Input/materialized producer counts
        // are data-dependent, not a plan property, so mixed graphs stay
        // silent — same reasoning as the union check above.
        let prods = &producers[node.id];
        if !prods.is_empty()
            && prods
                .iter()
                .all(|&p| matches!(nodes[p].kind, NodeKind::Stage(_)))
            && prods
                .iter()
                .all(|&p| nodes[p].output_partitions() == s.partitions)
        {
            diags.push(PlanDiagnostic::RedundantRepartition {
                stage: s.name.clone(),
                chained_into: None,
                partitions: s.partitions,
            });
        }
    }

    // ---- uncombined-dedup-foldable -----------------------------------
    for node in nodes {
        if let NodeKind::Stage(s) = &node.kind {
            if s.value_is_zst && !s.combined && !s.is_repartition {
                diags.push(PlanDiagnostic::UncombinedDedupFoldable {
                    stage: s.name.clone(),
                });
            }
        }
    }

    // ---- merge-fan-in-hazard -----------------------------------------
    // Under a spilling shuffle every producing task contributes at least
    // one sorted run per reduce partition; without a merge_fan_in cap the
    // reduce-side k-way merge opens them all at once.
    if shuffle.spill_threshold.is_some() && shuffle.merge_fan_in.is_none() {
        for node in nodes {
            if !matches!(node.kind, NodeKind::Stage(_)) {
                continue;
            }
            let incoming: usize = producers[node.id]
                .iter()
                .map(|&p| nodes[p].output_partitions())
                .sum();
            if incoming > MERGE_FAN_IN_BUDGET {
                diags.push(PlanDiagnostic::MergeFanInHazard {
                    stage: node.label(),
                    incoming,
                    budget: MERGE_FAN_IN_BUDGET,
                });
            }
        }
    }

    diags
}

/// Whether following consumer edges from `id` reaches a terminal
/// (`consumer: None`) without cycling or dangling.
fn reaches_terminal(nodes: &[PlanNodeInfo], id: usize) -> bool {
    let mut cur = id;
    for _ in 0..=nodes.len() {
        match nodes[cur].consumer {
            None => return true,
            Some(c) if c < nodes.len() => cur = c,
            Some(_) => return false,
        }
    }
    false // cycle
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(id: usize, consumer: Option<usize>, name: &str) -> PlanNodeInfo {
        PlanNodeInfo {
            id,
            consumer,
            kind: NodeKind::Stage(StageInfo {
                name: name.to_owned(),
                partitions: 8,
                combined: false,
                value_is_zst: false,
                is_repartition: false,
            }),
        }
    }

    fn input(id: usize, consumer: Option<usize>, records: u64, tasks: usize) -> PlanNodeInfo {
        PlanNodeInfo {
            id,
            consumer,
            kind: NodeKind::Input { records, tasks },
        }
    }

    #[test]
    fn clean_chain_has_no_diagnostics() {
        let plan = PlanInfo::from_nodes(vec![stage(0, None, "reduce"), input(1, Some(0), 100, 4)]);
        assert!(analyze_plan(&plan, &ShuffleConfig::default()).is_empty());
    }

    #[test]
    fn empty_input_propagates_down_a_chain() {
        // terminal stage <- interior stage <- empty input
        let plan = PlanInfo::from_nodes(vec![
            stage(0, None, "last"),
            stage(1, Some(0), "first"),
            input(2, Some(1), 0, 1),
        ]);
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
    fn dangling_consumer_is_unreachable() {
        let plan = PlanInfo::from_nodes(vec![stage(0, Some(7), "lost")]);
        let diags = analyze_plan(&plan, &ShuffleConfig::default());
        assert!(diags
            .iter()
            .any(|d| matches!(d, PlanDiagnostic::Unreachable { node } if node == "lost")));
    }

    #[test]
    fn consumer_cycle_is_unreachable() {
        let mut a = stage(0, Some(1), "a");
        let b = stage(1, Some(0), "b");
        a.consumer = Some(1);
        let plan = PlanInfo::from_nodes(vec![a, b]);
        let diags = analyze_plan(&plan, &ShuffleConfig::default());
        assert_eq!(
            diags
                .iter()
                .filter(|d| d.code() == "unreachable-stage")
                .count(),
            2
        );
    }

    #[test]
    fn union_mismatch_ignores_materialized_producers() {
        // Two stage producers with equal counts plus a materialized side
        // with a different (data-dependent) count: clean.
        let mat = PlanNodeInfo {
            id: 3,
            consumer: Some(0),
            kind: NodeKind::Materialized {
                partitions: 3,
                records: 10,
            },
        };
        let plan = PlanInfo::from_nodes(vec![
            stage(0, None, "consumer"),
            stage(1, Some(0), "left"),
            stage(2, Some(0), "right"),
            mat,
            input(4, Some(1), 5, 2),
            input(5, Some(2), 5, 2),
        ]);
        assert!(analyze_plan(&plan, &ShuffleConfig::default()).is_empty());
    }

    #[test]
    fn merge_fan_in_hazard_needs_spilling_config_without_cap() {
        let wide_input = input(1, Some(0), 10_000, 100);
        let plan = PlanInfo::from_nodes(vec![stage(0, None, "wide"), wide_input]);
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

    fn repart(id: usize, consumer: Option<usize>, name: &str, partitions: usize) -> PlanNodeInfo {
        PlanNodeInfo {
            id,
            consumer,
            kind: NodeKind::Stage(StageInfo {
                name: name.to_owned(),
                partitions,
                combined: false,
                value_is_zst: false,
                is_repartition: true,
            }),
        }
    }

    #[test]
    fn chained_repartitions_flag_the_upstream_pass() {
        // consumer stage <- repartition(8) <- repartition(4) <- input
        let plan = PlanInfo::from_nodes(vec![
            stage(0, None, "consume"),
            repart(1, Some(0), "repartition(8)", 8),
            repart(2, Some(1), "repartition(4)", 4),
            input(3, Some(2), 100, 2),
        ]);
        let diags = analyze_plan(&plan, &ShuffleConfig::default());
        let codes: Vec<&str> = diags.iter().map(|d| d.code()).collect();
        assert_eq!(codes, ["redundant-repartition"], "{diags:?}");
        assert!(matches!(
            &diags[0],
            PlanDiagnostic::RedundantRepartition {
                stage,
                chained_into: Some(c),
                ..
            } if stage == "repartition(4)" && c == "repartition(8)"
        ));
    }

    #[test]
    fn same_count_repartition_after_a_stage_is_flagged() {
        // consumer <- repartition(8) <- producer stage (8 partitions)
        let plan = PlanInfo::from_nodes(vec![
            stage(0, None, "consume"),
            repart(1, Some(0), "repartition(8)", 8),
            stage(2, Some(1), "produce"),
            input(3, Some(2), 100, 2),
        ]);
        let diags = analyze_plan(&plan, &ShuffleConfig::default());
        assert!(
            diags.iter().any(|d| matches!(
                d,
                PlanDiagnostic::RedundantRepartition {
                    chained_into: None,
                    partitions: 8,
                    ..
                }
            )),
            "{diags:?}"
        );
    }

    #[test]
    fn repartition_from_inputs_or_to_new_counts_is_clean() {
        // Input-fed repartition: the input's task count is data-dependent,
        // so no count claim is possible.
        let from_input = PlanInfo::from_nodes(vec![
            stage(0, None, "consume"),
            repart(1, Some(0), "repartition(8)", 8),
            input(2, Some(1), 100, 8),
        ]);
        assert!(analyze_plan(&from_input, &ShuffleConfig::default()).is_empty());
        // A genuine layout change: producer at 8, repartition to 4.
        let reshapes = PlanInfo::from_nodes(vec![
            stage(0, None, "consume"),
            repart(1, Some(0), "repartition(4)", 4),
            stage(2, Some(1), "produce"),
            input(3, Some(2), 100, 2),
        ]);
        assert!(analyze_plan(&reshapes, &ShuffleConfig::default()).is_empty());
    }

    #[test]
    fn critical_path_depth_counts_hops_to_the_terminal() {
        // terminal stage <- interior stage <- input
        let plan = PlanInfo::from_nodes(vec![
            stage(0, None, "last"),
            stage(1, Some(0), "first"),
            input(2, Some(1), 10, 2),
        ]);
        assert_eq!(plan.depth_of(0), 0);
        assert_eq!(plan.depth_of(1), 1);
        assert_eq!(plan.depth_of(2), 2);
        // Cycles and dangling edges terminate instead of spinning.
        let mut a = stage(0, Some(1), "a");
        let b = stage(1, Some(0), "b");
        a.consumer = Some(1);
        let cyclic = PlanInfo::from_nodes(vec![a, b]);
        assert_eq!(cyclic.depth_of(0), 2);
        let dangling = PlanInfo::from_nodes(vec![stage(0, Some(9), "lost")]);
        assert_eq!(dangling.depth_of(0), 0);
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
