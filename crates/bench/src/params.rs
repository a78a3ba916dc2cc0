//! Harness parameters with environment overrides: the `TSJ_FIG_*` rows
//! of the runtime's knob machinery ([`tsj_mapreduce::env`]).
//!
#![doc = include_str!("../ENV.md")]

use tsj_mapreduce::env::{self, Kind, Knob};
use tsj_mapreduce::{Cluster, ClusterConfig, CostModel, ShuffleConfig, Transport};

/// Parameters shared by the figure harnesses.
#[derive(Debug, Clone)]
pub struct FigParams {
    /// Corpus size (paper: 44,382,766; default here: 20,000).
    pub n: usize,
    /// Workload seed.
    pub seed: u64,
    /// Fraction of strings planted inside fraud rings.
    pub ring_fraction: f64,
    /// Machine counts for Figs. 1 and 7 (paper: 100–1,000).
    pub machines_sweep: Vec<usize>,
    /// NSLD thresholds for Figs. 2 and 4 (paper: 0.025–0.225).
    pub thresholds: Vec<f64>,
    /// Max-frequency values for Figs. 3 and 5 (paper: 100–1,000).
    pub m_values: Vec<usize>,
    /// Default `T` (paper: 0.1).
    pub default_t: f64,
    /// Default `M` operating point. The paper uses 1,000 on 44M strings;
    /// `M` scales with corpus size (the paper footnote tunes it per
    /// region), and the equivalent tail cutoff for a 20k corpus is 100.
    pub default_m: usize,
    /// Default machine count (paper: 1,000).
    pub default_machines: usize,
    /// Measured-CPU → simulated-machine-seconds factor (see crate docs).
    pub cpu_scale: f64,
    /// Real execution threads (0 = all cores).
    pub threads: usize,
    /// ROC sample count for Fig. 6 (paper: 10,000).
    pub roc_samples: usize,
    /// Per-mapper record cap for the shuffle-volume figure's
    /// memory-bounded series (the paper's workers have 1 GB RAM; this
    /// models that bound at harness scale). The combine threshold is half
    /// of it.
    pub spill_threshold: usize,
    /// Blocking stall per grouped record, in microseconds, in the overlap
    /// figure's stall-bound series (modeled remote-storage latency).
    pub stall_us: u64,
    /// Sleep injected into one map task, in microseconds, in the overlap
    /// figure's straggler series.
    pub straggle_us: u64,
}

impl Default for FigParams {
    fn default() -> Self {
        Self {
            n: 20_000,
            seed: 0x75_1A11,
            ring_fraction: 0.25,
            machines_sweep: (1..=10).map(|k| k * 100).collect(),
            thresholds: (1..=9).map(|k| k as f64 * 0.025).collect(),
            m_values: (1..=10).map(|k| k * 100).collect(),
            default_t: 0.1,
            default_m: 100,
            default_machines: 1000,
            cpu_scale: 12000.0,
            threads: 0,
            roc_samples: 10_000,
            spill_threshold: 4096,
            stall_us: 20,
            straggle_us: 300_000,
        }
    }
}

const BY_HAND: &str = "by hand";
const OVERLAP_BIN: &str = "EXPERIMENTS.md (`figoverlap`)";

/// The harness's knobs.
const FIG_KNOBS: &[Knob<FigParams>] = &[
    Knob {
        name: "TSJ_FIG_N",
        kind: Kind::Count(|p, n| p.n = n),
        default: "20000",
        set_by: "EXPERIMENTS.md, the verify skill",
        doc: "Corpus size in strings; minutes at the default, use at most 2000 for smoke runs.",
    },
    Knob {
        name: "TSJ_FIG_SEED",
        kind: Kind::Uint(|p, seed| p.seed = seed),
        default: "7674385",
        set_by: "EXPERIMENTS.md",
        doc: "Workload seed; every figure is deterministic given it.",
    },
    Knob {
        name: "TSJ_FIG_CPU_SCALE",
        kind: Kind::Ratio(|p, scale| p.cpu_scale = scale),
        default: "12000",
        set_by: BY_HAND,
        doc: "Measured local CPU-seconds to simulated machine-seconds; absolute numbers only.",
    },
    Knob {
        name: "TSJ_FIG_THREADS",
        kind: Kind::Uint(|p, threads| p.threads = usize::try_from(threads).unwrap_or(0)),
        default: "0 (all cores)",
        set_by: "the verify skill",
        doc: "Real execution threads; output is identical for every value.",
    },
    Knob {
        name: "TSJ_FIG_SPILL_THRESHOLD",
        kind: Kind::Count(|p, cap| p.spill_threshold = cap.max(2)),
        default: "4096",
        set_by: BY_HAND,
        doc: "Per-mapper record cap of the memory-bounded series (at least 2; combine at half).",
    },
    Knob {
        name: "TSJ_FIG_MACHINES",
        kind: Kind::Count(|p, machines| p.default_machines = machines),
        default: "1000",
        set_by: BY_HAND,
        doc: "Simulated machine count where a figure does not sweep it.",
    },
    Knob {
        name: "TSJ_FIG_STALL_US",
        kind: Kind::Uint(|p, us| p.stall_us = us),
        default: "20",
        set_by: OVERLAP_BIN,
        doc: "Blocking stall per grouped record in the stall-bound series, in microseconds.",
    },
    Knob {
        name: "TSJ_FIG_STRAGGLE_US",
        kind: Kind::Uint(|p, us| p.straggle_us = us),
        default: "300000 (300 ms)",
        set_by: OVERLAP_BIN,
        doc: "Sleep injected into one map task in the straggler series, in microseconds.",
    },
];

/// The names the runtime's own check leaves to this table.
fn owns(name: &str) -> bool {
    name.starts_with("TSJ_FIG_")
}

impl FigParams {
    /// Defaults with the `TSJ_FIG_*` environment overrides applied; an
    /// invalid value or an unknown `TSJ_FIG_` name warns on stderr like
    /// the runtime's knobs do.
    #[expect(clippy::disallowed_methods, reason = "the figure harness's knob table")]
    pub fn from_env() -> Self {
        let mut warn = |msg: String| eprintln!("tsj-bench: {msg}");
        env::check_names(
            std::env::vars_os().map(|(name, _)| name),
            owns,
            FIG_KNOBS,
            &mut warn,
        );
        let mut p = Self::default();
        env::apply(FIG_KNOBS, &mut p, |name| std::env::var_os(name), &mut warn);
        p
    }

    /// Tiny parameters for smoke tests (seconds, not minutes).
    pub fn smoke() -> Self {
        Self {
            n: 400,
            machines_sweep: vec![8, 64],
            thresholds: vec![0.05, 0.15],
            m_values: vec![50, 400],
            roc_samples: 400,
            spill_threshold: 64,
            // 1000 machines over 400 strings would mean one string per map
            // task — nothing for combiners (or the shuffle figure) to
            // measure. Join *output* is machine-count-invariant, so the
            // other figures' smoke assertions are unaffected.
            default_machines: 64,
            ..Self::default()
        }
    }

    /// Builds the simulated cluster for a machine count.
    pub fn cluster(&self, machines: usize) -> Cluster {
        Cluster::new(ClusterConfig {
            machines,
            threads: self.threads,
            cost: CostModel {
                cpu_scale: self.cpu_scale,
                ..CostModel::default()
            },
            ..ClusterConfig::default()
        })
    }

    /// [`FigParams::cluster`] with memory-bounded mappers: combine at half
    /// the spill threshold, spill at [`FigParams::spill_threshold`].
    pub fn bounded_cluster(&self, machines: usize) -> Cluster {
        self.cluster(machines)
            .with_shuffle_config(ShuffleConfig::bounded(
                (self.spill_threshold / 2).max(1),
                self.spill_threshold,
            ))
    }

    /// [`FigParams::bounded_cluster`] shuffled over the multi-process
    /// file exchange (the shuffle-volume figure's transport series: the
    /// same memory bound, with every post-combine byte serialized between
    /// workers).
    pub fn multiprocess_cluster(&self, machines: usize) -> Cluster {
        self.cluster(machines).with_shuffle_config(
            ShuffleConfig::bounded((self.spill_threshold / 2).max(1), self.spill_threshold)
                .with_transport(Transport::MultiProcess),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_sweeps() {
        let p = FigParams::default();
        assert_eq!(p.machines_sweep.first(), Some(&100));
        assert_eq!(p.machines_sweep.last(), Some(&1000));
        assert!((p.thresholds[0] - 0.025).abs() < 1e-12);
        assert!((p.thresholds[8] - 0.225).abs() < 1e-12);
        assert_eq!(
            p.m_values,
            vec![100, 200, 300, 400, 500, 600, 700, 800, 900, 1000]
        );
        assert_eq!(p.default_t, 0.1);
        assert_eq!(p.default_m, 100);
    }

    #[test]
    fn every_row_parses_and_falls_back_loudly() {
        let resolve = |vars: &[(&str, &str)]| {
            let mut warnings = Vec::new();
            let mut p = FigParams::default();
            let lookup = |name: &str| {
                let hit = vars.iter().find(|(k, _)| *k == name);
                hit.map(|(_, v)| v.into())
            };
            env::apply(FIG_KNOBS, &mut p, lookup, &mut |msg| warnings.push(msg));
            (p, warnings)
        };
        let (p, warnings) = resolve(&[
            ("TSJ_FIG_N", "800"),
            ("TSJ_FIG_SEED", "11"),
            ("TSJ_FIG_CPU_SCALE", "2.5"),
            ("TSJ_FIG_THREADS", "1"),
            ("TSJ_FIG_SPILL_THRESHOLD", "1"),
            ("TSJ_FIG_MACHINES", "64"),
            ("TSJ_FIG_STALL_US", "5"),
            ("TSJ_FIG_STRAGGLE_US", "9000"),
        ]);
        assert_eq!(warnings, Vec::<String>::new());
        assert_eq!((p.n, p.seed, p.cpu_scale, p.threads), (800, 11, 2.5, 1));
        assert_eq!((p.spill_threshold, p.default_machines), (2, 64));
        assert_eq!((p.stall_us, p.straggle_us), (5, 9000));
        // `TSJ_FIG_N=2k` used to run the 20,000-string default in silence.
        let defaults = format!("{:?}", FigParams::default());
        for knob in FIG_KNOBS {
            let (p, warnings) = resolve(&[(knob.name, "2k")]);
            assert_eq!(format!("{p:?}"), defaults, "{}", knob.name);
            assert_eq!(warnings.len(), 1, "{}: {warnings:?}", knob.name);
            assert!(warnings[0].contains(knob.name), "{warnings:?}");
        }
    }

    #[test]
    fn unknown_figure_names_warn_and_documented_ones_are_rows() {
        let mut warnings = Vec::new();
        let names = ["TSJ_FIG_NN", "TSJ_FIG_N", "TSJ_SPILL_THRESHOLD"];
        env::check_names(names.map(Into::into), owns, FIG_KNOBS, &mut |m| {
            warnings.push(m)
        });
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("TSJ_FIG_NN"), "{warnings:?}");

        // The runtime crate checks the other `TSJ_*` names in these files.
        for text in [
            include_str!("../../../.github/workflows/ci.yml"),
            include_str!("../../../EXPERIMENTS.md"),
            include_str!("../../../.claude/skills/verify/SKILL.md"),
        ] {
            let mut warnings = Vec::new();
            let names = text
                .split(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
                .filter(|token| !token.ends_with('_'));
            env::check_names(names.map(Into::into), owns, FIG_KNOBS, &mut |m| {
                warnings.push(m)
            });
            assert!(warnings.is_empty(), "{warnings:?}");
        }
    }

    #[test]
    fn env_md_is_the_tables_rendering() {
        let rendered = env::render_markdown("Figure-harness knobs (`TSJ_FIG_*`)", FIG_KNOBS);
        assert!(
            include_str!("../ENV.md") == rendered,
            "crates/bench/ENV.md is stale; it should read:\n{rendered}"
        );
    }

    #[test]
    fn smoke_params_are_small() {
        let p = FigParams::smoke();
        assert!(p.n <= 1000);
        assert!(p.machines_sweep.len() <= 3);
    }
}
