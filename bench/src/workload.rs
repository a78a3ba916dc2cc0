//! The five workloads: inputs, join configuration and cluster, every knob
//! pinned so nothing is read from the environment.

use std::path::{Path, PathBuf};
use std::time::Instant;

use tsj::{ApproximationScheme, DedupStrategy, TsjConfig};
use tsj_mapreduce::{
    Cluster, ClusterConfig, CostModel, DatasetMode, PlanCheck, SchedulerConfig, SchedulerMode,
    ShuffleConfig, Transport,
};
use tsj_tokenize::{Corpus, NameTokenizer};

use crate::spec::{MACHINES, THREADS};
use crate::trace::Tracer;

/// Share of strings planted inside fraud rings (the figure harness's
/// default).
pub const RING_FRACTION: f64 = 0.25;

/// Strings in the brute-force cross-check slice.
pub const SLICE_N: usize = 2_000;

/// `full` is what the benchmark measures; `tiny` (n = 2 000) exists for
/// the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

impl Scale {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "full" => Some(Scale::Full),
            "tiny" => Some(Scale::Tiny),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Tiny => "tiny",
        }
    }

    /// Fewest timed joins a run reports a median over, however short
    /// `--seconds` is.
    pub fn min_timed_joins(self) -> usize {
        match self {
            Scale::Full => 3,
            Scale::Tiny => 1,
        }
    }
}

/// How a workload's shuffle moves records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plane {
    /// Unbounded buffers, in-process handoff.
    InProcess,
    /// Bounded mappers that spill + the multi-process file exchange.
    SpillMultiProcess,
    /// Unbounded buffers + the TCP-loopback network shuffle.
    Remote,
}

#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    /// Corpus size at full scale.
    pub n: usize,
    pub threshold: f64,
    pub max_token_frequency: usize,
    pub scheme: ApproximationScheme,
    pub dedup: DedupStrategy,
    pub plane: Plane,
}

const FUZZY: WorkloadSpec = WorkloadSpec {
    name: "fuzzy-inproc",
    n: 100_000,
    threshold: 0.1,
    max_token_frequency: 500,
    scheme: ApproximationScheme::FuzzyTokenMatching,
    dedup: DedupStrategy::OneString,
    plane: Plane::InProcess,
};

pub const SPECS: &[WorkloadSpec] = &[
    FUZZY,
    WorkloadSpec {
        name: "fuzzy-spill-multiproc",
        plane: Plane::SpillMultiProcess,
        ..FUZZY
    },
    WorkloadSpec {
        name: "fuzzy-remote",
        plane: Plane::Remote,
        ..FUZZY
    },
    WorkloadSpec {
        name: "tokenjoin-heavy",
        n: 400_000,
        threshold: 0.15,
        max_token_frequency: 20,
        ..FUZZY
    },
    WorkloadSpec {
        name: "greedy-bothstrings",
        scheme: ApproximationScheme::GreedyTokenAligning,
        dedup: DedupStrategy::BothStrings,
        ..FUZZY
    },
];

pub fn spec(name: &str) -> Option<&'static WorkloadSpec> {
    SPECS.iter().find(|s| s.name == name)
}

impl WorkloadSpec {
    pub fn n_at(&self, scale: Scale) -> usize {
        match scale {
            Scale::Full => self.n,
            Scale::Tiny => 2_000,
        }
    }

    pub fn tsj_config(&self) -> TsjConfig {
        TsjConfig {
            threshold: self.threshold,
            max_token_frequency: Some(self.max_token_frequency),
            scheme: self.scheme,
            dedup: self.dedup,
            length_filter: true,
            histogram_filter: true,
        }
    }

    /// The shuffle configuration of this workload's data plane. `n`
    /// scales the spill thresholds with the per-task record volume, so a
    /// small corpus still spills.
    fn shuffle_config(&self, n: usize, spill_dir: &Path) -> ShuffleConfig {
        let base = match self.plane {
            Plane::InProcess => ShuffleConfig::unbounded(),
            Plane::SpillMultiProcess => {
                // bounded(2048, 4096) at n = 100 000.
                let spill = (4096 * n / 100_000).clamp(16, 4096);
                ShuffleConfig::bounded(spill / 2, spill).with_transport(Transport::MultiProcess)
            }
            Plane::Remote => ShuffleConfig::unbounded().with_transport(Transport::Remote),
        };
        ShuffleConfig {
            spill_dir: Some(spill_dir.to_path_buf()),
            ..base
        }
    }

    pub fn cluster(&self, n: usize, spill_dir: &Path) -> Cluster {
        pinned_cluster(self.shuffle_config(n, spill_dir))
    }
}

/// A cluster with every knob set explicitly: `Cluster::new` reads the
/// `TSJ_*` environment, and each `with_*` below overrides what it read.
pub fn pinned_cluster(shuffle: ShuffleConfig) -> Cluster {
    Cluster::new(ClusterConfig {
        machines: MACHINES,
        threads: THREADS,
        partitions: 0,
        cost: CostModel::default(),
    })
    .with_shuffle_config(shuffle)
    .with_scheduler(SchedulerConfig {
        mode: SchedulerMode::Stealing,
        ..SchedulerConfig::default()
    })
    .with_dataset_mode(DatasetMode::Lazy)
    .with_plan_check(PlanCheck::Warn)
    .with_auto_repartition(None)
}

/// An unbounded in-process cluster writing under `spill_dir`: the
/// reference configuration, and what the layer replays run on.
pub fn inproc_cluster(spill_dir: &Path) -> Cluster {
    pinned_cluster(ShuffleConfig {
        spill_dir: Some(spill_dir.to_path_buf()),
        ..ShuffleConfig::unbounded()
    })
}

/// Generated strings → corpus, as every workload and check builds it.
pub fn build_corpus(n: usize, seed: u64) -> Corpus {
    let strings = tsj_datagen::workload(n, RING_FRACTION, seed).strings;
    Corpus::build(&strings, &NameTokenizer::default())
}

/// A workload ready to join.
pub struct Ready {
    pub corpus: Corpus,
    pub cluster: Cluster,
    pub cfg: TsjConfig,
    pub spill_dir: PathBuf,
    /// Seconds from parameters to ready-to-join.
    pub setup_secs: f64,
}

/// Sets a workload up from its parameters: generate, tokenize, build the
/// cluster. Spans (when tracing) split the time by layer.
pub fn setup(
    spec: &WorkloadSpec,
    scale: Scale,
    seed: u64,
    spill_dir: &Path,
    tracer: &mut Tracer,
) -> Ready {
    let n = spec.n_at(scale);
    let start = Instant::now();
    let (corpus, cluster) = tracer.span("setup", |t| {
        let strings = t.span("datagen.workload", |_| {
            tsj_datagen::workload(n, RING_FRACTION, seed).strings
        });
        let corpus = t.span("tokenize.corpus_build", |_| {
            Corpus::build(&strings, &NameTokenizer::default())
        });
        let cluster = t.span("mapreduce.cluster_new", |_| spec.cluster(n, spill_dir));
        (corpus, cluster)
    });
    Ready {
        corpus,
        cluster,
        cfg: spec.tsj_config(),
        spill_dir: spill_dir.to_path_buf(),
        setup_secs: start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn every_named_workload_has_a_spec() {
        assert_eq!(SPECS.len(), WORKLOADS.len());
        for w in WORKLOADS {
            assert!(spec(w.name).is_some(), "{} has no spec", w.name);
        }
    }

    #[test]
    fn cluster_knobs_are_pinned() {
        let dir = std::env::temp_dir();
        let spill = spec("fuzzy-spill-multiproc")
            .unwrap()
            .cluster(100_000, &dir);
        assert_eq!(spill.shuffle_config().spill_threshold, Some(4096));
        assert_eq!(spill.shuffle_config().combine_threshold, Some(2048));
        assert_eq!(spill.shuffle_config().transport, Transport::MultiProcess);
        assert_eq!(spill.shuffle_config().spill_dir.as_deref(), Some(&*dir));
        let remote = spec("fuzzy-remote").unwrap().cluster(100_000, &dir);
        assert_eq!(remote.shuffle_config().transport, Transport::Remote);
        assert!(remote.shuffle_config().is_unbounded());
        for c in [&spill, &remote] {
            assert_eq!(c.machines(), MACHINES);
            assert_eq!(c.partitions(), MACHINES);
            assert_eq!(c.scheduler().mode, SchedulerMode::Stealing);
            assert_eq!(c.dataset_mode(), DatasetMode::Lazy);
            assert_eq!(c.auto_repartition(), None);
        }
    }
}
