//! Memory-bounded shuffle invariants at the pipeline level: a full TSJ
//! self-join run with tiny combine/spill thresholds must produce output
//! byte-identical to the unbounded configuration across thread, partition
//! and machine counts; mapper memory must honour the threshold; and the
//! spilled volume must be visible in (and charged by) the simulation.

use proptest::prelude::*;
use tsj::{ApproximationScheme, DedupStrategy, SimilarPair, TsjConfig, TsjJoiner};
use tsj_datagen::workload;
use tsj_mapreduce::{Cluster, ClusterConfig, ShuffleConfig};
use tsj_tokenize::{Corpus, NameTokenizer};

fn cluster_with(
    threads: usize,
    partitions: usize,
    machines: usize,
    shuffle: ShuffleConfig,
) -> Cluster {
    Cluster::new(ClusterConfig {
        machines,
        threads,
        partitions,
        ..ClusterConfig::default()
    })
    .with_shuffle_config(shuffle)
}

fn join(cluster: &Cluster, corpus: &Corpus, t: f64) -> tsj::JoinOutput {
    TsjJoiner::new(cluster)
        .self_join(
            corpus,
            &TsjConfig {
                threshold: t,
                max_token_frequency: Some(100),
                scheme: ApproximationScheme::FuzzyTokenMatching,
                dedup: DedupStrategy::OneString,
                ..TsjConfig::default()
            },
        )
        .unwrap()
}

fn pairs(cluster: &Cluster, corpus: &Corpus, t: f64) -> Vec<SimilarPair> {
    join(cluster, corpus, t).pairs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The tentpole's behaviour-preservation guarantee: with the spill
    /// threshold forced tiny, the verified join output is *byte-identical*
    /// (ids and distances) to the unbounded run, across real thread
    /// counts, shuffle partition counts, and simulated machine counts.
    #[test]
    fn bounded_join_is_byte_identical_to_unbounded(
        seed in 0u64..1_000,
        t in 0.05f64..0.2,
    ) {
        let w = workload(100, 0.3, seed);
        let corpus = Corpus::build(&w.strings, &NameTokenizer::default());
        let reference =
            pairs(&cluster_with(4, 0, 16, ShuffleConfig::unbounded()), &corpus, t);
        for shuffle in [ShuffleConfig::bounded(24, 48), ShuffleConfig::bounded(8, 8)] {
            for threads in [1usize, 8] {
                let got = pairs(&cluster_with(threads, 0, 16, shuffle.clone()), &corpus, t);
                prop_assert_eq!(&got, &reference, "threads = {}", threads);
            }
            for partitions in [1usize, 5, 64] {
                let got = pairs(&cluster_with(4, partitions, 16, shuffle.clone()), &corpus, t);
                prop_assert_eq!(&got, &reference, "partitions = {}", partitions);
            }
            for machines in [1usize, 64] {
                let got = pairs(&cluster_with(4, 0, machines, shuffle.clone()), &corpus, t);
                prop_assert_eq!(&got, &reference, "machines = {}", machines);
            }
        }
    }

    /// Mapper memory honours the spill threshold on every pipeline job, in
    /// every configuration, including jobs whose mappers emit bursts.
    #[test]
    fn peak_buffered_records_never_exceed_the_threshold(
        seed in 0u64..1_000,
        threshold in 8usize..64,
    ) {
        let w = workload(150, 0.35, seed);
        let corpus = Corpus::build(&w.strings, &NameTokenizer::default());
        let shuffle = ShuffleConfig {
            combine_threshold: Some(threshold / 2),
            spill_threshold: Some(threshold),
            ..ShuffleConfig::default()
        };
        let out = join(&cluster_with(4, 0, 16, shuffle), &corpus, 0.15);
        for j in out.report.jobs() {
            prop_assert!(
                j.peak_buffered_records <= threshold as u64,
                "job {} peaked at {} buffered records (threshold {})",
                j.name, j.peak_buffered_records, threshold
            );
        }
    }
}

/// The spill path must actually engage on a realistic workload, show up in
/// the report totals, and be charged by the cost model — while the
/// unbounded run of the same workload spills nothing.
#[test]
fn report_shows_and_charges_spilled_volume() {
    let w = workload(400, 0.35, 23);
    let corpus = Corpus::build(&w.strings, &NameTokenizer::default());

    let unbounded = join(
        &cluster_with(4, 0, 16, ShuffleConfig::unbounded()),
        &corpus,
        0.15,
    );
    assert_eq!(unbounded.report.total_spilled_records(), 0);
    assert_eq!(unbounded.report.total_spill_bytes(), 0);

    let bounded = join(
        &cluster_with(4, 0, 16, ShuffleConfig::bounded(32, 64)),
        &corpus,
        0.15,
    );
    assert_eq!(
        bounded.pairs, unbounded.pairs,
        "bounded pipeline must reproduce the unbounded result"
    );
    assert!(
        bounded.report.total_spilled_records() > 0,
        "tiny thresholds must force spilling on a 400-string workload"
    );
    assert!(bounded.report.total_spill_bytes() > 0);
    let spilling_jobs: Vec<&str> = bounded
        .report
        .jobs()
        .iter()
        .filter(|j| j.spilled_records > 0)
        .map(|j| j.name.as_str())
        .collect();
    assert!(!spilling_jobs.is_empty());
    for j in bounded.report.jobs() {
        // Spilled records are part of the shuffled volume, and the cost
        // model charges their I/O into the job's simulated time.
        assert!(j.spilled_records <= j.shuffle_records, "{}", j.name);
        if j.spilled_records > 0 {
            assert!(j.spill_bytes > 0, "{}", j.name);
            assert!(j.spill_secs > 0.0, "{} spill I/O not charged", j.name);
        } else {
            assert_eq!(j.spill_secs, 0.0, "{}", j.name);
        }
    }
    // Moving shuffle volume through disk costs simulated time: the bounded
    // pipeline can never be faster than the unbounded one on equal data.
    assert!(
        bounded.report.total_sim_secs() >= unbounded.report.total_sim_secs(),
        "bounded {:.3}s vs unbounded {:.3}s",
        bounded.report.total_sim_secs(),
        unbounded.report.total_sim_secs()
    );
    // The rendered report carries the new column.
    let rendered = format!("{}", bounded.report);
    assert!(rendered.contains("spilled"));
}

/// Both dedup strategies and the greedy scheme survive bounded mappers
/// (they exercise `map_reduce_combined_with_group_overhead` and the massjoin
/// pipeline's `ChunkRole` spill codec).
#[test]
fn all_schemes_and_dedups_match_unbounded_under_spilling() {
    let w = workload(120, 0.3, 99);
    let corpus = Corpus::build(&w.strings, &NameTokenizer::default());
    for (scheme, dedup) in [
        (
            ApproximationScheme::FuzzyTokenMatching,
            DedupStrategy::BothStrings,
        ),
        (
            ApproximationScheme::GreedyTokenAligning,
            DedupStrategy::OneString,
        ),
        (
            ApproximationScheme::ExactTokenMatching,
            DedupStrategy::OneString,
        ),
    ] {
        let run = |shuffle: ShuffleConfig| {
            TsjJoiner::new(&cluster_with(4, 0, 16, shuffle))
                .self_join(
                    &corpus,
                    &TsjConfig {
                        threshold: 0.15,
                        max_token_frequency: Some(100),
                        scheme,
                        dedup,
                        ..TsjConfig::default()
                    },
                )
                .unwrap()
                .pairs
        };
        assert_eq!(
            run(ShuffleConfig::unbounded()),
            run(ShuffleConfig::bounded(16, 32)),
            "scheme {scheme:?}, dedup {dedup:?}"
        );
    }
}
