//! The dataset differential harness: the dataset-chained TSJ pipeline
//! ([`TsjJoiner::self_join`]) — which since the lazy DAG executor runs
//! its recorded stages with partition-level cross-stage overlap — must
//! produce output *byte-identical* to eager stage-at-a-time execution
//! ([`DatasetMode::Eager`]), itself pinned to the brute-force join
//! ([`brute_force_self_join`]), across real thread counts, shuffle
//! partition counts, both transports, and bounded/unbounded shuffle
//! memory — while its interior candidate-carrying stages move
//! **zero** records across the driver boundary. A chaining or scheduling
//! bug does not crash; it silently corrupts join output, silently
//! reorders a wave, or silently re-materializes the candidate set — this
//! harness is the deliverable that makes the lazy dataset layer
//! trustworthy.

use std::time::Duration;

use proptest::prelude::*;
use tsj::{
    brute_force_self_join, ApproximationScheme, DedupStrategy, SimilarPair, TsjConfig, TsjJoiner,
};
use tsj_datagen::workload;
use tsj_mapreduce::{
    Cluster, ClusterConfig, DatasetMode, Emitter, OutputSink, SchedulerConfig, SchedulerMode,
    ShuffleConfig, SimReport, StraggleInjection, Transport,
};
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

fn config(t: f64) -> TsjConfig {
    TsjConfig {
        threshold: t,
        max_token_frequency: Some(100),
        // FuzzyTokenMatching pulls the MassJoin sub-pipeline in, so the
        // chained graph exercises every stage shape: uncombined,
        // Count/Dedup-combined, group-overhead verification, and the
        // union of two candidate streams.
        scheme: ApproximationScheme::FuzzyTokenMatching,
        dedup: DedupStrategy::OneString,
        ..TsjConfig::default()
    }
}

fn chained(cluster: &Cluster, corpus: &Corpus, t: f64) -> tsj::JoinOutput {
    TsjJoiner::new(cluster)
        .self_join(corpus, &config(t))
        .unwrap()
}

/// The same pipeline with every dataset stage forced at its call site —
/// the pre-DAG semantics the lazy scheduler must reproduce exactly.
fn chained_eager(cluster: &Cluster, corpus: &Corpus, t: f64) -> tsj::JoinOutput {
    TsjJoiner::new(&cluster.clone().with_dataset_mode(DatasetMode::Eager))
        .self_join(corpus, &config(t))
        .unwrap()
}

fn ids(pairs: &[SimilarPair]) -> Vec<(u32, u32)> {
    pairs.iter().map(|p| (p.a.0, p.b.0)).collect()
}

/// The reference every swept configuration must reproduce byte for byte:
/// the eager run on the plain 4-thread in-process cluster, itself equal
/// to the brute-force join (`config`'s scheme generates complete
/// candidates and verifies exactly, and `M` = 100 cannot bite on 100
/// strings).
fn reference_pairs(corpus: &Corpus, t: f64) -> Vec<SimilarPair> {
    let cluster = cluster_with(4, 0, 16, ShuffleConfig::unbounded());
    let reference = chained_eager(&cluster, corpus, t).pairs;
    assert_eq!(
        ids(&reference),
        ids(&brute_force_self_join(corpus, t, 4)),
        "eager reference vs brute force"
    );
    reference
}

/// The shuffle configurations of the sweep: both transports, unbounded
/// and spill-pressured.
fn shuffle_matrix() -> [ShuffleConfig; 4] {
    [
        ShuffleConfig::unbounded(),
        ShuffleConfig::bounded(8, 8),
        ShuffleConfig::unbounded().with_transport(Transport::MultiProcess),
        ShuffleConfig::bounded(8, 8).with_transport(Transport::MultiProcess),
    ]
}

/// Interior candidate-carrying stages: their output must stay inside the
/// runtime (that is the dataset layer's entire point).
const INTERIOR: [&str; 2] = ["tsj.shared_token", "tsj.expand_similar"];

fn assert_driver_accounting(report: &SimReport, n_strings: u64) {
    for j in report.jobs() {
        if INTERIOR.contains(&j.name.as_str()) {
            assert_eq!(
                j.driver_out_records, 0,
                "interior stage {} materialized records driver-side",
                j.name
            );
        }
        match j.name.as_str() {
            // Driver-fed stages: the crossing is their input length.
            "tsj.token_stats" | "tsj.shared_token" => {
                assert_eq!(j.driver_in_records, n_strings, "{}", j.name);
            }
            // MassJoin's one stage is its collected terminal: its verified
            // pairs cross exactly once.
            "massjoin.candidates" => {
                assert_eq!(j.driver_out_records, j.output_records, "{}", j.name);
            }
            // Runtime-fed stages: nothing crosses inward.
            name if name.starts_with("tsj.dedup_verify") => {
                assert_eq!(j.driver_in_records, 0, "{}", j.name);
                // Everything a collected terminal stage emits crosses
                // exactly once.
                assert_eq!(j.driver_out_records, j.output_records, "{}", j.name);
            }
            _ => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The scheduler-mode guarantee: the priority work-stealing
    /// scheduler and speculative re-execution (with a millisecond
    /// speculation threshold, so copies really launch) both produce
    /// *byte-identical* verified join output — across threads ×
    /// partitions × both transports × bounded/unbounded shuffles — and
    /// the interior stages still cross zero driver records. Scheduling
    /// policy may only ever change wall-clock behaviour and the
    /// observability counters.
    #[test]
    fn scheduler_modes_are_join_output_invariant(
        seed in 0u64..1_000,
        t in 0.05f64..0.2,
    ) {
        let w = workload(100, 0.3, seed);
        let corpus = Corpus::build(&w.strings, &NameTokenizer::default());
        let n = corpus.len() as u64;
        let reference = reference_pairs(&corpus, t);
        let modes = [
            SchedulerConfig {
                mode: SchedulerMode::Stealing,
                ..SchedulerConfig::default()
            },
            SchedulerConfig {
                mode: SchedulerMode::Speculative,
                speculate_after: Duration::from_millis(1),
                straggle: None,
            },
            // Speculation with a seeded straggler on a mid-pipeline
            // stage: the winning copy's output must be indistinguishable
            // from the loser's.
            SchedulerConfig {
                mode: SchedulerMode::Speculative,
                speculate_after: Duration::from_millis(1),
                straggle: Some(StraggleInjection {
                    stage: "tsj.shared_token".into(),
                    micros: 20_000,
                }),
            },
        ];
        for shuffle in [
            ShuffleConfig::unbounded(),
            ShuffleConfig::bounded(8, 8).with_transport(Transport::MultiProcess),
        ] {
            for threads in [2usize, 8] {
                for partitions in [0usize, 5] {
                    for sched in &modes {
                        let cluster = cluster_with(threads, partitions, 16, shuffle.clone())
                            .with_scheduler(sched.clone());
                        let out = chained(&cluster, &corpus, t);
                        prop_assert_eq!(
                            &out.pairs,
                            &reference,
                            "mode = {:?}, straggle = {}, threads = {}, partitions = {}",
                            sched.mode,
                            sched.straggle.is_some(),
                            threads,
                            partitions
                        );
                        assert_driver_accounting(&out.report, n);
                        if sched.mode != SchedulerMode::Speculative {
                            prop_assert_eq!(out.report.total_speculative_launched(), 0);
                            prop_assert_eq!(out.report.total_speculative_won(), 0);
                        }
                    }
                }
            }
        }
    }

    /// The acceptance guarantee: lazy DAG execution (cross-stage
    /// overlap) and eager stage-at-a-time execution produce
    /// *byte-identical* verified join output (ids and distances), equal
    /// to the brute-force join — across ≥3 real thread counts × ≥3
    /// partition counts × both transports × bounded/unbounded shuffles —
    /// and interior stages cross zero driver records in every
    /// configuration.
    #[test]
    fn chained_join_is_byte_identical_to_eager_and_brute_force(
        seed in 0u64..1_000,
        t in 0.05f64..0.2,
    ) {
        let w = workload(100, 0.3, seed);
        let corpus = Corpus::build(&w.strings, &NameTokenizer::default());
        let n = corpus.len() as u64;
        let reference = reference_pairs(&corpus, t);
        for shuffle in shuffle_matrix() {
            for threads in [1usize, 2, 8] {
                let cluster = cluster_with(threads, 0, 16, shuffle.clone());
                let out = chained(&cluster, &corpus, t);
                prop_assert_eq!(&out.pairs, &reference, "lazy, threads = {}", threads);
                assert_driver_accounting(&out.report, n);
                let eager = chained_eager(&cluster, &corpus, t);
                prop_assert_eq!(&eager.pairs, &reference, "eager, threads = {}", threads);
                assert_driver_accounting(&eager.report, n);
            }
            for partitions in [1usize, 5, 64] {
                let cluster = cluster_with(4, partitions, 16, shuffle.clone());
                let out = chained(&cluster, &corpus, t);
                prop_assert_eq!(&out.pairs, &reference, "lazy, partitions = {}", partitions);
                assert_driver_accounting(&out.report, n);
                let eager = chained_eager(&cluster, &corpus, t);
                prop_assert_eq!(&eager.pairs, &reference, "eager, partitions = {}", partitions);
                assert_driver_accounting(&eager.report, n);
            }
        }
    }
}

/// The report of a chained join names every stage in execution order,
/// books the `M` filter's dropped tokens on the token_stats job, and the
/// driver totals decompose into exactly the legitimate crossings.
#[test]
fn chained_report_accounts_for_the_driver_boundary() {
    let w = workload(200, 0.35, 7);
    let corpus = Corpus::build(&w.strings, &NameTokenizer::default());
    let cluster = cluster_with(4, 0, 16, ShuffleConfig::bounded(16, 32));
    let out = TsjJoiner::new(&cluster)
        .self_join(
            &corpus,
            &TsjConfig {
                threshold: 0.15,
                // Tiny M so the filter provably bites.
                max_token_frequency: Some(3),
                ..TsjConfig::default()
            },
        )
        .unwrap();

    // Execution order: token_stats and the one MassJoin stage collect
    // early (their outputs are driver state the later stage closures
    // need); the lazily recorded candidate stages and the verifier all
    // execute at the final collect, in build order.
    let names: Vec<&str> = out.report.jobs().iter().map(|j| j.name.as_str()).collect();
    assert_eq!(
        names,
        vec![
            "tsj.token_stats",
            "massjoin.candidates",
            "tsj.shared_token",
            "tsj.expand_similar",
            "tsj.dedup_verify.one_string",
        ]
    );
    assert_driver_accounting(&out.report, corpus.len() as u64);

    // The dropped-token observability hole is closed: the counter lives
    // on the token_stats job and agrees with a driver-side recount.
    let stats_job = &out.report.jobs()[0];
    let dropped = stats_job.counter("tokens_dropped_by_M");
    assert!(dropped > 0, "M = 3 on 200 names must drop some tokens");
    assert_eq!(out.report.counter("tokens_dropped_by_M"), dropped);

    // Driver crossings: inputs of the driver-fed stages + every collected
    // output — nothing else.
    let expected_in: u64 = out.report.jobs().iter().map(|j| j.driver_in_records).sum();
    let expected_out: u64 = out.report.jobs().iter().map(|j| j.driver_out_records).sum();
    assert_eq!(out.report.total_driver_in_records(), expected_in);
    assert_eq!(out.report.total_driver_out_records(), expected_out);
    assert_eq!(
        out.report.total_driver_records(),
        expected_in + expected_out
    );
    // The rendered report carries the driver column.
    let rendered = format!("{}", out.report);
    assert!(rendered.contains("driver(rec)"));
}

/// Both dedup strategies and all three approximation schemes survive the
/// chaining (exercising the group-overhead dataset stages, the
/// SharedOnly graph without a union, and greedy verification): lazy ==
/// eager byte for byte, and against brute force the exact scheme is equal
/// while the two approximations (greedy aligning, shared-token-only
/// candidates) may only lose pairs.
#[test]
fn all_schemes_and_dedups_match_eager_and_brute_force() {
    let w = workload(120, 0.3, 99);
    let corpus = Corpus::build(&w.strings, &NameTokenizer::default());
    let truth = ids(&brute_force_self_join(&corpus, 0.15, 4));
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
        let cfg = TsjConfig {
            threshold: 0.15,
            max_token_frequency: Some(100),
            scheme,
            dedup,
            ..TsjConfig::default()
        };
        let eager_cluster = cluster_with(4, 0, 16, ShuffleConfig::unbounded())
            .with_dataset_mode(DatasetMode::Eager);
        let reference = TsjJoiner::new(&eager_cluster)
            .self_join(&corpus, &cfg)
            .unwrap()
            .pairs;
        if scheme == ApproximationScheme::FuzzyTokenMatching {
            assert_eq!(ids(&reference), truth, "scheme {scheme:?} vs brute force");
        } else {
            assert!(
                ids(&reference)
                    .iter()
                    .all(|p| truth.binary_search(p).is_ok()),
                "scheme {scheme:?} found a pair brute force did not"
            );
        }
        for shuffle in [
            ShuffleConfig::unbounded(),
            ShuffleConfig::bounded(16, 32).with_transport(Transport::MultiProcess),
        ] {
            let cluster = cluster_with(4, 0, 16, shuffle);
            let chained = TsjJoiner::new(&cluster).self_join(&corpus, &cfg).unwrap();
            assert_eq!(
                chained.pairs, reference,
                "scheme {scheme:?}, dedup {dedup:?}"
            );
            assert_driver_accounting(&chained.report, corpus.len() as u64);
        }
    }
}

/// Bad configurations surface as `JoinError::Config` before any job runs
/// — no panic.
#[test]
fn invalid_configs_error_instead_of_panicking() {
    let corpus = Corpus::build(["a b", "a c"], &NameTokenizer::default());
    let cluster = cluster_with(2, 0, 4, ShuffleConfig::unbounded());
    let joiner = TsjJoiner::new(&cluster);
    for bad in [
        TsjConfig {
            threshold: 0.9,
            ..TsjConfig::default()
        },
        TsjConfig {
            threshold: -0.5,
            ..TsjConfig::default()
        },
        TsjConfig {
            max_token_frequency: Some(0),
            ..TsjConfig::default()
        },
    ] {
        let err = joiner.self_join(&corpus, &bad).unwrap_err();
        assert!(
            matches!(err, tsj::JoinError::Config(_)),
            "expected a config error, got {err:?}"
        );
    }
}

/// Repartition invariance on real workload data: the automatic skew
/// response re-routing a candidate stream by record hash between two
/// pipeline-shaped stages changes partition placement only — the
/// downstream stage's (sorted) output is byte-identical with and without
/// it, across partition counts, transports, and bounded/unbounded
/// shuffles. Eager mode materializes the boundary the response measures;
/// a ratio barely above perfect balance makes it fire on any uneven
/// stream.
#[test]
fn repartition_between_stages_is_output_invariant() {
    let w = workload(150, 0.35, 11);
    let corpus = Corpus::build(&w.strings, &NameTokenizer::default());
    let string_ids: Vec<u32> = (0..corpus.len() as u32).collect();
    for shuffle in [
        ShuffleConfig::unbounded(),
        ShuffleConfig::bounded(8, 8).with_transport(Transport::MultiProcess),
    ] {
        let run = |partitions: usize, auto: bool| {
            let cluster = cluster_with(4, partitions, 16, shuffle.clone())
                .with_dataset_mode(DatasetMode::Eager)
                .with_auto_repartition(auto.then_some(1.0001));
            let (mut out, report) = cluster
                .input(&string_ids)
                .map_reduce(
                    "cand.shared_token",
                    |&s, e: &mut Emitter<u32, u32>| {
                        for &t in corpus.tokens(tsj_tokenize::StringId(s)) {
                            e.emit(t.0, s);
                        }
                    },
                    |_t: &u32, mut sids: Vec<u32>, out: &mut OutputSink<(u32, u32)>| {
                        sids.sort_unstable();
                        sids.dedup();
                        for i in 0..sids.len() {
                            for j in i + 1..sids.len() {
                                out.emit((sids[i], sids[j]));
                            }
                        }
                    },
                )
                .unwrap()
                .map_reduce_combined(
                    "cand.dedup",
                    |&pair: &(u32, u32), e: &mut Emitter<(u32, u32), ()>| e.emit(pair, ()),
                    &tsj_mapreduce::Dedup,
                    |&pair: &(u32, u32), _hits: Vec<()>, out: &mut OutputSink<(u32, u32)>| {
                        out.emit(pair);
                    },
                )
                .unwrap()
                .collect()
                .unwrap();
            out.sort_unstable();
            let second = &report.jobs()[1];
            if auto {
                assert_eq!(second.name, format!("repartition({partitions}).auto"));
                assert_eq!(
                    second.input_records, second.output_records,
                    "repartition({partitions}) must move every record exactly once"
                );
                assert_eq!(second.driver_in_records + second.driver_out_records, 0);
            } else {
                assert_eq!(second.name, "cand.dedup");
            }
            out
        };
        for partitions in [3usize, 32] {
            let plain = run(partitions, false);
            assert!(!plain.is_empty());
            assert_eq!(run(partitions, true), plain, "repartition({partitions})");
        }
    }
}
