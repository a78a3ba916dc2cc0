//! Cross-crate integration: the full TSJ pipeline against the brute-force
//! reference and the HMJ baseline on one realistic workload, plus the
//! simulated-cluster behaviours the evaluation section depends on.

use tsj_repro::datagen::workload;
use tsj_repro::mapreduce::Cluster;
use tsj_repro::metricjoin::{HmjConfig, HmjJoiner};
use tsj_repro::tokenize::{Corpus, NameTokenizer};
use tsj_repro::tsj::{
    brute_force_self_join, pair_set, ApproximationScheme, DedupStrategy, TsjConfig, TsjJoiner,
};

fn setup(n: usize, seed: u64) -> Corpus {
    let w = workload(n, 0.3, seed);
    Corpus::build(&w.strings, &NameTokenizer::default())
}

#[test]
fn all_three_joiners_agree_on_the_exact_result() {
    // n = 300 keeps every joiner on the same non-trivial workload (rings,
    // shared tokens, empty-tokenization edge cases) while holding the
    // brute-force O(n²) Hungarian-verification reference — the dominant
    // cost of the whole workspace test suite — under ~15 s.
    let corpus = setup(300, 404);
    let cluster = Cluster::with_machines(32);
    let t = 0.15;

    let truth = pair_set(&brute_force_self_join(&corpus, t, 4));

    let tsj = TsjJoiner::new(&cluster)
        .self_join(
            &corpus,
            &TsjConfig {
                threshold: t,
                max_token_frequency: None,
                ..TsjConfig::default()
            },
        )
        .unwrap();
    assert_eq!(pair_set(&tsj.pairs), truth, "TSJ fuzzy != brute force");

    let hmj: std::collections::HashSet<(u32, u32), tsj_repro::mapreduce::FxBuildHasher> =
        HmjJoiner::new(
            &cluster,
            HmjConfig {
                num_centroids: 12,
                max_partition_size: 64,
                ..HmjConfig::default()
            },
        )
        .self_join(&corpus, t)
        .unwrap()
        .pairs
        .iter()
        .map(|p| (p.a, p.b))
        .collect();
    assert_eq!(hmj, truth, "HMJ != brute force");
}

#[test]
fn simulated_runtime_decreases_with_machines() {
    let corpus = setup(800, 405);
    let run = |machines| {
        let cluster = Cluster::with_machines(machines);
        TsjJoiner::new(&cluster)
            .self_join(
                &corpus,
                &TsjConfig {
                    max_token_frequency: Some(100),
                    ..TsjConfig::default()
                },
            )
            .unwrap()
            .sim_secs()
    };
    let slow = run(10);
    let fast = run(500);
    assert!(
        fast < slow,
        "500 machines ({fast:.1}s) should beat 10 machines ({slow:.1}s)"
    );
}

#[test]
fn tsj_does_less_distance_work_than_hmj() {
    // The structural claim behind Fig. 7: TSJ confines expensive NSLD
    // evaluations to filtered candidates; HMJ spends them on partitioning
    // every record against every centroid.
    let corpus = setup(800, 406);
    let cluster = Cluster::with_machines(64);
    let t = 0.1;
    let tsj = TsjJoiner::new(&cluster)
        .self_join(
            &corpus,
            &TsjConfig {
                threshold: t,
                max_token_frequency: Some(100),
                ..TsjConfig::default()
            },
        )
        .unwrap();
    let hmj = HmjJoiner::new(
        &cluster,
        HmjConfig {
            num_centroids: 64,
            max_partition_size: 128,
            ..HmjConfig::default()
        },
    )
    .self_join(&corpus, t)
    .unwrap();
    let tsj_verifications = tsj.report.counter("verified");
    let hmj_distances =
        hmj.report.counter("distance_computations") + hmj.report.counter("pairs_compared");
    assert!(
        hmj_distances > 5 * tsj_verifications,
        "HMJ distance work ({hmj_distances}) should dwarf TSJ verifications ({tsj_verifications})"
    );
}

#[test]
fn pipeline_report_covers_all_stages() {
    let corpus = setup(300, 407);
    let cluster = Cluster::with_machines(16);
    let out = TsjJoiner::new(&cluster)
        .self_join(&corpus, &TsjConfig::default())
        .unwrap();
    // Execution order: the MassJoin stage collects before the lazily
    // recorded candidate stages execute at the final collect.
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
    assert!(out.sim_secs() > 0.0);
    assert!(out.report.jobs().iter().all(|j| j.wall_secs > 0.0));
}

#[test]
fn exact_token_matching_skips_the_token_join_jobs() {
    let corpus = setup(300, 408);
    let cluster = Cluster::with_machines(16);
    let out = TsjJoiner::new(&cluster)
        .self_join(
            &corpus,
            &TsjConfig {
                scheme: ApproximationScheme::ExactTokenMatching,
                ..TsjConfig::default()
            },
        )
        .unwrap();
    assert_eq!(out.report.jobs().len(), 3, "exact mode runs 3 jobs, not 5");
    assert!(!out
        .report
        .jobs()
        .iter()
        .any(|j| j.name.starts_with("massjoin")));
}

#[test]
fn dedup_strategy_changes_worker_counts_not_results() {
    let corpus = setup(500, 409);
    let cluster = Cluster::with_machines(32);
    let run = |dedup| {
        TsjJoiner::new(&cluster)
            .self_join(
                &corpus,
                &TsjConfig {
                    dedup,
                    ..TsjConfig::default()
                },
            )
            .unwrap()
    };
    let one = run(DedupStrategy::OneString);
    let both = run(DedupStrategy::BothStrings);
    assert_eq!(pair_set(&one.pairs), pair_set(&both.pairs));
    let groups = |o: &tsj_repro::tsj::JoinOutput| {
        o.report
            .jobs()
            .iter()
            .find(|j| j.name.starts_with("tsj.dedup_verify"))
            .map(|j| j.reduce_groups)
            .unwrap()
    };
    // "grouping-on-one-string instantiates a worker for each string ...
    // grouping-on-both-strings instantiates a worker for each candidate
    // pair" — pairs outnumber strings-with-candidates.
    assert!(groups(&both) > groups(&one));
}
