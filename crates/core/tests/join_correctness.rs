//! End-to-end correctness of the TSJ pipeline.
//!
//! The load-bearing claims (Sec. III, V-B):
//!
//! * fuzzy-token-matching ≡ brute force (with `M` disabled): the generate /
//!   filter stages lose nothing, Theorem 3 and the filter soundness hold
//!   end to end;
//! * both dedup strategies produce identical result sets;
//! * the approximations only lose pairs (precision 1.0), with
//!   exact ⊆ {greedy, fuzzy} ⊆ fuzzy;
//! * a finite `M` only loses pairs whose every witness token was dropped.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tsj::{
    brute_force_self_join, pair_set, precision, recall, ApproximationScheme, DedupStrategy,
    TsjConfig, TsjJoiner,
};
use tsj_datagen::workload;
use tsj_mapreduce::Cluster;
use tsj_tokenize::{Corpus, NameTokenizer};

fn corpus_of(strings: &[impl AsRef<str>]) -> Corpus {
    Corpus::build(strings, &NameTokenizer::default())
}

fn join(
    corpus: &Corpus,
    t: f64,
    scheme: ApproximationScheme,
    dedup: DedupStrategy,
    m: Option<usize>,
) -> Vec<tsj::SimilarPair> {
    let cluster = Cluster::with_machines(16);
    TsjJoiner::new(&cluster)
        .self_join(
            corpus,
            &TsjConfig {
                threshold: t,
                max_token_frequency: m,
                scheme,
                dedup,
                ..TsjConfig::default()
            },
        )
        .unwrap()
        .pairs
}

#[test]
fn fuzzy_equals_brute_force_on_fixed_corpus() {
    let ascii = [
        "barak obama",
        "barak obamma",
        "burak ubama",
        "obama barak",
        "chan kalan",
        "chank alan",
        "maria garcia",
        "mariah garcia",
        "maria lopez garcia",
        "wei chen",
        "wei chan",
        "jon smith",
        "jonathan smith",
        "j smith",
        "",
        "  ",
        "bob bob",
        "bob",
        "anna lee kim",
        "ana lee kim",
    ];
    // Names whose byte length differs from their character length, next to
    // their ASCII look-alikes: every layer that measures a token (corpus
    // lengths, `levenshtein`, MassJoin's char table, `nsld_within`) must
    // count characters.
    let multibyte = [
        "José Müller",
        "Jose Muller",
        "Zoë Brontë",
        "Zoe Bronte",
        "Łukasz Żółć",
        "Lukasz Zolc",
        "İbrahim Çelik",
        "Ibrahim Celik",
        "李 小龍",
        "李 小龙",
    ];
    for (strings, thresholds) in [
        (&ascii[..], &[0.05, 0.1, 0.15, 0.25][..]),
        (&multibyte[..], &[0.05, 0.1, 0.15, 0.2, 0.25, 0.3][..]),
    ] {
        let c = corpus_of(strings);
        for &t in thresholds {
            let truth = brute_force_self_join(&c, t, 4);
            for dedup in [DedupStrategy::OneString, DedupStrategy::BothStrings] {
                let got = join(&c, t, ApproximationScheme::FuzzyTokenMatching, dedup, None);
                assert_eq!(
                    pair_set(&got),
                    pair_set(&truth),
                    "t={t} {dedup:?}: TSJ fuzzy != brute force"
                );
                // Distances agree too (both exact).
                for (g, b) in got.iter().zip(truth.iter()) {
                    assert_eq!((g.a, g.b), (b.a, b.b));
                    assert!((g.nsld - b.nsld).abs() < 1e-12);
                }
            }
        }
    }
}

#[test]
fn dedup_strategies_agree() {
    let w = workload(300, 0.3, 17);
    let c = corpus_of(&w.strings);
    for t in [0.1, 0.2] {
        let one = join(
            &c,
            t,
            ApproximationScheme::FuzzyTokenMatching,
            DedupStrategy::OneString,
            None,
        );
        let both = join(
            &c,
            t,
            ApproximationScheme::FuzzyTokenMatching,
            DedupStrategy::BothStrings,
            None,
        );
        assert_eq!(pair_set(&one), pair_set(&both), "t={t}");
    }
}

#[test]
fn approximations_err_on_the_false_negative_side() {
    let w = workload(400, 0.4, 23);
    let c = corpus_of(&w.strings);
    for t in [0.075, 0.15, 0.225] {
        let fuzzy = join(
            &c,
            t,
            ApproximationScheme::FuzzyTokenMatching,
            DedupStrategy::OneString,
            None,
        );
        let greedy = join(
            &c,
            t,
            ApproximationScheme::GreedyTokenAligning,
            DedupStrategy::OneString,
            None,
        );
        let exact = join(
            &c,
            t,
            ApproximationScheme::ExactTokenMatching,
            DedupStrategy::OneString,
            None,
        );

        // Precision 1.0: every reported pair is truly similar.
        assert_eq!(precision(&greedy, &fuzzy), 1.0, "greedy precision at t={t}");
        assert_eq!(precision(&exact, &fuzzy), 1.0, "exact precision at t={t}");

        // Subset structure.
        assert!(pair_set(&greedy).is_subset(&pair_set(&fuzzy)));
        assert!(pair_set(&exact).is_subset(&pair_set(&fuzzy)));

        // Recall ordering observed in the paper: greedy ≈ 1, exact below.
        let rg = recall(&greedy, &fuzzy);
        let re = recall(&exact, &fuzzy);
        assert!(
            rg >= re - 1e-9,
            "greedy recall {rg} < exact recall {re} at t={t}"
        );
        assert!(rg > 0.95, "greedy recall {rg} too low at t={t}");
    }
}

#[test]
fn m_filter_only_loses_pairs() {
    let w = workload(400, 0.3, 31);
    let c = corpus_of(&w.strings);
    let t = 0.1;
    let unfiltered = join(
        &c,
        t,
        ApproximationScheme::FuzzyTokenMatching,
        DedupStrategy::OneString,
        None,
    );
    let mut prev = pair_set(&unfiltered);
    // Decreasing M drops more tokens, monotonically losing candidates.
    for m in [200usize, 50, 10, 2] {
        let got = join(
            &c,
            t,
            ApproximationScheme::FuzzyTokenMatching,
            DedupStrategy::OneString,
            Some(m),
        );
        let set = pair_set(&got);
        assert!(
            set.is_subset(&prev),
            "M={m} must not add pairs over the next-larger M"
        );
        assert_eq!(precision(&got, &unfiltered), 1.0);
        prev = set;
    }
}

#[test]
fn rings_are_recovered() {
    // Planted fraud rings must be substantially reconnected at T = 0.2
    // (1–2 small edits per variant).
    let w = workload(500, 0.5, 41);
    let c = corpus_of(&w.strings);
    let found = pair_set(&join(
        &c,
        0.2,
        ApproximationScheme::FuzzyTokenMatching,
        DedupStrategy::OneString,
        None,
    ));
    let mut ring_pairs = 0usize;
    let mut recovered = 0usize;
    for ring in &w.rings {
        for i in 0..ring.len() {
            for j in i + 1..ring.len() {
                ring_pairs += 1;
                let (a, b) = (ring[i] as u32, ring[j] as u32);
                let key = if a < b { (a, b) } else { (b, a) };
                if found.contains(&key) {
                    recovered += 1;
                }
            }
        }
    }
    let frac = recovered as f64 / ring_pairs.max(1) as f64;
    assert!(
        frac > 0.5,
        "only {recovered}/{ring_pairs} ring pairs recovered at T=0.2"
    );
}

#[test]
fn filters_can_be_disabled_without_changing_results() {
    let w = workload(250, 0.4, 53);
    let c = corpus_of(&w.strings);
    let cluster = Cluster::with_machines(8);
    let truth = pair_set(&brute_force_self_join(&c, 0.15, 4));
    let schemes = [
        ApproximationScheme::FuzzyTokenMatching,
        ApproximationScheme::ExactTokenMatching,
    ];
    let dedups = [DedupStrategy::OneString, DedupStrategy::BothStrings];
    for (scheme, dedup) in schemes.into_iter().flat_map(|s| dedups.map(|d| (s, d))) {
        let run = |length_filter, histogram_filter| {
            let cfg = TsjConfig {
                threshold: 0.15,
                max_token_frequency: None,
                scheme,
                dedup,
                length_filter,
                histogram_filter,
            };
            TsjJoiner::new(&cluster).self_join(&c, &cfg).unwrap()
        };
        // What stage 3 saw and did, from its own job's counters.
        let stage3 = |out: &tsj::JoinOutput, name: &str| {
            let jobs = out.report.jobs();
            let job = jobs
                .iter()
                .find(|j| j.name.starts_with("tsj.dedup_verify"))
                .unwrap();
            job.counter(name)
        };
        let with = run(true, true);
        let length_only = run(true, false);
        let without = run(false, false);
        let ctx = format!("{scheme:?} {dedup:?}");

        assert_eq!(pair_set(&with.pairs), pair_set(&without.pairs), "{ctx}");
        assert_eq!(
            pair_set(&length_only.pairs),
            pair_set(&without.pairs),
            "{ctx}"
        );
        if scheme == ApproximationScheme::FuzzyTokenMatching {
            assert_eq!(pair_set(&with.pairs), truth, "{ctx}");
        }
        // Both filters must actually prune something on this workload.
        assert!(with.report.counter("pruned_length") > 0, "{ctx}");
        assert!(with.report.counter("pruned_histogram") > 0, "{ctx}");
        assert_eq!(without.report.counter("pruned_length"), 0, "{ctx}");
        // The length filter runs where pairs are formed, so stage 3 never
        // books it and sees no more candidates than the unfiltered run.
        for out in [&with, &length_only, &without] {
            assert_eq!(stage3(out, "pruned_length"), 0, "{ctx}");
        }
        assert!(
            stage3(&with, "candidates_distinct") < stage3(&without, "candidates_distinct"),
            "{ctx}"
        );
        assert_eq!(
            stage3(&with, "candidates_distinct"),
            stage3(&length_only, "candidates_distinct"),
            "{ctx}"
        );
        // With only the length filter on, stage 3 prunes nothing.
        assert_eq!(
            stage3(&length_only, "verified"),
            stage3(&length_only, "candidates_distinct"),
            "{ctx}"
        );
        // Filtered run verifies fewer candidates.
        assert!(stage3(&with, "verified") <= stage3(&length_only, "verified"));
        assert!(stage3(&length_only, "verified") <= stage3(&without, "verified"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized end-to-end equivalence: TSJ fuzzy (no M) ≡ brute force on
    /// arbitrary small populations, all dedup strategies.
    #[test]
    fn fuzzy_equals_brute_force_random(seed in 0u64..10_000, t in 0.03f64..0.3) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut strings =
            tsj_datagen::generate_names(40, &mut rng, &tsj_datagen::NameGenConfig::default());
        let rings = tsj_datagen::plant_rings(
            &mut strings, 4, &mut rng, &tsj_datagen::RingConfig::default());
        let _ = rings;
        let c = corpus_of(&strings);
        let truth = pair_set(&brute_force_self_join(&c, t, 4));
        for dedup in [DedupStrategy::OneString, DedupStrategy::BothStrings] {
            let got = pair_set(&join(
                &c, t, ApproximationScheme::FuzzyTokenMatching, dedup, None));
            prop_assert_eq!(&got, &truth, "dedup={:?} t={}", dedup, t);
        }
    }
}
