//! Pin: the shipped TSJ and MassJoin pipeline graphs analyze with zero
//! plan diagnostics — under `PlanCheck::Deny`, so a regression fails the
//! job instead of merely warning. (The HMJ graph has the same pin in
//! `crates/metricjoin/tests/plan_clean.rs`.)
//!
//! The clusters pin `ShuffleConfig::default()` so the pin is about the
//! *graph shape*, independent of the shuffle knobs CI jobs inject via
//! `TSJ_*` environment variables.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tsj::{TsjConfig, TsjJoiner};
use tsj_datagen::{generate_names, plant_rings, NameGenConfig, RingConfig};
use tsj_mapreduce::{Cluster, PlanCheck, ShuffleConfig};
use tsj_passjoin::MassJoin;
use tsj_tokenize::{Corpus, NameTokenizer};

fn strict_cluster() -> Cluster {
    Cluster::with_machines(8)
        .with_shuffle_config(ShuffleConfig::default())
        .with_plan_check(PlanCheck::Deny)
}

fn workload() -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(11);
    let mut strings = generate_names(120, &mut rng, &NameGenConfig::default());
    plant_rings(&mut strings, 8, &mut rng, &RingConfig::default());
    strings
}

#[test]
fn tsj_pipeline_analyzes_clean() {
    let strings = workload();
    let corpus = Corpus::build(&strings, &NameTokenizer::default());
    // Deny mode: any diagnostic fails the join outright.
    let out = TsjJoiner::new(&strict_cluster())
        .self_join(&corpus, &TsjConfig::default())
        .expect("shipped TSJ graph must analyze clean");
    assert!(
        out.report.plan_diagnostics().is_empty(),
        "{:?}",
        out.report.plan_diagnostics()
    );
    assert!(!out.pairs.is_empty(), "workload has planted rings");
}

#[test]
fn massjoin_pipeline_analyzes_clean() {
    let strings = workload();
    let tokens: Vec<&str> = strings.iter().map(|s| s.as_str()).collect();
    let cluster = strict_cluster();
    let (pairs, report) = MassJoin::new(&cluster, 0.2)
        .nld_self_join(&tokens)
        .expect("shipped MassJoin graph must analyze clean");
    assert!(
        report.plan_diagnostics().is_empty(),
        "{:?}",
        report.plan_diagnostics()
    );
    assert!(!pairs.is_empty(), "workload has planted rings");
}
