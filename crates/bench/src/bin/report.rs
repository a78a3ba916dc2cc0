//! Prints the per-job pipeline report of one TSJ join (debug/inspection).
use tsj::{ApproximationScheme, DedupStrategy, TsjConfig, TsjJoiner};
use tsj_bench::FigParams;
use tsj_tokenize::{Corpus, NameTokenizer};

fn main() {
    let p = FigParams::from_env();
    let w = tsj_datagen::workload(p.n, p.ring_fraction, p.seed);
    let corpus = Corpus::build(&w.strings, &NameTokenizer::default());
    println!("n={} distinct_tokens={}", corpus.len(), corpus.num_tokens());
    let cluster = p.cluster(p.default_machines);
    for scheme in [
        ApproximationScheme::FuzzyTokenMatching,
        ApproximationScheme::ExactTokenMatching,
    ] {
        let out = TsjJoiner::new(&cluster)
            .self_join(
                &corpus,
                &TsjConfig {
                    threshold: p.default_t,
                    max_token_frequency: Some(p.default_m),
                    scheme,
                    dedup: DedupStrategy::OneString,
                    ..TsjConfig::default()
                },
            )
            .unwrap();
        println!(
            "\n=== {} : {} pairs, {:.1} sim secs",
            scheme.name(),
            out.pairs.len(),
            out.sim_secs()
        );
        println!("{}", out.report);
        // The dataset layer's headline number (EXPERIMENTS.md): records
        // crossing the driver boundary, vs what collecting every stage
        // into a driver `Vec` and lifting it again (one `Cluster::run*`
        // plan per stage) moves by construction — every job's input +
        // output.
        let collected: u64 = out
            .report
            .jobs()
            .iter()
            .map(|j| j.input_records + j.output_records)
            .sum();
        println!(
            "driver-boundary records: {} chained vs {} collect-based ({:.1}x less)",
            out.report.total_driver_records(),
            collected,
            collected as f64 / out.report.total_driver_records().max(1) as f64
        );
    }
}
