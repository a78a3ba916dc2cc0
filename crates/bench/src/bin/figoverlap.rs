//! Measures the cross-stage overlap win: real wall-clock of a
//! candidate→verify pipeline run as one lazy job graph vs chained through
//! the driver, and of speculation against a seeded straggler, per worker
//! thread count (see EXPERIMENTS.md). Env knobs as
//! in the other figure bins (`TSJ_FIG_N`, `TSJ_FIG_SEED`, …).
fn main() {
    let params = tsj_bench::FigParams::from_env();
    tsj_bench::figures::fig_overlap(&params).print_tsv();
}
