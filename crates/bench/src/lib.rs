//! Paper-figure harness: regenerates every figure of the paper's evaluation
//! (Sec. V, Figures 1–7) on the synthetic workload substitute.
//!
//! Each `figN` binary prints a TSV with the same series the paper plots,
//! plus notes comparing the measured *shape* against the paper's claims.
//! EXPERIMENTS.md records what each PR measured with them.
//!
//! Scale: the paper joins 44.4M names on 1,000 production machines; this
//! harness joins `TSJ_FIG_N` (default 20,000) names locally and reports
//! *simulated cluster seconds* (see `tsj-mapreduce`). The
//! `TSJ_FIG_CPU_SCALE` factor (default 12,000) maps measured local
//! CPU-seconds to simulated machine-seconds, standing in for the dataset
//! ratio and the paper's 0.5-CPU machines; it affects absolute numbers
//! only, never who wins or how curves bend.
//!
//! Environment knobs: the `TSJ_FIG_*` table in [`params`] (and
//! `crates/bench/ENV.md`); every cluster a figure builds also honours the
//! runtime's own table, [`tsj_mapreduce::env`].

pub mod figures;
pub mod params;

pub use figures::{FigData, Row};
pub use params::FigParams;
