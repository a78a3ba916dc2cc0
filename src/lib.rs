//! # tsj-repro — Scalable Similarity Joins of Tokenized Strings
//!
//! Umbrella crate for the reproduction of Metwally & Huang, *Scalable
//! Similarity Joins of Tokenized Strings* (ICDE 2019). It re-exports every
//! workspace crate under one roof for the examples and integration tests;
//! library users should depend on the individual crates:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`strdist`] | `tsj-strdist` | LD, NLD, bounds (Lemmas 3, 8–10), Jaro |
//! | [`tokenize`] | `tsj-tokenize` | tokenizers, `Corpus` (interned strings, postings, the row table) |
//! | [`assignment`] | `tsj-assignment` | Hungarian / greedy matching |
//! | [`setdist`] | `tsj-setdist` | SLD, NSLD (Defs. 3–4, Thm. 2) |
//! | [`mapreduce`] | `tsj-mapreduce` | MapReduce runtime, `Dataset` job graphs + simulated cluster |
//! | [`passjoin`] | `tsj-passjoin` | PassJoin / MassJoin NLD joins |
//! | [`tsj`] | `tsj` | **the TSJ framework** (Sec. III) |
//! | [`metricjoin`] | `tsj-metricjoin` | HMJ metric-space baseline (Sec. V-E) |
//! | [`fuzzyset`] | `tsj-fuzzyset` | weighted FJaccard/FCosine/FDice, ROC |
//! | [`datagen`] | `tsj-datagen` | synthetic names, rings, ROC label sets |

pub use tsj;
pub use tsj_assignment as assignment;
pub use tsj_datagen as datagen;
pub use tsj_fuzzyset as fuzzyset;
pub use tsj_mapreduce as mapreduce;
pub use tsj_metricjoin as metricjoin;
pub use tsj_passjoin as passjoin;
pub use tsj_setdist as setdist;
pub use tsj_strdist as strdist;
pub use tsj_tokenize as tokenize;
