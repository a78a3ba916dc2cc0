//! Setwise Levenshtein distances over tokenized strings (Sec. II-D, III-F).
//!
//! This crate implements the paper's primary metric contribution:
//!
//! * [`sld()`] — the Setwise Levenshtein Distance (Definition 3): the minimum
//!   number of character-level edits, with free `AddEmptyToken` /
//!   `RemoveEmptyToken` set-level edits, transforming one token multiset
//!   into another. Computed exactly as a minimum-weight perfect matching on
//!   the ε-padded token bigraph (Sec. III-F, Hungarian algorithm) in
//!   `O(L(xᵗ)·L(yᵗ) + max(T(xᵗ),T(yᵗ))³)`.
//! * [`nsld`] — the Normalized SLD (Definition 4):
//!   `NSLD = 2·SLD / (L(xᵗ) + L(yᵗ) + SLD)`, a metric on `[0, 1]`
//!   (Theorem 2, Lemma 5).
//! * [`sld_greedy`] / [`nsld_greedy`] — the greedy-token-aligning
//!   approximation (Sec. III-G5), an upper bound on the exact distance.
//! * [`nsld_within`] — thresholded verification with the Lemma 6 length
//!   pre-filter and the SLD budget derived from `T`, solved by
//!   [`sld_within`] on a capped bigraph that gives up as soon as the
//!   budget is provably spent; [`nsld_within_priced`] is the same verdict
//!   over a caller's edge pricing (TSJ's verifier prices token ids).
//! * [`bounds`] — the Lemma 6 length lower bound and the
//!   sorted-token-length SLD lower bound behind the TSJ histogram filter
//!   (Sec. III-E2).

pub mod bounds;
pub mod sld;

pub use bounds::{
    max_sld_given_nsld, nsld_lower_bound_from_total_lens, sld_lower_bound_sorted_lens,
};
pub use sld::{
    nsld, nsld_from_sld, nsld_greedy, nsld_within, nsld_within_priced, sld, sld_greedy, sld_within,
    Aligning,
};
