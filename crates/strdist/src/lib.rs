//! String distances underpinning the Tokenized-String Joiner.
//!
//! This crate implements the character-level machinery of Sec. II-C of
//! *Scalable Similarity Joins of Tokenized Strings* (ICDE 2019):
//!
//! * [`levenshtein()`] — the Levenshtein Distance `LD` (Definition 1),
//!   including the thresholded variant [`levenshtein_within`] that is the
//!   workhorse of candidate verification. Both run on the bit-parallel
//!   kernels of [`myers`] (Myers 1999), with Ukkonen's `O((2k+1)·n)` banded
//!   DP retained as [`levenshtein_within_slices_banded`] for reference and
//!   for the narrow-band long-string regime.
//! * [`nld()`] — the Normalized Levenshtein Distance `NLD` of Li & Liu
//!   (Definition 2), `NLD(x, y) = 2·LD / (|x| + |y| + LD)`, which is a metric
//!   on `[0, 1]`.
//! * [`bounds`] — the numeric relationships of Lemmas 3, 8, 9 and 10 that the
//!   join framework uses to carry an `NLD` threshold into `LD` space
//!   (segment counts, length conditions, pruning lower bounds), and the
//!   character-signature lower bound on `LD`.
//! * [`jaro()`] — Jaro and Jaro–Winkler similarities, needed by the
//!   related-work measures (SoftTfIdf-style matching) that the paper
//!   compares against in Fig. 6.
//!
//! All distances operate on Unicode scalar values (`char`s); ASCII inputs
//! take an allocation-free fast path.

pub mod bounds;
pub mod jaro;
pub mod levenshtein;
pub mod myers;
pub mod nld;

pub use bounds::{
    char_sig, ld_exceeds_bound_given_nld_exceeds, ld_lower_bound_from_sigs, max_ld_given_nld,
    min_len_given_nld, nld_range_from_lens, segments_for_indexed_len,
};
pub use jaro::{jaro, jaro_winkler};
pub use levenshtein::{
    levenshtein, levenshtein_slices, levenshtein_within, levenshtein_within_slices,
    levenshtein_within_slices_banded,
};
pub use myers::PeqUnit;
pub use nld::{nld, nld_from_ld, nld_within};

/// Returns the number of Unicode scalar values in `s`.
///
/// The paper's `|x|` is the length of the string `x`; throughout this
/// workspace lengths are counted in `char`s so that multi-byte names are
/// treated the same way a human reader of the paper would count them.
#[inline]
pub fn char_len(s: &str) -> usize {
    if s.is_ascii() {
        s.len()
    } else {
        s.chars().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn char_len_ascii_and_unicode() {
        assert_eq!(char_len(""), 0);
        assert_eq!(char_len("abc"), 3);
        assert_eq!(char_len("naïve"), 5);
        assert_eq!(char_len("héllo wörld"), 11);
    }
}
