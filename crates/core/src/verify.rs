//! Final verification (Sec. III-F): exact or greedy NSLD on a candidate
//! pair, decided under the SLD budget on token ids.
//!
//! The question is thresholded — is `NSLD(a, b) ≤ T`? — so the verifier is
//! told the budget `B = max_sld_given_nsld(L(a), L(b), T)`, the largest SLD
//! that answers yes, before it prices a single edge, and stops paying as
//! soon as `B` is provably spent. Nine verified pairs in ten fail, and
//! each exit lets a failing pair leave early:
//!
//! * an edge whose length gap, character-signature bound, Lemma 10 bound
//!   or stored LD already exceeds `B` is saturated at `B + 1` without
//!   running an edit distance; every other unequal token pair runs a Myers
//!   kernel capped at `B`;
//! * the row-minima sum of the capped bigraph lower-bounds the matching,
//!   so the fill stops the moment it passes `B`;
//! * the Hungarian solver returns as soon as the optimum over the rows
//!   inserted so far passes `B`, the greedy one as soon as its committed
//!   cost does.
//!
//! None of them changes an answer: an optimum `≤ B` uses no saturated edge
//! and an optimum `> B` stays above `B` when edges are capped (the full
//! argument, greedy included, is in `tsj_setdist::sld`), so the output and
//! every reported NSLD are what the unthresholded bigraph gives. The
//! pricing itself is [`FilterContext`]'s — the join
//! verifies with the join's similar-token map, [`verify_pair`] with none.

use tsj_setdist::Aligning;
use tsj_tokenize::{Corpus, StringId};

use crate::filters::FilterContext;

/// Simulated work units for verifying one candidate pair (in the runtime's
/// ~100 ns units): the `O(L(x)*L(y))` token-bigraph construction plus the
/// matching itself -- `O(k^3)` Hungarian or `O(k^2 log k)` greedy
/// (Sec. III-F/III-G5 complexity analysis). This is what makes
/// greedy-token-aligning *simulate* faster as well as run faster.
///
/// A function of lengths and token counts alone, on purpose: the
/// verifier's early exits (see the [module docs](self)) shorten real time,
/// not the work the paper's verifier is modelled to do, so they leave
/// `sim_*` numbers exactly where they were. The simulated clock prices the
/// algorithm; the wall clock measures this implementation of it.
pub fn verification_work_units(
    corpus: &Corpus,
    a: StringId,
    b: StringId,
    aligning: Aligning,
) -> u64 {
    let (la, lb) = (corpus.total_len(a) as u64, corpus.total_len(b) as u64);
    let k = corpus.token_count(a).max(corpus.token_count(b)) as u64;
    let bigraph = (la * lb / 40).max(1);
    let align = match aligning {
        Aligning::Hungarian => k * k * k / 2,
        Aligning::Greedy => k * k * (64 - k.leading_zeros() as u64) / 4,
    };
    bigraph + align.max(1)
}

/// Computes `NSLD` for one candidate pair and returns it when it is within
/// `t` under the chosen aligning.
///
/// The join's verifier without its similar-token map: token pairs are
/// priced by the length gap, the character-signature bound and a capped
/// Myers kernel only, so no Lemma 10 bound is ever applied (nothing was
/// joined to prove one).
///
/// With [`Aligning::Greedy`] the distance is an upper bound on the exact
/// NSLD, so an accepted pair is always a true positive (precision 1.0,
/// Sec. V-B2); some true pairs may be rejected (recall < 1).
pub fn verify_pair(
    corpus: &Corpus,
    a: StringId,
    b: StringId,
    t: f64,
    aligning: Aligning,
) -> Option<f64> {
    FilterContext::new(corpus, t, false, false, None, None).verify(a, b, aligning)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsj_tokenize::NameTokenizer;

    #[test]
    fn verifies_known_pairs() {
        let c = Corpus::build(
            ["chan kalan", "chank alan", "zzz yyy"],
            &NameTokenizer::default(),
        );
        // NSLD = 0.2 (paper example).
        let d = verify_pair(&c, StringId(0), StringId(1), 0.2, Aligning::Hungarian).unwrap();
        assert!((d - 0.2).abs() < 1e-12);
        assert!(verify_pair(&c, StringId(0), StringId(1), 0.19, Aligning::Hungarian).is_none());
        assert!(verify_pair(&c, StringId(0), StringId(2), 0.5, Aligning::Hungarian).is_none());
    }

    #[test]
    fn greedy_never_reports_below_exact() {
        let c = Corpus::build(
            ["ann bee cee", "anne bea see", "ann cee bee"],
            &NameTokenizer::default(),
        );
        for (a, b) in [(0u32, 1u32), (0, 2), (1, 2)] {
            let exact = verify_pair(&c, StringId(a), StringId(b), 0.99, Aligning::Hungarian);
            let greedy = verify_pair(&c, StringId(a), StringId(b), 0.99, Aligning::Greedy);
            if let (Some(e), Some(g)) = (exact, greedy) {
                assert!(g >= e - 1e-12);
            }
        }
    }
}
