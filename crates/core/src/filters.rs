//! Candidate-pair pruning (Sec. III-E): the length filter and the
//! histogram / Lemma 10 SLD lower-bound filter.
//!
//! Both filters are *sound*: a pruned pair provably has `NSLD > T`, so
//! fuzzy-token-matching remains exactly equal to the brute-force join (the
//! property tests in `tests/` check this end to end).
//!
//! One [`FilterContext`] per join serves every stage, each calling the
//! half it is responsible for: the candidate-generating stages ask
//! `passes_length` before a pair is emitted (it reads two integers, so a
//! rejected pair is never shuffled), and `tsj.dedup_verify` asks
//! `passes_histogram` of the de-duplicated survivors. Each answers `true`
//! when its filter is switched off. [`check`](FilterContext::check) runs
//! both in the paper's order for callers that hold a pair and want the
//! verdict. The Lemma 6 arithmetic lives in `passes_length` alone, so
//! every caller rounds the same way.

use std::collections::HashMap;

use tsj_mapreduce::FxBuildHasher;
use tsj_setdist::{nsld_from_sld, nsld_lower_bound_from_total_lens, sld_lower_bound_sorted_lens};
use tsj_strdist::ld_exceeds_bound_given_nld_exceeds;
use tsj_tokenize::{Corpus, StringId, TokenId};

/// Exact LDs of every NLD-similar token pair among the join-eligible
/// tokens, keyed by canonical `(min, max)` token-id pair.
///
/// Produced by the MassJoin stage; consumed by the Lemma 10 component of
/// the histogram filter ("for the matched tokens, the character-level edit
/// operations are already computed during the candidate generation phase").
pub type SimilarMap = HashMap<(u32, u32), u32, FxBuildHasher>;

/// Per-join pruning context shared by all verification reducers.
pub struct FilterContext<'a> {
    corpus: &'a Corpus,
    t: f64,
    length_on: bool,
    histogram_on: bool,
    /// Similar-token LDs; `None` when the similar-token stage did not run
    /// (exact-token-matching) — Lemma 10 is then inapplicable and the
    /// filter falls back to pure length bounds.
    similar: Option<&'a SimilarMap>,
    /// `eligible[token]` = token survived the `M` filter. Lemma 10 may only
    /// be applied to pairs of eligible tokens (others were never joined).
    eligible: Option<&'a [bool]>,
}

/// Outcome of filtering, tagged with which filter fired (for counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterVerdict {
    /// The pair survives; verification must run.
    Survives,
    /// Pruned by the Lemma 6 aggregate-length bound.
    PrunedByLength,
    /// Pruned by the SLD lower bound (histogram + matched LDs + Lemma 10).
    PrunedByHistogram,
}

impl<'a> FilterContext<'a> {
    pub fn new(
        corpus: &'a Corpus,
        t: f64,
        length_on: bool,
        histogram_on: bool,
        similar: Option<&'a SimilarMap>,
        eligible: Option<&'a [bool]>,
    ) -> Self {
        Self {
            corpus,
            t,
            length_on,
            histogram_on,
            similar,
            eligible,
        }
    }

    /// Applies the enabled filters to a candidate pair.
    pub fn check(&self, a: StringId, b: StringId) -> FilterVerdict {
        if !self.passes_length(a, b) {
            return FilterVerdict::PrunedByLength;
        }
        if !self.passes_histogram(a, b) {
            return FilterVerdict::PrunedByHistogram;
        }
        FilterVerdict::Survives
    }

    /// Lemma 6: prune when the aggregate-length lower bound on NSLD
    /// already exceeds `T` (Sec. III-E1). Always passes with the length
    /// filter off.
    #[inline]
    pub(crate) fn passes_length(&self, a: StringId, b: StringId) -> bool {
        if !self.length_on {
            return true;
        }
        let (la, lb) = (self.corpus.total_len(a), self.corpus.total_len(b));
        nsld_lower_bound_from_total_lens(la, lb) <= self.t
    }

    /// Sec. III-E2: a lower bound on `SLD(a, b)` assembled from
    ///
    /// * the sorted token-length histograms (every matching pays at least
    ///   the length difference per aligned pair), and
    /// * a per-token-pair cost matrix refined with the *known* LDs of
    ///   similar tokens and the Lemma 10 bound for provably-dissimilar
    ///   eligible pairs, lower-bounded by its row-minima sum (a sound
    ///   relaxation of the assignment optimum).
    ///
    /// Prunes when `NSLD(lower bound) > T`. Always passes with the
    /// histogram filter off.
    pub(crate) fn passes_histogram(&self, a: StringId, b: StringId) -> bool {
        if !self.histogram_on {
            return true;
        }
        let (la, lb) = (self.corpus.total_len(a), self.corpus.total_len(b));
        let budget_check = |sld_lb: u64| nsld_from_sld(sld_lb, la, lb) <= self.t;

        // Component 1: sorted-histogram bound.
        let (ha, hb) = (self.corpus.sorted_lens(a), self.corpus.sorted_lens(b));
        if !budget_check(sld_lower_bound_sorted_lens(ha, hb)) {
            return false;
        }

        // Component 2: Lemma 10-refined row-minima bound (fuzzy mode only).
        if self.similar.is_none() {
            return true;
        }
        let ta = self.corpus.tokens(a);
        let tb = self.corpus.tokens(b);
        let k = ta.len().max(tb.len());
        if k == 0 {
            return true;
        }
        let mut total: u64 = 0;
        for i in 0..k {
            let mut row_min = u64::MAX;
            for j in 0..k {
                let cost = match (ta.get(i), tb.get(j)) {
                    (None, None) => 0,
                    (Some(&x), None) => self.corpus.token_len(x) as u64,
                    (None, Some(&y)) => self.corpus.token_len(y) as u64,
                    (Some(&x), Some(&y)) => self.pair_lower_bound(x, y),
                };
                row_min = row_min.min(cost);
                if row_min == 0 {
                    break;
                }
            }
            total += row_min;
        }
        budget_check(total)
    }

    /// Sound lower bound on `LD(x, y)` for one token pair.
    fn pair_lower_bound(&self, x: TokenId, y: TokenId) -> u64 {
        if x == y {
            return 0;
        }
        let (lx, ly) = (self.corpus.token_len(x), self.corpus.token_len(y));
        let len_diff = lx.abs_diff(ly) as u64;
        let key = if x.0 <= y.0 { (x.0, y.0) } else { (y.0, x.0) };
        if let Some(&ld) = self.similar.and_then(|m| m.get(&key)) {
            // Matched during candidate generation: the LD is known exactly.
            return ld as u64;
        }
        // Not in the similar set. If both tokens were eligible for the
        // token join, the join's completeness proves NLD(x, y) > T, so
        // Lemma 10 applies; otherwise only the length gap is sound.
        let both_eligible = match self.eligible {
            Some(el) => el[x.index()] && el[y.index()],
            None => true,
        };
        if both_eligible {
            let l10 = ld_exceeds_bound_given_nld_exceeds(lx, ly, self.t) as u64 + 1;
            len_diff.max(l10)
        } else {
            len_diff
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsj_passjoin::nld_self_join_serial;
    use tsj_setdist::nsld;
    use tsj_tokenize::NameTokenizer;

    fn corpus(strings: &[&str]) -> Corpus {
        Corpus::build(strings, &NameTokenizer::default())
    }

    fn similar_map(c: &Corpus, t: f64) -> SimilarMap {
        let tokens: Vec<&str> = c.token_ids().map(|id| c.token_text(id)).collect();
        nld_self_join_serial(&tokens, t)
            .into_iter()
            .map(|p| ((p.a, p.b), p.ld))
            .collect()
    }

    /// The filters never prune a truly similar pair (soundness), across a
    /// grid of thresholds.
    #[test]
    fn filters_are_sound() {
        let strings = [
            "barak obama",
            "barak obamma",
            "burak ubama",
            "chan kalan",
            "chank alan",
            "maria garcia lopez",
            "maria garcia",
            "jon smith",
            "jonathan smyth",
            "wei chen",
        ];
        let c = corpus(&strings);
        for t in [0.05, 0.1, 0.2, 0.3] {
            let sim = similar_map(&c, t);
            let ctx = FilterContext::new(&c, t, true, true, Some(&sim), None);
            for a in c.string_ids() {
                for b in c.string_ids() {
                    if a >= b {
                        continue;
                    }
                    let ta = c.token_texts(a);
                    let tb = c.token_texts(b);
                    if nsld(&ta, &tb) <= t {
                        assert_eq!(
                            ctx.check(a, b),
                            FilterVerdict::Survives,
                            "pruned a true pair: {:?} vs {:?} at t={t}",
                            strings[a.index()],
                            strings[b.index()],
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn length_filter_prunes_gross_mismatches() {
        let c = corpus(&["a b", "abcdefgh ijklmnop qrstuvwx"]);
        let ctx = FilterContext::new(&c, 0.1, true, false, None, None);
        assert_eq!(
            ctx.check(StringId(0), StringId(1)),
            FilterVerdict::PrunedByLength
        );
    }

    #[test]
    fn histogram_filter_prunes_structural_mismatches() {
        // Same aggregate length (so the length filter passes) but token
        // lengths force ≥ 6 edits: {"aaaaaa","bb"} vs {"cccc","dddd"}
        // sorted lens [2,6] vs [4,4] → lb = 2+2 = 4; NSLD lb = 8/20 = 0.4.
        let c = corpus(&["aaaaaa bb", "cccc dddd"]);
        let ctx = FilterContext::new(&c, 0.2, true, true, None, None);
        assert_eq!(
            ctx.check(StringId(0), StringId(1)),
            FilterVerdict::PrunedByHistogram
        );
    }

    #[test]
    fn lemma10_component_tightens_the_bound() {
        // Tokens of identical lengths ⇒ histogram bound is 0, but the
        // tokens are pairwise dissimilar at small t ⇒ Lemma 10 forces a
        // positive bound and prunes.
        let c = corpus(&["abcde fghij", "vwxyz klmno"]);
        let t = 0.1;
        let sim = similar_map(&c, t); // empty: nothing is similar
        assert!(sim.is_empty());
        let plain = FilterContext::new(&c, t, true, true, None, None);
        assert_eq!(
            plain.check(StringId(0), StringId(1)),
            FilterVerdict::Survives
        );
        let refined = FilterContext::new(&c, t, true, true, Some(&sim), None);
        assert_eq!(
            refined.check(StringId(0), StringId(1)),
            FilterVerdict::PrunedByHistogram
        );
    }

    #[test]
    fn known_similar_tokens_keep_the_pair_alive() {
        let c = corpus(&["jonathan smith", "jonathon smith"]);
        // NLD(jonathan, jonathon) = 2/17 ≈ 0.118, so t = 0.12 matches them.
        let t = 0.12;
        let sim = similar_map(&c, t);
        assert!(!sim.is_empty());
        let ctx = FilterContext::new(&c, t, true, true, Some(&sim), None);
        assert_eq!(ctx.check(StringId(0), StringId(1)), FilterVerdict::Survives);
    }

    #[test]
    fn ineligible_tokens_disable_lemma10() {
        // With eligibility all-false, the Lemma 10 refinement must not
        // apply (the pair survives on pure length evidence).
        let c = corpus(&["abcde fghij", "vwxyz klmno"]);
        let t = 0.1;
        let sim = SimilarMap::default();
        let eligible = vec![false; c.num_tokens()];
        let ctx = FilterContext::new(&c, t, true, true, Some(&sim), Some(&eligible));
        assert_eq!(ctx.check(StringId(0), StringId(1)), FilterVerdict::Survives);
    }
}
