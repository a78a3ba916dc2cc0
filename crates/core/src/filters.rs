//! Candidate-pair pruning (Sec. III-E) — the length filter and the
//! histogram / Lemma 10 SLD lower-bound filter — and the edge pricing the
//! verifier (Sec. III-F) solves on token ids.
//!
//! Both filters are *sound*: a pruned pair provably has `NSLD > T`, so
//! fuzzy-token-matching remains exactly equal to the brute-force join (the
//! property tests in `tests/` check this end to end).
//!
//! One [`FilterContext`] per join serves every stage, each calling the
//! part it is responsible for: the candidate-generating stages ask
//! `passes_length` before a pair is emitted (it reads two integers, so a
//! rejected pair is never shuffled), and `tsj.dedup_verify` asks
//! `passes_histogram` of the de-duplicated survivors, then `verify`s the
//! ones that pass. The filters answer `true` when switched off.
//! [`check`](FilterContext::check) runs both in the paper's order for
//! callers that hold a pair and want the verdict. The Lemma 6 arithmetic
//! lives in `passes_length` alone, so every caller rounds the same way.
//!
//! **Who prices what.** What the corpus and candidate generation proved
//! about one token pair is read in one place, `ld_evidence`: its exact LD
//! from the [`SimilarMap`], or else a lower bound — the larger of the
//! length gap and the character-signature bound
//! ([`ld_lower_bound_from_sigs`] over the corpus's
//! [`token_sig`](Corpus::token_sig) column), raised by Lemma 10 when two
//! eligible tokens are missing from the map. The histogram filter turns
//! that into a lower bound (`pair_lower_bound`); the verifier turns it into
//! an edge cost under the SLD budget `B` (`token_edge`): equal ids cost 0,
//! a length gap, signature bound or known bound above `B` saturates without
//! touching text, a map hit is its stored LD, and only what is left runs a
//! Myers kernel capped at `B`. `tsj_setdist::nsld_within_priced` owns the
//! rest — the Lemma 6 check, `B`, the row-minima exit, the budgeted
//! matching and the final NSLD — so the verdict is `nsld_within`'s on the
//! texts, bit for bit.

use std::collections::HashMap;

use tsj_mapreduce::FxBuildHasher;
use tsj_setdist::{
    nsld_from_sld, nsld_lower_bound_from_total_lens, nsld_within_priced,
    sld_lower_bound_sorted_lens, Aligning,
};
use tsj_strdist::{
    ld_exceeds_bound_given_nld_exceeds, ld_lower_bound_from_sigs, levenshtein_within,
};
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

/// What candidate generation already proved about `LD(x, y)` for two
/// distinct tokens.
enum LdEvidence {
    /// A [`SimilarMap`] hit: the LD itself.
    Exact(u64),
    /// A lower bound: the larger of the length gap and the signature
    /// bound, raised by Lemma 10 for two eligible tokens the map does not
    /// hold.
    AtLeast(u64),
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
    ///   similar tokens, the character-signature bound of every other
    ///   pair and the Lemma 10 bound for provably-dissimilar eligible
    ///   pairs, lower-bounded by its row-minima sum (a sound relaxation of
    ///   the assignment optimum).
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

        // Component 2: row-minima bound over the per-token-pair evidence
        // (Lemma 10 refines it only where a `SimilarMap` exists).
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
        match self.ld_evidence(x, y, self.column_bound(x, y)) {
            LdEvidence::Exact(ld) | LdEvidence::AtLeast(ld) => ld,
        }
    }

    /// Sec. III-F verification on token ids: `Some(NSLD)` when
    /// `NSLD(a, b) ≤ T` under `aligning`, `None` otherwise — the verdict
    /// and value of `nsld_within` on the two strings' token texts, reached
    /// through the [`token_edge`](Self::token_edge) pricing without
    /// resolving a string to text.
    pub(crate) fn verify(&self, a: StringId, b: StringId, aligning: Aligning) -> Option<f64> {
        let (ta, tb) = (self.corpus.tokens(a), self.corpus.tokens(b));
        let (la, lb) = (self.corpus.total_len(a), self.corpus.total_len(b));
        nsld_within_priced(
            la,
            lb,
            ta.len(),
            tb.len(),
            self.t,
            aligning,
            |i, j, budget| match (ta.get(i), tb.get(j)) {
                (Some(&x), Some(&y)) => self.token_edge(x, y, budget),
                (Some(&z), None) | (None, Some(&z)) => self.corpus.token_len(z) as u64,
                (None, None) => 0,
            },
        )
    }

    /// `LD(x, y)` when it is `≤ budget`, otherwise some value above
    /// `budget` — the pricing contract of `nsld_within_priced`, paying for
    /// the Myers kernel only when nothing cheaper decides.
    fn token_edge(&self, x: TokenId, y: TokenId, budget: u64) -> u64 {
        if x == y {
            return 0;
        }
        let over = budget + 1;
        let column_lb = self.column_bound(x, y);
        if column_lb > budget {
            return over; // before the map lookup: it cannot lower this
        }
        match self.ld_evidence(x, y, column_lb) {
            LdEvidence::Exact(ld) => ld,
            LdEvidence::AtLeast(lb) if lb > budget => over,
            LdEvidence::AtLeast(_) => {
                let (tx, ty) = (self.corpus.token_text(x), self.corpus.token_text(y));
                levenshtein_within(tx, ty, budget as usize).map_or(over, |ld| ld as u64)
            }
        }
    }

    /// What the two tokens' own columns prove, with no map: `LD(x, y)` is
    /// at least their length gap and at least their signature bound.
    #[inline]
    fn column_bound(&self, x: TokenId, y: TokenId) -> u64 {
        let len_diff = self.corpus.token_len(x).abs_diff(self.corpus.token_len(y));
        let sig = ld_lower_bound_from_sigs(self.corpus.token_sig(x), self.corpus.token_sig(y));
        len_diff.max(sig) as u64
    }

    /// The one reading of the [`SimilarMap`] and the Lemma 10 gate, for two
    /// distinct tokens whose [`column_bound`](Self::column_bound)
    /// is `column_lb`.
    fn ld_evidence(&self, x: TokenId, y: TokenId, column_lb: u64) -> LdEvidence {
        // Without a map (exact-token-matching, or `verify_pair`) nothing
        // was joined, so nothing beyond the tokens' own columns is proved.
        let Some(similar) = self.similar else {
            return LdEvidence::AtLeast(column_lb);
        };
        let key = if x.0 <= y.0 { (x.0, y.0) } else { (y.0, x.0) };
        if let Some(&ld) = similar.get(&key) {
            // Matched during candidate generation: the LD is known exactly.
            return LdEvidence::Exact(u64::from(ld));
        }
        // Not in the similar set. If both tokens were eligible for the
        // token join, the join's completeness proves NLD(x, y) > T, so
        // Lemma 10 applies; otherwise only the columns' bound is sound.
        let both_eligible = match self.eligible {
            Some(el) => el[x.index()] && el[y.index()],
            None => true,
        };
        if both_eligible {
            let (lx, ly) = (self.corpus.token_len(x), self.corpus.token_len(y));
            let l10 = ld_exceeds_bound_given_nld_exceeds(lx, ly, self.t) as u64 + 1;
            LdEvidence::AtLeast(column_lb.max(l10))
        } else {
            LdEvidence::AtLeast(column_lb)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tsj_passjoin::nld_self_join_serial;
    use tsj_setdist::{max_sld_given_nsld, nsld, nsld_within};
    use tsj_tokenize::NameTokenizer;

    const ALIGNERS: [Aligning; 2] = [Aligning::Hungarian, Aligning::Greedy];

    fn corpus(strings: &[&str]) -> Corpus {
        Corpus::build(strings, &NameTokenizer::default())
    }

    /// `nsld_within` on the two strings' token texts: what the id verifier
    /// must reproduce bit for bit.
    fn on_texts(c: &Corpus, a: StringId, b: StringId, t: f64, aligning: Aligning) -> Option<f64> {
        nsld_within(&c.token_texts(a), &c.token_texts(b), t, aligning)
    }

    /// The SLD budget of a pair at `t`.
    fn budget(c: &Corpus, a: StringId, b: StringId, t: f64) -> u64 {
        max_sld_given_nsld(c.total_len(a), c.total_len(b), t)
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
        // Anagram tokens of identical lengths ⇒ the histogram and
        // signature bounds are 0, but the tokens are pairwise dissimilar at
        // small t ⇒ Lemma 10 forces a positive bound and prunes.
        let c = corpus(&["abcde fghij", "edcba jihgf"]);
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
        // apply: the anagram pair survives on length and signature
        // evidence, which prove nothing here, and is pruned once the same
        // tokens are eligible.
        let c = corpus(&["abcde fghij", "edcba jihgf"]);
        let t = 0.1;
        let sim = SimilarMap::default();
        let ineligible = vec![false; c.num_tokens()];
        let ctx = FilterContext::new(&c, t, true, true, Some(&sim), Some(&ineligible));
        assert_eq!(ctx.check(StringId(0), StringId(1)), FilterVerdict::Survives);
        let eligible = vec![true; c.num_tokens()];
        let ctx = FilterContext::new(&c, t, true, true, Some(&sim), Some(&eligible));
        assert_eq!(
            ctx.check(StringId(0), StringId(1)),
            FilterVerdict::PrunedByHistogram
        );
    }

    #[test]
    fn signatures_prune_where_lemma10_may_not() {
        // Disjoint character sets: every cross pair of tokens is at least
        // five edits apart by signature alone, so the pair is pruned with
        // Lemma 10 disabled.
        let c = corpus(&["abcde fghij", "vwxyz klmno"]);
        let sim = SimilarMap::default();
        let ineligible = vec![false; c.num_tokens()];
        let ctx = FilterContext::new(&c, 0.1, true, true, Some(&sim), Some(&ineligible));
        assert_eq!(
            ctx.check(StringId(0), StringId(1)),
            FilterVerdict::PrunedByHistogram
        );
        // Nor do they need a map: exact-token-matching prunes it too.
        let map_less = FilterContext::new(&c, 0.1, true, true, None, None);
        assert_eq!(
            map_less.check(StringId(0), StringId(1)),
            FilterVerdict::PrunedByHistogram
        );
    }

    /// Ten strings of one to four words, drawn from eight words of one to
    /// seven characters over `alphabet`.
    fn random_strings(rng: &mut StdRng, alphabet: &[char]) -> Vec<String> {
        let words: Vec<String> = (0..8)
            .map(|_| {
                (0..rng.gen_range(1..=7usize))
                    .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
                    .collect()
            })
            .collect();
        (0..10)
            .map(|_| {
                let picks: Vec<&str> = (0..rng.gen_range(1..=4usize))
                    .map(|_| words[rng.gen_range(0..words.len())].as_str())
                    .collect();
                picks.join(" ")
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The id verifier is `nsld_within` on the texts, for every pair of
        /// a random corpus, under both aligners, with the join's
        /// similar-token map and a random eligibility bitmap — and with no
        /// map at all, as `verify_pair` runs it.
        #[test]
        fn id_verifier_equals_the_text_verifier(seed in 0u64..100_000, t_step in 1u32..=8) {
            let t = f64::from(t_step) * 0.05;
            let mut rng = StdRng::seed_from_u64(seed);
            // Over three letters: many pairs within one edit, so map hits,
            // Lemma 10 and Myers all price.
            let strings = random_strings(&mut rng, &['a', 'b', 'c']);
            let c = Corpus::build(&strings, &NameTokenizer::default());
            let sim = similar_map(&c, t);
            let eligible: Vec<bool> = (0..c.num_tokens()).map(|_| rng.gen_range(0..4u8) > 0).collect();
            let joined = FilterContext::new(&c, t, true, true, Some(&sim), Some(&eligible));
            let bare = FilterContext::new(&c, t, false, false, None, None);
            for a in c.string_ids() {
                for b in c.string_ids() {
                    for aligning in ALIGNERS {
                        let want = on_texts(&c, a, b, t, aligning);
                        prop_assert_eq!(joined.verify(a, b, aligning), want, "{:?} vs {:?} t={}", strings[a.index()], strings[b.index()], t);
                        prop_assert_eq!(bare.verify(a, b, aligning), want);
                    }
                }
            }
        }

        /// `filters_are_sound` on random corpora over an alphabet whose
        /// characters alias modulo 64 (`á` shares `a`'s signature bit, `â`
        /// `b`'s), at every `t` of the proptest above: no pair within `t`
        /// is pruned with the join's map and a random eligibility bitmap,
        /// with the map and every token eligible, or with no map.
        #[test]
        fn filters_are_sound_on_random_corpora(seed in 0u64..100_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let strings = random_strings(&mut rng, &['a', 'b', 'c', 'á', 'â']);
            let c = Corpus::build(&strings, &NameTokenizer::default());
            let eligible: Vec<bool> = (0..c.num_tokens()).map(|_| rng.gen_range(0..4u8) > 0).collect();
            for t_step in 1..=8 {
                let t = f64::from(t_step) * 0.05;
                let sim = similar_map(&c, t);
                let setups = [
                    FilterContext::new(&c, t, true, true, Some(&sim), Some(&eligible)),
                    FilterContext::new(&c, t, true, true, Some(&sim), None),
                    FilterContext::new(&c, t, true, true, None, None),
                ];
                for a in c.string_ids() {
                    for b in c.string_ids() {
                        if nsld(&c.token_texts(a), &c.token_texts(b)) > t {
                            continue;
                        }
                        for ctx in &setups {
                            prop_assert_eq!(ctx.check(a, b), FilterVerdict::Survives, "{:?} vs {:?} t={}", strings[a.index()], strings[b.index()], t);
                        }
                    }
                }
            }
        }
    }

    /// One pair decided by each of the verifier's exits, each checked
    /// against the text verifier and the unthresholded NSLD. The asserts
    /// before each verdict show the exit is the one that can decide it.
    #[test]
    fn each_exit_decides_like_the_text_verifier() {
        let verdicts = |c: &Corpus, ctx: &FilterContext<'_>, t: f64| {
            let (a, b) = (StringId(0), StringId(1));
            let exact = nsld(&c.token_texts(a), &c.token_texts(b));
            for aligning in ALIGNERS {
                let got = ctx.verify(a, b, aligning);
                assert_eq!(got, on_texts(c, a, b, t, aligning));
                assert_eq!(got.is_some(), exact <= t, "NSLD {exact} at t={t}");
            }
        };
        let token = |c: &Corpus, text: &str| {
            c.token_ids()
                .find(|&id| c.token_text(id) == text)
                .expect("token is in the corpus")
        };

        let sig_lb = |c: &Corpus, x: &str, y: &str| {
            let (x, y) = (token(c, x), token(c, y));
            ld_lower_bound_from_sigs(c.token_sig(x), c.token_sig(y))
        };

        // Length gap: |abcdefgh| − |abcde| = 3 > B = 1 prices the edge
        // without text.
        let c = corpus(&["abcdefgh ab", "abcde abcde"]);
        assert_eq!(budget(&c, StringId(0), StringId(1), 0.1), 1);
        verdicts(
            &c,
            &FilterContext::new(&c, 0.1, true, true, None, None),
            0.1,
        );

        // Signature: abcd and abxy are of one length and four signature
        // bits apart, so LD ≥ 2 > B = 1, with no map to ask.
        let c = corpus(&["abcd efgh", "abxy efgh"]);
        assert_eq!(budget(&c, StringId(0), StringId(1), 0.2), 1);
        assert_eq!(sig_lb(&c, "abcd", "abxy"), 2);
        verdicts(
            &c,
            &FilterContext::new(&c, 0.2, true, true, None, None),
            0.2,
        );

        // Stored LD above B: a map built at 0.5 holds LD(abcdef, abcaaa) = 3
        // (a superset of the 0.2 map, so still complete at 0.2); B = 2, and
        // neither the length gap nor the signature bound (2) decides.
        let c = corpus(&["abcdef xyz", "abcaaa xyz"]);
        let sim = similar_map(&c, 0.5);
        let key = (token(&c, "abcdef").0, token(&c, "abcaaa").0);
        assert_eq!(sim.get(&key), Some(&3));
        assert_eq!(budget(&c, StringId(0), StringId(1), 0.2), 2);
        assert_eq!(sig_lb(&c, "abcdef", "abcaaa"), 2);
        verdicts(
            &c,
            &FilterContext::new(&c, 0.2, true, true, Some(&sim), None),
            0.2,
        );

        // Lemma 10: abcde and edcb are eligible, unjoined at 0.3, one
        // length apart and one signature bit apart (neither decides), and
        // Lemma 10 proves LD > 1 = B.
        let c = corpus(&["abcde", "edcb"]);
        let sim = similar_map(&c, 0.3);
        assert!(sim.is_empty());
        assert_eq!(budget(&c, StringId(0), StringId(1), 0.3), 1);
        assert_eq!(sig_lb(&c, "abcde", "edcb"), 1);
        assert_eq!(ld_exceeds_bound_given_nld_exceeds(5, 4, 0.3), 1);
        verdicts(
            &c,
            &FilterContext::new(&c, 0.3, true, true, Some(&sim), None),
            0.3,
        );

        // Row minima: each row's cheapest edge costs 1 ≤ B = 1, their sum
        // 2 > B.
        let c = corpus(&["abcd efgh", "abce efgi"]);
        assert_eq!(budget(&c, StringId(0), StringId(1), 0.2), 1);
        verdicts(
            &c,
            &FilterContext::new(&c, 0.2, true, true, None, None),
            0.2,
        );

        // A late Hungarian phase: both rows have a free edge (row minima 0),
        // to the same column; the second phase's optimum, 0 + LD(abcd,
        // wxyz) capped at 2, passes B = 1.
        let c = corpus(&["abcd abcd", "abcd wxyz"]);
        assert_eq!(budget(&c, StringId(0), StringId(1), 0.2), 1);
        verdicts(
            &c,
            &FilterContext::new(&c, 0.2, true, true, None, None),
            0.2,
        );

        // And a pair that passes, every edge priced exactly: NSLD = 0.2.
        let c = corpus(&["chan kalan", "chank alan"]);
        let sim = similar_map(&c, 0.2);
        verdicts(
            &c,
            &FilterContext::new(&c, 0.2, true, true, Some(&sim), None),
            0.2,
        );
    }

    /// `verify_pair` has no similar-token map, so it may never assume an
    /// unjoined pair dissimilar. abcde / abcd: Lemma 10 would bound
    /// LD > 1 = B, yet LD = 1 and the pair is at NSLD 0.2 ≤ 0.3. The
    /// join's verifier, whose (here empty) map claims every similar pair,
    /// saturates the edge; `verify_pair` must not.
    #[test]
    fn verify_pair_never_applies_lemma10() {
        let c = corpus(&["abcde", "abcd"]);
        let (a, b, t) = (StringId(0), StringId(1), 0.3);
        assert_eq!(budget(&c, a, b, t), 1);
        assert_eq!(ld_exceeds_bound_given_nld_exceeds(5, 4, t), 1);
        let empty = SimilarMap::default();
        let claims_all = FilterContext::new(&c, t, true, true, Some(&empty), None);
        for aligning in ALIGNERS {
            assert_eq!(claims_all.verify(a, b, aligning), None);
            let d = crate::verify_pair(&c, a, b, t, aligning).expect("NSLD 0.2 ≤ 0.3");
            assert!((d - 0.2).abs() < 1e-12);
        }
    }
}
