//! Interned corpora of tokenized strings.
//!
//! "For efficiency, identifiers of the tokenized strings and the tokens are
//! used" (Sec. III-C). A [`Corpus`] assigns a dense [`TokenId`] to every
//! distinct token and a [`StringId`] to every input string, and is the one
//! representation of a tokenized string in the workspace. It *stores*
//!
//! * per token: its text, its character length, its character signature
//!   (the set of its characters folded onto 64 bits,
//!   [`tsj_strdist::char_sig`], from which the pruning filter and the
//!   verifier lower-bound the LD of any two tokens), and its postings list
//!   (token → containing strings), which drives shared-token candidate
//!   generation and the `M`-frequency filter;
//! * per string: its raw text, `L` (aggregate token length), and one row of
//!   the **row table** — a single offsets column shared by two arenas, the
//!   string's token ids in tokenizer order and, beside them, the same
//!   tokens' lengths sorted ascending (the "histogram of token lengths" the
//!   pruning filter attaches to each string id, Sec. III-E2).
//!
//! Everything is written once, while the corpus is built
//! ([`CorpusBuilder::push`]); a join only reads. [`Corpus::tokens`], [`Corpus::sorted_lens`] and
//! [`Corpus::token_count`] (`T`) are three *views* of one row span, and
//! [`Corpus::token_texts`] resolves a row back to text for the text-level
//! APIs (the join itself verifies on token ids).

use std::collections::HashMap;
use std::ops::Range;

use tsj_strdist::char_sig;

use crate::tokenizer::Tokenizer;

/// Identifier of a distinct token within one [`Corpus`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TokenId(pub u32);

/// Identifier of one tokenized string within one [`Corpus`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StringId(pub u32);

impl TokenId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl StringId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An immutable, interned collection of tokenized strings.
///
/// Build one with [`Corpus::build`] or incrementally with
/// [`CorpusBuilder`].
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    // ---- token columns ----
    token_text: Vec<Box<str>>,
    token_len: Vec<u32>,
    token_sig: Vec<u64>,
    /// Postings: for each token, the *distinct* strings containing it,
    /// sorted ascending. `postings[t].len()` is the token's document
    /// frequency (the paper's "number of tokenized strings sharing the
    /// token", compared against `M`).
    postings: Vec<Vec<StringId>>,
    // ---- string columns ----
    raw: Vec<Box<str>>,
    total_len: Vec<u32>,
    // ---- row table ----
    /// String `i` owns `row_end[i - 1]..row_end[i]` (from 0 for the first)
    /// of both arenas; end offsets, so the empty corpus is three empty
    /// columns.
    row_end: Vec<usize>,
    /// Token ids, each row in tokenizer order.
    row_tokens: Vec<TokenId>,
    /// The same rows' token lengths, each row sorted ascending.
    row_lens: Vec<u32>,
}

impl Corpus {
    /// Tokenizes and interns every input string.
    pub fn build<I, S, T>(strings: I, tokenizer: &T) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
        T: Tokenizer,
    {
        let mut b = CorpusBuilder::new();
        for s in strings {
            b.push(s.as_ref(), tokenizer);
        }
        b.finish()
    }

    /// Number of strings.
    #[inline]
    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// `true` when the corpus holds no strings.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// Number of distinct tokens. Typically "orders of magnitude smaller
    /// than that of distinct tokenized strings" (Sec. III-D) — the property
    /// TSJ's token-domain reduction exploits.
    #[inline]
    pub fn num_tokens(&self) -> usize {
        self.token_text.len()
    }

    /// Iterates over all string ids.
    pub fn string_ids(&self) -> impl ExactSizeIterator<Item = StringId> + '_ {
        (0..self.raw.len() as u32).map(StringId)
    }

    /// Iterates over all token ids.
    pub fn token_ids(&self) -> impl ExactSizeIterator<Item = TokenId> + '_ {
        (0..self.token_text.len() as u32).map(TokenId)
    }

    /// The original (pre-tokenization) text of a string.
    #[inline]
    pub fn raw(&self, id: StringId) -> &str {
        &self.raw[id.index()]
    }

    /// A string's span of the row table.
    #[inline]
    fn row(&self, id: StringId) -> Range<usize> {
        let i = id.index();
        let start = if i == 0 { 0 } else { self.row_end[i - 1] };
        start..self.row_end[i]
    }

    /// The token ids of a string, in tokenizer order.
    #[inline]
    pub fn tokens(&self, id: StringId) -> &[TokenId] {
        &self.row_tokens[self.row(id)]
    }

    /// Token lengths of a string, sorted ascending — the length histogram
    /// consumed by the SLD lower-bound filter (Sec. III-E2).
    #[inline]
    pub fn sorted_lens(&self, id: StringId) -> &[u32] {
        &self.row_lens[self.row(id)]
    }

    /// [`Corpus::sorted_lens`], copied. `bench/src/replay.rs` is its one
    /// caller; the next `[benchmark]` PR retires it.
    pub fn sorted_token_lens(&self, id: StringId) -> Vec<u32> {
        self.sorted_lens(id).to_vec()
    }

    /// The paper's `L(xᵗ)`: aggregate token length in characters.
    #[inline]
    pub fn total_len(&self, id: StringId) -> usize {
        self.total_len[id.index()] as usize
    }

    /// The paper's `T(xᵗ)`: token count.
    #[inline]
    pub fn token_count(&self, id: StringId) -> usize {
        self.row(id).len()
    }

    /// Text of a token.
    #[inline]
    pub fn token_text(&self, id: TokenId) -> &str {
        &self.token_text[id.index()]
    }

    /// Character length of a token.
    #[inline]
    pub fn token_len(&self, id: TokenId) -> usize {
        self.token_len[id.index()] as usize
    }

    /// Character signature of a token, [`tsj_strdist::char_sig`] of its
    /// text.
    #[inline]
    pub fn token_sig(&self, id: TokenId) -> u64 {
        self.token_sig[id.index()]
    }

    /// Document frequency: how many *distinct* strings contain this token.
    #[inline]
    pub fn df(&self, id: TokenId) -> usize {
        self.postings[id.index()].len()
    }

    /// The distinct strings containing `token`, sorted ascending.
    #[inline]
    pub fn postings(&self, token: TokenId) -> &[StringId] {
        &self.postings[token.index()]
    }

    /// Resolves a string's tokens to their texts, in a fresh `Vec`.
    ///
    /// Off the join path: TSJ verifies on token ids (the verifier reads
    /// [`Corpus::token_text`] only for the token pairs it must run an edit
    /// distance on), so this serves the text-level APIs — the brute-force
    /// reference join, the metric-space baseline, tests and the benchmark's
    /// output checks.
    pub fn token_texts(&self, id: StringId) -> Vec<&str> {
        self.tokens(id)
            .iter()
            .map(|t| self.token_text(*t))
            .collect()
    }
}

/// Incremental [`Corpus`] construction: the corpus being built, plus the
/// state only building needs.
#[derive(Debug, Default)]
pub struct CorpusBuilder {
    /// Complete but for its `token_text` column.
    corpus: Corpus,
    /// Token text → id. Holds the one copy of every token's text until
    /// [`CorpusBuilder::finish`] moves them into the corpus, so finishing
    /// frees a table, not a block per token.
    lookup: HashMap<Box<str>, TokenId>,
    scratch: Vec<String>,
}

impl CorpusBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Tokenizes `input` and appends it, returning its id.
    pub fn push<T: Tokenizer>(&mut self, input: &str, tokenizer: &T) -> StringId {
        self.scratch.clear();
        tokenizer.tokenize_into(input, &mut self.scratch);
        let c = &mut self.corpus;
        let sid = StringId(c.raw.len() as u32);
        let start = c.row_tokens.len();
        for tok in self.scratch.drain(..) {
            debug_assert!(!tok.is_empty());
            let tid = match self.lookup.get(tok.as_str()) {
                Some(&tid) => tid,
                None => {
                    let tid = TokenId(self.lookup.len() as u32);
                    let mut len = 0;
                    let sig = char_sig(tok.chars().inspect(|_| len += 1));
                    c.token_len.push(len);
                    c.token_sig.push(sig);
                    c.postings.push(Vec::new());
                    self.lookup.insert(tok.into_boxed_str(), tid);
                    tid
                }
            };
            // Postings are per *distinct* string: a token repeated inside
            // one string is recorded once.
            let plist = &mut c.postings[tid.index()];
            if plist.last() != Some(&sid) {
                plist.push(sid);
            }
            c.row_tokens.push(tid);
            c.row_lens.push(c.token_len[tid.index()]);
        }
        let lens = &mut c.row_lens[start..];
        lens.sort_unstable();
        c.total_len.push(lens.iter().sum());
        c.row_end.push(c.row_tokens.len());
        c.raw.push(input.into());
        sid
    }

    /// Returns the corpus built so far; the lookup map ends here.
    pub fn finish(self) -> Corpus {
        let mut corpus = self.corpus;
        corpus.token_text = vec![Box::default(); self.lookup.len()];
        for (text, tid) in self.lookup {
            corpus.token_text[tid.index()] = text;
        }
        corpus
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::NameTokenizer;
    use proptest::prelude::*;

    fn small() -> Corpus {
        Corpus::build(
            [
                "Barak Obama",
                "Obamma, Boraak H.",
                "Burak Ubama",
                "Barak Obama",
            ],
            &NameTokenizer::default(),
        )
    }

    /// The id of the token spelled `text`.
    fn token(c: &Corpus, text: &str) -> TokenId {
        c.token_ids()
            .find(|&t| c.token_text(t) == text)
            .expect("token is in the corpus")
    }

    /// Field-for-field equality of every stored column.
    fn same_columns(a: &Corpus, b: &Corpus) -> bool {
        a.token_text == b.token_text
            && a.token_len == b.token_len
            && a.token_sig == b.token_sig
            && a.postings == b.postings
            && a.raw == b.raw
            && a.total_len == b.total_len
            && a.row_end == b.row_end
            && a.row_tokens == b.row_tokens
            && a.row_lens == b.row_lens
    }

    #[test]
    fn interning_dedups_tokens() {
        let c = small();
        assert_eq!(c.len(), 4);
        // barak, obama, obamma, boraak, h, burak, ubama
        assert_eq!(c.num_tokens(), 7);
        let barak = token(&c, "barak");
        assert_eq!(c.token_len(barak), 5);
        assert_eq!(c.tokens(StringId(0))[0], barak);
        assert_eq!(c.tokens(StringId(3))[0], barak);
    }

    #[test]
    fn postings_and_df() {
        let c = small();
        let barak = token(&c, "barak");
        // "Barak Obama" appears twice (ids 0 and 3).
        assert_eq!(c.df(barak), 2);
        assert_eq!(c.postings(barak), &[StringId(0), StringId(3)]);
        assert_eq!(c.df(token(&c, "h")), 1);
    }

    #[test]
    fn repeated_token_in_one_string_counted_once_in_postings() {
        let c = Corpus::build(["bob bob bob"], &NameTokenizer::default());
        assert_eq!(c.df(token(&c, "bob")), 1);
        // ...but multiplicity is preserved in the string's row.
        assert_eq!(c.token_count(StringId(0)), 3);
        assert_eq!(c.sorted_lens(StringId(0)), &[3, 3, 3]);
        assert_eq!(c.total_len(StringId(0)), 9);
    }

    #[test]
    fn per_string_statistics() {
        let c = small();
        let s1 = StringId(1); // {obamma, boraak, h}
        assert_eq!(c.token_count(s1), 3);
        assert_eq!(c.total_len(s1), 13);
        assert_eq!(c.sorted_lens(s1), &[1, 6, 6]);
        assert_eq!(c.token_texts(s1), ["obamma", "boraak", "h"]);
        assert_eq!(c.raw(s1), "Obamma, Boraak H.");
    }

    #[test]
    fn statistics_match_paper_notation() {
        // xᵗ = {"chan", "kalan"}, yᵗ = {"chank", "alan"}: T = 2, L = 9
        // (Sec. II-D example).
        let c = Corpus::build(["Chan Kalan", "Chank Alan"], &NameTokenizer::default());
        for s in c.string_ids() {
            assert_eq!(c.token_count(s), 2);
            assert_eq!(c.total_len(s), 9);
        }
        assert_eq!(c.sorted_lens(StringId(0)), &[4, 5]);
    }

    #[test]
    fn unicode_lengths_in_chars() {
        let c = Corpus::build(["José Müller"], &NameTokenizer::default());
        assert_eq!(c.token_texts(StringId(0)), ["josé", "müller"]);
        assert_eq!(c.token_len(token(&c, "josé")), 4);
        assert_eq!(c.sorted_lens(StringId(0)), &[4, 6]);
        assert_eq!(c.total_len(StringId(0)), 10);
    }

    #[test]
    fn empty_corpus() {
        let c = Corpus::build(Vec::<&str>::new(), &NameTokenizer::default());
        assert!(c.is_empty());
        assert_eq!(c.num_tokens(), 0);
        assert_eq!(c.string_ids().count(), 0);
        assert!(same_columns(&c, &Corpus::default()));
    }

    #[test]
    fn string_with_no_tokens() {
        let c = Corpus::build(["", "  ,, ", "x", ""], &NameTokenizer::default());
        assert_eq!(c.len(), 4);
        for s in [0, 1, 3].map(StringId) {
            assert!(c.tokens(s).is_empty());
            assert!(c.sorted_lens(s).is_empty());
            assert_eq!(c.token_count(s), 0);
            assert_eq!(c.total_len(s), 0);
        }
        assert_eq!(c.sorted_lens(StringId(2)), &[1]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The row table's invariants: the three views of a row agree with
        /// each other and with the token columns, and the length and
        /// signature columns with the token texts.
        #[test]
        fn row_table_invariants(
            strings in proptest::collection::vec(
                proptest::string::string_regex("[a-cé ,]{0,12}").unwrap(),
                0..12,
            ),
        ) {
            let tokenizer = NameTokenizer::default();
            let c = Corpus::build(&strings, &tokenizer);
            prop_assert_eq!(c.len(), strings.len());
            for id in c.string_ids() {
                let sorted = c.sorted_lens(id);
                prop_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
                let mut lens: Vec<u32> =
                    c.tokens(id).iter().map(|&t| c.token_len(t) as u32).collect();
                lens.sort_unstable();
                prop_assert_eq!(sorted, &lens[..]);
                prop_assert_eq!(sorted.iter().sum::<u32>() as usize, c.total_len(id));
                prop_assert_eq!(sorted.len(), c.token_count(id));
                prop_assert_eq!(c.sorted_token_lens(id), sorted);
                prop_assert_eq!(
                    c.token_texts(id),
                    tokenizer.tokenize(&strings[id.index()])
                );
            }
            for t in c.token_ids() {
                let text = c.token_text(t);
                prop_assert_eq!(c.token_len(t), text.chars().count());
                prop_assert_eq!(c.token_sig(t), char_sig(text.chars()));
            }

            let mut b = CorpusBuilder::new();
            for (i, s) in strings.iter().enumerate() {
                prop_assert_eq!(b.push(s, &tokenizer), StringId(i as u32));
            }
            prop_assert!(same_columns(&b.finish(), &c));
        }
    }
}
