//! Tokenization layer: turning raw strings into the paper's *tokenized
//! strings* (finite multisets of tokens, Sec. II-A).
//!
//! A tokenizer `t(·)` maps a string `x` to a multiset
//! `xᵗ = {xᵗ¹, …, xᵗᵐ}`. The paper's experiments tokenize account names
//! "using whitespaces and punctuation characters"; [`NameTokenizer`]
//! implements exactly that (plus Unicode-aware lowercasing so that
//! adversarial case-flips do not defeat the join), while
//! [`WhitespaceTokenizer`] implements the simpler scheme of Sec. II-A.
//!
//! There is one representation of a tokenized string: a row of a
//! [`Corpus`], an interned collection in which every distinct token gets a
//! dense [`TokenId`] and every string a [`StringId`]. The corpus *stores*
//! the token columns (text, character length, postings — token →
//! containing strings, whose length is the document frequency both TSJ and
//! the IDF-weighted baseline measures need) and, per string, the raw text,
//! `L(xᵗ)` (aggregate token length) and a row of token ids with the same
//! tokens' sorted lengths beside it — the token-length histogram the TSJ
//! pruning filter reads. `T(xᵗ)` (token count), the token slice and the
//! histogram slice are *views* of that one row. Joins at the scale of
//! Sec. V only touch ids; token text is resolved back only for
//! edit-distance work.

pub mod corpus;
pub mod tokenizer;

pub use corpus::{Corpus, CorpusBuilder, StringId, TokenId};
pub use tokenizer::{NameTokenizer, Tokenizer, WhitespaceTokenizer};
