//! Cross-crate distance consistency: the same values must be reachable
//! through every public path (raw strings, `Corpus`),
//! and the paper's running examples must hold everywhere.

use tsj_repro::setdist::{nsld, sld};
use tsj_repro::strdist::{levenshtein, nld};
use tsj_repro::tokenize::{Corpus, NameTokenizer, StringId, Tokenizer};

#[test]
fn paper_running_examples_hold_across_the_stack() {
    // Sec. II-C: LD / NLD.
    assert_eq!(levenshtein("Thomson", "Thompson"), 1);
    assert!((nld("Thomson", "Thompson") - 0.125).abs() < 1e-12);

    // Sec. II-D: SLD / NSLD on {"chan","kalan"} vs {"chank","alan"}.
    assert_eq!(sld(&["chan", "kalan"], &["chank", "alan"]), 2);
    assert!((nsld(&["chan", "kalan"], &["chank", "alan"]) - 0.2).abs() < 1e-12);
    assert_eq!(sld(&["chan", "kalan"], &["alan"]), 5);
}

#[test]
fn corpus_and_direct_tokenization_agree() {
    let tokenizer = NameTokenizer::default();
    let raw = ["Chan Kalan", "Chank Alan", "Burak Ubama"];
    let corpus = Corpus::build(raw, &tokenizer);
    for i in 0..raw.len() {
        for j in 0..raw.len() {
            let via_corpus = nsld(
                &corpus.token_texts(StringId(i as u32)),
                &corpus.token_texts(StringId(j as u32)),
            );
            let direct = nsld(&tokenizer.tokenize(raw[i]), &tokenizer.tokenize(raw[j]));
            assert!(
                (via_corpus - direct).abs() < 1e-12,
                "corpus path and direct path disagree on {i},{j}"
            );
        }
    }
}

#[test]
fn nld_is_nsld_on_singleton_multisets() {
    // A tokenized string with one token degenerates to the string case.
    for (a, b) in [("thomson", "thompson"), ("alex", "alexa"), ("a", "zzz")] {
        let string_level = nld(a, b);
        let set_level = nsld(&[a], &[b]);
        assert!(
            (string_level - set_level).abs() < 1e-12,
            "NLD({a},{b}) = {string_level} but singleton NSLD = {set_level}"
        );
    }
}

#[test]
fn theorem3_holds_on_corpus_pairs() {
    // For corpus pairs within T, a token-level witness must exist — the
    // exact property TSJ's candidate generation relies on.
    let corpus = Corpus::build(
        ["barak obama", "barak obamma", "chan kalan", "chank alan"],
        &NameTokenizer::default(),
    );
    let t = 0.25;
    for a in corpus.string_ids() {
        for b in corpus.string_ids() {
            if a >= b {
                continue;
            }
            let ta = corpus.token_texts(a);
            let tb = corpus.token_texts(b);
            if !ta.is_empty() && !tb.is_empty() && nsld(&ta, &tb) <= t {
                let witness = ta.iter().any(|x| tb.iter().any(|y| nld(x, y) <= t));
                assert!(witness, "{ta:?} vs {tb:?}");
            }
        }
    }
}
