//! The budgeted verifier against the unthresholded oracle on *every* pair
//! of small token multisets — the exhaustive complement of the sampled
//! property test in `props.rs`.
//!
//! `#[ignore]`d so tier 1 stays fast; CI's `build-and-test` job runs it as
//! `cargo test --release -p tsj-setdist -- --ignored`.

mod common;

use common::{oracle, threshold_grid};
use tsj_setdist::{nsld_within, Aligning};

/// Every multiset of at most `max_tokens` tokens drawn from `vocab`, as
/// non-decreasing index sequences.
fn multisets<'a>(vocab: &[&'a str], max_tokens: usize) -> Vec<Vec<&'a str>> {
    let mut out = vec![Vec::new()];
    let mut frontier: Vec<(Vec<&str>, usize)> = vec![(Vec::new(), 0)];
    for _ in 0..max_tokens {
        let mut next = Vec::new();
        for (set, from) in &frontier {
            for (i, &token) in vocab.iter().enumerate().skip(*from) {
                let mut grown = set.clone();
                grown.push(token);
                out.push(grown.clone());
                next.push((grown, i));
            }
        }
        frontier = next;
    }
    out
}

#[test]
#[ignore = "exhaustive sweep, ~5 s in release; CI runs it with --ignored"]
fn budgeted_verifier_equals_the_oracle_on_every_small_pair() {
    // The 14 tokens over {a, b} of length 1 to 3.
    let vocab = [
        "a", "b", "aa", "ab", "ba", "bb", "aaa", "aab", "aba", "abb", "baa", "bab", "bba", "bbb",
    ];
    let sets = multisets(&vocab, 3);
    assert_eq!(sets.len(), 680);
    let thresholds: Vec<f64> = threshold_grid().collect();
    for x in &sets {
        for y in &sets {
            for aligning in [Aligning::Hungarian, Aligning::Greedy] {
                for &t in &thresholds {
                    assert_eq!(
                        nsld_within(x, y, t, aligning),
                        oracle(x, y, t, aligning),
                        "{x:?} vs {y:?} at t={t} ({aligning:?})"
                    );
                }
            }
        }
    }
}
