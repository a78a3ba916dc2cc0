//! SLD / NSLD computation (Definitions 3–4, Sec. III-F).
//!
//! Two ways in. [`sld`] / [`nsld`] and their greedy twins build the whole
//! ε-padded token bigraph with exact Levenshtein weights and solve it:
//! the unthresholded definitions, kept as the oracle the thresholded path
//! is tested against. [`nsld_within`] asks the question verification asks
//! — is `NSLD ≤ t`? — and answers it under the **SLD budget**
//! `B = max_sld_given_nsld(L(xᵗ), L(yᵗ), t)`, the largest SLD with
//! `NSLD ≤ t`, known before any edit-distance work:
//!
//! 1. **Lemma 6** rules the pair out on `L(xᵗ)`, `L(yᵗ)` alone.
//! 2. **Capped edges.** The edge pricing ([`nsld_within_priced`] takes it
//!    from the caller; [`nsld_within`]'s prices text with
//!    `levenshtein_within(·, ·, B)`) may stop at any value above `B`, and
//!    [`sld_within`] saturates every such edge at `B + 1`.
//! 3. **Row minima.** Every perfect matching takes one edge per row, so
//!    the running sum of row minima lower-bounds the assignment: the fill
//!    stops the moment it passes `B`.
//! 4. **The budgeted matching** ([`hungarian_within`] / [`greedy_within`])
//!    gives up the moment the cost it has committed to passes `B`.
//!
//! **Why this is exact.** If the optimum is `≤ B` it uses no edge above
//! `B`, so the capped matrix has the same optimum. If the optimum is
//! `> B`, every perfect matching of the capped matrix also costs `> B`
//! (one that did not would use no saturated edge, so it would cost the
//! same uncapped). The greedy aligner's pick order among edges `≤ B` is
//! unchanged and every saturated edge sorts after them, so it commits to
//! the same edges until it would first take one above `B`, where the
//! uncapped run also passes `B`. The answer and the reported NSLD are
//! therefore the unthresholded ones whenever `NSLD ≤ t`, and `None`
//! exactly when they are not — `tests/props.rs` and the `#[ignore]`d
//! exhaustive sweep pin both aligners against the oracle.

use tsj_assignment::{greedy, greedy_within, hungarian, hungarian_within, SquareMatrix};
use tsj_strdist::{char_len, levenshtein, levenshtein_within};

use crate::bounds::{max_sld_given_nsld, nsld_lower_bound_from_total_lens};

/// Which token-aligning algorithm resolves the bigraph matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Aligning {
    /// Exact minimum-weight perfect matching (Hungarian algorithm) — the
    /// paper's *fuzzy-token-matching* verification.
    #[default]
    Hungarian,
    /// Greedy edge selection (Sec. III-G5) — cheaper, upper-bounds the
    /// exact distance, so verified pairs are always true positives.
    Greedy,
}

/// Builds the ε-padded token bigraph weight matrix of Sec. III-F.
///
/// With `k = max(T(xᵗ), T(yᵗ))`, both token lists are padded with empty
/// tokens to length `k`; edge `(i, j)` weighs `LD(xᵗⁱ, yᵗʲ)`, and edges
/// incident to ε cost the other token's length.
fn token_bigraph<S: AsRef<str>, R: AsRef<str>>(x: &[S], y: &[R]) -> SquareMatrix {
    let k = x.len().max(y.len());
    SquareMatrix::from_fn(k, |i, j| {
        let xi = x.get(i).map(AsRef::as_ref).unwrap_or("");
        let yj = y.get(j).map(AsRef::as_ref).unwrap_or("");
        match (xi.is_empty(), yj.is_empty()) {
            (true, true) => 0,
            (true, false) => char_len(yj) as u64,
            (false, true) => char_len(xi) as u64,
            (false, false) => levenshtein(xi, yj) as u64,
        }
    })
}

fn sld_with(x: &[impl AsRef<str>], y: &[impl AsRef<str>], aligning: Aligning) -> u64 {
    if x.is_empty() && y.is_empty() {
        return 0;
    }
    let m = token_bigraph(x, y);
    match aligning {
        Aligning::Hungarian => hungarian(&m).cost,
        Aligning::Greedy => greedy(&m).cost,
    }
}

/// Exact Setwise Levenshtein Distance (Definition 3).
///
/// # Examples
///
/// From Sec. II-D1: with `xᵗ = {"chan", "kalan"}`, `yᵗ = {"chank", "alan"}`
/// and `zᵗ = {"alan"}`, `SLD(xᵗ, yᵗ) = 2` and `SLD(xᵗ, zᵗ) = 5`.
///
/// ```
/// use tsj_setdist::sld;
/// assert_eq!(sld(&["chan", "kalan"], &["chank", "alan"]), 2);
/// assert_eq!(sld(&["chan", "kalan"], &["alan"]), 5);
/// ```
pub fn sld(x: &[impl AsRef<str>], y: &[impl AsRef<str>]) -> u64 {
    sld_with(x, y, Aligning::Hungarian)
}

/// Greedy-token-aligning SLD (Sec. III-G5): an upper bound on [`sld`].
pub fn sld_greedy(x: &[impl AsRef<str>], y: &[impl AsRef<str>]) -> u64 {
    sld_with(x, y, Aligning::Greedy)
}

/// Converts an SLD value into NSLD (Definition 4). Two empty multisets have
/// `NSLD = 0`.
#[inline]
pub fn nsld_from_sld(sld: u64, total_len_x: usize, total_len_y: usize) -> f64 {
    let denom = total_len_x as u64 + total_len_y as u64 + sld;
    if denom == 0 {
        0.0
    } else {
        2.0 * sld as f64 / denom as f64
    }
}

/// Exact Normalized Setwise Levenshtein Distance (Definition 4).
///
/// ```
/// use tsj_setdist::nsld;
/// // Sec. II-D2 example: NSLD = 2·2 / (9 + 9 + 2) = 0.2.
/// assert!((nsld(&["chan", "kalan"], &["chank", "alan"]) - 0.2).abs() < 1e-12);
/// ```
pub fn nsld(x: &[impl AsRef<str>], y: &[impl AsRef<str>]) -> f64 {
    let (lx, ly) = (total_len(x), total_len(y));
    nsld_from_sld(sld(x, y), lx, ly)
}

/// Greedy-aligned NSLD: an upper bound on [`nsld`].
pub fn nsld_greedy(x: &[impl AsRef<str>], y: &[impl AsRef<str>]) -> f64 {
    let (lx, ly) = (total_len(x), total_len(y));
    nsld_from_sld(sld_greedy(x, y), lx, ly)
}

/// Thresholded verification: `Some(NSLD)` when `NSLD(xᵗ, yᵗ) ≤ t` under the
/// chosen aligning, `None` otherwise.
///
/// Applies the Lemma 6 aggregate-length pre-filter before any edit-distance
/// work, then solves the token bigraph under the budget
/// `⌊t·(L(xᵗ)+L(yᵗ)) / (2−t)⌋` (the SLD value at which NSLD crosses `t`),
/// pricing each token pair with `levenshtein_within(·, ·, budget)` — see
/// the [module docs](self) for the exits and why they are exact.
///
/// With [`Aligning::Greedy`] the reported distance is an upper bound, so a
/// `Some` result is still guaranteed correct (`NSLD ≤ greedy NSLD ≤ t`) —
/// the approximation can only lose pairs, never invent them.
pub fn nsld_within(
    x: &[impl AsRef<str>],
    y: &[impl AsRef<str>],
    t: f64,
    aligning: Aligning,
) -> Option<f64> {
    let (lx, ly) = (total_len(x), total_len(y));
    nsld_within_priced(
        lx,
        ly,
        x.len(),
        y.len(),
        t,
        aligning,
        |i, j, budget| match (x.get(i).map(AsRef::as_ref), y.get(j).map(AsRef::as_ref)) {
            (Some(a), Some(b)) => {
                levenshtein_within(a, b, budget as usize).map_or(budget + 1, |d| d as u64)
            }
            (Some(z), None) | (None, Some(z)) => char_len(z) as u64,
            (None, None) => 0,
        },
    )
}

/// [`nsld_within`] over any edge pricing: the NSLD verdict for two token
/// multisets of aggregate lengths `lx`, `ly` and token counts `nx`, `ny`,
/// whose ε-padded bigraph edge `(i, j)` costs `price(i, j, budget)`.
///
/// Index `i ≥ nx` (`j ≥ ny`) names ε. `price` must return the exact edge
/// cost — `LD` for two tokens, the token's length against ε — or, when
/// that cost is above `budget`, any value above `budget`. This is the one
/// copy of the verification arithmetic: the Lemma 6 check, the budget and
/// the final `nsld_from_sld(s) ≤ t`, in that order.
pub fn nsld_within_priced(
    lx: usize,
    ly: usize,
    nx: usize,
    ny: usize,
    t: f64,
    aligning: Aligning,
    mut price: impl FnMut(usize, usize, u64) -> u64,
) -> Option<f64> {
    if t < 0.0 {
        return None;
    }
    if nsld_lower_bound_from_total_lens(lx, ly) > t {
        return None; // Lemma 6: lengths alone rule the pair out
    }
    // No perfect matching costs more than L(xᵗ) + L(yᵗ) (an edge costs at
    // most its two tokens' lengths), so the cap changes no verdict; it keeps
    // the budget a pricer sees small when `t ≥ 1` saturates it.
    let budget = max_sld_given_nsld(lx, ly, t).min((lx + ly) as u64);
    let s = sld_within(nx, ny, budget, aligning, |i, j| price(i, j, budget))?;
    let d = nsld_from_sld(s, lx, ly);
    (d <= t).then_some(d)
}

/// Budgeted SLD: `Some(cost)` of the `aligning` matching on the ε-padded
/// `k × k` bigraph (`k = max(nx, ny)`) whose edge `(i, j)` costs
/// `price(i, j)`, when that cost is `≤ budget`; `None` otherwise.
///
/// Fills the matrix row by row, saturating every price above `budget` at
/// `budget + 1`, and returns `None` as soon as the running sum of row
/// minima passes `budget`; then runs [`hungarian_within`] /
/// [`greedy_within`] under the same budget. Up to `k = 8` nothing is
/// allocated. Prices must stay below `u64::MAX / 4`.
pub fn sld_within(
    nx: usize,
    ny: usize,
    budget: u64,
    aligning: Aligning,
    mut price: impl FnMut(usize, usize) -> u64,
) -> Option<u64> {
    let k = nx.max(ny);
    let saturated = budget.saturating_add(1);
    let mut m = SquareMatrix::zeros(k);
    let mut row_minima = 0u64;
    for i in 0..k {
        let mut row_min = saturated;
        for j in 0..k {
            let cost = price(i, j).min(saturated);
            m.set(i, j, cost);
            row_min = row_min.min(cost);
        }
        row_minima = row_minima.saturating_add(row_min);
        if row_minima > budget {
            return None;
        }
    }
    let matching = match aligning {
        Aligning::Hungarian => hungarian_within(&m, budget),
        Aligning::Greedy => greedy_within(&m, budget),
    };
    matching.map(|mm| mm.cost)
}

fn total_len(tokens: &[impl AsRef<str>]) -> usize {
    tokens.iter().map(|t| char_len(t.as_ref())).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    const X: &[&str] = &["chan", "kalan"];
    const Y: &[&str] = &["chank", "alan"];
    const Z: &[&str] = &["alan"];

    #[test]
    fn paper_examples() {
        assert_eq!(sld(X, Y), 2);
        assert_eq!(sld(X, Z), 5);
        assert!((nsld(X, Y) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn identity_and_shuffles_are_free() {
        assert_eq!(sld(X, X), 0);
        assert_eq!(sld(&["kalan", "chan"], X), 0);
        assert_eq!(nsld(&["barak", "obama"], &["obama", "barak"]), 0.0);
    }

    #[test]
    fn empty_multisets() {
        let e: &[&str] = &[];
        assert_eq!(sld(e, e), 0);
        assert_eq!(nsld(e, e), 0.0);
        // Lemma 5 extreme: one side empty → NSLD = 1.
        assert_eq!(sld(e, Z), 4);
        assert_eq!(nsld(e, Z), 1.0);
    }

    #[test]
    fn symmetry() {
        assert_eq!(sld(X, Y), sld(Y, X));
        assert_eq!(sld(X, Z), sld(Z, X));
        assert_eq!(nsld(X, Z), nsld(Z, X));
    }

    #[test]
    fn padding_handles_unequal_token_counts() {
        // {"ab"} vs {"ab", "cd"}: match "ab" exactly, delete "cd" → 2 edits.
        assert_eq!(sld(&["ab"], &["ab", "cd"]), 2);
        // {"abc"} vs {"a","b","c"}: best is keep one char pair aligned.
        // Matching "abc"→"a" (2 edits) + insert "b" (1) + insert "c" (1) = 4.
        assert_eq!(sld(&["abc"], &["a", "b", "c"]), 4);
    }

    #[test]
    fn duplicate_tokens_respected() {
        // {"bob","bob"} vs {"bob"}: one copy must be deleted (3 edits).
        assert_eq!(sld(&["bob", "bob"], &["bob"]), 3);
        assert_eq!(sld(&["bob", "bob"], &["bob", "bob"]), 0);
    }

    #[test]
    fn greedy_upper_bounds_exact() {
        let cases: &[(&[&str], &[&str])] = &[
            (X, Y),
            (X, Z),
            (&["aa", "bb", "cc"], &["ab", "bc", "ca"]),
            (&["jonathan", "smith"], &["jon", "smyth", "iii"]),
        ];
        for (a, b) in cases {
            assert!(sld_greedy(a, b) >= sld(a, b), "{a:?} vs {b:?}");
            assert!(nsld_greedy(a, b) >= nsld(a, b) - 1e-12);
        }
    }

    #[test]
    fn within_filters_exactly() {
        let d = nsld(X, Y);
        assert!(nsld_within(X, Y, d + 1e-9, Aligning::Hungarian).is_some());
        assert!(nsld_within(X, Y, d - 1e-9, Aligning::Hungarian).is_none());
        // Length filter path: {"a"} vs a much longer multiset at tiny t.
        assert!(nsld_within(&["a"], &["abcdefgh", "ijklmnop"], 0.1, Aligning::Hungarian).is_none());
    }

    #[test]
    fn within_greedy_is_conservative() {
        // Wherever greedy accepts, the exact distance is also within t.
        let cases: &[(&[&str], &[&str])] = &[(X, Y), (&["ann", "lee"], &["anne", "lee"]), (X, Z)];
        for (a, b) in cases {
            for t in [0.05, 0.1, 0.2, 0.5, 0.9] {
                if let Some(g) = nsld_within(a, b, t, Aligning::Greedy) {
                    let exact = nsld(a, b);
                    assert!(exact <= g + 1e-12);
                    assert!(exact <= t + 1e-12);
                }
            }
        }
    }

    #[test]
    fn nsld_within_unit_threshold_accepts_all() {
        assert!(nsld_within(X, Z, 1.0, Aligning::Hungarian).is_some());
    }
}
