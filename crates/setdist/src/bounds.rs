//! Tokenized-string-level bounds: the sound (lower) half of Lemma 6 and
//! the histogram SLD lower bound behind the TSJ pruning filter
//! (Sec. III-E). The paper's Lemma 6 upper bound is unsound for token
//! multisets; it lives in this module's tests, beside its counterexample.

/// Lemma 6 (lower bound): for `L(yᵗ) ≥ L(xᵗ)`,
/// `1 − L(xᵗ)/L(yᵗ) ≤ NSLD(xᵗ, yᵗ)`.
///
/// This is the sound half of the paper's Lemma 6 and is what drives the
/// *pruning-based-on-length* filter (Sec. III-E1): a candidate pair is
/// discarded when the lower bound already exceeds the join threshold.
/// Soundness: every character-level edit changes the aggregate length by at
/// most one and the set-level edits change nothing, so
/// `SLD ≥ |L(xᵗ) − L(yᵗ)|`, and NSLD is increasing in SLD.
pub fn nsld_lower_bound_from_total_lens(total_len_x: usize, total_len_y: usize) -> f64 {
    let (short, long) = if total_len_x <= total_len_y {
        (total_len_x as f64, total_len_y as f64)
    } else {
        (total_len_y as f64, total_len_x as f64)
    };
    if long == 0.0 {
        return 0.0;
    }
    1.0 - short / long
}

/// The largest SLD compatible with `NSLD ≤ t`:
/// `SLD ≤ ⌊t·(L(xᵗ) + L(yᵗ)) / (2 − t)⌋` (inverting Definition 4).
///
/// `t ≥ 1` admits every SLD (saturates), because `NSLD ≤ 1` always holds
/// (Lemma 5).
pub fn max_sld_given_nsld(total_len_x: usize, total_len_y: usize, t: f64) -> u64 {
    if t <= 0.0 {
        return 0;
    }
    if t >= 1.0 {
        return u64::MAX / 4;
    }
    let sum = (total_len_x + total_len_y) as f64;
    (t * sum / (2.0 - t)).floor() as u64
}

/// A cheap lower bound on `SLD(xᵗ, yᵗ)` from the sorted token-length
/// histograms alone (the filter of Sec. III-E2, length component).
///
/// Soundness: every perfect matching on the ε-padded token bigraph pays at
/// least `||a| − |b||` per matched pair (`LD(a, b) ≥ ||a| − |b||`), and over
/// multisets of numbers the ascending-sorted pairing minimizes
/// `Σ |aᵢ − bᵢ|`; ε-padding contributes zeros, which sort first.
/// Hence `SLD ≥ sld_lower_bound_sorted_lens(sorted lens of x, of y)`.
///
/// Both inputs must be sorted ascending (as stored by
/// `Corpus::sorted_lens`).
pub fn sld_lower_bound_sorted_lens(x_lens: &[u32], y_lens: &[u32]) -> u64 {
    debug_assert!(x_lens.windows(2).all(|w| w[0] <= w[1]));
    debug_assert!(y_lens.windows(2).all(|w| w[0] <= w[1]));
    let k = x_lens.len().max(y_lens.len());
    let mut sum = 0u64;
    for i in 0..k {
        // Conceptually both lists are left-padded with zeros to length k;
        // index into the suffix where real values live.
        let a = padded(x_lens, k, i);
        let b = padded(y_lens, k, i);
        sum += u64::from(a.abs_diff(b));
    }
    sum
}

#[inline]
fn padded(lens: &[u32], k: usize, i: usize) -> u32 {
    let pad = k - lens.len();
    if i < pad {
        0
    } else {
        lens[i - pad]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sld::{nsld, nsld_from_sld, sld};

    /// The paper's Lemma 6 *upper* bound, `2 / (L(xᵗ)/L(yᵗ) + 2)` — a
    /// test-only baseline, kept to pin the finding below.
    ///
    /// **Caveat (reproduction finding):** unlike its string analogue
    /// (Lemma 3), this bound is *not* sound for token multisets. The
    /// paper's proof asserts `SLD ≤ L(yᵗ)`, but one token cannot absorb
    /// characters from another: for `xᵗ = {"aaa"}`, `yᵗ = {"b", "b"}` we
    /// get `SLD = 4 > 3 = max(L)` and `NSLD = 8/9 > 2/(2/3 + 2) = 3/4`. The
    /// bound does hold when `T(xᵗ) = T(yᵗ) = 1` (where SLD degenerates to
    /// LD). Nothing in the TSJ algorithm relies on this upper bound, so the
    /// join is unaffected; see EXPERIMENTS.md for the full note.
    fn nsld_upper_bound_lemma6(total_len_x: usize, total_len_y: usize) -> f64 {
        let (short, long) = if total_len_x <= total_len_y {
            (total_len_x as f64, total_len_y as f64)
        } else {
            (total_len_y as f64, total_len_x as f64)
        };
        if long == 0.0 {
            return 0.0;
        }
        2.0 / (short / long + 2.0)
    }

    #[test]
    fn lemma6_lower_bound_holds() {
        let cases: &[(&[&str], &[&str])] = &[
            (&["chan", "kalan"], &["chank", "alan"]),
            (&["chan", "kalan"], &["alan"]),
            (&["a"], &["abcdef", "gh"]),
            (&[], &["x"]),
            (&["aaa"], &["b", "b"]),
        ];
        for (x, y) in cases {
            let lx: usize = x.iter().map(|t| t.len()).sum();
            let ly: usize = y.iter().map(|t| t.len()).sum();
            let lo = nsld_lower_bound_from_total_lens(lx, ly);
            let d = nsld(x, y);
            assert!(lo <= d + 1e-12, "{x:?} {y:?}: {lo} > {d}");
        }
    }

    /// Regression test documenting the reproduction finding: the paper's
    /// Lemma 6 *upper* bound fails for multisets with unequal token counts.
    #[test]
    fn lemma6_paper_upper_bound_counterexample() {
        let x: &[&str] = &["aaa"];
        let y: &[&str] = &["b", "b"];
        assert_eq!(sld(x, y), 4); // > max(L(x), L(y)) = 3, contra the proof
        let claimed = nsld_upper_bound_lemma6(3, 2);
        assert!((claimed - 0.75).abs() < 1e-12);
        assert!(
            nsld(x, y) > claimed,
            "NSLD {} should exceed the claimed bound",
            nsld(x, y)
        );
        // The upper bound does hold for singleton multisets (string case).
        let a: &[&str] = &["thomson"];
        let b: &[&str] = &["thompson"];
        assert!(nsld(a, b) <= nsld_upper_bound_lemma6(7, 8) + 1e-12);
    }

    #[test]
    fn sld_budget_inverts_definition4() {
        // If SLD ≤ budget then NSLD ≤ t; if SLD = budget + 1 then NSLD > t.
        for (lx, ly) in [(9usize, 9usize), (12, 7), (30, 28)] {
            for t in [0.05, 0.1, 0.2, 0.5] {
                let budget = max_sld_given_nsld(lx, ly, t);
                assert!(nsld_from_sld(budget, lx, ly) <= t + 1e-12);
                assert!(nsld_from_sld(budget + 1, lx, ly) > t);
            }
        }
    }

    #[test]
    fn budget_saturation() {
        assert_eq!(max_sld_given_nsld(5, 5, 0.0), 0);
        assert!(max_sld_given_nsld(5, 5, 1.0) >= u64::MAX / 8);
    }

    #[test]
    fn histogram_bound_is_sound_on_examples() {
        let cases: &[(&[&str], &[&str])] = &[
            (&["chan", "kalan"], &["chank", "alan"]),
            (&["chan", "kalan"], &["alan"]),
            (&["bob", "bob"], &["bob"]),
            (&["abc"], &["a", "b", "c"]),
            (&[], &["xyz"]),
        ];
        for (x, y) in cases {
            let mut xl: Vec<u32> = x.iter().map(|t| t.len() as u32).collect();
            let mut yl: Vec<u32> = y.iter().map(|t| t.len() as u32).collect();
            xl.sort_unstable();
            yl.sort_unstable();
            let lb = sld_lower_bound_sorted_lens(&xl, &yl);
            let actual = sld(x, y);
            assert!(lb <= actual, "{x:?} {y:?}: lb {lb} > SLD {actual}");
        }
    }

    #[test]
    fn histogram_bound_exact_when_only_lengths_differ() {
        // Tokens over a single repeated character: LD = length difference,
        // so the bound is tight.
        let xl = [2u32, 4];
        let yl = [3u32, 4];
        assert_eq!(sld_lower_bound_sorted_lens(&xl, &yl), 1);
        assert_eq!(sld(&["aa", "aaaa"], &["aaa", "aaaa"]), 1);
    }

    #[test]
    fn histogram_bound_handles_padding() {
        // x has fewer tokens: zeros pad the front of the sorted list.
        assert_eq!(sld_lower_bound_sorted_lens(&[4], &[4, 5]), 5);
        assert_eq!(sld_lower_bound_sorted_lens(&[], &[1, 2]), 3);
        assert_eq!(sld_lower_bound_sorted_lens(&[], &[]), 0);
    }
}
