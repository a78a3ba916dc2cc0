//! Numeric bounds carrying an `NLD` threshold into `LD` space.
//!
//! These are Lemmas 3, 8, 9 and 10 of the paper. They let the join framework
//! (a) size the PassJoin segmenting scheme, (b) prune candidate token pairs
//! by length alone, and (c) lower-bound the edit cost of *unmatched* tokens
//! during tokenized-string filtering.
//!
//! All functions treat thresholds `t ≥ 1` as "unbounded" (every pair of
//! strings has `NLD ≤ 1` by Lemma 2) and clamp rather than overflow.
//!
//! Beside them sits the one bound that reads characters rather than
//! lengths: a token's [`char_sig`] and [`ld_lower_bound_from_sigs`], the
//! character-set check MassJoin runs before its kernel and the TSJ filter
//! and verifier read for every token pair.

/// Lemma 3: for `|y| ≥ |x|`,
/// `1 − |x|/|y| ≤ NLD(x, y) ≤ 2 / (|x|/|y| + 2)`.
///
/// Returns `(lower, upper)`. For two empty strings both bounds are `0`.
pub fn nld_range_from_lens(len_x: usize, len_y: usize) -> (f64, f64) {
    let (short, long) = if len_x <= len_y {
        (len_x as f64, len_y as f64)
    } else {
        (len_y as f64, len_x as f64)
    };
    if long == 0.0 {
        return (0.0, 0.0);
    }
    let ratio = short / long;
    (1.0 - ratio, 2.0 / (ratio + 2.0))
}

/// Lemma 8: the largest `LD(x, y)` compatible with `NLD(x, y) ≤ t`.
///
/// The lemma is stated relative to the *second* argument `len_y`:
///
/// * if `|x| ≤ |y|`: `LD ≤ ⌊2·t·|y| / (2 − t)⌋`,
/// * if `|x| >  |y|`: `LD ≤ ⌊t·|y| / (1 − t)⌋`.
///
/// Callers pass the lengths in the order they know them; the branch is
/// selected from the comparison. `t ≥ 1` in the `|x| > |y|` branch (or any
/// non-finite result) saturates to `usize::MAX / 4`.
pub fn max_ld_given_nld(len_x: usize, len_y: usize, t: f64) -> usize {
    const UNBOUNDED: usize = usize::MAX / 4;
    if t <= 0.0 {
        return 0;
    }
    let ly = len_y as f64;
    let raw = if len_x <= len_y {
        if t >= 2.0 {
            return UNBOUNDED;
        }
        (2.0 * t * ly / (2.0 - t)).floor()
    } else {
        if t >= 1.0 {
            return UNBOUNDED;
        }
        (t * ly / (1.0 - t)).floor()
    };
    if !raw.is_finite() || raw >= UNBOUNDED as f64 {
        UNBOUNDED
    } else {
        raw as usize
    }
}

/// Lemma 9: the shortest `|x|` compatible with `NLD(x, y) ≤ t` when
/// `|x| ≤ |y|`: `⌈(1 − t)·|y|⌉ ≤ |x|`.
///
/// Together with `|x| ≤ |y|` this is the *length condition* used to prune
/// token pairs before any edit-distance work.
pub fn min_len_given_nld(len_y: usize, t: f64) -> usize {
    if t >= 1.0 {
        return 0;
    }
    ((1.0 - t) * len_y as f64).ceil() as usize
}

/// Lemma 10: if `NLD(x, y) > t`, then `LD(x, y)` *exceeds* the returned
/// bound:
///
/// * if `|x| ≤ |y|`: `LD > ⌊t·|y| / (2 − t)⌋`,
/// * if `|x| >  |y|`: `LD > ⌊2·t·|y| / (2 − t)⌋`.
///
/// The TSJ histogram filter charges at least `bound + 1` character edits to
/// every *unmatched* token pair, which is sound because unmatched means the
/// pair's `NLD` exceeded the threshold during candidate generation.
pub fn ld_exceeds_bound_given_nld_exceeds(len_x: usize, len_y: usize, t: f64) -> usize {
    if t <= 0.0 {
        return 0;
    }
    let t = t.min(2.0 - f64::EPSILON);
    let ly = len_y as f64;
    let raw = if len_x <= len_y {
        (t * ly / (2.0 - t)).floor()
    } else {
        (2.0 * t * ly / (2.0 - t)).floor()
    };
    raw as usize
}

/// Number of PassJoin segments for an indexed token of length `len_y` under
/// an `NLD` threshold `t`.
///
/// Lemma 7 requires `U + 1` segments where `U` caps `LD`; under the
/// self-join optimization (Sec. III-G1) only the `|x| ≤ |y|` branch of
/// Lemma 8 applies, "yielding fewer segments":
/// `U = ⌊2·t·|y| / (2 − t)⌋`.
///
/// The segment count is additionally capped at `len_y.max(1)` — a string
/// cannot be partitioned into more non-overlapping pieces than it has
/// characters, and `LD ≥ |y| − |x| ≥ 0` makes larger caps useless.
pub fn segments_for_indexed_len(len_y: usize, t: f64) -> usize {
    let u = max_ld_given_nld(len_y, len_y, t); // |x| ≤ |y| branch
    (u + 1).min(len_y.max(1))
}

/// A token's character signature: its character set folded onto 64 bits,
/// character `c` setting bit `c mod 64`. Computed once per distinct token.
pub fn char_sig(chars: impl IntoIterator<Item = char>) -> u64 {
    chars
        .into_iter()
        .fold(0, |sig, c| sig | 1 << (c as u32 & 63))
}

/// `LD(x, y) ≥ ⌈popcount(sig_x ⊕ sig_y) / 2⌉` for the [`char_sig`]s of two
/// strings: an insertion or deletion flips at most one bit of the
/// signature and a substitution at most two, so strings `LD` edits apart
/// differ in at most `2·LD` bits. Characters that alias modulo 64 share a
/// bit, which only weakens the bound.
#[inline]
pub fn ld_lower_bound_from_sigs(sig_x: u64, sig_y: u64) -> usize {
    (sig_x ^ sig_y).count_ones().div_ceil(2) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{levenshtein, nld};
    use proptest::prelude::*;

    #[test]
    fn lemma3_brackets_actual_nld() {
        let pairs = [
            ("Thomson", "Thompson"),
            ("Alex", "Alexa"),
            ("a", "abcdef"),
            ("", "abc"),
            ("same", "same"),
        ];
        for (x, y) in pairs {
            let (lo, hi) = nld_range_from_lens(x.chars().count(), y.chars().count());
            let d = nld(x, y);
            assert!(lo <= d + 1e-12, "{x} {y}: lower {lo} > {d}");
            assert!(d <= hi + 1e-12, "{x} {y}: upper {hi} < {d}");
        }
    }

    #[test]
    fn lemma8_cap_is_respected() {
        // For every pair with NLD ≤ t, LD must not exceed the cap.
        let words = ["chan", "chank", "kalan", "alan", "a", "", "obama", "obamma"];
        for t in [0.05, 0.1, 0.2, 0.5, 0.9] {
            for x in words {
                for y in words {
                    let (lx, ly) = (x.len(), y.len());
                    if nld(x, y) <= t {
                        let cap = max_ld_given_nld(lx, ly, t);
                        assert!(
                            levenshtein(x, y) <= cap,
                            "x={x} y={y} t={t}: LD {} > cap {cap}",
                            levenshtein(x, y)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lemma8_numeric_examples() {
        // t = 0.1, |y| = 10, |x| ≤ |y|: ⌊2·0.1·10 / 1.9⌋ = ⌊1.052…⌋ = 1.
        assert_eq!(max_ld_given_nld(10, 10, 0.1), 1);
        // t = 0.1, |y| = 10, |x| > |y|: ⌊0.1·10 / 0.9⌋ = ⌊1.11…⌋ = 1.
        assert_eq!(max_ld_given_nld(11, 10, 0.1), 1);
        // t = 0.5, |y| = 8, |x| ≤ |y|: ⌊8 / 1.5⌋ = 5.
        assert_eq!(max_ld_given_nld(8, 8, 0.5), 5);
        // Degenerate threshold.
        assert_eq!(max_ld_given_nld(5, 5, 0.0), 0);
    }

    #[test]
    fn lemma8_saturates_instead_of_overflowing() {
        assert!(max_ld_given_nld(10, 5, 1.0) >= usize::MAX / 8);
        assert!(max_ld_given_nld(5, 10, 2.0) >= usize::MAX / 8);
    }

    #[test]
    fn lemma9_length_condition() {
        // t = 0.1, |y| = 10 → |x| ≥ 9.
        assert_eq!(min_len_given_nld(10, 0.1), 9);
        // t = 0.25, |y| = 8 → |x| ≥ 6.
        assert_eq!(min_len_given_nld(8, 0.25), 6);
        // Unbounded threshold admits the empty string.
        assert_eq!(min_len_given_nld(8, 1.0), 0);
    }

    #[test]
    fn lemma9_never_excludes_similar_pairs() {
        let words = ["chan", "chank", "kalan", "alan", "obama", "obamma"];
        for t in [0.1, 0.2, 0.4] {
            for x in words {
                for y in words {
                    if x.len() <= y.len() && nld(x, y) <= t {
                        assert!(
                            x.len() >= min_len_given_nld(y.len(), t),
                            "x={x} y={y} t={t}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lemma10_lower_bound_is_sound() {
        // For every pair with NLD > t, LD must exceed the bound.
        let words = ["chan", "chank", "kalan", "alan", "a", "zzz", "obama"];
        for t in [0.05, 0.1, 0.2, 0.5] {
            for x in words {
                for y in words {
                    if nld(x, y) > t {
                        let bound = ld_exceeds_bound_given_nld_exceeds(x.len(), y.len(), t);
                        assert!(
                            levenshtein(x, y) > bound,
                            "x={x} y={y} t={t}: LD {} ≤ bound {bound}",
                            levenshtein(x, y)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn segment_count_matches_lemma7_plus_lemma8() {
        // t = 0.1, |y| = 10: U = 1 → 2 segments.
        assert_eq!(segments_for_indexed_len(10, 0.1), 2);
        // Very short tokens cannot be over-partitioned.
        assert_eq!(segments_for_indexed_len(1, 0.9), 1);
        assert_eq!(segments_for_indexed_len(0, 0.1), 1);
        // t = 0 still requires one segment (exact match probing).
        assert_eq!(segments_for_indexed_len(7, 0.0), 1);
    }

    #[test]
    fn signature_bound_examples() {
        let sig = |s: &str| char_sig(s.chars());
        assert_eq!(sig(""), 0);
        assert_eq!(sig("aab"), sig("ba"));
        // Anagrams share a signature: the bound proves nothing.
        assert_eq!(ld_lower_bound_from_sigs(sig("abcde"), sig("edcba")), 0);
        // Disjoint five-letter sets: ten bits apart, so at least five edits.
        assert_eq!(ld_lower_bound_from_sigs(sig("abcde"), sig("vwxyz")), 5);
        // One odd bit rounds up: `abc` → `abcd` is one insertion.
        assert_eq!(ld_lower_bound_from_sigs(sig("abc"), sig("abcd")), 1);
        // `á` (U+00E1) aliases `a` modulo 64.
        assert_eq!(sig("á"), sig("a"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// One edit flips at most two bits, over ASCII and over characters
        /// that alias ASCII modulo 64 (`á` shares `a`'s bit, `â` shares
        /// `b`'s).
        #[test]
        fn signatures_differ_in_at_most_two_bits_per_edit(
            x in proptest::string::string_regex("[abcdáâ]{0,7}").unwrap(),
            y in proptest::string::string_regex("[abcdáâ]{0,7}").unwrap(),
        ) {
            let bits = (char_sig(x.chars()) ^ char_sig(y.chars())).count_ones() as usize;
            let ld = levenshtein(&x, &y);
            prop_assert!(bits <= 2 * ld, "x = {:?}, y = {:?}, LD = {}", x, y, ld);
        }

        /// `⌈popcount / 2⌉ ≤ LD` over printable ASCII and over the
        /// aliasing alphabet.
        #[test]
        fn signature_bound_is_at_most_ld(
            a in proptest::string::string_regex("[ -~]{0,12}").unwrap(),
            b in proptest::string::string_regex("[ -~]{0,12}").unwrap(),
            x in proptest::string::string_regex("[abcdáâ]{0,9}").unwrap(),
            y in proptest::string::string_regex("[abcdáâ]{0,9}").unwrap(),
        ) {
            for (p, q) in [(&a, &b), (&x, &y)] {
                let lb = ld_lower_bound_from_sigs(char_sig(p.chars()), char_sig(q.chars()));
                prop_assert!(lb <= levenshtein(p, q), "{:?} vs {:?}", p, q);
            }
        }
    }
}
