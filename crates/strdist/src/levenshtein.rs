//! Levenshtein Distance (Definition 1 of the paper).
//!
//! `LD(x, y)` is the minimum number of character-level edit operations
//! (insertion, deletion, substitution) transforming `x` into `y`. It is a
//! metric (Lemma 1).
//!
//! Three algorithms are provided:
//!
//! * [`levenshtein`] / [`levenshtein_slices`]: the classic two-row dynamic
//!   program, `O(|x|·|y|)` time, `O(min(|x|,|y|))` space. `levenshtein_slices`
//!   is the generic (`T: Eq`) reference; the string wrapper dispatches to the
//!   bit-parallel kernel below.
//! * [`crate::myers`]: Myers' bit-parallel computation — entire DP columns
//!   packed into `u64` words, `O(⌈m/64⌉·n)` word operations. This is what
//!   [`levenshtein_within`] / [`levenshtein_within_slices`] run on hot paths.
//! * [`levenshtein_within_slices_banded`]: Ukkonen's banded dynamic program
//!   that answers "is `LD ≤ k`, and if so what is it?" in `O((2k+1)·|x|)`
//!   time. Retained as the scalar reference the differential tests pin the
//!   bit-parallel kernels against, and as the dispatch target when the band
//!   is much narrower than the pattern (very long inputs, tiny `k`).

use crate::myers::{self, PeqUnit};

/// A value larger than any real distance, used as the out-of-band sentinel
/// in the banded DP. Chosen so `SENTINEL + 1` cannot overflow.
const SENTINEL: usize = usize::MAX / 2;

/// Above 64 pattern units the bit-parallel kernel costs `⌈m/64⌉` word steps
/// per text unit versus `2k+1` cell steps for the banded DP, which puts the
/// crossover at `m ≈ c·(2k+1)` for some constant `c`. The `24` is
/// **unverified since PR 16**, which deleted the `distances` bench it was
/// measured on: `bench/`'s `strdist.lev_within_k*_ns` replays draw name
/// tokens of at most 64 units and never reach the banded side.
/// Re-measuring it takes a `[benchmark]` PR adding a long-input replay
/// beside them (say `strdist.lev_within_long_k*_ns`): [`levenshtein_within`]
/// against [`levenshtein_within_slices_banded`] at `k ∈ {1, 2, 4}` on the
/// same pairs of 128 – 4 096 units, read for where the two curves cross.
const MYERS_BLOCK_ADVANTAGE: usize = 24;

/// Levenshtein distance between two strings, counting edits over Unicode
/// scalar values.
///
/// ASCII inputs are compared byte-wise without allocating. Both paths run
/// on the bit-parallel kernels of [`crate::myers`].
///
/// # Examples
///
/// ```
/// use tsj_strdist::levenshtein;
/// assert_eq!(levenshtein("Thomson", "Thompson"), 1);
/// assert_eq!(levenshtein("Alex", "Alexa"), 1);
/// assert_eq!(levenshtein("kitten", "sitting"), 3);
/// ```
pub fn levenshtein(a: &str, b: &str) -> usize {
    if a == b {
        return 0;
    }
    if a.is_ascii() && b.is_ascii() {
        myers::distance_slices(a.as_bytes(), b.as_bytes())
    } else {
        let av: Vec<char> = a.chars().collect();
        let bv: Vec<char> = b.chars().collect();
        myers::distance_slices(&av, &bv)
    }
}

/// Levenshtein distance over arbitrary comparable items.
///
/// The scalar two-row reference: works for any `T: Eq` (no PEQ-key
/// requirement) and anchors the differential tests for the bit-parallel
/// kernels. Unit-like slices on hot paths go through
/// [`crate::myers::distance_slices`] instead.
pub fn levenshtein_slices<T: Eq>(a: &[T], b: &[T]) -> usize {
    // Keep the row as short as possible: iterate over the longer slice.
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        return long.len();
    }
    // Trim the common prefix and suffix; names in rings share long runs.
    let prefix = short.iter().zip(long).take_while(|(x, y)| x == y).count();
    let (short, long) = (&short[prefix..], &long[prefix..]);
    let suffix = short
        .iter()
        .rev()
        .zip(long.iter().rev())
        .take_while(|(x, y)| x == y)
        .count();
    let (short, long) = (&short[..short.len() - suffix], &long[..long.len() - suffix]);
    if short.is_empty() {
        return long.len();
    }

    let mut row: Vec<usize> = (0..=short.len()).collect();
    for (i, lc) in long.iter().enumerate() {
        let mut diag = row[0]; // dp[i][0]
        row[0] = i + 1;
        for (j, sc) in short.iter().enumerate() {
            let cost = usize::from(lc != sc);
            let next = (diag + cost).min(row[j] + 1).min(row[j + 1] + 1);
            diag = row[j + 1];
            row[j + 1] = next;
        }
    }
    row[short.len()]
}

/// Thresholded Levenshtein distance: `Some(LD(a, b))` when `LD(a, b) ≤ k`,
/// `None` otherwise.
///
/// # Examples
///
/// ```
/// use tsj_strdist::levenshtein_within;
/// assert_eq!(levenshtein_within("Thomson", "Thompson", 1), Some(1));
/// assert_eq!(levenshtein_within("Thomson", "Thompson", 0), None);
/// assert_eq!(levenshtein_within("abc", "xyz", 2), None);
/// ```
pub fn levenshtein_within(a: &str, b: &str, k: usize) -> Option<usize> {
    if a == b {
        return Some(0);
    }
    if a.is_ascii() && b.is_ascii() {
        levenshtein_within_slices(a.as_bytes(), b.as_bytes(), k)
    } else {
        // Apply the length-gap filter before collecting scalar values: a
        // `chars().count()` scan is allocation-free, and most candidate
        // pairs a join probes die on this check alone.
        let (la, lb) = (a.chars().count(), b.chars().count());
        if la.abs_diff(lb) > k {
            return None;
        }
        let av: Vec<char> = a.chars().collect();
        let bv: Vec<char> = b.chars().collect();
        levenshtein_within_slices(&av, &bv, k)
    }
}

/// Thresholded Levenshtein distance over unit slices: `Some(LD(a, b))` when
/// `LD(a, b) ≤ k`, `None` otherwise.
///
/// Dispatches to the bit-parallel kernels of [`crate::myers`] — single
/// `u64` block for patterns ≤ 64 units, chained blocks beyond — and falls
/// back to the scalar banded DP only when the band `2k+1` is much narrower
/// than the pattern (very long inputs, tiny `k`), where visiting
/// `O((2k+1))` cells beats sweeping `⌈m/64⌉` words per text unit.
pub fn levenshtein_within_slices<T: PeqUnit>(a: &[T], b: &[T], k: usize) -> Option<usize> {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if long.len() - short.len() > k {
        return None;
    }
    if short.is_empty() {
        return Some(long.len()); // already known ≤ k
    }
    if k == 0 {
        // Same length (checked above) and must be equal.
        return (short == long).then_some(0);
    }

    // Trim common prefix/suffix; the kernels then cover the differing core.
    let (short, long) = trim_common(short, long);
    if short.is_empty() {
        return Some(long.len());
    }

    let m = short.len();
    if m <= 64 || m <= MYERS_BLOCK_ADVANTAGE * (2 * k + 1) {
        myers::within_pretrimmed(short, long, k)
    } else {
        banded_pretrimmed(short, long, k)
    }
}

/// Banded (Ukkonen) thresholded Levenshtein distance over slices.
///
/// Runs in `O((2k+1)·max(|a|,|b|))` time: only cells within `k` of the main
/// diagonal can hold a value `≤ k`, so the dynamic program visits a band of
/// width `2k+1` per row and abandons the computation as soon as the whole
/// band exceeds `k`.
///
/// This is the scalar reference implementation;
/// [`levenshtein_within_slices`] reaches it only for patterns where the
/// band is much narrower than the pattern. It stays public so differential
/// tests and benchmarks can pin the bit-parallel kernels against it, and
/// for element types that are `Eq` but not [`PeqUnit`].
pub fn levenshtein_within_slices_banded<T: Eq>(a: &[T], b: &[T], k: usize) -> Option<usize> {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if long.len() - short.len() > k {
        return None;
    }
    if short.is_empty() {
        return Some(long.len());
    }
    if k == 0 {
        return (short == long).then_some(0);
    }
    let (short, long) = trim_common(short, long);
    if short.is_empty() {
        return Some(long.len());
    }
    banded_pretrimmed(short, long, k)
}

/// Trims the common prefix and suffix (free edits) off both slices.
fn trim_common<'a, T: Eq>(short: &'a [T], long: &'a [T]) -> (&'a [T], &'a [T]) {
    let prefix = short.iter().zip(long).take_while(|(x, y)| x == y).count();
    let (short, long) = (&short[prefix..], &long[prefix..]);
    let suffix = short
        .iter()
        .rev()
        .zip(long.iter().rev())
        .take_while(|(x, y)| x == y)
        .count();
    (&short[..short.len() - suffix], &long[..long.len() - suffix])
}

/// The banded DP core on a pre-trimmed pair: `short` is non-empty, no
/// longer than `long`, the length gap is ≤ `k`, and `k ≥ 1`.
fn banded_pretrimmed<T: Eq>(short: &[T], long: &[T], k: usize) -> Option<usize> {
    let n = long.len(); // rows
    let m = short.len(); // columns
    debug_assert!(n >= m);

    // row[j] holds dp[i][j] for the current row `i`, but only within the
    // band `j ∈ [i−k, i+k]`; cells outside carry `SENTINEL`.
    let mut row: Vec<usize> = vec![SENTINEL; m + 1];
    let init_hi = k.min(m);
    for (j, cell) in row.iter_mut().enumerate().take(init_hi + 1) {
        *cell = j;
    }

    for (i, lc) in long.iter().enumerate() {
        let lo = (i + 1).saturating_sub(k);
        let hi = (i + 1 + k).min(m);
        let mut diag = if lo == 0 { row[0] } else { row[lo - 1] };
        if lo == 0 {
            row[0] = i + 1;
        } else {
            // The cell left of the band must read as "unreachable".
            row[lo - 1] = SENTINEL;
        }
        let mut best = SENTINEL;
        for j in lo.max(1)..=hi {
            let cost = usize::from(*lc != short[j - 1]);
            let next = (diag + cost).min(row[j - 1] + 1).min(row[j] + 1);
            diag = row[j];
            row[j] = next;
            best = best.min(next);
        }
        if lo == 0 {
            best = best.min(row[0]);
        }
        // The cell just right of the band (consumed as `diag` next row) must
        // also read as unreachable.
        if hi < m {
            row[hi + 1] = SENTINEL;
        }
        if best > k {
            return None; // every diagonal already exceeded the threshold
        }
    }
    let d = row[m];
    (d <= k).then_some(d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_examples() {
        assert_eq!(levenshtein("Thomson", "Thompson"), 1);
        assert_eq!(levenshtein("Alex", "Alexa"), 1);
    }

    #[test]
    fn classic_cases() {
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("gumbo", "gambol"), 2);
    }

    #[test]
    fn unicode_edits_count_scalars_not_bytes() {
        // 'ä' is two bytes in UTF-8 but one edit away from 'a'.
        assert_eq!(levenshtein("bär", "bar"), 1);
        assert_eq!(levenshtein("日本語", "日本"), 1);
    }

    #[test]
    fn within_agrees_with_full_when_inside_threshold() {
        let cases = [
            ("chan", "chank"),
            ("kalan", "alan"),
            ("obama", "obamma"),
            ("barak", "burak"),
            ("", "xyz"),
            ("same", "same"),
        ];
        for (a, b) in cases {
            let d = levenshtein(a, b);
            for k in d..d + 3 {
                assert_eq!(levenshtein_within(a, b, k), Some(d), "{a:?} vs {b:?} k={k}");
            }
            if d > 0 {
                assert_eq!(levenshtein_within(a, b, d - 1), None, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn within_zero_threshold_is_equality() {
        assert_eq!(levenshtein_within("abc", "abc", 0), Some(0));
        assert_eq!(levenshtein_within("abc", "abd", 0), None);
        assert_eq!(levenshtein_within("abc", "abcd", 0), None);
    }

    #[test]
    fn within_length_gap_prunes_immediately() {
        assert_eq!(levenshtein_within("ab", "abcdefgh", 3), None);
        // Non-ASCII inputs take the hoisted `chars().count()` gap check.
        assert_eq!(levenshtein_within("äb", "äbcdefgh", 3), None);
        assert_eq!(levenshtein_within("日本", "日本語語語語", 3), None);
    }

    #[test]
    fn within_handles_band_edges() {
        // Band width 3 (k=1) with strings differing only near the ends.
        assert_eq!(levenshtein_within("xabcdef", "abcdef", 1), Some(1));
        assert_eq!(levenshtein_within("abcdef", "abcdefx", 1), Some(1));
        assert_eq!(levenshtein_within("xabcdefy", "abcdef", 2), Some(2));
        assert_eq!(levenshtein_within("xabcdefy", "abcdef", 1), None);
    }

    #[test]
    fn slices_work_over_token_ids() {
        let a = [1u32, 2, 3, 4];
        let b = [1u32, 9, 3, 4, 5];
        assert_eq!(levenshtein_slices(&a, &b), 2);
        assert_eq!(levenshtein_within_slices(&a, &b, 2), Some(2));
        assert_eq!(levenshtein_within_slices(&a, &b, 1), None);
    }

    #[test]
    fn banded_reference_stays_available_for_plain_eq_types() {
        // `levenshtein_within_slices_banded` keeps the `T: Eq` bound, so
        // non-PeqUnit element types still have a thresholded entry point.
        #[derive(PartialEq, Eq)]
        struct Tok(&'static str);
        let a = [Tok("new"), Tok("york")];
        let b = [Tok("new"), Tok("pork")];
        assert_eq!(levenshtein_within_slices_banded(&a, &b, 1), Some(1));
        assert_eq!(levenshtein_within_slices_banded(&a, &b, 0), None);
    }

    /// Reference implementation: full-matrix DP, used to cross-check the
    /// optimized variants on exhaustive small alphabets.
    fn reference(a: &[u8], b: &[u8]) -> usize {
        let mut dp = vec![vec![0usize; b.len() + 1]; a.len() + 1];
        for (i, r) in dp.iter_mut().enumerate() {
            r[0] = i;
        }
        for (j, cell) in dp[0].iter_mut().enumerate() {
            *cell = j;
        }
        for i in 1..=a.len() {
            for j in 1..=b.len() {
                let cost = usize::from(a[i - 1] != b[j - 1]);
                dp[i][j] = (dp[i - 1][j - 1] + cost)
                    .min(dp[i - 1][j] + 1)
                    .min(dp[i][j - 1] + 1);
            }
        }
        dp[a.len()][b.len()]
    }

    #[test]
    fn exhaustive_small_alphabet_cross_check() {
        // All pairs of strings of length ≤ 4 over {a, b}: 31 × 31 pairs,
        // cross-checked against the full-matrix reference on every code
        // path: the scalar DPs, the dispatching `levenshtein_within_slices`,
        // and the bit-parallel kernel directly.
        let mut words: Vec<Vec<u8>> = vec![vec![]];
        for len in 1..=4 {
            for idx in 0..(1u32 << len) {
                let w: Vec<u8> = (0..len)
                    .map(|i| if idx >> i & 1 == 1 { b'b' } else { b'a' })
                    .collect();
                words.push(w);
            }
        }
        for x in &words {
            for y in &words {
                let expect = reference(x, y);
                assert_eq!(levenshtein_slices(x, y), expect);
                assert_eq!(crate::myers::distance_slices(x, y), expect);
                for k in 0..=5 {
                    let want = (expect <= k).then_some(expect);
                    assert_eq!(
                        levenshtein_within_slices(x, y, k),
                        want,
                        "dispatch {x:?} {y:?} k={k}"
                    );
                    assert_eq!(
                        levenshtein_within_slices_banded(x, y, k),
                        want,
                        "banded {x:?} {y:?} k={k}"
                    );
                    assert_eq!(
                        crate::myers::within_slices(x, y, k),
                        want,
                        "myers {x:?} {y:?} k={k}"
                    );
                }
            }
        }
    }

    /// Deterministic xorshift so the multi-block cross-check needs no RNG
    /// dependency and reproduces exactly.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    #[test]
    fn multi_block_cross_check_against_reference() {
        // Pseudo-random pairs long enough that, after prefix/suffix
        // trimming, the pattern still spans several 64-bit blocks — the
        // carry-chain path the exhaustive small-alphabet test cannot reach.
        let mut rng = XorShift(0x1CDE_2019_D5E7_A11E);
        for round in 0..60 {
            let la = 65 + (rng.next() % 140) as usize;
            let lb = 65 + (rng.next() % 140) as usize;
            let a: Vec<u8> = (0..la).map(|_| b'a' + (rng.next() % 3) as u8).collect();
            let b: Vec<u8> = (0..lb).map(|_| b'a' + (rng.next() % 3) as u8).collect();
            let expect = reference(&a, &b);
            assert_eq!(
                crate::myers::distance_slices(&a, &b),
                expect,
                "round {round}"
            );
            for k in [0usize, 1, 2, 5, 9, 14, 40, 200] {
                let want = (expect <= k).then_some(expect);
                assert_eq!(
                    crate::myers::within_slices(&a, &b, k),
                    want,
                    "myers round {round} k={k}"
                );
                assert_eq!(
                    levenshtein_within_slices(&a, &b, k),
                    want,
                    "dispatch round {round} k={k}"
                );
                assert_eq!(
                    levenshtein_within_slices_banded(&a, &b, k),
                    want,
                    "banded round {round} k={k}"
                );
            }
        }
    }

    #[test]
    fn multi_block_cross_check_interned_units() {
        // Same carry-chain coverage with token ids ≥ 256, forcing the
        // interned PEQ map instead of the dense byte table.
        let mut rng = XorShift(0x5EED_CAFE_F00D_0001);
        for round in 0..30 {
            let la = 65 + (rng.next() % 80) as usize;
            let lb = 65 + (rng.next() % 80) as usize;
            let a: Vec<u32> = (0..la).map(|_| 70_000 + (rng.next() % 5) as u32).collect();
            let b: Vec<u32> = (0..lb).map(|_| 70_000 + (rng.next() % 5) as u32).collect();
            let expect = levenshtein_slices(&a, &b);
            for k in [0usize, 2, 6, 11, 50, 200] {
                let want = (expect <= k).then_some(expect);
                assert_eq!(
                    crate::myers::within_slices(&a, &b, k),
                    want,
                    "myers round {round} k={k}"
                );
                assert_eq!(
                    levenshtein_within_slices(&a, &b, k),
                    want,
                    "dispatch round {round} k={k}"
                );
            }
        }
    }
}
