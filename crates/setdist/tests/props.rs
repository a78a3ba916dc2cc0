//! Property tests for SLD/NSLD: the paper's Lemmas 4–6, Theorems 2–3, the
//! soundness of the greedy approximation and the histogram filter, and the
//! budgeted verifier against the unthresholded oracle.

mod common;

use common::{oracle, threshold_grid, total_len};
use proptest::prelude::*;
use tsj_setdist::{
    max_sld_given_nsld, nsld, nsld_from_sld, nsld_greedy, nsld_lower_bound_from_total_lens,
    nsld_within, sld, sld_greedy, sld_lower_bound_sorted_lens, Aligning,
};
use tsj_strdist::nld;

/// Small token multisets over a tiny alphabet (1–4 tokens of 1–6 chars).
fn token_multiset() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(proptest::string::string_regex("[ab]{1,6}").unwrap(), 0..4)
}

/// 0–5 tokens of 0–8 letters over three letters: short enough that the
/// SLD budget is met exactly, missed by one and missed by far, on both
/// sides of every exit of the budgeted verifier.
fn budget_probe_multiset() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(proptest::string::string_regex("[abc]{0,8}").unwrap(), 0..=5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Lemma 4 components: identity and symmetry of SLD.
    #[test]
    fn sld_identity_and_symmetry(x in token_multiset(), y in token_multiset()) {
        prop_assert_eq!(sld(&x, &x), 0);
        prop_assert_eq!(sld(&x, &y), sld(&y, &x));
    }

    /// Lemma 4: triangle inequality of SLD.
    #[test]
    fn sld_triangle(x in token_multiset(), y in token_multiset(), z in token_multiset()) {
        prop_assert!(sld(&x, &y) + sld(&y, &z) >= sld(&x, &z));
    }

    /// Token order never matters (set semantics).
    #[test]
    fn sld_order_invariant(x in token_multiset(), y in token_multiset()) {
        let mut xr = x.clone();
        xr.reverse();
        prop_assert_eq!(sld(&x, &y), sld(&xr, &y));
    }

    /// Lemma 5: NSLD ∈ [0, 1]; Theorem 2 components: symmetry + triangle.
    #[test]
    fn nsld_metric_axioms(x in token_multiset(), y in token_multiset(), z in token_multiset()) {
        let xy = nsld(&x, &y);
        prop_assert!((0.0..=1.0).contains(&xy));
        prop_assert!((xy - nsld(&y, &x)).abs() < 1e-12);
        let yz = nsld(&y, &z);
        let xz = nsld(&x, &z);
        prop_assert!(xy + yz >= xz - 1e-12,
            "NSLD triangle violated: {xy} + {yz} < {xz} for {x:?} {y:?} {z:?}");
    }

    /// Lemma 6 lower bound (the sound half driving the length filter).
    #[test]
    fn lemma6_lower_bound(x in token_multiset(), y in token_multiset()) {
        let lo = nsld_lower_bound_from_total_lens(total_len(&x), total_len(&y));
        prop_assert!(lo <= nsld(&x, &y) + 1e-12);
    }

    /// Theorem 3: if NSLD(xᵗ, yᵗ) ≤ T (both non-empty), some token pair has
    /// NLD ≤ T. This is the insight enabling the token-domain reduction.
    #[test]
    fn theorem3_token_witness(x in token_multiset(), y in token_multiset(), t in 0.01f64..0.9) {
        if !x.is_empty() && !y.is_empty() && nsld(&x, &y) <= t {
            let witness = x.iter().any(|a| y.iter().any(|b| nld(a, b) <= t));
            prop_assert!(witness,
                "NSLD ≤ {t} but no token pair with NLD ≤ {t}: {x:?} vs {y:?}");
        }
    }

    /// Greedy aligning upper-bounds the exact distance (false negatives
    /// only — Sec. V-B2's precision-1.0 guarantee).
    #[test]
    fn greedy_upper_bounds(x in token_multiset(), y in token_multiset()) {
        prop_assert!(sld_greedy(&x, &y) >= sld(&x, &y));
        prop_assert!(nsld_greedy(&x, &y) >= nsld(&x, &y) - 1e-12);
        // Greedy is still exact on identical inputs.
        prop_assert_eq!(sld_greedy(&x, &x), 0);
    }

    /// `nsld_within` is an exact filter under Hungarian aligning.
    #[test]
    fn within_exact_filter(x in token_multiset(), y in token_multiset(), t in 0.0f64..1.0) {
        let d = nsld(&x, &y);
        match nsld_within(&x, &y, t, Aligning::Hungarian) {
            Some(v) => {
                prop_assert!((v - d).abs() < 1e-12);
                prop_assert!(v <= t);
            }
            None => prop_assert!(d > t),
        }
    }

    /// The budgeted verifier is the unthresholded oracle, bit for bit, under
    /// both aligners at every `t` of the grid.
    #[test]
    fn budgeted_verifier_equals_the_oracle(
        x in budget_probe_multiset(),
        y in budget_probe_multiset(),
    ) {
        for aligning in [Aligning::Hungarian, Aligning::Greedy] {
            for t in threshold_grid() {
                prop_assert_eq!(
                    nsld_within(&x, &y, t, aligning),
                    oracle(&x, &y, t, aligning),
                    "{:?} vs {:?} at t={} ({:?})", x, y, t, aligning
                );
            }
        }
    }

    /// Histogram lower bound never exceeds the true SLD.
    #[test]
    fn histogram_lower_bound_sound(x in token_multiset(), y in token_multiset()) {
        let mut xl: Vec<u32> = x.iter().map(|s| s.len() as u32).collect();
        let mut yl: Vec<u32> = y.iter().map(|s| s.len() as u32).collect();
        xl.sort_unstable();
        yl.sort_unstable();
        prop_assert!(sld_lower_bound_sorted_lens(&xl, &yl) <= sld(&x, &y));
    }

    /// The SLD budget is the exact crossover point of Definition 4.
    #[test]
    fn sld_budget_crossover(lx in 0usize..64, ly in 0usize..64, t in 0.01f64..0.99) {
        let budget = max_sld_given_nsld(lx, ly, t);
        prop_assert!(nsld_from_sld(budget, lx, ly) <= t + 1e-12);
        prop_assert!(nsld_from_sld(budget + 1, lx, ly) > t);
    }
}
