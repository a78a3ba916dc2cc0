//! The oracle the budgeted verifier is tested against, shared by
//! `props.rs` and the `#[ignore]`d exhaustive sweep.

use tsj_setdist::{
    max_sld_given_nsld, nsld_from_sld, nsld_lower_bound_from_total_lens, sld, sld_greedy, Aligning,
};

/// `t ∈ {0, 0.05, …, 0.5, 1.0}`.
pub fn threshold_grid() -> impl Iterator<Item = f64> {
    (0..=10).map(|i| f64::from(i) * 0.05).chain([1.0])
}

/// `L(xᵗ)` of an ASCII token multiset.
pub fn total_len(tokens: &[impl AsRef<str>]) -> usize {
    tokens.iter().map(|t| t.as_ref().len()).sum()
}

/// `nsld_within`'s answer assembled from the public unthresholded pieces:
/// the whole bigraph solved with no bound, then the verification
/// arithmetic in its documented order.
pub fn oracle<S: AsRef<str>>(x: &[S], y: &[S], t: f64, aligning: Aligning) -> Option<f64> {
    let (lx, ly) = (total_len(x), total_len(y));
    if t < 0.0 || nsld_lower_bound_from_total_lens(lx, ly) > t {
        return None;
    }
    let s = match aligning {
        Aligning::Hungarian => sld(x, y),
        Aligning::Greedy => sld_greedy(x, y),
    };
    if t < 1.0 && s > max_sld_given_nsld(lx, ly, t) {
        return None;
    }
    let d = nsld_from_sld(s, lx, ly);
    (d <= t).then_some(d)
}
