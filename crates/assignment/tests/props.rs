//! Property tests for the assignment solvers.

use proptest::prelude::*;
use tsj_assignment::{
    exhaustive, greedy, greedy_within, hungarian, hungarian_within, SquareMatrix,
};

fn small_matrix() -> impl Strategy<Value = SquareMatrix> {
    matrix_of_side(1..=6)
}

fn matrix_of_side(sides: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = SquareMatrix> {
    sides.prop_flat_map(|n| {
        proptest::collection::vec(0u64..50, n * n)
            .prop_map(move |data| SquareMatrix::from_fn(n, |i, j| data[i * n + j]))
    })
}

fn is_permutation(a: &[usize]) -> bool {
    let mut seen = vec![false; a.len()];
    a.iter().all(|&j| {
        if j >= a.len() || seen[j] {
            false
        } else {
            seen[j] = true;
            true
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The Hungarian algorithm is exactly optimal (cross-check vs brute force).
    #[test]
    fn hungarian_is_optimal(m in small_matrix()) {
        let h = hungarian(&m);
        let e = exhaustive(&m);
        prop_assert_eq!(h.cost, e.cost);
        prop_assert!(is_permutation(&h.assignment));
        // The reported cost is consistent with the reported assignment.
        let recomputed: u64 = h.assignment.iter().enumerate().map(|(i, &j)| m.get(i, j)).sum();
        prop_assert_eq!(recomputed, h.cost);
    }

    /// Greedy is a valid matching that never beats the optimum — this is
    /// what makes greedy-token-aligning a pure false-negative approximation
    /// (Sec. V-B2: precision stays 1.0).
    #[test]
    fn greedy_upper_bounds_optimum(m in small_matrix()) {
        let h = hungarian(&m);
        let g = greedy(&m);
        prop_assert!(g.cost >= h.cost);
        prop_assert!(is_permutation(&g.assignment));
        let recomputed: u64 = g.assignment.iter().enumerate().map(|(i, &j)| m.get(i, j)).sum();
        prop_assert_eq!(recomputed, g.cost);
    }

    /// The bounded solvers are the full ones told a bound: at every bound
    /// from 0 to one past the cost, the full matching when it fits and
    /// `None` when it does not — on sides 0 to 10, across the inline /
    /// heap boundary at 8 — and the exhaustive optimum decides the
    /// Hungarian answer wherever brute force is affordable (n ≤ 6).
    #[test]
    fn bounded_solvers_equal_the_full_ones_at_every_bound(m in matrix_of_side(0..=10)) {
        let (h, g) = (hungarian(&m), greedy(&m));
        let optimum = (m.n() <= 6).then(|| exhaustive(&m).cost);
        prop_assert!(optimum.is_none_or(|e| e == h.cost));
        for bound in 0..=h.cost.max(g.cost) + 1 {
            prop_assert_eq!(hungarian_within(&m, bound), (h.cost <= bound).then(|| h.clone()));
            prop_assert_eq!(greedy_within(&m, bound), (g.cost <= bound).then(|| g.clone()));
        }
    }

    /// Uniform matrices: every matching has the same cost, so greedy is
    /// optimal and the cost equals n times the uniform value.
    #[test]
    fn uniform_matrices(n in 1usize..6, c in 0u64..20) {
        let m = SquareMatrix::from_fn(n, |_, _| c);
        prop_assert_eq!(hungarian(&m).cost, n as u64 * c);
        prop_assert_eq!(greedy(&m).cost, n as u64 * c);
    }

    /// Adding a constant to every cost raises the optimum by n·constant
    /// (potentials invariance sanity check).
    #[test]
    fn constant_shift_invariance(m in small_matrix(), shift in 0u64..10) {
        let n = m.n();
        let shifted = SquareMatrix::from_fn(n, |i, j| m.get(i, j) + shift);
        prop_assert_eq!(hungarian(&shifted).cost, hungarian(&m).cost + n as u64 * shift);
    }

    /// A permutation matrix with zeros on a known permutation and large
    /// costs elsewhere must recover exactly that permutation.
    #[test]
    fn recovers_planted_permutation(n in 1usize..7, seed in 0u64..1000) {
        // Derive a permutation from the seed via a simple LCG shuffle.
        let mut perm: Vec<usize> = (0..n).collect();
        let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        for i in (1..n).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            perm.swap(i, (s >> 33) as usize % (i + 1));
        }
        let m = SquareMatrix::from_fn(n, |i, j| if perm[i] == j { 0 } else { 100 });
        let h = hungarian(&m);
        prop_assert_eq!(h.cost, 0);
        prop_assert_eq!(h.assignment, perm);
    }
}
