//! Minimum-weight perfect matching on weighted bigraphs.
//!
//! The SLD computation of Sec. III-F forms a complete bipartite graph whose
//! nodes are the (ε-padded) tokens of the two tokenized strings and whose
//! edge weights are token-level Levenshtein distances, then solves the
//! assignment problem. This crate provides:
//!
//! * [`hungarian`] — the exact `O(n³)` Hungarian algorithm (shortest
//!   augmenting paths with potentials), the paper's exact verifier;
//! * [`greedy`] — the *greedy-token-aligning* approximation of Sec. III-G5:
//!   repeatedly commit the globally lightest remaining edge;
//! * [`hungarian_within`] / [`greedy_within`] — the same solvers told a
//!   cost bound up front: they give up (`None`) the moment the cost they
//!   have committed to passes it, which is how verification asks its
//!   thresholded question. The unbounded calls are these with no bound;
//! * [`exhaustive`] — brute-force over all permutations, exposed for
//!   property tests and tiny instances (`n ≤ 10`).
//!
//! All solvers take a square [`SquareMatrix`] of `u64` costs; callers pad
//! rectangular instances (the SLD layer pads with empty tokens, whose edge
//! weight to a token `z` is `|z|`). Up to side 8 the matrix and every
//! solver's working arrays live on the stack, so a solve that gives up
//! allocates nothing.

pub mod matrix;
mod small;

pub use matrix::SquareMatrix;

use small::{SmallBuf, INLINE_SIDE};

/// A perfect matching: `assignment[row] = column`, plus its total cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matching {
    /// Total weight of the selected edges.
    pub cost: u64,
    /// `assignment[i]` is the column matched to row `i`; always a
    /// permutation of `0..n`.
    pub assignment: Vec<usize>,
}

/// Exact minimum-cost perfect matching via the Hungarian algorithm
/// (Jonker–Volgenant style shortest augmenting paths), `O(n³)`.
///
/// # Examples
///
/// ```
/// use tsj_assignment::{hungarian, SquareMatrix};
/// let m = SquareMatrix::from_rows(&[
///     vec![4, 1, 3],
///     vec![2, 0, 5],
///     vec![3, 2, 2],
/// ]);
/// let sol = hungarian(&m);
/// assert_eq!(sol.cost, 5); // 1 + 2 + 2
/// ```
///
/// # Panics
///
/// Panics if any cost exceeds `u64::MAX / 4` (headroom for potential
/// arithmetic; SLD costs are token lengths, far below this).
pub fn hungarian(m: &SquareMatrix) -> Matching {
    hungarian_within(m, u64::MAX).expect("no matching costs more than u64::MAX")
}

/// [`hungarian`] told a bound: the optimal matching when its cost is
/// `≤ bound`, `None` otherwise — decided as early as the algorithm can.
///
/// Rows are inserted one phase at a time, and after each phase `-v[0]`
/// (the potential of the sentinel column) is the optimum over the rows
/// inserted so far. Costs are non-negative, so that optimum never
/// decreases as rows are added: the solver returns `None` at the first
/// phase whose optimum passes `bound`, without inserting the rest.
///
/// ```
/// use tsj_assignment::{hungarian_within, SquareMatrix};
/// let m = SquareMatrix::from_rows(&[vec![4, 1, 3], vec![2, 0, 5], vec![3, 2, 2]]);
/// assert_eq!(hungarian_within(&m, 5).map(|s| s.cost), Some(5));
/// assert_eq!(hungarian_within(&m, 4), None);
/// ```
///
/// # Panics
///
/// As [`hungarian`].
pub fn hungarian_within(m: &SquareMatrix, bound: u64) -> Option<Matching> {
    let n = m.n();
    assert!(
        m.iter().all(|c| c <= u64::MAX / 4),
        "costs too large for potential arithmetic"
    );
    const INF: i64 = i64::MAX / 2;
    type Scratch<T> = SmallBuf<T, { INLINE_SIDE + 1 }>;

    // 1-indexed potentials over rows (u) and columns (v); p[j] is the row
    // matched to column j (0 = unmatched sentinel row).
    let (mut u, mut v) = (Scratch::filled(n + 1, 0i64), Scratch::filled(n + 1, 0i64));
    let (mut p, mut way) = (
        Scratch::filled(n + 1, 0usize),
        Scratch::filled(n + 1, 0usize),
    );
    let (mut minv, mut used) = (Scratch::filled(n + 1, INF), Scratch::filled(n + 1, false));
    // Borrow each buffer as a plain slice once, not per access.
    let (u, v, p, way) = (&mut *u, &mut *v, &mut *p, &mut *way);
    let (minv, used, costs) = (&mut *minv, &mut *used, m.cells());

    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        minv.fill(INF);
        used.fill(false);
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = INF;
            let mut j1 = 0usize;
            for j in 1..=n {
                if used[j] {
                    continue;
                }
                let cur = costs[(i0 - 1) * n + j - 1] as i64 - u[i0] - v[j];
                if cur < minv[j] {
                    minv[j] = cur;
                    way[j] = j0;
                }
                if minv[j] < delta {
                    delta = minv[j];
                    j1 = j;
                }
            }
            for j in 0..=n {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        // Augment along the recorded path.
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
        // -v[0] ≥ 0: the optimum over rows 1..=i.
        if (-v[0]) as u64 > bound {
            return None;
        }
    }

    let mut assignment = vec![0usize; n];
    for j in 1..=n {
        if p[j] > 0 {
            assignment[p[j] - 1] = j - 1;
        }
    }
    let cost = assignment
        .iter()
        .enumerate()
        .map(|(i, &j)| m.get(i, j))
        .sum();
    Some(Matching { cost, assignment })
}

/// Greedy-token-aligning (Sec. III-G5): select the globally minimum-weight
/// edge, remove both endpoints, repeat.
///
/// Runs in `O(n² log n)` (sorting the n² edges) — the paper's
/// `T(xᵗ)·T(yᵗ)·log(T(xᵗ)·T(yᵗ))` term. The result is a valid perfect
/// matching whose cost is an *upper bound* on the optimum, which keeps the
/// approximation on the false-negative side (precision stays 1.0).
///
/// Ties are broken by `(cost, row, column)` so the approximation is
/// deterministic across runs and platforms.
pub fn greedy(m: &SquareMatrix) -> Matching {
    greedy_within(m, u64::MAX).expect("no matching costs more than u64::MAX")
}

/// [`greedy`] told a bound: its matching when the cost is `≤ bound`,
/// `None` otherwise. The committed cost only grows as edges are taken, so
/// the walk stops at the first edge that carries it past `bound`.
pub fn greedy_within(m: &SquareMatrix, bound: u64) -> Option<Matching> {
    let n = m.n();
    let mut edges = SmallBuf::<_, { INLINE_SIDE * INLINE_SIDE }>::filled(n * n, (0, 0, 0));
    for i in 0..n {
        for j in 0..n {
            edges[i * n + j] = (m.get(i, j), i as u32, j as u32);
        }
    }
    edges.sort_unstable();
    type Scratch<T> = SmallBuf<T, INLINE_SIDE>;
    let (mut row_used, mut col_used) = (Scratch::filled(n, false), Scratch::filled(n, false));
    let mut assignment = Scratch::filled(n, usize::MAX);
    let (row_used, col_used, assignment) = (&mut *row_used, &mut *col_used, &mut *assignment);
    let mut cost = 0u64;
    let mut matched = 0usize;
    for &(w, i, j) in edges.iter() {
        let (i, j) = (i as usize, j as usize);
        if row_used[i] || col_used[j] {
            continue;
        }
        row_used[i] = true;
        col_used[j] = true;
        assignment[i] = j;
        cost += w;
        if cost > bound {
            return None;
        }
        matched += 1;
        if matched == n {
            break;
        }
    }
    Some(Matching {
        cost,
        assignment: assignment.to_vec(),
    })
}

/// Brute-force minimum over all `n!` permutations. Exposed for tests and
/// tiny instances.
///
/// # Panics
///
/// Panics for `n > 10` (10! ≈ 3.6M permutations is the practical ceiling).
pub fn exhaustive(m: &SquareMatrix) -> Matching {
    let n = m.n();
    assert!(n <= 10, "exhaustive matching is for n ≤ 10 (got {n})");
    if n == 0 {
        return Matching {
            cost: 0,
            assignment: vec![],
        };
    }
    let mut perm: Vec<usize> = (0..n).collect();
    let mut best_cost = u64::MAX;
    let mut best: Vec<usize> = perm.clone();
    permute(&mut perm, 0, &mut |p| {
        let c: u64 = p.iter().enumerate().map(|(i, &j)| m.get(i, j)).sum();
        if c < best_cost {
            best_cost = c;
            best.copy_from_slice(p);
        }
    });
    Matching {
        cost: best_cost,
        assignment: best,
    }
}

fn permute(p: &mut Vec<usize>, k: usize, visit: &mut impl FnMut(&[usize])) {
    if k == p.len() {
        visit(p);
        return;
    }
    for i in k..p.len() {
        p.swap(k, i);
        permute(p, k + 1, visit);
        p.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_instance() {
        let m = SquareMatrix::zeros(0);
        assert_eq!(hungarian(&m).cost, 0);
        assert_eq!(greedy(&m).cost, 0);
        assert_eq!(exhaustive(&m).cost, 0);
    }

    #[test]
    fn singleton() {
        let m = SquareMatrix::from_rows(&[vec![7]]);
        let h = hungarian(&m);
        assert_eq!(h.cost, 7);
        assert_eq!(h.assignment, vec![0]);
    }

    #[test]
    fn classic_3x3() {
        let m = SquareMatrix::from_rows(&[vec![4, 1, 3], vec![2, 0, 5], vec![3, 2, 2]]);
        assert_eq!(hungarian(&m).cost, 5);
        assert_eq!(exhaustive(&m).cost, 5);
    }

    #[test]
    fn greedy_can_be_suboptimal_but_valid() {
        // Greedy takes the 0 edge (0,0), forcing 10+10; optimal is 1+1+0.
        let m = SquareMatrix::from_rows(&[vec![0, 1, 10], vec![1, 10, 10], vec![10, 10, 0]]);
        let h = hungarian(&m);
        let g = greedy(&m);
        assert_eq!(h.cost, 2);
        assert!(g.cost >= h.cost);
        assert_permutation(&g.assignment);
    }

    #[test]
    fn hungarian_matches_exhaustive_on_fixed_cases() {
        let cases = [
            vec![vec![1, 2], vec![3, 4]],
            vec![vec![5, 5], vec![5, 5]],
            vec![
                vec![9, 2, 7, 8],
                vec![6, 4, 3, 7],
                vec![5, 8, 1, 8],
                vec![7, 6, 9, 4],
            ],
        ];
        for rows in cases {
            let m = SquareMatrix::from_rows(&rows);
            assert_eq!(hungarian(&m).cost, exhaustive(&m).cost, "{rows:?}");
        }
    }

    #[test]
    fn assignments_are_permutations() {
        let m = SquareMatrix::from_rows(&[
            vec![3, 1, 4, 1],
            vec![5, 9, 2, 6],
            vec![5, 3, 5, 8],
            vec![9, 7, 9, 3],
        ]);
        assert_permutation(&hungarian(&m).assignment);
        assert_permutation(&greedy(&m).assignment);
        assert_permutation(&exhaustive(&m).assignment);
    }

    #[test]
    fn deterministic_greedy_tie_breaking() {
        let m = SquareMatrix::from_rows(&[vec![1, 1], vec![1, 1]]);
        let g1 = greedy(&m);
        let g2 = greedy(&m);
        assert_eq!(g1.assignment, g2.assignment);
        assert_eq!(g1.assignment, vec![0, 1]); // row-major tie order
    }

    fn assert_permutation(a: &[usize]) {
        let mut seen = vec![false; a.len()];
        for &j in a {
            assert!(j < a.len() && !seen[j], "not a permutation: {a:?}");
            seen[j] = true;
        }
    }
}
