//! Dense square cost matrices for the assignment solvers.

use crate::small::{SmallBuf, INLINE_SIDE};

/// A dense `n × n` matrix of `u64` costs in row-major order, held inline
/// (no allocation) up to side 8.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SquareMatrix {
    n: usize,
    data: SmallBuf<u64, { INLINE_SIDE * INLINE_SIDE }>,
}

impl SquareMatrix {
    /// An all-zero `n × n` matrix.
    pub fn zeros(n: usize) -> Self {
        Self {
            n,
            data: SmallBuf::filled(n * n, 0),
        }
    }

    /// Builds from a cost function.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> u64) -> Self {
        let mut m = Self::zeros(n);
        for i in 0..n {
            for j in 0..n {
                m.set(i, j, f(i, j));
            }
        }
        m
    }

    /// Builds from explicit rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows do not form a square matrix.
    pub fn from_rows(rows: &[Vec<u64>]) -> Self {
        let n = rows.len();
        assert!(
            rows.iter().all(|r| r.len() == n),
            "rows must form a square matrix"
        );
        Self::from_fn(n, |i, j| rows[i][j])
    }

    /// Side length.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Cost at `(row, col)`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> u64 {
        debug_assert!(row < self.n && col < self.n);
        self.data[row * self.n + col]
    }

    /// Sets the cost at `(row, col)`.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: u64) {
        debug_assert!(row < self.n && col < self.n);
        self.data[row * self.n + col] = value;
    }

    /// Iterates over all costs in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.cells().iter().copied()
    }

    /// All costs in row-major order, as one slice.
    #[inline]
    pub(crate) fn cells(&self) -> &[u64] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut m = SquareMatrix::zeros(2);
        m.set(0, 1, 5);
        assert_eq!(m.get(0, 1), 5);
        assert_eq!(m.get(1, 0), 0);
        assert_eq!(m.n(), 2);

        let f = SquareMatrix::from_fn(3, |i, j| (i * 10 + j) as u64);
        assert_eq!(f.get(2, 1), 21);

        let r = SquareMatrix::from_rows(&[vec![1, 2], vec![3, 4]]);
        assert_eq!(r.get(1, 1), 4);
        assert_eq!(r.iter().sum::<u64>(), 10);
    }

    #[test]
    fn past_the_inline_side_the_cells_live_on_the_heap() {
        let n = INLINE_SIDE + 1;
        let m = SquareMatrix::from_fn(n, |i, j| (i * n + j) as u64);
        assert_eq!(m.iter().count(), n * n);
        assert_eq!(m.get(n - 1, n - 1), (n * n - 1) as u64);
        assert_eq!(m.clone(), m);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn rejects_ragged_rows() {
        let _ = SquareMatrix::from_rows(&[vec![1], vec![2, 3]]);
    }
}
