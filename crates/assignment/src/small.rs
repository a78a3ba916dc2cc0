//! Stack storage with a heap fallback, so a solve over a small matrix
//! allocates nothing.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// The largest bigraph side the solvers and [`SquareMatrix`] keep on the
/// stack; a larger one falls back to the heap.
///
/// Sized from the token-count histogram of the corpora the join runs on;
/// the bigraph side is the larger token count of the pair. The
/// benchmark's 100 k-string corpus (seed 7674385) has 57 868 strings of 2
/// tokens, 36 441 of 3 and 5 691 of 4, and none longer; the 400 k-string
/// `tokenjoin-heavy` corpus has the same shape (230 828 / 146 925 /
/// 22 247) — `tsj-datagen` draws 2–4-token names and its ring edits never
/// add a token. Eight is twice that, so real names with particles and
/// double surnames ("maria de la cruz garcia lopez") stay on the stack
/// too, for 512 B of `u64` cells per matrix.
///
/// [`SquareMatrix`]: crate::SquareMatrix
pub(crate) const INLINE_SIDE: usize = 8;

/// `len` values of `T`: in an inline array when `len ≤ N`, in a `Vec`
/// otherwise. Derefs to the `len`-long slice either way.
#[derive(Clone)]
pub(crate) enum SmallBuf<T, const N: usize> {
    Inline { cells: [T; N], len: usize },
    Heap(Vec<T>),
}

impl<T: Copy, const N: usize> SmallBuf<T, N> {
    /// `len` copies of `value`.
    pub(crate) fn filled(len: usize, value: T) -> Self {
        if len <= N {
            Self::Inline {
                cells: [value; N],
                len,
            }
        } else {
            Self::Heap(vec![value; len])
        }
    }
}

impl<T, const N: usize> Deref for SmallBuf<T, N> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        match self {
            Self::Inline { cells, len } => &cells[..*len],
            Self::Heap(v) => v,
        }
    }
}

impl<T, const N: usize> DerefMut for SmallBuf<T, N> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            Self::Inline { cells, len } => &mut cells[..*len],
            Self::Heap(v) => v,
        }
    }
}

impl<T: PartialEq, const N: usize> PartialEq for SmallBuf<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq, const N: usize> Eq for SmallBuf<T, N> {}

impl<T: fmt::Debug, const N: usize> fmt::Debug for SmallBuf<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_and_heap_hold_the_same_values() {
        let mut small = SmallBuf::<u64, 4>::filled(3, 7);
        let mut big = SmallBuf::<u64, 2>::filled(3, 7);
        assert!(matches!(small, SmallBuf::Inline { .. }));
        assert!(matches!(big, SmallBuf::Heap(_)));
        small[1] = 9;
        big[1] = 9;
        assert_eq!(&*small, &[7, 9, 7]);
        assert_eq!(*small, *big);
        assert_eq!(small.clone(), small);
        assert_eq!(format!("{small:?}"), "[7, 9, 7]");
    }
}
