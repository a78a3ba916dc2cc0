//! PassJoin / MassJoin: scalable string-similarity self-joins under `LD`
//! and `NLD` thresholds (Sec. III-D of the paper).
//!
//! TSJ reduces the NSLD-join of tokenized strings to an NLD-join of their
//! *token spaces* (Theorem 3), and performs that join with MassJoin \[19\], a
//! MapReduce-distributed version of Pass-Join \[36\]. The building blocks:
//!
//! * [`segments`] — the even-partition segmenting scheme (Lemma 7: any
//!   `U + 1` segments of `y` guarantee a shared substring with any `x`
//!   within `LD ≤ U`) and the multi-match-aware substring windows that keep
//!   the probe side's candidate substrings to `O(U)` per segment.
//! * [`serial`] — the single-threaded PassJoin self-join under an `NLD`
//!   threshold ([`nld_self_join_serial`]), the reference implementation
//!   MassJoin and the TSJ filters are tested against.
//! * [`massjoin`] — [`MassJoin`]: the same join staged as one MapReduce
//!   job on a [`tsj_mapreduce::Cluster`]: chunk grouping generates the
//!   candidates, and each reduce group verifies, behind a character-set
//!   check, the pairs it owns (every pair is owned by exactly one group).
//!
//! **Threshold domain.** The NLD joins guarantee completeness for
//! `t < 2/3`: beyond that, Lemma 8's cap `U` reaches the token length and
//! the even-partition scheme degenerates. The paper sweeps `T ∈ [0.025,
//! 0.225]`, far inside the guaranteed region; the joins debug-assert this.

pub mod massjoin;
pub mod segments;
pub mod serial;

use tsj_mapreduce::Spill;

pub use massjoin::{ChunkRole, MassJoin};
pub use segments::{even_partitions, substring_window};
pub use serial::nld_self_join_serial;

/// A verified NLD-similar token pair produced by the joins.
///
/// Ids are the indices of the tokens in the join's input slice; `a < b`
/// always. `ld` is carried alongside `nld` because the TSJ histogram filter
/// (Sec. III-E2) charges matched token pairs their exact edit cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimilarTokenPair {
    /// Smaller token index.
    pub a: u32,
    /// Larger token index.
    pub b: u32,
    /// Exact Levenshtein distance between the tokens.
    pub ld: u32,
    /// Normalized Levenshtein distance (≤ the join threshold).
    pub nld: f64,
}

impl SimilarTokenPair {
    pub(crate) fn new(i: u32, j: u32, ld: u32, nld: f64) -> Self {
        let (a, b) = if i <= j { (i, j) } else { (j, i) };
        Self { a, b, ld, nld }
    }
}

/// Job outputs are [`Spill`] so a dataset-producing stage can keep them
/// runtime-side (and spill them) instead of materializing a driver `Vec`.
impl Spill for SimilarTokenPair {
    fn spill(&self, out: &mut Vec<u8>) {
        self.a.spill(out);
        self.b.spill(out);
        self.ld.spill(out);
        self.nld.spill(out);
    }

    fn restore(buf: &mut &[u8]) -> Option<Self> {
        Some(Self {
            a: u32::restore(buf)?,
            b: u32::restore(buf)?,
            ld: u32::restore(buf)?,
            nld: f64::restore(buf)?,
        })
    }
}
