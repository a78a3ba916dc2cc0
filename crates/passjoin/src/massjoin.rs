//! MassJoin: the Pass-Join NLD self-join staged as MapReduce jobs
//! (Deng et al. \[19\], adapted to NLD per Sec. III-D).
//!
//! Two jobs:
//!
//! 1. **`massjoin.candidates`** — every token plays both roles: as the
//!    *indexed* (longer) side it emits its Lemma-7 segments keyed by the
//!    chunk `(length, segment index, content)`; as the *probe* (shorter)
//!    side it emits the multi-match-aware substrings of every valid indexed
//!    length (Lemmas 8–9). Reducers cross segment-bearers with
//!    substring-bearers under the length condition and emit candidate id
//!    pairs. Chunk keys are 64-bit fingerprints ("whenever possible, uses
//!    unique ids of chunks and tokens"); fingerprint collisions only ever
//!    *add* spurious candidates, which verification removes.
//! 2. **`massjoin.verify`** — groups by candidate pair (deduplicating the
//!    multi-chunk hits) and runs the banded NLD verifier exactly once per
//!    distinct pair.

use tsj_mapreduce::{
    fingerprint64, Cluster, Dedup, Emitter, JobError, OutputSink, SimReport, Spill,
};
use tsj_strdist::{max_ld_given_nld, min_len_given_nld};

use crate::segments::{even_partitions, substring_window};
use crate::serial::{fp_chars, verify_nld, MAX_COMPLETE_T};
use crate::SimilarTokenPair;

/// Which role a token plays in a candidate chunk group.
///
/// Public as the workspace's exemplar of a job-specific [`Spill`] codec
/// on an enum (a one-byte tag plus payload); its roundtrip and
/// corrupt-tag behaviour are property-tested in
/// `crates/mapreduce/tests/codec_roundtrip.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChunkRole {
    /// The token contributed this chunk as one of its segments (indexed).
    Seg(u32),
    /// The token contributed this chunk as a probe substring.
    Sub(u32),
}

/// Shuffle values must be spillable so the candidates job can run with
/// memory-bounded mappers (`ShuffleConfig`): a one-byte role tag plus the
/// token id.
impl Spill for ChunkRole {
    fn spill(&self, out: &mut Vec<u8>) {
        match self {
            ChunkRole::Seg(id) => {
                out.push(0);
                id.spill(out);
            }
            ChunkRole::Sub(id) => {
                out.push(1);
                id.spill(out);
            }
        }
    }

    fn restore(buf: &mut &[u8]) -> Option<Self> {
        let (tag, rest) = buf.split_first()?;
        *buf = rest;
        match tag {
            0 => Some(ChunkRole::Seg(u32::restore(buf)?)),
            1 => Some(ChunkRole::Sub(u32::restore(buf)?)),
            _ => None,
        }
    }
}

/// Every token's characters, decoded once per join into one arena: token
/// `i` is `chars[bounds[i]..bounds[i + 1]]`. Both jobs' closures borrow it.
struct CharTable {
    chars: Vec<char>,
    bounds: Vec<usize>,
}

impl CharTable {
    fn new(tokens: &[impl AsRef<str>]) -> Self {
        // A string has at most as many chars as bytes: one allocation each.
        let mut chars = Vec::with_capacity(tokens.iter().map(|t| t.as_ref().len()).sum());
        let mut bounds = Vec::with_capacity(tokens.len() + 1);
        bounds.push(0);
        for t in tokens {
            chars.extend(t.as_ref().chars());
            bounds.push(chars.len());
        }
        Self { chars, bounds }
    }

    #[inline]
    fn get(&self, id: u32) -> &[char] {
        &self.chars[self.bounds[id as usize]..self.bounds[id as usize + 1]]
    }
}

/// A MassJoin executor bound to a cluster and an `NLD` threshold.
///
/// Both jobs inherit the cluster's
/// [`ShuffleConfig`](tsj_mapreduce::ShuffleConfig) and can run with
/// memory-bounded mappers: the candidates job's `⟨chunk, role⟩` records
/// spill via `ChunkRole`'s `Spill` impl, and the verify job's pair keys
/// are plain tuples. Output is identical to the unbounded configuration.
#[derive(Debug, Clone)]
pub struct MassJoin<'c> {
    cluster: &'c Cluster,
    t: f64,
}

impl<'c> MassJoin<'c> {
    /// Creates a joiner.
    ///
    /// # Panics
    ///
    /// Panics if `t` is outside `[0, 2/3)` (see crate docs).
    pub fn new(cluster: &'c Cluster, t: f64) -> Self {
        assert!(
            (0.0..MAX_COMPLETE_T).contains(&t),
            "NLD threshold {t} outside the completeness domain [0, 2/3)"
        );
        Self { cluster, t }
    }

    /// NLD self-join over `tokens`; ids in the result are indices into
    /// `tokens`. Returns the verified pairs plus the per-job simulation
    /// report.
    ///
    /// The two jobs are recorded as a lazy
    /// [`Dataset`](tsj_mapreduce::Dataset) graph and execute at the
    /// `collect` terminal with cross-stage overlap: as each candidates
    /// reduce task finishes its partition, the verify job's map task for
    /// that partition starts on the shared worker pool. Candidate pairs
    /// stay partitioned inside the runtime (spilled to sorted runs under
    /// a bounded shuffle) and feed job 2's map wave directly — the
    /// candidate set never materializes in driver memory, so job 1's
    /// [`driver_out_records`](tsj_mapreduce::JobStats::driver_out_records)
    /// is zero. Only the verified pairs cross back at collect time.
    pub fn nld_self_join(
        &self,
        tokens: &[impl AsRef<str>],
    ) -> Result<(Vec<SimilarTokenPair>, SimReport), JobError> {
        let t = self.t;
        let chars = CharTable::new(tokens);
        let ids: Vec<u32> = (0..tokens.len() as u32).collect();

        let verified = self
            .cluster
            .input_vec(ids)
            .map_reduce_combined(
                "massjoin.candidates",
                candidate_map(&chars, t),
                &Dedup,
                candidate_reduce(&chars, t),
            )?
            .map_reduce_combined(
                "massjoin.verify",
                |&pair, e: &mut Emitter<(u32, u32), ()>| e.emit(pair, ()),
                &Dedup,
                verify_reduce(&chars, t),
            )?;
        let (mut pairs, report) = verified.collect()?;
        pairs.sort_unstable_by_key(|p| (p.a, p.b));
        Ok((pairs, report))
    }
}

/// Job 1's mapper: every token emits its Lemma-7 segments (indexed role)
/// and the multi-match-aware substrings of every valid indexed length
/// (probe role, Lemmas 8–9).
///
/// A probe token can hit the same chunk content at several window
/// positions, emitting duplicate ⟨chunk, role⟩ records; the reducer
/// crosses role *sets*, so the `Dedup` combiner drops those duplicates
/// before the shuffle.
fn candidate_map(
    chars: &CharTable,
    t: f64,
) -> impl Fn(&u32, &mut Emitter<u64, ChunkRole>) + Sync + '_ {
    let lens = chars.bounds.windows(2).map(|w| w[1] - w[0]);
    let max_len = lens.max().unwrap_or(0);
    move |&id, e| {
        let x = chars.get(id);
        let lx = x.len();
        if lx == 0 {
            return;
        }
        // Indexed role: own segments.
        let u_own = max_ld_given_nld(lx, lx, t);
        for (i, (start, seg_len)) in even_partitions(lx, u_own + 1).into_iter().enumerate() {
            let key = chunk_key(lx, i, fp_chars(&x[start..start + seg_len]));
            e.emit(key, ChunkRole::Seg(id));
            e.add_counter("segments_emitted", 1);
        }
        // Probe role: substrings against every valid indexed length.
        let lmax = ((lx as f64 / (1.0 - t)).floor() as usize).min(max_len);
        for l in lx..=lmax {
            if min_len_given_nld(l, t) > lx {
                continue;
            }
            let u = max_ld_given_nld(l, l, t);
            for (i, (start, seg_len)) in even_partitions(l, u + 1).into_iter().enumerate() {
                let Some((lo, hi)) = substring_window(lx, l, i, start, seg_len, u) else {
                    continue;
                };
                for p in lo..=hi {
                    let key = chunk_key(l, i, fp_chars(&x[p..p + seg_len]));
                    e.emit(key, ChunkRole::Sub(id));
                    e.add_counter("substrings_emitted", 1);
                }
            }
        }
    }
}

/// Job 1's reducer: crosses segment-bearers with substring-bearers under
/// the length condition and emits candidate id pairs.
fn candidate_reduce(
    chars: &CharTable,
    t: f64,
) -> impl Fn(&u64, Vec<ChunkRole>, &mut OutputSink<(u32, u32)>) + Sync + '_ {
    move |_chunk, roles, out| {
        let mut segs: Vec<u32> = Vec::new();
        let mut subs: Vec<u32> = Vec::new();
        for r in roles {
            match r {
                ChunkRole::Seg(id) => segs.push(id),
                ChunkRole::Sub(id) => subs.push(id),
            }
        }
        for &y in &segs {
            let ly = chars.get(y).len();
            for &x in &subs {
                let lx = chars.get(x).len();
                // Length condition (Lemmas 8–9): probe is shorter.
                if lx > ly || min_len_given_nld(ly, t) > lx {
                    continue;
                }
                // Same length: the larger id probes (one emission
                // direction, mirroring the serial join).
                if lx == ly && x <= y {
                    continue;
                }
                let (a, b) = if x < y { (x, y) } else { (y, x) };
                out.emit((a, b));
                out.add_counter("candidates_generated", 1);
            }
        }
    }
}

/// Job 2's reducer: grouping on the pair itself deduplicates (the `Dedup`
/// combiner does the same map-side, so multi-chunk hits of one pair
/// shuffle a single record per map task); each distinct pair is verified
/// by the banded NLD check exactly once.
fn verify_reduce(
    chars: &CharTable,
    t: f64,
) -> impl Fn(&(u32, u32), Vec<()>, &mut OutputSink<SimilarTokenPair>) + Sync + '_ {
    move |&(a, b), hits, out| {
        debug_assert!(!hits.is_empty());
        out.add_counter("candidates_distinct", 1);
        out.add_work(5); // banded NLD verification per distinct pair
        if let Some(p) = verify_nld(a, chars.get(a), b, chars.get(b), t) {
            out.add_counter("pairs_verified", 1);
            out.emit(p);
        }
    }
}

#[inline]
fn chunk_key(indexed_len: usize, seg_idx: usize, content_fp: u64) -> u64 {
    fingerprint64(&(indexed_len as u32, seg_idx as u16, content_fp))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::nld_self_join_serial;

    fn cluster() -> Cluster {
        Cluster::with_machines(16)
    }

    #[test]
    fn agrees_with_serial_join() {
        let tokens = [
            "barak", "barack", "obama", "obamma", "ubama", "burak", "chan", "chank", "kalan",
            "alan", "jonathan", "jonathon", "jon", "bob", "bob",
        ];
        let c = cluster();
        for t in [0.05, 0.1, 0.2, 0.3] {
            let (got, report) = MassJoin::new(&c, t).nld_self_join(&tokens).unwrap();
            let expect = nld_self_join_serial(&tokens, t);
            assert_eq!(got, expect, "t = {t}");
            assert_eq!(report.jobs().len(), 2);
            // Dedup happened: distinct candidates ≤ generated candidates.
            assert!(
                report.counter("candidates_distinct") <= report.counter("candidates_generated")
            );
        }
    }

    #[test]
    fn empty_input() {
        let (pairs, _) = MassJoin::new(&cluster(), 0.1)
            .nld_self_join(&[] as &[&str])
            .unwrap();
        assert!(pairs.is_empty());
    }

    #[test]
    #[should_panic(expected = "completeness domain")]
    fn rejects_bad_threshold() {
        let _ = MassJoin::new(&cluster(), 0.8);
    }
}
