//! MassJoin: the Pass-Join NLD self-join staged as one MapReduce job
//! (Deng et al. \[19\], adapted to NLD per Sec. III-D).
//!
//! **`massjoin.candidates`** — every token plays both roles: as the
//! *indexed* (longer) side it emits its Lemma-7 segments keyed by the chunk
//! `(length, segment index, content)`; as the *probe* (shorter) side it
//! emits the multi-match-aware substrings of every valid indexed length
//! (Lemmas 8–9). Chunk keys are 64-bit fingerprints ("whenever possible,
//! uses unique ids of chunks and tokens"). Each reduce group crosses its
//! segment-bearers `y` with its substring-bearers `x` under the length
//! condition and takes every crossing pair through three steps, in order:
//!
//! 1. **Character-set check.** Every token carries a 64-bit signature in
//!    which character `c` sets bit `c mod 64`. The pair is rejected when
//!    `popcount(sig(x) ⊕ sig(y)) > 2·cap`, where `cap` is the Lemma 8 edit
//!    budget the verifier applies. Sound: one edit removes at most one
//!    character from a token's character set and adds at most one, so the
//!    two sets differ in at most `2·LD(x, y)` characters; folding them onto
//!    64 bits can only hide differences, never add them (each set bit of
//!    the XOR names a distinct character of the symmetric difference).
//! 2. **Ownership.** A pair sharing several chunks crosses in several
//!    groups, but only one verifies it: the group keyed by `y`'s *first*
//!    segment `j*` that occurs in `x` inside its Lemma 8–9 window (an
//!    exact character compare). That key is a function of `(y, j*)`, and
//!    both `y`'s segment record and `x`'s substring record for that chunk
//!    land in its group, so exactly one group owns each pair. A pair with
//!    no `j*` met through a fingerprint collision and is dropped.
//! 3. **Verification.** The owner runs the whole-pair thresholded Myers
//!    check (`verify_nld`) and emits the pair with its exact `LD`.
//!
//! The pairs therefore never leave the reducer that forms them: no second
//! job shuffles, groups and de-duplicates the crossings. Verification is
//! whole-pair rather than PASS-JOIN's extension-based split (left and
//! right of the matched segment under separate budgets) because the sum
//! of the two parts' distances bounds `LD` along one alignment but is not
//! `LD` itself, and the TSJ histogram filter uses the reported `LD`s as
//! exact edge costs. The character-set check already keeps most crossings
//! away from the DP, which is what the split would have bought.

use tsj_mapreduce::{
    fingerprint64, Cluster, Dedup, Emitter, JobError, OutputSink, SimReport, Spill,
};
use tsj_strdist::{char_sig, ld_lower_bound_from_sigs, max_ld_given_nld, min_len_given_nld};

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
/// `i` is `chars[bounds[i]..bounds[i + 1]]`, and `sig[i]` is its
/// [`char_sig`]. The map and reduce closures borrow it.
struct CharTable {
    chars: Vec<char>,
    bounds: Vec<usize>,
    sig: Vec<u64>,
}

impl CharTable {
    fn new(tokens: &[impl AsRef<str>]) -> Self {
        // A string has at most as many chars as bytes: one allocation each.
        let mut chars = Vec::with_capacity(tokens.iter().map(|t| t.as_ref().len()).sum());
        let mut bounds = Vec::with_capacity(tokens.len() + 1);
        let mut sig = Vec::with_capacity(tokens.len());
        bounds.push(0);
        for t in tokens {
            let start = chars.len();
            chars.extend(t.as_ref().chars());
            sig.push(char_sig(chars[start..].iter().copied()));
            bounds.push(chars.len());
        }
        Self { chars, bounds, sig }
    }

    #[inline]
    fn get(&self, id: u32) -> &[char] {
        &self.chars[self.bounds[id as usize]..self.bounds[id as usize + 1]]
    }
}

/// A MassJoin executor bound to a cluster and an `NLD` threshold.
///
/// The job inherits the cluster's
/// [`ShuffleConfig`](tsj_mapreduce::ShuffleConfig) and can run with
/// memory-bounded mappers: its `⟨chunk, role⟩` records spill via
/// `ChunkRole`'s `Spill` impl. Output is identical to the unbounded
/// configuration.
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
    /// `tokens`. Returns the verified pairs plus the simulation report of
    /// the one job, `massjoin.candidates`.
    ///
    /// The job is recorded as a one-stage lazy
    /// [`Dataset`](tsj_mapreduce::Dataset) and executes at the `collect`
    /// terminal. Its reducers verify each candidate pair in the one chunk
    /// group that owns it (see the module docs), so candidates never cross
    /// a second shuffle or the driver boundary: only verified pairs do.
    pub fn nld_self_join(
        &self,
        tokens: &[impl AsRef<str>],
    ) -> Result<(Vec<SimilarTokenPair>, SimReport), JobError> {
        let t = self.t;
        let chars = CharTable::new(tokens);
        let ids: Vec<u32> = (0..tokens.len() as u32).collect();

        let (mut pairs, report) = self
            .cluster
            .input_vec(ids)
            .map_reduce_combined(
                "massjoin.candidates",
                candidate_map(&chars, t),
                &Dedup,
                candidate_reduce(&chars, t),
            )?
            .collect()?;
        pairs.sort_unstable_by_key(|p| (p.a, p.b));
        Ok((pairs, report))
    }
}

/// The mapper: every token emits its Lemma-7 segments (indexed role) and
/// the multi-match-aware substrings of every valid indexed length (probe
/// role, Lemmas 8–9).
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

/// The reducer: crosses segment-bearers with substring-bearers under the
/// length condition and verifies, in place, each crossing pair that passes
/// the character-set check and that this group owns (module docs, steps
/// 1–3).
fn candidate_reduce(
    chars: &CharTable,
    t: f64,
) -> impl Fn(&u64, Vec<ChunkRole>, &mut OutputSink<SimilarTokenPair>) + Sync + '_ {
    move |&key, roles, out| {
        let mut segs: Vec<u32> = Vec::new();
        let mut subs: Vec<u32> = Vec::new();
        for r in roles {
            match r {
                ChunkRole::Seg(id) => segs.push(id),
                ChunkRole::Sub(id) => subs.push(id),
            }
        }
        if segs.is_empty() || subs.is_empty() {
            return;
        }
        // The combiner folds duplicate roles only within one spilled run,
        // so under a bounded shuffle a role can still arrive twice.
        segs.sort_unstable();
        segs.dedup();
        subs.sort_unstable();
        subs.dedup();

        let (mut generated, mut pruned, mut owned, mut verified) = (0, 0, 0, 0);
        for &y in &segs {
            let ys = chars.get(y);
            let ly = ys.len();
            let u = max_ld_given_nld(ly, ly, t);
            // `y`'s partition, built once some pair survives the check.
            let mut parts = None;
            for &x in &subs {
                let xs = chars.get(x);
                let lx = xs.len();
                // Length condition (Lemmas 8–9): probe is shorter.
                if lx > ly || min_len_given_nld(ly, t) > lx {
                    continue;
                }
                // Same length: the larger id probes (one emission
                // direction, mirroring the serial join).
                if lx == ly && x <= y {
                    continue;
                }
                generated += 1;
                // The character-set check against the cap `verify_nld`
                // applies: a rejected pair cannot verify.
                let cap = max_ld_given_nld(lx, ly, t);
                if ld_lower_bound_from_sigs(chars.sig[x as usize], chars.sig[y as usize]) > cap {
                    pruned += 1;
                    continue;
                }
                let parts = parts.get_or_insert_with(|| even_partitions(ly, u + 1));
                let Some(j) = first_matching_segment(xs, ys, parts, u) else {
                    continue; // met through a fingerprint collision only
                };
                let (start, seg_len) = parts[j];
                if chunk_key(ly, j, fp_chars(&ys[start..start + seg_len])) != key {
                    continue; // owned by another group
                }
                owned += 1;
                if let Some(p) = verify_nld(x, xs, y, ys, t) {
                    verified += 1;
                    out.emit(p);
                }
            }
        }
        out.add_counter("candidates_generated", generated);
        out.add_counter("pruned_signature", pruned);
        out.add_counter("candidates_distinct", owned);
        out.add_counter("pairs_verified", verified);
        // One banded Myers call per owned pair. Pairs the character-set
        // check rejects declare no work.
        out.add_work(5 * owned);
    }
}

/// The ownership scan: the index of the first segment of `y` (partitioned
/// as `parts` under edit budget `u`) that occurs in `x` at a start inside
/// its multi-match-aware window, or `None` when no segment does.
fn first_matching_segment(
    x: &[char],
    y: &[char],
    parts: &[(usize, usize)],
    u: usize,
) -> Option<usize> {
    parts.iter().enumerate().position(|(j, &(start, seg_len))| {
        let seg = &y[start..start + seg_len];
        substring_window(x.len(), y.len(), j, start, seg_len, u)
            .is_some_and(|(lo, hi)| x[lo..hi + seg_len].windows(seg_len).any(|w| w == seg))
    })
}

#[inline]
fn chunk_key(indexed_len: usize, seg_idx: usize, content_fp: u64) -> u64 {
    fingerprint64(&(indexed_len as u32, seg_idx as u16, content_fp))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::nld_self_join_serial;
    use tsj_strdist::levenshtein_within_slices;

    fn cluster() -> Cluster {
        Cluster::with_machines(16)
    }

    /// Every word of each length in `lens` over `alphabet`.
    fn words(alphabet: &[char], lens: std::ops::RangeInclusive<usize>) -> Vec<Vec<char>> {
        let mut out = Vec::new();
        for len in lens {
            let mut layer: Vec<Vec<char>> = vec![Vec::new()];
            for _ in 0..len {
                layer = layer
                    .iter()
                    .flat_map(|w| alphabet.iter().map(move |&c| [w.as_slice(), &[c]].concat()))
                    .collect();
            }
            out.extend(layer);
        }
        out
    }

    /// The ownership scan's oracle: every start of every segment is tried,
    /// the window is consulted afterwards, and the smallest matching
    /// segment index wins.
    fn first_matching_segment_brute(
        x: &[char],
        y: &[char],
        parts: &[(usize, usize)],
        u: usize,
    ) -> Option<usize> {
        let mut first = None;
        for (j, &(start, seg_len)) in parts.iter().enumerate() {
            let window = substring_window(x.len(), y.len(), j, start, seg_len, u);
            for p in 0..=x.len().saturating_sub(seg_len) {
                let inside = window.is_some_and(|(lo, hi)| (lo..=hi).contains(&p));
                if inside
                    && p + seg_len <= x.len()
                    && x[p..p + seg_len] == y[start..start + seg_len]
                {
                    first = Some(first.map_or(j, |f: usize| f.min(j)));
                }
            }
        }
        first
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
            assert_eq!(report.jobs().len(), 1, "one job");
            // Every crossing is either rejected by the check, dropped as
            // owned elsewhere, or verified by its owner: owned ≤ generated.
            let generated = report.counter("candidates_generated");
            let pruned = report.counter("pruned_signature");
            let owned = report.counter("candidates_distinct");
            assert!(pruned + owned <= generated, "t = {t}");
            assert!(report.counter("pairs_verified") <= owned, "t = {t}");
            assert_eq!(report.counter("pairs_verified"), expect.len() as u64);
        }
    }

    #[test]
    fn ownership_scan_matches_the_brute_force_scan() {
        let corpus = words(&['a', 'b', 'é'], 1..=5);
        for t in [0.1, 0.2, 0.3, 0.5] {
            for y in &corpus {
                let u = max_ld_given_nld(y.len(), y.len(), t);
                let parts = even_partitions(y.len(), u + 1);
                for x in corpus.iter().filter(|x| x.len() <= y.len()) {
                    assert_eq!(
                        first_matching_segment(x, y, &parts, u),
                        first_matching_segment_brute(x, y, &parts, u),
                        "x = {x:?}, y = {y:?}, t = {t}"
                    );
                }
            }
        }
    }

    /// Lemma 7 through the ownership scan: over the exhaustive corpus of
    /// `segments.rs` (every string of length 3..=6 over {a, b}, `u = 2`),
    /// every pair within `LD ≤ u` has an owning segment.
    #[test]
    fn ownership_scan_finds_a_segment_for_every_pair_within_u() {
        let corpus = words(&['a', 'b'], 3..=6);
        let u = 2;
        for y in &corpus {
            let parts = even_partitions(y.len(), u + 1);
            for x in &corpus {
                if levenshtein_within_slices(x, y, u).is_some() {
                    assert!(
                        first_matching_segment(x, y, &parts, u).is_some(),
                        "no owner for x = {x:?}, y = {y:?}"
                    );
                }
            }
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
