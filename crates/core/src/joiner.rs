//! The TSJ pipeline: generate → filter → verify, staged as MapReduce jobs.
//!
//! | Job | Paper section | Role | Filter it runs |
//! |---|---|---|---|
//! | `tsj.token_stats` | III-G2 | token document frequencies → `M` eligibility | `M` |
//! | `tsj.shared_token` | III-C, III-E1 | candidates sharing an eligible token | length (Lemma 6) |
//! | `massjoin.candidates` | III-D | NLD self-join of the eligible token space, verified in its reducers | character set |
//! | `tsj.expand_similar` | III-D, III-E1 | similar-token pairs × postings → candidates | length (Lemma 6) |
//! | `tsj.dedup_verify` | III-E2/F/G3 | dedup, filter, final NSLD verification | histogram (+ Lemma 10) |
//!
//! # Where the length filter runs
//!
//! Sec. III-E places both filters after de-duplication, in the last
//! stage. This pipeline departs from that for the length filter: Lemma 6
//! reads only `L(xᵗ)` and `L(yᵗ)`, which the corpus holds per string, so
//! the two candidate-generating stages ask it of every pair *as the pair
//! is formed* and emit only those that pass. At the paper's default point
//! four candidates in five fail it; checked late, each of them is
//! combined, shuffled, grouped and sorted first (and under
//! grouping-on-both-strings costs a reduce group of its own). Output is
//! unaffected: the verdict (`FilterContext::passes_length`, the one
//! definition of the Lemma 6 arithmetic) depends on the pair alone, so a
//! pair pruned at one birth site and formed again at another is pruned
//! there too. The stage-3 reducer runs the histogram bound and the
//! verifier only. `pruned_length` is therefore
//! a counter of `tsj.shared_token` and `tsj.expand_similar`, and counts
//! pruned *occurrences* (a pair sharing two tokens is counted twice), not
//! distinct pairs; `candidates_distinct` on `tsj.dedup_verify` counts the
//! distinct pairs that passed. With `TsjConfig::length_filter` off nobody
//! runs the check and the stages emit their full cross products.
//!
//! The check is the plain per-pair one inside the loops that already form
//! the pairs, not a sort-by-length two-pointer sweep: posting lists are
//! capped by `M`, the ≈ 5 M comparisons of the default point cost ≈ 25 ms
//! of CPU (5 ns each, see `LENGTH_CHECKS_PER_WORK_UNIT`) in a 0.5-s join,
//! and a sweep would add a per-group sort and a second loop shape to save
//! part of that.
//!
//! # Stage chaining
//!
//! [`TsjJoiner::self_join`] records the stages as a *lazy*
//! [`Dataset`](tsj_mapreduce::Dataset) job graph: the candidate-carrying
//! stages (`tsj.shared_token`, `tsj.expand_similar`) keep their output
//! partitioned *inside the runtime* — the two streams are `union`ed and
//! flow into `tsj.dedup_verify` without the candidate set ever
//! materializing in driver memory, so their
//! [`driver_out_records`](tsj_mapreduce::JobStats::driver_out_records) are
//! zero and driver memory no longer scales with the candidate count. The
//! recorded stages execute at the final `collect`, where the DAG scheduler
//! overlaps one stage's reduce wave with the next stage's map wave
//! partition by partition on the shared worker pool (the union is fused
//! feed plumbing, not a stage). Only small stage outputs legitimately
//! cross the driver boundary — and force execution where they do: token
//! document frequencies (to build the `M`-eligibility bitmap) and the
//! similar-token pairs (to build the histogram filter's [`SimilarMap`])
//! collect early, so the report lists jobs in true execution order
//! (token_stats, massjoin.candidates, then the lazily-run candidate stages
//! and the verifier). `tests/dataset_equivalence.rs` pins this lazy execution
//! byte-identical to stage-at-a-time execution
//! ([`DatasetMode::Eager`](tsj_mapreduce::DatasetMode)) and to the
//! brute-force [`reference`](crate::reference) join.

use tsj_mapreduce::{
    fingerprint64, Cluster, Count, Dedup, Emitter, JobError, OutputSink, SimReport, Spill,
};
use tsj_passjoin::MassJoin;
use tsj_tokenize::{Corpus, StringId, TokenId};

use crate::config::{Aligning, CandidateGen, ConfigError, DedupStrategy, TsjConfig};
use crate::filters::{FilterContext, SimilarMap};
use crate::verify::verification_work_units;

/// One verified join result: `a < b` and `NSLD(a, b) ≤ T`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimilarPair {
    pub a: StringId,
    pub b: StringId,
    /// The verified distance. Under greedy aligning this is the greedy
    /// upper bound (still ≤ T).
    pub nsld: f64,
}

/// Join outputs are [`Spill`] so the final `tsj.dedup_verify` stage can
/// keep them runtime-side (and spill them under a bounded shuffle) until
/// the driver collects.
impl Spill for SimilarPair {
    fn spill(&self, out: &mut Vec<u8>) {
        self.a.0.spill(out);
        self.b.0.spill(out);
        self.nsld.spill(out);
    }

    fn restore(buf: &mut &[u8]) -> Option<Self> {
        Some(Self {
            a: StringId(u32::restore(buf)?),
            b: StringId(u32::restore(buf)?),
            nsld: f64::restore(buf)?,
        })
    }
}

/// Why a join failed: the configuration never made sense, or the runtime
/// lost a job. Bad configurations surface as [`JoinError::Config`] from
/// [`TsjJoiner::self_join`] instead of panicking at join time.
#[derive(Debug, Clone, PartialEq)]
pub enum JoinError {
    /// The [`TsjConfig`] failed validation (checked before any job runs).
    Config(ConfigError),
    /// A pipeline job failed in the MapReduce runtime.
    Job(JobError),
}

impl From<ConfigError> for JoinError {
    fn from(e: ConfigError) -> Self {
        JoinError::Config(e)
    }
}

impl From<JobError> for JoinError {
    fn from(e: JobError) -> Self {
        JoinError::Job(e)
    }
}

impl std::fmt::Display for JoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JoinError::Config(e) => write!(f, "invalid join configuration: {e}"),
            JoinError::Job(e) => write!(f, "pipeline job failed: {e}"),
        }
    }
}

impl std::error::Error for JoinError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JoinError::Config(e) => Some(e),
            JoinError::Job(e) => Some(e),
        }
    }
}

/// The join result: verified pairs plus the full pipeline simulation report.
#[derive(Debug)]
pub struct JoinOutput {
    /// Verified similar pairs, sorted by `(a, b)`.
    pub pairs: Vec<SimilarPair>,
    /// Per-job statistics and simulated runtimes.
    pub report: SimReport,
}

impl JoinOutput {
    /// End-to-end simulated pipeline runtime in seconds — the quantity the
    /// paper's runtime figures plot.
    pub fn sim_secs(&self) -> f64 {
        self.report.total_sim_secs()
    }
}

/// The Tokenized-String Joiner bound to a cluster.
///
/// Every pipeline job inherits the cluster's
/// [`ShuffleConfig`](tsj_mapreduce::ShuffleConfig): with
/// `Cluster::with_shuffle_config(ShuffleConfig::bounded(..))` the whole
/// pipeline runs with memory-bounded mappers (periodic combine, spill to
/// disk, external sort-merge reduce) and produces output byte-identical to
/// the unbounded configuration — property-tested in
/// `tests/spill_equivalence.rs`. `SimReport` then shows the spilled volume
/// per job and the cost model charges its I/O.
///
/// The config's [`Transport`](tsj_mapreduce::Transport) is inherited the
/// same way: under `Transport::MultiProcess` or `Transport::Remote` every
/// stage — the TSJ jobs *and* the MassJoin sub-pipeline — publishes each
/// map task's output as one sorted-run file that the reduce side merges
/// in place (by positioned reads, or ranged fetches from the stage's run
/// server) instead of the in-process handoff, again byte-identically
/// (property-tested in `tests/transport_equivalence.rs`), with the
/// published bytes surfaced per job in `SimReport` and charged by
/// `CostModel::transport_secs_per_byte`.
///
/// With both knobs set, a bounded-shuffle dataset-chained join is
/// memory-bounded end to end: mappers spill, reducers sort-merge, stage
/// outputs stream between jobs as runtime-side sorted runs, and driver
/// memory holds only the corpus, the small driver-crossing stage outputs,
/// and the final result.
#[derive(Debug, Clone)]
pub struct TsjJoiner<'c> {
    cluster: &'c Cluster,
}

impl<'c> TsjJoiner<'c> {
    pub fn new(cluster: &'c Cluster) -> Self {
        Self { cluster }
    }

    /// NSLD self-join of `corpus` under `cfg` (the motivating application:
    /// "the joined sets are one and the same", Sec. II footnote 3), staged
    /// as a dataset job graph — interior candidate streams never
    /// materialize driver-side (see the [module docs](self)).
    pub fn self_join(&self, corpus: &Corpus, cfg: &TsjConfig) -> Result<JoinOutput, JoinError> {
        cfg.validate()?;
        let t = cfg.threshold;
        let mut report = SimReport::new();
        let string_ids: Vec<u32> = (0..corpus.len() as u32).collect();

        // ---- Stage 0: token document frequencies → M eligibility --------
        // Collected immediately: the eligibility bitmap is driver state
        // every later stage closure needs, so this one-stage graph cannot
        // stay lazy past this point.
        let stats = self.cluster.input(&string_ids).map_reduce_combined(
            "tsj.token_stats",
            token_stats_map(corpus),
            &Count,
            token_stats_reduce(),
        )?;
        let (stats_output, mut stats_report) = stats.collect()?;
        let (eligible, dropped_tokens) = apply_m_filter(corpus, cfg, stats_output);
        stats_report.jobs_mut()[0]
            .counters
            .insert("tokens_dropped_by_M", dropped_tokens);
        report.extend(stats_report);

        // ---- Stage 2a: similar tokens (Sec. III-D) ----------------------
        // Runs before the shared-token stage is *recorded* (that stage
        // executes at the final collect either way) so that one
        // `FilterContext`, which borrows the `SimilarMap`, can be handed
        // to every stage closure below.
        let (similar_map, expand_input) = match cfg.scheme.candidates() {
            CandidateGen::SharedOnly => (None, None),
            CandidateGen::SharedAndSimilar => {
                // NLD self-join of the eligible token space — one lazy
                // stage whose reducers verify the token pairs in place;
                // the verified pairs legitimately cross at its collect
                // (they feed the driver-side SimilarMap the filters
                // need), so it executes here.
                let elig_tokens: Vec<TokenId> =
                    corpus.token_ids().filter(|t| eligible[t.index()]).collect();
                let texts: Vec<&str> = elig_tokens.iter().map(|&t| corpus.token_text(t)).collect();
                let (token_pairs, mass_report) =
                    MassJoin::new(self.cluster, t).nld_self_join(&texts)?;
                report.extend(mass_report);
                let (map, expand_input) = build_similar_map(&elig_tokens, &token_pairs);
                (Some(map), Some(expand_input))
            }
        };
        // Declared before the datasets: their plans hold the stage
        // closures, which must drop before the filter they borrow.
        let filter = FilterContext::new(
            corpus,
            t,
            cfg.length_filter,
            cfg.histogram_filter,
            similar_map.as_ref(),
            Some(&eligible),
        );

        // ---- Stage 1: shared-token candidates (Sec. III-C) --------------
        // Recorded lazily: the stage executes at the final collect, where
        // its reduce wave overlaps the dedup_verify map wave partition by
        // partition on the shared worker pool.
        let shared = self.cluster.input(&string_ids).map_reduce(
            "tsj.shared_token",
            shared_token_map(corpus, &eligible),
            shared_token_reduce(&filter),
        )?;

        // ---- Stage 2b: similar-token candidates (Sec. III-D) ------------
        // Expand similar token pairs through the postings, then union
        // with the shared-token stream — both recorded lazily, their
        // partitions flowing into dedup_verify without a barrier (the
        // union is fused feed plumbing).
        let candidates = match expand_input {
            None => shared,
            Some(expand_input) => {
                let expanded = self.cluster.input_vec(expand_input).map_reduce_combined(
                    "tsj.expand_similar",
                    expand_similar_map(corpus, &filter),
                    &Dedup,
                    expand_similar_reduce(),
                )?;
                shared.union(expanded)
            }
        };

        // ---- Stage 3: dedup + histogram filter + verify (Sec. III-E2/F/G3)
        let aligning = cfg.scheme.aligning();
        let verify_overhead = self.cluster.config().cost.verify_group_overhead_secs;
        let verified = match cfg.dedup {
            DedupStrategy::BothStrings => candidates.map_reduce_combined_with_group_overhead(
                "tsj.dedup_verify.both_strings",
                verify_overhead,
                |&pair, e: &mut Emitter<(u32, u32), ()>| e.emit(pair, ()),
                &Dedup,
                |&pair, _hits: Vec<()>, out: &mut OutputSink<SimilarPair>| {
                    check_and_verify(corpus, &filter, aligning, [pair], out);
                },
            )?,
            DedupStrategy::OneString => candidates.map_reduce_combined_with_group_overhead(
                "tsj.dedup_verify.one_string",
                verify_overhead,
                |&(a, b), e: &mut Emitter<u32, u32>| {
                    let (k, v) = one_string_key(a, b);
                    e.emit(k, v);
                },
                &Dedup,
                |&key, values: Vec<u32>, out: &mut OutputSink<SimilarPair>| {
                    one_string_dedup(corpus, &filter, aligning, key, values, out);
                },
            )?,
        };
        // The graph's terminal: shared_token, expand_similar, and
        // dedup_verify all execute here, cross-stage overlapped; the
        // report lands in execution (topological) order.
        let (mut pairs, verify_report) = verified.collect()?;
        report.extend(verify_report);

        join_empty_strings(corpus, &string_ids, &mut pairs);
        pairs.sort_unstable_by_key(|p| (p.a, p.b));
        Ok(JoinOutput { pairs, report })
    }
}

// ---- Stage builders ---------------------------------------------------

/// Stage 0 mapper: one partial count per distinct token occurrence; the
/// `Count` combiner folds them map-side, so the shuffle carries one record
/// per (map task, distinct token) instead of one per token *occurrence*.
fn token_stats_map(corpus: &Corpus) -> impl Fn(&u32, &mut Emitter<u32, u64>) + Sync + '_ {
    move |&s, e| {
        for t in distinct_tokens(corpus, StringId(s)) {
            e.emit(t.0, 1);
        }
    }
}

/// Stage 0 reducer: sums the partial counts into a document frequency.
fn token_stats_reduce() -> impl Fn(&u32, Vec<u64>, &mut OutputSink<(u32, u32)>) + Sync {
    |&tid, partial_counts, out| {
        out.emit((tid, partial_counts.iter().sum::<u64>() as u32));
    }
}

/// Builds the `M`-eligibility bitmap from the token_stats output and
/// returns the number of dropped tokens alongside it; the caller books
/// the count as a `tokens_dropped_by_M` counter on the `tsj.token_stats`
/// job (the job the `M` filter acts on), so the filter's effect is
/// visible in the `SimReport` instead of being computed and discarded.
fn apply_m_filter(
    corpus: &Corpus,
    cfg: &TsjConfig,
    stats_output: Vec<(u32, u32)>,
) -> (Vec<bool>, u64) {
    let mut eligible = vec![false; corpus.num_tokens()];
    let mut dropped_tokens = 0u64;
    for (tid, df) in stats_output {
        if cfg.max_token_frequency.is_none_or(|m| df as usize <= m) {
            eligible[tid as usize] = true;
        } else {
            dropped_tokens += 1;
        }
    }
    (eligible, dropped_tokens)
}

/// Stage 1 mapper: postings of eligible tokens.
///
/// No combiner on this stage: `distinct_tokens` already guarantees each
/// (token, string) posting is emitted at most once, and every string lives
/// in exactly one map task, so there are no within-task duplicates for a
/// combiner to fold — it would only add a sort of the highest-volume map
/// output for zero shuffle savings.
fn shared_token_map<'a>(
    corpus: &'a Corpus,
    eligible: &'a [bool],
) -> impl Fn(&u32, &mut Emitter<u32, u32>) + Sync + 'a {
    move |&s, e| {
        for t in distinct_tokens(corpus, StringId(s)) {
            if eligible[t.index()] {
                e.emit(t.0, s);
            }
        }
    }
}

/// How many Lemma 6 checks one simulated work unit
/// ([`CostModel::work_unit_secs`](tsj_mapreduce::CostModel::work_unit_secs),
/// 100 ns) pays for. Measured on the `fuzzy-inproc` corpus (100 k strings,
/// seed 7674385, `T = 0.1`, release build, 2-core container): 5.38 M
/// `i < j` checks over 120 posting-list-sized groups of 300 random string
/// ids, 82 % of them pruned, took 5.1–6.2 ns each over five repetitions —
/// two random `total_len` loads, a divide and a badly predicted branch —
/// so ≈ 19 to the unit, rounded to 20.
///
/// Charged on *pruned* pairs only: a pair that passes is charged one unit
/// as an output record, which covers its check; a pruned pair emits
/// nothing, so without this its check would be free on the simulated
/// clock. With the length filter off nothing is pruned and nothing is
/// charged.
const LENGTH_CHECKS_PER_WORK_UNIT: u64 = 20;

/// Stage 1 reducer: every unordered pair of strings sharing the token,
/// once (self-join symmetry optimization), **that passes the Lemma 6
/// length filter** — see the module docs for why the filter runs here.
///
/// `shared_token_candidates` counts every pair formed, `pruned_length`
/// the ones dropped; both are booked once per group.
fn shared_token_reduce<'a>(
    filter: &'a FilterContext<'a>,
) -> impl Fn(&u32, Vec<u32>, &mut OutputSink<Pair>) + Sync + 'a {
    move |_token, mut sids, out| {
        sids.sort_unstable();
        sids.dedup();
        let (mut formed, mut pruned) = (0u64, 0u64);
        for i in 0..sids.len() {
            for j in i + 1..sids.len() {
                formed += 1;
                if filter.passes_length(StringId(sids[i]), StringId(sids[j])) {
                    out.emit((sids[i], sids[j]));
                } else {
                    pruned += 1;
                }
            }
        }
        out.add_counter("shared_token_candidates", formed);
        out.add_counter("pruned_length", pruned);
        out.add_work(pruned.div_ceil(LENGTH_CHECKS_PER_WORK_UNIT));
    }
}

/// Turns the MassJoin hits back into corpus token ids: the `SimilarMap`
/// the histogram filter consults, plus the expand stage's input pairs.
fn build_similar_map(
    elig_tokens: &[TokenId],
    token_pairs: &[tsj_passjoin::SimilarTokenPair],
) -> (SimilarMap, Vec<(u32, u32)>) {
    let mut map = SimilarMap::default();
    let mut expand_input: Vec<(u32, u32)> = Vec::with_capacity(token_pairs.len());
    for p in token_pairs {
        let ta = elig_tokens[p.a as usize];
        let tb = elig_tokens[p.b as usize];
        let key = if ta.0 <= tb.0 {
            (ta.0, tb.0)
        } else {
            (tb.0, ta.0)
        };
        map.insert(key, p.ld);
        expand_input.push(key);
    }
    (map, expand_input)
}

/// An unordered candidate string-id pair, normalized to `a < b`.
type Pair = (u32, u32);

/// Stage 2b mapper: crosses a similar token pair's postings lists,
/// keeping the pairs that pass the Lemma 6 length filter (the same early
/// check, and the same once-per-record bookkeeping, as
/// [`shared_token_reduce`]). Candidate pairs are keyed on themselves and
/// the reducer only deduplicates, so the `Dedup` combiner ships one
/// record per distinct pair per map task.
fn expand_similar_map<'a>(
    corpus: &'a Corpus,
    filter: &'a FilterContext<'a>,
) -> impl Fn(&Pair, &mut Emitter<Pair, ()>) + Sync + 'a {
    move |&(ta, tb), e| {
        let (mut formed, mut pruned) = (0u64, 0u64);
        for &sa in corpus.postings(TokenId(ta)) {
            for &sb in corpus.postings(TokenId(tb)) {
                if sa == sb {
                    continue;
                }
                formed += 1;
                if filter.passes_length(sa, sb) {
                    let key = if sa < sb { (sa.0, sb.0) } else { (sb.0, sa.0) };
                    e.emit(key, ());
                } else {
                    pruned += 1;
                }
            }
        }
        e.add_counter("similar_token_candidates", formed);
        e.add_counter("pruned_length", pruned);
        e.add_work(pruned.div_ceil(LENGTH_CHECKS_PER_WORK_UNIT));
    }
}

/// Stage 2b reducer: within-job dedup (grouping on the pair).
fn expand_similar_reduce() -> impl Fn(&Pair, Vec<()>, &mut OutputSink<Pair>) + Sync {
    |&pair, _hits, out| out.emit(pair)
}

/// Stage 3 kernel: runs the histogram filter on one reduce group's
/// deduplicated candidate pairs and verifies the survivors on token ids
/// (Sec. III-E2/F). Both dedup strategies funnel here. No length check:
/// every pair that reaches this stage passed it where it was formed.
///
/// `candidates_distinct`, `pruned_histogram` and `verified` are tallied in
/// locals and booked once per group (the same totals as one booking per
/// pair, without three counter updates per pair).
fn check_and_verify(
    corpus: &Corpus,
    filter: &FilterContext<'_>,
    aligning: Aligning,
    pairs: impl IntoIterator<Item = Pair>,
    out: &mut OutputSink<SimilarPair>,
) {
    let (mut candidates, mut pruned) = (0u64, 0u64);
    for (a, b) in pairs {
        let (a, b) = (StringId(a), StringId(b));
        candidates += 1;
        if !filter.passes_histogram(a, b) {
            pruned += 1;
            continue;
        }
        // NSLD verification costs far more than a filter check, and
        // Hungarian costs more than greedy; declare it so the simulated
        // clock tracks the modelled cost distribution (Sec. III-F
        // complexity).
        out.add_work(verification_work_units(corpus, a, b, aligning));
        if let Some(nsld) = filter.verify(a, b, aligning) {
            out.emit(SimilarPair { a, b, nsld });
        }
    }
    out.add_counter("candidates_distinct", candidates);
    out.add_counter("pruned_histogram", pruned);
    out.add_counter("verified", candidates - pruned);
}

/// Stage 3 reducer body for grouping-on-one-string: "the reducer then
/// de-duplicates the reduce value list using a hash set" (Sec. III-G3).
/// Departure: the value list is sorted and deduplicated in place instead —
/// the same distinct partners, no set allocated per reduce group — so a
/// group's pairs are checked in id order, not first-occurrence order.
fn one_string_dedup(
    corpus: &Corpus,
    filter: &FilterContext<'_>,
    aligning: Aligning,
    key: u32,
    mut values: Vec<u32>,
    out: &mut OutputSink<SimilarPair>,
) {
    values.sort_unstable();
    values.dedup();
    let pairs = values.into_iter().map(|other| {
        if key < other {
            (key, other)
        } else {
            (other, key)
        }
    });
    check_and_verify(corpus, filter, aligning, pairs, out);
}

/// Strings that tokenize to nothing are all mutually at NSLD 0
/// (Definition 4's degenerate case); candidate generation cannot see them
/// (no tokens), so they are joined directly driver-side.
fn join_empty_strings(corpus: &Corpus, string_ids: &[u32], pairs: &mut Vec<SimilarPair>) {
    let empties: Vec<u32> = string_ids
        .iter()
        .copied()
        .filter(|&s| corpus.token_count(StringId(s)) == 0)
        .collect();
    for i in 0..empties.len() {
        for j in i + 1..empties.len() {
            pairs.push(SimilarPair {
                a: StringId(empties[i]),
                b: StringId(empties[j]),
                nsld: 0.0,
            });
        }
    }
}

/// The paper's grouping-on-one-string key-selection rule (Sec. III-G3):
/// `τ` becomes the key iff `int(HASH(τ) < HASH(υ)) == (HASH(τ)+HASH(υ)) % 2`;
/// otherwise `υ` does. The parity term decorrelates the choice from the
/// hash order, balancing key-side load across the pair population.
pub(crate) fn one_string_key(a: u32, b: u32) -> (u32, u32) {
    let ha = fingerprint64(&a);
    let hb = fingerprint64(&b);
    let less = u64::from(ha < hb);
    let parity = ha.wrapping_add(hb) % 2;
    if less == parity {
        (a, b)
    } else {
        (b, a)
    }
}

/// Iterates a string's tokens with within-string duplicates removed
/// (postings semantics: a token names a string once).
fn distinct_tokens<'a>(corpus: &'a Corpus, s: StringId) -> impl Iterator<Item = TokenId> + 'a {
    let tokens = corpus.tokens(s);
    tokens
        .iter()
        .enumerate()
        .filter(move |(i, t)| !tokens[..*i].contains(t))
        .map(|(_, &t)| t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tsj_tokenize::NameTokenizer;

    /// Strings of one to three words drawn from eight random words of one
    /// to eight letters: posting lists several strings long, total lengths
    /// spread widely enough for Lemma 6 to split them.
    fn small_corpus(rng: &mut StdRng) -> Corpus {
        let words: Vec<String> = (0..8)
            .map(|_| {
                (0..rng.gen_range(1..=8usize))
                    .map(|_| char::from(b'a' + rng.gen_range(0..4u8)))
                    .collect()
            })
            .collect();
        let strings: Vec<String> = (0..14)
            .map(|_| {
                let picks: Vec<&str> = (0..rng.gen_range(1..=3usize))
                    .map(|_| words[rng.gen_range(0..words.len())].as_str())
                    .collect();
                picks.join(" ")
            })
            .collect();
        Corpus::build(&strings, &NameTokenizer::default())
    }

    fn length_only(corpus: &Corpus, t: f64, length_on: bool) -> FilterContext<'_> {
        FilterContext::new(corpus, t, length_on, false, None, None)
    }

    /// Runs `shared_token_reduce` on one posting list; returns what it
    /// emitted and its `(shared_token_candidates, pruned_length)`.
    fn shared_pairs(filter: &FilterContext<'_>, posting: Vec<u32>) -> (Vec<Pair>, u64, u64) {
        let mut out = OutputSink::new();
        shared_token_reduce(filter)(&0, posting, &mut out);
        let (pairs, counters) = out.into_parts();
        let read = |name| counters.get(name).copied().unwrap_or(0);
        (
            pairs,
            read("shared_token_candidates"),
            read("pruned_length"),
        )
    }

    /// Runs `expand_similar_map` (and the dedup reducer behind it) on one
    /// token pair; returns the distinct pairs and the job's
    /// `(similar_token_candidates, pruned_length)`.
    fn expanded_pairs(
        corpus: &Corpus,
        filter: &FilterContext<'_>,
        tokens: Pair,
    ) -> (Vec<Pair>, u64, u64) {
        let cluster = Cluster::with_machines(2);
        let (mut pairs, report) = cluster
            .input_vec(vec![tokens])
            .map_reduce_combined(
                "expand",
                expand_similar_map(corpus, filter),
                &Dedup,
                expand_similar_reduce(),
            )
            .and_then(|expanded| expanded.collect())
            .unwrap();
        pairs.sort_unstable();
        (
            pairs,
            report.counter("similar_token_candidates"),
            report.counter("pruned_length"),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The birth sites emit exactly the pairs Lemma 6 admits — the
        /// full product with the length filter off — and book every pair
        /// formed and every pair pruned.
        #[test]
        fn birth_sites_emit_exactly_the_admissible_pairs(seed in 0u64..100_000, t_step in 1u32..=6) {
            let t = f64::from(t_step) * 0.05;
            let mut rng = StdRng::seed_from_u64(seed);
            let corpus = small_corpus(&mut rng);
            let n = corpus.len() as u32;
            let posting: Vec<u32> = (0..rng.gen_range(0..=20usize)).map(|_| rng.gen_range(0..n)).collect();
            let mut sids = posting.clone();
            sids.sort_unstable();
            sids.dedup();
            let tokens = (
                rng.gen_range(0..corpus.num_tokens() as u32),
                rng.gen_range(0..corpus.num_tokens() as u32),
            );

            for length_on in [true, false] {
                let filter = length_only(&corpus, t, length_on);
                let admits = |a: u32, b: u32| filter.passes_length(StringId(a), StringId(b));

                let mut product = Vec::new();
                for (i, &a) in sids.iter().enumerate() {
                    product.extend(sids[i + 1..].iter().map(|&b| (a, b)));
                }
                let expect: Vec<Pair> =
                    product.iter().copied().filter(|&(a, b)| admits(a, b)).collect();
                let (got, formed, pruned) = shared_pairs(&filter, posting.clone());
                prop_assert_eq!(&got, &expect, "shared, t={} on={}", t, length_on);
                prop_assert_eq!(formed, product.len() as u64);
                prop_assert_eq!(pruned, (product.len() - expect.len()) as u64);

                let mut cross = Vec::new();
                for &sa in corpus.postings(TokenId(tokens.0)) {
                    for &sb in corpus.postings(TokenId(tokens.1)) {
                        if sa != sb {
                            cross.push((sa.0.min(sb.0), sa.0.max(sb.0)));
                        }
                    }
                }
                let kept: Vec<Pair> =
                    cross.iter().copied().filter(|&(a, b)| admits(a, b)).collect();
                let mut expect = kept.clone();
                expect.sort_unstable();
                expect.dedup();
                let (got, formed, pruned) = expanded_pairs(&corpus, &filter, tokens);
                prop_assert_eq!(&got, &expect, "expand, t={} on={}", t, length_on);
                prop_assert_eq!(formed, cross.len() as u64);
                prop_assert_eq!(pruned, (cross.len() - kept.len()) as u64);
                if !length_on {
                    prop_assert_eq!(kept.len(), cross.len());
                }
            }
        }
    }

    /// `1 − 9/10` rounds to 0.09999999999999998, so total lengths 9 and 10
    /// are inside the `T = 0.1` window; 8 and 10 are outside it.
    #[test]
    fn birth_sites_keep_the_boundary_pair_and_drop_the_next() {
        // ids:                        0 (L=8)      1 (L=9)       2 (L=10)
        let corpus = Corpus::build(
            ["x abcdefg", "x abcdefgh", "x abcdefghi"],
            &NameTokenizer::default(),
        );
        assert_eq!([0, 1, 2].map(|s| corpus.total_len(StringId(s))), [8, 9, 10]);
        let filter = length_only(&corpus, 0.1, true);
        let (pairs, formed, pruned) = shared_pairs(&filter, vec![2, 0, 1]);
        assert_eq!(pairs, vec![(1, 2)]);
        assert_eq!((formed, pruned), (3, 2));

        // "x" is token 0 and lists all three strings; crossing it with
        // itself forms each unordered pair twice.
        assert_eq!(corpus.postings(TokenId(0)).len(), 3);
        let (pairs, formed, pruned) = expanded_pairs(&corpus, &filter, (0, 0));
        assert_eq!(pairs, vec![(1, 2)]);
        assert_eq!((formed, pruned), (6, 4));
    }

    #[test]
    fn one_string_key_is_deterministic_and_keeps_both_ids() {
        for (a, b) in [(1u32, 2u32), (10, 99), (5, 5), (0, 1000)] {
            let (k1, v1) = one_string_key(a, b);
            let (k2, v2) = one_string_key(a, b);
            assert_eq!((k1, v1), (k2, v2));
            let mut ids = [k1, v1];
            ids.sort_unstable();
            let mut expect = [a, b];
            expect.sort_unstable();
            assert_eq!(ids, expect);
        }
    }

    #[test]
    fn one_string_key_balances_key_side() {
        // Over many pairs, each side should be chosen roughly half the time
        // (that is the point of the parity rule).
        let mut first = 0u32;
        let n = 10_000u32;
        for i in 0..n {
            let (k, _) = one_string_key(i, i + n);
            if k == i {
                first += 1;
            }
        }
        let frac = first as f64 / n as f64;
        assert!((0.45..0.55).contains(&frac), "key-side fraction {frac}");
    }

    #[test]
    fn similar_pair_spills_roundtrip() {
        let p = SimilarPair {
            a: StringId(7),
            b: StringId(1234),
            nsld: 0.0625,
        };
        let mut bytes = Vec::new();
        p.spill(&mut bytes);
        let mut slice = bytes.as_slice();
        assert_eq!(SimilarPair::restore(&mut slice), Some(p));
        assert!(slice.is_empty());
    }

    #[test]
    fn join_error_wraps_config_and_job_errors() {
        let c: JoinError = ConfigError::ZeroMaxTokenFrequency.into();
        assert!(matches!(c, JoinError::Config(_)));
        assert!(c.to_string().contains("invalid join configuration"));
        let j: JoinError = JobError::Transport {
            message: "exchange failed".into(),
        }
        .into();
        assert!(matches!(j, JoinError::Job(_)));
        assert!(j.to_string().contains("pipeline job failed"));
        // Sources chain for error-reporting crates.
        assert!(std::error::Error::source(&j).is_some());
    }
}
