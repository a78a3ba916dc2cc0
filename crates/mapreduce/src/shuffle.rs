//! The shuffle: hash partitioning at emit time and map-side combining.
//!
//! # Mapping to the paper (Sec. III-A)
//!
//! The paper describes TSJ's jobs in classic MapReduce terms:
//!
//! ```text
//! map:    ⟨key1, value1⟩        → [⟨key2, value2⟩]
//! reduce: ⟨key2, [value2]⟩      → [value3]
//! ```
//!
//! Between `map` and `reduce` sits the *shuffle*, which this module
//! implements in the form real shared-nothing MapReduce systems use:
//!
//! * **Partitioning at emit time** ([`PartitionedBuffer`]) — every
//!   `⟨key2, value2⟩` pair a mapper emits is routed immediately to the
//!   output buffer of partition `HASH(key2) % partitions` (the paper's
//!   fingerprint function `HASH(·)`, Sec. III-G3, is
//!   [`fingerprint64`]). Reducer `p` then
//!   consumes exactly the partition-`p` buffers of all map tasks; no
//!   global collect-then-partition pass exists, so the shuffle is a
//!   constant-per-partition buffer handoff instead of a serial
//!   per-record scan.
//! * **Map-side combining** ([`Combiner`]) — before a map task's buffers
//!   are handed to the shuffle, values sharing a key *within that task*
//!   are folded by an associative combiner. This is the standard
//!   MapReduce optimization the paper's cost analysis motivates: the
//!   framework's runtime is dominated by shuffle volume and per-group
//!   overheads (Sec. III-A, III-G, Fig. 1), so shrinking the shuffled
//!   record count directly shrinks the simulated (and real) cost. For
//!   example, `tsj.token_stats` (Sec. III-G2's document-frequency job)
//!   combines per-task partial counts instead of shuffling one record per
//!   token *occurrence*, and the candidate-pair jobs (Sec. III-C/III-D)
//!   deduplicate candidate pairs map-side before the shuffle — the same
//!   volume the MassJoin-style analyses count as the dominant cost.
//!
//! The simulated cluster charges shuffle cost on the *post-combine*
//! record count ([`JobStats::shuffle_records`](crate::job::JobStats)), so
//! combiner savings show up in the simulated runtimes exactly as they
//! would on the paper's production cluster.
//!
//! # Memory-bounded mappers ([`ShuffleConfig`])
//!
//! By default a map task buffers its whole output in memory — fine for the
//! in-process simulation, but not a model of the paper's 1 GB-RAM workers
//! (Sec. V). A [`ShuffleConfig`] bounds the buffer:
//!
//! * `combine_threshold` — once the task has this many records buffered,
//!   the job's combiner runs over them *mid-task* (a periodic, spill-style
//!   combine instead of one pass at task end), shrinking the buffer
//!   whenever keys repeat.
//! * `spill_threshold` — a hard cap, enforced at every emit: when the
//!   buffer reaches it (e.g. keys do not repeat, or a single input record
//!   emits a burst), each partition's records are stable-sorted by key
//!   fingerprint and appended to the task's spill file as a sorted run
//!   (see [`crate::spill`]). The reduce phase then k-way-merges the
//!   spilled runs with the in-memory segments ([`crate::merge`]), so no
//!   worker ever holds an unbounded partition.
//!
//! Both thresholds default to `None` (unbounded, the original behaviour).
//! Whatever the bounds and transport, reduce groups arrive in ascending
//! key-fingerprint order.
//!
//! # Combiner contract
//!
//! A combiner must be *semantics-preserving* for its reducer: the reducer
//! must produce the same output whether it sees the raw emitted values or
//! any partition of them with `combine` applied per part (combiners run
//! once per map task, so different subsets of a key's values are combined
//! independently). The stock combiners uphold this for the usual reducer
//! shapes: [`Count`] for reducers that sum counts, and [`Dedup`] for
//! reducers that are insensitive to duplicate values (e.g. TSJ's
//! candidate-pair dedup jobs, Sec. III-E/III-G3).

use std::fs::File;
use std::hash::Hash;
use std::path::PathBuf;
use std::sync::Arc;

use crate::hash::{fingerprint64, FxBuildHasher};
use crate::spill::{RunMeta, Spill, SpillWriter};
use crate::transport::Transport;
use tsj_netshuffle::FaultConfig;

/// One shuffled record: the key's stable 64-bit fingerprint (computed once
/// at emit time and reused for partition routing and machine assignment),
/// the key, and one value.
pub type ShuffleRecord<K, V> = (u64, K, V);

/// Map-side value folding (the MapReduce "combiner").
///
/// `combine` is handed all values observed for `key` *within one map
/// task* and shrinks the list in place to the records to shuffle in their
/// stead. Leaving a single element is the common case (`Count`);
/// leaving several is allowed (`Dedup` keeps every distinct value).
/// Clearing the list drops the key entirely — legal, but rarely what a
/// reducer expects. In-place (rather than returning a fresh `Vec`) so the
/// hot path — one call per distinct key per map task — performs no
/// allocation.
///
/// Implementations must be associative and insensitive to value order,
/// because the runtime combines each map task's output independently and
/// the reducer sees the concatenation in unspecified interleaving.
pub trait Combiner<K, V>: Sync {
    fn combine(&self, key: &K, values: &mut Vec<V>);
}

/// Sums `u64` partial counts (the pervasive counting idiom: mappers emit
/// `1` per occurrence and the reducer sums, so each map task shuffles one
/// record per distinct key).
#[derive(Debug, Clone, Copy, Default)]
pub struct Count;

impl<K> Combiner<K, u64> for Count {
    fn combine(&self, _key: &K, values: &mut Vec<u64>) {
        let total: u64 = values.iter().sum();
        values.clear();
        values.push(total);
    }
}

/// Keeps one copy of each distinct value, preserving first-occurrence
/// order. The combiner form of reducers that deduplicate their value list
/// (TSJ's grouping-on-one-string dedup, Sec. III-G3) or ignore values
/// entirely (candidate-pair jobs keyed on the pair itself, where every
/// value is `()` and one survivor per key is enough).
#[derive(Debug, Clone, Copy, Default)]
pub struct Dedup;

/// Below this group size, quadratic scanning beats building a hash set
/// (and allocates nothing) — and most reduce keys have few values.
const DEDUP_SCAN_LIMIT: usize = 24;

impl<K, V> Combiner<K, V> for Dedup
where
    V: Eq + Hash + Clone + Send,
{
    fn combine(&self, _key: &K, values: &mut Vec<V>) {
        if values.len() <= DEDUP_SCAN_LIMIT {
            let mut kept = 0;
            for i in 0..values.len() {
                if !values[..kept].contains(&values[i]) {
                    values.swap(kept, i);
                    kept += 1;
                }
            }
            values.truncate(kept);
        } else {
            let mut seen: std::collections::HashSet<V, FxBuildHasher> =
                std::collections::HashSet::with_capacity_and_hasher(values.len(), FxBuildHasher);
            values.retain(|v| seen.insert(v.clone()));
        }
    }
}

/// Memory and transport knobs of the shuffle (see the module docs and
/// [`crate::transport`]).
///
/// The default is fully unbounded, in-process — existing callers are
/// untouched. The `TSJ_*` variables tabulated in [`crate::env`] override
/// the *default* configuration (applied by
/// [`Cluster::new`](crate::cluster::Cluster); an explicit
/// [`with_shuffle_config`](crate::cluster::Cluster::with_shuffle_config)
/// always wins), so a whole test or bench run can be pushed through the
/// spill path — or the multi-process exchange — without touching code.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShuffleConfig {
    /// Buffered-record count at which a map task runs the job's combiner
    /// over its buffer mid-task (checked between input records). `None`
    /// (default) combines once at task end, as before. Ignored by jobs
    /// without a combiner.
    pub combine_threshold: Option<usize>,
    /// Hard per-mapper buffer cap, enforced at every emit: reaching it
    /// sorts and spills the buffer to disk. `None` (default) never spills.
    pub spill_threshold: Option<usize>,
    /// Directory for per-job subdirectories (map-task run files, merge
    /// scratch, spilled stage output); `None` uses the system temp dir.
    /// Each is deleted when its job completes.
    pub spill_dir: Option<PathBuf>,
    /// How map output physically reaches reduce tasks: the in-process
    /// segment handoff (default), published run files read locally, or the
    /// same files fetched from a run server (see [`crate::transport`]).
    pub transport: Transport,
    /// Cap on the reduce-side merge's open runs: a partition with more
    /// segments than this is merged hierarchically (consecutive chunks
    /// pre-merged into scratch runs; see [`crate::merge`]). `None`
    /// (default) merges all runs in one pass. Values below 2 behave as 2.
    pub merge_fan_in: Option<usize>,
    /// Deterministic server-side fault injection for the remote transport
    /// (drop every n-th fetch request / stall each one; see
    /// [`tsj_netshuffle::FaultConfig`]). The default injects nothing;
    /// ignored by the other transports. Faults change fetch timing and
    /// retry counters, never job output — every fetch is an idempotent
    /// ranged read.
    pub net_fault: FaultConfig,
}

impl ShuffleConfig {
    /// The default: no periodic combine, no spilling, in-process
    /// transport, unbounded merge fan-in.
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// Bounds both the combine and spill thresholds (spill in the system
    /// temp dir).
    pub fn bounded(combine_threshold: usize, spill_threshold: usize) -> Self {
        Self {
            combine_threshold: Some(combine_threshold),
            spill_threshold: Some(spill_threshold),
            ..Self::default()
        }
    }

    /// Replaces the transport (builder style).
    pub fn with_transport(mut self, transport: Transport) -> Self {
        self.transport = transport;
        self
    }

    /// Caps the reduce-side merge fan-in (builder style).
    pub fn with_merge_fan_in(mut self, fan_in: usize) -> Self {
        self.merge_fan_in = Some(fan_in);
        self
    }

    /// Injects deterministic network faults into the remote transport's
    /// run servers (builder style).
    pub fn with_net_fault(mut self, net_fault: FaultConfig) -> Self {
        self.net_fault = net_fault;
        self
    }

    /// True when neither threshold is set (the buffer never spills and the
    /// combiner runs only at task end).
    pub fn is_unbounded(&self) -> bool {
        self.combine_threshold.is_none() && self.spill_threshold.is_none()
    }

    /// The base directory for job and stage-output subdirectories: the
    /// configured [`spill_dir`](ShuffleConfig::spill_dir), or the system
    /// temp dir.
    ///
    /// This is the one place the runtime consults ambient process state
    /// for a filesystem location — every job path goes through here, so
    /// the fallback stays a documented config-layer concern rather than a
    /// scattering of `std::env::temp_dir()` calls in the data plane.
    pub fn spill_base(&self) -> PathBuf {
        // tsjlint:allow(no-ambient-env) the config layer owns the temp-dir fallback
        self.spill_dir.clone().unwrap_or_else(std::env::temp_dir)
    }
}

/// A map task's finished run file: the read-only handle, every
/// partition's sorted runs, and how much of it was spilled under memory
/// pressure (for [`JobStats`] accounting — a published leftover is
/// exchange volume, not spill).
///
/// [`JobStats`]: crate::job::JobStats
#[derive(Debug)]
pub(crate) struct TaskSpill {
    /// The attempt-distinct task id in the file's name — and the key the
    /// task's runs are registered under on a run server.
    pub(crate) task: u64,
    pub(crate) file: Arc<File>,
    /// Partition-indexed run locations, in write order.
    pub(crate) runs: Vec<Vec<RunMeta>>,
    /// Records, bytes and runs spilled by the memory bound alone.
    pub(crate) records: u64,
    pub(crate) bytes: u64,
    pub(crate) spill_runs: u64,
}

/// Run-file machinery of one map task's buffer (present when the job has
/// a directory: a `spill_threshold` is set, or the transport publishes
/// map output as run files).
#[derive(Debug)]
struct BufferSpill {
    /// `usize::MAX` when only publishing (the buffer never spills early)
    /// and after a failed spill (it never tries again).
    threshold: usize,
    /// The first failed spill write, kept for
    /// [`PartitionedBuffer::finish_spill`] to return.
    error: Option<std::io::Error>,
    /// Job dir; the task's file is created lazily on first written run.
    dir: PathBuf,
    task: usize,
    writer: Option<SpillWriter>,
    runs: Vec<Vec<RunMeta>>,
}

/// Per-partition output buffers: the emit-time half of the shuffle.
///
/// `push` routes a record to partition `hash % partitions`; the runtime
/// later hands each partition's buffers (one per map task) to the reduce
/// task that owns the partition. Buffers start empty and unallocated, so
/// sparse partition use costs nothing beyond the spine. With a spill
/// threshold (`PartitionedBuffer::with_spill`) the buffered record count
/// is capped: reaching the cap sorts each partition and appends it to the
/// task's spill file as a run (see the module docs).
#[derive(Debug)]
pub struct PartitionedBuffer<K, V> {
    parts: Vec<Vec<ShuffleRecord<K, V>>>,
    /// Records currently buffered (all partitions).
    len: usize,
    /// High-water mark of `len` — what a memory-bounded mapper peaks at.
    peak: usize,
    spill: Option<BufferSpill>,
}

impl<K, V> PartitionedBuffer<K, V> {
    pub fn new(partitions: usize) -> Self {
        assert!(partitions > 0, "shuffle needs at least one partition");
        Self {
            parts: (0..partitions).map(|_| Vec::new()).collect(),
            len: 0,
            peak: 0,
            spill: None,
        }
    }

    /// A buffer whose runs go to `<dir>/task<task>.spill`: spilled
    /// whenever `len()` reaches `threshold` (never, for `None`), and
    /// flushed at task end when the transport publishes (see
    /// [`PartitionedBuffer::finish_spill`]). The first written run creates
    /// the directory; removing it is the job's responsibility.
    pub(crate) fn with_spill(
        partitions: usize,
        threshold: Option<usize>,
        dir: PathBuf,
        task: usize,
    ) -> Self {
        let mut buf = Self::new(partitions);
        buf.spill = Some(BufferSpill {
            threshold: threshold.map_or(usize::MAX, |t| t.max(1)),
            error: None,
            dir,
            task,
            writer: None,
            runs: (0..partitions).map(|_| Vec::new()).collect(),
        });
        buf
    }

    #[inline]
    pub fn partitions(&self) -> usize {
        self.parts.len()
    }

    /// Records currently buffered in memory across all partitions
    /// (excludes anything already spilled).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// High-water mark of in-memory buffered records over the buffer's
    /// lifetime. With a spill threshold this never exceeds the threshold.
    #[inline]
    pub fn peak_buffered(&self) -> usize {
        self.peak
    }

    /// Routes one record by its precomputed key fingerprint.
    #[inline]
    pub fn push(&mut self, hash: u64, key: K, value: V) {
        let p = (hash % self.parts.len() as u64) as usize;
        self.parts[p].push((hash, key, value));
        self.len += 1;
        self.peak = self.peak.max(self.len);
    }

    /// Consumes the buffer, yielding the partition-indexed record vectors.
    pub fn into_parts(self) -> Vec<Vec<ShuffleRecord<K, V>>> {
        self.parts
    }
}

impl<K: Spill + Hash, V: Spill> PartitionedBuffer<K, V> {
    /// Spills the whole buffer if it has reached the spill threshold.
    /// Called on every emit, so in-memory records never exceed the
    /// threshold. `emit()` is infallible by signature, so an I/O failure is
    /// remembered for [`PartitionedBuffer::finish_spill`] and the buffer
    /// stops spilling: the task is lost, the rest of its output is only
    /// buffered until it ends.
    #[inline]
    pub(crate) fn maybe_spill(&mut self) {
        if let Some(spill) = &self.spill {
            if self.len >= spill.threshold {
                let failed = self.write_runs().err();
                if let (Some(e), Some(spill)) = (failed, self.spill.as_mut()) {
                    spill.threshold = usize::MAX;
                    spill.error = Some(e);
                }
            }
        }
    }

    /// Stable-sorts each non-empty partition by fingerprint and appends it
    /// to the task's run file as one sorted run, emptying the buffer. The
    /// one place map output becomes runs — spilled or published.
    fn write_runs(&mut self) -> std::io::Result<()> {
        let Some(spill) = self.spill.as_mut() else {
            return Ok(());
        };
        if self.len == 0 {
            return Ok(());
        }
        let writer = match spill.writer.take() {
            Some(w) => spill.writer.insert(w),
            None => {
                let path = spill.dir.join(format!("task{}.spill", spill.task));
                spill.writer.insert(SpillWriter::create(path)?)
            }
        };
        for (p, part) in self.parts.iter_mut().enumerate() {
            if part.is_empty() {
                continue;
            }
            // Stable: equal-fingerprint records keep emit order within the run.
            part.sort_by_key(|(h, _, _)| *h);
            spill.runs[p].push(writer.write_run(part)?);
            part.clear();
        }
        self.len = 0;
        Ok(())
    }

    /// Finishes the task's run file and returns its read-only handle plus
    /// run directory, or `None` if no run was ever written. With
    /// `publish`, what is still buffered is first flushed as each
    /// partition's last run, so the file holds the task's whole output;
    /// otherwise the remaining in-memory records stay in the buffer. The
    /// spill accounting is taken *before* that flush.
    ///
    /// An error says whether it belongs to publishing (the flush, or
    /// finalizing a published file: the transport's failure) or not (a
    /// spill [`PartitionedBuffer::maybe_spill`] could not write, whatever
    /// the transport, or finalizing a spill-only file: the disk's).
    pub(crate) fn finish_spill(
        &mut self,
        publish: bool,
    ) -> Result<Option<TaskSpill>, (bool, std::io::Error)> {
        let Some(spill) = self.spill.as_mut() else {
            return Ok(None);
        };
        if let Some(e) = spill.error.take() {
            return Err((false, e));
        }
        let spill_runs = spill.runs.iter().map(|runs| runs.len() as u64).sum();
        let (records, bytes) = spill
            .writer
            .as_ref()
            .map_or((0, 0), |w| (w.records, w.bytes));
        if publish {
            self.write_runs().map_err(|e| (true, e))?;
            // Free the buffers now, inside the map task, rather than when
            // the exchange drops the (empty) leftovers after the barrier.
            self.parts.iter_mut().for_each(|part| *part = Vec::new());
        }
        let Some(BufferSpill {
            task,
            writer: Some(writer),
            runs,
            ..
        }) = self.spill.take()
        else {
            return Ok(None);
        };
        let (file, _path) = writer.into_reader().map_err(|e| (publish, e))?;
        Ok(Some(TaskSpill {
            task: task as u64,
            file,
            runs,
            records,
            bytes,
            spill_runs,
        }))
    }
}

impl<K: Hash, V> PartitionedBuffer<K, V> {
    /// Fingerprints `key` and routes the record (emit-time path).
    #[inline]
    pub fn emit(&mut self, key: K, value: V) {
        let h = fingerprint64(&key);
        self.push(h, key, value);
    }
}

impl<K: Hash + Eq + Clone, V> PartitionedBuffer<K, V> {
    /// Applies `combiner` to every partition in place (see
    /// [`combine_records`]); returns the post-combine record count.
    pub fn combine(&mut self, combiner: &dyn Combiner<K, V>) -> usize {
        let mut total = 0;
        for part in &mut self.parts {
            let records = std::mem::take(part);
            *part = combine_records(records, combiner);
            total += part.len();
        }
        self.len = total; // combining only ever shrinks; peak is unchanged
        total
    }
}

/// Groups `records` by key and replaces each key's values with the
/// combiner's output.
///
/// Grouping is by stable sort on the precomputed key fingerprint — equal
/// keys become adjacent runs, so the whole pass needs one reused scratch
/// buffer instead of a hash table with a `Vec` per key. The resulting
/// record order is fingerprint order: different from the emit order, but a
/// pure function of the data, so job output stays deterministic across
/// thread and partition counts. On a fingerprint collision between
/// distinct keys, the colliding run is re-grouped by full key equality
/// (first-occurrence order within the run), so every key's values reach
/// the combiner in exactly one call — an interleaved collision cannot
/// split a key into two combined records and leak duplicates past a
/// [`Dedup`] combine into the charged shuffle volume.
pub fn combine_records<K: Hash + Eq + Clone, V>(
    records: Vec<ShuffleRecord<K, V>>,
    combiner: &dyn Combiner<K, V>,
) -> Vec<ShuffleRecord<K, V>> {
    if records.len() <= 1 {
        return records;
    }
    let mut records = records;
    records.sort_by_key(|(h, _, _)| *h); // stable: value order per key kept

    let mut out = Vec::with_capacity(records.len() / 2 + 1);
    let mut it = records.into_iter().peekable();
    let mut values: Vec<V> = Vec::new(); // scratch, reused across runs
    let mut extras: Vec<(K, V)> = Vec::new(); // fingerprint-collision overflow
    while let Some((h, key, v)) = it.next() {
        values.push(v);
        while let Some((h2, _, _)) = it.peek() {
            if *h2 != h {
                break;
            }
            // Guarded by the successful peek; break is the only sound
            // fallback and cannot occur.
            let Some((_, k2, v2)) = it.next() else { break };
            if k2 == key {
                values.push(v2);
            } else {
                extras.push((k2, v2));
            }
        }
        flush_run(combiner, h, key, &mut values, &mut out);
        // Rare: other keys shared this fingerprint. The shared helper
        // applies the same grouping discipline as the reduce-side merge.
        for_each_key_group(&mut extras, |k, mut vs| {
            values.append(&mut vs);
            flush_run(combiner, h, k, &mut values, &mut out);
            Ok::<(), std::convert::Infallible>(())
        })
        .unwrap_or_else(|e| match e {});
    }
    out
}

/// Splits one fingerprint run's records into per-key groups (full key
/// equality, first-occurrence order) and hands each to `f`,
/// short-circuiting on the first `Err` (map-side callers are infallible
/// and pass an `Infallible` error type).
///
/// This is the single source of truth for fingerprint-collision grouping:
/// both the map-side combine ([`combine_records`]) and the reduce-side
/// sort-merge ([`crate::merge`]) go through it, so the two sides cannot
/// silently diverge on ordering or key-splitting semantics.
pub(crate) fn for_each_key_group<K: Eq, V, E, F: FnMut(K, Vec<V>) -> Result<(), E>>(
    run: &mut Vec<(K, V)>,
    mut f: F,
) -> Result<(), E> {
    let mut rest: Vec<(K, V)> = Vec::new(); // colliding keys, next round
    while !run.is_empty() {
        // Almost always the whole run is one key: `run` keeps its buffer
        // for the next fingerprint and `rest` stays empty.
        let mut values = Vec::with_capacity(run.len());
        let mut records = run.drain(..);
        // Guarded by the loop's !run.is_empty(); break cannot occur.
        let Some((key, first)) = records.next() else {
            break;
        };
        values.push(first);
        for (k, v) in records {
            if k == key {
                values.push(v);
            } else {
                rest.push((k, v));
            }
        }
        if !rest.is_empty() {
            std::mem::swap(run, &mut rest);
        }
        f(key, values)?;
    }
    Ok(())
}

/// Combines one key's buffered values and appends the surviving records;
/// `values` is drained but keeps its capacity for the next run.
fn flush_run<K: Clone, V>(
    combiner: &dyn Combiner<K, V>,
    h: u64,
    key: K,
    values: &mut Vec<V>,
    out: &mut Vec<ShuffleRecord<K, V>>,
) {
    combiner.combine(&key, values);
    let mut vs = values.drain(..);
    if let Some(first) = vs.next() {
        match vs.next() {
            // Single combined value (the overwhelmingly common case):
            // move the key, no clone.
            None => out.push((h, key, first)),
            Some(second) => {
                out.push((h, key.clone(), first));
                out.push((h, key.clone(), second));
                out.extend(vs.map(|v| (h, key.clone(), v)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_routes_by_hash_modulo() {
        let mut buf: PartitionedBuffer<u64, u32> = PartitionedBuffer::new(4);
        for k in 0u64..100 {
            buf.emit(k, 1);
        }
        assert_eq!(buf.len(), 100);
        let parts = buf.into_parts();
        assert_eq!(parts.len(), 4);
        for (p, records) in parts.iter().enumerate() {
            for (h, _, _) in records {
                assert_eq!((*h % 4) as usize, p);
            }
        }
        // A sane hash spreads 100 sequential keys over all 4 partitions.
        assert!(parts.iter().all(|p| !p.is_empty()));
    }

    #[test]
    fn count_combiner_sums_partial_counts() {
        let recs: Vec<ShuffleRecord<u32, u64>> = vec![(1, 4, 1), (1, 4, 1), (1, 4, 3)];
        assert_eq!(combine_records(recs, &Count), vec![(1, 4, 5)]);
    }

    #[test]
    fn dedup_combiner_keeps_distinct_values_in_first_occurrence_order() {
        let recs: Vec<ShuffleRecord<u32, u32>> =
            vec![(1, 1, 5), (1, 1, 6), (1, 1, 5), (1, 1, 6), (1, 1, 4)];
        assert_eq!(
            combine_records(recs, &Dedup),
            vec![(1, 1, 5), (1, 1, 6), (1, 1, 4)]
        );
    }

    #[test]
    fn combine_orders_by_fingerprint_and_totals_are_exact() {
        let recs: Vec<ShuffleRecord<u32, u64>> = vec![(4, 9, 1), (2, 3, 1), (4, 9, 1), (1, 7, 1)];
        let out = combine_records(recs, &Count);
        // Runs are merged per key; records come out in fingerprint order —
        // deterministic regardless of emit order.
        assert_eq!(out, vec![(1, 7, 1), (2, 3, 1), (4, 9, 2)]);
    }

    #[test]
    fn combine_groups_colliding_keys_by_full_equality() {
        // Two distinct keys sharing a fingerprint, interleaved: values must
        // not be merged across keys, none may be lost, and each key must be
        // combined exactly once (no split runs).
        let recs: Vec<ShuffleRecord<u32, u64>> = vec![(5, 1, 10), (5, 2, 1), (5, 1, 20), (5, 2, 2)];
        let out = combine_records(recs, &Count);
        assert_eq!(out, vec![(5, 1, 30), (5, 2, 3)]);
    }

    #[test]
    fn dedup_combine_fully_deduplicates_across_a_collision() {
        // Regression: the pre-fix grouping split a key's run at every
        // key alternation inside a colliding fingerprint run, so Dedup let
        // duplicate values through map-side and inflated shuffle_records
        // (and the charged shuffle cost). Now each key's values are
        // deduplicated in one pass.
        let recs: Vec<ShuffleRecord<u32, u32>> = vec![
            (9, 1, 100),
            (9, 2, 100),
            (9, 1, 100), // duplicate of (1, 100) across the interleaving
            (9, 2, 100), // duplicate of (2, 100) across the interleaving
            (9, 1, 200),
        ];
        let out = combine_records(recs, &Dedup);
        assert_eq!(
            out,
            vec![(9, 1, 100), (9, 1, 200), (9, 2, 100)],
            "one record per distinct (key, value), first-occurrence order per key"
        );
    }

    #[test]
    fn three_way_collision_groups_each_key_once() {
        let recs: Vec<ShuffleRecord<u32, u64>> =
            vec![(3, 7, 1), (3, 8, 10), (3, 9, 100), (3, 8, 10), (3, 7, 2)];
        let out = combine_records(recs, &Count);
        assert_eq!(out, vec![(3, 7, 3), (3, 8, 20), (3, 9, 100)]);
    }

    #[test]
    fn buffer_combine_counts_post_combine_records() {
        let mut buf: PartitionedBuffer<u64, u64> = PartitionedBuffer::new(8);
        for k in 0u64..50 {
            for _ in 0..4 {
                buf.emit(k, 1);
            }
        }
        assert_eq!(buf.len(), 200);
        let shuffled = buf.combine(&Count);
        assert_eq!(shuffled, 50, "one record per distinct key");
        assert_eq!(buf.len(), 50);
        let total: u64 = buf
            .into_parts()
            .into_iter()
            .flatten()
            .map(|(_, _, v)| v)
            .sum();
        assert_eq!(total, 200, "counts preserved");
    }

    #[test]
    fn empty_combine_is_noop() {
        let out = combine_records(Vec::<ShuffleRecord<u32, u64>>::new(), &Count);
        assert!(out.is_empty());
    }

    #[test]
    fn spilling_buffer_caps_in_memory_records() {
        let dir = crate::spill::create_job_spill_dir(&std::env::temp_dir()).unwrap();
        let _guard = crate::spill::SpillDirGuard(dir.clone());
        let mut buf: PartitionedBuffer<u64, u64> =
            PartitionedBuffer::with_spill(4, Some(16), dir.clone(), 0);
        for k in 0u64..1000 {
            buf.emit(k, k * 2);
            buf.maybe_spill();
        }
        assert!(buf.peak_buffered() <= 16, "peak {}", buf.peak_buffered());
        let spill = buf.finish_spill(false).unwrap().expect("must have spilled");
        let leftover: usize = buf.len();
        assert_eq!(spill.records as usize + leftover, 1000);
        assert!(spill.bytes > 0);
        // Runs are sorted by fingerprint and partition-consistent, and
        // streaming them back yields exactly the spilled records.
        let mut restored = 0usize;
        for (p, runs) in spill.runs.iter().enumerate() {
            for meta in runs {
                let mut r = crate::spill::RunReader::new(Arc::clone(&spill.file), *meta);
                let mut last_h = 0u64;
                while let Some((h, k, v)) = r.next::<u64, u64>().unwrap() {
                    assert!(h >= last_h, "run not sorted");
                    assert_eq!((h % 4) as usize, p, "record in wrong partition run");
                    assert_eq!(v, k * 2);
                    last_h = h;
                    restored += 1;
                }
            }
        }
        assert_eq!(restored, spill.records as usize);
    }

    #[test]
    fn unbounded_buffer_never_spills() {
        let mut buf: PartitionedBuffer<u64, u64> = PartitionedBuffer::new(4);
        for k in 0u64..100 {
            buf.emit(k, 1);
            buf.maybe_spill();
        }
        assert_eq!(buf.len(), 100);
        assert_eq!(buf.peak_buffered(), 100);
        assert!(buf.finish_spill(false).unwrap().is_none());
    }
}
