//! Job-facing types: emitters, statistics, and errors.

use std::collections::HashMap;
use std::hash::Hash;

use crate::shuffle::PartitionedBuffer;
use crate::spill::Spill;

/// One task's user counters. A task bumps a handful of `&'static str`
/// names, once per *record* on the pipelines' hot paths, so a bump is a
/// scan of a short list — the same literal matches by address, the same
/// name from another site by content — not a hash of the name. The stage
/// folds each task's list into the map [`JobStats::counters`] aggregates.
#[derive(Debug, Default)]
pub(crate) struct Counters(Vec<(&'static str, u64)>);

impl Counters {
    #[inline]
    fn add(&mut self, name: &'static str, delta: u64) {
        for (n, total) in &mut self.0 {
            if std::ptr::eq(*n, name) || *n == name {
                *total += delta;
                return;
            }
        }
        self.0.push((name, delta));
    }

    /// The `(name, total)` list, in first-bump order.
    pub(crate) fn into_vec(self) -> Vec<(&'static str, u64)> {
        self.0
    }

    pub(crate) fn into_map(self) -> HashMap<&'static str, u64> {
        self.0.into_iter().collect()
    }
}

/// Collects the `[⟨key2, value2⟩]` output of a map invocation, plus
/// user-defined counters (candidate counts, filter survival rates, …).
///
/// Emitted pairs are routed to their shuffle partition
/// (`HASH(key) % partitions`) immediately — the emitter *is* the map side
/// of the shuffle (see [`crate::shuffle`]). Under a memory-bounded
/// [`ShuffleConfig`](crate::shuffle::ShuffleConfig) the emitter also
/// enforces the spill threshold at every emit, so a mapper's in-memory
/// record count never exceeds it — even when a single input record emits a
/// burst of pairs.
#[derive(Debug)]
pub struct Emitter<K, V> {
    pub(crate) buffer: PartitionedBuffer<K, V>,
    pub(crate) counters: Counters,
    pub(crate) work_units: u64,
    /// Pairs emitted so far (survives periodic combines and spills, unlike
    /// `buffer.len()`).
    pub(crate) emitted: u64,
}

impl<K, V> Emitter<K, V> {
    pub(crate) fn with_partitions(partitions: usize) -> Self {
        Self::with_buffer(PartitionedBuffer::new(partitions))
    }

    pub(crate) fn with_buffer(buffer: PartitionedBuffer<K, V>) -> Self {
        Self {
            buffer,
            counters: Counters::default(),
            work_units: 0,
            emitted: 0,
        }
    }

    /// Declares extra simulated work units for the current record, on top
    /// of the default one-unit-per-record/emission (see the cost model
    /// notes in `cluster`). Use when a record's CPU cost is far from
    /// uniform (e.g. a metric-space mapper computing many distances).
    #[inline]
    pub fn add_work(&mut self, units: u64) {
        self.work_units += units;
    }

    /// Increments a named job counter (aggregated across all workers into
    /// [`JobStats::counters`]).
    #[inline]
    pub fn add_counter(&mut self, name: &'static str, delta: u64) {
        self.counters.add(name, delta);
    }
}

impl<K: Hash + Spill, V: Spill> Emitter<K, V> {
    /// Emits one intermediate key/value pair, routing it to its shuffle
    /// partition at once (and spilling the buffer if this emit reached the
    /// configured spill threshold).
    #[inline]
    pub fn emit(&mut self, key: K, value: V) {
        self.buffer.emit(key, value);
        self.emitted += 1;
        self.buffer.maybe_spill();
    }
}

/// Collects the `[value3]` output of a reduce invocation.
///
/// Under a dataset-producing stage with a bounded
/// [`ShuffleConfig`](crate::shuffle::ShuffleConfig) the runtime drains the
/// sink into a stage-output run file after every reduce group, so the
/// buffered output never exceeds one group's emissions; `emitted` keeps
/// the true output count across those drains.
#[derive(Debug)]
pub struct OutputSink<O> {
    pub(crate) out: Vec<O>,
    pub(crate) counters: Counters,
    pub(crate) work_units: u64,
    /// Records emitted so far (survives runtime drains, unlike
    /// `out.len()`).
    pub(crate) emitted: u64,
}

impl<O> OutputSink<O> {
    /// Creates a standalone sink (public so that algorithms can nest
    /// reducer-style logic, e.g. HMJ's recursive repartitioning).
    pub fn new() -> Self {
        Self {
            out: Vec::new(),
            counters: Counters::default(),
            work_units: 0,
            emitted: 0,
        }
    }

    /// Consumes the sink, returning its outputs and counters.
    pub fn into_parts(self) -> (Vec<O>, HashMap<&'static str, u64>) {
        (self.out, self.counters.into_map())
    }

    /// Declares extra simulated work units for the current group, on top
    /// of the default one-unit-per-value/emission. Reducers whose cost is
    /// super-linear in the group size (all-pairs verification, recursive
    /// repartitioning) should declare their comparisons here so simulated
    /// skew tracks real skew.
    #[inline]
    pub fn add_work(&mut self, units: u64) {
        self.work_units += units;
    }

    /// Total declared extra work units so far.
    #[inline]
    pub fn work_units(&self) -> u64 {
        self.work_units
    }

    /// Emits one job output record.
    #[inline]
    pub fn emit(&mut self, value: O) {
        self.out.push(value);
        self.emitted += 1;
    }

    /// Increments a named job counter.
    #[inline]
    pub fn add_counter(&mut self, name: &'static str, delta: u64) {
        self.counters.add(name, delta);
    }
}

impl<O> Default for OutputSink<O> {
    fn default() -> Self {
        Self::new()
    }
}

/// Errors surfaced by the runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// A map or reduce worker panicked; carries the phase and the panic
    /// message. Mirrors a task failing permanently on a real cluster.
    WorkerPanic {
        phase: &'static str,
        message: String,
    },
    /// The shuffle transport failed to move map output to the reduce side:
    /// the stage's run server would not start, a map task could not
    /// publish its runs (an I/O error writing or finalizing its run file),
    /// or a reduce-side fetch ran out of retries or named a run
    /// the server does not hold. Mirrors a shuffle-fetch failure on a real
    /// cluster.
    Transport { message: String },
    /// A spill-format file failed under a job: an I/O error or corruption
    /// reading a run back ([`SpillError`](crate::spill::SpillError)), or
    /// an I/O error creating/writing/finalizing a stage-output or merge
    /// scratch run. Mirrors a worker losing its local disk mid-job; the
    /// job fails, the process survives.
    Spill { message: String },
    /// Plan analysis diagnosed the lowered job graph and the cluster runs
    /// with [`PlanCheck::Deny`](crate::dag::analyze::PlanCheck): the
    /// terminal fails *before* any stage executes. Carries every rendered
    /// [`PlanDiagnostic`](crate::dag::analyze::PlanDiagnostic).
    Plan { message: String },
}

impl From<crate::spill::SpillError> for JobError {
    fn from(e: crate::spill::SpillError) -> Self {
        let message = e.to_string();
        match e {
            crate::spill::SpillError::Fetch(_) => JobError::Transport { message },
            _ => JobError::Spill { message },
        }
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::WorkerPanic { phase, message } => {
                write!(f, "{phase} worker panicked: {message}")
            }
            JobError::Transport { message } => {
                write!(f, "shuffle transport failed: {message}")
            }
            JobError::Spill { message } => {
                write!(f, "spill I/O failed: {message}")
            }
            JobError::Plan { message } => {
                write!(f, "plan analysis failed: {message}")
            }
        }
    }
}

impl std::error::Error for JobError {}

/// Simulated timing of one phase (map or reduce).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseSim {
    /// Makespan: the busiest simulated machine's load, in simulated seconds
    /// (including per-worker instantiation overheads).
    pub makespan_secs: f64,
    /// Sum of all machines' loads (the phase's total compute).
    pub total_cpu_secs: f64,
    /// `makespan / (total / machines)` — 1.0 is perfectly balanced. The
    /// paper's Fig. 1 discussion (one-string vs both-strings balancing) and
    /// Fig. 7 (HMJ's dense-cluster imbalance) are about exactly this ratio.
    pub skew: f64,
}

/// Everything measured about one executed job.
#[derive(Debug, Clone, Default)]
pub struct JobStats {
    /// Job name (for reports).
    pub name: String,
    /// Simulated machine count the job was charged against.
    pub machines: usize,
    /// Input records fed to mappers.
    pub input_records: u64,
    /// Intermediate pairs emitted by mappers (pre-combine).
    pub map_output_records: u64,
    /// Records actually shuffled (post-combine). Equal to
    /// `map_output_records` for jobs without a combiner; the gap between
    /// the two is the map-side-aggregation saving the [`CostModel`] charges
    /// shuffle cost on.
    ///
    /// [`CostModel`]: crate::cluster::CostModel
    pub shuffle_records: u64,
    /// Records spilled to disk by memory-bounded mappers (0 without a
    /// [`ShuffleConfig`](crate::shuffle::ShuffleConfig) spill threshold).
    /// Spilled records are part of `shuffle_records`: they were still
    /// shuffled, they just travelled via a disk segment.
    pub spilled_records: u64,
    /// Bytes written to spill segments (read back once by the reduce
    /// phase; the [`CostModel`] charges both directions).
    ///
    /// [`CostModel`]: crate::cluster::CostModel
    pub spill_bytes: u64,
    /// Sorted runs written by memory-bounded mappers across all spill
    /// files (what the reduce-side merge fan-in is up against).
    pub spill_runs: u64,
    /// Name of the shuffle transport the job ran over
    /// ([`Transport::name`](crate::transport::Transport)).
    pub transport: &'static str,
    /// Bytes serialized through the shuffle transport (0 for the
    /// in-process handoff; the full post-combine exchange volume — the
    /// sum of every published run's size — for the multi-process and
    /// remote transports). Charged by
    /// [`CostModel::transport_secs_per_byte`](crate::cluster::CostModel).
    pub transport_bytes: u64,
    /// Hierarchical pre-merge passes reduce tasks ran to honour
    /// [`ShuffleConfig::merge_fan_in`](crate::shuffle::ShuffleConfig)
    /// (0 when every partition's segment count fit the cap).
    pub merge_passes: u64,
    /// Bytes written to hierarchical-merge scratch runs (each also read
    /// back by a later pass or the final merge); charged into
    /// `spill_secs` at the spill I/O rate, since scratch runs are the
    /// same local-disk resource.
    pub merge_scratch_bytes: u64,
    /// Largest in-memory record count any map task's shuffle buffer
    /// reached. With a spill threshold configured this never exceeds it —
    /// the memory bound the spill path exists to enforce.
    pub peak_buffered_records: u64,
    /// Distinct reduce keys (= instantiated reduce workers).
    pub reduce_groups: u64,
    /// Largest reduce group (hot-key diagnosis).
    pub max_group_size: u64,
    /// Records emitted by reducers.
    pub output_records: u64,
    /// Records that crossed from driver memory into the runtime to feed
    /// this job's map wave: the input length for the first stage after
    /// [`Cluster::input`](crate::cluster::Cluster::input) (a
    /// [`Cluster::run*`](crate::cluster::Cluster::run) job is one), zero
    /// for fused interior stages of a
    /// [`Dataset`](crate::dataset::Dataset) graph, whose map tasks stream
    /// the previous stage's partition segments runtime-side.
    pub driver_in_records: u64,
    /// Records of this job's output handed back to driver memory. The
    /// engine never books this: a stage's output stays partitioned in the
    /// runtime, and [`Dataset::collect`](crate::dataset::Dataset::collect)
    /// books the crossing onto the producing job when it drains it — so it
    /// is the output length for a collected stage
    /// (every `Cluster::run*` job) and zero for interior ones.
    pub driver_out_records: u64,
    /// Map-phase simulated timing.
    pub map: PhaseSim,
    /// Simulated shuffle time (volume / machines).
    pub shuffle_secs: f64,
    /// Simulated spill I/O time (write + read-back of `spill_bytes` and
    /// `merge_scratch_bytes`, spread across machines).
    pub spill_secs: f64,
    /// Simulated transport time (`transport_bytes` over the exchange,
    /// spread across machines; 0 in-process).
    pub transport_secs: f64,
    /// Reduce-phase simulated timing.
    pub reduce: PhaseSim,
    /// End-to-end simulated job time (startup + map + shuffle + reduce).
    pub sim_total_secs: f64,
    /// Real wall-clock the local execution took.
    pub wall_secs: f64,
    /// Speculative re-executions launched for this job's straggling tasks
    /// (scheduler observability, nondeterministic; 0 outside
    /// [`SchedulerMode::Speculative`](crate::pool::SchedulerMode)).
    pub speculative_launched: u64,
    /// Speculative attempts that finished *before* their primary and won
    /// the first-result-wins race (the primary's output was dropped).
    pub speculative_won: u64,
    /// Total microseconds this job's tasks spent queued before a worker
    /// picked them up (scheduler observability, nondeterministic).
    pub queue_wait_us: u64,
    /// Logical fetch requests the remote transport issued, summed over the
    /// winning reduce attempts (0 for the other transports). A reduce task
    /// fetches the first chunk of all its runs in vectored requests of up
    /// to `FetchConfig::chunk` (256 KiB) each, plus one request per further
    /// chunk of a longer run, so the count scales with the bytes each
    /// reduce task reads, not with its runs.
    /// Real-network observability (like `wall_secs`): never feeds
    /// simulated stats — `transport_bytes` carries the deterministic
    /// exchanged volume.
    pub fetch_requests: u64,
    /// Extra fetch attempts beyond each request's first (dropped
    /// connections, timeouts — including injected faults). Retries are
    /// idempotent reads, so this counter moves without the job
    /// output ever changing. Nondeterministic, never fed into simulated
    /// stats.
    pub fetch_retries: u64,
    /// Run bytes the fetch clients actually received (every range of each
    /// answered fetch; equals `transport_bytes` when nothing is
    /// dropped mid-run). Nondeterministic under faults, never fed into
    /// simulated stats.
    pub fetch_bytes: u64,
    /// Aggregated user counters.
    pub counters: HashMap<&'static str, u64>,
}

impl JobStats {
    /// Convenience accessor for a counter, defaulting to zero.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// A completed job: its output records plus measured statistics.
#[derive(Debug)]
pub struct JobResult<O> {
    /// All reducer outputs, concatenated in partition order.
    pub output: Vec<O>,
    /// Measured statistics.
    pub stats: JobStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emitter_collects_pairs_and_counters() {
        let mut e: Emitter<u32, String> = Emitter::with_partitions(4);
        e.emit(1, "a".to_owned());
        e.emit(2, "b".to_owned());
        e.add_counter("seen", 2);
        e.add_counter("seen", 1);
        assert_eq!(e.buffer.len(), 2);
        assert_eq!(e.emitted, 2);
        assert_eq!(e.counters.into_map()["seen"], 3);
    }

    #[test]
    fn sink_collects_outputs() {
        let mut s: OutputSink<u64> = OutputSink::new();
        s.emit(10);
        s.add_counter("out", 1);
        // The same name from another address is the same counter.
        s.add_counter(String::from("out").leak(), 2);
        let (out, counters) = s.into_parts();
        assert_eq!(out, vec![10]);
        assert_eq!(counters, HashMap::from([("out", 3)]));
    }

    #[test]
    fn job_error_displays() {
        let e = JobError::WorkerPanic {
            phase: "map",
            message: "oops".into(),
        };
        assert_eq!(e.to_string(), "map worker panicked: oops");
    }

    #[test]
    fn stats_counter_defaults_to_zero() {
        let s = JobStats::default();
        assert_eq!(s.counter("missing"), 0);
    }
}
