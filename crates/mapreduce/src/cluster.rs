//! The cluster: real threaded execution + simulated machine accounting.
//!
//! There is one way into the stage engine: a stage recorded in a
//! [`Dataset`](crate::dataset::Dataset) plan, lowered and run by the
//! private `dag` module. [`Cluster::run`] and [`Cluster::run_combined`]
//! are one-stage plans — `input` → one recorded stage → `collect` — not a
//! second call shape. Every stage executes through one *streaming* engine
//! (`run_stage_streamed`): map tasks are submitted to a shared worker pool
//! as their input partitions become ready (a lifted driver slice's chunks
//! are ready immediately; an upstream stage's partitions become ready one
//! by one as its reduce tasks finish), and reduce tasks deliver their
//! output partitions into the downstream feed the moment they complete.

use std::collections::HashMap;
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::dag::analyze::PlanCheck;
use crate::dag::{Feed, Recv};
use crate::dataset::{DataPartition, DatasetMode};
use crate::env;
use crate::job::{Emitter, JobError, JobResult, JobStats, OutputSink, PhaseSim};
use crate::merge::{merge_segments_capped, MergeEffort, Segment};
use crate::pool::{lock, panic_message, Pool, SchedStats, SchedulerConfig, Task};
use crate::report::SimReport;
use crate::shuffle::{Combiner, PartitionedBuffer, ShuffleConfig};
use crate::spill::{
    reserve_job_dir, reserve_job_spill_dir, RunMeta, RunReader, RunSource, Spill, SpillDirGuard,
    SpillWriter,
};
use crate::transport::{exchange, MapOutput, Remote, Transport};
use tsj_netshuffle::RunServer;

/// Spill/scratch/output file names must be distinct across a task's
/// concurrent attempts ([`SchedulerMode::Speculative`] runs a primary and
/// a speculative copy of the same task at once). Attempt `a` of task `t`
/// uses spill task-id `t + a * ATTEMPT_STRIDE`; with at most two attempts
/// this cannot collide with a real task index below the stride, and no
/// stage has 2^20 map tasks (machine-capped).
const ATTEMPT_STRIDE: usize = 1 << 20;

/// A stage's boxed map function (`'f` is the execution lifetime: closures
/// may borrow the corpus, filters, bitmaps — anything outliving the run).
pub(crate) type MapFn<'f, I, K, V> = Box<dyn Fn(&I, &mut Emitter<K, V>) + Send + Sync + 'f>;

/// A stage's boxed combine pass: applies the job's [`Combiner`] to a map
/// task's buffers and returns the post-combine record count. Pre-applied
/// as a closure so only the combined entry points need `K: Clone`
/// (combining clones keys; plain jobs never do).
pub(crate) type CombineFn<'f, K, V> =
    Box<dyn Fn(&mut PartitionedBuffer<K, V>) -> usize + Send + Sync + 'f>;

/// A stage's boxed reduce function.
pub(crate) type ReduceFn<'f, K, V, O> =
    Box<dyn Fn(&K, Vec<V>, &mut OutputSink<O>) + Send + Sync + 'f>;

/// Everything one stage needs to execute, with its user code boxed — the
/// unit the lazy [`Dataset`](crate::dataset::Dataset) layer records in its
/// plan instead of executing.
pub(crate) struct StageSpec<'f, I, K, V, O> {
    pub(crate) name: String,
    pub(crate) group_overhead_secs: f64,
    /// Shuffle partition count for this stage: always the cluster's
    /// [`partitions`](Cluster::partitions).
    pub(crate) partitions: usize,
    pub(crate) map: MapFn<'f, I, K, V>,
    pub(crate) combine: Option<CombineFn<'f, K, V>>,
    pub(crate) reduce: ReduceFn<'f, K, V, O>,
}

impl<'f, I, K, V, O> StageSpec<'f, I, K, V, O> {
    /// An ordinary stage: the cluster's partition count and per-group
    /// overhead. The variants override fields by struct update.
    pub(crate) fn new(
        cluster: &Cluster,
        name: &str,
        map: MapFn<'f, I, K, V>,
        combine: Option<CombineFn<'f, K, V>>,
        reduce: ReduceFn<'f, K, V, O>,
    ) -> Self {
        Self {
            name: name.to_owned(),
            group_overhead_secs: cluster.cfg.cost.reduce_group_overhead_secs,
            partitions: cluster.partitions(),
            map,
            combine,
            reduce,
        }
    }
}

/// Why a streamed stage did not produce a result.
pub(crate) enum StageFailure {
    /// An upstream producer failed; this stage aborted without running to
    /// completion and reports nothing (the upstream slot has the error).
    Upstream,
    /// The stage itself failed.
    Job(JobError),
}

/// Simulated-cost parameters of the cluster.
///
/// The defaults model the paper's evaluation cluster (Sec. V: 1,000
/// machines, 1 GB RAM, 0.5 CPU each, production MapReduce): multi-second
/// job submission, sub-second worker spin-up, and a small per-reduce-group
/// worker-instantiation overhead — the quantity the paper blames for
/// grouping-on-both-strings losing to grouping-on-one-string (Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Fixed per-job scheduling/submission overhead (simulated seconds).
    pub job_startup_secs: f64,
    /// One-time map-wave worker spin-up (simulated seconds).
    pub map_worker_startup_secs: f64,
    /// Per-reduce-group worker instantiation overhead (simulated seconds)
    /// for ordinary jobs, where a reducer task streams through thousands of
    /// groups.
    pub reduce_group_overhead_secs: f64,
    /// Per-group overhead for *verification* jobs, where the paper's Fig. 1
    /// discussion applies: "grouping-on-one-string instantiates a worker
    /// for each string ... grouping-on-both-strings instantiates a worker
    /// for each candidate pair". Stages opt in via
    /// [`Dataset::map_reduce_combined_with_group_overhead`](crate::dataset::Dataset::map_reduce_combined_with_group_overhead).
    pub verify_group_overhead_secs: f64,
    /// Shuffle cost per shuffled record, divided across machines. Charged
    /// on the **post-combine** record count
    /// ([`JobStats::shuffle_records`]), so map-side combining shows up as
    /// a shuffle saving exactly as it would on a real cluster.
    pub shuffle_secs_per_record: f64,
    /// Spill I/O cost per byte, divided across machines. Charged on
    /// `2 ×` [`JobStats::spill_bytes`] (each spilled byte is written by a
    /// memory-bounded mapper and read back once by the sort-merge reduce),
    /// so bounding mapper memory has a visible simulated price exactly as
    /// local disks would on a real cluster. The default models ~100 MB/s
    /// sequential disk on the paper's vintage worker.
    pub spill_secs_per_byte: f64,
    /// Shuffle-transport cost per byte moved between map and reduce
    /// workers, divided across machines. Charged on
    /// [`JobStats::transport_bytes`] — each serialized byte crosses the
    /// exchange once — so the `MultiProcess` transport's serialization
    /// volume has a visible simulated price the in-process handoff
    /// doesn't pay, exactly as a real cluster's interconnect would. The
    /// default models a ~1 Gb/s worker NIC of the paper's vintage.
    pub transport_secs_per_byte: f64,
    /// Multiplier on the compute charge (models the paper's 0.5-CPU
    /// machines being slower than a modern core; also usable to
    /// extrapolate dataset scale).
    pub cpu_scale: f64,
    /// Simulated seconds charged per work unit (records in + records out +
    /// explicitly declared units), before `cpu_scale`. Compute is charged
    /// on declared work only — no wall-clock measurement reaches a
    /// simulated number, so the simulated clock is a deterministic
    /// function of the data, whatever the host or thread count. `0.0`
    /// makes compute free (only the fixed overheads, shuffle, spill and
    /// transport are charged). The default, 100 ns, matches the measured
    /// per-record cost of the join pipelines on a modern core.
    pub work_unit_secs: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            job_startup_secs: 4.0,
            map_worker_startup_secs: 1.0,
            reduce_group_overhead_secs: 1e-4,
            verify_group_overhead_secs: 3e-2,
            shuffle_secs_per_record: 2e-6,
            spill_secs_per_byte: 1e-8,
            transport_secs_per_byte: 1e-8,
            cpu_scale: 1.0,
            work_unit_secs: 1e-7,
        }
    }
}

/// Cluster configuration: how many machines to simulate and how many real
/// threads to execute with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Simulated machine count (the x-axis of the paper's Figures 1 and 7).
    pub machines: usize,
    /// Real worker threads; `0` means all available cores.
    pub threads: usize,
    /// Shuffle partition count; `0` (the default) means one partition per
    /// simulated machine, matching how a production shuffler routes keys
    /// to reducers. Any positive count is legal — job output is
    /// partition-count-invariant — and reduce partition `p` is charged to
    /// machine `p % machines`.
    pub partitions: usize,
    /// Simulated-cost parameters.
    pub cost: CostModel,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            machines: 1000,
            threads: 0,
            partitions: 0,
            cost: CostModel::default(),
        }
    }
}

/// An executable cluster. Cheap to construct; holds no threads between jobs.
#[derive(Debug, Clone)]
pub struct Cluster {
    cfg: ClusterConfig,
    /// Shuffle memory knobs shared by every job this cluster runs.
    shuffle: ShuffleConfig,
    /// Whether [`Dataset`](crate::dataset::Dataset) stages execute lazily
    /// (the default) or at each `map_reduce*` call.
    dataset_mode: DatasetMode,
    /// Whether diagnosed [`Dataset`](crate::dataset::Dataset) plans still
    /// execute (warn, the default) or fail before running (deny).
    plan_check: PlanCheck,
    /// Worker-pool scheduling policy (mode, speculation threshold, seeded
    /// straggler) shared by every job this cluster runs.
    scheduler: SchedulerConfig,
    /// Automatic skew response: when a materialized dataset stage
    /// boundary's partition sizes exceed `max/mean > ratio`, the planner
    /// inserts a repartition stage behind the scenes. `None` (the default)
    /// disables it.
    auto_repartition: Option<f64>,
}

impl Cluster {
    /// Builds a cluster that starts from the process environment: the
    /// `TSJ_*` variables tabulated in [`crate::env`] (resolved, and warned
    /// about, once per process) override the default shuffle, scheduler
    /// and dataset mode, so an entire binary can be forced through the
    /// spill path, another transport or another scheduling policy without
    /// touching code. Each [`Cluster::with_shuffle_config`] /
    /// [`Cluster::with_scheduler`] / [`Cluster::with_dataset_mode`] pins an
    /// explicit configuration that ignores the environment; plan checking
    /// ([`Cluster::with_plan_check`]) and automatic repartitioning
    /// ([`Cluster::with_auto_repartition`]) have no variable and start at
    /// warn and off.
    pub fn new(cfg: ClusterConfig) -> Self {
        let mut cfg = cfg;
        cfg.machines = cfg.machines.max(1);
        let env = env::ambient();
        Self {
            cfg,
            shuffle: env.shuffle.clone(),
            dataset_mode: env.dataset_mode,
            plan_check: PlanCheck::default(),
            scheduler: env.scheduler.clone(),
            auto_repartition: None,
        }
    }

    /// A cluster with `machines` simulated machines and default costs.
    pub fn with_machines(machines: usize) -> Self {
        Self::new(ClusterConfig {
            machines,
            ..ClusterConfig::default()
        })
    }

    /// Replaces the shuffle memory configuration (exactly as given — no
    /// environment overrides).
    pub fn with_shuffle_config(mut self, shuffle: ShuffleConfig) -> Self {
        self.shuffle = shuffle;
        self
    }

    /// Pins the dataset execution mode (exactly as given — no environment
    /// override).
    pub fn with_dataset_mode(mut self, mode: DatasetMode) -> Self {
        self.dataset_mode = mode;
        self
    }

    /// Pins the plan-analysis mode (exactly as given — no environment
    /// override). [`PlanCheck::Deny`](crate::dag::analyze::PlanCheck) makes
    /// every diagnosed [`Dataset`](crate::dataset::Dataset) terminal fail
    /// with [`JobError::Plan`](crate::job::JobError) before executing.
    pub fn with_plan_check(mut self, check: PlanCheck) -> Self {
        self.plan_check = check;
        self
    }

    /// Pins the worker-pool scheduling policy (exactly as given — no
    /// environment override). Output is byte-identical across modes; only
    /// wall-clock behaviour and the scheduler observability counters
    /// ([`JobStats::steals`] and friends) change.
    pub fn with_scheduler(mut self, scheduler: SchedulerConfig) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Enables (or, with `None`, disables) automatic skew response: when a
    /// [`Dataset`](crate::dataset::Dataset) stage's output partition sizes
    /// cross `max/mean > ratio`, the planner inserts a record-hash
    /// repartition stage behind the scenes before the next stage. It
    /// engages only at a materialized boundary, whose sizes are known when
    /// the next stage is recorded — that is, under
    /// [`DatasetMode::Eager`]. Ratios ≤ 1.0 are treated as disabled (1.0 is
    /// perfect balance — nothing to fix).
    pub fn with_auto_repartition(mut self, ratio: Option<f64>) -> Self {
        self.auto_repartition = ratio.filter(|r| r.is_finite() && *r > 1.0);
        self
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// The shuffle memory knobs jobs run with.
    pub fn shuffle_config(&self) -> &ShuffleConfig {
        &self.shuffle
    }

    /// How [`Dataset`](crate::dataset::Dataset) stages execute (lazy DAG
    /// vs stage-at-a-time).
    pub fn dataset_mode(&self) -> DatasetMode {
        self.dataset_mode
    }

    /// Whether diagnosed [`Dataset`](crate::dataset::Dataset) plans still
    /// execute (see [`PlanCheck`]).
    pub fn plan_check(&self) -> PlanCheck {
        self.plan_check
    }

    /// The worker-pool scheduling policy jobs run with.
    pub fn scheduler(&self) -> &SchedulerConfig {
        &self.scheduler
    }

    /// The automatic-repartition skew ratio, if enabled.
    pub fn auto_repartition(&self) -> Option<f64> {
        self.auto_repartition
    }

    pub fn machines(&self) -> usize {
        self.cfg.machines
    }

    /// Shuffle partition count jobs run with (see [`ClusterConfig`]).
    pub fn partitions(&self) -> usize {
        if self.cfg.partitions > 0 {
            self.cfg.partitions
        } else {
            self.cfg.machines
        }
    }

    pub(crate) fn threads(&self) -> usize {
        if self.cfg.threads > 0 {
            self.cfg.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        }
    }

    /// How a driver slice of `len` records is chunked into map tasks — one
    /// task per simulated machine, capped by the input — as
    /// `(num_tasks, chunk_size)`. The dataset layer's driver→partition
    /// lift is the one producer that chunks by it.
    pub(crate) fn slice_chunking(&self, len: usize) -> (usize, usize) {
        let tasks = self.cfg.machines.min(len).max(1);
        (tasks, len.div_ceil(tasks).max(1))
    }

    /// Runs one MapReduce job (Sec. III-A semantics).
    ///
    /// * `map` is applied to every input record, emitting `⟨key2, value2⟩`
    ///   pairs into the [`Emitter`], which routes each pair to its shuffle
    ///   partition `HASH(key2) % partitions` at emit time.
    /// * Each partition's buffers are handed to exactly one reduce task,
    ///   which groups pairs by key; each key's values are handed to
    ///   `reduce` exactly once, on the simulated machine
    ///   `partition % machines`.
    /// * Output order across groups is unspecified (as on a real cluster),
    ///   but deterministic given the input and the partition count —
    ///   independent of the real thread count.
    ///
    /// Simulated time = job startup + map makespan + shuffle + reduce
    /// makespan; see [`CostModel`]. Real execution uses all configured
    /// threads regardless of the simulated machine count.
    ///
    /// The job *is* a one-stage [`Dataset`](crate::dataset::Dataset) plan —
    /// [`Cluster::input`] (hence `I: Clone`: the slice is lifted into the
    /// runtime), one recorded stage, [`collect`](crate::dataset::Dataset::collect)
    /// — so it behaves like every other plan: the cluster's [`PlanCheck`]
    /// applies (an empty `input` is [`JobError::Plan`] under
    /// [`PlanCheck::Deny`]), under a bounded [`ShuffleConfig`] the reduce
    /// output is drained to a stage-output run and decoded back at the
    /// collect, and the collect books [`JobStats::driver_out_records`].
    pub fn run<I, K, V, O, M, R>(
        &self,
        name: &str,
        input: &[I],
        map: M,
        reduce: R,
    ) -> Result<JobResult<O>, JobError>
    where
        I: Clone + Send + Sync + Spill,
        K: Hash + Eq + Send + Spill,
        V: Send + Spill,
        O: Send + Sync + Spill,
        M: Fn(&I, &mut Emitter<K, V>) + Sync,
        R: Fn(&K, Vec<V>, &mut OutputSink<O>) + Sync,
    {
        let stage = self.input(input).map_reduce(name, &map, &reduce)?;
        stage.collect().map(job_result)
    }

    /// [`Cluster::run`] with a map-side [`Combiner`]: each map task folds
    /// its emitted values per key through `combiner` before the shuffle,
    /// and the shuffle is charged on the post-combine record count
    /// ([`JobStats::shuffle_records`]).
    ///
    /// The reducer must be insensitive to the partial aggregation (see the
    /// [`Combiner`] contract) — given that, output is identical to
    /// [`Cluster::run`] with the same `map`/`reduce`.
    pub fn run_combined<I, K, V, O, M, C, R>(
        &self,
        name: &str,
        input: &[I],
        map: M,
        combiner: &C,
        reduce: R,
    ) -> Result<JobResult<O>, JobError>
    where
        I: Clone + Send + Sync + Spill,
        K: Hash + Eq + Clone + Send + Spill,
        V: Send + Spill,
        O: Send + Sync + Spill,
        M: Fn(&I, &mut Emitter<K, V>) + Sync,
        C: Combiner<K, V>,
        R: Fn(&K, Vec<V>, &mut OutputSink<O>) + Sync,
    {
        // Borrows the combiner where `Dataset::map_reduce_combined` clones
        // it into the plan: this plan never outlives the call.
        let combine: CombineFn<'_, K, V> =
            Box::new(move |buffer: &mut PartitionedBuffer<K, V>| buffer.combine(combiner));
        let spec = StageSpec::new(self, name, Box::new(&map), Some(combine), Box::new(&reduce));
        let stage = self.input(input).record(spec)?;
        stage.collect().map(job_result)
    }
}

/// A collected one-stage plan as the job it ran.
fn job_result<O>((output, mut report): (Vec<O>, SimReport)) -> JobResult<O> {
    let stats = report.jobs_mut().last_mut().map(std::mem::take);
    JobResult {
        output,
        stats: stats.unwrap_or_default(),
    }
}

/// A map task's output and counts (one per consumed feed item).
struct MapTaskOut<K, V> {
    /// Work units: input records + emitted pairs + combine scans +
    /// spilled records — what the task's simulated load is charged on
    /// (see [`proportional_loads`]).
    work: u64,
    /// Records this task consumed.
    input: u64,
    /// Pairs emitted by `map` (pre-combine).
    emitted: u64,
    /// Records handed to the shuffle (post-combine, spilled runs
    /// included).
    shuffled: u64,
    /// High-water mark of in-memory buffered records.
    peak_buffered: u64,
    /// Partition-indexed in-memory output buffers, plus the task's run
    /// file if it wrote one (then holding everything, under a publishing
    /// transport).
    output: MapOutput<K, V>,
    counters: HashMap<&'static str, u64>,
}

/// A reduce task's output and counts (one per non-empty partition).
struct ReduceTaskOut<O> {
    machine: usize,
    /// Work units over the partition: values in + records emitted +
    /// explicitly declared units.
    work: u64,
    groups: u64,
    max_group: u64,
    /// Hierarchical pre-merge effort spent honouring the merge
    /// fan-in cap (zero when the partition fits under the cap).
    merge: MergeEffort,
    /// Records emitted (also counted when drained to a run file).
    emitted: u64,
    /// The finished output partition (`None` when the task emitted
    /// nothing), taken by the winning attempt's delivery.
    part: Option<DataPartition<O>>,
    counters: HashMap<&'static str, u64>,
}

/// Per-wave completion latch: task results keyed for deterministic
/// re-ordering, the lowest-key failure, and a done counter the driver
/// blocks on.
struct WaveGather<T> {
    outs: Vec<(u64, T)>,
    first_err: Option<(u64, JobError)>,
    done: usize,
}

type WaveLatch<T> = Arc<(Mutex<WaveGather<T>>, Condvar)>;

/// Records one task's result into its wave latch and wakes the driver.
fn wave_record<T>(cell: &(Mutex<WaveGather<T>>, Condvar), key: u64, result: Result<T, JobError>) {
    let mut g = lock(&cell.0);
    match result {
        Ok(out) => g.outs.push((key, out)),
        Err(e) => {
            if g.first_err.as_ref().is_none_or(|(k, _)| key < *k) {
                g.first_err = Some((key, e));
            }
        }
    }
    g.done += 1;
    drop(g);
    cell.1.notify_all();
}

/// A Drop-armed completion ticket: every submitted task holds one, and if
/// the task unwinds before explicitly completing (a panic escaping the
/// task's own `catch_unwind`, e.g. in result delivery), the ticket's Drop
/// records a structured failure — so [`Wave::barrier`] always terminates
/// and the stage fails instead of hanging the driver forever.
struct WaveTicket<T> {
    cell: WaveLatch<T>,
    key: u64,
    armed: bool,
}

impl<T> WaveTicket<T> {
    /// Records the task's result and disarms the Drop fallback.
    fn complete(mut self, result: Result<T, JobError>) {
        self.armed = false;
        wave_record(&self.cell, self.key, result);
    }
}

impl<T> Drop for WaveTicket<T> {
    fn drop(&mut self) {
        if self.armed {
            wave_record(
                &self.cell,
                self.key,
                Err(JobError::WorkerPanic {
                    phase: "task",
                    message: "task aborted before reporting its result".to_owned(),
                }),
            );
        }
    }
}

/// One wave of pool tasks — a stage's map wave or its reduce wave: the
/// completion latch plus what every submission of the wave shares.
struct Wave<'p, 'f, T> {
    pool: &'p Pool<'f>,
    /// `"map"` or `"reduce"`: names the wave in [`JobError::WorkerPanic`].
    phase: &'static str,
    priority: u32,
    sched_stats: Arc<SchedStats>,
    latch: WaveLatch<T>,
    submitted: usize,
}

impl<'p, 'f, T: Send + 'f> Wave<'p, 'f, T> {
    fn new(
        pool: &'p Pool<'f>,
        phase: &'static str,
        priority: u32,
        sched_stats: &Arc<SchedStats>,
    ) -> Self {
        Self {
            pool,
            phase,
            priority,
            sched_stats: Arc::clone(sched_stats),
            latch: Arc::new((
                Mutex::new(WaveGather {
                    outs: Vec::new(),
                    first_err: None,
                    done: 0,
                }),
                Condvar::new(),
            )),
            submitted: 0,
        }
    }

    /// Submits one task — the engine's only task shape, for both waves
    /// under both scheduler modes. `run(attempt)` is the task proper,
    /// re-callable; an attempt's panic becomes a structured
    /// [`JobError::WorkerPanic`]. First result wins: whichever attempt
    /// finishes first takes the ticket, runs `deliver` on its output and
    /// reports under `key`; the loser's output (and its attempt-suffixed
    /// files) is dropped on the floor. With `replayable` unset the pool
    /// never runs a second attempt and the ticket is simply taken once.
    /// `straggle` is the injected sleep of a seeded straggler: it hits the
    /// primary attempt only — a slow *node*, the only slowness a re-run can
    /// beat, since a re-run of a data-slow deterministic task is exactly as
    /// slow — and in every mode, which is what lets benchmarks compare a
    /// straggled baseline against speculation on equal footing.
    fn submit(
        &mut self,
        key: u64,
        replayable: bool,
        straggle: Option<Duration>,
        run: impl Fn(usize) -> Result<T, JobError> + Send + Sync + 'f,
        deliver: impl Fn(&mut T) + Send + Sync + 'f,
    ) {
        self.submitted += 1;
        let ticket = Mutex::new(Some(WaveTicket {
            cell: Arc::clone(&self.latch),
            key,
            armed: true,
        }));
        let phase = self.phase;
        let sched_stats = Arc::clone(&self.sched_stats);
        let job = move |attempt: usize| {
            if let (0, Some(sleep)) = (attempt, straggle) {
                std::thread::sleep(sleep);
            }
            let result = catch_unwind(AssertUnwindSafe(|| run(attempt))).unwrap_or_else(|p| {
                Err(JobError::WorkerPanic {
                    phase,
                    message: panic_message(p),
                })
            });
            let won = lock(&ticket).take();
            if let Some(ticket) = won {
                if attempt > 0 {
                    sched_stats.speculative_won.fetch_add(1, Ordering::Relaxed);
                }
                ticket.complete(result.map(|mut out| {
                    deliver(&mut out);
                    out
                }));
            }
        };
        self.pool.submit(
            Task {
                job: Arc::new(job),
                replayable,
            },
            self.priority,
            Some(Arc::clone(&self.sched_stats)),
        );
    }

    /// Blocks until every submitted task has reported, then returns the
    /// results in key order or the lowest-key error.
    fn barrier(self) -> Result<Vec<T>, JobError> {
        let mut g = lock(&self.latch.0);
        while g.done < self.submitted {
            g = self.latch.1.wait(g).unwrap_or_else(|e| e.into_inner());
        }
        if let Some((_, e)) = g.first_err.take() {
            return Err(e);
        }
        let mut outs = std::mem::take(&mut g.outs);
        drop(g);
        outs.sort_unstable_by_key(|(key, _)| *key);
        Ok(outs.into_iter().map(|(_, t)| t).collect())
    }
}

/// What one executing stage's wave units and tasks share. Every submitted
/// task holds the `Arc`, so the directory guards in here outlive even a
/// speculative attempt still writing after the stage has moved on.
struct Stage<'f, I, K, V, O> {
    spec: StageSpec<'f, I, K, V, O>,
    shuffle: ShuffleConfig,
    machines: usize,
    /// The cluster's cost model with this stage's per-group overhead.
    cost: CostModel,
    /// Critical-path depth of the stage: its tasks' pool priority.
    priority: u32,
    /// Scheduler observability shared by every task of the stage; folded
    /// into its [`JobStats`] at the end.
    sched_stats: Arc<SchedStats>,
    /// The seeded straggler's sleep, when it names this stage (see
    /// [`StraggleInjection`](crate::pool::StraggleInjection)).
    straggle: Option<Duration>,
    /// One uniquely named directory per job — map-task run files (spilled
    /// and published runs) and merge scratch — removed with its contents
    /// when the job finishes or fails. Tasks create it lazily on the first
    /// written run (`create_dir_all` is racy-safe), so an unspilled
    /// in-process job touches the filesystem not at all.
    job_dir: Option<SpillDirGuard>,
    /// The stage's handle on its run server (`Transport::Remote`).
    remote: Option<Remote>,
    /// Where each reduce task delivers its finished partition *as the task
    /// completes* — the cross-stage overlap — tagged `base | task`: `base`
    /// is this stage's deterministic ordinal base (see [`crate::dag`]).
    out: Feed<O>,
    base: u64,
    /// Under a bounded shuffle a stage keeps its output out of memory
    /// too: each reduce task drains its sink into a sorted-run file
    /// in here (wire format, fingerprint 0, unit key) after every group,
    /// and the next stage's map wave streams it back. The directory must
    /// outlive this job — its guard rides the output feed, held by the
    /// consumer until its own map wave is done.
    out_dir: Option<Arc<SpillDirGuard>>,
}

impl<'f, I, K, V, O> Stage<'f, I, K, V, O> {
    /// Sets a stage up for execution. Under the remote transport the run
    /// server must exist *before* the map wave, because map tasks publish
    /// their run files to it as they finish (overlapping the wave); the
    /// caller owns the server, tasks share the handle.
    fn open(
        cluster: &Cluster,
        spec: StageSpec<'f, I, K, V, O>,
        priority: u32,
        out: Feed<O>,
        base: u64,
        scheduler: &SchedulerConfig,
    ) -> Result<(Self, Option<RunServer>), JobError> {
        let shuffle = cluster.shuffle.clone();
        let mut cost = cluster.cfg.cost;
        cost.reduce_group_overhead_secs = spec.group_overhead_secs;
        let straggle = scheduler
            .straggle
            .as_ref()
            .filter(|s| s.stage == spec.name)
            .map(|s| Duration::from_micros(s.micros));
        // Base directory for this job's own and stage-output
        // subdirectories; each is RAII-guarded so a job that fails mid-wave
        // still removes everything it created.
        let dir_base = shuffle.spill_base();
        let job_dir = (shuffle.spill_threshold.is_some()
            || shuffle.transport != Transport::InProcess)
            .then(|| SpillDirGuard(reserve_job_spill_dir(&dir_base)));
        let (run_server, remote) = match shuffle.transport {
            Transport::Remote => {
                let (server, remote) =
                    Remote::start(shuffle.net_fault).map_err(|e| JobError::Transport {
                        message: format!("starting the run server: {e}"),
                    })?;
                (Some(server), Some(remote))
            }
            Transport::InProcess | Transport::MultiProcess => (None, None),
        };
        let out_dir = shuffle.spill_threshold.map(|_| {
            let guard = Arc::new(SpillDirGuard(reserve_job_dir(&dir_base, "tsj-stage")));
            out.add_guard(Arc::clone(&guard));
            guard
        });
        let stage = Self {
            spec,
            shuffle,
            machines: cluster.cfg.machines,
            cost,
            priority,
            sched_stats: Arc::new(SchedStats::default()),
            straggle,
            job_dir,
            remote,
            out,
            base,
            out_dir,
        };
        Ok((stage, run_server))
    }
}

/// The streaming stage engine: one recorded stage of a
/// [`Dataset`](crate::dataset::Dataset) plan (see the module docs).
/// Consumes `input` until its producers close — submitting one map task per
/// ready partition — then shuffles through the configured transport and
/// runs one reduce task per non-empty partition, delivering each finished
/// partition into `out` (tagged `base | task`) as its task finishes.
pub(crate) fn run_stage_streamed<'f, I, K, V, O>(
    cluster: &Cluster,
    spec: StageSpec<'f, I, K, V, O>,
    priority: u32,
    input: Feed<I>,
    out: Feed<O>,
    base: u64,
    pool: &Pool<'f>,
) -> Result<JobStats, StageFailure>
where
    I: Send + Sync + Spill + 'f,
    K: Hash + Eq + Send + Spill + 'f,
    V: Send + Spill + 'f,
    O: Send + Sync + Spill + 'f,
{
    let (stage, run_server) = Stage::open(cluster, spec, priority, out, base, pool.scheduler())
        .map_err(StageFailure::Job)?;
    let stage = Arc::new(stage);
    let mut stats = JobStats {
        name: stage.spec.name.clone(),
        machines: stage.machines,
        transport: stage.shuffle.transport.name(),
        ..JobStats::default()
    };
    let (map_tasks, wall_start) = map_wave(&stage, &input, pool)?;
    stats.driver_in_records = input.driver_in();
    // Every upstream segment has been streamed; release upstream dirs.
    drop(input.take_guards());
    let partition_segments =
        shuffle_exchange(&stage, map_tasks, &mut stats).map_err(StageFailure::Job)?;
    let reduce_tasks = reduce_wave(&stage, partition_segments, pool).map_err(StageFailure::Job)?;
    // Every winning reduce attempt has read its runs: stop serving. A
    // speculative loser still fetching fails fast against the closed port
    // and is discarded with its result.
    drop(run_server);
    reduce_accounting(&stage, reduce_tasks, &mut stats);
    stats.wall_secs = wall_start.elapsed().as_secs_f64();
    let sched = &stage.sched_stats;
    stats.steals = sched.steals.load(Ordering::Relaxed);
    stats.speculative_launched = sched.speculative_launched.load(Ordering::Relaxed);
    stats.speculative_won = sched.speculative_won.load(Ordering::Relaxed);
    stats.queue_wait_us = sched.queue_wait_us.load(Ordering::Relaxed);
    Ok(stats)
}

/// The streaming map wave: one map task per ready input partition,
/// submitted to the shared pool the moment it arrives — a lifted driver
/// slice's chunks are all ready at once (a single wave); an upstream
/// stage's partitions become ready as its reduce tasks finish, which is
/// exactly the cross-stage overlap. Returns the task outputs in ordinal
/// order and when the first item arrived (the stage's wall-clock start).
fn map_wave<'f, I, K, V, O>(
    stage: &Arc<Stage<'f, I, K, V, O>>,
    input: &Feed<I>,
    pool: &Pool<'f>,
) -> Result<(Vec<MapTaskOut<K, V>>, Instant), StageFailure>
where
    I: Send + Sync + Spill + 'f,
    K: Hash + Eq + Send + Spill + 'f,
    V: Send + Spill + 'f,
    O: Send + Sync + Spill + 'f,
{
    let mut wave = Wave::new(pool, "map", stage.priority, &stage.sched_stats);
    let mut wall_start: Option<Instant> = None;
    loop {
        match input.recv() {
            Recv::Item(ordinal, part) => {
                wall_start.get_or_insert_with(Instant::now);
                let task = wave.submitted;
                let straggle = stage.straggle.filter(|_| task == 0);
                let stage = Arc::clone(stage);
                // Input partitions read-share cleanly (in-memory buffers
                // by reference, positional spill reads), so
                // every map task is replayable: `attempt` only picks
                // distinct run file names and run-server keys.
                wave.submit(
                    ordinal,
                    true,
                    straggle,
                    move |attempt| run_map_task(&stage, task + attempt * ATTEMPT_STRIDE, &part),
                    |_| {},
                );
            }
            // The graph is doomed upstream; in-flight tasks of this stage
            // drain harmlessly on the pool (they only touch Arc-shared
            // state).
            Recv::Closed { failed: true } => return Err(StageFailure::Upstream),
            Recv::Closed { failed: false } => break,
        }
    }
    let tasks = wave.barrier().map_err(StageFailure::Job)?;
    Ok((tasks, wall_start.unwrap_or_else(Instant::now)))
}

/// The shuffle barrier: folds the map wave into `stats` and exchanges its
/// output into per-partition reduce segments. Records were already routed
/// to `hash % partitions` at emit time; how each partition's per-task
/// segments — sorted runs first, then the task's in-memory leftover, in
/// task (= ordinal) order — reach the reduce side is the transport's job
/// (in-process handoff, or published run files read locally or over a
/// socket; see [`crate::transport`]). Cost is charged on the post-combine
/// volume, plus spill I/O on the spilled bytes (written once, read back
/// once), plus transport time on the published bytes.
fn shuffle_exchange<I, K, V, O>(
    stage: &Stage<'_, I, K, V, O>,
    map_tasks: Vec<MapTaskOut<K, V>>,
    stats: &mut JobStats,
) -> Result<Vec<Vec<Segment<K, V>>>, JobError> {
    let (cost, machines) = (&stage.cost, stage.machines);
    let map_loads = proportional_loads(map_tasks.iter().map(|t| t.work), cost);
    stats.map = phase_sim(&map_loads, machines.min(map_tasks.len().max(1)));
    let published = stage.shuffle.transport != Transport::InProcess;
    let mut outputs: Vec<MapOutput<K, V>> = Vec::with_capacity(map_tasks.len());
    for task in map_tasks {
        stats.input_records += task.input;
        stats.map_output_records += task.emitted;
        stats.shuffle_records += task.shuffled;
        stats.peak_buffered_records = stats.peak_buffered_records.max(task.peak_buffered);
        add_counters(&mut stats.counters, task.counters);
        if let Some(spill) = &task.output.spill {
            stats.spilled_records += spill.records;
            stats.spill_bytes += spill.bytes;
            stats.spill_runs += spill.spill_runs;
            // A published run file is all exchange volume.
            if published {
                stats.transport_bytes += spill.runs.iter().flatten().map(|r| r.bytes).sum::<u64>();
            }
        }
        outputs.push(task.output);
    }
    let partition_segments = exchange(outputs, stage.spec.partitions, stage.remote.as_ref())?;
    // Each volume cost is spread across the simulated machines.
    let spread = machines as f64;
    stats.shuffle_secs = cost.shuffle_secs_per_record * stats.shuffle_records as f64 / spread;
    stats.spill_secs = cost.spill_secs_per_byte * 2.0 * stats.spill_bytes as f64 / spread;
    stats.transport_secs = cost.transport_secs_per_byte * stats.transport_bytes as f64 / spread;
    Ok(partition_segments)
}

/// The reduce wave: one task per non-empty partition, each delivering its
/// finished partition into the downstream feed the moment it completes —
/// the moment that makes the next stage's map task ready.
fn reduce_wave<'f, I, K, V, O>(
    stage: &Arc<Stage<'f, I, K, V, O>>,
    partition_segments: Vec<Vec<Segment<K, V>>>,
    pool: &Pool<'f>,
) -> Result<Vec<ReduceTaskOut<O>>, JobError>
where
    I: Send + Sync + Spill + 'f,
    K: Hash + Eq + Send + Spill + 'f,
    V: Send + Spill + 'f,
    O: Send + Sync + Spill + 'f,
{
    let mut wave = Wave::new(pool, "reduce", stage.priority, &stage.sched_stats);
    for (partition, segments) in partition_segments.into_iter().enumerate() {
        if segments.is_empty() {
            continue;
        }
        let task = wave.submitted as u64;
        // A reduce task is replayable only when every segment is a spilled
        // run: runs are re-readable (positioned reads or ranged fetches of
        // files nobody writes any more), so each attempt rebuilds its own
        // segment set, whereas in-memory segments are consumed by grouping
        // and cannot feed two attempts without `K: Clone`/`V: Clone` bounds
        // the engine doesn't have — those are parked for attempt 0 to take
        // and the task is never offered for speculation.
        let runs: Option<Vec<(RunSource, RunMeta)>> = segments
            .iter()
            .map(|seg| match seg {
                Segment::Spilled { source, meta } => Some((source.clone(), *meta)),
                Segment::Mem(_) => None,
            })
            .collect();
        let parked = Mutex::new(runs.is_none().then_some(segments));
        let (runner, winner) = (Arc::clone(stage), Arc::clone(stage));
        wave.submit(
            task,
            runs.is_some(),
            None,
            move |attempt| {
                let segments = match &runs {
                    Some(runs) => runs
                        .iter()
                        .map(|(source, meta)| Segment::Spilled {
                            source: source.clone(),
                            meta: *meta,
                        })
                        .collect(),
                    None => lock(&parked).take().ok_or_else(|| JobError::WorkerPanic {
                        phase: "reduce",
                        message: "a non-replayable reduce task was run twice".to_owned(),
                    })?,
                };
                run_reduce_task(&runner, partition, attempt, segments)
            },
            move |out| {
                if let Some(part) = out.part.take() {
                    winner.out.push(winner.base | task, part);
                }
            },
        );
    }
    wave.barrier()
}

/// Folds the reduce wave into `stats` — deterministic per-partition loads:
/// each partition is charged its declared work at the cost model's rate,
/// plus the per-group worker-instantiation overheads; partitions
/// sharing a simulated machine (partitions > machines) add up on it — and
/// totals the simulated clock.
fn reduce_accounting<I, K, V, O>(
    stage: &Stage<'_, I, K, V, O>,
    reduce_tasks: Vec<ReduceTaskOut<O>>,
    stats: &mut JobStats,
) {
    let (cost, machines) = (&stage.cost, stage.machines);
    let base_loads = proportional_loads(reduce_tasks.iter().map(|t| t.work), cost);
    let mut machine_loads = vec![0.0f64; machines];
    for (t, base) in reduce_tasks.into_iter().zip(base_loads) {
        debug_assert!(t.machine < machines);
        machine_loads[t.machine] += base + t.groups as f64 * cost.reduce_group_overhead_secs;
        stats.reduce_groups += t.groups;
        stats.max_group_size = stats.max_group_size.max(t.max_group);
        stats.merge_passes += t.merge.passes;
        stats.merge_scratch_bytes += t.merge.scratch_bytes;
        stats.fetch_requests += t.merge.fetch.requests;
        stats.fetch_retries += t.merge.fetch.retries;
        stats.fetch_bytes += t.merge.fetch.bytes;
        stats.output_records += t.emitted;
        add_counters(&mut stats.counters, t.counters);
    }
    if stats.reduce_groups > 0 {
        stats.reduce = phase_sim(&machine_loads, machines);
    }
    // Hierarchical-merge scratch runs are local-disk I/O exactly like
    // mapper spill (each scratch byte is written once and read back
    // once), so they are charged at the same rate, into the same line.
    stats.spill_secs +=
        cost.spill_secs_per_byte * 2.0 * stats.merge_scratch_bytes as f64 / machines as f64;
    stats.sim_total_secs = cost.job_startup_secs
        + cost.map_worker_startup_secs
        + stats.map.makespan_secs
        + stats.shuffle_secs
        + stats.spill_secs
        + stats.transport_secs
        + stats.reduce.makespan_secs;
}

/// Adds one task's user counters into the stage's.
fn add_counters(total: &mut HashMap<&'static str, u64>, task: HashMap<&'static str, u64>) {
    for (name, n) in task {
        *total.entry(name).or_insert(0) += n;
    }
}

/// One map task: streams its input partition through `map`, with periodic
/// combine and spill under a bounded shuffle. Runs on a pool worker. Takes
/// the partition by reference so a speculative attempt can re-read it; `task`
/// is already attempt-distinct (see [`ATTEMPT_STRIDE`]) so concurrent
/// attempts never collide on a run file name or run-server key.
fn run_map_task<I, K, V, O>(
    stage: &Stage<'_, I, K, V, O>,
    task: usize,
    part: &DataPartition<I>,
) -> Result<MapTaskOut<K, V>, JobError>
where
    I: Sync + Spill,
    K: Hash + Eq + Send + Spill,
    V: Send + Spill,
{
    let (spec, shuffle, partitions) = (&stage.spec, &stage.shuffle, stage.spec.partitions);
    let mut emitter = match &stage.job_dir {
        Some(guard) => Emitter::with_buffer(PartitionedBuffer::with_spill(
            partitions,
            shuffle.spill_threshold,
            guard.0.clone(),
            task,
        )),
        None => Emitter::with_partitions(partitions),
    };
    // Periodic combine watermark: re-combine only after the buffer
    // has grown by combine_threshold records since the last pass,
    // so a poorly combinable stream cannot trigger quadratic
    // re-combining. (usize::MAX = never, the unbounded default.)
    let combine_threshold = match (spec.combine.is_some(), shuffle.combine_threshold) {
        (true, Some(t)) => t.max(1),
        _ => usize::MAX,
    };
    let mut next_combine = combine_threshold;
    let mut combine_work = 0u64;
    let mut task_input = 0u64;
    // One input record through map + the periodic combine check
    // (macro, not closure: it borrows half the task state).
    macro_rules! feed {
        ($record:expr) => {{
            task_input += 1;
            (spec.map)($record, &mut emitter);
            if emitter.buffer.len() >= next_combine {
                // A finite watermark implies a combiner (see the
                // combine_threshold match above), so the branch is
                // never skipped when combining is due.
                if let Some(combine) = spec.combine.as_ref() {
                    combine_work += emitter.buffer.len() as u64;
                    combine(&mut emitter.buffer);
                    // Combining may not have freed enough (distinct
                    // keys); spill the combined run if still over the
                    // cap.
                    emitter.buffer.maybe_spill();
                }
                next_combine = emitter.buffer.len() + combine_threshold;
            }
        }};
    }
    match part {
        DataPartition::Mem(records) => {
            for record in records {
                feed!(record);
            }
        }
        DataPartition::Spilled { file, meta } => {
            let mut reader = RunReader::new(Arc::clone(file), *meta);
            while let Some((_h, (), record)) = reader.next::<(), I>()? {
                feed!(&record);
            }
        }
    }
    let emitted = emitter.emitted;
    // Final map-side combine over the leftover buffer, declared as one
    // work unit per scanned record so its CPU cost lands in the simulated
    // map phase like a real combiner's would instead of being booked as
    // free.
    let shuffled_in_mem = match &spec.combine {
        Some(c) => {
            combine_work += emitter.buffer.len() as u64;
            c(&mut emitter.buffer) as u64
        }
        None => emitter.buffer.len() as u64,
    };
    // Out-of-process transports publish *inside* the map task: what is
    // still buffered is flushed as the last runs of the task's run file —
    // the writing overlaps the map wave and the buffers are freed here
    // instead of being held until the exchange — and under the remote
    // transport the file is registered with the stage's run server,
    // servable the moment the task finishes. `spill.records` counts only
    // what the memory bound spilled, so the work term ignores the flush.
    let publish = shuffle.transport != Transport::InProcess;
    let spill = emitter
        .buffer
        .finish_spill(publish)
        .map_err(|(publishing, e)| {
            if publishing {
                JobError::Transport {
                    message: format!("publishing map task {task} runs: {e}"),
                }
            } else {
                JobError::Spill {
                    message: format!("writing map task {task} spill file: {e}"),
                }
            }
        })?;
    let spilled = spill.as_ref().map_or(0, |s| s.records);
    let peak_buffered = emitter.buffer.peak_buffered() as u64;
    if let (Some(remote), Some(spill)) = (&stage.remote, &spill) {
        remote.publish(spill);
    }
    let work = task_input + emitted + combine_work + spilled + emitter.work_units;
    Ok(MapTaskOut {
        work,
        input: task_input,
        emitted,
        shuffled: shuffled_in_mem + spilled,
        peak_buffered,
        output: MapOutput {
            parts: emitter.buffer.into_parts(),
            spill,
        },
        counters: emitter.counters.into_map(),
    })
}

/// One reduce task: groups its partition's segments with the streaming
/// k-way sort-merge (the one grouping path, whatever the transport and
/// shuffle bound) and feeds each key's values to `reduce`, in ascending
/// key fingerprint order. Returns the task's counts carrying the finished
/// output partition to deliver downstream. Runs on a pool worker.
/// `attempt > 0` (a speculative copy) suffixes the merge
/// scratch (under the job directory) and stage-output file names so
/// concurrent attempts never collide; a losing attempt's files are swept
/// with the job directories.
fn run_reduce_task<I, K, V, O>(
    stage: &Stage<'_, I, K, V, O>,
    partition: usize,
    attempt: usize,
    segments: Vec<Segment<K, V>>,
) -> Result<ReduceTaskOut<O>, JobError>
where
    K: Hash + Eq + Spill,
    V: Spill,
    O: Spill,
{
    let (spec, shuffle) = (&stage.spec, &stage.shuffle);
    let stage_out_dir = stage.out_dir.as_ref().map(|guard| guard.0.as_path());
    let mut sink = OutputSink::new();
    let mut out_writer: Option<SpillWriter> = None;
    let mut max_group = 0u64;
    let mut n_groups = 0u64;
    let mut work = 0u64;
    // Stream a k-way sort-merge over the partition's segments (sorted
    // runs, spilled or published, local or remote, and in-memory
    // segments sorted on the fly), reducing each key as its run completes.
    // With a merge fan-in cap, runs beyond the cap are first folded
    // hierarchically into scratch runs. Group order: ascending key
    // fingerprint.
    let merge = merge_segments_capped(
        segments,
        shuffle.merge_fan_in,
        stage.job_dir.as_ref().map(|dir| {
            if attempt == 0 {
                dir.0.join(format!("reduce{partition}.merge"))
            } else {
                dir.0.join(format!("reduce{partition}.s{attempt}.merge"))
            }
        }),
        |key, values| {
            let n_values = values.len() as u64;
            max_group = max_group.max(n_values);
            n_groups += 1;
            work += n_values;
            (spec.reduce)(&key, values, &mut sink);
            if let Some(dir) = stage_out_dir {
                drain_stage_output(&mut sink, &mut out_writer, dir, partition, attempt)?;
            }
            Ok(())
        },
    )?;
    work += sink.emitted + sink.work_units;
    let part: Option<DataPartition<O>> = match out_writer {
        // Bounded shuffle: the sink was drained after every group, so the
        // run file *is* the partition.
        Some(writer) => {
            let meta = RunMeta {
                offset: 0,
                bytes: writer.bytes(),
                records: writer.records(),
            };
            let (file, _path) = writer.into_reader().map_err(|e| JobError::Spill {
                message: format!("stage output finalize failed: {e}"),
            })?;
            Some(DataPartition::Spilled { file, meta })
        }
        // Unbounded: hand the buffer over as-is.
        None if !sink.out.is_empty() => Some(DataPartition::Mem(sink.out)),
        None => None,
    };
    Ok(ReduceTaskOut {
        machine: partition % stage.machines,
        work,
        groups: n_groups,
        max_group,
        merge,
        emitted: sink.emitted,
        part,
        counters: sink.counters.into_map(),
    })
}

/// Drains a reduce sink's buffered output records into the task's
/// stage-output run file (created lazily on first output), so a reduce
/// task under a bounded shuffle never holds more than one group's output
/// in memory. Records are framed in the spill
/// wire format with a zero fingerprint and a unit key — the next stage
/// streams them back as plain values. I/O failures surface as a
/// [`SpillError`](crate::spill::SpillError), which the job path converts
/// into [`JobError::Spill`] — a full disk fails the job, not the process.
fn drain_stage_output<O: Spill>(
    sink: &mut OutputSink<O>,
    writer: &mut Option<SpillWriter>,
    dir: &Path,
    partition: usize,
    attempt: usize,
) -> Result<(), crate::spill::SpillError> {
    if sink.out.is_empty() {
        return Ok(());
    }
    let writer = match writer.take() {
        Some(w) => writer.insert(w),
        None => {
            // Speculative copies write attempt-suffixed run files so
            // concurrent attempts of one partition never collide.
            let path = if attempt == 0 {
                dir.join(format!("part{partition}.run"))
            } else {
                dir.join(format!("part{partition}.s{attempt}.run"))
            };
            writer.insert(SpillWriter::create(path)?)
        }
    };
    for record in sink.out.drain(..) {
        writer.write_record(0u64, &(), &record)?;
    }
    Ok(())
}

/// Simulated loads of a wave's tasks: each is charged its declared work
/// units (records in + records out + explicit [`add_work`] units) at
/// [`CostModel::work_unit_secs`], scaled by `cpu_scale`.
///
/// Rationale: tasks and reduce partitions are often microseconds long, and
/// a single OS preemption inflates a measurement by orders of magnitude —
/// it would masquerade as a straggler machine. Charging declared work
/// makes the simulated load distribution a function of the data alone,
/// while genuine skew is preserved because hot tasks/partitions declare
/// proportionally more work.
///
/// [`add_work`]: crate::job::OutputSink::add_work
fn proportional_loads(work: impl Iterator<Item = u64>, cost: &CostModel) -> Vec<f64> {
    work.map(|w| w as f64 * cost.work_unit_secs * cost.cpu_scale)
        .collect()
}

/// Computes makespan/total/skew for a phase from per-unit loads, where each
/// load is already assigned to a distinct simulated machine.
fn phase_sim(loads: &[f64], machines: usize) -> PhaseSim {
    if loads.is_empty() {
        return PhaseSim::default();
    }
    let makespan = loads.iter().copied().fold(0.0, f64::max);
    let total: f64 = loads.iter().sum();
    let mean = total / machines.max(1) as f64;
    let skew = if mean > 0.0 { makespan / mean } else { 1.0 };
    PhaseSim {
        makespan_secs: makespan,
        total_cpu_secs: total,
        skew,
    }
}
