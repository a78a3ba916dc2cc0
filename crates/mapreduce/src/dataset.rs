//! Dataset handles: lazy job graphs chaining pipeline stages inside the
//! runtime.
//!
//! A single job ([`Cluster::run*`](crate::cluster::Cluster::run), itself a
//! one-stage plan of this layer) hands its output back as one driver-side
//! `Vec` — fine for one job, but a multi-stage pipeline chained through
//! such `Vec`s holds every intermediate candidate set in driver memory no
//! matter how tightly the [`ShuffleConfig`](crate::shuffle::ShuffleConfig)
//! bounds the workers. A [`Dataset`] plan keeps them runtime-resident
//! (the same move Spark-style dataflow engines make over raw MapReduce):
//!
//! * [`Cluster::input`] lifts a driver slice into a handle;
//! * [`Dataset::map_reduce`] / [`Dataset::map_reduce_combined`] (and
//!   [`Dataset::map_reduce_combined_with_group_overhead`]) **record one
//!   stage in a job DAG without executing it**, and [`Dataset::union`]
//!   concatenates two graphs' output partitions;
//! * the terminal, [`Dataset::collect`], consumes the handle and executes
//!   the recorded graph. The executor (the private `dag` module) runs every pending
//!   stage on one shared worker pool with **partition-level cross-stage
//!   overlap**: the moment an upstream reduce task finishes its
//!   partition, the downstream map task for that partition is submitted,
//!   so one stage's reduce wave overlaps the next stage's map wave
//!   instead of idling cores at a stage barrier. `union` is fused into
//!   its producers' waves (pure feed plumbing — no stage of its own).
//!
//! Laziness changes *when* stages run, never what they compute: output is
//! byte-identical to executing each stage at its call site
//! ([`DatasetMode::Eager`], the differential baseline) and to chaining
//! the same jobs through driver `Vec`s — property-tested in
//! `crates/core/tests/dataset_equivalence.rs`.
//!
//! Interior stages move records worker-to-worker: per-reduce-task
//! partitions are in-memory buffers, or (under a bounded shuffle)
//! sorted-run files in the spill wire format ([`crate::spill`]) drained
//! group-by-group and streamed back by the consumer (a [`RunReader`] per
//! run), so neither driver memory nor any single worker ever holds an
//! interior candidate set. [`JobStats::driver_in_records`] /
//! [`JobStats::driver_out_records`] measure the driver boundary: zero for
//! interior stages, the collected output for the terminal one.
//!
//! Stage closures may freely borrow driver state (corpus, filters,
//! bitmaps): the handle's lifetime is the intersection of the cluster
//! borrow and everything the closures capture, and the borrows are only
//! used while a terminal executes.
//!
//! ```
//! use tsj_mapreduce::{Cluster, Count, Emitter, OutputSink};
//!
//! let cluster = Cluster::with_machines(4);
//! let docs = ["a b a", "b c"].map(String::from);
//! // Stage 1 (word count) flows into stage 2 (count histogram) without
//! // the intermediate (word, count) records ever landing driver-side —
//! // and stage 1's reduce overlaps stage 2's map at collect time.
//! let (histogram, report) = cluster
//!     .input(&docs)
//!     .map_reduce_combined(
//!         "wordcount",
//!         |doc: &String, e: &mut Emitter<String, u64>| {
//!             for w in doc.split_whitespace() {
//!                 e.emit(w.to_owned(), 1);
//!             }
//!         },
//!         &Count,
//!         |w: &String, counts: Vec<u64>, out: &mut OutputSink<(String, u64)>| {
//!             out.emit((w.clone(), counts.iter().sum()));
//!         },
//!     )
//!     .unwrap()
//!     .map_reduce_combined(
//!         "histogram",
//!         |&(_, n): &(String, u64), e: &mut Emitter<u64, u64>| e.emit(n, 1),
//!         &Count,
//!         |&n: &u64, ones: Vec<u64>, out: &mut OutputSink<(u64, u64)>| {
//!             out.emit((n, ones.iter().sum()));
//!         },
//!     )
//!     .unwrap()
//!     .collect()
//!     .unwrap();
//! let mut histogram = histogram;
//! histogram.sort_unstable();
//! assert_eq!(histogram, vec![(1, 1), (2, 2)]); // {a: 2, b: 2, c: 1}
//! assert_eq!(report.jobs().len(), 2);
//! assert_eq!(report.jobs()[0].driver_out_records, 0); // interior stage
//! ```
//!
//! [`JobStats::driver_in_records`]: crate::job::JobStats::driver_in_records
//! [`JobStats::driver_out_records`]: crate::job::JobStats::driver_out_records
//! [`RunReader`]: crate::spill::RunReader

use std::fs::File;
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use crate::cluster::{run_stage_streamed, Cluster, CombineFn, StageFailure, StageSpec};
use crate::dag::analyze::{
    analyze_plan, partition_skew, NodeKind, PlanCheck, PlanShape, StageInfo,
};
use crate::dag::{self, Builder, Feed, StatsSlot};
use crate::hash::fingerprint64;
use crate::job::{Emitter, JobError, OutputSink};
use crate::pool::panic_message;
use crate::report::SimReport;
use crate::shuffle::Combiner;
use crate::spill::{RunMeta, RunReader, Spill, SpillDirGuard, SpillError};

/// How [`Dataset`] stages execute (`TSJ_DATASET_MODE`, or
/// [`Cluster::with_dataset_mode`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DatasetMode {
    /// Record stages in a job DAG; execute at a terminal with
    /// partition-level cross-stage overlap (the default).
    #[default]
    Lazy,
    /// Execute every stage at its `map_reduce*` call, one stage at a time
    /// — the pre-DAG behaviour, kept as the differential baseline the
    /// lazy scheduler is property-tested against (and for debugging:
    /// errors surface at the call that caused them).
    Eager,
}

impl DatasetMode {
    /// Stable lowercase name (what `TSJ_DATASET_MODE` accepts).
    pub const fn name(&self) -> &'static str {
        match self {
            DatasetMode::Lazy => "lazy",
            DatasetMode::Eager => "eager",
        }
    }
}

/// One partition of a stage's output, resident in the runtime: the
/// in-memory buffer of one reduce task, or a sorted-run file in the spill
/// wire format (zero fingerprint, unit key) that the task drained its
/// output into under a bounded shuffle.
#[derive(Debug)]
pub enum DataPartition<T> {
    /// A reduce task's in-memory output buffer.
    Mem(Vec<T>),
    /// A reduce task's output run on disk (kept alive by the owning
    /// [`Dataset`]'s directory guard).
    Spilled {
        /// Read-only handle on the stage-output run file.
        file: Arc<File>,
        /// The run's location (the whole file, for stage output).
        meta: RunMeta,
    },
}

impl<T> DataPartition<T> {
    /// Records in this partition.
    pub fn records(&self) -> u64 {
        match self {
            DataPartition::Mem(v) => v.len() as u64,
            DataPartition::Spilled { meta, .. } => meta.records,
        }
    }
}

impl<T: Spill> DataPartition<T> {
    /// Appends every record to `out` (decoding spilled runs one record at
    /// a time; in-memory partitions are moved out).
    fn drain_into(self, out: &mut Vec<T>) -> Result<(), SpillError> {
        match self {
            DataPartition::Mem(records) => out.extend(records),
            DataPartition::Spilled { file, meta } => {
                let mut reader = RunReader::new(file, meta);
                while let Some((_h, (), record)) = reader.next::<(), T>()? {
                    out.push(record);
                }
            }
        }
        Ok(())
    }
}

/// A node producing partitions of `T` — the type-erasure boundary of the
/// plan tree: the stage's input type (and its key/value types) are known
/// only inside the implementation, which owns its child plan and the
/// typed feed connecting them.
trait PlanNode<'a, T>: Send {
    /// Lowers this node (and its whole subtree) into stage drivers,
    /// registering as a producer on `out`, and returns what it lowered
    /// for pre-execution analysis. `depth` counts the stages between
    /// `out` and the collected terminal (see [`StageInfo::depth`]).
    fn build(
        self: Box<Self>,
        cluster: &'a Cluster,
        b: &mut Builder<'a>,
        out: Feed<T>,
        depth: u32,
    ) -> PlanShape;
}

/// Where a dataset's records currently live (or how to compute them).
enum Plan<'a, T> {
    /// Driver memory, not yet through any stage ([`Cluster::input`]). The
    /// first stage chunks it into one map task per simulated machine
    /// (`Cluster::slice_chunking`) and books the records as
    /// `driver_in_records`.
    Input(Vec<T>),
    /// Partitioned output of an already-executed stage, resident in the
    /// runtime ([`DatasetMode::Eager`] forces every stage at its call).
    Materialized {
        parts: Vec<DataPartition<T>>,
        /// Directory guards keeping spilled stage-output runs alive.
        guards: Vec<Arc<SpillDirGuard>>,
    },
    /// A recorded, not-yet-executed stage (and its upstream subtree).
    Stage(Box<dyn PlanNode<'a, T> + 'a>),
    /// Concatenation of two plans' output partitions (left first).
    Union(Box<Plan<'a, T>>, Box<Plan<'a, T>>),
}

/// A handle on (an unexecuted plan for) partitioned records inside the
/// runtime — see the [module docs](self) for the programming model.
pub struct Dataset<'a, T> {
    cluster: &'a Cluster,
    plan: Plan<'a, T>,
    /// Stats of stages already executed behind this handle.
    report: SimReport,
    /// True when the current `Materialized` partitions were produced by
    /// the last job in `report` — `collect` books its driver crossing
    /// there, mirroring the stage-at-a-time semantics. Cleared by `union`
    /// (two producers).
    producer_is_last_job: bool,
}

impl<T> std::fmt::Debug for Dataset<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let resident = match &self.plan {
            Plan::Input(records) => format!("driver({} records)", records.len()),
            Plan::Materialized { parts, .. } => format!("runtime({} partitions)", parts.len()),
            Plan::Stage(_) | Plan::Union(..) => "pending".to_owned(),
        };
        f.debug_struct("Dataset")
            .field("resident", &resident)
            .field("executed_jobs", &self.report.jobs().len())
            .finish()
    }
}

impl Cluster {
    /// Lifts a driver-resident slice into a [`Dataset`] handle, the entry
    /// point of a job graph. The records cross the driver boundary when
    /// the first stage consumes them (booked as that job's
    /// [`driver_in_records`](crate::job::JobStats::driver_in_records)).
    ///
    /// Clones the slice; when the caller has an owned `Vec` to give away,
    /// [`Cluster::input_vec`] avoids the copy.
    pub fn input<T: Clone>(&self, records: &[T]) -> Dataset<'_, T> {
        self.input_vec(records.to_vec())
    }

    /// [`Cluster::input`] taking ownership — no copy of the records.
    pub fn input_vec<T>(&self, records: Vec<T>) -> Dataset<'_, T> {
        Dataset {
            cluster: self,
            plan: Plan::Input(records),
            report: SimReport::new(),
            producer_is_last_job: false,
        }
    }
}

/// The recorded form of one stage: its spec plus its upstream plan.
struct StagePlan<'a, I, K, V, O> {
    child: Plan<'a, I>,
    spec: StageSpec<'a, I, K, V, O>,
}

impl<'a, I, K, V, O> PlanNode<'a, O> for StagePlan<'a, I, K, V, O>
where
    I: Send + Sync + Spill + 'a,
    K: Hash + Eq + Send + Spill + 'a,
    V: Send + Spill + 'a,
    O: Send + Sync + Spill + 'a,
{
    fn build(
        self: Box<Self>,
        cluster: &'a Cluster,
        b: &mut Builder<'a>,
        out: Feed<O>,
        depth: u32,
    ) -> PlanShape {
        let base = b.next_base();
        out.register_producer();
        let info = StageInfo {
            name: self.spec.name.clone(),
            partitions: self.spec.partitions,
            combined: self.spec.combine.is_some(),
            value_is_zst: std::mem::size_of::<V>() == 0,
            depth,
        };
        let input: Feed<I> = Feed::new();
        let producers = build_plan(self.child, cluster, b, input.clone(), depth + 1);
        // Slot allocated after the subtree's: slot order = execution
        // (topological) order, which is what the report shows.
        let slot: Arc<StatsSlot> = b.new_slot();
        let spec = self.spec;
        // The stage's tasks run at the priority the shape records.
        let priority = info.depth;
        b.thunks.push(Box::new(move |pool| {
            let result = catch_unwind(AssertUnwindSafe(|| {
                run_stage_streamed(cluster, spec, priority, input, out.clone(), base, pool)
            }))
            .unwrap_or_else(|p| {
                Err(StageFailure::Job(JobError::WorkerPanic {
                    phase: "stage",
                    message: panic_message(p),
                }))
            });
            let ok = match result {
                Ok(stats) => {
                    slot.set(Ok(stats));
                    true
                }
                Err(StageFailure::Job(e)) => {
                    slot.set(Err(e));
                    false
                }
                // Upstream failed: its slot carries the error; this stage
                // reports nothing and just propagates the failure mark.
                Err(StageFailure::Upstream) => false,
            };
            out.close_producer(ok);
        }));
        PlanShape {
            kind: NodeKind::Stage(info),
            producers,
        }
    }
}

/// The repartitioning stage [`maybe_auto_repartition`] inserts: every
/// record travels as its [`Spill`] wire encoding, keyed by that encoding's
/// `fingerprint64`, and is decoded back on the reduce side — so the stage
/// needs no `T: Clone`, and record placement is a pure function of the
/// data.
fn repartition_spec<'a, T: Spill + 'a>(
    cluster: &Cluster,
    name: &str,
) -> StageSpec<'a, T, u64, Vec<u8>, T> {
    let map = |record: &T, e: &mut Emitter<u64, Vec<u8>>| {
        let mut bytes = Vec::new();
        record.spill(&mut bytes);
        e.emit(fingerprint64(&bytes), bytes);
    };
    let reduce = |_h: &u64, blobs: Vec<Vec<u8>>, out: &mut OutputSink<T>| {
        for blob in blobs {
            // tsjlint:allow(no-panic-in-data-plane) decoding bytes this stage's own map encoded
            out.emit(T::restore(&mut blob.as_slice()).expect("repartition wire round-trip"));
        }
    };
    StageSpec::new(cluster, name, Box::new(map), None, Box::new(reduce))
}

/// The automatic skew response ([`Cluster::with_auto_repartition`]): when
/// the child feeding a freshly recorded
/// stage is a *materialized* boundary whose partition sizes cross the
/// configured `max/mean` ratio, insert the repartition stage
/// behind the scenes so the fat partition is spread before the consumer's
/// map wave. Only materialized boundaries qualify — a still-lazy upstream
/// stage's partition sizes are unknown at plan time — so the response
/// engages under [`DatasetMode::Eager`], where every boundary is
/// materialized.
fn maybe_auto_repartition<'a, T: Send + Sync + Spill + 'a>(
    cluster: &'a Cluster,
    plan: Plan<'a, T>,
) -> Plan<'a, T> {
    let Some(ratio) = cluster.auto_repartition() else {
        return plan;
    };
    let skew = match &plan {
        Plan::Materialized { parts, .. } => {
            let mut sizes: Vec<u64> = parts.iter().map(DataPartition::records).collect();
            // Empty partitions never materialize (their reduce tasks are
            // skipped outright), so a stage that hashed everything into
            // one partition surfaces here as a single part. Pad to the
            // cluster's parallelism: output concentrated in fewer
            // partitions than the cluster would use *is* the imbalance
            // being measured.
            if sizes.len() < cluster.partitions() {
                sizes.resize(cluster.partitions(), 0);
            }
            partition_skew(&sizes)
        }
        _ => return plan,
    };
    if skew <= ratio {
        return plan;
    }
    let name = format!("repartition({}).auto", cluster.partitions());
    let spec = repartition_spec(cluster, &name);
    Plan::Stage(Box::new(StagePlan { child: plan, spec }))
}

/// Lowers a plan tree into the builder, delivering its output into `out`,
/// and returns the producers it registered there (several for a union) as
/// the lowered tree. `depth` is theirs: 0 when `out` is the collected
/// terminal, the consuming stage's plus one otherwise.
fn build_plan<'a, T: Send + Sync + Spill + 'a>(
    plan: Plan<'a, T>,
    cluster: &'a Cluster,
    b: &mut Builder<'a>,
    out: Feed<T>,
    depth: u32,
) -> Vec<PlanShape> {
    let leaf = |kind| {
        vec![PlanShape {
            kind,
            producers: Vec::new(),
        }]
    };
    match plan {
        Plan::Input(records) => {
            let base = b.next_base();
            out.register_producer();
            out.add_driver_in(records.len() as u64);
            let (tasks, chunk) = cluster.slice_chunking(records.len());
            let shape = leaf(NodeKind::Input {
                records: records.len() as u64,
                tasks,
            });
            // Each record moves once: peeling chunks off the front with
            // `split_off` would re-copy the whole remaining tail per chunk.
            let mut records = records.into_iter();
            for idx in 0..tasks as u64 {
                let head: Vec<T> = records.by_ref().take(chunk).collect();
                if !head.is_empty() {
                    out.push(base | idx, DataPartition::Mem(head));
                }
            }
            out.close_producer(true);
            shape
        }
        Plan::Materialized { parts, guards } => {
            let base = b.next_base();
            out.register_producer();
            let shape = leaf(NodeKind::Materialized {
                partitions: parts.iter().filter(|p| p.records() > 0).count(),
                records: parts.iter().map(DataPartition::records).sum(),
            });
            for guard in guards {
                out.add_guard(guard);
            }
            for (idx, part) in parts.into_iter().enumerate() {
                if part.records() > 0 {
                    out.push(base | idx as u64, part);
                }
            }
            out.close_producer(true);
            shape
        }
        Plan::Stage(node) => vec![node.build(cluster, b, out, depth)],
        Plan::Union(left, right) => {
            // Left registers (and gets its ordinal base) first, so the
            // consumer's ordinal sort reproduces left-then-right — the
            // same concatenation order stage-at-a-time union used. Both
            // sides share the consumer and its depth: a union is feed
            // plumbing, not a plan node of its own.
            let mut shapes = build_plan(*left, cluster, b, out.clone(), depth);
            shapes.extend(build_plan(*right, cluster, b, out, depth));
            shapes
        }
    }
}

/// What executing a plan yields: its output partitions (ordinal-sorted),
/// the guards keeping spilled ones alive, and the executed stages' report
/// in topological order.
type Executed<T> = (Vec<DataPartition<T>>, Vec<Arc<SpillDirGuard>>, SimReport);

/// Builds and runs a plan's pending stages on a shared pool (one worker
/// per configured thread), with cross-stage overlap.
fn execute_plan<'a, T: Send + Sync + Spill + 'a>(
    cluster: &'a Cluster,
    plan: Plan<'a, T>,
) -> Result<Executed<T>, JobError> {
    let mut b = Builder::new();
    let out: Feed<T> = Feed::new();
    let shape = build_plan(plan, cluster, &mut b, out.clone(), 0);
    // Analyze the lowered tree before anything runs: in deny mode a
    // diagnosed plan fails here (no driver threads have started, so
    // dropping the unrun thunks is safe); in warn mode the diagnostics
    // ride the terminal's report.
    let diagnostics = analyze_plan(&shape, cluster.shuffle_config());
    if cluster.plan_check() == PlanCheck::Deny && !diagnostics.is_empty() {
        let rendered: Vec<String> = diagnostics.iter().map(|d| d.to_string()).collect();
        return Err(JobError::Plan {
            message: rendered.join("; "),
        });
    }
    let slots = b.slots.clone();
    dag::execute(cluster.threads(), cluster.scheduler().clone(), b.thunks);
    let mut report = dag::gather(&slots)?;
    report.add_plan_diagnostics(diagnostics);
    let (parts, guards) = out.drain_terminal();
    Ok((parts, guards, report))
}

impl<'a, T: Send + Sync + Spill + 'a> Dataset<'a, T> {
    /// Records one MapReduce stage over this dataset; the stage executes
    /// at the next terminal, and its output stays partitioned in the
    /// runtime (see the [module docs](self)).
    ///
    /// Under [`DatasetMode::Lazy`] (the default) this cannot fail — the
    /// `Result` carries execution errors only in eager mode, where the
    /// stage runs immediately. Terminal calls surface lazy-mode errors.
    pub fn map_reduce<K, V, O, M, R>(
        self,
        name: &str,
        map: M,
        reduce: R,
    ) -> Result<Dataset<'a, O>, JobError>
    where
        K: Hash + Eq + Send + Spill + 'a,
        V: Send + Spill + 'a,
        O: Send + Sync + Spill + 'a,
        M: Fn(&T, &mut Emitter<K, V>) + Send + Sync + 'a,
        R: Fn(&K, Vec<V>, &mut OutputSink<O>) + Send + Sync + 'a,
    {
        let spec = StageSpec::new(self.cluster, name, Box::new(map), None, Box::new(reduce));
        self.record(spec)
    }

    /// [`Dataset::map_reduce`] with a map-side [`Combiner`] (same contract
    /// as [`Cluster::run_combined`](crate::cluster::Cluster::run_combined);
    /// the combiner is cloned into the recorded stage).
    pub fn map_reduce_combined<K, V, O, M, C, R>(
        self,
        name: &str,
        map: M,
        combiner: &C,
        reduce: R,
    ) -> Result<Dataset<'a, O>, JobError>
    where
        K: Hash + Eq + Clone + Send + Spill + 'a,
        V: Send + Spill + 'a,
        O: Send + Sync + Spill + 'a,
        M: Fn(&T, &mut Emitter<K, V>) + Send + Sync + 'a,
        C: Combiner<K, V> + Clone + Send + 'a,
        R: Fn(&K, Vec<V>, &mut OutputSink<O>) + Send + Sync + 'a,
    {
        let overhead = self.cluster.config().cost.reduce_group_overhead_secs;
        self.map_reduce_combined_with_group_overhead(name, overhead, map, combiner, reduce)
    }

    /// [`Dataset::map_reduce_combined`] with an explicit per-reduce-group
    /// worker overhead — for verification stages, whose reduce groups are
    /// the workers the paper's dedup-strategy analysis counts (Sec.
    /// III-G3 / Fig. 1).
    pub fn map_reduce_combined_with_group_overhead<K, V, O, M, C, R>(
        self,
        name: &str,
        group_overhead_secs: f64,
        map: M,
        combiner: &C,
        reduce: R,
    ) -> Result<Dataset<'a, O>, JobError>
    where
        K: Hash + Eq + Clone + Send + Spill + 'a,
        V: Send + Spill + 'a,
        O: Send + Sync + Spill + 'a,
        M: Fn(&T, &mut Emitter<K, V>) + Send + Sync + 'a,
        C: Combiner<K, V> + Clone + Send + 'a,
        R: Fn(&K, Vec<V>, &mut OutputSink<O>) + Send + Sync + 'a,
    {
        let combiner = combiner.clone();
        let combine: CombineFn<'a, K, V> = Box::new(move |buffer| buffer.combine(&combiner));
        let spec = StageSpec::new(
            self.cluster,
            name,
            Box::new(map),
            Some(combine),
            Box::new(reduce),
        );
        self.record(StageSpec {
            group_overhead_secs,
            ..spec
        })
    }

    /// The one stage recorder, behind every `map_reduce*` variant and
    /// [`Cluster::run*`](Cluster::run): wraps this plan in a [`StagePlan`]
    /// node (and, in eager mode, executes it immediately).
    pub(crate) fn record<K, V, O>(
        self,
        spec: StageSpec<'a, T, K, V, O>,
    ) -> Result<Dataset<'a, O>, JobError>
    where
        K: Hash + Eq + Send + Spill + 'a,
        V: Send + Spill + 'a,
        O: Send + Sync + Spill + 'a,
    {
        let Dataset {
            cluster,
            plan,
            report,
            ..
        } = self;
        let plan = maybe_auto_repartition(cluster, plan);
        let next = Dataset {
            cluster,
            plan: Plan::Stage(Box::new(StagePlan { child: plan, spec })),
            report,
            producer_is_last_job: false,
        };
        match cluster.dataset_mode() {
            DatasetMode::Eager => next.force(),
            DatasetMode::Lazy => Ok(next),
        }
    }

    /// Concatenates two datasets' output partitions (candidate streams
    /// merging into one downstream stage) — pure graph plumbing, fused
    /// into the producers' waves at execution time. Already-executed
    /// reports are concatenated too, `self`'s jobs first. Both handles
    /// must come from the same [`Cluster`].
    ///
    /// Driver-boundary accounting stays exact for every shape: a fresh
    /// input folded in by the union books its records as
    /// `driver_in_records` on the next stage. A union has no single
    /// producing job, though, so *collecting* it directly books the
    /// outbound crossing on no job; route unions into a stage (the normal
    /// case) for exact outbound accounting.
    pub fn union(self, other: Dataset<'a, T>) -> Dataset<'a, T> {
        assert!(
            std::ptr::eq(self.cluster, other.cluster),
            "union requires datasets of the same cluster"
        );
        let mut report = self.report;
        report.extend(other.report);
        Dataset {
            cluster: self.cluster,
            plan: Plan::Union(Box::new(self.plan), Box::new(other.plan)),
            report,
            producer_is_last_job: false,
        }
    }

    /// Executes every pending stage behind this handle (`collect` calls
    /// this, and so does [`DatasetMode::Eager`] after every recorded stage)
    /// and flattens unions, leaving the handle materialized. A failure
    /// consumes the handle: its error is the caller's result.
    fn force(mut self) -> Result<Self, JobError> {
        let terminal_is_stage = match &self.plan {
            Plan::Input(_) | Plan::Materialized { .. } => return Ok(self),
            Plan::Stage(_) => true,
            Plan::Union(..) => false,
        };
        // Unions go through the same build path even when no stage is
        // pending: the feed preload flattens Materialized/Input sides in
        // left-then-right ordinal order with zero thunks to run.
        let (parts, guards, run_report) = execute_plan(self.cluster, self.plan)?;
        self.plan = Plan::Materialized { parts, guards };
        self.report.extend(run_report);
        self.producer_is_last_job = terminal_is_stage;
        Ok(self)
    }

    /// Brings every record back into driver memory (concatenated in
    /// partition order) together with the accumulated report — the job
    /// graph's terminal: all pending stages execute here, with
    /// cross-stage overlap. The crossing is booked onto the producing
    /// job's
    /// [`driver_out_records`](crate::job::JobStats::driver_out_records).
    pub fn collect(self) -> Result<(Vec<T>, SimReport), JobError> {
        let Dataset {
            plan,
            mut report,
            producer_is_last_job,
            ..
        } = self.force()?;
        let (parts, guards) = match plan {
            // Never ran anything: hand the records straight back, no
            // crossing to book (they never left the driver).
            Plan::Input(records) => return Ok((records, report)),
            Plan::Materialized { parts, guards } => (parts, guards),
            // tsjlint:allow(no-panic-in-data-plane) force() above leaves only Input/Materialized
            Plan::Stage(_) | Plan::Union(..) => unreachable!("forced above"),
        };
        let mut out = Vec::new();
        for part in parts {
            part.drain_into(&mut out)?;
        }
        drop(guards);
        if producer_is_last_job {
            if let Some(last) = report.jobs_mut().last_mut() {
                last.driver_out_records += out.len() as u64;
            }
        }
        Ok((out, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn passthrough<'a>(data: Dataset<'a, u32>, name: &str) -> Dataset<'a, u32> {
        data.map_reduce(
            name,
            |&x: &u32, e: &mut Emitter<u32, u32>| e.emit(x, x),
            |&k: &u32, _vs: Vec<u32>, out: &mut OutputSink<u32>| out.emit(k),
        )
        .unwrap()
    }

    /// Lowers `data`'s plan and lists its stages' depths in report order
    /// (each stage after its producers, a union's left side first).
    fn lowered_depths(data: Dataset<'_, u32>) -> Vec<u32> {
        fn walk(nodes: &[PlanShape], depths: &mut Vec<u32>) {
            for node in nodes {
                walk(&node.producers, depths);
                if let NodeKind::Stage(s) = &node.kind {
                    depths.push(s.depth);
                }
            }
        }
        let shape = build_plan(data.plan, data.cluster, &mut Builder::new(), Feed::new(), 0);
        let mut depths = Vec::new();
        walk(&shape, &mut depths);
        depths
    }

    #[test]
    fn stage_priority_is_its_depth_below_the_terminal() {
        let cluster = Cluster::with_machines(4).with_dataset_mode(DatasetMode::Lazy);
        // A three-stage chain: upstream stages outrank their consumers.
        let chain = passthrough(
            passthrough(passthrough(cluster.input_vec(vec![1, 2, 3]), "a"), "b"),
            "c",
        );
        assert_eq!(lowered_depths(chain), [2, 1, 0]);
        // The TSJ shape: two one-stage producers unioned into a stage. A
        // union adds no depth, so both sides sit one stage up.
        let left = passthrough(cluster.input_vec(vec![1, 2]), "left");
        let right = passthrough(cluster.input_vec(vec![3]), "right");
        assert_eq!(
            lowered_depths(passthrough(left.union(right), "join")),
            [1, 1, 0]
        );
    }
}
