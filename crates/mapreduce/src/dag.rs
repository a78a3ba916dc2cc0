//! The lazy job-graph executor: typed feeds between stages, a builder
//! that lowers a [`Dataset`](crate::dataset::Dataset) plan tree into stage
//! drivers, and the scheduler that runs them with **partition-level
//! cross-stage overlap** on one shared worker pool. This is the only way
//! a stage reaches the engine: [`execute`] has one caller, the dataset
//! layer's terminal, and a single [`Cluster::run`](crate::cluster::Cluster::run)
//! job is a plan of one stage.
//!
//! # Execution model
//!
//! A built graph is a set of *stage drivers* (one lightweight thread per
//! pending stage — blocked on channels most of their life) plus a shared
//! [`Pool`] of exactly `threads` compute workers. Stages are connected by
//! [`Feed`]s: a stage's reduce tasks deliver each finished output
//! partition into the downstream feed *the moment the task completes*, and
//! the downstream driver submits the map task for that partition
//! immediately — so an upstream reduce wave overlaps the downstream map
//! wave on the same workers, with no oversubscription (compute only ever
//! runs on the pool). `union` is pure feed plumbing: both producers
//! deliver into one consumer feed, so merging candidate streams is fused
//! into the producers' waves and costs no stage of its own.
//!
//! # Determinism
//!
//! Overlap changes *when* work runs, never what it computes: every feed
//! item carries a deterministic ordinal (producer build order × task
//! index), consumers re-order their map-task outputs by ordinal at the
//! shuffle barrier, and everything downstream of that barrier is the
//! engine's existing deterministic machinery. Output is therefore
//! byte-identical across thread counts and scheduler modes; it holds the
//! same records as the same stages chained through driver `Vec`s, and —
//! for the TSJ graph — the brute-force join's pairs (tested in
//! `crates/mapreduce/tests/dataset.rs` and
//! `crates/core/tests/dataset_equivalence.rs`).
//!
//! # Failure
//!
//! A failing stage records its [`JobError`] in its stats slot and marks
//! its output feed failed; downstream drivers abort without recording
//! anything, and [`gather`] surfaces the first failed stage's error in
//! build order. Nothing panics across threads, and every spill/exchange/
//! stage-output directory guard rides the feeds, so a failing graph leaves
//! no temp files behind.

pub mod analyze;

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

use crate::dataset::DataPartition;
use crate::job::{JobError, JobStats};
use crate::pool::{self, lock, Pool, SchedulerConfig};
use crate::report::SimReport;
use crate::spill::SpillDirGuard;

/// What a consumer's `recv` yielded.
pub(crate) enum Recv<I> {
    /// One ready map input — a runtime-resident partition — tagged with
    /// its deterministic ordinal.
    Item(u64, DataPartition<I>),
    /// All producers closed; `failed` is true when any of them failed (the
    /// consumer must abort without reporting — the failed producer's slot
    /// carries the error).
    Closed { failed: bool },
}

struct FeedState<I> {
    items: VecDeque<(u64, DataPartition<I>)>,
    open_producers: usize,
    failed: bool,
    /// Driver-resident records entering the runtime through this feed
    /// (booked as the consuming stage's `driver_in_records`).
    driver_in: u64,
    /// Directory guards backing spilled items; the consumer holds them
    /// until its map wave has streamed every run back.
    guards: Vec<Arc<SpillDirGuard>>,
}

/// The typed channel between producer waves and the consumer stage (or
/// the terminal collector). Every item is a [`DataPartition`]: an upstream
/// reduce task's output, or a chunk of a driver input the dataset layer
/// lifted into the runtime. Cheap to clone;
/// one consumer, any number of registered producers.
pub(crate) struct Feed<I> {
    inner: Arc<(Mutex<FeedState<I>>, Condvar)>,
}

impl<I> Clone for Feed<I> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<I> Feed<I> {
    pub(crate) fn new() -> Self {
        Self {
            inner: Arc::new((
                Mutex::new(FeedState {
                    items: VecDeque::new(),
                    open_producers: 0,
                    failed: false,
                    driver_in: 0,
                    guards: Vec::new(),
                }),
                Condvar::new(),
            )),
        }
    }

    /// Registers one producer (called at build time, before execution).
    pub(crate) fn register_producer(&self) {
        lock(&self.inner.0).open_producers += 1;
    }

    /// Delivers one ready map input.
    pub(crate) fn push(&self, ordinal: u64, part: DataPartition<I>) {
        lock(&self.inner.0).items.push_back((ordinal, part));
        self.inner.1.notify_all();
    }

    /// Books driver-resident records crossing into the runtime here.
    pub(crate) fn add_driver_in(&self, records: u64) {
        lock(&self.inner.0).driver_in += records;
    }

    /// Attaches a directory guard backing this feed's spilled items.
    pub(crate) fn add_guard(&self, guard: Arc<SpillDirGuard>) {
        lock(&self.inner.0).guards.push(guard);
    }

    /// One producer finished (`ok = false` marks the feed failed).
    pub(crate) fn close_producer(&self, ok: bool) {
        let mut st = lock(&self.inner.0);
        st.open_producers = st.open_producers.saturating_sub(1);
        if !ok {
            st.failed = true;
        }
        drop(st);
        self.inner.1.notify_all();
    }

    /// Blocks until an item is available, all producers closed, or a
    /// producer failed (failure short-circuits pending items: the graph is
    /// doomed, so the consumer aborts at once).
    pub(crate) fn recv(&self) -> Recv<I> {
        let mut st = lock(&self.inner.0);
        loop {
            if st.failed {
                return Recv::Closed { failed: true };
            }
            if let Some((ordinal, part)) = st.items.pop_front() {
                return Recv::Item(ordinal, part);
            }
            if st.open_producers == 0 {
                return Recv::Closed { failed: false };
            }
            st = self.inner.1.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Takes the guards accumulated so far (consumer, at its map barrier).
    pub(crate) fn take_guards(&self) -> Vec<Arc<SpillDirGuard>> {
        std::mem::take(&mut lock(&self.inner.0).guards)
    }

    /// Driver-boundary records accumulated so far (consumer, at its map
    /// barrier — every producer has closed by then).
    pub(crate) fn driver_in(&self) -> u64 {
        lock(&self.inner.0).driver_in
    }

    /// Drains a *terminal* feed after execution: all delivered partitions
    /// in ordinal order and the guards keeping spilled ones alive.
    /// Driver-in records booked here are dropped: the collect that drains
    /// the feed hands them straight back.
    pub(crate) fn drain_terminal(&self) -> (Vec<DataPartition<I>>, Vec<Arc<SpillDirGuard>>) {
        let mut st = lock(&self.inner.0);
        let mut items = Vec::from(std::mem::take(&mut st.items));
        items.sort_unstable_by_key(|(ordinal, _)| *ordinal);
        let parts = items.into_iter().map(|(_, part)| part).collect();
        (parts, std::mem::take(&mut st.guards))
    }
}

/// A stage's result slot: its [`JobStats`] on success, its [`JobError`]
/// on failure, `None` when the stage never ran (upstream failure).
pub(crate) struct StatsSlot {
    result: Mutex<Option<Result<JobStats, JobError>>>,
}

impl StatsSlot {
    fn new() -> Self {
        Self {
            result: Mutex::new(None),
        }
    }

    pub(crate) fn set(&self, result: Result<JobStats, JobError>) {
        *lock(&self.result) = Some(result);
    }

    fn take(&self) -> Option<Result<JobStats, JobError>> {
        lock(&self.result).take()
    }
}

/// One stage driver: orchestrates a stage's waves on the shared pool.
/// Runs on its own (mostly blocked) thread inside [`execute`].
pub(crate) type DriverThunk<'a> = Box<dyn FnOnce(&Pool<'a>) + Send + 'a>;

/// Lowers a plan tree into drivers + slots, assigning each producer its
/// deterministic ordinal base in build order.
pub(crate) struct Builder<'a> {
    pub(crate) thunks: Vec<DriverThunk<'a>>,
    pub(crate) slots: Vec<Arc<StatsSlot>>,
    next_base: u64,
}

impl<'a> Builder<'a> {
    pub(crate) fn new() -> Self {
        Self {
            thunks: Vec::new(),
            slots: Vec::new(),
            next_base: 0,
        }
    }

    /// The next producer's ordinal base: items are tagged
    /// `base << 32 | task_index`, so sorting by ordinal reproduces
    /// "producers in build order, tasks in index order" whatever order the
    /// partitions arrived in.
    pub(crate) fn next_base(&mut self) -> u64 {
        let base = self.next_base;
        self.next_base += 1;
        base << 32
    }

    /// Allocates the stats slot of the stage being built (slot order =
    /// build order = report order).
    pub(crate) fn new_slot(&mut self) -> Arc<StatsSlot> {
        let slot = Arc::new(StatsSlot::new());
        self.slots.push(Arc::clone(&slot));
        slot
    }
}

/// Runs a built graph: `threads` shared pool workers (scheduling per
/// `sched`) plus one driver thread per stage, all scoped. Returns when
/// every driver has finished and the pool has drained.
pub(crate) fn execute(threads: usize, sched: SchedulerConfig, thunks: Vec<DriverThunk<'_>>) {
    pool::scoped(threads, sched, |pool| {
        std::thread::scope(|scope| {
            let drivers: Vec<_> = thunks
                .into_iter()
                .map(|thunk| scope.spawn(|| thunk(pool)))
                .collect();
            for driver in drivers {
                // Driver bodies capture their own panics; a join error here
                // would mean the thunk wrapper itself panicked, which the
                // wrappers are written not to do. Either way the feeds'
                // Drop/close discipline keeps the remaining drivers exiting
                // — but a wrapper panic is a bug worth hearing about.
                if driver.join().is_err() {
                    eprintln!("tsj-mapreduce: a stage driver panicked outside its capture wrapper");
                }
            }
        });
    });
}

/// Collects every slot into a [`SimReport`] in build order, or the first
/// failed stage's error.
pub(crate) fn gather(slots: &[Arc<StatsSlot>]) -> Result<SimReport, JobError> {
    let mut report = SimReport::new();
    let mut first_err: Option<JobError> = None;
    let mut missing = false;
    for slot in slots {
        match slot.take() {
            Some(Ok(stats)) => report.push(stats),
            Some(Err(e)) => {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
            None => missing = true,
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    if missing {
        // A stage was skipped without any stage reporting an error —
        // cannot happen unless a driver died outside its own capture.
        return Err(JobError::WorkerPanic {
            phase: "stage",
            message: "a stage driver exited without reporting".to_owned(),
        });
    }
    Ok(report)
}
