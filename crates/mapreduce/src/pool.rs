//! Worker pools for the runtime's task execution.
//!
//! Two shapes live here:
//!
//! * [`run_indexed`] — the original "N independent tasks, run them on all
//!   cores" helper with work stealing via an atomic cursor, panic capture,
//!   and deterministic result placement by task index. Still the simplest
//!   tool for standalone waves.
//! * `Pool` (crate-internal) — the shared scheduler behind the lazy
//!   [`dataset`](crate::dataset) executor: tasks are submitted dynamically
//!   (a downstream stage's map task becomes ready the moment an upstream
//!   reduce task finishes its partition) and any number of concurrently
//!   executing stages share one fixed set of worker threads, so
//!   cross-stage overlap never oversubscribes the machine.
//!
//! # The shared scheduler
//!
//! Under [`SchedulerMode::Stealing`] (the default) each worker owns a
//! deque; submissions are distributed round-robin and every task carries a
//! priority (the submitting stage's critical-path depth in the lowered
//! plan, so upstream stages outrank downstream ones). A worker pops its
//! *own newest* highest-priority task first (LIFO-local: hot caches, and a
//! stage's freshly readied partitions keep flowing) and, when its deque is
//! empty, steals the *globally oldest* highest-priority task from a peer
//! (FIFO-steal: stragglers' oldest obligations drain first).
//! [`SchedulerMode::Speculative`] is the same policy plus straggler
//! mitigation: an idle worker re-executes the oldest primary attempt that
//! has been running longer than [`SchedulerConfig::speculate_after`].
//! There is one task shape, `Task`: a re-callable `job(attempt)` plus a
//! `replayable` flag saying whether a second attempt may run beside the
//! first. Outside speculative mode — and for tasks not flagged — the pool
//! calls attempt 0 and nothing else. The engine's task wrapper keeps a
//! first-result-wins cell so exactly one attempt reports, and scheduling
//! mode can never change output bytes — only wall-clock time.
//!
//! Submitters are responsible for capturing panics inside their tasks and
//! for their own completion signalling (the pool itself only moves
//! closures to workers). Timing here (`Instant`) drives *scheduling*
//! decisions only — never simulated stats — so the deterministic-sim
//! discipline of the data plane is untouched.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Locks `m`, shrugging off poisoning: the pool's own state is only ever
/// written under `catch_unwind`, so a poisoned lock just means another
/// worker's task panicked — the data is still consistent.
pub(crate) fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// How the shared worker pool schedules tasks (`TSJ_SCHEDULER`, or
/// [`Cluster::with_scheduler`](crate::cluster::Cluster::with_scheduler)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SchedulerMode {
    /// Per-worker deques with LIFO-local pop and FIFO-steal, ordered by
    /// critical-path priority (the default).
    #[default]
    Stealing,
    /// [`SchedulerMode::Stealing`] plus speculative re-execution of
    /// straggling tasks: an idle worker re-runs the oldest primary attempt
    /// older than [`SchedulerConfig::speculate_after`]; the first finished
    /// attempt wins and the loser's output is dropped at the engine's
    /// first-result-wins cell.
    Speculative,
}

impl SchedulerMode {
    /// Stable lowercase name (what `TSJ_SCHEDULER` accepts).
    pub const fn name(&self) -> &'static str {
        match self {
            SchedulerMode::Stealing => "stealing",
            SchedulerMode::Speculative => "speculative",
        }
    }
}

/// A seeded straggler: the named stage's map task 0 sleeps `micros` on its
/// *primary* attempt only (`TSJ_STRAGGLE_STAGE` / `TSJ_STRAGGLE_US`).
///
/// This models an environmentally slow node, which is the only slowness
/// speculation can beat: the engine's tasks are deterministic, so a
/// re-execution of a task that is slow *because of its data* is exactly as
/// slow. The speculative attempt therefore skips the injected sleep —
/// it runs "on a healthy node" — and wins. Used by the scheduler tests and
/// the `figoverlap` straggler series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StraggleInjection {
    /// Stage name whose map task 0 straggles.
    pub stage: String,
    /// Injected sleep, in microseconds.
    pub micros: u64,
}

/// Scheduler configuration of a [`Cluster`](crate::cluster::Cluster):
/// mode, speculation threshold, and an optional seeded straggler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// The scheduling policy.
    pub mode: SchedulerMode,
    /// How long a primary attempt must have been running before an idle
    /// worker launches a speculative copy ([`SchedulerMode::Speculative`]
    /// only).
    pub speculate_after: Duration,
    /// Optional seeded straggler for tests and benchmarks.
    pub straggle: Option<StraggleInjection>,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            mode: SchedulerMode::default(),
            speculate_after: Duration::from_millis(20),
            straggle: None,
        }
    }
}

/// Per-stage scheduler observability, shared between a stage's submitted
/// tasks and its driver (which folds the counters into
/// [`JobStats`](crate::job::JobStats) at the end of the stage).
#[derive(Debug, Default)]
pub(crate) struct SchedStats {
    /// Tasks a worker took from another worker's deque.
    pub(crate) steals: AtomicU64,
    /// Speculative attempts launched for this stage's tasks.
    pub(crate) speculative_launched: AtomicU64,
    /// Speculative attempts that finished before their primary.
    pub(crate) speculative_won: AtomicU64,
    /// Total microseconds tasks spent queued before a worker picked them
    /// up.
    pub(crate) queue_wait_us: AtomicU64,
}

/// A task's re-callable body: `job(attempt)`. `'t` is the execution
/// lifetime: task closures may borrow anything that outlives the executor
/// run (stage closures, the corpus behind them, the cluster).
pub(crate) type TaskFn<'t> = Arc<dyn Fn(usize) + Send + Sync + 't>;

/// A unit of work on the shared pool — the one task shape. The pool always
/// runs `job(0)` (the primary attempt); when `replayable`, an idle worker
/// under [`SchedulerMode::Speculative`] may also run `job(1)` concurrently.
pub(crate) struct Task<'t> {
    pub(crate) job: TaskFn<'t>,
    /// Whether the task is deterministic *and* safely re-runnable beside
    /// its own primary: the closure must keep concurrent attempts from
    /// colliding (attempt-distinct scratch paths) and deliver at most one
    /// result (first-wins cell). A task that consumes its input (a reduce
    /// over in-memory segments) is submitted with `false`.
    pub(crate) replayable: bool,
}

/// One queued task with its scheduling metadata.
struct QueuedTask<'t> {
    task: Task<'t>,
    /// Critical-path depth of the submitting stage: higher = more
    /// upstream = scheduled first.
    priority: u32,
    /// Global submission sequence number (FIFO-steal tiebreak).
    seq: u64,
    queued_at: Instant,
    sched: Option<Arc<SchedStats>>,
}

/// A primary attempt currently executing on some worker — what idle
/// workers scan for speculation candidates.
struct RunningEntry<'t> {
    id: u64,
    job: TaskFn<'t>,
    sched: Option<Arc<SchedStats>>,
    started: Instant,
    /// A speculative copy has been launched; never launch a second.
    speculated: bool,
}

/// Shared scheduler coordination: every queue/running mutation happens
/// under this lock, so `queued` is always the exact total deque length and
/// the submit/exit race has no window.
struct Coord<'t> {
    /// Total tasks across all deques.
    queued: usize,
    shutdown: bool,
    /// Workers currently inside [`Pool::run_worker`].
    live_workers: usize,
    /// Round-robin submission target.
    next_worker: usize,
    next_seq: u64,
    next_run_id: u64,
    /// Primary attempts currently executing ([`SchedulerMode::Speculative`]
    /// only).
    running: Vec<RunningEntry<'t>>,
}

/// What a worker decided to do after inspecting the coordinator state.
/// `Run` carries the dequeued task and whether it was stolen from a peer.
enum Decision<'t> {
    Run(QueuedTask<'t>, bool),
    Speculate(TaskFn<'t>),
    Exit,
}

/// The shared scheduler behind the lazy dataset executor (see the module
/// docs). Workers run [`Pool::run_worker`] on scoped threads; stage
/// drivers feed it with [`Pool::submit`] as partitions become ready and
/// are woken by their own per-wave completion latches.
pub(crate) struct Pool<'t> {
    deques: Vec<Mutex<VecDeque<QueuedTask<'t>>>>,
    coord: Mutex<Coord<'t>>,
    ready: Condvar,
    sched: SchedulerConfig,
}

impl<'t> Pool<'t> {
    pub(crate) fn new(workers: usize, sched: SchedulerConfig) -> Self {
        let workers = workers.max(1);
        Self {
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            coord: Mutex::new(Coord {
                queued: 0,
                shutdown: false,
                live_workers: 0,
                next_worker: 0,
                next_seq: 0,
                next_run_id: 0,
                running: Vec::new(),
            }),
            ready: Condvar::new(),
            sched,
        }
    }

    /// The scheduler configuration this pool runs with.
    pub(crate) fn scheduler(&self) -> &SchedulerConfig {
        &self.sched
    }

    /// Enqueues one task; an idle worker picks it up.
    ///
    /// Wake-and-run guarantee: a task submitted here always executes, even
    /// after [`Pool::shutdown`]. Workers only exit when `shutdown` is set
    /// *and* the queues are empty — both checked under the coordinator
    /// lock — so as long as any worker is live the task will be drained;
    /// when the last worker has already exited, the task runs inline on
    /// the submitting thread instead of silently rotting in the queue
    /// (which would stall the submitting wave forever on its Drop-armed
    /// completion ticket).
    pub(crate) fn submit(&self, task: Task<'t>, priority: u32, sched: Option<Arc<SchedStats>>) {
        let mut coord = lock(&self.coord);
        if coord.shutdown && coord.live_workers == 0 {
            drop(coord);
            // Swallow an escaped panic exactly like a worker would.
            let _ = catch_unwind(AssertUnwindSafe(|| (task.job)(0)));
            return;
        }
        let seq = coord.next_seq;
        coord.next_seq += 1;
        let target = coord.next_worker % self.deques.len();
        coord.next_worker = coord.next_worker.wrapping_add(1);
        coord.queued += 1;
        lock(&self.deques[target]).push_back(QueuedTask {
            task,
            priority,
            seq,
            queued_at: Instant::now(),
            sched,
        });
        drop(coord);
        self.ready.notify_one();
    }

    /// A worker loop: runs queued tasks until [`Pool::shutdown`] *and* the
    /// queues are drained; under [`SchedulerMode::Speculative`] an
    /// otherwise-idle worker launches speculative copies of straggling
    /// primaries. Tasks are expected to capture their own panics; as a
    /// last line of defence a panic that escapes a task is swallowed here
    /// rather than poisoning the whole pool. (The engine's task wrappers
    /// hold a Drop-armed `WaveTicket`, so even an escaped panic records a
    /// failure and the submitting wave still terminates — new task shapes
    /// must keep an equivalent Drop-based latch.)
    pub(crate) fn run_worker(&self, me: usize) {
        let me = me.min(self.deques.len().saturating_sub(1));
        lock(&self.coord).live_workers += 1;
        loop {
            let decision = {
                let mut coord = lock(&self.coord);
                loop {
                    if coord.queued > 0 {
                        if let Some((task, stolen)) = self.dequeue(me) {
                            coord.queued -= 1;
                            break Decision::Run(task, stolen);
                        }
                    }
                    if coord.shutdown && coord.queued == 0 {
                        coord.live_workers -= 1;
                        break Decision::Exit;
                    }
                    if self.sched.mode == SchedulerMode::Speculative {
                        match self.pick_straggler(&mut coord) {
                            Straggler::Ripe(job) => break Decision::Speculate(job),
                            Straggler::Pending(remaining) => {
                                let (g, _) = self
                                    .ready
                                    .wait_timeout(coord, remaining)
                                    .unwrap_or_else(|e| e.into_inner());
                                coord = g;
                                continue;
                            }
                            Straggler::None => {}
                        }
                    }
                    coord = self.ready.wait(coord).unwrap_or_else(|e| e.into_inner());
                }
            };
            match decision {
                Decision::Run(task, stolen) => self.run_task(task, stolen),
                Decision::Speculate(job) => {
                    // Speculative attempts are never registered as running
                    // (no speculation of speculation) and report through
                    // the task's own first-wins cell.
                    let _ = catch_unwind(AssertUnwindSafe(|| job(1)));
                }
                Decision::Exit => return,
            }
        }
    }

    /// Tells workers to exit once the queues are empty.
    pub(crate) fn shutdown(&self) {
        lock(&self.coord).shutdown = true;
        self.ready.notify_all();
    }

    /// Picks the next task for worker `me`. Caller holds the coordinator
    /// lock (every deque mutation happens under it, so a `queued > 0`
    /// observation guarantees the scan finds a task).
    fn dequeue(&self, me: usize) -> Option<(QueuedTask<'t>, bool)> {
        // LIFO-local: the newest of this worker's highest-priority tasks
        // (hot caches; a stage's freshly readied partitions keep flowing).
        {
            let mut own = lock(&self.deques[me]);
            if let Some(max) = own.iter().map(|t| t.priority).max() {
                if let Some(idx) = own.iter().rposition(|t| t.priority == max) {
                    return own.remove(idx).map(|t| (t, false));
                }
            }
        }
        // FIFO-steal: the globally oldest of the highest-priority tasks on
        // any peer deque (stragglers' oldest obligations drain first).
        let mut choice: Option<(usize, usize)> = None;
        let mut best_prio = 0u32;
        let mut best_seq = u64::MAX;
        for (d, deque) in self.deques.iter().enumerate() {
            if d == me {
                continue;
            }
            let q = lock(deque);
            for (i, t) in q.iter().enumerate() {
                if choice.is_none()
                    || t.priority > best_prio
                    || (t.priority == best_prio && t.seq < best_seq)
                {
                    choice = Some((d, i));
                    best_prio = t.priority;
                    best_seq = t.seq;
                }
            }
        }
        let (d, i) = choice?;
        lock(&self.deques[d]).remove(i).map(|t| (t, true))
    }

    /// Scans the running primaries for a speculation candidate: the oldest
    /// unspeculated attempt past the threshold, or how long until the
    /// earliest one ripens. Marks the chosen entry and books the launch.
    fn pick_straggler(&self, coord: &mut Coord<'t>) -> Straggler<'t> {
        let now = Instant::now();
        let mut ripe: Option<usize> = None;
        let mut next_ripen: Option<Duration> = None;
        for (i, e) in coord.running.iter().enumerate() {
            if e.speculated {
                continue;
            }
            let elapsed = now.saturating_duration_since(e.started);
            if elapsed >= self.sched.speculate_after {
                let older = match ripe {
                    Some(j) => e.started < coord.running[j].started,
                    None => true,
                };
                if older {
                    ripe = Some(i);
                }
            } else {
                let rem = self.sched.speculate_after - elapsed;
                next_ripen = Some(next_ripen.map_or(rem, |b: Duration| b.min(rem)));
            }
        }
        if let Some(i) = ripe {
            let e = &mut coord.running[i];
            e.speculated = true;
            if let Some(s) = &e.sched {
                s.speculative_launched.fetch_add(1, Ordering::Relaxed);
            }
            return Straggler::Ripe(Arc::clone(&e.job));
        }
        match next_ripen {
            Some(rem) => Straggler::Pending(rem),
            None => Straggler::None,
        }
    }

    /// Runs one dequeued task, booking its steal/queue-wait observability
    /// first.
    fn run_task(&self, task: QueuedTask<'t>, stolen: bool) {
        if let Some(s) = &task.sched {
            if stolen {
                s.steals.fetch_add(1, Ordering::Relaxed);
            }
            s.queue_wait_us.fetch_add(
                u64::try_from(task.queued_at.elapsed().as_micros()).unwrap_or(u64::MAX),
                Ordering::Relaxed,
            );
        }
        let Task { job, replayable } = task.task;
        // Only a replayable task under speculation is registered as
        // running; everything else is attempt 0 and nothing more.
        let speculable = replayable && self.sched.mode == SchedulerMode::Speculative;
        let id = speculable.then(|| {
            let mut coord = lock(&self.coord);
            let id = coord.next_run_id;
            coord.next_run_id += 1;
            coord.running.push(RunningEntry {
                id,
                job: Arc::clone(&job),
                sched: task.sched.clone(),
                started: Instant::now(),
                speculated: false,
            });
            drop(coord);
            // Idle workers may be parked in a plain wait; wake them so they
            // switch to the speculation timeout.
            self.ready.notify_all();
            id
        });
        let _ = catch_unwind(AssertUnwindSafe(|| job(0)));
        if let Some(id) = id {
            lock(&self.coord).running.retain(|e| e.id != id);
        }
    }
}

/// What an idle worker's straggler scan yielded.
enum Straggler<'t> {
    /// A speculative copy to run now.
    Ripe(TaskFn<'t>),
    /// Nothing ripe yet; the earliest candidate ripens in this long.
    Pending(Duration),
    /// No unspeculated primaries are running.
    None,
}

/// Runs `f(0..n_tasks)` on up to `threads` worker threads and returns the
/// results in task order.
///
/// If any task panics, the panic message of the first observed panic is
/// returned as `Err` after all in-flight tasks finish; remaining queued
/// tasks are abandoned (workers re-check the failure flag *after*
/// claiming an index, so a claim that raced the panic report is abandoned
/// too, not silently executed).
pub fn run_indexed<R, F>(n_tasks: usize, threads: usize, f: F) -> Result<Vec<R>, String>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if n_tasks == 0 {
        return Ok(Vec::new());
    }
    let threads = threads.max(1).min(n_tasks);
    if threads == 1 {
        // Fast path, also keeps single-threaded debugging simple.
        let mut out = Vec::with_capacity(n_tasks);
        for i in 0..n_tasks {
            match catch_unwind(AssertUnwindSafe(|| f(i))) {
                Ok(r) => out.push(r),
                Err(p) => return Err(panic_message(p)),
            }
        }
        return Ok(out);
    }

    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n_tasks).map(|_| Mutex::new(None)).collect();
    let failure: Mutex<Option<String>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                if lock(&failure).is_some() {
                    return; // abandon queued work after a failure
                }
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n_tasks {
                    return;
                }
                // Re-check after the claim: a panic may have been recorded
                // between the check above and the fetch_add, and "remaining
                // queued tasks are abandoned" must hold for the claimed
                // index too (its slot stays empty; the failure return path
                // never reads the slots).
                if lock(&failure).is_some() {
                    return;
                }
                match catch_unwind(AssertUnwindSafe(|| f(i))) {
                    Ok(r) => *lock(&slots[i]) = Some(r),
                    Err(p) => {
                        let mut guard = lock(&failure);
                        if guard.is_none() {
                            *guard = Some(panic_message(p));
                        }
                        return;
                    }
                }
            });
        }
    });

    if let Some(msg) = failure.into_inner().unwrap_or_else(|e| e.into_inner()) {
        return Err(msg);
    }
    let mut out = Vec::with_capacity(n_tasks);
    for s in slots {
        match s.into_inner().unwrap_or_else(|e| e.into_inner()) {
            Some(r) => out.push(r),
            // Every slot is filled unless a worker failed, and failures
            // returned above; surface the impossible gap as an error
            // instead of killing the process.
            None => return Err("a task slot was left unfilled without a failure".to_owned()),
        }
    }
    Ok(out)
}

pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize};
    use std::sync::Barrier;

    /// A non-replayable task whose body ignores the attempt number.
    fn once<'t>(f: impl Fn() + Send + Sync + 't) -> Task<'t> {
        Task {
            job: Arc::new(move |_| f()),
            replayable: false,
        }
    }

    #[test]
    fn preserves_task_order() {
        let out = run_indexed(100, 8, |i| i * i).unwrap();
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn zero_tasks() {
        let out: Vec<u32> = run_indexed(0, 4, |_| unreachable!()).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn single_thread_path() {
        let out = run_indexed(10, 1, |i| i + 1).unwrap();
        assert_eq!(out, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn more_threads_than_tasks() {
        let out = run_indexed(3, 64, |i| i).unwrap();
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn panic_is_captured_as_error() {
        let res: Result<Vec<()>, String> = run_indexed(16, 4, |i| {
            if i == 7 {
                panic!("task 7 exploded");
            }
        });
        assert_eq!(res.unwrap_err(), "task 7 exploded");
    }

    #[test]
    fn panic_with_string_payload() {
        let res: Result<Vec<()>, String> = run_indexed(4, 2, |i| panic!("boom {i}"));
        assert!(res.unwrap_err().starts_with("boom"));
    }

    #[test]
    fn panic_abandons_remaining_tasks() {
        // Task 0 (claimed first) panics immediately; once the failure is
        // recorded, every later claim must be abandoned. Surviving tasks
        // sleep 1 ms each, so draining all 1000 would take ~250 ms on 4
        // workers — recording one panic is orders of magnitude faster,
        // leaving the executed count far below the task count.
        let executed = AtomicU64::new(0);
        let n = 1000;
        let res: Result<Vec<()>, String> = run_indexed(n, 4, |i| {
            if i == 0 {
                panic!("first task fails fast");
            }
            std::thread::sleep(Duration::from_millis(1));
            executed.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(res.unwrap_err(), "first task fails fast");
        assert!(
            (executed.load(Ordering::SeqCst) as usize) < n - 1,
            "a recorded failure must abandon queued tasks"
        );
    }

    fn all_modes() -> [SchedulerConfig; 2] {
        [
            SchedulerConfig {
                mode: SchedulerMode::Stealing,
                ..SchedulerConfig::default()
            },
            SchedulerConfig {
                mode: SchedulerMode::Speculative,
                speculate_after: Duration::from_millis(1),
                ..SchedulerConfig::default()
            },
        ]
    }

    #[test]
    fn shared_pool_runs_dynamically_submitted_tasks() {
        for sched in all_modes() {
            let sum = AtomicU64::new(0);
            let rendezvous = Barrier::new(2);
            let pool = Pool::new(4, sched);
            std::thread::scope(|s| {
                for w in 0..4 {
                    let pool = &pool;
                    s.spawn(move || pool.run_worker(w));
                }
                // Submit in two waves; a barrier task proves workers are
                // live and draining the queue before wave two (no sleep
                // race: the ready queue must accept work at any time).
                for i in 0..50u64 {
                    let sum = &sum;
                    pool.submit(
                        once(move || {
                            sum.fetch_add(i, Ordering::SeqCst);
                        }),
                        0,
                        None,
                    );
                }
                let b = &rendezvous;
                pool.submit(
                    once(move || {
                        b.wait();
                    }),
                    0,
                    None,
                );
                rendezvous.wait();
                for i in 50..100u64 {
                    let sum = &sum;
                    pool.submit(
                        once(move || {
                            sum.fetch_add(i, Ordering::SeqCst);
                        }),
                        0,
                        None,
                    );
                }
                pool.shutdown();
            });
            assert_eq!(sum.load(Ordering::SeqCst), (0..100).sum::<u64>());
        }
    }

    #[test]
    fn shared_pool_survives_a_panicking_task() {
        for sched in all_modes() {
            let ran = AtomicU64::new(0);
            let pool = Pool::new(1, sched);
            std::thread::scope(|s| {
                let pool = &pool;
                s.spawn(move || pool.run_worker(0));
                pool.submit(once(|| panic!("escaped panic")), 0, None);
                let ran = &ran;
                pool.submit(
                    once(move || {
                        ran.fetch_add(1, Ordering::SeqCst);
                    }),
                    0,
                    None,
                );
                pool.shutdown();
            });
            assert_eq!(ran.load(Ordering::SeqCst), 1, "worker survived the panic");
        }
    }

    #[test]
    fn submit_after_all_workers_exited_still_runs_the_task() {
        // The shutdown/submit race regression: before the wake-and-run
        // guarantee, a task submitted after the last worker exited sat in
        // the queue forever, stalling its wave on the Drop-armed ticket.
        for sched in all_modes() {
            let ran = AtomicU64::new(0);
            let pool = Pool::new(2, sched);
            std::thread::scope(|s| {
                let pool = &pool;
                let workers: Vec<_> = (0..2)
                    .map(|w| s.spawn(move || pool.run_worker(w)))
                    .collect();
                pool.shutdown();
                for w in workers {
                    let _ = w.join();
                }
                // Every worker has exited; the submit must run inline.
                let ran = &ran;
                pool.submit(
                    once(move || {
                        ran.fetch_add(1, Ordering::SeqCst);
                    }),
                    0,
                    None,
                );
                assert_eq!(
                    ran.load(Ordering::SeqCst),
                    1,
                    "submit after shutdown ran inline"
                );
            });
        }
    }

    #[test]
    fn submit_after_shutdown_with_live_worker_is_drained() {
        // The other half of the wake-and-run guarantee: while any worker
        // is still live, a post-shutdown submit is drained by it (workers
        // only exit when shutdown AND empty, decided under one lock).
        let ran = AtomicU64::new(0);
        let gate = Barrier::new(2);
        let pool = Pool::new(1, SchedulerConfig::default());
        std::thread::scope(|s| {
            let pool = &pool;
            s.spawn(move || pool.run_worker(0));
            let g = &gate;
            pool.submit(
                once(move || {
                    g.wait();
                }),
                0,
                None,
            );
            gate.wait(); // the worker is provably live
            pool.shutdown();
            let ran = &ran;
            pool.submit(
                once(move || {
                    ran.fetch_add(1, Ordering::SeqCst);
                }),
                0,
                None,
            );
        });
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn higher_priority_tasks_run_first() {
        // One worker, tasks queued before it starts: the depth-3 task must
        // run before depth-0 ones despite being submitted last.
        let order = Mutex::new(Vec::new());
        let pool = Pool::new(1, SchedulerConfig::default());
        for (label, priority) in [("low-a", 0u32), ("low-b", 0), ("high", 3)] {
            let order = &order;
            pool.submit(
                once(move || {
                    lock(order).push(label);
                }),
                priority,
                None,
            );
        }
        pool.shutdown();
        std::thread::scope(|s| {
            let pool = &pool;
            s.spawn(move || pool.run_worker(0));
        });
        assert_eq!(lock(&order)[0], "high");
    }

    #[test]
    fn stealing_drains_a_peer_deque() {
        // Two workers, but only worker 1 runs; everything lands on both
        // deques round-robin and worker 1 must steal worker 0's share.
        let sum = AtomicU64::new(0);
        let stats = Arc::new(SchedStats::default());
        let pool = Pool::new(
            2,
            SchedulerConfig {
                mode: SchedulerMode::Stealing,
                ..SchedulerConfig::default()
            },
        );
        for i in 0..10u64 {
            let sum = &sum;
            pool.submit(
                once(move || {
                    sum.fetch_add(i, Ordering::SeqCst);
                }),
                0,
                Some(Arc::clone(&stats)),
            );
        }
        pool.shutdown();
        std::thread::scope(|s| {
            let pool = &pool;
            s.spawn(move || pool.run_worker(1));
        });
        assert_eq!(sum.load(Ordering::SeqCst), (0..10).sum::<u64>());
        assert!(
            stats.steals.load(Ordering::Relaxed) >= 1,
            "worker 1 must have stolen worker 0's tasks"
        );
    }

    #[test]
    fn idle_worker_speculates_a_straggler_and_first_result_wins() {
        // A replayable primary stalls; the idle second worker launches the
        // speculative copy, which reports first. The loser finds the
        // first-wins cell empty and drops its result.
        let winner: Mutex<Option<usize>> = Mutex::new(None);
        let stats = Arc::new(SchedStats::default());
        let pool = Pool::new(
            2,
            SchedulerConfig {
                mode: SchedulerMode::Speculative,
                speculate_after: Duration::from_millis(1),
                straggle: None,
            },
        );
        std::thread::scope(|s| {
            let pool = &pool;
            for w in 0..2 {
                s.spawn(move || pool.run_worker(w));
            }
            let winner = &winner;
            pool.submit(
                Task {
                    job: Arc::new(move |attempt| {
                        if attempt == 0 {
                            // The straggling primary: slow for environmental
                            // reasons (the case speculation exists for).
                            std::thread::sleep(Duration::from_millis(200));
                        }
                        let mut cell = lock(winner);
                        if cell.is_none() {
                            *cell = Some(attempt);
                        }
                    }),
                    replayable: true,
                },
                0,
                Some(Arc::clone(&stats)),
            );
            // Let the speculation land before shutting down.
            while lock(winner).is_none() {
                std::thread::sleep(Duration::from_millis(1));
            }
            pool.shutdown();
        });
        assert_eq!(
            lock(&winner).take(),
            Some(1),
            "the speculative attempt must win against a 200ms straggler"
        );
        assert!(stats.speculative_launched.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn actually_runs_concurrently() {
        // All tasks must be observed in flight before any completes when
        // threads ≥ tasks — proves tasks are not serialized.
        static STARTED: AtomicUsize = AtomicUsize::new(0);
        let n = 4;
        let out = run_indexed(n, n, |i| {
            STARTED.fetch_add(1, Ordering::SeqCst);
            // Wait (bounded) for all peers to start.
            for _ in 0..10_000 {
                if STARTED.load(Ordering::SeqCst) >= n {
                    return i;
                }
                std::thread::yield_now();
            }
            i
        })
        .unwrap();
        assert_eq!(out, vec![0, 1, 2, 3]);
    }
}
