//! The runtime's one worker pool.
//!
//! `Pool` (crate-internal) is the shared scheduler behind the lazy
//! [`dataset`](crate::dataset) executor: tasks are submitted dynamically
//! (a downstream stage's map task becomes ready the moment an upstream
//! reduce task finishes its partition) and any number of concurrently
//! executing stages share one fixed set of worker threads, so
//! cross-stage overlap never oversubscribes the machine. [`run_indexed`]
//! — "run `n` independent tasks on all cores, results in task order" — is
//! a thin wrapper that submits its tasks to the same pool.
//!
//! # Scheduling
//!
//! There is one ready queue. Every task carries a priority (the
//! submitting stage's critical-path depth in the lowered plan, so
//! upstream stages outrank the downstream work their output unblocks); an
//! idle worker takes the highest-priority task, the oldest submission
//! first among equals. Stage drivers, not workers, submit every task, so
//! there is no per-worker locality for per-worker queues to preserve.
//! [`SchedulerMode::Speculative`] adds straggler mitigation: an idle
//! worker re-executes the oldest primary attempt that has been running
//! longer than [`SchedulerConfig::speculate_after`].
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

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Locks `m`, shrugging off poisoning: the pool's own state is only ever
/// written under `catch_unwind`, so a poisoned lock just means another
/// worker's task panicked — the data is still consistent.
pub(crate) fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f`, surviving a panic that escapes it. Submitters capture their
/// tasks' panics and signal their own completion, so all a pool thread
/// owes an escaped panic is to outlive it.
fn contain(f: impl FnOnce()) {
    #[expect(
        clippy::let_underscore_must_use,
        reason = "dropping an escaped panic's payload is the containment"
    )]
    let _ = catch_unwind(AssertUnwindSafe(f));
}

/// How the shared worker pool schedules tasks (`TSJ_SCHEDULER`, or
/// [`Cluster::with_scheduler`](crate::cluster::Cluster::with_scheduler)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SchedulerMode {
    /// The non-speculative policy (the default): one ready queue, highest
    /// critical-path priority first, oldest submission first among equals.
    /// The name predates the single queue; `TSJ_SCHEDULER=stealing` spells
    /// it.
    #[default]
    Stealing,
    /// [`SchedulerMode::Stealing`]'s queue plus speculative re-execution of
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
    queued_at: Instant,
    sched: Option<Arc<SchedStats>>,
}

/// A queued task's place in the ready queue: the submitting stage's
/// critical-path depth (higher = more upstream = first), then its
/// submission sequence number (older first). Ascending key order is
/// dequeue order.
type QueueKey = (Reverse<u32>, u64);

/// A primary attempt currently executing on some worker — what idle
/// workers scan for speculation candidates.
struct RunningEntry<'t> {
    /// The task's submission sequence number.
    seq: u64,
    job: TaskFn<'t>,
    sched: Option<Arc<SchedStats>>,
    started: Instant,
    /// A speculative copy has been launched; never launch a second.
    speculated: bool,
}

/// Shared scheduler coordination: every queue/running mutation happens
/// under this one lock, so the submit/exit race has no window.
struct Coord<'t> {
    /// The ready queue.
    queue: BTreeMap<QueueKey, QueuedTask<'t>>,
    shutdown: bool,
    /// Workers currently inside [`Pool::run_worker`].
    live_workers: usize,
    next_seq: u64,
    /// Primary attempts currently executing ([`SchedulerMode::Speculative`]
    /// only).
    running: Vec<RunningEntry<'t>>,
}

/// What a worker decided to do after inspecting the coordinator state.
enum Decision<'t> {
    Run(u64, QueuedTask<'t>),
    Speculate(TaskFn<'t>),
    Exit,
}

/// The shared scheduler (see the module docs). Workers run
/// [`Pool::run_worker`] on scoped threads ([`scoped`] spawns them);
/// stage drivers feed it with [`Pool::submit`] as partitions become ready
/// and are woken by their own per-wave completion latches.
pub(crate) struct Pool<'t> {
    coord: Mutex<Coord<'t>>,
    ready: Condvar,
    sched: SchedulerConfig,
}

/// Runs `body` against a pool of `workers` threads (at least one), then
/// shuts the pool down and returns once every queued task has run and
/// every worker has exited.
pub(crate) fn scoped<'t, R>(
    workers: usize,
    sched: SchedulerConfig,
    body: impl FnOnce(&Pool<'t>) -> R,
) -> R {
    let pool = Pool::new(sched);
    std::thread::scope(|scope| {
        for _ in 0..workers.max(1) {
            scope.spawn(|| pool.run_worker());
        }
        // Shut down even if `body` panics, or the scope would wait on
        // workers that never exit.
        let out = catch_unwind(AssertUnwindSafe(|| body(&pool)));
        pool.shutdown();
        out.unwrap_or_else(|p| resume_unwind(p))
    })
}

impl<'t> Pool<'t> {
    pub(crate) fn new(sched: SchedulerConfig) -> Self {
        Self {
            coord: Mutex::new(Coord {
                queue: BTreeMap::new(),
                shutdown: false,
                live_workers: 0,
                next_seq: 0,
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
    /// *and* the queue is empty — both checked under the coordinator
    /// lock — so as long as any worker is live the task will be drained;
    /// when the last worker has already exited, the task runs inline on
    /// the submitting thread instead of silently rotting in the queue
    /// (which would stall the submitting wave forever on its Drop-armed
    /// completion ticket).
    pub(crate) fn submit(&self, task: Task<'t>, priority: u32, sched: Option<Arc<SchedStats>>) {
        let mut coord = lock(&self.coord);
        if coord.shutdown && coord.live_workers == 0 {
            drop(coord);
            contain(|| (task.job)(0));
            return;
        }
        let seq = coord.next_seq;
        coord.next_seq += 1;
        #[expect(clippy::disallowed_methods, reason = "queue wait is real time")]
        let queued_at = Instant::now();
        let task = QueuedTask {
            task,
            queued_at,
            sched,
        };
        coord.queue.insert((Reverse(priority), seq), task);
        drop(coord);
        self.ready.notify_one();
    }

    /// A worker loop: runs queued tasks until [`Pool::shutdown`] *and* the
    /// queue is drained; under [`SchedulerMode::Speculative`] an
    /// otherwise-idle worker launches speculative copies of straggling
    /// primaries. Tasks are expected to capture their own panics; as a
    /// last line of defence a panic that escapes a task is swallowed here
    /// rather than poisoning the whole pool. (The engine's task wrappers
    /// hold a Drop-armed `WaveTicket`, so even an escaped panic records a
    /// failure and the submitting wave still terminates — new task shapes
    /// must keep an equivalent Drop-based latch.)
    pub(crate) fn run_worker(&self) {
        lock(&self.coord).live_workers += 1;
        loop {
            let decision = {
                let mut coord = lock(&self.coord);
                loop {
                    if let Some(((_, seq), task)) = coord.queue.pop_first() {
                        break Decision::Run(seq, task);
                    }
                    if coord.shutdown {
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
                Decision::Run(seq, task) => self.run_task(seq, task),
                Decision::Speculate(job) => {
                    // Speculative attempts are never registered as running
                    // (no speculation of speculation) and report through
                    // the task's own first-wins cell.
                    contain(|| job(1));
                }
                Decision::Exit => return,
            }
        }
    }

    /// Tells workers to exit once the queue is empty.
    pub(crate) fn shutdown(&self) {
        lock(&self.coord).shutdown = true;
        self.ready.notify_all();
    }

    /// Scans the running primaries for a speculation candidate: the oldest
    /// unspeculated attempt past the threshold, or how long until the
    /// earliest one ripens. Marks the chosen entry and books the launch.
    fn pick_straggler(&self, coord: &mut Coord<'t>) -> Straggler<'t> {
        #[expect(clippy::disallowed_methods, reason = "straggler timing is real time")]
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

    /// Runs one dequeued task, booking its queue wait first.
    fn run_task(&self, seq: u64, task: QueuedTask<'t>) {
        if let Some(s) = &task.sched {
            s.queue_wait_us.fetch_add(
                u64::try_from(task.queued_at.elapsed().as_micros()).unwrap_or(u64::MAX),
                Ordering::Relaxed,
            );
        }
        let Task { job, replayable } = task.task;
        // Only a replayable task under speculation is registered as
        // running; everything else is attempt 0 and nothing more.
        let speculable = replayable && self.sched.mode == SchedulerMode::Speculative;
        if speculable {
            #[expect(clippy::disallowed_methods, reason = "straggler timing is real time")]
            lock(&self.coord).running.push(RunningEntry {
                seq,
                job: Arc::clone(&job),
                sched: task.sched.clone(),
                started: Instant::now(),
                speculated: false,
            });
            // Idle workers may be parked in a plain wait; wake them so they
            // switch to the speculation timeout.
            self.ready.notify_all();
        }
        contain(|| job(0));
        if speculable {
            lock(&self.coord).running.retain(|e| e.seq != seq);
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
/// The tasks go through the shared pool, all at one priority, so they
/// start in submission order. If any task panics, the panic message of
/// the first observed panic is returned as `Err` after all in-flight
/// tasks finish; tasks that had not started yet are abandoned (each
/// checks the failure flag before calling `f`).
pub fn run_indexed<R, F>(n_tasks: usize, threads: usize, f: F) -> Result<Vec<R>, String>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let slots: Vec<Mutex<Option<R>>> = (0..n_tasks).map(|_| Mutex::new(None)).collect();
    let failure: Mutex<Option<String>> = Mutex::new(None);
    scoped(threads.min(n_tasks), SchedulerConfig::default(), |pool| {
        for (i, slot) in slots.iter().enumerate() {
            let (f, failure) = (&f, &failure);
            let job = move |_attempt| {
                if lock(failure).is_some() {
                    return; // abandoned after a failure
                }
                match catch_unwind(AssertUnwindSafe(|| f(i))) {
                    Ok(r) => *lock(slot) = Some(r),
                    Err(p) => {
                        lock(failure).get_or_insert_with(|| panic_message(p));
                    }
                }
            };
            let task = Task {
                job: Arc::new(job),
                replayable: false,
            };
            pool.submit(task, 0, None);
        }
    });
    if let Some(msg) = failure.into_inner().unwrap_or_else(|e| e.into_inner()) {
        return Err(msg);
    }
    // Every slot is filled unless a task failed, and failures returned
    // above; surface the impossible gap as an error instead of killing
    // the process.
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .ok_or_else(|| "a task slot was left unfilled without a failure".to_owned())
        })
        .collect()
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
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
    use std::sync::{mpsc, Barrier};

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
        let out: Vec<u32> = run_indexed(0, 4, |_| panic!("no task to run")).unwrap();
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
            let pool = Pool::new(sched);
            std::thread::scope(|s| {
                for _ in 0..4 {
                    let pool = &pool;
                    s.spawn(move || pool.run_worker());
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
    fn a_task_body_holds_no_pool_lock() {
        // Task A blocks until task B, submitted only once A runs, has run.
        // A pool that held `coord` across A's body would stall B's submit
        // or dequeue; A then gives up at the timeout, so
        // the test fails in bounded time instead of hanging. (The barrier
        // test above cannot see this: its barrier releases before wave two
        // is submitted.)
        for sched in all_modes() {
            let (started_tx, started_rx) = mpsc::channel();
            let (b_tx, b_rx) = mpsc::channel();
            let b_rx = Mutex::new(b_rx);
            let saw_b = AtomicBool::new(false);
            let pool = Pool::new(sched);
            std::thread::scope(|s| {
                for _ in 0..2 {
                    let pool = &pool;
                    s.spawn(move || pool.run_worker());
                }
                let (b_rx, saw_b) = (&b_rx, &saw_b);
                let task_a = move || {
                    started_tx.send(()).unwrap();
                    let b = lock(b_rx).recv_timeout(Duration::from_secs(10));
                    saw_b.store(b.is_ok(), Ordering::SeqCst);
                };
                pool.submit(once(task_a), 0, None);
                started_rx.recv().unwrap();
                pool.submit(once(move || b_tx.send(()).unwrap()), 0, None);
                pool.shutdown();
            });
            assert!(saw_b.load(Ordering::SeqCst), "B ran while A's body ran");
        }
    }

    #[test]
    fn shared_pool_survives_a_panicking_task() {
        for sched in all_modes() {
            let ran = AtomicU64::new(0);
            let pool = Pool::new(sched);
            std::thread::scope(|s| {
                let pool = &pool;
                s.spawn(move || pool.run_worker());
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
            let pool = Pool::new(sched);
            std::thread::scope(|s| {
                let pool = &pool;
                let workers: Vec<_> = (0..2).map(|_| s.spawn(move || pool.run_worker())).collect();
                pool.shutdown();
                for w in workers {
                    w.join().unwrap();
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
        let pool = Pool::new(SchedulerConfig::default());
        std::thread::scope(|s| {
            let pool = &pool;
            s.spawn(move || pool.run_worker());
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
        let pool = Pool::new(SchedulerConfig::default());
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
            s.spawn(move || pool.run_worker());
        });
        assert_eq!(lock(&order)[0], "high");
    }

    #[test]
    fn priority_is_global_across_workers() {
        // Two tasks queued before the one running worker starts: the
        // priority-3 task runs before the older priority-0 one, wherever
        // the queue put them.
        let order = Mutex::new(Vec::new());
        let pool = Pool::new(SchedulerConfig::default());
        for (label, priority) in [("low", 0u32), ("high", 3)] {
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
            s.spawn(move || pool.run_worker());
        });
        assert_eq!(*lock(&order), ["high", "low"]);
    }

    #[test]
    fn idle_worker_speculates_a_straggler_and_first_result_wins() {
        // A replayable primary stalls; the idle second worker launches the
        // speculative copy, which reports first. The loser finds the
        // first-wins cell empty and drops its result.
        let winner: Mutex<Option<usize>> = Mutex::new(None);
        let stats = Arc::new(SchedStats::default());
        let pool = Pool::new(SchedulerConfig {
            mode: SchedulerMode::Speculative,
            speculate_after: Duration::from_millis(1),
            straggle: None,
        });
        std::thread::scope(|s| {
            let pool = &pool;
            for _ in 0..2 {
                s.spawn(move || pool.run_worker());
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
