//! The servable-run registry: what a [`RunServer`](crate::RunServer)
//! answers from.
//!
//! A `MutexGuard` held across a socket or file call serializes every peer
//! of that lock behind one blocked thread. So this module does no I/O, its
//! lock is reachable only through the private `Registry::lock`, and
//! every method returns owned values: a caller cannot name the guard, let
//! alone hold it across `write_frame`.

use std::collections::HashMap;
use std::fs::File;
use std::sync::{Arc, Mutex, PoisonError};

use crate::protocol::{FetchRange, Response, RunKey, RunSpec};

/// One published map task: its run file (if it produced any bytes) and
/// each partition's run directory within it.
#[derive(Debug, Clone)]
pub struct PublishedTask {
    /// The task's run file, opened read-only; `None` when the task
    /// produced no records at all (every partition's directory is empty).
    pub file: Option<Arc<File>>,
    /// Partition-indexed run directories.
    pub parts: Vec<Vec<RunSpec>>,
}

/// The servable-run registry a [`RunServer`](crate::RunServer) answers from. Map tasks
/// publish into it the moment they finish; the server only ever reads.
#[derive(Debug, Default)]
pub struct Registry {
    tasks: Mutex<HashMap<(u64, u64), PublishedTask>>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes one task's runs under `(job, task)`. Re-publishing the
    /// same key replaces the entry (last write wins — harmless, since
    /// attempt-distinct task keys never actually collide).
    pub fn publish(&self, job: u64, task: u64, published: PublishedTask) {
        self.lock().insert((job, task), published);
    }

    /// Published tasks currently registered (all jobs).
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<(u64, u64), PublishedTask>> {
        self.tasks.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One partition's run directory; `None` when the task or partition
    /// is unknown (→ `NotFound` on the wire).
    pub(crate) fn dir(&self, key: RunKey) -> Option<Vec<RunSpec>> {
        self.lock()
            .get(&(key.job, key.task))?
            .parts
            .get(key.partition as usize)
            .cloned()
    }

    /// The run file each range of a fetch of `(job, partition)` reads, in
    /// range order. Every range must fall inside a single run its task
    /// registered for the partition: the server hands out exactly what the
    /// directories advertised, never arbitrary file bytes. Checked under
    /// one lock, so only the handles are cloned; the first range that
    /// fails refuses the whole request.
    pub(crate) fn locate(
        &self,
        job: u64,
        partition: u32,
        ranges: &[FetchRange],
    ) -> Result<Vec<Arc<File>>, Response> {
        let guard = self.lock();
        let locate = |range: &FetchRange| {
            let task = guard.get(&(job, range.task)).ok_or(Response::NotFound)?;
            let specs = task
                .parts
                .get(partition as usize)
                .ok_or(Response::NotFound)?;
            // A range or registered run whose end overflows u64 holds no
            // servable bytes.
            let end = range
                .offset
                .checked_add(range.len)
                .ok_or(Response::RangeError)?;
            let in_run = specs.iter().any(|s| {
                range.offset >= s.offset && s.offset.checked_add(s.bytes).is_some_and(|e| end <= e)
            });
            if !in_run {
                return Err(Response::RangeError);
            }
            // A task that produced no bytes has no file, and no runs either.
            task.file.clone().ok_or(Response::RangeError)
        };
        ranges.iter().map(locate).collect()
    }
}
