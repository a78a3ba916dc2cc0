//! The shuffle transport: how map output physically reaches reduce tasks.
//!
//! The runtime always *routes* records to partitions at emit time
//! ([`crate::shuffle`]); the [`Transport`] decides how a partition's
//! segments travel from the map side to the reduce side:
//!
//! * [`Transport::InProcess`] (the default) — each map task's in-memory
//!   partition buffers and spilled runs are handed to the reduce tasks by
//!   reference, within one address space. Nothing is serialized beyond
//!   what the mapper itself spilled; `transport_bytes` is 0.
//! * [`Transport::MultiProcess`] and [`Transport::Remote`] — every map
//!   task *publishes* its whole post-combine output in the spill-run wire
//!   format (see [`crate::spill`]), exactly as a cluster of separate
//!   worker processes would. There is **one published layout**: the
//!   task's own run file, `task<N>.spill` in the job directory — the runs
//!   it spilled under memory pressure, then what was still buffered at
//!   task end flushed as each partition's last run — plus its
//!   per-partition run directory. Publishing happens inside the map task,
//!   overlapping the map wave, and copies nothing: the spill file already
//!   is the published file. Reduce tasks read each run where it lies
//!   through the ordinary k-way sort-merge ([`crate::merge`]). The two
//!   differ only in what the code can observe — whether bytes cross a
//!   socket: `MultiProcess` reads the file with positioned reads;
//!   `Remote` also registers it with the stage's [`RunServer`] and fetches
//!   the runs over one connection per reduce task, with retries and
//!   deadlines. A reduce task knows every run it will read before it reads
//!   a byte, so it asks for them together: the first chunk of all its
//!   runs arrives in vectored requests of up to `FetchConfig::chunk`
//!   (256 KiB) each, and only a run longer than that fetches the rest of
//!   itself one chunk per request — MapReduce's own shuffle shape, where a
//!   reducer pulls many map outputs per request. The request count
//!   scales with bytes per reduce task, not with runs. `transport_bytes` is the full published volume — the
//!   sum of the tasks' own run sizes, identical for both — charged by
//!   [`CostModel::transport_secs_per_byte`](crate::cluster::CostModel).
//!
//! The shuffle barrier itself (`exchange`) touches no file and no socket
//! under any transport: a task's run directory is the `TaskSpill` its map
//! task reported to the driver — the same vector `Remote` published — so
//! the exchange only transposes those directories per partition and
//! stamps each run with where its bytes lie (`RunSource`: the local file,
//! or the run server's address and key). Reduce tasks never ask the run
//! server what exists; a run it does not know surfaces from the first
//! fetch as `JobError::Transport`.
//!
//! # Determinism and equivalence
//!
//! The exchange hands every partition its segments in map-task order, a
//! task's runs in write order (spilled runs before the published
//! leftover) before its in-memory leftover — the same order under every
//! transport. Every partition is reduced by the one fingerprint merge, and
//! it resolves equal-fingerprint ties by segment index, so the merged
//! record order (and therefore grouping, group order and job output) is
//! identical across transports; the pipeline output is property-tested
//! byte-identical across them in
//! `crates/core/tests/transport_equivalence.rs`. Retries cannot perturb
//! any of this: every fetch is an idempotent read, so a retried request
//! yields the same bytes and only the wall-clock-class
//! [`FetchStats`](tsj_netshuffle::FetchStats) differ.

#![warn(
    clippy::cast_possible_truncation,
    reason = "a truncated wire length wraps, and the reader trusts a prefix that lies"
)]

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tsj_netshuffle::{FaultConfig, FetchError, PublishedTask, Registry, RunKey, RunServer};

use crate::merge::Segment;
use crate::shuffle::{ShuffleRecord, TaskSpill};
use crate::spill::{RunSource, SpillError};

/// Which transport a job's shuffle uses (the configuration-level knob;
/// see [`ShuffleConfig`](crate::shuffle::ShuffleConfig)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Transport {
    /// In-process segment handoff (the default).
    #[default]
    InProcess,
    /// Map tasks publish their whole output as run files; reducers read
    /// them from the local filesystem.
    MultiProcess,
    /// Map tasks publish the same run files to a per-stage run server
    /// ([`tsj_netshuffle`]); reducers fetch them over a socket with
    /// vectored reads, retries, and deadlines.
    Remote,
}

impl Transport {
    /// Stable lowercase name (what `TSJ_SHUFFLE_TRANSPORT` accepts and
    /// [`JobStats::transport`](crate::job::JobStats) reports).
    pub const fn name(&self) -> &'static str {
        match self {
            Transport::InProcess => "in-process",
            Transport::MultiProcess => "multi-process",
            Transport::Remote => "remote",
        }
    }
}

/// One map task's complete post-combine output, as handed to
/// [`exchange`]: partition-indexed in-memory buffers (all empty once
/// published) plus the task's run file, if it wrote one.
#[derive(Debug)]
pub(crate) struct MapOutput<K, V> {
    pub(crate) parts: Vec<Vec<ShuffleRecord<K, V>>>,
    pub(crate) spill: Option<TaskSpill>,
}

/// A stage's handle on its run server ([`Transport::Remote`]): what map
/// tasks publish to and what reduce-side run sources point at.
///
/// The server listens on a loopback TCP port, so every fetched byte
/// genuinely crosses the host boundary machinery (sockets, framing,
/// deadlines) even though the simulation runs in one process.
#[derive(Debug)]
pub(crate) struct Remote {
    /// This stage's job id in the run-server keyspace (process-unique).
    job: u64,
    registry: Arc<Registry>,
    addr: SocketAddr,
}

/// Process-wide job-id allocator for the run-server keyspace: stages
/// never collide even when many clusters run concurrently (tests).
static NEXT_JOB: AtomicU64 = AtomicU64::new(0);

impl Remote {
    /// Starts a stage's run server (loopback TCP, ephemeral port) with
    /// `fault` injection under a fresh job id. The caller owns the server
    /// — dropping it stops serving — and shares the handle with its tasks.
    pub(crate) fn start(fault: FaultConfig) -> std::io::Result<(RunServer, Self)> {
        let registry = Arc::new(Registry::new());
        let server = RunServer::bind_tcp(Arc::clone(&registry), fault)?;
        let addr = server.addr();
        let job = NEXT_JOB.fetch_add(1, Ordering::Relaxed);
        Ok((
            server,
            Self {
                job,
                registry,
                addr,
            },
        ))
    }

    /// Registers a map task's finished run file with the run server:
    /// servable the moment the task finishes, while the map wave is still
    /// running. `spill.task` is attempt-distinct under speculation, so
    /// concurrent attempts never collide on a registry key (and a loser
    /// is simply never fetched).
    pub(crate) fn publish(&self, spill: &TaskSpill) {
        let published = PublishedTask {
            file: Some(Arc::clone(&spill.file)),
            parts: spill.runs.clone(),
        };
        self.registry.publish(self.job, spill.task, published);
    }

    /// Where partition `partition`'s runs of published map task `task`
    /// are fetched from.
    fn source(&self, partition: usize, task: u64) -> Result<RunSource, SpillError> {
        let partition = u32::try_from(partition).map_err(|_| {
            SpillError::Fetch(FetchError::Protocol(format!(
                "partition index {partition} exceeds the u32 run-key field"
            )))
        })?;
        Ok(RunSource::Remote {
            addr: self.addr,
            key: RunKey {
                job: self.job,
                partition,
                task,
            },
        })
    }
}

/// The shuffle exchange: transposes the map phase's per-task outputs into
/// per-partition segment lists for the reduce phase, walking
/// `(partition, task-in-order)`. Pure bookkeeping — no file or socket is
/// touched (see the module docs).
///
/// Partition `p`'s segments appear in map-task order, a task's runs (in
/// write order) before its in-memory leftover — the discipline the merge
/// relies on. A task's run directory is its [`TaskSpill`]'s; with a
/// `remote` its runs are stamped with the run server they were published
/// to instead of the local file, and nothing else depends on the
/// transport.
pub(crate) fn exchange<K, V>(
    mut tasks: Vec<MapOutput<K, V>>,
    partitions: usize,
    remote: Option<&Remote>,
) -> Result<Vec<Vec<Segment<K, V>>>, SpillError> {
    let mut partition_segments = Vec::with_capacity(partitions);
    for p in 0..partitions {
        let mut segments: Vec<Segment<K, V>> = Vec::new();
        for task in &mut tasks {
            if let Some(spill) = &mut task.spill {
                let source = match remote {
                    None => RunSource::Local(Arc::clone(&spill.file)),
                    Some(remote) => remote.source(p, spill.task)?,
                };
                for meta in std::mem::take(&mut spill.runs[p]) {
                    let source = source.clone();
                    segments.push(Segment::Spilled { source, meta });
                }
            }
            let leftover = std::mem::take(&mut task.parts[p]);
            if !leftover.is_empty() {
                segments.push(Segment::Mem(leftover));
            }
        }
        partition_segments.push(segments);
    }
    Ok(partition_segments)
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests make their scratch dirs under the system temp dir"
)]
mod tests {
    use super::*;
    use crate::shuffle::PartitionedBuffer;
    use crate::spill::{
        reserve_job_spill_dir, RunMeta, RunReader, SharedFetchClient, SpillDirGuard,
    };

    /// One map task's output, produced the way `run_map_task` does: emit
    /// into a partitioned buffer, then (with a job `dir`) publish it.
    fn task(
        dir: Option<&SpillDirGuard>,
        id: usize,
        records: &[(u64, u64)],
        partitions: usize,
    ) -> MapOutput<u64, u64> {
        let mut buf = match dir {
            Some(dir) => PartitionedBuffer::with_spill(partitions, None, dir.0.clone(), id),
            None => PartitionedBuffer::new(partitions),
        };
        for &(k, v) in records {
            buf.emit(k, v);
        }
        let spill = buf.finish_spill(dir.is_some()).unwrap();
        MapOutput {
            parts: buf.into_parts(),
            spill,
        }
    }

    fn job_dir() -> SpillDirGuard {
        SpillDirGuard(reserve_job_spill_dir(&std::env::temp_dir()))
    }

    /// Drains every segment of an exchange into (partition, record) order.
    fn drain(exchange: Vec<Vec<Segment<u64, u64>>>) -> Vec<(usize, ShuffleRecord<u64, u64>)> {
        let mut out = Vec::new();
        let mut client: Option<SharedFetchClient> = None;
        for (p, segments) in exchange.into_iter().enumerate() {
            for seg in segments {
                match seg {
                    Segment::Mem(mut records) => {
                        records.sort_by_key(|(h, _, _)| *h);
                        out.extend(records.into_iter().map(|r| (p, r)));
                    }
                    Segment::Spilled { source, meta } => {
                        let mut r = RunReader::open(source, meta, &mut client);
                        while let Some(record) = r.next::<u64, u64>().unwrap() {
                            out.push((p, record));
                        }
                    }
                }
            }
        }
        out
    }

    /// Every partition's run locations, in segment order.
    fn run_metas(exchange: &[Vec<Segment<u64, u64>>]) -> Vec<Vec<RunMeta>> {
        let metas = |segments: &Vec<Segment<u64, u64>>| {
            segments
                .iter()
                .map(|seg| match seg {
                    Segment::Spilled { meta, .. } => *meta,
                    Segment::Mem(_) => panic!("a published task hands out spilled segments only"),
                })
                .collect()
        };
        exchange.iter().map(metas).collect()
    }

    /// Every partition's merge must fail on its ranged fetches, and the
    /// job must report that as a transport failure; `expected` names the
    /// fetch error.
    fn assert_merges_fail_as_transport_errors(
        exchange: Vec<Vec<Segment<u64, u64>>>,
        expected: fn(&FetchError) -> bool,
    ) {
        for segments in exchange {
            let err = crate::merge::merge_segments(segments, |_: u64, _: Vec<u64>| {})
                .expect_err("nothing serves the ranged fetches");
            assert!(matches!(&err, SpillError::Fetch(e) if expected(e)), "{err}");
            let job_err = crate::job::JobError::from(err);
            assert!(
                matches!(job_err, crate::job::JobError::Transport { .. }),
                "{job_err}"
            );
        }
    }

    #[test]
    fn remote_ships_the_same_records_as_inprocess() {
        let partitions = 4;
        let data_a: Vec<(u64, u64)> = (0..40).map(|i| (i % 11, i)).collect();
        let data_b: Vec<(u64, u64)> = (0..25).map(|i| (i % 7, 100 + i)).collect();

        let in_proc = exchange(
            vec![
                task(None, 0, &data_a, partitions),
                task(None, 1, &data_b, partitions),
            ],
            partitions,
            None,
        )
        .unwrap();

        let dir = job_dir();
        let (server, remote) = Remote::start(FaultConfig::default()).unwrap();
        // Publish exactly as the map tasks would; the reduce side then
        // reads over the socket.
        let published = |first_id| {
            let tasks = vec![
                task(Some(&dir), first_id, &data_a, partitions),
                task(Some(&dir), first_id + 1, &data_b, partitions),
            ];
            for t in &tasks {
                remote.publish(t.spill.as_ref().unwrap());
            }
            tasks
        };
        let served = exchange(published(0), partitions, Some(&remote)).unwrap();
        let served_runs = run_metas(&served);
        assert_eq!(drain(served), drain(in_proc));

        // The barrier touches no socket: with the run server gone, the
        // same output still exchanges into the same runs.
        drop(server);
        let unserved = exchange(published(2), partitions, Some(&remote)).unwrap();
        assert_eq!(run_metas(&unserved), served_runs);

        let path = dir.0.clone();
        drop(dir);
        assert!(!path.exists(), "guard removes the job dir on drop");
    }

    #[test]
    fn a_run_server_dying_mid_merge_fails_the_job_as_a_transport_error() {
        let partitions = 2;
        let data: Vec<(u64, u64)> = (0..50).map(|i| (i, i)).collect();
        let dir = job_dir();
        let (server, remote) = Remote::start(FaultConfig::default()).unwrap();
        let published = task(Some(&dir), 0, &data, partitions);
        remote.publish(published.spill.as_ref().unwrap());
        let exchange = exchange(vec![published], partitions, Some(&remote)).unwrap();
        // The server goes away before the reduce side has read a byte.
        drop(server);
        assert_merges_fail_as_transport_errors(exchange, |e| {
            matches!(e, FetchError::Exhausted { .. })
        });
    }

    #[test]
    fn a_never_published_task_fails_the_merge_as_not_found() {
        let partitions = 2;
        let data: Vec<(u64, u64)> = (0..50).map(|i| (i, i)).collect();
        let dir = job_dir();
        let (_server, remote) = Remote::start(FaultConfig::default()).unwrap();
        // No walk checks the registry at the barrier any more; the first
        // ranged fetch of a run the server never heard of does.
        let unpublished = task(Some(&dir), 0, &data, partitions);
        let exchange = exchange(vec![unpublished], partitions, Some(&remote)).unwrap();
        assert_merges_fail_as_transport_errors(exchange, |e| {
            matches!(e, FetchError::NotFound { .. })
        });
    }

    #[test]
    fn multiprocess_ships_the_same_records_as_inprocess() {
        let partitions = 4;
        let data_a: Vec<(u64, u64)> = (0..40).map(|i| (i % 11, i)).collect();
        let data_b: Vec<(u64, u64)> = (0..25).map(|i| (i % 7, 100 + i)).collect();

        let in_proc = exchange(
            vec![
                task(None, 0, &data_a, partitions),
                task(None, 1, &data_b, partitions),
            ],
            partitions,
            None,
        )
        .unwrap();

        let dir = job_dir();
        let multi = exchange(
            vec![
                task(Some(&dir), 0, &data_a, partitions),
                task(Some(&dir), 1, &data_b, partitions),
            ],
            partitions,
            None,
        )
        .unwrap();
        assert!(dir.0.exists(), "job dir materialized");

        // Same records per partition, in the same merged order (mem
        // segments compared post-sort, the order the merge consumes).
        assert_eq!(drain(multi), drain(in_proc));
    }

    #[test]
    fn published_runs_are_per_task_sorted_and_routed_to_their_partition() {
        let partitions = 3;
        let data_a: Vec<(u64, u64)> = (0..60).map(|i| (i, i * 2)).collect();
        let data_b: Vec<(u64, u64)> = (60..90).map(|i| (i, i * 2)).collect();
        let dir = job_dir();
        let exchange = exchange(
            vec![
                task(Some(&dir), 0, &data_a, partitions),
                task(Some(&dir), 1, &data_b, partitions),
            ],
            partitions,
            None,
        )
        .unwrap();
        let mut names: Vec<String> = std::fs::read_dir(&dir.0)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(
            names,
            ["task0.spill", "task1.spill"],
            "one run file per task"
        );
        let mut records = 0;
        for (p, segments) in exchange.into_iter().enumerate() {
            assert_eq!(segments.len(), 2, "one published run per task");
            for seg in segments {
                let Segment::Spilled { source, meta } = seg else {
                    panic!("a published task hands out spilled segments only");
                };
                let mut r = RunReader::open(source, meta, &mut None);
                let mut last = 0u64;
                while let Some((h, _, _)) = r.next::<u64, u64>().unwrap() {
                    assert!(h >= last, "published run not sorted");
                    assert_eq!(h % partitions as u64, p as u64);
                    last = h;
                    records += 1;
                }
            }
        }
        assert_eq!(records, 90);
    }

    #[test]
    fn empty_tasks_and_partitions_publish_nothing() {
        let partitions = 64;
        let dir = job_dir();
        let empty = task(Some(&dir), 0, &[], partitions);
        assert!(empty.spill.is_none(), "an empty task writes no run file");
        assert!(!dir.0.exists(), "and never materializes the job dir");

        let exchange = exchange(
            vec![empty, task(Some(&dir), 1, &[(1, 1)], partitions)],
            partitions,
            None,
        )
        .unwrap();
        assert_eq!(std::fs::read_dir(&dir.0).unwrap().count(), 1);
        let non_empty = exchange.iter().filter(|s| !s.is_empty()).count();
        assert_eq!(non_empty, 1);
    }
}
