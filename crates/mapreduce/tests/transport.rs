//! Job-level tests of the shuffle transport: published run files read
//! locally (multi-process) or fetched from the stage's run server
//! (remote) must reproduce the in-process handoff's output exactly,
//! account their bytes (and fetches), charge simulated transport time,
//! store no byte twice, clean up their job directory — also when the
//! network fails for good — and compose with mapper spilling and the
//! fan-in-capped hierarchical merge.

use std::path::{Path, PathBuf};
use std::sync::Mutex;

use tsj_mapreduce::{
    Cluster, ClusterConfig, Count, Emitter, FaultConfig, JobError, JobResult, OutputSink,
    SchedulerConfig, ShuffleConfig, Transport,
};
use tsj_netshuffle::FetchConfig;

fn cluster(machines: usize, threads: usize, partitions: usize, shuffle: ShuffleConfig) -> Cluster {
    Cluster::new(ClusterConfig {
        machines,
        threads,
        partitions,
        ..ClusterConfig::default()
    })
    .with_shuffle_config(shuffle)
}

fn wordcount_docs(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| format!("the quick token{} jumps the t{} the", i % 53, i % 7))
        .collect()
}

fn wordcount(c: &Cluster, docs: &[String]) -> JobResult<(String, u64)> {
    try_wordcount(c, docs).unwrap()
}

fn try_wordcount(c: &Cluster, docs: &[String]) -> Result<JobResult<(String, u64)>, JobError> {
    c.run_combined(
        "transport.wordcount",
        docs,
        |doc: &String, e: &mut Emitter<String, u64>| {
            for w in doc.split_whitespace() {
                e.emit(w.to_owned(), 1);
            }
        },
        &Count,
        |w: &String, counts: Vec<u64>, out: &mut OutputSink<(String, u64)>| {
            out.emit((w.clone(), counts.iter().sum()));
        },
    )
}

/// Total size of every file under `dir`, recursively.
fn bytes_under(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .map(|e| e.unwrap().path())
        .map(|p| match p.is_dir() {
            true => bytes_under(&p),
            false => std::fs::metadata(&p).unwrap().len(),
        })
        .sum()
}

fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
    v.sort();
    v
}

#[test]
fn multiprocess_wordcount_matches_inprocess_and_accounts_bytes() {
    let docs = wordcount_docs(600);
    let in_proc = wordcount(&cluster(8, 4, 0, ShuffleConfig::unbounded()), &docs);
    assert_eq!(in_proc.stats.transport, "in-process");
    assert_eq!(in_proc.stats.transport_bytes, 0);
    assert_eq!(in_proc.stats.transport_secs, 0.0);

    let multi = wordcount(
        &cluster(
            8,
            4,
            0,
            ShuffleConfig::unbounded().with_transport(Transport::MultiProcess),
        ),
        &docs,
    );
    assert_eq!(multi.stats.transport, "multi-process");
    assert_eq!(sorted(in_proc.output), sorted(multi.output));
    // Every shuffled record crossed the exchange as framed bytes: at
    // least the 4-byte length prefix + 8-byte fingerprint per record.
    assert!(
        multi.stats.transport_bytes >= 12 * multi.stats.shuffle_records,
        "transport_bytes {} too small for {} shuffled records",
        multi.stats.transport_bytes,
        multi.stats.shuffle_records
    );
    assert!(
        multi.stats.transport_secs > 0.0,
        "exchange volume must be charged"
    );
    assert_eq!(
        multi.stats.shuffle_records, in_proc.stats.shuffle_records,
        "the transport moves records; it must not change how many there are"
    );
    assert!(multi.stats.sim_total_secs > in_proc.stats.sim_total_secs);
}

#[test]
fn multiprocess_output_is_deterministic_across_threads_and_identical_to_inprocess_spilling() {
    // Once anything spills, both transports reduce through the same
    // fingerprint-order merge — so their unsorted outputs must be
    // *identical*, not merely equal as multisets.
    let docs = wordcount_docs(500);
    let reference = wordcount(&cluster(8, 1, 0, ShuffleConfig::bounded(16, 32)), &docs).output;
    for threads in [2usize, 8] {
        for spill in [None, Some((16usize, 32usize))] {
            let mut shuffle = match spill {
                Some((c, s)) => ShuffleConfig::bounded(c, s),
                None => ShuffleConfig::unbounded(),
            };
            shuffle.transport = Transport::MultiProcess;
            let got = wordcount(&cluster(8, threads, 0, shuffle), &docs).output;
            assert_eq!(got, reference, "threads = {threads}, spill = {spill:?}");
        }
    }
}

#[test]
fn exchange_dir_is_cleaned_up_and_spill_stats_still_account() {
    let base = std::env::temp_dir().join(format!("tsj-transport-test-{}", std::process::id()));
    std::fs::create_dir_all(&base).unwrap();
    let docs = wordcount_docs(800);
    let shuffle = ShuffleConfig {
        combine_threshold: Some(16),
        spill_threshold: Some(32),
        spill_dir: Some(PathBuf::from(&base)),
        transport: Transport::MultiProcess,
        ..ShuffleConfig::default()
    };
    let out = wordcount(&cluster(8, 4, 0, shuffle), &docs);
    assert!(out.stats.spilled_records > 0, "job must actually spill");
    assert!(out.stats.spill_runs > 0);
    assert!(out.stats.transport_bytes > 0);
    let leftovers: Vec<_> = std::fs::read_dir(&base).unwrap().collect();
    assert!(
        leftovers.is_empty(),
        "exchange + spill dirs must not outlive their job: {leftovers:?}"
    );
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn merge_fan_in_cap_engages_and_preserves_output() {
    // Tiny spill threshold over distinct keys → far more sorted runs than
    // the cap; the hierarchical merge must engage yet change nothing.
    let input: Vec<u64> = (0..4000).collect();
    let run = |shuffle: ShuffleConfig| {
        cluster(4, 4, 0, shuffle)
            .run(
                "transport.fanin",
                &input,
                |n: &u64, e: &mut Emitter<u64, u64>| e.emit(n % 701, *n),
                |k: &u64, vs: Vec<u64>, out: &mut OutputSink<(u64, u64)>| {
                    out.emit((*k, vs.iter().copied().fold(0, u64::wrapping_add)));
                },
            )
            .unwrap()
    };
    let reference = run(ShuffleConfig::unbounded());

    for transport in [
        Transport::InProcess,
        Transport::MultiProcess,
        Transport::Remote,
    ] {
        let uncapped = run(ShuffleConfig::bounded(4, 8).with_transport(transport));
        assert!(
            uncapped.stats.spill_runs > 16,
            "tiny threshold must force many runs (got {})",
            uncapped.stats.spill_runs
        );
        assert_eq!(uncapped.stats.merge_passes, 0);

        let capped = run(ShuffleConfig::bounded(4, 8)
            .with_transport(transport)
            .with_merge_fan_in(4));
        assert!(
            capped.stats.merge_passes > 0,
            "runs ≫ fan-in must trigger hierarchical merge passes ({transport:?})"
        );
        assert!(
            capped.stats.merge_scratch_bytes > 0,
            "pre-merge passes must account their scratch I/O ({transport:?})"
        );
        assert!(
            capped.stats.spill_secs > uncapped.stats.spill_secs,
            "scratch I/O must be charged by the cost model ({transport:?})"
        );
        assert_eq!(
            sorted(capped.output.clone()),
            sorted(reference.output.clone()),
            "{transport:?}"
        );
        assert_eq!(
            capped.output, uncapped.output,
            "the cap must not even reorder the output ({transport:?})"
        );
    }
}

#[test]
fn uncombined_jobs_cross_the_exchange_too() {
    // No combiner, burst emits: exercises the transport on raw map
    // output. Every partition is grouped by the one fingerprint merge, so
    // even the *unsorted* output — partition order × group order — is the
    // same in process, published, spilled and under a capped fan-in.
    let input: Vec<u64> = (0..300).collect();
    let run = |shuffle: ShuffleConfig| {
        cluster(16, 4, 5, shuffle)
            .run(
                "transport.nocombiner",
                &input,
                |n: &u64, e: &mut Emitter<u64, u64>| {
                    for j in 0..8u64 {
                        e.emit((n * 31 + j) % 97, *n);
                    }
                },
                |k: &u64, vs: Vec<u64>, out: &mut OutputSink<(u64, u64, u64)>| {
                    out.emit((*k, vs.len() as u64, vs.iter().copied().min().unwrap()));
                },
            )
            .unwrap()
    };
    let in_proc = run(ShuffleConfig::unbounded());
    let multi = run(ShuffleConfig::unbounded().with_transport(Transport::MultiProcess));
    assert_eq!(multi.output, in_proc.output, "multiprocess");
    assert_eq!(multi.stats.reduce_groups, in_proc.stats.reduce_groups);
    assert!(multi.stats.transport_bytes > 0);
    let spilled = run(ShuffleConfig::bounded(20, 40));
    assert!(spilled.stats.spilled_records > 0);
    assert_eq!(spilled.output, in_proc.output, "bounded(20, 40)");
    let capped = run(ShuffleConfig::bounded(20, 40).with_merge_fan_in(2));
    assert!(capped.stats.merge_passes > 0);
    assert_eq!(capped.output, in_proc.output, "bounded(20, 40), fan-in 2");
}

#[test]
fn v2_frames_cost_under_20_bytes_per_u64_pair_record() {
    // A (u64, u64) record frames as 1 B payload length + 1 B fingerprint
    // delta + 16 B payload = 18 B (the v1 fixed frame cost 28); past 20
    // the compact framing broke. Both out-of-process transports publish
    // the same run bytes, mid-task spills included, so one budget covers
    // all three.
    let input: Vec<u64> = (0..20_000).collect();
    for shuffle in [
        ShuffleConfig::unbounded().with_transport(Transport::MultiProcess),
        ShuffleConfig::bounded(1024, 2048).with_transport(Transport::MultiProcess),
        ShuffleConfig::unbounded().with_transport(Transport::Remote),
    ] {
        let name = format!(
            "{}, spill threshold {:?}",
            shuffle.transport.name(),
            shuffle.spill_threshold
        );
        let spills = shuffle.spill_threshold.is_some();
        let stats = cluster(8, 4, 0, shuffle)
            .run(
                "transport.framecost",
                &input,
                |n: &u64, e: &mut Emitter<u64, u64>| e.emit(n % 4099, *n),
                |k: &u64, vs: Vec<u64>, out: &mut OutputSink<(u64, u64)>| {
                    out.emit((*k, vs.len() as u64));
                },
            )
            .unwrap()
            .stats;
        assert_eq!(stats.shuffle_records, 20_000, "{name}");
        assert_eq!(stats.spilled_records > 0, spills, "{name}");
        let per_record = stats.transport_bytes as f64 / stats.shuffle_records as f64;
        assert!(
            per_record < 20.0,
            "{name}: {per_record:.1} B/record exceeds the v2 framing budget"
        );
    }
}

#[test]
fn remote_wordcount_matches_inprocess_and_accounts_fetches() {
    let docs = wordcount_docs(600);
    let in_proc = wordcount(&cluster(8, 4, 0, ShuffleConfig::unbounded()), &docs);

    let remote = wordcount(
        &cluster(
            8,
            4,
            0,
            ShuffleConfig::unbounded().with_transport(Transport::Remote),
        ),
        &docs,
    );
    assert_eq!(remote.stats.transport, "remote");
    assert_eq!(sorted(in_proc.output), sorted(remote.output));
    assert_eq!(remote.stats.shuffle_records, in_proc.stats.shuffle_records);
    // Every byte of the exchange crossed a socket: at least one ranged
    // read per run, and the fetched payload is exactly the exchanged
    // volume when nothing drops.
    assert!(remote.stats.transport_bytes > 0);
    assert!(remote.stats.transport_secs > 0.0);
    assert!(remote.stats.fetch_requests > 0);
    assert_eq!(remote.stats.fetch_bytes, remote.stats.transport_bytes);
    assert_eq!(remote.stats.fetch_retries, 0, "no faults, no retries");
    // The in-process job never touches the fetch path.
    assert_eq!(in_proc.stats.fetch_requests, 0);
}

#[test]
fn remote_output_is_deterministic_across_threads_and_identical_to_multiprocess() {
    // The remote exchange fetches the same runs the multi-process
    // transport would copy, so once anything spills the two reduce
    // through identical segment sets: unsorted outputs must be
    // *identical*, not merely equal as multisets.
    let docs = wordcount_docs(500);
    let reference = wordcount(
        &cluster(
            8,
            1,
            0,
            ShuffleConfig::bounded(16, 32).with_transport(Transport::MultiProcess),
        ),
        &docs,
    )
    .output;
    for threads in [2usize, 8] {
        for spill in [None, Some((16usize, 32usize))] {
            let mut shuffle = match spill {
                Some((c, s)) => ShuffleConfig::bounded(c, s),
                None => ShuffleConfig::unbounded(),
            };
            shuffle.transport = Transport::Remote;
            let got = wordcount(&cluster(8, threads, 0, shuffle), &docs).output;
            assert_eq!(got, reference, "threads = {threads}, spill = {spill:?}");
        }
    }
}

#[test]
fn remote_exchange_dir_is_cleaned_up() {
    let base =
        std::env::temp_dir().join(format!("tsj-remote-transport-test-{}", std::process::id()));
    std::fs::create_dir_all(&base).unwrap();
    let docs = wordcount_docs(400);
    let shuffle = ShuffleConfig {
        combine_threshold: Some(16),
        spill_threshold: Some(32),
        spill_dir: Some(PathBuf::from(&base)),
        transport: Transport::Remote,
        ..ShuffleConfig::default()
    };
    let out = wordcount(&cluster(8, 4, 0, shuffle), &docs);
    assert!(out.stats.spilled_records > 0, "job must actually spill");
    assert!(out.stats.transport_bytes > 0);
    let leftovers: Vec<_> = std::fs::read_dir(&base).unwrap().collect();
    assert!(
        leftovers.is_empty(),
        "exchange + spill dirs must not outlive their job: {leftovers:?}"
    );
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn remote_with_injected_faults_retries_and_output_is_unchanged() {
    let docs = wordcount_docs(400);
    let clean = wordcount(
        &cluster(
            8,
            4,
            0,
            ShuffleConfig::unbounded().with_transport(Transport::Remote),
        ),
        &docs,
    );
    let faulty = wordcount(
        &cluster(
            8,
            4,
            0,
            ShuffleConfig::unbounded()
                .with_transport(Transport::Remote)
                .with_net_fault(FaultConfig {
                    drop_nth: 3,
                    stall_us: 100,
                    seed: 7,
                }),
        ),
        &docs,
    );
    assert!(
        faulty.stats.fetch_retries > 0,
        "a 1-in-3 drop rate must force retries (got {} over {} requests)",
        faulty.stats.fetch_retries,
        faulty.stats.fetch_requests
    );
    assert_eq!(
        faulty.output, clean.output,
        "injected faults must never change job output"
    );
    assert_eq!(faulty.stats.transport_bytes, clean.stats.transport_bytes);
}

#[test]
fn remote_with_every_request_dropped_fails_as_a_transport_error_and_leaks_nothing() {
    // A hard network failure: the server hangs up on every request, so
    // each reduce task's first ranged fetch exhausts its retry budget.
    // The job must fail structurally — no panic, no hang — and clean up.
    let base = std::env::temp_dir().join(format!("tsj-remote-dead-test-{}", std::process::id()));
    std::fs::create_dir_all(&base).unwrap();
    let docs = wordcount_docs(400);
    let shuffle = ShuffleConfig {
        spill_dir: Some(PathBuf::from(&base)),
        transport: Transport::Remote,
        net_fault: FaultConfig {
            drop_nth: 1,
            ..FaultConfig::default()
        },
        ..ShuffleConfig::default()
    };
    let started = std::time::Instant::now();
    let err = try_wordcount(&cluster(8, 4, 0, shuffle), &docs)
        .expect_err("no request is ever answered: the job cannot succeed");
    assert!(
        matches!(err, JobError::Transport { .. }),
        "a dead run server is a transport failure, got {err:?}"
    );
    // Every attempt is hung up on at once, so exhausting the retry budget
    // costs only its capped backoffs — inside a single request deadline.
    let bound = FetchConfig::default().request_timeout;
    assert!(
        started.elapsed() < bound,
        "one exhausted request bounds the failure: took {:?}, bound {bound:?}",
        started.elapsed()
    );
    let leftovers: Vec<_> = std::fs::read_dir(&base).unwrap().collect();
    assert!(
        leftovers.is_empty(),
        "a failed job must not leak its directory: {leftovers:?}"
    );
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn published_runs_are_the_only_copy_of_the_exchanged_bytes() {
    // While the reduce wave runs, everything in the job's run-file
    // directory (`tsj-spill-*`: the `task<N>.spill` files, and merge
    // scratch if there were any) is its map tasks' run files — and those
    // hold each exchanged byte exactly once: no second layout beside the
    // spill files, no re-assembled copy of what was fetched. The sibling
    // stage-output directory (`tsj-stage-*`) is left out: under a bounded
    // shuffle the reduce tasks running this very reducer drain their
    // *output* there, which is what the job produced, not a copy of what
    // it exchanged.
    for (name, shuffle) in [
        (
            "multi-process, bounded",
            ShuffleConfig::bounded(16, 32).with_transport(Transport::MultiProcess),
        ),
        (
            "remote, unbounded",
            ShuffleConfig::unbounded().with_transport(Transport::Remote),
        ),
    ] {
        let base = std::env::temp_dir().join(format!(
            "tsj-one-copy-test-{}-{}",
            std::process::id(),
            shuffle.transport.name()
        ));
        std::fs::create_dir_all(&base).unwrap();
        let shuffle = ShuffleConfig {
            spill_dir: Some(base.clone()),
            ..shuffle
        };
        // Pinned scheduler: a speculative copy of a map task would
        // (legitimately) write a second, never-read run file.
        let c = cluster(8, 4, 0, shuffle).with_scheduler(SchedulerConfig::default());
        let on_disk: Mutex<Vec<u64>> = Mutex::new(Vec::new());
        let docs = wordcount_docs(600);
        let out = c
            .run_combined(
                "transport.onecopy",
                &docs,
                |doc: &String, e: &mut Emitter<String, u64>| {
                    for w in doc.split_whitespace() {
                        e.emit(w.to_owned(), 1);
                    }
                },
                &Count,
                |w: &String, counts: Vec<u64>, out: &mut OutputSink<(String, u64)>| {
                    let run_file_dirs = std::fs::read_dir(&base).unwrap();
                    let bytes = run_file_dirs
                        .map(|e| e.unwrap())
                        .filter(|e| e.file_name().to_string_lossy().starts_with("tsj-spill-"))
                        .map(|e| bytes_under(&e.path()))
                        .sum();
                    on_disk.lock().unwrap().push(bytes);
                    out.emit((w.clone(), counts.iter().sum()));
                },
            )
            .unwrap();
        let on_disk = on_disk.into_inner().unwrap();
        assert!(out.stats.transport_bytes > 0, "{name}");
        assert!(!on_disk.is_empty(), "{name}");
        for seen in on_disk {
            assert_eq!(
                seen, out.stats.transport_bytes,
                "{name}: bytes on disk during reduce vs bytes exchanged"
            );
        }
        std::fs::remove_dir_all(&base).unwrap();
    }
}
