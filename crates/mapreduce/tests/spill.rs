//! End-to-end tests of the memory-bounded shuffle: jobs run with tiny
//! combine/spill thresholds must produce exactly the output of the
//! unbounded configuration, never hold more than the threshold in a
//! mapper's buffer, and account the spilled volume in `JobStats`.

use std::path::PathBuf;

use tsj_mapreduce::{
    Cluster, ClusterConfig, Count, Dedup, Emitter, JobError, OutputSink, ShuffleConfig, Transport,
};

fn cluster(machines: usize, threads: usize, partitions: usize) -> Cluster {
    Cluster::new(ClusterConfig {
        machines,
        threads,
        partitions,
        ..ClusterConfig::default()
    })
    // Pin the unbounded default so TSJ_SPILL_THRESHOLD in the environment
    // (the CI spill leg) cannot turn the reference runs into spilled runs.
    .with_shuffle_config(ShuffleConfig::unbounded())
}

fn wordcount_docs(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| format!("the quick token{} jumps the t{} the", i % 53, i % 7))
        .collect()
}

fn wordcount(c: &Cluster, docs: &[String]) -> tsj_mapreduce::JobResult<(String, u64)> {
    c.run_combined(
        "spill.wordcount",
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
    .unwrap()
}

fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
    v.sort();
    v
}

#[test]
fn bounded_wordcount_matches_unbounded_and_accounts_spills() {
    let docs = wordcount_docs(600);
    let unbounded = wordcount(&cluster(8, 4, 0), &docs);
    assert_eq!(unbounded.stats.spilled_records, 0);
    assert_eq!(unbounded.stats.spill_bytes, 0);
    assert_eq!(unbounded.stats.spill_secs, 0.0);

    let bounded_cluster = cluster(8, 4, 0).with_shuffle_config(ShuffleConfig::bounded(32, 64));
    let bounded = wordcount(&bounded_cluster, &docs);

    assert_eq!(
        sorted(unbounded.output),
        sorted(bounded.output),
        "bounded mappers must not change job output"
    );
    assert_eq!(
        bounded.stats.map_output_records,
        unbounded.stats.map_output_records
    );
    // The memory bound held and the spill path actually engaged.
    assert!(
        bounded.stats.spilled_records > 0,
        "tiny thresholds must force spilling"
    );
    assert!(bounded.stats.spill_bytes > 0);
    assert!(
        bounded.stats.spill_secs > 0.0,
        "spill I/O must be charged by the cost model"
    );
    assert!(
        bounded.stats.sim_total_secs > 0.0
            && bounded.stats.sim_total_secs
                >= bounded.stats.shuffle_secs + bounded.stats.spill_secs
    );
    assert!(
        bounded.stats.peak_buffered_records <= 64,
        "peak in-memory records {} exceeded the spill threshold",
        bounded.stats.peak_buffered_records
    );
    // Periodic combining still shrinks the shuffle relative to raw emits.
    assert!(bounded.stats.shuffle_records < bounded.stats.map_output_records);
    // Spilled records are part of the shuffled volume, never extra.
    assert!(bounded.stats.spilled_records <= bounded.stats.shuffle_records);
    assert_eq!(bounded.stats.reduce_groups, unbounded.stats.reduce_groups);
}

#[test]
fn spill_threshold_bounds_mappers_even_without_a_combiner() {
    let input: Vec<u64> = (0..5000).collect();
    let run = |shuffle: ShuffleConfig| {
        cluster(16, 4, 0)
            .with_shuffle_config(shuffle)
            .run(
                "spill.nocombiner",
                &input,
                |n: &u64, e: &mut Emitter<u64, u64>| e.emit(n % 701, *n),
                |k: &u64, vs: Vec<u64>, out: &mut OutputSink<(u64, u64)>| {
                    out.emit((*k, vs.iter().copied().fold(0, u64::wrapping_add)));
                },
            )
            .unwrap()
    };
    let unbounded = run(ShuffleConfig::unbounded());
    let bounded = run(ShuffleConfig {
        spill_threshold: Some(16),
        ..ShuffleConfig::default()
    });
    assert_eq!(sorted(unbounded.output), sorted(bounded.output));
    assert!(bounded.stats.peak_buffered_records <= 16);
    // Without a combiner every record is shuffled; spilling rerouted most
    // of them through disk but changed no counts.
    assert_eq!(
        bounded.stats.shuffle_records,
        bounded.stats.map_output_records
    );
    assert!(bounded.stats.spilled_records > 4000);
}

#[test]
fn burst_emitting_mapper_is_still_bounded() {
    // One input record emits a burst far larger than the threshold: the
    // emit-time cap (not the between-records check) must hold the line.
    let input: Vec<u64> = (0..8).collect();
    let bounded = cluster(4, 2, 0)
        .with_shuffle_config(ShuffleConfig::bounded(50, 100))
        .run_combined(
            "spill.burst",
            &input,
            |n: &u64, e: &mut Emitter<u64, u64>| {
                for i in 0..3000u64 {
                    e.emit(i % 997, *n);
                }
            },
            &Dedup,
            |k: &u64, vs: Vec<u64>, out: &mut OutputSink<(u64, u64, u64)>| {
                out.emit((*k, vs.len() as u64, vs.iter().copied().min().unwrap()));
            },
        )
        .unwrap();
    assert!(
        bounded.stats.peak_buffered_records <= 100,
        "peak {} breached the hard cap",
        bounded.stats.peak_buffered_records
    );
    assert!(bounded.stats.spilled_records > 0);
    assert_eq!(bounded.stats.reduce_groups, 997);
}

#[test]
fn spilled_output_is_deterministic_across_thread_counts() {
    let input: Vec<u64> = (0..4000).collect();
    let run = |threads: usize| {
        cluster(16, threads, 0)
            .with_shuffle_config(ShuffleConfig::bounded(20, 40))
            .run(
                "spill.threads",
                &input,
                |n: &u64, e: &mut Emitter<u64, u64>| e.emit(n % 97, *n),
                |k: &u64, vs: Vec<u64>, out: &mut OutputSink<(u64, u64)>| {
                    out.emit((*k, vs.iter().copied().fold(0, u64::wrapping_add)));
                },
            )
            .unwrap()
            .output
    };
    // Stronger than multiset equality: the merge path's group order is a
    // pure function of data and partition count, so even the unsorted
    // concatenated output must match across thread counts.
    let reference = run(1);
    assert_eq!(run(2), reference);
    assert_eq!(run(8), reference);
}

#[test]
fn bounded_output_is_identical_across_partition_and_machine_counts() {
    let input: Vec<u64> = (0..3000).collect();
    let run = |machines: usize, partitions: usize, shuffle: ShuffleConfig| {
        sorted(
            cluster(machines, 4, partitions)
                .with_shuffle_config(shuffle)
                .run_combined(
                    "spill.partitions",
                    &input,
                    |n: &u64, e: &mut Emitter<u64, u64>| e.emit(n % 211, 1),
                    &Count,
                    |k: &u64, vs: Vec<u64>, out: &mut OutputSink<(u64, u64)>| {
                        out.emit((*k, vs.iter().sum()));
                    },
                )
                .unwrap()
                .output,
        )
    };
    let reference = run(16, 0, ShuffleConfig::unbounded());
    for (machines, partitions) in [(1, 1), (16, 7), (16, 64), (3, 0), (64, 100)] {
        assert_eq!(
            run(machines, partitions, ShuffleConfig::bounded(16, 32)),
            reference,
            "machines = {machines}, partitions = {partitions}"
        );
    }
}

#[test]
fn spill_dir_is_cleaned_up_after_the_job() {
    let base = std::env::temp_dir().join(format!("tsj-spill-test-{}", std::process::id()));
    std::fs::create_dir_all(&base).unwrap();
    let input: Vec<u64> = (0..2000).collect();
    let out = cluster(8, 4, 0)
        .with_shuffle_config(ShuffleConfig {
            combine_threshold: Some(16),
            spill_threshold: Some(32),
            spill_dir: Some(PathBuf::from(&base)),
            ..ShuffleConfig::default()
        })
        .run_combined(
            "spill.cleanup",
            &input,
            // Distinct keys: the periodic combine cannot shrink the
            // buffer, so the spill threshold must engage.
            |n: &u64, e: &mut Emitter<u64, u64>| e.emit(*n, 1),
            &Count,
            |k: &u64, vs: Vec<u64>, out: &mut OutputSink<(u64, u64)>| {
                out.emit((*k, vs.iter().sum()));
            },
        )
        .unwrap();
    assert!(out.stats.spilled_records > 0, "job must actually spill");
    let leftovers: Vec<_> = std::fs::read_dir(&base).unwrap().collect();
    assert!(
        leftovers.is_empty(),
        "spill segments must not outlive their job: {leftovers:?}"
    );
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn failed_map_side_spill_is_a_spill_error_under_every_transport() {
    // The spill directory sits under a regular file, so the first run a
    // map task's memory bound forces out cannot be written: the disk's
    // failure, whatever carries the shuffle — and not a worker panic.
    let base = std::env::temp_dir().join(format!("tsj-spill-fail-test-{}", std::process::id()));
    std::fs::create_dir_all(&base).unwrap();
    let blocker = base.join("not-a-directory");
    std::fs::write(&blocker, b"x").unwrap();
    let input: Vec<u64> = (0..2000).collect();
    for transport in [
        Transport::InProcess,
        Transport::MultiProcess,
        Transport::Remote,
    ] {
        let err = cluster(4, 2, 0)
            .with_shuffle_config(ShuffleConfig {
                spill_dir: Some(blocker.join("spill")),
                transport,
                ..ShuffleConfig::bounded(8, 16)
            })
            .run(
                "spill.unwritable",
                &input,
                |n: &u64, e: &mut Emitter<u64, u64>| e.emit(*n, 1),
                |k: &u64, _vs: Vec<u64>, out: &mut OutputSink<u64>| out.emit(*k),
            )
            .expect_err("no run can be written: the job cannot succeed");
        assert!(
            matches!(err, JobError::Spill { .. }),
            "{transport:?}: a failed spill write is a spill failure, got {err:?}"
        );
    }
    let leftovers: Vec<_> = std::fs::read_dir(&base)
        .unwrap()
        .map(|entry| entry.unwrap().file_name())
        .collect();
    assert_eq!(leftovers, ["not-a-directory"], "the failed jobs left files");
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn worker_panics_still_surface_with_spilling_enabled() {
    let input: Vec<u64> = (0..500).collect();
    let err = cluster(4, 2, 0)
        .with_shuffle_config(ShuffleConfig::bounded(8, 16))
        .run(
            "spill.panic",
            &input,
            |n: &u64, e: &mut Emitter<u64, u64>| {
                if *n == 300 {
                    panic!("poison record");
                }
                e.emit(n % 7, *n);
            },
            |_: &u64, _: Vec<u64>, _: &mut OutputSink<u64>| {},
        )
        .unwrap_err();
    match err {
        JobError::WorkerPanic { phase, message } => {
            assert_eq!(phase, "map");
            assert!(message.contains("poison record"));
        }
        other => panic!("expected a map worker panic, got {other:?}"),
    }
}

#[test]
fn string_keys_and_values_roundtrip_through_spill_files() {
    // Variable-length keys and values exercise the length-prefixed frames.
    let docs: Vec<String> = (0..400)
        .map(|i| format!("{} {}", "prefix".repeat(i % 9 + 1), i % 31))
        .collect();
    let run = |shuffle: ShuffleConfig| {
        sorted(
            cluster(8, 4, 0)
                .with_shuffle_config(shuffle)
                .run(
                    "spill.strings",
                    &docs,
                    |doc: &String, e: &mut Emitter<String, String>| {
                        let mut it = doc.split_whitespace();
                        let k = it.next().unwrap().to_owned();
                        let v = it.next().unwrap().to_owned();
                        e.emit(k, v);
                    },
                    |k: &String, mut vs: Vec<String>, out: &mut OutputSink<(String, String)>| {
                        vs.sort();
                        out.emit((k.clone(), vs.join(",")));
                    },
                )
                .unwrap()
                .output,
        )
    };
    assert_eq!(
        run(ShuffleConfig::unbounded()),
        run(ShuffleConfig::bounded(10, 20))
    );
}
