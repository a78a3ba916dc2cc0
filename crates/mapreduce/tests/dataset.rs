//! Integration tests of the lazy dataset job-graph API: recorded stages
//! execute at a terminal with cross-stage overlap, keep records inside
//! the runtime (driver counters prove it), spill their output under a
//! bounded shuffle, and produce output identical both to eager
//! stage-at-a-time execution and to the same jobs chained through driver
//! `Vec`s — while failures surface as structured `JobError`s and leave no
//! temp files behind.

use std::path::PathBuf;

mod helpers;

use tsj_mapreduce::{
    Cluster, ClusterConfig, Count, DatasetMode, Dedup, Emitter, JobError, OutputSink,
    ShuffleConfig, Transport,
};

fn cluster(threads: usize, partitions: usize, shuffle: ShuffleConfig) -> Cluster {
    Cluster::new(ClusterConfig {
        machines: 8,
        threads,
        partitions,
        ..ClusterConfig::default()
    })
    .with_shuffle_config(shuffle)
    .with_dataset_mode(DatasetMode::Lazy)
}

/// The two-stage pipeline under test (word count → count histogram),
/// chained through the runtime.
fn chained(c: &Cluster, docs: &[String]) -> (Vec<(u64, u64)>, tsj_mapreduce::SimReport) {
    let (mut out, report) = c
        .input(docs)
        .map_reduce_combined(
            "wordcount",
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
        .map_reduce_combined(
            "histogram",
            |&(_, n): &(String, u64), e: &mut Emitter<u64, u64>| e.emit(n, 1),
            &Count,
            |&n: &u64, ones: Vec<u64>, out: &mut OutputSink<(u64, u64)>| {
                out.emit((n, ones.iter().sum()));
            },
        )
        .unwrap()
        .collect()
        .unwrap();
    out.sort_unstable();
    (out, report)
}

/// The same two jobs as two separate one-stage plans (`run_combined` per
/// job) chained through a driver `Vec` — the reference the two-stage graph
/// must match.
fn collected(c: &Cluster, docs: &[String]) -> Vec<(u64, u64)> {
    let counts = c
        .run_combined(
            "wordcount",
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
        .unwrap();
    let mut out = c
        .run_combined(
            "histogram",
            &counts.output,
            |&(_, n): &(String, u64), e: &mut Emitter<u64, u64>| e.emit(n, 1),
            &Count,
            |&n: &u64, ones: Vec<u64>, out: &mut OutputSink<(u64, u64)>| {
                out.emit((n, ones.iter().sum()));
            },
        )
        .unwrap()
        .output;
    out.sort_unstable();
    out
}

fn docs(n: usize) -> Vec<String> {
    // Deterministic word soup with repeated and unique words.
    (0..n)
        .map(|i| format!("w{} w{} w{} common shared{}", i % 7, i % 13, i, i % 3))
        .collect()
}

#[test]
fn lazy_matches_eager_and_collected_chaining() {
    // The acceptance triangle at the runtime level: the lazy DAG
    // scheduler (cross-stage overlap), eager stage-at-a-time execution,
    // and driver-`Vec` chaining all produce byte-identical output across
    // the shuffle matrix.
    let input = docs(200);
    for shuffle in [
        ShuffleConfig::unbounded(),
        ShuffleConfig::bounded(16, 24),
        ShuffleConfig::unbounded().with_transport(Transport::MultiProcess),
        ShuffleConfig::bounded(8, 8).with_transport(Transport::MultiProcess),
    ] {
        for threads in [1usize, 4] {
            for partitions in [0usize, 3, 64] {
                let c = cluster(threads, partitions, shuffle.clone());
                let (lazy, _) = chained(&c, &input);
                let eager_cluster = c.clone().with_dataset_mode(DatasetMode::Eager);
                let (eager, _) = chained(&eager_cluster, &input);
                let reference = collected(&c, &input);
                assert_eq!(
                    lazy, reference,
                    "lazy vs collected: threads={threads} partitions={partitions} shuffle={shuffle:?}"
                );
                assert_eq!(
                    eager, reference,
                    "eager vs collected: threads={threads} partitions={partitions} shuffle={shuffle:?}"
                );
            }
        }
    }
}

#[test]
fn interior_stage_crosses_no_driver_records() {
    let input = docs(100);
    for shuffle in [ShuffleConfig::unbounded(), ShuffleConfig::bounded(8, 8)] {
        let c = cluster(4, 0, shuffle);
        let (out, report) = chained(&c, &input);
        assert!(!out.is_empty());
        let jobs = report.jobs();
        assert_eq!(jobs.len(), 2);
        // Stage 1 reads the driver input, hands nothing back.
        assert_eq!(jobs[0].name, "wordcount");
        assert_eq!(jobs[0].driver_in_records, input.len() as u64);
        assert_eq!(jobs[0].driver_out_records, 0, "interior stage leaked");
        // Stage 2 reads runtime partitions, and only its collect crosses.
        assert_eq!(jobs[1].name, "histogram");
        assert_eq!(jobs[1].driver_in_records, 0);
        assert_eq!(jobs[1].driver_out_records, out.len() as u64);
        assert_eq!(jobs[1].input_records, jobs[0].output_records);
        assert_eq!(
            report.total_driver_records(),
            input.len() as u64 + out.len() as u64
        );
    }
}

#[test]
fn bounded_stage_output_is_spilled_not_buffered() {
    // Under a spill threshold the interior stage's output partitions are
    // sorted-run files; the chain still produces identical output and the
    // mapper peak stays under the cap on every job.
    let input = docs(300);
    let threshold = 16;
    let c = cluster(4, 5, ShuffleConfig::bounded(16, threshold));
    let (got, report) = chained(&c, &input);
    let reference = collected(&cluster(4, 5, ShuffleConfig::unbounded()), &input);
    assert_eq!(got, reference);
    for j in report.jobs() {
        assert!(
            j.peak_buffered_records <= threshold as u64,
            "{}: peak {} over threshold",
            j.name,
            j.peak_buffered_records
        );
        assert_eq!(
            j.driver_out_records,
            if j.name == "histogram" {
                j.output_records
            } else {
                0
            }
        );
    }
}

#[test]
fn union_concatenates_partitions_and_reports() {
    // Eager runs both producers at their call, so the union joins two
    // materialized sides; lazy runs all three stages at the collect.
    for mode in [DatasetMode::Lazy, DatasetMode::Eager] {
        let c = cluster(4, 0, ShuffleConfig::unbounded()).with_dataset_mode(mode);
        let stage = |name: &str, lo: u64, hi: u64| {
            let ids: Vec<u64> = (lo..hi).collect();
            c.input(&ids)
                .map_reduce(
                    name,
                    |&n: &u64, e: &mut Emitter<u64, u64>| e.emit(n % 10, n),
                    |&k: &u64, vs: Vec<u64>, out: &mut OutputSink<(u64, u64)>| {
                        out.emit((k, vs.iter().sum()));
                    },
                )
                .unwrap()
        };
        let unioned = stage("left", 0, 100).union(stage("right", 100, 200));

        // A stage over the union sees both sides' records.
        let (mut totals, report) = unioned
            .map_reduce(
                "sum",
                |&(k, v): &(u64, u64), e: &mut Emitter<u64, u64>| e.emit(k, v),
                |&k: &u64, vs: Vec<u64>, out: &mut OutputSink<(u64, u64)>| {
                    out.emit((k, vs.iter().sum()));
                },
            )
            .unwrap()
            .collect()
            .unwrap();
        totals.sort_unstable();
        let expect: Vec<(u64, u64)> = (0..10u64)
            .map(|k| (k, (0..200u64).filter(|n| n % 10 == k).sum()))
            .collect();
        assert_eq!(totals, expect, "{mode:?}");
        let names: Vec<&str> = report.jobs().iter().map(|j| j.name.as_str()).collect();
        assert_eq!(names, ["left", "right", "sum"], "{mode:?}");
        assert_eq!(report.jobs()[0].output_records, 10, "{mode:?}");
        assert_eq!(report.jobs()[1].output_records, 10, "{mode:?}");
        assert_eq!(report.jobs()[2].input_records, 20, "{mode:?}");
        assert_eq!(report.jobs()[2].driver_in_records, 0, "{mode:?}");
        assert_eq!(report.jobs()[2].driver_out_records, 10, "{mode:?}");
    }
}

#[test]
fn fully_lazy_union_executes_at_the_terminal() {
    // Same graph as above but with *nothing* forced before collect: both
    // producers and the consumer stage run in one scheduled execution
    // (left's and right's reduce waves overlap sum's map wave).
    let c = cluster(4, 0, ShuffleConfig::unbounded());
    let ids_a: Vec<u64> = (0..100).collect();
    let ids_b: Vec<u64> = (100..200).collect();
    let stage = |ids: &[u64], name: &str| {
        c.input(ids)
            .map_reduce(
                name,
                |&n: &u64, e: &mut Emitter<u64, u64>| e.emit(n % 10, n),
                |&k: &u64, vs: Vec<u64>, out: &mut OutputSink<(u64, u64)>| {
                    out.emit((k, vs.iter().sum()));
                },
            )
            .unwrap()
    };
    let (mut totals, report) = stage(&ids_a, "left")
        .union(stage(&ids_b, "right"))
        .map_reduce(
            "sum",
            |&(k, v): &(u64, u64), e: &mut Emitter<u64, u64>| e.emit(k, v),
            |&k: &u64, vs: Vec<u64>, out: &mut OutputSink<(u64, u64)>| {
                out.emit((k, vs.iter().sum()));
            },
        )
        .unwrap()
        .collect()
        .unwrap();
    totals.sort_unstable();
    let expect: Vec<(u64, u64)> = (0..10u64)
        .map(|k| (k, (0..200u64).filter(|n| n % 10 == k).sum()))
        .collect();
    assert_eq!(totals, expect);
    // Report order is execution (build) order: left, right, sum.
    let names: Vec<&str> = report.jobs().iter().map(|j| j.name.as_str()).collect();
    assert_eq!(names, vec!["left", "right", "sum"]);
    assert_eq!(report.jobs()[2].driver_in_records, 0);
}

#[test]
fn repartition_rebalances_without_changing_the_record_multiset() {
    // Everything lands on one key, so the first stage's output is one fat
    // partition and the next stage's map wave is a single task. Eager mode
    // materializes that boundary; the automatic response spreads it.
    let ids: Vec<u64> = (0..500).collect();
    let run = |auto: Option<f64>| {
        let c = cluster(4, 0, ShuffleConfig::unbounded())
            .with_dataset_mode(DatasetMode::Eager)
            .with_auto_repartition(auto);
        let (mut out, report) = c
            .input(&ids)
            .map_reduce(
                "skewed",
                |&n: &u64, e: &mut Emitter<u64, u64>| e.emit(7, n),
                |_k: &u64, vs: Vec<u64>, out: &mut OutputSink<u64>| {
                    for v in vs {
                        out.emit(v);
                    }
                },
            )
            .unwrap()
            .map_reduce(
                "consume",
                |&n: &u64, e: &mut Emitter<u64, u64>| e.emit(n, n),
                |&k: &u64, _vs: Vec<u64>, out: &mut OutputSink<u64>| out.emit(k),
            )
            .unwrap()
            .collect()
            .unwrap();
        out.sort_unstable();
        (out, report)
    };
    let (plain, plain_report) = run(None);
    let (spread, report) = run(Some(1.5));
    // Record multiset is unchanged (placement is, so compare sorted).
    assert_eq!(spread, plain);
    assert_eq!(plain, ids);
    let repart_job = &report.jobs()[1];
    assert_eq!(repart_job.name, "repartition(8).auto");
    assert_eq!(repart_job.input_records, 500);
    assert_eq!(repart_job.output_records, 500);
    assert_eq!(repart_job.driver_in_records, 0, "repartition is interior");
    assert_eq!(repart_job.driver_out_records, 0, "repartition is interior");
    // The consumer's map wave went from one busy machine to several, so
    // its busiest machine carries less.
    let map_makespan = |r: &tsj_mapreduce::SimReport| r.jobs().last().unwrap().map.makespan_secs;
    assert!(
        map_makespan(&report) < map_makespan(&plain_report),
        "repartition must spread the fat partition: {} vs {}",
        map_makespan(&report),
        map_makespan(&plain_report)
    );
}

#[test]
fn repartition_is_invariant_for_downstream_stages() {
    // An automatic repartition between two stages must not change the
    // downstream stage's (sorted) output — across shuffle configs. Eager
    // mode materializes the boundary it measures; a ratio barely above
    // perfect balance makes any uneven word-count output trigger it.
    let input = docs(150);
    for shuffle in [
        ShuffleConfig::unbounded(),
        ShuffleConfig::bounded(8, 8).with_transport(Transport::MultiProcess),
    ] {
        let eager = cluster(4, 3, shuffle).with_dataset_mode(DatasetMode::Eager);
        let run = |ratio: Option<f64>| {
            let c = eager.clone().with_auto_repartition(ratio);
            let (mut out, report) = c
                .input(&input)
                .map_reduce_combined(
                    "wordcount",
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
                .map_reduce_combined(
                    "histogram",
                    |&(_, n): &(String, u64), e: &mut Emitter<u64, u64>| e.emit(n, 1),
                    &Count,
                    |&n: &u64, ones: Vec<u64>, out: &mut OutputSink<(u64, u64)>| {
                        out.emit((n, ones.iter().sum()));
                    },
                )
                .unwrap()
                .collect()
                .unwrap();
            out.sort_unstable();
            let names: Vec<&str> = report.jobs().iter().map(|j| j.name.as_str()).collect();
            (out, names.join(","))
        };
        let (plain, plain_jobs) = run(None);
        assert_eq!(plain_jobs, "wordcount,histogram");
        let (auto, auto_jobs) = run(Some(1.0001));
        assert_eq!(auto_jobs, "wordcount,repartition(3).auto,histogram");
        assert_eq!(auto, plain);
    }
}

#[test]
fn collecting_a_fresh_input_roundtrips() {
    let c = cluster(2, 0, ShuffleConfig::unbounded());
    let ids: Vec<u32> = (0..50).collect();
    let (out, report) = c.input(&ids).collect().unwrap();
    assert_eq!(out, ids);
    assert!(report.jobs().is_empty());
}

#[test]
fn empty_input_chains_cleanly() {
    let c = cluster(4, 0, ShuffleConfig::bounded(4, 4));
    let empty: Vec<u64> = Vec::new();
    let (out, report) = c
        .input(&empty)
        .map_reduce(
            "a",
            |&n: &u64, e: &mut Emitter<u64, u64>| e.emit(n, n),
            |&k: &u64, _vs: Vec<u64>, out: &mut OutputSink<u64>| out.emit(k),
        )
        .unwrap()
        .map_reduce(
            "b",
            |&n: &u64, e: &mut Emitter<u64, u64>| e.emit(n, n),
            |&k: &u64, _vs: Vec<u64>, out: &mut OutputSink<u64>| out.emit(k),
        )
        .unwrap()
        .collect()
        .unwrap();
    assert!(out.is_empty());
    assert_eq!(report.jobs().len(), 2);
    assert_eq!(report.total_driver_records(), 0);
}

#[test]
fn dedup_combiner_composes_with_chaining() {
    // A Dedup-combined interior stage (the TSJ candidate shape): pairs
    // keyed on themselves, deduplicated map-side and reduce-side.
    let c = cluster(4, 3, ShuffleConfig::bounded(8, 8));
    let ids: Vec<u32> = (0..60).collect();
    let (mut out, report) = c
        .input(&ids)
        .map_reduce_combined(
            "pairs",
            |&n: &u32, e: &mut Emitter<(u32, u32), ()>| {
                // Every input emits the same few pairs — heavy duplication.
                e.emit((n % 5, n % 5 + 1), ());
                e.emit((n % 5, n % 5 + 1), ());
            },
            &Dedup,
            |&pair: &(u32, u32), _hits: Vec<()>, out: &mut OutputSink<(u32, u32)>| out.emit(pair),
        )
        .unwrap()
        .map_reduce(
            "fanless",
            |&(a, b): &(u32, u32), e: &mut Emitter<u32, u32>| e.emit(a, b),
            |&a: &u32, mut bs: Vec<u32>, out: &mut OutputSink<(u32, u32)>| {
                bs.sort_unstable();
                bs.dedup();
                for b in bs {
                    out.emit((a, b));
                }
            },
        )
        .unwrap()
        .collect()
        .unwrap();
    out.sort_unstable();
    assert_eq!(out, (0..5u32).map(|a| (a, a + 1)).collect::<Vec<_>>());
    assert_eq!(report.jobs()[0].driver_out_records, 0);
    assert_eq!(report.jobs()[0].output_records, 5);
}

#[test]
fn union_of_fresh_inputs_books_driver_in_on_next_stage() {
    // Regression: a union folding driver inputs into partitions must not
    // lose their inbound crossing — the next stage books them all.
    let c = cluster(2, 0, ShuffleConfig::unbounded());
    let a: Vec<u64> = (0..30).collect();
    let b: Vec<u64> = (30..75).collect();
    let (out, report) = c
        .input(&a)
        .union(c.input(&b))
        .map_reduce(
            "first",
            |&n: &u64, e: &mut Emitter<u64, u64>| e.emit(n % 3, n),
            |&k: &u64, vs: Vec<u64>, out: &mut OutputSink<(u64, u64)>| {
                out.emit((k, vs.iter().sum()));
            },
        )
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(out.len(), 3);
    assert_eq!(report.jobs().len(), 1);
    assert_eq!(report.jobs()[0].driver_in_records, 75);
    assert_eq!(report.jobs()[0].input_records, 75);
    assert_eq!(report.jobs()[0].driver_out_records, 3);
}

// ---- Failure paths ------------------------------------------------------

/// A spill/stage/exchange base directory that cannot be used: the path
/// runs *through a file*, so `create_dir_all` fails with a real I/O error
/// even when the test runs as root (read-only permission bits would not).
fn unusable_dir_base() -> (helpers::Dir, PathBuf) {
    let dir = helpers::Dir::new("tsj-dataset-errors");
    let blocker = dir.path().join("not-a-dir");
    std::fs::write(&blocker, b"file in the way").unwrap();
    (dir, blocker)
}

#[test]
fn stage_output_sink_failure_surfaces_as_spill_error() {
    // Thresholds high enough that mappers never spill, so the first I/O
    // against the unusable base is the *stage-output sink* creating its
    // run file — which must fail the job with JobError::Spill, not kill
    // the process with a panic.
    let (_guard, blocker) = unusable_dir_base();
    let shuffle = ShuffleConfig {
        combine_threshold: Some(1_000_000),
        spill_threshold: Some(1_000_000),
        spill_dir: Some(blocker),
        ..ShuffleConfig::default()
    };
    let c = cluster(4, 3, shuffle);
    let ids: Vec<u64> = (0..100).collect();
    let err = c
        .input(&ids)
        .map_reduce(
            "sink-fails",
            |&n: &u64, e: &mut Emitter<u64, u64>| e.emit(n % 5, n),
            |&k: &u64, _vs: Vec<u64>, out: &mut OutputSink<u64>| out.emit(k),
        )
        .unwrap()
        .map_reduce(
            "never-runs",
            |&n: &u64, e: &mut Emitter<u64, u64>| e.emit(n, n),
            |&k: &u64, _vs: Vec<u64>, out: &mut OutputSink<u64>| out.emit(k),
        )
        .unwrap()
        .collect()
        .expect_err("unwritable stage-output dir must fail the job");
    assert!(
        matches!(err, JobError::Spill { .. }),
        "expected JobError::Spill, got {err:?}"
    );
    assert!(err.to_string().contains("spill I/O failed"), "{err}");
}

#[test]
fn worker_panic_in_a_lazy_graph_surfaces_once_and_skips_downstream() {
    let c = cluster(4, 0, ShuffleConfig::unbounded());
    let ids: Vec<u64> = (0..50).collect();
    let err = c
        .input(&ids)
        .map_reduce(
            "poisoned",
            |&n: &u64, e: &mut Emitter<u64, u64>| {
                if n == 33 {
                    panic!("poison record {n}");
                }
                e.emit(n, n);
            },
            |&k: &u64, _vs: Vec<u64>, out: &mut OutputSink<u64>| out.emit(k),
        )
        .unwrap()
        .map_reduce(
            "downstream",
            |&n: &u64, e: &mut Emitter<u64, u64>| e.emit(n, n),
            |&k: &u64, _vs: Vec<u64>, out: &mut OutputSink<u64>| out.emit(k),
        )
        .unwrap()
        .collect()
        .expect_err("upstream panic must fail the graph");
    match err {
        JobError::WorkerPanic { phase, message } => {
            assert_eq!(phase, "map");
            assert!(message.contains("poison record"), "{message}");
        }
        other => panic!("expected the upstream map panic, got {other:?}"),
    }
}

#[test]
fn failing_jobs_leave_the_spill_dir_empty() {
    // Regression for the temp-dir leak class: whatever wave a job dies in
    // — map panic, reduce panic, or a lazy graph failing mid-chain —
    // every per-job spill/exchange/stage-output directory is removed by
    // its RAII guard.
    let base = helpers::Dir::new("tsj-spill-cleanup");
    let shuffle = ShuffleConfig {
        combine_threshold: Some(4),
        spill_threshold: Some(4),
        spill_dir: Some(base.path().to_path_buf()),
        ..ShuffleConfig::default()
    }
    .with_transport(Transport::MultiProcess);
    let c = cluster(4, 3, shuffle);
    let ids: Vec<u64> = (0..200).collect();

    // Map-wave failure.
    let err = c
        .run(
            "map-dies",
            &ids,
            |&n: &u64, e: &mut Emitter<u64, u64>| {
                if n == 150 {
                    panic!("map poison");
                }
                e.emit(n % 7, n);
            },
            |&k: &u64, _vs: Vec<u64>, out: &mut OutputSink<u64>| out.emit(k),
        )
        .expect_err("map panic must fail the job");
    assert!(matches!(err, JobError::WorkerPanic { phase: "map", .. }));

    // Reduce-wave failure (spilled and published runs exist by then).
    let err = c
        .run(
            "reduce-dies",
            &ids,
            |&n: &u64, e: &mut Emitter<u64, u64>| e.emit(n % 7, n),
            |&k: &u64, _vs: Vec<u64>, _out: &mut OutputSink<u64>| {
                if k == 3 {
                    panic!("reduce poison");
                }
            },
        )
        .expect_err("reduce panic must fail the job");
    assert!(matches!(
        err,
        JobError::WorkerPanic {
            phase: "reduce",
            ..
        }
    ));

    // Lazy chain failing in its second stage.
    let err = c
        .input(&ids)
        .map_reduce(
            "ok-stage",
            |&n: &u64, e: &mut Emitter<u64, u64>| e.emit(n % 7, n),
            |&k: &u64, vs: Vec<u64>, out: &mut OutputSink<u64>| {
                out.emit(k + vs.len() as u64);
            },
        )
        .unwrap()
        .map_reduce(
            "chain-dies",
            |&n: &u64, e: &mut Emitter<u64, u64>| e.emit(n, n),
            |_k: &u64, _vs: Vec<u64>, _out: &mut OutputSink<u64>| panic!("chain poison"),
        )
        .unwrap()
        .collect()
        .expect_err("chained reduce panic must fail the graph");
    assert!(matches!(err, JobError::WorkerPanic { .. }));

    let leftovers: Vec<_> = std::fs::read_dir(base.path())
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert!(
        leftovers.is_empty(),
        "failing jobs leaked temp dirs: {leftovers:?}"
    );
}

#[test]
fn collecting_a_union_of_fresh_inputs_concatenates() {
    // Regression: a terminal on a union with no pending stages must
    // materialize it (left then right), not panic — in both modes.
    for mode in [DatasetMode::Lazy, DatasetMode::Eager] {
        let c = cluster(2, 0, ShuffleConfig::unbounded()).with_dataset_mode(mode);
        let a: Vec<u32> = (0..20).collect();
        let b: Vec<u32> = (20..30).collect();
        let (out, report) = c.input(&a).union(c.input(&b)).collect().unwrap();
        assert_eq!(out, (0..30).collect::<Vec<u32>>(), "{mode:?}");
        assert!(report.jobs().is_empty());
        // And with one executed side: still a clean concatenation.
        let left = c
            .input(&a)
            .map_reduce(
                "left",
                |&n: &u32, e: &mut Emitter<u32, u32>| e.emit(n % 3, n),
                |&k: &u32, _vs: Vec<u32>, out: &mut OutputSink<u32>| out.emit(k),
            )
            .unwrap();
        let (out, report) = left.union(c.input(&b)).collect().unwrap();
        assert_eq!(out.len(), 13, "{mode:?}");
        let mut head = out[..3].to_vec();
        head.sort_unstable();
        assert_eq!(head, [0, 1, 2], "{mode:?}");
        assert_eq!(out[3..], b[..], "{mode:?}");
        assert_eq!(report.jobs().len(), 1, "{mode:?}");
    }
}
