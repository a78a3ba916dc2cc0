//! Integration tests of the worker-pool scheduler: both scheduling
//! policies (priority work stealing, with and without speculative
//! re-execution) produce byte-identical output at every thread count; a
//! seeded straggler is beaten by a speculative copy (first completed
//! result wins, the loser is dropped); a reduce task over in-memory
//! segments is never offered for speculation; and the automatic skew
//! response inserts a repartition stage behind a skewed materialized
//! boundary without changing the output.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;

use tsj_mapreduce::{
    Cluster, ClusterConfig, Count, DatasetMode, Emitter, OutputSink, SchedulerConfig,
    SchedulerMode, ShuffleConfig, StraggleInjection, Transport,
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

fn stealing() -> SchedulerConfig {
    SchedulerConfig {
        mode: SchedulerMode::Stealing,
        ..SchedulerConfig::default()
    }
}

/// The two-stage pipeline under test (word count → count histogram).
/// Returns *unsorted* output so the assertions pin record order, not
/// just the multiset.
fn chained(c: &Cluster, docs: &[String]) -> (Vec<(u64, u64)>, tsj_mapreduce::SimReport) {
    c.input(docs)
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
        .unwrap()
}

fn docs(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| format!("w{} w{} w{} common shared{}", i % 7, i % 13, i, i % 3))
        .collect()
}

#[test]
fn scheduler_modes_are_byte_identical() {
    // The non-negotiable invariant: scheduling policy and worker count
    // change wall-clock behaviour and observability counters, never
    // output bytes or order. The reference is the one-worker stealing
    // pool, which just pops its own deque in priority order.
    let input = docs(120);
    let speculative = SchedulerConfig {
        mode: SchedulerMode::Speculative,
        speculate_after: Duration::from_millis(1),
        straggle: None,
    };
    for shuffle in [
        ShuffleConfig::unbounded(),
        ShuffleConfig::bounded(8, 8).with_transport(Transport::MultiProcess),
    ] {
        for partitions in [0usize, 5] {
            let (reference, _) = chained(
                &cluster(1, partitions, shuffle.clone()).with_scheduler(stealing()),
                &input,
            );
            for threads in [1usize, 4] {
                for sched in [stealing(), speculative.clone()] {
                    let mode = sched.mode;
                    let c = cluster(threads, partitions, shuffle.clone()).with_scheduler(sched);
                    let (out, report) = chained(&c, &input);
                    assert_eq!(
                        out, reference,
                        "{mode:?}: threads={threads} partitions={partitions} shuffle={shuffle:?}"
                    );
                    if mode != SchedulerMode::Speculative {
                        assert_eq!(report.total_speculative_launched(), 0);
                    }
                    assert_eq!(
                        report.total_speculative_won(),
                        report.jobs().iter().map(|j| j.speculative_won).sum::<u64>()
                    );
                }
            }
        }
    }
}

#[test]
fn in_memory_reduce_tasks_are_never_speculated() {
    // Under an unbounded in-process shuffle every reduce segment is an
    // in-memory buffer, which grouping consumes: such a task must run
    // exactly once even with a zero speculation threshold and idle
    // workers (4 threads, 3 partitions) watching it sleep. Map tasks
    // *are* replayable here, so copies do launch around the reducers.
    let input = docs(96);
    let run = |sched: SchedulerConfig| {
        let reduced: Mutex<HashMap<String, u32>> = Mutex::new(HashMap::new());
        let c = cluster(4, 3, ShuffleConfig::unbounded()).with_scheduler(sched);
        let (out, report) = c
            .input(&input)
            .map_reduce(
                "wordcount",
                |doc: &String, e: &mut Emitter<String, u64>| {
                    for w in doc.split_whitespace() {
                        e.emit(w.to_owned(), 1);
                    }
                },
                |w: &String, counts: Vec<u64>, out: &mut OutputSink<(String, u64)>| {
                    std::thread::sleep(Duration::from_micros(200));
                    *reduced.lock().unwrap().entry(w.clone()).or_insert(0) += 1;
                    out.emit((w.clone(), counts.iter().sum()));
                },
            )
            .unwrap()
            .map_reduce(
                "histogram",
                |&(_, n): &(String, u64), e: &mut Emitter<u64, u64>| e.emit(n, 1),
                |&n: &u64, ones: Vec<u64>, out: &mut OutputSink<(u64, u64)>| {
                    *reduced.lock().unwrap().entry(format!("#{n}")).or_insert(0) += 1;
                    out.emit((n, ones.iter().sum()));
                },
            )
            .unwrap()
            .collect()
            .unwrap();
        (out, report, reduced.into_inner().unwrap())
    };
    let (reference, _, _) = run(stealing());
    let (out, report, reduced) = run(SchedulerConfig {
        mode: SchedulerMode::Speculative,
        speculate_after: Duration::ZERO,
        straggle: None,
    });
    assert_eq!(out, reference, "speculation must not perturb output");
    assert!(!reduced.is_empty());
    for (key, times) in &reduced {
        assert_eq!(*times, 1, "group {key:?} was reduced {times} times");
    }
    for job in report.jobs() {
        assert!(
            job.speculative_won <= job.speculative_launched,
            "{}: won {} > launched {}",
            job.name,
            job.speculative_won,
            job.speculative_launched
        );
    }
}

#[test]
fn speculation_beats_a_seeded_straggler() {
    // Map task 0 of "wordcount" sleeps 600ms on its primary attempt
    // only (a slow *node*, not slow *data*). An idle worker must launch
    // a speculative copy after 5ms, the copy's result must win, and the
    // wave barrier must release long before the straggler wakes — all
    // without changing a byte of output.
    let input = docs(64);
    let shuffle = ShuffleConfig::unbounded();
    let reference = chained(
        &cluster(4, 3, shuffle.clone()).with_scheduler(stealing()),
        &input,
    )
    .0;

    let straggle_us = 600_000;
    let c = cluster(4, 3, shuffle).with_scheduler(SchedulerConfig {
        mode: SchedulerMode::Speculative,
        speculate_after: Duration::from_millis(5),
        straggle: Some(StraggleInjection {
            stage: "wordcount".into(),
            micros: straggle_us,
        }),
    });
    let (out, report) = chained(&c, &input);
    assert_eq!(out, reference, "first-result-wins must not perturb output");

    let wordcount = report
        .jobs()
        .iter()
        .find(|j| j.name == "wordcount")
        .expect("wordcount job in report");
    assert!(
        wordcount.speculative_launched >= 1,
        "no speculative copy launched: {wordcount:?}"
    );
    assert!(
        wordcount.speculative_won >= 1,
        "the speculative copy should beat a 600ms straggler: {wordcount:?}"
    );
    // The straggling primary still holds its worker for the full sleep,
    // but the stage must complete off the speculative copy well before
    // that: the whole wave is sub-millisecond work plus the 5ms
    // speculation threshold.
    assert!(
        wordcount.wall_secs < straggle_us as f64 / 1e6 * 0.75,
        "stage should not have waited out the straggler: wall={}s",
        wordcount.wall_secs
    );
}

#[test]
fn straggler_without_speculation_waits_out_the_sleep() {
    // Control for the test above: same injection under plain stealing
    // has nothing to rescue the wave, so the stage wall clock eats the
    // whole sleep. This pins that the injection actually fires.
    let input = docs(16);
    let c = cluster(4, 2, ShuffleConfig::unbounded()).with_scheduler(SchedulerConfig {
        mode: SchedulerMode::Stealing,
        speculate_after: Duration::from_millis(5),
        straggle: Some(StraggleInjection {
            stage: "wordcount".into(),
            micros: 100_000,
        }),
    });
    let reference = chained(&cluster(4, 2, ShuffleConfig::unbounded()), &input).0;
    let (out, report) = chained(&c, &input);
    assert_eq!(out, reference);
    let wordcount = report
        .jobs()
        .iter()
        .find(|j| j.name == "wordcount")
        .expect("wordcount job in report");
    assert!(
        wordcount.wall_secs >= 0.1,
        "the injected 100ms sleep should dominate the stage: wall={}s",
        wordcount.wall_secs
    );
    assert_eq!(wordcount.speculative_launched, 0);
    assert_eq!(wordcount.speculative_won, 0);
}

/// Eager execution materializes every stage boundary, which is where
/// the automatic skew response can measure partition sizes.
fn eager(auto_repartition: Option<f64>) -> Cluster {
    cluster(4, 4, ShuffleConfig::unbounded())
        .with_dataset_mode(DatasetMode::Eager)
        .with_auto_repartition(auto_repartition)
}

/// A first stage whose reduce routes every record through `key(n)`,
/// followed by a per-record doubling stage; returns the sorted output.
fn routed_then_double(
    c: &Cluster,
    input: &[u64],
    key: fn(u64) -> u64,
) -> (Vec<u64>, tsj_mapreduce::SimReport) {
    let (mut out, report) = c
        .input(input)
        .map_reduce(
            "route",
            move |&n: &u64, e: &mut Emitter<u64, u64>| e.emit(key(n), n),
            |_: &u64, ns: Vec<u64>, out: &mut OutputSink<u64>| {
                for n in ns {
                    out.emit(n);
                }
            },
        )
        .unwrap()
        .map_reduce(
            "double",
            |&n: &u64, e: &mut Emitter<u64, u64>| e.emit(n, n),
            |_: &u64, ns: Vec<u64>, out: &mut OutputSink<u64>| {
                for n in ns {
                    out.emit(n * 2);
                }
            },
        )
        .unwrap()
        .collect()
        .unwrap();
    out.sort_unstable();
    (out, report)
}

fn job_names(report: &tsj_mapreduce::SimReport) -> Vec<&str> {
    report.jobs().iter().map(|j| j.name.as_str()).collect()
}

#[test]
fn auto_repartition_spreads_a_skewed_eager_boundary() {
    // A constant key puts every record of the first stage in one
    // partition (sizes [N,0,0,0] → skew 4.0): the planner must insert the
    // hidden stage, move every record through it once, and leave the
    // output what it is with auto-repartition off.
    let input: Vec<u64> = (0..200).collect();
    let (auto_out, auto_report) = routed_then_double(&eager(Some(1.5)), &input, |_| 0);
    let (plain_out, plain_report) = routed_then_double(&eager(None), &input, |_| 0);

    assert_eq!(
        job_names(&auto_report),
        ["route", "repartition(4).auto", "double"]
    );
    let auto_job = &auto_report.jobs()[1];
    assert_eq!(auto_job.input_records, 200);
    assert_eq!(auto_job.output_records, 200);
    assert_eq!(job_names(&plain_report), ["route", "double"]);
    assert_eq!(auto_out, plain_out, "auto repartition changed the output");
}

#[test]
fn auto_repartition_stays_out_of_balanced_boundaries() {
    // A well-spread stage output must not trigger the skew response.
    let input: Vec<u64> = (0..200).collect();
    let (_, report) = routed_then_double(&eager(Some(4.0)), &input, |n| n);
    assert_eq!(job_names(&report), ["route", "double"]);
}
