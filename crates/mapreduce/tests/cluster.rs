//! End-to-end tests of the MapReduce runtime: correctness of the
//! map/shuffle/reduce semantics, the simulated clock's qualitative
//! behaviour (scaling, skew), and failure injection.

use tsj_mapreduce::{
    Cluster, ClusterConfig, CostModel, Emitter, JobError, OutputSink, PlanCheck, SchedulerConfig,
    SchedulerMode, ShuffleConfig,
};

fn test_cluster(machines: usize) -> Cluster {
    Cluster::new(ClusterConfig {
        machines,
        threads: 4,
        partitions: 0,
        cost: CostModel {
            job_startup_secs: 0.0,
            map_worker_startup_secs: 0.0,
            reduce_group_overhead_secs: 0.0,
            verify_group_overhead_secs: 0.0,
            shuffle_secs_per_record: 0.0,
            spill_secs_per_byte: 0.0,
            transport_secs_per_byte: 0.0,
            cpu_scale: 1.0,
            work_unit_secs: 1e-6, // compute is the only charge: declared work × this
        },
    })
}

#[test]
fn word_count() {
    let docs = vec![
        "the quick brown fox".to_owned(),
        "the lazy dog".to_owned(),
        "the quick dog".to_owned(),
    ];
    let result = test_cluster(8)
        .run(
            "wordcount",
            &docs,
            |doc: &String, e: &mut Emitter<String, u64>| {
                for w in doc.split_whitespace() {
                    e.emit(w.to_owned(), 1);
                }
            },
            |word: &String, counts: Vec<u64>, out: &mut OutputSink<(String, u64)>| {
                out.emit((word.clone(), counts.iter().sum()));
            },
        )
        .unwrap();

    // The job is a one-stage plan: the slice crosses into the runtime at
    // the stage, the output crosses back at the collect, and both are booked.
    assert_eq!(result.stats.driver_in_records, docs.len() as u64);
    assert_eq!(result.stats.driver_out_records, result.output.len() as u64);
    let mut counts = result.output;
    counts.sort();
    assert_eq!(
        counts,
        vec![
            ("brown".into(), 1),
            ("dog".into(), 2),
            ("fox".into(), 1),
            ("lazy".into(), 1),
            ("quick".into(), 2),
            ("the".into(), 3),
        ]
    );
    assert_eq!(result.stats.input_records, 3);
    assert_eq!(result.stats.map_output_records, 10);
    assert_eq!(result.stats.reduce_groups, 6);
    assert_eq!(result.stats.max_group_size, 3); // "the"
    assert_eq!(result.stats.output_records, 6);
}

#[test]
fn empty_input_runs_cleanly() {
    let input: Vec<u32> = vec![];
    let r = test_cluster(4)
        .run(
            "empty",
            &input,
            |_: &u32, _: &mut Emitter<u32, u32>| {},
            |_: &u32, _: Vec<u32>, _: &mut OutputSink<u32>| {},
        )
        .unwrap();
    assert!(r.output.is_empty());
    assert_eq!(r.stats.reduce_groups, 0);
}

#[test]
fn empty_input_is_a_plan_diagnostic_like_in_any_other_plan() {
    // `run` inherits the cluster's plan check: a statically empty input is
    // tolerated under warn and fails before executing under deny.
    let run_with = |check: PlanCheck| {
        test_cluster(4).with_plan_check(check).run(
            "empty",
            &[] as &[u32],
            |_: &u32, _: &mut Emitter<u32, u32>| {},
            |_: &u32, _: Vec<u32>, _: &mut OutputSink<u32>| {},
        )
    };
    assert!(run_with(PlanCheck::Warn).unwrap().output.is_empty());
    match run_with(PlanCheck::Deny) {
        Err(JobError::Plan { message }) => assert!(message.contains("empty-input"), "{message}"),
        other => panic!("expected a plan error, got {other:?}"),
    }
}

#[test]
fn values_reach_reducer_grouped_by_key() {
    let input: Vec<u64> = (0..1000).collect();
    let r = test_cluster(16)
        .run(
            "group",
            &input,
            |n: &u64, e: &mut Emitter<u64, u64>| e.emit(n % 7, *n),
            |k: &u64, vs: Vec<u64>, out: &mut OutputSink<(u64, usize, u64)>| {
                out.emit((*k, vs.len(), vs.iter().sum()));
            },
        )
        .unwrap();
    assert_eq!(r.output.len(), 7);
    let mut out = r.output;
    out.sort();
    for (k, n, sum) in out {
        let expect: Vec<u64> = (0..1000).filter(|v| v % 7 == k).collect();
        assert_eq!(n, expect.len());
        assert_eq!(sum, expect.iter().sum::<u64>());
    }
}

#[test]
fn counters_aggregate_across_phases() {
    let input: Vec<u32> = (0..100).collect();
    let r = test_cluster(4)
        .run(
            "counters",
            &input,
            |n: &u32, e: &mut Emitter<u32, u32>| {
                e.add_counter("mapped", 1);
                if n.is_multiple_of(2) {
                    e.emit(*n, *n);
                }
            },
            |_: &u32, vs: Vec<u32>, out: &mut OutputSink<u32>| {
                out.add_counter("reduced_values", vs.len() as u64);
                out.emit(vs[0]);
            },
        )
        .unwrap();
    assert_eq!(r.stats.counter("mapped"), 100);
    assert_eq!(r.stats.counter("reduced_values"), 50);
}

/// [`test_cluster`] under each scheduler mode. The speculative one is
/// eager (zero threshold) and spills everything, so its reduce tasks are
/// replayable too and copies of the panicking task may launch in either
/// wave.
fn test_clusters_per_mode(machines: usize) -> [Cluster; 2] {
    let speculative = SchedulerConfig {
        mode: SchedulerMode::Speculative,
        speculate_after: std::time::Duration::ZERO,
        straggle: None,
    };
    [
        test_cluster(machines).with_scheduler(SchedulerConfig::default()),
        test_cluster(machines)
            .with_scheduler(speculative)
            .with_shuffle_config(ShuffleConfig::bounded(4, 4)),
    ]
}

#[test]
fn map_panic_surfaces_as_job_error() {
    let input: Vec<u32> = (0..64).collect();
    for cluster in test_clusters_per_mode(4) {
        let err = cluster
            .run(
                "bad-map",
                &input,
                |n: &u32, _: &mut Emitter<u32, u32>| {
                    if *n == 33 {
                        panic!("poison record {n}");
                    }
                },
                |_: &u32, _: Vec<u32>, _: &mut OutputSink<u32>| {},
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
}

#[test]
fn reduce_panic_surfaces_as_job_error() {
    let input: Vec<u32> = (0..64).collect();
    for cluster in test_clusters_per_mode(4) {
        let err = cluster
            .run(
                "bad-reduce",
                &input,
                |n: &u32, e: &mut Emitter<u32, u32>| e.emit(*n, *n),
                |k: &u32, _: Vec<u32>, _: &mut OutputSink<u32>| {
                    if *k == 7 {
                        panic!("bad group");
                    }
                },
            )
            .unwrap_err();
        match err {
            JobError::WorkerPanic { phase, .. } => assert_eq!(phase, "reduce"),
            other => panic!("expected a reduce worker panic, got {other:?}"),
        }
    }
}

#[test]
fn simulated_time_scales_down_with_machines() {
    // A CPU-bound job: simulated makespan should shrink as machines grow
    // (sub-linearly, because of per-job fixed costs — the Fig. 1 shape).
    let input: Vec<u64> = (0..4000).collect();
    let run = |machines: usize| {
        let cluster = Cluster::new(ClusterConfig {
            machines,
            threads: 4,
            partitions: 0,
            cost: CostModel {
                job_startup_secs: 1.0,
                map_worker_startup_secs: 0.0,
                reduce_group_overhead_secs: 1e-5,
                verify_group_overhead_secs: 1e-5,
                shuffle_secs_per_record: 1e-6,
                spill_secs_per_byte: 0.0,
                transport_secs_per_byte: 0.0,
                cpu_scale: 1.0,
                work_unit_secs: 1e-6,
            },
        });
        cluster
            .run(
                "scale",
                &input,
                |n: &u64, e: &mut Emitter<u64, u64>| {
                    // CPU-bound work, declared so the clock charges it.
                    let mut acc = *n;
                    for i in 0..2_000u64 {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
                    }
                    e.add_work(2_000);
                    e.emit(n % 512, acc);
                },
                |_: &u64, vs: Vec<u64>, out: &mut OutputSink<u64>| {
                    out.emit(vs.iter().copied().fold(0, u64::wrapping_add));
                },
            )
            .unwrap()
            .stats
    };
    let s100 = run(100);
    let s1000 = run(1000);
    assert!(
        s1000.sim_total_secs < s100.sim_total_secs,
        "1000 machines ({:.4}s) should beat 100 machines ({:.4}s)",
        s1000.sim_total_secs,
        s100.sim_total_secs
    );
    // Speedup is sub-linear: fixed startup dominates eventually.
    let speedup = s100.sim_total_secs / s1000.sim_total_secs;
    assert!(
        speedup < 10.0,
        "speedup {speedup} cannot exceed the machine ratio"
    );
}

#[test]
fn hot_key_shows_up_as_reduce_skew() {
    let input: Vec<u64> = (0..2000).collect();
    let run_with_keys = |hot: bool| {
        test_cluster(64)
            .run(
                "skew",
                &input,
                move |n: &u64, e: &mut Emitter<u64, u64>| {
                    // hot: 50% of records share one key; uniform otherwise.
                    let key = if hot && n.is_multiple_of(2) {
                        0
                    } else {
                        n % 256
                    };
                    e.emit(key, *n);
                },
                |_: &u64, vs: Vec<u64>, out: &mut OutputSink<u64>| {
                    // Work proportional to group size (like verification),
                    // declared so the clock charges it.
                    let mut acc = 0u64;
                    for v in &vs {
                        for i in 0..200u64 {
                            acc = acc.wrapping_mul(31).wrapping_add(v + i);
                        }
                    }
                    out.add_work(200 * vs.len() as u64);
                    out.emit(acc);
                },
            )
            .unwrap()
            .stats
    };
    let uniform = run_with_keys(false);
    let skewed = run_with_keys(true);
    assert!(
        skewed.reduce.skew > uniform.reduce.skew,
        "hot key must raise skew: {} vs {}",
        skewed.reduce.skew,
        uniform.reduce.skew
    );
    assert!(skewed.max_group_size >= 1000);
}

#[test]
fn group_overhead_charges_per_group() {
    // Same data, two cost models: per-group overhead must raise simulated
    // time by (groups / machines)·overhead on the busiest machine.
    let input: Vec<u64> = (0..512).collect();
    let run = |overhead: f64| {
        Cluster::new(ClusterConfig {
            machines: 1, // all groups on one machine → clean arithmetic
            threads: 2,
            partitions: 0,
            cost: CostModel {
                job_startup_secs: 0.0,
                map_worker_startup_secs: 0.0,
                reduce_group_overhead_secs: overhead,
                verify_group_overhead_secs: overhead,
                shuffle_secs_per_record: 0.0,
                spill_secs_per_byte: 0.0,
                transport_secs_per_byte: 0.0,
                cpu_scale: 1.0,
                work_unit_secs: 1e-6,
            },
        })
        .run(
            "overhead",
            &input,
            |n: &u64, e: &mut Emitter<u64, ()>| e.emit(*n, ()),
            |_: &u64, _: Vec<()>, out: &mut OutputSink<()>| out.emit(()),
        )
        .unwrap()
        .stats
    };
    let cheap = run(0.0);
    let costly = run(0.01);
    let delta = costly.sim_total_secs - cheap.sim_total_secs;
    // 512 groups × 0.01s = 5.12 simulated seconds; the compute charge is
    // declared work, the same in both runs.
    assert!(
        (delta - 5.12).abs() < 1e-9,
        "expected ≈5.12s of group overhead, got {delta}"
    );
}

#[test]
fn simulated_clock_never_sees_wall_time() {
    // One map task sleeps: real time no thread count can hide. The
    // simulated clock charges declared work only, so it is bit-identical
    // across thread counts, and with compute priced at zero it is the
    // fixed overheads alone.
    let input: Vec<u64> = (0..64).collect();
    let run = |threads: usize, work_unit_secs: f64| {
        Cluster::new(ClusterConfig {
            machines: 8,
            threads,
            partitions: 0,
            cost: CostModel {
                job_startup_secs: 4.0,
                map_worker_startup_secs: 1.0,
                reduce_group_overhead_secs: 0.0,
                verify_group_overhead_secs: 0.0,
                shuffle_secs_per_record: 0.0,
                spill_secs_per_byte: 0.0,
                transport_secs_per_byte: 0.0,
                cpu_scale: 1.0,
                work_unit_secs,
            },
        })
        .run(
            "clock",
            &input,
            |n: &u64, e: &mut Emitter<u64, u64>| {
                if *n == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                e.emit(n % 8, *n);
            },
            |_: &u64, vs: Vec<u64>, out: &mut OutputSink<u64>| out.emit(vs.iter().sum()),
        )
        .unwrap()
        .stats
        .sim_total_secs
    };
    let charged = run(1, 1e-6);
    assert!(charged > 5.0, "declared work must be charged: {charged}");
    assert_eq!(charged.to_bits(), run(4, 1e-6).to_bits());
    assert_eq!(run(4, 0.0).to_bits(), 5.0f64.to_bits());
}

#[test]
fn deterministic_output_multiset_across_runs() {
    let input: Vec<u64> = (0..3000).collect();
    let run = || {
        let mut out = test_cluster(32)
            .run(
                "det",
                &input,
                |n: &u64, e: &mut Emitter<u64, u64>| e.emit(n % 97, n * 3),
                |k: &u64, mut vs: Vec<u64>, out: &mut OutputSink<(u64, u64)>| {
                    vs.sort_unstable();
                    out.emit((*k, vs.iter().fold(0, |a, b| a ^ b)));
                },
            )
            .unwrap()
            .output;
        out.sort_unstable();
        out
    };
    assert_eq!(run(), run());
}

// ---- Partitioned shuffle + combiner -----------------------------------

#[test]
fn combined_wordcount_matches_plain_and_shrinks_shuffle() {
    use tsj_mapreduce::Count;
    let docs: Vec<String> = (0..500)
        .map(|i| format!("the quick token{} the the", i % 37))
        .collect();
    let map = |doc: &String, e: &mut Emitter<String, u64>| {
        for w in doc.split_whitespace() {
            e.emit(w.to_owned(), 1);
        }
    };
    let reduce = |word: &String, counts: Vec<u64>, out: &mut OutputSink<(String, u64)>| {
        out.emit((word.clone(), counts.iter().sum()));
    };
    let cluster = test_cluster(8);
    let plain = cluster.run("wc.plain", &docs, map, reduce).unwrap();
    let combined = cluster
        .run_combined("wc.combined", &docs, map, &Count, reduce)
        .unwrap();

    let sort = |mut v: Vec<(String, u64)>| {
        v.sort();
        v
    };
    assert_eq!(sort(plain.output), sort(combined.output));
    // No combiner: every emitted pair is shuffled.
    assert_eq!(plain.stats.shuffle_records, plain.stats.map_output_records);
    // Combiner: strictly fewer records shuffled ("the" repeats per task).
    assert_eq!(
        combined.stats.map_output_records,
        plain.stats.map_output_records
    );
    assert!(
        combined.stats.shuffle_records < combined.stats.map_output_records,
        "combiner did not shrink the shuffle: {} vs {}",
        combined.stats.shuffle_records,
        combined.stats.map_output_records
    );
    // Reduce groups are unchanged — combining folds values, not keys.
    assert_eq!(plain.stats.reduce_groups, combined.stats.reduce_groups);
}

#[test]
fn shuffle_cost_charged_on_post_combine_records() {
    use tsj_mapreduce::Count;
    // Zero out everything except the shuffle so the simulated time is
    // exactly shuffle_secs_per_record × shuffled / machines.
    let cluster = Cluster::new(ClusterConfig {
        machines: 4,
        threads: 2,
        partitions: 0,
        cost: CostModel {
            job_startup_secs: 0.0,
            map_worker_startup_secs: 0.0,
            reduce_group_overhead_secs: 0.0,
            verify_group_overhead_secs: 0.0,
            shuffle_secs_per_record: 1.0,
            spill_secs_per_byte: 0.0,
            transport_secs_per_byte: 0.0,
            cpu_scale: 0.0,
            work_unit_secs: 1e-9,
        },
    });
    let input: Vec<u64> = (0..1000).collect();
    let map = |n: &u64, e: &mut Emitter<u64, u64>| e.emit(n % 10, 1);
    let reduce = |_: &u64, vs: Vec<u64>, out: &mut OutputSink<u64>| {
        out.emit(vs.iter().sum());
    };
    let plain = cluster.run("cost.plain", &input, map, reduce).unwrap();
    let combined = cluster
        .run_combined("cost.combined", &input, map, &Count, reduce)
        .unwrap();
    assert!((plain.stats.shuffle_secs - 1000.0 / 4.0).abs() < 1e-9);
    let expected = combined.stats.shuffle_records as f64 / 4.0;
    assert!((combined.stats.shuffle_secs - expected).abs() < 1e-9);
    assert!(
        combined.stats.sim_total_secs < plain.stats.sim_total_secs,
        "post-combine charging must lower the simulated cost: {} vs {}",
        combined.stats.sim_total_secs,
        plain.stats.sim_total_secs
    );
}

#[test]
fn dedup_combiner_preserves_distinct_values() {
    use tsj_mapreduce::Dedup;
    // Each key sees duplicated values; the reducer collects the distinct
    // set, so map-side dedup must not change its output.
    let input: Vec<u64> = (0..2000).collect();
    let map = |n: &u64, e: &mut Emitter<u64, u64>| {
        e.emit(n % 50, n % 7);
        e.emit(n % 50, n % 7); // duplicate on purpose
    };
    let reduce = |k: &u64, vs: Vec<u64>, out: &mut OutputSink<(u64, Vec<u64>)>| {
        let mut distinct = vs;
        distinct.sort_unstable();
        distinct.dedup();
        out.emit((*k, distinct));
    };
    let cluster = test_cluster(16);
    let plain = cluster.run("dedup.plain", &input, map, reduce).unwrap();
    let combined = cluster
        .run_combined("dedup.combined", &input, map, &Dedup, reduce)
        .unwrap();
    let sort = |mut v: Vec<(u64, Vec<u64>)>| {
        v.sort();
        v
    };
    assert_eq!(sort(plain.output), sort(combined.output));
    assert!(combined.stats.shuffle_records < plain.stats.shuffle_records);
}

#[test]
fn output_identical_across_threads_and_partitions() {
    use tsj_mapreduce::Count;
    let input: Vec<u64> = (0..5000).collect();
    let run_with = |threads: usize, partitions: usize| {
        let cluster = Cluster::new(ClusterConfig {
            machines: 32,
            threads,
            partitions,
            cost: CostModel::default(),
        });
        let mut out = cluster
            .run_combined(
                "invariance",
                &input,
                |n: &u64, e: &mut Emitter<u64, u64>| e.emit(n % 211, 1),
                &Count,
                |k: &u64, vs: Vec<u64>, out: &mut OutputSink<(u64, u64)>| {
                    out.emit((*k, vs.iter().sum()));
                },
            )
            .unwrap()
            .output;
        out.sort_unstable();
        out
    };
    let reference = run_with(1, 0);
    for threads in [2, 8] {
        assert_eq!(run_with(threads, 0), reference, "threads = {threads}");
    }
    for partitions in [1, 7, 32, 100] {
        assert_eq!(
            run_with(4, partitions),
            reference,
            "partitions = {partitions}"
        );
    }
}

#[test]
fn thread_count_does_not_change_output_order_either() {
    // Stronger than multiset equality: the concatenated reducer output is
    // deterministic (partition order × key-fingerprint group order), so
    // even the unsorted output must match across thread counts.
    let input: Vec<u64> = (0..4000).collect();
    let run_with = |threads: usize| {
        Cluster::new(ClusterConfig {
            machines: 16,
            threads,
            partitions: 0,
            cost: CostModel::default(),
        })
        .run(
            "order",
            &input,
            |n: &u64, e: &mut Emitter<u64, u64>| e.emit(n % 97, *n),
            |k: &u64, vs: Vec<u64>, out: &mut OutputSink<(u64, u64)>| {
                out.emit((*k, vs.iter().copied().fold(0, u64::wrapping_add)));
            },
        )
        .unwrap()
        .output
    };
    let reference = run_with(1);
    assert_eq!(run_with(2), reference);
    assert_eq!(run_with(8), reference);
}
