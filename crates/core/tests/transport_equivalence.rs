//! The transport differential harness: a full TSJ self-join (including
//! the MassJoin token-join stages) run over the `MultiProcess` file
//! exchange or the `Remote` network shuffle must produce output
//! *byte-identical* to the default `InProcess` handoff — across real
//! thread counts, shuffle partition counts, simulated machine counts,
//! and bounded/unbounded shuffle memory configurations, and (for the
//! network path) under deterministic injected connection faults. A
//! transport bug does not crash; it silently corrupts join output —
//! this harness is the deliverable that makes the exchange trustworthy.

use proptest::prelude::*;
use tsj::{ApproximationScheme, DedupStrategy, SimilarPair, TsjConfig, TsjJoiner};
use tsj_datagen::workload;
use tsj_mapreduce::{
    Cluster, ClusterConfig, FaultConfig, SchedulerConfig, SchedulerMode, ShuffleConfig, Transport,
};
use tsj_tokenize::{Corpus, NameTokenizer};

fn cluster_with(
    threads: usize,
    partitions: usize,
    machines: usize,
    shuffle: ShuffleConfig,
) -> Cluster {
    Cluster::new(ClusterConfig {
        machines,
        threads,
        partitions,
        ..ClusterConfig::default()
    })
    .with_shuffle_config(shuffle)
}

fn join(cluster: &Cluster, corpus: &Corpus, t: f64) -> tsj::JoinOutput {
    TsjJoiner::new(cluster)
        .self_join(
            corpus,
            &TsjConfig {
                threshold: t,
                max_token_frequency: Some(100),
                // FuzzyTokenMatching pulls the MassJoin pipeline in, so
                // the exchange carries every wire type the workspace has
                // (u64/u32 keys, (), ChunkRole, tuples).
                scheme: ApproximationScheme::FuzzyTokenMatching,
                dedup: DedupStrategy::OneString,
                ..TsjConfig::default()
            },
        )
        .unwrap()
}

fn pairs(cluster: &Cluster, corpus: &Corpus, t: f64) -> Vec<SimilarPair> {
    join(cluster, corpus, t).pairs
}

/// The shuffle configurations the differential sweep covers: unbounded
/// and two spill pressures, each pushed through the given exchange
/// transport.
fn exchange_configs(transport: Transport) -> [ShuffleConfig; 3] {
    [
        ShuffleConfig::unbounded().with_transport(transport),
        ShuffleConfig::bounded(24, 48).with_transport(transport),
        ShuffleConfig::bounded(8, 8).with_transport(transport),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The tentpole guarantee: swapping the shuffle transport changes
    /// *nothing* about the verified join output (ids and distances),
    /// across ≥3 real thread counts × ≥3 partition counts ×
    /// bounded/unbounded shuffle configs — and machine counts for good
    /// measure.
    #[test]
    fn multiprocess_join_is_byte_identical_to_inprocess(
        seed in 0u64..1_000,
        t in 0.05f64..0.2,
    ) {
        let w = workload(100, 0.3, seed);
        let corpus = Corpus::build(&w.strings, &NameTokenizer::default());
        let reference =
            pairs(&cluster_with(4, 0, 16, ShuffleConfig::unbounded()), &corpus, t);
        for shuffle in exchange_configs(Transport::MultiProcess) {
            for threads in [1usize, 2, 8] {
                let got = pairs(&cluster_with(threads, 0, 16, shuffle.clone()), &corpus, t);
                prop_assert_eq!(&got, &reference, "threads = {}", threads);
            }
            for partitions in [1usize, 5, 64] {
                let got = pairs(&cluster_with(4, partitions, 16, shuffle.clone()), &corpus, t);
                prop_assert_eq!(&got, &reference, "partitions = {}", partitions);
            }
            for machines in [1usize, 64] {
                let got = pairs(&cluster_with(4, 0, machines, shuffle.clone()), &corpus, t);
                prop_assert_eq!(&got, &reference, "machines = {}", machines);
            }
        }
    }

    /// The network shuffle joins the same sweep: map tasks publish runs
    /// to the job's run server and reducers assemble their partitions
    /// over ranged socket fetches, yet the verified join output must
    /// stay byte-identical to the in-process reference across threads,
    /// partitions, and spill pressure — and when speculation replays
    /// reduce tasks over the same remote runs.
    #[test]
    fn remote_join_is_byte_identical_to_inprocess(
        seed in 0u64..1_000,
        t in 0.05f64..0.2,
    ) {
        let w = workload(100, 0.3, seed);
        let corpus = Corpus::build(&w.strings, &NameTokenizer::default());
        let reference =
            pairs(&cluster_with(4, 0, 16, ShuffleConfig::unbounded()), &corpus, t);
        for shuffle in exchange_configs(Transport::Remote) {
            for threads in [1usize, 8] {
                let got = pairs(&cluster_with(threads, 0, 16, shuffle.clone()), &corpus, t);
                prop_assert_eq!(&got, &reference, "threads = {}", threads);
            }
            for partitions in [1usize, 5, 64] {
                let got = pairs(&cluster_with(4, partitions, 16, shuffle.clone()), &corpus, t);
                prop_assert_eq!(&got, &reference, "partitions = {}", partitions);
            }
        }
        // Remote × speculative × bounded: every reduce task is all runs,
        // hence replayable, and a zero threshold makes idle workers
        // re-fetch them through a second connection while the primary is
        // still reading.
        let speculative = cluster_with(
            4,
            0,
            16,
            ShuffleConfig::bounded(8, 8).with_transport(Transport::Remote),
        )
        .with_scheduler(SchedulerConfig {
            mode: SchedulerMode::Speculative,
            speculate_after: std::time::Duration::ZERO,
            ..SchedulerConfig::default()
        });
        let out = join(&speculative, &corpus, t);
        prop_assert_eq!(&out.pairs, &reference, "speculative");
        prop_assert_eq!(
            out.report.total_fetch_bytes(),
            out.report.total_transport_bytes(),
            "only winning attempts' reads are counted"
        );
    }

    /// The merge fan-in cap composes with every transport at pipeline
    /// scale: tiny spill thresholds force many runs per partition, the
    /// hierarchical merge engages, and output is still byte-identical.
    #[test]
    fn capped_merge_fan_in_preserves_pipeline_output(
        seed in 0u64..1_000,
    ) {
        let t = 0.15;
        let w = workload(100, 0.3, seed);
        let corpus = Corpus::build(&w.strings, &NameTokenizer::default());
        let reference =
            pairs(&cluster_with(4, 0, 16, ShuffleConfig::unbounded()), &corpus, t);
        for transport in [
            Transport::InProcess,
            Transport::MultiProcess,
            Transport::Remote,
        ] {
            let shuffle = ShuffleConfig::bounded(8, 8)
                .with_transport(transport)
                .with_merge_fan_in(3);
            let out = join(&cluster_with(4, 2, 16, shuffle), &corpus, t);
            prop_assert_eq!(&out.pairs, &reference, "transport = {:?}", transport);
            prop_assert!(
                out.report.jobs().iter().any(|j| j.merge_passes > 0),
                "8-record spill runs over 2 partitions must exceed fan-in 3 somewhere"
            );
        }
    }
}

/// Every pipeline job — TSJ's stages *and* the MassJoin sub-pipeline —
/// must show nonzero transport bytes under `MultiProcess` (nothing takes
/// a hidden in-process shortcut), must be charged simulated transport
/// time for them, and the whole pipeline can never be *faster* than the
/// free in-process handoff on equal data.
#[test]
fn multiprocess_reports_transport_bytes_on_every_job() {
    let w = workload(200, 0.35, 7);
    let corpus = Corpus::build(&w.strings, &NameTokenizer::default());

    let in_proc = join(
        &cluster_with(4, 0, 16, ShuffleConfig::unbounded()),
        &corpus,
        0.15,
    );
    for j in in_proc.report.jobs() {
        assert_eq!(j.transport, "in-process", "{}", j.name);
        assert_eq!(j.transport_bytes, 0, "{}", j.name);
        assert_eq!(j.transport_secs, 0.0, "{}", j.name);
    }
    assert_eq!(in_proc.report.total_transport_bytes(), 0);

    let multi = join(
        &cluster_with(
            4,
            0,
            16,
            ShuffleConfig::unbounded().with_transport(Transport::MultiProcess),
        ),
        &corpus,
        0.15,
    );
    assert_eq!(multi.pairs, in_proc.pairs);
    let jobs = multi.report.jobs();
    assert!(
        jobs.len() >= 5,
        "pipeline must include TSJ + MassJoin stages, got {}",
        jobs.len()
    );
    for j in jobs {
        assert_eq!(j.transport, "multi-process", "{}", j.name);
        assert!(
            j.transport_bytes > 0,
            "job {} moved no bytes through the exchange",
            j.name
        );
        assert!(j.transport_secs > 0.0, "{} transport not charged", j.name);
        // v2 framing lower bound: 1-byte length varint + 1-byte
        // fingerprint delta per shuffled record.
        assert!(
            j.transport_bytes >= 2 * j.shuffle_records,
            "{}: {} bytes for {} records",
            j.name,
            j.transport_bytes,
            j.shuffle_records
        );
    }
    assert!(multi.report.total_transport_bytes() > 0);
    assert!(
        multi.report.total_sim_secs() >= in_proc.report.total_sim_secs(),
        "multi-process {:.3}s vs in-process {:.3}s",
        multi.report.total_sim_secs(),
        in_proc.report.total_sim_secs()
    );
    // The rendered report carries the transport column.
    let rendered = format!("{}", multi.report);
    assert!(rendered.contains("xport(B)"));
}

/// Every pipeline job under `Transport::Remote` crosses the socket for
/// real: the fetch counters are live on every job, the fetched payload
/// equals the deterministic exchange volume, and that volume matches
/// the multi-process exchange byte-for-byte (both transports ship the
/// identical spill-format runs).
#[test]
fn remote_reports_fetch_stats_on_every_job_and_matches_multiprocess_volume() {
    let w = workload(200, 0.35, 7);
    let corpus = Corpus::build(&w.strings, &NameTokenizer::default());

    let multi = join(
        &cluster_with(
            4,
            0,
            16,
            ShuffleConfig::unbounded().with_transport(Transport::MultiProcess),
        ),
        &corpus,
        0.15,
    );
    let remote = join(
        &cluster_with(
            4,
            0,
            16,
            ShuffleConfig::unbounded().with_transport(Transport::Remote),
        ),
        &corpus,
        0.15,
    );
    assert_eq!(remote.pairs, multi.pairs);
    let remote_jobs = remote.report.jobs();
    let multi_jobs = multi.report.jobs();
    assert_eq!(remote_jobs.len(), multi_jobs.len());
    for (r, m) in remote_jobs.iter().zip(multi_jobs) {
        assert_eq!(r.transport, "remote", "{}", r.name);
        assert!(r.fetch_requests > 0, "{} never touched the socket", r.name);
        assert_eq!(
            r.fetch_bytes, r.transport_bytes,
            "{}: fetched payload must equal the exchanged volume",
            r.name
        );
        assert_eq!(
            r.transport_bytes, m.transport_bytes,
            "{}: remote and multi-process must ship identical run bytes",
            r.name
        );
        assert!(r.transport_secs > 0.0, "{} transport not charged", r.name);
    }
    assert!(remote.report.total_fetch_requests() > 0);
    assert_eq!(remote.report.total_fetch_retries(), 0, "no faults injected");
    assert_eq!(
        remote.report.total_fetch_bytes(),
        remote.report.total_transport_bytes()
    );
    // The rendered report carries the fetch column.
    let rendered = format!("{}", remote.report);
    assert!(rendered.contains("fetch(rpc/retry)"));
}

/// Deterministic fault injection: with every 3rd fetch-service frame
/// dropped server-side, the client's retry loop must absorb the faults
/// — retries become visible in the stats, and the verified join output
/// does not change by a single pair.
#[test]
fn remote_with_injected_faults_is_byte_identical_and_retries() {
    let w = workload(150, 0.3, 21);
    let corpus = Corpus::build(&w.strings, &NameTokenizer::default());
    let clean = join(
        &cluster_with(
            4,
            0,
            16,
            ShuffleConfig::bounded(16, 32).with_transport(Transport::Remote),
        ),
        &corpus,
        0.15,
    );
    let faulty = join(
        &cluster_with(
            4,
            0,
            16,
            ShuffleConfig::bounded(16, 32)
                .with_transport(Transport::Remote)
                .with_net_fault(FaultConfig {
                    drop_nth: 3,
                    stall_us: 100,
                    seed: 1,
                }),
        ),
        &corpus,
        0.15,
    );
    assert!(
        faulty.report.total_fetch_retries() > 0,
        "a 1-in-3 drop rate across {} requests must force retries",
        faulty.report.total_fetch_requests()
    );
    assert_eq!(faulty.pairs, clean.pairs, "faults must not change output");
    assert_eq!(
        faulty.report.total_transport_bytes(),
        clean.report.total_transport_bytes(),
        "the deterministic exchange volume must not see the faults"
    );
}

/// Both dedup strategies and all three approximation schemes survive the
/// exchange (exercising `map_reduce_combined_with_group_overhead`, the `ChunkRole` and
/// tuple wire types, and the greedy/exact pipelines).
#[test]
fn all_schemes_and_dedups_match_inprocess_over_the_exchange() {
    let w = workload(120, 0.3, 99);
    let corpus = Corpus::build(&w.strings, &NameTokenizer::default());
    for (scheme, dedup) in [
        (
            ApproximationScheme::FuzzyTokenMatching,
            DedupStrategy::BothStrings,
        ),
        (
            ApproximationScheme::GreedyTokenAligning,
            DedupStrategy::OneString,
        ),
        (
            ApproximationScheme::ExactTokenMatching,
            DedupStrategy::OneString,
        ),
    ] {
        let run = |shuffle: ShuffleConfig| {
            TsjJoiner::new(&cluster_with(4, 0, 16, shuffle))
                .self_join(
                    &corpus,
                    &TsjConfig {
                        threshold: 0.15,
                        max_token_frequency: Some(100),
                        scheme,
                        dedup,
                        ..TsjConfig::default()
                    },
                )
                .unwrap()
                .pairs
        };
        let reference = run(ShuffleConfig::unbounded());
        assert_eq!(
            reference,
            run(ShuffleConfig::unbounded().with_transport(Transport::MultiProcess)),
            "scheme {scheme:?}, dedup {dedup:?} (unbounded)"
        );
        assert_eq!(
            reference,
            run(ShuffleConfig::bounded(16, 32).with_transport(Transport::MultiProcess)),
            "scheme {scheme:?}, dedup {dedup:?} (bounded)"
        );
    }
}
