//! The benchmark's vocabulary: workload and metric names, units,
//! directions and bounds. `BENCHMARK.json`, the runner, `compare` and the
//! smoke test all read these tables, so a name exists in one place.

/// The default workload seed of `run.sh`.
pub const DEFAULT_SEED: u64 = 7_674_385;

/// Real worker threads every workload's cluster runs with (= `nproc` on
/// the 2-core container the workloads were sized on).
pub const THREADS: usize = 2;

/// Simulated machines (and, by default, shuffle partitions).
pub const MACHINES: usize = 64;

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`, and
/// the default of `--seconds`): 4 joins of the slowest workload, 13 of the
/// fastest.
pub const RUN_SECONDS: u64 = 15;

/// Repetitions of the set-up whose median is `setup_s`.
pub const SETUP_REPS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what a user of the join sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
    pub definition: &'static str,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        definition: "median of 5 repetitions of datagen::workload + Corpus::build + \
                     cluster construction (parameters to ready-to-join)",
    },
    EndToEnd {
        name: "join_wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        definition: "wall of the fastest timed self_join call",
    },
    EndToEnd {
        name: "join_strings_per_s",
        unit: "strings/s",
        better: Better::Higher,
        bound: 0.25,
        definition: "n / join_wall_s at the workload's n",
    },
    EndToEnd {
        name: "join_cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        definition: "process user+sys CPU of the timed self_join call that used least",
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
        definition: "VmHWM after the third timed join (corpus + warm-up + 3 joins)",
    },
    EndToEnd {
        name: "sim_cluster_s",
        unit: "sim_s",
        better: Better::Lower,
        bound: 0.2,
        definition: "JoinOutput::sim_secs(), the paper's figure quantity; a function \
                     of the data alone, never mixed with wall clock",
    },
];

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadInfo] = &[
    WorkloadInfo {
        name: "fuzzy-inproc",
        why: "paper default point (n=100k, T=0.1, M=500, fuzzy, one-string, in-process): \
              core filters/verify and the in-memory shuffle do the work; spill, transports, \
              passjoin almost none",
    },
    WorkloadInfo {
        name: "fuzzy-spill-multiproc",
        why: "same join under bounded(2048,4096) + MultiProcess: every record crosses \
              spill encode, run files, k-way merge, decode; the gap to fuzzy-inproc is the \
              data-plane cost",
    },
    WorkloadInfo {
        name: "fuzzy-remote",
        why: "same join over Transport::Remote (TCP loopback): netshuffle and post-barrier \
              fetch/re-assembly dominate (RPCs fixed by 64^2 per stage, not by n)",
    },
    WorkloadInfo {
        name: "tokenjoin-heavy",
        why: "n=400k, T=0.15, M=20: huge vocabulary, few shared-token candidates, so \
              massjoin candidates+verify (passjoin, strdist Myers) dominate and core verify idles",
    },
    WorkloadInfo {
        name: "greedy-bothstrings",
        why: "fuzzy-inproc corpus with greedy aligning + BothStrings dedup: millions of \
              one-record reduce groups and the greedy aligner, the other way through the same layers",
    },
];

/// One per-layer metric, with the interaction map written down before
/// measuring: which end-to-end metric it should move, and where.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metric(s) a change in this number should move.
    pub moves: &'static str,
    /// Workloads on which it should (and after `;` should not) move them.
    pub on: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    on: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
        on,
    }
}

use Better::{Higher, Lower};

const CORE_ON: &str = "fuzzy-inproc (Hungarian), greedy-bothstrings (greedy); not tokenjoin-heavy";
const PASS_ON: &str = "tokenjoin-heavy; not fuzzy-inproc, greedy-bothstrings";
const SPILL_ON: &str = "fuzzy-spill-multiproc; not the in-process workloads (counts stay 0)";
const NET_ON: &str = "fuzzy-remote; not the others (fetch_requests = 0)";
const ALL_WEAK: &str = "all, weakly (6 jobs per join)";
const COUNT_ON: &str = "the workload it was read on; repeats exactly run to run";
const WALL_CPU: &str = "join_wall_s, join_cpu_s";

pub const PER_LAYER: &[PerLayer] = &[
    // (a) per workload: spans, the traced join's SimReport, the counting
    // allocator.
    layer(
        "datagen.workload_s",
        "s",
        Lower,
        "setup_s",
        "all, largest on tokenjoin-heavy",
    ),
    layer(
        "tokenize.corpus_build_s",
        "s",
        Lower,
        "setup_s",
        "all, largest on tokenjoin-heavy",
    ),
    layer(
        "core.token_stats.wall_s",
        "s",
        Lower,
        WALL_CPU,
        "all, weakly",
    ),
    layer("core.shared_token.wall_s", "s", Lower, WALL_CPU, CORE_ON),
    layer("core.expand_similar.wall_s", "s", Lower, WALL_CPU, CORE_ON),
    layer("core.dedup_verify.wall_s", "s", Lower, WALL_CPU, CORE_ON),
    layer("passjoin.candidates.wall_s", "s", Lower, WALL_CPU, PASS_ON),
    layer("passjoin.verify.wall_s", "s", Lower, WALL_CPU, PASS_ON),
    layer(
        "core.candidates_distinct",
        "count",
        Lower,
        "sim_cluster_s",
        COUNT_ON,
    ),
    layer(
        "core.pruned_length",
        "count",
        Higher,
        "sim_cluster_s",
        COUNT_ON,
    ),
    layer(
        "core.pruned_histogram",
        "count",
        Higher,
        "sim_cluster_s",
        COUNT_ON,
    ),
    layer("core.verified", "count", Lower, "sim_cluster_s", COUNT_ON),
    layer("core.pairs_out", "count", Higher, "sim_cluster_s", COUNT_ON),
    layer(
        "core.filter_survive_ratio",
        "ratio",
        Lower,
        "sim_cluster_s",
        COUNT_ON,
    ),
    layer(
        "core.verify_hit_ratio",
        "ratio",
        Higher,
        "sim_cluster_s",
        COUNT_ON,
    ),
    layer(
        "passjoin.token_candidates",
        "count",
        Lower,
        "sim_cluster_s",
        COUNT_ON,
    ),
    layer(
        "passjoin.token_pairs",
        "count",
        Higher,
        "sim_cluster_s",
        COUNT_ON,
    ),
    layer(
        "passjoin.verify_hit_ratio",
        "ratio",
        Higher,
        "sim_cluster_s",
        COUNT_ON,
    ),
    layer(
        "mapreduce.shuffle.map_output_records",
        "count",
        Lower,
        "sim_cluster_s",
        COUNT_ON,
    ),
    layer(
        "mapreduce.shuffle.shuffle_records",
        "count",
        Lower,
        "sim_cluster_s",
        COUNT_ON,
    ),
    layer(
        "mapreduce.shuffle.combine_ratio",
        "ratio",
        Lower,
        "sim_cluster_s",
        COUNT_ON,
    ),
    layer(
        "mapreduce.shuffle.peak_buffered_records",
        "count",
        Lower,
        "peak_rss_mib",
        COUNT_ON,
    ),
    layer(
        "mapreduce.spill.spilled_records",
        "count",
        Lower,
        "sim_cluster_s",
        SPILL_ON,
    ),
    layer(
        "mapreduce.spill.spill_bytes",
        "bytes",
        Lower,
        "sim_cluster_s, join_wall_s",
        SPILL_ON,
    ),
    layer(
        "mapreduce.spill.spill_runs",
        "count",
        Lower,
        "join_wall_s",
        SPILL_ON,
    ),
    layer(
        "mapreduce.merge.merge_passes",
        "count",
        Lower,
        "join_wall_s",
        SPILL_ON,
    ),
    layer(
        "mapreduce.merge.scratch_bytes",
        "bytes",
        Lower,
        "join_wall_s",
        SPILL_ON,
    ),
    layer(
        "mapreduce.transport.bytes",
        "bytes",
        Lower,
        "sim_cluster_s, join_wall_s",
        "fuzzy-spill-multiproc, fuzzy-remote; 0 in-process",
    ),
    layer(
        "mapreduce.transport.bytes_per_record",
        "B/record",
        Lower,
        "join_wall_s",
        "fuzzy-spill-multiproc, fuzzy-remote; 0 in-process",
    ),
    layer(
        "mapreduce.pool.queue_wait_ms",
        "ms",
        Lower,
        "join_wall_s",
        ALL_WEAK,
    ),
    layer(
        "mapreduce.pool.steals",
        "count",
        Lower,
        "join_wall_s",
        ALL_WEAK,
    ),
    layer(
        "netshuffle.fetch_requests",
        "count",
        Lower,
        "join_wall_s",
        NET_ON,
    ),
    layer(
        "netshuffle.fetch_retries",
        "count",
        Lower,
        "join_wall_s",
        NET_ON,
    ),
    layer(
        "netshuffle.fetch_bytes",
        "bytes",
        Lower,
        "join_wall_s",
        NET_ON,
    ),
    layer(
        "alloc.count_per_string",
        "1/string",
        Lower,
        "join_wall_s, peak_rss_mib",
        "fuzzy-inproc, greedy-bothstrings",
    ),
    layer(
        "alloc.bytes_per_string",
        "B/string",
        Lower,
        "join_wall_s, peak_rss_mib",
        "fuzzy-inproc, greedy-bothstrings",
    ),
    layer(
        "trace.overhead_ratio",
        "ratio",
        Lower,
        "none (traced wall / untraced median)",
        "all",
    ),
    // (b) layer replays on the workload's own inputs.
    layer("strdist.lev_within_k1_ns", "ns", Lower, WALL_CPU, PASS_ON),
    layer("strdist.lev_within_k2_ns", "ns", Lower, WALL_CPU, PASS_ON),
    layer("strdist.lev_within_k4_ns", "ns", Lower, WALL_CPU, PASS_ON),
    layer("setdist.nsld_within_ns", "ns", Lower, WALL_CPU, CORE_ON),
    layer("setdist.lower_bound_ns", "ns", Lower, WALL_CPU, CORE_ON),
    layer(
        "assignment.hungarian_ns",
        "ns",
        Lower,
        WALL_CPU,
        "fuzzy-inproc; not greedy-bothstrings, tokenjoin-heavy",
    ),
    layer("core.filter_check_ns", "ns", Lower, WALL_CPU, CORE_ON),
    layer(
        "core.verify_pair_hungarian_ns",
        "ns",
        Lower,
        WALL_CPU,
        "fuzzy-inproc; not greedy-bothstrings",
    ),
    layer(
        "core.verify_pair_greedy_ns",
        "ns",
        Lower,
        WALL_CPU,
        "greedy-bothstrings; not fuzzy-inproc",
    ),
    layer("passjoin.nld_self_join_s", "s", Lower, WALL_CPU, PASS_ON),
    layer(
        "mapreduce.shuffle.emit_combine_ns_per_record",
        "ns",
        Lower,
        "join_wall_s, peak_rss_mib",
        "fuzzy-inproc, greedy-bothstrings",
    ),
    layer(
        "mapreduce.spill.write_ns_per_record",
        "ns",
        Lower,
        WALL_CPU,
        SPILL_ON,
    ),
    layer(
        "mapreduce.spill.write_mib_per_s",
        "MiB/s",
        Higher,
        WALL_CPU,
        SPILL_ON,
    ),
    layer(
        "mapreduce.spill.read_ns_per_record",
        "ns",
        Lower,
        WALL_CPU,
        SPILL_ON,
    ),
    layer(
        "mapreduce.merge.fanin4_ns_per_record",
        "ns",
        Lower,
        WALL_CPU,
        SPILL_ON,
    ),
    layer(
        "mapreduce.merge.fanin64_ns_per_record",
        "ns",
        Lower,
        WALL_CPU,
        SPILL_ON,
    ),
    layer(
        "mapreduce.transport.inproc_job_s",
        "s",
        Lower,
        "join_wall_s",
        "the in-process workloads",
    ),
    layer(
        "mapreduce.transport.multiproc_job_s",
        "s",
        Lower,
        WALL_CPU,
        SPILL_ON,
    ),
    layer(
        "mapreduce.transport.remote_job_s",
        "s",
        Lower,
        "join_wall_s",
        NET_ON,
    ),
    layer(
        "mapreduce.cluster.empty_job_us",
        "us",
        Lower,
        "join_wall_s",
        ALL_WEAK,
    ),
    layer(
        "mapreduce.pool.dispatch_ns_per_task",
        "ns",
        Lower,
        "join_wall_s",
        ALL_WEAK,
    ),
    layer(
        "netshuffle.roundtrip_us",
        "us",
        Lower,
        "join_wall_s",
        NET_ON,
    ),
    layer(
        "netshuffle.fetch_mib_per_s",
        "MiB/s",
        Higher,
        "join_wall_s",
        NET_ON,
    ),
];

/// True when `name` is made only of the characters the benchmark contract
/// allows in a metric or workload name.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
