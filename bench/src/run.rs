//! One benchmark run: one workload, one process, one result line.
//!
//! Closed loop, one client: set-up, one untimed warm-up join, then
//! `self_join` calls back to back for `--seconds`. `--trace 0` reports the
//! end-to-end metrics with every harness span off; `--trace 1` is the
//! separate traced pass that reports the per-layer metrics.

use std::path::{Path, PathBuf};
use std::time::Instant;

use tsj::{JoinError, JoinOutput, TsjJoiner};
use tsj_mapreduce::SimReport;

use crate::alloc::counted;
use crate::checks::{verify_output, Digest};
use crate::json::{obj, Json};
use crate::procstat::{cpu_seconds, peak_rss_mib};
use crate::replay;
use crate::spec::{self, SETUP_REPS};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{setup, Ready, Scale, WorkloadSpec};

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Where `trace-<workload>.json` goes.
    pub out_dir: PathBuf,
    /// Parent of this run's spill/exchange directory.
    pub spill_base: PathBuf,
}

/// What one run measured.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in the order of the spec tables.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Everything else the suite records: digest, join count, errors.
    pub details: Json,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The benchmark contract's result object.
    pub fn result_json(&self) -> Json {
        obj([
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            (
                "metrics",
                obj(self.metrics.iter().map(|&(name, value, unit)| {
                    (
                        name,
                        obj([("value", Json::from(value)), ("unit", Json::from(unit))]),
                    )
                })),
            ),
        ])
    }
}

/// A per-run scratch directory for spill, exchange and replay files,
/// removed when the run ends.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create(base: &Path) -> Result<Self, String> {
        let dir = base.join(format!("spill-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory is only disk space.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `tmpfs` when `dir` sits on a memory filesystem, else `disk`: spill and
/// exchange timings on a disk include the sandbox's storage.
pub fn spill_dir_kind(dir: &Path) -> &'static str {
    let Ok(dir) = dir.canonicalize() else {
        return "disk";
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "disk";
    };
    // The longest mount point that is a prefix of `dir` is its filesystem.
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_ascii_whitespace();
            let (_dev, point, fstype) = (fields.next()?, fields.next()?, fields.next()?);
            dir.starts_with(point).then_some((point.len(), fstype))
        })
        .max_by_key(|&(len, _)| len)
        .map_or("disk", |(_, fstype)| {
            if matches!(fstype, "tmpfs" | "ramfs") {
                "tmpfs"
            } else {
                "disk"
            }
        })
}

/// Counts joins attempted and failed. The warm-up join's digest is the
/// reference every later join must reproduce (check 1).
#[derive(Default)]
struct JoinLog {
    attempted: u64,
    failed: u64,
    reference: Option<Digest>,
    errors: Vec<String>,
    last: Option<JoinOutput>,
}

impl JoinLog {
    fn record(&mut self, result: Result<JoinOutput, JoinError>) {
        self.attempted += 1;
        match result {
            Err(e) => {
                self.failed += 1;
                self.errors.push(format!("join {}: {e}", self.attempted));
            }
            Ok(output) => {
                let digest = Digest::of(&output.pairs);
                match self.reference {
                    None => self.reference = Some(digest),
                    Some(reference) if reference != digest => {
                        self.failed += 1;
                        self.errors.push(format!(
                            "join {}: digest {digest:?} differs from the warm-up's {reference:?}",
                            self.attempted
                        ));
                    }
                    Some(_) => {}
                }
                self.last = Some(output);
            }
        }
    }

    /// Applies the whole-output checks to the last join; a failure there
    /// condemns every join that produced that output.
    fn check(&mut self, check: impl FnOnce(&JoinOutput) -> Result<(), String>) {
        match &self.last {
            None => self.errors.push("no join produced an output".to_owned()),
            Some(output) => {
                if let Err(e) = check(output) {
                    self.failed = self.attempted;
                    self.errors.push(e);
                }
            }
        }
    }
}

/// What one join cost this process.
#[derive(Debug, Clone, Copy)]
struct JoinCost {
    wall_secs: f64,
    /// User + system CPU of all threads.
    cpu_secs: f64,
    /// `VmHWM` once the join returned.
    peak_rss_mib: f64,
}

fn join(ready: &Ready) -> Result<(Result<JoinOutput, JoinError>, JoinCost), String> {
    let cpu_before = cpu_seconds().ok_or("cannot read /proc/self/stat")?;
    let start = Instant::now();
    let result = TsjJoiner::new(&ready.cluster).self_join(&ready.corpus, &ready.cfg);
    let wall_secs = start.elapsed().as_secs_f64();
    let cost = JoinCost {
        wall_secs,
        cpu_secs: cpu_seconds().ok_or("cannot read /proc/self/stat")? - cpu_before,
        peak_rss_mib: peak_rss_mib().ok_or("cannot read /proc/self/status")?,
    };
    Ok((result, cost))
}

/// Runs `join` back to back until `seconds` have passed and at least
/// `min_joins` ran; returns each join's cost.
fn join_loop(
    ready: &Ready,
    log: &mut JoinLog,
    seconds: f64,
    min_joins: usize,
) -> Result<Vec<JoinCost>, String> {
    let start = Instant::now();
    let mut costs = Vec::new();
    while costs.len() < min_joins || start.elapsed().as_secs_f64() < seconds {
        let (result, cost) = join(ready)?;
        costs.push(cost);
        log.record(result);
    }
    Ok(costs)
}

/// The fastest of `costs` by `key`. Every timed join does identical work
/// and interference from the shared host only ever adds time, so the
/// minimum is the steadiest estimate of what the join itself costs.
fn fastest(costs: &[JoinCost], key: impl Fn(&JoinCost) -> f64) -> f64 {
    costs.iter().map(key).fold(f64::INFINITY, f64::min)
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let spec = crate::workload::spec(&args.workload).ok_or_else(|| {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {:?} (one of: {})",
            args.workload,
            names.join(", ")
        )
    })?;
    let scratch = ScratchDir::create(&args.spill_base)?;
    if args.trace {
        run_traced(spec, args, &scratch.0)
    } else {
        run_end_to_end(spec, args, &scratch.0)
    }
}

/// What the suite records beside the metrics; `extra` fields follow the
/// common ones.
fn details(
    spec: &WorkloadSpec,
    args: &RunArgs,
    log: &JoinLog,
    timed_joins: usize,
    scratch: &Path,
    extra: Vec<(&str, Json)>,
) -> Json {
    let common = [
        ("workload", Json::from(spec.name)),
        ("seed", Json::from(args.seed)),
        ("scale", Json::from(args.scale.name())),
        ("n", Json::from(spec.n_at(args.scale))),
        ("timed_joins", Json::from(timed_joins)),
        ("digest", log.reference.map_or(Json::Null, Digest::to_json)),
        (
            "errors",
            Json::Arr(log.errors.iter().map(|e| Json::from(e.as_str())).collect()),
        ),
        ("spill_dir_kind", Json::from(spill_dir_kind(scratch))),
    ];
    obj(common.into_iter().chain(extra))
}

/// `values` as `(name, value, unit)` in the order of a spec table; an
/// error names the first metric of the table that was not measured.
fn in_spec_order(
    table: impl Iterator<Item = (&'static str, &'static str)>,
    values: &[(&'static str, f64)],
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    table
        .map(|(name, unit)| {
            values
                .iter()
                .find(|(measured, _)| *measured == name)
                .map(|&(_, v)| (name, v, unit))
                .ok_or_else(|| format!("metric {name} was not measured"))
        })
        .collect()
}

fn run_end_to_end(spec: &WorkloadSpec, args: &RunArgs, scratch: &Path) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(false);

    // Set-up, repeated so `setup_s` is a median; the last one is kept.
    // Each is dropped before the next is built, so peak memory holds one.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut ready = None;
    for _ in 0..SETUP_REPS {
        drop(ready.take());
        let r = setup(spec, args.scale, args.seed, scratch, &mut tracer);
        setups.push(r.setup_secs);
        ready = Some(r);
    }
    let ready = ready.expect("SETUP_REPS is positive");

    let mut log = JoinLog::default();
    // Warm-up: the first join in a process pays page faults and allocator
    // growth the steady state does not (1.6-1.8x on the sizing container).
    log.record(join(&ready)?.0);

    let costs = join_loop(&ready, &mut log, args.seconds, args.scale.min_timed_joins())?;
    // The high-water mark after a fixed number of joins, not after however
    // many the time budget allowed: the heap keeps creeping up join after
    // join (264 -> 318 MiB over seven joins of tokenjoin-heavy), so a
    // faster machine would otherwise report more memory.
    let peak_rss = costs[args.scale.min_timed_joins() - 1].peak_rss_mib;

    log.check(|output| verify_output(spec, &ready, args.scale, args.seed, output, true));
    let sim_secs = log
        .last
        .as_ref()
        .map(JoinOutput::sim_secs)
        .ok_or("every join failed; nothing to report")?;

    let wall = fastest(&costs, |c| c.wall_secs);
    let n = spec.n_at(args.scale) as f64;
    let values = [
        ("setup_s", median(&setups)),
        ("join_wall_s", wall),
        ("join_strings_per_s", n / wall),
        ("join_cpu_s", fastest(&costs, |c| c.cpu_secs)),
        ("peak_rss_mib", peak_rss),
        ("sim_cluster_s", sim_secs),
    ];
    let list =
        |key: fn(&JoinCost) -> f64| Json::Arr(costs.iter().map(|c| Json::from(key(c))).collect());
    let per_join = vec![
        ("join_walls_s", list(|c| c.wall_secs)),
        ("join_cpus_s", list(|c| c.cpu_secs)),
        ("peak_rss_mib_after_join", list(|c| c.peak_rss_mib)),
    ];
    Ok(Outcome {
        attempted: log.attempted,
        failed: log.failed,
        metrics: in_spec_order(spec::END_TO_END.iter().map(|m| (m.name, m.unit)), &values)?,
        details: details(spec, args, &log, costs.len(), scratch, per_join),
    })
}

fn run_traced(spec: &WorkloadSpec, args: &RunArgs, scratch: &Path) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(true);
    let n = spec.n_at(args.scale);
    let mut log = JoinLog::default();
    let mut values: Vec<(&'static str, f64)> = Vec::new();

    let replays = tracer.span("run", |t| -> Result<replay::Metrics, String> {
        let ready = setup(spec, args.scale, args.seed, scratch, t);
        t.span("join.warmup", |_| join(&ready).map(|(r, _)| log.record(r)))?;

        // A third of the budget each: untraced joins (the baseline of the
        // overhead ratio), traced joins, replays.
        let slice = args.seconds / 3.0;
        let min_untraced = args.scale.min_timed_joins().min(2);
        let untraced = t.span("join.untraced", |_| {
            join_loop(&ready, &mut log, slice, min_untraced)
        })?;

        // Layer metrics come from the fastest traced join: the counts are
        // the same in each, the stage walls least disturbed in that one.
        let mut traced: Vec<JoinCost> = Vec::new();
        let mut fastest_layers: Vec<(&'static str, f64)> = Vec::new();
        let mut allocs = crate::alloc::AllocCounts::default();
        let start = Instant::now();
        while traced.is_empty() || start.elapsed().as_secs_f64() < slice {
            t.span("join.traced", |t| -> Result<(), String> {
                let (joined, counts) = counted(|| join(&ready));
                let (result, cost) = joined?;
                if let Ok(output) = &result {
                    for job in output.report.jobs() {
                        t.reported(&format!("reported:{}", job.name), job.wall_secs);
                    }
                    if traced.iter().all(|c| cost.wall_secs < c.wall_secs) {
                        fastest_layers.clear();
                        join_layer_metrics(output, &mut fastest_layers);
                    }
                }
                allocs.allocs += counts.allocs;
                allocs.bytes += counts.bytes;
                traced.push(cost);
                log.record(result);
                Ok(())
            })?;
        }
        log.check(|output| verify_output(spec, &ready, args.scale, args.seed, output, false));

        values.append(&mut fastest_layers);
        let strings = (traced.len() * n) as f64;
        values.push(("alloc.count_per_string", allocs.allocs as f64 / strings));
        values.push(("alloc.bytes_per_string", allocs.bytes as f64 / strings));
        values.push((
            "trace.overhead_ratio",
            fastest(&traced, |c| c.wall_secs) / fastest(&untraced, |c| c.wall_secs),
        ));

        t.span("replays", |t| {
            replay::run_all(&ready.corpus, &ready.cfg, args.scale, args.seed, scratch, t)
        })
    })?;
    values.push(("datagen.workload_s", tracer.total_secs("datagen.workload")));
    values.push((
        "tokenize.corpus_build_s",
        tracer.total_secs("tokenize.corpus_build"),
    ));
    values.extend(replays);

    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("create {}: {e}", args.out_dir.display()))?;
    let trace_path = args.out_dir.join(format!("trace-{}.json", spec.name));
    std::fs::write(&trace_path, tracer.to_json(spec.name).pretty())
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;

    let timed = log.attempted.saturating_sub(1) as usize;
    Ok(Outcome {
        attempted: log.attempted,
        failed: log.failed,
        metrics: in_spec_order(spec::PER_LAYER.iter().map(|m| (m.name, m.unit)), &values)?,
        details: details(spec, args, &log, timed, scratch, Vec::new()),
    })
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Wall seconds the program reported for the jobs whose name starts with
/// `prefix` (overlapped stages may sum above the join's wall).
fn stage_wall(report: &SimReport, prefix: &str) -> f64 {
    report
        .jobs()
        .iter()
        .filter(|j| j.name.starts_with(prefix))
        .map(|j| j.wall_secs)
        .sum()
}

/// The per-workload layer metrics one join's `SimReport` carries.
fn join_layer_metrics(output: &JoinOutput, values: &mut Vec<(&'static str, f64)>) {
    let report = &output.report;
    let jobs = report.jobs();
    let counter = |job_prefix: &str, name: &str| -> u64 {
        jobs.iter()
            .filter(|j| j.name.starts_with(job_prefix))
            .map(|j| j.counter(name))
            .sum()
    };
    for (metric, prefix) in [
        ("core.token_stats.wall_s", "tsj.token_stats"),
        ("core.shared_token.wall_s", "tsj.shared_token"),
        ("core.expand_similar.wall_s", "tsj.expand_similar"),
        ("core.dedup_verify.wall_s", "tsj.dedup_verify"),
        ("passjoin.candidates.wall_s", "massjoin.candidates"),
        ("passjoin.verify.wall_s", "massjoin.verify"),
    ] {
        values.push((metric, stage_wall(report, prefix)));
    }

    let candidates = counter("tsj.dedup_verify", "candidates_distinct");
    let verified = counter("tsj.dedup_verify", "verified");
    let pairs_out = output.pairs.len() as u64;
    let token_candidates = counter("massjoin.verify", "candidates_distinct");
    let token_pairs = counter("massjoin.verify", "pairs_verified");
    let sum = |f: fn(&tsj_mapreduce::JobStats) -> u64| -> u64 { jobs.iter().map(f).sum() };
    let counts: [(&'static str, f64); 26] = [
        ("core.candidates_distinct", candidates as f64),
        (
            "core.pruned_length",
            counter("tsj.dedup_verify", "pruned_length") as f64,
        ),
        (
            "core.pruned_histogram",
            counter("tsj.dedup_verify", "pruned_histogram") as f64,
        ),
        ("core.verified", verified as f64),
        ("core.pairs_out", pairs_out as f64),
        ("core.filter_survive_ratio", ratio(verified, candidates)),
        ("core.verify_hit_ratio", ratio(pairs_out, verified)),
        ("passjoin.token_candidates", token_candidates as f64),
        ("passjoin.token_pairs", token_pairs as f64),
        (
            "passjoin.verify_hit_ratio",
            ratio(token_pairs, token_candidates),
        ),
        (
            "mapreduce.shuffle.map_output_records",
            report.total_map_output_records() as f64,
        ),
        (
            "mapreduce.shuffle.shuffle_records",
            report.total_shuffle_records() as f64,
        ),
        (
            "mapreduce.shuffle.combine_ratio",
            ratio(
                report.total_shuffle_records(),
                report.total_map_output_records(),
            ),
        ),
        (
            "mapreduce.shuffle.peak_buffered_records",
            jobs.iter()
                .map(|j| j.peak_buffered_records)
                .max()
                .unwrap_or(0) as f64,
        ),
        (
            "mapreduce.spill.spilled_records",
            report.total_spilled_records() as f64,
        ),
        (
            "mapreduce.spill.spill_bytes",
            report.total_spill_bytes() as f64,
        ),
        ("mapreduce.spill.spill_runs", sum(|j| j.spill_runs) as f64),
        (
            "mapreduce.merge.merge_passes",
            sum(|j| j.merge_passes) as f64,
        ),
        (
            "mapreduce.merge.scratch_bytes",
            sum(|j| j.merge_scratch_bytes) as f64,
        ),
        (
            "mapreduce.transport.bytes",
            report.total_transport_bytes() as f64,
        ),
        (
            "mapreduce.transport.bytes_per_record",
            report.transport_bytes_per_record().unwrap_or(0.0),
        ),
        (
            "mapreduce.pool.queue_wait_ms",
            report.total_queue_wait_us() as f64 / 1e3,
        ),
        ("mapreduce.pool.steals", report.total_steals() as f64),
        (
            "netshuffle.fetch_requests",
            report.total_fetch_requests() as f64,
        ),
        (
            "netshuffle.fetch_retries",
            report.total_fetch_retries() as f64,
        ),
        ("netshuffle.fetch_bytes", report.total_fetch_bytes() as f64),
    ];
    values.extend(counts);
}
