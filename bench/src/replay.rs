//! Layer replays: each layer driven alone, through its public functions,
//! on inputs sampled from the workload's own corpus with the run seed.
//! Every number is the median of several repetitions.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tsj::{verify_pair, FilterContext, SimilarMap, TsjConfig};
use tsj_assignment::{hungarian, SquareMatrix};
use tsj_mapreduce::pool::run_indexed;
use tsj_mapreduce::{
    fingerprint64, Cluster, Count, Dedup, Emitter, OutputSink, PartitionedBuffer, RunReader,
    ShuffleConfig, SpillWriter, Transport,
};
use tsj_netshuffle::{
    FaultConfig, FetchClient, FetchConfig, PublishedTask, Registry, RunKey, RunServer, RunSpec,
};
use tsj_passjoin::MassJoin;
use tsj_setdist::{
    nsld_lower_bound_from_total_lens, nsld_within, sld_lower_bound_sorted_lens, Aligning,
};
use tsj_strdist::{levenshtein, levenshtein_within};
use tsj_tokenize::{Corpus, StringId, TokenId};

use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{inproc_cluster, pinned_cluster, Scale};

/// How much each replay does. Full sizes keep the whole replay pass to a
/// few seconds on the 2-core container; tiny sizes are for the smoke test.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    /// Repetitions of the per-call kernels (the reported value is their
    /// median).
    micro_reps: usize,
    /// Repetitions of the replays that run whole jobs.
    job_reps: usize,
    /// Repetitions of the heaviest replays (token self-join, forced
    /// merges).
    heavy_reps: usize,
    token_pairs: usize,
    candidate_pairs: usize,
    surviving_pairs: usize,
    matrices: usize,
    shuffle_records: usize,
    spill_records: usize,
    merge_records: usize,
    transport_keys: usize,
    empty_jobs: usize,
    pool_tasks: usize,
    roundtrips: usize,
    fetch_bytes: usize,
}

impl Sizes {
    fn at(scale: Scale) -> Self {
        match scale {
            Scale::Full => Self {
                micro_reps: 11,
                job_reps: 3,
                heavy_reps: 3,
                token_pairs: 100_000,
                candidate_pairs: 200_000,
                surviving_pairs: 20_000,
                matrices: 20_000,
                shuffle_records: 2_000_000,
                spill_records: 500_000,
                merge_records: 500_000,
                transport_keys: 200_000,
                empty_jobs: 200,
                pool_tasks: 100_000,
                roundtrips: 500,
                fetch_bytes: 16 << 20,
            },
            Scale::Tiny => Self {
                micro_reps: 3,
                job_reps: 1,
                heavy_reps: 1,
                token_pairs: 2_000,
                candidate_pairs: 2_000,
                surviving_pairs: 500,
                matrices: 200,
                shuffle_records: 20_000,
                spill_records: 5_000,
                merge_records: 20_000,
                transport_keys: 5_000,
                empty_jobs: 5,
                pool_tasks: 1_000,
                roundtrips: 10,
                fetch_bytes: 1 << 20,
            },
        }
    }
}

/// Median seconds per repetition of `f` over `reps` repetitions.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Metrics a replay pass produced, by name.
pub type Metrics = Vec<(&'static str, f64)>;

/// Runs every layer replay on `corpus` and returns their metrics. Each
/// replay is one span.
pub fn run_all(
    corpus: &Corpus,
    cfg: &TsjConfig,
    scale: Scale,
    seed: u64,
    spill_dir: &Path,
    tracer: &mut Tracer,
) -> Result<Metrics, String> {
    let sizes = Sizes::at(scale);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7e91a7);
    let mut out = Metrics::new();
    let cluster = inproc_cluster(spill_dir);

    tracer.span("replay.strdist", |_| {
        strdist(corpus, &sizes, &mut rng, &mut out)
    });
    let (eligible, similar) = tracer.span("replay.passjoin", |_| {
        passjoin(corpus, cfg, &cluster, &sizes, &mut out)
    })?;
    tracer.span("replay.core", |_| {
        core_and_setdist(corpus, cfg, &eligible, &similar, &sizes, &mut rng, &mut out);
    });
    tracer.span("replay.assignment", |_| {
        assignment(corpus, &sizes, &mut rng, &mut out)
    });
    tracer.span("replay.mapreduce.shuffle", |_| {
        shuffle(&sizes, &mut rng, &mut out)
    });
    tracer.span("replay.mapreduce.spill", |_| {
        spill(spill_dir, &sizes, &mut rng, &mut out)
    })?;
    tracer.span("replay.mapreduce.merge", |_| {
        merge(spill_dir, &sizes, &mut rng, &mut out)
    })?;
    tracer.span("replay.mapreduce.transport", |_| {
        transport(spill_dir, &sizes, &mut rng, &mut out)
    })?;
    tracer.span("replay.mapreduce.cluster", |_| {
        empty_job(&cluster, &sizes, &mut out)
    })?;
    tracer.span("replay.mapreduce.pool", |_| pool(&sizes, &mut out))?;
    tracer.span("replay.netshuffle", |_| {
        netshuffle(spill_dir, &sizes, &mut out)
    })?;
    Ok(out)
}

/// `levenshtein_within` at k = 1, 2, 4 over vocabulary token pairs whose
/// lengths differ by at most one (so no k rejects on length alone).
fn strdist(corpus: &Corpus, sizes: &Sizes, rng: &mut StdRng, out: &mut Metrics) {
    let mut by_len: Vec<Vec<TokenId>> = Vec::new();
    for t in corpus.token_ids() {
        let len = corpus.token_len(t);
        if by_len.len() <= len {
            by_len.resize_with(len + 1, Vec::new);
        }
        by_len[len].push(t);
    }
    let tokens: Vec<TokenId> = corpus.token_ids().collect();
    let mut pairs: Vec<(&str, &str)> = Vec::with_capacity(sizes.token_pairs);
    while pairs.len() < sizes.token_pairs && !tokens.is_empty() {
        let x = tokens[rng.gen_range(0..tokens.len())];
        let len = corpus.token_len(x) + rng.gen_range(0..3usize);
        let Some(bucket) = len.checked_sub(1).and_then(|l| by_len.get(l)) else {
            continue;
        };
        if bucket.is_empty() {
            continue;
        }
        let y = bucket[rng.gen_range(0..bucket.len())];
        pairs.push((corpus.token_text(x), corpus.token_text(y)));
    }
    for (name, k) in [
        ("strdist.lev_within_k1_ns", 1),
        ("strdist.lev_within_k2_ns", 2),
        ("strdist.lev_within_k4_ns", 4),
    ] {
        let secs = median_secs(sizes.micro_reps, || {
            for &(a, b) in &pairs {
                black_box(levenshtein_within(black_box(a), black_box(b), k));
            }
        });
        out.push((name, secs * 1e9 / pairs.len().max(1) as f64));
    }
}

/// `MassJoin::nld_self_join` over the `M`-eligible vocabulary. Returns the
/// eligibility bitmap and the similar-token map the filter replays need.
fn passjoin(
    corpus: &Corpus,
    cfg: &TsjConfig,
    cluster: &Cluster,
    sizes: &Sizes,
    out: &mut Metrics,
) -> Result<(Vec<bool>, SimilarMap), String> {
    let eligible: Vec<bool> = corpus
        .token_ids()
        .map(|t| cfg.max_token_frequency.is_none_or(|m| corpus.df(t) <= m))
        .collect();
    let elig_tokens: Vec<TokenId> = corpus.token_ids().filter(|t| eligible[t.index()]).collect();
    let texts: Vec<&str> = elig_tokens.iter().map(|&t| corpus.token_text(t)).collect();
    let joiner = MassJoin::new(cluster, cfg.threshold);
    let mut last = None;
    let mut failure = None;
    let secs = median_secs(sizes.heavy_reps, || match joiner.nld_self_join(&texts) {
        Ok((pairs, _report)) => last = Some(pairs),
        Err(e) => failure = Some(e.to_string()),
    });
    if let Some(e) = failure {
        return Err(format!("passjoin replay failed: {e}"));
    }
    out.push(("passjoin.nld_self_join_s", secs));
    let mut similar = SimilarMap::default();
    for p in last.unwrap_or_default() {
        let (a, b) = (elig_tokens[p.a as usize].0, elig_tokens[p.b as usize].0);
        similar.insert((a.min(b), a.max(b)), p.ld);
    }
    Ok((eligible, similar))
}

/// Candidate string pairs as the join generates them: two strings sharing
/// an eligible token, or holding the two sides of a similar token pair.
fn sample_candidates(
    corpus: &Corpus,
    eligible: &[bool],
    similar: &SimilarMap,
    want: usize,
    rng: &mut StdRng,
) -> Vec<(StringId, StringId)> {
    let shared: Vec<TokenId> = corpus
        .token_ids()
        .filter(|t| eligible[t.index()] && corpus.df(*t) >= 2)
        .collect();
    // Sorted: the map iterates in hash order, the sample must not.
    let mut similar_pairs: Vec<(u32, u32)> = similar.keys().copied().collect();
    similar_pairs.sort_unstable();
    let mut pairs = Vec::with_capacity(want);
    if shared.is_empty() && similar_pairs.is_empty() {
        return pairs;
    }
    while pairs.len() < want {
        let use_similar =
            !similar_pairs.is_empty() && (shared.is_empty() || rng.gen_range(0..2u32) == 0);
        let (pa, pb) = if use_similar {
            let (ta, tb) = similar_pairs[rng.gen_range(0..similar_pairs.len())];
            (corpus.postings(TokenId(ta)), corpus.postings(TokenId(tb)))
        } else {
            let postings = corpus.postings(shared[rng.gen_range(0..shared.len())]);
            (postings, postings)
        };
        let (a, b) = (
            pa[rng.gen_range(0..pa.len())],
            pb[rng.gen_range(0..pb.len())],
        );
        if a != b {
            pairs.push((a.min(b), a.max(b)));
        }
    }
    pairs
}

/// `FilterContext::check` on sampled candidates, then `verify_pair` (both
/// aligners) and the `setdist` kernels on the candidates that survive.
fn core_and_setdist(
    corpus: &Corpus,
    cfg: &TsjConfig,
    eligible: &[bool],
    similar: &SimilarMap,
    sizes: &Sizes,
    rng: &mut StdRng,
    out: &mut Metrics,
) {
    let t = cfg.threshold;
    let candidates = sample_candidates(corpus, eligible, similar, sizes.candidate_pairs, rng);
    let filter = FilterContext::new(corpus, t, true, true, Some(similar), Some(eligible));
    let per_call = |secs: f64, calls: usize| secs * 1e9 / calls.max(1) as f64;

    let secs = median_secs(sizes.micro_reps, || {
        for &(a, b) in &candidates {
            black_box(filter.check(a, b));
        }
    });
    out.push(("core.filter_check_ns", per_call(secs, candidates.len())));

    let survivors: Vec<(StringId, StringId)> = candidates
        .iter()
        .copied()
        .filter(|&(a, b)| filter.check(a, b) == tsj::filters::FilterVerdict::Survives)
        .take(sizes.surviving_pairs)
        .collect();
    for (name, aligning) in [
        ("core.verify_pair_hungarian_ns", Aligning::Hungarian),
        ("core.verify_pair_greedy_ns", Aligning::Greedy),
    ] {
        let secs = median_secs(sizes.micro_reps, || {
            for &(a, b) in &survivors {
                black_box(verify_pair(corpus, a, b, t, aligning));
            }
        });
        out.push((name, per_call(secs, survivors.len())));
    }

    let texts: Vec<(Vec<&str>, Vec<&str>)> = survivors
        .iter()
        .map(|&(a, b)| (corpus.token_texts(a), corpus.token_texts(b)))
        .collect();
    let secs = median_secs(sizes.micro_reps, || {
        for (x, y) in &texts {
            black_box(nsld_within(x, y, t, Aligning::Hungarian));
        }
    });
    out.push(("setdist.nsld_within_ns", per_call(secs, texts.len())));

    let lens: Vec<(usize, usize, Vec<u32>, Vec<u32>)> = candidates
        .iter()
        .map(|&(a, b)| {
            (
                corpus.total_len(a),
                corpus.total_len(b),
                corpus.sorted_token_lens(a),
                corpus.sorted_token_lens(b),
            )
        })
        .collect();
    let secs = median_secs(sizes.micro_reps, || {
        for (la, lb, ha, hb) in &lens {
            black_box(nsld_lower_bound_from_total_lens(*la, *lb));
            black_box(sld_lower_bound_sorted_lens(ha, hb));
        }
    });
    out.push(("setdist.lower_bound_ns", per_call(secs, lens.len())));
}

/// `hungarian` on 4×4 token-distance matrices of random string pairs
/// (token lists cycled up to four tokens).
fn assignment(corpus: &Corpus, sizes: &Sizes, rng: &mut StdRng, out: &mut Metrics) {
    let with_tokens: Vec<StringId> = corpus
        .string_ids()
        .filter(|&s| corpus.token_count(s) > 0)
        .collect();
    if with_tokens.is_empty() {
        out.push(("assignment.hungarian_ns", 0.0));
        return;
    }
    let matrices: Vec<SquareMatrix> = (0..sizes.matrices)
        .map(|_| {
            let a = corpus.token_texts(with_tokens[rng.gen_range(0..with_tokens.len())]);
            let b = corpus.token_texts(with_tokens[rng.gen_range(0..with_tokens.len())]);
            SquareMatrix::from_fn(4, |i, j| levenshtein(a[i % a.len()], b[j % b.len()]) as u64)
        })
        .collect();
    let secs = median_secs(sizes.micro_reps, || {
        for m in &matrices {
            black_box(hungarian(black_box(m)));
        }
    });
    out.push((
        "assignment.hungarian_ns",
        secs * 1e9 / matrices.len().max(1) as f64,
    ));
}

/// The map side of the shuffle: emit `(u32, u32) → ()` records into a
/// 64-partition buffer and fold them with `Dedup` (one in four repeats).
fn shuffle(sizes: &Sizes, rng: &mut StdRng, out: &mut Metrics) {
    let distinct = (sizes.shuffle_records as u32 * 3 / 4).max(1);
    let keys: Vec<(u32, u32)> = (0..sizes.shuffle_records)
        .map(|_| {
            let k = rng.gen_range(0..distinct);
            (k, k.wrapping_mul(0x9e37_79b9))
        })
        .collect();
    let secs = median_secs(sizes.job_reps, || {
        let mut buffer: PartitionedBuffer<(u32, u32), ()> =
            PartitionedBuffer::new(crate::spec::MACHINES);
        for &k in &keys {
            buffer.emit(k, ());
        }
        black_box(buffer.combine(&Dedup));
    });
    out.push((
        "mapreduce.shuffle.emit_combine_ns_per_record",
        secs * 1e9 / keys.len().max(1) as f64,
    ));
}

/// The spill wire format: `SpillWriter::write_run` of one sorted run,
/// then `RunReader::next` over it.
fn spill(dir: &Path, sizes: &Sizes, rng: &mut StdRng, out: &mut Metrics) -> Result<(), String> {
    let mut records: Vec<(u64, (u32, u32), ())> = (0..sizes.spill_records)
        .map(|_| {
            let key: (u32, u32) = (rng.gen(), rng.gen());
            (fingerprint64(&key), key, ())
        })
        .collect();
    records.sort_unstable_by_key(|r| r.0);
    let path = dir.join(format!("replay-spill-{}.run", std::process::id()));
    let io = |e: std::io::Error| format!("spill replay: {e}");

    let mut written = None;
    let mut failure = None;
    let write_secs = median_secs(sizes.job_reps, || {
        let run = SpillWriter::create(path.clone()).and_then(|mut w| {
            let meta = w.write_run(&records)?;
            let (file, _path) = w.into_reader()?;
            Ok((file, meta))
        });
        match run {
            Ok(run) => written = Some(run),
            Err(e) => failure = Some(e),
        }
    });
    if let Some(e) = failure {
        return Err(io(e));
    }
    let (file, meta) = written.expect("write replay ran at least once");
    let n = records.len().max(1) as f64;
    out.push(("mapreduce.spill.write_ns_per_record", write_secs * 1e9 / n));
    out.push((
        "mapreduce.spill.write_mib_per_s",
        meta.bytes as f64 / (1024.0 * 1024.0) / write_secs,
    ));

    let mut read_failure = None;
    let read_secs = median_secs(sizes.job_reps, || {
        let mut reader = RunReader::new(Arc::clone(&file), meta);
        let mut seen = 0u64;
        loop {
            match reader.next::<(u32, u32), ()>() {
                Ok(Some(record)) => {
                    black_box(record);
                    seen += 1;
                }
                Ok(None) => break,
                Err(e) => {
                    read_failure = Some(e.to_string());
                    break;
                }
            }
        }
        if seen != meta.records && read_failure.is_none() {
            read_failure = Some(format!("read {seen} of {} records", meta.records));
        }
    });
    drop(file);
    // Best effort: the run's parent directory is removed at exit anyway.
    let _ = std::fs::remove_file(&path);
    if let Some(e) = read_failure {
        return Err(format!("spill replay: {e}"));
    }
    out.push(("mapreduce.spill.read_ns_per_record", read_secs * 1e9 / n));
    Ok(())
}

fn skewed_keys(n: usize, rng: &mut StdRng) -> Vec<u64> {
    (0..n)
        .map(|_| {
            let r: f64 = rng.gen();
            (65_536.0 * r.powf(3.0)) as u64
        })
        .collect()
}

/// One counting job over `keys`; returns `(wall seconds, shuffle records)`.
fn count_job(cluster: &Cluster, keys: &[u64], name: &str) -> Result<(f64, u64), String> {
    let start = Instant::now();
    let result = cluster
        .run_combined(
            name,
            keys,
            |&k, e: &mut Emitter<u64, u64>| e.emit(k, 1),
            &Count,
            |&k, vs: Vec<u64>, out: &mut OutputSink<(u64, u64)>| {
                out.emit((k, vs.iter().sum()));
            },
        )
        .map_err(|e| format!("{name}: {e}"))?;
    let secs = start.elapsed().as_secs_f64();
    let total: u64 = result.output.iter().map(|&(_, c)| c).sum();
    if total != keys.len() as u64 {
        return Err(format!("{name}: counted {total} of {} keys", keys.len()));
    }
    Ok((secs, result.stats.shuffle_records))
}

/// Median wall of `reps` counting jobs, plus the last job's shuffle
/// record count.
fn median_count_job(
    reps: usize,
    cluster: &Cluster,
    keys: &[u64],
    name: &str,
) -> Result<(f64, u64), String> {
    let mut walls = Vec::new();
    let mut shuffled = 0;
    for _ in 0..reps.max(1) {
        let (secs, records) = count_job(cluster, keys, name)?;
        walls.push(secs);
        shuffled = records;
    }
    Ok((median(&walls), shuffled))
}

/// The reduce-side k-way merge (`merge` is crate-private): a counting job
/// forced to spill many runs per partition, at merge fan-in 4 and 64;
/// wall per shuffled record.
fn merge(dir: &Path, sizes: &Sizes, rng: &mut StdRng, out: &mut Metrics) -> Result<(), String> {
    // Near-distinct keys, so combining folds little and the runs are long.
    let keys: Vec<u64> = (0..sizes.merge_records).map(|_| rng.gen()).collect();
    let per_task = sizes.merge_records / crate::spec::MACHINES;
    let spill_at = (per_task / 2).max(4);
    for (name, fan_in) in [
        ("mapreduce.merge.fanin4_ns_per_record", 4),
        ("mapreduce.merge.fanin64_ns_per_record", 64),
    ] {
        let cluster = pinned_cluster(ShuffleConfig {
            spill_dir: Some(dir.to_path_buf()),
            ..ShuffleConfig::bounded(spill_at / 2, spill_at).with_merge_fan_in(fan_in)
        });
        let (secs, shuffled) = median_count_job(sizes.heavy_reps, &cluster, &keys, name)?;
        out.push((name, secs * 1e9 / shuffled.max(1) as f64));
    }
    Ok(())
}

/// The skewed counting job of `crates/bench/benches/transport.rs`, once
/// per transport.
fn transport(dir: &Path, sizes: &Sizes, rng: &mut StdRng, out: &mut Metrics) -> Result<(), String> {
    let keys = skewed_keys(sizes.transport_keys, rng);
    for (name, transport) in [
        ("mapreduce.transport.inproc_job_s", Transport::InProcess),
        (
            "mapreduce.transport.multiproc_job_s",
            Transport::MultiProcess,
        ),
        ("mapreduce.transport.remote_job_s", Transport::Remote),
    ] {
        let cluster = pinned_cluster(ShuffleConfig {
            spill_dir: Some(dir.to_path_buf()),
            ..ShuffleConfig::unbounded().with_transport(transport)
        });
        let (secs, _) = median_count_job(sizes.job_reps, &cluster, &keys, name)?;
        out.push((name, secs));
    }
    Ok(())
}

/// A one-record job: what every job costs before it does any work.
fn empty_job(cluster: &Cluster, sizes: &Sizes, out: &mut Metrics) -> Result<(), String> {
    let mut failure = None;
    let secs = median_secs(sizes.micro_reps, || {
        for _ in 0..sizes.empty_jobs {
            if let Err(e) = count_job(cluster, &[7], "replay.empty_job") {
                failure = Some(e);
            }
        }
    });
    if let Some(e) = failure {
        return Err(e);
    }
    out.push((
        "mapreduce.cluster.empty_job_us",
        secs * 1e6 / sizes.empty_jobs as f64,
    ));
    Ok(())
}

/// `run_indexed` over no-op tasks: the pool's per-task dispatch cost.
fn pool(sizes: &Sizes, out: &mut Metrics) -> Result<(), String> {
    let mut failure = None;
    let secs = median_secs(sizes.micro_reps, || {
        match run_indexed(sizes.pool_tasks, crate::spec::THREADS, black_box) {
            Ok(results) => {
                black_box(results);
            }
            Err(e) => failure = Some(e),
        }
    });
    if let Some(e) = failure {
        return Err(format!("pool replay: {e}"));
    }
    out.push((
        "mapreduce.pool.dispatch_ns_per_task",
        secs * 1e9 / sizes.pool_tasks as f64,
    ));
    Ok(())
}

/// One run server on TCP loopback: the cost of a `dir` + 4 KiB `fetch`
/// round trip, and the throughput of 256 KiB ranged reads over one run.
fn netshuffle(dir: &Path, sizes: &Sizes, out: &mut Metrics) -> Result<(), String> {
    const CHUNK: u64 = 256 * 1024;
    let io = |e: std::io::Error| format!("netshuffle replay: {e}");
    let path = dir.join(format!("replay-net-{}.xruns", std::process::id()));
    let payload: Vec<u8> = (0..sizes.fetch_bytes).map(|i| (i % 251) as u8).collect();
    std::fs::write(&path, &payload).map_err(io)?;
    let file = Arc::new(std::fs::File::open(&path).map_err(io)?);
    let registry = Arc::new(Registry::new());
    let run = RunSpec {
        offset: 0,
        bytes: payload.len() as u64,
        records: 1,
    };
    registry.publish(
        1,
        0,
        PublishedTask {
            file: Some(file),
            parts: vec![vec![run]],
        },
    );
    let mut server = RunServer::bind_tcp(registry, FaultConfig::default()).map_err(io)?;
    let mut client = FetchClient::new(server.addr().clone(), FetchConfig::default());
    let key = RunKey {
        job: 1,
        partition: 0,
        task: 0,
    };

    let mut failure = None;
    let roundtrip_secs = median_secs(sizes.micro_reps, || {
        for _ in 0..sizes.roundtrips {
            let reply = client.dir(key).and_then(|_| client.fetch(key, 0, 4096));
            match reply {
                Ok(bytes) => {
                    black_box(bytes);
                }
                Err(e) => failure = Some(e.to_string()),
            }
        }
    });
    let stream_secs = median_secs(sizes.micro_reps, || {
        let mut offset = 0;
        while offset < run.bytes {
            let len = CHUNK.min(run.bytes - offset);
            match client.fetch(key, offset, len) {
                Ok(bytes) => {
                    if bytes[..] != payload[offset as usize..(offset + len) as usize] {
                        failure = Some("fetched bytes differ from the run file".to_owned());
                    }
                }
                Err(e) => failure = Some(e.to_string()),
            }
            offset += len;
        }
    });
    drop(client);
    server.shutdown();
    // Best effort: the file's parent directory is removed at exit anyway.
    let _ = std::fs::remove_file(&path);
    if let Some(e) = failure {
        return Err(format!("netshuffle replay: {e}"));
    }
    out.push((
        "netshuffle.roundtrip_us",
        roundtrip_secs * 1e6 / sizes.roundtrips as f64,
    ));
    out.push((
        "netshuffle.fetch_mib_per_s",
        run.bytes as f64 / (1024.0 * 1024.0) / stream_secs,
    ));
    Ok(())
}
