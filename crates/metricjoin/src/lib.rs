//! Hybrid Metric Joiner (HMJ): the metric-space join baseline of Sec. V-E.
//!
//! The paper compares TSJ against "an in-house-built algorithm that is a
//! hybrid of the most scalable and efficient algorithms \[53\], \[68\] proposed
//! for metric-space joins":
//!
//! * records are dissected into Voronoi partitions among sampled centroids
//!   (ClusterJoin \[53\]), each record landing in its *home* (nearest
//!   centroid) partition;
//! * the *general filter* replicates a record into every partition whose
//!   centroid is within `2T` of optimal — the margin that guarantees every
//!   similar pair shares at least one partition (both members' homes
//!   qualify, so verification responsibility can be pinned to
//!   `min(home_x, home_y)` and no global dedup pass is needed);
//! * distance-metric symmetry is exploited to verify each pair once
//!   (MR-MAPSS \[68\]);
//! * oversized partitions are *recursively repartitioned* with
//!   sub-centroids \[68\];
//! * inside a partition, the triangle inequality prunes pairs through the
//!   centroid-distance window `|d(x, c) − d(y, c)| > T`.
//!
//! (The clique/biclique output compression of \[68\] is not reproduced — it
//! compresses output, not comparisons, and the paper's Fig. 7 claim is
//! about runtime/scalability, which this implementation exhibits: dense
//! name clusters produce heavy partitions whose reducers straggle.)
//!
//! NSLD being a metric (Theorem 2) is exactly what makes this baseline
//! *applicable*; the evaluation shows why it is nonetheless the wrong tool
//! for tokenized strings.

pub mod vptree;

pub use vptree::VpTree;

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use tsj_mapreduce::{Cluster, Emitter, FxBuildHasher, JobError, OutputSink, SimReport, Spill};
use tsj_setdist::{nsld, nsld_within, Aligning};
use tsj_tokenize::{Corpus, StringId};

/// A verified similar pair (`a < b`, `dist ≤ T`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricPair {
    pub a: u32,
    pub b: u32,
    pub dist: f64,
}

/// Job outputs are [`Spill`] so a dataset-producing stage can keep them
/// runtime-side (and spill them) instead of materializing a driver `Vec`.
impl Spill for MetricPair {
    fn spill(&self, out: &mut Vec<u8>) {
        self.a.spill(out);
        self.b.spill(out);
        self.dist.spill(out);
    }

    fn restore(buf: &mut &[u8]) -> Option<Self> {
        Some(Self {
            a: u32::restore(buf)?,
            b: u32::restore(buf)?,
            dist: f64::restore(buf)?,
        })
    }
}

/// HMJ tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HmjConfig {
    /// Number of sampled Voronoi centroids (the paper's partition count).
    pub num_centroids: usize,
    /// Partitions larger than this are recursively repartitioned.
    pub max_partition_size: usize,
    /// Recursion depth limit (guards degenerate clusters where
    /// sub-centroids stop separating records — the paper's "fairly dense
    /// clusters" failure mode).
    pub max_depth: usize,
    /// Centroid sampling seed.
    pub seed: u64,
    /// Abort the join once this many distance evaluations have been spent
    /// (`None` = unlimited). This reproduces the paper's Fig. 7 protocol --
    /// "HMJ did not finish on 100 machines in a reasonable amount of time"
    /// -- with a deterministic budget instead of a stopwatch; an aborted
    /// join reports [`HmjOutput::dnf`] and discards its partial pairs.
    pub max_distance_computations: Option<u64>,
}

impl Default for HmjConfig {
    fn default() -> Self {
        Self {
            num_centroids: 64,
            max_partition_size: 512,
            max_depth: 3,
            seed: 0xC1_05_7E,
            max_distance_computations: None,
        }
    }
}

/// The join output: pairs plus the pipeline report.
#[derive(Debug)]
pub struct HmjOutput {
    /// Verified pairs sorted by `(a, b)`; empty when [`HmjOutput::dnf`].
    pub pairs: Vec<MetricPair>,
    /// Simulation report (one partition+verify job).
    pub report: SimReport,
    /// `true` when the distance-computation budget was exhausted: the join
    /// Did Not Finish (the paper's 100-machines outcome in Fig. 7).
    pub dnf: bool,
}

impl HmjOutput {
    pub fn sim_secs(&self) -> f64 {
        self.report.total_sim_secs()
    }
}

/// The joiner bound to a cluster.
#[derive(Debug, Clone)]
pub struct HmjJoiner<'c> {
    cluster: &'c Cluster,
    cfg: HmjConfig,
}

/// A record replicated into a partition.
///
/// Public as the workspace's exemplar of a job-specific [`Spill`] codec
/// on a plain struct (fixed-width fields, including an `f64`); its
/// roundtrip behaviour is property-tested in
/// `crates/mapreduce/tests/codec_roundtrip.rs`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Replica {
    pub sid: u32,
    /// The record's home partition (nearest centroid).
    pub home: u32,
    /// Distance to *this* partition's centroid (window pruning).
    pub dist_to_centroid: f64,
}

/// Shuffle values must be spillable so the partition job can run with
/// memory-bounded mappers (`ShuffleConfig`).
impl Spill for Replica {
    fn spill(&self, out: &mut Vec<u8>) {
        self.sid.spill(out);
        self.home.spill(out);
        self.dist_to_centroid.spill(out);
    }

    fn restore(buf: &mut &[u8]) -> Option<Self> {
        Some(Self {
            sid: u32::restore(buf)?,
            home: u32::restore(buf)?,
            dist_to_centroid: f64::restore(buf)?,
        })
    }
}

impl<'c> HmjJoiner<'c> {
    pub fn new(cluster: &'c Cluster, cfg: HmjConfig) -> Self {
        assert!(cfg.num_centroids >= 1);
        assert!(cfg.max_partition_size >= 2);
        Self { cluster, cfg }
    }

    /// NSLD self-join under threshold `t`.
    pub fn self_join(&self, corpus: &Corpus, t: f64) -> Result<HmjOutput, JobError> {
        assert!((0.0..1.0).contains(&t), "threshold must be in [0, 1)");
        let mut report = SimReport::new();
        let n = corpus.len();
        let string_ids: Vec<u32> = (0..n as u32).collect();

        // Sample centroids (records themselves, as in ClusterJoin).
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let mut sample = string_ids.clone();
        sample.shuffle(&mut rng);
        let centroids: Vec<u32> = sample
            .into_iter()
            .take(self.cfg.num_centroids.min(n.max(1)))
            .collect();
        if centroids.is_empty() {
            return Ok(HmjOutput {
                pairs: Vec::new(),
                report,
                dnf: false,
            });
        }
        let centroid_tokens: Vec<Vec<&str>> = centroids
            .iter()
            .map(|&c| corpus.token_texts(StringId(c)))
            .collect();

        let cfg = self.cfg;
        let budget = AtomicU64::new(0);
        let over_budget = |spent: u64| cfg.max_distance_computations.is_some_and(|cap| spent > cap);
        // ---- Single pipeline job: partition (map) + verify (reduce) -----
        // One-stage job graph: under a bounded ShuffleConfig the verified
        // pairs stream through a runtime-side run file and cross into
        // driver memory only at `collect`.
        let job = self.cluster.input_vec(string_ids).map_reduce(
            "hmj.partition_verify",
            |&sid, e: &mut Emitter<u32, Replica>| {
                let spent = budget.fetch_add(centroid_tokens.len() as u64, Ordering::Relaxed);
                if over_budget(spent) {
                    return; // DNF: stop burning work
                }
                let tokens = corpus.token_texts(StringId(sid));
                // The expensive part: distance to EVERY centroid.
                let dists: Vec<f64> = centroid_tokens.iter().map(|c| nsld(&tokens, c)).collect();
                e.add_counter("distance_computations", dists.len() as u64);
                e.add_work(10 * dists.len() as u64); // NSLD per centroid
                let (home, best) = dists
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, d)| (i as u32, *d))
                    .expect("at least one centroid");
                // General filter: replicate within the 2T margin.
                for (p, d) in dists.iter().enumerate() {
                    if d - best <= 2.0 * t {
                        e.emit(
                            p as u32,
                            Replica {
                                sid,
                                home,
                                dist_to_centroid: *d,
                            },
                        );
                        e.add_counter("replicas", 1);
                    }
                }
            },
            |&partition, replicas: Vec<Replica>, out: &mut OutputSink<MetricPair>| {
                verify_partition(corpus, partition, replicas, t, &cfg, 0, out, &budget);
            },
        );
        let (output, job_report) = job.collect()?;
        report.extend(job_report);

        let dnf = over_budget(budget.load(Ordering::Relaxed));
        let mut pairs = if dnf { Vec::new() } else { output };
        pairs.sort_unstable_by_key(|p| (p.a, p.b));
        Ok(HmjOutput { pairs, report, dnf })
    }
}

/// Verifies one partition: window-pruned all-pairs, or recursive
/// sub-partitioning when oversized.
#[expect(clippy::too_many_arguments, reason = "the recursion's state")]
fn verify_partition(
    corpus: &Corpus,
    partition: u32,
    mut replicas: Vec<Replica>,
    t: f64,
    cfg: &HmjConfig,
    depth: usize,
    out: &mut OutputSink<MetricPair>,
    budget: &AtomicU64,
) {
    let over_budget = |spent: u64| cfg.max_distance_computations.is_some_and(|cap| spent > cap);
    if over_budget(budget.load(Ordering::Relaxed)) {
        return; // DNF: the join has already been declared dead
    }
    if replicas.len() <= cfg.max_partition_size || depth >= cfg.max_depth {
        // Window prune on distance-to-centroid (triangle inequality):
        // sort, then only compare within a ±t window.
        replicas.sort_unstable_by(|a, b| a.dist_to_centroid.total_cmp(&b.dist_to_centroid));
        let mut emitted: HashSet<(u32, u32), FxBuildHasher> = HashSet::default();
        for i in 0..replicas.len() {
            let ri = replicas[i];
            for rj in replicas.iter().skip(i + 1) {
                if rj.dist_to_centroid - ri.dist_to_centroid > t {
                    break; // sorted: everything further is out of window
                }
                if ri.sid == rj.sid {
                    continue; // the same record replicated twice upstream
                }
                // Symmetry/dedup: this partition is responsible only for
                // pairs whose smaller home is this partition.
                if ri.home.min(rj.home) != partition {
                    continue;
                }
                let key = if ri.sid < rj.sid {
                    (ri.sid, rj.sid)
                } else {
                    (rj.sid, ri.sid)
                };
                if !emitted.insert(key) {
                    continue;
                }
                if over_budget(budget.fetch_add(1, Ordering::Relaxed)) {
                    return;
                }
                out.add_counter("pairs_compared", 1);
                out.add_work(10); // one NSLD verification
                let ta = corpus.token_texts(StringId(key.0));
                let tb = corpus.token_texts(StringId(key.1));
                if let Some(d) = nsld_within(&ta, &tb, t, Aligning::Hungarian) {
                    out.emit(MetricPair {
                        a: key.0,
                        b: key.1,
                        dist: d,
                    });
                }
            }
        }
        return;
    }

    // Oversized: recursive repartition with sub-centroids [68]. Runs
    // inside this reducer — the straggler behaviour the paper observes.
    let k = (replicas.len() / cfg.max_partition_size + 2).min(replicas.len());
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ (u64::from(partition) << 32) ^ depth as u64);
    let mut sample = replicas.clone();
    sample.shuffle(&mut rng);
    let sub_centroids: Vec<u32> = sample.iter().take(k).map(|r| r.sid).collect();
    let sub_tokens: Vec<Vec<&str>> = sub_centroids
        .iter()
        .map(|&c| corpus.token_texts(StringId(c)))
        .collect();

    let mut sub_parts: Vec<Vec<Replica>> = vec![Vec::new(); k];
    for r in &replicas {
        if over_budget(budget.fetch_add(sub_tokens.len() as u64, Ordering::Relaxed)) {
            return;
        }
        let tokens = corpus.token_texts(StringId(r.sid));
        let dists: Vec<f64> = sub_tokens.iter().map(|c| nsld(&tokens, c)).collect();
        out.add_counter("distance_computations", dists.len() as u64);
        out.add_work(10 * dists.len() as u64); // NSLD per sub-centroid
        let best = dists.iter().copied().fold(f64::INFINITY, f64::min);
        for (p, d) in dists.iter().enumerate() {
            if d - best <= 2.0 * t {
                sub_parts[p].push(Replica {
                    sid: r.sid,
                    home: r.home,
                    dist_to_centroid: *d,
                });
            }
        }
    }
    // Sub-partition responsibility: dedupe pairs replicated into several
    // sub-partitions by letting only the record pair's first shared
    // sub-partition emit. A per-recursion hash set keeps this local.
    let mut emitted: HashSet<(u32, u32), FxBuildHasher> = HashSet::default();
    for sub in sub_parts {
        let mut local: OutputSink<MetricPair> = OutputSink::new();
        verify_partition(
            corpus,
            partition,
            sub,
            t,
            cfg,
            depth + 1,
            &mut local,
            budget,
        );
        out.add_work(local.work_units());
        let (pairs, counters) = local.into_parts();
        for (name, delta) in counters {
            out.add_counter(name, delta);
        }
        for p in pairs {
            if emitted.insert((p.a, p.b)) {
                out.emit(p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsj_tokenize::NameTokenizer;

    fn corpus(strings: &[&str]) -> Corpus {
        Corpus::build(strings, &NameTokenizer::default())
    }

    fn brute(c: &Corpus, t: f64) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for i in 0..c.len() as u32 {
            for j in i + 1..c.len() as u32 {
                let ta = c.token_texts(StringId(i));
                let tb = c.token_texts(StringId(j));
                if nsld(&ta, &tb) <= t {
                    out.push((i, j));
                }
            }
        }
        out
    }

    #[test]
    fn matches_brute_force_small() {
        let c = corpus(&[
            "barak obama",
            "barak obamma",
            "burak ubama",
            "chan kalan",
            "chank alan",
            "maria garcia",
            "mariah garcia",
            "wei chen",
            "wei chan",
            "jon smith",
        ]);
        let cluster = Cluster::with_machines(8);
        for t in [0.1, 0.2, 0.3] {
            let got: Vec<(u32, u32)> = HmjJoiner::new(
                &cluster,
                HmjConfig {
                    num_centroids: 3,
                    max_partition_size: 4,
                    ..HmjConfig::default()
                },
            )
            .self_join(&c, t)
            .unwrap()
            .pairs
            .iter()
            .map(|p| (p.a, p.b))
            .collect();
            assert_eq!(got, brute(&c, t), "t={t}");
        }
    }

    #[test]
    fn empty_corpus() {
        let c = corpus(&[]);
        let cluster = Cluster::with_machines(4);
        let out = HmjJoiner::new(&cluster, HmjConfig::default())
            .self_join(&c, 0.1)
            .unwrap();
        assert!(out.pairs.is_empty());
    }

    #[test]
    fn counts_distance_computations() {
        let c = corpus(&["a b", "a c", "d e", "f g"]);
        let cluster = Cluster::with_machines(4);
        let out = HmjJoiner::new(
            &cluster,
            HmjConfig {
                num_centroids: 2,
                ..HmjConfig::default()
            },
        )
        .self_join(&c, 0.2)
        .unwrap();
        // Partitioning alone costs n × centroids distance computations.
        assert!(out.report.counter("distance_computations") >= 8);
    }
}
