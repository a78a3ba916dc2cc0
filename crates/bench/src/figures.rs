//! The per-figure reproduction harnesses.

use tsj::{recall, ApproximationScheme, DedupStrategy, JoinOutput, TsjConfig, TsjJoiner};
use tsj_datagen::{roc_dataset, workload};
use tsj_fuzzyset::{fuzzy_distance, roc_curve, FuzzyMeasure, TokenWeights};
use tsj_mapreduce::{Cluster, ClusterConfig, Dataset, Emitter, OutputSink};
use tsj_metricjoin::{HmjConfig, HmjJoiner};
use tsj_setdist::nsld;
use tsj_tokenize::{Corpus, NameTokenizer, StringId, Tokenizer};

use crate::params::FigParams;

/// One data point of a figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Series name (e.g. `"greedy-token-aligning"`).
    pub series: String,
    /// X coordinate (machines, T, M, or FPR).
    pub x: f64,
    /// Y coordinate (simulated seconds, pair count, or TPR).
    pub y: f64,
}

/// A regenerated figure: rows plus free-form notes (speedups, recalls,
/// AUCs) matching the claims the paper states in prose.
#[derive(Debug, Clone)]
pub struct FigData {
    pub title: String,
    pub xlabel: String,
    pub ylabel: String,
    pub rows: Vec<Row>,
    pub notes: Vec<String>,
}

impl FigData {
    /// Prints the figure as TSV (`series⟨TAB⟩x⟨TAB⟩y`) with `#` headers.
    pub fn print_tsv(&self) {
        use std::io::Write;
        let stdout = std::io::stdout();
        let mut w = stdout.lock();
        writeln!(w, "# {}", self.title).unwrap();
        writeln!(w, "# x = {}, y = {}", self.xlabel, self.ylabel).unwrap();
        writeln!(w, "series\tx\ty").unwrap();
        for r in &self.rows {
            writeln!(w, "{}\t{}\t{}", r.series, r.x, r.y).unwrap();
        }
        for n in &self.notes {
            writeln!(w, "# note: {n}").unwrap();
        }
    }

    /// The y values of one series, ordered by x.
    pub fn series(&self, name: &str) -> Vec<(f64, f64)> {
        let mut v: Vec<(f64, f64)> = self
            .rows
            .iter()
            .filter(|r| r.series == name)
            .map(|r| (r.x, r.y))
            .collect();
        v.sort_by(|a, b| a.0.total_cmp(&b.0));
        v
    }
}

fn build_corpus(p: &FigParams) -> Corpus {
    let w = workload(p.n, p.ring_fraction, p.seed);
    Corpus::build(&w.strings, &NameTokenizer::default())
}

fn run_join(
    corpus: &Corpus,
    p: &FigParams,
    machines: usize,
    t: f64,
    m: usize,
    scheme: ApproximationScheme,
    dedup: DedupStrategy,
) -> JoinOutput {
    let cluster = p.cluster(machines);
    TsjJoiner::new(&cluster)
        .self_join(
            corpus,
            &TsjConfig {
                threshold: t,
                max_token_frequency: Some(m),
                scheme,
                dedup,
                ..TsjConfig::default()
            },
        )
        .expect("join completes")
}

/// **Fig. 1** — TSJ runtime vs machines, grouping-on-one-string vs
/// grouping-on-both-strings.
///
/// Paper claims: both scale out well (≈3.8× speedup for 10× machines);
/// one-string consistently faster by 13–32%.
pub fn fig1(p: &FigParams) -> FigData {
    let corpus = build_corpus(p);
    let mut rows = Vec::new();
    for &machines in &p.machines_sweep {
        for (dedup, series) in [
            (DedupStrategy::OneString, "grouping-on-one-string"),
            (DedupStrategy::BothStrings, "grouping-on-both-strings"),
        ] {
            let out = run_join(
                &corpus,
                p,
                machines,
                p.default_t,
                p.default_m,
                ApproximationScheme::FuzzyTokenMatching,
                dedup,
            );
            rows.push(Row {
                series: series.into(),
                x: machines as f64,
                y: out.sim_secs(),
            });
        }
    }
    let mut fig = FigData {
        title: "Fig 1: TSJ runtime vs machines and dedup strategy".into(),
        xlabel: "machines".into(),
        ylabel: "simulated seconds".into(),
        rows,
        notes: Vec::new(),
    };
    for series in ["grouping-on-one-string", "grouping-on-both-strings"] {
        let s = fig.series(series);
        if let (Some(first), Some(last)) = (s.first(), s.last()) {
            fig.notes.push(format!(
                "{series}: speedup {:.2}x from {}x machines (paper: 3.8x from 10x)",
                first.1 / last.1,
                (last.0 / first.0) as u64,
            ));
        }
    }
    let one = fig.series("grouping-on-one-string");
    let both = fig.series("grouping-on-both-strings");
    if !one.is_empty() && one.len() == both.len() {
        let gaps: Vec<f64> = one
            .iter()
            .zip(&both)
            .map(|((_, o), (_, b))| (b - o) / b * 100.0)
            .collect();
        fig.notes.push(format!(
            "one-string faster by {:.0}%..{:.0}% (paper: 13%..32%)",
            gaps.iter().copied().fold(f64::INFINITY, f64::min),
            gaps.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        ));
    }
    fig
}

const SCHEMES: [ApproximationScheme; 3] = [
    ApproximationScheme::FuzzyTokenMatching,
    ApproximationScheme::GreedyTokenAligning,
    ApproximationScheme::ExactTokenMatching,
];

/// Runs the default one-string join under every scheme (fuzzy first) at
/// each `(x, T, M)` sweep point, handing `visit` the point's x and the
/// join's output.
fn sweep_schemes(
    p: &FigParams,
    points: impl Iterator<Item = (f64, f64, usize)>,
    mut visit: impl FnMut(f64, ApproximationScheme, JoinOutput),
) {
    let corpus = build_corpus(p);
    for (x, t, m) in points {
        for scheme in SCHEMES {
            let dedup = DedupStrategy::OneString;
            let out = run_join(&corpus, p, p.default_machines, t, m, scheme, dedup);
            visit(x, scheme, out);
        }
    }
}

/// The `T` sweep at the default `M` (Figs. 2 and 4).
fn t_sweep(p: &FigParams) -> impl Iterator<Item = (f64, f64, usize)> + '_ {
    p.thresholds.iter().map(|&t| (t, t, p.default_m))
}

/// The `M` sweep at the default `T` (Figs. 3 and 5).
fn m_sweep(p: &FigParams) -> impl Iterator<Item = (f64, f64, usize)> + '_ {
    p.m_values.iter().map(|&m| (m as f64, p.default_t, m))
}

/// Simulated runtime per scheme over a sweep, with the mean-saving notes.
fn runtime_fig(
    p: &FigParams,
    points: impl Iterator<Item = (f64, f64, usize)>,
    title: &str,
    xlabel: &str,
    paper: &str,
) -> FigData {
    let mut rows = Vec::new();
    sweep_schemes(p, points, |x, scheme, out| {
        rows.push(Row {
            series: scheme.name().into(),
            x,
            y: out.sim_secs(),
        });
    });
    let mut fig = FigData {
        title: title.into(),
        xlabel: xlabel.into(),
        ylabel: "simulated seconds".into(),
        rows,
        notes: Vec::new(),
    };
    push_saving_notes(&mut fig, paper);
    fig
}

/// **Fig. 2** — runtime vs `T` for the three token matching/aligning
/// schemes. Paper: greedy saves ≈13% over fuzzy (more at higher T);
/// exact saves ≈60% and is nearly flat in T.
pub fn fig2(p: &FigParams) -> FigData {
    let title = "Fig 2: TSJ runtime vs NSLD threshold T";
    runtime_fig(p, t_sweep(p), title, "T", "13% (greedy), 60% (exact)")
}

/// **Fig. 3** — runtime vs `M`. Paper: greedy saves ≈9%, exact ≈33%,
/// both fairly stable across M.
pub fn fig3(p: &FigParams) -> FigData {
    let title = "Fig 3: TSJ runtime vs max token frequency M";
    runtime_fig(p, m_sweep(p), title, "M", "9% (greedy), 33% (exact)")
}

fn push_saving_notes(fig: &mut FigData, paper: &str) {
    let fuzzy = fig.series("fuzzy-token-matching");
    for name in ["greedy-token-aligning", "exact-token-matching"] {
        let s = fig.series(name);
        if s.len() != fuzzy.len() || s.is_empty() {
            continue;
        }
        let mean_saving: f64 = fuzzy
            .iter()
            .zip(&s)
            .map(|((_, f), (_, a))| (f - a) / f * 100.0)
            .sum::<f64>()
            / s.len() as f64;
        fig.notes.push(format!(
            "{name}: mean runtime saving over fuzzy {mean_saving:.0}% (paper: {paper})"
        ));
    }
}

/// Discovered pairs per scheme over a sweep, with each approximate
/// scheme's recall against fuzzy (at the point `label` names) in the notes.
fn pairs_fig(
    p: &FigParams,
    points: impl Iterator<Item = (f64, f64, usize)>,
    title: &str,
    xlabel: &str,
    label: impl Fn(f64) -> String,
) -> FigData {
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    let mut fuzzy_pairs = None;
    sweep_schemes(p, points, |x, scheme, out| {
        rows.push(Row {
            series: scheme.name().into(),
            x,
            y: out.pairs.len() as f64,
        });
        match scheme {
            ApproximationScheme::FuzzyTokenMatching => fuzzy_pairs = Some(out.pairs),
            _ => {
                let r = recall(&out.pairs, fuzzy_pairs.as_ref().expect("fuzzy ran first"));
                notes.push(format!("{} {}: recall {r:.5}", label(x), scheme.name()));
            }
        }
    });
    FigData {
        title: title.into(),
        xlabel: xlabel.into(),
        ylabel: "similar pairs".into(),
        rows,
        notes,
    }
}

/// **Fig. 4** — number of discovered pairs vs `T` per scheme, with recall
/// against fuzzy in the notes. Paper: at T = 0.225, greedy recall 0.99993,
/// exact recall 0.86655; both 1.0 at T = 0.025.
pub fn fig4(p: &FigParams) -> FigData {
    let title = "Fig 4: discovered pairs vs NSLD threshold T";
    pairs_fig(p, t_sweep(p), title, "T", |t| format!("T={t:.3}"))
}

/// **Fig. 5** — number of discovered pairs vs `M` per scheme. Paper:
/// greedy recall ≈0.999999 across M; exact between 0.974 and 0.985.
pub fn fig5(p: &FigParams) -> FigData {
    let title = "Fig 5: discovered pairs vs max token frequency M";
    pairs_fig(p, m_sweep(p), title, "M", |m| format!("M={m}"))
}

/// **Fig. 6** — ROC curves of NSLD vs weighted FJaccard / FCosine / FDice
/// on labelled name changes. Paper: NSLD dominates.
pub fn fig6(p: &FigParams) -> FigData {
    let samples = roc_dataset(p.roc_samples, p.seed);
    let corpus = Corpus::build(
        samples
            .iter()
            .flat_map(|s| [s.old.as_str(), s.new.as_str()]),
        &NameTokenizer::default(),
    );
    let weights = TokenWeights::from_corpus(&corpus);
    let tokenizer = NameTokenizer::default();
    let delta = 0.8;

    let mut rows = Vec::new();
    let mut notes = Vec::new();
    type DistFn = Box<dyn Fn(&[String], &[String]) -> f64>;
    let measures: [(&str, DistFn); 4] = [
        ("NSLD", Box::new(|o: &[String], n: &[String]| nsld(o, n))),
        (
            "weighted FJaccard",
            Box::new(move |o, n| fuzzy_distance(o, n, &weights, delta, FuzzyMeasure::Jaccard)),
        ),
        (
            "weighted FCosine",
            Box::new({
                let weights = TokenWeights::from_corpus(&corpus);
                move |o, n| fuzzy_distance(o, n, &weights, delta, FuzzyMeasure::Cosine)
            }),
        ),
        (
            "weighted FDice",
            Box::new({
                let weights = TokenWeights::from_corpus(&corpus);
                move |o, n| fuzzy_distance(o, n, &weights, delta, FuzzyMeasure::Dice)
            }),
        ),
    ];
    let tokenized: Vec<(Vec<String>, Vec<String>, bool)> = samples
        .iter()
        .map(|s| {
            (
                tokenizer.tokenize(&s.old),
                tokenizer.tokenize(&s.new),
                s.fraud,
            )
        })
        .collect();
    for (name, dist) in &measures {
        let scored: Vec<(f64, bool)> = tokenized
            .iter()
            .map(|(o, n, fraud)| (dist(o, n), *fraud))
            .collect();
        let curve = roc_curve(&scored);
        notes.push(format!("{name}: AUC {:.4}", curve.auc()));
        // Downsample the curve for readable TSV output.
        let step = (curve.points.len() / 200).max(1);
        for (i, (fpr, tpr)) in curve.points.iter().enumerate() {
            if i % step == 0 || i + 1 == curve.points.len() {
                rows.push(Row {
                    series: (*name).into(),
                    x: *fpr,
                    y: *tpr,
                });
            }
        }
    }
    FigData {
        title: "Fig 6: ROC of NSLD vs weighted set-based fuzzy measures".into(),
        xlabel: "false positive rate".into(),
        ylabel: "true positive rate".into(),
        rows,
        notes,
    }
}

/// **Shuffle-volume figure** (no paper counterpart; ROADMAP item) — per
/// threshold `T`, the pipeline-total intermediate records at each stage of
/// the paper's cost analysis (Sec. III-A/III-G: "the framework's runtime
/// is dominated by shuffle volume"): pairs emitted by mappers, records
/// actually shuffled after map-side combining, and — for the same join run
/// with memory-bounded mappers — records that travelled via disk spill
/// segments, plus the simulated cost of bounding.
///
/// The gap between `emitted` and `shuffled` is the combiner saving the
/// cost model charges for; `spilled` shows how much of the shuffle a
/// 1 GB-RAM-style worker would push through its local disk. A third run
/// of the same join over the `MultiProcess` transport measures the
/// exchange: its serialized bytes per `T` (the `transport KiB` series and
/// notes — the volume a real cluster's interconnect would carry) and its
/// simulated cost, with output asserted identical to both other runs.
pub fn fig_shuffle(p: &FigParams) -> FigData {
    let corpus = build_corpus(p);
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    // The per-job breakdown note reuses the sweep's run nearest the
    // default operating point instead of paying for an extra join.
    let breakdown_t = p
        .thresholds
        .iter()
        .copied()
        .min_by(|a, b| (a - p.default_t).abs().total_cmp(&(b - p.default_t).abs()))
        .unwrap_or(p.default_t);
    let mut breakdown: Option<JoinOutput> = None;
    for &t in &p.thresholds {
        let unbounded = TsjJoiner::new(&p.cluster(p.default_machines))
            .self_join(
                &corpus,
                &TsjConfig {
                    threshold: t,
                    max_token_frequency: Some(p.default_m),
                    ..TsjConfig::default()
                },
            )
            .expect("unbounded join completes");
        let bounded = TsjJoiner::new(&p.bounded_cluster(p.default_machines))
            .self_join(
                &corpus,
                &TsjConfig {
                    threshold: t,
                    max_token_frequency: Some(p.default_m),
                    ..TsjConfig::default()
                },
            )
            .expect("bounded join completes");
        assert_eq!(
            unbounded.pairs, bounded.pairs,
            "bounded mappers must not change the join result"
        );
        let transported = TsjJoiner::new(&p.multiprocess_cluster(p.default_machines))
            .self_join(
                &corpus,
                &TsjConfig {
                    threshold: t,
                    max_token_frequency: Some(p.default_m),
                    ..TsjConfig::default()
                },
            )
            .expect("multi-process join completes");
        assert_eq!(
            unbounded.pairs, transported.pairs,
            "the shuffle transport must not change the join result"
        );
        for (series, y) in [
            ("emitted", unbounded.report.total_map_output_records()),
            ("shuffled", unbounded.report.total_shuffle_records()),
            (
                "spilled (bounded mappers)",
                bounded.report.total_spilled_records(),
            ),
            (
                "transport KiB (multi-process)",
                transported.report.total_transport_bytes() / 1024,
            ),
        ] {
            rows.push(Row {
                series: series.into(),
                x: t,
                y: y as f64,
            });
        }
        notes.push(format!(
            "T={t:.3}: combiner saves {:.1}% of shuffle volume; bounding mappers at \
             {} records spills {} records ({} KiB) and costs {:+.1}% simulated time",
            100.0
                * (1.0
                    - unbounded.report.total_shuffle_records() as f64
                        / unbounded.report.total_map_output_records().max(1) as f64),
            p.spill_threshold,
            bounded.report.total_spilled_records(),
            bounded.report.total_spill_bytes() / 1024,
            100.0 * (bounded.report.total_sim_secs() / unbounded.report.total_sim_secs() - 1.0),
        ));
        notes.push(format!(
            "T={t:.3}: multi-process exchange moves {} KiB for {} shuffled records \
             ({:.1} B/record) and costs {:+.1}% simulated time over bounded in-process",
            transported.report.total_transport_bytes() / 1024,
            transported.report.total_shuffle_records(),
            transported.report.total_transport_bytes() as f64
                / transported.report.total_shuffle_records().max(1) as f64,
            100.0 * (transported.report.total_sim_secs() / bounded.report.total_sim_secs() - 1.0),
        ));
        if t == breakdown_t {
            breakdown = Some(unbounded);
        }
    }
    // Per-job breakdown near the default operating point (the shape the
    // ROADMAP asks to compare against the paper's cost analysis).
    if let Some(at_default) = &breakdown {
        for j in at_default.report.jobs() {
            notes.push(format!(
                "T={breakdown_t:.3} {}: emitted {}, shuffled {} ({:.1}% saved)",
                j.name,
                j.map_output_records,
                j.shuffle_records,
                100.0 * (1.0 - j.shuffle_records as f64 / j.map_output_records.max(1) as f64),
            ));
        }
    }
    FigData {
        title: "Shuffle volume: emitted vs shuffled vs spilled, per NSLD threshold T".into(),
        xlabel: "T".into(),
        ylabel: "records".into(),
        rows,
        notes,
    }
}

/// The fastest of three runs' wall-clock seconds (the usual best-of-n
/// discipline for wall measurements), with the last run's result.
#[expect(clippy::disallowed_methods, reason = "a wall-clock measurement")]
fn best_of_three<T>(mut run: impl FnMut() -> T) -> (f64, T) {
    let mut timed = || {
        let start = std::time::Instant::now();
        let out = run();
        (start.elapsed().as_secs_f64(), out)
    };
    let (mut best, mut out) = timed();
    for _ in 1..3 {
        let (secs, next) = timed();
        best = best.min(secs);
        out = next;
    }
    (best, out)
}

/// Stage A of the overlap figure's candidate→verify pipeline: groups
/// postings by token and emits candidate pairs, charging each group a
/// blocking stall of `stall_us` per grouped record (modeled remote-storage
/// latency, the dominant tail on real clusters).
fn overlap_candidates<'a>(
    data: Dataset<'a, u32>,
    corpus: &'a Corpus,
    stall_us: u64,
) -> Dataset<'a, (u32, u32)> {
    data.map_reduce(
        "overlap.candidates",
        |&s, e: &mut Emitter<u32, u32>| {
            for &t in corpus.tokens(StringId(s)) {
                e.emit(t.0, s);
            }
        },
        move |_t: &u32, mut sids: Vec<u32>, out: &mut OutputSink<(u32, u32)>| {
            // Modeled remote read: latency per grouped posting (a real
            // blocking wait, like a storage fetch on the paper's cluster).
            std::thread::sleep(std::time::Duration::from_micros(
                stall_us * sids.len() as u64,
            ));
            sids.sort_unstable();
            sids.dedup();
            for i in 0..sids.len().min(24) {
                for j in i + 1..sids.len().min(24) {
                    out.emit((sids[i], sids[j]));
                }
            }
        },
    )
}

/// Stage B of the overlap figure's pipeline: *map-side* verifies every
/// candidate with a real NSLD computation and counts the survivors.
fn overlap_map_verify<'a>(
    candidates: Dataset<'a, (u32, u32)>,
    corpus: &'a Corpus,
    t: f64,
) -> Dataset<'a, u64> {
    candidates.map_reduce(
        "overlap.map_verify",
        move |&(a, b): &(u32, u32), e: &mut Emitter<u8, u8>| {
            let ta = corpus.token_texts(StringId(a));
            let tb = corpus.token_texts(StringId(b));
            if nsld(&ta, &tb) <= t {
                e.emit(0, 1);
            }
        },
        |_k: &u8, vs: Vec<u8>, out: &mut OutputSink<u64>| out.emit(vs.len() as u64),
    )
}

/// **Overlap figure** (EXPERIMENTS.md) — real wall-clock of a
/// candidate→verify pipeline over the figure corpus run as one lazy job
/// graph (cross-stage overlap on the shared worker pool) vs the same two
/// stages chained through the driver (stage A collected, its candidates
/// re-lifted with [`Cluster::input_vec`]), per thread count; and of the
/// lazy graph with a seeded straggler, without vs with speculative
/// re-execution. Every pair of runs produces the same verified count
/// (asserted). Wall-clock is the minimum of three runs per point (the
/// usual best-of-n discipline for wall measurements).
pub fn fig_overlap(p: &FigParams) -> FigData {
    let corpus = build_corpus(p);
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    let threads_sweep: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&t| p.threads == 0 || t <= p.threads)
        .collect();
    // ---- Stall-bound series --------------------------------------------
    // The regime the DAG exploits is *underutilized* workers: a
    // straggling upstream reduce task — stalled on `TSJ_FIG_STALL_US`
    // (default 20 µs) per grouped record — while finished partitions'
    // downstream work could already run. With `partitions = threads`,
    // token skew makes one reduce task a straggler, and the lazy scheduler
    // verifies finished partitions inside its stall window. The baseline
    // chains the two stages through the driver, so stage B starts only
    // after stage A's last reduce task: a stage barrier plus one driver
    // copy of the candidates.
    let stall_us = p.stall_us;
    let string_ids: Vec<u32> = (0..corpus.len() as u32).collect();
    let verified = |out: Vec<u64>| out.iter().map(|&n| n as usize).sum::<usize>();
    // The lazy two-stage graph; the scheduling regime under test lives
    // entirely in the cluster's configuration.
    let run_pipeline = |c: &Cluster| {
        let candidates = overlap_candidates(c.input(&string_ids), &corpus, stall_us);
        overlap_map_verify(candidates, &corpus, p.default_t)
            .collect()
            .expect("overlap pipeline completes")
    };
    let run_driver_chained = |c: &Cluster| {
        let (candidates, _) = overlap_candidates(c.input(&string_ids), &corpus, stall_us)
            .collect()
            .expect("overlap candidates complete");
        overlap_map_verify(c.input_vec(candidates), &corpus, p.default_t)
            .collect()
            .expect("overlap verify completes")
    };
    for &threads in &threads_sweep {
        if threads < 2 {
            continue; // one worker has no idle capacity to reclaim
        }
        let cluster = Cluster::new(ClusterConfig {
            machines: threads,
            threads,
            partitions: threads,
            ..*p.cluster(p.default_machines).config()
        });
        let (lazy_secs, (lazy, _)) = best_of_three(|| run_pipeline(&cluster));
        let (chained_secs, (chained, _)) = best_of_three(|| run_driver_chained(&cluster));
        let lazy_pairs = verified(lazy);
        assert_eq!(
            lazy_pairs,
            verified(chained),
            "overlap must not change results"
        );
        rows.push(Row {
            series: "stall-bound lazy (overlapped)".into(),
            x: threads as f64,
            y: lazy_secs,
        });
        rows.push(Row {
            series: "stall-bound driver-chained (barrier)".into(),
            x: threads as f64,
            y: chained_secs,
        });
        notes.push(format!(
            "stall-bound ({stall_us} µs/record) threads={threads}: lazy {lazy_secs:.3}s vs \
             driver-chained {chained_secs:.3}s ({:+.1}% wall-clock, {lazy_pairs} verified)",
            100.0 * (lazy_secs / chained_secs - 1.0),
        ));
    }
    // ---- Straggler / speculation series --------------------------------
    // A seeded *environmental* straggler: map task 0 of the candidates
    // stage sleeps `TSJ_FIG_STRAGGLE_US` (default 300 ms) on its primary
    // attempt, simulating one slow node. The non-speculative policy has no
    // answer — the map wave barrier (and every downstream task behind it)
    // waits out the sleep — so it is the no-mitigation baseline: same
    // ready queue, same injection, only speculation differs. The
    // speculative scheduler launches a second copy of the
    // stalled task on an idle worker once it has run `straggle/2`; the
    // copy wins (`speculative_won ≥ 1`, asserted), the barrier releases,
    // and the loser's remaining sleep overlaps the reduce + verify work
    // instead of preceding it. Output is byte-identical either way
    // (asserted). The threshold choice matters on this one-core host: it
    // must exceed the longest *honest* task (speculating a compute-bound
    // verify task steals real CPU from the original — measured +2…9%
    // with a 2 ms threshold) while staying under the straggle it is
    // there to beat.
    {
        use tsj_mapreduce::{SchedulerConfig, SchedulerMode, StraggleInjection};
        let straggle_us = p.straggle_us;
        for &threads in &threads_sweep {
            if threads < 2 {
                continue; // the speculative copy needs an idle worker
            }
            let cluster = Cluster::new(ClusterConfig {
                machines: threads,
                threads,
                partitions: threads,
                ..*p.cluster(p.default_machines).config()
            });
            let straggle = Some(StraggleInjection {
                stage: "overlap.candidates".into(),
                micros: straggle_us,
            });
            let timed = |sched: SchedulerConfig| {
                let c = cluster.clone().with_scheduler(sched);
                let (best, (out, report)) = best_of_three(|| run_pipeline(&c));
                (best, verified(out), report)
            };
            let (plain_secs, plain_pairs, _) = timed(SchedulerConfig {
                mode: SchedulerMode::Stealing,
                straggle: straggle.clone(),
                ..SchedulerConfig::default()
            });
            let (spec_secs, spec_pairs, spec_report) = timed(SchedulerConfig {
                mode: SchedulerMode::Speculative,
                speculate_after: std::time::Duration::from_micros(straggle_us / 2),
                straggle: straggle.clone(),
            });
            assert_eq!(
                plain_pairs, spec_pairs,
                "speculative re-execution must not change the result"
            );
            assert!(
                spec_report.total_speculative_won() >= 1,
                "the speculative copy should beat a {straggle_us} µs straggler"
            );
            rows.push(Row {
                series: "straggler no speculation".into(),
                x: threads as f64,
                y: plain_secs,
            });
            rows.push(Row {
                series: "straggler speculative".into(),
                x: threads as f64,
                y: spec_secs,
            });
            notes.push(format!(
                "straggler ({straggle_us} µs on overlap.candidates) threads={threads}: \
                 no speculation {plain_secs:.3}s vs speculative {spec_secs:.3}s \
                 ({:+.1}% wall-clock; speculative launched/won={}/{})",
                100.0 * (spec_secs / plain_secs - 1.0),
                spec_report.total_speculative_launched(),
                spec_report.total_speculative_won(),
            ));
        }
    }
    FigData {
        title: "Cross-stage overlap: pipeline wall-clock, lazy vs driver-chained".into(),
        xlabel: "worker threads".into(),
        ylabel: "wall seconds (best of 3)".into(),
        rows,
        notes,
    }
}

/// **Fig. 7** — TSJ vs HMJ runtime vs machines. Paper: HMJ did not finish
/// on 100 machines; TSJ 12–15× faster elsewhere.
pub fn fig7(p: &FigParams) -> FigData {
    // Both systems run on n/2: HMJ's partitioning bill alone is
    // n × machines NSLD evaluations, which makes the *baseline* the
    // wall-clock bottleneck of the whole harness at full n. The comparison
    // stays apples-to-apples (same corpus for both series).
    let p = &FigParams {
        n: (p.n / 2).max(1000),
        ..p.clone()
    };
    let corpus = build_corpus(p);
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    for &machines in &p.machines_sweep {
        let tsj_out = run_join(
            &corpus,
            p,
            machines,
            p.default_t,
            p.default_m,
            ApproximationScheme::FuzzyTokenMatching,
            DedupStrategy::OneString,
        );
        rows.push(Row {
            series: "TSJ".into(),
            x: machines as f64,
            y: tsj_out.sim_secs(),
        });

        let cluster = p.cluster(machines);
        // HMJ partition count scales with the cluster (as in ClusterJoin);
        // target partition size shrinks as machines grow. The distance
        // budget mirrors the paper's "did not finish in a reasonable
        // amount of time" protocol at 100 machines.
        let hmj = HmjJoiner::new(
            &cluster,
            HmjConfig {
                num_centroids: machines,
                max_partition_size: (4 * p.n / machines).max(64),
                // Partitioning alone costs n × machines distances; grant
                // that plus a fixed verification allowance. Low machine
                // counts blow the allowance through partition blow-up —
                // the paper's DNF outcome.
                max_distance_computations: Some((p.n * machines) as u64 + 15_000_000),
                ..HmjConfig::default()
            },
        )
        .self_join(&corpus, p.default_t)
        .expect("hmj job runs");
        if hmj.dnf {
            notes.push(format!(
                "HMJ DNF at {machines} machines (distance budget exhausted)"
            ));
        } else {
            rows.push(Row {
                series: "HMJ".into(),
                x: machines as f64,
                y: hmj.sim_secs(),
            });
        }
    }
    let mut fig = FigData {
        title: "Fig 7: TSJ vs HMJ runtime vs machines".into(),
        xlabel: "machines".into(),
        ylabel: "simulated seconds".into(),
        rows,
        notes,
    };
    let tsj = fig.series("TSJ");
    let hmj = fig.series("HMJ");
    let ratios: Vec<String> = hmj
        .iter()
        .map(|(m, h)| {
            let t = tsj
                .iter()
                .find(|(tm, _)| tm == m)
                .map(|(_, t)| *t)
                .unwrap_or(f64::NAN);
            format!("{}x@{m}", (h / t).round())
        })
        .collect();
    fig.notes.push(format!(
        "HMJ/TSJ runtime ratio: {} (paper: 12x..15x, DNF at 100 machines)",
        ratios.join(", ")
    ));
    fig
}
