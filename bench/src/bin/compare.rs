//! `compare A.json B.json [--aa 1]`: two result files of `tsj-perf suite`
//! → one row per (workload, end-to-end metric) with both medians, both
//! sides' quartiles and the metric's bound.
//!
//! A row is `regressed` when B's median is worse than A's by more than
//! the bound, and `unresolved` when either side's own run-to-run spread
//! (interquartile range over median) exceeds the bound — unless every run
//! of B reads better than every run of A. Exit code 1 on any regression;
//! with `--aa 1` (two sets of runs of one build) also on any unresolved
//! row or any deterministic count that differs.

use std::process::ExitCode;

use tsj_perf::cli::Flags;
use tsj_perf::json::Json;
use tsj_perf::spec::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use tsj_perf::stats::{median, quartiles, spread};

/// Per-layer metrics that depend on thread timing, not on the data alone.
const TIMING_DEPENDENT_COUNTS: &[&str] = &[
    "mapreduce.pool.steals",
    "mapreduce.pool.queue_wait_ms",
    "netshuffle.fetch_retries",
    "alloc.count_per_string",
    "alloc.bytes_per_string",
    "trace.overhead_ratio",
];

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn values(result: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    result
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("values")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

fn layer_value(result: &Json, workload: &str, metric: &str) -> Option<f64> {
    result
        .get("workloads")?
        .get(workload)?
        .get("per_layer")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// By how much of A's median B's median is worse (negative: better).
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

fn all_better(a: &[f64], b: &[f64], better: Better) -> bool {
    let (a_min, a_max) = a
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let (b_min, b_max) = b
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    match better {
        Better::Lower => b_max < a_min,
        Better::Higher => b_min > a_max,
    }
}

fn quartile_cell(v: &[f64]) -> String {
    match quartiles(v) {
        Some([q1, _, q3]) => format!("[{q1:.4}, {q3:.4}]"),
        None => "[one run]".to_owned(),
    }
}

fn real_main() -> Result<bool, String> {
    let flags = Flags::parse(std::env::args().skip(1), &["aa"])?;
    let [a_path, b_path] = flags.positional.as_slice() else {
        return Err("usage: compare A.json B.json [--aa 1]".to_owned());
    };
    let aa = flags.parsed("aa", 0u8)? != 0;
    let (a, b) = (load(a_path)?, load(b_path)?);
    for (label, file) in [("A", &a), ("B", &b)] {
        let field = |k: &str| file.get(k).map_or("?".to_owned(), Json::compact);
        println!(
            "{label}: rev {} nproc {} seed {} runs {} seconds {} spill-dir {}",
            field("git_rev"),
            field("nproc"),
            field("seed"),
            field("runs"),
            field("seconds"),
            field("spill_dir_kind"),
        );
    }
    println!(
        "{:<22} {:<19} {:>12} {:>12} {:>8} {:>6}  {:<22} {:<22} verdict",
        "workload",
        "metric",
        "A median",
        "B median",
        "worse",
        "bound",
        "A quartiles",
        "B quartiles"
    );
    let (mut regressed, mut unresolved) = (0, 0);
    for w in WORKLOADS {
        for m in END_TO_END {
            let (Some(va), Some(vb)) = (values(&a, w.name, m.name), values(&b, w.name, m.name))
            else {
                return Err(format!("{} / {} is missing from a file", w.name, m.name));
            };
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{} / {} has no runs", w.name, m.name));
            }
            let (ma, mb) = (median(&va), median(&vb));
            let worse = worsening(ma, mb, m.better);
            let noisy = [&va, &vb]
                .iter()
                .any(|v| spread(v).is_some_and(|s| s > m.bound));
            let verdict = if noisy && !all_better(&va, &vb, m.better) {
                unresolved += 1;
                "unresolved"
            } else if worse > m.bound {
                regressed += 1;
                "regressed"
            } else {
                "ok"
            };
            println!(
                "{:<22} {:<19} {:>12.5} {:>12.5} {:>+7.1}% {:>5.1}%  {:<22} {:<22} {verdict}",
                w.name,
                m.name,
                ma,
                mb,
                worse * 100.0,
                m.bound * 100.0,
                quartile_cell(&va),
                quartile_cell(&vb),
            );
        }
    }

    // Counts the program makes are a function of the data: with equal
    // seeds they repeat exactly, so any difference is a change in work
    // done, not noise.
    let mut drifted = 0;
    let same_seed = a.get("seed") == b.get("seed");
    for w in WORKLOADS {
        if same_seed && values(&a, w.name, "sim_cluster_s") != values(&b, w.name, "sim_cluster_s") {
            println!("count differs: {} sim_cluster_s", w.name);
            drifted += 1;
        }
        for m in PER_LAYER {
            let is_count = matches!(m.unit, "count" | "bytes" | "ratio" | "B/record")
                && !TIMING_DEPENDENT_COUNTS.contains(&m.name);
            if !(same_seed && is_count) {
                continue;
            }
            let (ca, cb) = (
                layer_value(&a, w.name, m.name),
                layer_value(&b, w.name, m.name),
            );
            if ca != cb {
                println!(
                    "count differs: {} {} A {} B {}",
                    w.name,
                    m.name,
                    ca.map_or("missing".to_owned(), |v| v.to_string()),
                    cb.map_or("missing".to_owned(), |v| v.to_string()),
                );
                drifted += 1;
            }
        }
    }
    println!(
        "{regressed} regressed, {unresolved} unresolved, {drifted} deterministic counts differ{}",
        if same_seed {
            ""
        } else {
            " (seeds differ: counts not compared)"
        }
    );
    Ok(regressed == 0 && (!aa || (unresolved == 0 && drifted == 0)))
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("compare: {message}");
            ExitCode::from(2)
        }
    }
}
