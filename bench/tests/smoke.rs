//! Drives the real benchmark binaries at `--scale tiny`: every workload
//! runs, every named metric appears exactly once under a contract-legal
//! name, the result line has the contract's shape, `BENCHMARK.json` says
//! what the spec tables say, and `compare` classifies rows as documented.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use tsj_perf::json::{obj, Json};
use tsj_perf::spec::{valid_name, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};

fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs one tiny benchmark run and returns its result line, parsed.
fn tiny_run(workload: &str, trace: bool, out_dir: &Path) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_tsj-perf"))
        .args(["--workload", workload, "--seed", "11", "--seconds", "0"])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "tiny"])
        .arg("--out-dir")
        .arg(out_dir)
        // A stray knob in the environment must not reach the clusters.
        .env("TSJ_SHUFFLE_TRANSPORT", "bogus")
        .output()
        .expect("spawn tsj-perf");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} trace={trace} exited {:?}\n{stdout}\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    Json::parse(stdout.lines().last().expect("a result line")).expect("result line parses")
}

/// Asserts the contract's shape: exactly `correct`, `attempted`, `failed`
/// and `metrics`, with exactly the `expected` metrics, each once.
fn assert_result_shape(result: &Json, expected: &[(&str, &str)], context: &str) {
    let keys: Vec<&str> = result
        .as_obj()
        .expect("result is an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{context}"
    );
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{context}"
    );
    assert!(
        result.get("attempted").and_then(Json::as_u64).unwrap() >= 1,
        "{context}"
    );
    assert_eq!(
        result.get("failed").and_then(Json::as_u64),
        Some(0),
        "{context}"
    );

    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics object");
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, want, "{context}: metric names");
    for ((name, metric), (_, unit)) in metrics.iter().zip(expected) {
        assert!(valid_name(name), "{context}: {name:?} is not a legal name");
        let fields: Vec<&str> = metric
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(fields, ["value", "unit"], "{context}: {name}");
        let value = metric.get("value").and_then(Json::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{context}: {name} = {value:?}"
        );
        assert_eq!(
            metric.get("unit").and_then(Json::as_str),
            Some(*unit),
            "{context}: {name}"
        );
    }
}

#[test]
fn every_workload_runs_tiny_and_emits_every_metric_once() {
    let out_dir = scratch("smoke-runs");
    let start = Instant::now();
    let e2e: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    let layers: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    for w in WORKLOADS {
        let timed = tiny_run(w.name, false, &out_dir);
        assert_result_shape(&timed, &e2e, w.name);
        for (name, _) in &e2e {
            let v = timed
                .get("metrics")
                .unwrap()
                .get(name)
                .unwrap()
                .get("value")
                .unwrap();
            assert!(
                v.as_f64().unwrap() > 0.0,
                "{} {name} must never be 0",
                w.name
            );
        }

        let traced = tiny_run(w.name, true, &out_dir);
        assert_result_shape(&traced, &layers, w.name);
        let value = |name: &str| {
            traced
                .get("metrics")
                .unwrap()
                .get(name)
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64()
                .unwrap()
        };
        // The data plane each workload exists to exercise is really used.
        let spills = value("mapreduce.spill.spill_bytes") > 0.0;
        let fetches = value("netshuffle.fetch_requests") > 0.0;
        assert_eq!(spills, w.name == "fuzzy-spill-multiproc", "{}", w.name);
        assert_eq!(fetches, w.name == "fuzzy-remote", "{}", w.name);

        let trace_file = out_dir.join(format!("trace-{}.json", w.name));
        let spans = Json::parse(&std::fs::read_to_string(&trace_file).expect("trace file"))
            .expect("trace parses");
        let spans = spans.as_arr().expect("trace is an array of spans");
        assert!(spans
            .iter()
            .any(|s| s.get("name").and_then(Json::as_str) == Some("join.traced")));
        for s in spans {
            let fields: Vec<&str> = s
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(
                fields,
                ["id", "parent", "name", "workload", "start_us", "end_us", "self_us"]
            );
        }
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(20),
        "tiny runs took {elapsed:?}"
    );
    std::fs::remove_dir_all(&out_dir).expect("remove scratch dir");
}

#[test]
fn names_units_and_whys_fit_the_contract() {
    let mut seen = std::collections::BTreeSet::new();
    let names = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name));
    for name in names {
        assert!(valid_name(name), "{name:?}");
        assert!(seen.insert(name), "{name:?} is used twice");
    }
    let units = END_TO_END
        .iter()
        .map(|m| m.unit)
        .chain(PER_LAYER.iter().map(|m| m.unit));
    for unit in units {
        let legal = unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'));
        assert!(legal && !unit.is_empty() && unit.len() <= 16, "{unit:?}");
    }
    for w in WORKLOADS {
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "{}: why too long",
            w.name
        );
    }
    for m in END_TO_END {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );
}

#[test]
fn benchmark_json_matches_the_spec_tables() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let Ok(text) = std::fs::read_to_string(&path) else {
        // The package can be built from a tree that carries only bench/.
        return;
    };
    let file = Json::parse(&text).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = file
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let want_workloads = Json::Arr(
        WORKLOADS
            .iter()
            .map(|w| obj([("name", Json::from(w.name)), ("why", Json::from(w.why))]))
            .collect(),
    );
    assert_eq!(file.get("workloads"), Some(&want_workloads));
    let want_e2e = Json::Arr(
        END_TO_END
            .iter()
            .map(|m| {
                obj([
                    ("name", Json::from(m.name)),
                    ("unit", Json::from(m.unit)),
                    ("better", Json::from(m.better.name())),
                    ("bound", Json::from(m.bound)),
                ])
            })
            .collect(),
    );
    assert_eq!(file.get("end_to_end"), Some(&want_e2e));
    let want_layers = Json::Arr(
        PER_LAYER
            .iter()
            .map(|m| {
                obj([
                    ("name", Json::from(m.name)),
                    ("unit", Json::from(m.unit)),
                    ("better", Json::from(m.better.name())),
                ])
            })
            .collect(),
    );
    assert_eq!(file.get("per_layer"), Some(&want_layers));
    assert_eq!(
        file.get("run_seconds").and_then(Json::as_u64),
        Some(RUN_SECONDS)
    );
    assert_eq!(
        file.get("paths"),
        Some(&Json::Arr(vec![Json::from("bench")]))
    );
}

/// A result file with one value list per end-to-end metric, the same for
/// every workload and metric.
fn synthetic_result(dir: &Path, name: &str, runs: &[f64]) -> PathBuf {
    let workloads = WORKLOADS.iter().map(|w| {
        let e2e = END_TO_END.iter().map(|m| {
            (
                m.name,
                obj([(
                    "values",
                    Json::Arr(runs.iter().map(|&v| Json::from(v)).collect()),
                )]),
            )
        });
        (
            w.name,
            obj([("end_to_end", obj(e2e)), ("per_layer", obj::<String>([]))]),
        )
    });
    let file = obj([("seed", Json::from(1u64)), ("workloads", obj(workloads))]);
    let path = dir.join(name);
    std::fs::write(&path, file.pretty()).expect("write synthetic result");
    path
}

fn compare(a: &Path, b: &Path, aa: bool) -> (Option<i32>, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_compare"));
    cmd.arg(a).arg(b);
    if aa {
        cmd.args(["--aa", "1"]);
    }
    let output = cmd.output().expect("spawn compare");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
    )
}

#[test]
fn compare_marks_regressed_and_unresolved_rows() {
    let dir = scratch("smoke-compare");
    let steady = synthetic_result(&dir, "steady.json", &[1.0, 1.01, 0.99, 1.0, 1.02]);
    let same = synthetic_result(&dir, "same.json", &[1.0, 1.01, 0.99, 1.0, 1.02]);
    // 40 % slower: past every bound for lower-is-better metrics (and an
    // improvement for the one higher-is-better metric).
    let slower = synthetic_result(&dir, "slower.json", &[1.4, 1.41, 1.39, 1.4, 1.42]);
    let noisy = synthetic_result(&dir, "noisy.json", &[0.6, 1.0, 1.4, 0.7, 1.3]);

    let (code, report) = compare(&steady, &same, true);
    assert_eq!(code, Some(0), "{report}");
    assert!(report.contains("0 regressed, 0 unresolved"), "{report}");

    let (code, report) = compare(&steady, &slower, false);
    assert_eq!(code, Some(1), "{report}");
    let lower_is_better = END_TO_END
        .iter()
        .filter(|m| m.better.name() == "lower")
        .count();
    assert_eq!(
        report.matches(" regressed\n").count(),
        lower_is_better * WORKLOADS.len()
    );

    let (code, report) = compare(&steady, &noisy, false);
    assert_eq!(
        code,
        Some(0),
        "unresolved alone is not a regression\n{report}"
    );
    assert_eq!(
        report.matches(" unresolved\n").count(),
        END_TO_END.len() * WORKLOADS.len()
    );
    let (code, _) = compare(&steady, &noisy, true);
    assert_eq!(code, Some(1), "an A/A comparison must resolve every row");
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}
