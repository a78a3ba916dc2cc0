//! The whole benchmark in one command: every workload, each run in its
//! own child process (so `VmHWM` is per workload and heaps do not bleed),
//! every metric printed by name with its unit, outputs checked, and the
//! result written as one JSON file `compare` reads.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json::{obj, Json};
use crate::spec::{self, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::median;
use crate::workload::{spec as workload_spec, Scale};

#[derive(Debug, Clone)]
pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: f64,
    /// Timed runs per workload, seeds `seed .. seed + runs`.
    pub runs: usize,
    pub scale: Scale,
    pub out_dir: PathBuf,
    pub spill_base: PathBuf,
    /// The result file.
    pub out: PathBuf,
    pub git_rev: String,
}

/// What a child printed: the contract's result line plus the details line.
struct ChildRun {
    result: Json,
    details: Json,
}

/// Runs this same binary on one workload in a child process. The child
/// inherits an environment without `TSJ_*` variables: `main` dropped them
/// from this process before anything else ran.
fn run_child(args: &SuiteArgs, workload: &str, seed: u64, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--scale", args.scale.name()])
        .arg("--out-dir")
        .arg(&args.out_dir)
        .arg("--spill-dir")
        .arg(&args.spill_base);
    // `output` waits for the child to end; stderr passes through.
    let output = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let result = stdout
        .lines()
        .last()
        .and_then(|line| Json::parse(line).ok())
        .filter(|j| j.get("metrics").is_some())
        .ok_or_else(|| {
            format!(
                "{workload} (seed {seed}, trace {}): no result line; exit {:?}",
                u8::from(trace),
                output.status.code()
            )
        })?;
    let details = stdout
        .lines()
        .find_map(|line| line.strip_prefix("details "))
        .and_then(|text| Json::parse(text).ok())
        .ok_or_else(|| format!("{workload}: no details line"))?;
    Ok(ChildRun { result, details })
}

/// The failed-check messages a child reported.
fn child_errors(details: &Json) -> impl Iterator<Item = Json> + '_ {
    details
        .get("errors")
        .and_then(Json::as_arr)
        .into_iter()
        .flatten()
        .cloned()
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn count(result: &Json, key: &str) -> u64 {
    result.get(key).and_then(Json::as_u64).unwrap_or(0)
}

/// Runs the suite; `Ok(true)` when every join of every run was correct.
pub fn run(args: &SuiteArgs) -> Result<bool, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("create {}: {e}", args.out_dir.display()))?;
    let mut all_correct = true;
    let mut workloads_json = Vec::new();
    let mut spans = Vec::new();
    let mut spill_kind = String::from("disk");
    // Digest of each fuzzy-* workload per seed: check 2 across processes.
    let mut fuzzy_digests: Vec<(String, u64, Json)> = Vec::new();

    for info in WORKLOADS {
        let wspec = workload_spec(info.name).expect("every workload has a spec");
        let mut attempted = 0;
        let mut failed = 0;
        let mut timed_joins = Vec::new();
        let mut errors = Vec::new();
        let mut digest = Json::Null;
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];

        for i in 0..args.runs {
            let seed = args.seed + i as u64;
            let child = run_child(args, info.name, seed, false)?;
            attempted += count(&child.result, "attempted");
            failed += count(&child.result, "failed");
            for (slot, m) in values.iter_mut().zip(END_TO_END) {
                let v = metric_value(&child.result, m.name)
                    .ok_or_else(|| format!("{}: {} missing", info.name, m.name))?;
                println!(
                    "{:<22} seed {seed} {:<20} {v} {}",
                    info.name, m.name, m.unit
                );
                slot.push(v);
            }
            if let Some(k) = child.details.get("timed_joins").and_then(Json::as_u64) {
                timed_joins.push(Json::from(k));
            }
            if let Some(kind) = child.details.get("spill_dir_kind").and_then(Json::as_str) {
                spill_kind = kind.to_owned();
            }
            let run_digest = child.details.get("digest").cloned().unwrap_or(Json::Null);
            if info.name.starts_with("fuzzy-") {
                fuzzy_digests.push((info.name.to_owned(), seed, run_digest.clone()));
            }
            if i == 0 {
                digest = run_digest;
            }
            errors.extend(child_errors(&child.details));
        }

        // The traced pass: once, on the first seed.
        let traced = run_child(args, info.name, args.seed, true)?;
        attempted += count(&traced.result, "attempted");
        failed += count(&traced.result, "failed");
        errors.extend(child_errors(&traced.details));
        let mut per_layer = Vec::new();
        for m in PER_LAYER {
            let v = metric_value(&traced.result, m.name)
                .ok_or_else(|| format!("{}: {} missing", info.name, m.name))?;
            println!("{:<22} traced {:<44} {v} {}", info.name, m.name, m.unit);
            per_layer.push((
                m.name,
                obj([
                    ("value", Json::from(v)),
                    ("unit", Json::from(m.unit)),
                    ("better", Json::from(m.better.name())),
                    ("moves", Json::from(m.moves)),
                    ("on", Json::from(m.on)),
                ]),
            ));
        }
        let trace_file = args.out_dir.join(format!("trace-{}.json", info.name));
        if let Ok(Json::Arr(workload_spans)) = std::fs::read_to_string(&trace_file)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text))
        {
            spans.extend(workload_spans);
        }

        println!(
            "{:<22} joins attempted {attempted}, failed {failed}",
            info.name
        );
        all_correct &= failed == 0;
        workloads_json.push((
            info.name,
            obj([
                ("why", Json::from(info.why)),
                ("n", Json::from(wspec.n_at(args.scale))),
                ("joins_attempted", Json::from(attempted)),
                ("joins_failed", Json::from(failed)),
                ("timed_joins", Json::Arr(timed_joins)),
                ("digest", digest),
                ("errors", Json::Arr(errors)),
                (
                    "end_to_end",
                    obj(END_TO_END.iter().zip(&values).map(|(m, v)| {
                        (
                            m.name,
                            obj([
                                ("unit", Json::from(m.unit)),
                                ("better", Json::from(m.better.name())),
                                ("bound", Json::from(m.bound)),
                                ("definition", Json::from(m.definition)),
                                ("median", Json::from(median(v))),
                                (
                                    "values",
                                    Json::Arr(v.iter().map(|&x| Json::from(x)).collect()),
                                ),
                            ]),
                        )
                    })),
                ),
                ("per_layer", obj(per_layer)),
            ]),
        ));
    }

    // Check 2 across processes: the three fuzzy-* data planes agree.
    for (name, seed, digest) in &fuzzy_digests {
        let reference = fuzzy_digests
            .iter()
            .find(|(n, s, _)| n == "fuzzy-inproc" && s == seed)
            .map(|(_, _, d)| d);
        if reference.is_some_and(|r| r != digest) {
            eprintln!("{name} (seed {seed}): digest differs from fuzzy-inproc's");
            all_correct = false;
        }
    }

    let result = obj([
        ("schema", Json::from("tsj-perf/1")),
        ("git_rev", Json::from(args.git_rev.as_str())),
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(0, |n| n.get())),
        ),
        ("threads", Json::from(spec::THREADS)),
        ("machines", Json::from(spec::MACHINES)),
        ("seed", Json::from(args.seed)),
        ("runs", Json::from(args.runs)),
        ("seconds", Json::from(args.seconds)),
        ("min_timed_joins", Json::from(args.scale.min_timed_joins())),
        ("scale", Json::from(args.scale.name())),
        ("spill_dir_kind", Json::from(spill_kind)),
        ("correct", Json::from(all_correct)),
        ("workloads", obj(workloads_json)),
    ]);
    write(&args.out, &result.pretty())?;
    write(&args.out_dir.join("trace.json"), &Json::Arr(spans).pretty())?;
    println!("result: {}", args.out.display());
    Ok(all_correct)
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("create {}: {e}", parent.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}
