//! `tsj-perf`: one benchmark run (`--workload ...`, the form the
//! acceptance driver calls) or the whole suite (`suite ...`).

use std::path::PathBuf;
use std::process::ExitCode;

use tsj_perf::alloc::CountingAlloc;
use tsj_perf::cli::Flags;
use tsj_perf::run::{run, RunArgs};
use tsj_perf::spec::{DEFAULT_SEED, RUN_SECONDS};
use tsj_perf::suite::{self, SuiteArgs};
use tsj_perf::workload::Scale;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage:
  tsj-perf --workload NAME --seed N --seconds S --trace 0|1
           [--scale full|tiny] [--out-dir DIR] [--spill-dir DIR]
  tsj-perf suite [--seed N] [--seconds S] [--runs R] [--scale full|tiny]
           [--out FILE] [--out-dir DIR] [--spill-dir DIR] [--git-rev REV]";

const FLAGS: &[&str] = &[
    "workload",
    "seed",
    "seconds",
    "trace",
    "scale",
    "out-dir",
    "spill-dir",
    "runs",
    "out",
    "git-rev",
];

fn scale(flags: &Flags) -> Result<Scale, String> {
    let raw = flags.get("scale").unwrap_or("full");
    Scale::parse(raw).ok_or_else(|| format!("--scale: {raw:?} is not full or tiny"))
}

fn real_main() -> Result<bool, String> {
    // Every cluster knob is pinned in code, but `Cluster::new` still reads
    // (and warns about) the TSJ_* environment: drop it before any thread
    // exists.
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("TSJ_") {
            std::env::remove_var(name);
        }
    }
    let flags = Flags::parse(std::env::args().skip(1), FLAGS)?;
    let out_dir = PathBuf::from(flags.get("out-dir").unwrap_or("bench/out"));
    let spill_base = flags
        .get("spill-dir")
        .map_or_else(|| out_dir.clone(), PathBuf::from);
    let seconds: f64 = flags.parsed("seconds", RUN_SECONDS as f64)?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!("--seconds: {seconds} is not a duration"));
    }
    match flags.positional.as_slice() {
        [] => {
            let workload = flags
                .get("workload")
                .ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
            let trace = match flags.get("trace").unwrap_or("0") {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace: {other:?} is not 0 or 1")),
            };
            let outcome = run(&RunArgs {
                workload: workload.to_owned(),
                seed: flags.parsed("seed", DEFAULT_SEED)?,
                seconds,
                trace,
                scale: scale(&flags)?,
                out_dir,
                spill_base,
            })?;
            for (name, value, unit) in &outcome.metrics {
                println!("{workload} {name} {value} {unit}");
            }
            if let Some(errors) = outcome.details.get("errors").and_then(|e| e.as_arr()) {
                for e in errors {
                    eprintln!("{workload}: FAILED CHECK: {}", e.as_str().unwrap_or("?"));
                }
            }
            println!("details {}", outcome.details.compact());
            // The contract's result object is the last line of stdout.
            println!("{}", outcome.result_json().compact());
            Ok(outcome.correct())
        }
        [cmd] if cmd == "suite" => suite::run(&SuiteArgs {
            seed: flags.parsed("seed", DEFAULT_SEED)?,
            seconds,
            runs: flags.parsed("runs", 1usize)?.max(1),
            scale: scale(&flags)?,
            out: flags
                .get("out")
                .map_or_else(|| out_dir.join("result.json"), PathBuf::from),
            out_dir,
            spill_base,
            git_rev: flags.get("git-rev").unwrap_or("unknown").to_owned(),
        }),
        other => Err(format!("unexpected arguments {other:?}\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        // Metrics were printed; an output check failed.
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("tsj-perf: {message}");
            ExitCode::from(2)
        }
    }
}
