//! `tsjlint` CLI: lints the workspace sources against the runtime's
//! invariant rules (see the library docs for the rule catalog).
//!
//! Usage: `tsjlint [--deny] [--root <dir>]`
//!
//! Diagnostics print to stdout as `file:line:rule: message`; a summary
//! goes to stderr. Exit status is 0 unless `--deny` is set and a
//! diagnostic fired (exit 1), or the invocation itself failed (exit 2).

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut deny = false;
    let mut root: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--root" => match args.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => return usage("--root needs a directory argument"),
            },
            "--help" | "-h" => {
                println!("usage: tsjlint [--deny] [--root <dir>]");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let root = match root.or_else(discover_root) {
        Some(r) => r,
        None => {
            eprintln!(
                "tsjlint: no workspace root found (no ancestor Cargo.toml with [workspace]); \
                 pass --root"
            );
            return ExitCode::from(2);
        }
    };

    let diags = match tsj_lint::lint_workspace(&root) {
        Ok(d) => d,
        Err(e) => {
            eprintln!(
                "tsjlint: failed to read sources under {}: {e}",
                root.display()
            );
            return ExitCode::from(2);
        }
    };

    for d in &diags {
        println!("{d}");
    }
    eprintln!(
        "tsjlint: {} diagnostic{}",
        diags.len(),
        if diags.len() == 1 { "" } else { "s" }
    );
    // Per-rule counts (machine-grepable; CI lifts these into the step
    // summary).
    for rule in tsj_lint::RULES.iter().chain([
        &tsj_lint::RULE_MALFORMED_ALLOW,
        &tsj_lint::RULE_UNUSED_ALLOW,
    ]) {
        let n = diags.iter().filter(|d| d.rule == *rule).count();
        eprintln!("tsjlint:   {rule}: {n}");
    }

    if deny && !diags.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!("tsjlint: {err}\nusage: tsjlint [--deny] [--root <dir>]");
    ExitCode::from(2)
}

/// Walks up from the current directory to the first `Cargo.toml` that
/// declares `[workspace]`.
fn discover_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
