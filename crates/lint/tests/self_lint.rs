//! The linter lints itself — and the whole workspace stays clean.
//!
//! These tests run the real `lint_workspace` walk against the live
//! checkout, so a regression anywhere in the tree (a new unguarded
//! allocation, a reintroduced `let _ =`) fails `cargo test` before the
//! CI `--deny` job ever runs.

use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn lint_crate_passes_its_own_rules() {
    let root = workspace_root();
    let diags = tsj_lint::lint_workspace(&root).expect("workspace sources readable");
    let own: Vec<_> = diags
        .iter()
        .filter(|d| d.file.starts_with("crates/lint/"))
        .collect();
    assert!(own.is_empty(), "tsjlint flagged its own sources: {own:?}");
}

#[test]
fn workspace_is_fresh_clean_with_empty_baseline() {
    // There is no baseline file to hide behind: a finding gets fixed or
    // carries a written allow.
    let diags = tsj_lint::lint_workspace(&workspace_root()).expect("workspace sources readable");
    assert!(diags.is_empty(), "diagnostics in the tree: {diags:?}");
}

#[test]
fn the_knob_table_is_exempt_from_ambient_env_by_path_alone() {
    // The live env.rs holds the runtime's environment reads: clean where
    // it lives, flagged the moment the same text sits anywhere else.
    let src = std::fs::read_to_string(workspace_root().join("crates/mapreduce/src/env.rs"))
        .expect("crates/mapreduce/src/env.rs exists");
    let env_reads = |path: &str| {
        tsj_lint::lint_source(path, &src)
            .into_iter()
            .filter(|d| d.rule == tsj_lint::RULE_NO_AMBIENT_ENV)
            .count()
    };
    assert_eq!(env_reads("crates/mapreduce/src/env.rs"), 0);
    assert_eq!(env_reads("crates/mapreduce/src/cluster.rs"), 2);
}

#[test]
fn every_rule_is_suppressible_and_documented() {
    // The allow parser accepts exactly the RULES list; a rule added to
    // the pack without joining RULES would be unsuppressible.
    assert_eq!(tsj_lint::RULES.len(), 8);
    let readme =
        std::fs::read_to_string(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("README.md"))
            .expect("crates/lint/README.md exists");
    for rule in tsj_lint::RULES {
        assert!(
            readme.contains(rule),
            "README.md does not document rule `{rule}`"
        );
    }
}
