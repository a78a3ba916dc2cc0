//! Integration tests of the plan-time DAG analyzer: each diagnostic fires
//! on a minimal synthetic `Dataset` plan, warn mode executes and surfaces
//! the findings through `SimReport`, and deny mode fails the job *before*
//! execution with a structured [`JobError::Plan`].

use tsj_mapreduce::{
    Cluster, ClusterConfig, DatasetMode, Dedup, Emitter, JobError, OutputSink, PlanCheck,
    PlanDiagnostic, ShuffleConfig, SimReport, MERGE_FAN_IN_BUDGET,
};

fn cluster() -> Cluster {
    // Warn mode is the default and no environment variable changes it;
    // it is spelled out because the warn-path assertions depend on it
    // (deny-mode tests opt in explicitly). Lazy execution does have a
    // variable, so it is pinned: multi-stage diagnostics need the whole
    // plan at the terminal, which an ambient TSJ_DATASET_MODE=eager never
    // builds.
    Cluster::with_machines(4)
        .with_plan_check(PlanCheck::Warn)
        .with_dataset_mode(DatasetMode::Lazy)
}

fn codes(report: &SimReport) -> Vec<&'static str> {
    report.plan_diagnostics().iter().map(|d| d.code()).collect()
}

/// Identity keyed pass-through stage, uncombined.
fn passthrough(
    c: &Cluster,
    input: Vec<u32>,
    name: &'static str,
) -> Result<(Vec<u32>, SimReport), JobError> {
    c.input_vec(input)
        .map_reduce(
            name,
            |&x: &u32, e: &mut Emitter<u32, u32>| e.emit(x, x),
            |&k: &u32, _vs: Vec<u32>, out: &mut OutputSink<u32>| out.emit(k),
        )?
        .collect()
}

#[test]
fn clean_plan_reports_no_diagnostics() {
    let c = cluster();
    let (mut out, report) = passthrough(&c, (0..100).collect(), "clean").unwrap();
    out.sort_unstable();
    assert_eq!(out, (0..100).collect::<Vec<u32>>());
    assert!(
        report.plan_diagnostics().is_empty(),
        "unexpected: {:?}",
        report.plan_diagnostics()
    );
}

#[test]
fn empty_input_warns_and_propagates() {
    let c = cluster();
    let (out, report) = c
        .input_vec(Vec::<u32>::new())
        .map_reduce(
            "first",
            |&x: &u32, e: &mut Emitter<u32, u32>| e.emit(x, x),
            |&k: &u32, _vs: Vec<u32>, out: &mut OutputSink<u32>| out.emit(k),
        )
        .unwrap()
        .map_reduce(
            "second",
            |&x: &u32, e: &mut Emitter<u32, u32>| e.emit(x, x),
            |&k: &u32, _vs: Vec<u32>, out: &mut OutputSink<u32>| out.emit(k),
        )
        .unwrap()
        .collect()
        .unwrap();
    assert!(out.is_empty());
    // Statically-empty input flags every downstream stage.
    assert_eq!(codes(&report), vec!["empty-input", "empty-input"]);
    let names: Vec<String> = report
        .plan_diagnostics()
        .iter()
        .map(|d| match d {
            PlanDiagnostic::EmptyInput { stage } => stage.clone(),
            other => panic!("unexpected diagnostic {other:?}"),
        })
        .collect();
    assert_eq!(names, vec!["first", "second"]);
}

#[test]
fn uncombined_dedup_foldable_stage_warns() {
    let c = cluster();
    // Unit values with no combiner: the map output is pure key presence,
    // exactly what a `Dedup` combiner would fold map-side.
    let (_, report) = c
        .input_vec((0..50u32).collect())
        .map_reduce(
            "presence",
            |&x: &u32, e: &mut Emitter<u32, ()>| e.emit(x % 5, ()),
            |&k: &u32, _vs: Vec<()>, out: &mut OutputSink<u32>| out.emit(k),
        )
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(codes(&report), vec!["uncombined-dedup-foldable"]);

    // The same stage with the combiner attached is clean.
    let (_, report) = c
        .input_vec((0..50u32).collect())
        .map_reduce_combined(
            "presence",
            |&x: &u32, e: &mut Emitter<u32, ()>| e.emit(x % 5, ()),
            &Dedup,
            |&k: &u32, _vs: Vec<()>, out: &mut OutputSink<u32>| out.emit(k),
        )
        .unwrap()
        .collect()
        .unwrap();
    assert!(report.plan_diagnostics().is_empty());
}

#[test]
fn merge_fan_in_hazard_needs_uncapped_spilling_config() {
    // 100 producer partitions feeding one stage under a spilling shuffle
    // with no merge fan-in cap: every partition's sorted runs meet in one
    // k-way merge, well past the budget.
    let hazard_cluster = |shuffle: ShuffleConfig| {
        Cluster::new(ClusterConfig {
            machines: 100,
            partitions: 100,
            ..ClusterConfig::default()
        })
        .with_shuffle_config(shuffle)
        .with_plan_check(PlanCheck::Warn)
        .with_dataset_mode(DatasetMode::Lazy)
    };
    // 50 input records → 50 map tasks (one per machine, capped by len),
    // under the budget; only the 100-partition wide→narrow edge exceeds it.
    let chain = |c: &Cluster| {
        c.input_vec((0..50u32).collect())
            .map_reduce(
                "wide",
                |&x: &u32, e: &mut Emitter<u32, u32>| e.emit(x, x),
                |&k: &u32, _vs: Vec<u32>, out: &mut OutputSink<u32>| out.emit(k),
            )?
            .map_reduce(
                "narrow",
                |&x: &u32, e: &mut Emitter<u32, u32>| e.emit(x % 3, x),
                |&k: &u32, _vs: Vec<u32>, out: &mut OutputSink<u32>| out.emit(k),
            )?
            .collect()
    };

    let c = hazard_cluster(ShuffleConfig::bounded(32, 48));
    let (_, report) = chain(&c).unwrap();
    assert_eq!(codes(&report), vec!["merge-fan-in-hazard"]);
    match &report.plan_diagnostics()[0] {
        PlanDiagnostic::MergeFanInHazard {
            stage,
            incoming,
            budget,
        } => {
            assert_eq!(stage, "narrow");
            assert_eq!(*incoming, 100);
            assert_eq!(*budget, MERGE_FAN_IN_BUDGET);
        }
        other => panic!("unexpected diagnostic {other:?}"),
    }

    // A fan-in cap bounds the merge; no hazard.
    let c = hazard_cluster(ShuffleConfig::bounded(32, 48).with_merge_fan_in(8));
    let (_, report) = chain(&c).unwrap();
    assert!(report.plan_diagnostics().is_empty());

    // No spilling at all: merges never happen, no hazard.
    let c = hazard_cluster(ShuffleConfig::unbounded());
    let (_, report) = chain(&c).unwrap();
    assert!(report.plan_diagnostics().is_empty());
}

#[test]
fn deny_mode_fails_before_execution() {
    let c = cluster().with_plan_check(PlanCheck::Deny);
    let err = passthrough(&c, Vec::new(), "denied").unwrap_err();
    match err {
        JobError::Plan { message } => {
            assert!(message.contains("empty-input"), "{message}");
            assert!(message.contains("denied"), "{message}");
        }
        other => panic!("expected JobError::Plan, got {other:?}"),
    }
}

#[test]
fn deny_mode_passes_clean_plans() {
    let c = cluster().with_plan_check(PlanCheck::Deny);
    let (mut out, report) = passthrough(&c, (0..20).collect(), "clean").unwrap();
    out.sort_unstable();
    assert_eq!(out, (0..20).collect::<Vec<u32>>());
    assert!(report.plan_diagnostics().is_empty());
}

#[test]
fn warn_mode_executes_and_renders_diagnostics() {
    let c = cluster();
    let (out, report) = passthrough(&c, Vec::new(), "warned").unwrap();
    assert!(out.is_empty());
    assert_eq!(codes(&report), vec!["empty-input"]);
    // Diagnostics surface in the human-readable report too.
    let rendered = report.to_string();
    assert!(
        rendered.contains("plan diagnostic: [empty-input]"),
        "{rendered}"
    );
    // Count is independently countable by the CI step summary.
    assert_eq!(report.plan_diagnostics().len(), 1);
}

#[test]
fn diagnostics_survive_report_extend() {
    let c = cluster();
    let (_, mut base) = passthrough(&c, (0..10).collect(), "clean").unwrap();
    let (_, warned) = passthrough(&c, Vec::new(), "warned").unwrap();
    base.extend(warned);
    assert_eq!(codes(&base), vec!["empty-input"]);
}
