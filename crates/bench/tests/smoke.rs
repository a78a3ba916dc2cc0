//! Smoke tests: every figure harness runs at tiny scale and produces
//! structurally valid output with the qualitative orderings intact.

use tsj_bench::{figures, FigParams};

fn smoke() -> FigParams {
    FigParams::smoke()
}

#[test]
fn fig1_runs_and_one_string_wins() {
    let fig = figures::fig1(&smoke());
    assert!(!fig.rows.is_empty());
    let one = fig.series("grouping-on-one-string");
    let both = fig.series("grouping-on-both-strings");
    assert_eq!(one.len(), both.len());
    // One-string is never slower (the paper's "consistently faster").
    for ((m, o), (_, b)) in one.iter().zip(&both) {
        assert!(o <= b, "one-string slower at {m} machines: {o} vs {b}");
        assert!(*o > 0.0);
    }
    // More machines never increases simulated runtime.
    assert!(one.last().unwrap().1 <= one.first().unwrap().1);
}

#[test]
fn fig2_runs_with_three_series() {
    let fig = figures::fig2(&smoke());
    for s in [
        "fuzzy-token-matching",
        "greedy-token-aligning",
        "exact-token-matching",
    ] {
        assert_eq!(fig.series(s).len(), smoke().thresholds.len(), "{s}");
    }
    // Exact never exceeds fuzzy (it strictly skips work).
    for ((t, f), (_, e)) in fig
        .series("fuzzy-token-matching")
        .iter()
        .zip(fig.series("exact-token-matching").iter())
    {
        assert!(e <= f, "exact slower than fuzzy at T={t}");
    }
}

#[test]
fn fig4_recall_structure() {
    let fig = figures::fig4(&smoke());
    let fuzzy = fig.series("fuzzy-token-matching");
    let greedy = fig.series("greedy-token-aligning");
    let exact = fig.series("exact-token-matching");
    for i in 0..fuzzy.len() {
        assert!(greedy[i].1 <= fuzzy[i].1, "greedy finds more than fuzzy");
        assert!(exact[i].1 <= fuzzy[i].1, "exact finds more than fuzzy");
    }
    // Pair counts grow with T for the complete scheme.
    assert!(fuzzy.last().unwrap().1 >= fuzzy.first().unwrap().1);
}

#[test]
fn fig5_pairs_grow_with_m() {
    let fig = figures::fig5(&smoke());
    let fuzzy = fig.series("fuzzy-token-matching");
    assert!(fuzzy.last().unwrap().1 >= fuzzy.first().unwrap().1);
}

#[test]
fn fig6_nsld_dominates() {
    let fig = figures::fig6(&smoke());
    // Extract AUCs from the notes.
    let auc = |name: &str| -> f64 {
        fig.notes
            .iter()
            .find(|n| n.starts_with(name))
            .and_then(|n| n.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("missing AUC note for {name}"))
    };
    let nsld = auc("NSLD");
    for m in ["weighted FJaccard", "weighted FCosine", "weighted FDice"] {
        assert!(nsld >= auc(m), "NSLD AUC {nsld} below {m} {}", auc(m));
    }
    assert!(nsld > 0.8, "NSLD AUC implausibly low: {nsld}");
}

#[test]
fn fig7_tsj_beats_hmj() {
    let fig = figures::fig7(&smoke());
    let tsj = fig.series("TSJ");
    let hmj = fig.series("HMJ");
    assert!(!tsj.is_empty());
    // HMJ points may be missing where the join DNF'd (that is itself the
    // paper's Fig. 7 outcome at 100 machines); where both exist, TSJ wins.
    let mut compared = 0;
    for (m, h) in &hmj {
        if let Some((_, t)) = tsj.iter().find(|(tm, _)| tm == m) {
            assert!(h > t, "HMJ faster than TSJ at {m} machines: {h} vs {t}");
            compared += 1;
        }
    }
    assert!(
        compared > 0 || fig.notes.iter().any(|n| n.contains("DNF")),
        "no HMJ data points and no DNF notes"
    );
}

#[test]
fn fig3_runs() {
    let fig = figures::fig3(&smoke());
    assert_eq!(
        fig.series("fuzzy-token-matching").len(),
        smoke().m_values.len()
    );
}

#[test]
fn fig_shuffle_volumes_are_ordered_and_spill_engages() {
    let p = smoke();
    let fig = figures::fig_shuffle(&p);
    let emitted = fig.series("emitted");
    let shuffled = fig.series("shuffled");
    let spilled = fig.series("spilled (bounded mappers)");
    assert_eq!(emitted.len(), p.thresholds.len());
    assert_eq!(shuffled.len(), p.thresholds.len());
    assert_eq!(spilled.len(), p.thresholds.len());
    for i in 0..emitted.len() {
        // Combining can only shrink the shuffle, and only shuffled records
        // can spill.
        assert!(shuffled[i].1 <= emitted[i].1, "shuffled > emitted at {i}");
        assert!(spilled[i].1 <= shuffled[i].1, "spilled > shuffled at {i}");
        // The combiner-enabled jobs must actually engage on this workload…
        assert!(
            shuffled[i].1 < emitted[i].1,
            "combiner never engaged at {i}"
        );
        // …and the smoke spill threshold (64 records) must force spilling.
        assert!(spilled[i].1 > 0.0, "spill path never engaged at {i}");
    }
    // The multi-process run must move real bytes at every threshold.
    let transported = fig.series("transport KiB (multi-process)");
    assert_eq!(transported.len(), p.thresholds.len());
    for (i, (_, kib)) in transported.iter().enumerate() {
        assert!(*kib > 0.0, "exchange moved nothing at {i}");
    }
    // The notes carry per-job savings for the default operating point.
    assert!(fig.notes.iter().any(|n| n.contains("tsj.token_stats")));
}

#[test]
fn figoverlap_runs_and_modes_agree() {
    // The harness itself asserts lazy == eager pairs; here we check the
    // structure: both series present, every point positive.
    let fig = figures::fig_overlap(&smoke());
    let lazy = fig.series("lazy (overlapped)");
    let eager = fig.series("eager (stage barriers)");
    assert_eq!(lazy.len(), eager.len());
    assert!(!lazy.is_empty());
    for (threads, secs) in lazy.iter().chain(&eager) {
        assert!(*secs > 0.0, "non-positive wall-clock at {threads} threads");
    }
    // The straggler series: the harness itself asserts the speculative
    // copy won and the pairs agree; here we check both series rendered
    // and the notes carry the scheduler counters.
    let strag_base = fig.series("straggler stealing (no mitigation)");
    let strag_spec = fig.series("straggler speculative");
    assert_eq!(strag_base.len(), strag_spec.len());
    assert!(!strag_base.is_empty());
    for (threads, secs) in strag_base.iter().chain(&strag_spec) {
        assert!(*secs > 0.0, "non-positive wall-clock at {threads} threads");
    }
    assert!(fig
        .notes
        .iter()
        .any(|n| n.contains("speculative launched/won")));
}
