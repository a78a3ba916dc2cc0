//! Property tests: the joins are *exactly* the brute-force result set —
//! complete (no false negatives from segmenting/windowing) and correct
//! (verification removes every spurious candidate, including fingerprint
//! collisions).

use proptest::prelude::*;
use tsj_mapreduce::{Cluster, ShuffleConfig, Transport};
use tsj_passjoin::{nld_self_join_serial, MassJoin};
use tsj_strdist::{levenshtein, nld};

fn token_set() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(
        proptest::string::string_regex("[abc]{1,10}").unwrap(),
        0..24,
    )
}

fn brute_nld_pairs(tokens: &[String], t: f64) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        for j in i + 1..tokens.len() {
            if nld(&tokens[i], &tokens[j]) <= t {
                out.push((i as u32, j as u32));
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn serial_nld_join_equals_brute_force(tokens in token_set(), t in 0.01f64..0.6) {
        let got: Vec<(u32, u32)> =
            nld_self_join_serial(&tokens, t).iter().map(|p| (p.a, p.b)).collect();
        prop_assert_eq!(got, brute_nld_pairs(&tokens, t));
    }

    #[test]
    fn massjoin_equals_serial(tokens in token_set(), t in 0.01f64..0.6) {
        let cluster = Cluster::with_machines(8);
        let (got, _) = MassJoin::new(&cluster, t).nld_self_join(&tokens).unwrap();
        let expect = nld_self_join_serial(&tokens, t);
        prop_assert_eq!(got, expect);
    }

    /// Reported LD/NLD values are exact, not just threshold-consistent.
    #[test]
    fn reported_distances_are_exact(tokens in token_set(), t in 0.05f64..0.6) {
        for p in nld_self_join_serial(&tokens, t) {
            let ld = levenshtein(&tokens[p.a as usize], &tokens[p.b as usize]);
            prop_assert_eq!(ld as u32, p.ld);
            let d = nld(&tokens[p.a as usize], &tokens[p.b as usize]);
            prop_assert!((d - p.nld).abs() < 1e-12);
            prop_assert!(p.nld <= t);
        }
    }
}

/// Tokens over {a, b, c} plus tokens over {a, b, á, â}: `á` and `â` are
/// two-byte characters that share `a`'s and `b`'s signature bits.
fn aliasing_token_set() -> impl Strategy<Value = Vec<String>> {
    token_set().prop_flat_map(|ascii| {
        proptest::collection::vec(
            proptest::string::string_regex("[abáâ]{1,7}").unwrap(),
            0..10,
        )
        .prop_map(move |aliasing| ascii.iter().cloned().chain(aliasing).collect::<Vec<_>>())
    })
}

/// Unbounded, bounded so tightly that duplicate roles reach one reduce
/// group from different spilled runs, and over the multi-process exchange.
fn massjoin_clusters() -> [Cluster; 3] {
    [
        Cluster::with_machines(8),
        Cluster::with_machines(8).with_shuffle_config(ShuffleConfig::bounded(1, 2)),
        Cluster::with_machines(8).with_shuffle_config(
            ShuffleConfig::unbounded().with_transport(Transport::MultiProcess),
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The one-job MassJoin verifies every pair in exactly one chunk group:
    /// its output equals both oracles and lists each pair once.
    #[test]
    fn one_job_massjoin_equals_the_oracles(tokens in aliasing_token_set()) {
        for cluster in &massjoin_clusters() {
            for t in [0.05, 0.1, 0.15, 0.2, 0.3] {
                let (got, report) = MassJoin::new(cluster, t).nld_self_join(&tokens).unwrap();
                prop_assert_eq!(report.jobs().len(), 1);
                let ids: Vec<(u32, u32)> = got.iter().map(|p| (p.a, p.b)).collect();
                prop_assert!(ids.windows(2).all(|w| w[0] < w[1]), "a pair appears twice: {:?}", ids);
                prop_assert_eq!(&ids, &brute_nld_pairs(&tokens, t), "t = {}", t);
                prop_assert_eq!(&got, &nld_self_join_serial(&tokens, t), "t = {}", t);
            }
        }
    }
}

/// Exhaustive sweep: every token of length 1–6 over {a, b, é} (1 092
/// tokens), MassJoin against the brute-force NLD join. `#[ignore]`d for
/// the default run; CI runs it with
/// `cargo test --release -p tsj-passjoin -- --ignored`.
#[test]
#[ignore]
fn massjoin_equals_brute_force_on_every_short_token() {
    let mut tokens: Vec<String> = Vec::new();
    let mut layer = vec![String::new()];
    for _ in 1..=6 {
        layer = layer
            .iter()
            .flat_map(|w| ['a', 'b', 'é'].map(|c| format!("{w}{c}")))
            .collect();
        tokens.extend(layer.iter().cloned());
    }
    assert_eq!(tokens.len(), 1_092);
    let cluster = Cluster::with_machines(8);
    for t in [0.1, 0.15, 0.2, 0.3] {
        let (got, _) = MassJoin::new(&cluster, t).nld_self_join(&tokens).unwrap();
        let ids: Vec<(u32, u32)> = got.iter().map(|p| (p.a, p.b)).collect();
        assert_eq!(ids, brute_nld_pairs(&tokens, t), "t = {t}");
    }
}
