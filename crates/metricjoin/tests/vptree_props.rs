//! Property tests: the VP-tree is exact under a true metric — every k-NN
//! and range query equals brute force, for arbitrary token multisets.

use proptest::prelude::*;
use tsj_metricjoin::VpTree;
use tsj_setdist::nsld;

#[expect(
    clippy::ptr_arg,
    reason = "`&Vec<String>` because `VpTree::build` wants `Fn(&T, &T)` with `T = Vec<String>`"
)]
fn dist(a: &Vec<String>, b: &Vec<String>) -> f64 {
    nsld(a, b)
}

fn multiset() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(proptest::string::string_regex("[ab]{1,5}").unwrap(), 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn knn_is_exact(items in proptest::collection::vec(multiset(), 1..30),
                    query in multiset(),
                    k in 1usize..8) {
        let tree = VpTree::build(items.clone(), dist);
        let got = tree.k_nearest(&query, k);
        let mut expect: Vec<(usize, f64)> = items
            .iter()
            .enumerate()
            .map(|(i, x)| (i, dist(&query, x)))
            .collect();
        expect.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        expect.truncate(k);
        // Sets of items tied at the k-th distance may legitimately differ;
        // the *distance profile* must be identical and every reported
        // distance must be genuine.
        let got_d: Vec<f64> = got.iter().map(|(_, d)| *d).collect();
        let expect_d: Vec<f64> = expect.iter().map(|(_, d)| *d).collect();
        prop_assert_eq!(got_d, expect_d);
        for (i, d) in &got {
            prop_assert!((dist(&query, &items[*i]) - d).abs() < 1e-12);
        }
    }

    #[test]
    fn range_is_exact(items in proptest::collection::vec(multiset(), 1..30),
                      query in multiset(),
                      radius in 0.0f64..1.0) {
        let tree = VpTree::build(items.clone(), dist);
        let got = tree.within(&query, radius);
        let mut expect: Vec<(usize, f64)> = items
            .iter()
            .enumerate()
            .map(|(i, x)| (i, dist(&query, x)))
            .filter(|(_, d)| *d <= radius)
            .collect();
        expect.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        prop_assert_eq!(got, expect);
    }

    /// Indexed items always find themselves at distance zero.
    #[test]
    fn self_query_hits(items in proptest::collection::vec(multiset(), 1..20)) {
        let tree = VpTree::build(items.clone(), dist);
        for q in &items {
            let nn = tree.k_nearest(q, 1);
            prop_assert_eq!(nn.len(), 1);
            prop_assert_eq!(nn[0].1, 0.0);
        }
    }
}
