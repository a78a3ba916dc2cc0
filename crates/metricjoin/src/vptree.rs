//! Vantage-point tree: K-nearest-neighbour and range queries over any
//! metric.
//!
//! The paper proves NSLD is a metric (Theorem 2) precisely so that it "can
//! be leveraged in all flavors of K-nearest-neighbor queries on metric
//! spaces" (Sec. II). This module delivers that capability: a classic
//! VP-tree whose correctness rests on the triangle inequality — the same
//! property the HMJ partitioning uses — so it works for NSLD, NLD, or any
//! other metric the workspace defines.
//!
//! Pruning rule: with vantage point `v`, radius `μ` (median distance), and
//! current best bound `τ`, the inside subtree can be skipped when
//! `d(q, v) − τ > μ` and the outside subtree when `d(q, v) + τ < μ`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A VP-tree over items of type `T` under a caller-supplied metric.
///
/// Build once with [`VpTree::build`]; query with [`VpTree::k_nearest`] or
/// [`VpTree::within`]. The metric **must** satisfy the metric axioms —
/// with a non-metric "distance" (FMS, SoftTfIdf, the fuzzy set measures)
/// the triangle-inequality pruning silently drops true neighbours, which
/// is exactly why the paper insists on metricity.
pub struct VpTree<T, D>
where
    D: Fn(&T, &T) -> f64,
{
    items: Vec<T>,
    root: Option<Box<Node>>,
    dist: D,
}

struct Node {
    /// Index into `items` of this node's vantage point.
    vantage: usize,
    /// Median distance separating inside from outside.
    radius: f64,
    inside: Option<Box<Node>>,
    outside: Option<Box<Node>>,
}

/// Max-heap entry for k-NN search (largest distance on top).
struct HeapEntry {
    dist: f64,
    item: usize,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist && self.item == other.item
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist
            .total_cmp(&other.dist)
            .then(self.item.cmp(&other.item))
    }
}

impl<T, D> VpTree<T, D>
where
    D: Fn(&T, &T) -> f64,
{
    /// Builds a tree over `items` under `dist`. `O(n log n)` expected
    /// distance evaluations.
    pub fn build(items: Vec<T>, dist: D) -> Self {
        let mut ids: Vec<usize> = (0..items.len()).collect();
        let root = Self::build_node(&items, &dist, &mut ids);
        Self { items, root, dist }
    }

    fn build_node(items: &[T], dist: &D, ids: &mut [usize]) -> Option<Box<Node>> {
        let (&vantage, rest) = ids.split_first()?;
        if rest.is_empty() {
            return Some(Box::new(Node {
                vantage,
                radius: 0.0,
                inside: None,
                outside: None,
            }));
        }
        // Median-of-distances split around the vantage point.
        let mut with_d: Vec<(f64, usize)> = rest
            .iter()
            .map(|&i| ((dist)(&items[vantage], &items[i]), i))
            .collect();
        let mid = with_d.len() / 2;
        with_d.select_nth_unstable_by(mid, |a, b| a.0.total_cmp(&b.0));
        let radius = with_d[mid].0;
        let mut inside: Vec<usize> = Vec::with_capacity(mid + 1);
        let mut outside: Vec<usize> = Vec::with_capacity(with_d.len() - mid);
        for (d, i) in with_d {
            if d < radius {
                inside.push(i);
            } else {
                outside.push(i);
            }
        }
        Some(Box::new(Node {
            vantage,
            radius,
            inside: Self::build_node(items, dist, &mut inside),
            outside: Self::build_node(items, dist, &mut outside),
        }))
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The `k` nearest items to `query`, as `(item_index, distance)` sorted
    /// by ascending distance (ties broken by index).
    pub fn k_nearest(&self, query: &T, k: usize) -> Vec<(usize, f64)> {
        let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::new();
        if k > 0 {
            self.search(self.root.as_deref(), query, k, &mut heap);
        }
        let mut out: Vec<(usize, f64)> = heap.into_iter().map(|e| (e.item, e.dist)).collect();
        out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        out
    }

    fn search(&self, node: Option<&Node>, query: &T, k: usize, heap: &mut BinaryHeap<HeapEntry>) {
        let Some(node) = node else { return };
        let d = (self.dist)(query, &self.items[node.vantage]);
        if heap.len() < k {
            heap.push(HeapEntry {
                dist: d,
                item: node.vantage,
            });
        } else if d < heap.peek().expect("non-empty").dist {
            heap.pop();
            heap.push(HeapEntry {
                dist: d,
                item: node.vantage,
            });
        }
        let tau = if heap.len() < k {
            f64::INFINITY
        } else {
            heap.peek().expect("non-empty").dist
        };
        // Descend the side the query falls in first; prune the other with
        // the triangle inequality.
        if d < node.radius {
            self.search(node.inside.as_deref(), query, k, heap);
            let tau = heap.peek().map_or(f64::INFINITY, |e| e.dist);
            if heap.len() < k || d + tau >= node.radius {
                self.search(node.outside.as_deref(), query, k, heap);
            }
        } else {
            self.search(node.outside.as_deref(), query, k, heap);
            let tau = heap.peek().map_or(f64::INFINITY, |e| e.dist);
            if heap.len() < k || d - tau <= node.radius {
                self.search(node.inside.as_deref(), query, k, heap);
            }
        }
        let _ = tau;
    }

    /// All items within `radius` of `query` (inclusive), sorted by
    /// ascending distance.
    pub fn within(&self, query: &T, radius: f64) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        self.range_search(self.root.as_deref(), query, radius, &mut out);
        out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        out
    }

    fn range_search(
        &self,
        node: Option<&Node>,
        query: &T,
        radius: f64,
        out: &mut Vec<(usize, f64)>,
    ) {
        let Some(node) = node else { return };
        let d = (self.dist)(query, &self.items[node.vantage]);
        if d <= radius {
            out.push((node.vantage, d));
        }
        if d - radius < node.radius {
            self.range_search(node.inside.as_deref(), query, radius, out);
        }
        if d + radius >= node.radius {
            self.range_search(node.outside.as_deref(), query, radius, out);
        }
    }

    /// Borrow an indexed item.
    pub fn item(&self, index: usize) -> &T {
        &self.items[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsj_setdist::nsld;

    #[expect(
        clippy::ptr_arg,
        reason = "`&Vec<String>` because `VpTree::build` wants `Fn(&T, &T)`"
    )]
    fn name_dist(a: &Vec<String>, b: &Vec<String>) -> f64 {
        nsld(a, b)
    }

    fn tokenize_all(names: &[&str]) -> Vec<Vec<String>> {
        names
            .iter()
            .map(|n| n.split_whitespace().map(str::to_owned).collect())
            .collect()
    }

    fn brute_knn(items: &[Vec<String>], q: &Vec<String>, k: usize) -> Vec<(usize, f64)> {
        let mut all: Vec<(usize, f64)> = items
            .iter()
            .enumerate()
            .map(|(i, x)| (i, name_dist(q, x)))
            .collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    #[test]
    fn knn_matches_brute_force() {
        let items = tokenize_all(&[
            "barak obama",
            "barak obamma",
            "burak ubama",
            "chan kalan",
            "chank alan",
            "maria garcia",
            "mariah garcia",
            "wei chen",
            "jon smith",
            "jonathan smyth",
        ]);
        let tree = VpTree::build(items.clone(), name_dist);
        for q_raw in ["barak obama", "chan kalan", "zzz qqq"] {
            let q: Vec<String> = q_raw.split_whitespace().map(str::to_owned).collect();
            for k in [1, 3, 10, 15] {
                let got = tree.k_nearest(&q, k);
                let expect = brute_knn(&items, &q, k);
                assert_eq!(got.len(), expect.len().min(items.len()));
                // Distance profiles must agree exactly; items tied at the
                // k-th distance may legitimately differ.
                let got_d: Vec<f64> = got.iter().map(|(_, d)| *d).collect();
                let expect_d: Vec<f64> = expect.iter().map(|(_, d)| *d).collect();
                assert_eq!(got_d, expect_d, "q={q_raw} k={k}");
                for (i, d) in &got {
                    assert!((name_dist(&q, &items[*i]) - d).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn range_query_matches_brute_force() {
        let items = tokenize_all(&[
            "barak obama",
            "barak obamma",
            "burak ubama",
            "chan kalan",
            "chank alan",
            "maria garcia",
        ]);
        let tree = VpTree::build(items.clone(), name_dist);
        let q: Vec<String> = vec!["barak".into(), "obama".into()];
        for radius in [0.0, 0.1, 0.25, 0.6, 1.0] {
            let got = tree.within(&q, radius);
            let expect: Vec<(usize, f64)> = {
                let mut v: Vec<(usize, f64)> = items
                    .iter()
                    .enumerate()
                    .map(|(i, x)| (i, name_dist(&q, x)))
                    .filter(|(_, d)| *d <= radius)
                    .collect();
                v.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                v
            };
            assert_eq!(got, expect, "radius={radius}");
        }
    }

    #[test]
    fn empty_and_singleton_trees() {
        let tree: VpTree<Vec<String>, _> = VpTree::build(vec![], name_dist);
        assert!(tree.is_empty());
        assert!(tree.k_nearest(&vec!["x".to_owned()], 3).is_empty());

        let one = VpTree::build(tokenize_all(&["solo act"]), name_dist);
        let res = one.k_nearest(&vec!["solo".to_owned(), "act".to_owned()], 5);
        assert_eq!(res.len(), 1);
        assert_eq!(res[0], (0, 0.0));
    }

    #[test]
    fn k_zero_returns_nothing() {
        let tree = VpTree::build(tokenize_all(&["a b", "c d"]), name_dist);
        assert!(tree.k_nearest(&vec!["a".to_owned()], 0).is_empty());
    }
}
