//! Serial Pass-Join self-join under an `NLD` threshold (the reference
//! implementation [`MassJoin`](crate::MassJoin) is tested against).
//!
//! Every string is *indexed* by the segments of the even-partition scheme
//! (playing the longer role `y`), and every string *probes* the index with
//! the substrings selected by the multi-match-aware windows (playing the
//! shorter role `x`, per the self-join optimization of Sec. III-G1: only
//! `|x| ≤ |y|` is considered). Each unordered pair is therefore generated
//! once, by its shorter member (ties broken by index).

use std::collections::{HashMap, HashSet};

use tsj_mapreduce::{fingerprint64, FxBuildHasher};
use tsj_strdist::{levenshtein_within_slices, max_ld_given_nld, min_len_given_nld, nld_from_ld};

use crate::segments::{even_partitions, substring_window};
use crate::SimilarTokenPair;

/// Upper limit on thresholds for which the segment scheme guarantees
/// completeness (see crate docs).
pub(crate) const MAX_COMPLETE_T: f64 = 2.0 / 3.0;

type SegKey = (u32, u16, u64); // (indexed length, segment index, content fp)

fn to_chars(s: &str) -> Vec<char> {
    s.chars().collect()
}

pub(crate) fn fp_chars(slice: &[char]) -> u64 {
    fingerprint64(&slice)
}

/// Self-join under an `NLD` threshold `t`: all pairs with
/// `NLD(tokens[i], tokens[j]) ≤ t`, as [`SimilarTokenPair`]s sorted by ids.
///
/// The per-length edit budget comes from Lemma 8 (`|x| ≤ |y|` branch, the
/// self-join optimization) and the probe-length window from Lemma 9.
///
/// # Panics
///
/// Panics if `t ≥ 2/3` (outside the completeness domain; see crate docs)
/// or `t < 0`.
pub fn nld_self_join_serial(tokens: &[impl AsRef<str>], t: f64) -> Vec<SimilarTokenPair> {
    assert!(
        (0.0..MAX_COMPLETE_T).contains(&t),
        "NLD threshold {t} outside the completeness domain [0, 2/3)"
    );
    let chars: Vec<Vec<char>> = tokens.iter().map(|tk| to_chars(tk.as_ref())).collect();
    let max_len = chars.iter().map(Vec::len).max().unwrap_or(0);

    // Index every non-empty token, playing the longer role.
    let mut index: HashMap<SegKey, Vec<u32>, FxBuildHasher> = HashMap::default();
    for (id, y) in chars.iter().enumerate() {
        let l = y.len();
        if l == 0 {
            continue;
        }
        let u = max_ld_given_nld(l, l, t); // |x| ≤ |y| branch at |y| = l
        debug_assert!(u < l, "t < 2/3 keeps segments non-empty");
        for (i, (start, seg_len)) in even_partitions(l, u + 1).into_iter().enumerate() {
            let key = (l as u32, i as u16, fp_chars(&y[start..start + seg_len]));
            index.entry(key).or_default().push(id as u32);
        }
    }

    let mut out = Vec::new();
    let mut cand: HashSet<u32, FxBuildHasher> = HashSet::default();
    for (xid, x) in chars.iter().enumerate() {
        let lx = x.len();
        if lx == 0 {
            continue;
        }
        cand.clear();
        let lmax = if t >= 1.0 {
            max_len
        } else {
            ((lx as f64 / (1.0 - t)).floor() as usize).min(max_len)
        };
        for l in lx..=lmax {
            // Lemma 9 guard (floating-point belt and braces).
            if min_len_given_nld(l, t) > lx {
                continue;
            }
            let u = max_ld_given_nld(l, l, t);
            for (i, (start, seg_len)) in even_partitions(l, u + 1).into_iter().enumerate() {
                let Some((lo, hi)) = substring_window(lx, l, i, start, seg_len, u) else {
                    continue;
                };
                for p in lo..=hi {
                    let key = (l as u32, i as u16, fp_chars(&x[p..p + seg_len]));
                    if let Some(ids) = index.get(&key) {
                        cand.extend(ids.iter().copied());
                    }
                }
            }
        }
        #[expect(clippy::disallowed_methods, reason = "`out` is sorted before return")]
        for &yid in cand.iter() {
            let y = &chars[yid as usize];
            if y.len() == lx && yid >= xid as u32 {
                continue;
            }
            if let Some(pair) = verify_nld(xid as u32, x, yid, y, t) {
                out.push(pair);
            }
        }
    }
    out.sort_unstable_by_key(|p| (p.a, p.b));
    out
}

/// Banded verification of one candidate token pair under `NLD ≤ t`.
pub(crate) fn verify_nld(
    xid: u32,
    x: &[char],
    yid: u32,
    y: &[char],
    t: f64,
) -> Option<SimilarTokenPair> {
    let (shorter, longer) = if x.len() <= y.len() {
        (x.len(), y.len())
    } else {
        (y.len(), x.len())
    };
    let cap = max_ld_given_nld(shorter, longer, t);
    let ld = levenshtein_within_slices(x, y, cap)?;
    let d = nld_from_ld(ld, x.len(), y.len());
    (d <= t).then(|| SimilarTokenPair::new(xid, yid, ld as u32, d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsj_strdist::nld;

    fn brute_nld(tokens: &[&str], t: f64) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for i in 0..tokens.len() {
            for j in i + 1..tokens.len() {
                if nld(tokens[i], tokens[j]) <= t {
                    out.push((i as u32, j as u32));
                }
            }
        }
        out
    }

    #[test]
    fn nld_join_matches_brute_force() {
        let tokens = [
            "barak", "barack", "obama", "obamma", "ubama", "burak", "chan", "chank", "kalan",
            "alan", "jonathan", "jonathon", "jon",
        ];
        for t in [0.05, 0.1, 0.15, 0.2, 0.3, 0.5] {
            let got: Vec<(u32, u32)> = nld_self_join_serial(&tokens, t)
                .iter()
                .map(|p| (p.a, p.b))
                .collect();
            let expect = brute_nld(&tokens, t);
            assert_eq!(got, expect, "t = {t}");
        }
    }

    #[test]
    fn nld_join_reports_exact_distances() {
        let tokens = ["thomson", "thompson"];
        let pairs = nld_self_join_serial(&tokens, 0.2);
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].ld, 1);
        assert!((pairs[0].nld - 0.125).abs() < 1e-12);
    }

    #[test]
    fn duplicate_tokens_pair_up() {
        let tokens = ["bob", "bob", "bob"];
        let pairs = nld_self_join_serial(&tokens, 0.1);
        assert_eq!(
            pairs.iter().map(|p| (p.a, p.b)).collect::<Vec<_>>(),
            vec![(0, 1), (0, 2), (1, 2)]
        );
        assert!(pairs.iter().all(|p| p.ld == 0 && p.nld == 0.0));
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert!(nld_self_join_serial(&[] as &[&str], 0.1).is_empty());
        assert!(nld_self_join_serial(&["solo"], 0.1).is_empty());
    }

    #[test]
    #[should_panic(expected = "completeness domain")]
    fn rejects_threshold_outside_domain() {
        let _ = nld_self_join_serial(&["a", "b"], 0.7);
    }

    #[test]
    fn unicode_tokens_join_correctly() {
        let tokens = ["josé", "jose", "jane"];
        let pairs = nld_self_join_serial(&tokens, 0.25);
        // josé vs jose: LD 1, NLD 2/9 ≈ 0.222 ≤ 0.25.
        assert!(pairs.iter().any(|p| (p.a, p.b) == (0, 1)));
        // josé vs jane: LD 2 → NLD 0.4 — excluded.
        assert!(!pairs.iter().any(|p| (p.a, p.b) == (0, 2)));
    }
}
