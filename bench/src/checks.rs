//! Output checks: every run proves its join output right before its
//! numbers count. All of this is untimed.

use tsj::{
    brute_force_self_join, ApproximationScheme, JoinOutput, SimilarPair, TsjConfig, TsjJoiner,
};
use tsj_mapreduce::Cluster;
use tsj_setdist::nsld;
use tsj_tokenize::Corpus;

use crate::json::Json;
use crate::spec::{DEFAULT_SEED, THREADS};
use crate::workload::{build_corpus, inproc_cluster, Ready, Scale, WorkloadSpec, SLICE_N};

/// `(count, FNV-1a 64 over the sorted (a, b) id pairs)`: what "the same
/// output" means across joins, transports and runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub count: u64,
    pub fnv64: u64,
}

impl Digest {
    /// `pairs` must be sorted by `(a, b)`, as `self_join` returns them.
    pub fn of(pairs: &[SimilarPair]) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for p in pairs {
            for byte in p.a.0.to_le_bytes().into_iter().chain(p.b.0.to_le_bytes()) {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        Self {
            count: pairs.len() as u64,
            fnv64: h,
        }
    }

    pub fn to_json(self) -> Json {
        crate::json::obj([
            ("count", Json::from(self.count)),
            ("fnv64", Json::from(format!("{:016x}", self.fnv64))),
        ])
    }

    pub fn from_json(j: &Json) -> Option<Self> {
        Some(Self {
            count: j.get("count")?.as_u64()?,
            fnv64: u64::from_str_radix(j.get("fnv64")?.as_str()?, 16).ok()?,
        })
    }
}

/// Check 3: every output pair re-scored from its token texts. The exact
/// NSLD must be within `T`; a Hungarian join must report exactly it, a
/// greedy join an upper bound of it that is still within `T`.
pub fn rescore(corpus: &Corpus, cfg: &TsjConfig, pairs: &[SimilarPair]) -> Result<(), String> {
    let greedy = cfg.scheme == ApproximationScheme::GreedyTokenAligning;
    for p in pairs {
        if p.a >= p.b {
            return Err(format!("pair ({}, {}) is not ordered a < b", p.a.0, p.b.0));
        }
        let exact = nsld(&corpus.token_texts(p.a), &corpus.token_texts(p.b));
        let consistent = if greedy {
            exact <= p.nsld + 1e-9
        } else {
            (exact - p.nsld).abs() <= 1e-9
        };
        if !(consistent && exact <= cfg.threshold && p.nsld <= cfg.threshold) {
            return Err(format!(
                "pair ({}, {}): reported NSLD {} but exact NSLD {} at T = {}",
                p.a.0, p.b.0, p.nsld, exact, cfg.threshold
            ));
        }
    }
    Ok(())
}

fn ids(pairs: &[SimilarPair]) -> Vec<(u32, u32)> {
    pairs.iter().map(|p| (p.a.0, p.b.0)).collect()
}

/// True when every pair of `sub` is in `sup` (both sorted by `(a, b)`).
fn is_subset(sub: &[(u32, u32)], sup: &[(u32, u32)]) -> bool {
    sub.iter().all(|p| sup.binary_search(p).is_ok())
}

/// Check 4: a seeded 2 000-string slice of the same generator, joined
/// through the workload's own cluster, equals the brute-force join
/// (greedy aligning: is a subset of it).
///
/// The slice joins with the `M` filter off: `M` trades recall for speed
/// by design (Sec. III-G2), so exactness against brute force is only
/// defined without it; threshold, scheme, dedup strategy, filters,
/// shuffle bounds and transport are the workload's own.
pub fn slice_matches_brute_force(
    cluster: &Cluster,
    cfg: &TsjConfig,
    seed: u64,
) -> Result<(), String> {
    let corpus = build_corpus(SLICE_N, seed ^ 0x51_1ce);
    let cfg = TsjConfig {
        max_token_frequency: None,
        ..cfg.clone()
    };
    let joined = TsjJoiner::new(cluster)
        .self_join(&corpus, &cfg)
        .map_err(|e| format!("slice join failed: {e}"))?;
    rescore(&corpus, &cfg, &joined.pairs)?;
    let got = ids(&joined.pairs);
    let truth = ids(&brute_force_self_join(&corpus, cfg.threshold, THREADS));
    let ok = if cfg.scheme == ApproximationScheme::GreedyTokenAligning {
        is_subset(&got, &truth)
    } else {
        got == truth
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "slice join found {} pairs, brute force {} — outputs differ",
            got.len(),
            truth.len()
        ))
    }
}

/// Check 2: the workload's output against the reference configuration
/// (unbounded in-process fuzzy-token-matching, one-string) on the same
/// corpus: identical for a fuzzy workload on another data plane, a
/// superset for the greedy one. Skipped (Ok) when the workload *is* the
/// reference configuration.
pub fn matches_reference(
    spec: &WorkloadSpec,
    ready: &Ready,
    pairs: &[SimilarPair],
) -> Result<(), String> {
    let reference_cfg = TsjConfig {
        scheme: ApproximationScheme::FuzzyTokenMatching,
        dedup: tsj::DedupStrategy::OneString,
        ..ready.cfg.clone()
    };
    if spec.plane == crate::workload::Plane::InProcess && reference_cfg == ready.cfg {
        return Ok(());
    }
    let cluster = inproc_cluster(&ready.spill_dir);
    let reference = TsjJoiner::new(&cluster)
        .self_join(&ready.corpus, &reference_cfg)
        .map_err(|e| format!("reference join failed: {e}"))?;
    let (got, want) = (ids(pairs), ids(&reference.pairs));
    let ok = if ready.cfg.scheme == ApproximationScheme::GreedyTokenAligning {
        is_subset(&got, &want)
    } else {
        got == want
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{} produced {} pairs, the in-process fuzzy reference {} — outputs disagree",
            spec.name,
            got.len(),
            want.len()
        ))
    }
}

/// Check 5: for the default seed at full scale, the digest pinned in
/// `bench/expected.json`. Other seeds and scales have no pin (Ok).
pub fn matches_expected(
    workload: &str,
    scale: Scale,
    seed: u64,
    digest: Digest,
) -> Result<(), String> {
    if seed != DEFAULT_SEED || scale != Scale::Full {
        return Ok(());
    }
    let expected = Json::parse(include_str!("../expected.json"))
        .map_err(|e| format!("bench/expected.json: {e}"))?;
    let pinned = expected
        .get("digests")
        .and_then(|d| d.get(workload))
        .and_then(Digest::from_json)
        .ok_or_else(|| format!("bench/expected.json pins no digest for {workload}"))?;
    if pinned == digest {
        Ok(())
    } else {
        Err(format!(
            "{workload}: digest {:?} differs from the pinned {:?}",
            digest, pinned
        ))
    }
}

/// Checks 2–5 on one join output. `thorough` adds the two checks that
/// run extra joins (slice vs brute force, reference configuration).
pub fn verify_output(
    spec: &WorkloadSpec,
    ready: &Ready,
    scale: Scale,
    seed: u64,
    output: &JoinOutput,
    thorough: bool,
) -> Result<(), String> {
    rescore(&ready.corpus, &ready.cfg, &output.pairs)?;
    matches_expected(spec.name, scale, seed, Digest::of(&output.pairs))?;
    if thorough {
        slice_matches_brute_force(&ready.cluster, &ready.cfg, seed)?;
        matches_reference(spec, ready, &output.pairs)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsj_tokenize::StringId;

    fn pair(a: u32, b: u32) -> SimilarPair {
        SimilarPair {
            a: StringId(a),
            b: StringId(b),
            nsld: 0.0,
        }
    }

    #[test]
    fn digest_depends_on_ids_and_count() {
        let d = Digest::of(&[pair(0, 1), pair(2, 3)]);
        assert_eq!(d.count, 2);
        assert_ne!(d, Digest::of(&[pair(0, 1), pair(2, 4)]));
        assert_ne!(d, Digest::of(&[pair(0, 1)]));
        assert_eq!(Digest::from_json(&d.to_json()), Some(d));
    }

    #[test]
    fn rescore_rejects_a_wrong_distance_and_a_false_pair() {
        let corpus = Corpus::build(
            ["chan kalan", "chank alan", "zzz yyy"],
            &tsj_tokenize::NameTokenizer::default(),
        );
        let cfg = TsjConfig {
            threshold: 0.2,
            ..TsjConfig::default()
        };
        let right = SimilarPair {
            nsld: 0.2,
            ..pair(0, 1)
        };
        assert_eq!(rescore(&corpus, &cfg, &[right]), Ok(()));
        let wrong_distance = SimilarPair {
            nsld: 0.1,
            ..pair(0, 1)
        };
        assert!(rescore(&corpus, &cfg, &[wrong_distance]).is_err());
        assert!(rescore(&corpus, &cfg, &[pair(0, 2)]).is_err());
    }

    #[test]
    fn subset_check() {
        assert!(is_subset(&[(0, 1)], &[(0, 1), (2, 3)]));
        assert!(!is_subset(&[(0, 2)], &[(0, 1), (2, 3)]));
    }
}
