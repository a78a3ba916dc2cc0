//! Synthetic person-name generation with Zipf-distributed popularity.

use rand::rngs::StdRng;
use rand::Rng;

use crate::zipf::Zipf;

/// Popular given names (head of the Zipf distribution). Drawn from common
/// English/Spanish/Arabic/South-Asian romanizations so token lengths and
/// character distributions resemble a real multi-script-romanized region.
pub const GIVEN_NAMES: &[&str] = &[
    "john",
    "mary",
    "james",
    "robert",
    "michael",
    "william",
    "david",
    "richard",
    "joseph",
    "thomas",
    "charles",
    "maria",
    "patricia",
    "jennifer",
    "linda",
    "elizabeth",
    "barbara",
    "susan",
    "jessica",
    "sarah",
    "karen",
    "mohammed",
    "ahmed",
    "ali",
    "omar",
    "hassan",
    "fatima",
    "aisha",
    "zainab",
    "yusuf",
    "ibrahim",
    "carlos",
    "jose",
    "juan",
    "luis",
    "miguel",
    "ana",
    "carmen",
    "rosa",
    "elena",
    "sofia",
    "wei",
    "ming",
    "hui",
    "jing",
    "chen",
    "yan",
    "lei",
    "xin",
    "hao",
    "raj",
    "amit",
    "sanjay",
    "vijay",
    "ravi",
    "priya",
    "anita",
    "sunita",
    "deepa",
    "kavita",
    "ivan",
    "dmitri",
    "sergei",
    "olga",
    "natasha",
    "pierre",
    "jean",
    "marie",
    "claire",
    "luc",
    "hans",
    "karl",
    "greta",
    "ingrid",
    "lars",
    "kenji",
    "hiroshi",
    "yuki",
    "akira",
    "sakura",
    "kwame",
    "kofi",
    "ama",
    "abena",
    "femi",
    "daniel",
    "matthew",
    "anthony",
    "mark",
    "donald",
    "steven",
    "paul",
    "andrew",
    "joshua",
    "kevin",
    "brian",
    "george",
    "edward",
    "ronald",
    "timothy",
    "jason",
    "jeffrey",
    "ryan",
    "jacob",
    "gary",
    "nancy",
    "lisa",
    "betty",
    "margaret",
    "sandra",
    "ashley",
    "kimberly",
    "emily",
    "donna",
    "michelle",
    "dorothy",
    "carol",
    "amanda",
    "melissa",
    "deborah",
];

/// Popular surnames.
pub const SURNAMES: &[&str] = &[
    "smith",
    "johnson",
    "williams",
    "brown",
    "jones",
    "garcia",
    "miller",
    "davis",
    "rodriguez",
    "martinez",
    "hernandez",
    "lopez",
    "gonzalez",
    "wilson",
    "anderson",
    "thomas",
    "taylor",
    "moore",
    "jackson",
    "martin",
    "lee",
    "perez",
    "thompson",
    "white",
    "harris",
    "sanchez",
    "clark",
    "ramirez",
    "lewis",
    "robinson",
    "walker",
    "young",
    "allen",
    "king",
    "wright",
    "scott",
    "torres",
    "nguyen",
    "hill",
    "flores",
    "green",
    "adams",
    "nelson",
    "baker",
    "hall",
    "rivera",
    "campbell",
    "mitchell",
    "carter",
    "roberts",
    "khan",
    "ahmed",
    "hussain",
    "malik",
    "sheikh",
    "patel",
    "sharma",
    "singh",
    "kumar",
    "gupta",
    "mehta",
    "shah",
    "reddy",
    "rao",
    "nair",
    "iyer",
    "chen",
    "wang",
    "zhang",
    "liu",
    "yang",
    "huang",
    "zhao",
    "wu",
    "zhou",
    "xu",
    "sun",
    "ma",
    "zhu",
    "kim",
    "park",
    "choi",
    "jung",
    "kang",
    "cho",
    "yoon",
    "jang",
    "lim",
    "han",
    "tanaka",
    "suzuki",
    "takahashi",
    "watanabe",
    "ito",
    "yamamoto",
    "nakamura",
    "kobayashi",
    "ivanov",
    "petrov",
    "sidorov",
    "volkov",
    "kuznetsov",
    "muller",
    "schmidt",
    "schneider",
    "fischer",
    "weber",
    "meyer",
    "wagner",
    "becker",
    "hoffmann",
    "dubois",
    "moreau",
    "laurent",
    "simon",
    "michel",
    "leroy",
    "rossi",
    "russo",
    "ferrari",
    "esposito",
];

/// Syllables for generating tail (rare) names.
const ONSETS: &[&str] = &[
    "b", "ch", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s", "sh", "t", "v", "w",
    "y", "z", "br", "dr", "kr", "st", "tr",
];
const NUCLEI: &[&str] = &["a", "e", "i", "o", "u", "ai", "ea", "ou", "ia"];
const CODAS: &[&str] = &["", "", "n", "m", "r", "l", "s", "t", "k", "nd", "ng"];

/// Configuration for name generation.
#[derive(Debug, Clone)]
pub struct NameGenConfig {
    /// Zipf exponent for token popularity (≈1 matches name corpora).
    pub zipf_exponent: f64,
    /// Probability a name carries a middle initial token ("h").
    pub middle_initial_prob: f64,
    /// Probability a name carries a full middle name token.
    pub middle_name_prob: f64,
    /// Probability of a double surname ("garcia lopez").
    pub double_surname_prob: f64,
    /// Probability a token is a fresh rare name instead of a pool draw
    /// (controls the size of the distinct-token tail).
    pub rare_name_prob: f64,
}

impl Default for NameGenConfig {
    fn default() -> Self {
        Self {
            zipf_exponent: 1.0,
            middle_initial_prob: 0.15,
            middle_name_prob: 0.15,
            double_surname_prob: 0.20,
            rare_name_prob: 0.25,
        }
    }
}

/// Generates a rare (tail) name of 2–4 syllables.
pub fn rare_name(rng: &mut StdRng) -> String {
    let syllables = rng.gen_range(2..=4);
    let mut s = String::new();
    for _ in 0..syllables {
        s.push_str(ONSETS[rng.gen_range(0..ONSETS.len())]);
        s.push_str(NUCLEI[rng.gen_range(0..NUCLEI.len())]);
        s.push_str(CODAS[rng.gen_range(0..CODAS.len())]);
    }
    s
}

/// Draws one full name (2–4 tokens) according to `cfg`.
pub fn generate_name(
    rng: &mut StdRng,
    cfg: &NameGenConfig,
    given_z: &Zipf,
    sur_z: &Zipf,
) -> String {
    let mut tokens: Vec<String> = Vec::with_capacity(4);
    let given = if rng.gen_bool(cfg.rare_name_prob) {
        rare_name(rng)
    } else {
        GIVEN_NAMES[given_z.sample(rng)].to_owned()
    };
    tokens.push(given);
    if rng.gen_bool(cfg.middle_initial_prob) {
        let c = (b'a' + rng.gen_range(0..26u8)) as char;
        tokens.push(c.to_string());
    } else if rng.gen_bool(cfg.middle_name_prob) {
        let middle = if rng.gen_bool(cfg.rare_name_prob) {
            rare_name(rng)
        } else {
            GIVEN_NAMES[given_z.sample(rng)].to_owned()
        };
        tokens.push(middle);
    }
    let surname = if rng.gen_bool(cfg.rare_name_prob) {
        rare_name(rng)
    } else {
        SURNAMES[sur_z.sample(rng)].to_owned()
    };
    tokens.push(surname);
    if rng.gen_bool(cfg.double_surname_prob) {
        tokens.push(SURNAMES[sur_z.sample(rng)].to_owned());
    }
    tokens.join(" ")
}

/// Generates `n` full names.
pub fn generate_names(n: usize, rng: &mut StdRng, cfg: &NameGenConfig) -> Vec<String> {
    let given_z = Zipf::new(GIVEN_NAMES.len(), cfg.zipf_exponent);
    let sur_z = Zipf::new(SURNAMES.len(), cfg.zipf_exponent);
    (0..n)
        .map(|_| generate_name(rng, cfg, &given_z, &sur_z))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::collections::HashMap;

    #[test]
    fn names_have_two_to_four_tokens() {
        let mut rng = StdRng::seed_from_u64(5);
        for name in generate_names(2000, &mut rng, &NameGenConfig::default()) {
            let t = name.split_whitespace().count();
            assert!((2..=4).contains(&t), "{name:?} has {t} tokens");
            assert!(name.chars().all(|c| c.is_ascii_lowercase() || c == ' '));
        }
    }

    #[test]
    fn token_popularity_is_skewed() {
        let mut rng = StdRng::seed_from_u64(6);
        let names = generate_names(5000, &mut rng, &NameGenConfig::default());
        let mut freq: HashMap<&str, u32> = HashMap::new();
        for n in &names {
            for t in n.split_whitespace() {
                *freq.entry(t).or_insert(0) += 1;
            }
        }
        #[expect(clippy::disallowed_methods, reason = "sorted on the next line")]
        let mut counts: Vec<u32> = freq.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        // Head token should be orders of magnitude above the median.
        let median = counts[counts.len() / 2];
        assert!(
            counts[0] > 50 * median.max(1),
            "head {} vs median {median} — not Zipf-like",
            counts[0]
        );
    }

    #[test]
    fn rare_names_are_pronounceable_and_nonempty() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let n = rare_name(&mut rng);
            assert!(n.len() >= 2);
            assert!(n.chars().all(|c| c.is_ascii_lowercase()));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = StdRng::seed_from_u64(8);
        let mut b = StdRng::seed_from_u64(8);
        assert_eq!(
            generate_names(50, &mut a, &NameGenConfig::default()),
            generate_names(50, &mut b, &NameGenConfig::default())
        );
    }
}
