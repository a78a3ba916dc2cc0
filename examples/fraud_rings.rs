//! Fraud-ring detection: the paper's motivating application (Sec. I-A).
//!
//! Generates a synthetic account population with planted fraud rings
//! (adversarially edited names), runs the TSJ self-join, builds the
//! similarity graph, extracts connected components, and scores the detected
//! rings against the ground truth.
//!
//! Run with: `cargo run --release --example fraud_rings`

use std::collections::HashMap;

use tsj::{TsjConfig, TsjJoiner};
use tsj_datagen::workload;
use tsj_mapreduce::Cluster;
use tsj_tokenize::{Corpus, NameTokenizer};

/// Union-find over string ids (the "graph is clustered" step of Sec. I-A;
/// connected components stand in for the production clustering).
struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n as u32).collect(),
        }
    }
    fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        let mut cur = x;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }
    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra as usize] = rb;
        }
    }
}

fn main() {
    let n = 5_000;
    let w = workload(n, 0.15, 2024);
    println!(
        "population: {} accounts, {} planted rings ({} ring members)",
        w.strings.len(),
        w.rings.len(),
        w.rings.iter().map(Vec::len).sum::<usize>()
    );

    let corpus = Corpus::build(&w.strings, &NameTokenizer::default());
    let cluster = Cluster::with_machines(200);
    let out = TsjJoiner::new(&cluster)
        .self_join(
            &corpus,
            &TsjConfig {
                threshold: 0.2,
                ..TsjConfig::default()
            },
        )
        .expect("join succeeds");
    println!(
        "join: {} similar pairs, {:.1} simulated seconds on {} machines",
        out.pairs.len(),
        out.sim_secs(),
        cluster.machines()
    );

    // Build clusters from the similarity edges.
    let mut uf = UnionFind::new(corpus.len());
    for p in &out.pairs {
        uf.union(p.a.0, p.b.0);
    }
    let mut clusters: HashMap<u32, Vec<u32>> = HashMap::new();
    for id in 0..corpus.len() as u32 {
        clusters.entry(uf.find(id)).or_default().push(id);
    }
    #[expect(clippy::disallowed_methods, reason = "only the count is printed")]
    let flagged: Vec<&Vec<u32>> = clusters.values().filter(|c| c.len() >= 3).collect();
    println!("flagged {} suspicious clusters (size ≥ 3)", flagged.len());

    // Score ring recovery: a ring counts as detected when some flagged
    // cluster contains a majority of its members.
    let mut detected = 0;
    for ring in &w.rings {
        let hit = flagged.iter().any(|c| {
            let inside = ring.iter().filter(|&&m| c.contains(&(m as u32))).count();
            inside * 2 > ring.len()
        });
        if hit {
            detected += 1;
        }
    }
    println!(
        "ring recovery: {detected}/{} rings detected ({:.1}%)",
        w.rings.len(),
        100.0 * detected as f64 / w.rings.len().max(1) as f64
    );

    // Show one recovered ring with its name variants.
    if let Some(ring) = w.rings.iter().find(|r| r.len() >= 4) {
        println!("\nexample planted ring:");
        for &m in ring {
            println!("  {}", w.strings[m]);
        }
    }
}
