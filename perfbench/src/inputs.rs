//! Seeded inputs: the knowledge base and each workload's request stream.
//! The served program sees only these files and request lines.

use crate::loadgen::{Op, OpKind};
use datagen::synthetic::{SyntheticConfig, ZipfTable};
use datagen::workload::QueryWorkload;
use kgraph::KnowledgeGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Entities of the wiki2017-sim KB (150 class nodes come on top).
const KB_ENTITIES: usize = 60_000;

/// splitmix64: independent sub-seeds from the run seed.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The wiki2017-sim knowledge base at full size: datagen's own dataset
/// definition, seed included, so every run serves the same data and the
/// run seed varies only the traffic.
pub fn knowledge_base() -> KnowledgeGraph {
    let mut config = SyntheticConfig::wiki2017_sim();
    // Fixed size whatever `WIKISEARCH_SCALE` says.
    config.num_entities = KB_ENTITIES;
    config.generate().graph
}

/// `knum`-keyword queries from `datagen::workload::QueryWorkload`, kept
/// only when they normalize to exactly `knum` keywords and to a keyword
/// set not seen before, so no two of them share a result-cache entry.
pub struct DistinctQueries {
    words: QueryWorkload,
    knum: usize,
    seen: HashSet<Vec<String>>,
}

impl DistinctQueries {
    pub fn new(seed: u64, knum: usize) -> Self {
        DistinctQueries { words: QueryWorkload::new(sub_seed(seed, 2)), knum, seen: HashSet::new() }
    }

    fn next_query(&mut self) -> String {
        for _ in 0..100_000 {
            let q = self.words.query(self.knum);
            let key = textindex::normalize_query(&q);
            if key.len() == self.knum && self.seen.insert(key) {
                return q;
            }
        }
        panic!("ran out of distinct {}-keyword queries", self.knum);
    }

    pub fn take(&mut self, n: usize) -> Vec<String> {
        (0..n).map(|_| self.next_query()).collect()
    }
}

/// Make every `every`-th request the diagnostic verb `diag(slot)` and
/// the others queries from `queries`.
fn with_diagnostics(
    mut queries: impl Iterator<Item = String>,
    n: usize,
    every: usize,
    diag: impl Fn(usize) -> OpKind,
) -> Vec<Op> {
    (0..n)
        .map(|i| {
            if i % every == every - 1 {
                Op::diag(diag(i / every))
            } else {
                Op::query(&queries.next().expect("query stream long enough"))
            }
        })
        .collect()
}

/// hot-zipf: `distinct` queries drawn Zipf(1.0) by rank; STATS, TOP and
/// METRICS in rotation.
pub fn zipf_stream(seed: u64, distinct: &[String], n: usize, every: usize) -> Vec<Op> {
    let table = ZipfTable::new(distinct.len(), 1.0);
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 4));
    let picks = std::iter::repeat_with(move || distinct[table.sample(&mut rng)].clone());
    with_diagnostics(picks, n, every, OpKind::diag)
}

/// Fisher-Yates shuffle driven by `seed`.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 5));
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

/// fleet-miss: `queries` in turn, wrapping around; STATS, TOP and
/// METRICS in rotation.
pub fn cycle_stream(queries: &[String], n: usize, every: usize) -> Vec<Op> {
    with_diagnostics(queries.iter().cycle().cloned(), n, every, OpKind::diag)
}

/// Order in which cold-mix takes its keyword-count strata: each count
/// gets an equal share of every window and of each connection.
const STRATA_ROTATION: [usize; 8] = [0, 1, 2, 3, 1, 0, 3, 2];

/// cold-mix: one query list per keyword count, taken in
/// [`STRATA_ROTATION`]; the diagnostic probe is a METRICS scrape.
pub fn strata_stream(strata: &[Vec<String>], n: usize, every: usize) -> Vec<Op> {
    let mut cursors = vec![0; strata.len()];
    let picks = (0..).map(move |j| {
        let s = STRATA_ROTATION[j % STRATA_ROTATION.len()] % strata.len();
        cursors[s] += 1;
        strata[s][cursors[s] - 1].clone()
    });
    with_diagnostics(picks, n, every, |_| OpKind::Metrics)
}
