//! Inputs and the correctness oracle: the served documents, rebuilt in
//! process through the same public path `LOAD … builtin:` takes; the
//! seeded query pools; the expected reply for every pooled query; and NoK
//! ground truth for the q-error metrics.

use datagen::{Dataset, WorkloadGenerator, WorkloadSpec};
use nokstore::{Evaluator, NokStorage};
use std::collections::HashSet;
use xmlkit::tree::Document;
use xpathkit::QueryPlan;
use xseed_core::{SynopsisSnapshot, XseedConfig, XseedSynopsis};

/// The served documents: catalog name, builtin dataset and scale.
pub const DOCS: [(&str, Dataset, f64, &str); 3] = [
    ("xm", Dataset::XMark10, 1.0, "xmark@1"),
    ("db", Dataset::Dblp, 1.0, "dblp@1"),
    ("tb", Dataset::TreebankSmall, 0.5, "treebank@0.5"),
];

/// Index of `xm` in [`DOCS`]: the document of the first `EST` at set-up
/// and of the traced replay's loads.
pub const XM: usize = 0;
/// Index of `db` in [`DOCS`]: the document the traced replay sends
/// feedback to.
pub const DB: usize = 1;

/// One served document and its in-process oracle synopsis.
pub struct Doc {
    pub name: &'static str,
    /// The `builtin:` spec the server loads it from.
    pub spec: &'static str,
    pub document: Document,
    pub config: XseedConfig,
    /// The synopsis exactly as `LOAD` builds it (monolithic, kernel only).
    pub synopsis: XseedSynopsis,
    pub snapshot: SynopsisSnapshot,
}

impl Doc {
    /// The `LOAD` request that makes the server build this document.
    pub fn load_line(&self) -> String {
        format!("LOAD {} builtin:{}", self.name, self.spec)
    }
}

/// The estimator configuration `LOAD … builtin:` picks for `dataset`
/// without the `recursive` flag.
pub fn config_for(dataset: Dataset, doc: &Document) -> XseedConfig {
    if dataset.is_highly_recursive() {
        XseedConfig::recursive_for_size(doc.element_count())
    } else {
        XseedConfig::default()
    }
}

/// Generates every served document and its oracle synopsis.
pub fn documents() -> Vec<Doc> {
    DOCS.iter()
        .map(|&(name, dataset, scale, spec)| {
            let document = dataset.generate_scaled(scale);
            let config = config_for(dataset, &document);
            let synopsis = XseedSynopsis::build(&document, config.clone());
            let snapshot = synopsis.snapshot();
            Doc {
                name,
                spec,
                document,
                config,
                synopsis,
                snapshot,
            }
        })
        .collect()
}

/// One pooled query with the oracle's answer.
pub struct Query {
    pub text: String,
    /// The oracle estimate (`SynopsisSnapshot::estimate_plan`).
    pub estimate: f64,
    /// The estimate as the server prints it.
    pub expected: String,
}

/// Distinct query texts per document, each with its oracle estimate.
pub struct Pool {
    /// `per_doc[d]` holds the queries of `DOCS[d]`.
    pub per_doc: Vec<Vec<Query>>,
}

impl Pool {
    /// The hot pool: `WorkloadSpec::small()` over every document, from one
    /// generator seed.
    pub fn hot(docs: &[Doc], seed: u64) -> Pool {
        Pool::build(docs, &[seed], &WorkloadSpec::small())
    }

    /// The cold pool: `WorkloadSpec::paper()` over every document, from
    /// eight generator seeds.
    pub fn cold(docs: &[Doc], seed: u64) -> Pool {
        Pool::build(docs, &eight_seeds(seed), &WorkloadSpec::paper())
    }

    /// The fixed reference set the q-error metrics are computed over, the
    /// same for every workload and seed: `WorkloadSpec::small()` over every
    /// document from generator seeds 0–7 (~4.2k queries). Fixed, so an
    /// estimate that changes moves the metrics and seed noise cannot hide
    /// it; the tails of the small seeded pools vary several-fold by seed.
    pub fn accuracy(docs: &[Doc]) -> Pool {
        Pool::build(docs, &eight_seeds(0), &WorkloadSpec::small())
    }

    fn build(docs: &[Doc], seeds: &[u64], spec: &WorkloadSpec) -> Pool {
        let per_doc = docs
            .iter()
            .map(|doc| {
                let mut seen = HashSet::new();
                let mut queries = Vec::new();
                for &seed in seeds {
                    let workload = WorkloadGenerator::new(&doc.document, seed).generate(spec);
                    for expr in workload.all() {
                        let text = expr.to_string();
                        if seen.insert(text.clone()) {
                            let plan = QueryPlan::parse(&text)
                                .expect("generated queries print in the parser's grammar");
                            let estimate = doc.snapshot.estimate_plan(&plan);
                            queries.push(Query {
                                expected: format_est(estimate),
                                estimate,
                                text,
                            });
                        }
                    }
                }
                queries
            })
            .collect();
        Pool { per_doc }
    }

    /// Queries per document.
    pub fn sizes(&self) -> Vec<usize> {
        self.per_doc.iter().map(Vec::len).collect()
    }

    /// Every `(document, query)` index pair, shuffled by `seed`.
    pub fn shuffled(&self, seed: u64) -> Vec<(usize, usize)> {
        let mut order = all_pairs(self);
        SplitMix::new(seed).shuffle(&mut order);
        order
    }
}

/// Eight generator seeds derived from the benchmark seed.
fn eight_seeds(seed: u64) -> Vec<u64> {
    (0..8)
        .map(|i| seed.wrapping_mul(8).wrapping_add(i))
        .collect()
}

/// Every `(document, query)` index pair of `pool`.
pub fn all_pairs(pool: &Pool) -> Vec<(usize, usize)> {
    pool.per_doc
        .iter()
        .enumerate()
        .flat_map(|(d, qs)| (0..qs.len()).map(move |i| (d, i)))
        .collect()
}

/// Formats an estimate exactly as the server's replies print it:
/// integral values without a fractional part, others with the shortest
/// representation that reads back to the same `f64`.
pub fn format_est(est: f64) -> String {
    if est.fract() == 0.0 && est.abs() < 1e15 {
        format!("{}", est as i64)
    } else {
        format!("{est}")
    }
}

/// NoK ground truth for `wanted` `(document, query)` pairs, evaluated on
/// two threads. Returns `(estimate, actual)` per pair.
pub fn ground_truth(docs: &[Doc], pool: &Pool, wanted: &[(usize, usize)]) -> Vec<(f64, u64)> {
    let storages: Vec<NokStorage> = docs
        .iter()
        .map(|d| NokStorage::from_document(&d.document))
        .collect();
    let count = |&(d, i): &(usize, usize)| {
        let query = &pool.per_doc[d][i];
        let plan = QueryPlan::parse(&query.text).expect("pooled queries parse");
        (
            query.estimate,
            Evaluator::new(&storages[d]).count(plan.expr()),
        )
    };
    // Interleaved halves, so each thread gets a share of every document.
    let (odd, even) = std::thread::scope(|s| {
        let odd = s.spawn(|| {
            wanted
                .iter()
                .skip(1)
                .step_by(2)
                .map(count)
                .collect::<Vec<_>>()
        });
        let even: Vec<(f64, u64)> = wanted.iter().step_by(2).map(count).collect();
        (odd.join().expect("ground-truth thread panicked"), even)
    });
    let mut out = Vec::with_capacity(wanted.len());
    for (k, pair) in even.into_iter().enumerate() {
        out.push(pair);
        if let Some(&o) = odd.get(k) {
            out.push(o);
        }
    }
    out
}

/// A small deterministic generator (SplitMix64) for seeded orders and
/// draws; the same seed gives the same sequence on every platform.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x5EED_5EED_5EED_5EED)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimates_print_like_the_server() {
        assert_eq!(format_est(42.0), "42");
        assert_eq!(format_est(0.0), "0");
        assert_eq!(format_est(2.5), "2.5");
        assert_eq!(format_est(1.0 / 3.0), "0.3333333333333333");
        let x = 1234.000000001_f64;
        assert_eq!(format_est(x).parse::<f64>().expect("number"), x);
    }

    #[test]
    fn seeded_shuffles_repeat() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        SplitMix::new(7).shuffle(&mut a);
        SplitMix::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..50).collect();
        SplitMix::new(8).shuffle(&mut c);
        assert_ne!(a, c);
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
