//! Cache-churn bench: the plan cache and the compiled-query cache when
//! both are full and most lookups miss.
//!
//! The inputs are the documents the server benchmark serves (XMark @1,
//! DBLP @1, Treebank @0.5, each built the way `LOAD … builtin:` builds
//! it) and, per document, the distinct `WorkloadSpec::paper()` texts of
//! eight generator seeds: about 28k texts, about 7× the caches' 4096
//! entries. Per plan-cache shard count (1, 8 and 64, so 4096, 512 and 64
//! plans per shard) the bench keeps one lane: a `PlanCache` of 4096 plans
//! and a fresh snapshot of every document, whose compiled-query cache
//! holds 4096 entries over its fixed 8 shards. Both caches of a lane are
//! filled to capacity before timing, the compiled-query caches by the
//! stream itself, so they hold the ids of plans the plan cache handed out. Each repetition then
//! replays the same seeded batches of 64 texts through every lane in
//! turn, cycling the documents, and times per query:
//!
//! * `plan_lookup`: [`PlanCache::get_or_parse_batch`] on the batch's texts;
//! * `execute`: [`execute_batch`] on the plans it returned;
//! * `hot_lookup`: single [`PlanCache::get_or_parse`] calls, as `EST`
//!   makes them, over 1024 resident texts, so every lookup hits and
//!   nothing is evicted.
//!
//! Each row reports the median, minimum and maximum over the repetitions,
//! the repetition count, both caches' hit shares and `cpus_available`.
//! The shard count changes only the plan cache, so `execute` varies only
//! through the plans it is handed. Results are written to
//! `BENCH_cache_churn.json` at the workspace root as `rows`. The committed
//! file also carries `before_rows`: this bench run at the commit before
//! the caches moved to [`xseed_core::ShardedLru`], when a miss into a
//! full shard scanned the whole shard for its oldest entry. A rerun
//! writes `rows` only.
//!
//! Set `CACHE_CHURN_SMOKE=1` to run one short repetition per lane and skip
//! the JSON write (the CI smoke mode keeping both caches exercised while
//! they evict).

use datagen::{Dataset, WorkloadGenerator, WorkloadSpec};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};
use xseed_bench::report::json_spread_summary;
use xseed_core::{SynopsisSnapshot, XseedConfig, XseedSynopsis};
use xseed_service::{execute_batch, PlanCache};

/// The served documents: name, dataset and scale.
const DOCS: [(&str, Dataset, f64); 3] = [
    ("xmark", Dataset::XMark10, 1.0),
    ("dblp", Dataset::Dblp, 1.0),
    ("treebank", Dataset::TreebankSmall, 0.5),
];
/// Capacity of both caches, in entries: the service's and the
/// snapshot's default.
const CAPACITY: usize = 4096;
const SHARD_COUNTS: [usize; 3] = [1, 8, 64];
const BATCH: usize = 64;
const SEED: u64 = 21;
/// Resident texts of the hit-only measurement (a quarter of capacity),
/// and the timed passes over them.
const HOT: usize = 1024;
const HOT_PASSES: usize = 32;

/// SplitMix64: the batch draws, reproducible from [`SEED`].
struct SplitMix(u64);

impl SplitMix {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// One served document: its synopsis (kernel only, as `LOAD` builds it)
/// and its distinct pooled query texts.
struct Doc {
    synopsis: XseedSynopsis,
    texts: Vec<String>,
}

fn documents() -> Vec<Doc> {
    DOCS.iter()
        .map(|&(name, dataset, scale)| {
            let document = dataset.generate_scaled(scale);
            let config = if dataset.is_highly_recursive() {
                XseedConfig::recursive_for_size(document.element_count())
            } else {
                XseedConfig::default()
            };
            let mut seen = HashSet::new();
            let texts: Vec<String> = (0..8)
                .flat_map(|seed| {
                    WorkloadGenerator::new(&document, seed)
                        .generate(&WorkloadSpec::paper())
                        .all()
                        .map(|expr| expr.to_string())
                        .collect::<Vec<_>>()
                })
                .filter(|text| seen.insert(text.clone()))
                .collect();
            println!("cache_churn: {name}: {} distinct texts", texts.len());
            Doc {
                synopsis: XseedSynopsis::build(&document, config),
                texts,
            }
        })
        .collect()
}

/// One plan-cache shard count with its own caches, filled to capacity.
struct Lane {
    shards: usize,
    plans: PlanCache,
    /// Per document, a snapshot with its own compiled-query cache.
    snapshots: Vec<SynopsisSnapshot>,
}

impl Lane {
    fn new(shards: usize, docs: &mut [Doc]) -> Lane {
        let plans = PlanCache::new(shards, CAPACITY);
        let snapshots: Vec<SynopsisSnapshot> = docs
            .iter_mut()
            .map(|doc| {
                // A new epoch publishes a new snapshot: empty caches.
                let _ = doc.synopsis.kernel_mut();
                doc.synopsis.snapshot()
            })
            .collect();
        let lane = Lane {
            shards,
            plans,
            snapshots,
        };
        // Fill the plan cache, then replay batches until every
        // compiled-query cache is full of ids of plans the plan cache
        // handed out: the steady state of a server under this stream.
        let mut rng = SplitMix(SEED ^ shards as u64);
        while lane.plans.stats().entries < CAPACITY {
            let doc = &docs[rng.below(docs.len())];
            lane.plans
                .get_or_parse(&doc.texts[rng.below(doc.texts.len())])
                .expect("generated queries parse");
        }
        let mut seed = SEED << 32;
        while lane
            .snapshots
            .iter()
            .any(|s| s.compiled_cache_stats().entries < CAPACITY)
        {
            lane.run(docs, seed, docs.len());
            seed += 1;
        }
        lane
    }

    /// Cumulative compiled-query cache hits and lookups over documents.
    fn compiled_counts(&self) -> (u64, u64) {
        self.snapshots.iter().fold((0, 0), |(hits, lookups), s| {
            let stats = s.compiled_cache_stats();
            (hits + stats.hits, lookups + stats.hits + stats.misses)
        })
    }

    /// Runs `batches` seeded batches, returning the time spent in plan
    /// lookup and in execution.
    fn run(&self, docs: &[Doc], seed: u64, batches: usize) -> (Duration, Duration) {
        let mut rng = SplitMix(seed);
        let (mut lookup, mut execute) = (Duration::ZERO, Duration::ZERO);
        for b in 0..batches {
            let d = b % docs.len();
            let texts: Vec<&str> = (0..BATCH)
                .map(|_| docs[d].texts[rng.below(docs[d].texts.len())].as_str())
                .collect();
            let started = Instant::now();
            let plans = self
                .plans
                .get_or_parse_batch(&texts)
                .expect("generated queries parse");
            let looked_up = Instant::now();
            black_box(execute_batch(&self.snapshots[d], &plans, plans.len()));
            execute += looked_up.elapsed();
            lookup += looked_up - started;
        }
        (lookup, execute)
    }

    /// Looks up every hot text once to make it resident, then times
    /// [`HOT_PASSES`] more passes of single lookups, as `EST` makes them.
    /// Returns the time and the plan-cache hits of the timed passes.
    fn hot(&self, texts: &[&str]) -> (Duration, u64) {
        let lookup = |text: &&str| {
            black_box(
                self.plans
                    .get_or_parse(text)
                    .expect("generated queries parse"),
            );
        };
        texts.iter().for_each(lookup);
        let hits_before = self.plans.stats().hits;
        let started = Instant::now();
        for _ in 0..HOT_PASSES {
            texts.iter().for_each(lookup);
        }
        (started.elapsed(), self.plans.stats().hits - hits_before)
    }
}

/// Per-repetition nanoseconds per query, with the hit counts behind them.
#[derive(Default)]
struct Samples {
    lookup_ns: Vec<f64>,
    execute_ns: Vec<f64>,
    hot_ns: Vec<f64>,
    hot_hits: u64,
    plan_hits: u64,
    plan_lookups: u64,
    compiled_hits: u64,
    compiled_lookups: u64,
}

fn share(hits: u64, lookups: u64) -> f64 {
    hits as f64 / lookups.max(1) as f64
}

fn main() {
    let smoke = std::env::var_os("CACHE_CHURN_SMOKE").is_some();
    let (reps, batches) = if smoke { (1, 6) } else { (9, 120) };
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut docs = documents();
    let lanes: Vec<Lane> = SHARD_COUNTS
        .iter()
        .map(|&shards| Lane::new(shards, &mut docs))
        .collect();
    let hot: Vec<&str> = docs
        .iter()
        .flat_map(|doc| doc.texts.iter().take(HOT / docs.len()))
        .map(String::as_str)
        .collect();
    let mut samples: Vec<Samples> = lanes.iter().map(|_| Samples::default()).collect();
    for rep in 0..reps {
        for (lane, samples) in lanes.iter().zip(&mut samples) {
            let plan_before = lane.plans.stats();
            let compiled_before = lane.compiled_counts();
            let (lookup, execute) = lane.run(&docs, SEED + rep as u64, batches);
            let queries = (batches * BATCH) as f64;
            samples.lookup_ns.push(lookup.as_nanos() as f64 / queries);
            samples.execute_ns.push(execute.as_nanos() as f64 / queries);
            let plan_after = lane.plans.stats();
            samples.plan_hits += plan_after.hits - plan_before.hits;
            samples.plan_lookups +=
                (plan_after.hits + plan_after.misses) - (plan_before.hits + plan_before.misses);
            let compiled_after = lane.compiled_counts();
            samples.compiled_hits += compiled_after.0 - compiled_before.0;
            samples.compiled_lookups += compiled_after.1 - compiled_before.1;
            let (elapsed, hits) = lane.hot(&hot);
            samples
                .hot_ns
                .push(elapsed.as_nanos() as f64 / (HOT_PASSES * hot.len()) as f64);
            samples.hot_hits += hits;
        }
    }

    let mut rows = Vec::new();
    for (lane, s) in lanes.iter().zip(&samples) {
        println!(
            "cache_churn/shards={}: plan_lookup {} ns/query (hit share {:.4}) | execute {} ns/query (compiled hit share {:.4}) | hot lookup {} ns/query (hit share {:.4})",
            lane.shards,
            json_spread_summary(&s.lookup_ns),
            share(s.plan_hits, s.plan_lookups),
            json_spread_summary(&s.execute_ns),
            share(s.compiled_hits, s.compiled_lookups),
            json_spread_summary(&s.hot_ns),
            share(s.hot_hits, (reps * HOT_PASSES * hot.len()) as u64),
        );
        rows.push(format!(
            "    {{\"shards\": {}, \"plans_per_shard\": {}, \"reps\": {reps}, \"queries_per_rep\": {}, \
             \"plan_lookup_ns_per_query\": {}, \"plan_hit_share\": {:.4}, \
             \"execute_ns_per_query\": {}, \"compiled_hit_share\": {:.4}, \
             \"hot_lookup_ns_per_query\": {}, \"hot_hit_share\": {:.4}}}",
            lane.shards,
            CAPACITY / lane.shards,
            batches * BATCH,
            json_spread_summary(&s.lookup_ns),
            share(s.plan_hits, s.plan_lookups),
            json_spread_summary(&s.execute_ns),
            share(s.compiled_hits, s.compiled_lookups),
            json_spread_summary(&s.hot_ns),
            share(s.hot_hits, (reps * HOT_PASSES * hot.len()) as u64),
        ));
    }

    if smoke {
        println!("CACHE_CHURN_SMOKE set: skipping BENCH_cache_churn.json write");
        return;
    }
    let mut body = String::from("{\n  \"bench\": \"cache_churn\",\n");
    let _ = write!(
        body,
        "  \"cpus_available\": {cpus},\n  \"capacity\": {CAPACITY},\n  \"batch\": {BATCH},\n  \
         \"seed\": {SEED},\n  \"rows\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cache_churn.json");
    std::fs::write(path, body).expect("write BENCH_cache_churn.json");
    println!("wrote {path}");
}
