//! Estimate-throughput bench: what one estimate costs on each estimation
//! path, one-shot and batched, on an XMark workload and a recursive
//! Treebank-style workload.
//!
//! Rows, in ns per estimate:
//!
//! * `one_shot_regenerate_per_query`: the seed's one-shot behavior,
//!   regenerating the full expanded path tree arena for every call;
//! * `one_shot_streaming`: [`XseedSynopsis::estimate`], a fresh cold
//!   streaming matcher per query (the differential oracle of replay);
//! * `one_shot_memo`: a fresh [`SynopsisSnapshot::matcher`] per query,
//!   replaying the snapshot's frontier memo — what a single `EST` runs;
//! * `batched_materialized`, `batched_streaming`, `batched_streaming_memo`:
//!   one materialized estimator, one cold streaming matcher, or one
//!   snapshot matcher reused across the whole workload;
//! * `fresh_snapshot_first_estimate`: bump the epoch, take the new
//!   snapshot and run one estimate on it — the first read after a write,
//!   which pays the snapshot's expansion walk (effective threshold and
//!   memo) on top of the estimate.
//!
//! Every row is measured `REPS` times, interleaved with the other rows;
//! the JSON reports each row's median, minimum, maximum and spread over
//! the repetitions, with `cpus_available`. Results are written to
//! `BENCH_estimate_throughput.json` at the workspace root as `rows`. The
//! committed file also carries `before_rows`: this bench run at the
//! commit before single estimates replayed the memo, where
//! `SynopsisSnapshot::matcher` streamed cold and a fresh snapshot
//! resolved its threshold by separate counting walks. A rerun writes
//! `rows` only.
//!
//! Every run first asserts that the cold one-shot and the memo one-shot
//! agree bit for bit on every query, in both modes. Set `ESTIMATE_SMOKE=1`
//! to run a single pass per measurement and skip the JSON write (the CI
//! smoke mode keeping every measured path compiling, exercised and
//! checked).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datagen::{Dataset, WorkloadGenerator, WorkloadSpec};
use std::time::Instant;
use xpathkit::ast::PathExpr;
use xseed_bench::report::json_spread_summary;
use xseed_core::{
    ExpandedPathTree, Matcher, Mode, Outcome, StreamingMatcher, XseedConfig, XseedSynopsis,
};

/// Repetitions of every row.
const REPS: usize = 11;

/// Row names, in the order [`measure`] returns them.
const ROWS: [&str; 7] = [
    "one_shot_regenerate_per_query",
    "one_shot_streaming",
    "one_shot_memo",
    "batched_materialized",
    "batched_streaming",
    "batched_streaming_memo",
    "fresh_snapshot_first_estimate",
];

struct Scenario {
    name: &'static str,
    synopsis: XseedSynopsis,
    queries: Vec<PathExpr>,
}

fn scenarios() -> Vec<Scenario> {
    let mut out = Vec::new();
    for (name, dataset, scale, recursive) in [
        ("xmark", Dataset::XMark10, 0.25, false),
        ("treebank", Dataset::TreebankSmall, 0.1, true),
    ] {
        let doc = dataset.generate_scaled(scale);
        let config = if recursive {
            XseedConfig::recursive_for_size(doc.element_count())
        } else {
            XseedConfig::default()
        };
        let synopsis = XseedSynopsis::build(&doc, config);
        let workload = WorkloadGenerator::new(&doc, 0x5EED).generate(&WorkloadSpec::small());
        let queries: Vec<PathExpr> = workload.all().cloned().collect();
        assert!(!queries.is_empty());
        out.push(Scenario {
            name,
            synopsis,
            queries,
        });
    }
    out
}

/// The seed's one-shot behavior: regenerate the EPT arena per query.
fn estimate_regenerating(synopsis: &XseedSynopsis, query: &PathExpr) -> f64 {
    let ept = ExpandedPathTree::generate(synopsis.kernel(), synopsis.config(), synopsis.het());
    Matcher::new(synopsis.kernel(), &ept, synopsis.het()).estimate(query)
}

/// The estimate and bound of `outcome`, as bits.
fn bits(outcome: &Outcome) -> (u64, Option<u64>) {
    (outcome.estimate.to_bits(), outcome.bound.map(f64::to_bits))
}

/// Panics unless the cold one-shot and the memo one-shot (a fresh
/// snapshot matcher, what a single `EST` runs) give bit-identical
/// estimates and bounds on every query.
fn assert_memo_matches_cold(scenario: &Scenario) {
    let snapshot = scenario.synopsis.snapshot();
    for query in &scenario.queries {
        for mode in [Mode::Point, Mode::Bound] {
            let cold = scenario
                .synopsis
                .streaming_matcher()
                .estimate(query, None, mode);
            let memo = snapshot.matcher().estimate(query, None, mode);
            assert_eq!(
                bits(&cold),
                bits(&memo),
                "{} {mode:?} {query}: memo one-shot diverged from the cold one-shot",
                scenario.name
            );
        }
    }
}

/// `true` when the CI smoke mode is active: one pass per measurement,
/// no criterion sampling, no JSON write.
fn smoke() -> bool {
    std::env::var_os("ESTIMATE_SMOKE").is_some()
}

/// Times `f` run over every query, returning ns per estimate: the
/// median over timed passes of the workload, so a pass hit by an
/// interrupt or a preempted CPU does not move the result. In smoke mode
/// a single timed pass follows the warm-up instead of the ~200 ms
/// sampling loop.
fn time_per_estimate(queries: &[PathExpr], mut f: impl FnMut(&PathExpr) -> f64) -> f64 {
    // Warm up once (builds caches), then time passes until they cover at
    // least ~200 ms.
    let mut sink = 0.0;
    for q in queries {
        sink += f(q);
    }
    let mut passes = Vec::new();
    let start = Instant::now();
    loop {
        let pass = Instant::now();
        for q in queries {
            sink += f(q);
        }
        passes.push(pass.elapsed().as_nanos() as f64);
        if smoke() || (start.elapsed().as_millis() >= 200 && passes.len() >= 3) {
            break;
        }
    }
    std::hint::black_box(sink);
    passes.sort_by(f64::total_cmp);
    passes[passes.len() / 2] / queries.len() as f64
}

/// One repetition of every row of `scenario`, in [`ROWS`] order.
/// `fresh` is a copy of the scenario's synopsis whose epoch the
/// first-estimate row bumps before every query.
fn measure(scenario: &Scenario, fresh: &mut XseedSynopsis) -> [f64; ROWS.len()] {
    let s = &scenario.synopsis;
    let qs = &scenario.queries;
    let snapshot = s.snapshot();
    let point = |matcher: &mut StreamingMatcher<'_>, q: &PathExpr| {
        matcher.estimate(q, None, Mode::Point).estimate
    };
    [
        time_per_estimate(qs, |q| estimate_regenerating(s, q)),
        time_per_estimate(qs, |q| s.estimate(q)),
        time_per_estimate(qs, |q| point(&mut snapshot.matcher(), q)),
        {
            let estimator = s.estimator();
            time_per_estimate(qs, |q| estimator.estimate(q))
        },
        {
            let mut matcher = s.streaming_matcher();
            time_per_estimate(qs, |q| point(&mut matcher, q))
        },
        {
            let mut matcher = snapshot.matcher();
            time_per_estimate(qs, |q| point(&mut matcher, q))
        },
        time_per_estimate(qs, |q| {
            let next = fresh.epoch() + 1;
            fresh.advance_epoch(next);
            point(&mut fresh.snapshot().matcher(), q)
        }),
    ]
}

fn write_baseline(cpus: usize, results: &[(&str, usize, Vec<Vec<f64>>)]) {
    let mut body = format!(
        "{{\n  \"bench\": \"estimate_throughput\",\n  \"cpus_available\": {cpus},\n  \
         \"reps\": {REPS},\n  \"unit\": \"ns_per_estimate\",\n  \"rows\": {{\n"
    );
    for (i, (name, queries, samples)) in results.iter().enumerate() {
        body.push_str(&format!("    \"{name}\": {{\n      \"queries\": {queries}"));
        for (row, values) in ROWS.iter().zip(samples) {
            body.push_str(&format!(
                ",\n      \"{row}\": {}",
                json_spread_summary(values)
            ));
        }
        body.push_str(&format!(
            "\n    }}{}\n",
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    body.push_str("  }\n}\n");
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_estimate_throughput.json"
    );
    std::fs::write(path, body).expect("write BENCH_estimate_throughput.json");
    println!("wrote {path}");
}

fn throughput_benches(c: &mut Criterion) {
    let scenarios = scenarios();
    for scenario in &scenarios {
        assert_memo_matches_cold(scenario);
    }

    // The criterion sampling adds nothing in smoke mode — the measured
    // passes below already exercise every code path once.
    if !smoke() {
        let mut group = c.benchmark_group("estimate_throughput");
        group.sample_size(10);
        for scenario in &scenarios {
            let s = &scenario.synopsis;
            let qs = &scenario.queries;
            group.bench_with_input(
                BenchmarkId::new("one_shot_regenerate", scenario.name),
                &(),
                |b, _| b.iter(|| estimate_regenerating(s, &qs[0])),
            );
            group.bench_with_input(
                BenchmarkId::new("one_shot_streaming", scenario.name),
                &(),
                |b, _| b.iter(|| s.estimate(&qs[0])),
            );
        }
        group.finish();
    }

    let reps = if smoke() { 1 } else { REPS };
    let mut fresh: Vec<XseedSynopsis> = scenarios.iter().map(|s| s.synopsis.clone()).collect();
    let mut samples = vec![vec![Vec::with_capacity(reps); ROWS.len()]; scenarios.len()];
    for _ in 0..reps {
        for ((scenario, fresh), samples) in scenarios.iter().zip(&mut fresh).zip(&mut samples) {
            for (row, ns) in samples.iter_mut().zip(measure(scenario, fresh)) {
                row.push(ns);
            }
        }
    }
    let mut results = Vec::new();
    for (scenario, samples) in scenarios.iter().zip(samples) {
        let rows: Vec<String> = ROWS
            .iter()
            .zip(&samples)
            .map(|(row, values)| format!("{row} {}", json_spread_summary(values)))
            .collect();
        println!(
            "{}: {} queries, ns per estimate over {reps} reps\n  {}",
            scenario.name,
            scenario.queries.len(),
            rows.join("\n  ")
        );
        results.push((scenario.name, scenario.queries.len(), samples));
    }
    if smoke() {
        println!("ESTIMATE_SMOKE set: skipping BENCH_estimate_throughput.json write");
    } else {
        let cpus = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        write_baseline(cpus, &results);
    }
}

criterion_group!(benches, throughput_benches);
criterion_main!(benches);
