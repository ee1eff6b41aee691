//! End-to-end and per-layer benchmark of the `xseed-serve` estimation
//! server.
//!
//! ```text
//! perfbench --workload <est-hot|batch-cold> --seed <n>
//!           --seconds <s> --trace <0|1> [--server <path>] [--out <dir>]
//! ```
//!
//! Spawns `xseed-serve --tcp 127.0.0.1:0` with default flags (set up
//! several times; set-up time is the median), drives the workload over
//! TCP, checks every reply against an in-process oracle, and prints one
//! JSON object as its last line of output. With `--trace 0` it holds the
//! end-to-end metrics; with `--trace 1` the per-layer metrics, from the
//! server's own counters and from a replay of a seeded sample of the
//! workload through each layer's public function. The traced run also
//! prints the per-layer ledger and writes its spans to `<out>`.
//! `perfbench/run.sh` builds both binaries and runs this.

mod client;
mod host;
mod layers;
mod oracle;
mod scrape;
mod spans;
mod stats;
mod workloads;

use client::{start_server, LineConn};
use oracle::{all_pairs, documents, ground_truth, Doc, Pool, XM};
use spans::Tracer;
use stats::{geometric_mean, median, q_error, quantile, quietest, tail_is_reportable};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Ctx, Sample, Scrape, Tally, Workload, WINDOW_S};

/// Servers spawned per run to time set-up; the last one serves the
/// workload.
const SETUP_REPEATS: usize = 21;
/// Share of the measured phase's windows the round-trip and throughput
/// metrics pool at the least: the least-stolen tenth, or more on ties.
const QUIET_SHARE: f64 = 0.1;
/// The server's plan-cache and compiled-cache capacity (its defaults),
/// for the pool-size record.
const CACHE_ENTRIES: usize = 4096;

struct Args {
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    server: PathBuf,
    out: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <est-hot|batch-cold> \
                     --seed <n> --seconds <s> --trace <0|1> [--server <path>] [--out <dir>]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut server = PathBuf::from("target/release/xseed-serve");
    let mut out = PathBuf::from("target/perfbench");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} '{value}'"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = Workload::parse(&value).ok_or(format!("unknown workload '{value}'"))?;
                workload = Some((w, value));
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            "--server" => server = PathBuf::from(value),
            "--out" => out = PathBuf::from(value),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let (workload, workload_name) = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        workload_name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        server,
        out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(result) => {
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One metric of the result line.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// `a / b`, or 0 when nothing was counted.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn run(args: &Args) -> Result<String, String> {
    let origin = Instant::now();
    if !args.server.is_file() {
        return Err(format!("no server binary at {}", args.server.display()));
    }
    let docs = documents();
    let pool = match args.workload {
        Workload::BatchCold => Pool::cold(&docs, args.seed),
        Workload::EstHot => Pool::hot(&docs, args.seed),
    };
    record_inputs(args, &docs, &pool);

    let first = &pool.per_doc[XM][0];
    let first_est = format!("EST {} {}", docs[XM].name, first.text);
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut live: Option<(client::Server, LineConn)> = None;
    for _ in 0..SETUP_REPEATS {
        // Kill the previous server first: one server at a time.
        drop(live.take());
        let (server, conn, setup_s) =
            start_server(&args.server, &docs, (&first_est, &first.expected))?;
        setups.push(setup_s);
        live = Some((server, conn));
    }
    let (server, mut conn) = live.expect("at least one set-up");

    let mut tally = Tally::default();
    let mut tracer = args.trace.then(|| Tracer::new(origin));
    let ctx = Ctx {
        docs: &docs,
        pool: &pool,
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
    };
    match args.workload {
        Workload::EstHot => workloads::est_hot(&ctx, &mut conn, &mut tally, &mut tracer)?,
        Workload::BatchCold => workloads::batch_cold(&ctx, &mut conn, &mut tally, &mut tracer)?,
    }
    let rss_peak_mb = server.peak_rss_mb()?;
    drop(conn);
    drop(server);

    let quiet = quiet_windows(&tally.samples, &tally.marks)?;
    let (Some(before), Some(after)) = (tally.before.take(), tally.after.take()) else {
        return Err("the server counters were not scraped".to_string());
    };
    record_measured(args, &tally, &before, &after);

    let metrics = if args.trace {
        let mut tracer = tracer.expect("traced run has a tracer");
        let replay = layers::replay(&docs, &pool, args.seed, &mut tracer, &mut tally)?;
        let overhead_us = (median(&tally.traced_rtts_ns).unwrap_or(0.0)
            - median(&tally.untraced_rtts_ns).unwrap_or(0.0))
            / 1e3;
        print_ledger(args, &replay, &tally);
        std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
        let path = args.out.join(format!(
            "spans-{}-seed{}.tsv",
            args.workload_name, args.seed
        ));
        tracer
            .write_tsv(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans: {} written to {}", tracer.len(), path.display());
        let mut metrics = replay.metrics;
        metrics.extend(counter_metrics(&tally, &before, &after, overhead_us));
        metrics
    } else {
        end_to_end(&docs, &tally, &quiet, &setups, rss_peak_mb)
    };
    result_line(&tally, &metrics)
}

/// The round-trip and throughput figures of the measured phase, pooled
/// over its quiet windows (see [`stats::quietest`]): the exact median and
/// p99 of their round trips (a p99 only where ten samples lie beyond it)
/// and their correct estimates per second. On a shared host the
/// hypervisor takes the CPUs away in bursts; a window that lost them
/// measures the neighbours, while a slower program slows every window.
struct Quiet {
    p50_ns: f64,
    p99_ns: f64,
    rate: f64,
}

fn quiet_windows(samples: &[Sample], marks: &[(f64, u64)]) -> Result<Quiet, String> {
    let edges: Vec<(f64, f64, u64)> = marks
        .windows(2)
        .map(|w| (w[0].0, w[1].0, w[1].1.saturating_sub(w[0].1)))
        .collect();
    let steal: Vec<u64> = edges.iter().map(|&(_, _, steal)| steal).collect();
    let chosen = quietest(&steal, QUIET_SHARE);
    let mut rtts = Vec::new();
    let (mut ok, mut span_s) = (0u64, 0.0);
    for &w in &chosen {
        let (from, to, _) = edges[w];
        let first = samples.partition_point(|s| s.at_s < from);
        let end = samples.partition_point(|s| s.at_s < to);
        rtts.extend(samples[first..end].iter().map(|s| s.rtt_ns));
        ok += samples[first..end].iter().map(|s| s.ok).sum::<u64>();
        span_s += to - from;
    }
    eprintln!(
        "perfbench: steal ticks per {WINDOW_S} s window {steal:?}; pooled {} of {} windows ({span_s:.1} s, {} round trips)",
        chosen.len(),
        edges.len(),
        rtts.len()
    );
    if !tail_is_reportable(rtts.len(), 0.99) {
        return Err(format!(
            "void run: {} round trips in the quiet windows, too few for a p99",
            rtts.len()
        ));
    }
    Ok(Quiet {
        p50_ns: median(&rtts).expect("round trips were measured"),
        p99_ns: quantile(&rtts, 0.99).expect("round trips were measured"),
        rate: ok as f64 / span_s,
    })
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(
    docs: &[Doc],
    tally: &Tally,
    quiet: &Quiet,
    setups: &[f64],
    rss_peak_mb: f64,
) -> Vec<Metric> {
    let started = Instant::now();
    let accuracy = Pool::accuracy(docs);
    let qerrs: Vec<f64> = ground_truth(docs, &accuracy, &all_pairs(&accuracy))
        .into_iter()
        .map(|(est, act)| q_error(est, act))
        .collect();
    eprintln!(
        "perfbench: q-error over the {} queries of the fixed accuracy set (sizes {:?}; NoK ground truth in {:.1} s)",
        qerrs.len(),
        accuracy.sizes(),
        started.elapsed().as_secs_f64()
    );
    vec![
        metric("setup_s", median(setups).unwrap_or(0.0), "s"),
        metric("rtt_p50_us", quiet.p50_ns / 1e3, "us"),
        metric("rtt_p99_us", quiet.p99_ns / 1e3, "us"),
        metric("estimates_per_s", quiet.rate, "1/s"),
        metric(
            "ok_share",
            1.0 - ratio(tally.failed as f64, tally.attempted as f64),
            "ratio",
        ),
        metric("qerr_p90", quantile(&qerrs, 0.9).unwrap_or(0.0), "ratio"),
        metric("qerr_p99", quantile(&qerrs, 0.99).unwrap_or(0.0), "ratio"),
        metric("qerr_gmean", geometric_mean(&qerrs), "ratio"),
        metric("rss_peak_mb", rss_peak_mb, "MiB"),
    ]
}

/// Per-layer counters from the server (`STATS json`, `METRICS`) and the
/// load generator, over the measured phase.
fn counter_metrics(
    tally: &Tally,
    before: &Scrape,
    after: &Scrape,
    overhead_us: f64,
) -> Vec<Metric> {
    let (b, a) = (&before.stats, &after.stats);
    let delta = |x: u64, y: u64| y.saturating_sub(x) as f64;
    let hits = delta(b.plan_hits, a.plan_hits);
    let misses = delta(b.plan_misses, a.plan_misses);
    // Every compiled-cache miss records one `compile` sample and every
    // estimate one `estimate` sample. The per-document `STATS` counters
    // would not do: they belong to a snapshot and restart at each epoch.
    let stage_count =
        |scrape: &Scrape, stage: &str| scrape.stages.get(stage).map_or(0, |s| s.count);
    let compiles = delta(
        stage_count(before, "compile"),
        stage_count(after, "compile"),
    );
    let estimates = delta(
        stage_count(before, "estimate"),
        stage_count(after, "estimate"),
    );
    let steals = delta(b.steals, a.steals);
    let mut out = vec![
        metric("plan_cache.hit_ratio", ratio(hits, hits + misses), "ratio"),
        metric(
            "core.compiled_hit_ratio",
            1.0 - ratio(compiles, estimates),
            "ratio",
        ),
        metric("service.steals", steals, "count"),
        metric(
            "service.steal_ratio",
            ratio(steals, delta(b.batches, a.batches)),
            "ratio",
        ),
        metric("service.shed", delta(b.shed, a.shed), "count"),
        metric("service.peak_queued", a.peak_queued as f64, "count"),
    ];
    for stage in ["parse", "plan_lookup", "compile", "estimate", "batch_chunk"] {
        let s0 = before.stages.get(stage).copied().unwrap_or_default();
        let s1 = after.stages.get(stage).copied().unwrap_or_default();
        out.push(Metric {
            name: format!("metrics.stage.{stage}.count"),
            value: delta(s0.count, s1.count),
            unit: "count",
        });
        out.push(Metric {
            name: format!("metrics.stage.{stage}.p50_bucket_edge_ns"),
            value: s1.p50_bucket_edge_ns as f64,
            unit: "ns",
        });
    }
    out.extend([
        metric("loadgen.sent", tally.samples.len() as f64, "count"),
        metric("loadgen.mismatches", tally.mismatches as f64, "count"),
        metric("loadgen.trace_overhead_us", overhead_us, "us"),
    ]);
    out
}

/// The last line of output: `correct`, `attempted`, `failed`, `metrics`.
fn result_line(tally: &Tally, metrics: &[Metric]) -> Result<String, String> {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not a number ({})", m.name, m.value));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed
    ))
}

/// Records the run's inputs on stderr: flags, documents, pool sizes.
fn record_inputs(args: &Args, docs: &[Doc], pool: &Pool) {
    let sizes = pool.sizes();
    let total: usize = sizes.iter().sum();
    let mut line = format!(
        "perfbench: workload={} seed={} seconds={} trace={} server=`xseed-serve --tcp 127.0.0.1:0` (defaults: workers={}, observability on)",
        args.workload_name,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    for (doc, size) in docs.iter().zip(&sizes) {
        let _ = write!(
            line,
            "\nperfbench: doc {} = builtin:{} elements={} pool={size}",
            doc.name,
            doc.spec,
            doc.document.element_count()
        );
    }
    let _ = write!(
        line,
        "\nperfbench: pool total={total} = {:.2}x the {CACHE_ENTRIES}-entry plan and compiled caches",
        total as f64 / CACHE_ENTRIES as f64
    );
    eprintln!("{line}");
}

/// Records what the measured phase saw on stderr, the plan-cache hit
/// share among it.
fn record_measured(args: &Args, tally: &Tally, before: &Scrape, after: &Scrape) {
    let hits = after.stats.plan_hits.saturating_sub(before.stats.plan_hits) as f64;
    let misses = after
        .stats
        .plan_misses
        .saturating_sub(before.stats.plan_misses) as f64;
    eprintln!(
        "perfbench: {} measured {:.2} s: {} read requests, {} estimates ok, plan-cache hit share {:.4}",
        args.workload_name,
        tally.measured_s,
        tally.samples.len(),
        tally.samples.iter().map(|s| s.ok).sum::<u64>(),
        ratio(hits, hits + misses)
    );
}

/// Prints the per-layer ledgers and the tracing overhead.
fn print_ledger(args: &Args, replay: &layers::Replay, tally: &Tally) {
    for (title, ledger) in [
        ("single EST, p50 ns", &replay.single_ledger),
        ("BATCH of 64, p50 ns per query", &replay.batch_ledger),
    ] {
        let sum: f64 = ledger.iter().map(|(_, ns)| ns).sum();
        let rows: Vec<String> = ledger
            .iter()
            .map(|(layer, ns)| format!("{layer}={ns:.0}"))
            .collect();
        println!(
            "ledger {} ({title}, self time per layer): {} | sum={sum:.0}",
            args.workload_name,
            rows.join(" ")
        );
    }
    let get = |name: &str| {
        replay
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    };
    println!(
        "handoff: service.handoff_p50_ns={:.0} of service.estimate_p50_ns={:.0} ({:.1}%)",
        get("service.handoff_p50_ns"),
        get("service.estimate_p50_ns"),
        100.0 * get("service.handoff_share")
    );
    println!(
        "tracing overhead: rtt_p50 traced {:.1} us vs untraced {:.1} us",
        median(&tally.traced_rtts_ns).unwrap_or(0.0) / 1e3,
        median(&tally.untraced_rtts_ns).unwrap_or(0.0) / 1e3
    );
}
