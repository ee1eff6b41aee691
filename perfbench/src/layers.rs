//! The traced replay: a seeded sample of the workload's requests, timed
//! through each layer's public function from the bottom row up (parse →
//! plan-cache lookup → estimate → `Service` → `handle_line` → TCP round
//! trip to an in-process `TcpServer`), one span per call.

use crate::client::LineConn;
use crate::oracle::{format_est, ground_truth, Doc, Pool, Query, SplitMix, DB, XM};
use crate::spans::Tracer;
use crate::stats::{quantile, self_times, LedgerRow};
use crate::workloads::{batch_line, batch_rng, draw_batch, Tally, BATCH_SIZE};
use crate::{metric, Metric};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use xpathkit::QueryPlan;
use xseed_core::XseedSynopsis;
use xseed_service::{
    execute_batch, handle_line, Catalog, PlanCache, ProtocolOptions, ServerConfig, Service,
    ServiceConfig, TcpServer,
};

/// Single requests replayed per workload.
const SINGLES: usize = 2_000;
/// Batches replayed per workload, after [`WARM_BATCHES`] untimed ones.
const BATCHES: usize = 150;
const WARM_BATCHES: usize = 20;
/// Fresh-snapshot (compile + stream) estimates per workload.
const COLD: usize = 300;
/// `Catalog::load_document` repetitions.
const LOADS: usize = 5;
/// `Service::feedback` calls.
const FEEDBACKS: usize = 100;

/// What the replay measured: metrics and the two ledgers.
pub struct Replay {
    pub metrics: Vec<Metric>,
    pub single_ledger: Vec<(String, f64)>,
    pub batch_ledger: Vec<(String, f64)>,
}

/// Times `f` as one span named `name` under `parent`.
fn timed<T>(
    tracer: &mut Tracer,
    name: &'static str,
    parent: usize,
    request: u64,
    f: impl FnOnce() -> T,
) -> T {
    let start = Instant::now();
    let out = black_box(f());
    tracer.record(name, start, Instant::now(), Some(parent), request);
    out
}

/// Runs one ledger row: `call(k)` for every `k` below `n`, the first
/// `warm` untimed and the rest as one span each named `name`, under a
/// root span for the row. Returns every call's result.
fn row_spans<T>(
    tracer: &mut Tracer,
    name: &'static str,
    warm: usize,
    n: usize,
    mut call: impl FnMut(usize) -> T,
) -> Vec<T> {
    let mut out: Vec<T> = (0..warm.min(n)).map(&mut call).collect();
    let root_start = Instant::now();
    let root = tracer.record("replay.row", root_start, root_start, None, 0);
    for k in warm..n {
        let start = Instant::now();
        let result = black_box(call(k));
        tracer.record(name, start, Instant::now(), Some(root), k as u64);
        out.push(result);
    }
    tracer.finish(root, Instant::now());
    out
}

fn p(tracer: &Tracer, name: &str, q: f64) -> f64 {
    quantile(&tracer.durations(name), q).unwrap_or(f64::NAN)
}

/// Checks in-process estimates against the oracle.
fn check_all(tally: &mut Tally, got: &[f64], queries: &[&Query]) {
    for (&v, query) in got.iter().zip(queries) {
        tally.check_est(&format!("OK {}", format_est(v)), query);
    }
}

/// A service over fresh builds of every document, with the daemon's
/// defaults (one worker per CPU, observability on unless turned off).
fn stack(docs: &[Doc], observability: bool) -> Arc<Service> {
    Arc::new(Service::new(
        catalog_of(docs),
        ServiceConfig::default().with_observability(observability),
    ))
}

/// An in-process `TcpServer` over `service`, and a connection to it.
/// `TcpServer::run` has no shutdown: its loop thread ends with the
/// process, right after the replay.
fn tcp_stack(service: Arc<Service>) -> Result<LineConn, String> {
    let server = TcpServer::bind("127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("bind in-process server: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    std::thread::Builder::new()
        .name("perfbench-inproc-server".to_string())
        .spawn(move || server.run(service))
        .map_err(|e| format!("spawn in-process server: {e}"))?;
    LineConn::connect(addr).map_err(|e| format!("connect in-process: {e}"))
}

/// Runs the replay for `workload` and returns its per-layer timings.
/// Spans go to `tracer`; oracle mismatches to `tally`.
pub fn replay(
    docs: &[Doc],
    pool: &Pool,
    seed: u64,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Result<Replay, String> {
    let config = ServiceConfig::default();
    let options = ProtocolOptions::remote();

    // Singles: est-hot's own request order, or a shuffled draw from the
    // cold pool on batch-cold. One untimed pass warms the caches.
    let order = pool.shuffled(seed);
    let sample: Vec<(usize, usize)> = order.iter().cycle().take(SINGLES).copied().collect();
    let queries: Vec<&Query> = sample.iter().map(|&(d, i)| &pool.per_doc[d][i]).collect();
    let lines: Vec<String> = sample
        .iter()
        .zip(&queries)
        .map(|(&(d, _), q)| format!("EST {} {}", docs[d].name, q.text))
        .collect();
    // The rows of one request run back to back, so every row sees the
    // same moment of the system (whether the pool's workers are awake
    // matters most); the service rows share one stack, whose caches the
    // warm-up pass has filled for all of them alike.
    let plans = PlanCache::new(config.plan_cache_shards, config.plan_cache_capacity);
    let core = catalog_of(docs);
    let snapshots: Vec<_> = docs
        .iter()
        .map(|d| core.snapshot(d.name).expect("just inserted"))
        .collect();
    let shared = stack(docs, true);
    let service_off = stack(docs, false);
    let mut conn = tcp_stack(shared.clone())?;
    for pass in 0..2 {
        let mut warm_up = Tracer::new(Instant::now());
        let tracer: &mut Tracer = if pass == 0 {
            &mut warm_up
        } else {
            &mut *tracer
        };
        for (k, query) in queries.iter().enumerate() {
            let (d, text, id) = (sample[k].0, query.text.as_str(), k as u64);
            let root_start = Instant::now();
            let root = tracer.record("replay.request", root_start, root_start, None, id);
            let _ = timed(tracer, "xpathkit.parse", root, id, || {
                QueryPlan::parse(text)
            });
            let plan = timed(tracer, "plan_cache.lookup", root, id, || {
                plans.get_or_parse(text)
            })
            .map_err(|e| format!("lookup '{text}': {e}"))?;
            let warm = timed(tracer, "core.estimate_warm", root, id, || {
                snapshots[d].estimate_plan(&plan)
            });
            let served = timed(tracer, "service.estimate", root, id, || {
                shared.estimate(docs[d].name, text)
            });
            let off = timed(tracer, "service.estimate_obs_off", root, id, || {
                service_off.estimate(docs[d].name, text)
            });
            let handled = timed(tracer, "protocol.handle_line", root, id, || {
                handle_line(&shared, &lines[k], &options)
            });
            let reply = timed(tracer, "server.rtt", root, id, || conn.request(&lines[k]))
                .map_err(|e| format!("in-process round trip: {e}"))?;
            tracer.finish(root, Instant::now());
            if pass == 1 {
                for v in [Ok(warm), served, off] {
                    let v = v.map_err(|e| format!("Service::estimate: {e}"))?;
                    check_all(tally, &[v], &[query]);
                }
                tally.check_est(handled.text().unwrap_or("<silent>"), query);
                tally.check_est(&reply, query);
            }
        }
    }
    drop(service_off);

    // Cold estimates: each on a fresh snapshot whose effective threshold
    // is already resolved (by one other query), so the timed call pays
    // compile + stream only.
    let mut cold_synopses: Vec<XseedSynopsis> = docs.iter().map(|d| d.synopsis.clone()).collect();
    let root_start = Instant::now();
    let root = tracer.record("replay.row", root_start, root_start, None, 0);
    for (n, &(d, i)) in sample.iter().take(COLD).enumerate() {
        let query = &pool.per_doc[d][i];
        let synopsis = &mut cold_synopses[d];
        let next = synopsis.epoch() + 1;
        synopsis.advance_epoch(next);
        let snapshot = synopsis.snapshot();
        let primer = &pool.per_doc[d][if i == 0 { 1 } else { 0 }];
        snapshot.estimate_plan(&QueryPlan::parse(&primer.text).expect("pooled query parses"));
        let plan = QueryPlan::parse(&query.text).expect("pooled query parses");
        let start = Instant::now();
        let cold = black_box(snapshot.estimate_plan(&plan));
        tracer.record(
            "core.estimate_cold",
            start,
            Instant::now(),
            Some(root),
            n as u64,
        );
        check_all(tally, &[cold], &[query]);
    }
    tracer.finish(root, Instant::now());

    // Batches: drawn as batch-cold draws them, from this workload's pool.
    // Each row
    // runs alone on a stack of its own (catalog, snapshots, caches) and
    // sees the same batches in the same order, so no row warms the caches
    // for the next; the first batches only warm them.
    let mut batches: Vec<(usize, Vec<usize>)> = Vec::with_capacity(WARM_BATCHES + BATCHES);
    let mut rng = batch_rng(seed);
    for b in 0..WARM_BATCHES + BATCHES {
        let d = b % docs.len();
        batches.push((d, draw_batch(&mut rng, pool, d)));
    }
    let batch_queries: Vec<Vec<&Query>> = batches
        .iter()
        .map(|(d, indices)| indices.iter().map(|&i| &pool.per_doc[*d][i]).collect())
        .collect();
    let batch_texts: Vec<Vec<&str>> = batch_queries
        .iter()
        .map(|qs| qs.iter().map(|q| q.text.as_str()).collect())
        .collect();
    let batch_lines: Vec<String> = batches
        .iter()
        .map(|(d, indices)| batch_line(docs, pool, *d, indices))
        .collect();
    let n = batches.len();
    let batch_plans = PlanCache::new(config.plan_cache_shards, config.plan_cache_capacity);
    let plan_sets = row_spans(tracer, "plan_cache.lookup_batch", WARM_BATCHES, n, |b| {
        batch_plans.get_or_parse_batch(&batch_texts[b])
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()
    .map_err(|e| format!("batch lookup: {e}"))?;
    let batch_core = catalog_of(docs);
    let batch_snapshots: Vec<_> = docs
        .iter()
        .map(|d| batch_core.snapshot(d.name).expect("just inserted"))
        .collect();
    let executed = row_spans(tracer, "batch.execute", WARM_BATCHES, n, |b| {
        execute_batch(
            &batch_snapshots[batches[b].0],
            &plan_sets[b],
            plan_sets[b].len(),
        )
    });
    for (got, queries) in executed.iter().zip(&batch_queries) {
        check_all(tally, got, queries);
    }
    let service = stack(docs, true);
    let served = row_spans(tracer, "service.estimate_batch", WARM_BATCHES, n, |b| {
        service.estimate_batch(docs[batches[b].0].name, &batch_texts[b])
    });
    drop(service);
    for (got, queries) in served.into_iter().zip(&batch_queries) {
        let got = got.map_err(|e| format!("Service::estimate_batch: {e}"))?;
        check_all(tally, &got, queries);
    }
    let protocol = stack(docs, true);
    let handled = row_spans(tracer, "protocol.handle_line_batch", WARM_BATCHES, n, |b| {
        handle_line(&protocol, &batch_lines[b], &options)
    });
    drop(protocol);
    for (response, queries) in handled.iter().zip(&batch_queries) {
        tally.check_batch(response.text().unwrap_or("<silent>"), queries);
    }
    let mut conn = tcp_stack(stack(docs, true))?;
    let replies = row_spans(tracer, "server.rtt_batch", WARM_BATCHES, n, |b| {
        conn.request(&batch_lines[b])
    });
    for (reply, queries) in replies.into_iter().zip(&batch_queries) {
        let reply = reply.map_err(|e| format!("in-process BATCH: {e}"))?;
        tally.check_batch(&reply, queries);
    }

    // Catalog writes: rebuilding xm as a reload does, then feedback with
    // true counts to db.
    let scratch = Catalog::new();
    let xm = &docs[XM];
    row_spans(tracer, "catalog.load_document", 0, LOADS, |_| {
        scratch.load_document(xm.name, &xm.document, xm.config.clone())
    });
    let mut fb_order: Vec<usize> = (0..pool.per_doc[DB].len()).collect();
    SplitMix::new(seed ^ 0xFEED).shuffle(&mut fb_order);
    fb_order.truncate(FEEDBACKS);
    let wanted: Vec<(usize, usize)> = fb_order.iter().map(|&i| (DB, i)).collect();
    let truth = ground_truth(docs, pool, &wanted);
    let service = stack(docs, true);
    for result in row_spans(tracer, "catalog.feedback", 0, wanted.len(), |n| {
        service.feedback(
            docs[DB].name,
            &pool.per_doc[DB][fb_order[n]].text,
            truth[n].1,
            None,
        )
    }) {
        result.map_err(|e| format!("Service::feedback: {e}"))?;
    }

    let per_query = |name: &str| p(tracer, name, 0.5) / BATCH_SIZE as f64;
    let lookup = p(tracer, "plan_cache.lookup", 0.5);
    let warm = p(tracer, "core.estimate_warm", 0.5);
    let service_p50 = p(tracer, "service.estimate", 0.5);
    let handle = p(tracer, "protocol.handle_line", 0.5);
    let rtt = p(tracer, "server.rtt", 0.5);
    let single_ledger = self_times(&[
        row("plan_cache", lookup),
        row("core", lookup + warm),
        row("service", service_p50),
        row("protocol", handle),
        row("server", rtt),
    ]);
    // Parsing is not a ledger row: a plan-cache hit skips it, so it is not
    // below the lookup on every request.
    let batch_ledger = self_times(&[
        row("plan_cache", per_query("plan_cache.lookup_batch")),
        row(
            "batch",
            per_query("plan_cache.lookup_batch") + per_query("batch.execute"),
        ),
        row("service", per_query("service.estimate_batch")),
        row("protocol", per_query("protocol.handle_line_batch")),
        row("server", per_query("server.rtt_batch")),
    ]);
    let handoff = service_p50 - lookup - warm;
    let metrics: Vec<Metric> = vec![
        metric(
            "xpathkit.parse_p50_ns",
            p(tracer, "xpathkit.parse", 0.5),
            "ns",
        ),
        metric("plan_cache.lookup_p50_ns", lookup, "ns"),
        metric(
            "plan_cache.batch_lookup_per_query_ns",
            per_query("plan_cache.lookup_batch"),
            "ns",
        ),
        metric("core.estimate_warm_p50_ns", warm, "ns"),
        metric(
            "core.estimate_warm_p99_ns",
            p(tracer, "core.estimate_warm", 0.99),
            "ns",
        ),
        metric(
            "core.estimate_cold_p50_ns",
            p(tracer, "core.estimate_cold", 0.5),
            "ns",
        ),
        metric("batch.per_query_ns", per_query("batch.execute"), "ns"),
        metric("service.estimate_p50_ns", service_p50, "ns"),
        metric(
            "service.estimate_p99_ns",
            p(tracer, "service.estimate", 0.99),
            "ns",
        ),
        metric("service.handoff_p50_ns", handoff, "ns"),
        metric("service.handoff_share", handoff / service_p50, "ratio"),
        metric(
            "service.batch_per_query_ns",
            per_query("service.estimate_batch"),
            "ns",
        ),
        metric(
            "service.obs_off_estimate_p50_ns",
            p(tracer, "service.estimate_obs_off", 0.5),
            "ns",
        ),
        metric("protocol.handle_line_p50_ns", handle, "ns"),
        metric("protocol.self_p50_ns", handle - service_p50, "ns"),
        metric(
            "protocol.batch_per_query_ns",
            per_query("protocol.handle_line_batch"),
            "ns",
        ),
        metric("server.rtt_p50_ns", rtt, "ns"),
        metric("server.rtt_p99_ns", p(tracer, "server.rtt", 0.99), "ns"),
        metric("server.self_p50_ns", rtt - handle, "ns"),
        metric(
            "server.batch_rtt_per_query_ns",
            per_query("server.rtt_batch"),
            "ns",
        ),
        metric(
            "catalog.load_p50_ms",
            p(tracer, "catalog.load_document", 0.5) / 1e6,
            "ms",
        ),
        metric(
            "catalog.feedback_p50_ns",
            p(tracer, "catalog.feedback", 0.5),
            "ns",
        ),
    ];
    Ok(Replay {
        metrics,
        single_ledger,
        batch_ledger,
    })
}

/// A catalog holding a fresh build of every document.
fn catalog_of(docs: &[Doc]) -> Arc<Catalog> {
    let catalog = Arc::new(Catalog::new());
    for doc in docs {
        catalog.insert(
            doc.name,
            XseedSynopsis::build(&doc.document, doc.config.clone()),
        );
    }
    catalog
}

fn row(layer: &str, cumulative_ns: f64) -> LedgerRow {
    LedgerRow {
        layer: layer.to_string(),
        cumulative_ns,
    }
}
