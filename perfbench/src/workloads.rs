//! The two workloads, each a closed loop on one connection to the
//! spawned server.

use crate::client::LineConn;
use crate::host::steal_ticks;
use crate::oracle::{Doc, Pool, Query, SplitMix};
use crate::scrape::{parse_stage_metrics, parse_stats_json, ServerStats, StageSummary};
use crate::spans::Tracer;
use std::collections::BTreeMap;
use std::io;
use std::time::{Duration, Instant};

/// Queries per `BATCH` request.
pub const BATCH_SIZE: usize = 64;
/// Batches `batch-cold` sends before it starts measuring.
const WARM_BATCHES: usize = 20;
/// Length of the windows the measured phase is cut into, in seconds.
pub const WINDOW_S: f64 = 1.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EstHot,
    BatchCold,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "est-hot" => Some(Workload::EstHot),
            "batch-cold" => Some(Workload::BatchCold),
            _ => None,
        }
    }
}

/// Counters read from the server through `STATS json` and `METRICS`.
#[derive(Debug)]
pub struct Scrape {
    pub stats: ServerStats,
    pub stages: BTreeMap<String, StageSummary>,
}

/// Reads the server's counters through the public verbs.
pub fn scrape(conn: &mut LineConn) -> Result<Scrape, String> {
    let stats = conn
        .request("STATS json")
        .map_err(|e| format!("STATS json: {e}"))?;
    let stats = parse_stats_json(&stats)?;
    let metrics = conn
        .request_block("METRICS")
        .map_err(|e| format!("METRICS: {e}"))?;
    Ok(Scrape {
        stats,
        stages: parse_stage_metrics(&metrics),
    })
}

/// One measured read request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// When it was sent, in seconds from the start of the measured phase.
    pub at_s: f64,
    /// Round trip from send to reply, in nanoseconds.
    pub rtt_ns: f64,
    /// Estimates in the reply that matched the oracle.
    pub ok: u64,
}

/// Everything one workload run observed.
#[derive(Default)]
pub struct Tally {
    /// The measured read requests, in order.
    pub samples: Vec<Sample>,
    /// Traced run only: round trips in traced and untraced windows.
    pub traced_rtts_ns: Vec<f64>,
    pub untraced_rtts_ns: Vec<f64>,
    /// Length of the measured phase, in seconds.
    pub measured_s: f64,
    /// Window edges of the measured phase as `(at_s, steal ticks)`: its
    /// first request, the first request of each later [`WINDOW_S`], and
    /// its end. A sample belongs to the window its send time falls in.
    pub marks: Vec<(f64, u64)>,
    /// Requests sent (every verb, warm-up included) and those that got
    /// `ERR`/`OVERLOADED`, no reply by the deadline, or a wrong value.
    pub attempted: u64,
    pub failed: u64,
    /// Replies whose value differs from the oracle.
    pub mismatches: u64,
    /// Server counters just before and just after the measured phase.
    pub before: Option<Scrape>,
    pub after: Option<Scrape>,
}

impl Tally {
    /// Checks an `EST` reply; returns whether it carried the oracle's value.
    pub fn check_est(&mut self, reply: &str, query: &Query) -> bool {
        self.attempted += 1;
        match reply.strip_prefix("OK ") {
            Some(value) if value == query.expected => true,
            Some(_) => {
                self.mismatch(reply, &query.text, &query.expected);
                false
            }
            None => {
                self.failure(reply, &query.text);
                false
            }
        }
    }

    /// Checks a `BATCH` reply; returns how many estimates matched.
    pub fn check_batch(&mut self, reply: &str, queries: &[&Query]) -> u64 {
        self.attempted += 1;
        let Some(body) = reply.strip_prefix("OK ") else {
            self.failure(reply, "BATCH");
            return 0;
        };
        let mut tokens = body.split(' ');
        if tokens.next() != Some(&format!("n={}", queries.len())) {
            self.failure(reply, "BATCH (wrong count)");
            return 0;
        }
        let mut ok = 0;
        let mut bad = false;
        for query in queries {
            match tokens.next() {
                Some(value) if value == query.expected => ok += 1,
                value => {
                    if !bad {
                        self.mismatch(value.unwrap_or("<missing>"), &query.text, &query.expected);
                    }
                    bad = true;
                }
            }
        }
        ok
    }

    /// Counts a request that got no reply by the deadline.
    pub fn no_reply(&mut self, what: &str) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("perfbench: no reply by the deadline to {what}");
    }

    fn mismatch(&mut self, got: &str, query: &str, expected: &str) {
        if self.mismatches < 5 {
            eprintln!("perfbench: MISMATCH on '{query}': got '{got}', oracle says '{expected}'");
        }
        self.mismatches += 1;
        self.failed += 1;
    }

    fn failure(&mut self, reply: &str, what: &str) {
        if self.failed < 5 {
            eprintln!("perfbench: request '{what}' failed: {reply}");
        }
        self.failed += 1;
    }

    /// Records one measured read request: sent (or due) at `start`,
    /// answered at `end`, `since` into the measured phase, with `ok`
    /// correct estimates, and opens a window when `since` has reached the
    /// next one. In a traced run it also records a client span,
    /// alternating one-second traced and untraced windows.
    fn record(
        &mut self,
        start: Instant,
        end: Instant,
        since: Duration,
        ok: u64,
        tracer: &mut Option<Tracer>,
    ) {
        let rtt_ns = end.saturating_duration_since(start).as_nanos() as f64;
        let id = self.samples.len() as u64;
        let at_s = since.as_secs_f64();
        self.samples.push(Sample { at_s, rtt_ns, ok });
        if at_s >= self.marks.len() as f64 * WINDOW_S {
            self.marks.push((at_s, steal_ticks()));
        }
        if let Some(tracer) = tracer {
            if since.as_secs().is_multiple_of(2) {
                tracer.record("client.request", start, end, None, id);
                self.traced_rtts_ns.push(rtt_ns);
            } else {
                self.untraced_rtts_ns.push(rtt_ns);
            }
        }
    }

    /// Ends the measured phase that began at `start`.
    fn finish(&mut self, start: Instant) {
        self.measured_s = start.elapsed().as_secs_f64();
        self.marks.push((self.measured_s, steal_ticks()));
    }
}

/// The `EST` request line of pool query `(d, i)`.
fn est_line(docs: &[Doc], pool: &Pool, (d, i): (usize, usize)) -> String {
    format!("EST {} {}", docs[d].name, pool.per_doc[d][i].text)
}

/// Draws one batch of pool indices of document `d`.
pub fn draw_batch(rng: &mut SplitMix, pool: &Pool, d: usize) -> Vec<usize> {
    (0..BATCH_SIZE)
        .map(|_| rng.below(pool.per_doc[d].len()))
        .collect()
}

/// The `BATCH` request line for `indices` of document `d`.
pub fn batch_line(docs: &[Doc], pool: &Pool, d: usize, indices: &[usize]) -> String {
    let texts: Vec<&str> = indices
        .iter()
        .map(|&i| pool.per_doc[d][i].text.as_str())
        .collect();
    format!("BATCH {} {}", docs[d].name, texts.join(" ; "))
}

/// The seeded generator `batch-cold` draws its batches from.
pub fn batch_rng(seed: u64) -> SplitMix {
    SplitMix::new(seed ^ 0xBA7C_0000)
}

/// The inputs every workload shares.
pub struct Ctx<'a> {
    pub docs: &'a [Doc],
    pub pool: &'a Pool,
    pub seed: u64,
    pub seconds: Duration,
}

/// `est-hot`: closed loop, one connection, one `EST` per round trip,
/// cycling the hot pool in seeded order, the client spinning on its
/// socket. One untimed pass warms every cache first.
pub fn est_hot(
    ctx: &Ctx,
    conn: &mut LineConn,
    tally: &mut Tally,
    tracer: &mut Option<Tracer>,
) -> Result<(), String> {
    let order = ctx.pool.shuffled(ctx.seed);
    let lines: Vec<String> = order
        .iter()
        .map(|&q| est_line(ctx.docs, ctx.pool, q))
        .collect();
    let io = |e: io::Error| format!("est-hot: {e}");
    conn.set_spin(true).map_err(io)?;
    for (k, &(d, i)) in order.iter().enumerate() {
        let reply = conn.request(&lines[k]).map_err(io)?;
        tally.check_est(&reply, &ctx.pool.per_doc[d][i]);
    }
    tally.before = Some(scrape(conn)?);
    let start = Instant::now();
    let end = start + ctx.seconds;
    let mut k = 0usize;
    loop {
        let t0 = Instant::now();
        if t0 >= end {
            break;
        }
        let (d, i) = order[k % order.len()];
        conn.send(&lines[k % order.len()]).map_err(io)?;
        let reply = match conn.recv() {
            Ok(reply) => reply,
            Err(e) => {
                tally.no_reply(&lines[k % order.len()]);
                return Err(io(e));
            }
        };
        let t1 = Instant::now();
        let ok = tally.check_est(&reply, &ctx.pool.per_doc[d][i]) as u64;
        tally.record(t0, t1, t0 - start, ok, tracer);
        k += 1;
    }
    tally.finish(start);
    tally.after = Some(scrape(conn)?);
    Ok(())
}

/// `batch-cold`: closed loop on one connection, sending `BATCH` of 64
/// queries drawn from the cold pool, cycling the documents. One
/// connection because the event loop answers a `BATCH` synchronously: a
/// second connection only queues behind the first, doubling the round
/// trip without adding throughput, and couples the two tails.
pub fn batch_cold(
    ctx: &Ctx,
    conn: &mut LineConn,
    tally: &mut Tally,
    tracer: &mut Option<Tracer>,
) -> Result<(), String> {
    let mut rng = batch_rng(ctx.seed);
    let io = |e: io::Error| format!("batch-cold: {e}");
    let mut b = 0usize;
    let mut next = |rng: &mut SplitMix| {
        let d = b % ctx.docs.len();
        b += 1;
        let indices = draw_batch(rng, ctx.pool, d);
        let line = batch_line(ctx.docs, ctx.pool, d, &indices);
        let queries: Vec<&Query> = indices.iter().map(|&i| &ctx.pool.per_doc[d][i]).collect();
        (line, queries)
    };
    for _ in 0..WARM_BATCHES {
        let (line, queries) = next(&mut rng);
        let reply = conn.request(&line).map_err(io)?;
        tally.check_batch(&reply, &queries);
    }
    tally.before = Some(scrape(conn)?);
    let start = Instant::now();
    let end = start + ctx.seconds;
    loop {
        let (line, queries) = next(&mut rng);
        let t0 = Instant::now();
        if t0 >= end {
            break;
        }
        conn.send(&line).map_err(io)?;
        let reply = match conn.recv() {
            Ok(reply) => reply,
            Err(e) => {
                tally.no_reply("BATCH");
                return Err(io(e));
            }
        };
        let t1 = Instant::now();
        let ok = tally.check_batch(&reply, &queries);
        tally.record(t0, t1, t0 - start, ok, tracer);
    }
    tally.finish(start);
    tally.after = Some(scrape(conn)?);
    Ok(())
}
