//! The batch executor: many queries, one snapshot pass.
//!
//! A batch is estimated by a single [`xseed_core::StreamingMatcher`] from
//! [`SynopsisSnapshot::matcher`], which has the snapshot's shared
//! [`xseed_core::FrontierMemo`] installed: the traveler's expansion is
//! recorded once per snapshot epoch and each query replays it, skipping
//! the per-node footprint arithmetic and recursion tracking of the cold
//! pass. A single `EST` is a batch of one and replays the same memo; a
//! longer batch adds only that the matcher's scratch buffers stay warm
//! across it. Batches homogeneous in query class get the
//! best locality (simple paths may even short-circuit through the HET),
//! but heterogeneity only costs the reuse, never correctness.
//!
//! Plans are estimated through the snapshot's compiled-query cache
//! ([`xseed_core::CompiledPlanCache`]): a plan seen before on this
//! snapshot skips label resolution entirely, so a plan-cache hit pays
//! neither the parse nor the compile on the hot path.
//!
//! Feedback also batches: a [`FeedbackItem`] slice routed through
//! [`crate::Catalog::record_feedback_batch`] (or
//! [`crate::Service::feedback_batch`]) applies every observation under
//! one entry update — one epoch bump and one snapshot publication for
//! the whole batch, with the maintenance policy evaluated once over the
//! batch's accumulated error mass.

use crate::metrics::{Obs, Stage};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xpathkit::QueryPlan;
use xseed_core::{Mode, Outcome, SynopsisSnapshot};

/// One observed cardinality in a feedback batch: the executed query (a
/// cached plan, so repeated feedback skips the parser) plus what the
/// execution engine actually saw. `base` is the cardinality of the same
/// path without predicates, when known — it lets branching feedback
/// derive an exact correlated selectivity (see
/// [`xseed_core::het::feedback::record_feedback`]).
#[derive(Debug, Clone)]
pub struct FeedbackItem {
    /// The executed query.
    pub query: Arc<QueryPlan>,
    /// The observed cardinality.
    pub actual: u64,
    /// Cardinality of the predicate-free base path, if known.
    pub base: Option<u64>,
}

/// Estimates every plan of `batch` over one snapshot pass, returning the
/// estimates in input order. Every plan replays the snapshot's frontier
/// memo, whatever the batch length. `_policy_len` is ignored; it stays
/// only so existing callers keep compiling.
pub fn execute_batch(
    snapshot: &SynopsisSnapshot,
    batch: &[Arc<QueryPlan>],
    _policy_len: usize,
) -> Vec<f64> {
    execute_batch_observed(snapshot, batch, Mode::Point, &None)
        .iter()
        .map(|outcome| outcome.estimate)
        .collect()
}

/// [`execute_batch`] in any [`Mode`], returning each plan's whole
/// [`Outcome`], with per-stage observability: when `obs` is present, each
/// plan's compilation (compiled-cache misses only, timed inside the
/// miss closure and reported in [`Outcome::compile_time`], so
/// the cache counters see exactly one lookup per estimate) is timed into
/// [`Stage::Compile`], and one `Instant` pair around the whole chunk
/// records `batch.len()` [`Stage::Estimate`] samples of the per-query
/// mean with the total compile time subtracted out, so the two stages
/// partition the work and the warm per-query hot path pays no clock
/// reads at all (see [`Obs::record_amortized`]).
pub(crate) fn execute_batch_observed(
    snapshot: &SynopsisSnapshot,
    batch: &[Arc<QueryPlan>],
    mode: Mode,
    obs: &Option<Arc<Obs>>,
) -> Vec<Outcome> {
    let mut matcher = snapshot.matcher();
    let mut estimate = |plan: &QueryPlan| matcher.estimate(plan.expr(), Some(plan.id()), mode);
    let Some(obs) = obs else {
        return batch.iter().map(|plan| estimate(plan)).collect();
    };
    let started = Instant::now();
    let mut compile_total = Duration::ZERO;
    let outcomes: Vec<Outcome> = batch
        .iter()
        .map(|plan| {
            let outcome = estimate(plan);
            if let Some(compile_time) = outcome.compile_time {
                obs.record(Stage::Compile, compile_time);
                compile_total += compile_time;
            }
            outcome
        })
        .collect();
    let estimating = started.elapsed().saturating_sub(compile_total);
    obs.record_amortized(Stage::Estimate, estimating, batch.len() as u64);
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use xseed_core::{XseedConfig, XseedSynopsis};

    #[test]
    fn batch_matches_one_shot_estimates() {
        let synopsis =
            XseedSynopsis::build_from_xml(xmlkit::samples::FIGURE2_XML, XseedConfig::default())
                .unwrap();
        let snapshot = synopsis.snapshot();
        let plans: Vec<Arc<QueryPlan>> = ["/a/c/s", "//s//p", "/a/c/s[t]/p", "//*", "/a/zzz"]
            .iter()
            .map(|q| Arc::new(QueryPlan::parse(q).unwrap()))
            .collect();
        let batch = execute_batch(&snapshot, &plans, plans.len());
        for (plan, got) in plans.iter().zip(&batch) {
            let expected = synopsis.estimate(plan.expr());
            assert!((expected - got).abs() < 1e-9, "{}", plan.text());
        }
        // Single-plan batches work too.
        let single = execute_batch(&snapshot, &plans[..1], 1);
        assert!((single[0] - batch[0]).abs() < 1e-12);
    }
}
