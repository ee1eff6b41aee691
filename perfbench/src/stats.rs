//! The benchmark's own arithmetic: exact quantiles, the q-error with its
//! zero guard, the choice of a run's quiet windows, and the ledger that
//! turns cumulative per-layer timings into self times.

/// The exact `q`-quantile of an ascending slice by the nearest-rank rule:
/// the smallest sample with at least `q·n` samples at or below it. It is
/// always an observed value, never an interpolation or a bucket edge.
/// `None` for an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sorts `values` and returns their exact `q`-quantile (see
/// [`quantile_sorted`]).
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// The median (nearest-rank 0.5-quantile).
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Samples strictly above the nearest-rank `q`-quantile position of `n`
/// samples: the count a tail percentile rests on.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    n - rank.min(n)
}

/// Whether the `q`-quantile of `n` samples may be reported: at least ten
/// samples must lie beyond it, so one outlier cannot set it.
pub fn tail_is_reportable(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= 10
}

/// The q-error `max(est/act, act/est)` with both sides clamped to at
/// least 1, so an estimate or a true count of 0 gives a finite error (the
/// guard the repository's accuracy suite and online q-error tracking use).
pub fn q_error(estimate: f64, actual: u64) -> f64 {
    let est = estimate.max(1.0);
    let act = (actual as f64).max(1.0);
    (est / act).max(act / est)
}

/// The geometric mean of positive values (0 for none).
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The quiet windows of a run, given each window's steal time: every
/// window that lost no more than the `ceil(share·n)`-th least-stolen one,
/// in order. With no steal anywhere that is every window; under
/// contention it is at least that share of the run, the least disturbed.
pub fn quietest(steal: &[u64], share: f64) -> Vec<usize> {
    let mut sorted = steal.to_vec();
    sorted.sort_unstable();
    let k = ((share.clamp(0.0, 1.0) * steal.len() as f64).ceil() as usize).max(1);
    let Some(&limit) = sorted.get(k.min(sorted.len()) - 1) else {
        return Vec::new();
    };
    (0..steal.len()).filter(|&i| steal[i] <= limit).collect()
}

/// One row of a latency ledger: a layer and the cumulative time of a call
/// that runs that layer and every layer below it.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerRow {
    /// Layer (module) name.
    pub layer: String,
    /// Cumulative time of the call, in nanoseconds.
    pub cumulative_ns: f64,
}

/// Self time per layer: each row's cumulative time minus the row below
/// it. The self times sum to the top row's cumulative time by
/// construction. A negative self time means the layer costs less than the
/// measurement noise between the two rows.
pub fn self_times(rows: &[LedgerRow]) -> Vec<(String, f64)> {
    let mut below = 0.0;
    rows.iter()
        .map(|row| {
            let own = row.cumulative_ns - below;
            below = row.cumulative_ns;
            (row.layer.clone(), own)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_are_observed_values() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), Some(5.0));
        assert_eq!(quantile_sorted(&v, 0.9), Some(9.0));
        assert_eq!(quantile_sorted(&v, 0.91), Some(10.0));
        assert_eq!(quantile_sorted(&v, 0.0), Some(1.0));
        assert_eq!(quantile_sorted(&v, 1.0), Some(10.0));
        assert_eq!(quantile_sorted(&[], 0.5), None);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
        assert_eq!(median(&[7.5]), Some(7.5));
    }

    #[test]
    fn p99_of_a_thousand_is_the_990th_value() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.99), Some(990.0));
        assert_eq!(quantile_sorted(&v, 0.999), Some(999.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert!(tail_is_reportable(1000, 0.99));
        assert!(!tail_is_reportable(999, 0.99));
        assert!(tail_is_reportable(100, 0.9));
        assert!(!tail_is_reportable(99, 0.9));
        assert!(!tail_is_reportable(0, 0.5));
        assert_eq!(samples_beyond(5, 1.0), 0);
    }

    #[test]
    fn q_error_is_symmetric_and_guards_zeros() {
        assert_eq!(q_error(10.0, 10), 1.0);
        assert_eq!(q_error(20.0, 10), 2.0);
        assert_eq!(q_error(5.0, 10), 2.0);
        // Zero actual or zero estimate: both sides clamp to 1.
        assert_eq!(q_error(0.0, 0), 1.0);
        assert_eq!(q_error(4.0, 0), 4.0);
        assert_eq!(q_error(0.0, 8), 8.0);
        assert_eq!(q_error(0.25, 1), 1.0);
        assert!(q_error(1e-300, 3).is_finite());
    }

    #[test]
    fn quietest_keeps_every_window_as_quiet_as_the_share_needs() {
        // A quiet run: every window counts.
        assert_eq!(quietest(&[0, 0, 0, 0], 0.25), vec![0, 1, 2, 3]);
        // The least-stolen quarter of eight is two windows; ties join.
        assert_eq!(quietest(&[9, 0, 3, 7, 1, 8, 5, 6], 0.25), vec![1, 4]);
        assert_eq!(quietest(&[9, 1, 3, 7, 1, 8, 5, 1], 0.25), vec![1, 4, 7]);
        // At least one window, in run order.
        assert_eq!(quietest(&[4, 2, 6], 0.0), vec![1]);
        assert_eq!(quietest(&[4, 2, 6], 1.0), vec![0, 1, 2]);
        assert!(quietest(&[], 0.25).is_empty());
    }

    #[test]
    fn ledger_self_times_telescope_to_the_top_row() {
        let rows = [
            ("plan_cache", 300.0),
            ("core", 3_300.0),
            ("service", 25_000.0),
        ]
        .map(|(layer, cumulative_ns)| LedgerRow {
            layer: layer.to_string(),
            cumulative_ns,
        });
        let own = self_times(&rows);
        assert_eq!(
            own,
            vec![
                ("plan_cache".to_string(), 300.0),
                ("core".to_string(), 3_000.0),
                ("service".to_string(), 21_700.0),
            ]
        );
        let sum: f64 = own.iter().map(|(_, ns)| ns).sum();
        assert_eq!(sum, 25_000.0);
        assert!(self_times(&[]).is_empty());
    }

    #[test]
    fn ledger_keeps_negative_self_time_visible() {
        let rows = [("a", 100.0), ("b", 90.0)].map(|(layer, cumulative_ns)| LedgerRow {
            layer: layer.to_string(),
            cumulative_ns,
        });
        assert_eq!(self_times(&rows)[1].1, -10.0);
    }
}
