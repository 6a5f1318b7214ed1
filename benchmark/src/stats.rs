//! Pure statistics helpers: percentiles with a sample-support rule, medians,
//! open-loop due times, backlog slopes and span self times.

/// Samples that must lie beyond a reported percentile for it to count as
/// supported by the sample (the ten-beyond rule).
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q ∈ (0, 1]` of `values` (unsorted), `None` when
/// `values` is empty.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), q)])
}

/// Zero-based index of the nearest-rank `q`-percentile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    let r = (q * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] of them above the
/// nearest-rank `q`-percentile, so that percentile is reportable.
pub fn supports(n: usize, q: f64) -> bool {
    n > 0 && n - (rank(n, q) + 1) >= MIN_BEYOND
}

/// The median (mean of the two middle values for an even count), `None`
/// when `values` is empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 0 {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// Seconds after a rung starts at which its `k`-th row (0-based) is due,
/// when rows are offered at `rate` rows per second.
pub fn due_offset_s(k: usize, rate: f64) -> f64 {
    k as f64 / rate
}

/// Open-loop latency of a result: from when its last input was *due*
/// (not when it was actually sent) to when the result arrived, so a stall
/// of the sender counts against the system.
pub fn due_latency_s(due_s: f64, received_s: f64) -> f64 {
    received_s - due_s
}

/// Least-squares slope of `(t, y)` samples, `0` when fewer than two
/// samples or no spread in `t`.
pub fn slope(samples: &[(f64, f64)]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let n = samples.len() as f64;
    let mt = samples.iter().map(|s| s.0).sum::<f64>() / n;
    let my = samples.iter().map(|s| s.1).sum::<f64>() / n;
    let (mut sty, mut stt) = (0.0, 0.0);
    for &(t, y) in samples {
        sty += (t - mt) * (y - my);
        stt += (t - mt) * (t - mt);
    }
    if stt > 0.0 {
        sty / stt
    } else {
        0.0
    }
}

/// Splits an open-loop sender's lateness into the part the system forced
/// on it and the part the sender caused itself.
///
/// Row `k` was due at `due[k]`, and the sender called the system from
/// `start[k]` to `end[k]` (all in seconds). A sender that only ever waited
/// for the system would have started row `k` at
/// `virt[k] = max(due[k], virt[k−1] + (end[k−1] − start[k−1]))`; the
/// actual start's excess over that is the sender's own lateness. Returns
/// the largest own lateness over all rows, in seconds.
pub fn own_lateness_s(due: &[f64], start: &[f64], end: &[f64]) -> f64 {
    let mut worst = 0.0f64;
    let mut virt_free = f64::NEG_INFINITY;
    for k in 0..due.len() {
        let virt = due[k].max(virt_free);
        worst = worst.max(start[k] - virt);
        virt_free = virt + (end[k] - start[k]);
    }
    worst
}

/// The sender's own time per row while it ran behind: the mean gap between
/// the system returning from row `k − 1` and the sender starting row `k`,
/// over rows that were already due when the previous call returned (so the
/// sender had no reason to wait). Multiplied by the offered rate, it is
/// the share of the schedule the sender itself consumes. `0` when the
/// sender never ran behind.
pub fn own_gap_per_row_s(due: &[f64], start: &[f64], end: &[f64]) -> f64 {
    let (mut sum, mut count) = (0.0, 0usize);
    for k in 1..due.len() {
        if end[k - 1] >= due[k] {
            sum += start[k] - end[k - 1];
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// Self time of every span: its duration minus the durations of its
/// direct children. `spans[i]` is `(start, end, parent index)`; children
/// of one parent must not overlap (a single-threaded tracer's spans never
/// do).
pub fn self_times(spans: &[(u64, u64, Option<usize>)]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.1.saturating_sub(s.0)).collect();
    for s in spans {
        if let Some(p) = s.2 {
            own[p] = own[p].saturating_sub(s.1.saturating_sub(s.0));
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 1.0), Some(3.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn ten_beyond_rule_needs_a_hundred_samples_for_p90() {
        assert!(!supports(99, 0.9));
        assert!(supports(100, 0.9));
        assert!(!supports(999, 0.99));
        assert!(supports(1000, 0.99));
        assert!(supports(20, 0.5));
        assert!(!supports(0, 0.5));
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn latency_runs_from_the_due_time() {
        // Row 99 of a 1000 rows/s rung is due 99 ms in; a result received
        // at 120 ms is 21 ms fresh even if the row went out late.
        let due = due_offset_s(99, 1000.0);
        assert!((due - 0.099).abs() < 1e-12);
        assert!((due_latency_s(due, 0.120) - 0.021).abs() < 1e-12);
    }

    #[test]
    fn slope_separates_growth_from_a_flat_backlog() {
        let growing: Vec<(f64, f64)> = (0..50).map(|i| (i as f64, 3.0 * i as f64 + 7.0)).collect();
        assert!((slope(&growing) - 3.0).abs() < 1e-9);
        let flat: Vec<(f64, f64)> = (0..50)
            .map(|i| (i as f64, if i % 2 == 0 { 10.0 } else { 12.0 }))
            .collect();
        assert!(slope(&flat).abs() < 0.01);
        assert_eq!(slope(&[(1.0, 5.0)]), 0.0);
    }

    #[test]
    fn own_lateness_excludes_time_blocked_in_the_system() {
        // Row 0 blocks for 5 s inside the system; row 1, due at 1 s, can
        // only start at 5 s and is not the sender's fault.
        let due = [0.0, 1.0, 2.0];
        let start = [0.0, 5.0, 5.0];
        let end = [5.0, 5.0, 5.0];
        assert!(own_lateness_s(&due, &start, &end).abs() < 1e-12);
        // The sender itself dozes 2 s before row 2.
        let start = [0.0, 5.0, 7.0];
        let end = [5.0, 5.0, 7.0];
        assert!((own_lateness_s(&due, &start, &end) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn own_gap_counts_only_rows_sent_while_behind() {
        // Rows 1 and 2 were due before the previous call returned; the
        // sender took 1 s and 3 s to issue them. Row 3 was not yet due.
        let due = [0.0, 1.0, 2.0, 50.0];
        let start = [0.0, 11.0, 15.0, 50.0];
        let end = [10.0, 12.0, 16.0, 51.0];
        assert!((own_gap_per_row_s(&due, &start, &end) - 2.0).abs() < 1e-12);
        assert_eq!(own_gap_per_row_s(&[0.0], &[0.0], &[1.0]), 0.0);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0, 100) ⊃ a [10, 40) ⊃ b [20, 30); root ⊃ c [50, 60)
        let spans = [
            (0, 100, None),
            (10, 40, Some(0)),
            (20, 30, Some(1)),
            (50, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
    }
}
