/// Quantile of an **ascending-sorted** slice by linear interpolation
/// (type-7 estimator, the R/NumPy default).
///
/// `q` is clamped to `[0, 1]`. Returns `None` for an empty slice.
pub fn quantile_of_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let h = q * (sorted.len() as f64 - 1.0);
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        return Some(sorted[lo]);
    }
    let frac = h - lo as f64;
    Some(sorted[lo] + frac * (sorted[hi] - sorted[lo]))
}

/// Element at ascending rank `k` (0-based, by [`f64::total_cmp`]) of the
/// multiset union of two ascending-sorted slices, without materializing
/// the merge. Equal values are interchangeable, so the result is
/// bit-identical to `merge(a, b)[k]`. `None` when `k` is out of range.
pub fn select_sorted_pair(a: &[f64], b: &[f64], k: usize) -> Option<f64> {
    if k >= a.len() + b.len() {
        return None;
    }
    let (a, b) = if a.len() > b.len() { (b, a) } else { (a, b) };
    // Binary search the number `i` of elements taken from `a`: the
    // smallest split where b's untaken prefix no longer precedes a[i].
    let mut lo = k.saturating_sub(b.len());
    let mut hi = k.min(a.len());
    while lo < hi {
        let i = (lo + hi) / 2;
        let j = k - i;
        if j > 0 && b[j - 1].total_cmp(&a[i]).is_gt() {
            lo = i + 1;
        } else {
            hi = i;
        }
    }
    smaller_head(a, b, lo, k - lo)
}

/// The smaller (by [`f64::total_cmp`]) of `a[i]` and `b[j]`, whichever
/// exist: the next value of a two-way merge walk. `None` once both slices
/// are consumed.
pub(crate) fn smaller_head(a: &[f64], b: &[f64], i: usize, j: usize) -> Option<f64> {
    match (a.get(i), b.get(j)) {
        (Some(&x), Some(&y)) => Some(if x.total_cmp(&y).is_le() { x } else { y }),
        (x, y) => x.or(y).copied(),
    }
}

/// Type-7 quantile of the union of two ascending-sorted slices —
/// bit-identical to `quantile_of_sorted(&merge(a, b), q)` with the merge
/// elided (two rank selections instead of an `O(n)` copy).
pub fn quantile_of_sorted_pair(a: &[f64], b: &[f64], q: f64) -> Option<f64> {
    let len = a.len() + b.len();
    if len == 0 {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let h = q * (len as f64 - 1.0);
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    let xlo = select_sorted_pair(a, b, lo)?;
    if lo == hi {
        return Some(xlo);
    }
    let frac = h - lo as f64;
    let xhi = select_sorted_pair(a, b, hi)?;
    Some(xlo + frac * (xhi - xlo))
}

/// Quantile of an unsorted slice, skipping NaNs. `None` when no present
/// values remain.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    let sorted = crate::sorted_present(xs);
    quantile_of_sorted(&sorted, q)
}

/// Median of an unsorted slice, skipping NaNs.
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_of_small_sample() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert_eq!(quantile(&xs, 0.5), Some(2.5));
        assert_eq!(quantile(&xs, 0.25), Some(1.75));
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn nan_is_skipped() {
        assert_eq!(median(&[1.0, f64::NAN, 3.0]), Some(2.0));
        assert_eq!(median(&[f64::NAN]), None);
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn pair_selection_matches_merge() {
        let cases: Vec<(Vec<f64>, Vec<f64>)> = vec![
            (vec![1.0, 3.0, 5.0], vec![2.0, 4.0, 6.0]),
            (vec![], vec![1.0, 2.0]),
            (vec![7.0], vec![]),
            (vec![1.0, 1.0, 1.0], vec![1.0, 2.0]),
            (vec![-3.0, 0.0, 0.0, 9.0], vec![-3.0, 12.0]),
            (vec![f64::NEG_INFINITY, 2.0], vec![2.0, f64::INFINITY]),
        ];
        for (a, b) in cases {
            let mut merged = [a.clone(), b.clone()].concat();
            merged.sort_by(f64::total_cmp);
            for (k, expected) in merged.iter().enumerate() {
                assert_eq!(
                    select_sorted_pair(&a, &b, k).map(f64::to_bits),
                    Some(expected.to_bits()),
                    "k={k} a={a:?} b={b:?}"
                );
            }
            assert_eq!(select_sorted_pair(&a, &b, merged.len()), None);
            for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
                assert_eq!(
                    quantile_of_sorted_pair(&a, &b, q).map(f64::to_bits),
                    quantile_of_sorted(&merged, q).map(f64::to_bits),
                    "q={q} a={a:?} b={b:?}"
                );
            }
        }
        assert_eq!(quantile_of_sorted_pair(&[], &[], 0.5), None);
    }

    #[test]
    fn out_of_range_rank_selects_nothing() {
        assert_eq!(select_sorted_pair(&[1.0, 2.0], &[3.0], 3), None);
        assert_eq!(select_sorted_pair(&[1.0, 2.0], &[3.0], usize::MAX), None);
        assert_eq!(select_sorted_pair(&[], &[], 0), None);
        assert_eq!(select_sorted_pair(&[1.0, 2.0], &[3.0], 2), Some(3.0));
    }

    #[test]
    fn q_is_clamped() {
        let xs = [1.0, 2.0];
        assert_eq!(quantile(&xs, -1.0), Some(1.0));
        assert_eq!(quantile(&xs, 2.0), Some(2.0));
    }

    #[test]
    fn single_element() {
        assert_eq!(quantile(&[7.0], 0.3), Some(7.0));
    }
}
