/// Quantile of an **ascending-sorted** slice by linear interpolation
/// (type-7 estimator, the R/NumPy default).
///
/// `q` is clamped to `[0, 1]`. Returns `None` for an empty slice.
pub fn quantile_of_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    quantile_of_ranked(sorted, q)
}

/// An ascending (by [`f64::total_cmp`]), NaN-free multiset of values read
/// only by rank: one axis's input to the grid cover rule
/// ([`crate::GridSpec::from_ranked_columns_robust`]). A sorted slice is
/// one; [`EditedUnion`] reads a cached column together with an edited copy
/// of it without merging the two.
pub trait RankedColumn {
    /// Number of values.
    fn len(&self) -> usize;

    /// The value at ascending rank `k` (0-based); `None` when `k ≥ len`.
    fn select(&self, k: usize) -> Option<f64>;

    /// Whether the multiset is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl RankedColumn for [f64] {
    fn len(&self) -> usize {
        <[f64]>::len(self)
    }

    fn select(&self, k: usize) -> Option<f64> {
        self.get(k).copied()
    }
}

impl<C: RankedColumn + ?Sized> RankedColumn for &C {
    fn len(&self) -> usize {
        (**self).len()
    }

    fn select(&self, k: usize) -> Option<f64> {
        (**self).select(k)
    }
}

/// The multiset `base ⊎ (base − removed + added)`: a sorted column
/// together with a copy of it in which the values `removed` were replaced
/// by the values `added` — a cached dirty column and its cleaned
/// counterpart, read by rank without materializing either the edited copy
/// or the union.
///
/// The number of values `≤ x` is `2·c_base(x) − c_removed(x) +
/// c_added(x)`, so one selection costs `O(log n · (log n + log k))` for a
/// base of `n` and `k` edits, instead of the `O(n)` merge. Every selection
/// returns the very element `merge(base, base − removed + added)[k]` holds
/// under [`f64::total_cmp`] (`-0.0` and `0.0` are distinct values there),
/// so nothing derived from it can move a bit.
#[derive(Debug, Clone, Copy)]
pub struct EditedUnion<'a> {
    base: &'a [f64],
    removed: &'a [f64],
    added: &'a [f64],
}

impl<'a> EditedUnion<'a> {
    /// All three slices ascend by [`f64::total_cmp`] and hold no NaN;
    /// `removed` is a sub-multiset of `base` (each removed value was read
    /// from a base row).
    pub fn new(base: &'a [f64], removed: &'a [f64], added: &'a [f64]) -> Self {
        EditedUnion {
            base,
            removed,
            added,
        }
    }

    /// The number of union values `≤ x` under [`f64::total_cmp`].
    fn count_le(&self, x: f64) -> usize {
        (2 * count_le(self.base, x) + count_le(self.added, x))
            .saturating_sub(count_le(self.removed, x))
    }

    /// The smallest value of `side` with more than `k` union values at or
    /// below it.
    fn first_past(&self, side: &[f64], k: usize) -> Option<f64> {
        side.get(side.partition_point(|&x| self.count_le(x) <= k))
            .copied()
    }
}

/// The number of values of an ascending slice that are `≤ x` under
/// [`f64::total_cmp`].
fn count_le(sorted: &[f64], x: f64) -> usize {
    sorted.partition_point(|y| y.total_cmp(&x).is_le())
}

impl RankedColumn for EditedUnion<'_> {
    fn len(&self) -> usize {
        (2 * self.base.len() + self.added.len()).saturating_sub(self.removed.len())
    }

    fn select(&self, k: usize) -> Option<f64> {
        if k >= self.len() {
            return None;
        }
        // The rank-`k` value is the smallest union value whose count
        // exceeds `k`. Every union value lies in `base` or `added`, and a
        // base value is always in the union (`removed ⊆ base`), so the
        // answer is the smaller of the two sides' first such values.
        match (
            self.first_past(self.base, k),
            self.first_past(self.added, k),
        ) {
            (Some(x), Some(y)) => Some(if x.total_cmp(&y).is_le() { x } else { y }),
            (x, y) => x.or(y),
        }
    }
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

/// Type-7 quantile of a [`RankedColumn`]: two rank selections, and for a
/// sorted slice bit-identical to [`quantile_of_sorted`]. `q` is clamped to
/// `[0, 1]`; `None` for an empty column.
pub fn quantile_of_ranked<C: RankedColumn + ?Sized>(column: &C, q: f64) -> Option<f64> {
    let len = column.len();
    if len == 0 {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let h = q * (len as f64 - 1.0);
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    let xlo = column.select(lo)?;
    if lo == hi {
        return Some(xlo);
    }
    let frac = h - lo as f64;
    let xhi = column.select(hi)?;
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

    /// `merge(base, base − removed + added)`, materialized.
    fn merged_union(base: &[f64], removed: &[f64], added: &[f64]) -> Vec<f64> {
        let mut edited = base.to_vec();
        for r in removed {
            let at = edited
                .iter()
                .position(|x| x.to_bits() == r.to_bits())
                .unwrap();
            edited.remove(at);
        }
        edited.extend_from_slice(added);
        let mut merged = [base, &edited].concat();
        merged.sort_by(f64::total_cmp);
        merged
    }

    #[test]
    fn pair_selection_matches_merge() {
        // (base, removed ⊆ base, added), each ascending by `total_cmp`.
        let cases: Vec<(Vec<f64>, Vec<f64>, Vec<f64>)> = vec![
            (vec![1.0, 3.0, 5.0], vec![3.0], vec![2.0, 4.0, 6.0]),
            (vec![], vec![], vec![1.0, 2.0]),
            (vec![7.0], vec![], vec![]),
            (vec![7.0], vec![7.0], vec![]),
            (vec![1.0, 1.0, 1.0], vec![1.0, 1.0], vec![1.0, 2.0]),
            (
                vec![-3.0, -0.0, 0.0, 9.0],
                vec![-0.0],
                vec![-3.0, 0.0, 12.0],
            ),
            (vec![-0.0, 0.0], vec![0.0], vec![-0.0]),
            (
                vec![f64::NEG_INFINITY, -1e300, 2.0],
                vec![-1e300],
                vec![2.0, 1e300, f64::INFINITY],
            ),
            (vec![2.0, 4.0], vec![2.0, 4.0], vec![]),
        ];
        for (base, removed, added) in cases {
            let merged = merged_union(&base, &removed, &added);
            let union = EditedUnion::new(&base, &removed, &added);
            assert_eq!(union.len(), merged.len());
            for (k, expected) in merged.iter().enumerate() {
                assert_eq!(
                    union.select(k).map(f64::to_bits),
                    Some(expected.to_bits()),
                    "k={k} base={base:?} removed={removed:?} added={added:?}"
                );
            }
            assert_eq!(union.select(merged.len()), None);
            for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
                assert_eq!(
                    quantile_of_ranked(&union, q).map(f64::to_bits),
                    quantile_of_sorted(&merged, q).map(f64::to_bits),
                    "q={q} base={base:?} removed={removed:?} added={added:?}"
                );
            }
        }
        assert_eq!(
            quantile_of_ranked(&EditedUnion::new(&[], &[], &[]), 0.5),
            None
        );
    }

    #[test]
    fn out_of_range_rank_selects_nothing() {
        let union = EditedUnion::new(&[1.0, 2.0], &[1.0], &[3.0]);
        assert_eq!(union.len(), 4);
        assert_eq!(union.select(4), None);
        assert_eq!(union.select(usize::MAX), None);
        assert_eq!(union.select(3), Some(3.0));
        assert_eq!(EditedUnion::new(&[], &[], &[]).select(0), None);
        assert_eq!([1.0, 2.0][..].select(2), None);
        assert!(RankedColumn::is_empty(&[][..]));
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
