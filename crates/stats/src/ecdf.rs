use crate::quantile::smaller_head;

/// Empirical cumulative distribution function of a sample.
///
/// Stores the sorted present values; evaluation is a binary search.
/// The 1-D Earth Mover's Distance is the L1 distance between two ECDFs,
/// which is why this type sits in the statistics substrate.
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from a sample, skipping NaN values.
    pub fn new(xs: &[f64]) -> Self {
        Ecdf {
            sorted: crate::sorted_present(xs),
        }
    }

    /// Number of present observations.
    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the sample was empty (or all-missing).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The sorted sample underlying the ECDF.
    pub fn values(&self) -> &[f64] {
        &self.sorted
    }

    /// `F(x)` — the fraction of observations `<= x`. 0 for an empty sample.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        // partition_point returns the count of values <= x.
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Kolmogorov–Smirnov statistic `sup |F(x) − G(x)|` against another ECDF.
    pub fn ks_statistic(&self, other: &Ecdf) -> f64 {
        ks_statistic_sorted(&self.sorted, &other.sorted)
    }
}

/// Two-sample Kolmogorov–Smirnov statistic `sup_x |F_a(x) − G_b(x)|` from
/// two ascending-sorted (by [`f64::total_cmp`]), NaN-free samples.
///
/// One merge walk over the pooled sample: at every distinct pooled value
/// both pointers advance past all ties, then `|i/n − j/m|` is a candidate
/// for the supremum. Ties are grouped by **numeric** equality (so `-0.0`
/// and `+0.0` — adjacent under the `total_cmp` sort order — form one
/// group, matching the ECDF's numeric `<=`), while the walk order itself
/// follows the sorted inputs; every intermediate float is a pure function
/// of the two sorted inputs, so callers that derive the sorted columns
/// incrementally (remove + merge multiset edits) get bit-identical
/// statistics to sorting from scratch. Empty samples yield 1.0 against a
/// non-empty counterpart and 0.0 against another empty one (the
/// conventional `sup` over an empty candidate set).
pub fn ks_statistic_sorted(a: &[f64], b: &[f64]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    if a.is_empty() || b.is_empty() {
        return 1.0;
    }
    let (n, m) = (a.len() as f64, b.len() as f64);
    let (mut i, mut j) = (0usize, 0usize);
    let mut sup: f64 = 0.0;
    while let Some(x) = smaller_head(a, b, i, j) {
        while i < a.len() && same_group(a[i], x) {
            i += 1;
        }
        while j < b.len() && same_group(b[j], x) {
            j += 1;
        }
        sup = sup.max((i as f64 / n - j as f64 / m).abs());
    }
    sup
}

/// Whether `v` belongs to the tie group of the pooled value `x`: numeric
/// equality (merging `-0.0` with `+0.0`, matching the ECDF's `<=`), with a
/// `total_cmp` fallback so the walk still advances if a caller violates
/// the NaN-free precondition.
fn same_group(v: f64, x: f64) -> bool {
    v == x || v.total_cmp(&x).is_eq()
}

/// Two-sample Cramér–von Mises statistic from two ascending-sorted (by
/// [`f64::total_cmp`]), NaN-free samples:
///
/// `T = n·m / (n+m)² · Σ_z c(z) · (F_a(z) − G_b(z))²`
///
/// summed over the distinct pooled values `z` with pooled multiplicity
/// `c(z)`, i.e. the squared ECDF gap integrated against the pooled
/// empirical measure. Ties group by numeric equality and the summation
/// runs in pooled ascending order, so the result is bit-deterministic in
/// the sorted inputs (same contract as [`ks_statistic_sorted`]). Returns
/// 0.0 when either sample is empty.
pub fn cvm_statistic_sorted(a: &[f64], b: &[f64]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let (n, m) = (a.len() as f64, b.len() as f64);
    let (mut i, mut j) = (0usize, 0usize);
    let mut sum = 0.0f64;
    while let Some(x) = smaller_head(a, b, i, j) {
        let mut count = 0usize;
        while i < a.len() && same_group(a[i], x) {
            i += 1;
            count += 1;
        }
        while j < b.len() && same_group(b[j], x) {
            j += 1;
            count += 1;
        }
        let gap = i as f64 / n - j as f64 / m;
        sum += count as f64 * gap * gap;
    }
    n * m / ((n + m) * (n + m)) * sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_steps_at_sample_points() {
        let e = Ecdf::new(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.5), 0.5);
        assert_eq!(e.eval(4.0), 1.0);
        assert_eq!(e.eval(99.0), 1.0);
    }

    #[test]
    fn handles_ties() {
        let e = Ecdf::new(&[1.0, 1.0, 1.0, 2.0]);
        assert_eq!(e.eval(1.0), 0.75);
    }

    #[test]
    fn nan_skipped_and_empty() {
        let e = Ecdf::new(&[f64::NAN, 2.0]);
        assert_eq!(e.n(), 1);
        let empty = Ecdf::new(&[]);
        assert!(empty.is_empty());
        assert_eq!(empty.eval(0.0), 0.0);
    }

    #[test]
    fn ks_statistic_of_identical_samples_is_zero() {
        let a = Ecdf::new(&[1.0, 2.0, 3.0]);
        let b = Ecdf::new(&[1.0, 2.0, 3.0]);
        assert_eq!(a.ks_statistic(&b), 0.0);
    }

    #[test]
    fn ks_statistic_of_disjoint_samples_is_one() {
        let a = Ecdf::new(&[0.0, 1.0]);
        let b = Ecdf::new(&[10.0, 11.0]);
        assert_eq!(a.ks_statistic(&b), 1.0);
        assert_eq!(b.ks_statistic(&a), 1.0);
    }

    #[test]
    fn sorted_ks_matches_bruteforce_ecdf_walk() {
        let cases: Vec<(Vec<f64>, Vec<f64>)> = vec![
            (vec![1.0, 2.0, 3.0], vec![1.5, 2.5]),
            (vec![1.0, 1.0, 2.0], vec![1.0, 3.0, 3.0]),
            (vec![0.0], vec![0.0]),
            (vec![-5.0, 0.0, 5.0], vec![-5.0, -5.0, 6.0, 7.0]),
        ];
        for (a, b) in cases {
            let ea = Ecdf::new(&a);
            let eb = Ecdf::new(&b);
            let mut sup: f64 = 0.0;
            for &x in a.iter().chain(b.iter()) {
                sup = sup.max((ea.eval(x) - eb.eval(x)).abs());
            }
            assert_eq!(
                ks_statistic_sorted(&a, &b).to_bits(),
                sup.to_bits(),
                "a={a:?} b={b:?}"
            );
        }
    }

    #[test]
    fn signed_zeros_are_one_tie_group() {
        // -0.0 sorts before +0.0 under total_cmp but is numerically equal;
        // the statistics must treat the two as one value (matching the
        // ECDF's numeric <=), not report a spurious distribution gap.
        assert_eq!(ks_statistic_sorted(&[-0.0], &[0.0]), 0.0);
        assert_eq!(cvm_statistic_sorted(&[-0.0], &[0.0]), 0.0);
        assert_eq!(
            ks_statistic_sorted(&[-0.0, 0.0, 1.0], &[0.0, 0.0, 1.0]),
            0.0
        );
        let e = Ecdf::new(&[-0.0]).ks_statistic(&Ecdf::new(&[0.0]));
        assert_eq!(e, 0.0);
    }

    #[test]
    fn ks_and_cvm_empty_sample_conventions() {
        assert_eq!(ks_statistic_sorted(&[], &[]), 0.0);
        assert_eq!(ks_statistic_sorted(&[1.0], &[]), 1.0);
        assert_eq!(cvm_statistic_sorted(&[], &[1.0]), 0.0);
        assert_eq!(cvm_statistic_sorted(&[], &[]), 0.0);
    }

    #[test]
    fn cvm_is_zero_on_identical_samples_and_grows_with_separation() {
        let a = [1.0, 2.0, 3.0, 4.0];
        assert!(cvm_statistic_sorted(&a, &a).abs() < 1e-15);
        let near = cvm_statistic_sorted(&a, &[1.5, 2.5, 3.5, 4.5]);
        let far = cvm_statistic_sorted(&a, &[10.0, 11.0, 12.0, 13.0]);
        assert!(far > near, "far {far} vs near {near}");
        // Fully separated samples approach the statistic's upper range.
        assert!(far > 0.3);
        // Symmetry: the squared gap does not privilege either sample.
        let ab = cvm_statistic_sorted(&a, &[1.5, 2.5]);
        let ba = cvm_statistic_sorted(&[1.5, 2.5], &a);
        assert_eq!(ab.to_bits(), ba.to_bits());
    }
}
