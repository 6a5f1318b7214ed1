/// Specification of a uniform 1-D binning over `[lo, hi]`.
///
/// Values outside the range are clamped into the edge bins, so histograms
/// built from a shared spec always have identical support — the
/// precondition for cross-bin distances like EMD (§3.5: "let `b_i` be the
/// bins covering this support").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSpec {
    /// Inclusive lower edge of the support.
    pub lo: f64,
    /// Inclusive upper edge of the support.
    pub hi: f64,
    /// Number of bins (≥ 1).
    pub bins: usize,
}

impl HistogramSpec {
    /// Creates a spec; requires `lo < hi` (widened slightly when callers
    /// pass a degenerate range) and `bins >= 1`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins >= 1, "histogram needs at least one bin");
        assert!(
            lo.is_finite() && hi.is_finite(),
            "histogram range must be finite"
        );
        let (lo, hi) = if lo < hi {
            (lo, hi)
        } else {
            // Degenerate (constant sample): widen symmetrically so a valid
            // binning still exists.
            (lo - 0.5, lo + 0.5)
        };
        HistogramSpec { lo, hi, bins }
    }

    /// Spec covering the present values of a sample, optionally padded by a
    /// fraction of the range on both sides.
    pub fn covering(xs: &[f64], bins: usize, pad_fraction: f64) -> Option<Self> {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &x in xs {
            if x.is_nan() {
                continue;
            }
            lo = lo.min(x);
            hi = hi.max(x);
        }
        if lo > hi {
            return None;
        }
        let pad = (hi - lo) * pad_fraction;
        Some(HistogramSpec::new(lo - pad, hi + pad, bins))
    }

    /// Bin width.
    pub fn width(&self) -> f64 {
        (self.hi - self.lo) / self.bins as f64
    }

    /// Index of the bin containing `x`, clamping out-of-range values into
    /// the edge bins. NaN returns `None`.
    pub fn bin_of(&self, x: f64) -> Option<usize> {
        if x.is_nan() {
            return None;
        }
        let raw = ((x - self.lo) / self.width()).floor();
        let idx = raw.clamp(0.0, (self.bins - 1) as f64);
        Some(idx as usize)
    }

    /// Centre of bin `i`.
    pub fn center(&self, i: usize) -> f64 {
        assert!(i < self.bins, "bin index out of range");
        self.lo + (i as f64 + 0.5) * self.width()
    }
}

/// A 1-D histogram over a [`HistogramSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    spec: HistogramSpec,
    counts: Vec<f64>,
    total: f64,
}

impl Histogram {
    /// An empty histogram over `spec`.
    pub fn empty(spec: HistogramSpec) -> Self {
        Histogram {
            counts: vec![0.0; spec.bins],
            spec,
            total: 0.0,
        }
    }

    /// Histogram of the present values of `xs` over `spec`.
    pub fn from_values(spec: HistogramSpec, xs: &[f64]) -> Self {
        let mut h = Histogram::empty(spec);
        for &x in xs {
            h.add(x);
        }
        h
    }

    /// Adds one observation (NaN is ignored).
    pub fn add(&mut self, x: f64) {
        if let Some(i) = self.spec.bin_of(x) {
            self.counts[i] += 1.0;
            self.total += 1.0;
        }
    }

    /// The binning spec.
    pub fn spec(&self) -> &HistogramSpec {
        &self.spec
    }

    /// Raw per-bin masses.
    pub fn counts(&self) -> &[f64] {
        &self.counts
    }

    /// Total mass.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Per-bin probabilities (empty histogram yields all zeros).
    pub fn probabilities(&self) -> Vec<f64> {
        if self.total == 0.0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts.iter().map(|c| c / self.total).collect()
    }

    /// Bin centres, aligned with [`Histogram::counts`].
    pub fn centers(&self) -> Vec<f64> {
        (0..self.spec.bins).map(|i| self.spec.center(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_partition_the_range() {
        let spec = HistogramSpec::new(0.0, 10.0, 5);
        assert_eq!(spec.width(), 2.0);
        assert_eq!(spec.bin_of(0.0), Some(0));
        assert_eq!(spec.bin_of(1.99), Some(0));
        assert_eq!(spec.bin_of(2.0), Some(1));
        assert_eq!(spec.bin_of(9.99), Some(4));
        // Upper edge clamps into the last bin.
        assert_eq!(spec.bin_of(10.0), Some(4));
    }

    #[test]
    fn out_of_range_clamps_nan_ignored() {
        let spec = HistogramSpec::new(0.0, 1.0, 4);
        assert_eq!(spec.bin_of(-5.0), Some(0));
        assert_eq!(spec.bin_of(7.0), Some(3));
        assert_eq!(spec.bin_of(f64::NAN), None);
    }

    #[test]
    fn degenerate_range_is_widened() {
        let spec = HistogramSpec::new(3.0, 3.0, 2);
        assert!(spec.lo < spec.hi);
        assert_eq!(spec.bin_of(3.0), Some(1));
    }

    #[test]
    fn covering_pads_and_handles_empty() {
        let spec = HistogramSpec::covering(&[1.0, 3.0], 4, 0.5).unwrap();
        assert!((spec.lo - 0.0).abs() < 1e-12);
        assert!((spec.hi - 4.0).abs() < 1e-12);
        assert!(HistogramSpec::covering(&[f64::NAN], 4, 0.0).is_none());
    }

    #[test]
    fn histogram_counts_and_probabilities() {
        let spec = HistogramSpec::new(0.0, 4.0, 4);
        let h = Histogram::from_values(spec, &[0.5, 1.5, 1.6, 3.9, f64::NAN]);
        assert_eq!(h.counts(), &[1.0, 2.0, 0.0, 1.0]);
        assert_eq!(h.total(), 4.0);
        let p = h.probabilities();
        assert!((p[1] - 0.5).abs() < 1e-12);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_probabilities_are_zero() {
        let h = Histogram::empty(HistogramSpec::new(0.0, 1.0, 3));
        assert_eq!(h.probabilities(), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn centers_are_midpoints() {
        let h = Histogram::empty(HistogramSpec::new(0.0, 4.0, 4));
        assert_eq!(h.centers(), vec![0.5, 1.5, 2.5, 3.5]);
    }
}
