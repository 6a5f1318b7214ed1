/// A per-attribute value transform studied as an experimental factor.
///
/// The paper applies a natural-log transformation to Attribute 1 before
/// cleaning (§5.3) and shows that it flips which tail of the distribution
/// is winsorized — "a cautionary tale against the blind use of attribute
/// transformations". Transforms here are invertible so cleaned values can
/// be mapped back to the raw scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttributeTransform {
    /// Leave the attribute unchanged.
    Identity,
    /// Natural logarithm with a positive floor: `ln(max(x, floor))`.
    ///
    /// Telemetry KPIs can contain zeros, near-zero dropouts, and corrupted
    /// negative values; flooring maps all of these to one extreme
    /// left-tail point instead of producing `-inf`/NaN (which would be
    /// conflated with *missing*). This preserves the paper's observed
    /// behaviour: in log space the distribution is left-skewed and the
    /// *lower* tail gets flagged and winsorized.
    Log {
        /// Values at or below this floor map to `ln(floor)`. Must be > 0.
        floor: f64,
    },
}

impl AttributeTransform {
    /// A log transform with the default floor of `1e-6`.
    pub fn log() -> Self {
        AttributeTransform::Log { floor: 1e-6 }
    }

    /// Forward transform of a single value. NaN (missing) passes through.
    pub fn forward(&self, x: f64) -> f64 {
        match *self {
            AttributeTransform::Identity => x,
            AttributeTransform::Log { floor } => {
                debug_assert!(floor > 0.0, "log floor must be positive");
                if x.is_nan() {
                    x
                } else {
                    x.max(floor).ln()
                }
            }
        }
    }

    /// Inverse transform of a single value. NaN passes through.
    ///
    /// For [`AttributeTransform::Log`] the inverse is `exp`, so any value a
    /// cleaning strategy produced in log space maps back to a positive raw
    /// value — matching the paper, where negative imputations occur only
    /// *without* the log transform.
    pub fn inverse(&self, y: f64) -> f64 {
        match *self {
            AttributeTransform::Identity => y,
            AttributeTransform::Log { .. } => {
                if y.is_nan() {
                    y
                } else {
                    y.exp()
                }
            }
        }
    }

    /// Applies the forward transform to a slice in place.
    pub fn forward_slice(&self, xs: &mut [f64]) {
        if matches!(self, AttributeTransform::Identity) {
            return;
        }
        for x in xs {
            *x = self.forward(*x);
        }
    }

    /// Whether this is the identity transform.
    pub fn is_identity(&self) -> bool {
        matches!(self, AttributeTransform::Identity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_passes_through() {
        let t = AttributeTransform::Identity;
        assert_eq!(t.forward(3.5), 3.5);
        assert_eq!(t.inverse(3.5), 3.5);
        assert!(t.is_identity());
    }

    #[test]
    fn log_roundtrip_for_positive_values() {
        let t = AttributeTransform::log();
        for &x in &[0.001, 1.0, 42.0, 1e6] {
            let y = t.forward(x);
            assert!((t.inverse(y) - x).abs() / x < 1e-12);
        }
    }

    #[test]
    fn log_floors_nonpositive_values() {
        let t = AttributeTransform::Log { floor: 1e-6 };
        let y_neg = t.forward(-5.0);
        let y_zero = t.forward(0.0);
        assert_eq!(y_neg, (1e-6f64).ln());
        assert_eq!(y_zero, y_neg);
        // Floored values come back as the floor, not the original negative.
        assert!((t.inverse(y_neg) - 1e-6).abs() < 1e-18);
    }

    #[test]
    fn missing_passes_through_both_ways() {
        let t = AttributeTransform::log();
        assert!(t.forward(f64::NAN).is_nan());
        assert!(t.inverse(f64::NAN).is_nan());
    }

    #[test]
    fn slice_transforms_roundtrip() {
        let t = AttributeTransform::log();
        let mut xs = [1.0, 10.0, f64::NAN];
        t.forward_slice(&mut xs);
        assert!((xs[0] - 0.0).abs() < 1e-12);
        assert!((xs[1] - 10.0f64.ln()).abs() < 1e-12);
        assert!(xs[2].is_nan());
        for x in &mut xs {
            *x = t.inverse(*x);
        }
        assert!((xs[0] - 1.0).abs() < 1e-12);
        assert!((xs[1] - 10.0).abs() < 1e-11);
        assert!(xs[2].is_nan());
    }

    #[test]
    fn log_is_monotone_on_positive_reals() {
        let t = AttributeTransform::log();
        let mut prev = f64::NEG_INFINITY;
        for i in 1..100 {
            let y = t.forward(i as f64 * 0.37);
            assert!(y > prev);
            prev = y;
        }
    }
}
