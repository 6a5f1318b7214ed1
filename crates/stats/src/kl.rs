/// Kullback–Leibler divergence `KL(P ‖ Q)` between two discrete
/// distributions given as probability vectors over the same bins.
///
/// One of the alternative distortion distances named in Definition 1 of the
/// paper. Zero bins are smoothed with `epsilon` mass (re-normalized), since
/// empirical histograms routinely contain empty bins where the other
/// histogram does not.
///
/// Panics if the vectors have different lengths.
pub fn kl_divergence(p: &[f64], q: &[f64], epsilon: f64) -> f64 {
    assert_eq!(p.len(), q.len(), "KL requires matching bin counts");
    assert!(epsilon > 0.0, "epsilon must be positive");
    if p.is_empty() {
        return 0.0;
    }
    let smooth = |v: &[f64]| -> Vec<f64> {
        let total: f64 = v.iter().map(|x| x + epsilon).sum();
        v.iter().map(|x| (x + epsilon) / total).collect()
    };
    let ps = smooth(p);
    let qs = smooth(q);
    ps.iter()
        .zip(&qs)
        .map(|(&pi, &qi)| if pi > 0.0 { pi * (pi / qi).ln() } else { 0.0 })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-10;

    #[test]
    fn kl_of_identical_is_zero() {
        let p = [0.25, 0.25, 0.5];
        assert!(kl_divergence(&p, &p, EPS).abs() < 1e-9);
    }

    #[test]
    fn kl_is_positive_for_different_distributions() {
        let p = [0.9, 0.1];
        let q = [0.1, 0.9];
        let d = kl_divergence(&p, &q, EPS);
        assert!(d > 0.5);
    }

    #[test]
    fn kl_is_asymmetric() {
        let p = [0.8, 0.15, 0.05];
        let q = [0.4, 0.4, 0.2];
        let d1 = kl_divergence(&p, &q, EPS);
        let d2 = kl_divergence(&q, &p, EPS);
        assert!((d1 - d2).abs() > 1e-3);
    }

    #[test]
    fn kl_handles_zero_bins_via_smoothing() {
        let p = [1.0, 0.0];
        let q = [0.0, 1.0];
        let d = kl_divergence(&p, &q, 1e-9);
        assert!(d.is_finite());
        assert!(d > 1.0);
    }

    #[test]
    fn empty_inputs_give_zero() {
        assert_eq!(kl_divergence(&[], &[], EPS), 0.0);
    }

    #[test]
    #[should_panic(expected = "matching bin counts")]
    fn mismatched_lengths_panic() {
        kl_divergence(&[1.0], &[0.5, 0.5], EPS);
    }
}
