use crate::{EmdError, Result};

/// Exact 1-D EMD between two empirical samples (each with uniform weights).
///
/// For one-dimensional distributions the Earth Mover's Distance has the
/// closed form `∫ |F(x) − G(x)| dx` — the L1 distance between the ECDFs.
/// NaN values are skipped; returns [`EmdError::EmptyInput`] when either
/// sample has no present values.
pub fn emd_1d_samples(a: &[f64], b: &[f64]) -> Result<f64> {
    let xs: Vec<f64> = a.iter().copied().filter(|x| !x.is_nan()).collect();
    let ys: Vec<f64> = b.iter().copied().filter(|x| !x.is_nan()).collect();
    let wa = vec![1.0 / xs.len().max(1) as f64; xs.len()];
    let wb = vec![1.0 / ys.len().max(1) as f64; ys.len()];
    emd_1d_weighted(&xs, &wa, &ys, &wb)
}

/// Exact 1-D EMD between two weighted point sets.
///
/// Weights on each side are normalized to unit total mass. Implemented by
/// sweeping the merged sorted support and integrating `|F − G|`.
pub fn emd_1d_weighted(
    a_points: &[f64],
    a_weights: &[f64],
    b_points: &[f64],
    b_weights: &[f64],
) -> Result<f64> {
    if a_points.len() != a_weights.len() || b_points.len() != b_weights.len() {
        return Err(EmdError::CostShape {
            expected: (a_points.len(), b_points.len()),
            got: (a_weights.len(), b_weights.len()),
        });
    }
    if a_points.is_empty() || b_points.is_empty() {
        return Err(EmdError::EmptyInput);
    }
    let ta: f64 = a_weights.iter().sum();
    let tb: f64 = b_weights.iter().sum();
    if ta <= 0.0 || tb <= 0.0 || ta.is_nan() || tb.is_nan() {
        return Err(EmdError::InvalidWeight { value: ta.min(tb) });
    }
    for &w in a_weights.iter().chain(b_weights) {
        if !w.is_finite() || w < 0.0 {
            return Err(EmdError::InvalidWeight { value: w });
        }
    }

    // Merge the two supports as (x, dF, dG) events.
    let mut events: Vec<(f64, f64, f64)> = Vec::with_capacity(a_points.len() + b_points.len());
    for (&x, &w) in a_points.iter().zip(a_weights) {
        if x.is_nan() {
            return Err(EmdError::InvalidWeight { value: x });
        }
        events.push((x, w / ta, 0.0));
    }
    for (&x, &w) in b_points.iter().zip(b_weights) {
        if x.is_nan() {
            return Err(EmdError::InvalidWeight { value: x });
        }
        events.push((x, 0.0, w / tb));
    }
    events.sort_by(|p, q| p.0.total_cmp(&q.0));

    let mut emd = 0.0f64;
    let mut f = 0.0f64; // F(x) running CDF of A
    let mut g = 0.0f64; // G(x) running CDF of B
    let mut prev_x = events[0].0;
    for &(x, da, db) in &events {
        emd += (f - g).abs() * (x - prev_x);
        f += da;
        g += db;
        prev_x = x;
    }
    Ok(emd)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_samples_zero() {
        let a = [1.0, 2.0, 3.0];
        assert!(emd_1d_samples(&a, &a).unwrap().abs() < 1e-15);
    }

    #[test]
    fn translation_by_delta() {
        let a = [0.0, 1.0, 2.0, 3.0];
        let b: Vec<f64> = a.iter().map(|x| x + 2.5).collect();
        assert!((emd_1d_samples(&a, &b).unwrap() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn unequal_sample_sizes() {
        // A = {0}, B = {0, 1}: move half the mass from 0 to 1 → EMD 0.5.
        let d = emd_1d_samples(&[0.0], &[0.0, 1.0]).unwrap();
        assert!((d - 0.5).abs() < 1e-12);
    }

    #[test]
    fn nan_values_are_skipped() {
        let a = [0.0, f64::NAN, 1.0];
        let b = [0.0, 1.0];
        assert!(emd_1d_samples(&a, &b).unwrap().abs() < 1e-12);
        assert!(matches!(
            emd_1d_samples(&[f64::NAN], &[1.0]),
            Err(EmdError::EmptyInput)
        ));
    }

    #[test]
    fn weighted_point_masses() {
        // 0.75 mass at 0, 0.25 at 4 vs all mass at 1:
        // optimal plan moves 0.75 a distance 1 and 0.25 a distance 3 → 1.5.
        let d = emd_1d_weighted(&[0.0, 4.0], &[0.75, 0.25], &[1.0], &[1.0]).unwrap();
        assert!((d - 1.5).abs() < 1e-12);
    }

    #[test]
    fn weights_are_normalized() {
        let d1 = emd_1d_weighted(&[0.0, 1.0], &[1.0, 1.0], &[0.5], &[1.0]).unwrap();
        let d2 = emd_1d_weighted(&[0.0, 1.0], &[10.0, 10.0], &[0.5], &[7.0]).unwrap();
        assert!((d1 - d2).abs() < 1e-12);
    }

    #[test]
    fn symmetry() {
        let a = [0.0, 0.3, 0.9, 2.0];
        let b = [0.1, 0.5, 0.5];
        let d1 = emd_1d_samples(&a, &b).unwrap();
        let d2 = emd_1d_samples(&b, &a).unwrap();
        assert!((d1 - d2).abs() < 1e-12);
    }

    #[test]
    fn mismatched_weight_lengths_rejected() {
        assert!(emd_1d_weighted(&[1.0], &[1.0, 2.0], &[1.0], &[1.0]).is_err());
        assert!(emd_1d_weighted(&[1.0], &[-1.0], &[1.0], &[1.0]).is_err());
    }
}
