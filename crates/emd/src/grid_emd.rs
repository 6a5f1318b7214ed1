use crate::grid_pair::{Cover, GridPair};
use crate::signature::PatchedCloud;
use crate::{sinkhorn, Result, Signature, SinkhornParams};

/// Occupied-cell-product budget above which [`GridEmd`] falls back from
/// the exact transportation simplex to Sinkhorn. Sized so instances up to
/// roughly 380×380 occupied cells stay exact: at those shapes one simplex
/// solve is still cheaper than a converged Sinkhorn run.
const MAX_EXACT_CELLS: usize = 150_000;

/// Which solver produced a [`GridEmdReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverUsed {
    /// Exact transportation simplex.
    Simplex,
    /// Entropic Sinkhorn approximation (the occupied-cell product exceeded
    /// the exact budget).
    Sinkhorn,
}

/// End-to-end multidimensional EMD between two point clouds.
///
/// This is the concrete realization of the paper's statistical-distortion
/// measure: pool the `v`-tuples of the dirty and cleaned data sets,
/// quantize both onto one shared grid (so both distributions share a
/// support, as Definition 1 requires), and solve the transportation problem
/// between the occupied cells. The grid spans `median ± 5·IQR` of the union
/// on every axis ([`Cover::Robust`]), and ground distances divide each axis
/// by its grid range, since telemetry KPIs span wildly different
/// magnitudes.
#[derive(Debug, Clone)]
pub struct GridEmd {
    bins_per_axis: usize,
}

/// The result of a [`GridEmd::distance`] computation, with enough
/// diagnostics to audit the quantization.
#[derive(Debug, Clone)]
pub struct GridEmdReport {
    /// The Earth Mover's Distance.
    pub emd: f64,
    /// Occupied grid cells in the first cloud.
    pub occupied_a: usize,
    /// Occupied grid cells in the second cloud.
    pub occupied_b: usize,
    /// Points skipped (missing coordinate) in the first cloud.
    pub skipped_a: usize,
    /// Points skipped in the second cloud.
    pub skipped_b: usize,
    /// Which solver was used.
    pub solver: SolverUsed,
}

impl GridEmd {
    /// Creates a pipeline with `bins_per_axis` bins on every axis.
    pub fn new(bins_per_axis: usize) -> Self {
        assert!(bins_per_axis >= 1, "need at least one bin per axis");
        GridEmd { bins_per_axis }
    }

    /// Bins per axis.
    pub fn bins_per_axis(&self) -> usize {
        self.bins_per_axis
    }

    /// EMD between two clouds of equal-dimension points (rows). Rows with
    /// any missing (NaN) coordinate are excluded from the density and
    /// reported in the diagnostics.
    pub fn distance(&self, a: &[Vec<f64>], b: &[Vec<f64>]) -> Result<GridEmdReport> {
        solve(GridPair::rows(a, b, self.bins_per_axis, Cover::Robust)?)
    }

    /// EMD between the cached cloud and a [`PatchedCloud`] counterpart
    /// (the cleaned sample as sparse row edits against the dirty one),
    /// through [`GridPair::patched`]. Bit-identical to
    /// `self.distance(cache.rows(), &patched.materialize())`.
    ///
    /// ```
    /// use sd_emd::{GridEmd, PatchedCloud, SignatureCache};
    ///
    /// // A dirty cloud, cached once; a "cleaning" that moves two rows.
    /// let dirty: Vec<Vec<f64>> = (0..64)
    ///     .map(|i| vec![i as f64 * 0.25, (i % 8) as f64])
    ///     .collect();
    /// let cache = SignatureCache::new(dirty.clone());
    /// let edits = vec![(3, vec![100.0, 50.0]), (40, vec![0.5, 0.5])];
    ///
    /// let emd = GridEmd::new(6);
    /// let patched = emd
    ///     .distance_patched(&PatchedCloud::new(&cache, edits.clone()))
    ///     .unwrap();
    ///
    /// // Bit-identical to materializing the cleaned cloud and starting
    /// // from scratch — the engine leans on this equivalence.
    /// let mut cleaned = dirty.clone();
    /// for (row, values) in edits {
    ///     cleaned[row] = values;
    /// }
    /// let direct = emd.distance(&dirty, &cleaned).unwrap();
    /// assert_eq!(patched.emd.to_bits(), direct.emd.to_bits());
    /// assert!(patched.emd > 0.0);
    /// ```
    pub fn distance_patched(&self, patched: &PatchedCloud<'_>) -> Result<GridEmdReport> {
        solve(GridPair::patched(
            patched,
            self.bins_per_axis,
            Cover::Robust,
        )?)
    }
}

/// The pipeline's back half: solve the transportation problem between the
/// pair's two signatures.
fn solve(pair: GridPair) -> Result<GridEmdReport> {
    let (dirty, cleaned) = (pair.dirty(), pair.cleaned());
    let (occupied_a, skipped_a) = (dirty.occupied, dirty.skipped);
    let (occupied_b, skipped_b) = (cleaned.occupied, cleaned.skipped);
    let (emd, solver) = pair.with_signatures(|a, b| solve_signatures(a, b, MAX_EXACT_CELLS))??;
    Ok(GridEmdReport {
        emd,
        occupied_a,
        occupied_b,
        skipped_a,
        skipped_b,
        solver,
    })
}

/// EMD between two signatures: exact when `|a| · |b| <= max_exact_cells`,
/// debiased Sinkhorn otherwise. Exact solves run on this thread's shared
/// cold arena — pure allocation reuse, bit-identical to a standalone
/// [`crate::TransportProblem`] solve.
pub(crate) fn solve_signatures(
    sig_a: &Signature,
    sig_b: &Signature,
    max_exact_cells: usize,
) -> Result<(f64, SolverUsed)> {
    let wa = sig_a.normalized_weights();
    let wb = sig_b.normalized_weights();
    let cost = crate::ground_distance_matrix(sig_a.points(), sig_b.points());
    if sig_a.len() * sig_b.len() <= max_exact_cells {
        let emd = crate::batch::with_cold_arena(|arena| arena.solve(&wa, &wb, &cost))?;
        return Ok((emd, SolverUsed::Simplex));
    }
    // Debiased Sinkhorn divergence: the raw entropic cost has a positive
    // floor even for identical distributions (the plan is deliberately
    // blurry), which would swamp small distances. Subtracting the
    // self-transport terms removes that floor:
    //   S(a,b) − ½ S(a,a) − ½ S(b,b).
    let params = SinkhornParams::default();
    let ab = sinkhorn(&wa, &wb, &cost, params)?;
    let cost_aa = crate::ground_distance_matrix(sig_a.points(), sig_a.points());
    let cost_bb = crate::ground_distance_matrix(sig_b.points(), sig_b.points());
    let aa = sinkhorn(&wa, &wa, &cost_aa, params)?;
    let bb = sinkhorn(&wb, &wb, &cost_bb, params)?;
    Ok(((ab - 0.5 * aa - 0.5 * bb).max(0.0), SolverUsed::Sinkhorn))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EmdError, SignatureCache};

    fn cloud(points: &[(f64, f64)]) -> Vec<Vec<f64>> {
        points.iter().map(|&(x, y)| vec![x, y]).collect()
    }

    #[test]
    fn identical_clouds_have_zero_distance() {
        let a = cloud(&[(0.0, 0.0), (1.0, 1.0), (2.0, 0.5)]);
        let report = GridEmd::new(4).distance(&a, &a).unwrap();
        assert!(report.emd.abs() < 1e-12);
        assert_eq!(report.solver, SolverUsed::Simplex);
        assert_eq!(report.occupied_a, report.occupied_b);
    }

    #[test]
    fn shifted_cloud_has_positive_distance() {
        let a = cloud(&[(0.0, 0.0), (0.1, 0.1), (0.2, 0.0)]);
        let b = cloud(&[(5.0, 5.0), (5.1, 5.1), (5.2, 5.0)]);
        // The robust cover widens the axes, shrinking normalized distances
        // but never erasing them.
        let report = GridEmd::new(8).distance(&a, &b).unwrap();
        assert!(report.emd > 0.05, "{}", report.emd);
    }

    #[test]
    fn distance_grows_with_shift() {
        // The cover spans the union, so the shift must stay small against
        // the cloud's own spread for the normalized distance to track it.
        let line = |shift: f64| -> Vec<Vec<f64>> {
            (0..100).map(|i| vec![i as f64 + shift, 0.0]).collect()
        };
        let (base, near, far) = (line(0.0), line(5.0), line(30.0));
        let g = GridEmd::new(16);
        let d_near = g.distance(&base, &near).unwrap().emd;
        let d_far = g.distance(&base, &far).unwrap().emd;
        assert!(d_far > d_near, "{d_far} vs {d_near}");
    }

    #[test]
    fn line_clouds_match_1d_emd_up_to_axis_range() {
        // Points along one axis; grid EMD with fine bins ≈ exact 1-D EMD,
        // in units of the x axis's grid range (median ± 5·IQR).
        let a: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64, 0.0]).collect();
        let b: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64 + 10.0, 0.0]).collect();
        let grid_d = GridEmd::new(64).distance(&a, &b).unwrap().emd;
        let a1: Vec<f64> = a.iter().map(|p| p[0]).collect();
        let b1: Vec<f64> = b.iter().map(|p| p[0]).collect();
        let exact = crate::emd_1d_samples(&a1, &b1).unwrap();
        let union = [a1, b1].concat();
        let iqr =
            sd_stats::quantile(&union, 0.75).unwrap() - sd_stats::quantile(&union, 0.25).unwrap();
        let range = 10.0 * iqr;
        // Quantization error is bounded by the bin width.
        assert!(
            (grid_d * range - exact).abs() < range / 64.0,
            "grid {} vs exact {exact}",
            grid_d * range
        );
    }

    #[test]
    fn missing_coordinates_are_skipped_and_reported() {
        let mut a = cloud(&[(0.0, 0.0), (1.0, 1.0)]);
        a.push(vec![f64::NAN, 0.5]);
        let b = cloud(&[(0.0, 0.0), (1.0, 1.0)]);
        let report = GridEmd::new(4).distance(&a, &b).unwrap();
        assert_eq!(report.skipped_a, 1);
        assert_eq!(report.skipped_b, 0);
    }

    #[test]
    fn empty_or_all_missing_cloud_is_an_error() {
        let a = cloud(&[(0.0, 0.0)]);
        let empty: Vec<Vec<f64>> = Vec::new();
        assert!(matches!(
            GridEmd::new(4).distance(&a, &empty),
            Err(EmdError::EmptyInput)
        ));
        let all_missing = vec![vec![f64::NAN, f64::NAN]];
        assert!(GridEmd::new(4).distance(&a, &all_missing).is_err());
    }

    #[test]
    fn sinkhorn_fallback_engages_when_budget_exceeded() {
        let a: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i % 8) as f64, (i / 8) as f64])
            .collect();
        let b: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i % 8) as f64 + 0.4, (i / 8) as f64])
            .collect();
        let pair = GridPair::rows(&a, &b, 8, Cover::Robust).unwrap();
        let (emd, solver) = pair
            .with_signatures(|x, y| solve_signatures(x, y, 4))
            .unwrap()
            .unwrap();
        assert_eq!(solver, SolverUsed::Sinkhorn);
        assert!(emd.is_finite());
    }

    #[test]
    fn patched_distance_is_bit_identical_to_direct() {
        // The patched pipeline (derived sorted columns + incrementally
        // edited dense histogram) must equal the direct pipeline on the
        // materialized cloud, bit for bit, across edit shapes.
        let a: Vec<Vec<f64>> = (0..80)
            .map(|i| vec![(i % 9) as f64 * 1.7, (i / 9) as f64 * 0.9, (i % 5) as f64])
            .collect();
        let edit_sets: Vec<Vec<(usize, Vec<f64>)>> = vec![
            vec![],                            // no edits: b == a
            vec![(3, vec![100.0, -4.0, 2.0])], // one row far away
            (0..40)
                .map(|r| (r * 2, vec![r as f64 * 0.3, 1.0, 2.5]))
                .collect(),
            vec![(7, vec![f64::NAN, 1.0, 1.0])], // edit introduces a gap
            vec![(11, vec![0.0, 0.0, 0.0]), (12, vec![8.5, 7.2, 4.0])],
        ];
        let mut with_gap = a.clone();
        with_gap[5][0] = f64::NAN; // base cloud itself has a gap
        for base in [a.clone(), with_gap] {
            for g in [GridEmd::new(6), GridEmd::new(4), GridEmd::new(5)] {
                let cache = SignatureCache::new(base.clone());
                for edits in &edit_sets {
                    let patched = PatchedCloud::new(&cache, edits.clone());
                    let b = patched.materialize();
                    let direct = g.distance(&base, &b).unwrap();
                    let fast = g.distance_patched(&patched).unwrap();
                    assert_eq!(direct.emd.to_bits(), fast.emd.to_bits());
                    assert_eq!(direct.occupied_a, fast.occupied_a);
                    assert_eq!(direct.occupied_b, fast.occupied_b);
                    assert_eq!(direct.skipped_a, fast.skipped_a);
                    assert_eq!(direct.skipped_b, fast.skipped_b);
                    assert_eq!(direct.solver, fast.solver);
                }
                // Re-scoring the identical cloud hits the memo.
                let before = cache.memoized();
                g.distance_patched(&PatchedCloud::new(&cache, vec![]))
                    .unwrap();
                assert_eq!(cache.memoized(), before);
            }
        }
    }

    #[test]
    fn dense_and_sparse_quantization_agree() {
        use crate::signature::quantize;
        use sd_stats::GridHistogram;
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|i| {
                let x = (i as f64 * 0.37).sin() * 40.0;
                let y = (i as f64 * 0.11).cos() * 7.0;
                vec![x, if i % 13 == 0 { f64::NAN } else { y }]
            })
            .collect();
        let spec = sd_stats::GridSpec::covering(&rows, &[], 9).unwrap();
        let dense = quantize(&spec, &rows);
        assert!(dense.counts.is_some(), "9×9 grid takes the dense path");
        let sparse = GridHistogram::from_points(spec.clone(), &rows);
        assert_eq!(dense.total, sparse.total());
        assert_eq!(dense.skipped, sparse.skipped());
        assert_eq!(dense.occupied, sparse.occupied());
        let sparse_pairs = sparse.signature();
        assert_eq!(dense.pairs.len(), sparse_pairs.len());
        for ((pc, pm), (sc, sm)) in dense.pairs.iter().zip(&sparse_pairs) {
            assert_eq!(pc, sc, "centre order must match");
            assert_eq!(pm.to_bits(), sm.to_bits(), "masses must match");
        }
    }

    #[test]
    fn cached_distance_matches_direct_errors() {
        let a = cloud(&[(0.0, 0.0), (1.0, 1.0)]);
        let g = GridEmd::new(4);
        // A cleaning that blanks every row leaves the counterpart no
        // density, on both paths.
        let cache = SignatureCache::new(a.clone());
        let blank = PatchedCloud::new(
            &cache,
            vec![(0, vec![f64::NAN, 0.0]), (1, vec![1.0, f64::NAN])],
        );
        assert!(matches!(
            g.distance(&a, &blank.materialize()),
            Err(EmdError::EmptyInput)
        ));
        assert!(matches!(
            g.distance_patched(&blank),
            Err(EmdError::EmptyInput)
        ));
        // An all-missing cached cloud behaves like an all-missing first
        // argument.
        let gaps = vec![vec![f64::NAN, 1.0], vec![0.0, f64::NAN]];
        let gap_cache = SignatureCache::new(gaps.clone());
        assert!(matches!(
            g.distance(&gaps, &gaps),
            Err(EmdError::EmptyInput)
        ));
        assert!(matches!(
            g.distance_patched(&PatchedCloud::new(&gap_cache, vec![])),
            Err(EmdError::EmptyInput)
        ));
        // Empty cached cloud behaves like an empty first argument.
        let empty_cache = SignatureCache::new(Vec::new());
        assert!(matches!(
            g.distance_patched(&PatchedCloud::new(&empty_cache, vec![])),
            Err(EmdError::EmptyInput)
        ));
    }

    #[test]
    fn normalized_scaling_is_insensitive_to_axis_units() {
        // Same shape, one axis measured in different units.
        let a1 = cloud(&[(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]);
        let b1 = cloud(&[(1.0, 0.0), (2.0, 1.0), (3.0, 0.0)]);
        let a2: Vec<Vec<f64>> = a1.iter().map(|p| vec![p[0] * 1000.0, p[1]]).collect();
        let b2: Vec<Vec<f64>> = b1.iter().map(|p| vec![p[0] * 1000.0, p[1]]).collect();
        let g = GridEmd::new(8);
        let d1 = g.distance(&a1, &b1).unwrap().emd;
        let d2 = g.distance(&a2, &b2).unwrap().emd;
        assert!((d1 - d2).abs() < 1e-9, "{d1} vs {d2}");
    }
}
