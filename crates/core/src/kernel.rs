//! The pluggable distortion-kernel subsystem.
//!
//! Definition 1 leaves the distance `d(D, D_C)` open — the paper names the
//! Earth Mover's, Kullback–Leibler and Mahalanobis distances as candidates.
//! This module turns that openness into an engine contract: a
//! [`DistortionKernel`] is a distance that knows how to score the engine's
//! sparse cell edits *incrementally* against dirty-side state prepared once
//! per replication, instead of materializing the cleaned cloud for every
//! `(replication, strategy)` unit.
//!
//! # Lifecycle
//!
//! 1. The engine's group-slot build pools the dirty sample once into a
//!    [`SignatureCache`] (sorted columns + memoized grid quantizations).
//! 2. Each requested kernel's [`DistortionKernel::prepare`] derives its own
//!    dirty-side state from that cache (a fitted Mahalanobis metric and its
//!    pairwise sum tree, nothing extra for the histogram kernels — the
//!    cache's per-grid memo *is* their prepared state).
//! 3. Every unit cleans once, expresses the cleaned cloud as a
//!    [`PatchedCloud`] (sparse row edits), and asks every prepared kernel
//!    for a score via [`PreparedKernel::score_patch`].
//!
//! # Bit-identity contract
//!
//! For every kernel, `score_patch` on a [`PatchedCloud`] must be
//! **bit-identical** to [`DistortionKernel::score_rows`] on the
//! materialized cloud (enforced by proptests in `tests/properties.rs`).
//! The kernels achieve this without re-deriving full state:
//!
//! * **EMD, KL, energy** — one front half, [`GridPair`]: its rows form on
//!   the reference path, its patched form on the engine path (a cover
//!   rank-selected from the cached sorted columns and the patch's edited
//!   values, so no column is merged or materialized, and the cache's
//!   memoized dirty histogram with only the edited rows re-binned for the
//!   cleaned side).
//!   Masses are exact integer counts, so the incremental edit is
//!   bit-precise. Each kernel keeps only its back half: the transport
//!   solve (EMD, robust cover), [`kl_divergence`] over the aligned
//!   histograms (KL, min–max cover), and the signature-level energy
//!   distance (energy, robust cover).
//! * **Mahalanobis** — the dirty-side fit (mean + factored covariance) is
//!   prepared once; the cleaned mean is maintained by a fixed-shape
//!   pairwise [`SumTree`], whose sparse root re-summation is bit-identical
//!   to rebuilding it (a naive running sum could not be updated without
//!   changing its rounding).
//! * **KS / Cramér–von Mises** — per-axis two-sample statistics over the
//!   cached (dirty) and derived (cleaned) sorted columns; multiset column
//!   edits under `total_cmp` are bit-precise.
//!
//! # Smoothing contract for histogram-ratio kernels
//!
//! Kernels that take *ratios* of aligned histogram masses (today: KL) share
//! one smoothing rule for empty cells, [`KL_EPSILON`]: every aligned cell —
//! occupied or not — receives `KL_EPSILON` additional mass and the
//! histogram is renormalized (see [`sd_stats::kl_divergence`]). This keeps
//! the divergence finite when cleaning moves mass into cells the dirty
//! histogram leaves empty (the common case: imputation filling a gap), and
//! because both paths smooth identically, the incremental and materialized
//! scores stay bit-identical. Mass-transport kernels (EMD, energy) take no
//! ratios and need no smoothing.

use crate::{FrameworkError, Result};
use sd_emd::{
    ground_distance_matrix, CloudQuant, Cover, GridEmd, GridPair, PatchedCloud, Signature,
    SignatureCache,
};
use sd_linalg::MahalanobisMetric;
use sd_stats::{
    cvm_statistic_sorted, kl_divergence, ks_statistic_sorted, sorted_union_columns, SumTree,
};
use std::collections::BTreeMap;

/// Epsilon mass granted to every aligned cell (occupied or empty) before a
/// histogram-ratio kernel takes ratios; the histogram is renormalized
/// afterwards. One constant shared by every smoothing site so all
/// histogram-backed kernels obey a single contract (see the module docs).
pub const KL_EPSILON: f64 = 1e-9;

/// One metric's score of a `(replication, strategy)` unit.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricScore {
    /// Kernel name (`"emd"`, `"kl"`, `"mahalanobis"`, `"ks"`, `"cvm"`,
    /// `"energy"`), as recorded in JSON artifacts.
    pub metric: &'static str,
    /// The distortion value under that kernel.
    pub value: f64,
}

/// A distortion distance behind Definition 1, pluggable into the engine.
///
/// Implementations must uphold the bit-identity contract described in the
/// [module docs](self): [`PreparedKernel::score_patch`] equals
/// [`DistortionKernel::score_rows`] on the materialized cloud, bit for bit.
pub trait DistortionKernel: Send + Sync + std::fmt::Debug {
    /// Short machine-readable name, recorded per score in results and JSON
    /// artifacts.
    fn name(&self) -> &'static str;

    /// Distance between two materialized working-space clouds — the
    /// reference path (and the oracle `score_patch` is tested against).
    fn score_rows(&self, rows_d: &[Vec<f64>], rows_c: &[Vec<f64>]) -> Result<f64>;

    /// Builds this kernel's dirty-side prepared state from the
    /// replication's signature cache. Called once per engine group;
    /// expensive derivations (model fits, sum trees) belong here. Failures
    /// that depend only on the dirty side are deferred into the returned
    /// object and surface on the first `score_patch` call, mirroring where
    /// the materialized path would fail.
    fn prepare(&self, cache: &SignatureCache) -> Box<dyn PreparedKernel>;
}

/// A kernel's dirty-side state, prepared once per replication.
///
/// Every score is `≥ 0` (or an `Err`). The budget optimizer relies on this
/// to bound a candidate's marginal gain without scoring it.
pub trait PreparedKernel: Send + Sync {
    /// Scores the cleaned cloud given as sparse row edits against the
    /// cache this state was prepared from. Bit-identical to the kernel's
    /// [`DistortionKernel::score_rows`] on `patched.materialize()`.
    fn score_patch(&self, patched: &PatchedCloud<'_>) -> Result<f64>;

    /// Convenience wrapper for callers that hold raw `(row, values)` edits
    /// instead of a built [`PatchedCloud`] — the budget optimizer's
    /// marginal-score hook: one candidate purchase is one edit set, and
    /// its marginal distortion is this score against the unchanged cache.
    fn score_edits(
        &self,
        cache: &SignatureCache,
        row_edits: Vec<(usize, Vec<f64>)>,
    ) -> Result<f64> {
        self.score_patch(&PatchedCloud::new(cache, row_edits))
    }
}

fn distortion_err(e: impl std::fmt::Display) -> FrameworkError {
    FrameworkError::Distortion(e.to_string())
}

/// A grid kernel's bins per axis, or [`FrameworkError::InvalidConfig`]
/// when there are none: every grid needs at least one bin per axis.
pub(crate) fn grid_bins(name: &str, bins: usize) -> Result<usize> {
    if bins == 0 {
        return Err(FrameworkError::InvalidConfig(format!(
            "distortion metric `{name}` needs at least one bin per axis"
        )));
    }
    Ok(bins)
}

// ---------------------------------------------------------------------------
// EMD
// ---------------------------------------------------------------------------

/// The paper's choice (§3.5): EMD between grid-quantized tuple clouds.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EmdKernel {
    pub bins: usize,
}

impl DistortionKernel for EmdKernel {
    fn name(&self) -> &'static str {
        "emd"
    }

    fn score_rows(&self, rows_d: &[Vec<f64>], rows_c: &[Vec<f64>]) -> Result<f64> {
        GridEmd::new(grid_bins(self.name(), self.bins)?)
            .distance(rows_d, rows_c)
            .map_err(distortion_err)
    }

    fn prepare(&self, _cache: &SignatureCache) -> Box<dyn PreparedKernel> {
        // The signature cache itself is the prepared state: sorted columns
        // and per-grid quantizations are memoized inside it.
        Box::new(*self)
    }
}

impl PreparedKernel for EmdKernel {
    fn score_patch(&self, patched: &PatchedCloud<'_>) -> Result<f64> {
        GridEmd::new(grid_bins(self.name(), self.bins)?)
            .distance_patched(patched)
            .map_err(distortion_err)
    }
}

// ---------------------------------------------------------------------------
// KL divergence
// ---------------------------------------------------------------------------

/// `KL(dirty ‖ cleaned)` over a shared min–max grid, with [`KL_EPSILON`]
/// smoothing for empty cells.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KlKernel {
    pub bins: usize,
}

impl DistortionKernel for KlKernel {
    fn name(&self) -> &'static str {
        "kl"
    }

    fn score_rows(&self, rows_d: &[Vec<f64>], rows_c: &[Vec<f64>]) -> Result<f64> {
        let bins = grid_bins(self.name(), self.bins)?;
        let pair = GridPair::rows(rows_d, rows_c, bins, Cover::MinMax).map_err(distortion_err)?;
        Ok(kl_from_quants(pair.dirty(), pair.cleaned()))
    }

    fn prepare(&self, _cache: &SignatureCache) -> Box<dyn PreparedKernel> {
        Box::new(*self)
    }
}

impl PreparedKernel for KlKernel {
    fn score_patch(&self, patched: &PatchedCloud<'_>) -> Result<f64> {
        let bins = grid_bins(self.name(), self.bins)?;
        let pair = GridPair::patched(patched, bins, Cover::MinMax).map_err(distortion_err)?;
        Ok(kl_from_quants(pair.dirty(), pair.cleaned()))
    }
}

/// KL between two quantizations of the same grid (both with mass),
/// aligned over the union of occupied cells in ascending cell order. Works
/// off dense counts when both sides have them and the sparse pair lists
/// otherwise; both alignments enumerate identical cells in identical order
/// with identical masses, so the result is bit-identical either way.
fn kl_from_quants(qd: &CloudQuant, qc: &CloudQuant) -> f64 {
    let (mut p, mut q) = (Vec::new(), Vec::new());
    match (&qd.counts, &qc.counts) {
        (Some(cd), Some(cc)) => {
            for (d, c) in cd.iter().zip(cc) {
                if *d > 0.0 || *c > 0.0 {
                    p.push(d / qd.total);
                    q.push(c / qc.total);
                }
            }
        }
        _ => {
            // Sparse alignment (grids beyond the dense budget): union the
            // two pair lists by cell centre. Centres come from the same
            // `GridSpec::center_of`, so they are exact keys; `total_cmp`
            // order over centres equals ascending cell order.
            let mut union: BTreeMap<Vec<u64>, (f64, f64)> = BTreeMap::new();
            let key = |centre: &[f64]| -> Vec<u64> { centre.iter().map(|x| x.to_bits()).collect() };
            for (centre, mass) in &qd.pairs {
                union.entry(key(centre)).or_insert((0.0, 0.0)).0 = *mass;
            }
            for (centre, mass) in &qc.pairs {
                union.entry(key(centre)).or_insert((0.0, 0.0)).1 = *mass;
            }
            for &(a, b) in union.values() {
                p.push(a);
                q.push(b);
            }
        }
    }
    // KL is ≥ 0 in exact arithmetic, but its rounded sum can dip just
    // below 0 when the two histograms nearly agree; clamp it to keep the
    // kernel contract that every score is ≥ 0.
    kl_divergence(&p, &q, KL_EPSILON).max(0.0)
}

// ---------------------------------------------------------------------------
// Mahalanobis
// ---------------------------------------------------------------------------

/// Mahalanobis distance between mean tuples under the dirty covariance.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MahalanobisKernel;

fn is_complete(row: &[f64]) -> bool {
    row.iter().all(|x| x.is_finite())
}

/// Complete-row mean via a fixed-shape pairwise [`SumTree`] — the shared
/// summation both Mahalanobis paths use, so the incremental path can
/// re-sum sparsely without changing bits.
fn complete_mean_tree(rows: &[Vec<f64>], dims: usize) -> (SumTree, usize) {
    let count = rows.iter().filter(|r| is_complete(r)).count();
    let tree = SumTree::build(dims, rows.len(), |j, buf| {
        if is_complete(&rows[j]) {
            buf.copy_from_slice(&rows[j]);
        }
    });
    (tree, count)
}

const TOO_FEW: &str = "too few complete records";

impl DistortionKernel for MahalanobisKernel {
    fn name(&self) -> &'static str {
        "mahalanobis"
    }

    fn score_rows(&self, rows_d: &[Vec<f64>], rows_c: &[Vec<f64>]) -> Result<f64> {
        let cd: Vec<Vec<f64>> = rows_d.iter().filter(|r| is_complete(r)).cloned().collect();
        if cd.len() < 3 {
            return Err(FrameworkError::Distortion(TOO_FEW.into()));
        }
        let dims = cd[0].len();
        let (tree, count) = complete_mean_tree(rows_c, dims);
        if count < 3 {
            return Err(FrameworkError::Distortion(TOO_FEW.into()));
        }
        let metric = MahalanobisMetric::fit(&cd).map_err(distortion_err)?;
        let mean_c: Vec<f64> = tree.root().iter().map(|s| s / count as f64).collect();
        metric.distance(&mean_c).map_err(distortion_err)
    }

    fn prepare(&self, cache: &SignatureCache) -> Box<dyn PreparedKernel> {
        let build = || -> std::result::Result<MahalanobisPrepared, String> {
            let cd: Vec<Vec<f64>> = cache
                .rows()
                .iter()
                .filter(|r| is_complete(r))
                .cloned()
                .collect();
            if cd.len() < 3 {
                return Err(TOO_FEW.into());
            }
            let dims = cd[0].len();
            let metric = MahalanobisMetric::fit(&cd).map_err(|e| e.to_string())?;
            let (tree, count) = complete_mean_tree(cache.rows(), dims);
            Ok(MahalanobisPrepared {
                metric,
                tree,
                dirty_complete: count,
            })
        };
        match build() {
            Ok(prepared) => Box::new(prepared),
            Err(message) => Box::new(FailedPrepare { message }),
        }
    }
}

/// Prepared dirty side of the Mahalanobis kernel: the fitted metric (the
/// mean and factored covariance of the dirty complete rows) and the dirty
/// rows' pairwise sum tree, whose root is re-summed sparsely per unit.
struct MahalanobisPrepared {
    metric: MahalanobisMetric,
    tree: SumTree,
    dirty_complete: usize,
}

impl PreparedKernel for MahalanobisPrepared {
    fn score_patch(&self, patched: &PatchedCloud<'_>) -> Result<f64> {
        let rows = patched.cache().rows();
        let dims = self.tree.dims();
        let mut count = self.dirty_complete as i64;
        let mut leaf_edits = Vec::with_capacity(patched.num_edits());
        for (row, new_row) in patched.edits() {
            if is_complete(&rows[*row]) {
                count -= 1;
            }
            let leaf = if is_complete(new_row) {
                count += 1;
                new_row.clone()
            } else {
                vec![0.0; dims]
            };
            leaf_edits.push((*row, leaf));
        }
        if count < 3 {
            return Err(FrameworkError::Distortion(TOO_FEW.into()));
        }
        let root = self.tree.root_with_edits(&leaf_edits);
        let mean_c: Vec<f64> = root.iter().map(|s| s / count as f64).collect();
        self.metric.distance(&mean_c).map_err(distortion_err)
    }
}

/// A prepare-time failure, deferred so it surfaces where the materialized
/// path would fail (at scoring).
struct FailedPrepare {
    message: String,
}

impl PreparedKernel for FailedPrepare {
    fn score_patch(&self, _patched: &PatchedCloud<'_>) -> Result<f64> {
        Err(FrameworkError::Distortion(self.message.clone()))
    }
}

// ---------------------------------------------------------------------------
// Kolmogorov–Smirnov / Cramér–von Mises
// ---------------------------------------------------------------------------

/// Worst-axis two-sample statistic over per-axis sorted marginals: the
/// shared shape of the KS and Cramér–von Mises kernels.
fn marginal_statistic(
    cols_d: &[Vec<f64>],
    cols_c: &[Vec<f64>],
    stat: impl Fn(&[f64], &[f64]) -> f64,
) -> Result<f64> {
    let mut any = false;
    let mut worst = 0.0f64;
    for (a, b) in cols_d.iter().zip(cols_c) {
        if a.is_empty() && b.is_empty() {
            continue;
        }
        any = true;
        worst = worst.max(stat(a, b));
    }
    if !any {
        return Err(FrameworkError::Distortion(
            "no present values to compare".into(),
        ));
    }
    Ok(worst)
}

macro_rules! marginal_kernel {
    ($kernel:ident, $name:literal, $stat:path, $doc:literal) => {
        #[doc = $doc]
        #[derive(Debug, Clone, Copy)]
        pub(crate) struct $kernel;

        impl DistortionKernel for $kernel {
            fn name(&self) -> &'static str {
                $name
            }

            fn score_rows(&self, rows_d: &[Vec<f64>], rows_c: &[Vec<f64>]) -> Result<f64> {
                let cols_d = sorted_union_columns(rows_d, &[])
                    .ok_or_else(|| FrameworkError::Distortion("empty data".into()))?;
                let cols_c = sorted_union_columns(rows_c, &[])
                    .ok_or_else(|| FrameworkError::Distortion("empty data".into()))?;
                marginal_statistic(&cols_d, &cols_c, |a, b| $stat(a, b))
            }

            fn prepare(&self, _cache: &SignatureCache) -> Box<dyn PreparedKernel> {
                Box::new(*self)
            }
        }

        impl PreparedKernel for $kernel {
            fn score_patch(&self, patched: &PatchedCloud<'_>) -> Result<f64> {
                let cache = patched.cache();
                if cache.rows().is_empty() {
                    return Err(FrameworkError::Distortion("empty data".into()));
                }
                marginal_statistic(cache.sorted_columns(), patched.sorted_columns(), |a, b| {
                    $stat(a, b)
                })
            }
        }
    };
}

marginal_kernel!(
    KsKernel,
    "ks",
    ks_statistic_sorted,
    "Worst-axis two-sample Kolmogorov–Smirnov statistic over the per-axis \
     marginals (dirty vs cleaned), computed on the cached/derived sorted \
     columns."
);

marginal_kernel!(
    CvmKernel,
    "cvm",
    cvm_statistic_sorted,
    "Worst-axis two-sample Cramér–von Mises statistic over the per-axis \
     marginals (dirty vs cleaned), computed on the cached/derived sorted \
     columns."
);

// ---------------------------------------------------------------------------
// Energy distance
// ---------------------------------------------------------------------------

/// Energy distance between the grid-quantized clouds, on the same robust
/// grid and normalized signatures as EMD.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EnergyKernel {
    pub bins: usize,
}

/// Energy distance `2·E‖X−Y‖ − E‖X−X'‖ − E‖Y−Y'‖` between two discrete
/// signatures, in a fixed (a-major) summation order.
fn energy_distance(a: &Signature, b: &Signature) -> f64 {
    let wa = a.normalized_weights();
    let wb = b.normalized_weights();
    let expected = |wp: &[f64], wq: &[f64], cost: &[f64]| {
        let m = wq.len();
        let mut sum = 0.0;
        for (i, &wi) in wp.iter().enumerate() {
            for (j, &wj) in wq.iter().enumerate() {
                sum += wi * wj * cost[i * m + j];
            }
        }
        sum
    };
    let dab = expected(&wa, &wb, &ground_distance_matrix(a.points(), b.points()));
    let daa = expected(&wa, &wa, &ground_distance_matrix(a.points(), a.points()));
    let dbb = expected(&wb, &wb, &ground_distance_matrix(b.points(), b.points()));
    (2.0 * dab - daa - dbb).max(0.0)
}

impl DistortionKernel for EnergyKernel {
    fn name(&self) -> &'static str {
        "energy"
    }

    fn score_rows(&self, rows_d: &[Vec<f64>], rows_c: &[Vec<f64>]) -> Result<f64> {
        GridPair::rows(
            rows_d,
            rows_c,
            grid_bins(self.name(), self.bins)?,
            Cover::Robust,
        )
        .and_then(|pair| pair.with_signatures(energy_distance))
        .map_err(distortion_err)
    }

    fn prepare(&self, _cache: &SignatureCache) -> Box<dyn PreparedKernel> {
        Box::new(*self)
    }
}

impl PreparedKernel for EnergyKernel {
    fn score_patch(&self, patched: &PatchedCloud<'_>) -> Result<f64> {
        GridPair::patched(patched, grid_bins(self.name(), self.bins)?, Cover::Robust)
            .and_then(|pair| pair.with_signatures(energy_distance))
            .map_err(distortion_err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DistortionMetric;

    fn cloud(n: usize, shift: f64) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                vec![
                    (i as f64 * 0.61).sin() * 4.0 + 10.0 + shift,
                    (i % 9) as f64 * 0.5,
                    (i as f64 * 0.13).cos() * 2.0,
                ]
            })
            .collect()
    }

    #[test]
    fn every_kernel_scores_patch_identically_to_materialized_rows() {
        let base = {
            let mut c = cloud(120, 0.0);
            c[7][1] = f64::NAN; // dirty cloud has a gap
            c
        };
        let edit_sets: Vec<Vec<(usize, Vec<f64>)>> = vec![
            vec![],
            vec![(3, vec![55.0, -2.0, 9.0])],
            (0..30)
                .map(|r| (r * 4, vec![r as f64 * 0.2 + 5.0, 1.0, 0.5]))
                .collect(),
            vec![(11, vec![f64::NAN, 0.0, 0.0]), (7, vec![10.0, 1.0, 1.0])],
        ];
        // 41 bins per axis over 3 axes (68 921 cells) exceed the dense
        // histogram budget, pinning the sparse-grid path of every grid
        // kernel.
        let sparse = [
            DistortionMetric::Emd { bins: 41 },
            DistortionMetric::KlDivergence { bins: 41 },
            DistortionMetric::Energy { bins: 41 },
        ];
        for metric in DistortionMetric::full_suite().into_iter().chain(sparse) {
            let kernel = metric.kernel();
            let cache = SignatureCache::new(base.clone());
            let prepared = kernel.prepare(&cache);
            for edits in &edit_sets {
                let patched = PatchedCloud::new(&cache, edits.clone());
                let materialized = patched.materialize();
                let fast = prepared.score_patch(&patched).unwrap();
                let direct = kernel.score_rows(&base, &materialized).unwrap();
                assert_eq!(
                    fast.to_bits(),
                    direct.to_bits(),
                    "{} diverged on {} edits: {fast} vs {direct}",
                    kernel.name(),
                    edits.len()
                );
            }
        }
    }

    #[test]
    fn every_kernel_is_zero_on_identity_and_positive_on_a_shift() {
        let a = cloud(100, 0.0);
        let b = cloud(100, 6.0);
        for metric in DistortionMetric::full_suite() {
            let kernel = metric.kernel();
            let self_distance = kernel.score_rows(&a, &a).unwrap();
            assert!(
                self_distance.abs() < 1e-9,
                "{}: self-distance {self_distance}",
                kernel.name()
            );
            let shifted = kernel.score_rows(&a, &b).unwrap();
            assert!(
                shifted > 1e-3,
                "{}: shifted distance {shifted}",
                kernel.name()
            );
        }
    }

    #[test]
    fn emd_past_the_exact_cap_is_a_distortion_error_on_both_paths() {
        // A 20×20 lattice and its copy shifted 20 along x land in 400
        // distinct cells each of a 200-bin grid, none shared, so the
        // residual solve would need 400 × 400 = 160 000 cells, past the
        // 150 000 cap.
        let lattice: Vec<Vec<f64>> = (0..400)
            .map(|i| vec![(i % 20) as f64, (i / 20) as f64])
            .collect();
        let shifted: Vec<(usize, Vec<f64>)> = lattice
            .iter()
            .enumerate()
            .map(|(i, row)| (i, vec![row[0] + 20.0, row[1]]))
            .collect();
        let kernel = DistortionMetric::Emd { bins: 200 }.kernel();
        let cache = SignatureCache::new(lattice.clone());
        let patched = PatchedCloud::new(&cache, shifted);
        for result in [
            kernel.score_rows(&lattice, &patched.materialize()),
            kernel.prepare(&cache).score_patch(&patched),
        ] {
            assert!(
                matches!(&result, Err(FrameworkError::Distortion(m)) if m.contains("160000")),
                "{result:?}"
            );
        }
    }

    #[test]
    fn kl_smoothing_keeps_fresh_cells_finite_and_pinned_to_the_contract() {
        // Cleaning moves one row into a cell the dirty histogram leaves
        // empty: without smoothing KL(dirty ‖ cleaned) would stay finite
        // but KL(cleaned-only cells) contribute p·ln(p/ε)-style terms; the
        // shared KL_EPSILON contract pins the exact value.
        let dirty: Vec<Vec<f64>> = (0..40).map(|i| vec![(i % 5) as f64, 0.0, 0.0]).collect();
        let mut cleaned = dirty.clone();
        cleaned[0] = vec![40.0, 0.0, 0.0]; // a cell only the cleaned cloud occupies
        let kernel = DistortionMetric::KlDivergence { bins: 6 }.kernel();
        let score = kernel.score_rows(&dirty, &cleaned).unwrap();
        assert!(score.is_finite() && score > 0.0);

        // The value is exactly the shared-contract divergence: align both
        // histograms over the union of occupied cells and smooth with
        // KL_EPSILON.
        let pair = GridPair::rows(&dirty, &cleaned, 6, Cover::MinMax).unwrap();
        let (qd, qc) = (pair.dirty(), pair.cleaned());
        let (mut p, mut q) = (Vec::new(), Vec::new());
        for (d, c) in qd
            .counts
            .as_ref()
            .unwrap()
            .iter()
            .zip(qc.counts.as_ref().unwrap())
        {
            if *d > 0.0 || *c > 0.0 {
                p.push(d / qd.total);
                q.push(c / qc.total);
            }
        }
        let manual = kl_divergence(&p, &q, KL_EPSILON);
        assert_eq!(score.to_bits(), manual.to_bits());

        // And the incremental path honours the same contract bit for bit.
        let cache = SignatureCache::new(dirty.clone());
        let patched = PatchedCloud::new(&cache, vec![(0, vec![40.0, 0.0, 0.0])]);
        let fast = kernel.prepare(&cache).score_patch(&patched).unwrap();
        assert_eq!(fast.to_bits(), score.to_bits());
    }

    #[test]
    fn kl_clamps_a_rounded_negative_sum_to_zero() {
        // Two histograms one count apart in ~2.5e8: the true divergence is
        // far below the sum's rounding error, and the rounded sum lands
        // just under 0. The kernel contract (scores ≥ 0) clamps it.
        let quant = |counts: Vec<f64>| CloudQuant {
            total: counts.iter().sum(),
            occupied: counts.len(),
            counts: Some(counts),
            skipped: 0,
            pairs: Vec::new(),
        };
        let qd = quant(vec![102_838_016.0, 150_076_269.0]);
        let qc = quant(vec![102_838_016.0, 150_076_268.0]);
        let shares = |q: &CloudQuant| -> Vec<f64> {
            q.counts.iter().flatten().map(|c| c / q.total).collect()
        };
        assert!(kl_divergence(&shares(&qd), &shares(&qc), KL_EPSILON) < 0.0);
        assert_eq!(kl_from_quants(&qd, &qc), 0.0);
    }

    #[test]
    fn mahalanobis_errors_match_on_too_few_complete_records() {
        let tiny = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let kernel = DistortionMetric::Mahalanobis.kernel();
        assert!(kernel.score_rows(&tiny, &tiny).is_err());
        let cache = SignatureCache::new(tiny.clone());
        let patched = PatchedCloud::new(&cache, vec![]);
        assert!(kernel.prepare(&cache).score_patch(&patched).is_err());
    }

    #[test]
    fn marginal_kernels_detect_single_axis_damage() {
        let a = cloud(80, 0.0);
        // Destroy only axis 2: collapse it to a constant.
        let b: Vec<Vec<f64>> = a.iter().map(|r| vec![r[0], r[1], 0.0]).collect();
        for metric in [
            DistortionMetric::KolmogorovSmirnov,
            DistortionMetric::CramerVonMises,
        ] {
            let kernel = metric.kernel();
            let d = kernel.score_rows(&a, &b).unwrap();
            assert!(d > 0.05, "{}: {d}", kernel.name());
        }
    }
}
