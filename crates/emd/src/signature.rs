use crate::{EmdError, Result};
use parking_lot::Mutex;
use sd_stats::{sorted_union_columns, GridHistogram, GridSpec, HistogramSpec};
use std::sync::{Arc, OnceLock};

/// A discrete distribution: weighted points in `R^d`.
///
/// This is the "signature" representation from the EMD literature — the
/// occupied cells of a histogram with their masses. Produced by
/// [`sd_stats::GridHistogram::signature`] and consumed by the solvers.
#[derive(Debug, Clone, PartialEq)]
pub struct Signature {
    points: Vec<Vec<f64>>,
    weights: Vec<f64>,
    total: f64,
}

impl Signature {
    /// Creates a signature. Requires at least one point, equal-length
    /// point/weight vectors, consistent dimensions, and non-negative finite
    /// weights with positive total mass.
    pub fn new(points: Vec<Vec<f64>>, weights: Vec<f64>) -> Result<Self> {
        if points.is_empty() || points.len() != weights.len() {
            return Err(EmdError::EmptyInput);
        }
        let dim = points[0].len();
        if dim == 0 {
            return Err(EmdError::EmptyInput);
        }
        for p in &points {
            if p.len() != dim {
                return Err(EmdError::DimensionMismatch {
                    expected: dim,
                    got: p.len(),
                });
            }
            if p.iter().any(|x| !x.is_finite()) {
                return Err(EmdError::InvalidWeight { value: f64::NAN });
            }
        }
        let mut total = 0.0;
        for &w in &weights {
            if !w.is_finite() || w < 0.0 {
                return Err(EmdError::InvalidWeight { value: w });
            }
            total += w;
        }
        if total <= 0.0 {
            return Err(EmdError::InvalidWeight { value: total });
        }
        Ok(Signature {
            points,
            weights,
            total,
        })
    }

    /// Builds a signature from `(point, weight)` pairs, e.g. the output of
    /// [`sd_stats::GridHistogram::signature`].
    pub fn from_pairs(pairs: Vec<(Vec<f64>, f64)>) -> Result<Self> {
        let (points, weights) = pairs.into_iter().unzip();
        Signature::new(points, weights)
    }

    /// Number of weighted points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the signature holds no points (never true for a constructed
    /// signature; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Dimensionality of the points.
    pub fn dim(&self) -> usize {
        self.points[0].len()
    }

    /// The points.
    pub fn points(&self) -> &[Vec<f64>] {
        &self.points
    }

    /// The raw weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Total mass.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Weights rescaled to sum to exactly 1.
    pub fn normalized_weights(&self) -> Vec<f64> {
        self.weights.iter().map(|w| w / self.total).collect()
    }
}

/// A signature whose point coordinates were divided per-axis before
/// construction, built from `(cell centre, probability)` pairs — e.g. a
/// [`CloudQuant`]'s pairs.
pub(crate) fn scaled_signature(pairs: Vec<(Vec<f64>, f64)>, scale: &[f64]) -> Result<Signature> {
    let scaled: Vec<(Vec<f64>, f64)> = pairs
        .into_iter()
        .map(|(mut point, w)| {
            for (x, s) in point.iter_mut().zip(scale) {
                *x /= s;
            }
            (point, w)
        })
        .collect();
    Signature::from_pairs(scaled)
}

/// Grids at most this many cells use the dense flat-array histogram.
/// 2^16 × 8 bytes = 512 KiB per histogram — cheap next to the allocation
/// and hashing traffic of the sparse map on the hot path.
const DENSE_MAX_CELLS: usize = 1 << 16;

/// Flat cell count of a grid when it fits the dense budget.
fn dense_len(spec: &GridSpec) -> Option<usize> {
    let mut n: usize = 1;
    for ax in spec.axes() {
        n = n.checked_mul(ax.bins)?;
        if n > DENSE_MAX_CELLS {
            return None;
        }
    }
    Some(n)
}

/// Flat (row-major, axis 0 most significant) cell index of a point —
/// ascending flat order is exactly the lexicographic cell order the sparse
/// histogram sorts its signature by. `None` when any coordinate is NaN.
fn flat_cell_of(spec: &GridSpec, point: &[f64]) -> Option<usize> {
    assert_eq!(point.len(), spec.dim(), "point dimension mismatch");
    let mut idx = 0usize;
    for (ax, &x) in spec.axes().iter().zip(point) {
        idx = idx * ax.bins + ax.bin_of(x)?;
    }
    Some(idx)
}

/// One cloud quantized onto a grid: signature pairs plus histogram
/// diagnostics, and — on the dense path — the raw per-cell counts, which
/// the patched-cloud pipeline edits incrementally.
///
/// Dense and sparse paths are interchangeable bit for bit: per-cell masses
/// are exact integer counts (sums of 1.0), the pair order is ascending
/// cell order in both (flat row-major index ⇔ lexicographic cell vector),
/// and centres come from the same [`GridSpec::center_of`].
///
/// Public so distortion kernels outside this crate (KL) can read the
/// histograms a [`crate::GridPair`] holds.
#[derive(Debug, Clone)]
pub struct CloudQuant {
    /// Dense per-cell counts (flat row-major, ascending flat index ⇔
    /// lexicographic cell order), when the grid fits the dense budget.
    pub counts: Option<Vec<f64>>,
    /// Total binned mass.
    pub total: f64,
    /// Rows skipped for a missing coordinate.
    pub skipped: usize,
    /// Occupied cells.
    pub occupied: usize,
    /// `(cell centre, probability)` in ascending cell order.
    pub pairs: Vec<(Vec<f64>, f64)>,
}

/// Quantizes a cloud onto a grid, taking the dense flat-array path when
/// the grid fits the dense budget (bit-identical to the sparse
/// [`GridHistogram`] path; see [`CloudQuant`]).
pub(crate) fn quantize(spec: &GridSpec, rows: &[Vec<f64>]) -> CloudQuant {
    match dense_len(spec) {
        Some(len) => {
            // Two-phase chunked binning: first bin a block of rows into a
            // small index buffer (independent iterations the compiler can
            // pipeline — no loop-carried dependence on `counts`), then
            // scatter the increments. Row order is preserved, so totals
            // accumulate in the same order as the naive per-row loop and
            // the result is bit-identical.
            const CHUNK: usize = 64;
            const MISSING: usize = usize::MAX;
            let mut counts = vec![0.0f64; len];
            let mut total = 0.0;
            let mut skipped = 0usize;
            let mut cells = [MISSING; CHUNK];
            for block in rows.chunks(CHUNK) {
                for (slot, row) in cells.iter_mut().zip(block) {
                    *slot = flat_cell_of(spec, row).unwrap_or(MISSING);
                }
                for &cell in &cells[..block.len()] {
                    if cell == MISSING {
                        skipped += 1;
                    } else {
                        counts[cell] += 1.0;
                        total += 1.0;
                    }
                }
            }
            dense_quant(spec, counts, total, skipped)
        }
        None => {
            let hist = GridHistogram::from_points(spec.clone(), rows);
            CloudQuant {
                counts: None,
                total: hist.total(),
                skipped: hist.skipped(),
                occupied: hist.occupied(),
                pairs: hist.signature(),
            }
        }
    }
}

/// Finishes a dense quantization: occupied count + signature pairs in
/// ascending flat (= lexicographic) cell order.
fn dense_quant(spec: &GridSpec, counts: Vec<f64>, total: f64, skipped: usize) -> CloudQuant {
    let mut pairs = Vec::new();
    let mut occupied = 0usize;
    if total > 0.0 {
        let dims: Vec<usize> = spec.axes().iter().map(|ax| ax.bins).collect();
        let mut cell = vec![0u32; dims.len()];
        for (i, &mass) in counts.iter().enumerate() {
            if mass <= 0.0 {
                continue;
            }
            occupied += 1;
            let mut rem = i;
            for (k, &bins) in dims.iter().enumerate().rev() {
                cell[k] = (rem % bins) as u32;
                rem /= bins;
            }
            pairs.push((spec.center_of(&cell), mass / total));
        }
    }
    CloudQuant {
        counts: Some(counts),
        total,
        skipped,
        occupied,
        pairs,
    }
}

/// One memoized quantization of the cached cloud: its histogram and scaled
/// signature for a particular `(grid, scale)`.
#[derive(Debug)]
pub(crate) struct CachedSide {
    spec: GridSpec,
    /// Per-axis divisors of the signature's cell centres.
    pub(crate) scale: Vec<f64>,
    /// The full quantization, including dense counts when the grid fits
    /// the dense budget (the patched-cloud pipeline edits a copy of them).
    pub(crate) quant: CloudQuant,
    /// The scaled signature of the cached cloud on this grid.
    pub(crate) signature: Signature,
}

/// Quantization cache for one fixed point cloud that is compared against
/// many counterpart clouds — the dirty sample of a replication, whose EMD
/// signature the experiment engine reuses across all S strategy
/// evaluations.
///
/// Two layers are cached:
///
/// 1. the cloud's per-axis **sorted columns**, so the shared-support cover
///    rule selects its order statistics from pre-sorted columns instead of
///    re-sorting the union for every comparison;
/// 2. the cloud's **histogram + scaled signature per distinct grid**, so
///    comparisons that land on the same grid (e.g. a no-op strategy, or
///    repeated scoring) skip quantization entirely.
///
/// A miss on a dense grid is **derived** from the most recently memoized
/// side with the same bins per axis: a patch moves the cover only
/// slightly, so only the rows between an old and a new bin edge change
/// cell. `bin_of` is monotone in `x`, so each edge's old and new position
/// is a binary search in the sorted column, and the values in between form
/// one narrow range per moved edge. One branch-free comparison pass over
/// each axis's values in row order (copied on the first derived miss, so a
/// cache scored once copies nothing) finds the rows inside those ranges,
/// and only they move their unit count. Counts are exact integers and the
/// total and skipped rows do not depend on the grid, so a derived side is
/// bit-identical to quantizing all rows afresh. Sparse grids, a changed
/// bin count and a degenerate axis re-bin every row.
///
/// All methods take `&self`; the memo is internally synchronized, so one
/// cache can be shared across worker threads via `Arc`. Results are
/// bit-identical to the uncached pipeline regardless of hit/miss order:
/// every memoized value is a pure function of `(cloud, grid, scale)`.
#[derive(Debug)]
pub struct SignatureCache {
    rows: Vec<Vec<f64>>,
    sorted_columns: Vec<Vec<f64>>,
    /// Per axis, the cloud's values in row order (NaN included), copied on
    /// the first derived miss so its crossing scan reads contiguous memory.
    row_columns: OnceLock<Vec<Vec<f64>>>,
    memo: Mutex<Vec<Arc<CachedSide>>>,
}

impl SignatureCache {
    /// Builds a cache around a point cloud, sorting its per-axis columns
    /// once. Empty clouds are accepted (comparisons then cover only the
    /// counterpart cloud, matching the uncached pipeline).
    pub fn new(rows: Vec<Vec<f64>>) -> Self {
        let sorted_columns = sorted_union_columns(&rows, &[]).unwrap_or_default();
        SignatureCache {
            rows,
            sorted_columns,
            row_columns: OnceLock::new(),
            memo: Mutex::new(Vec::new()),
        }
    }

    /// The cached cloud.
    pub fn rows(&self) -> &[Vec<f64>] {
        &self.rows
    }

    /// Number of memoized `(grid, scale)` quantizations.
    pub fn memoized(&self) -> usize {
        self.memo.lock().len()
    }

    /// The cached cloud's per-axis sorted columns (one half of the
    /// cover-rule input; the other half comes from the counterpart cloud).
    /// Sorted by [`f64::total_cmp`], NaN-free — exactly
    /// [`sd_stats::sorted_union_columns`] of the cloud alone, so external
    /// kernels comparing sorted marginals (KS, Cramér–von Mises) read the
    /// same columns the EMD cover rule consumes.
    pub fn sorted_columns(&self) -> &[Vec<f64>] {
        &self.sorted_columns
    }

    /// The cached cloud's quantization for `(spec, scale)`, built on first
    /// use and memoized: derived from the most recent memoized side with
    /// the same dense grid shape when there is one, quantized from every
    /// row otherwise (bit-identical either way). Errors with
    /// [`EmdError::EmptyInput`] when the cloud contributes no density on
    /// the grid (no complete rows).
    pub(crate) fn side_for(&self, spec: &GridSpec, scale: &[f64]) -> Result<Arc<CachedSide>> {
        let base = {
            let memo = self.memo.lock();
            if let Some(entry) = memo.iter().find(|e| e.spec == *spec && e.scale == scale) {
                return Ok(Arc::clone(entry));
            }
            memo.iter()
                .rev()
                .find(|e| e.quant.counts.is_some() && same_shape(&e.spec, spec))
                .cloned()
        };
        // Build outside the lock: quantization is deterministic, so a
        // concurrent duplicate build yields identical bits and either copy
        // may be memoized.
        let quant = match base.and_then(|base| self.derive(&base, spec)) {
            Some(quant) => quant,
            None => quantize(spec, &self.rows),
        };
        if quant.total == 0.0 {
            return Err(EmdError::EmptyInput);
        }
        let signature = scaled_signature(quant.pairs.clone(), scale)?;
        let entry = Arc::new(CachedSide {
            spec: spec.clone(),
            scale: scale.to_vec(),
            quant,
            signature,
        });
        let mut memo = self.memo.lock();
        if let Some(existing) = memo.iter().find(|e| e.spec == *spec && e.scale == scale) {
            return Ok(Arc::clone(existing));
        }
        memo.push(Arc::clone(&entry));
        Ok(entry)
    }

    /// `base`'s quantization moved onto `spec`, a dense grid of the same
    /// shape: only rows between an old and a new bin edge are re-binned.
    /// `None` when `base` is sparse or an axis of either grid has no
    /// finite positive bin width.
    fn derive(&self, base: &CachedSide, spec: &GridSpec) -> Option<CloudQuant> {
        let counts = base.quant.counts.as_ref()?;
        let regular = |ax: &HistogramSpec| ax.width().is_finite() && ax.width() > 0.0;
        if !base.spec.axes().iter().chain(spec.axes()).all(regular) {
            return None;
        }
        let row_columns = self.row_columns.get_or_init(|| {
            let dim = self.sorted_columns.len();
            (0..dim)
                .map(|k| self.rows.iter().map(|row| row[k]).collect())
                .collect()
        });
        let mut moved: Vec<u32> = Vec::new();
        for (((old, new), sorted), column) in base
            .spec
            .axes()
            .iter()
            .zip(spec.axes())
            .zip(&self.sorted_columns)
            .zip(row_columns)
        {
            // `bin_of` is monotone in `x`, so the values below an edge are a
            // prefix of the sorted column under either grid, and the values
            // between the two prefix ends change bin. Equal values share a
            // bin, so a range never splits a run of ties.
            let ranges: Vec<(f64, f64)> = (1..new.bins)
                .filter_map(|edge| {
                    let a = sorted.partition_point(|&x| old.bin_of(x) < Some(edge));
                    let b = sorted.partition_point(|&x| new.bin_of(x) < Some(edge));
                    (a != b).then(|| (sorted[a.min(b)], sorted[a.max(b) - 1]))
                })
                .collect();
            if ranges.is_empty() {
                continue;
            }
            for (row, &x) in (0u32..).zip(column) {
                // NaN matches no range. `<=` equates `-0.0` and `0.0`,
                // which always share a bin, so it finds the same rows.
                let mut crosses = false;
                for &(lo, hi) in &ranges {
                    crosses |= (lo <= x) & (x <= hi);
                }
                if crosses {
                    moved.push(row);
                }
            }
        }
        moved.sort_unstable();
        moved.dedup();
        let mut counts = counts.clone();
        for &row in &moved {
            let row = &self.rows[row as usize];
            // A row is skipped on both grids or on neither (only NaN is).
            if let (Some(from), Some(to)) = (flat_cell_of(&base.spec, row), flat_cell_of(spec, row))
            {
                counts[from] -= 1.0;
                counts[to] += 1.0;
            }
        }
        Some(dense_quant(
            spec,
            counts,
            base.quant.total,
            base.quant.skipped,
        ))
    }
}

/// Whether two grids have the same dimension and bins per axis (so a dense
/// histogram on one has the other's flat layout).
fn same_shape(a: &GridSpec, b: &GridSpec) -> bool {
    a.dim() == b.dim() && a.axes().iter().zip(b.axes()).all(|(x, y)| x.bins == y.bins)
}

/// A counterpart cloud expressed as sparse row edits against a
/// [`SignatureCache`]'s cloud: row `index` is replaced wholesale by a new
/// row, all other rows are shared.
///
/// This is how the experiment engine hands a *cleaned* sample to the
/// distortion kernels: the cleaned cloud is the dirty cloud with a few
/// percent of rows rewritten. Per axis, the patch sorts only the removed
/// and added values of the edits that change that axis, once per patch.
/// The grid kernels (EMD, KL, energy) read their cover from those and the
/// cached sorted columns by rank selection ([`sd_stats::EditedUnion`]),
/// and on dense grids quantize by re-binning the `k` edited rows of the
/// cached histogram, so neither the `N`-row cloud nor its columns are
/// rebuilt per comparison. Only the KS and Cramér–von Mises kernels, which
/// read whole marginals, materialize the patched sorted columns
/// ([`PatchedCloud::sorted_columns`], `O(N + k log k)`). All derivations
/// are exact: per-cell masses are integer counts and multiset edits under
/// [`f64::total_cmp`] are bit-precise, so [`crate::GridPair::patched`]
/// equals [`crate::GridPair::rows`] on the materialized cloud bit for bit.
#[derive(Debug)]
pub struct PatchedCloud<'a> {
    cache: &'a SignatureCache,
    /// `(row index, replacement row)`, ascending and unique by row.
    edits: Vec<(usize, Vec<f64>)>,
    /// Per axis, the sorted removed and added values, memoized so every
    /// kernel scoring this patched cloud shares one sort.
    edits_memo: OnceLock<Vec<EditColumn>>,
    /// Derived sorted columns, memoized for the marginal kernels (KS,
    /// Cramér–von Mises).
    columns_memo: OnceLock<Vec<Vec<f64>>>,
}

/// One axis of a patch: the old and new present values of the edited rows
/// that change this axis, each ascending by [`f64::total_cmp`].
#[derive(Debug)]
pub(crate) struct EditColumn {
    /// The changed old values (NaN-free): a sub-multiset of the cached
    /// sorted column.
    pub(crate) removed: Vec<f64>,
    /// The changed new values (NaN-free).
    pub(crate) added: Vec<f64>,
}

impl<'a> PatchedCloud<'a> {
    /// Builds a patched cloud. Edits may arrive in any order but must name
    /// distinct, in-range rows of the cached cloud, with matching
    /// dimension.
    pub fn new(cache: &'a SignatureCache, mut edits: Vec<(usize, Vec<f64>)>) -> Self {
        let dim = cache.rows().first().map(|r| r.len());
        for (row, new_row) in &edits {
            assert!(*row < cache.rows().len(), "edit row out of range");
            assert_eq!(Some(new_row.len()), dim, "edit dimension mismatch");
        }
        edits.sort_by_key(|&(row, _)| row);
        assert!(
            edits.windows(2).all(|w| w[0].0 < w[1].0),
            "duplicate edit rows"
        );
        PatchedCloud {
            cache,
            edits,
            edits_memo: OnceLock::new(),
            columns_memo: OnceLock::new(),
        }
    }

    /// The cache this patch applies to.
    pub fn cache(&self) -> &SignatureCache {
        self.cache
    }

    /// Number of replaced rows.
    pub fn num_edits(&self) -> usize {
        self.edits.len()
    }

    /// The row edits, ascending and unique by row index.
    pub fn edits(&self) -> &[(usize, Vec<f64>)] {
        &self.edits
    }

    /// The fully materialized counterpart cloud (base rows with edits
    /// substituted) — the fallback for pipelines that need real rows.
    pub fn materialize(&self) -> Vec<Vec<f64>> {
        let mut rows = self.cache.rows().to_vec();
        for (row, new_row) in &self.edits {
            rows[*row] = new_row.clone();
        }
        rows
    }

    /// Per axis, the edited rows' removed (old) and added (new) present
    /// values, each sorted by [`f64::total_cmp`]. An axis a row edit leaves
    /// bit-equal would remove and add the same value, so it is left out: a
    /// cleaning rewrites whole rows but usually changes one attribute of
    /// each. Derived once and memoized; together with the cached sorted
    /// column they define the patched column without materializing it.
    pub(crate) fn edit_columns(&self) -> &[EditColumn] {
        self.edits_memo.get_or_init(|| {
            let rows = self.cache.rows();
            (0..self.cache.sorted_columns.len())
                .map(|k| {
                    let mut removed = Vec::with_capacity(self.edits.len());
                    let mut added = Vec::with_capacity(self.edits.len());
                    for (row, new_row) in &self.edits {
                        let old = rows[*row][k];
                        if old.to_bits() == new_row[k].to_bits() {
                            continue;
                        }
                        if !old.is_nan() {
                            removed.push(old);
                        }
                        if !new_row[k].is_nan() {
                            added.push(new_row[k]);
                        }
                    }
                    removed.sort_by(f64::total_cmp);
                    added.sort_by(f64::total_cmp);
                    EditColumn { removed, added }
                })
                .collect()
        })
    }

    /// Per-axis sorted columns of the patched cloud, materialized from the
    /// cached sorted columns: remove each edited row's old value, merge in
    /// its new value. Multiset edits under [`f64::total_cmp`] are
    /// bit-precise, so the result equals sorting the materialized cloud
    /// from scratch. Derived once and memoized. Only the marginal kernels
    /// (KS, Cramér–von Mises) read it; the grid kernels select their cover
    /// by rank instead.
    pub fn sorted_columns(&self) -> &[Vec<f64>] {
        self.columns_memo.get_or_init(|| {
            self.cache
                .sorted_columns
                .iter()
                .zip(self.edit_columns())
                .map(|(col, edit)| remove_then_merge(col, &edit.removed, &edit.added))
                .collect()
        })
    }

    /// The patched cloud's quantization on `spec`, derived incrementally
    /// from the cached side's dense counts when available (`base` is the
    /// cached cloud's own quantization on the same `spec`, i.e.
    /// [`CachedSide::quant`]); falls back to materializing on sparse
    /// grids. Bit-identical to [`quantize`] on the materialized cloud.
    pub(crate) fn quantize_on(&self, spec: &GridSpec, base: &CloudQuant) -> CloudQuant {
        match &base.counts {
            Some(counts) => {
                let mut counts = counts.clone();
                let mut total = base.total;
                let mut skipped = base.skipped;
                for (row, new_row) in &self.edits {
                    match flat_cell_of(spec, &self.cache.rows()[*row]) {
                        Some(i) => {
                            counts[i] -= 1.0;
                            total -= 1.0;
                        }
                        None => skipped -= 1,
                    }
                    match flat_cell_of(spec, new_row) {
                        Some(i) => {
                            counts[i] += 1.0;
                            total += 1.0;
                        }
                        None => skipped += 1,
                    }
                }
                dense_quant(spec, counts, total, skipped)
            }
            None => quantize(spec, &self.materialize()),
        }
    }
}

/// Removes one instance of each value in `remove` from the ascending
/// column `col`, then merges in the ascending `add` — the sorted multiset
/// `col − remove + add`. Every removed value must be present.
fn remove_then_merge(col: &[f64], remove: &[f64], add: &[f64]) -> Vec<f64> {
    let mut kept = Vec::with_capacity(col.len() - remove.len() + add.len());
    let mut r = 0;
    for &x in col {
        if r < remove.len() && x.total_cmp(&remove[r]).is_eq() {
            r += 1;
        } else {
            kept.push(x);
        }
    }
    debug_assert_eq!(r, remove.len(), "removed value missing from column");
    if add.is_empty() {
        return kept;
    }
    merge_sorted(&kept, add)
}

/// Merges two ascending (by [`f64::total_cmp`]) slices into one ascending
/// vector — the multiset union, identical to sorting the concatenation.
fn merge_sorted(a: &[f64], b: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i].total_cmp(&b[j]).is_le() {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Euclidean distance between two points of equal dimension.
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// Dense ground-distance matrix `c[i][j] = ‖p_i − q_j‖₂` between two point
/// sets, flattened row-major (`i * m + j`).
///
/// The `q` coordinates are flattened into one contiguous buffer first, so
/// the hot inner loop strides sequentially through memory (independent
/// per-element distance sums the autovectorizer can unroll) instead of
/// chasing one `Vec` allocation per point. Each distance still sums its
/// squared differences in ascending axis order, exactly like
/// [`euclidean`], so the matrix is bit-identical to the nested-`Vec`
/// formulation.
pub fn ground_distance_matrix<P: AsRef<[f64]>, Q: AsRef<[f64]>>(p: &[P], q: &[Q]) -> Vec<f64> {
    let m = q.len();
    let dim = q.first().map_or(0, |r| r.as_ref().len());
    if m == 0 || p.is_empty() || dim == 0 {
        return vec![0.0; p.len() * m];
    }
    let mut qflat = Vec::with_capacity(m * dim);
    for qj in q {
        qflat.extend_from_slice(qj.as_ref());
    }
    let mut cost = vec![0.0f64; p.len() * m];
    for (pi, row) in p.iter().zip(cost.chunks_mut(m)) {
        for (c, qj) in row.iter_mut().zip(qflat.chunks_exact(dim)) {
            let mut acc = 0.0;
            for (x, y) in pi.as_ref().iter().zip(qj) {
                acc += (x - y) * (x - y);
            }
            *c = acc.sqrt();
        }
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid_pair::tests::value;
    use proptest::prelude::*;

    /// One axis of a grid: mostly a range near the data, sometimes a
    /// degenerate (widened) one, a ±1e300 one, or one whose width
    /// overflows to infinity (which re-bins every row).
    fn axis(bins: usize) -> impl Strategy<Value = HistogramSpec> {
        (0u8..10, -7.0f64..3.0, 0.0f64..10.0).prop_map(move |(tag, lo, width)| match tag {
            0 => HistogramSpec::new(lo, lo, bins),
            1 => HistogramSpec::new(-1e300, 1e300, bins),
            2 => HistogramSpec::new(-f64::MAX, f64::MAX, bins),
            _ => HistogramSpec::new(lo, lo + width, bins),
        })
    }

    fn assert_bit_identical(x: &CloudQuant, y: &CloudQuant) {
        let bits = |c: &Option<Vec<f64>>| {
            c.as_ref()
                .map(|c| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
        };
        assert_eq!(bits(&x.counts), bits(&y.counts));
        assert_eq!(x.total.to_bits(), y.total.to_bits());
        assert_eq!((x.skipped, x.occupied), (y.skipped, y.occupied));
        assert_eq!(x.pairs.len(), y.pairs.len());
        for ((xc, xm), (yc, ym)) in x.pairs.iter().zip(&y.pairs) {
            let centre = |c: &[f64]| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(centre(xc), centre(yc));
            assert_eq!(xm.to_bits(), ym.to_bits());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A chain of misses, each derived from the side memoized before
        /// it, equals quantizing every row afresh, bit for bit. `constant`
        /// pins axis 1 to one value.
        #[test]
        fn derived_side_equals_a_fresh_quantize(
            cells in prop::collection::vec((value(), value()), 1..60),
            grids in prop::collection::vec((axis(5), axis(5)), 1..6),
            constant in 0u8..2,
        ) {
            let rows: Vec<Vec<f64>> = cells
                .iter()
                .map(|&(x, y)| vec![x, if constant == 1 { 2.5 } else { y }])
                .collect();
            let cache = SignatureCache::new(rows.clone());
            let mut previous: Option<GridSpec> = None;
            for (x, y) in grids {
                let spec = GridSpec::new(vec![x, y]);
                let fresh = quantize(&spec, &rows);
                if let Some(old) = &previous {
                    let base = CachedSide {
                        spec: old.clone(),
                        scale: vec![1.0, 1.0],
                        quant: quantize(old, &rows),
                        signature: Signature::new(vec![vec![0.0, 0.0]], vec![1.0]).unwrap(),
                    };
                    // Only an axis without a finite positive bin width
                    // falls back to a full quantize.
                    let regular = old.axes().iter().chain(spec.axes()).all(|ax| {
                        ax.width().is_finite() && ax.width() > 0.0
                    });
                    match cache.derive(&base, &spec) {
                        Some(derived) => assert_bit_identical(&derived, &fresh),
                        None => prop_assert!(!regular),
                    }
                }
                match cache.side_for(&spec, &[1.0, 1.0]) {
                    Ok(side) => assert_bit_identical(&side.quant, &fresh),
                    Err(EmdError::EmptyInput) => prop_assert_eq!(fresh.total, 0.0),
                    // An overflowing axis width puts cell centres at ±inf.
                    Err(e) => prop_assert!(
                        fresh.pairs.iter().flat_map(|(c, _)| c).any(|x| !x.is_finite()),
                        "{e}"
                    ),
                }
                previous = Some(spec);
            }
        }
    }

    #[test]
    fn row_columns_are_copied_on_the_first_derived_miss() {
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64, (i % 7) as f64]).collect();
        let cache = SignatureCache::new(rows.clone());
        let grid = |hi: f64| {
            GridSpec::new(vec![
                HistogramSpec::new(0.0, hi, 4),
                HistogramSpec::new(0.0, 7.0, 4),
            ])
        };
        assert!(cache.row_columns.get().is_none());
        let first = cache.side_for(&grid(40.0), &[1.0, 1.0]).unwrap();
        // The first miss has no base side, so it copies no columns.
        assert!(cache.row_columns.get().is_none());
        let second = cache.side_for(&grid(41.0), &[1.0, 1.0]).unwrap();
        assert!(cache.row_columns.get().is_some());
        assert_bit_identical(&second.quant, &quantize(&grid(41.0), &rows));
        assert_ne!(first.quant.counts, second.quant.counts);
        assert_eq!(cache.memoized(), 2);
    }

    #[test]
    fn valid_signature() {
        let s = Signature::new(vec![vec![0.0, 1.0], vec![2.0, 3.0]], vec![1.0, 3.0]).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.dim(), 2);
        assert_eq!(s.total(), 4.0);
        let nw = s.normalized_weights();
        assert!((nw[0] - 0.25).abs() < 1e-15);
        assert!((nw[1] - 0.75).abs() < 1e-15);
    }

    #[test]
    fn rejects_empty_and_mismatched() {
        assert!(matches!(
            Signature::new(vec![], vec![]),
            Err(EmdError::EmptyInput)
        ));
        assert!(Signature::new(vec![vec![1.0]], vec![]).is_err());
        assert!(matches!(
            Signature::new(vec![vec![1.0], vec![1.0, 2.0]], vec![0.5, 0.5]),
            Err(EmdError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn rejects_bad_weights() {
        assert!(matches!(
            Signature::new(vec![vec![1.0]], vec![-1.0]),
            Err(EmdError::InvalidWeight { .. })
        ));
        assert!(Signature::new(vec![vec![1.0]], vec![f64::NAN]).is_err());
        assert!(Signature::new(vec![vec![1.0]], vec![0.0]).is_err()); // zero total
        assert!(Signature::new(vec![vec![f64::NAN]], vec![1.0]).is_err());
    }

    #[test]
    fn from_pairs_roundtrip() {
        let s = Signature::from_pairs(vec![(vec![1.0], 0.5), (vec![2.0], 0.5)]).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.points()[1], vec![2.0]);
    }

    #[test]
    fn euclidean_distances() {
        assert_eq!(euclidean(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(euclidean(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn ground_matrix_layout() {
        let p = vec![vec![0.0], vec![1.0]];
        let q = vec![vec![0.0], vec![2.0], vec![4.0]];
        let c = ground_distance_matrix(&p, &q);
        assert_eq!(c.len(), 6);
        assert_eq!(c[0], 0.0); // p0-q0
        assert_eq!(c[2], 4.0); // p0-q2
        assert_eq!(c[3], 1.0); // p1-q0
    }
}
