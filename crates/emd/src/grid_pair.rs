use crate::signature::{quantize, scaled_signature, CachedSide, CloudQuant, PatchedCloud};
use crate::{EmdError, Result, Signature};
use sd_stats::{sorted_union_columns, EditedUnion, GridSpec, RankedColumn};
use std::sync::Arc;

/// Half-width, in IQR units, of the [`Cover::Robust`] axis range.
const ROBUST_Z: f64 = 5.0;

/// How a [`GridPair`]'s shared grid spans each axis of the pooled clouds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cover {
    /// The exact min–max of the union (the KL kernel's cover).
    MinMax,
    /// `median ± 5·IQR` of the union, values outside clamped into the edge
    /// bins; an axis with zero IQR falls back to min–max. Telemetry has
    /// extreme spikes, and this cover keeps the bulk resolved while the
    /// tails pile into the edge bins (the EMD and energy cover).
    Robust,
}

impl Cover {
    /// The grid over one [`RankedColumn`] per axis, each the union of both
    /// clouds' present values on that axis: the one cover rule behind
    /// [`GridPair::rows`] and [`GridPair::patched`]. Errors with
    /// [`EmdError::NonFiniteCover`] when an axis's range is not finite.
    fn spec<C: RankedColumn>(self, columns: &[C], bins: usize) -> Result<GridSpec> {
        match self {
            Cover::MinMax => GridSpec::from_ranked_columns_min_max(columns, bins),
            Cover::Robust => GridSpec::from_ranked_columns_robust(columns, bins, ROBUST_Z),
        }
        .ok_or(EmdError::NonFiniteCover)
    }
}

/// The dirty cloud's quantization: built for this pair alone (with the
/// grid, for scaling its signature later), or served from a
/// [`SignatureCache`](crate::SignatureCache) memo together with its scaled
/// signature.
#[derive(Debug)]
enum DirtySide {
    Rows { quant: CloudQuant, spec: GridSpec },
    Cached(Arc<CachedSide>),
}

/// A dirty and a cleaned cloud quantized onto one shared grid — the front
/// half every grid kernel (EMD, KL, energy distance) shares.
///
/// The grid covers the union of both clouds (so both distributions share
/// one support, as Definition 1 requires), and [`GridPair::rows`] and
/// [`GridPair::patched`] build bit-identical pairs through one cover rule:
/// the rows form reads it from the materialized union columns, the patched
/// form selects the same order statistics by rank from the cached columns
/// and the patch's edit values, and edits the cached dirty histogram only
/// at the changed rows. Both
/// clouds are guaranteed to hold mass on the grid.
#[derive(Debug)]
pub struct GridPair {
    dirty: DirtySide,
    cleaned: CloudQuant,
}

impl GridPair {
    /// Quantizes two materialized clouds onto their shared grid. Rows with
    /// a missing (NaN) coordinate carry no density and are counted as
    /// skipped. Errors with [`EmdError::EmptyInput`] when either cloud has
    /// no complete row, and with [`EmdError::NonFiniteCover`] when an
    /// infinite value makes an axis's cover range infinite (any ±inf under
    /// [`Cover::MinMax`]; an infinite quartile under [`Cover::Robust`]).
    pub fn rows(
        dirty: &[Vec<f64>],
        cleaned: &[Vec<f64>],
        bins: usize,
        cover: Cover,
    ) -> Result<Self> {
        let columns = sorted_union_columns(dirty, cleaned).ok_or(EmdError::EmptyInput)?;
        let columns: Vec<&[f64]> = columns.iter().map(Vec::as_slice).collect();
        let spec = cover.spec(&columns, bins)?;
        let quant = quantize(&spec, dirty);
        if quant.total == 0.0 {
            return Err(EmdError::EmptyInput);
        }
        let cleaned = quantize(&spec, cleaned);
        Self::finish(DirtySide::Rows { quant, spec }, cleaned)
    }

    /// The pair for the cache's cloud against a [`PatchedCloud`]
    /// counterpart, bit-identical to [`GridPair::rows`] on
    /// `(cache.rows(), patched.materialize())`. The cover's order
    /// statistics are selected by rank from the cached sorted columns and
    /// the patch's sorted edit values ([`EditedUnion`]), so no column is merged or materialized here; only
    /// the marginal kernels (KS, Cramér–von Mises) materialize patched
    /// columns. The dirty quantization is memoized in the cache per grid.
    pub fn patched(patched: &PatchedCloud<'_>, bins: usize, cover: Cover) -> Result<Self> {
        let cache = patched.cache();
        if cache.rows().is_empty() {
            return Err(EmdError::EmptyInput);
        }
        let unions: Vec<EditedUnion<'_>> = cache
            .sorted_columns()
            .iter()
            .zip(patched.edit_columns())
            .map(|(column, edit)| EditedUnion::new(column, &edit.removed, &edit.added))
            .collect();
        let spec = cover.spec(&unions, bins)?;
        let side = cache.side_for(&spec, &normalized_scale(&spec))?;
        let cleaned = patched.quantize_on(&spec, &side.quant);
        Self::finish(DirtySide::Cached(side), cleaned)
    }

    fn finish(dirty: DirtySide, cleaned: CloudQuant) -> Result<Self> {
        if cleaned.total == 0.0 {
            return Err(EmdError::EmptyInput);
        }
        Ok(GridPair { dirty, cleaned })
    }

    /// The dirty cloud's quantization.
    pub fn dirty(&self) -> &CloudQuant {
        match &self.dirty {
            DirtySide::Rows { quant, .. } => quant,
            DirtySide::Cached(side) => &side.quant,
        }
    }

    /// The cleaned cloud's quantization.
    pub fn cleaned(&self) -> &CloudQuant {
        &self.cleaned
    }

    /// Hands the dirty and cleaned signatures to a transport-style back
    /// half. Cell centres are divided by each axis's grid range (1 on a
    /// degenerate axis), so every attribute contributes comparably to a
    /// ground distance whatever its units. The pairs are moved into their
    /// signatures, not copied; a cached dirty signature is borrowed from
    /// the memo.
    pub fn with_signatures<T>(self, back: impl FnOnce(&Signature, &Signature) -> T) -> Result<T> {
        match self.dirty {
            DirtySide::Rows { quant, spec } => {
                let scale = normalized_scale(&spec);
                let dirty = scaled_signature(quant.pairs, &scale)?;
                let cleaned = scaled_signature(self.cleaned.pairs, &scale)?;
                Ok(back(&dirty, &cleaned))
            }
            DirtySide::Cached(side) => {
                let cleaned = scaled_signature(self.cleaned.pairs, &side.scale)?;
                Ok(back(&side.signature, &cleaned))
            }
        }
    }
}

/// Each axis's grid range, or 1 where the range is degenerate.
fn normalized_scale(spec: &GridSpec) -> Vec<f64> {
    spec.axes()
        .iter()
        .map(|ax| {
            let range = ax.hi - ax.lo;
            if range > 0.0 {
                range
            } else {
                1.0
            }
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::SignatureCache;
    use proptest::prelude::*;
    use sd_stats::{min_max_range, robust_range};

    /// A cell value: mostly small integers (so ties, and values on bin
    /// edges, are common), with ±inf, ±1e300, `-0.0`/`0.0` and NaN mixed
    /// in.
    pub(crate) fn value() -> impl Strategy<Value = f64> {
        (0u8..24, -6.0f64..6.0).prop_map(|(tag, x)| match tag {
            0 => f64::INFINITY,
            1 => f64::NEG_INFINITY,
            2 => 1e300,
            3 => -1e300,
            4 => 0.0,
            5 => -0.0,
            6 => f64::NAN,
            7..=15 => x.round(),
            _ => x,
        })
    }

    /// Bounds as bits, so `-0.0` and `0.0` stay distinct.
    fn bits(range: Option<(f64, f64)>) -> Option<(u64, u64)> {
        range.map(|(lo, hi)| (lo.to_bits(), hi.to_bits()))
    }

    #[test]
    fn a_non_finite_cover_is_an_error_on_both_paths() {
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64, (i % 3) as f64]).collect();
        let cache = SignatureCache::new(rows.clone());
        let patched = PatchedCloud::new(&cache, vec![(4, vec![f64::INFINITY, 1.0])]);
        let cleaned = patched.materialize();
        for (cover, expected) in [
            (Cover::MinMax, Some(EmdError::NonFiniteCover)),
            // One infinite value leaves the quartiles finite: it piles
            // into the robust cover's edge bin.
            (Cover::Robust, None),
        ] {
            assert_eq!(GridPair::rows(&rows, &cleaned, 4, cover).err(), expected);
            assert_eq!(GridPair::patched(&patched, 4, cover).err(), expected);
        }
        // Infinite quartiles break the robust cover too.
        let to_neg_inf: Vec<(usize, Vec<f64>)> =
            (0..20).map(|i| (i, vec![f64::NEG_INFINITY, 0.0])).collect();
        let patched = PatchedCloud::new(&cache, to_neg_inf);
        assert_eq!(
            GridPair::rows(&rows, &patched.materialize(), 4, Cover::Robust).err(),
            Some(EmdError::NonFiniteCover)
        );
        assert_eq!(
            GridPair::patched(&patched, 4, Cover::Robust).err(),
            Some(EmdError::NonFiniteCover)
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every rank, and the `Robust` and `MinMax` bounds, selected from
        /// `dirty ⊎ patched` equal those of the merged column (the cached
        /// column merged with `remove_then_merge`'s patched column), bit for
        /// bit. `mode` forces the edge cases: 1 empties `added` on axis 0,
        /// 2 empties `removed` on axis 1, 3 edits every row of axis 0 to
        /// NaN, 4 makes axis 0 constant (IQR 0, the min–max fallback).
        #[test]
        fn rank_selected_cover_matches_the_merged_column(
            cells in prop::collection::vec((value(), value()), 1..40),
            edits in prop::collection::vec((0usize..40, value(), value()), 0..24),
            mode in 0u8..5,
        ) {
            let mut rows: Vec<Vec<f64>> = cells.iter().map(|&(x, y)| vec![x, y]).collect();
            let n = rows.len();
            if mode == 4 {
                for row in &mut rows {
                    row[0] = 2.0;
                }
            }
            let mut edits: Vec<(usize, Vec<f64>)> = edits
                .into_iter()
                .map(|(row, x, y)| (row % n, vec![x, y]))
                .collect();
            if mode == 3 {
                edits = (0..n).map(|row| (row, vec![f64::NAN, rows[row][1]])).collect();
            }
            edits.sort_by_key(|e| e.0);
            edits.dedup_by_key(|e| e.0);
            for (row, new_row) in &mut edits {
                match mode {
                    1 => new_row[0] = f64::NAN,
                    2 => rows[*row][1] = f64::NAN,
                    _ => {}
                }
            }
            let cache = SignatureCache::new(rows);
            let patched = PatchedCloud::new(&cache, edits);
            for (k, edit) in patched.edit_columns().iter().enumerate() {
                let column = &cache.sorted_columns()[k];
                let mut merged = [column.as_slice(), &patched.sorted_columns()[k]].concat();
                merged.sort_by(f64::total_cmp);
                let merged = merged.as_slice();
                let union = EditedUnion::new(column, &edit.removed, &edit.added);
                prop_assert_eq!(union.len(), merged.len());
                for (k, x) in merged.iter().enumerate() {
                    prop_assert_eq!(union.select(k).map(f64::to_bits), Some(x.to_bits()));
                }
                prop_assert_eq!(bits(min_max_range(&union)), bits(min_max_range(&merged)));
                prop_assert_eq!(
                    bits(robust_range(&union, ROBUST_Z)),
                    bits(robust_range(&merged, ROBUST_Z)),
                    "axis {k}, mode {mode}"
                );
            }
        }
    }
}
