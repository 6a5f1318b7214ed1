use crate::signature::{quantize, scaled_signature, CachedSide, CloudQuant, PatchedCloud};
use crate::{EmdError, Result, Signature};
use sd_stats::{sorted_union_columns, GridSpec};
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
    fn spec(self, columns: &[(&[f64], &[f64])], bins: usize) -> GridSpec {
        match self {
            Cover::MinMax => GridSpec::from_sorted_column_pairs_min_max(columns, bins),
            Cover::Robust => GridSpec::from_sorted_column_pairs_robust(columns, bins, ROBUST_Z),
        }
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
/// [`GridPair::patched`] build bit-identical pairs: the patched form reads
/// the cover from the cached and derived sorted columns by rank selection
/// and edits the cached dirty histogram only at the changed rows. Both
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
    /// no complete row.
    pub fn rows(
        dirty: &[Vec<f64>],
        cleaned: &[Vec<f64>],
        bins: usize,
        cover: Cover,
    ) -> Result<Self> {
        let columns = sorted_union_columns(dirty, cleaned).ok_or(EmdError::EmptyInput)?;
        let halves: Vec<(&[f64], &[f64])> =
            columns.iter().map(|c| (c.as_slice(), &[][..])).collect();
        let spec = cover.spec(&halves, bins);
        let quant = quantize(&spec, dirty);
        if quant.total == 0.0 {
            return Err(EmdError::EmptyInput);
        }
        let cleaned = quantize(&spec, cleaned);
        Self::finish(DirtySide::Rows { quant, spec }, cleaned)
    }

    /// The pair for the cache's cloud against a [`PatchedCloud`]
    /// counterpart, bit-identical to [`GridPair::rows`] on
    /// `(cache.rows(), patched.materialize())`. The dirty quantization is
    /// memoized in the cache per grid.
    pub fn patched(patched: &PatchedCloud<'_>, bins: usize, cover: Cover) -> Result<Self> {
        let cache = patched.cache();
        if cache.rows().is_empty() {
            return Err(EmdError::EmptyInput);
        }
        let halves: Vec<(&[f64], &[f64])> = cache
            .sorted_columns()
            .iter()
            .zip(patched.sorted_columns())
            .map(|(a, b)| (a.as_slice(), b.as_slice()))
            .collect();
        let spec = cover.spec(&halves, bins);
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
