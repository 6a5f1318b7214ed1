use crate::{Dataset, TimeSeries};

/// One rewritten cell of a series: attribute `attr` at time `t` takes
/// `value` (NaN marks the cell missing).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellEdit {
    /// Attribute index.
    pub attr: u32,
    /// Time index within the series.
    pub t: u32,
    /// The new value; NaN = set missing.
    pub value: f64,
}

/// A sparse edit log against a base [`Dataset`]: per series, the cells a
/// cleaning pass rewrote, in application order.
///
/// This is the cell-patch representation the experiment engine uses instead
/// of cloning the full dirty sample per strategy: cleaning records touched
/// cells here, and downstream stages materialize only what they need
/// (touched series for re-detection, patched pooled rows for distortion).
/// Edits are replayed in order, so a cell written twice (imputed, then
/// winsorized) ends at its final value.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DatasetPatch {
    edits: Vec<Vec<CellEdit>>,
}

impl DatasetPatch {
    /// An empty patch over `num_series` series.
    pub fn new(num_series: usize) -> Self {
        DatasetPatch {
            edits: vec![Vec::new(); num_series],
        }
    }

    /// Number of series the patch spans.
    pub fn num_series(&self) -> usize {
        self.edits.len()
    }

    /// Appends an edit to series `series`.
    pub fn record(&mut self, series: usize, attr: usize, t: usize, value: f64) {
        self.edits[series].push(CellEdit {
            attr: attr as u32,
            t: t as u32,
            value,
        });
    }

    /// The edit log of one series, in application order.
    pub fn series_edits(&self, series: usize) -> &[CellEdit] {
        &self.edits[series]
    }

    /// Whether series `series` has at least one edit.
    pub fn is_touched(&self, series: usize) -> bool {
        !self.edits[series].is_empty()
    }

    /// Indices of series with at least one edit.
    pub fn touched_series(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.edits.len()).filter(|&i| self.is_touched(i))
    }

    /// Total number of recorded edits.
    pub fn num_edits(&self) -> usize {
        self.edits.iter().map(Vec::len).sum()
    }

    /// Clones one base series and replays its edits.
    pub fn apply_series(&self, series: usize, base: &TimeSeries) -> TimeSeries {
        let mut out = base.clone();
        for e in &self.edits[series] {
            out.set(e.attr as usize, e.t as usize, e.value);
        }
        out
    }

    /// Materializes the fully patched dataset (a clone of `base` with all
    /// edits replayed) — the compatibility path for consumers that need an
    /// owned [`Dataset`].
    pub fn apply_to(&self, base: &Dataset) -> Dataset {
        assert_eq!(
            base.num_series(),
            self.edits.len(),
            "patch must align with base series"
        );
        let mut out = base.clone();
        for (i, series) in out.series_mut().iter_mut().enumerate() {
            for e in &self.edits[i] {
                series.set(e.attr as usize, e.t as usize, e.value);
            }
        }
        out
    }
}

/// A copy-on-write cleaned view over a base [`Dataset`]: touched series are
/// materialized clones, untouched series borrow the base.
///
/// Produced by the patch-recording cleaning path; the engine reads treated
/// series from here (only touched ones differ from the base) without ever
/// cloning the full dataset.
#[derive(Debug)]
pub struct CleanedView<'a> {
    base: &'a Dataset,
    patched: Vec<Option<TimeSeries>>,
    patch: DatasetPatch,
}

impl<'a> CleanedView<'a> {
    /// Assembles a view from a base, the per-series materialized clones
    /// (aligned with the base; `None` = untouched), and the edit log.
    pub fn new(base: &'a Dataset, patched: Vec<Option<TimeSeries>>, patch: DatasetPatch) -> Self {
        assert_eq!(
            base.num_series(),
            patched.len(),
            "view must align with base"
        );
        assert_eq!(
            base.num_series(),
            patch.num_series(),
            "patch must align with base"
        );
        CleanedView {
            base,
            patched,
            patch,
        }
    }

    /// The base (dirty) dataset.
    pub fn base(&self) -> &Dataset {
        self.base
    }

    /// The edit log.
    pub fn patch(&self) -> &DatasetPatch {
        &self.patch
    }

    /// Number of series.
    pub fn num_series(&self) -> usize {
        self.base.num_series()
    }

    /// The cleaned series at `i`: the materialized clone when touched, the
    /// base series otherwise.
    pub fn series_at(&self, i: usize) -> &TimeSeries {
        self.patched[i]
            .as_ref()
            .unwrap_or_else(|| self.base.series_at(i))
    }

    /// Whether series `i` was rewritten (a materialized clone exists).
    pub fn is_patched(&self, i: usize) -> bool {
        self.patched[i].is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    fn base() -> Dataset {
        let series = (0..3)
            .map(|i| {
                let mut s = TimeSeries::new(NodeId::new(0, 0, i as u32), 2, 4);
                for t in 0..4 {
                    s.set(0, t, (i * 10 + t) as f64);
                    s.set(1, t, 1.0);
                }
                s
            })
            .collect();
        Dataset::new(vec!["a", "b"], series).unwrap()
    }

    #[test]
    fn record_and_apply() {
        let ds = base();
        let mut p = DatasetPatch::new(3);
        p.record(1, 0, 2, 99.0);
        p.record(1, 0, 2, 50.0); // later edit wins
        p.record(2, 1, 0, f64::NAN);
        assert_eq!(p.num_edits(), 3);
        assert!(!p.is_touched(0) && p.is_touched(1) && p.is_touched(2));
        assert_eq!(p.touched_series().collect::<Vec<_>>(), vec![1, 2]);

        let out = p.apply_to(&ds);
        assert_eq!(out.series_at(1).get(0, 2), 50.0);
        assert!(out.series_at(2).is_missing(1, 0));
        assert_eq!(out.series_at(0).get(0, 0), 0.0);

        let s1 = p.apply_series(1, ds.series_at(1));
        assert_eq!(s1.get(0, 2), 50.0);
    }

    #[test]
    fn cleaned_view_serves_patched_and_base_series() {
        let ds = base();
        let mut p = DatasetPatch::new(3);
        p.record(1, 0, 0, -7.0);
        let patched = vec![None, Some(p.apply_series(1, ds.series_at(1))), None];
        let view = CleanedView::new(&ds, patched, p);
        assert!(view.is_patched(1) && !view.is_patched(0));
        assert_eq!(view.series_at(1).get(0, 0), -7.0);
        assert_eq!(view.series_at(0).get(0, 0), 0.0);
        let full = view.patch().apply_to(&ds);
        for i in 0..3 {
            assert!(view.series_at(i).same_data(full.series_at(i)));
        }
    }

    #[test]
    #[should_panic(expected = "align")]
    fn misaligned_patch_panics() {
        let ds = base();
        DatasetPatch::new(2).apply_to(&ds);
    }
}
