use crate::{is_missing, NodeId, MISSING};
use serde::{Deserialize, Serialize};

/// One sector's multi-attribute stream: `v` attributes over `T` time steps.
///
/// Storage is attribute-major (`attr * len + t`), so per-attribute scans —
/// the dominant access pattern in detection, winsorization, and histogram
/// construction — are contiguous. Missing values are stored as NaN
/// (see [`crate::MISSING`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    node: NodeId,
    num_attributes: usize,
    len: usize,
    values: Vec<f64>,
}

/// An owned snapshot of one time instant of a series: the `v`-tuple `X^t`.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Time index within the series.
    pub t: usize,
    /// Attribute values at `t`; NaN marks missing cells.
    pub values: Vec<f64>,
}

impl TimeSeries {
    /// Creates a series of `num_attributes × len` with every cell missing.
    pub fn new(node: NodeId, num_attributes: usize, len: usize) -> Self {
        TimeSeries {
            node,
            num_attributes,
            len,
            values: vec![MISSING; num_attributes * len],
        }
    }

    /// Creates a series from attribute-major columns.
    ///
    /// `columns[a][t]` is attribute `a` at time `t`; all columns must share
    /// one length.
    pub fn from_columns(node: NodeId, columns: Vec<Vec<f64>>) -> Self {
        let num_attributes = columns.len();
        let len = columns.first().map_or(0, Vec::len);
        assert!(
            columns.iter().all(|c| c.len() == len),
            "ragged attribute columns"
        );
        let mut values = Vec::with_capacity(num_attributes * len);
        for col in &columns {
            values.extend_from_slice(col);
        }
        TimeSeries {
            node,
            num_attributes,
            len,
            values,
        }
    }

    /// The sector this series belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Number of attributes `v`.
    pub fn num_attributes(&self) -> usize {
        self.num_attributes
    }

    /// Number of time steps `T`.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the series has zero time steps.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Value of attribute `attr` at time `t` (NaN when missing).
    #[inline]
    pub fn get(&self, attr: usize, t: usize) -> f64 {
        self.values[self.index(attr, t)]
    }

    /// Sets attribute `attr` at time `t`.
    #[inline]
    pub fn set(&mut self, attr: usize, t: usize, value: f64) {
        let i = self.index(attr, t);
        self.values[i] = value;
    }

    /// Marks attribute `attr` at time `t` missing.
    #[inline]
    pub fn set_missing(&mut self, attr: usize, t: usize) {
        self.set(attr, t, MISSING);
    }

    /// Whether attribute `attr` at time `t` is missing.
    #[inline]
    pub fn is_missing(&self, attr: usize, t: usize) -> bool {
        is_missing(self.get(attr, t))
    }

    /// Contiguous view of one attribute across all time steps.
    pub fn attribute(&self, attr: usize) -> &[f64] {
        assert!(attr < self.num_attributes, "attribute out of range");
        &self.values[attr * self.len..(attr + 1) * self.len]
    }

    /// Mutable view of one attribute across all time steps.
    pub fn attribute_mut(&mut self, attr: usize) -> &mut [f64] {
        assert!(attr < self.num_attributes, "attribute out of range");
        &mut self.values[attr * self.len..(attr + 1) * self.len]
    }

    /// The `v`-tuple at time `t` as an owned [`Record`].
    pub fn record(&self, t: usize) -> Record {
        assert!(t < self.len, "time index out of range");
        let values = (0..self.num_attributes).map(|a| self.get(a, t)).collect();
        Record { t, values }
    }

    /// Iterator over all records in time order.
    pub fn records(&self) -> impl Iterator<Item = Record> + '_ {
        (0..self.len).map(|t| self.record(t))
    }

    /// Number of missing cells in the whole series.
    pub fn missing_cells(&self) -> usize {
        self.values.iter().filter(|&&x| is_missing(x)).count()
    }

    /// Bitwise data equality that treats NaN (missing) cells as equal.
    ///
    /// The derived `PartialEq` follows IEEE semantics where `NaN != NaN`,
    /// so two identical series with missing values compare unequal; use
    /// this for determinism and round-trip checks.
    pub fn same_data(&self, other: &TimeSeries) -> bool {
        self.node == other.node
            && self.num_attributes == other.num_attributes
            && self.len == other.len
            && self
                .values
                .iter()
                .zip(&other.values)
                .all(|(a, b)| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()))
    }

    /// An owned sub-series covering times `start..end` (clipped to the
    /// series length), preserving the node and schema. Used by the windowed
    /// experiment mode to materialize one window of the stream.
    pub fn slice(&self, start: usize, end: usize) -> TimeSeries {
        let start = start.min(self.len);
        let end = end.clamp(start, self.len);
        let len = end - start;
        let mut values = Vec::with_capacity(self.num_attributes * len);
        for a in 0..self.num_attributes {
            values.extend_from_slice(&self.attribute(a)[start..end]);
        }
        TimeSeries {
            node: self.node,
            num_attributes: self.num_attributes,
            len,
            values,
        }
    }

    #[inline]
    fn index(&self, attr: usize, t: usize) -> usize {
        assert!(
            attr < self.num_attributes && t < self.len,
            "series index out of range: attr {attr}, t {t}"
        );
        attr * self.len + t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> NodeId {
        NodeId::new(0, 0, 0)
    }

    #[test]
    fn new_series_is_fully_missing() {
        let s = TimeSeries::new(node(), 3, 5);
        assert_eq!(s.len(), 5);
        assert_eq!(s.num_attributes(), 3);
        assert_eq!(s.missing_cells(), 15);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut s = TimeSeries::new(node(), 2, 3);
        s.set(1, 2, 42.0);
        assert_eq!(s.get(1, 2), 42.0);
        assert!(!s.is_missing(1, 2));
        s.set_missing(1, 2);
        assert!(s.is_missing(1, 2));
    }

    #[test]
    fn from_columns_layout() {
        let s =
            TimeSeries::from_columns(node(), vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        assert_eq!(s.num_attributes(), 3);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(0, 1), 2.0);
        assert_eq!(s.get(2, 0), 5.0);
        assert_eq!(s.attribute(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_columns_rejects_ragged() {
        TimeSeries::from_columns(node(), vec![vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn record_extraction() {
        let s = TimeSeries::from_columns(node(), vec![vec![1.0, f64::NAN], vec![3.0, 4.0]]);
        let r0 = s.record(0);
        assert_eq!(r0.values, vec![1.0, 3.0]);
        let r1 = s.record(1);
        assert!(r1.values[0].is_nan());
        assert_eq!(r1.values[1], 4.0);
        assert_eq!(s.records().count(), 2);
    }

    #[test]
    fn fully_missing_record() {
        let s = TimeSeries::new(node(), 2, 1);
        assert!(s.record(0).values.iter().all(|x| x.is_nan()));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let s = TimeSeries::new(node(), 1, 1);
        s.get(0, 1);
    }

    #[test]
    fn attribute_mut_is_contiguous() {
        let mut s = TimeSeries::new(node(), 2, 3);
        for (t, x) in s.attribute_mut(0).iter_mut().enumerate() {
            *x = t as f64;
        }
        assert_eq!(s.attribute(0), &[0.0, 1.0, 2.0]);
        assert!(s.attribute(1).iter().all(|x| x.is_nan()));
    }
}
