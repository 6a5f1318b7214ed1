use crate::{NodeId, TimeSeries};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors from dataset construction and access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataError {
    /// A series' attribute count disagrees with the dataset's metadata.
    AttributeMismatch {
        /// Index of the offending series.
        series: usize,
        /// Attribute count declared by the dataset.
        expected: usize,
        /// Attribute count of the series.
        got: usize,
    },
    /// The dataset declared zero attributes.
    NoAttributes,
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::AttributeMismatch {
                series,
                expected,
                got,
            } => write!(
                f,
                "series {series} has {got} attributes, dataset declares {expected}"
            ),
            DataError::NoAttributes => write!(f, "dataset must declare at least one attribute"),
        }
    }
}

impl std::error::Error for DataError {}

/// Descriptive metadata for one attribute of the stream.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttributeMeta {
    /// Human-readable attribute name, e.g. `"load"`.
    pub name: String,
}

/// A collection of sector time series sharing one attribute schema —
/// the paper's data set `D` (or `D_I`, `D_C`, …).
///
/// Series may have different lengths (`T_ijk` varies with node uptime,
/// §3.4), but all share the same `v` attributes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    attributes: Vec<AttributeMeta>,
    series: Vec<TimeSeries>,
}

impl Dataset {
    /// Creates a dataset, validating that every series matches the schema.
    pub fn new<S: Into<String>>(
        attribute_names: Vec<S>,
        series: Vec<TimeSeries>,
    ) -> Result<Self, DataError> {
        if attribute_names.is_empty() {
            return Err(DataError::NoAttributes);
        }
        let attributes: Vec<AttributeMeta> = attribute_names
            .into_iter()
            .map(|n| AttributeMeta { name: n.into() })
            .collect();
        for (i, s) in series.iter().enumerate() {
            if s.num_attributes() != attributes.len() {
                return Err(DataError::AttributeMismatch {
                    series: i,
                    expected: attributes.len(),
                    got: s.num_attributes(),
                });
            }
        }
        Ok(Dataset { attributes, series })
    }

    /// An empty dataset with the given schema.
    pub fn empty<S: Into<String>>(attribute_names: Vec<S>) -> Result<Self, DataError> {
        Dataset::new(attribute_names, Vec::new())
    }

    /// Number of attributes `v`.
    pub fn num_attributes(&self) -> usize {
        self.attributes.len()
    }

    /// Attribute metadata.
    pub fn attributes(&self) -> &[AttributeMeta] {
        &self.attributes
    }

    /// Index of the attribute with the given name, if present.
    pub fn attribute_index(&self, name: &str) -> Option<usize> {
        self.attributes.iter().position(|a| a.name == name)
    }

    /// Number of series.
    pub fn num_series(&self) -> usize {
        self.series.len()
    }

    /// Whether the dataset holds no series.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// All series.
    pub fn series(&self) -> &[TimeSeries] {
        &self.series
    }

    /// Mutable access to all series (cleaning strategies rewrite in place).
    pub fn series_mut(&mut self) -> &mut [TimeSeries] {
        &mut self.series
    }

    /// One series by index.
    pub fn series_at(&self, i: usize) -> &TimeSeries {
        &self.series[i]
    }

    /// Appends a series; its schema must match.
    pub fn push(&mut self, s: TimeSeries) -> Result<(), DataError> {
        if s.num_attributes() != self.num_attributes() {
            return Err(DataError::AttributeMismatch {
                series: self.series.len(),
                expected: self.num_attributes(),
                got: s.num_attributes(),
            });
        }
        self.series.push(s);
        Ok(())
    }

    /// Finds the series for a given node, if present.
    pub fn series_for(&self, node: NodeId) -> Option<&TimeSeries> {
        self.series.iter().find(|s| s.node() == node)
    }

    /// Total number of records (time instances summed over series).
    pub fn num_records(&self) -> usize {
        self.series.iter().map(TimeSeries::len).sum()
    }

    /// Total number of cells (`records × v`).
    pub fn num_cells(&self) -> usize {
        self.num_records() * self.num_attributes()
    }

    /// Pools all present values of one attribute across series and time.
    pub fn pooled_attribute(&self, attr: usize) -> Vec<f64> {
        let mut out = Vec::new();
        for s in &self.series {
            out.extend(s.attribute(attr).iter().copied().filter(|x| !x.is_nan()));
        }
        out
    }

    /// Fraction of cells missing over the whole dataset (0 when empty).
    pub fn missing_fraction(&self) -> f64 {
        let cells = self.num_cells();
        if cells == 0 {
            return 0.0;
        }
        let missing: usize = self.series.iter().map(TimeSeries::missing_cells).sum();
        missing as f64 / cells as f64
    }

    /// NaN-aware data equality (see [`TimeSeries::same_data`]).
    pub fn same_data(&self, other: &Dataset) -> bool {
        self.attributes == other.attributes
            && self.series.len() == other.series.len()
            && self
                .series
                .iter()
                .zip(&other.series)
                .all(|(a, b)| a.same_data(b))
    }

    /// Builds a new dataset with the same schema from a subset of series
    /// indices (duplicates allowed — used by with-replacement sampling).
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let series = indices.iter().map(|&i| self.series[i].clone()).collect();
        Dataset {
            attributes: self.attributes.clone(),
            series,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make(n: usize) -> Dataset {
        let series = (0..n)
            .map(|i| {
                let mut s = TimeSeries::new(NodeId::new(0, 0, i as u32), 2, 3);
                for t in 0..3 {
                    s.set(0, t, (i * 10 + t) as f64);
                    s.set(1, t, 1.0);
                }
                s
            })
            .collect();
        Dataset::new(vec!["a", "b"], series).unwrap()
    }

    #[test]
    fn schema_validation() {
        let bad = TimeSeries::new(NodeId::new(0, 0, 0), 3, 1);
        let err = Dataset::new(vec!["a", "b"], vec![bad]).unwrap_err();
        assert!(matches!(err, DataError::AttributeMismatch { got: 3, .. }));
        assert!(matches!(
            Dataset::new(Vec::<String>::new(), vec![]),
            Err(DataError::NoAttributes)
        ));
    }

    #[test]
    fn push_validates_schema() {
        let mut ds = make(1);
        assert!(ds.push(TimeSeries::new(NodeId::new(0, 0, 9), 2, 2)).is_ok());
        assert!(ds
            .push(TimeSeries::new(NodeId::new(0, 0, 8), 1, 2))
            .is_err());
        assert_eq!(ds.num_series(), 2);
    }

    #[test]
    fn attribute_lookup() {
        let ds = make(1);
        assert_eq!(ds.attribute_index("b"), Some(1));
        assert_eq!(ds.attribute_index("zzz"), None);
        assert_eq!(ds.attributes()[0].name, "a");
    }

    #[test]
    fn record_counts() {
        let ds = make(4);
        assert_eq!(ds.num_records(), 12);
        assert_eq!(ds.num_cells(), 24);
    }

    #[test]
    fn pooled_attribute_flattens_in_order() {
        let ds = make(2);
        let vals = ds.pooled_attribute(0);
        assert_eq!(vals, vec![0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn missing_fraction_counts_nan_cells() {
        let mut ds = make(2);
        ds.series_mut()[0].set_missing(0, 0);
        ds.series_mut()[1].set_missing(1, 2);
        assert!((ds.missing_fraction() - 2.0 / 12.0).abs() < 1e-12);
        let empty = Dataset::empty(vec!["a", "b"]).unwrap();
        assert_eq!(empty.missing_fraction(), 0.0);
    }

    #[test]
    fn subset_allows_duplicates() {
        let ds = make(3);
        let sub = ds.subset(&[2, 2, 0]);
        assert_eq!(sub.num_series(), 3);
        assert_eq!(sub.series_at(0).node(), NodeId::new(0, 0, 2));
        assert_eq!(sub.series_at(1).node(), NodeId::new(0, 0, 2));
        assert_eq!(sub.series_at(2).node(), NodeId::new(0, 0, 0));
    }

    #[test]
    fn series_for_finds_node() {
        let ds = make(3);
        assert!(ds.series_for(NodeId::new(0, 0, 1)).is_some());
        assert!(ds.series_for(NodeId::new(9, 0, 0)).is_none());
    }
}
