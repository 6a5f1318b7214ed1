use sd_data::{is_missing, TimeSeries};
use serde::{Deserialize, Serialize};

/// A declarative inconsistency rule over the attributes of one record.
///
/// The paper's case study (§4.1) uses exactly three: "(1) Attribute 1
/// should be greater than or equal to zero, (2) Attribute 3 should lie in
/// the interval [0, 1], and (3) Attribute 1 should not be populated if
/// Attribute 3 is missing." All three shapes — plus a generic pairwise
/// comparison — are expressible here.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Constraint {
    /// `attr >= 0` (violated by present negative values).
    NonNegative {
        /// Attribute index.
        attr: usize,
    },
    /// `lo <= attr <= hi` (violated by present values outside the range).
    Range {
        /// Attribute index.
        attr: usize,
        /// Inclusive lower bound.
        lo: f64,
        /// Inclusive upper bound.
        hi: f64,
    },
    /// `attr` must not be populated when `other` is missing — the paper's
    /// cross-attribute rule. A violation flags `attr`.
    NotPopulatedIf {
        /// The attribute that must not be populated.
        attr: usize,
        /// The attribute whose missingness triggers the rule.
        other: usize,
    },
    /// `attr > other` when both are present; a violation flags both.
    GreaterThan {
        /// Left attribute.
        attr: usize,
        /// Right attribute.
        other: usize,
    },
}

impl Constraint {
    /// Evaluates the constraint on a record, pushing the indices of
    /// attributes to flag as inconsistent into `flags`.
    ///
    /// Missing values never violate value constraints (they are already
    /// *missing* glitches); only present values can be inconsistent.
    pub fn evaluate(&self, record: &[f64], flags: &mut Vec<usize>) {
        let (attr, other) = self.operands();
        if self.violated(record[attr], record[other]) {
            flags.push(attr);
            if self.flags_other() {
                flags.push(other);
            }
        }
    }

    /// [`Constraint::evaluate`] over every record of `series` at once:
    /// calls `flag(t, attr)` for each attribute the rule flags at time
    /// `t`, reading the operand columns in place without allocating.
    fn for_each_violation(&self, series: &TimeSeries, mut flag: impl FnMut(usize, usize)) {
        let (attr, other) = self.operands();
        let both = self.flags_other();
        let columns = series.attribute(attr).iter().zip(series.attribute(other));
        for (t, (&x, &y)) in columns.enumerate() {
            if self.violated(x, y) {
                flag(t, attr);
                if both {
                    flag(t, other);
                }
            }
        }
    }

    /// The attributes the rule reads, `(attr, other)`; a single-attribute
    /// rule reads `attr` twice.
    fn operands(&self) -> (usize, usize) {
        match *self {
            Constraint::NonNegative { attr } | Constraint::Range { attr, .. } => (attr, attr),
            Constraint::NotPopulatedIf { attr, other }
            | Constraint::GreaterThan { attr, other } => (attr, other),
        }
    }

    /// Whether a violation flags `other` as well as `attr`.
    fn flags_other(&self) -> bool {
        matches!(self, Constraint::GreaterThan { .. })
    }

    /// Whether the operand values `x` (of `attr`) and `y` (of `other`)
    /// violate the rule.
    #[inline]
    fn violated(&self, x: f64, y: f64) -> bool {
        match *self {
            Constraint::NonNegative { .. } => !is_missing(x) && x < 0.0,
            Constraint::Range { lo, hi, .. } => !is_missing(x) && (x < lo || x > hi),
            Constraint::NotPopulatedIf { .. } => !is_missing(x) && is_missing(y),
            Constraint::GreaterThan { .. } => !is_missing(x) && !is_missing(y) && x <= y,
        }
    }

    /// The largest attribute index this constraint references.
    pub fn max_attr(&self) -> usize {
        match *self {
            Constraint::NonNegative { attr } => attr,
            Constraint::Range { attr, .. } => attr,
            Constraint::NotPopulatedIf { attr, other } => attr.max(other),
            Constraint::GreaterThan { attr, other } => attr.max(other),
        }
    }
}

/// An ordered collection of constraints evaluated together.
///
/// The paper sets "a single flag for all inconsistency types" per
/// attribute; [`ConstraintSet::violations`] returns the deduplicated set of
/// flagged attribute indices for one record.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ConstraintSet {
    constraints: Vec<Constraint>,
}

impl ConstraintSet {
    /// Creates a constraint set.
    pub fn new(constraints: Vec<Constraint>) -> Self {
        ConstraintSet { constraints }
    }

    /// The paper's three case-study constraints, parameterized by the
    /// attribute indices of "Attribute 1" and "Attribute 3".
    pub fn paper_rules(attr1: usize, attr3: usize) -> Self {
        ConstraintSet::new(vec![
            Constraint::NonNegative { attr: attr1 },
            Constraint::Range {
                attr: attr3,
                lo: 0.0,
                hi: 1.0,
            },
            Constraint::NotPopulatedIf {
                attr: attr1,
                other: attr3,
            },
        ])
    }

    /// The constraints, in evaluation order.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    /// Evaluates every constraint on a record and returns the sorted,
    /// deduplicated attribute indices flagged as inconsistent.
    pub fn violations(&self, record: &[f64]) -> Vec<usize> {
        let mut flags = Vec::new();
        for c in &self.constraints {
            c.evaluate(record, &mut flags);
        }
        flags.sort_unstable();
        flags.dedup();
        flags
    }

    /// [`ConstraintSet::violations`] over every record of `series` at
    /// once: calls `flag(t, attr)` for each flag, constraint by constraint.
    /// An attribute flagged by several constraints at one `t` is reported
    /// once per constraint, so callers must treat the calls as set
    /// insertions.
    pub(crate) fn for_each_violation(
        &self,
        series: &TimeSeries,
        mut flag: impl FnMut(usize, usize),
    ) {
        for c in &self.constraints {
            c.for_each_violation(series, &mut flag);
        }
    }

    /// The number of attributes a record must have for safe evaluation.
    pub fn required_attributes(&self) -> usize {
        self.constraints
            .iter()
            .map(|c| c.max_attr() + 1)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sd_data::MISSING;

    #[test]
    fn non_negative_flags_negatives_only() {
        let c = Constraint::NonNegative { attr: 0 };
        let mut flags = Vec::new();
        c.evaluate(&[-0.5, 1.0], &mut flags);
        assert_eq!(flags, vec![0]);
        flags.clear();
        c.evaluate(&[0.0, 1.0], &mut flags);
        assert!(flags.is_empty());
        flags.clear();
        c.evaluate(&[MISSING, 1.0], &mut flags);
        assert!(flags.is_empty(), "missing is not inconsistent");
    }

    #[test]
    fn range_is_inclusive() {
        let c = Constraint::Range {
            attr: 1,
            lo: 0.0,
            hi: 1.0,
        };
        let mut flags = Vec::new();
        c.evaluate(&[0.0, 1.0], &mut flags);
        assert!(flags.is_empty());
        c.evaluate(&[0.0, 1.0001], &mut flags);
        assert_eq!(flags, vec![1]);
        flags.clear();
        c.evaluate(&[0.0, -0.1], &mut flags);
        assert_eq!(flags, vec![1]);
    }

    #[test]
    fn not_populated_if_cross_rule() {
        let c = Constraint::NotPopulatedIf { attr: 0, other: 2 };
        let mut flags = Vec::new();
        // Attr 0 populated while attr 2 missing → violation on attr 0.
        c.evaluate(&[5.0, 0.0, MISSING], &mut flags);
        assert_eq!(flags, vec![0]);
        flags.clear();
        // Both missing → fine.
        c.evaluate(&[MISSING, 0.0, MISSING], &mut flags);
        assert!(flags.is_empty());
        // Both populated → fine.
        c.evaluate(&[5.0, 0.0, 0.5], &mut flags);
        assert!(flags.is_empty());
    }

    #[test]
    fn greater_than_flags_both_sides() {
        let c = Constraint::GreaterThan { attr: 0, other: 1 };
        let mut flags = Vec::new();
        c.evaluate(&[1.0, 2.0], &mut flags);
        assert_eq!(flags, vec![0, 1]);
        flags.clear();
        c.evaluate(&[3.0, 2.0], &mut flags);
        assert!(flags.is_empty());
        c.evaluate(&[MISSING, 2.0], &mut flags);
        assert!(flags.is_empty());
    }

    #[test]
    fn paper_rules_match_case_study() {
        let set = ConstraintSet::paper_rules(0, 2);
        // Clean record: nothing flagged.
        assert!(set.violations(&[10.0, 5.0, 0.7]).is_empty());
        // Negative attr 1.
        assert_eq!(set.violations(&[-1.0, 5.0, 0.7]), vec![0]);
        // Attr 3 out of [0, 1].
        assert_eq!(set.violations(&[10.0, 5.0, 1.3]), vec![2]);
        // Attr 1 populated while attr 3 missing.
        assert_eq!(set.violations(&[10.0, 5.0, MISSING]), vec![0]);
        // Double violation deduplicates: negative attr1 and attr3 missing.
        assert_eq!(set.violations(&[-10.0, 5.0, MISSING]), vec![0]);
    }

    #[test]
    fn required_attributes() {
        let set = ConstraintSet::paper_rules(0, 2);
        assert_eq!(set.required_attributes(), 3);
        assert_eq!(ConstraintSet::default().required_attributes(), 0);
        assert!(ConstraintSet::default().is_empty());
    }
}
