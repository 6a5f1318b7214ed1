//! The ratchet baseline (`lint-baseline.json`) of P001 and P002.
//!
//! Panic-hygiene debt predates the gate, so P001 and P002 cannot start at
//! zero without a flag day. Instead the committed baseline records, per
//! rule, per-crate counts of surviving (unallowed, non-test) findings: a
//! count at or below its baseline passes, any *increase* fails, and
//! `sd-lint ratchet` rewrites the file downward once debt is paid off. The
//! file is key-sorted JSON, so diffs read as "which crate got cleaner".

use crate::diagnostics::{RuleId, RATCHETED_RULES};
use serde_json::Value;
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// The committed file name, at the workspace root.
pub const BASELINE_FILE: &str = "lint-baseline.json";

/// On-disk format version.
const FORMAT: f64 = 1.0;

/// Per-crate P001 and P002 debt ceilings.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    /// Crate name → maximum tolerated P001 count.
    pub p001: BTreeMap<String, usize>,
    /// Crate name → maximum tolerated P002 count.
    pub p002: BTreeMap<String, usize>,
}

impl Baseline {
    /// Loads the baseline from `root/lint-baseline.json`; a missing file
    /// is an empty baseline (every crate must then be at zero).
    pub fn load(root: &Path) -> Result<Baseline, String> {
        let path = root.join(BASELINE_FILE);
        if !path.exists() {
            return Ok(Baseline::default());
        }
        let text = fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let value = serde_json::from_str(&text)
            .map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
        let mut baseline = Baseline::default();
        for rule in RATCHETED_RULES {
            let key = rule.as_str().to_ascii_lowercase();
            let Some(map) = value.get(&key).and_then(Value::as_object) else {
                return Err(format!(
                    "{}: expected an object with a \"{key}\" member",
                    path.display()
                ));
            };
            for (crate_name, count) in map {
                let Some(count) = count.as_f64() else {
                    return Err(format!(
                        "{}: {key}.{crate_name} is not a number",
                        path.display()
                    ));
                };
                baseline
                    .ceilings_mut(rule)
                    .insert(crate_name.clone(), count as usize);
            }
        }
        Ok(baseline)
    }

    /// The per-crate ceilings of a ratcheted rule (P002's for P002, P001's
    /// for any other rule).
    pub fn ceilings(&self, rule: RuleId) -> &BTreeMap<String, usize> {
        match rule {
            RuleId::P002 => &self.p002,
            _ => &self.p001,
        }
    }

    fn ceilings_mut(&mut self, rule: RuleId) -> &mut BTreeMap<String, usize> {
        match rule {
            RuleId::P002 => &mut self.p002,
            _ => &mut self.p001,
        }
    }

    /// Serializes to the committed JSON shape.
    pub fn to_value(&self) -> Value {
        let counts = |map: &BTreeMap<String, usize>| {
            map.iter()
                .map(|(crate_name, &count)| (crate_name.clone(), Value::Number(count as f64)))
                .collect()
        };
        let mut top = BTreeMap::new();
        top.insert("format".to_string(), Value::Number(FORMAT));
        top.insert("p001".to_string(), Value::Object(counts(&self.p001)));
        top.insert("p002".to_string(), Value::Object(counts(&self.p002)));
        Value::Object(top)
    }

    /// Writes the baseline to `root/lint-baseline.json`.
    pub fn save(&self, root: &Path) -> Result<(), String> {
        let path = root.join(BASELINE_FILE);
        let text = serde_json::to_string_pretty(&self.to_value())
            .map_err(|e| format!("cannot serialize baseline: {e}"))?;
        fs::write(&path, text + "\n").map_err(|e| format!("cannot write {}: {e}", path.display()))
    }

    /// The tolerated P001 count for `crate_name` (0 when unlisted).
    pub fn ceiling(&self, crate_name: &str) -> usize {
        self.ceiling_for(RuleId::P001, crate_name)
    }

    /// The tolerated count of `rule` for `crate_name` (0 when unlisted).
    pub fn ceiling_for(&self, rule: RuleId, crate_name: &str) -> usize {
        self.ceilings(rule).get(crate_name).copied().unwrap_or(0)
    }
}

/// A per-crate comparison of a ratcheted rule's current count against the
/// baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RatchetDelta {
    /// The ratcheted rule (P001 or P002).
    pub rule: RuleId,
    /// Crate name.
    pub crate_name: String,
    /// Current surviving count.
    pub current: usize,
    /// Baseline ceiling.
    pub ceiling: usize,
}

impl RatchetDelta {
    /// The crate regressed (fails the gate).
    pub fn regressed(&self) -> bool {
        self.current > self.ceiling
    }

    /// The crate got cleaner (ratchet opportunity).
    pub fn improvable(&self) -> bool {
        self.current < self.ceiling
    }
}

/// Joins one rule's current counts with its baseline ceilings over the
/// union of crates.
pub fn compare(
    rule: RuleId,
    current: &BTreeMap<String, usize>,
    baseline: &Baseline,
) -> Vec<RatchetDelta> {
    let mut names: Vec<&String> = current
        .keys()
        .chain(baseline.ceilings(rule).keys())
        .collect();
    names.sort();
    names.dedup();
    names
        .into_iter()
        .map(|name| RatchetDelta {
            rule,
            crate_name: name.clone(),
            current: current.get(name).copied().unwrap_or(0),
            ceiling: baseline.ceiling_for(rule, name),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_json() {
        let mut b = Baseline::default();
        b.p001.insert("sd-emd".into(), 2);
        b.p001.insert("sd-bench".into(), 35);
        b.p002.insert("sd-stats".into(), 6);
        let text = serde_json::to_string_pretty(&b.to_value()).expect("serializes");
        let value = serde_json::from_str(&text).expect("parses");
        let mut restored = Baseline::default();
        for rule in RATCHETED_RULES {
            let key = rule.as_str().to_ascii_lowercase();
            for (k, v) in value
                .get(&key)
                .and_then(Value::as_object)
                .expect("ceilings")
            {
                restored
                    .ceilings_mut(rule)
                    .insert(k.clone(), v.as_f64().expect("number") as usize);
            }
        }
        assert_eq!(restored, b);
    }

    #[test]
    fn compare_covers_the_union() {
        let mut baseline = Baseline::default();
        baseline.p001.insert("sd-emd".into(), 2);
        baseline.p001.insert("sd-stats".into(), 3);
        let mut current = BTreeMap::new();
        current.insert("sd-emd".to_string(), 3); // regression
        current.insert("sd-core".to_string(), 1); // new debt (ceiling 0)
        let deltas = compare(RuleId::P001, &current, &baseline);
        let by_name = |n: &str| {
            deltas
                .iter()
                .find(|d| d.crate_name == n)
                .expect("delta present")
        };
        assert!(by_name("sd-emd").regressed());
        assert!(by_name("sd-core").regressed());
        assert!(by_name("sd-stats").improvable(), "count 0 below ceiling 3");
        // P002 reads its own ceilings: the P001 ones do not carry over.
        let p002 = compare(RuleId::P002, &current, &baseline);
        assert!(p002
            .iter()
            .all(|d| d.rule == RuleId::P002 && d.ceiling == 0));
    }

    #[test]
    fn missing_baseline_is_empty() {
        let b = Baseline::load(Path::new("/nonexistent/dir")).expect("missing file is ok");
        assert_eq!(b.ceiling("sd-core"), 0);
    }
}
