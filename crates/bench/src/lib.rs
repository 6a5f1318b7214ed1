//! Shared plumbing for the reproduction harness binaries.
//!
//! Every table/figure binary reads the same environment knobs so the whole
//! evaluation can be scaled from CI-sized smoke runs to the paper's full
//! 20 000-series configuration:
//!
//! | Variable           | Meaning                                  | Default   |
//! |--------------------|------------------------------------------|-----------|
//! | `SD_SCALE`         | `small` / `harness` / `paper` data scale | `harness` |
//! | `SD_REPLICATIONS`  | replications `R`                         | `50`      |
//! | `SD_SEED`          | base RNG seed                            | `42`      |
//! | `SD_THREADS`       | worker threads (0 = auto)                | `0`       |
//! | `SD_OUT`           | directory for JSON artifacts (optional)  | unset     |
//!
//! An unset variable takes its default. A set one must parse: an unknown
//! scale or a malformed number names the variable and its value on stderr
//! and exits with status 2, rather than running a different configuration.
//!
//! Binaries print human-readable rows (the same rows/series the paper
//! reports) to stdout and, when `SD_OUT` is set, write machine-readable
//! JSON next to them so `EXPERIMENTS.md` numbers are regenerable.

#![forbid(unsafe_code)]
use sd_data::Dataset;
use sd_netsim::{generate, NetsimConfig};
use std::path::PathBuf;

/// Data-generation scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// 100 sectors × 60 steps — smoke tests.
    Small,
    /// 1 000 sectors × 170 steps — default harness runs.
    Harness,
    /// 20 000 sectors × 170 steps — the paper's full scale.
    Paper,
}

impl Scale {
    /// The netsim configuration for this scale.
    pub fn netsim_config(self, seed: u64) -> NetsimConfig {
        match self {
            Scale::Small => NetsimConfig::small(seed),
            Scale::Harness => NetsimConfig::harness_scale(seed),
            Scale::Paper => NetsimConfig::paper_scale(seed),
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Small => "small",
            Scale::Harness => "harness",
            Scale::Paper => "paper",
        }
    }
}

/// Common harness configuration, read from the environment.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Data scale.
    pub scale: Scale,
    /// Replications `R`.
    pub replications: usize,
    /// Base seed.
    pub seed: u64,
    /// Worker threads (0 = auto).
    pub threads: usize,
    /// Optional JSON artifact directory.
    pub out_dir: Option<PathBuf>,
}

impl HarnessConfig {
    /// Reads the environment (see the module docs for the knobs). An
    /// unknown scale or a malformed number is reported on stderr and exits
    /// the process with status 2.
    pub fn from_env() -> Self {
        let lookup = |name: &str| std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
        Self::from_lookup(lookup).unwrap_or_else(|message| {
            eprintln!("error: {message}");
            std::process::exit(2);
        })
    }

    /// Parses the knobs through `lookup`, which returns a variable's value
    /// or `None` when it is unset. Unset knobs take their defaults; an
    /// unknown scale or a malformed number is an error naming the variable
    /// and its value.
    fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        let scale = match lookup("SD_SCALE").as_deref() {
            None | Some("harness") => Scale::Harness,
            Some("small") => Scale::Small,
            Some("paper") => Scale::Paper,
            Some(other) => {
                return Err(format!(
                    "SD_SCALE={other:?} is not one of small, harness, paper"
                ))
            }
        };
        fn number<T: std::str::FromStr>(
            lookup: &impl Fn(&str) -> Option<String>,
            name: &str,
            default: T,
        ) -> Result<T, String> {
            lookup(name).map_or(Ok(default), |v| {
                v.parse()
                    .map_err(|_| format!("{name}={v:?} is not a non-negative integer"))
            })
        }
        Ok(HarnessConfig {
            scale,
            replications: number(&lookup, "SD_REPLICATIONS", 50)?,
            seed: number(&lookup, "SD_SEED", 42)?,
            threads: number(&lookup, "SD_THREADS", 0)?,
            out_dir: lookup("SD_OUT").map(PathBuf::from),
        })
    }

    /// Generates the telemetry data set for this configuration and prints
    /// a provenance banner.
    pub fn generate_data(&self) -> Dataset {
        let config = self.scale.netsim_config(self.seed);
        eprintln!(
            "# scale={} series={} len={} seed={} replications={}",
            self.scale.label(),
            config.num_series(),
            config.series_len,
            self.seed,
            self.replications,
        );
        generate(&config).dataset
    }

    /// Writes a JSON artifact when `SD_OUT` is configured.
    pub fn write_json(&self, name: &str, value: &serde_json::Value) {
        let Some(dir) = &self.out_dir else {
            return;
        };
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("warning: cannot create {}: {e}", dir.display());
            return;
        }
        let path = dir.join(name);
        match serde_json::to_string_pretty(value) {
            Ok(body) => {
                if let Err(e) = std::fs::write(&path, body) {
                    eprintln!("warning: cannot write {}: {e}", path.display());
                } else {
                    eprintln!("# wrote {}", path.display());
                }
            }
            Err(e) => eprintln!("warning: cannot serialize {name}: {e}"),
        }
    }
}

/// Mean and sample standard deviation of a slice (0 std for n < 2).
pub fn mean_sd(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    if xs.len() < 2 {
        return (mean, 0.0);
    }
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
    (mean, var.sqrt())
}

/// Prints a PASS/FAIL shape-check line (the qualitative targets from the
/// paper that the reproduction must preserve) and returns the verdict.
pub fn shape_check(label: &str, ok: bool) -> bool {
    println!(
        "shape-check: {label} … {}",
        if ok { "PASS" } else { "FAIL" }
    );
    ok
}

/// Ends a gated binary: exits with status 1 unless every shape check
/// passed (`passed`), so a run that no longer reproduces the paper's
/// findings fails.
pub fn gate_shape_checks(passed: bool) {
    if !passed {
        eprintln!("shape-check: at least one check failed");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_sd_of_known_sample() {
        let (m, s) = mean_sd(&[1.0, 2.0, 3.0]);
        assert!((m - 2.0).abs() < 1e-12);
        assert!((s - 1.0).abs() < 1e-12);
        let (m1, s1) = mean_sd(&[5.0]);
        assert_eq!((m1, s1), (5.0, 0.0));
        assert!(mean_sd(&[]).0.is_nan());
    }

    #[test]
    fn scale_labels() {
        assert_eq!(Scale::Small.label(), "small");
        assert_eq!(Scale::Paper.netsim_config(1).num_series(), 20_000);
    }

    fn parse(vars: &[(&str, &str)]) -> Result<HarnessConfig, String> {
        HarnessConfig::from_lookup(|name| {
            vars.iter()
                .find(|(key, _)| *key == name)
                .map(|(_, value)| value.to_string())
        })
    }

    #[test]
    fn unset_knobs_take_their_defaults() {
        let config = parse(&[]).unwrap();
        assert_eq!(config.scale, Scale::Harness);
        assert_eq!(config.replications, 50);
        assert_eq!(config.seed, 42);
        assert_eq!(config.threads, 0);
        assert_eq!(config.out_dir, None);
    }

    #[test]
    fn accepted_values_parse() {
        for (value, scale) in [
            ("small", Scale::Small),
            ("harness", Scale::Harness),
            ("paper", Scale::Paper),
        ] {
            assert_eq!(parse(&[("SD_SCALE", value)]).unwrap().scale, scale);
        }
        let config = parse(&[
            ("SD_REPLICATIONS", "3"),
            ("SD_SEED", "18446744073709551615"),
            ("SD_THREADS", "2"),
            ("SD_OUT", "out"),
        ])
        .unwrap();
        assert_eq!(config.replications, 3);
        assert_eq!(config.seed, u64::MAX);
        assert_eq!(config.threads, 2);
        assert_eq!(config.out_dir, Some(PathBuf::from("out")));
    }

    #[test]
    fn malformed_values_are_rejected_by_name() {
        for (name, value) in [
            ("SD_SCALE", "Small"),
            ("SD_SCALE", ""),
            ("SD_REPLICATIONS", "abc"),
            ("SD_REPLICATIONS", "2.5"),
            ("SD_SEED", "x"),
            ("SD_THREADS", "-1"),
        ] {
            let message = parse(&[(name, value)]).unwrap_err();
            assert!(
                message.contains(name) && message.contains(&format!("{value:?}")),
                "{name}={value:?} -> {message}"
            );
        }
    }
}
