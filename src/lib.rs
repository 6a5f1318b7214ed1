//! # statistical-distortion
//!
//! A production-quality Rust reproduction of **“Statistical Distortion:
//! Consequences of Data Cleaning”** (Tamraparni Dasu & Ji Meng Loh,
//! PVLDB 5(11), 2012).
//!
//! Data cleaning removes glitches, but it also reshapes the underlying
//! distribution — sometimes so badly that the “cleaned” data no longer
//! represents the process that generated it. The paper proposes measuring
//! every cleaning strategy along three axes:
//!
//! 1. **glitch improvement** — how much the weighted glitch index drops;
//! 2. **statistical distortion** — the Earth Mover's Distance between the
//!    dirty data and its cleaned counterpart;
//! 3. **cost** — proxied by the fraction of data cleaned.
//!
//! This crate is a facade re-exporting the full workspace:
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`core`] | `sd-core` | the distortion metric + experimental framework |
//! | [`data`] | `sd-data` | hierarchical network time-series model |
//! | [`stats`] | `sd-stats` | summaries, histograms, KL, transforms |
//! | [`emd`] | `sd-emd` | Earth Mover's Distance engine |
//! | [`glitch`] | `sd-glitch` | glitch detection, constraints, scoring |
//! | [`netsim`] | `sd-netsim` | synthetic telemetry generator |
//! | [`cleaning`] | `sd-cleaning` | winsorize / mean-impute / MVN-impute strategies |
//! | [`sampling`] | `sd-sampling` | with-replacement replication test pairs |
//! | [`serve`] | `sd-serve` | sharded streaming service for the §3.3 online pipeline |
//! | [`linalg`] | `sd-linalg` | small dense linear algebra |
//!
//! ## Quickstart
//!
//! ```
//! use statistical_distortion::prelude::*;
//!
//! // 1. Telemetry (substitute for the paper's proprietary network data).
//! let data = generate(&NetsimConfig::small(7)).dataset;
//!
//! // 2. The paper's experimental protocol.
//! let mut config = ExperimentConfig::paper_default(20, 42);
//! config.replications = 4; // paper uses 50
//!
//! // 3. Evaluate the five paper strategies in the 3-D metric.
//! let strategies: Vec<_> = (1..=5).map(paper_strategy).collect();
//! let result = Experiment::new(config).run(&data, &strategies).unwrap();
//! for si in 0..5 {
//!     let (improvement, distortion) = result.mean_point(si).unwrap();
//!     println!("strategy {}: improvement {improvement:.2}, distortion {distortion:.4}", si + 1);
//! }
//! ```

#![forbid(unsafe_code)]
pub use sd_cleaning as cleaning;
pub use sd_core as core;
pub use sd_data as data;
pub use sd_emd as emd;
pub use sd_glitch as glitch;
pub use sd_linalg as linalg;
pub use sd_netsim as netsim;
pub use sd_sampling as sampling;
pub use sd_serve as serve;
pub use sd_stats as stats;

/// The most common imports, bundled.
pub mod prelude {
    pub use sd_cleaning::{
        paper_strategy, CleaningContext, CleaningStrategy, CompositeStrategy, MeanImputer,
        MissingTreatment, MvnImputer, OutlierTreatment, PartialCleaner, Winsorizer,
    };
    pub use sd_core::{
        budget_optimize, budget_optimize_reference, budget_tradeoff, cost_sweep,
        cost_sweep_reference, partition_ideal, statistical_distortion, BudgetOptimizerConfig,
        CostModel, CostSweepConfig, DistortionKernel, DistortionMetric, Experiment,
        ExperimentConfig, ExperimentResult, FrontierPoint, MetricScore, NeighborPooling,
        PreparedKernel, SelectionPolicy, StrategyOutcome, TaskExecutor, ThreadPoolExecutor,
        TransportMode, WindowedConfig, WindowedExperiment, WindowedResult,
    };
    pub use sd_data::{Dataset, NodeId, TimeSeries, Topology};
    pub use sd_emd::{emd, emd_1d_samples, GridEmd, Signature};
    pub use sd_glitch::{
        Constraint, ConstraintSet, GlitchDetector, GlitchIndex, GlitchReport, GlitchType,
        GlitchWeights, OutlierDetector,
    };
    pub use sd_netsim::{generate, stream_rows, GlitchRates, NetsimConfig};
    pub use sd_sampling::ReplicationSampler;
    pub use sd_serve::{
        ServeConfig, ServeStats, StreamReport, StreamingService, WindowLag, WindowUpdate,
    };
    pub use sd_stats::{AttributeTransform, Summary};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        use crate::prelude::*;
        let t = Topology::new(1, 1, 2);
        assert_eq!(t.num_sectors(), 2);
        let w = GlitchWeights::paper();
        assert_eq!(w.outlier, 0.5);
    }
}
