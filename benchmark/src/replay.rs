//! A serial, span-traced replay of the engine's per-replication stages
//! through the same public calls the engine path makes: replication
//! calibration, the shared dirty-side state, and one `(replication,
//! strategy)` unit (patch cleaning, re-detection, kernel scoring).
//!
//! The replay must stay bit-identical to the engine; the traced runs check
//! its outcomes against a `SerialExecutor` run and count any mismatch as a
//! failure, so a library change that moves a stage shows up here instead
//! of silently timing different work.

use crate::trace::{Tracer, CLEAN_SPANS};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sd_cleaning::{CleaningContext, CompositeStrategy, MissingTreatment, ModelFit};
use sd_core::{
    DistortionMetric, FrameworkError, PreparedExperiment, PreparedKernel, ReplicationArtifacts,
};
use sd_data::{CleanedView, Dataset};
use sd_emd::{PatchedCloud, SignatureCache};
use sd_glitch::{GlitchDetector, GlitchIndex, GlitchMatrix, GlitchWeights, OutlierDetector};
use sd_sampling::ReplicationSampler;
use sd_stats::AttributeTransform;

/// `PreparedExperiment::replication` stage by stage: sample the test pair,
/// fit the detector and cleaning context on the ideal side, annotate the
/// dirty side.
pub fn replication(
    t: &mut Tracer,
    prepared: &PreparedExperiment,
    r: usize,
) -> ReplicationArtifacts {
    t.span("core.replication", |t| {
        let config = prepared.config();
        let transforms = prepared.transforms();
        let pair = ReplicationSampler::new(config.sample_size, config.seed).sample_pair(
            prepared.dirty_pool(),
            prepared.ideal_pool(),
            r,
        );
        let outliers = t.span("glitch.fit", |_| {
            OutlierDetector::fit(&pair.ideal, transforms, config.sigma_k)
        });
        let context = t.span("cleaning.context", |_| {
            CleaningContext::from_detector(&pair.ideal, transforms, &outliers)
        });
        let detector = GlitchDetector::new(config.constraints.clone(), Some(outliers));
        let dirty_matrices = t.span("glitch.detect", |_| detector.detect_dataset(&pair.dirty));
        t.count("glitch.rows_scanned", pair.dirty.num_records() as f64);
        ReplicationArtifacts {
            replication: r,
            dirty: pair.dirty,
            ideal: pair.ideal,
            detector,
            context,
            dirty_matrices,
        }
    })
}

/// The dirty-side state one replication's units share.
pub struct Shared {
    pub artifacts: ReplicationArtifacts,
    pub cache: SignatureCache,
    pub kernels: Vec<Box<dyn PreparedKernel>>,
    pub row_offsets: Vec<usize>,
    pub model: Option<ModelFit>,
}

/// Pools the dirty sample into working-space rows (every record of every
/// series, each attribute through its transform) — the engine's
/// `pooled_working_rows`, which is crate-private.
fn pooled_rows(data: &Dataset, transforms: &[AttributeTransform]) -> Vec<Vec<f64>> {
    let mut rows = Vec::with_capacity(data.num_records());
    for series in data.series() {
        for time in 0..series.len() {
            rows.push(
                transforms
                    .iter()
                    .enumerate()
                    .map(|(a, tf)| tf.forward(series.get(a, time)))
                    .collect(),
            );
        }
    }
    rows
}

/// Builds the shared state: pooled rows and signature cache
/// (`emd.cache_build`), then every metric's prepared kernel
/// (`core.kernel.prepare`).
pub fn share(
    t: &mut Tracer,
    artifacts: ReplicationArtifacts,
    transforms: &[AttributeTransform],
    metrics: &[DistortionMetric],
) -> Shared {
    let cache = t.span("emd.cache_build", |_| {
        SignatureCache::new(pooled_rows(&artifacts.dirty, transforms))
    });
    let kernels = t.span("core.kernel.prepare", |_| {
        metrics.iter().map(|m| m.kernel().prepare(&cache)).collect()
    });
    let mut row_offsets = Vec::with_capacity(artifacts.dirty.num_series());
    let mut offset = 0;
    for series in artifacts.dirty.series() {
        row_offsets.push(offset);
        offset += series.len();
    }
    Shared {
        artifacts,
        cache,
        kernels,
        row_offsets,
        model: None,
    }
}

/// Fits the replication's imputation model once, on first use by a
/// model-imputing strategy (as the engine's shared `OnceLock` does).
pub fn ensure_model(t: &mut Tracer, shared: &mut Shared, strategy: &CompositeStrategy) {
    if strategy.missing_treatment() == MissingTreatment::ModelImpute && shared.model.is_none() {
        let a = &shared.artifacts;
        shared.model = Some(t.span("cleaning.model_fit", |_| {
            ModelFit::fit(&a.dirty, &a.dirty_matrices, &a.context, None)
        }));
    }
}

/// The model a strategy cleans with (`None` unless it model-imputes).
pub fn model_for<'a>(shared: &'a Shared, strategy: &CompositeStrategy) -> Option<&'a ModelFit> {
    if strategy.missing_treatment() == MissingTreatment::ModelImpute {
        shared.model.as_ref()
    } else {
        None
    }
}

/// Re-detects the series a view patched (`glitch.detect`); untouched
/// series keep their dirty annotations.
pub fn redetect(t: &mut Tracer, shared: &Shared, view: &CleanedView<'_>) -> Vec<GlitchMatrix> {
    let a = &shared.artifacts;
    t.span("glitch.detect", |t| {
        let mut rows = 0;
        let treated = (0..view.num_series())
            .map(|i| {
                if view.is_patched(i) {
                    rows += view.series_at(i).len();
                    a.detector.detect_series(view.series_at(i))
                } else {
                    a.dirty_matrices[i].clone()
                }
            })
            .collect();
        t.count("glitch.rows_scanned", rows as f64);
        treated
    })
}

/// The view's cell edits as working-space row edits against the pooled
/// dirty rows, grouped by row in ascending order.
pub fn row_edits(
    shared: &Shared,
    transforms: &[AttributeTransform],
    view: &CleanedView<'_>,
    series: impl Iterator<Item = usize>,
) -> Vec<(usize, Vec<f64>)> {
    let mut edits: Vec<(usize, Vec<f64>)> = Vec::new();
    for i in series {
        let offset = shared.row_offsets[i];
        for e in view.patch().series_edits(i) {
            let row = offset + e.t as usize;
            if edits.last().is_none_or(|(r, _)| *r != row) {
                edits.push((row, shared.cache.rows()[row].clone()));
            }
            if let Some((_, values)) = edits.last_mut() {
                let a = e.attr as usize;
                values[a] = transforms[a].forward(e.value);
            }
        }
    }
    edits
}

/// Scores row edits with every prepared kernel (`core.kernel.score`).
/// Each score solves exactly one transport problem; the engine's cold
/// path exposes no solve counter, so the solves are counted here.
pub fn score(
    t: &mut Tracer,
    shared: &Shared,
    edits: Vec<(usize, Vec<f64>)>,
) -> Result<Vec<f64>, FrameworkError> {
    t.span("core.kernel.score", |t| {
        let patched = PatchedCloud::new(&shared.cache, edits);
        let mut values = Vec::with_capacity(shared.kernels.len());
        for kernel in &shared.kernels {
            values.push(kernel.score_patch(&patched)?);
            t.count("emd.transport_solves", 1.0);
        }
        Ok(values)
    })
}

/// One `(group, strategy)` unit, as the engine's `evaluate_unit` runs it:
/// returns `(improvement, per-metric distortions, cells changed)`.
#[allow(clippy::too_many_arguments)]
pub fn unit(
    t: &mut Tracer,
    shared: &mut Shared,
    transforms: &[AttributeTransform],
    weights: GlitchWeights,
    seed: u64,
    group: usize,
    strategy_index: usize,
    strategy: &CompositeStrategy,
) -> Result<(f64, Vec<f64>, usize), FrameworkError> {
    t.span("core.unit", |t| {
        ensure_model(t, shared, strategy);
        let shared = &*shared;
        let a = &shared.artifacts;
        let mut rng =
            StdRng::seed_from_u64(seed ^ ((group as u64) << 20) ^ ((strategy_index as u64) << 50));
        let (view, outcome) = t.span(CLEAN_SPANS[strategy_index], |_| {
            strategy.clean_patch(
                &a.dirty,
                &a.dirty_matrices,
                &a.context,
                &mut rng,
                model_for(shared, strategy),
            )
        });
        t.count("cleaning.cells_changed", outcome.cells_changed() as f64);
        let treated = redetect(t, shared, &view);
        let improvement = GlitchIndex::new(weights).improvement(&a.dirty_matrices, &treated);
        let edits = row_edits(shared, transforms, &view, view.patch().touched_series());
        let distortions = score(t, shared, edits)?;
        Ok((improvement, distortions, outcome.cells_changed()))
    })
}
