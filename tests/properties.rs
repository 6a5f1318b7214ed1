//! Property-based tests (proptest) on the workspace's core invariants:
//! EMD metric axioms, solver agreement, glitch-index algebra, and
//! cleaning idempotence.

use proptest::prelude::*;
use statistical_distortion::emd::{
    emd, emd_1d_weighted, ground_distance_matrix, BatchTransport, MinCostFlow, Signature,
    TransportProblem,
};
use statistical_distortion::glitch::{GlitchIndex, GlitchMatrix, GlitchType, GlitchWeights};
use statistical_distortion::stats::{quantile, sorted_present, Ecdf};

/// A random 1-D signature: points in [-50, 50], weights in (0, 10].
fn signature_1d(max_len: usize) -> impl Strategy<Value = Signature> {
    prop::collection::vec((-50.0f64..50.0, 0.01f64..10.0), 1..max_len).prop_map(|pairs| {
        let (points, weights): (Vec<Vec<f64>>, Vec<f64>) =
            pairs.into_iter().map(|(p, w)| (vec![p], w)).unzip();
        Signature::new(points, weights).expect("valid signature")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn emd_is_nonnegative_and_zero_on_self(sig in signature_1d(12)) {
        let d = emd(&sig, &sig).unwrap();
        prop_assert!(d >= 0.0);
        prop_assert!(d < 1e-9, "self-distance {d}");
    }

    #[test]
    fn emd_is_symmetric(a in signature_1d(10), b in signature_1d(10)) {
        let ab = emd(&a, &b).unwrap();
        let ba = emd(&b, &a).unwrap();
        prop_assert!((ab - ba).abs() < 1e-8, "{ab} vs {ba}");
    }

    #[test]
    fn emd_satisfies_triangle_inequality(
        a in signature_1d(8),
        b in signature_1d(8),
        c in signature_1d(8),
    ) {
        let ab = emd(&a, &b).unwrap();
        let bc = emd(&b, &c).unwrap();
        let ac = emd(&a, &c).unwrap();
        prop_assert!(ac <= ab + bc + 1e-8, "ac {ac} > ab {ab} + bc {bc}");
    }

    #[test]
    fn simplex_flow_meets_marginals(
        supply in prop::collection::vec(0.001f64..1.0, 1..24),
        demand in prop::collection::vec(0.001f64..1.0, 1..24),
        seed in 0u64..1000,
    ) {
        // The solved flow of a random balanced instance must satisfy the
        // row/column marginals to 1e-9 — floating-point residue from the
        // north-west-corner walk may not strand mass.
        let st: f64 = supply.iter().sum();
        let dt: f64 = demand.iter().sum();
        let supply: Vec<f64> = supply.iter().map(|x| x / st).collect();
        let demand: Vec<f64> = demand.iter().map(|x| x / dt).collect();
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut cost = Vec::with_capacity(supply.len() * demand.len());
        for _ in 0..supply.len() * demand.len() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            cost.push(((state >> 33) as f64) / (u32::MAX as f64) * 5.0);
        }
        let (n, m) = (supply.len(), demand.len());
        let mut problem = TransportProblem::new(supply.clone(), demand.clone(), cost).unwrap();
        problem.solve().unwrap();
        let flow = problem.flow();
        for i in 0..n {
            let row: f64 = flow[i * m..(i + 1) * m].iter().sum();
            prop_assert!((row - supply[i]).abs() < 1e-9, "row {i}: {row} vs {}", supply[i]);
        }
        for j in 0..m {
            let col: f64 = (0..n).map(|i| flow[i * m + j]).sum();
            prop_assert!((col - demand[j]).abs() < 1e-9, "col {j}: {col} vs {}", demand[j]);
        }
    }

    #[test]
    fn simplex_matches_1d_closed_form(
        a in prop::collection::vec((-20.0f64..20.0, 0.01f64..5.0), 1..10),
        b in prop::collection::vec((-20.0f64..20.0, 0.01f64..5.0), 1..10),
    ) {
        let (ap, aw): (Vec<f64>, Vec<f64>) = a.into_iter().unzip();
        let (bp, bw): (Vec<f64>, Vec<f64>) = b.into_iter().unzip();
        let exact = emd_1d_weighted(&ap, &aw, &bp, &bw).unwrap();
        let a_sig = Signature::new(ap.iter().map(|&x| vec![x]).collect(), aw.clone()).unwrap();
        let b_sig = Signature::new(bp.iter().map(|&x| vec![x]).collect(), bw.clone()).unwrap();
        let cost = ground_distance_matrix(a_sig.points(), b_sig.points());
        let via_simplex = TransportProblem::new(
            a_sig.normalized_weights(),
            b_sig.normalized_weights(),
            cost,
        )
        .unwrap()
        .solve()
        .unwrap();
        prop_assert!((exact - via_simplex).abs() < 1e-8, "{exact} vs {via_simplex}");
    }

    #[test]
    fn translation_shifts_emd_linearly(
        points in prop::collection::vec(-10.0f64..10.0, 2..20),
        delta in 0.1f64..30.0,
    ) {
        let shifted: Vec<f64> = points.iter().map(|x| x + delta).collect();
        let d = statistical_distortion::emd::emd_1d_samples(&points, &shifted).unwrap();
        prop_assert!((d - delta).abs() < 1e-9, "shift {delta} gave EMD {d}");
    }

    #[test]
    fn ecdf_is_monotone(xs in prop::collection::vec(-100.0f64..100.0, 1..50)) {
        let e = Ecdf::new(&xs);
        let sorted = sorted_present(&xs);
        let mut prev = 0.0;
        for &x in &sorted {
            let f = e.eval(x);
            prop_assert!(f >= prev);
            prop_assert!((0.0..=1.0).contains(&f));
            prev = f;
        }
        prop_assert_eq!(e.eval(f64::INFINITY), 1.0);
    }

    #[test]
    fn quantiles_are_monotone_and_bounded(
        xs in prop::collection::vec(-100.0f64..100.0, 1..50),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let a = quantile(&xs, lo).unwrap();
        let b = quantile(&xs, hi).unwrap();
        prop_assert!(a <= b);
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(a >= min && b <= max);
    }

    #[test]
    fn glitch_index_is_monotone_in_flags(
        len in 1usize..40,
        flags in prop::collection::vec((0usize..3, 0usize..40), 0..30),
    ) {
        let index = GlitchIndex::new(GlitchWeights::paper());
        let mut m = GlitchMatrix::new(1, len);
        let mut prev = 0.0;
        for (k, t) in flags {
            let g = GlitchType::from_index(k).unwrap();
            m.set(0, g, t % len);
            let score = index.node_score(&m);
            prop_assert!(score >= prev - 1e-12, "score decreased: {score} < {prev}");
            prev = score;
        }
    }

    #[test]
    fn improvement_is_antisymmetric(
        flags_a in prop::collection::vec((0usize..3, 0usize..20), 0..20),
        flags_b in prop::collection::vec((0usize..3, 0usize..20), 0..20),
    ) {
        let build = |flags: &[(usize, usize)]| {
            let mut m = GlitchMatrix::new(1, 20);
            for &(k, t) in flags {
                m.set(0, GlitchType::from_index(k).unwrap(), t % 20);
            }
            vec![m]
        };
        let index = GlitchIndex::new(GlitchWeights::paper());
        let a = build(&flags_a);
        let b = build(&flags_b);
        let ab = index.improvement(&a, &b);
        let ba = index.improvement(&b, &a);
        prop_assert!((ab + ba).abs() < 1e-12);
    }
}

/// Case count for the min-cost-flow cross-validation corpus. The
/// bipartite-specialized successive-shortest-paths solver (see
/// `sd_emd::MinCostFlow`) is fast enough that the full corpus runs on
/// every `cargo test` — no `SD_SCALE` gate.
fn flow_corpus_config() -> ProptestConfig {
    ProptestConfig::with_cases(64)
}

proptest! {
    #![proptest_config(flow_corpus_config())]

    #[test]
    fn simplex_matches_flow_solver(
        supply in prop::collection::vec(0.01f64..1.0, 1..8),
        demand in prop::collection::vec(0.01f64..1.0, 1..8),
        seed in 0u64..1000,
    ) {
        // Balance the problem.
        let st: f64 = supply.iter().sum();
        let dt: f64 = demand.iter().sum();
        let supply: Vec<f64> = supply.iter().map(|x| x / st).collect();
        let demand: Vec<f64> = demand.iter().map(|x| x / dt).collect();
        // Deterministic pseudo-random costs from the seed.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut cost = Vec::with_capacity(supply.len() * demand.len());
        for _ in 0..supply.len() * demand.len() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            cost.push(((state >> 33) as f64) / (u32::MAX as f64) * 5.0);
        }
        let via_simplex = TransportProblem::new(supply.clone(), demand.clone(), cost.clone())
            .unwrap()
            .solve()
            .unwrap();
        let via_flow = MinCostFlow::new(supply, demand, cost).unwrap().solve().unwrap();
        prop_assert!((via_simplex - via_flow).abs() < 1e-7, "{via_simplex} vs {via_flow}");
    }

    #[test]
    fn simplex_survives_degenerate_duplicate_mass_instances(
        supply in prop::collection::vec(1u8..=4, 2..8),
        demand in prop::collection::vec(1u8..=4, 2..8),
        seed in 0u64..1000,
    ) {
        // Small-integer masses make ties and exactly-zero basic flows (the
        // degenerate pivots the basis-tree ratio test must survive —
        // regression cover for the structured `BrokenPivot` path replacing
        // the old `leaving.expect(...)` panic), and small-integer costs
        // make many equal-cost pivots. Normalize to unit mass and demand
        // simplex/flow agreement with no panic on every instance.
        let st: f64 = supply.iter().map(|&x| x as f64).sum();
        let dt: f64 = demand.iter().map(|&x| x as f64).sum();
        let supply: Vec<f64> = supply.iter().map(|&x| x as f64 / st).collect();
        let demand: Vec<f64> = demand.iter().map(|&x| x as f64 / dt).collect();
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut cost = Vec::with_capacity(supply.len() * demand.len());
        for _ in 0..supply.len() * demand.len() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            cost.push(((state >> 33) % 3) as f64);
        }
        let via_simplex = TransportProblem::new(supply.clone(), demand.clone(), cost.clone())
            .unwrap()
            .solve()
            .unwrap();
        let via_flow = MinCostFlow::new(supply, demand, cost).unwrap().solve().unwrap();
        prop_assert!((via_simplex - via_flow).abs() < 1e-7, "{via_simplex} vs {via_flow}");
    }

    #[test]
    fn reused_batch_transport_is_bit_identical_to_fresh_solves(
        shapes in prop::collection::vec((1usize..24, 1usize..24, 0u8..3), 2..12),
        seed in 0u64..1000,
    ) {
        // One `BatchTransport` serves a sequence of instances whose shapes
        // grow and shrink, so every solve runs on buffers sized and filled
        // by a different earlier instance. Kinds: 0 = continuous masses
        // and costs; 1 = small-integer masses and costs (ties, exactly
        // zero basic flows, equal-cost pivots — the degenerate regime that
        // historically broke pivots); 2 = an exact repeat of the previous
        // instance. Every solve must equal a fresh `TransportProblem`
        // solve bit for bit.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        let mut batch = BatchTransport::new();
        let mut previous: Option<(Vec<f64>, Vec<f64>, Vec<f64>)> = None;
        for (k, &(n, m, kind)) in shapes.iter().enumerate() {
            let (supply, demand, cost) = match (kind, previous.take()) {
                (2, Some(instance)) => instance,
                (kind, _) => {
                    let integer = kind != 0;
                    let supply = unit_masses(n, integer, &mut next);
                    let demand = unit_masses(m, integer, &mut next);
                    let cost: Vec<f64> = (0..n * m)
                        .map(|_| if integer { (next() * 3.0).floor() } else { next() * 10.0 })
                        .collect();
                    (supply, demand, cost)
                }
            };
            let reused = batch.solve(&supply, &demand, &cost).unwrap();
            let fresh = TransportProblem::new(supply.clone(), demand.clone(), cost.clone())
                .unwrap()
                .solve()
                .unwrap();
            prop_assert_eq!(
                reused.to_bits(),
                fresh.to_bits(),
                "instance {} ({}x{}, kind {}): reused {} vs fresh {}",
                k, supply.len(), demand.len(), kind, reused, fresh
            );
            previous = Some((supply, demand, cost));
        }
    }

    #[test]
    fn warm_batch_transport_matches_cold_solves(
        supply in prop::collection::vec(1u8..=4, 2..10),
        demand in prop::collection::vec(1u8..=4, 2..10),
        seed in 0u64..1000,
    ) {
        // A warm `BatchTransport` — one whose arena already served the
        // previous instance — solving a chain over one fixed dirty
        // signature and a drifting cleaned signature (the engine's batch
        // shape) must equal independent cold `TransportProblem` solves
        // bit for bit. Small-integer masses make degenerate
        // duplicate-mass instances (ties, zero basic flows), the regime
        // that historically broke pivots.
        let st: f64 = supply.iter().map(|&x| x as f64).sum();
        let dt: f64 = demand.iter().map(|&x| x as f64).sum();
        let supply: Vec<f64> = supply.iter().map(|&x| x as f64 / st).collect();
        let mut demand: Vec<f64> = demand.iter().map(|&x| x as f64 / dt).collect();
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        let cost: Vec<f64> = (0..supply.len() * demand.len())
            .map(|_| (next() * 3.0).floor())
            .collect();
        let mut batch = BatchTransport::new();
        for round in 0..6 {
            if round > 0 {
                // Drift the cleaned masses: move a slice of demand between
                // two cells (keeps totals balanced, support identical).
                // Every other round drifts by zero, an exact duplicate of
                // the previous instance.
                let a = (next() * demand.len() as f64) as usize % demand.len();
                let b = (next() * demand.len() as f64) as usize % demand.len();
                let slice = if round % 2 == 0 { demand[a] * 0.25 } else { 0.0 };
                demand[a] -= slice;
                demand[b] += slice;
            }
            let warm = batch.solve(&supply, &demand, &cost).unwrap();
            let cold = TransportProblem::new(supply.clone(), demand.clone(), cost.clone())
                .unwrap()
                .solve()
                .unwrap();
            prop_assert_eq!(
                warm.to_bits(),
                cold.to_bits(),
                "round {}: warm {} vs cold {}", round, warm, cold
            );
        }
    }

    #[test]
    fn chained_grid_ladder_matches_unchained_within_contract(
        seed in 0u64..10_000,
        links in 2usize..8,
    ) {
        // A random fraction ladder through the grid pipeline: link k
        // cleans the first k·(rows/links) rows of a random dirty cloud
        // toward a fixed target, every link scored against ONE signature
        // cache on this thread's reused cold arena. The occupied-cell sets
        // drift link to link, and every chained result must equal the
        // unchained pipeline on the materialized cloud bit for bit.
        use statistical_distortion::emd::{GridEmd, PatchedCloud, SignatureCache};

        let rows = 60usize;
        let base = kernel_cloud(seed, rows);
        let target = kernel_cloud(seed ^ 0x00C1_EA17, rows);
        let cache = SignatureCache::new(base.clone());
        let g = GridEmd::new(7);
        for link in 1..=links {
            let cleaned = (rows * link / links).max(1);
            let edits: Vec<(usize, Vec<f64>)> = target
                .iter()
                .take(cleaned)
                .cloned()
                .enumerate()
                .collect();
            let patched = PatchedCloud::new(&cache, edits);
            let chained = g.distance_patched(&patched);
            let unchained = g.distance(&base, &patched.materialize());
            match (unchained, chained) {
                (Ok(u), Ok(c)) => {
                    prop_assert_eq!(
                        c.to_bits(),
                        u.to_bits(),
                        "link {}: chained {} vs unchained {}", link, c, u
                    );
                }
                (Err(_), Err(_)) => {} // both paths reject (e.g. all-NaN edits)
                (unchained, chained) => prop_assert!(
                    false,
                    "link {}: one path failed, the other did not ({:?} vs {:?})",
                    link, unchained, chained
                ),
            }
        }
    }
}

/// `len` weights normalized to unit mass: small integers in `1..=4`
/// before normalizing when `integer` (many exact ties), else continuous.
fn unit_masses(len: usize, integer: bool, next: &mut impl FnMut() -> f64) -> Vec<f64> {
    let raw: Vec<f64> = (0..len)
        .map(|_| {
            if integer {
                1.0 + (next() * 4.0).floor()
            } else {
                0.01 + next()
            }
        })
        .collect();
    let total: f64 = raw.iter().sum();
    raw.iter().map(|x| x / total).collect()
}

/// Builds a random cleaning scenario: correlated two-attribute telemetry
/// with injected missing cells, negative inconsistencies, and spikes, plus
/// the calibrated detector/context the strategies need.
fn cleaning_fixture(
    seed: u64,
) -> (
    statistical_distortion::data::Dataset,
    Vec<GlitchMatrix>,
    statistical_distortion::cleaning::CleaningContext,
) {
    use rand::Rng;
    use statistical_distortion::cleaning::CleaningContext;
    use statistical_distortion::data::{Dataset, NodeId, TimeSeries};
    use statistical_distortion::glitch::{
        Constraint, ConstraintSet, GlitchDetector, OutlierDetector,
    };
    use statistical_distortion::stats::AttributeTransform;

    let mut rng = proptest::seed_for("cleaning_fixture", seed);
    let transforms = [AttributeTransform::Identity, AttributeTransform::Identity];

    let mut ideal_series = TimeSeries::new(NodeId::new(0, 0, 0), 2, 40);
    for t in 0..40 {
        let x = 100.0 + rng.gen_range(-5.0..5.0);
        ideal_series.set(0, t, x);
        ideal_series.set(1, t, 0.5 * x + rng.gen_range(-1.0..1.0));
    }
    let ideal = Dataset::new(vec!["a", "b"], vec![ideal_series]).unwrap();

    let num_series = 1 + (seed as usize % 3);
    let mut series = Vec::new();
    for i in 0..num_series {
        let mut s = TimeSeries::new(NodeId::new(0, 0, 1 + i as u32), 2, 40);
        for t in 0..40 {
            let x = 100.0 + rng.gen_range(-5.0..5.0);
            s.set(0, t, x);
            s.set(1, t, 0.5 * x + rng.gen_range(-1.0..1.0));
        }
        // Inject glitches at random cells.
        for _ in 0..rng.gen_range(0..8usize) {
            let (a, t) = (rng.gen_range(0..2usize), rng.gen_range(0..40usize));
            match rng.gen_range(0..3u32) {
                0 => s.set_missing(a, t),
                1 => s.set(0, t, -rng.gen_range(1.0f64..50.0)), // inconsistent
                _ => s.set(a, t, 2000.0 + rng.gen_range(0.0f64..100.0)), // spike
            }
        }
        series.push(s);
    }
    let dirty = Dataset::new(vec!["a", "b"], series).unwrap();

    let detector = GlitchDetector::new(
        ConstraintSet::new(vec![Constraint::NonNegative { attr: 0 }]),
        Some(OutlierDetector::fit(&ideal, &transforms, 3.0)),
    );
    let glitches = detector.detect_dataset(&dirty);
    let ctx = CleaningContext::fit(&ideal, &transforms, 3.0);
    (dirty, glitches, ctx)
}

/// A random working-space cloud for the kernel equivalence property:
/// `rows × 3` values spanning several scales, with occasional NaN gaps
/// (missing cells survive pooling as NaN).
fn kernel_cloud(seed: u64, rows: usize) -> Vec<Vec<f64>> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / (u32::MAX as f64)
    };
    (0..rows)
        .map(|_| {
            (0..3)
                .map(|k| {
                    let x = next();
                    if x < 0.04 {
                        f64::NAN
                    } else {
                        x * [120.0, 9.0, 1.5][k] - [10.0, 0.0, 0.7][k]
                    }
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every distortion kernel's incremental `score_patch` path must be
    /// bit-identical to its materialized `score_rows` path (the
    /// patch-vs-clone pattern, extended from cleaning to scoring): random
    /// dirty cloud, random sparse row edits, all six kernels.
    #[test]
    fn kernel_score_patch_is_bit_identical_to_materialized(
        seed in 0u64..5_000,
        rows in 8usize..80,
        num_edits in 0usize..24,
    ) {
        use statistical_distortion::core::DistortionMetric;
        use statistical_distortion::emd::{PatchedCloud, SignatureCache};

        let base = kernel_cloud(seed, rows);
        // Distinct edit rows with fresh values (and occasional NaN).
        let replacements = kernel_cloud(seed ^ 0xFEED, num_edits.min(rows));
        let edits: Vec<(usize, Vec<f64>)> = replacements
            .into_iter()
            .enumerate()
            .map(|(i, row)| ((i * 7 + seed as usize) % rows, row))
            .collect::<std::collections::BTreeMap<usize, Vec<f64>>>()
            .into_iter()
            .collect();

        let cache = SignatureCache::new(base.clone());
        let patched = PatchedCloud::new(&cache, edits);
        let materialized = patched.materialize();
        for metric in DistortionMetric::full_suite() {
            let kernel = metric.kernel();
            let fast = kernel.prepare(&cache).score_patch(&patched);
            let direct = kernel.score_rows(&base, &materialized);
            match (fast, direct) {
                (Ok(a), Ok(b)) => prop_assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{} diverged: patched {} vs materialized {}",
                    kernel.name(),
                    a,
                    b
                ),
                (Err(_), Err(_)) => {} // both paths reject (e.g. too few complete rows)
                (fast, direct) => prop_assert!(
                    false,
                    "{}: one path failed, the other did not ({:?} vs {:?})",
                    kernel.name(),
                    fast,
                    direct
                ),
            }
        }
    }

    /// Every kernel scores `≥ 0` (or returns an `Err`) on both paths: the
    /// premise of the budget optimizer's exact gain bound. Covers
    /// identical clouds, nearly equal clouds (one row nudged) and random
    /// clouds.
    #[test]
    fn every_kernel_scores_are_non_negative(
        seed in 0u64..5_000,
        rows in 8usize..80,
        nudge in 1e-12f64..1e-3,
    ) {
        use statistical_distortion::core::DistortionMetric;
        use statistical_distortion::emd::{PatchedCloud, SignatureCache};

        let base = kernel_cloud(seed, rows);
        let other = kernel_cloud(seed ^ 0xC0FFEE, rows);
        let mut nudged = base[0].clone();
        nudged[0] += nudge;
        let cache = SignatureCache::new(base.clone());
        let edit_sets: Vec<Vec<(usize, Vec<f64>)>> = vec![
            Vec::new(),
            vec![(0, nudged)],
            other.into_iter().enumerate().collect(),
        ];
        for metric in DistortionMetric::full_suite() {
            let kernel = metric.kernel();
            let prepared = kernel.prepare(&cache);
            for edits in &edit_sets {
                let patched = PatchedCloud::new(&cache, edits.clone());
                let scores = [
                    prepared.score_patch(&patched),
                    kernel.score_rows(&base, &patched.materialize()),
                ];
                for score in scores.into_iter().flatten() {
                    prop_assert!(
                        score >= 0.0,
                        "{} scored {} on {} edits",
                        kernel.name(),
                        score,
                        edits.len()
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The engine's cell-patch cleaning must equal the full-clone in-place
    /// cleaning for random data and random strategies: same outcome
    /// counters, and the materialized copy-on-write view (and its replayed
    /// patch) bit-identical to the in-place result.
    #[test]
    fn cell_patch_view_equals_full_clone_clean(
        seed in 0u64..10_000,
        missing_kind in 0u32..3,
        outlier_kind in 0u32..2,
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use statistical_distortion::cleaning::{
            CompositeStrategy, MissingTreatment, OutlierTreatment,
        };

        let (dirty, glitches, ctx) = cleaning_fixture(seed);
        let strategy = CompositeStrategy::new(
            match missing_kind {
                0 => MissingTreatment::Ignore,
                1 => MissingTreatment::MeanImpute,
                _ => MissingTreatment::ModelImpute,
            },
            if outlier_kind == 0 {
                OutlierTreatment::Ignore
            } else {
                OutlierTreatment::Winsorize
            },
        );

        let mut in_place = dirty.clone();
        let mut rng_a = StdRng::seed_from_u64(seed ^ 0x5EED);
        let out_a = {
            use statistical_distortion::cleaning::CleaningStrategy;
            strategy.clean(&mut in_place, &glitches, &ctx, &mut rng_a)
        };

        let mut rng_b = StdRng::seed_from_u64(seed ^ 0x5EED);
        let (view, out_b) = strategy.clean_patch(&dirty, &glitches, &ctx, &mut rng_b, None);

        prop_assert_eq!(out_a, out_b, "cleaning counters diverge");
        for i in 0..in_place.num_series() {
            prop_assert!(
                view.series_at(i).same_data(in_place.series_at(i)),
                "view series {} diverges from in-place clean", i
            );
        }
        prop_assert!(
            view.patch().apply_to(&dirty).same_data(&in_place),
            "replayed patch diverges from in-place clean"
        );
        // Untouched series must stay borrows of the base (no silent clones).
        for i in 0..dirty.num_series() {
            prop_assert_eq!(view.is_patched(i), view.patch().is_touched(i));
            if !view.is_patched(i) {
                prop_assert!(dirty.series_at(i).same_data(view.series_at(i)));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Streaming determinism: whatever the arrival interleaving, shard
    /// count, and channel capacity, the service's trajectory is
    /// bit-identical to the batch replay of the same rows. The arrival
    /// order is the adversarial input — shard threads race on the wall
    /// clock, but the outcome may not.
    #[test]
    fn streaming_trajectories_survive_arrival_order_and_sharding(
        interleave_seed in 0u64..100_000,
        shard_choice in 0usize..4,
        capacity in 1usize..64,
    ) {
        use statistical_distortion::core::{WindowedConfig, WindowedExperiment, WindowedResult};
        use statistical_distortion::netsim::stream_rows_interleaved;
        use statistical_distortion::prelude::*;
        use std::sync::OnceLock;

        static REFERENCE: OnceLock<(Dataset, WindowedResult)> = OnceLock::new();
        let (data, batch) = REFERENCE.get_or_init(|| {
            let data = generate(&NetsimConfig::small(13)).dataset;
            let config = WindowedConfig::paper_default(20, 15, 13);
            let batch = WindowedExperiment::new(config)
                .run(&data, &[paper_strategy(5)])
                .expect("reference batch run");
            (data, batch)
        });

        let shards = [1, 2, 4, 8][shard_choice];
        let config = WindowedConfig::paper_default(20, 15, 13);
        let attributes = data.attributes().iter().map(|a| a.name.clone()).collect();
        let serve = ServeConfig::new(config, attributes)
            .with_shards(shards)
            .with_channel_capacity(capacity);
        let nodes = data.series().iter().map(|s| s.node()).collect();
        let service = StreamingService::launch(serve, nodes, vec![paper_strategy(5)])
            .expect("launch");
        for row in stream_rows_interleaved(data, interleave_seed) {
            service.ingest(row).expect("ingest");
        }
        let report = service.finish().expect("finish");

        prop_assert_eq!(batch.screens(), report.screens());
        prop_assert_eq!(batch.outcomes().len(), report.outcomes().len());
        for (x, y) in batch.outcomes().iter().zip(report.outcomes()) {
            prop_assert_eq!(x.window_index, y.window_index);
            prop_assert_eq!(x.improvement.to_bits(), y.improvement.to_bits(),
                "improvement, window {}", x.window_index);
            prop_assert_eq!(x.distortion.to_bits(), y.distortion.to_bits(),
                "distortion, window {}", x.window_index);
            prop_assert_eq!(&x.cleaning, &y.cleaning);
        }
        prop_assert!(report.stats().ring_high_water <= report.stats().ring_capacity);
    }

    /// The pipelined collector under adversarial scheduling: random
    /// per-window evaluation latencies scramble completion order inside
    /// pools of 1, 2 and 4 workers across shard counts, yet the live feed
    /// publishes strictly in window order and the report stays
    /// bit-identical to the pool-size-1 reference.
    #[test]
    fn pipelined_publication_is_in_order_and_pool_invariant(
        jitter_seed in 0u64..100_000,
        pool_choice in 0usize..3,
        shard_choice in 0usize..4,
    ) {
        use statistical_distortion::core::WindowedConfig;
        use statistical_distortion::prelude::*;
        use std::sync::OnceLock;

        static REFERENCE: OnceLock<(Dataset, StreamReport)> = OnceLock::new();
        let (data, reference) = REFERENCE.get_or_init(|| {
            let data = generate(&NetsimConfig::small(23)).dataset;
            let config = WindowedConfig::paper_default(20, 15, 23);
            let attributes = data.attributes().iter().map(|a| a.name.clone()).collect();
            let serve = ServeConfig::new(config, attributes)
                .with_shards(1)
                .with_evaluators(1);
            let nodes = data.series().iter().map(|s| s.node()).collect();
            let service = StreamingService::launch(serve, nodes, vec![paper_strategy(2)])
                .expect("reference launch");
            for row in stream_rows(&data) {
                service.ingest(row).expect("reference ingest");
            }
            let report = service.finish().expect("reference finish");
            (data, report)
        });

        let evaluators = [1, 2, 4][pool_choice];
        let shards = [1, 2, 4, 8][shard_choice];
        let config = WindowedConfig::paper_default(20, 15, 23);
        let attributes = data.attributes().iter().map(|a| a.name.clone()).collect();
        let serve = ServeConfig::new(config, attributes)
            .with_shards(shards)
            .with_evaluators(evaluators)
            .with_evaluation_jitter(jitter_seed, 800);
        let nodes = data.series().iter().map(|s| s.node()).collect();
        let service = StreamingService::launch(serve, nodes, vec![paper_strategy(2)])
            .expect("launch");
        let mut live = Vec::new();
        for row in stream_rows(data) {
            service.ingest(row).expect("ingest");
            while let Some(update) = service.try_next_window() {
                live.push(update.window_index);
            }
        }
        while let Some(update) = service.try_next_window() {
            live.push(update.window_index);
        }
        let report = service.finish().expect("finish");

        // Whatever completion order the jitter forced, publication is
        // strictly window 0, 1, 2, … — live feed and lag log alike.
        prop_assert_eq!(&live[..], &(0..live.len()).collect::<Vec<_>>()[..]);
        for (i, lag) in report.stats().window_lags.iter().enumerate() {
            prop_assert_eq!(lag.window_index, i);
        }
        prop_assert_eq!(report.screens(), reference.screens());
        prop_assert_eq!(report.outcomes().len(), reference.outcomes().len());
        for (x, y) in reference.outcomes().iter().zip(report.outcomes()) {
            prop_assert_eq!(x.improvement.to_bits(), y.improvement.to_bits(),
                "improvement, window {}", x.window_index);
            prop_assert_eq!(x.distortion.to_bits(), y.distortion.to_bits(),
                "distortion, window {}", x.window_index);
        }
        prop_assert!(
            report.stats().max_pending_windows <= 2 * evaluators + 1,
            "depth {} with {} evaluators", report.stats().max_pending_windows, evaluators
        );
    }
}

/// A random data set for the detection properties: 1–4 series of 0–50
/// steps over 3 attributes, values spanning zero (so the log floor and the
/// sign constraints bite), with NaN sprinkled at a per-set rate and
/// occasional spikes.
fn glitchy_dataset(seed: u64) -> statistical_distortion::data::Dataset {
    use rand::Rng;
    use statistical_distortion::data::{Dataset, NodeId, TimeSeries};

    let mut rng = proptest::seed_for("glitchy_dataset", seed);
    let missing_rate = [0.0, 0.05, 0.3, 0.9][rng.gen_range(0..4usize)];
    let series = (0..rng.gen_range(1..5u32))
        .map(|i| {
            let len = rng.gen_range(0..51usize);
            let mut s = TimeSeries::new(NodeId::new(0, 0, i), 3, len);
            for a in 0..3 {
                let scale = [100.0, 1.0, 1e4][a];
                for t in 0..len {
                    let x = if rng.gen_range(0.0..1.0) < missing_rate {
                        f64::NAN
                    } else if rng.gen_range(0.0..1.0) < 0.03 {
                        scale * 50.0
                    } else {
                        scale * rng.gen_range(-0.2..1.2)
                    };
                    s.set(a, t, x);
                }
            }
            s
        })
        .collect();
    Dataset::new(vec!["a", "b", "c"], series).unwrap()
}

/// Standard normal CDF as the Abramowitz–Stegun 7.1.26 erf approximation,
/// the formula behind `OutlierDetector::p_value`.
fn normal_cdf(z: f64) -> f64 {
    let x = z / std::f64::consts::SQRT_2;
    let t = 1.0 / (1.0 + 0.3275911 * x.abs());
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    let erf = 1.0 - poly * (-x * x).exp();
    0.5 * (1.0 + if x < 0.0 { -erf } else { erf })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The single-pass Welford fit must reproduce, bit for bit, the limits
    /// and p-values built from `Summary::from_slice` over the pooled,
    /// transformed values — on random, NaN-sprinkled and log-transformed
    /// columns, pooled from a whole data set or from borrowed series.
    #[test]
    fn outlier_fit_is_bit_identical_to_summary_limits(
        seed in 0u64..100_000,
        log_mask in 0u32..8,
        k in 0.5f64..4.0,
    ) {
        use statistical_distortion::glitch::OutlierDetector;
        use statistical_distortion::stats::{AttributeTransform, Summary};

        let data = glitchy_dataset(seed);
        let transforms: Vec<AttributeTransform> = (0..3)
            .map(|a| {
                if log_mask >> a & 1 == 1 {
                    AttributeTransform::log()
                } else {
                    AttributeTransform::Identity
                }
            })
            .collect();
        let fitted = OutlierDetector::fit(&data, &transforms, k);
        let borrowed = OutlierDetector::fit_series(data.series().iter().rev(), &transforms, k);
        let reversed: Vec<usize> = (0..data.num_series()).rev().collect();
        let copied = OutlierDetector::fit(&data.subset(&reversed), &transforms, k);
        for (attr, tf) in transforms.iter().enumerate() {
            let mut values = data.pooled_attribute(attr);
            tf.forward_slice(&mut values);
            let summary = Summary::from_slice(&values);
            let (lo, hi) = if summary.is_empty() {
                (f64::NEG_INFINITY, f64::INFINITY)
            } else {
                summary.sigma_limits(k)
            };
            let (fit_lo, fit_hi) = fitted.limits()[attr];
            prop_assert_eq!(fit_lo.to_bits(), lo.to_bits(), "lower limit, attr {}", attr);
            prop_assert_eq!(fit_hi.to_bits(), hi.to_bits(), "upper limit, attr {}", attr);
            let bits = |(lo, hi): (f64, f64)| (lo.to_bits(), hi.to_bits());
            prop_assert_eq!(bits(borrowed.limits()[attr]), bits(copied.limits()[attr]));

            let std = summary.std_dev();
            for probe in [0.0, 1e-9, 0.5, 3.0, 75.0, 6e3, -40.0, f64::INFINITY] {
                let want = if summary.is_empty() || !std.is_finite() || std <= 0.0 {
                    1.0
                } else {
                    let z = ((tf.forward(probe) - summary.mean) / std).abs();
                    2.0 * (1.0 - normal_cdf(z))
                };
                let got = fitted.p_value(attr, probe);
                prop_assert_eq!(got.map(f64::to_bits), Some(want.to_bits()),
                    "p-value of {} on attr {}", probe, attr);
            }
            prop_assert_eq!(fitted.p_value(attr, f64::NAN), None);
        }
    }

    /// The matrix-free record counters agree with the glitch matrix for
    /// every type, and the column-wise constraint scan flags exactly the
    /// cells `ConstraintSet::violations` flags record by record.
    #[test]
    fn record_counts_match_the_glitch_matrix(
        seed in 0u64..100_000,
        rule_mask in 0u32..16,
        with_outliers in 0u32..2,
    ) {
        use statistical_distortion::glitch::{
            Constraint, ConstraintSet, GlitchDetector, OutlierDetector,
        };
        use statistical_distortion::stats::AttributeTransform;

        let data = glitchy_dataset(seed);
        let rules = [
            Constraint::NonNegative { attr: 0 },
            Constraint::Range { attr: 1, lo: 0.0, hi: 1.0 },
            Constraint::NotPopulatedIf { attr: 0, other: 2 },
            Constraint::GreaterThan { attr: 2, other: 0 },
        ];
        let constraints = ConstraintSet::new(
            (0..4).filter(|i| rule_mask >> i & 1 == 1).map(|i| rules[i].clone()).collect(),
        );
        let transforms = [
            AttributeTransform::log(),
            AttributeTransform::Identity,
            AttributeTransform::Identity,
        ];
        let outliers = (with_outliers == 1)
            .then(|| OutlierDetector::fit(&glitchy_dataset(seed + 1), &transforms, 2.0));
        let detector = GlitchDetector::new(constraints.clone(), outliers);
        for series in data.series() {
            let matrix = detector.detect_series(series);
            for g in GlitchType::ALL {
                prop_assert_eq!(detector.count_records(series, g), matrix.count_records(g),
                    "{} records", g);
            }
            for t in 0..series.len() {
                let record: Vec<f64> = (0..3).map(|a| series.get(a, t)).collect();
                let flagged = constraints.violations(&record);
                for (a, &x) in record.iter().enumerate() {
                    prop_assert_eq!(matrix.get(a, GlitchType::Inconsistent, t),
                        flagged.contains(&a), "attr {} at t {}", a, t);
                    prop_assert_eq!(matrix.get(a, GlitchType::Missing, t), x.is_nan());
                    let outlier = detector
                        .outlier_detector()
                        .is_some_and(|od| od.is_outlier(a, x));
                    prop_assert_eq!(matrix.get(a, GlitchType::Outlier, t), outlier);
                }
            }
        }
    }
}
