//! Topology neighbour pooling regressions: the §3.3 screen with pooled
//! neighbour history must stay deterministic across thread counts, and
//! own-only pooling — however it is spelled — must reproduce the
//! pre-topology windowed output bit for bit.

use proptest::prelude::*;
use statistical_distortion::core::{
    NeighborPooling, SerialExecutor, ThreadPoolExecutor, WindowedConfig, WindowedExperiment,
    WindowedResult,
};
use statistical_distortion::prelude::*;

fn small_stream(seed: u64) -> (Dataset, Topology) {
    let config = NetsimConfig::small(seed);
    (generate(&config).dataset, config.topology)
}

fn assert_bit_identical(a: &WindowedResult, b: &WindowedResult, label: &str) {
    assert_eq!(a.outcomes().len(), b.outcomes().len(), "{label}: shape");
    assert_eq!(a.screens(), b.screens(), "{label}: screens");
    for (x, y) in a.outcomes().iter().zip(b.outcomes()) {
        assert_eq!(
            x.improvement.to_bits(),
            y.improvement.to_bits(),
            "{label}: improvement, window {} strategy {}",
            x.window_index,
            x.strategy_index
        );
        assert_eq!(
            x.distortion.to_bits(),
            y.distortion.to_bits(),
            "{label}: distortion, window {} strategy {}",
            x.window_index,
            x.strategy_index
        );
        assert_eq!(x.cleaning, y.cleaning, "{label}: cleaning counters");
    }
}

/// One seed → bit-identical trajectories at `threads = 1` vs `2`, for
/// every pooling policy (including the per-node screen trajectories).
#[test]
fn pooling_policies_are_deterministic_across_thread_counts() {
    let (data, topology) = small_stream(23);
    let strategies = [paper_strategy(1), paper_strategy(5)];
    for pooling in [
        NeighborPooling::OwnOnly,
        NeighborPooling::KHop { hops: 1 },
        NeighborPooling::KHop { hops: 2 },
        NeighborPooling::Weighted {
            tower: 1.0,
            rnc: 0.3,
        },
    ] {
        let mut config = WindowedConfig::paper_default(20, 10, 23);
        config = config.with_topology(topology, pooling);
        let experiment = WindowedExperiment::new(config);
        let one = experiment
            .run_with(&data, &strategies, &ThreadPoolExecutor::new(1))
            .unwrap();
        let two = experiment
            .run_with(&data, &strategies, &ThreadPoolExecutor::new(2))
            .unwrap();
        let serial = experiment
            .run_with(&data, &strategies, &SerialExecutor)
            .unwrap();
        assert_bit_identical(&one, &two, &format!("{pooling:?} threads 1 vs 2"));
        assert_bit_identical(&one, &serial, &format!("{pooling:?} threads 1 vs serial"));
        for i in [0, data.num_series() / 2, data.num_series() - 1] {
            assert_eq!(one.node_trajectory(i), two.node_trajectory(i));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Own-only pooling reproduces the pre-topology `WindowedExperiment`
    /// output exactly, whether spelled as the legacy config (no
    /// topology), as `OwnOnly` with a topology attached, or as a `KHop`
    /// neighbourhood of radius zero (the pooling machinery with empty
    /// neighbour views).
    #[test]
    fn own_only_pooling_reproduces_legacy_output(
        seed in 0u64..1_000,
        window in 15usize..30,
        stride in 8usize..15,
    ) {
        let (data, topology) = small_stream(seed);
        let strategies = [paper_strategy(5)];
        let legacy_config = WindowedConfig::paper_default(window, stride, seed);
        let legacy = WindowedExperiment::new(legacy_config.clone())
            .run(&data, &strategies)
            .unwrap();
        for pooling in [NeighborPooling::OwnOnly, NeighborPooling::KHop { hops: 0 }] {
            let config = legacy_config.clone().with_topology(topology, pooling);
            let run = WindowedExperiment::new(config).run(&data, &strategies).unwrap();
            prop_assert_eq!(legacy.outcomes().len(), run.outcomes().len());
            for (x, y) in legacy.outcomes().iter().zip(run.outcomes()) {
                prop_assert_eq!(x.improvement.to_bits(), y.improvement.to_bits());
                prop_assert_eq!(x.distortion.to_bits(), y.distortion.to_bits());
                prop_assert_eq!(&x.cleaning, &y.cleaning);
                prop_assert_eq!(&x.dirty_report, &y.dirty_report);
                prop_assert_eq!(&x.treated_report, &y.treated_report);
            }
            prop_assert_eq!(legacy.screens(), run.screens());
        }
    }
}

/// FNV-1a over every window's per-series history-flag counts, in window
/// then series order.
fn screen_fingerprint(result: &WindowedResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for screen in result.screens() {
        for &flagged in &screen.history_flagged {
            h = (h ^ flagged as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Cross-version pin of the §3.3 history screen. The streaming service and
/// the batch run share one screen, so their equivalence cannot catch a
/// changed verdict; these per-window totals (and a fingerprint of the
/// per-series counts) were recorded with the per-cell
/// collect-then-`Summary` screen and must never move.
#[test]
fn history_screen_verdicts_are_pinned() {
    let (data, topology) = small_stream(19);
    let cases: [(NeighborPooling, [usize; 5], u64); 3] = [
        (
            NeighborPooling::OwnOnly,
            [135, 101, 117, 113, 95],
            0x5f76_4b63_1ad0_f67a,
        ),
        (
            NeighborPooling::KHop { hops: 1 },
            [94, 59, 73, 74, 71],
            0xd20f_190a_3624_b6f4,
        ),
        (
            NeighborPooling::Weighted {
                tower: 1.0,
                rnc: 0.3,
            },
            [69, 49, 55, 56, 49],
            0x8f55_afe7_6abb_7647,
        ),
    ];
    for (pooling, totals, fingerprint) in cases {
        let config = WindowedConfig::paper_default(20, 10, 19).with_topology(topology, pooling);
        let run = WindowedExperiment::new(config)
            .run(&data, &[paper_strategy(1)])
            .unwrap();
        let got: Vec<usize> = run
            .screens()
            .iter()
            .map(|s| s.history_flagged.iter().sum())
            .collect();
        assert_eq!(got, totals, "{pooling:?}: per-window history flags");
        assert_eq!(
            screen_fingerprint(&run),
            fingerprint,
            "{pooling:?}: per-series history flags"
        );
    }
}
