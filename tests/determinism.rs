//! Whole-pipeline determinism: trace generation, prediction, and timing
//! simulation are all pure functions of the catalog seeds.

use cap_repro::prelude::*;

#[test]
fn trace_generation_is_reproducible() {
    for spec in catalog().iter().step_by(7) {
        let a = spec.generate(3_000);
        let b = spec.generate(3_000);
        assert_eq!(a, b, "{} must be deterministic", spec.name);
    }
}

#[test]
fn prediction_runs_are_reproducible() {
    let trace = Suite::Gam.traces()[0].generate(10_000);
    let run = || {
        let mut p = HybridPredictor::new(HybridConfig::paper_default());
        Session::new(&mut p).run(&trace)
    };
    assert_eq!(run(), run());
}

#[test]
fn gapped_runs_are_reproducible() {
    let trace = Suite::Tpc.traces()[0].generate(10_000);
    let run = || {
        let mut p = HybridPredictor::new(HybridConfig::paper_pipelined());
        Session::new(&mut p).gap(16).run(&trace)
    };
    assert_eq!(run(), run());
}

/// Fig 5 predictor statistics pinned as `(loads, predictions,
/// spec_accesses, correct_spec)` for stride, CAP and hybrid at immediate
/// update, and for the pipelined hybrid at an 8-instruction gap.
#[test]
fn prediction_stats_are_pinned() {
    type Pin = (u64, u64, u64, u64);
    let pins: [(&TraceSpec, [Pin; 4]); 3] = [
        (
            &Suite::Int.traces()[0],
            [
                (20_000, 19_560, 10_396, 10_380),
                (20_000, 13_709, 12_805, 12_682),
                (20_000, 19_560, 14_413, 14_287),
                (20_000, 19_524, 10_340, 10_221),
            ],
        ),
        (
            &Suite::Gam.traces()[0],
            [
                (20_000, 19_518, 10_911, 10_901),
                (20_000, 11_753, 10_952, 10_840),
                (20_000, 19_518, 13_449, 13_336),
                (20_000, 19_499, 10_820, 10_731),
            ],
        ),
        (
            &Suite::Tpc.traces()[0],
            [
                (20_007, 15_599, 7_609, 7_594),
                (20_007, 9_295, 8_084, 8_014),
                (20_007, 15_599, 10_718, 10_646),
                (20_007, 15_570, 8_192, 8_035),
            ],
        ),
    ];
    for (spec, want) in pins {
        let trace = spec.generate(20_000);
        let mut runs = Vec::new();
        for factory in [
            PredictorFactory::enhanced_stride(),
            PredictorFactory::cap(),
            PredictorFactory::hybrid(),
        ] {
            let stats = Session::new(factory.build().as_mut()).run(&trace);
            runs.push((factory.name, stats));
        }
        let mut p = HybridPredictor::new(HybridConfig::paper_pipelined());
        runs.push((
            "hybrid gap 8".into(),
            Session::new(&mut p).gap(8).run(&trace),
        ));
        for ((name, s), pin) in runs.into_iter().zip(want) {
            assert_eq!(
                (s.loads, s.predictions, s.spec_accesses, s.correct_spec),
                pin,
                "{} {name}",
                spec.name
            );
        }
    }
}

#[test]
fn timing_simulation_is_reproducible() {
    let trace = Suite::Jav.traces()[0].generate(5_000);
    let cfg = CoreConfig::paper_default();
    let run = || {
        let mut p = HybridPredictor::new(HybridConfig::paper_default());
        run_trace(&trace, &cfg, Some(&mut p), 0).cycles
    };
    assert_eq!(run(), run());
}

/// Fig 7 cycle counts pinned for the no-prediction baseline and the
/// hybrid. The traces run ~37k instructions each, so the timing core's
/// periodic slot retirement is exercised several times per run.
#[test]
fn timing_cycles_are_pinned() {
    let cfg = CoreConfig::paper_default();
    for (spec, baseline, hybrid) in [
        (&Suite::Jav.traces()[0], 16_716, 12_354),
        (&Suite::Int.traces()[0], 22_156, 17_703),
        (&Suite::Tpc.traces()[0], 55_254, 52_063),
    ] {
        let trace = spec.generate(20_000);
        let mut p = HybridPredictor::new(HybridConfig::paper_default());
        assert_eq!(
            run_trace(&trace, &cfg, None, 0).cycles,
            baseline,
            "{} baseline",
            spec.name
        );
        assert_eq!(
            run_trace(&trace, &cfg, Some(&mut p), 0).cycles,
            hybrid,
            "{} hybrid",
            spec.name
        );
    }
}

/// The core paths the gap-0 pin above does not reach, pinned as
/// `(cycles, branch_mispredicts, prefetches, l1_hit_rate bits,
/// predictions, spec_accesses, correct_spec)`: the pipelined hybrid at an
/// 8-instruction gap, and the hybrid at gap 0 with stride prefetching on.
#[test]
fn gapped_and_prefetch_timing_is_pinned() {
    type Pin = (u64, u64, u64, u64, u64, u64, u64);
    let pin = |s: &CoreStats| {
        (
            s.cycles,
            s.branch_mispredicts,
            s.prefetches,
            s.l1_hit_rate.to_bits(),
            s.pred.predictions,
            s.pred.spec_accesses,
            s.pred.correct_spec,
        )
    };
    let cases: [(&TraceSpec, Pin, Pin); 2] = [
        (
            &Suite::Int.traces()[0],
            (18_853, 893, 0, 0x3fe8_bd3c_536b_a280, 19_524, 10_340, 10_221),
            (17_412, 893, 10_397, 0x3feb_2b89_9b81_6bef, 19_560, 14_413, 14_287),
        ),
        (
            &Suite::Tpc.traces()[0],
            (52_594, 1_572, 0, 0x3fe2_38c6_aa53_fefc, 15_570, 8_192, 8_035),
            (51_754, 1_572, 7_609, 0x3fe5_ed82_1ba9_e700, 15_599, 10_718, 10_646),
        ),
    ];
    for (spec, gapped, prefetch) in cases {
        let trace = spec.generate(20_000);
        let mut p = HybridPredictor::new(HybridConfig::paper_pipelined());
        let cfg = CoreConfig::paper_default();
        assert_eq!(
            pin(&run_trace(&trace, &cfg, Some(&mut p), 8)),
            gapped,
            "{} hybrid gap 8",
            spec.name
        );
        let mut p = HybridPredictor::new(HybridConfig::paper_default());
        let cfg = CoreConfig {
            prefetch: true,
            ..CoreConfig::paper_default()
        };
        assert_eq!(
            pin(&run_trace(&trace, &cfg, Some(&mut p), 0)),
            prefetch,
            "{} hybrid prefetch",
            spec.name
        );
    }
}

#[test]
fn distinct_traces_differ() {
    // Sanity that the catalog isn't returning one canned trace.
    let a = Suite::Int.traces()[0].generate(2_000);
    let b = Suite::Int.traces()[1].generate(2_000);
    assert_ne!(a, b);
}
