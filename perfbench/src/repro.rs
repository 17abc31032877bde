//! The `repro-*` workloads: the Fig 5 and Fig 7 computations in-process.
//!
//! Each sweep mirrors `cap_harness::runner::run_suite_sweep` /
//! `run_speedup_sweep` call for call (generate each trace once, then one
//! fresh predictor per configuration), but over the seed-perturbed subset
//! and with a span around every call into a layer.

use crate::inputs::REPRO_LOADS_PER_TRACE;
use crate::spans::Tracer;
use cap_harness::runner::PredictorFactory;
use cap_predictor::drive::Session;
use cap_predictor::hybrid::{HybridConfig, HybridPredictor};
use cap_predictor::metrics::PredictorStats;
use cap_trace::suites::TraceSpec;
use cap_uarch::core::{run_trace, CoreConfig, CoreStats};

/// Digest of every simulated statistic of a seed-0 `repro-predict` sweep.
pub const REFERENCE_PREDICT_DIGEST: u64 = 0x0d5f_894f_e18e_d5fc;
/// Digest of every simulated statistic of a seed-0 `repro-timing` sweep.
pub const REFERENCE_TIMING_DIGEST: u64 = 0xe413_4344_abb6_5afd;

/// One predictor configuration of the Fig 5 sweep.
pub struct PredictConfig {
    /// Suffix used in metric names.
    pub name: &'static str,
    /// Span name of its `Session::run` calls.
    pub span: &'static str,
    /// Prediction gap in dynamic instructions.
    pub gap: usize,
    factory: fn() -> PredictorFactory,
}

fn pipelined_hybrid() -> PredictorFactory {
    PredictorFactory::new("hybrid", || {
        HybridPredictor::new(HybridConfig::paper_pipelined())
    })
}

/// Stride, CAP and hybrid at immediate update (Fig 5), plus the pipelined
/// hybrid at gap 8 (the Fig 11 path through `drive.rs`).
pub const PREDICT_CONFIGS: [PredictConfig; 4] = [
    PredictConfig {
        name: "stride",
        span: "cap-predictor.session.stride",
        gap: 0,
        factory: PredictorFactory::enhanced_stride,
    },
    PredictConfig {
        name: "cap",
        span: "cap-predictor.session.cap",
        gap: 0,
        factory: PredictorFactory::cap,
    },
    PredictConfig {
        name: "hybrid",
        span: "cap-predictor.session.hybrid",
        gap: 0,
        factory: PredictorFactory::hybrid,
    },
    PredictConfig {
        name: "hybrid_gap8",
        span: "cap-predictor.session.hybrid_gap8",
        gap: 8,
        factory: pipelined_hybrid,
    },
];

/// Span names of the layers a sweep calls into.
pub const SPAN_PREDICT_SWEEP: &str = "cap-harness.sweep.predict";
/// Span around one timing sweep.
pub const SPAN_TIMING_SWEEP: &str = "cap-harness.sweep.timing";
/// Span around `TraceSpec::generate`.
pub const SPAN_GENERATE: &str = "cap-trace.generate";
/// Span around the no-prediction `run_trace`.
pub const SPAN_RUN_BASELINE: &str = "cap-uarch.run_trace.baseline";
/// Span around the hybrid `run_trace`.
pub const SPAN_RUN_HYBRID: &str = "cap-uarch.run_trace.hybrid";

/// Statistics of one predict sweep: `[trace][config]`.
pub type PredictSweep = Vec<[PredictorStats; 4]>;

/// Statistics of one timing sweep: `[trace] -> (baseline, hybrid)`.
pub type TimingSweep = Vec<(CoreStats, CoreStats)>;

/// Runs the Fig 5 computation once over `specs`.
pub fn sweep_predict(specs: &[TraceSpec], loads: usize, t: &mut Tracer) -> PredictSweep {
    t.span(SPAN_PREDICT_SWEEP, |t| {
        specs
            .iter()
            .map(|spec| {
                let trace = t.span(SPAN_GENERATE, |_| spec.generate(loads));
                PREDICT_CONFIGS.each_ref().map(|config| {
                    let mut predictor = (config.factory)().build();
                    t.span(config.span, |_| {
                        Session::new(predictor.as_mut()).gap(config.gap).run(&trace)
                    })
                })
            })
            .collect()
    })
}

/// Runs the Fig 7 computation once over `specs`: the no-prediction
/// baseline and the hybrid through the out-of-order core.
pub fn sweep_timing(specs: &[TraceSpec], loads: usize, t: &mut Tracer) -> TimingSweep {
    let core = CoreConfig::paper_default();
    t.span(SPAN_TIMING_SWEEP, |t| {
        specs
            .iter()
            .map(|spec| {
                let trace = t.span(SPAN_GENERATE, |_| spec.generate(loads));
                let baseline = t.span(SPAN_RUN_BASELINE, |_| run_trace(&trace, &core, None, 0));
                let mut hybrid = PredictorFactory::hybrid().build();
                let with = t.span(SPAN_RUN_HYBRID, |_| {
                    run_trace(&trace, &core, Some(hybrid.as_mut()), 0)
                });
                (baseline, with)
            })
            .collect()
    })
}

/// FNV-1a over a sequence of words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn predictor(&mut self, s: &PredictorStats) {
        for w in [
            s.loads,
            s.predictions,
            s.spec_accesses,
            s.correct_spec,
            s.correct_predictions,
            s.both_predicted_spec,
            s.miss_selections,
        ]
        .into_iter()
        .chain(s.selector_states)
        {
            self.word(w);
        }
    }

    fn core(&mut self, c: &CoreStats) {
        for w in [
            c.cycles,
            c.instructions,
            c.loads,
            c.branch_mispredicts,
            c.prefetches,
            c.l1_hit_rate.to_bits(),
        ] {
            self.word(w);
        }
        self.predictor(&c.pred);
    }

    /// The final value.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Digest of every `PredictorStats` of a predict sweep.
#[must_use]
pub fn predict_digest(sweep: &PredictSweep) -> u64 {
    let mut d = Digest::default();
    sweep.iter().flatten().for_each(|s| d.predictor(s));
    d.value()
}

/// Digest of every `CoreStats` of a timing sweep.
#[must_use]
pub fn timing_digest(sweep: &TimingSweep) -> u64 {
    let mut d = Digest::default();
    for (baseline, hybrid) in sweep {
        d.core(baseline);
        d.core(hybrid);
    }
    d.value()
}

/// `loads >= predictions >= spec_accesses >= correct_spec`.
#[must_use]
pub fn identities_hold(s: &PredictorStats) -> bool {
    s.loads >= s.predictions
        && s.predictions >= s.spec_accesses
        && s.spec_accesses >= s.correct_spec
}

/// Which `repro-*` computation a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Fig 5 (+ the gap-8 hybrid pass).
    Predict,
    /// Fig 7 (baseline + hybrid through the core).
    Timing,
}

/// What one sweep produced: simulated loads, its digest, and how many of
/// its (trace, configuration) passes broke an identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepOutcome {
    /// Dynamic loads simulated, summed over every pass.
    pub loads: u64,
    /// (trace, configuration) passes.
    pub passes: u64,
    /// Passes whose statistics break an identity.
    pub broken: u64,
    /// Digest of every simulated statistic.
    pub digest: u64,
}

impl Kind {
    /// The pinned seed-0 digest.
    #[must_use]
    pub fn reference(self) -> u64 {
        match self {
            Kind::Predict => REFERENCE_PREDICT_DIGEST,
            Kind::Timing => REFERENCE_TIMING_DIGEST,
        }
    }

    /// Runs one sweep.
    pub fn sweep(self, specs: &[TraceSpec], t: &mut Tracer) -> SweepOutcome {
        match self {
            Kind::Predict => predict_outcome(&sweep_predict(specs, REPRO_LOADS_PER_TRACE, t)),
            Kind::Timing => timing_outcome(&sweep_timing(specs, REPRO_LOADS_PER_TRACE, t)),
        }
    }
}

/// Loads, passes, identity breaks and digest of a predict sweep.
#[must_use]
pub fn predict_outcome(sweep: &PredictSweep) -> SweepOutcome {
    let all = || sweep.iter().flatten();
    SweepOutcome {
        loads: all().map(|s| s.loads).sum(),
        passes: all().count() as u64,
        broken: all().filter(|s| !identities_hold(s)).count() as u64,
        digest: predict_digest(sweep),
    }
}

/// Loads, passes, identity breaks and digest of a timing sweep.
#[must_use]
pub fn timing_outcome(sweep: &TimingSweep) -> SweepOutcome {
    let all = || sweep.iter().flat_map(|(b, h)| [b, h]);
    SweepOutcome {
        loads: all().map(|c| c.loads).sum(),
        passes: all().count() as u64,
        broken: all().filter(|c| !identities_hold(&c.pred)).count() as u64,
        digest: timing_digest(sweep),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cap_harness::runner::{run_speedup_sweep, run_suite_sweep, Scale};
    use std::time::Instant;

    const LOADS: usize = 2_000;

    fn tiny() -> Scale {
        Scale {
            loads_per_trace: LOADS,
            traces_per_suite: Some(1),
        }
    }

    #[test]
    fn predict_sweep_matches_run_suite_sweep_at_seed_zero() {
        let mut t = Tracer::new(false, Instant::now());
        let ours = sweep_predict(&crate::inputs::repro_subset(0)[..], LOADS, &mut t);
        for (i, config) in PREDICT_CONFIGS.iter().enumerate() {
            let theirs = run_suite_sweep(&tiny(), &[(config.factory)()], config.gap);
            let mut merged = PredictorStats::new();
            ours.iter().for_each(|row| merged.merge(&row[i]));
            assert_eq!(merged, theirs[0].overall, "config {}", config.name);
        }
    }

    #[test]
    fn timing_sweep_matches_run_speedup_sweep_at_seed_zero() {
        let mut t = Tracer::new(false, Instant::now());
        let specs = crate::inputs::repro_subset(0);
        let ours = sweep_timing(&specs[..2], LOADS, &mut t);
        let core = CoreConfig::paper_default();
        let theirs = run_speedup_sweep(&tiny(), &[PredictorFactory::hybrid()], &core, 0);
        for ((b, h), row) in ours.iter().zip(&theirs) {
            assert_eq!(b.cycles, row.baseline.cycles);
            assert_eq!(h.cycles, row.with_prediction[0].cycles);
            assert_eq!(h.pred, row.with_prediction[0].pred);
        }
    }

    #[test]
    fn digest_sees_every_field_and_identities_catch_breaks() {
        let base = PredictorStats {
            loads: 10,
            predictions: 8,
            spec_accesses: 6,
            correct_spec: 5,
            ..PredictorStats::new()
        };
        assert!(identities_hold(&base));
        let sweep = vec![[base; 4]];
        let mut other = sweep.clone();
        other[0][3].selector_states[2] += 1;
        assert_ne!(predict_digest(&sweep), predict_digest(&other));
        let broken = PredictorStats {
            correct_spec: 7,
            ..base
        };
        assert!(!identities_hold(&broken));
    }
}
