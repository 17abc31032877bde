//! Property-based tests for the predictor crate's core data structures
//! and invariants, driven by the in-repo `cap_check` harness.

use cap_predictor::confidence::SaturatingCounter;
use cap_predictor::history::{HistoryBuffer, HistorySpec};
use cap_predictor::prelude::*;
use cap_rand::check;
use cap_rand::Rng;

fn small_hybrid() -> HybridPredictor {
    let mut cfg = HybridConfig::paper_default();
    cfg.lb.entries = 256;
    cfg.lt.entries = 512;
    cfg.cap.history.index_bits = 9;
    HybridPredictor::new(cfg)
}

/// The folded history always fits in the configured index/tag widths.
#[test]
fn fold_respects_widths() {
    check::run("fold_respects_widths", |rng| {
        let addrs = check::vec_of(rng, 1..32, |r| r.gen::<u64>());
        let spec = HistorySpec {
            length: rng.gen_range(1usize..8),
            shift: rng.gen_range(1u32..8),
            index_bits: rng.gen_range(4u32..14),
            tag_bits: rng.gen_range(0u32..10),
        };
        let mut h = HistoryBuffer::new();
        for a in addrs {
            h.push(a, &spec);
            assert!(h.len() <= spec.length);
        }
        let f = h.fold(&spec);
        assert!(f.index < (1u64 << spec.index_bits));
        assert!(spec.tag_bits == 0 && f.tag == 0 || f.tag < (1u64 << spec.tag_bits.max(1)));
    });
}

/// Folding depends only on the retained window: any two push sequences
/// with the same last `length` addresses fold identically.
#[test]
fn fold_depends_only_on_window() {
    check::run("fold_depends_only_on_window", |rng| {
        let prefix_a = check::vec_of(rng, 0..16, |r| r.gen::<u64>());
        let prefix_b = check::vec_of(rng, 0..16, |r| r.gen::<u64>());
        let window = check::vec_of(rng, 4..8, |r| r.gen::<u64>());
        let spec = HistorySpec {
            length: 4,
            shift: 3,
            index_bits: 12,
            tag_bits: 8,
        };
        let tail = &window[window.len() - 4..];
        let mut ha = HistoryBuffer::new();
        let mut hb = HistoryBuffer::new();
        for &a in prefix_a.iter().chain(tail) {
            ha.push(a, &spec);
        }
        for &a in prefix_b.iter().chain(tail) {
            hb.push(a, &spec);
        }
        assert_eq!(ha.fold(&spec), hb.fold(&spec));
    });
}

/// Saturating counters stay within bounds under any event sequence.
#[test]
fn counter_stays_bounded() {
    check::run("counter_stays_bounded", |rng| {
        let threshold = rng.gen_range(1u8..4);
        let max = threshold + rng.gen_range(0u8..4);
        let hysteresis = rng.gen::<bool>();
        let events = check::vec_of(rng, 0..100, |r| r.gen::<bool>());
        let mut c = SaturatingCounter::new(threshold, max, hysteresis);
        for correct in events {
            if correct {
                c.on_correct()
            } else {
                c.on_incorrect()
            }
            assert!(c.value() <= max);
            assert_eq!(c.is_confident(), c.value() >= threshold);
        }
    });
}

/// Predictors never panic and stats stay internally consistent on
/// arbitrary load streams.
#[test]
fn stats_invariants_on_arbitrary_streams() {
    check::run("stats_invariants_on_arbitrary_streams", |rng| {
        let loads = check::vec_of(rng, 1..400, |r| (r.gen_range(0u64..64), r.gen::<u64>()));
        let mut p = small_hybrid();
        let mut stats = PredictorStats::new();
        for (ip_idx, addr) in loads {
            let ctx = LoadContext::new(0x400 + ip_idx * 4, 0, 0);
            let pred = p.predict(&ctx);
            p.update(&ctx, addr & !3, &pred);
            stats.record(&pred, addr & !3);
            // A speculative access implies a predicted address.
            assert!(!pred.speculate || pred.addr.is_some());
        }
        assert!(stats.spec_accesses <= stats.predictions);
        assert!(stats.predictions <= stats.loads);
        assert!(stats.correct_spec <= stats.spec_accesses);
        assert!(stats.correct_predictions <= stats.predictions);
        assert!(stats.correct_spec <= stats.correct_predictions);
        assert!(stats.both_predicted_spec <= stats.spec_accesses);
        assert!(stats.miss_selections <= stats.both_predicted_spec);
        let dist: u64 = stats.selector_states.iter().sum();
        assert_eq!(dist, stats.both_predicted_spec);
        assert!((0.0..=1.0).contains(&stats.prediction_rate()));
        assert!((0.0..=1.0).contains(&stats.accuracy()));
    });
}

/// A constant-stride sequence is eventually predicted exactly, for any
/// base and step.
#[test]
fn stride_learns_any_arithmetic_sequence() {
    check::run("stride_learns_any_arithmetic_sequence", |rng| {
        let base = rng.gen::<u64>();
        let step_raw = rng.gen_range(-1000i64..1000);
        let step = if step_raw == 0 { 4 } else { step_raw };
        let mut p = StridePredictor::new(
            LoadBufferConfig {
                entries: 64,
                assoc: 2,
            },
            StrideParams {
                interval: false,
                ..StrideParams::paper_default()
            },
        );
        let mut last = Prediction::none();
        for i in 0..12i64 {
            let ctx = LoadContext::new(0x40, 0, 0);
            last = p.predict(&ctx);
            p.update(&ctx, base.wrapping_add((step * i) as u64), &last);
        }
        // After 12 steps the 12th prediction (for i=11) must be correct.
        assert!(last.is_correct(base.wrapping_add((step * 11) as u64)));
        assert!(last.speculate);
    });
}

/// Any short recurring sequence of distinct 4-aligned addresses is
/// eventually predicted by CAP (prediction correctness, not only
/// speculation).
#[test]
fn cap_learns_any_short_recurring_sequence() {
    check::run("cap_learns_any_short_recurring_sequence", |rng| {
        let len = rng.gen_range(3usize..9);
        let mut raw = std::collections::BTreeSet::new();
        while raw.len() < len {
            raw.insert(rng.gen_range(1u64..1_000_000));
        }
        let pattern: Vec<u64> = raw.into_iter().map(|a| a << 2).collect();
        let mut cfg = CapConfig::paper_default();
        cfg.lt.assoc = 4; // tolerate fold collisions in adversarial patterns
        let mut p = CapPredictor::new(cfg);
        let rounds = 12;
        let mut last_round_correct = 0;
        for round in 0..rounds {
            for &a in &pattern {
                let ctx = LoadContext::new(0x40, 0, 0);
                let pred = p.predict(&ctx);
                p.update(&ctx, a, &pred);
                if round == rounds - 1 && pred.is_correct(a) {
                    last_round_correct += 1;
                }
            }
        }
        // Allow one miss for residual aliasing.
        assert!(
            last_round_correct + 1 >= pattern.len(),
            "{last_round_correct}/{} correct in final round",
            pattern.len()
        );
    });
}

/// A gap-0 `Session` and an immediate-update `Session` agree on any
/// suite trace prefix.
#[test]
fn gap_zero_is_immediate() {
    check::run_n("gap_zero_is_immediate", 16, |rng| {
        let spec = &cap_trace::suites::catalog()[rng.gen_range(0usize..8)];
        let trace = spec.generate(rng.gen_range(500usize..2_000));
        let mut a = small_hybrid();
        let mut b = small_hybrid();
        assert_eq!(
            Session::new(&mut a).run(&trace),
            Session::new(&mut b).gap(0).run(&trace)
        );
    });
}

/// The folded register equals a full refold of the retained window
/// after any sequence of pushes, bit upsets, copies, clears and snapshot
/// round-trips, for any spec up to the full 63-bit width.
#[test]
fn folded_register_matches_full_fold() {
    use cap_snapshot::{Restorable, Snapshot};
    check::run("folded_register_matches_full_fold", |rng| {
        let index_bits = rng.gen_range(1u32..=40);
        let spec = HistorySpec {
            length: rng.gen_range(1usize..=16),
            shift: rng.gen_range(1u32..=8),
            index_bits,
            tag_bits: rng.gen_range(0u32..=63 - index_bits),
        };
        let mut h = HistoryBuffer::new();
        let mut other = HistoryBuffer::new();
        for step in 0..rng.gen_range(1usize..200) {
            match rng.gen_range(0u8..16) {
                0 => {
                    h.corrupt_bit(rng.gen(), rng.gen());
                }
                1 => h.copy_from(&other),
                2 => h.clear(),
                3 => {
                    h = HistoryBuffer::from_payload(&h.to_payload(), "history")
                        .expect("own payload restores");
                }
                4..=6 => other.push(rng.gen(), &spec),
                _ => h.push(rng.gen(), &spec),
            }
            assert_eq!(
                h.fold(&spec),
                h.fold_last(&spec, spec.length),
                "{spec:?}, step {step}"
            );
            assert_eq!(other.fold(&spec), other.fold_last(&spec, spec.length));
        }
    });
}

/// Records the in-flight count each prediction sees, delegating to a
/// real predictor so the run is a normal pipelined run.
struct PendingRecorder {
    inner: StridePredictor,
    seen: Vec<(u64, u32)>,
}

impl AddressPredictor for PendingRecorder {
    fn predict(&mut self, ctx: &LoadContext) -> Prediction {
        self.seen.push((ctx.ip, ctx.pending));
        self.inner.predict(ctx)
    }

    fn update(&mut self, ctx: &LoadContext, actual: u64, pred: &Prediction) {
        self.inner.update(ctx, actual, pred);
    }

    fn name(&self) -> &'static str {
        "pending-recorder"
    }
}

/// The in-flight counts a gap of `gap` instructions should produce,
/// kept the long way: a per-IP map incremented at predict and
/// decremented at resolution.
fn reference_pending(trace: &cap_trace::Trace, gap: u64) -> Vec<(u64, u32)> {
    use std::collections::{HashMap, VecDeque};
    let mut pipe: VecDeque<(u64, u64)> = VecDeque::new();
    let mut in_flight: HashMap<u64, u32> = HashMap::new();
    let mut seen = Vec::new();
    for (seq, event) in trace.iter().enumerate() {
        let seq = seq as u64;
        while pipe.front().is_some_and(|&(s, _)| s + gap <= seq) {
            let (_, ip) = pipe.pop_front().expect("front checked");
            *in_flight.get_mut(&ip).expect("pushed before") -= 1;
        }
        if let cap_trace::TraceEvent::Load(load) = event {
            let n = in_flight.entry(load.ip).or_insert(0);
            seen.push((load.ip, *n));
            *n += 1;
            pipe.push_back((seq, load.ip));
        }
    }
    seen
}

/// `Session::gap` hands every prediction the same `LoadContext::pending`
/// as a reference per-IP count.
#[test]
fn session_pending_matches_reference_count() {
    check::run_n("session_pending_matches_reference_count", 12, |rng| {
        let spec = &cap_trace::suites::catalog()[rng.gen_range(0usize..45)];
        let trace = spec.generate(rng.gen_range(500usize..3_000));
        for gap in [0usize, 8, 24] {
            let mut p = PendingRecorder {
                inner: StridePredictor::new(
                    LoadBufferConfig::paper_default(),
                    StrideParams::paper_default(),
                ),
                seen: Vec::new(),
            };
            let _ = Session::new(&mut p).gap(gap).run(&trace);
            if gap == 24 {
                assert!(
                    p.seen.iter().any(|&(_, n)| n > 1),
                    "{}: no overlap",
                    spec.name
                );
            }
            assert_eq!(
                p.seen,
                reference_pending(&trace, gap as u64),
                "{} at gap {gap}",
                spec.name
            );
        }
    });
}
