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

/// The `VecDeque` history the arena ring replaced, kept as the reference
/// model of its semantics.
#[derive(Debug, Clone, Default)]
struct RefHistory {
    addrs: std::collections::VecDeque<u64>,
}

impl RefHistory {
    fn push(&mut self, addr: u64, spec: &HistorySpec) {
        self.addrs.push_back(addr);
        while self.addrs.len() > spec.length {
            self.addrs.pop_front();
        }
    }

    fn fold_last(&self, spec: &HistorySpec, length: usize) -> cap_predictor::history::FoldedHistory {
        let mask = (1u64 << spec.width()) - 1;
        let skip = self.addrs.len().saturating_sub(length);
        let h = self
            .addrs
            .iter()
            .skip(skip)
            .fold(0u64, |h, &a| ((h << spec.shift) ^ (a >> 2)) & mask);
        spec.split(h)
    }

    fn corrupt_bit(&mut self, slot: usize, bit: u32) -> bool {
        if self.addrs.is_empty() {
            return false;
        }
        let slot = slot % self.addrs.len();
        self.addrs[slot] ^= 1u64 << (bit % 64);
        true
    }

    /// The snapshot encoding: the count, then the addresses oldest first.
    fn payload(&self) -> Vec<u8> {
        let mut w = cap_snapshot::SectionWriter::new();
        w.put_len(self.addrs.len());
        for &a in &self.addrs {
            w.put_u64(a);
        }
        w.into_bytes()
    }
}

fn assert_matches_reference(
    h: cap_predictor::history::History<'_>,
    reference: &RefHistory,
    spec: &HistorySpec,
    what: &str,
) {
    use cap_snapshot::Snapshot;
    assert_eq!(h.len(), reference.addrs.len(), "{what}: len");
    assert_eq!(h.is_warm(spec), reference.addrs.len() >= spec.length, "{what}: is_warm");
    assert_eq!(h.fold(spec), reference.fold_last(spec, spec.length), "{what}: fold");
    for length in 1..=spec.length {
        assert_eq!(
            h.fold_last(spec, length),
            reference.fold_last(spec, length),
            "{what}: fold_last({length})"
        );
    }
    assert_eq!(
        HistoryBuffer::from(h).to_payload(),
        reference.payload(),
        "{what}: snapshot bytes"
    );
}

/// The arena ring — a Load Buffer way's architectural and speculative
/// histories, and the standalone `HistoryBuffer` — behaves exactly like
/// the `VecDeque` history it replaced under any sequence of pushes,
/// copies, clears, bit upsets and snapshot round-trips.
#[test]
fn arena_ring_matches_vecdeque_reference() {
    use cap_predictor::load_buffer::{HistoryLayout, LbEntryProto, LoadBuffer};
    use cap_snapshot::{Restorable, Snapshot};
    const IP: u64 = 0x40;
    check::run("arena_ring_matches_vecdeque_reference", |rng| {
        let index_bits = rng.gen_range(1u32..=40);
        let spec = HistorySpec {
            length: rng.gen_range(1usize..=16),
            shift: rng.gen_range(1u32..=8),
            index_bits,
            tag_bits: rng.gen_range(0u32..=63 - index_bits),
        };
        let layout = HistoryLayout {
            length: spec.length,
            speculative: true,
        };
        let counter = SaturatingCounter::new(2, 3, false);
        let proto = LbEntryProto {
            cap_conf: counter,
            stride_conf: counter,
        };
        let mut lb = LoadBuffer::new(LoadBufferConfig { entries: 2, assoc: 1 }, proto, layout);
        lb.lookup_or_insert(IP);
        let (mut arch, mut spec_hist) = (HistoryBuffer::new(), HistoryBuffer::new());
        let (mut ref_arch, mut ref_spec) = (RefHistory::default(), RefHistory::default());
        for step in 0..rng.gen_range(1usize..200) {
            let mut way = lb.lookup(IP).expect("resident");
            match rng.gen_range(0u8..16) {
                0 => {
                    let (slot, bit) = (rng.gen::<usize>(), rng.gen::<u32>());
                    let applied = ref_arch.corrupt_bit(slot, bit);
                    assert_eq!(way.history_mut().corrupt_bit(slot, bit), applied);
                    assert_eq!(arch.corrupt_bit(slot, bit), applied);
                }
                1 => {
                    let (slot, bit) = (rng.gen::<usize>(), rng.gen::<u32>());
                    let applied = ref_spec.corrupt_bit(slot, bit);
                    assert_eq!(way.spec_history_mut().corrupt_bit(slot, bit), applied);
                    assert_eq!(spec_hist.corrupt_bit(slot, bit), applied);
                }
                2 => {
                    way.repair_spec_history();
                    spec_hist.copy_from(&arch);
                    ref_spec = ref_arch.clone();
                }
                3 => {
                    if rng.gen_bool(0.5) {
                        way.history_mut().clear();
                        arch.clear();
                        ref_arch.addrs.clear();
                    } else {
                        way.spec_history_mut().clear();
                        spec_hist.clear();
                        ref_spec.addrs.clear();
                    }
                }
                4 => {
                    lb = LoadBuffer::from_payload(&lb.to_payload(), "lb")
                        .expect("own payload restores")
                        .fit_history(layout)
                        .expect("own histories fit");
                    arch = HistoryBuffer::from_payload(&arch.to_payload(), "history")
                        .expect("own payload restores");
                    spec_hist = HistoryBuffer::from_payload(&spec_hist.to_payload(), "history")
                        .expect("own payload restores");
                }
                5..=7 => {
                    let a = rng.gen();
                    way.spec_history_mut().push(a, &spec);
                    spec_hist.push(a, &spec);
                    ref_spec.push(a, &spec);
                }
                _ => {
                    let a = rng.gen();
                    way.history_mut().push(a, &spec);
                    arch.push(a, &spec);
                    ref_arch.push(a, &spec);
                }
            }
            let way = lb.peek(IP).expect("resident");
            let what = format!("{spec:?}, step {step}");
            assert_matches_reference(way.history(), &ref_arch, &spec, &format!("arena arch, {what}"));
            assert_matches_reference(way.spec_history(), &ref_spec, &spec, &format!("arena spec, {what}"));
            assert_matches_reference(arch.view(), &ref_arch, &spec, &format!("buffer arch, {what}"));
            assert_matches_reference(spec_hist.view(), &ref_spec, &spec, &format!("buffer spec, {what}"));
        }
    });
}
