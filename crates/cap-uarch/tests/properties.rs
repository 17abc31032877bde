//! Property-based tests for the timing substrate, driven by the in-repo
//! `cap_check` harness.

use cap_predictor::load_buffer::LoadBufferConfig;
use cap_predictor::stride::{StrideParams, StridePredictor};
use cap_predictor::types::{AddressPredictor, LoadContext, Prediction};
use cap_rand::check;
use cap_rand::rngs::StdRng;
use cap_rand::{Rng, SeedableRng};
use cap_snapshot::{Restorable, Snapshot};
use cap_trace::builder::TraceBuilder;
use cap_trace::record::OpLatency;
use cap_uarch::capacity::{InOrderSlots, SlotTracker};
use cap_uarch::core::{run_trace, CoreConfig};
use cap_uarch::prelude::*;
use std::collections::{BTreeMap, HashMap, VecDeque};

/// SlotTracker never books more than `width` events into one cycle and
/// never books before the requested cycle.
#[test]
fn slot_tracker_respects_width() {
    check::run("slot_tracker_respects_width", |rng| {
        let width = rng.gen_range(1u32..8);
        let requests = check::vec_of(rng, 1..200, |r| r.gen_range(0u64..64));
        let mut t = SlotTracker::new(width);
        let mut booked: HashMap<u64, u32> = HashMap::new();
        for at in requests {
            let got = t.alloc(at);
            assert!(got >= at);
            let c = booked.entry(got).or_insert(0);
            *c += 1;
            assert!(*c <= width);
        }
    });
}

/// Naive first-fit booking model: probes one cycle at a time from
/// `max(at, frontier)` and forgets bookings below the frontier.
struct ReferenceTracker {
    width: u32,
    frontier: u64,
    used: BTreeMap<u64, u32>,
}

impl ReferenceTracker {
    fn alloc(&mut self, at: u64) -> u64 {
        let mut cycle = at.max(self.frontier);
        loop {
            let used = self.used.entry(cycle).or_insert(0);
            if *used < self.width {
                *used += 1;
                return cycle;
            }
            cycle += 1;
        }
    }

    fn retire_below(&mut self, bound: u64) {
        if bound > self.frontier {
            self.frontier = bound;
            self.used = self.used.split_off(&bound);
        }
    }
}

/// SlotTracker returns exactly the reference model's cycle for every
/// request, across random interleavings of bookings (clustered, far
/// below the frontier, far above the highest booking), retirements and
/// snapshot round-trips.
#[test]
fn slot_tracker_matches_reference_model() {
    check::run("slot_tracker_matches_reference_model", |rng| {
        let width = rng.gen_range(1u32..=8);
        let mut tracker = SlotTracker::new(width);
        let mut reference = ReferenceTracker {
            width,
            frontier: 0,
            used: BTreeMap::new(),
        };
        let mut highest = 0u64;
        for step in 0..rng.gen_range(1usize..1_500) {
            let frontier = reference.frontier;
            let at = match rng.gen_range(0u8..10) {
                0 => {
                    let bound = match rng.gen_range(0u8..4) {
                        0 => frontier.saturating_sub(rng.gen_range(0..100)),
                        1 => highest + rng.gen_range(0..50),
                        _ => rng.gen_range(frontier..=highest.max(frontier)),
                    };
                    tracker.retire_below(bound);
                    reference.retire_below(bound);
                    continue;
                }
                1 => frontier.saturating_sub(rng.gen_range(1_000..1_000_000)),
                2 => highest + rng.gen_range(1_000..20_000),
                3 => frontier,
                _ => highest.saturating_sub(rng.gen_range(0..64)),
            };
            let got = tracker.alloc(at);
            assert_eq!(
                got,
                reference.alloc(at),
                "width {width}, step {step}, request {at}"
            );
            highest = highest.max(got);
            if step % 97 == 0 {
                tracker = SlotTracker::from_payload(&tracker.to_payload(), "slots")
                    .expect("own payload restores");
            }
        }
    });
}

/// The next request of a non-decreasing stream: mostly repeats and small
/// steps (so cycles fill and spill), sometimes a large jump.
fn next_in_order(rng: &mut StdRng, at: u64) -> u64 {
    at + match rng.gen_range(0u8..10) {
        0..=4 => 0,
        5..=8 => rng.gen_range(1..4),
        _ => rng.gen_range(100..20_000),
    }
}

/// `InOrderSlots` returns exactly `SlotTracker`'s cycle for every request
/// of a non-decreasing stream, across widths 1–8, retirements below and
/// above the latest booking, and snapshot round-trips.
#[test]
fn in_order_slots_match_slot_tracker() {
    check::run("in_order_slots_match_slot_tracker", |rng| {
        let width = rng.gen_range(1u32..=8);
        let mut cursor = InOrderSlots::new(width);
        let mut reference = SlotTracker::new(width);
        let (mut at, mut last, mut frontier) = (0u64, 0u64, 0u64);
        for step in 0..rng.gen_range(1usize..2_000) {
            if step % 37 == 0 {
                let payload = cursor.to_payload();
                cursor =
                    InOrderSlots::from_payload(&payload, "slots").expect("own payload restores");
                assert_eq!(cursor.to_payload(), payload, "re-encoding is canonical");
            }
            if rng.gen_range(0u8..12) == 0 {
                let bound = match rng.gen_range(0u8..3) {
                    0 => rng.gen_range(frontier..=last.max(frontier)),
                    1 => last + rng.gen_range(1..50),
                    _ => frontier.saturating_sub(rng.gen_range(0..10)),
                };
                cursor.retire_below(bound);
                reference.retire_below(bound);
                frontier = frontier.max(bound);
                continue;
            }
            at = next_in_order(rng, at);
            let got = cursor.alloc(at);
            assert_eq!(
                got,
                reference.alloc(at),
                "width {width}, step {step}, request {at}"
            );
            last = got;
        }
    });
}

/// An `InOrderSlots` restored from a `SlotTracker` payload of a
/// non-decreasing stream (the encoding the in-order stages used to have,
/// with several bookings) continues exactly as the tracker does.
#[test]
fn in_order_slots_restore_slot_tracker_payload() {
    check::run("in_order_slots_restore_slot_tracker_payload", |rng| {
        let width = rng.gen_range(1u32..=8);
        let mut reference = SlotTracker::new(width);
        let mut at = 0u64;
        for _ in 0..rng.gen_range(1usize..300) {
            at = next_in_order(rng, at);
            reference.alloc(at);
        }
        if rng.gen::<bool>() {
            reference.retire_below(at.saturating_sub(rng.gen_range(0..3)));
        }
        let mut cursor = InOrderSlots::from_payload(&reference.to_payload(), "slots")
            .expect("tracker payload restores as a cursor");
        for step in 0..rng.gen_range(1usize..300) {
            at = next_in_order(rng, at);
            assert_eq!(
                cursor.alloc(at),
                reference.alloc(at),
                "width {width}, step {step}, request {at}"
            );
        }
    });
}

/// Cache hit/miss counts always sum to accesses; hit rate in [0,1].
#[test]
fn cache_accounting() {
    check::run("cache_accounting", |rng| {
        let addrs = check::vec_of(rng, 1..500, |r| r.gen::<u32>());
        let mut c = Cache::new(CacheConfig {
            size_bytes: 1024,
            line_bytes: 32,
            assoc: 2,
        });
        for (i, a) in addrs.iter().enumerate() {
            c.access(u64::from(*a));
            assert_eq!(c.hits() + c.misses(), (i + 1) as u64);
        }
        assert!((0.0..=1.0).contains(&c.hit_rate()));
    });
}

/// Repeating the same address after the first access always hits.
#[test]
fn cache_temporal_locality() {
    check::run("cache_temporal_locality", |rng| {
        let addr = rng.gen::<u32>();
        let repeats = rng.gen_range(1usize..20);
        let mut c = Cache::new(CacheConfig::paper_l1());
        c.access(u64::from(addr));
        for _ in 0..repeats {
            assert!(c.access(u64::from(addr)));
        }
    });
}

/// Branch predictors converge on any strongly biased branch.
#[test]
fn branch_predictor_learns_bias() {
    check::run("branch_predictor_learns_bias", |rng| {
        let taken = rng.gen::<bool>();
        let ip = rng.gen::<u32>();
        let mut p = HybridBranchPredictor::paper_default();
        for _ in 0..8 {
            p.update(u64::from(ip), 0, taken);
        }
        assert_eq!(p.predict(u64::from(ip), 0), taken);
    });
}

/// The core is deterministic and conserves instructions for any trace
/// shape; cycles are bounded below by instructions / width.
#[test]
fn core_conservation_laws() {
    check::run("core_conservation_laws", |rng| {
        let events = check::vec_of(rng, 1..300, |r| (r.gen_range(0u8..4), r.gen::<u32>()));
        let mut b = TraceBuilder::new();
        for (i, (kind, payload)) in events.iter().enumerate() {
            let ip = 0x400 + (i as u64 % 64) * 4;
            match kind {
                0 => b.load(ip, u64::from(*payload) & !3, 0),
                1 => b.store(ip, u64::from(*payload) & !3),
                2 => b.cond_branch(ip, payload % 2 == 0),
                _ => b.op(ip, OpLatency::Alu, None, [None, None]),
            }
        }
        let trace = b.finish();
        let cfg = CoreConfig::paper_default();
        let s1 = run_trace(&trace, &cfg, None, 0);
        let s2 = run_trace(&trace, &cfg, None, 0);
        assert_eq!(s1.cycles, s2.cycles, "timing must be deterministic");
        assert_eq!(s1.instructions as usize, trace.len());
        assert_eq!(s1.loads as usize, trace.load_count());
        // Can't commit more than `width` per cycle.
        assert!(
            s1.cycles >= (trace.len() as u64) / u64::from(cfg.width),
            "cycles {} below width bound",
            s1.cycles
        );
        assert!(s1.ipc() <= f64::from(cfg.width) + 1e-9);
    });
}

/// Address prediction never slows the core down by more than the
/// bounded replay overhead on random (unpredictable) streams.
#[test]
fn prediction_is_nearly_free_when_useless() {
    check::run_n("prediction_is_nearly_free_when_useless", 16, |rng| {
        let seed = rng.gen::<u64>();
        let mut inner = StdRng::seed_from_u64(seed);
        let mut b = TraceBuilder::new();
        for _ in 0..500 {
            b.load(0x40, (inner.gen::<u32>() as u64) & !3, 0);
        }
        let trace = b.finish();
        let cfg = CoreConfig::paper_default();
        let base = run_trace(&trace, &cfg, None, 0);
        let mut p = cap_predictor::hybrid::HybridPredictor::new(
            cap_predictor::hybrid::HybridConfig::paper_default(),
        );
        let with = run_trace(&trace, &cfg, Some(&mut p), 0);
        assert!(
            with.cycles as f64 <= base.cycles as f64 * 1.10,
            "{} vs {}",
            with.cycles,
            base.cycles
        );
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

/// The timing core hands every prediction the same
/// `LoadContext::pending` as a reference per-IP count.
#[test]
fn core_pending_matches_reference_count() {
    check::run_n("core_pending_matches_reference_count", 8, |rng| {
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
            let _ = run_trace(&trace, &CoreConfig::paper_default(), Some(&mut p), gap);
            assert_eq!(
                p.seen,
                reference_pending(&trace, gap as u64),
                "{} at gap {gap}",
                spec.name
            );
        }
    });
}
