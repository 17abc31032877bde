//! Snapshot round-trip fidelity for the timing core.
//!
//! The core is snapshotted between two trace segments; the restored core
//! (and its restored address predictor) must replay the second segment to
//! bit-identical timing statistics, and re-encoding the restored state
//! must reproduce the original bytes.

use cap_predictor::hybrid::{HybridConfig, HybridPredictor};
use cap_snapshot::{
    Restorable, SectionWriter, Snapshot, SnapshotArchive, SnapshotBuilder, SnapshotError,
};
use cap_trace::Trace;
use cap_uarch::capacity::SlotTracker;
use cap_uarch::core::{CoreConfig, CoreStats, OooCore};

fn traces() -> (Trace, Trace) {
    let catalog = cap_trace::suites::catalog();
    (catalog[0].generate(8_000), catalog[2].generate(8_000))
}

fn assert_stats_eq(a: &CoreStats, b: &CoreStats) {
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.instructions, b.instructions);
    assert_eq!(a.loads, b.loads);
    assert_eq!(a.branch_mispredicts, b.branch_mispredicts);
    assert_eq!(a.prefetches, b.prefetches);
    assert_eq!(a.l1_hit_rate.to_bits(), b.l1_hit_rate.to_bits());
    assert_eq!(a.pred, b.pred);
}

#[test]
fn core_resume_is_bit_identical() {
    let (first, second) = traces();

    // Uninterrupted: both segments through one core and predictor.
    let mut core = OooCore::new(CoreConfig::paper_default());
    let mut pred = HybridPredictor::new(HybridConfig::paper_default());
    core.run(&first, Some(&mut pred), 0);
    let reference = core.run(&second, Some(&mut pred), 0);

    // Interrupted: snapshot after the first segment, restore into fresh
    // objects, replay the second segment there.
    let mut core2 = OooCore::new(CoreConfig::paper_default());
    let mut pred2 = HybridPredictor::new(HybridConfig::paper_default());
    core2.run(&first, Some(&mut pred2), 0);

    let mut b = SnapshotBuilder::new();
    b.add("core", &core2);
    b.add("predictor", &pred2);
    let bytes = b.finish();
    let archive = SnapshotArchive::parse(&bytes).expect("own snapshot parses");
    let mut restored_core: OooCore = archive.restore("core").expect("core restores");
    let mut restored_pred: HybridPredictor =
        archive.restore("predictor").expect("predictor restores");

    let resumed = restored_core.run(&second, Some(&mut restored_pred), 0);
    assert_stats_eq(&resumed, &reference);
}

#[test]
fn core_reencode_is_identical() {
    let (first, _) = traces();
    let mut core = OooCore::new(CoreConfig::paper_default());
    core.run(&first, None, 0);
    let payload = core.to_payload();
    let restored = OooCore::from_payload(&payload, "core").expect("core payload restores");
    assert_eq!(restored.to_payload(), payload);
}

#[test]
fn hostile_core_payload_never_panics() {
    // Truncations at every prefix of a real core payload must yield a
    // structured error, not a panic.
    let (first, _) = traces();
    let mut core = OooCore::new(CoreConfig::paper_default());
    core.run(&first, None, 0);
    let payload = core.to_payload();
    let step = (payload.len() / 257).max(1);
    for cut in (0..payload.len()).step_by(step) {
        let err = OooCore::from_payload(&payload[..cut], "core");
        assert!(err.is_err(), "truncated payload at {cut} must not decode");
    }
}

#[test]
fn core_rejects_commit_ring_longer_than_rob() {
    // A full run leaves a 128-entry commit ring; the ROB size sits right
    // after the `u32` width at the start of the payload.
    let (first, _) = traces();
    let mut core = OooCore::new(CoreConfig::paper_default());
    core.run(&first, None, 0);
    let payload = core.to_payload();
    let with_rob = |rob: u64| {
        let mut p = payload.clone();
        p[4..12].copy_from_slice(&rob.to_le_bytes());
        OooCore::from_payload(&p, "core")
    };
    assert!(with_rob(128).is_ok(), "the ring fits its own ROB");
    let err = with_rob(127).expect_err("ring longer than the ROB");
    assert!(
        matches!(err, SnapshotError::BadValue { .. }),
        "unexpected error {err:?}"
    );
}

/// A slot tracker payload: width, frontier, then `(cycle, bookings)`.
fn slot_payload(width: u32, frontier: u64, bookings: &[(u64, u32)]) -> Vec<u8> {
    let mut w = SectionWriter::new();
    w.put_u32(width);
    w.put_u64(frontier);
    w.put_len(bookings.len());
    for &(cycle, used) in bookings {
        w.put_u64(cycle);
        w.put_u32(used);
    }
    w.into_bytes()
}

#[test]
fn slot_tracker_rejects_far_bookings_without_allocating() {
    for (frontier, cycle) in [(0, u64::MAX - 1), (7, u64::MAX), (0, 1 << 40)] {
        let payload = slot_payload(4, frontier, &[(cycle, 1)]);
        let err = SlotTracker::from_payload(&payload, "slots").expect_err("far booking");
        assert!(
            matches!(err, SnapshotError::WidthOverflow { .. }),
            "unexpected error {err:?}"
        );
    }
}

#[test]
fn slot_tracker_rejects_malformed_bookings() {
    for bookings in [
        &[(12, 1), (10, 1)][..],
        &[(10, 1), (10, 1)],
        &[(10, 0)],
        &[(10, 5)],
    ] {
        let payload = slot_payload(4, 0, bookings);
        assert!(
            SlotTracker::from_payload(&payload, "slots").is_err(),
            "{bookings:?}"
        );
    }
}

#[test]
fn slot_tracker_restores_older_payload_with_stale_bookings() {
    // Older encodings kept bookings below the frontier until a prune.
    let old = slot_payload(
        2,
        100,
        &[(10, 2), (50, 1), (99, 2), (100, 2), (101, 1), (105, 2)],
    );
    let mut restored = SlotTracker::from_payload(&old, "slots").expect("old payload restores");

    let mut live = SlotTracker::new(2);
    live.retire_below(100);
    for at in [100, 100, 101, 105, 105] {
        live.alloc(at);
    }
    assert_eq!(
        restored.to_payload(),
        live.to_payload(),
        "stale bookings dropped"
    );
    for at in [0, 50, 100, 100, 101, 104, 105, 105, 200, 103] {
        assert_eq!(restored.alloc(at), live.alloc(at), "request {at}");
    }
}
