//! Workload inputs, all derived from the `--seed` argument.
//!
//! The seed perturbs every catalog `TraceSpec.seed`; seed 0 keeps the
//! catalog's own seeds, so seed-0 results are the paper-reproduction
//! numbers. The programs under test only ever see the generated traces
//! and request streams.

use cap_harness::runner::Scale;
use cap_predictor::drive::ControlState;
use cap_service::prelude::Request;
use cap_trace::suites::TraceSpec;
use cap_trace::TraceEvent;

/// Traces taken from each suite by the `repro-*` workloads.
pub const TRACES_PER_SUITE: usize = 1;
/// Dynamic loads generated per trace by the `repro-*` workloads.
pub const REPRO_LOADS_PER_TRACE: usize = 20_000;
/// Loads in each serving client's request stream; a client that reaches
/// the end replays it from the start.
pub const STREAM_LOADS: usize = 100_000;

/// `spec` with its generation seed perturbed by the workload seed.
#[must_use]
pub fn perturb(spec: &TraceSpec, seed: u64) -> TraceSpec {
    TraceSpec {
        seed: spec.seed ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ..spec.clone()
    }
}

/// The `repro-*` catalog subset (suite order) under the workload seed.
#[must_use]
pub fn repro_subset(seed: u64) -> Vec<TraceSpec> {
    scale().traces().iter().map(|s| perturb(s, seed)).collect()
}

/// The scale the `repro-*` subset is drawn at.
#[must_use]
pub fn scale() -> Scale {
    Scale {
        loads_per_trace: REPRO_LOADS_PER_TRACE,
        traces_per_suite: Some(TRACES_PER_SUITE),
    }
}

/// Request mix of a serving client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Every load is an `Observe` (predict + train).
    ObserveOnly,
    /// Three `Predict` requests to one `Observe`.
    ReadHeavy,
}

/// The request stream client `client` replays: the loads of a distinct
/// catalog trace (perturbed by `seed`), with the GHR tracked the same way
/// `simulate client` tracks it.
#[must_use]
pub fn request_stream(seed: u64, client: usize, mix: Mix) -> Vec<Request> {
    let subset = repro_subset(seed);
    let spec = &subset[client % subset.len()];
    let trace = spec.generate(STREAM_LOADS);
    let mut control = ControlState::default();
    let mut out = Vec::with_capacity(STREAM_LOADS);
    for event in trace.events() {
        match event {
            TraceEvent::Load(load) => {
                let observe = match mix {
                    Mix::ObserveOnly => true,
                    Mix::ReadHeavy => out.len() % 4 == 3,
                };
                out.push(if observe {
                    Request::Observe {
                        ip: load.ip,
                        offset: load.offset,
                        ghr: control.ghr,
                        actual: load.addr,
                    }
                } else {
                    Request::Predict {
                        ip: load.ip,
                        offset: load.offset,
                        ghr: control.ghr,
                    }
                });
            }
            TraceEvent::Branch(b) => control.on_branch(b.ip, b.taken, b.kind),
            TraceEvent::Store(_) | TraceEvent::Op(_) => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cap_service::prelude::WireRequest;

    /// The wire bytes of a request stream, as a client would send them.
    fn wire_bytes(stream: &[Request]) -> Vec<u8> {
        stream
            .iter()
            .flat_map(|&request| {
                WireRequest::Serve {
                    request,
                    budget: None,
                    epoch: None,
                }
                .encode()
            })
            .collect()
    }

    fn subset_key(seed: u64) -> Vec<(&'static str, u64, u64)> {
        repro_subset(seed)
            .iter()
            .map(|s| (s.name, s.seed, s.variant))
            .collect()
    }

    #[test]
    fn seed_zero_is_the_catalog() {
        let catalog: Vec<u64> = scale().traces().iter().map(|s| s.seed).collect();
        let ours: Vec<u64> = repro_subset(0).iter().map(|s| s.seed).collect();
        assert_eq!(ours, catalog);
        assert_eq!(ours.len(), 8 * TRACES_PER_SUITE);
    }

    #[test]
    fn same_seed_same_subset_other_seed_other_subset() {
        assert_eq!(subset_key(7), subset_key(7));
        assert_ne!(subset_key(7), subset_key(8));
        assert_ne!(subset_key(7), subset_key(0));
    }

    #[test]
    fn same_seed_gives_byte_identical_request_stream() {
        for mix in [Mix::ObserveOnly, Mix::ReadHeavy] {
            let a = wire_bytes(&request_stream(3, 1, mix));
            let b = wire_bytes(&request_stream(3, 1, mix));
            assert_eq!(a, b);
            assert_ne!(a, wire_bytes(&request_stream(4, 1, mix)));
        }
    }

    #[test]
    fn clients_replay_different_traces_and_mixes_differ() {
        let a = request_stream(5, 0, Mix::ObserveOnly);
        let b = request_stream(5, 1, Mix::ObserveOnly);
        assert_ne!(wire_bytes(&a), wire_bytes(&b));
        assert!(a.len() >= STREAM_LOADS);
        assert!(a.iter().all(|r| matches!(r, Request::Observe { .. })));

        let mixed = request_stream(5, 0, Mix::ReadHeavy);
        let observes = mixed
            .iter()
            .filter(|r| matches!(r, Request::Observe { .. }))
            .count();
        assert_eq!(observes, mixed.len() / 4);
    }
}
