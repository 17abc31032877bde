//! The traced run: a span around every call into each layer, from the
//! trace generator up to the router, and the serving ladder built from
//! their self times.
//!
//! Every traced run measures every layer, so each workload's traced run
//! reports the same per-layer metrics. The workload named on the command
//! line also gets an untraced twin of its own section, and the gap between
//! the two is reported as the tracing overhead.

use crate::inputs::{repro_subset, request_stream, Mix, REPRO_LOADS_PER_TRACE};
use crate::repro::{self, Kind, PREDICT_CONFIGS};
use crate::serve::{answer_one, closed_loop, drive, reply_fits, Loop, Proc, CLIENTS, SPAN_CLIENT};
use crate::spans::{self, Span, Tracer};
use crate::stats::{median, Summary};
use crate::workload::{accounting, tally, Fleet, Report, Workload};
use cap_cluster::prelude::{Router, RouterConfig};
use cap_predictor::LoadContext;
use cap_service::prelude::{Request, Response, Service, ServiceConfig, WireRequest, WireResponse};
use std::path::Path;
use std::sync::mpsc::sync_channel;
use std::time::{Duration, Instant};

const SPAN_FLOOR: &str = "floor.channel_pingpong";
const SPAN_BACKEND_OBSERVE: &str = "cap-predictor.backend_observe";
const SPAN_BACKEND_PREDICT: &str = "cap-predictor.backend_predict";
const SPAN_CALL: &str = "cap-service.call";
const SPAN_CODEC: &str = "cap-service.wire_codec";
const SPAN_TCP: &str = "cap-service.tcp";
const SPAN_ROUTER: &str = "cap-cluster.router_call";
const SPAN_SHIP: &str = "cap-cluster.ship_now";
const SPAN_ROUTED: &str = "client.routed";

/// Backend and codec operations per span (single calls are too short to
/// time one by one).
const BATCH: usize = 1_000;
/// Replica ships timed.
const SHIPS: usize = 5;

/// Adds `name.p50` and `name.p99` of `samples` (microseconds).
fn latency(report: &mut Report, name: &str, samples: &[f64]) -> Summary {
    let s = Summary::of(samples);
    report.metric(format!("{name}.p50"), s.p50, "us");
    report.metric(format!("{name}.p99"), s.p99, "us");
    report.note(&format!("{name}.samples"), s.n);
    s
}

fn loop_checked(report: &mut Report, what: &str, run: &Loop) {
    report.attempted += run.sent;
    report.check(
        run.failed == 0,
        &format!("{what}: {} wrong replies", run.failed),
        run.failed,
    );
}

fn ns_per_op(spans: &[Span], name: &str, ops: u64) -> f64 {
    spans::total(spans, name) as f64 / ops.max(1) as f64
}

/// The repro layers: one traced predict sweep and one traced timing
/// sweep. For a `repro-*` workload, untraced and traced sweeps alternate
/// and the overhead is the ratio of their medians.
fn repro_layers(report: &mut Report, t: &mut Tracer, seed: u64, own: Option<Kind>) {
    let specs = repro_subset(seed);
    let predict = repro::sweep_predict(&specs, REPRO_LOADS_PER_TRACE, t);
    let timing = repro::sweep_timing(&specs, REPRO_LOADS_PER_TRACE, t);
    let expected = |kind: Kind, digest: u64| if seed == 0 { kind.reference() } else { digest };
    let p = repro::predict_outcome(&predict);
    let m = repro::timing_outcome(&timing);
    tally(report, Kind::Predict, &p, expected(Kind::Predict, p.digest));
    tally(report, Kind::Timing, &m, expected(Kind::Timing, m.digest));

    if let Some(kind) = own {
        let mut off = Tracer::new(false, Instant::now());
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            let start = Instant::now();
            kind.sweep(&specs, &mut off);
            plain.push(start.elapsed().as_secs_f64());
            let start = Instant::now();
            let again = kind.sweep(&specs, &mut Tracer::new(true, Instant::now()));
            traced.push(start.elapsed().as_secs_f64());
            let want = if kind == Kind::Predict {
                p.digest
            } else {
                m.digest
            };
            tally(report, kind, &again, want);
        }
        report.metric(
            "trace.overhead_pct",
            (median(&traced) / median(&plain) - 1.0) * 100.0,
            "%",
        );
    }

    let spans = t.spans();
    let generated: u64 = predict.iter().map(|row| row[0].loads).sum::<u64>()
        + timing.iter().map(|(b, _)| b.loads).sum::<u64>();
    report.metric(
        "cap-trace.generate_ns_per_load",
        ns_per_op(spans, repro::SPAN_GENERATE, generated),
        "ns",
    );
    for (i, config) in PREDICT_CONFIGS.iter().enumerate() {
        let mut merged = cap_predictor::metrics::PredictorStats::new();
        predict.iter().for_each(|row| merged.merge(&row[i]));
        let name = config.name;
        let ns = ns_per_op(spans, config.span, merged.loads);
        report.metric(
            format!("cap-predictor.session_ns_per_load.{name}"),
            ns,
            "ns",
        );
        report.metric(
            format!("cap-predictor.spec_rate.{name}"),
            merged.prediction_rate(),
            "ratio",
        );
        report.metric(
            format!("cap-predictor.spec_accuracy.{name}"),
            merged.accuracy(),
            "ratio",
        );
    }
    let base_loads: u64 = timing.iter().map(|(b, _)| b.loads).sum();
    let hyb_loads: u64 = timing.iter().map(|(_, h)| h.loads).sum();
    report.metric(
        "cap-uarch.run_trace_ns_per_load.baseline",
        ns_per_op(spans, repro::SPAN_RUN_BASELINE, base_loads),
        "ns",
    );
    report.metric(
        "cap-uarch.run_trace_ns_per_load.hybrid",
        ns_per_op(spans, repro::SPAN_RUN_HYBRID, hyb_loads),
        "ns",
    );
    let cycles = |f: fn(&(cap_uarch::core::CoreStats, cap_uarch::core::CoreStats)) -> u64| {
        timing.iter().map(f).sum::<u64>() as f64
    };
    report.metric(
        "cap-uarch.cycles.baseline",
        cycles(|(b, _)| b.cycles),
        "count",
    );
    report.metric(
        "cap-uarch.cycles.hybrid",
        cycles(|(_, h)| h.cycles),
        "count",
    );
    let log_sum: f64 = timing.iter().map(|(b, h)| h.speedup_over(b).ln()).sum();
    report.metric(
        "cap-uarch.speedup_geomean",
        (log_sum / timing.len() as f64).exp(),
        "ratio",
    );
    let selfs = spans::self_times(spans);
    let sweep_self: u64 = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == repro::SPAN_PREDICT_SWEEP || s.name == repro::SPAN_TIMING_SWEEP)
        .map(|(_, own)| *own)
        .sum();
    report.metric(
        "cap-harness.sweep_self_ns_per_load",
        sweep_self as f64 / (p.loads + m.loads) as f64,
        "ns",
    );
}

/// Bare two-thread `sync_channel` round trips, one pair per client.
fn floor(duration: Duration, epoch: Instant) -> Loop {
    std::thread::scope(|scope| {
        let pairs: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let (to_echo, echo_in) = sync_channel::<usize>(1);
                let (echo_out, from_echo) = sync_channel::<usize>(1);
                scope.spawn(move || {
                    while let Ok(v) = echo_in.recv() {
                        if echo_out.send(v).is_err() {
                            break;
                        }
                    }
                });
                (to_echo, from_echo)
            })
            .collect();
        closed_loop(pairs, duration, SPAN_FLOOR, true, epoch, |(tx, rx), i| {
            tx.send(i).is_ok() && rx.recv() == Ok(i)
        })
    })
}

/// The primary backend the service serves, driven directly: predict +
/// update over the stream, then predict alone over it again.
fn backend(report: &mut Report, t: &mut Tracer, stream: &[Request]) -> f64 {
    let mut predictor = ServiceConfig::default().primary.build();
    let contexts: Vec<(LoadContext, u64)> = stream
        .iter()
        .filter_map(|r| match *r {
            Request::Observe {
                ip,
                offset,
                ghr,
                actual,
            } => Some((LoadContext::new(ip, offset, ghr), actual)),
            Request::Predict { .. } => None,
        })
        .collect();
    let mut hits = 0u64;
    for chunk in contexts.chunks(BATCH) {
        t.span(SPAN_BACKEND_OBSERVE, |_| {
            for (ctx, actual) in chunk {
                let p = predictor.predict(ctx);
                hits += u64::from(p.is_correct(*actual));
                predictor.update(ctx, *actual, &p);
            }
        });
    }
    for chunk in contexts.chunks(BATCH) {
        t.span(SPAN_BACKEND_PREDICT, |_| {
            for (ctx, _) in chunk {
                hits += u64::from(std::hint::black_box(predictor.predict(ctx)).addr.is_some());
            }
        });
    }
    std::hint::black_box(hits);
    let ops = contexts.len() as u64;
    let observe = ns_per_op(t.spans(), SPAN_BACKEND_OBSERVE, ops);
    report.metric("cap-predictor.backend_observe_ns", observe, "ns");
    report.metric(
        "cap-predictor.backend_predict_ns",
        ns_per_op(t.spans(), SPAN_BACKEND_PREDICT, ops),
        "ns",
    );
    observe
}

/// Request plus response encode and decode, checked for round-trip
/// equality. Returns ns per request.
fn codec(report: &mut Report, t: &mut Tracer, stream: &[Request]) -> f64 {
    let mut broken = 0u64;
    for chunk in stream.chunks(BATCH) {
        t.span(SPAN_CODEC, |_| {
            for &request in chunk {
                let wire = WireRequest::Serve {
                    request,
                    budget: None,
                    epoch: None,
                };
                let back = WireRequest::decode(&wire.encode());
                let reply = WireResponse::Response(Response::Observed {
                    addr: Some(0x1000),
                    speculate: true,
                    correct: false,
                    rung: cap_service::prelude::Rung::Hybrid,
                });
                let reply_back = WireResponse::decode(&reply.encode());
                broken +=
                    u64::from(back.as_ref() != Ok(&wire) || reply_back.as_ref() != Ok(&reply));
            }
        });
    }
    report.attempted += stream.len() as u64;
    report.check(broken == 0, "wire codec round trip", broken);
    let ns = ns_per_op(t.spans(), SPAN_CODEC, stream.len() as u64);
    report.metric("cap-service.wire_codec_ns", ns, "ns");
    ns
}

/// Latency rungs measured by the ladder, p50 in microseconds.
struct Rungs {
    floor: Summary,
    backend_us: f64,
    call: Summary,
    codec_us: f64,
    tcp: Summary,
    router: Summary,
    routed: Summary,
}

/// Self time per rung, the model of the routed p50 built from them, and
/// rungs that contradict their nesting.
fn ladder(report: &mut Report, r: &Rungs) {
    let own = [
        ("floor", r.floor.p50),
        ("backend", r.backend_us),
        ("call", r.call.p50 - r.floor.p50 - r.backend_us),
        ("codec", r.codec_us),
        ("tcp", r.tcp.p50 - r.call.p50 - r.codec_us),
        ("router", r.router.p50 - r.tcp.p50),
    ];
    for (name, v) in own {
        report.metric(format!("ladder.self_us.{name}"), v, "us");
    }
    // A routed request crosses the codec and a TCP hop twice: client to
    // router, then router to node.
    let model: f64 = own.iter().map(|(_, v)| v).sum::<f64>() + own[3].1 + own[4].1;
    report.metric("ladder.model_us", model, "us");
    report.metric("ladder.routed_p50_us", r.routed.p50, "us");
    let gap = (model / r.routed.p50 - 1.0) * 100.0;
    report.metric("ladder.gap_abs_pct", gap.abs(), "%");
    report.note("ladder_gap_pct", gap);
    let spread = (r.routed.p75 - r.routed.p25) / r.routed.p50 * 100.0;
    report.metric("ladder.routed_spread_pct", spread, "%");
    // A rung whose middle half lies wholly below the middle half of the
    // rung it contains is measured wrong.
    let nesting = [
        ("call", &r.call, "floor", &r.floor),
        ("tcp", &r.tcp, "call", &r.call),
        ("router", &r.router, "tcp", &r.tcp),
        ("routed", &r.routed, "router", &r.router),
    ];
    let mut inversions = 0;
    for (outer, o, inner, i) in nesting {
        if o.p75 < i.p25 {
            inversions += 1;
            report.note(
                "ladder_inversion",
                format!("{outer} p50 {:.1} < {inner} p50 {:.1}", o.p50, i.p50),
            );
        }
    }
    report.metric("ladder.inversions", f64::from(inversions), "count");
}

fn service_counts(report: &mut Report, snap: &cap_obs::StatsSnapshot) {
    use cap_service::names;
    let c = |n: &str| snap.counter(n).unwrap_or(0) as f64;
    let hist = snap
        .histogram(names::LATENCY_BY_RUNG[0])
        .map_or((0, 0), |h| (h.p50(), h.p99()));
    report.metric("cap-service.server_latency_us.p50", hist.0 as f64, "us");
    report.metric("cap-service.server_latency_us.p99", hist.1 as f64, "us");
    report.metric("cap-service.accepted", c(names::ACCEPTED), "count");
    report.metric("cap-service.shed", c(names::SHED), "count");
    for (rung, name) in ["hybrid", "stride_only", "bypass"]
        .iter()
        .zip(names::LATENCY_BY_RUNG)
    {
        let served = snap.histogram(name).map_or(0, |h| h.to_histogram().count());
        report.metric(
            format!("cap-service.served_by_rung.{rung}"),
            served as f64,
            "count",
        );
    }
    report.metric(
        "cap-service.deadline_missed",
        c(names::DEADLINE_QUEUED) + c(names::DEADLINE_BACKEND),
        "count",
    );
    report.metric("cap-service.demotions", c(names::LADDER_DEMOTE), "count");
}

/// The serving layers, bottom to top.
fn serve_layers(
    report: &mut Report,
    t: &mut Tracer,
    workload: Workload,
    seed: u64,
    slice: Duration,
    simulate: &Path,
) -> Result<(), String> {
    let epoch = Instant::now();
    let observe: Vec<_> = (0..CLIENTS)
        .map(|c| request_stream(seed, c, Mix::ObserveOnly))
        .collect();
    let mixed: Vec<_> = (0..CLIENTS)
        .map(|c| request_stream(seed, c, Mix::ReadHeavy))
        .collect();

    let run = floor(slice, epoch);
    loop_checked(report, "floor", &run);
    let floor = latency(report, "floor.channel_pingpong_us", &run.latencies_us);
    t.absorb(run.tracer);

    let backend_us = backend(report, t, &observe[0]) / 1e3;

    let service = Service::start(ServiceConfig::default());
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| (service.handle(), &observe[c]))
        .collect();
    let run = closed_loop(handles, slice, SPAN_CALL, true, epoch, |(h, stream), i| {
        let request = stream[i % stream.len()];
        let reply = h.call(request, None).map(WireResponse::Response);
        reply_fits(&request, &reply)
    });
    drop(service.shutdown(Duration::from_millis(500)));
    loop_checked(report, "service call", &run);
    let call = latency(report, "cap-service.call_us", &run.latencies_us);
    t.absorb(run.tracer);

    let codec_us = codec(report, t, &observe[0]) / 1e3;

    // Direct TCP to one `simulate serve`.
    let fleet = Fleet::launch(simulate, false)?;
    if workload == Workload::ServeObserve {
        overhead(report, &fleet, &observe, slice, epoch);
    }
    let run = drive(fleet.front(), &observe, slice, SPAN_TCP, true, epoch);
    loop_checked(report, "tcp", &run);
    let snap = fleet.obs()?;
    let tcp = latency(report, "cap-service.tcp_us", &run.latencies_us);
    t.absorb(run.tracer);
    service_counts(report, &snap);
    fleet.stop()?;

    // The router in-process over two nodes, then `simulate route` in front
    // of the same nodes for the end-to-end figure the ladder must explain.
    let nodes = [Proc::serve(simulate)?, Proc::serve(simulate)?];
    let addrs: Vec<_> = nodes.iter().map(|n| n.addr).collect();
    let router = Router::new(&addrs, RouterConfig::default()).map_err(|e| e.to_string())?;
    let streams: Vec<_> = mixed.iter().collect();
    let run = closed_loop(streams, slice, SPAN_ROUTER, true, epoch, |stream, i| {
        let request = stream[i % stream.len()];
        reply_fits(
            &request,
            &router.call(request, None).map(WireResponse::Response),
        )
    });
    loop_checked(report, "router", &run);
    let router_lat = latency(report, "cap-cluster.router_call_us", &run.latencies_us);
    t.absorb(run.tracer);
    let (mut ship_ms, mut ship_bytes) = (Vec::new(), Vec::new());
    for _ in 0..SHIPS {
        let start = Instant::now();
        let shipped = t.span(SPAN_SHIP, |_| router.ship_now());
        ship_ms.push(start.elapsed().as_secs_f64() * 1e3);
        report.attempted += shipped.len() as u64;
        let failed = shipped.iter().filter(|s| s.is_err()).count() as u64;
        report.check(failed == 0, "replica ship", failed);
        ship_bytes.push(shipped.iter().flatten().sum::<usize>() as f64);
    }
    report.metric("cap-cluster.ship_ms", median(&ship_ms), "ms");
    report.metric("cap-cluster.ship_bytes", median(&ship_bytes), "bytes");
    let a = router.accounting();
    report.check(
        a.balances(),
        &format!("in-process router unbalanced: {a:?}"),
        1,
    );
    for (name, v) in [
        ("accepted", a.accepted),
        ("answered", a.answered),
        ("shed", a.shed),
        ("failover", a.failover_attributed),
        ("other", a.other_error),
    ] {
        report.metric(format!("cap-cluster.{name}"), v as f64, "count");
    }
    drop(router);

    let route = Proc::route(simulate, &addrs)?;
    answer_one(route.addr)?;
    let fleet = Fleet {
        nodes: nodes.into(),
        router: Some(route),
    };
    if workload == Workload::ServeRouted {
        overhead(report, &fleet, &mixed, slice, epoch);
    }
    let sent_before = accounting(&fleet.obs()?).accepted;
    let run = drive(fleet.front(), &mixed, slice, SPAN_ROUTED, true, epoch);
    loop_checked(report, "routed", &run);
    let snap = fleet.obs()?;
    let after = accounting(&snap);
    report.check(
        after.balances(),
        &format!("route accounting unbalanced: {after:?}"),
        1,
    );
    let accepted = after.accepted - sent_before;
    report.check(
        accepted == run.sent,
        &format!("route accepted {accepted} != sent {}", run.sent),
        accepted.abs_diff(run.sent),
    );
    let routed = Summary::of(&run.latencies_us);
    t.absorb(run.tracer);
    fleet.stop()?;

    ladder(
        report,
        &Rungs {
            floor,
            backend_us,
            call,
            codec_us,
            tcp,
            router: router_lat,
            routed,
        },
    );
    Ok(())
}

/// Alternating untraced and traced client rounds against `fleet`: the
/// tracing overhead on the workload's own p50 (median over rounds).
fn overhead(
    report: &mut Report,
    fleet: &Fleet,
    streams: &[Vec<Request>],
    slice: Duration,
    epoch: Instant,
) {
    const ROUNDS: u32 = 4;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        for (on, p50s) in [(false, &mut plain), (true, &mut traced)] {
            let run = drive(
                fleet.front(),
                streams,
                slice / ROUNDS,
                SPAN_CLIENT,
                on,
                epoch,
            );
            loop_checked(report, "overhead rounds", &run);
            p50s.push(Summary::of(&run.latencies_us).p50);
        }
    }
    report.metric(
        "trace.overhead_pct",
        (median(&traced) / median(&plain) - 1.0) * 100.0,
        "%",
    );
}

/// The traced run of `workload`; returns its report and every span.
///
/// # Errors
///
/// When a fleet cannot be launched or stopped.
pub fn traced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    simulate: &Path,
) -> Result<(Report, Vec<Span>), String> {
    let mut report = Report::default();
    let mut t = Tracer::new(true, Instant::now());
    repro_layers(&mut report, &mut t, seed, workload.repro_kind());
    let slice = Duration::from_secs_f64(seconds / 10.0);
    serve_layers(&mut report, &mut t, workload, seed, slice, simulate)?;
    report.note("spans", t.spans().len());
    Ok((report, t.spans().to_vec()))
}
