//! The four workloads, untraced: each returns its end-to-end metrics.

use crate::inputs::{repro_subset, request_stream, Mix};
use crate::repro::{Kind, SweepOutcome};
use crate::serve::{answer_one, connect, drive, Proc, CLIENTS, SPAN_CLIENT};
use crate::spans::Tracer;
use crate::stats::{median, middle_mean, percentile, sorted, Summary};
use cap_cluster::prelude::Accounting;
use cap_obs::StatsSnapshot;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

/// Times each workload sets itself up; `setup_s` is the middle-half mean.
pub const SETUP_ROUNDS: usize = 6;

/// Width of the windows the `serve-*` figures are taken over.
pub const WINDOW_S: f64 = 1.0;

/// The workloads, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig 5 in-process.
    ReproPredict,
    /// Fig 7 in-process.
    ReproTiming,
    /// Two clients, `Observe` requests, one `simulate serve`.
    ServeObserve,
    /// Two clients, 3:1 `Predict`:`Observe`, `simulate route` over two nodes.
    ServeRouted,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ReproPredict,
        Workload::ReproTiming,
        Workload::ServeObserve,
        Workload::ServeRouted,
    ];

    /// Its command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReproPredict => "repro-predict",
            Workload::ReproTiming => "repro-timing",
            Workload::ServeObserve => "serve-observe",
            Workload::ServeRouted => "serve-routed",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The `repro-*` computation, if this is one.
    #[must_use]
    pub fn repro_kind(self) -> Option<Kind> {
        match self {
            Workload::ReproPredict => Some(Kind::Predict),
            Workload::ReproTiming => Some(Kind::Timing),
            Workload::ServeObserve | Workload::ServeRouted => None,
        }
    }

    /// Request mix of the `serve-*` clients.
    #[must_use]
    pub fn mix(self) -> Mix {
        if self == Workload::ServeRouted {
            Mix::ReadHeavy
        } else {
            Mix::ObserveOnly
        }
    }
}

/// Metrics and checks of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// `(name, value, unit)` in output order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed or refused, plus every check shortfall.
    pub failed: u64,
    /// Extra figures printed and recorded but not reported as metrics.
    pub notes: Vec<(String, String)>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Adds a note.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_owned(), value.to_string()));
    }

    /// Records a failed check as `shortfall` failed operations (each
    /// distinct failure is noted once).
    pub fn check(&mut self, ok: bool, what: &str, shortfall: u64) {
        if ok {
            return;
        }
        self.failed += shortfall.max(1);
        if !self
            .notes
            .iter()
            .any(|(k, v)| k == "check_failed" && v == what)
        {
            eprintln!("check failed: {what}");
            self.note("check_failed", what);
        }
    }
}

/// Peak resident set of this process in MiB.
#[must_use]
pub fn own_peak_rss_mb() -> f64 {
    crate::serve::vm_hwm_kib("/proc/self/status").map_or(f64::NAN, |k| k as f64 / 1024.0)
}

/// Tallies one sweep against the digest it must reproduce.
pub fn tally(report: &mut Report, kind: Kind, outcome: &SweepOutcome, expected: u64) {
    report.attempted += outcome.passes;
    report.check(
        outcome.broken == 0,
        "identity loads>=predictions>=spec>=correct",
        outcome.broken,
    );
    report.check(
        outcome.digest == expected,
        &format!("{kind:?} digest {:016x} != {expected:016x}", outcome.digest),
        outcome.passes,
    );
}

/// `repro-predict` / `repro-timing`: repeated sweeps for `seconds`.
#[must_use]
pub fn repro(kind: Kind, seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    // Set-up: choose the seeded subset and run one warm-up sweep, which
    // fills the allocator and caches and fixes the digest later sweeps
    // must reproduce.
    let mut setups = Vec::new();
    let mut expected = (seed == 0).then(|| kind.reference());
    let mut specs = Vec::new();
    for _ in 0..SETUP_ROUNDS {
        let start = Instant::now();
        specs = repro_subset(seed);
        let warm = kind.sweep(&specs, &mut Tracer::new(false, start));
        setups.push(start.elapsed().as_secs_f64());
        let want = *expected.get_or_insert(warm.digest);
        tally(&mut report, kind, &warm, want);
    }
    let expected = expected.expect("set at least once");
    report.note("digest", format!("{expected:016x}"));
    // Each sweep is timed pass by pass (a handful of spans per trace, no
    // per-load tracing). The host's speed swings by tens of percent for
    // seconds at a time, so the rate is taken over the best time of each
    // pass across the run: the sweep as the code runs undisturbed.
    let mut t = Tracer::new(true, Instant::now());
    let (mut rates, mut loads) = (Vec::new(), 0);
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < end {
        let start = Instant::now();
        let outcome = kind.sweep(&specs, &mut t);
        rates.push(outcome.loads as f64 / start.elapsed().as_secs_f64());
        loads = outcome.loads;
        tally(&mut report, kind, &outcome, expected);
    }
    let best = crate::spans::best_repeat(t.spans(), rates.len());
    let best_s = best.iter().sum::<u64>() as f64 / 1e9;
    // The operations of a sweep are its (trace, configuration) passes:
    // every span under the sweep except trace generation. The latency a
    // reader of the figure waits on is one configuration's column, its
    // passes summed over the subset; a single pass's time depends on how
    // big the seed made that trace.
    let mut passes = 0;
    let mut columns: Vec<(&str, u64)> = Vec::new();
    for (span, &ns) in t.spans()[..best.len()].iter().zip(&best) {
        if span.parent.is_none() || span.name == crate::repro::SPAN_GENERATE {
            continue;
        }
        passes += 1;
        match columns.iter_mut().find(|(name, _)| *name == span.name) {
            Some((_, total)) => *total += ns,
            None => columns.push((span.name, ns)),
        }
    }
    let column_us: Vec<f64> = columns.iter().map(|&(_, ns)| ns as f64 / 1e3).collect();
    let column = Summary::of(&column_us);
    report.metric("sim_loads_per_s", loads as f64 / best_s, "1/s");
    report.metric("throughput_rps", f64::from(passes) / best_s, "1/s");
    report.metric("p50_us", column.p50, "us");
    report.metric("p99_us", column.p99, "us");
    report.metric("setup_s", middle_mean(&setups), "s");
    report.metric("peak_rss_mb", own_peak_rss_mb(), "MB");
    report.note("sweeps", rates.len());
    report.note("median_sweep_loads_per_s", median(&rates));
    report.note("sweep_rate_spread", crate::stats::spread(&rates));
    report.note(
        "failed_ratio",
        report.failed as f64 / report.attempted as f64,
    );
    report
}

/// The processes behind one `serve-*` workload.
#[derive(Debug)]
pub struct Fleet {
    /// `simulate serve` nodes.
    pub nodes: Vec<Proc>,
    /// `simulate route` in front of them, for the routed workload.
    pub router: Option<Proc>,
}

impl Fleet {
    /// Launches the fleet and waits until its front door has answered
    /// one request.
    ///
    /// # Errors
    ///
    /// When a process fails to start or answer.
    pub fn launch(simulate: &Path, routed: bool) -> Result<Self, String> {
        let nodes = (0..if routed { 2 } else { 1 })
            .map(|_| Proc::serve(simulate))
            .collect::<Result<Vec<_>, _>>()?;
        let router = if routed {
            let addrs: Vec<SocketAddr> = nodes.iter().map(|n| n.addr).collect();
            Some(Proc::route(simulate, &addrs)?)
        } else {
            None
        };
        let fleet = Self { nodes, router };
        answer_one(fleet.front())?;
        Ok(fleet)
    }

    /// The address clients talk to.
    #[must_use]
    pub fn front(&self) -> SocketAddr {
        self.router.as_ref().unwrap_or(&self.nodes[0]).addr
    }

    /// The front door's telemetry (the merged fleet view behind a router).
    ///
    /// # Errors
    ///
    /// When the stats request fails.
    pub fn obs(&self) -> Result<StatsSnapshot, String> {
        let front = self.front();
        let mut client = connect(front).ok_or_else(|| format!("cannot connect to {front}"))?;
        client.obs_stats().map_err(|e| e.to_string())
    }

    /// Summed `VmHWM` of every process, in MiB.
    #[must_use]
    pub fn peak_rss_mb(&self) -> f64 {
        self.router
            .iter()
            .chain(&self.nodes)
            .map(|p| p.peak_rss_kib().map_or(f64::NAN, |k| k as f64 / 1024.0))
            .sum()
    }

    /// Shuts every process down, router first.
    ///
    /// # Errors
    ///
    /// The first process that did not stop cleanly.
    pub fn stop(self) -> Result<(), String> {
        let mut first = Ok(());
        for p in self.router.into_iter().chain(self.nodes) {
            let stopped = p.stop();
            if first.is_ok() {
                first = stopped;
            }
        }
        first
    }
}

/// Router accounting as mirrored by its telemetry counters.
#[must_use]
pub fn accounting(snap: &StatsSnapshot) -> Accounting {
    use cap_cluster::names;
    let c = |n: &str| snap.counter(n).unwrap_or(0);
    Accounting {
        accepted: c(names::ACCEPTED),
        answered: c(names::ANSWERED),
        shed: c(names::SHED),
        failover_attributed: c(names::FAILOVER),
        other_error: c(names::OTHER_ERROR),
    }
}

/// Checks the fleet's own counts against what the clients sent (`sent`
/// includes the set-up request). The service's `accepted` also counts the
/// snapshot jobs a router's replica ships submit, so behind a router the
/// exact check is on `served`, and `accepted` must cover it.
pub fn check_fleet(report: &mut Report, snap: &StatsSnapshot, sent: u64, routed: bool) {
    let count = |n: &str| snap.counter(n).unwrap_or(0);
    let (accepted, served) = (
        count(cap_service::names::ACCEPTED),
        count(cap_service::names::SERVED),
    );
    report.check(
        served == sent,
        &format!("service served {served} != sent {sent}"),
        served.abs_diff(sent),
    );
    report.check(
        if routed {
            accepted >= served
        } else {
            accepted == sent
        },
        &format!("service accepted {accepted} vs sent {sent}"),
        accepted.abs_diff(sent),
    );
    report.note("service_accepted", accepted);
    if routed {
        let a = accounting(snap);
        report.check(
            a.balances(),
            &format!("router accounting unbalanced: {a:?}"),
            1,
        );
        report.check(
            a.accepted == sent && a.answered == sent,
            &format!(
                "router accepted/answered {}/{} != sent {sent}",
                a.accepted, a.answered
            ),
            a.answered.abs_diff(sent),
        );
    }
}

/// `serve-observe` / `serve-routed`: closed-loop clients for `seconds`.
///
/// # Errors
///
/// When the fleet cannot be launched or stopped.
pub fn serve(
    workload: Workload,
    seed: u64,
    seconds: f64,
    simulate: &Path,
) -> Result<Report, String> {
    let routed = workload == Workload::ServeRouted;
    let streams: Vec<_> = (0..CLIENTS)
        .map(|c| request_stream(seed, c, workload.mix()))
        .collect();
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut fleet = None;
    for round in 0..SETUP_ROUNDS {
        let start = Instant::now();
        let launched = Fleet::launch(simulate, routed)?;
        setups.push(start.elapsed().as_secs_f64());
        if round + 1 < SETUP_ROUNDS {
            launched.stop()?;
        } else {
            fleet = Some(launched);
        }
    }
    let fleet = fleet.expect("at least one set-up round");
    let run = drive(
        fleet.front(),
        &streams,
        Duration::from_secs_f64(seconds),
        SPAN_CLIENT,
        false,
        Instant::now(),
    );
    let snap = fleet.obs()?;
    let rss = fleet.peak_rss_mb();
    fleet.stop()?;

    report.attempted = run.sent;
    report.failed = run.failed;
    check_fleet(&mut report, &snap, run.sent + 1, routed);
    // Interference from other tenants comes in episodes of seconds, so
    // each figure is taken per one-second window and the best decile of
    // windows is reported: the service as it runs undisturbed, the
    // counterpart of the best pass on `repro-*`. Whole-run figures are
    // kept as notes.
    let windows = run.windows(WINDOW_S);
    let best_decile = |f: &dyn Fn(&[f64]) -> f64, lower_is_better: bool| {
        let values: Vec<f64> = windows.iter().map(|w| f(w)).collect();
        let p = if lower_is_better { 10.0 } else { 90.0 };
        percentile(&sorted(&values), p)
    };
    let rate = best_decile(&|w| w.len() as f64 / WINDOW_S, false);
    // Every request carries one dynamic load, so loads served per second
    // and replies per second are the same figure here.
    report.metric("sim_loads_per_s", rate, "1/s");
    report.metric("throughput_rps", rate, "1/s");
    report.metric("p50_us", best_decile(&|w| Summary::of(w).p50, true), "us");
    report.metric("p99_us", best_decile(&|w| Summary::of(w).p99, true), "us");
    report.metric("setup_s", middle_mean(&setups), "s");
    report.metric("peak_rss_mb", rss, "MB");
    let all = Summary::of(&run.latencies_us);
    report.note("samples", all.n);
    report.note("windows", windows.len());
    report.note(
        "min_window_samples",
        windows.iter().map(Vec::len).min().unwrap_or(0),
    );
    report.note(
        "run_throughput_rps",
        run.sent as f64 / run.elapsed.as_secs_f64(),
    );
    report.note("run_p50_us", all.p50);
    report.note("run_p99_us", all.p99);
    report.note("run_p999_us", all.p999);
    report.note(
        "failed_ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    Ok(report)
}

/// The untraced run of `workload`.
///
/// # Errors
///
/// As for [`serve`].
pub fn run(workload: Workload, seed: u64, seconds: f64, simulate: &Path) -> Result<Report, String> {
    match workload.repro_kind() {
        Some(kind) => Ok(repro(kind, seed, seconds)),
        None => serve(workload, seed, seconds, simulate),
    }
}
