//! The `serve-*` workloads: closed-loop TCP clients against `simulate
//! serve` and `simulate route` processes the benchmark launches.

use crate::spans::Tracer;
use cap_service::prelude::{Request, Response, TcpClient, WireResponse};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Closed-loop clients, one TCP connection each.
pub const CLIENTS: usize = 2;

/// Span around one round trip of a workload's own client.
pub const SPAN_CLIENT: &str = "client.round_trip";

/// How long a reply may take before the request counts as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

/// A `simulate` child process that is serving on `addr`.
#[derive(Debug)]
pub struct Proc {
    child: Child,
    // Held so the child's later prints never hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// Where it listens.
    pub addr: SocketAddr,
}

impl Proc {
    /// Launches `simulate serve` with its default configuration on an
    /// ephemeral loopback port.
    ///
    /// # Errors
    ///
    /// When the process cannot start or does not announce its address.
    pub fn serve(simulate: &Path) -> Result<Self, String> {
        Self::spawn(simulate, &["serve", "--addr", "127.0.0.1:0"], "serving on ")
    }

    /// Launches `simulate route` (default ship and probe cadences) in
    /// front of `nodes`.
    ///
    /// # Errors
    ///
    /// As for [`Proc::serve`].
    pub fn route(simulate: &Path, nodes: &[SocketAddr]) -> Result<Self, String> {
        let list: Vec<String> = nodes.iter().map(ToString::to_string).collect();
        let list = list.join(",");
        let args = ["route", "--nodes", &list, "--addr", "127.0.0.1:0"];
        Self::spawn(simulate, &args, "routing on ")
    }

    fn spawn(simulate: &Path, args: &[&str], banner: &str) -> Result<Self, String> {
        let mut child = Command::new(simulate)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot launch {}: {e}", simulate.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = stdout
            .read_line(&mut line)
            .ok()
            .and_then(|_| line.strip_prefix(banner))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!(
                "{} {}: no address in {line:?}",
                simulate.display(),
                args[0]
            ));
        };
        Ok(Self {
            child,
            _stdout: stdout,
            addr,
        })
    }

    /// Peak resident set (`VmHWM`) in KiB, read while the process lives.
    #[must_use]
    pub fn peak_rss_kib(&self) -> Option<u64> {
        vm_hwm_kib(&format!("/proc/{}/status", self.child.id()))
    }

    /// Asks the process to shut down over the wire and waits for it.
    ///
    /// # Errors
    ///
    /// When the shutdown is refused or the process does not exit in time
    /// (it is killed then).
    pub fn stop(mut self) -> Result<(), String> {
        let acked = match connect(self.addr) {
            Some(mut c) => c
                .shutdown(Duration::from_millis(500))
                .map_err(|e| e.to_string()),
            None => Err(format!("cannot connect to {}", self.addr)),
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return acked.map(|_| ());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err(format!(
            "process {} did not exit after shutdown",
            self.child.id()
        ))
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in KiB.
#[must_use]
pub fn vm_hwm_kib(status_path: &str) -> Option<u64> {
    let text = std::fs::read_to_string(status_path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Whether `reply` is the right kind of answer to `request`.
#[must_use]
pub fn reply_fits(request: &Request, reply: &Result<WireResponse, impl Sized>) -> bool {
    matches!(
        (request, reply),
        (
            Request::Observe { .. },
            Ok(WireResponse::Response(Response::Observed { .. }))
        ) | (
            Request::Predict { .. },
            Ok(WireResponse::Response(Response::Predicted { .. }))
        )
    )
}

/// Connects and gets one correct answer; the end of a set-up.
///
/// # Errors
///
/// When no correct answer arrives.
pub fn answer_one(addr: SocketAddr) -> Result<(), String> {
    let mut client = connect(addr).ok_or_else(|| format!("cannot connect to {addr}"))?;
    let request = Request::Predict {
        ip: 0,
        offset: 0,
        ghr: 0,
    };
    let reply = client.serve(request, None);
    if reply_fits(&request, &reply) {
        Ok(())
    } else {
        Err(format!("set-up request got {reply:?}"))
    }
}

/// What the callers of one closed-loop run saw.
#[derive(Debug)]
pub struct Loop {
    /// Per-operation latency in microseconds, every operation of the run.
    pub latencies_us: Vec<f64>,
    /// When each operation started, in seconds from the start barrier
    /// (parallel to `latencies_us`).
    pub starts_s: Vec<f64>,
    /// Operations attempted.
    pub sent: u64,
    /// Operations that did not get the right answer.
    pub failed: u64,
    /// Wall time from the start barrier to the last caller's finish.
    pub elapsed: Duration,
    /// One span per operation (none when untraced).
    pub tracer: Tracer,
}

impl Loop {
    /// Latencies grouped by start time into consecutive windows of
    /// `width` seconds; only whole windows, and only non-empty ones.
    #[must_use]
    pub fn windows(&self, width: f64) -> Vec<Vec<f64>> {
        let whole = (self.elapsed.as_secs_f64() / width).floor().max(1.0) as usize;
        let mut out = vec![Vec::new(); whole];
        for (start, latency) in self.starts_s.iter().zip(&self.latencies_us) {
            if let Some(w) = out.get_mut((start / width) as usize) {
                w.push(*latency);
            }
        }
        out.retain(|w| !w.is_empty());
        out
    }
}

/// Runs one closed-loop caller per state for `duration`: each calls
/// `step(state, i)` for `i = 0, 1, ...`, timing every call, until time is
/// up. `step` returns whether the operation got the right answer.
pub fn closed_loop<S: Send>(
    states: Vec<S>,
    duration: Duration,
    span: &'static str,
    traced: bool,
    epoch: Instant,
    step: impl Fn(&mut S, usize) -> bool + Sync,
) -> Loop {
    let barrier = Barrier::new(states.len() + 1);
    let (step, barrier) = (&step, &barrier);
    std::thread::scope(|scope| {
        let callers: Vec<_> = states
            .into_iter()
            .map(|mut state| {
                scope.spawn(move || {
                    let mut tracer = Tracer::new(traced, epoch);
                    let mut latencies = Vec::with_capacity(1 << 16);
                    let mut starts = Vec::with_capacity(1 << 16);
                    let mut failed = 0u64;
                    barrier.wait();
                    let begin = Instant::now();
                    let end = begin + duration;
                    for i in 0.. {
                        let start = Instant::now();
                        if start >= end {
                            break;
                        }
                        let ok = tracer.span(span, |_| step(&mut state, i));
                        latencies.push(start.elapsed().as_secs_f64() * 1e6);
                        starts.push((start - begin).as_secs_f64());
                        failed += u64::from(!ok);
                    }
                    (latencies, starts, failed, tracer)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let mut run = Loop {
            latencies_us: Vec::new(),
            starts_s: Vec::new(),
            sent: 0,
            failed: 0,
            elapsed: Duration::ZERO,
            tracer: Tracer::new(traced, epoch),
        };
        for caller in callers {
            let (latencies, starts, failed, tracer) =
                caller.join().expect("caller thread panicked");
            run.sent += latencies.len() as u64;
            run.latencies_us.extend(latencies);
            run.starts_s.extend(starts);
            run.failed += failed;
            run.tracer.absorb(tracer);
        }
        run.elapsed = start.elapsed();
        run
    })
}

/// One client connection replaying a request stream.
#[derive(Debug)]
pub struct Conn<'a> {
    addr: SocketAddr,
    client: Option<TcpClient>,
    stream: &'a [Request],
}

impl<'a> Conn<'a> {
    /// Connects to `addr` to replay `stream`.
    #[must_use]
    pub fn new(addr: SocketAddr, stream: &'a [Request]) -> Self {
        let client = connect(addr);
        Self {
            addr,
            client,
            stream,
        }
    }

    /// Sends request `i` (the stream wraps) and checks the reply's kind.
    pub fn round_trip(&mut self, i: usize) -> bool {
        let request = &self.stream[i % self.stream.len()];
        let Some(client) = self.client.as_mut() else {
            // A lost connection is retried at most every 10 ms, so a dead
            // server costs failed operations, not unbounded samples.
            std::thread::sleep(Duration::from_millis(10));
            self.client = connect(self.addr);
            return false;
        };
        let reply = client.serve(*request, None);
        if reply.is_err() {
            // A transport failure leaves the stream desynchronised.
            self.client = connect(self.addr);
        }
        reply_fits(request, &reply)
    }
}

/// A client to `addr` whose reply reads time out.
#[must_use]
pub fn connect(addr: SocketAddr) -> Option<TcpClient> {
    let mut client = TcpClient::connect(addr).ok()?;
    client.set_read_timeout(Some(REPLY_TIMEOUT)).ok()?;
    Some(client)
}

/// Closed-loop TCP clients, one per stream, against `addr`.
#[must_use]
pub fn drive(
    addr: SocketAddr,
    streams: &[Vec<Request>],
    duration: Duration,
    span: &'static str,
    traced: bool,
    epoch: Instant,
) -> Loop {
    let conns = streams.iter().map(|s| Conn::new(addr, s)).collect();
    closed_loop(conns, duration, span, traced, epoch, Conn::round_trip)
}
