//! `serve-http`: the unmodified `pdeml serve` binary at 64² with a 1-rank
//! paper-net model on `RANKS` sub-worlds. Set-up produces the model with
//! `pdeml simulate` + `pdeml train`; traffic is 2-step `POST /v1/rollout`
//! requests plus a 1 Hz `GET /metrics` scrape: first a closed loop over
//! `RANKS` connections (throughput at unbounded offered load), then an open
//! loop at a fixed rate whose requests are timed from when they were due.
//!
//! Every response is checked bitwise against an in-process `InferEngine`
//! rollout of the same body, built from the model directory the server
//! loaded.

use crate::procfs::{self, ProcSample};
use crate::report::{mean, quantile, Report};
use crate::shapes::{self, PAPER_GRID, RANKS, STRATEGY};
use crate::spans::{write_trace, Spans};
use crate::Ctx;
use pde_domain::GridPartition;
use pde_ml_core::arch::ArchSpec;
use pde_ml_core::engine::{EngineConfig, InferEngine};
use pde_ml_core::infer::ParallelInference;
use pde_ml_core::norm::ChannelNorm;
use pde_ml_core::train::{fit_norm, PredictionMode, TrainConfig};
use pde_nn::serialize::{load_params, snapshot};
use pde_tensor::Tensor3;
use pde_trace::Category;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The served grid is a quarter of the paper's edge: big enough that the
/// wire codec dominates a request, small enough that a 2-step request is
/// tens of milliseconds.
const GRID: usize = PAPER_GRID / 4;
/// Prediction steps per request.
const STEPS: usize = 2;
/// Distinct request bodies, cycled through.
const BODIES: usize = 4;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Training epochs of the served model.
const TRAIN_EPOCHS: usize = 2;
/// Open-loop arrival rate in requests per second: about half the
/// closed-loop rate this workload measured on the 2-core reference host
/// when it was defined. Fixed here and never recalibrated per run, so a
/// slower server shows up as latency, not as a lower offered load.
const OPEN_LOOP_RPS: f64 = 16.0;
/// The latency limit on the open-loop p90.
const P90_LIMIT_MS: f64 = 250.0;
/// A request that fails counts as taking this long, so it misses every
/// latency limit.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);
/// Share of `--seconds` spent in the closed loop; the rest is open loop.
const CLOSED_SHARE: f64 = 0.4;

/// A running `pdeml serve` child. Dropping it shuts the server down and
/// waits for the process (killing it if it does not exit).
struct Server {
    child: Child,
    addr: SocketAddr,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    fn shutdown(mut self) -> Result<(), String> {
        let _ = http(&self.addr, "POST", "/shutdown", b"");
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("pdeml serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20))
                }
                _ => return Err("pdeml serve did not exit after POST /shutdown".into()),
            }
        }
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

fn run_cmd(pdeml: &Path, args: &[&str]) -> Result<f64, String> {
    let t = Instant::now();
    let out = Command::new(pdeml)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", pdeml.display()))?;
    if !out.status.success() {
        return Err(format!(
            "pdeml {} failed: {}",
            args[0],
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(t.elapsed().as_secs_f64())
}

struct Response {
    status: u16,
    head: String,
    body: Vec<u8>,
}

/// One HTTP/1.1 exchange; the server closes every connection after its
/// response.
fn http(addr: &SocketAddr, method: &str, path: &str, body: &[u8]) -> std::io::Result<Response> {
    let mut s = TcpStream::connect_timeout(addr, CLIENT_TIMEOUT)?;
    s.set_read_timeout(Some(CLIENT_TIMEOUT))?;
    s.set_nodelay(true)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    s.write_all(head.as_bytes())?;
    s.write_all(body)?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw)?;
    let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
    let end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("no response head"))?;
    let head = String::from_utf8_lossy(&raw[..end]).to_string();
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("no status code"))?;
    Ok(Response {
        status,
        head,
        body: raw[end + 4..].to_vec(),
    })
}

fn header<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    head.lines()
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case(name))
        .map(|(_, v)| v.trim())
}

/// `Server-Timing: queue;dur=Q, dispatch;dur=D, rollout;dur=R` (ms).
fn server_timing(head: &str) -> Option<[f64; 3]> {
    let v = header(head, "Server-Timing")?;
    let mut out = [0.0; 3];
    for (slot, name) in ["queue", "dispatch", "rollout"].iter().enumerate() {
        let part = v.split(',').map(str::trim).find(|p| p.starts_with(name))?;
        out[slot] = part.split_once("dur=")?.1.parse().ok()?;
    }
    Some(out)
}

fn encode_state(t: &Tensor3, out: &mut String) {
    use std::fmt::Write as _;
    let (c, h, w) = t.shape();
    let _ = write!(out, "state {c} {h} {w}");
    for v in t.as_slice() {
        let _ = write!(out, " {v:.17e}");
    }
    out.push('\n');
}

/// Parses a rollout response and compares every value's bits with `want`.
fn response_matches(body: &[u8], want: &[Tensor3]) -> bool {
    let Ok(text) = std::str::from_utf8(body) else {
        return false;
    };
    let mut lines = text.lines();
    if lines.next() != Some(&format!("steps {}", want.len() - 1)[..]) {
        return false;
    }
    want.iter().all(|w| {
        let Some(line) = lines.next() else {
            return false;
        };
        let (c, h, wd) = w.shape();
        let mut tok = line.split_whitespace();
        if tok.next() != Some("state") {
            return false;
        }
        let dims: Vec<usize> = tok
            .by_ref()
            .take(3)
            .filter_map(|t| t.parse().ok())
            .collect();
        dims == [c, h, wd]
            && tok
                .map(|t| t.parse::<f64>().map(f64::to_bits).ok())
                .eq(w.as_slice().iter().map(|v| Some(v.to_bits())))
    })
}

/// One set-up: simulate, train, start the server, wait for readiness, and
/// serve the first (page-faulting) request.
struct Setup {
    server: Server,
    dir: PathBuf,
    simulate_s: f64,
    seconds: f64,
    /// The server's `/proc` counters after its first request.
    proc_ready: ProcSample,
}

fn setup(ctx: &Ctx, rep: usize, first_body: &[u8]) -> Result<Setup, String> {
    let t0 = Instant::now();
    let dir = ctx.out_dir.join(format!("serve-seed{}-{rep}", ctx.seed));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let data = dir.join("data.bin");
    let model = dir.join("model");
    let pairs = TrainConfig::paper().batch_size;
    let (data_s, model_s) = (data.to_string_lossy(), model.to_string_lossy());
    let simulate_s = run_cmd(
        &ctx.pdeml,
        &[
            "simulate",
            "--grid",
            &GRID.to_string(),
            "--snapshots",
            &(pairs + 1).to_string(),
            "--out",
            &data_s,
        ],
    )?;
    run_cmd(
        &ctx.pdeml,
        &[
            "train",
            "--data",
            &data_s,
            "--out",
            &model_s,
            "--ranks",
            "1",
            "--epochs",
            &TRAIN_EPOCHS.to_string(),
            "--train-pairs",
            &pairs.to_string(),
            "--seed",
            &shapes::weight_seed(ctx.seed).to_string(),
            "--strategy",
            STRATEGY.label(),
            "--mode",
            PredictionMode::Residual.label(),
            "--threads-per-rank",
            &RANKS.to_string(),
        ],
    )?;
    let mut child = Command::new(&ctx.pdeml)
        .args([
            "serve",
            "--model",
            &model_s,
            "--data",
            &data_s,
            "--sub-worlds",
            &RANKS.to_string(),
            "--addr",
            "127.0.0.1:0",
        ])
        // One kernel thread per sub-world rank: rank threads = nproc.
        .env("PDEML_THREADS_PER_RANK", "1")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start pdeml serve: {e}"))?;
    let mut out = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut addr = None;
    let mut line = String::new();
    while addr.is_none() {
        line.clear();
        if out.read_line(&mut line).unwrap_or(0) == 0 {
            let _ = child.kill();
            let _ = child.wait();
            return Err("pdeml serve exited before serving".into());
        }
        addr = line
            .split("serving on http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse::<SocketAddr>().ok());
    }
    // Keep draining the child's stdout (onto stderr) so it never blocks.
    let drain = std::thread::spawn(move || {
        for l in out.lines().map_while(Result::ok) {
            eprintln!("pdeml serve: {l}");
        }
    });
    let server = Server {
        child,
        addr: addr.expect("loop exits with an address"),
        drain: Some(drain),
    };
    let ready_by = Instant::now() + Duration::from_secs(60);
    while !matches!(http(&server.addr, "GET", "/readyz", b""), Ok(r) if r.status == 200) {
        if Instant::now() > ready_by {
            return Err("pdeml serve never became ready".into());
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let first = http(&server.addr, "POST", "/v1/rollout", first_body)
        .map_err(|e| format!("first request: {e}"))?;
    if first.status != 200 {
        return Err(format!("first request: HTTP {}", first.status));
    }
    let proc_ready = procfs::sample(Some(server.child.id())).map_err(|e| e.to_string())?;
    Ok(Setup {
        server,
        dir,
        simulate_s,
        seconds: t0.elapsed().as_secs_f64(),
        proc_ready,
    })
}

/// The in-process twin of the served model, from the same model directory,
/// registered on a 1-rank engine; also returns the spawn and register
/// seconds.
fn reference(dir: &Path, arch: &ArchSpec) -> Result<(InferEngine, f64, f64), String> {
    let meta = std::fs::read_to_string(dir.join("model/meta.txt"))
        .map_err(|e| format!("meta.txt: {e}"))?;
    let kv = |k: &str| {
        meta.lines()
            .filter_map(|l| l.split_once('='))
            .find(|(key, _)| key.trim() == k)
            .map(|(_, v)| v.trim().to_string())
            .ok_or_else(|| format!("meta.txt lacks {k}"))
    };
    let expect = [
        ("strategy", STRATEGY.label().to_string()),
        ("prediction", PredictionMode::Residual.label().to_string()),
        ("window", "1".to_string()),
        ("global_h", GRID.to_string()),
        ("py", "1".to_string()),
        ("px", "1".to_string()),
    ];
    for (k, v) in expect {
        if kv(k)? != v {
            return Err(format!("served model has {k} = {}, expected {v}", kv(k)?));
        }
    }
    let scales: Vec<f64> = kv("norm_scales")?
        .split(',')
        .map(|v| v.parse().map_err(|_| format!("bad norm scale {v}")))
        .collect::<Result<_, _>>()?;
    let mut net = arch.build_for(STRATEGY, 0);
    load_params(&mut net, &dir.join("model/rank000.pdenn")).map_err(|e| e.to_string())?;
    let inf = ParallelInference::new(
        arch.clone(),
        STRATEGY,
        GridPartition::for_ranks(GRID, GRID, 1),
        vec![snapshot(&mut net)],
        ChannelNorm::from_scales(scales),
        PredictionMode::Residual,
    );
    let t = Instant::now();
    let mut engine = InferEngine::with_config(EngineConfig {
        threads_per_rank: Some(1),
        ..EngineConfig::new(1)
    });
    let spawn_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    engine.register("serve", inf).map_err(|e| e.to_string())?;
    Ok((engine, spawn_s, t.elapsed().as_secs_f64()))
}

#[derive(Clone, Copy, PartialEq)]
enum Phase {
    Closed,
    Open,
}

/// One generator operation.
struct Sample {
    phase: Phase,
    scrape: bool,
    /// When an open-loop request was due (else when it started).
    due: Instant,
    start: Instant,
    end: Instant,
    ok: bool,
    /// Server-Timing queue/dispatch/rollout, ms.
    timing: Option<[f64; 3]>,
    status: u16,
    resp_bytes: usize,
}

impl Sample {
    /// Latency from when the request was due; a failure counts as the
    /// client timeout.
    fn latency_ms(&self) -> f64 {
        if self.ok {
            self.end.duration_since(self.due).as_secs_f64() * 1e3
        } else {
            CLIENT_TIMEOUT.as_secs_f64() * 1e3
        }
    }
}

/// What the generator threads share.
struct Load<'a> {
    addr: SocketAddr,
    bodies: &'a [Vec<u8>],
    expected: &'a [Vec<Tensor3>],
    /// Per body: response bytes already verified bitwise (later identical
    /// responses are checked by comparing bytes).
    verified: Mutex<Vec<Option<Vec<u8>>>>,
    mismatches: AtomicUsize,
    next_scrape: Mutex<Instant>,
    origin: Instant,
}

impl Load<'_> {
    fn rollout(&self, phase: Phase, d: usize, due: Instant, sp: &mut Option<Spans>) -> Sample {
        let start = Instant::now();
        let res = http(&self.addr, "POST", "/v1/rollout", &self.bodies[d]);
        let end = Instant::now();
        let mut s = Sample {
            phase,
            scrape: false,
            due,
            start,
            end,
            ok: false,
            timing: None,
            status: 0,
            resp_bytes: 0,
        };
        let Ok(r) = res else { return s };
        s.status = r.status;
        s.resp_bytes = r.body.len();
        s.timing = server_timing(&r.head);
        if let Some(sp) = sp {
            sp.req = header(&r.head, "X-PDEML-Request-Id")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
            sp.close(Category::Infer, "http_rollout", d, start);
        }
        if r.status != 200 {
            return s;
        }
        let cached = self.verified.lock().expect("verify cache lock")[d]
            .as_ref()
            .is_some_and(|b| *b == r.body);
        s.ok = cached || response_matches(&r.body, &self.expected[d]);
        if s.ok && !cached {
            self.verified.lock().expect("verify cache lock")[d] = Some(r.body);
        }
        if !s.ok {
            self.mismatches.fetch_add(1, Ordering::Relaxed);
        }
        s
    }

    /// The 1 Hz `/metrics` scrape, taken by generator thread 0 when due.
    fn maybe_scrape(&self, phase: Phase, sp: &mut Option<Spans>, out: &mut Vec<Sample>) {
        let now = Instant::now();
        {
            let mut next = self.next_scrape.lock().expect("scrape clock lock");
            if now < *next {
                return;
            }
            *next += Duration::from_secs(1);
        }
        let res = http(&self.addr, "GET", "/metrics", b"");
        let end = Instant::now();
        if let Some(sp) = sp {
            sp.req = 0;
            sp.close(Category::Comm, "http_scrape", 0, now);
        }
        let ok = matches!(&res, Ok(r) if r.status == 200
            && String::from_utf8_lossy(&r.body).contains("pdeml_requests_total"));
        out.push(Sample {
            phase,
            scrape: true,
            due: now,
            start: now,
            end,
            ok,
            timing: None,
            status: res.map(|r| r.status).unwrap_or(0),
            resp_bytes: 0,
        });
    }

    /// Closed loop: `RANKS` connections, each sending its next request when
    /// the previous one completes, for `secs`.
    fn closed(&self, secs: f64, traced: bool) -> (Vec<Sample>, Vec<pde_trace::TraceEvent>) {
        let next = AtomicUsize::new(0);
        let stop = Instant::now() + Duration::from_secs_f64(secs);
        self.run_threads(traced, |t, sp, out| {
            while Instant::now() < stop {
                if t == 0 {
                    self.maybe_scrape(Phase::Closed, sp, out);
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                let now = Instant::now();
                out.push(self.rollout(Phase::Closed, i % BODIES, now, sp));
            }
        })
    }

    /// Open loop: request `i` is due at `start + i / OPEN_LOOP_RPS`; at most
    /// `RANKS` are in flight, so a stall makes later requests late (and the
    /// lateness is reported) rather than lowering the offered load.
    fn open(&self, secs: f64, traced: bool) -> (Vec<Sample>, Vec<pde_trace::TraceEvent>) {
        let n = (secs * OPEN_LOOP_RPS).round() as usize;
        let next = AtomicUsize::new(0);
        let t0 = Instant::now();
        self.run_threads(traced, |t, sp, out| loop {
            if t == 0 {
                self.maybe_scrape(Phase::Open, sp, out);
            }
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return;
            }
            let due = t0 + Duration::from_secs_f64(i as f64 / OPEN_LOOP_RPS);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            out.push(self.rollout(Phase::Open, i % BODIES, due, sp));
        })
    }

    fn run_threads(
        &self,
        traced: bool,
        body: impl Fn(usize, &mut Option<Spans>, &mut Vec<Sample>) + Sync,
    ) -> (Vec<Sample>, Vec<pde_trace::TraceEvent>) {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..RANKS)
                .map(|t| {
                    let body = &body;
                    s.spawn(move || {
                        let mut sp = traced.then(|| Spans::new(self.origin, t as u32));
                        let mut out = Vec::new();
                        body(t, &mut sp, &mut out);
                        (out, sp.map(Spans::into_events).unwrap_or_default())
                    })
                })
                .collect();
            let (mut samples, mut events) = (Vec::new(), Vec::new());
            for h in handles {
                let (s, e) = h.join().expect("generator thread panicked");
                samples.extend(s);
                events.extend(e);
            }
            (samples, events)
        })
    }
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let arch = ArchSpec::paper();
    let base = TrainConfig::paper();
    shapes::stamp(
        &ctx.workload,
        ctx.seed,
        GRID,
        RANKS,
        1,
        1,
        &shapes::conv_shapes(&arch, GRID, GRID),
    );
    println!(
        "serve: pdeml serve, {RANKS} sub-worlds x 1 rank, {STEPS}-step requests; closed loop \
         over {RANKS} connections, then open loop at {OPEN_LOOP_RPS} req/s; /metrics at 1 Hz"
    );
    let mut report = Report::new();

    // Request bodies from the seeded pulse (the served model was trained on
    // `pdeml simulate`'s own pulse).
    let data = shapes::seeded_dataset(GRID, base.batch_size + 1, ctx.seed);
    let histories: Vec<Tensor3> = (0..BODIES)
        .map(|i| data.snapshot(i * (data.len() - 1) / BODIES).clone())
        .collect();
    let bodies: Vec<Vec<u8>> = histories
        .iter()
        .map(|h| {
            let mut b = format!("model serve\nsteps {STEPS}\n");
            encode_state(h, &mut b);
            b.into_bytes()
        })
        .collect();

    let mut setup_s = Vec::new();
    let mut kept: Option<Setup> = None;
    for rep in 0..SETUP_REPEATS {
        if let Some(old) = kept.take() {
            old.server.shutdown()?;
        }
        let s = setup(ctx, rep, &bodies[0])?;
        setup_s.push(s.seconds);
        kept = Some(s);
    }
    let s = kept.expect("at least one set-up");
    println!("set-up repeats: {setup_s:.3?} s");

    let (mut engine, spawn_s, register_s) = reference(&s.dir, &arch)?;
    let expected: Vec<Vec<Tensor3>> = histories
        .iter()
        .map(|h| {
            engine
                .rollout_from_history("serve", std::slice::from_ref(h), STEPS)
                .map(|r| r.states)
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    drop(engine);

    let origin = Instant::now();
    let load = Load {
        addr: s.server.addr,
        bodies: &bodies,
        expected: &expected,
        verified: Mutex::new(vec![None; BODIES]),
        mismatches: AtomicUsize::new(0),
        next_scrape: Mutex::new(Instant::now()),
        origin,
    };
    // Warm-up, untimed: every body once, so each response is parsed and
    // verified before the clock starts (later ones compare bytes).
    for d in 0..BODIES {
        let now = Instant::now();
        if !load.rollout(Phase::Closed, d, now, &mut None).ok {
            return Err(format!("warm-up request {d} failed"));
        }
    }
    let pid = s.server.child.id();
    let proc_load0 = procfs::sample(Some(pid)).map_err(|e| e.to_string())?;
    let closed_s = ctx.seconds * CLOSED_SHARE;
    let (untraced_closed, _) = if ctx.trace {
        load.closed(closed_s, false)
    } else {
        (Vec::new(), Vec::new())
    };
    let (mut samples, mut events) = load.closed(closed_s, ctx.trace);
    let (open, open_events) = load.open(ctx.seconds - closed_s, ctx.trace);
    samples.extend(open);
    events.extend(open_events);
    let proc_load1 = procfs::sample(Some(pid)).map_err(|e| e.to_string())?;
    let peak_rss = procfs::peak_rss_mb(Some(pid)).map_err(|e| e.to_string())?;
    s.server.shutdown()?;

    let every_op = samples.iter().chain(&untraced_closed);
    report.attempted = every_op.clone().count() as u64;
    report.failed = every_op.filter(|x| !x.ok).count() as u64;
    report.check(
        load.mismatches.load(Ordering::Relaxed) == 0,
        "every 200 response bitwise equal to the in-process InferEngine rollout",
    );
    let rollouts = |p: Phase| -> Vec<&Sample> {
        samples
            .iter()
            .filter(|x| !x.scrape && x.phase == p)
            .collect()
    };
    let closed = rollouts(Phase::Closed);
    let open = rollouts(Phase::Open);
    // Completions over the loop's wall time: closed-loop latencies are
    // bimodal (requests overlapping on the 2 cores or not), so a median
    // would jump between modes where this count does not.
    let closed_ok = closed.iter().filter(|x| x.ok).count();
    let first = closed
        .iter()
        .map(|x| x.start)
        .min()
        .expect("closed loop ran");
    let last = closed.iter().map(|x| x.end).max().expect("closed loop ran");
    let rps = closed_ok as f64 / last.duration_since(first).as_secs_f64();
    let lat: Vec<f64> = open.iter().map(|x| x.latency_ms()).collect();
    let (p50, p90) = (quantile(&lat, 0.5), quantile(&lat, 0.9));
    println!(
        "serve_rps = {rps:.3} req/s (closed loop, {} requests)",
        closed.len()
    );
    println!(
        "serve_latency_ms_p50 = {p50:.3} ms, serve_latency_ms_p90 = {p90:.3} ms over {} \
         open-loop requests at {OPEN_LOOP_RPS} req/s (p90 limit {P90_LIMIT_MS} ms: {})",
        open.len(),
        if p90 <= P90_LIMIT_MS { "met" } else { "MISSED" }
    );

    if !ctx.trace {
        report.metric("setup_s", quantile(&setup_s, 0.5), "s");
        report.metric("peak_rss_mb", peak_rss, "MB");
        report.metric("throughput_per_s", rps, "1/s");
        report.metric("latency_ms_p50", p50, "ms");
        report.metric("latency_ms_p90", p90, "ms");
        report.metric("ops_ok_ratio", report.ok_ratio(), "ratio");
        return Ok(report);
    }

    write_trace(
        &ctx.out_dir
            .join(format!("trace-{}-seed{}.json", ctx.workload, ctx.seed)),
        &events,
    )?;
    let timed: Vec<[f64; 3]> = open
        .iter()
        .filter(|x| x.ok)
        .filter_map(|x| x.timing)
        .collect();
    if timed.is_empty() {
        return Err("no open-loop response carried Server-Timing".into());
    }
    let col = |i: usize| timed.iter().map(|t| t[i]).collect::<Vec<_>>();
    report.metric("core.schedule.queue_ms_p50", quantile(&col(0), 0.5), "ms");
    report.metric("core.schedule.queue_ms_p90", quantile(&col(0), 0.9), "ms");
    report.metric(
        "core.schedule.dispatch_ms_p50",
        quantile(&col(1), 0.5),
        "ms",
    );
    report.metric("core.schedule.rollout_ms_p50", quantile(&col(2), 0.5), "ms");
    let all_rollouts: Vec<&Sample> = samples.iter().filter(|x| !x.scrape).collect();
    report.metric(
        "core.schedule.rejected_ratio",
        all_rollouts.iter().filter(|x| x.status == 429).count() as f64 / all_rollouts.len() as f64,
        "ratio",
    );
    let http_ms: Vec<f64> = open
        .iter()
        .filter(|x| x.ok)
        .filter_map(|x| {
            let t = x.timing?;
            Some(x.end.duration_since(x.start).as_secs_f64() * 1e3 - t.iter().sum::<f64>())
        })
        .collect();
    report.metric("cli.serve.http_ms_p50", quantile(&http_ms, 0.5), "ms");
    report.metric(
        "cli.serve.request_bytes",
        mean(&bodies.iter().map(|b| b.len() as f64).collect::<Vec<_>>()),
        "B",
    );
    report.metric(
        "cli.serve.response_bytes",
        mean(
            &all_rollouts
                .iter()
                .filter(|x| x.ok)
                .map(|x| x.resp_bytes as f64)
                .collect::<Vec<_>>(),
        ),
        "B",
    );
    let scrapes: Vec<f64> = samples
        .iter()
        .filter(|x| x.scrape)
        .map(|x| x.end.duration_since(x.start).as_secs_f64() * 1e3)
        .collect();
    report.metric("cli.serve.scrape_ms_p50", quantile(&scrapes, 0.5), "ms");
    let late: Vec<f64> = open
        .iter()
        .map(|x| x.start.saturating_duration_since(x.due).as_secs_f64() * 1e3)
        .collect();
    report.metric("loadgen.late_ms_p90", quantile(&late, 0.9), "ms");
    let load_cpu = proc_load1.since(&proc_load0);
    report.metric(
        "proc.cpu_ms_per_request",
        (load_cpu.user_s + load_cpu.sys_s) * 1e3 / all_rollouts.len() as f64,
        "ms",
    );
    report.metric("proc.sys_s.setup", s.proc_ready.sys_s, "s");
    report.metric("proc.sys_s.steady", load_cpu.sys_s, "s");
    report.metric("proc.minflt.setup", s.proc_ready.minflt as f64, "count");
    report.metric("proc.minflt.steady", load_cpu.minflt as f64, "count");
    report.metric("euler.simulate_s", s.simulate_s, "s");
    let loaded = pde_euler::DataSet::load(&s.dir.join("data.bin")).map_err(|e| e.to_string())?;
    let t = Instant::now();
    fit_norm(&base, &loaded.view(0, base.batch_size), &arch);
    report.metric("core.norm.fit_s", t.elapsed().as_secs_f64(), "s");
    report.metric("commsim.world_spawn_ms", spawn_s * 1e3, "ms");
    report.metric("core.engine.register_ms", register_s * 1e3, "ms");
    let p50_of = |xs: &[Sample]| {
        quantile(
            &xs.iter()
                .filter(|x| !x.scrape && x.ok)
                .map(|x| x.end.duration_since(x.start).as_secs_f64() * 1e3)
                .collect::<Vec<_>>(),
            0.5,
        )
    };
    let traced_closed: Vec<Sample> = samples
        .into_iter()
        .filter(|x| x.phase == Phase::Closed)
        .collect();
    let overhead = p50_of(&traced_closed) / p50_of(&untraced_closed) - 1.0;
    report.metric("perfbench.trace_overhead_ratio", overhead, "ratio");
    println!(
        "tracing overhead {:+.2}% (closed-loop p50, traced vs untraced); serving coverage is \
         the Server-Timing split plus cli.serve.http_ms",
        overhead * 1e2
    );
    Ok(report)
}
