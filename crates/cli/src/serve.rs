//! `pdeml serve` — the HTTP inference front end over the concurrent
//! scheduler, plus the `--saturation` sweep that measures it under load.
//!
//! The server splits one persistent world into `--sub-worlds` disjoint
//! sub-worlds ([`pde_commsim::World::split_even`]), wraps each in an
//! engine and fans requests out through
//! [`pde_ml_core::schedule::Scheduler`] — bounded queue, LRU residency,
//! SLO-aware admission. HTTP is the telemetry crate's std-only
//! [`pde_telemetry::http`] server, the one the metrics exporter runs on;
//! this module only supplies the handler.
//!
//! Wire format (plain text, one token stream per line):
//!
//! ```text
//! POST /v1/rollout
//!
//! model serve
//! steps 3
//! state C H W v0 v1 … v(C*H*W-1)      ← window-many state lines
//! ```
//!
//! yields `200` with `steps`/`state` lines for the rollout (initial state
//! included), or a typed failure: `400` malformed request, `404` unknown
//! model, `429` shed by admission (queue full / SLO breach), `503`
//! unhealthy. `GET /v1/example` returns a ready-to-POST request body for
//! the registered model; `/metrics`, `/healthz`, `/readyz` are answered by
//! the exporter's own [`pde_telemetry::exporter::route`]; `POST /shutdown`
//! stops the server (for CI).
//!
//! Every `/v1/rollout` response — success or rejection — carries the
//! request id allocated at ingress (`X-PDEML-Request-Id`) and a
//! `Server-Timing` header with the queue/dispatch/rollout phase split in
//! milliseconds. `--access-log PATH` appends one JSON line per sampled
//! request (`--access-log-sample N` keeps 1-in-N); `--trace-out PATH`
//! records a trace session for the server's lifetime and writes the
//! Chrome-trace JSON on shutdown, with each span tagged by the request id
//! it served (README "End-to-end request tracing").

use crate::args::Args;
use pde_commsim::{TransportKind, World};
use pde_ml_core::prelude::*;
use pde_telemetry::http::{Request, Response, Server, MAX_REQUEST_BODY};
use pde_tensor::Tensor3;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Sampled JSONL access log for `/v1/rollout`: one line per kept request
/// with the request id and the phase-latency split, so a slow request can
/// be followed from this line to its `Server-Timing` header to its spans
/// in a trace dump — all three carry the same id.
struct AccessLog {
    file: Mutex<std::fs::File>,
    /// Keep 1-in-`sample` requests (1 = log everything).
    sample: u64,
    seq: AtomicU64,
}

impl AccessLog {
    fn open(path: &str, sample: u64) -> Result<AccessLog, String> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open access log {path}: {e}"))?;
        Ok(AccessLog {
            file: Mutex::new(file),
            sample: sample.max(1),
            seq: AtomicU64::new(0),
        })
    }

    fn record(&self, line: &str) {
        if !self
            .seq
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(self.sample)
        {
            return;
        }
        if let Ok(mut f) = self.file.lock() {
            let _ = f.write_all(line.as_bytes());
        }
    }
}

/// One access-log line. Schema (all integers; durations in microseconds):
/// `{"ts_ms":…,"id":…,"model":"…","steps":…,"status":…,
///   "queue_us":…,"dispatch_us":…,"rollout_us":…,"total_us":…}`.
fn access_log_line(
    ts_ms: u64,
    id: RequestId,
    model: &str,
    steps: usize,
    status: &str,
    phases: &RequestPhases,
    total_us: u64,
) -> String {
    // The status line starts with the numeric code ("429 Too Many Requests").
    let code: u32 = status
        .split_whitespace()
        .next()
        .and_then(|t| t.parse().ok())
        .unwrap_or(0);
    let mut escaped = String::with_capacity(model.len());
    for c in model.chars() {
        match c {
            '"' => escaped.push_str("\\\""),
            '\\' => escaped.push_str("\\\\"),
            c if (c as u32) < 0x20 => escaped.push_str(&format!("\\u{:04x}", c as u32)),
            c => escaped.push(c),
        }
    }
    format!(
        "{{\"ts_ms\":{ts_ms},\"id\":{},\"model\":\"{escaped}\",\"steps\":{steps},\
         \"status\":{code},\"queue_us\":{},\"dispatch_us\":{},\"rollout_us\":{},\
         \"total_us\":{total_us}}}\n",
        id.as_u64(),
        phases.queue_us,
        phases.dispatch_us,
        phases.rollout_us,
    )
}

/// `Server-Timing` value for the phase split, milliseconds as the header's
/// `dur` unit prescribes.
fn server_timing(phases: &RequestPhases) -> String {
    format!(
        "queue;dur={:.3}, dispatch;dur={:.3}, rollout;dur={:.3}",
        phases.queue_us as f64 / 1e3,
        phases.dispatch_us as f64 / 1e3,
        phases.rollout_us as f64 / 1e3,
    )
}

/// Builds the model this server registers: `--quick` trains the tiny test
/// net, otherwise `--model` loads a checkpoint directory.
fn build_model(args: &Args) -> Result<(ParallelInference, Tensor3, String), String> {
    if args.flag("quick") {
        let ranks: usize = args.get_or("ranks-per-world", 2)?;
        let (inf, initial) = crate::commands::quick_fleet(PaddingStrategy::ZeroPad, ranks)?;
        Ok((inf, initial, "built-in 16x16 paper pulse (--quick)".into()))
    } else {
        let model_dir = PathBuf::from(args.require("model")?);
        let (meta, inf) = crate::commands::load_fleet(&model_dir)?;
        let data_path = PathBuf::from(args.require("data")?);
        let data = pde_euler::DataSet::load(&data_path)
            .map_err(|e| format!("cannot load {}: {e}", data_path.display()))?;
        if meta.window != 1 {
            return Err(format!(
                "serve drives single-state requests but the model was trained with a \
                 window of {} — retrain with --window 1 (or use --quick)",
                meta.window
            ));
        }
        let initial = data.snapshot(data.len() - 1).clone();
        Ok((inf, initial, model_dir.display().to_string()))
    }
}

/// Splits a fresh world into sub-worlds, wires per-sub-world health
/// checks, and brings up the scheduler with the model registered.
fn build_scheduler(
    inf: &ParallelInference,
    sub_worlds: usize,
    transport: TransportKind,
    cfg: SchedulerConfig,
    health: &Arc<pde_telemetry::health::HealthModel>,
) -> Result<Scheduler, String> {
    let ranks = inf.partition().rank_count();
    let subs = World::new(ranks * sub_worlds)
        .with_transport(transport)
        .split_even(sub_worlds)?;
    let mut poisoned = Vec::new();
    let mut alive = Vec::new();
    let engines: Vec<InferEngine> = subs
        .into_iter()
        .map(|sub| {
            let engine = InferEngine::from_world(sub, EngineConfig::new(0));
            poisoned.push(engine.poisoned_flag());
            alive.push(engine.alive_flags());
            engine
        })
        .collect();
    health.register("sub_worlds_alive", move || {
        use pde_telemetry::health::CheckStatus;
        let dead = poisoned
            .iter()
            .filter(|p| p.load(Ordering::Acquire))
            .count();
        if dead == 0 {
            CheckStatus::Ok
        } else if dead < poisoned.len() {
            CheckStatus::Degraded(format!("{dead}/{} sub-worlds poisoned", poisoned.len()))
        } else {
            CheckStatus::Failed("every sub-world is poisoned".into())
        }
    });
    health.register("ranks_alive", move || {
        use pde_telemetry::health::CheckStatus;
        let dead: Vec<String> = alive
            .iter()
            .enumerate()
            .flat_map(|(sw, flags)| {
                flags
                    .iter()
                    .enumerate()
                    .filter(|(_, a)| !a.load(Ordering::Acquire))
                    .map(move |(r, _)| format!("{sw}.{r}"))
            })
            .collect();
        if dead.is_empty() {
            CheckStatus::Ok
        } else {
            CheckStatus::Failed(format!("dead ranks (sub-world.rank): {}", dead.join(",")))
        }
    });
    let sched = Scheduler::new(engines, cfg.with_health(health.clone()));
    sched
        .register("serve", inf.clone())
        .map_err(|e| e.to_string())?;
    Ok(sched)
}

/// `pdeml serve` — dispatches to the saturation sweep or the HTTP server.
pub fn serve(args: &Args) -> Result<(), String> {
    if args.flag("saturation") {
        return saturation(args);
    }
    let sub_worlds: usize = args.get_or("sub-worlds", 2)?;
    let queue_depth: usize = args.get_or("queue-depth", 32)?;
    let max_models: usize = args.get_or("max-models", 8)?;
    let slo_ms: u64 = args.get_or("slo-ms", 0)?;
    let transport = match args.get("transport") {
        Some(spec) => TransportKind::parse(spec)?,
        None => TransportKind::default(),
    };
    let addr = args.get("addr").unwrap_or("127.0.0.1:0");
    let access_log = match args.get("access-log") {
        Some(path) => {
            let sample: u64 = args.get_or("access-log-sample", 1)?;
            Some(AccessLog::open(path, sample)?)
        }
        None => None,
    };
    let trace_out = args.get("trace-out").map(str::to_string);

    let (inf, initial, source) = build_model(args)?;
    let ranks = inf.partition().rank_count();
    let mut cfg = SchedulerConfig::default()
        .with_queue_depth(queue_depth)
        .with_max_models(max_models);
    if slo_ms > 0 {
        cfg = cfg.with_slo_ms(slo_ms);
    }
    // The session must be live before the scheduler spawns its dispatcher
    // threads: they adopt the session active *now* and propagate it to the
    // rank jobs of every request they dispatch, which is how serve-path
    // spans (tagged with the request id) end up in this trace.
    let trace = trace_out.as_ref().map(|_| pde_trace::begin());
    let health = Arc::new(pde_telemetry::health::HealthModel::new());
    let sched = Arc::new(build_scheduler(&inf, sub_worlds, transport, cfg, &health)?);
    // Unmeasured warm-up requests pay residency costs (model restore,
    // scratch sizing) before traffic arrives. Sequential on purpose: a
    // tiny --queue-depth must not shed the server's own warm-up.
    for _ in 0..sub_worlds {
        sched
            .submit("serve", std::slice::from_ref(&initial), 1)
            .map_err(|e| e.to_string())?
            .wait()
            .map_err(|e| format!("warm-up request failed: {e}"))?;
    }

    let mut example = String::from("model serve\nsteps 2\n");
    for _ in 0..inf.window() {
        example.push_str(&encode_state(&initial));
    }
    let handler_sched = sched.clone();
    // The server gives every connection its own thread: a request blocks on
    // the scheduler (possibly for a whole queued rollout), and admission
    // control — not connection count — is the concurrency limiter.
    let server = Server::bind(addr, "pdeml-serve", move |request| {
        handle(request, &handler_sched, &health, &example, &access_log)
    })
    .map_err(|e| format!("cannot serve on {addr}: {e}"))?;
    println!(
        "serving on http://{} — model 'serve' from {source} \
         ({sub_worlds} sub-world(s) x {ranks} ranks, {} transport, \
         queue {queue_depth}, slo {})",
        server.local_addr(),
        transport.label(),
        if slo_ms > 0 {
            format!("{slo_ms} ms")
        } else {
            "off".into()
        }
    );
    println!("POST /v1/rollout (GET /v1/example for a request body); /metrics /healthz /readyz; POST /shutdown to stop");
    server.join();
    println!("shutdown requested; draining scheduler…");
    // Dropping the scheduler joins its dispatchers after the queue drains.
    drop(sched);
    if let (Some(path), Some(handle)) = (trace_out, trace) {
        let json = handle.finish().chrome_json();
        std::fs::write(&path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote trace {path}");
    }
    Ok(())
}

/// Answers one request: the exporter's observability routes for GET, then
/// the inference routes.
fn handle(
    request: &Request,
    sched: &Scheduler,
    health: &pde_telemetry::health::HealthModel,
    example: &str,
    access_log: &Option<AccessLog>,
) -> Response {
    let (method, path) = (request.method.as_str(), request.path.as_str());
    if method == "GET" {
        if let Some(response) = pde_telemetry::exporter::route(path, health) {
            return response;
        }
    }
    match (method, path) {
        ("GET", "/v1/example") => Response::text("200 OK", example),
        ("POST", "/v1/rollout") => {
            let text = String::from_utf8_lossy(&request.body);
            let (model, steps, history) = match parse_rollout_request(&text) {
                Ok(parsed) => parsed,
                Err(e) => return Response::text("400 Bad Request", format!("{e}\n")),
            };
            // The request id is allocated at ingress, before admission, so
            // even a shed request has an id its 429 can be correlated by.
            let id = RequestId::fresh();
            let ingress = Instant::now();
            // Admission happens inside submit; the wait happens here, on
            // this connection's thread.
            let (result, phases) = match sched.submit_with_id(id, &model, &history, steps) {
                Ok(ticket) => ticket.wait_traced(),
                Err(e) => (Err(e), RequestPhases::default()),
            };
            let total_us = ingress.elapsed().as_micros() as u64;
            let (status, body_out) = match result {
                Ok(rollout) => {
                    let mut b = format!("steps {}\n", rollout.states.len() - 1);
                    for state in &rollout.states {
                        b.push_str(&encode_state(state));
                    }
                    ("200 OK", b)
                }
                Err(e) => (status_for(&e), format!("{e}\n")),
            };
            if let Some(log) = access_log {
                let ts_ms = std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_millis() as u64)
                    .unwrap_or(0);
                log.record(&access_log_line(
                    ts_ms, id, &model, steps, status, &phases, total_us,
                ));
            }
            Response {
                headers: format!(
                    "X-PDEML-Request-Id: {id}\r\nServer-Timing: {}\r\n",
                    server_timing(&phases)
                ),
                ..Response::text(status, body_out)
            }
        }
        ("POST", "/shutdown") => Response {
            stop_server: true,
            ..Response::text("200 OK", "shutting down\n")
        },
        _ => Response::text("404 Not Found", "unknown route\n"),
    }
}

/// HTTP status for a failed rollout: caller errors are 4xx, shed load is
/// 429 (retryable), infrastructure trouble is 503.
fn status_for(e: &InferError) -> &'static str {
    match e {
        InferError::UnknownModel { .. } => "404 Not Found",
        InferError::Rejected {
            reason: RejectReason::QueueFull | RejectReason::SloBreach,
        } => "429 Too Many Requests",
        InferError::Rejected {
            reason: RejectReason::Unhealthy,
        } => "503 Service Unavailable",
        InferError::Recovering { .. } => "503 Service Unavailable",
        _ => "400 Bad Request",
    }
}

/// `state C H W v0 v1 …` — one line per state, whitespace-separated.
fn encode_state(t: &Tensor3) -> String {
    let (c, h, w) = t.shape();
    let mut line = format!("state {c} {h} {w}");
    for v in t.as_slice() {
        line.push(' ');
        // {:e} round-trips f64 exactly enough for serving (17 sig digits).
        line.push_str(&format!("{v:.17e}"));
    }
    line.push('\n');
    line
}

/// Parses a `/v1/rollout` body: `model NAME`, `steps K`, then one or more
/// `state C H W floats…` lines forming the history window.
fn parse_rollout_request(text: &str) -> Result<(String, usize, Vec<Tensor3>), String> {
    let mut model = None;
    let mut steps = None;
    let mut history = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut tokens = line.split_whitespace();
        match tokens.next() {
            Some("model") => {
                model = Some(
                    tokens
                        .next()
                        .ok_or_else(|| format!("line {}: 'model' needs a name", lineno + 1))?
                        .to_string(),
                );
            }
            Some("steps") => {
                let k: usize = tokens
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| format!("line {}: 'steps' needs a count", lineno + 1))?;
                steps = Some(k);
            }
            Some("state") => {
                let mut dim = || -> Result<usize, String> {
                    tokens
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| format!("line {}: 'state' needs C H W dims", lineno + 1))
                };
                let (c, h, w) = (dim()?, dim()?, dim()?);
                let want = c
                    .checked_mul(h)
                    .and_then(|x| x.checked_mul(w))
                    .filter(|&x| x > 0 && x <= MAX_REQUEST_BODY)
                    .ok_or_else(|| format!("line {}: bad state dims {c}x{h}x{w}", lineno + 1))?;
                let data: Vec<f64> = tokens
                    .map(|t| {
                        t.parse::<f64>()
                            .map_err(|_| format!("line {}: bad float '{t}'", lineno + 1))
                    })
                    .collect::<Result<_, _>>()?;
                if data.len() != want {
                    return Err(format!(
                        "line {}: state {c}x{h}x{w} needs {want} values, got {}",
                        lineno + 1,
                        data.len()
                    ));
                }
                history.push(Tensor3::from_vec(c, h, w, data));
            }
            Some(other) => return Err(format!("line {}: unknown field '{other}'", lineno + 1)),
            None => {}
        }
    }
    let model = model.ok_or("missing 'model' line")?;
    let steps = steps.ok_or("missing 'steps' line")?;
    if history.is_empty() {
        return Err("missing 'state' line(s)".into());
    }
    Ok((model, steps, history))
}

/// One measured point of the saturation sweep.
struct LoadPoint {
    sub_worlds: usize,
    offered_rps: f64,
    served: usize,
    rejected: usize,
    p999_ms: Option<f64>,
    /// Queue-wait percentiles over served requests — how much of the tail
    /// is waiting versus computing at this offered load.
    queue_p50_ms: Option<f64>,
    queue_p99_ms: Option<f64>,
}

/// `pdeml serve --saturation` — open-loop offered-load sweep against the
/// scheduler (no HTTP in the measured path), at 1/2/4 sub-worlds. Each
/// request is submitted at its scheduled arrival time from its own thread,
/// so a saturated scheduler sheds (bounded queue) instead of the load
/// generator slowing down — that is what makes "offered" load offered.
fn saturation(args: &Args) -> Result<(), String> {
    let steps: usize = args.get_or("steps", 2)?;
    let queue_depth: usize = args.get_or("queue-depth", 8)?;
    let per_point: usize = args.get_or("requests", 96)?;
    let transport = match args.get("transport") {
        Some(spec) => TransportKind::parse(spec)?,
        None => TransportKind::default(),
    };
    let sub_world_counts: Vec<usize> = args
        .get("sub-worlds-list")
        .unwrap_or("1,2,4")
        .split(',')
        .map(|t| {
            t.trim()
                .parse()
                .map_err(|_| format!("--sub-worlds-list: not a number: {t}"))
        })
        .collect::<Result<_, _>>()?;
    let (inf, initial, source) = build_model(args)?;
    let ranks = inf.partition().rank_count();

    // Calibrate: closed-loop serial throughput of one sub-world sets the
    // sweep's unit of offered load, so the ladder lands around saturation
    // on any machine.
    let health = Arc::new(pde_telemetry::health::HealthModel::new());
    let base_rps = {
        let sched = build_scheduler(
            &inf,
            1,
            transport,
            SchedulerConfig::default().with_queue_depth(queue_depth),
            &health,
        )?;
        let n = 24usize;
        // First request pays residency; excluded from the measured window.
        sched
            .submit("serve", std::slice::from_ref(&initial), steps)
            .map_err(|e| e.to_string())?
            .wait()
            .map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        for _ in 0..n {
            sched
                .submit("serve", std::slice::from_ref(&initial), steps)
                .map_err(|e| e.to_string())?
                .wait()
                .map_err(|e| e.to_string())?;
        }
        n as f64 / t0.elapsed().as_secs_f64()
    };
    println!(
        "saturation: {source} ({ranks} ranks/sub-world, {} transport, steps {steps}, \
         queue {queue_depth}); single sub-world closed-loop {base_rps:.1} req/s",
        transport.label()
    );
    println!(
        "{:>10} {:>12} {:>8} {:>9} {:>10} {:>9} {:>9} {:>9}",
        "sub-worlds",
        "offered r/s",
        "served",
        "rejected",
        "p99.9 ms",
        "q p50 ms",
        "q p99 ms",
        "rej rate"
    );

    let ladder = [0.5, 1.0, 1.5, 2.0, 3.0];
    let mut points: Vec<LoadPoint> = Vec::new();
    for &sub_worlds in &sub_world_counts {
        let health = Arc::new(pde_telemetry::health::HealthModel::new());
        let sched = Arc::new(build_scheduler(
            &inf,
            sub_worlds,
            transport,
            SchedulerConfig::default().with_queue_depth(queue_depth),
            &health,
        )?);
        // Warm every sub-world before measuring.
        let warm: Vec<Ticket> = (0..sub_worlds * 2)
            .map(|_| {
                sched
                    .submit("serve", std::slice::from_ref(&initial), steps)
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<_, _>>()?;
        for t in warm {
            t.wait().map_err(|e| e.to_string())?;
        }
        for &mult in &ladder {
            let offered = base_rps * mult;
            let interval = Duration::from_secs_f64(1.0 / offered);
            let t0 = Instant::now() + Duration::from_millis(20);
            let handles: Vec<_> = (0..per_point)
                .map(|k| {
                    let sched = sched.clone();
                    let initial = initial.clone();
                    std::thread::spawn(move || {
                        let due = t0 + interval * k as u32;
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let submitted = Instant::now();
                        match sched.submit("serve", std::slice::from_ref(&initial), steps) {
                            Ok(ticket) => {
                                let (result, phases) = ticket.wait_traced();
                                match result {
                                    Ok(_) => Ok((
                                        submitted.elapsed().as_secs_f64() * 1e3,
                                        phases.queue_us as f64 / 1e3,
                                    )),
                                    Err(e) => Err(e),
                                }
                            }
                            Err(e) => Err(e),
                        }
                    })
                })
                .collect();
            let mut latencies = Vec::new();
            let mut queue_waits = Vec::new();
            let mut rejected = 0usize;
            for h in handles {
                match h.join().expect("load thread") {
                    Ok((ms, queue_ms)) => {
                        latencies.push(ms);
                        queue_waits.push(queue_ms);
                    }
                    Err(InferError::Rejected { .. }) => rejected += 1,
                    Err(e) => return Err(format!("saturation request failed: {e}")),
                }
            }
            latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
            queue_waits.sort_by(|a, b| a.partial_cmp(b).expect("finite waits"));
            let p999 = crate::commands::percentile(&latencies, 99.9);
            let queue_p50 = crate::commands::percentile(&queue_waits, 50.0);
            let queue_p99 = crate::commands::percentile(&queue_waits, 99.0);
            let rate = rejected as f64 / per_point as f64;
            println!(
                "{sub_worlds:>10} {offered:>12.1} {:>8} {rejected:>9} {:>10} {:>9} {:>9} {rate:>9.3}",
                latencies.len(),
                crate::commands::fmt_ms(p999),
                crate::commands::fmt_ms(queue_p50),
                crate::commands::fmt_ms(queue_p99),
            );
            points.push(LoadPoint {
                sub_worlds,
                offered_rps: offered,
                served: latencies.len(),
                rejected,
                p999_ms: p999,
                queue_p50_ms: queue_p50,
                queue_p99_ms: queue_p99,
            });
        }
    }

    if let Some(out) = args.get("out") {
        let rows: Vec<String> = points
            .iter()
            .map(|p| {
                format!(
                    "    {{ \"sub_worlds\": {}, \"offered_rps\": {:.1}, \"served\": {}, \
                     \"rejected\": {}, \"p999_ms\": {}, \"queue_p50_ms\": {}, \
                     \"queue_p99_ms\": {}, \"rejection_rate\": {:.4} }}",
                    p.sub_worlds,
                    p.offered_rps,
                    p.served,
                    p.rejected,
                    crate::commands::json_num(p.p999_ms),
                    crate::commands::json_num(p.queue_p50_ms),
                    crate::commands::json_num(p.queue_p99_ms),
                    p.rejected as f64 / per_point as f64
                )
            })
            .collect();
        let json = format!(
            "{{\n  \"base_rps\": {base_rps:.1},\n  \"steps\": {steps},\n  \
             \"queue_depth\": {queue_depth},\n  \"requests_per_point\": {per_point},\n  \
             \"transport\": \"{}\",\n  \"points\": [\n{}\n  ]\n}}\n",
            transport.label(),
            rows.join(",\n")
        );
        std::fs::write(out, json).map_err(|e| format!("cannot write {out}: {e}"))?;
        println!("wrote {out}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_lines_round_trip_bitwise() {
        let t = Tensor3::from_vec(
            2,
            1,
            3,
            vec![0.1, -2.5e-17, 3.0, f64::MIN_POSITIVE, 1e300, -0.0],
        );
        let body = format!("model m\nsteps 4\n{}", encode_state(&t));
        let (model, steps, history) = parse_rollout_request(&body).unwrap();
        assert_eq!(model, "m");
        assert_eq!(steps, 4);
        assert_eq!(history.len(), 1);
        assert_eq!(history[0].as_slice(), t.as_slice(), "exact f64 round-trip");
    }

    #[test]
    fn access_log_line_is_json_with_the_three_phases() {
        let phases = RequestPhases {
            queue_us: 120,
            dispatch_us: 45,
            rollout_us: 9_800,
        };
        let line = access_log_line(
            1_700_000_000_000,
            RequestId(42),
            "se\"rve",
            3,
            "429 Too Many Requests",
            &phases,
            10_000,
        );
        assert!(line.ends_with('\n'));
        assert_eq!(
            line.trim_end(),
            "{\"ts_ms\":1700000000000,\"id\":42,\"model\":\"se\\\"rve\",\"steps\":3,\
             \"status\":429,\"queue_us\":120,\"dispatch_us\":45,\"rollout_us\":9800,\
             \"total_us\":10000}"
        );
        assert_eq!(
            server_timing(&phases),
            "queue;dur=0.120, dispatch;dur=0.045, rollout;dur=9.800"
        );
    }

    #[test]
    fn malformed_requests_are_parse_errors() {
        assert!(parse_rollout_request("").is_err());
        assert!(parse_rollout_request("model m\nsteps 2\n").is_err());
        assert!(parse_rollout_request("model m\nstate 1 1 1 0.0\n").is_err());
        assert!(parse_rollout_request("steps 2\nstate 1 1 1 0.0\n").is_err());
        // Value count must match the declared dims.
        assert!(parse_rollout_request("model m\nsteps 1\nstate 1 2 2 0.0\n").is_err());
        // Dims must not overflow.
        let huge = format!("model m\nsteps 1\nstate {} {} 2 0.0\n", usize::MAX, 2);
        assert!(parse_rollout_request(&huge).is_err());
    }
}
