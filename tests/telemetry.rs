//! End-to-end tests of the `pde-telemetry` live-metrics subsystem.
//!
//! Three layers are pinned down here:
//!
//! * the **log-linear histogram** against an exact sorted oracle (proptest):
//!   every quantile is within the advertised relative-error bound, and
//!   merging two snapshots is *exactly* the histogram of the union of their
//!   samples;
//! * **concurrency**: N rank threads hammering one registry keep totals
//!   exact (sharded relaxed atomics lose nothing);
//! * the **serving stack**: the std-only exporter answers `/metrics` and
//!   the health endpoints over a real TCP socket, the warm engine's latency
//!   histogram tracks externally measured request latencies, and a dead
//!   peer in a persistent world produces a valid flight-recorder dump.
//!
//! Only one test here drives engine rollouts — the process-global
//! `pdeml_request_latency_us` series must hold exactly that test's
//! requests for its quantile assertions to be meaningful.

use pde_ml_core::prelude::*;
use pde_telemetry::health::{CheckStatus, HealthModel};
use proptest::prelude::*;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// A fresh `&'static` metric name per call: the registry is process-global
/// and append-only, so tests (and every proptest case) register under
/// unique names instead of sharing state. The leak is a test-only cost.
fn unique_name(prefix: &str) -> &'static str {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let id = NEXT.fetch_add(1, Ordering::Relaxed);
    Box::leak(format!("{prefix}_{id}").into_boxed_str())
}

/// Nearest-rank quantile over sorted samples — the same rank rule
/// `HistogramSnapshot::quantile` and the serve-bench percentile use.
fn oracle_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[rank]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Histogram quantiles agree with the exact sorted oracle to within
    /// the advertised `max_relative_error` (±1 for integer midpoints).
    #[test]
    fn histogram_quantile_is_within_relative_error_of_oracle(
        samples in prop::collection::vec(0u64..4_000_000, 1..400),
        q_ppm in 0u64..=1_000_000,
    ) {
        let q = q_ppm as f64 / 1e6;
        let h = pde_telemetry::histogram(unique_name("pdeml_test_prop_hist"), "oracle test");
        for &s in &samples {
            h.record(s);
        }
        let mut samples = samples;
        samples.sort_unstable();
        let snap = h.snapshot();
        prop_assert_eq!(snap.count, samples.len() as u64);
        prop_assert_eq!(snap.sum, samples.iter().sum::<u64>());
        let got = snap.quantile(q).expect("non-empty histogram") as f64;
        let exact = oracle_quantile(&samples, q) as f64;
        let tol = snap.max_relative_error() * exact + 1.0;
        prop_assert!(
            (got - exact).abs() <= tol,
            "q={q}: histogram said {got}, oracle {exact}, tolerance {tol}"
        );
    }

    /// `merge(a, b)` equals recording the union of the samples — bucket
    /// for bucket, not merely in aggregate.
    #[test]
    fn merged_snapshots_equal_union_recording(
        a in prop::collection::vec(0u64..1_000_000, 0..200),
        b in prop::collection::vec(0u64..1_000_000, 0..200),
    ) {
        let ha = pde_telemetry::histogram(unique_name("pdeml_test_merge_a"), "merge test");
        let hb = pde_telemetry::histogram(unique_name("pdeml_test_merge_b"), "merge test");
        let hu = pde_telemetry::histogram(unique_name("pdeml_test_merge_u"), "merge test");
        for &s in &a {
            ha.record(s);
            hu.record(s);
        }
        for &s in &b {
            hb.record(s);
            hu.record(s);
        }
        let mut merged = ha.snapshot();
        merged.merge(&hb.snapshot());
        prop_assert_eq!(merged, hu.snapshot());
    }
}

#[test]
fn concurrent_rank_threads_keep_totals_exact() {
    const THREADS: usize = 8;
    const OPS: u64 = 20_000;
    let c = pde_telemetry::counter(unique_name("pdeml_test_conc_counter"), "concurrency test");
    let g = pde_telemetry::gauge(unique_name("pdeml_test_conc_gauge"), "concurrency test");
    let h = pde_telemetry::histogram(unique_name("pdeml_test_conc_hist"), "concurrency test");
    std::thread::scope(|s| {
        for rank in 0..THREADS {
            s.spawn(move || {
                for i in 0..OPS {
                    c.inc(rank);
                    g.add(rank, if i % 2 == 0 { 3 } else { -1 });
                    h.record(i);
                }
            });
        }
    });
    assert_eq!(c.total(), THREADS as u64 * OPS);
    // Ranks below RANK_SHARDS own their shard exclusively: exact per rank.
    for rank in 0..THREADS {
        assert_eq!(c.get(rank), OPS);
    }
    // Per thread: OPS/2 increments of +3 and OPS/2 of -1.
    assert_eq!(g.total(), THREADS as i64 * (OPS as i64 / 2) * 2);
    assert_eq!(h.count(), THREADS as u64 * OPS);
    assert_eq!(h.snapshot().sum, THREADS as u64 * (OPS * (OPS - 1) / 2));
}

fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to exporter");
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let status = raw.lines().next().unwrap_or("").to_string();
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn exporter_serves_metrics_and_tracks_health_transitions() {
    let name = unique_name("pdeml_test_exporter_total");
    let c = pde_telemetry::counter(name, "exporter e2e test");
    c.add(pde_telemetry::DRIVER, 7);

    let degraded = Arc::new(AtomicBool::new(false));
    let health = Arc::new(HealthModel::new());
    let flag = degraded.clone();
    health.register("fallback_rate", move || {
        if flag.load(Ordering::Acquire) {
            CheckStatus::Degraded("fallback rate over threshold".into())
        } else {
            CheckStatus::Ok
        }
    });
    let mut exporter =
        pde_telemetry::exporter::serve("127.0.0.1:0", health).expect("bind ephemeral port");
    let addr = exporter.local_addr();

    let (status, body) = http_get(addr, "/metrics");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains(&format!("# HELP {name} exporter e2e test")));
    assert!(body.contains(&format!("# TYPE {name} counter")));
    assert!(
        body.contains(&format!("{name} 7")),
        "driver series unlabeled"
    );

    // Counters are monotonic across scrapes.
    c.add(pde_telemetry::DRIVER, 5);
    let (_, body2) = http_get(addr, "/metrics");
    assert!(body2.contains(&format!("{name} 12")));

    let (status, _) = http_get(addr, "/readyz");
    assert!(status.contains("200"));
    degraded.store(true, Ordering::Release);
    let (status, body) = http_get(addr, "/readyz");
    assert!(status.contains("503"), "degraded engine is not ready");
    assert!(body.contains("overall: degraded"));
    let (status, _) = http_get(addr, "/healthz");
    assert!(status.contains("200"), "degraded engine is still live");

    exporter.shutdown();
}

/// The shared HTTP server hands the handler exactly `Content-Length` body
/// bytes, and answers 400 itself when that length does not parse, is over
/// the body bound, or is not delivered before EOF.
#[test]
fn http_server_reads_exactly_content_length_or_answers_400() {
    use pde_telemetry::http::{Request, Response, Server, MAX_REQUEST_BODY};
    let server = Server::bind("127.0.0.1:0", "http-test", |req: &Request| {
        let echo = format!("{} {} {}", req.method, req.path, req.body.len());
        Response::text("200 OK", echo)
    })
    .expect("bind ephemeral port");
    let exchange = |length: &str, body: &[u8]| {
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let head = format!("POST /echo HTTP/1.1\r\nContent-Length: {length}\r\n\r\n");
        stream.write_all(head.as_bytes()).unwrap();
        stream.write_all(body).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        reply
    };

    let reply = exchange("5", b"hello");
    assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
    assert!(reply.ends_with("\r\n\r\nPOST /echo 5"), "{reply}");
    let over = (MAX_REQUEST_BODY + 1).to_string();
    for (length, body) in [("five", &b"hello"[..]), (&over, b""), ("5", b"hel")] {
        let reply = exchange(length, body);
        assert!(
            reply.starts_with("HTTP/1.1 400 Bad Request\r\n"),
            "Content-Length {length} with {} body bytes: {reply}",
            body.len()
        );
    }
}

/// The warm engine records every request into the process-global latency
/// histogram; its quantiles must track externally measured wall-clock
/// latencies of the same requests.
#[test]
fn engine_latency_histogram_tracks_measured_requests() {
    const REQUESTS: usize = 24;
    let data = pde_euler::dataset::paper_dataset(16, 8);
    let arch = ArchSpec::tiny();
    let outcome = ParallelTrainer::new(
        arch.clone(),
        PaddingStrategy::ZeroPad,
        TrainConfig::quick_test(),
    )
    .train_view(&data, 6, 4)
    .expect("quick training");
    let inf = ParallelInference::from_outcome(arch, PaddingStrategy::ZeroPad, &outcome);
    let initial = data.snapshot(0).clone();

    let hist = pde_telemetry::histogram(
        "pdeml_request_latency_us",
        "Warm rollout request latency in microseconds",
    );
    let requests_total = pde_telemetry::counter(
        "pdeml_requests_total",
        "Rollout requests served by the warm engine",
    );
    let count_before = hist.count();
    let served_before = requests_total.total();

    let mut engine = InferEngine::new(4);
    engine.register("telemetry", inf).unwrap();
    let mut measured_us = Vec::with_capacity(REQUESTS);
    for _ in 0..REQUESTS {
        let t = std::time::Instant::now();
        engine.rollout("telemetry", &initial, 2).expect("rollout");
        measured_us.push(t.elapsed().as_micros() as u64);
    }

    assert_eq!(hist.count() - count_before, REQUESTS as u64);
    assert_eq!(requests_total.total() - served_before, REQUESTS as u64);

    // No other test in this binary drives rollouts, so the histogram holds
    // exactly these requests and quantiles are comparable.
    assert_eq!(count_before, 0, "latency histogram must start empty");
    let snap = hist.snapshot();
    measured_us.sort_unstable();
    let p50 = snap.quantile(0.5).expect("non-empty");
    let p99 = snap.quantile(0.99).expect("non-empty");
    assert!(p50 > 0 && p50 <= p99, "p50 {p50} vs p99 {p99}");
    // The engine times the request core (inside `rollout_batch`), so its
    // values are bounded by the externally measured wall clock — up to the
    // histogram's bucket-midpoint error.
    let max_measured = *measured_us.last().unwrap();
    let bound = max_measured as f64 * (1.0 + snap.max_relative_error()) + 1.0;
    assert!(
        (p99 as f64) <= bound,
        "histogram p99 {p99} us exceeds measured max {max_measured} us (bound {bound})"
    );
}

/// A dead peer in a 4-rank persistent world: the survivors observe
/// `Disconnected`, the driver's propagated panic classifies as `peer-dead`,
/// and the flight recorder writes a dump that is a valid Chrome-trace
/// envelope plus a metrics snapshot recording the rank panic.
#[test]
fn dead_peer_produces_valid_flight_dump() {
    let dir = std::env::temp_dir().join(format!("pdeml_flight_e2e_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut flight = FlightRecorder::new(&dir).expect("arm flight recorder");

    let mut world = pde_commsim::World::new(4).spawn_persistent();
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
        world.run(|mut ctx| {
            if ctx.rank() == 2 {
                panic!("rank 2 simulated hardware failure");
            }
            // Every survivor blocks on the dead rank and observes
            // `Disconnected` (rank 2's comm is dropped on panic).
            let _ = ctx.comm().recv(2, 7);
        })
    }));
    let payload = outcome.expect_err("the rank panic must propagate to the driver");
    assert!(world.is_poisoned());

    // Rank 0's propagated panic mentions the disconnected sender.
    let reason = pde_ml_core::flight::classify_panic(payload.as_ref());
    assert_eq!(reason, "peer-dead");

    let dump = flight.trip(reason).expect("flight dump");
    assert!(dump.trace_path.exists());
    let name = dump.trace_path.file_name().unwrap().to_string_lossy();
    assert!(
        name.starts_with("flight-") && name.contains("peer-dead"),
        "{name}"
    );
    let json = std::fs::read_to_string(&dump.trace_path).unwrap();
    assert!(
        json.contains("\"traceEvents\""),
        "dump is a Chrome-trace envelope"
    );
    let prom = std::fs::read_to_string(&dump.metrics_path).unwrap();
    assert!(
        prom.contains("pdeml_rank_panics_total{rank=\"2\"}"),
        "metrics snapshot records the rank-2 panic:\n{prom}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
