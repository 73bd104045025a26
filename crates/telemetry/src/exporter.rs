//! Minimal std-only HTTP exporter: `/metrics`, `/healthz`, `/readyz`.
//!
//! Hand-rolled over `std::net::TcpListener` so the telemetry crate stays
//! dependency-free — the exporter is the tool you reach for when things are
//! broken, so it must not share failure modes with the stack it observes.
//! One accept-loop thread, one request per connection, no keep-alive: a
//! scrape every few seconds from one or two collectors is the design load.

use crate::health::HealthModel;
use crate::render_prometheus;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A running exporter. Dropping it stops the accept loop and joins the
/// serving thread.
pub struct Exporter {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Exporter {
    /// The bound address — useful when serving on port 0.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Signals the accept loop to exit and joins it.
    pub fn shutdown(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::Release);
            // The loop is parked in accept(); poke it awake.
            let _ = TcpStream::connect(self.local_addr);
            let _ = handle.join();
        }
    }
}

impl Drop for Exporter {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds `addr` (e.g. `"127.0.0.1:9184"`, port 0 for ephemeral) and serves
/// the global registry plus `health` on a named background thread.
pub fn serve(addr: &str, health: Arc<HealthModel>) -> std::io::Result<Exporter> {
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    let handle = std::thread::Builder::new()
        .name("pdeml-metrics".into())
        .spawn(move || accept_loop(listener, stop2, health))
        .expect("spawn metrics exporter thread");
    Ok(Exporter {
        local_addr,
        stop,
        handle: Some(handle),
    })
}

fn accept_loop(listener: TcpListener, stop: Arc<AtomicBool>, health: Arc<HealthModel>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => continue,
        };
        if stop.load(Ordering::Acquire) {
            return;
        }
        // One slow or wedged client must not hold the loop forever: the
        // whole request head gets the single deadline read_request_head
        // arms, then the connection is answered and dropped.
        let _ = handle_conn(stream, &health);
    }
}

/// Longest request head the exporter will buffer before answering with
/// whatever has arrived — a scrape request line is tens of bytes.
const MAX_REQUEST_HEAD: usize = 4096;

/// Total budget for reading one request head, armed ONCE per connection:
/// every retry read gets the *remaining* budget, never a fresh 500 ms, so a
/// trickling client is cut off after 500 ms wall-clock total.
const REQUEST_DEADLINE: Duration = Duration::from_millis(500);

/// Reads a connection's request head until the blank line (`\r\n\r\n`),
/// EOF, the size bound, or the deadline — whichever comes first.
///
/// TCP does not preserve write boundaries: a client's single `write` of
/// `GET /metrics …` may arrive as several segments, so a single `read` can
/// observe half a request line. Looping until the head terminator is the
/// fix; the bound and the single shared deadline keep a malicious or wedged
/// client from holding the accept loop.
fn read_request_head(stream: &mut TcpStream) -> std::io::Result<Vec<u8>> {
    let deadline = Instant::now() + REQUEST_DEADLINE;
    let mut head: Vec<u8> = Vec::with_capacity(256);
    let mut chunk = [0u8; 256];
    while head.len() < MAX_REQUEST_HEAD {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            break; // budget spent: answer whatever arrived
        }
        stream.set_read_timeout(Some(remaining))?;
        let n = match stream.read(&mut chunk) {
            Ok(0) => break, // client finished sending
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                break
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        head.extend_from_slice(&chunk[..n]);
        // The terminator can straddle the previous chunk boundary — rescan
        // from 3 bytes before this chunk, not the whole head.
        let from = head.len().saturating_sub(n + 3);
        if head[from..].windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
    }
    Ok(head)
}

/// Content type of the health routes' plain-text reports.
const TEXT: &str = "text/plain; charset=utf-8";

/// Answers the observability routes as `(status, content type, body)`:
/// `/metrics` in the Prometheus text format, `/healthz` (503 only when
/// unhealthy) and `/readyz` (200 only when healthy); `None` for any other
/// path. Servers that embed these routes call this, so they answer them
/// exactly as the exporter does.
pub fn route(path: &str, health: &HealthModel) -> Option<(&'static str, &'static str, String)> {
    use crate::health::Health::{Healthy, Unhealthy};
    let readiness = match path {
        "/metrics" => {
            let prometheus = "text/plain; version=0.0.4; charset=utf-8";
            return Some(("200 OK", prometheus, render_prometheus()));
        }
        "/healthz" => false,
        "/readyz" => true,
        _ => return None,
    };
    let report = health.report();
    let pass = report.overall == Healthy || (!readiness && report.overall != Unhealthy);
    let status = if pass {
        "200 OK"
    } else {
        "503 Service Unavailable"
    };
    Some((status, TEXT, report.describe()))
}

fn handle_conn(mut stream: TcpStream, health: &HealthModel) -> std::io::Result<()> {
    let head = read_request_head(&mut stream)?;
    let request = String::from_utf8_lossy(&head);
    let path = request
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("/");

    let (status, content_type, body) = route(path, health).unwrap_or((
        "404 Not Found",
        TEXT,
        "not found; try /metrics /healthz /readyz\n".to_string(),
    ));

    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::CheckStatus;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut body = String::new();
        stream.read_to_string(&mut body).unwrap();
        let status = body.lines().next().unwrap_or("").to_string();
        (status, body)
    }

    #[test]
    fn serves_metrics_health_and_404() {
        let c = crate::counter("pdeml_test_exporter_total", "exporter test");
        c.inc(crate::DRIVER);
        let health = Arc::new(HealthModel::new());
        health.register("always_ok", || CheckStatus::Ok);
        let mut exporter = serve("127.0.0.1:0", health).unwrap();
        let addr = exporter.local_addr();

        let (status, body) = get(addr, "/metrics");
        assert!(status.contains("200"), "{status}");
        assert!(
            body.contains("\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n"),
            "/metrics must declare the Prometheus text format version: {body}"
        );
        assert!(body.contains("# TYPE pdeml_test_exporter_total counter"));
        assert!(body.contains("pdeml_test_exporter_total 1"));

        let (status, body) = get(addr, "/healthz");
        assert!(status.contains("200"));
        assert!(body.contains("overall: healthy"));

        let (status, _) = get(addr, "/readyz");
        assert!(status.contains("200"));

        let (status, _) = get(addr, "/nope");
        assert!(status.contains("404"));

        exporter.shutdown();
    }

    #[test]
    fn parses_request_line_split_across_tcp_segments() {
        // Regression: handle_conn used to issue ONE read and parse whatever
        // it got, so a request line arriving in several TCP segments was
        // misparsed (typically as path "/" -> 404). Write the request one
        // byte per segment to force the worst-case split.
        let c = crate::counter("pdeml_test_split_read_total", "split-read test");
        c.inc(crate::DRIVER);
        let health = Arc::new(HealthModel::new());
        let exporter = serve("127.0.0.1:0", health).unwrap();
        let mut stream = TcpStream::connect(exporter.local_addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        for byte in b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n" {
            stream.write_all(std::slice::from_ref(byte)).unwrap();
            stream.flush().unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut body = String::new();
        stream.read_to_string(&mut body).unwrap();
        assert!(
            body.lines().next().unwrap_or("").contains("200"),
            "split request must still route to /metrics: {body}"
        );
        assert!(body.contains("pdeml_test_split_read_total"));
    }

    #[test]
    fn bounds_unterminated_request_heads() {
        // A head that never sends the blank line is cut off at
        // MAX_REQUEST_HEAD and answered from what arrived, instead of
        // stalling the accept loop until the deadline. The total write is
        // exactly MAX_REQUEST_HEAD so the server drains every byte before
        // closing (no RST racing the response).
        let health = Arc::new(HealthModel::new());
        let exporter = serve("127.0.0.1:0", health).unwrap();
        let mut stream = TcpStream::connect(exporter.local_addr()).unwrap();
        let line = b"GET /healthz HTTP/1.1\r\n";
        stream.write_all(line).unwrap();
        stream
            .write_all(&vec![b'a'; MAX_REQUEST_HEAD - line.len()])
            .unwrap();
        let mut body = String::new();
        stream.read_to_string(&mut body).unwrap();
        assert!(
            body.lines().next().unwrap_or("").contains("200"),
            "bounded head must still answer the parsed route: {body}"
        );
    }

    #[test]
    fn degraded_fails_readyz_only() {
        let health = Arc::new(HealthModel::new());
        health.register("degraded", || CheckStatus::Degraded("test".into()));
        let exporter = serve("127.0.0.1:0", health).unwrap();
        let addr = exporter.local_addr();
        let (status, _) = get(addr, "/healthz");
        assert!(status.contains("200"));
        let (status, body) = get(addr, "/readyz");
        assert!(status.contains("503"), "{status}");
        assert!(body.contains("overall: degraded"));
    }
}
