//! Minimal std-only HTTP exporter: `/metrics`, `/healthz`, `/readyz`.
//!
//! The exporter is the tool you reach for when things are broken, so it
//! must not share failure modes with the stack it observes: it runs on the
//! dependency-free [`crate::http`] server, and [`route`] is the whole of
//! its logic. `pdeml serve` calls [`route`] too, so both answer these
//! routes identically.

use crate::health::HealthModel;
use crate::http::{Response, Server};
use crate::render_prometheus;
use std::sync::Arc;
// Names the unit tests below reach through `super::*`.
#[cfg(test)]
use {
    crate::http::MAX_REQUEST_HEAD,
    std::io::{Read, Write},
    std::net::{SocketAddr, TcpStream},
    std::time::Duration,
};

/// Binds `addr` (e.g. `"127.0.0.1:9184"`, port 0 for ephemeral) and serves
/// the global registry plus `health`; dropping the server stops it.
pub fn serve(addr: &str, health: Arc<HealthModel>) -> std::io::Result<Server> {
    Server::bind(addr, "pdeml-metrics", move |request| {
        route(&request.path, &health).unwrap_or_else(|| {
            Response::text(
                "404 Not Found",
                "not found; try /metrics /healthz /readyz\n",
            )
        })
    })
}

/// Answers the observability routes: `/metrics` in the Prometheus text
/// format, `/healthz` (503 only when unhealthy) and `/readyz` (200 only
/// when healthy); `None` for any other path. Servers that embed these
/// routes call this, so they answer them exactly as the exporter does.
pub fn route(path: &str, health: &HealthModel) -> Option<Response> {
    use crate::health::Health::{Healthy, Unhealthy};
    let readiness = match path {
        "/metrics" => {
            return Some(Response {
                content_type: "text/plain; version=0.0.4; charset=utf-8",
                ..Response::text("200 OK", render_prometheus())
            })
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
    Some(Response::text(status, report.describe()))
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
    fn drains_a_request_body_before_answering() {
        // Regression: the reader used to stop at the blank line and close
        // with the body unread, so the kernel reset the connection and the
        // client never saw the response.
        let health = Arc::new(HealthModel::new());
        let exporter = serve("127.0.0.1:0", health).unwrap();
        let mut stream = TcpStream::connect(exporter.local_addr()).unwrap();
        let head = b"POST /healthz HTTP/1.1\r\nContent-Length: 4096\r\n\r\n";
        stream.write_all(head).unwrap();
        stream.write_all(&[b'x'; 4096]).unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
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
