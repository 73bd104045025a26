//! End-to-end HTTP test of `pdeml serve`: spawns the real binary on an
//! ephemeral port (read back from its `serving on http://ADDR` line) and
//! talks raw HTTP/1.1 to it over TCP.
//!
//! The quick fleet trains in well under a second, so each test brings up
//! its own server.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `pdeml serve`; killed on drop if a test fails before
/// `POST /shutdown`.
struct Server {
    child: Child,
    addr: String,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn start() -> Server {
    let mut child = Command::new(env!("CARGO_BIN_EXE_pdeml"))
        .args([
            "serve",
            "--quick",
            "--sub-worlds",
            "1",
            "--addr",
            "127.0.0.1:0",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn pdeml serve");
    let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("pdeml serve exited before it printed its address")
            .unwrap();
        if let Some(rest) = line.strip_prefix("serving on http://") {
            break rest.split_whitespace().next().unwrap().to_string();
        }
    };
    // Keep draining stdout so the server never blocks on a full pipe.
    std::thread::spawn(move || lines.for_each(drop));
    Server { child, addr }
}

/// A parsed response: status line, raw head, body bytes.
struct Reply {
    status: String,
    head: String,
    body: Vec<u8>,
}

impl Reply {
    fn header(&self, name: &str) -> Option<&str> {
        self.head.lines().find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case(name).then(|| v.trim())
        })
    }
}

fn read_reply(mut stream: TcpStream) -> Reply {
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .unwrap_or_else(|| panic!("no response head in {:?}", String::from_utf8_lossy(&raw)));
    let head = String::from_utf8_lossy(&raw[..split]).to_string();
    Reply {
        status: head.lines().next().unwrap_or("").to_string(),
        head,
        body: raw[split + 4..].to_vec(),
    }
}

fn send(addr: &str, raw: &[u8]) -> Reply {
    let mut stream = TcpStream::connect(addr).expect("connect to pdeml serve");
    stream.write_all(raw).unwrap();
    read_reply(stream)
}

fn get(addr: &str, path: &str) -> Reply {
    send(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes(),
    )
}

fn post_head(path: &str, content_length: usize) -> String {
    format!("POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {content_length}\r\n\r\n")
}

fn post(addr: &str, path: &str, body: &[u8]) -> Reply {
    let mut raw = post_head(path, body.len()).into_bytes();
    raw.extend_from_slice(body);
    send(addr, &raw)
}

fn example_body(addr: &str) -> Vec<u8> {
    let reply = get(addr, "/v1/example");
    assert!(reply.status.contains("200"), "{}", reply.status);
    reply.body
}

#[test]
fn serve_answers_every_route_over_http_and_shuts_down_cleanly() {
    let mut server = start();
    let addr = server.addr.clone();

    assert!(get(&addr, "/readyz").status.contains("200"));

    let body = example_body(&addr);
    let first = post(&addr, "/v1/rollout", &body);
    assert!(
        first.status.contains("200"),
        "{}: {}",
        first.status,
        String::from_utf8_lossy(&first.body)
    );
    assert!(
        first.header("X-PDEML-Request-Id").is_some(),
        "{}",
        first.head
    );
    assert!(
        first
            .header("Server-Timing")
            .is_some_and(|v| v.starts_with("queue;dur=")),
        "{}",
        first.head
    );
    assert!(first.body.starts_with(b"steps 2\n"));
    let second = post(&addr, "/v1/rollout", &body);
    assert!(second.status.contains("200"), "{}", second.status);
    assert_eq!(
        first.body, second.body,
        "identical requests must return bitwise-identical rollouts"
    );

    let metrics = get(&addr, "/metrics");
    assert!(metrics.status.contains("200"), "{}", metrics.status);
    assert!(
        metrics
            .header("Content-Type")
            .is_some_and(|v| v.starts_with("text/plain; version=0.0.4")),
        "{}",
        metrics.head
    );

    // TCP does not preserve write boundaries: a head that arrives one byte
    // per segment must still route.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.set_nodelay(true).unwrap();
    for byte in b"GET /readyz HTTP/1.1\r\nHost: t\r\n\r\n" {
        stream.write_all(std::slice::from_ref(byte)).unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
    let split = read_reply(stream);
    assert!(split.status.contains("200"), "{}", split.status);

    assert!(get(&addr, "/no/such/route").status.contains("404"));

    let bye = post(&addr, "/shutdown", b"");
    assert!(bye.status.contains("200"), "{}", bye.status);
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = server.child.try_wait().unwrap() {
            break status;
        }
        assert!(Instant::now() < deadline, "pdeml serve did not exit");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "pdeml serve exited with {status}");
}

#[test]
fn body_shorter_than_its_content_length_is_rejected() {
    // The body ends in `1.25e0\n`; dropping its last 4 bytes leaves a body
    // that still parses, with last value 1.2. A reader that serves what
    // arrived would answer 200 for a request the client never sent.
    let server = start();
    let example = String::from_utf8(example_body(&server.addr)).unwrap();
    let trimmed = example.trim_end();
    let cut = trimmed.rfind(' ').unwrap();
    let body = format!("{} 1.25e0\n", &trimmed[..cut]);

    let mut stream = TcpStream::connect(&server.addr).unwrap();
    stream
        .write_all(post_head("/v1/rollout", body.len()).as_bytes())
        .unwrap();
    stream
        .write_all(&body.as_bytes()[..body.len() - 4])
        .unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let reply = read_reply(stream);
    assert!(
        reply.status.contains("400"),
        "a truncated body must be a 400, got {}",
        reply.status
    );
}
