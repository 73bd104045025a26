//! The one std-only HTTP/1.1 server: the telemetry [`crate::exporter`] and
//! `pdeml serve` both run on it, each with its own handler.
//!
//! Hand-rolled over `std::net::TcpListener` so the telemetry crate stays
//! dependency-free. One accept-loop thread hands every connection to a
//! thread of its own, which reads one bounded request, calls the handler,
//! writes one response and closes (no keep-alive). A slow client therefore
//! holds only its own thread, and only until [`REQUEST_DEADLINE`]; a handler
//! may block for as long as its work takes (a queued rollout) without
//! stalling the listener.
//!
//! The request reader's rule:
//! * a head ends at its blank line, at EOF, at [`MAX_REQUEST_HEAD`] bytes or
//!   at the deadline, armed once per connection; the request line that
//!   arrived is routed;
//! * a body is read only after a complete head: exactly `Content-Length`
//!   bytes, at most [`MAX_REQUEST_BODY`];
//! * a `Content-Length` that does not parse or is over the bound, and a
//!   body that ends early (EOF or deadline), answer `400 Bad Request`
//!   without reaching the handler.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest request head (request line + headers) buffered.
pub const MAX_REQUEST_HEAD: usize = 4096;
/// Largest request body accepted — a window of states for a big grid is
/// ~1 MB; 16 MiB leaves headroom without letting a rogue client exhaust
/// memory.
pub const MAX_REQUEST_BODY: usize = 16 << 20;
/// Budget for reading one whole request, head and body, armed ONCE per
/// connection: every read gets the *remaining* budget, never a fresh one,
/// so a trickling client is cut off after this much wall-clock time.
pub const REQUEST_DEADLINE: Duration = Duration::from_secs(2);

/// One parsed request. `path` is `/` when the request line carried none.
pub struct Request {
    pub method: String,
    pub path: String,
    pub body: Vec<u8>,
}

/// One response; the server adds `Content-Length` and `Connection: close`.
pub struct Response {
    pub status: &'static str,
    pub content_type: &'static str,
    /// Extra header lines, each `\r\n`-terminated.
    pub headers: String,
    pub body: String,
    /// Stop the server once this response is written (`POST /shutdown`).
    pub stop_server: bool,
}

impl Response {
    /// A plain-text response; set the other fields with struct update.
    pub fn text(status: &'static str, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            headers: String::new(),
            body: body.into(),
            stop_server: false,
        }
    }
}

/// A running server. Dropping it stops the accept loop and joins it.
pub struct Server {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (port 0 for ephemeral) and serves `handler` from an
    /// accept loop on a background thread named `name`.
    pub fn bind<H>(addr: &str, name: &str, handler: H) -> std::io::Result<Server>
    where
        H: Fn(&Request) -> Response + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || accept_loop(listener, local_addr, flag, Arc::new(handler)))?;
        Ok(Server {
            local_addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address — useful when serving on port 0.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Blocks until a handler's response stops the server.
    pub fn join(mut self) {
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }

    /// Stops the accept loop and joins it.
    pub fn shutdown(&mut self) {
        if let Some(handle) = self.handle.take() {
            request_stop(&self.stop, self.local_addr);
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The one shutdown path, for [`Server::shutdown`] and for handlers alike:
/// raise the flag, then poke the loop parked in `accept()` awake.
fn request_stop(stop: &AtomicBool, addr: SocketAddr) {
    stop.store(true, Ordering::Release);
    let _ = TcpStream::connect(addr);
}

fn accept_loop<H>(listener: TcpListener, addr: SocketAddr, stop: Arc<AtomicBool>, handler: Arc<H>)
where
    H: Fn(&Request) -> Response + Send + Sync + 'static,
{
    for conn in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            return;
        }
        let Ok(stream) = conn else { continue };
        let (handler, stop) = (handler.clone(), stop.clone());
        // Out of threads: the connection is dropped, the listener lives on.
        let _ = std::thread::Builder::new().spawn(move || {
            if serve_conn(stream, &*handler) {
                request_stop(&stop, addr);
            }
        });
    }
}

/// Answers one connection; returns whether the response stops the server.
fn serve_conn(mut stream: TcpStream, handler: &dyn Fn(&Request) -> Response) -> bool {
    let response = match read_request(&mut stream) {
        Ok(request) => handler(&request),
        Err(why) => Response::text("400 Bad Request", format!("{why}\n")),
    };
    // The client may be gone; the stop request stands either way.
    let _ = write_response(&mut stream, &response);
    response.stop_server
}

/// The bounded request reader; see the module docs for its rule.
///
/// TCP does not preserve write boundaries: a client's single `write` may
/// arrive as several segments, so the head is read until its terminator
/// rather than parsed from one `read`.
fn read_request(stream: &mut TcpStream) -> Result<Request, String> {
    let deadline = Instant::now() + REQUEST_DEADLINE;
    let mut buf = [0u8; MAX_REQUEST_HEAD];
    let mut len = 0;
    let mut head_end = None;
    while head_end.is_none() && len < MAX_REQUEST_HEAD {
        let n = read_before(stream, &mut buf[len..], deadline)?;
        if n == 0 {
            break;
        }
        // The terminator can straddle the previous read's boundary.
        let from = len.saturating_sub(3);
        len += n;
        head_end = buf[from..len]
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .map(|p| from + p);
    }
    let head = String::from_utf8_lossy(&buf[..head_end.unwrap_or(len)]);
    let mut request_line = head.lines().next().unwrap_or("").split_whitespace();
    let method = request_line.next().unwrap_or("").to_string();
    let path = request_line.next().unwrap_or("/").to_string();
    let declared = head
        .lines()
        .skip(1)
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
        .map(|(_, v)| v.trim());
    // A body is read only after a complete head.
    let content_length = match declared.filter(|_| head_end.is_some()) {
        Some(v) => v
            .parse::<usize>()
            .ok()
            .filter(|&n| n <= MAX_REQUEST_BODY)
            .ok_or_else(|| format!("bad Content-Length '{v}' (at most {MAX_REQUEST_BODY})"))?,
        None => 0,
    };
    let body_start = head_end.map_or(len, |end| end + 4);
    let mut filled = (len - body_start).min(content_length);
    let mut body = buf[body_start..body_start + filled].to_vec();
    body.resize(content_length, 0);
    while filled < content_length {
        let n = read_before(stream, &mut body[filled..], deadline)?;
        if n == 0 {
            return Err(format!(
                "request body ended after {filled} of {content_length} bytes"
            ));
        }
        filled += n;
    }
    Ok(Request { method, path, body })
}

/// One read that gives up at `deadline`: `Ok(0)` is EOF or time up.
fn read_before(stream: &mut TcpStream, buf: &mut [u8], deadline: Instant) -> Result<usize, String> {
    loop {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Ok(0);
        }
        stream
            .set_read_timeout(Some(remaining))
            .map_err(|e| e.to_string())?;
        match stream.read(buf) {
            Ok(n) => return Ok(n),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Ok(0)
            }
            Err(e) => return Err(e.to_string()),
        }
    }
}

/// The one response writer.
fn write_response(stream: &mut TcpStream, r: &Response) -> std::io::Result<()> {
    let response = format!(
        "HTTP/1.1 {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{}Connection: close\r\n\r\n{}",
        r.status,
        r.content_type,
        r.body.len(),
        r.headers,
        r.body
    );
    stream.write_all(response.as_bytes())
}
