//! A hand-rolled HTTP/1.0 surface for the telemetry plane.
//!
//! Just enough HTTP to be `curl`- and Prometheus-scrapable with no
//! dependencies: one thread serves every endpoint, sleeping in one
//! `epoll_wait` over all their listeners and the connections still
//! sending their request; it answers a connection once its `GET <path>`
//! request line is complete, with that endpoint's text body, and
//! closes. A connection that sends nothing is closed after
//! [`READ_TIMEOUT`] without holding up any other.
//! Connection: close semantics throughout — every scrape is one
//! short-lived connection, which keeps the server loop trivial and
//! leak-free.
//!
//! [`get`] is the matching client, used by `rfh watch`, the smoke
//! tests, and anything else that wants a body without shelling out.

use rfh_reactor::{Poller, Waker};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Largest request head we accept; a scrape request line is tiny.
const MAX_REQUEST: usize = 8 * 1024;

/// How long an accepted connection may take to send its request line.
const READ_TIMEOUT: Duration = Duration::from_millis(2_000);

/// How long writing one reply may block.
const WRITE_TIMEOUT: Duration = Duration::from_millis(2_000);

/// Poller token of the stop waker; listeners use their index and
/// connections the tokens after the last listener's.
const WAKER_TOKEN: u64 = u64::MAX;

/// Pause after a round in which every ready listener failed to accept:
/// level-triggered readiness reports a lasting error (say, out of file
/// descriptors) again at once, and the loop must not spin on it.
const ERROR_BACKOFF: Duration = Duration::from_millis(5);

/// Bind a loopback listener for [`serve`]; returns it with its address.
pub fn bind() -> io::Result<(TcpListener, SocketAddr)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    Ok((listener, addr))
}

/// An accepted connection still sending its request head.
struct Pending {
    stream: TcpStream,
    /// Index of the endpoint that accepted it.
    endpoint: usize,
    head: Vec<u8>,
    /// Closed unanswered when this passes.
    deadline: Instant,
}

impl Pending {
    /// Read what has arrived; true once the head is complete (or the
    /// peer stopped sending), false while more is awaited.
    fn read_head(&mut self) -> bool {
        let mut chunk = [0u8; 1024];
        loop {
            // The head ends at the blank line; a bare `GET /x\r\n`
            // (HTTP/0.9 style, and what a minimal client sends) ends at
            // the first one.
            if self.head.windows(2).any(|w| w == b"\r\n") || self.head.len() >= MAX_REQUEST {
                return true;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return true,
                Ok(n) => self.head.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
                Err(_) => return true,
            }
        }
    }

    /// Answer the request and close.
    fn respond<F>(mut self, route: &F) -> io::Result<()>
    where
        F: Fn(&str) -> Option<String>,
    {
        self.stream.set_nonblocking(false)?;
        self.stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
        self.stream.set_nodelay(true)?;
        let Some(path) = request_path(&self.head) else {
            return write_response(&mut self.stream, "400 Bad Request", "bad request\n");
        };
        match route(path) {
            Some(body) => write_response(&mut self.stream, "200 OK", &body),
            None => write_response(&mut self.stream, "404 Not Found", "not found\n"),
        }
    }
}

/// Accept-and-respond loop over every `(listener, route)` endpoint.
/// One poller watches every listener, every accepted connection and
/// `waker`; each round accepts once on every listener it reports ready
/// and answers each connection whose request line is complete; `route`
/// maps a request path to a body (`None` → 404). A connection whose
/// request line has not arrived within [`READ_TIMEOUT`] is closed. An
/// idle loop blocks in `epoll_wait` and makes no other call; only while
/// a connection is open does the wait take a timeout, the earliest
/// deadline. It runs until `stop` holds, checked whenever `waker` fires
/// or a wait ends: set the flag, then wake.
///
/// # Errors
/// Fails when the poller cannot be made or a listener registered (not
/// Linux, or out of file descriptors), or a wait fails.
pub fn serve<F, S>(endpoints: &[(TcpListener, F)], waker: &Waker, stop: S) -> io::Result<()>
where
    F: Fn(&str) -> Option<String>,
    S: Fn() -> bool,
{
    let poller = Poller::new()?;
    for (token, (listener, _)) in endpoints.iter().enumerate() {
        poller.register(listener.as_raw_fd(), token as u64, true, false)?;
    }
    poller.register(waker.fd(), WAKER_TOKEN, true, false)?;
    let mut events = Vec::new();
    let mut pending: HashMap<u64, Pending> = HashMap::new();
    let mut next_token = endpoints.len() as u64;
    while !stop() {
        let timeout = pending
            .values()
            .map(|conn| conn.deadline)
            .min()
            .map(|deadline| deadline.saturating_duration_since(Instant::now()));
        poller.wait(&mut events, timeout)?;
        let mut progressed = false;
        for event in &events {
            if event.token == WAKER_TOKEN {
                waker.drain();
                progressed = true;
            } else if let Some((listener, _)) = endpoints.get(event.token as usize) {
                // `WouldBlock` means the client left before the accept;
                // any other accept error skips this listener for this
                // round only, so one failing endpoint never silences the
                // rest.
                let Ok((stream, _)) = listener.accept() else { continue };
                progressed = true;
                // A connection that cannot be watched is dropped, closed.
                if stream.set_nonblocking(true).is_ok()
                    && poller.register(stream.as_raw_fd(), next_token, true, false).is_ok()
                {
                    let endpoint = event.token as usize;
                    let deadline = Instant::now() + READ_TIMEOUT;
                    pending.insert(
                        next_token,
                        Pending { stream, endpoint, head: Vec::new(), deadline },
                    );
                    next_token += 1;
                }
            } else if let Some(conn) = pending.get_mut(&event.token) {
                progressed = true;
                if conn.read_head() {
                    let conn = pending.remove(&event.token).expect("looked up above");
                    let route = &endpoints[conn.endpoint].1;
                    let _ = conn.respond(route);
                }
            }
        }
        // Dropping a connection closes it, which also unwatches it.
        let now = Instant::now();
        pending.retain(|_, conn| conn.deadline > now);
        if !events.is_empty() && !progressed {
            std::thread::sleep(ERROR_BACKOFF);
        }
    }
    Ok(())
}

/// The GET path of a request head, or `None` for anything else.
fn request_path(head: &[u8]) -> Option<&str> {
    let line = std::str::from_utf8(head.split(|&b| b == b'\n').next()?).ok()?;
    let mut parts = line.split_whitespace();
    match (parts.next(), parts.next()) {
        (Some("GET"), Some(path)) => Some(path),
        _ => None,
    }
}

fn write_response(stream: &mut TcpStream, status: &str, body: &str) -> io::Result<()> {
    let head = format!(
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())
}

/// Minimal HTTP GET: connect, request `path`, return the body.
/// Non-2xx statuses are errors carrying the status line.
pub fn get(addr: impl ToSocketAddrs, path: &str) -> io::Result<String> {
    let addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address"))?;
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_millis(2_000))?;
    stream.set_read_timeout(Some(Duration::from_millis(5_000)))?;
    stream.set_nodelay(true)?;
    stream.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response)?;
    let text = String::from_utf8_lossy(&response);
    let Some((head, body)) = text.split_once("\r\n\r\n") else {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "no header/body separator"));
    };
    let status = head.lines().next().unwrap_or("");
    if !status.contains(" 200 ") {
        return Err(io::Error::other(format!("http status {status:?}")));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_routes_and_404s() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        fn metrics(path: &str) -> Option<String> {
            (path == "/metrics").then(|| "# TYPE up gauge\nup 1\n".to_string())
        }
        fn timeline(path: &str) -> Option<String> {
            (path == "/timeline").then(|| "{\"tick\":0}\n".to_string())
        }
        let (metrics_listener, metrics_addr) = bind().unwrap();
        let (timeline_listener, timeline_addr) = bind().unwrap();
        let route: fn(&str) -> Option<String> = metrics;
        let endpoints = [(metrics_listener, route), (timeline_listener, timeline)];
        let shutdown = Arc::new(AtomicBool::new(false));
        let shutdown2 = Arc::clone(&shutdown);
        let waker = Waker::new().unwrap();
        let waker2 = waker.clone();
        let server = std::thread::spawn(move || {
            serve(&endpoints, &waker2, move || shutdown2.load(Ordering::Acquire))
        });
        assert_eq!(get(metrics_addr, "/metrics").unwrap(), "# TYPE up gauge\nup 1\n");
        assert_eq!(get(timeline_addr, "/timeline").unwrap(), "{\"tick\":0}\n");
        for (addr, other) in [(metrics_addr, "/timeline"), (timeline_addr, "/metrics")] {
            let err = get(addr, other).unwrap_err();
            assert!(err.to_string().contains("404"), "{addr} {other}: {err}");
        }
        let err = get(metrics_addr, "/nope").unwrap_err();
        assert!(err.to_string().contains("404"), "{err}");
        shutdown.store(true, Ordering::Release);
        waker.wake();
        server.join().unwrap().unwrap();
        waker.close();
    }

    #[test]
    fn a_silent_connection_stalls_no_other_endpoint() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        fn ok(_: &str) -> Option<String> {
            Some("ok\n".to_string())
        }
        let (silent_listener, silent_addr) = bind().unwrap();
        let (other_listener, other_addr) = bind().unwrap();
        let route: fn(&str) -> Option<String> = ok;
        let endpoints = [(silent_listener, route), (other_listener, route)];
        let shutdown = Arc::new(AtomicBool::new(false));
        let shutdown2 = Arc::clone(&shutdown);
        let waker = Waker::new().unwrap();
        let waker2 = waker.clone();
        let server = std::thread::spawn(move || {
            serve(&endpoints, &waker2, move || shutdown2.load(Ordering::Acquire))
        });
        // A client that connects and sends nothing; give the server
        // time to accept it before the next request arrives.
        let opened = Instant::now();
        let mut silent = TcpStream::connect(silent_addr).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let t0 = Instant::now();
        assert_eq!(get(other_addr, "/metrics").unwrap(), "ok\n");
        let took = t0.elapsed();
        assert!(took < READ_TIMEOUT / 4, "a get behind a silent connection took {took:?}");
        // The silent connection is closed, unanswered, once its read
        // timeout has passed.
        silent.set_read_timeout(Some(READ_TIMEOUT * 3)).unwrap();
        let mut rest = Vec::new();
        assert_eq!(silent.read_to_end(&mut rest).unwrap(), 0, "closed without a reply");
        let open_for = opened.elapsed();
        assert!(
            open_for >= READ_TIMEOUT && open_for < READ_TIMEOUT * 2,
            "the silent connection stayed open {open_for:?}"
        );
        shutdown.store(true, Ordering::Release);
        waker.wake();
        server.join().unwrap().unwrap();
        waker.close();
    }
}
