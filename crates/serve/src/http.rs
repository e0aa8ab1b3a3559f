//! A hand-rolled HTTP/1.0 surface for the telemetry plane.
//!
//! Just enough HTTP to be `curl`- and Prometheus-scrapable with no
//! dependencies: one thread serves every endpoint, sleeping in one
//! `epoll_wait` over all their listeners and accepting on those it
//! reports ready; it reads a `GET <path>` request line, answers with
//! that endpoint's text body, and closes.
//! Connection: close semantics throughout — every scrape is one
//! short-lived connection, which keeps the server loop trivial and
//! leak-free.
//!
//! [`get`] is the matching client, used by `rfh watch`, the smoke
//! tests, and anything else that wants a body without shelling out.

use rfh_reactor::{Poller, Waker};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::time::Duration;

/// Largest request head we accept; a scrape request line is tiny.
const MAX_REQUEST: usize = 8 * 1024;

/// Per-connection read timeout while parsing the request.
const READ_TIMEOUT: Duration = Duration::from_millis(2_000);

/// Poller token of the stop waker; listeners use their index.
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

/// Accept-and-respond loop over every `(listener, route)` endpoint.
/// One poller watches every listener and `waker`; each round accepts
/// once on every listener it reports ready and answers inline; `route`
/// maps a request path to a body (`None` → 404). An idle loop blocks in
/// `epoll_wait` and makes no other call. It runs until `stop` holds,
/// checked whenever `waker` fires: set the flag, then wake.
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
    while !stop() {
        poller.wait(&mut events, None)?;
        let mut progressed = false;
        for event in &events {
            if event.token == WAKER_TOKEN {
                waker.drain();
                progressed = true;
                continue;
            }
            let (listener, route) = &endpoints[event.token as usize];
            // `WouldBlock` means the client left before the accept; any
            // other accept error skips this listener for this round
            // only, so one failing endpoint never silences the rest.
            if let Ok((stream, _)) = listener.accept() {
                progressed = true;
                // Scrapes are short and rare: one request at a time is plenty.
                let _ = respond(stream, route);
            }
        }
        if !progressed {
            std::thread::sleep(ERROR_BACKOFF);
        }
    }
    Ok(())
}

fn respond<F>(mut stream: TcpStream, route: &F) -> io::Result<()>
where
    F: Fn(&str) -> Option<String>,
{
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    stream.set_nodelay(true)?;
    let path = match read_request_path(&mut stream) {
        Ok(p) => p,
        Err(_) => {
            return write_response(&mut stream, "400 Bad Request", "bad request\n");
        }
    };
    match route(&path) {
        Some(body) => write_response(&mut stream, "200 OK", &body),
        None => write_response(&mut stream, "404 Not Found", "not found\n"),
    }
}

/// Read up to the end of the request head and return the GET path.
fn read_request_path(stream: &mut TcpStream) -> io::Result<String> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        // The head ends at the blank line; a bare `GET /x\r\n` (HTTP/0.9
        // style, and what a minimal client sends) ends at the first one.
        if buf.windows(2).any(|w| w == b"\r\n") || buf.len() >= MAX_REQUEST {
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let line = head.lines().next().unwrap_or("");
    let mut parts = line.split_whitespace();
    match (parts.next(), parts.next()) {
        (Some("GET"), Some(path)) => Ok(path.to_string()),
        _ => Err(io::Error::new(io::ErrorKind::InvalidData, format!("bad request line {line:?}"))),
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
}
