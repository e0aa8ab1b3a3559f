//! The epoll poller and the cross-thread waker.

#[cfg(target_os = "linux")]
use crate::counter::WAITS;
use std::io;
#[cfg(target_os = "linux")]
use std::sync::atomic::Ordering;
use std::time::Duration;

#[cfg(target_os = "linux")]
use crate::sys;

/// One readiness event delivered by [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    raw: u32,
}

impl Event {
    /// Data (or EOF/error — a read will observe it) is available.
    pub fn readable(&self) -> bool {
        #[cfg(target_os = "linux")]
        {
            self.raw & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP | sys::EPOLLERR) != 0
        }
        #[cfg(not(target_os = "linux"))]
        {
            let _ = self.raw;
            false
        }
    }

    /// The socket can accept more bytes (or errored — a write will
    /// observe it).
    pub fn writable(&self) -> bool {
        #[cfg(target_os = "linux")]
        {
            self.raw & (sys::EPOLLOUT | sys::EPOLLHUP | sys::EPOLLERR) != 0
        }
        #[cfg(not(target_os = "linux"))]
        {
            false
        }
    }

    /// The peer hung up or the socket errored.
    pub fn hangup(&self) -> bool {
        #[cfg(target_os = "linux")]
        {
            self.raw & (sys::EPOLLRDHUP | sys::EPOLLHUP | sys::EPOLLERR) != 0
        }
        #[cfg(not(target_os = "linux"))]
        {
            false
        }
    }
}

/// A level-triggered epoll instance. Level-triggered keeps the state
/// machine simple: an fd with unread bytes (or unflushed write space)
/// is re-reported every wait, so a handler that stops mid-buffer to
/// avoid starving other connections loses nothing.
pub struct Poller {
    #[cfg(target_os = "linux")]
    epfd: i32,
}

#[cfg(target_os = "linux")]
impl Poller {
    /// A fresh epoll instance (close-on-exec).
    pub fn new() -> io::Result<Poller> {
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: i32, fd: i32, interest: u32, token: u64) -> io::Result<()> {
        let mut ev = sys::EpollEvent { events: interest, data: token };
        let rc = unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Start watching `fd` under `token`.
    pub fn register(&self, fd: i32, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, interest_mask(readable, writable), token)
    }

    /// Change the interest set of an already-registered fd.
    pub fn modify(&self, fd: i32, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, interest_mask(readable, writable), token)
    }

    /// Stop watching `fd`. Dropping the fd deregisters implicitly; this
    /// exists for fds that outlive their registration.
    pub fn deregister(&self, fd: i32) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Block until readiness or `timeout` (None = forever). Events are
    /// appended to `out` (cleared first); returns how many arrived.
    pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        out.clear();
        let timeout_ms: i32 = match timeout {
            None => -1,
            // Round up so a 100µs deadline does not busy-spin at 0ms.
            Some(d) => {
                d.as_millis().min(i32::MAX as u128 - 1) as i32
                    + i32::from(d.subsec_nanos() % 1_000_000 != 0)
            }
        };
        let mut buf = [sys::EpollEvent { events: 0, data: 0 }; 128];
        let n = loop {
            WAITS.fetch_add(1, Ordering::Relaxed);
            let rc = unsafe {
                sys::epoll_wait(self.epfd, buf.as_mut_ptr(), buf.len() as i32, timeout_ms)
            };
            if rc >= 0 {
                break rc as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        for ev in &buf[..n] {
            out.push(Event { token: ev.data, raw: ev.events });
        }
        Ok(n)
    }
}

#[cfg(target_os = "linux")]
fn interest_mask(readable: bool, writable: bool) -> u32 {
    let mut m = 0;
    if readable {
        // Peer half-close matters exactly while reads are wanted; with
        // read interest dropped (a drained, half-closed connection
        // waiting out its last writes) a persistent RDHUP report would
        // just spin the loop.
        m |= sys::EPOLLIN | sys::EPOLLRDHUP;
    }
    if writable {
        m |= sys::EPOLLOUT;
    }
    m
}

#[cfg(target_os = "linux")]
impl Drop for Poller {
    fn drop(&mut self) {
        unsafe { sys::close(self.epfd) };
    }
}

/// Non-Linux stub: the poller is epoll-only, so construction fails;
/// crates that merely link this one still compile elsewhere.
#[cfg(not(target_os = "linux"))]
impl Poller {
    pub fn new() -> io::Result<Poller> {
        Err(io::Error::new(io::ErrorKind::Unsupported, "epoll reactor requires Linux"))
    }
    pub fn register(&self, _: i32, _: u64, _: bool, _: bool) -> io::Result<()> {
        unreachable!("stub poller cannot be constructed")
    }
    pub fn modify(&self, _: i32, _: u64, _: bool, _: bool) -> io::Result<()> {
        unreachable!("stub poller cannot be constructed")
    }
    pub fn deregister(&self, _: i32) -> io::Result<()> {
        unreachable!("stub poller cannot be constructed")
    }
    pub fn wait(&self, _: &mut Vec<Event>, _: Option<Duration>) -> io::Result<usize> {
        unreachable!("stub poller cannot be constructed")
    }
}

/// A wakeup fd: an eventfd other threads write to pull the reactor out
/// of `epoll_wait`. Cloneable handle, safe to `wake` from any thread.
#[derive(Debug, Clone)]
pub struct Waker {
    #[cfg(target_os = "linux")]
    fd: i32,
}

#[cfg(target_os = "linux")]
impl Waker {
    /// A fresh nonblocking eventfd. The caller registers
    /// [`Waker::fd`] in its poller and calls [`Waker::drain`] when the
    /// token fires.
    pub fn new() -> io::Result<Waker> {
        let fd = unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Waker { fd })
    }

    /// The fd to register for read interest.
    pub fn fd(&self) -> i32 {
        self.fd
    }

    /// Nudge the owning reactor. A full eventfd counter means a wake is
    /// already pending, which is exactly the desired state — ignored.
    pub fn wake(&self) {
        let one: u64 = 1;
        unsafe { sys::write(self.fd, one.to_ne_bytes().as_ptr(), 8) };
    }

    /// Reset the eventfd so level-triggered polling stops reporting it.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        unsafe { sys::read(self.fd, buf.as_mut_ptr(), 8) };
    }

    /// Close the fd. `Waker` is a shared handle (clones alias the same
    /// fd), so closing is explicit — exactly one owner calls this, once
    /// the poller no longer watches the fd.
    pub fn close(self) {
        unsafe { sys::close(self.fd) };
    }
}

#[cfg(not(target_os = "linux"))]
impl Waker {
    pub fn new() -> io::Result<Waker> {
        Err(io::Error::new(io::ErrorKind::Unsupported, "eventfd requires Linux"))
    }
    pub fn fd(&self) -> i32 {
        unreachable!("stub waker cannot be constructed")
    }
    pub fn wake(&self) {}
    pub fn drain(&self) {}
    pub fn close(self) {}
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    #[test]
    fn waker_interrupts_an_idle_wait() {
        let poller = Poller::new().unwrap();
        let waker = Waker::new().unwrap();
        poller.register(waker.fd(), 42, true, false).unwrap();

        let w2 = waker.clone();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            w2.wake();
        });
        let mut events = Vec::new();
        let t0 = Instant::now();
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(t0.elapsed() < Duration::from_secs(4), "woke early, not by timeout");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 42);
        assert!(events[0].readable());
        waker.drain();
        // Drained: the next wait times out instead of re-reporting.
        poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert!(events.is_empty(), "drained waker must not re-fire");
        h.join().unwrap();
        poller.deregister(waker.fd()).unwrap();
        waker.close();
    }

    #[test]
    fn socket_readiness_and_interest_changes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        let fd = {
            use std::os::fd::AsRawFd;
            server.as_raw_fd()
        };
        poller.register(fd, 7, true, false).unwrap();

        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_millis(20))).unwrap();
        assert!(events.is_empty(), "no data yet");

        client.write_all(b"hello").unwrap();
        poller.wait(&mut events, Some(Duration::from_secs(2))).unwrap();
        assert_eq!(events.len(), 1);
        assert!(events[0].readable());

        // Level-triggered: unread data keeps the fd ready.
        poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert_eq!(events.len(), 1, "level-triggered re-report");

        let mut buf = [0u8; 16];
        let mut s = &server;
        assert_eq!(s.read(&mut buf).unwrap(), 5);
        poller.modify(fd, 7, true, true).unwrap();
        poller.wait(&mut events, Some(Duration::from_secs(2))).unwrap();
        assert!(events.iter().any(|e| e.writable()), "empty send buffer is writable");

        drop(client);
        poller.wait(&mut events, Some(Duration::from_secs(2))).unwrap();
        assert!(events[0].hangup() || events[0].readable(), "peer close surfaces");
    }
}
