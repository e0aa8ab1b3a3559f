//! Process-wide work counters: the reactor's I/O calls, counted where
//! they are made with relaxed adds. Reads are for metrics and tests,
//! never for control flow.

use std::sync::atomic::{AtomicU64, Ordering};

/// `read` calls made by [`FrameReader::fill_from`](crate::FrameReader::fill_from),
/// including the ones that return `EAGAIN`.
pub static READS: AtomicU64 = AtomicU64::new(0);

/// `write` calls made by [`WriteQueue::flush`](crate::WriteQueue::flush).
pub static WRITES: AtomicU64 = AtomicU64::new(0);

/// `epoll_wait` calls made by [`Poller::wait`](crate::Poller::wait).
pub static WAITS: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the process's reactor I/O calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoCalls {
    /// `read` calls on readiness.
    pub reads: u64,
    /// `write` calls flushing write queues.
    pub writes: u64,
    /// `epoll_wait` calls.
    pub waits: u64,
}

impl IoCalls {
    /// The counts now.
    pub fn now() -> IoCalls {
        IoCalls {
            reads: READS.load(Ordering::Relaxed),
            writes: WRITES.load(Ordering::Relaxed),
            waits: WAITS.load(Ordering::Relaxed),
        }
    }

    /// Calls made since `earlier`.
    pub fn since(self, earlier: IoCalls) -> IoCalls {
        IoCalls {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            waits: self.waits - earlier.waits,
        }
    }
}
