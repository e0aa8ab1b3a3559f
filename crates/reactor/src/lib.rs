//! `rfh-reactor`: the event-loop substrate of the serve data plane.
//!
//! A deliberately small, dependency-free reactor in five pieces:
//!
//! * [`Poller`] — a level-triggered epoll instance over raw
//!   `epoll_create1`/`epoll_ctl`/`epoll_wait` FFI (std exposes no epoll;
//!   the bindings follow the same raw-libc style as the serve crate's
//!   `SO_REUSEADDR` pre-bind). Registrations carry a `u64` token the
//!   caller maps back to its own connection table.
//! * [`Waker`] — an eventfd registered in the poller so other threads
//!   (shutdown, the control loop) can nudge a reactor out of
//!   `epoll_wait` without a timeout dance.
//! * [`TimerWheel`] — a coarse hashed wheel for peer timeouts and
//!   deferred retries; the reactor derives its `epoll_wait` timeout
//!   from [`TimerWheel::next_timeout`].
//! * [`FrameReader`] / [`WriteQueue`] — per-connection buffers a frame
//!   stays in from the read to the write. `FrameReader` reads straight
//!   into its own buffer — one `read` per readiness event, another only
//!   when a read filled all the room — and lends each reassembled
//!   length-prefixed body out of it for in-place decoding. `WriteQueue`
//!   is one contiguous byte run that encoders append frames onto; a
//!   flush is one `write` of the unwritten tail, resuming at the exact
//!   byte after a partial write when the socket's send buffer fills
//!   mid-frame.
//! * [`counter`] — process-wide counts of those `read`, `write` and
//!   `epoll_wait` calls, taken where each call is made.
//!
//! Nothing here knows about the RFH wire protocol beyond "4-byte LE
//! length prefix"; frame semantics stay in `rfh-serve`.

mod buffer;
pub mod counter;
mod poller;
mod timer;

#[cfg(target_os = "linux")]
mod sys;

pub use buffer::{FrameReader, WriteQueue};
pub use counter::IoCalls;
pub use poller::{Event, Poller, Waker};
pub use timer::TimerWheel;
