//! Per-connection buffers: length-prefixed frame reassembly on the
//! read side, one contiguous byte run per connection on the write side.
//!
//! A frame stays in its connection's buffer from the read to the write.
//! [`FrameReader::fill_from`] reads straight into the reader's own
//! buffer and [`FrameReader::next_frame`] lends each body out of it;
//! encoders append onto [`WriteQueue::buf_mut`] in place, and
//! [`WriteQueue::flush`] writes the unwritten tail with one `write`.
//! Both buffers keep their capacity, so a warm connection moves bytes
//! without allocating. The room a reader reads into is zeroed once,
//! when the buffer grows, never per call.

use crate::counter::{READS, WRITES};
use std::io::{self, Read, Write};
use std::sync::atomic::Ordering;

/// Spare room a read gets at least. A connection's buffer starts this
/// large, on its first read, and doubles only when a read fills it all
/// or a frame is longer; most connections never grow it.
const ROOM: usize = 2 * 1024;

/// Reassembles `[len: u32 LE][body]` frames from an arbitrarily
/// fragmented byte stream. Bytes arrive by [`fill_from`](Self::fill_from)
/// (a readiness event), [`read_from`](Self::read_from) (one blocking
/// read) or [`feed`](Self::feed) (a copy); complete bodies come out one
/// at a time, lent by [`next_frame`](Self::next_frame).
#[derive(Debug)]
pub struct FrameReader {
    max_frame: u32,
    /// Initialized bytes: `buf[start..end]` are live, `buf[end..]` is
    /// room for the next read.
    buf: Vec<u8>,
    /// Consumed prefix: the next frame starts here.
    start: usize,
    /// End of the bytes read so far.
    end: usize,
}

impl FrameReader {
    /// A reader rejecting frames whose length prefix exceeds
    /// `max_frame` (protects against garbage prefixes allocating GiBs).
    /// It allocates nothing until the first bytes arrive.
    pub fn new(max_frame: u32) -> FrameReader {
        FrameReader { max_frame, buf: Vec::new(), start: 0, end: 0 }
    }

    /// Append raw stream bytes (a copy; the socket paths read in place).
    pub fn feed(&mut self, bytes: &[u8]) {
        self.make_room(bytes.len());
        self.buf[self.end..self.end + bytes.len()].copy_from_slice(bytes);
        self.end += bytes.len();
    }

    /// One `read` from `r` straight into the spare room. Returns what
    /// the read returned — `Ok(0)` is end of stream — and passes every
    /// error through, `WouldBlock` and `TimedOut` included, with the
    /// bytes buffered so far kept.
    pub fn read_from(&mut self, r: &mut impl Read) -> io::Result<usize> {
        self.make_room(ROOM);
        let n = r.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Serve one readiness event of a nonblocking `r`: one `read`, and
    /// another only while a read fills all the room (the socket may
    /// hold more). A level-triggered poller reports unread bytes again
    /// on the next wait, so a short read is the end of the event.
    /// Returns `(bytes_read, saw_eof)`.
    pub fn fill_from(&mut self, r: &mut impl Read) -> io::Result<(usize, bool)> {
        let mut total = 0;
        loop {
            READS.fetch_add(1, Ordering::Relaxed);
            match self.read_from(r) {
                Ok(0) => return Ok((total, true)),
                Ok(n) => {
                    total += n;
                    // Room left over: the read took all the socket had.
                    if self.end < self.buf.len() {
                        return Ok((total, false));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok((total, false)),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// The next complete frame body (prefix stripped), lent out of the
    /// buffer, or `None` when the buffered bytes end mid-frame. Errors
    /// on an oversized prefix.
    pub fn next_frame(&mut self) -> io::Result<Option<&[u8]>> {
        let Some(len) = self.prefix() else {
            return Ok(None);
        };
        if len > self.max_frame {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame of {len} bytes exceeds MAX_FRAME"),
            ));
        }
        let body = self.start + 4;
        let end = body + len as usize;
        if end > self.end {
            return Ok(None);
        }
        self.start = end;
        Ok(Some(&self.buf[body..end]))
    }

    /// [`next_frame`](Self::next_frame) as an owned copy.
    pub fn next_body(&mut self) -> io::Result<Option<Vec<u8>>> {
        Ok(self.next_frame()?.map(<[u8]>::to_vec))
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn pending_bytes(&self) -> usize {
        self.end - self.start
    }

    /// The length prefix of the next frame, once all four bytes are in.
    fn prefix(&self) -> Option<u32> {
        let live = &self.buf[self.start..self.end];
        Some(u32::from_le_bytes(live.get(..4)?.try_into().expect("four bytes")))
    }

    /// Leave at least `want` bytes of room after `end`: drop the
    /// consumed prefix first (free when nothing is live, a copy of the
    /// live bytes otherwise), and grow — at least doubling, zeroing only
    /// the new room — when that is not enough. The buffer grows only as
    /// bytes arrive, never on a length prefix's say-so, so a peer that
    /// announces a large frame and sends nothing more costs no memory.
    fn make_room(&mut self, want: usize) {
        if self.start == self.end {
            (self.start, self.end) = (0, 0);
        }
        if self.buf.len() - self.end >= want {
            return;
        }
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            (self.start, self.end) = (0, self.end - self.start);
        }
        if self.buf.len() - self.end < want {
            let len = (self.end + want).max(2 * self.buf.len());
            self.buf.resize(len, 0);
        }
    }
}

/// Outgoing bytes of one connection, with partial-write resumption.
///
/// Frames are appended in place onto one contiguous buffer
/// ([`buf_mut`](WriteQueue::buf_mut), or [`push`](WriteQueue::push) for
/// a ready-made chunk); [`flush`](WriteQueue::flush) writes the
/// unwritten tail with one `write`, and a short write — the send
/// buffer filling mid-frame — leaves the queue positioned exactly
/// where the kernel stopped, to resume when the socket reports
/// writable again. A drained queue keeps its capacity for the next
/// turn.
#[derive(Debug, Default)]
pub struct WriteQueue {
    buf: Vec<u8>,
    /// Bytes of `buf` already written.
    head: usize,
}

impl WriteQueue {
    /// An empty queue.
    pub fn new() -> WriteQueue {
        WriteQueue::default()
    }

    /// Queue one encoded frame (or any byte chunk) for writing.
    pub fn push(&mut self, bytes: Vec<u8>) {
        self.buf_mut().extend_from_slice(&bytes);
    }

    /// The buffer to append encoded frames onto, in place. Callers only
    /// append: the bytes already in it are the queue's. A written
    /// prefix at least as long as the unwritten rest is dropped first,
    /// so a queue that never fully drains still stays bounded.
    pub fn buf_mut(&mut self) -> &mut Vec<u8> {
        if self.head > 0 && self.head >= self.buf.len() - self.head {
            self.buf.drain(..self.head);
            self.head = 0;
        }
        &mut self.buf
    }

    /// Unwritten bytes queued.
    pub fn len(&self) -> usize {
        self.buf.len() - self.head
    }

    /// Whether everything queued has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Write the unwritten tail with one `write`. Returns `true` when
    /// the queue drained, `false` when the sink took only part of it or
    /// would block (the caller arms write interest and retries on
    /// writable). Partial progress — stopping mid-frame included — is
    /// kept.
    pub fn flush(&mut self, w: &mut impl Write) -> io::Result<bool> {
        while !self.is_empty() {
            WRITES.fetch_add(1, Ordering::Relaxed);
            match w.write(&self.buf[self.head..]) {
                Ok(0) => {
                    return Err(io::Error::new(io::ErrorKind::WriteZero, "sink accepted 0 bytes"))
                }
                Ok(n) => {
                    self.head += n;
                    if !self.is_empty() {
                        return Ok(false);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.head = 0;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(body: &[u8]) -> Vec<u8> {
        let mut f = (body.len() as u32).to_le_bytes().to_vec();
        f.extend_from_slice(body);
        f
    }

    #[test]
    fn reassembles_across_arbitrary_split_points() {
        let frames = [frame(b"alpha"), frame(b""), frame(&[7u8; 300])];
        let wire: Vec<u8> = frames.iter().flatten().copied().collect();
        // Feed in every possible two-way split.
        for cut in 0..=wire.len() {
            let mut rd = FrameReader::new(1 << 20);
            rd.feed(&wire[..cut]);
            let mut got = Vec::new();
            while let Some(b) = rd.next_body().unwrap() {
                got.push(b);
            }
            rd.feed(&wire[cut..]);
            while let Some(b) = rd.next_body().unwrap() {
                got.push(b);
            }
            assert_eq!(got.len(), 3, "split at {cut}");
            assert_eq!(got[0], b"alpha");
            assert_eq!(got[1], b"");
            assert_eq!(got[2], vec![7u8; 300]);
            assert_eq!(rd.pending_bytes(), 0);
        }
    }

    #[test]
    fn oversized_prefix_is_rejected() {
        let mut rd = FrameReader::new(16);
        rd.feed(&100u32.to_le_bytes());
        assert!(rd.next_frame().is_err());
    }

    /// Consumed frames are reclaimed whichever way the bytes arrive: a
    /// long-lived connection never accretes memory.
    #[test]
    fn compaction_keeps_memory_bounded() {
        let f = frame(&[9u8; 1000]);
        let mut rd = FrameReader::new(1 << 20);
        for _ in 0..1000 {
            rd.feed(&f);
            assert!(rd.next_frame().unwrap().is_some());
        }
        assert!(rd.buf.capacity() < 4 * ROOM, "consumed prefixes must be reclaimed");

        // Reads that end mid-frame: every frame straddles two reads,
        // so the live tail is always there when the room runs out.
        let wire: Vec<u8> = (0..1000).flat_map(|_| f.iter().copied()).collect();
        let mut src = Script::new(&wire, &[700]);
        let mut rd = FrameReader::new(1 << 20);
        let mut frames = 0;
        while rd.read_from(&mut src).unwrap() > 0 {
            while rd.next_frame().unwrap().is_some() {
                frames += 1;
            }
        }
        assert_eq!((frames, rd.pending_bytes()), (1000, 0));
        assert!(rd.buf.capacity() < 4 * ROOM, "consumed prefixes must be reclaimed");
    }

    /// A `Read` that plays back `data` in reads of the scripted sizes
    /// (repeating the last), reports `WouldBlock` once the data is
    /// gone — unless `eof` — and counts its calls.
    struct Script {
        data: Vec<u8>,
        pos: usize,
        sizes: Vec<usize>,
        eof: bool,
        calls: usize,
    }

    impl Script {
        fn new(data: &[u8], sizes: &[usize]) -> Script {
            Script { data: data.to_vec(), pos: 0, sizes: sizes.to_vec(), eof: true, calls: 0 }
        }

        fn open(data: &[u8], sizes: &[usize]) -> Script {
            Script { eof: false, ..Script::new(data, sizes) }
        }
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let size = self.sizes[self.calls.min(self.sizes.len() - 1)];
            self.calls += 1;
            if self.pos == self.data.len() && !self.eof {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = size.min(buf.len()).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn a_short_read_ends_the_event_after_one_call() {
        let wire = frame(b"one frame");
        let mut src = Script::open(&wire, &[usize::MAX]);
        let mut rd = FrameReader::new(1 << 20);
        assert_eq!(rd.fill_from(&mut src).unwrap(), (wire.len(), false));
        assert_eq!(src.calls, 1, "no read that can only say EAGAIN");
        assert_eq!(rd.next_frame().unwrap(), Some(&b"one frame"[..]));
    }

    /// A buffer whose bytes were all consumed starts the next read at
    /// offset 0, so a short read after a long one is still seen as
    /// short: one call, no read that can only say EAGAIN.
    #[test]
    fn a_short_read_after_a_consumed_one_takes_one_call() {
        let long = frame(&[8u8; ROOM - 150]);
        let short = frame(&[9u8; 296]);
        let mut src = Script::open(&long, &[usize::MAX]);
        let mut rd = FrameReader::new(1 << 20);
        assert_eq!(rd.fill_from(&mut src).unwrap(), (long.len(), false));
        assert!(rd.next_frame().unwrap().is_some());
        assert_eq!((rd.end, src.calls), (long.len(), 1));
        src.data.extend_from_slice(&short);
        assert!(long.len() + short.len() > ROOM);
        assert_eq!(rd.fill_from(&mut src).unwrap(), (short.len(), false));
        assert_eq!(src.calls, 2);
        assert_eq!(rd.next_frame().unwrap(), Some(&short[4..]));
    }

    /// A length prefix alone sizes nothing: a peer that announces a
    /// frame of `max_frame` bytes and stops costs a room or two, not
    /// the frame.
    #[test]
    fn a_lone_prefix_allocates_only_the_room() {
        let mut src = Script::open(&(1u32 << 20).to_le_bytes(), &[usize::MAX]);
        let mut rd = FrameReader::new(1 << 20);
        for _ in 0..3 {
            rd.fill_from(&mut src).unwrap();
            assert_eq!(rd.next_frame().unwrap(), None);
        }
        assert!(rd.buf.len() <= 2 * ROOM, "{} bytes for a 4-byte prefix", rd.buf.len());
    }

    #[test]
    fn a_read_that_fills_the_room_reads_on() {
        let wire: Vec<u8> = (0..40).flat_map(|_| frame(&[5u8; 196])).collect();
        assert!(wire.len() > 2 * ROOM);
        let mut src = Script::open(&wire, &[usize::MAX]);
        let mut rd = FrameReader::new(1 << 20);
        assert_eq!(rd.fill_from(&mut src).unwrap(), (wire.len(), false));
        // ROOM, then the doubled buffer's new room, then the rest: a
        // read that fills its room is followed by another.
        assert_eq!(src.calls, 3);
        let mut n = 0;
        while rd.next_frame().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 40);
    }

    #[test]
    fn data_then_eof_reports_the_eof_on_the_next_call() {
        let wire = frame(b"last words");
        let mut src = Script::new(&wire, &[usize::MAX]);
        let mut rd = FrameReader::new(1 << 20);
        assert_eq!(rd.fill_from(&mut src).unwrap(), (wire.len(), false));
        assert_eq!(rd.next_frame().unwrap(), Some(&b"last words"[..]));
        assert_eq!(rd.fill_from(&mut src).unwrap(), (0, true));
        assert_eq!(src.calls, 2);
    }

    #[test]
    fn a_frame_longer_than_the_room_reassembles_across_events() {
        let body: Vec<u8> = (0..5 * ROOM).map(|i| i as u8).collect();
        let wire = frame(&body);
        // The socket has only part of the frame per readiness event.
        let mut src = Script::open(&wire[..3 * ROOM], &[ROOM / 2]);
        let mut rd = FrameReader::new(1 << 20);
        let mut events = 0;
        while src.pos < src.data.len() {
            rd.fill_from(&mut src).unwrap();
            assert_eq!(rd.next_frame().unwrap(), None);
            events += 1;
        }
        src.data.extend_from_slice(&wire[3 * ROOM..]);
        while rd.next_frame().unwrap().is_none() {
            rd.fill_from(&mut src).unwrap();
            events += 1;
        }
        assert_eq!(rd.next_body().unwrap(), None);
        assert!(events > 2, "took {events} events");
        assert_eq!(rd.pending_bytes(), 0);
        // Doubling never overshoots the frame by more than twice.
        assert!(rd.buf.len() <= 2 * wire.len());

        let mut rd = FrameReader::new(1 << 20);
        let mut src = Script::open(&wire, &[ROOM / 2]);
        let mut got = None;
        while got.is_none() {
            rd.fill_from(&mut src).unwrap();
            got = rd.next_body().unwrap();
        }
        assert_eq!(got.unwrap(), body);
    }

    /// A sink with a byte budget — the kernel send buffer in
    /// miniature: it accepts bytes until full, then reports
    /// `WouldBlock` until the caller grants more room ("writable").
    struct ThrottledSink {
        out: Vec<u8>,
        budget: usize,
        calls: usize,
    }

    impl Write for ThrottledSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.budget == 0 {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.budget);
            self.budget -= n;
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Backpressure: the send buffer fills mid-frame, the queue reports
    /// "not drained" after that one write, and a later writable event
    /// resumes from the exact byte where the kernel stopped.
    #[test]
    fn partial_write_backpressure_resumes_cleanly() {
        let mut wq = WriteQueue::new();
        let frames = [frame(&[1u8; 50]), frame(&[2u8; 500]), frame(&[3u8; 7])];
        let expect: Vec<u8> = frames.iter().flatten().copied().collect();
        for f in &frames {
            wq.push(f.clone());
        }
        assert_eq!(wq.len(), expect.len());

        // First flush: 60 bytes of room — frame 1 lands whole, frame 2
        // is cut mid-body, and the short write ends the flush.
        let mut sink = ThrottledSink { out: Vec::new(), budget: 60, calls: 0 };
        assert!(!wq.flush(&mut sink).unwrap(), "full mid-frame: must report not-drained");
        assert_eq!((sink.out.len(), sink.calls), (60, 1));
        assert_eq!(wq.len(), expect.len() - 60);
        assert!(!wq.flush(&mut sink).unwrap(), "still full: no progress, no error");
        assert_eq!(sink.out.len(), 60);

        // Frames appended in place while the queue is part-written land
        // behind the unwritten tail.
        let late = frame(&[4u8; 9]);
        wq.buf_mut().extend_from_slice(&late);
        let expect: Vec<u8> = expect.iter().chain(&late).copied().collect();

        // Writable again: drain to completion in small grants.
        while !wq.flush(&mut sink).unwrap() {
            sink.budget += 13;
        }
        assert_eq!(sink.out, expect, "byte stream intact across partial writes");
        assert!(wq.is_empty());

        // Decode the result to prove frame integrity end to end.
        let mut rd = FrameReader::new(1 << 20);
        rd.feed(&sink.out);
        for f in frames.iter().chain([&late]) {
            assert_eq!(rd.next_frame().unwrap(), Some(&f[4..]));
        }
        assert!(rd.next_frame().unwrap().is_none());
    }

    #[test]
    fn a_drained_queue_reuses_its_capacity() {
        let mut wq = WriteQueue::new();
        let mut sink = ThrottledSink { out: Vec::new(), budget: usize::MAX, calls: 0 };
        let f = frame(&[6u8; 300]);
        for _ in 0..8 {
            wq.buf_mut().extend_from_slice(&f);
        }
        assert!(wq.flush(&mut sink).unwrap());
        assert_eq!(sink.calls, 1, "one write for the whole turn");
        let (ptr, cap) = (wq.buf.as_ptr(), wq.buf.capacity());
        for _ in 0..100 {
            for _ in 0..8 {
                wq.buf_mut().extend_from_slice(&f);
            }
            assert!(wq.flush(&mut sink).unwrap());
        }
        assert_eq!((wq.buf.as_ptr(), wq.buf.capacity()), (ptr, cap), "no reallocation");
        assert_eq!(sink.out.len(), 101 * 8 * f.len());
    }

    #[test]
    fn write_zero_is_an_error_not_a_spin() {
        struct Dead;
        impl Write for Dead {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut wq = WriteQueue::new();
        wq.push(vec![1, 2, 3]);
        assert!(wq.flush(&mut Dead).is_err());
    }
}
