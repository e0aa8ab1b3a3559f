//! The hand-rolled length-prefixed binary wire protocol.
//!
//! Every message on the wire is one *frame*:
//!
//! ```text
//! ┌──────────────┬─────────┬──────────────────────────────┐
//! │ len: u32 LE  │ tag: u8 │ fields, little-endian ...    │
//! └──────────────┴─────────┴──────────────────────────────┘
//! ```
//!
//! `len` counts the body (tag + fields). Variable-length values are
//! always the final field, so their length is implied by the frame
//! length — no inner length word to disagree with the outer one.
//!
//! The protocol is deliberately tiny: clients speak [`Frame::Get`] /
//! [`Frame::Put`], nodes forward to replica peers with
//! [`Frame::ForwardGet`] / [`Frame::ForwardPut`] (tagged with the
//! requester's datacenter so traffic attribution survives the hop), and
//! every request is answered by exactly one [`Frame::Ack`].
//!
//! # Traced frames
//!
//! A sampled request carries an optional **op-ID** for span tracing:
//! the tag byte's high bit ([`TRACE_BIT`]) signals that a `u64 LE`
//! op-ID follows the tag, before the frame's normal fields. Coordinators
//! copy the ID onto forwards and every hop echoes it on its ack, so the
//! whole causal chain shares one ID. An untraced frame
//! (`op_id = None`) encodes byte-for-byte as it always has — the
//! version gate that keeps sampling-off runs bit-identical.

use std::io::{self, Read, Write};

/// Upper bound on the body of a single frame. Larger length prefixes
/// are rejected before any allocation, so a corrupt or hostile peer
/// cannot make a node allocate unbounded memory.
pub const MAX_FRAME: u32 = 1 << 20;

/// How a request ended, carried inside [`Frame::Ack`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckStatus {
    /// The operation succeeded (for gets: key found).
    Ok,
    /// The key does not exist on any reachable replica.
    NotFound,
    /// The operation could not be completed now (dead replicas,
    /// mid-transfer state); the client should retry.
    Unavailable,
}

impl AckStatus {
    /// The status's wire byte.
    pub fn to_byte(self) -> u8 {
        match self {
            AckStatus::Ok => 0,
            AckStatus::NotFound => 1,
            AckStatus::Unavailable => 2,
        }
    }

    /// Parse a wire status byte; anything but 0–2 is a protocol error.
    pub fn from_byte(b: u8) -> io::Result<Self> {
        match b {
            0 => Ok(AckStatus::Ok),
            1 => Ok(AckStatus::NotFound),
            2 => Ok(AckStatus::Unavailable),
            _ => Err(bad(format!("unknown ack status {b}"))),
        }
    }
}

/// One protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Client → coordinator: read `key`.
    Get {
        /// The key to read.
        key: u64,
    },
    /// Client → coordinator: write `value` under `key`. `seq` is the
    /// client-chosen version; replicas keep the highest seq per key, so
    /// retrying the same put is idempotent.
    Put {
        /// The key to write.
        key: u64,
        /// Monotonic write version (last-writer-wins).
        seq: u64,
        /// The value bytes (final field; length implied by the frame).
        value: Vec<u8>,
    },
    /// Coordinator → replica: serve a get from the local shard.
    /// `origin_dc` is the requesting client's datacenter, carried so a
    /// forwarded hop stays attributed to the requester in `q_ijt`.
    ForwardGet {
        /// The key to read.
        key: u64,
        /// Datacenter the client request entered at.
        origin_dc: u32,
    },
    /// Coordinator → replica: apply a put to the local shard.
    ForwardPut {
        /// The key to write.
        key: u64,
        /// Write version (last-writer-wins).
        seq: u64,
        /// Datacenter the client request entered at.
        origin_dc: u32,
        /// The value bytes (final field; length implied by the frame).
        value: Vec<u8>,
    },
    /// The single response to any request. For gets, `seq`/`value`
    /// carry the stored version; for puts they echo the written seq
    /// with an empty value.
    Ack {
        /// How the request ended.
        status: AckStatus,
        /// Stored / written version.
        seq: u64,
        /// Value bytes for get responses (final field).
        value: Vec<u8>,
    },
}

const TAG_GET: u8 = 1;
const TAG_PUT: u8 = 2;
const TAG_FWD_GET: u8 = 3;
const TAG_FWD_PUT: u8 = 4;
const TAG_ACK: u8 = 5;

/// High bit of the tag byte: set when a `u64 LE` op-ID follows the tag.
pub const TRACE_BIT: u8 = 0x80;

fn bad(reason: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, reason)
}

impl Frame {
    /// Encode into a complete on-wire frame, length prefix included.
    /// Identical to [`Frame::encode_traced`] with no op-ID.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_traced(None)
    }

    /// Encode, stamping `op_id` (when sampled) after the tag byte with
    /// [`TRACE_BIT`] set. `None` produces the exact bytes
    /// [`Frame::encode`] always has.
    pub fn encode_traced(&self, op_id: Option<u64>) -> Vec<u8> {
        let mut body = Vec::with_capacity(40);
        let trace = if op_id.is_some() { TRACE_BIT } else { 0 };
        match self {
            Frame::Get { key } => {
                body.push(TAG_GET | trace);
                push_op_id(&mut body, op_id);
                body.extend_from_slice(&key.to_le_bytes());
            }
            Frame::Put { key, seq, value } => {
                body.push(TAG_PUT | trace);
                push_op_id(&mut body, op_id);
                body.extend_from_slice(&key.to_le_bytes());
                body.extend_from_slice(&seq.to_le_bytes());
                body.extend_from_slice(value);
            }
            Frame::ForwardGet { key, origin_dc } => {
                body.push(TAG_FWD_GET | trace);
                push_op_id(&mut body, op_id);
                body.extend_from_slice(&key.to_le_bytes());
                body.extend_from_slice(&origin_dc.to_le_bytes());
            }
            Frame::ForwardPut { key, seq, origin_dc, value } => {
                body.push(TAG_FWD_PUT | trace);
                push_op_id(&mut body, op_id);
                body.extend_from_slice(&key.to_le_bytes());
                body.extend_from_slice(&seq.to_le_bytes());
                body.extend_from_slice(&origin_dc.to_le_bytes());
                body.extend_from_slice(value);
            }
            Frame::Ack { status, seq, value } => {
                body.push(TAG_ACK | trace);
                push_op_id(&mut body, op_id);
                body.push(status.to_byte());
                body.extend_from_slice(&seq.to_le_bytes());
                body.extend_from_slice(value);
            }
        }
        debug_assert!(body.len() <= MAX_FRAME as usize);
        let mut out = Vec::with_capacity(4 + body.len());
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// Byte length of the frame's variable-length field (0 when it has
    /// none) — a sizing hint for encode buffers.
    pub fn value_len(&self) -> usize {
        match self {
            Frame::Get { .. } | Frame::ForwardGet { .. } => 0,
            Frame::Put { value, .. }
            | Frame::ForwardPut { value, .. }
            | Frame::Ack { value, .. } => value.len(),
        }
    }

    /// Decode a frame body (everything after the length prefix),
    /// discarding any op-ID. Identical to [`Frame::decode_envelope`]
    /// for untraced frames.
    pub fn decode_body(body: &[u8]) -> io::Result<Frame> {
        Ok(Frame::decode_envelope(body)?.0)
    }

    /// Decode a frame body along with its optional op-ID.
    pub fn decode_envelope(body: &[u8]) -> io::Result<(Frame, Option<u64>)> {
        let mut r = Cursor { buf: body, pos: 0 };
        let raw = r.u8()?;
        let op_id = if raw & TRACE_BIT != 0 { Some(r.u64()?) } else { None };
        let tag = raw & !TRACE_BIT;
        let frame = match tag {
            TAG_GET => Frame::Get { key: r.u64()? },
            TAG_PUT => Frame::Put { key: r.u64()?, seq: r.u64()?, value: r.rest().to_vec() },
            TAG_FWD_GET => Frame::ForwardGet { key: r.u64()?, origin_dc: r.u32()? },
            TAG_FWD_PUT => Frame::ForwardPut {
                key: r.u64()?,
                seq: r.u64()?,
                origin_dc: r.u32()?,
                value: r.rest().to_vec(),
            },
            TAG_ACK => Frame::Ack {
                status: AckStatus::from_byte(r.u8()?)?,
                seq: r.u64()?,
                value: r.rest().to_vec(),
            },
            t => return Err(bad(format!("unknown frame tag {t}"))),
        };
        if !r.done() {
            return Err(bad(format!("{} trailing bytes after frame", body.len() - r.pos)));
        }
        Ok((frame, op_id))
    }
}

fn push_op_id(body: &mut Vec<u8>, op_id: Option<u64>) {
    if let Some(id) = op_id {
        body.extend_from_slice(&id.to_le_bytes());
    }
}

/// Fixed-field reader over a frame body. Variable-length `value`
/// fields use [`Cursor::rest`], which consumes everything remaining.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(bad(format!(
                "truncated frame: wanted {n} bytes at offset {}, body is {}",
                self.pos,
                self.buf.len()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("length checked")))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("length checked")))
    }

    fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// A framed, buffered connection over any byte stream (in practice a
/// `TcpStream`).
///
/// Reading accumulates into an internal buffer, so a read timeout in
/// the middle of a frame loses nothing: the partial bytes stay
/// buffered and the next [`recv`](Conn::recv) call resumes where the
/// interrupted one stopped.
pub struct Conn<S> {
    stream: S,
    buf: Vec<u8>,
}

impl<S: Read + Write> Conn<S> {
    /// Wrap a byte stream.
    pub fn new(stream: S) -> Self {
        Conn { stream, buf: Vec::new() }
    }

    /// The underlying stream (to set timeouts, peer addresses, ...).
    pub fn stream(&self) -> &S {
        &self.stream
    }

    /// Write one complete frame.
    pub fn send(&mut self, frame: &Frame) -> io::Result<()> {
        self.stream.write_all(&frame.encode())
    }

    /// Write one complete frame, stamped with `op_id` when sampled.
    pub fn send_traced(&mut self, frame: &Frame, op_id: Option<u64>) -> io::Result<()> {
        self.stream.write_all(&frame.encode_traced(op_id))
    }

    /// Write a batch of frames as one contiguous byte run (a pipelined
    /// submission window). Encodes every frame first, then issues a
    /// single `write_all`, so the kernel sees one large write instead
    /// of one syscall per request. Each element is byte-identical to
    /// what [`Conn::send_traced`] would have produced for it.
    pub fn send_batch(&mut self, frames: &[(Frame, Option<u64>)]) -> io::Result<()> {
        let mut wire = Vec::with_capacity(frames.iter().map(|(f, _)| 24 + f.value_len()).sum());
        for (frame, op_id) in frames {
            wire.extend_from_slice(&frame.encode_traced(*op_id));
        }
        self.stream.write_all(&wire)
    }

    /// Read one complete frame, discarding any op-ID. Returns
    /// `Ok(None)` on clean EOF at a frame boundary; EOF mid-frame is an
    /// error. `WouldBlock` / `TimedOut` bubble up with the partial
    /// frame still buffered.
    pub fn recv(&mut self) -> io::Result<Option<Frame>> {
        Ok(self.recv_envelope()?.map(|(frame, _)| frame))
    }

    /// Read one complete frame along with its optional op-ID. Same EOF
    /// and timeout semantics as [`Conn::recv`].
    pub fn recv_envelope(&mut self) -> io::Result<Option<(Frame, Option<u64>)>> {
        loop {
            if self.buf.len() >= 4 {
                let len = u32::from_le_bytes(self.buf[..4].try_into().expect("length checked"));
                if len > MAX_FRAME {
                    return Err(bad(format!("frame of {len} bytes exceeds MAX_FRAME")));
                }
                let total = 4 + len as usize;
                if self.buf.len() >= total {
                    let envelope = Frame::decode_envelope(&self.buf[4..total])?;
                    self.buf.drain(..total);
                    return Ok(Some(envelope));
                }
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    if self.buf.is_empty() {
                        return Ok(None);
                    }
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        format!("EOF with {} buffered bytes mid-frame", self.buf.len()),
                    ));
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames() -> Vec<Frame> {
        vec![
            Frame::Get { key: 7 },
            Frame::Put { key: 1, seq: 2, value: vec![9, 8, 7] },
            Frame::ForwardGet { key: u64::MAX, origin_dc: 3 },
            Frame::ForwardPut { key: 0, seq: 1, origin_dc: 9, value: Vec::new() },
            Frame::Ack { status: AckStatus::NotFound, seq: 0, value: Vec::new() },
        ]
    }

    #[test]
    fn encode_decode_roundtrip() {
        for f in frames() {
            let bytes = f.encode();
            let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
            assert_eq!(bytes.len(), 4 + len);
            assert_eq!(Frame::decode_body(&bytes[4..]).unwrap(), f);
        }
    }

    #[test]
    fn untraced_encoding_is_byte_identical_to_encode() {
        for f in frames() {
            assert_eq!(f.encode_traced(None), f.encode(), "{f:?}");
        }
    }

    #[test]
    fn traced_envelope_roundtrips_and_costs_eight_bytes() {
        for f in frames() {
            let plain = f.encode();
            let traced = f.encode_traced(Some(0xDEAD_BEEF_CAFE_F00D));
            assert_eq!(traced.len(), plain.len() + 8, "{f:?}");
            assert_ne!(traced[4], plain[4], "trace bit set on the tag");
            let (decoded, op_id) = Frame::decode_envelope(&traced[4..]).unwrap();
            assert_eq!(decoded, f);
            assert_eq!(op_id, Some(0xDEAD_BEEF_CAFE_F00D));
            // decode_body tolerates traced frames, dropping the ID.
            assert_eq!(Frame::decode_body(&traced[4..]).unwrap(), f);
        }
    }

    #[test]
    fn truncation_inside_the_op_id_is_rejected() {
        let traced = Frame::Get { key: 7 }.encode_traced(Some(42));
        // Cut the body down to tag + half the op-id.
        let err = Frame::decode_envelope(&traced[4..9]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn conn_reassembles_split_frames() {
        // Feed two frames byte-by-byte through an in-memory stream.
        let a = Frame::Put { key: 5, seq: 6, value: vec![1, 2, 3, 4] };
        let b = Frame::Ack { status: AckStatus::Ok, seq: 6, value: Vec::new() };
        let mut wire = a.encode();
        wire.extend_from_slice(&b.encode());
        let mut conn = Conn::new(OneByteReader { data: wire, pos: 0 });
        assert_eq!(conn.recv().unwrap(), Some(a));
        assert_eq!(conn.recv().unwrap(), Some(b));
        assert_eq!(conn.recv().unwrap(), None, "clean EOF at frame boundary");
    }

    #[test]
    fn eof_mid_frame_is_an_error() {
        let mut wire = Frame::Get { key: 3 }.encode();
        wire.truncate(wire.len() - 1);
        let mut conn = Conn::new(OneByteReader { data: wire, pos: 0 });
        let err = conn.recv().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut wire = (MAX_FRAME + 1).to_le_bytes().to_vec();
        wire.push(TAG_GET);
        let mut conn = Conn::new(OneByteReader { data: wire, pos: 0 });
        let err = conn.recv().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("MAX_FRAME"), "{err}");
    }

    /// Reader that returns one byte per call — the worst-case stream
    /// fragmentation — and ignores writes.
    struct OneByteReader {
        data: Vec<u8>,
        pos: usize,
    }

    impl Read for OneByteReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos >= self.data.len() {
                return Ok(0);
            }
            buf[0] = self.data[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    impl Write for OneByteReader {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
}
