//! Byte-level primitives: the frame envelope, the decode cursor, and the
//! typed error set.
//!
//! Every message travels in one *frame*: a little-endian `u32` payload
//! length followed by the payload (a one-byte message tag plus the message
//! body). Decoding never panics — every malformed input, from a truncated
//! buffer to an oversized length prefix, surfaces as a [`ProtoError`].

use std::io::{self, Read, Write};

/// Largest payload a peer will accept. Caps the allocation a corrupt (or
/// hostile) length prefix can demand; a full-HD region frame is ~3 MiB, so
/// 64 MiB leaves generous headroom.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// Errors surfaced while encoding to or decoding from the wire.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying transport failed (includes read timeouts, surfaced
    /// as [`io::ErrorKind::WouldBlock`] / [`io::ErrorKind::TimedOut`]).
    Io(io::Error),
    /// The buffer ended before the field being decoded.
    Truncated {
        /// Bytes the field needed.
        needed: usize,
        /// Bytes that were left.
        available: usize,
    },
    /// A length prefix exceeded [`MAX_FRAME_LEN`].
    Oversized(u32),
    /// The payload's message tag is not part of this protocol version.
    UnknownMessage(u8),
    /// An error frame carried an unknown error code.
    UnknownErrorCode(u8),
    /// A query frame carried an unknown aggregate-mode tag.
    UnknownQueryMode(u8),
    /// The client hello did not start with the protocol magic.
    BadMagic([u8; 4]),
    /// A structurally invalid field (bad UTF-8, empty predicate clause,
    /// plane lengths disagreeing with the region dimensions, …).
    Malformed(&'static str),
    /// Decoding finished with bytes left over — the peer and this side
    /// disagree about the message layout.
    TrailingBytes(usize),
    /// The peer stopped sending mid-frame (too many consecutive
    /// zero-progress read timeouts, or a nonblocking reader's frame
    /// deadline passed). Unlike a between-frames timeout this is not
    /// retryable: the stream position is inside a torn frame.
    Stalled,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "wire i/o error: {e}"),
            ProtoError::Truncated { needed, available } => {
                write!(f, "truncated frame: needed {needed} bytes, had {available}")
            }
            ProtoError::Oversized(len) => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap")
            }
            ProtoError::UnknownMessage(tag) => write!(f, "unknown message tag {tag:#04x}"),
            ProtoError::UnknownErrorCode(code) => write!(f, "unknown error code {code}"),
            ProtoError::UnknownQueryMode(mode) => write!(f, "unknown query mode {mode}"),
            ProtoError::BadMagic(m) => write!(f, "bad protocol magic {m:02x?}"),
            ProtoError::Malformed(what) => write!(f, "malformed frame: {what}"),
            ProtoError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            ProtoError::Stalled => write!(f, "peer stalled mid-frame"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// A little-endian encoder appending to a byte buffer.
///
/// Infallible: encoding works on in-memory data that is valid by
/// construction; only the transport write can fail, and that happens in
/// [`write_frame`].
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes with a `u32` length prefix.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Appends a UTF-8 string with a `u32` length prefix.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// A bounds-checked little-endian decode cursor over a payload slice.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.remaining() < n {
            return Err(ProtoError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads a `u32`-length-prefixed byte string. The length is validated
    /// against the remaining payload before anything is copied, so a
    /// corrupt prefix cannot demand an outsized allocation.
    pub fn bytes(&mut self) -> Result<Vec<u8>, ProtoError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, ProtoError> {
        let len = self.u32()? as usize;
        let raw = self.take(len)?;
        std::str::from_utf8(raw)
            .map(|s| s.to_string())
            .map_err(|_| ProtoError::Malformed("invalid UTF-8 in string"))
    }

    /// Asserts the payload was consumed exactly.
    pub fn finish(self) -> Result<(), ProtoError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(ProtoError::TrailingBytes(self.remaining()))
        }
    }
}

/// Consecutive zero-progress timeout reads tolerated once a frame has
/// started arriving. A live peer delivers the rest of a frame promptly;
/// this bounds how long a crashed or partitioned peer mid-frame can pin a
/// blocking reader: 200 stalled reads at the socket's read timeout.
const MAX_STALLED_READS: u32 = 200;

/// Assembles one frame: length prefix plus `payload`. The single place
/// the envelope is laid out — [`write_frame`] and every encoder build on
/// it.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    debug_assert!(payload.len() <= MAX_FRAME_LEN as usize);
    let mut out = Vec::with_capacity(payload.len() + 4);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Writes one frame — length prefix plus `payload` — to the transport.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&frame(payload))?;
    w.flush()
}

/// Reads one frame payload from the transport.
///
/// Timeout semantics (for sockets with a read timeout set): if the timeout
/// fires before *any* byte of the frame arrived, the timeout `Io` error is
/// returned and the stream is positioned to retry cleanly. Once a frame has
/// started arriving, short reads are retried until the frame completes, so
/// a timeout can never tear a frame in half; a peer that stops sending
/// mid-frame surfaces as [`ProtoError::Stalled`].
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, ProtoError> {
    let mut len_buf = [0u8; 4];
    read_exact_retrying(r, &mut len_buf, false)?;
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME_LEN {
        return Err(ProtoError::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    read_exact_retrying(r, &mut payload, true)?;
    Ok(payload)
}

/// `read_exact` that retries timeout errors once committed to a frame
/// (`started`, or after the first byte lands), so read timeouts only ever
/// surface on frame boundaries. Mid-frame retries are bounded by
/// [`MAX_STALLED_READS`] zero-progress reads (a peer that dies mid-frame),
/// which surfaces as [`ProtoError::Stalled`].
fn read_exact_retrying(r: &mut impl Read, buf: &mut [u8], started: bool) -> Result<(), ProtoError> {
    let mut filled = 0usize;
    let mut stalled = 0u32;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(ProtoError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                )))
            }
            Ok(n) => {
                filled += n;
                stalled = 0;
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if !started && filled == 0 {
                    return Err(ProtoError::Io(e));
                }
                // Mid-frame: the peer has committed to this frame, keep
                // reading — but not forever.
                stalled += 1;
                if stalled >= MAX_STALLED_READS {
                    return Err(ProtoError::Stalled);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ProtoError::Io(e)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u16(1000);
        w.u32(123_456);
        w.u64(u64::MAX);
        w.str("tile");
        w.bytes(&[1, 2, 3]);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 1000);
        assert_eq!(r.u32().unwrap(), 123_456);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.str().unwrap(), "tile");
        assert_eq!(r.bytes().unwrap(), vec![1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let mut r = Reader::new(&[1, 2]);
        assert!(matches!(
            r.u32(),
            Err(ProtoError::Truncated {
                needed: 4,
                available: 2
            })
        ));
    }

    #[test]
    fn corrupt_length_prefix_cannot_demand_a_huge_allocation() {
        // A string length prefix pointing far past the payload fails the
        // bounds check before any allocation happens.
        let mut w = Writer::new();
        w.u32(u32::MAX);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert!(matches!(r.bytes(), Err(ProtoError::Truncated { .. })));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let r = Reader::new(&[0]);
        assert!(matches!(r.finish(), Err(ProtoError::TrailingBytes(1))));
    }

    #[test]
    fn oversized_frame_is_rejected_before_reading_its_body() {
        let mut stream = std::io::Cursor::new((MAX_FRAME_LEN + 1).to_le_bytes().to_vec());
        assert!(matches!(
            read_frame(&mut stream),
            Err(ProtoError::Oversized(_))
        ));
    }

    #[test]
    fn eof_mid_frame_is_io_not_panic() {
        // Length says 10 bytes, stream has 3.
        let mut bytes = 10u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[1, 2, 3]);
        let mut stream = std::io::Cursor::new(bytes);
        assert!(matches!(read_frame(&mut stream), Err(ProtoError::Io(_))));
    }
}
