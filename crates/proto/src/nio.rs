//! Nonblocking framing: incremental frame assembly and resumable frame
//! writes for readiness-driven (reactor) transports.
//!
//! The blocking helpers ([`read_frame`](crate::read_frame),
//! [`write_frame`](crate::write_frame)) own the socket for the duration of
//! a frame; a reactor cannot afford that — a peer that
//! delivers half a length prefix must cost nothing but buffered bytes.
//! [`FrameReader`] accumulates one frame across any number of partial
//! reads and hands back complete payloads; [`FrameQueue`] holds encoded
//! frames and writes them through any sink that may accept fewer bytes
//! than offered (or none at all, `WouldBlock`), resumable at any byte
//! offset. Both are pure byte-level state machines: no sockets, no
//! threads, fully deterministic — which is what makes the partial-write
//! property tests possible.

use crate::wire::{ProtoError, MAX_FRAME_LEN};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::time::Instant;

/// What one [`FrameReader::fill_from`] pass produced.
#[derive(Debug)]
pub enum ReadProgress {
    /// A complete frame payload (length prefix stripped).
    Frame(Vec<u8>),
    /// The reader needs more bytes; the source is drained for now.
    NeedMore,
    /// The peer closed the stream cleanly at a frame boundary.
    Closed,
}

/// Incremental frame assembler: feeds on a nonblocking byte source and
/// yields one length-prefixed frame at a time, never blocking mid-frame.
#[derive(Debug, Default)]
pub struct FrameReader {
    /// The four length-prefix bytes, filled left to right.
    len_buf: [u8; 4],
    len_filled: usize,
    /// Payload buffer, allocated once the prefix is complete.
    payload: Vec<u8>,
    payload_filled: usize,
    /// When the first byte of the in-progress frame arrived; `None` at a
    /// frame boundary. The reactor's timer sweep uses this to bound how
    /// long a byte-trickling peer can pin a session.
    started: Option<Instant>,
}

impl FrameReader {
    /// A reader at a frame boundary.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// True while a frame is partially assembled (a stall here is a
    /// protocol violation after the deadline, not an idle session).
    pub fn mid_frame(&self) -> bool {
        self.started.is_some()
    }

    /// When the in-progress frame started arriving.
    pub fn frame_started(&self) -> Option<Instant> {
        self.started
    }

    /// Reads as many bytes as the source will give without blocking and
    /// returns at most one complete frame. Call again after
    /// [`ReadProgress::Frame`] — more pipelined frames may already be
    /// buffered in the kernel. `WouldBlock`/`Interrupted` map to
    /// [`ReadProgress::NeedMore`]; EOF at a frame boundary maps to
    /// [`ReadProgress::Closed`], EOF mid-frame to
    /// [`ProtoError::Stalled`].
    pub fn fill_from(&mut self, src: &mut impl Read) -> Result<ReadProgress, ProtoError> {
        loop {
            if self.len_filled < 4 {
                match src.read(&mut self.len_buf[self.len_filled..4]) {
                    Ok(0) => {
                        return if self.len_filled == 0 {
                            Ok(ReadProgress::Closed)
                        } else {
                            Err(ProtoError::Stalled)
                        };
                    }
                    Ok(n) => {
                        if self.started.is_none() {
                            self.started = Some(Instant::now());
                        }
                        self.len_filled += n;
                        if self.len_filled < 4 {
                            continue;
                        }
                        let len = u32::from_le_bytes(self.len_buf);
                        if len > MAX_FRAME_LEN {
                            return Err(ProtoError::Oversized(len));
                        }
                        self.payload = vec![0u8; len as usize];
                        self.payload_filled = 0;
                    }
                    Err(e) if retryable(&e) => return Ok(ReadProgress::NeedMore),
                    Err(e) => return Err(ProtoError::Io(e)),
                }
            }
            if self.payload_filled < self.payload.len() {
                match src.read(&mut self.payload[self.payload_filled..]) {
                    Ok(0) => return Err(ProtoError::Stalled),
                    Ok(n) => self.payload_filled += n,
                    Err(e) if retryable(&e) => return Ok(ReadProgress::NeedMore),
                    Err(e) => return Err(ProtoError::Io(e)),
                }
            }
            if self.payload_filled == self.payload.len() {
                self.len_filled = 0;
                self.started = None;
                let payload = std::mem::take(&mut self.payload);
                self.payload_filled = 0;
                return Ok(ReadProgress::Frame(payload));
            }
        }
    }
}

fn retryable(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted | io::ErrorKind::TimedOut
    )
}

/// What one [`FrameQueue::write_to`] pass achieved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteProgress {
    /// Every queued byte reached the sink.
    Flushed,
    /// The sink stopped accepting bytes mid-queue. `progressed` says
    /// whether *any* bytes moved this pass — the reactor's write-stall
    /// timer only resets when it did.
    Blocked { progressed: bool },
}

/// Outbound frame queue resumable at any byte offset.
///
/// Frames are pushed whole (already length-prefixed, e.g. from
/// [`Message::encode`](crate::Message::encode) or
/// [`encode_region`](crate::encode_region)) and written through a sink
/// that may take any number of bytes per call. The queue tracks a byte
/// offset into its front frame, so a write interrupted after any prefix —
/// even inside the 4-byte length — resumes exactly where it stopped. The
/// byte stream is therefore identical to a single contiguous write of
/// every pushed frame in order.
#[derive(Debug, Default)]
pub struct FrameQueue {
    frames: VecDeque<Vec<u8>>,
    /// Bytes of the front frame already written.
    offset: usize,
    /// Total unwritten bytes across all queued frames.
    queued: usize,
}

impl FrameQueue {
    /// An empty queue.
    pub fn new() -> FrameQueue {
        FrameQueue::default()
    }

    /// Queues one encoded frame (length prefix included).
    pub fn push(&mut self, frame: Vec<u8>) {
        self.queued += frame.len();
        self.frames.push_back(frame);
    }

    /// True when no bytes remain to write.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Unwritten bytes across all queued frames.
    pub fn queued_bytes(&self) -> usize {
        self.queued
    }

    /// Writes queued bytes until the sink blocks or the queue empties.
    /// `WouldBlock`/`Interrupted` pause the queue (resume on the next
    /// call); any other error is fatal to the connection. A sink that
    /// accepts zero bytes without erroring is treated as blocked.
    pub fn write_to(&mut self, sink: &mut impl Write) -> io::Result<WriteProgress> {
        let mut progressed = false;
        while let Some(front) = self.frames.front() {
            match sink.write(&front[self.offset..]) {
                Ok(0) => return Ok(WriteProgress::Blocked { progressed }),
                Ok(n) => {
                    progressed = true;
                    self.offset += n;
                    self.queued -= n;
                    if self.offset == front.len() {
                        self.frames.pop_front();
                        self.offset = 0;
                    }
                }
                Err(e) if retryable(&e) => {
                    return Ok(WriteProgress::Blocked { progressed });
                }
                Err(e) => return Err(e),
            }
        }
        Ok(WriteProgress::Flushed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sink that accepts a scripted number of bytes per call, with
    /// `WouldBlock` between slices.
    struct Dribble {
        taken: Vec<u8>,
        script: VecDeque<usize>,
        block_next: bool,
    }

    impl Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.block_next {
                self.block_next = false;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "full"));
            }
            self.block_next = true;
            let n = self.script.pop_front().unwrap_or(1).clamp(1, buf.len());
            self.taken.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn queue_resumes_at_any_offset() {
        let mut q = FrameQueue::new();
        let frames = [crate::wire::frame(b"hello"), crate::wire::frame(b"world!")];
        let mut expect = Vec::new();
        for f in &frames {
            expect.extend_from_slice(f);
            q.push(f.clone());
        }
        let mut sink = Dribble {
            taken: Vec::new(),
            script: (1..=4).cycle().take(64).collect(),
            block_next: false,
        };
        loop {
            match q.write_to(&mut sink).expect("no fatal errors") {
                WriteProgress::Flushed => break,
                WriteProgress::Blocked { .. } => continue,
            }
        }
        assert_eq!(sink.taken, expect);
        assert!(q.is_empty());
        assert_eq!(q.queued_bytes(), 0);
    }

    /// A source that yields at most `per_call` bytes, then `WouldBlock`.
    struct Trickle {
        data: Vec<u8>,
        pos: usize,
        per_call: usize,
        starved: bool,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.starved || self.pos >= self.data.len() {
                self.starved = false;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "empty"));
            }
            self.starved = true;
            let n = self.per_call.min(buf.len()).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn reader_assembles_across_partial_reads() {
        let mut data = crate::wire::frame(b"abcdef");
        data.extend_from_slice(&crate::wire::frame(b"xy"));
        let mut src = Trickle {
            data,
            pos: 0,
            per_call: 3,
            starved: false,
        };
        let mut r = FrameReader::new();
        let mut frames = Vec::new();
        for _ in 0..64 {
            match r.fill_from(&mut src).expect("clean") {
                ReadProgress::Frame(p) => frames.push(p),
                ReadProgress::NeedMore => continue,
                ReadProgress::Closed => break,
            }
        }
        assert_eq!(frames, vec![b"abcdef".to_vec(), b"xy".to_vec()]);
        assert!(!r.mid_frame());
    }
}
