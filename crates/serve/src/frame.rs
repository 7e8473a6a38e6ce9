//! Length-prefixed JSON-lines framing.
//!
//! A frame is an ASCII decimal payload length, a newline, the payload
//! bytes, and a trailing newline:
//!
//! ```text
//! <len>\n<payload…>\n
//! ```
//!
//! The payload is one JSON document on a single line (the encoder in
//! [`crate::json`] escapes every control character, so it never contains a
//! raw newline). The length prefix lets the receiver allocate exactly once
//! and reject oversized frames *before* buffering them; the trailing
//! newline is a cheap integrity check and keeps a captured stream readable
//! with line-oriented tools.
//!
//! [`FrameReader`] is incremental: it buffers partial input across calls,
//! so it works on blocking sockets (the [`crate::client`]), on sockets
//! with a read timeout, and on fully nonblocking sockets driven by a
//! readiness loop (the server's event loop).
//!
//! The reader enforces a maximum payload length ([`MAX_FRAME_LEN`] by
//! default, configurable down via [`FrameReader::with_max_len`]). An
//! oversized declared length is rejected **at the header** — the payload is
//! never buffered — and the violation is *recoverable*: the reader skips
//! the declared bytes in bounded chunks and resumes at the next frame
//! boundary, so a server can answer with a typed `bad_frame` error instead
//! of dropping the connection.

use std::io::{self, Read, Write};

/// Hard upper bound on a frame payload; declared lengths above this are
/// rejected at the header, before any payload is buffered (16 MiB — far
/// above any legitimate request). Readers may lower the bound per
/// connection via [`FrameReader::with_max_len`], never raise it.
pub const MAX_FRAME_LEN: usize = 16 << 20;

/// Maximum digits in the length header (enough for [`MAX_FRAME_LEN`]).
const MAX_HEADER_DIGITS: usize = 9;

/// A framing violation. `Io` wraps transport errors; everything else means
/// the peer does not speak the protocol and the connection should close.
#[derive(Debug)]
pub enum FrameError {
    /// The length header was not a decimal number followed by `\n`.
    BadHeader,
    /// The declared length exceeds the reader's payload cap (the
    /// [`MAX_FRAME_LEN`] protocol bound, or a lower per-connection cap set
    /// with [`FrameReader::with_max_len`]). Recoverable: the reader skips
    /// the oversized payload and the next call resumes at the following
    /// frame boundary.
    TooLarge(usize),
    /// The byte after the payload was not `\n`.
    MissingTerminator,
    /// The stream ended in the middle of a frame.
    Truncated,
    /// The stream ended cleanly between frames.
    Closed,
    /// An underlying I/O error (not `WouldBlock`/`TimedOut` — those map to
    /// `Ok(None)` from [`FrameReader::next_frame`]).
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadHeader => write!(f, "malformed frame header"),
            FrameError::TooLarge(n) => {
                write!(
                    f,
                    "declared frame length of {n} bytes exceeds the reader's cap"
                )
            }
            FrameError::MissingTerminator => write!(f, "frame payload not newline-terminated"),
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::Closed => write!(f, "stream closed"),
            FrameError::Io(e) => write!(f, "frame I/O error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one frame (header, payload, terminator) and flushes.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame payload exceeds MAX_FRAME_LEN",
        ));
    }
    let mut buf = Vec::with_capacity(payload.len() + 16);
    buf.extend_from_slice(payload.len().to_string().as_bytes());
    buf.push(b'\n');
    buf.extend_from_slice(payload);
    buf.push(b'\n');
    w.write_all(&buf)?;
    w.flush()
}

/// Incremental frame decoder over any [`Read`].
///
/// `next_frame` returns `Ok(Some(payload))` when a complete frame is
/// buffered, `Ok(None)` when the underlying reader reported
/// `WouldBlock`/`TimedOut`/`Interrupted` before one arrived (poll again),
/// and `Err` on protocol violations, transport errors, or end of stream
/// ([`FrameError::Closed`] if the stream ended exactly between frames).
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: R,
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by returned frames.
    consumed: usize,
    /// Per-reader payload cap (≤ [`MAX_FRAME_LEN`]).
    max_len: usize,
    /// Bytes of an oversized frame still to discard before the next
    /// header. Skipped data is consumed from `buf` as it arrives and never
    /// accumulates — the memory bound is the read chunk size, not the
    /// declared length.
    skip: usize,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a reader with the default [`MAX_FRAME_LEN`] payload cap.
    pub fn new(inner: R) -> Self {
        Self::with_max_len(inner, MAX_FRAME_LEN)
    }

    /// Wraps a reader with a per-connection payload cap. Caps above
    /// [`MAX_FRAME_LEN`] are clamped to it (the header digit budget is
    /// sized for the protocol-wide bound).
    pub fn with_max_len(inner: R, max_len: usize) -> Self {
        Self {
            inner,
            buf: Vec::with_capacity(1024),
            consumed: 0,
            max_len: max_len.min(MAX_FRAME_LEN),
            skip: 0,
        }
    }

    /// The underlying reader (e.g. to reach socket metadata or, for
    /// `&TcpStream`-style readers, the write half).
    pub fn get_ref(&self) -> &R {
        &self.inner
    }

    /// Mutable access to the underlying reader.
    pub fn get_mut(&mut self) -> &mut R {
        &mut self.inner
    }

    /// Tries to decode one frame, reading more input as needed.
    pub fn next_frame(&mut self) -> Result<Vec<u8>, FrameError> {
        loop {
            if let Some(frame) = self.try_decode()? {
                return Ok(frame);
            }
            let mut chunk = [0u8; 4096];
            match self.inner.read(&mut chunk) {
                Ok(0) => {
                    // An unfinished oversized-frame skip is still "mid-
                    // frame" even though the buffer itself is drained.
                    return Err(if self.buf.len() == self.consumed && self.skip == 0 {
                        FrameError::Closed
                    } else {
                        FrameError::Truncated
                    });
                }
                Ok(n) => {
                    // Drop consumed bytes before growing the buffer.
                    if self.consumed > 0 {
                        self.buf.drain(..self.consumed);
                        self.consumed = 0;
                    }
                    self.buf.extend_from_slice(&chunk[..n]);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
    }

    /// Like [`next_frame`](Self::next_frame) but maps `WouldBlock` /
    /// `TimedOut` to `Ok(None)` — the polling variant the server uses to
    /// check its shutdown flag between reads.
    pub fn poll_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        match self.next_frame() {
            Ok(frame) => Ok(Some(frame)),
            Err(FrameError::Io(e))
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Attempts to decode a frame from the buffered bytes alone.
    fn try_decode(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        // Discard the remainder of a rejected oversized frame first.
        if self.skip > 0 {
            let avail = self.buf.len() - self.consumed;
            let n = avail.min(self.skip);
            self.consumed += n;
            self.skip -= n;
            if self.skip > 0 {
                return Ok(None); // need more bytes just to discard
            }
        }
        let avail = &self.buf[self.consumed..];
        let Some(nl) = avail
            .iter()
            .take(MAX_HEADER_DIGITS + 1)
            .position(|&b| b == b'\n')
        else {
            // No header newline yet: fine while short, protocol error once
            // more bytes than any valid header arrived.
            if avail.len() > MAX_HEADER_DIGITS {
                return Err(FrameError::BadHeader);
            }
            return Ok(None);
        };
        let header = &avail[..nl];
        if header.is_empty() || !header.iter().all(u8::is_ascii_digit) {
            return Err(FrameError::BadHeader);
        }
        let len: usize = std::str::from_utf8(header)
            .unwrap()
            .parse()
            .map_err(|_| FrameError::BadHeader)?;
        if len > self.max_len {
            // Recoverable: consume the header now, arrange to discard the
            // declared payload (+ terminator) without ever buffering it,
            // and report the violation once. The next call resumes at the
            // following frame boundary.
            self.consumed += nl + 1;
            self.skip = len + 1;
            return Err(FrameError::TooLarge(len));
        }
        let body_start = nl + 1;
        let frame_end = body_start + len + 1; // payload + trailing '\n'
        if avail.len() < frame_end {
            return Ok(None);
        }
        if avail[frame_end - 1] != b'\n' {
            return Err(FrameError::MissingTerminator);
        }
        let payload = avail[body_start..frame_end - 1].to_vec();
        self.consumed += frame_end;
        Ok(Some(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn framed(payloads: &[&str]) -> Vec<u8> {
        let mut out = Vec::new();
        for p in payloads {
            write_frame(&mut out, p.as_bytes()).unwrap();
        }
        out
    }

    #[test]
    fn roundtrip_multiple_frames() {
        let wire = framed(&["{\"a\":1}", "", "second"]);
        let mut r = FrameReader::new(Cursor::new(wire));
        assert_eq!(r.next_frame().unwrap(), b"{\"a\":1}");
        assert_eq!(r.next_frame().unwrap(), b"");
        assert_eq!(r.next_frame().unwrap(), b"second");
        assert!(matches!(r.next_frame(), Err(FrameError::Closed)));
    }

    #[test]
    fn split_delivery_reassembles() {
        // A reader that returns one byte at a time.
        struct OneByte(Cursor<Vec<u8>>);
        impl Read for OneByte {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                let take = 1.min(buf.len());
                self.0.read(&mut buf[..take])
            }
        }
        let wire = framed(&["hello world"]);
        let mut r = FrameReader::new(OneByte(Cursor::new(wire)));
        assert_eq!(r.next_frame().unwrap(), b"hello world");
    }

    #[test]
    fn rejects_garbage_header() {
        let mut r = FrameReader::new(Cursor::new(b"not a frame\n".to_vec()));
        assert!(matches!(r.next_frame(), Err(FrameError::BadHeader)));
        // A headerless flood with no newline is caught at the digit cap.
        let mut r = FrameReader::new(Cursor::new(vec![b'x'; 64]));
        assert!(matches!(r.next_frame(), Err(FrameError::BadHeader)));
    }

    #[test]
    fn rejects_oversized_and_truncated() {
        let mut r = FrameReader::new(Cursor::new(b"999999999\n".to_vec()));
        assert!(matches!(r.next_frame(), Err(FrameError::TooLarge(_))));
        let mut r = FrameReader::new(Cursor::new(b"10\nshort".to_vec()));
        assert!(matches!(r.next_frame(), Err(FrameError::Truncated)));
        let mut r = FrameReader::new(Cursor::new(b"2\nabX".to_vec()));
        assert!(matches!(r.next_frame(), Err(FrameError::MissingTerminator)));
    }

    #[test]
    fn oversized_frame_is_skipped_and_the_stream_recovers() {
        // frame, oversized frame, frame: the middle rejection must not
        // desynchronize the reader.
        let mut wire = Vec::new();
        write_frame(&mut wire, b"before").unwrap();
        write_frame(&mut wire, &[b'x'; 100]).unwrap(); // over the 64-byte cap below
        write_frame(&mut wire, b"after").unwrap();
        let mut r = FrameReader::with_max_len(Cursor::new(wire), 64);
        assert_eq!(r.next_frame().unwrap(), b"before");
        assert!(matches!(r.next_frame(), Err(FrameError::TooLarge(100))));
        assert_eq!(r.next_frame().unwrap(), b"after");
        assert!(matches!(r.next_frame(), Err(FrameError::Closed)));
    }

    #[test]
    fn oversized_skip_never_buffers_the_payload() {
        // One byte at a time through a tiny cap: the buffer stays bounded
        // by the chunk size even while discarding a "large" payload.
        struct OneByte(Cursor<Vec<u8>>);
        impl Read for OneByte {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                let take = 1.min(buf.len());
                self.0.read(&mut buf[..take])
            }
        }
        let mut wire = Vec::new();
        write_frame(&mut wire, &vec![b'y'; 5000]).unwrap();
        write_frame(&mut wire, b"ok").unwrap();
        let mut r = FrameReader::with_max_len(OneByte(Cursor::new(wire)), 16);
        assert!(matches!(r.next_frame(), Err(FrameError::TooLarge(5000))));
        assert_eq!(r.next_frame().unwrap(), b"ok");
        assert!(
            r.buf.capacity() < 4096,
            "skipped payload was never buffered"
        );
    }

    #[test]
    fn truncation_inside_a_skipped_frame_is_truncated() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &[b'z'; 100]).unwrap();
        wire.truncate(wire.len() - 40); // stream dies mid-skip
        let mut r = FrameReader::with_max_len(Cursor::new(wire), 8);
        assert!(matches!(r.next_frame(), Err(FrameError::TooLarge(100))));
        assert!(matches!(r.next_frame(), Err(FrameError::Truncated)));
    }

    #[test]
    fn max_len_is_clamped_to_the_protocol_bound() {
        let r = FrameReader::with_max_len(Cursor::new(Vec::new()), usize::MAX);
        assert_eq!(r.max_len, MAX_FRAME_LEN);
    }

    #[test]
    fn payload_may_contain_newlines() {
        // Framing is length-driven: a payload with raw newlines still
        // decodes (the JSON layer never emits them, but the frame layer
        // must not care).
        let mut wire = Vec::new();
        write_frame(&mut wire, b"a\nb\nc").unwrap();
        let mut r = FrameReader::new(Cursor::new(wire));
        assert_eq!(r.next_frame().unwrap(), b"a\nb\nc");
    }
}
