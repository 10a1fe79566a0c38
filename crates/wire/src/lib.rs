//! The wire format shared by `advcomp-serve` and the distributed-sweep
//! layer in `advcomp-core`: length-prefixed frames and the JSON codec
//! ([`json`]) for their payloads and for the sweep journal.
//!
//! Every message — request or response, lease grant or heartbeat — is one
//! *frame*:
//!
//! ```text
//! +----------------+---------------------+
//! | u32 LE length  |  UTF-8 JSON payload |
//! +----------------+---------------------+
//! ```
//!
//! The length counts payload bytes only and is capped at [`MAX_FRAME`]; a
//! peer announcing a larger frame is rejected before any payload is read,
//! so an adversarial header cannot make the receiver allocate unbounded
//! memory. Both the inference server and the sweep coordinator speak this
//! framing — one implementation, so the two protocols cannot drift apart.

#![warn(missing_docs)]

pub mod json;

use std::io::{Read, Write};

/// Maximum frame payload size (16 MiB) — large enough for any realistic
/// batch-of-one image or journal record, small enough to bound
/// per-connection memory.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Writes one frame.
///
/// # Errors
///
/// I/O errors; `InvalidInput` when the payload exceeds [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME as usize {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame. Returns `Ok(None)` on clean EOF at a frame boundary.
///
/// # Errors
///
/// I/O errors; `InvalidData` for an oversized length header or truncation
/// mid-frame.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("announced frame of {len} bytes exceeds MAX_FRAME ({MAX_FRAME})"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "truncated frame")
        } else {
            e
        }
    })?;
    Ok(Some(payload))
}

/// Incremental frame decoder for nonblocking / timeout-driven readers.
///
/// [`read_frame`] assumes a blocking stream: a read timeout mid-frame would
/// discard the bytes `read_exact` already consumed and desynchronise the
/// connection. A poller instead reads whatever bytes arrive with
/// [`FrameBuffer::read_from`] and drains complete frames with
/// [`FrameBuffer::next_frame`]; partial frames simply wait in the buffer
/// for more bytes.
///
/// Frames are returned as borrowed slices of one reusable buffer. Consumed
/// frames are only marked by an offset; the next read compacts the
/// remainder to the front once, so a burst of pipelined frames costs one
/// copy rather than one per frame.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Bytes of `buf` already returned as frames.
    consumed: usize,
}

impl FrameBuffer {
    /// Creates an empty buffer.
    pub fn new() -> FrameBuffer {
        FrameBuffer::default()
    }

    /// Buffered bytes not yet returned as frames.
    pub fn len(&self) -> usize {
        self.buf.len() - self.consumed
    }

    /// True when no unconsumed bytes are buffered (a frame boundary).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Makes one `read` call of at most `max` bytes straight into the
    /// buffer and returns its count (`Ok(0)` is end of stream).
    ///
    /// # Errors
    ///
    /// The reader's error (including `WouldBlock` and `TimedOut`); the
    /// buffered bytes are left unchanged.
    pub fn read_from(&mut self, r: &mut impl Read, max: usize) -> std::io::Result<usize> {
        self.buf.drain(..self.consumed);
        self.consumed = 0;
        let old = self.buf.len();
        self.buf.resize(old + max, 0);
        let read = r.read(&mut self.buf[old..]);
        self.buf.truncate(old + read.as_ref().map_or(0, |&n| n));
        read
    }

    /// Pops the next complete frame, or `None` if more bytes are needed.
    ///
    /// # Errors
    ///
    /// `InvalidData` when the buffered header announces a frame larger than
    /// [`MAX_FRAME`]. The stream is no longer frame-aligned, so every
    /// buffered byte is discarded.
    pub fn next_frame(&mut self) -> std::io::Result<Option<&[u8]>> {
        let avail = &self.buf[self.consumed..];
        let Some(header) = avail.first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(*header);
        if len > MAX_FRAME {
            self.buf.clear();
            self.consumed = 0;
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("announced frame of {len} bytes exceeds MAX_FRAME ({MAX_FRAME})"),
            ));
        }
        let total = 4 + len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let start = self.consumed + 4;
        self.consumed += total;
        Ok(Some(&self.buf[start..self.consumed]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn oversized_header_is_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        assert_eq!(
            read_frame(&mut &buf[..]).unwrap_err().kind(),
            std::io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn oversized_payload_is_rejected_on_write() {
        struct NullSink;
        impl Write for NullSink {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let payload = vec![0u8; MAX_FRAME as usize + 1];
        assert_eq!(
            write_frame(&mut NullSink, &payload).unwrap_err().kind(),
            std::io::ErrorKind::InvalidInput
        );
    }

    #[test]
    fn truncated_payload_is_invalid_data() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&10u32.to_le_bytes());
        buf.extend_from_slice(b"abc"); // 3 of 10 promised bytes
        assert_eq!(
            read_frame(&mut &buf[..]).unwrap_err().kind(),
            std::io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn frame_buffer_reassembles_byte_by_byte() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"first").unwrap();
        write_frame(&mut stream, b"").unwrap();
        write_frame(&mut stream, b"second").unwrap();
        let mut fb = FrameBuffer::new();
        let mut frames = Vec::new();
        let mut r = &stream[..];
        while fb.read_from(&mut r, 1).unwrap() > 0 {
            while let Some(f) = fb.next_frame().unwrap() {
                frames.push(f.to_vec());
            }
        }
        assert_eq!(
            frames,
            vec![b"first".to_vec(), Vec::new(), b"second".to_vec()]
        );
        assert_eq!(fb.next_frame().unwrap(), None);
        assert!(fb.is_empty());
    }

    #[test]
    fn frame_buffer_read_error_keeps_partial_frame() {
        struct Failing;
        impl Read for Failing {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::ErrorKind::WouldBlock.into())
            }
        }
        let mut stream = Vec::new();
        write_frame(&mut stream, b"done").unwrap();
        write_frame(&mut stream, b"partial").unwrap();
        let mut fb = FrameBuffer::new();
        let cut = stream.len() - 3;
        assert_eq!(fb.read_from(&mut &stream[..cut], 64).unwrap(), cut);
        assert_eq!(fb.next_frame().unwrap(), Some(&b"done"[..]));
        assert_eq!(fb.next_frame().unwrap(), None);
        let held = fb.len();
        assert!(fb.read_from(&mut Failing, 64).is_err());
        assert_eq!(fb.len(), held);
        fb.read_from(&mut &stream[cut..], 64).unwrap();
        assert_eq!(fb.next_frame().unwrap(), Some(&b"partial"[..]));
        assert!(fb.is_empty());
    }

    #[test]
    fn frame_buffer_rejects_oversized_header() {
        let mut fb = FrameBuffer::new();
        let header = (MAX_FRAME + 1).to_le_bytes();
        fb.read_from(&mut &header[..], 4).unwrap();
        assert_eq!(
            fb.next_frame().unwrap_err().kind(),
            std::io::ErrorKind::InvalidData
        );
        assert!(fb.is_empty(), "an unaligned stream is discarded");
    }

    #[test]
    fn eof_during_header_reads_as_clean_eof() {
        // EOF anywhere in the 4-byte header reads as a clean end-of-stream
        // (`Ok(None)`): a peer that dies between frames and one that dies
        // mid-header are indistinguishable to the reader, and both protocols
        // treat the connection as closed rather than corrupt.
        let buf = [1u8, 0];
        assert!(read_frame(&mut &buf[..]).unwrap().is_none());
        assert!(read_frame(&mut &[][..]).unwrap().is_none());
    }
}
