//! JSON-lines framing, shared by the TCP event loop and the blocking stdio
//! server: bytes in, complete request lines and over-the-cap markers out.

use crate::wire::Response;

/// Maximum accepted request-line length in bytes (16 MiB). Inline graphs and
/// explicit layer lists fit comfortably; a line this long that still has no
/// newline is runaway or malicious input.
pub const MAX_REQUEST_BYTES: usize = 16 * 1024 * 1024;

/// One framed item of a connection's request sequence.
pub(crate) enum Frame {
    /// A complete, non-blank request line (line terminator stripped).
    Line(String),
    /// Where an oversized line sat: answered, at its ordered position, with
    /// [`oversized_reply`].
    Oversized,
}

/// Splits a byte stream into [`Frame`]s. An oversized line is discarded up
/// to its newline in constant memory; the connection keeps serving.
#[derive(Default)]
pub(crate) struct LineFramer {
    buf: Vec<u8>,
    /// How far into `buf` the newline search has already looked, so a line
    /// arriving in many chunks is scanned once, not once per chunk.
    scan_from: usize,
    /// Discarding bytes up to the next newline after an oversized line.
    draining_oversized: bool,
}

impl LineFramer {
    /// Append bytes read from the transport.
    pub(crate) fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// End of input: a final line without a terminator is still a request.
    pub(crate) fn push_eof(&mut self) {
        if !self.buf.is_empty() {
            self.buf.push(b'\n');
        }
    }

    /// The next frame the buffered bytes complete, if any.
    pub(crate) fn next_frame(&mut self) -> Option<Frame> {
        loop {
            if self.draining_oversized {
                match self.buf.iter().position(|&b| b == b'\n') {
                    Some(pos) => {
                        self.buf.drain(..=pos);
                        self.draining_oversized = false;
                    }
                    None => {
                        self.buf.clear();
                        return None;
                    }
                }
                continue;
            }
            let found = self.buf[self.scan_from..]
                .iter()
                .position(|&b| b == b'\n')
                .map(|p| self.scan_from + p);
            match found {
                // A line that arrived complete but longer than the cap (TCP
                // coalescing can deliver the newline together with the excess)
                // is rejected just like a still-growing one; `pos` is the line
                // length, so exactly-at-cap lines pass.
                Some(pos) if pos > MAX_REQUEST_BYTES => {
                    self.buf.drain(..=pos);
                    self.scan_from = 0;
                    return Some(Frame::Oversized);
                }
                Some(pos) => {
                    let line: Vec<u8> = self.buf.drain(..=pos).collect();
                    self.scan_from = 0;
                    let text = String::from_utf8_lossy(&line);
                    let text = text.trim_end_matches(['\r', '\n']);
                    if !text.trim().is_empty() {
                        return Some(Frame::Line(text.to_string()));
                    }
                }
                None => {
                    self.scan_from = self.buf.len();
                    if self.buf.len() > MAX_REQUEST_BYTES {
                        self.buf.clear();
                        self.scan_from = 0;
                        self.draining_oversized = true;
                        return Some(Frame::Oversized);
                    }
                    return None;
                }
            }
        }
    }
}

/// The `Error` response line for a request that exceeded the cap.
pub(crate) fn oversized_reply() -> String {
    serde_json::to_string(&Response::Error {
        message: format!(
            "request line exceeds the {} MiB limit",
            MAX_REQUEST_BYTES / (1024 * 1024)
        ),
    })
    .expect("error response serializes")
}

/// Whether an I/O error means the peer went away (a clean end of the
/// connection, not a server fault).
pub(crate) fn is_disconnect(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::NotConnected
            | std::io::ErrorKind::UnexpectedEof
    )
}
