//! Thin socket front: line-delimited JSON over TCP.
//!
//! Everything in this module sits **outside** the determinism
//! boundary (see the crate docs): it owns the listener socket, blocks
//! on the network, and surfaces `std::io` errors. The protocol work —
//! decoding a [`Request`], producing a [`Response`] — is delegated to
//! the pure [`Service`] core, and the decode/encode halves are exposed
//! as plain functions ([`handle_line`], [`render_response`]) so tests
//! and the load harness can exercise the exact wire path with no
//! socket at all.
//!
//! Wire format: one JSON-encoded [`Request`] per line in, one
//! JSON-encoded [`Response`] per line out. Malformed input never kills
//! the connection; it yields a [`ServeError::InvalidRequest`] response
//! on its line and the stream continues. That covers lines that are not
//! UTF-8 and lines longer than [`MAX_LINE_BYTES`], which are discarded
//! up to their newline without being buffered.

use crate::service::Service;
use crate::wire::{Request, Response, ServeError};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};

/// Longest request line the front reads, newline excluded (1 MiB).
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// A blocking TCP front over a [`Service`].
#[derive(Debug)]
pub struct Front {
    listener: TcpListener,
}

impl Front {
    /// Binds the listener. Use port 0 to let the OS pick a free port.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind<A: ToSocketAddrs>(addr: A) -> std::io::Result<Front> {
        Ok(Front {
            listener: TcpListener::bind(addr)?,
        })
    }

    /// The address the listener actually bound.
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts one connection and serves it to EOF, returning the
    /// number of requests handled on it.
    ///
    /// # Errors
    ///
    /// Propagates accept/read/write failures.
    pub fn serve_one(&self, service: &mut Service) -> std::io::Result<u64> {
        let (stream, _) = self.listener.accept()?;
        serve_connection(stream, service)
    }
}

/// Serves a single already-accepted connection to EOF.
///
/// # Errors
///
/// Propagates read/write failures.
pub fn serve_connection(stream: TcpStream, service: &mut Service) -> std::io::Result<u64> {
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    let mut handled = 0u64;
    loop {
        line.clear();
        // One byte past the cap tells an oversized line from one that
        // fills it exactly.
        let cap = MAX_LINE_BYTES as u64 + 1;
        if (&mut reader).take(cap).read_until(b'\n', &mut line)? == 0 {
            break;
        }
        let mut reply = if line.last() != Some(&b'\n') && line.len() > MAX_LINE_BYTES {
            discard_line(&mut reader)?;
            invalid_request(format!("request line longer than {MAX_LINE_BYTES} bytes"))
        } else {
            match std::str::from_utf8(&line) {
                Ok(text) if text.trim().is_empty() => continue,
                Ok(text) => handle_line(text.trim_end_matches(['\n', '\r']), service),
                Err(e) => invalid_request(format!("request line is not UTF-8: {e}")),
            }
        };
        // One write per reply: a separate write for the newline would sit
        // behind Nagle's algorithm until the client's delayed ACK of the
        // reply (tens of milliseconds per request).
        reply.push('\n');
        writer.write_all(reply.as_bytes())?;
        handled += 1;
    }
    writer.flush()?;
    Ok(handled)
}

/// Skips the rest of the current line, through its newline or to EOF,
/// without buffering it.
fn discard_line(reader: &mut impl BufRead) -> std::io::Result<()> {
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Ok(());
        }
        if let Some(end) = buf.iter().position(|&b| b == b'\n') {
            reader.consume(end + 1);
            return Ok(());
        }
        let len = buf.len();
        reader.consume(len);
    }
}

/// The encoded [`ServeError::InvalidRequest`] reply for a line the
/// front refuses before decoding.
fn invalid_request(reason: String) -> String {
    render_response(&Response::Error {
        error: ServeError::InvalidRequest { reason },
    })
}

/// Decodes one request line, runs it through the service, and encodes
/// the response. Malformed JSON becomes an [`ServeError::InvalidRequest`]
/// response rather than an error.
pub fn handle_line(line: &str, service: &mut Service) -> String {
    match serde_json::from_str::<Request>(line) {
        Ok(request) => render_response(&service.handle(&request)),
        Err(e) => invalid_request(format!("malformed request: {e}")),
    }
}

/// Encodes a response as a single JSON line (no trailing newline).
pub fn render_response(response: &Response) -> String {
    match serde_json::to_string(response) {
        Ok(s) => s,
        // Wire types are plain data; encoding cannot fail in practice.
        // Keep the front panic-free anyway.
        Err(_) => {
            r#"{"Error":{"error":{"InvalidRequest":{"reason":"encode failure"}}}}"#.to_string()
        }
    }
}
