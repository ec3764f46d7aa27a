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
//! on its line and the stream continues.

use crate::service::Service;
use crate::wire::{Request, Response, ServeError};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};

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
    let reader = BufReader::new(stream);
    let mut handled = 0u64;
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        // One write per reply: a separate write for the newline would sit
        // behind Nagle's algorithm until the client's delayed ACK of the
        // reply (tens of milliseconds per request).
        let mut reply = handle_line(&line, service);
        reply.push('\n');
        writer.write_all(reply.as_bytes())?;
        handled += 1;
    }
    writer.flush()?;
    Ok(handled)
}

/// Decodes one request line, runs it through the service, and encodes
/// the response. Malformed JSON becomes an [`ServeError::InvalidRequest`]
/// response rather than an error.
pub fn handle_line(line: &str, service: &mut Service) -> String {
    let response = match serde_json::from_str::<Request>(line) {
        Ok(request) => service.handle(&request),
        Err(e) => Response::Error {
            error: ServeError::InvalidRequest {
                reason: format!("malformed request: {e}"),
            },
        },
    };
    render_response(&response)
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
