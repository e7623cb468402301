//! Minimal HTTP/1.1 on std [`TcpStream`]: bounded request parsing and a
//! canonical response writer.
//!
//! The server speaks exactly the subset it needs — one request per
//! connection, `Connection: close`, explicit `Content-Length` bodies —
//! which keeps the parser small enough to reason about byte-by-byte.
//! Every input dimension is bounded *before* allocation: the request head
//! (request line + headers) is read into a fixed budget, the header count
//! is capped, and bodies are admitted only up to the configured limit, so
//! a hostile peer cannot make the server buffer unbounded data. Time is
//! bounded too: besides the per-read timeout, an overall per-request
//! wall-clock deadline caps how long a slow-loris client can occupy a
//! connection worker. Parse and I/O failures map onto precise status
//! codes through [`HttpError`].

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::wire::WireError;

/// Size and time bounds applied to every connection.
#[derive(Debug, Clone, Copy)]
pub struct HttpLimits {
    /// Maximum bytes for the request head (request line + all headers).
    pub max_head_bytes: usize,
    /// Maximum bytes for the request line alone.
    pub max_request_line: usize,
    /// Maximum number of header lines.
    pub max_headers: usize,
    /// Maximum request body bytes.
    pub max_body_bytes: usize,
    /// Per-`read(2)` timeout. This alone is not a liveness bound — it
    /// resets on every byte received — which is why
    /// [`request_deadline`](HttpLimits::request_deadline) also exists.
    pub read_timeout: Duration,
    /// Per-connection write timeout.
    pub write_timeout: Duration,
    /// Wall-clock budget for reading one complete request (head + body).
    /// A slow-loris client dripping one byte per `read_timeout` would
    /// otherwise hold a connection worker for hours; the deadline caps a
    /// request read at roughly `request_deadline + read_timeout`.
    pub request_deadline: Duration,
}

impl Default for HttpLimits {
    fn default() -> HttpLimits {
        HttpLimits {
            max_head_bytes: 16 * 1024,
            max_request_line: 8 * 1024,
            max_headers: 64,
            max_body_bytes: 1024 * 1024,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            request_deadline: Duration::from_secs(15),
        }
    }
}

/// A parsed request: method, path, optional query string, and body.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method token as sent (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// Request target with any query string removed, e.g. `/v1/jobs/7`.
    pub path: String,
    /// The raw query string after `?`, without the `?` itself (empty when
    /// the target has none), e.g. `format=chrome`.
    pub query: String,
    /// Decoded request body (empty without `Content-Length`).
    pub body: String,
}

impl Request {
    /// The value of query parameter `name`, if present. Parameters split
    /// on `&` and `=`; no percent-decoding (the API's parameter values
    /// are plain tokens like `chrome`). A bare `name` (no `=`) reads as
    /// an empty value.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == name).then_some(v)
        })
    }
}

/// A request-handling failure, carrying the status line it maps to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Malformed request line, header, or body (400).
    BadRequest(String),
    /// Unknown route (404).
    NotFound,
    /// Known route, wrong method (405).
    MethodNotAllowed,
    /// Read timed out — per-read or overall request deadline — before a
    /// full request arrived (408).
    Timeout,
    /// Body exceeds the configured limit (413).
    PayloadTooLarge,
    /// Request head exceeds the configured limit (431).
    HeadersTooLarge,
    /// The connection failed mid-request (no response possible).
    ConnectionLost(String),
}

impl HttpError {
    /// The `(status, reason)` pair this error renders as.
    pub fn status(&self) -> (u16, &'static str) {
        match self {
            HttpError::BadRequest(_) => (400, "Bad Request"),
            HttpError::NotFound => (404, "Not Found"),
            HttpError::MethodNotAllowed => (405, "Method Not Allowed"),
            HttpError::Timeout => (408, "Request Timeout"),
            HttpError::PayloadTooLarge => (413, "Payload Too Large"),
            HttpError::HeadersTooLarge => (431, "Request Header Fields Too Large"),
            HttpError::ConnectionLost(_) => (499, "Client Closed Request"),
        }
    }

    /// The structured JSON error body for this failure — the same
    /// [`WireError`] envelope every other endpoint speaks, so transport
    /// failures and validation failures decode identically.
    pub fn body(&self) -> String {
        let (code, msg): (&'static str, String) = match self {
            HttpError::BadRequest(m) => ("bad_request", m.clone()),
            HttpError::NotFound => ("not_found", "no such resource".into()),
            HttpError::MethodNotAllowed => ("method_not_allowed", "method not allowed".into()),
            HttpError::Timeout => ("timeout", "request read timed out".into()),
            HttpError::PayloadTooLarge => ("payload_too_large", "request body too large".into()),
            HttpError::HeadersTooLarge => ("headers_too_large", "request head too large".into()),
            HttpError::ConnectionLost(m) => ("connection_lost", m.clone()),
        };
        WireError::manifest(code, msg).to_json()
    }
}

fn io_error(e: &std::io::Error) -> HttpError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => HttpError::Timeout,
        _ => HttpError::ConnectionLost(e.to_string()),
    }
}

/// Reads and parses one request from `stream` under `limits`.
///
/// # Errors
///
/// A mapped [`HttpError`] on malformed, oversized, or timed-out input.
pub fn read_request(stream: &mut TcpStream, limits: &HttpLimits) -> Result<Request, HttpError> {
    let start = Instant::now();
    stream
        .set_read_timeout(Some(limits.read_timeout))
        .map_err(|e| io_error(&e))?;
    stream
        .set_write_timeout(Some(limits.write_timeout))
        .map_err(|e| io_error(&e))?;

    // Read the head one unbuffered byte at a time, stopping at CRLFCRLF.
    // Single-byte reads cannot over-run into the body (there is no
    // user-space buffer to hand back), and the head is small and bounded,
    // so the per-byte syscall cost is acceptable here. The wall-clock
    // deadline is checked every iteration: the per-read timeout resets on
    // each byte, so it alone cannot stop a slow-loris drip-feed.
    let mut head = Vec::with_capacity(512);
    let mut byte = [0u8; 1];
    loop {
        if start.elapsed() >= limits.request_deadline {
            return Err(HttpError::Timeout);
        }
        match stream.read(&mut byte) {
            Ok(0) => {
                return Err(HttpError::ConnectionLost(
                    "connection closed before request head completed".into(),
                ))
            }
            Ok(_) => head.push(byte[0]),
            Err(e) => return Err(io_error(&e)),
        }
        if head.len() > limits.max_head_bytes {
            return Err(HttpError::HeadersTooLarge);
        }
        if head.ends_with(b"\r\n\r\n") {
            break;
        }
        // Tolerate bare-LF clients for the head terminator.
        if head.ends_with(b"\n\n") {
            break;
        }
    }

    let head = String::from_utf8(head)
        .map_err(|_| HttpError::BadRequest("request head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n").flat_map(|l| l.split('\n'));
    let request_line = lines.next().unwrap_or("");
    if request_line.len() > limits.max_request_line {
        return Err(HttpError::HeadersTooLarge);
    }
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && p.starts_with('/') => (m, p, v),
        _ => {
            return Err(HttpError::BadRequest(format!(
                "malformed request line {request_line:?}"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!(
            "unsupported protocol {version:?}"
        )));
    }

    let mut content_length: Option<usize> = None;
    let mut header_count = 0usize;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        header_count += 1;
        if header_count > limits.max_headers {
            return Err(HttpError::HeadersTooLarge);
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadRequest(format!("malformed header {line:?}")));
        };
        let name = name.trim();
        if name.eq_ignore_ascii_case("content-length") {
            // A present-but-unparseable length is a malformed header
            // (RFC 9110 → 400; 411 would mean the header is absent). The
            // grammar is 1*DIGIT: `parse` alone would also take "+5".
            let n = Some(value.trim())
                .filter(|v| v.bytes().all(|b| b.is_ascii_digit()))
                .and_then(|v| v.parse::<usize>().ok())
                .ok_or_else(|| {
                    HttpError::BadRequest(format!("unparseable Content-Length {:?}", value.trim()))
                })?;
            // Differing lengths leave the body's end ambiguous (RFC 9112
            // §6.3): refuse before reading any of it.
            if content_length.is_some_and(|prev| prev != n) {
                return Err(HttpError::BadRequest("conflicting Content-Length".into()));
            }
            content_length = Some(n);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            // Bodies are framed by Content-Length only; reading a chunked
            // body as empty would misreport it as bad JSON.
            return Err(HttpError::BadRequest("Transfer-Encoding refused".into()));
        }
    }

    let body = match content_length {
        None | Some(0) => String::new(),
        Some(n) if n > limits.max_body_bytes => return Err(HttpError::PayloadTooLarge),
        Some(n) => {
            // Chunked reads with a deadline check between them: like the
            // head loop, a single `read_exact` would let a dripping
            // client reset the per-read timeout indefinitely.
            let mut buf = vec![0u8; n];
            let mut filled = 0usize;
            while filled < n {
                if start.elapsed() >= limits.request_deadline {
                    return Err(HttpError::Timeout);
                }
                match stream.read(&mut buf[filled..]) {
                    Ok(0) => {
                        return Err(HttpError::ConnectionLost(
                            "connection closed before request body completed".into(),
                        ))
                    }
                    Ok(m) => filled += m,
                    Err(e) => return Err(io_error(&e)),
                }
            }
            String::from_utf8(buf)
                .map_err(|_| HttpError::BadRequest("request body is not UTF-8".into()))?
        }
    };

    let (path, query) = match path.split_once('?') {
        Some((p, q)) => (p, q),
        None => (path, ""),
    };
    Ok(Request {
        method: method.to_owned(),
        path: path.to_owned(),
        query: query.to_owned(),
        body,
    })
}

/// Serializes a response with `Connection: close` framing.
pub fn response_bytes(status: u16, reason: &str, content_type: &str, body: &str) -> Vec<u8> {
    format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Writes a JSON response (best-effort: the peer may already be gone).
pub fn write_json(stream: &mut TcpStream, status: u16, reason: &str, body: &str) {
    let bytes = response_bytes(status, reason, "application/json", body);
    let _ = stream.write_all(&bytes);
    let _ = stream.flush();
}

/// Writes a plain-text response (used by `/metrics`).
pub fn write_text(stream: &mut TcpStream, status: u16, reason: &str, body: &str) {
    let bytes = response_bytes(status, reason, "text/plain; charset=utf-8", body);
    let _ = stream.write_all(&bytes);
    let _ = stream.flush();
}

/// Writes the mapped error response for `err` (skipped when the
/// connection is already lost).
pub fn write_error(stream: &mut TcpStream, err: &HttpError) {
    if matches!(err, HttpError::ConnectionLost(_)) {
        return;
    }
    let (status, reason) = err.status();
    write_json(stream, status, reason, &err.body());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::SCHEMA_VERSION;

    #[test]
    fn error_status_mapping() {
        assert_eq!(HttpError::BadRequest(String::new()).status().0, 400);
        assert_eq!(HttpError::NotFound.status().0, 404);
        assert_eq!(HttpError::MethodNotAllowed.status().0, 405);
        assert_eq!(HttpError::Timeout.status().0, 408);
        assert_eq!(HttpError::PayloadTooLarge.status().0, 413);
        assert_eq!(HttpError::HeadersTooLarge.status().0, 431);
    }

    #[test]
    fn error_bodies_are_structured() {
        let b = HttpError::PayloadTooLarge.body();
        assert!(b.contains(&format!("\"schema_version\":{SCHEMA_VERSION}")));
        assert!(b.contains("\"code\":\"payload_too_large\""));
        let b = HttpError::BadRequest("quote \" here".into()).body();
        assert!(b.contains("quote \\\" here"));
    }

    #[test]
    fn query_params_split_without_decoding() {
        let r = Request {
            method: "GET".into(),
            path: "/v1/jobs/7/trace".into(),
            query: "format=chrome&bare".into(),
            body: String::new(),
        };
        assert_eq!(r.query_param("format"), Some("chrome"));
        assert_eq!(r.query_param("bare"), Some(""));
        assert_eq!(r.query_param("missing"), None);
    }

    #[test]
    fn response_framing_counts_bytes() {
        let bytes = response_bytes(200, "OK", "application/json", "{\"a\":1}");
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 7\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"a\":1}"));
    }
}
