//! `WireClient`: the blocking HTTP client side of the schema_version-1
//! wire protocol.
//!
//! One client type serves every consumer that used to hand-roll request
//! strings — the coordinator's worker connections, the CLI's `fts client`
//! subcommand, and the integration tests. It speaks exactly the dialect
//! the server does (one request per connection, explicit
//! `Content-Length`, `Connection: close` read-to-EOF responses) under the
//! same bounded-resource discipline as the server side
//! ([`ClientLimits`]): connect/read/write timeouts, an overall
//! per-request deadline, and a cap on buffered response bytes.
//!
//! Failures are structured: transport problems surface as
//! [`ClientError::Io`], framing violations as [`ClientError::Protocol`],
//! and non-2xx statuses decode the server's `WireError{code,message}`
//! envelope into [`ApiError`] — so a caller can tell "the worker is dead"
//! from "the worker said 429" without string matching.

use std::fmt;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use crate::wire::Json;

/// Size and time bounds applied to every client request — the client-side
/// mirror of [`HttpLimits`](crate::http::HttpLimits).
#[derive(Debug, Clone, Copy)]
pub struct ClientLimits {
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Per-`read(2)` timeout while draining the response.
    pub read_timeout: Duration,
    /// Per-connection write timeout.
    pub write_timeout: Duration,
    /// Wall-clock budget for one complete request/response exchange. Like
    /// the server's `request_deadline`, this is the liveness bound: the
    /// per-read timeout alone resets on every byte received.
    pub request_deadline: Duration,
    /// Maximum buffered response bytes. Served waveform rows can run to
    /// megabytes, so the default is generous — but still a hard cap, so a
    /// misbehaving peer cannot balloon client memory.
    pub max_response_bytes: usize,
}

impl Default for ClientLimits {
    fn default() -> ClientLimits {
        ClientLimits {
            connect_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            request_deadline: Duration::from_secs(30),
            max_response_bytes: 64 * 1024 * 1024,
        }
    }
}

/// A response as seen by the client: status code and body text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Response body (headers stripped).
    pub body: String,
}

/// A decoded server error envelope (`{"error":{"code","message",...}}`)
/// plus the HTTP status it rode in on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status code (4xx/5xx).
    pub status: u16,
    /// The server's stable machine-readable error code (`overloaded`,
    /// `bad_json`, `trace_disabled`, …), or `"unknown"` when the body did
    /// not carry the envelope.
    pub code: String,
    /// Human-readable detail.
    pub message: String,
    /// Index of the offending job within the submitted manifest, when the
    /// server attributed the error to one job.
    pub job: Option<u64>,
    /// 1-based deck line, for errors pointing into a SPICE deck.
    pub line: Option<u64>,
    /// 1-based deck column, for errors pointing into a SPICE deck.
    pub col: Option<u64>,
}

/// Why a client request failed.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed: connect refused, reset, timed out. The
    /// coordinator treats this class as "worker may be down".
    Io(std::io::Error),
    /// The peer answered, but not in the protocol's framing (bad status
    /// line, response over the size cap, deadline expired mid-response).
    Protocol(String),
    /// The server answered with a structured error status.
    Api(ApiError),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
            ClientError::Api(e) => {
                write!(f, "server {}: {} ({})", e.status, e.message, e.code)?;
                if let Some(k) = e.job {
                    write!(f, " [job {k}]")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// Decodes a non-2xx response body into an [`ApiError`]. Bodies that do
/// not carry the envelope (or are not JSON at all) still produce a usable
/// error with code `"unknown"` and the raw body as message.
pub fn decode_api_error(status: u16, body: &str) -> ApiError {
    let fallback = |body: &str| ApiError {
        status,
        code: "unknown".to_owned(),
        message: body.trim().to_owned(),
        job: None,
        line: None,
        col: None,
    };
    let Ok(doc) = Json::parse(body) else {
        return fallback(body);
    };
    let Some(err) = doc.get("error") else {
        return fallback(body);
    };
    let field = |k: &str| err.get(k).and_then(Json::as_f64).map(|x| x as u64);
    ApiError {
        status,
        code: err
            .get("code")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_owned(),
        message: err
            .get("message")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_owned(),
        job: field("job"),
        line: field("line"),
        col: field("col"),
    }
}

/// A blocking client bound to one server address.
///
/// Every method opens a fresh connection (the protocol is one request per
/// connection), so a `WireClient` is freely shareable across threads —
/// the coordinator keeps one per worker and calls it from the submit
/// path, the health prober, and the drain loop concurrently.
#[derive(Debug, Clone)]
pub struct WireClient {
    addr: String,
    limits: ClientLimits,
}

impl WireClient {
    /// A client for `addr` (`"127.0.0.1:8707"` or anything resolvable)
    /// with default [`ClientLimits`].
    pub fn new(addr: impl Into<String>) -> WireClient {
        WireClient {
            addr: addr.into(),
            limits: ClientLimits::default(),
        }
    }

    /// Replaces the client's limits (builder style).
    pub fn limits(mut self, limits: ClientLimits) -> WireClient {
        self.limits = limits;
        self
    }

    /// The address this client targets.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Performs one raw request and returns whatever status the server
    /// answered — no error-envelope decoding. This is the transport
    /// primitive under every typed method; tests that assert on 4xx
    /// statuses use it directly.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] on transport failure, [`ClientError::Protocol`]
    /// on framing violations (never [`ClientError::Api`]).
    pub fn call(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<ClientResponse, ClientError> {
        let start = Instant::now();
        let addr: SocketAddr = self
            .addr
            .to_socket_addrs()
            .map_err(ClientError::Io)?
            .next()
            .ok_or_else(|| ClientError::Protocol(format!("{:?} resolves to nothing", self.addr)))?;
        let mut stream = TcpStream::connect_timeout(&addr, self.limits.connect_timeout)?;
        stream.set_read_timeout(Some(self.limits.read_timeout))?;
        stream.set_write_timeout(Some(self.limits.write_timeout))?;

        let body = body.unwrap_or("");
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: fts\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(request.as_bytes())?;
        stream.flush()?;

        // Drain to EOF in bounded chunks, checking the wall-clock deadline
        // between reads — the per-read timeout alone resets on every byte,
        // so a dripping peer needs the same slow-loris defense the server
        // applies to us.
        let mut raw = Vec::with_capacity(1024);
        let mut chunk = [0u8; 8 * 1024];
        loop {
            if start.elapsed() >= self.limits.request_deadline {
                return Err(ClientError::Protocol(format!(
                    "response exceeded the {:?} request deadline",
                    self.limits.request_deadline
                )));
            }
            match stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => {
                    raw.extend_from_slice(&chunk[..n]);
                    if raw.len() > self.limits.max_response_bytes {
                        return Err(ClientError::Protocol(format!(
                            "response exceeds {} bytes",
                            self.limits.max_response_bytes
                        )));
                    }
                }
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
        let raw = String::from_utf8(raw)
            .map_err(|_| ClientError::Protocol("response is not UTF-8".into()))?;
        parse_response(&raw)
            .ok_or_else(|| ClientError::Protocol(format!("malformed response {raw:?}")))
    }

    /// [`call`](WireClient::call), with non-2xx statuses decoded into
    /// [`ClientError::Api`].
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn request(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<ClientResponse, ClientError> {
        let resp = self.call(method, path, body)?;
        if resp.status >= 400 {
            return Err(ClientError::Api(decode_api_error(resp.status, &resp.body)));
        }
        Ok(resp)
    }

    /// `POST /v1/jobs` with a rendered manifest document; returns the
    /// admitted job ids in manifest order.
    ///
    /// # Errors
    ///
    /// [`ClientError::Api`] carries the server's structured `400`
    /// (validation), `429` (overloaded), or `503` (draining) envelope.
    pub fn submit_manifest(&self, manifest_json: &str) -> Result<Vec<u64>, ClientError> {
        let resp = self.request("POST", "/v1/jobs", Some(manifest_json))?;
        extract_ids(&resp.body)
    }

    /// [`submit_manifest`](WireClient::submit_manifest) for a typed
    /// manifest, rendered through
    /// [`BatchManifest::to_json`](crate::wire::BatchManifest::to_json).
    ///
    /// # Errors
    ///
    /// Same as [`submit_manifest`](WireClient::submit_manifest).
    pub fn submit(&self, manifest: &crate::wire::BatchManifest) -> Result<Vec<u64>, ClientError> {
        self.submit_manifest(&manifest.to_json())
    }

    /// `POST /v1/decks` with a raw SPICE deck; returns one job id per
    /// analysis card.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`]; deck errors carry line/column in the envelope.
    pub fn submit_deck(&self, deck: &str) -> Result<Vec<u64>, ClientError> {
        let resp = self.request("POST", "/v1/decks", Some(deck))?;
        extract_ids(&resp.body)
    }

    /// `GET /v1/jobs/{id}`: the job's status document.
    ///
    /// # Errors
    ///
    /// [`ClientError::Api`] with status 404 for unknown/evicted ids.
    pub fn status(&self, id: u64) -> Result<String, ClientError> {
        Ok(self.request("GET", &format!("/v1/jobs/{id}"), None)?.body)
    }

    /// Polls [`status`](WireClient::status) every `poll` until the job
    /// reports `"status":"done"`, returning the final document.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`] from the underlying polls.
    pub fn wait_done(&self, id: u64, poll: Duration) -> Result<String, ClientError> {
        loop {
            let body = self.status(id)?;
            if body.contains("\"status\":\"done\"") {
                return Ok(body);
            }
            std::thread::sleep(poll);
        }
    }

    /// `GET /v1/jobs?state=&cursor=&limit=`: the bounded job listing.
    /// `None` arguments are omitted (server defaults apply).
    ///
    /// # Errors
    ///
    /// [`ClientError::Api`] with a structured 400 on bad filter values.
    pub fn list(
        &self,
        state: Option<&str>,
        cursor: Option<u64>,
        limit: Option<usize>,
    ) -> Result<String, ClientError> {
        let mut query = Vec::new();
        if let Some(s) = state {
            query.push(format!("state={s}"));
        }
        if let Some(c) = cursor {
            query.push(format!("cursor={c}"));
        }
        if let Some(n) = limit {
            query.push(format!("limit={n}"));
        }
        let path = if query.is_empty() {
            "/v1/jobs".to_owned()
        } else {
            format!("/v1/jobs?{}", query.join("&"))
        };
        Ok(self.request("GET", &path, None)?.body)
    }

    /// `DELETE /v1/jobs/{id}`: requests cooperative cancellation.
    ///
    /// # Errors
    ///
    /// [`ClientError::Api`] with status 404 for unknown/evicted ids.
    pub fn cancel(&self, id: u64) -> Result<String, ClientError> {
        Ok(self
            .request("DELETE", &format!("/v1/jobs/{id}"), None)?
            .body)
    }

    /// `GET /v1/jobs/{id}/trace`: the flight-recorder journal (`chrome`
    /// selects the Chrome trace-event rendering).
    ///
    /// # Errors
    ///
    /// [`ClientError::Api`] 404 with code `trace_disabled` when the server
    /// runs with tracing off, plain 404 for unknown ids.
    pub fn trace(&self, id: u64, chrome: bool) -> Result<String, ClientError> {
        let path = if chrome {
            format!("/v1/jobs/{id}/trace?format=chrome")
        } else {
            format!("/v1/jobs/{id}/trace")
        };
        Ok(self.request("GET", &path, None)?.body)
    }

    /// `GET /healthz`: the liveness document.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn healthz(&self) -> Result<String, ClientError> {
        Ok(self.request("GET", "/healthz", None)?.body)
    }

    /// `GET /metrics`: the Prometheus-style text exposition.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn metrics(&self) -> Result<String, ClientError> {
        Ok(self.request("GET", "/metrics", None)?.body)
    }

    /// `GET /v1/cache`: result-cache statistics (`entries`, `bytes`,
    /// `hits`, `misses`, `evictions`, `hit_ratio`). On a coordinator the
    /// top-level numbers aggregate the whole fleet.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn cache_stats(&self) -> Result<String, ClientError> {
        Ok(self.request("GET", "/v1/cache", None)?.body)
    }

    /// `DELETE /v1/cache`: drop every cached result (cumulative counters
    /// survive). On a coordinator the flush fans out to every worker.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn cache_flush(&self) -> Result<String, ClientError> {
        Ok(self.request("DELETE", "/v1/cache", None)?.body)
    }

    /// `POST /v1/shutdown`: requests a graceful drain. On a coordinator
    /// this cascades to the worker fleet once every in-flight job is done.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn shutdown(&self) -> Result<String, ClientError> {
        Ok(self.request("POST", "/v1/shutdown", None)?.body)
    }
}

/// Splits a raw `Connection: close` response into status and body.
pub fn parse_response(raw: &str) -> Option<ClientResponse> {
    let status: u16 = raw.split(' ').nth(1)?.parse().ok()?;
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    Some(ClientResponse { status, body })
}

/// Reads the `"ids"` array out of an admission response body.
fn extract_ids(body: &str) -> Result<Vec<u64>, ClientError> {
    let doc = Json::parse(body)
        .map_err(|e| ClientError::Protocol(format!("admission body is not JSON: {e}")))?;
    let ids = doc
        .get("ids")
        .and_then(Json::as_array)
        .ok_or_else(|| ClientError::Protocol(format!("admission body lacks ids: {body}")))?;
    ids.iter()
        .map(|v| {
            v.as_f64()
                .map(|x| x as u64)
                .ok_or_else(|| ClientError::Protocol(format!("non-numeric id in {body}")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_and_body() {
        let r = parse_response("HTTP/1.1 429 Too Many Requests\r\nA: b\r\n\r\n{\"x\":1}").unwrap();
        assert_eq!(r.status, 429);
        assert_eq!(r.body, "{\"x\":1}");
        assert!(parse_response("garbage").is_none());
    }

    #[test]
    fn decodes_the_error_envelope() {
        let e = decode_api_error(
            400,
            r#"{"schema_version":1,"error":{"code":"bad_json","message":"nope","job":2,"line":3,"col":7}}"#,
        );
        assert_eq!(e.status, 400);
        assert_eq!(e.code, "bad_json");
        assert_eq!(e.message, "nope");
        assert_eq!((e.job, e.line, e.col), (Some(2), Some(3), Some(7)));

        // Non-envelope bodies degrade to code "unknown", not a panic.
        let e = decode_api_error(502, "Bad Gateway");
        assert_eq!(e.code, "unknown");
        assert_eq!(e.message, "Bad Gateway");
        let e = decode_api_error(500, "{\"oops\":true}");
        assert_eq!(e.code, "unknown");
    }

    #[test]
    fn extract_ids_requires_the_ids_array() {
        assert_eq!(
            extract_ids("{\"schema_version\":1,\"ids\":[0,5]}").unwrap(),
            vec![0, 5]
        );
        assert!(extract_ids("{\"schema_version\":1}").is_err());
        assert!(extract_ids("not json").is_err());
    }

    #[test]
    fn connect_to_a_dead_port_is_an_io_error() {
        // Bind-then-drop guarantees an unused port.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let client = WireClient::new(addr.to_string()).limits(ClientLimits {
            connect_timeout: Duration::from_millis(500),
            ..ClientLimits::default()
        });
        match client.healthz() {
            Err(ClientError::Io(_)) => {}
            other => panic!("expected Io error, got {other:?}"),
        }
    }
}
