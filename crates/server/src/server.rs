//! The HTTP server: accept loop, connection workers, routing, shutdown —
//! one run loop and one router for both serving roles. What runs behind
//! them is the [`JobService`]'s backend: local simulation threads
//! ([`Server::bind`]) or a worker fleet
//! ([`Coordinator::bind`](crate::Coordinator::bind)).
//!
//! Two bounded queues give the service its backpressure story:
//!
//! 1. **Connections** — the nonblocking accept loop pushes accepted
//!    sockets onto a bounded queue drained by a small pool of connection
//!    workers. When the queue is full, the new connection is answered
//!    with a canned `429` immediately — the server never holds more
//!    client state than it has budget for.
//! 2. **Jobs** — admitted manifests land in the [`JobService`]'s bounded
//!    work queue; a manifest that does not fit entirely is rejected with
//!    `429` (all-or-nothing, see [`SubmitError::Overloaded`]).
//!
//! Shutdown (SIGINT, a [`ServerHandle`], or `POST /v1/shutdown`) runs the
//! same drain everywhere: stop accepting, serve the connections already
//! queued, let every admitted job finish, then flush a final telemetry
//! report. No in-flight work is dropped.

use std::collections::VecDeque;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::http::{self, HttpError, HttpLimits, Request};
use crate::service::{
    JobBuilder, JobService, SubmitError, TraceLookup, LIST_LIMIT_DEFAULT, LIST_LIMIT_MAX,
};
use crate::signal;
use crate::wire::{BatchManifest, WireError, SCHEMA_VERSION};

/// Server tunables; every field has a production-safe default.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:8707` (`:0` picks a free port).
    pub addr: String,
    /// Simulation worker threads (0 = one per available core).
    pub workers: usize,
    /// Job queue capacity (admission bound for `POST /v1/jobs`).
    pub queue_depth: usize,
    /// Entry bound for the content-addressed result cache *and* for
    /// finished job rows retained for `GET /v1/jobs/{id}`; beyond it the
    /// oldest-completed entries are evicted (their ids read as `404`) and
    /// the cache ages out by LRU, bounding memory on a long-running
    /// server.
    pub cache_entries: usize,
    /// Byte budget for cached result payloads (the cache's second bound).
    pub cache_bytes: usize,
    /// Connection worker threads.
    pub conn_workers: usize,
    /// Accepted-connection queue capacity (overflow → canned `429`).
    pub conn_backlog: usize,
    /// Per-job flight-recorder ring capacity in events; `0` disables
    /// tracing entirely (`GET /v1/jobs/{id}/trace` answers `404` with
    /// code `trace_disabled`). See [`fts_telemetry::trace`].
    pub trace_events: usize,
    /// HTTP size/time limits.
    pub limits: HttpLimits,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:8707".to_owned(),
            workers: 0,
            queue_depth: 256,
            cache_entries: crate::service::DEFAULT_CACHE_ENTRIES,
            cache_bytes: fts_engine::DEFAULT_CACHE_BYTES,
            conn_workers: 4,
            conn_backlog: 128,
            trace_events: fts_telemetry::trace::DEFAULT_EVENT_CAP,
            limits: HttpLimits::default(),
        }
    }
}

/// A clonable remote control for a running [`Server`].
#[derive(Debug, Clone)]
pub struct ServerHandle {
    stop: Arc<AtomicBool>,
}

impl ServerHandle {
    /// Requests graceful shutdown (stop accepting, drain, report).
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }
}

/// What the server drained down to when it exited.
#[derive(Debug, Clone)]
pub struct ShutdownReport {
    /// Jobs completed over the server's lifetime (every admitted job —
    /// the drain waits for all of them, so this equals admissions).
    pub jobs_completed: u64,
    /// Submissions rejected with `429` (or, on a coordinator, `503`).
    pub submissions_rejected: u64,
    /// Connections answered with the canned backlog `429`.
    pub connections_rejected: u64,
    /// Server uptime \[s\].
    pub uptime_s: f64,
    /// Final telemetry snapshot, human-rendered
    /// ([`TelemetryReport::render_tree`](fts_telemetry::TelemetryReport::render_tree)).
    pub telemetry: String,
}

/// The bound-but-not-yet-running HTTP service, in either role.
pub struct Server {
    listener: TcpListener,
    service: JobService,
    /// Simulation threads to run (0 on a coordinator).
    sim_workers: usize,
    conn_workers: usize,
    conn_backlog: usize,
    limits: HttpLimits,
    stop: Arc<AtomicBool>,
}

impl Server {
    /// Binds the listener and prepares a local job service. Telemetry is
    /// enabled here — `/metrics` and the shutdown report depend on it.
    ///
    /// # Errors
    ///
    /// Socket errors from binding `config.addr`.
    pub fn bind(config: ServerConfig, builder: Arc<dyn JobBuilder>) -> std::io::Result<Server> {
        let service = JobService::new(builder, config.queue_depth, config.cache_entries)
            .cache_bytes(config.cache_bytes)
            .trace_capacity(config.trace_events);
        let sim_workers = if config.workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            config.workers
        };
        Server::new(
            &config.addr,
            service,
            sim_workers,
            config.conn_workers,
            config.conn_backlog,
            config.limits,
        )
    }

    /// Binds `addr` with `SO_REUSEADDR` (see [`crate::net`], so a
    /// restarted worker reclaims its port at once) in front of `service`.
    pub(crate) fn new(
        addr: &str,
        service: JobService,
        sim_workers: usize,
        conn_workers: usize,
        conn_backlog: usize,
        limits: HttpLimits,
    ) -> std::io::Result<Server> {
        fts_telemetry::set_enabled(true);
        let sockaddr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("{addr:?} resolves to no address"),
            )
        })?;
        Ok(Server {
            listener: crate::net::bind_reusable(sockaddr)?,
            service,
            sim_workers,
            conn_workers,
            conn_backlog,
            limits,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (useful after binding port 0).
    ///
    /// # Errors
    ///
    /// Socket errors querying the listener.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can request shutdown from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            stop: Arc::clone(&self.stop),
        }
    }

    /// Runs the server until shutdown is requested, then drains and
    /// returns the final [`ShutdownReport`]. A coordinator's drain polls
    /// every routed job to completion and then (when configured)
    /// cascades the shutdown to its fleet.
    ///
    /// # Errors
    ///
    /// Socket errors configuring the listener; accept-time errors on
    /// individual connections are absorbed.
    pub fn run(self) -> std::io::Result<ShutdownReport> {
        let start = Instant::now();
        signal::install_sigint();
        self.listener.set_nonblocking(true)?;

        let rejected_conns = AtomicU64::new(0);
        let http_metrics = HttpMetrics::default();
        let conn_queue = (
            Mutex::new(ConnQueue {
                conns: VecDeque::new(),
                closed: false,
            }),
            Condvar::new(),
        );
        let service = &self.service;
        let report = std::thread::scope(|scope| {
            match service.fleet() {
                Some(fleet) => {
                    scope.spawn(|| fleet.probe_until(&self.stop));
                }
                None => {
                    for _ in 0..self.sim_workers {
                        scope.spawn(|| service.worker_loop());
                    }
                }
            }
            for _ in 0..self.conn_workers.max(1) {
                scope.spawn(|| {
                    connection_worker(
                        &conn_queue,
                        service,
                        &self.stop,
                        &self.limits,
                        &http_metrics,
                        start,
                    );
                });
            }

            self.accept_loop(&conn_queue, &rejected_conns);

            // Drain: serve already-accepted connections, then let every
            // admitted job finish, then let the threads observe the flags.
            // The scope join waits for connection workers (they exit once
            // the queue is closed and empty), simulation threads (exit
            // after drain) and the prober (exits on stop).
            {
                let (lock, cv) = &conn_queue;
                lock.lock().expect("conn queue poisoned").closed = true;
                cv.notify_all();
            }
            self.stop.store(true, Ordering::SeqCst);
            service.drain();

            let gauges = service.gauges();
            ShutdownReport {
                jobs_completed: gauges.completed,
                submissions_rejected: gauges.rejected,
                connections_rejected: rejected_conns.load(Ordering::Relaxed),
                uptime_s: start.elapsed().as_secs_f64(),
                telemetry: fts_telemetry::snapshot().render_tree(),
            }
        });
        Ok(report)
    }

    /// The nonblocking accept loop: poll the listener, push accepted
    /// sockets onto the bounded queue, answer backlog overflow with a
    /// canned `429`. Returns when the stop flag flips or SIGINT lands.
    fn accept_loop(&self, queue: &(Mutex<ConnQueue>, Condvar), rejected_conns: &AtomicU64) {
        loop {
            if self.stop.load(Ordering::SeqCst) || signal::sigint_received() {
                return;
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    fts_telemetry::counter("server.http.accepted", 1);
                    let (lock, cv) = queue;
                    let mut q = lock.lock().expect("conn queue poisoned");
                    if q.conns.len() >= self.conn_backlog {
                        drop(q);
                        rejected_conns.fetch_add(1, Ordering::Relaxed);
                        fts_telemetry::counter("server.http.backlog_rejected", 1);
                        reject_overloaded(stream, &self.limits);
                    } else {
                        q.conns.push_back(stream);
                        cv.notify_one();
                    }
                }
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }
}

struct ConnQueue {
    conns: VecDeque<TcpStream>,
    closed: bool,
}

/// One connection worker: pull sockets and serve them until the queue is
/// closed *and* empty — queued connections are served even during
/// shutdown, so a client that got its socket accepted always gets an
/// answer.
fn connection_worker(
    queue: &(Mutex<ConnQueue>, Condvar),
    service: &JobService,
    stop: &AtomicBool,
    limits: &HttpLimits,
    metrics: &HttpMetrics,
    started: Instant,
) {
    let (lock, cv) = queue;
    loop {
        let stream = {
            let mut q = lock.lock().expect("conn queue poisoned");
            loop {
                if let Some(s) = q.conns.pop_front() {
                    break s;
                }
                if q.closed {
                    return;
                }
                q = cv.wait(q).expect("conn queue poisoned");
            }
        };
        handle_connection(stream, service, stop, limits, metrics, started);
    }
}

/// Answers an over-backlog connection with a canned `429` and closes it.
fn reject_overloaded(mut stream: TcpStream, limits: &HttpLimits) {
    let _ = stream.set_write_timeout(Some(limits.write_timeout));
    let body = WireError::manifest("overloaded", "connection backlog full").to_json();
    let bytes = http::response_bytes(429, "Too Many Requests", "application/json", &body);
    let _ = stream.write_all(&bytes);
}

/// Reads one request, routes it, writes one response, books the
/// per-endpoint counters and the sliding latency window.
fn handle_connection(
    mut stream: TcpStream,
    service: &JobService,
    stop: &AtomicBool,
    limits: &HttpLimits,
    metrics: &HttpMetrics,
    started: Instant,
) {
    fts_telemetry::counter("server.http.requests", 1);
    let t0 = Instant::now();
    let request = match http::read_request(&mut stream, limits) {
        Ok(r) => r,
        Err(e) => {
            fts_telemetry::counter("server.http.errors", 1);
            http::write_error(&mut stream, &e);
            // No parsed request to attribute, so method/path are "-".
            metrics.record("-", "-", e.status().0, t0.elapsed().as_secs_f64());
            return;
        }
    };
    let method = method_label(&request.method);
    let path = route_template(&request.path);
    let status = match route(&request, service, stop, metrics, started) {
        Ok(Response::Json {
            status,
            reason,
            body,
        }) => {
            http::write_json(&mut stream, status, reason, &body);
            status
        }
        Ok(Response::Text { body }) => {
            http::write_text(&mut stream, 200, "OK", &body);
            200
        }
        Err(e) => {
            fts_telemetry::counter("server.http.errors", 1);
            http::write_error(&mut stream, &e);
            e.status().0
        }
    };
    let latency_s = t0.elapsed().as_secs_f64();
    metrics.record(method, path, status, latency_s);
    if fts_telemetry::enabled() {
        fts_telemetry::record("server.http.latency_s", latency_s);
    }
}

#[derive(Debug)]
enum Response {
    Json {
        status: u16,
        reason: &'static str,
        body: String,
    },
    Text {
        body: String,
    },
}

fn json_ok(body: String) -> Result<Response, HttpError> {
    Ok(Response::Json {
        status: 200,
        reason: "OK",
        body,
    })
}

/// Routes a parsed request to its endpoint.
fn route(
    request: &Request,
    service: &JobService,
    stop: &AtomicBool,
    metrics: &HttpMetrics,
    started: Instant,
) -> Result<Response, HttpError> {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => json_ok(healthz(service, started)),
        ("GET", "/metrics") => Ok(Response::Text {
            body: render_metrics(service, metrics),
        }),
        ("POST", "/v1/jobs") => Ok(match BatchManifest::parse(&request.body) {
            Ok(manifest) => admission_response(service.submit(&manifest)),
            Err(e) => wire_error_response(&e),
        }),
        ("GET", "/v1/jobs") => match list_params(request) {
            Ok((state, cursor, limit)) => json_ok(service.list_json(state, cursor, limit)),
            Err(e) => Ok(wire_error_response(&e)),
        },
        // The body is a raw SPICE deck (`text/plain`), lowered to one job
        // per analysis card through the same admission path as
        // `/v1/jobs`; malformed decks answer `400` with line/column.
        ("POST", "/v1/decks") => Ok(admission_response(service.submit_deck(&request.body))),
        ("GET", "/v1/cache") => json_ok(service.cache_stats_json()),
        ("DELETE", "/v1/cache") => json_ok(service.cache_flush()),
        ("POST", "/v1/shutdown") => {
            stop.store(true, Ordering::SeqCst);
            json_ok(format!(
                "{{\"schema_version\":{SCHEMA_VERSION},\"shutting_down\":true}}"
            ))
        }
        (method, path) if path.starts_with("/v1/jobs/") => {
            let rest = &path["/v1/jobs/".len()..];
            if let Some(id) = rest.strip_suffix("/trace") {
                if method != "GET" {
                    return Err(HttpError::MethodNotAllowed);
                }
                let id: u64 = id
                    .parse()
                    .map_err(|_| HttpError::BadRequest(format!("bad job id in {path:?}")))?;
                let chrome = request.query_param("format") == Some("chrome");
                return trace_response(service.trace_json(id, chrome));
            }
            let id: u64 = rest
                .parse()
                .map_err(|_| HttpError::BadRequest(format!("bad job id in {path:?}")))?;
            match method {
                "GET" => service.status_json(id).map_or(Err(HttpError::NotFound), json_ok),
                "DELETE" => match service.cancel(id) {
                    Some(status) => json_ok(format!(
                        "{{\"schema_version\":{SCHEMA_VERSION},\"id\":{id},\"cancelled\":true,\"was\":\"{status}\"}}"
                    )),
                    None => Err(HttpError::NotFound),
                },
                _ => Err(HttpError::MethodNotAllowed),
            }
        }
        (_, "/healthz" | "/metrics" | "/v1/jobs" | "/v1/decks" | "/v1/cache" | "/v1/shutdown") => {
            Err(HttpError::MethodNotAllowed)
        }
        _ => Err(HttpError::NotFound),
    }
}

/// The `/healthz` document: uptime and job gauges; a coordinator names
/// its role and its fleet's health.
fn healthz(service: &JobService, started: Instant) -> String {
    let g = service.gauges();
    let uptime = started.elapsed().as_secs_f64();
    match service.fleet().map(crate::coordinator::Fleet::health) {
        None => format!(
            "{{\"schema_version\":{SCHEMA_VERSION},\"status\":\"ok\",\"uptime_s\":{uptime:.3},\
             \"jobs\":{{\"queued\":{},\"running\":{},\"completed\":{},\"rejected\":{},\
             \"done_retained\":{}}}}}",
            g.queued, g.running, g.completed, g.rejected, g.done_retained,
        ),
        Some((total, up)) => format!(
            "{{\"schema_version\":{SCHEMA_VERSION},\"status\":\"ok\",\"role\":\"coordinator\",\
             \"uptime_s\":{uptime:.3},\"workers\":{{\"total\":{total},\"up\":{up}}},\
             \"jobs\":{{\"routed\":{},\"completed\":{},\"rejected\":{},\"done_retained\":{}}}}}",
            g.routed, g.completed, g.rejected, g.done_retained,
        ),
    }
}

/// Maps a [`TraceLookup`] onto the wire: the journal (or Chrome trace),
/// a plain `404` for unknown ids, or a distinguishable `404` with code
/// `trace_disabled` when the server runs with `trace_events = 0` — so a
/// client can tell "no such job" from "tracing is off" without guessing.
fn trace_response(lookup: TraceLookup) -> Result<Response, HttpError> {
    match lookup {
        TraceLookup::Journal(body) => json_ok(body),
        TraceLookup::Unknown => Err(HttpError::NotFound),
        TraceLookup::Disabled => Ok(Response::Json {
            status: 404,
            reason: "Not Found",
            body: WireError::manifest(
                "trace_disabled",
                "flight recorder disabled (server runs with trace_events = 0)",
            )
            .to_json(),
        }),
    }
}

/// Validates `GET /v1/jobs` query parameters. Violations are structured
/// `400`s with stable codes (`unknown_state`, `bad_cursor`,
/// `invalid_limit`) rather than silent clamping, so clients learn the
/// caps ([`LIST_LIMIT_MAX`]).
fn list_params(request: &Request) -> Result<(Option<&str>, Option<u64>, usize), WireError> {
    // `routed` only ever matches on a coordinator, whose jobs live on
    // remote workers; a single-process server simply has none.
    let state = match request.query_param("state") {
        None => None,
        Some(s @ ("queued" | "running" | "done" | "routed")) => Some(s),
        Some(other) => {
            return Err(WireError::manifest(
                "unknown_state",
                format!("state must be queued, running, routed, or done, not {other:?}"),
            ))
        }
    };
    let cursor = match request.query_param("cursor") {
        None => None,
        Some(c) => Some(c.parse::<u64>().map_err(|_| {
            WireError::manifest(
                "bad_cursor",
                format!("cursor must be a job id (unsigned integer), not {c:?}"),
            )
        })?),
    };
    let limit = match request.query_param("limit") {
        None => LIST_LIMIT_DEFAULT,
        Some(l) => match l.parse::<usize>() {
            Ok(n) if (1..=LIST_LIMIT_MAX).contains(&n) => n,
            _ => {
                return Err(WireError::manifest(
                    "invalid_limit",
                    format!("limit must be in 1..={LIST_LIMIT_MAX}, not {l:?}"),
                ))
            }
        },
    };
    Ok((state, cursor, limit))
}

/// Renders the shared admission outcome: `202` with ids, or the
/// structured `400`/`429`/`503` bodies — every error through the one
/// [`WireError`] envelope.
fn admission_response(result: Result<Vec<u64>, SubmitError>) -> Response {
    match result {
        Ok(ids) => {
            let ids: Vec<String> = ids.iter().map(u64::to_string).collect();
            Response::Json {
                status: 202,
                reason: "Accepted",
                body: format!(
                    "{{\"schema_version\":{SCHEMA_VERSION},\"ids\":[{}]}}",
                    ids.join(",")
                ),
            }
        }
        Err(SubmitError::Invalid(e)) => wire_error_response(&e),
        Err(SubmitError::Overloaded { queued, depth }) => Response::Json {
            status: 429,
            reason: "Too Many Requests",
            body: WireError::manifest("overloaded", format!("queue full ({queued}/{depth})"))
                .to_json(),
        },
        Err(SubmitError::ShuttingDown) => Response::Json {
            status: 503,
            reason: "Service Unavailable",
            body: WireError::manifest("shutting_down", "server is draining").to_json(),
        },
        Err(SubmitError::Unavailable(message)) => Response::Json {
            status: 503,
            reason: "Service Unavailable",
            body: WireError::manifest("no_workers", message).to_json(),
        },
    }
}

fn wire_error_response(e: &WireError) -> Response {
    Response::Json {
        status: 400,
        reason: "Bad Request",
        body: e.to_json(),
    }
}

/// Sliding-window size for live HTTP latency percentiles: the last this
/// many requests, whatever their age. Small enough to sort on every
/// scrape, large enough to make p99 meaningful.
const LATENCY_WINDOW: usize = 512;

/// Live per-endpoint HTTP metrics, independent of `fts-telemetry`'s
/// global switch: request counters keyed by `(method, route template,
/// status)` plus a last-[`LATENCY_WINDOW`] latency ring. Label
/// cardinality is bounded by construction — methods and paths are
/// normalized to small fixed vocabularies ([`method_label`],
/// [`route_template`]) before they become keys, so a hostile client
/// spraying random paths cannot grow this map.
#[derive(Default)]
struct HttpMetrics {
    counters: Mutex<std::collections::BTreeMap<(&'static str, &'static str, u16), u64>>,
    latency: Mutex<LatencyRing>,
}

#[derive(Default)]
struct LatencyRing {
    samples: Vec<f64>,
    head: usize,
    total: u64,
}

impl HttpMetrics {
    /// Books one finished request into the counters and latency window.
    fn record(&self, method: &'static str, path: &'static str, status: u16, latency_s: f64) {
        {
            let mut counters = self.counters.lock().expect("http counters poisoned");
            *counters.entry((method, path, status)).or_insert(0) += 1;
        }
        let mut ring = self.latency.lock().expect("http latency poisoned");
        ring.total += 1;
        if ring.samples.len() < LATENCY_WINDOW {
            ring.samples.push(latency_s);
        } else {
            let head = ring.head;
            ring.samples[head] = latency_s;
            ring.head = (head + 1) % LATENCY_WINDOW;
        }
    }

    /// Sorted copy of the current latency window plus the lifetime total.
    fn latency_window(&self) -> (Vec<f64>, u64) {
        let ring = self.latency.lock().expect("http latency poisoned");
        let mut sorted = ring.samples.clone();
        sorted.sort_by(f64::total_cmp);
        (sorted, ring.total)
    }
}

/// Normalizes a request method into a bounded label vocabulary.
fn method_label(method: &str) -> &'static str {
    match method {
        "GET" => "GET",
        "POST" => "POST",
        "DELETE" => "DELETE",
        "PUT" => "PUT",
        "HEAD" => "HEAD",
        "OPTIONS" => "OPTIONS",
        _ => "OTHER",
    }
}

/// Normalizes a request path into its route template, collapsing job ids
/// so `/v1/jobs/17` and `/v1/jobs/99` share one `{id}` time series.
fn route_template(path: &str) -> &'static str {
    match path {
        "/healthz" => "/healthz",
        "/metrics" => "/metrics",
        "/v1/jobs" => "/v1/jobs",
        "/v1/decks" => "/v1/decks",
        "/v1/cache" => "/v1/cache",
        "/v1/shutdown" => "/v1/shutdown",
        p if p.starts_with("/v1/jobs/") => {
            if p.ends_with("/trace") {
                "/v1/jobs/{id}/trace"
            } else {
                "/v1/jobs/{id}"
            }
        }
        _ => "(other)",
    }
}

/// Escapes a Prometheus label *value* per the text exposition format:
/// backslash, double quote, and newline must be backslash-escaped or the
/// sample line is unparseable (a newline would even split it in two).
pub(crate) fn prom_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Clamps a metric value to something every scraper can parse: `NaN` and
/// infinities render as `0`.
fn prom_num(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Renders `/metrics` in Prometheus text exposition style: job gauges
/// first (a coordinator adds its fleet's series), then the live
/// per-endpoint HTTP series, then every fts-telemetry counter and
/// histogram (p50/p90/p99).
///
/// Invariants the scrape test pins down: label values are escaped
/// ([`prom_escape`]), every rendered value parses as a finite `f64`
/// ([`prom_num`]), and count-0 histograms render their count line only —
/// an empty histogram has no meaningful mean or percentile, so those
/// lines are skipped rather than invented.
fn render_metrics(service: &JobService, metrics: &HttpMetrics) -> String {
    use std::fmt::Write as _;
    let g = service.gauges();
    let fleet = service.fleet();
    let mut out = String::with_capacity(2048);
    if fleet.is_some() {
        out.push_str("# fts-coordinator metrics (schema_version 1)\n");
        let _ = writeln!(out, "fts_jobs_routed {}", g.routed);
    } else {
        out.push_str("# fts-server metrics (schema_version 1)\n");
        let _ = writeln!(out, "fts_jobs_queued {}", g.queued);
        let _ = writeln!(out, "fts_jobs_running {}", g.running);
    }
    let _ = writeln!(out, "fts_jobs_completed {}", g.completed);
    let _ = writeln!(out, "fts_submissions_rejected {}", g.rejected);
    if fleet.is_none() {
        let _ = writeln!(out, "fts_queue_depth {}", g.queue_depth);
    }
    let _ = writeln!(out, "fts_jobs_done_retained {}", g.done_retained);
    let cache = service.cache_stats();
    let _ = writeln!(out, "fts_cache_entries {}", cache.entries);
    let _ = writeln!(out, "fts_cache_bytes {}", cache.bytes);
    let _ = writeln!(out, "fts_cache_hits_total {}", cache.hits);
    let _ = writeln!(out, "fts_cache_misses_total {}", cache.misses);
    let _ = writeln!(out, "fts_cache_evictions_total {}", cache.evictions);
    let _ = writeln!(out, "fts_cache_hit_ratio {}", prom_num(cache.hit_ratio()));
    if let Some(fleet) = fleet {
        fleet.render_metrics(&mut out);
    }

    {
        let counters = metrics.counters.lock().expect("http counters poisoned");
        for (&(method, path, status), &n) in counters.iter() {
            let _ = writeln!(
                out,
                "fts_http_requests_total{{method=\"{}\",path=\"{}\",status=\"{status}\"}} {n}",
                prom_escape(method),
                prom_escape(path),
            );
        }
    }
    let (window, total) = metrics.latency_window();
    let _ = writeln!(out, "fts_http_latency_window_count {}", window.len());
    let _ = writeln!(out, "fts_http_requests_observed_total {total}");
    if !window.is_empty() {
        let at = |q: f64| {
            let idx = ((window.len() - 1) as f64 * q).round() as usize;
            prom_num(window[idx])
        };
        let _ = writeln!(out, "fts_http_latency_window_p50_s {}", at(0.50));
        let _ = writeln!(out, "fts_http_latency_window_p90_s {}", at(0.90));
        let _ = writeln!(out, "fts_http_latency_window_p99_s {}", at(0.99));
    }

    let report = fts_telemetry::snapshot();
    for c in &report.counters {
        let _ = writeln!(
            out,
            "fts_counter{{name=\"{}\"}} {}",
            prom_escape(&c.name),
            c.value
        );
    }
    for h in &report.histograms {
        let s = &h.summary;
        let name = prom_escape(&h.name);
        let _ = writeln!(out, "fts_histogram_count{{name=\"{name}\"}} {}", s.n);
        if s.n == 0 {
            continue;
        }
        for (stat, v) in [
            ("mean", s.mean),
            ("p50", s.p50),
            ("p90", s.p90),
            ("p99", s.p99),
        ] {
            let _ = writeln!(
                out,
                "fts_histogram_{stat}{{name=\"{name}\"}} {}",
                prom_num(v)
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{BuiltJob, JobBuilder};
    use crate::wire::{JobSpec, WireError};

    /// The routing tests never admit a job, so the builder is never
    /// called.
    struct NeverBuilder;

    impl JobBuilder for NeverBuilder {
        fn build(&self, _spec: &JobSpec, index: usize) -> Result<BuiltJob, WireError> {
            Err(WireError::job("unknown_function", index, "test builder"))
        }
    }

    fn service() -> JobService {
        JobService::new(Arc::new(NeverBuilder), 4, 8)
    }

    fn get(path: &str, query: &str) -> Request {
        Request {
            method: "GET".to_owned(),
            path: path.to_owned(),
            query: query.to_owned(),
            body: String::new(),
        }
    }

    #[test]
    fn every_metrics_sample_line_parses_as_a_finite_number() {
        fts_telemetry::set_enabled(true);
        // Hostile label value: quote, newline, and backslash must all be
        // escaped or the scrape below falls apart at this counter.
        fts_telemetry::counter("evil\"name\nwith\\slash", 3);
        // A histogram whose only sample is rejected (non-finite) stays at
        // count 0 and must render its count line only.
        fts_telemetry::record("server.test.empty_hist", f64::NAN);

        let svc = service();
        let metrics = HttpMetrics::default();
        metrics.record("GET", "/healthz", 200, 0.001);
        metrics.record("GET", "/v1/jobs/{id}/trace", 404, 0.002);
        metrics.record("-", "-", 400, 0.0005);
        let body = render_metrics(&svc, &metrics);

        let mut samples = 0;
        for line in body.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let (_, value) = line.rsplit_once(' ').expect("name/value split");
            let v: f64 = value
                .parse()
                .unwrap_or_else(|_| panic!("unparseable sample {line:?}"));
            assert!(v.is_finite(), "non-finite sample {line:?}");
            samples += 1;
        }
        assert!(samples > 10, "suspiciously small scrape:\n{body}");
        assert!(
            body.contains("fts_counter{name=\"evil\\\"name\\nwith\\\\slash\"} 3"),
            "escaped counter missing:\n{body}"
        );
        assert!(body.contains("fts_histogram_count{name=\"server.test.empty_hist\"} 0"));
        assert!(
            !body.contains("fts_histogram_mean{name=\"server.test.empty_hist\"}"),
            "count-0 histogram must not invent a mean:\n{body}"
        );
        assert!(body.contains(
            "fts_http_requests_total{method=\"GET\",path=\"/v1/jobs/{id}/trace\",status=\"404\"} 1"
        ));
        assert!(body.contains("fts_http_latency_window_count 3"));
    }

    #[test]
    fn http_label_vocabulary_is_bounded() {
        assert_eq!(route_template("/v1/jobs/17"), "/v1/jobs/{id}");
        assert_eq!(route_template("/v1/jobs/17/trace"), "/v1/jobs/{id}/trace");
        assert_eq!(route_template("/v1/jobs/not-a-number"), "/v1/jobs/{id}");
        assert_eq!(route_template("/../../etc/passwd"), "(other)");
        assert_eq!(method_label("BREW"), "OTHER");
        assert_eq!(method_label("GET"), "GET");
    }

    #[test]
    fn latency_ring_is_a_sliding_window() {
        let metrics = HttpMetrics::default();
        for i in 0..(LATENCY_WINDOW + 10) {
            metrics.record("GET", "/healthz", 200, i as f64);
        }
        let (window, total) = metrics.latency_window();
        assert_eq!(window.len(), LATENCY_WINDOW);
        assert_eq!(total, (LATENCY_WINDOW + 10) as u64);
        // The ten oldest samples (0..10) have been overwritten.
        assert_eq!(window[0], 10.0);
    }

    #[test]
    fn healthz_reports_uptime_and_job_states() {
        let svc = service();
        let metrics = HttpMetrics::default();
        let stop = AtomicBool::new(false);
        let req = get("/healthz", "");
        let Ok(Response::Json { status, body, .. }) =
            route(&req, &svc, &stop, &metrics, Instant::now())
        else {
            panic!("healthz must answer JSON");
        };
        assert_eq!(status, 200);
        let doc = crate::wire::Json::parse(&body).expect("healthz body parses");
        assert!(doc
            .get("uptime_s")
            .and_then(crate::wire::Json::as_f64)
            .is_some());
        let jobs = doc.get("jobs").expect("jobs object");
        for key in [
            "queued",
            "running",
            "completed",
            "rejected",
            "done_retained",
        ] {
            assert!(jobs.get(key).is_some(), "healthz missing jobs.{key}");
        }
    }

    #[test]
    fn trace_route_parses_id_and_format() {
        let svc = service();
        let metrics = HttpMetrics::default();
        let stop = AtomicBool::new(false);
        // Unknown id → plain 404 (the service holds no job 7).
        let req = get("/v1/jobs/7/trace", "format=chrome");
        match route(&req, &svc, &stop, &metrics, Instant::now()) {
            Err(HttpError::NotFound) => {}
            other => panic!("expected NotFound, got {other:?}"),
        }
        // Garbage id → 400, not 404.
        let req = get("/v1/jobs/xyz/trace", "");
        match route(&req, &svc, &stop, &metrics, Instant::now()) {
            Err(HttpError::BadRequest(_)) => {}
            other => panic!("expected BadRequest, got {other:?}"),
        }
        // Wrong method → 405.
        let mut req = get("/v1/jobs/7/trace", "");
        req.method = "DELETE".to_owned();
        match route(&req, &svc, &stop, &metrics, Instant::now()) {
            Err(HttpError::MethodNotAllowed) => {}
            other => panic!("expected MethodNotAllowed, got {other:?}"),
        }
    }

    #[test]
    fn list_route_validates_its_query_parameters() {
        let svc = service();
        let metrics = HttpMetrics::default();
        let stop = AtomicBool::new(false);

        // Empty registry: a well-formed empty page.
        let req = get("/v1/jobs", "");
        let Ok(Response::Json { status, body, .. }) =
            route(&req, &svc, &stop, &metrics, Instant::now())
        else {
            panic!("listing must answer JSON");
        };
        assert_eq!(status, 200);
        assert!(body.contains("\"jobs\":[]"), "{body}");

        // Each violation is a structured 400 with its own stable code.
        for (query, code) in [
            ("state=zombie", "unknown_state"),
            ("cursor=-1", "bad_cursor"),
            ("cursor=abc", "bad_cursor"),
            ("limit=0", "invalid_limit"),
            ("limit=501", "invalid_limit"),
        ] {
            let req = get("/v1/jobs", query);
            let Ok(Response::Json { status, body, .. }) =
                route(&req, &svc, &stop, &metrics, Instant::now())
            else {
                panic!("{query}: must answer JSON");
            };
            assert_eq!(status, 400, "{query}: {body}");
            assert!(
                body.contains(&format!("\"code\":\"{code}\"")),
                "{query}: {body}"
            );
        }

        // In-range parameters pass through.
        let req = get("/v1/jobs", "state=done&cursor=3&limit=500");
        let Ok(Response::Json { status, .. }) = route(&req, &svc, &stop, &metrics, Instant::now())
        else {
            panic!("listing must answer JSON");
        };
        assert_eq!(status, 200);
    }

    #[test]
    fn every_error_body_carries_the_wire_envelope() {
        // The unified envelope: transport-layer errors, admission
        // rejections, and trace-disabled all render the same
        // {"schema_version":1,"error":{"code","message"}} shape.
        let bodies = [
            HttpError::NotFound.body(),
            HttpError::MethodNotAllowed.body(),
            HttpError::BadRequest("x".into()).body(),
            match admission_response(Err(SubmitError::Overloaded {
                queued: 1,
                depth: 2,
            })) {
                Response::Json { body, .. } => body,
                Response::Text { .. } => unreachable!(),
            },
            match admission_response(Err(SubmitError::ShuttingDown)) {
                Response::Json { body, .. } => body,
                Response::Text { .. } => unreachable!(),
            },
            match admission_response(Err(SubmitError::Unavailable("all down".into()))) {
                Response::Json { body, .. } => body,
                Response::Text { .. } => unreachable!(),
            },
            match trace_response(TraceLookup::Disabled).unwrap() {
                Response::Json { body, .. } => body,
                Response::Text { .. } => unreachable!(),
            },
        ];
        for body in bodies {
            let doc = crate::wire::Json::parse(&body).expect("envelope parses");
            assert_eq!(
                doc.get("schema_version")
                    .and_then(crate::wire::Json::as_f64),
                Some(f64::from(SCHEMA_VERSION)),
                "{body}"
            );
            let err = doc.get("error").expect("error object");
            assert!(err
                .get("code")
                .and_then(crate::wire::Json::as_str)
                .is_some());
            assert!(err
                .get("message")
                .and_then(crate::wire::Json::as_str)
                .is_some());
        }
    }

    #[test]
    fn disabled_tracing_answers_a_distinguishable_404() {
        let lookup = TraceLookup::Disabled;
        let Ok(Response::Json { status, body, .. }) = trace_response(lookup) else {
            panic!("disabled tracing must answer JSON");
        };
        assert_eq!(status, 404);
        assert!(body.contains("\"code\":\"trace_disabled\""), "{body}");
    }
}
