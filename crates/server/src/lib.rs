//! `fts-server`: a zero-dependency HTTP/1.1 simulation service over the
//! `fts-engine` batch scheduler.
//!
//! The crate turns the batch engine into a long-running network service
//! using nothing but std: a [`TcpListener`](std::net::TcpListener) accept
//! loop, hand-rolled bounded HTTP parsing ([`http`]), the versioned JSON
//! wire schema shared with the `fts batch` CLI ([`wire`]), and one job
//! registry in front of an execution backend ([`service`]).
//!
//! # Endpoints
//!
//! | Route | Meaning |
//! |---|---|
//! | `POST /v1/jobs` | Submit a batch manifest (same schema as `fts batch`); returns job ids, `202` |
//! | `POST /v1/decks` | Submit a raw SPICE deck; one job per analysis card, `202` |
//! | `GET /v1/jobs` | Bounded job listing: `?state=` filter + cursor pagination |
//! | `GET /v1/jobs/{id}` | Job status; done jobs embed the deterministic result object |
//! | `GET /v1/jobs/{id}/trace` | The job's flight-recorder journal (`fts-trace/1`); `?format=chrome` renders Chrome trace-event JSON for `about:tracing` |
//! | `DELETE /v1/jobs/{id}` | Cooperative cancel via the job's `CancelToken` |
//! | `GET /v1/cache` | Result-cache statistics (a coordinator aggregates its fleet) |
//! | `DELETE /v1/cache` | Flush the result cache (a coordinator fans out to its fleet) |
//! | `GET /healthz` | Liveness: uptime, schema version, jobs in each state |
//! | `GET /metrics` | Prometheus-style text: queue gauges, live per-endpoint request counters + sliding-window latency, fts-telemetry counters/percentiles |
//! | `POST /v1/shutdown` | Graceful shutdown (same drain as SIGINT) |
//!
//! # Service semantics
//!
//! * **Backpressure** — bounded connection *and* job queues; overflow of
//!   either answers `429` instead of buffering unboundedly.
//! * **Timeouts & deadlines** — per-connection read/write timeouts plus
//!   an overall per-request wall-clock deadline (so a slow-loris client
//!   cannot pin a connection worker); a manifest's `deadline_ms` maps
//!   onto the engine's per-job deadline tokens, so a runaway solve stops
//!   within one Newton iteration of expiry.
//! * **Bounded memory** — JSON nesting depth, request head/body sizes,
//!   queue depths, and both the result cache and the retained
//!   finished-job rows (`cache_entries`, evicting least-recently-used
//!   results and oldest-completed rows) are all capped.
//! * **Graceful shutdown** — SIGINT, `POST /v1/shutdown`, or a
//!   [`ServerHandle`] stop the accept loop, serve already-accepted
//!   connections, let every admitted job finish, and flush a final
//!   telemetry report. Zero in-flight jobs are dropped.
//! * **Determinism** — results are rendered by the same
//!   [`wire::outcome_json`] the CLI report uses and carry no timing, so a
//!   served result is byte-identical to direct engine submission.
//!
//! The dependency arrow points *away* from the synthesis pipeline: this
//! crate only knows manifests and engine jobs, and the caller injects how
//! a named function becomes a netlist through [`JobBuilder`] — `fts-core`
//! implements it once and hands it to both `fts batch` and `fts serve`.

//! # Distributed mode
//!
//! [`Coordinator::bind`] puts the same wire API — the same [`Server`]
//! and [`JobService`] — in front of a fleet of worker processes: only the
//! service's backend changes. Submissions are validated locally, routed
//! by consistent hash ([`ring`]) over the blocking [`WireClient`]
//! ([`client`]), and recovered onto live workers when one dies
//! mid-flight. See the `coordinator` module docs for the failure model
//! and drain ordering.

#![deny(unsafe_code)] // `signal`/`net` opt out locally for their libc FFI shims.
#![warn(missing_docs)]

pub mod client;
pub mod coordinator;
pub mod http;
pub mod net;
pub mod ring;
pub mod server;
pub mod service;
pub mod signal;
pub mod testing;
pub mod wire;

pub use client::{ApiError, ClientError, ClientLimits, ClientResponse, WireClient};
pub use coordinator::{Coordinator, CoordinatorConfig};
pub use http::{HttpError, HttpLimits, Request};
pub use ring::HashRing;
pub use server::{Server, ServerConfig, ServerHandle, ShutdownReport};
pub use service::{
    build_job, cache_stats_json, BuiltJob, JobBuilder, JobService, ServiceGauges, SubmitError,
    TraceLookup, DEFAULT_CACHE_ENTRIES, LIST_LIMIT_DEFAULT, LIST_LIMIT_MAX,
};
pub use wire::{
    batch_report_json, cache_member_json, job_row_json, json_escape, outcome_json,
    single_job_manifest, trace_chrome_json, trace_journal_json, trace_object_json, AnalysisSpec,
    BatchManifest, JobSpec, Json, WireError, MAX_JSON_DEPTH, MAX_SAMPLES_LIMIT, SCHEMA_VERSION,
};
