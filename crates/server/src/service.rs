//! The job service: one registry and one admission path in front of an
//! execution backend.
//!
//! [`JobService`] owns the job registry (id → entry), admission with its
//! cache lookup, status documents, listing, cancellation, traces, gauges,
//! and drain — for both serving roles. The roles differ only in where an
//! admitted job runs, the service's `Backend`:
//!
//! * **Local** (`fts serve`): a bounded pending queue drained by
//!   simulation threads ([`JobService::worker_loop`]) through
//!   [`Engine::run_single`], which applies the same
//!   retry/deadline/telemetry semantics as `Engine::run` — that is what
//!   makes served results byte-identical to direct engine submission.
//! * **Remote** (the coordinator): placement on a worker fleet over the
//!   wire protocol ([`crate::coordinator`]). A worker's finished `job`
//!   row is stored verbatim and rendered by the same status function as
//!   a local row, so byte-identity with `fts batch` holds by
//!   construction.
//!
//! Admission is **all-or-nothing**: a manifest's jobs are either all
//! admitted or the whole submission is rejected — [`SubmitError::Overloaded`]
//! (the HTTP layer's `429`) when the local queue cannot take them,
//! [`SubmitError::Unavailable`] when no worker can.
//!
//! Job *construction* is injected through [`JobBuilder`] rather than done
//! here: the service knows manifests and outcomes, while the caller (the
//! `fts` CLI's synthesis pipeline) knows how a named Boolean function
//! becomes a lattice netlist. `fts batch` and `fts serve` hand the same
//! builder to [`build_job`], so the two transports cannot drift.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use fts_engine::{
    cache_key, params_vector, topology_hash, Analysis, CacheKey, CacheMode, CacheStats,
    CachedResult, Engine, ResultCache, RetryPolicy, SimJob, SimOutcome, DEFAULT_CACHE_BYTES,
};
use fts_netlist::{elaborate, parse_str, ElabOptions};
use fts_spice::{CancelToken, NodeId};
use fts_telemetry::trace::JobTrace;

use crate::coordinator::{Doc, Fleet, Placement, Source};
use crate::wire::{
    cache_member_json, job_row_json, json_escape, json_f64, outcome_json, trace_chrome_json,
    trace_journal_json, BatchManifest, JobSource, JobSpec, WireError, SCHEMA_VERSION,
};
/// A manifest job lowered to an engine job plus the node to report.
pub struct BuiltJob {
    /// The runnable engine job (netlist + analysis; policy fields are
    /// applied by [`build_job`]).
    pub job: SimJob,
    /// The lattice output node whose voltage the report quotes.
    pub out: NodeId,
}

/// Lowers one manifest [`JobSpec`] to a runnable [`BuiltJob`].
///
/// Implementations map the spec's named function and analysis onto a
/// netlist; validation failures (unknown function name, unrealizable
/// lattice) surface as [`WireError`]s → structured `400`s / CLI errors.
pub trait JobBuilder: Send + Sync {
    /// Builds the engine job for `spec` (manifest index `index`).
    ///
    /// # Errors
    ///
    /// A structured [`WireError`] attributed to job `index`.
    fn build(&self, spec: &JobSpec, index: usize) -> Result<BuiltJob, WireError>;
}

/// Lowers `spec` through `builder` and applies the spec's policy fields
/// (label, retry ladder, deadline). This is the single construction path
/// shared by `fts batch` and the server.
///
/// Deck sources are lowered right here through `fts-netlist` — the
/// builder only ever sees [`JobSource::Function`] specs, so builders stay
/// ignorant of SPICE.
///
/// # Errors
///
/// Whatever the builder reports for job `index`, or a structured deck
/// parse/elaboration error (with line/column) for deck sources.
pub fn build_job(
    builder: &dyn JobBuilder,
    spec: &JobSpec,
    index: usize,
) -> Result<BuiltJob, WireError> {
    let built = match &spec.source {
        JobSource::Deck { text, max_samples } => build_deck_job(text, *max_samples, index)?,
        JobSource::Function { .. } => builder.build(spec, index)?,
    };
    let mut job = built.job.label(&spec.label_or_default(index));
    if spec.ladder {
        job = job.retry(RetryPolicy::ladder());
    }
    if let Some(ms) = spec.deadline_ms {
        job = job.deadline(Duration::from_secs_f64(ms / 1000.0));
    }
    Ok(BuiltJob {
        job,
        out: built.out,
    })
}

/// Lowers a manifest deck job: parse (`.include` disabled — manifests
/// arrive over the wire), elaborate, and require exactly one analysis
/// card so the deck maps onto the manifest's one-spec-one-row shape.
fn build_deck_job(text: &str, max_samples: usize, index: usize) -> Result<BuiltJob, WireError> {
    let deck = parse_str(text).map_err(|e| WireError::from_deck(&e, Some(index)))?;
    let elab = elaborate(&deck, &ElabOptions { max_samples })
        .map_err(|e| WireError::from_deck(&e, Some(index)))?;
    let mut jobs = elab.jobs;
    if jobs.len() != 1 {
        return Err(WireError::job(
            "deck_analysis_count",
            index,
            format!(
                "a manifest deck job must carry exactly one analysis card, this deck has {} \
                 (POST /v1/decks runs multi-analysis decks)",
                jobs.len()
            ),
        ));
    }
    Ok(BuiltJob {
        job: jobs.pop().expect("length checked"),
        out: elab.out,
    })
}

/// Lowers a raw deck body (`POST /v1/decks`) into one [`Submission`] per
/// analysis card, labelled with the deck's ordinal analysis labels
/// (`op-0`, `tran-1`, …).
///
/// # Errors
///
/// A structured [`WireError`] carrying the deck's stable error code and
/// 1-based line/column.
pub fn deck_submissions(text: &str) -> Result<Vec<Submission>, WireError> {
    let deck = parse_str(text).map_err(|e| WireError::from_deck(&e, None))?;
    let elab =
        elaborate(&deck, &ElabOptions::default()).map_err(|e| WireError::from_deck(&e, None))?;
    let out = elab.out;
    Ok(elab
        .jobs
        .into_iter()
        .map(|job| Submission {
            label: job.label.clone(),
            out,
            waveform: false,
            cache: CacheMode::Default,
            job,
        })
        .collect())
}

/// One admitted unit of work: a runnable job plus its report metadata.
/// Both `POST /v1/jobs` (manifest, [`JobService::submit`]) and
/// `POST /v1/decks` (raw deck, [`JobService::submit_deck`]) lower to these
/// before the shared admission path.
pub struct Submission {
    /// The runnable engine job.
    pub job: SimJob,
    /// Report label.
    pub label: String,
    /// The node whose voltage the report quotes.
    pub out: NodeId,
    /// Embed the decimated waveform arrays in the result row.
    pub waveform: bool,
    /// Result-cache policy for this job.
    pub cache: CacheMode,
}

/// Why a submission was not admitted.
#[derive(Debug)]
pub enum SubmitError {
    /// The manifest failed validation (→ `400`).
    Invalid(WireError),
    /// Admitting the manifest would overflow the work queue (→ `429`).
    Overloaded {
        /// Current queue length.
        queued: usize,
        /// Configured queue capacity.
        depth: usize,
    },
    /// The service is draining for shutdown (→ `503`).
    ShuttingDown,
    /// No backend can take the work right now (→ `503` with code
    /// `no_workers`). Only the coordinator produces this: its validation
    /// passed but every routable worker was down or refused.
    Unavailable(String),
}

/// Where a job is in its life. Local jobs move queued → running → done;
/// remote jobs move between routed, stranded and rerouting (see
/// [`crate::coordinator::transition`]) until done.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum JobState {
    /// Admitted, waiting for a simulation thread.
    Queued,
    /// Executing on a simulation thread.
    Running,
    /// Placed on a worker as its job `at.remote`; `attempts` counts the
    /// placements so far.
    Routed { at: Placement, attempts: usize },
    /// Lost its placement and no worker took it again. Holds **no**
    /// remote id, so the next poll re-places it instead of asking a
    /// restarted worker about an id that may now be another job's.
    Stranded { attempts: usize },
    /// Claimed by one thread that is placing it with the registry
    /// unlocked; other polls answer `queued` meanwhile.
    Rerouting { attempts: usize },
    /// Terminal: the report row and its kind. `at` is where a remote job
    /// really ran (trace requests are proxied there); synthetic rows and
    /// local jobs carry `None`.
    Done {
        kind: String,
        row: String,
        at: Option<Placement>,
    },
}

impl JobState {
    /// The status word `GET /v1/jobs` lists and filters by.
    fn listed(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Routed { .. } | JobState::Stranded { .. } | JobState::Rerouting { .. } => {
                "routed"
            }
            JobState::Done { .. } => "done",
        }
    }

    pub(crate) fn is_done(&self) -> bool {
        matches!(self, JobState::Done { .. })
    }
}

/// One registered job, whichever backend runs it.
pub(crate) struct JobEntry {
    pub(crate) label: String,
    /// The job's canonical content hash, computed at admission. A proxied
    /// done row is accepted only when its `cache.key` equals this.
    pub(crate) key: CacheKey,
    /// The job's cache policy.
    pub(crate) mode: CacheMode,
    /// Local: the engine job while queued, taken by the thread that
    /// starts it, plus the node and waveform flag its row reports.
    pub(crate) job: Option<SimJob>,
    pub(crate) out: NodeId,
    pub(crate) waveform: bool,
    /// Fired by `DELETE`. A local job stops at its next cancellation
    /// point; a remote job whose worker is lost closes as cancelled
    /// instead of being placed again.
    pub(crate) cancel: CancelToken,
    /// Local: the job's flight recorder, minted at admission (absent when
    /// tracing is disabled). The engine installs the other clone of this
    /// handle on the worker thread; this one serves
    /// `GET /v1/jobs/{id}/trace`, including mid-run.
    pub(crate) trace: Option<JobTrace>,
    /// Remote: the document that places the job again after its worker
    /// is lost; `None` for multi-analysis deck jobs, which cannot be
    /// re-posted one job at a time.
    pub(crate) resubmit: Option<Doc>,
    pub(crate) state: JobState,
}

impl JobEntry {
    /// The `GET /v1/jobs/{id}` document. `live` is the owning worker's
    /// own status word for a routed job that just answered one.
    pub(crate) fn status_json(&self, id: u64, live: Option<&str>) -> String {
        let status = match &self.state {
            JobState::Done { kind, row, .. } => {
                return format!(
                    "{{\"schema_version\":{SCHEMA_VERSION},\"id\":{id},\"status\":\"done\",\"kind\":\"{kind}\",\"job\":{row}}}"
                )
            }
            JobState::Queued | JobState::Stranded { .. } | JobState::Rerouting { .. } => "queued",
            JobState::Running => "running",
            JobState::Routed { .. } => live.unwrap_or("routed"),
        };
        format!(
            "{{\"schema_version\":{SCHEMA_VERSION},\"id\":{id},\"label\":\"{}\",\"status\":\"{status}\"}}",
            json_escape(&self.label)
        )
    }
}

/// The report row of a job served from the result cache: the stored
/// result bytes under this submission's own label, zero wall time, and
/// the attempts of the run that produced them.
fn hit_row(label: &str, key: CacheKey, cached: &CachedResult) -> String {
    format!(
        "{{\"label\":\"{}\",\"kind\":\"{}\",\"wall_s\":0,\"attempts\":{},\"result\":{}{}}}",
        json_escape(label),
        cached.kind,
        cached.attempts,
        cached.result_json,
        cache_member_json(key, true),
    )
}

pub(crate) struct Registry {
    pub(crate) jobs: HashMap<u64, JobEntry>,
    /// Local: queued ids in admission order.
    pending: VecDeque<u64>,
    /// Done entry ids in completion order — the eviction queue that keeps
    /// retained rows (potentially multi-megabyte waveform rows) bounded
    /// on a long-running server.
    done_order: VecDeque<u64>,
    /// The done-row bound (`cache_entries`).
    retain: usize,
    next_id: u64,
    draining: bool,
    running: usize,
    completed: u64,
}

impl Registry {
    /// Books `id`, just flipped to done, as a completion and evicts the
    /// oldest done rows beyond the retention bound — the one place done
    /// rows age out.
    pub(crate) fn retire(&mut self, id: u64) {
        self.completed += 1;
        self.done_order.push_back(id);
        while self.done_order.len() > self.retain {
            let evicted = self.done_order.pop_front().expect("non-empty");
            self.jobs.remove(&evicted);
        }
    }
}

/// Where admitted jobs run.
pub(crate) enum Backend {
    /// Simulation threads pulling from the pending queue.
    Local(Engine),
    /// Placement on a worker fleet.
    Remote(Fleet),
}

/// Live registry gauges for `/healthz` and `/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceGauges {
    /// Jobs admitted but not yet started.
    pub queued: usize,
    /// Jobs currently executing on a simulation thread.
    pub running: usize,
    /// Jobs placed on (or being re-placed onto) a worker fleet.
    pub routed: usize,
    /// Jobs finished (any outcome) since startup.
    pub completed: u64,
    /// Finished job rows currently retained (≤ the `cache_entries` bound).
    pub done_retained: usize,
    /// Submissions rejected with `429` (local) or `503` (remote) since
    /// startup.
    pub rejected: u64,
    /// Configured queue capacity.
    pub queue_depth: usize,
}

/// Default for [`JobService::new`]'s `cache_entries`: the bound on both
/// the content-addressed result cache *and* the retained finished-job
/// rows (the two retention knobs PR 10 consolidated — see DESIGN.md §13).
pub const DEFAULT_CACHE_ENTRIES: usize = 256;

/// `GET /v1/jobs` page size when the request has no `limit`.
pub const LIST_LIMIT_DEFAULT: usize = 50;

/// Largest accepted `GET /v1/jobs` `limit`; bigger asks are a structured
/// `400`, not a silent clamp, so clients learn the cap.
pub const LIST_LIMIT_MAX: usize = 500;

/// Renders one [`CacheStats`] snapshot as the `GET /v1/cache` body.
#[must_use]
pub fn cache_stats_json(s: &CacheStats) -> String {
    format!(
        "{{\"schema_version\":{SCHEMA_VERSION},{}}}",
        cache_stats_fields(s)
    )
}

/// The stats members of a cache document, without braces — shared by
/// the single-node body and the coordinator's per-node breakdown.
pub(crate) fn cache_stats_fields(s: &CacheStats) -> String {
    format!(
        "\"entries\":{},\"bytes\":{},\"hits\":{},\"misses\":{},\"evictions\":{},\"hit_ratio\":{}",
        s.entries,
        s.bytes,
        s.hits,
        s.misses,
        s.evictions,
        json_f64(s.hit_ratio()),
    )
}

/// Result of a `GET /v1/jobs/{id}/trace` lookup.
pub enum TraceLookup {
    /// Unknown id, or the finished job was evicted (→ `404`).
    Unknown,
    /// The service runs with per-job tracing disabled (→ `404` with a
    /// distinct error code, so clients can tell "no such job" from
    /// "tracing off").
    Disabled,
    /// The rendered journal document.
    Journal(String),
}

/// The job registry behind the HTTP endpoints, over one `Backend`.
pub struct JobService {
    registry: Mutex<Registry>,
    work_ready: Condvar,
    job_done: Condvar,
    builder: Arc<dyn JobBuilder>,
    backend: Backend,
    queue_depth: usize,
    /// The content-addressed result cache + warm-start index. Admission
    /// consults it in both roles; a coordinator fills it from proxied
    /// completions.
    pub(crate) cache: ResultCache,
    /// Per-job flight-recorder ring capacity; 0 disables tracing.
    trace_events: usize,
    rejected: AtomicU64,
}

impl JobService {
    /// A local service admitting at most `queue_depth` queued jobs,
    /// lowering manifests through `builder`, and bounding both the result
    /// cache and the retained finished-job rows to `cache_entries` (see
    /// [`DEFAULT_CACHE_ENTRIES`]; the byte bound defaults to
    /// [`DEFAULT_CACHE_BYTES`], adjustable via
    /// [`cache_bytes`](JobService::cache_bytes)).
    ///
    /// Retention is what bounds the registry: queued and running entries
    /// are already limited by `queue_depth` and the worker count, and
    /// once the done set exceeds `cache_entries` the oldest-completed
    /// entries are dropped, so a long-running server's memory cannot grow
    /// with its job history. An evicted id reads as `404` — clients poll
    /// results promptly (the benchmark's `op_small` drives exactly that
    /// loop), so the cap trades indefinite retrievability for a hard
    /// memory bound.
    /// The content cache ages out separately by LRU under the same entry
    /// bound, so a result evicted from the *registry* (by id) is usually
    /// still servable as a cache hit (by content).
    pub fn new(
        builder: Arc<dyn JobBuilder>,
        queue_depth: usize,
        cache_entries: usize,
    ) -> JobService {
        JobService::with_backend(
            builder,
            Backend::Local(Engine::new()),
            queue_depth,
            cache_entries,
        )
    }

    pub(crate) fn with_backend(
        builder: Arc<dyn JobBuilder>,
        backend: Backend,
        queue_depth: usize,
        cache_entries: usize,
    ) -> JobService {
        let cache_entries = cache_entries.max(1);
        JobService {
            registry: Mutex::new(Registry {
                jobs: HashMap::new(),
                pending: VecDeque::new(),
                done_order: VecDeque::new(),
                retain: cache_entries,
                next_id: 0,
                draining: false,
                running: 0,
                completed: 0,
            }),
            work_ready: Condvar::new(),
            job_done: Condvar::new(),
            builder,
            backend,
            queue_depth: queue_depth.max(1),
            cache: ResultCache::new(cache_entries, DEFAULT_CACHE_BYTES),
            trace_events: fts_telemetry::trace::DEFAULT_EVENT_CAP,
            rejected: AtomicU64::new(0),
        }
    }

    /// Rebounds the result cache's byte budget (entry bound unchanged).
    /// Call before serving traffic: the cache is reset empty.
    pub fn cache_bytes(mut self, bytes: usize) -> JobService {
        self.cache = ResultCache::new(self.cache.max_entries(), bytes);
        self
    }

    /// Sets the per-job flight-recorder ring capacity (events retained
    /// per job before drop-oldest kicks in). `0` disables tracing: no
    /// rings are minted and `GET /v1/jobs/{id}/trace` reports
    /// [`TraceLookup::Disabled`]. Defaults to
    /// [`fts_telemetry::trace::DEFAULT_EVENT_CAP`].
    pub fn trace_capacity(mut self, events: usize) -> JobService {
        self.trace_events = events;
        self
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, Registry> {
        self.registry.lock().expect("registry poisoned")
    }

    /// The worker fleet, when this service places jobs remotely.
    pub(crate) fn fleet(&self) -> Option<&Fleet> {
        match &self.backend {
            Backend::Remote(fleet) => Some(fleet),
            Backend::Local(_) => None,
        }
    }

    /// Validates, lowers, and admits a manifest's jobs; returns their ids
    /// in manifest order.
    ///
    /// Construction happens *before* admission, so an invalid manifest is
    /// rejected without consuming queue slots or touching a worker.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Invalid`] on validation failure (an empty manifest
    /// included), [`SubmitError::Overloaded`] when the queue cannot take
    /// every job, [`SubmitError::Unavailable`] when no worker can,
    /// [`SubmitError::ShuttingDown`] while draining.
    pub fn submit(&self, manifest: &BatchManifest) -> Result<Vec<u64>, SubmitError> {
        let mut subs = Vec::with_capacity(manifest.jobs.len());
        for (k, spec) in manifest.jobs.iter().enumerate() {
            let b = build_job(self.builder.as_ref(), spec, k).map_err(SubmitError::Invalid)?;
            subs.push(Submission {
                job: b.job,
                label: spec.label_or_default(k),
                out: b.out,
                waveform: spec.waveform,
                cache: spec.cache,
            });
        }
        self.admit(subs, &Source::Manifest(manifest))
    }

    /// Lowers a raw deck (`POST /v1/decks`) into one job per analysis
    /// card (see [`deck_submissions`]) and admits them together.
    ///
    /// # Errors
    ///
    /// Same contract as [`submit`](JobService::submit); deck errors carry
    /// line and column.
    pub fn submit_deck(&self, text: &str) -> Result<Vec<u64>, SubmitError> {
        let subs = deck_submissions(text).map_err(SubmitError::Invalid)?;
        self.admit(subs, &Source::Deck(text))
    }

    /// The single all-or-nothing admission path. Keys and cache lookups
    /// run before any lock; a `default`-mode job whose key is cached is
    /// minted done on the spot and never occupies a queue slot or a
    /// worker. A remote backend places the misses before anything is
    /// registered, with the registry unlocked.
    fn admit(&self, subs: Vec<Submission>, source: &Source<'_>) -> Result<Vec<u64>, SubmitError> {
        if subs.is_empty() {
            return Err(SubmitError::Invalid(WireError::manifest(
                "empty_manifest",
                "no jobs to admit",
            )));
        }
        let keys: Vec<CacheKey> = subs
            .iter()
            .map(|s| cache_key(&s.job, s.out, s.waveform))
            .collect();
        let hits: Vec<Option<CachedResult>> = subs
            .iter()
            .zip(&keys)
            .map(|(s, &key)| s.cache.reads().then(|| self.cache.lookup(key)).flatten())
            .collect();
        let misses = hits.iter().filter(|h| h.is_none()).count();

        // Remote ids are reserved first (ids burned by a failed placement
        // stay burned: they are opaque handles, not dense indices).
        let (mut placed, reserved) = match &self.backend {
            Backend::Local(_) => (Vec::new(), None),
            Backend::Remote(fleet) => {
                let base = {
                    let mut reg = self.lock();
                    if reg.draining {
                        return Err(SubmitError::ShuttingDown);
                    }
                    reg.next_id += subs.len() as u64;
                    reg.next_id - subs.len() as u64
                };
                let missed: Vec<bool> = hits.iter().map(Option::is_none).collect();
                let Some(placed) = fleet.place_admission(base, &missed, source) else {
                    self.rejected.fetch_add(1, Ordering::Relaxed);
                    return Err(SubmitError::Unavailable(
                        "no worker accepted the job (fleet down or refusing)".into(),
                    ));
                };
                (placed, Some(base))
            }
        };

        let mut reg = self.lock();
        if reg.draining {
            // Drain began while placing: its completion scan may already
            // have passed, so refuse rather than strand jobs.
            drop(reg);
            if let Some(fleet) = self.fleet() {
                fleet.recall_all(&placed);
            }
            return Err(SubmitError::ShuttingDown);
        }
        let base = match reserved {
            Some(base) => base,
            None if reg.pending.len() + misses > self.queue_depth => {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                fts_telemetry::counter("server.jobs.rejected", subs.len() as u64);
                return Err(SubmitError::Overloaded {
                    queued: reg.pending.len(),
                    depth: self.queue_depth,
                });
            }
            None => {
                reg.next_id += subs.len() as u64;
                reg.next_id - subs.len() as u64
            }
        };

        let mut ids = Vec::with_capacity(subs.len());
        for (k, ((mut s, key), hit)) in subs.into_iter().zip(keys).zip(hits).enumerate() {
            let id = base + k as u64;
            let placement = placed.get_mut(k).and_then(Option::take);
            let trace = (self.trace_events > 0).then(|| JobTrace::new(self.trace_events));
            let (state, resubmit, job) = match (hit, placement) {
                (Some(cached), _) => (
                    JobState::Done {
                        kind: cached.kind.to_owned(),
                        row: hit_row(&s.label, key, &cached),
                        at: None,
                    },
                    None,
                    None,
                ),
                (None, Some((at, resubmit))) => {
                    (JobState::Routed { at, attempts: 1 }, resubmit, None)
                }
                (None, None) => {
                    // The engine installs the trace riding on the job; the
                    // registry keeps the other clone to serve the journal.
                    s.job.trace.clone_from(&trace);
                    reg.pending.push_back(id);
                    (JobState::Queued, None, Some(s.job))
                }
            };
            let done = state.is_done();
            reg.jobs.insert(
                id,
                JobEntry {
                    label: s.label,
                    key,
                    mode: s.cache,
                    job,
                    out: s.out,
                    waveform: s.waveform,
                    cancel: CancelToken::new(),
                    trace,
                    resubmit,
                    state,
                },
            );
            if done {
                reg.retire(id);
                if reserved.is_some() {
                    fts_telemetry::counter("coordinator.jobs.completed", 1);
                }
            }
            ids.push(id);
        }
        fts_telemetry::counter("server.jobs.admitted", ids.len() as u64);
        if !reg.pending.is_empty() {
            self.work_ready.notify_all();
        }
        Ok(ids)
    }

    /// One simulation thread's loop: pull queued jobs and run them until
    /// the queue is empty *and* the service is draining. Threads never
    /// abandon a started job, which is what makes shutdown lossless.
    pub fn worker_loop(&self) {
        loop {
            let (id, mut job, cancel, key, mode, out, waveform) = {
                let mut reg = self.lock();
                loop {
                    if let Some(id) = reg.pending.pop_front() {
                        let entry = reg.jobs.get_mut(&id).expect("pending id registered");
                        entry.state = JobState::Running;
                        let job = entry.job.take().expect("queued job present");
                        let cancel = entry.cancel.clone();
                        let (key, mode) = (entry.key, entry.mode);
                        let (out, waveform) = (entry.out, entry.waveform);
                        reg.running += 1;
                        break (id, job, cancel, key, mode, out, waveform);
                    }
                    if reg.draining {
                        return;
                    }
                    reg = self.work_ready.wait(reg).expect("registry poisoned");
                }
            };

            // Dequeue-time recheck: an in-flight duplicate admitted as a
            // miss may have been cached by its twin while this job sat
            // queued — serve the stored bytes instead of recomputing.
            if mode.reads() {
                if let Some(cached) = self.cache.recheck(key) {
                    self.finish(id, cached.kind, |entry| hit_row(&entry.label, key, &cached));
                    continue;
                }
                // Warm-start: seed Newton from the nearest cached
                // operating point of the same concrete topology.
                if matches!(job.analysis, Analysis::Op) {
                    let topo = topology_hash(&job.netlist);
                    let params = params_vector(&job.netlist);
                    if let Some(x) = self.cache.warm_lookup(topo, &params) {
                        job.initial = Some(x);
                    }
                }
            }

            let Backend::Local(engine) = &self.backend else {
                unreachable!("only a local service queues jobs");
            };
            let warmed = job.initial.is_some();
            let (outcome, stats) = engine.run_single(&job, &cancel);

            if outcome.is_success() && mode.writes() {
                self.cache.insert(
                    key,
                    outcome.kind(),
                    outcome_json(&outcome, out, waveform),
                    stats.attempts,
                );
                if let SimOutcome::Op(op) = &outcome {
                    self.cache.warm_insert(
                        topology_hash(&job.netlist),
                        params_vector(&job.netlist),
                        op.unknowns().to_vec(),
                    );
                    let iters = op.convergence().newton_iterations;
                    if warmed {
                        fts_telemetry::record("cache.warm.newton_iterations", iters as f64);
                    } else {
                        fts_telemetry::record("cache.cold.newton_iterations", iters as f64);
                    }
                }
            }

            self.finish(id, outcome.kind(), |entry| {
                let mut row =
                    job_row_json(&entry.label, &outcome, &stats, entry.out, entry.waveform);
                row.pop();
                row.push_str(&cache_member_json(key, false));
                row.push('}');
                row
            });
        }
    }

    /// Completes running job `id`: renders its row (under the registry
    /// lock, so the closure sees the entry's metadata) and retires it.
    fn finish(&self, id: u64, kind: &'static str, row: impl FnOnce(&JobEntry) -> String) {
        let mut reg = self.lock();
        let entry = reg.jobs.get_mut(&id).expect("running id registered");
        let row = row(entry);
        entry.state = JobState::Done {
            kind: kind.to_owned(),
            row,
            at: None,
        };
        reg.running -= 1;
        reg.retire(id);
        self.job_done.notify_all();
    }

    /// The status document for `GET /v1/jobs/{id}`, or `None` for ids
    /// that are unknown or whose finished result has been evicted by the
    /// `cache_entries` done-row bound. A remote job's status is fetched
    /// from its worker (and the job re-placed if the worker lost it).
    ///
    /// Done jobs embed the full report row — label, timing stats, and the
    /// deterministic `result` object rendered by
    /// [`outcome_json`].
    pub fn status_json(&self, id: u64) -> Option<String> {
        match &self.backend {
            Backend::Remote(fleet) => self.remote_status(fleet, id),
            Backend::Local(_) => Some(self.lock().jobs.get(&id)?.status_json(id, None)),
        }
    }

    /// The flight-recorder journal for `GET /v1/jobs/{id}/trace`.
    ///
    /// Works for jobs in any state — a running job serves the events it
    /// has produced so far. `chrome` selects the Chrome trace-event
    /// rendering (`?format=chrome`) over the `fts-trace/1` journal. A
    /// remote job's journal is fetched from the worker it ran on.
    pub fn trace_json(&self, id: u64, chrome: bool) -> TraceLookup {
        if let Backend::Remote(fleet) = &self.backend {
            return self.remote_trace(fleet, id, chrome);
        }
        let reg = self.lock();
        let Some(entry) = reg.jobs.get(&id) else {
            return TraceLookup::Unknown;
        };
        let Some(trace) = &entry.trace else {
            return TraceLookup::Disabled;
        };
        let snap = trace.snapshot();
        TraceLookup::Journal(if chrome {
            trace_chrome_json(id, &entry.label, &snap)
        } else {
            trace_journal_json(id, &entry.label, entry.state.listed(), &snap)
        })
    }

    /// Cancels job `id` for `DELETE /v1/jobs/{id}`. Returns the job's
    /// status when the cancel arrived, or `None` for unknown (or evicted)
    /// ids.
    ///
    /// Cancelling is cooperative and idempotent: a queued or running job
    /// stops at its next cancellation point and reports
    /// `"kind":"cancelled"`; a job that already finished keeps its result
    /// (the cancel-vs-complete race is settled by whoever got there
    /// first). A remote cancel is forwarded to the job's worker, and an
    /// acknowledged cancel is binding: the job is never placed again.
    pub fn cancel(&self, id: u64) -> Option<&'static str> {
        if let Backend::Remote(fleet) = &self.backend {
            return self.remote_cancel(fleet, id);
        }
        let reg = self.lock();
        let entry = reg.jobs.get(&id)?;
        entry.cancel.cancel();
        fts_telemetry::counter("server.jobs.cancel_requests", 1);
        Some(entry.state.listed())
    }

    /// Marks the service draining and blocks until every admitted job has
    /// finished: locally, until the queue is empty and no job runs (the
    /// simulation threads then exit); remotely, by polling every open job
    /// to completion before cascading the shutdown to the fleet.
    pub fn drain(&self) {
        let mut reg = self.lock();
        reg.draining = true;
        if let Backend::Remote(fleet) = &self.backend {
            drop(reg);
            return self.remote_drain(fleet);
        }
        self.work_ready.notify_all();
        while !reg.pending.is_empty() || reg.running > 0 {
            reg = self.job_done.wait(reg).expect("registry poisoned");
        }
    }

    /// One page of `GET /v1/jobs`: summary rows for registered jobs with
    /// id > `cursor`, ascending by id, at most `limit` of them. `state`
    /// (already validated by the route layer) keeps only jobs in that
    /// state. Rows of remote jobs name the worker that holds (or ran)
    /// them. The page carries `next_cursor` — the last id returned —
    /// exactly when more matching jobs exist beyond it.
    pub fn list_json(&self, state: Option<&str>, cursor: Option<u64>, limit: usize) -> String {
        let reg = self.lock();
        let mut ids: Vec<u64> = reg
            .jobs
            .keys()
            .copied()
            .filter(|&id| cursor.is_none_or(|c| id > c))
            .collect();
        ids.sort_unstable();
        let mut rows = Vec::new();
        let mut last_id = None;
        let mut truncated = false;
        for id in ids {
            let entry = &reg.jobs[&id];
            let status = entry.state.listed();
            if state.is_some_and(|want| want != status) {
                continue;
            }
            if rows.len() == limit {
                truncated = true;
                break;
            }
            let mut row = format!(
                "{{\"id\":{id},\"label\":\"{}\",\"status\":\"{status}\"",
                json_escape(&entry.label)
            );
            let at = match &entry.state {
                JobState::Routed { at, .. } | JobState::Done { at: Some(at), .. } => Some(at),
                _ => None,
            };
            if let (Some(at), Some(fleet)) = (at, self.fleet()) {
                let addr = json_escape(fleet.addr(at.worker));
                row.push_str(&format!(",\"worker\":\"{addr}\""));
            }
            if let JobState::Done { kind, .. } = &entry.state {
                row.push_str(&format!(",\"kind\":\"{}\"", json_escape(kind)));
            }
            row.push('}');
            rows.push(row);
            last_id = Some(id);
        }
        let mut doc = format!(
            "{{\"schema_version\":{SCHEMA_VERSION},\"jobs\":[{}]",
            rows.join(",")
        );
        if let (true, Some(last)) = (truncated, last_id) {
            doc.push_str(&format!(",\"next_cursor\":{last}"));
        }
        doc.push('}');
        doc
    }

    /// The result cache's counter snapshot (for `/metrics`).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The `GET /v1/cache` document: this node's counters, or on a
    /// coordinator the fleet-wide aggregate with a per-node breakdown.
    pub fn cache_stats_json(&self) -> String {
        match self.fleet() {
            Some(fleet) => fleet.cache_stats_json(self.cache.stats()),
            None => cache_stats_json(&self.cache.stats()),
        }
    }

    /// Flushes the result cache (and warm-start index) for
    /// `DELETE /v1/cache` — on a coordinator, every reachable worker's
    /// too — and returns the response document. Counters are cumulative
    /// and survive.
    pub fn cache_flush(&self) -> String {
        self.cache.flush();
        match self.fleet() {
            Some(fleet) => format!(
                "{{\"schema_version\":{SCHEMA_VERSION},\"flushed\":true,\"nodes\":{}}}",
                1 + fleet.flush_caches()
            ),
            None => format!("{{\"schema_version\":{SCHEMA_VERSION},\"flushed\":true}}"),
        }
    }

    /// Live gauges for `/healthz` and `/metrics`.
    pub fn gauges(&self) -> ServiceGauges {
        let reg = self.lock();
        let routed = self.fleet().map_or(0, |_| {
            reg.jobs
                .values()
                .filter(|e| e.state.listed() == "routed")
                .count()
        });
        ServiceGauges {
            queued: reg.pending.len(),
            running: reg.running,
            routed,
            completed: reg.completed,
            done_retained: reg.done_order.len(),
            rejected: self.rejected.load(Ordering::Relaxed),
            queue_depth: self.queue_depth,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::BatchManifest;
    use fts_spice::netlist::{Netlist, Waveform};

    /// A builder that makes a trivial divider: out = vdd · R2/(R1+R2).
    struct DividerBuilder;

    impl JobBuilder for DividerBuilder {
        fn build(&self, spec: &JobSpec, index: usize) -> Result<BuiltJob, WireError> {
            let JobSource::Function { name, .. } = &spec.source else {
                unreachable!("deck jobs are lowered by build_job, not the builder");
            };
            if name != "divider" {
                return Err(WireError::job(
                    "unknown_function",
                    index,
                    format!("unknown function {name:?}"),
                ));
            }
            let mut nl = Netlist::new();
            let a = nl.node("a");
            let out = nl.node("out");
            nl.vsource("V1", a, Netlist::GROUND, Waveform::Dc(2.0))
                .unwrap();
            nl.resistor("R1", a, out, 1e3).unwrap();
            nl.resistor("R2", out, Netlist::GROUND, 1e3).unwrap();
            Ok(BuiltJob {
                job: SimJob::op(nl),
                out,
            })
        }
    }

    fn service(depth: usize) -> JobService {
        JobService::new(Arc::new(DividerBuilder), depth, DEFAULT_CACHE_ENTRIES)
    }

    fn manifest(n: usize) -> BatchManifest {
        let jobs: Vec<String> = (0..n)
            .map(|_| "{\"function\":\"divider\"}".into())
            .collect();
        BatchManifest::parse(&format!("{{\"jobs\":[{}]}}", jobs.join(","))).unwrap()
    }

    #[test]
    fn submit_run_and_report() {
        let svc = service(8);
        let ids = svc.submit(&manifest(2)).unwrap();
        assert_eq!(ids, vec![0, 1]);
        assert!(svc
            .status_json(0)
            .unwrap()
            .contains("\"status\":\"queued\""));
        assert!(svc.status_json(99).is_none());

        std::thread::scope(|s| {
            s.spawn(|| svc.worker_loop());
            svc.drain();
        });

        let done = svc.status_json(0).unwrap();
        assert!(done.contains("\"status\":\"done\""), "{done}");
        assert!(done.contains("\"kind\":\"op\""), "{done}");
        assert!(done.contains("\"label\":\"divider-0\""), "{done}");
        let doc = crate::wire::Json::parse(&done).unwrap();
        let out_v = doc
            .get("job")
            .and_then(|j| j.get("result"))
            .and_then(|r| r.get("out_v"))
            .and_then(crate::wire::Json::as_f64)
            .unwrap();
        assert!((out_v - 1.0).abs() < 1e-6, "divider out_v = {out_v}");
        let g = svc.gauges();
        assert_eq!(g.completed, 2);
        assert_eq!((g.queued, g.running, g.rejected), (0, 0, 0));
    }

    #[test]
    fn done_entries_are_evicted_beyond_retention() {
        let svc = JobService::new(Arc::new(DividerBuilder), 8, 2);
        let ids = svc.submit(&manifest(5)).unwrap();
        // One worker → jobs finish in submission order, so the eviction
        // order is deterministic.
        std::thread::scope(|s| {
            s.spawn(|| svc.worker_loop());
            svc.drain();
        });
        for &id in &ids[..3] {
            assert!(svc.status_json(id).is_none(), "id {id} should be evicted");
            assert!(svc.cancel(id).is_none());
        }
        for &id in &ids[3..] {
            let done = svc.status_json(id).expect("retained");
            assert!(done.contains("\"status\":\"done\""), "{done}");
        }
        // Eviction drops rows, not history: the completed count stands.
        assert_eq!(svc.gauges().completed, 5);
    }

    #[test]
    fn overloaded_submission_is_all_or_nothing() {
        let svc = service(3);
        svc.submit(&manifest(2)).unwrap();
        // 2 queued + 2 requested > 3: the whole manifest bounces.
        match svc.submit(&manifest(2)) {
            Err(SubmitError::Overloaded { queued, depth }) => {
                assert_eq!((queued, depth), (2, 3));
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(svc.gauges().rejected, 1);
        // A fitting manifest still goes through.
        svc.submit(&manifest(1)).unwrap();
        assert_eq!(svc.gauges().queued, 3);
    }

    #[test]
    fn invalid_function_rejects_without_queueing() {
        let svc = service(4);
        let m =
            BatchManifest::parse("{\"jobs\":[{\"function\":\"divider\"},{\"function\":\"nope\"}]}")
                .unwrap();
        match svc.submit(&m) {
            Err(SubmitError::Invalid(e)) => {
                assert_eq!(e.code, "unknown_function");
                assert_eq!(e.job, Some(1));
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
        assert_eq!(svc.gauges().queued, 0, "no partial admission");
    }

    /// The same voltage divider as [`DividerBuilder`], as a SPICE deck.
    const DIVIDER_DECK: &str = "v1 a 0 dc 2\nr1 a out 1k\nr2 out 0 1k\n.op\n.probe v(out)\n";

    #[test]
    fn deck_jobs_share_the_admission_path() {
        let svc = service(8);
        let m = BatchManifest::parse(&format!(
            "{{\"jobs\":[{{\"deck\":{},\"label\":\"divider-deck\"}}]}}",
            crate::wire::Json::String(DIVIDER_DECK.into()).render()
        ))
        .unwrap();
        let ids = svc.submit(&m).unwrap();
        std::thread::scope(|s| {
            s.spawn(|| svc.worker_loop());
            svc.drain();
        });
        let done = svc.status_json(ids[0]).unwrap();
        assert!(done.contains("\"label\":\"divider-deck\""), "{done}");
        let doc = crate::wire::Json::parse(&done).unwrap();
        let out_v = doc
            .get("job")
            .and_then(|j| j.get("result"))
            .and_then(|r| r.get("out_v"))
            .and_then(crate::wire::Json::as_f64)
            .unwrap();
        assert!((out_v - 1.0).abs() < 1e-6, "deck divider out_v = {out_v}");
    }

    #[test]
    fn deck_submissions_label_with_ordinal_analysis_labels() {
        let subs = deck_submissions("v1 a 0 dc 2\nr1 a out 1k\nr2 out 0 1k\n.op\n.op\n").unwrap();
        let labels: Vec<&str> = subs.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, ["op-0", "op-1"]);
        assert!(subs.iter().all(|s| !s.waveform));
    }

    #[test]
    fn bad_deck_is_a_structured_error_with_position() {
        let m =
            BatchManifest::parse(r#"{"jobs":[{"deck":"v1 a 0 dc 1\nr1 a b\n.op\n"}]}"#).unwrap();
        match service(4).submit(&m) {
            Err(SubmitError::Invalid(e)) => {
                assert_eq!(e.job, Some(0));
                assert_eq!(e.line, Some(2), "{e}");
                assert!(e.col.is_some(), "{e}");
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
        // A deck with more than one analysis card cannot be a manifest job.
        let m = BatchManifest::parse(r#"{"jobs":[{"deck":"v1 a 0 dc 1\nr1 a 0 1k\n.op\n.op\n"}]}"#)
            .unwrap();
        match service(4).submit(&m) {
            Err(SubmitError::Invalid(e)) => assert_eq!(e.code, "deck_analysis_count"),
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn trace_journal_covers_the_whole_run() {
        let svc = service(8);
        let ids = svc.submit(&manifest(1)).unwrap();
        // Queued job: journal exists and is empty.
        let TraceLookup::Journal(doc) = svc.trace_json(ids[0], false) else {
            panic!("queued job must have a journal");
        };
        assert!(doc.contains("\"status\":\"queued\""), "{doc}");
        assert!(doc.contains("\"events\":[]"), "{doc}");

        std::thread::scope(|s| {
            s.spawn(|| svc.worker_loop());
            svc.drain();
        });

        let TraceLookup::Journal(doc) = svc.trace_json(ids[0], false) else {
            panic!("done job must have a journal");
        };
        let parsed = crate::wire::Json::parse(&doc).expect("journal is valid JSON");
        assert_eq!(
            parsed.get("schema").and_then(crate::wire::Json::as_str),
            Some("fts-trace/1")
        );
        assert_eq!(
            parsed.get("status").and_then(crate::wire::Json::as_str),
            Some("done")
        );
        let events = parsed
            .get("events")
            .and_then(crate::wire::Json::as_array)
            .unwrap();
        assert!(!events.is_empty(), "a solved op must record events");
        let kinds: Vec<&str> = events
            .iter()
            .map(|e| e.get("kind").and_then(crate::wire::Json::as_str).unwrap())
            .collect();
        assert!(kinds.contains(&"newton_converged"), "{kinds:?}");
        assert_eq!(kinds.last(), Some(&"job_done"));

        // Chrome rendering parses and carries both span and instant phases.
        let TraceLookup::Journal(chrome) = svc.trace_json(ids[0], true) else {
            panic!("chrome variant must render");
        };
        let parsed = crate::wire::Json::parse(&chrome).expect("chrome doc is valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(crate::wire::Json::as_array)
            .unwrap();
        let phases: Vec<&str> = events
            .iter()
            .map(|e| e.get("ph").and_then(crate::wire::Json::as_str).unwrap())
            .collect();
        assert!(phases.contains(&"X"), "{phases:?}");
        assert!(phases.contains(&"i"), "{phases:?}");

        assert!(matches!(svc.trace_json(999, false), TraceLookup::Unknown));
    }

    #[test]
    fn trace_capacity_zero_disables_tracing() {
        let svc = service(8).trace_capacity(0);
        let ids = svc.submit(&manifest(1)).unwrap();
        assert!(matches!(
            svc.trace_json(ids[0], false),
            TraceLookup::Disabled
        ));
        std::thread::scope(|s| {
            s.spawn(|| svc.worker_loop());
            svc.drain();
        });
        assert!(matches!(
            svc.trace_json(ids[0], false),
            TraceLookup::Disabled
        ));
        // The job itself still runs to completion.
        assert!(svc
            .status_json(ids[0])
            .unwrap()
            .contains("\"status\":\"done\""));
    }

    #[test]
    fn cancel_before_start_reports_cancelled() {
        let svc = service(4);
        let ids = svc.submit(&manifest(1)).unwrap();
        assert_eq!(svc.cancel(ids[0]), Some("queued"));
        std::thread::scope(|s| {
            s.spawn(|| svc.worker_loop());
            svc.drain();
        });
        let done = svc.status_json(ids[0]).unwrap();
        assert!(done.contains("\"kind\":\"cancelled\""), "{done}");
        assert!(svc.cancel(77).is_none());
    }

    #[test]
    fn listing_pages_by_cursor_and_filters_by_state() {
        let svc = service(16);
        let ids = svc.submit(&manifest(5)).unwrap();
        // All queued: a full unfiltered page has every job, no cursor.
        let page = crate::wire::Json::parse(&svc.list_json(None, None, 50)).unwrap();
        let jobs = page
            .get("jobs")
            .and_then(crate::wire::Json::as_array)
            .unwrap();
        assert_eq!(jobs.len(), 5);
        assert!(page.get("next_cursor").is_none());

        // limit=2 truncates and hands back the last id as the cursor.
        let page = crate::wire::Json::parse(&svc.list_json(None, None, 2)).unwrap();
        let jobs = page
            .get("jobs")
            .and_then(crate::wire::Json::as_array)
            .unwrap();
        assert_eq!(jobs.len(), 2);
        let cursor = page
            .get("next_cursor")
            .and_then(crate::wire::Json::as_f64)
            .unwrap() as u64;
        assert_eq!(cursor, 1);
        // Resuming from the cursor yields the remainder, exactly once.
        let page = crate::wire::Json::parse(&svc.list_json(None, Some(cursor), 50)).unwrap();
        let jobs = page
            .get("jobs")
            .and_then(crate::wire::Json::as_array)
            .unwrap();
        let got: Vec<u64> = jobs
            .iter()
            .map(|j| j.get("id").and_then(crate::wire::Json::as_f64).unwrap() as u64)
            .collect();
        assert_eq!(got, vec![2, 3, 4]);

        std::thread::scope(|s| {
            s.spawn(|| svc.worker_loop());
            svc.drain();
        });

        // State filter: everything is done now, and done rows carry kind.
        let page = crate::wire::Json::parse(&svc.list_json(Some("queued"), None, 50)).unwrap();
        assert!(page
            .get("jobs")
            .and_then(crate::wire::Json::as_array)
            .unwrap()
            .is_empty());
        let page = crate::wire::Json::parse(&svc.list_json(Some("done"), None, 50)).unwrap();
        let jobs = page
            .get("jobs")
            .and_then(crate::wire::Json::as_array)
            .unwrap();
        assert_eq!(jobs.len(), ids.len());
        for j in jobs {
            assert_eq!(
                j.get("kind").and_then(crate::wire::Json::as_str),
                Some("op")
            );
            assert!(j.get("label").and_then(crate::wire::Json::as_str).is_some());
        }
    }

    #[test]
    fn list_truncation_flag_is_exact_at_the_boundary() {
        let svc = service(16);
        svc.submit(&manifest(3)).unwrap();
        // limit equals the match count: full page, no next_cursor.
        let page = crate::wire::Json::parse(&svc.list_json(None, None, 3)).unwrap();
        assert_eq!(
            page.get("jobs")
                .and_then(crate::wire::Json::as_array)
                .unwrap()
                .len(),
            3
        );
        assert!(page.get("next_cursor").is_none());
    }

    #[test]
    fn drain_rejects_new_submissions() {
        let svc = service(4);
        std::thread::scope(|s| {
            s.spawn(|| svc.worker_loop());
            svc.drain();
            assert!(matches!(
                svc.submit(&manifest(1)),
                Err(SubmitError::ShuttingDown)
            ));
        });
    }
}
