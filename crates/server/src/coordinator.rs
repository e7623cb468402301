//! The coordinator: the remote backend of [`JobService`], placing jobs on
//! a fleet of worker processes over the versioned wire protocol.
//!
//! A coordinator is a [`Server`] whose job service runs no engine. It
//! shares admission, the registry, status documents, listing, the cache
//! surface, the router and the run loop with `fts serve`; this module
//! holds only what is remote: placement, probing, re-placement, the
//! proxied poll/cancel/trace, and the cache and shutdown fan-out.
//!
//! Submissions are validated locally (through the *same* [`JobBuilder`]
//! the workers use, so a bad manifest never half-lands on the fleet),
//! each job gets a coordinator-global id, and the job is forwarded to
//! the worker its id hashes to on the consistent-hash [`HashRing`].
//! Clients poll the coordinator exactly as they would a single server.
//! A worker's finished `job` row is lifted out of its status document as
//! a byte span and stored verbatim, then rendered by the same status
//! function the local path uses — so the embedded `result` object stays
//! byte-identical to what `fts batch` produces.
//!
//! **Lifecycle.** A remote job's state changes only through
//! `transition`, a pure function of (state, event) that names the one
//! network step to take next. The registry lock is held while it runs and
//! released while that step runs; the step's outcome is fed back as the
//! next event. The rules it encodes:
//!
//! * Recovery is *lazy*: when a status poll (or the drain loop) finds the
//!   owning worker dead — connection refused, or a restart answering
//!   `404` — the job's stored single-job manifest is placed on the next
//!   live worker on the ring, up to `route_attempts` times. Re-running is
//!   safe because results are deterministic.
//! * A job claimed for re-placement is `Rerouting`; if no worker takes it
//!   it is parked `Stranded`, holding **no** remote id, so a later poll
//!   re-places it instead of asking a restarted worker about an id that
//!   now belongs to someone else's job. A job whose attempts are
//!   exhausted closes with a synthetic `failed` row — drain always
//!   terminates.
//! * A done row is accepted only when its `cache.key` equals the key
//!   computed at admission. A restarted worker can reissue a remote id
//!   to another job; that job's row is treated like a `404`.
//! * An acknowledged cancel is binding. It is forwarded to the owning
//!   worker and recorded on the job; when the worker is unreachable, the
//!   job has no placement, or its worker is later lost, the job closes
//!   as a terminal cancelled row and is never placed again. A placement
//!   that lands after the job closed is recalled.
//!
//! **Admission.** All-or-nothing admission is kept, with one documented
//! relaxation: validation is atomic (whole manifest or nothing), but
//! forwarding is per-job, so a mid-manifest fleet failure recalls the
//! already-forwarded prefix before the whole submission is rejected with
//! `503 no_workers`. Decks are forwarded whole to one worker.
//!
//! **Result cache.** The coordinator's own cache is keyed by the same
//! canonical `cache_key/1` the workers use. Admission consults it before
//! routing, and accepted completions fill it with the `result` bytes of
//! the worker's row. `GET /v1/cache` reports the fleet-wide aggregate
//! plus a per-node breakdown, and `DELETE /v1/cache` fans the flush out
//! to every worker.
//!
//! **Drain ordering** (`POST /v1/shutdown`, SIGINT, or
//! [`ServerHandle`](crate::ServerHandle)): stop accepting, serve queued
//! connections, poll every routed job to completion (re-placing around
//! dead workers), and only then — with zero jobs in flight — cascade the
//! shutdown to each worker.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::client::{ClientError, ClientLimits, WireClient};
use crate::http::HttpLimits;
use crate::ring::HashRing;
use crate::server::{prom_escape, Server};
use crate::service::{
    cache_stats_fields, JobBuilder, JobEntry, JobService, JobState, TraceLookup,
    DEFAULT_CACHE_ENTRIES,
};
use crate::wire::{
    json_escape, member_span, single_job_manifest, BatchManifest, Json, SCHEMA_VERSION,
};
use fts_engine::{CacheStats, DEFAULT_CACHE_BYTES};

/// Coordinator tunables; every field has a production-safe default
/// except the worker list, which must be non-empty.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Bind address for the coordinator's own HTTP front door.
    pub addr: String,
    /// Worker wire addresses (`ip:port`), the ring's identity — two
    /// coordinators given the same list route identically.
    pub workers: Vec<String>,
    /// `/healthz` probe period per worker.
    pub probe_interval: Duration,
    /// Entry bound shared by the coordinator's own result cache and the
    /// finished (proxied-done or synthetic) rows retained before
    /// oldest-first eviction, as on the single-process server.
    pub cache_entries: usize,
    /// Byte bound on the coordinator's result-cache payloads.
    pub cache_bytes: usize,
    /// Times one job may be placed on a worker before the coordinator
    /// closes it out with a synthetic `failed` row.
    pub route_attempts: usize,
    /// Cascade `POST /v1/shutdown` to every worker after the
    /// coordinator's own drain empties (on by default; disable to leave
    /// the fleet running behind a restarting coordinator).
    pub cascade: bool,
    /// Connection worker threads.
    pub conn_workers: usize,
    /// Accepted-connection queue capacity (overflow → canned `429`).
    pub conn_backlog: usize,
    /// HTTP limits for the coordinator's own listener.
    pub limits: HttpLimits,
    /// Limits for the coordinator's outbound worker connections.
    pub client_limits: ClientLimits,
}

impl Default for CoordinatorConfig {
    fn default() -> CoordinatorConfig {
        CoordinatorConfig {
            addr: "127.0.0.1:8706".to_owned(),
            workers: Vec::new(),
            probe_interval: Duration::from_millis(250),
            cache_entries: DEFAULT_CACHE_ENTRIES,
            cache_bytes: DEFAULT_CACHE_BYTES,
            route_attempts: 8,
            cascade: true,
            conn_workers: 4,
            conn_backlog: 128,
            limits: HttpLimits::default(),
            client_limits: ClientLimits::default(),
        }
    }
}

/// The coordinator role: [`bind`](Coordinator::bind) returns a [`Server`]
/// whose job service places work on a worker fleet.
pub struct Coordinator;

impl Coordinator {
    /// Binds the coordinator's listener and builds the fleet view.
    /// `builder` is used for *validation only* — the coordinator never
    /// runs a job itself.
    ///
    /// # Errors
    ///
    /// `InvalidInput` for an empty worker list; socket errors from
    /// binding `config.addr`.
    pub fn bind(
        config: CoordinatorConfig,
        builder: Arc<dyn JobBuilder>,
    ) -> std::io::Result<Server> {
        if config.workers.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a coordinator needs at least one worker address",
            ));
        }
        let fleet = Fleet {
            workers: config
                .workers
                .iter()
                .map(|addr| WorkerSlot {
                    addr: addr.clone(),
                    client: WireClient::new(addr.clone()).limits(config.client_limits),
                    up: AtomicBool::new(true),
                    routed: AtomicU64::new(0),
                })
                .collect(),
            ring: HashRing::new(&config.workers),
            route_attempts: config.route_attempts.max(1),
            // Floor the interval: zero would turn the prober into a busy
            // loop hammering every worker's /healthz.
            probe_interval: config.probe_interval.max(Duration::from_millis(1)),
            cascade: config.cascade,
        };
        let service = JobService::with_backend(
            builder,
            crate::service::Backend::Remote(fleet),
            1,
            config.cache_entries,
        )
        .cache_bytes(config.cache_bytes)
        .trace_capacity(0);
        Server::new(
            &config.addr,
            service,
            0,
            config.conn_workers,
            config.conn_backlog,
            config.limits,
        )
    }
}

/// Where a remote job runs: a worker index and that worker's own job id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Placement {
    pub(crate) worker: usize,
    pub(crate) remote: u64,
}

/// A document that places jobs on a worker.
#[derive(Clone)]
pub(crate) enum Doc {
    /// A manifest, for `POST /v1/jobs`.
    Manifest(String),
    /// A raw deck, for `POST /v1/decks`.
    Deck(String),
}

/// One admitted job's placement and the document that places it again
/// after a worker loss; `None` for a job answered from the cache.
pub(crate) type Placed = Option<(Placement, Option<Doc>)>;

/// How one admission's jobs reach the fleet.
pub(crate) enum Source<'a> {
    /// Manifest jobs, each forwarded alone as a single-job manifest.
    Manifest(&'a BatchManifest),
    /// A deck's analyses, forwarded together as the raw deck: they share
    /// one elaborated netlist, so a deck is never split.
    Deck(&'a str),
}

/// One worker as the coordinator sees it: its client, health flag, and
/// route counter.
struct WorkerSlot {
    addr: String,
    client: WireClient,
    /// Flipped by the prober and by routing-time transport failures;
    /// optimistically `true` at startup so the first submissions do not
    /// wait a probe period.
    up: AtomicBool,
    /// Jobs ever placed on this worker.
    routed: AtomicU64,
}

/// The worker fleet behind a remote [`JobService`].
pub(crate) struct Fleet {
    workers: Vec<WorkerSlot>,
    ring: HashRing,
    route_attempts: usize,
    probe_interval: Duration,
    cascade: bool,
}

impl Fleet {
    /// Worker `w`'s address.
    pub(crate) fn addr(&self, w: usize) -> &str {
        &self.workers[w].addr
    }

    /// `(total, up)` worker counts.
    pub(crate) fn health(&self) -> (usize, usize) {
        let up = self
            .workers
            .iter()
            .filter(|w| w.up.load(Ordering::SeqCst))
            .count();
        (self.workers.len(), up)
    }

    /// Ring candidates for `id`, live workers first (ring order within
    /// each group) — down workers stay as a last resort because the
    /// prober's view can lag a recovery.
    fn placement_order(&self, id: u64) -> Vec<usize> {
        let candidates = self.ring.candidates(HashRing::key_for_id(id));
        let (live, down): (Vec<usize>, Vec<usize>) = candidates
            .into_iter()
            .partition(|&w| self.workers[w].up.load(Ordering::SeqCst));
        live.into_iter().chain(down).collect()
    }

    /// Posts `doc` to the first worker in `placement_order(id)` (skipping
    /// `exclude`) that admits exactly `jobs` jobs from it, returning the
    /// worker and their remote ids. Transport failures mark the worker
    /// down; a worker's own refusals (`429`/`503`) move on to the next
    /// candidate; a worker that admits an unexpected number of jobs has
    /// them recalled, so no orphaned duplicates keep running.
    fn place(
        &self,
        id: u64,
        doc: &Doc,
        jobs: usize,
        exclude: Option<usize>,
    ) -> Option<(usize, Vec<u64>)> {
        for w in self.placement_order(id) {
            if exclude == Some(w) {
                continue;
            }
            let slot = &self.workers[w];
            let posted = match doc {
                Doc::Manifest(manifest) => slot.client.submit_manifest(manifest),
                Doc::Deck(deck) => slot.client.submit_deck(deck),
            };
            match posted {
                Ok(remotes) if remotes.len() == jobs => {
                    slot.routed.fetch_add(jobs as u64, Ordering::Relaxed);
                    fts_telemetry::counter("coordinator.jobs.routed", jobs as u64);
                    return Some((w, remotes));
                }
                Ok(remotes) => {
                    for remote in remotes {
                        let _ = slot.client.cancel(remote);
                    }
                }
                Err(ClientError::Api(_)) => {}
                Err(_) => self.mark_down(w),
            }
        }
        None
    }

    /// Places the misses of one admission whose ids start at `base`,
    /// before anything is registered. Returns, per job, its placement and
    /// the document that re-places it after a worker loss (`None` for a
    /// multi-analysis deck, which cannot be re-posted one job at a time),
    /// or `None` when some miss found no worker — after recalling the
    /// placements already made.
    pub(crate) fn place_admission(
        &self,
        base: u64,
        missed: &[bool],
        source: &Source<'_>,
    ) -> Option<Vec<Placed>> {
        let mut placed = vec![None; missed.len()];
        match source {
            Source::Manifest(manifest) => {
                for (k, spec) in manifest.jobs.iter().enumerate() {
                    if !missed[k] {
                        continue;
                    }
                    // Pin the label: the worker would otherwise re-default
                    // it from its own (index 0) view. The key is
                    // label-independent, so the worker's key still equals
                    // the one computed here.
                    let mut spec = spec.clone();
                    spec.label = Some(spec.label_or_default(k));
                    let doc = Doc::Manifest(single_job_manifest(&spec, manifest.ensemble_width));
                    let Some((worker, remotes)) = self.place(base + k as u64, &doc, 1, None) else {
                        self.recall_all(&placed);
                        return None;
                    };
                    let at = Placement {
                        worker,
                        remote: remotes[0],
                    };
                    placed[k] = Some((at, Some(doc)));
                }
            }
            Source::Deck(deck) if missed.contains(&true) => {
                let doc = Doc::Deck((*deck).to_owned());
                let (worker, remotes) = self.place(base, &doc, missed.len(), None)?;
                let resubmit = (missed.len() == 1).then_some(doc);
                for (k, remote) in remotes.into_iter().enumerate() {
                    let at = Placement { worker, remote };
                    if missed[k] {
                        placed[k] = Some((at, resubmit.clone()));
                    } else {
                        // Answered from the cache: the worker's twin is
                        // not needed.
                        self.recall(at);
                    }
                }
            }
            Source::Deck(_) => {}
        }
        Some(placed)
    }

    /// Best-effort cancel of a placement the coordinator no longer needs.
    fn recall(&self, at: Placement) {
        let _ = self.workers[at.worker].client.cancel(at.remote);
    }

    /// Recalls every placement of an admission that is being rejected.
    pub(crate) fn recall_all(&self, placed: &[Placed]) {
        for (at, _) in placed.iter().flatten() {
            self.recall(*at);
        }
    }

    fn mark_down(&self, w: usize) {
        if self.workers[w].up.swap(false, Ordering::SeqCst) {
            fts_telemetry::counter("coordinator.workers.marked_down", 1);
        }
    }

    /// Fetches `at`'s status document and reads it as a [`Reply`].
    fn fetch(&self, at: Placement) -> Reply {
        match self.workers[at.worker].client.status(at.remote) {
            Ok(body) => Reply::parse(&body),
            Err(ClientError::Api(e)) if e.status == 404 => Reply::Lost,
            Err(ClientError::Api(_)) => Reply::Busy,
            Err(_) => {
                self.mark_down(at.worker);
                Reply::Lost
            }
        }
    }

    /// Forwards a cancel to `at`; the worker's `was` on success, `None`
    /// when the worker never heard it.
    fn forward_cancel(&self, at: Placement) -> Option<&'static str> {
        match self.workers[at.worker].client.cancel(at.remote) {
            Ok(body) => {
                let doc = Json::parse(&body).ok();
                Some(match doc.as_ref().and_then(|d| d.get("was")?.as_str()) {
                    Some("queued") => "queued",
                    Some("running") => "running",
                    Some("done") => "done",
                    _ => "routed",
                })
            }
            Err(e) => {
                if !matches!(e, ClientError::Api(_)) {
                    self.mark_down(at.worker);
                }
                None
            }
        }
    }

    /// Proxies `GET /v1/jobs/{id}/trace` to `at`, with the journal's
    /// `id` member replaced by the global id.
    fn trace(&self, at: Placement, id: u64, chrome: bool) -> TraceLookup {
        match self.workers[at.worker].client.trace(at.remote, chrome) {
            Ok(body) => TraceLookup::Journal(match member_span(&body, "id") {
                Some(span) => format!("{}{id}{}", &body[..span.start], &body[span.end..]),
                None => body,
            }),
            Err(ClientError::Api(e)) if e.code == "trace_disabled" => TraceLookup::Disabled,
            Err(_) => TraceLookup::Unknown,
        }
    }

    /// Runs the health prober until `stop`: `/healthz` every worker each
    /// probe period and flip the up flags.
    pub(crate) fn probe_until(&self, stop: &AtomicBool) {
        while !stop.load(Ordering::SeqCst) && !crate::signal::sigint_received() {
            for w in &self.workers {
                let alive = w.client.healthz().is_ok();
                if w.up.swap(alive, Ordering::SeqCst) != alive {
                    fts_telemetry::counter(
                        if alive {
                            "coordinator.workers.recovered"
                        } else {
                            "coordinator.workers.marked_down"
                        },
                        1,
                    );
                }
            }
            let mut slept = Duration::ZERO;
            while slept < self.probe_interval && !stop.load(Ordering::SeqCst) {
                let step = Duration::from_millis(10).min(self.probe_interval - slept);
                std::thread::sleep(step);
                slept += step;
            }
        }
    }

    /// `GET /v1/cache` on a coordinator: fleet-wide aggregate stats at
    /// the top level (`own` plus every reachable worker), with the
    /// coordinator's own counters and a per-worker breakdown alongside.
    pub(crate) fn cache_stats_json(&self, own: CacheStats) -> String {
        let mut agg = own;
        let mut rows = Vec::with_capacity(self.workers.len());
        for w in &self.workers {
            let stats = w.client.cache_stats().ok().and_then(|body| {
                let doc = Json::parse(&body).ok()?;
                let num = |k: &str| doc.get(k).and_then(Json::as_f64);
                Some(CacheStats {
                    entries: num("entries")? as usize,
                    bytes: num("bytes")? as usize,
                    hits: num("hits")? as u64,
                    misses: num("misses")? as u64,
                    evictions: num("evictions")? as u64,
                })
            });
            let addr = json_escape(&w.addr);
            rows.push(match stats {
                Some(s) => {
                    agg.entries += s.entries;
                    agg.bytes += s.bytes;
                    agg.hits += s.hits;
                    agg.misses += s.misses;
                    agg.evictions += s.evictions;
                    format!("{{\"worker\":\"{addr}\",{}}}", cache_stats_fields(&s))
                }
                None => format!("{{\"worker\":\"{addr}\",\"unreachable\":true}}"),
            });
        }
        format!(
            "{{\"schema_version\":{SCHEMA_VERSION},{},\"coordinator\":{{{}}},\"workers\":[{}]}}",
            cache_stats_fields(&agg),
            cache_stats_fields(&own),
            rows.join(","),
        )
    }

    /// Fans `DELETE /v1/cache` out to every worker (best effort — an
    /// unreachable worker flushes on its next restart anyway); returns
    /// how many flushed.
    pub(crate) fn flush_caches(&self) -> usize {
        self.workers
            .iter()
            .filter(|w| w.client.cache_flush().is_ok())
            .count()
    }

    /// The fleet's `/metrics` series: size, and per worker its up flag
    /// and placement count.
    pub(crate) fn render_metrics(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = writeln!(out, "fts_coordinator_workers {}", self.workers.len());
        for w in &self.workers {
            let addr = prom_escape(&w.addr);
            let up = u8::from(w.up.load(Ordering::SeqCst));
            let _ = writeln!(out, "fts_coordinator_worker_up{{worker=\"{addr}\"}} {up}");
            let _ = writeln!(
                out,
                "fts_coordinator_worker_routed_total{{worker=\"{addr}\"}} {}",
                w.routed.load(Ordering::Relaxed)
            );
        }
    }
}

/// What happened to a remote job — the input of [`transition`].
#[derive(Debug)]
pub(crate) enum Event {
    /// A client (or the drain loop) asked for the job's status.
    Poll,
    /// The worker at `at` answered a status fetch.
    Fetched { at: Placement, reply: Reply },
    /// A placement attempt ended: where the job landed, if anywhere.
    Placed(Option<Placement>),
    /// A client asked to cancel; the answer acknowledges it.
    Cancel,
    /// The cancel forwarded to `at` never reached the worker.
    CancelUnheard { at: Placement },
}

/// A worker's answer to a status fetch.
#[derive(Debug)]
pub(crate) enum Reply {
    /// Still queued or running there (the worker's own status word).
    Pending(&'static str),
    /// Finished: the worker's `job` row verbatim, its kind, and the
    /// row's `cache.key`.
    Done {
        kind: String,
        row: String,
        key: String,
    },
    /// The placement is gone: a `404` (restart or eviction) or a dead
    /// transport.
    Lost,
    /// Any other answer; ask again later.
    Busy,
}

impl Reply {
    /// Reads a worker's `GET /v1/jobs/{id}` document. The done row is
    /// lifted as a byte span, never re-rendered.
    fn parse(body: &str) -> Reply {
        let Ok(doc) = Json::parse(body) else {
            return Reply::Busy;
        };
        match doc.get("status").and_then(Json::as_str) {
            Some("queued") => Reply::Pending("queued"),
            Some("running") => Reply::Pending("running"),
            Some("done") => {
                let (Some(kind), Some(span)) = (
                    doc.get("kind").and_then(Json::as_str),
                    member_span(body, "job"),
                ) else {
                    return Reply::Busy;
                };
                let key = doc
                    .get("job")
                    .and_then(|j| j.get("cache")?.get("key")?.as_str());
                Reply::Done {
                    kind: kind.to_owned(),
                    row: body[span].to_owned(),
                    key: key.unwrap_or_default().to_owned(),
                }
            }
            _ => Reply::Busy,
        }
    }
}

/// The network step [`transition`] asks for, taken with the registry
/// unlocked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Action {
    /// Nothing: answer from the registry.
    None,
    /// Fetch the job's status from `at`.
    Fetch(Placement),
    /// Place the job's resubmission on a worker other than `exclude`.
    Place { exclude: Option<usize> },
    /// Forward the client's cancel to `at`.
    ForwardCancel(Placement),
    /// Cancel a placement that lost a race to the job's terminal state.
    Recall(Placement),
}

/// The remote lifecycle: applies `event` to `job` and names the network
/// step to take next. Pure — no I/O, no clock, no lock — so the model
/// test can drive it through thousands of seeded schedules.
pub(crate) fn transition(job: &mut JobEntry, event: Event, route_attempts: usize) -> Action {
    use JobState::{Done, Rerouting, Routed, Stranded};
    // Done is absorbing; a placement that lands after it is recalled.
    if job.state.is_done() {
        return match event {
            Event::Placed(Some(at)) => Action::Recall(at),
            _ => Action::None,
        };
    }
    match (job.state.clone(), event) {
        (Routed { at, .. }, Event::Poll) => Action::Fetch(at),
        (Stranded { attempts }, Event::Poll) => reroute(job, attempts, None, route_attempts),
        (Routed { at, attempts }, Event::Fetched { at: from, reply }) if at == from => {
            match reply {
                Reply::Pending(_) | Reply::Busy => Action::None,
                Reply::Done { kind, row, key } if key == job.key.to_string() => {
                    job.state = Done {
                        kind,
                        row,
                        at: Some(at),
                    };
                    Action::None
                }
                // Lost, or another job's row under a reissued remote id.
                Reply::Done { .. } | Reply::Lost => {
                    reroute(job, attempts, Some(at.worker), route_attempts)
                }
            }
        }
        (Rerouting { attempts }, Event::Placed(placed)) => {
            job.state = match placed {
                Some(at) => Routed {
                    at,
                    attempts: attempts + 1,
                },
                None => Stranded {
                    attempts: attempts + 1,
                },
            };
            Action::None
        }
        (Routed { at, .. }, Event::Cancel) => {
            job.cancel.cancel();
            Action::ForwardCancel(at)
        }
        // A cancel with no reachable placement to forward it to, or one
        // the owning worker never heard, is recorded here.
        (Stranded { .. } | Rerouting { .. }, Event::Cancel | Event::CancelUnheard { .. }) => {
            job.cancel.cancel();
            close(job, None)
        }
        (Routed { at, .. }, Event::CancelUnheard { at: to }) if at == to => close(job, None),
        // The job moved while the cancel was in flight: it binds there.
        (Routed { at, .. }, Event::CancelUnheard { .. }) => Action::ForwardCancel(at),
        // Only the claiming thread commits a placement; recall any other.
        (_, Event::Placed(Some(at))) => Action::Recall(at),
        // Stale fetch answers, polls mid-placement, and local states.
        _ => Action::None,
    }
}

/// The job lost its placement (or never got one): claim it for
/// re-placement, or close it when it must not run again.
fn reroute(
    job: &mut JobEntry,
    attempts: usize,
    exclude: Option<usize>,
    route_attempts: usize,
) -> Action {
    if job.cancel.cancel_requested() {
        return close(job, None);
    }
    if attempts >= route_attempts {
        let why = format!("worker unavailable after {attempts} route attempts");
        return close(job, Some(&why));
    }
    if job.resubmit.is_none() {
        return close(
            job,
            Some(
                "a worker was lost holding a multi-analysis deck job, which cannot be \
                 re-routed standalone",
            ),
        );
    }
    job.state = JobState::Rerouting { attempts };
    Action::Place { exclude }
}

/// Closes `job` with a synthetic row — `cancelled`, or `failed` with
/// `error` — shaped like a worker's done row, so pollers terminate and
/// listing reports the kind.
fn close(job: &mut JobEntry, error: Option<&str>) -> Action {
    let label = json_escape(&job.label);
    let (kind, result) = match error {
        None => ("cancelled", "{\"kind\":\"cancelled\"}".to_owned()),
        Some(e) => (
            "failed",
            format!("{{\"kind\":\"failed\",\"error\":\"{}\"}}", json_escape(e)),
        ),
    };
    job.state = JobState::Done {
        kind: kind.to_owned(),
        row: format!("{{\"label\":\"{label}\",\"result\":{result}}}"),
        at: None,
    };
    Action::None
}

/// What the driving thread learned while carrying out a job's actions.
#[derive(Clone, Copy)]
struct Heard {
    /// `done` or `routed`: the job's state before the event.
    before: &'static str,
    /// The owning worker's word: its status for a fetch (`queued` after
    /// a fresh placement), or the `was` of a cancel it acknowledged.
    said: Option<&'static str>,
}

impl JobService {
    /// Feeds `event` to job `id`'s lifecycle and carries out each action
    /// it names, with the registry unlocked, until none is left; then
    /// answers through `answer` under the lock. `None` when the job is
    /// unknown or was evicted meanwhile.
    fn drive<T>(
        &self,
        fleet: &Fleet,
        id: u64,
        mut event: Event,
        answer: impl Fn(&JobEntry, Heard) -> T,
    ) -> Option<T> {
        let mut heard = Heard {
            before: "routed",
            said: None,
        };
        loop {
            let (action, resubmit) = {
                let mut reg = self.lock();
                let entry = reg.jobs.get_mut(&id)?;
                let was_done = entry.state.is_done();
                if matches!(event, Event::Poll | Event::Cancel) {
                    heard.before = if was_done { "done" } else { "routed" };
                }
                let action = transition(entry, event, fleet.route_attempts);
                let newly_done = !was_done && entry.state.is_done();
                if newly_done {
                    self.book_done(entry);
                }
                let resubmit = match action {
                    Action::Place { .. } => entry.resubmit.clone(),
                    _ => None,
                };
                let out = (action == Action::None).then(|| answer(entry, heard));
                if newly_done {
                    reg.retire(id);
                }
                match out {
                    Some(out) => return Some(out),
                    None => (action, resubmit),
                }
            };
            let next = match action {
                Action::Fetch(at) => {
                    let reply = fleet.fetch(at);
                    if let Reply::Pending(status) = reply {
                        heard.said = Some(status);
                    }
                    Some(Event::Fetched { at, reply })
                }
                Action::Place { exclude } => {
                    let doc = resubmit.expect("only resubmittable jobs are placed again");
                    let placed = fleet.place(id, &doc, 1, exclude).map(|(worker, remotes)| {
                        fts_telemetry::counter("coordinator.jobs.rerouted", 1);
                        heard.said = Some("queued");
                        Placement {
                            worker,
                            remote: remotes[0],
                        }
                    });
                    Some(Event::Placed(placed))
                }
                Action::ForwardCancel(at) => match fleet.forward_cancel(at) {
                    Some(was) => {
                        heard.said = Some(was);
                        None
                    }
                    None => Some(Event::CancelUnheard { at }),
                },
                Action::Recall(at) => {
                    fleet.recall(at);
                    None
                }
                Action::None => unreachable!("answered above"),
            };
            match next {
                Some(next) => event = next,
                None => return self.lock().jobs.get(&id).map(|e| answer(e, heard)),
            }
        }
    }

    /// Books a job the lifecycle just closed: a worker's row fills the
    /// result cache (successes only, byte span of its `result`), and the
    /// telemetry counter names how the job ended.
    fn book_done(&self, entry: &JobEntry) {
        let JobState::Done { kind, row, at } = &entry.state else {
            return;
        };
        let name = match (at, kind.as_str()) {
            (Some(_), _) => "coordinator.jobs.completed",
            (None, "cancelled") => "coordinator.jobs.cancelled_closed",
            (None, _) => "coordinator.jobs.failed_closed",
        };
        fts_telemetry::counter(name, 1);
        let cacheable = match kind.as_str() {
            "op" => "op",
            "sweep" => "sweep",
            "transient" => "transient",
            "ac" => "ac",
            _ => return,
        };
        if at.is_some() && entry.mode.writes() {
            let span = |member| member_span(row, member).map(|span| &row[span]);
            if let Some(result) = span("result") {
                let attempts = span("attempts").and_then(|a| a.parse().ok());
                self.cache.insert(
                    entry.key,
                    cacheable,
                    result.to_owned(),
                    attempts.unwrap_or(1),
                );
            }
        }
    }

    /// `GET /v1/jobs/{id}` on a coordinator: the stored row, or a live
    /// fetch from the owning worker — re-placing the job when the worker
    /// lost it.
    pub(crate) fn remote_status(&self, fleet: &Fleet, id: u64) -> Option<String> {
        self.drive(fleet, id, Event::Poll, |entry, heard| {
            entry.status_json(id, heard.said)
        })
    }

    /// `DELETE /v1/jobs/{id}` on a coordinator: forwarded to the owning
    /// worker; binding even when no worker hears it.
    pub(crate) fn remote_cancel(&self, fleet: &Fleet, id: u64) -> Option<&'static str> {
        self.drive(fleet, id, Event::Cancel, |_, heard| {
            heard.said.unwrap_or(heard.before)
        })
    }

    /// `GET /v1/jobs/{id}/trace` on a coordinator: proxied to wherever the
    /// job runs (or last ran). Jobs that never ran anywhere reachable —
    /// cache hits, synthetic close-outs, jobs between placements — have
    /// no trace.
    pub(crate) fn remote_trace(&self, fleet: &Fleet, id: u64, chrome: bool) -> TraceLookup {
        let at = match self.lock().jobs.get(&id).map(|e| &e.state) {
            Some(JobState::Routed { at, .. } | JobState::Done { at: Some(at), .. }) => *at,
            _ => return TraceLookup::Unknown,
        };
        fleet.trace(at, id, chrome)
    }

    /// Polls every open job to completion (re-placing around dead
    /// workers as usual), then cascades the shutdown to the fleet when
    /// configured. Terminates because every poll of an unreachable job
    /// burns one of its bounded route attempts.
    pub(crate) fn remote_drain(&self, fleet: &Fleet) {
        loop {
            let mut open: Vec<u64> = self
                .lock()
                .jobs
                .iter()
                .filter(|(_, e)| !e.state.is_done())
                .map(|(&id, _)| id)
                .collect();
            if open.is_empty() {
                break;
            }
            open.sort_unstable();
            for id in open {
                let _ = self.remote_status(fleet, id);
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        if fleet.cascade {
            for w in &fleet.workers {
                let _ = w.client.shutdown();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fts_engine::{CacheKey, CacheMode};
    use fts_spice::netlist::Netlist;
    use fts_spice::CancelToken;

    fn entry(label: &str, key: CacheKey, resubmit: Option<Doc>, state: JobState) -> JobEntry {
        JobEntry {
            label: label.to_owned(),
            key,
            mode: CacheMode::Default,
            job: None,
            out: Netlist::GROUND,
            waveform: false,
            cancel: CancelToken::new(),
            trace: None,
            resubmit,
            state,
        }
    }

    #[test]
    fn synthetic_failed_is_a_terminal_done_document() {
        let doc = Some(Doc::Manifest(String::new()));
        let mut job = entry(
            "lat\"tice",
            CacheKey(1),
            doc,
            JobState::Stranded { attempts: 3 },
        );
        assert_eq!(transition(&mut job, Event::Poll, 3), Action::None);
        let body = job.status_json(7, None);
        let doc = Json::parse(&body).expect("synthetic row parses");
        assert_eq!(doc.get("id").and_then(Json::as_f64), Some(7.0));
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("done"));
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some("failed"));
        let row = doc.get("job").unwrap();
        assert_eq!(row.get("label").and_then(Json::as_str), Some("lat\"tice"));
        let result = row.get("result").unwrap();
        assert_eq!(result.get("kind").and_then(Json::as_str), Some("failed"));
        assert!(result
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("3 route attempts"));
    }

    #[test]
    fn empty_worker_list_refuses_to_bind() {
        struct Never;
        impl JobBuilder for Never {
            fn build(
                &self,
                _spec: &crate::wire::JobSpec,
                index: usize,
            ) -> Result<crate::service::BuiltJob, crate::wire::WireError> {
                Err(crate::wire::WireError::job(
                    "unknown_function",
                    index,
                    "never",
                ))
            }
        }
        let cfg = CoordinatorConfig {
            addr: "127.0.0.1:0".into(),
            ..CoordinatorConfig::default()
        };
        let Err(err) = Coordinator::bind(cfg, Arc::new(Never)) else {
            panic!("bind must refuse an empty worker list");
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    /// splitmix64: the schedule generator, seeded per schedule.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn one_in(&mut self, n: u64) -> bool {
            self.next().is_multiple_of(n)
        }
    }

    const ROUTE_ATTEMPTS: usize = 4;

    /// A job on a fake worker: the model job it runs and how it ended.
    struct FakeJob {
        owner: usize,
        done: bool,
        cancelled: bool,
    }

    /// A fake worker. Remote ids index `jobs`, so a restart, which
    /// forgets every job, reissues ids from 0 — to other jobs.
    struct FakeWorker {
        up: bool,
        jobs: Vec<FakeJob>,
    }

    fn key_of(j: usize) -> CacheKey {
        CacheKey(1000 + j as u128)
    }

    /// The row a fake worker serves for model job `j`.
    fn row_of(j: usize) -> String {
        format!("{{\"ran\":{j}}}")
    }

    /// A socket-free model of the remote lifecycle: jobs driven only
    /// through [`transition`], against a fake fleet whose workers finish
    /// jobs, restart, die, and refuse, with every network step free to
    /// interleave with any other event.
    struct Model {
        seed: u64,
        rng: Rng,
        workers: Vec<FakeWorker>,
        jobs: Vec<JobEntry>,
        /// Oracle: the placement each job's latest successful placement
        /// returned, with a serial number — a restarted worker can hand
        /// out the same (worker, remote) pair again.
        granted: Vec<Option<(Placement, u64)>>,
        serials: u64,
        /// Oracle: serials of the placements a fetch reported gone (or
        /// holding another job's row).
        lost: Vec<Vec<u64>>,
        /// A client was told its cancel of the job was acknowledged.
        acked: Vec<bool>,
        /// Network steps in flight: job, action, and the serial of the
        /// placement a fetch targets.
        in_flight: Vec<(usize, Action, Option<u64>)>,
        /// Workers may refuse placements and answer fetches `Busy`.
        flaky: bool,
        trail: Vec<String>,
    }

    impl Model {
        fn new(seed: u64) -> Model {
            let mut rng = Rng(seed);
            let workers = 1 + rng.below(2);
            let jobs = 2 + rng.below(3);
            let mut m = Model {
                seed,
                rng,
                workers: (0..workers)
                    .map(|_| FakeWorker {
                        up: true,
                        jobs: Vec::new(),
                    })
                    .collect(),
                jobs: Vec::new(),
                granted: vec![None; jobs],
                serials: 0,
                lost: vec![Vec::new(); jobs],
                acked: vec![false; jobs],
                in_flight: Vec::new(),
                flaky: false,
                trail: Vec::new(),
            };
            for j in 0..jobs {
                // One job in five is a multi-analysis deck job: it
                // cannot be placed again.
                let resubmit = (!m.rng.one_in(5)).then(|| Doc::Manifest(String::new()));
                let at = m.place(j, None).expect("admission finds the fleet up");
                let state = JobState::Routed { at, attempts: 1 };
                m.jobs
                    .push(entry(&format!("j{j}"), key_of(j), resubmit, state));
            }
            m.flaky = true;
            m
        }

        fn fail(&self, what: &str) -> ! {
            panic!(
                "seed {}: {what}\n{}",
                self.seed,
                self.trail[self.trail.len().saturating_sub(40)..].join("\n")
            );
        }

        fn place(&mut self, j: usize, exclude: Option<usize>) -> Option<Placement> {
            let n = self.workers.len();
            for k in 0..n {
                let w = (j + k) % n;
                if exclude == Some(w) || !self.workers[w].up {
                    continue;
                }
                if self.flaky && self.rng.one_in(8) {
                    continue; // the worker's own 429/503
                }
                let remote = self.workers[w].jobs.len() as u64;
                self.workers[w].jobs.push(FakeJob {
                    owner: j,
                    done: false,
                    cancelled: false,
                });
                let at = Placement { worker: w, remote };
                self.serials += 1;
                self.granted[j] = Some((at, self.serials));
                return Some(at);
            }
            None
        }

        fn fake_job(&mut self, at: Placement) -> Option<&mut FakeJob> {
            let worker = &mut self.workers[at.worker];
            if !worker.up {
                return None;
            }
            worker.jobs.get_mut(at.remote as usize)
        }

        /// Carries out one network step against the fake fleet and
        /// returns the event it produces, if any.
        fn perform(&mut self, j: usize, action: Action) -> Option<Event> {
            match action {
                Action::Fetch(at) => {
                    let busy = self.flaky && self.rng.one_in(10);
                    let reply = match self.fake_job(at) {
                        _ if busy => Reply::Busy,
                        None => Reply::Lost,
                        Some(fj) if !fj.done => Reply::Pending("running"),
                        Some(fj) => Reply::Done {
                            kind: if fj.cancelled { "cancelled" } else { "op" }.to_owned(),
                            row: row_of(fj.owner),
                            key: key_of(fj.owner).to_string(),
                        },
                    };
                    Some(Event::Fetched { at, reply })
                }
                Action::Place { exclude } => Some(Event::Placed(self.place(j, exclude))),
                Action::ForwardCancel(at) => match self.fake_job(at) {
                    Some(fj) => {
                        fj.cancelled = true;
                        None
                    }
                    None => Some(Event::CancelUnheard { at }),
                },
                Action::Recall(at) => {
                    if let Some(fj) = self.fake_job(at) {
                        fj.cancelled = true;
                    }
                    None
                }
                Action::None => None,
            }
        }

        /// Feeds `event` to job `j` and checks the invariants.
        fn apply(&mut self, j: usize, event: Event) {
            let seen = format!("job {j} ← {event:?}");
            let before = self.jobs[j].state.clone();
            let action = transition(&mut self.jobs[j], event, ROUTE_ATTEMPTS);
            self.trail
                .push(format!("{seen} → {action:?}, {:?}", self.jobs[j].state));

            let state = &self.jobs[j].state;
            if before.is_done() && *state != before {
                self.fail("done is not absorbing");
            }
            if self.acked[j] && matches!(action, Action::Place { .. }) {
                self.fail("a placement after an acknowledged cancel");
            }
            if let JobState::Routed { at, .. } = state {
                match self.granted[j] {
                    Some((held, serial)) if held == *at && !self.lost[j].contains(&serial) => {}
                    _ => self.fail("routed on a remote id the job does not hold"),
                }
            }
            if let JobState::Done {
                row, at: Some(_), ..
            } = state
            {
                if !before.is_done() && *row != row_of(j) {
                    self.fail("accepted a done row under another job's key");
                }
            }
            if action != Action::None {
                let serial = match (action, self.granted[j]) {
                    (Action::Fetch(at), Some((held, serial))) if held == at => Some(serial),
                    _ => None,
                };
                self.in_flight.push((j, action, serial));
            }
        }

        fn settle_one(&mut self, k: usize) {
            let (j, action, serial) = self.in_flight.swap_remove(k);
            let Some(event) = self.perform(j, action) else {
                return;
            };
            if let (Event::Fetched { reply, .. }, Some(serial)) = (&event, serial) {
                let foreign =
                    matches!(reply, Reply::Done { key, .. } if *key != key_of(j).to_string());
                if foreign || matches!(reply, Reply::Lost) {
                    self.lost[j].push(serial);
                }
            }
            self.apply(j, event);
        }

        fn finish_jobs(&mut self, w: usize) {
            for fj in &mut self.workers[w].jobs {
                fj.done = true;
            }
        }

        fn step(&mut self) {
            let (jobs, workers) = (self.jobs.len(), self.workers.len());
            let j = self.rng.below(jobs);
            let w = self.rng.below(workers);
            match self.rng.below(10) {
                0 | 1 => self.apply(j, Event::Poll),
                2 => {
                    self.acked[j] = true;
                    self.apply(j, Event::Cancel);
                }
                3..=5 if !self.in_flight.is_empty() => {
                    let k = self.rng.below(self.in_flight.len());
                    self.settle_one(k);
                }
                6 | 7 => {
                    // The worker finishes one of its open jobs.
                    let open = self.workers[w].jobs.iter().filter(|fj| !fj.done).count();
                    if open > 0 {
                        let pick = self.rng.below(open);
                        let mut open = self.workers[w].jobs.iter_mut().filter(|fj| !fj.done);
                        open.nth(pick).expect("counted above").done = true;
                    }
                }
                8 => {
                    self.trail.push(format!("worker {w} restarts"));
                    self.workers[w].jobs.clear();
                    self.workers[w].up = true;
                }
                _ => {
                    self.trail.push(format!("worker {w} dies"));
                    self.workers[w].up = false;
                }
            }
        }

        /// Settles everything in flight, then either revives or kills the
        /// whole fleet and polls until every job is done — within a bound
        /// set by `ROUTE_ATTEMPTS`, or the drain would not terminate.
        fn drain(&mut self) {
            self.flaky = false;
            while !self.in_flight.is_empty() {
                self.settle_one(self.in_flight.len() - 1);
            }
            let revive = self.rng.one_in(2);
            for w in &mut self.workers {
                if !revive {
                    w.up = false;
                } else if !w.up {
                    w.jobs.clear();
                    w.up = true;
                }
            }
            for _ in 0..ROUTE_ATTEMPTS + 2 {
                for w in 0..self.workers.len() {
                    self.finish_jobs(w);
                }
                let open: Vec<usize> = (0..self.jobs.len())
                    .filter(|&j| !self.jobs[j].state.is_done())
                    .collect();
                if open.is_empty() {
                    return;
                }
                for j in open {
                    self.apply(j, Event::Poll);
                    while !self.in_flight.is_empty() {
                        self.settle_one(self.in_flight.len() - 1);
                    }
                }
            }
            self.fail("a job never reached done");
        }
    }

    /// Thousands of seeded schedules of poll / cancel / placement /
    /// worker progress / restart / death, interleaved arbitrarily with
    /// the network steps in flight. Invariants: done is absorbing; after
    /// an acknowledged cancel no action is a placement; only a routed job
    /// holds a remote id, and only the one its latest placement returned;
    /// a done row under another job's key is never accepted; and every
    /// schedule reaches done.
    #[test]
    fn remote_lifecycle_model_holds_its_invariants() {
        for seed in 0..4000 {
            let mut model = Model::new(seed);
            let steps = 20 + model.rng.below(60);
            for _ in 0..steps {
                model.step();
            }
            model.drain();
        }
    }
}
