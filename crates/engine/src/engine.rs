//! The batch engine: deterministic scheduling, deadlines, retries.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use fts_spice::{CancelToken, OpOptions, Simulator, SpiceError};

use crate::executor;
use crate::job::{Analysis, BatchReport, JobStats, SimJob, SimOutcome};
use crate::sink::WaveformSink;

/// A deadline-aware batch simulation scheduler.
///
/// Jobs execute on a work-stealing worker pool and come back in
/// **submission order**, bit-identical for any thread count (scheduling
/// affects only wall-clock time, never results). Each job gets a
/// cooperative [`CancelToken`] combining the batch-wide kill switch with
/// the job's own deadline; tokens are checked inside every Newton
/// iteration and at every transient timestep.
#[derive(Debug, Clone)]
pub struct Engine {
    threads: usize,
}

impl Engine {
    /// An engine using one worker per available core.
    pub fn new() -> Engine {
        Engine {
            threads: executor::auto_threads(),
        }
    }

    /// Sets the worker count (clamped to at least 1).
    pub fn threads(mut self, threads: usize) -> Engine {
        self.threads = threads.max(1);
        self
    }

    /// The configured worker count.
    pub fn thread_count(&self) -> usize {
        self.threads
    }

    /// Runs a batch to completion and returns submission-ordered
    /// outcomes.
    pub fn run(&self, jobs: Vec<SimJob>) -> BatchReport {
        self.run_cancellable(jobs, &CancelToken::new())
    }

    /// Like [`run`](Engine::run), with an external batch-wide kill
    /// switch: cancelling `batch` (from any thread) stops every queued
    /// and in-flight job at its next cancellation point. Cancelled jobs
    /// report [`SimOutcome::Cancelled`], not an error exit.
    pub fn run_cancellable(&self, jobs: Vec<SimJob>, batch: &CancelToken) -> BatchReport {
        let start = Instant::now();
        fts_telemetry::counter("engine.jobs.submitted", jobs.len() as u64);
        if fts_telemetry::enabled() {
            fts_telemetry::record("engine.queue.depth", jobs.len() as f64);
        }

        let in_flight = AtomicU64::new(0);
        let indices: Vec<usize> = (0..jobs.len()).collect();
        let per_job = executor::map_blocks(&indices, self.threads, |_, &i| {
            let job = &jobs[i];
            let now_running = in_flight.fetch_add(1, Ordering::Relaxed) + 1;
            if fts_telemetry::enabled() {
                fts_telemetry::record("engine.jobs.in_flight", now_running as f64);
            }
            let result = execute(job, batch);
            in_flight.fetch_sub(1, Ordering::Relaxed);
            result
        });

        let mut outcomes = Vec::with_capacity(per_job.len());
        let mut stats = Vec::with_capacity(per_job.len());
        for (o, s) in per_job {
            outcomes.push(o);
            stats.push(s);
        }
        BatchReport {
            outcomes,
            stats,
            wall_s: start.elapsed().as_secs_f64(),
            threads: self.threads,
        }
    }

    /// Runs exactly one job on the calling thread with the same
    /// semantics, telemetry, and token derivation as the batch path —
    /// retry ladder, per-job deadline layered on the caller's `cancel`
    /// kill switch — so a served single-job submission is bit-identical
    /// to the same job inside [`run`](Engine::run).
    ///
    /// This is the execution hook `fts-server`'s queue workers pull jobs
    /// through.
    pub fn run_single(&self, job: &SimJob, cancel: &CancelToken) -> (SimOutcome, JobStats) {
        fts_telemetry::counter("engine.jobs.submitted", 1);
        execute(job, cancel)
    }
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::new()
    }
}

/// The shared per-job execution path: derives the job's cancel token
/// (deadline layered on the batch kill switch), runs the retry ladder,
/// and books outcome/latency telemetry. Both the batch scheduler and
/// [`Engine::run_single`] funnel through here, which is what makes their
/// outcomes identical.
fn execute(job: &SimJob, batch: &CancelToken) -> (SimOutcome, JobStats) {
    let token = match job.deadline {
        Some(budget) => batch.child_with_deadline(budget),
        None => batch.clone(),
    };
    // Install the job's flight recorder (if any) for the whole run; every
    // trace event the solver stack emits on this thread lands in the
    // job's own ring until the guard drops.
    let _recorder = job.trace.as_ref().map(fts_telemetry::trace::install);
    let t0 = Instant::now();
    let (outcome, attempts) = run_job(job, &token);
    let wall_s = t0.elapsed().as_secs_f64();
    // a = attempts consumed, b = wall seconds; detail is the outcome tag.
    fts_telemetry::trace::emit("job_done", outcome.kind(), attempts as f64, wall_s);

    match &outcome {
        SimOutcome::Failed { .. } => fts_telemetry::counter("engine.jobs.failed", 1),
        SimOutcome::Cancelled => fts_telemetry::counter("engine.jobs.cancelled", 1),
        SimOutcome::DeadlineExceeded { .. } => {
            fts_telemetry::counter("engine.jobs.deadline_exceeded", 1)
        }
        _ => fts_telemetry::counter("engine.jobs.succeeded", 1),
    }
    if attempts > 1 {
        fts_telemetry::counter("engine.jobs.retries", (attempts - 1) as u64);
    }
    if fts_telemetry::enabled() {
        // `record` keeps a log-scale histogram, so p50/p99 job latency
        // comes out of the snapshot directly.
        fts_telemetry::record("engine.job.wall_s", wall_s);
    }

    let stats = JobStats {
        label: job.label.clone(),
        wall_s,
        attempts,
    };
    (outcome, stats)
}

/// Runs one job through its retry ladder. Returns the outcome and the
/// number of attempts consumed.
fn run_job(job: &SimJob, token: &CancelToken) -> (SimOutcome, usize) {
    let fallback = [OpOptions::full()];
    let policies: &[OpOptions] = if job.retry.attempts.is_empty() {
        &fallback
    } else {
        &job.retry.attempts
    };

    let mut attempts = 0;
    let mut last_err = None;
    for opts in policies {
        attempts += 1;
        // Stamp subsequent trace events with the 0-based attempt index;
        // a = Newton iteration budget for the attempt.
        fts_telemetry::trace::set_attempt(attempts as u32 - 1);
        fts_telemetry::trace::emit("attempt", "", opts.max_iterations as f64, 0.0);
        match attempt(job, *opts, token) {
            Ok(outcome) => return (outcome, attempts),
            Err(e) if e.is_cancellation() => {
                let outcome = match e {
                    SpiceError::Cancelled { .. } => SimOutcome::Cancelled,
                    _ => SimOutcome::DeadlineExceeded { attempts },
                };
                // "cancelled" or "deadline_exceeded", a = attempts used.
                fts_telemetry::trace::emit(
                    match outcome {
                        SimOutcome::Cancelled => "cancelled",
                        _ => "deadline",
                    },
                    "",
                    attempts as f64,
                    0.0,
                );
                return (outcome, attempts);
            }
            Err(e) if e.is_retryable() => {
                if attempts < policies.len() {
                    // a = attempt that failed (0-based), next rung follows.
                    fts_telemetry::trace::emit("retry", "", attempts as f64 - 1.0, 0.0);
                }
                last_err = Some(e);
            }
            Err(e) => return (SimOutcome::Failed { error: e, attempts }, attempts),
        }
    }
    let error = last_err.expect("loop ran at least once and only falls through on Err");
    (SimOutcome::Failed { error, attempts }, attempts)
}

/// One attempt at the job's analysis under one operating-point policy.
fn attempt(job: &SimJob, opts: OpOptions, token: &CancelToken) -> Result<SimOutcome, SpiceError> {
    let sim = Simulator::new(&job.netlist)
        .op_options(opts)
        .cancel_token(token.clone());
    match &job.analysis {
        Analysis::Op => {
            // Warm-start: seed Newton from a caller-supplied operating
            // point when its length matches this netlist's unknown
            // vector; otherwise fall back to the cold flat start.
            let seed = job
                .initial
                .as_deref()
                .filter(|x| x.len() == job.netlist.unknown_count());
            sim.op_at(0.0, seed).map(SimOutcome::Op)
        }
        Analysis::DcSweep { source, values } => {
            let mut sim = sim;
            sim.dc_sweep(source, values).map(SimOutcome::Sweep)
        }
        Analysis::Transient {
            config,
            probes,
            max_samples,
        } => {
            let mut sink = WaveformSink::new(&job.netlist, probes, *max_samples);
            sim.transient_into(config, &mut sink)?;
            Ok(SimOutcome::Transient(sink.finish()))
        }
        Analysis::Ac { source, freqs } => sim.ac(source, freqs).map(SimOutcome::Ac),
    }
}
