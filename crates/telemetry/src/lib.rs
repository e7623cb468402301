//! Workspace-wide tracing, metrics, and solver-convergence diagnostics.
//!
//! Every hot path in the reproduction — the SPICE homotopy ladder, the
//! Monte Carlo trial loop, the synthesis pipeline, lattice path
//! enumeration — computes timing and convergence data that used to be
//! discarded. This crate collects it with three primitives:
//!
//! * **Spans** ([`span`]): hierarchical RAII timers. Each thread keeps its
//!   own span stack and buffers, so instrumentation never contends across
//!   the Monte Carlo worker pool; buffers merge deterministically at
//!   [`snapshot`] time (integer nanosecond sums keyed by sorted span path,
//!   so the aggregate is independent of merge order).
//! * **Counters** ([`counter`]): named monotonic event counts.
//! * **Value histograms** ([`record`]): log-scale streaming histograms
//!   with mean/min/max and p50/p90/p99 summaries — Newton iteration
//!   counts, residuals, per-trial wall times.
//! * **Per-job flight recorder** ([`trace`]): bounded drop-oldest rings
//!   of structured solver events attributable to a single job, installed
//!   on the worker thread for the duration of one run and snapshotted by
//!   the job's owner. Independent of the global on/off switch above.
//!
//! Telemetry is **off by default** and *no-op cheap* when disabled: every
//! entry point is a single relaxed atomic load followed by an immediate
//! return — no allocation, no clock read, no lock. Enable it with
//! [`set_enabled`], then export with [`snapshot`] as a human-readable
//! tree ([`TelemetryReport::render_tree`]), machine-readable JSON
//! ([`TelemetryReport::to_json`]), or a Chrome `chrome://tracing` /
//! Perfetto trace ([`TelemetryReport::to_chrome_trace`]).
//!
//! # Example
//!
//! ```
//! fts_telemetry::set_enabled(true);
//! fts_telemetry::reset();
//! {
//!     let _outer = fts_telemetry::span("solve");
//!     for k in 0..3 {
//!         let _inner = fts_telemetry::span("newton");
//!         fts_telemetry::counter("iterations", 7);
//!         fts_telemetry::record("residual", 1e-9 * (k + 1) as f64);
//!     }
//! }
//! let report = fts_telemetry::snapshot();
//! assert_eq!(report.counter("iterations"), 21);
//! assert_eq!(report.span("solve/newton").unwrap().count, 3);
//! assert_eq!(report.histogram("residual").unwrap().summary.n, 3);
//! fts_telemetry::set_enabled(false);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
mod metrics;
mod registry;
mod report;
mod span;
pub mod trace;

pub use metrics::{HistogramSummary, LogHistogram};
pub use report::{CounterStat, HistogramStat, SpanStat, TelemetryReport, TraceEvent};
pub use span::SpanGuard;

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Globally enables or disables telemetry collection.
///
/// Disabling does not clear already-collected data; use [`reset`].
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// True when telemetry collection is enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Opens a timed span named `name`, nested under the calling thread's
/// innermost open span. The span closes (and its duration is recorded)
/// when the returned guard drops.
///
/// When telemetry is disabled this is a single atomic load — the guard is
/// disarmed and nothing is allocated or locked.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    span::begin(name)
}

/// Adds `delta` to the named counter (no-op while disabled).
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    registry::with_buffer(|b| b.add_counter(name, delta));
}

/// Streams `value` into the named log-scale histogram (no-op while
/// disabled).
#[inline]
pub fn record(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    registry::with_buffer(|b| b.record_value(name, value));
}

/// Merges every thread's buffers into one [`TelemetryReport`].
///
/// The merge is deterministic: span/counter/histogram aggregates are
/// integer (or order-invariant float) reductions keyed by name and
/// emitted in sorted order; trace events sort by start time. Collection
/// continues — the buffers are not cleared.
pub fn snapshot() -> TelemetryReport {
    registry::snapshot()
}

/// Clears all collected data (open spans on live threads survive and will
/// report into fresh buffers when they close).
pub fn reset() {
    registry::reset();
}

/// Nanoseconds since the first telemetry call in this process — the common
/// clock for all spans and trace events.
pub(crate) fn now_ns() -> u64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    let anchor = ANCHOR.get_or_init(Instant::now);
    anchor.elapsed().as_nanos() as u64
}

#[cfg(test)]
pub(crate) mod test_lock {
    //! Telemetry state is global; tests that enable/reset it serialize on
    //! this lock so the default multi-threaded test runner cannot
    //! interleave them.
    use std::sync::{Mutex, MutexGuard};

    static LOCK: Mutex<()> = Mutex::new(());

    pub fn hold() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_calls_collect_nothing() {
        let _l = test_lock::hold();
        set_enabled(false);
        reset();
        {
            let _g = span("ghost");
            counter("ghost_count", 5);
            record("ghost_value", 1.0);
        }
        let r = snapshot();
        assert!(r.span("ghost").is_none());
        assert_eq!(r.counter("ghost_count"), 0);
        assert!(r.histogram("ghost_value").is_none());
    }

    #[test]
    fn disabled_fast_path_is_cheap() {
        // The disabled entry points must be a bare atomic check: 2M calls
        // in well under a second even on a loaded CI machine. (A single
        // allocation or mutex acquisition per call would blow this bound
        // by an order of magnitude.)
        let _l = test_lock::hold();
        set_enabled(false);
        let t0 = std::time::Instant::now();
        for k in 0..2_000_000u64 {
            let _g = span("off");
            counter("off", k);
            record("off", k as f64);
        }
        let dt = t0.elapsed();
        assert!(dt.as_secs_f64() < 2.0, "disabled path too slow: {dt:?}");
    }

    #[test]
    fn toggling_mid_span_does_not_panic() {
        let _l = test_lock::hold();
        set_enabled(false);
        reset();
        set_enabled(true);
        let g = span("outer");
        set_enabled(false);
        drop(g); // armed guard still closes cleanly
        let g2 = span("ignored"); // disarmed
        set_enabled(true);
        drop(g2);
        set_enabled(false);
    }
}
