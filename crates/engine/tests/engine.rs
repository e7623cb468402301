//! Batch-engine behavior: determinism, deadlines, cancellation, retry
//! taxonomy, symbolic-analysis reuse across served jobs.

use std::time::{Duration, Instant};

use fts_engine::{Engine, RetryPolicy, SimJob, SimOutcome};
use fts_spice::analysis::TranConfig;
use fts_spice::netlist::{Netlist, SolverKind, Waveform};
use fts_spice::{CancelToken, Simulator};

/// An RC ladder with `stages` stages driven by a pulse — enough state to
/// make transients non-trivial, parameterized so different jobs differ.
fn rc_ladder(stages: usize, r: f64) -> Netlist {
    let mut nl = Netlist::new();
    let mut prev = nl.node("drive");
    nl.vsource(
        "V1",
        prev,
        Netlist::GROUND,
        Waveform::Pulse {
            v0: 0.0,
            v1: 1.0,
            delay: 1e-9,
            rise: 1e-9,
            fall: 1e-9,
            width: 40e-9,
            period: 0.0,
        },
    )
    .unwrap();
    for k in 0..stages {
        let next = nl.node(&format!("n{k}"));
        nl.resistor(&format!("R{k}"), prev, next, r).unwrap();
        nl.capacitor(&format!("C{k}"), next, Netlist::GROUND, 1e-12)
            .unwrap();
        prev = next;
    }
    nl
}

fn mixed_batch() -> Vec<SimJob> {
    let mut jobs = Vec::new();
    for k in 0..6 {
        let r = 1.0e3 * (1.0 + k as f64 * 0.1);
        jobs.push(
            SimJob::transient(rc_ladder(4, r), TranConfig::fixed(1e-9, 100e-9))
                .label(&format!("tran-{k}")),
        );
        jobs.push(SimJob::op(rc_ladder(3, r)).label(&format!("op-{k}")));
    }
    jobs.push(SimJob::dc_sweep(
        rc_ladder(2, 2.0e3),
        "V1",
        vec![0.0, 0.5, 1.0],
    ));
    jobs.push(SimJob::ac(rc_ladder(3, 1.0e3), "V1", vec![1e3, 1e6, 1e9]));
    jobs
}

#[test]
fn batch_outcomes_are_submission_ordered_and_thread_independent() {
    let sequential = Engine::new().threads(1).run(mixed_batch());
    for threads in [2, 4, 8] {
        let parallel = Engine::new().threads(threads).run(mixed_batch());
        assert_eq!(
            parallel.outcomes, sequential.outcomes,
            "threads={threads} diverged from sequential"
        );
    }
    assert_eq!(sequential.succeeded(), sequential.outcomes.len());
    // Stats stay aligned with submission order.
    assert_eq!(sequential.stats[0].label, "tran-0");
    assert_eq!(sequential.stats[2].label, "tran-1");
}

#[test]
fn expired_deadline_reports_deadline_exceeded_quickly() {
    // Without cancellation this transient runs ~10^8 timesteps — hours.
    // The deadline must cut it off within one timestep of expiry.
    let endless = SimJob::transient(rc_ladder(4, 1.0e3), TranConfig::fixed(1e-9, 0.1))
        .deadline(Duration::from_millis(20))
        .label("endless");
    let quick = SimJob::op(rc_ladder(3, 1.0e3)).label("quick");

    let t0 = Instant::now();
    let report = Engine::new().threads(2).run(vec![endless, quick]);
    let elapsed = t0.elapsed();

    assert!(
        matches!(report.outcomes[0], SimOutcome::DeadlineExceeded { .. }),
        "got {:?}",
        report.outcomes[0]
    );
    // The deadline job died on schedule, not at tstop.
    assert!(elapsed < Duration::from_secs(10), "took {elapsed:?}");
    // An expired neighbor does not poison the rest of the batch.
    assert!(report.outcomes[1].is_success());
    assert_eq!(report.succeeded(), 1);
}

#[test]
fn batch_kill_switch_cancels_in_flight_jobs() {
    let jobs: Vec<SimJob> = (0..3)
        .map(|k| {
            SimJob::transient(rc_ladder(4, 1.0e3), TranConfig::fixed(1e-9, 0.1))
                .label(&format!("endless-{k}"))
        })
        .collect();

    let batch = CancelToken::new();
    let killer = batch.clone();
    let t0 = Instant::now();
    let handle = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(30));
        killer.cancel();
    });
    let report = Engine::new().threads(2).run_cancellable(jobs, &batch);
    handle.join().unwrap();
    let elapsed = t0.elapsed();

    assert!(elapsed < Duration::from_secs(10), "took {elapsed:?}");
    for (k, outcome) in report.outcomes.iter().enumerate() {
        assert_eq!(*outcome, SimOutcome::Cancelled, "job {k}: {outcome:?}");
    }
}

#[test]
fn fatal_errors_are_not_retried() {
    // Sweeping a nonexistent source is NotFound — fatal, so even a
    // four-rung ladder consumes exactly one attempt.
    let job = SimJob::dc_sweep(rc_ladder(2, 1.0e3), "V_MISSING", vec![0.0, 1.0])
        .retry(RetryPolicy::ladder());
    let report = Engine::new().threads(1).run(vec![job]);
    match &report.outcomes[0] {
        SimOutcome::Failed { error, attempts } => {
            assert_eq!(*attempts, 1);
            assert!(!error.is_retryable(), "{error:?}");
        }
        other => panic!("expected Failed, got {other:?}"),
    }
    assert_eq!(report.stats[0].attempts, 1);
}

#[test]
fn ladder_policy_matches_full_policy_on_easy_circuits() {
    let full = Engine::new()
        .threads(1)
        .run(vec![SimJob::op(rc_ladder(3, 1.0e3))]);
    let ladder = Engine::new().threads(1).run(vec![
        SimJob::op(rc_ladder(3, 1.0e3)).retry(RetryPolicy::ladder())
    ]);
    // Linear circuit: plain Newton converges on the first rung, and the
    // solution is the same either way.
    assert_eq!(ladder.stats[0].attempts, 1);
    match (&full.outcomes[0], &ladder.outcomes[0]) {
        (SimOutcome::Op(a), SimOutcome::Op(b)) => assert_eq!(a.unknowns(), b.unknowns()),
        other => panic!("expected two op results, got {other:?}"),
    }
}

#[test]
fn symbolic_sharing_does_not_change_results() {
    // Two same-pattern sparse jobs run one at a time through the server's
    // execution hook: the second takes the first one's symbolic analysis
    // from the memo, and neither result differs by a bit from a lone
    // `Simulator::op`.
    use fts_telemetry::trace::JobTrace;
    let engine = Engine::new();
    let mut journals = Vec::new();
    for k in 0..2 {
        let mut nl = rc_ladder(30, 1.0e3 * (1.0 + k as f64));
        nl.set_solver(SolverKind::Sparse);
        let trace = JobTrace::new(4096);
        let job = SimJob::op(nl.clone()).trace(trace.clone());
        let (SimOutcome::Op(served), _) = engine.run_single(&job, &CancelToken::new()) else {
            panic!("expected an op result");
        };
        let alone = Simulator::new(&nl).op().expect("op");
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(served.unknowns()), bits(alone.unknowns()));
        assert_eq!(served, alone);
        journals.push(trace.snapshot());
    }
    let second: Vec<&str> = journals[1]
        .events
        .iter()
        .filter(|e| e.kind == "sparse_symbolic")
        .map(|e| e.detail)
        .collect();
    assert!(!second.is_empty(), "no sparse_symbolic event");
    assert!(second.iter().all(|&d| d == "reuse"), "{second:?}");
}

#[test]
fn transient_outcome_carries_decimated_waveforms() {
    let nl = rc_ladder(3, 1.0e3);
    let probe = nl.find_node("n2").unwrap();
    let job = SimJob::transient(nl, TranConfig::fixed(1e-10, 100e-9))
        .probes(&[probe])
        .max_samples(64);
    let report = Engine::new().threads(1).run(vec![job]);
    match &report.outcomes[0] {
        SimOutcome::Transient(w) => {
            assert_eq!(w.probes(), &[probe]);
            assert!(w.len() < 64);
            assert!(w.total_samples() >= 1000);
            assert!(w.stride() > 1);
            let v = w.voltage(probe).unwrap();
            assert_eq!(v.len(), w.len());
            // The ladder output charges toward the pulse level while the
            // pulse is high.
            let peak = v.iter().cloned().fold(0.0, f64::max);
            assert!(peak > 0.5, "peak {peak}");
        }
        other => panic!("expected Transient, got {other:?}"),
    }
}

#[test]
fn run_single_matches_batch_outcomes_exactly() {
    let batch = Engine::new().threads(2).run(mixed_batch());
    let engine = Engine::new();
    for (k, job) in mixed_batch().into_iter().enumerate() {
        let (outcome, stats) = engine.run_single(&job, &CancelToken::new());
        assert_eq!(
            outcome, batch.outcomes[k],
            "job {k} ({}) diverged from the batch path",
            stats.label
        );
        assert_eq!(stats.label, batch.stats[k].label);
        assert_eq!(stats.attempts, batch.stats[k].attempts);
    }
}

#[test]
fn run_single_honors_cancel_and_deadline() {
    let engine = Engine::new();
    // Pre-cancelled kill switch → Cancelled before any work.
    let token = CancelToken::new();
    token.cancel();
    let endless = SimJob::transient(rc_ladder(4, 1.0e3), TranConfig::fixed(1e-9, 0.1));
    let (outcome, _) = engine.run_single(&endless, &token);
    assert_eq!(outcome, SimOutcome::Cancelled);
    // A tiny per-job deadline layers on a fresh token.
    let bounded = endless.deadline(Duration::from_millis(20));
    let t0 = Instant::now();
    let (outcome, _) = engine.run_single(&bounded, &CancelToken::new());
    assert!(matches!(outcome, SimOutcome::DeadlineExceeded { .. }));
    assert!(t0.elapsed() < Duration::from_secs(5));
}

#[test]
fn traced_job_records_solver_events_in_its_own_ring() {
    use fts_telemetry::trace::JobTrace;
    let trace = JobTrace::new(256);
    let job = SimJob::op(rc_ladder(3, 1.0e3)).trace(trace.clone());
    let report = Engine::new().threads(1).run(vec![job]);
    assert_eq!(report.succeeded(), 1);

    let snap = trace.snapshot();
    let kinds: Vec<&str> = snap.events.iter().map(|e| e.kind).collect();
    for required in ["attempt", "homotopy_step", "newton_converged", "op_solved"] {
        assert!(kinds.contains(&required), "missing {required} in {kinds:?}");
    }
    assert_eq!(
        snap.events.last().map(|e| (e.kind, e.detail)),
        Some(("job_done", "op")),
        "journal must close with the outcome event"
    );
    for pair in snap.events.windows(2) {
        assert!(pair[0].t_us <= pair[1].t_us, "timestamps must be monotone");
    }

    // An untraced run must not leak events into someone else's ring.
    let before = trace.snapshot().events.len();
    let untraced = Engine::new()
        .threads(1)
        .run(vec![SimJob::op(rc_ladder(3, 1.0e3))]);
    assert_eq!(untraced.succeeded(), 1);
    assert_eq!(trace.snapshot().events.len(), before);
}

#[test]
fn trace_ring_stays_bounded_on_chatty_transients() {
    use fts_telemetry::trace::JobTrace;
    let trace = JobTrace::new(16);
    // 100 fixed steps emit well over 16 events; the ring must cap and
    // count the overflow rather than grow.
    let job = SimJob::transient(rc_ladder(4, 1.0e3), TranConfig::fixed(1e-9, 100e-9))
        .trace(trace.clone());
    let report = Engine::new().threads(1).run(vec![job]);
    assert_eq!(report.succeeded(), 1);
    let snap = trace.snapshot();
    assert_eq!(snap.capacity, 16);
    assert_eq!(snap.events.len(), 16);
    assert!(snap.dropped > 0, "overflow must be counted");
    assert_eq!(snap.events.last().map(|e| e.kind), Some("job_done"));
}
