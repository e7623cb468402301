//! `mc_yield`: Monte Carlo yield estimates run in-process, one lockstep
//! chunk each, by one executor thread per core pulling from a FIFO queue.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use fts_circuit::experiments::xor3_lattice;
use fts_circuit::model::SwitchCircuitModel;
use fts_lattice::Lattice;
use fts_montecarlo::{EvalMode, MonteCarlo, VariationModel, YieldReport};

use crate::loadgen::{Done, Failure, Flight, Polled, StepRun, Submitted, Target};
use crate::serve::{ok_ops, sample_indices, Gate};
use crate::workloads::{Op, Stream, MC_DEFECT_PROB, MC_TRIALS};

/// The inputs every estimate shares: the paper's XOR3 lattice and the
/// nominal switch model extracted from the device.
pub struct McSetup {
    lattice: Lattice,
    nominal: SwitchCircuitModel,
}

/// Lanes per lockstep ensemble, the `MonteCarlo` default.
const ENSEMBLE_WIDTH: usize = 16;

impl McSetup {
    /// Extracts the nominal model, builds the lattice, and runs one
    /// warm-up estimate (which builds the nominal circuit).
    pub fn start() -> Result<McSetup, String> {
        let setup = McSetup {
            lattice: xor3_lattice(),
            nominal: SwitchCircuitModel::square_hfo2().map_err(|e| format!("model: {e}"))?,
        };
        setup.estimate(0, ENSEMBLE_WIDTH)?;
        Ok(setup)
    }

    fn config(master_seed: u64, width: usize) -> MonteCarlo {
        MonteCarlo::new(MC_TRIALS, master_seed)
            .variation(VariationModel::standard().with_defect_prob(MC_DEFECT_PROB))
            .eval(EvalMode::Dc)
            .ensemble_width(width)
            .threads(0)
    }

    pub fn estimate(&self, master_seed: u64, width: usize) -> Result<YieldReport, String> {
        McSetup::config(master_seed, width)
            .run(&self.lattice, 3, &self.nominal)
            .map_err(|e| e.to_string())
    }
}

struct Queue {
    jobs: VecDeque<(u64, u64, Instant)>,
    closed: bool,
}

/// The in-process executor `mc_yield` is driven through.
pub struct McTarget<'a> {
    setup: &'a McSetup,
    queue: Mutex<Queue>,
    ready: Condvar,
    done: Mutex<BTreeMap<u64, Result<Done, Failure>>>,
    next_id: AtomicU64,
}

impl<'a> McTarget<'a> {
    pub fn new(setup: &'a McSetup) -> McTarget<'a> {
        McTarget {
            setup,
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            done: Mutex::new(BTreeMap::new()),
            next_id: AtomicU64::new(0),
        }
    }

    /// One executor thread: run queued estimates until closed and empty.
    pub fn work(&self) {
        loop {
            let (id, seed, enqueued) = {
                let mut q = self.queue.lock().expect("queue poisoned");
                loop {
                    if let Some(job) = q.jobs.pop_front() {
                        break job;
                    }
                    if q.closed {
                        return;
                    }
                    q = self.ready.wait(q).expect("queue poisoned");
                }
            };
            let start = Instant::now();
            let report = self.setup.estimate(seed, ENSEMBLE_WIDTH);
            let outcome = report
                .map(|r| Done {
                    result: format!("{r:?}"),
                    wall_s: start.elapsed().as_secs_f64(),
                    attempts: 1,
                    hit: false,
                    queue_s: Some(start.duration_since(enqueued).as_secs_f64()),
                })
                .map_err(Failure::Outcome);
            self.done.lock().expect("done poisoned").insert(id, outcome);
        }
    }

    /// Lets the executor threads exit once the queue drains.
    pub fn close(&self) {
        self.queue.lock().expect("queue poisoned").closed = true;
        self.ready.notify_all();
    }
}

impl Target for McTarget<'_> {
    type Req = u64;

    fn prepare(&self, op: &Op) -> u64 {
        match op {
            Op::Estimate { master_seed } => *master_seed,
            other => unreachable!("mc_yield runs estimates, not {other:?}"),
        }
    }

    fn submit(&self, seed: &u64) -> Flight<Submitted> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.queue
            .lock()
            .expect("queue poisoned")
            .jobs
            .push_back((id, *seed, Instant::now()));
        self.ready.notify_one();
        Flight::Ready(Ok(id))
    }

    fn poll(&self, id: u64) -> Flight<Polled> {
        Flight::Ready(match self.done.lock().expect("done poisoned").remove(&id) {
            None => Ok(None),
            Some(outcome) => outcome.map(Some),
        })
    }

    fn queued(&self) -> Option<usize> {
        Some(self.queue.lock().expect("queue poisoned").jobs.len())
    }

    fn set_traced(&self, on: bool) {
        fts_telemetry::set_enabled(on);
    }
}

/// Largest tolerated difference between an ensemble estimate's voltage
/// statistics and its scalar twin's.
const TWIN_TOLERANCE_V: f64 = 1e-9;

fn counts_equal(a: &YieldReport, b: &YieldReport) -> bool {
    a.evaluated == b.evaluated
        && a.sim_failures == b.sim_failures
        && a.failure_causes == b.failure_causes
        && a.functional_pass == b.functional_pass
        && a.parametric_pass == b.parametric_pass
        && a.logical_fail == b.logical_fail
        && a.defects_injected == b.defects_injected
        && a.site_criticality == b.site_criticality
        && a.v_ol.n == b.v_ol.n
        && a.v_oh.n == b.v_oh.n
}

fn stat_deviation(a: &YieldReport, b: &YieldReport) -> f64 {
    [
        (a.v_ol.mean, b.v_ol.mean),
        (a.v_ol.std_dev, b.v_ol.std_dev),
        (a.v_ol.min, b.v_ol.min),
        (a.v_ol.max, b.v_ol.max),
        (a.v_oh.mean, b.v_oh.mean),
        (a.v_oh.std_dev, b.v_oh.std_dev),
        (a.v_oh.min, b.v_oh.min),
        (a.v_oh.max, b.v_oh.max),
    ]
    .iter()
    .map(|&(x, y)| (x - y).abs())
    .filter(|d| !d.is_nan())
    .fold(0.0, f64::max)
}

/// `sample` seeded estimates are run again: once as served (the report
/// must repeat byte for byte) and once through the scalar path
/// (`ensemble_width(1)`), which must agree on every count and to within
/// [`TWIN_TOLERANCE_V`] on every voltage statistic.
pub fn gate(setup: &McSetup, runs: &[StepRun], stream: &Stream, sample: usize, seed: u64) -> Gate {
    let ops = ok_ops(runs, stream);
    let mut gate = Gate::default();
    for i in sample_indices(ops.len(), sample, seed, 0x3C) {
        let (op, rec, done) = &ops[i];
        let Op::Estimate { master_seed } = op else {
            unreachable!("mc_yield runs estimates")
        };
        gate.checked += 1;
        let again = setup.estimate(*master_seed, ENSEMBLE_WIDTH);
        let scalar = setup.estimate(*master_seed, 1);
        match (again, scalar) {
            (Ok(again), Ok(scalar)) => {
                if format!("{again:?}") != done.result {
                    gate.mismatches
                        .push(format!("estimate {} did not repeat byte for byte", rec.k));
                }
                let dev = stat_deviation(&again, &scalar);
                if !counts_equal(&again, &scalar) || dev > TWIN_TOLERANCE_V {
                    gate.mismatches.push(format!(
                        "estimate {}: scalar twin differs (counts equal {}, max |dV| {dev:e})",
                        rec.k,
                        counts_equal(&again, &scalar)
                    ));
                }
            }
            (a, s) => gate
                .mismatches
                .push(format!("estimate {} rerun failed: {a:?} / {s:?}", rec.k)),
        }
    }
    gate
}
