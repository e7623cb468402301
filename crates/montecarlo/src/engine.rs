//! The ensemble engine: configuration, trial evaluation, and the
//! [`YieldReport`].
//!
//! Each trial draws an independent random stream from `(master_seed,
//! trial_index)`, realizes one "fabricated" lattice — crosspoint defects
//! plus a die corner and per-switch mismatch — and evaluates it logically
//! and (optionally) electrically against the nominal function. Results
//! stream into per-block accumulators that merge in fixed block order, so
//! the report is bit-identical for every thread count.

use std::time::Instant;

use fts_circuit::lattice_netlist::{pwl_from_bits, BenchConfig, LatticeCircuit};
use fts_circuit::model::SwitchCircuitModel;
use fts_engine::executor::{auto_threads, blocks, map_blocks};
use fts_lattice::defects::{inject_all, Fault};
use fts_lattice::Lattice;
use fts_logic::TruthTable;
use fts_spice::analysis::TranConfig;
use fts_spice::{measure, LaneOutcome, NodeId, OpEnsemble, OpOptions, Simulator, Waveform};

use crate::error::McError;
use crate::rng::trial_rng;
use crate::stats::{Histogram, SummaryStats, Welford};
use crate::variation::VariationModel;

/// Pass/fail limits for *parametric* yield (§V electrical margins). A trial
/// that reads the right logic levels but violates these margins is
/// functional yet parametrically failing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpecLimits {
    /// Maximum tolerated low output level \[V\] (paper margin: 0.3 V
    /// against the nominal V_OL ≈ 0.22 V).
    pub v_ol_max: f64,
    /// Minimum tolerated high output level \[V\].
    pub v_oh_min: f64,
    /// Maximum tolerated 10–90% rise time \[s\], when transients run.
    pub t_rise_max: Option<f64>,
    /// Maximum tolerated 90–10% fall time \[s\], when transients run.
    pub t_fall_max: Option<f64>,
}

impl SpecLimits {
    /// Limits scaled to a bench: `V_OL ≤ 0.3 V`, `V_OH ≥ 0.7·VDD`, no
    /// timing limits.
    pub fn for_bench(bench: &BenchConfig) -> SpecLimits {
        SpecLimits {
            v_ol_max: 0.3,
            v_oh_min: 0.7 * bench.vdd,
            t_rise_max: None,
            t_fall_max: None,
        }
    }
}

impl Default for SpecLimits {
    fn default() -> SpecLimits {
        SpecLimits::for_bench(&BenchConfig::default())
    }
}

/// Per-cause breakdown of trials abandoned on a simulator failure.
///
/// A generic "the simulator failed" bucket hides whether an ensemble is
/// hitting convergence trouble (a solver/settings problem) or sampling
/// non-physical parameters (a variation-model problem); this split keeps
/// the two diagnosable from the [`YieldReport`] alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimFailureCauses {
    /// Newton–Raphson failed even after every homotopy fallback.
    pub no_convergence: u64,
    /// The MNA matrix was singular despite gmin regularization.
    pub singular_matrix: u64,
    /// The perturbed trial circuit could not be built — model extraction
    /// or netlist construction rejected the sampled parameters.
    pub build: u64,
    /// Anything else (defect injection, lookups, configuration).
    pub other: u64,
}

impl SimFailureCauses {
    /// Total failed trials across all causes.
    pub fn total(&self) -> u64 {
        self.no_convergence + self.singular_matrix + self.build + self.other
    }

    fn merge(&mut self, o: &SimFailureCauses) {
        self.no_convergence += o.no_convergence;
        self.singular_matrix += o.singular_matrix;
        self.build += o.build;
        self.other += o.other;
    }

    fn classify(&mut self, e: &fts_circuit::CircuitError) {
        use fts_circuit::CircuitError as E;
        use fts_spice::SpiceError as S;
        let (slot, name) = match e {
            // `SpiceError::is_retryable` is the single source of truth for
            // "convergence trouble" — the same predicate that drives the
            // batch engine's retry ladder.
            E::Spice(s) if s.is_retryable() => {
                (&mut self.no_convergence, "mc.sim_failure.no_convergence")
            }
            E::Spice(S::SingularMatrix) => {
                (&mut self.singular_matrix, "mc.sim_failure.singular_matrix")
            }
            E::Spice(S::InvalidValue { .. })
            | E::InvalidConfig { .. }
            | E::MissingStimulus { .. }
            | E::Extract(_) => (&mut self.build, "mc.sim_failure.build"),
            _ => (&mut self.other, "mc.sim_failure.other"),
        };
        *slot += 1;
        fts_telemetry::counter(name, 1);
    }
}

/// Transient-evaluation settings (one phase per input combination, as in
/// the Fig. 11 experiment).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientSettings {
    /// Time allotted to each input phase \[s\].
    pub phase: f64,
    /// Input edge time \[s\].
    pub transition: f64,
    /// Simulation step \[s\].
    pub dt: f64,
}

impl Default for TransientSettings {
    fn default() -> TransientSettings {
        TransientSettings {
            phase: 120.0e-9,
            transition: 1.0e-9,
            dt: 0.8e-9,
        }
    }
}

/// How deeply each trial is evaluated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EvalMode {
    /// Boolean only: does the defective lattice still compute the nominal
    /// function? Microseconds per trial; no electrical statistics.
    Logical,
    /// DC sweep over all `2^vars` input assignments: logic levels plus
    /// V_OL / V_OH distributions.
    Dc,
    /// Full transient walking every input combination: DC metrics plus
    /// rise/fall-time distributions. Slowest.
    Transient(TransientSettings),
}

/// A configured Monte Carlo ensemble.
///
/// # Example
///
/// ```
/// use fts_circuit::experiments::xor3_lattice;
/// use fts_circuit::model::SwitchCircuitModel;
/// use fts_montecarlo::{EvalMode, MonteCarlo, VariationModel};
///
/// let nominal = SwitchCircuitModel::square_hfo2()?;
/// let mc = MonteCarlo::new(64, 42)
///     .variation(VariationModel::standard().with_defect_prob(0.01))
///     .eval(EvalMode::Logical);
/// let report = mc.run(&xor3_lattice(), 3, &nominal)?;
/// assert_eq!(report.trials, 64);
/// assert!(report.functional_yield() <= 1.0);
/// # Ok::<(), fts_montecarlo::McError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonteCarlo {
    /// Number of trials.
    pub trials: u64,
    /// Master seed; together with a trial index it fixes every random
    /// draw of that trial.
    pub master_seed: u64,
    /// Worker threads: 0 = all available cores, 1 = sequential.
    pub threads: usize,
    /// Trials per scheduling/accumulation block. The report is invariant
    /// to `threads` but *not* to `block_size` (it fixes the merge tree).
    pub block_size: u64,
    /// Statistical model of the fabricated lattice.
    pub variation: VariationModel,
    /// Parametric pass/fail limits.
    pub spec: SpecLimits,
    /// Evaluation depth.
    pub eval: EvalMode,
    /// Electrical bench around the lattice.
    pub bench: BenchConfig,
    /// Lockstep lanes per solver ensemble in [`EvalMode::Dc`]: trials are
    /// pulled in chunks of up to this many and stamped/factored/solved
    /// together (structure-of-arrays). `1` disables the ensemble path and
    /// evaluates every trial through the scalar simulator. Like
    /// `block_size`, the *numerical* report may shift at the last-ulp
    /// level when this changes (lane retirement falls back to the scalar
    /// path); trial sampling and all counts are invariant.
    pub ensemble_width: usize,
}

impl MonteCarlo {
    /// An ensemble with default settings: auto threads, 16-trial blocks,
    /// 16-lane solver ensembles, [`VariationModel::standard`], DC
    /// evaluation, default bench/spec.
    pub fn new(trials: u64, master_seed: u64) -> MonteCarlo {
        MonteCarlo {
            trials,
            master_seed,
            threads: 0,
            block_size: 16,
            variation: VariationModel::standard(),
            spec: SpecLimits::default(),
            eval: EvalMode::Dc,
            bench: BenchConfig::default(),
            ensemble_width: 16,
        }
    }

    /// Replaces the variation model.
    pub fn variation(mut self, v: VariationModel) -> MonteCarlo {
        self.variation = v;
        self
    }

    /// Replaces the evaluation mode.
    pub fn eval(mut self, e: EvalMode) -> MonteCarlo {
        self.eval = e;
        self
    }

    /// Replaces the worker-thread count (0 = auto).
    pub fn threads(mut self, n: usize) -> MonteCarlo {
        self.threads = n;
        self
    }

    /// Replaces the parametric limits.
    pub fn spec(mut self, s: SpecLimits) -> MonteCarlo {
        self.spec = s;
        self
    }

    /// Replaces the ensemble width (1 = scalar DC evaluation).
    pub fn ensemble_width(mut self, w: usize) -> MonteCarlo {
        self.ensemble_width = w;
        self
    }

    /// Runs the ensemble over `lattice` (a realization of a `vars`-input
    /// function) built from perturbations of `nominal`.
    ///
    /// # Errors
    ///
    /// Rejects unusable configurations and propagates nominal-path
    /// failures (bad lattice/variable count, nominal circuit that does not
    /// build). Per-trial simulator failures are *counted*, not returned —
    /// see [`YieldReport::sim_failures`].
    pub fn run(
        &self,
        lattice: &Lattice,
        vars: usize,
        nominal: &SwitchCircuitModel,
    ) -> Result<YieldReport, McError> {
        if self.trials == 0 {
            return Err(McError::InvalidConfig {
                reason: "trials must be at least 1",
            });
        }
        if self.block_size == 0 {
            return Err(McError::InvalidConfig {
                reason: "block_size must be at least 1",
            });
        }
        if !(0.0..=1.0).contains(&self.variation.defect_prob) {
            return Err(McError::InvalidConfig {
                reason: "defect_prob must be in [0, 1]",
            });
        }
        if !(0.0..=1.0).contains(&self.variation.stuck_on_fraction) {
            return Err(McError::InvalidConfig {
                reason: "stuck_on_fraction must be in [0, 1]",
            });
        }
        if self.ensemble_width == 0 {
            return Err(McError::InvalidConfig {
                reason: "ensemble_width must be at least 1",
            });
        }
        let _span = fts_telemetry::span("mc.run");
        let truth = lattice.truth_table(vars)?;
        let use_ensemble = self.ensemble_width >= 2 && matches!(self.eval, EvalMode::Dc);
        let ensemble_reference = if matches!(self.eval, EvalMode::Logical) {
            None
        } else {
            // Surface configuration-level circuit problems once, up front,
            // instead of as `trials` identical per-trial failures.
            let nominal_ckt = LatticeCircuit::build(lattice, vars, nominal, self.bench)?;
            // The nominal circuit doubles as the lockstep ensemble's
            // topology reference: lanes are admitted by `same_topology`
            // against it, so defect-rewired trials fall to the scalar path.
            use_ensemble.then_some(nominal_ckt)
        };

        let threads = if self.threads == 0 {
            auto_threads()
        } else {
            self.threads
        };
        let block_list = blocks(self.trials, self.block_size);
        let ctx = TrialContext {
            mc: self,
            lattice,
            vars,
            nominal,
            truth: &truth,
            sites: lattice.rows() * lattice.cols(),
            ensemble_reference,
        };
        let partials = map_blocks(&block_list, threads, |_, &(start, end)| {
            let mut acc = BlockStats::new(ctx.sites, self.bench.vdd);
            if ctx.ensemble_reference.is_some() {
                ctx.run_dc_block_ensemble(start, end, &mut acc);
            } else {
                for trial in start..end {
                    let _trial_span = fts_telemetry::span("mc.trial");
                    let t0 = fts_telemetry::enabled().then(Instant::now);
                    ctx.run_trial(trial, &mut acc);
                    if let Some(t0) = t0 {
                        fts_telemetry::record("mc.trial.wall_s", t0.elapsed().as_secs_f64());
                    }
                }
            }
            acc
        });

        let mut total = BlockStats::new(ctx.sites, self.bench.vdd);
        for p in &partials {
            total.merge(p);
        }
        Ok(total.into_report(self))
    }
}

/// Shared read-only state for trial evaluation.
struct TrialContext<'a> {
    mc: &'a MonteCarlo,
    lattice: &'a Lattice,
    vars: usize,
    nominal: &'a SwitchCircuitModel,
    truth: &'a TruthTable,
    sites: usize,
    /// Nominal circuit serving as the lockstep ensemble's topology
    /// reference (`Some` only when the ensemble DC path is active).
    ensemble_reference: Option<LatticeCircuit>,
}

/// Electrical measurements of one trial.
struct Electrical {
    functional: bool,
    v_ol: Option<f64>,
    v_oh: Option<f64>,
    rise: Option<f64>,
    fall: Option<f64>,
}

impl TrialContext<'_> {
    fn run_trial(&self, trial: u64, acc: &mut BlockStats) {
        let mut rng = trial_rng(self.mc.master_seed, trial);
        let v = &self.mc.variation;

        // 1. Fabrication defects → a (possibly) faulty lattice.
        let defects = v.sample_defects(self.lattice, &mut rng);
        let faulty = match inject_all(self.lattice, &defects) {
            Ok(l) => l,
            // Unreachable: sampled sites are in range by construction.
            Err(e) => {
                acc.sim_fail(&fts_circuit::CircuitError::Lattice(e));
                return;
            }
        };

        // 2. Logical verdict: does the defective lattice still realize f?
        let logical_ok = defects.is_empty()
            || (0..(1u32 << self.vars)).all(|x| faulty.eval(x) == self.truth.eval(x));

        // 3. Parameter realization: die corner, then per-site mismatch.
        let base = match v.sample_base_model(self.nominal, &mut rng) {
            Ok(b) => b,
            Err(e) => {
                acc.sim_fail_mc(&e);
                return;
            }
        };
        let site_models = v.sample_site_models(&base, self.lattice, &mut rng);

        // 4. Electrical verdict.
        let elec = match self.mc.eval {
            EvalMode::Logical => {
                let _eval_span = fts_telemetry::span("mc.trial.logical");
                Electrical {
                    functional: logical_ok,
                    v_ol: None,
                    v_oh: None,
                    rise: None,
                    fall: None,
                }
            }
            EvalMode::Dc => {
                let _eval_span = fts_telemetry::span("mc.trial.dc");
                match self.eval_dc(&faulty, &site_models) {
                    Ok(e) => e,
                    Err(e) => {
                        acc.sim_fail(&e);
                        return;
                    }
                }
            }
            EvalMode::Transient(ts) => {
                let _eval_span = fts_telemetry::span("mc.trial.transient");
                match self.eval_transient(&faulty, &site_models, ts) {
                    Ok(e) => e,
                    Err(e) => {
                        acc.sim_fail(&e);
                        return;
                    }
                }
            }
        };

        acc.record(self.mc, self.lattice.cols(), &defects, logical_ok, &elec);
    }

    fn build(
        &self,
        faulty: &Lattice,
        site_models: &[SwitchCircuitModel],
    ) -> Result<LatticeCircuit, fts_circuit::CircuitError> {
        let cols = self.lattice.cols();
        LatticeCircuit::build_with(faulty, self.vars, self.mc.bench, |(r, c)| {
            site_models[r * cols + c]
        })
    }

    /// DC sweep over all assignments: settled levels against the read
    /// thresholds (low < 0.45 V, high > 0.7·VDD, as in §V).
    fn eval_dc(
        &self,
        faulty: &Lattice,
        site_models: &[SwitchCircuitModel],
    ) -> Result<Electrical, fts_circuit::CircuitError> {
        let ckt = self.build(faulty, site_models)?;
        self.eval_dc_circuit(&ckt)
    }

    /// The DC sweep over a prebuilt trial circuit (shared by the scalar
    /// path and the ensemble's per-lane fallback).
    fn eval_dc_circuit(
        &self,
        ckt: &LatticeCircuit,
    ) -> Result<Electrical, fts_circuit::CircuitError> {
        let vdd = self.mc.bench.vdd;
        let mut functional = true;
        let mut v_ol = f64::NEG_INFINITY;
        let mut v_oh = f64::INFINITY;
        for x in 0..(1u32 << self.vars) {
            let level = ckt.dc_output(x)?;
            let expect_high = !self.truth.eval(x); // pull-down inverts f
            if expect_high {
                v_oh = v_oh.min(level);
                functional &= level > 0.7 * vdd;
            } else {
                v_ol = v_ol.max(level);
                functional &= level < 0.45;
            }
        }
        Ok(Electrical {
            functional,
            v_ol: (v_ol > f64::NEG_INFINITY).then_some(v_ol),
            v_oh: (v_oh < f64::INFINITY).then_some(v_oh),
            rise: None,
            fall: None,
        })
    }

    /// Runs one scheduling block through the lockstep ensemble: trials are
    /// pulled in chunks of up to `ensemble_width`, each chunk's admissible
    /// lanes are solved together for every input assignment, and results
    /// are recorded in ascending trial order so the report stays
    /// bit-identical for every thread count.
    fn run_dc_block_ensemble(&self, start: u64, end: u64, acc: &mut BlockStats) {
        let reference = self
            .ensemble_reference
            .as_ref()
            .expect("ensemble path requires a reference circuit");
        let mut ensemble = OpEnsemble::new(reference.netlist());
        let width = self.mc.ensemble_width as u64;
        let mut trial = start;
        while trial < end {
            let chunk_end = (trial + width).min(end);
            self.run_dc_chunk(&mut ensemble, reference.out(), trial, chunk_end, acc);
            trial = chunk_end;
        }
    }

    /// Evaluates trials `start..end` as one lockstep chunk (at most
    /// `ensemble_width` of them). Per-trial sampling order is identical to
    /// [`TrialContext::run_trial`]; trials whose defects rewire the
    /// topology — or that fail to build — are evaluated on the scalar path
    /// instead, and recording happens strictly in trial order.
    fn run_dc_chunk(
        &self,
        ensemble: &mut OpEnsemble,
        out: NodeId,
        start: u64,
        end: u64,
        acc: &mut BlockStats,
    ) {
        /// Per-trial disposition, buffered so the chunk can record in
        /// ascending trial order after the lockstep solve.
        enum Slot {
            Circuit(fts_circuit::CircuitError),
            Engine(McError),
            Scalar {
                defects: Vec<Fault>,
                logical_ok: bool,
                ckt: LatticeCircuit,
            },
            Lane {
                defects: Vec<Fault>,
                logical_ok: bool,
                lane: usize,
            },
        }

        let _span = fts_telemetry::span("mc.chunk");
        let t0 = fts_telemetry::enabled().then(Instant::now);
        ensemble.clear();
        let v = &self.mc.variation;
        let mut slots: Vec<Slot> = Vec::with_capacity((end - start) as usize);
        for trial in start..end {
            let _trial_span = fts_telemetry::span("mc.trial");
            let mut rng = trial_rng(self.mc.master_seed, trial);
            let defects = v.sample_defects(self.lattice, &mut rng);
            let faulty = match inject_all(self.lattice, &defects) {
                Ok(l) => l,
                Err(e) => {
                    slots.push(Slot::Circuit(fts_circuit::CircuitError::Lattice(e)));
                    continue;
                }
            };
            let logical_ok = defects.is_empty()
                || (0..(1u32 << self.vars)).all(|x| faulty.eval(x) == self.truth.eval(x));
            let base = match v.sample_base_model(self.nominal, &mut rng) {
                Ok(b) => b,
                Err(e) => {
                    slots.push(Slot::Engine(e));
                    continue;
                }
            };
            let site_models = v.sample_site_models(&base, self.lattice, &mut rng);
            match self.build(&faulty, &site_models) {
                Err(e) => slots.push(Slot::Circuit(e)),
                Ok(ckt) => match ensemble.try_push(ckt.netlist().clone()) {
                    Ok(lane) => slots.push(Slot::Lane {
                        defects,
                        logical_ok,
                        lane,
                    }),
                    Err(_) => slots.push(Slot::Scalar {
                        defects,
                        logical_ok,
                        ckt,
                    }),
                },
            }
        }

        // Lockstep DC sweep: one ensemble solve per input assignment, all
        // admitted lanes advancing together. A lane's first failure
        // abandons that trial (as in the scalar sweep); surviving lanes
        // keep iterating.
        let lanes = ensemble.len();
        let vdd = self.mc.bench.vdd;
        let mut lane_v_ol = vec![f64::NEG_INFINITY; lanes];
        let mut lane_v_oh = vec![f64::INFINITY; lanes];
        let mut lane_functional = vec![true; lanes];
        let mut lane_err: Vec<Option<fts_circuit::CircuitError>> =
            (0..lanes).map(|_| None).collect();
        if lanes > 0 {
            let opts = OpOptions::full();
            for step in 0..(1u32 << self.vars) {
                // Gray-code order: consecutive assignments differ in one
                // input, so the ensemble's warm start (the previous
                // assignment's operating points) stays close and plain
                // Newton usually converges without the gmin ladder. The
                // V_OL/V_OH accumulation below is min/max, so the sweep
                // order cannot change any recorded statistic.
                let x = step ^ (step >> 1);
                if lane_err.iter().all(|e| e.is_some()) {
                    break;
                }
                for (lane, err) in lane_err.iter_mut().enumerate() {
                    if err.is_some() {
                        continue;
                    }
                    let nl = ensemble.lane_mut(lane);
                    for var in 0..self.vars {
                        let bit = (x >> var) & 1 == 1;
                        let set = nl
                            .set_vsource(
                                &format!("VIN{var}"),
                                Waveform::Dc(if bit { vdd } else { 0.0 }),
                            )
                            .and_then(|_| {
                                nl.set_vsource(
                                    &format!("VIN{var}N"),
                                    Waveform::Dc(if bit { 0.0 } else { vdd }),
                                )
                            });
                        if let Err(e) = set {
                            *err = Some(e.into());
                            break;
                        }
                    }
                }
                let expect_high = !self.truth.eval(x); // pull-down inverts f
                for (lane, outcome) in ensemble.solve_op(&opts).into_iter().enumerate() {
                    if lane_err[lane].is_some() {
                        continue;
                    }
                    match outcome {
                        LaneOutcome::Solved(op) | LaneOutcome::Fallback(op) => {
                            let level = op.voltage(out);
                            if expect_high {
                                lane_v_oh[lane] = lane_v_oh[lane].min(level);
                                lane_functional[lane] &= level > 0.7 * vdd;
                            } else {
                                lane_v_ol[lane] = lane_v_ol[lane].max(level);
                                lane_functional[lane] &= level < 0.45;
                            }
                        }
                        LaneOutcome::Failed(e) => {
                            lane_err[lane] = Some(fts_circuit::CircuitError::Spice(e));
                        }
                    }
                }
            }
        }

        for slot in slots {
            match slot {
                Slot::Circuit(e) => acc.sim_fail(&e),
                Slot::Engine(e) => acc.sim_fail_mc(&e),
                Slot::Scalar {
                    defects,
                    logical_ok,
                    ckt,
                } => {
                    let _eval_span = fts_telemetry::span("mc.trial.dc");
                    match self.eval_dc_circuit(&ckt) {
                        Ok(e) => acc.record(self.mc, self.lattice.cols(), &defects, logical_ok, &e),
                        Err(e) => acc.sim_fail(&e),
                    }
                }
                Slot::Lane {
                    defects,
                    logical_ok,
                    lane,
                } => match lane_err[lane].take() {
                    Some(e) => acc.sim_fail(&e),
                    None => {
                        let e = Electrical {
                            functional: lane_functional[lane],
                            v_ol: (lane_v_ol[lane] > f64::NEG_INFINITY).then_some(lane_v_ol[lane]),
                            v_oh: (lane_v_oh[lane] < f64::INFINITY).then_some(lane_v_oh[lane]),
                            rise: None,
                            fall: None,
                        };
                        acc.record(self.mc, self.lattice.cols(), &defects, logical_ok, &e);
                    }
                },
            }
        }
        if let Some(t0) = t0 {
            fts_telemetry::record("mc.chunk.wall_s", t0.elapsed().as_secs_f64());
        }
    }

    /// Transient walking every input combination (the Fig. 11 protocol
    /// generalized to `vars` inputs), adding edge-time measurements.
    fn eval_transient(
        &self,
        faulty: &Lattice,
        site_models: &[SwitchCircuitModel],
        ts: TransientSettings,
    ) -> Result<Electrical, fts_circuit::CircuitError> {
        let mut ckt = self.build(faulty, site_models)?;
        let vdd = self.mc.bench.vdd;
        let combos = 1u32 << self.vars;
        for v in 0..self.vars {
            let bits: Vec<bool> = (0..combos).map(|x| (x >> v) & 1 == 1).collect();
            let (p, n) = pwl_from_bits(&bits, ts.phase, ts.transition, vdd);
            ckt.set_stimulus(v, p, n)?;
        }
        let tr = Simulator::new(ckt.netlist())
            .transient(&TranConfig::fixed(ts.dt, ts.phase * combos as f64))?;
        let out = tr.voltage(ckt.out());

        let mut functional = true;
        let mut v_ol = f64::NEG_INFINITY;
        let mut v_oh = f64::INFINITY;
        for x in 0..combos {
            let t0 = (x as f64 + 0.8) * ts.phase;
            let t1 = (x + 1) as f64 * ts.phase;
            let level = measure::settled_level(&tr.time, &out, t0, t1);
            if !self.truth.eval(x) {
                v_oh = v_oh.min(level);
                functional &= level > 0.7 * vdd;
            } else {
                v_ol = v_ol.max(level);
                functional &= level < 0.45;
            }
        }
        let (rise, fall) = if v_ol > f64::NEG_INFINITY && v_oh < f64::INFINITY && v_oh > v_ol {
            (
                measure::rise_time(&tr.time, &out, v_ol.max(0.0), v_oh, 1),
                measure::fall_time(&tr.time, &out, v_ol.max(0.0), v_oh, 1),
            )
        } else {
            (None, None)
        };
        Ok(Electrical {
            functional,
            v_ol: (v_ol > f64::NEG_INFINITY).then_some(v_ol),
            v_oh: (v_oh < f64::INFINITY).then_some(v_oh),
            rise,
            fall,
        })
    }
}

/// Per-block streaming accumulator. Merging blocks in ascending index
/// order reproduces the sequential result bit for bit.
struct BlockStats {
    evaluated: u64,
    sim_failures: u64,
    failure_causes: SimFailureCauses,
    functional_pass: u64,
    parametric_pass: u64,
    logical_fail: u64,
    defects_injected: u64,
    site_criticality: Vec<u64>,
    v_ol_w: Welford,
    v_ol_h: Histogram,
    v_oh_w: Welford,
    v_oh_h: Histogram,
    rise_w: Welford,
    rise_h: Histogram,
    fall_w: Welford,
    fall_h: Histogram,
}

const BINS: usize = 256;
/// Histogram span for edge times: 0–500 ns at ~2 ns resolution; slower
/// edges land in the overflow bucket and still count toward quantiles.
const TIME_SPAN: f64 = 500.0e-9;

impl BlockStats {
    fn new(sites: usize, vdd: f64) -> BlockStats {
        let vspan = 1.5 * vdd;
        BlockStats {
            evaluated: 0,
            sim_failures: 0,
            failure_causes: SimFailureCauses::default(),
            functional_pass: 0,
            parametric_pass: 0,
            logical_fail: 0,
            defects_injected: 0,
            site_criticality: vec![0; sites],
            v_ol_w: Welford::default(),
            v_ol_h: Histogram::new(0.0, vspan, BINS),
            v_oh_w: Welford::default(),
            v_oh_h: Histogram::new(0.0, vspan, BINS),
            rise_w: Welford::default(),
            rise_h: Histogram::new(0.0, TIME_SPAN, BINS),
            fall_w: Welford::default(),
            fall_h: Histogram::new(0.0, TIME_SPAN, BINS),
        }
    }

    /// Abandons the current trial on a circuit-level failure.
    fn sim_fail(&mut self, e: &fts_circuit::CircuitError) {
        self.sim_failures += 1;
        self.failure_causes.classify(e);
    }

    /// Abandons the current trial on an engine-level failure.
    fn sim_fail_mc(&mut self, e: &McError) {
        match e {
            McError::Circuit(c) => self.sim_fail(c),
            McError::Extract(x) => {
                self.sim_fail(&fts_circuit::CircuitError::Extract(x.clone()));
            }
            _ => {
                self.sim_failures += 1;
                self.failure_causes.other += 1;
                fts_telemetry::counter("mc.sim_failure.other", 1);
            }
        }
    }

    fn record(
        &mut self,
        mc: &MonteCarlo,
        cols: usize,
        defects: &[Fault],
        logical_ok: bool,
        e: &Electrical,
    ) {
        self.evaluated += 1;
        if !logical_ok {
            self.logical_fail += 1;
        }
        self.defects_injected += defects.len() as u64;
        if !e.functional {
            for f in defects {
                let (r, c) = f.site;
                self.site_criticality[r * cols + c] += 1;
            }
        }
        if e.functional {
            self.functional_pass += 1;
        }

        let mut parametric = e.functional;
        if let Some(v) = e.v_ol {
            self.v_ol_w.push(v);
            self.v_ol_h.push(v);
            parametric &= v <= mc.spec.v_ol_max;
        }
        if let Some(v) = e.v_oh {
            self.v_oh_w.push(v);
            self.v_oh_h.push(v);
            parametric &= v >= mc.spec.v_oh_min;
        }
        if let Some(t) = e.rise {
            self.rise_w.push(t);
            self.rise_h.push(t);
            if let Some(limit) = mc.spec.t_rise_max {
                parametric &= t <= limit;
            }
        }
        if let Some(t) = e.fall {
            self.fall_w.push(t);
            self.fall_h.push(t);
            if let Some(limit) = mc.spec.t_fall_max {
                parametric &= t <= limit;
            }
        }
        if parametric {
            self.parametric_pass += 1;
        }
    }

    fn merge(&mut self, other: &BlockStats) {
        self.evaluated += other.evaluated;
        self.sim_failures += other.sim_failures;
        self.failure_causes.merge(&other.failure_causes);
        self.functional_pass += other.functional_pass;
        self.parametric_pass += other.parametric_pass;
        self.logical_fail += other.logical_fail;
        self.defects_injected += other.defects_injected;
        for (a, b) in self
            .site_criticality
            .iter_mut()
            .zip(&other.site_criticality)
        {
            *a += b;
        }
        self.v_ol_w.merge(&other.v_ol_w);
        self.v_ol_h.merge(&other.v_ol_h);
        self.v_oh_w.merge(&other.v_oh_w);
        self.v_oh_h.merge(&other.v_oh_h);
        self.rise_w.merge(&other.rise_w);
        self.rise_h.merge(&other.rise_h);
        self.fall_w.merge(&other.fall_w);
        self.fall_h.merge(&other.fall_h);
    }

    fn into_report(self, mc: &MonteCarlo) -> YieldReport {
        YieldReport {
            trials: mc.trials,
            master_seed: mc.master_seed,
            evaluated: self.evaluated,
            sim_failures: self.sim_failures,
            failure_causes: self.failure_causes,
            functional_pass: self.functional_pass,
            parametric_pass: self.parametric_pass,
            logical_fail: self.logical_fail,
            defects_injected: self.defects_injected,
            site_criticality: self.site_criticality,
            v_ol: SummaryStats::from_accumulators(&self.v_ol_w, &self.v_ol_h),
            v_oh: SummaryStats::from_accumulators(&self.v_oh_w, &self.v_oh_h),
            rise_s: SummaryStats::from_accumulators(&self.rise_w, &self.rise_h),
            fall_s: SummaryStats::from_accumulators(&self.fall_w, &self.fall_h),
        }
    }
}

/// Outcome of a Monte Carlo ensemble.
#[derive(Debug, Clone, PartialEq)]
pub struct YieldReport {
    /// Configured trial count.
    pub trials: u64,
    /// Master seed the ensemble ran with.
    pub master_seed: u64,
    /// Trials that produced a verdict (`trials - sim_failures`).
    pub evaluated: u64,
    /// Trials abandoned because the simulator failed on that sample.
    pub sim_failures: u64,
    /// Why those trials failed, by cause (`failure_causes.total() ==
    /// sim_failures`).
    pub failure_causes: SimFailureCauses,
    /// Trials reading correct logic levels at every input.
    pub functional_pass: u64,
    /// Functional trials also inside [`SpecLimits`].
    pub parametric_pass: u64,
    /// Trials whose defective lattice computes a wrong Boolean function.
    pub logical_fail: u64,
    /// Total crosspoint defects injected across all trials.
    pub defects_injected: u64,
    /// Row-major per-site count of "a defect here coincided with a
    /// functional failure" — the fault-criticality map.
    pub site_criticality: Vec<u64>,
    /// Worst-case low output level distribution \[V\].
    pub v_ol: SummaryStats,
    /// Worst-case high output level distribution \[V\].
    pub v_oh: SummaryStats,
    /// 10–90% rise-time distribution \[s\] (transient mode only).
    pub rise_s: SummaryStats,
    /// 90–10% fall-time distribution \[s\] (transient mode only).
    pub fall_s: SummaryStats,
}

impl YieldReport {
    /// Fraction of evaluated trials that are functionally correct.
    pub fn functional_yield(&self) -> f64 {
        if self.evaluated == 0 {
            0.0
        } else {
            self.functional_pass as f64 / self.evaluated as f64
        }
    }

    /// Fraction of evaluated trials that are functional *and* within spec.
    pub fn parametric_yield(&self) -> f64 {
        if self.evaluated == 0 {
            0.0
        } else {
            self.parametric_pass as f64 / self.evaluated as f64
        }
    }

    /// The most failure-critical sites, best first: `(row-major index,
    /// failure coincidence count)`, zero-count sites omitted.
    pub fn critical_sites(&self) -> Vec<(usize, u64)> {
        let mut out: Vec<(usize, u64)> = self
            .site_criticality
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, n)| n > 0)
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fts_circuit::experiments::xor3_lattice;
    use fts_logic::Literal;

    fn nominal() -> SwitchCircuitModel {
        SwitchCircuitModel::square_hfo2().unwrap()
    }

    #[test]
    fn nominal_ensemble_yields_everything() {
        let lat = Lattice::from_literals(1, 2, vec![Literal::pos(0), Literal::pos(1)]).unwrap();
        let report = MonteCarlo::new(16, 1)
            .variation(VariationModel::none())
            .run(&lat, 2, &nominal())
            .unwrap();
        assert_eq!(report.evaluated, 16);
        assert_eq!(report.sim_failures, 0);
        assert_eq!(report.functional_yield(), 1.0);
        assert_eq!(report.parametric_yield(), 1.0);
        assert_eq!(report.defects_injected, 0);
        // Zero variance: every trial measures the same V_OL.
        assert!(report.v_ol.std_dev < 1e-12, "σ = {}", report.v_ol.std_dev);
        assert!(report.v_ol.mean > 0.0 && report.v_ol.mean < 0.45);
    }

    #[test]
    fn thread_count_does_not_change_the_report() {
        let lat = xor3_lattice();
        let mc = MonteCarlo::new(48, 99)
            .variation(VariationModel::standard().with_defect_prob(0.05))
            .eval(EvalMode::Logical);
        let seq = mc.threads(1).run(&lat, 3, &nominal()).unwrap();
        for threads in [2, 4, 8] {
            let par = mc.threads(threads).run(&lat, 3, &nominal()).unwrap();
            assert_eq!(par, seq, "threads = {threads}");
        }
    }

    #[test]
    fn defects_reduce_functional_yield() {
        let lat = xor3_lattice();
        let report = MonteCarlo::new(200, 7)
            .variation(VariationModel::none().with_defect_prob(0.2))
            .eval(EvalMode::Logical)
            .run(&lat, 3, &nominal())
            .unwrap();
        assert!(
            report.defects_injected > 100,
            "defects {}",
            report.defects_injected
        );
        assert!(
            report.functional_yield() < 0.9,
            "yield {}",
            report.functional_yield()
        );
        assert_eq!(
            report.logical_fail,
            report.evaluated - report.functional_pass
        );
        // Failing trials attribute blame to defect sites.
        assert!(!report.critical_sites().is_empty());
    }

    #[test]
    fn dc_mode_collects_voltage_distributions() {
        let lat = Lattice::from_literals(1, 2, vec![Literal::pos(0), Literal::pos(1)]).unwrap();
        let report = MonteCarlo::new(24, 3)
            .variation(VariationModel::standard())
            .run(&lat, 2, &nominal())
            .unwrap();
        assert_eq!(report.v_ol.n, report.evaluated);
        assert!(report.v_ol.std_dev > 0.0, "variation must spread V_OL");
        assert!(report.v_ol.p50 <= report.v_ol.p95 && report.v_ol.p95 <= report.v_ol.p99);
        assert!(report.v_oh.mean > 1.0);
    }

    #[test]
    fn transient_mode_measures_edges() {
        // XOR3 toggles the output within the phase walk, so both edges
        // exist (the Fig. 11 protocol).
        let report = MonteCarlo::new(2, 5)
            .variation(VariationModel::standard())
            .eval(EvalMode::Transient(TransientSettings::default()))
            .run(&xor3_lattice(), 3, &nominal())
            .unwrap();
        assert_eq!(report.evaluated, 2);
        assert!(report.rise_s.n > 0, "rise edges measured");
        assert!(report.rise_s.mean > 1.0e-9 && report.rise_s.mean < 100.0e-9);
        assert!(report.fall_s.mean > 0.0 && report.fall_s.mean < report.rise_s.mean);
    }

    #[test]
    fn tight_spec_fails_parametrically_not_functionally() {
        let lat = Lattice::from_literals(1, 1, vec![Literal::pos(0)]).unwrap();
        // Ratioed V_OL can never be this low.
        let spec = SpecLimits {
            v_ol_max: 1e-6,
            ..SpecLimits::default()
        };
        let report = MonteCarlo::new(8, 2)
            .variation(VariationModel::none())
            .spec(spec)
            .run(&lat, 1, &nominal())
            .unwrap();
        assert_eq!(report.functional_yield(), 1.0);
        assert_eq!(report.parametric_yield(), 0.0);
    }

    #[test]
    fn sim_failures_are_classified_by_cause() {
        use fts_circuit::CircuitError as E;
        use fts_spice::SpiceError as S;
        let mut acc = BlockStats::new(1, 1.2);
        acc.sim_fail(&E::Spice(S::NoConvergence {
            analysis: "op",
            residual: 1.0,
        }));
        acc.sim_fail(&E::Spice(S::SingularMatrix));
        acc.sim_fail(&E::Spice(S::InvalidValue {
            device: "M1".into(),
            reason: "w <= 0",
        }));
        acc.sim_fail(&E::InvalidConfig {
            reason: "degenerate",
        });
        acc.sim_fail(&E::TargetNotBracketed { target: 1.0 });
        acc.sim_fail_mc(&McError::InvalidConfig { reason: "bad" });
        let c = acc.failure_causes;
        assert_eq!(c.no_convergence, 1);
        assert_eq!(c.singular_matrix, 1);
        assert_eq!(c.build, 2);
        assert_eq!(c.other, 2);
        assert_eq!(c.total(), acc.sim_failures);

        let mut merged = SimFailureCauses::default();
        merged.merge(&c);
        merged.merge(&c);
        assert_eq!(merged.total(), 2 * c.total());
    }

    #[test]
    fn dc_ensemble_matches_scalar_path() {
        // Mixed population: defect-rewired trials fall back to the scalar
        // path mid-chunk while clean lanes stay in lockstep. Counts must
        // agree exactly; voltages to the ensemble-vs-scalar pin (1e-9).
        let lat = xor3_lattice();
        let mc = MonteCarlo::new(24, 11)
            .variation(VariationModel::standard().with_defect_prob(0.1))
            .threads(1);
        let scalar = mc.ensemble_width(1).run(&lat, 3, &nominal()).unwrap();
        for width in [2, 6, 8, 32] {
            let ens = mc.ensemble_width(width).run(&lat, 3, &nominal()).unwrap();
            assert_eq!(ens.evaluated, scalar.evaluated, "width {width}");
            assert_eq!(ens.sim_failures, scalar.sim_failures, "width {width}");
            assert_eq!(ens.functional_pass, scalar.functional_pass, "width {width}");
            assert_eq!(ens.parametric_pass, scalar.parametric_pass, "width {width}");
            assert_eq!(ens.logical_fail, scalar.logical_fail, "width {width}");
            assert_eq!(
                ens.defects_injected, scalar.defects_injected,
                "width {width}"
            );
            assert_eq!(
                ens.site_criticality, scalar.site_criticality,
                "width {width}"
            );
            assert!(
                (ens.v_ol.mean - scalar.v_ol.mean).abs() < 1e-9
                    && (ens.v_oh.mean - scalar.v_oh.mean).abs() < 1e-9,
                "width {width}: v_ol {} vs {}, v_oh {} vs {}",
                ens.v_ol.mean,
                scalar.v_ol.mean,
                ens.v_oh.mean,
                scalar.v_oh.mean
            );
        }
    }

    #[test]
    fn dc_ensemble_report_is_thread_invariant() {
        let lat = xor3_lattice();
        let mc = MonteCarlo::new(24, 17)
            .variation(VariationModel::standard().with_defect_prob(0.05))
            .ensemble_width(4);
        let seq = mc.threads(1).run(&lat, 3, &nominal()).unwrap();
        for threads in [2, 4] {
            let par = mc.threads(threads).run(&lat, 3, &nominal()).unwrap();
            assert_eq!(par, seq, "threads = {threads}");
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let lat = Lattice::from_literals(1, 1, vec![Literal::pos(0)]).unwrap();
        let m = nominal();
        let err = MonteCarlo::new(0, 1).run(&lat, 1, &m);
        assert!(matches!(err, Err(McError::InvalidConfig { .. })));
        let mut mc = MonteCarlo::new(4, 1);
        mc.block_size = 0;
        assert!(matches!(
            mc.run(&lat, 1, &m),
            Err(McError::InvalidConfig { .. })
        ));
        let bad = MonteCarlo::new(4, 1).variation(VariationModel::none().with_defect_prob(1.5));
        assert!(matches!(
            bad.run(&lat, 1, &m),
            Err(McError::InvalidConfig { .. })
        ));
        let no_lanes = MonteCarlo::new(4, 1).ensemble_width(0);
        assert!(matches!(
            no_lanes.run(&lat, 1, &m),
            Err(McError::InvalidConfig { .. })
        ));
        // Lattice referencing variable 5 with only 1 stimulus: the nominal
        // path fails up front (truth table or circuit build), not per trial.
        let wide = Lattice::from_literals(1, 1, vec![Literal::pos(5)]).unwrap();
        assert!(matches!(
            MonteCarlo::new(4, 1).run(&wide, 1, &m),
            Err(McError::Lattice(_) | McError::Circuit(_))
        ));
    }
}
