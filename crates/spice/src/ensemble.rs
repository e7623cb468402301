//! Lockstep ensemble operating-point solver: K same-topology netlists
//! stamped, factored, and solved together.
//!
//! Monte Carlo trials of one lattice topology differ only in parameter
//! values, so their MNA systems share a sparsity pattern, a fill-reducing
//! ordering, *and* an LU structure. [`OpEnsemble`] exploits all three: it
//! stamps K trials into one [`SparseMatrixEnsemble`](crate::linalg::SparseMatrixEnsemble)
//! (structure-of-arrays, lane-minor), factors them with one lane-batched
//! numeric replay ([`EnsembleLu`]), and runs Newton on all lanes in
//! lockstep under a per-lane convergence mask.
//!
//! Each lane walks the same homotopy ladder the scalar path would: plain
//! Newton from `x = 0`, then — because lattice bias points routinely
//! defeat cold Newton — the adaptive gmin ramp, with a *per-lane* shunt
//! conductance so every lane follows its own schedule while still
//! sharing one stamp, one factorization, and one triangular solve per
//! lockstep iteration.
//!
//! Lanes that converge are frozen; lanes that misbehave — a degraded
//! pivot, a singular skeleton, a non-finite update, or a stalled gmin
//! ramp — are *retired* and re-solved through the scalar [`Simulator`]
//! path with its full homotopy ladder, so one pathological trial never
//! stalls or poisons the batch.

use crate::analysis::{ConvergenceReport, OpOptions, OpResult, OpStrategy};
use crate::linalg::{EnsembleLu, Symbolic};
use crate::netlist::Netlist;
use crate::stamp::{damped_update, CapMode, EnsembleSystem, StampContext};
use crate::{Simulator, SpiceError};

/// Homotopy gmin floor — identical to the scalar ladder's.
const GMIN_FLOOR: f64 = 1e-12;
/// Starting shunt conductance of the gmin ramp — identical to the scalar
/// ladder's 10 mS.
const GMIN_RAMP_START: f64 = 1e-2;
/// Gmin reduction per accepted rung. The scalar ramp starts at ×10 and
/// accelerates adaptively, retrying failures at gentler steps; in
/// lockstep a failing straggler stalls the whole batch, so the ladder
/// walks fixed ×100 steps — warm-started rungs absorb the bigger jumps
/// in a handful of iterations, and the ladder reaches the floor in five.
const GMIN_RAMP_STEP: f64 = 100.0;
/// Iteration cap for the plain-Newton attempt. The scalar ladder burns
/// its full 120-iteration budget before conceding to gmin stepping, but
/// a Newton that has not converged in ~18 iterations here never does
/// (warm-started converging solves finish well inside 16) — conceding
/// early costs a converging lane nothing (the ramp reaches the same
/// floor-gmin fixed point) and saves the batch ~100 wasted lockstep
/// iterations per hard operating point.
const PLAIN_BUDGET_CAP: usize = 18;
/// Per-rung iteration cap for the ladder's fast ×[`GMIN_RAMP_STEP`]
/// descending rungs. A warm-started fast rung either converges in a
/// handful of iterations or it does not converge at this step size at
/// all — failing cheap matters, because the failure path (a gentle ×10
/// retry) usually succeeds. The opening rung solves cold from zero and
/// gets the full solve budget instead — opening failures were by far
/// the dominant cause of lane retirement under a uniform cap.
const FAST_RUNG_BUDGET_CAP: usize = 14;
/// Per-rung iteration cap for the gentle ×10 retry rungs. These are the
/// lane's last chance before retirement to the (expensive) scalar
/// fallback, so they get room to work.
const GENTLE_RUNG_BUDGET_CAP: usize = 40;
/// Smallest accepted source-continuation step (in λ, the source blend
/// coordinate). A warm re-solve whose bisection falls below this
/// abandons the walk for the cold gmin ladder: the operating point is
/// moving near-discontinuously in λ (a switch crossing its threshold —
/// mid-λ puts the flipping input at mid-rail, the transistor's
/// highest-gain region). The walk only runs on lanes the gmin ladder has
/// already failed — lanes otherwise headed for a far more expensive
/// scalar re-solve — so it can afford to bisect deep.
const WALK_MIN_STEP: f64 = 1.0 / 64.0;
/// Iteration cap per source-continuation solve. Walk solves are warm
/// and close — a converging one finishes in a handful of iterations —
/// so failures are cut well before the plain-Newton cap.
const WALK_BUDGET_CAP: usize = 14;

/// Where one lane currently sits on its homotopy ladder.
#[derive(Clone, Copy, Debug)]
enum LaneMode {
    /// Plain Newton at the floor gmin (the ladder's first strategy).
    Plain,
    /// Fixed-schedule gmin ladder: solve at `target`, and on success
    /// step it down ×`step` toward the floor, warm-starting each rung
    /// from the last. A failed ×[`GMIN_RAMP_STEP`] rung downshifts once
    /// to gentle ×10 steps from the last accepted rung; a failed gentle
    /// rung retires the lane to the scalar fallback, whose adaptive ramp
    /// can still rescue it.
    Ramp {
        /// Gmin of the rung currently in flight.
        target: f64,
        /// Gmin reduction applied on each accepted rung.
        step: f64,
    },
    /// Source continuation for warm re-solves: plain Newton at the floor
    /// gmin with the rhs blended between the previous solve's sources
    /// (λ = 0, where the warm start *is* a converged operating point)
    /// and this solve's (λ = 1). Source values enter the MNA system
    /// through the rhs only, so the blend is exact continuation; the
    /// accepting solve always runs at λ = 1 — the true system. Failures
    /// bisect `trying` toward `reached`; successes double the step; a
    /// step below [`WALK_MIN_STEP`] abandons the walk for the cold gmin
    /// ladder.
    Walk {
        /// Last λ that converged (its solution is checkpointed).
        reached: f64,
        /// λ of the solve in flight.
        trying: f64,
    },
    /// Finished: either solved (recorded separately) or destined for the
    /// scalar fallback.
    Idle,
}

/// How one lane of an ensemble solve finished.
#[derive(Debug)]
pub enum LaneOutcome {
    /// Converged inside the lockstep Newton loop.
    Solved(OpResult),
    /// Retired from the lockstep loop but solved by the scalar path
    /// (full homotopy ladder, per-lane pivoting).
    Fallback(OpResult),
    /// Both the lockstep loop and the scalar fallback failed.
    Failed(SpiceError),
}

impl LaneOutcome {
    /// The operating point, if either path converged.
    pub fn result(&self) -> Option<&OpResult> {
        match self {
            LaneOutcome::Solved(r) | LaneOutcome::Fallback(r) => Some(r),
            LaneOutcome::Failed(_) => None,
        }
    }

    /// True when this lane converged inside the lockstep loop.
    pub fn is_lockstep(&self) -> bool {
        matches!(self, LaneOutcome::Solved(_))
    }
}

/// A batch of same-topology netlists solved for their DC operating points
/// in lockstep.
///
/// Built from a *reference* netlist whose topology defines the shared
/// stamp plans, pattern, and symbolic analysis. Trials are added with
/// [`try_push`](OpEnsemble::try_push) — which admits only netlists that
/// pass [`Netlist::same_topology`] — and solved together with
/// [`solve_op`](OpEnsemble::solve_op). The ensemble is reusable: swap
/// source waveforms via [`lane_mut`](OpEnsemble::lane_mut), solve again,
/// or [`clear`](OpEnsemble::clear) and refill with the next chunk of
/// trials. Pattern, ordering, plans, and LU structure are amortized
/// across every solve.
pub struct OpEnsemble {
    reference: Netlist,
    lanes: Vec<Netlist>,
    sys: EnsembleSystem,
    lu: EnsembleLu,
    lockstep_budget: Option<usize>,
    /// Lane solutions from the previous [`solve_op`](OpEnsemble::solve_op)
    /// over the *same* lanes, used to warm-start the next solve (an
    /// input-assignment sweep re-solves the identical circuits with only
    /// source values changed). Invalidated by lane edits.
    warm_x: Vec<f64>,
    /// Per-lane validity of `warm_x`: true when that lane's previous
    /// solve actually converged (lockstep or scalar fallback), i.e. the
    /// warm lane is a real operating point the source-continuation walk
    /// can anchor at λ = 0.
    warm_ok: Vec<bool>,
}

impl OpEnsemble {
    /// Creates an ensemble for `reference`'s topology, taking the
    /// pattern's analysis from [`Symbolic::shared`] (where scalar
    /// fallbacks of admitted lanes find it too).
    pub fn new(reference: &Netlist) -> OpEnsemble {
        let reference = reference.clone();
        let sys = EnsembleSystem::new(&reference, 1);
        fts_telemetry::counter("spice.solver.sparse_ensemble", 1);
        // a = unknowns, b = pattern non-zeros, like the scalar selection
        // events — the detail string tells traces the ensemble engaged.
        fts_telemetry::trace::emit(
            "solver_selected",
            "sparse-ensemble",
            reference.unknown_count() as f64,
            sys.matrix().nnz() as f64,
        );
        OpEnsemble {
            lu: EnsembleLu::new(Symbolic::shared(sys.matrix().pattern())),
            reference,
            lanes: Vec::new(),
            sys,
            lockstep_budget: None,
            warm_x: Vec::new(),
            warm_ok: Vec::new(),
        }
    }

    /// Caps each lockstep Newton solve (the plain attempt and every gmin
    /// rung) at `iterations` instead of the solve's `opts.max_iterations`.
    /// Lanes that exceed the cap fail that rung and escalate — next rung,
    /// or retirement to the scalar ladder, which still runs under the
    /// full options — so this bounds how long one slow lane can hold the
    /// whole batch.
    pub fn lockstep_budget(mut self, iterations: usize) -> OpEnsemble {
        self.lockstep_budget = Some(iterations);
        self
    }

    /// The reference netlist defining this ensemble's topology.
    pub fn reference(&self) -> &Netlist {
        &self.reference
    }

    /// Number of lanes currently enqueued.
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// True when no lanes are enqueued.
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// Admits `netlist` as the next lane if it shares the reference's
    /// topology, returning its lane index. Topology mismatches (e.g. a
    /// defect trial that rewired a gate to a rail) hand the netlist back
    /// for the caller to route through the scalar path.
    ///
    /// # Errors
    ///
    /// Returns the netlist itself when its topology differs.
    pub fn try_push(&mut self, netlist: Netlist) -> Result<usize, Box<Netlist>> {
        if !self.reference.same_topology(&netlist) {
            return Err(Box::new(netlist));
        }
        self.lanes.push(netlist);
        self.warm_x.clear();
        self.warm_ok.clear();
        Ok(self.lanes.len() - 1)
    }

    /// Mutable access to one lane's netlist — for swapping source
    /// waveforms between solves (input-assignment sweeps). Structural
    /// edits are the caller's responsibility to avoid; waveform and
    /// parameter edits are safe.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range lane.
    pub fn lane_mut(&mut self, lane: usize) -> &mut Netlist {
        &mut self.lanes[lane]
    }

    /// Drops all lanes, keeping the amortized plans, symbolic analysis,
    /// and LU workspaces for the next chunk.
    pub fn clear(&mut self) {
        self.lanes.clear();
        self.warm_x.clear();
        self.warm_ok.clear();
    }

    /// Solves every lane's DC operating point in lockstep, returning one
    /// outcome per lane in lane order.
    ///
    /// Each lane walks the scalar ladder's first two strategies with the
    /// scalar Newton kernel's exact arithmetic — same stamps, same
    /// damping, same convergence test: plain Newton at the floor gmin
    /// (warm-started from the previous solve when the lanes are re-solved
    /// in an assignment sweep, else from `x0 = 0`), then (when
    /// `opts.gmin_stepping` allows) a gmin ladder restarted from zero and
    /// warm-started rung to rung, with the shunt conductance tracked *per
    /// lane* so lanes on different rungs still stamp, factor, and solve
    /// together. The *schedule* is tuned for
    /// lockstep rather than copied from the scalar path — capped plain
    /// budget, fixed gentle rungs (see `PLAIN_BUDGET_CAP`,
    /// `GMIN_RAMP_STEP`) — which is sound because a converged operating
    /// point is schedule-independent: every path ends in the same
    /// floor-gmin Newton fixed point within the convergence tolerance
    /// (the ensemble-vs-scalar pin is enforced at 1e-9 by tests and the
    /// benchmark's twin gate). A lane whose ladder fails but whose
    /// previous solve converged gets one more lockstep strategy before
    /// retirement: a source-continuation walk (`LaneMode::Walk`) from
    /// its old operating point to the new sources. Converged lanes
    /// freeze; retired lanes (pivot degradation, singular skeleton,
    /// non-finite update, or a failed rung and walk) re-run through the
    /// scalar [`Simulator`] with `opts`' full homotopy ladder, adaptive
    /// ramp included.
    pub fn solve_op(&mut self, opts: &OpOptions) -> Vec<LaneOutcome> {
        let _span = fts_telemetry::span("spice.ensemble.solve_op");
        let k = self.lanes.len();
        if k == 0 {
            return Vec::new();
        }
        let n = self.reference.unknown_count();
        let nv = self.reference.node_count() - 1;
        self.sys.set_lanes(k);
        let ctx = StampContext {
            t: 0.0,
            cap_mode: CapMode::Open,
            cap_states: &[],
            gmin: GMIN_FLOOR,
            source_scale: 1.0,
            cancel: None,
        };
        self.sys.begin(&self.lanes, &ctx);

        let mut x = vec![0.0; n * k];
        let warm = self.warm_x.len() == n * k;
        if warm {
            x.copy_from_slice(&self.warm_x);
        }
        // Lanes whose previous solve over these exact circuits converged
        // may walk the source-continuation path on a plain-Newton miss;
        // the rest re-climb the gmin ladder from zero.
        let walk_ok: Vec<bool> = (0..k)
            .map(|lane| {
                warm && opts.source_stepping && self.warm_ok.get(lane).copied().unwrap_or(false)
            })
            .collect();
        let wx: &[f64] = &self.warm_x;
        let mut b = vec![0.0; n * k];
        // Checkpoint of each ramp lane's last accepted rung solution, the
        // rewind point for a fast-rung failure's gentle retry.
        let mut xck = vec![0.0; n * k];
        let mut mode = vec![LaneMode::Plain; k];
        let mut outcome: Vec<Option<(OpStrategy, f64)>> = vec![None; k];
        let mut iters_in_solve = vec![0usize; k];
        let mut lane_iters = vec![0u64; k];
        let mut lane_solves = vec![0u64; k];
        let mut active = vec![true; k];
        let mut alive = vec![true; k];
        let mut gmins = vec![GMIN_FLOOR; k];
        let mut lambdas = vec![1.0f64; k];
        let mut lockstep_iterations = 0u64;

        let budget = self.lockstep_budget.unwrap_or(opts.max_iterations).max(1);
        let plain_budget = budget.min(PLAIN_BUDGET_CAP);
        let fast_rung_budget = budget.min(FAST_RUNG_BUDGET_CAP);
        let gentle_rung_budget = budget.min(GENTLE_RUNG_BUDGET_CAP);
        let walk_budget = budget.min(WALK_BUDGET_CAP);

        // The current solve failed for `lane` (budget, pivot, skeleton, or
        // non-finite update): escalate along the ladder. Failed solves
        // charge the iterations they actually burned.
        let solve_failed = |lane: usize,
                            mode: &mut [LaneMode],
                            x: &mut [f64],
                            xck: &mut [f64],
                            iters_in_solve: &mut [usize],
                            lane_iters: &mut [u64],
                            lane_solves: &mut [u64]| {
            lane_solves[lane] += 1;
            lane_iters[lane] += iters_in_solve[lane] as u64;
            iters_in_solve[lane] = 0;
            match mode[lane] {
                LaneMode::Plain => {
                    if opts.gmin_stepping {
                        // Enter the ladder from the scalar ramp's x0 = 0.
                        for i in 0..n {
                            x[i * k + lane] = 0.0;
                            xck[i * k + lane] = 0.0;
                        }
                        mode[lane] = LaneMode::Ramp {
                            target: GMIN_RAMP_START,
                            step: GMIN_RAMP_STEP,
                        };
                    } else {
                        mode[lane] = LaneMode::Idle;
                    }
                }
                LaneMode::Ramp { target, step } => {
                    if step > 10.0 && target < GMIN_RAMP_START {
                        // A fast rung failed below the opening: rewind to
                        // the last accepted solution and downshift once to
                        // gentle ×10 steps. One retry speed only — further
                        // adaptivity would let a straggler stall the batch.
                        for i in 0..n {
                            x[i * k + lane] = xck[i * k + lane];
                        }
                        mode[lane] = LaneMode::Ramp {
                            target: (target * step / 10.0).max(GMIN_FLOOR),
                            step: 10.0,
                        };
                    } else if walk_ok[lane] {
                        // The ladder failed cold, but this lane's previous
                        // operating point is known: source-walk from it as
                        // a last resort before the scalar fallback.
                        for i in 0..n {
                            let idx = i * k + lane;
                            x[idx] = wx[idx];
                            xck[idx] = wx[idx];
                        }
                        mode[lane] = LaneMode::Walk {
                            reached: 0.0,
                            trying: 0.5,
                        };
                    } else {
                        // The opening rung or a gentle rung failed: retire.
                        // The scalar fallback re-runs the full adaptive
                        // ladder under the caller's options.
                        mode[lane] = LaneMode::Idle;
                    }
                }
                LaneMode::Walk { reached, trying } => {
                    let step = trying - reached;
                    if step <= WALK_MIN_STEP {
                        // The operating point moves near-discontinuously
                        // in λ — a switch sitting on its threshold. The
                        // ladder already failed this lane; retire it to
                        // the scalar fallback.
                        mode[lane] = LaneMode::Idle;
                    } else {
                        // Rewind to the last converged λ and bisect.
                        for i in 0..n {
                            x[i * k + lane] = xck[i * k + lane];
                        }
                        mode[lane] = LaneMode::Walk {
                            reached,
                            trying: reached + step * 0.5,
                        };
                    }
                }
                LaneMode::Idle => unreachable!("idle lane cannot fail a solve"),
            }
        };

        loop {
            let mut any = false;
            for lane in 0..k {
                let (on, g, lam) = match mode[lane] {
                    LaneMode::Plain => (true, GMIN_FLOOR, 1.0),
                    LaneMode::Ramp { target, .. } => (true, target, 1.0),
                    LaneMode::Walk { trying, .. } => (true, GMIN_FLOOR, trying),
                    LaneMode::Idle => (false, GMIN_FLOOR, 1.0),
                };
                active[lane] = on;
                gmins[lane] = g;
                lambdas[lane] = lam;
                any |= on;
            }
            if !any {
                break;
            }
            lockstep_iterations += 1;
            self.sys
                .iterate(&self.lanes, &active, &x, &gmins, &lambdas, &mut b);
            alive.copy_from_slice(&active);
            if self.lu.factor(self.sys.matrix(), &mut alive).is_err() {
                // Every live lane's skeleton factorization failed at its
                // current rung; each escalates (plain lanes enter the
                // ladder, ramp lanes retire to the scalar fallback).
                for (lane, &on) in active.iter().enumerate() {
                    if on {
                        solve_failed(
                            lane,
                            &mut mode,
                            &mut x,
                            &mut xck,
                            &mut iters_in_solve,
                            &mut lane_iters,
                            &mut lane_solves,
                        );
                    }
                }
                continue;
            }
            for lane in 0..k {
                if active[lane] && !alive[lane] {
                    // Pivot degraded for this lane's values under the
                    // skeleton's pivot order — the lane's solve fails,
                    // like a scalar `SingularMatrix`, and escalates.
                    active[lane] = false;
                    solve_failed(
                        lane,
                        &mut mode,
                        &mut x,
                        &mut xck,
                        &mut iters_in_solve,
                        &mut lane_iters,
                        &mut lane_solves,
                    );
                }
            }
            if !active.iter().any(|&a| a) {
                continue;
            }
            self.lu.solve_in_place(&mut b);
            for lane in 0..k {
                if !active[lane] {
                    continue;
                }
                iters_in_solve[lane] += 1;
                let finite = (0..n).all(|i| b[i * k + lane].is_finite());
                if !finite {
                    solve_failed(
                        lane,
                        &mut mode,
                        &mut x,
                        &mut xck,
                        &mut iters_in_solve,
                        &mut lane_iters,
                        &mut lane_solves,
                    );
                    continue;
                }
                // The scalar Newton kernel's damped update, on this lane.
                let (converged, max_step) = damped_update(&mut x, &b, nv, k, lane);
                if converged {
                    // This solve succeeded; advance the lane's ladder.
                    lane_solves[lane] += 1;
                    lane_iters[lane] += iters_in_solve[lane] as u64;
                    iters_in_solve[lane] = 0;
                    match mode[lane] {
                        LaneMode::Plain => {
                            mode[lane] = LaneMode::Idle;
                            outcome[lane] = Some((OpStrategy::Newton, max_step));
                        }
                        LaneMode::Ramp { target, step } => {
                            if target <= GMIN_FLOOR {
                                mode[lane] = LaneMode::Idle;
                                outcome[lane] = Some((OpStrategy::GminStepping, max_step));
                            } else {
                                // Accept the rung: checkpoint it, then
                                // descend one fixed step. Warm starts make
                                // each rung a handful of iterations.
                                for i in 0..n {
                                    xck[i * k + lane] = x[i * k + lane];
                                }
                                mode[lane] = LaneMode::Ramp {
                                    target: (target / step).max(GMIN_FLOOR),
                                    step,
                                };
                            }
                        }
                        LaneMode::Walk { reached, trying } => {
                            if trying >= 1.0 {
                                // λ = 1 is the true system (the stamp
                                // copies the rhs exactly there) — solved.
                                mode[lane] = LaneMode::Idle;
                                outcome[lane] = Some((OpStrategy::SourceStepping, max_step));
                            } else {
                                // Accept this λ: checkpoint, then double
                                // the step toward 1.
                                for i in 0..n {
                                    xck[i * k + lane] = x[i * k + lane];
                                }
                                let step = trying - reached;
                                mode[lane] = LaneMode::Walk {
                                    reached: trying,
                                    trying: (trying + 2.0 * step).min(1.0),
                                };
                            }
                        }
                        LaneMode::Idle => unreachable!("idle lane cannot converge"),
                    }
                } else {
                    let cap = match mode[lane] {
                        LaneMode::Plain => plain_budget,
                        LaneMode::Walk { .. } => walk_budget,
                        // The opening rung solves cold from zero — give it
                        // the full budget; descending rungs are warm.
                        LaneMode::Ramp { target, .. } if target >= GMIN_RAMP_START => budget,
                        LaneMode::Ramp { step, .. } if step > 10.0 => fast_rung_budget,
                        LaneMode::Ramp { .. } => gentle_rung_budget,
                        LaneMode::Idle => unreachable!("idle lane cannot iterate"),
                    };
                    if iters_in_solve[lane] >= cap {
                        solve_failed(
                            lane,
                            &mut mode,
                            &mut x,
                            &mut xck,
                            &mut iters_in_solve,
                            &mut lane_iters,
                            &mut lane_solves,
                        );
                    }
                }
            }
        }

        // Retain the final lane states as the next solve's starting
        // point, and record which lanes actually converged — only those
        // anchor the next solve's source-continuation walk.
        self.warm_x.clear();
        self.warm_x.extend_from_slice(&x);
        self.warm_ok.clear();
        self.warm_ok.extend(outcome.iter().map(|o| o.is_some()));

        let node_count = self.reference.node_count();
        let mut outcomes: Vec<LaneOutcome> = Vec::with_capacity(k);
        for lane in 0..k {
            if let Some((strategy, max_step)) = outcome[lane] {
                let x_lane: Vec<f64> = (0..n).map(|i| x[i * k + lane]).collect();
                outcomes.push(LaneOutcome::Solved(OpResult::from_parts(
                    x_lane,
                    node_count,
                    ConvergenceReport {
                        strategy,
                        newton_iterations: lane_iters[lane],
                        solves: lane_solves[lane],
                        final_residual: max_step,
                    },
                )));
                continue;
            }
            match Simulator::new(&self.lanes[lane]).op_options(*opts).op() {
                Ok(r) => {
                    // The scalar ladder found this lane's operating point;
                    // seed the warm start with it so the next solve of a
                    // sweep can source-walk instead of falling back again.
                    for (i, &v) in r.unknowns().iter().enumerate() {
                        self.warm_x[i * k + lane] = v;
                    }
                    self.warm_ok[lane] = true;
                    outcomes.push(LaneOutcome::Fallback(r));
                }
                Err(e) => outcomes.push(LaneOutcome::Failed(e)),
            }
        }

        let fallbacks = outcome.iter().filter(|o| o.is_none()).count();
        let lockstep_solved = k - fallbacks;
        fts_telemetry::counter("spice.ensemble.lanes", k as u64);
        fts_telemetry::counter("spice.ensemble.lockstep_iterations", lockstep_iterations);
        if fallbacks > 0 {
            fts_telemetry::counter("spice.ensemble.scalar_fallback", fallbacks as u64);
        }
        fts_telemetry::record(
            "spice.ensemble.lane_utilization",
            lockstep_solved as f64 / k as f64,
        );
        // a = lanes in the batch, b = lanes that fell back to scalar.
        fts_telemetry::trace::emit("ensemble_solve", "", k as f64, fallbacks as f64);
        outcomes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{MosParams, Waveform};

    /// A pulled-up pass transistor: the lattice crosspoint in miniature.
    /// `vgate` turns the switch on or off; `ohms` varies per lane.
    fn switch_cell(vgate: f64, ohms: f64, vth: f64) -> (Netlist, crate::NodeId) {
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let out = nl.node("out");
        let gate = nl.node("gate");
        nl.vsource("VDD", vdd, Netlist::GROUND, Waveform::Dc(1.2))
            .unwrap();
        nl.vsource("VG", gate, Netlist::GROUND, Waveform::Dc(vgate))
            .unwrap();
        nl.resistor("RPU", vdd, out, ohms).unwrap();
        nl.nmos(
            "M1",
            out,
            gate,
            Netlist::GROUND,
            MosParams {
                kp: 2.0e-4,
                vth,
                lambda: 0.01,
                w_over_l: 4.0,
            },
        )
        .unwrap();
        (nl, out)
    }

    #[test]
    fn ensemble_op_matches_scalar_simulator() {
        let (reference, out) = switch_cell(1.2, 500.0e3, 0.4);
        let mut ens = OpEnsemble::new(&reference);
        let mut lanes = Vec::new();
        for lane in 0..6 {
            let vgate = if lane % 2 == 0 { 1.2 } else { 0.0 };
            let (nl, _) = switch_cell(vgate, 500.0e3 * (1.0 + 0.03 * lane as f64), 0.4);
            lanes.push(nl.clone());
            ens.try_push(nl).unwrap();
        }
        let opts = OpOptions::full();
        let outcomes = ens.solve_op(&opts);
        assert_eq!(outcomes.len(), 6);
        for (lane, outcome) in outcomes.iter().enumerate() {
            assert!(
                outcome.is_lockstep(),
                "lane {lane} should solve in lockstep"
            );
            let scalar = Simulator::new(&lanes[lane]).op().unwrap();
            let v_ens = outcome.result().unwrap().voltage(out);
            let v_scalar = scalar.voltage(out);
            assert!(
                (v_ens - v_scalar).abs() <= 1e-9,
                "lane {lane}: ensemble {v_ens} scalar {v_scalar}"
            );
        }
    }

    #[test]
    fn ensemble_is_reusable_across_assignment_sweeps() {
        let (reference, out) = switch_cell(1.2, 500.0e3, 0.4);
        let mut ens = OpEnsemble::new(&reference);
        for lane in 0..3 {
            let (nl, _) = switch_cell(1.2, 500.0e3 + 1.0e3 * lane as f64, 0.4);
            ens.try_push(nl).unwrap();
        }
        let opts = OpOptions::full();
        for &vgate in &[1.2, 0.0, 1.2] {
            for lane in 0..3 {
                ens.lane_mut(lane)
                    .set_vsource("VG", Waveform::Dc(vgate))
                    .unwrap();
            }
            let outcomes = ens.solve_op(&opts);
            for (lane, outcome) in outcomes.iter().enumerate() {
                let (nl, _) = switch_cell(vgate, 500.0e3 + 1.0e3 * lane as f64, 0.4);
                let scalar = Simulator::new(&nl).op().unwrap();
                let v = outcome.result().expect("converged").voltage(out);
                assert!(
                    (v - scalar.voltage(out)).abs() <= 1e-9,
                    "vgate {vgate} lane {lane}"
                );
            }
        }
    }

    #[test]
    fn exhausted_budget_falls_back_to_scalar_mid_batch() {
        // An off switch is effectively linear and converges in two
        // lockstep iterations; an on switch needs more. A budget of two
        // therefore solves the off lanes in lockstep and retires the on
        // lanes to the scalar ladder — which must still get them right.
        let (reference, out) = switch_cell(1.2, 500.0e3, 0.4);
        let mut ens = OpEnsemble::new(&reference).lockstep_budget(2);
        let gates = [0.0, 1.2, 0.0, 1.2];
        for &vgate in &gates {
            let (nl, _) = switch_cell(vgate, 500.0e3, 0.4);
            ens.try_push(nl).unwrap();
        }
        let opts = OpOptions::full();
        let outcomes = ens.solve_op(&opts);
        for (lane, (&vgate, outcome)) in gates.iter().zip(&outcomes).enumerate() {
            let (nl, _) = switch_cell(vgate, 500.0e3, 0.4);
            let scalar = Simulator::new(&nl).op().unwrap();
            let v = outcome.result().expect("some path converged").voltage(out);
            assert!(
                (v - scalar.voltage(out)).abs() <= 1e-9,
                "lane {lane} vgate {vgate}"
            );
            if vgate == 0.0 {
                assert!(outcome.is_lockstep(), "off lane {lane} stays in lockstep");
            } else {
                assert!(
                    matches!(outcome, LaneOutcome::Fallback(_)),
                    "on lane {lane} must fall back"
                );
            }
        }
    }

    #[test]
    fn topology_mismatch_is_rejected() {
        let (reference, _) = switch_cell(1.2, 500.0e3, 0.4);
        let mut ens = OpEnsemble::new(&reference);
        let mut other = Netlist::new();
        let a = other.node("a");
        other
            .vsource("V1", a, Netlist::GROUND, Waveform::Dc(1.0))
            .unwrap();
        let rejected = ens.try_push(other).unwrap_err();
        assert_eq!(rejected.device_count(), 1);
        assert!(ens.is_empty());
    }
}
