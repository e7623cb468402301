//! The [`Simulator`] facade: one configured entry point for every
//! analysis.
//!
//! A `Simulator` borrows (or owns) a netlist, carries the solver choice,
//! operating-point policy, and cancellation token, and caches one
//! [`SolverWorkspace`] across analyses — so an op followed by a transient
//! (or a whole DC sweep) pays for the sparse symbolic factorization once.
//!
//! # Example
//!
//! ```
//! use fts_spice::netlist::{Netlist, Waveform};
//! use fts_spice::{Simulator, SolverKind};
//!
//! let mut nl = Netlist::new();
//! let vin = nl.node("in");
//! let out = nl.node("out");
//! nl.vsource("V1", vin, Netlist::GROUND, Waveform::Dc(2.0))?;
//! nl.resistor("R1", vin, out, 1.0e3)?;
//! nl.resistor("R2", out, Netlist::GROUND, 3.0e3)?;
//! let op = Simulator::new(&nl).solver(SolverKind::Auto).op()?;
//! assert!((op.voltage(out) - 1.5).abs() < 1e-6);
//! # Ok::<(), fts_spice::SpiceError>(())
//! ```

use std::borrow::Cow;
use std::cell::RefCell;

use crate::analysis::{self, AcResult, OpOptions, OpResult, SampleSink, TranConfig, Transient};
use crate::cancel::CancelToken;
use crate::netlist::{Netlist, SolverKind};
use crate::stamp::SolverWorkspace;
use crate::SpiceError;

/// A configured simulation session over one netlist.
///
/// Built with [`Simulator::new`] (borrowing) or [`Simulator::from_owned`];
/// builder methods select the solver, share a symbolic factorization,
/// restrict the operating-point homotopy ladder, or attach a
/// [`CancelToken`]. Analysis methods ([`op`](Simulator::op),
/// [`dc_sweep`](Simulator::dc_sweep), [`transient`](Simulator::transient),
/// [`ac`](Simulator::ac)) produce results bit-identical to the legacy
/// free functions.
pub struct Simulator<'a> {
    netlist: Cow<'a, Netlist>,
    op_options: OpOptions,
    cancel: Option<CancelToken>,
    // Lazily built on the first analysis, then reused; invalidated when a
    // builder method changes what `SolverWorkspace::for_netlist` would
    // produce. `None` inside the RefCell = not built yet.
    ws: RefCell<Option<SolverWorkspace>>,
}

impl<'a> Simulator<'a> {
    /// A simulator borrowing `netlist`. Methods that must mutate the
    /// circuit (solver choice, [`dc_sweep`](Simulator::dc_sweep)) clone it
    /// on first write.
    pub fn new(netlist: &'a Netlist) -> Simulator<'a> {
        Simulator {
            netlist: Cow::Borrowed(netlist),
            op_options: OpOptions::full(),
            cancel: None,
            ws: RefCell::new(None),
        }
    }

    /// A simulator owning its netlist — useful when the circuit is built
    /// for this session anyway, avoiding the copy-on-write clone.
    pub fn from_owned(netlist: Netlist) -> Simulator<'static> {
        Simulator {
            netlist: Cow::Owned(netlist),
            op_options: OpOptions::full(),
            cancel: None,
            ws: RefCell::new(None),
        }
    }

    /// Selects the linear-solver engine.
    pub fn solver(mut self, kind: SolverKind) -> Simulator<'a> {
        if self.netlist.solver_kind() != kind {
            self.netlist.to_mut().set_solver(kind);
            self.ws = RefCell::new(None);
        }
        self
    }

    /// Restricts or extends the DC operating-point homotopy ladder.
    pub fn op_options(mut self, opts: OpOptions) -> Simulator<'a> {
        self.op_options = opts;
        self
    }

    /// Attaches a cancellation token, checked inside every Newton
    /// iteration and at every transient timestep.
    pub fn cancel_token(mut self, token: CancelToken) -> Simulator<'a> {
        self.cancel = Some(token);
        self
    }

    /// The netlist this simulator runs (after any builder mutations).
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Runs `f` with the cached workspace, building it on first use. The
    /// workspace is moved into a fresh `RefCell` for the duration of the
    /// call (the analysis internals borrow it mutably per solve) and put
    /// back afterwards — even partial progress warms later calls.
    fn with_ws<R>(&self, netlist: &Netlist, f: impl FnOnce(&RefCell<SolverWorkspace>) -> R) -> R {
        let ws = self
            .ws
            .borrow_mut()
            .take()
            .unwrap_or_else(|| SolverWorkspace::for_netlist(netlist));
        let cell = RefCell::new(ws);
        let out = f(&cell);
        *self.ws.borrow_mut() = Some(cell.into_inner());
        out
    }

    /// Solves the DC operating point at `t = 0`.
    ///
    /// # Errors
    ///
    /// [`SpiceError::NoConvergence`] when every permitted homotopy rung
    /// fails, [`SpiceError::SingularMatrix`] for structurally broken
    /// circuits, or a cancellation error from the attached token.
    pub fn op(&self) -> Result<OpResult, SpiceError> {
        self.op_at(0.0, None)
    }

    /// Solves the operating point with sources evaluated at time `t`,
    /// warm-starting from `initial` when provided.
    ///
    /// # Errors
    ///
    /// As for [`op`](Simulator::op).
    pub fn op_at(&self, t: f64, initial: Option<&[f64]>) -> Result<OpResult, SpiceError> {
        self.with_ws(&self.netlist, |ws| {
            analysis::op_at_impl(
                &self.netlist,
                t,
                initial,
                ws,
                &self.op_options,
                self.cancel.as_ref(),
            )
        })
    }

    /// Sweeps the DC value of the named voltage source, one operating
    /// point per value (warm-started along the sweep). Mutates this
    /// simulator's copy of the netlist; the borrowed original is
    /// untouched.
    ///
    /// # Errors
    ///
    /// [`SpiceError::NotFound`] for an unknown source, or convergence /
    /// cancellation errors from the per-point solves.
    pub fn dc_sweep(&mut self, source: &str, values: &[f64]) -> Result<Vec<OpResult>, SpiceError> {
        // Waveform edits leave the MNA pattern intact, so the cached
        // workspace stays valid across the whole sweep.
        let ws = self
            .ws
            .borrow_mut()
            .take()
            .unwrap_or_else(|| SolverWorkspace::for_netlist(&self.netlist));
        let cell = RefCell::new(ws);
        let out = analysis::dc_sweep_impl(
            self.netlist.to_mut(),
            source,
            values,
            &cell,
            &self.op_options,
            self.cancel.as_ref(),
        );
        *self.ws.borrow_mut() = Some(cell.into_inner());
        out
    }

    /// Runs a transient analysis (fixed or adaptive stepping per
    /// [`TranConfig`]) and collects the full waveform.
    ///
    /// # Errors
    ///
    /// Propagates convergence, singularity, and cancellation errors;
    /// rejects invalid configurations.
    pub fn transient(&self, cfg: &TranConfig) -> Result<Transient, SpiceError> {
        cfg.validate()?;
        self.with_ws(&self.netlist, |ws| {
            analysis::transient_collect(
                &self.netlist,
                cfg,
                ws,
                &self.op_options,
                self.cancel.as_ref(),
            )
        })
    }

    /// Runs a transient analysis, streaming every accepted sample into
    /// `sink` instead of collecting the waveform — the bounded-memory
    /// path the batch engine uses.
    ///
    /// # Errors
    ///
    /// As for [`transient`](Simulator::transient).
    pub fn transient_into(
        &self,
        cfg: &TranConfig,
        sink: &mut dyn SampleSink,
    ) -> Result<(), SpiceError> {
        cfg.validate()?;
        self.with_ws(&self.netlist, |ws| {
            analysis::transient_into_impl(
                &self.netlist,
                cfg,
                ws,
                &self.op_options,
                self.cancel.as_ref(),
                sink,
            )
        })
    }

    /// Small-signal AC analysis: linearizes around the DC operating point
    /// and sweeps the named source with a unit phasor.
    ///
    /// # Errors
    ///
    /// Propagates operating-point failures, [`SpiceError::NotFound`] for
    /// an unknown source, and singular-matrix errors.
    pub fn ac(&self, ac_source: &str, freqs: &[f64]) -> Result<AcResult, SpiceError> {
        self.with_ws(&self.netlist, |ws| {
            analysis::ac_impl(
                &self.netlist,
                ac_source,
                freqs,
                ws,
                &self.op_options,
                self.cancel.as_ref(),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Waveform;

    fn divider() -> (Netlist, crate::NodeId) {
        let mut nl = Netlist::new();
        let vin = nl.node("in");
        let out = nl.node("out");
        nl.vsource("V1", vin, Netlist::GROUND, Waveform::Dc(2.0))
            .unwrap();
        nl.resistor("R1", vin, out, 1.0e3).unwrap();
        nl.resistor("R2", out, Netlist::GROUND, 3.0e3).unwrap();
        (nl, out)
    }

    #[test]
    fn facade_op_matches_divider() {
        let (nl, out) = divider();
        let r = Simulator::new(&nl).op().unwrap();
        assert!((r.voltage(out) - 1.5).abs() < 1e-6);
    }

    #[test]
    fn workspace_is_reused_across_analyses() {
        let (nl, out) = divider();
        let sim = Simulator::new(&nl).solver(SolverKind::Sparse);
        let a = sim.op().unwrap();
        let b = sim.op().unwrap();
        assert_eq!(a.voltage(out), b.voltage(out));
        // The second solve reused the cached workspace — the facade holds
        // exactly one.
        assert!(sim.ws.borrow().is_some());
    }

    #[test]
    fn dc_sweep_leaves_borrowed_netlist_untouched() {
        let (nl, out) = divider();
        let mut sim = Simulator::new(&nl);
        let results = sim.dc_sweep("V1", &[0.0, 4.0]).unwrap();
        assert!((results[1].voltage(out) - 3.0).abs() < 1e-6);
        // The original still drives 2 V.
        let r = Simulator::new(&nl).op().unwrap();
        assert!((r.voltage(out) - 1.5).abs() < 1e-6);
    }

    #[test]
    fn cancelled_token_aborts_op() {
        let (nl, _) = divider();
        let token = CancelToken::new();
        token.cancel();
        let err = Simulator::new(&nl).cancel_token(token).op().unwrap_err();
        assert!(err.is_cancellation(), "got {err:?}");
    }

    #[test]
    fn newton_only_policy_still_solves_linear_circuits() {
        let (nl, out) = divider();
        let r = Simulator::new(&nl)
            .op_options(OpOptions::newton_only())
            .op()
            .unwrap();
        assert!((r.voltage(out) - 1.5).abs() < 1e-6);
    }
}
