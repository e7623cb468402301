//! A self-contained SPICE-class circuit simulator (the substrate for §V of
//! the DATE 2019 paper).
//!
//! The paper runs its four-terminal-switch circuits in a commercial Spice;
//! this crate implements the required subset from scratch:
//!
//! * [`netlist`] — circuit construction: resistors, capacitors, current
//!   sources, voltage sources with DC / PULSE / PWL waveforms, and level-1
//!   n-MOSFETs;
//! * [`analysis`] — DC operating point (Newton–Raphson with gmin and
//!   source stepping), DC sweeps, and transient analysis with
//!   backward-Euler or trapezoidal integration;
//! * [`measure`] — waveform post-processing: rise/fall times, logic
//!   levels, threshold crossings (the quantities reported for Fig. 11);
//! * [`linalg`] — the linear-solver core: a dense LU reference oracle and
//!   a sparse engine (CSR matrix, minimum-degree ordering, Gilbert–Peierls
//!   LU) whose symbolic factorization is computed once per sparsity
//!   pattern and shared across Newton iterations, timesteps, Monte Carlo
//!   trials, and jobs;
//! * [`ensemble`] — the lockstep ensemble solver: K same-topology trials
//!   stamped into structure-of-arrays value lanes, factored by one
//!   lane-batched numeric replay, and driven through Newton under a
//!   per-lane convergence mask (the Monte Carlo hot path).
//!
//! Analyses pick the engine per netlist via
//! [`netlist::SolverKind`]: `Auto` (default, by system size), `Dense`, or
//! `Sparse`. Every sparse solver takes its symbolic analysis from
//! [`Symbolic::shared`], a process-wide memo keyed by the exact pattern,
//! so same-topology netlists analyze their pattern once however they are
//! solved.
//!
//! Long-running analyses accept a [`CancelToken`] (cooperative
//! cancellation with optional deadlines, checked inside every Newton
//! iteration), and the [`Simulator`] facade ties netlist, solver choice,
//! policy, and token together behind one entry point.
//!
//! # Example
//!
//! A resistive divider:
//!
//! ```
//! use fts_spice::netlist::{Netlist, Waveform};
//! use fts_spice::Simulator;
//!
//! let mut nl = Netlist::new();
//! let vin = nl.node("in");
//! let out = nl.node("out");
//! nl.vsource("V1", vin, Netlist::GROUND, Waveform::Dc(2.0))?;
//! nl.resistor("R1", vin, out, 1.0e3)?;
//! nl.resistor("R2", out, Netlist::GROUND, 3.0e3)?;
//! let op = Simulator::new(&nl).op()?;
//! assert!((op.voltage(out) - 1.5).abs() < 1e-6);
//! # Ok::<(), fts_spice::SpiceError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// `!(x > 0.0)` is used deliberately throughout: unlike `x <= 0.0` it also
// rejects NaN inputs, which must never reach the solvers.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod analysis;
mod cancel;
pub mod complex;
pub mod ensemble;
mod error;
pub mod linalg;
pub mod measure;
pub mod mos3;
pub mod netlist;
mod sim;
mod stamp;

pub use analysis::{
    ConvergenceReport, Integrator, OpOptions, OpStrategy, SampleSink, Stepping, TranConfig,
};
pub use cancel::CancelToken;
pub use complex::Complex;
pub use ensemble::{LaneOutcome, OpEnsemble};
pub use error::SpiceError;
pub use linalg::{EnsembleLu, SparseLu, SparseMatrix, SparseMatrixEnsemble, Symbolic};
pub use mos3::Mos3Params;
pub use netlist::{DeviceView, MosParams, Netlist, NodeId, SolverKind, Waveform};
pub use sim::Simulator;
