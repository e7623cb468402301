//! MNA device stamping and the shared Newton kernel.
//!
//! Two stamping paths exist:
//!
//! * the dense reference path ([`stamp_all`] into a [`Matrix`]), kept as
//!   the oracle for small systems and for the `solver_compare` tests, and
//! * the sparse hot path ([`SparseSystem`]), where every device resolves
//!   its matrix slots once at build time and each Newton iteration rewrites
//!   values in place — no allocation, no hashing, no binary search.
//!
//! [`SolverWorkspace`] picks between them from the netlist's
//! [`SolverKind`](crate::netlist::SolverKind) and size.

use std::sync::Arc;

use crate::cancel::CancelToken;
use crate::linalg::{Matrix, SparseLu, SparseMatrix, Symbolic};
use crate::netlist::{Element, MosParams, Netlist, SolverKind};
use crate::SpiceError;

/// How capacitors are handled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum CapMode {
    /// DC: capacitors are open circuits.
    Open,
    /// Transient step of size `dt` with the chosen integrator.
    Step { dt: f64, trapezoidal: bool },
}

/// Per-capacitor dynamic state (previous voltage and branch current).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CapState {
    pub v: f64,
    pub i: f64,
}

pub(crate) struct StampContext<'a> {
    pub t: f64,
    pub cap_mode: CapMode,
    pub cap_states: &'a [CapState],
    pub gmin: f64,
    pub source_scale: f64,
    /// Cooperative cancellation, checked at every Newton iteration so a
    /// cancel or deadline stops the solve within one linear solve.
    pub cancel: Option<&'a CancelToken>,
}

/// Index of a node voltage inside the unknown vector (`None` = ground).
fn vidx(node: crate::netlist::NodeId) -> Option<usize> {
    if node.index() == 0 {
        None
    } else {
        Some(node.index() - 1)
    }
}

fn voltage(x: &[f64], node: crate::netlist::NodeId) -> f64 {
    match vidx(node) {
        None => 0.0,
        Some(i) => x[i],
    }
}

fn add_conductance(a: &mut Matrix, i: Option<usize>, j: Option<usize>, g: f64) {
    if let Some(i) = i {
        a.add(i, i, g);
    }
    if let Some(j) = j {
        a.add(j, j, g);
    }
    if let (Some(i), Some(j)) = (i, j) {
        a.add(i, j, -g);
        a.add(j, i, -g);
    }
}

fn add_current(b: &mut [f64], into: Option<usize>, outof: Option<usize>, i: f64) {
    if let Some(n) = into {
        b[n] += i;
    }
    if let Some(n) = outof {
        b[n] -= i;
    }
}

/// Level-1 current and small-signal conductances (forward orientation,
/// `vds ≥ 0`).
fn level1(params: &MosParams, vgs: f64, vds: f64) -> (f64, f64, f64) {
    let beta = params.kp * params.w_over_l;
    let vov = vgs - params.vth;
    if vov <= 0.0 {
        return (0.0, 0.0, 0.0);
    }
    let clm = 1.0 + params.lambda * vds;
    if vds <= vov {
        let ids = beta * (vov * vds - 0.5 * vds * vds) * clm;
        let gm = beta * vds * clm;
        let gds = beta * (vov - vds) * clm + beta * (vov * vds - 0.5 * vds * vds) * params.lambda;
        (ids, gm, gds)
    } else {
        let ids = 0.5 * beta * vov * vov * clm;
        let gm = beta * vov * clm;
        let gds = 0.5 * beta * vov * vov * params.lambda;
        (ids, gm, gds)
    }
}

/// Stamps every device into `(a, b)` around the linearization point `x`.
pub(crate) fn stamp_all(
    netlist: &Netlist,
    x: &[f64],
    a: &mut Matrix,
    b: &mut [f64],
    ctx: &StampContext<'_>,
) {
    let nv = netlist.node_count() - 1;
    let mut cap_index = 0usize;
    for dev in &netlist.devices {
        match &dev.element {
            Element::Resistor { a: na, b: nb, ohms } => {
                add_conductance(a, vidx(*na), vidx(*nb), 1.0 / ohms);
            }
            Element::Capacitor {
                a: na,
                b: nb,
                farads,
            } => {
                match ctx.cap_mode {
                    CapMode::Open => {}
                    CapMode::Step { dt, trapezoidal } => {
                        let st = ctx.cap_states[cap_index];
                        let (g, ieq) = if trapezoidal {
                            let g = 2.0 * farads / dt;
                            (g, -(g * st.v + st.i))
                        } else {
                            let g = farads / dt;
                            (g, -g * st.v)
                        };
                        // Companion: i = g·v + ieq flowing a → b.
                        add_conductance(a, vidx(*na), vidx(*nb), g);
                        add_current(b, vidx(*nb), vidx(*na), ieq);
                    }
                }
                cap_index += 1;
            }
            Element::VSource {
                plus,
                minus,
                wave,
                branch,
            } => {
                let row = nv + branch;
                if let Some(p) = vidx(*plus) {
                    a.add(p, row, 1.0);
                    a.add(row, p, 1.0);
                }
                if let Some(m) = vidx(*minus) {
                    a.add(m, row, -1.0);
                    a.add(row, m, -1.0);
                }
                b[row] += wave.at(ctx.t) * ctx.source_scale;
            }
            Element::ISource { from, to, wave } => {
                add_current(b, vidx(*to), vidx(*from), wave.at(ctx.t) * ctx.source_scale);
            }
            Element::Nmos { d, g, s, params } => {
                let (vd, vg, vs) = (voltage(x, *d), voltage(x, *g), voltage(x, *s));
                // Symmetric pass-switch handling: the lower of d/s acts as
                // the source.
                let (nd, ns, vds_raw) = if vd >= vs {
                    (*d, *s, vd - vs)
                } else {
                    (*s, *d, vs - vd)
                };
                let vgs = vg - voltage(x, ns);
                let (ids, gm, gds) = level1(params, vgs, vds_raw);
                // Linearized drain current: i = ids + gm·Δvgs + gds·Δvds.
                let ieq = ids - gm * vgs - gds * vds_raw;
                let (id_, is_, ig_) = (vidx(nd), vidx(ns), vidx(*g));
                // gds between nd and ns.
                add_conductance(a, id_, is_, gds + ctx.gmin);
                // gm contribution: current into nd proportional to (vg−vns).
                if let Some(r) = id_ {
                    if let Some(c) = ig_ {
                        a.add(r, c, gm);
                    }
                    if let Some(c) = is_ {
                        a.add(r, c, -gm);
                    }
                }
                if let Some(r) = is_ {
                    if let Some(c) = ig_ {
                        a.add(r, c, -gm);
                    }
                    if let Some(c) = is_ {
                        a.add(r, c, gm);
                    }
                }
                // Constant part flows nd → ns.
                add_current(b, is_, id_, ieq);
            }
            Element::Nmos3 { d, g, s, params } => {
                let (vd, vg, vs) = (voltage(x, *d), voltage(x, *g), voltage(x, *s));
                let (nd, ns, vds_raw) = if vd >= vs {
                    (*d, *s, vd - vs)
                } else {
                    (*s, *d, vs - vd)
                };
                let vgs = vg - voltage(x, ns);
                let (ids, gm, gds) = params.linearize(vgs, vds_raw);
                let ieq = ids - gm * vgs - gds * vds_raw;
                let (id_, is_, ig_) = (vidx(nd), vidx(ns), vidx(*g));
                add_conductance(a, id_, is_, gds + ctx.gmin);
                if let Some(r) = id_ {
                    if let Some(c) = ig_ {
                        a.add(r, c, gm);
                    }
                    if let Some(c) = is_ {
                        a.add(r, c, -gm);
                    }
                }
                if let Some(r) = is_ {
                    if let Some(c) = ig_ {
                        a.add(r, c, -gm);
                    }
                    if let Some(c) = is_ {
                        a.add(r, c, gm);
                    }
                }
                add_current(b, is_, id_, ieq);
            }
        }
    }
    // Global gmin from every node to ground keeps matrices regular even
    // for floating subcircuits.
    for n in 0..nv {
        a.add(n, n, 1e-12);
    }
}

/// Updates capacitor states after a successful transient step.
pub(crate) fn update_cap_states(
    netlist: &Netlist,
    x: &[f64],
    states: &mut [CapState],
    dt: f64,
    trapezoidal: bool,
) {
    let mut cap_index = 0usize;
    for dev in &netlist.devices {
        if let Element::Capacitor { a, b, farads } = &dev.element {
            let v = voltage(x, *a) - voltage(x, *b);
            let st = &mut states[cap_index];
            let i = if trapezoidal {
                (2.0 * farads / dt) * (v - st.v) - st.i
            } else {
                (farads / dt) * (v - st.v)
            };
            st.v = v;
            st.i = i;
            cap_index += 1;
        }
    }
}

/// Initializes capacitor states from an operating point.
pub(crate) fn init_cap_states(netlist: &Netlist, x: &[f64]) -> Vec<CapState> {
    let mut out = Vec::new();
    for dev in &netlist.devices {
        if let Element::Capacitor { a, b, .. } = &dev.element {
            out.push(CapState {
                v: voltage(x, *a) - voltage(x, *b),
                i: 0.0,
            });
        }
    }
    out
}

/// Sentinel for "this stamp touches ground and has no matrix slot / rhs
/// row". Using a plain `usize` instead of `Option<usize>` keeps the plan
/// structs `Copy` and the hot-loop branches cheap.
const NO_SLOT: usize = usize::MAX;

/// Resolved slots for a two-terminal conductance stamp between unknowns
/// `i` and `j` (the classic `+g/+g/-g/-g` quadruple).
#[derive(Debug, Clone, Copy)]
struct PairSlots {
    ii: usize,
    jj: usize,
    ij: usize,
    ji: usize,
}

impl PairSlots {
    fn resolve(mat: &SparseMatrix, i: Option<usize>, j: Option<usize>) -> PairSlots {
        PairSlots {
            ii: entry_slot(mat, i, i),
            jj: entry_slot(mat, j, j),
            ij: entry_slot(mat, i, j),
            ji: entry_slot(mat, j, i),
        }
    }

    /// Mirrors [`add_conductance`]: when `i == j` the four writes hit the
    /// same slot and net to zero, exactly like the dense stamp.
    #[inline]
    fn stamp(&self, values: &mut [f64], g: f64) {
        if self.ii != NO_SLOT {
            values[self.ii] += g;
        }
        if self.jj != NO_SLOT {
            values[self.jj] += g;
        }
        if self.ij != NO_SLOT {
            values[self.ij] -= g;
        }
        if self.ji != NO_SLOT {
            values[self.ji] -= g;
        }
    }

    /// [`stamp`](PairSlots::stamp) into lane `lane` of a lane-minor value
    /// array with `lanes` lanes per slot.
    #[inline]
    fn stamp_lane(&self, values: &mut [f64], lanes: usize, lane: usize, g: f64) {
        if self.ii != NO_SLOT {
            values[self.ii * lanes + lane] += g;
        }
        if self.jj != NO_SLOT {
            values[self.jj * lanes + lane] += g;
        }
        if self.ij != NO_SLOT {
            values[self.ij * lanes + lane] -= g;
        }
        if self.ji != NO_SLOT {
            values[self.ji * lanes + lane] -= g;
        }
    }
}

fn entry_slot(mat: &SparseMatrix, i: Option<usize>, j: Option<usize>) -> usize {
    match (i, j) {
        (Some(i), Some(j)) => mat
            .slot(i, j)
            .expect("MNA pattern covers every device stamp"),
        _ => NO_SLOT,
    }
}

fn rhs_row(i: Option<usize>) -> usize {
    i.unwrap_or(NO_SLOT)
}

/// Per-device stamping plan: matrix slots and rhs rows resolved once at
/// build time so iterations never search the pattern.
#[derive(Debug, Clone, Copy)]
enum DevicePlan {
    Resistor {
        pair: PairSlots,
    },
    Capacitor {
        pair: PairSlots,
        a_row: usize,
        b_row: usize,
        cap_index: usize,
    },
    VSource {
        /// Slots (plus,row) / (row,plus) / (minus,row) / (row,minus).
        pr: usize,
        rp: usize,
        mr: usize,
        rm: usize,
        row: usize,
    },
    ISource {
        to_row: usize,
        from_row: usize,
    },
    Mos {
        /// The drain/source conductance quadruple; `ii/jj/ij/ji` double as
        /// the `(d,d)/(s,s)/(d,s)/(s,d)` gm slots.
        pair: PairSlots,
        dg: usize,
        sg: usize,
        d_row: usize,
        s_row: usize,
    },
}

/// Collects the MNA sparsity pattern of a netlist. Capacitor stamps are
/// always included so one pattern (and one symbolic analysis) serves both
/// DC (`CapMode::Open`) and transient companion stamping.
pub(crate) fn mna_pattern(netlist: &Netlist) -> SparseMatrix {
    let n = netlist.unknown_count();
    let nv = netlist.node_count() - 1;
    let mut entries: Vec<(usize, usize)> = Vec::new();
    let pair = |entries: &mut Vec<(usize, usize)>, i: Option<usize>, j: Option<usize>| {
        if let Some(i) = i {
            entries.push((i, i));
        }
        if let Some(j) = j {
            entries.push((j, j));
        }
        if let (Some(i), Some(j)) = (i, j) {
            entries.push((i, j));
            entries.push((j, i));
        }
    };
    for dev in &netlist.devices {
        match &dev.element {
            Element::Resistor { a, b, .. } | Element::Capacitor { a, b, .. } => {
                pair(&mut entries, vidx(*a), vidx(*b));
            }
            Element::VSource {
                plus,
                minus,
                branch,
                ..
            } => {
                let row = nv + branch;
                if let Some(p) = vidx(*plus) {
                    entries.push((p, row));
                    entries.push((row, p));
                }
                if let Some(m) = vidx(*minus) {
                    entries.push((m, row));
                    entries.push((row, m));
                }
            }
            Element::ISource { .. } => {}
            Element::Nmos { d, g, s, .. } | Element::Nmos3 { d, g, s, .. } => {
                // Union of both bias orientations: the drain/source pair
                // quadruple plus gm columns at the gate for both rows.
                pair(&mut entries, vidx(*d), vidx(*s));
                if let (Some(di), Some(gi)) = (vidx(*d), vidx(*g)) {
                    entries.push((di, gi));
                }
                if let (Some(si), Some(gi)) = (vidx(*s), vidx(*g)) {
                    entries.push((si, gi));
                }
            }
        }
    }
    // Global gmin diagonal on every node row.
    for k in 0..nv {
        entries.push((k, k));
    }
    SparseMatrix::from_entries(n, entries)
}

/// The sparse MNA system for one netlist topology: fixed-pattern matrix,
/// per-device slot plans, and the linear/nonlinear stamping split.
///
/// [`begin`](SparseSystem::begin) stamps everything bias-independent (R, C
/// companion, sources, gmin diagonal) into a baseline once per Newton
/// solve; [`iterate`](SparseSystem::iterate) copies the baseline and
/// restamps only the MOSFETs around the new linearization point.
pub(crate) struct SparseSystem {
    mat: SparseMatrix,
    plans: Vec<DevicePlan>,
    diag_slots: Vec<usize>,
    lin_values: Vec<f64>,
    lin_b: Vec<f64>,
}

impl SparseSystem {
    pub fn new(netlist: &Netlist) -> SparseSystem {
        let n = netlist.unknown_count();
        let nv = netlist.node_count() - 1;
        let mat = mna_pattern(netlist);
        let mut plans = Vec::with_capacity(netlist.devices.len());
        let mut cap_index = 0usize;
        for dev in &netlist.devices {
            plans.push(match &dev.element {
                Element::Resistor { a, b, .. } => DevicePlan::Resistor {
                    pair: PairSlots::resolve(&mat, vidx(*a), vidx(*b)),
                },
                Element::Capacitor { a, b, .. } => {
                    let plan = DevicePlan::Capacitor {
                        pair: PairSlots::resolve(&mat, vidx(*a), vidx(*b)),
                        a_row: rhs_row(vidx(*a)),
                        b_row: rhs_row(vidx(*b)),
                        cap_index,
                    };
                    cap_index += 1;
                    plan
                }
                Element::VSource {
                    plus,
                    minus,
                    branch,
                    ..
                } => {
                    let row = nv + branch;
                    DevicePlan::VSource {
                        pr: entry_slot(&mat, vidx(*plus), Some(row)),
                        rp: entry_slot(&mat, Some(row), vidx(*plus)),
                        mr: entry_slot(&mat, vidx(*minus), Some(row)),
                        rm: entry_slot(&mat, Some(row), vidx(*minus)),
                        row,
                    }
                }
                Element::ISource { from, to, .. } => DevicePlan::ISource {
                    to_row: rhs_row(vidx(*to)),
                    from_row: rhs_row(vidx(*from)),
                },
                Element::Nmos { d, g, s, .. } | Element::Nmos3 { d, g, s, .. } => {
                    let (di, si, gi) = (vidx(*d), vidx(*s), vidx(*g));
                    DevicePlan::Mos {
                        pair: PairSlots::resolve(&mat, di, si),
                        dg: entry_slot(&mat, di, gi),
                        sg: entry_slot(&mat, si, gi),
                        d_row: rhs_row(di),
                        s_row: rhs_row(si),
                    }
                }
            });
        }
        let diag_slots = (0..nv)
            .map(|k| mat.slot(k, k).expect("diagonal in pattern"))
            .collect();
        let nnz = mat.nnz();
        SparseSystem {
            mat,
            plans,
            diag_slots,
            lin_values: vec![0.0; nnz],
            lin_b: vec![0.0; n],
        }
    }

    pub fn matrix(&self) -> &SparseMatrix {
        &self.mat
    }

    /// Stamps the bias-independent baseline (linear devices, sources, gmin
    /// diagonal) for one Newton solve under `ctx`.
    pub fn begin(&mut self, netlist: &Netlist, ctx: &StampContext<'_>) {
        debug_assert_eq!(netlist.devices.len(), self.plans.len(), "plan drift");
        self.lin_values.fill(0.0);
        self.lin_b.fill(0.0);
        for (dev, plan) in netlist.devices.iter().zip(&self.plans) {
            match (&dev.element, plan) {
                (Element::Resistor { ohms, .. }, DevicePlan::Resistor { pair }) => {
                    pair.stamp(&mut self.lin_values, 1.0 / ohms);
                }
                (
                    Element::Capacitor { farads, .. },
                    DevicePlan::Capacitor {
                        pair,
                        a_row,
                        b_row,
                        cap_index,
                    },
                ) => match ctx.cap_mode {
                    CapMode::Open => {}
                    CapMode::Step { dt, trapezoidal } => {
                        let st = ctx.cap_states[*cap_index];
                        let (g, ieq) = if trapezoidal {
                            let g = 2.0 * farads / dt;
                            (g, -(g * st.v + st.i))
                        } else {
                            let g = farads / dt;
                            (g, -g * st.v)
                        };
                        pair.stamp(&mut self.lin_values, g);
                        if *b_row != NO_SLOT {
                            self.lin_b[*b_row] += ieq;
                        }
                        if *a_row != NO_SLOT {
                            self.lin_b[*a_row] -= ieq;
                        }
                    }
                },
                (
                    Element::VSource { wave, .. },
                    DevicePlan::VSource {
                        pr,
                        rp,
                        mr,
                        rm,
                        row,
                    },
                ) => {
                    if *pr != NO_SLOT {
                        self.lin_values[*pr] += 1.0;
                        self.lin_values[*rp] += 1.0;
                    }
                    if *mr != NO_SLOT {
                        self.lin_values[*mr] -= 1.0;
                        self.lin_values[*rm] -= 1.0;
                    }
                    self.lin_b[*row] += wave.at(ctx.t) * ctx.source_scale;
                }
                (Element::ISource { wave, .. }, DevicePlan::ISource { to_row, from_row }) => {
                    let i = wave.at(ctx.t) * ctx.source_scale;
                    if *to_row != NO_SLOT {
                        self.lin_b[*to_row] += i;
                    }
                    if *from_row != NO_SLOT {
                        self.lin_b[*from_row] -= i;
                    }
                }
                (Element::Nmos { .. } | Element::Nmos3 { .. }, DevicePlan::Mos { .. }) => {}
                _ => unreachable!("device/plan mismatch"),
            }
        }
        for &s in &self.diag_slots {
            self.lin_values[s] += 1e-12;
        }
    }

    /// Restamps the full system around linearization point `x`: copies the
    /// linear baseline, then applies only the MOSFET stamps. Zero
    /// allocation; `b` must have length `unknown_count`.
    pub fn iterate(&mut self, netlist: &Netlist, x: &[f64], ctx: &StampContext<'_>, b: &mut [f64]) {
        self.mat.values_mut().copy_from_slice(&self.lin_values);
        b.copy_from_slice(&self.lin_b);
        let vals = self.mat.values_mut();
        for (dev, plan) in netlist.devices.iter().zip(&self.plans) {
            let DevicePlan::Mos {
                pair,
                dg,
                sg,
                d_row,
                s_row,
            } = plan
            else {
                continue;
            };
            let (ids, gm, gds, forward, vgs, vds) = match &dev.element {
                Element::Nmos { d, g, s, params } => {
                    let (vd, vg, vs) = (voltage(x, *d), voltage(x, *g), voltage(x, *s));
                    let forward = vd >= vs;
                    let (vds, vgs) = if forward {
                        (vd - vs, vg - vs)
                    } else {
                        (vs - vd, vg - vd)
                    };
                    let (ids, gm, gds) = level1(params, vgs, vds);
                    (ids, gm, gds, forward, vgs, vds)
                }
                Element::Nmos3 { d, g, s, params } => {
                    let (vd, vg, vs) = (voltage(x, *d), voltage(x, *g), voltage(x, *s));
                    let forward = vd >= vs;
                    let (vds, vgs) = if forward {
                        (vd - vs, vg - vs)
                    } else {
                        (vs - vd, vg - vd)
                    };
                    let (ids, gm, gds) = params.linearize(vgs, vds);
                    (ids, gm, gds, forward, vgs, vds)
                }
                _ => unreachable!("Mos plan on non-MOS device"),
            };
            let ieq = ids - gm * vgs - gds * vds;
            pair.stamp(vals, gds + ctx.gmin);
            if forward {
                if *dg != NO_SLOT {
                    vals[*dg] += gm;
                }
                if pair.ij != NO_SLOT {
                    vals[pair.ij] -= gm;
                }
                if *sg != NO_SLOT {
                    vals[*sg] -= gm;
                }
                if pair.jj != NO_SLOT {
                    vals[pair.jj] += gm;
                }
                if *s_row != NO_SLOT {
                    b[*s_row] += ieq;
                }
                if *d_row != NO_SLOT {
                    b[*d_row] -= ieq;
                }
            } else {
                if *sg != NO_SLOT {
                    vals[*sg] += gm;
                }
                if pair.ji != NO_SLOT {
                    vals[pair.ji] -= gm;
                }
                if *dg != NO_SLOT {
                    vals[*dg] -= gm;
                }
                if pair.ii != NO_SLOT {
                    vals[pair.ii] += gm;
                }
                if *d_row != NO_SLOT {
                    b[*d_row] += ieq;
                }
                if *s_row != NO_SLOT {
                    b[*s_row] -= ieq;
                }
            }
        }
    }
}

/// The lane-batched counterpart of [`SparseSystem`]: one set of device
/// plans (resolved from a reference netlist) applied to K same-topology
/// lane netlists stamping into a [`SparseMatrixEnsemble`].
///
/// Restricted to DC operating-point stamping (`CapMode::Open`): the
/// ensemble Monte Carlo path batches DC evaluations only, so capacitors
/// are open circuits and no per-lane companion state exists.
pub(crate) struct EnsembleSystem {
    mat: crate::linalg::SparseMatrixEnsemble,
    plans: Vec<DevicePlan>,
    diag_slots: Vec<usize>,
    /// Lane-minor linear baseline values, `nnz * lanes`.
    lin_values: Vec<f64>,
    /// Lane-minor linear baseline rhs, `unknowns * lanes`.
    lin_b: Vec<f64>,
    /// The *previous* [`begin`](EnsembleSystem::begin)'s rhs — the
    /// source-continuation anchor. Between two solves of an
    /// input-assignment sweep only source values change, and source
    /// values enter the MNA system through the rhs alone (vsource rows
    /// stamp constant ±1 matrix entries), so interpolating the rhs
    /// interpolates the whole system between the two assignments.
    lin_b_prev: Vec<f64>,
}

impl EnsembleSystem {
    /// Builds plans from `reference`'s topology with `lanes` value lanes.
    /// Every netlist later stamped must satisfy
    /// [`Netlist::same_topology`] against the reference.
    pub fn new(reference: &Netlist, lanes: usize) -> EnsembleSystem {
        let scalar = SparseSystem::new(reference);
        let n = reference.unknown_count();
        let nnz = scalar.mat.nnz();
        EnsembleSystem {
            mat: crate::linalg::SparseMatrixEnsemble::new(scalar.mat, lanes),
            plans: scalar.plans,
            diag_slots: scalar.diag_slots,
            lin_values: vec![0.0; nnz * lanes],
            lin_b: vec![0.0; n * lanes],
            lin_b_prev: vec![0.0; n * lanes],
        }
    }

    pub fn matrix(&self) -> &crate::linalg::SparseMatrixEnsemble {
        &self.mat
    }

    /// Resizes to `lanes` value lanes, zeroing lane state. A no-op when
    /// the lane count is unchanged, so the previous solve's rhs survives
    /// for [`begin`](EnsembleSystem::begin) to stash as the
    /// source-continuation anchor.
    pub fn set_lanes(&mut self, lanes: usize) {
        if lanes == self.mat.lanes()
            && self.lin_values.len() == self.mat.nnz() * lanes
            && self.lin_b.len() == self.mat.n() * lanes
        {
            return;
        }
        self.mat.set_lanes(lanes);
        self.lin_values.clear();
        self.lin_values.resize(self.mat.nnz() * lanes, 0.0);
        self.lin_b.clear();
        self.lin_b.resize(self.mat.n() * lanes, 0.0);
        self.lin_b_prev.clear();
        self.lin_b_prev.resize(self.mat.n() * lanes, 0.0);
    }

    /// Stamps every lane's bias-independent baseline (resistors, sources,
    /// gmin diagonal) under `ctx`. DC only; see the type docs.
    pub fn begin(&mut self, lanes: &[Netlist], ctx: &StampContext<'_>) {
        let l = self.mat.lanes();
        assert_eq!(lanes.len(), l, "lane netlist count mismatch");
        debug_assert!(
            matches!(ctx.cap_mode, CapMode::Open),
            "ensemble stamping is DC-only"
        );
        self.lin_b_prev.copy_from_slice(&self.lin_b);
        self.lin_values.fill(0.0);
        self.lin_b.fill(0.0);
        for (lane, nl) in lanes.iter().enumerate() {
            debug_assert_eq!(nl.devices.len(), self.plans.len(), "plan drift");
            for (dev, plan) in nl.devices.iter().zip(&self.plans) {
                match (&dev.element, plan) {
                    (Element::Resistor { ohms, .. }, DevicePlan::Resistor { pair }) => {
                        pair.stamp_lane(&mut self.lin_values, l, lane, 1.0 / ohms);
                    }
                    (Element::Capacitor { .. }, DevicePlan::Capacitor { .. }) => {}
                    (
                        Element::VSource { wave, .. },
                        DevicePlan::VSource {
                            pr,
                            rp,
                            mr,
                            rm,
                            row,
                        },
                    ) => {
                        if *pr != NO_SLOT {
                            self.lin_values[*pr * l + lane] += 1.0;
                            self.lin_values[*rp * l + lane] += 1.0;
                        }
                        if *mr != NO_SLOT {
                            self.lin_values[*mr * l + lane] -= 1.0;
                            self.lin_values[*rm * l + lane] -= 1.0;
                        }
                        self.lin_b[*row * l + lane] += wave.at(ctx.t) * ctx.source_scale;
                    }
                    (Element::ISource { wave, .. }, DevicePlan::ISource { to_row, from_row }) => {
                        let i = wave.at(ctx.t) * ctx.source_scale;
                        if *to_row != NO_SLOT {
                            self.lin_b[*to_row * l + lane] += i;
                        }
                        if *from_row != NO_SLOT {
                            self.lin_b[*from_row * l + lane] -= i;
                        }
                    }
                    (Element::Nmos { .. } | Element::Nmos3 { .. }, DevicePlan::Mos { .. }) => {}
                    _ => unreachable!("device/plan mismatch"),
                }
            }
        }
        for &s in &self.diag_slots {
            for lane in 0..l {
                self.lin_values[s * l + lane] += 1e-12;
            }
        }
    }

    /// Restamps every *active* lane around its lane of the lane-minor
    /// linearization point `x` (`unknowns * lanes` values): copies the
    /// baselines, then applies only the MOSFET stamps, mirroring
    /// [`SparseSystem::iterate`] per lane so results stay pinned to the
    /// scalar path. `gmin` is per lane: the lockstep driver walks each
    /// lane down its own adaptive homotopy schedule, exactly as the
    /// scalar ladder would. `lambda` is the per-lane source-continuation
    /// coordinate: `1.0` stamps this solve's sources exactly (a straight
    /// copy, bit-identical to the scalar stamp), anything below blends
    /// the rhs toward the previous solve's, letting a lane walk
    /// continuously from its old operating point to the new sources.
    /// Inactive lanes keep their linear baseline, which the driver
    /// ignores.
    pub fn iterate(
        &mut self,
        lanes: &[Netlist],
        active: &[bool],
        x: &[f64],
        gmin: &[f64],
        lambda: &[f64],
        b: &mut [f64],
    ) {
        let l = self.mat.lanes();
        self.mat.values_mut().copy_from_slice(&self.lin_values);
        if lambda.iter().all(|&lam| lam >= 1.0) {
            b.copy_from_slice(&self.lin_b);
        } else {
            for i in 0..self.mat.n() {
                let base = i * l;
                for lane in 0..l {
                    let lam = lambda[lane];
                    // λ = 1 must reproduce lin_b *exactly* (not via a
                    // round-tripped blend): converged lanes have to sit at
                    // the same fixed point the scalar path computes.
                    b[base + lane] = if lam >= 1.0 {
                        self.lin_b[base + lane]
                    } else {
                        let prev = self.lin_b_prev[base + lane];
                        prev + (self.lin_b[base + lane] - prev) * lam
                    };
                }
            }
        }
        let vals = self.mat.values_mut();
        for (lane, nl) in lanes.iter().enumerate() {
            if !active[lane] {
                continue;
            }
            for (dev, plan) in nl.devices.iter().zip(&self.plans) {
                let DevicePlan::Mos {
                    pair,
                    dg,
                    sg,
                    d_row,
                    s_row,
                } = plan
                else {
                    continue;
                };
                let volt = |node: crate::netlist::NodeId| match vidx(node) {
                    None => 0.0,
                    Some(i) => x[i * l + lane],
                };
                let (ids, gm, gds, forward, vgs, vds) = match &dev.element {
                    Element::Nmos { d, g, s, params } => {
                        let (vd, vg, vs) = (volt(*d), volt(*g), volt(*s));
                        let forward = vd >= vs;
                        let (vds, vgs) = if forward {
                            (vd - vs, vg - vs)
                        } else {
                            (vs - vd, vg - vd)
                        };
                        let (ids, gm, gds) = level1(params, vgs, vds);
                        (ids, gm, gds, forward, vgs, vds)
                    }
                    Element::Nmos3 { d, g, s, params } => {
                        let (vd, vg, vs) = (volt(*d), volt(*g), volt(*s));
                        let forward = vd >= vs;
                        let (vds, vgs) = if forward {
                            (vd - vs, vg - vs)
                        } else {
                            (vs - vd, vg - vd)
                        };
                        let (ids, gm, gds) = params.linearize(vgs, vds);
                        (ids, gm, gds, forward, vgs, vds)
                    }
                    _ => unreachable!("Mos plan on non-MOS device"),
                };
                let ieq = ids - gm * vgs - gds * vds;
                pair.stamp_lane(vals, l, lane, gds + gmin[lane]);
                if forward {
                    if *dg != NO_SLOT {
                        vals[*dg * l + lane] += gm;
                    }
                    if pair.ij != NO_SLOT {
                        vals[pair.ij * l + lane] -= gm;
                    }
                    if *sg != NO_SLOT {
                        vals[*sg * l + lane] -= gm;
                    }
                    if pair.jj != NO_SLOT {
                        vals[pair.jj * l + lane] += gm;
                    }
                    if *s_row != NO_SLOT {
                        b[*s_row * l + lane] += ieq;
                    }
                    if *d_row != NO_SLOT {
                        b[*d_row * l + lane] -= ieq;
                    }
                } else {
                    if *sg != NO_SLOT {
                        vals[*sg * l + lane] += gm;
                    }
                    if pair.ji != NO_SLOT {
                        vals[pair.ji * l + lane] -= gm;
                    }
                    if *dg != NO_SLOT {
                        vals[*dg * l + lane] -= gm;
                    }
                    if pair.ii != NO_SLOT {
                        vals[pair.ii * l + lane] += gm;
                    }
                    if *d_row != NO_SLOT {
                        b[*d_row * l + lane] += ieq;
                    }
                    if *s_row != NO_SLOT {
                        b[*s_row * l + lane] -= ieq;
                    }
                }
            }
        }
    }
}

/// Size (in unknowns) from which `SolverKind::Auto` picks the sparse
/// engine; below it the dense oracle was faster in the dense-vs-sparse
/// crossover measured when the sparse engine landed (CHANGES.md). The
/// benchmark's `op_small` workload reports the share of solves that run
/// dense as `spice.dense_share`.
pub(crate) const SPARSE_THRESHOLD: usize = 24;

/// Per-analysis solver state, reused across Newton iterations, homotopy
/// rungs, and transient timesteps.
pub(crate) enum SolverWorkspace {
    Dense {
        a: Matrix,
        b: Vec<f64>,
    },
    Sparse {
        sys: SparseSystem,
        lu: Box<SparseLu>,
        b: Vec<f64>,
    },
}

impl SolverWorkspace {
    /// Builds the workspace a netlist's analyses should use, honouring
    /// [`SolverKind`] and reusing the netlist's shared symbolic analysis
    /// when its pattern still matches.
    pub fn for_netlist(netlist: &Netlist) -> SolverWorkspace {
        let n = netlist.unknown_count();
        let use_sparse = match netlist.solver_kind() {
            SolverKind::Dense => false,
            SolverKind::Sparse => true,
            SolverKind::Auto => n >= SPARSE_THRESHOLD,
        };
        if !use_sparse {
            fts_telemetry::counter("spice.solver.dense", 1);
            // a = unknowns.
            fts_telemetry::trace::emit("solver_selected", "dense", n as f64, 0.0);
            return SolverWorkspace::Dense {
                a: Matrix::zeros(n),
                b: vec![0.0; n],
            };
        }
        fts_telemetry::counter("spice.solver.sparse", 1);
        let sys = SparseSystem::new(netlist);
        // a = unknowns, b = pattern non-zeros.
        fts_telemetry::trace::emit(
            "solver_selected",
            "sparse",
            n as f64,
            sys.matrix().nnz() as f64,
        );
        let symbolic = match netlist.shared_symbolic() {
            Some(sym) if sym.matches(sys.matrix()) => {
                fts_telemetry::counter("spice.sparse.symbolic_reuse", 1);
                fts_telemetry::trace::emit("sparse_symbolic", "reuse", 0.0, 0.0);
                Arc::clone(sym)
            }
            Some(_) => {
                // Defect-injected trials can rewire gates and change the
                // pattern — fall back to a fresh analysis.
                fts_telemetry::counter("spice.sparse.symbolic_miss", 1);
                fts_telemetry::trace::emit("sparse_symbolic", "miss", 0.0, 0.0);
                Arc::new(Symbolic::analyze(sys.matrix()))
            }
            None => {
                fts_telemetry::counter("spice.sparse.symbolic_new", 1);
                fts_telemetry::trace::emit("sparse_symbolic", "new", 0.0, 0.0);
                Arc::new(Symbolic::analyze(sys.matrix()))
            }
        };
        if fts_telemetry::enabled() {
            fts_telemetry::record("spice.sparse.pattern_nnz", sys.matrix().nnz() as f64);
        }
        let lu = Box::new(SparseLu::new(symbolic));
        SolverWorkspace::Sparse {
            sys,
            lu,
            b: vec![0.0; n],
        }
    }
}

/// A converged Newton solve plus the diagnostics the caller reports.
pub(crate) struct NewtonSolve {
    /// The converged unknown vector.
    pub x: Vec<f64>,
    /// Iterations consumed (at least 1).
    pub iterations: usize,
    /// Largest absolute damped update of the final iteration — the
    /// step-norm convergence residual.
    pub max_step: f64,
}

/// Newton–Raphson over a reusable [`SolverWorkspace`]; returns the
/// converged unknown vector together with iteration diagnostics.
///
/// The dense path restamps everything through [`stamp_all`]; the sparse
/// path computes the linear baseline once, then each iteration restamps
/// only the MOSFETs and refactors numerically against the shared symbolic.
pub(crate) fn newton(
    netlist: &Netlist,
    ctx: &StampContext<'_>,
    x0: &[f64],
    max_iterations: usize,
    ws: &mut SolverWorkspace,
) -> Result<NewtonSolve, SpiceError> {
    let n = netlist.unknown_count();
    let nv = netlist.node_count() - 1;
    let mut x = x0.to_vec();
    if let SolverWorkspace::Sparse { sys, .. } = ws {
        sys.begin(netlist, ctx);
    }
    for iteration in 1..=max_iterations {
        if let Some(token) = ctx.cancel {
            token.check("newton")?;
        }
        let dense_x;
        let x_new: &[f64] = match ws {
            SolverWorkspace::Dense { a, b } => {
                a.clear();
                b.fill(0.0);
                stamp_all(netlist, &x, a, b, ctx);
                dense_x = a.solve(b)?;
                &dense_x
            }
            SolverWorkspace::Sparse { sys, lu, b } => {
                sys.iterate(netlist, &x, ctx, b);
                lu.factor(sys.matrix())?;
                // One numeric (re)factorization per Newton iteration;
                // a = iteration number within this solve.
                fts_telemetry::trace::emit("sparse_factor", "", iteration as f64, 0.0);
                lu.solve_in_place(b);
                b
            }
        };
        // Voltage-step damping stabilizes MOS Newton iterations.
        let mut max_dv = 0.0f64;
        for i in 0..nv {
            max_dv = max_dv.max((x_new[i] - x[i]).abs());
        }
        let damp = if max_dv > 2.0 { 2.0 / max_dv } else { 1.0 };
        let mut converged = true;
        let mut max_step = 0.0f64;
        for i in 0..n {
            let step = (x_new[i] - x[i]) * damp;
            if step.abs() > 1e-9 + 1e-6 * x[i].abs() {
                converged = false;
            }
            max_step = max_step.max(step.abs());
            x[i] += step;
        }
        if converged && damp == 1.0 {
            return Ok(NewtonSolve {
                x,
                iterations: iteration,
                max_step,
            });
        }
    }
    Err(SpiceError::NoConvergence {
        analysis: "newton",
        residual: f64::NAN,
    })
}

/// Stamps the small-signal (AC) system at angular frequency `omega`,
/// linearized around the operating point `x_op`. The voltage source named
/// `ac_source` receives a unit AC stimulus; all other independent sources
/// are zeroed.
pub(crate) fn stamp_ac(
    netlist: &Netlist,
    x_op: &[f64],
    omega: f64,
    ac_source: &str,
    a: &mut crate::complex::CMatrix,
    b: &mut [crate::complex::Complex],
) {
    use crate::complex::Complex;
    let nv = netlist.node_count() - 1;
    let mut addc =
        |a: &mut crate::complex::CMatrix, i: Option<usize>, j: Option<usize>, y: Complex| {
            if let Some(i) = i {
                a.add(i, i, y);
            }
            if let Some(j) = j {
                a.add(j, j, y);
            }
            if let (Some(i), Some(j)) = (i, j) {
                a.add(i, j, -y);
                a.add(j, i, -y);
            }
        };
    for dev in &netlist.devices {
        match &dev.element {
            Element::Resistor { a: na, b: nb, ohms } => {
                addc(a, vidx(*na), vidx(*nb), Complex::real(1.0 / ohms));
            }
            Element::Capacitor {
                a: na,
                b: nb,
                farads,
            } => {
                addc(a, vidx(*na), vidx(*nb), Complex::imag(omega * farads));
            }
            Element::VSource {
                plus,
                minus,
                branch,
                ..
            } => {
                let row = nv + branch;
                if let Some(p) = vidx(*plus) {
                    a.add(p, row, Complex::ONE);
                    a.add(row, p, Complex::ONE);
                }
                if let Some(m) = vidx(*minus) {
                    a.add(m, row, -Complex::ONE);
                    a.add(row, m, -Complex::ONE);
                }
                if dev.name == ac_source {
                    b[row] += Complex::ONE;
                }
            }
            Element::ISource { .. } => {}
            Element::Nmos { d, g, s, params } => {
                let (vd, vg, vs) = (voltage(x_op, *d), voltage(x_op, *g), voltage(x_op, *s));
                let (nd, ns, vds_raw) = if vd >= vs {
                    (*d, *s, vd - vs)
                } else {
                    (*s, *d, vs - vd)
                };
                let vgs = vg - voltage(x_op, ns);
                let (_, gm, gds) = level1(params, vgs, vds_raw);
                stamp_ac_mos(a, vidx(nd), vidx(ns), vidx(*g), gm, gds, &mut addc);
            }
            Element::Nmos3 { d, g, s, params } => {
                let (vd, vg, vs) = (voltage(x_op, *d), voltage(x_op, *g), voltage(x_op, *s));
                let (nd, ns, vds_raw) = if vd >= vs {
                    (*d, *s, vd - vs)
                } else {
                    (*s, *d, vs - vd)
                };
                let vgs = vg - voltage(x_op, ns);
                let (_, gm, gds) = params.linearize(vgs, vds_raw);
                stamp_ac_mos(a, vidx(nd), vidx(ns), vidx(*g), gm, gds, &mut addc);
            }
        }
    }
    for n in 0..nv {
        a.add(n, n, crate::complex::Complex::real(1e-12));
    }
}

fn stamp_ac_mos(
    a: &mut crate::complex::CMatrix,
    id_: Option<usize>,
    is_: Option<usize>,
    ig_: Option<usize>,
    gm: f64,
    gds: f64,
    addc: &mut impl FnMut(
        &mut crate::complex::CMatrix,
        Option<usize>,
        Option<usize>,
        crate::complex::Complex,
    ),
) {
    use crate::complex::Complex;
    addc(a, id_, is_, Complex::real(gds + 1e-12));
    if let Some(r) = id_ {
        if let Some(c) = ig_ {
            a.add(r, c, Complex::real(gm));
        }
        if let Some(c) = is_ {
            a.add(r, c, Complex::real(-gm));
        }
    }
    if let Some(r) = is_ {
        if let Some(c) = ig_ {
            a.add(r, c, Complex::real(-gm));
        }
        if let Some(c) = is_ {
            a.add(r, c, Complex::real(gm));
        }
    }
}
