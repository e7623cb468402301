//! MNA device stamping and the shared Newton kernel.
//!
//! Each device is described once, and every stamper reads that one
//! description:
//!
//! * [`MosBias`] orients a MOSFET (the lower of drain and source acts as
//!   the source) and linearizes it, level 1 or level 3;
//! * [`device_entries`] lists the matrix entries a device stamps; the
//!   sparse pattern ([`mna_pattern`]) and the slot plans are both built
//!   from it.
//!
//! One plan stamper, [`EnsembleSystem`], writes every sparse Newton
//! system: devices resolve their matrix slots once at build time and each
//! iteration rewrites K lanes of values in place — no allocation, no
//! hashing, no binary search. A scalar sparse solve is its one-lane
//! instance; [`OpEnsemble`](crate::ensemble::OpEnsemble) runs it at K
//! lanes. Beside it, [`stamp_all`] stamps the dense [`Matrix`]: the
//! production path below [`SPARSE_THRESHOLD`] unknowns and the oracle of
//! the `solver_compare` tests. [`stamp_ac`] stamps the complex
//! small-signal system.
//!
//! [`SolverWorkspace`] picks dense or sparse per netlist
//! ([`Netlist::uses_sparse_solver`]), and [`damped_update`] is the one
//! Newton update that [`newton`] and every ensemble lane apply.

use crate::cancel::CancelToken;
use crate::complex::{CMatrix, Complex};
use crate::linalg::{Matrix, SparseLu, SparseMatrix, SparseMatrixEnsemble, Symbolic};
use crate::netlist::{Element, MosParams, Netlist, NodeId};
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

impl CapState {
    /// The companion model of a `farads` capacitor stepping `dt` from this
    /// state: conductance `g` and current `ieq`, with `i = g·v + ieq`
    /// flowing a → b.
    fn companion(self, farads: f64, dt: f64, trapezoidal: bool) -> (f64, f64) {
        if trapezoidal {
            let g = 2.0 * farads / dt;
            (g, -(g * self.v + self.i))
        } else {
            let g = farads / dt;
            (g, -g * self.v)
        }
    }
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
fn vidx(node: NodeId) -> Option<usize> {
    if node.index() == 0 {
        None
    } else {
        Some(node.index() - 1)
    }
}

fn voltage(x: &[f64], node: NodeId) -> f64 {
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

/// A MOSFET at its bias point. The switch is symmetric, so the lower of
/// drain and source acts as the source; the level-1 or level-3 model is
/// linearized in that orientation. Every stamper reads MOSFETs through
/// this one type.
struct MosBias {
    /// True when the netlist's drain acts as the drain (`vd ≥ vs`).
    forward: bool,
    /// The acting drain.
    drain: NodeId,
    /// The acting source.
    source: NodeId,
    gate: NodeId,
    vgs: f64,
    vds: f64,
    ids: f64,
    gm: f64,
    gds: f64,
}

impl MosBias {
    /// Biases `element` at the node voltages `volt` reads; `None` when it
    /// is not a MOSFET.
    #[inline]
    fn at(element: &Element, volt: impl Fn(NodeId) -> f64) -> Option<MosBias> {
        let (d, g, s) = match *element {
            Element::Nmos { d, g, s, .. } | Element::Nmos3 { d, g, s, .. } => (d, g, s),
            _ => return None,
        };
        let (vd, vg, vs) = (volt(d), volt(g), volt(s));
        let forward = vd >= vs;
        let (drain, source, vds, vgs) = if forward {
            (d, s, vd - vs, vg - vs)
        } else {
            (s, d, vs - vd, vg - vd)
        };
        let (ids, gm, gds) = match element {
            Element::Nmos { params, .. } => level1(params, vgs, vds),
            Element::Nmos3 { params, .. } => params.linearize(vgs, vds),
            _ => unreachable!("matched a MOSFET above"),
        };
        Some(MosBias {
            forward,
            drain,
            source,
            gate: g,
            vgs,
            vds,
            ids,
            gm,
            gds,
        })
    }

    /// Constant part of the linearized drain current
    /// `i = ids + gm·Δvgs + gds·Δvds`, flowing drain → source.
    #[inline]
    fn ieq(&self) -> f64 {
        self.ids - self.gm * self.vgs - self.gds * self.vds
    }

    /// Calls `add(row, col, value)` for the dense stampers' gm entries:
    /// current into the acting drain proportional to (vg − vsource).
    fn gm_entries(&self, mut add: impl FnMut(usize, usize, f64)) {
        let (id_, is_, ig_) = (vidx(self.drain), vidx(self.source), vidx(self.gate));
        if let Some(r) = id_ {
            if let Some(c) = ig_ {
                add(r, c, self.gm);
            }
            if let Some(c) = is_ {
                add(r, c, -self.gm);
            }
        }
        if let Some(r) = is_ {
            if let Some(c) = ig_ {
                add(r, c, -self.gm);
            }
            if let Some(c) = is_ {
                add(r, c, self.gm);
            }
        }
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
                        let (g, ieq) =
                            ctx.cap_states[cap_index].companion(*farads, dt, trapezoidal);
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
            Element::Nmos { .. } | Element::Nmos3 { .. } => {
                let m = MosBias::at(&dev.element, |node| voltage(x, node)).expect("a MOSFET");
                let (id_, is_) = (vidx(m.drain), vidx(m.source));
                // gds between the acting drain and source.
                add_conductance(a, id_, is_, m.gds + ctx.gmin);
                m.gm_entries(|r, c, v| a.add(r, c, v));
                // Constant part flows drain → source.
                add_current(b, is_, id_, m.ieq());
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

/// The matrix entries `element` stamps, `None` where a terminal is
/// ground, in the order its [`DevicePlan`] keeps their slots:
///
/// * resistor, capacitor: the conductance quadruple
///   `(a,a) (b,b) (a,b) (b,a)`;
/// * voltage source: `(+,row) (row,+) (−,row) (row,−)`;
/// * MOSFET: the `(d,d) (s,s) (d,s) (s,d)` quadruple, then the gm columns
///   `(d,g) (s,g)` — the union of both bias orientations;
/// * current source: none.
///
/// [`mna_pattern`] is the union of these lists plus the gmin diagonal,
/// and the plans resolve the same lists, so the two cannot drift apart.
fn device_entries(element: &Element, nv: usize) -> [Option<(usize, usize)>; 6] {
    let quad = |i: Option<usize>, j: Option<usize>| [i.zip(i), j.zip(j), i.zip(j), j.zip(i)];
    match *element {
        Element::Resistor { a, b, .. } | Element::Capacitor { a, b, .. } => {
            let [ii, jj, ij, ji] = quad(vidx(a), vidx(b));
            [ii, jj, ij, ji, None, None]
        }
        Element::VSource {
            plus,
            minus,
            branch,
            ..
        } => {
            let (p, m, row) = (vidx(plus), vidx(minus), Some(nv + branch));
            [p.zip(row), row.zip(p), m.zip(row), row.zip(m), None, None]
        }
        Element::ISource { .. } => [None; 6],
        Element::Nmos { d, g, s, .. } | Element::Nmos3 { d, g, s, .. } => {
            let (di, si, gi) = (vidx(d), vidx(s), vidx(g));
            let [ii, jj, ij, ji] = quad(di, si);
            [ii, jj, ij, ji, di.zip(gi), si.zip(gi)]
        }
    }
}

/// Collects the MNA sparsity pattern of a netlist. Capacitor stamps are
/// always included so one pattern (and one symbolic analysis) serves both
/// DC (`CapMode::Open`) and transient companion stamping.
pub(crate) fn mna_pattern(netlist: &Netlist) -> SparseMatrix {
    let nv = netlist.node_count() - 1;
    let devices = netlist
        .devices
        .iter()
        .flat_map(|dev| device_entries(&dev.element, nv))
        .flatten();
    // Global gmin diagonal on every node row.
    let gmin = (0..nv).map(|k| (k, k));
    SparseMatrix::from_entries(netlist.unknown_count(), devices.chain(gmin))
}

/// Sentinel for "this stamp touches ground and has no matrix slot / rhs
/// row". Using a plain `usize` instead of `Option<usize>` keeps the plan
/// structs `Copy` and the hot-loop branches cheap.
const NO_SLOT: usize = usize::MAX;

fn rhs_row(i: Option<usize>) -> usize {
    i.unwrap_or(NO_SLOT)
}

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
    /// Stamps `g` into lane `lane` of a lane-minor value array with
    /// `lanes` lanes per slot. Mirrors [`add_conductance`]: when `i == j`
    /// the four writes hit the same slot and net to zero, exactly like the
    /// dense stamp.
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

/// Per-device stamping plan: the slots of the device's
/// [`device_entries`] and its rhs rows, resolved once at build time so
/// iterations never search the pattern.
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

impl DevicePlan {
    /// Resolves `element`'s plan against `mat`'s pattern; `cap_index`
    /// counts the capacitors planned so far.
    fn new(mat: &SparseMatrix, element: &Element, nv: usize, cap_index: &mut usize) -> DevicePlan {
        let slots = device_entries(element, nv).map(|entry| {
            entry.map_or(NO_SLOT, |(row, col)| {
                mat.slot(row, col)
                    .expect("MNA pattern covers every device stamp")
            })
        });
        let pair = PairSlots {
            ii: slots[0],
            jj: slots[1],
            ij: slots[2],
            ji: slots[3],
        };
        match *element {
            Element::Resistor { .. } => DevicePlan::Resistor { pair },
            Element::Capacitor { a, b, .. } => {
                let plan = DevicePlan::Capacitor {
                    pair,
                    a_row: rhs_row(vidx(a)),
                    b_row: rhs_row(vidx(b)),
                    cap_index: *cap_index,
                };
                *cap_index += 1;
                plan
            }
            Element::VSource { branch, .. } => DevicePlan::VSource {
                pr: slots[0],
                rp: slots[1],
                mr: slots[2],
                rm: slots[3],
                row: nv + branch,
            },
            Element::ISource { from, to, .. } => DevicePlan::ISource {
                to_row: rhs_row(vidx(to)),
                from_row: rhs_row(vidx(from)),
            },
            Element::Nmos { d, s, .. } | Element::Nmos3 { d, s, .. } => DevicePlan::Mos {
                pair,
                dg: slots[4],
                sg: slots[5],
                d_row: rhs_row(vidx(d)),
                s_row: rhs_row(vidx(s)),
            },
        }
    }
}

/// The plan stamper: the sparse MNA system of one topology, stamped into
/// K value lanes of a [`SparseMatrixEnsemble`]. One set of device plans,
/// resolved from a reference netlist, is applied to K same-topology lane
/// netlists. A scalar sparse solve is the one-lane instance (which
/// [`SparseLu::factor_lane`] factors in place); the ensemble Monte Carlo
/// path runs K lanes.
///
/// [`begin`](EnsembleSystem::begin) stamps everything bias-independent
/// (R, C companion, sources, gmin diagonal) into a baseline once per
/// Newton solve; [`iterate`](EnsembleSystem::iterate) copies the baseline
/// and restamps only the MOSFETs around the new linearization point.
///
/// `L` is the lane count when it is fixed at compile time — `1` for the
/// scalar path, so its lane arithmetic folds away — and `0` when it is
/// set at run time (the ensemble).
pub(crate) struct EnsembleSystem<const L: usize = 0> {
    mat: SparseMatrixEnsemble,
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

impl<const L: usize> EnsembleSystem<L> {
    /// Builds plans from `reference`'s topology with `lanes` value lanes.
    /// Every netlist later stamped must satisfy
    /// [`Netlist::same_topology`] against the reference.
    pub fn new(reference: &Netlist, lanes: usize) -> EnsembleSystem<L> {
        assert!(L == 0 || lanes == L, "lane count fixed at {L}");
        let n = reference.unknown_count();
        let nv = reference.node_count() - 1;
        let pattern = mna_pattern(reference);
        let mut cap_index = 0usize;
        let plans = reference
            .devices
            .iter()
            .map(|dev| DevicePlan::new(&pattern, &dev.element, nv, &mut cap_index))
            .collect();
        let diag_slots = (0..nv)
            .map(|k| pattern.slot(k, k).expect("diagonal in pattern"))
            .collect();
        let nnz = pattern.nnz();
        EnsembleSystem {
            mat: SparseMatrixEnsemble::new(pattern, lanes),
            plans,
            diag_slots,
            lin_values: vec![0.0; nnz * lanes],
            lin_b: vec![0.0; n * lanes],
            lin_b_prev: vec![0.0; n * lanes],
        }
    }

    pub fn matrix(&self) -> &SparseMatrixEnsemble {
        &self.mat
    }

    /// The lane count: `L` itself when fixed at compile time.
    #[inline]
    fn lanes(&self) -> usize {
        if L == 0 {
            self.mat.lanes()
        } else {
            L
        }
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

    /// Stamps every lane's bias-independent baseline (resistors, capacitor
    /// companions, sources, gmin diagonal) under `ctx`. Capacitor
    /// companions are stamped for one lane only: `ctx.cap_states` holds
    /// one netlist's capacitor states, so `CapMode::Step` needs a
    /// one-lane system.
    pub fn begin(&mut self, lanes: &[Netlist], ctx: &StampContext<'_>) {
        let l = self.lanes();
        assert_eq!(lanes.len(), l, "lane netlist count mismatch");
        debug_assert!(
            l == 1 || matches!(ctx.cap_mode, CapMode::Open),
            "capacitor companions are stamped for one lane"
        );
        self.lin_b_prev.copy_from_slice(&self.lin_b);
        self.lin_values.fill(0.0);
        self.lin_b.fill(0.0);
        for (lane, nl) in lanes.iter().enumerate().take(l) {
            debug_assert_eq!(nl.devices.len(), self.plans.len(), "plan drift");
            for (dev, plan) in nl.devices.iter().zip(&self.plans) {
                match (&dev.element, plan) {
                    (Element::Resistor { ohms, .. }, DevicePlan::Resistor { pair }) => {
                        pair.stamp_lane(&mut self.lin_values, l, lane, 1.0 / ohms);
                    }
                    (
                        Element::Capacitor { farads, .. },
                        DevicePlan::Capacitor {
                            pair,
                            a_row,
                            b_row,
                            cap_index,
                        },
                    ) => {
                        let CapMode::Step { dt, trapezoidal } = ctx.cap_mode else {
                            continue;
                        };
                        let (g, ieq) =
                            ctx.cap_states[*cap_index].companion(*farads, dt, trapezoidal);
                        pair.stamp_lane(&mut self.lin_values, l, lane, g);
                        if *b_row != NO_SLOT {
                            self.lin_b[*b_row * l + lane] += ieq;
                        }
                        if *a_row != NO_SLOT {
                            self.lin_b[*a_row * l + lane] -= ieq;
                        }
                    }
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
    /// baselines, then applies only the MOSFET stamps. `gmin` is per
    /// lane: the lockstep driver walks each lane down its own adaptive
    /// homotopy schedule, exactly as the scalar ladder would. `lambda` is
    /// the per-lane source-continuation coordinate: `1.0` stamps this
    /// solve's sources exactly (a straight copy of the baseline rhs),
    /// anything below blends the rhs toward the previous solve's, letting
    /// a lane walk continuously from its old operating point to the new
    /// sources. Inactive lanes keep their linear baseline, which the
    /// driver ignores.
    pub fn iterate(
        &mut self,
        lanes: &[Netlist],
        active: &[bool],
        x: &[f64],
        gmin: &[f64],
        lambda: &[f64],
        b: &mut [f64],
    ) {
        let l = self.lanes();
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
        for lane in 0..l {
            if !active[lane] {
                continue;
            }
            let nl = &lanes[lane];
            let volt = |node: NodeId| match vidx(node) {
                None => 0.0,
                Some(i) => x[i * l + lane],
            };
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
                let m = MosBias::at(&dev.element, volt).expect("Mos plan on a MOSFET");
                let (gm, ieq) = (m.gm, m.ieq());
                // In the acting orientation: the (D,G) (D,S) (S,G) (S,S)
                // gm slots, then the source and drain rhs rows.
                let (d_g, d_s, s_g, s_s, s_rhs, d_rhs) = if m.forward {
                    (*dg, pair.ij, *sg, pair.jj, *s_row, *d_row)
                } else {
                    (*sg, pair.ji, *dg, pair.ii, *d_row, *s_row)
                };
                pair.stamp_lane(vals, l, lane, m.gds + gmin[lane]);
                if d_g != NO_SLOT {
                    vals[d_g * l + lane] += gm;
                }
                if d_s != NO_SLOT {
                    vals[d_s * l + lane] -= gm;
                }
                if s_g != NO_SLOT {
                    vals[s_g * l + lane] -= gm;
                }
                if s_s != NO_SLOT {
                    vals[s_s * l + lane] += gm;
                }
                if s_rhs != NO_SLOT {
                    b[s_rhs * l + lane] += ieq;
                }
                if d_rhs != NO_SLOT {
                    b[d_rhs * l + lane] -= ieq;
                }
            }
        }
    }
}

/// Size (in unknowns) from which `SolverKind::Auto` picks the sparse
/// engine. A sparse Newton iteration is faster than the dense one below
/// it too (DESIGN §6 records the measurement); the cutover stays here for
/// result-bit stability, since moving it changes which path, and so which
/// rounding, small circuits get. It moves only together with the goldens
/// it moves. The benchmark's `op_small` workload reports the share of
/// solves that run dense as `spice.dense_share`.
pub(crate) const SPARSE_THRESHOLD: usize = 24;

/// Per-analysis solver state, reused across Newton iterations, homotopy
/// rungs, and transient timesteps.
pub(crate) enum SolverWorkspace {
    Dense {
        a: Matrix,
        b: Vec<f64>,
    },
    Sparse {
        /// The one-lane plan stamper.
        sys: Box<EnsembleSystem<1>>,
        lu: Box<SparseLu>,
        b: Vec<f64>,
    },
}

impl SolverWorkspace {
    /// Builds the workspace a netlist's analyses should use, honouring
    /// [`Netlist::uses_sparse_solver`]; a sparse workspace takes its
    /// pattern's analysis from [`Symbolic::shared`].
    pub fn for_netlist(netlist: &Netlist) -> SolverWorkspace {
        let n = netlist.unknown_count();
        if !netlist.uses_sparse_solver() {
            fts_telemetry::counter("spice.solver.dense", 1);
            // a = unknowns.
            fts_telemetry::trace::emit("solver_selected", "dense", n as f64, 0.0);
            return SolverWorkspace::Dense {
                a: Matrix::zeros(n),
                b: vec![0.0; n],
            };
        }
        fts_telemetry::counter("spice.solver.sparse", 1);
        let sys = Box::new(EnsembleSystem::new(netlist, 1));
        let pattern = sys.matrix().pattern();
        // a = unknowns, b = pattern non-zeros.
        fts_telemetry::trace::emit("solver_selected", "sparse", n as f64, pattern.nnz() as f64);
        if fts_telemetry::enabled() {
            fts_telemetry::record("spice.sparse.pattern_nnz", pattern.nnz() as f64);
        }
        let lu = Box::new(SparseLu::new(Symbolic::shared(pattern)));
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

/// One damped Newton update of lane `lane` of the lane-minor iterate `x`
/// toward `x_new`, the linear solve's result (`lanes` values per unknown;
/// a scalar solve is lane 0 of 1). Voltage-step damping stabilizes MOS
/// Newton iterations: the step is scaled so no node voltage (the first
/// `nv` unknowns) moves more than 2 V.
///
/// Returns whether the solve has converged — an undamped step within
/// `1e-9 + 1e-6·|x|` on every unknown — and the largest absolute damped
/// step, the step-norm residual.
#[inline]
pub(crate) fn damped_update(
    x: &mut [f64],
    x_new: &[f64],
    nv: usize,
    lanes: usize,
    lane: usize,
) -> (bool, f64) {
    let mut max_dv = 0.0f64;
    for i in 0..nv {
        let k = i * lanes + lane;
        max_dv = max_dv.max((x_new[k] - x[k]).abs());
    }
    let damp = if max_dv > 2.0 { 2.0 / max_dv } else { 1.0 };
    let mut converged = true;
    let mut max_step = 0.0f64;
    for i in 0..x.len() / lanes {
        let k = i * lanes + lane;
        let step = (x_new[k] - x[k]) * damp;
        if step.abs() > 1e-9 + 1e-6 * x[k].abs() {
            converged = false;
        }
        max_step = max_step.max(step.abs());
        x[k] += step;
    }
    (converged && damp == 1.0, max_step)
}

/// Newton–Raphson over a reusable [`SolverWorkspace`]; returns the
/// converged unknown vector together with iteration diagnostics.
///
/// The dense path restamps everything through [`stamp_all`]; the sparse
/// path stamps the one-lane plan stamper's linear baseline once, then
/// each iteration restamps only the MOSFETs and refactors numerically
/// against the shared symbolic.
pub(crate) fn newton(
    netlist: &Netlist,
    ctx: &StampContext<'_>,
    x0: &[f64],
    max_iterations: usize,
    ws: &mut SolverWorkspace,
) -> Result<NewtonSolve, SpiceError> {
    let nv = netlist.node_count() - 1;
    let one_lane = std::slice::from_ref(netlist);
    let mut x = x0.to_vec();
    if let SolverWorkspace::Sparse { sys, .. } = ws {
        sys.begin(one_lane, ctx);
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
                sys.iterate(one_lane, &[true], &x, &[ctx.gmin], &[1.0], b);
                lu.factor_lane(sys.matrix())?;
                // One numeric (re)factorization per Newton iteration;
                // a = iteration number within this solve.
                fts_telemetry::trace::emit("sparse_factor", "", iteration as f64, 0.0);
                lu.solve_in_place(b);
                b
            }
        };
        let (converged, max_step) = damped_update(&mut x, x_new, nv, 1, 0);
        if converged {
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
    a: &mut CMatrix,
    b: &mut [Complex],
) {
    let nv = netlist.node_count() - 1;
    let addc = |a: &mut CMatrix, i: Option<usize>, j: Option<usize>, y: Complex| {
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
            Element::Nmos { .. } | Element::Nmos3 { .. } => {
                let m = MosBias::at(&dev.element, |node| voltage(x_op, node)).expect("a MOSFET");
                addc(
                    a,
                    vidx(m.drain),
                    vidx(m.source),
                    Complex::real(m.gds + 1e-12),
                );
                m.gm_entries(|r, c, v| a.add(r, c, Complex::real(v)));
            }
        }
    }
    for n in 0..nv {
        a.add(n, n, Complex::real(1e-12));
    }
}
