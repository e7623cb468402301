//! Circuit description: nodes, devices, and source waveforms.

use std::collections::HashMap;
use std::fmt;

use crate::mos3::Mos3Params;
use crate::SpiceError;

/// Which linear-solver engine analyses of a netlist use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverKind {
    /// Pick automatically by system size: small systems run the dense
    /// reference LU, larger ones the sparse engine. This is the default.
    #[default]
    Auto,
    /// Force the dense LU (the reference oracle).
    Dense,
    /// Force the sparse engine regardless of size.
    Sparse,
}

/// A node handle returned by [`Netlist::node`]. Node 0 is ground.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The raw index (0 = ground).
    pub fn index(self) -> usize {
        self.0
    }
}

/// A time-dependent source value.
#[derive(Debug, Clone, PartialEq)]
pub enum Waveform {
    /// Constant value.
    Dc(f64),
    /// SPICE-style PULSE(v0 v1 delay rise fall width period).
    Pulse {
        /// Initial value.
        v0: f64,
        /// Pulsed value.
        v1: f64,
        /// Delay before the first edge \[s\].
        delay: f64,
        /// Rise time \[s\].
        rise: f64,
        /// Fall time \[s\].
        fall: f64,
        /// Pulse width at `v1` \[s\].
        width: f64,
        /// Repetition period \[s\] (0 disables repetition).
        period: f64,
    },
    /// Piece-wise linear `(time, value)` points; the value holds before
    /// the first and after the last point.
    Pwl(Vec<(f64, f64)>),
}

impl Waveform {
    /// The waveform value at time `t` (DC analyses use `t = 0`).
    pub fn at(&self, t: f64) -> f64 {
        match self {
            Waveform::Dc(v) => *v,
            Waveform::Pulse {
                v0,
                v1,
                delay,
                rise,
                fall,
                width,
                period,
            } => {
                if t < *delay {
                    return *v0;
                }
                let mut tau = t - delay;
                if *period > 0.0 {
                    tau %= period;
                }
                if tau < *rise {
                    if *rise == 0.0 {
                        return *v1;
                    }
                    return v0 + (v1 - v0) * tau / rise;
                }
                let tau = tau - rise;
                if tau < *width {
                    return *v1;
                }
                let tau = tau - width;
                if tau < *fall {
                    if *fall == 0.0 {
                        return *v0;
                    }
                    return v1 + (v0 - v1) * tau / fall;
                }
                *v0
            }
            Waveform::Pwl(points) => {
                if points.is_empty() {
                    return 0.0;
                }
                if t <= points[0].0 {
                    return points[0].1;
                }
                for w in points.windows(2) {
                    let ((t0, v0), (t1, v1)) = (w[0], w[1]);
                    if t <= t1 {
                        if t1 == t0 {
                            return v1;
                        }
                        return v0 + (v1 - v0) * (t - t0) / (t1 - t0);
                    }
                }
                points.last().expect("non-empty").1
            }
        }
    }
}

/// Level-1 n-MOSFET parameters for the [`Netlist::nmos`] device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosParams {
    /// Transconductance parameter Kp = µ·Cox \[A/V²\].
    pub kp: f64,
    /// Threshold voltage \[V\].
    pub vth: f64,
    /// Channel-length modulation \[1/V\].
    pub lambda: f64,
    /// Aspect ratio W/L.
    pub w_over_l: f64,
}

#[derive(Debug, Clone)]
pub(crate) enum Element {
    Resistor {
        a: NodeId,
        b: NodeId,
        ohms: f64,
    },
    Capacitor {
        a: NodeId,
        b: NodeId,
        farads: f64,
    },
    VSource {
        plus: NodeId,
        minus: NodeId,
        wave: Waveform,
        branch: usize,
    },
    ISource {
        from: NodeId,
        to: NodeId,
        wave: Waveform,
    },
    Nmos {
        d: NodeId,
        g: NodeId,
        s: NodeId,
        params: MosParams,
    },
    Nmos3 {
        d: NodeId,
        g: NodeId,
        s: NodeId,
        params: Mos3Params,
    },
}

#[derive(Debug, Clone)]
pub(crate) struct Device {
    pub name: String,
    pub element: Element,
}

/// A read-only view of one device in a [`Netlist`], in insertion order.
///
/// This is the introspection surface for exporters and diagnostics (the
/// `fts-netlist` deck writer renders element cards from it): node handles
/// resolve back to names via [`Netlist::node_name`], and waveforms are
/// borrowed rather than cloned.
#[derive(Debug, Clone, PartialEq)]
pub enum DeviceView<'a> {
    /// A linear resistor between `a` and `b`.
    Resistor {
        /// Device name.
        name: &'a str,
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Resistance \[Ω\].
        ohms: f64,
    },
    /// A linear capacitor between `a` and `b`.
    Capacitor {
        /// Device name.
        name: &'a str,
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Capacitance \[F\].
        farads: f64,
    },
    /// An independent voltage source (`plus` − `minus` = waveform).
    VSource {
        /// Device name.
        name: &'a str,
        /// Positive terminal.
        plus: NodeId,
        /// Negative terminal.
        minus: NodeId,
        /// Source waveform.
        wave: &'a Waveform,
    },
    /// An independent current source pushing current into `to`.
    ISource {
        /// Device name.
        name: &'a str,
        /// Terminal the current leaves the circuit from.
        from: NodeId,
        /// Terminal the current is pushed into.
        to: NodeId,
        /// Source waveform.
        wave: &'a Waveform,
    },
    /// A level-1 n-MOSFET (bulk implicitly grounded).
    Nmos {
        /// Device name.
        name: &'a str,
        /// Drain.
        d: NodeId,
        /// Gate.
        g: NodeId,
        /// Source.
        s: NodeId,
        /// Level-1 parameters.
        params: MosParams,
    },
    /// A level-3-class n-MOSFET (bulk implicitly grounded).
    ///
    /// Note that [`Netlist::nmos3`] also instantiated the `<name>_cgs` /
    /// `<name>_cgd` gate capacitors right after this device when the
    /// parameters carry nonzero capacitances; they appear as ordinary
    /// [`DeviceView::Capacitor`] entries.
    Nmos3 {
        /// Device name.
        name: &'a str,
        /// Drain.
        d: NodeId,
        /// Gate.
        g: NodeId,
        /// Source.
        s: NodeId,
        /// Level-3 parameters.
        params: Mos3Params,
    },
}

/// A circuit under construction.
///
/// Nodes are created with [`Netlist::node`]; [`Netlist::GROUND`] is node 0.
/// Devices take the nodes they connect and a name used in error messages
/// and sweep lookups.
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    names: Vec<String>,
    by_name: HashMap<String, NodeId>,
    pub(crate) devices: Vec<Device>,
    pub(crate) vsource_count: usize,
    solver: SolverKind,
}

impl Netlist {
    /// The ground node (0 V reference).
    pub const GROUND: NodeId = NodeId(0);

    /// Creates an empty netlist containing only ground.
    pub fn new() -> Netlist {
        let mut nl = Netlist {
            names: Vec::new(),
            by_name: HashMap::new(),
            devices: Vec::new(),
            vsource_count: 0,
            solver: SolverKind::Auto,
        };
        nl.names.push("0".to_owned());
        nl.by_name.insert("0".to_owned(), NodeId(0));
        nl
    }

    /// Returns the node with the given name, creating it on first use.
    pub fn node(&mut self, name: &str) -> NodeId {
        if let Some(id) = self.by_name.get(name) {
            return *id;
        }
        let id = NodeId(self.names.len());
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), id);
        id
    }

    /// Looks up an existing node by name.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::NotFound`] for unknown names.
    pub fn find_node(&self, name: &str) -> Result<NodeId, SpiceError> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| SpiceError::NotFound {
                name: name.to_owned(),
            })
    }

    /// Name of a node.
    ///
    /// # Panics
    ///
    /// Panics for a foreign node id.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.names[id.0]
    }

    /// Number of nodes including ground.
    pub fn node_count(&self) -> usize {
        self.names.len()
    }

    /// The [`NodeId`] at raw index `index` (0 = ground).
    ///
    /// # Panics
    ///
    /// Panics when `index >= node_count()`.
    pub fn node_id(&self, index: usize) -> NodeId {
        assert!(
            index < self.names.len(),
            "node index {index} out of range ({} nodes)",
            self.names.len()
        );
        NodeId(index)
    }

    /// Number of devices.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    fn check_node(&self, id: NodeId) -> Result<(), SpiceError> {
        if id.0 >= self.names.len() {
            return Err(SpiceError::InvalidNode {
                node: id.0,
                nodes: self.names.len(),
            });
        }
        Ok(())
    }

    /// Adds a resistor.
    ///
    /// # Errors
    ///
    /// Rejects foreign nodes and non-positive resistance.
    pub fn resistor(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        ohms: f64,
    ) -> Result<(), SpiceError> {
        self.check_node(a)?;
        self.check_node(b)?;
        if !(ohms > 0.0) {
            return Err(SpiceError::InvalidValue {
                device: name.to_owned(),
                reason: "resistance must be positive",
            });
        }
        self.devices.push(Device {
            name: name.to_owned(),
            element: Element::Resistor { a, b, ohms },
        });
        Ok(())
    }

    /// Adds a capacitor.
    ///
    /// # Errors
    ///
    /// Rejects foreign nodes and negative capacitance.
    pub fn capacitor(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        farads: f64,
    ) -> Result<(), SpiceError> {
        self.check_node(a)?;
        self.check_node(b)?;
        if !(farads >= 0.0) {
            return Err(SpiceError::InvalidValue {
                device: name.to_owned(),
                reason: "capacitance must be nonnegative",
            });
        }
        self.devices.push(Device {
            name: name.to_owned(),
            element: Element::Capacitor { a, b, farads },
        });
        Ok(())
    }

    /// Adds an independent voltage source (`plus` − `minus` = waveform).
    ///
    /// # Errors
    ///
    /// Rejects foreign nodes.
    pub fn vsource(
        &mut self,
        name: &str,
        plus: NodeId,
        minus: NodeId,
        wave: Waveform,
    ) -> Result<(), SpiceError> {
        self.check_node(plus)?;
        self.check_node(minus)?;
        let branch = self.vsource_count;
        self.vsource_count += 1;
        self.devices.push(Device {
            name: name.to_owned(),
            element: Element::VSource {
                plus,
                minus,
                wave,
                branch,
            },
        });
        Ok(())
    }

    /// Adds an independent current source pushing current from `from` to
    /// `to` through the source (i.e. into node `to`).
    ///
    /// # Errors
    ///
    /// Rejects foreign nodes.
    pub fn isource(
        &mut self,
        name: &str,
        from: NodeId,
        to: NodeId,
        wave: Waveform,
    ) -> Result<(), SpiceError> {
        self.check_node(from)?;
        self.check_node(to)?;
        self.devices.push(Device {
            name: name.to_owned(),
            element: Element::ISource { from, to, wave },
        });
        Ok(())
    }

    /// Adds a level-1 n-MOSFET (bulk tied to ground as in the paper's §V).
    ///
    /// # Errors
    ///
    /// Rejects foreign nodes and non-positive `kp` or `w_over_l`.
    pub fn nmos(
        &mut self,
        name: &str,
        d: NodeId,
        g: NodeId,
        s: NodeId,
        params: MosParams,
    ) -> Result<(), SpiceError> {
        self.check_node(d)?;
        self.check_node(g)?;
        self.check_node(s)?;
        if !(params.kp > 0.0) || !(params.w_over_l > 0.0) {
            return Err(SpiceError::InvalidValue {
                device: name.to_owned(),
                reason: "kp and w_over_l must be positive",
            });
        }
        self.devices.push(Device {
            name: name.to_owned(),
            element: Element::Nmos { d, g, s, params },
        });
        Ok(())
    }

    /// Adds a level-3-class n-MOSFET (short-channel effects and Meyer
    /// gate capacitances — the model the paper's §VI-A plans). The gate
    /// capacitances from `params` are instantiated as linear capacitors
    /// `<name>_cgs` / `<name>_cgd` alongside the transistor.
    ///
    /// # Errors
    ///
    /// Rejects foreign nodes and non-positive `kp` or `w_over_l`.
    pub fn nmos3(
        &mut self,
        name: &str,
        d: NodeId,
        g: NodeId,
        s: NodeId,
        params: Mos3Params,
    ) -> Result<(), SpiceError> {
        self.check_node(d)?;
        self.check_node(g)?;
        self.check_node(s)?;
        if !(params.kp > 0.0) || !(params.w_over_l > 0.0) {
            return Err(SpiceError::InvalidValue {
                device: name.to_owned(),
                reason: "kp and w_over_l must be positive",
            });
        }
        self.devices.push(Device {
            name: name.to_owned(),
            element: Element::Nmos3 { d, g, s, params },
        });
        if params.cgs > 0.0 {
            self.capacitor(&format!("{name}_cgs"), g, s, params.cgs)?;
        }
        if params.cgd > 0.0 {
            self.capacitor(&format!("{name}_cgd"), g, d, params.cgd)?;
        }
        Ok(())
    }

    /// Replaces the waveform of the named voltage source (used by sweeps).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::NotFound`] for unknown source names.
    pub fn set_vsource(&mut self, name: &str, wave: Waveform) -> Result<(), SpiceError> {
        for dev in &mut self.devices {
            if dev.name == name {
                if let Element::VSource { wave: w, .. } = &mut dev.element {
                    *w = wave;
                    return Ok(());
                }
            }
        }
        Err(SpiceError::NotFound {
            name: name.to_owned(),
        })
    }

    /// Iterates read-only [`DeviceView`]s in insertion order — the order
    /// devices are stamped into the MNA system, which exporters must
    /// preserve for bit-reproducible results.
    pub fn devices(&self) -> impl Iterator<Item = DeviceView<'_>> + '_ {
        self.devices.iter().map(|dev| match &dev.element {
            Element::Resistor { a, b, ohms } => DeviceView::Resistor {
                name: &dev.name,
                a: *a,
                b: *b,
                ohms: *ohms,
            },
            Element::Capacitor { a, b, farads } => DeviceView::Capacitor {
                name: &dev.name,
                a: *a,
                b: *b,
                farads: *farads,
            },
            Element::VSource {
                plus, minus, wave, ..
            } => DeviceView::VSource {
                name: &dev.name,
                plus: *plus,
                minus: *minus,
                wave,
            },
            Element::ISource { from, to, wave } => DeviceView::ISource {
                name: &dev.name,
                from: *from,
                to: *to,
                wave,
            },
            Element::Nmos { d, g, s, params } => DeviceView::Nmos {
                name: &dev.name,
                d: *d,
                g: *g,
                s: *s,
                params: *params,
            },
            Element::Nmos3 { d, g, s, params } => DeviceView::Nmos3 {
                name: &dev.name,
                d: *d,
                g: *g,
                s: *s,
                params: *params,
            },
        })
    }

    /// Total MNA unknowns: node voltages (minus ground) plus source
    /// branch currents.
    pub fn unknown_count(&self) -> usize {
        self.node_count() - 1 + self.vsource_count
    }

    /// Selects the linear-solver engine for analyses of this netlist.
    pub fn set_solver(&mut self, kind: SolverKind) {
        self.solver = kind;
    }

    /// The selected linear-solver engine.
    pub fn solver_kind(&self) -> SolverKind {
        self.solver
    }

    /// True when analyses of this netlist will run on the sparse engine —
    /// selected explicitly, or by `Auto` at the size threshold.
    pub fn uses_sparse_solver(&self) -> bool {
        match self.solver {
            SolverKind::Dense => false,
            SolverKind::Sparse => true,
            SolverKind::Auto => self.unknown_count() >= crate::stamp::SPARSE_THRESHOLD,
        }
    }

    /// The MNA sparsity pattern of this netlist, for diagnostics and
    /// benchmarks: every structurally possible nonzero of the system
    /// matrix, values all zero.
    pub fn mna_pattern(&self) -> crate::linalg::SparseMatrix {
        crate::stamp::mna_pattern(self)
    }

    /// True when `other` has the same circuit *topology*: the same nodes,
    /// the same devices in the same order, each connected to the same
    /// terminals — only parameter values and source waveforms may differ.
    ///
    /// This is the admission test for the ensemble solver: two netlists
    /// that pass it produce identical MNA patterns *and* identical device
    /// stamp plans, so one set of resolved matrix slots serves both. It is
    /// deliberately conservative — a Monte Carlo defect trial that rewires
    /// a gate to a rail fails it and takes the scalar path instead.
    pub fn same_topology(&self, other: &Netlist) -> bool {
        if self.node_count() != other.node_count()
            || self.vsource_count != other.vsource_count
            || self.devices.len() != other.devices.len()
        {
            return false;
        }
        self.devices
            .iter()
            .zip(&other.devices)
            .all(|(a, b)| match (&a.element, &b.element) {
                (
                    Element::Resistor { a: a1, b: b1, .. },
                    Element::Resistor { a: a2, b: b2, .. },
                ) => (a1, b1) == (a2, b2),
                (
                    Element::Capacitor { a: a1, b: b1, .. },
                    Element::Capacitor { a: a2, b: b2, .. },
                ) => (a1, b1) == (a2, b2),
                (
                    Element::VSource {
                        plus: p1,
                        minus: m1,
                        branch: br1,
                        ..
                    },
                    Element::VSource {
                        plus: p2,
                        minus: m2,
                        branch: br2,
                        ..
                    },
                ) => (p1, m1, br1) == (p2, m2, br2),
                (
                    Element::ISource {
                        from: f1, to: t1, ..
                    },
                    Element::ISource {
                        from: f2, to: t2, ..
                    },
                ) => (f1, t1) == (f2, t2),
                (
                    Element::Nmos {
                        d: d1,
                        g: g1,
                        s: s1,
                        ..
                    },
                    Element::Nmos {
                        d: d2,
                        g: g2,
                        s: s2,
                        ..
                    },
                ) => (d1, g1, s1) == (d2, g2, s2),
                (
                    Element::Nmos3 {
                        d: d1,
                        g: g1,
                        s: s1,
                        ..
                    },
                    Element::Nmos3 {
                        d: d2,
                        g: g2,
                        s: s2,
                        ..
                    },
                ) => (d1, g1, s1) == (d2, g2, s2),
                _ => false,
            })
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "* netlist: {} nodes, {} devices",
            self.node_count(),
            self.device_count()
        )?;
        for dev in &self.devices {
            match &dev.element {
                Element::Resistor { a, b, ohms } => writeln!(
                    f,
                    "R {} {} {} {}",
                    dev.name,
                    self.node_name(*a),
                    self.node_name(*b),
                    ohms
                )?,
                Element::Capacitor { a, b, farads } => writeln!(
                    f,
                    "C {} {} {} {}",
                    dev.name,
                    self.node_name(*a),
                    self.node_name(*b),
                    farads
                )?,
                Element::VSource { plus, minus, .. } => writeln!(
                    f,
                    "V {} {} {}",
                    dev.name,
                    self.node_name(*plus),
                    self.node_name(*minus)
                )?,
                Element::ISource { from, to, .. } => writeln!(
                    f,
                    "I {} {} {}",
                    dev.name,
                    self.node_name(*from),
                    self.node_name(*to)
                )?,
                Element::Nmos { d, g, s, .. } => writeln!(
                    f,
                    "M {} {} {} {}",
                    dev.name,
                    self.node_name(*d),
                    self.node_name(*g),
                    self.node_name(*s)
                )?,
                Element::Nmos3 { d, g, s, .. } => writeln!(
                    f,
                    "M3 {} {} {} {}",
                    dev.name,
                    self.node_name(*d),
                    self.node_name(*g),
                    self.node_name(*s)
                )?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_are_interned_by_name() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let a2 = nl.node("a");
        let b = nl.node("b");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(nl.node_count(), 3);
        assert_eq!(nl.find_node("b").unwrap(), b);
        assert!(nl.find_node("zz").is_err());
    }

    #[test]
    fn invalid_values_rejected() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        assert!(nl.resistor("R1", a, Netlist::GROUND, 0.0).is_err());
        assert!(nl.resistor("R1", a, Netlist::GROUND, -5.0).is_err());
        assert!(nl.capacitor("C1", a, Netlist::GROUND, -1e-15).is_err());
        let bad = NodeId(99);
        assert!(nl.resistor("R2", bad, Netlist::GROUND, 1.0).is_err());
    }

    #[test]
    fn dc_waveform() {
        assert_eq!(Waveform::Dc(3.3).at(0.0), 3.3);
        assert_eq!(Waveform::Dc(3.3).at(1.0), 3.3);
    }

    #[test]
    fn pulse_waveform_shape() {
        let w = Waveform::Pulse {
            v0: 0.0,
            v1: 1.0,
            delay: 1.0,
            rise: 1.0,
            fall: 1.0,
            width: 2.0,
            period: 10.0,
        };
        assert_eq!(w.at(0.5), 0.0);
        assert!((w.at(1.5) - 0.5).abs() < 1e-12); // mid-rise
        assert_eq!(w.at(2.5), 1.0); // plateau
        assert!((w.at(4.5) - 0.5).abs() < 1e-12); // mid-fall
        assert_eq!(w.at(6.0), 0.0);
        // Periodic repeat.
        assert!((w.at(11.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pwl_waveform_interpolates_and_clamps() {
        let w = Waveform::Pwl(vec![(1.0, 0.0), (2.0, 2.0), (4.0, 2.0), (5.0, 0.0)]);
        assert_eq!(w.at(0.0), 0.0);
        assert!((w.at(1.5) - 1.0).abs() < 1e-12);
        assert_eq!(w.at(3.0), 2.0);
        assert!((w.at(4.5) - 1.0).abs() < 1e-12);
        assert_eq!(w.at(9.0), 0.0);
    }

    #[test]
    fn unknown_count_tracks_sources() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vsource("V1", a, Netlist::GROUND, Waveform::Dc(1.0))
            .unwrap();
        nl.resistor("R1", a, b, 10.0).unwrap();
        assert_eq!(nl.unknown_count(), 2 + 1);
    }

    #[test]
    fn set_vsource_replaces_waveform() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V1", a, Netlist::GROUND, Waveform::Dc(1.0))
            .unwrap();
        nl.set_vsource("V1", Waveform::Dc(2.0)).unwrap();
        assert!(nl.set_vsource("V9", Waveform::Dc(0.0)).is_err());
    }

    #[test]
    fn device_views_preserve_insertion_order() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vsource("V1", a, Netlist::GROUND, Waveform::Dc(1.5))
            .unwrap();
        nl.resistor("R1", a, b, 50.0).unwrap();
        nl.capacitor("C1", b, Netlist::GROUND, 1e-12).unwrap();
        let views: Vec<DeviceView> = nl.devices().collect();
        assert_eq!(views.len(), 3);
        match &views[0] {
            DeviceView::VSource {
                name,
                plus,
                minus,
                wave,
            } => {
                assert_eq!(*name, "V1");
                assert_eq!((*plus, *minus), (a, Netlist::GROUND));
                assert_eq!(**wave, Waveform::Dc(1.5));
            }
            other => panic!("expected vsource view, got {other:?}"),
        }
        assert!(matches!(
            views[1],
            DeviceView::Resistor { name: "R1", ohms, .. } if ohms == 50.0
        ));
        assert!(matches!(
            views[2],
            DeviceView::Capacitor { name: "C1", farads, .. } if farads == 1e-12
        ));
    }

    #[test]
    fn nmos3_view_is_followed_by_its_gate_capacitors() {
        let mut nl = Netlist::new();
        let d = nl.node("d");
        let g = nl.node("g");
        let p = crate::Mos3Params {
            kp: 1e-4,
            vth: 0.5,
            lambda: 0.0,
            w_over_l: 2.0,
            theta: 0.0,
            esat_l: f64::INFINITY,
            cgs: 1e-15,
            cgd: 2e-15,
        };
        nl.nmos3("M1", d, g, Netlist::GROUND, p).unwrap();
        let views: Vec<DeviceView> = nl.devices().collect();
        assert_eq!(views.len(), 3);
        assert!(matches!(views[0], DeviceView::Nmos3 { name: "M1", .. }));
        assert!(matches!(
            views[1],
            DeviceView::Capacitor { name: "M1_cgs", farads, .. } if farads == 1e-15
        ));
        assert!(matches!(
            views[2],
            DeviceView::Capacitor { name: "M1_cgd", farads, .. } if farads == 2e-15
        ));
    }

    #[test]
    fn same_topology_admits_value_changes_only() {
        let build = |ohms: f64, vdd: f64| {
            let mut nl = Netlist::new();
            let a = nl.node("a");
            let b = nl.node("b");
            nl.vsource("V1", a, Netlist::GROUND, Waveform::Dc(vdd))
                .unwrap();
            nl.resistor("R1", a, b, ohms).unwrap();
            nl
        };
        let nominal = build(50.0, 1.2);
        // Different values, same wiring: still the same topology.
        assert!(nominal.same_topology(&build(75.0, 0.9)));
        // A rewired terminal is a different topology.
        let mut rewired = Netlist::new();
        let a = rewired.node("a");
        let b = rewired.node("b");
        rewired
            .vsource("V1", a, Netlist::GROUND, Waveform::Dc(1.2))
            .unwrap();
        rewired.resistor("R1", b, Netlist::GROUND, 50.0).unwrap();
        assert!(!nominal.same_topology(&rewired));
        // An extra device is a different topology.
        let mut grown = build(50.0, 1.2);
        let gb = grown.node("b");
        grown.capacitor("C1", gb, Netlist::GROUND, 1e-15).unwrap();
        assert!(!nominal.same_topology(&grown));
        // A device swapped for a different kind is a different topology.
        let mut swapped = Netlist::new();
        let a = swapped.node("a");
        let b = swapped.node("b");
        swapped
            .vsource("V1", a, Netlist::GROUND, Waveform::Dc(1.2))
            .unwrap();
        swapped.capacitor("R1", a, b, 1e-15).unwrap();
        assert!(!nominal.same_topology(&swapped));
    }

    #[test]
    fn display_lists_devices() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.resistor("R1", a, Netlist::GROUND, 50.0).unwrap();
        let s = nl.to_string();
        assert!(s.contains("R R1 a 0 50"));
    }
}
