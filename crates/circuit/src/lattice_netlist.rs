//! Wiring a switching lattice into the paper's §V test circuit.
//!
//! The pull-up network is a 500 kΩ resistor to VDD = 1.2 V; the pull-down
//! network is the lattice itself (top plate = output, bottom plate =
//! ground), so the circuit computes the *complement* of the lattice
//! function. A 10 fF capacitor loads the output.

use fts_lattice::Lattice;
use fts_logic::Literal;
use fts_spice::{Netlist, NodeId, Simulator, Waveform};

use crate::model::SwitchCircuitModel;
use crate::switch;
use crate::CircuitError;

/// Electrical configuration of the lattice test bench (defaults follow
/// §V of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchConfig {
    /// Supply voltage \[V\].
    pub vdd: f64,
    /// Pull-up resistance \[Ω\].
    pub pullup_ohms: f64,
    /// Output load capacitance \[F\].
    pub load_cap: f64,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            vdd: 1.2,
            pullup_ohms: 500.0e3,
            load_cap: 10.0e-15,
        }
    }
}

/// A lattice instantiated as a circuit, ready for DC or transient runs.
#[derive(Debug, Clone)]
pub struct LatticeCircuit {
    netlist: Netlist,
    out: NodeId,
    vars: usize,
    config: BenchConfig,
}

impl LatticeCircuit {
    /// Builds the §V test bench around `lattice` for `vars` input
    /// variables. Input sources `VIN0..` / `VIN0N..` (true/complement) are
    /// created for every variable and initialized to 0 V / VDD.
    ///
    /// # Errors
    ///
    /// Propagates netlist construction failures; rejects lattices whose
    /// sites reference variables ≥ `vars`.
    pub fn build(
        lattice: &Lattice,
        vars: usize,
        model: &SwitchCircuitModel,
        config: BenchConfig,
    ) -> Result<LatticeCircuit, CircuitError> {
        Self::build_with(lattice, vars, config, |_| *model)
    }

    /// Like [`LatticeCircuit::build`] but with a per-site model: `site_model`
    /// is called once per switch (row-major) and may return a different
    /// [`SwitchCircuitModel`] for every site. This is how process-variation
    /// engines instantiate mismatched lattices — each fabricated switch gets
    /// its own perturbed transistor parameters.
    ///
    /// # Errors
    ///
    /// Propagates netlist construction failures; rejects lattices whose
    /// sites reference variables ≥ `vars`.
    pub fn build_with(
        lattice: &Lattice,
        vars: usize,
        config: BenchConfig,
        mut site_model: impl FnMut(fts_lattice::Site) -> SwitchCircuitModel,
    ) -> Result<LatticeCircuit, CircuitError> {
        for lit in lattice.literals() {
            if let Literal::Var { index, .. } = *lit {
                if index as usize >= vars {
                    return Err(CircuitError::MissingStimulus { variable: index });
                }
            }
        }

        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        nl.vsource("VDD", vdd, Netlist::GROUND, Waveform::Dc(config.vdd))?;
        let top = nl.node("top");
        nl.resistor("RPU", vdd, top, config.pullup_ohms)?;
        nl.capacitor("CLOAD", top, Netlist::GROUND, config.load_cap)?;

        // Input rails: true and complement per variable.
        let mut input_nodes = Vec::with_capacity(vars);
        for v in 0..vars {
            let p = nl.node(&format!("in{v}"));
            let n = nl.node(&format!("in{v}n"));
            nl.vsource(&format!("VIN{v}"), p, Netlist::GROUND, Waveform::Dc(0.0))?;
            nl.vsource(
                &format!("VIN{v}N"),
                n,
                Netlist::GROUND,
                Waveform::Dc(config.vdd),
            )?;
            input_nodes.push((p, n));
        }

        let (rows, cols) = (lattice.rows(), lattice.cols());
        // Vertical nodes: row boundary r (0..=rows) at column c. Row 0 is
        // the shared top plate; row `rows` is the grounded bottom plate.
        let vert = |nl: &mut Netlist, r: usize, c: usize| -> NodeId {
            if r == 0 {
                top
            } else if r == rows {
                Netlist::GROUND
            } else {
                nl.node(&format!("v{r}_{c}"))
            }
        };
        // Horizontal nodes: boundary between (r, c) and (r, c+1); edge
        // terminals get private floating nodes.
        let horiz =
            |nl: &mut Netlist, r: usize, b: usize| -> NodeId { nl.node(&format!("h{r}_{b}")) };

        for r in 0..rows {
            for c in 0..cols {
                let name = format!("S{r}_{c}");
                let gate = match lattice.literal((r, c)) {
                    Literal::True => vdd,
                    Literal::False => Netlist::GROUND,
                    Literal::Var { index, negated } => {
                        let (p, n) = input_nodes[index as usize];
                        if negated {
                            n
                        } else {
                            p
                        }
                    }
                };
                let t_top = vert(&mut nl, r, c);
                let t_bottom = vert(&mut nl, r + 1, c);
                let t_left = horiz(&mut nl, r, c);
                let t_right = horiz(&mut nl, r, c + 1);
                let model = site_model((r, c));
                switch::add_switch(
                    &mut nl,
                    &name,
                    gate,
                    [t_top, t_right, t_bottom, t_left],
                    &model,
                )?;
            }
        }

        Ok(LatticeCircuit {
            netlist: nl,
            out: top,
            vars,
            config,
        })
    }

    /// The underlying netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The output node (lattice top plate).
    pub fn out(&self) -> NodeId {
        self.out
    }

    /// The bench configuration.
    pub fn config(&self) -> &BenchConfig {
        &self.config
    }

    /// DC output voltage for a packed input assignment: input `v` is
    /// driven to VDD when bit `v` is set, its complement rail to the
    /// opposite level.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures.
    pub fn dc_output(&self, assignment: u32) -> Result<f64, CircuitError> {
        let mut nl = self.netlist.clone();
        let vdd = self.config.vdd;
        for v in 0..self.vars {
            let bit = (assignment >> v) & 1 == 1;
            nl.set_vsource(
                &format!("VIN{v}"),
                Waveform::Dc(if bit { vdd } else { 0.0 }),
            )?;
            nl.set_vsource(
                &format!("VIN{v}N"),
                Waveform::Dc(if bit { 0.0 } else { vdd }),
            )?;
        }
        let op = Simulator::new(&nl).op()?;
        Ok(op.voltage(self.out))
    }

    /// Recovers the Boolean function computed at the output by thresholded
    /// DC analysis over all input assignments. The bench inverts the
    /// lattice (pull-down network), so this is `NOT f_lattice`.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures.
    pub fn dc_truth_table(&self) -> Result<Vec<bool>, CircuitError> {
        let mut out = Vec::with_capacity(1 << self.vars);
        for x in 0..(1u32 << self.vars) {
            let v = self.dc_output(x)?;
            out.push(v > self.config.vdd / 2.0);
        }
        Ok(out)
    }

    /// Replaces the stimulus of variable `v` (and its complement rail) for
    /// transient runs.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown variables.
    pub fn set_stimulus(
        &mut self,
        v: usize,
        wave: Waveform,
        complement: Waveform,
    ) -> Result<(), CircuitError> {
        if v >= self.vars {
            return Err(CircuitError::MissingStimulus { variable: v as u8 });
        }
        self.netlist.set_vsource(&format!("VIN{v}"), wave)?;
        self.netlist.set_vsource(&format!("VIN{v}N"), complement)?;
        Ok(())
    }
}

/// Builds PWL stimulus waveforms (true rail and complement) from a bit
/// sequence: one phase per bit, `transition` seconds of linear edge at
/// each phase boundary, levels 0 / `vdd`.
pub fn pwl_from_bits(bits: &[bool], phase: f64, transition: f64, vdd: f64) -> (Waveform, Waveform) {
    let level = |b: bool| if b { vdd } else { 0.0 };
    let mut pos = Vec::with_capacity(2 * bits.len());
    let mut neg = Vec::with_capacity(2 * bits.len());
    for (k, &b) in bits.iter().enumerate() {
        let t0 = k as f64 * phase + if k == 0 { 0.0 } else { transition };
        let t1 = (k + 1) as f64 * phase;
        pos.push((t0, level(b)));
        pos.push((t1, level(b)));
        neg.push((t0, level(!b)));
        neg.push((t1, level(!b)));
    }
    (Waveform::Pwl(pos), Waveform::Pwl(neg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fts_logic::generators;

    fn model() -> SwitchCircuitModel {
        SwitchCircuitModel::square_hfo2().unwrap()
    }

    #[test]
    fn and2_column_inverts_to_nand() {
        // 2×1 lattice computing a·b → circuit output is NAND(a,b).
        let lat = Lattice::from_literals(2, 1, vec![Literal::pos(0), Literal::pos(1)]).unwrap();
        let ckt = LatticeCircuit::build(&lat, 2, &model(), BenchConfig::default()).unwrap();
        let tt = ckt.dc_truth_table().unwrap();
        assert_eq!(tt, vec![true, true, true, false]);
    }

    #[test]
    fn or2_row_inverts_to_nor() {
        let lat = Lattice::from_literals(1, 2, vec![Literal::pos(0), Literal::pos(1)]).unwrap();
        let ckt = LatticeCircuit::build(&lat, 2, &model(), BenchConfig::default()).unwrap();
        let tt = ckt.dc_truth_table().unwrap();
        assert_eq!(tt, vec![true, false, false, false]);
    }

    #[test]
    fn output_low_level_is_nonzero_ratioed_logic() {
        // The resistive pull-up fights the on lattice: V_OL > 0 as in the
        // paper (0.22 V for XOR3).
        let lat = Lattice::from_literals(1, 1, vec![Literal::pos(0)]).unwrap();
        let ckt = LatticeCircuit::build(&lat, 1, &model(), BenchConfig::default()).unwrap();
        let v_on = ckt.dc_output(0b1).unwrap();
        assert!(v_on > 0.01 && v_on < 0.45, "ratioed V_OL: {v_on}");
        let v_off = ckt.dc_output(0b0).unwrap();
        assert!(v_off > 1.15, "pull-up restores: {v_off}");
    }

    #[test]
    fn constant_sites_tie_to_rails() {
        let lat = Lattice::from_literals(1, 1, vec![Literal::True]).unwrap();
        let ckt = LatticeCircuit::build(&lat, 1, &model(), BenchConfig::default()).unwrap();
        assert!(
            ckt.dc_output(0).unwrap() < 0.45,
            "always-on switch pulls down"
        );
        let lat = Lattice::from_literals(1, 1, vec![Literal::False]).unwrap();
        let ckt = LatticeCircuit::build(&lat, 1, &model(), BenchConfig::default()).unwrap();
        assert!(
            ckt.dc_output(0).unwrap() > 1.15,
            "always-off switch floats the plate"
        );
    }

    #[test]
    fn circuit_recovers_majority_function() {
        // Synthesize MAJ3 and verify the circuit computes its complement.
        let f = generators::majority(3);
        let lat = fts_synth::dual::altun_riedel(&f).unwrap();
        let ckt = LatticeCircuit::build(&lat, 3, &model(), BenchConfig::default()).unwrap();
        let tt = ckt.dc_truth_table().unwrap();
        for x in 0..8u32 {
            assert_eq!(tt[x as usize], !f.eval(x), "input {x:03b}");
        }
    }

    #[test]
    fn per_site_models_change_the_electrical_result() {
        // A 1×1 lattice with a weakened switch (half Kp) pulls down less
        // strongly, so V_OL rises versus the nominal build — but the logic
        // level stays the same.
        let lat = Lattice::from_literals(1, 1, vec![Literal::pos(0)]).unwrap();
        let nominal = model();
        let uniform = LatticeCircuit::build(&lat, 1, &nominal, BenchConfig::default()).unwrap();
        let weak = LatticeCircuit::build_with(&lat, 1, BenchConfig::default(), |_| {
            let mut m = nominal;
            m.type_a.kp *= 0.5;
            m.type_b.kp *= 0.5;
            m
        })
        .unwrap();
        let v_nom = uniform.dc_output(0b1).unwrap();
        let v_weak = weak.dc_output(0b1).unwrap();
        assert!(v_weak > v_nom, "weaker pull-down: {v_weak} vs {v_nom}");
        assert!(v_weak < 0.6, "still reads as logic low");
    }

    #[test]
    fn build_with_matches_build_for_constant_model() {
        let lat = Lattice::from_literals(1, 2, vec![Literal::pos(0), Literal::pos(1)]).unwrap();
        let m = model();
        let a = LatticeCircuit::build(&lat, 2, &m, BenchConfig::default()).unwrap();
        let b = LatticeCircuit::build_with(&lat, 2, BenchConfig::default(), |_| m).unwrap();
        for x in 0..4u32 {
            let (va, vb) = (a.dc_output(x).unwrap(), b.dc_output(x).unwrap());
            assert!((va - vb).abs() < 1e-12, "input {x}: {va} vs {vb}");
        }
    }

    #[test]
    fn build_rejects_unstimulated_variables() {
        let lat = Lattice::from_literals(1, 1, vec![Literal::pos(5)]).unwrap();
        let err = LatticeCircuit::build(&lat, 3, &model(), BenchConfig::default());
        assert!(matches!(
            err,
            Err(CircuitError::MissingStimulus { variable: 5 })
        ));
    }

    #[test]
    fn pwl_bits_produce_complementary_rails() {
        let (p, n) = pwl_from_bits(&[false, true, true], 100e-9, 1e-9, 1.2);
        for &t in &[50e-9, 150e-9, 250e-9] {
            let vp = p.at(t);
            let vn = n.at(t);
            assert!((vp + vn - 1.2).abs() < 1e-9, "rails complement at {t}");
        }
        assert_eq!(p.at(50e-9), 0.0);
        assert_eq!(p.at(150e-9), 1.2);
    }
}
