//! The paper's §V circuit experiments: the inverse-XOR3 transient
//! (Fig. 11) and the series-switch drive studies (Fig. 12a/b).

use fts_lattice::Lattice;
use fts_logic::{generators, Literal};
use fts_spice::analysis::{Integrator, TranConfig};
use fts_spice::{measure, Netlist, Simulator, Waveform};

use crate::lattice_netlist::{pwl_from_bits, BenchConfig, LatticeCircuit};
use crate::model::SwitchCircuitModel;
use crate::switch;
use crate::CircuitError;

/// The 3×3 XOR3 lattice of the paper's Fig. 3b, found by the
/// simulated-annealing search in `fts-synth` and fixed here for
/// reproducibility:
///
/// ```text
/// a'  c'  a
/// b'  1   b
/// a   c   a'
/// ```
///
/// # Example
///
/// ```
/// use fts_circuit::experiments::xor3_lattice;
/// use fts_logic::generators;
///
/// let lat = xor3_lattice();
/// assert_eq!(lat.truth_table(3)?, generators::xor(3));
/// # Ok::<(), fts_lattice::LatticeError>(())
/// ```
pub fn xor3_lattice() -> Lattice {
    Lattice::from_literals(
        3,
        3,
        vec![
            Literal::neg(0),
            Literal::neg(2),
            Literal::pos(0),
            Literal::neg(1),
            Literal::True,
            Literal::pos(1),
            Literal::pos(0),
            Literal::pos(2),
            Literal::neg(0),
        ],
    )
    .expect("constant literals form a valid 3×3 lattice")
}

/// Configuration of the Fig. 11 transient.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Xor3Experiment {
    /// Time allotted to each of the eight input phases \[s\].
    pub phase: f64,
    /// Input edge time \[s\].
    pub transition: f64,
    /// Simulation step \[s\].
    pub dt: f64,
    /// Integration method.
    pub integrator: Integrator,
    /// Electrical bench.
    pub bench: BenchConfig,
}

impl Xor3Experiment {
    /// Paper-fidelity settings: 120 ns phases resolved with 0.2 ns steps.
    pub fn paper() -> Xor3Experiment {
        Xor3Experiment {
            phase: 120.0e-9,
            transition: 1.0e-9,
            dt: 0.2e-9,
            integrator: Integrator::Trapezoidal,
            bench: BenchConfig::default(),
        }
    }

    /// Coarser settings for unit tests and doc examples (~4× faster).
    pub fn quick() -> Xor3Experiment {
        Xor3Experiment {
            dt: 0.8e-9,
            ..Xor3Experiment::paper()
        }
    }

    /// Builds the stimulus-wired lattice circuit and the transient
    /// configuration — the *job half* of [`run`](Xor3Experiment::run).
    /// Batch clients hand the netlist and config to the engine and feed
    /// the resulting output waveform back into
    /// [`analyze`](Xor3Experiment::analyze).
    ///
    /// # Errors
    ///
    /// Propagates circuit construction failures.
    pub fn prepare(
        &self,
        model: &SwitchCircuitModel,
    ) -> Result<(LatticeCircuit, TranConfig), CircuitError> {
        let lat = xor3_lattice();
        let mut ckt = LatticeCircuit::build(&lat, 3, model, self.bench)?;
        // Drive inputs through 000,001,…,111 (variable v toggles with
        // period 2^v phases).
        for v in 0..3usize {
            let bits: Vec<bool> = (0..8u32).map(|x| (x >> v) & 1 == 1).collect();
            let (p, n) = pwl_from_bits(&bits, self.phase, self.transition, self.bench.vdd);
            ckt.set_stimulus(v, p, n)?;
        }
        let tstop = self.phase * 8.0;
        let cfg = TranConfig::fixed(self.dt, tstop).integrator(self.integrator);
        Ok((ckt, cfg))
    }

    /// Measures a simulated output waveform against the Fig. 11 protocol —
    /// the *measurement half* of [`run`](Xor3Experiment::run).
    pub fn analyze(&self, time: &[f64], output: Vec<f64>) -> Xor3Report {
        let xor = generators::xor(3);

        // Read the settled level in the last 20% of each phase.
        let mut functional = true;
        let mut v_ol: f64 = f64::NEG_INFINITY;
        let mut v_oh: f64 = f64::INFINITY;
        let mut levels = Vec::with_capacity(8);
        for x in 0..8u32 {
            let t0 = (x as f64 + 0.8) * self.phase;
            let t1 = (x + 1) as f64 * self.phase;
            let lvl = measure::settled_level(time, &output, t0, t1);
            levels.push(lvl);
            let expect_high = !xor.eval(x); // inverse XOR3
            if expect_high {
                v_oh = v_oh.min(lvl);
                functional &= lvl > 0.7 * self.bench.vdd;
            } else {
                v_ol = v_ol.max(lvl);
                functional &= lvl < 0.45;
            }
        }

        // Rise/fall of the output between the settled rails.
        let rise = measure::rise_time(time, &output, v_ol.max(0.0), v_oh, 1);
        let fall = measure::fall_time(time, &output, v_ol.max(0.0), v_oh, 1);
        Xor3Report {
            functional,
            v_ol,
            v_oh,
            rise_s: rise,
            fall_s: fall,
            phase_levels: levels,
            time: time.to_vec(),
            output,
        }
    }

    /// Runs the experiment: the XOR3 lattice driven through all eight
    /// input combinations; the output must equal `NOT XOR3` (the lattice
    /// is the pull-down network).
    ///
    /// # Errors
    ///
    /// Propagates circuit and simulator failures.
    pub fn run(&self, model: &SwitchCircuitModel) -> Result<Xor3Report, CircuitError> {
        let (ckt, cfg) = self.prepare(model)?;
        let tr = Simulator::new(ckt.netlist()).transient(&cfg)?;
        let out = tr.voltage(ckt.out());
        Ok(self.analyze(&tr.time, out))
    }
}

/// Results of the Fig. 11 reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct Xor3Report {
    /// True when every phase settled to the correct logic level.
    pub functional: bool,
    /// Worst-case low output level \[V\] (paper: ≈ 0.22 V).
    pub v_ol: f64,
    /// Worst-case high output level \[V\].
    pub v_oh: f64,
    /// 10–90% rise time \[s\] (paper: ≈ 11.3 ns), when measurable.
    pub rise_s: Option<f64>,
    /// 90–10% fall time \[s\] (paper: ≈ 4.7 ns), when measurable.
    pub fall_s: Option<f64>,
    /// Settled output level per input phase \[V\].
    pub phase_levels: Vec<f64>,
    /// Simulation time base \[s\].
    pub time: Vec<f64>,
    /// Output waveform \[V\].
    pub output: Vec<f64>,
}

/// Builds the Fig. 12 series chain: `n` four-terminal switches connected
/// top-to-bottom, every gate tied to the driven rail, bottom grounded.
///
/// Returns the netlist and the name of the driving source.
///
/// # Errors
///
/// Rejects `n == 0`.
pub fn series_chain_netlist(
    model: &SwitchCircuitModel,
    n: usize,
    vdd: f64,
) -> Result<(Netlist, &'static str), CircuitError> {
    if n == 0 {
        return Err(CircuitError::InvalidConfig {
            reason: "chain needs at least one switch",
        });
    }
    let mut nl = Netlist::new();
    let drive = nl.node("drive");
    nl.vsource("VDRV", drive, Netlist::GROUND, Waveform::Dc(vdd))?;
    let mut upper = drive;
    for k in 0..n {
        let lower = if k + 1 == n {
            Netlist::GROUND
        } else {
            nl.node(&format!("c{k}"))
        };
        let left = nl.node(&format!("l{k}"));
        let right = nl.node(&format!("r{k}"));
        switch::add_switch(
            &mut nl,
            &format!("S{k}"),
            drive,
            [upper, right, lower, left],
            model,
        )?;
        upper = lower;
    }
    Ok((nl, "VDRV"))
}

/// Fig. 12a: current through a chain of `n` switches at the given supply
/// (1.2 V in the paper) \[A\].
///
/// # Errors
///
/// Propagates simulator failures.
pub fn series_chain_current(
    model: &SwitchCircuitModel,
    n: usize,
    vdd: f64,
) -> Result<f64, CircuitError> {
    let (nl, src) = series_chain_netlist(model, n, vdd)?;
    let op = Simulator::new(&nl).op()?;
    // The source delivers current, so its branch current is negative.
    Ok(-op.vsource_current(&nl, src)?)
}

/// Fig. 12b: supply voltage needed to push `target` amps through a chain
/// of `n` switches, found by bisection \[V\].
///
/// # Errors
///
/// Returns [`CircuitError::TargetNotBracketed`] when the target current is
/// unreachable below `v_max`.
pub fn series_chain_voltage_for_current(
    model: &SwitchCircuitModel,
    n: usize,
    target: f64,
    v_max: f64,
) -> Result<f64, CircuitError> {
    // One netlist serves the whole bisection: only the drive level changes.
    let (mut nl, src) = series_chain_netlist(model, n, v_max)?;
    let mut current = |v: f64| -> Result<f64, CircuitError> {
        nl.set_vsource(src, Waveform::Dc(v))?;
        let op = Simulator::new(&nl).op()?;
        Ok(-op.vsource_current(&nl, src)?)
    };
    let (mut lo, mut hi) = (0.0f64, v_max);
    if current(hi)? < target {
        return Err(CircuitError::TargetNotBracketed { target });
    }
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if current(mid)? < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(0.5 * (lo + hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fts_logic::generators;

    fn model() -> SwitchCircuitModel {
        SwitchCircuitModel::square_hfo2().unwrap()
    }

    #[test]
    fn xor3_lattice_matches_fig3b_function() {
        let lat = xor3_lattice();
        assert_eq!(lat.rows(), 3);
        assert_eq!(lat.cols(), 3);
        assert_eq!(lat.truth_table(3).unwrap(), generators::xor(3));
    }

    #[test]
    fn xor3_transient_is_functional_fig11() {
        let report = Xor3Experiment::quick().run(&model()).unwrap();
        assert!(report.functional, "levels: {:?}", report.phase_levels);
        // Paper: V_OL ≈ 0.22 V — ratioed logic, clearly above ground but
        // below the 0.45 V read threshold.
        assert!(
            report.v_ol > 0.02 && report.v_ol < 0.45,
            "V_OL {}",
            report.v_ol
        );
        assert!(report.v_oh > 1.1, "V_OH {}", report.v_oh);
        // Paper: rise ≈ 11.3 ns, fall ≈ 4.7 ns; same order, rise slower
        // than fall (weak resistive pull-up vs strong pull-down).
        let rise = report.rise_s.expect("rising edge present");
        let fall = report.fall_s.expect("falling edge present");
        assert!(rise > 1.0e-9 && rise < 60.0e-9, "rise {rise:.3e}");
        assert!(fall > 0.2e-9 && fall < 30.0e-9, "fall {fall:.3e}");
        assert!(rise > fall, "pull-up slower than pull-down");
    }

    #[test]
    fn chain_current_decreases_with_length_fig12a() {
        let m = model();
        let mut last = f64::INFINITY;
        let mut values = Vec::new();
        for n in [1usize, 2, 5, 11, 21] {
            let i = series_chain_current(&m, n, 1.2).unwrap();
            assert!(i > 0.0 && i < last, "n={n}: {i:.3e} (prev {last:.3e})");
            values.push(i);
            last = i;
        }
        // Paper shape: ~11 µA at n=1 dropping to ~0.5 µA at n=21 — a
        // 10–30× decay, far from linear in 1/n at the start.
        let decay = values[0] / values[4];
        assert!(decay > 5.0 && decay < 100.0, "decay {decay}");
        // Same order of magnitude as the paper's absolute numbers.
        assert!(
            values[0] > 1.0e-6 && values[0] < 1.0e-4,
            "I(1) = {:.3e}",
            values[0]
        );
    }

    #[test]
    fn chain_voltage_grows_sublinearly_fig12b() {
        let m = model();
        // The paper's constant-current target: the two-switch current at
        // 1.2 V.
        let target = series_chain_current(&m, 2, 1.2).unwrap();
        let v2 = series_chain_voltage_for_current(&m, 2, target, 8.0).unwrap();
        assert!((v2 - 1.2).abs() < 0.05, "self-consistency: {v2}");
        let v8 = series_chain_voltage_for_current(&m, 8, target, 8.0).unwrap();
        let v21 = series_chain_voltage_for_current(&m, 21, target, 8.0).unwrap();
        assert!(v8 > v2 && v21 > v8, "monotone: {v2} {v8} {v21}");
        // Far sub-linear: 10.5× more switches needs ≪ 10.5× the voltage
        // (paper: 2.1×; our stiffer fitted switch gives ~3.2×).
        assert!(v21 < 3.5 * v2, "sublinear: v21 = {v21}, v2 = {v2}");
    }

    #[test]
    fn chain_rejects_zero_length() {
        assert!(matches!(
            series_chain_current(&model(), 0, 1.2),
            Err(CircuitError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn unreachable_current_is_reported() {
        let err = series_chain_voltage_for_current(&model(), 2, 1.0, 2.0);
        assert!(matches!(err, Err(CircuitError::TargetNotBracketed { .. })));
    }
}
