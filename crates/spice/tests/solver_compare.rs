//! Sparse-vs-dense solver agreement: the dense LU is the reference oracle;
//! every analysis run through the sparse engine must reproduce it to
//! solver-roundoff accuracy (≤ 1e-9 max absolute voltage error).

use std::sync::Arc;

use fts_spice::analysis::TranConfig;
use fts_spice::netlist::{MosParams, Netlist, SolverKind, Waveform};
use fts_spice::{Simulator, SparseLu, Symbolic};
use proptest::prelude::*;

const TOL: f64 = 1e-9;

/// Max absolute node-voltage difference between dense and sparse operating
/// points; `None` when both failed identically.
fn compare_op(netlist: &Netlist) -> Option<f64> {
    let dense = Simulator::new(netlist).solver(SolverKind::Dense).op();
    let sparse = Simulator::new(netlist).solver(SolverKind::Sparse).op();
    match (dense, sparse) {
        (Ok(d), Ok(s)) => Some(
            d.unknowns()
                .iter()
                .zip(s.unknowns())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max),
        ),
        (Err(_), Err(_)) => None,
        (d, s) => panic!("solver disagreement: dense {d:?} vs sparse {s:?}"),
    }
}

fn switch_params() -> MosParams {
    MosParams {
        kp: 2.0e-5,
        vth: 0.3,
        lambda: 0.05,
        w_over_l: 2.0,
    }
}

/// A pass-transistor ladder with pull-ups and load caps — the same device
/// mix as the paper's four-terminal switching lattices.
fn pass_ladder(stages: usize) -> Netlist {
    let mut nl = Netlist::new();
    let vdd = nl.node("vdd");
    let gate = nl.node("gate");
    nl.vsource("VDD", vdd, Netlist::GROUND, Waveform::Dc(1.2))
        .unwrap();
    nl.vsource(
        "VG",
        gate,
        Netlist::GROUND,
        Waveform::Pulse {
            v0: 0.0,
            v1: 1.2,
            delay: 1e-9,
            rise: 1e-10,
            fall: 1e-10,
            width: 5e-9,
            period: 0.0,
        },
    )
    .unwrap();
    let mut prev = vdd;
    for k in 0..stages {
        let mid = nl.node(&format!("m{k}"));
        nl.nmos(&format!("M{k}"), prev, gate, mid, switch_params())
            .unwrap();
        nl.resistor(&format!("R{k}"), mid, Netlist::GROUND, 500.0e3)
            .unwrap();
        nl.capacitor(&format!("C{k}"), mid, Netlist::GROUND, 10.0e-15)
            .unwrap();
        prev = mid;
    }
    nl
}

#[test]
fn pass_ladder_op_agrees() {
    for stages in [2, 5, 9, 14] {
        let nl = pass_ladder(stages);
        let err = compare_op(&nl).expect("ladder op converges");
        assert!(err <= TOL, "{stages} stages: max |Δv| = {err:.3e}");
    }
}

#[test]
fn pass_ladder_transient_agrees() {
    let nl = pass_ladder(8);
    let cfg = TranConfig::fixed(0.1e-9, 8e-9);
    let dense = Simulator::new(&nl)
        .solver(SolverKind::Dense)
        .transient(&cfg)
        .unwrap();
    let sparse = Simulator::new(&nl)
        .solver(SolverKind::Sparse)
        .transient(&cfg)
        .unwrap();
    assert_eq!(dense.len(), sparse.len());
    let mut max_err = 0.0f64;
    for k in 0..dense.len() {
        for node in 0..8 {
            let id = nl.find_node(&format!("m{node}")).unwrap();
            max_err = max_err.max((dense.voltage_at(id, k) - sparse.voltage_at(id, k)).abs());
        }
    }
    assert!(max_err <= TOL, "max |Δv| over transient = {max_err:.3e}");
}

#[test]
fn auto_kind_picks_sparse_above_threshold_and_agrees() {
    // A 14-stage ladder has well over 24 unknowns, so Auto runs sparse;
    // its result must still match the forced-dense oracle.
    let nl = pass_ladder(14);
    let auto = Simulator::new(&nl).op().unwrap();
    let dense = Simulator::new(&nl).solver(SolverKind::Dense).op().unwrap();
    let err = auto
        .unknowns()
        .iter()
        .zip(dense.unknowns())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    assert!(err <= TOL, "max |Δv| = {err:.3e}");
}

#[test]
fn sparse_zero_pivot_branch_row_needs_permutation() {
    // Every voltage source contributes a structurally zero diagonal on its
    // branch row — the sparse LU must pivot off the diagonal.
    let mut nl = Netlist::new();
    let a = nl.node("a");
    let b = nl.node("b");
    nl.vsource("V1", a, Netlist::GROUND, Waveform::Dc(2.0))
        .unwrap();
    nl.vsource("V2", b, a, Waveform::Dc(0.5)).unwrap();
    nl.resistor("R1", b, Netlist::GROUND, 1.0e3).unwrap();
    nl.set_solver(SolverKind::Sparse);
    let r = Simulator::new(&nl).op().unwrap();
    assert!((r.voltage(a) - 2.0).abs() < 1e-12);
    assert!((r.voltage(b) - 2.5).abs() < 1e-12);
}

#[test]
fn singular_netlist_fails_on_both_engines() {
    // Two ideal voltage sources fighting over one node: duplicate branch
    // rows, structurally singular and inconsistent.
    let mut nl = Netlist::new();
    let a = nl.node("a");
    nl.vsource("V1", a, Netlist::GROUND, Waveform::Dc(1.0))
        .unwrap();
    nl.vsource("V2", a, Netlist::GROUND, Waveform::Dc(2.0))
        .unwrap();
    nl.resistor("R1", a, Netlist::GROUND, 1.0e3).unwrap();
    assert!(Simulator::new(&nl).solver(SolverKind::Dense).op().is_err());
    assert!(Simulator::new(&nl).solver(SolverKind::Sparse).op().is_err());
}

#[test]
fn memo_symbolic_reproduces_fresh_analysis() {
    // A sparse op leaves the ladder's pattern in the memo. A solve factored
    // on the memo's analysis must equal, bit for bit, one factored on an
    // analysis built directly from the same pattern.
    let nl = pass_ladder(10);
    Simulator::new(&nl).solver(SolverKind::Sparse).op().unwrap();
    let mut a = nl.mna_pattern();
    let n = a.n();
    for row in 0..n {
        for col in 0..n {
            if let Some(slot) = a.slot(row, col) {
                a.values_mut()[slot] = if row == col {
                    4.0 + row as f64
                } else {
                    -(((3 * row + 5 * col) % 7) as f64 + 1.0) / 8.0
                };
            }
        }
    }
    let b: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 / 3.0).collect();
    let solve = |symbolic| {
        let x = SparseLu::new(symbolic).factor_solve(&a, &b).unwrap();
        x.iter().map(|v| v.to_bits()).collect::<Vec<u64>>()
    };
    assert_eq!(
        solve(Symbolic::shared(&a)),
        solve(Arc::new(Symbolic::analyze(&a)))
    );
}

/// Description of one randomly generated device.
#[derive(Debug, Clone)]
enum Dev {
    Resistor { a: usize, b: usize, ohms: f64 },
    Capacitor { a: usize, farads: f64 },
    Nmos { d: usize, g: usize, s: usize },
}

fn build_random(nodes: usize, vin: f64, devs: &[Dev]) -> Netlist {
    let mut nl = Netlist::new();
    let ids: Vec<_> = (0..nodes).map(|k| nl.node(&format!("n{k}"))).collect();
    let node = |i: usize| {
        if i == 0 {
            Netlist::GROUND
        } else {
            ids[i % nodes]
        }
    };
    nl.vsource("VIN", ids[0], Netlist::GROUND, Waveform::Dc(vin))
        .unwrap();
    // A resistor chain guarantees every node a DC path to the source.
    for k in 1..nodes {
        nl.resistor(&format!("RCH{k}"), ids[k - 1], ids[k], 10.0e3)
            .unwrap();
    }
    for (i, dev) in devs.iter().enumerate() {
        match *dev {
            Dev::Resistor { a, b, ohms } => {
                nl.resistor(&format!("R{i}"), node(a), node(b), ohms)
                    .unwrap();
            }
            Dev::Capacitor { a, farads } => {
                nl.capacitor(&format!("C{i}"), node(a), Netlist::GROUND, farads)
                    .unwrap();
            }
            Dev::Nmos { d, g, s } => {
                nl.nmos(&format!("M{i}"), node(d), node(g), node(s), switch_params())
                    .unwrap();
            }
        }
    }
    nl
}

fn arb_dev(nodes: usize) -> impl Strategy<Value = Dev> {
    prop_oneof![
        (0..nodes, 0..nodes, 1.0e2..1.0e6f64).prop_map(|(a, b, ohms)| Dev::Resistor { a, b, ohms }),
        (1..nodes, 1.0e-15..1.0e-12f64).prop_map(|(a, farads)| Dev::Capacitor { a, farads }),
        (0..nodes, 0..nodes, 0..nodes).prop_map(|(d, g, s)| Dev::Nmos { d, g, s }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random RLC+MOSFET netlists: the sparse operating point matches the
    /// dense oracle within 1e-9 on every unknown.
    #[test]
    fn random_netlist_op_agrees(
        nodes in 3usize..9,
        vin in 0.0..2.0f64,
        devs in prop::collection::vec(arb_dev(8), 1..12),
    ) {
        let nl = build_random(nodes, vin, &devs);
        if let Some(err) = compare_op(&nl) {
            prop_assert!(err <= TOL, "max |Δv| = {err:.3e}");
        }
    }

    /// Random netlists under transient: every sample of every unknown from
    /// the sparse engine matches the dense oracle within 1e-9.
    #[test]
    fn random_netlist_transient_agrees(
        nodes in 3usize..7,
        devs in prop::collection::vec(arb_dev(6), 1..8),
    ) {
        let nl = build_random(nodes, 1.2, &devs);
        let cfg = TranConfig::fixed(0.5e-9, 10e-9);
        let dense = Simulator::new(&nl).solver(SolverKind::Dense).transient(&cfg);
        let sparse = Simulator::new(&nl).solver(SolverKind::Sparse).transient(&cfg);
        match (dense, sparse) {
            (Ok(d), Ok(s)) => {
                prop_assert_eq!(d.len(), s.len());
                for k in 0..d.len() {
                    for i in 0..nodes {
                        let id = nl.find_node(&format!("n{i}")).unwrap();
                        let err = (d.voltage_at(id, k) - s.voltage_at(id, k)).abs();
                        prop_assert!(err <= TOL, "t[{}] node n{}: |Δv| = {:.3e}", k, i, err);
                    }
                }
            }
            (Err(_), Err(_)) => {}
            (d, s) => prop_assert!(false, "solver disagreement: dense ok={} sparse ok={}", d.is_ok(), s.is_ok()),
        }
    }
}
