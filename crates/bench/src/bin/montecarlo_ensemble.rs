//! Lockstep-ensemble Monte Carlo benchmark: the XOR3 yield analysis run
//! scalar-sequential and ensemble-sequential *in the same process*, with
//! three correctness gates and a throughput comparison, written to
//! `BENCH_montecarlo_ensemble.json` together with the run's phase times.
//! That record is the only file written there: `--telemetry` adds the
//! telemetry report and trace, not a second summary.
//!
//! Usage: `montecarlo_ensemble [--trials N] [--seed S] [--width K]
//! [--defect-prob P] [--out PATH] [--telemetry <path.json>]`
//!
//! Gates (any failure exits non-zero):
//!
//! 1. **Twin agreement** — every ensemble-lane trial is re-solved through
//!    the scalar simulator at every input assignment; the worst absolute
//!    voltage deviation must stay ≤ 1e-9 V.
//! 2. **Report agreement** — the ensemble [`YieldReport`] must match the
//!    scalar run's exactly on every count and within 1e-9 V on every
//!    voltage statistic.
//! 3. **Bit reproducibility** — re-running the ensemble configuration
//!    (sequentially and on all cores) must reproduce the report
//!    bit-for-bit.
//!
//! The measured speedup is recorded, never gated: a loaded or 1-core CI
//! machine must not fail the build over throughput.

use std::time::Instant;

use fts_bench::telemetry;
use fts_circuit::experiments::xor3_lattice;
use fts_circuit::lattice_netlist::{BenchConfig, LatticeCircuit};
use fts_circuit::model::SwitchCircuitModel;
use fts_lattice::defects::inject_all;
use fts_montecarlo::rng::trial_rng;
use fts_montecarlo::{MonteCarlo, VariationModel, YieldReport};
use fts_spice::{LaneOutcome, OpEnsemble, OpOptions, Waveform};

const TOLERANCE: f64 = 1e-9;

struct Args {
    trials: u64,
    seed: u64,
    width: usize,
    defect_prob: f64,
    out: String,
}

fn parse_args(argv: Vec<String>) -> Args {
    let mut args = Args {
        trials: 256,
        seed: 0xD1CE,
        width: 16,
        defect_prob: 0.01,
        out: "BENCH_montecarlo_ensemble.json".to_owned(),
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match flag.as_str() {
            "--trials" => args.trials = value("--trials").parse().expect("--trials: integer"),
            "--seed" => args.seed = value("--seed").parse().expect("--seed: integer"),
            "--width" => args.width = value("--width").parse().expect("--width: integer"),
            "--defect-prob" => {
                args.defect_prob = value("--defect-prob")
                    .parse()
                    .expect("--defect-prob: float")
            }
            "--out" => args.out = value("--out"),
            other => panic!("unknown flag {other}"),
        }
    }
    assert!(args.width >= 1, "--width must be at least 1");
    args
}

/// Worst absolute difference between two reports' voltage statistics.
fn report_stat_deviation(a: &YieldReport, b: &YieldReport) -> f64 {
    [
        (a.v_ol.mean, b.v_ol.mean),
        (a.v_ol.std_dev, b.v_ol.std_dev),
        (a.v_ol.min, b.v_ol.min),
        (a.v_ol.max, b.v_ol.max),
        (a.v_oh.mean, b.v_oh.mean),
        (a.v_oh.std_dev, b.v_oh.std_dev),
        (a.v_oh.min, b.v_oh.min),
        (a.v_oh.max, b.v_oh.max),
    ]
    .iter()
    .map(|&(x, y)| (x - y).abs())
    .fold(0.0, f64::max)
}

fn report_counts_equal(a: &YieldReport, b: &YieldReport) -> bool {
    a.evaluated == b.evaluated
        && a.sim_failures == b.sim_failures
        && a.failure_causes == b.failure_causes
        && a.functional_pass == b.functional_pass
        && a.parametric_pass == b.parametric_pass
        && a.logical_fail == b.logical_fail
        && a.defects_injected == b.defects_injected
        && a.site_criticality == b.site_criticality
        && a.v_ol.n == b.v_ol.n
        && a.v_oh.n == b.v_oh.n
}

/// Per-trial twin check: rebuild every trial exactly as the Monte Carlo
/// engine samples it, push same-topology trials into a lockstep ensemble,
/// and compare each lane's solution against the scalar simulator at every
/// input assignment. Returns `(lane_trials, fallback_trials,
/// max_deviation)`.
fn twin_check(
    args: &Args,
    variation: &VariationModel,
    nominal: &SwitchCircuitModel,
) -> Result<(u64, u64, f64), Box<dyn std::error::Error>> {
    let lat = xor3_lattice();
    let bench = BenchConfig::default();
    let reference = LatticeCircuit::build(&lat, 3, nominal, bench)?;
    let out = reference.out();
    let mut ensemble = OpEnsemble::new(reference.netlist());
    let opts = OpOptions::full();

    let mut lane_trials = 0u64;
    let mut fallback_trials = 0u64;
    let mut max_dev = 0.0f64;
    let mut trial = 0u64;
    while trial < args.trials {
        let chunk_end = (trial + args.width as u64).min(args.trials);
        ensemble.clear();
        // (trial circuit, lane index) for admitted lanes only; fallback
        // trials take the scalar path in both runs and are trivially equal.
        let mut lanes: Vec<LatticeCircuit> = Vec::new();
        for t in trial..chunk_end {
            let mut rng = trial_rng(args.seed, t);
            let defects = variation.sample_defects(&lat, &mut rng);
            let faulty = inject_all(&lat, &defects)?;
            let base = variation.sample_base_model(nominal, &mut rng)?;
            let site_models = variation.sample_site_models(&base, &lat, &mut rng);
            let cols = lat.cols();
            let ckt =
                LatticeCircuit::build_with(&faulty, 3, bench, |(r, c)| site_models[r * cols + c])?;
            match ensemble.try_push(ckt.netlist().clone()) {
                Ok(_) => {
                    lane_trials += 1;
                    lanes.push(ckt);
                }
                Err(_) => fallback_trials += 1,
            }
        }
        for step in 0..8u32 {
            // Same Gray-code sweep order as the engine's chunk path, so
            // the twin exercises the exact warm-start trajectory the
            // Monte Carlo run uses.
            let x = step ^ (step >> 1);
            for lane in 0..ensemble.len() {
                let nl = ensemble.lane_mut(lane);
                for var in 0..3usize {
                    let bit = (x >> var) & 1 == 1;
                    let vdd = bench.vdd;
                    nl.set_vsource(
                        &format!("VIN{var}"),
                        Waveform::Dc(if bit { vdd } else { 0.0 }),
                    )?;
                    nl.set_vsource(
                        &format!("VIN{var}N"),
                        Waveform::Dc(if bit { 0.0 } else { vdd }),
                    )?;
                }
            }
            for (lane, outcome) in ensemble.solve_op(&opts).into_iter().enumerate() {
                let scalar = lanes[lane].dc_output(x)?;
                match outcome {
                    LaneOutcome::Solved(op) | LaneOutcome::Fallback(op) => {
                        max_dev = max_dev.max((op.voltage(out) - scalar).abs());
                    }
                    LaneOutcome::Failed(e) => {
                        // The scalar twin solved what the ensemble could
                        // not even via its own fallback: a real divergence.
                        eprintln!("lane {lane} failed at assignment {x}: {e}");
                        max_dev = f64::INFINITY;
                    }
                }
            }
        }
        trial = chunk_end;
    }
    Ok((lane_trials, fallback_trials, max_dev))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let mut tel = telemetry::from_args("montecarlo_ensemble", &mut argv);
    let args = parse_args(argv);
    let counters_here = telemetry::ensure_counters(&tel);

    let nominal = SwitchCircuitModel::square_hfo2()?;
    let lat = xor3_lattice();
    let variation = VariationModel::standard().with_defect_prob(args.defect_prob);
    let mc = MonteCarlo::new(args.trials, args.seed).variation(variation);
    let cores = fts_montecarlo::executor::auto_threads();
    println!(
        "montecarlo ensemble: {} XOR3 DC trials, seed {:#x}, width {}, defect prob {}, {} core(s)",
        args.trials, args.seed, args.width, args.defect_prob, cores
    );
    tel.phase_done("build");

    // Scalar sequential baseline and ensemble runs, same process, same
    // inputs.
    let t0 = Instant::now();
    let scalar = mc.threads(1).ensemble_width(1).run(&lat, 3, &nominal)?;
    let scalar_s = t0.elapsed().as_secs_f64();
    tel.phase_done("scalar_sequential");

    let ens_mc = mc.threads(1).ensemble_width(args.width);
    let t0 = Instant::now();
    let ensemble = ens_mc.run(&lat, 3, &nominal)?;
    let ens_s = t0.elapsed().as_secs_f64();
    tel.phase_done("ensemble_sequential");

    let t0 = Instant::now();
    let parallel = mc
        .threads(0)
        .ensemble_width(args.width)
        .run(&lat, 3, &nominal)?;
    let par_s = t0.elapsed().as_secs_f64();
    tel.phase_done("ensemble_parallel");

    // Gate 3: bit reproducibility (sequential rerun and thread invariance).
    let rerun = ens_mc.run(&lat, 3, &nominal)?;
    let repro_ok = rerun == ensemble && parallel == ensemble;
    tel.phase_done("reproducibility");

    // Gate 2: report agreement against the scalar baseline.
    let counts_equal = report_counts_equal(&ensemble, &scalar);
    let stat_dev = report_stat_deviation(&ensemble, &scalar);
    let agreement_ok = counts_equal && stat_dev <= TOLERANCE;

    // Gate 1: per-trial twin agreement.
    let (lane_trials, fallback_trials, twin_dev) = twin_check(&args, &variation, &nominal)?;
    let twin_ok = twin_dev <= TOLERANCE;
    tel.phase_done("twin_check");

    let scalar_tps = args.trials as f64 / scalar_s;
    let ens_tps = args.trials as f64 / ens_s;
    let par_tps = args.trials as f64 / par_s;
    let speedup = ens_tps / scalar_tps;

    let snap = fts_telemetry::snapshot();
    let lane_util = snap
        .histogram("spice.ensemble.lane_utilization")
        .map_or(0.0, |h| h.summary.mean);

    println!("  scalar sequential   : {scalar_s:.3} s ({scalar_tps:.1} trials/s)");
    println!("  ensemble sequential : {ens_s:.3} s ({ens_tps:.1} trials/s, {speedup:.2}x scalar)");
    println!(
        "  ensemble parallel   : {par_s:.3} s ({par_tps:.1} trials/s, {} core(s))",
        cores
    );
    println!(
        "  twin check          : {lane_trials} lane trials, {fallback_trials} scalar fallbacks, \
         max |dV| {twin_dev:.3e} V (tolerance {TOLERANCE:.0e})"
    );
    println!("  report agreement    : counts_equal {counts_equal}, max stat |dV| {stat_dev:.3e} V");
    println!("  bit reproducible    : {repro_ok}");
    println!(
        "  ensemble telemetry  : {} lanes, {} lockstep iterations, {} scalar fallbacks, \
         {} factors, {} solves, mean lane utilization {:.3}",
        snap.counter("spice.ensemble.lanes"),
        snap.counter("spice.ensemble.lockstep_iterations"),
        snap.counter("spice.ensemble.scalar_fallback"),
        snap.counter("spice.ensemble.factor"),
        snap.counter("spice.ensemble.solve"),
        lane_util,
    );

    let json = format!(
        concat!(
            "{{\"schema\":\"fts-mc-ensemble-bench/1\",\"experiment\":\"montecarlo_ensemble\",",
            "\"lattice\":\"xor3\",\"trials\":{},\"master_seed\":{},\"ensemble_width\":{},",
            "\"defect_prob\":{},\"cores\":{},",
            "\"scalar_sequential_wall_s\":{},\"ensemble_sequential_wall_s\":{},",
            "\"ensemble_parallel_wall_s\":{},",
            "\"scalar_trials_per_s\":{},\"ensemble_trials_per_s\":{},",
            "\"ensemble_parallel_trials_per_s\":{},\"speedup\":{},\"speedup_target\":5.0,",
            "\"twin\":{{\"lane_trials\":{},\"fallback_trials\":{},\"max_deviation_v\":{},",
            "\"tolerance_v\":{},\"ok\":{}}},",
            "\"agreement\":{{\"counts_equal\":{},\"max_stat_deviation_v\":{},\"ok\":{}}},",
            "\"bit_reproducible\":{},",
            "\"ensemble_telemetry\":{{\"lanes\":{},\"lockstep_iterations\":{},",
            "\"scalar_fallback\":{},\"factors\":{},\"solves\":{},\"lane_utilization_mean\":{}}},",
            "\"phases\":{}}}"
        ),
        args.trials,
        args.seed,
        args.width,
        args.defect_prob,
        cores,
        scalar_s,
        ens_s,
        par_s,
        scalar_tps,
        ens_tps,
        par_tps,
        speedup,
        lane_trials,
        fallback_trials,
        twin_dev,
        TOLERANCE,
        twin_ok,
        counts_equal,
        stat_dev,
        agreement_ok,
        repro_ok,
        snap.counter("spice.ensemble.lanes"),
        snap.counter("spice.ensemble.lockstep_iterations"),
        snap.counter("spice.ensemble.scalar_fallback"),
        snap.counter("spice.ensemble.factor"),
        snap.counter("spice.ensemble.solve"),
        lane_util,
        tel.phases_json(),
    );
    std::fs::write(&args.out, &json)?;
    println!("\nwrote {}:\n{json}", args.out);
    tel.finish_report()?;
    telemetry::solver_stats_done(counters_here);

    if !twin_ok {
        eprintln!("TWIN VIOLATION: ensemble deviates from its scalar twin by {twin_dev:.3e} V");
    }
    if !agreement_ok {
        eprintln!("AGREEMENT VIOLATION: ensemble report deviates from scalar (counts_equal {counts_equal}, stat dev {stat_dev:.3e} V)");
    }
    if !repro_ok {
        eprintln!("DETERMINISM VIOLATION: ensemble rerun or parallel run differs");
    }
    if !(twin_ok && agreement_ok && repro_ok) {
        std::process::exit(1);
    }
    Ok(())
}
