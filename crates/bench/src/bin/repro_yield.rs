//! Monte Carlo yield analysis of the paper's XOR3 lattice: functional and
//! parametric yield under process variation and crosspoint defects, with
//! sequential-vs-parallel throughput and a machine-readable JSON summary.
//!
//! Usage: `repro_yield [--trials N] [--seed S] [--defect-prob P]
//! [--ensemble-width K] [--json] [--telemetry <path.json>]`
//!
//! `--json` suppresses the human-readable report and prints only the JSON
//! object (one line, stable key order). `--telemetry` additionally writes
//! the solver/engine telemetry report, a Chrome trace, and the
//! `BENCH_repro_yield.json` benchmark summary.

use std::time::Instant;

use fts_bench::telemetry;
use fts_circuit::experiments::xor3_lattice;
use fts_circuit::model::SwitchCircuitModel;
use fts_montecarlo::{EvalMode, MonteCarlo, SummaryStats, VariationModel, YieldReport};

struct Args {
    trials: u64,
    seed: u64,
    defect_prob: f64,
    ensemble_width: usize,
    json_only: bool,
}

fn parse_args(argv: Vec<String>) -> Args {
    let mut args = Args {
        trials: 512,
        seed: 0xD1CE,
        defect_prob: 0.01,
        ensemble_width: 16,
        json_only: false,
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match flag.as_str() {
            "--trials" => args.trials = value("--trials").parse().expect("--trials: integer"),
            "--seed" => args.seed = value("--seed").parse().expect("--seed: integer"),
            "--defect-prob" => {
                args.defect_prob = value("--defect-prob")
                    .parse()
                    .expect("--defect-prob: float")
            }
            "--ensemble-width" => {
                args.ensemble_width = value("--ensemble-width")
                    .parse()
                    .expect("--ensemble-width: integer")
            }
            "--json" => args.json_only = true,
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

fn json_stats(s: &SummaryStats) -> String {
    format!(
        "{{\"n\":{},\"mean\":{},\"std_dev\":{},\"min\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
        s.n, s.mean, s.std_dev, s.min, s.max, s.p50, s.p95, s.p99
    )
}

fn json_summary(
    r: &YieldReport,
    seq_tps: f64,
    par_tps: f64,
    threads: usize,
    ensemble_json: &str,
    phases_json: &str,
    solver_json: &str,
) -> String {
    let crit: Vec<String> = r.site_criticality.iter().map(u64::to_string).collect();
    // Criticality map summary: the most failure-implicated sites, best
    // first, as (row-major index, coincidence count) pairs.
    let top: Vec<String> = r
        .critical_sites()
        .iter()
        .take(5)
        .map(|(i, n)| format!("[{i},{n}]"))
        .collect();
    let causes = &r.failure_causes;
    format!(
        concat!(
            "{{\"experiment\":\"xor3_yield\",\"trials\":{},\"master_seed\":{},",
            "\"ensemble\":{},",
            "\"evaluated\":{},\"sim_failures\":{},",
            "\"sim_failure_causes\":{{\"no_convergence\":{},\"singular_matrix\":{},",
            "\"build\":{},\"other\":{}}},\"functional_pass\":{},",
            "\"parametric_pass\":{},\"logical_fail\":{},\"defects_injected\":{},",
            "\"functional_yield\":{},\"parametric_yield\":{},",
            "\"v_ol\":{},\"v_oh\":{},\"rise_s\":{},\"fall_s\":{},",
            "\"site_criticality\":[{}],\"critical_sites\":[{}],",
            "\"solver\":{},\"phases\":{},",
            "\"throughput\":{{\"sequential_trials_per_s\":{},\"parallel_trials_per_s\":{},",
            "\"threads\":{},\"speedup\":{}}}}}"
        ),
        r.trials,
        r.master_seed,
        ensemble_json,
        r.evaluated,
        r.sim_failures,
        causes.no_convergence,
        causes.singular_matrix,
        causes.build,
        causes.other,
        r.functional_pass,
        r.parametric_pass,
        r.logical_fail,
        r.defects_injected,
        r.functional_yield(),
        r.parametric_yield(),
        json_stats(&r.v_ol),
        json_stats(&r.v_oh),
        json_stats(&r.rise_s),
        json_stats(&r.fall_s),
        crit.join(","),
        top.join(","),
        solver_json,
        phases_json,
        seq_tps,
        par_tps,
        threads,
        par_tps / seq_tps,
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let mut tel = telemetry::from_args("repro_yield", &mut argv);
    let args = parse_args(argv);
    // Solver statistics ride on the telemetry counters; keep collection on
    // even without --telemetry so the JSON summary can report factor
    // counts and the symbolic reuse rate.
    let counters_here = telemetry::ensure_counters(&tel);

    let nominal = SwitchCircuitModel::square_hfo2()?;
    let lat = xor3_lattice();
    let mc = MonteCarlo::new(args.trials, args.seed)
        .variation(VariationModel::standard().with_defect_prob(args.defect_prob))
        .eval(EvalMode::Dc)
        .ensemble_width(args.ensemble_width);
    tel.phase_done("build");

    let t0 = Instant::now();
    let sequential = mc.threads(1).run(&lat, 3, &nominal)?;
    let seq_s = t0.elapsed().as_secs_f64();
    tel.phase_done("sequential");

    let threads = fts_montecarlo::executor::auto_threads();
    let t0 = Instant::now();
    let report = mc.threads(0).run(&lat, 3, &nominal)?;
    let par_s = t0.elapsed().as_secs_f64();
    tel.phase_done("parallel");

    if report != sequential {
        eprintln!(
            "DETERMINISM VIOLATION: parallel ensemble differs from sequential \
             (trials {}, seed {:#x}, {threads} threads)",
            args.trials, args.seed
        );
        std::process::exit(1);
    }

    let seq_tps = args.trials as f64 / seq_s;
    let par_tps = args.trials as f64 / par_s;
    let solver_json = telemetry::solver_stats_json();
    let snap = fts_telemetry::snapshot();
    let ens_lanes = snap.counter("spice.ensemble.lanes");
    let ens_iters = snap.counter("spice.ensemble.lockstep_iterations");
    let ens_fallbacks = snap.counter("spice.ensemble.scalar_fallback");
    let ensemble_json = format!(
        "{{\"width\":{},\"lanes\":{ens_lanes},\"lockstep_iterations\":{ens_iters},\"scalar_fallback\":{ens_fallbacks}}}",
        args.ensemble_width
    );

    if !args.json_only {
        println!(
            "XOR3 yield analysis: {} trials, seed {:#x}, defect prob {}, DC evaluation\n",
            args.trials, args.seed, args.defect_prob
        );
        println!("  evaluated        : {}", report.evaluated);
        println!("  sim failures     : {}", report.sim_failures);
        let c = &report.failure_causes;
        if report.sim_failures > 0 {
            println!(
                "    by cause       : no_convergence {}, singular {}, build {}, other {}",
                c.no_convergence, c.singular_matrix, c.build, c.other
            );
        }
        println!("  functional yield : {:.4}", report.functional_yield());
        println!("  parametric yield : {:.4}", report.parametric_yield());
        println!("  logical failures : {}", report.logical_fail);
        println!("  defects injected : {}", report.defects_injected);
        println!(
            "  V_OL             : mean {:.4} V, sigma {:.4} V, p95 {:.4} V  [nominal ~0.22 V]",
            report.v_ol.mean, report.v_ol.std_dev, report.v_ol.p95
        );
        println!(
            "  V_OH             : mean {:.4} V, sigma {:.4} V, min {:.4} V",
            report.v_oh.mean, report.v_oh.std_dev, report.v_oh.min
        );
        println!("\n  fault criticality (row-major failure coincidences):");
        for r in 0..3 {
            let row: Vec<String> = (0..3)
                .map(|c| format!("{:>6}", report.site_criticality[r * 3 + c]))
                .collect();
            println!("    {}", row.join(" "));
        }
        let top = report.critical_sites();
        if !top.is_empty() {
            let list: Vec<String> = top
                .iter()
                .take(5)
                .map(|(i, n)| format!("({},{})x{n}", i / 3, i % 3))
                .collect();
            println!("    most critical  : {}", list.join(" "));
        }
        println!(
            "\n  throughput       : sequential {seq_tps:.1} trials/s, parallel {par_tps:.1} trials/s ({threads} threads, {:.2}x)",
            par_tps / seq_tps
        );
        if ens_lanes > 0 {
            println!(
                "  ensemble solver  : width {}, {} lanes, {} lockstep iterations, {} scalar fallbacks",
                args.ensemble_width, ens_lanes, ens_iters, ens_fallbacks
            );
        }
        let sym_new = snap.counter("spice.sparse.symbolic_new");
        let sym_reuse = snap.counter("spice.sparse.symbolic_reuse");
        let sym_miss = snap.counter("spice.sparse.symbolic_miss");
        println!(
            "  sparse solver    : {} factors, {} solves; symbolic analyses {} ({} reuses, {} pattern misses)",
            snap.counter("spice.sparse.factor"),
            snap.counter("spice.sparse.solve"),
            sym_new + sym_miss,
            sym_reuse,
            sym_miss,
        );
        println!("\nJSON summary:");
    }
    println!(
        "{}",
        json_summary(
            &report,
            seq_tps,
            par_tps,
            threads,
            &ensemble_json,
            &tel.phases_json(),
            &solver_json
        )
    );
    tel.finish()?;
    telemetry::solver_stats_done(counters_here);
    Ok(())
}
