//! The example SPICE decks under `examples/decks/` and the promises the
//! deck frontend makes about them: the XOR3 deck *is* the Fig. 11
//! builder-constructed job (byte-identical results), and `fts run` /
//! `POST /v1/decks` report the same bytes for the same deck.

use std::process::{Command, Stdio};

use four_terminal_lattice::batch::{
    outcome_json, AnalysisSpec, JobSource, JobSpec, PipelineJobBuilder,
};
use four_terminal_lattice::engine::{CacheMode, Engine, DEFAULT_MAX_SAMPLES};
use four_terminal_lattice::netlist::{self, ElabOptions};
use four_terminal_lattice::server::service::JobBuilder as _;
use four_terminal_lattice::spice::analysis::OpResult;
use four_terminal_lattice::spice::{
    Netlist, OpEnsemble, OpOptions, Simulator, SolverKind, TranConfig, Waveform,
};

fn deck_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/decks")
        .join(name)
}

fn elaborate(text: &str) -> netlist::Elaborated {
    let deck = netlist::parse_str(text).expect("deck parses");
    netlist::elaborate(&deck, &ElabOptions::default()).expect("deck elaborates")
}

/// The Fig. 11 experiment as the batch/server builder constructs it: the
/// synthesized XOR3 lattice in its §V bench, driven through the full
/// 8-combination input walk (manifest-default timing).
fn fig11_builder_job() -> four_terminal_lattice::server::service::BuiltJob {
    let spec = JobSpec {
        source: JobSource::Function {
            name: "xor3".to_owned(),
            analysis: AnalysisSpec::Transient {
                phase_ns: 6.0,
                dt_ns: 0.1,
                max_samples: DEFAULT_MAX_SAMPLES,
            },
        },
        deadline_ms: None,
        ladder: false,
        label: None,
        waveform: false,
        cache: CacheMode::Default,
    };
    PipelineJobBuilder::new().build(&spec, 0).expect("builder")
}

/// `examples/decks/xor3_lattice.cir` is the exported form of the builder
/// job — and stays it. Regenerate with `UPDATE_DECKS=1 cargo test`.
#[test]
fn xor3_deck_is_the_exported_fig11_job() {
    let built = fig11_builder_job();
    let text = netlist::export_job(&built.job, built.out).expect("deck-expressible");
    let path = deck_path("xor3_lattice.cir");
    if std::env::var_os("UPDATE_DECKS").is_some() {
        std::fs::write(&path, &text).expect("write deck");
    }
    let committed = std::fs::read_to_string(&path).expect("committed deck");
    assert_eq!(
        committed, text,
        "examples/decks/xor3_lattice.cir is stale; rerun with UPDATE_DECKS=1"
    );
}

/// Elaborating the committed XOR3 deck reproduces the builder job's
/// results byte-for-byte — waveform arrays included.
#[test]
fn xor3_deck_results_match_the_builder_job_bytes() {
    let built = fig11_builder_job();
    let committed = std::fs::read_to_string(deck_path("xor3_lattice.cir")).expect("deck");
    let elab = elaborate(&committed);
    assert_eq!(elab.jobs.len(), 1, "one .tran card");
    assert_eq!(elab.out.index(), built.out.index(), "same report node");

    let mut jobs = vec![built.job, elab.jobs[0].clone()];
    // Identical inputs must stay identical through scheduling: run on one
    // thread so both jobs see the same solver, then compare full results.
    jobs[1].label = jobs[0].label.clone();
    let report = Engine::new().threads(1).run(jobs);
    let from_builder = outcome_json(&report.outcomes[0], built.out, true);
    let from_deck = outcome_json(&report.outcomes[1], elab.out, true);
    assert_eq!(from_builder, from_deck, "deck and builder results diverge");
    assert!(
        from_builder.contains("\"kind\":\"transient\""),
        "{from_builder}"
    );
}

/// The RC deck parses, runs both its analyses, and settles to the step
/// level (5 V across 8 ms ≈ 8 time constants).
#[test]
fn rc_step_deck_runs_and_settles() {
    let committed = std::fs::read_to_string(deck_path("rc_step.cir")).expect("deck");
    let elab = elaborate(&committed);
    assert_eq!(elab.jobs.len(), 2, "an .op and a .tran");
    assert_eq!(elab.jobs[0].label, "op-0");
    assert_eq!(elab.jobs[1].label, "tran-1");
    let report = Engine::new().threads(1).run(elab.jobs);
    assert_eq!(report.succeeded(), 2);
    let tran = outcome_json(&report.outcomes[1], elab.out, true);
    let peak: f64 = tran
        .split("\"out_peak_v\":")
        .nth(1)
        .and_then(|s| s.split(&[',', '}'][..]).next())
        .and_then(|s| s.parse().ok())
        .expect("peak in {tran}");
    assert!((peak - 5.0).abs() < 0.05, "expected ~5 V, got {peak}");
}

fn fts() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fts"))
}

/// One-request HTTP client on the crate's own
/// [`WireClient`](four_terminal_lattice::server::WireClient).
fn http(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    let response = four_terminal_lattice::server::WireClient::new(addr)
        .call(method, path, Some(body))
        .expect("call");
    (response.status, response.body)
}

/// `fts run deck.cir` and `POST /v1/decks` with the same deck report the
/// same result bytes — the CLI and the HTTP service cannot drift.
#[test]
fn run_and_serve_report_identical_results_for_the_same_deck() {
    use std::io::{BufRead, BufReader};

    let path = deck_path("xor3_lattice.cir");
    let deck = std::fs::read_to_string(&path).expect("deck");

    // The CLI path, pinned to one thread like the server's solve below.
    let out = fts()
        .args(["run", path.to_str().unwrap(), "--threads", "1"])
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let run_report = String::from_utf8_lossy(&out.stdout).to_string();
    let result_start = run_report.find("\"result\":").expect("run result");
    let result_end = run_report[result_start..].find("}}").unwrap() + result_start + 1;
    let run_result = &run_report[result_start..result_end];
    assert!(run_report.contains("\"label\":\"tran-0\""), "{run_report}");

    // The server path: POST the raw deck, poll the job to done.
    let mut child = fts()
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let stdout = child.stdout.take().expect("stdout");
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).expect("banner");
    let addr = line
        .trim()
        .strip_prefix("fts-server listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {line:?}"))
        .to_owned();

    let (status, body) = http(&addr, "POST", "/v1/decks", &deck);
    assert_eq!(status, 202, "{body}");
    assert!(body.contains("\"ids\":[0]"), "{body}");
    let served = loop {
        let (status, body) = http(&addr, "GET", "/v1/jobs/0", "");
        assert_eq!(status, 200, "{body}");
        if body.contains("\"status\":\"done\"") {
            break body;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    };
    let (status, _) = http(&addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    assert!(child
        .wait_with_output()
        .expect("server exit")
        .status
        .success());

    assert!(served.contains("\"label\":\"tran-0\""), "{served}");
    assert!(
        served.contains(run_result),
        "served result differs from `fts run`:\n  run:   {run_result}\n  serve: {served}"
    );
}

// ---------------------------------------------------------------------------
// Bit-exact solver golden on the committed XOR3 deck.
//
// The deck's results on every solver path a lattice circuit takes —
// scalar sparse and dense ops, the lockstep ensemble, fixed and adaptive
// transients (capacitor companions) and AC — pinned by digests of
// `f64::to_bits`: any rounding-level change in a MOSFET lattice's results
// trips these, where the 1e-9 comparisons elsewhere would not. No libm
// result (a `log_sweep` frequency, a phasor's magnitude or phase) is
// digested, so the digests do not hang on the platform's math library.
// To regenerate after an *intentional* numerical change:
//
//     cargo test -p four-terminal-lattice --test decks -- --ignored --nocapture
//
// and paste the printed table over the `XOR3_*` constants.
// ---------------------------------------------------------------------------

/// Scalar sparse op (the deck's 38 unknowns are past the `Auto` cutover)
/// at input assignments 0..8: unknowns and convergence report.
const XOR3_OP_SPARSE: [u64; 8] = [
    0x8196f25d300f43ef,
    0xe3d2b277a7bf6a5a,
    0xc0882c297ec8da37,
    0xcb4bd14b6a102283,
    0x24d8fb8f7632239d,
    0x93aff88855e48f87,
    0x35aedcb261389f6a,
    0x25f252839c6c5c33,
];
/// The same eight ops forced through `SolverKind::Dense`.
const XOR3_OP_DENSE: [u64; 8] = [
    0x77a68f592f3441f5,
    0x61adf765418f611d,
    0x04325431cfc4a9bc,
    0x84b6358931aa2600,
    0x838487351f69d03b,
    0x37634182aa01c966,
    0x9b9140eebede5bc5,
    0xc14e68cba27a30bc,
];
/// One 8-lane `OpEnsemble` solve over the eight assignments, per lane.
const XOR3_OP_ENSEMBLE: [u64; 8] = [
    0xbf42c3951dd946ac,
    0x0070b4aa68181162,
    0xecbc16141c762f68,
    0x0cf0ad2b2dbfe9b3,
    0xf2ac6d9ac746506b,
    0xb2792d39aef0b28b,
    0xef1475654ed2c869,
    0xb3ec94a19626023f,
];
/// The deck's fixed-step `.tran` (capacitor companions): every sample's
/// time and node voltages.
const XOR3_TRAN_FIXED: u64 = 0x59061acbd1eaed9c;
/// The deck's circuit under adaptive stepping to the same stop time.
const XOR3_TRAN_ADAPTIVE: u64 = 0xdf4579a405ae361c;
/// AC phasor (real and imaginary parts) at `top` over `XOR3_AC_FREQS`,
/// driven from `vin0` at assignment 1, where `in0` is high and its
/// switches' gm carries the stimulus to the output.
const XOR3_AC: u64 = 0x456cb501b36de327;

const XOR3_AC_FREQS: [f64; 8] = [1.0e3, 1.0e4, 1.0e5, 1.0e6, 1.0e7, 1.0e8, 1.0e9, 1.0e10];

/// FNV-1a over the bit patterns of `values`.
fn bits_digest(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn op_digest(op: &OpResult) -> u64 {
    let c = op.convergence();
    bits_digest(op.unknowns().iter().copied().chain([
        c.newton_iterations as f64,
        c.solves as f64,
        c.final_residual,
    ]))
}

/// The committed XOR3 deck's circuit and its `.tran` configuration.
fn xor3_deck() -> (Netlist, TranConfig) {
    let committed = std::fs::read_to_string(deck_path("xor3_lattice.cir")).expect("deck");
    let elab = elaborate(&committed);
    let four_terminal_lattice::engine::Analysis::Transient { config, .. } = elab.jobs[0].analysis
    else {
        panic!("the XOR3 deck's analysis is a .tran");
    };
    (elab.netlist, config)
}

/// The deck's circuit with the six input drivers held at assignment `k`:
/// bit `i` of `k` drives `in<i>` high and `in<i>n` low.
fn xor3_at(netlist: &Netlist, k: usize) -> Netlist {
    let mut nl = netlist.clone();
    for i in 0..3 {
        let high = (k >> i) & 1 == 1;
        let (v, vn) = if high { (1.2, 0.0) } else { (0.0, 1.2) };
        nl.set_vsource(&format!("vin{i}"), Waveform::Dc(v)).unwrap();
        nl.set_vsource(&format!("vin{i}n"), Waveform::Dc(vn))
            .unwrap();
    }
    nl
}

fn tran_digest(nl: &Netlist, cfg: &TranConfig) -> u64 {
    let tr = Simulator::new(nl).transient(cfg).expect("transient");
    let nodes: Vec<_> = (1..nl.node_count()).map(|i| nl.node_id(i)).collect();
    bits_digest(
        tr.time.iter().copied().chain(
            (0..tr.len())
                .flat_map(|k| nodes.iter().map(move |&n| (n, k)))
                .map(|(n, k)| tr.voltage_at(n, k)),
        ),
    )
}

/// Every digest the golden pins, in `XOR3_*` order.
fn xor3_digests() -> ([u64; 8], [u64; 8], [u64; 8], u64, u64, u64) {
    let (nl, tran) = xor3_deck();
    assert_eq!(nl.unknown_count(), 38);
    assert!(nl.uses_sparse_solver(), "the deck runs the sparse path");
    let mut sparse = [0; 8];
    let mut dense = [0; 8];
    for k in 0..8 {
        let at = xor3_at(&nl, k);
        sparse[k] = op_digest(&Simulator::new(&at).op().expect("sparse op"));
        let dense_op = Simulator::new(&at).solver(SolverKind::Dense).op();
        dense[k] = op_digest(&dense_op.expect("dense op"));
    }
    let mut ens = OpEnsemble::new(&nl);
    for k in 0..8 {
        ens.try_push(xor3_at(&nl, k)).expect("same topology");
    }
    let mut ensemble = [0; 8];
    for (lane, outcome) in ens.solve_op(&OpOptions::full()).iter().enumerate() {
        let op = outcome.result().expect("lane converged");
        ensemble[lane] = op_digest(op) ^ u64::from(outcome.is_lockstep());
    }
    let fixed = tran_digest(&nl, &tran);
    let adaptive = tran_digest(&nl, &TranConfig::adaptive(tran.tstop));
    let at1 = xor3_at(&nl, 1);
    let top = at1.find_node("top").unwrap();
    let ac = Simulator::new(&at1).ac("vin0", &XOR3_AC_FREQS).expect("ac");
    let phasors: Vec<_> = (0..XOR3_AC_FREQS.len())
        .map(|k| ac.voltage_at(top, k))
        .collect();
    assert!(phasors.iter().all(|v| v.re != 0.0), "vin0 reaches top");
    let ac = bits_digest(phasors.iter().flat_map(|v| [v.re, v.im]));
    (sparse, dense, ensemble, fixed, adaptive, ac)
}

/// The XOR3 deck's op (sparse and dense), ensemble, transient and AC
/// results match the recorded bit patterns.
#[test]
fn xor3_solver_results_pin_recorded_bits() {
    let (sparse, dense, ensemble, fixed, adaptive, ac) = xor3_digests();
    assert_eq!(sparse, XOR3_OP_SPARSE, "scalar sparse ops");
    assert_eq!(dense, XOR3_OP_DENSE, "dense ops");
    assert_eq!(ensemble, XOR3_OP_ENSEMBLE, "ensemble lanes");
    assert_eq!(fixed, XOR3_TRAN_FIXED, "fixed-step transient");
    assert_eq!(adaptive, XOR3_TRAN_ADAPTIVE, "adaptive transient");
    assert_eq!(ac, XOR3_AC, "ac sweep");
}

/// Prints the `XOR3_*` table. Run with `-- --ignored --nocapture` and
/// paste the output over the constants after an intentional change.
#[test]
#[ignore = "generator for the XOR3_* constants"]
fn regenerate_xor3_solver_golden() {
    let (sparse, dense, ensemble, fixed, adaptive, ac) = xor3_digests();
    let row = |d: [u64; 8]| {
        let hex: Vec<String> = d.iter().map(|v| format!("0x{v:016x}")).collect();
        format!("[{}]", hex.join(", "))
    };
    println!("const XOR3_OP_SPARSE: [u64; 8] = {};", row(sparse));
    println!("const XOR3_OP_DENSE: [u64; 8] = {};", row(dense));
    println!("const XOR3_OP_ENSEMBLE: [u64; 8] = {};", row(ensemble));
    println!("const XOR3_TRAN_FIXED: u64 = 0x{fixed:016x};");
    println!("const XOR3_TRAN_ADAPTIVE: u64 = 0x{adaptive:016x};");
    println!("const XOR3_AC: u64 = 0x{ac:016x};");
}
