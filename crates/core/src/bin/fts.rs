//! `fts` — command-line front end for the four-terminal-lattice toolkit.
//!
//! ```text
//! fts count <m> <n>                  product count of the m x n lattice function
//! fts synth <function>               synthesize a lattice (and verify it)
//! fts lattice <file|-> --vars <n>    evaluate a lattice from its text form
//! fts faults <file|-> --vars <n>     single-fault analysis of a lattice
//! fts characterize <device> <gate>   virtual-TCAD summary (square|cross|junctionless, sio2|hfo2)
//! fts xor3                           run the Fig. 11 transient and print the summary
//! fts explore <function>             design-space sweep with Pareto front
//! fts run <deck.cir|->               simulate a SPICE deck (fts-netlist frontend)
//! fts batch <manifest.json>          batch simulation on the fts-engine scheduler
//! fts serve                          HTTP simulation service over the same engine
//! fts client <ip:port> <command>     wire client for a running server/coordinator
//! fts help                           print the full usage text (also --help/-h)
//! ```
//!
//! The per-subcommand flags are listed by `fts help`; [`usage`] is the
//! single authoritative flag reference (the CLI golden test holds it to
//! the flags each subcommand actually parses).
//!
//! `<function>` is one of: and2..and4, or2..or4, xor2..xor4, xnor2, xnor3,
//! maj3, maj5, th24 (2-of-4 threshold).

use std::io::Read;

use four_terminal_lattice::batch;
use four_terminal_lattice::circuit::experiments::Xor3Experiment;
use four_terminal_lattice::circuit::model::SwitchCircuitModel;
use four_terminal_lattice::device::characterize::characterize;
use four_terminal_lattice::device::{Device, DeviceKind, Dielectric};
use four_terminal_lattice::explorer::{explore, ExploreOptions};
use four_terminal_lattice::lattice::{count, defects, text, Lattice};
use four_terminal_lattice::named_function;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&args) {
        Ok(()) => 0,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{}", usage());
            2
        }
    };
    std::process::exit(code);
}

/// The one authoritative usage text. Every flag a subcommand parses must
/// appear on its line here — the CLI golden test (`tests/cli.rs`) fails
/// otherwise, so help and reality cannot drift again.
fn usage() -> &'static str {
    "usage:\n  \
     fts count <m> <n>\n  \
     fts synth <function>\n  \
     fts lattice <file|-> --vars <n>\n  \
     fts faults <file|-> --vars <n>\n  \
     fts characterize <square|cross|junctionless> <sio2|hfo2>\n  \
     fts xor3\n  \
     fts explore <function>\n  \
     fts run <deck.cir|-> [--out <report.json>] [--threads <n>] [--waveform] [--trace]\n  \
     fts batch <manifest.json> [--out <report.json>] [--trace]\n  \
     fts serve [--addr <ip:port>] [--workers <n>] [--queue-depth <n>] [--cache-entries <n>] [--cache-bytes <n>] [--trace-events <n>] [--worker] [--coordinator --workers-addrs <a,b,..> [--probe-ms <n>] [--route-attempts <n>] [--no-cascade]]\n  \
     fts client <ip:port> health|metrics|shutdown|submit <manifest.json|->|status <id>|wait <id>|trace <id> [--chrome]|cancel <id>|cache|cache-flush|list [--state <s>] [--cursor <n>] [--limit <n>]\n  \
     fts help"
}

fn run(args: &[String]) -> Result<(), String> {
    let cmd = args.first().ok_or("missing subcommand")?;
    match cmd.as_str() {
        "count" => cmd_count(&args[1..]),
        "synth" => cmd_synth(&args[1..]),
        "lattice" => cmd_lattice(&args[1..], false),
        "faults" => cmd_lattice(&args[1..], true),
        "characterize" => cmd_characterize(&args[1..]),
        "xor3" => cmd_xor3(),
        "explore" => cmd_explore(&args[1..]),
        "run" => cmd_run(&args[1..]),
        "batch" => cmd_batch(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "client" => cmd_client(&args[1..]),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn cmd_count(args: &[String]) -> Result<(), String> {
    let m: usize = args
        .first()
        .ok_or("missing <m>")?
        .parse()
        .map_err(|_| "bad <m>")?;
    let n: usize = args
        .get(1)
        .ok_or("missing <n>")?
        .parse()
        .map_err(|_| "bad <n>")?;
    if m == 0 || n == 0 {
        return Err("dimensions must be at least 1".into());
    }
    if m * n > 100 {
        return Err("grid too large (counting is exponential; stay within ~10x10)".into());
    }
    println!("{}", count::product_count(m, n));
    Ok(())
}

fn cmd_synth(args: &[String]) -> Result<(), String> {
    let f = named_function(args.first().ok_or("missing <function>")?)?;
    let s = four_terminal_lattice::synth::synthesize(&f).map_err(|e| e.to_string())?;
    println!(
        "{:?} realization, {}x{} ({} switches):",
        s.method,
        s.lattice.rows(),
        s.lattice.cols(),
        s.area()
    );
    println!("{}", s.lattice);
    let ok = s.lattice.truth_table(f.vars()).map_err(|e| e.to_string())? == f;
    println!("verified: {ok}");
    Ok(())
}

fn read_lattice(path: &str) -> Result<Lattice, String> {
    let content = if path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| e.to_string())?;
        buf
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?
    };
    text::parse(&content).map_err(|e| e.to_string())
}

fn vars_flag(args: &[String]) -> Result<usize, String> {
    let pos = args
        .iter()
        .position(|a| a == "--vars")
        .ok_or("missing --vars <n>")?;
    args.get(pos + 1)
        .ok_or("missing value after --vars")?
        .parse::<usize>()
        .map_err(|_| "bad --vars value".into())
}

fn cmd_lattice(args: &[String], fault_mode: bool) -> Result<(), String> {
    let path = args.first().ok_or("missing <file|->")?;
    let lat = read_lattice(path)?;
    let vars = vars_flag(args)?;
    println!("{}x{} lattice:", lat.rows(), lat.cols());
    println!("{lat}");
    if fault_mode {
        let report = defects::analyze(&lat, vars).map_err(|e| e.to_string())?;
        println!(
            "\nfaults: {} total, {} undetectable, worst impact {} rows, detectability {:.1}%",
            report.total,
            report.undetectable,
            report.worst_impact,
            report.detectability() * 100.0
        );
        for (site, impact) in defects::critical_sites(&lat, vars, 5).map_err(|e| e.to_string())? {
            println!("  critical site {site:?}: impact {impact}");
        }
    } else {
        let tt = lat.truth_table(vars).map_err(|e| e.to_string())?;
        print!("truth table (inputs ascending): ");
        for x in 0..(1u32 << vars) {
            print!("{}", if tt.eval(x) { '1' } else { '0' });
        }
        println!();
        let cover = lat.products().map_err(|e| e.to_string())?;
        println!("products: {cover}");
    }
    Ok(())
}

fn cmd_characterize(args: &[String]) -> Result<(), String> {
    let kind = match args.first().map(String::as_str) {
        Some("square") => DeviceKind::Square,
        Some("cross") => DeviceKind::Cross,
        Some("junctionless") => DeviceKind::Junctionless,
        _ => return Err("expected device: square|cross|junctionless".into()),
    };
    let diel = match args.get(1).map(String::as_str) {
        Some("sio2") => Dielectric::SiO2,
        Some("hfo2") => Dielectric::HfO2,
        _ => return Err("expected dielectric: sio2|hfo2".into()),
    };
    let dev = Device::new(kind, diel);
    let r = characterize(&dev);
    println!("device        : {} / {}", kind.name(), diel.name());
    println!("Vth           : {:.4} V", r.vth);
    println!("Ion (5V/5V)   : {:.4e} A", r.ion);
    println!("Ioff          : {:.4e} A", r.ioff);
    println!("on/off ratio  : {:.3e}", r.on_off_ratio);
    println!("subthr. swing : {:.1} mV/dec", r.swing_mv_per_dec);
    Ok(())
}

fn cmd_xor3() -> Result<(), String> {
    let model = SwitchCircuitModel::square_hfo2().map_err(|e| e.to_string())?;
    let report = Xor3Experiment::quick()
        .run(&model)
        .map_err(|e| e.to_string())?;
    println!("functional: {}", report.functional);
    println!("V_OL = {:.3} V, V_OH = {:.3} V", report.v_ol, report.v_oh);
    if let (Some(r), Some(f)) = (report.rise_s, report.fall_s) {
        println!("rise = {:.2} ns, fall = {:.2} ns", r * 1e9, f * 1e9);
    }
    Ok(())
}

fn cmd_explore(args: &[String]) -> Result<(), String> {
    let f = named_function(args.first().ok_or("missing <function>")?)?;
    if f.vars() > 3 {
        return Err("explore is limited to 3-input functions (transient measurement cost)".into());
    }
    let model = SwitchCircuitModel::square_hfo2().map_err(|e| e.to_string())?;
    let opts = ExploreOptions {
        phase: 40e-9,
        dt: 2e-9,
        ..Default::default()
    };
    let ex = explore(&f, &model, &opts).map_err(|e| e.to_string())?;
    println!(
        "{:<13} {:>7} {:>12} {:>14} {:>14}",
        "source", "area", "delay [ns]", "static [W]", "energy [J]"
    );
    for (i, c) in ex.candidates.iter().enumerate() {
        let star = if ex.pareto.contains(&i) { "*" } else { " " };
        println!(
            "{star}{:<12} {:>7} {:>12.2} {:>14.3e} {:>14.3e}",
            c.source,
            c.lattice.site_count(),
            c.metrics.worst_delay.map(|d| d * 1e9).unwrap_or(f64::NAN),
            c.metrics.static_power_worst,
            c.metrics.transient_energy
        );
    }
    println!("(* = Pareto-optimal in area / delay / static power)");
    Ok(())
}

/// Writes (or prints) a batch report and turns any non-successful job
/// into a non-zero exit — shared by `fts run` and `fts batch`.
fn emit_report(report: &str, out_path: Option<&str>) -> Result<(), String> {
    match out_path {
        Some(p) => {
            std::fs::write(p, report).map_err(|e| format!("{p}: {e}"))?;
            println!("wrote {p}");
        }
        None => println!("{report}"),
    }
    let doc = batch::Json::parse(report).expect("report is well-formed");
    let jobs = doc.get("jobs").and_then(batch::Json::as_f64).unwrap_or(0.0);
    let ok = doc
        .get("succeeded")
        .and_then(batch::Json::as_f64)
        .unwrap_or(0.0);
    if ok < jobs {
        return Err(format!("{} of {jobs} jobs did not succeed", jobs - ok));
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    use four_terminal_lattice::engine::Engine;
    use four_terminal_lattice::netlist::{self, ElabOptions, FsIncludes};

    let path = args.first().ok_or("missing <deck.cir|->")?;
    let mut out_path: Option<&str> = None;
    let mut threads = 0usize;
    let mut waveform = false;
    let mut trace = false;
    let mut rest = args[1..].iter();
    while let Some(flag) = rest.next() {
        match flag.as_str() {
            "--out" => out_path = Some(rest.next().ok_or("--out needs a path")?),
            "--threads" => {
                threads = rest
                    .next()
                    .ok_or("--threads needs a value")?
                    .parse()
                    .map_err(|_| "bad --threads value")?;
            }
            "--waveform" => waveform = true,
            "--trace" => trace = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }

    // Local decks may `.include` siblings (relative to the deck's own
    // directory); stdin decks have no directory, so includes resolve
    // against the working directory.
    let (text, base) = if path.as_str() == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| e.to_string())?;
        (buf, std::path::PathBuf::from("."))
    } else {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let base = std::path::Path::new(path)
            .parent()
            .filter(|p| !p.as_os_str().is_empty())
            .map_or_else(
                || std::path::PathBuf::from("."),
                std::path::Path::to_path_buf,
            );
        (text, base)
    };

    let deck = netlist::parse_with_includes(&text, &mut FsIncludes::new(base))
        .map_err(|e| format!("{path}: {e}"))?;
    let elab =
        netlist::elaborate(&deck, &ElabOptions::default()).map_err(|e| format!("{path}: {e}"))?;
    let out = elab.out;

    let mut engine = Engine::new();
    if threads > 0 {
        engine = engine.threads(threads);
    }
    let threads_used = engine.thread_count();
    // `--trace` attaches a flight recorder per job; the handle clones
    // stay here so the report can embed each journal after the run.
    let mut jobs = elab.jobs;
    let traces: Vec<Option<fts_telemetry::trace::JobTrace>> = jobs
        .iter_mut()
        .map(|job| {
            trace.then(|| {
                let t =
                    fts_telemetry::trace::JobTrace::new(fts_telemetry::trace::DEFAULT_EVENT_CAP);
                job.trace = Some(t.clone());
                t
            })
        })
        .collect();
    let report = engine.run(jobs);
    let rows: Vec<String> = report
        .outcomes
        .iter()
        .zip(&report.stats)
        .zip(&traces)
        .map(|((outcome, stat), trace)| {
            let snap = trace.as_ref().map(fts_telemetry::trace::JobTrace::snapshot);
            batch::job_row_json_traced(&stat.label, outcome, stat, out, waveform, snap.as_ref())
        })
        .collect();
    let doc = batch::batch_report_json(&rows, report.succeeded(), threads_used, report.wall_s);
    emit_report(&doc, out_path)
}

fn cmd_batch(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("missing <manifest.json>")?;
    let mut out_path: Option<&str> = None;
    let mut trace = false;
    let mut rest = args[1..].iter();
    while let Some(flag) = rest.next() {
        match flag.as_str() {
            "--out" => out_path = Some(rest.next().ok_or("--out needs a path")?),
            "--trace" => trace = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let manifest = batch::BatchManifest::parse(&text).map_err(|e| e.to_string())?;
    let trace_events = if trace {
        fts_telemetry::trace::DEFAULT_EVENT_CAP
    } else {
        0
    };
    let report = batch::run_manifest_traced(&manifest, trace_events).map_err(|e| e.to_string())?;
    emit_report(&report, out_path)
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    use four_terminal_lattice::batch::PipelineJobBuilder;
    use four_terminal_lattice::server::{Coordinator, CoordinatorConfig, Server, ServerConfig};
    use std::sync::Arc;
    use std::time::Duration;

    let mut config = ServerConfig::default();
    let mut coord = CoordinatorConfig::default();
    let mut coordinator = false;
    let mut worker = false;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = |rest: &mut std::slice::Iter<String>| -> Result<String, String> {
            rest.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--addr" => {
                config.addr = value(&mut rest)?;
                coord.addr.clone_from(&config.addr);
            }
            "--workers" => {
                config.workers = value(&mut rest)?
                    .parse()
                    .map_err(|_| "bad --workers value")?;
            }
            "--queue-depth" => {
                config.queue_depth = value(&mut rest)?
                    .parse()
                    .map_err(|_| "bad --queue-depth value")?;
            }
            "--cache-entries" => {
                config.cache_entries = value(&mut rest)?
                    .parse()
                    .map_err(|_| "bad --cache-entries value")?;
                coord.cache_entries = config.cache_entries;
            }
            "--cache-bytes" => {
                config.cache_bytes = value(&mut rest)?
                    .parse()
                    .map_err(|_| "bad --cache-bytes value")?;
                coord.cache_bytes = config.cache_bytes;
            }
            "--trace-events" => {
                config.trace_events = value(&mut rest)?
                    .parse()
                    .map_err(|_| "bad --trace-events value")?;
            }
            // Role markers. `--worker` only documents intent (a worker
            // is a plain server someone points a coordinator at);
            // `--coordinator` switches to the routing front end.
            "--worker" => worker = true,
            "--coordinator" => coordinator = true,
            "--workers-addrs" => {
                coord.workers = value(&mut rest)?
                    .split(',')
                    .map(|s| s.trim().to_owned())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            "--probe-ms" => {
                let ms: u64 = value(&mut rest)?
                    .parse()
                    .map_err(|_| "bad --probe-ms value")?;
                if ms == 0 {
                    return Err("--probe-ms must be at least 1".into());
                }
                coord.probe_interval = Duration::from_millis(ms);
            }
            "--route-attempts" => {
                coord.route_attempts = value(&mut rest)?
                    .parse()
                    .map_err(|_| "bad --route-attempts value")?;
            }
            "--no-cascade" => coord.cascade = false,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if coordinator && worker {
        return Err("--coordinator and --worker are mutually exclusive".into());
    }

    if coordinator {
        let coordinator = Coordinator::bind(coord, Arc::new(PipelineJobBuilder::new()))
            .map_err(|e| e.to_string())?;
        let addr = coordinator.local_addr().map_err(|e| e.to_string())?;
        // Machine-greppable startup line: tests and CI scrape the port.
        println!("fts-coordinator listening on {addr}");
        let report = coordinator.run().map_err(|e| e.to_string())?;
        eprintln!(
            "fts-coordinator drained: {} jobs completed, {} submissions rejected, {} connections rejected, uptime {:.1}s",
            report.jobs_completed,
            report.submissions_rejected,
            report.connections_rejected,
            report.uptime_s
        );
        eprintln!("{}", report.telemetry);
        return Ok(());
    }

    let server =
        Server::bind(config, Arc::new(PipelineJobBuilder::new())).map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    // Machine-greppable startup line: tests and CI scrape the port.
    println!("fts-server listening on {addr}");
    let report = server.run().map_err(|e| e.to_string())?;
    eprintln!(
        "fts-server drained: {} jobs completed, {} submissions rejected, {} connections rejected, uptime {:.1}s",
        report.jobs_completed,
        report.submissions_rejected,
        report.connections_rejected,
        report.uptime_s
    );
    eprintln!("{}", report.telemetry);
    Ok(())
}

/// `fts client` — the [`WireClient`] behind a shell-scriptable face.
/// Prints the raw response body to stdout; a non-2xx answer still
/// prints the error envelope (to stderr) but exits 1, so CI can pipe
/// bodies straight into `jq` and trust the exit code.
fn cmd_client(args: &[String]) -> Result<(), String> {
    use four_terminal_lattice::server::{ClientError, WireClient};

    let addr = args.first().ok_or("missing <ip:port>")?;
    let verb = args.get(1).ok_or("missing client command")?;
    let rest = &args[2..];
    let client = WireClient::new(addr.clone());

    let id_arg = || -> Result<u64, String> {
        rest.first()
            .ok_or("missing <id>")?
            .parse::<u64>()
            .map_err(|_| "bad <id>".into())
    };
    let no_flags = |from: usize| -> Result<(), String> {
        match rest.get(from) {
            Some(extra) => Err(format!("unexpected argument {extra:?}")),
            None => Ok(()),
        }
    };

    let (method, path, body): (&str, String, Option<String>) = match verb.as_str() {
        "health" => {
            no_flags(0)?;
            ("GET", "/healthz".into(), None)
        }
        "metrics" => {
            no_flags(0)?;
            ("GET", "/metrics".into(), None)
        }
        "shutdown" => {
            no_flags(0)?;
            ("POST", "/v1/shutdown".into(), None)
        }
        "submit" => {
            let mpath = rest.first().ok_or("missing <manifest.json|->")?;
            no_flags(1)?;
            let text = if mpath == "-" {
                let mut buf = String::new();
                std::io::stdin()
                    .read_to_string(&mut buf)
                    .map_err(|e| e.to_string())?;
                buf
            } else {
                std::fs::read_to_string(mpath).map_err(|e| format!("{mpath}: {e}"))?
            };
            ("POST", "/v1/jobs".into(), Some(text))
        }
        "status" | "wait" => {
            let id = id_arg()?;
            no_flags(1)?;
            ("GET", format!("/v1/jobs/{id}"), None)
        }
        "cancel" => {
            let id = id_arg()?;
            no_flags(1)?;
            ("DELETE", format!("/v1/jobs/{id}"), None)
        }
        "cache" => {
            no_flags(0)?;
            ("GET", "/v1/cache".into(), None)
        }
        "cache-flush" => {
            no_flags(0)?;
            ("DELETE", "/v1/cache".into(), None)
        }
        "trace" => {
            let id = id_arg()?;
            let chrome = match rest.get(1).map(String::as_str) {
                None => false,
                Some("--chrome") => {
                    no_flags(2)?;
                    true
                }
                Some(other) => return Err(format!("unknown flag {other:?}")),
            };
            let query = if chrome { "?format=chrome" } else { "" };
            ("GET", format!("/v1/jobs/{id}/trace{query}"), None)
        }
        "list" => {
            let mut query = Vec::new();
            let mut it = rest.iter();
            while let Some(flag) = it.next() {
                let value = it
                    .next()
                    .ok_or_else(|| format!("{flag} needs a value"))?
                    .clone();
                match flag.as_str() {
                    "--state" => query.push(format!("state={value}")),
                    "--cursor" => query.push(format!("cursor={value}")),
                    "--limit" => query.push(format!("limit={value}")),
                    other => return Err(format!("unknown flag {other:?}")),
                }
            }
            let query = if query.is_empty() {
                String::new()
            } else {
                format!("?{}", query.join("&"))
            };
            ("GET", format!("/v1/jobs{query}"), None)
        }
        other => return Err(format!("unknown client command {other:?}")),
    };

    loop {
        let response = client.call(method, &path, body.as_deref()).map_err(|e| {
            // Transport errors have no body to print; surface them
            // through the usual error path.
            match e {
                ClientError::Io(io) => format!("{addr}: {io}"),
                other => other.to_string(),
            }
        })?;
        if response.status >= 300 {
            eprintln!("{}", response.body);
            std::process::exit(1);
        }
        if verb == "wait" && !response.body.contains("\"status\":\"done\"") {
            std::thread::sleep(std::time::Duration::from_millis(50));
            continue;
        }
        println!("{}", response.body);
        return Ok(());
    }
}
