//! End-to-end tests of the `fts` command-line interface.

use std::io::Write;
use std::process::{Command, Stdio};

fn fts() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fts"))
}

#[test]
fn count_prints_table1_entries() {
    let out = fts().args(["count", "4", "5"]).output().expect("run");
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "67");
}

#[test]
fn count_rejects_bad_arguments() {
    let out = fts().args(["count", "0", "3"]).output().expect("run");
    assert!(!out.status.success());
    let out = fts().args(["count", "xx", "3"]).output().expect("run");
    assert!(!out.status.success());
}

#[test]
fn synth_reports_verified_lattice() {
    let out = fts().args(["synth", "xor3"]).output().expect("run");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("verified: true"), "{text}");
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let out = fts().args(["frobnicate"]).output().expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn lattice_subcommand_reads_stdin() {
    let mut child = fts()
        .args(["lattice", "-", "--vars", "3"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn");
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(b"a' c' a\nb' 1 b\na c a'\n")
        .expect("write");
    let out = child.wait_with_output().expect("wait");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    // Inverse-parity truth table of XOR3 inputs ascending: 01101001 pattern
    // for XOR3 itself.
    assert!(text.contains("truth table"), "{text}");
    assert!(text.contains("01101001"), "{text}");
}

/// Golden help test: `fts help` must list every flag a subcommand
/// actually parses, on that subcommand's own usage line — help text and
/// the argument parsers cannot drift apart again (`fts serve` once
/// parsed `--retain-done` without documenting it).
#[test]
fn help_lists_every_flag_each_subcommand_parses() {
    let out = fts().args(["help"]).output().expect("run");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();

    let line_with = |subcommand: &str| {
        text.lines()
            .find(|l| l.trim_start().starts_with(&format!("fts {subcommand}")))
            .unwrap_or_else(|| panic!("no usage line for {subcommand:?}:\n{text}"))
            .to_owned()
    };
    for (subcommand, flags) in [
        ("lattice", &["--vars"][..]),
        ("faults", &["--vars"][..]),
        ("run", &["--out", "--threads", "--waveform", "--trace"][..]),
        ("batch", &["--out", "--trace"][..]),
        (
            "serve",
            &[
                "--addr",
                "--workers",
                "--queue-depth",
                "--cache-entries",
                "--cache-bytes",
                "--trace-events",
                "--worker",
                "--coordinator",
                "--workers-addrs",
                "--probe-ms",
                "--route-attempts",
                "--no-cascade",
            ][..],
        ),
        (
            "client",
            &["--chrome", "--state", "--cursor", "--limit"][..],
        ),
    ] {
        let line = line_with(subcommand);
        for flag in flags {
            assert!(
                line.contains(flag),
                "fts {subcommand} line lacks {flag}: {line}"
            );
        }
    }

    // `--retain-done` is not a flag: `fts serve` must exit non-zero and
    // name it rather than start serving.
    let out = fts()
        .args(["serve", "--retain-done", "8"])
        .output()
        .expect("run");
    assert!(!out.status.success(), "--retain-done must be rejected");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--retain-done"), "{err}");

    // `--help` and `-h` print the same text and also exit 0.
    for alias in ["--help", "-h"] {
        let out = fts().args([alias]).output().expect("run");
        assert!(out.status.success(), "{alias} should succeed");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            format!("{}\n", text.trim_end())
        );
    }
}

#[test]
fn run_reads_deck_from_stdin_and_writes_report() {
    let mut child = fts()
        .args(["run", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn");
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(b"v1 in 0 dc 1\nr1 in out 1k\nr2 out 0 1k\n.probe v(out)\n.op\n")
        .expect("write");
    let out = child.wait_with_output().expect("wait");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"schema\":\"fts-batch-report/1\""), "{text}");
    assert!(text.contains("\"label\":\"op-0\""), "{text}");
    assert!(text.contains("\"out_v\":0.4999999997"), "{text}");
}

#[test]
fn run_trace_embeds_a_solver_journal() {
    let mut child = fts()
        .args(["run", "-", "--trace"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn");
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(b"v1 in 0 dc 1\nr1 in out 1k\nr2 out 0 1k\n.probe v(out)\n.op\n")
        .expect("write");
    let out = child.wait_with_output().expect("wait");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"trace\":{"), "{text}");
    assert!(text.contains("\"kind\":\"newton_converged\""), "{text}");
    assert!(text.contains("\"kind\":\"job_done\""), "{text}");
}

#[test]
fn run_rejects_malformed_decks_with_position() {
    let dir = std::env::temp_dir().join(format!("fts-run-bad-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let deck = dir.join("bad.cir");
    std::fs::write(&deck, "v1 in 0 dc 1\nr1 in out\n.op\n").expect("write");
    let out = fts()
        .args(["run", deck.to_str().unwrap()])
        .output()
        .expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 2"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batch_runs_manifest_and_writes_report() {
    let dir = std::env::temp_dir().join(format!("fts-batch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let manifest = dir.join("manifest.json");
    let report = dir.join("report.json");
    std::fs::write(
        &manifest,
        r#"{"threads": 2, "jobs": [
            {"function": "xor2", "analysis": "op", "input": 1, "label": "xor2-01"},
            {"function": "xor2", "analysis": "op", "input": 0, "retry": "ladder"}
        ]}"#,
    )
    .expect("write manifest");
    let out = fts()
        .args([
            "batch",
            manifest.to_str().unwrap(),
            "--out",
            report.to_str().unwrap(),
        ])
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&report).expect("report written");
    assert!(text.contains("\"schema\":\"fts-batch-report/1\""), "{text}");
    assert!(text.contains("\"succeeded\":2"), "{text}");
    assert!(text.contains("\"xor2-01\""), "{text}");
    assert!(text.contains("\"out_v\":"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batch_rejects_bad_manifest() {
    let dir = std::env::temp_dir().join(format!("fts-badbatch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let manifest = dir.join("manifest.json");
    std::fs::write(&manifest, r#"{"jobs": [{"analysis": "op"}]}"#).expect("write");
    let out = fts()
        .args(["batch", manifest.to_str().unwrap()])
        .output()
        .expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("function"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// One-request HTTP client against the spawned server — the crate's own
/// [`WireClient`](four_terminal_lattice::server::WireClient), i.e. the
/// same implementation `fts client` and the coordinator ride on.
fn http(addr: &str, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
    let response = four_terminal_lattice::server::WireClient::new(addr)
        .call(method, path, body)
        .expect("call");
    (response.status, response.body)
}

#[test]
fn serve_smoke_matches_batch_and_shuts_down() {
    use std::io::{BufRead, BufReader};

    let manifest =
        r#"{"jobs": [{"function": "xor2", "analysis": "op", "input": 1, "label": "smoke"}]}"#;

    // Reference result through the batch path.
    let dir = std::env::temp_dir().join(format!("fts-serve-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let mpath = dir.join("manifest.json");
    std::fs::write(&mpath, manifest).expect("write manifest");
    let out = fts()
        .args(["batch", mpath.to_str().unwrap()])
        .output()
        .expect("run batch");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let batch_report = String::from_utf8_lossy(&out.stdout).to_string();
    let result_start = batch_report.find("\"result\":").expect("batch result");
    // The result object runs to the row's closing brace; grab through the
    // next "}}" which terminates {"result":{...}}.
    let result_end = batch_report[result_start..].find("}}").unwrap() + result_start + 1;
    let batch_result = &batch_report[result_start..result_end];
    std::fs::remove_dir_all(&dir).ok();

    // Start the server on an ephemeral port and scrape the startup line.
    let mut child = fts()
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
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

    // Health, submit, poll to done.
    let (status, body) = http(&addr, "GET", "/healthz", None);
    assert_eq!(status, 200, "{body}");
    let (status, body) = http(&addr, "POST", "/v1/jobs", Some(manifest));
    assert_eq!(status, 202, "{body}");
    assert!(body.contains("\"ids\":[0]"), "{body}");
    let served = loop {
        let (status, body) = http(&addr, "GET", "/v1/jobs/0", None);
        assert_eq!(status, 200, "{body}");
        if body.contains("\"status\":\"done\"") {
            break body;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    };

    // The served result must be the exact bytes the batch path reported.
    assert!(
        served.contains(batch_result),
        "served result differs from batch:\n  batch: {batch_result}\n  serve: {served}"
    );

    // Metrics exposes the job count; shutdown exits cleanly.
    let (status, body) = http(&addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    assert!(body.contains("fts_jobs_completed 1"), "{body}");
    let (status, _) = http(&addr, "POST", "/v1/shutdown", None);
    assert_eq!(status, 200);
    let out = child.wait_with_output().expect("server exit");
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("fts-server drained: 1 jobs completed"),
        "{err}"
    );
}

/// Spawns an `fts serve …` process and scrapes its startup banner for
/// the bound address. The child keeps running; callers shut it down
/// over the wire.
fn spawn_serve(args: &[&str], banner_prefix: &str) -> (std::process::Child, String) {
    use std::io::{BufRead, BufReader};

    let mut child = fts()
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let stdout = child.stdout.take().expect("stdout");
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).expect("banner");
    let addr = line
        .trim()
        .strip_prefix(banner_prefix)
        .unwrap_or_else(|| panic!("unexpected banner {line:?}"))
        .to_owned();
    (child, addr)
}

/// Runs `fts client <addr> <args…>` (optionally with stdin) and returns
/// (exit-ok, stdout).
fn client(addr: &str, args: &[&str], stdin: Option<&str>) -> (bool, String) {
    let mut cmd = fts();
    cmd.args(["client", addr]).args(args);
    let out = match stdin {
        Some(text) => {
            let mut child = cmd
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn client");
            child
                .stdin
                .as_mut()
                .expect("stdin")
                .write_all(text.as_bytes())
                .expect("write");
            child.wait_with_output().expect("client exit")
        }
        None => cmd.output().expect("run client"),
    };
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).to_string(),
    )
}

#[test]
fn coordinator_smoke_routes_jobs_and_cascades_shutdown() {
    // Two workers on ephemeral ports, then a coordinator fronting them.
    let (w0, w0_addr) = spawn_serve(
        &[
            "serve",
            "--worker",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
        ],
        "fts-server listening on ",
    );
    let (w1, w1_addr) = spawn_serve(
        &[
            "serve",
            "--worker",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
        ],
        "fts-server listening on ",
    );
    let (coord, coord_addr) = spawn_serve(
        &[
            "serve",
            "--coordinator",
            "--addr",
            "127.0.0.1:0",
            "--workers-addrs",
            &format!("{w0_addr},{w1_addr}"),
        ],
        "fts-coordinator listening on ",
    );

    let manifest = r#"{"jobs": [
        {"function": "xor2", "analysis": "op", "input": 0},
        {"function": "xor2", "analysis": "op", "input": 1},
        {"function": "xor2", "analysis": "op", "input": 2},
        {"function": "xor2", "analysis": "op", "input": 3}
    ]}"#;
    let (ok, body) = client(&coord_addr, &["submit", "-"], Some(manifest));
    assert!(ok, "{body}");
    assert!(body.contains("\"ids\":[0,1,2,3]"), "{body}");

    // XOR2 truth table through the fleet. A conducting lattice pulls
    // the output node low, so inputs where XOR2 is true (1, 2) read
    // ~0.1 V and false inputs (0, 3) read ~1.2 V.
    for (id, xor_true) in [(0, false), (1, true), (2, true), (3, false)] {
        let (ok, body) = client(&coord_addr, &["wait", &id.to_string()], None);
        assert!(ok, "{body}");
        assert!(body.contains("\"kind\":\"op\""), "{body}");
        let out_v: f64 = body
            .split("\"out_v\":")
            .nth(1)
            .and_then(|s| s.split(['}', ',']).next())
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("no out_v in {body}"));
        assert_eq!(out_v < 0.6, xor_true, "job {id}: out_v {out_v}\n{body}");
    }

    // Listing via the CLI, health shows the whole fleet up.
    let (ok, body) = client(&coord_addr, &["list", "--state", "done"], None);
    assert!(ok, "{body}");
    assert_eq!(body.matches("\"worker\":").count(), 4, "{body}");
    let (ok, body) = client(&coord_addr, &["health"], None);
    assert!(ok, "{body}");
    assert!(body.contains("\"total\":2,\"up\":2"), "{body}");

    // Non-2xx surfaces as exit 1 and keeps stdout clean for jq use.
    let (ok, out) = client(&coord_addr, &["status", "99"], None);
    assert!(!ok, "unknown id must exit nonzero");
    assert_eq!(out, "", "error envelope goes to stderr, not stdout");

    // One shutdown at the coordinator cascades to both workers.
    let (ok, _) = client(&coord_addr, &["shutdown"], None);
    assert!(ok);
    let coord_out = coord.wait_with_output().expect("coordinator exit");
    assert!(coord_out.status.success());
    let err = String::from_utf8_lossy(&coord_out.stderr);
    assert!(
        err.contains("fts-coordinator drained: 4 jobs completed"),
        "{err}"
    );
    for w in [w0, w1] {
        let out = w.wait_with_output().expect("worker exit");
        assert!(out.status.success(), "worker did not drain cleanly");
    }
}

#[test]
fn characterize_prints_figures_of_merit() {
    let out = fts()
        .args(["characterize", "cross", "sio2"])
        .output()
        .expect("run");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Vth"), "{text}");
    assert!(text.contains("on/off"), "{text}");
}
