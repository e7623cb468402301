//! Acceptance check: the per-job flight recorder costs at most 5% of a
//! served job.
//!
//! Racing a tracing-on server against a tracing-off one cannot resolve
//! 5%: the run-to-run spread of served throughput is wider than that. So,
//! as in `telemetry_overhead.rs`, the bound is computed instead of raced:
//! measure (a) how many events one job's journal holds on a server with
//! the recorder on, (b) what the recorder adds to that job — minting its
//! ring, installing it, and recording (a) events — and (c) the job's
//! median submit-to-done time on a server with the recorder off
//! (`trace_events: 0`). (b) must stay within 5% of (c).

use std::sync::Arc;
use std::time::{Duration, Instant};

use four_terminal_lattice::batch::PipelineJobBuilder;
use fts_server::wire::Json;
use fts_server::{Server, ServerConfig, WireClient};
use fts_telemetry::trace::{self, JobTrace, DEFAULT_EVENT_CAP};

/// Status-poll cadence while waiting for a job.
const POLL: Duration = Duration::from_micros(200);

/// Starts a server whose jobs get rings of `trace_events` (0 = recorder
/// off), runs `f` against it, then drains it.
fn with_server<T>(
    builder: &Arc<PipelineJobBuilder>,
    trace_events: usize,
    f: impl FnOnce(&WireClient) -> T,
) -> T {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        trace_events,
        ..ServerConfig::default()
    };
    let server = Server::bind(config, builder.clone()).expect("bind loopback server");
    let client = WireClient::new(server.local_addr().expect("local addr").to_string());
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    let out = f(&client);
    handle.shutdown();
    thread.join().expect("server thread").expect("server exit");
    out
}

fn assert_recorder_within_budget(function: &str, input: u32) {
    // Bypass the cache so that every submission solves.
    let manifest = format!(
        r#"{{"jobs":[{{"function":"{function}","analysis":"op","input":{input},"cache":"bypass"}}]}}"#
    );
    // One builder for both servers: lattice synthesis is paid once, by
    // the untimed traced run.
    let builder = Arc::new(PipelineJobBuilder::new());

    // (a) The job's journal length with the recorder on.
    let events = with_server(&builder, DEFAULT_EVENT_CAP, |client| {
        let id = client.submit_manifest(&manifest).expect("submit")[0];
        client.wait_done(id, POLL).expect("wait");
        let journal = Json::parse(&client.trace(id, false).expect("trace")).expect("journal");
        journal
            .get("events")
            .and_then(Json::as_array)
            .expect("events array")
            .len()
    });
    assert!(events > 0, "{function} input {input}: empty journal");

    // (c) Median submit-to-done time with the recorder off.
    const RUNS: usize = 9;
    let mut walls = with_server(&builder, 0, |client| {
        (0..RUNS)
            .map(|_| {
                let t0 = Instant::now();
                let id = client.submit_manifest(&manifest).expect("submit")[0];
                client.wait_done(id, POLL).expect("wait");
                t0.elapsed().as_secs_f64()
            })
            .collect::<Vec<_>>()
    });
    walls.sort_by(f64::total_cmp);
    let job_s = walls[RUNS / 2];

    // (b) The recorder's cost for one such job.
    const REPS: u32 = 1_000;
    let t0 = Instant::now();
    for _ in 0..REPS {
        let ring = JobTrace::new(DEFAULT_EVENT_CAP);
        let _installed = trace::install(&ring);
        for _ in 0..events {
            trace::emit("budget_probe", "", 1.0, 2.0);
        }
    }
    let recorder_s = t0.elapsed().as_secs_f64() / f64::from(REPS);

    let share = recorder_s / job_s;
    assert!(
        share <= 0.05,
        "{function} input {input}: recording {events} events costs {recorder_s:.3e}s, \
         {:.2}% of the {job_s:.3e}s median job (> 5%)",
        share * 100.0
    );
}

#[test]
fn recorder_costs_at_most_five_percent_of_an_and2_op() {
    assert_recorder_within_budget("and2", 0);
}

#[test]
fn recorder_costs_at_most_five_percent_of_a_three_input_op() {
    assert_recorder_within_budget("xor3", 5);
}
