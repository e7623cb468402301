//! End-to-end HTTP tests against a live in-process server: protocol
//! abuse (malformed lines, oversized heads/bodies, truncated JSON,
//! dropped connections), the cancel-vs-complete race, and the
//! shutdown-drains-in-flight-jobs guarantee.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use fts_engine::SimJob;
use fts_server::service::{BuiltJob, JobBuilder};
use fts_server::testing::{http_call, parse_response, ClientResponse};
use fts_server::wire::{JobSource, JobSpec, Json, WireError};
use fts_server::{HttpLimits, Server, ServerConfig, ShutdownReport};
use fts_spice::analysis::TranConfig;
use fts_spice::netlist::{MosParams, Netlist, Waveform};

/// Builds a fast DC divider (`"divider"`), a deliberately slow 100k-step
/// RC transient (`"slow"` — gives shutdown and cancellation something to
/// race against), or a parametrized nonlinear NMOS inverter
/// (`"inv<mv>"`, e.g. `"inv2000"` for a 2.0 V supply — same topology at
/// every supply, so the cache's warm-start index kicks in).
struct TestBuilder;

impl JobBuilder for TestBuilder {
    fn build(&self, spec: &JobSpec, index: usize) -> Result<BuiltJob, WireError> {
        let JobSource::Function { name, .. } = &spec.source else {
            unreachable!("deck jobs are lowered by build_job, not the builder");
        };
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let out = nl.node("out");
        match name.as_str() {
            "divider" => {
                nl.vsource("V1", a, Netlist::GROUND, Waveform::Dc(2.0))
                    .unwrap();
                nl.resistor("R1", a, out, 1e3).unwrap();
                nl.resistor("R2", out, Netlist::GROUND, 1e3).unwrap();
                Ok(BuiltJob {
                    job: SimJob::op(nl),
                    out,
                })
            }
            "slow" => {
                nl.vsource("V1", a, Netlist::GROUND, Waveform::Dc(1.0))
                    .unwrap();
                nl.resistor("R1", a, out, 1e4).unwrap();
                nl.capacitor("C1", out, Netlist::GROUND, 1e-9).unwrap();
                Ok(BuiltJob {
                    job: SimJob::transient(nl, TranConfig::fixed(1e-8, 1e-3))
                        .probes(&[out])
                        .max_samples(64),
                    out,
                })
            }
            name if name.starts_with("inv") => {
                let mv: f64 = name[3..].parse().map_err(|_| {
                    WireError::job("unknown_function", index, format!("bad inv name {name:?}"))
                })?;
                nl.vsource("V1", a, Netlist::GROUND, Waveform::Dc(mv / 1000.0))
                    .unwrap();
                nl.resistor("R1", a, out, 1e4).unwrap();
                let mos = MosParams {
                    kp: 2e-5,
                    vth: 0.7,
                    lambda: 0.01,
                    w_over_l: 10.0,
                };
                nl.nmos("M1", out, a, Netlist::GROUND, mos).unwrap();
                Ok(BuiltJob {
                    job: SimJob::op(nl),
                    out,
                })
            }
            other => Err(WireError::job(
                "unknown_function",
                index,
                format!("unknown function {other:?}"),
            )),
        }
    }
}

type ServerThread = std::thread::JoinHandle<std::io::Result<ShutdownReport>>;

fn start_server(config: ServerConfig) -> (SocketAddr, fts_server::ServerHandle, ServerThread) {
    let server = Server::bind(config, Arc::new(TestBuilder)).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    (addr, handle, thread)
}

fn test_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_depth: 64,
        conn_workers: 2,
        ..ServerConfig::default()
    }
}

/// Sends raw bytes and reads the raw response (empty if the server wrote
/// nothing before closing).
fn raw_call(addr: SocketAddr, bytes: &[u8]) -> ClientResponse {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(bytes).expect("write");
    let mut raw = String::new();
    let _ = stream.read_to_string(&mut raw);
    parse_response(&raw).unwrap_or(ClientResponse {
        status: 0,
        body: raw,
    })
}

/// Submits one manifest holding `specs` and returns the minted ids.
fn submit(addr: SocketAddr, specs: &[&str]) -> Vec<u64> {
    let body = format!("{{\"jobs\":[{}]}}", specs.join(","));
    let resp = http_call(addr, "POST", "/v1/jobs", Some(&body)).expect("submit");
    assert_eq!(resp.status, 202, "{}", resp.body);
    Json::parse(&resp.body)
        .unwrap()
        .get("ids")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|v| v.as_f64().unwrap() as u64)
        .collect()
}

fn submit_divider(addr: SocketAddr, n: usize) -> Vec<u64> {
    submit(addr, &vec![r#"{"function":"divider"}"#; n])
}

fn wait_done(addr: SocketAddr, id: u64) -> String {
    loop {
        let resp = http_call(addr, "GET", &format!("/v1/jobs/{id}"), None).expect("status");
        assert_eq!(resp.status, 200, "{}", resp.body);
        if resp.body.contains("\"status\":\"done\"") {
            return resp.body;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn protocol_abuse_maps_to_precise_statuses() {
    let (addr, handle, thread) = start_server(test_config());

    // Malformed request lines → 400.
    for bad in [
        "NOT-HTTP\r\n\r\n",
        "GET /healthz SPAM HTTP/1.1\r\n\r\n",
        "GET healthz HTTP/1.1\r\n\r\n",
        "GET / HTTP/0.9\r\n\r\n",
    ] {
        let resp = raw_call(addr, bad.as_bytes());
        assert_eq!(resp.status, 400, "for {bad:?}: {}", resp.body);
        assert!(
            resp.body.contains("\"code\":\"bad_request\""),
            "{}",
            resp.body
        );
    }

    // Malformed header line → 400.
    let resp = raw_call(addr, b"GET /healthz HTTP/1.1\r\nno-colon-here\r\n\r\n");
    assert_eq!(resp.status, 400, "{}", resp.body);

    // Oversized request head → 431 (pad past max_head_bytes).
    let mut big = String::from("GET /healthz HTTP/1.1\r\n");
    while big.len() <= 16 * 1024 {
        big.push_str("X-Padding: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
    }
    big.push_str("\r\n");
    let resp = raw_call(addr, big.as_bytes());
    assert_eq!(resp.status, 431, "{}", resp.body);

    // Too many header lines → 431.
    let mut many = String::from("GET /healthz HTTP/1.1\r\n");
    for k in 0..80 {
        many.push_str(&format!("X-H{k}: v\r\n"));
    }
    many.push_str("\r\n");
    let resp = raw_call(addr, many.as_bytes());
    assert_eq!(resp.status, 431, "{}", resp.body);

    // Declared body over the limit → 413, before any body bytes are read.
    let resp = raw_call(
        addr,
        b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 10000000\r\n\r\n",
    );
    assert_eq!(resp.status, 413, "{}", resp.body);
    assert!(resp.body.contains("\"code\":\"payload_too_large\""));

    // Present-but-unparseable Content-Length → 400 (RFC 9110; 411 would
    // mean the header is missing).
    for bad_len in ["banana", "-5"] {
        let resp = raw_call(
            addr,
            format!("POST /v1/jobs HTTP/1.1\r\nContent-Length: {bad_len}\r\n\r\n").as_bytes(),
        );
        assert_eq!(resp.status, 400, "for {bad_len:?}: {}", resp.body);
        assert!(
            resp.body.contains("\"code\":\"bad_request\""),
            "{}",
            resp.body
        );
    }

    // Unknown route → 404; known route, wrong method → 405; bad id → 400.
    assert_eq!(http_call(addr, "GET", "/nope", None).unwrap().status, 404);
    assert_eq!(
        http_call(addr, "PUT", "/v1/jobs", None).unwrap().status,
        405
    );
    assert_eq!(
        http_call(addr, "POST", "/healthz", None).unwrap().status,
        405
    );
    assert_eq!(
        http_call(addr, "GET", "/v1/jobs/999", None).unwrap().status,
        404
    );
    assert_eq!(
        http_call(addr, "GET", "/v1/jobs/abc", None).unwrap().status,
        400
    );

    handle.shutdown();
    thread.join().unwrap().unwrap();
}

#[test]
fn truncated_json_is_a_structured_400() {
    let (addr, handle, thread) = start_server(test_config());

    let resp = http_call(addr, "POST", "/v1/jobs", Some(r#"{"jobs":[{"funct"#)).unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains("\"schema_version\":2"), "{}", resp.body);
    assert!(resp.body.contains("\"code\":\"bad_json\""), "{}", resp.body);

    // Valid JSON, invalid manifest shape → structured 400 too.
    let resp = http_call(addr, "POST", "/v1/jobs", Some(r#"{"jobs":{}}"#)).unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);

    handle.shutdown();
    thread.join().unwrap().unwrap();
}

#[test]
fn deeply_nested_json_is_a_structured_400() {
    let (addr, handle, thread) = start_server(test_config());

    // ~20k nested arrays would overflow the connection worker's stack if
    // the parser recursed unboundedly; the depth cap makes it a 400.
    let bomb = "[".repeat(20_000);
    let resp = http_call(addr, "POST", "/v1/jobs", Some(&bomb)).unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains("\"code\":\"bad_json\""), "{}", resp.body);
    assert!(resp.body.contains("nesting"), "{}", resp.body);

    // The worker that parsed the bomb still serves.
    let resp = http_call(addr, "GET", "/healthz", None).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);

    handle.shutdown();
    thread.join().unwrap().unwrap();
}

#[test]
fn slow_loris_hits_the_request_deadline() {
    let config = ServerConfig {
        limits: HttpLimits {
            request_deadline: Duration::from_millis(250),
            ..HttpLimits::default()
        },
        ..test_config()
    };
    let (addr, handle, thread) = start_server(config);

    // Drip one byte at a time, slower than the deadline in total but far
    // faster than the per-read timeout — only the overall wall-clock
    // deadline can end this request.
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    for b in b"GET /healthz HTTP/1.1" {
        if s.write_all(&[*b]).is_err() {
            break; // server already gave up on us
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let mut raw = String::new();
    let _ = s.read_to_string(&mut raw);
    let resp = parse_response(&raw).expect("deadline response");
    assert_eq!(resp.status, 408, "{raw}");
    assert!(resp.body.contains("\"code\":\"timeout\""), "{}", resp.body);

    handle.shutdown();
    thread.join().unwrap().unwrap();
}

#[test]
fn finished_results_are_evicted_beyond_retention() {
    let config = ServerConfig {
        cache_entries: 2,
        workers: 1, // in-order completion → deterministic eviction order
        ..test_config()
    };
    let (addr, handle, thread) = start_server(config);

    let ids = submit_divider(addr, 5);
    wait_done(addr, ids[4]);

    // Only the two most recently completed results survive.
    for &id in &ids[..3] {
        let resp = http_call(addr, "GET", &format!("/v1/jobs/{id}"), None).unwrap();
        assert_eq!(resp.status, 404, "id {id}: {}", resp.body);
    }
    for &id in &ids[3..] {
        let resp = http_call(addr, "GET", &format!("/v1/jobs/{id}"), None).unwrap();
        assert_eq!(resp.status, 200, "id {id}: {}", resp.body);
        assert!(resp.body.contains("\"status\":\"done\""), "{}", resp.body);
    }

    handle.shutdown();
    let report = thread.join().unwrap().unwrap();
    // Eviction bounds retained rows, not the completion count.
    assert_eq!(report.jobs_completed, 5);
}

/// Extracts the raw `"result":{…}` object bytes from a status document —
/// byte identity between cached and cold responses is asserted on these
/// bytes, not on a parse/re-render round trip.
fn result_bytes(body: &str) -> &str {
    let start = body.find("\"result\":").expect("result member") + "\"result\":".len();
    let bytes = &body.as_bytes()[start..];
    let (mut depth, mut in_string, mut escaped) = (0usize, false, false);
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            _ if escaped => escaped = false,
            b'\\' if in_string => escaped = true,
            b'"' => in_string = !in_string,
            b'{' if !in_string => depth += 1,
            b'}' if !in_string => {
                depth -= 1;
                if depth == 0 {
                    return &body[start..=start + i];
                }
            }
            _ => {}
        }
    }
    panic!("unterminated result object in {body}");
}

fn out_v_of(body: &str) -> f64 {
    Json::parse(body)
        .unwrap()
        .get("job")
        .and_then(|j| j.get("result"))
        .and_then(|r| r.get("out_v"))
        .and_then(Json::as_f64)
        .expect("out_v")
}

fn submit_one(addr: SocketAddr, spec: &str) -> u64 {
    submit(addr, &[spec])[0]
}

#[test]
fn cache_hit_serves_byte_identical_result() {
    let (addr, handle, thread) = start_server(test_config());

    // Cold run: a miss that populates the cache.
    let cold_id = submit_one(addr, r#"{"function":"divider"}"#);
    let cold = wait_done(addr, cold_id);
    assert!(cold.contains("\"cache\":{\"key\":\"cache_key/1:"), "{cold}");
    assert!(cold.contains("\"hit\":false"), "{cold}");

    // Identical resubmission: served from the cache, marked as a hit,
    // with byte-identical result bytes (and no recomputation — wall_s 0).
    let hit_id = submit_one(addr, r#"{"function":"divider"}"#);
    assert_ne!(hit_id, cold_id, "hits still mint fresh job ids");
    let hit = wait_done(addr, hit_id);
    assert!(hit.contains("\"hit\":true"), "{hit}");
    assert!(hit.contains("\"wall_s\":0"), "{hit}");
    assert_eq!(
        result_bytes(&cold),
        result_bytes(&hit),
        "hit must serve byte-identical bytes"
    );

    // Bypass: the exact legacy cold path — recomputed, never a hit, and
    // (determinism) byte-identical to what the cache stored.
    let bp_id = submit_one(addr, r#"{"function":"divider","cache":"bypass"}"#);
    let bp = wait_done(addr, bp_id);
    assert!(bp.contains("\"hit\":false"), "{bp}");
    assert_eq!(
        result_bytes(&cold),
        result_bytes(&bp),
        "bypass twin must match cold bytes"
    );

    // The stats document adds up and the flush verb empties the store
    // while the lifetime counters survive.
    let stats = http_call(addr, "GET", "/v1/cache", None).unwrap();
    assert_eq!(stats.status, 200, "{}", stats.body);
    let doc = Json::parse(&stats.body).unwrap();
    assert_eq!(doc.get("schema_version").and_then(Json::as_f64), Some(2.0));
    assert!(
        doc.get("entries").and_then(Json::as_f64).unwrap() >= 1.0,
        "{}",
        stats.body
    );
    assert!(
        doc.get("bytes").and_then(Json::as_f64).unwrap() > 0.0,
        "{}",
        stats.body
    );
    assert!(
        doc.get("hits").and_then(Json::as_f64).unwrap() >= 1.0,
        "{}",
        stats.body
    );
    assert!(
        doc.get("hit_ratio").and_then(Json::as_f64).unwrap() > 0.0,
        "{}",
        stats.body
    );

    let flush = http_call(addr, "DELETE", "/v1/cache", None).unwrap();
    assert_eq!(flush.status, 200, "{}", flush.body);
    assert!(flush.body.contains("\"flushed\":true"), "{}", flush.body);
    let stats = http_call(addr, "GET", "/v1/cache", None).unwrap();
    let doc = Json::parse(&stats.body).unwrap();
    assert_eq!(
        doc.get("entries").and_then(Json::as_f64),
        Some(0.0),
        "{}",
        stats.body
    );
    assert!(
        doc.get("hits").and_then(Json::as_f64).unwrap() >= 1.0,
        "{}",
        stats.body
    );

    // After the flush the same circuit is a miss again.
    let id = submit_one(addr, r#"{"function":"divider"}"#);
    let post = wait_done(addr, id);
    assert!(post.contains("\"hit\":false"), "{post}");

    // A replayed manifest is served from the cache: four distinct jobs
    // solved one at a time, then the same 4-job manifest 19 more times,
    // read 76 hits over 80 lookups on this server's own counters.
    let counters = || {
        let stats = http_call(addr, "GET", "/v1/cache", None).unwrap();
        let doc = Json::parse(&stats.body).unwrap();
        let field = |name: &str| doc.get(name).and_then(Json::as_f64).unwrap();
        (field("hits"), field("misses"))
    };
    http_call(addr, "DELETE", "/v1/cache", None).unwrap();
    let (hits0, misses0) = counters();
    let specs = ["divider", "inv1000", "inv2000", "inv3000"]
        .map(|name| format!(r#"{{"function":"{name}"}}"#));
    let specs = specs.each_ref().map(String::as_str);
    for spec in specs {
        wait_done(addr, submit_one(addr, spec));
    }
    for _ in 1..20 {
        for id in submit(addr, &specs) {
            wait_done(addr, id);
        }
    }
    let (hits, misses) = counters();
    let (hits, misses) = (hits - hits0, misses - misses0);
    let hit_ratio = hits / (hits + misses);
    assert!(
        hit_ratio >= 0.9,
        "hit ratio {hit_ratio} ({hits} hits, {misses} misses) on a replayed manifest"
    );

    handle.shutdown();
    thread.join().unwrap().unwrap();
}

#[test]
fn unknown_cache_mode_is_a_structured_400() {
    let (addr, handle, thread) = start_server(test_config());
    let resp = http_call(
        addr,
        "POST",
        "/v1/jobs",
        Some(r#"{"jobs":[{"function":"divider","cache":"sometimes"}]}"#),
    )
    .unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(
        resp.body.contains("\"code\":\"unknown_cache_mode\""),
        "{}",
        resp.body
    );
    assert!(resp.body.contains("\"schema_version\":2"), "{}", resp.body);
    handle.shutdown();
    thread.join().unwrap().unwrap();
}

#[test]
fn warm_started_miss_matches_cold_solution() {
    let (addr, handle, thread) = start_server(test_config());

    // Cold run at 2.0 V stores an operating point for the inverter
    // topology in the warm-start index.
    let id = submit_one(addr, r#"{"function":"inv2000"}"#);
    wait_done(addr, id);

    // Reference: 2.1 V solved completely cold (bypass never reads the
    // cache, so it can't be warm-started).
    let id = submit_one(addr, r#"{"function":"inv2100","cache":"bypass"}"#);
    let cold = wait_done(addr, id);

    // 2.1 V in default mode: a different key (miss) over the same
    // topology, so Newton is seeded from the 2.0 V solution. The seed
    // may change the iteration path but must not move the answer.
    let id = submit_one(addr, r#"{"function":"inv2100"}"#);
    let warm = wait_done(addr, id);
    assert!(warm.contains("\"hit\":false"), "{warm}");

    let (cold_v, warm_v) = (out_v_of(&cold), out_v_of(&warm));
    assert!(
        (cold_v - warm_v).abs() <= 1e-9,
        "warm-started solution drifted: cold {cold_v} vs warm {warm_v}"
    );

    // The warm run was recorded as such in telemetry.
    let resp = http_call(addr, "GET", "/metrics", None).unwrap();
    assert!(
        resp.body
            .contains("fts_histogram_count{name=\"cache.warm.newton_iterations\"}"),
        "no warm-start telemetry in:\n{}",
        resp.body
    );

    // Warm starts save Newton iterations. After a flush, supplies farther
    // apart than the warm index's nearness guard each solve cold, and
    // every 5 mV step past the last of them is seeded by its predecessor.
    // A job's count is the `a` of its own journal's `op_solved` event,
    // not the process-wide `/metrics` histograms other tests also write.
    http_call(addr, "DELETE", "/v1/cache", None).unwrap();
    let mean_iterations = |supplies_mv: &[u32]| {
        let total: f64 = supplies_mv
            .iter()
            .map(|mv| {
                let id = submit_one(addr, &format!(r#"{{"function":"inv{mv}"}}"#));
                wait_done(addr, id);
                let trace = http_call(addr, "GET", &format!("/v1/jobs/{id}/trace"), None).unwrap();
                Json::parse(&trace.body)
                    .unwrap()
                    .get("events")
                    .and_then(Json::as_array)
                    .unwrap()
                    .iter()
                    .find(|e| e.get("kind").and_then(Json::as_str) == Some("op_solved"))
                    .and_then(|e| e.get("a").and_then(Json::as_f64))
                    .unwrap_or_else(|| panic!("no op_solved event in {}", trace.body))
            })
            .sum();
        total / supplies_mv.len() as f64
    };
    let cold = mean_iterations(&[1000, 1500, 2250, 3400]);
    let warm = mean_iterations(&(1..=16).map(|k| 2250 + 5 * k).collect::<Vec<_>>());
    assert!(
        warm < cold,
        "warm-started mean {warm} Newton iterations is not below the cold mean {cold}"
    );

    handle.shutdown();
    thread.join().unwrap().unwrap();
}

#[test]
fn dropped_connections_leave_the_server_healthy() {
    let (addr, handle, thread) = start_server(test_config());

    // Drop mid-request: partial head, then close.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"POST /v1/jobs HT").unwrap();
    }
    // Drop mid-response: full request, close without reading the reply.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        let body = r#"{"jobs":[{"function":"divider"}]}"#;
        s.write_all(
            format!(
                "POST /v1/jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
        // Closing here races the server's write; either way it must not
        // take the server down.
    }
    // Drop a declared-but-never-sent body: the read times out or sees EOF.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 10\r\n\r\n")
            .unwrap();
    }

    // The server still answers.
    let resp = http_call(addr, "GET", "/healthz", None).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"status\":\"ok\""));

    handle.shutdown();
    let report = thread.join().unwrap().unwrap();
    // The mid-response submission may or may not have been admitted
    // (depends on when the client vanished), but nothing may be lost:
    // every admitted job completed.
    assert!(report.jobs_completed <= 1);
}

#[test]
fn healthz_metrics_and_status_lifecycle() {
    let (addr, handle, thread) = start_server(test_config());

    let ids = submit_divider(addr, 2);
    let done = wait_done(addr, ids[0]);
    assert!(done.contains("\"kind\":\"op\""), "{done}");
    let doc = Json::parse(&done).unwrap();
    let out_v = doc
        .get("job")
        .and_then(|j| j.get("result"))
        .and_then(|r| r.get("out_v"))
        .and_then(Json::as_f64)
        .unwrap();
    assert!((out_v - 1.0).abs() < 1e-6, "divider out_v = {out_v}");
    wait_done(addr, ids[1]);

    let resp = http_call(addr, "GET", "/metrics", None).unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.body.contains("fts_jobs_completed 2"), "{}", resp.body);
    assert!(resp.body.contains("fts_queue_depth 64"), "{}", resp.body);
    assert!(
        resp.body
            .contains("fts_counter{name=\"server.jobs.admitted\"}"),
        "{}",
        resp.body
    );

    handle.shutdown();
    let report = thread.join().unwrap().unwrap();
    assert_eq!(report.jobs_completed, 2);
}

#[test]
fn deck_endpoint_runs_and_reports_structured_errors() {
    let (addr, handle, thread) = start_server(test_config());

    // A raw SPICE deck body: one admitted job per analysis card, with the
    // deck's ordinal analysis labels.
    let deck = "v1 a 0 dc 2\nr1 a out 1k\nr2 out 0 1k\n.op\n.probe v(out)\n";
    let resp = http_call(addr, "POST", "/v1/decks", Some(deck)).unwrap();
    assert_eq!(resp.status, 202, "{}", resp.body);
    let ids: Vec<u64> = Json::parse(&resp.body)
        .unwrap()
        .get("ids")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|v| v.as_f64().unwrap() as u64)
        .collect();
    assert_eq!(ids.len(), 1, "{}", resp.body);
    let done = wait_done(addr, ids[0]);
    assert!(done.contains("\"label\":\"op-0\""), "{done}");
    let doc = Json::parse(&done).unwrap();
    let out_v = doc
        .get("job")
        .and_then(|j| j.get("result"))
        .and_then(|r| r.get("out_v"))
        .and_then(Json::as_f64)
        .unwrap();
    assert!((out_v - 1.0).abs() < 1e-6, "deck divider out_v = {out_v}");

    // A malformed deck answers 400 with the deck's structured error code
    // and a 1-based line/column.
    let resp = http_call(
        addr,
        "POST",
        "/v1/decks",
        Some("v1 a 0 dc 1\nr1 a b\n.op\n"),
    )
    .unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);
    let doc = Json::parse(&resp.body).unwrap();
    let err = doc.get("error").expect("error object");
    assert!(
        err.get("code").and_then(Json::as_str).is_some(),
        "{}",
        resp.body
    );
    assert_eq!(
        err.get("line").and_then(Json::as_f64),
        Some(2.0),
        "{}",
        resp.body
    );
    assert!(
        err.get("col").and_then(Json::as_f64).is_some(),
        "{}",
        resp.body
    );

    // Wrong method on the deck route → 405.
    assert_eq!(
        http_call(addr, "GET", "/v1/decks", None).unwrap().status,
        405
    );

    handle.shutdown();
    thread.join().unwrap().unwrap();
}

#[test]
fn cancel_vs_complete_race_is_consistent() {
    let (addr, handle, thread) = start_server(test_config());
    let ids = submit_divider(addr, 16);

    // Cancel every job from racing client threads while the two sim
    // workers chew through the queue.
    std::thread::scope(|scope| {
        for chunk in ids.chunks(4) {
            scope.spawn(move || {
                for &id in chunk {
                    let resp = http_call(addr, "DELETE", &format!("/v1/jobs/{id}"), None).unwrap();
                    assert_eq!(resp.status, 200, "{}", resp.body);
                    assert!(resp.body.contains("\"cancelled\":true"), "{}", resp.body);
                    let was_valid = [
                        "\"was\":\"queued\"",
                        "\"was\":\"running\"",
                        "\"was\":\"done\"",
                    ]
                    .iter()
                    .any(|w| resp.body.contains(w));
                    assert!(was_valid, "{}", resp.body);
                }
            });
        }
    });

    // Whoever won each race, the terminal state must be coherent: done,
    // with either the real result or a clean cancellation — and cancels
    // must be idempotent.
    for &id in &ids {
        let done = wait_done(addr, id);
        assert!(
            done.contains("\"kind\":\"op\"") || done.contains("\"kind\":\"cancelled\""),
            "{done}"
        );
        let again = http_call(addr, "DELETE", &format!("/v1/jobs/{id}"), None).unwrap();
        assert_eq!(again.status, 200);
        assert!(again.body.contains("\"was\":\"done\""), "{}", again.body);
    }

    handle.shutdown();
    let report = thread.join().unwrap().unwrap();
    assert_eq!(report.jobs_completed, 16);
}

#[test]
fn shutdown_drains_in_flight_jobs() {
    let (addr, _handle, thread) = start_server(test_config());

    // Four slow transients on two workers: two run, two queue.
    let body = r#"{"jobs":[{"function":"slow"},{"function":"slow"},{"function":"slow"},{"function":"slow"}]}"#;
    let resp = http_call(addr, "POST", "/v1/jobs", Some(body)).unwrap();
    assert_eq!(resp.status, 202, "{}", resp.body);

    // Wait until at least one job is actually running, so shutdown races
    // real in-flight work.
    loop {
        let resp = http_call(addr, "GET", "/v1/jobs/0", None).unwrap();
        if resp.body.contains("\"status\":\"running\"") || resp.body.contains("\"status\":\"done\"")
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }

    let resp = http_call(addr, "POST", "/v1/shutdown", None).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"shutting_down\":true"));

    let report = thread.join().unwrap().unwrap();
    assert_eq!(
        report.jobs_completed, 4,
        "graceful shutdown must finish every admitted job"
    );
    assert_eq!(report.submissions_rejected, 0);
    assert!(
        report.telemetry.contains("server.jobs.admitted"),
        "final telemetry report must be flushed:\n{}",
        report.telemetry
    );
}

#[test]
fn submissions_during_drain_get_503() {
    // Direct service-level check of the drain gate through HTTP is racy
    // (the accept loop stops with shutdown), so pin the 429 overload path
    // instead, which uses the same all-or-nothing admission: a queue of
    // depth 2 cannot take a 3-job manifest on top of a slow job.
    let config = ServerConfig {
        queue_depth: 2,
        workers: 1,
        ..test_config()
    };
    let (addr, handle, thread) = start_server(config);

    let slow = r#"{"jobs":[{"function":"slow"},{"function":"slow"},{"function":"slow"}]}"#;
    let resp = http_call(addr, "POST", "/v1/jobs", Some(slow)).unwrap();
    // 3 jobs > depth 2 can still be admitted if the worker already pulled
    // one off the queue; submit until we see the rejection.
    let mut saw_429 = resp.status == 429;
    for _ in 0..10 {
        if saw_429 {
            break;
        }
        let r = http_call(addr, "POST", "/v1/jobs", Some(slow)).unwrap();
        saw_429 = r.status == 429;
    }
    assert!(saw_429, "expected a 429 against queue_depth=2");

    handle.shutdown();
    let report = thread.join().unwrap().unwrap();
    assert!(report.submissions_rejected >= 1);
}
