//! End-to-end coordinator tests against a live in-process fleet:
//! routing, proxied status under the coordinator's own ids, listing, the
//! unified error envelope, worker-death and restart recovery, binding
//! cancels, and the cascading drain.

use std::sync::Arc;
use std::time::Duration;

use fts_engine::{Engine, SimJob};
use fts_server::service::{BuiltJob, JobBuilder};
use fts_server::wire::{member_span, outcome_json, JobSource, JobSpec, Json, WireError};
use fts_server::{
    ClientError, Coordinator, CoordinatorConfig, Server, ServerConfig, ShutdownReport, WireClient,
};
use fts_spice::analysis::TranConfig;
use fts_spice::netlist::{Netlist, Waveform};
use fts_spice::CancelToken;

/// The same DC divider the service tests use: out = vdd · R2/(R1+R2),
/// with the source voltage selectable per job (`divider<mv>`), so
/// different jobs have distinguishable deterministic results. `"slow"`
/// is the 100k-step RC transient `http_service.rs` uses, to hold a
/// worker's simulation thread busy.
struct DividerBuilder;

fn divider_netlist(vdd: f64) -> (Netlist, fts_spice::NodeId) {
    let mut nl = Netlist::new();
    let a = nl.node("a");
    let out = nl.node("out");
    nl.vsource("V1", a, Netlist::GROUND, Waveform::Dc(vdd))
        .unwrap();
    nl.resistor("R1", a, out, 1e3).unwrap();
    nl.resistor("R2", out, Netlist::GROUND, 1e3).unwrap();
    (nl, out)
}

impl JobBuilder for DividerBuilder {
    fn build(&self, spec: &JobSpec, index: usize) -> Result<BuiltJob, WireError> {
        let JobSource::Function { name, .. } = &spec.source else {
            unreachable!("deck jobs are lowered by build_job, not the builder");
        };
        if name == "slow" {
            let mut nl = Netlist::new();
            let a = nl.node("a");
            let out = nl.node("out");
            nl.vsource("V1", a, Netlist::GROUND, Waveform::Dc(1.0))
                .unwrap();
            nl.resistor("R1", a, out, 1e4).unwrap();
            nl.capacitor("C1", out, Netlist::GROUND, 1e-9).unwrap();
            return Ok(BuiltJob {
                job: SimJob::transient(nl, TranConfig::fixed(1e-8, 1e-3))
                    .probes(&[out])
                    .max_samples(64),
                out,
            });
        }
        let Some(mv) = name
            .strip_prefix("divider")
            .and_then(|s| s.parse::<u32>().ok())
        else {
            return Err(WireError::job(
                "unknown_function",
                index,
                format!("unknown function {name:?}"),
            ));
        };
        let (nl, out) = divider_netlist(f64::from(mv) / 1000.0);
        Ok(BuiltJob {
            job: SimJob::op(nl),
            out,
        })
    }
}

/// The result object a direct engine run produces for `divider<mv>` —
/// the byte-identity reference for served results.
fn direct_result(mv: u32) -> String {
    let (nl, out) = divider_netlist(f64::from(mv) / 1000.0);
    let job = SimJob::op(nl);
    let (outcome, _stats) = Engine::new()
        .threads(1)
        .run_single(&job, &CancelToken::new());
    outcome_json(&outcome, out, false)
}

type ServerThread = std::thread::JoinHandle<std::io::Result<ShutdownReport>>;

fn start_worker(addr: &str) -> (String, fts_server::ServerHandle, ServerThread) {
    start_worker_threads(addr, 2)
}

fn start_worker_threads(
    addr: &str,
    workers: usize,
) -> (String, fts_server::ServerHandle, ServerThread) {
    let server = Server::bind(
        ServerConfig {
            addr: addr.to_owned(),
            workers,
            conn_workers: 2,
            ..ServerConfig::default()
        },
        Arc::new(DividerBuilder),
    )
    .expect("worker bind");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    (addr, handle, thread)
}

fn start_coordinator(workers: Vec<String>) -> (WireClient, fts_server::ServerHandle, ServerThread) {
    let coordinator = Coordinator::bind(
        CoordinatorConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers,
            probe_interval: Duration::from_millis(50),
            conn_workers: 2,
            ..CoordinatorConfig::default()
        },
        Arc::new(DividerBuilder),
    )
    .expect("coordinator bind");
    let addr = coordinator.local_addr().expect("local addr").to_string();
    let handle = coordinator.handle();
    let thread = std::thread::spawn(move || coordinator.run());
    (WireClient::new(addr), handle, thread)
}

/// Submits in `"cache":"bypass"` mode: these tests assert byte-identity
/// against a cold direct engine run, so neither cache hits nor
/// warm-started Newton solves may enter the picture. (The dedicated
/// cache test below exercises default mode.)
fn submit_dividers(client: &WireClient, mvs: &[u32]) -> Vec<u64> {
    let jobs: Vec<String> = mvs
        .iter()
        .map(|mv| format!("{{\"function\":\"divider{mv}\",\"cache\":\"bypass\"}}"))
        .collect();
    client
        .submit_manifest(&format!("{{\"jobs\":[{}]}}", jobs.join(",")))
        .expect("submit")
}

const POLL: Duration = Duration::from_millis(5);

#[test]
fn coordinator_proxies_jobs_with_byte_identical_results() {
    let (w0, h0, t0) = start_worker("127.0.0.1:0");
    let (w1, h1, t1) = start_worker("127.0.0.1:0");
    let (client, coord_handle, coord_thread) = start_coordinator(vec![w0, w1]);

    let mvs: Vec<u32> = (0..8).map(|k| 1000 + 250 * k).collect();
    let ids = submit_dividers(&client, &mvs);
    assert_eq!(ids, (0..8).collect::<Vec<u64>>(), "global ids in order");

    for (&id, &mv) in ids.iter().zip(&mvs) {
        let body = client.wait_done(id, POLL).expect("wait");
        // The proxied document carries the GLOBAL id...
        assert!(body.contains(&format!("\"id\":{id},")), "{body}");
        // ...the label the coordinator pinned before forwarding...
        assert!(
            body.contains(&format!("\"label\":\"divider{mv}-")),
            "{body}"
        );
        // ...and the byte-identical result object a direct run produces.
        assert!(
            body.contains(&format!("\"result\":{}", direct_result(mv))),
            "served body diverges from direct engine run for divider{mv}:\n{body}"
        );
    }

    // Healthz shows the fleet; listing pages the registry with worker
    // attribution.
    let health = client.healthz().expect("healthz");
    assert!(health.contains("\"role\":\"coordinator\""), "{health}");
    assert!(health.contains("\"total\":2,\"up\":2"), "{health}");
    let page = client.list(Some("done"), None, Some(500)).expect("list");
    let doc = Json::parse(&page).unwrap();
    let rows = doc.get("jobs").and_then(Json::as_array).unwrap();
    assert_eq!(rows.len(), 8, "{page}");
    for row in rows {
        assert_eq!(row.get("kind").and_then(Json::as_str), Some("op"));
        assert!(row.get("worker").and_then(Json::as_str).is_some());
    }

    // Metrics: the worker-up gauge and per-worker route counters.
    let metrics = client.metrics().expect("metrics");
    assert_eq!(
        metrics
            .lines()
            .filter(|l| l.starts_with("fts_coordinator_worker_up{") && l.ends_with(" 1"))
            .count(),
        2,
        "{metrics}"
    );
    let routed: u64 = metrics
        .lines()
        .filter(|l| l.starts_with("fts_coordinator_worker_routed_total{"))
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum();
    assert_eq!(routed, 8, "{metrics}");

    // Error envelope: a bad manifest 400s with the same WireError shape,
    // decoded by the client into a structured ApiError.
    match client.submit_manifest("{\"jobs\":[{\"function\":\"nope\"}]}") {
        Err(ClientError::Api(e)) => {
            assert_eq!(e.status, 400);
            assert_eq!(e.code, "unknown_function");
            assert_eq!(e.job, Some(0));
        }
        other => panic!("expected structured 400, got {other:?}"),
    }
    // Unknown id → envelope 404; bad listing cursor → envelope 400.
    match client.status(999) {
        Err(ClientError::Api(e)) => assert_eq!((e.status, e.code.as_str()), (404, "not_found")),
        other => panic!("expected 404, got {other:?}"),
    }
    match client.list(None, None, Some(100_000)) {
        Err(ClientError::Api(e)) => {
            assert_eq!((e.status, e.code.as_str()), (400, "invalid_limit"));
        }
        other => panic!("expected 400, got {other:?}"),
    }

    // Cascading drain: shutting the coordinator down also drains both
    // workers — their run() threads return without explicit shutdown.
    coord_handle.shutdown();
    let report = coord_thread.join().unwrap().expect("coordinator run");
    assert_eq!(report.jobs_completed, 8);
    let w0_report = t0.join().unwrap().expect("worker 0 run");
    let w1_report = t1.join().unwrap().expect("worker 1 run");
    assert_eq!(w0_report.jobs_completed + w1_report.jobs_completed, 8);
    drop((h0, h1));
}

/// Sums the per-worker routed counters from a coordinator scrape.
fn routed_total(metrics: &str) -> u64 {
    metrics
        .lines()
        .filter(|l| l.starts_with("fts_coordinator_worker_routed_total{"))
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum()
}

#[test]
fn coordinator_cache_hit_is_byte_identical_and_flush_fans_out() {
    let (w0, h0, t0) = start_worker("127.0.0.1:0");
    let (client, coord_handle, coord_thread) = start_coordinator(vec![w0]);
    let manifest = "{\"jobs\":[{\"function\":\"divider1900\"}]}";
    let want = format!("\"result\":{}", direct_result(1900));

    // Cold: routed to the worker; reading the result populates the
    // coordinator's own cache.
    let ids = client.submit_manifest(manifest).expect("cold submit");
    let cold = client.wait_done(ids[0], POLL).expect("cold wait");
    assert!(cold.contains("\"hit\":false"), "{cold}");
    assert!(cold.contains(&want), "{cold}");

    // Hit: the identical resubmission is answered from the coordinator's
    // cache — done at admission, byte-identical result, nothing routed.
    let ids = client.submit_manifest(manifest).expect("hit submit");
    let hit = client.wait_done(ids[0], POLL).expect("hit wait");
    assert!(hit.contains("\"hit\":true"), "{hit}");
    assert!(hit.contains("\"wall_s\":0"), "{hit}");
    assert!(
        hit.contains(&want),
        "cached result diverges from the direct run:\n{hit}"
    );
    let metrics = client.metrics().expect("metrics");
    assert_eq!(
        routed_total(&metrics),
        1,
        "a hit must not route:\n{metrics}"
    );
    assert!(metrics.contains("fts_cache_hits_total 1"), "{metrics}");

    // Stats aggregate the coordinator's own store with every worker's.
    let stats = client.cache_stats().expect("cache stats");
    let doc = Json::parse(&stats).unwrap();
    assert_eq!(doc.get("schema_version").and_then(Json::as_f64), Some(2.0));
    assert!(
        doc.get("hits").and_then(Json::as_f64).unwrap() >= 1.0,
        "{stats}"
    );
    assert!(
        doc.get("entries").and_then(Json::as_f64).unwrap() >= 1.0,
        "{stats}"
    );
    assert!(doc.get("coordinator").is_some(), "{stats}");
    let workers = doc
        .get("workers")
        .and_then(Json::as_array)
        .expect("workers");
    assert_eq!(workers.len(), 1, "{stats}");

    // Flush fans out: both the coordinator's store and the worker's
    // empty, so the resubmission is a miss that routes again.
    let flushed = client.cache_flush().expect("cache flush");
    assert!(flushed.contains("\"flushed\":true"), "{flushed}");
    let stats = client.cache_stats().expect("stats after flush");
    let doc = Json::parse(&stats).unwrap();
    assert_eq!(
        doc.get("entries").and_then(Json::as_f64),
        Some(0.0),
        "{stats}"
    );
    let workers = doc
        .get("workers")
        .and_then(Json::as_array)
        .expect("workers");
    assert_eq!(
        workers[0].get("entries").and_then(Json::as_f64),
        Some(0.0),
        "worker cache must be flushed too: {stats}"
    );

    let ids = client.submit_manifest(manifest).expect("post-flush submit");
    let post = client.wait_done(ids[0], POLL).expect("post-flush wait");
    assert!(post.contains("\"hit\":false"), "{post}");
    assert!(post.contains(&want), "{post}");
    let metrics = client.metrics().expect("metrics");
    assert_eq!(routed_total(&metrics), 2, "{metrics}");

    coord_handle.shutdown();
    let report = coord_thread.join().unwrap().expect("coordinator run");
    assert_eq!(report.jobs_completed, 3, "cold + hit + post-flush rerun");
    t0.join().unwrap().expect("worker run");
    drop(h0);
}

#[test]
fn killed_worker_jobs_reroute_and_none_are_lost() {
    let (w0, h0, t0) = start_worker("127.0.0.1:0");
    let (w1, h1, t1) = start_worker("127.0.0.1:0");
    let (client, coord_handle, coord_thread) = start_coordinator(vec![w0.clone(), w1]);

    let mvs: Vec<u32> = (0..10).map(|k| 1500 + 100 * k).collect();
    let ids = submit_dividers(&client, &mvs);

    // Rolling restart, phase 1: take worker 0 down (graceful drain —
    // but the coordinator hasn't read the results yet, so from its view
    // those jobs vanish: the restarted process answers 404).
    h0.shutdown();
    t0.join().unwrap().expect("worker 0 first run");

    // Phase 2: restart on the SAME address (SO_REUSEADDR makes the
    // rebind immediate despite TIME_WAIT) with a fresh, empty registry.
    let (w0_again, h0b, t0b) = start_worker(&w0);
    assert_eq!(w0_again, w0, "restart must reclaim the same address");

    // Every job still completes with the right deterministic result:
    // jobs the dead worker held are re-routed (to the survivor or the
    // restarted twin) on poll.
    for (&id, &mv) in ids.iter().zip(&mvs) {
        let body = client.wait_done(id, POLL).expect("wait");
        assert!(
            body.contains(&format!("\"result\":{}", direct_result(mv))),
            "job {id} (divider{mv}) lost or wrong after worker restart:\n{body}"
        );
    }

    coord_handle.shutdown();
    let report = coord_thread.join().unwrap().expect("coordinator run");
    assert_eq!(report.jobs_completed, 10, "zero dropped jobs");
    t1.join().unwrap().expect("worker 1 run");
    t0b.join().unwrap().expect("worker 0 second run");
    drop((h1, h0b));
}

/// The stranded-job aliasing regression: a job whose re-placement found
/// no taker holds no remote id. If the coordinator kept polling the
/// dead placement's id (worker-local ids restart at 0), a restarted
/// worker's id 0 — some *other* job — would be served as this job's
/// result. The stranded job must instead re-place and produce its own
/// result.
#[test]
fn stranded_job_never_reads_another_jobs_result() {
    let (w0, h0, t0) = start_worker("127.0.0.1:0");
    let (client, coord_handle, coord_thread) = start_coordinator(vec![w0.clone()]);

    // Lands as remote id 0 on the only worker.
    let ids = submit_dividers(&client, &[1700]);
    h0.shutdown();
    t0.join().unwrap().expect("worker first run");

    // Poll with the fleet empty: re-placement has no candidate (the
    // dead owner is excluded), so the job strands as synthetic queued.
    let body = client.status(ids[0]).expect("status while stranded");
    assert!(body.contains("\"status\":\"queued\""), "{body}");

    // Restart on the same address and land a DIFFERENT job first, so
    // the fresh registry's id 0 belongs to divider2400 — the very id
    // the stranded job held on the dead twin.
    let (w0_again, h0b, t0b) = start_worker(&w0);
    assert_eq!(w0_again, w0, "restart must reclaim the same address");
    let other = submit_dividers(&client, &[2400]);
    let other_body = client.wait_done(other[0], POLL).expect("other job");
    assert!(
        other_body.contains(&format!("\"result\":{}", direct_result(2400))),
        "{other_body}"
    );

    let body = client.wait_done(ids[0], POLL).expect("stranded job");
    assert!(
        body.contains(&format!("\"result\":{}", direct_result(1700))),
        "stranded job served another job's result (or the wrong one):\n{body}"
    );

    coord_handle.shutdown();
    let report = coord_thread.join().unwrap().expect("coordinator run");
    assert_eq!(report.jobs_completed, 2);
    t0b.join().unwrap().expect("worker second run");
    drop(h0b);
}

/// An acknowledged cancel is binding: cancelling a job whose owning
/// worker is unreachable must close the job out in the coordinator's
/// registry, never re-route it to a restarted worker.
#[test]
fn cancel_on_unreachable_worker_is_never_resubmitted() {
    let (w0, h0, t0) = start_worker("127.0.0.1:0");
    let (client, coord_handle, coord_thread) = start_coordinator(vec![w0.clone()]);

    let ids = submit_dividers(&client, &[1800]);
    h0.shutdown();
    t0.join().unwrap().expect("worker first run");

    // Cancel while the owner is unreachable: acknowledged...
    let body = client.cancel(ids[0]).expect("cancel");
    assert!(body.contains("\"cancelled\":true"), "{body}");

    // ...and recorded: a fresh worker on the same address must never
    // receive this job, and every status poll stays terminal.
    let (w0_again, h0b, t0b) = start_worker(&w0);
    assert_eq!(w0_again, w0, "restart must reclaim the same address");
    for _ in 0..5 {
        let status = client.status(ids[0]).expect("status");
        assert!(status.contains("\"status\":\"done\""), "{status}");
        assert!(status.contains("\"kind\":\"cancelled\""), "{status}");
        std::thread::sleep(POLL);
    }

    coord_handle.shutdown();
    coord_thread.join().unwrap().expect("coordinator run");
    let worker_report = t0b.join().unwrap().expect("worker second run");
    assert_eq!(
        worker_report.jobs_completed, 0,
        "cancelled job must not re-run on the restarted worker"
    );
    drop(h0b);
}

#[test]
fn fleet_down_submissions_answer_no_workers() {
    // A worker that exists only long enough to learn its port, then dies.
    let (w0, h0, t0) = start_worker("127.0.0.1:0");
    h0.shutdown();
    t0.join().unwrap().expect("worker run");

    let (client, coord_handle, coord_thread) = start_coordinator(vec![w0]);
    match client.submit_manifest("{\"jobs\":[{\"function\":\"divider2000\"}]}") {
        Err(ClientError::Api(e)) => {
            assert_eq!(e.status, 503, "{e:?}");
            assert_eq!(e.code, "no_workers", "{e:?}");
        }
        other => panic!("expected 503 no_workers, got {other:?}"),
    }
    // Validation still runs before placement: a bad manifest is a 400
    // even with the whole fleet down.
    match client.submit_manifest("{\"jobs\":[{\"function\":\"nope\"}]}") {
        Err(ClientError::Api(e)) => assert_eq!(e.status, 400),
        other => panic!("expected 400, got {other:?}"),
    }

    coord_handle.shutdown();
    let report = coord_thread.join().unwrap().expect("coordinator run");
    assert_eq!(report.jobs_completed, 0);
}

/// A clean restart reissues remote ids from 0. Job B, re-placed first,
/// lands on the remote id job A held before the restart; A's next poll
/// fetches that id and finds B's finished row. The coordinator must
/// reject a row whose `cache.key` is not A's and re-place A instead of
/// serving B's result as A's.
#[test]
fn restarted_worker_never_serves_one_job_another_jobs_row() {
    let (w0, h0, t0) = start_worker("127.0.0.1:0");
    let (client, coord_handle, coord_thread) = start_coordinator(vec![w0.clone()]);

    // Remote ids 0 and 1 on the only worker.
    let ids = submit_dividers(&client, &[1500, 2500]);
    h0.shutdown();
    t0.join().unwrap().expect("worker first run");
    let (w0_again, h0b, t0b) = start_worker(&w0);
    assert_eq!(w0_again, w0, "restart must reclaim the same address");

    // The second job is polled first: its 404 re-places it as the
    // restarted worker's remote id 0 — the id the first job still holds.
    let second = client.wait_done(ids[1], POLL).expect("second job");
    assert!(
        second.contains(&format!("\"result\":{}", direct_result(2500))),
        "{second}"
    );

    let first = client.wait_done(ids[0], POLL).expect("first job");
    assert!(first.contains("\"label\":\"divider1500-0\""), "{first}");
    assert!(
        first.contains(&format!("\"result\":{}", direct_result(1500))),
        "first job served another job's row:\n{first}"
    );

    coord_handle.shutdown();
    let report = coord_thread.join().unwrap().expect("coordinator run");
    assert_eq!(report.jobs_completed, 2);
    t0b.join().unwrap().expect("worker second run");
    drop(h0b);
}

/// A cancel the owning worker acknowledged is binding even when the
/// worker then restarts and forgets the job: the coordinator closes the
/// job as cancelled instead of re-placing it and running it again.
#[test]
fn acknowledged_cancel_never_reruns_after_a_worker_restart() {
    let (w0, h0, t0) = start_worker_threads("127.0.0.1:0", 1);
    let (client, coord_handle, coord_thread) = start_coordinator(vec![w0.clone()]);

    // One simulation thread: the quick job queues behind the slow one.
    let ids = client
        .submit_manifest(
            "{\"jobs\":[{\"function\":\"slow\",\"cache\":\"bypass\"},\
             {\"function\":\"divider1600\",\"cache\":\"bypass\"}]}",
        )
        .expect("submit");
    let ack = client.cancel(ids[1]).expect("cancel quick job");
    assert!(ack.contains("\"was\":\"queued\""), "{ack}");
    // Stop the slow job too, so the restart does not wait for it.
    client.cancel(ids[0]).expect("cancel slow job");

    // Restart before anyone polls: the cancelled rows die with the old
    // process, and the restarted worker answers 404 for both ids.
    h0.shutdown();
    t0.join().unwrap().expect("worker first run");
    let (w0_again, h0b, t0b) = start_worker_threads(&w0, 1);
    assert_eq!(w0_again, w0, "restart must reclaim the same address");

    let status = client.wait_done(ids[1], POLL).expect("quick job");
    assert!(status.contains("\"kind\":\"cancelled\""), "{status}");

    coord_handle.shutdown();
    coord_thread.join().unwrap().expect("coordinator run");
    let worker_report = t0b.join().unwrap().expect("worker second run");
    assert_eq!(
        worker_report.jobs_completed, 0,
        "an acknowledged cancel must not re-run on the restarted worker"
    );
    drop(h0b);
}

/// An empty manifest is the same structured 400 from either role.
#[test]
fn empty_manifest_is_the_same_400_from_worker_and_coordinator() {
    let (w0, h0, t0) = start_worker("127.0.0.1:0");
    let (coordinator, coord_handle, coord_thread) = start_coordinator(vec![w0.clone()]);
    let worker = WireClient::new(w0);

    let empty = Some("{\"jobs\":[]}");
    let from_worker = worker.call("POST", "/v1/jobs", empty).expect("worker");
    let from_coordinator = coordinator
        .call("POST", "/v1/jobs", empty)
        .expect("coordinator");
    assert_eq!(from_worker.status, 400, "{}", from_worker.body);
    assert!(
        from_worker.body.contains("\"code\":\"empty_manifest\""),
        "{}",
        from_worker.body
    );
    assert_eq!(from_coordinator, from_worker);

    coord_handle.shutdown();
    coord_thread.join().unwrap().expect("coordinator run");
    t0.join().unwrap().expect("worker run");
    drop(h0);
}

/// A multi-analysis deck is placed whole on one worker; its resubmission
/// is answered from the coordinator's cache without routing; and a
/// proxied trace journal carries the coordinator's own id.
#[test]
fn coordinator_routes_decks_whole_and_proxies_traces() {
    let (w0, h0, t0) = start_worker("127.0.0.1:0");
    let (w1, h1, t1) = start_worker("127.0.0.1:0");
    let (client, coord_handle, coord_thread) = start_coordinator(vec![w0, w1]);
    // Job 0 takes id 0, so the deck's analyses get coordinator ids 1 and
    // 2 — ids no worker ever issues for them.
    submit_dividers(&client, &[1000]);
    let deck = "v1 a 0 dc 2\nr1 a out 1k\nr2 out 0 1k\n.op\n.op\n.probe v(out)\n";

    let ids = client.submit_deck(deck).expect("deck submit");
    assert_eq!(ids, vec![1, 2]);
    let cold: Vec<String> = ids
        .iter()
        .map(|&id| client.wait_done(id, POLL).expect("deck job"))
        .collect();
    // The result object's bytes, exactly as served.
    let result = |body: &str| {
        let job = &body[member_span(body, "job").unwrap()];
        job[member_span(job, "result").unwrap()].to_owned()
    };
    for body in &cold {
        let doc = Json::parse(body).unwrap();
        let out_v = doc.get("job").unwrap().get("result").unwrap().get("out_v");
        assert!(
            (out_v.and_then(Json::as_f64).unwrap() - 1.0).abs() < 1e-9,
            "{body}"
        );
    }
    let page = Json::parse(&client.list(Some("done"), None, None).unwrap()).unwrap();
    let workers: Vec<&str> = page
        .get("jobs")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .filter(|row| row.get("id").and_then(Json::as_f64).unwrap() >= 1.0)
        .map(|row| row.get("worker").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(workers.len(), 2);
    assert_eq!(workers[0], workers[1], "a deck is never split");

    let journal = Json::parse(&client.trace(ids[1], false).expect("trace")).unwrap();
    assert_eq!(journal.get("id").and_then(Json::as_f64), Some(2.0));
    assert_eq!(
        journal.get("schema").and_then(Json::as_str),
        Some("fts-trace/1")
    );

    let routed = routed_total(&client.metrics().unwrap());
    let hits = client.submit_deck(deck).expect("deck resubmit");
    for (&id, cold) in hits.iter().zip(&cold) {
        let hit = client.wait_done(id, POLL).expect("deck hit");
        assert!(hit.contains("\"hit\":true"), "{hit}");
        assert_eq!(result(&hit), result(cold));
    }
    assert_eq!(routed_total(&client.metrics().unwrap()), routed);

    coord_handle.shutdown();
    let report = coord_thread.join().unwrap().expect("coordinator run");
    assert_eq!(report.jobs_completed, 5);
    t0.join().unwrap().expect("worker 0 run");
    t1.join().unwrap().expect("worker 1 run");
    drop((h0, h1));
}
