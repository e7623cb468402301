//! The served workloads: an in-process `Server` (or a `Coordinator` over
//! two one-worker `Server`s) driven over loopback HTTP with `WireClient`.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use four_terminal_lattice::batch::PipelineJobBuilder;
use fts_engine::{CacheMode, Engine};
use fts_netlist::export_job;
use fts_server::client::parse_response;
use fts_server::service::{build_job, deck_submissions};
use fts_server::wire::{outcome_json, AnalysisSpec, JobSource, JobSpec, Json};
use fts_server::{
    Coordinator, CoordinatorConfig, Server, ServerConfig, ServerHandle, ShutdownReport, WireClient,
};

use crate::loadgen::{
    Done, Failure, Flight, InFlight, Polled, Record, StepRun, Submitted, Target, OP_TIMEOUT,
};
use crate::rng::Rng;
use crate::workloads::{Mix, Op, Stream, Workload, PATTERNS, SUPPLY_MIN_V, SUPPLY_STEP_V};

/// The running servers of one workload and the client it is driven
/// through.
pub struct Fleet {
    /// The server (or coordinator) every request goes to.
    pub entry: WireClient,
    entry_addr: SocketAddr,
    /// A cluster's worker servers; empty for a single server.
    pub workers: Vec<WireClient>,
    pub builder: Arc<PipelineJobBuilder>,
    /// `sweep_cached`'s exported XOR3 op deck per input pattern, split
    /// around the supply value.
    pub decks: Vec<(String, String)>,
    handles: Vec<ServerHandle>,
    threads: Vec<JoinHandle<std::io::Result<ShutdownReport>>>,
}

fn server_config(workers: usize) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers,
        ..ServerConfig::default()
    }
}

fn spawn_server(
    config: ServerConfig,
    builder: &Arc<PipelineJobBuilder>,
    fleet: &mut Fleet,
) -> std::io::Result<SocketAddr> {
    let server = Server::bind(config, Arc::clone(builder) as _)?;
    let addr = server.local_addr()?;
    fleet.handles.push(server.handle());
    fleet.threads.push(std::thread::spawn(move || server.run()));
    Ok(addr)
}

impl Fleet {
    /// Binds the workload's servers, realizes every function in its mix
    /// with one warm-up job, and flushes the cache: the set-up that
    /// `setup_s` times.
    pub fn start(w: &Workload) -> Result<Fleet, String> {
        let builder = Arc::new(PipelineJobBuilder::new());
        let mut fleet = Fleet {
            entry: WireClient::new(String::new()),
            entry_addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            workers: Vec::new(),
            builder: Arc::clone(&builder),
            decks: Vec::new(),
            handles: Vec::new(),
            threads: Vec::new(),
        };
        let io = |e: std::io::Error| format!("bind: {e}");
        if w.cluster {
            let mut addrs = Vec::new();
            for _ in 0..2 {
                addrs.push(
                    spawn_server(server_config(1), &builder, &mut fleet)
                        .map_err(io)?
                        .to_string(),
                );
            }
            let coordinator = Coordinator::bind(
                CoordinatorConfig {
                    addr: "127.0.0.1:0".to_owned(),
                    workers: addrs.clone(),
                    ..CoordinatorConfig::default()
                },
                Arc::clone(&builder) as _,
            )
            .map_err(io)?;
            fleet.entry_addr = coordinator.local_addr().map_err(io)?;
            fleet.handles.push(coordinator.handle());
            fleet
                .threads
                .push(std::thread::spawn(move || coordinator.run()));
            fleet.workers = addrs.into_iter().map(WireClient::new).collect();
        } else {
            fleet.entry_addr = spawn_server(server_config(0), &builder, &mut fleet).map_err(io)?;
        }
        fleet.entry = WireClient::new(fleet.entry_addr.to_string());
        if w.mix == Mix::SweepCached {
            fleet.decks = export_decks(&builder)?;
        }
        let target = ServeTarget { fleet: &fleet };
        for op in crate::workloads::warmup_ops(w.mix) {
            let id = target
                .submit(&target.prepare(&op))
                .wait()
                .map_err(|f| format!("warm-up: {f:?}"))?;
            loop {
                match target.poll(id).wait() {
                    Ok(Some(_)) => break,
                    Ok(None) => std::thread::sleep(crate::loadgen::POLL_GAP),
                    Err(f) => return Err(format!("warm-up {op:?}: {f:?}")),
                }
            }
        }
        fleet
            .entry
            .cache_flush()
            .map_err(|e| format!("cache flush: {e}"))?;
        Ok(fleet)
    }

    /// Shuts every server down (coordinator first) and waits for each.
    pub fn stop(self) -> Result<(), String> {
        for h in self.handles.iter().rev() {
            h.shutdown();
        }
        for t in self.threads {
            t.join()
                .map_err(|_| "server thread panicked".to_owned())?
                .map_err(|e| format!("server: {e}"))?;
        }
        Ok(())
    }
}

/// The XOR3 op deck of each input pattern, exported once from the
/// builder's own job, split at the supply value so a sweep can vary it.
fn export_decks(builder: &PipelineJobBuilder) -> Result<Vec<(String, String)>, String> {
    const SUPPLY_CARD: &str = "\nvdd vdd 0 dc ";
    (0..PATTERNS)
        .map(|input| {
            let built = build_job(
                builder,
                &function_spec("xor3", AnalysisSpec::Op { input }),
                0,
            )
            .map_err(|e| format!("xor3 build: {e}"))?;
            let deck = export_job(&built.job, built.out)?;
            let at = deck
                .find(SUPPLY_CARD)
                .ok_or("exported deck has no supply card")?
                + SUPPLY_CARD.len();
            let end = at + deck[at..].find('\n').ok_or("unterminated supply card")?;
            Ok((deck[..at].to_owned(), deck[end..].to_owned()))
        })
        .collect()
}

fn function_spec(name: &str, analysis: AnalysisSpec) -> JobSpec {
    JobSpec {
        source: JobSource::Function {
            name: name.to_owned(),
            analysis,
        },
        deadline_ms: None,
        ladder: false,
        label: None,
        waveform: false,
        cache: CacheMode::Bypass,
    }
}

/// The one-job bypass manifest a function operation is sent as.
pub fn manifest_body(name: &str, analysis: &AnalysisSpec) -> String {
    let analysis = match analysis {
        AnalysisSpec::Op { input } => format!("\"analysis\":\"op\",\"input\":{input}"),
        AnalysisSpec::Transient {
            phase_ns,
            dt_ns,
            max_samples,
        } => format!(
            "\"analysis\":\"transient\",\"phase_ns\":{phase_ns},\"dt_ns\":{dt_ns},\"max_samples\":{max_samples}"
        ),
    };
    format!("{{\"jobs\":[{{\"function\":\"{name}\",{analysis},\"cache\":\"bypass\"}}]}}")
}

/// One workload request on the wire.
pub enum Req {
    Manifest(String),
    Deck(String),
}

/// Drives a [`Fleet`] through its entry client.
pub struct ServeTarget<'a> {
    pub fleet: &'a Fleet,
}

impl ServeTarget<'_> {
    pub fn deck_text(&self, pattern: u32, supply: u32) -> String {
        let (head, tail) = &self.fleet.decks[pattern as usize];
        let volts = SUPPLY_MIN_V + SUPPLY_STEP_V * f64::from(supply);
        format!("{head}{volts:.3}{tail}")
    }
}

/// One request on a connection of its own, in the wire protocol's dialect
/// (explicit `Content-Length`, `Connection: close`, reply read to EOF),
/// whose reply is read whenever the caller gets to it. `WireClient` blocks
/// until the reply arrives, and the open-loop poller must never block.
struct HttpFlight<T> {
    stream: TcpStream,
    raw: Vec<u8>,
    sent: Instant,
    decode: fn(u16, &str) -> T,
    fail: fn(Failure) -> T,
}

const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// Writes one request to `addr`; the reply is read later.
fn send<T: Send + 'static>(
    addr: &SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    decode: fn(u16, &str) -> T,
    fail: fn(Failure) -> T,
) -> Flight<T> {
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: fts\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let opened = TcpStream::connect_timeout(addr, CONNECT_TIMEOUT).and_then(|mut s| {
        s.write_all(request.as_bytes())?;
        s.set_nonblocking(true)?;
        Ok(s)
    });
    match opened {
        Ok(stream) => Flight::Pending(Box::new(HttpFlight {
            stream,
            raw: Vec::new(),
            sent: Instant::now(),
            decode,
            fail,
        })),
        Err(e) => Flight::Ready(fail(Failure::Connect(e.to_string()))),
    }
}

impl<T> HttpFlight<T> {
    fn finish(&self) -> T {
        match std::str::from_utf8(&self.raw).ok().and_then(parse_response) {
            Some(r) => (self.decode)(r.status, &r.body),
            None => (self.fail)(Failure::Http("malformed reply".to_owned())),
        }
    }
}

impl<T: Send> InFlight<T> for HttpFlight<T> {
    fn try_take(&mut self) -> Option<T> {
        let mut chunk = [0u8; 8192];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Some(self.finish()),
                Ok(n) => self.raw.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    return (self.sent.elapsed() > OP_TIMEOUT)
                        .then(|| (self.fail)(Failure::Timeout));
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Some((self.fail)(Failure::Connect(e.to_string()))),
            }
        }
    }

    fn wait(mut self: Box<Self>) -> T {
        let read = self
            .stream
            .set_nonblocking(false)
            .and_then(|()| self.stream.set_read_timeout(Some(OP_TIMEOUT)))
            .and_then(|()| self.stream.read_to_end(&mut self.raw));
        match read {
            Ok(_) => self.finish(),
            Err(e) => (self.fail)(Failure::Connect(e.to_string())),
        }
    }
}

fn decode_submit(status: u16, body: &str) -> Submitted {
    match status {
        429 => return Err(Failure::Refused),
        s if s >= 400 => return Err(Failure::Http(format!("{s}: {body}"))),
        _ => {}
    }
    let doc = Json::parse(body).map_err(|e| Failure::Http(format!("admission body: {e}")))?;
    match doc.get("ids").and_then(Json::as_array) {
        Some([id]) => id
            .as_f64()
            .map(|x| x as u64)
            .ok_or_else(|| Failure::Http(format!("bad id in {body}"))),
        _ => Err(Failure::Http(format!("expected one job id: {body}"))),
    }
}

fn decode_poll(status: u16, body: &str) -> Polled {
    match status {
        404 => Err(Failure::Evicted),
        s if s >= 400 => Err(Failure::Http(format!("{s}: {body}"))),
        _ if !body.contains("\"status\":\"done\"") => Ok(None),
        _ => parse_done(body).map(Some),
    }
}

/// The JSON value that starts at `from` in `text` (an object, array,
/// string or scalar), as raw bytes.
fn json_value_at(text: &str, from: usize) -> Option<&str> {
    let bytes = text.as_bytes();
    let (mut depth, mut in_str, mut escaped) = (0i32, false, false);
    for (i, &b) in bytes.iter().enumerate().skip(from) {
        if in_str {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_str = true,
            b'{' | b'[' => depth += 1,
            b'}' | b']' if depth == 0 => return Some(&text[from..i]),
            b'}' | b']' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&text[from..=i]);
                }
            }
            b',' if depth == 0 => return Some(&text[from..i]),
            _ => {}
        }
    }
    None
}

/// The raw value of the first `"name":` member in `text`.
pub fn member<'t>(text: &'t str, name: &str) -> Option<&'t str> {
    let key = format!("\"{name}\":");
    let at = text.find(&key)? + key.len();
    json_value_at(text, at)
}

/// Reads a done job's status document.
fn parse_done(body: &str) -> Result<Done, Failure> {
    let row = member(body, "job").ok_or_else(|| Failure::Http(format!("no job row: {body}")))?;
    let kind = member(row, "kind").unwrap_or("\"?\"").trim_matches('"');
    if kind != "op" && kind != "transient" {
        return Err(Failure::Outcome(kind.to_owned()));
    }
    let number = |name| member(row, name).and_then(|v| v.parse::<f64>().ok());
    Ok(Done {
        result: member(row, "result")
            .ok_or_else(|| Failure::Http(format!("no result: {body}")))?
            .to_owned(),
        wall_s: number("wall_s").unwrap_or(f64::NAN),
        attempts: number("attempts").unwrap_or(0.0) as u32,
        hit: row.contains("\"hit\":true"),
        queue_s: None,
    })
}

impl Target for ServeTarget<'_> {
    type Req = Req;

    fn prepare(&self, op: &Op) -> Req {
        match op {
            Op::Function { name, analysis } => Req::Manifest(manifest_body(name, analysis)),
            Op::Deck { pattern, supply } => Req::Deck(self.deck_text(*pattern, *supply)),
            Op::Estimate { .. } => unreachable!("estimates are not served"),
        }
    }

    fn submit(&self, req: &Req) -> Flight<Submitted> {
        let (path, body) = match req {
            Req::Manifest(body) => ("/v1/jobs", body),
            Req::Deck(text) => ("/v1/decks", text),
        };
        send(
            &self.fleet.entry_addr,
            "POST",
            path,
            body,
            decode_submit,
            Err,
        )
    }

    fn poll(&self, id: u64) -> Flight<Polled> {
        let path = format!("/v1/jobs/{id}");
        send(&self.fleet.entry_addr, "GET", &path, "", decode_poll, Err)
    }

    fn queue_wait(&self, id: u64) -> Option<f64> {
        let doc = Json::parse(&self.fleet.entry.trace(id, false).ok()?).ok()?;
        let events = doc.get("events")?.as_array()?;
        let first = events
            .iter()
            .find(|e| e.get("kind").and_then(Json::as_str) == Some("attempt"))?;
        Some(first.get("t_us")?.as_f64()? * 1e-6)
    }

    fn queued(&self) -> Option<usize> {
        // A coordinator keeps no queue of its own: its workers' queues are
        // the service queue.
        let servers = if self.fleet.workers.is_empty() {
            std::slice::from_ref(&self.fleet.entry)
        } else {
            &self.fleet.workers[..]
        };
        servers
            .iter()
            .map(|c| {
                let health = Json::parse(&c.healthz().ok()?).ok()?;
                Some(health.get("jobs")?.get("queued")?.as_f64()? as usize)
            })
            .sum()
    }
}

/// What the correctness gate checked.
#[derive(Debug, Default)]
pub struct Gate {
    pub checked: usize,
    pub mismatches: Vec<String>,
}

/// Seeded choice of `n` indices out of `0..len`.
pub fn sample_indices(len: usize, n: usize, seed: u64, stream: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..len).collect();
    let mut rng = Rng::new(seed, stream);
    for i in 0..n.min(len) {
        let j = i + rng.below((len - i) as u64) as usize;
        idx.swap(i, j);
    }
    idx.truncate(n.min(len));
    idx.sort_unstable();
    idx
}

/// The successful records of `runs` with the operation each ran.
pub fn ok_ops<'r>(
    runs: impl IntoIterator<Item = &'r StepRun>,
    stream: &Stream,
) -> Vec<(Op, &'r Record, &'r Done)> {
    runs.into_iter()
        .flat_map(|run| run.records.iter().map(move |r| (run, r)))
        .filter_map(|(run, r)| r.ok().map(|d| (stream.op(run.step, run.round, r.k), r, d)))
        .collect()
}

/// Runs one job directly through `Engine::run` and renders its result.
fn direct_result(builder: &PipelineJobBuilder, spec: &JobSpec) -> Result<String, String> {
    let built = build_job(builder, spec, 0).map_err(|e| e.to_string())?;
    let report = Engine::new().threads(1).run(vec![built.job]);
    Ok(outcome_json(&report.outcomes[0], built.out, false))
}

/// Bypass workloads: each sampled served `result` must be byte-identical
/// to a direct `Engine::run` of the same spec.
pub fn gate_functions(
    fleet: &Fleet,
    runs: &[StepRun],
    stream: &Stream,
    sample: usize,
    seed: u64,
) -> Gate {
    let ops = ok_ops(runs, stream);
    let mut gate = Gate::default();
    let mut direct: BTreeMap<String, Result<String, String>> = BTreeMap::new();
    for i in sample_indices(ops.len(), sample, seed, 0x6A7E) {
        let (op, rec, done) = &ops[i];
        let Op::Function { name, analysis } = op else {
            unreachable!("function workloads send function ops")
        };
        let want = direct.entry(op.key()).or_insert_with(|| {
            direct_result(&fleet.builder, &function_spec(name, analysis.clone()))
        });
        gate.checked += 1;
        match want {
            Ok(want) if *want == done.result => {}
            Ok(want) => gate.mismatches.push(format!(
                "{op:?} (op {}): served {} but direct run gives {want}",
                rec.k, done.result
            )),
            Err(e) => gate
                .mismatches
                .push(format!("{op:?}: direct run failed: {e}")),
        }
    }
    gate
}

/// Largest |Δ out_v| tolerated between a cache miss (possibly
/// warm-started) and its cold bypass twin.
const WARM_TOLERANCE_V: f64 = 1e-9;

/// `sweep_cached`: each sampled hit must be byte-identical to a served
/// miss of the same key (the run that stored it), and each sampled miss
/// must agree with a cold bypass twin to within [`WARM_TOLERANCE_V`].
pub fn gate_decks(
    target: &ServeTarget<'_>,
    runs: &[StepRun],
    stream: &Stream,
    sample: usize,
    seed: u64,
) -> Gate {
    let ops = ok_ops(runs, stream);
    let mut served_misses: BTreeMap<String, BTreeSet<&str>> = BTreeMap::new();
    for (op, _, done) in &ops {
        if !done.hit {
            served_misses
                .entry(op.key())
                .or_default()
                .insert(done.result.as_str());
        }
    }
    let (hits, misses): (Vec<_>, Vec<_>) = ops.iter().partition(|(_, _, d)| d.hit);
    let mut gate = Gate::default();
    for i in sample_indices(hits.len(), sample, seed, 0x417) {
        let (op, rec, done) = hits[i];
        gate.checked += 1;
        if !served_misses
            .get(&op.key())
            .is_some_and(|s| s.contains(done.result.as_str()))
        {
            gate.mismatches.push(format!(
                "{op:?} (op {}): hit {} matches no served miss",
                rec.k, done.result
            ));
        }
    }
    let out_v = |result: &str| member(result, "out_v").and_then(|v| v.parse::<f64>().ok());
    for i in sample_indices(misses.len(), sample, seed, 0x3155) {
        let (op, rec, done) = misses[i];
        let Op::Deck { pattern, supply } = op else {
            unreachable!("sweep_cached sends decks")
        };
        gate.checked += 1;
        let cold = deck_submissions(&target.deck_text(*pattern, *supply))
            .map_err(|e| e.to_string())
            .and_then(|mut subs| {
                let sub = subs.pop().ok_or("deck has no analysis")?;
                let report = Engine::new().threads(1).run(vec![sub.job]);
                Ok(outcome_json(&report.outcomes[0], sub.out, false))
            });
        match (cold.as_deref().map(out_v), out_v(&done.result)) {
            (Ok(Some(c)), Some(s)) if (c - s).abs() <= WARM_TOLERANCE_V => {}
            (cold, _) => gate.mismatches.push(format!(
                "{op:?} (op {}): served {} vs cold twin {cold:?}",
                rec.k, done.result
            )),
        }
    }
    gate
}

/// What one server's `/metrics` says about its HTTP layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct Scrape {
    /// Requests the server has answered (all endpoints and statuses).
    pub requests: f64,
    /// Server-side handling time, p50 of its recent-request window.
    pub window_p50_s: f64,
}

impl Scrape {
    pub fn take(client: &WireClient) -> Result<Scrape, String> {
        let text = client.metrics().map_err(|e| format!("metrics: {e}"))?;
        let mut s = Scrape::default();
        for line in text.lines() {
            let Some((series, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(v) = value.parse::<f64>() else {
                continue;
            };
            if series.starts_with("fts_http_requests_total{") {
                s.requests += v;
            } else if series == "fts_http_latency_window_p50_s" {
                s.window_p50_s = v;
            }
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn member_reads_nested_values_verbatim() {
        let body = r#"{"id":3,"status":"done","kind":"op","job":{"label":"x}","kind":"op","wall_s":0.0012,"attempts":1,"result":{"kind":"op","out_v":0.19},"cache":{"key":"k","hit":false}}}"#;
        let row = member(body, "job").expect("row");
        assert_eq!(member(row, "result"), Some(r#"{"kind":"op","out_v":0.19}"#));
        assert_eq!(member(row, "wall_s"), Some("0.0012"));
        assert_eq!(member(row, "label"), Some("\"x}\""));
        let done = parse_done(body).expect("done");
        assert_eq!(done.attempts, 1);
        assert!(!done.hit);
    }
}
