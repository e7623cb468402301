//! The traced run: per-layer metrics, the in-process replay that gives
//! each layer's self time, and the Chrome trace of the benchmark's own
//! spans.
//!
//! Every layer is measured from outside the program: spans around the
//! public calls the benchmark makes, the served rows' `wall_s`, the
//! flight-recorder journals, `/metrics`, and the in-process
//! `fts-telemetry` counters (among them the cache counters that
//! `GET /v1/cache` reports).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use four_terminal_lattice::batch::PipelineJobBuilder;
use fts_engine::{cache_key, Engine};
use fts_netlist::{elaborate, parse_str, ElabOptions};
use fts_server::service::build_job;
use fts_server::wire::{job_row_json, outcome_json, AnalysisSpec, BatchManifest};
use fts_server::WireClient;
use fts_spice::CancelToken;
use fts_telemetry::TelemetryReport;

use crate::loadgen::{late_p99_ms, slo_miss_ratio, throughput, Done, Failure, Record, StepRun};
use crate::serve::Scrape;
use crate::stats::{mean, median, quantile};
use crate::workloads::{Mix, Op, Step, Workload, MC_TRIALS};

/// Every per-layer metric: name, unit. The traced run reports each one on
/// every workload; a layer a workload does not cross reads 0 there, and
/// only layers every workload crosses are reported as times.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("loadgen.late_ms.p99", "ms"),
    ("loadgen.slo_miss_ratio", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("accounting.closure", "ratio"),
    ("http.submit_share", "ratio"),
    ("http.poll_share", "ratio"),
    ("http.requests_per_job", "count"),
    ("http.transport_share", "ratio"),
    ("http.refused", "count"),
    ("wire.parse_us", "us"),
    ("wire.render_us", "us"),
    ("wire.result_bytes", "bytes"),
    ("build.us", "us"),
    ("cache.key_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions_per_1k", "count"),
    ("cache.warm_share", "ratio"),
    ("cache.newton_iters_cold_mean", "count"),
    ("cache.newton_iters_warm_mean", "count"),
    ("service.queue_wait_ms.p50", "ms"),
    ("service.queue_wait_ms.p95", "ms"),
    ("service.queued_max", "count"),
    ("engine.run_ms.p50", "ms"),
    ("engine.run_ms.p95", "ms"),
    ("engine.attempts_per_job", "count"),
    ("engine.replay_us", "us"),
    ("spice.newton_iters_per_op", "count"),
    ("spice.factors_per_op", "count"),
    ("spice.refactor_share", "ratio"),
    ("spice.solves_per_op", "count"),
    ("spice.dense_share", "ratio"),
    ("spice.symbolic_reuse_rate", "ratio"),
    ("spice.tran_steps_per_op", "count"),
    ("coordinator.overhead_share", "ratio"),
    ("coordinator.worker_requests_per_job", "count"),
    ("coordinator.rerouted", "count"),
    ("mc.chunk_share", "ratio"),
    ("ensemble.lockstep_iters_per_trial", "count"),
    ("ensemble.factors_per_trial", "count"),
    ("ensemble.scalar_fallback_share", "ratio"),
    ("ensemble.lane_utilization", "ratio"),
];

/// One span of the benchmark's own, in microseconds from the run's clock
/// origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub dur_us: f64,
    pub job: u64,
    pub parent: Option<&'static str>,
    pub lane: u64,
}

/// The Chrome-trace lane of replay spans, apart from the step lanes.
const REPLAY_LANE: u64 = 1000;

/// The request forms the replay can take.
pub enum ReplayInput {
    Manifest(String),
    Deck(String),
}

/// Per-layer times of the in-process replay, one entry per replayed job.
#[derive(Debug, Default)]
pub struct Replay {
    pub parse_us: Vec<f64>,
    pub build_us: Vec<f64>,
    pub key_us: Vec<f64>,
    pub run_us: Vec<f64>,
    pub render_us: Vec<f64>,
    pub result_bytes: Vec<f64>,
    pub spans: Vec<Span>,
}

/// Replays each input through the layers a served job crosses —
/// parse → build → `cache_key` → `Engine::run_single` → `job_row_json` —
/// timing each call on its own.
pub fn replay(
    builder: &PipelineJobBuilder,
    inputs: &[ReplayInput],
    origin: Instant,
) -> Result<Replay, String> {
    let engine = Engine::new();
    let cancel = CancelToken::new();
    let mut r = Replay::default();
    let us = |t: Instant| t.duration_since(origin).as_secs_f64() * 1e6;
    for (k, input) in inputs.iter().enumerate() {
        let t0 = Instant::now();
        let (job, out, t1) = match input {
            ReplayInput::Manifest(body) => {
                let manifest = BatchManifest::parse(body).map_err(|e| e.to_string())?;
                let t1 = Instant::now();
                let built = build_job(builder, &manifest.jobs[0], 0).map_err(|e| e.to_string())?;
                (built.job, built.out, t1)
            }
            ReplayInput::Deck(text) => {
                let deck = parse_str(text).map_err(|e| e.to_string())?;
                let t1 = Instant::now();
                let mut elab =
                    elaborate(&deck, &ElabOptions::default()).map_err(|e| e.to_string())?;
                let job = elab.jobs.pop().ok_or("deck has no analysis")?;
                (job, elab.out, t1)
            }
        };
        let t2 = Instant::now();
        std::hint::black_box(cache_key(&job, out, false));
        let t3 = Instant::now();
        let (outcome, stats) = engine.run_single(&job, &cancel);
        let t4 = Instant::now();
        let row = job_row_json("replay", &outcome, &stats, out, false);
        let t5 = Instant::now();
        std::hint::black_box(row);
        let marks = [t0, t1, t2, t3, t4, t5];
        let names = [
            "replay.parse",
            "replay.build",
            "replay.key",
            "replay.run",
            "replay.render",
        ];
        for (i, series) in [
            &mut r.parse_us,
            &mut r.build_us,
            &mut r.key_us,
            &mut r.run_us,
            &mut r.render_us,
        ]
        .into_iter()
        .enumerate()
        {
            let dur = us(marks[i + 1]) - us(marks[i]);
            series.push(dur);
            r.spans.push(Span {
                name: names[i],
                start_us: us(marks[i]),
                dur_us: dur,
                job: k as u64,
                parent: Some("replay.job"),
                lane: REPLAY_LANE,
            });
        }
        r.spans.push(Span {
            name: "replay.job",
            start_us: us(t0),
            dur_us: us(t5) - us(t0),
            job: k as u64,
            parent: None,
            lane: REPLAY_LANE,
        });
        r.result_bytes
            .push(outcome_json(&outcome, out, false).len() as f64);
    }
    Ok(r)
}

/// The replay inputs of `mc_yield`: the nominal XOR3 circuit the
/// estimates perturb, as one op job per input pattern.
pub fn mc_replay_inputs(n: usize) -> Vec<ReplayInput> {
    (0..n)
        .map(|k| {
            ReplayInput::Manifest(crate::serve::manifest_body(
                "xor3",
                &AnalysisSpec::Op {
                    input: (k % 8) as u32,
                },
            ))
        })
        .collect()
}

/// Cumulative quantities read from outside the program at one instant:
/// the in-process `fts-telemetry` counters and histograms, and each
/// server's `/metrics`.
pub struct Observation {
    telemetry: TelemetryReport,
    entry: Scrape,
    workers: Vec<Scrape>,
}

impl Observation {
    /// Reads telemetry, plus `/metrics` of `entry` and each of `workers`
    /// (a served workload) or nothing more (`mc_yield`).
    pub fn take(entry: Option<&WireClient>, workers: &[WireClient]) -> Result<Observation, String> {
        Ok(Observation {
            telemetry: fts_telemetry::snapshot(),
            entry: entry.map(Scrape::take).transpose()?.unwrap_or_default(),
            workers: workers.iter().map(Scrape::take).collect::<Result<_, _>>()?,
        })
    }
}

/// Counter and histogram growth summed over the paced steps, plus the
/// servers' latency windows as last seen.
#[derive(Debug, Default)]
pub struct Deltas {
    counters: BTreeMap<String, f64>,
    /// `(count, sum)` per histogram.
    histograms: BTreeMap<String, (f64, f64)>,
    entry_requests: f64,
    worker_requests: f64,
    entry_window_p50_s: f64,
    worker_window_p50_s: f64,
}

impl Deltas {
    /// Adds what grew between `before` and `after`.
    pub fn add(&mut self, before: &Observation, after: &Observation) {
        let (b, a) = (&before.telemetry, &after.telemetry);
        for c in &a.counters {
            *self.counters.entry(c.name.clone()).or_default() +=
                (c.value - b.counter(&c.name)) as f64;
        }
        let sum = |s: &fts_telemetry::HistogramSummary| {
            let n = s.n as f64;
            (n, if s.n > 0 { n * s.mean } else { 0.0 })
        };
        for h in &a.histograms {
            let (n1, s1) = sum(&h.summary);
            let (n0, s0) = b.histogram(&h.name).map_or((0.0, 0.0), |h| sum(&h.summary));
            let e = self.histograms.entry(h.name.clone()).or_default();
            e.0 += n1 - n0;
            e.1 += s1 - s0;
        }
        self.entry_requests += after.entry.requests - before.entry.requests;
        self.worker_requests += after
            .workers
            .iter()
            .zip(&before.workers)
            .map(|(a, b)| a.requests - b.requests)
            .sum::<f64>();
        self.entry_window_p50_s = after.entry.window_p50_s;
        self.worker_window_p50_s = mean(
            &after
                .workers
                .iter()
                .map(|w| w.window_p50_s)
                .collect::<Vec<_>>(),
        );
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    fn histogram(&self, name: &str) -> (f64, f64) {
        self.histograms.get(name).copied().unwrap_or_default()
    }

    /// `(count, sum)` of a histogram of whole numbers, such as iteration
    /// counts: a snapshot gives only the count and the mean, so the sum
    /// is rounded back to the whole number it is.
    fn whole_histogram(&self, name: &str) -> (f64, f64) {
        let (n, sum) = self.histogram(name);
        (n, sum.round())
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Accounting closure and its parts, over sampled nominal operations.
#[derive(Debug, Default, Clone, Copy)]
pub struct Closure {
    pub samples: usize,
    pub submit_ms: f64,
    pub queue_ms: f64,
    pub run_ms: f64,
    pub poll_ms: f64,
    pub latency_ms: f64,
    pub closure: f64,
}

fn records(runs: &[StepRun], step: Step) -> impl Iterator<Item = &Record> {
    runs.iter()
        .filter(move |r| r.step == step)
        .flat_map(|r| &r.records)
}

/// (submit round trip + queue wait + run + one poll round trip) divided
/// by mean latency; what is left over is the generator's lateness and the
/// wait between polls.
pub fn closure(runs: &[StepRun]) -> Closure {
    let parts: Vec<[f64; 5]> = records(runs, Step::Nominal)
        .filter_map(|r| {
            let d = r.ok().filter(|d| !d.hit)?;
            let queue = d.queue_s.or(r.journal_queue_s)?;
            Some([
                r.acked - r.sent,
                queue,
                d.wall_s,
                r.last_poll_rtt,
                r.latency(),
            ])
        })
        .collect();
    let col = |i: usize| 1e3 * mean(&parts.iter().map(|p| p[i]).collect::<Vec<_>>());
    let c = Closure {
        samples: parts.len(),
        submit_ms: col(0),
        queue_ms: col(1),
        run_ms: col(2),
        poll_ms: col(3),
        latency_ms: col(4),
        closure: 0.0,
    };
    Closure {
        closure: ratio(
            c.submit_ms + c.queue_ms + c.run_ms + c.poll_ms,
            c.latency_ms,
        ),
        ..c
    }
}

/// The `p`-quantile of `values`, in milliseconds; 0 when empty.
fn quantile_ms(mut values: Vec<f64>, p: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(&values, p).map_or(0.0, |x| x * 1e3)
}

fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// Computes every [`PER_LAYER`] metric, in that order. `deltas` covers the
/// paced steps, whose operations normalize the per-op counts.
pub fn per_layer(
    w: &Workload,
    runs: &[StepRun],
    deltas: &Deltas,
    replay: &Replay,
) -> Vec<(&'static str, f64)> {
    let paced = || records(runs, Step::Nominal).chain(records(runs, Step::High));
    let oks: Vec<&Record> = paced().filter(|r| r.ok().is_some()).collect();
    let ran: Vec<&Done> = oks
        .iter()
        .filter_map(|r| r.ok())
        .filter(|d| !d.hit)
        .collect();
    let ops = oks.len() as f64;
    let mc = w.mix == Mix::McYield;
    let served = !mc;
    // Per-op counts are per job, or per trial on `mc_yield`.
    let units = if mc { ops * MC_TRIALS as f64 } else { ops };
    let trials = if mc { units } else { 0.0 };

    let late = late_p99_ms(runs, Step::Nominal).max(late_p99_ms(runs, Step::High));
    let closed = || runs.iter().filter(|r| r.step == Step::Closed);
    let overhead = 1.0
        - ratio(
            throughput(closed().filter(|r| r.traced)),
            throughput(closed().filter(|r| !r.traced)),
        );

    let nominal_ok: Vec<&Record> = records(runs, Step::Nominal)
        .filter(|r| r.ok().is_some())
        .collect();
    let nominal_latency: Vec<f64> = nominal_ok.iter().map(|r| r.latency()).collect();
    let share = |f: &dyn Fn(&Record) -> f64| {
        let part = mean(&nominal_ok.iter().map(|r| f(r)).collect::<Vec<_>>());
        if served {
            ratio(part, mean(&nominal_latency))
        } else {
            0.0
        }
    };
    let poll_rtt = |r: &Record| r.poll_spans.iter().map(|(a, b)| b - a).sum::<f64>();
    let poll_rtts: Vec<f64> = paced()
        .flat_map(|r| r.poll_spans.iter().map(|(a, b)| b - a))
        .collect();
    let refused = paced()
        .filter(|r| matches!(r.outcome, Err(Failure::Refused | Failure::Connect(_))))
        .count() as f64;

    let d = deltas;
    let lookups = d.counter("cache.hits") + d.counter("cache.misses");
    let (cold_n, cold_sum) = d.whole_histogram("cache.cold.newton_iterations");
    let (warm_n, warm_sum) = d.whole_histogram("cache.warm.newton_iterations");
    let queue: Vec<f64> = oks
        .iter()
        .filter(|r| !r.ok().is_some_and(|d| d.hit))
        .filter_map(|r| r.ok().and_then(|d| d.queue_s).or(r.journal_queue_s))
        .collect();
    let walls: Vec<f64> = ran.iter().map(|d| d.wall_s).collect();
    let attempts: Vec<f64> = ran.iter().map(|d| f64::from(d.attempts)).collect();
    let newton = d.whole_histogram("spice.op.newton_iterations").1
        + d.whole_histogram("spice.transient.newton_iterations").1;
    let solvers = d.counter("spice.solver.dense")
        + d.counter("spice.solver.sparse")
        + d.counter("spice.solver.sparse_ensemble");
    let symbolic =
        d.counter("spice.sparse.symbolic_reuse") + d.counter("spice.sparse.symbolic_new");
    let coordinator_overhead = if w.cluster {
        ratio(
            d.entry_window_p50_s - d.worker_window_p50_s,
            median_or_zero(&nominal_latency),
        )
    } else {
        0.0
    };
    let (lane_n, lane_sum) = d.histogram("spice.ensemble.lane_utilization");

    let values = [
        late,
        slo_miss_ratio(runs, w.latency_limit_ms),
        overhead,
        closure(runs).closure,
        share(&|r| r.acked - r.sent),
        share(&poll_rtt),
        if served {
            mean(
                &oks.iter()
                    .map(|r| 1.0 + f64::from(r.polls))
                    .collect::<Vec<_>>(),
            )
        } else {
            0.0
        },
        if served {
            1.0 - ratio(d.entry_window_p50_s, median_or_zero(&poll_rtts))
        } else {
            0.0
        },
        refused,
        median_or_zero(&replay.parse_us),
        median_or_zero(&replay.render_us),
        mean(&replay.result_bytes),
        median_or_zero(&replay.build_us),
        median_or_zero(&replay.key_us),
        ratio(d.counter("cache.hits"), lookups),
        ratio(d.counter("cache.evictions"), ops) * 1e3,
        ratio(warm_n, warm_n + cold_n),
        ratio(cold_sum, cold_n),
        ratio(warm_sum, warm_n),
        quantile_ms(queue.clone(), 0.50),
        quantile_ms(queue, 0.95),
        runs.iter().map(|r| r.queued_max).max().unwrap_or(0) as f64,
        quantile_ms(walls.clone(), 0.50),
        quantile_ms(walls.clone(), 0.95),
        if attempts.is_empty() {
            0.0
        } else {
            mean(&attempts)
        },
        median_or_zero(&replay.run_us),
        ratio(newton, units),
        ratio(d.counter("spice.sparse.factor"), units),
        ratio(
            d.counter("spice.sparse.refactor"),
            d.counter("spice.sparse.factor"),
        ),
        ratio(d.counter("spice.sparse.solve"), units),
        ratio(d.counter("spice.solver.dense"), solvers),
        ratio(d.counter("spice.sparse.symbolic_reuse"), symbolic),
        ratio(d.counter("spice.transient.steps"), units),
        coordinator_overhead,
        ratio(d.worker_requests, ops),
        d.counter("coordinator.jobs.rerouted"),
        ratio(d.histogram("mc.chunk.wall_s").1, walls.iter().sum()),
        ratio(d.counter("spice.ensemble.lockstep_iterations"), trials),
        ratio(d.counter("spice.ensemble.factor"), trials),
        ratio(
            d.counter("spice.ensemble.scalar_fallback"),
            d.counter("spice.ensemble.lanes"),
        ),
        ratio(lane_sum, lane_n),
    ];
    PER_LAYER
        .iter()
        .map(|&(name, _)| name)
        .zip(values)
        .collect()
}

/// The benchmark's spans for every operation of `runs`: the job (due →
/// done seen), its submit, and each poll, with the job as parent. Each
/// step of each round gets its own block of Chrome-trace lanes.
pub fn op_spans(runs: &[StepRun]) -> Vec<Span> {
    let mut spans = Vec::new();
    for (i, run) in runs.iter().enumerate() {
        let at = |t: f64| (run.start + t) * 1e6;
        for r in &run.records {
            let lane = i as u64 * 100 + r.k % 32;
            let mut push = |name, a: f64, b: f64, parent| {
                spans.push(Span {
                    name,
                    start_us: at(a),
                    dur_us: (b - a) * 1e6,
                    job: r.k,
                    parent,
                    lane,
                })
            };
            push("job", r.due, r.done, None);
            push("submit", r.sent, r.acked, Some("job"));
            for &(a, b) in &r.poll_spans {
                push("poll", a, b, Some("job"));
            }
        }
    }
    spans
}

/// Chrome trace-event JSON (`about:tracing`, Perfetto) of `spans`.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{\"job\":{},\"parent\":{}}}}}",
            s.name,
            s.start_us,
            s.dur_us.max(0.0),
            s.lane,
            s.job,
            s.parent.map_or("null".to_owned(), |p| format!("\"{p}\"")),
        );
    }
    out.push_str("]}");
    out
}

/// Mean self time per span name, in milliseconds: a span's duration minus
/// the part of it its children cover.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, f64)> {
    // (parent name, job, lane) -> the intervals its children cover.
    type Key<'a> = (&'a str, u64, u64);
    let mut children: BTreeMap<Key, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children
                .entry((p, s.job, s.lane))
                .or_default()
                .push((s.start_us, s.start_us + s.dur_us));
        }
    }
    let mut acc: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
    for s in spans {
        let (lo, hi) = (s.start_us, s.start_us + s.dur_us);
        let mut covered = 0.0;
        if let Some(kids) = children.get_mut(&(s.name, s.job, s.lane)) {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut reach = lo;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(hi));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
        }
        let e = acc.entry(s.name).or_insert((0.0, 0));
        e.0 += (s.dur_us - covered) * 1e-3;
        e.1 += 1;
    }
    acc.into_iter()
        .map(|(k, (sum, n))| (k, sum / n as f64))
        .collect()
}

/// The replay inputs for a served workload's sampled operations.
pub fn replay_inputs(ops: &[Op], deck_text: &dyn Fn(u32, u32) -> String) -> Vec<ReplayInput> {
    ops.iter()
        .map(|op| match op {
            Op::Function { name, analysis } => {
                ReplayInput::Manifest(crate::serve::manifest_body(name, analysis))
            }
            Op::Deck { pattern, supply } => ReplayInput::Deck(deck_text(*pattern, *supply)),
            Op::Estimate { .. } => unreachable!("estimates replay through mc_replay_inputs"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let span = |name, start_us, dur_us, parent| Span {
            name,
            start_us,
            dur_us,
            job: 1,
            parent,
            lane: 0,
        };
        let spans = [
            span("job", 0.0, 10_000.0, None),
            span("submit", 0.0, 2_000.0, Some("job")),
            span("poll", 1_000.0, 3_000.0, Some("job")),
            span("poll", 8_000.0, 1_000.0, Some("job")),
        ];
        let times: std::collections::BTreeMap<_, _> = self_times(&spans).into_iter().collect();
        // Children cover 0-4 ms and 8-9 ms of the 10 ms job.
        assert!((times["job"] - 5.0).abs() < 1e-9, "{times:?}");
        assert!((times["poll"] - 2.0).abs() < 1e-9);
    }
}
