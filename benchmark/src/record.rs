//! One workload run — set-up, the three steps, the correctness gate, the
//! traced extras — and the record it leaves.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use four_terminal_lattice::batch::PipelineJobBuilder;
use fts_server::json_escape;

use crate::layers::{self, Closure, Deltas, Observation, Span, PER_LAYER};
use crate::loadgen::{
    closed_loop, late_p99_ms, open_loop, slo_miss_ratio, throughput, Instrument, StepRun, Target,
};
use crate::mc::{McSetup, McTarget};
use crate::rng::Digest;
use crate::serve::{self, Fleet, Gate, ServeTarget};
use crate::stats::{median, samples_needed, tail};
use crate::workloads::{Mix, Step, Stream, Workload, MC_TRIALS, ROUNDS, STEP_SHARES};
use crate::Args;

/// Every end-to-end metric: name, unit. Each is reported on every
/// workload.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("latency_high_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Set-ups per run; `setup_s` is their median. A set-up takes 5-40 ms,
/// short enough for one stall of the shared host to double it.
const SETUPS: usize = 15;
/// Operations the correctness gate re-runs (per kind, on `sweep_cached`).
const GATE_SAMPLE: usize = 64;
/// `mc_yield` estimates the gate re-runs: 4 × 16 = 64 trials.
const MC_GATE_SAMPLE: usize = 4;
/// Operations replayed in-process in a traced run.
const REPLAY_SAMPLE: usize = 200;
/// Journals fetched per paced step in a traced run, at least.
const JOURNAL_SAMPLE: f64 = 250.0;
/// A paced step whose generator ran later than this at p99 is invalid.
const LATE_LIMIT_MS: f64 = 2.0;

/// What a traced run adds.
pub struct Traced {
    pub per_layer: Vec<(&'static str, f64)>,
    pub closure: Closure,
    pub spans: Vec<Span>,
}

/// A finished workload run.
pub struct RunResult {
    w: &'static Workload,
    args: Args,
    setup_s: Vec<f64>,
    runs: Vec<StepRun>,
    gate: Gate,
    digest: Option<String>,
    rss_mb: f64,
    traced: Option<Traced>,
    pub correct: bool,
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The checked-out commit, read from `.git` without running git.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    read(reference)
        .map(|s| s.trim().to_owned())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Each step's duration in one round.
fn durations(seconds: f64) -> [f64; 3] {
    STEP_SHARES.map(|s| s * seconds / ROUNDS as f64)
}

fn instrument(w: &Workload, args: &Args) -> Instrument {
    let expected = w.nominal_per_s * durations(args.seconds)[0] * ROUNDS as f64;
    let stride = ((expected / JOURNAL_SAMPLE).floor() as u64).max(1);
    Instrument {
        trace: args.trace,
        journal_stride: stride,
        journal_offset: args.seed % stride,
    }
}

fn time_setups<T>(
    n: usize,
    mut start: impl FnMut() -> Result<T, String>,
    mut stop: impl FnMut(T) -> Result<(), String>,
) -> Result<(Vec<f64>, T), String> {
    let mut times = Vec::with_capacity(n);
    let mut kept = None;
    for _ in 0..n {
        if let Some(old) = kept.take() {
            stop(old)?;
        }
        let t = Instant::now();
        kept = Some(start()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((times, kept.expect("at least one set-up")))
}

/// Hash of every paced result in submission order; `None` where results
/// legitimately depend on completion order.
fn digest(w: &Workload, runs: &[StepRun]) -> Option<String> {
    if w.mix == Mix::SweepCached {
        return None;
    }
    let mut d = Digest::default();
    let paced = runs.iter().filter(|run| run.step != Step::Closed);
    for r in paced.flat_map(|run| run.records.iter()) {
        match r.ok() {
            Some(done) => d.add(done.result.as_bytes()),
            None => d.add(b"failed"),
        }
    }
    Some(d.hex())
}

/// Cycles the three steps [`ROUNDS`] times against `target`. In a traced
/// run, `observe` is read around every paced step, and every other
/// round's closed-loop step runs untraced so that the tracing overhead
/// can be measured.
fn measure<T: Target>(
    target: &T,
    w: &Workload,
    stream: &Stream,
    args: &Args,
    origin: Instant,
    observe: &dyn Fn() -> Result<Observation, String>,
) -> Result<(Vec<StepRun>, Deltas), String> {
    let [d_nominal, d_high, d_closed] = durations(args.seconds);
    let inst = instrument(w, args);
    let mut runs = Vec::new();
    let mut deltas = Deltas::default();
    for round in 0..ROUNDS {
        target.set_traced(args.trace);
        for (step, rate, duration) in [
            (Step::Nominal, w.nominal_per_s, d_nominal),
            (Step::High, w.high_per_s, d_high),
        ] {
            let before = args.trace.then(observe).transpose()?;
            runs.push(open_loop(
                target, stream, step, round, rate, duration, origin, &inst,
            ));
            if let Some(before) = before {
                deltas.add(&before, &observe()?);
            }
        }
        let traced = args.trace && round % 2 == 1;
        target.set_traced(traced);
        runs.push(closed_loop(
            target,
            stream,
            round,
            cores(),
            d_closed,
            origin,
            traced,
        ));
    }
    Ok((runs, deltas))
}

/// Runs workload `w` in this process.
pub fn run(w: &'static Workload, args: &Args) -> Result<RunResult, String> {
    let origin = Instant::now();
    let stream = Stream::new(w, args.seed);
    let setups = if args.smoke { 1 } else { SETUPS };
    let gate_sample = if args.smoke { 16 } else { GATE_SAMPLE };
    let replay_sample = if args.smoke { 16 } else { REPLAY_SAMPLE };

    let (setup_s, runs, gate, replay, deltas) = if w.mix == Mix::McYield {
        let (setup_s, setup) = time_setups(setups, McSetup::start, |_| Ok(()))?;
        let target = McTarget::new(&setup);
        let measured = std::thread::scope(|scope| {
            for _ in 0..cores() {
                scope.spawn(|| target.work());
            }
            let measured = measure(&target, w, &stream, args, origin, &|| {
                Observation::take(None, &[])
            });
            target.close();
            measured
        });
        let (runs, deltas) = measured?;
        let gate = crate::mc::gate(
            &setup,
            &runs,
            &stream,
            if args.smoke { 1 } else { MC_GATE_SAMPLE },
            args.seed,
        );
        let replay = args
            .trace
            .then(|| {
                layers::replay(
                    &PipelineJobBuilder::new(),
                    &layers::mc_replay_inputs(replay_sample),
                    origin,
                )
            })
            .transpose()?;
        (setup_s, runs, gate, replay, deltas)
    } else {
        let (setup_s, fleet) = time_setups(setups, || Fleet::start(w), Fleet::stop)?;
        let target = ServeTarget { fleet: &fleet };
        let observe = || Observation::take(Some(&fleet.entry), &fleet.workers);
        let (runs, deltas) = measure(&target, w, &stream, args, origin, &observe)?;
        let gate = if w.mix == Mix::SweepCached {
            serve::gate_decks(&target, &runs, &stream, gate_sample, args.seed)
        } else {
            serve::gate_functions(&fleet, &runs, &stream, gate_sample, args.seed)
        };
        let replay = if args.trace {
            // Paced steps only: their job count, and so the sample, is
            // fixed by the seed.
            let paced = runs.iter().filter(|r| r.step != Step::Closed);
            let ops = serve::ok_ops(paced, &stream);
            let picked: Vec<_> = serve::sample_indices(ops.len(), replay_sample, args.seed, 0x7E9)
                .into_iter()
                .map(|i| ops[i].0.clone())
                .collect();
            let inputs = layers::replay_inputs(&picked, &|p, s| target.deck_text(p, s));
            Some(layers::replay(&fleet.builder, &inputs, origin)?)
        } else {
            None
        };
        fleet.stop()?;
        (setup_s, runs, gate, replay, deltas)
    };

    let traced = replay.map(|replay| {
        let mut spans = layers::op_spans(&runs);
        spans.extend(replay.spans.iter().cloned());
        Traced {
            per_layer: layers::per_layer(w, &runs, &deltas, &replay),
            closure: layers::closure(&runs),
            spans,
        }
    });
    let digest = digest(w, &runs);
    let failed = runs
        .iter()
        .flat_map(|r| &r.records)
        .filter(|r| r.ok().is_none())
        .count();
    Ok(RunResult {
        w,
        args: args.clone(),
        setup_s,
        correct: gate.mismatches.is_empty() && failed == 0,
        runs,
        gate,
        digest,
        rss_mb: peak_rss_mb(),
        traced,
    })
}

/// JSON number, or `null` when not finite.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

struct StepSummary {
    samples: usize,
    failed: usize,
    p50_ms: f64,
    tail_ms: f64,
    tail_ok: bool,
    late_p99_ms: f64,
    throughput: f64,
}

impl RunResult {
    fn runs_of(&self, step: Step) -> impl Iterator<Item = &StepRun> {
        self.runs.iter().filter(move |r| r.step == step)
    }

    /// One step over every round. Each latency percentile and the
    /// throughput are taken within each round and reported as their median
    /// over the rounds, so that one round hit by a stall of the shared host
    /// does not move them; sample counts are the rounds' total.
    fn step(&self, step: Step) -> StepSummary {
        let (mut p50s, mut tails, mut throughputs) = (Vec::new(), Vec::new(), Vec::new());
        let (mut samples, mut failed, mut tail_ok) = (0, 0, true);
        for run in self.runs_of(step) {
            let lat: Vec<f64> = run
                .records
                .iter()
                .filter(|r| r.ok().is_some())
                .map(|r| r.latency() * 1e3)
                .collect();
            let t = tail(&lat, self.w.tail_p);
            p50s.push(if lat.is_empty() {
                f64::NAN
            } else {
                median(&lat)
            });
            tails.push(t.value);
            tail_ok &= t.ok;
            throughputs.push(throughput(std::iter::once(run)));
            samples += lat.len();
            failed += run.records.len() - lat.len();
        }
        let per_op = if self.w.mix == Mix::McYield {
            MC_TRIALS as f64
        } else {
            1.0
        };
        StepSummary {
            samples,
            failed,
            p50_ms: median(&p50s),
            tail_ms: median(&tails),
            tail_ok,
            late_p99_ms: late_p99_ms(&self.runs, step),
            throughput: median(&throughputs) * per_op,
        }
    }

    /// Every end-to-end metric with its sample count.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64, usize)> {
        let [nominal, high, closed] = Step::ALL.map(|s| self.step(s));
        let values = [
            (median(&self.setup_s), self.setup_s.len()),
            (nominal.p50_ms, nominal.samples),
            (nominal.tail_ms, nominal.samples),
            (high.p50_ms, high.samples),
            (closed.throughput, closed.samples),
            (self.rss_mb, 1),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, _), (v, n))| (name, v, n))
            .collect()
    }

    fn slo_miss_ratio(&self) -> f64 {
        slo_miss_ratio(&self.runs, self.w.latency_limit_ms)
    }

    fn attempted(&self) -> usize {
        self.runs.iter().map(|r| r.records.len()).sum::<usize>() + self.gate.checked
    }

    fn failed(&self) -> usize {
        self.runs
            .iter()
            .flat_map(|r| &r.records)
            .filter(|r| r.ok().is_none())
            .count()
            + self.gate.mismatches.len()
    }

    /// Why the run's numbers cannot be trusted, if they cannot.
    fn invalid_reasons(&self) -> Vec<String> {
        let mut reasons = Vec::new();
        let needed = samples_needed(self.w.tail_p);
        for step in [Step::Nominal, Step::High] {
            let s = self.step(step);
            let name = step.name();
            if s.late_p99_ms > LATE_LIMIT_MS {
                reasons.push(format!(
                    "{name}: generator p99 lateness {:.3} ms > {LATE_LIMIT_MS} ms",
                    s.late_p99_ms
                ));
            }
            if !s.tail_ok && !self.args.smoke {
                reasons.push(format!(
                    "{name}: a round has fewer than the {needed} samples its tail percentile needs"
                ));
            }
        }
        for run in self.runs_of(Step::Nominal) {
            let backlog = &run.backlog;
            let quarter = (backlog.len() / 4).max(1);
            if backlog.len() < 4 {
                continue;
            }
            let avg = |s: &[usize]| s.iter().sum::<usize>() as f64 / s.len() as f64;
            let (first, last) = (
                avg(&backlog[..quarter]),
                avg(&backlog[backlog.len() - quarter..]),
            );
            if last > 2.0 * first + 5.0 {
                reasons.push(format!(
                    "nominal round {}: backlog grew from {first:.1} to {last:.1} operations in flight",
                    run.round
                ));
            }
        }
        if cores() < 2 {
            reasons.push("fewer than 2 cores: generator threads exceed nproc".to_owned());
        }
        reasons
    }

    fn stem(&self) -> String {
        format!("{}.s{}", self.w.name, self.args.seed)
    }

    /// The per-run record, plus the Chrome trace and `layers.json` of a
    /// traced run.
    pub fn write(&self, out: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(out)?;
        let suffix = if self.args.trace { ".trace" } else { "" };
        std::fs::write(
            out.join(format!("{}{suffix}.json", self.stem())),
            self.record_json(),
        )?;
        if let Some(t) = &self.traced {
            let dir = out.join("trace");
            std::fs::create_dir_all(&dir)?;
            std::fs::write(
                dir.join(format!("{}.chrome.json", self.stem())),
                layers::chrome_json(&t.spans),
            )?;
            std::fs::write(
                dir.join(format!("{}.layers.json", self.stem())),
                self.layers_json(t),
            )?;
        }
        Ok(())
    }

    fn metrics_json(&self, with_samples: bool) -> String {
        let units = |name: &str| {
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .find(|(n, _)| *n == name)
                .map_or("", |(_, u)| u)
        };
        let entries: Vec<(&str, f64, usize)> = match &self.traced {
            Some(t) => t.per_layer.iter().map(|&(n, v)| (n, v, 0)).collect(),
            None => self.end_to_end(),
        };
        let body: Vec<String> = entries
            .iter()
            .map(|&(name, v, n)| {
                let samples = if with_samples && self.traced.is_none() {
                    format!(",\"samples\":{n}")
                } else {
                    String::new()
                };
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{}\"{samples}}}",
                    num(v),
                    units(name)
                )
            })
            .collect();
        format!("{{{}}}", body.join(","))
    }

    fn record_json(&self) -> String {
        let w = self.w;
        let steps: Vec<String> = Step::ALL
            .iter()
            .map(|&step| {
                let s = self.step(step);
                let run = self.runs_of(step).next().expect("every step runs");
                let duration: f64 = self.runs_of(step).map(|r| r.duration).sum();
                let backlog: Vec<&[usize]> =
                    self.runs_of(step).map(|r| r.backlog.as_slice()).collect();
                format!(
                    concat!(
                        "{{\"name\":\"{}\",\"mode\":\"{}\",\"rate_per_s\":{},\"clients\":{},",
                        "\"duration_s\":{},\"scheduled\":{},\"samples\":{},\"failed\":{},",
                        "\"latency_p50_ms\":{},\"latency_tail_ms\":{},\"tail_ok\":{},",
                        "\"late_p99_ms\":{},\"throughput_per_s\":{},\"backlog\":{:?}}}"
                    ),
                    step.name(),
                    if step == Step::Closed {
                        "closed"
                    } else {
                        "open"
                    },
                    num(run.rate),
                    run.clients,
                    num(duration),
                    s.samples + s.failed,
                    s.samples,
                    s.failed,
                    num(s.p50_ms),
                    num(s.tail_ms),
                    s.tail_ok,
                    num(s.late_p99_ms),
                    num(s.throughput),
                    backlog,
                )
            })
            .collect();
        let reasons: Vec<String> = self
            .invalid_reasons()
            .iter()
            .map(|r| format!("\"{}\"", json_escape(r)))
            .collect();
        let mismatches: Vec<String> = self
            .gate
            .mismatches
            .iter()
            .map(|m| format!("\"{}\"", json_escape(m)))
            .collect();
        let mut out = String::new();
        let _ = write!(
            out,
            concat!(
                "{{\"schema\":\"fts-benchmark/1\",\"workload\":\"{}\",\"why\":\"{}\",\"seed\":{},\"seconds\":{},",
                "\"trace\":{},\"commit\":\"{}\",\"cores\":{},\"generator_threads\":{},",
                "\"valid\":{},\"invalid_reasons\":[{}],\"latency_limit_ms\":{},",
                "\"tail_percentile\":{},\"setup_s_samples\":{:?},\"steps\":[{}],",
                "\"metrics\":{},\"slo_miss_ratio\":{},\"error_ratio\":{},",
                "\"attempted\":{},\"failed\":{},\"correct\":{},",
                "\"gate\":{{\"checked\":{},\"mismatches\":[{}]}},\"result_digest\":{}}}"
            ),
            w.name,
            json_escape(w.why),
            self.args.seed,
            num(self.args.seconds),
            self.args.trace,
            json_escape(&git_commit()),
            cores(),
            cores().max(2),
            reasons.is_empty(),
            reasons.join(","),
            num(w.latency_limit_ms),
            num(w.tail_p * 100.0),
            self.setup_s,
            steps.join(","),
            self.metrics_json(true),
            num(self.slo_miss_ratio()),
            num(self.failed() as f64 / self.attempted().max(1) as f64),
            self.attempted(),
            self.failed(),
            self.correct,
            self.gate.checked,
            mismatches.join(","),
            self.digest.as_ref().map_or("null".to_owned(), |d| format!("\"{d}\"")),
        );
        out
    }

    fn layers_json(&self, t: &Traced) -> String {
        let selfs: Vec<String> = layers::self_times(&t.spans)
            .iter()
            .map(|(name, ms)| format!("\"{name}\":{}", num(*ms)))
            .collect();
        let c = &t.closure;
        format!(
            concat!(
                "{{\"schema\":\"fts-benchmark-layers/1\",\"workload\":\"{}\",\"seed\":{},",
                "\"per_layer\":{},\"self_ms\":{{{}}},",
                "\"closure\":{{\"samples\":{},\"submit_ms\":{},\"queue_ms\":{},\"run_ms\":{},",
                "\"poll_ms\":{},\"latency_ms\":{},\"closure\":{},\"unaccounted_ms\":{}}},\"spans\":{}}}"
            ),
            self.w.name,
            self.args.seed,
            self.metrics_json(false),
            selfs.join(","),
            c.samples,
            num(c.submit_ms),
            num(c.queue_ms),
            num(c.run_ms),
            num(c.poll_ms),
            num(c.latency_ms),
            num(c.closure),
            num(c.latency_ms - c.submit_ms - c.queue_ms - c.run_ms - c.poll_ms),
            t.spans.len(),
        )
    }

    /// Prints the human summary and, last, the one-line result object.
    pub fn print(&self) {
        let w = self.w;
        println!(
            "{} seed {} over {} s on {} core(s){}",
            w.name,
            self.args.seed,
            self.args.seconds,
            cores(),
            if self.args.trace { ", traced" } else { "" }
        );
        for step in Step::ALL {
            let s = self.step(step);
            println!(
                "  {:<8} {:>6} ops ({} failed)  p50 {:8.3} ms  p{} {:8.3} ms{}  late p99 {:.3} ms  {:.1}/s",
                step.name(),
                s.samples,
                s.failed,
                s.p50_ms,
                w.tail_p * 100.0,
                s.tail_ms,
                if s.tail_ok { "" } else { " (flagged)" },
                s.late_p99_ms,
                s.throughput,
            );
        }
        if let Some(t) = &self.traced {
            for (name, v) in &t.per_layer {
                let unit = PER_LAYER
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or("", |(_, u)| u);
                println!("  {name:<38} {v:>14.6} {unit}");
            }
            println!(
                "  accounting.closure {:.3} over {} sampled jobs",
                t.closure.closure, t.closure.samples
            );
        } else {
            let units = END_TO_END.iter().map(|(_, u)| *u);
            for ((name, v, n), unit) in self.end_to_end().into_iter().zip(units) {
                println!("  {name:<22} {v:>14.6} {unit:<5} (n = {n})");
            }
        }
        println!(
            "  slo_miss_ratio {:.5}  error_ratio {:.5}  gate {} checked, {} mismatches  digest {}",
            self.slo_miss_ratio(),
            self.failed() as f64 / self.attempted().max(1) as f64,
            self.gate.checked,
            self.gate.mismatches.len(),
            self.digest.as_deref().unwrap_or("-"),
        );
        for m in &self.gate.mismatches {
            println!("  MISMATCH {m}");
        }
        for r in self.invalid_reasons() {
            println!("  INVALID {r}");
        }
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct,
            self.attempted(),
            self.failed(),
            self.metrics_json(false)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_of_op_small_finishes_quickly() {
        let t = Instant::now();
        let args = Args {
            workload: Some("op_small".to_owned()),
            seconds: 1.5,
            smoke: true,
            ..Args::default()
        };
        let w = crate::workloads::by_name("op_small").expect("known");
        let result = run(w, &args).expect("smoke run");
        assert!(result.correct, "gate: {:?}", result.gate.mismatches);
        assert!(result.gate.checked >= 16);
        let metrics = result.end_to_end();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert!(
            metrics.iter().all(|(_, v, _)| v.is_finite() && *v > 0.0),
            "{metrics:?}"
        );
        assert!(
            t.elapsed().as_secs_f64() <= 5.0,
            "smoke run took {:?}",
            t.elapsed()
        );
    }
}
