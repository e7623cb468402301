//! Load generation: open-loop steps (one sender thread plus one poller
//! thread) and closed-loop steps (one client per core), over any
//! [`Target`].
//!
//! Open-loop latency runs from an operation's *scheduled* send time to the
//! first poll that sees it done, so a sender that falls behind charges its
//! lateness to every operation it delays. The sender only writes requests;
//! the poller reads every reply, so a slow reply never holds up a send.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::workloads::{Op, Step, Stream};

/// Minimum spacing between the end of one poll of an operation and the
/// start of the next.
pub const POLL_GAP: Duration = Duration::from_micros(500);

/// How long the poller sleeps when no reply has arrived.
const IDLE: Duration = Duration::from_micros(50);

/// An operation that does not finish within this long is failed.
pub const OP_TIMEOUT: Duration = Duration::from_secs(30);

/// Why an operation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum Failure {
    /// Refused with `429`.
    Refused,
    /// Transport error (connect refused, reset, timeout).
    Connect(String),
    /// Any other HTTP or protocol error.
    Http(String),
    /// The done row was evicted before it was read (`404`).
    Evicted,
    /// Finished with a non-success outcome.
    Outcome(String),
    /// Did not finish within [`OP_TIMEOUT`].
    Timeout,
}

/// A finished operation as its poller saw it.
#[derive(Debug, Clone, PartialEq)]
pub struct Done {
    /// The deterministic result bytes (the served `result` object, or the
    /// Monte Carlo report).
    pub result: String,
    /// Time the executor spent running it, in seconds (served `wall_s`).
    pub wall_s: f64,
    pub attempts: u32,
    /// Served from the result cache.
    pub hit: bool,
    /// Time from admission to the start of the run, when the target
    /// knows it (in-process executors); served jobs get it from their
    /// flight-recorder journal in traced runs.
    pub queue_s: Option<f64>,
}

/// A request whose reply has not been read yet.
pub trait InFlight<T>: Send {
    /// The reply, if it has fully arrived; never blocks.
    fn try_take(&mut self) -> Option<T>;
    /// Blocks until the reply arrives.
    fn wait(self: Box<Self>) -> T;
}

/// A request's reply: already known, or still in flight.
pub enum Flight<T> {
    Ready(T),
    Pending(Box<dyn InFlight<T>>),
}

impl<T> Flight<T> {
    pub fn wait(self) -> T {
        match self {
            Flight::Ready(t) => t,
            Flight::Pending(p) => p.wait(),
        }
    }

    /// Takes the reply out of `slot` if it has arrived.
    fn take(slot: &mut Option<Flight<T>>) -> Option<T> {
        match slot.take()? {
            Flight::Ready(t) => Some(t),
            Flight::Pending(mut p) => {
                let got = p.try_take();
                if got.is_none() {
                    *slot = Some(Flight::Pending(p));
                }
                got
            }
        }
    }
}

pub type Submitted = Result<u64, Failure>;
pub type Polled = Result<Option<Done>, Failure>;

/// Something that runs operations: an HTTP endpoint or an in-process
/// executor.
pub trait Target: Sync {
    /// A ready-to-send request.
    type Req: Send;
    /// Builds the request for `op` (before the send is timed).
    fn prepare(&self, op: &Op) -> Self::Req;
    /// Sends it; the reply carries the id to poll.
    fn submit(&self, req: &Self::Req) -> Flight<Submitted>;
    /// Sends one status poll; the reply is `Some` once the operation is
    /// done.
    fn poll(&self, id: u64) -> Flight<Polled>;
    /// Queue wait of a finished operation from the target's own records,
    /// fetched only in traced runs.
    fn queue_wait(&self, _id: u64) -> Option<f64> {
        None
    }
    /// Operations admitted but not yet started, fetched only in traced
    /// runs.
    fn queued(&self) -> Option<usize> {
        None
    }
    /// Switches the target's own instrumentation with the harness's.
    fn set_traced(&self, _on: bool) {}
}

/// One operation's timeline, in seconds from its step's start.
#[derive(Debug, Clone)]
pub struct Record {
    pub k: u64,
    pub due: f64,
    pub sent: f64,
    pub acked: f64,
    /// When the first poll that saw it done (or the failure) returned.
    pub done: f64,
    pub last_poll_rtt: f64,
    pub polls: u32,
    pub id: Option<u64>,
    pub outcome: Result<Done, Failure>,
    /// Traced runs only: each poll's `(start, end)`.
    pub poll_spans: Vec<(f64, f64)>,
    /// Traced, sampled operations only: queue wait from the journal.
    pub journal_queue_s: Option<f64>,
    /// Whether its polls are recorded as spans.
    pub traced: bool,
}

impl Record {
    fn new(k: u64, due: f64, sent: f64, traced: bool) -> Record {
        Record {
            k,
            due,
            sent,
            acked: sent,
            done: sent,
            last_poll_rtt: 0.0,
            polls: 0,
            id: None,
            outcome: Err(Failure::Timeout),
            poll_spans: Vec::new(),
            journal_queue_s: None,
            traced,
        }
    }

    pub fn latency(&self) -> f64 {
        self.done - self.due
    }

    pub fn late(&self) -> f64 {
        self.sent - self.due
    }

    pub fn ok(&self) -> Option<&Done> {
        self.outcome.as_ref().ok()
    }

    /// Books one poll reply; `true` once the operation is finished.
    fn polled(&mut self, reply: Polled, start: f64, end: f64) -> bool {
        self.polls += 1;
        self.last_poll_rtt = end - start;
        if self.traced {
            self.poll_spans.push((start, end));
        }
        let finished = match reply {
            Ok(None) if end - self.sent > OP_TIMEOUT.as_secs_f64() => {
                self.outcome = Err(Failure::Timeout);
                true
            }
            Ok(None) => false,
            Ok(Some(done)) => {
                self.outcome = Ok(done);
                true
            }
            Err(f) => {
                self.outcome = Err(f);
                true
            }
        };
        if finished {
            self.done = end;
        }
        finished
    }
}

/// How a step is instrumented.
#[derive(Debug, Clone, Copy)]
pub struct Instrument {
    pub trace: bool,
    /// Fetch the journal of operation `k` when `k % stride == offset`.
    pub journal_stride: u64,
    pub journal_offset: u64,
}

impl Instrument {
    fn finish<T: Target>(&self, target: &T, mut rec: Record) -> Record {
        if self.trace && rec.k % self.journal_stride == self.journal_offset && rec.ok().is_some() {
            if let Some(id) = rec.id {
                rec.journal_queue_s = target.queue_wait(id);
            }
        }
        rec
    }
}

/// A finished step of one round.
#[derive(Debug)]
pub struct StepRun {
    pub step: Step,
    pub round: u64,
    /// Whether the harness traced this step.
    pub traced: bool,
    /// Measured duration: arrivals span (open) or run time (closed).
    pub duration: f64,
    /// Open-loop rate, or 0 for closed loop.
    pub rate: f64,
    pub clients: usize,
    /// Offset of the step's start from the run's clock origin, seconds.
    pub start: f64,
    pub records: Vec<Record>,
    /// Operations in flight, sampled every quarter second of arrivals.
    pub backlog: Vec<usize>,
    /// Traced runs: the most operations the target reported queued at
    /// those samples.
    pub queued_max: usize,
}

/// Completed operations per second over closed-loop steps: in each, the
/// operations that finished inside its window, over the time the last of
/// them took.
pub fn throughput<'a>(runs: impl Iterator<Item = &'a StepRun>) -> f64 {
    let (mut n, mut t) = (0usize, 0.0);
    for run in runs {
        let done = run
            .records
            .iter()
            .filter(|r| r.ok().is_some() && r.done <= run.duration)
            .map(|r| r.done);
        let (count, last) = done.fold((0usize, 0.0f64), |(c, m), d| (c + 1, m.max(d)));
        n += count;
        t += last;
    }
    if t > 0.0 {
        n as f64 / t
    } else {
        0.0
    }
}

/// The generator's p99 lateness in `step`, pooled over its rounds, in
/// milliseconds.
pub fn late_p99_ms(runs: &[StepRun], step: Step) -> f64 {
    let mut late: Vec<f64> = runs
        .iter()
        .filter(|r| r.step == step)
        .flat_map(|r| r.records.iter().map(|rec| rec.late() * 1e3))
        .collect();
    late.sort_by(f64::total_cmp);
    crate::stats::quantile(&late, 0.99).unwrap_or(0.0)
}

/// Share of the paced steps' operations that failed or took longer than
/// `limit_ms`.
pub fn slo_miss_ratio(runs: &[StepRun], limit_ms: f64) -> f64 {
    let paced = || {
        runs.iter()
            .filter(|r| r.step != Step::Closed)
            .flat_map(|r| &r.records)
    };
    let missed = paced()
        .filter(|r| r.ok().is_none() || r.latency() * 1e3 > limit_ms)
        .count();
    missed as f64 / paced().count().max(1) as f64
}

fn secs(origin: Instant) -> f64 {
    origin.elapsed().as_secs_f64()
}

struct Sent {
    k: u64,
    due: f64,
    sent: f64,
    flight: Flight<Submitted>,
}

struct Tracking {
    rec: Record,
    /// Submit reply still awaited.
    submit: Option<Flight<Submitted>>,
    /// Poll in flight, and when it was sent.
    poll: Option<Flight<Polled>>,
    poll_sent: f64,
    next_poll: f64,
}

/// Runs one open-loop step: operations are sent at seeded Poisson
/// arrival times by one sender thread, whatever the target's state, and
/// one poller thread reads every reply and polls each operation to
/// completion.
#[allow(clippy::too_many_arguments)]
pub fn open_loop<T: Target>(
    target: &T,
    stream: &Stream,
    step: Step,
    round: u64,
    rate: f64,
    duration: f64,
    origin: Instant,
    inst: &Instrument,
) -> StepRun {
    let arrivals = stream.arrivals(step, round, rate, duration);
    let t0 = Instant::now();
    let start = t0.duration_since(origin).as_secs_f64();
    let (tx, rx) = mpsc::channel::<Sent>();
    let (mut records, backlog, queued_max) = std::thread::scope(|scope| {
        scope.spawn(move || {
            for (k, &due) in arrivals.iter().enumerate() {
                let req = target.prepare(&stream.op(step, round, k as u64));
                let wait = due - secs(t0);
                if wait > 0.0 {
                    std::thread::sleep(Duration::from_secs_f64(wait));
                }
                let sent = secs(t0);
                let flight = target.submit(&req);
                let msg = Sent {
                    k: k as u64,
                    due,
                    sent,
                    flight,
                };
                if tx.send(msg).is_err() {
                    return;
                }
            }
        });
        let poller = scope.spawn(move || poll_loop(target, rx, t0, duration, inst));
        poller.join().expect("poller thread panicked")
    });
    records.sort_by_key(|r| r.k);
    StepRun {
        step,
        round,
        traced: inst.trace,
        duration,
        rate,
        clients: 1,
        start,
        records,
        backlog,
        queued_max,
    }
}

fn poll_loop<T: Target>(
    target: &T,
    rx: mpsc::Receiver<Sent>,
    t0: Instant,
    duration: f64,
    inst: &Instrument,
) -> (Vec<Record>, Vec<usize>, usize) {
    let mut tracking: Vec<Tracking> = Vec::new();
    let mut records = Vec::new();
    let mut backlog = Vec::new();
    let mut queued_max = 0;
    let mut next_sample = 0.0;
    let mut sender_done = false;
    let gap = POLL_GAP.as_secs_f64();
    loop {
        if secs(t0) >= next_sample && next_sample < duration {
            backlog.push(tracking.len());
            if inst.trace {
                queued_max = queued_max.max(target.queued().unwrap_or(0));
            }
            next_sample += 0.25;
        }
        loop {
            match rx.try_recv() {
                Ok(s) => tracking.push(Tracking {
                    rec: Record::new(s.k, s.due, s.sent, inst.trace),
                    submit: Some(s.flight),
                    poll: None,
                    poll_sent: 0.0,
                    next_poll: 0.0,
                }),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    sender_done = true;
                    break;
                }
            }
        }
        if sender_done && tracking.is_empty() {
            return (records, backlog, queued_max);
        }
        let mut progressed = false;
        let mut i = 0;
        while i < tracking.len() {
            let t = &mut tracking[i];
            let mut finished = false;
            if t.submit.is_some() {
                if let Some(reply) = Flight::take(&mut t.submit) {
                    progressed = true;
                    t.rec.acked = secs(t0);
                    match reply {
                        Ok(id) => {
                            t.rec.id = Some(id);
                            t.next_poll = t.rec.acked;
                        }
                        Err(f) => {
                            t.rec.outcome = Err(f);
                            t.rec.done = t.rec.acked;
                            finished = true;
                        }
                    }
                }
            } else if t.poll.is_some() {
                if let Some(reply) = Flight::take(&mut t.poll) {
                    progressed = true;
                    let end = secs(t0);
                    finished = t.rec.polled(reply, t.poll_sent, end);
                    t.next_poll = end + gap;
                }
            } else if secs(t0) >= t.next_poll {
                let id = t.rec.id.expect("acknowledged operations have an id");
                t.poll_sent = secs(t0);
                t.poll = Some(target.poll(id));
                progressed = true;
            }
            if finished {
                let t = tracking.swap_remove(i);
                records.push(inst.finish(target, t.rec));
            } else {
                i += 1;
            }
        }
        if !progressed {
            std::thread::sleep(IDLE);
        }
    }
}

/// Runs one closed-loop step: `clients` threads each send an operation,
/// poll it to completion, and send the next, until `duration` has passed.
pub fn closed_loop<T: Target>(
    target: &T,
    stream: &Stream,
    round: u64,
    clients: usize,
    duration: f64,
    origin: Instant,
    traced: bool,
) -> StepRun {
    let next = AtomicU64::new(0);
    let t0 = Instant::now();
    let start = t0.duration_since(origin).as_secs_f64();
    let mut records: Vec<Record> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let req = target.prepare(&stream.op(Step::Closed, round, k));
                        let sent = secs(t0);
                        if sent >= duration {
                            return mine;
                        }
                        let mut rec = Record::new(k, sent, sent, traced);
                        let submitted = target.submit(&req).wait();
                        rec.acked = secs(t0);
                        rec.done = rec.acked;
                        match submitted {
                            Ok(id) => {
                                rec.id = Some(id);
                                loop {
                                    let start = secs(t0);
                                    let reply = target.poll(id).wait();
                                    if rec.polled(reply, start, secs(t0)) {
                                        break;
                                    }
                                    std::thread::sleep(POLL_GAP);
                                }
                            }
                            Err(f) => rec.outcome = Err(f),
                        }
                        mine.push(rec);
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    records.sort_by_key(|r| r.k);
    StepRun {
        step: Step::Closed,
        round,
        traced,
        duration,
        rate: 0.0,
        clients,
        start,
        records,
        backlog: Vec::new(),
        queued_max: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::by_name;

    /// An in-memory target whose first submission stalls the sender.
    struct Stalling {
        stall: Duration,
        sent: AtomicU64,
    }

    impl Target for Stalling {
        type Req = ();
        fn prepare(&self, _op: &Op) {}
        fn submit(&self, _req: &()) -> Flight<Submitted> {
            let k = self.sent.fetch_add(1, Ordering::SeqCst);
            if k == 0 {
                std::thread::sleep(self.stall);
            }
            Flight::Ready(Ok(k))
        }
        fn poll(&self, _id: u64) -> Flight<Polled> {
            Flight::Ready(Ok(Some(Done {
                result: String::new(),
                wall_s: 0.0,
                attempts: 1,
                hit: false,
                queue_s: None,
            })))
        }
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let w = by_name("op_small").expect("known");
        let stream = Stream::new(w, 3);
        let target = Stalling {
            stall: Duration::from_millis(100),
            sent: AtomicU64::new(0),
        };
        let inst = Instrument {
            trace: false,
            journal_stride: 1,
            journal_offset: 0,
        };
        let run = open_loop(
            &target,
            &stream,
            Step::Nominal,
            0,
            200.0,
            0.5,
            Instant::now(),
            &inst,
        );
        // Every operation due during the stall was sent late, and its
        // latency includes that lateness, not just its own round trip.
        let delayed: Vec<&Record> = run
            .records
            .iter()
            .filter(|r| r.due < 0.09)
            .skip(1)
            .collect();
        assert!(delayed.len() >= 5, "{} delayed ops", delayed.len());
        for r in delayed {
            assert!(r.late() > 0.005, "op {} sent {} s late", r.k, r.late());
            assert!(r.latency() >= r.late(), "op {} latency omits lateness", r.k);
            assert!(r.done - r.sent < r.latency());
        }
        assert!(run.records.iter().all(|r| r.ok().is_some()));
    }
}
