//! The five workloads: what each sends, at which rates, and why.
//!
//! Every input is a pure function of `(seed, step, k)`, so the same seed
//! gives the same job stream on any commit, and the program under test sees
//! only the generated requests.

use fts_server::wire::AnalysisSpec;

use crate::rng::Rng;

/// What a workload's operations are and who executes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Bypass `op` jobs on small lattices, uniform over (function, input).
    OpSmall,
    /// Bypass `op` jobs on 4- and 5-input lattices plus short transients.
    LargeLattice,
    /// Default-cache `POST /v1/decks` op decks of the XOR3 lattice with
    /// Zipf-popular (supply, input pattern) keys.
    SweepCached,
    /// In-process yield estimates through `MonteCarlo::run`.
    McYield,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub mix: Mix,
    /// Sent to a `Coordinator` over two one-worker `Server`s instead of
    /// one `Server`.
    pub cluster: bool,
    /// Open-loop arrival rate of the `nominal` step, about half the
    /// closed-loop capacity measured at the commit that added the
    /// benchmark. Operations per second.
    pub nominal_per_s: f64,
    /// Open-loop arrival rate of the `high` step, about three quarters of
    /// that capacity.
    pub high_per_s: f64,
    /// The latency limit an operation must meet to count as served in
    /// time: about three times the nominal tail at that commit.
    pub latency_limit_ms: f64,
    /// The tail percentile reported, the highest whose ten-samples-beyond
    /// rule one round's expected `nominal` sample count meets.
    pub tail_p: f64,
}

/// Share of `--seconds` given to the `nominal`, `high` and closed-loop
/// steps.
pub const STEP_SHARES: [f64; 3] = [0.45, 0.3, 0.25];

/// Each run cycles through the three steps this many times, and reports
/// each step's figures as their median over the rounds: the host's speed
/// drifts over seconds and stalls now and then, and one contiguous step
/// would see only one phase of it.
pub const ROUNDS: u64 = 6;

/// The three measured steps of every workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    Nominal,
    High,
    Closed,
}

impl Step {
    pub const ALL: [Step; 3] = [Step::Nominal, Step::High, Step::Closed];

    pub fn name(self) -> &'static str {
        match self {
            Step::Nominal => "nominal",
            Step::High => "high",
            Step::Closed => "closed",
        }
    }

    fn stream(self, round: u64) -> u64 {
        (round << 2) + self as u64 + 1
    }
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "op_small",
        why: "bypass op jobs on 2-3 input lattices: solves take microseconds, so HTTP, wire and service dominate and a solver gain should not show",
        mix: Mix::OpSmall,
        cluster: false,
        nominal_per_s: 350.0,
        high_per_s: 500.0,
        latency_limit_ms: 25.0,
        tail_p: 0.95,
    },
    Workload {
        name: "large_lattice",
        why: "bypass op and transient jobs on 4-5 input lattices with 38-223 unknowns: spice, build and cache.key dominate and HTTP is small",
        mix: Mix::LargeLattice,
        cluster: false,
        nominal_per_s: 45.0,
        high_per_s: 75.0,
        latency_limit_ms: 150.0,
        tail_p: 0.90,
    },
    Workload {
        name: "sweep_cached",
        why: "Zipf-popular XOR3 op decks over a supply grid, 4x the cache: the only workload whose cache both hits and misses, warm-starts and evicts",
        mix: Mix::SweepCached,
        cluster: false,
        nominal_per_s: 320.0,
        high_per_s: 480.0,
        latency_limit_ms: 25.0,
        tail_p: 0.95,
    },
    Workload {
        name: "cluster_op",
        why: "op_small's job stream through a coordinator over two one-worker servers: isolates the coordinator hop",
        mix: Mix::OpSmall,
        cluster: true,
        nominal_per_s: 200.0,
        high_per_s: 300.0,
        latency_limit_ms: 50.0,
        tail_p: 0.95,
    },
    Workload {
        name: "mc_yield",
        why: "in-process Monte Carlo yield estimates on the XOR3 lattice: fts-montecarlo and the lockstep ensemble LU do all the work, no server layer runs",
        mix: Mix::McYield,
        cluster: false,
        nominal_per_s: 15.0,
        high_per_s: 24.0,
        latency_limit_ms: 300.0,
        tail_p: 0.75,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The small lattices of `op_small` with their input counts.
pub const SMALL: [(&str, u32); 9] = [
    ("and2", 2),
    ("and3", 3),
    ("or2", 2),
    ("or3", 3),
    ("xor2", 2),
    ("xor3", 3),
    ("xnor2", 2),
    ("xnor3", 3),
    ("maj3", 3),
];

/// The large lattices of `large_lattice`'s op jobs with their input counts.
pub const LARGE: [(&str, u32); 5] = [
    ("xor4", 4),
    ("maj5", 5),
    ("th24", 4),
    ("and4", 4),
    ("or4", 4),
];

/// The lattices of `large_lattice`'s transient jobs.
pub const TRANSIENT: [&str; 2] = ["xor3", "xor4"];

/// Share of `large_lattice` jobs that are `op` (the rest are transients).
const LARGE_OP_SHARE: f64 = 0.6;

/// The transient every `large_lattice` transient job runs.
pub const TRANSIENT_ANALYSIS: AnalysisSpec = AnalysisSpec::Transient {
    phase_ns: 5.0,
    dt_ns: 0.5,
    max_samples: 64,
};

/// `sweep_cached`'s supply grid: `SUPPLY_STEPS` values from `SUPPLY_MIN_V`
/// in `SUPPLY_STEP_V` increments, each with one of 8 input patterns, so
/// 968 distinct keys against the server's 256-entry cache.
pub const SUPPLY_MIN_V: f64 = 1.0;
pub const SUPPLY_STEP_V: f64 = 0.005;
pub const SUPPLY_STEPS: u32 = 121;
pub const PATTERNS: u32 = 8;
/// Zipf exponent of key popularity.
const ZIPF_S: f64 = 1.0;

/// Trials per `mc_yield` estimate: one lockstep chunk of the default
/// 16-lane ensemble, the unit `MonteCarlo::run` schedules.
pub const MC_TRIALS: u64 = 16;
pub const MC_DEFECT_PROB: f64 = 0.01;

/// One operation of a workload.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A named-function job, always `"cache":"bypass"`.
    Function {
        name: &'static str,
        analysis: AnalysisSpec,
    },
    /// A `sweep_cached` deck: input pattern and supply-grid index.
    Deck { pattern: u32, supply: u32 },
    /// An `mc_yield` estimate with its master seed.
    Estimate { master_seed: u64 },
}

impl Op {
    /// A stable text form, used as the operation's identity in gates.
    pub fn key(&self) -> String {
        format!("{self:?}")
    }
}

/// A seeded operation source for one workload run.
pub struct Stream {
    mix: Mix,
    seed: u64,
    /// `sweep_cached`: cumulative Zipf weights by rank, and the seeded
    /// rank → key mapping.
    zipf_cdf: Vec<f64>,
    key_of_rank: Vec<u32>,
}

impl Stream {
    pub fn new(w: &Workload, seed: u64) -> Stream {
        let mut zipf_cdf = Vec::new();
        let mut key_of_rank = Vec::new();
        if w.mix == Mix::SweepCached {
            let keys = SUPPLY_STEPS * PATTERNS;
            let mut acc = 0.0;
            for r in 0..keys {
                acc += 1.0 / f64::from(r + 1).powf(ZIPF_S);
                zipf_cdf.push(acc);
            }
            key_of_rank = (0..keys).collect();
            let mut rng = Rng::new(seed, 0);
            for i in (1..key_of_rank.len()).rev() {
                let j = rng.below(i as u64 + 1) as usize;
                key_of_rank.swap(i, j);
            }
        }
        Stream {
            mix: w.mix,
            seed,
            zipf_cdf,
            key_of_rank,
        }
    }

    /// Operation `k` of `step` in round `round`.
    pub fn op(&self, step: Step, round: u64, k: u64) -> Op {
        let mut rng = Rng::new(self.seed, step.stream(round) << 40 ^ k);
        match self.mix {
            Mix::OpSmall => {
                let pairs: u64 = SMALL.iter().map(|&(_, v)| 1u64 << v).sum();
                let mut pick = rng.below(pairs);
                for &(name, vars) in &SMALL {
                    let n = 1u64 << vars;
                    if pick < n {
                        return Op::Function {
                            name,
                            analysis: AnalysisSpec::Op { input: pick as u32 },
                        };
                    }
                    pick -= n;
                }
                unreachable!("pick < total pairs")
            }
            Mix::LargeLattice => {
                if rng.unit() < LARGE_OP_SHARE {
                    let (name, vars) = LARGE[rng.below(LARGE.len() as u64) as usize];
                    let input = rng.below(1 << vars) as u32;
                    Op::Function {
                        name,
                        analysis: AnalysisSpec::Op { input },
                    }
                } else {
                    Op::Function {
                        name: TRANSIENT[rng.below(TRANSIENT.len() as u64) as usize],
                        analysis: TRANSIENT_ANALYSIS,
                    }
                }
            }
            Mix::SweepCached => {
                let total = *self.zipf_cdf.last().expect("non-empty grid");
                let u = rng.unit() * total;
                let rank = self.zipf_cdf.partition_point(|&c| c <= u);
                let key = self.key_of_rank[rank.min(self.key_of_rank.len() - 1)];
                Op::Deck {
                    pattern: key % PATTERNS,
                    supply: key / PATTERNS,
                }
            }
            Mix::McYield => Op::Estimate {
                master_seed: rng.next_u64(),
            },
        }
    }

    /// Open-loop send times (seconds from the step start) of a Poisson
    /// process at `rate` over `duration`.
    pub fn arrivals(&self, step: Step, round: u64, rate: f64, duration: f64) -> Vec<f64> {
        let mut rng = Rng::new(self.seed, step.stream(round) << 56);
        let mut t = 0.0;
        let mut out = Vec::with_capacity((rate * duration * 1.2) as usize + 16);
        loop {
            t += -(1.0 - rng.unit()).ln() / rate;
            if t >= duration {
                return out;
            }
            out.push(t);
        }
    }
}

/// The function jobs a workload's mix can send, one per distinct
/// (function, analysis kind): the set-up warms each once.
pub fn warmup_ops(mix: Mix) -> Vec<Op> {
    let op = |name| Op::Function {
        name,
        analysis: AnalysisSpec::Op { input: 0 },
    };
    match mix {
        Mix::OpSmall => SMALL.iter().map(|&(name, _)| op(name)).collect(),
        Mix::LargeLattice => LARGE
            .iter()
            .map(|&(name, _)| op(name))
            .chain(TRANSIENT.iter().map(|&name| Op::Function {
                name,
                analysis: TRANSIENT_ANALYSIS,
            }))
            .collect(),
        Mix::SweepCached => vec![Op::Deck {
            pattern: 0,
            supply: 0,
        }],
        Mix::McYield => vec![Op::Estimate { master_seed: 0 }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_of(name: &str, seed: u64) -> (Vec<Op>, Vec<f64>) {
        let w = by_name(name).expect("known workload");
        let s = Stream::new(w, seed);
        let ops = Step::ALL
            .iter()
            .flat_map(|&step| (0..2).flat_map(move |round| (0..100).map(move |k| (step, round, k))))
            .map(|(step, round, k)| s.op(step, round, k))
            .collect();
        (ops, s.arrivals(Step::Nominal, 1, w.nominal_per_s, 2.0))
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for w in &WORKLOADS {
            let a = stream_of(w.name, 7);
            assert_eq!(a, stream_of(w.name, 7), "{}: same seed must repeat", w.name);
            let b = stream_of(w.name, 8);
            assert_ne!(a.0, b.0, "{}: ops must depend on the seed", w.name);
            assert_ne!(a.1, b.1, "{}: arrivals must depend on the seed", w.name);
        }
    }

    #[test]
    fn streams_cover_their_mix() {
        let (ops, arrivals) = stream_of("large_lattice", 1);
        let transients = ops
            .iter()
            .filter(|op| {
                matches!(
                    op,
                    Op::Function {
                        analysis: AnalysisSpec::Transient { .. },
                        ..
                    }
                )
            })
            .count();
        let share = transients as f64 / ops.len() as f64;
        assert!((0.3..0.5).contains(&share), "transient share {share}");
        let w = by_name("large_lattice").expect("known");
        let long = Stream::new(w, 1).arrivals(Step::Nominal, 0, w.nominal_per_s, 40.0);
        let rate = long.len() as f64 / 40.0;
        assert!(
            (rate / w.nominal_per_s - 1.0).abs() < 0.1,
            "arrival rate {rate}"
        );
        assert!(arrivals.windows(2).all(|p| p[0] < p[1]) && arrivals.iter().all(|&t| t < 2.0));

        let (ops, _) = stream_of("sweep_cached", 1);
        let distinct: std::collections::BTreeSet<String> = ops.iter().map(Op::key).collect();
        assert!(
            distinct.len() > 100 && distinct.len() < ops.len(),
            "{}",
            distinct.len()
        );
    }
}
