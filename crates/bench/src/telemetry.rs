//! Shared `--telemetry` plumbing for the `repro_*` binaries.
//!
//! Every reproduction binary accepts `--telemetry <path.json>`. The flag is
//! stripped from the argument list *before* the binary's own (strict) flag
//! parsing runs, so binaries that reject unknown flags never see it. When
//! present, global [`fts_telemetry`] collection is switched on for the whole
//! run and [`Session::finish`] writes three artifacts:
//!
//! * the merged telemetry report (`fts-telemetry/1` JSON) at the given path;
//! * a Chrome trace (`<path>.trace.json`) loadable in `chrome://tracing`;
//! * a benchmark summary `BENCH_<bin>.json` in the working directory with
//!   total and per-phase wall times.

use std::time::Instant;

/// Telemetry/benchmark session for one `repro_*` binary.
pub struct Session {
    bin: &'static str,
    out: Option<String>,
    started: Instant,
    mark: Instant,
    phases: Vec<(String, f64)>,
}

/// Parses and removes `--telemetry <path.json>` from `args`, enabling
/// global collection when the flag is present. Call once, at the top of
/// `main`, with the argument list the binary will parse afterwards.
pub fn from_args(bin: &'static str, args: &mut Vec<String>) -> Session {
    let mut out = None;
    if let Some(k) = args.iter().position(|a| a == "--telemetry") {
        args.remove(k);
        if k >= args.len() {
            eprintln!("--telemetry needs a file path");
            std::process::exit(2);
        }
        out = Some(args.remove(k));
        fts_telemetry::reset();
        fts_telemetry::set_enabled(true);
    }
    let now = Instant::now();
    Session {
        bin,
        out,
        started: now,
        mark: now,
        phases: Vec::new(),
    }
}

/// Turns on global counter collection when `session` is inactive (i.e. the
/// binary ran without `--telemetry`), so solver statistics are gathered
/// either way. Returns `true` when this call enabled collection; pass that
/// to [`solver_stats_done`] after reading the stats.
pub fn ensure_counters(session: &Session) -> bool {
    if session.active() {
        return false;
    }
    fts_telemetry::reset();
    fts_telemetry::set_enabled(true);
    true
}

/// Disables collection again when [`ensure_counters`] turned it on.
pub fn solver_stats_done(enabled_here: bool) {
    if enabled_here {
        fts_telemetry::set_enabled(false);
        fts_telemetry::reset();
    }
}

/// JSON object of linear-solver statistics drawn from the live telemetry
/// counters: engine selections, numeric factor/solve counts, and the
/// symbolic-analysis reuse rate (1.0 = every workspace after the first
/// reused a shared fill-reducing ordering).
pub fn solver_stats_json() -> String {
    let r = fts_telemetry::snapshot();
    let new = r.counter("spice.sparse.symbolic_new");
    let reuse = r.counter("spice.sparse.symbolic_reuse");
    let miss = r.counter("spice.sparse.symbolic_miss");
    let analyses = new + miss;
    let requests = analyses + reuse;
    let reuse_rate = if requests == 0 {
        0.0
    } else {
        reuse as f64 / requests as f64
    };
    format!(
        concat!(
            "{{\"dense_selected\":{},\"sparse_selected\":{},",
            "\"factor_count\":{},\"solve_count\":{},",
            "\"symbolic_new\":{},\"symbolic_reuse\":{},\"symbolic_miss\":{},",
            "\"symbolic_reuse_rate\":{}}}"
        ),
        r.counter("spice.solver.dense"),
        r.counter("spice.solver.sparse"),
        r.counter("spice.sparse.factor"),
        r.counter("spice.sparse.solve"),
        new,
        reuse,
        miss,
        reuse_rate,
    )
}

impl Session {
    /// True when `--telemetry` was passed.
    pub fn active(&self) -> bool {
        self.out.is_some()
    }

    /// Closes the phase that ran since the previous mark (or session
    /// start) and records it under `name`.
    pub fn phase_done(&mut self, name: &str) {
        let now = Instant::now();
        self.phases
            .push((name.to_owned(), (now - self.mark).as_secs_f64()));
        self.mark = now;
    }

    /// Completed phases so far as `(name, wall_seconds)` pairs.
    pub fn phases(&self) -> &[(String, f64)] {
        &self.phases
    }

    /// JSON fragment of the phase list: `[{"name":...,"wall_s":...},...]`.
    pub fn phases_json(&self) -> String {
        let items: Vec<String> = self
            .phases
            .iter()
            .map(|(n, s)| format!("{{\"name\":\"{n}\",\"wall_s\":{s}}}"))
            .collect();
        format!("[{}]", items.join(","))
    }

    /// Writes the telemetry report, Chrome trace, and bench summary when
    /// the session is active; a no-op otherwise. Disables collection.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures writing any artifact.
    pub fn finish(self) -> std::io::Result<()> {
        let total_s = self.started.elapsed().as_secs_f64();
        let Some(out) = self.out.clone() else {
            return Ok(());
        };
        let report = fts_telemetry::snapshot();
        fts_telemetry::set_enabled(false);
        fts_telemetry::reset();

        std::fs::write(&out, report.to_json())?;
        let trace_path = format!("{out}.trace.json");
        std::fs::write(&trace_path, report.to_chrome_trace())?;

        let bench = format!(
            concat!(
                "{{\"schema\":\"fts-bench/1\",\"bin\":\"{}\",\"wall_s\":{},",
                "\"phases\":{}}}"
            ),
            self.bin,
            total_s,
            self.phases_json(),
        );
        let bench_path = format!("BENCH_{}.json", self.bin);
        std::fs::write(&bench_path, &bench)?;
        eprintln!("[telemetry] report: {out}  trace: {trace_path}  bench: {bench_path}");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_flag_and_leaves_other_args() {
        let mut args: Vec<String> = ["--trials", "8", "--telemetry", "/tmp/t.json", "--json"]
            .map(String::from)
            .to_vec();
        let tel = from_args("unit_test_bin", &mut args);
        assert!(tel.active());
        assert_eq!(args, ["--trials", "8", "--json"]);
        fts_telemetry::set_enabled(false);
        fts_telemetry::reset();
    }

    #[test]
    fn absent_flag_is_inactive() {
        let mut args: Vec<String> = ["--json"].map(String::from).to_vec();
        let mut tel = from_args("unit_test_bin", &mut args);
        assert!(!tel.active());
        assert_eq!(args, ["--json"]);
        tel.phase_done("a");
        tel.phase_done("b");
        assert_eq!(tel.phases().len(), 2);
        assert!(tel.phases_json().starts_with("[{\"name\":\"a\""));
        tel.finish().unwrap();
    }
}
