//! `benchmark compare <parent_dir> <change_dir>`: applies the bounds in
//! `BENCHMARK.json` to two directories of untraced run records.
//!
//! Runs pair up by workload and seed. For each workload × end-to-end
//! metric the verdict is:
//!
//! * `unresolved` — the parent's own spread (interquartile range over
//!   median) is wider than the bound, and not every change run beats every
//!   parent run;
//! * `regressed` — the change's median is worse than the parent's by more
//!   than the bound;
//! * `improved` — at least 10 pairs, the change wins at least 9 in 10 of
//!   them (ties count for neither side), and the medians differ by more
//!   than the parent's interquartile range;
//! * `within_bound` — otherwise.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use fts_server::wire::Json;

use crate::stats::quartiles;

/// Pairs needed before a gain can be claimed.
const MIN_PAIRS: usize = 10;
/// Share of pairs the change must win to claim a gain.
const WIN_SHARE: f64 = 0.9;

#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// The `end_to_end` bounds of a `BENCHMARK.json` document.
pub fn bounds(doc: &str) -> Result<Vec<Bound>, String> {
    let doc = Json::parse(doc)?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("no end_to_end list")?;
    list.iter()
        .map(|m| {
            let s = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .ok_or(format!("metric without {k}"))
            };
            Ok(Bound {
                name: s("name")?.to_owned(),
                unit: s("unit")?.to_owned(),
                higher_is_better: s("better")? == "higher",
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without bound")?,
            })
        })
        .collect()
}

/// `(workload, seed)` → metric name → value, from every untraced run
/// record in `dir`.
type Runs = BTreeMap<(String, u64), BTreeMap<String, f64>>;

fn load(dir: &Path) -> Result<Runs, String> {
    let mut runs = Runs::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let Ok(doc) = Json::parse(&text) else {
            continue;
        };
        if doc.get("schema").and_then(Json::as_str) != Some("fts-benchmark/1")
            || doc.get("trace").and_then(Json::as_bool) != Some(false)
        {
            continue;
        }
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_owned();
        let seed = doc.get("seed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let Some(Json::Object(metrics)) = doc.get("metrics") else {
            continue;
        };
        let values = metrics
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect();
        runs.insert((workload, seed), values);
    }
    Ok(runs)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    WithinBound,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within_bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict for one metric, given the paired `(parent, change)` values.
pub fn verdict(b: &Bound, pairs: &[(f64, f64)]) -> Verdict {
    let parent: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let change: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let [p1, pm, p3] = quartiles(&parent);
    let cm = quartiles(&change)[1];
    // Signed so that positive is better for the change.
    let gain = |parent: f64, change: f64| {
        if b.higher_is_better {
            change - parent
        } else {
            parent - change
        }
    };
    let all_better = parent
        .iter()
        .all(|&p| change.iter().all(|&c| gain(p, c) > 0.0));
    if (p3 - p1) / pm.abs() > b.bound && !all_better {
        return Verdict::Unresolved;
    }
    if gain(pm, cm) < -b.bound * pm.abs() {
        return Verdict::Regressed;
    }
    let wins = pairs.iter().filter(|&&(p, c)| gain(p, c) > 0.0).count();
    if pairs.len() >= MIN_PAIRS
        && wins as f64 >= WIN_SHARE * pairs.len() as f64
        && gain(pm, cm) > p3 - p1
    {
        return Verdict::Improved;
    }
    Verdict::WithinBound
}

pub fn main(argv: &[String]) -> ExitCode {
    let mut dirs = Vec::new();
    let mut bench = "BENCHMARK.json".to_owned();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--bench" => match it.next() {
                Some(p) => bench = p.clone(),
                None => {
                    eprintln!("compare: --bench needs a path");
                    return ExitCode::from(2);
                }
            },
            _ => dirs.push(a.clone()),
        }
    }
    let [parent_dir, change_dir] = dirs.as_slice() else {
        eprintln!("usage: benchmark compare PARENT_DIR CHANGE_DIR [--bench BENCHMARK.json]");
        return ExitCode::from(2);
    };
    let loaded = std::fs::read_to_string(&bench)
        .map_err(|e| format!("{bench}: {e}"))
        .and_then(|doc| bounds(&doc))
        .and_then(|b| {
            Ok((
                b,
                load(Path::new(parent_dir))?,
                load(Path::new(change_dir))?,
            ))
        });
    let (bounds, parent, change) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("compare: {e}");
            return ExitCode::FAILURE;
        }
    };
    let workloads: Vec<&String> = {
        let mut w: Vec<&String> = parent.keys().map(|(w, _)| w).collect();
        w.dedup();
        w
    };
    println!(
        "{:<14} {:<22} {:<5} {:>5} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}  verdict",
        "workload",
        "metric",
        "unit",
        "pairs",
        "parent_q1",
        "parent_med",
        "parent_q3",
        "change_q1",
        "change_med",
        "change_q3"
    );
    let mut regressed = false;
    for w in workloads {
        for b in &bounds {
            let pairs: Vec<(f64, f64)> = parent
                .iter()
                .filter(|((pw, _), _)| pw == w)
                .filter_map(|(key, pm)| Some((*pm.get(&b.name)?, *change.get(key)?.get(&b.name)?)))
                .collect();
            if pairs.is_empty() {
                println!(
                    "{w:<14} {:<22} {:<5} {:>5}  no paired runs",
                    b.name, b.unit, 0
                );
                continue;
            }
            let v = verdict(b, &pairs);
            regressed |= v == Verdict::Regressed;
            let p = quartiles(&pairs.iter().map(|x| x.0).collect::<Vec<_>>());
            let c = quartiles(&pairs.iter().map(|x| x.1).collect::<Vec<_>>());
            println!(
                "{w:<14} {:<22} {:<5} {:>5} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>12.6}  {}",
                b.name,
                b.unit,
                pairs.len(),
                p[0],
                p[1],
                p[2],
                c[0],
                c[1],
                c[2],
                v.name()
            );
        }
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "latency_p50_ms".to_owned(),
            unit: "ms".to_owned(),
            higher_is_better: false,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_pair_rule() {
        let same: Vec<(f64, f64)> = (0..10)
            .map(|i| (10.0 + 0.01 * f64::from(i), 10.0 + 0.01 * f64::from(9 - i)))
            .collect();
        assert_eq!(verdict(&lower(0.1), &same), Verdict::WithinBound);
        let slower: Vec<(f64, f64)> = same.iter().map(|&(p, c)| (p, c * 1.3)).collect();
        assert_eq!(verdict(&lower(0.1), &slower), Verdict::Regressed);
        let faster: Vec<(f64, f64)> = same.iter().map(|&(p, c)| (p, c * 0.8)).collect();
        assert_eq!(verdict(&lower(0.1), &faster), Verdict::Improved);
        // Five pairs can regress or hold, but never claim a gain.
        assert_eq!(verdict(&lower(0.1), &faster[..5]), Verdict::WithinBound);
        let noisy: Vec<(f64, f64)> = (0..10).map(|i| (5.0 + f64::from(i), 9.0)).collect();
        assert_eq!(verdict(&lower(0.1), &noisy), Verdict::Unresolved);
    }

    #[test]
    fn benchmark_json_bounds_match_the_metrics_the_runs_print() {
        let doc =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        let e2e: Vec<(String, String)> = bounds(&doc)
            .expect("parses")
            .into_iter()
            .map(|b| (b.name, b.unit))
            .collect();
        let want: Vec<(String, String)> = crate::record::END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(e2e, want);
        let parsed = Json::parse(&doc).expect("json");
        let layers: Vec<(&str, &str)> = parsed
            .get("per_layer")
            .and_then(Json::as_array)
            .expect("per_layer")
            .iter()
            .filter_map(|m| Some((m.get("name")?.as_str()?, m.get("unit")?.as_str()?)))
            .collect();
        assert_eq!(layers, crate::layers::PER_LAYER.to_vec());
        let workloads: Vec<(&str, &str)> = parsed
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .filter_map(|m| Some((m.get("name")?.as_str()?, m.get("why")?.as_str()?)))
            .collect();
        assert!(!workloads.is_empty());
        for (name, why) in workloads {
            let w = crate::workloads::by_name(name)
                .unwrap_or_else(|| panic!("unknown workload {name}"));
            assert_eq!(w.why, why, "{name}");
        }
    }
}
