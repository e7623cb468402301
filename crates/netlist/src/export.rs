//! [`SimJob`] → deck text, the inverse of [`crate::elaborate()`].
//!
//! The exporter targets *bit-reproducibility*: elaborating the exported
//! deck yields a job whose results are byte-identical to the original's.
//! That means preserving two orders the MNA system is sensitive to —
//! node creation order (via the always-emitted `.nodeorder` dialect card)
//! and device insertion order — and reconstructing `.dc` ladders whose
//! regenerated values are bitwise equal.
//!
//! Only the deck-expressible subset exports: jobs with deadlines, AC
//! sweeps, non-default solver selection, adaptive transients, or
//! non-default sample caps return an error instead of a lossy deck.
//! Labels and retry policies are *not* represented (elaboration assigns
//! positional labels and the default policy); neither affects outcomes.

use std::collections::HashMap;

use fts_engine::{Analysis, SimJob, DEFAULT_MAX_SAMPLES};
use fts_spice::analysis::{Integrator, Stepping};
use fts_spice::{DeviceView, Mos3Params, MosParams, Netlist, NodeId, SolverKind, Waveform};

use crate::ast::{
    AnalysisCard, Card, Deck, ElementCard, ModelCard, MosCard, SourceCard, SourceCardBody, Value,
    WaveSpec,
};
use crate::parse::valid_name;
use crate::print::render;

/// Title comment prepended to every exported deck.
const TITLE: &str = "* exported by fts-netlist; node and device order are load-bearing\n";

/// Renders `job` as a deck that elaborates back to a job with
/// byte-identical results. `out` is the report node; it becomes the first
/// `.probe` card (for transient jobs it must be the job's first probe).
///
/// # Errors
///
/// A human-readable message when the job is outside the deck-expressible
/// subset.
pub fn export_job(job: &SimJob, out: NodeId) -> Result<String, String> {
    if job.deadline.is_some() {
        return Err("jobs with deadlines are not deck-expressible".to_owned());
    }
    let nl = &job.netlist;
    if nl.solver_kind() != SolverKind::Auto {
        return Err("forced solver selection is not deck-expressible".to_owned());
    }
    if nl.device_count() == 0 {
        return Err("empty netlist".to_owned());
    }
    if nl.device_count() + nl.node_count() > 60_000 {
        return Err("netlist too large for the deck card limit".to_owned());
    }

    let mut deck = Deck::default();
    let card = |card: Card| SourceCard { line: 0, card };

    // Node order is load-bearing: it fixes MNA row order, hence pivoting,
    // hence the last bits of every solve.
    let mut nodes = Vec::with_capacity(nl.node_count().saturating_sub(1));
    for idx in 1..nl.node_count() {
        let name = nl.node_name(nl.node_id(idx)).to_ascii_lowercase();
        if !valid_name(&name) || name == "0" {
            return Err(format!("node name {name:?} is not deck-expressible"));
        }
        if nodes.contains(&name) {
            return Err(format!("node names collide after lowercasing: {name:?}"));
        }
        nodes.push(name);
    }
    deck.cards.push(card(Card::NodeOrder(nodes)));

    // Models, deduplicated bitwise, named in first-use order.
    let mut exporter = ModelTable::default();
    let views: Vec<DeviceView> = nl.devices().collect();
    for view in &views {
        match view {
            DeviceView::Nmos { params, .. } => exporter.intern1(params),
            DeviceView::Nmos3 { params, .. } => exporter.intern3(params),
            _ => {}
        }
    }
    for model in &exporter.cards {
        deck.cards.push(card(Card::Model(model.clone())));
    }

    // Devices in insertion order, skipping the gate capacitors that
    // `Netlist::nmos3` auto-instantiates (elaboration re-adds them at the
    // same position).
    let mut dc_source: Option<String> = None;
    let wanted_source = match &job.analysis {
        Analysis::DcSweep { source, .. } => Some(source.as_str()),
        _ => None,
    };
    let mut i = 0;
    while i < views.len() {
        let view = &views[i];
        let element = match view {
            DeviceView::Resistor { name, a, b, ohms } => ElementCard::Res {
                name: device_name(name, b'r')?,
                a: node(nl, *a),
                b: node(nl, *b),
                value: lit(*ohms)?,
            },
            DeviceView::Capacitor {
                name, a, b, farads, ..
            } => ElementCard::Cap {
                name: device_name(name, b'c')?,
                a: node(nl, *a),
                b: node(nl, *b),
                value: lit(*farads)?,
            },
            DeviceView::VSource {
                name,
                plus,
                minus,
                wave,
            } => {
                let deck_name = device_name(name, b'v')?;
                if wanted_source == Some(*name) {
                    dc_source = Some(deck_name.clone());
                }
                ElementCard::V(SourceCardBody {
                    name: deck_name,
                    plus: node(nl, *plus),
                    minus: node(nl, *minus),
                    wave: wave_spec(wave)?,
                    ac_mag: None,
                })
            }
            DeviceView::ISource {
                name,
                from,
                to,
                wave,
            } => ElementCard::I(SourceCardBody {
                name: device_name(name, b'i')?,
                plus: node(nl, *from),
                minus: node(nl, *to),
                wave: wave_spec(wave)?,
                ac_mag: None,
            }),
            DeviceView::Nmos {
                name,
                d,
                g,
                s,
                params,
            } => ElementCard::Mos(MosCard {
                name: device_name(name, b'm')?,
                d: node(nl, *d),
                g: node(nl, *g),
                s: node(nl, *s),
                bulk: None,
                model: exporter.name1(params),
                w: None,
                l: None,
                wol: Some(lit(params.w_over_l)?),
            }),
            DeviceView::Nmos3 {
                name,
                d,
                g,
                s,
                params,
            } => {
                // Skip the auto-instantiated `<name>_cgs` / `<name>_cgd`
                // companions; elaboration recreates them identically.
                for (suffix, cap_b, farads) in [("_cgs", *s, params.cgs), ("_cgd", *d, params.cgd)]
                {
                    if farads <= 0.0 {
                        continue;
                    }
                    let expect = format!("{name}{suffix}");
                    match views.get(i + 1) {
                        Some(DeviceView::Capacitor {
                            name: cname,
                            a,
                            b,
                            farads: f,
                        }) if *cname == expect
                            && *a == *g
                            && *b == cap_b
                            && f.to_bits() == farads.to_bits() =>
                        {
                            i += 1;
                        }
                        _ => {
                            return Err(format!(
                                "MOSFET {name:?} lacks its auto gate capacitor {expect:?}"
                            ))
                        }
                    }
                }
                ElementCard::Mos(MosCard {
                    name: device_name(name, b'm')?,
                    d: node(nl, *d),
                    g: node(nl, *g),
                    s: node(nl, *s),
                    bulk: None,
                    model: exporter.name3(params),
                    w: None,
                    l: None,
                    wol: Some(lit(params.w_over_l)?),
                })
            }
        };
        deck.cards.push(card(Card::Element(element)));
        i += 1;
    }

    // Probes: the report node first, then any further transient probes.
    let mut probe_ids = vec![out];
    if let Analysis::Transient { probes, .. } = &job.analysis {
        if probes.is_empty() {
            return Err("transient jobs must carry explicit probes to export".to_owned());
        }
        if probes[0] != out {
            return Err("the report node must be the first transient probe".to_owned());
        }
        probe_ids = probes.clone();
    }
    for id in &probe_ids {
        if *id == Netlist::GROUND || id.index() >= nl.node_count() {
            return Err("probe node is ground or foreign".to_owned());
        }
        deck.cards.push(card(Card::Probe {
            node: node(nl, *id),
        }));
    }

    // The analysis card.
    let analysis = match &job.analysis {
        Analysis::Op => AnalysisCard::Op,
        Analysis::DcSweep { values, .. } => {
            let source = dc_source.ok_or("swept source not found among voltage sources")?;
            let (start, stop, step) = sweep_params(values)?;
            AnalysisCard::Dc {
                source,
                start: lit(start)?,
                stop: lit(stop)?,
                step: lit(step)?,
            }
        }
        Analysis::Transient {
            config,
            max_samples,
            ..
        } => {
            if *max_samples != DEFAULT_MAX_SAMPLES {
                return Err("non-default max_samples is not deck-expressible".to_owned());
            }
            let Stepping::Fixed { dt } = config.stepping else {
                return Err("adaptive transients are not deck-expressible".to_owned());
            };
            if config.integrator != Integrator::Trapezoidal || config.uic {
                return Err("non-default transient config is not deck-expressible".to_owned());
            }
            AnalysisCard::Tran {
                dt: lit(dt)?,
                tstop: lit(config.tstop)?,
            }
        }
        Analysis::Ac { .. } => return Err("AC jobs are not deck-expressible".to_owned()),
    };
    deck.cards.push(card(Card::Analysis(analysis)));

    let text = format!("{TITLE}{}", render(&deck));
    if text.len() > crate::lex::MAX_FILE_BYTES {
        return Err("exported deck exceeds the parser's file-size limit".to_owned());
    }
    Ok(text)
}

fn node(nl: &Netlist, id: NodeId) -> String {
    nl.node_name(id).to_ascii_lowercase()
}

fn lit(v: f64) -> Result<Value, String> {
    if !v.is_finite() {
        return Err(format!("non-finite value {v} is not deck-expressible"));
    }
    Ok(Value::Lit(v))
}

/// Lowercases a device name and pins the SPICE element letter in front
/// when the name doesn't already start with it.
fn device_name(name: &str, letter: u8) -> Result<String, String> {
    let mut lower = name.to_ascii_lowercase();
    if lower.as_bytes().first() != Some(&letter) {
        lower.insert(0, letter as char);
    }
    if !valid_name(&lower) {
        return Err(format!("device name {name:?} is not deck-expressible"));
    }
    Ok(lower)
}

fn wave_spec(wave: &Waveform) -> Result<WaveSpec, String> {
    Ok(match wave {
        Waveform::Dc(v) => WaveSpec::Dc(lit(*v)?),
        Waveform::Pulse {
            v0,
            v1,
            delay,
            rise,
            fall,
            width,
            period,
        } => WaveSpec::Pulse([
            lit(*v0)?,
            lit(*v1)?,
            lit(*delay)?,
            lit(*rise)?,
            lit(*fall)?,
            lit(*width)?,
            lit(*period)?,
        ]),
        Waveform::Pwl(points) => {
            if points.is_empty() {
                return Err("empty PWL waveform is not deck-expressible".to_owned());
            }
            let mut vals = Vec::with_capacity(points.len() * 2);
            for (t, v) in points {
                vals.push(lit(*t)?);
                vals.push(lit(*v)?);
            }
            WaveSpec::Pwl(vals)
        }
    })
}

/// Inverts the elaborator's `start + k·step` ladder, verifying bitwise
/// uniformity so re-elaboration regenerates the exact values.
fn sweep_params(values: &[f64]) -> Result<(f64, f64, f64), String> {
    match values {
        [] => Err("empty DC sweep".to_owned()),
        [v] => Ok((*v, *v, 1.0)),
        [first, second, ..] => {
            let (start, step) = (*first, second - first);
            if step == 0.0 || !step.is_finite() {
                return Err("DC sweep values are not a ladder".to_owned());
            }
            for (k, v) in values.iter().enumerate() {
                if (start + k as f64 * step).to_bits() != v.to_bits() {
                    return Err("DC sweep values are not bitwise uniform".to_owned());
                }
            }
            Ok((start, values[values.len() - 1], step))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elaborate::{elaborate, ElabOptions};
    use crate::lex::{read_deck, DenyIncludes};
    use crate::parse::parse_cards;
    use fts_spice::analysis::TranConfig;

    fn reelaborate(text: &str) -> crate::elaborate::Elaborated {
        let deck = parse_cards(read_deck(text, &mut DenyIncludes).unwrap()).unwrap();
        elaborate(&deck, &ElabOptions::default()).unwrap()
    }

    fn sample_netlist() -> (Netlist, NodeId) {
        let mut nl = Netlist::new();
        let inp = nl.node("IN");
        let out = nl.node("OUT");
        let mid = nl.node("Mid");
        nl.vsource(
            "Vdrv",
            inp,
            Netlist::GROUND,
            Waveform::Pulse {
                v0: 0.0,
                v1: 1.2,
                delay: 1e-9,
                rise: 1e-9,
                fall: 1e-9,
                width: 8e-9,
                period: 20e-9,
            },
        )
        .unwrap();
        nl.resistor("R1", inp, mid, 1e3).unwrap();
        nl.nmos(
            "S0_0_A0",
            mid,
            inp,
            Netlist::GROUND,
            MosParams {
                kp: 2e-4,
                vth: 0.7,
                lambda: 0.01,
                w_over_l: 2.0,
            },
        )
        .unwrap();
        nl.nmos3(
            "S0_1_B0",
            out,
            mid,
            Netlist::GROUND,
            Mos3Params {
                kp: 2e-4,
                vth: 0.7,
                lambda: 0.0,
                w_over_l: 3.0,
                theta: 0.1,
                esat_l: 1.5,
                cgs: 1e-15,
                cgd: 2e-15,
            },
        )
        .unwrap();
        nl.capacitor("Cload", out, Netlist::GROUND, 1e-12).unwrap();
        (nl, out)
    }

    fn device_fingerprint(nl: &Netlist) -> Vec<String> {
        nl.devices()
            .map(|d| match d {
                DeviceView::Resistor { a, b, ohms, .. } => {
                    format!("r {} {} {ohms:?}", a.index(), b.index())
                }
                DeviceView::Capacitor { a, b, farads, .. } => {
                    format!("c {} {} {farads:?}", a.index(), b.index())
                }
                DeviceView::VSource {
                    plus, minus, wave, ..
                } => format!("v {} {} {wave:?}", plus.index(), minus.index()),
                DeviceView::ISource { from, to, wave, .. } => {
                    format!("i {} {} {wave:?}", from.index(), to.index())
                }
                DeviceView::Nmos {
                    d, g, s, params, ..
                } => {
                    format!("m {} {} {} {params:?}", d.index(), g.index(), s.index())
                }
                DeviceView::Nmos3 {
                    d, g, s, params, ..
                } => {
                    format!("m3 {} {} {} {params:?}", d.index(), g.index(), s.index())
                }
            })
            .collect()
    }

    #[test]
    fn op_job_round_trips_structurally() {
        let (nl, out) = sample_netlist();
        let job = SimJob::op(nl);
        let text = export_job(&job, out).unwrap();
        let e = reelaborate(&text);
        // Same node order…
        assert_eq!(e.netlist.node_count(), job.netlist.node_count());
        for idx in 0..e.netlist.node_count() {
            assert_eq!(
                e.netlist.node_name(e.netlist.node_id(idx)),
                job.netlist
                    .node_name(job.netlist.node_id(idx))
                    .to_ascii_lowercase()
            );
        }
        // …same devices in the same order (names aside)…
        assert_eq!(
            device_fingerprint(&e.netlist),
            device_fingerprint(&job.netlist)
        );
        // …and the same report node.
        assert_eq!(e.out.index(), out.index());
        assert!(matches!(e.jobs[0].analysis, Analysis::Op));
    }

    #[test]
    fn transient_and_dc_round_trip() {
        let (nl, out) = sample_netlist();
        let tran = SimJob::transient(nl.clone(), TranConfig::fixed(0.5e-9, 40e-9)).probes(&[out]);
        let text = export_job(&tran, out).unwrap();
        let e = reelaborate(&text);
        match (&e.jobs[0].analysis, &tran.analysis) {
            (
                Analysis::Transient {
                    config: got,
                    probes,
                    max_samples,
                },
                Analysis::Transient { config: want, .. },
            ) => {
                assert_eq!(got.tstop.to_bits(), want.tstop.to_bits());
                assert_eq!(probes, &[e.out]);
                assert_eq!(*max_samples, DEFAULT_MAX_SAMPLES);
            }
            other => panic!("{other:?}"),
        }

        let values: Vec<f64> = (0..=12).map(|k| 0.0 + k as f64 * 0.1).collect();
        let dc = SimJob::dc_sweep(nl, "Vdrv", values.clone());
        let text = export_job(&dc, out).unwrap();
        let e = reelaborate(&text);
        match &e.jobs[0].analysis {
            Analysis::DcSweep {
                source,
                values: got,
            } => {
                assert_eq!(source, "vdrv");
                assert_eq!(got.len(), values.len());
                for (a, b) in got.iter().zip(&values) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unsupported_jobs_are_refused() {
        let (nl, out) = sample_netlist();
        let with_deadline = SimJob::op(nl.clone()).deadline(std::time::Duration::from_secs(1));
        assert!(export_job(&with_deadline, out).is_err());
        let ac = SimJob::ac(nl.clone(), "Vdrv", vec![1e3, 1e4]);
        assert!(export_job(&ac, out).is_err());
        let unprobed = SimJob::transient(nl.clone(), TranConfig::fixed(1e-9, 1e-8));
        assert!(export_job(&unprobed, out).is_err());
        let shrunk = SimJob::transient(nl, TranConfig::fixed(1e-9, 1e-8))
            .probes(&[out])
            .max_samples(7);
        assert!(export_job(&shrunk, out).is_err());
    }

    #[test]
    fn model_dedup_names_in_first_use_order() {
        let (nl, out) = sample_netlist();
        let text = export_job(&SimJob::op(nl), out).unwrap();
        assert_eq!(text.matches(".model").count(), 2);
        assert!(text.contains(".model m1 nmos level=1"));
        assert!(text.contains(".model m2 nmos level=3"));
        assert!(text.contains(".nodeorder in out mid"));
    }
}

/// Bitwise model deduplication: identical parameter sets share one
/// `.model` card named `m1`, `m2`, … in first-use order.
#[derive(Default)]
struct ModelTable {
    names: HashMap<Vec<u64>, String>,
    cards: Vec<ModelCard>,
}

impl ModelTable {
    fn key1(p: &MosParams) -> Vec<u64> {
        vec![1, p.kp.to_bits(), p.vth.to_bits(), p.lambda.to_bits()]
    }

    fn key3(p: &Mos3Params) -> Vec<u64> {
        vec![
            3,
            p.kp.to_bits(),
            p.vth.to_bits(),
            p.lambda.to_bits(),
            p.theta.to_bits(),
            p.esat_l.to_bits(),
            p.cgs.to_bits(),
            p.cgd.to_bits(),
        ]
    }

    fn intern(&mut self, key: Vec<u64>, level: u8, params: Vec<(String, f64)>) {
        if self.names.contains_key(&key) {
            return;
        }
        let name = format!("m{}", self.cards.len() + 1);
        self.names.insert(key, name.clone());
        self.cards.push(ModelCard {
            name,
            level,
            params: params
                .into_iter()
                .map(|(k, v)| (k, Value::Lit(v)))
                .collect(),
        });
    }

    fn intern1(&mut self, p: &MosParams) {
        let mut params = vec![("kp".to_owned(), p.kp), ("vto".to_owned(), p.vth)];
        if p.lambda != 0.0 {
            params.push(("lambda".to_owned(), p.lambda));
        }
        self.intern(Self::key1(p), 1, params);
    }

    fn intern3(&mut self, p: &Mos3Params) {
        let mut params = vec![("kp".to_owned(), p.kp), ("vto".to_owned(), p.vth)];
        for (key, v) in [
            ("lambda", p.lambda),
            ("theta", p.theta),
            ("cgs", p.cgs),
            ("cgd", p.cgd),
        ] {
            if v != 0.0 {
                params.push((key.to_owned(), v));
            }
        }
        if p.esat_l.is_finite() {
            params.push(("esatl".to_owned(), p.esat_l));
        }
        self.intern(Self::key3(p), 3, params);
    }

    fn name1(&self, p: &MosParams) -> String {
        self.names[&Self::key1(p)].clone()
    }

    fn name3(&self, p: &Mos3Params) -> String {
        self.names[&Self::key3(p)].clone()
    }
}
