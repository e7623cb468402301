//! Content-addressed result caching and Newton warm-start reuse.
//!
//! The paper's workloads are massively repetitive: the same XOR3 / Fig. 11
//! lattices and NPN-class truth-table circuits are re-simulated under small
//! parameter perturbations, millions of times. This module turns that
//! repetition into two wins:
//!
//! * a **canonicalizer** ([`cache_key`]) that maps a [`SimJob`] to a stable
//!   128-bit content hash — independent of node creation order, device card
//!   order, and internal node names, but float-bit-exact in every parameter
//!   (`f64::to_bits`), versioned as [`CACHE_KEY_VERSION`];
//! * a **bounded LRU result cache** ([`ResultCache`]) keyed by that hash,
//!   with entry- and byte-caps, hit/miss/eviction counters, and a
//!   **warm-start index**: the most recent operating points per concrete
//!   topology ([`topology_hash`]), so a cache *miss* whose topology was seen
//!   before can seed Newton from the nearest cached solution
//!   ([`ResultCache::warm_lookup`]) instead of a flat start.
//!
//! # Key definition (`cache_key/1`)
//!
//! Two jobs share a key iff they are the *same computation*: the same
//! circuit up to node relabeling/reordering, the same analysis (including
//! every numeric parameter, bit-exact), the same retry ladder (homotopy
//! rungs can select different solutions of multi-stable circuits, so the
//! ladder is part of the key), and the same rendering options the caller
//! folds in ([`cache_key`]'s `waveform` bit). Labels, deadlines, and trace
//! handles are *not* part of the key: they never change the deterministic
//! result object.
//!
//! Node-order independence comes from Weisfeiler–Leman color refinement:
//! nodes start from role colors (ground / distinguished output / probe /
//! plain), then repeatedly absorb the sorted multiset of their incident
//! device signatures until the color partition stabilizes. Device cards are
//! hashed as a sorted multiset of (kind, parameter bits, terminal colors),
//! so card order cannot matter either. Refinement can in principle assign
//! equal colors to non-isomorphic regular graphs; for MNA circuit graphs
//! with distinguished ground/output nodes and parameter-colored devices
//! this is a theoretical corner, and the 128-bit key keeps accidental
//! collisions out of reach in practice.
//!
//! # Warm-start safety
//!
//! The warm index is keyed by [`topology_hash`] — the *insertion-order*
//! structural hash (same equivalence as
//! [`Netlist::same_topology`](fts_spice::Netlist::same_topology)) — because
//! an unknown vector is only meaningful for a netlist with the same node
//! and branch numbering it was solved under. A seed never changes *what*
//! is solved, only where Newton starts; if the warmed rung fails, the
//! existing homotopy ladder runs unchanged. Seeds at parameter distance
//! zero are excluded: an identical circuit must reproduce the cached
//! result bit-for-bit, which only a cache hit (or an identical cold run)
//! guarantees. Seeds beyond `WARM_MAX_RELATIVE_STEP` in any parameter
//! are excluded too: a solution from a different operating regime (say a
//! flipped input pattern) makes Newton converge *slower* than the
//! default start, so only genuinely nearby operating points are reused.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::sync::Mutex;

use fts_spice::netlist::{DeviceView, Waveform};
use fts_spice::{Netlist, NodeId, OpOptions};

use crate::job::{Analysis, SimJob};

/// The canonicalizer version tag, bumped whenever the byte stream feeding
/// the hash changes shape. Rendered into every [`CacheKey`] display form,
/// so persisted or compared keys can never silently cross versions.
pub const CACHE_KEY_VERSION: &str = "cache_key/1";

/// Warm operating points retained per topology (drop-oldest).
const WARM_POINTS_PER_TOPOLOGY: usize = 8;

/// A warm seed only helps when it is *near* the solution being sought:
/// seeding Newton from a different operating regime (say, a flipped
/// input pattern that switches device states) converges slower than the
/// default start and the homotopy ladder. A stored point qualifies only
/// if every parameter moved by at most this fraction of `1 + |value|`.
const WARM_MAX_RELATIVE_STEP: f64 = 0.1;

/// Default byte budget for retained result payloads: 64 MiB.
pub const DEFAULT_CACHE_BYTES: usize = 64 << 20;

// ---------------------------------------------------------------------------
// Cache mode
// ---------------------------------------------------------------------------

/// Per-submission cache policy (the wire schema's `"cache"` member).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheMode {
    /// Consult the cache, serve hits, store results, warm-start misses.
    #[default]
    Default,
    /// Ignore the cache entirely: no lookup, no store, no warm-start.
    /// This is byte-for-byte the legacy cold execution path.
    Bypass,
    /// Recompute cold (no lookup, no warm-start) and overwrite the cached
    /// entry — the escape hatch after a solver or model change.
    Refresh,
}

impl CacheMode {
    /// Parses the wire value. `None` for unknown values (callers answer a
    /// structured 400).
    #[must_use]
    pub fn parse(s: &str) -> Option<CacheMode> {
        match s {
            "default" => Some(CacheMode::Default),
            "bypass" => Some(CacheMode::Bypass),
            "refresh" => Some(CacheMode::Refresh),
            _ => None,
        }
    }

    /// The wire spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            CacheMode::Default => "default",
            CacheMode::Bypass => "bypass",
            CacheMode::Refresh => "refresh",
        }
    }

    /// Whether this mode reads the cache (and may warm-start).
    #[must_use]
    pub fn reads(self) -> bool {
        matches!(self, CacheMode::Default)
    }

    /// Whether this mode writes results back into the cache.
    #[must_use]
    pub fn writes(self) -> bool {
        matches!(self, CacheMode::Default | CacheMode::Refresh)
    }
}

// ---------------------------------------------------------------------------
// Hashing
// ---------------------------------------------------------------------------

/// Two independent 64-bit FNV-1a streams with distinct offset bases,
/// concatenated into a 128-bit digest. Content addressing needs more than
/// 64 bits (birthday bound), and the workspace is dependency-free, so two
/// decorrelated FNV lanes stand in for a real wide hash.
#[derive(Clone, Copy)]
struct Digest {
    a: u64,
    b: u64,
}

impl Digest {
    fn new() -> Digest {
        Digest {
            a: 0xcbf2_9ce4_8422_2325,
            b: 0xcbf2_9ce4_8422_2325 ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    fn write(&mut self, bytes: &[u8]) {
        for &x in bytes {
            self.a ^= u64::from(x);
            self.a = self.a.wrapping_mul(0x0000_0100_0000_01b3);
            self.b ^= u64::from(x.rotate_left(3));
            self.b = self.b.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn finish(self) -> u128 {
        (u128::from(self.a) << 64) | u128::from(self.b)
    }
}

/// One 64-bit FNV-1a lane, for intermediate WL colors.
fn fnv64(parts: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in parts {
        for &x in &p.to_le_bytes() {
            h ^= u64::from(x);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// A versioned 128-bit content hash of one simulation job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey(pub u128);

impl fmt::Display for CacheKey {
    /// `cache_key/1:<32 hex digits>` — the wire spelling.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{CACHE_KEY_VERSION}:{:032x}", self.0)
    }
}

// ---------------------------------------------------------------------------
// Canonicalizer
// ---------------------------------------------------------------------------

/// One device flattened to hashable parts: a kind tag, the terminals it
/// touches (in role order), and its parameter bits.
struct Card {
    kind: u64,
    terminals: Vec<NodeId>,
    params: Vec<u64>,
    /// Nonzero when the analysis names this device (swept / AC source):
    /// such a device is semantically distinguished even if another card
    /// has identical parameters.
    dist: u64,
}

fn wave_bits(out: &mut Vec<u64>, wave: &Waveform) {
    match wave {
        Waveform::Dc(v) => {
            out.push(1);
            out.push(v.to_bits());
        }
        Waveform::Pulse {
            v0,
            v1,
            delay,
            rise,
            fall,
            width,
            period,
        } => {
            out.push(2);
            for v in [v0, v1, delay, rise, fall, width, period] {
                out.push(v.to_bits());
            }
        }
        Waveform::Pwl(points) => {
            out.push(3);
            out.push(points.len() as u64);
            for (t, v) in points {
                out.push(t.to_bits());
                out.push(v.to_bits());
            }
        }
    }
}

/// Flattens the netlist to cards. `named` distinguishes the device the
/// analysis references by name (swept or AC source), if any.
fn cards(netlist: &Netlist, named: Option<&str>) -> Vec<Card> {
    netlist
        .devices()
        .map(|dev| match dev {
            DeviceView::Resistor { name, a, b, ohms } => Card {
                kind: 1,
                terminals: vec![a, b],
                params: vec![ohms.to_bits()],
                dist: u64::from(named == Some(name)),
            },
            DeviceView::Capacitor { name, a, b, farads } => Card {
                kind: 2,
                terminals: vec![a, b],
                params: vec![farads.to_bits()],
                dist: u64::from(named == Some(name)),
            },
            DeviceView::VSource {
                name,
                plus,
                minus,
                wave,
            } => {
                let mut params = Vec::new();
                wave_bits(&mut params, wave);
                Card {
                    kind: 3,
                    terminals: vec![plus, minus],
                    params,
                    dist: u64::from(named == Some(name)),
                }
            }
            DeviceView::ISource {
                name,
                from,
                to,
                wave,
            } => {
                let mut params = Vec::new();
                wave_bits(&mut params, wave);
                Card {
                    kind: 4,
                    terminals: vec![from, to],
                    params,
                    dist: u64::from(named == Some(name)),
                }
            }
            DeviceView::Nmos {
                name,
                d,
                g,
                s,
                params,
            } => Card {
                kind: 5,
                terminals: vec![d, g, s],
                params: vec![
                    params.kp.to_bits(),
                    params.vth.to_bits(),
                    params.lambda.to_bits(),
                    params.w_over_l.to_bits(),
                ],
                dist: u64::from(named == Some(name)),
            },
            DeviceView::Nmos3 {
                name,
                d,
                g,
                s,
                params,
            } => Card {
                kind: 6,
                terminals: vec![d, g, s],
                params: vec![
                    params.kp.to_bits(),
                    params.vth.to_bits(),
                    params.lambda.to_bits(),
                    params.w_over_l.to_bits(),
                    params.theta.to_bits(),
                    params.esat_l.to_bits(),
                    params.cgs.to_bits(),
                    params.cgd.to_bits(),
                ],
                dist: u64::from(named == Some(name)),
            },
        })
        .collect()
}

/// Canonical node colors via Weisfeiler–Leman refinement. `distinguished`
/// carries externally meaningful nodes in a meaningful order (the report
/// output node, then transient probes): each gets a role color from its
/// position, so renaming them — or any internal node — cannot change the
/// result, while *rewiring* them always does.
fn node_colors(netlist: &Netlist, cards: &[Card], distinguished: &[NodeId]) -> Vec<u64> {
    let n = netlist.node_count();
    let mut colors: Vec<u64> = vec![fnv64(&[7]); n];
    colors[Netlist::GROUND.index()] = fnv64(&[11]);
    for (k, node) in distinguished.iter().enumerate() {
        colors[node.index()] = fnv64(&[13, k as u64, colors[node.index()]]);
    }

    // Per-card signature of its parameter half, independent of refinement.
    let card_sig: Vec<u64> = cards
        .iter()
        .map(|c| {
            let mut parts = vec![c.kind, c.dist];
            parts.extend_from_slice(&c.params);
            fnv64(&parts)
        })
        .collect();

    let mut distinct = colors_distinct(&colors);
    for _round in 0..n.max(1) {
        let mut incidence: Vec<Vec<u64>> = vec![Vec::new(); n];
        for (ci, card) in cards.iter().enumerate() {
            for (role, t) in card.terminals.iter().enumerate() {
                let mut parts = vec![card_sig[ci], role as u64];
                parts.extend(card.terminals.iter().map(|x| colors[x.index()]));
                incidence[t.index()].push(fnv64(&parts));
            }
        }
        let mut next = Vec::with_capacity(n);
        for (i, inc) in incidence.iter_mut().enumerate() {
            inc.sort_unstable();
            let mut parts = vec![colors[i], inc.len() as u64];
            parts.extend_from_slice(inc);
            next.push(fnv64(&parts));
        }
        colors = next;
        let now = colors_distinct(&colors);
        if now == distinct {
            break;
        }
        distinct = now;
    }
    colors
}

fn colors_distinct(colors: &[u64]) -> usize {
    let mut sorted = colors.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.len()
}

/// Computes the canonical `cache_key/1` content hash for one job.
///
/// `out` is the report's output node and `waveform` the row-rendering
/// flag — both change the served result bytes, so both are part of the
/// key. The job's label, deadline, and trace handle are excluded (they
/// never affect the deterministic result object); its retry ladder is
/// included (homotopy order can select between operating points of
/// multi-stable circuits).
#[must_use]
pub fn cache_key(job: &SimJob, out: NodeId, waveform: bool) -> CacheKey {
    let named = match &job.analysis {
        Analysis::DcSweep { source, .. } | Analysis::Ac { source, .. } => Some(source.as_str()),
        _ => None,
    };
    let mut distinguished = vec![out];
    if let Analysis::Transient { probes, .. } = &job.analysis {
        distinguished.extend_from_slice(probes);
    }
    let cards = cards(&job.netlist, named);
    let colors = node_colors(&job.netlist, &cards, &distinguished);

    let mut d = Digest::new();
    d.write(CACHE_KEY_VERSION.as_bytes());
    d.u64(job.netlist.node_count() as u64);

    // Sorted multiset of canonical card signatures: card order cannot
    // matter, two cards differing in any parameter bit always do.
    let mut card_hashes: Vec<u64> = cards
        .iter()
        .map(|c| {
            let mut parts = vec![c.kind, c.dist];
            parts.extend_from_slice(&c.params);
            parts.extend(c.terminals.iter().map(|t| colors[t.index()]));
            fnv64(&parts)
        })
        .collect();
    card_hashes.sort_unstable();
    d.u64(card_hashes.len() as u64);
    for h in card_hashes {
        d.u64(h);
    }

    // Distinguished nodes by final color, in role order.
    d.u64(distinguished.len() as u64);
    for node in &distinguished {
        d.u64(colors[node.index()]);
    }

    // The analysis, parameter bits exact.
    match &job.analysis {
        Analysis::Op => d.u64(100),
        Analysis::DcSweep { values, .. } => {
            d.u64(101);
            d.u64(values.len() as u64);
            for v in values {
                d.f64(*v);
            }
        }
        Analysis::Transient {
            config,
            max_samples,
            probes: _,
        } => {
            d.u64(102);
            d.f64(config.tstop);
            match config.stepping {
                fts_spice::analysis::Stepping::Fixed { dt } => {
                    d.u64(1);
                    d.f64(dt);
                }
                fts_spice::analysis::Stepping::Adaptive {
                    dt_initial,
                    dt_min,
                    dt_max,
                    error_target,
                } => {
                    d.u64(2);
                    d.f64(dt_initial);
                    d.f64(dt_min);
                    d.f64(dt_max);
                    d.f64(error_target);
                }
            }
            d.u64(match config.integrator {
                fts_spice::analysis::Integrator::BackwardEuler => 1,
                fts_spice::analysis::Integrator::Trapezoidal => 2,
            });
            d.u64(u64::from(config.uic));
            d.u64(*max_samples as u64);
        }
        Analysis::Ac { freqs, .. } => {
            d.u64(103);
            d.u64(freqs.len() as u64);
            for f in freqs {
                d.f64(*f);
            }
        }
    }

    // The retry ladder: each rung's OpOptions.
    d.u64(job.retry.attempts.len() as u64);
    for opts in &job.retry.attempts {
        d.u64(op_options_bits(opts));
    }

    d.u64(u64::from(waveform));
    CacheKey(d.finish())
}

fn op_options_bits(o: &OpOptions) -> u64 {
    (o.max_iterations as u64) << 3
        | u64::from(o.gmin_stepping) << 2
        | u64::from(o.source_stepping) << 1
        | u64::from(o.pseudo_transient)
}

/// The *concrete* (insertion-order) structural hash: node count, branch
/// count, and every device's kind + terminal numbering — no parameter or
/// waveform values. Two netlists share it exactly when
/// [`Netlist::same_topology`](fts_spice::Netlist::same_topology) holds up
/// to hash collision, which is the admission test for reusing an unknown
/// vector as a Newton seed (the vector is indexed by this numbering).
#[must_use]
pub fn topology_hash(netlist: &Netlist) -> u64 {
    let mut parts: Vec<u64> = vec![netlist.node_count() as u64, netlist.unknown_count() as u64];
    for dev in netlist.devices() {
        let (kind, terms): (u64, Vec<NodeId>) = match dev {
            DeviceView::Resistor { a, b, .. } => (1, vec![a, b]),
            DeviceView::Capacitor { a, b, .. } => (2, vec![a, b]),
            DeviceView::VSource { plus, minus, .. } => (3, vec![plus, minus]),
            DeviceView::ISource { from, to, .. } => (4, vec![from, to]),
            DeviceView::Nmos { d, g, s, .. } => (5, vec![d, g, s]),
            DeviceView::Nmos3 { d, g, s, .. } => (6, vec![d, g, s]),
        };
        parts.push(kind);
        parts.extend(terms.iter().map(|t| t.index() as u64));
    }
    fnv64(&parts)
}

/// Flattens every numeric device parameter (insertion order, DC-evaluated
/// waveforms at `t = 0`) into the vector the warm index measures nearness
/// in. Same-topology netlists produce same-length vectors.
#[must_use]
pub fn params_vector(netlist: &Netlist) -> Vec<f64> {
    let mut v = Vec::new();
    for dev in netlist.devices() {
        match dev {
            DeviceView::Resistor { ohms, .. } => v.push(ohms),
            DeviceView::Capacitor { farads, .. } => v.push(farads),
            DeviceView::VSource { wave, .. } | DeviceView::ISource { wave, .. } => {
                v.push(wave.at(0.0));
            }
            DeviceView::Nmos { params, .. } => {
                v.extend([params.kp, params.vth, params.lambda, params.w_over_l]);
            }
            DeviceView::Nmos3 { params, .. } => {
                v.extend([params.kp, params.vth, params.lambda, params.w_over_l]);
            }
        }
    }
    v
}

// ---------------------------------------------------------------------------
// Result cache
// ---------------------------------------------------------------------------

/// One cached deterministic result.
#[derive(Debug, Clone)]
pub struct CachedResult {
    /// The outcome tag (`"op"`, `"sweep"`, `"transient"`, `"ac"`).
    pub kind: &'static str,
    /// The deterministic result object, byte-exact as first rendered.
    pub result_json: String,
    /// Solve attempts the original run consumed.
    pub attempts: usize,
}

/// Counter snapshot for `GET /v1/cache` and `/metrics`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheStats {
    /// Retained result entries.
    pub entries: usize,
    /// Bytes across retained result payloads.
    pub bytes: usize,
    /// Lookups served from the cache since startup.
    pub hits: u64,
    /// Lookups that missed since startup.
    pub misses: u64,
    /// Entries evicted by the LRU bounds since startup.
    pub evictions: u64,
}

impl CacheStats {
    /// `hits / (hits + misses)`; 0 when nothing was looked up yet.
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

struct Entry {
    kind: &'static str,
    result_json: String,
    attempts: usize,
    tick: u64,
}

struct WarmPoint {
    params: Vec<f64>,
    x: Vec<f64>,
}

struct Inner {
    map: HashMap<u128, Entry>,
    /// LRU order: recency tick → key. Ticks are unique, so this is a
    /// total order; eviction pops the smallest tick.
    lru: BTreeMap<u64, u128>,
    tick: u64,
    bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    warm: HashMap<u64, VecDeque<WarmPoint>>,
}

/// A bounded LRU cache of deterministic result objects plus the
/// warm-start operating-point index. Interior-mutable and thread-safe:
/// the server's admission path and every queue worker share one instance.
pub struct ResultCache {
    inner: Mutex<Inner>,
    max_entries: usize,
    max_bytes: usize,
}

impl ResultCache {
    /// A cache bounded to `max_entries` results and `max_bytes` of result
    /// payload (both clamped to at least 1 entry / 1 KiB).
    #[must_use]
    pub fn new(max_entries: usize, max_bytes: usize) -> ResultCache {
        ResultCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                lru: BTreeMap::new(),
                tick: 0,
                bytes: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
                warm: HashMap::new(),
            }),
            max_entries: max_entries.max(1),
            max_bytes: max_bytes.max(1024),
        }
    }

    /// The configured entry cap.
    #[must_use]
    pub fn max_entries(&self) -> usize {
        self.max_entries
    }

    /// The configured byte cap.
    #[must_use]
    pub fn max_bytes(&self) -> usize {
        self.max_bytes
    }

    /// Looks `key` up, counting a hit (and refreshing its recency) or a
    /// miss.
    #[must_use]
    pub fn lookup(&self, key: CacheKey) -> Option<CachedResult> {
        let mut inner = self.inner.lock().expect("cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(&key.0) {
            Some(entry) => {
                let old = entry.tick;
                entry.tick = tick;
                let hit = CachedResult {
                    kind: entry.kind,
                    result_json: entry.result_json.clone(),
                    attempts: entry.attempts,
                };
                inner.lru.remove(&old);
                inner.lru.insert(tick, key.0);
                inner.hits += 1;
                fts_telemetry::counter("cache.hits", 1);
                Some(hit)
            }
            None => {
                inner.misses += 1;
                fts_telemetry::counter("cache.misses", 1);
                None
            }
        }
    }

    /// [`lookup`](ResultCache::lookup) that counts only when it hits —
    /// the dequeue-time recheck path: the job's miss was already counted
    /// at admission, but an in-flight duplicate whose twin finished while
    /// this job sat queued can still be served from the cache.
    #[must_use]
    pub fn recheck(&self, key: CacheKey) -> Option<CachedResult> {
        let mut inner = self.inner.lock().expect("cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.map.get_mut(&key.0)?;
        let old = entry.tick;
        entry.tick = tick;
        let hit = CachedResult {
            kind: entry.kind,
            result_json: entry.result_json.clone(),
            attempts: entry.attempts,
        };
        inner.lru.remove(&old);
        inner.lru.insert(tick, key.0);
        inner.hits += 1;
        fts_telemetry::counter("cache.hits", 1);
        Some(hit)
    }

    /// Stores (or overwrites) the result for `key`, then evicts
    /// least-recently-used entries past the entry/byte bounds.
    pub fn insert(&self, key: CacheKey, kind: &'static str, result_json: String, attempts: usize) {
        let mut inner = self.inner.lock().expect("cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        let bytes = result_json.len();
        if let Some(old) = inner.map.remove(&key.0) {
            inner.lru.remove(&old.tick);
            inner.bytes -= old.result_json.len();
        }
        inner.map.insert(
            key.0,
            Entry {
                kind,
                result_json,
                attempts,
                tick,
            },
        );
        inner.lru.insert(tick, key.0);
        inner.bytes += bytes;
        while inner.map.len() > self.max_entries || inner.bytes > self.max_bytes {
            let Some((&oldest, &victim)) = inner.lru.iter().next() else {
                break;
            };
            // Never evict the entry just inserted on the bytes bound: an
            // oversized single result simply doesn't stay.
            inner.lru.remove(&oldest);
            if let Some(e) = inner.map.remove(&victim) {
                inner.bytes -= e.result_json.len();
            }
            inner.evictions += 1;
            fts_telemetry::counter("cache.evictions", 1);
            if inner.map.is_empty() {
                break;
            }
        }
    }

    /// Records a solved operating point for `topo` (drop-oldest past
    /// `WARM_POINTS_PER_TOPOLOGY`).
    pub fn warm_insert(&self, topo: u64, params: Vec<f64>, x: Vec<f64>) {
        let mut inner = self.inner.lock().expect("cache poisoned");
        let points = inner.warm.entry(topo).or_default();
        points.push_back(WarmPoint { params, x });
        while points.len() > WARM_POINTS_PER_TOPOLOGY {
            points.pop_front();
        }
    }

    /// The nearest cached operating point for `topo` by Euclidean
    /// parameter distance — excluding distance-zero points (an identical
    /// circuit must run cold or hit, never warm, so identical inputs stay
    /// bit-reproducible) and far points (beyond
    /// `WARM_MAX_RELATIVE_STEP` in any component, where a seed hurts
    /// more than it helps).
    #[must_use]
    pub fn warm_lookup(&self, topo: u64, params: &[f64]) -> Option<Vec<f64>> {
        let inner = self.inner.lock().expect("cache poisoned");
        let points = inner.warm.get(&topo)?;
        let mut best: Option<(f64, &WarmPoint)> = None;
        for p in points {
            if p.params.len() != params.len() {
                continue;
            }
            let near = p.params.iter().zip(params).all(|(a, b)| {
                (a - b).abs() <= WARM_MAX_RELATIVE_STEP * (1.0 + a.abs().max(b.abs()))
            });
            if !near {
                continue;
            }
            let d2: f64 = p
                .params
                .iter()
                .zip(params)
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            if d2 == 0.0 {
                continue;
            }
            if best.as_ref().is_none_or(|(b2, _)| d2 < *b2) {
                best = Some((d2, p));
            }
        }
        best.map(|(_, p)| p.x.clone())
    }

    /// Drops every retained result and warm point. Counters are
    /// cumulative and survive the flush.
    pub fn flush(&self) {
        let mut inner = self.inner.lock().expect("cache poisoned");
        inner.map.clear();
        inner.lru.clear();
        inner.bytes = 0;
        inner.warm.clear();
    }

    /// A counter snapshot.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("cache poisoned");
        CacheStats {
            entries: inner.map.len(),
            bytes: inner.bytes,
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fts_spice::netlist::Waveform;

    fn divider(vdd: f64) -> (Netlist, NodeId) {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let out = nl.node("out");
        nl.vsource("V1", a, Netlist::GROUND, Waveform::Dc(vdd))
            .unwrap();
        nl.resistor("R1", a, out, 1e3).unwrap();
        nl.resistor("R2", out, Netlist::GROUND, 1e3).unwrap();
        (nl, out)
    }

    #[test]
    fn key_is_stable_and_versioned() {
        let (nl, out) = divider(2.0);
        let k1 = cache_key(&SimJob::op(nl.clone()), out, false);
        let k2 = cache_key(&SimJob::op(nl), out, false);
        assert_eq!(k1, k2);
        assert!(k1.to_string().starts_with("cache_key/1:"), "{k1}");
        assert_eq!(k1.to_string().len(), "cache_key/1:".len() + 32);
    }

    #[test]
    fn node_creation_order_and_names_do_not_matter() {
        let (nl, out) = divider(2.0);

        // Same circuit: nodes created in the opposite order, internal
        // node renamed.
        let mut nl2 = Netlist::new();
        let out2 = nl2.node("different_output_name");
        let a2 = nl2.node("supply");
        nl2.vsource("V1", a2, Netlist::GROUND, Waveform::Dc(2.0))
            .unwrap();
        nl2.resistor("R1", a2, out2, 1e3).unwrap();
        nl2.resistor("R2", out2, Netlist::GROUND, 1e3).unwrap();

        assert_eq!(
            cache_key(&SimJob::op(nl), out, false),
            cache_key(&SimJob::op(nl2), out2, false)
        );
    }

    #[test]
    fn card_order_does_not_matter_but_values_do() {
        let (nl, out) = divider(2.0);

        let mut nl2 = Netlist::new();
        let a = nl2.node("a");
        let out2 = nl2.node("out");
        nl2.resistor("R2", out2, Netlist::GROUND, 1e3).unwrap();
        nl2.resistor("R1", a, out2, 1e3).unwrap();
        nl2.vsource("V1", a, Netlist::GROUND, Waveform::Dc(2.0))
            .unwrap();
        assert_eq!(
            cache_key(&SimJob::op(nl.clone()), out, false),
            cache_key(&SimJob::op(nl2), out2, false)
        );

        let (nl3, out3) = divider(2.0 + f64::EPSILON * 4.0);
        assert_ne!(
            cache_key(&SimJob::op(nl.clone()), out, false),
            cache_key(&SimJob::op(nl3), out3, false),
            "a one-ulp-scale parameter change must rehash"
        );

        // The output node is semantic: pointing the report at a different
        // node changes the key even on an identical netlist.
        let (mut nl4, _) = divider(2.0);
        let a4 = nl4.node("a");
        assert_ne!(
            cache_key(&SimJob::op(nl.clone()), out, false),
            cache_key(&SimJob::op(nl4), a4, false)
        );

        // The waveform render flag and the retry ladder are key bits too.
        assert_ne!(
            cache_key(&SimJob::op(nl.clone()), out, false),
            cache_key(&SimJob::op(nl.clone()), out, true)
        );
        assert_ne!(
            cache_key(&SimJob::op(nl.clone()), out, false),
            cache_key(
                &SimJob::op(nl).retry(crate::RetryPolicy::ladder()),
                out,
                false
            )
        );
    }

    #[test]
    fn lru_evicts_oldest_and_counts() {
        let cache = ResultCache::new(2, 1 << 20);
        let k = |n: u128| CacheKey(n);
        cache.insert(k(1), "op", "{\"kind\":\"op\"}".into(), 1);
        cache.insert(k(2), "op", "{\"kind\":\"op\"}".into(), 1);
        assert!(cache.lookup(k(1)).is_some(), "touch 1 → 2 is now LRU");
        cache.insert(k(3), "op", "{\"kind\":\"op\"}".into(), 1);
        assert!(cache.lookup(k(2)).is_none(), "2 was evicted");
        assert!(cache.lookup(k(1)).is_some());
        assert!(cache.lookup(k(3)).is_some());
        let s = cache.stats();
        assert_eq!((s.entries, s.evictions), (2, 1));
        assert_eq!((s.hits, s.misses), (3, 1));
        assert!((s.hit_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn byte_bound_evicts() {
        let cache = ResultCache::new(100, 1024);
        let payload = "x".repeat(700);
        cache.insert(CacheKey(1), "op", payload.clone(), 1);
        cache.insert(CacheKey(2), "op", payload, 1);
        let s = cache.stats();
        assert_eq!(s.entries, 1, "700 + 700 > 1024 → oldest evicted");
        assert!(s.bytes <= 1024);
    }

    #[test]
    fn warm_index_returns_nearest_near_nonzero_distance() {
        let cache = ResultCache::new(4, 1 << 20);
        cache.warm_insert(9, vec![1.0, 1.0], vec![0.25]);
        cache.warm_insert(9, vec![1.05, 1.0], vec![0.5]);
        // An exact match is excluded; the nearest *other* point wins.
        assert_eq!(cache.warm_lookup(9, &[1.0, 1.0]), Some(vec![0.5]));
        assert_eq!(cache.warm_lookup(9, &[1.04, 1.0]), Some(vec![0.5]));
        // Far points never seed: a solution from a different operating
        // regime slows Newton down instead of helping it.
        assert_eq!(cache.warm_lookup(9, &[5.0, 5.0]), None);
        assert_eq!(cache.warm_lookup(7, &[1.0, 1.0]), None);
        cache.flush();
        assert_eq!(cache.warm_lookup(9, &[1.04, 1.0]), None);
    }

    #[test]
    fn topology_hash_ignores_values_but_not_wiring() {
        let (a, _) = divider(1.0);
        let (b, _) = divider(2.5);
        assert_eq!(topology_hash(&a), topology_hash(&b));
        assert_eq!(params_vector(&a).len(), params_vector(&b).len());
        assert_ne!(params_vector(&a), params_vector(&b));

        let mut c = Netlist::new();
        let x = c.node("a");
        let y = c.node("out");
        c.vsource("V1", x, Netlist::GROUND, Waveform::Dc(1.0))
            .unwrap();
        c.resistor("R1", x, y, 1e3).unwrap();
        c.resistor("R2", x, Netlist::GROUND, 1e3).unwrap(); // rewired
        assert_ne!(topology_hash(&a), topology_hash(&c));
    }
}
