//! The versioned wire schema shared by `fts batch` and `fts serve`.
//!
//! One module owns everything that crosses a process boundary: the
//! hand-rolled JSON reader/writer, the batch **manifest** (job
//! descriptions), and the **report** rendering (per-job result objects).
//! The CLI parses manifest files and the HTTP server parses request
//! bodies through the *same* functions, so the two surfaces cannot
//! drift; every document carries [`SCHEMA_VERSION`].
//!
//! A manifest names the jobs to run:
//!
//! ```json
//! {
//!   "threads": 2,
//!   "jobs": [
//!     { "function": "xor3", "analysis": "op", "input": 5 },
//!     { "function": "maj3", "analysis": "transient",
//!       "phase_ns": 4.0, "dt_ns": 0.1, "max_samples": 512,
//!       "deadline_ms": 60000, "retry": "ladder", "label": "maj3-walk" },
//!     { "deck": "v1 in 0 dc 1\nr1 in out 1k\nr2 out 0 1k\n.op\n" }
//!   ]
//! }
//! ```
//!
//! A job sources its circuit either from a named `"function"` (synthesized
//! into its §V bench circuit, with the analysis described by the manifest
//! members above) or from an inline SPICE `"deck"` (lowered through
//! `fts-netlist`; the deck's own analysis card decides what runs, and
//! exactly one is required so the job maps onto one report row).
//!
//! `"op"` solves the DC operating point for a packed `input` assignment;
//! `"transient"` drives the full 2ⁿ-combination input walk (one
//! `phase_ns` phase per combination) and records the output waveform
//! through the engine's decimating sink. `max_samples` bounds the
//! retained transient samples (the sink's decimation budget) and
//! `"waveform": true` asks for the decimated waveform arrays in the
//! result object; both are validated at parse time and surface as
//! structured [`WireError`]s (`400` over HTTP, a CLI error for `fts
//! batch`).
//!
//! The parser below is deliberately minimal — the toolkit takes no
//! third-party dependencies, and manifests, reports, and HTTP bodies are
//! the only JSON this workspace reads.

use std::fmt;
use std::fmt::Write as _;

use fts_engine::{CacheKey, CacheMode, JobStats, SimOutcome, DEFAULT_MAX_SAMPLES};
use fts_spice::NodeId;
use fts_telemetry::trace::TraceSnapshot;

/// Version of the manifest/report wire schema. Incremented only for
/// incompatible changes; both the CLI report and every HTTP response
/// carry it as `"schema_version"`.
///
/// v2 adds the cache surface: submissions accept a per-job `"cache"`
/// policy and served rows carry a `"cache": {key, hit}` member. v1
/// request bodies remain accepted — the new member simply defaults —
/// so the bump advertises capability, not a break (DESIGN.md §9a).
pub const SCHEMA_VERSION: u32 = 2;

/// Largest accepted `max_samples` — the decimating sink allocates one row
/// per retained sample, so the cap bounds per-job memory.
pub const MAX_SAMPLES_LIMIT: usize = 1 << 20;

/// Upper bound on the manifest's `ensemble_width`: lane-batched solves
/// buffer `unknowns * width` doubles per working vector, and widths past
/// the hardware vector length only add memory pressure.
pub const MAX_ENSEMBLE_WIDTH: usize = 64;

/// Maximum array/object nesting depth accepted by [`Json::parse`]. The
/// parser is recursive-descent and reads network input, so recursion must
/// be bounded well below the worker thread's stack; manifests are at most
/// three levels deep in practice.
pub const MAX_JSON_DEPTH: usize = 128;

// ---------------------------------------------------------------------------
// Minimal JSON
// ---------------------------------------------------------------------------

/// A parsed JSON value. Numbers are `f64` (manifest quantities are small
/// counts and physical values, well inside exact-integer range).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string (escapes decoded).
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in source order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document (trailing content is an error).
    ///
    /// # Errors
    ///
    /// A human-readable message with a byte offset on malformed input.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing content at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object member lookup; `None` on non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Renders this value back to JSON text, compactly (no whitespace).
    ///
    /// Non-finite numbers render as `null` — JSON has no NaN/Infinity
    /// literals — so `parse(render(v))` is the identity up to that one
    /// normalization (the round-trip property the wire proptests hold
    /// this module to).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Number(x) => out.push_str(&json_f64(*x)),
            Json::String(s) => {
                out.push('"');
                out.push_str(&json_escape(s));
                out.push('"');
            }
            Json::Array(items) => {
                out.push('[');
                for (k, v) in items.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Json::Object(members) => {
                out.push('{');
                for (k, (key, v)) in members.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&json_escape(key));
                    out.push_str("\":");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            // Containers recurse, and the input may be hostile network
            // bytes: cap the depth so pathological nesting is a parse
            // error, not a worker-stack overflow.
            Some(b @ (b'{' | b'[')) => {
                self.depth += 1;
                if self.depth > MAX_JSON_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_JSON_DEPTH} levels at byte {}",
                        self.pos
                    ));
                }
                let v = if b == b'{' {
                    self.object()
                } else {
                    self.array()
                }?;
                self.depth -= 1;
                Ok(v)
            }
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            )),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected {word:?} at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        // Validation runs through the workspace's one fuzz-hardened number
        // path (shared with the SPICE deck parser): strict JSON grammar,
        // finite values only — `1e999` is a parse error here, not an
        // Infinity smuggled into a simulation.
        fts_netlist::number::parse_json_f64(text)
            .map(Json::Number)
            .ok_or_else(|| format!("bad number {text:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            // Surrogate pairs are not needed for manifests.
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                        }
                        other => return Err(format!("unknown escape \\{}", other as char)),
                    }
                }
                Some(_) => {
                    // Multi-byte UTF-8 passes through unchanged; find the
                    // char boundary from the source string.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8")?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

/// Escapes `s` for embedding in a JSON string literal — the workspace's
/// one escaper, shared with `fts-telemetry`'s exporters.
pub use fts_telemetry::json::esc as json_escape;

/// The byte span of top-level member `key`'s value in the JSON object
/// `text`, exactly as written. This is how the coordinator lifts a
/// worker's `job` row (and that row's `result`) out of a document
/// without re-rendering it, so proxied bytes stay identical to the
/// worker's. `None` when `text` is not a well-formed object up to that
/// member, or has no such member.
pub fn member_span(text: &str, key: &str) -> Option<std::ops::Range<usize>> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 1,
    };
    p.skip_ws();
    p.expect(b'{').ok()?;
    loop {
        p.skip_ws();
        let name = p.string().ok()?;
        p.skip_ws();
        p.expect(b':').ok()?;
        p.skip_ws();
        let start = p.pos;
        p.value().ok()?;
        if name == key {
            return Some(start..p.pos);
        }
        p.skip_ws();
        p.expect(b',').ok()?;
    }
}

/// Renders one `f64` as a JSON token. JSON has no NaN/Infinity literals,
/// so non-finite values (including the `-inf` peak of an empty waveform)
/// render as `null` — the document must stay parseable by [`Json::parse`]
/// and by clients.
pub(crate) fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

/// Renders an `f64` array as a JSON array literal (non-finite → `null`).
fn json_f64_array(values: &[f64]) -> String {
    let mut out = String::with_capacity(values.len() * 8 + 2);
    out.push('[');
    for (k, v) in values.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}", json_f64(*v));
    }
    out.push(']');
    out
}

// ---------------------------------------------------------------------------
// Structured errors
// ---------------------------------------------------------------------------

/// A structured manifest/validation error: machine-readable `code`, a
/// human message, and (when the error is about one job) the job index.
///
/// The HTTP server renders these as `400` JSON bodies; `fts batch` prints
/// the [`Display`](fmt::Display) form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Stable machine-readable error code (e.g. `bad_json`,
    /// `invalid_max_samples`).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
    /// Index of the offending job within the manifest, when applicable.
    pub job: Option<usize>,
    /// 1-based source line, for errors that point into a SPICE deck.
    pub line: Option<u32>,
    /// 1-based source column, for errors that point into a SPICE deck.
    pub col: Option<u32>,
}

impl WireError {
    /// A manifest-level error (no job index).
    pub fn manifest(code: &'static str, message: impl Into<String>) -> WireError {
        WireError {
            code,
            message: message.into(),
            job: None,
            line: None,
            col: None,
        }
    }

    /// An error attributed to one job of the manifest.
    pub fn job(code: &'static str, job: usize, message: impl Into<String>) -> WireError {
        WireError {
            code,
            message: message.into(),
            job: Some(job),
            line: None,
            col: None,
        }
    }

    /// Wraps a deck parse/elaboration error, preserving its stable code
    /// and 1-based line/column (`job` attributes it within a manifest;
    /// `POST /v1/decks` passes `None`).
    pub fn from_deck(e: &fts_netlist::DeckError, job: Option<usize>) -> WireError {
        WireError {
            code: e.code,
            message: e.message.clone(),
            job,
            line: Some(e.line),
            col: Some(e.col),
        }
    }

    /// The structured JSON body: `{"schema_version":1,"error":{...}}`.
    /// `job`, `line`, and `col` members appear only when set, so errors
    /// that never touched a deck render exactly as they always have.
    pub fn to_json(&self) -> String {
        let mut detail = String::new();
        if let Some(k) = self.job {
            let _ = write!(detail, ",\"job\":{k}");
        }
        if let (Some(l), Some(c)) = (self.line, self.col) {
            let _ = write!(detail, ",\"line\":{l},\"col\":{c}");
        }
        format!(
            "{{\"schema_version\":{SCHEMA_VERSION},\"error\":{{\"code\":\"{}\",\"message\":\"{}\"{detail}}}}}",
            json_escape(self.code),
            json_escape(&self.message),
        )
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(k) = self.job {
            write!(f, "job {k}: ")?;
        }
        if let (Some(l), Some(c)) = (self.line, self.col) {
            write!(f, "line {l}:{c}: ")?;
        }
        write!(f, "{} ({})", self.message, self.code)
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

/// One job description from the manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Where the circuit (and its analysis) comes from.
    pub source: JobSource,
    /// Per-job wall-clock budget in milliseconds.
    pub deadline_ms: Option<f64>,
    /// `"full"` (single homotopy-assisted attempt, default) or `"ladder"`
    /// (cheap-to-expensive retry ladder).
    pub ladder: bool,
    /// Report label; defaults to `<function>-<index>` / `deck-<index>`.
    pub label: Option<String>,
    /// Include the decimated output waveform arrays in the result object
    /// (transient jobs only).
    pub waveform: bool,
    /// Result-cache policy: `"default"` (hit/store/warm-start),
    /// `"bypass"` (the exact legacy cold path, cache untouched), or
    /// `"refresh"` (recompute cold, overwrite the entry). Absent in v1
    /// bodies, which parse as `default`.
    pub cache: CacheMode,
}

/// The circuit half of a [`JobSpec`]: what gets simulated.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSource {
    /// A named Boolean function (`xor3`, `maj3`, … — same set as `fts
    /// synth`), synthesized into its §V bench circuit.
    Function {
        /// The function name.
        name: String,
        /// Analysis to run on the bench circuit.
        analysis: AnalysisSpec,
    },
    /// An inline SPICE deck (the `"deck"` manifest member), lowered
    /// through `fts-netlist`. The deck's own analysis card decides what
    /// runs; exactly one is required so the job maps onto one report row.
    Deck {
        /// The deck text.
        text: String,
        /// Retained-sample budget for transient decks.
        max_samples: usize,
    },
}

impl JobSpec {
    /// The report label for this spec at manifest index `k`.
    pub fn label_or_default(&self, k: usize) -> String {
        self.label.clone().unwrap_or_else(|| match &self.source {
            JobSource::Function { name, .. } => format!("{name}-{k}"),
            JobSource::Deck { .. } => format!("deck-{k}"),
        })
    }

    /// Renders this spec back to its manifest-object form. The inverse of
    /// [`BatchManifest::parse`]'s per-job reader up to defaults: optional
    /// members are emitted only when they differ from the default, and
    /// `parse(to_json(spec)) == spec` (the round-trip test pins it). The
    /// coordinator forwards jobs to workers through this renderer, so a
    /// routed job is *provably* the same spec the client submitted.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        match &self.source {
            JobSource::Function { name, analysis } => {
                let _ = write!(out, "\"function\":\"{}\"", json_escape(name));
                match analysis {
                    AnalysisSpec::Op { input } => {
                        let _ = write!(out, ",\"analysis\":\"op\",\"input\":{input}");
                    }
                    AnalysisSpec::Transient {
                        phase_ns,
                        dt_ns,
                        max_samples,
                    } => {
                        let _ = write!(
                            out,
                            ",\"analysis\":\"transient\",\"phase_ns\":{},\"dt_ns\":{},\"max_samples\":{max_samples}",
                            json_f64(*phase_ns),
                            json_f64(*dt_ns),
                        );
                    }
                }
            }
            JobSource::Deck { text, max_samples } => {
                let _ = write!(
                    out,
                    "\"deck\":\"{}\",\"max_samples\":{max_samples}",
                    json_escape(text)
                );
            }
        }
        if let Some(ms) = self.deadline_ms {
            let _ = write!(out, ",\"deadline_ms\":{}", json_f64(ms));
        }
        if self.ladder {
            out.push_str(",\"retry\":\"ladder\"");
        }
        if let Some(label) = &self.label {
            let _ = write!(out, ",\"label\":\"{}\"", json_escape(label));
        }
        if self.waveform {
            out.push_str(",\"waveform\":true");
        }
        if self.cache != CacheMode::Default {
            let _ = write!(out, ",\"cache\":\"{}\"", self.cache.as_str());
        }
        out.push('}');
        out
    }
}

/// Renders a one-job manifest for `spec` — what the coordinator forwards
/// to a worker. `ensemble_width` is passed through when the submitting
/// manifest set it (0 = absent, the worker's engine default).
pub fn single_job_manifest(spec: &JobSpec, ensemble_width: usize) -> String {
    let width = if ensemble_width > 0 {
        format!("\"ensemble_width\":{ensemble_width},")
    } else {
        String::new()
    };
    format!("{{{width}\"jobs\":[{}]}}", spec.to_json())
}

/// The analysis half of a [`JobSpec`].
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisSpec {
    /// DC operating point for a packed input assignment.
    Op {
        /// Packed input bits (bit `v` drives variable `v`).
        input: u32,
    },
    /// Transient over the full 2ⁿ input walk.
    Transient {
        /// Seconds per input combination, in nanoseconds.
        phase_ns: f64,
        /// Fixed timestep, in nanoseconds.
        dt_ns: f64,
        /// Retained-sample budget for the decimating waveform sink.
        max_samples: usize,
    },
}

/// A parsed batch manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchManifest {
    /// Worker threads (0 = one per available core).
    pub threads: usize,
    /// Lockstep lanes per solver ensemble for DC batch evaluation
    /// (0 = engine default; 1 disables the ensemble path). Validated to
    /// [`MAX_ENSEMBLE_WIDTH`] at parse time.
    pub ensemble_width: usize,
    /// The jobs, in submission order.
    pub jobs: Vec<JobSpec>,
}

/// Reads an optional positive-integer member, validating range.
fn parse_max_samples(j: &Json, k: usize) -> Result<usize, WireError> {
    let Some(v) = j.get("max_samples") else {
        return Ok(DEFAULT_MAX_SAMPLES);
    };
    let Some(x) = v.as_f64() else {
        return Err(WireError::job(
            "invalid_max_samples",
            k,
            "\"max_samples\" must be a number",
        ));
    };
    if x.fract() != 0.0 || !(2.0..=MAX_SAMPLES_LIMIT as f64).contains(&x) {
        return Err(WireError::job(
            "invalid_max_samples",
            k,
            format!("\"max_samples\" must be an integer in [2, {MAX_SAMPLES_LIMIT}], got {x}"),
        ));
    }
    Ok(x as usize)
}

impl BatchManifest {
    /// Parses and validates a manifest document.
    ///
    /// # Errors
    ///
    /// Structured [`WireError`]s: malformed JSON (`bad_json`), missing
    /// members, unknown `analysis`/`retry` kinds, out-of-range
    /// `max_samples` or timing parameters.
    pub fn parse(text: &str) -> Result<BatchManifest, WireError> {
        let doc = Json::parse(text).map_err(|e| WireError::manifest("bad_json", e))?;
        let threads = doc.get("threads").and_then(Json::as_f64).unwrap_or(0.0) as usize;
        let ensemble_width = match doc.get("ensemble_width") {
            None => 0,
            Some(v) => {
                let x = v.as_f64().ok_or_else(|| {
                    WireError::manifest(
                        "invalid_ensemble_width",
                        "\"ensemble_width\" must be a number",
                    )
                })?;
                if x.fract() != 0.0 || !(1.0..=MAX_ENSEMBLE_WIDTH as f64).contains(&x) {
                    return Err(WireError::manifest(
                        "invalid_ensemble_width",
                        format!(
                            "\"ensemble_width\" must be an integer in [1, {MAX_ENSEMBLE_WIDTH}], got {x}"
                        ),
                    ));
                }
                x as usize
            }
        };
        let jobs_json = doc.get("jobs").and_then(Json::as_array).ok_or_else(|| {
            WireError::manifest("bad_manifest", "manifest needs a \"jobs\" array")
        })?;
        let mut jobs = Vec::with_capacity(jobs_json.len());
        for (k, j) in jobs_json.iter().enumerate() {
            let function = j.get("function").and_then(Json::as_str);
            let deck = j.get("deck").and_then(Json::as_str);
            let source = match (function, deck) {
                (Some(_), Some(_)) => {
                    return Err(WireError::job(
                        "bad_manifest",
                        k,
                        "a job takes \"function\" or \"deck\", not both",
                    ))
                }
                (None, None) => {
                    return Err(WireError::job(
                        "bad_manifest",
                        k,
                        "missing \"function\" or \"deck\"",
                    ))
                }
                (None, Some(text)) => {
                    // The deck's own analysis card decides what runs, so
                    // the function-job analysis members are meaningless
                    // here — reject them rather than silently ignore.
                    for key in ["analysis", "input", "phase_ns", "dt_ns"] {
                        if j.get(key).is_some() {
                            return Err(WireError::job(
                                "bad_manifest",
                                k,
                                format!("\"{key}\" is not valid on a deck job (the deck's analysis card decides)"),
                            ));
                        }
                    }
                    JobSource::Deck {
                        text: text.to_owned(),
                        max_samples: parse_max_samples(j, k)?,
                    }
                }
                (Some(name), None) => {
                    let analysis = match j.get("analysis").and_then(Json::as_str).unwrap_or("op") {
                        "op" => AnalysisSpec::Op {
                            input: j.get("input").and_then(Json::as_f64).unwrap_or(0.0) as u32,
                        },
                        "transient" => {
                            let phase_ns = j.get("phase_ns").and_then(Json::as_f64).unwrap_or(6.0);
                            let dt_ns = j.get("dt_ns").and_then(Json::as_f64).unwrap_or(0.1);
                            // Rejects NaN and infinity alongside non-positive values.
                            let good = |x: f64| x.is_finite() && x > 0.0;
                            if !good(phase_ns) || !good(dt_ns) || dt_ns > phase_ns {
                                return Err(WireError::job(
                                    "invalid_timing",
                                    k,
                                    format!("need 0 < dt_ns <= phase_ns, got dt_ns={dt_ns}, phase_ns={phase_ns}"),
                                ));
                            }
                            AnalysisSpec::Transient {
                                phase_ns,
                                dt_ns,
                                max_samples: parse_max_samples(j, k)?,
                            }
                        }
                        other => {
                            return Err(WireError::job(
                                "unknown_analysis",
                                k,
                                format!("unknown analysis {other:?}"),
                            ))
                        }
                    };
                    JobSource::Function {
                        name: name.to_owned(),
                        analysis,
                    }
                }
            };
            let ladder = match j.get("retry").and_then(Json::as_str).unwrap_or("full") {
                "full" => false,
                "ladder" => true,
                other => {
                    return Err(WireError::job(
                        "unknown_retry",
                        k,
                        format!("unknown retry policy {other:?}"),
                    ))
                }
            };
            let deadline_ms = j.get("deadline_ms").and_then(Json::as_f64);
            if let Some(ms) = deadline_ms {
                if !(ms.is_finite() && ms > 0.0) {
                    return Err(WireError::job(
                        "invalid_deadline",
                        k,
                        format!("\"deadline_ms\" must be positive, got {ms}"),
                    ));
                }
            }
            let cache = match j.get("cache") {
                None => CacheMode::Default,
                Some(v) => {
                    let s = v.as_str().ok_or_else(|| {
                        WireError::job("unknown_cache_mode", k, "\"cache\" must be a string")
                    })?;
                    CacheMode::parse(s).ok_or_else(|| {
                        WireError::job(
                            "unknown_cache_mode",
                            k,
                            format!(
                                "unknown cache mode {s:?} (want \"default\", \"bypass\", or \"refresh\")"
                            ),
                        )
                    })?
                }
            };
            jobs.push(JobSpec {
                source,
                deadline_ms,
                ladder,
                label: j.get("label").and_then(Json::as_str).map(str::to_owned),
                waveform: j.get("waveform").and_then(Json::as_bool).unwrap_or(false),
                cache,
            });
        }
        Ok(BatchManifest {
            threads,
            ensemble_width,
            jobs,
        })
    }

    /// Renders the manifest back to its document form, the inverse of
    /// [`parse`](BatchManifest::parse) up to defaults (absent members are
    /// emitted only when set): `parse(to_json(m)) == m`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        if self.threads != 0 {
            let _ = write!(out, "\"threads\":{},", self.threads);
        }
        if self.ensemble_width != 0 {
            let _ = write!(out, "\"ensemble_width\":{},", self.ensemble_width);
        }
        out.push_str("\"jobs\":[");
        for (k, spec) in self.jobs.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push_str(&spec.to_json());
        }
        out.push_str("]}");
        out
    }
}

// ---------------------------------------------------------------------------
// Report rendering
// ---------------------------------------------------------------------------

/// Renders the deterministic result object for one outcome — shared
/// byte-for-byte between the `fts batch` report rows and the server's
/// `GET /v1/jobs/{id}` responses, which is what makes "server response
/// equals direct engine submission" checkable at the byte level.
///
/// Timing never appears here (it lives in the per-job stats), so the
/// object is identical across runs, thread counts, and transports.
pub fn outcome_json(outcome: &SimOutcome, out: NodeId, waveform: bool) -> String {
    match outcome {
        SimOutcome::Op(op) => {
            format!(
                "{{\"kind\":\"op\",\"out_v\":{}}}",
                json_f64(op.voltage(out))
            )
        }
        SimOutcome::Sweep(points) => {
            let vs: Vec<f64> = points.iter().map(|p| p.voltage(out)).collect();
            format!(
                "{{\"kind\":\"sweep\",\"points\":{},\"out_v\":{}}}",
                points.len(),
                json_f64_array(&vs)
            )
        }
        SimOutcome::Transient(w) => {
            let v = w.voltage(out).unwrap_or_default();
            let peak = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let detail = if waveform {
                format!(
                    ",\"time\":{},\"out_v\":{}",
                    json_f64_array(w.time()),
                    json_f64_array(&v)
                )
            } else {
                String::new()
            };
            format!(
                "{{\"kind\":\"transient\",\"samples\":{},\"total_samples\":{},\"stride\":{},\"out_peak_v\":{}{detail}}}",
                w.len(),
                w.total_samples(),
                w.stride(),
                json_f64(peak),
            )
        }
        SimOutcome::Ac(ac) => {
            format!("{{\"kind\":\"ac\",\"points\":{}}}", ac.freqs.len())
        }
        SimOutcome::Failed { error, attempts } => format!(
            "{{\"kind\":\"failed\",\"error\":\"{}\",\"attempts\":{attempts}}}",
            json_escape(&error.to_string())
        ),
        SimOutcome::Cancelled => "{\"kind\":\"cancelled\"}".to_owned(),
        SimOutcome::DeadlineExceeded { attempts } => {
            format!("{{\"kind\":\"deadline_exceeded\",\"attempts\":{attempts}}}")
        }
    }
}

/// Renders one report row: label and timing stats wrapped around the
/// deterministic [`outcome_json`] result object.
pub fn job_row_json(
    label: &str,
    outcome: &SimOutcome,
    stats: &JobStats,
    out: NodeId,
    waveform: bool,
) -> String {
    job_row_json_traced(label, outcome, stats, out, waveform, None)
}

/// [`job_row_json`] with an optional embedded flight-recorder journal:
/// `--trace` report rows carry a `"trace"` object
/// ([`trace_object_json`]) after the result.
pub fn job_row_json_traced(
    label: &str,
    outcome: &SimOutcome,
    stats: &JobStats,
    out: NodeId,
    waveform: bool,
    trace: Option<&TraceSnapshot>,
) -> String {
    let trace = trace.map_or(String::new(), |snap| {
        format!(",\"trace\":{}", trace_object_json(snap))
    });
    format!(
        "{{\"label\":\"{}\",\"kind\":\"{}\",\"wall_s\":{},\"attempts\":{},\"result\":{}{trace}}}",
        json_escape(label),
        outcome.kind(),
        stats.wall_s,
        stats.attempts,
        outcome_json(outcome, out, waveform),
    )
}

/// Renders the `,"cache":{"key":"cache_key/1:…","hit":…}` member the
/// server appends to each served row. It sits *after* the `"result"`
/// object (and any `"trace"`), so byte-level comparisons over the
/// deterministic result object — which is how hit/cold equivalence is
/// checked everywhere — are unaffected by cache metadata.
#[must_use]
pub fn cache_member_json(key: CacheKey, hit: bool) -> String {
    format!(",\"cache\":{{\"key\":\"{key}\",\"hit\":{hit}}}")
}

/// Renders the whole `fts batch` report document
/// (schema `fts-batch-report/1`).
pub fn batch_report_json(rows: &[String], succeeded: usize, threads: usize, wall_s: f64) -> String {
    format!(
        concat!(
            "{{\"schema\":\"fts-batch-report/1\",\"schema_version\":{},\"jobs\":{},",
            "\"succeeded\":{},\"threads\":{},\"wall_s\":{},\"outcomes\":[{}]}}"
        ),
        SCHEMA_VERSION,
        rows.len(),
        succeeded,
        threads,
        wall_s,
        rows.join(","),
    )
}

// ---------------------------------------------------------------------------
// Flight-recorder journals
// ---------------------------------------------------------------------------

/// Renders a flight-recorder snapshot's journal body — `"capacity"`,
/// `"dropped"`, and the `"events"` array — without the enclosing braces,
/// so callers can compose it into both the standalone trace document
/// ([`trace_journal_json`]) and an embedded report field.
pub fn trace_events_json(snap: &TraceSnapshot) -> String {
    let mut out = String::with_capacity(64 + snap.events.len() * 96);
    let _ = write!(
        out,
        "\"capacity\":{},\"dropped\":{},\"events\":[",
        snap.capacity, snap.dropped
    );
    for (k, ev) in snap.events.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"t_us\":{},\"attempt\":{},\"kind\":\"{}\",\"detail\":\"{}\",\"a\":{},\"b\":{}}}",
            json_f64(ev.t_us),
            ev.attempt,
            json_escape(ev.kind),
            json_escape(ev.detail),
            json_f64(ev.a),
            json_f64(ev.b),
        );
    }
    out.push(']');
    out
}

/// Renders the journal as an embeddable JSON object (the `"trace"` field
/// of `--trace` report rows).
pub fn trace_object_json(snap: &TraceSnapshot) -> String {
    format!("{{{}}}", trace_events_json(snap))
}

/// Renders the `GET /v1/jobs/{id}/trace` document (schema `fts-trace/1`):
/// the job's identity and status wrapped around the bounded event journal.
pub fn trace_journal_json(id: u64, label: &str, status: &str, snap: &TraceSnapshot) -> String {
    format!(
        concat!(
            "{{\"schema\":\"fts-trace/1\",\"schema_version\":{},\"id\":{},",
            "\"label\":\"{}\",\"status\":\"{}\",{}}}"
        ),
        SCHEMA_VERSION,
        id,
        json_escape(label),
        json_escape(status),
        trace_events_json(snap),
    )
}

/// Renders the journal in the Chrome trace-event format
/// (`?format=chrome`): one `ph:"X"` span per retry attempt bracketing its
/// events, plus one `ph:"i"` instant per recorded event, loadable in
/// `about:tracing` / Perfetto. Attempts map to Chrome thread lanes.
pub fn trace_chrome_json(id: u64, label: &str, snap: &TraceSnapshot) -> String {
    let name = if label.is_empty() {
        format!("job-{id}")
    } else {
        label.to_owned()
    };
    let mut out = String::with_capacity(128 + snap.events.len() * 128);
    let _ = write!(out, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    // One complete-event span per attempt, spanning its first..last event.
    let mut bounds: Vec<(u32, f64, f64)> = Vec::new();
    for ev in &snap.events {
        match bounds.last_mut() {
            Some((a, _, hi)) if *a == ev.attempt => *hi = ev.t_us.max(*hi),
            _ => bounds.push((ev.attempt, ev.t_us, ev.t_us)),
        }
    }
    for (a, lo, hi) in &bounds {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            concat!(
                "{{\"name\":\"{} attempt {}\",\"cat\":\"attempt\",\"ph\":\"X\",",
                "\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}}}"
            ),
            json_escape(&name),
            a,
            json_f64(*lo),
            json_f64((hi - lo).max(0.001)),
            a,
        );
    }
    for ev in &snap.events {
        if !first {
            out.push(',');
        }
        first = false;
        let ev_name = if ev.detail.is_empty() {
            ev.kind.to_owned()
        } else {
            format!("{}:{}", ev.kind, ev.detail)
        };
        let _ = write!(
            out,
            concat!(
                "{{\"name\":\"{}\",\"cat\":\"trace\",\"ph\":\"i\",\"ts\":{},",
                "\"pid\":1,\"tid\":{},\"s\":\"t\",\"args\":{{\"a\":{},\"b\":{}}}}}"
            ),
            json_escape(&ev_name),
            json_f64(ev.t_us),
            ev.attempt,
            json_f64(ev.a),
            json_f64(ev.b),
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_arrays_objects() {
        let doc =
            Json::parse(r#"{"a": 1.5, "b": [true, null, "x\n\"y\""], "c": {"d": -2e3}}"#).unwrap();
        assert_eq!(doc.get("a").and_then(Json::as_f64), Some(1.5));
        let b = doc.get("b").and_then(Json::as_array).unwrap();
        assert_eq!(b[0], Json::Bool(true));
        assert_eq!(b[0].as_bool(), Some(true));
        assert_eq!(b[1], Json::Null);
        assert_eq!(b[2].as_str(), Some("x\n\"y\""));
        let d = doc.get("c").and_then(|c| c.get("d")).unwrap();
        assert_eq!(d.as_f64(), Some(-2000.0));
    }

    #[test]
    fn member_span_lifts_values_verbatim() {
        let doc = r#"{"id":3, "job":{"label":"a\"}","result":{"out_v":1.50}},"n":[1, 2]}"#;
        let job = &doc[member_span(doc, "job").unwrap()];
        assert_eq!(job, r#"{"label":"a\"}","result":{"out_v":1.50}}"#);
        // Nested lookups compose, and number spelling is kept as written.
        assert_eq!(
            &job[member_span(job, "result").unwrap()],
            r#"{"out_v":1.50}"#
        );
        assert_eq!(&doc[member_span(doc, "id").unwrap()], "3");
        assert_eq!(&doc[member_span(doc, "n").unwrap()], "[1, 2]");
        assert!(member_span(doc, "missing").is_none());
        assert!(member_span("[1]", "id").is_none());
        assert!(member_span("{\"a\":}", "a").is_none());
    }

    #[test]
    fn nesting_depth_is_bounded() {
        // Right at the cap parses; one past it is a structured error.
        let deep = |n: usize| format!("{}1{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&deep(MAX_JSON_DEPTH)).is_ok());
        let e = Json::parse(&deep(MAX_JSON_DEPTH + 1)).unwrap_err();
        assert!(e.contains("nesting"), "{e}");
        // Hostile depths far past the cap fail the same way instead of
        // overflowing the stack (objects recurse through values too).
        assert!(Json::parse(&"[".repeat(200_000)).is_err());
        assert!(Json::parse(&r#"{"a":"#.repeat(200_000)).is_err());
        let e = BatchManifest::parse(&"[".repeat(50_000)).unwrap_err();
        assert_eq!(e.code, "bad_json");
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::NEG_INFINITY), "null");
        let arr = json_f64_array(&[1.0, f64::INFINITY, f64::NAN]);
        assert_eq!(arr, "[1,null,null]");
        // The guarded tokens parse back as valid JSON.
        assert!(Json::parse(&arr).is_ok());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "{\"a\":}", "[1,]", "{\"a\":1} x", "\"unterminated"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn manifest_defaults_and_options() {
        let m = BatchManifest::parse(
            r#"{"threads": 3, "jobs": [
                {"function": "and2"},
                {"function": "xor3", "analysis": "transient", "phase_ns": 2.0,
                 "deadline_ms": 250, "retry": "ladder", "label": "walk",
                 "max_samples": 128, "waveform": true}
            ]}"#,
        )
        .unwrap();
        assert_eq!(m.threads, 3);
        assert_eq!(m.ensemble_width, 0, "absent means engine default");
        assert_eq!(m.jobs.len(), 2);
        match &m.jobs[0].source {
            JobSource::Function { name, analysis } => {
                assert_eq!(name, "and2");
                assert!(matches!(analysis, AnalysisSpec::Op { input: 0 }));
            }
            other => panic!("expected function source, got {other:?}"),
        }
        assert!(!m.jobs[0].ladder);
        assert!(!m.jobs[0].waveform);
        assert_eq!(m.jobs[0].label_or_default(0), "and2-0");
        match &m.jobs[1].source {
            JobSource::Function {
                analysis:
                    AnalysisSpec::Transient {
                        phase_ns,
                        dt_ns,
                        max_samples,
                    },
                ..
            } => {
                assert_eq!(*phase_ns, 2.0);
                assert_eq!(*dt_ns, 0.1);
                assert_eq!(*max_samples, 128);
            }
            other => panic!("expected transient, got {other:?}"),
        }
        assert!(m.jobs[1].ladder);
        assert!(m.jobs[1].waveform);
        assert_eq!(m.jobs[1].deadline_ms, Some(250.0));
        assert_eq!(m.jobs[1].label.as_deref(), Some("walk"));
    }

    #[test]
    fn manifest_ensemble_width_parses_and_validates() {
        let m =
            BatchManifest::parse(r#"{"ensemble_width": 16, "jobs": [{"function": "x"}]}"#).unwrap();
        assert_eq!(m.ensemble_width, 16);
        let m =
            BatchManifest::parse(r#"{"ensemble_width": 1, "jobs": [{"function": "x"}]}"#).unwrap();
        assert_eq!(
            m.ensemble_width, 1,
            "1 is valid: it disables the ensemble path"
        );
        for bad in [
            r#"{"ensemble_width": 0, "jobs": []}"#,
            r#"{"ensemble_width": 65, "jobs": []}"#,
            r#"{"ensemble_width": 7.5, "jobs": []}"#,
            r#"{"ensemble_width": "wide", "jobs": []}"#,
            r#"{"ensemble_width": -4, "jobs": []}"#,
        ] {
            let e = BatchManifest::parse(bad).unwrap_err();
            assert_eq!(e.code, "invalid_ensemble_width", "{bad}");
            assert_eq!(e.job, None, "manifest-level error, not a job error");
        }
    }

    #[test]
    fn manifest_rejects_unknown_kinds() {
        let e = BatchManifest::parse(r#"{"jobs": [{"function": "x", "analysis": "noise"}]}"#)
            .unwrap_err();
        assert_eq!(e.code, "unknown_analysis");
        assert_eq!(e.job, Some(0));
        let e = BatchManifest::parse(r#"{"jobs": [{"function": "x", "retry": "forever"}]}"#)
            .unwrap_err();
        assert_eq!(e.code, "unknown_retry");
        let e = BatchManifest::parse(r#"{"jobs": [{"function": "x", "cache": "always"}]}"#)
            .unwrap_err();
        assert_eq!(e.code, "unknown_cache_mode");
        assert_eq!(e.job, Some(0));
        let e = BatchManifest::parse(r#"{"jobs": [{"function": "x", "cache": 1}]}"#).unwrap_err();
        assert_eq!(e.code, "unknown_cache_mode");
        let e = BatchManifest::parse(r#"{"jobs": [{}]}"#).unwrap_err();
        assert_eq!(e.code, "bad_manifest");
    }

    #[test]
    fn manifest_validates_decimation_and_timing() {
        for (snippet, code) in [
            (r#""max_samples": 1"#, "invalid_max_samples"),
            (r#""max_samples": 2.5"#, "invalid_max_samples"),
            (r#""max_samples": 1e9"#, "invalid_max_samples"),
            (r#""max_samples": "lots""#, "invalid_max_samples"),
            (r#""dt_ns": -1"#, "invalid_timing"),
            (r#""dt_ns": 7.0, "phase_ns": 2.0"#, "invalid_timing"),
        ] {
            let text =
                format!(r#"{{"jobs": [{{"function": "x", "analysis": "transient", {snippet}}}]}}"#);
            let e = BatchManifest::parse(&text).unwrap_err();
            assert_eq!(e.code, code, "{snippet}");
            assert_eq!(e.job, Some(0), "{snippet}");
        }
        let e =
            BatchManifest::parse(r#"{"jobs": [{"function": "x", "deadline_ms": 0}]}"#).unwrap_err();
        assert_eq!(e.code, "invalid_deadline");
    }

    #[test]
    fn manifest_deck_jobs_parse_and_validate() {
        let m = BatchManifest::parse(
            r#"{"jobs": [{"deck": "v1 a 0 dc 1\n.op\n", "max_samples": 64, "label": "d"}]}"#,
        )
        .unwrap();
        match &m.jobs[0].source {
            JobSource::Deck { text, max_samples } => {
                assert!(text.starts_with("v1 a 0"), "{text:?}");
                assert_eq!(*max_samples, 64);
            }
            other => panic!("expected deck source, got {other:?}"),
        }
        assert_eq!(m.jobs[0].label_or_default(0), "d");
        let m = BatchManifest::parse(r#"{"jobs": [{"deck": "x"}]}"#).unwrap();
        assert_eq!(m.jobs[0].label_or_default(3), "deck-3");

        for (body, needle) in [
            (r#"{"function": "x", "deck": "y"}"#, "not both"),
            (r#"{"deck": "y", "analysis": "op"}"#, "analysis"),
            (r#"{"deck": "y", "input": 3}"#, "input"),
            (r#"{"deck": "y", "phase_ns": 1}"#, "phase_ns"),
            (r#"{"deck": "y", "dt_ns": 1}"#, "dt_ns"),
        ] {
            let e = BatchManifest::parse(&format!(r#"{{"jobs": [{body}]}}"#)).unwrap_err();
            assert_eq!(e.code, "bad_manifest", "{body}");
            assert!(e.message.contains(needle), "{body}: {e}");
        }
    }

    #[test]
    fn deck_errors_carry_line_and_column() {
        let deck_err = fts_netlist::parse_str("v1 in 0 dc 1\nr1 a b\n.op\n").unwrap_err();
        let e = WireError::from_deck(&deck_err, Some(2));
        assert_eq!(e.line, Some(2));
        let json = e.to_json();
        assert!(json.contains("\"job\":2"), "{json}");
        assert!(json.contains("\"line\":2"), "{json}");
        assert!(json.contains("\"col\":"), "{json}");
        assert!(Json::parse(&json).is_ok());
        assert!(e.to_string().contains("line 2:"), "{e}");
    }

    #[test]
    fn json_render_reparse_is_identity() {
        let text = r#"{"a":[1,true,null,"x\n"],"b":{"c":-0.0025},"d":""}"#;
        let doc = Json::parse(text).unwrap();
        assert_eq!(doc.render(), text);
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
        // Non-finite numbers normalize to null on render.
        assert_eq!(Json::Number(f64::NAN).render(), "null");
    }

    #[test]
    fn overflowing_number_literals_are_parse_errors() {
        // The shared number path refuses literals that overflow to
        // infinity and non-JSON forms the old lenient reader admitted.
        for bad in ["1e999", "[1,-1e999]", "01", "+1", "1.", ".5"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn manifest_to_json_round_trips_through_parse() {
        for text in [
            r#"{"jobs":[{"function":"and2"}]}"#,
            r#"{"threads":3,"ensemble_width":16,"jobs":[
                {"function":"xor3","analysis":"transient","phase_ns":2.5,"dt_ns":0.1,
                 "max_samples":128,"deadline_ms":250,"retry":"ladder","label":"w\"x","waveform":true},
                {"function":"maj3","analysis":"op","input":5},
                {"deck":"v1 a 0 dc 2\nr1 a out 1k\nr2 out 0 1k\n.op\n","max_samples":64}
            ]}"#,
            r#"{"jobs":[
                {"function":"and2","cache":"bypass"},
                {"function":"or2","cache":"refresh"},
                {"function":"xor2","cache":"default"}
            ]}"#,
        ] {
            let m = BatchManifest::parse(text).unwrap();
            let rendered = m.to_json();
            let reparsed = BatchManifest::parse(&rendered)
                .unwrap_or_else(|e| panic!("render of {text} unparseable: {e}\n{rendered}"));
            assert_eq!(reparsed, m, "round trip drifted for {text}:\n{rendered}");
            // Idempotence: rendering the reparse is byte-stable.
            assert_eq!(reparsed.to_json(), rendered);
        }
    }

    #[test]
    fn single_job_manifest_preserves_spec_and_width() {
        let m = BatchManifest::parse(
            r#"{"ensemble_width":8,"jobs":[{"function":"or2","analysis":"op","input":2,"label":"L"}]}"#,
        )
        .unwrap();
        let fwd = single_job_manifest(&m.jobs[0], m.ensemble_width);
        let fm = BatchManifest::parse(&fwd).unwrap();
        assert_eq!(fm.ensemble_width, 8);
        assert_eq!(fm.jobs, m.jobs);
        // Width 0 stays absent so the worker keeps its engine default.
        let fwd = single_job_manifest(&m.jobs[0], 0);
        assert!(!fwd.contains("ensemble_width"), "{fwd}");
        assert_eq!(BatchManifest::parse(&fwd).unwrap().jobs, m.jobs);
    }

    #[test]
    fn wire_error_renders_structured_json() {
        let e = WireError::job("invalid_max_samples", 3, "must be \"small\"");
        let json = e.to_json();
        assert_eq!(
            json,
            format!(
                "{{\"schema_version\":{SCHEMA_VERSION},\"error\":{{\"code\":\"invalid_max_samples\",\"message\":\"must be \\\"small\\\"\",\"job\":3}}}}"
            )
        );
        // The structured body itself round-trips through the parser.
        let doc = Json::parse(&json).unwrap();
        let err = doc.get("error").unwrap();
        assert_eq!(
            err.get("code").and_then(Json::as_str),
            Some("invalid_max_samples")
        );
        assert_eq!(err.get("job").and_then(Json::as_f64), Some(3.0));
        assert!(e.to_string().contains("job 3"));
    }
}
