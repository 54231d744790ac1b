//! Offline trace analytics: parse `trace.jsonl` back into [`RunTrace`]s
//! and replay them through any [`InferenceObserver`].
//!
//! [`analyze`] is the one fold of a set of recorded runs: it replays
//! them into one [`MetricsObserver`]. `repro trace` calls it on the runs
//! it has just recorded and `repro analyze` on the ones [`analyze_str`]
//! parses back, and both print the same tables. The
//! [`write_jsonl`](crate::write_jsonl) encoder and this parser are exact
//! inverses for every finite value (Rust prints f64 in
//! shortest-round-trip form and parses it back correctly rounded), and
//! the [`MetricsObserver`] fold is order-insensitive within a run, so
//! replaying a recorded trace reproduces a live observer's snapshot of
//! the same runs exactly.
//!
//! The parser is hand-rolled (no serde in the build environment) and
//! *tolerant in the forward direction*: unknown record types, span
//! labels, and event names are skipped so newer traces still analyze,
//! while malformed JSON reports the offending line.

use crate::fold::{MetricsObserver, MetricsSnapshot};
use crate::observer::{
    InferenceObserver, IterationRecord, NodeResidual, ObsEvent, RunInfo, RunSummary, SpanKind,
};
use crate::trace::RunTrace;
use std::fmt;
use wsnloc_net::accounting::CommStats;

/// A parse failure, located by 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayError {
    /// 1-based line number in the JSONL input.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ReplayError {}

/// A parsed JSON value. Integers that fit `u64` are kept exact
/// ([`JsonValue::Int`]); everything else numeric is `f64`.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer token that fits `u64`, kept exact (seeds
    /// and counts survive the round trip bit for bit).
    Int(u64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, fields in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Field `key` of an object, if present.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64` (exact integers only).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `usize`.
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// The value as `f64`; integers widen, `null` becomes NaN (the
    /// encoder writes non-finite floats as `null`).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            JsonValue::Int(v) => Some(*v as f64),
            JsonValue::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse_json`] accepts. The parser
/// recurses once per level, so without a cap one line of `[`s overflows
/// the stack; the trace encoder and the `BENCH_*.json` writers nest at
/// most 4 levels.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

type PResult<T> = Result<T, String>;

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

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

    fn expect_byte(&mut self, b: u8) -> PResult<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    /// Parses one value nested inside `depth` arrays or objects.
    fn value(&mut self, depth: usize) -> PResult<JsonValue> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at offset {}",
                self.pos
            )),
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!("unexpected byte '{}' at {}", b as char, self.pos)),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> PResult<JsonValue> {
        let end = self.pos + lit.len();
        if self.bytes.get(self.pos..end) == Some(lit.as_bytes()) {
            self.pos = end;
            Ok(v)
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    fn number(&mut self) -> PResult<JsonValue> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let tok = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid utf8 in number".to_owned())?;
        if integral && !tok.starts_with('-') {
            if let Ok(v) = tok.parse::<u64>() {
                return Ok(JsonValue::Int(v));
            }
        }
        tok.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("invalid number '{tok}'"))
    }

    fn string(&mut self) -> PResult<String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err("unterminated string".to_owned());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err("unterminated escape".to_owned());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let end = self.pos + 4;
                            let hex = self
                                .bytes
                                .get(self.pos..end)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| "truncated \\u escape".to_owned())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("invalid \\u escape '{hex}'"))?;
                            self.pos = end;
                            // Surrogates (paired or lone) are replaced; the
                            // encoder never emits them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("invalid escape '\\{}'", other as char)),
                    }
                }
                _ => {
                    // Multi-byte UTF-8: copy the full character.
                    let char_start = self.pos - 1;
                    let len = utf8_len(b);
                    let end = char_start + len;
                    let chunk = self
                        .bytes
                        .get(char_start..end)
                        .and_then(|c| std::str::from_utf8(c).ok())
                        .ok_or_else(|| "invalid utf8 in string".to_owned())?;
                    out.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> PResult<JsonValue> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> PResult<JsonValue> {
        self.expect_byte(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }
}

/// Length in bytes of a UTF-8 character starting with `lead`.
fn utf8_len(lead: u8) -> usize {
    if lead < 0x80 {
        1
    } else if lead < 0xE0 {
        2
    } else if lead < 0xF0 {
        3
    } else {
        4
    }
}

/// Parses one JSON document (used for trace lines, the pinned bench
/// JSON files and the telemetry endpoints' bodies). Arrays and objects
/// may nest at most 64 levels deep; deeper input is an error.
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser::new(text);
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at offset {}", p.pos));
    }
    Ok(v)
}

/// Interning tables: trace strings back to the `&'static str`s the
/// observer structs carry. Unknown names map to `"unknown"` rather than
/// failing, so newer traces still replay.
fn intern_backend(s: &str) -> &'static str {
    match s {
        "particle" => "particle",
        "grid" => "grid",
        "gaussian" => "gaussian",
        "sharded-particle" => "sharded-particle",
        "sharded-grid" => "sharded-grid",
        "sharded-gaussian" => "sharded-gaussian",
        _ => "unknown",
    }
}

fn intern_schedule(s: &str) -> &'static str {
    match s {
        "synchronous" => "synchronous",
        "sweep" => "sweep",
        _ => "unknown",
    }
}

fn intern_stage(s: &str) -> &'static str {
    match s {
        "kernel" => "kernel",
        "point" => "point",
        _ => "unknown",
    }
}

fn span_kind(label: &str) -> Option<SpanKind> {
    match label {
        "model_build" => Some(SpanKind::ModelBuild),
        "prior_init" => Some(SpanKind::PriorInit),
        "message_passing" => Some(SpanKind::MessagePassing),
        "estimate_extract" => Some(SpanKind::EstimateExtract),
        _ => None,
    }
}

fn field_u64(v: &JsonValue, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("missing or non-integer field '{key}'"))
}

fn field_usize(v: &JsonValue, key: &str) -> Result<usize, String> {
    v.get(key)
        .and_then(JsonValue::as_usize)
        .ok_or_else(|| format!("missing or non-integer field '{key}'"))
}

fn field_f64(v: &JsonValue, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("missing or non-numeric field '{key}'"))
}

fn field_str<'v>(v: &'v JsonValue, key: &str) -> Result<&'v str, String> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("missing or non-string field '{key}'"))
}

fn parse_run_start(v: &JsonValue) -> Result<RunInfo, String> {
    Ok(RunInfo {
        backend: intern_backend(field_str(v, "backend")?),
        nodes: field_usize(v, "nodes")?,
        free: field_usize(v, "free")?,
        edges: field_usize(v, "edges")?,
        max_iterations: field_usize(v, "max_iterations")?,
        tolerance: field_f64(v, "tolerance")?,
        damping: field_f64(v, "damping")?,
        schedule: intern_schedule(field_str(v, "schedule")?),
        message_bytes: field_u64(v, "message_bytes")?,
        seed: field_u64(v, "seed")?,
    })
}

fn parse_iteration(v: &JsonValue) -> Result<IterationRecord, String> {
    let residuals = match v.get("residuals").and_then(JsonValue::as_arr) {
        Some(items) => {
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                let kl = match item.get("kl") {
                    None | Some(JsonValue::Null) => None,
                    Some(other) => other.as_f64(),
                };
                out.push(NodeResidual {
                    node: field_usize(item, "node")?,
                    residual: field_f64(item, "residual")?,
                    kl,
                });
            }
            out
        }
        None => Vec::new(),
    };
    Ok(IterationRecord {
        iteration: field_usize(v, "iter")?,
        max_shift: field_f64(v, "max_shift")?,
        comm: CommStats {
            messages: field_u64(v, "messages")?,
            bytes: field_u64(v, "bytes")?,
        },
        damping: field_f64(v, "damping")?,
        schedule: intern_schedule(field_str(v, "schedule")?),
        secs: field_f64(v, "secs")?,
        residuals,
    })
}

fn parse_event(v: &JsonValue) -> Result<Option<ObsEvent>, String> {
    let event = match field_str(v, "event")? {
        "grid_uniform_fallback" => Some(ObsEvent::GridUniformFallback {
            edge: field_usize(v, "edge")?,
            stage: intern_stage(field_str(v, "stage")?),
        }),
        "message_dropped" => Some(ObsEvent::MessageDropped {
            iteration: field_usize(v, "iteration")?,
            count: field_u64(v, "count")?,
        }),
        "node_died" => Some(ObsEvent::NodeDied {
            iteration: field_usize(v, "iteration")?,
            node: field_usize(v, "node")?,
        }),
        "stale_message_used" => Some(ObsEvent::StaleMessageUsed {
            iteration: field_usize(v, "iteration")?,
            count: field_u64(v, "count")?,
        }),
        "epoch_advanced" => Some(ObsEvent::EpochAdvanced {
            tenant: field_u64(v, "tenant")?,
            epoch: field_u64(v, "epoch")?,
        }),
        "tenant_shed" => Some(ObsEvent::TenantShed {
            tenant: field_u64(v, "tenant")?,
            epoch: field_u64(v, "epoch")?,
        }),
        // Traces written before the context lost its `shard` and
        // `round` keys still parse: unread keys are ignored.
        "context" => {
            let opt = |key: &str| v.get(key).and_then(JsonValue::as_u64);
            Some(ObsEvent::Context {
                tenant: opt("tenant"),
                epoch: opt("epoch"),
            })
        }
        "boundary_exchange" => Some(ObsEvent::BoundaryExchange {
            round: field_usize(v, "round")?,
            shard: field_usize(v, "shard")?,
            messages: field_u64(v, "messages")?,
        }),
        _ => None, // forward compatibility: unknown events are skipped
    };
    Ok(event)
}

/// Parses a JSONL trace (the [`write_jsonl`](crate::write_jsonl)
/// schema) back into [`RunTrace`]s. Blank lines are skipped; a run
/// without a `run_end` record parses with `summary: None` (exactly
/// what a run interrupted by a panic leaves behind).
pub fn parse_jsonl(text: &str) -> Result<Vec<RunTrace>, ReplayError> {
    let mut runs: Vec<RunTrace> = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        let at = |msg: String| ReplayError { line: lineno, msg };
        let v = parse_json(line).map_err(at)?;
        let kind = field_str(&v, "type").map_err(at)?.to_owned();
        if kind == "run_start" {
            runs.push(RunTrace {
                info: parse_run_start(&v).map_err(at)?,
                iterations: Vec::new(),
                spans: Vec::new(),
                events: Vec::new(),
                summary: None,
            });
            continue;
        }
        let Some(run) = runs.last_mut() else {
            return Err(at(format!("'{kind}' record before any run_start")));
        };
        match kind.as_str() {
            "iteration" => run.iterations.push(parse_iteration(&v).map_err(at)?),
            "span" => {
                let label = field_str(&v, "span").map_err(at)?;
                if let Some(kind) = span_kind(label) {
                    run.spans.push((kind, field_f64(&v, "secs").map_err(at)?));
                }
                // Unknown span labels are skipped (forward compat).
            }
            "event" => {
                if let Some(event) = parse_event(&v).map_err(at)? {
                    run.events.push(event);
                }
            }
            "run_end" => {
                run.summary = Some(RunSummary {
                    iterations: field_usize(&v, "iterations").map_err(at)?,
                    converged: v
                        .get("converged")
                        .and_then(JsonValue::as_bool)
                        .ok_or_else(|| at("missing field 'converged'".to_owned()))?,
                    comm: CommStats {
                        messages: field_u64(&v, "messages").map_err(at)?,
                        bytes: field_u64(&v, "bytes").map_err(at)?,
                    },
                });
            }
            _ => {} // unknown record types are skipped
        }
    }
    Ok(runs)
}

/// Feeds recorded runs through `obs` exactly as a live engine would:
/// `run_start`, iterations, spans, events, then `run_end` per run.
pub fn replay(runs: &[RunTrace], obs: &dyn InferenceObserver) {
    for run in runs {
        obs.on_run_start(&run.info);
        for rec in &run.iterations {
            obs.on_iteration(rec);
        }
        for &(span, secs) in &run.spans {
            obs.on_span(span, secs);
        }
        for event in &run.events {
            obs.on_event(event);
        }
        if let Some(sum) = run.summary {
            obs.on_run_end(&sum);
        }
    }
}

/// The result of analyzing recorded runs: the same snapshot a live
/// [`MetricsObserver`] would have produced, plus the replayed store's
/// OpenMetrics rendering.
#[derive(Debug, Clone)]
pub struct TraceAnalysis {
    /// Runs found in the trace.
    pub runs: usize,
    /// Runs that never reported a `run_end` (interrupted).
    pub incomplete_runs: usize,
    /// The replayed metrics fold.
    pub snapshot: MetricsSnapshot,
    /// OpenMetrics rendering of the replayed store.
    pub openmetrics: String,
}

/// Replays recorded runs into a fresh [`MetricsObserver`] — the one
/// fold of a set of runs.
#[must_use]
pub fn analyze(runs: &[RunTrace]) -> TraceAnalysis {
    let metrics = MetricsObserver::new();
    replay(runs, &metrics);
    TraceAnalysis {
        runs: runs.len(),
        incomplete_runs: runs.iter().filter(|r| r.summary.is_none()).count(),
        snapshot: metrics.snapshot(),
        openmetrics: metrics.window().render_run_facts(),
    }
}

/// Parses a JSONL trace ([`parse_jsonl`]) and [`analyze`]s its runs.
pub fn analyze_str(text: &str) -> Result<TraceAnalysis, ReplayError> {
    parse_jsonl(text).map(|runs| analyze(&runs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{write_jsonl, VecSink};

    fn sample_trace() -> Vec<RunTrace> {
        vec![RunTrace {
            info: RunInfo {
                backend: "grid",
                nodes: 9,
                free: 7,
                edges: 12,
                max_iterations: 4,
                tolerance: 0.125,
                damping: 0.25,
                schedule: "synchronous",
                message_bytes: 40,
                seed: u64::MAX, // exercises exact u64 round-tripping
            },
            iterations: vec![IterationRecord {
                iteration: 0,
                max_shift: 2.5e-3,
                comm: CommStats {
                    messages: 14,
                    bytes: 560,
                },
                damping: 0.25,
                schedule: "synchronous",
                secs: 0.0017,
                residuals: vec![
                    NodeResidual {
                        node: 1,
                        residual: 0.1 + 0.2, // a value with no short decimal
                        kl: Some(0.034),
                    },
                    NodeResidual {
                        node: 2,
                        residual: 1.5,
                        kl: None,
                    },
                ],
            }],
            spans: vec![
                (SpanKind::PriorInit, 0.004),
                (SpanKind::MessagePassing, 0.02),
            ],
            events: vec![
                ObsEvent::MessageDropped {
                    iteration: 0,
                    count: 3,
                },
                ObsEvent::Context {
                    tenant: Some(3),
                    epoch: None,
                },
            ],
            summary: Some(RunSummary {
                iterations: 1,
                converged: false,
                comm: CommStats {
                    messages: 14,
                    bytes: 560,
                },
            }),
        }]
    }

    #[test]
    fn jsonl_round_trips_bit_exactly() {
        let runs = sample_trace();
        let mut sink = VecSink::new();
        write_jsonl(&runs, &mut sink).expect("in-memory serialize");
        let text = sink.lines.join("\n");
        let parsed = parse_jsonl(&text).expect("parse back");
        assert_eq!(parsed, runs);
        // Older traces stamped the context with `shard` and `round` keys;
        // they still parse, to the same event.
        let context = "{\"type\":\"event\",\"event\":\"context\",\"tenant\":3,\"epoch\":null}";
        assert!(text.contains(context), "{text}");
        let older = text.replace(
            context,
            "{\"type\":\"event\",\"event\":\"context\",\"tenant\":3,\"epoch\":null,\"shard\":1,\"round\":0}",
        );
        assert_eq!(parse_jsonl(&older).expect("older context parses"), runs);
    }

    #[test]
    fn json_parser_handles_escapes_and_types() {
        let v =
            parse_json(r#"{"a":[1,2.5,null,true,"x\n\"yA"],"b":{"c":-3}}"#).expect("valid json");
        let arr = v.get("a").and_then(JsonValue::as_arr).expect("array");
        assert_eq!(arr[0], JsonValue::Int(1));
        assert_eq!(arr[1], JsonValue::Num(2.5));
        assert_eq!(arr[2], JsonValue::Null);
        assert_eq!(arr[3], JsonValue::Bool(true));
        assert_eq!(arr[4].as_str(), Some("x\n\"yA"));
        let c = v.get("b").and_then(|b| b.get("c")).expect("nested");
        assert_eq!(c.as_f64(), Some(-3.0));
        assert!(c.as_u64().is_none(), "negative numbers are not u64");
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("{} trailing").is_err());
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse_json(&nested(MAX_DEPTH)).is_ok());
        let err = parse_json(&nested(MAX_DEPTH + 1)).expect_err("one level too deep");
        assert!(err.contains("nesting"), "{err}");
        // Unbounded recursion overflowed the stack well before this.
        let hostile = "[".repeat(1_000_000);
        assert!(parse_json(&hostile).is_err());
        let err = analyze_str(&hostile).expect_err("hostile trace line");
        assert_eq!(err.line, 1);
        assert!(parse_json(&format!("{{\"a\":{}", "{\"a\":".repeat(1_000_000))).is_err());
    }

    #[test]
    fn incomplete_runs_parse_without_summary() {
        let runs = {
            let mut r = sample_trace();
            r[0].summary = None;
            r
        };
        let mut sink = VecSink::new();
        write_jsonl(&runs, &mut sink).expect("serialize");
        let parsed = parse_jsonl(&sink.lines.join("\n")).expect("parse");
        assert_eq!(parsed.len(), 1);
        assert!(parsed[0].summary.is_none());
        let analysis = analyze_str(&sink.lines.join("\n")).expect("analyze");
        assert_eq!(analysis.incomplete_runs, 1);
    }

    #[test]
    fn unknown_records_spans_and_events_are_skipped() {
        let mut sink = VecSink::new();
        write_jsonl(&sample_trace(), &mut sink).expect("serialize");
        let known = sink.lines.join("\n");
        // Inside the run, before its `run_end`: an event this version no
        // longer emits (recorded by older traces), a record type and a
        // span label it does not know.
        let (body, run_end) = known.rsplit_once('\n').expect("several lines");
        let mixed = [
            body,
            "{\"type\":\"event\",\"event\":\"map_fallback_to_mmse\",\"backend\":\"gaussian\"}",
            "{\"type\":\"checkpoint\",\"iter\":0}",
            "{\"type\":\"span\",\"span\":\"shard_compile\",\"secs\":0.5}",
            run_end,
        ]
        .join("\n");
        assert_eq!(
            parse_jsonl(&mixed).expect("unknown lines parse"),
            parse_jsonl(&known).expect("known lines parse")
        );
        let (a, b) = (
            analyze_str(&mixed).expect("analyze"),
            analyze_str(&known).expect("analyze"),
        );
        assert_eq!(a.snapshot, b.snapshot);
        assert_eq!((a.runs, a.incomplete_runs), (b.runs, b.incomplete_runs));
        assert_eq!(a.openmetrics, b.openmetrics);
    }

    #[test]
    fn malformed_lines_report_the_line_number() {
        let err =
            parse_jsonl("{\"type\":\"run_start\",\"backend\":\"grid\"").expect_err("truncated");
        assert_eq!(err.line, 1);
        let err = parse_jsonl("\n{\"type\":\"iteration\",\"iter\":0}").expect_err("orphan record");
        assert_eq!(err.line, 2);
        assert!(err.msg.contains("run_start"));
    }

    #[test]
    fn analyze_matches_a_live_fold() {
        let runs = sample_trace();
        // Live: feed the observer directly.
        let live = MetricsObserver::new();
        replay(&runs, &live);
        // Offline: serialize, parse, replay.
        let mut sink = VecSink::new();
        write_jsonl(&runs, &mut sink).expect("serialize");
        let analysis = analyze_str(&sink.lines.join("\n")).expect("analyze");
        assert_eq!(analysis.snapshot, live.snapshot());
        assert_eq!(analysis.runs, 1);
        assert!(analysis.snapshot.flame_table().contains("message_passing"));
        assert!(analysis.openmetrics.ends_with("# EOF\n"));
    }
}
