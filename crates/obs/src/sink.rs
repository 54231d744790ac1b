//! Trace serialization: recorded runs → JSON Lines.
//!
//! The encoder is hand-rolled (the build environment has no serde
//! registry access); it emits one self-describing JSON object per line.
//! Schema (stable, documented in the README "Observability" section):
//!
//! ```text
//! {"type":"run_start","backend":..,"nodes":..,"free":..,"edges":..,
//!  "max_iterations":..,"tolerance":..,"damping":..,"schedule":..,
//!  "message_bytes":..,"seed":..}
//! {"type":"iteration","iter":..,"max_shift":..,"messages":..,"bytes":..,
//!  "damping":..,"schedule":..,"secs":..,"max_residual":..,
//!  "mean_residual":..,"residuals":[{"node":..,"residual":..,"kl":..},..]}
//! {"type":"span","span":"model_build|prior_init|message_passing|estimate_extract","secs":..}
//! {"type":"event","event":"grid_uniform_fallback","edge":..,"stage":"kernel|point"}
//! {"type":"event","event":"message_dropped","iteration":..,"count":..}
//! {"type":"event","event":"node_died","iteration":..,"node":..}
//! {"type":"event","event":"stale_message_used","iteration":..,"count":..}
//! {"type":"event","event":"epoch_advanced","tenant":..,"epoch":..}
//! {"type":"event","event":"tenant_shed","tenant":..,"epoch":..}
//! {"type":"event","event":"context","tenant":..,"epoch":..}
//! {"type":"event","event":"boundary_exchange","round":..,"shard":..,"messages":..}
//! {"type":"run_end","iterations":..,"converged":..,"messages":..,"bytes":..}
//! ```
//!
//! Non-finite floats serialize as `null` (JSON has no NaN/Infinity).
//! Records of one run appear contiguously, `run_start` first, `run_end`
//! last, so a reader can replay runs by splitting on `run_start`.

use crate::observer::ObsEvent;
use crate::trace::RunTrace;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Where serialized trace lines go.
pub trait TraceSink {
    /// Accepts one complete JSON line (no trailing newline).
    fn write_line(&mut self, line: &str) -> io::Result<()>;

    /// Flushes any buffered lines.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A [`TraceSink`] writing newline-delimited JSON to any [`Write`].
///
/// The sink flushes on [`finish`](JsonlSink::finish) and again on drop,
/// so a run that panics mid-trace still leaves every completed line on
/// disk — each line is written whole, so the worst a crash can truncate
/// is the line in flight, never earlier records.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    // `None` only after `finish` has consumed the writer.
    out: Option<W>,
}

impl JsonlSink<BufWriter<File>> {
    /// Creates (truncating) `path` and returns a buffered file sink.
    pub fn create(path: &Path) -> io::Result<Self> {
        Ok(JsonlSink {
            out: Some(BufWriter::new(File::create(path)?)),
        })
    }
}

fn finished_err() -> io::Error {
    io::Error::new(io::ErrorKind::BrokenPipe, "sink already finished")
}

impl<W: Write> JsonlSink<W> {
    /// Wraps an arbitrary writer.
    pub fn new(out: W) -> Self {
        JsonlSink { out: Some(out) }
    }

    /// Flushes and consumes the sink, surfacing any buffered I/O error
    /// that a plain drop would have to swallow.
    pub fn finish(mut self) -> io::Result<()> {
        match self.out.take() {
            Some(mut out) => out.flush(),
            None => Ok(()),
        }
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn write_line(&mut self, line: &str) -> io::Result<()> {
        let out = self.out.as_mut().ok_or_else(finished_err)?;
        out.write_all(line.as_bytes())?;
        out.write_all(b"\n")
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.as_mut().ok_or_else(finished_err)?.flush()
    }
}

impl<W: Write> Drop for JsonlSink<W> {
    fn drop(&mut self) {
        // Best effort: unwinding out of a panicked run must not lose
        // buffered lines; errors here have nowhere to go.
        if let Some(out) = self.out.as_mut() {
            let _ = out.flush();
        }
    }
}

/// A [`TraceSink`] collecting lines in memory — for tests and in-process
/// consumers.
#[derive(Debug, Default)]
pub struct VecSink {
    /// The collected JSON lines, in write order.
    pub lines: Vec<String>,
}

impl VecSink {
    /// A fresh, empty sink.
    pub fn new() -> Self {
        VecSink::default()
    }
}

impl TraceSink for VecSink {
    fn write_line(&mut self, line: &str) -> io::Result<()> {
        self.lines.push(line.to_owned());
        Ok(())
    }
}

/// Appends a JSON string literal (quoted, escaped) to `buf`.
pub(crate) fn push_json_str(buf: &mut String, s: &str) {
    buf.push('"');
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(buf, "\\u{:04x}", c as u32);
            }
            c => buf.push(c),
        }
    }
    buf.push('"');
}

/// Appends a JSON number to `buf`; non-finite values become `null`.
fn push_json_f64(buf: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(buf, "{v}");
    } else {
        buf.push_str("null");
    }
}

/// Like [`push_json_f64`] but `None` also becomes `null`.
fn push_json_opt_f64(buf: &mut String, v: Option<f64>) {
    match v {
        Some(v) => push_json_f64(buf, v),
        None => buf.push_str("null"),
    }
}

fn run_start_line(run: &RunTrace) -> String {
    let i = &run.info;
    let mut s = String::from("{\"type\":\"run_start\",\"backend\":");
    push_json_str(&mut s, i.backend);
    let _ = write!(
        s,
        ",\"nodes\":{},\"free\":{},\"edges\":{},\"max_iterations\":{}",
        i.nodes, i.free, i.edges, i.max_iterations
    );
    s.push_str(",\"tolerance\":");
    push_json_f64(&mut s, i.tolerance);
    s.push_str(",\"damping\":");
    push_json_f64(&mut s, i.damping);
    s.push_str(",\"schedule\":");
    push_json_str(&mut s, i.schedule);
    let _ = write!(
        s,
        ",\"message_bytes\":{},\"seed\":{}}}",
        i.message_bytes, i.seed
    );
    s
}

fn event_line(event: &ObsEvent) -> String {
    let mut s = String::from("{\"type\":\"event\",\"event\":");
    match event {
        ObsEvent::GridUniformFallback { edge, stage } => {
            push_json_str(&mut s, "grid_uniform_fallback");
            let _ = write!(s, ",\"edge\":{edge},\"stage\":");
            push_json_str(&mut s, stage);
        }
        ObsEvent::MessageDropped { iteration, count } => {
            push_json_str(&mut s, "message_dropped");
            let _ = write!(s, ",\"iteration\":{iteration},\"count\":{count}");
        }
        ObsEvent::NodeDied { iteration, node } => {
            push_json_str(&mut s, "node_died");
            let _ = write!(s, ",\"iteration\":{iteration},\"node\":{node}");
        }
        ObsEvent::StaleMessageUsed { iteration, count } => {
            push_json_str(&mut s, "stale_message_used");
            let _ = write!(s, ",\"iteration\":{iteration},\"count\":{count}");
        }
        ObsEvent::EpochAdvanced { tenant, epoch } => {
            push_json_str(&mut s, "epoch_advanced");
            let _ = write!(s, ",\"tenant\":{tenant},\"epoch\":{epoch}");
        }
        ObsEvent::TenantShed { tenant, epoch } => {
            push_json_str(&mut s, "tenant_shed");
            let _ = write!(s, ",\"tenant\":{tenant},\"epoch\":{epoch}");
        }
        ObsEvent::Context { tenant, epoch } => {
            push_json_str(&mut s, "context");
            let opt = |s: &mut String, key: &str, v: &Option<u64>| {
                let _ = match v {
                    Some(v) => write!(s, ",\"{key}\":{v}"),
                    None => write!(s, ",\"{key}\":null"),
                };
            };
            opt(&mut s, "tenant", tenant);
            opt(&mut s, "epoch", epoch);
        }
        ObsEvent::BoundaryExchange {
            round,
            shard,
            messages,
        } => {
            push_json_str(&mut s, "boundary_exchange");
            let _ = write!(
                s,
                ",\"round\":{round},\"shard\":{shard},\"messages\":{messages}"
            );
        }
    }
    s.push('}');
    s
}

/// Serializes recorded runs to `sink` in the JSONL schema above, one run
/// after another, and flushes. Returns the number of lines written.
pub fn write_jsonl(runs: &[RunTrace], sink: &mut dyn TraceSink) -> io::Result<usize> {
    let mut lines = 0usize;
    for run in runs {
        sink.write_line(&run_start_line(run))?;
        lines += 1;
        for rec in &run.iterations {
            let mut s = String::from("{\"type\":\"iteration\"");
            let _ = write!(s, ",\"iter\":{},\"max_shift\":", rec.iteration);
            push_json_f64(&mut s, rec.max_shift);
            let _ = write!(
                s,
                ",\"messages\":{},\"bytes\":{}",
                rec.comm.messages, rec.comm.bytes
            );
            s.push_str(",\"damping\":");
            push_json_f64(&mut s, rec.damping);
            s.push_str(",\"schedule\":");
            push_json_str(&mut s, rec.schedule);
            s.push_str(",\"secs\":");
            push_json_f64(&mut s, rec.secs);
            s.push_str(",\"max_residual\":");
            push_json_opt_f64(&mut s, rec.max_residual());
            s.push_str(",\"mean_residual\":");
            push_json_opt_f64(&mut s, rec.mean_residual());
            s.push_str(",\"residuals\":[");
            for (k, r) in rec.residuals.iter().enumerate() {
                if k > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{{\"node\":{},\"residual\":", r.node);
                push_json_f64(&mut s, r.residual);
                s.push_str(",\"kl\":");
                push_json_opt_f64(&mut s, r.kl);
                s.push('}');
            }
            s.push_str("]}");
            sink.write_line(&s)?;
            lines += 1;
        }
        for &(span, secs) in &run.spans {
            let mut s = String::from("{\"type\":\"span\",\"span\":");
            push_json_str(&mut s, span.label());
            s.push_str(",\"secs\":");
            push_json_f64(&mut s, secs);
            s.push('}');
            sink.write_line(&s)?;
            lines += 1;
        }
        for event in &run.events {
            sink.write_line(&event_line(event))?;
            lines += 1;
        }
        if let Some(sum) = run.summary {
            let mut s = String::from("{\"type\":\"run_end\"");
            let _ = write!(
                s,
                ",\"iterations\":{},\"converged\":{},\"messages\":{},\"bytes\":{}}}",
                sum.iterations, sum.converged, sum.comm.messages, sum.comm.bytes
            );
            sink.write_line(&s)?;
            lines += 1;
        }
    }
    sink.flush()?;
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::{IterationRecord, NodeResidual, RunInfo, RunSummary, SpanKind};
    use wsnloc_net::accounting::CommStats;

    fn sample_run() -> RunTrace {
        RunTrace {
            info: RunInfo {
                backend: "grid",
                nodes: 9,
                free: 6,
                edges: 10,
                max_iterations: 4,
                tolerance: 0.5,
                damping: 0.25,
                schedule: "sweep",
                message_bytes: 40,
                seed: 42,
            },
            iterations: vec![IterationRecord {
                iteration: 0,
                max_shift: 2.5,
                comm: CommStats {
                    messages: 6,
                    bytes: 240,
                },
                damping: 0.25,
                schedule: "sweep",
                secs: 0.001,
                residuals: vec![NodeResidual {
                    node: 3,
                    residual: 0.75,
                    kl: Some(0.05),
                }],
            }],
            spans: vec![(SpanKind::MessagePassing, 0.002)],
            events: vec![ObsEvent::MessageDropped {
                iteration: 0,
                count: 2,
            }],
            summary: Some(RunSummary {
                iterations: 1,
                converged: false,
                comm: CommStats {
                    messages: 6,
                    bytes: 240,
                },
            }),
        }
    }

    #[test]
    fn writes_one_line_per_record() {
        let mut sink = VecSink::new();
        let n = write_jsonl(&[sample_run()], &mut sink).unwrap();
        // run_start + 1 iteration + 1 span + 1 event + run_end
        assert_eq!(n, 5);
        assert_eq!(sink.lines.len(), 5);
        assert!(sink.lines[0].starts_with("{\"type\":\"run_start\""));
        assert!(sink.lines[0].contains("\"backend\":\"grid\""));
        assert!(sink.lines[0].contains("\"schedule\":\"sweep\""));
        assert!(sink.lines[1].contains("\"max_residual\":0.75"));
        assert!(sink.lines[1].contains("\"kl\":0.05"));
        assert!(sink.lines[2].contains("\"span\":\"message_passing\""));
        assert!(sink.lines[4].contains("\"converged\":false"));
    }

    #[test]
    fn serializes_fallback_events() {
        let mut run = sample_run();
        run.events = vec![ObsEvent::GridUniformFallback {
            edge: 7,
            stage: "kernel",
        }];
        let mut sink = VecSink::new();
        write_jsonl(&[run], &mut sink).unwrap();
        assert!(sink
            .lines
            .iter()
            .any(|l| l.contains("\"event\":\"grid_uniform_fallback\"")
                && l.contains("\"edge\":7")
                && l.contains("\"stage\":\"kernel\"")));
    }

    #[test]
    fn escapes_strings() {
        let mut s = String::new();
        push_json_str(&mut s, "say \"hi\"\n\\\u{1}");
        assert_eq!(s, "\"say \\\"hi\\\"\\n\\\\\\u0001\"");
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut run = sample_run();
        run.iterations[0].max_shift = f64::NAN;
        run.iterations[0].residuals[0].residual = f64::INFINITY;
        let mut sink = VecSink::new();
        write_jsonl(&[run], &mut sink).unwrap();
        assert!(sink.lines[1].contains("\"max_shift\":null"));
        assert!(sink.lines[1].contains("\"residual\":null"));
        // Every line must still parse as balanced-brace JSON-ish output.
        for line in &sink.lines {
            assert_eq!(
                line.matches('{').count(),
                line.matches('}').count(),
                "unbalanced braces in {line}"
            );
        }
    }

    #[test]
    fn jsonl_sink_writes_newlines() {
        let mut buf = Vec::new();
        {
            let mut sink = JsonlSink::new(&mut buf);
            sink.write_line("{\"a\":1}").unwrap();
            sink.write_line("{\"b\":2}").unwrap();
            sink.finish().unwrap();
        }
        assert_eq!(String::from_utf8(buf).unwrap(), "{\"a\":1}\n{\"b\":2}\n");
    }

    #[test]
    fn drop_flushes_buffered_lines() {
        use std::sync::{Arc, Mutex};

        /// A writer that buffers internally and only publishes on flush,
        /// mimicking `BufWriter<File>`.
        struct FlushVisible {
            pending: Vec<u8>,
            published: Arc<Mutex<Vec<u8>>>,
        }
        impl Write for FlushVisible {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.pending.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                if let Ok(mut published) = self.published.lock() {
                    published.extend_from_slice(&self.pending);
                }
                self.pending.clear();
                Ok(())
            }
        }

        let published = Arc::new(Mutex::new(Vec::new()));
        {
            let mut sink = JsonlSink::new(FlushVisible {
                pending: Vec::new(),
                published: Arc::clone(&published),
            });
            sink.write_line("{\"a\":1}").unwrap();
            // No explicit flush/finish: the drop must publish the line.
        }
        let seen = published.lock().unwrap().clone();
        assert_eq!(String::from_utf8(seen).unwrap(), "{\"a\":1}\n");
    }

    #[test]
    fn empty_trace_writes_nothing() {
        let mut sink = VecSink::new();
        let n = write_jsonl(&[], &mut sink).unwrap();
        assert_eq!(n, 0);
        assert!(sink.lines.is_empty());
    }
}
