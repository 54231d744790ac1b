//! Client side of the live telemetry tier: a tiny HTTP GET client, an
//! OpenMetrics text parser, and the `repro top` dashboard renderer.
//!
//! `repro top ADDR` polls a [`TelemetryServer`](wsnloc_obs::TelemetryServer)
//! (`/metrics`, `/healthz`, `/tenants`) and renders a terminal rollup:
//! engine liveness, windowed tick-latency quantiles, a per-tenant table
//! (windowed solved/shed rates, queue depth, lifetime totals), and
//! per-shard boundary-message volume. Everything here returns strings —
//! the binary decides how to print them.

use std::collections::BTreeMap;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::time::Duration;
use wsnloc_obs::{parse_json, JsonValue};

/// One parsed OpenMetrics sample: family name, sorted labels, value.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// Metric (sample) name, e.g. `wsnloc_window_epochs_solved`.
    pub name: String,
    /// Label pairs in source order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

impl MetricSample {
    /// The value of label `key`, if present.
    #[must_use]
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Issues one `GET path` against `addr` (`host:port`) and returns the
/// response body (headers stripped). Errors on connect failure or a
/// non-200 status line.
pub fn http_get(addr: &str, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let req = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(req.as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let Some((head, body)) = response.split_once("\r\n\r\n") else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "malformed HTTP response (no header terminator)",
        ));
    };
    let status = head.lines().next().unwrap_or("");
    if !status.contains(" 200 ") {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("{path}: {status}"),
        ));
    }
    Ok(body.to_owned())
}

/// Parses OpenMetrics exposition text into samples. Comment lines
/// (`# TYPE`/`# HELP`/`# UNIT`/`# EOF`) are skipped; label values are
/// unescaped (`\\`, `\"`, `\n`). Unparseable lines are ignored —
/// scrape clients must tolerate families they don't know.
#[must_use]
pub fn parse_openmetrics(text: &str) -> Vec<MetricSample> {
    let mut out = Vec::new();
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(sample) = parse_sample_line(line) {
            out.push(sample);
        }
    }
    out
}

fn parse_sample_line(line: &str) -> Option<MetricSample> {
    // name{labels} value  |  name value
    let (name_part, rest) = match line.find('{') {
        Some(open) => {
            let close = find_label_close(line, open)?;
            (
                &line[..open],
                Some((&line[open + 1..close], &line[close + 1..])),
            )
        }
        None => {
            let sp = line.find(' ')?;
            (&line[..sp], None)
        }
    };
    let (labels, value_part) = match rest {
        Some((label_body, after)) => (parse_labels(label_body)?, after),
        None => (Vec::new(), &line[name_part.len()..]),
    };
    let value: f64 = value_part.split_whitespace().next()?.parse().ok()?;
    Some(MetricSample {
        name: name_part.to_owned(),
        labels,
        value,
    })
}

/// Index of the `}` closing the label block opened at `open`, honoring
/// quoted (and escaped) label values.
fn find_label_close(line: &str, open: usize) -> Option<usize> {
    let bytes = line.as_bytes();
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, &b) in bytes.iter().enumerate().skip(open + 1) {
        if escaped {
            escaped = false;
            continue;
        }
        match b {
            b'\\' if in_quotes => escaped = true,
            b'"' => in_quotes = !in_quotes,
            b'}' if !in_quotes => return Some(i),
            _ => {}
        }
    }
    None
}

fn parse_labels(body: &str) -> Option<Vec<(String, String)>> {
    let mut labels = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let eq = rest.find('=')?;
        let key = rest[..eq].trim().to_owned();
        let after_eq = &rest[eq + 1..];
        if !after_eq.starts_with('"') {
            return None;
        }
        let mut value = String::new();
        let mut chars = after_eq[1..].char_indices();
        let mut end = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, other)) => value.push(other),
                    None => return None,
                },
                '"' => {
                    end = Some(i);
                    break;
                }
                other => value.push(other),
            }
        }
        let end = end?;
        labels.push((key, value));
        rest = after_eq[1 + end + 1..].trim_start_matches(',');
    }
    Some(labels)
}

/// Scalar field `key` of a parsed telemetry document, as the dashboard
/// prints it; `None` when the field is missing or not a scalar.
fn scalar(doc: &JsonValue, key: &str) -> Option<String> {
    Some(match doc.get(key)? {
        JsonValue::Null => "null".to_owned(),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::Int(v) => v.to_string(),
        JsonValue::Num(v) => v.to_string(),
        JsonValue::Str(s) => s.clone(),
        JsonValue::Arr(_) | JsonValue::Obj(_) => return None,
    })
}

/// Per-tenant row accumulated from windowed series and the rollup.
#[derive(Debug, Default, Clone)]
struct TenantRow {
    window_solved: f64,
    window_shed: f64,
    queue_depth: f64,
    lifetime_solved: Option<String>,
    lifetime_shed: Option<String>,
    pending: Option<String>,
}

/// Renders the `repro top` dashboard from the three endpoint bodies.
/// Pure text-in/text-out so it is testable without sockets.
#[must_use]
pub fn render_top(metrics_body: &str, healthz_body: &str, tenants_body: &str) -> String {
    use std::fmt::Write as _;
    let samples = parse_openmetrics(metrics_body);
    let find = |name: &str| -> Option<f64> {
        samples
            .iter()
            .find(|s| s.name == name && s.labels.is_empty())
            .map(|s| s.value)
    };
    let quantile = |q: &str| -> Option<f64> {
        samples
            .iter()
            .find(|s| s.name == "wsnloc_window_tick_seconds" && s.label("quantile") == Some(q))
            .map(|s| s.value)
    };

    let mut out = String::new();
    let healthz = parse_json(healthz_body).ok();
    let health = |key| {
        let value = healthz.as_ref().and_then(|doc| scalar(doc, key));
        value.unwrap_or_else(|| "?".into())
    };
    let (ticks, age, ok) = (health("ticks"), health("last_tick_age_secs"), health("ok"));
    let _ = writeln!(out, "wsnloc live telemetry");
    let _ = writeln!(
        out,
        "  health: ok={ok}  ticks={ticks}  last_tick_age_s={age}"
    );
    let _ = writeln!(
        out,
        "  lifetime: solved={}  shed={}  bp_runs(win)={}",
        find("wsnloc_serve_epochs_solved_total").map_or_else(|| "?".into(), |v| format!("{v}")),
        find("wsnloc_serve_epochs_shed_total").map_or_else(|| "?".into(), |v| format!("{v}")),
        find("wsnloc_window_bp_runs").map_or_else(|| "?".into(), |v| format!("{v}")),
    );
    match (quantile("0.5"), quantile("0.9"), quantile("0.99")) {
        (Some(p50), Some(p90), Some(p99)) => {
            let _ = writeln!(
                out,
                "  tick latency (window): p50={p50:.4}s  p90={p90:.4}s  p99={p99:.4}s"
            );
        }
        _ => {
            let _ = writeln!(out, "  tick latency (window): no samples yet");
        }
    }

    // Per-tenant table: windowed series keyed by the tenant label,
    // merged with the lifetime rollup from /tenants.
    let mut tenants: BTreeMap<u64, TenantRow> = BTreeMap::new();
    for s in &samples {
        let Some(tenant) = s.label("tenant").and_then(|t| t.parse::<u64>().ok()) else {
            continue;
        };
        let row = tenants.entry(tenant).or_default();
        match s.name.as_str() {
            "wsnloc_window_epochs_solved" => row.window_solved = s.value,
            "wsnloc_window_epochs_shed" => row.window_shed = s.value,
            "wsnloc_window_queue_depth" => row.queue_depth = s.value,
            _ => {}
        }
    }
    // `/tenants` is {"tenants":[{"id":N,...},...],...}.
    let rollup = parse_json(tenants_body).ok();
    let entries = rollup
        .as_ref()
        .and_then(|doc| doc.get("tenants"))
        .and_then(JsonValue::as_arr)
        .unwrap_or_default();
    for entry in entries {
        let Some(id) = entry.get("id").and_then(JsonValue::as_u64) else {
            continue;
        };
        let row = tenants.entry(id).or_default();
        row.lifetime_solved = scalar(entry, "solved");
        row.lifetime_shed = scalar(entry, "shed");
        row.pending = scalar(entry, "pending");
    }
    if tenants.is_empty() {
        let _ = writeln!(out, "  tenants: none yet");
    } else {
        let _ = writeln!(
            out,
            "  {:<10} {:>10} {:>10} {:>7} {:>9} {:>9} {:>8}",
            "tenant", "win_solved", "win_shed", "queue", "solved", "shed", "pending"
        );
        for (id, row) in &tenants {
            let _ = writeln!(
                out,
                "  {:<10} {:>10} {:>10} {:>7} {:>9} {:>9} {:>8}",
                format!("tenant-{id}"),
                row.window_solved,
                row.window_shed,
                row.queue_depth,
                row.lifetime_solved.as_deref().unwrap_or("?"),
                row.lifetime_shed.as_deref().unwrap_or("?"),
                row.pending.as_deref().unwrap_or("?"),
            );
        }
    }

    // Per-shard boundary traffic, when any tenant runs sharded BP.
    let mut shards: BTreeMap<u64, f64> = BTreeMap::new();
    for s in &samples {
        if s.name == "wsnloc_window_boundary_messages" {
            if let Some(shard) = s.label("shard").and_then(|v| v.parse::<u64>().ok()) {
                *shards.entry(shard).or_insert(0.0) += s.value;
            }
        }
    }
    if !shards.is_empty() {
        let _ = writeln!(out, "  {:<10} {:>18}", "shard", "boundary_msgs(win)");
        for (shard, msgs) in &shards {
            let _ = writeln!(out, "  {:<10} {:>18}", format!("shard-{shard}"), msgs);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_labeled_and_bare_samples() {
        let text = "# TYPE wsnloc_window_epochs_solved gauge\n\
                    wsnloc_window_epochs_solved{tenant=\"3\"} 7\n\
                    wsnloc_serve_ticks_total 12\n\
                    # EOF\n";
        let samples = parse_openmetrics(text);
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].name, "wsnloc_window_epochs_solved");
        assert_eq!(samples[0].label("tenant"), Some("3"));
        assert!((samples[0].value - 7.0).abs() < 1e-12);
        assert!(samples[1].labels.is_empty());
        assert!((samples[1].value - 12.0).abs() < 1e-12);
    }

    #[test]
    fn unescapes_label_values_and_handles_braces_in_quotes() {
        let text = "m{k=\"a\\\\b\\\"c\\nd}e\"} 1\n";
        let samples = parse_openmetrics(text);
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].label("k"), Some("a\\b\"c\nd}e"));
    }

    #[test]
    fn multiple_labels_parse_in_order() {
        let text = "m{a=\"1\",quantile=\"0.99\"} 0.5\n";
        let samples = parse_openmetrics(text);
        assert_eq!(samples[0].labels.len(), 2);
        assert_eq!(samples[0].label("quantile"), Some("0.99"));
    }

    #[test]
    fn garbage_lines_are_skipped_not_fatal() {
        let text = "not a metric at all\nm 3\nm{unterminated=\"x 4\n";
        let samples = parse_openmetrics(text);
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].name, "m");
    }

    #[test]
    fn render_top_rolls_up_tenants_and_shards() {
        let metrics = "wsnloc_serve_epochs_solved_total 5\n\
                       wsnloc_serve_epochs_shed_total 1\n\
                       wsnloc_window_epochs_solved{tenant=\"0\"} 3\n\
                       wsnloc_window_epochs_solved{tenant=\"1\"} 2\n\
                       wsnloc_window_epochs_shed{tenant=\"1\"} 1\n\
                       wsnloc_window_queue_depth{tenant=\"0\"} 4\n\
                       wsnloc_window_boundary_messages{shard=\"2\"} 17\n\
                       wsnloc_window_tick_seconds{quantile=\"0.5\"} 0.01\n\
                       wsnloc_window_tick_seconds{quantile=\"0.9\"} 0.02\n\
                       wsnloc_window_tick_seconds{quantile=\"0.99\"} 0.03\n\
                       # EOF\n";
        let healthz = "{\"ok\":true,\"ticks\":9,\"last_tick_age_secs\":0.4}";
        let tenants = "{\"tenants\":[{\"id\":0,\"pending\":2,\"warm\":true,\"solved\":3,\"shed\":0,\"next_epoch\":3},{\"id\":1,\"pending\":0,\"warm\":true,\"solved\":2,\"shed\":1,\"next_epoch\":3}],\"ticks\":9}";
        let out = render_top(metrics, healthz, tenants);
        assert!(out.contains("ok=true"));
        assert!(out.contains("ticks=9"));
        assert!(out.contains("tenant-0"));
        assert!(out.contains("tenant-1"));
        assert!(out.contains("shard-2"));
        assert!(out.contains("p99=0.0300s"));
        assert!(out.contains("solved=5"));
    }

    #[test]
    fn render_top_survives_empty_bodies() {
        let out = render_top("# EOF\n", "{}", "{}");
        assert!(out.contains("tenants: none yet"));
        assert!(out.contains("no samples yet"));
    }
}
