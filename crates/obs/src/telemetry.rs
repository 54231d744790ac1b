//! In-process scrape endpoint: [`TelemetryHub`] + [`TelemetryServer`].
//!
//! Long-running engines need to answer "is it alive, and how fast is it
//! going" *while* they run, without a metrics dependency the build
//! environment does not have. This module hand-rolls the smallest
//! useful HTTP/1.1 surface over [`std::net::TcpListener`]:
//!
//! | route      | content                                             |
//! |------------|-----------------------------------------------------|
//! | `/metrics` | OpenMetrics text: the hub store's lifetime and windowed families, one `# EOF` |
//! | `/healthz` | JSON liveness: `ok`, tick count, seconds since the last tick |
//! | `/tenants` | JSON rollup the engine publishes per tick           |
//!
//! The server is deliberately primitive: blocking accept loop on one
//! thread, one request per connection, GET only. That is exactly enough
//! for `curl`, Prometheus-style scrapers, and `repro top`, and it keeps
//! the implementation auditable. Each connection gets one deadline for
//! its whole request head, so a client that trickles bytes is dropped
//! instead of holding the only server thread. Shutdown is cooperative: a
//! flag flips, then a loopback connection unblocks `accept` so the
//! thread can exit and be joined — no socket leaks, no detached threads
//! at drop.
//!
//! The [`TelemetryHub`] is the engine-facing half: a cheaply clonable
//! bundle of one [`WindowedMetrics`] store, liveness, and the `/tenants`
//! document. The engine folds its solves into the store, closes each
//! tick with [`TelemetryHub::note_tick`] and publishes the rollup with
//! [`TelemetryHub::set_tenants_json`]; the server reads. Engines own a
//! hub whether or not a server is attached, so instrumentation cost does
//! not depend on whether anyone is scraping.

#![expect(
    clippy::disallowed_types,
    reason = "audited atomic: the set-once shutdown flag is SeqCst, checked once per accepted \
              connection, and the self-connect in `shutdown` guarantees the loop observes it"
)]

use crate::metrics::Fact;
use crate::profiler::Stopwatch;
use crate::window::WindowedMetrics;
use std::io::{Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Time a client gets to send its whole request head, and the bound on
/// one connection's time in the server thread.
const HEAD_DEADLINE_SECS: f64 = 2.0;

/// Largest request head served, its blank-line terminator included;
/// a longer one gets `431 Request Header Fields Too Large`.
const MAX_HEAD_BYTES: usize = 16 * 1024;

#[derive(Debug, Default)]
struct HubState {
    /// Stopwatch restarted at every tick; `None` before the first.
    last_tick: Option<Stopwatch>,
    /// Engine-published JSON rollup served verbatim at `/tenants`.
    tenants_json: String,
    /// The next tenant id [`TelemetryHub::next_tenant_id`] hands out.
    next_tenant: u64,
}

/// Shared telemetry state: the bridge between a live engine (writer)
/// and a [`TelemetryServer`] (reader). Clone freely — all fields are
/// `Arc`s.
#[derive(Debug, Clone)]
pub struct TelemetryHub {
    window: Arc<WindowedMetrics>,
    state: Arc<Mutex<HubState>>,
}

impl TelemetryHub {
    /// A hub over a fresh store whose window holds `slots` ticks.
    #[must_use]
    pub fn new(slots: usize) -> Self {
        TelemetryHub {
            window: Arc::new(WindowedMetrics::new(slots)),
            state: Arc::new(Mutex::new(HubState::default())),
        }
    }

    fn locked(&self) -> MutexGuard<'_, HubState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The store this hub exports.
    #[must_use]
    pub fn window(&self) -> &Arc<WindowedMetrics> {
        &self.window
    }

    /// Closes one scheduler tick: records its wall `secs` and each
    /// tenant's `(id, queued epochs)`, counts the tick, restarts the
    /// `/healthz` last-tick clock, then rotates the window so the next
    /// tick writes a fresh slot.
    pub fn note_tick(&self, secs: f64, queue_depths: impl IntoIterator<Item = (u64, usize)>) {
        self.window.observe(Fact::TickSeconds, 0, secs);
        for (tenant, depth) in queue_depths {
            self.window.set(Fact::QueueDepth, tenant, depth as f64);
        }
        self.window.add(Fact::Ticks, 0, 1);
        self.locked().last_tick = Some(Stopwatch::start());
        self.window.advance();
    }

    /// Ticks noted so far.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.window.total(Fact::Ticks)
    }

    /// Seconds since the last [`TelemetryHub::note_tick`], or `None`
    /// before the first tick.
    #[must_use]
    pub fn last_tick_age_secs(&self) -> Option<f64> {
        self.locked()
            .last_tick
            .as_ref()
            .map(Stopwatch::elapsed_secs)
    }

    /// A tenant id no engine on this hub has used: ids count up from 0
    /// across every engine publishing here, so the tenant-labelled
    /// series of two engines never mix.
    pub fn next_tenant_id(&self) -> u64 {
        let mut st = self.locked();
        let id = st.next_tenant;
        st.next_tenant += 1;
        id
    }

    /// Publishes the JSON document `/tenants` serves. The engine owns
    /// the shape; the hub stores the string verbatim.
    pub fn set_tenants_json(&self, json: String) {
        self.locked().tenants_json = json;
    }

    /// Body for `/metrics`: the store's OpenMetrics exposition.
    #[must_use]
    pub fn render_metrics(&self) -> String {
        self.window.render_openmetrics()
    }

    /// Body for `/healthz`: a small JSON liveness document. `ok` is
    /// true once the engine has ticked at least once.
    #[must_use]
    pub fn render_healthz(&self) -> String {
        let ticks = self.ticks();
        let age = self
            .last_tick_age_secs()
            .map_or_else(|| "null".to_owned(), |a| a.to_string());
        format!(
            "{{\"ok\":{},\"ticks\":{ticks},\"last_tick_age_secs\":{age}}}",
            ticks > 0
        )
    }

    /// Body for `/tenants` (empty object before the first publish).
    #[must_use]
    pub fn render_tenants(&self) -> String {
        let st = self.locked();
        if st.tenants_json.is_empty() {
            "{}".to_owned()
        } else {
            st.tenants_json.clone()
        }
    }
}

/// The blocking scrape server (see module docs for routes). Bind with
/// [`TelemetryServer::start`]; port 0 picks a free port, reported by
/// [`TelemetryServer::local_addr`]. Stops (and joins its thread) on
/// [`TelemetryServer::shutdown`] or drop.
#[derive(Debug)]
pub struct TelemetryServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl TelemetryServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and serves `hub` from a
    /// background accept loop until shutdown.
    pub fn start(addr: &str, hub: TelemetryHub) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("wsnloc-telemetry".to_owned())
            .spawn(move || accept_loop(&listener, &hub, &stop_flag))?;
        Ok(TelemetryServer {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (with the real port when bound to port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread. Idempotent.
    pub fn shutdown(&mut self) {
        if self.handle.is_none() {
            return;
        }
        self.stop.store(true, Ordering::SeqCst);
        // Unblock `accept` with a throwaway loopback connection; if that
        // fails the listener is already gone and the thread exits alone.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, hub: &TelemetryHub, stop: &AtomicBool) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
        let _ = serve_one(stream, hub);
    }
}

/// Reads one request head, writes [`respond`]'s answer, then
/// half-closes and drains the client's remaining input. The whole
/// connection must finish within [`HEAD_DEADLINE_SECS`]; a per-read
/// timeout alone would let a client sending a byte at a time hold the
/// only server thread indefinitely. On expiry before the head is read
/// the connection is dropped unanswered.
///
/// Reading stops at [`MAX_HEAD_BYTES`]. Closing a socket with request
/// bytes still unread makes the kernel send a reset, which can discard
/// the response in flight, so the unread rest is drained (until EOF or
/// the deadline) after the response is written.
fn serve_one(mut stream: TcpStream, hub: &TelemetryHub) -> std::io::Result<()> {
    let deadline = Stopwatch::start();
    let remaining = || {
        let left = HEAD_DEADLINE_SECS - deadline.elapsed_secs();
        (left > 0.0).then(|| Duration::from_secs_f64(left))
    };
    let mut buf = [0u8; 2048];
    let mut head = Vec::new();
    while !head.windows(4).any(|w| w == b"\r\n\r\n") && head.len() < MAX_HEAD_BYTES {
        let left = remaining().ok_or(std::io::ErrorKind::TimedOut)?;
        stream.set_read_timeout(Some(left))?;
        let want = buf.len().min(MAX_HEAD_BYTES - head.len());
        let n = stream.read(&mut buf[..want])?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
    }
    stream.write_all(respond(&head, hub).as_bytes())?;
    stream.flush()?;
    stream.shutdown(Shutdown::Write)?;
    while let Some(left) = remaining() {
        stream.set_read_timeout(Some(left))?;
        if stream.read(&mut buf)? == 0 {
            break;
        }
    }
    Ok(())
}

/// The complete HTTP response to a request whose head starts `head`.
/// A head that does not end (`\r\n\r\n`) within [`MAX_HEAD_BYTES`]
/// gets `431`; otherwise the first two whitespace-separated words are
/// the method and the path. A head cut short by EOF is routed as sent.
fn respond(head: &[u8], hub: &TelemetryHub) -> String {
    let scanned = &head[..head.len().min(MAX_HEAD_BYTES)];
    let end = scanned
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|at| at + 4);
    let oversized = end.is_none() && head.len() >= MAX_HEAD_BYTES;
    let request = String::from_utf8_lossy(&scanned[..end.unwrap_or(scanned.len())]);
    let mut words = request.split_whitespace();
    let route = (words.next().unwrap_or(""), words.next().unwrap_or(""));
    let text = "text/plain; charset=utf-8";
    let (status, content_type, body) = match route {
        _ if oversized => (
            "431 Request Header Fields Too Large",
            text,
            format!("request head exceeds {MAX_HEAD_BYTES} bytes\n"),
        ),
        ("GET", "/metrics") => (
            "200 OK",
            // The OpenMetrics media type; plain enough for curl too.
            "application/openmetrics-text; version=1.0.0; charset=utf-8",
            hub.render_metrics(),
        ),
        ("GET", "/healthz") => ("200 OK", "application/json", hub.render_healthz()),
        ("GET", "/tenants") => ("200 OK", "application/json", hub.render_tenants()),
        ("GET", _) => (
            "404 Not Found",
            text,
            "routes: /metrics /healthz /tenants\n".to_owned(),
        ),
        _ => (
            "405 Method Not Allowed",
            text,
            "only GET is supported\n".to_owned(),
        ),
    };
    format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::{InferenceObserver, ObsEvent};

    fn hub() -> TelemetryHub {
        let hub = TelemetryHub::new(4);
        for epoch in 0..2 {
            hub.window()
                .on_event(&ObsEvent::EpochAdvanced { tenant: 1, epoch });
        }
        hub
    }

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let req = format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n");
        stream.write_all(req.as_bytes()).expect("write request");
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("read response");
        out
    }

    #[test]
    fn metrics_route_serves_registry_and_window_with_single_eof() {
        let mut server = TelemetryServer::start("127.0.0.1:0", hub()).expect("bind");
        let resp = get(server.local_addr(), "/metrics");
        assert!(resp.starts_with("HTTP/1.1 200 OK"));
        assert!(resp.contains("application/openmetrics-text"));
        assert!(resp.contains("wsnloc_serve_epochs_solved_total 2"));
        assert!(resp.contains("wsnloc_window_epochs_solved{tenant=\"1\"} 2"));
        assert_eq!(resp.matches("# EOF").count(), 1);
        assert!(resp.trim_end().ends_with("# EOF"));
        server.shutdown();
    }

    #[test]
    fn healthz_reports_tick_count_and_age() {
        let h = hub();
        let mut server = TelemetryServer::start("127.0.0.1:0", h.clone()).expect("bind");
        let before = get(server.local_addr(), "/healthz");
        assert!(before.contains("\"ok\":false"));
        assert!(before.contains("\"last_tick_age_secs\":null"));
        h.note_tick(0.01, [(1, 3)]);
        let after = get(server.local_addr(), "/healthz");
        assert!(after.contains("\"ok\":true"));
        assert!(after.contains("\"ticks\":1"));
        assert!(after.contains("\"last_tick_age_secs\":"));
        // The tick landed in the store: count, latency and queue depth.
        let metrics = h.render_metrics();
        assert!(metrics.contains("wsnloc_serve_ticks_total 1\n"));
        assert!(metrics.contains("wsnloc_window_tick_seconds_count 1\n"));
        assert!(metrics.contains("wsnloc_window_queue_depth{tenant=\"1\"} 3\n"));
        server.shutdown();
    }

    #[test]
    fn a_trickling_client_cannot_stall_other_scrapes() {
        let mut server = TelemetryServer::start("127.0.0.1:0", hub()).expect("bind");
        let addr = server.local_addr();
        // Connected first, so the accept loop takes it first: a client
        // sending one byte every 300 ms for 6 s, never ending its head.
        let mut slow = TcpStream::connect(addr).expect("connect slow client");
        slow.write_all(b"G").expect("first byte");
        let trickle = std::thread::spawn(move || {
            for _ in 0..20 {
                std::thread::sleep(Duration::from_millis(300));
                if slow.write_all(b"E").is_err() {
                    break;
                }
            }
        });
        let watch = Stopwatch::start();
        let mut fast = TcpStream::connect(addr).expect("connect scrape client");
        fast.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("set timeout");
        fast.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .expect("send request");
        let mut resp = String::new();
        let _ = fast.read_to_string(&mut resp);
        let waited = watch.elapsed_secs();
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "got {resp:?}");
        assert!(
            waited < 4.0,
            "scrape waited {waited:.2}s behind a slow client"
        );
        trickle.join().expect("trickle thread");
        server.shutdown();
    }

    /// Whether `resp` is an `HTTP/1.1` response whose `Content-Length`
    /// equals its body's byte length.
    fn well_framed(resp: &str) -> bool {
        let Some((headers, body)) = resp.split_once("\r\n\r\n") else {
            return false;
        };
        let length = headers
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .and_then(|n| n.parse::<usize>().ok());
        resp.starts_with("HTTP/1.1 ") && length == Some(body.len())
    }

    /// One mutation of a well-formed request head: byte flips, a
    /// truncation, invalid UTF-8 spliced in, or a 1 MiB request line.
    fn mutate(rng: &mut wsnloc_geom::rng::Xoshiro256pp) -> Vec<u8> {
        let path = ["/metrics", "/healthz", "/tenants", "/"][rng.index(4)];
        let mut head =
            format!("GET {path} HTTP/1.1\r\nHost: t\r\nAccept: */*\r\n\r\n").into_bytes();
        match rng.index(4) {
            0 => {
                for _ in 0..=rng.index(6) {
                    let at = rng.index(head.len());
                    head[at] = rng.next_u64() as u8;
                }
            }
            1 => head.truncate(rng.index(head.len())),
            2 => {
                let at = rng.index(head.len());
                let junk: &[u8] =
                    [&b"\xff\xfe"[..], b"\xc3", b"\x80\x80", b"\xed\xa0\x80"][rng.index(4)];
                head.splice(at..at, junk.iter().copied());
            }
            _ => head = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(1 << 20)).into_bytes(),
        }
        head
    }

    #[test]
    fn mutated_heads_get_well_framed_responses() {
        let h = hub();
        let mut statuses = std::collections::BTreeSet::new();
        wsnloc_geom::check::cases(1000, |case, rng| {
            let head = mutate(rng);
            let resp = respond(&head, &h);
            assert!(
                well_framed(&resp),
                "case {case}: {:?}",
                resp.chars().take(200).collect::<String>()
            );
            statuses.insert(resp[9..12].to_owned());
        });
        // The mutations reach every branch of the routing.
        let want = ["200", "404", "405", "431"];
        assert!(want.iter().all(|s| statuses.contains(*s)), "{statuses:?}");
    }

    #[test]
    fn the_head_limit_counts_the_terminator() {
        let h = hub();
        let head_of = |len: usize| {
            let pad = len - "GET /healthz HTTP/1.1\r\nX: \r\n\r\n".len();
            format!("GET /healthz HTTP/1.1\r\nX: {}\r\n\r\n", "a".repeat(pad)).into_bytes()
        };
        assert!(respond(&head_of(MAX_HEAD_BYTES), &h).starts_with("HTTP/1.1 200 OK"));
        assert!(respond(&head_of(MAX_HEAD_BYTES + 1), &h).starts_with("HTTP/1.1 431 "));
        // A capped read with no terminator is oversized; a shorter one
        // ended by EOF is routed as sent.
        let cut = &head_of(MAX_HEAD_BYTES + 10)[..MAX_HEAD_BYTES];
        assert!(respond(cut, &h).starts_with("HTTP/1.1 431 "));
        assert!(respond(b"GET /healthz", &h).starts_with("HTTP/1.1 200 OK"));
    }

    #[test]
    fn an_oversized_head_gets_a_complete_431_without_a_reset() {
        let mut server = TelemetryServer::start("127.0.0.1:0", hub()).expect("bind");
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("set timeout");
        let head = format!(
            "GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "a".repeat(20 * 1024)
        );
        stream.write_all(head.as_bytes()).expect("send the head");
        let mut resp = String::new();
        stream
            .read_to_string(&mut resp)
            .expect("the whole response, then EOF, with no reset");
        assert!(
            resp.starts_with("HTTP/1.1 431 Request Header Fields Too Large\r\n"),
            "got {resp:?}"
        );
        assert!(well_framed(&resp), "got {resp:?}");
        drop(stream);
        let next = get(server.local_addr(), "/healthz");
        assert!(next.starts_with("HTTP/1.1 200 OK"), "got {next:?}");
        server.shutdown();
    }

    #[test]
    fn tenants_route_serves_published_json_and_404s_elsewhere() {
        let h = hub();
        h.set_tenants_json("{\"tenants\":[{\"id\":1}]}".to_owned());
        let mut server = TelemetryServer::start("127.0.0.1:0", h).expect("bind");
        let tenants = get(server.local_addr(), "/tenants");
        assert!(tenants.contains("{\"tenants\":[{\"id\":1}]}"));
        let missing = get(server.local_addr(), "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"));
        server.shutdown();
        // Idempotent shutdown and clean drop.
        server.shutdown();
    }
}
