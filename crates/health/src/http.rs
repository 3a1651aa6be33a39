//! A tiny dependency-free blocking HTTP status server — the operator
//! surface. Serves:
//!
//! * `GET /metrics` — the registry's Prometheus text exposition,
//! * `GET /health` — per-component health state as JSON,
//! * `GET /journey?sender=<raw-id>&seq=<n>` (or `?trace=<16-hex>`) —
//!   one event's hop-by-hop journey. On a telemetry observer the
//!   cross-cell stitched journey is preferred; otherwise the local
//!   trace sink replays it. Histogram exemplars matching the trace are
//!   appended either way,
//! * `GET /cells` — per-cell export freshness (last export sequence,
//!   virtual timestamp, lag) as JSON, when ward aggregation is enabled,
//! * `GET /supervision` — the supervisor's report plus the
//!   peer-supervision lease table as JSON,
//! * `GET /tails` (`?format=text` for the flame view) — the critical-path
//!   attribution table plus the tail-exemplar reservoir: a live profiler
//!   when one is wired in, otherwise a fold of the trace sink's current
//!   window,
//! * `GET /slo` (`?json` for machine form, `?at=<µs>` to pin the
//!   evaluation instant) — per-SLO windowed burn rates.
//!
//! One request per connection, `Connection: close` — deliberately
//! minimal, since the workspace is offline and vendors no HTTP stack.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use smc_telemetry::critical::json_string;
use smc_telemetry::{CriticalPath, Registry, SloTracker, TraceSink, WardRegistry};
use smc_types::{ServiceId, SharedClock, TraceId};

use crate::monitor::HealthReport;
use crate::peer::{peer_lease_json, PeerLease};
use crate::supervise::SupervisionReport;

/// What `/supervision` serves: the supervisor's latest report plus the
/// peer-supervision lease table, refreshed by whoever drives them.
#[derive(Debug, Clone, Default)]
pub struct SupervisionStatus {
    /// The in-process supervisor's report.
    pub report: SupervisionReport,
    /// The peer-supervision lease table.
    pub peers: Vec<PeerLease>,
}

/// What the server reads on each request. The health report is shared
/// state refreshed by whoever drives the
/// [`HealthMonitor`](crate::HealthMonitor); the registry and sink sample
/// themselves.
#[derive(Debug, Clone, Default)]
pub struct StatusSources {
    /// Metrics registry behind `/metrics`.
    pub registry: Registry,
    /// Trace sink behind `/journey` (404s when absent).
    pub sink: Option<Arc<TraceSink>>,
    /// Latest health report behind `/health`.
    pub health: Arc<parking_lot::Mutex<HealthReport>>,
    /// Supervision state behind `/supervision` (404s when absent).
    pub supervision: Option<Arc<parking_lot::Mutex<SupervisionStatus>>>,
    /// Ward-scale telemetry aggregation behind `/cells` and stitched
    /// `/journey` responses (404s when absent).
    pub ward: Option<Arc<WardRegistry>>,
    /// Clock `/cells` computes lag against; falls back to the newest
    /// export timestamp the ward has seen when absent.
    pub clock: Option<SharedClock>,
    /// A live critical-path profiler behind `/tails`. When absent the
    /// endpoint folds the trace sink's current window on demand; 404s
    /// when the sink is absent too.
    pub tails: Option<Arc<parking_lot::Mutex<CriticalPath>>>,
    /// SLO trackers behind `/slo` (404s when absent).
    pub slo: Option<Arc<parking_lot::Mutex<Vec<SloTracker>>>>,
}

/// The running server: a background accept loop that can be stopped.
#[derive(Debug)]
pub struct StatusServer {
    addr: SocketAddr,
    running: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl StatusServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts serving
    /// `sources` on a background thread.
    pub fn start(addr: &str, sources: StatusSources) -> std::io::Result<StatusServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let running = Arc::new(AtomicBool::new(true));
        let flag = Arc::clone(&running);
        let handle = std::thread::Builder::new()
            .name("smc-status".into())
            .spawn(move || {
                while flag.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let _ = serve_one(stream, &sources);
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        Err(_) => break,
                    }
                }
            })?;
        Ok(StatusServer {
            addr,
            running,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.running.store(false, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for StatusServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn serve_one(mut stream: TcpStream, sources: &StatusSources) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 16 * 1024 {
            break;
        }
    }
    let request = String::from_utf8_lossy(&buf);
    let target = request
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("/");
    let (status, content_type, body) = route(target, sources);
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())
}

fn route(target: &str, sources: &StatusSources) -> (&'static str, &'static str, String) {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4",
            sources.registry.render_text(),
        ),
        "/health" => {
            let report = sources.health.lock().clone();
            ("200 OK", "application/json", report.to_json())
        }
        "/journey" => journey_route(query, sources),
        "/cells" => match &sources.ward {
            None => json_error("404 Not Found", "telemetry aggregation is not enabled"),
            Some(ward) => {
                let now = sources
                    .clock
                    .as_ref()
                    .map(|c| c.now_micros())
                    .unwrap_or_else(|| ward.latest_export_micros());
                let cells: Vec<String> = ward
                    .freshness(now)
                    .into_iter()
                    .map(|f| {
                        format!(
                            "{{\"cell\": {}, \"last_export_seq\": {}, \
                             \"last_delta_at_micros\": {}, \"lag_micros\": {}}}",
                            f.cell, f.last_export_seq, f.last_delta_at_micros, f.lag_micros
                        )
                    })
                    .collect();
                (
                    "200 OK",
                    "application/json",
                    format!(
                        "{{\"at_micros\": {now}, \"cells\": [{}]}}\n",
                        cells.join(", ")
                    ),
                )
            }
        },
        "/supervision" => match &sources.supervision {
            None => json_error("404 Not Found", "supervision is not enabled"),
            Some(status) => {
                let status = status.lock().clone();
                (
                    "200 OK",
                    "application/json",
                    format!(
                        "{{\"report\": {}, \"peers\": {}}}\n",
                        status.report.to_json(),
                        peer_lease_json(&status.peers),
                    ),
                )
            }
        },
        "/tails" => tails_route(query, sources),
        "/slo" => slo_route(query, sources),
        "/" => (
            "200 OK",
            "text/plain",
            "smc status server: /metrics /health /supervision /cells \
             /tails /slo /journey?sender=..&seq=..\n"
                .to_owned(),
        ),
        _ => ("404 Not Found", "text/plain", "not found\n".to_owned()),
    }
}

/// `/journey`: stitched cross-cell journey when a ward view has one,
/// the local trace sink's replay otherwise, with matching histogram
/// exemplars appended.
fn journey_route(query: &str, sources: &StatusSources) -> (&'static str, &'static str, String) {
    if sources.sink.is_none() && sources.ward.is_none() {
        return json_error("404 Not Found", "tracing is not enabled");
    }
    let (trace, described) = match parse_trace_query(query) {
        Err(e) => return json_error("400 Bad Request", &e),
        Ok(t) => t,
    };
    let mut body = String::new();
    if let Some(ward) = &sources.ward {
        if let Some(stitched) = ward.stitched(trace) {
            body = stitched.to_string();
        }
    }
    if body.is_empty() {
        if let Some(sink) = &sources.sink {
            let journey = sink.journey(trace);
            if !journey.is_empty() {
                body = journey.to_string();
            }
        }
    }
    if body.is_empty() {
        return json_error(
            "404 Not Found",
            &format!(
                "no hops recorded for {described} \
                 (never traced, or the ring overwrote them)"
            ),
        );
    }
    for e in sources.registry.exemplars() {
        if e.trace == trace {
            body.push_str(&format!(
                "  exemplar {}{{le=\"{}\"}} = {}\n",
                e.metric, e.le, e.value
            ));
        }
    }
    ("200 OK", "text/plain", body)
}

/// `/tails`: the critical-path attribution table and tail-exemplar
/// reservoir. A live profiler source is preferred; otherwise the trace
/// sink's current window is folded on demand. JSON by default,
/// `?format=text` for the flame view.
fn tails_route(query: &str, sources: &StatusSources) -> (&'static str, &'static str, String) {
    let mut text = false;
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        if k == "format" {
            match v {
                "json" => text = false,
                "text" => text = true,
                other => {
                    return json_error(
                        "400 Bad Request",
                        &format!(
                            "query parameter 'format' must be 'json' or 'text', got '{other}'"
                        ),
                    )
                }
            }
        }
    }
    let render = |cp: &CriticalPath| {
        if text {
            ("200 OK", "text/plain", cp.render_text())
        } else {
            ("200 OK", "application/json", cp.render_json())
        }
    };
    if let Some(tails) = &sources.tails {
        return render(&tails.lock());
    }
    match &sources.sink {
        None => json_error("404 Not Found", "tail profiling is not enabled"),
        Some(sink) => {
            let mut cp = CriticalPath::new();
            cp.fold_window(&sink.records());
            render(&cp)
        }
    }
}

/// `/slo`: per-SLO windowed burn rates, text by default, `?json` for
/// the machine form. Burn is evaluated at `?at=<µs>` when given, else
/// at the configured clock's now, else at 0.
fn slo_route(query: &str, sources: &StatusSources) -> (&'static str, &'static str, String) {
    let trackers = match &sources.slo {
        None => return json_error("404 Not Found", "slo tracking is not enabled"),
        Some(t) => t,
    };
    let mut json = false;
    let mut at: Option<u64> = None;
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        match k {
            "json" => json = true,
            "at" => match v.parse() {
                Ok(micros) => at = Some(micros),
                Err(_) => {
                    return json_error(
                        "400 Bad Request",
                        &format!("query parameter 'at' must be a non-negative integer, got '{v}'"),
                    )
                }
            },
            _ => {}
        }
    }
    let now = at
        .or_else(|| sources.clock.as_ref().map(|c| c.now_micros()))
        .unwrap_or(0);
    let trackers = trackers.lock();
    if json {
        let slos: Vec<String> = trackers
            .iter()
            .map(|t| {
                let windows: Vec<String> = t
                    .burn(now)
                    .into_iter()
                    .map(|b| {
                        format!(
                            "{{\"window_micros\": {}, \"burn_milli\": {}, \
                             \"budget_left_milli\": {}}}",
                            b.window_micros, b.burn_milli, b.budget_left_milli
                        )
                    })
                    .collect();
                format!(
                    "{{\"slo\": {}, \"windows\": [{}]}}",
                    json_string(t.name()),
                    windows.join(", ")
                )
            })
            .collect();
        (
            "200 OK",
            "application/json",
            format!(
                "{{\"at_micros\": {now}, \"slos\": [{}]}}\n",
                slos.join(", ")
            ),
        )
    } else {
        let mut body = format!("slo burn at t={now}us\n");
        for t in trackers.iter() {
            for b in t.burn(now) {
                body.push_str(&format!(
                    "  {:<24} window={:>10}us  burn={:>6}m  budget_left={:>4}m\n",
                    t.name(),
                    b.window_micros,
                    b.burn_milli,
                    b.budget_left_milli
                ));
            }
        }
        ("200 OK", "text/plain", body)
    }
}

/// A JSON error body: `{"error":"..."}` with the given status line.
fn json_error(status: &'static str, message: &str) -> (&'static str, &'static str, String) {
    (
        status,
        "application/json",
        format!("{{\"error\":{}}}\n", json_string(message)),
    )
}

/// Parses a `/journey` query: `trace=<16-hex>` directly names a trace;
/// otherwise `sender=<u64>&seq=<u64>` derives one. Returns the trace
/// plus a human description for error bodies.
fn parse_trace_query(query: &str) -> Result<(TraceId, String), String> {
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        if k == "trace" {
            let raw = u64::from_str_radix(v, 16).map_err(|_| {
                format!("query parameter 'trace' must be a hex trace id, got '{v}'")
            })?;
            return Ok((TraceId::from_raw(raw), format!("trace={v}")));
        }
    }
    let (sender, seq) = parse_journey_query(query)?;
    Ok((
        TraceId::for_event(ServiceId::from_raw(sender), seq),
        format!("sender={sender} seq={seq}"),
    ))
}

/// Parses `sender=<u64>&seq=<u64>`, reporting exactly which parameter
/// is missing or malformed so the 400 body is actionable.
fn parse_journey_query(query: &str) -> Result<(u64, u64), String> {
    let mut sender: Option<&str> = None;
    let mut seq: Option<&str> = None;
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        match k {
            "sender" => sender = Some(v),
            "seq" => seq = Some(v),
            _ => {}
        }
    }
    let parse = |name: &str, raw: Option<&str>| -> Result<u64, String> {
        let raw = raw.ok_or_else(|| format!("missing query parameter '{name}'"))?;
        raw.parse().map_err(|_| {
            format!("query parameter '{name}' must be a non-negative integer, got '{raw}'")
        })
    };
    Ok((parse("sender", sender)?, parse("seq", seq)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::{ComponentStatus, HealthReport};
    use crate::HealthState;
    use smc_telemetry::Hop;

    fn get(addr: SocketAddr, target: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(format!("GET {target} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .expect("write");
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("read");
        out
    }

    #[test]
    fn serves_metrics_health_and_journey() {
        let registry = Registry::new();
        registry
            .counter("smc_http_test_total", "Test counter.")
            .add(3);
        let sink = Arc::new(TraceSink::with_capacity(64));
        let trace = TraceId::for_event(ServiceId::from_raw(9), 4);
        sink.record(trace, Hop::Published, 100);
        sink.record(trace, Hop::Delivered, 400);
        let sources = StatusSources {
            registry,
            sink: Some(Arc::clone(&sink)),
            health: Arc::new(parking_lot::Mutex::new(HealthReport {
                at_micros: 7,
                components: vec![ComponentStatus {
                    component: "wal".into(),
                    detector: "wal-stall",
                    state: HealthState::Degraded,
                    detail: "stalled".into(),
                    since_micros: 7,
                }],
            })),
            supervision: None,
            ward: None,
            clock: None,
            tails: None,
            slo: None,
        };
        let server = StatusServer::start("127.0.0.1:0", sources).expect("start");
        let addr = server.local_addr();

        let metrics = get(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK"));
        assert!(metrics.contains("smc_http_test_total 3"));

        let health = get(addr, "/health");
        assert!(health.contains("application/json"));
        assert!(health.contains("\"overall\":\"degraded\""));

        let journey = get(addr, "/journey?sender=9&seq=4");
        assert!(journey.starts_with("HTTP/1.1 200 OK"));
        assert!(journey.contains("published"));
        assert!(journey.contains("delivered"));

        let bad = get(addr, "/journey?sender=oops");
        assert!(bad.starts_with("HTTP/1.1 400"));

        let missing = get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"));

        server.stop();
    }

    #[test]
    fn journey_errors_are_json_with_precise_status() {
        let sink = Arc::new(TraceSink::with_capacity(64));
        let trace = TraceId::for_event(ServiceId::from_raw(9), 4);
        sink.record(trace, Hop::Published, 100);
        let sources = StatusSources {
            registry: Registry::new(),
            sink: Some(sink),
            health: Arc::default(),
            supervision: None,
            ward: None,
            clock: None,
            tails: None,
            slo: None,
        };
        let server = StatusServer::start("127.0.0.1:0", sources).expect("start");
        let addr = server.local_addr();

        // Missing parameters: 400, JSON, naming the missing parameter.
        let r = get(addr, "/journey");
        assert!(r.starts_with("HTTP/1.1 400"), "got: {r}");
        assert!(r.contains("application/json"));
        assert!(r.contains("{\"error\":\"missing query parameter 'sender'\"}"));
        let r = get(addr, "/journey?sender=9");
        assert!(r.starts_with("HTTP/1.1 400"));
        assert!(r.contains("missing query parameter 'seq'"));

        // Non-numeric parameters: 400, JSON, echoing the bad value.
        let r = get(addr, "/journey?sender=abc&seq=4");
        assert!(r.starts_with("HTTP/1.1 400"));
        assert!(r.contains("'sender' must be a non-negative integer, got 'abc'"));
        let r = get(addr, "/journey?sender=9&seq=-1");
        assert!(r.starts_with("HTTP/1.1 400"));
        assert!(r.contains("'seq' must be a non-negative integer, got '-1'"));

        // Well-formed but untraced event: 404, JSON.
        let r = get(addr, "/journey?sender=9&seq=999");
        assert!(r.starts_with("HTTP/1.1 404"), "got: {r}");
        assert!(r.contains("application/json"));
        assert!(r.contains("no hops recorded for sender=9 seq=999"));

        // The traced event still renders.
        let r = get(addr, "/journey?sender=9&seq=4");
        assert!(r.starts_with("HTTP/1.1 200"));
        assert!(r.contains("published"));
        server.stop();
    }

    #[test]
    fn journey_without_sink_is_a_json_404() {
        let server = StatusServer::start("127.0.0.1:0", StatusSources::default()).expect("start");
        let r = get(server.local_addr(), "/journey?sender=1&seq=1");
        assert!(r.starts_with("HTTP/1.1 404"));
        assert!(r.contains("application/json"));
        assert!(r.contains("{\"error\":\"tracing is not enabled\"}"));
        server.stop();
    }

    #[test]
    fn supervision_serves_report_and_lease_table() {
        use crate::peer::{PeerConfig, PeerSupervisor};
        use crate::supervise::{ServiceRegistry, ServiceSpec, SuperviseConfig, Supervisor};
        use crate::HealthTransition;

        // A supervisor with one closed episode and a watcher with one
        // tracked sibling: both must surface in the JSON.
        let mut registry = ServiceRegistry::new();
        registry.register(ServiceSpec::new("core"));
        registry.register(
            ServiceSpec::new("sink")
                .depends_on("core")
                .escalates_to("core"),
        );
        let mut supervisor = Supervisor::new(registry, SuperviseConfig::default());
        supervisor.on_transition(&HealthTransition {
            at_micros: 0,
            component: "sink".into(),
            detector: "component-down",
            from: HealthState::Degraded,
            to: HealthState::Failed,
            detail: "up=0".into(),
        });
        supervisor.on_transition(&HealthTransition {
            at_micros: 1_500,
            component: "sink".into(),
            detector: "component-down",
            from: HealthState::Failed,
            to: HealthState::Healthy,
            detail: "up=1".into(),
        });
        let mut watcher = PeerSupervisor::new(1, [2u64], PeerConfig::default());
        watcher.tick(0);

        let status = SupervisionStatus {
            report: supervisor.report().clone(),
            peers: watcher.lease_table(),
        };
        let sources = StatusSources {
            registry: Registry::new(),
            sink: None,
            health: Arc::default(),
            supervision: Some(Arc::new(parking_lot::Mutex::new(status))),
            ward: None,
            clock: None,
            tails: None,
            slo: None,
        };
        let server = StatusServer::start("127.0.0.1:0", sources).expect("start");
        let r = get(server.local_addr(), "/supervision");
        assert!(r.starts_with("HTTP/1.1 200 OK"), "got: {r}");
        assert!(r.contains("application/json"));
        assert!(r.contains("\"restarts\": 1"));
        assert!(r.contains("\"ttr_micros\": [1500]"));
        assert!(r.contains("\"peers\": [{\"peer\": 2, \"state\": \"watching\""));
        server.stop();
    }

    #[test]
    fn metrics_content_type_is_the_prometheus_text_version() {
        let server = StatusServer::start("127.0.0.1:0", StatusSources::default()).expect("start");
        let r = get(server.local_addr(), "/metrics");
        assert!(
            r.contains("Content-Type: text/plain; version=0.0.4"),
            "got: {r}"
        );
        server.stop();
    }

    #[test]
    fn cells_serves_per_cell_freshness_as_json() {
        use smc_telemetry::WardRegistry;
        use smc_types::TelemetryMsg;

        let ward = Arc::new(WardRegistry::new());
        ward.apply(
            &TelemetryMsg::MetricDelta {
                cell: 1,
                export_seq: 3,
                series: vec![],
            },
            1_000,
            1_050,
        );
        ward.apply(
            &TelemetryMsg::MetricDelta {
                cell: 2,
                export_seq: 5,
                series: vec![],
            },
            2_000,
            2_010,
        );
        let sources = StatusSources {
            ward: Some(ward),
            ..Default::default()
        };
        let server = StatusServer::start("127.0.0.1:0", sources).expect("start");
        let r = get(server.local_addr(), "/cells");
        assert!(r.starts_with("HTTP/1.1 200 OK"), "got: {r}");
        assert!(r.contains("application/json"));
        // No clock configured: "now" is the newest export seen (2000).
        assert!(r.contains("\"at_micros\": 2000"), "got: {r}");
        assert!(r.contains(
            "{\"cell\": 1, \"last_export_seq\": 3, \
             \"last_delta_at_micros\": 1000, \"lag_micros\": 1000}"
        ));
        assert!(r.contains(
            "{\"cell\": 2, \"last_export_seq\": 5, \
             \"last_delta_at_micros\": 2000, \"lag_micros\": 0}"
        ));
        server.stop();
    }

    #[test]
    fn cells_without_ward_aggregation_is_a_json_404() {
        let server = StatusServer::start("127.0.0.1:0", StatusSources::default()).expect("start");
        let r = get(server.local_addr(), "/cells");
        assert!(r.starts_with("HTTP/1.1 404"), "got: {r}");
        assert!(r.contains("application/json"));
        assert!(r.contains("{\"error\":\"telemetry aggregation is not enabled\"}"));
        server.stop();
    }

    #[test]
    fn journey_prefers_the_stitched_ward_view_and_appends_exemplars() {
        use smc_telemetry::WardRegistry;
        use smc_types::{HopExport, TelemetryMsg};

        let trace = TraceId::for_event(ServiceId::from_raw(9), 4);
        let ward = Arc::new(WardRegistry::new());
        ward.apply(
            &TelemetryMsg::TraceExport {
                cell: 1,
                export_seq: 1,
                hops: vec![
                    HopExport {
                        trace: trace.raw(),
                        label: "claim".into(),
                        at_micros: 100,
                    },
                    HopExport {
                        trace: trace.raw(),
                        label: "adopt".into(),
                        at_micros: 300,
                    },
                ],
                truncated: vec![],
            },
            400,
            400,
        );
        let registry = Registry::new();
        registry
            .histogram("smc_repair_micros", "Repair latency.")
            .observe_traced(900, trace);
        let sources = StatusSources {
            registry,
            ward: Some(ward),
            ..Default::default()
        };
        let server = StatusServer::start("127.0.0.1:0", sources).expect("start");
        let addr = server.local_addr();

        // The same journey resolves via sender/seq or the trace's hex.
        for target in [
            "/journey?sender=9&seq=4".to_owned(),
            format!("/journey?trace={trace}"),
        ] {
            let r = get(addr, &target);
            assert!(r.starts_with("HTTP/1.1 200 OK"), "{target} got: {r}");
            assert!(r.contains("cell 1  claim"), "got: {r}");
            assert!(r.contains("cell 1  adopt"));
            assert!(
                r.contains("exemplar smc_repair_micros{le=\"1024\"} = 900"),
                "got: {r}"
            );
        }

        let bad = get(addr, "/journey?trace=zzzz");
        assert!(bad.starts_with("HTTP/1.1 400"), "got: {bad}");
        assert!(bad.contains("'trace' must be a hex trace id"));

        let missing = get(addr, "/journey?trace=1234");
        assert!(missing.starts_with("HTTP/1.1 404"), "got: {missing}");
        assert!(missing.contains("no hops recorded for trace=1234"));
        server.stop();
    }

    #[test]
    fn tails_folds_the_sink_window_and_serves_both_formats() {
        let sink = Arc::new(TraceSink::with_capacity(64));
        let trace = TraceId::for_event(ServiceId::from_raw(3), 7);
        sink.record(trace, Hop::Published, 100);
        sink.record(trace, Hop::OutQueued, 120);
        sink.record(trace, Hop::TxSent, 320);
        sink.record(trace, Hop::Delivered, 350);
        let sources = StatusSources {
            sink: Some(sink),
            ..Default::default()
        };
        let server = StatusServer::start("127.0.0.1:0", sources).expect("start");
        let addr = server.local_addr();

        // Default is JSON with the attribution table and reservoir.
        let r = get(addr, "/tails");
        assert!(r.starts_with("HTTP/1.1 200 OK"), "got: {r}");
        assert!(r.contains("application/json"));
        assert!(r.contains("\"stage\":\"outbound-queue\""), "got: {r}");
        assert!(r.contains("\"kind\":\"wait\""));
        assert!(r.contains("\"tail\":"));

        // The flame view names stages with wait/service bars.
        let r = get(addr, "/tails?format=text");
        assert!(r.starts_with("HTTP/1.1 200 OK"), "got: {r}");
        assert!(r.contains("text/plain"));
        assert!(r.contains("outbound-queue"), "got: {r}");

        // A bogus format is a JSON 400 echoing the bad value.
        let r = get(addr, "/tails?format=xml");
        assert!(r.starts_with("HTTP/1.1 400"), "got: {r}");
        assert!(r.contains("'format' must be 'json' or 'text', got 'xml'"));
        server.stop();
    }

    #[test]
    fn tails_prefers_a_live_profiler_over_the_sink() {
        use smc_telemetry::{HopRecord, Journey};

        let trace = TraceId::for_event(ServiceId::from_raw(4), 1);
        let mut cp = CriticalPath::new();
        cp.fold(&Journey {
            trace,
            hops: vec![
                HopRecord {
                    trace,
                    hop: Hop::Published,
                    at_micros: 0,
                    order: 0,
                },
                HopRecord {
                    trace,
                    hop: Hop::Delivered,
                    at_micros: 90,
                    order: 1,
                },
            ],
            truncated: false,
        });
        let sources = StatusSources {
            // A sink exists but is empty; the profiler must win.
            sink: Some(Arc::new(TraceSink::with_capacity(8))),
            tails: Some(Arc::new(parking_lot::Mutex::new(cp))),
            ..Default::default()
        };
        let server = StatusServer::start("127.0.0.1:0", sources).expect("start");
        let r = get(server.local_addr(), "/tails");
        assert!(r.starts_with("HTTP/1.1 200 OK"), "got: {r}");
        assert!(r.contains("\"journeys\":1"), "got: {r}");
        assert!(r.contains("\"stage\":\"deliver\""));
        server.stop();
    }

    #[test]
    fn tails_without_tracing_is_a_json_404() {
        let server = StatusServer::start("127.0.0.1:0", StatusSources::default()).expect("start");
        let r = get(server.local_addr(), "/tails");
        assert!(r.starts_with("HTTP/1.1 404"), "got: {r}");
        assert!(r.contains("application/json"));
        assert!(r.contains("{\"error\":\"tail profiling is not enabled\"}"));
        server.stop();
    }

    #[test]
    fn slo_serves_burn_rates_in_text_and_json() {
        use smc_telemetry::{SloConfig, SloTracker};

        let mut tracker = SloTracker::new(SloConfig {
            name: "delivery-latency".into(),
            objective_micros: 1_000,
            budget_milli: 100,
            windows_micros: vec![10_000],
        });
        // All ten observations in-window violate: burn 10000m.
        for i in 0..10u64 {
            tracker.record(90_000 + i * 1_000, 5_000);
        }
        let sources = StatusSources {
            slo: Some(Arc::new(parking_lot::Mutex::new(vec![tracker]))),
            ..Default::default()
        };
        let server = StatusServer::start("127.0.0.1:0", sources).expect("start");
        let addr = server.local_addr();

        // No clock: `?at` pins the evaluation instant.
        let r = get(addr, "/slo?at=100000");
        assert!(r.starts_with("HTTP/1.1 200 OK"), "got: {r}");
        assert!(r.contains("text/plain"));
        assert!(r.contains("delivery-latency"), "got: {r}");
        assert!(r.contains("burn= 10000m"), "got: {r}");

        let r = get(addr, "/slo?json&at=100000");
        assert!(r.starts_with("HTTP/1.1 200 OK"), "got: {r}");
        assert!(r.contains("application/json"));
        assert!(r.contains("\"slo\": \"delivery-latency\""));
        assert!(
            r.contains("\"window_micros\": 10000, \"burn_milli\": 10000"),
            "got: {r}"
        );

        let r = get(addr, "/slo?at=nope");
        assert!(r.starts_with("HTTP/1.1 400"), "got: {r}");
        assert!(r.contains("'at' must be a non-negative integer, got 'nope'"));
        server.stop();
    }

    #[test]
    fn slo_without_trackers_is_a_json_404() {
        let server = StatusServer::start("127.0.0.1:0", StatusSources::default()).expect("start");
        let r = get(server.local_addr(), "/slo");
        assert!(r.starts_with("HTTP/1.1 404"), "got: {r}");
        assert!(r.contains("application/json"));
        assert!(r.contains("{\"error\":\"slo tracking is not enabled\"}"));
        server.stop();
    }

    #[test]
    fn supervision_without_supervisor_is_a_json_404() {
        // Same error-shape conventions as /journey: JSON body, precise
        // status, human-readable reason.
        let server = StatusServer::start("127.0.0.1:0", StatusSources::default()).expect("start");
        let r = get(server.local_addr(), "/supervision");
        assert!(r.starts_with("HTTP/1.1 404"), "got: {r}");
        assert!(r.contains("application/json"));
        assert!(r.contains("{\"error\":\"supervision is not enabled\"}"));
        server.stop();
    }
}
