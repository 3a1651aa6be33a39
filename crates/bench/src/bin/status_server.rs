//! Operator surface demo: a live cell under wall-clock time with a
//! sensor publishing through it, a [`HealthMonitor`] polling the
//! registry on a background cadence, and the [`StatusServer`] exposing
//! `/metrics`, `/health`, `/journey`, `/tails` and `/slo` over plain
//! HTTP.
//!
//! ```text
//! cargo run --release -p smc-bench --bin status_server -- [--secs 10] [--smoke]
//! ```
//!
//! `--secs 0` serves until killed. `--smoke` runs briefly, scrapes its
//! own endpoints, checks the responses and exits non-zero on anything
//! unexpected — the CI health smoke.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use smc_core::{RemoteClient, SmcCell, SmcConfig};
use smc_discovery::{AgentConfig, DiscoveryConfig};
use smc_health::{
    health_event, HealthConfig, HealthMonitor, StatusServer, StatusSources, SupervisionStatus,
};
use smc_policy::health_quench_policies;
use smc_telemetry::{Registry, SloConfig, SloTracker, TraceSink, Tracer, DEFAULT_SINK_CAPACITY};
use smc_transport::{LinkConfig, ReliableChannel, SimNetwork};
use smc_types::{system_clock, Event, Filter, ServiceId, ServiceInfo, TraceId};

const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to status server");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: smc\r\n\r\n").expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let secs: u64 = args
        .iter()
        .position(|a| a == "--secs")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 2 } else { 10 });

    let clock = system_clock();
    let net = SimNetwork::with_seed(LinkConfig::ideal(), 7);
    let sink = Arc::new(TraceSink::with_capacity(DEFAULT_SINK_CAPACITY));
    let tracer = Tracer::new(Arc::clone(&sink), Arc::clone(&clock));
    let config = SmcConfig {
        discovery: DiscoveryConfig {
            beacon_interval: Duration::from_millis(50),
            lease: Duration::from_secs(600),
            grace: Duration::from_secs(600),
            ..DiscoveryConfig::default()
        },
        tracer: tracer.clone(),
        ..SmcConfig::default()
    };
    let cell = Arc::new(SmcCell::start(
        Arc::new(net.endpoint()),
        Arc::new(net.endpoint()),
        config,
    ));
    for p in health_quench_policies() {
        cell.policy()
            .add(p)
            .expect("install built-in health policies");
    }

    let registry = Registry::default();
    {
        let cell = Arc::clone(&cell);
        smc_core::register_bus_metrics(&registry, move || cell.metrics());
    }
    sink.register_with(&registry);

    let connect = |device_type: &str| {
        RemoteClient::connect(
            ServiceInfo::new(ServiceId::NIL, device_type).with_role("demo"),
            ReliableChannel::new(Arc::new(net.endpoint()), Default::default()),
            AgentConfig::default(),
            CONNECT_TIMEOUT,
        )
        .expect("member joins cell")
    };
    let monitor_client = connect("demo.monitor");
    monitor_client
        .subscribe(Filter::for_type("demo.reading"), CONNECT_TIMEOUT)
        .expect("subscribe");
    let sensor = connect("demo.sensor");
    let sensor_id = sensor.local_id();

    let mut monitor = HealthMonitor::new(HealthConfig::default());
    let supervision: Arc<parking_lot::Mutex<SupervisionStatus>> = Arc::default();
    let slo: Arc<parking_lot::Mutex<Vec<SloTracker>>> =
        Arc::new(parking_lot::Mutex::new(vec![SloTracker::new(
            SloConfig::new("delivery-latency", 50_000),
        )]));
    let sources = StatusSources {
        registry: registry.clone(),
        sink: Some(Arc::clone(&sink)),
        health: Arc::default(),
        supervision: Some(Arc::clone(&supervision)),
        ward: None,
        clock: Some(Arc::clone(&clock)),
        // `/tails` folds the live sink's window on demand.
        tails: None,
        slo: Some(Arc::clone(&slo)),
    };
    let shared_report = Arc::clone(&sources.health);
    let server = StatusServer::start("127.0.0.1:0", sources).expect("bind status server");
    let addr = server.local_addr();
    eprintln!("status server listening on http://{addr}/");
    eprintln!(
        "  GET /metrics   GET /health   GET /journey?sender=<raw>&seq=<n>   \
         GET /tails   GET /slo"
    );

    let started = Instant::now();
    let mut seq = 0u64;
    let mut published_event_seq: Option<u64> = None;
    while secs == 0 || started.elapsed() < Duration::from_secs(secs) {
        seq += 1;
        let event = Event::builder("demo.reading")
            .attr("sensor", "hr")
            .attr("bpm", 60 + (seq % 40) as i64)
            .build();
        if sensor.publish_nowait(event).is_ok() && published_event_seq.is_none() {
            published_event_seq = Some(seq);
        }
        let now = clock.now_micros();
        if monitor.due(now) {
            let transitions = monitor.poll(now, &registry, Some(&sink));
            for t in &transitions {
                eprintln!(
                    "health: {} {} -> {} ({})",
                    t.component,
                    t.from.as_str(),
                    t.to.as_str(),
                    t.detail
                );
                // The monitor feeds the bus exactly as the harness does,
                // so the built-in obligations can react.
                let _ = cell.publish_local(health_event(t, None));
            }
            *shared_report.lock() = monitor.report();
            // Feed the SLO tracker the freshest complete journey's
            // end-to-end latency.
            let journey = sink.journey(TraceId::for_event(sensor_id, seq));
            if !journey.is_empty() {
                slo.lock()[0].record(now, journey.total_micros());
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    let mut failures = 0;
    if smoke {
        let metrics = http_get(addr, "/metrics");
        if !(metrics.starts_with("HTTP/1.1 200") && metrics.contains("smc_bus_published_total")) {
            eprintln!("SMOKE FAIL: /metrics missing bus counters:\n{metrics}");
            failures += 1;
        }
        let health = http_get(addr, "/health");
        if !(health.starts_with("HTTP/1.1 200") && health.contains("\"overall\"")) {
            eprintln!("SMOKE FAIL: /health not a report:\n{health}");
            failures += 1;
        }
        let journey = http_get(
            addr,
            &format!(
                "/journey?sender={}&seq={}",
                sensor_id.raw(),
                published_event_seq.unwrap_or(1)
            ),
        );
        if !journey.starts_with("HTTP/1.1 200") {
            eprintln!("SMOKE FAIL: /journey errored:\n{journey}");
            failures += 1;
        }
        let supervision = http_get(addr, "/supervision");
        if !(supervision.starts_with("HTTP/1.1 200") && supervision.contains("\"peers\"")) {
            eprintln!("SMOKE FAIL: /supervision not a report:\n{supervision}");
            failures += 1;
        }
        let tails = http_get(addr, "/tails");
        if !(tails.starts_with("HTTP/1.1 200")
            && tails.contains("\"stages\":")
            && tails.contains("\"tail\":"))
        {
            eprintln!("SMOKE FAIL: /tails not an attribution report:\n{tails}");
            failures += 1;
        }
        let tails_text = http_get(addr, "/tails?format=text");
        if !(tails_text.starts_with("HTTP/1.1 200") && tails_text.contains("critical path")) {
            eprintln!("SMOKE FAIL: /tails?format=text not a flame view:\n{tails_text}");
            failures += 1;
        }
        let slo_page = http_get(addr, "/slo?json");
        if !(slo_page.starts_with("HTTP/1.1 200") && slo_page.contains("\"delivery-latency\"")) {
            eprintln!("SMOKE FAIL: /slo?json missing the tracker:\n{slo_page}");
            failures += 1;
        }
        eprintln!(
            "smoke: /metrics {} bytes, /health {} bytes, /journey {} bytes, \
             /tails {} bytes, /slo {} bytes, {failures} failures",
            metrics.len(),
            health.len(),
            journey.len(),
            tails.len(),
            slo_page.len()
        );
    }

    server.stop();
    sensor.shutdown();
    monitor_client.shutdown();
    cell.shutdown();
    if failures > 0 {
        std::process::exit(1);
    }
}
