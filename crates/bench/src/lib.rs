//! Benchmark harness reproducing the paper's evaluation (§V).
//!
//! The testbed mirrors the paper's: the event bus runs on a simulated
//! PDA ([`CpuProfile::ipaq_hx4700`]) linked to the measurement endpoints
//! over the 1.5 ms / 575 KB/s IP-over-USB profile
//! ([`LinkConfig::usb_ip_link`]). Each figure harness builds the same bus
//! twice — once per matching engine — so the Siena-vs-C comparison is an
//! emergent property of genuinely different code paths, not a constant.

#![warn(missing_docs)]

pub mod json;

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use smc_core::{RemoteClient, SmcCell, SmcConfig};
use smc_discovery::{AgentConfig, DiscoveryConfig};
use smc_match::EngineKind;
use smc_transport::{CpuProfile, LinkConfig, ReliableChannel, ReliableConfig, SimNetwork};
use smc_types::{Event, Filter, Result, ServiceId, ServiceInfo};

/// How long harnesses wait on any single blocking step.
pub const HARNESS_TIMEOUT: Duration = Duration::from_secs(30);

/// Reliability tuning used by every harness endpoint.
pub fn bench_reliable() -> ReliableConfig {
    ReliableConfig {
        // Generous RTO: the measured link is lossless, and a pipelined
        // burst can legitimately take seconds to drain — premature
        // retransmission would pollute the throughput measurement.
        initial_rto: Duration::from_secs(3),
        max_rto: Duration::from_secs(6),
        poll_interval: Duration::from_millis(5),
        window: 64,
        ..ReliableConfig::default()
    }
}

/// A reproduction of the paper's two-machine testbed.
#[derive(Debug)]
pub struct Testbed {
    /// The simulated radio/serial environment.
    pub net: SimNetwork,
    /// The cell under test (bus on the "PDA").
    pub cell: Arc<SmcCell>,
    /// The publishing endpoint (on the "laptop").
    pub publisher: Arc<RemoteClient>,
    /// The subscribing endpoint (on the "laptop").
    pub subscriber: Arc<RemoteClient>,
}

/// Knobs of a testbed run.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// The matching engine for the bus.
    pub engine: EngineKind,
    /// The link profile between endpoints and the bus.
    pub link: LinkConfig,
    /// The CPU cost model of the bus host.
    pub cpu: CpuProfile,
    /// Random seed for the simulated network.
    pub seed: u64,
}

impl TestbedConfig {
    /// The paper's testbed with the given engine.
    pub fn paper(engine: EngineKind) -> Self {
        TestbedConfig {
            engine,
            link: LinkConfig::usb_ip_link(),
            cpu: CpuProfile::ipaq_hx4700(),
            seed: 42,
        }
    }

    /// An idealised testbed (no link delays, native CPU) for sanity runs.
    pub fn ideal(engine: EngineKind) -> Self {
        TestbedConfig {
            engine,
            link: LinkConfig::ideal(),
            cpu: CpuProfile::native(),
            seed: 42,
        }
    }
}

impl Testbed {
    /// Brings up the cell and both endpoints, subscribes the subscriber
    /// to the benchmark event type, and installs the link profile on the
    /// measured paths (joins happen over an ideal link so setup is fast).
    ///
    /// # Errors
    ///
    /// Propagates join/subscribe failures.
    pub fn start(config: &TestbedConfig) -> Result<Testbed> {
        let net = SimNetwork::with_seed(LinkConfig::ideal(), config.seed);
        let smc_config = SmcConfig {
            engine: config.engine,
            cpu_profile: config.cpu.clone(),
            discovery: DiscoveryConfig {
                beacon_interval: Duration::from_millis(25),
                lease: Duration::from_secs(600),
                grace: Duration::from_secs(600),
                ..DiscoveryConfig::default()
            },
            reliable: bench_reliable(),
            ..SmcConfig::default()
        };
        let cell = SmcCell::start(
            Arc::new(net.endpoint()),
            Arc::new(net.endpoint()),
            smc_config,
        );
        let connect = |device_type: &str| {
            RemoteClient::connect(
                ServiceInfo::new(ServiceId::NIL, device_type).with_role("bench"),
                ReliableChannel::new(Arc::new(net.endpoint()), bench_reliable()),
                AgentConfig::default(),
                HARNESS_TIMEOUT,
            )
        };
        let publisher = connect("bench.publisher")?;
        let subscriber = connect("bench.subscriber")?;
        subscriber.subscribe(Filter::for_type("bench.event"), HARNESS_TIMEOUT)?;

        // Install the measured link on publisher→bus and bus→subscriber,
        // and make it the network default so `max_datagram` (which the
        // reliability layer sizes fragments from) reflects the profile's
        // MTU — crucial for small-MTU radios like ZigBee.
        let bus = cell.bus_endpoint();
        net.set_link_between(publisher.local_id(), bus, config.link.clone());
        net.set_link_between(subscriber.local_id(), bus, config.link.clone());
        net.set_default_link(config.link.clone());

        Ok(Testbed {
            net,
            cell,
            publisher,
            subscriber,
        })
    }

    /// Builds one benchmark event with `payload` bytes of body.
    pub fn event(payload: usize) -> Event {
        Event::builder("bench.event")
            .payload(vec![0xA5u8; payload])
            .build()
    }

    /// Measures end-to-end response time (publish → delivery at the
    /// subscriber) for `samples` events of `payload` bytes each,
    /// one-at-a-time (no pipelining), returning the per-event times.
    ///
    /// # Errors
    ///
    /// Propagates publish/receive failures.
    pub fn measure_response(&self, payload: usize, samples: usize) -> Result<Vec<Duration>> {
        let mut times = Vec::with_capacity(samples);
        for _ in 0..samples {
            let start = Instant::now();
            self.publisher.publish_nowait(Self::event(payload))?;
            let _ = self.subscriber.next_event(HARNESS_TIMEOUT)?;
            times.push(start.elapsed());
        }
        Ok(times)
    }

    /// Measures sustained payload throughput: the publisher pipelines
    /// `events` events of `payload` bytes; the clock stops when the last
    /// one reaches the subscriber. Returns payload kilobytes per second.
    ///
    /// # Errors
    ///
    /// Propagates publish/receive failures.
    pub fn measure_throughput(&self, payload: usize, events: usize) -> Result<f64> {
        let start = Instant::now();
        for _ in 0..events {
            self.publisher.publish_nowait(Self::event(payload))?;
        }
        for _ in 0..events {
            let _ = self.subscriber.next_event(HARNESS_TIMEOUT)?;
        }
        let elapsed = start.elapsed().as_secs_f64();
        Ok((payload * events) as f64 / 1024.0 / elapsed)
    }

    /// Tears the testbed down.
    pub fn shutdown(&self) {
        self.publisher.shutdown();
        self.subscriber.shutdown();
        self.cell.shutdown();
        self.net.shutdown();
    }
}

/// Summary statistics over duration samples.
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)]
pub struct Stats {
    pub mean_ms: f64,
    pub min_ms: f64,
    pub max_ms: f64,
    pub p95_ms: f64,
}

/// Computes [`Stats`] over a sample set.
///
/// # Panics
///
/// Panics on an empty sample set.
pub fn stats(samples: &[Duration]) -> Stats {
    assert!(!samples.is_empty(), "no samples");
    let mut ms: Vec<f64> = samples.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    ms.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    let mean = ms.iter().sum::<f64>() / ms.len() as f64;
    Stats {
        mean_ms: mean,
        min_ms: ms[0],
        max_ms: *ms.last().expect("non-empty"),
        p95_ms: ms[((ms.len() - 1) as f64 * 0.95) as usize],
    }
}

/// The wall time a set of concurrent workers took: from the earliest
/// worker's start to the latest worker's end.
///
/// Each worker times its own `(start, end)`, so the window cannot begin
/// after the work did — a clock read on a coordinating thread after a
/// start barrier can, when the workers finish before that thread is
/// scheduled again.
///
/// # Panics
///
/// Panics on an empty span set.
pub fn wall_time(spans: &[(Instant, Instant)]) -> Duration {
    let start = spans.iter().map(|s| s.0).min().expect("no worker spans");
    let end = spans.iter().map(|s| s.1).max().expect("no worker spans");
    end.saturating_duration_since(start)
}

/// Where a bench writes its artifacts: `results/` when run from the
/// workspace root, else the working directory.
pub fn results_dir() -> PathBuf {
    let results = Path::new("results");
    if results.is_dir() {
        results.to_path_buf()
    } else {
        PathBuf::from(".")
    }
}

/// Parses `--key value` style harness arguments with defaults.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    args: Vec<String>,
}

impl HarnessArgs {
    /// Captures the process arguments.
    pub fn from_env() -> Self {
        HarnessArgs {
            args: std::env::args().skip(1).collect(),
        }
    }

    /// The value following `--name`, parsed, or `default` when the flag
    /// is absent. A present flag whose value is missing or does not parse
    /// ends the process with status 2, naming the flag.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.value(name) {
            Ok(value) => value.unwrap_or(default),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }

    /// The parsed value following `--name`: `None` when the flag is
    /// absent, an error when its value is missing or does not parse.
    fn value<T: std::str::FromStr>(&self, name: &str) -> std::result::Result<Option<T>, String> {
        let flag = format!("--{name}");
        let Some(at) = self.args.iter().position(|a| a == &flag) else {
            return Ok(None);
        };
        let raw = self
            .args
            .get(at + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        raw.parse()
            .map(Some)
            .map_err(|_| format!("{flag}: cannot parse '{raw}'"))
    }

    /// Whether the bare flag `--name` is present.
    pub fn has(&self, name: &str) -> bool {
        let flag = format!("--{name}");
        self.args.iter().any(|a| a == &flag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_computed() {
        let s = stats(&[
            Duration::from_millis(10),
            Duration::from_millis(20),
            Duration::from_millis(30),
        ]);
        assert!((s.mean_ms - 20.0).abs() < 1e-9);
        assert_eq!(s.min_ms, 10.0);
        assert_eq!(s.max_ms, 30.0);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn stats_empty_panics() {
        let _ = stats(&[]);
    }

    #[test]
    fn wall_time_spans_earliest_start_to_latest_end() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // Overlapping workers: the window is the union, not any one span.
        assert_eq!(
            wall_time(&[(at(5), at(30)), (at(0), at(20)), (at(10), at(25))]),
            Duration::from_millis(30)
        );
        // One worker finishes before another starts: the gap between
        // them still counts, and neither span alone is the answer.
        assert_eq!(
            wall_time(&[(at(0), at(10)), (at(40), at(50))]),
            Duration::from_millis(50)
        );
        assert_eq!(wall_time(&[(at(7), at(9))]), Duration::from_millis(2));
    }

    #[test]
    #[should_panic(expected = "no worker spans")]
    fn wall_time_empty_panics() {
        let _ = wall_time(&[]);
    }

    #[test]
    fn flag_values_parse_or_name_the_flag() {
        let args = HarnessArgs {
            args: ["chaos", "--seeds", "twelve", "--secs", "4", "--ops"]
                .map(String::from)
                .to_vec(),
        };
        assert_eq!(args.value::<u64>("secs"), Ok(Some(4)));
        assert_eq!(args.value::<u64>("nodes"), Ok(None));
        assert_eq!(args.get::<u64>("nodes", 3), 3);
        assert_eq!(
            args.value::<u64>("seeds"),
            Err("--seeds: cannot parse 'twelve'".to_string())
        );
        assert_eq!(
            args.value::<usize>("ops"),
            Err("--ops needs a value".to_string())
        );
    }

    #[test]
    fn testbed_round_trips_ideal() {
        let bed = Testbed::start(&TestbedConfig::ideal(EngineKind::FastForward)).unwrap();
        let times = bed.measure_response(100, 3).unwrap();
        assert_eq!(times.len(), 3);
        let kbps = bed.measure_throughput(500, 20).unwrap();
        assert!(kbps > 0.0);
        bed.shutdown();
    }

    #[test]
    fn testbed_round_trips_paper_profile() {
        let mut cfg = TestbedConfig::paper(EngineKind::Siena);
        // Soften the CPU model so the test stays quick.
        cfg.cpu = CpuProfile {
            copy_rounds: 10,
            dispatch_spin: 100,
        };
        let bed = Testbed::start(&cfg).unwrap();
        let times = bed.measure_response(1000, 2).unwrap();
        // Two link hops of ≥0.6 ms each plus transmission.
        assert!(
            times.iter().all(|t| *t >= Duration::from_millis(1)),
            "{times:?}"
        );
        bed.shutdown();
    }
}
