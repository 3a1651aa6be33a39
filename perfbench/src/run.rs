//! One benchmark run of one workload: set-up, the timed phases, the
//! correctness checks and the metrics, for either the untraced run
//! (end-to-end metrics) or the traced run (per-layer metrics).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use smc_discovery::DiscoveryConfig;
use smc_telemetry::{Hop, TraceSink, Tracer};
use smc_transport::ReliableConfig;
use smc_types::{system_clock, TraceId};

use crate::cell::{recover_subscriptions, CellRig, CellSpec, Net};
use crate::check::{mismatches, received_alarm_key, reference};
use crate::drive::{drain_alarms, run_phase, Ledger, Pace, PhaseOut};
use crate::gen::{client_filters, Stream, Traffic};
use crate::replay::isolation_replay;
use crate::spans::SpanLog;
use crate::stats::{
    mean, median, nproc, peak_rss_mb, quantile, quiet_median, quiet_rounds, steal_ms,
};

/// A named workload and its fixed parameters.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The name `--workload` selects.
    pub name: &'static str,
    /// What is published.
    pub traffic: Traffic,
    /// Over which transport.
    pub net: Net,
    /// On a `SmcCell::start_durable` cell.
    pub durable: bool,
    /// Open-loop rate at which latency is taken (below the knee).
    pub nominal_eps: f64,
    /// p95 limit a ladder rung must meet, µs.
    pub p95_limit_us: f64,
    /// The fixed open-loop rate ladder, ascending.
    pub ladder: Vec<f64>,
    /// How long each ladder rung runs.
    pub rung: Duration,
    /// How long each open-loop latency round runs.
    pub segment: Duration,
    /// Events per saturation repetition.
    pub sat_events: u64,
    /// Events replayed through each layer in the traced run.
    pub replay_events: u64,
    /// Per-layer metrics (names or name prefixes) that must read exactly
    /// 0 in the traced run: the layers this workload claims to bypass.
    pub bypasses: &'static [&'static str],
}

/// A ladder of rates from `lo` to `hi` in 4% steps.
fn geometric(lo: f64, hi: f64) -> Vec<f64> {
    std::iter::successors(Some(lo), |r| Some((r * 1.04).round()))
        .take_while(|&r| r <= hi)
        .collect()
}

/// Undelivered events a saturating sender allows: the reliable
/// channel's own window, so the pipeline runs as deep as the program's
/// default flow control lets it.
pub fn inflight() -> u64 {
    ReliableConfig::default().window as u64
}

/// The three ward workloads.
pub fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "vitals_udp",
            traffic: Traffic::Vitals,
            net: Net::Udp,
            durable: false,
            nominal_eps: 3_000.0,
            p95_limit_us: 5_000.0,
            ladder: geometric(7_000.0, 40_000.0),
            rung: Duration::from_millis(200),
            segment: Duration::from_millis(500),
            sat_events: 6_000,
            replay_events: 20_000,
            bypasses: &["wal."],
        },
        Workload {
            name: "ecg_fanout",
            traffic: Traffic::Ecg,
            net: Net::Mem,
            durable: false,
            nominal_eps: 2_000.0,
            p95_limit_us: 5_000.0,
            ladder: geometric(6_000.0, 40_000.0),
            rung: Duration::from_millis(200),
            segment: Duration::from_millis(1_000),
            sat_events: 12_000,
            replay_events: 5_000,
            bypasses: &["wal.", "policy.actions_per_event"],
        },
        Workload {
            name: "ward_durable",
            traffic: Traffic::Vitals,
            net: Net::Mem,
            durable: true,
            nominal_eps: 150.0,
            p95_limit_us: 50_000.0,
            ladder: geometric(500.0, 4_000.0),
            rung: Duration::from_millis(400),
            segment: Duration::from_millis(1_200),
            sat_events: 600,
            replay_events: 20_000,
            bypasses: &[],
        },
    ]
}

/// Set-ups per untraced run; the median is reported.
const SETUPS: usize = 5;
/// Warm-up before any timed phase.
const WARMUP: Duration = Duration::from_millis(500);

/// The outcome of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Deliveries attempted (subscribing client + cell-side sinks).
    pub attempted: u64,
    /// Failed deliveries, publish errors and failed control-plane steps.
    pub failed: u64,
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Human-readable notes (to stderr).
    pub notes: Vec<String>,
}

/// Where a run keeps its working files: inside the working directory.
pub fn work_dir() -> PathBuf {
    PathBuf::from(".bench_tmp")
}

fn wal_dir(tag: &str) -> PathBuf {
    work_dir().join(format!("wal-{}-{tag}", std::process::id()))
}

fn spec(w: &Workload, seed: u64, tag: &str, instrument: bool, tracer: Tracer) -> CellSpec {
    CellSpec {
        traffic: w.traffic,
        net: w.net,
        wal_dir: w.durable.then(|| wal_dir(tag)),
        instrument,
        tracer,
        seed,
    }
}

fn start(spec: &CellSpec, base: Instant) -> Result<CellRig, String> {
    if let Some(dir) = &spec.wal_dir {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    CellRig::start(spec, base)
}

fn remove(dir: Option<PathBuf>) {
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Correctness of everything the run sent: the subscribing client's
/// ledger, each cell-side sink against the Naive reference, the alarms
/// against the policy replay, and (durable) the recovered subscriptions.
struct Verdict {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    recovery_ns: u64,
}

fn verify(w: &Workload, seed: u64, rig: CellRig, ledger: &mut Ledger) -> Verdict {
    let reference = reference(w.traffic, seed, ledger.sent(), &rig.filters);
    drain_alarms(&rig, ledger, reference.alarms.len(), Duration::from_secs(5));
    // Cell-side sinks run on the dispatch thread; give stragglers a moment.
    let deadline = Instant::now() + Duration::from_secs(5);
    while rig.sink_counts() != reference.sink_counts && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let counts = rig.sink_counts();
    let sink_failures: u64 = counts
        .iter()
        .zip(&reference.sink_counts)
        .map(|(a, b)| a.abs_diff(*b))
        .sum();
    let got_alarms: Vec<String> = ledger.alarms.iter().map(received_alarm_key).collect();
    let alarm_failures = mismatches(&reference.alarms, &got_alarms);
    let control_failures = rig.control_errors.load(Ordering::Relaxed);
    let mut notes = vec![
        format!(
            "checks: sent {} lost {} dup {} reordered {} corrupted {} unknown {} publish_errors {}",
            ledger.sent(),
            ledger.lost(),
            ledger.duplicated,
            ledger.reordered,
            ledger.corrupted,
            ledger.unknown,
            ledger.publish_errors
        ),
        format!(
            "checks: sinks {} expected deliveries, {} off; alarms {} expected, {} received, {} off; control ops {} failed {}",
            reference.sink_counts.iter().sum::<u64>(),
            sink_failures,
            reference.alarms.len(),
            got_alarms.len(),
            alarm_failures,
            rig.control_ops.load(Ordering::Relaxed),
            control_failures
        ),
    ];
    let nurse = rig.nurse.local_id();
    let expected_subs = rig.nurse_subscriptions();
    let dir = rig.shutdown();
    let mut wal_failures = 0;
    let mut recovery_ns = 0;
    if let Some(dir) = dir.as_deref() {
        match recover_subscriptions(dir, nurse) {
            Ok((subs, ns)) => {
                recovery_ns = ns;
                if subs != expected_subs {
                    wal_failures = 1;
                    notes.push(format!(
                        "checks: recovered subscriptions {subs:?} != expected {expected_subs:?}"
                    ));
                } else {
                    notes.push(format!(
                        "checks: WAL reopened, {} subscriptions recovered as expected",
                        subs.len()
                    ));
                }
            }
            Err(e) => {
                wal_failures = 1;
                notes.push(format!("checks: WAL reopen failed: {e}"));
            }
        }
    }
    remove(dir);
    Verdict {
        attempted: ledger.sent()
            + reference.alarms.len() as u64
            + reference.sink_counts.iter().sum::<u64>(),
        failed: ledger.failures()
            + sink_failures
            + alarm_failures
            + control_failures
            + wal_failures,
        notes,
        recovery_ns,
    }
}

/// Open-loop latency at the nominal rate, measured in rounds.
#[derive(Debug, Default)]
struct LatencyRounds {
    p10: Vec<f64>,
    p50: Vec<f64>,
    p95: Vec<f64>,
    p99: Vec<f64>,
    late_p99: Vec<f64>,
    steal: Vec<f64>,
    phases: Vec<PhaseOut>,
}

impl LatencyRounds {
    fn run(
        w: &Workload,
        rig: &CellRig,
        stream: &mut Stream,
        ledger: &mut Ledger,
        rounds: usize,
        spans: Option<&SpanLog>,
    ) -> Self {
        let mut out = LatencyRounds::default();
        let n = (w.nominal_eps * w.segment.as_secs_f64()).ceil() as u64;
        for _ in 0..rounds {
            let st = steal_ms();
            let lat = run_phase(rig, stream, ledger, Pace::Open(w.nominal_eps), n, spans);
            out.steal.push((steal_ms() - st) as f64);
            out.p10.push(lat.latency_us(0.1));
            out.p50.push(lat.latency_us(0.5));
            out.p95.push(lat.latency_us(0.95));
            out.p99.push(lat.latency_us(0.99));
            out.late_p99
                .push(quantile(&mut lat.late_ns.clone(), 0.99) as f64 / 1e3);
            out.phases.push(lat);
        }
        out
    }

    fn quiet(&self, values: &[f64]) -> f64 {
        quiet_median(values, &self.steal)
    }

    fn delivered(&self) -> u64 {
        self.phases.iter().map(|p| p.delivered).sum()
    }

    fn note(&self, tag: &str, notes: &mut Vec<String>) {
        notes.push(format!("{tag}: steal (ms) {}", join(&self.steal, 0)));
        notes.push(format!("{tag}: latency p10 (us) {}", join(&self.p10, 1)));
        notes.push(format!("{tag}: latency p50 (us) {}", join(&self.p50, 1)));
        notes.push(format!("{tag}: latency p95 (us) {}", join(&self.p95, 1)));
        notes.push(format!("{tag}: latency p99 (us) {}", join(&self.p99, 1)));
        notes.push(format!(
            "{tag}: generator late p99 (us) {}",
            join(&self.late_p99, 1)
        ));
    }
}

fn warm_up(w: &Workload, rig: &CellRig, stream: &mut Stream, ledger: &mut Ledger) {
    let n = (w.nominal_eps * WARMUP.as_secs_f64()).ceil() as u64;
    run_phase(rig, stream, ledger, Pace::Open(w.nominal_eps), n, None);
}

/// Walks the ladder upwards until two rungs in a row fall; returns the
/// highest rate that held. Above capacity the backlog grows within a
/// rung, so no rung there can hold; below it, an isolated stall fails
/// one rung without ending the walk.
fn ladder(
    w: &Workload,
    rig: &CellRig,
    stream: &mut Stream,
    ledger: &mut Ledger,
    notes: &mut Vec<String>,
) -> f64 {
    let mut best = 0.0;
    let mut fell = 0;
    for &rate in &w.ladder {
        let n = (rate * w.rung.as_secs_f64()).ceil() as u64;
        let mut held = false;
        // A rung holds if any of three attempts holds: above capacity
        // the backlog grows in every attempt, while a stall from outside
        // the process fails one attempt, not three.
        for _ in 0..3 {
            let c0 = rig.client_channel_stats().retransmits;
            let st = steal_ms();
            let out = run_phase(rig, stream, ledger, Pace::Open(rate), n, None);
            let stolen = steal_ms() - st;
            let retransmits = rig.client_channel_stats().retransmits - c0;
            let p95 = out.latency_us(0.95);
            let tail95 = quantile(&mut out.tail_latency_ns.clone(), 0.95) as f64 / 1e3;
            held = out.delivered == out.sent && p95 <= w.p95_limit_us && tail95 <= w.p95_limit_us;
            notes.push(format!(
                "ladder {rate:>7.0} ev/s: p95 {p95:>9.1} us, last-quarter p95 {tail95:>9.1} us, {retransmits} retransmits, steal {stolen} ms -> {}",
                if held { "held" } else { "fell" }
            ));
            if held {
                break;
            }
        }
        if held {
            best = rate;
            fell = 0;
        } else {
            fell += 1;
            if fell == 2 {
                break;
            }
        }
    }
    best
}

/// Latency rounds on each cell of a traced run of `seconds`.
fn traced_rounds(seconds: f64) -> usize {
    (rounds(seconds) / 3).max(3)
}

/// Number of measurement rounds in a run of `seconds`.
fn rounds(seconds: f64) -> usize {
    ((seconds / 2.0).round() as usize).max(3)
}

/// Unmeasured saturation repetitions before the measured ones.
const SAT_WARMUP: usize = 3;

fn join(values: &[f64], digits: usize) -> String {
    values
        .iter()
        .map(|v| format!("{v:.digits$}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// The untraced run: every end-to-end metric.
///
/// Latency and saturation are each measured in rounds, and only the
/// quieter rounds count, so a burst of interference from outside the
/// process moves which rounds count, not the result.
pub fn timed_run(w: &Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let base = Instant::now();
    let mut notes = vec![provenance(w, seed, false)];
    let mut setups = Vec::new();
    let mut rig = None;
    for k in 0..SETUPS {
        let r = start(
            &spec(w, seed, &format!("s{k}"), false, Tracer::disabled()),
            base,
        )?;
        setups.push(r.setup_ns as f64 / 1e9);
        if k + 1 < SETUPS {
            remove(r.shutdown());
        } else {
            rig = Some(r);
        }
    }
    let rig = rig.expect("at least one set-up");
    let mut stream = Stream::new(w.traffic, seed);
    let mut ledger = Ledger::new(base);
    warm_up(w, &rig, &mut stream, &mut ledger);

    // Open-loop latency first, while no saturation burst has disturbed
    // the channels; saturation repetitions last. Peak RSS is read after
    // saturation, whose high-water mark is the run's largest in every
    // workload listed: the generator caps what is in flight there, so a
    // stall from outside the process cannot raise it, while a backlog
    // that builds at the nominal rate during such a stall can.
    let lat = LatencyRounds::run(w, &rig, &mut stream, &mut ledger, rounds(seconds), None);
    for _ in 0..SAT_WARMUP {
        run_phase(
            &rig,
            &mut stream,
            &mut ledger,
            Pace::Saturate(inflight()),
            w.sat_events,
            None,
        );
    }
    let (mut tput, mut cpu, mut gen_cpu, mut sat_steal) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut sat = Vec::new();
    let c0 = rig.client_channel_stats();
    // On a badly disturbed host the repetitions slow down; stop starting
    // new ones once saturation alone has used the run's length.
    let started = Instant::now();
    for _ in 0..rounds(seconds) {
        if sat.len() >= 3 && started.elapsed().as_secs_f64() > seconds {
            break;
        }
        let st = steal_ms();
        let rep = run_phase(
            &rig,
            &mut stream,
            &mut ledger,
            Pace::Saturate(inflight()),
            w.sat_events,
            None,
        );
        let n = rep.delivered.max(1) as f64;
        sat_steal.push((steal_ms() - st) as f64 * 1e9 / rep.window_ns.max(1) as f64);
        tput.push(rep.throughput());
        cpu.push(rep.cpu_ns as f64 / 1e3 / n);
        gen_cpu.push(rep.gen_cpu_ns as f64 / 1e3 / n);
        sat.push(rep);
    }
    let c1 = rig.client_channel_stats();
    let rss = peak_rss_mb();

    lat.note("rounds", &mut notes);
    notes.push(format!("rounds: saturation (ev/s) {}", join(&tput, 0)));
    notes.push(format!(
        "rounds: saturation steal (ms/s) {}",
        join(&sat_steal, 0)
    ));
    notes.push(format!("rounds: cpu (us/event) {}", join(&cpu, 2)));
    notes.push(format!(
        "rounds: generator cpu (us/event, excluded) {}",
        join(&gen_cpu, 2)
    ));
    notes.push(format!(
        "rounds: client channels sent {} msgs, {} retransmits",
        c1.msgs_sent - c0.msgs_sent,
        c1.retransmits - c0.retransmits
    ));
    notes.push(format!("setups (s): {}", join(&setups, 4)));
    let mut metrics = BTreeMap::new();
    metrics.insert("setup_s".into(), (median(&setups), "s"));
    // Saturation is timed as one fixed event count: the events of the
    // quieter repetitions over the sum of their windows.
    let quiet = quiet_rounds(&sat_steal);
    let delivered = quiet.iter().map(|&i| sat[i].delivered).sum::<u64>().max(1) as f64;
    let window = quiet.iter().map(|&i| sat[i].window_ns).sum::<u64>().max(1) as f64;
    let cpu_ns = quiet.iter().map(|&i| sat[i].cpu_ns).sum::<u64>() as f64;
    metrics.insert("throughput_eps".into(), (delivered * 1e9 / window, "1/s"));
    // The gated latency is each round's p10: the host's scheduling
    // stalls reach most events of a round long before they reach its
    // fastest tenth, so p10 stays put while p50 can grow twentyfold.
    // p50 and the tail are reported by the traced run.
    metrics.insert("latency_p10_us".into(), (lat.quiet(&lat.p10), "us"));
    metrics.insert("cpu_us_per_event".into(), (cpu_ns / 1e3 / delivered, "us"));
    metrics.insert("peak_rss_mb".into(), (rss, "MB"));

    let verdict = verify(w, seed, rig, &mut ledger);
    notes.extend(verdict.notes);
    Ok(Outcome {
        correct: verdict.failed == 0,
        attempted: verdict.attempted,
        failed: verdict.failed,
        metrics,
        notes,
    })
}

/// The traced run: every per-layer metric, read over the timed window.
pub fn traced_run(w: &Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let base = Instant::now();
    let mut notes = vec![provenance(w, seed, true)];

    // A plain cell first: the untraced latency the overhead ratio is
    // taken against, the tail diagnostics, and the rate ladder.
    let plain = start(&spec(w, seed, "plain", false, Tracer::disabled()), base)?;
    let mut stream = Stream::new(w.traffic, seed);
    let mut ledger = Ledger::new(base);
    warm_up(w, &plain, &mut stream, &mut ledger);
    let untraced = LatencyRounds::run(
        w,
        &plain,
        &mut stream,
        &mut ledger,
        traced_rounds(seconds),
        None,
    );
    untraced.note("untraced", &mut notes);
    let sustained = ladder(w, &plain, &mut stream, &mut ledger, &mut notes);
    let plain_verdict = verify(w, seed, plain, &mut ledger);

    // The instrumented cell: decorators, the cell's hop tracer, spans.
    let sink = Arc::new(TraceSink::with_capacity(1 << 20));
    let tracer = Tracer::new(Arc::clone(&sink), system_clock());
    let rig = start(&spec(w, seed, "traced", true, tracer), base)?;
    let spans = SpanLog::new();
    let mut stream = Stream::new(w.traffic, seed);
    let mut ledger = Ledger::new(base);
    warm_up(w, &rig, &mut stream, &mut ledger);

    let nurse_id = rig.nurse.local_id();
    let pub_id = rig.publisher.local_id();
    let proxy = rig.cell.proxy(nurse_id);
    let t0 = rig.transport_counts();
    let w0 = rig.wal_counts();
    let n0 = rig.net_stats();
    let c0 = rig.client_channel_stats();
    let m0 = rig.cell.metrics();
    let p0 = proxy.as_ref().map(|p| p.stats()).unwrap_or_default();
    let s0: Vec<(u64, u64)> = rig.metered_sinks.iter().map(|s| s.counts()).collect();

    let traced = LatencyRounds::run(
        w,
        &rig,
        &mut stream,
        &mut ledger,
        traced_rounds(seconds),
        Some(&spans),
    );
    traced.note("traced", &mut notes);
    let legs = hop_legs(&sink, pub_id, &traced.phases);
    let sat: Vec<PhaseOut> = (0..SAT_WARMUP)
        .map(|_| {
            run_phase(
                &rig,
                &mut stream,
                &mut ledger,
                Pace::Saturate(inflight()),
                w.sat_events,
                None,
            )
        })
        .collect();

    let events: u64 = traced.delivered() + sat.iter().map(|p| p.delivered).sum::<u64>();
    let e = events.max(1) as f64;
    let t = rig.transport_counts() - t0;
    let wal = rig.wal_counts() - w0;
    let n1 = rig.net_stats();
    let c1 = rig.client_channel_stats();
    let m1 = rig.cell.metrics();
    let p1 = proxy.as_ref().map(|p| p.stats()).unwrap_or_default();
    let (sink_calls, sink_ns) = rig
        .metered_sinks
        .iter()
        .zip(&s0)
        .map(|(s, (c, ns))| (s.counts().0 - c, s.counts().1 - ns))
        .fold((0, 0), |(a, b), (c, d)| (a + c, b + d));
    let admit_ms = mean(&rig.admit_ns) / 1e6;
    let client_filter_set = client_filters(w.traffic);
    let local = rig.filters.clone();

    let verdict = verify(w, seed, rig, &mut ledger);
    let replay = isolation_replay(
        w.traffic,
        seed,
        w.replay_events,
        pub_id,
        &local,
        (nurse_id, &client_filter_set),
        &spans,
    );
    let span_means = spans.mean_self_ns();
    let publish_ns = span_means.get("client.publish").copied().unwrap_or(0.0);

    let lost = match w.net {
        Net::Mem => (n1.lost - n0.lost) as f64,
        Net::Udp => t.sent.saturating_sub(t.received) as f64,
    };
    let datagrams = t.sent as f64 / e;
    let send_ns = t.send_ns as f64 / t.sent.max(1) as f64;
    let dispatch_busy_ns = span_means
        .get("codec.decode_publish")
        .copied()
        .unwrap_or(0.0)
        + replay.check_ns
        + replay.publish_ns
        + replay.on_event_ns
        + span_means
            .get("codec.encode_deliver")
            .copied()
            .unwrap_or(0.0);
    let busy_path_ns = publish_ns
        + dispatch_busy_ns
        + span_means
            .get("codec.decode_deliver")
            .copied()
            .unwrap_or(0.0)
        + send_ns * datagrams;
    let p50 = traced.quiet(&traced.p50);
    let untraced_p50 = untraced.quiet(&untraced.p50);

    let mut m = BTreeMap::new();
    let mut put = |k: &str, v: f64, unit: &'static str| {
        m.insert(k.to_owned(), (v, unit));
    };
    put("transport.datagrams_per_event", datagrams, "count");
    put("transport.bytes_per_event", t.bytes as f64 / e, "B");
    put("transport.send_ns", send_ns, "ns");
    put(
        "transport.recv_wait_us",
        t.recv_wait_ns as f64 / 1e3 / t.received.max(1) as f64,
        "us",
    );
    put("transport.lost", lost, "count");
    put(
        "reliable.retransmit_ratio",
        (c1.retransmits - c0.retransmits) as f64 / (c1.msgs_sent - c0.msgs_sent).max(1) as f64,
        "ratio",
    );
    put(
        "reliable.dup_suppressed_per_kevent",
        (c1.duplicates_suppressed - c0.duplicates_suppressed) as f64 * 1e3 / e,
        "count",
    );
    put(
        "reliable.expired",
        (c1.msgs_expired - c0.msgs_expired) as f64,
        "count",
    );
    put("codec.encode_ns", replay.encode_ns, "ns");
    put("codec.decode_ns", replay.decode_ns, "ns");
    put("codec.bytes_per_event", replay.bytes_per_event, "B");
    put("smc.dispatch_busy_us", dispatch_busy_ns / 1e3, "us");
    put("smc.handoff_wait_us", p50 - busy_path_ns / 1e3, "us");
    put("policy.check_ns", replay.check_ns, "ns");
    put("policy.on_event_ns", replay.on_event_ns, "ns");
    put(
        "policy.actions_per_event",
        replay.actions_per_event,
        "count",
    );
    put("match.ns", replay.match_ns, "ns");
    put("match.matched_per_event", replay.matched_per_event, "count");
    put("bus.publish_ns", replay.publish_ns, "ns");
    put(
        "bus.deliveries_per_event",
        (m1.deliveries - m0.deliveries) as f64 / e,
        "count",
    );
    put(
        "bus.sink_ns",
        sink_ns as f64 / sink_calls.max(1) as f64,
        "ns",
    );
    put("proxy.queue_hwm", p1.queue_depth_hwm as f64, "count");
    put(
        "proxy.downlinked_per_event",
        (p1.events_downlinked - p0.events_downlinked) as f64 / e,
        "count",
    );
    put("wal.appends_per_event", wal.appends as f64 / e, "count");
    put("wal.fsyncs_per_event", wal.fsyncs as f64 / e, "count");
    put("wal.bytes_per_event", wal.bytes as f64 / e, "B");
    put(
        "wal.fsync_us",
        wal.fsync_ns as f64 / 1e3 / wal.fsyncs.max(1) as f64,
        "us",
    );
    put("wal.recovery_ms", verdict.recovery_ns as f64 / 1e6, "ms");
    put("discovery.admit_ms", admit_ms, "ms");
    put("client.publish_ns", publish_ns, "ns");
    put(
        "client.gen_late_p99_us",
        traced.quiet(&traced.late_p99),
        "us",
    );
    put(
        "trace.overhead_ratio",
        p50 / untraced_p50.max(1e-9),
        "ratio",
    );
    put("latency_p50_us", untraced_p50, "us");
    put("latency_p95_us", untraced.quiet(&untraced.p95), "us");
    put("sustained_eps", sustained, "1/s");
    put("e2e.latency_p99_us", untraced.quiet(&untraced.p99), "us");
    for (name, v) in &legs {
        put(name, *v, "us");
    }
    let attempted = verdict.attempted + plain_verdict.attempted;
    let mut failed = verdict.failed + plain_verdict.failed;
    // A workload that loads a layer it claims to bypass fails the run.
    for (name, (value, _)) in &m {
        if w.bypasses.iter().any(|b| name.starts_with(b)) && *value != 0.0 {
            notes.push(format!(
                "checks: {name} = {value} on a workload that bypasses it"
            ));
            failed += 1;
        }
    }
    m.insert(
        "e2e.fail_ratio".into(),
        (failed as f64 / attempted.max(1) as f64, "ratio"),
    );

    notes.extend(plain_verdict.notes);
    notes.extend(verdict.notes);
    notes.push(format!(
        "traced latency p50 {p50:.1} us vs untraced {untraced_p50:.1} us; busy path {:.1} us",
        busy_path_ns / 1e3
    ));
    let path = work_dir().join(format!("spans-{}-seed{seed}.jsonl", w.name));
    match spans.write_jsonl(&path) {
        Ok(()) => notes.push(format!(
            "spans: {} written to {}",
            spans.spans().len(),
            path.display()
        )),
        Err(e) => notes.push(format!("spans: write failed: {e}")),
    }
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: m,
        notes,
    })
}

/// Median per-leg hop deltas (µs) of the traced latency phase, from the
/// cell's hop tracer plus the client-side send stamp and receipt time.
fn hop_legs(
    sink: &TraceSink,
    publisher: smc_types::ServiceId,
    phases: &[PhaseOut],
) -> Vec<(String, f64)> {
    let mut legs: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for mark in phases.iter().flat_map(|p| p.marks.iter().step_by(4)) {
        let journey = sink.journey(TraceId::for_event(publisher, mark.seq));
        let at = |hop: Hop| {
            journey
                .hops
                .iter()
                .find(|r| r.hop == hop)
                .map(|r| r.at_micros)
        };
        let (Some(published), Some(matched), Some(enqueued), Some(sent)) = (
            at(Hop::Published),
            at(Hop::Matched),
            at(Hop::ProxyEnqueued),
            at(Hop::TxSent),
        ) else {
            continue;
        };
        let mut push =
            |k: &'static str, a: u64, b: u64| legs.entry(k).or_default().push(b.saturating_sub(a));
        push("hop.uplink_us", mark.sent_us, published);
        push("hop.match_us", published, matched);
        push("hop.fanout_us", matched, enqueued);
        push("hop.outq_us", enqueued, sent);
        push("hop.downlink_us", sent, mark.recv_us);
    }
    [
        "hop.uplink_us",
        "hop.match_us",
        "hop.fanout_us",
        "hop.outq_us",
        "hop.downlink_us",
    ]
    .iter()
    .map(|k| {
        let v = legs
            .get(k)
            .map(|v| median(&v.iter().map(|&x| x as f64).collect::<Vec<_>>()));
        (k.to_string(), v.unwrap_or(0.0))
    })
    .collect()
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The provenance stanza of a run, as one JSON object.
pub fn provenance(w: &Workload, seed: u64, trace: bool) -> String {
    let r = ReliableConfig::default();
    let d = DiscoveryConfig::default();
    format!(
        "{{\"provenance\":{{\"workload\":\"{}\",\"seed\":{seed},\"trace\":{trace},\"nproc\":{},\"commit\":\"{}\",\"rustc\":\"{}\",\"profile\":\"{}\",\"transport\":\"{}\",\"durable\":{},\"reliable\":{{\"initial_rto_ms\":{},\"backoff\":{},\"max_rto_ms\":{},\"window\":{},\"poll_interval_ms\":{}}},\"discovery\":{{\"beacon_interval_ms\":{},\"lease_ms\":{},\"grace_ms\":{}}}}}}}",
        w.name,
        nproc(),
        command_line("git", &["rev-parse", "HEAD"]),
        command_line("rustc", &["--version"]),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        w.net.name(),
        w.durable,
        r.initial_rto.as_millis(),
        r.backoff,
        r.max_rto.as_millis(),
        r.window,
        r.poll_interval.as_millis(),
        d.beacon_interval.as_millis(),
        d.lease.as_millis(),
        d.grace.as_millis(),
    )
}

/// Removes the run's working directory if it is empty.
pub fn tidy(dir: &Path) {
    let _ = std::fs::remove_dir(dir);
}
