//! Publish-path throughput bench: the lock-free snapshot bus against a
//! reconstruction of the pre-snapshot locked hot path, measured in the
//! same process and the same run.
//!
//! ```text
//! cargo run --release -p smc-bench --bin publish_throughput -- \
//!     [--events 20000] [--smoke] [--gate]
//! ```
//!
//! The sweep crosses publisher count × fan-out. For every cell both
//! arms do the same semantic work — match the event, skip the
//! publisher, hand each interested subscriber a deliverable packet —
//! but the baseline arm pays the old costs (three lock acquisitions per
//! publish, one event clone plus one full packet encode per subscriber)
//! while the snapshot arm publishes through [`EventBus::publish`], the
//! path the cell runs: one route-snapshot load and one shared encode
//! per publish.
//!
//! Every publisher thread times its own work, and a cell's wall time is
//! [`wall_time`] over those spans — earliest start to latest end — so
//! the clock can never start after the work finished.
//!
//! Writes `results/BENCH_perf.json`, with the host's core count, the
//! commit, the compiler and the build profile in its `config` stanza.
//! With `--gate`, the committed `results/BENCH_perf.json` is read
//! *first* and the run fails if the fresh overall speedup or the fresh
//! fan-out-1 ratio drops below [`GATE_FRACTION`] of the committed one —
//! the CI regression gate.
//!
//! Fan-out 1 is tracked separately as `fanout1_ratio`: one subscriber
//! never amortises the shared encode, so the snapshot path runs below
//! the locked path there (0.83–0.91× in the committed baseline). It is
//! gated against the committed ratio, like the geomean, rather than
//! against an absolute floor.

use std::collections::HashMap;
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use smc_bench::json::Json;
use smc_bench::{obj, results_dir, wall_time, HarnessArgs};
use smc_core::{DeliveryFrame, EventBus, EventSink};
use smc_match::{EngineKind, Matcher};
use smc_telemetry::{CriticalPath, Hop, StageRow, TraceSink, Tracer};
use smc_types::codec::to_bytes;
use smc_types::{
    system_clock, Event, Filter, Packet, Result, ServiceId, Subscription, SubscriptionId, TraceId,
};

/// The regression gate: a fresh run must reach at least this fraction of
/// the committed overall speedup and of the committed fan-out-1 ratio.
const GATE_FRACTION: f64 = 0.85;

/// The gate fraction when the fresh run and the committed baseline ran
/// at different `events_per_publisher` scales (a smoke run gated
/// against a full-run baseline): per-cell throughput is much noisier at
/// smoke scale, so both gated ratios get more headroom. The sentinel
/// applies the same like-for-like rule per cell.
const SCALE_MISMATCH_GATE_FRACTION: f64 = 0.70;

/// Repetitions per arm per sweep cell; each cell reports the best run.
/// Throughput noise on a shared host is one-sided — scheduler stalls
/// only ever slow a run down — so max-of-N is the low-variance
/// estimator, and it is what keeps the fan-out-1 gate from flapping
/// on small CI runners.
const MEASURE_REPS: usize = 2;

/// Counts deliveries and delivered bytes; the snapshot arm's sink takes
/// a reference-counted handle on the shared encoded frame, exactly as a
/// proxy enqueue does.
#[derive(Default)]
struct CountingSink {
    delivered: AtomicU64,
    bytes: AtomicU64,
}

impl EventSink for CountingSink {
    fn deliver(&self, event: &Event) -> Result<()> {
        self.delivered.fetch_add(1, Ordering::Relaxed);
        self.bytes
            .fetch_add(event.payload().len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn deliver_frame(&self, frame: &DeliveryFrame<'_>) -> Result<()> {
        let encoded = frame.encoded();
        self.delivered.fetch_add(1, Ordering::Relaxed);
        self.bytes
            .fetch_add(encoded.len() as u64, Ordering::Relaxed);
        Ok(())
    }
}

/// The pre-snapshot hot path, reconstructed for the baseline arm: the
/// matcher, the sink map and the tracer each behind their own mutex, a
/// fresh allocation for the match result, and one event clone plus one
/// packet encode per subscriber.
struct LockedBus {
    engine: Mutex<Box<dyn Matcher>>,
    sinks: Mutex<HashMap<ServiceId, Arc<CountingSink>>>,
    tracer: Mutex<Tracer>,
}

impl LockedBus {
    fn new(kind: EngineKind) -> Self {
        LockedBus {
            engine: Mutex::new(kind.build()),
            sinks: Mutex::new(HashMap::new()),
            tracer: Mutex::new(Tracer::disabled()),
        }
    }

    fn subscribe(&self, id: u64, subscriber: ServiceId, filter: Filter, sink: Arc<CountingSink>) {
        self.engine
            .lock()
            .subscribe(Subscription::new(SubscriptionId(id), subscriber, filter))
            .expect("baseline subscribe");
        self.sinks.lock().insert(subscriber, sink);
    }

    fn publish(&self, event: &Event) -> usize {
        let trace = TraceId::for_event(event.publisher(), event.seq());
        self.tracer.lock().record(trace, Hop::Published);
        let targets = self.engine.lock().matching_subscribers(event);
        let sinks = self.sinks.lock();
        let mut delivered = 0;
        for subscriber in targets {
            if subscriber == event.publisher() {
                continue;
            }
            if let Some(sink) = sinks.get(&subscriber) {
                let packet = Packet::Deliver {
                    event: event.clone(),
                    trace,
                };
                let bytes = to_bytes(&packet);
                sink.delivered.fetch_add(1, Ordering::Relaxed);
                sink.bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
                delivered += 1;
            }
        }
        delivered
    }
}

/// Records a [`Hop::Delivered`] per frame so the attribution pass can
/// split publish → match → deliver in wall-clock time; pays the shared
/// encode exactly as a proxy enqueue does.
struct AttributingSink {
    tracer: Tracer,
}

impl EventSink for AttributingSink {
    fn deliver(&self, event: &Event) -> Result<()> {
        self.tracer.record(
            TraceId::for_event(event.publisher(), event.seq()),
            Hop::Delivered,
        );
        Ok(())
    }

    fn deliver_frame(&self, frame: &DeliveryFrame<'_>) -> Result<()> {
        let _ = frame.encoded();
        self.tracer.record(frame.trace(), Hop::Delivered);
        Ok(())
    }
}

const EVENT_TYPE: &str = "bench.reading";

fn bench_event(publisher: u64) -> Event {
    Event::builder(EVENT_TYPE)
        .publisher(ServiceId::from_raw(0x9000 + publisher))
        .seq(1)
        .attr("bpm", 120i64)
        .payload(vec![0xEE; 64])
        .build()
}

/// Total deliveries recorded across `sinks`.
fn total_delivered(sinks: &[Arc<CountingSink>]) -> u64 {
    sinks
        .iter()
        .map(|s| s.delivered.load(Ordering::Relaxed))
        .sum()
}

/// The gated figures of a committed results file.
struct Committed {
    speedup_total: f64,
    fanout1_ratio: f64,
    /// The sweep scale; it disambiguates smoke-vs-full gate comparisons.
    events_per_publisher: u64,
}

impl Committed {
    /// Reads the gated figures back out of a committed results file.
    fn read(path: &str) -> Result<Committed, String> {
        let perf = Json::read(path)?;
        let gated = |key| {
            perf.num(key)
                .ok_or_else(|| format!("'{path}' has no \"{key}\""))
        };
        let config = perf.get("config");
        Ok(Committed {
            speedup_total: gated("speedup_total")?,
            fanout1_ratio: gated("fanout1_ratio")?,
            events_per_publisher: config
                .and_then(|c| c.num("events_per_publisher"))
                .unwrap_or(0.0) as u64,
        })
    }
}

/// The first line a command prints, or `"unknown"` if it cannot run.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(|l| l.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Geometric mean of the given speedups.
fn geomean(speedups: &[f64]) -> f64 {
    (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64).exp()
}

fn main() {
    let args = HarnessArgs::from_env();
    let smoke = args.has("smoke");
    let gate = args.has("gate");
    let events_each: usize = args.get("events", if smoke { 4_000 } else { 20_000 });
    let publisher_sweep: &[usize] = if smoke { &[1, 4] } else { &[1, 2, 4] };
    // The smoke sweep keeps the full fan-out axis: fan-out 1 so the
    // tracked single-subscriber ratio is exercised on every CI run, and
    // the rest so the gated geomean stays comparable to the committed
    // full-run baseline (smoke only trims events and publisher counts).
    let fanout_sweep: &[usize] = &[1, 8, 32];

    let committed = if gate {
        match Committed::read("results/BENCH_perf.json") {
            Ok(committed) => Some(committed),
            Err(e) => {
                eprintln!("FAIL: --gate needs the committed baseline: {e}");
                std::process::exit(1);
            }
        }
    } else {
        None
    };

    eprintln!("# publish throughput sweep ({events_each} events/publisher, smoke: {smoke})");
    eprintln!(
        "{:>10} {:>7} {:>16} {:>16} {:>9}",
        "publishers", "fanout", "locked_ev/s", "snapshot_ev/s", "speedup"
    );

    // The attribution pass runs far fewer events than the timed arms:
    // it only needs stable stage *shares*, not throughput.
    let attr_events: usize = args.get("attr-events", if smoke { 200 } else { 1_000 });

    struct Row {
        publishers: usize,
        fanout: usize,
        locked: f64,
        snapshot: f64,
        speedup: f64,
    }

    let mut rows: Vec<Row> = Vec::new();
    let mut stage_tables: Vec<Vec<StageRow>> = Vec::new();
    let best_of = |measure: &dyn Fn() -> f64| {
        (0..MEASURE_REPS)
            .map(|_| measure())
            .fold(f64::MIN, f64::max)
    };
    for &publishers in publisher_sweep {
        for &fanout in fanout_sweep {
            let locked = best_of(&|| measure_locked(publishers, fanout, events_each));
            let snapshot = best_of(&|| measure_snapshot(publishers, fanout, events_each));
            let speedup = snapshot / locked.max(1.0);
            let stages = attribute_snapshot(publishers, fanout, attr_events);
            let deliver_share = stages
                .iter()
                .find(|s| s.stage == "deliver")
                .map(|s| s.share_milli)
                .unwrap_or(0);
            eprintln!(
                "{publishers:>10} {fanout:>7} {locked:>16.0} {snapshot:>16.0} {speedup:>8.2}x \
                 deliver={}m",
                deliver_share
            );
            rows.push(Row {
                publishers,
                fanout,
                locked,
                snapshot,
                speedup,
            });
            stage_tables.push(stages);
        }
    }

    // Overall figure: geometric mean of the per-cell speedups where the
    // snapshot path is meant to win (fan-out > 1), so no single cell
    // dominates. Fan-out-1 cells carry a known, accepted gap and get
    // their own gated ratio instead of dragging the overall number.
    let gated: Vec<f64> = rows
        .iter()
        .filter(|r| r.fanout > 1)
        .map(|r| r.speedup)
        .collect();
    assert!(!gated.is_empty(), "sweep must cover fan-out > 1");
    let speedup_total = geomean(&gated);
    let fanout1: Vec<f64> = rows
        .iter()
        .filter(|r| r.fanout == 1)
        .map(|r| r.speedup)
        .collect();
    assert!(
        !fanout1.is_empty(),
        "sweep must exercise the fan-out-1 snapshot path"
    );
    let fanout1_ratio = geomean(&fanout1);
    let shared = payload_sharing_proof();
    eprintln!("overall speedup (geomean, fan-out > 1): {speedup_total:.2}x");
    eprintln!("fan-out-1 ratio: {fanout1_ratio:.2}x");
    eprintln!("payload buffer shared across fan-out: {shared}");

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let commit = command_line("git", &["describe", "--always", "--dirty", "--abbrev=12"]);
    let rustc = command_line("rustc", &["--version"]);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let results = rows.iter().zip(&stage_tables).map(|(row, stages)| {
        let stages = stages.iter().map(|s| {
            obj! {
                "stage": s.stage.as_str(),
                "kind": s.kind.name(),
                "count": s.count,
                "total_micros": s.total_micros,
                "share_milli": s.share_milli,
                "p50_micros": s.p50_micros,
                "p95_micros": s.p95_micros,
                "p99_micros": s.p99_micros,
            }
        });
        obj! {
            "publishers": row.publishers,
            "fanout": row.fanout,
            "locked_events_per_sec": Json::fixed(row.locked, 0),
            "snapshot_events_per_sec": Json::fixed(row.snapshot, 0),
            "speedup": Json::fixed(row.speedup, 3),
            "stages": stages.collect::<Vec<_>>(),
        }
    });
    let artifact = obj! {
        "bench": "publish_throughput",
        "config": obj! {
            "events_per_publisher": events_each,
            "engine": "fastforward",
            "payload_bytes": 64u64,
            "cores": cores,
            "commit": commit,
            "rustc": rustc,
            "profile": profile,
            "smoke": smoke,
        },
        "results": results.collect::<Vec<_>>(),
        "speedup_total": Json::fixed(speedup_total, 3),
        "gate_fraction": GATE_FRACTION,
        "fanout1_ratio": Json::fixed(fanout1_ratio, 3),
        "payload_buffer_shared_across_fanout": shared,
    };
    let target = results_dir().join("BENCH_perf.json");
    artifact.write(&target).expect("write BENCH_perf.json");
    eprintln!("wrote {}", target.display());

    if !shared {
        eprintln!("FAIL: fan-out did not share one payload buffer");
        std::process::exit(1);
    }
    if let Some(committed) = committed {
        let fraction = if committed.events_per_publisher == events_each as u64 {
            GATE_FRACTION
        } else {
            eprintln!(
                "gate: committed baseline ran {} events/publisher, this run {events_each} — \
                 scale mismatch, gating at the relaxed {SCALE_MISMATCH_GATE_FRACTION} fraction",
                committed.events_per_publisher
            );
            SCALE_MISMATCH_GATE_FRACTION
        };
        let mut failed = false;
        for (name, fresh, base) in [
            ("speedup", speedup_total, committed.speedup_total),
            ("fan-out-1 ratio", fanout1_ratio, committed.fanout1_ratio),
        ] {
            let floor = base * fraction;
            if fresh < floor {
                eprintln!(
                    "FAIL: {name} {fresh:.2}x below {fraction} × committed {base:.2}x = {floor:.2}x"
                );
                failed = true;
            } else {
                eprintln!("gate ok: {name} {fresh:.2}x ≥ {fraction} × {base:.2}x");
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}

/// Releases `publishers` threads together, runs `work(p)` on thread `p`,
/// and returns the cell's wall time over the threads' own spans.
fn run_publishers(publishers: usize, work: impl Fn(usize) + Sync) -> Duration {
    let barrier = Barrier::new(publishers);
    let spans: Vec<(Instant, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..publishers)
            .map(|p| {
                let (barrier, work) = (&barrier, &work);
                scope.spawn(move || {
                    barrier.wait();
                    let start = Instant::now();
                    work(p);
                    (start, Instant::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("publisher thread"))
            .collect()
    });
    wall_time(&spans)
}

/// One sweep cell on the baseline arm; returns events/second.
fn measure_locked(publishers: usize, fanout: usize, events_each: usize) -> f64 {
    let bus = LockedBus::new(EngineKind::FastForward);
    let sinks: Vec<Arc<CountingSink>> = (0..fanout)
        .map(|i| {
            let sink = Arc::new(CountingSink::default());
            bus.subscribe(
                i as u64,
                ServiceId::from_raw(0x100 + i as u64),
                Filter::for_type(EVENT_TYPE),
                Arc::clone(&sink),
            );
            sink
        })
        .collect();
    let secs = run_publishers(publishers, |p| {
        let event = bench_event(p as u64);
        for _ in 0..events_each {
            bus.publish(&event);
        }
    })
    .as_secs_f64();
    let expected = (publishers * events_each * fanout) as u64;
    assert_eq!(
        total_delivered(&sinks),
        expected,
        "baseline arm dropped deliveries"
    );
    (publishers * events_each) as f64 / secs
}

/// One sweep cell on the snapshot arm; returns events/second.
fn measure_snapshot(publishers: usize, fanout: usize, events_each: usize) -> f64 {
    let bus = EventBus::new(EngineKind::FastForward);
    let sinks: Vec<Arc<CountingSink>> = (0..fanout)
        .map(|i| {
            let sink = Arc::new(CountingSink::default());
            bus.subscribe(
                ServiceId::from_raw(0x100 + i as u64),
                Filter::for_type(EVENT_TYPE),
                Arc::clone(&sink) as Arc<dyn EventSink>,
            )
            .expect("subscribe");
            sink
        })
        .collect();
    let secs = run_publishers(publishers, |p| {
        let event = bench_event(p as u64);
        for _ in 0..events_each {
            bus.publish(event.clone()).expect("publish");
        }
    })
    .as_secs_f64();
    let expected = (publishers * events_each * fanout) as u64;
    assert_eq!(
        total_delivered(&sinks),
        expected,
        "snapshot arm dropped deliveries"
    );
    (publishers * events_each) as f64 / secs
}

/// One sweep cell's wall-clock stage attribution on the snapshot arm:
/// a separate, traced pass over `events_each` events per publisher
/// (distinct seqs, so every publish is its own journey), folded through
/// [`CriticalPath`]. Published→Matched lands in "match" (snapshot load
/// plus match), Matched→Delivered in "deliver" (the shared encode plus
/// per-subscriber delivery) — at fan-out 1 the unamortised encode shows
/// up here, which is exactly the 0.70–0.94× gap's home.
fn attribute_snapshot(publishers: usize, fanout: usize, events_each: usize) -> Vec<StageRow> {
    let capacity = publishers * events_each * (fanout + 2) + 64;
    let ring = Arc::new(TraceSink::with_capacity(capacity));
    let tracer = Tracer::new(Arc::clone(&ring), system_clock());
    let bus = Arc::new(EventBus::new(EngineKind::FastForward));
    bus.set_tracer(tracer.clone());
    for i in 0..fanout {
        bus.subscribe(
            ServiceId::from_raw(0x100 + i as u64),
            Filter::for_type(EVENT_TYPE),
            Arc::new(AttributingSink {
                tracer: tracer.clone(),
            }) as Arc<dyn EventSink>,
        )
        .expect("subscribe");
    }
    run_publishers(publishers, |p| {
        for seq in 1..=events_each {
            let event = Event::builder(EVENT_TYPE)
                .publisher(ServiceId::from_raw(0x9000 + p as u64))
                .seq(seq as u64)
                .attr("bpm", 120i64)
                .payload(vec![0xEE; 64])
                .build();
            bus.publish(event).expect("publish");
        }
    });
    let mut cp = CriticalPath::new();
    cp.fold_window(&ring.records());
    cp.table()
}

/// Retains every delivered event (as a proxy queue would) and proves the
/// payload buffer is the publisher's own, shared across the whole
/// fan-out — the zero-copy claim.
fn payload_sharing_proof() -> bool {
    #[derive(Default)]
    struct RetainingSink {
        events: Mutex<Vec<Event>>,
    }
    impl EventSink for RetainingSink {
        fn deliver(&self, event: &Event) -> Result<()> {
            self.events.lock().push(event.clone());
            Ok(())
        }
    }
    let bus = EventBus::new(EngineKind::FastForward);
    let sinks: Vec<Arc<RetainingSink>> = (0..32)
        .map(|i| {
            let sink = Arc::new(RetainingSink::default());
            bus.subscribe(
                ServiceId::from_raw(0x100 + i as u64),
                Filter::for_type(EVENT_TYPE),
                Arc::clone(&sink) as Arc<dyn EventSink>,
            )
            .expect("subscribe");
            sink
        })
        .collect();
    let event = bench_event(0);
    let original = event.payload_shared().clone();
    bus.publish(event).expect("publish");
    sinks.iter().all(|s| {
        let events = s.events.lock();
        events.len() == 1 && events[0].payload_shared().ptr_eq(&original)
    })
}
