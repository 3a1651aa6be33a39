//! The load generator: one sender thread and one receive-drain thread
//! per phase, against anything implementing [`Rig`].
//!
//! * Open-loop phases send event `k` at `start + k / rate` whether or
//!   not earlier events were delivered, and time each event's latency
//!   from that *scheduled* send time, so a stall anywhere delays (and is
//!   charged to) every event scheduled behind it. How late the sender
//!   itself ran is recorded as generator lateness.
//! * Saturation phases keep a bounded number of events in flight and
//!   time the phase from the first send to the last receipt on any
//!   thread.
//!
//! The drain checks exactly-once, per-publisher FIFO and the content
//! checksum of every delivery into a run-wide [`Ledger`].

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use smc_types::{Event, ServiceId};

use crate::gen::{content_hash, index_of, Stream, ALARM};
use crate::spans::SpanLog;
use crate::stats::{process_cpu_ns, quantile, since, thread_cpu_ns, window_ns};

/// The system under test, as the generator sees it.
pub trait Rig: Sync {
    /// Publishes one event without waiting for delivery.
    ///
    /// # Errors
    ///
    /// A description of the publish failure.
    fn publish(&self, event: Event) -> Result<(), String>;

    /// The next event delivered to the subscribing client, if one
    /// arrives within `timeout`.
    fn recv(&self, timeout: Duration) -> Option<Event>;

    /// Latest delivery on any other delivery path (cell-side sinks), in
    /// ns since the run's base instant; 0 when there is none.
    fn sink_last_ns(&self) -> u64 {
        0
    }

    /// Cadence of control-plane work run beside the data plane.
    fn control_every(&self) -> Option<Duration> {
        None
    }

    /// Performs the next control-plane step. Called from the thread
    /// that orchestrates the phase (idle otherwise), never from the
    /// sender or the drain, so a blocking control call delays neither.
    fn control(&self) {}
}

/// How a phase paces its sends.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Fixed rate in events/s, open loop.
    Open(f64),
    /// As fast as possible with at most this many events undelivered.
    Saturate(u64),
}

/// Run-wide delivery bookkeeping (owned by the drain while a phase
/// runs, by the caller in between).
#[derive(Debug)]
pub struct Ledger {
    /// Run base instant all `*_ns` fields count from.
    pub base: Instant,
    /// Content checksum of every event sent, by index.
    pub sent_hash: Vec<u64>,
    /// Times each event was delivered to the subscribing client.
    pub got: Vec<u8>,
    /// Deliveries whose checksum differed from the sent one.
    pub corrupted: u64,
    /// Deliveries out of per-publisher order.
    pub reordered: u64,
    /// Deliveries of an index already delivered.
    pub duplicated: u64,
    /// Deliveries of an index never sent.
    pub unknown: u64,
    /// Publish calls that failed.
    pub publish_errors: u64,
    /// Alarm events the subscribing client received, in order.
    pub alarms: Vec<Event>,
    last_index: Option<u64>,
    last_alarm_seq: Option<(ServiceId, u64)>,
}

impl Ledger {
    /// An empty ledger timed from `base`.
    pub fn new(base: Instant) -> Self {
        Ledger {
            base,
            sent_hash: Vec::new(),
            got: Vec::new(),
            corrupted: 0,
            reordered: 0,
            duplicated: 0,
            unknown: 0,
            publish_errors: 0,
            alarms: Vec::new(),
            last_index: None,
            last_alarm_seq: None,
        }
    }

    /// Events sent so far.
    pub fn sent(&self) -> u64 {
        self.sent_hash.len() as u64
    }

    /// Sent events never delivered.
    pub fn lost(&self) -> u64 {
        self.got.iter().filter(|&&g| g == 0).count() as u64
            + (self.sent_hash.len() - self.got.len().min(self.sent_hash.len())) as u64
    }

    /// Records one delivery; returns the event index for data events.
    fn record(&mut self, ev: &Event) -> Option<u64> {
        if ev.event_type() == ALARM {
            let key = (ev.publisher(), ev.seq());
            if let Some((p, s)) = self.last_alarm_seq {
                if p == key.0 && key.1 <= s {
                    self.reordered += 1;
                }
            }
            self.last_alarm_seq = Some(key);
            self.alarms.push(ev.clone());
            return None;
        }
        let Some(i) = index_of(ev) else {
            self.unknown += 1;
            return None;
        };
        if i >= self.sent() {
            self.unknown += 1;
            return None;
        }
        if self.got.len() <= i as usize {
            self.got.resize(i as usize + 1, 0);
        }
        self.got[i as usize] = self.got[i as usize].saturating_add(1);
        if self.got[i as usize] > 1 {
            self.duplicated += 1;
        }
        if self.last_index.is_some_and(|last| i <= last) {
            self.reordered += 1;
        }
        self.last_index = Some(i);
        if content_hash(ev) != self.sent_hash[i as usize] {
            self.corrupted += 1;
        }
        Some(i)
    }

    /// Delivery failures so far (lost + duplicated + reordered +
    /// corrupted + unknown + publish errors).
    pub fn failures(&self) -> u64 {
        self.lost()
            + self.duplicated
            + self.reordered
            + self.corrupted
            + self.unknown
            + self.publish_errors
    }
}

/// One delivered event's timing marks (traced runs only).
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    /// Publisher-assigned sequence number.
    pub seq: u64,
    /// The publisher's stamp (wall-clock µs) — when the client sent it.
    pub sent_us: u64,
    /// Wall-clock µs when the drain received it.
    pub recv_us: u64,
}

/// What one phase measured.
#[derive(Debug, Default)]
pub struct PhaseOut {
    /// Events the phase sent.
    pub sent: u64,
    /// Of those, delivered within the phase.
    pub delivered: u64,
    /// Latency of each delivered event, ns from its reference send time.
    pub latency_ns: Vec<u64>,
    /// Latencies of the final quarter of the schedule.
    pub tail_latency_ns: Vec<u64>,
    /// Generator lateness per event (ns behind schedule; open loop).
    pub late_ns: Vec<u64>,
    /// Throughput window: first send to last receipt on any thread.
    pub window_ns: u64,
    /// CPU of every thread except the generator's, ns.
    pub cpu_ns: u64,
    /// CPU of the sender and drain threads, ns.
    pub gen_cpu_ns: u64,
    /// Timing marks (traced runs).
    pub marks: Vec<Mark>,
}

impl PhaseOut {
    /// Delivered events per second over the phase window.
    pub fn throughput(&self) -> f64 {
        if self.window_ns == 0 {
            0.0
        } else {
            self.delivered as f64 * 1e9 / self.window_ns as f64
        }
    }

    /// Latency quantile in µs.
    pub fn latency_us(&self, q: f64) -> f64 {
        quantile(&mut self.latency_ns.clone(), q) as f64 / 1e3
    }
}

fn wall_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or_default()
        .as_micros() as u64
}

/// Waits until `t`: sleeps while far from it, then yields.
fn wait_until(t: Instant) {
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let rem = t - now;
        if rem > Duration::from_micros(400) {
            std::thread::sleep(rem - Duration::from_micros(250));
        } else {
            std::thread::yield_now();
        }
    }
}

/// How long one blocking receive waits before the drain re-checks
/// whether the phase is over.
const POLL: Duration = Duration::from_millis(20);

/// How long the drain waits for stragglers after the last send.
const DRAIN_GRACE: Duration = Duration::from_secs(10);

/// Runs one phase of `n` events from `stream` against `rig`.
///
/// The phase's events are generated before the clock starts, so the
/// sender's loop holds only pacing and the publish call.
pub fn run_phase(
    rig: &dyn Rig,
    stream: &mut Stream,
    ledger: &mut Ledger,
    pace: Pace,
    n: u64,
    spans: Option<&SpanLog>,
) -> PhaseOut {
    let base = ledger.base;
    let first = ledger.sent();
    let mut events = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let (ev, h) = stream.next_event();
        ledger.sent_hash.push(h);
        events.push(ev);
    }
    // Reference send time of each event (ns since base), written by the
    // sender before the publish, read by the drain after the receipt.
    let reference: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(u64::MAX)).collect();
    let delivered = AtomicU64::new(0);
    let sender_done = AtomicBool::new(false);
    let done_at = AtomicU64::new(0);
    let control_every = rig.control_every();
    let traced = spans.is_some();
    let cpu0 = process_cpu_ns();
    let (reference, delivered, sender_done, done_at) =
        (&reference, &delivered, &sender_done, &done_at);

    let (send_out, recv_out) = std::thread::scope(|s| {
        let sender = s.spawn(move || {
            let cpu = thread_cpu_ns();
            let mut buf = spans.map(SpanLog::buf);
            let mut late = Vec::with_capacity(n as usize);
            let mut errors = 0u64;
            let start = Instant::now() + Duration::from_millis(2);
            let mut first_send = None;
            for (k, ev) in (0..n).zip(events) {
                let at = match pace {
                    Pace::Open(rate) => {
                        let target = start + Duration::from_secs_f64(k as f64 / rate);
                        wait_until(target);
                        Some(target)
                    }
                    Pace::Saturate(inflight) => {
                        // Deliveries that stop arriving end the phase: the
                        // unsent rest counts as lost instead of hanging.
                        let waiting = Instant::now();
                        while k - delivered.load(Ordering::Acquire).min(k) >= inflight
                            && waiting.elapsed() < DRAIN_GRACE
                        {
                            std::thread::sleep(Duration::from_micros(20));
                        }
                        if waiting.elapsed() >= DRAIN_GRACE {
                            break;
                        }
                        None
                    }
                };
                let now = Instant::now();
                first_send.get_or_insert(now);
                let target = at.unwrap_or(now);
                late.push(since(target, now));
                reference[k as usize].store(since(base, target), Ordering::Release);
                let r = match buf.as_mut() {
                    Some(b) => b.time("client.publish", first + k, || rig.publish(ev)),
                    None => rig.publish(ev),
                };
                if r.is_err() {
                    errors += 1;
                }
            }
            done_at.store(since(base, Instant::now()), Ordering::Release);
            sender_done.store(true, Ordering::Release);
            let first_ns = first_send.map_or(0, |t| since(base, t));
            (late, errors, first_ns, thread_cpu_ns() - cpu)
        });
        let ledger = &mut *ledger;
        let drain = s.spawn(move || {
            let cpu = thread_cpu_ns();
            let mut buf = spans.map(SpanLog::buf);
            let mut lat = Vec::with_capacity(n as usize);
            let mut tail = Vec::new();
            let mut marks = Vec::new();
            let mut last_ns = 0u64;
            let tail_from = n - n / 4;
            let mut count = 0u64;
            while count < n {
                let ev = match buf.as_mut() {
                    Some(b) => b.time("client.recv", u64::MAX, || rig.recv(POLL)),
                    None => rig.recv(POLL),
                };
                let Some(ev) = ev else {
                    if sender_done.load(Ordering::Acquire)
                        && since(base, Instant::now())
                            > done_at.load(Ordering::Acquire) + DRAIN_GRACE.as_nanos() as u64
                    {
                        break;
                    }
                    continue;
                };
                let now = since(base, Instant::now());
                let Some(k) = ledger.record(&ev).and_then(|i| i.checked_sub(first)) else {
                    continue;
                };
                let r = reference[k as usize].load(Ordering::Acquire);
                if r != u64::MAX {
                    let l = now.saturating_sub(r);
                    lat.push(l);
                    if k >= tail_from {
                        tail.push(l);
                    }
                }
                count += 1;
                delivered.store(count, Ordering::Release);
                last_ns = now;
                if traced {
                    marks.push(Mark {
                        seq: ev.seq(),
                        sent_us: ev.timestamp_micros(),
                        recv_us: wall_us(),
                    });
                }
            }
            (count, lat, tail, marks, last_ns, thread_cpu_ns() - cpu)
        });
        if let Some(every) = control_every {
            let mut due = Instant::now() + every;
            while !sender_done.load(Ordering::Acquire) {
                if Instant::now() >= due {
                    rig.control();
                    due += every;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        (
            sender.join().expect("sender thread"),
            drain.join().expect("drain thread"),
        )
    });
    let cpu_ns = process_cpu_ns().saturating_sub(cpu0);
    let (late, errors, first_ns, send_cpu) = send_out;
    let (count, lat, tail, marks, last_ns, drain_cpu) = recv_out;
    ledger.publish_errors += errors;
    let end = last_ns.max(rig.sink_last_ns());
    PhaseOut {
        sent: n,
        delivered: count,
        latency_ns: lat,
        tail_latency_ns: tail,
        late_ns: late,
        window_ns: window_ns(&[first_ns], &[end]),
        cpu_ns,
        gen_cpu_ns: send_cpu + drain_cpu,
        marks,
    }
}

/// Collects stragglers (alarms published after the last reading) until
/// `want` alarms have arrived or `timeout` passes.
pub fn drain_alarms(rig: &dyn Rig, ledger: &mut Ledger, want: usize, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    while ledger.alarms.len() < want && Instant::now() < deadline {
        if let Some(ev) = rig.recv(Duration::from_millis(20)) {
            ledger.record(&ev);
        }
    }
    // Anything else still in flight is a duplicate or an extra.
    while let Some(ev) = rig.recv(Duration::from_millis(50)) {
        ledger.record(&ev);
    }
}
