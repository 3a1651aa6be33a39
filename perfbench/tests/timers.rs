//! The benchmark's timers, checked against systems whose delays are
//! known: an open-loop latency must grow behind a stall (it is timed
//! from the scheduled send time, not from when the sender got round to
//! sending), and a saturation throughput must be timed from the first
//! send to the last receipt across threads.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use perfbench::drive::{run_phase, Ledger, Pace, Rig};
use perfbench::gen::{index_of, Stream, Traffic};
use smc_core::{EventBus, EventSink};
use smc_match::EngineKind;
use smc_types::{Event, Filter, ServiceId};

/// A toy system: a worker thread publishes each event on an `EventBus`
/// whose only sink forwards it to the drain after `delay(index)`.
struct Pipe {
    input: Mutex<Option<Sender<Event>>>,
    output: Mutex<Receiver<Event>>,
    worker: Mutex<Option<std::thread::JoinHandle<()>>>,
    publish_delay: fn(u64) -> Duration,
}

impl Pipe {
    fn new(sink_delay: fn(u64) -> Duration, publish_delay: fn(u64) -> Duration) -> Self {
        let (tx, rx) = channel::<Event>();
        let (out_tx, out_rx) = channel::<Event>();
        let out_tx = Mutex::new(out_tx);
        let worker = std::thread::spawn(move || {
            let bus = EventBus::new(EngineKind::FastForward);
            let sink: Arc<dyn EventSink> = Arc::new(move |ev: &Event| -> smc_types::Result<()> {
                std::thread::sleep(sink_delay(index_of(ev).unwrap_or(0)));
                out_tx.lock().unwrap().send(ev.clone()).ok();
                Ok(())
            });
            bus.subscribe(ServiceId::from_raw(7), Filter::any(), sink)
                .unwrap();
            for ev in rx {
                bus.publish(ev).unwrap();
            }
        });
        Pipe {
            input: Mutex::new(Some(tx)),
            output: Mutex::new(out_rx),
            worker: Mutex::new(Some(worker)),
            publish_delay,
        }
    }

    fn close(&self) {
        self.input.lock().unwrap().take();
        if let Some(w) = self.worker.lock().unwrap().take() {
            w.join().unwrap();
        }
    }
}

impl Rig for Pipe {
    fn publish(&self, event: Event) -> Result<(), String> {
        std::thread::sleep((self.publish_delay)(index_of(&event).unwrap_or(0)));
        self.input
            .lock()
            .unwrap()
            .as_ref()
            .ok_or("closed")?
            .send(event)
            .map_err(|e| e.to_string())
    }

    fn recv(&self, timeout: Duration) -> Option<Event> {
        self.output.lock().unwrap().recv_timeout(timeout).ok()
    }
}

fn none(_: u64) -> Duration {
    Duration::ZERO
}

#[test]
fn stalled_sink_inflates_the_latency_of_later_events() {
    // The sink stalls 40 ms on event 50 of 200 sent at 2,000 ev/s: the
    // events queued behind it must carry the stall in their latency.
    fn stall_at_50(i: u64) -> Duration {
        if i == 50 {
            Duration::from_millis(40)
        } else {
            Duration::ZERO
        }
    }
    let pipe = Pipe::new(stall_at_50, none);
    let mut stream = Stream::new(Traffic::Vitals, 1);
    let mut ledger = Ledger::new(Instant::now());
    let out = run_phase(
        &pipe,
        &mut stream,
        &mut ledger,
        Pace::Open(2_000.0),
        200,
        None,
    );
    pipe.close();
    assert_eq!(out.delivered, 200);
    assert_eq!(ledger.failures(), 0);
    let lat = &out.latency_ns;
    let ms = |ns: u64| ns as f64 / 1e6;
    assert!(ms(lat[10]) < 10.0, "before the stall: {} ms", ms(lat[10]));
    // Event 55 was scheduled 2.5 ms after event 50 and waited for the
    // rest of the 40 ms stall.
    assert!(ms(lat[55]) > 25.0, "behind the stall: {} ms", ms(lat[55]));
    assert!(ms(lat[60]) > 20.0, "behind the stall: {} ms", ms(lat[60]));
    assert!(out.latency_us(0.99) > 20_000.0);
}

#[test]
fn a_late_sender_is_charged_to_latency_and_reported_as_lateness() {
    // The sender itself blocks 30 ms before publishing event 20: every
    // event scheduled during the block is late, and its latency counts
    // from when it should have been sent.
    fn block_at_20(i: u64) -> Duration {
        if i == 20 {
            Duration::from_millis(30)
        } else {
            Duration::ZERO
        }
    }
    let pipe = Pipe::new(none, block_at_20);
    let mut stream = Stream::new(Traffic::Vitals, 2);
    let mut ledger = Ledger::new(Instant::now());
    let out = run_phase(
        &pipe,
        &mut stream,
        &mut ledger,
        Pace::Open(2_000.0),
        100,
        None,
    );
    pipe.close();
    assert_eq!(out.delivered, 100);
    let max_late = out.late_ns.iter().copied().max().unwrap();
    assert!(max_late > 20_000_000, "lateness {max_late} ns");
    // Event 25 was due 2.5 ms after event 20 but went out after the block.
    assert!(out.latency_ns[25] > 20_000_000);
}

#[test]
fn saturation_throughput_spans_first_send_to_last_receipt() {
    // Each delivery takes at least 200 µs, so 200 events cannot finish
    // in under 40 ms: any timer that reports more than 5,000 ev/s (for
    // example one started after the work was already done) is wrong.
    fn slow(_: u64) -> Duration {
        Duration::from_micros(200)
    }
    let pipe = Pipe::new(slow, none);
    let mut stream = Stream::new(Traffic::Vitals, 3);
    let mut ledger = Ledger::new(Instant::now());
    let t = Instant::now();
    let out = run_phase(
        &pipe,
        &mut stream,
        &mut ledger,
        Pace::Saturate(16),
        200,
        None,
    );
    let outer = t.elapsed();
    pipe.close();
    assert_eq!(out.delivered, 200);
    assert!(out.window_ns >= 40_000_000, "window {} ns", out.window_ns);
    assert!(out.window_ns as u128 <= outer.as_nanos());
    assert!(
        out.throughput() <= 5_000.0,
        "throughput {}",
        out.throughput()
    );
    assert!(out.throughput() > 500.0, "throughput {}", out.throughput());
}
