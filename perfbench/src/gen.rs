//! Seeded workload inputs: the event streams, the cell-side
//! subscription tables, the ward policy set and the delivery checksum.
//!
//! Everything here is a pure function of the seed, so the checker can
//! regenerate exactly the stream the sender published.

use std::sync::Arc;

use smc_policy::{parse_policies, Policy};
use smc_sensors::ecg::{encode_block, EcgBlock};
use smc_sensors::EcgTrace;
use smc_types::codec::to_bytes;
use smc_types::{Event, Filter, Op, Payload, ServiceId};

use crate::stats::hash_bytes;

/// Event type of vital-sign readings (the obligations listen on it).
pub const READING: &str = "smc.sensor.reading";
/// Event type of ECG waveform blocks.
pub const ECG: &str = "smc.sensor.ecg";
/// Event type the ward obligations publish.
pub const ALARM: &str = "smc.alarm";
/// Beds on the ward.
pub const BEDS: i64 = 100;
/// Vital-sign sensors per bed.
pub const SENSORS: [&str; 4] = ["heart-rate", "spo2", "temperature", "blood-pressure"];
/// Samples per ECG block: 11 header bytes + 2 bytes per sample ≈ 4 KB.
pub const ECG_SAMPLES: usize = 2040;
/// Distinct ECG blocks generated per run (events cycle through them).
const ECG_POOL: usize = 64;
/// Cell-side analysis sinks on the ECG workload (plus the viewer = 8).
pub const ECG_SINKS: usize = 7;
/// The policy document the ward cell loads.
pub const WARD_POLICIES: &str = include_str!("../../examples/ward_policies.smc");
/// Obligation that starts disabled (the tachycardia rule enables it).
pub const DORMANT_POLICY: &str = "strict-fever-watch";

/// Which traffic a workload generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Small vital-sign readings with seeded clinical episodes.
    Vitals,
    /// ~4 KB ECG waveform blocks.
    Ecg,
}

/// splitmix64: tiny, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }
}

/// A clinical episode in progress on one bed.
#[derive(Debug, Clone, Copy)]
struct Episode {
    sensor: usize,
    left: u32,
}

/// A deterministic event stream. Event `i` carries attribute `i`.
#[derive(Debug, Clone)]
pub struct Stream {
    traffic: Traffic,
    rng: Rng,
    next: u64,
    episodes: Vec<Option<Episode>>,
    ecg: Arc<Vec<(Payload, u64)>>,
}

impl Stream {
    /// The stream for `traffic` and `seed`.
    pub fn new(traffic: Traffic, seed: u64) -> Self {
        let ecg = if traffic == Traffic::Ecg {
            let mut trace = EcgTrace::new(seed, 250.0);
            (0..ECG_POOL as u64)
                .map(|seq| {
                    let bytes = encode_block(&EcgBlock {
                        seq,
                        samples: trace.next_samples(ECG_SAMPLES),
                    });
                    let h = hash_bytes(0, &bytes);
                    (Payload::from(bytes), h)
                })
                .collect()
        } else {
            Vec::new()
        };
        Stream {
            traffic,
            rng: Rng::new(seed),
            next: 0,
            episodes: vec![None; BEDS as usize + 1],
            ecg: Arc::new(ecg),
        }
    }

    /// The next event and its content checksum.
    pub fn next_event(&mut self) -> (Event, u64) {
        let i = self.next;
        self.next += 1;
        match self.traffic {
            Traffic::Vitals => {
                let ev = self.vitals(i);
                let h = content_hash(&ev);
                (ev, h)
            }
            Traffic::Ecg => {
                let (payload, payload_hash) = self.ecg[(i % ECG_POOL as u64) as usize].clone();
                let bed = self.rng.range(1, 8);
                let ev = Event::builder(ECG)
                    .attr("bed", bed)
                    .attr("block", i as i64)
                    .attr("i", i as i64)
                    .payload(payload)
                    .build();
                let h = hash_tail(payload_hash, &ev);
                (ev, h)
            }
        }
    }

    fn vitals(&mut self, i: u64) -> Event {
        let bed = self.rng.range(1, BEDS);
        let sensor = self.rng.range(0, 3) as usize;
        // About one event in 400 starts a 20-event episode on its bed;
        // readings of the afflicted sensor go abnormal meanwhile.
        let slot = &mut self.episodes[bed as usize];
        if slot.is_none() && self.rng.next_u64().is_multiple_of(400) {
            *slot = Some(Episode {
                sensor: self.rng.range(0, 2) as usize,
                left: 20,
            });
        }
        let abnormal = match slot {
            Some(ep) => {
                let hit = ep.sensor == sensor;
                ep.left -= 1;
                if ep.left == 0 {
                    *slot = None;
                }
                hit
            }
            None => false,
        };
        let b = Event::builder(READING)
            .attr("sensor", SENSORS[sensor])
            .attr("bed", bed)
            .attr("i", i as i64);
        let b = match (sensor, abnormal) {
            (0, false) => b.attr("bpm", self.rng.range(58, 100)),
            (0, true) => b.attr("bpm", self.rng.range(125, 170)),
            (1, false) => b.attr("spo2", self.rng.range(94, 99)),
            (1, true) => b.attr("spo2", self.rng.range(82, 89)),
            (2, false) => b.attr("celsius", self.rng.range(362, 372) as f64 / 10.0),
            (2, true) => b.attr("celsius", self.rng.range(381, 395) as f64 / 10.0),
            _ => b
                .attr("systolic", self.rng.range(100, 140))
                .attr("diastolic", self.rng.range(60, 90)),
        };
        b.build()
    }
}

/// The delivery checksum over what the publisher controls: payload,
/// type and attributes (not the stamp the client adds).
pub fn content_hash(ev: &Event) -> u64 {
    hash_tail(hash_bytes(0, ev.payload()), ev)
}

fn hash_tail(payload_hash: u64, ev: &Event) -> u64 {
    let h = hash_bytes(payload_hash, ev.event_type().as_bytes());
    hash_bytes(h, &to_bytes(ev.attributes()))
}

/// The workload index an event carries.
pub fn index_of(ev: &Event) -> Option<u64> {
    ev.attr("i").and_then(|v| v.as_int()).map(|i| i as u64)
}

/// The cell-side subscription table: one subscriber (and sink) per
/// filter, so each sink's delivery count is checkable on its own.
pub fn local_filters(traffic: Traffic) -> Vec<(ServiceId, Filter)> {
    let id = |k: usize| ServiceId::from_raw(0x7E00_0000_0000 + k as u64);
    match traffic {
        Traffic::Vitals => {
            // Several hundred per-bed watches, at most one of which a
            // reading matches; half also carry a threshold.
            let mut out = Vec::new();
            for bed in 1..=BEDS {
                for (s, sensor) in SENSORS.iter().enumerate() {
                    let mut f = Filter::for_type(READING).with(("bed", Op::Eq, bed)).with((
                        "sensor",
                        Op::Eq,
                        *sensor,
                    ));
                    if bed % 2 == 1 {
                        f = match s {
                            0 => f.with(("bpm", Op::Gt, 110i64)),
                            1 => f.with(("spo2", Op::Lt, 92i64)),
                            2 => f.with(("celsius", Op::Gt, 37.8f64)),
                            _ => f.with(("systolic", Op::Gt, 135i64)),
                        };
                    }
                    out.push((id(out.len()), f));
                }
            }
            out
        }
        Traffic::Ecg => (0..ECG_SINKS)
            .map(|k| (id(k), Filter::for_type(ECG).with(("block", Op::Ge, 0i64))))
            .collect(),
    }
}

/// What the subscribing client (nurse station / ECG viewer) subscribes to.
pub fn client_filters(traffic: Traffic) -> Vec<Filter> {
    match traffic {
        Traffic::Vitals => vec![Filter::for_type(READING), Filter::for_type(ALARM)],
        Traffic::Ecg => vec![Filter::for_type(ECG)],
    }
}

/// The rotating filter the durable workload's nurse station keeps
/// re-subscribing (step `k`).
pub fn rotating_filter(k: u64) -> Filter {
    Filter::for_type(READING).with(("bed", Op::Eq, (k % BEDS as u64) as i64 + 1))
}

/// The ward policy set, parsed.
pub fn ward_policies() -> Vec<Policy> {
    parse_policies(WARD_POLICIES).expect("ward policy document parses")
}

/// A policy service loaded the way the benchmark loads the cell's.
pub fn load_policies(service: &smc_policy::PolicyService) {
    for p in ward_policies() {
        service.add(p).expect("policy ids are unique");
    }
    service
        .disable(DORMANT_POLICY)
        .expect("dormant policy present");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible() {
        for traffic in [Traffic::Vitals, Traffic::Ecg] {
            let mut a = Stream::new(traffic, 7);
            let mut b = Stream::new(traffic, 7);
            for _ in 0..500 {
                let (ea, ha) = a.next_event();
                let (eb, hb) = b.next_event();
                assert_eq!(ea, eb);
                assert_eq!(ha, hb);
                assert_eq!(ha, content_hash(&ea));
            }
        }
    }

    #[test]
    fn vitals_fire_obligations_and_few_watches_match() {
        let svc = smc_policy::PolicyService::new();
        load_policies(&svc);
        let mut s = Stream::new(Traffic::Vitals, 3);
        let mut alarms = 0;
        let table = local_filters(Traffic::Vitals);
        let mut matched = 0;
        for _ in 0..20_000 {
            let (ev, _) = s.next_event();
            alarms += svc.on_event(&ev).len();
            let m = table.iter().filter(|(_, f)| f.matches(&ev)).count();
            assert!(m <= 1);
            matched += m;
        }
        assert!(alarms > 50, "episodes must fire obligations ({alarms})");
        assert!(matched > 5_000 && matched < 20_000);
    }

    #[test]
    fn ecg_blocks_are_about_4k() {
        let (ev, _) = Stream::new(Traffic::Ecg, 1).next_event();
        assert!((4000..4200).contains(&ev.payload().len()));
    }
}
