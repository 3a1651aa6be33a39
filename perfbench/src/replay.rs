//! The isolation replay of the traced run: the workload's own inputs
//! pushed through each layer's public API on its own, every call timed
//! as a span. Layers: codec (`to_bytes`/`from_bytes` of the workload's
//! `Publish` and `Deliver` packets), policy (`check`, `on_event`), match
//! (the cell's engine over the workload's subscription set) and bus (a
//! standalone `EventBus` into counting sinks).

use std::sync::Arc;

use smc_core::{EventBus, EventSink};
use smc_match::EngineKind;
use smc_policy::{ActionClass, PolicyService};
use smc_types::codec::{from_bytes, to_bytes};
use smc_types::{
    encode_deliver, Event, Filter, Packet, ServiceId, Subscription, SubscriptionId, TraceId,
};

use crate::gen::{load_policies, Stream, Traffic};
use crate::spans::SpanLog;

/// Per-event layer costs from the replay (means of span self time).
#[derive(Debug, Default, Clone)]
pub struct LayerCosts {
    /// `Publish` + `Deliver` encode, ns per event.
    pub encode_ns: f64,
    /// `Publish` + `Deliver` decode, ns per event.
    pub decode_ns: f64,
    /// `Publish` + `Deliver` encoded bytes per event.
    pub bytes_per_event: f64,
    /// Authorisation check, ns per event.
    pub check_ns: f64,
    /// Obligation evaluation, ns per event.
    pub on_event_ns: f64,
    /// Obligation actions fired per event.
    pub actions_per_event: f64,
    /// Matching, ns per event.
    pub match_ns: f64,
    /// Subscribers matched per event.
    pub matched_per_event: f64,
    /// Bus publish (match + fan-out into sinks), ns per event.
    pub publish_ns: f64,
}

/// Replays events `0..events` of `traffic`/`seed` as if published by
/// `publisher`, against the cell-side table `local` plus the subscribing
/// client's filters `client` (registered under `client_id`).
pub fn isolation_replay(
    traffic: Traffic,
    seed: u64,
    events: u64,
    publisher: ServiceId,
    local: &[(ServiceId, Filter)],
    client: (ServiceId, &[Filter]),
    spans: &SpanLog,
) -> LayerCosts {
    let mut all: Vec<(ServiceId, Filter)> = local.to_vec();
    all.extend(client.1.iter().map(|f| (client.0, f.clone())));

    let mut engine = EngineKind::FastForward.build();
    let bus = EventBus::new(EngineKind::FastForward);
    let sink: Arc<dyn EventSink> = Arc::new(|_: &Event| -> smc_types::Result<()> { Ok(()) });
    for (k, (id, f)) in all.iter().enumerate() {
        engine
            .subscribe(Subscription::new(
                SubscriptionId(k as u64 + 1),
                *id,
                f.clone(),
            ))
            .expect("replay subscribe");
        bus.subscribe(*id, f.clone(), Arc::clone(&sink))
            .expect("replay bus subscribe");
    }
    let policy = PolicyService::new();
    load_policies(&policy);

    let mut stream = Stream::new(traffic, seed);
    let mut bytes = 0u64;
    let mut actions = 0u64;
    let mut matched = 0u64;
    {
        let mut buf = spans.buf();
        for i in 0..events {
            let (mut ev, _) = stream.next_event();
            ev.stamp(publisher, i + 1, 0);
            let trace = TraceId::for_event(publisher, i + 1);
            buf.enter("replay.event", i);
            let publish = Packet::Publish {
                event: ev.clone(),
                trace,
            };
            let wire = buf.time("codec.encode_publish", i, || to_bytes(&publish));
            let decoded = buf.time("codec.decode_publish", i, || from_bytes::<Packet>(&wire));
            debug_assert!(decoded.is_ok());
            let decision = buf.time("policy.check", i, || {
                policy.check("sensor", ActionClass::Publish, ev.event_type())
            });
            debug_assert!(!matches!(decision, smc_policy::Decision::Deny));
            let hits = buf.time("match", i, || engine.matching_subscribers(&ev));
            let copy = ev.clone();
            buf.time("bus.publish", i, || bus.publish(copy).expect("bus publish"));
            let fired = buf.time("policy.on_event", i, || policy.on_event(&ev));
            let down = buf.time("codec.encode_deliver", i, || encode_deliver(&ev, trace));
            let back = buf.time("codec.decode_deliver", i, || from_bytes::<Packet>(&down));
            debug_assert!(back.is_ok());
            buf.exit();
            bytes += (wire.len() + down.len()) as u64;
            actions += fired.len() as u64;
            matched += hits.len() as u64;
        }
    }
    let m = spans.mean_self_ns();
    let get = |k: &str| m.get(k).copied().unwrap_or(0.0);
    let n = events.max(1) as f64;
    LayerCosts {
        encode_ns: get("codec.encode_publish") + get("codec.encode_deliver"),
        decode_ns: get("codec.decode_publish") + get("codec.decode_deliver"),
        bytes_per_event: bytes as f64 / n,
        check_ns: get("policy.check"),
        on_event_ns: get("policy.on_event"),
        actions_per_event: actions as f64 / n,
        match_ns: get("match"),
        matched_per_event: matched as f64 / n,
        publish_ns: get("bus.publish"),
    }
}
