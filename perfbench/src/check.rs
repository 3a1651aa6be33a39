//! Reference answers for a run, computed without the cell: the same
//! seeded stream through a standalone `EngineKind::Naive` matcher (what
//! each cell-side sink must have received) and through a standalone
//! `PolicyService::on_event` (which alarms the nurse station must have
//! received).

use std::collections::HashMap;

use smc_match::EngineKind;
use smc_policy::{ActionSpec, PolicyService};
use smc_types::{Event, Filter, ServiceId, Subscription, SubscriptionId};

use crate::gen::{load_policies, Stream, Traffic, ALARM};

/// What the cell should have done with the first `events` events.
#[derive(Debug)]
pub struct Reference {
    /// Expected deliveries per cell-side sink, in table order.
    pub sink_counts: Vec<u64>,
    /// Expected alarms, as comparable keys, in order.
    pub alarms: Vec<String>,
}

/// Computes the reference for `events` events of `traffic`/`seed`.
pub fn reference(
    traffic: Traffic,
    seed: u64,
    events: u64,
    filters: &[(ServiceId, Filter)],
) -> Reference {
    let mut engine = EngineKind::Naive.build();
    let mut slot = HashMap::new();
    for (k, (id, f)) in filters.iter().enumerate() {
        engine
            .subscribe(Subscription::new(
                SubscriptionId(k as u64 + 1),
                *id,
                f.clone(),
            ))
            .expect("reference subscribe");
        slot.insert(*id, k);
    }
    let policy = PolicyService::new();
    load_policies(&policy);
    let mut sink_counts = vec![0u64; filters.len()];
    let mut alarms = Vec::new();
    let mut stream = Stream::new(traffic, seed);
    for _ in 0..events {
        let (ev, _) = stream.next_event();
        for sub in engine.matching_subscribers(&ev) {
            sink_counts[slot[&sub]] += 1;
        }
        for fired in policy.on_event(&ev) {
            if let ActionSpec::PublishEvent { event_type, attrs } = &fired.action {
                if event_type == ALARM {
                    let resolved = attrs
                        .iter()
                        .filter_map(|(n, t)| Some((n.clone(), format!("{:?}", t.resolve(&ev)?))))
                        .collect();
                    alarms.push(alarm_key(&fired.policy_id, resolved));
                }
            }
        }
    }
    Reference {
        sink_counts,
        alarms,
    }
}

fn alarm_key(policy: &str, mut attrs: Vec<(String, String)>) -> String {
    attrs.sort();
    let body: Vec<String> = attrs.iter().map(|(n, v)| format!("{n}={v}")).collect();
    format!("{policy}|{}", body.join(","))
}

/// The comparable key of an alarm the nurse station received.
pub fn received_alarm_key(ev: &Event) -> String {
    let policy = ev
        .attr("policy")
        .and_then(|v| v.as_str().map(str::to_owned))
        .unwrap_or_default();
    let attrs = ev
        .attributes()
        .iter()
        .filter(|(n, _)| *n != "policy")
        .map(|(n, v)| (n.to_owned(), format!("{v:?}")))
        .collect();
    alarm_key(&policy, attrs)
}

/// Positions where two sequences differ, plus their length difference.
pub fn mismatches<T: PartialEq>(want: &[T], got: &[T]) -> u64 {
    let differ = want.iter().zip(got).filter(|(a, b)| a != b).count();
    (differ + want.len().abs_diff(got.len())) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::local_filters;

    #[test]
    fn reference_counts_cover_the_stream() {
        let filters = local_filters(Traffic::Ecg);
        let r = reference(Traffic::Ecg, 5, 100, &filters);
        assert_eq!(r.sink_counts, vec![100; filters.len()]);
        assert!(r.alarms.is_empty(), "ECG traffic fires no obligation");
    }

    #[test]
    fn mismatch_counts_positions_and_length() {
        assert_eq!(mismatches(&[1, 2, 3], &[1, 2, 3]), 0);
        assert_eq!(mismatches(&[1, 2, 3], &[1, 9]), 2);
    }
}
