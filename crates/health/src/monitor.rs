//! The clock-driven [`HealthMonitor`]: samples the registry and trace
//! sink on an interval, runs every detector, feeds each component's
//! state machine, and reports transitions for the autonomic loop to act
//! on.

use std::collections::BTreeMap;
use std::sync::Arc;

use smc_telemetry::critical::json_string;
use smc_telemetry::{HopRecord, Registry, TraceSink};
use smc_types::member::wellknown;
use smc_types::{Event, ServiceId};

use crate::detect::{Detector, SampleCtx};
use crate::state::{ComponentHealth, HealthState, Hysteresis};

/// Monitor configuration.
#[derive(Debug, Clone, Copy)]
pub struct HealthConfig {
    /// Sampling interval in microseconds (virtual or wall time).
    pub interval_micros: u64,
    /// Streak thresholds for every component's state machine.
    pub hysteresis: Hysteresis,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            interval_micros: 250_000,
            hysteresis: Hysteresis::default(),
        }
    }
}

/// One health-state transition, as published on the bus and recorded in
/// reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthTransition {
    /// When the transition happened (monitor clock, microseconds).
    pub at_micros: u64,
    /// The component whose state changed.
    pub component: String,
    /// The detector whose verdicts drove the change.
    pub detector: &'static str,
    /// Previous state.
    pub from: HealthState,
    /// New state.
    pub to: HealthState,
    /// The detector's evidence at the moment of transition.
    pub detail: String,
}

/// A component's current standing in a [`HealthReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentStatus {
    /// Component key.
    pub component: String,
    /// The detector watching it.
    pub detector: &'static str,
    /// Current state.
    pub state: HealthState,
    /// Latest detector evidence.
    pub detail: String,
    /// When the component entered its current state.
    pub since_micros: u64,
}

/// A point-in-time snapshot of every watched component.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HealthReport {
    /// When the snapshot was taken.
    pub at_micros: u64,
    /// Every component the monitor has ever observed, sorted by key.
    pub components: Vec<ComponentStatus>,
}

impl HealthReport {
    /// The worst state across all components (`Healthy` when none).
    pub fn overall(&self) -> HealthState {
        self.components
            .iter()
            .map(|c| c.state)
            .max()
            .unwrap_or(HealthState::Healthy)
    }

    /// Whether every component is `Healthy`.
    pub fn all_healthy(&self) -> bool {
        self.overall() == HealthState::Healthy
    }

    /// Renders the report as a JSON object (dependency-free, for the
    /// `/health` endpoint and flight-recorder dumps).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"at_micros\":{},\"overall\":\"{}\",\"components\":[",
            self.at_micros,
            self.overall().as_str()
        ));
        for (i, c) in self.components.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"component\":{},\"detector\":{},\"state\":\"{}\",\"detail\":{},\"since_micros\":{}}}",
                json_string(&c.component),
                json_string(c.detector),
                c.state.as_str(),
                json_string(&c.detail),
                c.since_micros
            ));
        }
        out.push_str("]}");
        out
    }
}

#[derive(Debug)]
struct Track {
    detector: &'static str,
    health: ComponentHealth,
    detail: String,
    since_micros: u64,
}

/// The monitor: owns the detector suite and one state machine per
/// component. Drive it either with [`HealthMonitor::poll`] (samples a
/// registry + sink itself) or [`HealthMonitor::observe`] (caller
/// supplies the samples — what the virtual-time harness does).
pub struct HealthMonitor {
    config: HealthConfig,
    detectors: Vec<Box<dyn Detector>>,
    tracks: BTreeMap<String, Track>,
    last_at: Option<u64>,
    next_hop_order: u64,
}

impl std::fmt::Debug for HealthMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HealthMonitor")
            .field("detectors", &self.detectors.len())
            .field("components", &self.tracks.len())
            .field("last_at", &self.last_at)
            .finish()
    }
}

impl HealthMonitor {
    /// A monitor running the [default detector
    /// suite](crate::detect::default_detectors).
    pub fn new(config: HealthConfig) -> HealthMonitor {
        HealthMonitor::with_detectors(config, crate::detect::default_detectors())
    }

    /// A monitor running a caller-chosen detector suite.
    pub fn with_detectors(
        config: HealthConfig,
        detectors: Vec<Box<dyn Detector>>,
    ) -> HealthMonitor {
        HealthMonitor {
            config,
            detectors,
            tracks: BTreeMap::new(),
            last_at: None,
            next_hop_order: 0,
        }
    }

    /// The configured sampling interval.
    pub fn interval_micros(&self) -> u64 {
        self.config.interval_micros
    }

    /// Whether a sample is due at `now`.
    pub fn due(&self, now_micros: u64) -> bool {
        self.last_at
            .is_none_or(|last| now_micros >= last + self.config.interval_micros)
    }

    /// Samples `registry` (and new hops from `sink`) if a sample is due;
    /// returns any transitions. This is the wall-clock embedding; the
    /// harness calls [`HealthMonitor::observe`] directly instead.
    pub fn poll(
        &mut self,
        now_micros: u64,
        registry: &Registry,
        sink: Option<&Arc<TraceSink>>,
    ) -> Vec<HealthTransition> {
        if !self.due(now_micros) {
            return Vec::new();
        }
        let samples = registry.gather();
        let hops: Vec<HopRecord> = match sink {
            Some(sink) => {
                let from = self.next_hop_order;
                sink.records()
                    .into_iter()
                    .filter(|r| r.order >= from)
                    .collect()
            }
            None => Vec::new(),
        };
        self.observe(now_micros, &samples, &hops)
    }

    /// Runs every detector over one sample window unconditionally and
    /// advances the state machines. `hops` must be the records appended
    /// since the previous call (the monitor tracks the high-water mark
    /// for callers using [`HealthMonitor::poll`]).
    pub fn observe(
        &mut self,
        now_micros: u64,
        samples: &[smc_telemetry::Sample],
        hops: &[HopRecord],
    ) -> Vec<HealthTransition> {
        let elapsed = self.last_at.map_or(0, |l| now_micros.saturating_sub(l));
        self.last_at = Some(now_micros);
        if let Some(max) = hops.iter().map(|r| r.order).max() {
            self.next_hop_order = self.next_hop_order.max(max + 1);
        }
        let ctx = SampleCtx {
            at_micros: now_micros,
            elapsed_micros: elapsed,
            samples,
            hops,
        };
        let mut transitions = Vec::new();
        for det in &mut self.detectors {
            let name = det.name();
            for obs in det.observe(&ctx) {
                let track = self
                    .tracks
                    .entry(obs.component.clone())
                    .or_insert_with(|| Track {
                        detector: name,
                        health: ComponentHealth::new(),
                        detail: String::new(),
                        since_micros: now_micros,
                    });
                track.detail = obs.detail;
                if let Some((from, to)) = track.health.observe(obs.healthy, &self.config.hysteresis)
                {
                    track.since_micros = now_micros;
                    transitions.push(HealthTransition {
                        at_micros: now_micros,
                        component: obs.component,
                        detector: name,
                        from,
                        to,
                        detail: track.detail.clone(),
                    });
                }
            }
        }
        transitions
    }

    /// A snapshot of every watched component.
    pub fn report(&self) -> HealthReport {
        HealthReport {
            at_micros: self.last_at.unwrap_or(0),
            components: self
                .tracks
                .iter()
                .map(|(component, t)| ComponentStatus {
                    component: component.clone(),
                    detector: t.detector,
                    state: t.health.state(),
                    detail: t.detail.clone(),
                    since_micros: t.since_micros,
                })
                .collect(),
        }
    }
}

/// Builds the typed `smc.health` event announcing `t`, ready to publish
/// on the bus. `member` aims the built-in quench obligation at the
/// service behind the component, when the caller knows it.
pub fn health_event(t: &HealthTransition, member: Option<ServiceId>) -> Event {
    let mut builder = Event::builder(wellknown::HEALTH)
        .attr(wellknown::HEALTH_COMPONENT, t.component.clone())
        .attr(wellknown::HEALTH_DETECTOR, t.detector)
        .attr(wellknown::HEALTH_FROM, t.from.as_str())
        .attr(wellknown::HEALTH_TO, t.to.as_str())
        .attr(wellknown::HEALTH_DETAIL, t.detail.clone());
    if let Some(id) = member {
        builder = builder.attr(wellknown::HEALTH_MEMBER, id.raw() as i64);
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::RetransmitStorm;
    use smc_telemetry::Sample;

    fn rtx(label: &str, value: u64) -> Sample {
        Sample {
            name: "rtx".into(),
            help: String::new(),
            monotonic: true,
            labels: vec![("channel".into(), label.into())],
            value,
        }
    }

    fn storm_monitor() -> HealthMonitor {
        HealthMonitor::with_detectors(
            HealthConfig {
                interval_micros: 1_000_000,
                hysteresis: Hysteresis {
                    degrade_after: 2,
                    fail_after: 10,
                    recover_after: 2,
                },
            },
            vec![Box::new(RetransmitStorm::new("rtx", 5.0))],
        )
    }

    #[test]
    fn sustained_storm_transitions_and_recovers() {
        let mut m = storm_monitor();
        let mut value = 0u64;
        let mut t = 0u64;
        let mut step = |m: &mut HealthMonitor, delta: u64| {
            value += delta;
            t += 1_000_000;
            m.observe(t, &[rtx("a", value)], &[])
        };
        assert!(step(&mut m, 0).is_empty()); // first sight, no delta
        assert!(step(&mut m, 100).is_empty()); // bad 1/2
        let tr = step(&mut m, 100); // bad 2/2 → Degraded
        assert_eq!(tr.len(), 1);
        assert_eq!(tr[0].component, "channel:a");
        assert_eq!(tr[0].from, HealthState::Healthy);
        assert_eq!(tr[0].to, HealthState::Degraded);
        assert_eq!(tr[0].detector, "retransmit-storm");
        assert!(step(&mut m, 0).is_empty()); // good 1/2
        let tr = step(&mut m, 0); // good 2/2 → Healthy
        assert_eq!(tr.len(), 1);
        assert_eq!(tr[0].to, HealthState::Healthy);
        assert!(m.report().all_healthy());
    }

    #[test]
    fn due_respects_interval_and_poll_gathers_registry() {
        let mut m = storm_monitor();
        assert!(m.due(0));
        let registry = Registry::new();
        let c = registry.counter_with("rtx", "retransmits", &[("channel", "a")]);
        assert!(m.poll(0, &registry, None).is_empty());
        assert!(!m.due(500_000));
        assert!(m.poll(500_000, &registry, None).is_empty());
        assert!(m.due(1_000_000));
        // Two windows of +100/s drive the transition through poll().
        c.add(100);
        assert!(m.poll(1_000_000, &registry, None).is_empty());
        c.add(100);
        let tr = m.poll(2_000_000, &registry, None);
        assert_eq!(tr.len(), 1);
        assert_eq!(tr[0].to, HealthState::Degraded);
        let report = m.report();
        assert_eq!(report.overall(), HealthState::Degraded);
        assert!(report.to_json().contains("\"state\":\"degraded\""));
    }

    #[test]
    fn health_event_carries_the_schema() {
        let t = HealthTransition {
            at_micros: 42,
            component: "channel:device0".into(),
            detector: "retransmit-storm",
            from: HealthState::Healthy,
            to: HealthState::Degraded,
            detail: "10.0 retransmits/s".into(),
        };
        let ev = health_event(&t, Some(ServiceId::from_raw(7)));
        assert_eq!(ev.event_type(), wellknown::HEALTH);
        assert_eq!(
            ev.attr(wellknown::HEALTH_TO).and_then(|v| v.as_str()),
            Some("degraded")
        );
        assert_eq!(
            ev.attr(wellknown::HEALTH_MEMBER).and_then(|v| v.as_int()),
            Some(7)
        );
        let ev = health_event(&t, None);
        assert!(ev.attr(wellknown::HEALTH_MEMBER).is_none());
    }
}
