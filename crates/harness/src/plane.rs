//! The optional planes a cell carries beside its data plane. This
//! module holds their state; the one run loop in [`crate::world`] steps
//! them wherever they are present.
//!
//! * The **peer plane** closes the hole the in-cell detect → repair
//!   loop leaves: kill the supervisor mid-repair and the outage it was
//!   handling stays an outage forever. Each of two sibling cells
//!   heartbeats a lease over a journaled supervision channel
//!   (`smc.supervision` events on [`CHAN_SUPERVISION`], so the
//!   lease/claim/adopt protocol rides the same exactly-once, FIFO
//!   machinery as the data plane). A [`PeerSupervisor`] per cell tracks
//!   the sibling's lease, claims a lapsed one, adopts the silent cell
//!   and drives repair remotely: restart commands ship as
//!   [`SupervisionMsg::Repair`] through `peer_repair_policies`, and
//!   anti-entropy passes are ordered with [`SupervisionMsg::Reconcile`].
//!   The plane also extends the reconcile-before-checkpoint invariant
//!   across the wire: a cell whose last reconcile is older than one
//!   checkpoint interval refuses to compact. The watcher lives and dies
//!   with the cell's supervisor (killed by
//!   [`ChaosOp::KillSupervisor`](crate::ChaosOp::KillSupervisor)); the
//!   channel and the actuator that executes wire commands survive it,
//!   the way an init system outlives a crashed node agent. That is what
//!   lets a sibling's `Repair { component: "supervisor" }` land at all.
//! * The **telemetry plane**: every cell exports delta-encoded metrics,
//!   trace hops and SLO reports as journaled `smc.telemetry` events to
//!   an observer, which folds them into a [`WardRegistry`] and stitches
//!   each supervision episode into one cross-cell journey.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use smc_health::{
    HealthConfig, HealthMonitor, HealthState, PeerConfig, PeerSupervisor, SloBurn, Supervisor,
};
use smc_policy::{peer_repair_policies, PolicyService};
use smc_telemetry::{Counter, DeltaExporter, Gauge, Registry, SloConfig, SloTracker, WardRegistry};
use smc_transport::{Incoming, ReliableChannel};
use smc_types::{
    codec, member::wellknown, Event, HopExport, ServiceId, SupervisionMsg, TelemetryMsg, TraceId,
};
use smc_wal::{MemBackend, Wal, WalChannelJournal, WalConfig, CHAN_SUPERVISION, CHAN_TELEMETRY};

use crate::oracle::DeliveryOracle;
use crate::world::{repair_loop, SupervisionOptions, World, TICK_MICROS};

/// The telemetry plane's step cadence: far coarser than the 2ms world
/// tick (telemetry tolerates latency; the data plane does not), fine
/// enough that the export cadence never waits long on it. This is what
/// keeps observing the world an order of magnitude cheaper than
/// running it.
pub(crate) const TEL_STEP_MICROS: u64 = 50 * TICK_MICROS;

/// A plane channel journaling into its own in-memory write-ahead log,
/// so the plane survives the cell's core losing *its* log.
fn journaled_channel(w: &World, chan: u8) -> Arc<ReliableChannel> {
    let (wal, _) =
        Wal::open(Arc::new(MemBackend::new()), WalConfig::default()).expect("plane wal opens");
    let channel = ReliableChannel::with_clock_journaled(
        Arc::new(w.net.endpoint()),
        w.reliable.clone(),
        Arc::clone(&w.clock),
        Arc::new(WalChannelJournal::new(Arc::new(wal), chan)),
        Vec::new(),
        Vec::new(),
    );
    channel.set_tracer(w.tracer.clone());
    channel
}

/// One cell's peer plane. The protocol pairs exactly two cells, member
/// ids 1 and 2.
pub(crate) struct PeerPlane {
    pub(crate) channel: Arc<ReliableChannel>,
    /// Index of the sibling cell in the run.
    pub(crate) sibling: usize,
    /// The sibling's supervision endpoint.
    pub(crate) sibling_channel: ServiceId,
    /// The watcher over the sibling (lives and dies with the cell's
    /// supervisor).
    pub(crate) watcher: PeerSupervisor,
    /// The remote session while this cell has adopted its sibling.
    pub(crate) remote: Option<RemoteSupervision>,
    /// Executes wire `Repair` commands through `peer_repair_policies`.
    pub(crate) actuator: PolicyService,
}

impl PeerPlane {
    pub(crate) fn new(w: &World, member_id: u64, config: &PeerConfig) -> PeerPlane {
        let actuator = PolicyService::new();
        for p in peer_repair_policies() {
            actuator
                .add(p)
                .expect("built-in peer repair policies are valid");
        }
        PeerPlane {
            channel: journaled_channel(w, CHAN_SUPERVISION),
            sibling: 2 - member_id as usize,
            sibling_channel: ServiceId::NIL,
            watcher: watcher(member_id, config),
            remote: None,
            actuator,
        }
    }

    /// The sibling's member id.
    pub(crate) fn ward(&self) -> u64 {
        self.sibling as u64 + 1
    }

    pub(crate) fn send(&self, msg: &SupervisionMsg, now: u64) {
        self.send_event(&msg.to_event(now));
    }

    pub(crate) fn send_event(&self, event: &Event) {
        let _ = self
            .channel
            .send(self.sibling_channel, codec::to_bytes(event));
    }

    /// Drains the supervision channel: every message with the episode
    /// trace a repair command may carry (the target's half of the
    /// stitched journey hangs off it).
    pub(crate) fn drain(&self) -> Vec<(SupervisionMsg, Option<u64>)> {
        let mut msgs = Vec::new();
        while let Ok(incoming) = self.channel.recv(Some(Duration::ZERO)) {
            let Incoming::Reliable { payload, .. } = incoming else {
                continue;
            };
            let Ok(event) = codec::from_bytes::<Event>(&payload) else {
                continue;
            };
            if let Some(msg) = SupervisionMsg::from_event(&event) {
                let episode = event
                    .attr(wellknown::TEL_EPISODE)
                    .and_then(|v| v.as_int())
                    .map(|v| v as u64);
                msgs.push((msg, episode));
            }
        }
        msgs
    }
}

/// A fresh watcher for member `member_id` of the two-cell ward.
pub(crate) fn watcher(member_id: u64, config: &PeerConfig) -> PeerSupervisor {
    PeerSupervisor::new(member_id, [1u64, 2], config.clone())
}

/// The adopter's side of a remote-supervision session: a component-down
/// monitor and a supervisor planning over the ward's components (its
/// supervisor included), with repairs shipped as wire commands instead
/// of executed in-process.
pub(crate) struct RemoteSupervision {
    pub(crate) monitor: HealthMonitor,
    pub(crate) supervisor: Supervisor,
    pub(crate) next_reconcile: u64,
}

impl RemoteSupervision {
    pub(crate) fn new(opts: &SupervisionOptions, next_reconcile: u64) -> RemoteSupervision {
        // The component the local loop can never watch: itself.
        let (monitor, supervisor) = repair_loop(opts, &["discovery", "sink", "supervisor"]);
        RemoteSupervision {
            monitor,
            supervisor,
            next_reconcile,
        }
    }
}

/// The read-only snapshot of a cell its adopter's monitor samples.
/// Captured for every cell at the top of the supervision phase so the
/// order cells are processed in cannot change what either observes.
#[derive(Clone, Copy)]
pub(crate) struct CellView {
    pub(crate) discovery_down: bool,
    pub(crate) sink_down: bool,
    pub(crate) sup_alive: bool,
    pub(crate) core_crashed: bool,
}

/// Configuration of the in-network telemetry plane.
#[derive(Debug, Clone)]
pub struct TelemetryPlaneOptions {
    /// Virtual interval between a cell's exports (µs).
    pub export_interval_micros: u64,
    /// Delivery-latency SLO objective (µs).
    pub delivery_objective_micros: u64,
    /// Supervision time-to-repair SLO objective (µs).
    pub ttr_objective_micros: u64,
}

impl Default for TelemetryPlaneOptions {
    fn default() -> Self {
        TelemetryPlaneOptions {
            export_interval_micros: 400_000,
            delivery_objective_micros: 400_000,
            ttr_objective_micros: 3_000_000,
        }
    }
}

/// What the telemetry plane ended the run with (present only when
/// [`RunOptions::telemetry`](crate::RunOptions::telemetry) was set).
#[derive(Debug)]
pub struct TelemetryPlaneReport {
    /// The observer's ward view: folded per-cell + rolled-up series,
    /// stitched journeys, per-cell freshness.
    pub ward: Arc<WardRegistry>,
    /// Every supervision episode the watchers traced:
    /// `(target member, episode trace)`.
    pub episodes: Vec<(u64, TraceId)>,
    /// Exports the observer folded (duplicates excluded).
    pub exports_applied: u64,
    /// Journal-replay duplicates the observer dropped.
    pub duplicates: u64,
    /// Times any ward-rolled counter moved backwards (the invariant the
    /// delta encoding exists to hold; must be 0).
    pub backwards: u64,
    /// Aggregation lag quantiles: virtual time between a cell stamping
    /// an export and the observer folding it.
    pub lag_p50_micros: u64,
    /// The p95 of the same lag distribution.
    pub lag_p95_micros: u64,
    /// `slo-burn` detector transitions out of healthy on the observer.
    pub slo_alerts: u64,
    /// Telemetry events cells sent (exports across all three kinds).
    pub exports_sent: u64,
}

impl TelemetryPlaneReport {
    /// `true` when the stitched journey for `trace` carries every one
    /// of `labels` in virtual-time order and was never truncated.
    pub fn journey_complete(&self, trace: TraceId, labels: &[&str]) -> bool {
        let Some(journey) = self.ward.stitched(trace) else {
            return false;
        };
        if journey.truncated {
            return false;
        }
        let mut legs = journey.legs.iter();
        labels.iter().all(|want| legs.any(|leg| leg.label == *want))
    }
}

/// One watched supervision episode, traced from lease lapse to remote
/// restart under a single synthetic [`TraceId`].
struct EpisodeState {
    target: u64,
    trace: TraceId,
    started_at: u64,
    adopt_recorded: bool,
    wire_repair_recorded: bool,
}

/// A cell's half of the telemetry plane: cell-runtime state (like the
/// supervision channel, it survives the core crashing) that accumulates
/// metrics, hops and SLO observations between exports.
pub(crate) struct CellTelemetry {
    pub(crate) channel: Arc<ReliableChannel>,
    registry: Registry,
    /// Cached handles into `registry` for the hot publish/deliver
    /// paths, so counting an event is one atomic add, not a lookup.
    published: Counter,
    delivered: Counter,
    members_gauge: Gauge,
    sup_up_gauge: Gauge,
    exporter: DeltaExporter,
    pending_hops: Vec<HopExport>,
    export_seq: u64,
    next_export: u64,
    interval: u64,
    /// Publish stamp per `(device, seq)`, consumed at delivery to feed
    /// the delivery-latency SLO.
    publish_at: HashMap<(ServiceId, u64), u64>,
    slo_delivery: SloTracker,
    slo_ttr: SloTracker,
    episode_ordinal: u64,
    episode: Option<EpisodeState>,
    pub(crate) episodes: Vec<(u64, TraceId)>,
    pub(crate) exports_sent: u64,
    /// The SLO reports last shipped: burn rates change rarely, so an
    /// unchanged set is not re-sent (the observer's gauges keep their
    /// last reading — re-setting them would be a no-op anyway).
    last_slo: Vec<TelemetryMsg>,
}

impl CellTelemetry {
    pub(crate) fn new(w: &World, opts: &TelemetryPlaneOptions) -> CellTelemetry {
        let registry = Registry::new();
        let published = registry.counter("smc_cell_published_total", "Events devices published.");
        let delivered = registry.counter("smc_cell_delivered_total", "Events the sink delivered.");
        let members_gauge =
            registry.gauge("smc_cell_members", "Members in the sink's delivery view.");
        let sup_up_gauge = registry.gauge(
            "smc_cell_supervisor_up",
            "Whether the supervisor plane is alive.",
        );
        CellTelemetry {
            channel: journaled_channel(w, CHAN_TELEMETRY),
            registry,
            published,
            delivered,
            members_gauge,
            sup_up_gauge,
            exporter: DeltaExporter::new(),
            pending_hops: Vec::new(),
            export_seq: 0,
            next_export: 0,
            interval: opts.export_interval_micros.max(TICK_MICROS),
            publish_at: HashMap::new(),
            slo_delivery: SloTracker::new(SloConfig::new(
                "delivery-latency",
                opts.delivery_objective_micros,
            )),
            slo_ttr: SloTracker::new(SloConfig::new("supervision-ttr", opts.ttr_objective_micros)),
            episode_ordinal: 0,
            episode: None,
            episodes: Vec::new(),
            exports_sent: 0,
            last_slo: Vec::new(),
        }
    }

    pub(crate) fn record_hop(&mut self, trace: TraceId, label: &str, now: u64) {
        self.pending_hops.push(HopExport {
            trace: trace.raw(),
            label: label.to_string(),
            at_micros: now,
        });
    }

    pub(crate) fn on_publish(&mut self, sender: ServiceId, seq: u64, now: u64) {
        self.published.inc();
        self.publish_at.insert((sender, seq), now);
    }

    pub(crate) fn on_deliver(&mut self, sender: ServiceId, seq: u64, now: u64) {
        self.delivered.inc();
        if let Some(stamp) = self.publish_at.remove(&(sender, seq)) {
            self.slo_delivery.record(now, now - stamp);
        }
    }

    /// A claim opens a supervision episode: mint the synthetic trace and
    /// record its first two hops (the lapse the claim answers, then the
    /// claim).
    pub(crate) fn on_claim(&mut self, target: u64, now: u64) {
        if self.episode.as_ref().is_some_and(|e| e.target == target) {
            return;
        }
        self.episode_ordinal += 1;
        let trace = smc_types::episode_trace(target, self.episode_ordinal);
        self.record_hop(trace, "lease-lapse", now);
        self.record_hop(trace, "claim", now);
        self.episodes.push((target, trace));
        self.episode = Some(EpisodeState {
            target,
            trace,
            started_at: now,
            adopt_recorded: false,
            wire_repair_recorded: false,
        });
    }

    pub(crate) fn on_adopt(&mut self, target: u64, now: u64) {
        let hop = self.episode.as_mut().and_then(|ep| {
            (ep.target == target && !ep.adopt_recorded).then(|| {
                ep.adopt_recorded = true;
                ep.trace
            })
        });
        if let Some(trace) = hop {
            self.record_hop(trace, "adopt", now);
        }
    }

    /// A supervisor revival shipped to `target`: the episode trace to
    /// carry across the wire (the first one also records the hop).
    pub(crate) fn on_wire_repair(&mut self, target: u64, now: u64) -> Option<TraceId> {
        let (trace, first) = self.episode.as_mut().and_then(|ep| {
            (ep.target == target).then(|| {
                let first = !ep.wire_repair_recorded;
                ep.wire_repair_recorded = true;
                (ep.trace, first)
            })
        })?;
        if first {
            self.record_hop(trace, "wire-repair", now);
        }
        Some(trace)
    }

    /// Release closes the episode: its duration is exactly the
    /// supervision time-to-repair the SLO watches.
    pub(crate) fn on_release(&mut self, target: u64, now: u64) {
        if let Some(ep) = self.episode.take_if(|e| e.target == target) {
            self.slo_ttr.record(now, now - ep.started_at);
        }
    }

    /// Ships this cell's exports to `observer` when one is due: the
    /// metric delta (even an empty one — freshness and lag need the
    /// heartbeat), pending hops, and any changed SLO reports.
    pub(crate) fn export(
        &mut self,
        observer: ServiceId,
        cell: u64,
        members: usize,
        sup_up: bool,
        now: u64,
        total: u64,
    ) {
        // The last export fires a full interval before the run ends, so
        // its messages can land inside the drain window instead of dying
        // in flight.
        if now < self.next_export || now + self.interval > total {
            return;
        }
        self.next_export = now + self.interval;
        self.members_gauge.set(members as u64);
        self.sup_up_gauge.set(u64::from(sup_up));
        self.export_seq += 1;
        let mut msgs = vec![TelemetryMsg::MetricDelta {
            cell,
            export_seq: self.export_seq,
            series: self.exporter.export(&self.registry.gather()),
        }];
        if !self.pending_hops.is_empty() {
            msgs.push(TelemetryMsg::TraceExport {
                cell,
                export_seq: self.export_seq,
                hops: std::mem::take(&mut self.pending_hops),
                truncated: Vec::new(),
            });
        }
        let slo_reports: Vec<TelemetryMsg> = self
            .slo_delivery
            .reports(now, cell)
            .into_iter()
            .chain(self.slo_ttr.reports(now, cell))
            .collect();
        if slo_reports != self.last_slo {
            msgs.extend(slo_reports.iter().cloned());
            self.last_slo = slo_reports;
        }
        for msg in &msgs {
            let _ = self
                .channel
                .send(observer, codec::to_bytes(&msg.to_event(now)));
        }
        self.exports_sent += msgs.len() as u64;
    }
}

/// The observer: the endpoint telemetry exports converge on, folding
/// them into the ward view and watching SLO burn.
pub(crate) struct Observer {
    pub(crate) channel: Arc<ReliableChannel>,
    ward: Arc<WardRegistry>,
    monitor: HealthMonitor,
    /// Last seen value per monotone ward series, for the
    /// backwards-counter invariant check.
    prev_counters: HashMap<String, u64>,
    backwards: u64,
    slo_alerts: u64,
}

impl Observer {
    /// `sampling` is the supervision loop's health config: burn rates
    /// move on the scale of the SLO windows (5s/30s), so the observer
    /// samples no faster than once a second.
    pub(crate) fn new(w: &World, sampling: HealthConfig) -> Observer {
        Observer {
            // Journaled like every other plane, so a partitioned cell's
            // backlog lands after heal rather than never.
            channel: journaled_channel(w, CHAN_TELEMETRY),
            ward: Arc::new(WardRegistry::new()),
            monitor: HealthMonitor::with_detectors(
                HealthConfig {
                    interval_micros: sampling.interval_micros.max(1_000_000),
                    ..sampling
                },
                vec![Box::new(SloBurn::default())],
            ),
            prev_counters: HashMap::new(),
            backwards: 0,
            slo_alerts: 0,
        }
    }

    /// Folds whatever exports have arrived and, on the monitor's
    /// cadence, checks the ward counters and SLO burn.
    pub(crate) fn fold(&mut self, oracle: &mut DeliveryOracle, now: u64) {
        while let Ok(incoming) = self.channel.recv(Some(Duration::ZERO)) {
            if let Incoming::Reliable { payload, .. } = incoming {
                if let Ok(event) = codec::from_bytes::<Event>(&payload) {
                    if let Some(msg) = TelemetryMsg::from_event(&event) {
                        self.ward.apply(&msg, event.timestamp_micros(), now);
                    }
                }
            }
        }
        if !self.monitor.due(now) {
            return;
        }
        let samples = self.ward.registry().gather();
        // The invariant the delta encoding exists to hold: ward-rolled
        // counters never move backwards, crashes and journal replays
        // included. Checked on the monitor cadence, over the same gather
        // the detectors read.
        for sample in samples.iter().filter(|s| s.monotonic) {
            let mut key = String::with_capacity(sample.name.len() + 16);
            key.push_str(&sample.name);
            for (k, v) in &sample.labels {
                key.push('\u{1}');
                key.push_str(k);
                key.push('\u{2}');
                key.push_str(v);
            }
            let prev = self.prev_counters.insert(key, sample.value).unwrap_or(0);
            if sample.value < prev {
                self.backwards += 1;
                oracle.record_fault(
                    now,
                    format!(
                        "telemetry: ward counter {} went backwards ({prev} -> {})",
                        sample.name, sample.value
                    ),
                );
            }
        }
        for t in self.monitor.observe(now, &samples, &[]) {
            if t.to != HealthState::Healthy {
                self.slo_alerts += 1;
                oracle.record_fault(
                    now,
                    format!(
                        "telemetry: slo burn alert {} {}->{}",
                        t.component,
                        t.from.as_str(),
                        t.to.as_str()
                    ),
                );
            }
        }
    }

    pub(crate) fn report(
        self,
        episodes: Vec<(u64, TraceId)>,
        exports_sent: u64,
    ) -> TelemetryPlaneReport {
        let lag = self.ward.registry().histogram(
            "smc_ward_aggregation_lag_micros",
            "Virtual-time lag between a cell stamping an export and the observer folding it.",
        );
        let exports_applied = self
            .ward
            .registry()
            .counter(
                "smc_ward_exports_applied_total",
                "Telemetry exports folded into the ward view.",
            )
            .get();
        TelemetryPlaneReport {
            episodes,
            exports_applied,
            duplicates: self.ward.duplicates(),
            backwards: self.backwards,
            lag_p50_micros: lag.quantile(0.5),
            lag_p95_micros: lag.quantile(0.95),
            slo_alerts: self.slo_alerts,
            exports_sent,
            ward: self.ward,
        }
    }
}
