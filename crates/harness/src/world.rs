//! The chaos world: cells plus device nodes in one virtual timeline.
//!
//! [`run_with_options`] builds a simulated radio environment
//! ([`SimNetwork`]) around a [`ManualClock`] and wires one cell onto it
//! — two sibling cells when [`RunOptions::peer`] is set. Each cell is a
//! step-driven discovery service, an event sink (standing in for the
//! cell's bus endpoint) and `scenario.nodes` device agents. One loop then
//! single-threadedly steps virtual time in fixed ticks: scripted faults
//! fire at their scripted instants, devices publish while they hold
//! membership, and every observable fact lands in a [`DeliveryOracle`]
//! in a deterministic order. Seconds of simulated chaos run in
//! milliseconds of wall time, and the same seed always produces the
//! same trace, byte for byte.
//!
//! Every tick steps, for each cell in turn: channels, protocols,
//! membership, then the management phase (the peer plane where present,
//! anti-entropy, the health monitor, the detect → repair loop), then the
//! checkpoint, publishing, sink delivery and the telemetry plane where
//! present. Scenario ops that name a node or a core component target
//! cell 0, the cell under test; [`ChaosOp::KillSupervisor`] and
//! [`ChaosOp::PartitionCell`] name their cell, and an index past the
//! last cell records the fault and does nothing else.
//!
//! Each core is durable: its channels journal cursors and outbound
//! queues into a write-ahead log (an in-memory [`MemBackend`] by
//! default; [`RunOptions::backend`] swaps cell 0's), and a snapshot is
//! cut every [`CHECKPOINT_MICROS`] of virtual time. A
//! [`ChaosOp::CoreCrash`] tears the whole core down — discovery table,
//! sink cursors, pending queues — and rebuilds it from that log, so the
//! oracle checks exactly-once and FIFO *across* the restart boundary.
//! The same scenario on a `NoopBackend` loses the cursors and the oracle
//! flags the redelivery.

use std::collections::HashSet;
use std::fmt::Display;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use smc_discovery::{AgentConfig, DiscoveryConfig, DiscoveryService, MemberAgent, MembershipEvent};
use smc_health::{
    health_event, ComponentDown, DeliveryLatency, Detector, FlightRecorder, HealthConfig,
    HealthMonitor, HealthReport, HealthState, HealthTransition, Hysteresis, MembershipFlap,
    PeerAction, PeerConfig, PeerReport, QueueGrowth, RepairAction, RetransmitStorm,
    ServiceRegistry, ServiceSpec, SuperviseConfig, SupervisionReport, Supervisor, WalStall,
};
use smc_policy::{
    health_quench_policies, supervision_policies, telemetry_quench_exemptions, ActionClass,
    ActionSpec, Decision, PolicyService,
};
use smc_telemetry::{
    Hop, HopRecord, Journey, Registry, Sample, TraceSink, Tracer, DEFAULT_SINK_CAPACITY,
};
use smc_transport::{
    Incoming, LinkConfig, MemTransport, ReliableChannel, ReliableConfig, SimNetwork,
};
use smc_types::{
    member::wellknown, CellId, CoreSnapshot, CursorEntry, ManualClock, OutboundEntry, PendingRx,
    ServiceId, ServiceInfo, SharedClock, SupervisionMsg, TraceId, WalRecord,
};
use smc_wal::{
    MemBackend, Recovered, Wal, WalBackend, WalChannelJournal, WalConfig, CHAN_BUS, CHAN_DISCOVERY,
};

use crate::oracle::DeliveryOracle;
use crate::plane::{
    watcher, CellTelemetry, CellView, Observer, PeerPlane, RemoteSupervision,
    TelemetryPlaneOptions, TelemetryPlaneReport, TEL_STEP_MICROS,
};
use crate::scenario::{ChaosOp, CoreComponent, CorruptTarget, LinkProfileKind, Scenario};

/// Virtual-time step granularity.
pub(crate) const TICK_MICROS: u64 = 2_000;
/// Quiescent tail after the scripted run: publishing stops, faults keep
/// resolving, retransmissions flush.
pub(crate) const DRAIN_MICROS: u64 = 3_000_000;
/// Every n-th message carries a large payload to exercise fragmentation.
const BIG_EVERY: u64 = 5;
/// Virtual interval between core snapshots (log compaction points).
pub(crate) const CHECKPOINT_MICROS: u64 = 2_000_000;
/// The fabricated member `CorruptTarget::GhostMember` injects into the
/// sink's routing view. Out of the simulator's address range, so it can
/// never collide with a real device.
const GHOST_MEMBER: ServiceId = ServiceId::from_raw(0x0BAD_C0DE_0BAD);

/// Reliability parameters the harness runs by default.
pub fn default_reliable() -> ReliableConfig {
    ReliableConfig::default()
}

/// Discovery timings the harness runs by default: second-scale leases
/// that a 30-virtual-second scenario exercises many times over.
pub fn default_discovery() -> DiscoveryConfig {
    DiscoveryConfig {
        beacon_interval: Duration::from_millis(200),
        lease: Duration::from_secs(1),
        grace: Duration::from_secs(1),
        ..DiscoveryConfig::default()
    }
}

/// Everything configurable about a chaos run.
pub struct RunOptions {
    /// Reliable-channel parameters for every channel (weaken them —
    /// `dedup: false` — to prove the oracle has teeth).
    pub reliable: ReliableConfig,
    /// Discovery timings and admission control.
    pub discovery: DiscoveryConfig,
    /// Cell 0's WAL backend ([`MemBackend`] by default; `NoopBackend`
    /// demonstrates what durability buys). A sibling cell always
    /// journals into a fresh [`MemBackend`].
    pub backend: Arc<dyn WalBackend>,
    /// Whether every channel, publish and delivery records hops into a
    /// trace sink. On by default; the bench's untraced arm turns it off.
    pub trace: bool,
    /// Ring capacity of the trace sink, in hop records.
    pub trace_capacity: usize,
    /// Contention/occupancy probes (control-mutex hold times, proxy
    /// queue depth at enqueue, WAL append wait/service split) feeding a
    /// [`ProbeSink`](smc_telemetry::ProbeSink) exported through the
    /// run's registry. Off by default; requires `trace`.
    pub probes: bool,
    /// Autonomic self-observation: `Some` runs a [`HealthMonitor`] (plus
    /// flight recorder and the built-in quench obligations) inside the
    /// virtual timeline. `None` (the default) leaves the run untouched —
    /// traces stay byte-identical with pre-health harness versions.
    /// Not available together with `peer`.
    pub health: Option<HealthOptions>,
    /// Self-repair: `Some` runs a [`Supervisor`] over each core's
    /// components — a `component-down` detector feeds failure episodes,
    /// restarts rebuild the dead component from the write-ahead log,
    /// wedged components escalate to a full core reboot, and a periodic
    /// anti-entropy pass reconciles live views against durable truth.
    /// `None` (the default) leaves [`ChaosOp::KillComponent`] faults
    /// permanently down — the teeth baseline.
    pub supervision: Option<SupervisionOptions>,
    /// Peer supervision: `Some` runs two sibling cells on one radio
    /// network, each holding a lease over the other's supervisor with
    /// these timings. A cell whose lease lapses is adopted by its
    /// sibling, which drives its repairs — supervisor revival included —
    /// over a journaled supervision channel. Requires `supervision`.
    /// `None` (the default) runs one cell.
    pub peer: Option<PeerConfig>,
    /// The ward-scale telemetry plane: when set, every cell exports
    /// delta-encoded metrics, trace hops and SLO reports as journaled
    /// `smc.telemetry` events to an observer that folds them into a
    /// [`WardRegistry`](smc_telemetry::WardRegistry). `None` (the
    /// default) sends no extra events.
    pub telemetry: Option<TelemetryPlaneOptions>,
}

/// How the in-run supervisor behaves.
#[derive(Debug, Clone)]
pub struct SupervisionOptions {
    /// Restart budget and retry pacing.
    pub config: SuperviseConfig,
    /// Sampling cadence and hysteresis of the component-down detector.
    /// The default is deliberately tight (fail after 2 bad 250 ms
    /// samples) so time-to-repair stays near one virtual second.
    pub health: HealthConfig,
    /// Virtual interval between anti-entropy reconcile passes.
    pub reconcile_micros: u64,
}

impl Default for SupervisionOptions {
    fn default() -> Self {
        SupervisionOptions {
            config: SuperviseConfig::default(),
            health: HealthConfig {
                interval_micros: 250_000,
                hysteresis: Hysteresis {
                    degrade_after: 1,
                    fail_after: 2,
                    recover_after: 1,
                },
            },
            reconcile_micros: 500_000,
        }
    }
}

/// How the in-run health monitor behaves.
#[derive(Debug, Clone)]
pub struct HealthOptions {
    /// Sampling interval and hysteresis.
    pub config: HealthConfig,
    /// Whether the built-in obligations act on transitions: a member
    /// whose channel goes `Degraded` is quenched (stops publishing)
    /// until it recovers. Off = observe-only.
    pub quench: bool,
    /// Members the quench obligation may never silence (raw service
    /// ids): telemetry observers and anything else that must stay
    /// audible while degraded. Registered as authorisation denies on
    /// `quench:<raw>`, checked at the actuator.
    pub quench_exempt: Vec<u64>,
    /// When set, the flight recorder dumps here if the run ends with an
    /// oracle violation or saw a core crash.
    pub dump_path: Option<PathBuf>,
}

impl Default for HealthOptions {
    fn default() -> Self {
        HealthOptions {
            config: HealthConfig::default(),
            quench: true,
            quench_exempt: Vec::new(),
            dump_path: None,
        }
    }
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            reliable: default_reliable(),
            discovery: default_discovery(),
            backend: Arc::new(MemBackend::new()),
            trace: true,
            trace_capacity: DEFAULT_SINK_CAPACITY,
            probes: false,
            health: None,
            supervision: None,
            peer: None,
            telemetry: None,
        }
    }
}

impl std::fmt::Debug for RunOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunOptions")
            .field("trace", &self.trace)
            .field("trace_capacity", &self.trace_capacity)
            .field("peer", &self.peer)
            .finish_non_exhaustive()
    }
}

/// The outcome of one chaos run.
#[derive(Debug)]
pub struct RunReport {
    /// The oracle holding the full trace and any violation.
    pub oracle: DeliveryOracle,
    /// The device endpoints: cell 0's in node-index order, then cell 1's.
    pub device_ids: Vec<ServiceId>,
    /// Per-cell outcomes, in member-id order.
    pub cells: Vec<CellReport>,
    /// Ticks executed.
    pub ticks: u64,
    /// Virtual micros covered (scripted duration plus drain).
    pub virtual_micros: u64,
    /// Core restarts recovered from the write-ahead log, over all cells.
    pub core_recoveries: u64,
    /// Wall-clock micros spent replaying the log across all recoveries.
    /// Reporting only — never part of the deterministic trace.
    pub recovery_micros_total: u64,
    /// Reliable-channel retransmissions summed over every data channel
    /// and every incarnation (crashed devices and cores included).
    pub retransmits: u64,
    /// The hop-record sink every component traced into, when
    /// [`RunOptions::trace`] was on.
    pub trace_sink: Option<Arc<TraceSink>>,
    /// The run's metrics registry: cell 0's WAL, discovery and sink
    /// channel plus run-wide harness counters, sampled when rendered.
    pub registry: Registry,
    /// The telemetry plane's outcome, when [`RunOptions::telemetry`] was
    /// set.
    pub telemetry: Option<TelemetryPlaneReport>,
}

/// What one cell ended the run with.
#[derive(Debug, Default)]
pub struct CellReport {
    /// The cell's member id (1-based; also its discovery [`CellId`]).
    pub member_id: u64,
    /// Core reboots (scripted, escalated or wire-commanded) this cell
    /// went through.
    pub core_recoveries: u64,
    /// The local supervisor's episode accounting (final incarnation),
    /// when [`RunOptions::supervision`] was on.
    pub supervision: Option<SupervisionReport>,
    /// Whether the in-process supervisor was alive at run end.
    pub supervisor_alive: bool,
    /// Repairs the cell's own supervisor executed (or saw refused, for
    /// wedged components): `(at_micros, what)`.
    pub repairs: Vec<(u64, String)>,
    /// Anti-entropy passes run on this cell (local or wire-ordered).
    pub reconciles: u64,
    /// Divergences those passes repaired: `(at_micros, what)`.
    pub reconcile_fixes: Vec<(u64, String)>,
    /// `Restart` actions the built-in supervision obligation fired
    /// through the policy service (the policy-layer view of the same
    /// failures the supervisor handled).
    pub policy_restarts: u64,
    /// Missed-ack retransmission rounds that pulsed the supervisor's
    /// interrupt line (each one woke an immediate sample).
    pub missed_ack_interrupts: u64,
    /// What the health monitor saw, when [`RunOptions::health`] was on.
    pub health: Option<HealthOutcome>,
    /// The peer watcher's counters and decision log (final incarnation;
    /// empty without the peer plane).
    pub peer: PeerReport,
    /// Times a sibling's remote `Repair` revived this cell's supervisor.
    pub supervisor_revivals: u64,
    /// Repair commands this cell shipped to its adopted ward.
    pub remote_commands: Vec<(u64, String)>,
    /// Wire-commanded repairs executed *on* this cell.
    pub remote_repairs: Vec<(u64, String)>,
    /// Checkpoints refused because no reconcile had run recently enough
    /// (the peer plane's reconcile-before-checkpoint invariant holding).
    pub checkpoints_deferred: u64,
    /// Sibling member ids this cell still held adopted at run end.
    pub adopted_at_end: Vec<u64>,
}

impl CellReport {
    /// `true` when the cell ended healthy: supervisor alive, every
    /// failure episode repaired, no ward still adopted.
    pub fn converged(&self) -> bool {
        self.supervisor_alive
            && self
                .supervision
                .as_ref()
                .is_some_and(SupervisionReport::converged)
            && self.adopted_at_end.is_empty()
    }
}

/// Everything the in-run health monitor produced.
#[derive(Debug)]
pub struct HealthOutcome {
    /// Every state transition, in virtual-time order.
    pub transitions: Vec<HealthTransition>,
    /// Every quench/wake the built-in obligations applied:
    /// `(at_micros, member, quenched)`.
    pub quenches: Vec<(u64, ServiceId, bool)>,
    /// Final per-component health.
    pub report: HealthReport,
    /// The black box: registry snapshots, hops and notes from the run.
    pub recorder: FlightRecorder,
    /// Where the recorder dumped, if it did.
    pub dumped_to: Option<PathBuf>,
}

impl HealthOutcome {
    /// The first transition of `component` into `to`, if any.
    pub fn first_transition(&self, component: &str, to: HealthState) -> Option<&HealthTransition> {
        self.transitions
            .iter()
            .find(|t| t.component == component && t.to == to)
    }

    /// `true` when the run produced no transitions at all — every
    /// component stayed `Healthy` throughout (the clean-run criterion).
    pub fn stayed_green(&self) -> bool {
        self.transitions.is_empty() && self.report.all_healthy()
    }
}

impl RunReport {
    /// The byte-comparable rendering of the whole trace.
    pub fn trace_text(&self) -> String {
        self.oracle.trace_text()
    }

    /// The hop-by-hop journey of one published message, if tracing was
    /// on (`None` otherwise; an *empty* journey means the ring has
    /// overwritten its records).
    pub fn journey(&self, sender: ServiceId, seq: u64) -> Option<Journey> {
        self.trace_sink
            .as_ref()
            .map(|s| s.journey(TraceId::for_event(sender, seq)))
    }

    /// Panics with seed + trace if a delivery guarantee broke.
    pub fn assert_clean(&self) {
        self.oracle.assert_clean();
    }

    /// `true` when every published message of every device was
    /// delivered — only meaningful for scenarios without purges.
    pub fn all_delivered(&self) -> bool {
        self.device_ids
            .iter()
            .all(|&id| self.oracle.delivered(id) == self.oracle.published(id))
    }

    /// Total messages published across devices.
    pub fn total_published(&self) -> u64 {
        self.device_ids
            .iter()
            .map(|&id| self.oracle.published(id))
            .sum()
    }

    /// Total messages delivered across devices.
    pub fn total_delivered(&self) -> u64 {
        self.device_ids
            .iter()
            .map(|&id| self.oracle.delivered(id))
            .sum()
    }

    /// `true` if the trace contains a purge of `member`.
    pub fn was_purged(&self, member: ServiceId) -> bool {
        self.oracle.trace().iter().any(
            |e| matches!(e, crate::oracle::TraceEvent::Purged { member: m, .. } if *m == member),
        )
    }

    /// How many times `member` was admitted.
    pub fn times_joined(&self, member: ServiceId) -> usize {
        self.oracle
            .trace()
            .iter()
            .filter(|e| matches!(e, crate::oracle::TraceEvent::Joined { member: m, .. } if *m == member))
            .count()
    }

    /// `true` when every cell ended healthy (see
    /// [`CellReport::converged`]).
    pub fn converged(&self) -> bool {
        self.cells.iter().all(CellReport::converged)
    }

    /// The cell report for member id `id` (1-based). Panics if absent.
    pub fn cell(&self, id: u64) -> &CellReport {
        self.cells
            .iter()
            .find(|c| c.member_id == id)
            .expect("cell report present")
    }
}

/// A fault-timeline entry, expanded from the scenario's scripted ops.
/// Core acts carry no node index (`usize::MAX` sentinel in the timeline).
#[derive(Debug, Clone)]
enum Act {
    Loss(f64),
    Dup(f64),
    Heal,
    Profile(LinkProfileKind),
    PartitionOn,
    PartitionOff,
    Domain(u32),
    Crash,
    Restart,
    CoreCrash,
    CoreRestart,
    Kill(CoreComponent, bool),
    Corrupt(CorruptTarget),
    /// The in-process supervisor of cell `n` dies (no scripted revival).
    KillSupervisor(usize),
    /// Cell `n`'s inter-cell links sever (`true`) or heal (`false`).
    CellPartition(usize, bool),
}

/// Expands scripted ops into an absolute-time fault timeline. Core ops
/// use a `usize::MAX` node sentinel so they sort after device ops at
/// the same instant (deterministically).
fn timeline(scenario: &Scenario) -> Vec<(u64, usize, Act)> {
    const CORE: usize = usize::MAX;
    let mut timeline: Vec<(u64, usize, Act)> = Vec::new();
    for s in &scenario.ops {
        let at = s.at.as_micros() as u64;
        let after = |d: Duration| at + d.as_micros() as u64;
        let (node, act, undo) = match s.op {
            ChaosOp::LossBurst {
                node,
                loss,
                duration,
            } => (node, Act::Loss(loss), Some((after(duration), Act::Heal))),
            ChaosOp::DuplicateStorm {
                node,
                duplicate,
                duration,
            } => (
                node,
                Act::Dup(duplicate),
                Some((after(duration), Act::Heal)),
            ),
            ChaosOp::Partition { node, duration } => (
                node,
                Act::PartitionOn,
                Some((after(duration), Act::PartitionOff)),
            ),
            ChaosOp::Crash { node, down_for } => {
                (node, Act::Crash, Some((after(down_for), Act::Restart)))
            }
            ChaosOp::DomainMove {
                node,
                domain,
                duration,
            } => (
                node,
                Act::Domain(domain),
                Some((after(duration), Act::Domain(0))),
            ),
            ChaosOp::LinkProfile { node, profile } => (node, Act::Profile(profile), None),
            ChaosOp::CoreCrash { down_for } => (
                CORE,
                Act::CoreCrash,
                Some((after(down_for), Act::CoreRestart)),
            ),
            // No scripted recovery for these: the supervisor restarts
            // killed components, the reconcile pass heals corruptions,
            // and only a sibling cell revives a killed supervisor.
            ChaosOp::KillComponent { component, wedged } => {
                (CORE, Act::Kill(component, wedged), None)
            }
            ChaosOp::CorruptState { target } => (CORE, Act::Corrupt(target), None),
            ChaosOp::KillSupervisor { cell } => (CORE, Act::KillSupervisor(cell), None),
            ChaosOp::PartitionCell { cell, duration } => (
                CORE,
                Act::CellPartition(cell, true),
                Some((after(duration), Act::CellPartition(cell, false))),
            ),
        };
        timeline.push((at, node, act));
        if let Some((at, act)) = undo {
            timeline.push((at, node, act));
        }
    }
    timeline.sort_by_key(|&(at, node, _)| (at, node));
    timeline
}

/// The prefix of a cell's fault notes: none in a one-cell world (whose
/// note bodies are the canonical form), `cell{i} ` with siblings.
fn note_prefix(cell: usize, cells: usize) -> String {
    if cells == 1 {
        String::new()
    } else {
        format!("cell{cell} ")
    }
}

/// Which core components are currently dead (and whether a restart can
/// bring them back). Tracked whether or not supervision is on: without a
/// supervisor a killed component simply stays down.
#[derive(Debug, Clone, Copy, Default)]
struct ComponentFlags {
    discovery_down: bool,
    sink_down: bool,
    discovery_wedged: bool,
    sink_wedged: bool,
}

impl ComponentFlags {
    fn any_down(&self) -> bool {
        self.discovery_down || self.sink_down
    }
}

/// A component-down monitor plus a supervisor planning over `core` and
/// `components`, each depending on and escalating to `core`.
pub(crate) fn repair_loop(
    opts: &SupervisionOptions,
    components: &[&str],
) -> (HealthMonitor, Supervisor) {
    let mut registry = ServiceRegistry::new();
    registry.register(ServiceSpec::new("core"));
    for &c in components {
        registry.register(ServiceSpec::new(c).depends_on("core").escalates_to("core"));
    }
    (
        HealthMonitor::with_detectors(opts.health, vec![Box::new(ComponentDown::default())]),
        Supervisor::new(registry, opts.config),
    )
}

/// The up/down gauge a component-down detector watches.
fn up_sample(name: &str, is_up: bool) -> Sample {
    Sample {
        name: "smc_component_up".to_string(),
        help: String::new(),
        monotonic: false,
        labels: vec![("component".to_string(), name.to_string())],
        value: u64::from(is_up),
    }
}

/// The in-run repair stack: component-down detection, the supervisor,
/// the built-in supervision obligation, and reconcile cadence.
struct SupervisionRuntime {
    monitor: HealthMonitor,
    supervisor: Supervisor,
    policy: PolicyService,
    reconcile_micros: u64,
    next_reconcile: u64,
    /// Pulsed by the device channels whenever a message enters a
    /// retransmission round (a missed ack — the earliest wire-visible
    /// sign of a dead receiver). The monitor samples immediately instead
    /// of waiting out its cadence.
    interrupt_line: Arc<AtomicU64>,
    /// Interrupt pulses already consumed by a sample.
    seen_interrupts: u64,
    /// `false` after a [`ChaosOp::KillSupervisor`]: detection, repair
    /// and reconcile all halt while the data plane runs on. Only a
    /// sibling cell's remote repair ever revives it.
    alive: bool,
}

impl SupervisionRuntime {
    fn new(opts: &SupervisionOptions) -> SupervisionRuntime {
        let policy = PolicyService::new();
        for p in supervision_policies() {
            policy
                .add(p)
                .expect("built-in supervision policies are valid");
        }
        let (monitor, supervisor) = repair_loop(opts, &["discovery", "sink"]);
        SupervisionRuntime {
            monitor,
            supervisor,
            policy,
            reconcile_micros: opts.reconcile_micros.max(1),
            next_reconcile: 0,
            interrupt_line: Arc::new(AtomicU64::new(0)),
            seen_interrupts: 0,
            alive: true,
        }
    }
}

struct Device {
    id: ServiceId,
    info: ServiceInfo,
    channel: Arc<ReliableChannel>,
    agent: Arc<MemberAgent>,
    next_seq: u64,
    next_publish: u64,
    crashed: bool,
    /// Set by the built-in health obligation: a quenched device holds
    /// its publishes until woken.
    quenched: bool,
    /// The link profile faults modify and heals restore to.
    baseline: LinkConfig,
    domain: u32,
}

/// A device's channel and member agent on `transport`. Sibling cells
/// share one radio network, so the agent joins only its own cell's
/// beacons.
fn attach(
    w: &World,
    transport: MemTransport,
    info: &ServiceInfo,
    cell: CellId,
    interrupt: Option<&Arc<AtomicU64>>,
) -> (Arc<ReliableChannel>, Arc<MemberAgent>) {
    let channel = ReliableChannel::with_clock(
        Arc::new(transport),
        w.reliable.clone(),
        Arc::clone(&w.clock),
    );
    channel.set_tracer(w.tracer.clone());
    if let Some(line) = interrupt {
        channel.set_missed_ack_interrupt(Arc::clone(line));
    }
    let agent = MemberAgent::with_clock(
        info.clone(),
        Arc::clone(&channel),
        AgentConfig {
            cell_filter: Some(cell),
            ..AgentConfig::default()
        },
        Arc::clone(&w.clock),
    );
    (channel, agent)
}

/// The cell's core: everything a `CoreCrash` destroys and a
/// `CoreRestart` rebuilds from the write-ahead log.
struct Core {
    wal: Arc<Wal>,
    disco_channel: Arc<ReliableChannel>,
    sink_channel: Arc<ReliableChannel>,
    service: Arc<DiscoveryService>,
}

/// The in-run self-observation stack: monitor, built-in obligations, and
/// the flight recorder, all stepped on the virtual timeline.
struct HealthRuntime {
    monitor: HealthMonitor,
    policy: PolicyService,
    recorder: FlightRecorder,
    transitions: Vec<HealthTransition>,
    quenches: Vec<(u64, ServiceId, bool)>,
    quench: bool,
    dump_path: Option<PathBuf>,
    hop_cursor: u64,
}

impl HealthRuntime {
    fn new(opts: HealthOptions) -> HealthRuntime {
        // The same detector suite `default_detectors` ships, except the
        // WAL-stall traffic reference is the harness's own publish
        // counter (the harness routes events itself, so the cell's
        // `smc_events_published_total` never moves here).
        let detectors: Vec<Box<dyn Detector>> = vec![
            Box::new(RetransmitStorm::default()),
            Box::new(QueueGrowth::default()),
            Box::new(WalStall::new(
                "smc_wal_records_appended_total",
                "smc_harness_published_total",
            )),
            Box::new(DeliveryLatency::default()),
            Box::new(MembershipFlap::default()),
        ];
        let policy = PolicyService::new();
        for p in health_quench_policies() {
            policy.add(p).expect("built-in health policies are valid");
        }
        for p in telemetry_quench_exemptions(opts.quench_exempt.iter().copied()) {
            policy
                .add(p)
                .expect("built-in exemption policies are valid");
        }
        HealthRuntime {
            monitor: HealthMonitor::with_detectors(opts.config, detectors),
            policy,
            recorder: FlightRecorder::default(),
            transitions: Vec::new(),
            quenches: Vec::new(),
            quench: opts.quench,
            dump_path: opts.dump_path,
            hop_cursor: 0,
        }
    }
}

/// Maps a detector's component key back to the device it watches:
/// `channel:device3` / `queue:device3` → index 3.
fn component_device(component: &str, device_ids: &[ServiceId]) -> Option<ServiceId> {
    component
        .strip_prefix("channel:")
        .or_else(|| component.strip_prefix("queue:"))
        .and_then(|l| l.strip_prefix("device"))
        .and_then(|n| n.parse::<usize>().ok())
        .and_then(|n| device_ids.get(n).copied())
}

fn encode(seq: u64) -> Vec<u8> {
    let filler = if seq.is_multiple_of(BIG_EVERY) {
        2000
    } else {
        32
    };
    let mut payload = Vec::with_capacity(8 + filler);
    payload.extend_from_slice(&seq.to_le_bytes());
    payload.resize(8 + filler, 0xA5);
    payload
}

fn decode(payload: &[u8]) -> Option<u64> {
    payload
        .get(..8)
        .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
}

/// What every cell of a run shares: the radio network and clock, the
/// tracer, and the run's configuration.
pub(crate) struct World {
    pub(crate) net: SimNetwork,
    pub(crate) clock: SharedClock,
    pub(crate) tracer: Tracer,
    pub(crate) reliable: ReliableConfig,
    discovery: DiscoveryConfig,
    supervision: Option<SupervisionOptions>,
    peer: Option<PeerConfig>,
    publish_interval: u64,
}

/// A journaled channel on `transport` for core channel `chan`, seeded
/// with the recovered receive cursors (and, for the sink, the retained
/// delivered-but-unrecorded inbound).
fn core_channel(
    w: &World,
    wal: &Arc<Wal>,
    transport: MemTransport,
    chan: u8,
    state: &CoreSnapshot,
) -> Arc<ReliableChannel> {
    let channel = if chan == CHAN_BUS {
        // The sink retains delivered payloads until the run loop records
        // them (mirroring the SMC bus channel): an acked-but-unrecorded
        // message survives a crash in the log instead of vanishing.
        ReliableChannel::with_clock_journaled(
            Arc::new(transport),
            w.reliable.clone(),
            Arc::clone(&w.clock),
            Arc::new(WalChannelJournal::with_rx_retention(Arc::clone(wal), chan)),
            state.cursors_for(chan),
            state.pending_rx_for(chan),
        )
    } else {
        ReliableChannel::with_clock_journaled(
            Arc::new(transport),
            w.reliable.clone(),
            Arc::clone(&w.clock),
            Arc::new(WalChannelJournal::new(Arc::clone(wal), chan)),
            state.cursors_for(chan),
            Vec::new(),
        )
    };
    channel.set_tracer(w.tracer.clone());
    channel
}

/// Re-enqueues the recovered outbound queue for retransmission.
/// `send_recovered` renumbers the journal's retained entries instead of
/// journalling fresh copies, so a second crash resends this queue once
/// more — never twice.
fn resend_recovered(sink: &ReliableChannel, state: &CoreSnapshot) {
    for (peer, payloads) in state.outbound_for(CHAN_BUS) {
        for (prior_seq, payload) in payloads {
            let _ = sink.send_recovered(peer, payload, prior_seq);
        }
    }
}

/// A discovery service on `channel`, beaconing as `cell`, that re-admits
/// every member durable truth holds.
fn discovery_service(
    w: &World,
    channel: &Arc<ReliableChannel>,
    sink_id: ServiceId,
    cell: CellId,
    state: &CoreSnapshot,
) -> Arc<DiscoveryService> {
    let service = DiscoveryService::with_clock(
        cell,
        Arc::clone(channel),
        w.discovery.clone().with_bus_endpoint(sink_id),
        Arc::clone(&w.clock),
    );
    for info in &state.members {
        service.restore_member(info.clone());
    }
    service
}

/// Opens the WAL on `backend` and assembles a core from whatever it
/// recovers: journaled channels seeded with the restored receive
/// cursors, a discovery service re-admitting every snapshotted member
/// (resetting the sink's member filter to match), and the recovered
/// outbound queue re-enqueued for retransmission. `ids` pins the
/// endpoints of a previous incarnation on restart; `cell` names the
/// cell the discovery service beacons as (sibling cells on one radio
/// network must beacon distinct ids so agents can filter).
fn boot_core(
    w: &World,
    backend: &Arc<dyn WalBackend>,
    ids: Option<(ServiceId, ServiceId)>,
    members: &mut HashSet<ServiceId>,
    cell: CellId,
) -> (Core, Recovered) {
    let (wal, recovered) =
        Wal::open(Arc::clone(backend), WalConfig::default()).expect("wal backend opens");
    let wal = Arc::new(wal);
    if let Some(probes) = w.tracer.probes() {
        wal.set_probes(Arc::clone(probes), Arc::clone(&w.clock));
    }
    let (disco_transport, sink_transport) = match ids {
        Some((disco_id, sink_id)) => (
            w.net.endpoint_with_id(disco_id),
            w.net.endpoint_with_id(sink_id),
        ),
        None => (w.net.endpoint(), w.net.endpoint()),
    };
    let state = &recovered.snapshot;
    let disco_channel = core_channel(w, &wal, disco_transport, CHAN_DISCOVERY, state);
    let sink_channel = core_channel(w, &wal, sink_transport, CHAN_BUS, state);
    let service = discovery_service(w, &disco_channel, sink_channel.local_id(), cell, state);
    members.clear();
    members.extend(state.members.iter().map(|i| i.id));
    resend_recovered(&sink_channel, state);
    (
        Core {
            wal,
            disco_channel,
            sink_channel,
            service,
        },
        recovered,
    )
}

/// One cell: its core and devices, plus whichever management planes the
/// run enables.
struct Cell {
    member_id: u64,
    /// See [`note_prefix`].
    prefix: String,
    backend: Arc<dyn WalBackend>,
    core: Core,
    disco_id: ServiceId,
    sink_id: ServiceId,
    /// The sink's member filter: whose traffic is served.
    members: HashSet<ServiceId>,
    flags: ComponentFlags,
    core_crashed: bool,
    devices: Vec<Device>,
    device_ids: Vec<ServiceId>,
    sup: Option<SupervisionRuntime>,
    health: Option<HealthRuntime>,
    peer: Option<PeerPlane>,
    telemetry: Option<CellTelemetry>,
    last_reconcile_at: u64,
    /// Retransmissions of incarnations that no longer exist.
    retransmits_gone: u64,
    recovery_micros: u64,
    saw_core_crash: bool,
    saw_escalation: bool,
    /// The report, filled in as the run goes.
    out: CellReport,
}

impl Cell {
    fn new(
        w: &World,
        index: usize,
        cells: usize,
        nodes: usize,
        backend: Arc<dyn WalBackend>,
        health: Option<HealthOptions>,
        telemetry: Option<&TelemetryPlaneOptions>,
    ) -> Cell {
        let member_id = index as u64 + 1;
        let cell = CellId(member_id);
        let mut members = HashSet::new();
        let (core, _) = boot_core(w, &backend, None, &mut members, cell);
        let sup = w.supervision.as_ref().map(SupervisionRuntime::new);
        let devices: Vec<Device> = (0..nodes)
            .map(|n| {
                let info = ServiceInfo::new(ServiceId::NIL, "harness.device")
                    .with_name(format!("chaos device {member_id}.{n}"));
                let (channel, agent) = attach(
                    w,
                    w.net.endpoint(),
                    &info,
                    cell,
                    sup.as_ref().map(|s| &s.interrupt_line),
                );
                Device {
                    id: channel.local_id(),
                    info,
                    channel,
                    agent,
                    next_seq: 1,
                    next_publish: 0,
                    crashed: false,
                    quenched: false,
                    baseline: LinkConfig::ideal(),
                    domain: 0,
                }
            })
            .collect();
        // Endpoint order is part of the trace: core, devices, then the
        // supervision and telemetry channels.
        let peer = w.peer.as_ref().map(|c| PeerPlane::new(w, member_id, c));
        let telemetry = telemetry.map(|t| CellTelemetry::new(w, t));
        Cell {
            member_id,
            prefix: note_prefix(index, cells),
            backend,
            disco_id: core.disco_channel.local_id(),
            sink_id: core.sink_channel.local_id(),
            core,
            members,
            flags: ComponentFlags::default(),
            core_crashed: false,
            device_ids: devices.iter().map(|d| d.id).collect(),
            devices,
            sup,
            health: health.map(HealthRuntime::new),
            peer,
            telemetry,
            last_reconcile_at: 0,
            retransmits_gone: 0,
            recovery_micros: 0,
            saw_core_crash: false,
            saw_escalation: false,
            out: CellReport {
                member_id,
                ..CellReport::default()
            },
        }
    }

    fn note(&self, oracle: &mut DeliveryOracle, now: u64, what: impl Display) {
        oracle.record_fault(now, format!("{}{what}", self.prefix));
    }

    fn recorder_note(&mut self, now: u64, what: impl Into<String>) {
        if let Some(h) = self.health.as_mut() {
            h.recorder.note(now, what);
        }
    }

    fn sup_alive(&self) -> bool {
        self.sup.as_ref().is_some_and(|s| s.alive)
    }

    fn view(&self) -> CellView {
        CellView {
            discovery_down: self.flags.discovery_down,
            sink_down: self.flags.sink_down,
            sup_alive: self.sup_alive(),
            core_crashed: self.core_crashed,
        }
    }

    /// The sink's routing step, mirroring the SMC's rule that purged
    /// members' traffic is no longer served; then releases the journal's
    /// retained copy so checkpoints stop carrying it.
    fn deliver(
        &mut self,
        w: &World,
        oracle: &mut DeliveryOracle,
        now: u64,
        from: ServiceId,
        seq: u64,
        payload: &[u8],
    ) {
        if let Some(published) = decode(payload) {
            let t = TraceId::for_event(from, published);
            if self.members.contains(&from) {
                w.tracer.record(t, Hop::Delivered);
                oracle.record_delivery(now, from, published);
                if let Some(tel) = self.telemetry.as_mut() {
                    tel.on_deliver(from, published, now);
                }
            } else {
                w.tracer.record(
                    t,
                    Hop::Dropped {
                        reason: "purge-filter",
                    },
                );
                oracle.record_filtered(now, from, published);
            }
        }
        self.core.sink_channel.consumed(from, seq);
    }

    /// Re-processes events an outage caught between ack and recording:
    /// their senders saw them acknowledged and will never retransmit, so
    /// the log held the only copy. Mirrors `SmcCell::start_durable`.
    fn replay_pending_rx(
        &mut self,
        w: &World,
        oracle: &mut DeliveryOracle,
        now: u64,
        state: &CoreSnapshot,
    ) {
        for (peer, _epoch, seq, payload) in state.pending_rx_for(CHAN_BUS) {
            self.deliver(w, oracle, now, peer, seq, &payload);
        }
    }

    /// Tears the core down: every live component stops.
    fn crash_core(&mut self) {
        if !self.flags.discovery_down {
            self.retransmits_gone += self.core.disco_channel.stats().retransmits;
            self.core.service.shutdown();
        }
        if !self.flags.sink_down {
            self.retransmits_gone += self.core.sink_channel.stats().retransmits;
            self.core.sink_channel.close();
        }
        self.core_crashed = true;
        self.flags = ComponentFlags::default();
    }

    /// Rebuilds the core from its write-ahead log on the same endpoints
    /// (the scripted `CoreRestart` and the escalation repair).
    fn reboot_core(&mut self, w: &World, oracle: &mut DeliveryOracle, now: u64) {
        let (core, recovered) = boot_core(
            w,
            &self.backend,
            Some((self.disco_id, self.sink_id)),
            &mut self.members,
            CellId(self.member_id),
        );
        self.core = core;
        self.core_crashed = false;
        self.flags = ComponentFlags::default();
        self.out.core_recoveries += 1;
        self.recovery_micros += recovered.recovery_micros;
        self.replay_pending_rx(w, oracle, now, &recovered.snapshot);
    }

    /// Rebuilds the discovery service (and its journaled channel) on the
    /// same endpoint from durable truth — the `restart discovery`
    /// repair. The sink and its membership view are untouched.
    fn restart_discovery(&mut self, w: &World) {
        let state = self.core.wal.recover_state().unwrap_or_default();
        let transport = w.net.endpoint_with_id(self.disco_id);
        let channel = core_channel(w, &self.core.wal, transport, CHAN_DISCOVERY, &state);
        self.core.service =
            discovery_service(w, &channel, self.sink_id, CellId(self.member_id), &state);
        self.core.disco_channel = channel;
    }

    /// Rebuilds the sink channel on the same endpoint from durable truth
    /// — the `restart sink` repair. Recovered receive cursors keep dedup
    /// across the outage; the recovered outbound queue re-enters
    /// retransmission; events the kill caught between ack and recording
    /// are re-processed, exactly like the core-crash recovery path.
    fn restart_sink(&mut self, w: &World, oracle: &mut DeliveryOracle, now: u64) {
        let state = self.core.wal.recover_state().unwrap_or_default();
        let transport = w.net.endpoint_with_id(self.sink_id);
        let channel = core_channel(w, &self.core.wal, transport, CHAN_BUS, &state);
        resend_recovered(&channel, &state);
        self.core.sink_channel = channel;
        self.replay_pending_rx(w, oracle, now, &state);
    }

    /// Cuts a snapshot of the core's durable state into the WAL: both
    /// channels' receive cursors, the sink's pending outbound plus
    /// delivered-but-unrecorded inbound, and the sorted membership table.
    /// Mirrors `SmcCell::checkpoint` (the world is single-threaded, so the
    /// pre-built-snapshot form of `Wal::snapshot` is race-free here).
    fn checkpoint(&self) {
        let core = &self.core;
        let mut snap = CoreSnapshot::default();
        for (chan, channel) in [
            (CHAN_BUS, &core.sink_channel),
            (CHAN_DISCOVERY, &core.disco_channel),
        ] {
            for (peer, epoch, expected) in channel.rx_cursors() {
                snap.cursors.push(CursorEntry {
                    chan,
                    peer,
                    epoch,
                    expected,
                });
            }
        }
        for (peer, msgs) in core.sink_channel.outbound_pending() {
            for (seq, payload) in msgs {
                snap.outbound.push(OutboundEntry {
                    chan: CHAN_BUS,
                    peer,
                    seq,
                    payload,
                });
            }
        }
        for (peer, epoch, seq, payload) in core.sink_channel.unconsumed_rx() {
            snap.pending_rx.push(PendingRx {
                chan: CHAN_BUS,
                peer,
                epoch,
                seq,
                payload,
            });
        }
        snap.members = core.service.members();
        snap.members.sort_by_key(|i| i.id);
        let _ = core.wal.snapshot(&snap);
    }

    /// Periodic snapshot: compacts the log so recovery replays a bounded
    /// tail. Never while a component is down: snapshotting a closed
    /// channel would freeze empty cursors over the journal's live tail
    /// and destroy the durable truth repair depends on. With the peer
    /// plane, also never while the last anti-entropy pass is older than
    /// one checkpoint interval — compaction would freeze a possibly
    /// diverged view into durable truth, even when the supervisor that
    /// runs reconciles is dead. The adopter's wire-ordered `Reconcile` is
    /// what re-arms it; a cell with no sibling has nothing to re-arm it,
    /// so it never defers.
    fn checkpoint_due(&mut self, oracle: &mut DeliveryOracle, now: u64) {
        if self.core_crashed
            || self.flags.any_down()
            || now == 0
            || !now.is_multiple_of(CHECKPOINT_MICROS)
        {
            return;
        }
        if self.peer.is_some() && now.saturating_sub(self.last_reconcile_at) > CHECKPOINT_MICROS {
            self.out.checkpoints_deferred += 1;
            self.note(oracle, now, "checkpoint deferred (no recent reconcile)");
        } else {
            self.checkpoint();
        }
    }

    /// One anti-entropy pass: diffs the sink's membership view and the
    /// discovery table against durable truth (the folded write-ahead log)
    /// and repairs both directions. `by` names the sibling that ordered
    /// it over the wire. Returns human-readable descriptions of every
    /// divergence repaired, in deterministic order.
    fn reconcile(&mut self, oracle: &mut DeliveryOracle, now: u64, by: Option<u64>) -> Vec<String> {
        self.out.reconciles += 1;
        self.last_reconcile_at = now;
        let Ok(truth) = self.core.wal.recover_state() else {
            return Vec::new();
        };
        let mut fixes = Vec::new();
        let mut truth_sorted = truth.members;
        truth_sorted.sort_by_key(|i| i.id);
        let truth_ids: HashSet<ServiceId> = truth_sorted.iter().map(|i| i.id).collect();
        // Sink view: re-admit members durable truth still has...
        for info in &truth_sorted {
            if self.members.insert(info.id) {
                fixes.push(format!("sink view re-admitted {}", info.id));
            }
        }
        // ...and drop ids truth never admitted (or has purged).
        let mut ghosts: Vec<ServiceId> = self
            .members
            .iter()
            .filter(|id| !truth_ids.contains(id))
            .copied()
            .collect();
        ghosts.sort();
        for ghost in ghosts {
            self.members.remove(&ghost);
            fixes.push(format!("sink view dropped ghost {ghost}"));
        }
        // Discovery table, when it's alive: same diff, both directions.
        if !self.flags.discovery_down {
            let service = &self.core.service;
            let live_ids: HashSet<ServiceId> = service.members().iter().map(|i| i.id).collect();
            for info in &truth_sorted {
                if !live_ids.contains(&info.id) {
                    service.restore_member(info.clone());
                    fixes.push(format!("discovery re-admitted {}", info.id));
                }
            }
            let mut stray: Vec<ServiceId> = live_ids
                .iter()
                .filter(|id| !truth_ids.contains(id))
                .copied()
                .collect();
            stray.sort();
            for id in stray {
                if service.forget_member(id) {
                    fixes.push(format!("discovery dropped ghost {id}"));
                }
            }
        }
        let by = by.map_or_else(String::new, |r| format!(" (by {r})"));
        for fix in &fixes {
            self.note(oracle, now, format_args!("reconcile{by}: {fix}"));
        }
        self.out
            .reconcile_fixes
            .extend(fixes.iter().map(|f| (now, f.clone())));
        fixes
    }

    /// Fires one scripted core or device act at this cell.
    fn fire(&mut self, w: &World, oracle: &mut DeliveryOracle, now: u64, node: usize, act: &Act) {
        match *act {
            Act::CoreCrash => {
                if self.core_crashed {
                    return;
                }
                self.note(oracle, now, "core crashed");
                self.saw_core_crash = true;
                self.recorder_note(now, "core crashed");
                self.crash_core();
            }
            Act::CoreRestart => {
                if !self.core_crashed {
                    return;
                }
                self.note(oracle, now, "core restarted");
                self.recorder_note(now, "core restarted from WAL");
                self.reboot_core(w, oracle, now);
            }
            Act::Kill(component, wedged) => {
                if self.core_crashed {
                    return;
                }
                match component {
                    CoreComponent::Discovery if !self.flags.discovery_down => {
                        self.note(oracle, now, "discovery killed");
                        self.retransmits_gone += self.core.disco_channel.stats().retransmits;
                        self.core.service.shutdown();
                        self.flags.discovery_down = true;
                        self.flags.discovery_wedged = wedged;
                    }
                    CoreComponent::Sink if !self.flags.sink_down => {
                        self.note(oracle, now, "sink killed");
                        self.retransmits_gone += self.core.sink_channel.stats().retransmits;
                        self.core.sink_channel.close();
                        self.flags.sink_down = true;
                        self.flags.sink_wedged = wedged;
                    }
                    _ => {}
                }
            }
            Act::Corrupt(target) => {
                let what = match target {
                    CorruptTarget::MembershipView { node } => self
                        .device_ids
                        .get(node)
                        .copied()
                        .filter(|id| self.members.remove(id))
                        .map(|id| format!("sink view dropped {id}")),
                    CorruptTarget::GhostMember => self
                        .members
                        .insert(GHOST_MEMBER)
                        .then(|| format!("ghost {GHOST_MEMBER} in sink view")),
                    CorruptTarget::DiscoveryMember { node } => self
                        .device_ids
                        .get(node)
                        .copied()
                        .filter(|&id| {
                            !self.core_crashed
                                && !self.flags.discovery_down
                                && self.core.service.forget_member(id)
                        })
                        .map(|id| format!("discovery forgot {id}")),
                };
                if let Some(what) = what {
                    self.note(oracle, now, format_args!("corrupt: {what}"));
                }
            }
            Act::KillSupervisor(_) | Act::CellPartition(..) => {
                unreachable!("cell-naming acts are routed by the run loop")
            }
            _ => self.apply_device(w, oracle, now, node, act),
        }
    }

    /// Applies a device act to node `node`; an index past the last
    /// device does nothing.
    fn apply_device(
        &mut self,
        w: &World,
        oracle: &mut DeliveryOracle,
        now: u64,
        node: usize,
        act: &Act,
    ) {
        let Some(dev) = self.devices.get_mut(node) else {
            return;
        };
        let (disco_id, sink_id) = (self.disco_id, self.sink_id);
        let net = &w.net;
        let set_links = |link: LinkConfig| {
            net.set_link_between(dev.id, sink_id, link.clone());
            net.set_link_between(dev.id, disco_id, link);
        };
        let partition = |on: bool| {
            net.set_partitioned(dev.id, sink_id, on);
            net.set_partitioned(dev.id, disco_id, on);
        };
        match act {
            Act::Loss(loss) => {
                oracle.record_fault(now, format!("node{node} loss burst {loss:.2}"));
                let mut link = dev.baseline.clone();
                link.loss = *loss;
                set_links(link);
            }
            Act::Dup(dup) => {
                oracle.record_fault(now, format!("node{node} duplicate storm {dup:.2}"));
                let mut link = dev.baseline.clone();
                link.duplicate = *dup;
                set_links(link);
            }
            Act::Heal => {
                oracle.record_fault(now, format!("node{node} link healed"));
                set_links(dev.baseline.clone());
            }
            Act::Profile(profile) => {
                oracle.record_fault(now, format!("node{node} link profile {profile:?}"));
                let mut link = profile.config();
                // Keep the baseline MTU: fragments are sized against the
                // default link, and a shrunken path MTU would wedge them.
                link.mtu = dev.baseline.mtu;
                dev.baseline = link.clone();
                set_links(link);
            }
            Act::PartitionOn => {
                oracle.record_fault(now, format!("node{node} partitioned"));
                partition(true);
            }
            Act::PartitionOff => {
                oracle.record_fault(now, format!("node{node} partition healed"));
                partition(false);
            }
            Act::Domain(domain) => {
                oracle.record_fault(now, format!("node{node} moved to domain {domain}"));
                dev.domain = *domain;
                net.set_domain(dev.id, *domain);
            }
            Act::Crash => {
                oracle.record_fault(now, format!("node{node} crashed"));
                dev.crashed = true;
                self.retransmits_gone += dev.channel.stats().retransmits;
                dev.channel.close();
            }
            Act::Restart if dev.crashed => {
                oracle.record_fault(now, format!("node{node} restarted"));
                let transport = net.endpoint_with_id(dev.id);
                let interrupt = self.sup.as_ref().map(|s| &s.interrupt_line);
                let cell = CellId(self.member_id);
                (dev.channel, dev.agent) = attach(w, transport, &dev.info, cell, interrupt);
                net.set_domain(dev.id, dev.domain);
                dev.crashed = false;
            }
            _ => {}
        }
    }

    /// Kills the in-process supervisor: `false` when none was running.
    fn kill_supervisor(&mut self, now: u64) -> bool {
        match self.sup.as_mut() {
            Some(rt) if rt.alive => {
                rt.alive = false;
                // The remote session (if this cell was an adopter) dies
                // with its host.
                if let Some(plane) = self.peer.as_mut() {
                    plane.remote = None;
                }
                self.recorder_note(now, "supervisor killed");
                true
            }
            _ => false,
        }
    }

    /// The management phase: the peer plane (when present, against the
    /// snapshot of its `ward`), anti-entropy, the health monitor, then
    /// the local detect → repair loop.
    fn manage(
        &mut self,
        w: &World,
        oracle: &mut DeliveryOracle,
        now: u64,
        ward: Option<CellView>,
        trace_sink: Option<&TraceSink>,
    ) {
        if let Some(ward) = ward {
            self.step_peer(w, oracle, now, ward);
        }
        self.reconcile_due(oracle, now);
        self.observe_health(oracle, now, trace_sink);
        self.supervise(w, oracle, now);
    }

    /// The peer plane's turn: drain the wire, run the peer protocol,
    /// and drive the remote session if adopting.
    fn step_peer(&mut self, w: &World, oracle: &mut DeliveryOracle, now: u64, ward: CellView) {
        let Some(plane) = &self.peer else {
            return;
        };
        // a. Repair/Reconcile are actuator commands the cell runtime
        // executes even with its supervisor dead; everything else is
        // watcher-plane protocol.
        let mut actions = Vec::new();
        for (msg, episode) in plane.drain() {
            match &msg {
                SupervisionMsg::Repair { target, .. } if *target == self.member_id => {
                    self.wire_repair(w, oracle, now, &msg, episode);
                }
                SupervisionMsg::Reconcile { target, requester } if *target == self.member_id => {
                    // The adopter insists live views match durable truth
                    // before any compaction.
                    if !self.core_crashed {
                        self.reconcile(oracle, now, Some(*requester));
                    }
                }
                _ => {
                    if self.sup_alive() {
                        if let Some(plane) = self.peer.as_mut() {
                            actions.extend(plane.watcher.on_msg(now, &msg));
                        }
                    }
                }
            }
        }
        let alive = self.sup_alive();
        let Cell {
            peer: Some(plane),
            telemetry,
            sup: Some(rt),
            out,
            member_id,
            ..
        } = self
        else {
            return;
        };
        let member_id = *member_id;
        let ward_member = plane.ward();
        // b + c. The watcher's clock tick, then execute its actions.
        if alive {
            actions.extend(plane.watcher.tick(now));
        }
        for action in actions {
            match action {
                PeerAction::Send(msg) => {
                    if let SupervisionMsg::Claim { target, claimant } = &msg {
                        oracle.record_fault(
                            now,
                            format!("peer {claimant} claims supervision of cell member {target}"),
                        );
                        if let Some(tel) = telemetry.as_mut() {
                            tel.on_claim(*target, now);
                        }
                    }
                    plane.send(&msg, now);
                }
                PeerAction::StartRemote { target } => {
                    oracle.record_fault(
                        now,
                        format!("cell member {member_id} adopted cell member {target}"),
                    );
                    if let Some(tel) = telemetry.as_mut() {
                        tel.on_adopt(target, now);
                    }
                    // Reconcile-before-checkpoint starts *now*: order an
                    // anti-entropy pass before the ward's next compaction
                    // window, then keep re-arming it on cadence.
                    let opts = w.supervision.as_ref().expect("peer plane is supervised");
                    plane.remote = Some(RemoteSupervision::new(opts, now + rt.reconcile_micros));
                    plane.send(
                        &SupervisionMsg::Reconcile {
                            target,
                            requester: member_id,
                        },
                        now,
                    );
                }
                PeerAction::StopRemote { target } => {
                    oracle.record_fault(
                        now,
                        format!("cell member {member_id} released cell member {target}"),
                    );
                    if let Some(tel) = telemetry.as_mut() {
                        tel.on_release(target, now);
                    }
                    plane.remote = None;
                }
            }
        }
        // d. The remote session: sample the ward, plan repairs, ship them.
        if !alive || ward.core_crashed {
            return;
        }
        let Some(remote) = plane.remote.as_mut() else {
            return;
        };
        let order_reconcile = now >= remote.next_reconcile;
        if order_reconcile {
            remote.next_reconcile = now + rt.reconcile_micros;
        }
        let mut commands: Vec<(String, u32, String)> = Vec::new();
        if remote.monitor.due(now) {
            // In-process stand-ins for the liveness signals the ward's
            // cell runtime exports; the protocol itself — lease, claim,
            // repair — still crosses the wire.
            let samples = [
                up_sample("discovery", !ward.discovery_down && !ward.core_crashed),
                up_sample("sink", !ward.sink_down && !ward.core_crashed),
                up_sample("supervisor", ward.sup_alive),
            ];
            let transitions = remote.monitor.observe(now, &samples, &[]);
            let mut repairs = Vec::new();
            for t in &transitions {
                oracle.record_fault(
                    now,
                    format!(
                        "remote supervision(cell member {member_id}) {} {}->{}",
                        t.component,
                        t.from.as_str(),
                        t.to.as_str()
                    ),
                );
                repairs.extend(remote.supervisor.on_transition(t));
            }
            repairs.extend(remote.supervisor.tick(now, &remote.monitor.report()));
            for action in repairs {
                let (component, attempt) = match &action {
                    RepairAction::Restart { component, attempt } => (component.clone(), *attempt),
                    RepairAction::Escalate { target, .. } => (target.clone(), 0),
                };
                commands.push((component, attempt, action.to_string()));
            }
        }
        if order_reconcile {
            plane.send(
                &SupervisionMsg::Reconcile {
                    target: ward_member,
                    requester: member_id,
                },
                now,
            );
        }
        for (component, attempt, desc) in commands {
            oracle.record_fault(
                now,
                format!("remote repair order: {component} on cell member {ward_member} ({desc})"),
            );
            out.remote_commands.push((now, desc));
            let revive = component == "supervisor";
            let mut event = SupervisionMsg::Repair {
                target: ward_member,
                component,
                attempt,
            }
            .to_event(now);
            // Supervisor revivals carry the episode trace across the
            // wire, so the target can record its restart hop under the
            // same journey the adopter opened.
            if revive {
                if let Some(trace) = telemetry
                    .as_mut()
                    .and_then(|tel| tel.on_wire_repair(ward_member, now))
                {
                    event
                        .attributes_mut()
                        .insert(wellknown::TEL_EPISODE, trace.raw() as i64);
                }
            }
            plane.send_event(&event);
        }
    }

    /// Executes a sibling's wire `Repair` through the policy layer: the
    /// command becomes a typed event and the built-in obligation fires
    /// `Restart`.
    fn wire_repair(
        &mut self,
        w: &World,
        oracle: &mut DeliveryOracle,
        now: u64,
        msg: &SupervisionMsg,
        episode: Option<u64>,
    ) {
        let Some(plane) = &self.peer else {
            return;
        };
        let revivals_before = self.out.supervisor_revivals;
        for fired in plane.actuator.on_event(&msg.to_event(now)) {
            let ActionSpec::Restart { component } = &fired.action else {
                continue;
            };
            if let Some(component) = component
                .resolve(&fired.trigger)
                .and_then(|v| v.as_str().map(str::to_string))
            {
                let what = format!("remote repair {component}");
                self.execute_repair(w, oracle, now, &component, &what, true);
            }
        }
        // The cross-cell leg: the repair revived this cell's supervisor,
        // so the hop is recorded *here*, under the adopter's episode
        // trace, and exported on this cell's next telemetry cadence.
        if self.out.supervisor_revivals > revivals_before {
            if let (Some(raw), Some(tel)) = (episode, self.telemetry.as_mut()) {
                tel.record_hop(TraceId::from_raw(raw), "remote-restart", now);
            }
        }
    }

    /// Executes one repair on this cell — from its own supervisor or a
    /// sibling's wire command (`remote`), described as `what` in the
    /// trace. Restart of a wedged component is refused (the gauge stays
    /// down and the planner escalates); `core` is the escalation target
    /// (a full reboot from the WAL subsumes every child and clears a
    /// wedge, the way power-cycling a gateway does what restarting one
    /// daemon on it could not); `supervisor` revives a killed supervisor
    /// — the repair only a *sibling* can ever order.
    fn execute_repair(
        &mut self,
        w: &World,
        oracle: &mut DeliveryOracle,
        now: u64,
        component: &str,
        what: &str,
        remote: bool,
    ) {
        // A component already back needs nothing (detector hysteresis
        // lags the repair).
        let outcome = match component {
            "discovery" if self.flags.discovery_down => {
                if self.flags.discovery_wedged {
                    "failed (wedged)"
                } else {
                    self.restart_discovery(w);
                    self.flags.discovery_down = false;
                    "done"
                }
            }
            "sink" if self.flags.sink_down => {
                if self.flags.sink_wedged {
                    "failed (wedged)"
                } else {
                    self.restart_sink(w, oracle, now);
                    self.flags.sink_down = false;
                    "done"
                }
            }
            "core" => {
                if !self.core_crashed {
                    self.crash_core();
                }
                self.reboot_core(w, oracle, now);
                "core rebooted"
            }
            "supervisor" if self.sup.as_ref().is_some_and(|s| !s.alive) => {
                self.revive_supervisor(w);
                "revived"
            }
            _ => return,
        };
        let entry = format!("{what}: {outcome}");
        self.note(oracle, now, &entry);
        if remote {
            self.out.remote_repairs.push((now, entry));
        } else {
            self.out.repairs.push((now, entry));
        }
    }

    /// A fresh supervisor plane: fresh monitor (no stale hysteresis),
    /// fresh watcher (its first tick heartbeats, which is what makes the
    /// adopter release).
    fn revive_supervisor(&mut self, w: &World) {
        let opts = w
            .supervision
            .as_ref()
            .expect("revived supervisors are configured");
        let rt = SupervisionRuntime::new(opts);
        for dev in &self.devices {
            dev.channel
                .set_missed_ack_interrupt(Arc::clone(&rt.interrupt_line));
        }
        if let Some(old) = self.sup.replace(rt) {
            self.out.missed_ack_interrupts += old.interrupt_line.load(Ordering::Relaxed);
        }
        if let (Some(plane), Some(config)) = (self.peer.as_mut(), w.peer.as_ref()) {
            plane.watcher = watcher(self.member_id, config);
        }
        self.out.supervisor_revivals += 1;
    }

    /// Local anti-entropy on its own cadence: diff the sink's view and
    /// the discovery table against the folded log and repair both
    /// directions, whether or not anything ever failed. A dead
    /// supervisor runs none (with the peer plane, that is exactly what
    /// starves the checkpoint gate until the adopter's wire-ordered pass
    /// re-arms it).
    fn reconcile_due(&mut self, oracle: &mut DeliveryOracle, now: u64) {
        let Some(rt) = self.sup.as_mut().filter(|rt| rt.alive) else {
            return;
        };
        if now < rt.next_reconcile {
            return;
        }
        rt.next_reconcile = now + rt.reconcile_micros;
        if self.core_crashed {
            return;
        }
        let fixes = self.reconcile(oracle, now, None);
        if let Some(rt) = self.sup.as_mut() {
            rt.supervisor.record_reconcile(now, &fixes);
        }
    }

    /// Self-observation: the health monitor samples the live channels,
    /// WAL and discovery on its own virtual cadence, runs its detectors,
    /// and lets the built-in obligations quench a degraded publisher —
    /// the paper's autonomic feedback loop, in-run.
    fn observe_health(
        &mut self,
        oracle: &mut DeliveryOracle,
        now: u64,
        trace_sink: Option<&TraceSink>,
    ) {
        let Some(rt) = self.health.as_mut().filter(|rt| rt.monitor.due(now)) else {
            return;
        };
        let samples = health_samples(
            &self.devices,
            &self.core,
            self.core_crashed,
            oracle,
            self.sink_id,
        );
        let hops: Vec<HopRecord> = trace_sink.map_or_else(Vec::new, |sink| {
            sink.records()
                .into_iter()
                .filter(|r| r.order >= rt.hop_cursor)
                .collect()
        });
        if let Some(max) = hops.iter().map(|r| r.order).max() {
            rt.hop_cursor = max + 1;
        }
        let p = &self.prefix;
        let transitions = rt.monitor.observe(now, &samples, &hops);
        for t in &transitions {
            oracle.record_fault(
                now,
                format!(
                    "{p}health {} {}->{} [{}]",
                    t.component,
                    t.from.as_str(),
                    t.to.as_str(),
                    t.detector
                ),
            );
            if !rt.quench {
                continue;
            }
            // Publish the transition as a typed `smc.health` event
            // through the policy service, exactly as the cell would;
            // execute any quench it fires.
            let member = component_device(&t.component, &self.device_ids);
            for fired in rt.policy.on_event(&health_event(t, member)) {
                let ActionSpec::Quench { publisher, enable } = fired.action else {
                    continue;
                };
                let Some(raw) = publisher.resolve(&fired.trigger).and_then(|v| v.as_int()) else {
                    continue;
                };
                let target = ServiceId::from_raw(raw as u64);
                // The actuator consults authorisation before silencing
                // anyone: telemetry observers carry a deny on
                // `quench:<raw>` and stay audible.
                if enable
                    && rt.policy.check(
                        "*",
                        ActionClass::Command,
                        &format!("quench:{}", target.raw()),
                    ) == Decision::Deny
                {
                    oracle.record_fault(now, format!("{p}quench-exempt {target}"));
                    continue;
                }
                if let Some(dev) = self.devices.iter_mut().find(|d| d.id == target) {
                    dev.quenched = enable;
                    rt.quenches.push((now, target, enable));
                    let verb = if enable { "quench" } else { "wake" };
                    oracle.record_fault(now, format!("{p}{verb} {target}"));
                }
            }
        }
        rt.recorder.record_hops(&hops);
        rt.recorder.record_frame(now, samples, rt.monitor.report());
        rt.transitions.extend(transitions);
    }

    /// The detect → repair loop. The component-down detector samples
    /// liveness gauges, failures route through the built-in restart
    /// obligation (policy-mediated, as the paper's management events
    /// would be) into the supervisor, and the supervisor's plan is
    /// executed against durable truth. A wedged component refuses its
    /// restart, the gauge stays down, and the tick's retry timeout
    /// escalates up the dependency graph. While the core itself is
    /// scripted-crashed the supervisor holds off: the scenario owns that
    /// outage.
    fn supervise(&mut self, w: &World, oracle: &mut DeliveryOracle, now: u64) {
        let Some(rt) = self.sup.as_mut() else {
            return;
        };
        // A missed ack anywhere pulses the interrupt line; sample
        // immediately instead of waiting out the monitor's cadence.
        // (Observing resets the cadence, so a quiet line costs nothing
        // extra.)
        let pulses = rt.interrupt_line.load(Ordering::Relaxed);
        let interrupted = pulses != rt.seen_interrupts;
        rt.seen_interrupts = pulses;
        if !rt.alive || self.core_crashed || !(rt.monitor.due(now) || interrupted) {
            return;
        }
        let samples = [
            up_sample("discovery", !self.flags.discovery_down),
            up_sample("sink", !self.flags.sink_down),
        ];
        let transitions = rt.monitor.observe(now, &samples, &[]);
        let mut actions = Vec::new();
        for t in &transitions {
            oracle.record_fault(
                now,
                format!(
                    "{}supervision {} {}->{}",
                    self.prefix,
                    t.component,
                    t.from.as_str(),
                    t.to.as_str()
                ),
            );
            if t.to == HealthState::Failed {
                for fired in rt.policy.on_event(&health_event(t, None)) {
                    if let ActionSpec::Restart { component } = &fired.action {
                        if component
                            .resolve(&fired.trigger)
                            .is_some_and(|v| v.as_str().is_some())
                        {
                            self.out.policy_restarts += 1;
                        }
                    }
                }
            }
            actions.extend(rt.supervisor.on_transition(t));
        }
        actions.extend(rt.supervisor.tick(now, &rt.monitor.report()));
        for action in actions {
            let component = match &action {
                RepairAction::Restart { component, .. } => component.clone(),
                RepairAction::Escalate { failed, target } => {
                    // Escalations are the loop admitting a restart was
                    // not enough — exactly the runs worth a black-box
                    // dump.
                    self.saw_escalation = true;
                    self.recorder_note(now, format!("escalation: {failed} -> {target}"));
                    target.clone()
                }
            };
            self.execute_repair(w, oracle, now, &component, &action.to_string(), false);
        }
    }

    /// Channels process frames, ack and retransmit. A killed
    /// component's channel is closed; don't step the corpse. The plane
    /// channels always step: what they carry must outlive both the
    /// supervisor and the core. Telemetry is a background plane,
    /// stepped on its coarser cadence (`tel_due`).
    fn step_channels(&self, tel_due: bool) {
        if !self.core_crashed {
            if !self.flags.discovery_down {
                self.core.disco_channel.step();
            }
            if !self.flags.sink_down {
                self.core.sink_channel.step();
            }
        }
        if let Some(plane) = &self.peer {
            plane.channel.step();
        }
        if let Some(tel) = self.telemetry.as_ref().filter(|_| tel_due) {
            tel.channel.step();
        }
        for dev in self.devices.iter().filter(|d| !d.crashed) {
            dev.channel.step();
        }
    }

    /// Protocol logic on top of the channels.
    fn step_protocols(&self) {
        if !self.core_crashed && !self.flags.discovery_down {
            self.core.service.step();
        }
        for dev in self.devices.iter().filter(|d| !d.crashed) {
            dev.agent.step();
        }
    }

    /// Membership transitions into the oracle (and the sink's member
    /// filter). Joins and purges are journaled, mirroring the SMC core's
    /// own event path.
    fn drain_membership(&mut self, oracle: &mut DeliveryOracle, now: u64) {
        while let Ok(ev) = self.core.service.events().try_recv() {
            match ev {
                MembershipEvent::Joined(info) => {
                    let _ = self
                        .core
                        .wal
                        .append(&WalRecord::MemberJoined { info: info.clone() });
                    self.members.insert(info.id);
                    oracle.record_joined(now, info.id);
                }
                MembershipEvent::Purged(id, _reason) => {
                    let _ = self
                        .core
                        .wal
                        .append(&WalRecord::MemberPurged { member: id });
                    self.members.remove(&id);
                    oracle.record_purged(now, id);
                }
                MembershipEvent::Suspected(id) => {
                    oracle.record_fault(now, format!("suspected {id}"));
                }
                MembershipEvent::Recovered(id) => {
                    oracle.record_fault(now, format!("recovered {id}"));
                }
            }
        }
    }

    /// Member devices publish on schedule to their own cell's sink. A
    /// crashed core does not stop them: their channels queue and
    /// retransmit into the outage, which is exactly the traffic the
    /// recovered cursors must dedup. A *quenched* device, though, holds
    /// its publishes until the obligation wakes it.
    fn publish(&mut self, w: &World, oracle: &mut DeliveryOracle, now: u64) {
        for dev in &mut self.devices {
            if dev.crashed || dev.quenched || !dev.agent.is_member() || now < dev.next_publish {
                continue;
            }
            let seq = dev.next_seq;
            dev.next_seq += 1;
            dev.next_publish = now + w.publish_interval;
            let t = TraceId::for_event(dev.id, seq);
            w.tracer.record(t, Hop::Published);
            oracle.record_publish(now, dev.id, seq);
            if let Some(tel) = self.telemetry.as_mut() {
                tel.on_publish(dev.id, seq, now);
            }
            let _ = dev.channel.send_traced(self.sink_id, encode(seq), t);
        }
    }

    /// The sink accepts deliveries. A killed sink accepts nothing — its
    /// channel is closed and senders retransmit into the outage until
    /// the supervisor brings it back.
    fn drain_sink(&mut self, w: &World, oracle: &mut DeliveryOracle, now: u64) {
        while let Ok(incoming) = self.core.sink_channel.recv(Some(Duration::ZERO)) {
            if let Incoming::Reliable { from, seq, payload } = incoming {
                self.deliver(w, oracle, now, from, seq, &payload);
            }
        }
    }

    /// Closes the cell's books: flight-recorder dump when the run ended
    /// badly, then the final report.
    fn finish(mut self, violated: bool, total: u64) -> CellReport {
        let (saw_core_crash, saw_escalation) = (self.saw_core_crash, self.saw_escalation);
        self.out.health = self.health.map(|mut rt| {
            let report = rt.monitor.report();
            let mut dumped_to = None;
            if let Some(path) = rt.dump_path.take() {
                if violated || saw_core_crash || saw_escalation {
                    rt.recorder.note(
                        total,
                        if violated {
                            "dump: run ended with an oracle violation"
                        } else if saw_core_crash {
                            "dump: run saw a core crash"
                        } else {
                            "dump: run saw a supervision escalation"
                        },
                    );
                    if rt.recorder.dump_to(&path).is_ok() {
                        dumped_to = Some(path);
                    }
                }
            }
            HealthOutcome {
                transitions: rt.transitions,
                quenches: rt.quenches,
                report,
                recorder: rt.recorder,
                dumped_to,
            }
        });
        if let Some(rt) = self.sup {
            self.out.supervision = Some(rt.supervisor.report());
            self.out.supervisor_alive = rt.alive;
            self.out.missed_ack_interrupts += rt.interrupt_line.load(Ordering::Relaxed);
        }
        if let Some(plane) = self.peer {
            self.out.peer = plane.watcher.report().clone();
            self.out.adopted_at_end = plane.watcher.adopted();
        }
        self.out
    }
}

/// One health-sampling window's worth of metrics, read straight off the
/// live objects (the registry's collectors capture the *final* core
/// incarnation, so the in-run monitor samples the current one directly).
fn health_samples(
    devices: &[Device],
    core: &Core,
    core_crashed: bool,
    oracle: &DeliveryOracle,
    sink_id: ServiceId,
) -> Vec<Sample> {
    fn mk(name: &str, label: Option<(&str, &str)>, monotonic: bool, value: u64) -> Sample {
        Sample {
            name: name.to_string(),
            help: String::new(),
            monotonic,
            labels: label
                .map(|(k, v)| vec![(k.to_string(), v.to_string())])
                .unwrap_or_default(),
            value,
        }
    }
    let mut out = Vec::new();
    for (n, dev) in devices.iter().enumerate() {
        let label = format!("device{n}");
        out.push(mk(
            "smc_channel_retransmits_total",
            Some(("channel", &label)),
            true,
            dev.channel.stats().retransmits,
        ));
        out.push(mk(
            "smc_proxy_queue_depth",
            Some(("queue", &label)),
            false,
            dev.channel.pending(sink_id) as u64,
        ));
    }
    if !core_crashed {
        for (label, channel) in [
            ("sink", &core.sink_channel),
            ("discovery", &core.disco_channel),
        ] {
            out.push(mk(
                "smc_channel_retransmits_total",
                Some(("channel", label)),
                true,
                channel.stats().retransmits,
            ));
        }
        let d = core.service.stats();
        out.push(mk("smc_discovery_joins_total", None, true, d.joins));
        out.push(mk("smc_discovery_purges_total", None, true, d.purges));
        out.push(mk(
            "smc_wal_records_appended_total",
            None,
            true,
            core.wal.metrics().records_appended,
        ));
    }
    let published: u64 = devices.iter().map(|d| oracle.published(d.id)).sum();
    out.push(mk("smc_harness_published_total", None, true, published));
    out
}

/// Runs `scenario` with the default options: one unsupervised cell.
pub fn run(scenario: &Scenario) -> RunReport {
    run_with_options(scenario, RunOptions::default())
}

/// Runs `scenario` under full [`RunOptions`] control.
///
/// # Panics
///
/// When [`RunOptions::peer`] is set without [`RunOptions::supervision`]
/// or together with [`RunOptions::health`].
pub fn run_with_options(scenario: &Scenario, options: RunOptions) -> RunReport {
    let RunOptions {
        reliable,
        discovery,
        backend,
        trace,
        trace_capacity,
        probes,
        health,
        supervision,
        peer,
        telemetry,
    } = options;
    assert!(
        peer.is_none() || (supervision.is_some() && health.is_none()),
        "the peer plane pairs supervised cells and runs no health monitor"
    );
    let clock = Arc::new(ManualClock::new());
    let shared: SharedClock = clock.clone();
    let net = SimNetwork::with_clock(LinkConfig::ideal(), scenario.seed, Arc::clone(&shared));
    let (tracer, trace_sink) = if trace {
        let sink = Arc::new(TraceSink::with_capacity(trace_capacity));
        let tracer = if probes {
            Tracer::with_probes(
                Arc::clone(&sink),
                Arc::clone(&shared),
                Arc::new(smc_telemetry::ProbeSink::new()),
            )
        } else {
            Tracer::new(Arc::clone(&sink), Arc::clone(&shared))
        };
        (tracer, Some(sink))
    } else {
        (Tracer::disabled(), None)
    };
    let cell_count = if peer.is_some() { 2 } else { 1 };
    let w = World {
        net,
        clock: shared,
        tracer,
        reliable,
        discovery,
        supervision,
        peer,
        publish_interval: scenario.publish_interval.as_micros().max(1) as u64,
    };

    let mut oracle = DeliveryOracle::new(scenario.seed);
    let mut backend = Some(backend);
    let mut cells: Vec<Cell> = (0..cell_count)
        .map(|i| {
            let backend = backend
                .take()
                .unwrap_or_else(|| Arc::new(MemBackend::new()));
            Cell::new(
                &w,
                i,
                cell_count,
                scenario.nodes,
                backend,
                health.clone(),
                telemetry.as_ref(),
            )
        })
        .collect();
    let plane_ids: Vec<Option<ServiceId>> = cells
        .iter()
        .map(|c| c.peer.as_ref().map(|p| p.channel.local_id()))
        .collect();
    for plane in cells.iter_mut().filter_map(|c| c.peer.as_mut()) {
        plane.sibling_channel = plane_ids[plane.sibling].expect("siblings both run the peer plane");
    }
    let mut observer = telemetry.as_ref().map(|_| {
        let sampling = w.supervision.clone().unwrap_or_default().health;
        Observer::new(&w, sampling)
    });

    let timeline = timeline(scenario);
    let end = scenario.duration.as_micros() as u64;
    let total = end + DRAIN_MICROS;
    let mut next_act = 0usize;
    let mut ticks = 0u64;
    let mut now = 0u64;
    loop {
        // 1. Scripted faults due now. Node and core acts hit cell 0.
        while let Some((_, node, act)) = timeline.get(next_act).filter(|e| e.0 <= now) {
            next_act += 1;
            match *act {
                Act::KillSupervisor(c) => {
                    let killed = cells
                        .get_mut(c)
                        .is_some_and(|cell| cell.kill_supervisor(now));
                    let what = if killed {
                        "supervisor killed"
                    } else {
                        "supervisor killed (none running)"
                    };
                    oracle.record_fault(now, format!("{}{what}", note_prefix(c, cell_count)));
                }
                Act::CellPartition(c, on) => {
                    if let Some(cell) = cells.get(c) {
                        if let Some(plane) = &cell.peer {
                            w.net.set_partitioned(
                                plane.channel.local_id(),
                                plane.sibling_channel,
                                on,
                            );
                        }
                        // The telemetry plane shares the cell's fate: a
                        // partitioned cell's exports queue in its journal
                        // and drain to the observer after heal.
                        if let (Some(tel), Some(obs)) = (&cell.telemetry, &observer) {
                            w.net.set_partitioned(
                                tel.channel.local_id(),
                                obs.channel.local_id(),
                                on,
                            );
                        }
                    }
                    let what = if on {
                        "partitioned from siblings"
                    } else {
                        "partition healed"
                    };
                    oracle.record_fault(now, format!("cell{c} {what}"));
                }
                _ => cells[0].fire(&w, &mut oracle, now, *node, act),
            }
        }
        // 2. Deliver every datagram whose deadline has passed.
        w.net.pump_due();
        // 3. Channels, then 4. protocol logic on top of them.
        let tel_due = now.is_multiple_of(TEL_STEP_MICROS);
        for cell in &cells {
            cell.step_channels(tel_due);
        }
        if let Some(obs) = observer.as_ref().filter(|_| tel_due) {
            obs.channel.step();
        }
        for cell in &cells {
            cell.step_protocols();
        }
        // 5. Membership, then management. Ward views snapshot first so
        // the processing order of the cells cannot change what either
        // sees.
        for cell in &mut cells {
            cell.drain_membership(&mut oracle, now);
        }
        let views: Vec<CellView> = cells.iter().map(Cell::view).collect();
        for cell in &mut cells {
            let ward = cell.peer.as_ref().map(|p| views[p.sibling]);
            cell.manage(&w, &mut oracle, now, ward, trace_sink.as_deref());
        }
        for cell in &mut cells {
            cell.checkpoint_due(&mut oracle, now);
        }
        // 6. Devices publish (until the scripted end), then 7. sinks
        // accept deliveries.
        if now < end {
            for cell in &mut cells {
                cell.publish(&w, &mut oracle, now);
            }
        }
        for cell in &mut cells {
            cell.drain_sink(&w, &mut oracle, now);
        }
        // 8. The telemetry plane: cells export on cadence, then the
        // observer folds whatever has arrived and watches SLO burn. It
        // keeps exporting with the supervisor dead, which is exactly
        // what lets the ward view narrate the outage.
        if let Some(obs) = observer.as_mut().filter(|_| tel_due) {
            let to = obs.channel.local_id();
            for cell in &mut cells {
                let (members, sup_up) = (cell.members.len(), cell.sup_alive());
                if let Some(tel) = cell.telemetry.as_mut() {
                    tel.export(to, cell.member_id, members, sup_up, now, total);
                }
            }
            obs.fold(&mut oracle, now);
        }
        ticks += 1;
        if now >= total {
            break;
        }
        now += TICK_MICROS;
        clock.advance_micros(TICK_MICROS);
    }

    let retransmits: u64 = cells
        .iter()
        .map(|c| {
            c.retransmits_gone
                + c.core.sink_channel.stats().retransmits
                + c.core.disco_channel.stats().retransmits
                + c.devices
                    .iter()
                    .map(|d| d.channel.stats().retransmits)
                    .sum::<u64>()
        })
        .sum();
    let device_ids: Vec<ServiceId> = cells
        .iter()
        .flat_map(|c| c.device_ids.iter().copied())
        .collect();

    // Attach the offending event's journey to the violation, if any: the
    // sink can replay exactly where the message's guarantees broke down.
    if let Some(sink) = &trace_sink {
        if let Some(v) = oracle.violation_mut() {
            if let Some((sender, seq)) = v.offender {
                v.journey = Some(sink.journey(TraceId::for_event(sender, seq)));
            }
        }
    }

    let registry = run_registry(&cells[0].core, &w.tracer, trace_sink.as_ref());
    let published_total: u64 = device_ids.iter().map(|&id| oracle.published(id)).sum();
    let delivered_total: u64 = device_ids.iter().map(|&id| oracle.delivered(id)).sum();
    let core_recoveries: u64 = cells.iter().map(|c| c.out.core_recoveries).sum();
    let recovery_micros_total: u64 = cells.iter().map(|c| c.recovery_micros).sum();
    for (name, help, value) in [
        (
            "smc_harness_published_total",
            "Messages devices handed to their channels over the run.",
            published_total,
        ),
        (
            "smc_harness_delivered_total",
            "Messages the sink accepted over the run.",
            delivered_total,
        ),
        (
            "smc_harness_retransmits_total",
            "Retransmissions across every channel and incarnation.",
            retransmits,
        ),
        (
            "smc_harness_core_recoveries_total",
            "Core restarts recovered from the write-ahead log.",
            core_recoveries,
        ),
    ] {
        registry.counter(name, help).add(value);
    }

    let mut episodes: Vec<(u64, TraceId)> = Vec::new();
    let mut exports_sent = 0u64;
    for tel in cells.iter_mut().filter_map(|c| c.telemetry.as_mut()) {
        episodes.append(&mut tel.episodes);
        exports_sent += tel.exports_sent;
    }
    episodes.sort_by_key(|&(target, trace)| (target, trace.raw()));
    let telemetry = observer.map(|obs| obs.report(episodes, exports_sent));

    let violated = oracle.violation().is_some();
    let cells: Vec<CellReport> = cells
        .into_iter()
        .map(|c| c.finish(violated, total))
        .collect();
    if w.supervision.is_some() {
        registry
            .counter(
                "smc_missed_ack_interrupts_total",
                "Missed-ack retransmission rounds that pulsed the supervision interrupt line.",
            )
            .add(cells.iter().map(|c| c.missed_ack_interrupts).sum());
    }

    RunReport {
        oracle,
        device_ids,
        cells,
        ticks,
        virtual_micros: total,
        core_recoveries,
        recovery_micros_total,
        retransmits,
        trace_sink,
        registry,
        telemetry,
    }
}

/// The run's registry. Collectors sample cell 0's final core
/// incarnation at render time; the caller adds run-wide aggregates
/// (which span crashed incarnations) as plain instruments.
fn run_registry(core: &Core, tracer: &Tracer, trace_sink: Option<&Arc<TraceSink>>) -> Registry {
    let registry = Registry::default();
    core.wal.register_with(&registry);
    core.service.register_with(&registry);
    let sink_channel = Arc::clone(&core.sink_channel);
    registry.register_collector(move |out| {
        let s = sink_channel.stats();
        for (name, help, value) in [
            (
                "smc_channel_msgs_delivered_total",
                "Reliable messages delivered to the application.",
                s.msgs_delivered,
            ),
            (
                "smc_channel_retransmits_total",
                "Fragment retransmissions.",
                s.retransmits,
            ),
            (
                "smc_channel_duplicates_suppressed_total",
                "Duplicate fragments suppressed on receive.",
                s.duplicates_suppressed,
            ),
        ] {
            out.push(Sample {
                name: name.to_string(),
                help: help.to_string(),
                monotonic: true,
                labels: vec![("channel".to_string(), "sink".to_string())],
                value,
            });
        }
    });
    if let Some(sink) = trace_sink {
        sink.register_with(&registry);
    }
    if let Some(probe_sink) = tracer.probes() {
        probe_sink.register_with(&registry);
    }
    registry
}
