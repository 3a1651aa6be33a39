//! The system under test: a real [`SmcCell`] with one publishing device
//! client and one subscribing client (nurse station or ECG viewer), over
//! UDP loopback sockets or the in-memory [`SimNetwork`].
//!
//! The cell runs the program's defaults: `SmcConfig::default()` (so
//! `ReliableConfig::default()`, 60 ms initial RTO) and
//! `DiscoveryConfig::default()` (500 ms beacons, 2 s lease, 4 s grace).
//! Set-up therefore includes waiting for one discovery beacon.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use smc_core::{EventSink, RemoteClient, SmcCell, SmcConfig};
use smc_discovery::{AgentConfig, DiscoveryConfig};
use smc_telemetry::Tracer;
use smc_transport::{
    ChannelStats, LinkConfig, NetStats, ReliableChannel, ReliableConfig, SimNetwork, Transport,
    UdpTransport,
};
use smc_types::{Event, Filter, ServiceId, ServiceInfo, SubscriptionId};
use smc_wal::{FileBackend, Wal, WalBackend, WalConfig};

use crate::drive::Rig;
use crate::gen::{client_filters, load_policies, local_filters, rotating_filter, Traffic};
use crate::layers::{
    CountingSink, MeteredSink, MeteredTransport, MeteredWal, TransportCounts, WalCounts,
};

/// How long set-up waits for admission or a subscription reply.
const JOIN_TIMEOUT: Duration = Duration::from_secs(10);

/// Which datagram transport connects the endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Net {
    /// Real UDP sockets on 127.0.0.1.
    Udp,
    /// The in-memory `SimNetwork` with an ideal link (1,400 B MTU).
    Mem,
}

impl Net {
    /// Stable name for provenance.
    pub fn name(self) -> &'static str {
        match self {
            Net::Udp => "udp-loopback",
            Net::Mem => "simnet-ideal",
        }
    }
}

/// What to build.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// The traffic the cell is configured for.
    pub traffic: Traffic,
    /// The transport.
    pub net: Net,
    /// `Some(dir)`: start durable over a `FileBackend` in `dir`.
    pub wal_dir: Option<PathBuf>,
    /// Wrap transports, WAL backend and sinks in accounting decorators.
    pub instrument: bool,
    /// The hop tracer handed to the cell.
    pub tracer: Tracer,
    /// Seed of the simulated network.
    pub seed: u64,
}

/// A running cell with its two device clients.
pub struct CellRig {
    /// The cell.
    pub cell: Arc<SmcCell>,
    /// The publishing device.
    pub publisher: Arc<RemoteClient>,
    /// The subscribing client.
    pub nurse: Arc<RemoteClient>,
    /// The publisher's reliable channel.
    pub pub_chan: Arc<ReliableChannel>,
    /// The subscriber's reliable channel.
    pub nurse_chan: Arc<ReliableChannel>,
    /// Cell-side sinks, one per local filter.
    pub sinks: Vec<Arc<CountingSink>>,
    /// Timing decorators around the sinks (instrumented rigs).
    pub metered_sinks: Vec<Arc<MeteredSink>>,
    /// The local subscription table.
    pub filters: Vec<(ServiceId, Filter)>,
    /// Every transport decorator (instrumented rigs).
    pub transports: Vec<Arc<MeteredTransport>>,
    /// The WAL backend decorator (instrumented durable rigs).
    pub wal: Option<Arc<MeteredWal>>,
    /// Wall time of each client's `RemoteClient::connect`, ns.
    pub admit_ns: Vec<u64>,
    /// Set-up wall time, ns.
    pub setup_ns: u64,
    net: Option<SimNetwork>,
    wal_dir: Option<PathBuf>,
    nurse_subs: Mutex<Vec<(SubscriptionId, Filter)>>,
    rotating: Mutex<Option<SubscriptionId>>,
    /// Control-plane operations that failed.
    pub control_errors: AtomicU64,
    /// Control-plane operations performed.
    pub control_ops: AtomicU64,
}

impl std::fmt::Debug for CellRig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CellRig")
            .field("cell", &self.cell)
            .finish_non_exhaustive()
    }
}

fn metered(
    t: Arc<dyn Transport>,
    instrument: bool,
    all: &mut Vec<Arc<MeteredTransport>>,
) -> Arc<dyn Transport> {
    if instrument {
        let m = Arc::new(MeteredTransport::new(t));
        all.push(Arc::clone(&m));
        m
    } else {
        t
    }
}

impl CellRig {
    /// Starts the cell, admits both clients and sets up every
    /// subscription. The whole call is the set-up time.
    ///
    /// # Errors
    ///
    /// A description of the step that failed.
    pub fn start(spec: &CellSpec, base: Instant) -> Result<CellRig, String> {
        let t0 = Instant::now();
        let mut transports = Vec::new();
        let (net, raw): (Option<SimNetwork>, [Arc<dyn Transport>; 4]) = match spec.net {
            Net::Mem => {
                let net = SimNetwork::with_seed(LinkConfig::ideal(), spec.seed);
                let eps = [(); 4].map(|()| Arc::new(net.endpoint()) as Arc<dyn Transport>);
                (Some(net), eps)
            }
            Net::Udp => {
                let bind = || {
                    UdpTransport::bind()
                        .map(Arc::new)
                        .map_err(|e| e.to_string())
                };
                let (bus, disco, publ, nurse) = (bind()?, bind()?, bind()?, bind()?);
                // Loopback has no broadcast: the discovery endpoint sends
                // its beacons to each registered device endpoint.
                disco.add_broadcast_peer(publ.local_id());
                disco.add_broadcast_peer(nurse.local_id());
                (
                    None,
                    [bus, disco, publ, nurse].map(|t| t as Arc<dyn Transport>),
                )
            }
        };
        let [bus_t, disco_t, pub_t, nurse_t] =
            raw.map(|t| metered(t, spec.instrument, &mut transports));
        let config = SmcConfig {
            discovery: DiscoveryConfig::default(),
            reliable: ReliableConfig::default(),
            tracer: spec.tracer.clone(),
            ..SmcConfig::default()
        };
        let mut wal = None;
        let cell = match &spec.wal_dir {
            Some(dir) => {
                let file: Arc<dyn WalBackend> =
                    Arc::new(FileBackend::open(dir).map_err(|e| format!("wal open: {e}"))?);
                let backend: Arc<dyn WalBackend> = if spec.instrument {
                    let m = Arc::new(MeteredWal::new(file));
                    wal = Some(Arc::clone(&m));
                    m
                } else {
                    file
                };
                SmcCell::start_durable(bus_t, disco_t, config, backend)
                    .map_err(|e| format!("start durable cell: {e}"))?
            }
            None => SmcCell::start(bus_t, disco_t, config),
        };
        load_policies(cell.policy());
        let filters = local_filters(spec.traffic);
        let mut sinks = Vec::new();
        let mut metered_sinks = Vec::new();
        for (id, filter) in &filters {
            let sink = Arc::new(CountingSink::new(base));
            let as_sink: Arc<dyn EventSink> = if spec.instrument {
                let m = Arc::new(MeteredSink::new(Arc::clone(&sink) as Arc<dyn EventSink>));
                metered_sinks.push(Arc::clone(&m));
                m
            } else {
                Arc::clone(&sink) as Arc<dyn EventSink>
            };
            cell.subscribe_local(*id, filter.clone(), as_sink)
                .map_err(|e| format!("local subscribe: {e}"))?;
            sinks.push(sink);
        }
        let (pub_type, sub_type) = match spec.traffic {
            Traffic::Vitals => ("sensor.vitals", "terminal.nurse"),
            Traffic::Ecg => ("sensor.ecg", "viewer.ecg"),
        };
        let pub_chan = ReliableChannel::new(pub_t, ReliableConfig::default());
        let nurse_chan = ReliableChannel::new(nurse_t, ReliableConfig::default());
        // Both devices join concurrently, so set-up waits for one beacon.
        let connect = |chan: &Arc<ReliableChannel>, device_type: &str, role: &str| {
            let t = Instant::now();
            RemoteClient::connect(
                ServiceInfo::new(ServiceId::NIL, device_type).with_role(role),
                Arc::clone(chan),
                AgentConfig::default(),
                JOIN_TIMEOUT,
            )
            .map(|c| (c, t.elapsed().as_nanos() as u64))
            .map_err(|e| format!("{device_type} join: {e}"))
        };
        let (publisher, nurse) = std::thread::scope(|s| {
            let p = s.spawn(|| connect(&pub_chan, pub_type, "sensor"));
            let n = s.spawn(|| connect(&nurse_chan, sub_type, "manager"));
            (
                p.join().expect("publisher join thread"),
                n.join().expect("subscriber join thread"),
            )
        });
        let (publisher, pub_admit) = publisher?;
        let (nurse, nurse_admit) = nurse?;
        let mut nurse_subs = Vec::new();
        for f in client_filters(spec.traffic) {
            let id = nurse
                .subscribe(f.clone(), JOIN_TIMEOUT)
                .map_err(|e| format!("subscribe {f:?}: {e}"))?;
            nurse_subs.push((id, f));
        }
        Ok(CellRig {
            cell,
            publisher,
            nurse,
            pub_chan,
            nurse_chan,
            sinks,
            metered_sinks,
            filters,
            transports,
            wal,
            admit_ns: vec![pub_admit, nurse_admit],
            setup_ns: t0.elapsed().as_nanos() as u64,
            net,
            wal_dir: spec.wal_dir.clone(),
            nurse_subs: Mutex::new(nurse_subs),
            rotating: Mutex::new(None),
            control_errors: AtomicU64::new(0),
            control_ops: AtomicU64::new(0),
        })
    }

    /// Deliveries each cell-side sink has seen.
    pub fn sink_counts(&self) -> Vec<u64> {
        self.sinks.iter().map(|s| s.count()).collect()
    }

    /// Summed transport counters of every decorated endpoint.
    pub fn transport_counts(&self) -> TransportCounts {
        self.transports
            .iter()
            .fold(TransportCounts::default(), |acc, t| acc + t.counts())
    }

    /// WAL backend counters (zero for a volatile cell).
    pub fn wal_counts(&self) -> WalCounts {
        self.wal.as_ref().map(|w| w.counts()).unwrap_or_default()
    }

    /// Simulated-network counters (zero over UDP).
    pub fn net_stats(&self) -> NetStats {
        self.net.as_ref().map(SimNetwork::stats).unwrap_or_default()
    }

    /// Both client channels' counters, summed.
    pub fn client_channel_stats(&self) -> ChannelStats {
        let (a, b) = (self.pub_chan.stats(), self.nurse_chan.stats());
        ChannelStats {
            msgs_sent: a.msgs_sent + b.msgs_sent,
            msgs_acked: a.msgs_acked + b.msgs_acked,
            msgs_delivered: a.msgs_delivered + b.msgs_delivered,
            msgs_expired: a.msgs_expired + b.msgs_expired,
            retransmits: a.retransmits + b.retransmits,
            duplicates_suppressed: a.duplicates_suppressed + b.duplicates_suppressed,
            unreliable_sent: a.unreliable_sent + b.unreliable_sent,
            unreliable_received: a.unreliable_received + b.unreliable_received,
            missed_ack_interrupts: a.missed_ack_interrupts + b.missed_ack_interrupts,
        }
    }

    /// The subscribing client's subscriptions as the benchmark made them.
    pub fn nurse_subscriptions(&self) -> Vec<(SubscriptionId, Filter)> {
        let mut v = self.nurse_subs.lock().clone();
        v.sort_by_key(|(id, _)| id.0);
        v
    }

    /// Stops everything this rig started and waits for it.
    pub fn shutdown(self) -> Option<PathBuf> {
        self.nurse.shutdown();
        self.publisher.shutdown();
        self.cell.shutdown();
        if let Some(net) = &self.net {
            net.shutdown();
        }
        self.wal_dir
    }

    fn rotate(&self, step: u64) -> Result<(), String> {
        let mut current = self.rotating.lock();
        if let Some(id) = current.take() {
            self.nurse
                .unsubscribe(id, JOIN_TIMEOUT)
                .map_err(|e| format!("unsubscribe: {e}"))?;
            self.nurse_subs.lock().retain(|(s, _)| *s != id);
        }
        let f = rotating_filter(step);
        let id = self
            .nurse
            .subscribe(f.clone(), JOIN_TIMEOUT)
            .map_err(|e| format!("subscribe: {e}"))?;
        self.nurse_subs.lock().push((id, f));
        *current = Some(id);
        Ok(())
    }
}

impl Rig for CellRig {
    fn publish(&self, event: Event) -> Result<(), String> {
        self.publisher
            .publish_nowait(event)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    fn recv(&self, timeout: Duration) -> Option<Event> {
        self.nurse.next_event(timeout).ok()
    }

    fn sink_last_ns(&self) -> u64 {
        self.sinks.iter().map(|s| s.last_ns()).max().unwrap_or(0)
    }

    fn control_every(&self) -> Option<Duration> {
        self.wal_dir.as_ref().map(|_| CONTROL_EVERY)
    }

    /// Durable cells: every fourth step checkpoints the cell, the others
    /// rotate one subscription of the nurse station.
    fn control(&self) {
        let step = self.control_ops.fetch_add(1, Ordering::Relaxed);
        let r = if step % 4 == 3 {
            self.cell
                .checkpoint()
                .map_err(|e| format!("checkpoint: {e}"))
        } else {
            self.rotate(step)
        };
        if let Err(e) = r {
            eprintln!("perfbench: control step {step} failed: {e}");
            self.control_errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Cadence of the durable workload's control-plane writes.
pub const CONTROL_EVERY: Duration = Duration::from_millis(100);

/// Reopens a WAL directory after shutdown: the recovered subscriptions
/// of `subscriber` and the recovery wall time in ns.
///
/// # Errors
///
/// A description of the open failure.
pub fn recover_subscriptions(
    dir: &Path,
    subscriber: ServiceId,
) -> Result<(Vec<(SubscriptionId, Filter)>, u64), String> {
    let t = Instant::now();
    let backend = Arc::new(FileBackend::open(dir).map_err(|e| e.to_string())?);
    let (_wal, recovered) =
        Wal::open(backend, WalConfig::default()).map_err(|e| format!("wal reopen: {e}"))?;
    let ns = t.elapsed().as_nanos() as u64;
    let mut subs: Vec<(SubscriptionId, Filter)> = recovered
        .snapshot
        .subscriptions
        .into_iter()
        .filter(|s| s.subscriber == subscriber)
        .map(|s| (s.id, s.filter))
        .collect();
    subs.sort_by_key(|(id, _)| id.0);
    Ok((subs, ns))
}
