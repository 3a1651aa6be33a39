//! The reliability layer: acknowledged, exactly-once, per-sender-FIFO
//! message delivery over an unreliable datagram [`Transport`].
//!
//! The paper's delivery semantics (§II-C) require that every event reach
//! each interested member **exactly once** and that events from one sender
//! arrive **in the order sent**. Rather than re-implementing that per
//! component, every hop (publisher proxy → bus, bus → subscriber proxy,
//! discovery handshakes) runs over a [`ReliableChannel`]:
//!
//! * every message gets a per-peer sequence number within a session
//!   *epoch*; receivers deliver strictly in sequence order;
//! * every fragment is acknowledged; unacknowledged fragments are
//!   retransmitted with exponential backoff (for as long as the caller
//!   wants — proxies retry until the member is purged);
//! * duplicates (from the network or from retransmission) are suppressed
//!   and re-acknowledged;
//! * messages larger than the transport MTU are fragmented and
//!   reassembled.
//!
//! Messages are queued one at a time through [`ReliableChannel::send`]
//! and its variants. A payload is a shared `Arc<[u8]>`, so queueing the
//! bus's one encoded buffer per publish costs a reference count, not a
//! copy. There is no batch enqueue: batching, if it ever pays, belongs
//! at the cell's ingress and must show its gain on an end-to-end
//! workload.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;

use smc_telemetry::{Hop, Tracer};
use smc_types::codec::{from_bytes, to_bytes, MAX_COLLECTION_LEN};
use smc_types::{system_clock, Error, Result, ServiceId, SharedClock, SnapshotCell, TraceId};

use crate::frame::{encode_data_frame, fragment_ranges, Frame, FRAME_HEADER_LEN};
use crate::transport::Transport;

/// Retransmission and flow-control parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReliableConfig {
    /// Initial retransmission timeout.
    pub initial_rto: Duration,
    /// Multiplier applied to the RTO after each retransmission.
    pub backoff: u32,
    /// Upper bound on the RTO.
    pub max_rto: Duration,
    /// Give up after this many retransmissions of a message (`None` =
    /// retry forever, the proxy behaviour).
    pub max_retries: Option<u32>,
    /// Maximum messages in flight per peer; excess sends queue.
    pub window: usize,
    /// How long `recv` polls the transport between retransmission scans.
    pub poll_interval: Duration,
    /// Maximum out-of-order messages buffered per peer before the
    /// receiver starts dropping (the sender retransmits them later).
    pub reorder_buffer: usize,
    /// Suppress duplicates and enforce in-order delivery (the normal,
    /// correct behaviour). Disabling this intentionally breaks the
    /// exactly-once / FIFO guarantees — it exists so delivery-semantics
    /// oracles can prove they detect a faulty channel.
    pub dedup: bool,
}

impl Default for ReliableConfig {
    fn default() -> Self {
        ReliableConfig {
            initial_rto: Duration::from_millis(60),
            backoff: 2,
            max_rto: Duration::from_secs(2),
            max_retries: None,
            window: 64,
            poll_interval: Duration::from_millis(20),
            reorder_buffer: 256,
            dedup: true,
        }
    }
}

/// Observer of a channel's durable state transitions, implemented by the
/// write-ahead log so exactly-once and FIFO survive a process crash.
///
/// The channel calls these hooks at the moments that matter for
/// crash-consistency:
///
/// * [`on_deliver`](ChannelJournal::on_deliver) is called **before** a
///   message is delivered to the application or any of its fragments are
///   acknowledged, and carries the payload so the journal can retain the
///   message itself — not just the cursor advance — until the
///   application confirms it finished with it. If journalling fails the
///   message stays buffered and unacknowledged, so the sender
///   retransmits and delivery is retried — anything a peer saw
///   acknowledged is therefore durably recorded, payload included.
/// * [`on_consumed`](ChannelJournal::on_consumed) is called once the
///   application finished processing a delivered message
///   ([`ReliableChannel::consumed`]); the journal may stop retaining its
///   payload. Errors are ignored: the worst case is the payload being
///   processed again after a crash.
/// * [`on_enqueue`](ChannelJournal::on_enqueue) is called **before** a
///   message joins the outbound queue; a failure fails the send.
/// * [`on_requeue`](ChannelJournal::on_requeue) is the crash-recovery
///   variant of `on_enqueue` ([`ReliableChannel::send_recovered`]): the
///   payload is already retained under `prior_seq`, so the journal
///   renumbers the retained entry instead of storing a second copy.
/// * [`on_acked`](ChannelJournal::on_acked) / [`on_forget`](ChannelJournal::on_forget)
///   trim retained outbound state. Their errors are ignored: replaying a
///   stale enqueue after a crash only causes a retransmission the
///   receiver's cursor suppresses.
pub trait ChannelJournal: Send + Sync + std::fmt::Debug {
    /// The receiver is about to deliver message `seq` (with `payload`)
    /// from `peer`'s session `epoch` and acknowledge its fragments.
    ///
    /// # Errors
    ///
    /// An error vetoes the delivery; the channel leaves the message
    /// buffered and unacknowledged and retries later.
    fn on_deliver(&self, peer: ServiceId, epoch: u64, seq: u64, payload: &[u8]) -> Result<()>;
    /// Whether delivered payloads must be retained until
    /// [`on_consumed`](ChannelJournal::on_consumed). When `true` the
    /// channel tracks every delivery in its unconsumed list
    /// ([`ReliableChannel::unconsumed_rx`]) so checkpoints can capture
    /// in-flight messages.
    fn retains_rx(&self) -> bool {
        false
    }
    /// The application finished processing message `seq` from `peer`.
    ///
    /// # Errors
    ///
    /// Errors are ignored by the channel (see trait docs).
    fn on_consumed(&self, peer: ServiceId, seq: u64) -> Result<()> {
        let _ = (peer, seq);
        Ok(())
    }
    /// A message with (predicted) sequence number `seq` is about to be
    /// queued for `peer`.
    ///
    /// # Errors
    ///
    /// An error aborts the send before any state changes.
    fn on_enqueue(&self, peer: ServiceId, seq: u64, payload: &[u8]) -> Result<()>;
    /// A recovered payload, retained by the journal under `prior_seq`, is
    /// about to re-enter the queue for `peer` under the fresh (predicted)
    /// number `seq`.
    ///
    /// # Errors
    ///
    /// An error aborts the send before any state changes.
    fn on_requeue(&self, peer: ServiceId, prior_seq: u64, seq: u64) -> Result<()> {
        let _ = (peer, prior_seq, seq);
        Ok(())
    }
    /// Outbound message `seq` to `peer` was fully acknowledged or
    /// abandoned and no longer needs to be retained.
    ///
    /// # Errors
    ///
    /// Errors are ignored by the channel (see trait docs).
    fn on_acked(&self, peer: ServiceId, seq: u64) -> Result<()>;
    /// All outbound state for `peer` was deliberately dropped.
    ///
    /// # Errors
    ///
    /// Errors are ignored by the channel (see trait docs).
    fn on_forget(&self, peer: ServiceId) -> Result<()>;
}

/// Unacknowledged outbound state per peer, as returned by
/// [`ReliableChannel::outbound_pending`]: each entry pairs a peer with
/// its `(sequence, payload)` list, oldest first.
pub type PendingOutbound = Vec<(ServiceId, Vec<(u64, Vec<u8>)>)>;

/// Delivered-but-unconsumed inbound messages, as returned by
/// [`ReliableChannel::unconsumed_rx`]: `(peer, epoch, seq, payload)`
/// entries in delivery order.
pub type UnconsumedRx = Vec<(ServiceId, u64, u64, Vec<u8>)>;

/// Counters describing a channel's activity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Reliable messages accepted for sending.
    pub msgs_sent: u64,
    /// Reliable messages fully acknowledged.
    pub msgs_acked: u64,
    /// Reliable messages delivered to the application.
    pub msgs_delivered: u64,
    /// Messages abandoned after `max_retries`.
    pub msgs_expired: u64,
    /// Fragment retransmissions.
    pub retransmits: u64,
    /// Duplicate fragments suppressed on receive.
    pub duplicates_suppressed: u64,
    /// Unreliable payloads sent (including broadcasts).
    pub unreliable_sent: u64,
    /// Unreliable payloads received.
    pub unreliable_received: u64,
    /// Messages that entered a retransmission round — an ack deadline
    /// passed with fragments still outstanding. Mirrored onto the
    /// interrupt line installed via
    /// [`ReliableChannel::set_missed_ack_interrupt`].
    pub missed_ack_interrupts: u64,
}

/// A message handed up by [`ReliableChannel::recv`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Incoming {
    /// An exactly-once, in-order message from `from`.
    Reliable {
        /// The sending endpoint.
        from: ServiceId,
        /// The sender-assigned sequence number — the handle the consumer
        /// passes back to [`ReliableChannel::consumed`] once it finished
        /// processing the message.
        seq: u64,
        /// The reassembled message bytes.
        payload: Vec<u8>,
    },
    /// A fire-and-forget payload (e.g. a discovery beacon).
    Unreliable {
        /// The sending endpoint.
        from: ServiceId,
        /// The payload bytes.
        payload: Vec<u8>,
        /// Whether it arrived by broadcast.
        broadcast: bool,
    },
}

impl Incoming {
    /// The sender, regardless of reliability class.
    pub fn from(&self) -> ServiceId {
        match self {
            Incoming::Reliable { from, .. } | Incoming::Unreliable { from, .. } => *from,
        }
    }

    /// The payload, regardless of reliability class.
    pub fn payload(&self) -> &[u8] {
        match self {
            Incoming::Reliable { payload, .. } | Incoming::Unreliable { payload, .. } => payload,
        }
    }
}

/// Resolves when a reliable send is fully acknowledged (or abandoned).
#[derive(Debug)]
pub struct Receipt {
    rx: Receiver<Result<()>>,
}

impl Receipt {
    /// Waits up to `timeout` for the acknowledgement.
    ///
    /// # Errors
    ///
    /// [`Error::Timeout`] if not acknowledged in time; [`Error::Closed`]
    /// if the channel shut down or the peer was forgotten first.
    pub fn wait(&self, timeout: Duration) -> Result<()> {
        match self.rx.recv_timeout(timeout) {
            Ok(r) => r,
            Err(RecvTimeoutError::Timeout) => Err(Error::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(Error::Closed),
        }
    }

    /// Returns the outcome if already resolved, without blocking.
    pub fn poll(&self) -> Option<Result<()>> {
        self.rx.try_recv().ok()
    }
}

#[derive(Debug)]
struct OutMessage {
    /// The whole message, shared with whoever produced it (the bus
    /// fan-out keeps one encoded buffer per publish; enqueueing here
    /// costs a reference count, not a copy).
    payload: Arc<[u8]>,
    /// `start..end` byte ranges of each fragment within `payload`;
    /// fragments are sliced out at (re)transmit time.
    frags: Vec<(usize, usize)>,
    acked: Vec<bool>,
    unacked: usize,
    receipt: Option<Sender<Result<()>>>,
    /// Clock micros of the last (re)transmission.
    last_tx: u64,
    rto: Duration,
    retries: u32,
    /// Causal trace of the payload ([`TraceId::NONE`] when untraced).
    trace: TraceId,
}

/// A queued message, the optional receipt to resolve on ack, and the
/// payload's causal trace.
type QueuedMessage = (Arc<[u8]>, Option<Sender<Result<()>>>, TraceId);

#[derive(Debug, Default)]
struct PeerOut {
    next_seq: u64,
    inflight: BTreeMap<u64, OutMessage>,
    queued: VecDeque<QueuedMessage>,
}

#[derive(Debug)]
struct Partial {
    frag_count: u16,
    got: Vec<Option<Vec<u8>>>,
    received: usize,
}

#[derive(Debug, Default)]
struct PeerIn {
    /// Sender session currently accepted; 0 = none seen yet (real epochs
    /// are always ≥ 1).
    epoch: u64,
    /// Next sequence number to deliver.
    expected: u64,
    /// Fully reassembled messages (payload, fragment count) waiting for
    /// their turn.
    ready: BTreeMap<u64, (Vec<u8>, u16)>,
    /// Messages still missing fragments.
    partial: HashMap<u64, Partial>,
}

#[derive(Debug)]
struct Shared {
    out: Mutex<HashMap<ServiceId, PeerOut>>,
    peers_in: Mutex<HashMap<ServiceId, PeerIn>>,
    /// Delivered messages the application has not yet confirmed via
    /// [`ReliableChannel::consumed`], in delivery order. Populated only
    /// when the journal retains rx payloads
    /// ([`ChannelJournal::retains_rx`]); seeded from the snapshot on
    /// recovery.
    unconsumed: Mutex<UnconsumedRx>,
    stats: Mutex<ChannelStats>,
    closed: AtomicBool,
    epoch: u64,
    config: ReliableConfig,
    clock: SharedClock,
    journal: Option<Arc<dyn ChannelJournal>>,
    /// Hop recorder for traced payloads; disabled (free) by default.
    /// A copy-on-write snapshot so the send and receive paths read it
    /// with one atomic load instead of a lock acquisition.
    tracer: SnapshotCell<Tracer>,
    /// Missed-ack interrupt line: bumped once per message per
    /// retransmission round so a health monitor can wake on the first
    /// sign of peer silence instead of waiting out its sampling window.
    /// Same copy-on-write pattern as the tracer — absent (free) unless
    /// installed.
    missed_ack_line: SnapshotCell<Option<Arc<AtomicU64>>>,
}

/// Reliable messaging endpoint over any [`Transport`].
///
/// ```
/// use std::sync::Arc;
/// use std::time::Duration;
/// use smc_transport::{Incoming, LinkConfig, ReliableChannel, ReliableConfig, SimNetwork};
///
/// let net = SimNetwork::new(LinkConfig::ideal());
/// let a = ReliableChannel::new(Arc::new(net.endpoint()), ReliableConfig::default());
/// let b = ReliableChannel::new(Arc::new(net.endpoint()), ReliableConfig::default());
/// let receipt = a.send(b.local_id(), b"event".to_vec())?;
/// match b.recv(Some(Duration::from_secs(2)))? {
///     Incoming::Reliable { payload, .. } => assert_eq!(payload, b"event"),
///     other => panic!("unexpected {other:?}"),
/// }
/// receipt.wait(Duration::from_secs(2))?;
/// # Ok::<(), smc_types::Error>(())
/// ```
#[derive(Debug)]
pub struct ReliableChannel {
    transport: Arc<dyn Transport>,
    shared: Arc<Shared>,
    inbox: Receiver<Incoming>,
    rx_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Present only on step-driven channels ([`ReliableChannel::with_clock`]):
    /// the receive/retransmit state the owner pumps via [`ReliableChannel::step`].
    manual_rx: Option<Mutex<RxWorker>>,
}

/// Epochs must grow across restarts within a process; a global counter
/// added to a time base guarantees strict monotonicity either way.
/// Starts at 1 because receivers use epoch 0 to mean "no session seen
/// yet" ([`PeerIn::default`]) — a real epoch of 0 would skip session
/// adoption and wedge delivery.
static EPOCH_BUMP: AtomicU64 = AtomicU64::new(1);

impl ReliableChannel {
    /// Wraps `transport` in a reliable channel and starts its receive
    /// thread.
    pub fn new(transport: Arc<dyn Transport>, config: ReliableConfig) -> Arc<Self> {
        ReliableChannel::build(
            transport,
            config,
            system_clock(),
            false,
            None,
            Vec::new(),
            Vec::new(),
        )
    }

    /// Like [`ReliableChannel::new`], but journalling every durable state
    /// transition to `journal` and seeding the receive cursors from
    /// `restored` — the crash-recovery path.
    ///
    /// Each `(peer, epoch, expected)` entry in `restored` re-adopts a
    /// pre-crash sender session: duplicates of messages delivered before
    /// the crash are suppressed and re-acknowledged instead of being
    /// delivered again. `pending` seeds the unconsumed list with
    /// messages the crashed process delivered (and acked) but had not
    /// finished processing — the caller must re-process each and mark it
    /// [`consumed`](ReliableChannel::consumed).
    pub fn new_journaled(
        transport: Arc<dyn Transport>,
        config: ReliableConfig,
        journal: Arc<dyn ChannelJournal>,
        restored: Vec<(ServiceId, u64, u64)>,
        pending: UnconsumedRx,
    ) -> Arc<Self> {
        ReliableChannel::build(
            transport,
            config,
            system_clock(),
            false,
            Some(journal),
            restored,
            pending,
        )
    }

    /// Wraps `transport` in a **step-driven** reliable channel timed by
    /// `clock`.
    ///
    /// No receive thread is spawned. The owner must call
    /// [`ReliableChannel::step`] after advancing the clock (and after the
    /// network delivered datagrams) to drain the transport, send acks and
    /// retransmit whatever timed out. Single-threaded stepping plus a
    /// seeded network makes whole scenarios bit-identical per seed.
    pub fn with_clock(
        transport: Arc<dyn Transport>,
        config: ReliableConfig,
        clock: SharedClock,
    ) -> Arc<Self> {
        ReliableChannel::build(transport, config, clock, true, None, Vec::new(), Vec::new())
    }

    /// The step-driven equivalent of [`ReliableChannel::new_journaled`]:
    /// journalled, cursor-restored, pending-seeded and timed by `clock`.
    pub fn with_clock_journaled(
        transport: Arc<dyn Transport>,
        config: ReliableConfig,
        clock: SharedClock,
        journal: Arc<dyn ChannelJournal>,
        restored: Vec<(ServiceId, u64, u64)>,
        pending: UnconsumedRx,
    ) -> Arc<Self> {
        ReliableChannel::build(
            transport,
            config,
            clock,
            true,
            Some(journal),
            restored,
            pending,
        )
    }

    fn build(
        transport: Arc<dyn Transport>,
        config: ReliableConfig,
        clock: SharedClock,
        manual: bool,
        journal: Option<Arc<dyn ChannelJournal>>,
        restored: Vec<(ServiceId, u64, u64)>,
        pending: UnconsumedRx,
    ) -> Arc<Self> {
        let epoch = clock.now_micros() + EPOCH_BUMP.fetch_add(1, Ordering::Relaxed);
        let mut peers_in = HashMap::new();
        for (peer, peer_epoch, expected) in restored {
            peers_in.insert(
                peer,
                PeerIn {
                    epoch: peer_epoch,
                    expected,
                    ..PeerIn::default()
                },
            );
        }
        let shared = Arc::new(Shared {
            out: Mutex::new(HashMap::new()),
            peers_in: Mutex::new(peers_in),
            unconsumed: Mutex::new(pending),
            stats: Mutex::new(ChannelStats::default()),
            closed: AtomicBool::new(false),
            epoch,
            config,
            clock,
            journal,
            tracer: SnapshotCell::new(Arc::new(Tracer::disabled())),
            missed_ack_line: SnapshotCell::new(Arc::new(None)),
        });
        let (inbox_tx, inbox_rx) = unbounded();
        let worker = RxWorker {
            transport: Arc::clone(&transport),
            shared: Arc::clone(&shared),
            inbox: inbox_tx,
        };
        if manual {
            return Arc::new(ReliableChannel {
                transport,
                shared,
                inbox: inbox_rx,
                rx_thread: Mutex::new(None),
                manual_rx: Some(Mutex::new(worker)),
            });
        }
        let channel = Arc::new(ReliableChannel {
            transport,
            shared,
            inbox: inbox_rx,
            rx_thread: Mutex::new(None),
            manual_rx: None,
        });
        let handle = std::thread::Builder::new()
            .name(format!("reliable-rx-{}", channel.local_id()))
            .spawn(move || worker.run())
            .expect("spawn reliable rx thread");
        *channel.rx_thread.lock() = Some(handle);
        channel
    }

    /// Drives a step-driven channel: drains every datagram currently in
    /// the transport, processes it (acks, reassembly, in-order delivery
    /// into the inbox) and retransmits whatever the clock says is due.
    ///
    /// Returns the number of datagrams processed.
    ///
    /// # Panics
    ///
    /// Panics if the channel was built with [`ReliableChannel::new`]
    /// (its receive thread owns this state).
    pub fn step(&self) -> usize {
        let rx = self
            .manual_rx
            .as_ref()
            .expect("step() requires a channel built with ReliableChannel::with_clock")
            .lock();
        let mut worker = rx;
        let mut processed = 0;
        while let Ok(datagram) = self.transport.recv(Some(Duration::ZERO)) {
            processed += 1;
            let broadcast = datagram.broadcast;
            let from = datagram.from;
            if let Ok(frame) = from_bytes::<Frame>(&datagram.payload) {
                worker.handle_frame(from, broadcast, frame);
            }
        }
        worker.retransmit_due();
        processed
    }

    /// The underlying endpoint's identifier.
    pub fn local_id(&self) -> ServiceId {
        self.transport.local_id()
    }

    /// The underlying transport.
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
    }

    /// Installs (or replaces) the hop tracer. Subsequent transmit,
    /// retransmit, ack and expiry events of traced messages are recorded
    /// against their [`TraceId`].
    pub fn set_tracer(&self, tracer: Tracer) {
        self.shared.tracer.store(Arc::new(tracer));
    }

    /// The currently installed hop tracer (disabled unless
    /// [`ReliableChannel::set_tracer`] was called).
    pub fn tracer(&self) -> Tracer {
        (*self.shared.tracer.load()).clone()
    }

    /// Installs the missed-ack interrupt line: `line` is incremented
    /// once per message per retransmission round, the moment an ack
    /// deadline lapses with fragments still unacknowledged. A failure
    /// detector polling (or parked on) the line learns of peer silence
    /// at RTO granularity instead of its own sampling cadence. The same
    /// `Arc` may be shared across many channels to fan interrupts into
    /// one monitor.
    pub fn set_missed_ack_interrupt(&self, line: Arc<AtomicU64>) {
        self.shared.missed_ack_line.store(Arc::new(Some(line)));
    }

    /// Queues `payload` for exactly-once, in-order delivery to `to`.
    ///
    /// The payload may be anything convertible into a shared `Arc<[u8]>`
    /// buffer — a `Vec<u8>` works as before, and an already-shared buffer
    /// (e.g. the bus's one-per-publish encoded frame) is enqueued without
    /// copying.
    ///
    /// Returns a [`Receipt`] resolving when the peer acknowledged every
    /// fragment.
    ///
    /// # Errors
    ///
    /// [`Error::Closed`] if the channel is shut down.
    pub fn send(&self, to: ServiceId, payload: impl Into<Arc<[u8]>>) -> Result<Receipt> {
        self.send_inner(to, payload.into(), None, TraceId::NONE)
    }

    /// Like [`ReliableChannel::send`], with the payload's causal trace:
    /// the channel records `WalAppended` / `TxSent` / `TxRetransmit` /
    /// `RxAcked` / `Dropped` hops for it on the installed tracer.
    ///
    /// # Errors
    ///
    /// [`Error::Closed`] if the channel is shut down.
    pub fn send_traced(
        &self,
        to: ServiceId,
        payload: impl Into<Arc<[u8]>>,
        trace: TraceId,
    ) -> Result<Receipt> {
        self.send_inner(to, payload.into(), None, trace)
    }

    /// The crash-recovery variant of [`ReliableChannel::send`]: queues a
    /// payload the journal already retains under `prior_seq` (from the
    /// crashed incarnation's outbound queue). The journal renumbers its
    /// retained entry to this send's fresh sequence number instead of
    /// storing a duplicate copy — so a second crash resends the queue
    /// exactly once more, never twice.
    ///
    /// # Errors
    ///
    /// [`Error::Closed`] if the channel is shut down.
    pub fn send_recovered(
        &self,
        to: ServiceId,
        payload: Vec<u8>,
        prior_seq: u64,
    ) -> Result<Receipt> {
        self.send_inner(to, payload.into(), Some(prior_seq), TraceId::NONE)
    }

    fn send_inner(
        &self,
        to: ServiceId,
        payload: Arc<[u8]>,
        requeued_from: Option<u64>,
        trace: TraceId,
    ) -> Result<Receipt> {
        if self.shared.closed.load(Ordering::SeqCst) {
            return Err(Error::Closed);
        }
        let (tx, rx) = bounded(1);
        {
            let mut out = self.shared.out.lock();
            let peer = out.entry(to).or_default();
            let tracer = self.shared.tracer.load();
            if let Some(journal) = &self.shared.journal {
                // Sequence numbers are assigned when `pump` promotes the
                // message into the window, strictly in queue order under
                // this lock — so the eventual number is predictable now,
                // and the journal entry can carry it before any bytes hit
                // the wire.
                let seq = peer.next_seq + peer.queued.len() as u64 + 1;
                tracer.record(trace, Hop::WalQueued);
                match requeued_from {
                    Some(prior_seq) => journal.on_requeue(to, prior_seq, seq)?,
                    None => journal.on_enqueue(to, seq, &payload)?,
                }
                tracer.record(trace, Hop::WalAppended);
            }
            peer.queued.push_back((payload, Some(tx), trace));
            tracer.record(trace, Hop::OutQueued);
            self.shared.stats.lock().msgs_sent += 1;
            let now = self.shared.clock.now_micros();
            pump(
                &self.transport,
                self.shared.epoch,
                &self.shared.config,
                now,
                to,
                peer,
                &tracer,
            );
        }
        Ok(Receipt { rx })
    }

    /// Like [`ReliableChannel::send`] but blocks until acknowledged.
    ///
    /// # Errors
    ///
    /// [`Error::Timeout`] if not acknowledged within `timeout`;
    /// [`Error::Closed`] if the channel shut down.
    pub fn send_blocking(
        &self,
        to: ServiceId,
        payload: impl Into<Arc<[u8]>>,
        timeout: Duration,
    ) -> Result<()> {
        self.send(to, payload)?.wait(timeout)
    }

    /// Sends a fire-and-forget payload (no ordering, no retransmission).
    ///
    /// # Errors
    ///
    /// Propagates transport errors; loss in the network is not an error.
    pub fn send_unreliable(&self, to: ServiceId, payload: &[u8]) -> Result<()> {
        if self.shared.closed.load(Ordering::SeqCst) {
            return Err(Error::Closed);
        }
        let frame = to_bytes(&Frame::Unreliable {
            payload: payload.to_vec(),
        });
        self.shared.stats.lock().unreliable_sent += 1;
        self.transport.send(to, &frame)
    }

    /// Broadcasts a fire-and-forget payload.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn broadcast_unreliable(&self, payload: &[u8]) -> Result<()> {
        if self.shared.closed.load(Ordering::SeqCst) {
            return Err(Error::Closed);
        }
        let frame = to_bytes(&Frame::Unreliable {
            payload: payload.to_vec(),
        });
        self.shared.stats.lock().unreliable_sent += 1;
        self.transport.broadcast(&frame)
    }

    /// Receives the next message, blocking up to `timeout` (forever when
    /// `None`).
    ///
    /// # Errors
    ///
    /// [`Error::Timeout`] on timeout, [`Error::Closed`] after shutdown.
    pub fn recv(&self, timeout: Option<Duration>) -> Result<Incoming> {
        match timeout {
            Some(t) => self.inbox.recv_timeout(t).map_err(|e| match e {
                RecvTimeoutError::Timeout => Error::Timeout,
                RecvTimeoutError::Disconnected => Error::Closed,
            }),
            None => self.inbox.recv().map_err(|_| Error::Closed),
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Incoming> {
        self.inbox.try_recv().ok()
    }

    /// Number of messages (queued + in flight) not yet acknowledged by
    /// `peer`.
    pub fn pending(&self, peer: ServiceId) -> usize {
        let out = self.shared.out.lock();
        out.get(&peer)
            .map_or(0, |p| p.inflight.len() + p.queued.len())
    }

    /// Drops all outbound state for `peer` (queued and in-flight
    /// messages). Pending receipts resolve with [`Error::Closed`].
    ///
    /// This is the proxy-destruction path: on `Purge Member` the proxy
    /// destroys "any outbound data awaiting delivery".
    pub fn forget_peer(&self, peer: ServiceId) {
        let removed = self.shared.out.lock().remove(&peer);
        if let Some(peer_out) = removed {
            // Journal the discard only for a deliberate forget (purge). A
            // shutdown (`close` flips `closed` first) must *retain* the
            // queued data so recovery can resume retransmission.
            if let Some(journal) = &self.shared.journal {
                if !self.shared.closed.load(Ordering::SeqCst) {
                    let _ = journal.on_forget(peer);
                }
            }
            let tracer = self.shared.tracer.load();
            for (_, msg) in peer_out.inflight {
                tracer.record(
                    msg.trace,
                    Hop::Dropped {
                        reason: "member-purged",
                    },
                );
                if let Some(tx) = msg.receipt {
                    let _ = tx.send(Err(Error::Closed));
                }
            }
            for (_, receipt, trace) in peer_out.queued {
                tracer.record(
                    trace,
                    Hop::Dropped {
                        reason: "member-purged",
                    },
                );
                if let Some(tx) = receipt {
                    let _ = tx.send(Err(Error::Closed));
                }
            }
        }
    }

    /// A snapshot of the channel counters.
    pub fn stats(&self) -> ChannelStats {
        self.shared.stats.lock().clone()
    }

    /// The receive cursors: one `(peer, epoch, expected)` triple per
    /// sender session seen (or restored), sorted by peer id.
    ///
    /// Everything below `expected` has been delivered and acknowledged;
    /// a snapshot of these triples is what recovery feeds back into
    /// [`ReliableChannel::new_journaled`] to keep exactly-once across a
    /// restart.
    pub fn rx_cursors(&self) -> Vec<(ServiceId, u64, u64)> {
        let peers = self.shared.peers_in.lock();
        let mut cursors: Vec<(ServiceId, u64, u64)> = peers
            .iter()
            .filter(|(_, p)| p.epoch != 0)
            .map(|(&id, p)| (id, p.epoch, p.expected))
            .collect();
        cursors.sort_unstable_by_key(|&(id, _, _)| id);
        cursors
    }

    /// Marks inbound message `seq` from `peer` as fully processed by the
    /// application.
    ///
    /// For a journalled channel whose journal
    /// [retains rx payloads](ChannelJournal::retains_rx) this drops the
    /// message from the unconsumed list and records the consumption, so
    /// neither the next checkpoint nor crash recovery re-processes it.
    /// The journal is told even when the entry is not in the in-memory
    /// list — recovery re-processes snapshot-restored messages that the
    /// reborn channel never delivered itself. On other channels this is
    /// a no-op.
    pub fn consumed(&self, peer: ServiceId, seq: u64) {
        let Some(journal) = &self.shared.journal else {
            return;
        };
        if !journal.retains_rx() {
            return;
        }
        {
            let mut unconsumed = self.shared.unconsumed.lock();
            if let Some(pos) = unconsumed
                .iter()
                .position(|&(p, _, s, _)| p == peer && s == seq)
            {
                unconsumed.remove(pos);
            }
        }
        let _ = journal.on_consumed(peer, seq);
    }

    /// Delivered inbound messages not yet marked
    /// [`consumed`](ReliableChannel::consumed), in delivery order.
    ///
    /// Together with [`rx_cursors`](ReliableChannel::rx_cursors) and
    /// [`outbound_pending`](ReliableChannel::outbound_pending) this is
    /// the state a checkpoint captures: these messages were acknowledged
    /// to their senders (who will never retransmit them) but their
    /// downstream effects are not yet journalled, so a snapshot must
    /// carry their payloads for recovery to re-process.
    pub fn unconsumed_rx(&self) -> UnconsumedRx {
        self.shared.unconsumed.lock().clone()
    }

    /// Unacknowledged outbound messages per peer: in-flight messages
    /// (reassembled from their fragments) followed by queued ones, each
    /// with its assigned or predicted sequence number, oldest first.
    /// Peers are sorted by id.
    ///
    /// This is the state a snapshot must retain so that recovery can
    /// resend everything the crashed process still owed its peers.
    pub fn outbound_pending(&self) -> PendingOutbound {
        let out = self.shared.out.lock();
        let mut peer_ids: Vec<ServiceId> = out.keys().copied().collect();
        peer_ids.sort_unstable();
        let mut pending = Vec::new();
        for id in peer_ids {
            let peer = &out[&id];
            let mut msgs: Vec<(u64, Vec<u8>)> = peer
                .inflight
                .iter()
                .map(|(&seq, m)| (seq, m.payload.to_vec()))
                .collect();
            let mut seq = peer.next_seq;
            for (payload, _, _) in &peer.queued {
                seq += 1;
                msgs.push((seq, payload.to_vec()));
            }
            if !msgs.is_empty() {
                pending.push((id, msgs));
            }
        }
        pending
    }

    /// Shuts the channel down: closes the transport and stops the receive
    /// thread. Unacknowledged messages are dropped.
    pub fn close(&self) {
        if self.shared.closed.swap(true, Ordering::SeqCst) {
            return;
        }
        self.transport.close();
        let peers: Vec<ServiceId> = self.shared.out.lock().keys().copied().collect();
        for p in peers {
            self.forget_peer(p);
        }
        if let Some(handle) = self.rx_thread.lock().take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ReliableChannel {
    fn drop(&mut self) {
        // Close without joining (join may self-deadlock if dropped from
        // the rx thread; it never is, but stay safe and cheap).
        if !self.shared.closed.swap(true, Ordering::SeqCst) {
            self.transport.close();
        }
    }
}

/// Promotes queued messages into the send window and transmits their
/// fragments. Callers hold the out-map lock.
fn pump(
    transport: &Arc<dyn Transport>,
    epoch: u64,
    config: &ReliableConfig,
    now: u64,
    to: ServiceId,
    peer: &mut PeerOut,
    tracer: &Tracer,
) {
    let max_frag = transport
        .max_datagram()
        .saturating_sub(FRAME_HEADER_LEN)
        .max(1);
    while peer.inflight.len() < config.window {
        let Some((payload, receipt, trace)) = peer.queued.pop_front() else {
            break;
        };
        let seq = peer.next_seq + 1;
        peer.next_seq = seq;
        let frags = fragment_ranges(payload.len(), max_frag);
        let n = frags.len();
        tracer.record(trace, Hop::TxSent);
        for (i, &(start, end)) in frags.iter().enumerate() {
            // Fragments are sliced out of the shared payload and encoded
            // straight into the wire buffer — no owned per-fragment copy.
            let frame = encode_data_frame(epoch, seq, i as u16, n as u16, &payload[start..end]);
            let _ = transport.send(to, &frame);
        }
        let msg = OutMessage {
            acked: vec![false; n],
            unacked: n,
            payload,
            frags,
            receipt,
            last_tx: now,
            rto: config.initial_rto,
            retries: 0,
            trace,
        };
        peer.inflight.insert(seq, msg);
    }
}

/// The receive/retransmit worker.
#[derive(Debug)]
struct RxWorker {
    transport: Arc<dyn Transport>,
    shared: Arc<Shared>,
    inbox: Sender<Incoming>,
}

impl RxWorker {
    fn run(mut self) {
        let poll = self.shared.config.poll_interval;
        let mut last_scan = self.shared.clock.now_micros();
        loop {
            if self.shared.closed.load(Ordering::SeqCst) {
                return;
            }
            match self.transport.recv(Some(poll)) {
                Ok(datagram) => {
                    let broadcast = datagram.broadcast;
                    let from = datagram.from;
                    match from_bytes::<Frame>(&datagram.payload) {
                        Ok(frame) => self.handle_frame(from, broadcast, frame),
                        Err(_) => { /* corrupt datagram: drop silently */ }
                    }
                }
                Err(Error::Timeout) => {}
                Err(_) => return,
            }
            let now = self.shared.clock.now_micros();
            if Duration::from_micros(now.saturating_sub(last_scan)) >= poll {
                self.retransmit_due();
                last_scan = now;
            }
        }
    }

    fn handle_frame(&mut self, from: ServiceId, broadcast: bool, frame: Frame) {
        match frame {
            Frame::Unreliable { payload } => {
                self.shared.stats.lock().unreliable_received += 1;
                let _ = self.inbox.send(Incoming::Unreliable {
                    from,
                    payload,
                    broadcast,
                });
            }
            Frame::Ack {
                epoch,
                seq,
                frag_index,
            } => {
                self.handle_acks(from, epoch, &[(seq, frag_index)]);
            }
            Frame::AckBatch { epoch, acks } => {
                self.handle_acks(from, epoch, &acks);
            }
            Frame::Data {
                epoch,
                seq,
                frag_index,
                frag_count,
                payload,
            } => {
                self.handle_data(from, epoch, seq, frag_index, frag_count, payload);
            }
        }
    }

    /// Applies a run of `(seq, frag_index)` acknowledgements from `from`
    /// under a single out-lock acquisition — shared by [`Frame::Ack`]
    /// (one pair) and [`Frame::AckBatch`] (the coalesced form).
    fn handle_acks(&mut self, from: ServiceId, epoch: u64, acks: &[(u64, u16)]) {
        if epoch != self.shared.epoch {
            return;
        }
        let mut out = self.shared.out.lock();
        let Some(peer) = out.get_mut(&from) else {
            return;
        };
        let mut completed = false;
        for &(seq, frag_index) in acks {
            let mut done = false;
            if let Some(msg) = peer.inflight.get_mut(&seq) {
                let i = frag_index as usize;
                if i < msg.acked.len() && !msg.acked[i] {
                    msg.acked[i] = true;
                    msg.unacked -= 1;
                    done = msg.unacked == 0;
                }
            }
            if done {
                let msg = peer
                    .inflight
                    .remove(&seq)
                    .expect("completed message exists");
                if let Some(journal) = &self.shared.journal {
                    let _ = journal.on_acked(from, seq);
                }
                self.shared.tracer.load().record(msg.trace, Hop::RxAcked);
                // Count before resolving the receipt so a caller woken
                // by `send_blocking` observes the updated stats.
                self.shared.stats.lock().msgs_acked += 1;
                if let Some(tx) = msg.receipt {
                    let _ = tx.send(Ok(()));
                }
                completed = true;
            }
        }
        if completed {
            // Window slots freed: promote queued messages, once for the
            // whole batch.
            let now = self.shared.clock.now_micros();
            let tracer = self.shared.tracer.load();
            pump(
                &self.transport,
                self.shared.epoch,
                &self.shared.config,
                now,
                from,
                peer,
                &tracer,
            );
        }
    }

    fn handle_data(
        &mut self,
        from: ServiceId,
        epoch: u64,
        seq: u64,
        frag_index: u16,
        frag_count: u16,
        payload: Vec<u8>,
    ) {
        // Journalled receivers defer acknowledgement until delivery is
        // durably recorded; without a journal (or with dedup disabled)
        // the original ack-on-arrival behaviour applies unchanged.
        let journaled = self.shared.journal.is_some() && self.shared.config.dedup;
        let mut peers_in = self.shared.peers_in.lock();
        let peer = peers_in.entry(from).or_default();
        if epoch < peer.epoch {
            // Stray frame from a dead session: ignore entirely.
            return;
        }
        if epoch > peer.epoch {
            // The peer restarted: adopt the new session.
            //
            // A journalled receiver picks where to start carefully: a
            // genuinely fresh sender session numbers from 1 and can have
            // at most `window` messages outstanding, so a first-seen
            // sequence number beyond the window can only mean the sender
            // was already mid-stream and *our* cursor is gone (recovery
            // without a usable log). Adopting at the observed point
            // avoids re-buffering the peer's whole history; anything the
            // crashed process already delivered that resurfaces at or
            // above it is what the delivery oracle flags as a duplicate.
            let expected = if journaled && seq > self.shared.config.window as u64 {
                seq
            } else {
                1
            };
            *peer = PeerIn {
                epoch,
                expected,
                ready: BTreeMap::new(),
                partial: HashMap::new(),
            };
        }
        // Capacity check FIRST: a fragment we cannot buffer must be
        // dropped *without* acknowledging it, or the sender would mark it
        // delivered and never retransmit — wedging the FIFO stream
        // forever once the gap in front of it closes. (Reachable because
        // buffered-but-undelivered messages are acked, so the sender's
        // window keeps sliding past `expected` while a retransmission is
        // pending.)
        if seq >= peer.expected
            && !peer.ready.contains_key(&seq)
            && (seq - peer.expected) as usize > self.shared.config.reorder_buffer
        {
            return;
        }

        // (Re-)acknowledge everything else — including duplicates, whose
        // original ack may have been lost. Journalled receivers ack only
        // at (or after) durably-recorded delivery, below.
        if !journaled {
            let ack = Frame::Ack {
                epoch,
                seq,
                frag_index,
            };
            let _ = self.transport.send(from, &to_bytes(&ack));
        }

        if !self.shared.config.dedup {
            // Intentionally-broken mode for oracle validation: hand every
            // fragment batch up as soon as it completes, with no duplicate
            // suppression and no reordering. Retransmitted messages get
            // delivered again; gaps are not waited for.
            let partial = peer.partial.entry(seq).or_insert_with(|| Partial {
                frag_count,
                got: vec![None; frag_count as usize],
                received: 0,
            });
            if partial.frag_count != frag_count || frag_index as usize >= partial.got.len() {
                return;
            }
            if partial.got[frag_index as usize].is_none() {
                partial.received += 1;
            }
            partial.got[frag_index as usize] = Some(payload);
            if partial.received == partial.frag_count as usize {
                let partial = peer.partial.remove(&seq).expect("partial present");
                let mut whole = Vec::new();
                for piece in partial.got {
                    whole.extend_from_slice(&piece.expect("all fragments received"));
                }
                self.shared.stats.lock().msgs_delivered += 1;
                let _ = self.inbox.send(Incoming::Reliable {
                    from,
                    seq,
                    payload: whole,
                });
            }
            return;
        }

        if seq < peer.expected || peer.ready.contains_key(&seq) {
            self.shared.stats.lock().duplicates_suppressed += 1;
            if journaled {
                if seq < peer.expected {
                    // Its delivery is already journalled — safe to re-ack
                    // (the original ack may have been lost).
                    let ack = Frame::Ack {
                        epoch,
                        seq,
                        frag_index,
                    };
                    let _ = self.transport.send(from, &to_bytes(&ack));
                } else {
                    // Buffered but not yet journalled: don't ack, but
                    // retry the drain in case it stalled on a journal
                    // error earlier.
                    self.drain_in_order(from, peer);
                }
            }
            return;
        }
        let partial = peer.partial.entry(seq).or_insert_with(|| Partial {
            frag_count,
            got: vec![None; frag_count as usize],
            received: 0,
        });
        if partial.frag_count != frag_count || frag_index as usize >= partial.got.len() {
            // Inconsistent metadata — treat as corrupt and ignore.
            return;
        }
        if partial.got[frag_index as usize].is_some() {
            self.shared.stats.lock().duplicates_suppressed += 1;
            return;
        }
        partial.got[frag_index as usize] = Some(payload);
        partial.received += 1;
        if partial.received == partial.frag_count as usize {
            let partial = peer.partial.remove(&seq).expect("partial present");
            let mut whole = Vec::new();
            for piece in partial.got {
                whole.extend_from_slice(&piece.expect("all fragments received"));
            }
            peer.ready.insert(seq, (whole, frag_count));
            // Deliver everything now in order.
            self.drain_in_order(from, peer);
        }
    }

    /// Delivers every consecutive ready message starting at `expected`.
    ///
    /// With a journal attached, each delivery is recorded — payload
    /// included — *before* the message is handed up or any fragment
    /// acked; a journal error leaves the message buffered and
    /// unacknowledged so the sender retransmits and delivery is retried
    /// — the invariant that makes an acked message durably recorded.
    /// When the journal retains rx payloads the message also joins the
    /// unconsumed list (under the same `peers_in` lock the journal
    /// append happened under, so checkpoints never observe the append
    /// without its effect) until the application calls
    /// [`ReliableChannel::consumed`].
    fn drain_in_order(&self, from: ServiceId, peer: &mut PeerIn) {
        // Journalled receivers ack at delivery time; the acks for the
        // whole drained run are coalesced into batch frames instead of
        // one datagram per fragment.
        let mut acks: Vec<(u64, u16)> = Vec::new();
        loop {
            let seq = peer.expected;
            let Some((msg, _)) = peer.ready.get(&seq) else {
                break;
            };
            let mut retain = false;
            if let Some(journal) = &self.shared.journal {
                if journal.on_deliver(from, peer.epoch, seq, msg).is_err() {
                    break;
                }
                retain = journal.retains_rx();
            }
            let (msg, frag_count) = peer.ready.remove(&seq).expect("ready entry checked above");
            peer.expected = seq + 1;
            if retain {
                self.shared
                    .unconsumed
                    .lock()
                    .push((from, peer.epoch, seq, msg.clone()));
            }
            if self.shared.journal.is_some() {
                acks.extend((0..frag_count).map(|i| (seq, i)));
            }
            self.shared.stats.lock().msgs_delivered += 1;
            let _ = self.inbox.send(Incoming::Reliable {
                from,
                seq,
                payload: msg,
            });
        }
        // Flush even when the loop broke on a journal error: everything
        // collected so far was durably recorded before delivery.
        self.flush_acks(from, peer.epoch, &acks);
    }

    /// Sends a run of acknowledgements to `to`, coalescing two or more
    /// into [`Frame::AckBatch`] frames. Batches are chunked to respect
    /// both the codec's collection cap and the transport datagram size.
    fn flush_acks(&self, to: ServiceId, epoch: u64, acks: &[(u64, u16)]) {
        match acks {
            [] => {}
            &[(seq, frag_index)] => {
                let ack = Frame::Ack {
                    epoch,
                    seq,
                    frag_index,
                };
                let _ = self.transport.send(to, &to_bytes(&ack));
            }
            _ => {
                // Per-entry cost on the wire is 8 (seq) + 2 (frag_index)
                // bytes after a tag + epoch + count header of 11.
                let per_datagram = self.transport.max_datagram().saturating_sub(11) / 10;
                let chunk = per_datagram.clamp(1, MAX_COLLECTION_LEN);
                for chunk in acks.chunks(chunk) {
                    let frame = Frame::AckBatch {
                        epoch,
                        acks: chunk.to_vec(),
                    };
                    let _ = self.transport.send(to, &to_bytes(&frame));
                }
            }
        }
    }

    fn retransmit_due(&mut self) {
        let now = self.shared.clock.now_micros();
        let config = self.shared.config.clone();
        let tracer = self.shared.tracer.load();
        let missed_ack_line = self.shared.missed_ack_line.load();
        let mut out = self.shared.out.lock();
        // Sorted peer order: every (re)transmission consumes draws from
        // the simulated network's seeded rng, so iteration order must not
        // depend on hash-map layout for runs to be reproducible.
        let mut peer_ids: Vec<ServiceId> = out.keys().copied().collect();
        peer_ids.sort_unstable();
        for peer_id in peer_ids {
            let peer = out.get_mut(&peer_id).expect("peer present");
            let mut expired: Vec<u64> = Vec::new();
            for (&seq, msg) in peer.inflight.iter_mut() {
                if msg.unacked == 0
                    || Duration::from_micros(now.saturating_sub(msg.last_tx)) < msg.rto
                {
                    continue;
                }
                if let Some(max) = config.max_retries {
                    if msg.retries >= max {
                        expired.push(seq);
                        continue;
                    }
                }
                msg.retries += 1;
                msg.last_tx = now;
                msg.rto = (msg.rto * config.backoff).min(config.max_rto);
                // One hop per retransmission round, not per fragment.
                tracer.record(msg.trace, Hop::TxRetransmit);
                // A missed ack is the first observable symptom of a dead
                // peer: pulse the interrupt line so a supervising monitor
                // can sample immediately rather than on its next window.
                self.shared.stats.lock().missed_ack_interrupts += 1;
                if let Some(line) = missed_ack_line.as_ref() {
                    line.fetch_add(1, Ordering::Relaxed);
                }
                let n = msg.frags.len() as u16;
                for (i, &(start, end)) in msg.frags.iter().enumerate() {
                    if msg.acked[i] {
                        continue;
                    }
                    self.shared.stats.lock().retransmits += 1;
                    let frame = encode_data_frame(
                        self.shared.epoch,
                        seq,
                        i as u16,
                        n,
                        &msg.payload[start..end],
                    );
                    let _ = self.transport.send(peer_id, &frame);
                }
            }
            for seq in expired {
                let msg = peer.inflight.remove(&seq).expect("expired message exists");
                // An abandoned message will never be acked; stop
                // retaining it. (If the journal entry outlives us anyway,
                // recovery resends it once and the receiver's cursor
                // decides — at-least-once is the worst case here, and
                // only for explicitly bounded-retry senders.)
                if let Some(journal) = &self.shared.journal {
                    let _ = journal.on_acked(peer_id, seq);
                }
                tracer.record(msg.trace, Hop::Dropped { reason: "expired" });
                if let Some(tx) = msg.receipt {
                    let _ = tx.send(Err(Error::Timeout));
                }
                self.shared.stats.lock().msgs_expired += 1;
            }
            pump(
                &self.transport,
                self.shared.epoch,
                &config,
                now,
                peer_id,
                peer,
                &tracer,
            );
        }
    }
}
