//! Accounting decorators, applied from outside the program: each wraps
//! one of the trait objects the cell is started with and counts and
//! times every call through it.
//!
//! * [`MeteredTransport`] wraps a [`Transport`] endpoint: sends are busy
//!   time, `recv` calls are blocked time.
//! * [`MeteredWal`] wraps a [`WalBackend`]: appends and fsyncs.
//! * [`MeteredSink`] wraps an [`EventSink`]: time inside the sink.
//! * [`CountingSink`] is the cell-side analysis sink itself.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use smc_core::EventSink;
use smc_transport::{Datagram, Transport};
use smc_types::{Event, Result, ServiceId};
use smc_wal::WalBackend;

fn add(c: &AtomicU64, v: u64) {
    c.fetch_add(v, Ordering::Relaxed);
}

fn get(c: &AtomicU64) -> u64 {
    c.load(Ordering::Relaxed)
}

/// Transport counters (a snapshot; subtract two for a window).
#[derive(Debug, Clone, Copy, Default)]
pub struct TransportCounts {
    /// Datagrams sent (unicast and broadcast copies).
    pub sent: u64,
    /// Payload bytes sent.
    pub bytes: u64,
    /// Time spent inside `send`/`broadcast`.
    pub send_ns: u64,
    /// Datagrams received.
    pub received: u64,
    /// Time spent blocked inside `recv` calls that returned a datagram.
    pub recv_wait_ns: u64,
}

impl std::ops::Sub for TransportCounts {
    type Output = TransportCounts;
    fn sub(self, o: TransportCounts) -> TransportCounts {
        TransportCounts {
            sent: self.sent - o.sent,
            bytes: self.bytes - o.bytes,
            send_ns: self.send_ns - o.send_ns,
            received: self.received - o.received,
            recv_wait_ns: self.recv_wait_ns - o.recv_wait_ns,
        }
    }
}

impl std::ops::Add for TransportCounts {
    type Output = TransportCounts;
    fn add(self, o: TransportCounts) -> TransportCounts {
        TransportCounts {
            sent: self.sent + o.sent,
            bytes: self.bytes + o.bytes,
            send_ns: self.send_ns + o.send_ns,
            received: self.received + o.received,
            recv_wait_ns: self.recv_wait_ns + o.recv_wait_ns,
        }
    }
}

/// A [`Transport`] decorator that counts and times every call.
#[derive(Debug)]
pub struct MeteredTransport {
    inner: Arc<dyn Transport>,
    sent: AtomicU64,
    bytes: AtomicU64,
    send_ns: AtomicU64,
    received: AtomicU64,
    recv_wait_ns: AtomicU64,
}

impl MeteredTransport {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn Transport>) -> Self {
        MeteredTransport {
            inner,
            sent: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            send_ns: AtomicU64::new(0),
            received: AtomicU64::new(0),
            recv_wait_ns: AtomicU64::new(0),
        }
    }

    /// The counters so far.
    pub fn counts(&self) -> TransportCounts {
        TransportCounts {
            sent: get(&self.sent),
            bytes: get(&self.bytes),
            send_ns: get(&self.send_ns),
            received: get(&self.received),
            recv_wait_ns: get(&self.recv_wait_ns),
        }
    }
}

impl Transport for MeteredTransport {
    fn local_id(&self) -> ServiceId {
        self.inner.local_id()
    }

    fn send(&self, to: ServiceId, payload: &[u8]) -> Result<()> {
        let t = Instant::now();
        let r = self.inner.send(to, payload);
        add(&self.send_ns, t.elapsed().as_nanos() as u64);
        add(&self.sent, 1);
        add(&self.bytes, payload.len() as u64);
        r
    }

    fn broadcast(&self, payload: &[u8]) -> Result<()> {
        let t = Instant::now();
        let r = self.inner.broadcast(payload);
        add(&self.send_ns, t.elapsed().as_nanos() as u64);
        add(&self.sent, 1);
        add(&self.bytes, payload.len() as u64);
        r
    }

    fn recv(&self, timeout: Option<Duration>) -> Result<Datagram> {
        let t = Instant::now();
        let r = self.inner.recv(timeout);
        if r.is_ok() {
            add(&self.recv_wait_ns, t.elapsed().as_nanos() as u64);
            add(&self.received, 1);
        }
        r
    }

    fn max_datagram(&self) -> usize {
        self.inner.max_datagram()
    }

    fn close(&self) {
        self.inner.close();
    }
}

/// WAL backend counters (a snapshot).
#[derive(Debug, Clone, Copy, Default)]
pub struct WalCounts {
    /// `append` calls.
    pub appends: u64,
    /// Bytes appended.
    pub bytes: u64,
    /// `sync` (fsync) calls.
    pub fsyncs: u64,
    /// Time inside `sync`.
    pub fsync_ns: u64,
}

impl std::ops::Sub for WalCounts {
    type Output = WalCounts;
    fn sub(self, o: WalCounts) -> WalCounts {
        WalCounts {
            appends: self.appends - o.appends,
            bytes: self.bytes - o.bytes,
            fsyncs: self.fsyncs - o.fsyncs,
            fsync_ns: self.fsync_ns - o.fsync_ns,
        }
    }
}

/// A [`WalBackend`] decorator that counts appends and fsyncs and times
/// the fsyncs (the blocking part).
#[derive(Debug)]
pub struct MeteredWal {
    inner: Arc<dyn WalBackend>,
    appends: AtomicU64,
    bytes: AtomicU64,
    fsyncs: AtomicU64,
    fsync_ns: AtomicU64,
}

impl MeteredWal {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn WalBackend>) -> Self {
        MeteredWal {
            inner,
            appends: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            fsync_ns: AtomicU64::new(0),
        }
    }

    /// The counters so far.
    pub fn counts(&self) -> WalCounts {
        WalCounts {
            appends: get(&self.appends),
            bytes: get(&self.bytes),
            fsyncs: get(&self.fsyncs),
            fsync_ns: get(&self.fsync_ns),
        }
    }
}

impl WalBackend for MeteredWal {
    fn segments(&self) -> Result<Vec<u64>> {
        self.inner.segments()
    }

    fn read_segment(&self, id: u64) -> Result<Vec<u8>> {
        self.inner.read_segment(id)
    }

    fn create_segment(&self, id: u64) -> Result<()> {
        self.inner.create_segment(id)
    }

    fn append(&self, id: u64, data: &[u8]) -> Result<()> {
        let r = self.inner.append(id, data);
        add(&self.appends, 1);
        add(&self.bytes, data.len() as u64);
        r
    }

    fn sync(&self, id: u64) -> Result<()> {
        let t = Instant::now();
        let r = self.inner.sync(id);
        add(&self.fsync_ns, t.elapsed().as_nanos() as u64);
        add(&self.fsyncs, 1);
        r
    }

    fn remove_segment(&self, id: u64) -> Result<()> {
        self.inner.remove_segment(id)
    }

    fn read_snapshot(&self) -> Result<Option<Vec<u8>>> {
        self.inner.read_snapshot()
    }

    fn write_snapshot(&self, data: &[u8]) -> Result<()> {
        self.inner.write_snapshot(data)
    }
}

/// A cell-side analysis sink: counts deliveries and remembers when the
/// last one arrived (ns since the run's base instant), so a throughput
/// window can end at the last receipt on *any* thread.
#[derive(Debug)]
pub struct CountingSink {
    base: Instant,
    count: AtomicU64,
    last_ns: AtomicU64,
}

impl CountingSink {
    /// A sink timing against `base`.
    pub fn new(base: Instant) -> Self {
        CountingSink {
            base,
            count: AtomicU64::new(0),
            last_ns: AtomicU64::new(0),
        }
    }

    /// Deliveries so far.
    pub fn count(&self) -> u64 {
        get(&self.count)
    }

    /// When the latest delivery arrived (ns since base).
    pub fn last_ns(&self) -> u64 {
        get(&self.last_ns)
    }
}

impl EventSink for CountingSink {
    fn deliver(&self, _event: &Event) -> Result<()> {
        self.last_ns
            .fetch_max(self.base.elapsed().as_nanos() as u64, Ordering::Relaxed);
        add(&self.count, 1);
        Ok(())
    }
}

/// An [`EventSink`] decorator timing each delivery into `inner`.
pub struct MeteredSink {
    inner: Arc<dyn EventSink>,
    calls: AtomicU64,
    busy_ns: AtomicU64,
}

impl std::fmt::Debug for MeteredSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MeteredSink")
            .field("calls", &get(&self.calls))
            .finish_non_exhaustive()
    }
}

impl MeteredSink {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn EventSink>) -> Self {
        MeteredSink {
            inner,
            calls: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
        }
    }

    /// `(calls, ns inside the sink)` so far.
    pub fn counts(&self) -> (u64, u64) {
        (get(&self.calls), get(&self.busy_ns))
    }
}

impl EventSink for MeteredSink {
    fn deliver(&self, event: &Event) -> Result<()> {
        let t = Instant::now();
        let r = self.inner.deliver(event);
        add(&self.busy_ns, t.elapsed().as_nanos() as u64);
        add(&self.calls, 1);
        r
    }
}
