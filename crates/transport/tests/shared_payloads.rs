//! Tests for the zero-copy send path: shared `Arc<[u8]>` payloads and
//! coalesced [`AckBatch`] handling.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use smc_transport::{
    ChannelJournal, Datagram, Frame, Incoming, LinkConfig, MemTransport, ReliableChannel,
    ReliableConfig, SimNetwork, Transport,
};
use smc_types::codec::from_bytes;
use smc_types::{Result, ServiceId, TraceId};

const TICK: Duration = Duration::from_secs(5);

fn fast_config() -> ReliableConfig {
    ReliableConfig {
        initial_rto: Duration::from_millis(30),
        poll_interval: Duration::from_millis(10),
        ..ReliableConfig::default()
    }
}

fn collect_reliable(ch: &ReliableChannel, n: usize) -> Vec<Vec<u8>> {
    let mut got = Vec::new();
    while got.len() < n {
        match ch.recv(Some(TICK)).expect("recv within deadline") {
            Incoming::Reliable { payload, .. } => got.push(payload),
            Incoming::Unreliable { .. } => {}
        }
    }
    got
}

/// One shared buffer sent to several peers: every receiver gets the
/// bytes, exactly once, while the sender held a single allocation.
#[test]
fn one_shared_buffer_reaches_many_peers() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let a = ReliableChannel::new(Arc::new(net.endpoint()), fast_config());
    let receivers: Vec<_> = (0..4)
        .map(|_| ReliableChannel::new(Arc::new(net.endpoint()), fast_config()))
        .collect();
    let shared: Arc<[u8]> = Arc::from(vec![0xCD; 300]);
    for r in &receivers {
        a.send_traced(r.local_id(), Arc::clone(&shared), TraceId::NONE)
            .unwrap();
    }
    for r in &receivers {
        let got = collect_reliable(r, 1);
        assert_eq!(got[0], shared.as_ref());
    }
}

/// A journalling (ack-on-delivery) receiver coalesces its acks into
/// batch frames; the sender must still see every message acknowledged —
/// including multi-fragment ones — and exactly-once FIFO must hold.
#[test]
fn coalesced_acks_complete_journaled_deliveries() {
    #[derive(Debug, Default)]
    struct NullJournal;
    impl ChannelJournal for NullJournal {
        fn on_deliver(&self, _: ServiceId, _: u64, _: u64, _: &[u8]) -> Result<()> {
            Ok(())
        }
        fn on_enqueue(&self, _: ServiceId, _: u64, _: &[u8]) -> Result<()> {
            Ok(())
        }
        fn on_acked(&self, _: ServiceId, _: u64) -> Result<()> {
            Ok(())
        }
        fn on_forget(&self, _: ServiceId) -> Result<()> {
            Ok(())
        }
    }

    let net = SimNetwork::new(LinkConfig::ideal());
    let a = ReliableChannel::new(Arc::new(net.endpoint()), fast_config());
    let b = ReliableChannel::new_journaled(
        Arc::new(net.endpoint()),
        fast_config(),
        Arc::new(NullJournal),
        Vec::new(),
        Vec::new(),
    );
    // Payloads big enough to fragment, sent back to back so the
    // receiver's in-order drain acks a run of messages at once.
    let big = a.transport().max_datagram() * 3;
    let receipts: Vec<_> = (0..10u8)
        .map(|i| a.send(b.local_id(), vec![i; big]).unwrap())
        .collect();
    let got = collect_reliable(&b, 10);
    for (i, payload) in got.iter().enumerate() {
        assert_eq!(payload.len(), big);
        assert!(payload.iter().all(|&x| x == i as u8));
    }
    for r in receipts {
        r.wait(TICK).unwrap();
    }
    assert_eq!(a.stats().msgs_sent, 10);
    assert_eq!(a.stats().msgs_acked, 10);
}

// ---- AckBatch chunking boundaries -------------------------------------
//
// `flush_acks` coalesces a drained run of acknowledgements into
// `AckBatch` frames of at most `(max_datagram - 11) / 10` entries (the
// wire header is 11 bytes, each entry 10). A journalled receiver acks a
// whole message's fragments in exactly one flush, so an F-fragment
// message pins the boundary cases deterministically: 0 acks must send
// nothing, 1 must stay a plain `Ack`, chunk-size must fill one batch,
// and chunk-size + 1 must split into two.

/// The ack-sender's advertised datagram cap in these tests.
const SNOOP_MAX_DATAGRAM: usize = 60;
/// Entries per `AckBatch` at that cap, mirroring `flush_acks`'s math.
const ACK_CHUNK: usize = (SNOOP_MAX_DATAGRAM - 11) / 10;

/// Wraps a simulated endpoint, recording every sent datagram and
/// advertising a small `max_datagram` so ack batches chunk early. The
/// cap is enforced, not just advertised: an oversized frame fails the
/// test instead of silently relying on the real transport's headroom.
#[derive(Debug)]
struct SnoopTransport {
    inner: MemTransport,
    sent: Mutex<Vec<Vec<u8>>>,
}

impl Transport for SnoopTransport {
    fn local_id(&self) -> ServiceId {
        self.inner.local_id()
    }
    fn send(&self, to: ServiceId, payload: &[u8]) -> Result<()> {
        assert!(
            payload.len() <= SNOOP_MAX_DATAGRAM,
            "frame of {} bytes exceeds the advertised {SNOOP_MAX_DATAGRAM}-byte cap",
            payload.len()
        );
        self.sent.lock().unwrap().push(payload.to_vec());
        self.inner.send(to, payload)
    }
    fn broadcast(&self, payload: &[u8]) -> Result<()> {
        self.inner.broadcast(payload)
    }
    fn recv(&self, timeout: Option<Duration>) -> Result<Datagram> {
        self.inner.recv(timeout)
    }
    fn max_datagram(&self) -> usize {
        SNOOP_MAX_DATAGRAM
    }
    fn close(&self) {
        self.inner.close()
    }
}

#[derive(Debug, Default)]
struct NullJournal;
impl ChannelJournal for NullJournal {
    fn on_deliver(&self, _: ServiceId, _: u64, _: u64, _: &[u8]) -> Result<()> {
        Ok(())
    }
    fn on_enqueue(&self, _: ServiceId, _: u64, _: &[u8]) -> Result<()> {
        Ok(())
    }
    fn on_acked(&self, _: ServiceId, _: u64) -> Result<()> {
        Ok(())
    }
    fn on_forget(&self, _: ServiceId) -> Result<()> {
        Ok(())
    }
}

/// A sender plus a journalled (ack-on-delivery) receiver whose outgoing
/// datagrams are recorded. The long RTO keeps retransmissions (and their
/// re-acks) out of the recorded stream.
fn snooped_pair() -> (
    Arc<ReliableChannel>,
    Arc<ReliableChannel>,
    Arc<SnoopTransport>,
) {
    let net = SimNetwork::new(LinkConfig::ideal());
    let patient = ReliableConfig {
        initial_rto: Duration::from_secs(5),
        ..ReliableConfig::default()
    };
    let a = ReliableChannel::new(Arc::new(net.endpoint()), patient.clone());
    let snoop = Arc::new(SnoopTransport {
        inner: net.endpoint(),
        sent: Mutex::new(Vec::new()),
    });
    let b = ReliableChannel::new_journaled(
        Arc::clone(&snoop) as Arc<dyn Transport>,
        patient,
        Arc::new(NullJournal),
        Vec::new(),
        Vec::new(),
    );
    (a, b, snoop)
}

/// Every ack-bearing frame the snooped receiver sent, in order.
fn recorded_ack_frames(snoop: &SnoopTransport) -> Vec<Frame> {
    snoop
        .sent
        .lock()
        .unwrap()
        .iter()
        .map(|d| from_bytes::<Frame>(d).expect("receiver sends well-formed frames"))
        .filter(|f| matches!(f, Frame::Ack { .. } | Frame::AckBatch { .. }))
        .collect()
}

/// Sends one reliable message that fragments exactly `frags` times and
/// waits until the receiver has delivered and acknowledged it.
fn deliver_one(a: &ReliableChannel, b: &ReliableChannel, frags: usize) {
    let max_fragment = a.transport().max_datagram() - smc_transport::FRAME_HEADER_LEN;
    let len = max_fragment * (frags - 1) + 1;
    let receipt = a.send(b.local_id(), vec![0x5A; len]).unwrap();
    let got = collect_reliable(b, 1);
    assert_eq!(got[0].len(), len);
    receipt.wait(TICK).unwrap();
}

#[test]
fn zero_acks_send_no_frames() {
    // Unreliable traffic is delivered without any reliability state, so
    // the receiver's ack path runs dry: not even an empty batch goes out.
    let (a, b, snoop) = snooped_pair();
    a.send_unreliable(b.local_id(), b"beacon").unwrap();
    match b.recv(Some(TICK)).unwrap() {
        Incoming::Unreliable { payload, .. } => assert_eq!(payload, b"beacon"),
        other => panic!("expected unreliable delivery, got {other:?}"),
    }
    assert!(
        recorded_ack_frames(&snoop).is_empty(),
        "no acknowledgements for unreliable traffic"
    );
}

#[test]
fn one_ack_stays_a_plain_ack_frame() {
    let (a, b, snoop) = snooped_pair();
    deliver_one(&a, &b, 1);
    let frames = recorded_ack_frames(&snoop);
    assert_eq!(frames.len(), 1, "one fragment, one frame: {frames:?}");
    assert!(
        matches!(
            frames[0],
            Frame::Ack {
                seq: 1,
                frag_index: 0,
                ..
            }
        ),
        "a single ack never pays the batch header: {frames:?}"
    );
}

#[test]
fn chunk_size_acks_fill_exactly_one_batch() {
    let (a, b, snoop) = snooped_pair();
    deliver_one(&a, &b, ACK_CHUNK);
    let frames = recorded_ack_frames(&snoop);
    assert_eq!(frames.len(), 1, "chunk-size acks fit one frame: {frames:?}");
    let Frame::AckBatch { ref acks, .. } = frames[0] else {
        panic!("coalesced run travels as a batch: {frames:?}");
    };
    let expected: Vec<(u64, u16)> = (0..ACK_CHUNK as u16).map(|i| (1, i)).collect();
    assert_eq!(acks, &expected, "every fragment acked, in order");
}

#[test]
fn chunk_size_plus_one_acks_split_into_two_batches() {
    let (a, b, snoop) = snooped_pair();
    deliver_one(&a, &b, ACK_CHUNK + 1);
    let frames = recorded_ack_frames(&snoop);
    assert_eq!(
        frames.len(),
        2,
        "one over the cap forces a split: {frames:?}"
    );
    let mut flattened: Vec<(u64, u16)> = Vec::new();
    for (i, frame) in frames.iter().enumerate() {
        let Frame::AckBatch { ref acks, .. } = *frame else {
            panic!("both halves travel as batches: {frames:?}");
        };
        assert!(!acks.is_empty(), "no empty batch is ever sent");
        let expected_len = if i == 0 { ACK_CHUNK } else { 1 };
        assert_eq!(acks.len(), expected_len, "full chunk first, remainder last");
        flattened.extend(acks);
    }
    let expected: Vec<(u64, u16)> = (0..=ACK_CHUNK as u16).map(|i| (1, i)).collect();
    assert_eq!(flattened, expected, "the split loses and reorders nothing");
}
