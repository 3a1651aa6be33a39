//! The AMUSE self-managed-cell event service — the paper's primary
//! contribution, in Rust.
//!
//! The event bus at the heart of a *self-managed cell* (SMC) forwards
//! events from publishers to subscribers with **exactly-once,
//! per-sender-FIFO, acknowledged** delivery — stronger semantics than
//! stock publish/subscribe systems of the time offered, and sized for a
//! PDA coordinating a body-area network of health sensors rather than an
//! internet-scale broker.
//!
//! Layers (bottom-up):
//!
//! * [`EventBus`] — the in-process core: subscription registry + pluggable
//!   [matching engine](smc_match::Matcher) + dispatch to [`EventSink`]s;
//! * [`Proxy`]/[`DeviceCodec`]/[`ProxyFactory`] — per-member proxies that
//!   mask device heterogeneity and implement durable queueing, created by
//!   the bootstrap mechanism on `New Member` events;
//! * [`QuenchManager`] — Elvin-style publisher quenching (a future-work
//!   item of the paper, implemented here);
//! * [`TypedBus`] — type-based publish/subscribe over the content bus
//!   (the other future-work item);
//! * [`SmcCell`] — the full cell: bus + discovery + policy + proxies;
//! * [`RemoteClient`]/[`RawDevice`] — the device-side libraries.
//!
//! # Quick start
//!
//! ```
//! use std::sync::Arc;
//! use std::time::Duration;
//! use smc_core::{RemoteClient, SmcCell, SmcConfig};
//! use smc_discovery::AgentConfig;
//! use smc_transport::{LinkConfig, ReliableChannel, ReliableConfig, SimNetwork};
//! use smc_types::{Event, Filter, ServiceId, ServiceInfo};
//!
//! // A simulated radio environment and a cell.
//! let net = SimNetwork::new(LinkConfig::ideal());
//! let cell = SmcCell::start(
//!     Arc::new(net.endpoint()),
//!     Arc::new(net.endpoint()),
//!     SmcConfig::fast(),
//! );
//!
//! // Two devices join and exchange an event through the bus.
//! let connect = |device_type: &str| {
//!     RemoteClient::connect(
//!         ServiceInfo::new(ServiceId::NIL, device_type),
//!         ReliableChannel::new(Arc::new(net.endpoint()), ReliableConfig::default()),
//!         AgentConfig::default(),
//!         Duration::from_secs(5),
//!     )
//! };
//! let sensor = connect("sensor.heart-rate")?;
//! let monitor = connect("monitor.station")?;
//! monitor.subscribe(Filter::for_type("smc.sensor.reading"), Duration::from_secs(5))?;
//! sensor.publish(
//!     Event::builder("smc.sensor.reading").attr("bpm", 72i64).build(),
//!     Duration::from_secs(5),
//! )?;
//! let got = monitor.next_event(Duration::from_secs(5))?;
//! assert_eq!(got.attr("bpm").and_then(|v| v.as_int()), Some(72));
//! # cell.shutdown();
//! # Ok::<(), smc_types::Error>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bootstrap;
pub mod bus;
pub mod client;
pub mod composition;
pub mod federation;
pub mod metrics;
pub mod proxy;
pub mod quench;
pub mod smc;
pub mod store;
pub mod typed;

pub use bootstrap::{CodecBuilder, ProxyFactory};
pub use bus::{ChannelSink, DeliveryFrame, EventBus, EventSink};
pub use client::{CommandRequest, RawDevice, RemoteClient};
pub use composition::{
    child_cell_of, composition_path, CompositionLink, CompositionStats, CHILD_CELL_ATTR,
};
pub use federation::{federation_path, FederationLink, FederationStats, FEDERATION_PATH_ATTR};
pub use metrics::{
    register_bus_metrics, BusMetrics, LatencyRecorder, LatencySummary, MetricsSnapshot,
};
pub use proxy::{DeviceCodec, PassthroughCodec, Proxy, ProxyStats};
pub use quench::{QuenchChange, QuenchManager};
pub use smc::{ReconcileReport, SmcCell, SmcConfig};
pub use store::{shared_store, AttributeSummary, EventStore};
pub use typed::{EventMessage, TypedBus};
