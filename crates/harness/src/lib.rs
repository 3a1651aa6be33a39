//! Deterministic virtual-time chaos harness for the AMUSE event service.
//!
//! The paper's e-health scenarios — nurses walking out of radio range,
//! body-sensor networks rejoining a ward cell, lossy personal-area links
//! — are timing bugs waiting to happen, and wall-clock integration tests
//! can neither reproduce them nor explore them quickly. This crate runs
//! the whole stack (simulated radio network, reliable channels,
//! discovery service, member agents) against a [`smc_types::ManualClock`]
//! instead of real time:
//!
//! * **virtual time** — a 30-second scenario steps through in
//!   milliseconds, and nothing in the run reads `Instant::now()`, so the
//!   schedule is bit-identical for a given seed;
//! * **scenario scripts** — [`Scenario`] describes seeded fault
//!   schedules (loss bursts, partitions, duplicate storms, crash/restart,
//!   broadcast-domain moves, link-profile changes, whole-core crashes) at
//!   scripted virtual times;
//! * **delivery oracle** — [`DeliveryOracle`] records every publish,
//!   delivery and membership transition and checks the paper's §II-C
//!   guarantees (exactly-once, per-sender FIFO, no delivery after purge),
//!   reporting the seed and event trace when one breaks.
//! * **one world** — [`run_with_options`] steps one cell, or two sibling
//!   cells watching each other's supervisor when [`RunOptions::peer`] is
//!   set, through a single run loop; health monitoring, supervision and
//!   the telemetry plane are per-run options, and [`RunReport::cells`]
//!   carries one [`CellReport`] per cell.
//!
//! ```
//! use std::time::Duration;
//! use smc_harness::{run, Scenario};
//!
//! let scenario = Scenario::random(7, 3, Duration::from_secs(4), 4);
//! let report = run(&scenario);
//! report.assert_clean(); // panics with seed + trace on a violation
//! ```

#![warn(missing_docs)]

mod oracle;
mod plane;
mod scenario;
mod world;

pub use oracle::{DeliveryOracle, OracleViolation, TraceEvent, ViolationKind};
pub use plane::{TelemetryPlaneOptions, TelemetryPlaneReport};
pub use scenario::{
    shrink_scenario, ChaosOp, CoreComponent, CorruptTarget, LinkProfileKind, Scenario, ScriptedOp,
};
pub use smc_health::PeerConfig;
pub use world::{
    default_discovery, default_reliable, run, run_with_options, CellReport, HealthOptions,
    HealthOutcome, RunOptions, RunReport, SupervisionOptions,
};
