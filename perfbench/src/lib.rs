//! End-to-end benchmark of the AMUSE self-managed cell.
//!
//! A real `SmcCell` serves one publishing device client and one
//! subscribing client over UDP loopback or the in-memory `SimNetwork`.
//! Each workload reports wall-clock end-to-end metrics from an untraced
//! run, and per-layer metrics from a separate traced run that measures
//! each layer from outside: decorators around the transports, WAL
//! backend and sinks the cell is built from, counter deltas, and an
//! isolation replay of the workload's inputs through each layer's API.
//!
//! Run it with `cargo run --release --manifest-path perfbench/Cargo.toml
//! -- --workload <name> --seed <n> --seconds <s> --trace <0|1>`.

pub mod cell;
pub mod check;
pub mod drive;
pub mod gen;
pub mod layers;
pub mod replay;
pub mod run;
pub mod spans;
pub mod stats;
