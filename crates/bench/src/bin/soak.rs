//! The soak driver: every seeded soak and wall-clock overhead gate of
//! the autonomic loop, run as `seeds × run → verdicts → artifact → gate`.
//!
//! ```text
//! cargo run --release -p smc-bench --bin soak -- <soak> [--seeds N] [--secs S] …
//! ```
//!
//! Soaks and their flags (defaults): `chaos` (`--seeds 24 --nodes 3
//! --secs 10 --ops 10`), `health` (`--seeds 16 --secs 8`), `supervision`
//! (`--seeds 24 --secs 20 --ops 5`), `peer` (`--seeds 24 --secs 24
//! --ops 3`), `telemetry` (`--seeds 24 --secs 12`), `trace` and `probe`
//! (`--seeds 6 --nodes 3 --secs 8 --reps 5`). Each writes its
//! `results/BENCH_*.json` artifact (the working directory when there is
//! no `results/`), prints `GATE FAILED: …` for every failed gate and
//! exits 1 if any failed; EXPERIMENTS.md lists the gates. `health`,
//! `supervision` and `peer` end with one run that must leave a
//! flight-recorder dump; `telemetry` leaves its first stitched journey
//! in `telemetry_journey_sample.txt`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use smc_bench::json::Json;
use smc_bench::{obj, results_dir, HarnessArgs};
use smc_harness::{
    run, run_with_options, CellReport, ChaosOp, CoreComponent, HealthOptions, LinkProfileKind,
    PeerConfig, RunOptions, Scenario, ScriptedOp, SupervisionOptions,
};
use smc_health::HealthState;
use smc_telemetry::critical::percentile;

/// A gate: whether it held, and what to print when it did not.
type Gate = (bool, String);

/// One arm of an A/B overhead soak: its artifact key and run options.
type Arm = (&'static str, fn() -> RunOptions);

/// What one soak hands the driver: its artifact and its gates.
struct Report {
    file: &'static str,
    artifact: Json,
    gates: Vec<Gate>,
}

fn main() {
    let args = HarnessArgs::from_env();
    let report = match std::env::args().nth(1).as_deref() {
        Some("chaos") => chaos(&args),
        Some("health") => health(&args),
        Some("supervision") => supervision(&args),
        Some("peer") => peer(&args),
        Some("telemetry") => telemetry(&args),
        Some("trace") => trace(&args),
        Some("probe") => probe(&args),
        _ => {
            eprintln!(
                "usage: soak <chaos|health|supervision|peer|telemetry|trace|probe> \
                 [--seeds N] [--secs S] [--nodes N] [--ops N] [--reps N]"
            );
            std::process::exit(2);
        }
    };
    let target = results_dir().join(report.file);
    report
        .artifact
        .write(&target)
        .unwrap_or_else(|e| panic!("write {}: {e}", target.display()));
    eprintln!("wrote {}", target.display());
    let failed: Vec<_> = report.gates.iter().filter(|(held, _)| !held).collect();
    for (_, message) in &failed {
        eprintln!("GATE FAILED: {message}");
    }
    if !failed.is_empty() {
        std::process::exit(1);
    }
}

/// One row per seed from `first`, each logged as it lands.
fn per_seed(first: u64, seeds: u64, mut run: impl FnMut(u64) -> Json) -> Vec<Json> {
    (first..first + seeds)
        .map(|seed| {
            let row = run(seed);
            eprintln!("{row}");
            row
        })
        .collect()
}

/// The integer field `key` of every row.
fn column<'a>(rows: &'a [Json], key: &'a str) -> impl Iterator<Item = u64> + 'a {
    rows.iter().filter_map(move |row| row.get(key)?.as_u64())
}

fn sum(rows: &[Json], key: &str) -> u64 {
    column(rows, key).sum()
}

/// The rows' integer fields `keys`, each summed.
fn totals(rows: &[Json], keys: &[&'static str]) -> Json {
    Json::obj(keys.iter().map(|&k| (k, sum(rows, k).into())))
}

/// How many rows have `value` at `key`.
fn count(rows: &[Json], key: &str, value: impl Into<Json>) -> u64 {
    let value = value.into();
    rows.iter()
        .filter(|row| row.get(key) == Some(&value))
        .count() as u64
}

/// The oracle verdict gate.
fn clean(violations: u64) -> Gate {
    (violations == 0, format!("{violations} oracle violations"))
}

fn supervised() -> RunOptions {
    RunOptions {
        supervision: Some(SupervisionOptions::default()),
        ..RunOptions::default()
    }
}

fn two_cells() -> RunOptions {
    RunOptions {
        peer: Some(PeerConfig::default()),
        ..supervised()
    }
}

fn untraced() -> RunOptions {
    RunOptions {
        trace: false,
        ..RunOptions::default()
    }
}

fn probed() -> RunOptions {
    RunOptions {
        probes: true,
        ..RunOptions::default()
    }
}

/// `trace`'s arms: hop recording off, then on (the default).
const TRACE_ARMS: [Arm; 2] = [
    ("untraced_wall_micros", untraced),
    ("traced_wall_micros", RunOptions::default),
];

/// `probe`'s arms: a traced run (the default), then one with probes.
const PROBE_ARMS: [Arm; 2] = [
    ("unprobed_wall_micros", RunOptions::default),
    ("probed_wall_micros", probed),
];

/// One more run of `scenario` with the flight recorder dumping to
/// `file`: the black box CI ships next to the numbers. The gate fails
/// when the run wrote no dump.
fn dump_run(scenario: &Scenario, options: RunOptions, file: &str) -> Gate {
    let path = results_dir().join(file);
    let health = Some(HealthOptions {
        dump_path: Some(path.clone()),
        ..HealthOptions::default()
    });
    let report = run_with_options(scenario, RunOptions { health, ..options });
    let health = report.cells[0].health.as_ref();
    let written = health.is_some_and(|h| h.dumped_to.is_some());
    let path = path.display();
    eprintln!("flight recorder dump: {path} (written: {written})");
    (
        written,
        format!("no flight recorder dump written to {path}"),
    )
}

fn at(at: Duration, op: ChaosOp) -> ScriptedOp {
    ScriptedOp { at, op }
}

/// `chaos`: randomized fault schedules, core crashes included.
fn chaos(args: &HarnessArgs) -> Report {
    let seeds: u64 = args.get("seeds", 24);
    let nodes: usize = args.get("nodes", 3);
    let secs = Duration::from_secs(args.get("secs", 10));
    let ops: usize = args.get("ops", 10);
    let mut last = None;
    let rows = per_seed(9_000, seeds, |seed| {
        let report = run(&Scenario::random(seed, nodes, secs, ops));
        let verdict = match report.oracle.violation() {
            None => "clean",
            Some(_) => "VIOLATION",
        };
        let row = obj! {
            "seed": seed,
            "published": report.total_published(),
            "delivered": report.total_delivered(),
            "retransmits": report.retransmits,
            "core_recoveries": report.core_recoveries,
            "recovery_micros_total": report.recovery_micros_total,
            "verdict": verdict,
        };
        last = Some(report);
        row
    });
    // What a scrape of the last seed's run would have returned.
    if let Some(report) = &last {
        eprintln!("# --- final run metrics (exposition format) ---");
        eprint!("{}", report.registry.render_text());
        eprintln!("# --- end metrics ---");
    }
    let violations = count(&rows, "verdict", "VIOLATION");
    Report {
        file: "BENCH_chaos.json",
        artifact: obj! {
            "bench": "chaos_soak",
            "config": obj! { "seeds": seeds, "nodes": nodes, "virtual_secs": secs.as_secs(), "ops": ops },
            "violations": violations,
            "core_recoveries": sum(&rows, "core_recoveries"),
            "runs": rows,
        },
        gates: vec![clean(violations)],
    }
}

/// When the health soak's storm (and its dump run's crash) begins.
const STORM_AT_MICROS: u64 = 2_000_000;

/// `health`: every seed runs with a retransmit storm on device0 (the
/// detector must fire) and clean (it must not).
fn health(args: &HarnessArgs) -> Report {
    let seeds: u64 = args.get("seeds", 16);
    let secs: u64 = args.get("secs", 8);
    let base = |seed, op| {
        let mut s = Scenario::quiet(seed, 2, Duration::from_secs(secs));
        s.publish_interval = Duration::from_millis(50);
        s.ops.extend(op);
        s
    };
    let storm_at = Duration::from_micros(STORM_AT_MICROS);
    let monitored = || RunOptions {
        health: Some(HealthOptions::default()),
        ..RunOptions::default()
    };
    // Detection latencies (µs after storm onset) per detector, pooled
    // across seeds: the storm may legitimately fire several detectors
    // (retransmit-storm on the channel, queue-growth on its backlog).
    let mut latencies: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    let rows = per_seed(11_000, seeds, |seed| {
        let storm = ChaosOp::LossBurst {
            node: 0,
            loss: 0.97,
            duration: Duration::from_millis(2500),
        };
        let report = run_with_options(&base(seed, Some(at(storm_at, storm))), monitored());
        let health = report.cells[0].health.as_ref().expect("health enabled");
        for t in &health.transitions {
            if t.to == HealthState::Degraded && t.at_micros >= STORM_AT_MICROS {
                let lat = latencies.entry(t.detector).or_default();
                lat.push(t.at_micros - STORM_AT_MICROS);
            }
        }
        let detect_micros = health
            .first_transition("channel:device0", HealthState::Degraded)
            .map(|t| t.at_micros - STORM_AT_MICROS);
        let quenched = health
            .quenches
            .iter()
            .any(|&(_, id, enable)| id == report.device_ids[0] && enable);
        let clean = run_with_options(&base(seed, None), monitored());
        let clean = clean.cells[0].health.as_ref().expect("health enabled");
        obj! {
            "seed": seed,
            "detect_micros": detect_micros,
            "quenched": quenched,
            "clean_transitions": clean.transitions.len(),
        }
    });
    let detectors = latencies.iter_mut().map(|(&detector, lat)| {
        lat.sort_unstable();
        let (p50, p95) = (percentile(lat, 500), percentile(lat, 950));
        let stats = obj! { "fired": lat.len(), "detect_p50_micros": p50, "detect_p95_micros": p95 };
        (detector, stats)
    });
    let detectors = Json::obj(detectors);
    let missed = count(&rows, "detect_micros", Json::Null);
    let false_positives = sum(&rows, "clean_transitions");
    let down_for = Duration::from_secs(1);
    let crash = base(11_000, Some(at(storm_at, ChaosOp::CoreCrash { down_for })));
    Report {
        file: "BENCH_health.json",
        artifact: obj! {
            "bench": "health_soak",
            "config": obj! { "seeds": seeds, "virtual_secs": secs, "storm_at_micros": STORM_AT_MICROS },
            "missed_detections": missed,
            "false_positives": false_positives,
            "detectors": detectors,
            "runs": rows,
        },
        gates: vec![
            (missed == 0, format!("{missed} storms not detected")),
            (
                false_positives == 0,
                format!("{false_positives} transitions on clean runs"),
            ),
            dump_run(&crash, RunOptions::default(), "flight_recorder.txt"),
        ],
    }
}

/// `supervision`: seeded kill-and-corrupt schedules; every failure
/// episode must re-converge, with no delivery-guarantee violation.
fn supervision(args: &HarnessArgs) -> Report {
    let seeds: u64 = args.get("seeds", 24);
    let secs: u64 = args.get("secs", 20);
    let ops: usize = args.get("ops", 5);
    let scenario = |seed| Scenario::random_supervision(seed, 3, Duration::from_secs(secs), ops);
    let mut all_ttr: Vec<u64> = Vec::new();
    let rows = per_seed(9_000, seeds, |seed| {
        let report = run_with_options(&scenario(seed), supervised());
        let cell = &report.cells[0];
        let sup = cell.supervision.as_ref().expect("supervision enabled");
        all_ttr.extend(&sup.ttr_micros);
        obj! {
            "seed": seed,
            "restarts": sup.restarts,
            "escalations": sup.escalations,
            "reconcile_repairs": sup.reconcile_repairs,
            "policy_restarts": cell.policy_restarts,
            "core_reboots": report.core_recoveries,
            "missed_ack_interrupts": cell.missed_ack_interrupts,
            "ttr_micros": sup.ttr_micros.iter().map(|&t| t.into()).collect::<Vec<Json>>(),
            "converged": cell.converged(),
            "violation": report.oracle.violation().is_some(),
        }
    });
    all_ttr.sort_unstable();
    let mean_ttr = all_ttr.iter().sum::<u64>() / (all_ttr.len() as u64).max(1);
    let violations = count(&rows, "violation", true);
    let unconverged = count(&rows, "converged", false);
    // A kill-and-corrupt schedule with a core crash on top.
    let mut crash = scenario(9_999);
    let down_for = Duration::from_secs(1);
    crash
        .ops
        .push(at(Duration::from_secs(2), ChaosOp::CoreCrash { down_for }));
    Report {
        file: "BENCH_supervision.json",
        artifact: obj! {
            "bench": "supervision_soak",
            "config": obj! { "seeds": seeds, "virtual_secs": secs, "ops_per_seed": ops, "nodes": 3u64 },
            "violations": violations,
            "unconverged": unconverged,
            "totals": totals(&rows, &[
                "restarts", "escalations", "reconcile_repairs", "policy_restarts",
                "core_reboots", "missed_ack_interrupts",
            ]),
            "ttr": obj! {
                "episodes": all_ttr.len(),
                "mean_micros": mean_ttr,
                "p50_micros": percentile(&all_ttr, 500),
                "p95_micros": percentile(&all_ttr, 950),
            },
            "runs": rows,
        },
        gates: vec![
            clean(violations),
            (unconverged == 0, format!("{unconverged} seeds unconverged")),
            // The missed-ack interrupt hook keeps detection ahead of the
            // sampling cadence: a mean time-to-repair of a virtual second
            // or more means it stopped waking the monitor and repairs
            // fell back to polling.
            (
                all_ttr.is_empty() || mean_ttr < 1_000_000,
                format!("mean TTR {mean_ttr}µs breached the 1s budget"),
            ),
            dump_run(
                &crash.sorted(),
                supervised(),
                "flight_recorder_supervision.txt",
            ),
        ],
    }
}

/// `peer`: two sibling cells, each leasing the other's supervisor,
/// under schedules that kill components and supervisors, partition
/// cells and corrupt state; both cells must end healthy and unadopted.
fn peer(args: &HarnessArgs) -> Report {
    let seeds: u64 = args.get("seeds", 24);
    let secs: u64 = args.get("secs", 24);
    let ops: usize = args.get("ops", 3);
    let rows = per_seed(9_500, seeds, |seed| {
        let scenario = Scenario::random_peer(seed, 3, Duration::from_secs(secs), ops);
        let report = run_with_options(&scenario, two_cells());
        let sum = |f: fn(&CellReport) -> u64| report.cells.iter().map(f).sum::<u64>();
        obj! {
            "seed": seed,
            "adoptions": sum(|c| c.peer.adoptions),
            "releases": sum(|c| c.peer.releases),
            "claims_lost": sum(|c| c.peer.claims_lost),
            "stepdowns": sum(|c| c.peer.stepdowns),
            "supervisor_revivals": sum(|c| c.supervisor_revivals),
            "remote_commands": sum(|c| c.remote_commands.len() as u64),
            "remote_repairs": sum(|c| c.remote_repairs.len() as u64),
            "core_reboots": sum(|c| c.core_recoveries),
            "reconciles": sum(|c| c.reconciles),
            "checkpoints_deferred": sum(|c| c.checkpoints_deferred),
            "converged": report.converged(),
            "violation": report.oracle.violation().is_some(),
        }
    });
    let violations = count(&rows, "violation", true);
    let unconverged = count(&rows, "converged", false);
    // A wedged sink exhausts its restart budget and the supervisor
    // escalates: the dump is the black box of a worst-case repair.
    let mut wedge = Scenario::quiet(9_499, 2, Duration::from_secs(14));
    let component = CoreComponent::Sink;
    let kill = ChaosOp::KillComponent {
        component,
        wedged: true,
    };
    wedge.ops.push(at(Duration::from_secs(4), kill));
    Report {
        file: "BENCH_peer_supervision.json",
        artifact: obj! {
            "bench": "peer_supervision_soak",
            "config": obj! {
                "seeds": seeds, "virtual_secs": secs, "ops_per_seed": ops,
                "nodes_per_cell": 3u64, "cells": 2u64,
            },
            "violations": violations,
            "unconverged": unconverged,
            "totals": totals(&rows, &[
                "adoptions", "releases", "claims_lost", "stepdowns", "supervisor_revivals",
                "remote_commands", "remote_repairs", "core_reboots", "reconciles",
                "checkpoints_deferred",
            ]),
            "runs": rows,
        },
        gates: vec![
            clean(violations),
            (unconverged == 0, format!("{unconverged} seeds unconverged")),
            dump_run(
                &wedge.sorted(),
                supervised(),
                "flight_recorder_escalation.txt",
            ),
        ],
    }
}

/// The five legs every telemetry-plane supervision episode must stitch.
const JOURNEY: [&str; 5] = [
    "lease-lapse",
    "claim",
    "adopt",
    "wire-repair",
    "remote-restart",
];

/// The telemetry plane's wall-clock budget over the same run without it.
const TELEMETRY_MAX_RATIO: f64 = 1.10;

/// `telemetry`: each seed's supervisor-death-plus-partition schedule
/// runs on two cells without the telemetry plane and with it. The plane
/// must be an observer: cheap, monotone (no ward counter moves
/// backwards) and complete (every episode stitches all five legs,
/// every export folds exactly once).
fn telemetry(args: &HarnessArgs) -> Report {
    let seeds: u64 = args.get("seeds", 24);
    let secs: u64 = args.get("secs", 12);
    let mut journey_sample = String::new();
    let rows = per_seed(11_000, seeds, |seed| {
        let mut scenario = Scenario::quiet(seed, 2, Duration::from_secs(secs));
        let (cell, duration) = (0, Duration::from_secs(2));
        scenario.ops.extend([
            at(Duration::from_secs(1), ChaosOp::KillSupervisor { cell }),
            at(
                Duration::from_millis(1_200),
                ChaosOp::PartitionCell { cell, duration },
            ),
        ]);
        let scenario = scenario.sorted();
        let wall = |options: RunOptions| {
            let started = Instant::now();
            let report = run_with_options(&scenario, options);
            (report, started.elapsed().as_micros() as u64)
        };
        let (baseline, baseline_micros) = wall(two_cells());
        let telemetry = Some(Default::default());
        let (report, plane_micros) = wall(RunOptions {
            telemetry,
            ..two_cells()
        });
        let violation = baseline.oracle.violation().is_some()
            || report.oracle.violation().is_some()
            || !report.converged()
            || !report.all_delivered();
        let tel = report.telemetry.as_ref().expect("telemetry plane was on");
        let complete = tel
            .episodes
            .iter()
            .filter(|&&(_, trace)| tel.journey_complete(trace, &JOURNEY))
            .count();
        if let (true, Some(&(target, trace))) = (journey_sample.is_empty(), tel.episodes.first()) {
            if let Some(journey) = tel.ward.stitched(trace) {
                let _ = writeln!(
                    journey_sample,
                    "seed {seed}: supervision episode over cell member {target}\n{journey}"
                );
            }
        }
        obj! {
            "seed": seed,
            "baseline_micros": baseline_micros,
            "plane_micros": plane_micros,
            "exports_sent": tel.exports_sent,
            "exports_applied": tel.exports_applied,
            "duplicates": tel.duplicates,
            "backwards": tel.backwards,
            "lag_p50_micros": tel.lag_p50_micros,
            "lag_p95_micros": tel.lag_p95_micros,
            "episodes": tel.episodes.len(),
            "complete": complete,
            "slo_alerts": tel.slo_alerts,
            "violation": violation,
        }
    });
    let sample = results_dir().join("telemetry_journey_sample.txt");
    std::fs::write(&sample, &journey_sample)
        .unwrap_or_else(|e| panic!("write {}: {e}", sample.display()));

    // Every seed runs the same schedule shape, so the fastest run of
    // each variant is the least-noise estimate of its true cost:
    // scheduler hiccups only ever inflate wall time, never deflate it.
    let baseline_best = column(&rows, "baseline_micros").min().unwrap_or(1).max(1);
    let plane_best = column(&rows, "plane_micros").min().unwrap_or(0);
    let overhead = plane_best as f64 / baseline_best as f64;
    let (episodes, complete) = (sum(&rows, "episodes"), sum(&rows, "complete"));
    let completeness = complete as f64 / (episodes as f64).max(1.0);
    let (sent, applied) = (sum(&rows, "exports_sent"), sum(&rows, "exports_applied"));
    let unfolded = sent.abs_diff(applied);
    let duplicates = sum(&rows, "duplicates");
    let backwards = sum(&rows, "backwards");
    let violations = count(&rows, "violation", true);
    Report {
        file: "BENCH_telemetry_plane.json",
        artifact: obj! {
            "bench": "telemetry_plane_soak",
            "config": obj! {
                "seeds": seeds, "virtual_secs": secs, "nodes_per_cell": 2u64, "cells": 2u64,
                "export_interval_micros": 400_000u64,
            },
            "overhead_ratio": Json::fixed(overhead, 4),
            "wall_micros": obj! {
                "baseline_total": sum(&rows, "baseline_micros").max(1),
                "with_plane_total": sum(&rows, "plane_micros"),
                "baseline_best": baseline_best,
                "with_plane_best": plane_best,
            },
            "exports": obj! { "sent": sent, "applied": applied, "duplicates": duplicates, "unfolded": unfolded },
            "backwards_counters": backwards,
            "journeys": obj! {
                "episodes": episodes, "complete": complete, "completeness": Json::fixed(completeness, 4),
            },
            "lag_micros": obj! {
                "p50_max": column(&rows, "lag_p50_micros").max().unwrap_or(0),
                "p95_max": column(&rows, "lag_p95_micros").max().unwrap_or(0),
            },
            "slo_alerts": sum(&rows, "slo_alerts"),
            "violations": violations,
            "runs": rows,
        },
        gates: vec![
            (
                overhead <= TELEMETRY_MAX_RATIO,
                format!("overhead {overhead:.3}x > {TELEMETRY_MAX_RATIO}x"),
            ),
            (
                backwards == 0,
                format!("{backwards} ward counters moved backwards"),
            ),
            (
                episodes > 0 && complete == episodes,
                format!("{complete}/{episodes} journeys complete"),
            ),
            (
                unfolded == 0 && duplicates == 0,
                format!("exports lost or replayed ({unfolded} unfolded, {duplicates} duplicates)"),
            ),
            clean(violations),
        ],
    }
}

/// `trace`: what recording hops costs in wall-clock time, plus per-hop
/// leg latencies (virtual µs) mined from every message's journey.
fn trace(args: &HarnessArgs) -> Report {
    let bench = ("trace_overhead", "BENCH_observability.json");
    overhead(args, bench, TRACE_ARMS, 1.15, |scenarios| {
        // Each journey leg's delta (virtual µs since the previous hop)
        // is bucketed under the hop it arrives at.
        let mut legs: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        let mut journeys = 0u64;
        for s in scenarios {
            let report = run_with_options(s, RunOptions::default());
            for &dev in &report.device_ids {
                for seq in 1..=report.oracle.published(dev) {
                    let Some(journey) = report.journey(dev, seq).filter(|j| !j.is_empty()) else {
                        continue;
                    };
                    journeys += 1;
                    for (hop, _at, delta) in journey.legs().iter().skip(1) {
                        legs.entry(hop.name()).or_default().push(*delta);
                    }
                }
            }
        }
        let hops = legs.iter_mut().map(|(&hop, deltas)| {
            deltas.sort_unstable();
            obj! {
                "hop": hop,
                "count": deltas.len(),
                "p50_micros": percentile(deltas, 500),
                "p95_micros": percentile(deltas, 950),
                "p99_micros": percentile(deltas, 990),
            }
        });
        vec![
            ("journeys", journeys.into()),
            ("hops", hops.collect::<Vec<_>>().into()),
        ]
    })
}

/// `probe`: what the occupancy probes (control-mutex hold times, proxy
/// queue depths, WAL append wait/service splits, snapshot writer-wait
/// spins) cost on top of an already-traced run, plus the series one
/// probed run records.
fn probe(args: &HarnessArgs) -> Report {
    let bench = ("probe_overhead", "BENCH_probe_overhead.json");
    overhead(args, bench, PROBE_ARMS, 1.10, |scenarios| {
        let report = run_with_options(&scenarios[0], probed());
        report.assert_clean();
        let series = report.registry.gather().into_iter().filter(|s| {
            s.name.starts_with("smc_probe_")
                || s.name.contains("writer_wait")
                || s.name.starts_with("smc_trace_tail_")
        });
        let series = series.map(|s| obj! { "name": s.name, "value": s.value });
        vec![("probe_series", series.collect::<Vec<_>>().into())]
    })
}

/// The A/B wall-clock harness `trace` and `probe` share. The same
/// USB/IP-profiled quiet scenarios run under both `arms`' options, each
/// warmed up once, then interleaved `--reps` times; each arm keeps its
/// fastest repetition, the least-disturbed estimate of its cost.
/// Virtual-time determinism means both arms do identical protocol
/// work, so the ratio isolates what the second arm adds; it must not
/// exceed `max_ratio`. `extra` mines the scenarios for the rest of the
/// artifact; `(name, file)` are its `bench` field and file name.
fn overhead(
    args: &HarnessArgs,
    (name, file): (&'static str, &'static str),
    arms: [Arm; 2],
    max_ratio: f64,
    extra: impl FnOnce(&[Scenario]) -> Vec<(&'static str, Json)>,
) -> Report {
    let seeds: u64 = args.get("seeds", 6);
    let nodes: usize = args.get("nodes", 3);
    let secs: u64 = args.get("secs", 8);
    let reps: usize = args.get("reps", 5);
    assert!(
        seeds > 0 && reps > 0,
        "--seeds and --reps must be at least 1"
    );
    let profile = LinkProfileKind::UsbIp;
    let scenarios: Vec<Scenario> = (0..seeds)
        .map(|i| {
            let mut s = Scenario::quiet(0x0B5E + i, nodes, Duration::from_secs(secs));
            let usb_ip = (0..nodes).map(|node| ChaosOp::LinkProfile { node, profile });
            s.ops.extend(usb_ip.map(|op| at(Duration::ZERO, op)));
            s.sorted()
        })
        .collect();
    let wall = |options: fn() -> RunOptions, scenarios: &[Scenario]| {
        let started = Instant::now();
        for s in scenarios {
            run_with_options(s, options()).assert_clean();
        }
        started.elapsed().as_micros() as u64
    };
    for (_, options) in arms {
        wall(options, &scenarios[..1]);
    }
    let mut best = [u64::MAX; 2];
    for _ in 0..reps {
        for (b, (_, options)) in best.iter_mut().zip(arms) {
            *b = (*b).min(wall(options, &scenarios));
        }
    }
    let ratio = best[1] as f64 / best[0].max(1) as f64;
    let [(off, _), (on, _)] = arms;
    eprintln!("{off} {}, {on} {}, ratio {ratio:.3}", best[0], best[1]);
    let config = obj! {
        "seeds": seeds, "nodes": nodes, "virtual_secs": secs, "reps": reps, "link": "usb-ip",
    };
    let mut fields = vec![
        ("bench", name.into()),
        ("config", config),
        (off, best[0].into()),
        (on, best[1].into()),
        ("overhead_ratio", Json::fixed(ratio, 4)),
        ("max_ratio", max_ratio.into()),
    ];
    fields.extend(extra(&scenarios));
    Report {
        file,
        artifact: Json::obj(fields),
        gates: vec![(
            ratio <= max_ratio,
            format!("{on} / {off} = {ratio:.3}x exceeds the {max_ratio}x budget"),
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each A/B soak's second arm turns on exactly what it measures.
    #[test]
    fn overhead_arms_differ_in_what_they_measure() {
        let [(_, off), (_, on)] = TRACE_ARMS.map(|(name, options)| (name, options()));
        assert!(!off.trace && on.trace, "trace arms must differ in `trace`");
        assert_eq!((off.probes, on.probes), (false, false));
        let [(_, off), (_, on)] = PROBE_ARMS.map(|(name, options)| (name, options()));
        assert!(off.trace && on.trace, "probes require tracing in both arms");
        assert!(
            !off.probes && on.probes,
            "probe arms must differ in `probes`"
        );
    }

    /// `totals` has one entry per key asked for, whatever the rows hold.
    #[test]
    fn totals_keep_their_shape() {
        let rows = [
            obj! { "a": Json::Null, "b": 2u64 },
            obj! { "a": 3u64, "b": 4u64 },
        ];
        assert_eq!(totals(&rows, &["a", "b"]), obj! { "a": 3u64, "b": 6u64 });
        assert_eq!(totals(&[], &["a"]), obj! { "a": 0u64 });
    }
}
