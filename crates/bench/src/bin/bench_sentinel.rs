//! Perf regression sentinel: diffs two `BENCH_perf.json` artifacts and
//! *attributes* any throughput delta to the pipeline stage whose share
//! shifted, instead of just reporting a ratio.
//!
//! ```text
//! cargo run --release -p smc-bench --bin bench_sentinel -- \
//!     [--baseline results/BENCH_perf.json] [--candidate <path>] \
//!     [--out results/BENCH_attribution.json]
//! ```
//!
//! For every sweep cell present in both artifacts the sentinel compares
//! speedups; a cell regressing below [`GATE_FRACTION`] of its baseline
//! must come with an *explanation* — a per-stage share shift of at
//! least [`MIN_SHIFT_MILLI`] ‰ naming where the time went. A regression
//! nobody can attribute is the failure mode this bin exists to catch:
//! it exits non-zero.
//!
//! Per-cell gating only bites when both artifacts ran at the same
//! `events_per_publisher` scale: a smoke sweep diffed against a full
//! baseline has wildly noisy per-cell speedups (the overall geomean is
//! the stable signal), so on a scale mismatch unattributed cells are
//! reported as advisory and only the overall ratio gates.
//!
//! The sentinel also distils the fan-out-1 story the throughput bench
//! only tracks as a ratio: the per-stage breakdown of the candidate's
//! fan-out-1 cells, naming the dominant stage behind the snapshot
//! path's single-subscriber gap. Writes `results/BENCH_attribution.json`.

use smc_bench::json::Json;
use smc_bench::{obj, HarnessArgs};

/// A cell regressing below this fraction of its baseline speedup needs
/// a stage attribution (mirrors the throughput bench's gate).
const GATE_FRACTION: f64 = 0.85;

/// The smallest per-stage share shift (‰ of the cell's window) that
/// counts as an attribution.
const MIN_SHIFT_MILLI: i64 = 30;

/// One stage row parsed back out of a `"stages"` array.
#[derive(Debug, Clone)]
struct Stage {
    stage: String,
    kind: String,
    share_milli: i64,
    p95_micros: u64,
}

/// One sweep cell parsed back out of a `"results"` array.
#[derive(Debug, Clone)]
struct Cell {
    publishers: u64,
    fanout: u64,
    speedup: f64,
    stages: Vec<Stage>,
}

/// A parsed `BENCH_perf.json`.
#[derive(Debug)]
struct Perf {
    cells: Vec<Cell>,
    speedup_total: f64,
    fanout1_ratio: f64,
    /// Sweep scale (`config.events_per_publisher`); 0 when absent.
    events_per_publisher: u64,
}

/// Reads a `BENCH_perf.json` artifact.
fn parse_perf(path: &str) -> Result<Perf, String> {
    let perf = Json::read(path)?;
    let speedup_total = perf
        .num("speedup_total")
        .ok_or_else(|| format!("'{path}' has no \"speedup_total\" — not a BENCH_perf artifact?"))?;
    let stage = |s: &Json| Stage {
        stage: s
            .get("stage")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_owned(),
        kind: s
            .get("kind")
            .and_then(Json::as_str)
            .unwrap_or("service")
            .to_owned(),
        share_milli: s.num("share_milli").unwrap_or(0.0) as i64,
        p95_micros: s.num("p95_micros").unwrap_or(0.0) as u64,
    };
    let cells: Vec<Cell> = perf
        .items("results")
        .iter()
        .filter_map(|row| {
            Some(Cell {
                publishers: row.num("publishers")? as u64,
                fanout: row.num("fanout")? as u64,
                speedup: row.num("speedup")?,
                stages: row.items("stages").iter().map(stage).collect(),
            })
        })
        .collect();
    if cells.is_empty() {
        return Err(format!("'{path}' has no sweep rows"));
    }
    let config = perf.get("config");
    Ok(Perf {
        cells,
        speedup_total,
        fanout1_ratio: perf.num("fanout1_ratio").unwrap_or(0.0),
        events_per_publisher: config
            .and_then(|c| c.num("events_per_publisher"))
            .unwrap_or(0.0) as u64,
    })
}

/// The per-stage share shift (candidate − baseline, ‰) with the largest
/// magnitude, across the union of both cells' stages.
fn max_shift(baseline: &Cell, candidate: &Cell) -> Option<(String, i64)> {
    let share = |cell: &Cell, name: &str| {
        cell.stages
            .iter()
            .find(|s| s.stage == name)
            .map_or(0, |s| s.share_milli)
    };
    let mut names: Vec<&str> = baseline
        .stages
        .iter()
        .chain(&candidate.stages)
        .map(|s| s.stage.as_str())
        .collect();
    names.sort_unstable();
    names.dedup();
    names
        .into_iter()
        .map(|n| (n.to_string(), share(candidate, n) - share(baseline, n)))
        .max_by_key(|(_, shift)| shift.abs())
}

fn main() {
    let args = HarnessArgs::from_env();
    let baseline_path: String = args.get("baseline", "results/BENCH_perf.json".to_string());
    let candidate_path: String = args.get("candidate", baseline_path.clone());
    let out_path: String = args.get("out", "results/BENCH_attribution.json".to_string());

    let baseline = match parse_perf(&baseline_path) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("FAIL: {e}");
            std::process::exit(1);
        }
    };
    let candidate = match parse_perf(&candidate_path) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("FAIL: {e}");
            std::process::exit(1);
        }
    };

    eprintln!("# bench sentinel: '{candidate_path}' vs baseline '{baseline_path}'");
    let like_for_like = baseline.events_per_publisher == candidate.events_per_publisher;
    if !like_for_like {
        eprintln!(
            "scale mismatch: baseline ran {} events/publisher, candidate {} — per-cell \
             speedups are not comparable, so unattributed cells are advisory and only \
             the overall ratio gates",
            baseline.events_per_publisher, candidate.events_per_publisher
        );
    }
    let total_ratio = candidate.speedup_total / baseline.speedup_total.max(1e-9);
    let total_regressed = total_ratio < GATE_FRACTION;
    eprintln!(
        "overall speedup: baseline {:.2}x  candidate {:.2}x  ratio {:.3}{}",
        baseline.speedup_total,
        candidate.speedup_total,
        total_ratio,
        if total_regressed { "  REGRESSED" } else { "" }
    );

    // Per-cell diff: every regressed cell must name the stage whose
    // share grew to eat the lost throughput.
    let mut cell_reports: Vec<Json> = Vec::new();
    let mut unattributed = 0u64;
    for cand in &candidate.cells {
        let Some(base) = baseline
            .cells
            .iter()
            .find(|b| b.publishers == cand.publishers && b.fanout == cand.fanout)
        else {
            continue;
        };
        let ratio = cand.speedup / base.speedup.max(1e-9);
        let regressed = ratio < GATE_FRACTION;
        let shift = max_shift(base, cand);
        let attributed = regressed
            && shift
                .as_ref()
                .map(|(_, s)| s.abs() >= MIN_SHIFT_MILLI)
                .unwrap_or(false);
        if regressed {
            match &shift {
                Some((stage, s)) if attributed => eprintln!(
                    "cell p={} f={}: ratio {ratio:.3} REGRESSED — attributed to stage \
                     '{stage}' (share shifted {s:+}‰)",
                    cand.publishers, cand.fanout
                ),
                _ => {
                    unattributed += 1;
                    eprintln!(
                        "cell p={} f={}: ratio {ratio:.3} REGRESSED — no stage share \
                         shifted ≥{MIN_SHIFT_MILLI}‰: UNATTRIBUTED",
                        cand.publishers, cand.fanout
                    );
                }
            }
        }
        let (shift_stage, shift_milli) = shift.unwrap_or_default();
        cell_reports.push(obj! {
            "publishers": cand.publishers,
            "fanout": cand.fanout,
            "baseline_speedup": Json::fixed(base.speedup, 3),
            "candidate_speedup": Json::fixed(cand.speedup, 3),
            "ratio": Json::fixed(ratio, 3),
            "regressed": regressed,
            "max_shift_stage": shift_stage,
            "max_shift_milli": shift_milli,
        });
    }

    // The fan-out-1 story: average each stage's share across the
    // candidate's fan-out-1 cells and name the dominant one — the
    // bottleneck behind the known single-subscriber gap.
    let f1: Vec<&Cell> = candidate.cells.iter().filter(|c| c.fanout == 1).collect();
    let mut f1_stages: Vec<(String, String, i64, u64)> = Vec::new();
    for cell in &f1 {
        for s in &cell.stages {
            match f1_stages.iter_mut().find(|(n, ..)| *n == s.stage) {
                Some(row) => {
                    row.2 += s.share_milli;
                    row.3 = row.3.max(s.p95_micros);
                }
                None => {
                    f1_stages.push((s.stage.clone(), s.kind.clone(), s.share_milli, s.p95_micros))
                }
            }
        }
    }
    for row in &mut f1_stages {
        row.2 /= f1.len().max(1) as i64;
    }
    f1_stages.sort_by_key(|row| std::cmp::Reverse(row.2));
    let bottleneck = f1_stages.first().cloned();
    if let Some((stage, kind, share, p95)) = &bottleneck {
        eprintln!(
            "fan-out-1 bottleneck: stage '{stage}' ({kind}) holds {share}‰ of the window \
             (p95 {p95} µs) — the per-publish cost one subscriber cannot amortise; the \
             tracked single-subscriber ratio is {:.2}x",
            candidate.fanout1_ratio
        );
    }

    let f1_rows = f1_stages.iter().map(|(stage, kind, share, p95)| {
        obj! { "stage": stage.as_str(), "kind": kind.as_str(), "mean_share_milli": *share, "p95_micros": *p95 }
    });
    let bottleneck = bottleneck.map(|(stage, kind, share, _)| {
        obj! {
            "stage": stage,
            "kind": kind,
            "mean_share_milli": share,
            "detail": "dominant fan-out-1 stage: a single subscriber cannot amortise the \
                       per-publish shared encode, which puts the snapshot path below the \
                       locked arm at fan-out 1",
        }
    });
    let artifact = obj! {
        "bench": "bench_sentinel",
        "baseline": baseline_path.as_str(),
        "candidate": candidate_path.as_str(),
        "gate_fraction": GATE_FRACTION,
        "min_shift_milli": MIN_SHIFT_MILLI,
        "events_per_publisher": obj! {
            "baseline": baseline.events_per_publisher,
            "candidate": candidate.events_per_publisher,
            "like_for_like": like_for_like,
        },
        "speedup_total": obj! {
            "baseline": Json::fixed(baseline.speedup_total, 3),
            "candidate": Json::fixed(candidate.speedup_total, 3),
            "ratio": Json::fixed(total_ratio, 3),
            "regressed": total_regressed,
        },
        "cells": cell_reports,
        "fanout1": obj! {
            "candidate_ratio": Json::fixed(candidate.fanout1_ratio, 3),
            "stages": f1_rows.collect::<Vec<_>>(),
            "bottleneck": bottleneck,
        },
        "unattributed_regressions": unattributed,
    };

    if let Some(parent) = std::path::Path::new(&out_path).parent() {
        if !parent.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(parent);
        }
    }
    artifact
        .write(&out_path)
        .expect("write attribution artifact");
    eprintln!("wrote {out_path}");

    if unattributed > 0 && like_for_like {
        eprintln!(
            "FAIL: {unattributed} regressed cell(s) beyond {GATE_FRACTION}x with no stage \
             share shift ≥{MIN_SHIFT_MILLI}‰ to explain them"
        );
        std::process::exit(1);
    }
    if unattributed > 0 {
        eprintln!(
            "note: {unattributed} unattributed cell(s) under a scale mismatch — advisory \
             only (rerun both artifacts at the same --events to gate per cell)"
        );
    }
    if total_regressed {
        let explained = candidate
            .cells
            .iter()
            .filter_map(|cand| {
                let base = baseline
                    .cells
                    .iter()
                    .find(|b| b.publishers == cand.publishers && b.fanout == cand.fanout)?;
                max_shift(base, cand)
            })
            .any(|(_, s)| s.abs() >= MIN_SHIFT_MILLI);
        if !explained {
            eprintln!(
                "FAIL: overall speedup ratio {total_ratio:.3} below {GATE_FRACTION} with no \
                 per-stage attribution anywhere in the sweep"
            );
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_committed_perf_artifact() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_perf.json");
        let perf = parse_perf(path).expect("committed BENCH_perf.json parses");
        assert_eq!(perf.cells.len(), 9);
        for cell in &perf.cells {
            assert!(cell.publishers > 0 && cell.fanout > 0 && cell.speedup > 0.0);
            assert!(
                !cell.stages.is_empty(),
                "p={} f={}",
                cell.publishers,
                cell.fanout
            );
            assert!(cell.stages.iter().any(|s| s.stage == "deliver"));
        }
        assert!(perf.speedup_total > 1.0);
        assert!(perf.fanout1_ratio > 0.0);
        assert_eq!(perf.events_per_publisher, 20_000);
    }
}
