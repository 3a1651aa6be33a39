//! Fixed-seed replay digests: each scenario's trace text is pinned by
//! line count and FNV-1a-64 digest, so a refactor that moves a single
//! delivery, join or purge across commits fails here. (The other
//! determinism tests compare two runs inside one process; these pin
//! the trace itself.) Two-cell runs pin only the non-`fault` lines:
//! the fault notes are free text, the data plane is the contract.

use std::time::Duration;

use smc_harness::{
    run, run_with_options, HealthOptions, PeerConfig, RunOptions, Scenario, SupervisionOptions,
};

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn is_fault(line: &str) -> bool {
    line.split_whitespace().nth(1) == Some("fault")
}

/// `(lines, digest)` over the trace lines `keep` admits, each with its
/// trailing newline.
fn pin(trace: &str, keep: impl Fn(&str) -> bool) -> (usize, String) {
    let kept: String = trace
        .lines()
        .filter(|l| keep(l))
        .flat_map(|l| [l, "\n"])
        .collect();
    (
        kept.lines().count(),
        format!("{:016x}", fnv1a64(kept.as_bytes())),
    )
}

#[test]
fn one_cell_random_traces_are_pinned() {
    for (seed, lines, digest) in [
        (1, 622, "6aff42db21352448"),
        (7, 592, "494a61eea48f60af"),
        (42, 338, "12ce786f6aaec2e0"),
    ] {
        let report = run(&Scenario::random(seed, 3, Duration::from_secs(10), 10));
        assert_eq!(
            pin(&report.trace_text(), |_| true),
            (lines, digest.to_string()),
            "seed {seed}"
        );
    }
}

#[test]
fn one_cell_supervised_trace_is_pinned() {
    let scenario = Scenario::random_supervision(9000, 3, Duration::from_secs(20), 5);
    let report = run_with_options(
        &scenario,
        RunOptions {
            supervision: Some(SupervisionOptions::default()),
            health: Some(HealthOptions::default()),
            ..RunOptions::default()
        },
    );
    assert_eq!(
        pin(&report.trace_text(), |_| true),
        (1007, "3072b9ef10d0cffe".to_string())
    );
}

#[test]
fn two_cell_peer_traces_are_pinned() {
    for (seed, lines, digest) in [
        (9500, 2886, "9e7298543c51bfad"),
        (9501, 2886, "b5d5e5bfbc92b06c"),
    ] {
        let report = run_with_options(
            &Scenario::random_peer(seed, 3, Duration::from_secs(24), 3),
            RunOptions {
                supervision: Some(SupervisionOptions::default()),
                peer: Some(PeerConfig::default()),
                ..RunOptions::default()
            },
        );
        assert_eq!(
            pin(&report.trace_text(), |l| !is_fault(l)),
            (lines, digest.to_string()),
            "seed {seed}"
        );
    }
}
