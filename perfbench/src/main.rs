//! Command-line entry point; see the library docs.

use std::process::ExitCode;

use perfbench::run::{tidy, timed_run, traced_run, work_dir, workloads, Outcome};

const USAGE: &str =
    "usage: perfbench --workload <vitals_udp|ecg_fanout|ward_durable> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0).max(1.0),
        trace: trace.unwrap_or(false),
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn print(outcome: &Outcome) {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(k, (v, unit))| {
            format!(
                "\"{k}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workloads().into_iter().find(|w| w.name == args.workload) else {
        eprintln!("perfbench: unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let result = if args.trace {
        traced_run(&w, args.seed, args.seconds)
    } else {
        timed_run(&w, args.seed, args.seconds)
    };
    tidy(&work_dir());
    match result {
        Ok(outcome) => {
            for note in &outcome.notes {
                eprintln!("perfbench: {note}");
            }
            print(&outcome);
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "perfbench: correctness check FAILED ({} failures)",
                    outcome.failed
                );
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: run failed: {e}");
            ExitCode::from(1)
        }
    }
}
