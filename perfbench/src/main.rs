//! `perfbench` — one cold run of one benchmark workload.
//!
//! ```text
//! perfbench --workload bulk2|shorts2|fabric16 [--seed N] [--trace] [--repeat]
//! perfbench --speed-probe
//! ```
//!
//! Prints one JSON line: the run's digest, flow accounting, output
//! checks and metrics. Exits 1 if a check fails, 2 on bad arguments.
//! `--repeat` marks a process that repeats an earlier one with the same
//! seed; untraced, it skips the `fabric16` one-worker check run (see
//! `perfbench::measure`).
//! `--speed-probe` instead times the host-speed probe once and prints
//! its seconds and the reference host's (see `perfbench::speed`).
//! `perfbench/run.py` drives it; see `perfbench/README.md`.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use perfbench::speed;
use perfbench::workload::Workload;

fn usage(err: &str) -> ExitCode {
    eprintln!(
        "perfbench: {err}\n\
         usage: perfbench --workload bulk2|shorts2|fabric16 [--seed N] [--trace] [--repeat]\n\
         \x20      perfbench --speed-probe"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = 1u64;
    let mut trace = false;
    let mut repeat = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--workload" => match value("--workload").map(|v| Workload::from_name(&v)) {
                Ok(Some(w)) => workload = Some(w),
                Ok(None) => return usage("unknown workload"),
                Err(e) => return usage(&e),
            },
            "--seed" => match value("--seed").map(|v| v.parse::<u64>()) {
                Ok(Ok(s)) => seed = s,
                _ => return usage("--seed needs a whole number"),
            },
            "--trace" => trace = true,
            "--repeat" => repeat = true,
            "--speed-probe" => {
                println!(
                    "{{\"probe_s\": {}, \"reference_s\": {}}}",
                    speed::probe_s(),
                    speed::REFERENCE_S
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let horizon = workload.horizon();

    match perfbench::measure(workload, seed, horizon, trace, repeat) {
        Ok(report) => {
            println!("{}", report.to_json(workload, seed, horizon));
            if report.ok() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: cannot read host counters: {e}");
            ExitCode::FAILURE
        }
    }
}
