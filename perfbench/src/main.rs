//! The repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <flat_500k|deep_callgraph|source_service> --seed <n> --seconds <s> --trace <0|1>
//! perfbench pin-deep <first-seed> <last-seed>
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics untraced, the per-layer metrics traced). The line
//! before it, starting with `host `, records the host shape and the
//! workload parameters. See `perfbench/README.md`.

mod ir;
mod pipeline;
mod report;
mod service;
mod trace;

use std::process::ExitCode;

use report::{Run, Scale};

pub const WORKLOADS: &[&str] = &["flat_500k", "deep_callgraph", "source_service"];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(out)
}

/// Runs one workload and returns its result line.
pub fn execute(run: &mut Run) -> String {
    match run.workload.as_str() {
        "flat_500k" => ir::run(run, ir::Kind::Flat),
        "deep_callgraph" => ir::run(run, ir::Kind::Deep),
        "source_service" => service::run(run),
        other => unreachable!("workload {other} passed argument checks"),
    }
    run.finish()
}

/// Prints the pinned `deep_callgraph` line of each seed in a range.
fn pin_deep(first: u64, last: u64) {
    for seed in first..=last {
        let run = Run::new("deep_callgraph", seed, 1.0, false, Scale::FULL);
        let m = ir::generate(ir::Kind::Deep, &run);
        let config = ir::config(run.nproc);
        let s =
            sra_core::AnalysisSession::with_config(m, config).expect("generated modules verify");
        println!(
            "{}",
            ir::pinned_line(seed, &pipeline::total(&pipeline::session_stats(&s)))
        );
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("pin-deep") {
        let seeds: Vec<u64> = args[1..].iter().filter_map(|a| a.parse().ok()).collect();
        let [first, last] = seeds[..] else {
            eprintln!("usage: perfbench pin-deep <first-seed> <last-seed>");
            return ExitCode::from(2);
        };
        pin_deep(first, last);
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if !std::path::Path::new(ir::PINNED_PATH).is_file() {
        eprintln!(
            "perfbench: run from the repository root ({} not found)",
            ir::PINNED_PATH
        );
        return ExitCode::from(2);
    }
    let mut run = Run::new(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        Scale::FULL,
    );
    let line = execute(&mut run);
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests;
