//! The TD-AC benchmark: one workload per invocation, end-to-end metrics
//! (`--trace 0`) or per-layer metrics timed from outside the program
//! (`--trace 1`). Prints a notes line and then the result line; exits
//! non-zero when any output fails its check.
//!
//! Usage: `perfbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1> --work-dir <dir>`. Run through `run.py`, which builds
//! this package and supplies the work directory.

mod batch;
mod inputs;
mod layers;
mod serve;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use stats::{render, Gate, Report};

/// One invocation's settings.
pub struct Ctx {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub nproc: usize,
    /// Where stores are written (inside the checkout).
    pub work_dir: PathBuf,
}

const WORKLOADS: [&str; 4] = ["exam_wide", "ds1_store", "ds1_sharded", "serve_mixed"];

fn parse(args: &[String]) -> Result<(String, Ctx), String> {
    let value = |flag: &str| -> Result<&String, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1).ok_or(format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let workload = value("--workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace wants 0 or 1, got {t:?}")),
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        seed: number("--seed")?,
        seconds: number("--seconds")?,
        trace,
        nproc,
        work_dir: PathBuf::from(value("--work-dir")?),
    };
    Ok((workload, ctx))
}

/// Puts the run's metrics in catalogue order and checks their units. A
/// traced run reports every per-layer metric: those of a layer this
/// workload does not exercise read 0 and are listed under `not_run`;
/// each is noted with the end-to-end metric it should move.
fn catalogue(report: &mut Report, trace: bool) -> Result<(), String> {
    let wanted: Vec<(&str, &str)> = if trace {
        layers::PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
    } else {
        layers::END_TO_END.to_vec()
    };
    let mut reported = std::mem::take(&mut report.metrics);
    let mut not_run = Vec::new();
    for (name, unit) in wanted {
        let value = match reported.iter().position(|(n, _, _)| n == name) {
            Some(i) => {
                let (_, value, got) = reported.remove(i);
                if got != unit {
                    return Err(format!("{name} reported in {got}, catalogued in {unit}"));
                }
                value
            }
            None if trace => {
                not_run.push(name);
                0.0
            }
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        report.metric(name, value, unit);
    }
    if let Some((name, _, _)) = reported.first() {
        return Err(format!("metric {name} is not in the catalogue"));
    }
    if trace {
        report.note("not_run", not_run.join(" "));
        for (name, _, feeds) in layers::PER_LAYER {
            report.note(&format!("feeds.{name}"), feeds);
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Shard workers are this executable re-invoked as `worker`.
    if args.first().map(String::as_str) == Some("worker") {
        return ExitCode::from(td_shard::worker_main().clamp(0, 255) as u8);
    }
    let (workload, ctx) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let mut gate = Gate::default();
    report.note("workload", &workload);
    report.note("seed", ctx.seed);
    let outcome = match workload.as_str() {
        "exam_wide" => batch::run(batch::Kind::ExamWide, &ctx, &mut report, &mut gate),
        "ds1_store" => {
            batch::run(batch::Kind::Ds1Store, &ctx, &mut report, &mut gate).and_then(|()| {
                // The serving layers ride on this workload's traced run.
                if ctx.trace {
                    serve::run(&ctx, &mut report, &mut gate, true)
                } else {
                    Ok(())
                }
            })
        }
        "ds1_sharded" => batch::run(batch::Kind::Ds1Sharded, &ctx, &mut report, &mut gate),
        _ => serve::run(&ctx, &mut report, &mut gate, false),
    };
    let outcome = outcome.and_then(|()| catalogue(&mut report, ctx.trace));
    if let Err(e) = outcome {
        eprintln!("perfbench: {workload}: {e}");
        for m in &gate.mismatches {
            eprintln!("perfbench: mismatch: {m}");
        }
        return ExitCode::FAILURE;
    }
    let correct = gate.failed == 0;
    let (notes, result) = render(&report, &gate, correct);
    println!("{notes}");
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
