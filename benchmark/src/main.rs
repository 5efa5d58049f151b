//! The PI2M benchmark: image→mesh wall clock, tets/s, scaling, serve
//! latency and a per-layer ledger over seven workloads. See `README.md`
//! beside this package and `BENCHMARK.json` at the repository root.
//!
//! `--workload NAME` runs one workload in this process and ends its
//! standard output with the driver's result line. Without it, every
//! workload runs in a fresh child process; `--aa` runs that set twice and
//! compares the two.

mod checks;
mod host;
mod layers;
mod meshing;
mod report;
mod serve;
mod span;
mod spec;
mod stats;

use pi2m::obs::json::{self, Json};
use report::RunResult;
use std::process::{Command, ExitCode};
use std::time::Instant;

const USAGE: &str =
    "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--aa] [--emit-spec]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    aa: bool,
    emit_spec: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        aa: false,
        emit_spec: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed: expected an integer")?;
            }
            "--seconds" => {
                let s: f64 = value()?
                    .parse()
                    .map_err(|_| "--seconds: expected a number")?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds: expected a positive number".into());
                }
                args.seconds = s;
            }
            // `--trace` alone switches tracing on; the driver passes 0 or 1.
            "--trace" => match it.next().as_deref() {
                None | Some("1") => args.trace = true,
                Some("0") => args.trace = false,
                Some(other) => return Err(format!("--trace: expected 0 or 1, got {other}")),
            },
            "--aa" => args.aa = true,
            "--emit-spec" => args.emit_spec = true,
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if let Some(w) = &args.workload {
        if !spec::is_workload(w) {
            let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload {w}; have {}", names.join(", ")));
        }
    }
    Ok(args)
}

/// Run one workload in this process.
fn run_one(name: &str, args: &Args, started: Instant) -> Result<RunResult, String> {
    if name == serve::NAME {
        return if args.trace {
            serve::run_traced(args.seed, args.seconds)
        } else {
            serve::run(args.seed, args.seconds, started)
        };
    }
    let w = meshing::find(name).ok_or_else(|| format!("workload {name} is not implemented"))?;
    if args.trace {
        w.run_traced(args.seed, args.seconds)
    } else {
        w.run(args.seed, args.seconds, started)
    }
}

/// One pass over every workload, each in a fresh child process so that
/// set-up time and peak memory are the workload's own. Returns, per
/// workload, the parsed result line.
fn run_all(args: &Args) -> Result<Vec<(&'static str, Json)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut results = Vec::new();
    for w in spec::WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("{}: {e}", w.name))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let (table, line) = stdout
            .trim_end()
            .rsplit_once('\n')
            .ok_or_else(|| format!("{}: no result line", w.name))?;
        println!("{table}");
        let result = json::parse(line).map_err(|e| format!("{}: bad result line: {e}", w.name))?;
        if !out.status.success() || result.get("correct").and_then(Json::as_bool) != Some(true) {
            return Err(format!("{}: run failed or incorrect: {line}", w.name));
        }
        results.push((w.name, result));
    }
    Ok(results)
}

fn metric(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// `--aa`: the same code measured twice. Prints, per workload and
/// end-to-end metric, both values, how much worse the second is than the
/// first, and the bound; errors if any pair disagrees by more than that.
fn run_aa(args: &Args) -> Result<(), String> {
    let (a, b) = (run_all(args)?, run_all(args)?);
    println!(
        "A/A comparison, seed {} (default {}, held out {}); {}",
        args.seed,
        spec::DEFAULT_SEED,
        spec::HELD_OUT_SEED,
        host::fingerprint()
    );
    println!(
        "{:<26} {:<24} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "first", "second", "worse", "bound"
    );
    let mut over = Vec::new();
    for ((name, ra), (_, rb)) in a.iter().zip(&b) {
        for m in spec::END_TO_END {
            let (Some(x), Some(y)) = (metric(ra, m.name), metric(rb, m.name)) else {
                return Err(format!("{name}: {} missing from a result line", m.name));
            };
            // How much worse either run is than the other, as a share.
            let worse = ((y - x) / x).abs().max(((x - y) / y).abs());
            let flag = if worse > m.bound { " OVER" } else { "" };
            println!(
                "{name:<26} {:<24} {x:>14.6} {y:>14.6} {:>7.2}% {:>5.0}%{flag}",
                m.name,
                worse * 100.0,
                m.bound * 100.0
            );
            if worse > m.bound {
                over.push(format!("{name}/{}", m.name));
            }
        }
    }
    if over.is_empty() {
        println!("A/A: every end-to-end pair agrees within its bound");
        Ok(())
    } else {
        Err(format!(
            "A/A: pairs beyond their bound: {}",
            over.join(", ")
        ))
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.emit_spec {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    eprintln!("{}", host::fingerprint());
    let outcome = match &args.workload {
        Some(name) => run_one(name, &args, started).and_then(|res| {
            res.print_table(name, args.trace);
            if args.trace {
                println!("  ledger_ok {}", res.correct());
            }
            println!("{}", res.result_line(args.trace)?);
            if res.correct() {
                Ok(())
            } else {
                Err(format!("{name}: incorrect"))
            }
        }),
        None if args.aa => run_aa(&args),
        None => run_all(&args).map(|_| ()),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A short real run of one workload: every declared end-to-end metric
    /// comes out, with its unit, in a well-formed result line.
    #[test]
    fn smoke_run_of_sphere_fine_reports_every_end_to_end_metric() {
        let w = meshing::find("sphere-fine-1t").expect("declared workload");
        let res = w
            .run(spec::DEFAULT_SEED, 0.1, Instant::now())
            .expect("smoke run");
        assert!(res.correct(), "{:?}", res.problems);
        assert!(res.attempted >= 2 && res.failed == 0, "{:?}", res.notes);
        let line = json::parse(&res.result_line(false).unwrap()).unwrap();
        for m in spec::END_TO_END {
            let got = line.get("metrics").and_then(|ms| ms.get(m.name));
            let got = got.unwrap_or_else(|| panic!("{} missing", m.name));
            assert_eq!(got.get("unit").and_then(Json::as_str), Some(m.unit));
            let v = got.get("value").and_then(Json::as_f64).unwrap();
            assert!(v.is_finite() && v != 0.0, "{} = {v}", m.name);
        }
    }

    #[test]
    fn every_declared_workload_is_implemented() {
        for w in spec::WORKLOADS {
            assert!(
                w.name == serve::NAME || meshing::find(w.name).is_some(),
                "{} is declared but not implemented",
                w.name
            );
        }
    }
}
