//! `das-benchmark`: boots an in-process loopback fleet and measures it
//! from outside, through the public functions of the `das-*` crates.
//! See README.md for what each workload and metric means.

mod json;
mod noise;
mod place;
mod probes;
mod run;
mod span;
mod spec;
mod stats;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage:
  das-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  das-benchmark --spec
  das-benchmark --noise <runs> [--seed <n>] [--seconds <s>] [--out <file>]
  das-benchmark --compare <result-set-a> <result-set-b>";

fn main() -> ExitCode {
    let process_start = Instant::now();
    // Daemon events (one INFO line per offload) would drown the report.
    das_obs::set_level(das_obs::Level::Error);
    match dispatch(process_start) {
        Ok(code) => code,
        Err(reason) => {
            eprintln!("das-benchmark: {reason}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(process_start: Instant) -> Result<ExitCode, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = spec::RUN_SECONDS;
    let mut trace = false;
    let mut noise_runs = None;
    let mut out = "benchmark/out/noise.json".to_string();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || {
            argv.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{v:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = number(value()?)?,
            "--seconds" => seconds = number(value()?)?,
            "--trace" => trace = number(value()?)? != 0,
            "--noise" => noise_runs = Some(number(value()?)? as usize),
            "--out" => out = value()?,
            "--spec" => {
                print!("{}", spec::document().pretty());
                return Ok(ExitCode::SUCCESS);
            }
            "--compare" => {
                let within = noise::compare(&value()?, &value()?)?;
                return Ok(if within {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                });
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if let Some(runs) = noise_runs {
        noise::noise(runs, seed, seconds, &out)?;
        return Ok(ExitCode::SUCCESS);
    }
    let workload = workload.ok_or(USAGE)?;
    let out_dir = std::path::Path::new("benchmark").join("out");
    let result = run::run(
        &run::RunArgs {
            workload,
            seed,
            seconds,
            trace,
            out_dir,
        },
        process_start,
    )?;
    println!("{}", result.compact());
    Ok(ExitCode::SUCCESS)
}
