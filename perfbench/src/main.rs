//! `micrograph-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a provenance line, then the result as the last line of stdout.
//! Engine data is written under `.bench_work/` in the working directory.

use std::path::Path;
use std::process::ExitCode;

use micrograph_perfbench::{run, Args, Workload};

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (result, provenance) = run(&args, Path::new(".bench_work"));
    println!("{provenance}");
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}
