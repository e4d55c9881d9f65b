//! `stmbench --workload <store-get|cache-churn> --seed <n>
//! --seconds <s> --trace <0|1>`: runs one workload and prints its result
//! as the last line of standard output.

use std::process::ExitCode;

use stmbench::{run, Plan, Workload};

const USAGE: &str =
    "usage: stmbench --workload <store-get|cache-churn> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Plan, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Plan {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let plan = match parse(&args) {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "stmbench: {} seed {} for {}s, trace {}, on {} cpus",
        plan.workload.name(),
        plan.seed,
        plan.seconds,
        plan.trace,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    match run(&plan) {
        Ok(report) => {
            for v in &report.violations {
                eprintln!("check failed: {v}");
            }
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("stmbench: {e}");
            ExitCode::FAILURE
        }
    }
}
