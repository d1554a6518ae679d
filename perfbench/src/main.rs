//! `dmt-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]`
//!
//! Prints every metric as `name = value unit`, then, as the last line,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`
//! (the end-to-end metrics, or with `--trace 1` the per-layer ones).

use dmt_perfbench::{run, Options, WORKLOADS};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: dmt-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            o.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => o.workload = value.clone(),
            "--seed" => o.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => o.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&o.workload.as_str()) {
        return Err(format!("unknown workload `{}`", o.workload));
    }
    if !(o.seconds.is_finite() && o.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => return usage(&e),
    };
    match run(&opts) {
        Ok(report) => {
            println!("workload = {}", opts.workload);
            println!("seed = {}", opts.seed);
            for l in &report.lines {
                println!("{l}");
            }
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => usage(&e),
    }
}
