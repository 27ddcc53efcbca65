//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints a `{"run": …}` record of the run, then, as the last line, the
//! result: `{"correct", "attempted", "failed", "metrics"}`. Exits 2 on a
//! usage error and 1 when the workload's inputs cannot be built.

use mcio_perfbench::workload::Workload;
use mcio_perfbench::{run, Options, Report};
use std::process::ExitCode;

/// Longest accepted measuring time (a day).
const MAX_SECONDS: f64 = 86_400.0;

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=MAX_SECONDS).contains(&s) {
                    return Err(format!(
                        "--seconds must be between 0 and {MAX_SECONDS}, got {value}"
                    ));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(w), Some(seed), Some(seconds), Some(trace)) => {
            Ok(Options::new(w, seed, seconds, trace))
        }
        _ => Err("--workload, --seed, --seconds and --trace are all required".to_string()),
    }
}

/// A JSON string literal (names here are plain ASCII; escape anyway).
fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit the measurement has.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn render(o: &Options, r: &Report) -> (String, String) {
    let run = format!(
        "{{\"run\": {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"warm\": true, \
         \"cold_rep_s\": {}, \"reps\": {}, \"setup_samples\": {}, \"simulated_ns\": {{{}}}, \
         \"errors\": [{}]}}}}",
        quote(o.workload.name()),
        o.seed,
        o.trace,
        number(r.cold_rep_s),
        r.reps,
        r.setup_samples,
        r.simulated_ns
            .iter()
            .map(|(cell, ns)| format!("{}: {ns}", quote(cell)))
            .collect::<Vec<_>>()
            .join(", "),
        r.errors
            .iter()
            .take(8)
            .map(|e| quote(e))
            .collect::<Vec<_>>()
            .join(", "),
    );
    let metrics = r
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                number(*value),
                quote(unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        r.failed == 0,
        r.attempted,
        r.failed,
    );
    (run, result)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&options) {
        Ok(report) => {
            for e in &report.errors {
                eprintln!("perfbench: failed: {e}");
            }
            let (run, result) = render(&options, &report);
            println!("{run}");
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
