//! The `mcio_cli` run summary and its `--metrics` export describe the
//! same simulation.
//!
//! Every pass of one invocation — the per-strategy summary lines and
//! the observed export run — must use the requested (pipeline,
//! exchange) pair, so the summary's elapsed time for the observed
//! strategy equals the exported `run.elapsed_ns` gauge.

use mcio_des::SimDuration;
use mcio_obs::json::{self, JsonValue};
use std::process::Command;

/// The elapsed time the summary prints for `label`'s strategy line.
fn summary_elapsed(stdout: &str, label: &str) -> String {
    let line = stdout
        .lines()
        .find(|l| l.starts_with(label))
        .unwrap_or_else(|| panic!("no `{label}` summary line in:\n{stdout}"));
    let (_, rest) = line.split_once("elapsed ").expect("summary names elapsed");
    rest.split(')').next().expect("elapsed closes").to_string()
}

/// The `run.elapsed_ns` gauge of a `--metrics` JSON document.
fn gauge_elapsed_ns(doc: &str) -> u64 {
    let doc = json::parse(doc).expect("metrics are JSON");
    let gauges = doc
        .get("gauges")
        .and_then(JsonValue::as_array)
        .expect("gauges array");
    let gauge = gauges
        .iter()
        .find(|g| g.get("name").and_then(JsonValue::as_str) == Some("run.elapsed_ns"))
        .expect("run.elapsed_ns gauge");
    gauge
        .get("value")
        .and_then(JsonValue::as_f64)
        .expect("gauge value") as u64
}

#[test]
fn two_level_double_buffered_summary_matches_metrics() {
    let metrics =
        std::env::temp_dir().join(format!("mcio_cli_summary_{}.json", std::process::id()));
    for (strategy, label) in [("mc", "memory-conscious:"), ("two-phase", "two-phase ")] {
        let out = Command::new(env!("CARGO_BIN_EXE_mcio_cli"))
            .args([
                "--ranks",
                "8",
                "--ppn",
                "2",
                "--per-proc",
                "256K",
                "--buffer",
                "32K",
                "--segments",
                "2",
                "--machine",
                "small",
                "--two-level",
                "--pipeline",
                "double",
                "--strategy",
                strategy,
                "--metrics",
                metrics.to_str().unwrap(),
            ])
            .output()
            .expect("spawn mcio_cli");
        assert_eq!(
            out.status.code(),
            Some(0),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let doc = std::fs::read_to_string(&metrics).expect("metrics written");
        let exported = SimDuration::from_nanos(gauge_elapsed_ns(&doc));
        assert_eq!(
            summary_elapsed(&stdout, label),
            exported.to_string(),
            "--strategy {strategy}: the summary and --metrics describe different runs"
        );
    }
    std::fs::remove_file(&metrics).ok();
}
