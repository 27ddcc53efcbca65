//! Golden-snapshot test for the `scheduler_suite` text report.
//!
//! The committed fixture (`tests/fixtures/sched_small.jobtrace`) is a
//! five-job mixed-size stream crafted so conservative backfill
//! strictly beats FCFS, and the golden
//! (`tests/fixtures/sched_report.txt`) is the exact text
//! `scheduler_suite --trace sched_small.jobtrace` prints for it. Any
//! change to the scheduler's math or the report layout shows up here
//! as a readable diff; regenerate the golden with that command when
//! the change is intentional. The same fixture under `--admission`
//! pins the admission-control path (document plus scheduler trace).

use std::path::PathBuf;
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn scheduler_suite_report_matches_committed_golden() {
    let trace = fixture("sched_small.jobtrace");
    let golden = std::fs::read_to_string(fixture("sched_report.txt")).expect("golden exists");
    let out = Command::new(env!("CARGO_BIN_EXE_scheduler_suite"))
        .args(["--trace", trace.to_str().unwrap()])
        .output()
        .expect("spawn scheduler_suite");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        text, golden,
        "scheduler_suite text output drifted from the committed golden \
         (regenerate tests/fixtures/sched_report.txt if intentional)"
    );
}

/// The CLI surface over the same fixture: backfill strictly beats
/// FCFS on makespan, and the rendered document is byte-identical at
/// any `--jobs` value.
#[test]
fn cli_schedule_backfill_beats_fcfs_on_the_fixture() {
    let trace = fixture("sched_small.jobtrace");
    let doc = |policy: &str, jobs: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_mcio_cli"))
            .args([
                "schedule",
                "--trace",
                trace.to_str().unwrap(),
                "--policy",
                policy,
                "--jobs",
                jobs,
            ])
            .output()
            .expect("spawn mcio_cli schedule");
        assert_eq!(
            out.status.code(),
            Some(0),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("document is UTF-8")
    };
    let makespan = |doc: &str| -> u64 {
        doc.lines()
            .find_map(|l| l.trim().strip_prefix("\"makespan_ns\": "))
            .and_then(|v| v.trim_end_matches(',').parse().ok())
            .expect("document carries makespan_ns")
    };
    let fcfs = doc("fcfs", "1");
    let backfill = doc("backfill", "1");
    assert!(
        makespan(&backfill) < makespan(&fcfs),
        "backfill {} ns is not strictly better than fcfs {} ns",
        makespan(&backfill),
        makespan(&fcfs)
    );
    assert_eq!(
        backfill,
        doc("backfill", "8"),
        "schedule document depends on --jobs"
    );
}

/// Admission control over the same fixture: `schedule --admission
/// --policy backfill` defers dispatches on predicted interference, and
/// its document and `--chrome` scheduler trace match the committed
/// goldens (`tests/fixtures/sched_admission{,.trace}.json`) byte for
/// byte. Regenerate both with that command when a change is
/// intentional.
#[test]
fn cli_schedule_admission_matches_committed_goldens() {
    let trace = fixture("sched_small.jobtrace");
    let tmp = |name: &str| {
        std::env::temp_dir().join(format!("sched_golden_{}_{name}", std::process::id()))
    };
    let (doc_path, chrome_path) = (tmp("admission.json"), tmp("admission.trace.json"));
    let out = Command::new(env!("CARGO_BIN_EXE_mcio_cli"))
        .args([
            "schedule",
            "--trace",
            trace.to_str().unwrap(),
            "--policy",
            "backfill",
            "--admission",
            "--out",
            doc_path.to_str().unwrap(),
            "--chrome",
            chrome_path.to_str().unwrap(),
        ])
        .output()
        .expect("spawn mcio_cli schedule");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = std::fs::read_to_string(&doc_path).expect("document written");
    let chrome = std::fs::read_to_string(&chrome_path).expect("trace written");
    let _ = std::fs::remove_file(&doc_path);
    let _ = std::fs::remove_file(&chrome_path);
    let deferrals: u64 = doc
        .lines()
        .find_map(|l| l.trim().strip_prefix("\"admission_deferrals\": "))
        .and_then(|v| v.trim_end_matches(',').parse().ok())
        .expect("document carries admission_deferrals");
    assert!(deferrals > 0, "admission never deferred a dispatch");
    let golden = |name: &str| std::fs::read_to_string(fixture(name)).expect("golden exists");
    assert_eq!(
        doc,
        golden("sched_admission.json"),
        "admission schedule document drifted from the committed golden"
    );
    assert_eq!(
        chrome,
        golden("sched_admission.trace.json"),
        "admission scheduler trace drifted from the committed golden"
    );
}
