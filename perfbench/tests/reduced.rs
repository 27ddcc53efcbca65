//! The benchmark's own checks, at reduced input sizes.

use mcio_perfbench::workload::{self, setup, Reference, Scale, Workload};
use mcio_perfbench::{run, Options};
use mcio_prof::Prof;

fn reduced(w: Workload, seed: u64, trace: bool) -> Options {
    Options {
        scale: Scale::Reduced,
        seconds: 0.0,
        min_reps: 2,
        references: Vec::new(),
        ..Options::new(w, seed, 0.0, trace)
    }
}

#[test]
fn every_workload_passes_its_checks() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let r = run(&reduced(w, 1, trace)).expect("reduced inputs build");
            assert_eq!(r.failed, 0, "{}: {:?}", w.name(), r.errors);
            assert!(r.attempted > 0);
            assert!(r.metrics.iter().all(|m| m.1.is_finite()), "{:?}", r.metrics);
        }
    }
}

#[test]
fn deterministic_counters_repeat_exactly() {
    for w in Workload::ALL {
        let a = run(&reduced(w, 3, false)).expect("runs");
        let b = run(&reduced(w, 3, true)).expect("runs");
        assert_eq!(a.counters, b.counters, "{}", w.name());
        let k = &a.counters;
        match w {
            Workload::JobstreamBackfill => assert!(k.jobs > 0),
            Workload::ExaWrite => {
                assert!(k.extents > 0 && k.activities > 0 && k.events > 0);
                assert!(k.fifo_events > 0 && k.fair_events > 0);
            }
            _ => assert!(k.extents > 0 && k.events > 0 && k.spans > 0),
        }
    }
}

#[test]
fn seed_changes_the_generated_inputs() {
    let off = Prof::disabled();
    for w in Workload::ALL {
        let print = |seed| {
            setup(w, Scale::Reduced, seed, &off)
                .expect("inputs build")
                .fingerprint()
        };
        assert_eq!(print(7), print(7), "{}: same seed, same inputs", w.name());
        assert_ne!(print(7), print(8), "{}: seeds must differ", w.name());
    }
}

#[test]
fn wrong_reference_counts_as_failure() {
    let mut o = reduced(Workload::Subarray3dWrite, 1, false);
    o.references = vec![Reference {
        cell: "memory-conscious/fifo",
        elapsed_ns: 1,
    }];
    let r = run(&o).expect("a failed check does not end the run");
    // References hold for environment 0, the seed's own inputs, which
    // the warm-up and the first timed repetition use: their
    // memory-conscious cells fail, every other cell passes.
    assert_eq!(r.attempted, 2 * (1 + o.min_reps as u64));
    assert_eq!(r.failed, 2);
    assert!(r.errors[0].contains("reference 1 ns"), "{:?}", r.errors);
}

#[test]
fn subarray_references_are_the_perf_suite_fig6_records() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCH_perf_suite.json");
    let doc = std::fs::read_to_string(path).expect("perf-suite baseline is committed");
    let refs = workload::references(Workload::Subarray3dWrite);
    assert_eq!(refs.len(), 2);
    for r in refs {
        let strategy = r.cell.split('/').next().expect("strategy/engine label");
        let record = format!(
            "{{\"scenario\": \"fig6\", \"strategy\": \"{strategy}\", \"elapsed_ns\": {},",
            r.elapsed_ns
        );
        assert!(doc.contains(&record), "{record} not in {path}");
    }
}

#[test]
fn a_panicking_operation_counts_as_failed() {
    let out = workload::guarded(vec!["a".into(), "b".into()], || panic!("boom"));
    assert_eq!(out.cells.len(), 2);
    assert_eq!(out.failed(), 2);
    assert!(out.cells[0]
        .error
        .as_deref()
        .is_some_and(|e| e.contains("boom")));
}
