//! Byte pins of every way the simulator is driven.
//!
//! Each case runs one collective (or one shared-machine job set) on a
//! small machine and reduces the complete output to one line per
//! artifact: the `TimingReport` (its `Debug` rendering, length plus a
//! stable 64-bit FNV-1a hash, with elapsed time in the clear), the
//! Chrome-trace bytes, the metrics-registry snapshot (JSON export),
//! and the fault / multi-tenant outcome scalars. The rendered document
//! must equal `fixtures/runner_pins.txt` byte for byte, so any change
//! of simulated behaviour — in lowering, the DES, trace emission,
//! metric recording, fault recovery or the closed-loop controller —
//! shows up here.
//!
//! Inputs: fault-free, two-level exchange with double buffering,
//! OST-only faults, structural faults (`agg_crash`, `mem_shock`) under
//! both strategies, the conservative controller, and two overlapping
//! tenants under faults and the adaptive policy. Reads are pinned
//! fault-free, traced under the two-level exchange with double
//! buffering, under structural faults, and under the aggressive
//! controller.
//!
//! The fixture was generated when each of these cases had its own
//! entry point; the case headers keep those names (`simulate_opts`,
//! `trace_plan`, `run_multitenant_adaptive`, ...) so the document stays
//! byte-identical, and each case now spells its run through [`run`] or
//! one of its two shorthands.

use mcio_bench::mtspec::MtSpec;
use mcio_cluster::spec::ClusterSpec;
use mcio_cluster::ProcessMap;
use mcio_core::{
    mcio, run, simulate, simulate_observed, twophase, AdaptivePolicy, CollectiveConfig,
    CollectivePlan, CollectiveRequest, Exchange, Extent, Observe, Pipeline, ProcMemory, RunOutcome,
    RunSpec, Rw, Strategy, TenantJob, TimingReport,
};
use mcio_faults::FaultSpec;
use mcio_obs::Registry;
use std::fmt::Write as _;
use std::sync::Arc;

const KIB: u64 = 1024;

/// FNV-1a, 64-bit: stable across platforms and releases.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(text: &str) -> String {
    format!("len={} fnv={:016x}", text.len(), fnv(text.as_bytes()))
}

/// One solo case: a planned collective on its machine.
struct Solo {
    plan: CollectivePlan,
    map: ProcessMap,
    mem: ProcMemory,
    spec: ClusterSpec,
}

/// 8 ranks on 4 nodes, each writing (or reading) `chunk` bytes in two
/// strided blocks, planned with half-chunk buffers so every plan runs
/// several rounds.
fn solo(strategy: Strategy, rw: Rw) -> Solo {
    let ranks = 8u64;
    let chunk = 64 * KIB;
    let half = chunk / 2;
    let req = CollectiveRequest::new(
        rw,
        (0..ranks)
            .map(|r| {
                vec![
                    Extent::new(r * half, half),
                    Extent::new(ranks * half + r * half, half),
                ]
            })
            .collect(),
    );
    let map = ProcessMap::block_ppn(ranks as usize, 2);
    let mem = ProcMemory::normal(ranks as usize, half, 0.35, 7);
    let cfg = CollectiveConfig::with_buffer(half).mem_min(half / 4);
    let plan = match strategy {
        Strategy::TwoPhase => twophase::plan(&req, &map, &mem, &cfg),
        Strategy::MemoryConscious => mcio::plan(&req, &map, &mem, &cfg),
    };
    let spec = ClusterSpec::small(map.nnodes(), 2);
    Solo {
        plan,
        map,
        mem,
        spec,
    }
}

/// 16 ranks on 4 nodes writing 4 MiB contiguous chunks: rounds long
/// enough that waiting out an OST brown-out beats crawling through it.
fn brownout_case(strategy: Strategy) -> Solo {
    let ranks = 16u64;
    let chunk = 4 << 20;
    let req = CollectiveRequest::new(
        Rw::Write,
        (0..ranks)
            .map(|r| vec![Extent::new(r * chunk, chunk)])
            .collect(),
    );
    let map = ProcessMap::block_ppn(ranks as usize, 4);
    let mem = ProcMemory::normal(ranks as usize, chunk, 0.35, 7);
    let cfg = CollectiveConfig::with_buffer(chunk).mem_min(chunk / 4);
    let plan = match strategy {
        Strategy::TwoPhase => twophase::plan(&req, &map, &mem, &cfg),
        Strategy::MemoryConscious => mcio::plan(&req, &map, &mem, &cfg),
    };
    let spec = ClusterSpec::small(map.nnodes(), 4);
    Solo {
        plan,
        map,
        mem,
        spec,
    }
}

fn label(strategy: Strategy) -> &'static str {
    match strategy {
        Strategy::TwoPhase => "tp",
        Strategy::MemoryConscious => "mc",
    }
}

fn pin_report(out: &mut String, r: &TimingReport) {
    writeln!(
        out,
        "  report elapsed={} activities={} {}",
        r.elapsed.as_nanos(),
        r.activities,
        digest(&format!("{r:?}"))
    )
    .unwrap();
}

fn pin_trace(out: &mut String, trace: Option<&str>) {
    match trace {
        Some(t) => writeln!(out, "  trace {}", digest(t)).unwrap(),
        None => writeln!(out, "  trace none").unwrap(),
    }
}

fn pin_registry(out: &mut String, reg: &Registry) {
    let json = mcio_obs::export::to_json(&reg.snapshot());
    writeln!(out, "  registry {}", digest(&json)).unwrap();
}

/// The report, trace, registry and recovery pins of one resilient
/// solo run.
fn pin_resilient(out: &mut String, run: &RunOutcome, reg: &Registry) {
    let job = &run.jobs[0];
    let o = run
        .recovery
        .as_ref()
        .expect("a faulted run reports recovery");
    pin_report(out, &job.report);
    pin_trace(out, run.trace_json().as_deref());
    pin_registry(out, reg);
    writeln!(
        out,
        "  fault completed={} failovers={} degraded={} retries={} exhausted={} plan {}",
        o.completed,
        o.failovers,
        o.degraded_rounds,
        o.retries,
        o.retry_exhausted,
        digest(&format!("{:?}", o.executed_plan))
    )
    .unwrap();
    writeln!(out, "  adaptive {:?}", job.adaptive).unwrap();
}

fn pin_mt(out: &mut String, mt: &RunOutcome) {
    writeln!(
        out,
        "  makespan={} engine {}",
        mt.makespan.as_nanos(),
        digest(&format!("{:?}", mt.engine))
    )
    .unwrap();
    for j in &mt.jobs {
        writeln!(
            out,
            "  job {} {} start={} end={} solo={} slowdown={:?} overlap={:?}",
            j.label,
            j.strategy.label(),
            j.start_ns,
            j.end_ns,
            j.solo_elapsed.as_nanos(),
            j.slowdown,
            j.ost_overlap
        )
        .unwrap();
        writeln!(out, "  job-adaptive {:?}", j.adaptive).unwrap();
        pin_report(out, &j.report);
    }
    pin_trace(out, mt.trace_json().as_deref());
}

fn observe(reg: &Arc<Registry>) -> Observe<'_> {
    Observe {
        registry: Some(reg),
        trace: true,
        prof: None,
        ..Observe::default()
    }
}

const OST_ONLY: &str = "seed 3\nost_slow(0, 4.0, 0ns..2ms)\nreq_transient_fail(0.3, 9)\n";
const STRUCTURAL: &str =
    "seed 7\nost_slow(1, 3.0, 0ns..1ms)\nagg_crash(0, 200us)\nmem_shock(2, 0.75, 100us)\n";
const ADAPTIVE: &str = "seed 11\nost_slow(0, 40.0, 0ns..40ms)\nost_slow(1, 40.0, 0ns..40ms)\n\
                        mem_shock(0, 0.5, 100us)\n";
const BROWNOUT: &str = "seed 11
ost_slow(0, 40.0, 0ns..400ms)
ost_slow(1, 40.0, 0ns..400ms)
";

/// `c`'s plan as the one job of a run.
fn job(c: &Solo, pipeline: Pipeline, exchange: Exchange) -> [TenantJob; 1] {
    [TenantJob::new("solo", c.plan.clone(), c.map.clone())
        .pipeline(pipeline)
        .exchange(exchange)]
}

/// `c` alone under `text`'s fault plan with structural recovery armed.
fn resilient(
    c: &Solo,
    pipeline: Pipeline,
    exchange: Exchange,
    text: &str,
    policy: AdaptivePolicy,
    reg: &Arc<Registry>,
) -> RunOutcome {
    let fspec = FaultSpec::parse(text).expect("fault text parses");
    run(&RunSpec {
        faults: Some(&fspec),
        policy,
        observe: observe(reg),
        memory: Some(&c.mem),
        ..RunSpec::new(&job(c, pipeline, exchange), &c.spec)
    })
}

/// Render every case of the matrix.
fn render_all() -> String {
    let mut out = String::new();
    let strategies = [Strategy::TwoPhase, Strategy::MemoryConscious];

    // Fault-free: the plain runners.
    for rw in [Rw::Write, Rw::Read] {
        for s in strategies {
            let c = solo(s, rw);
            writeln!(out, "== simulate {} {}", label(s), rw.name()).unwrap();
            pin_report(&mut out, &simulate(&c.plan, &c.map, &c.spec));
            writeln!(out, "== simulate_opts double {} {}", label(s), rw.name()).unwrap();
            let double = job(&c, Pipeline::DoubleBuffered, Exchange::Direct);
            pin_report(
                &mut out,
                &run(&RunSpec::new(&double, &c.spec)).jobs[0].report,
            );
            writeln!(out, "== simulate_two_level {} {}", label(s), rw.name()).unwrap();
            let two_level = job(&c, Pipeline::Serial, Exchange::TwoLevel);
            pin_report(
                &mut out,
                &run(&RunSpec::new(&two_level, &c.spec)).jobs[0].report,
            );
            writeln!(out, "== trace_plan {} {}", label(s), rw.name()).unwrap();
            let traced = run(&RunSpec {
                observe: Observe {
                    trace: true,
                    ..Observe::default()
                },
                ..RunSpec::new(&job(&c, Pipeline::Serial, Exchange::Direct), &c.spec)
            });
            pin_report(&mut out, &traced.jobs[0].report);
            pin_trace(&mut out, traced.trace_json().as_deref());
        }
    }

    // Observed: two-level exchange with double buffering.
    for s in strategies {
        let c = solo(s, Rw::Write);
        let reg = Registry::shared();
        let (r, t) = simulate_observed(
            &c.plan,
            &c.map,
            &c.spec,
            Pipeline::DoubleBuffered,
            Exchange::TwoLevel,
            observe(&reg),
        );
        writeln!(out, "== simulate_observed two-level double {}", label(s)).unwrap();
        pin_report(&mut out, &r);
        pin_trace(&mut out, t.as_deref());
        pin_registry(&mut out, &reg);
    }

    // Faulted: OST-only and structural faults, both strategies.
    for (name, text) in [("ost-only", OST_ONLY), ("structural", STRUCTURAL)] {
        for s in strategies {
            let c = solo(s, Rw::Write);
            let reg = Registry::shared();
            let (pl, ex, off) = (Pipeline::Serial, Exchange::Direct, AdaptivePolicy::Off);
            let o = resilient(&c, pl, ex, text, off, &reg);
            writeln!(out, "== simulate_faulted {name} {}", label(s)).unwrap();
            pin_resilient(&mut out, &o, &reg);
        }
    }

    // The closed-loop controller, conservative and aggressive.
    for policy in [AdaptivePolicy::Conservative, AdaptivePolicy::Aggressive] {
        for s in strategies {
            let c = solo(s, Rw::Write);
            let reg = Registry::shared();
            let (pl, ex) = (Pipeline::DoubleBuffered, Exchange::Direct);
            let o = resilient(&c, pl, ex, ADAPTIVE, policy, &reg);
            writeln!(out, "== simulate_adaptive {} {}", policy.label(), label(s)).unwrap();
            pin_resilient(&mut out, &o, &reg);
        }
    }

    // A brown-out the controller waits out, under the two-level
    // exchange.
    for s in strategies {
        let c = brownout_case(s);
        let reg = Registry::shared();
        let (pl, ex, policy) = (
            Pipeline::Serial,
            Exchange::TwoLevel,
            AdaptivePolicy::Aggressive,
        );
        let o = resilient(&c, pl, ex, BROWNOUT, policy, &reg);
        writeln!(out, "== simulate_adaptive brownout two-level {}", label(s)).unwrap();
        pin_resilient(&mut out, &o, &reg);
    }

    // Shared machine: one job alone, then two overlapping tenants
    // under faults, static and adaptive.
    let spec = MtSpec::parse(include_str!("fixtures/overlap.mtspec")).expect("fixture parses");
    let jobs = spec.build_jobs();
    {
        let reg = Registry::shared();
        let mt = run(&RunSpec {
            observe: observe(&reg),
            ..RunSpec::new(&jobs[..1], &spec.machine)
        });
        writeln!(out, "== run_multitenant one-job").unwrap();
        pin_mt(&mut out, &mt);
        pin_registry(&mut out, &reg);
    }
    {
        let reg = Registry::shared();
        let mt = run(&RunSpec {
            faults: spec.faults.as_ref(),
            observe: observe(&reg),
            ..RunSpec::new(&jobs, &spec.machine)
        });
        writeln!(out, "== run_multitenant two-job faulted").unwrap();
        pin_mt(&mut out, &mt);
        pin_registry(&mut out, &reg);
    }
    let degraded = FaultSpec::parse(ADAPTIVE).expect("fault text parses");
    for (name, fspec) in [
        ("fixture", spec.faults.as_ref()),
        ("degraded", Some(&degraded)),
    ] {
        for policy in [AdaptivePolicy::Conservative, AdaptivePolicy::Aggressive] {
            let reg = Registry::shared();
            let mt = run(&RunSpec {
                faults: fspec,
                policy,
                observe: observe(&reg),
                ..RunSpec::new(&jobs, &spec.machine)
            });
            writeln!(
                out,
                "== run_multitenant_adaptive two-job {name} {}",
                policy.label()
            )
            .unwrap();
            pin_mt(&mut out, &mt);
            pin_registry(&mut out, &reg);
        }
    }

    // Reads through the paths above: a traced two-level, double-buffered
    // read (its trace carries the `scatter.` legs), structural faults
    // (the read branches of failover re-targeting and re-rounding), and
    // the aggressive controller.
    for s in strategies {
        let c = solo(s, Rw::Read);
        let reg = Registry::shared();
        let (r, t) = simulate_observed(
            &c.plan,
            &c.map,
            &c.spec,
            Pipeline::DoubleBuffered,
            Exchange::TwoLevel,
            observe(&reg),
        );
        writeln!(
            out,
            "== simulate_observed two-level double {} read",
            label(s)
        )
        .unwrap();
        pin_report(&mut out, &r);
        pin_trace(&mut out, t.as_deref());
        pin_registry(&mut out, &reg);
    }
    for (name, text, policy) in [
        ("structural", STRUCTURAL, AdaptivePolicy::Off),
        ("aggressive", ADAPTIVE, AdaptivePolicy::Aggressive),
    ] {
        for s in strategies {
            let c = solo(s, Rw::Read);
            let reg = Registry::shared();
            let (pl, ex) = (Pipeline::Serial, Exchange::Direct);
            let o = resilient(&c, pl, ex, text, policy, &reg);
            writeln!(out, "== resilient read {name} {}", label(s)).unwrap();
            pin_resilient(&mut out, &o, &reg);
        }
    }
    out
}

#[test]
fn every_runner_matches_its_pinned_bytes() {
    let actual = render_all();
    let expected = include_str!("fixtures/runner_pins.txt");
    if actual != expected {
        let first = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
        panic!(
            "runner output drifted from fixtures/runner_pins.txt at line {}:\n  \
             actual:   {:?}\n  expected: {:?}\nfull actual document:\n{actual}",
            first + 1,
            actual.lines().nth(first),
            expected.lines().nth(first),
        );
    }
}
