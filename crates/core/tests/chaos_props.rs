//! Chaos property suite for the closed-loop adaptive controller.
//!
//! A seeded generator assembles arbitrary fault plans — slow and
//! stalled OSTs, transient request failures, aggregator crashes,
//! memory shocks, in any mix — and runs them through
//! the resilient [`run`] under every policy and both strategies. The
//! contracts:
//!
//! * every generated plan *terminates* and the executed plan still
//!   passes `check()` (byte conservation per I/O op, full leaf
//!   coverage, buffer bounds);
//! * when the run completes, the written file bytes are identical to
//!   the fault-free golden image — the controller re-plans *time*,
//!   never *data*;
//! * chaos runs replay deterministically, trace bytes included;
//! * `AdaptivePolicy::Off` with an *empty* fault plan is byte-identical
//!   to `simulate_observed` for both strategies — the controller is a
//!   conservative extension of the static executor.

use mcio_cluster::spec::ClusterSpec;
use mcio_cluster::ProcessMap;
use mcio_core::{
    exec_fn, mcio, run, simulate_observed, twophase, AdaptiveOutcome, AdaptivePolicy,
    CollectiveConfig, CollectivePlan, CollectiveRequest, Exchange, Extent, FaultOutcome, Observe,
    Pipeline, ProcMemory, RunSpec, Rw, Strategy, TenantJob, TimingReport,
};
use mcio_faults::FaultSpec;
use mcio_pfs::SparseFile;
use proptest::prelude::*;

const MIB: u64 = 1 << 20;

/// Disjoint per-rank extents (one contiguous chunk each) so the written
/// file is exactly the concatenation of rank payloads: any lost or
/// duplicated byte shows up in the comparison.
fn serial_request(ranks: usize, chunk: u64) -> CollectiveRequest {
    CollectiveRequest::new(
        Rw::Write,
        (0..ranks as u64)
            .map(|r| vec![Extent::new(r * chunk, chunk)])
            .collect(),
    )
}

fn written(plan: &CollectivePlan, len: u64) -> Vec<u8> {
    let mut file = SparseFile::new();
    exec_fn::execute_write(plan, &mut file).expect("executed plan delivers its bytes");
    file.read_vec(0, len as usize)
}

fn plan_for(
    strategy: Strategy,
    req: &CollectiveRequest,
    map: &ProcessMap,
    mem: &ProcMemory,
    cfg: &CollectiveConfig,
) -> CollectivePlan {
    match strategy {
        Strategy::TwoPhase => twophase::plan(req, map, mem, cfg),
        Strategy::MemoryConscious => mcio::plan(req, map, mem, cfg),
    }
}

/// One generated chaos event: `(kind, a, b, t)` decoded per kind so a
/// single flat tuple strategy covers the whole DSL.
type RawEvent = (u8, u32, u32, u64);

/// Render a generated event list as fault-DSL text. Windowed events get
/// disjoint windows by construction (slot `i` owns
/// `[i*20ms, i*20ms + len)` with `len < 20ms`), so the generator can
/// never trip the overlapping-`ost_stall` validation — overlap
/// rejection is a *spec authoring* error, not a chaos outcome.
fn render_chaos(seed: u64, events: &[RawEvent], nnodes: usize, agg_node: usize) -> String {
    let mut text = format!("seed {seed}\n");
    for (i, &(kind, a, b, t)) in events.iter().enumerate() {
        let slot = i as u64 * 20_000_000;
        let len = 1 + t % 19_000_000;
        match kind % 5 {
            0 => {
                let tenths = 11 + a % 80;
                text += &format!(
                    "ost_slow({}, {}.{}, {slot}ns..{}ns)\n",
                    a % 4,
                    tenths / 10,
                    tenths % 10,
                    slot + len
                );
            }
            1 => {
                text += &format!("ost_stall({}, {slot}ns..{}ns)\n", a % 4, slot + len);
            }
            2 => {
                text += &format!("req_transient_fail(0.{:02}, {})\n", 1 + a % 40, 1 + t);
            }
            3 => {
                text += &format!(
                    "mem_shock({}, 0.{:02}, {}ns)\n",
                    a as usize % nnodes,
                    5 + b % 90,
                    t % 300_000_000
                );
            }
            _ => {
                text += &format!("agg_crash({agg_node}, {}ns)\n", t % 400_000_000);
            }
        }
    }
    text
}

/// One resilient run, as the properties read it.
struct Adapted {
    report: TimingReport,
    trace: Option<String>,
    adaptive: AdaptiveOutcome,
    recovery: FaultOutcome,
}

/// `plan` alone under `fspec` and `policy` with serial rounds,
/// structural recovery armed.
fn run_adaptive(
    plan: &CollectivePlan,
    map: &ProcessMap,
    spec: &ClusterSpec,
    mem: &ProcMemory,
    fspec: &FaultSpec,
    policy: AdaptivePolicy,
    trace: bool,
) -> Adapted {
    let job = TenantJob::new("solo", plan.clone(), map.clone());
    run_job(job, spec, mem, fspec, policy, trace)
}

/// `job` alone under `fspec` and `policy`, structural recovery armed.
fn run_job(
    job: TenantJob,
    spec: &ClusterSpec,
    mem: &ProcMemory,
    fspec: &FaultSpec,
    policy: AdaptivePolicy,
    trace: bool,
) -> Adapted {
    let jobs = [job];
    let mut out = run(&RunSpec {
        faults: Some(fspec),
        policy,
        observe: Observe {
            registry: None,
            trace,
            prof: None,
            ..Observe::default()
        },
        memory: Some(mem),
        ..RunSpec::new(&jobs, spec)
    });
    let trace = out.trace_json();
    let job = out.jobs.remove(0);
    Adapted {
        report: job.report,
        trace,
        adaptive: job.adaptive,
        recovery: out.recovery.expect("a faulted run reports recovery"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any generated fault plan, any policy, either strategy: the run
    /// terminates, the executed plan honors the plan contract, and a
    /// completed run writes exactly the fault-free bytes.
    #[test]
    fn chaos_plans_terminate_with_byte_conserved_output(
        ranks in prop::sample::select(vec![8usize, 16]),
        strategy in prop::sample::select(vec![
            Strategy::TwoPhase, Strategy::MemoryConscious,
        ]),
        policy in prop::sample::select(vec![
            AdaptivePolicy::Off, AdaptivePolicy::Conservative, AdaptivePolicy::Aggressive,
        ]),
        seed in 1u64..u64::MAX,
        events in prop::collection::vec(
            (0u8..5, any::<u32>(), any::<u32>(), any::<u64>()), 1..6),
    ) {
        let chunk = MIB;
        let req = serial_request(ranks, chunk);
        let map = ProcessMap::block_ppn(ranks, 4);
        let mem = ProcMemory::uniform(ranks, chunk);
        let cfg = CollectiveConfig::with_buffer(chunk);
        let cluster = ClusterSpec::small(map.nnodes(), 4);
        let plan = plan_for(strategy, &req, &map, &mem, &cfg);
        let golden = written(&plan, ranks as u64 * chunk);
        let agg_node = map.node_of(plan.groups[0].aggregators[0].rank).0;

        let text = render_chaos(seed, &events, map.nnodes(), agg_node);
        let fspec = FaultSpec::parse(&text).expect("generated chaos spec parses");

        // Terminates by construction of the DES (this call returning IS
        // the termination property); the contract checks come after.
        let out = run_adaptive(&plan, &map, &cluster, &mem, &fspec, policy, false);
        prop_assert!(out.recovery.executed_plan.check(&req).is_ok(),
            "chaos-transformed plan violates the plan contract: {:?}",
            out.recovery.executed_plan.check(&req));
        if out.recovery.completed {
            prop_assert_eq!(written(&out.recovery.executed_plan, ranks as u64 * chunk), golden,
                "a completed chaos run must write the fault-free bytes");
        }
    }

    /// Chaos runs replay deterministically under every policy: same
    /// plan, same seed, same trace bytes.
    #[test]
    fn chaos_runs_replay_deterministically(
        policy in prop::sample::select(vec![
            AdaptivePolicy::Conservative, AdaptivePolicy::Aggressive,
        ]),
        seed in 1u64..u64::MAX,
        events in prop::collection::vec(
            (0u8..5, any::<u32>(), any::<u32>(), any::<u64>()), 1..5),
    ) {
        let ranks = 8usize;
        let chunk = MIB;
        let req = serial_request(ranks, chunk);
        let map = ProcessMap::block_ppn(ranks, 4);
        let mem = ProcMemory::uniform(ranks, chunk);
        let cfg = CollectiveConfig::with_buffer(chunk);
        let cluster = ClusterSpec::small(map.nnodes(), 4);
        let plan = mcio::plan(&req, &map, &mem, &cfg);
        let agg_node = map.node_of(plan.groups[0].aggregators[0].rank).0;

        let text = render_chaos(seed, &events, map.nnodes(), agg_node);
        let fspec = FaultSpec::parse(&text).expect("generated chaos spec parses");

        let a = run_adaptive(&plan, &map, &cluster, &mem, &fspec, policy, true);
        let b = run_adaptive(&plan, &map, &cluster, &mem, &fspec, policy, true);
        prop_assert_eq!(a.report.elapsed, b.report.elapsed);
        prop_assert_eq!(a.recovery.completed, b.recovery.completed);
        prop_assert_eq!(&a.adaptive, &b.adaptive,
            "controller decisions must replay identically");
        prop_assert_eq!(&a.trace, &b.trace, "trace bytes must replay identically");
    }

    /// `AdaptivePolicy::Off` with an empty fault plan takes exactly the
    /// static code path: elapsed time and trace bytes are identical to
    /// `simulate_observed`, for both strategies.
    #[test]
    fn off_policy_empty_plan_matches_observed_byte_for_byte(
        strategy in prop::sample::select(vec![
            Strategy::TwoPhase, Strategy::MemoryConscious,
        ]),
        ranks in prop::sample::select(vec![8usize, 12]),
        pipeline in prop::sample::select(vec![Pipeline::Serial, Pipeline::DoubleBuffered]),
        mem_seed in 0u64..1000,
    ) {
        let chunk = MIB;
        let req = serial_request(ranks, chunk);
        let map = ProcessMap::block_ppn(ranks, 4);
        let mem = ProcMemory::normal(ranks, chunk, 0.3, mem_seed);
        let cfg = CollectiveConfig::with_buffer(chunk);
        let cluster = ClusterSpec::small(map.nnodes(), 4);
        let plan = plan_for(strategy, &req, &map, &mem, &cfg);
        let empty = FaultSpec::parse("seed 1\n").expect("empty spec parses");
        prop_assert!(empty.is_empty());

        let (obs_report, obs_trace) = simulate_observed(
            &plan, &map, &cluster, pipeline, Exchange::Direct,
            Observe { registry: None, trace: true, prof: None, ..Observe::default() },
        );
        let job = TenantJob::new("solo", plan.clone(), map.clone()).pipeline(pipeline);
        let off = run_job(job, &cluster, &mem, &empty, AdaptivePolicy::Off, true);
        prop_assert_eq!(off.report.elapsed, obs_report.elapsed,
            "Off + empty plan must not perturb the schedule");
        prop_assert_eq!(off.trace.as_deref(), obs_trace.as_deref(),
            "Off + empty plan must emit byte-identical traces");
        prop_assert!(off.recovery.completed);
        prop_assert_eq!(off.adaptive, AdaptiveOutcome::default(),
            "the controller must not have acted");
    }
}
