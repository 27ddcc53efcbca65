//! Property-based tests of the resilient executor: arbitrary budget
//! degradation sequences keep the transformed plan byte-conserving and
//! fully covering, and any seeded fault plan replays deterministically.

use mcio_cluster::spec::ClusterSpec;
use mcio_cluster::ProcessMap;
use mcio_core::{
    exec_fn, mcio, run, CollectiveConfig, CollectivePlan, CollectiveRequest, Extent, FaultOutcome,
    Observe, ProcMemory, RunSpec, Rw, TenantJob, TimingReport,
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

/// One resilient run, as the properties read it.
struct Faulted {
    report: TimingReport,
    trace: Option<String>,
    recovery: FaultOutcome,
}

fn run_faulted(
    plan: &CollectivePlan,
    map: &ProcessMap,
    spec: &ClusterSpec,
    mem: &ProcMemory,
    fspec: &FaultSpec,
    trace: bool,
) -> Faulted {
    let jobs = [TenantJob::new("solo", plan.clone(), map.clone())];
    let mut out = run(&RunSpec {
        faults: Some(fspec),
        observe: Observe {
            registry: None,
            trace,
            prof: None,
            ..Observe::default()
        },
        memory: Some(mem),
        ..RunSpec::new(&jobs, spec)
    });
    Faulted {
        trace: out.trace_json(),
        report: out.jobs.remove(0).report,
        recovery: out.recovery.expect("a faulted run reports recovery"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any sequence of memory shocks — arbitrary nodes, drop fractions
    /// and times — degrades rounds without breaking the plan contract:
    /// the executed plan still passes `check()` (byte conservation per
    /// I/O op, full leaf coverage, buffer bounds) and writes bytes
    /// identical to the fault-free plan.
    #[test]
    fn degradation_sequences_preserve_bytes_and_coverage(
        ranks in prop::sample::select(vec![8usize, 12, 16]),
        shocks in prop::collection::vec(
            (0usize..4, 1u32..95, 0u64..300_000_000), 1..5),
    ) {
        let chunk = 2 * MIB;
        let req = serial_request(ranks, chunk);
        let map = ProcessMap::block_ppn(ranks, 4);
        let mem = ProcMemory::uniform(ranks, chunk);
        let cfg = CollectiveConfig::with_buffer(chunk);
        let cluster = ClusterSpec::small(map.nnodes(), 4);
        let plan = mcio::plan(&req, &map, &mem, &cfg);
        let golden = written(&plan, ranks as u64 * chunk);

        let mut text = String::from("seed 9\n");
        for (node, drop_pct, at_ns) in &shocks {
            let node = node % map.nnodes();
            text += &format!(
                "mem_shock({node}, 0.{drop_pct:02}, {at_ns}ns)\n");
        }
        let fspec = FaultSpec::parse(&text).expect("generated spec parses");

        let out = run_faulted(&plan, &map, &cluster, &mem, &fspec, false);
        prop_assert!(out.recovery.completed, "memory-conscious must absorb memory shocks");
        prop_assert!(out.recovery.executed_plan.check(&req).is_ok(),
            "degraded plan violates the plan contract: {:?}",
            out.recovery.executed_plan.check(&req));
        prop_assert_eq!(written(&out.recovery.executed_plan, ranks as u64 * chunk), golden);
    }

    /// Any seeded fault plan — slow OSTs, transient failures, crashes,
    /// shocks in any combination — replays byte-identically: two runs
    /// with the same seed produce the same trace JSON, the same elapsed
    /// time, and the same output bytes.
    #[test]
    fn seeded_fault_plans_replay_deterministically(
        ranks in prop::sample::select(vec![8usize, 16]),
        seed in 1u64..u64::MAX,
        use_slow in any::<bool>(),
        slow in (0u32..2, 15u32..80, 0u64..100_000_000),
        use_transient in any::<bool>(),
        transient in (1u32..60, 1u64..u64::MAX),
        use_crash in any::<bool>(),
        crash in 0u64..400_000_000,
        use_shock in any::<bool>(),
        shock in (5u32..90, 0u64..200_000_000),
    ) {
        let chunk = MIB;
        let req = serial_request(ranks, chunk);
        let map = ProcessMap::block_ppn(ranks, 4);
        let mem = ProcMemory::uniform(ranks, chunk);
        let cfg = CollectiveConfig::with_buffer(chunk);
        let cluster = ClusterSpec::small(map.nnodes(), 4);
        let plan = mcio::plan(&req, &map, &mem, &cfg);
        let agg_node = map.node_of(plan.groups[0].aggregators[0].rank).0;

        let mut text = format!("seed {seed}\n");
        if use_slow {
            let (ost, tenths, at) = slow;
            text += &format!("ost_slow({ost}, {}.{}, {at}ns..{}ns)\n",
                1 + tenths / 10, tenths % 10, at + 50_000_000);
        }
        if use_transient {
            let (pct, fseed) = transient;
            text += &format!("req_transient_fail(0.{pct:02}, {fseed})\n");
        }
        if use_crash {
            text += &format!("agg_crash({agg_node}, {crash}ns)\n");
        }
        if use_shock {
            let (pct, at) = shock;
            text += &format!("mem_shock({agg_node}, 0.{pct:02}, {at}ns)\n");
        }
        let fspec = FaultSpec::parse(&text).expect("generated spec parses");

        let a = run_faulted(&plan, &map, &cluster, &mem, &fspec, true);
        let b = run_faulted(&plan, &map, &cluster, &mem, &fspec, true);
        prop_assert_eq!(a.report.elapsed, b.report.elapsed);
        prop_assert_eq!(a.recovery.completed, b.recovery.completed);
        prop_assert_eq!(&a.trace, &b.trace, "identical seeds must replay the same trace");
        prop_assert!(a.trace.is_some());
        if a.recovery.completed {
            let total = ranks as u64 * chunk;
            prop_assert_eq!(
                written(&a.recovery.executed_plan, total),
                written(&b.recovery.executed_plan, total));
        }
    }
}
