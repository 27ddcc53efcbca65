//! Differential conformance properties: the two strategies must agree on
//! *what* ends up in the file (bytes), and the resilient executor with
//! nothing to inject must agree with the plain observed executor on
//! *everything* (timing, metrics, trace bytes).
//!
//! Patterns are randomized over the four access shapes the planners care
//! about — contiguous, strided, nested (two-level strided with holes),
//! and overlapping — so a divergence anywhere in group division, the
//! partition tree, placement, or round scheduling shows up as a byte
//! diff here.

use mcio_cluster::spec::ClusterSpec;
use mcio_cluster::ProcessMap;
use mcio_core::{
    exec_fn, mcio, run, simulate_observed, twophase, CollectiveConfig, CollectivePlan,
    CollectiveRequest, Exchange, Extent, Observe, Pipeline, ProcMemory, RunSpec, Rw, Strategy,
    TenantJob,
};
use mcio_faults::FaultSpec;
use mcio_pfs::SparseFile;
use proptest::prelude::*;

const KIB: u64 = 1024;

/// The four access shapes of the differential suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// Rank `r` owns one contiguous chunk at `r * chunk`.
    Contiguous,
    /// Round-robin blocks: rank `r` writes block `b` at
    /// `(b * nranks + r) * bs` — the classic interleaved pattern.
    Strided,
    /// Two-level strided with holes: outer tiles per rank, inner blocks
    /// separated by gaps, so coverage is non-contiguous at both levels.
    Nested,
    /// Rank `r` starts at `r * chunk / 2`: every chunk overlaps half of
    /// each neighbor's. Writers agree byte-for-byte (the payload is a
    /// pure function of the absolute file offset), so the merged file is
    /// still well-defined.
    Overlapping,
}

fn build_request(shape: Shape, nranks: usize, bs: u64, blocks: usize) -> CollectiveRequest {
    let per_rank: Vec<Vec<Extent>> = (0..nranks as u64)
        .map(|r| match shape {
            Shape::Contiguous => {
                let chunk = bs * blocks as u64;
                vec![Extent::new(r * chunk, chunk)]
            }
            Shape::Strided => (0..blocks as u64)
                .map(|b| Extent::new((b * nranks as u64 + r) * bs, bs))
                .collect(),
            Shape::Nested => {
                // Outer tile = every rank's inner run; inner blocks leave
                // a bs-sized hole after each block.
                let inner_span = 2 * bs * blocks as u64;
                let outer_stride = nranks as u64 * inner_span;
                (0..2u64)
                    .flat_map(|o| {
                        (0..blocks as u64).map(move |i| {
                            Extent::new(o * outer_stride + r * inner_span + i * 2 * bs, bs)
                        })
                    })
                    .collect()
            }
            Shape::Overlapping => {
                let chunk = bs * blocks as u64;
                vec![Extent::new(r * chunk / 2, chunk)]
            }
        })
        .collect();
    CollectiveRequest::new(Rw::Write, per_rank)
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

/// Execute a write plan and return the full file image over the hull.
fn file_image(plan: &CollectivePlan, req: &CollectiveRequest) -> Vec<u8> {
    let mut file = SparseFile::new();
    exec_fn::execute_write(plan, &mut file).expect("plan executes");
    exec_fn::verify_write(req, &file).expect("written bytes match the oracle");
    let hull = req.hull();
    file.read_vec(0, hull.end() as usize)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Two-phase and memory-conscious plans of the same request produce
    /// byte-identical files — over the requested coverage *and* the
    /// holes (no strategy writes a byte nobody asked for).
    #[test]
    fn strategies_agree_on_file_bytes(
        shape in prop::sample::select(vec![
            Shape::Contiguous, Shape::Strided, Shape::Nested, Shape::Overlapping,
        ]),
        nranks in prop::sample::select(vec![6usize, 8, 12]),
        ppn in prop::sample::select(vec![2usize, 4]),
        bs in prop::sample::select(vec![4 * KIB, 16 * KIB, 64 * KIB]),
        blocks in 1usize..5,
        buf_blocks in 1u64..5,
        uneven in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let req = build_request(shape, nranks, bs, blocks);
        let map = ProcessMap::block_ppn(nranks, ppn);
        let budget = bs * buf_blocks;
        let mem = if uneven {
            ProcMemory::normal(nranks, budget, 0.35, seed)
        } else {
            ProcMemory::uniform(nranks, budget)
        };
        let cfg = CollectiveConfig::with_buffer(budget)
            .msg_ind(2 * budget)
            .msg_group(8 * budget)
            .mem_min(0);

        let tp = plan_for(Strategy::TwoPhase, &req, &map, &mem, &cfg);
        let mc = plan_for(Strategy::MemoryConscious, &req, &map, &mem, &cfg);
        prop_assert!(tp.check(&req).is_ok(), "{:?}", tp.check(&req));
        prop_assert!(mc.check(&req).is_ok(), "{:?}", mc.check(&req));
        prop_assert_eq!(
            file_image(&tp, &req),
            file_image(&mc, &req),
            "strategies diverged on shape {:?}", shape
        );
    }

    /// A resilient run with an **empty** fault plan is observationally
    /// identical to `simulate_observed`: same timing report (including
    /// structured metrics), same trace bytes, no recovery activity.
    #[test]
    fn empty_fault_plan_matches_observed_exactly(
        shape in prop::sample::select(vec![
            Shape::Contiguous, Shape::Strided, Shape::Nested, Shape::Overlapping,
        ]),
        strategy in prop::sample::select(vec![
            Strategy::TwoPhase, Strategy::MemoryConscious,
        ]),
        nranks in prop::sample::select(vec![8usize, 12]),
        pipeline in prop::sample::select(vec![Pipeline::Serial, Pipeline::DoubleBuffered]),
        exchange in prop::sample::select(vec![Exchange::Direct, Exchange::TwoLevel]),
        fault_seed in 0u64..u64::MAX,
    ) {
        let bs = 64 * KIB;
        let req = build_request(shape, nranks, bs, 3);
        let map = ProcessMap::block_ppn(nranks, 4);
        let mem = ProcMemory::uniform(nranks, 4 * bs);
        let cfg = CollectiveConfig::with_buffer(4 * bs);
        let cluster = ClusterSpec::small(map.nnodes(), 4);
        let plan = plan_for(strategy, &req, &map, &mem, &cfg);

        let (report, trace) = simulate_observed(
            &plan, &map, &cluster, pipeline, exchange,
            Observe { registry: None, trace: true, prof: None, ..Observe::default() },
        );
        // The empty spec still carries a seed and retry policy; with no
        // events they must never influence the run.
        let empty = FaultSpec { seed: fault_seed, ..FaultSpec::default() };
        prop_assert!(empty.is_empty());
        let job = [TenantJob::new("solo", plan.clone(), map.clone())
            .pipeline(pipeline)
            .exchange(exchange)];
        let run = run(&RunSpec {
            faults: Some(&empty),
            observe: Observe { registry: None, trace: true, prof: None, ..Observe::default() },
            memory: Some(&mem),
            ..RunSpec::new(&job, &cluster)
        });
        let out = run.recovery.as_ref().expect("a faulted run reports recovery");

        prop_assert!(out.completed);
        prop_assert_eq!(out.failovers, 0);
        prop_assert_eq!(out.degraded_rounds, 0);
        prop_assert_eq!(out.retries, 0);
        prop_assert_eq!(&out.executed_plan, &plan, "plan must pass through untransformed");
        prop_assert_eq!(&run.jobs[0].report, &report, "timing must match the observed executor");
        prop_assert_eq!(run.trace_json(), trace, "trace bytes must match the observed executor");
    }
}
