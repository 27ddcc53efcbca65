//! Ablation study: which of the memory-conscious design's components
//! (DESIGN.md §5) buys how much, on the Figure-7 IOR configuration.
//!
//! * group division off → one aggregation group spanning all nodes;
//! * memory-aware placement off → blind first-candidate placement
//!   ([`PlacementPolicy::FirstCandidate`]): the group/partition
//!   structure survives but aggregators ignore memory;
//! * remerging: measured in a *starved-nodes* scenario (two nodes with
//!   almost no free memory, two-node groups), where `Mem_min` actually
//!   fires — under the normal truncated-normal environment every node
//!   has a viable host and remerging is a no-op safety net;
//! * `N_ah` sweep and memory-variance sweep.

use mcio_bench::{format_bytes, improvement_pct, Harness, TESTBED_PPN};
use mcio_cluster::spec::ClusterSpec;
use mcio_core::{
    mcio, run, simulate, twophase, CollectivePlan, Exchange, Pipeline, PlacementPolicy, ProcMemory,
    RunSpec, Rw, TenantJob, TimingReport,
};
use mcio_workloads::Ior;

/// `plan` alone on `h`'s machine with the given round schedule.
fn scheduled(
    plan: CollectivePlan,
    h: &Harness,
    pipeline: Pipeline,
    exchange: Exchange,
) -> TimingReport {
    let jobs = [TenantJob::new("ablation", plan, h.map.clone())
        .pipeline(pipeline)
        .exchange(exchange)];
    run(&RunSpec::new(&jobs, &h.spec)).jobs.remove(0).report
}

fn main() {
    const MIB: u64 = 1 << 20;
    let h = Harness::new(ClusterSpec::testbed_120(), 120, TESTBED_PPN, 0xAB1A);
    let ior = Ior::paper(120, 32 * MIB, 8);
    let req = ior.request(Rw::Write);

    for buf in [4 * MIB, 32 * MIB] {
        let (_, env) = h.memories(buf);
        let cfg = h.config_for(&req, buf);
        let base = simulate(&twophase::plan(&req, &h.map, &env, &cfg), &h.map, &h.spec);
        println!(
            "\n== ablation at nominal buffer {} (two-phase baseline {:.0} MiB/s) ==",
            format_bytes(buf),
            base.bandwidth_mibs
        );
        let row = |label: &str, bw: f64| {
            println!(
                "{label:<42} {bw:>8.1} MiB/s  ({:+.1}% vs baseline)",
                improvement_pct(base.bandwidth_mibs, bw)
            );
        };

        let full = simulate(&mcio::plan(&req, &h.map, &env, &cfg), &h.map, &h.spec);
        row("memory-conscious (full)", full.bandwidth_mibs);

        let one_group = cfg.clone().msg_group(req.total_bytes());
        let p = simulate(&mcio::plan(&req, &h.map, &env, &one_group), &h.map, &h.spec);
        row("  without group division (single group)", p.bandwidth_mibs);

        let blind = cfg.clone().placement(PlacementPolicy::FirstCandidate);
        let p = simulate(&mcio::plan(&req, &h.map, &env, &blind), &h.map, &h.spec);
        row("  without memory-aware placement (blind)", p.bandwidth_mibs);

        for nah in [1usize, 2, 4] {
            let c = cfg.clone().nah(nah);
            let p = simulate(&mcio::plan(&req, &h.map, &env, &c), &h.map, &h.spec);
            row(&format!("  N_ah = {nah}"), p.bandwidth_mibs);
        }

        // Two-level exchange: on-node combining before the wire (the
        // abstract's "intra-node and inter-node layer" coordination).
        {
            let (pl, ex) = (Pipeline::Serial, Exchange::TwoLevel);
            let b = scheduled(twophase::plan(&req, &h.map, &env, &cfg), &h, pl, ex);
            let m = scheduled(mcio::plan(&req, &h.map, &env, &cfg), &h, pl, ex);
            println!(
                "  two-level exchange  : baseline {:>7.1}, MC {:>7.1} ({:+.1}%)",
                b.bandwidth_mibs,
                m.bandwidth_mibs,
                improvement_pct(b.bandwidth_mibs, m.bandwidth_mibs)
            );
        }

        // Double-buffered rounds (two aggregation buffers): overlap the
        // next exchange with the current file access — costs 2x the
        // aggregator memory, so it is exactly the optimization memory
        // pressure takes away.
        for (label, pl) in [
            ("serial", Pipeline::Serial),
            ("double-buffered", Pipeline::DoubleBuffered),
        ] {
            let ex = Exchange::Direct;
            let b = scheduled(twophase::plan(&req, &h.map, &env, &cfg), &h, pl, ex);
            let m = scheduled(mcio::plan(&req, &h.map, &env, &cfg), &h, pl, ex);
            println!(
                "  rounds {label:<16}: baseline {:>7.1}, MC {:>7.1} ({:+.1}%)",
                b.bandwidth_mibs,
                m.bandwidth_mibs,
                improvement_pct(b.bandwidth_mibs, m.bandwidth_mibs)
            );
        }

        // Server-side concurrency absorbs queueing: with 2 service slots
        // per OST, both strategies gain, and the baseline's small-window
        // imbalance hurts less.
        for slots in [1usize, 2, 4] {
            let mut spec2 = h.spec.clone();
            spec2.ost_concurrency = slots;
            let b = simulate(&twophase::plan(&req, &h.map, &env, &cfg), &h.map, &spec2);
            let m = simulate(&mcio::plan(&req, &h.map, &env, &cfg), &h.map, &spec2);
            println!(
                "  OST service slots {slots}: baseline {:>7.1}, MC {:>7.1} ({:+.1}%)",
                b.bandwidth_mibs,
                m.bandwidth_mibs,
                improvement_pct(b.bandwidth_mibs, m.bandwidth_mibs)
            );
        }

        for sd in [0.2, 0.35, 0.5] {
            let env = ProcMemory::normal(h.map.nranks(), buf, sd, h.seed);
            let b = simulate(&twophase::plan(&req, &h.map, &env, &cfg), &h.map, &h.spec);
            let m = simulate(&mcio::plan(&req, &h.map, &env, &cfg), &h.map, &h.spec);
            println!(
                "  memory stddev {sd:.2}: baseline {:>7.1}, MC {:>7.1} ({:+.1}%)",
                b.bandwidth_mibs,
                m.bandwidth_mibs,
                improvement_pct(b.bandwidth_mibs, m.bandwidth_mibs)
            );
        }
    }

    // Remerging scenario: nodes 1 and 3 are memory-starved (every rank
    // there has 64 KiB free). Two-node groups pair each starved node
    // with a healthy neighbor, so remerging (driven by Mem_min) can move
    // the starved domains next door.
    println!("\n== remerging under starved nodes (2-node groups, 16 MiB nominal) ==");
    let buf = 16 * MIB;
    let mut budgets = ProcMemory::normal(120, buf, 0.35, h.seed)
        .budgets()
        .to_vec();
    for (rank, budget) in budgets.iter_mut().enumerate() {
        let node = rank / TESTBED_PPN;
        if node == 1 || node == 3 {
            *budget = 64 * 1024;
        }
    }
    let env = ProcMemory::from_budgets(budgets);
    let per_two_nodes = req.total_bytes() / 5;
    let cfg = h
        .config(buf)
        .nah(2)
        .msg_group(per_two_nodes)
        .msg_ind(per_two_nodes / 4)
        .mem_min(buf / 2);
    let base = simulate(&twophase::plan(&req, &h.map, &env, &cfg), &h.map, &h.spec);
    let with = simulate(&mcio::plan(&req, &h.map, &env, &cfg), &h.map, &h.spec);
    let without = simulate(
        &mcio::plan(&req, &h.map, &env, &cfg.clone().mem_min(0)),
        &h.map,
        &h.spec,
    );
    println!(
        "two-phase baseline                 {:>8.1} MiB/s",
        base.bandwidth_mibs
    );
    println!(
        "MC with remerging (Mem_min = buf/2) {:>7.1} MiB/s  ({:+.1}%)",
        with.bandwidth_mibs,
        improvement_pct(base.bandwidth_mibs, with.bandwidth_mibs)
    );
    println!(
        "MC without remerging (Mem_min = 0)  {:>7.1} MiB/s  ({:+.1}%)",
        without.bandwidth_mibs,
        improvement_pct(base.bandwidth_mibs, without.bandwidth_mibs)
    );
}
