//! An idle simulated resource costs (almost) nothing.
//!
//! The `exascale_2018` machine registers 3×10^6 node servers and 1024
//! OSTs. A job touching one node must pay for that node, not for the
//! machine: registering the fabric and the file system is two resource
//! ranges, and the DES builds service state only for what the job uses.
//! Measured with the counting allocator, so the file only builds with
//! `--features count-alloc`:
//!
//! ```sh
//! cargo test -p mcio-bench --features count-alloc --test idle_footprint
//! ```
#![cfg(feature = "count-alloc")]

use mcio_cluster::spec::ClusterSpec;
use mcio_cluster::{Fabric, ProcessMap};
use mcio_core::{
    simulate, CollectiveConfig, CollectiveRequest, Extent, PlanCache, ProcMemory, Rw, Strategy,
};
use mcio_des::Simulation;
use mcio_pfs::Pfs;
use mcio_prof::alloc;

const MIB: u64 = 1 << 20;

/// Registered resources of `exascale_2018`: three per node plus the OSTs.
const EXASCALE_RESOURCES: u64 = 3 * 1_000_000 + 1024;

/// Bytes allocated while `f` runs. Single test per binary, so no other
/// thread allocates meanwhile.
fn allocated<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = alloc::snapshot();
    let out = f();
    (out, alloc::snapshot().bytes - before.bytes)
}

#[test]
fn a_one_node_job_on_the_exascale_machine_pays_for_one_node() {
    assert!(alloc::enabled(), "the counting allocator is installed");
    let spec = ClusterSpec::exascale_2018();

    let (sim, registered) = allocated(|| {
        let mut sim = Simulation::new();
        Fabric::build(&mut sim, &spec);
        Pfs::build(&mut sim, &spec);
        sim
    });
    assert_eq!(sim.resource_count() as u64, EXASCALE_RESOURCES);
    assert!(
        registered < 64 * 1024,
        "registering the machine allocated {registered} bytes"
    );
    drop(sim);

    // Eight ranks on node 0, each writing 1 MiB; planned outside the
    // measured window.
    let ranks = 8;
    let chunk = MIB;
    let req = CollectiveRequest::new(
        Rw::Write,
        (0..ranks as u64)
            .map(|r| vec![Extent::new(r * chunk, chunk)])
            .collect(),
    );
    let map = ProcessMap::block_ppn(ranks, ranks);
    let mem = ProcMemory::normal(ranks, chunk, 0.35, 1);
    let cfg = CollectiveConfig::with_buffer(chunk);
    let plan = PlanCache::new().get_or_plan(Strategy::MemoryConscious, &req, &map, &mem, &cfg);

    let (report, bytes) = allocated(|| simulate(&plan, &map, &spec));
    assert_eq!(report.engine.resources, EXASCALE_RESOURCES);
    assert!(
        bytes < 64 * MIB,
        "simulating a one-node job allocated {bytes} bytes"
    );
}
