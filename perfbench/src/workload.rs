//! The four benchmark workloads: how each builds its inputs from the
//! seed, what one repetition runs, and how its outputs are checked.
//!
//! Every call into a simulator layer sits inside a [`Prof`] scope named
//! after the per-layer metric it feeds (`plan.tp`, `analyze.parse`, …);
//! freeing a layer's product is charged to the scope that built it.
//! With a disabled profiler the scopes cost nothing, so the untraced
//! run times the same calls the traced run attributes.

use mcio_analyze::{critical_path, TraceModel};
use mcio_bench::{Harness, TESTBED_PPN};
use mcio_cluster::spec::ClusterSpec;
use mcio_core::exec_sim::{simulate_observed, Exchange, Observe, Pipeline};
use mcio_core::plan::CollectivePlan;
use mcio_core::{mcio, twophase, CollectiveConfig, CollectiveRequest, ProcMemory, Rw, Strategy};
use mcio_des::SharePolicy;
use mcio_prof::Prof;
use mcio_sched::{run_schedule, JobTrace, Policy, SchedConfig, Schedule};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The seed whose inputs are the committed reference configurations
/// (seed 1 reproduces the perf suite's fig6 cell exactly).
pub const DEFAULT_SEED: u64 = 1;

const MIB: u64 = 1 << 20;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// coll_perf 3D subarray write, 120 ranks: flattening and planning.
    Subarray3dWrite,
    /// Interleaved IOR read, 1080 ranks: trace emission and analysis.
    IorRead,
    /// IOR write on the exascale_2018 machine: lowering and the DES.
    ExaWrite,
    /// A synthetic job stream under conservative backfill: the scheduler.
    JobstreamBackfill,
}

/// Input size: the benchmark's full size, or a reduced one for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// Same shape, small enough for a unit test.
    Reduced,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Subarray3dWrite,
        Workload::IorRead,
        Workload::ExaWrite,
        Workload::JobstreamBackfill,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Subarray3dWrite => "subarray3d_write",
            Workload::IorRead => "ior_read",
            Workload::ExaWrite => "exa_write",
            Workload::JobstreamBackfill => "jobstream_backfill",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The access pattern a collective workload generates.
#[derive(Debug, Clone, Copy)]
enum Pattern {
    /// coll_perf with every array dimension divided by `scale`.
    CollPerf { scale: u64 },
    /// Interleaved IOR.
    Ior { per_proc: u64, segments: u64 },
}

/// A collective workload: one request planned by each strategy, each
/// plan simulated under each engine.
#[derive(Debug, Clone, Copy)]
struct Collective {
    machine: fn() -> ClusterSpec,
    ranks: usize,
    ppn: usize,
    buffer: u64,
    pattern: Pattern,
    rw: Rw,
    /// Memory-draw seed at [`DEFAULT_SEED`].
    base_seed: u64,
    strategies: &'static [Strategy],
    engines: &'static [SharePolicy],
    /// Emit the simulated machine's Chrome trace and analyze it.
    traced: bool,
}

/// A job-stream workload.
#[derive(Debug, Clone, Copy)]
struct Stream {
    machine: &'static str,
    jobs: usize,
    /// `JobTrace::synthetic` seed: fixes arrivals, sizes and strategies.
    stream_seed: u64,
}

#[derive(Debug, Clone, Copy)]
enum Shape {
    Collective(Collective),
    Stream(Stream),
}

const BOTH: &[Strategy] = &[Strategy::TwoPhase, Strategy::MemoryConscious];
const FIFO: &[SharePolicy] = &[SharePolicy::Fifo];

fn small_machine() -> ClusterSpec {
    ClusterSpec::small(8, 4)
}

fn shape(w: Workload, scale: Scale) -> Shape {
    let full = scale == Scale::Full;
    match w {
        // The perf suite's fig6 cell.
        Workload::Subarray3dWrite => Shape::Collective(Collective {
            machine: ClusterSpec::testbed_120,
            ranks: if full { 120 } else { 24 },
            ppn: TESTBED_PPN,
            buffer: if full { 16 * MIB } else { MIB },
            pattern: Pattern::CollPerf {
                scale: if full { 2 } else { 16 },
            },
            rw: Rw::Write,
            base_seed: 0xF166,
            strategies: BOTH,
            engines: FIFO,
            traced: true,
        }),
        // The perf suite's fig8 shape, read instead of written.
        Workload::IorRead => Shape::Collective(Collective {
            machine: ClusterSpec::testbed_1080,
            ranks: if full { 1080 } else { 48 },
            ppn: TESTBED_PPN,
            buffer: if full { 16 * MIB } else { MIB },
            pattern: Pattern::Ior {
                per_proc: if full { 8 * MIB } else { MIB },
                segments: if full { 8 } else { 2 },
            },
            rw: Rw::Read,
            base_seed: 0xF168,
            strategies: BOTH,
            engines: FIFO,
            traced: true,
        }),
        // The perf suite's exascale scenario at 2^16 of its 10^6 nodes.
        Workload::ExaWrite => Shape::Collective(Collective {
            machine: if full {
                ClusterSpec::exascale_2018
            } else {
                small_machine
            },
            ranks: if full { 1 << 16 } else { 8 },
            ppn: 1,
            buffer: 16 * MIB,
            pattern: Pattern::Ior {
                per_proc: MIB,
                segments: 1,
            },
            rw: Rw::Write,
            base_seed: 0xE2018,
            strategies: &[Strategy::MemoryConscious],
            engines: &[SharePolicy::Fifo, SharePolicy::FairShare],
            traced: false,
        }),
        Workload::JobstreamBackfill => Shape::Stream(Stream {
            machine: if full { "small:32x2" } else { "small:8x2" },
            jobs: if full { 96 } else { 12 },
            stream_seed: 1,
        }),
    }
}

/// `base` at the default seed, shifted by the seed's distance from it.
fn derive_seed(base: u64, seed: u64) -> u64 {
    base.wrapping_add(seed.wrapping_sub(DEFAULT_SEED))
}

/// Everything one repetition consumes, built by [`setup`].
pub enum Inputs {
    /// A collective request and the machine it runs on.
    Collective {
        /// The flattened request.
        req: CollectiveRequest,
        /// Machine model and rank placement.
        harness: Harness,
        /// Per-rank available memory.
        env: ProcMemory,
        /// Planner knobs.
        cfg: CollectiveConfig,
    },
    /// A job stream.
    Stream(JobTrace),
}

impl Inputs {
    /// A digest of the generated inputs; differs between seeds.
    pub fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        match self {
            Inputs::Collective { req, env, .. } => format!("{req:?}{env:?}").hash(&mut h),
            Inputs::Stream(trace) => trace.serialize().hash(&mut h),
        }
        h.finish()
    }
}

/// Build a workload's inputs for `seed`. The seed draws the memory
/// available to each rank (for a stream: to each job's ranks); the
/// access pattern, machine and stream shape are fixed, so the work a
/// repetition does is about the same at every seed.
pub fn setup(w: Workload, scale: Scale, seed: u64, prof: &Prof) -> Result<Inputs, String> {
    match shape(w, scale) {
        Shape::Collective(c) => {
            let _s = prof.scope("workloads.gen");
            let req = match c.pattern {
                Pattern::CollPerf { scale } => {
                    mcio_workloads::CollPerf::paper(c.ranks, scale).request(c.rw)
                }
                Pattern::Ior { per_proc, segments } => {
                    mcio_workloads::Ior::paper(c.ranks, per_proc, segments).request(c.rw)
                }
            };
            let harness = Harness::new(
                (c.machine)(),
                c.ranks,
                c.ppn,
                derive_seed(c.base_seed, seed),
            );
            let (_, env) = harness.memories(c.buffer);
            let cfg = harness.config_for(&req, c.buffer);
            Ok(Inputs::Collective {
                req,
                harness,
                env,
                cfg,
            })
        }
        Shape::Stream(s) => {
            let _s = prof.scope("workloads.gen");
            let mut trace = JobTrace::synthetic(s.machine, s.stream_seed, s.jobs)?;
            for job in &mut trace.jobs {
                job.seed = derive_seed(job.seed, seed);
            }
            Ok(Inputs::Stream(trace))
        }
    }
}

/// One operation: a plan-and-simulate cell, or one schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// `strategy/engine`, or `backfill` for a schedule.
    pub label: String,
    /// Simulated elapsed time (a schedule's makespan), nanoseconds.
    pub elapsed_ns: u64,
    /// Every deterministic output of the cell, compared across
    /// repetitions.
    pub digest: Vec<u64>,
    /// Why the cell failed, if it did.
    pub error: Option<String>,
}

/// Deterministic work counters of one repetition.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    /// Flattened request extents.
    pub extents: u64,
    /// Extents summed over every plan call (extents × plans).
    pub extents_planned: u64,
    /// Shuffle messages over all plans.
    pub messages: u64,
    /// Contiguous PFS requests over all plans.
    pub io_requests: u64,
    /// Aggregators over all plans.
    pub aggregators: u64,
    /// Activities lowered.
    pub activities: u64,
    /// Simulated resources built.
    pub resources: u64,
    /// Events fired, all engines.
    pub events: u64,
    /// Events fired under the FIFO engine.
    pub fifo_events: u64,
    /// Events fired under the fair-sharing engine.
    pub fair_events: u64,
    /// Events cancelled.
    pub events_cancelled: u64,
    /// Largest event-heap high-water mark of any cell.
    pub heap_high_water: u64,
    /// Bytes of simulated-machine Chrome trace.
    pub trace_bytes: u64,
    /// Spans parsed from those traces.
    pub spans: u64,
    /// Jobs scheduled.
    pub jobs: u64,
    /// Backfill dispatches.
    pub backfills: u64,
    /// Peak pending-queue depth.
    pub max_queue_depth: u64,
}

/// What one repetition produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// The repetition's operations.
    pub cells: Vec<Cell>,
    /// Its work counters.
    pub counters: Counters,
}

impl Outcome {
    /// Operations that failed.
    pub fn failed(&self) -> u64 {
        self.cells.iter().filter(|c| c.error.is_some()).count() as u64
    }
}

/// Labels of the operations one repetition of `w` runs.
pub fn cell_labels(w: Workload) -> Vec<String> {
    match shape(w, Scale::Full) {
        Shape::Collective(c) => c
            .strategies
            .iter()
            .flat_map(|s| c.engines.iter().map(move |e| cell_label(*s, *e)))
            .collect(),
        Shape::Stream(_) => vec!["backfill".to_string()],
    }
}

fn cell_label(s: Strategy, e: SharePolicy) -> String {
    format!("{}/{}", s.label(), e.label())
}

/// Run one repetition on `inputs` and check its outputs.
pub fn run(w: Workload, scale: Scale, inputs: Inputs, prof: &Prof) -> Outcome {
    guarded(cell_labels(w), || match (shape(w, scale), inputs) {
        (
            Shape::Collective(c),
            Inputs::Collective {
                req,
                harness,
                env,
                cfg,
            },
        ) => run_collective(&c, req, harness, env, cfg, prof),
        (Shape::Stream(_), Inputs::Stream(trace)) => run_stream(trace, Policy::Backfill, prof),
        _ => unreachable!("inputs were built for another workload"),
    })
}

/// Run `f`; a panic in the program fails every operation in `labels`
/// instead of ending the run.
pub fn guarded(labels: Vec<String>, f: impl FnOnce() -> Outcome) -> Outcome {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let why = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string());
        Outcome {
            cells: labels
                .into_iter()
                .map(|label| Cell {
                    label,
                    elapsed_ns: 0,
                    digest: Vec::new(),
                    error: Some(format!("panicked: {why}")),
                })
                .collect(),
            counters: Counters::default(),
        }
    })
}

fn plan_with(
    strategy: Strategy,
    req: &CollectiveRequest,
    harness: &Harness,
    env: &ProcMemory,
    cfg: &CollectiveConfig,
    prof: &Prof,
) -> CollectivePlan {
    let _s = prof.scope(plan_scope(strategy));
    match strategy {
        Strategy::TwoPhase => twophase::plan(req, &harness.map, env, cfg),
        Strategy::MemoryConscious => mcio::plan(req, &harness.map, env, cfg),
    }
}

fn plan_scope(strategy: Strategy) -> &'static str {
    match strategy {
        Strategy::TwoPhase => "plan.tp",
        Strategy::MemoryConscious => "plan.mc",
    }
}

fn sched_scope(policy: Policy) -> &'static str {
    match policy {
        Policy::Fcfs => "sched.fcfs",
        _ => "sched.backfill",
    }
}

fn run_collective(
    c: &Collective,
    req: CollectiveRequest,
    harness: Harness,
    env: ProcMemory,
    cfg: CollectiveConfig,
    prof: &Prof,
) -> Outcome {
    let extents: u64 = req.ranks.iter().map(|r| r.extents.len() as u64).sum();
    let mut out = Outcome {
        cells: Vec::new(),
        counters: Counters {
            extents,
            ..Counters::default()
        },
    };
    for &strategy in c.strategies {
        let plan = plan_with(strategy, &req, &harness, &env, &cfg, prof);
        let checked = {
            let _s = prof.scope("plan.check");
            plan.check(&req)
        };
        let stats = {
            let _s = prof.scope("plan.check");
            plan.stats(None)
        };
        let k = &mut out.counters;
        k.extents_planned += extents;
        k.messages += stats.messages as u64;
        k.io_requests += stats.io_requests as u64;
        k.aggregators += stats.naggs as u64;
        for &engine in c.engines {
            let (timing, trace) = {
                let _s = prof.scope(match engine {
                    SharePolicy::Fifo => "sim.fifo",
                    SharePolicy::FairShare => "sim.fair",
                });
                simulate_observed(
                    &plan,
                    &harness.map,
                    &harness.spec,
                    Pipeline::Serial,
                    Exchange::Direct,
                    Observe {
                        registry: None,
                        trace: c.traced,
                        prof: Some(prof),
                        engine,
                    },
                )
            };
            let e = &timing.engine;
            let k = &mut out.counters;
            k.activities += e.activities;
            k.resources += e.resources;
            k.events += e.events_fired;
            match engine {
                SharePolicy::Fifo => k.fifo_events += e.events_fired,
                SharePolicy::FairShare => k.fair_events += e.events_fired,
            }
            k.events_cancelled += e.events_cancelled;
            k.heap_high_water = k.heap_high_water.max(e.heap_high_water);
            let elapsed_ns = timing.elapsed.as_nanos();
            let mut digest = vec![
                elapsed_ns,
                timing.bytes,
                e.events_fired,
                e.events_cancelled,
                e.heap_high_water,
                e.activities,
                e.resources,
                stats.messages as u64,
                stats.io_requests as u64,
                stats.naggs as u64,
            ];
            let mut error = checked.clone().err().map(|e| format!("plan check: {e}"));
            if let Some(json) = trace {
                k.trace_bytes += json.len() as u64;
                match analyze(&json, elapsed_ns, prof) {
                    Ok((spans, buckets)) => {
                        k.spans += spans;
                        digest.push(json.len() as u64);
                        digest.push(spans);
                        digest.extend(buckets);
                    }
                    Err(e) => error = error.or(Some(e)),
                }
                let _s = prof.scope("analyze.parse");
                drop(json);
            }
            out.cells.push(Cell {
                label: cell_label(strategy, engine),
                elapsed_ns,
                digest,
                error,
            });
        }
        let _s = prof.scope(plan_scope(strategy));
        drop(plan);
    }
    let _s = prof.scope("workloads.gen");
    drop((req, harness, env));
    out
}

/// Parse a simulated-machine trace and attribute its critical path.
/// Returns the span count and the five buckets, which must sum to the
/// simulated elapsed time exactly.
fn analyze(json: &str, elapsed_ns: u64, prof: &Prof) -> Result<(u64, [u64; 5]), String> {
    let model = {
        let _s = prof.scope("analyze.parse");
        TraceModel::from_chrome_json(json).map_err(|e| format!("trace parse: {e}"))?
    };
    let cp = {
        let _s = prof.scope("analyze.critical_path");
        critical_path(&model)
    };
    let spans = model.spans.len() as u64;
    {
        let _s = prof.scope("analyze.parse");
        drop(model);
    }
    let buckets = [
        cp.network_shuffle_ns,
        cp.ost_io_ns,
        cp.memory_wait_ns,
        cp.retry_degraded_ns,
        cp.idle_ns,
    ];
    let sum: u64 = buckets.iter().sum();
    if sum != elapsed_ns || cp.elapsed_ns != elapsed_ns {
        return Err(format!(
            "critical-path buckets sum to {sum} ns (path elapsed {}), simulation elapsed {elapsed_ns} ns",
            cp.elapsed_ns
        ));
    }
    Ok((spans, buckets))
}

/// Schedule a stream under `policy` (one scheduling thread) and check
/// the schedule.
pub fn run_stream(trace: JobTrace, policy: Policy, prof: &Prof) -> Outcome {
    let cfg = SchedConfig {
        policy,
        admission: false,
        jobs: 1,
        collect_trace: false,
    };
    let schedule = {
        let _s = prof.scope(sched_scope(policy));
        run_schedule(&trace, &cfg, None)
    };
    let mut digest = vec![
        schedule.makespan_ns,
        schedule.backfills,
        schedule.max_queue_depth as u64,
    ];
    digest.extend(schedule.dispatch_order.iter().map(|&i| i as u64));
    digest.extend(schedule.jobs.iter().map(|j| j.end_ns));
    let out = Outcome {
        counters: Counters {
            jobs: schedule.jobs.len() as u64,
            backfills: schedule.backfills,
            max_queue_depth: schedule.max_queue_depth as u64,
            ..Counters::default()
        },
        cells: vec![Cell {
            label: policy.label().to_string(),
            elapsed_ns: schedule.makespan_ns,
            digest,
            error: check_schedule(&schedule, trace.jobs.len()).err(),
        }],
    };
    {
        let _s = prof.scope(sched_scope(policy));
        drop(schedule);
    }
    let _s = prof.scope("workloads.gen");
    drop(trace);
    out
}

/// The dispatch order is a permutation of the stream, and every
/// backfill kept its reservation: the jumping job's committed end and
/// the blocked head's real start both fall at or before the head's
/// reserved start.
pub fn check_schedule(s: &Schedule, jobs: usize) -> Result<(), String> {
    let mut seen = vec![false; jobs];
    for &i in &s.dispatch_order {
        if i >= jobs || std::mem::replace(&mut seen[i], true) {
            return Err(format!("dispatch order is not a permutation: job {i}"));
        }
    }
    if s.dispatch_order.len() != jobs || s.jobs.len() != jobs {
        return Err(format!(
            "{} of {jobs} jobs dispatched",
            s.dispatch_order.len()
        ));
    }
    for r in &s.reservations {
        let head_start = s.jobs[r.head].dispatch_ns;
        if r.predicted_end_ns > r.reserved_start_ns || head_start > r.reserved_start_ns {
            return Err(format!(
                "reservation violated: head {} reserved at {} ns started at {head_start} ns, \
                 backfilled job {} ends at {} ns",
                r.head, r.reserved_start_ns, r.backfilled, r.predicted_end_ns
            ));
        }
    }
    Ok(())
}

/// A simulated result the default seed must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    /// Cell label.
    pub cell: &'static str,
    /// Simulated elapsed nanoseconds (makespan for a schedule).
    pub elapsed_ns: u64,
}

/// Committed references of each workload at [`DEFAULT_SEED`] and full
/// size. The subarray3d_write cells are the fig6 records of
/// `BENCH_perf_suite.json`; the others were recorded when the benchmark
/// was added.
pub fn references(w: Workload) -> &'static [Reference] {
    const fn r(cell: &'static str, elapsed_ns: u64) -> Reference {
        Reference { cell, elapsed_ns }
    }
    const SUBARRAY3D_WRITE: &[Reference] = &[
        r("two-phase/fifo", 2_852_119_340),
        r("memory-conscious/fifo", 2_015_279_999),
    ];
    const IOR_READ: &[Reference] = &[
        r("two-phase/fifo", 3_911_878_820),
        r("memory-conscious/fifo", 3_193_379_890),
    ];
    const EXA_WRITE: &[Reference] = &[
        r("memory-conscious/fifo", 5_690_826),
        r("memory-conscious/fair", 5_690_826),
    ];
    const JOBSTREAM_BACKFILL: &[Reference] = &[r("backfill", 478_138_346)];
    match w {
        Workload::Subarray3dWrite => SUBARRAY3D_WRITE,
        Workload::IorRead => IOR_READ,
        Workload::ExaWrite => EXA_WRITE,
        Workload::JobstreamBackfill => JOBSTREAM_BACKFILL,
    }
}

/// Fail every cell whose simulated result differs from its reference.
pub fn check_references(cells: &mut [Cell], refs: &[Reference]) {
    for r in refs {
        for cell in cells.iter_mut().filter(|c| c.label == r.cell) {
            if cell.elapsed_ns != r.elapsed_ns && cell.error.is_none() {
                cell.error = Some(format!(
                    "{}: simulated {} ns, reference {} ns",
                    r.cell, cell.elapsed_ns, r.elapsed_ns
                ));
            }
        }
    }
}
