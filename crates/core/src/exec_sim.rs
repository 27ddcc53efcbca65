//! The timing executor: replays a collective plan on the machine model.
//!
//! Lowers the plan onto [`mcio_des`] activities using the cluster fabric
//! (per-node memory buses + NICs) and the PFS model (per-OST FIFO
//! queues):
//!
//! * Each round's per-pair transfers become message activities (inter-
//!   node: membus → NIC → wire → NIC → membus; intra-node: memory bus
//!   only).
//! * For writes, each aggregator's I/O waits for the messages addressed
//!   to it, then issues one PFS request per coalesced extent; for reads,
//!   the I/O comes first and the distribution messages wait on it.
//! * Rounds chain: under [`SyncMode::Global`] round *r+1* of *everyone*
//!   waits for round *r* of *everyone* (ROMIO's global `alltoallv`);
//!   under [`SyncMode::PerGroup`] each group chains independently.
//!
//! The result is the collective's makespan, reported as aggregate
//! bandwidth the way the paper's figures are (total bytes / elapsed).
//!
//! # One runner
//!
//! Every simulation goes through one core, `run_machine`: it lowers
//! N ≥ 1 jobs into a single DES over one [`Fabric`] and one [`Pfs`],
//! each job behind its own arrival gate and release gates, runs it,
//! and attributes busy time, round phases, metrics and trace lanes per
//! job. The public surface is [`run`] over a [`RunSpec`] — jobs,
//! machine, fault plan, controller policy, what to observe, and the
//! memory budgets structural recovery needs — plus two one-job
//! shorthands: [`simulate`] (the paper's default run) and
//! [`simulate_observed`]. Fault recovery ([`crate::exec_faults`]) and
//! shared-machine tenancy ([`crate::multitenant`]) are layers that
//! decide what to lower and then call the same core, including for
//! their probe passes and solo baselines.

use crate::adaptive::{AdaptiveOutcome, AdaptivePolicy};
use crate::config::Strategy;
use crate::exec_faults::FaultOutcome;
use crate::memory::ProcMemory;
use crate::multitenant::merge_intervals;
use crate::plan::{orient, CollectivePlan, Round, SyncMode};
use mcio_cluster::spec::ClusterSpec;
use mcio_cluster::{Fabric, NodeId, Port, ProcessMap, Rank};
use mcio_des::{Activity, ActivityId, SharePolicy, SimDuration, SimTime, Simulation};
use mcio_faults::{FaultEvent, FaultSpec};
use mcio_obs::{Registry, TraceCollector};
use mcio_pfs::{Pfs, RetryMark, Rw};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Phase durations of one round slot (one synchronized step of one
/// chain).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundPhase {
    /// Which round chain the slot belongs to (groups under per-group
    /// sync; a single chain under global sync).
    pub chain: usize,
    /// Round index within the chain.
    pub round: usize,
    /// Time attributed to the data shuffle.
    pub exchange: SimDuration,
    /// Time attributed to the file access.
    pub io: SimDuration,
}

/// Structured metrics of one simulated collective, always computed
/// alongside the [`TimingReport`] scalars.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunMetrics {
    /// `exchange_time / (exchange_time + io_time)`, in `[0, 1]`. Unlike
    /// the raw attribution sums (which grow with the number of
    /// independent chains) this is normalized, so it compares safely
    /// across plans with different group counts.
    pub exchange_fraction: f64,
    /// `io_time / (exchange_time + io_time)`, in `[0, 1]`.
    pub io_fraction: f64,
    /// Per round-slot phase durations, chain-major.
    pub rounds: Vec<RoundPhase>,
    /// Per-aggregator file-access time, summed over its rounds: the span
    /// from its first PFS request starting to its last completing,
    /// keyed by rank index.
    pub agg_io: Vec<(usize, SimDuration)>,
}

/// Timing results of one simulated collective.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    /// Wall-clock (simulated) duration of the collective.
    pub elapsed: SimDuration,
    /// Critical-path time attributed to the data-shuffle phase.
    ///
    /// **Summation semantics:** this is an *attribution sum* over round
    /// chains. Under [`SyncMode::PerGroup`] every group contributes its
    /// own chain, and concurrent chains each add their full phase time,
    /// so `exchange_time + io_time` can exceed `elapsed` (they partition
    /// `elapsed` only for a single chain). For cross-plan comparison use
    /// the normalized [`RunMetrics::exchange_fraction`] instead.
    pub exchange_time: SimDuration,
    /// Critical-path time attributed to the file-access phase (same
    /// attribution-sum semantics as
    /// [`exchange_time`](TimingReport::exchange_time); see
    /// [`RunMetrics::io_fraction`] for the normalized form).
    pub io_time: SimDuration,
    /// Total requested bytes moved.
    pub bytes: u64,
    /// Aggregate bandwidth in MiB/s (the paper's y-axis).
    pub bandwidth_mibs: f64,
    /// Busiest memory bus: total busy time.
    pub membus_busy_max: SimDuration,
    /// Busiest NIC (either direction): total busy time.
    pub nic_busy_max: SimDuration,
    /// Busiest OST: total busy time.
    pub ost_busy_max: SimDuration,
    /// Sum of OST busy time (storage work actually performed).
    pub ost_busy_total: SimDuration,
    /// Number of DES activities (diagnostic).
    pub activities: usize,
    /// Deterministic engine-side counters of the run (events, heap and
    /// ready-set high-water marks, per-class queue depths) — the
    /// `deterministic` payload of the `mcio.prof.v1` sidecar. In a
    /// multi-tenant run this is machine-wide, like the busy maxima.
    pub engine: mcio_des::EngineProfile,
    /// Structured per-round / per-aggregator breakdown.
    pub metrics: RunMetrics,
}

/// Scheduling of consecutive rounds within a chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Pipeline {
    /// Round `r+1` starts only after round `r` finished completely (a
    /// single aggregation buffer; the model the paper's prototype uses).
    #[default]
    Serial,
    /// Double buffering: round `r+1`'s exchange overlaps round `r`'s
    /// file access (two aggregation buffers per aggregator — twice the
    /// memory, the classic ROMIO `cb` pipelining).
    DoubleBuffered,
}

/// Shape of the shuffle exchange (the paper's "coordinates I/O accesses
/// in intra-node and inter-node layer").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Exchange {
    /// Every rank messages the aggregator directly (flat alltoallv).
    #[default]
    Direct,
    /// Two-level: ranks sharing a node first combine their pieces at a
    /// node leader over the memory bus, and one message per (node,
    /// aggregator) pair crosses the network — fewer, larger NIC
    /// transfers at the cost of an extra on-node copy.
    TwoLevel,
}

/// Absolute window of one executed round slot, for fault analysis:
/// which rounds were still in flight when an event struck.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RoundWindow {
    /// Plan group the slot served (`None` = all groups, global sync).
    pub group: Option<usize>,
    /// Round index within the chain.
    pub round: usize,
    /// Slot start (after its gates), nanoseconds.
    pub start_ns: u64,
    /// Last phase completion of the slot, nanoseconds.
    pub end_ns: u64,
}

/// A release gate on one round slot: it may not start before
/// `release`. Failover gates model detection + re-selection after a
/// crash at `from`; controller gates hold a round past a degraded
/// window or a demotion.
#[derive(Debug, Clone)]
pub(crate) struct FaultGate {
    /// Plan group the gate applies to (`None` = the global chain).
    pub group: Option<usize>,
    /// Round index the gate holds back.
    pub round: usize,
    /// The crash instant (trace span start).
    pub from: SimTime,
    /// Earliest start of the gated round.
    pub release: SimTime,
    /// Activity and trace label, e.g. `failover.g0.r2` (the job prefix
    /// is added at lowering).
    pub label: String,
    /// True for closed-loop controller gates (defer/demote): they ride
    /// the pid-5 replan lanes instead of the pid-3 failover lane.
    pub adaptive: bool,
}

/// One decision of the closed-loop controller, destined for the pid-5
/// "replan" trace lanes. `cat` selects the lane: `retune` (tid 0),
/// `defer` (tid 1), `demote` (tid 2), `resplit` (tid 3). When `slot`
/// is set the span snaps to that executed round window; otherwise
/// `start_ns`/`dur_ns` place it directly.
#[derive(Debug, Clone)]
pub(crate) struct ReplanMark {
    /// Span name, e.g. `defer.g0.r2` (the job prefix is added at
    /// emission).
    pub name: String,
    /// Lane category: `retune` | `defer` | `demote` | `resplit`.
    pub cat: &'static str,
    /// Span start (ignored when `slot` resolves), nanoseconds.
    pub start_ns: u64,
    /// Span duration (ignored when `slot` resolves), nanoseconds.
    pub dur_ns: u64,
    /// Executed round slot to snap to, if any.
    pub slot: Option<(Option<usize>, usize)>,
    /// Chrome-trace args (decision inputs, stringified).
    pub args: Vec<(String, String)>,
}

/// One job of a run: a fully planned collective plus its placement on
/// the machine, its arrival time and its round schedule.
#[derive(Debug, Clone)]
pub struct TenantJob {
    /// Job name (trace lanes, metric labels, reports).
    pub label: String,
    /// The planned collective (pure data; any strategy).
    pub plan: CollectivePlan,
    /// The job's process placement over its *local* nodes
    /// `0..map.nnodes()`; shifted onto the machine by
    /// [`node_offset`](Self::node_offset) at lowering time.
    pub map: ProcessMap,
    /// First machine node of the job's partition. Partitions are
    /// exclusive when offsets don't overlap and shared when they do.
    pub node_offset: usize,
    /// Arrival time: no round of this job starts earlier.
    pub start: SimDuration,
    /// Round pipelining mode.
    pub pipeline: Pipeline,
    /// Exchange shape.
    pub exchange: Exchange,
}

impl TenantJob {
    /// A job at node offset 0, arriving at time 0, with serial rounds
    /// and a direct exchange.
    pub fn new(label: impl Into<String>, plan: CollectivePlan, map: ProcessMap) -> Self {
        Self {
            label: label.into(),
            plan,
            map,
            node_offset: 0,
            start: SimDuration::ZERO,
            pipeline: Pipeline::Serial,
            exchange: Exchange::Direct,
        }
    }

    /// Place the job's nodes at `offset..offset + map.nnodes()`.
    pub fn node_offset(mut self, offset: usize) -> Self {
        self.node_offset = offset;
        self
    }

    /// Delay the job's first round until `start`.
    pub fn start(mut self, start: SimDuration) -> Self {
        self.start = start;
        self
    }

    /// Set the round pipelining mode.
    pub fn pipeline(mut self, pipeline: Pipeline) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Set the exchange shape.
    pub fn exchange(mut self, exchange: Exchange) -> Self {
        self.exchange = exchange;
        self
    }
}

/// Everything one simulation needs: the jobs, the machine they share,
/// what goes wrong on it, how the controller reacts, and what to
/// capture. Build one with [`RunSpec::new`] and struct-update syntax:
///
/// ```
/// use mcio_cluster::{spec::ClusterSpec, ProcessMap};
/// use mcio_core::{mcio, run, CollectiveConfig, CollectiveRequest, Extent, ProcMemory, Rw};
/// use mcio_core::{RunSpec, TenantJob};
///
/// let chunk = 1 << 20;
/// let extents = (0..4u64).map(|r| vec![Extent::new(r * chunk, chunk)]).collect();
/// let req = CollectiveRequest::new(Rw::Write, extents);
/// let map = ProcessMap::block_ppn(4, 2);
/// let mem = ProcMemory::uniform(4, chunk);
/// let plan = mcio::plan(&req, &map, &mem, &CollectiveConfig::with_buffer(chunk));
/// let jobs = [TenantJob::new("ior", plan, map)];
/// let machine = ClusterSpec::small(2, 2);
/// let out = run(&RunSpec {
///     memory: Some(&mem),
///     ..RunSpec::new(&jobs, &machine)
/// });
/// assert!(out.jobs[0].report.bandwidth_mibs > 0.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RunSpec<'a> {
    /// The jobs, lowered in this order into one DES. At least one.
    pub jobs: &'a [TenantJob],
    /// The machine every job runs on.
    pub machine: &'a ClusterSpec,
    /// Machine-level fault plan. OST slowdowns/stalls and transient
    /// request failures perturb the shared PFS for every job; crash and
    /// shock events are recovered from only when [`memory`](Self::memory)
    /// is given.
    pub faults: Option<&'a FaultSpec>,
    /// Closed-loop controller policy. It acts only on memory-conscious
    /// jobs under a non-empty fault plan.
    pub policy: AdaptivePolicy,
    /// What to capture besides the outcome.
    pub observe: Observe<'a>,
    /// Per-rank memory budgets of the run's one job. Giving them makes
    /// the run a *resilient solo run*: structural faults (`agg_crash`,
    /// `mem_shock`) are survived by failover and graceful degradation
    /// ([`crate::exec_faults`]), the controller may also re-tune and
    /// demote, and the registry gains `faults.*` instead of `tenant.*`
    /// metrics. Such a run must hold exactly one job at node offset 0
    /// arriving at time 0 ([`run`] panics otherwise). Without budgets
    /// the run is a *shared-machine run* ([`crate::multitenant`]).
    pub memory: Option<&'a ProcMemory>,
}

impl<'a> RunSpec<'a> {
    /// `jobs` on `machine`: fault-free, controller off, nothing
    /// observed, no structural recovery.
    pub fn new(jobs: &'a [TenantJob], machine: &'a ClusterSpec) -> Self {
        Self {
            jobs,
            machine,
            faults: None,
            policy: AdaptivePolicy::Off,
            observe: Observe::default(),
            memory: None,
        }
    }
}

/// Outcome of one job of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// The job's label, copied from its [`TenantJob`].
    pub label: String,
    /// The strategy its plan used.
    pub strategy: Strategy,
    /// The job's timing view of the run. `elapsed` is the job's *span*
    /// — arrival to last round completion — and the busy maxima are
    /// machine-wide (the resources are shared).
    pub report: TimingReport,
    /// Arrival time, nanoseconds.
    pub start_ns: u64,
    /// Completion of the job's last round slot, nanoseconds.
    pub end_ns: u64,
    /// Elapsed time of the same job simulated alone on the same nodes,
    /// fault-free.
    pub solo_elapsed: SimDuration,
    /// `span / solo_elapsed` — 1.0 means neither tenancy nor faults
    /// cost anything.
    pub slowdown: f64,
    /// Fraction of this job's OST service time overlapping some other
    /// job's OST service time, in `[0, 1]`. Zero for a single job.
    pub ost_overlap: f64,
    /// What the closed-loop controller did for this job (all-zero under
    /// [`AdaptivePolicy::Off`]).
    pub adaptive: AdaptiveOutcome,
}

/// Result of [`run`]: per-job outcomes in job order plus the machine
/// view of the one DES the jobs shared.
#[derive(Debug)]
pub struct RunOutcome {
    /// One outcome per job, in the order the jobs were given.
    pub jobs: Vec<JobOutcome>,
    /// Completion of the last activity of any job.
    pub makespan: SimDuration,
    /// Deterministic engine counters of the shared DES run (the
    /// `mcio.prof.v1` cell a run contributes).
    pub engine: mcio_des::EngineProfile,
    /// The unified timeline when [`Observe::trace`] was set: resource
    /// lanes (pid 1), round phases (pid 2, lanes prefixed `j{n}.` when
    /// several jobs share the machine), fault lanes (pid 3), per-job
    /// window lanes ([`crate::multitenant::PID_TENANTS`], two or more
    /// jobs) and controller decisions (pid 5). Analyze it in memory
    /// with `TraceModel::from_collector` or render it with
    /// [`RunOutcome::trace_json`].
    pub trace: Option<TraceCollector>,
    /// What structural recovery did, for a resilient solo run
    /// ([`RunSpec::memory`]) that carried a fault plan.
    pub recovery: Option<FaultOutcome>,
}

impl RunOutcome {
    /// The trace rendered as Chrome-trace JSON (the `--trace` file
    /// format; open in Perfetto).
    pub fn trace_json(&self) -> Option<String> {
        self.trace.as_ref().map(TraceCollector::chrome_trace_json)
    }
}

/// Simulate a plan on `spec`'s machine with `map`'s process placement
/// (serial rounds, direct exchange): the paper's default run.
pub fn simulate(plan: &CollectivePlan, map: &ProcessMap, spec: &ClusterSpec) -> TimingReport {
    simulate_observed(
        plan,
        map,
        spec,
        Pipeline::Serial,
        Exchange::Direct,
        Observe::default(),
    )
    .0
}

/// What to capture while simulating, beyond the [`TimingReport`].
#[derive(Debug, Default, Clone, Copy)]
pub struct Observe<'a> {
    /// Record planner counters, per-resource utilization, wait-time
    /// histograms, and PFS request metrics into this registry.
    pub registry: Option<&'a Arc<Registry>>,
    /// Capture the unified Chrome-trace timeline.
    pub trace: bool,
    /// Record host-side phase timings (`build-activity-graph`,
    /// `des-run`, `trace-emit`) into this profiler. Wall-clock data:
    /// never enters the timing report or any byte-diffed document.
    pub prof: Option<&'a mcio_prof::Prof>,
    /// Service discipline for every simulated resource (fabric links,
    /// memory buses, OSTs). The default, [`SharePolicy::Fifo`], keeps
    /// the classic store-and-forward engine; [`SharePolicy::FairShare`]
    /// switches to the amortized processor-sharing engine. On workloads
    /// where no resource is ever shared the two produce byte-identical
    /// reports (see `crates/core/tests/engine_equiv.rs`).
    pub engine: SharePolicy,
}

impl Observe<'_> {
    /// The same engine, nothing captured: what the auxiliary passes
    /// (probes, nominal baselines) run with.
    pub(crate) fn engine_only(&self) -> Observe<'static> {
        Observe {
            engine: self.engine,
            ..Observe::default()
        }
    }
}

/// Simulate one plan alone on the machine with the given round
/// schedule, recording what `obs` asks for. Returns the trace as
/// Chrome-trace JSON when [`Observe::trace`] was set. The one-job
/// shorthand of [`run`]: same core, no plan copy, no interference
/// accounting.
pub fn simulate_observed(
    plan: &CollectivePlan,
    map: &ProcessMap,
    spec: &ClusterSpec,
    pipeline: Pipeline,
    exchange: Exchange,
    obs: Observe<'_>,
) -> (TimingReport, Option<String>) {
    let job = MachineJob::new("collective", plan, Cow::Borrowed(map), pipeline, exchange);
    let run = run_machine(std::slice::from_ref(&job), spec, None, obs);
    let trace = run.trace.map(|tc| {
        let _emit_scope = obs.prof.map(|p| p.scope("trace-emit"));
        let json = tc.chrome_trace_json();
        // Freeing the spans is emission work too: drop inside the scope.
        drop(tc);
        json
    });
    let report = run.jobs.into_iter().next().expect("one job ran").report;
    (report, trace)
}

/// Run `spec`: every job lowered into one DES over one fabric and one
/// PFS, under the fault plan and controller the spec names.
///
/// With [`RunSpec::memory`] the run is a resilient solo run
/// ([`crate::exec_faults`]); without it, a shared-machine run
/// ([`crate::multitenant`]). A single fault-free job is the same
/// simulation either way, byte for byte.
///
/// # Panics
/// Panics if `jobs` is empty, if any job's partition exceeds the
/// machine, or if `memory` is given with anything but one job at node
/// offset 0 arriving at time 0 — structural recovery re-plans a job
/// that has the machine to itself, and this is where that scope is
/// enforced.
pub fn run(spec: &RunSpec<'_>) -> RunOutcome {
    assert!(!spec.jobs.is_empty(), "a run needs at least one job");
    match spec.memory {
        Some(mem) => {
            let [job] = spec.jobs else {
                panic!(
                    "structural recovery re-plans a single job, got {} jobs",
                    spec.jobs.len()
                );
            };
            assert!(
                job.node_offset == 0 && job.start.is_zero(),
                "structural recovery needs its job at node offset 0 arriving at time 0"
            );
            crate::exec_faults::run_resilient(spec, job, mem)
        }
        None => crate::multitenant::run_shared(spec),
    }
}

/// One job as [`run_machine`] lowers it: a plan on machine nodes plus
/// everything that gates or annotates its rounds.
pub(crate) struct MachineJob<'a> {
    /// Job name (panic messages, `job` metric labels on shared runs).
    pub label: &'a str,
    /// The plan to lower.
    pub plan: &'a CollectivePlan,
    /// Process placement on *machine* nodes (already shifted).
    pub map: Cow<'a, ProcessMap>,
    /// Arrival: a release-gated activity holds back the first round.
    pub start: SimDuration,
    /// Round pipelining mode.
    pub pipeline: Pipeline,
    /// Exchange shape.
    pub exchange: Exchange,
    /// Release gates on round slots (failover re-coordination,
    /// controller deferral and demotion).
    pub gates: Vec<FaultGate>,
    /// (group, round) slots produced by degradation re-rounding.
    pub degraded: Vec<(Option<usize>, usize)>,
    /// Closed-loop controller decisions (pid-5 "replan" lanes).
    pub replans: Vec<ReplanMark>,
}

impl<'a> MachineJob<'a> {
    /// `plan` on `map`, arriving at time 0, with no gates or marks.
    pub(crate) fn new(
        label: &'a str,
        plan: &'a CollectivePlan,
        map: Cow<'a, ProcessMap>,
        pipeline: Pipeline,
        exchange: Exchange,
    ) -> Self {
        Self {
            label,
            plan,
            map,
            start: SimDuration::ZERO,
            pipeline,
            exchange,
            gates: Vec::new(),
            degraded: Vec::new(),
            replans: Vec::new(),
        }
    }

    /// `job` shifted onto its machine partition, arriving at its start.
    pub(crate) fn of(job: &'a TenantJob) -> Self {
        let map = if job.node_offset == 0 {
            Cow::Borrowed(&job.map)
        } else {
            Cow::Owned(job.map.with_node_offset(job.node_offset))
        };
        Self {
            start: job.start,
            ..Self::new(&job.label, &job.plan, map, job.pipeline, job.exchange)
        }
    }

    /// The same plan on the same nodes, arriving at time 0 with no
    /// gates: the job's nominal solo baseline.
    pub(crate) fn alone(&self) -> MachineJob<'_> {
        MachineJob::new(
            self.label,
            self.plan,
            Cow::Borrowed(&self.map),
            self.pipeline,
            self.exchange,
        )
    }
}

/// One job's view of a [`run_machine`] run.
pub(crate) struct JobRun {
    /// The job's timing report (span, own activities, machine-wide
    /// busy maxima).
    pub report: TimingReport,
    /// Absolute executed window of every round slot.
    pub windows: Vec<RoundWindow>,
    /// Arrival, nanoseconds.
    pub start_ns: u64,
    /// Completion of the last round slot, nanoseconds.
    pub end_ns: u64,
    /// Merged OST service intervals of this job (only recorded when
    /// several jobs share the machine).
    pub ost: Vec<(u64, u64)>,
}

/// What [`run_machine`] produced.
pub(crate) struct MachineRun {
    /// Per-job results, in job order.
    pub jobs: Vec<JobRun>,
    /// Completion of the last activity.
    pub makespan: SimDuration,
    /// Engine counters of the run.
    pub engine: mcio_des::EngineProfile,
    /// Retry chains the PFS expanded (empty without armed faults).
    pub retry_marks: Vec<RetryMark>,
    /// The unified trace when [`Observe::trace`] was set.
    pub trace: Option<TraceCollector>,
}

/// `job` alone on its nodes, arriving at time 0, fault-free: the
/// nominal solo baseline slowdowns are measured against (and the
/// controller's clean timeline).
pub(crate) fn solo_run(job: &MachineJob<'_>, machine: &ClusterSpec, obs: Observe<'_>) -> JobRun {
    run_machine(
        std::slice::from_ref(&job.alone()),
        machine,
        None,
        obs.engine_only(),
    )
    .jobs
    .remove(0)
}

/// `span / solo`, 1.0 for an empty baseline.
pub(crate) fn slowdown(span: SimDuration, solo: SimDuration) -> f64 {
    if solo.is_zero() {
        1.0
    } else {
        span.as_secs_f64() / solo.as_secs_f64()
    }
}

/// Bookkeeping of one lowered job.
struct Lowered {
    meta: Vec<SlotMeta>,
    groups: Vec<Option<usize>>,
    /// Activity-id range `[act_lo, act_hi)` the job created (its gates,
    /// messages, PFS requests and joins): the ownership key for
    /// attributing service records to jobs.
    act_lo: usize,
    act_hi: usize,
    /// Label namespace: `j{n}.` when several jobs share the machine,
    /// `""` otherwise.
    prefix: String,
}

/// One job's pieces after a run, as the trace emitters walk them.
type Part<'p, 'a> = (&'p MachineJob<'a>, &'p Lowered, &'p JobRun);

/// The one simulation core: lower every job into a single DES over one
/// [`Fabric`] and one [`Pfs`] (with `faults` applied), run it, and
/// attribute the result per job. Cross-job contention on OSTs, NICs
/// and memory buses emerges from the shared resource model.
///
/// With one job the labels, trace lanes and metrics are exactly the
/// solo executor's: prefix `""`, no `job` metric label, and DES service
/// records only when a trace was asked for. With several, every label
/// is namespaced `j{n}.` and the DES always records service intervals
/// (the OST-overlap metric needs them).
pub(crate) fn run_machine(
    jobs: &[MachineJob<'_>],
    spec: &ClusterSpec,
    faults: Option<&FaultSpec>,
    obs: Observe<'_>,
) -> MachineRun {
    let multi = jobs.len() > 1;
    let build_scope = obs.prof.map(|p| p.scope("build-activity-graph"));
    let mut sim = Simulation::with_policy(obs.engine);
    if obs.trace || multi {
        sim.enable_trace();
    }
    let fabric = Fabric::build(&mut sim, spec);
    let mut pfs = Pfs::build(&mut sim, spec);
    if let Some(reg) = obs.registry {
        pfs.set_registry(Arc::clone(reg));
    }
    if let Some(fspec) = faults {
        pfs.apply_faults(&mut sim, fspec);
    }

    // Lower every job behind its arrival gate and its release gates,
    // remembering which activity-id range it created.
    let mut lowered: Vec<Lowered> = Vec::with_capacity(jobs.len());
    for (ji, job) in jobs.iter().enumerate() {
        assert!(
            job.map.nnodes() <= fabric.nnodes(),
            "job {} needs {} nodes but the machine has {}",
            job.label,
            job.map.nnodes(),
            fabric.nnodes()
        );
        let prefix = if multi {
            format!("j{ji}.")
        } else {
            String::new()
        };
        let act_lo = sim.activity_count();
        let start_gate = (!job.start.is_zero()).then(|| {
            sim.add_activity(
                Activity::new(format!("{prefix}start")).release_at(SimTime::ZERO + job.start),
            )
        });
        let mut gate_acts: HashMap<(Option<usize>, usize), ActivityId> = HashMap::new();
        for gate in &job.gates {
            let act = sim.add_activity(
                Activity::new(format!("{prefix}{}", gate.label)).release_at(gate.release),
            );
            gate_acts.insert((gate.group, gate.round), act);
        }
        let (meta, groups) = Lowering {
            sim: &mut sim,
            fabric: &fabric,
            pfs: &pfs,
            map: &job.map,
            rw: job.plan.rw,
            exchange: job.exchange,
            prefix: &prefix,
        }
        .lower_plan(job.plan, job.pipeline, &gate_acts, start_gate);
        lowered.push(Lowered {
            meta,
            groups,
            act_lo,
            act_hi: sim.activity_count(),
            prefix,
        });
    }

    drop(build_scope);
    let run_scope = obs.prof.map(|p| p.scope("des-run"));
    let report = sim.run().expect("collective plan DAG is acyclic");
    drop(run_scope);
    let retry_marks = pfs.take_retry_marks();
    let makespan = report.makespan().saturating_since(SimTime::ZERO);
    let (membus_busy_max, nic_busy_max, ost_busy_max, ost_busy_total) =
        busy_maxima(&report, &fabric, &pfs);
    let engine = report.engine_profile();

    // Per-job OST service intervals (for the busy-overlap metric):
    // every service record on an OST resource belongs to exactly one
    // job, found by its activity-id range.
    let mut per_job_ost: Vec<Vec<(u64, u64)>> = vec![Vec::new(); jobs.len()];
    if multi {
        for rec in report.trace().unwrap_or(&[]) {
            if pfs.ost_of(rec.resource).is_none() {
                continue;
            }
            let idx = rec.activity.index();
            if let Some(ji) = lowered
                .iter()
                .position(|l| idx >= l.act_lo && idx < l.act_hi)
            {
                let start = rec.start.saturating_since(SimTime::ZERO).as_nanos();
                let end = rec.end.saturating_since(SimTime::ZERO).as_nanos();
                if end > start {
                    per_job_ost[ji].push((start, end));
                }
            }
        }
    }

    let mut runs: Vec<JobRun> = Vec::with_capacity(jobs.len());
    for ((job, l), ost) in jobs.iter().zip(&lowered).zip(per_job_ost) {
        let Attribution {
            exchange_time,
            io_time,
            rounds,
            windows,
            agg_io,
        } = attribute_phases(job.plan.rw, &report, &l.meta, &l.groups);
        let start_ns = job.start.as_nanos();
        let end_ns = windows
            .iter()
            .map(|w| w.end_ns)
            .max()
            .unwrap_or(start_ns)
            .max(start_ns);
        let span = SimDuration::from_nanos(end_ns - start_ns);
        let bytes: u64 = job.plan.groups.iter().map(|g| g.io_bytes()).sum();
        let bandwidth_mibs = if span.is_zero() {
            0.0
        } else {
            bytes as f64 / (1024.0 * 1024.0) / span.as_secs_f64()
        };
        let (exchange_fraction, io_fraction) = phase_fractions(exchange_time, io_time);
        runs.push(JobRun {
            report: TimingReport {
                elapsed: span,
                exchange_time,
                io_time,
                bytes,
                bandwidth_mibs,
                membus_busy_max,
                nic_busy_max,
                ost_busy_max,
                ost_busy_total,
                activities: l.act_hi - l.act_lo,
                engine: engine.clone(),
                metrics: RunMetrics {
                    exchange_fraction,
                    io_fraction,
                    rounds,
                    agg_io,
                },
            },
            windows,
            start_ns,
            end_ns,
            ost: merge_intervals(ost),
        });
    }

    if let Some(reg) = obs.registry {
        report.record_into(reg);
        pfs.record_imbalance();
        for (job, run) in jobs.iter().zip(&runs) {
            job.plan.record_into(reg);
            record_run(
                reg,
                job.plan.strategy.label(),
                multi.then_some(job.label),
                &run.report,
            );
        }
    }

    // Unified trace: resource service lanes (pid 1), the logical
    // round-phase lanes (pid 2, one thread per chain, the jobs' chains
    // stacked into disjoint tid ranges), then the fault (pid 3) and
    // replan (pid 5) lanes.
    let trace = obs.trace.then(|| {
        let _emit_scope = obs.prof.map(|p| p.scope("trace-emit"));
        let tc = TraceCollector::new();
        report.trace_into(&tc, 1);
        tc.name_process(2, "plan.rounds");
        let parts: Vec<Part<'_, '_>> = jobs
            .iter()
            .zip(&lowered)
            .zip(&runs)
            .map(|((job, l), run)| (job, l, run))
            .collect();
        let mut tid_base = 0u64;
        for &(job, l, run) in &parts {
            emit_round_spans(
                &tc,
                &report,
                job.plan.rw,
                l,
                &run.report.metrics.rounds,
                tid_base,
            );
            tid_base += l.groups.len() as u64;
        }
        // Fault lanes: the "inject" category is descriptive only; the
        // resilience categories (retry/backoff/failover/degraded) feed
        // the fifth critical-path bucket in `mcio-analyze`. An
        // all-empty injection (no events, no gates, no degradation, no
        // retries) is skipped entirely so a faulted run with an empty
        // plan produces a trace byte-identical to a fault-free run.
        if faults.is_some_and(|s| !s.is_empty())
            || jobs
                .iter()
                .any(|j| !j.gates.is_empty() || !j.degraded.is_empty())
            || !retry_marks.is_empty()
        {
            trace_faults(
                &tc,
                faults,
                &parts,
                &report,
                &retry_marks,
                makespan.as_nanos(),
            );
        }
        // Emitted only when the controller actually acted, so an
        // `AdaptivePolicy::Off` run stays byte-identical.
        if jobs.iter().any(|j| !j.replans.is_empty()) {
            trace_replan(&tc, &parts, makespan.as_nanos());
        }
        tc
    });

    MachineRun {
        jobs: runs,
        makespan,
        engine,
        retry_marks,
        trace,
    }
}

/// Per-slot metadata for phase attribution: the activities the slot's
/// first phase waited on, its messages and its I/O completions (also
/// grouped per aggregator).
struct SlotMeta {
    chain: usize,
    round: usize,
    first_deps: Vec<ActivityId>,
    msgs: Vec<ActivityId>,
    ios: Vec<ActivityId>,
    agg_ios: Vec<(Rank, Vec<ActivityId>)>,
}

/// The machine one job is lowered onto, with the job's placement,
/// direction, exchange shape and label namespace.
struct Lowering<'s, 'm> {
    sim: &'s mut Simulation,
    fabric: &'m Fabric,
    pfs: &'m Pfs,
    /// Process placement on machine nodes.
    map: &'m ProcessMap,
    rw: Rw,
    exchange: Exchange,
    /// Namespaces every activity label the job creates: `j{n}.` when
    /// several jobs share the machine so traces and analysis can
    /// attribute work to a job, `""` for a job alone.
    prefix: &'m str,
}

impl Lowering<'_, '_> {
    /// Lower a whole plan: build the round chains (global sync zips every
    /// group into one chain; per-group sync gives each group its own),
    /// wire the pipelining dependencies, and add the per-slot joins.
    ///
    /// `gate_acts` holds back individual round slots; `start_gate` delays
    /// every chain's first round — the job's arrival time. Returns the slot
    /// metadata plus `chain_groups` (`chain_groups[ci]` is the plan group
    /// chain `ci` serves; `None` = all groups, global sync).
    fn lower_plan(
        &mut self,
        plan: &CollectivePlan,
        pipeline: Pipeline,
        gate_acts: &HashMap<(Option<usize>, usize), ActivityId>,
        start_gate: Option<ActivityId>,
    ) -> (Vec<SlotMeta>, Vec<Option<usize>>) {
        let prefix = self.prefix;
        // Chains of round-slots: Global sync zips all groups into one chain;
        // PerGroup gives each group its own. `chain_groups[ci]` remembers
        // which plan group chain `ci` serves (`None` = all groups, under
        // global sync) so the trace can expose per-group span metadata.
        let mut chains: Vec<Vec<Vec<&Round>>> = Vec::new();
        let mut chain_groups: Vec<Option<usize>> = Vec::new();
        match plan.sync {
            SyncMode::Global => {
                let mut chain = Vec::new();
                for r in 0..plan.max_rounds() {
                    chain.push(
                        plan.groups
                            .iter()
                            .filter_map(|g| g.rounds.get(r))
                            .collect::<Vec<_>>(),
                    );
                }
                chains.push(chain);
                chain_groups.push(None);
            }
            SyncMode::PerGroup => {
                for (gi, g) in plan.groups.iter().enumerate() {
                    if !g.rounds.is_empty() {
                        chains.push(g.rounds.iter().map(|r| vec![r]).collect());
                        chain_groups.push(Some(gi));
                    }
                }
            }
        }

        let mut round_meta: Vec<SlotMeta> = Vec::new();
        for (ci, chain) in chains.iter().enumerate() {
            let mut ex_joins: Vec<ActivityId> = Vec::new();
            let mut io_joins: Vec<ActivityId> = Vec::new();
            for (r, slot) in chain.iter().enumerate() {
                // Dependencies per pipelining mode, with the round's phases
                // in `Phase::order`.
                let (mut first_deps, second_extra): (Vec<ActivityId>, Vec<ActivityId>) = if r == 0 {
                    (start_gate.into_iter().collect(), Vec::new())
                } else {
                    match pipeline {
                        Pipeline::Serial => (vec![ex_joins[r - 1], io_joins[r - 1]], Vec::new()),
                        Pipeline::DoubleBuffered => {
                            // The first phase of round r reuses the buffer the
                            // second phase of round r-2 released; the second
                            // phase serializes per buffer stream.
                            let [first, second] = Phase::order(plan.rw);
                            let prev_first = first.pick(&ex_joins, &io_joins);
                            let prev_second = second.pick(&ex_joins, &io_joins);
                            let mut first = vec![prev_first[r - 1]];
                            if r >= 2 {
                                first.push(prev_second[r - 2]);
                            }
                            (first, vec![prev_second[r - 1]])
                        }
                    }
                };
                if let Some(&gate) = gate_acts.get(&(chain_groups[ci], r)) {
                    first_deps.push(gate);
                }
                let mut msgs_all = Vec::new();
                let mut ios_all = Vec::new();
                let mut agg_ios_all: Vec<(Rank, Vec<ActivityId>)> = Vec::new();
                for round in slot {
                    let h = self.lower_round(round, &first_deps, &second_extra);
                    msgs_all.extend(h.msgs);
                    ios_all.extend(h.ios);
                    agg_ios_all.extend(h.agg_ios);
                }
                let ex_join = self
                    .sim
                    .add_activity(Activity::new(format!("{prefix}c{ci}.r{r}.ex")));
                for &m in &msgs_all {
                    self.sim.add_dep(m, ex_join);
                }
                let io_join = self
                    .sim
                    .add_activity(Activity::new(format!("{prefix}c{ci}.r{r}.io")));
                for &io in &ios_all {
                    self.sim.add_dep(io, io_join);
                }
                // Empty phases still chain (join on the other phase so the
                // slot completes in order).
                if msgs_all.is_empty() {
                    for &d in &first_deps {
                        self.sim.add_dep(d, ex_join);
                    }
                }
                if ios_all.is_empty() {
                    self.sim.add_dep(ex_join, io_join);
                }
                round_meta.push(SlotMeta {
                    chain: ci,
                    round: r,
                    first_deps,
                    msgs: msgs_all,
                    ios: ios_all,
                    agg_ios: agg_ios_all,
                });
                ex_joins.push(ex_join);
                io_joins.push(io_join);
            }
        }
        (round_meta, chain_groups)
    }
}

/// Busy-time maxima over the machine's resources: the busiest memory
/// bus, the busiest NIC direction, the busiest OST, and the summed OST
/// busy time. Only the resources the run touched are read; the rest
/// were idle and add nothing.
fn busy_maxima(
    report: &mcio_des::RunReport,
    fabric: &Fabric,
    pfs: &Pfs,
) -> (SimDuration, SimDuration, SimDuration, SimDuration) {
    let mut membus_busy_max = SimDuration::ZERO;
    let mut nic_busy_max = SimDuration::ZERO;
    let mut ost_busy_max = SimDuration::ZERO;
    let mut ost_busy_total = SimDuration::ZERO;
    for (rid, u) in report.resource_usages() {
        let busy = u.busy_time;
        match fabric.port_of(*rid) {
            Some((_, Port::MemBus)) => membus_busy_max = membus_busy_max.max(busy),
            Some((_, Port::NicTx | Port::NicRx)) => nic_busy_max = nic_busy_max.max(busy),
            None if pfs.ost_of(*rid).is_some() => {
                ost_busy_max = ost_busy_max.max(busy);
                ost_busy_total += busy;
            }
            None => {}
        }
    }
    (membus_busy_max, nic_busy_max, ost_busy_max, ost_busy_total)
}

/// Phase attribution of one lowered plan after the simulation ran.
struct Attribution {
    /// Attribution-sum exchange time over the plan's chains.
    exchange_time: SimDuration,
    /// Attribution-sum file-access time over the plan's chains.
    io_time: SimDuration,
    /// Per round-slot phase durations, chain-major.
    rounds: Vec<RoundPhase>,
    /// Absolute executed window of every slot.
    windows: Vec<RoundWindow>,
    /// Per-aggregator file-access time (first request start → last
    /// done, summed over rounds), keyed by rank index.
    agg_io: Vec<(usize, SimDuration)>,
}

/// Attribute each round slot's executed window to its exchange and I/O
/// phases, in [`Phase::order`]: the first phase spans [start, its last
/// activity done]; the second spans the rest of the round.
fn attribute_phases(
    rw: Rw,
    report: &mcio_des::RunReport,
    round_meta: &[SlotMeta],
    chain_groups: &[Option<usize>],
) -> Attribution {
    let mut exchange_time = SimDuration::ZERO;
    let mut io_time = SimDuration::ZERO;
    let mut round_phases: Vec<RoundPhase> = Vec::with_capacity(round_meta.len());
    let mut windows: Vec<RoundWindow> = Vec::with_capacity(round_meta.len());
    let mut agg_io_acc: BTreeMap<usize, SimDuration> = BTreeMap::new();
    let [first, _] = Phase::order(rw);
    for meta in round_meta {
        let t0 = meta
            .first_deps
            .iter()
            .map(|&d| report.finish_time(d))
            .max()
            .unwrap_or(SimTime::ZERO);
        let msgs_end = meta
            .msgs
            .iter()
            .map(|&a| report.finish_time(a))
            .max()
            .unwrap_or(t0);
        let ios_end = meta
            .ios
            .iter()
            .map(|&a| report.finish_time(a))
            .max()
            .unwrap_or(t0);
        windows.push(RoundWindow {
            group: chain_groups.get(meta.chain).copied().flatten(),
            round: meta.round,
            start_ns: t0.saturating_since(SimTime::ZERO).as_nanos(),
            end_ns: msgs_end
                .max(ios_end)
                .saturating_since(SimTime::ZERO)
                .as_nanos(),
        });
        // The first phase runs from t0 to its last completion, the
        // second from there to its own.
        let first_end = first.pick(msgs_end, ios_end);
        let duration = |p: Phase| {
            if p == first {
                first_end.saturating_since(t0)
            } else {
                p.pick(msgs_end, ios_end).saturating_since(first_end)
            }
        };
        let (exchange, io) = (duration(Phase::Exchange), duration(Phase::Io));
        exchange_time += exchange;
        io_time += io;
        round_phases.push(RoundPhase {
            chain: meta.chain,
            round: meta.round,
            exchange,
            io,
        });
        // Per-aggregator file access: first request start → last done.
        for (agg, ios) in &meta.agg_ios {
            let start = ios.iter().map(|&a| report.start_time(a)).min();
            let end = ios.iter().map(|&a| report.finish_time(a)).max();
            if let (Some(s), Some(e)) = (start, end) {
                *agg_io_acc.entry(agg.0).or_insert(SimDuration::ZERO) += e.saturating_since(s);
            }
        }
    }
    Attribution {
        exchange_time,
        io_time,
        rounds: round_phases,
        windows,
        agg_io: agg_io_acc.into_iter().collect(),
    }
}

/// Normalize an attribution sum into `(exchange_fraction, io_fraction)`
/// (both zero when nothing was attributed).
fn phase_fractions(exchange_time: SimDuration, io_time: SimDuration) -> (f64, f64) {
    let attributed = exchange_time + io_time;
    if attributed.is_zero() {
        (0.0, 0.0)
    } else {
        let total = attributed.as_secs_f64();
        (
            exchange_time.as_secs_f64() / total,
            io_time.as_secs_f64() / total,
        )
    }
}

/// Record one run's scalar gauges and per-round observations into the
/// registry. `job` appends a `job` label to every sample so concurrent
/// tenants stay distinguishable; solo runs pass `None` and keep the
/// historical label set.
fn record_run(reg: &Registry, strategy: &str, job: Option<&str>, report: &TimingReport) {
    reg.describe(
        "run.elapsed_ns",
        "ns",
        "Simulated wall-clock of the collective",
    );
    reg.describe("run.bytes", "bytes", "Requested bytes moved");
    reg.describe("run.bandwidth_mibs", "MiB/s", "Aggregate bandwidth");
    reg.describe(
        "run.exchange_frac",
        "ratio",
        "Normalized share of attributed time spent shuffling",
    );
    reg.describe(
        "run.io_frac",
        "ratio",
        "Normalized share of attributed time spent in file access",
    );
    reg.describe(
        "run.round.exchange_ns",
        "ns",
        "Per-round exchange phase duration",
    );
    reg.describe(
        "run.round.io_ns",
        "ns",
        "Per-round file-access phase duration",
    );
    reg.describe(
        "run.agg.io_ns",
        "ns",
        "Per-aggregator file-access time summed over rounds",
    );
    let mut labels: Vec<(&str, &str)> = vec![("strategy", strategy)];
    if let Some(j) = job {
        labels.push(("job", j));
    }
    let metrics = &report.metrics;
    reg.set_gauge("run.elapsed_ns", &labels, report.elapsed.as_nanos() as f64);
    reg.inc("run.bytes", &labels, report.bytes);
    reg.set_gauge("run.bandwidth_mibs", &labels, report.bandwidth_mibs);
    reg.set_gauge("run.exchange_frac", &labels, metrics.exchange_fraction);
    reg.set_gauge("run.io_frac", &labels, metrics.io_fraction);
    for p in &metrics.rounds {
        reg.observe("run.round.exchange_ns", &labels, p.exchange.as_nanos());
        reg.observe("run.round.io_ns", &labels, p.io.as_nanos());
    }
    for (agg, dur) in &metrics.agg_io {
        let agg = agg.to_string();
        let mut alabels: Vec<(&str, &str)> = vec![("agg", agg.as_str())];
        if let Some(j) = job {
            alabels.push(("job", j));
        }
        reg.set_gauge("run.agg.io_ns", &alabels, dur.as_nanos() as f64);
    }
}

/// Emit the pid-2 `plan.rounds` spans of one lowered plan: one lane per
/// chain at `tid_base + chain`, named `{prefix}chain{c} (group g)`.
/// Shared runs stack the jobs' chains into disjoint tid ranges, and the
/// job prefix lets `mcio-analyze` attribute the lanes.
fn emit_round_spans(
    tc: &TraceCollector,
    report: &mcio_des::RunReport,
    rw: Rw,
    lowered: &Lowered,
    rounds: &[RoundPhase],
    tid_base: u64,
) {
    let (round_meta, chain_groups, lane_prefix) = (&lowered.meta, &lowered.groups, &lowered.prefix);
    let mut named_chains = std::collections::BTreeSet::new();
    let [first, _] = Phase::order(rw);
    for (meta, phase) in round_meta.iter().zip(rounds) {
        // Per-group span metadata: which plan group this chain
        // serves ("all" when global sync zips every group into one
        // chain) and how many aggregators work the slot. Critical-
        // path reconstruction in `mcio-analyze` keys on these args.
        let group = match chain_groups.get(meta.chain).copied().flatten() {
            Some(gi) => gi.to_string(),
            None => "all".to_string(),
        };
        let naggs = meta.agg_ios.len().to_string();
        let round_s = meta.round.to_string();
        let args: &[(&str, &str)] = &[
            ("group", group.as_str()),
            ("round", round_s.as_str()),
            ("aggs", naggs.as_str()),
        ];
        let tid = tid_base + meta.chain as u64;
        if named_chains.insert(meta.chain) {
            tc.name_thread(
                2,
                tid,
                &format!("{lane_prefix}chain{} (group {group})", meta.chain),
            );
        }
        let t0 = meta
            .first_deps
            .iter()
            .map(|&d| report.finish_time(d))
            .max()
            .unwrap_or(SimTime::ZERO)
            .saturating_since(SimTime::ZERO)
            .as_nanos();
        // The second phase starts where the first ends.
        let start = |p: Phase| {
            if p == first {
                t0
            } else {
                t0 + first.pick(phase.exchange, phase.io).as_nanos()
            }
        };
        let (ex_start, io_start) = (start(Phase::Exchange), start(Phase::Io));
        if !phase.exchange.is_zero() {
            tc.span_with_args(
                &format!("r{}.exchange", meta.round),
                "exchange",
                2,
                tid,
                ex_start,
                phase.exchange.as_nanos(),
                args,
            );
        }
        if !phase.io.is_zero() {
            tc.span_with_args(
                &format!("r{}.io", meta.round),
                "io",
                2,
                tid,
                io_start,
                phase.io.as_nanos(),
                args,
            );
        }
    }
}

/// Emit the pid-3 "faults" trace process: what was injected and how the
/// execution absorbed it.
///
/// * tid 0 `injected` — OST slow/stall windows and instantaneous
///   crash/shock markers, category `inject` (not attributed).
/// * tid 1 `failover` — one span per re-coordination gate, from the
///   crash instant to the gate release, category `failover`.
/// * tid 2 `degraded` — one span per re-round created by graceful
///   degradation, covering the slot's executed window, category
///   `degraded`.
/// * tid `3 + ost` — retry/backoff chains per OST: the failed service
///   attempts (`retry`) and the waits between them (`backoff`).
fn trace_faults(
    tc: &TraceCollector,
    faults: Option<&FaultSpec>,
    parts: &[Part<'_, '_>],
    report: &mcio_des::RunReport,
    retry_marks: &[RetryMark],
    elapsed_ns: u64,
) {
    tc.name_process(3, "faults");
    tc.name_thread(3, 0, "injected");
    tc.name_thread(3, 1, "failover");
    tc.name_thread(3, 2, "degraded");
    if let Some(spec) = faults {
        for ev in &spec.events {
            match *ev {
                FaultEvent::OstSlow {
                    ost, from, until, ..
                }
                | FaultEvent::OstStall { ost, from, until } => {
                    let kind = match ev {
                        FaultEvent::OstSlow { .. } => "slow",
                        _ => "stall",
                    };
                    let start = from.saturating_since(SimTime::ZERO).as_nanos();
                    let end = until
                        .saturating_since(SimTime::ZERO)
                        .as_nanos()
                        .min(elapsed_ns);
                    if end > start {
                        tc.span(
                            &format!("ost{ost}.{kind}"),
                            "inject",
                            3,
                            0,
                            start,
                            end - start,
                        );
                    }
                }
                FaultEvent::ReqTransientFail { .. } => {}
                FaultEvent::MemShock { node, at, .. } => {
                    let at = at.saturating_since(SimTime::ZERO).as_nanos();
                    if at < elapsed_ns {
                        tc.span(&format!("node{node}.mem_shock"), "inject", 3, 0, at, 1);
                    }
                }
                FaultEvent::AggCrash { host, at } => {
                    let at = at.saturating_since(SimTime::ZERO).as_nanos();
                    if at < elapsed_ns {
                        tc.span(&format!("host{host}.agg_crash"), "inject", 3, 0, at, 1);
                    }
                }
            }
        }
    }
    for &(job, l, _) in parts {
        for gate in job.gates.iter().filter(|g| !g.adaptive) {
            let start = gate.from.saturating_since(SimTime::ZERO).as_nanos();
            let end = gate
                .release
                .saturating_since(SimTime::ZERO)
                .as_nanos()
                .min(elapsed_ns);
            if end > start {
                let label = format!("{}{}", l.prefix, gate.label);
                tc.span(&label, "failover", 3, 1, start, end - start);
            }
        }
    }
    for &(job, _, run) in parts {
        for &(group, round) in &job.degraded {
            if let Some(w) = run
                .windows
                .iter()
                .find(|w| w.group == group && w.round == round)
            {
                if w.end_ns > w.start_ns {
                    tc.span(
                        &format!("r{round}.degraded"),
                        "degraded",
                        3,
                        2,
                        w.start_ns,
                        w.end_ns - w.start_ns,
                    );
                }
            }
        }
    }
    let mut named_osts = std::collections::BTreeSet::new();
    for mark in retry_marks {
        let tid = 3 + mark.ost as u64;
        if named_osts.insert(mark.ost) {
            tc.name_thread(3, tid, &format!("ost{}.retries", mark.ost));
        }
        // Service records of the retry chain, in submission order: the
        // first `attempts - 1` stages are the failed tries; the gaps
        // between consecutive stages are the backoff waits.
        let recs: Vec<_> = report
            .trace()
            .unwrap_or(&[])
            .iter()
            .filter(|rec| rec.activity == mark.activity)
            .cloned()
            .collect();
        for (i, rec) in recs.iter().enumerate() {
            let start = rec.start.saturating_since(SimTime::ZERO).as_nanos();
            let dur = rec.end.saturating_since(rec.start).as_nanos();
            if (i as u32) < mark.attempts.saturating_sub(1) && dur > 0 {
                tc.span(&format!("attempt{}", i + 1), "retry", 3, tid, start, dur);
            }
            if let Some(next) = recs.get(i + 1) {
                let gap_start = rec.end.saturating_since(SimTime::ZERO).as_nanos();
                let gap = next.start.saturating_since(rec.end).as_nanos();
                if gap > 0 {
                    tc.span("backoff", "backoff", 3, tid, gap_start, gap);
                }
            }
        }
    }
}

/// Emit the pid-5 "replan" lanes: one thread per controller actuator
/// (`retune` 0, `defer` 1, `demote` 2, `resplit` 3), one span per
/// decision. Slot-anchored marks snap to the executed round window so
/// the span shows when the re-planned round actually ran; marks whose
/// slot never executed are dropped (nothing to attribute).
fn trace_replan(tc: &TraceCollector, parts: &[Part<'_, '_>], elapsed_ns: u64) {
    tc.name_process(5, "replan");
    let mut named = std::collections::BTreeSet::new();
    for &(job, l, run) in parts {
        for mark in &job.replans {
            let tid = match mark.cat {
                "retune" => 0,
                "defer" => 1,
                "demote" => 2,
                _ => 3,
            };
            if named.insert(tid) {
                tc.name_thread(
                    5,
                    tid,
                    match tid {
                        0 => "retune",
                        1 => "defer",
                        2 => "demote",
                        _ => "resplit",
                    },
                );
            }
            let (start, dur) = match mark.slot {
                Some((group, round)) => {
                    let Some(w) = run
                        .windows
                        .iter()
                        .find(|w| w.group == group && w.round == round)
                    else {
                        continue;
                    };
                    (w.start_ns, w.end_ns.saturating_sub(w.start_ns))
                }
                None => (mark.start_ns, mark.dur_ns),
            };
            let start = start.min(elapsed_ns);
            let dur = dur.min(elapsed_ns - start).max(1);
            let args: Vec<(&str, &str)> = mark
                .args
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            let name = format!("{}{}", l.prefix, mark.name);
            tc.span_with_args(&name, mark.cat, 5, tid, start, dur, &args);
        }
    }
}

/// The two phases of a collective round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// The data shuffle between requesting ranks and aggregators.
    Exchange,
    /// The aggregators' file access.
    Io,
}

impl Phase {
    /// The round's phases in execution order. Data flows from the source
    /// end to the destination end of [`orient`], and the aggregator's end
    /// of a round is its file access: a write shuffles and then writes,
    /// a read reads and then redistributes.
    fn order(rw: Rw) -> [Phase; 2] {
        let (first, second) = orient(rw, Phase::Io, Phase::Exchange);
        [first, second]
    }

    /// `exchange` or `io`, whichever belongs to this phase.
    fn pick<T>(self, exchange: T, io: T) -> T {
        match self {
            Phase::Exchange => exchange,
            Phase::Io => io,
        }
    }
}

/// One step of an exchange chain, oriented in data-flow order.
struct Leg {
    /// Activity label.
    label: String,
    /// Sending node.
    from: NodeId,
    /// Receiving node.
    to: NodeId,
    /// Payload size.
    bytes: u64,
}

/// Expand a round's transfers into per-aggregator leg chains, each in
/// data-flow order. A wire leg is labeled `msg.{src}->{dst}`, where the
/// aggregator end names the rank and the other end its node. Under the
/// two-level exchange the pieces are merged per (aggregator, node), and
/// an off-node chain gains the node leader's on-node copy on the peer
/// side of the wire: it combines the pieces before the wire on writes
/// and scatters them after it on reads.
fn exchange_legs(
    round: &Round,
    map: &ProcessMap,
    rw: Rw,
    exchange: Exchange,
    prefix: &str,
) -> BTreeMap<Rank, Vec<Vec<Leg>>> {
    let copy = match rw {
        Rw::Write => "combine",
        Rw::Read => "scatter",
    };
    let label = |kind: &str, agg: Rank, node: NodeId| {
        let (a, b): (&dyn std::fmt::Display, &dyn std::fmt::Display) = orient(rw, &agg, &node);
        format!("{prefix}{kind}.{a}->{b}")
    };
    let wire = |agg: Rank, node: NodeId, bytes: u64| {
        let (from, to) = orient(rw, map.node_of(agg), node);
        Leg {
            label: label("msg", agg, node),
            from,
            to,
            bytes,
        }
    };
    let pieces = round.transfers().into_iter().map(|((src, dst), bytes)| {
        let (agg, peer) = orient(rw, src, dst);
        (agg, map.node_of(peer), bytes)
    });
    let mut out: BTreeMap<Rank, Vec<Vec<Leg>>> = BTreeMap::new();
    match exchange {
        Exchange::Direct => {
            for (agg, node, bytes) in pieces {
                out.entry(agg)
                    .or_default()
                    .push(vec![wire(agg, node, bytes)]);
            }
        }
        Exchange::TwoLevel => {
            let mut per_node: BTreeMap<(Rank, NodeId), u64> = BTreeMap::new();
            for (agg, node, bytes) in pieces {
                *per_node.entry((agg, node)).or_insert(0) += bytes;
            }
            for ((agg, node), bytes) in per_node {
                let chain = if node == map.node_of(agg) {
                    // Already on the aggregator's node: plain local copy.
                    vec![wire(agg, node, bytes)]
                } else {
                    // One extra memory-bus copy of the merged payload at
                    // the node leader.
                    let leader = Leg {
                        label: label(copy, agg, node),
                        from: node,
                        to: node,
                        bytes,
                    };
                    let (first, second) = orient(rw, wire(agg, node, bytes), leader);
                    vec![first, second]
                };
                out.entry(agg).or_default().push(chain);
            }
        }
    }
    out
}

/// Handles of a lowered round: the message activities and the I/O
/// completion activities (the slot joins are built from these).
struct RoundHandles {
    /// The message activities (for joins and phase attribution).
    msgs: Vec<ActivityId>,
    /// The I/O completion activities.
    ios: Vec<ActivityId>,
    /// I/O completion activities grouped by the aggregator that issued
    /// them (for per-aggregator phase attribution).
    agg_ios: Vec<(Rank, Vec<ActivityId>)>,
}

impl Lowering<'_, '_> {
    /// Lower one round: its two phases in [`Phase::order`]. The first
    /// phase waits on `first_deps`. Each aggregator's second-phase work
    /// waits on that aggregator's first-phase activities (on
    /// `first_deps` when it had none) plus `second_extra`, the extra
    /// gates of pipelined scheduling.
    fn lower_round(
        &mut self,
        round: &Round,
        first_deps: &[ActivityId],
        second_extra: &[ActivityId],
    ) -> RoundHandles {
        let (fabric, pfs, map, rw, prefix) =
            (self.fabric, self.pfs, self.map, self.rw, self.prefix);
        let sim = &mut *self.sim;
        let mut msg_acts: Vec<ActivityId> = Vec::new();
        let mut io_acts: Vec<ActivityId> = Vec::new();
        let mut agg_io_map: BTreeMap<Rank, Vec<ActivityId>> = BTreeMap::new();
        let mut first_acts: BTreeMap<Rank, Vec<ActivityId>> = BTreeMap::new();
        for (i, phase) in Phase::order(rw).into_iter().enumerate() {
            let first = i == 0;
            let gate = |first_acts: &BTreeMap<Rank, Vec<ActivityId>>, agg: Rank| {
                if first {
                    return Cow::Borrowed(first_deps);
                }
                let mut deps = first_acts
                    .get(&agg)
                    .map_or_else(|| first_deps.to_vec(), Vec::clone);
                deps.extend_from_slice(second_extra);
                Cow::Owned(deps)
            };
            match phase {
                Phase::Exchange => {
                    for (agg, chains) in exchange_legs(round, map, rw, self.exchange, prefix) {
                        let deps = gate(&first_acts, agg);
                        for chain in chains {
                            let mut prev: Option<ActivityId> = None;
                            for leg in chain {
                                let a = sim.add_activity(
                                    fabric.message(leg.label, leg.from, leg.to, leg.bytes),
                                );
                                match prev {
                                    None => {
                                        for &d in deps.iter() {
                                            sim.add_dep(d, a);
                                        }
                                    }
                                    Some(p) => sim.add_dep(p, a),
                                }
                                prev = Some(a);
                                if first {
                                    first_acts.entry(agg).or_default().push(a);
                                }
                                msg_acts.push(a);
                            }
                        }
                    }
                }
                Phase::Io => {
                    for io in &round.ios {
                        let deps = gate(&first_acts, io.agg);
                        let node = map.node_of(io.agg);
                        for e in &io.extents {
                            let done = pfs.submit(
                                sim,
                                fabric,
                                &format!("{prefix}io.{}", io.agg),
                                node,
                                rw,
                                *e,
                                &deps,
                            );
                            if first {
                                first_acts.entry(io.agg).or_default().push(done);
                            }
                            agg_io_map.entry(io.agg).or_default().push(done);
                            io_acts.push(done);
                        }
                    }
                }
            }
        }
        RoundHandles {
            msgs: msg_acts,
            ios: io_acts,
            agg_ios: agg_io_map.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CollectiveConfig;
    use crate::memory::ProcMemory;
    use crate::request::CollectiveRequest;
    use crate::{mcio, twophase};
    use mcio_cluster::Placement;
    use mcio_pfs::Extent;

    const MIB: u64 = 1 << 20;

    fn serial_req(rw: Rw, nranks: usize, chunk: u64) -> CollectiveRequest {
        CollectiveRequest::new(
            rw,
            (0..nranks as u64)
                .map(|r| vec![Extent::new(r * chunk, chunk)])
                .collect(),
        )
    }

    fn small_spec(nodes: usize) -> ClusterSpec {
        ClusterSpec::small(nodes, 2)
    }

    /// One job through [`run`] with the given round schedule.
    fn run_one(
        plan: &CollectivePlan,
        map: &ProcessMap,
        spec: &ClusterSpec,
        pipeline: Pipeline,
        exchange: Exchange,
    ) -> TimingReport {
        let jobs = [TenantJob::new("only", plan.clone(), map.clone())
            .pipeline(pipeline)
            .exchange(exchange)];
        run(&RunSpec::new(&jobs, spec)).jobs.remove(0).report
    }

    #[test]
    fn write_collective_produces_sane_timing() {
        let req = serial_req(Rw::Write, 8, 4 * MIB);
        let map = ProcessMap::new(8, 4, Placement::Block);
        let mem = ProcMemory::uniform(8, 4 * MIB);
        let cfg = CollectiveConfig::with_buffer(4 * MIB);
        let plan = twophase::plan(&req, &map, &mem, &cfg);
        let rep = simulate(&plan, &map, &small_spec(4));
        assert_eq!(rep.bytes, 32 * MIB);
        assert!(!rep.elapsed.is_zero());
        assert!(rep.bandwidth_mibs > 0.0);
        // PFS-bound: the 4 OSTs at 100 MiB/s cap aggregate write BW.
        assert!(
            rep.bandwidth_mibs < 450.0,
            "bw {} exceeds PFS capability",
            rep.bandwidth_mibs
        );
    }

    #[test]
    fn read_faster_than_write_same_plan_shape() {
        let wreq = serial_req(Rw::Write, 4, 8 * MIB);
        let rreq = serial_req(Rw::Read, 4, 8 * MIB);
        let map = ProcessMap::new(4, 2, Placement::Block);
        let mem = ProcMemory::uniform(4, 8 * MIB);
        let cfg = CollectiveConfig::with_buffer(8 * MIB);
        let spec = small_spec(2);
        let w = simulate(&twophase::plan(&wreq, &map, &mem, &cfg), &map, &spec);
        let r = simulate(&twophase::plan(&rreq, &map, &mem, &cfg), &map, &spec);
        assert!(
            r.bandwidth_mibs > w.bandwidth_mibs,
            "read {} <= write {}",
            r.bandwidth_mibs,
            w.bandwidth_mibs
        );
    }

    #[test]
    fn smaller_buffers_are_slower() {
        let req = serial_req(Rw::Write, 8, 8 * MIB);
        let map = ProcessMap::new(8, 4, Placement::Block);
        let spec = small_spec(4);
        let mut last_bw = f64::INFINITY;
        for buf in [8 * MIB, MIB, MIB / 4] {
            let mem = ProcMemory::uniform(8, buf);
            let cfg = CollectiveConfig::with_buffer(buf);
            let plan = twophase::plan(&req, &map, &mem, &cfg);
            let rep = simulate(&plan, &map, &spec);
            assert!(
                rep.bandwidth_mibs < last_bw,
                "buffer {buf}: bw {} did not drop below {last_bw}",
                rep.bandwidth_mibs
            );
            last_bw = rep.bandwidth_mibs;
        }
    }

    #[test]
    fn memory_conscious_beats_baseline_with_starved_aggregator() {
        // One designated baseline aggregator is memory-starved; MC routes
        // around it.
        let req = serial_req(Rw::Write, 8, 8 * MIB);
        let map = ProcessMap::new(8, 4, Placement::Block);
        // Baseline aggregators are ranks 0,2,4,6; rank 0 is starved.
        let mut budgets = vec![8 * MIB; 8];
        budgets[0] = MIB / 4;
        let mem = ProcMemory::from_budgets(budgets);
        let cfg = CollectiveConfig::with_buffer(8 * MIB)
            .msg_ind(16 * MIB)
            .msg_group(32 * MIB)
            .mem_min(MIB);
        let spec = small_spec(4);
        let base = simulate(&twophase::plan(&req, &map, &mem, &cfg), &map, &spec);
        let mc = simulate(&mcio::plan(&req, &map, &mem, &cfg), &map, &spec);
        assert!(
            mc.bandwidth_mibs > base.bandwidth_mibs * 1.2,
            "mc {} vs baseline {}",
            mc.bandwidth_mibs,
            base.bandwidth_mibs
        );
    }

    #[test]
    fn phase_attribution_sums_to_chain_time() {
        // Single group, global sync: exchange + io per round partition
        // the round chain exactly, so their sum equals the elapsed time.
        let req = serial_req(Rw::Write, 4, 8 * MIB);
        let map = ProcessMap::new(4, 2, Placement::Block);
        let mem = ProcMemory::uniform(4, 2 * MIB);
        let cfg = CollectiveConfig::with_buffer(2 * MIB);
        let plan = twophase::plan(&req, &map, &mem, &cfg);
        let rep = simulate(&plan, &map, &small_spec(2));
        assert!(!rep.exchange_time.is_zero());
        assert!(!rep.io_time.is_zero());
        let sum = rep.exchange_time + rep.io_time;
        let diff = sum.as_secs_f64() - rep.elapsed.as_secs_f64();
        assert!(
            diff.abs() < rep.elapsed.as_secs_f64() * 0.05,
            "exchange {} + io {} should approximate elapsed {}",
            rep.exchange_time,
            rep.io_time,
            rep.elapsed
        );
        // Writes on this machine are I/O-dominated.
        assert!(rep.io_time > rep.exchange_time);
    }

    #[test]
    fn double_buffering_overlaps_phases() {
        // Many rounds, comparable exchange and I/O costs: pipelining must
        // shorten the collective, and never lengthen it.
        let req = serial_req(Rw::Write, 8, 16 * MIB);
        let map = ProcessMap::new(8, 4, Placement::Block);
        let mem = ProcMemory::uniform(8, MIB);
        let cfg = CollectiveConfig::with_buffer(MIB);
        let plan = twophase::plan(&req, &map, &mem, &cfg);
        assert!(plan.max_rounds() >= 16);
        let spec = small_spec(4);
        let serial = simulate(&plan, &map, &spec);
        let piped = run_one(
            &plan,
            &map,
            &spec,
            Pipeline::DoubleBuffered,
            Exchange::Direct,
        );
        assert!(
            piped.elapsed < serial.elapsed,
            "pipelined {} !< serial {}",
            piped.elapsed,
            serial.elapsed
        );
        // Same bytes either way.
        assert_eq!(piped.bytes, serial.bytes);
        // And reads pipeline too.
        let rreq = serial_req(Rw::Read, 8, 16 * MIB);
        let rplan = twophase::plan(&rreq, &map, &mem, &cfg);
        let rs = simulate(&rplan, &map, &spec);
        let rp = run_one(
            &rplan,
            &map,
            &spec,
            Pipeline::DoubleBuffered,
            Exchange::Direct,
        );
        assert!(rp.elapsed < rs.elapsed);
    }

    #[test]
    fn two_level_exchange_cuts_wire_messages() {
        // Many ranks per node, one aggregator per node: the flat exchange
        // pushes ppn messages per (node, agg) pair over the NIC; the
        // two-level exchange pushes one. With a per-message overhead the
        // two-level shape must win.
        let nranks = 32;
        let map = ProcessMap::new(nranks, 4, Placement::Block);
        let req = serial_req(Rw::Write, nranks, MIB);
        let mem = ProcMemory::uniform(nranks, 4 * MIB);
        let cfg = CollectiveConfig::with_buffer(4 * MIB);
        let plan = twophase::plan(&req, &map, &mem, &cfg);
        let mut spec = small_spec(4);
        spec.message_overhead = mcio_des::SimDuration::from_millis(1);
        let flat = simulate(&plan, &map, &spec);
        let two = run_one(&plan, &map, &spec, Pipeline::Serial, Exchange::TwoLevel);
        assert!(
            two.elapsed < flat.elapsed,
            "two-level {} !< direct {}",
            two.elapsed,
            flat.elapsed
        );
        assert_eq!(two.bytes, flat.bytes);
        // Reads too.
        let rplan = twophase::plan(&serial_req(Rw::Read, nranks, MIB), &map, &mem, &cfg);
        let flat_r = simulate(&rplan, &map, &spec);
        let two_r = run_one(&rplan, &map, &spec, Pipeline::Serial, Exchange::TwoLevel);
        assert!(two_r.elapsed < flat_r.elapsed);
    }

    #[test]
    fn traced_run_emits_timeline() {
        let req = serial_req(Rw::Write, 4, MIB);
        let map = ProcessMap::new(4, 2, Placement::Block);
        let mem = ProcMemory::uniform(4, MIB);
        let plan = twophase::plan(&req, &map, &mem, &CollectiveConfig::with_buffer(MIB));
        let jobs = [TenantJob::new("only", plan, map)];
        let spec = small_spec(2);
        let out = run(&RunSpec {
            observe: Observe {
                trace: true,
                ..Observe::default()
            },
            ..RunSpec::new(&jobs, &spec)
        });
        assert!(out.jobs[0].report.bandwidth_mibs > 0.0);
        let json = out.trace_json().expect("trace was requested");
        assert!(json.contains("membus"));
        assert!(json.contains("ost"));
        assert!(json.contains("\"ph\":\"X\""));
    }

    #[test]
    fn straggler_node_contained_by_groups() {
        // Node 0 runs at 20% bandwidth. Under global sync every round
        // waits for it; per-group sync confines the damage to its group.
        let req = serial_req(Rw::Write, 8, 8 * MIB);
        let map = ProcessMap::new(8, 4, Placement::Block);
        let mem = ProcMemory::uniform(8, MIB);
        let per_node = req.total_bytes() / 4;
        let cfg = CollectiveConfig::with_buffer(MIB)
            .msg_group(per_node)
            .msg_ind(per_node / 2)
            .mem_min(0);
        let spec = small_spec(4).with_straggler(0, 0.2);
        let tp = simulate(&twophase::plan(&req, &map, &mem, &cfg), &map, &spec);
        let mcp = simulate(&mcio::plan(&req, &map, &mem, &cfg), &map, &spec);
        assert!(
            mcp.bandwidth_mibs > tp.bandwidth_mibs,
            "MC {} must beat global-sync {} under a straggler",
            mcp.bandwidth_mibs,
            tp.bandwidth_mibs
        );
    }

    #[test]
    fn empty_plan_zero_time() {
        let req = CollectiveRequest::new(Rw::Write, vec![vec![], vec![]]);
        let map = ProcessMap::new(2, 1, Placement::Block);
        let mem = ProcMemory::uniform(2, MIB);
        let plan = twophase::plan(&req, &map, &mem, &CollectiveConfig::default());
        let rep = simulate(&plan, &map, &small_spec(1));
        assert_eq!(rep.bytes, 0);
        assert_eq!(rep.bandwidth_mibs, 0.0);
    }

    #[test]
    fn per_group_sync_beats_global_with_one_slow_group() {
        // Same aggregator layout, but group-local sync lets fast groups
        // finish without waiting for the starved one.
        let req = serial_req(Rw::Write, 8, 8 * MIB);
        let map = ProcessMap::new(8, 4, Placement::Block);
        let mut budgets = vec![8 * MIB; 8];
        budgets[0] = MIB / 2;
        budgets[1] = MIB / 2; // whole node 0 starved
        let mem = ProcMemory::from_budgets(budgets);
        let cfg = CollectiveConfig::with_buffer(8 * MIB)
            .msg_ind(16 * MIB)
            .msg_group(16 * MIB)
            .mem_min(0);
        let spec = small_spec(4);
        let mc = mcio::plan(&req, &map, &mem, &cfg);
        assert_eq!(mc.sync, SyncMode::PerGroup);
        let rep = simulate(&mc, &map, &spec);
        assert!(rep.bandwidth_mibs > 0.0);
    }
}
