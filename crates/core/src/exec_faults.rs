//! Resilient collective execution under an injected fault plan.
//!
//! A [`run`](crate::run) whose [`RunSpec`] carries the job's memory
//! budgets ([`RunSpec::memory`]) is a *resilient solo run*: one
//! [`CollectivePlan`] against a [`mcio_faults::FaultSpec`], executed so
//! that it *survives* the plan:
//!
//! * **Retry/backoff** — transient per-request OST failures are absorbed
//!   inside the PFS client as bounded, seeded retry chains (see
//!   [`mcio_pfs::Pfs::apply_faults`]); nothing to do here beyond
//!   surfacing the counts.
//! * **Aggregator failover** — an `agg_crash(host, t)` that lands while
//!   rounds using an aggregator on that host are still in flight
//!   triggers a memory-aware re-selection (same scoring as
//!   [`crate::placement`]: largest budget, lowest rank breaks ties) and
//!   re-targets the affected rounds' messages and I/O to the
//!   replacement. The first re-targeted round of each group is gated
//!   behind a fixed re-coordination latency ([`FAILOVER_LATENCY`]).
//! * **Graceful degradation** — when the replacement's buffer (or a
//!   `mem_shock`-shrunk buffer) cannot hold an affected window, the
//!   window is re-rounded: split at exact sub-window boundaries into
//!   extra rounds appended to the group, instead of aborting. Message
//!   extents are split at the same boundaries, so byte conservation and
//!   leaf coverage are preserved exactly ([`CollectivePlan::check`]
//!   still passes on the transformed plan).
//!
//! The two-phase baseline gets **no** failover: a crash that hits one of
//! its aggregators mid-collective marks the run `completed = false`
//! (the paper's MC-CIO pipeline is the one with a re-selection path).
//!
//! Fault attribution rides the unified trace as process 3 (`faults`)
//! and the `faults.*` metrics; `mcio-analyze` folds the resilience
//! lanes into a fifth critical-path bucket (`retry/degraded`).
//!
//! # Semantics of a crash
//!
//! `agg_crash` models the death of the *aggregator role* on a host (an
//! OOM-killed aggregation thread, a wedged buffer pool) — the compute
//! ranks on that host keep their data and continue as producers or
//! consumers. Recovery is therefore re-selection plus re-routing, not
//! data reconstruction.
//!
//! # Passes
//!
//! Every pass is a call of the one simulation core (`exec_sim`'s
//! `run_machine`) with this module deciding what to lower: a probe of
//! the untransformed plan under the OST/transient faults (which rounds
//! were in flight when each structural event struck), the nominal
//! fault-free timeline when the controller runs (also the solo
//! baseline), and the final pass of the transformed plan behind its
//! failover and controller gates. What recovery did is reported as
//! [`FaultOutcome`] on [`RunOutcome::recovery`].
//!
//! # Determinism
//!
//! Every pass is an ordinary deterministic DES run; every stochastic
//! choice (transient failures, backoff jitter) hashes the
//! [`mcio_faults::FaultSpec::seed`]. Two runs with identical inputs
//! produce byte-identical traces and reports.

use crate::adaptive::{
    observed_granularity, plan_deferrals, select_contended_replacement, AdaptiveOutcome,
    SignalSnapshot,
};
use crate::config::Strategy;
use crate::exec_sim::{
    run_machine, slowdown, solo_run, FaultGate, JobOutcome, JobRun, MachineJob, MachineRun,
    ReplanMark, RoundWindow, RunOutcome, RunSpec, TenantJob,
};
use crate::memory::ProcMemory;
use crate::plan::{
    AggregatorAssignment, CollectivePlan, GroupPlan, IoOp, Message, Round, SyncMode,
};
use crate::tuner::{retune_from_signals, TunedParams};
use mcio_cluster::{NodeId, ProcessMap, Rank};
use mcio_des::{SimDuration, SimTime};
use mcio_faults::FaultEvent;
use mcio_pfs::{Extent, Rw};
use std::borrow::Cow;

/// Fixed failure-detection + re-coordination latency charged before the
/// first re-targeted round of a group may start after a crash. Models
/// heartbeat timeout plus re-selection consensus; deliberately a
/// constant so faulted runs stay byte-deterministic.
pub const FAILOVER_LATENCY: SimDuration = SimDuration::from_micros(500);

/// What structural recovery did in a resilient solo run
/// ([`RunOutcome::recovery`]); the timing, trace and controller
/// outcome live on the [`RunOutcome`] itself.
#[derive(Debug)]
pub struct FaultOutcome {
    /// Whether the collective delivered every byte. `false` only when a
    /// structural fault hit a plan with no recovery path (two-phase
    /// under `agg_crash`, or no replacement candidate).
    pub completed: bool,
    /// Aggregator failovers performed.
    pub failovers: usize,
    /// Extra rounds created by graceful degradation.
    pub degraded_rounds: usize,
    /// Total transient-failure retries absorbed by the PFS client.
    pub retries: u64,
    /// Requests whose retry budget was exhausted (completed out-of-band;
    /// see `docs/robustness.md`).
    pub retry_exhausted: u64,
    /// The plan that actually executed: the input plan with failover
    /// re-targeting and degradation re-rounding applied. Feeding it to
    /// [`crate::exec_fn::execute_write`] yields bytes identical to the
    /// fault-free plan whenever `completed` is true.
    pub executed_plan: CollectivePlan,
}

/// The resilient solo run behind [`run`](crate::run) when
/// [`RunSpec::memory`] is given: `job` alone on the machine under
/// `spec.faults`, surviving what can be survived. `mem` drives
/// replacement-aggregator selection (same budget data the planner
/// used).
///
/// With the closed-loop controller on, [`SignalSnapshot`]-driven
/// decisions between the probe pass and the final pass re-tune the
/// round granularity, demote aggregators off memory-shocked nodes
/// (contention-aware three-tier re-selection), and defer rounds past
/// degraded OST windows when the probe says waiting beats crawling.
/// The controller only acts on the MC-CIO strategy — the two-phase
/// baseline stays static by design, mirroring its lack of a failover
/// path — and only under a non-empty fault plan, so
/// [`AdaptivePolicy::Off`](crate::AdaptivePolicy::Off) (and any run
/// the controller skips) is byte-identical to the static path.
pub(crate) fn run_resilient(spec: &RunSpec<'_>, job: &TenantJob, mem: &ProcMemory) -> RunOutcome {
    let (plan, map, machine, policy, obs) =
        (&job.plan, &job.map, spec.machine, spec.policy, spec.observe);
    let solo = MachineJob::of(job);
    let Some(fspec) = spec.faults else {
        // Nothing to survive: the plain run, which is also its own
        // fault-free baseline.
        let run = run_machine(std::slice::from_ref(&solo), machine, None, obs);
        return solo_outcome(
            job,
            run,
            None,
            AdaptiveOutcome {
                policy,
                ..AdaptiveOutcome::default()
            },
            None,
        );
    };
    let structural = fspec
        .events
        .iter()
        .any(|e| matches!(e, FaultEvent::AggCrash { .. } | FaultEvent::MemShock { .. }));
    let adaptive = !policy.is_off() && !fspec.is_empty() && plan.strategy != Strategy::TwoPhase;

    let mut xplan = plan.clone();
    let mut gates: Vec<FaultGate> = Vec::new();
    let mut degraded: Vec<(Option<usize>, usize)> = Vec::new();
    let mut replans: Vec<ReplanMark> = Vec::new();
    let mut completed = true;
    let mut failovers = 0usize;
    let mut adaptive_out = AdaptiveOutcome {
        policy,
        ..AdaptiveOutcome::default()
    };

    // Pass 1: OST + transient faults only, no recovery — yields the
    // absolute windows of every round slot, i.e. which rounds were
    // still in flight when each structural event struck, and the
    // degraded timeline the controller compares against nominal.
    let pass1 = (structural || adaptive).then(|| {
        run_machine(
            std::slice::from_ref(&solo),
            machine,
            Some(fspec),
            obs.engine_only(),
        )
        .jobs
        .remove(0)
    });

    if structural {
        let pass1 = pass1.as_ref().expect("probe ran");

        for &(host, at) in &fspec.agg_crashes() {
            let at_ns = at.saturating_since(SimTime::ZERO).as_nanos();
            for (gi, g) in xplan.groups.iter_mut().enumerate() {
                let crashed: Vec<Rank> = g
                    .aggregators
                    .iter()
                    .map(|a| a.rank)
                    .filter(|&r| map.node_of(r) == NodeId(host))
                    .collect();
                for cr in crashed {
                    let gkey = group_key(plan.sync, gi);
                    let affected = rounds_after(g, plan.rw, cr, &pass1.windows, gkey, at_ns, true);
                    if affected.is_empty() {
                        continue;
                    }
                    if plan.strategy == Strategy::TwoPhase {
                        // No failover path in the baseline.
                        completed = false;
                        continue;
                    }
                    let Some((repl, repl_buffer)) = select_replacement(g, map, mem, NodeId(host))
                    else {
                        completed = false;
                        continue;
                    };
                    adopt_replacement(g, cr, repl, repl_buffer);
                    failovers += 1;
                    let first = *affected.first().expect("non-empty");
                    insert_gate(
                        &mut gates,
                        FaultGate {
                            group: gkey,
                            round: first,
                            from: at,
                            release: at + FAILOVER_LATENCY,
                            label: format!("failover.g{gi}.r{first}"),
                            adaptive: false,
                        },
                    );
                    for r in affected {
                        retarget_round(&mut g.rounds[r], plan.rw, cr, repl);
                        for appended in split_oversized(g, r, repl, repl_buffer, plan.rw) {
                            degraded.push((gkey, appended));
                        }
                    }
                }
            }
        }
    }

    // Closed-loop adaptation: sample the degradation signals, decide
    // behind the hysteresis band, actuate as plan transforms + gates.
    // Runs between the crash-failover transform above and the
    // structural mem-shock re-rounding below: an aggregator this block
    // demotes off a shocked node no longer needs its future rounds
    // split at the shrunken buffer.
    let mut clean: Option<JobRun> = None;
    if adaptive {
        let pass1 = pass1.as_ref().expect("probe ran");
        // Nominal timeline of the same plan: the deferral comparator,
        // the sampling horizon and the solo baseline.
        let clean = clean.insert(solo_run(&solo, machine, obs));
        let horizon = clean.report.elapsed.as_nanos();
        let signals = SignalSnapshot::sample(fspec, machine.io_servers, horizon, 0.0);
        adaptive_out.severity = signals.severity();
        if adaptive_out.severity > policy.dead_band() {
            // (1) Re-tune the observed round granularity. The tuned
            // group size caps how coarse adaptively re-split rounds may
            // be (split boundaries stay exact chunk boundaries).
            let gran = observed_granularity(&xplan);
            let base = TunedParams {
                msg_ind: (gran / 8).max(1),
                nah: 1,
                msg_group: gran,
            };
            let tuned = retune_from_signals(base, &signals, policy);
            if tuned.msg_group < base.msg_group {
                adaptive_out.retuned = Some((base.msg_group, tuned.msg_group));
                replans.push(ReplanMark {
                    name: "retune.msg_group".into(),
                    cat: "retune",
                    start_ns: 0,
                    dur_ns: 1,
                    slot: None,
                    args: vec![
                        ("severity".into(), format!("{:.6}", adaptive_out.severity)),
                        ("old".into(), base.msg_group.to_string()),
                        ("new".into(), tuned.msg_group.to_string()),
                    ],
                });
            }
            let split_cap = tuned.msg_group.max(1);

            // (2) Demote aggregators off memory-shocked nodes for
            // rounds that have not started yet; in-flight rounds stay
            // with the shocked aggregator and are re-rounded by the
            // structural path below.
            for &(node, drop_frac, at) in &fspec.mem_shocks() {
                if drop_frac <= policy.dead_band() {
                    continue;
                }
                let at_ns = at.saturating_since(SimTime::ZERO).as_nanos();
                for (gi, g) in xplan.groups.iter_mut().enumerate() {
                    let shocked: Vec<Rank> = g
                        .aggregators
                        .iter()
                        .map(|a| a.rank)
                        .filter(|&r| map.node_of(r) == NodeId(node))
                        .collect();
                    for agg in shocked {
                        let gkey = group_key(plan.sync, gi);
                        let affected =
                            rounds_after(g, plan.rw, agg, &pass1.windows, gkey, at_ns, false);
                        if affected.is_empty() {
                            continue;
                        }
                        let Some((repl, repl_buffer)) =
                            select_contended_replacement(g, map, mem, NodeId(node), &signals)
                        else {
                            continue;
                        };
                        if repl == agg {
                            continue;
                        }
                        adopt_replacement(g, agg, repl, repl_buffer);
                        adaptive_out.demotions += 1;
                        let first = *affected.first().expect("non-empty");
                        insert_gate(
                            &mut gates,
                            FaultGate {
                                group: gkey,
                                round: first,
                                from: at,
                                release: at + FAILOVER_LATENCY,
                                label: format!("replan.g{gi}.r{first}"),
                                adaptive: true,
                            },
                        );
                        replans.push(ReplanMark {
                            name: format!("demote.g{gi}.r{first}"),
                            cat: "demote",
                            start_ns: at_ns,
                            dur_ns: FAILOVER_LATENCY.as_nanos().max(1),
                            slot: None,
                            args: vec![
                                ("node".into(), node.to_string()),
                                ("drop_frac".into(), format!("{drop_frac:.6}")),
                                ("from".into(), format!("r{}", agg.0)),
                                ("to".into(), format!("r{}", repl.0)),
                            ],
                        });
                        let limit = repl_buffer.min(split_cap).max(1);
                        for r in affected {
                            retarget_round(&mut g.rounds[r], plan.rw, agg, repl);
                            for appended in split_oversized(g, r, repl, limit, plan.rw) {
                                adaptive_out.resplits += 1;
                                replans.push(ReplanMark {
                                    name: format!("resplit.g{gi}.r{appended}"),
                                    cat: "resplit",
                                    start_ns: 0,
                                    dur_ns: 1,
                                    slot: Some((gkey, appended)),
                                    args: vec![("limit".into(), limit.to_string())],
                                });
                            }
                        }
                    }
                }
            }

            // (3) Defer rounds past degraded OST windows when the probe
            // says waiting beats crawling (timing-only: no plan bytes
            // change).
            for d in plan_deferrals(
                fspec,
                policy,
                machine.io_servers,
                &clean.windows,
                &pass1.windows,
                0,
                1.0,
            ) {
                let gname = d.group.map_or_else(|| "all".into(), |g| g.to_string());
                let gate = FaultGate {
                    group: d.group,
                    round: d.round,
                    from: SimTime::from_nanos(d.from_ns),
                    release: SimTime::from_nanos(d.release_ns),
                    label: format!("defer.g{gname}.r{}", d.round),
                    adaptive: true,
                };
                if !insert_gate(&mut gates, gate) {
                    continue;
                }
                adaptive_out.deferrals += 1;
                replans.push(ReplanMark {
                    name: format!("defer.g{gname}.r{}", d.round),
                    cat: "defer",
                    start_ns: d.from_ns,
                    dur_ns: d.release_ns.saturating_sub(d.from_ns).max(1),
                    slot: None,
                    args: vec![("stretch".into(), format!("{:.6}", d.stretch))],
                });
            }
        }
    }

    if structural {
        let pass1 = pass1.as_ref().expect("probe ran");

        for &(node, drop_frac, at) in &fspec.mem_shocks() {
            if plan.strategy == Strategy::TwoPhase {
                // The baseline has no runtime re-rounding path; shocks
                // only matter to it through the OST/transient channel.
                continue;
            }
            let at_ns = at.saturating_since(SimTime::ZERO).as_nanos();
            for (gi, g) in xplan.groups.iter_mut().enumerate() {
                let shocked: Vec<(Rank, u64)> = g
                    .aggregators
                    .iter()
                    .filter(|a| map.node_of(a.rank) == NodeId(node))
                    .map(|a| {
                        let eff = ((a.buffer as f64) * (1.0 - drop_frac)) as u64;
                        (a.rank, eff.max(1))
                    })
                    .collect();
                for (agg, effective) in shocked {
                    let gkey = group_key(plan.sync, gi);
                    let affected = rounds_after(g, plan.rw, agg, &pass1.windows, gkey, at_ns, true);
                    for r in affected {
                        for appended in split_oversized(g, r, agg, effective, plan.rw) {
                            degraded.push((gkey, appended));
                        }
                    }
                }
            }
        }
    }

    // Pass 2 (or the only pass): the transformed plan under the full
    // injection, observed as the caller asked.
    let degraded_rounds = degraded.len();
    let last = MachineJob {
        gates,
        degraded,
        replans,
        ..MachineJob::new(
            &job.label,
            &xplan,
            Cow::Borrowed(map),
            job.pipeline,
            job.exchange,
        )
    };
    // The job (borrowing `xplan`) lives only for this call, so the
    // transformed plan can move into the recovery report below.
    let run = run_machine(&[last], machine, Some(fspec), obs);
    let retries: u64 = run
        .retry_marks
        .iter()
        .map(|m| u64::from(m.attempts.saturating_sub(1)))
        .sum();
    let retry_exhausted = run.retry_marks.iter().filter(|m| m.exhausted).count() as u64;

    if let Some(reg) = obs.registry {
        let strat = [("strategy", plan.strategy.label())];
        reg.describe(
            "faults.events",
            "count",
            "Fault events in the injected plan",
        );
        reg.describe(
            "faults.failovers",
            "count",
            "Aggregator failovers performed",
        );
        reg.describe(
            "faults.degraded_rounds",
            "count",
            "Extra rounds created by graceful degradation",
        );
        reg.describe(
            "faults.completed",
            "bool",
            "1 when the collective delivered every byte under injection",
        );
        reg.inc("faults.events", &strat, fspec.events.len() as u64);
        reg.inc("faults.failovers", &strat, failovers as u64);
        reg.inc("faults.degraded_rounds", &strat, degraded_rounds as u64);
        reg.set_gauge(
            "faults.completed",
            &strat,
            if completed { 1.0 } else { 0.0 },
        );
        // adaptive.* appears only when the controller ran, so an Off
        // run's metrics document is byte-identical to the static path.
        if adaptive {
            let lab = [
                ("strategy", plan.strategy.label()),
                ("policy", policy.label()),
            ];
            adaptive_out.record_into(reg, &lab, false);
        }
    }

    // The fault-free solo baseline: the controller's clean pass when
    // it ran; the run itself when the plan was empty (nothing was
    // injected); one more plain pass otherwise.
    let solo_elapsed = match clean {
        Some(clean) => Some(clean.report.elapsed),
        None if fspec.is_empty() => None,
        None => Some(solo_run(&solo, machine, obs).report.elapsed),
    };
    let recovery = FaultOutcome {
        completed,
        failovers,
        degraded_rounds,
        retries,
        retry_exhausted,
        executed_plan: xplan,
    };
    solo_outcome(job, run, solo_elapsed, adaptive_out, Some(recovery))
}

/// Wrap the one job of a resilient solo run into a [`RunOutcome`].
/// `solo_elapsed` is the fault-free baseline, `None` when `run` is
/// that baseline.
fn solo_outcome(
    job: &TenantJob,
    mut run: MachineRun,
    solo_elapsed: Option<SimDuration>,
    adaptive: AdaptiveOutcome,
    recovery: Option<FaultOutcome>,
) -> RunOutcome {
    let JobRun {
        report,
        start_ns,
        end_ns,
        ..
    } = run.jobs.remove(0);
    let solo_elapsed = solo_elapsed.unwrap_or(report.elapsed);
    RunOutcome {
        jobs: vec![JobOutcome {
            label: job.label.clone(),
            strategy: job.plan.strategy,
            slowdown: slowdown(report.elapsed, solo_elapsed),
            report,
            start_ns,
            end_ns,
            solo_elapsed,
            ost_overlap: 0.0,
            adaptive,
        }],
        makespan: run.makespan,
        engine: run.engine,
        trace: run.trace,
        recovery,
    }
}

/// The trace/gate group key for group `gi` under `sync`: the global
/// chain zips all groups, so its slots are keyed `None`.
fn group_key(sync: SyncMode, gi: usize) -> Option<usize> {
    match sync {
        SyncMode::Global => None,
        SyncMode::PerGroup => Some(gi),
    }
}

/// Push `gate` unless a gate already holds its (group, round) slot;
/// returns whether it was pushed. The first gate on a slot wins.
fn insert_gate(gates: &mut Vec<FaultGate>, gate: FaultGate) -> bool {
    let held = gates
        .iter()
        .any(|g| g.group == gate.group && g.round == gate.round);
    if !held {
        gates.push(gate);
    }
    !held
}

/// Rounds of `g` that involve aggregator `agg` and, per the pass-1
/// windows of chain `gkey`, were still in flight at `at_ns`
/// (`in_flight`: the window ends after it) or had not *started* yet
/// (the window starts after it — the adaptive demotion path only
/// re-targets rounds that can still change aggregator cleanly). Rounds
/// with no recorded window (created by an earlier transform, executed
/// at the end of the chain) count either way.
fn rounds_after(
    g: &GroupPlan,
    rw: Rw,
    agg: Rank,
    windows: &[RoundWindow],
    gkey: Option<usize>,
    at_ns: u64,
    in_flight: bool,
) -> Vec<usize> {
    (0..g.rounds.len())
        .filter(|&r| {
            let round = &g.rounds[r];
            let involves = round.ios.iter().any(|io| io.agg == agg)
                || round.messages.iter().any(|m| m.agg_end(rw) == agg);
            if !involves {
                return false;
            }
            let slot = windows
                .iter()
                .filter(|w| w.round == r && (w.group == gkey || w.group.is_none()));
            let edge = if in_flight {
                slot.map(|w| w.end_ns).max()
            } else {
                slot.map(|w| w.start_ns).min()
            };
            edge.unwrap_or(u64::MAX) > at_ns
        })
        .collect()
}

/// Add `repl` to `g`'s aggregators (taking over `from`'s file domain
/// and data share, with its own `buffer`) unless it already is one.
fn adopt_replacement(g: &mut GroupPlan, from: Rank, repl: Rank, buffer: u64) {
    if g.aggregators.iter().any(|a| a.rank == repl) {
        return;
    }
    let (fd, data_bytes) = g
        .aggregators
        .iter()
        .find(|a| a.rank == from)
        .map(|a| (a.fd, a.data_bytes))
        .unwrap_or((Extent::EMPTY, 0));
    g.aggregators.push(AggregatorAssignment {
        rank: repl,
        fd,
        buffer,
        data_bytes,
    });
}

/// Memory-aware replacement selection, mirroring the planner's placement
/// scoring: prefer a non-aggregator member rank off the crashed node
/// with the largest memory budget (lowest rank breaks ties); fall back
/// to an existing aggregator of the group off the node (reusing its
/// buffer); as a last resort *borrow* any off-node rank of the job —
/// node-aligned groups can be confined to the crashed node, and a
/// borrowed aggregator on a healthy node is what keeps the collective
/// alive. `None` only when every rank of the job lives on the crashed
/// node.
fn select_replacement(
    g: &GroupPlan,
    map: &ProcessMap,
    mem: &ProcMemory,
    down: NodeId,
) -> Option<(Rank, u64)> {
    let fresh = g
        .ranks
        .iter()
        .copied()
        .filter(|&r| map.node_of(r) != down)
        .filter(|&r| !g.aggregators.iter().any(|a| a.rank == r))
        .max_by_key(|&r| (mem.budget(r), std::cmp::Reverse(r.0)));
    if let Some(r) = fresh {
        return Some((r, mem.budget(r).max(1)));
    }
    if let Some(a) = g
        .aggregators
        .iter()
        .filter(|a| map.node_of(a.rank) != down)
        .max_by_key(|a| (a.buffer, std::cmp::Reverse(a.rank.0)))
    {
        return Some((a.rank, a.buffer));
    }
    (0..map.nranks())
        .map(Rank)
        .filter(|&r| map.node_of(r) != down)
        .max_by_key(|&r| (mem.budget(r), std::cmp::Reverse(r.0)))
        .map(|r| (r, mem.budget(r).max(1)))
}

/// Re-point every aggregator-side endpoint of `round` from `from` to
/// `to`: I/O ops, and the aggregator end of each message.
fn retarget_round(round: &mut Round, rw: Rw, from: Rank, to: Rank) {
    for io in &mut round.ios {
        if io.agg == from {
            io.agg = to;
        }
    }
    for m in &mut round.messages {
        if m.agg_end(rw) == from {
            *m = Message::new(rw, to, m.peer_end(rw), std::mem::take(&mut m.extents));
        }
    }
}

/// Graceful degradation: split every I/O op of round `r` owned by `agg`
/// whose window exceeds `limit` into `limit`-sized chunks. The first
/// chunk replaces the op in place; the rest become new rounds appended
/// to the group, and the matching message extents move with them (split
/// at the same exact boundaries, preserving conservation). Returns the
/// indices of the appended rounds.
fn split_oversized(g: &mut GroupPlan, r: usize, agg: Rank, limit: u64, rw: Rw) -> Vec<usize> {
    let mut appended = Vec::new();
    let nios = g.rounds[r].ios.len();
    for i in 0..nios {
        if g.rounds[r].ios[i].agg != agg || g.rounds[r].ios[i].window.len <= limit {
            continue;
        }
        let io = g.rounds[r].ios[i].clone();
        let mut chunks = Vec::new();
        let mut off = io.window.offset;
        while off < io.window.end() {
            let len = limit.min(io.window.end() - off);
            chunks.push(Extent::new(off, len));
            off += len;
        }
        // Chunk 0 shrinks the op in place.
        g.rounds[r].ios[i] = IoOp {
            agg,
            window: chunks[0],
            extents: clip_extents(&io.extents, &chunks[0]),
        };
        // Later chunks each get their own appended round; the matching
        // message pieces move with them.
        for chunk in &chunks[1..] {
            let mut moved = Vec::new();
            for m in &mut g.rounds[r].messages {
                if m.agg_end(rw) != agg {
                    continue;
                }
                let mut stay = Vec::new();
                let mut go = Vec::new();
                for e in &m.extents {
                    match e.intersect(chunk) {
                        Some(inside) => {
                            go.push(inside);
                            if e.offset < inside.offset {
                                stay.push(Extent::from_bounds(e.offset, inside.offset));
                            }
                            if e.end() > inside.end() {
                                stay.push(Extent::from_bounds(inside.end(), e.end()));
                            }
                        }
                        None => stay.push(*e),
                    }
                }
                if !go.is_empty() {
                    m.extents = stay;
                    moved.push(Message::new(rw, agg, m.peer_end(rw), go));
                }
            }
            g.rounds[r].messages.retain(|m| !m.extents.is_empty());
            g.rounds.push(Round {
                messages: moved,
                ios: vec![IoOp {
                    agg,
                    window: *chunk,
                    extents: clip_extents(&io.extents, chunk),
                }],
            });
            appended.push(g.rounds.len() - 1);
        }
    }
    appended
}

/// The pieces of `extents` inside `window`, clipped at its boundaries.
fn clip_extents(extents: &[Extent], window: &Extent) -> Vec<Extent> {
    extents.iter().filter_map(|e| e.intersect(window)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CollectiveConfig;
    use crate::exec_fn;
    use crate::exec_sim::TimingReport;
    use crate::request::CollectiveRequest;
    use crate::run;
    use crate::{mcio, twophase};
    use mcio_cluster::spec::ClusterSpec;
    use mcio_cluster::Placement;
    use mcio_faults::FaultSpec;
    use mcio_pfs::SparseFile;

    const MIB: u64 = 1 << 20;

    fn serial_req(rw: Rw, nranks: usize, chunk: u64) -> CollectiveRequest {
        CollectiveRequest::new(
            rw,
            (0..nranks as u64)
                .map(|r| vec![Extent::new(r * chunk, chunk)])
                .collect(),
        )
    }

    fn setup(
        nranks: usize,
        ppn: usize,
        chunk: u64,
    ) -> (
        CollectiveRequest,
        ProcessMap,
        ProcMemory,
        CollectiveConfig,
        ClusterSpec,
    ) {
        let req = serial_req(Rw::Write, nranks, chunk);
        let map = ProcessMap::new(nranks, ppn, Placement::Block);
        let mem = ProcMemory::uniform(nranks, chunk);
        let cfg = CollectiveConfig::with_buffer(chunk);
        let spec = ClusterSpec::small(nranks / ppn, 2);
        (req, map, mem, cfg, spec)
    }

    /// What the tests read off one resilient run.
    struct Faulted {
        report: TimingReport,
        trace: Option<String>,
        recovery: FaultOutcome,
    }

    /// `plan` alone under `fault`, with structural recovery armed.
    fn faulted(
        plan: &CollectivePlan,
        map: &ProcessMap,
        spec: &ClusterSpec,
        mem: &ProcMemory,
        fault: &FaultSpec,
        trace: bool,
    ) -> Faulted {
        let jobs = [TenantJob::new("solo", plan.clone(), map.clone())];
        let mut out = run(&RunSpec {
            faults: Some(fault),
            observe: crate::Observe {
                trace,
                ..crate::Observe::default()
            },
            memory: Some(mem),
            ..RunSpec::new(&jobs, spec)
        });
        Faulted {
            trace: out.trace_json(),
            report: out.jobs.remove(0).report,
            recovery: out.recovery.expect("a faulted run reports its recovery"),
        }
    }

    fn written(plan: &CollectivePlan, len: u64) -> Vec<u8> {
        let mut file = SparseFile::new();
        exec_fn::execute_write(plan, &mut file).expect("plan executes");
        file.read_vec(0, len as usize)
    }

    #[test]
    fn fault_free_spec_matches_plain_simulation() {
        let (req, map, mem, cfg, spec) = setup(8, 2, 2 * MIB);
        let plan = mcio::plan(&req, &map, &mem, &cfg);
        let base = crate::exec_sim::simulate(&plan, &map, &spec);
        let out = faulted(&plan, &map, &spec, &mem, &FaultSpec::none(), false);
        assert!(out.recovery.completed);
        assert_eq!(out.report.elapsed, base.elapsed);
        assert_eq!(out.recovery.failovers, 0);
        assert_eq!(out.recovery.degraded_rounds, 0);
    }

    #[test]
    fn agg_crash_fails_over_and_preserves_bytes() {
        let (req, map, mem, cfg, spec) = setup(8, 2, 2 * MIB);
        let plan = mcio::plan(&req, &map, &mem, &cfg);
        let fault = FaultSpec::parse("seed 7\nagg_crash(0, 1ms)").unwrap();
        let out = faulted(&plan, &map, &spec, &mem, &fault, false);
        assert!(
            out.recovery.completed,
            "MC-CIO must survive an aggregator crash"
        );
        assert!(
            out.recovery.failovers > 0,
            "crash at t=1ms must trigger a failover"
        );
        let total = 8 * 2 * MIB;
        assert_eq!(
            written(&out.recovery.executed_plan, total),
            written(&plan, total),
            "failover must not change the bytes written"
        );
        assert!(
            out.report.elapsed >= crate::exec_sim::simulate(&plan, &map, &spec).elapsed,
            "failover cannot make the run faster"
        );
    }

    #[test]
    fn two_phase_does_not_survive_agg_crash() {
        let (req, map, mem, cfg, spec) = setup(8, 2, 2 * MIB);
        let plan = twophase::plan(&req, &map, &mem, &cfg);
        let fault = FaultSpec::parse("seed 7\nagg_crash(0, 1ms)").unwrap();
        let out = faulted(&plan, &map, &spec, &mem, &fault, false);
        assert!(!out.recovery.completed, "baseline has no failover path");
        assert_eq!(out.recovery.failovers, 0);
    }

    #[test]
    fn crash_after_completion_is_harmless() {
        let (req, map, mem, cfg, spec) = setup(8, 2, 2 * MIB);
        let plan = mcio::plan(&req, &map, &mem, &cfg);
        let fault = FaultSpec::parse("seed 7\nagg_crash(0, 1000s)").unwrap();
        let out = faulted(&plan, &map, &spec, &mem, &fault, false);
        assert!(out.recovery.completed);
        assert_eq!(out.recovery.failovers, 0);
        assert_eq!(
            out.report.elapsed,
            crate::exec_sim::simulate(&plan, &map, &spec).elapsed
        );
    }

    #[test]
    fn mem_shock_degrades_rounds_and_preserves_bytes() {
        let (req, map, mem, cfg, spec) = setup(8, 2, 2 * MIB);
        let plan = mcio::plan(&req, &map, &mem, &cfg);
        let fault = FaultSpec::parse("seed 7\nmem_shock(0, 0.75, 0ns)").unwrap();
        let out = faulted(&plan, &map, &spec, &mem, &fault, false);
        assert!(out.recovery.completed);
        let total = 8 * 2 * MIB;
        assert_eq!(
            written(&out.recovery.executed_plan, total),
            written(&plan, total),
            "degradation must not change the bytes written"
        );
        if out.recovery.degraded_rounds > 0 {
            assert!(
                out.recovery.executed_plan.max_rounds() > plan.max_rounds(),
                "degradation re-rounds by appending rounds"
            );
        }
    }

    #[test]
    fn transformed_plan_still_checks() {
        let (req, map, mem, cfg, spec) = setup(8, 2, 2 * MIB);
        let plan = mcio::plan(&req, &map, &mem, &cfg);
        plan.check(&req).expect("input plan is sound");
        let fault = FaultSpec::parse("seed 3\nagg_crash(0, 1ms)\nmem_shock(1, 0.5, 2ms)").unwrap();
        let out = faulted(&plan, &map, &spec, &mem, &fault, false);
        assert!(out.recovery.completed);
        out.recovery
            .executed_plan
            .check(&req)
            .expect("failover + degradation preserve plan invariants");
    }

    #[test]
    fn faulted_run_is_deterministic() {
        let (req, map, mem, cfg, spec) = setup(8, 2, 2 * MIB);
        let plan = mcio::plan(&req, &map, &mem, &cfg);
        let text =
            "seed 11\nost_slow(0, 4.0, 0ns..5ms)\nreq_transient_fail(0.3, 99)\nagg_crash(0, 1ms)";
        let run = || {
            let fault = FaultSpec::parse(text).unwrap();
            faulted(&plan, &map, &spec, &mem, &fault, true)
        };
        let (a, b) = (run(), run());
        assert_eq!(a.report.elapsed, b.report.elapsed);
        assert_eq!(a.trace, b.trace, "traces must be byte-identical");
        assert_eq!(a.recovery.retries, b.recovery.retries);
    }

    #[test]
    fn retries_surface_in_outcome() {
        let (req, map, mem, cfg, spec) = setup(8, 2, 2 * MIB);
        let plan = mcio::plan(&req, &map, &mem, &cfg);
        let fault = FaultSpec::parse("seed 5\nreq_transient_fail(0.9, 1)").unwrap();
        let out = faulted(&plan, &map, &spec, &mem, &fault, false);
        assert!(out.recovery.completed);
        assert!(out.recovery.retries > 0, "p=0.9 must produce retries");
    }
}
