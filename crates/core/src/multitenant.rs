//! Shared-machine execution: N independent collective jobs on one
//! machine.
//!
//! The paper tunes collective I/O on a dedicated testbed, but a real
//! extreme-scale machine runs many collective jobs against one shared
//! parallel file system. A [`run`](crate::run) without
//! [`RunSpec::memory`](crate::RunSpec::memory) lowers every job's plan
//! into the *single* discrete-event simulation of the one runner
//! (`exec_sim`'s `run_machine`) over one shared
//! [`Fabric`](mcio_cluster::Fabric) and [`Pfs`](mcio_pfs::Pfs), so
//! cross-job contention on OSTs, NICs and memory buses falls out of the
//! existing resource model instead of being modeled separately:
//!
//! * each job owns a node partition via
//!   [`TenantJob::node_offset`](crate::TenantJob::node_offset)
//!   (partitions may overlap — two jobs can share nodes);
//! * each job arrives at [`TenantJob::start`](crate::TenantJob::start)
//!   (simulated time, no wall-clock): a release-gated activity holds
//!   back its first round;
//! * with two or more jobs every activity label is namespaced `j{n}.`
//!   so traces, metrics and `mcio-analyze` can attribute work to a job.
//!
//! A single job with offset 0 and start 0 is the very simulation
//! [`simulate_observed`](crate::simulate_observed) runs — the prefix
//! collapses to `""` and the core is the same function
//! (`crates/core/tests/multitenant_props.rs` proves the bytes match).
//!
//! Interference metrics per job:
//! * **slowdown** — the job's span on the shared machine divided by
//!   its elapsed time when simulated alone on the same nodes;
//! * **OST busy-overlap** — the fraction of the job's OST service time
//!   during which at least one *other* job was also being served by
//!   some OST (how much of its storage work was contended).
//!
//! The closed-loop controller's lever on a shared machine is
//! *deferral*: a probe of the whole shared, degraded run decides which
//! of each MC job's rounds should wait out a degraded OST window
//! instead of crawling through it, and those rounds are release-gated
//! in the shared DES. Structural recovery (crash failover, shock
//! demotion) re-plans one job on a machine of its own and is refused
//! here ([`run`](crate::run) enforces it).

use crate::adaptive::{contention_stretch, plan_deferrals, AdaptiveOutcome, SignalSnapshot};
use crate::config::Strategy;
use crate::exec_sim::{
    run_machine, slowdown, solo_run, FaultGate, JobOutcome, MachineJob, ReplanMark, RunOutcome,
    RunSpec,
};
use mcio_des::SimTime;
use mcio_faults::FaultSpec;

/// The trace process id of the per-job tenant lanes (pid 1 = resources,
/// 2 = round phases, 3 = faults). Emitted only when a run has two or
/// more jobs, so single-job traces stay byte-identical to solo runs.
pub const PID_TENANTS: u64 = 4;

/// The shared-machine run behind [`run`](crate::run) when no memory
/// budgets were given: every job lowered into one DES, each measured
/// against its fault-free solo baseline on the same nodes.
///
/// `spec.faults` is a machine-level fault plan (OST slowdowns/stalls,
/// transient request failures) applied to the shared PFS — every job
/// sees it, exactly like a real storage degradation. With the
/// controller on, MC-CIO jobs defer rounds past degraded OST windows:
/// feeding the deferral planner *shared* probe windows rather than
/// solo ones is what makes it contention-aware — on a busy machine a
/// round starts far later than its solo probe predicts, and a gate
/// computed from solo times would release before the round was ever
/// going to run. Two-phase jobs and [`AdaptivePolicy::Off`] take the
/// static path byte-for-byte.
///
/// [`AdaptivePolicy::Off`]: crate::AdaptivePolicy::Off
pub(crate) fn run_shared(spec: &RunSpec<'_>) -> RunOutcome {
    let RunSpec {
        jobs,
        machine,
        faults,
        policy,
        observe: obs,
        ..
    } = *spec;
    let multi = jobs.len() > 1;
    let controller_ran = |strategy: Strategy| {
        !policy.is_off() && faults.is_some_and(|f| !f.is_empty()) && strategy != Strategy::TwoPhase
    };
    let mut lowered: Vec<MachineJob<'_>> = jobs.iter().map(MachineJob::of).collect();

    // Solo baselines: each job alone on its nodes, fault-free (the
    // controller's nominal timeline too). A lone job arriving at time 0
    // on a fault-free machine *is* its own baseline; that run is not
    // repeated.
    let is_own_baseline =
        !multi && jobs[0].start.is_zero() && faults.is_none_or(FaultSpec::is_empty);
    let solos: Vec<_> = if is_own_baseline {
        vec![None]
    } else {
        lowered
            .iter()
            .map(|job| Some(solo_run(job, machine, obs)))
            .collect()
    };

    // Closed-loop deferral: when any job's controller will act, run the
    // whole shared, degraded machine once without gates to learn where
    // every round actually lands under contention; the solo clean run
    // says how long each round takes at nominal rate. Rounds the
    // comparison condemns to crawling through a degraded OST window are
    // held behind a release gate in the shared DES. The probe ignores
    // the gates it motivates — a mistimed gate only costs idle time,
    // never correctness.
    let mut adaptive = vec![
        AdaptiveOutcome {
            policy,
            ..AdaptiveOutcome::default()
        };
        jobs.len()
    ];
    if jobs.iter().any(|j| controller_ran(j.plan.strategy)) {
        let fspec = faults.expect("controller_ran implies faults");
        let probe = run_machine(&lowered, machine, Some(fspec), obs.engine_only());
        for (ji, job) in jobs.iter().enumerate() {
            if !controller_ran(job.plan.strategy) {
                continue;
            }
            let clean = solos[ji]
                .as_ref()
                .expect("a faulted run computes baselines");
            let horizon = clean.report.elapsed.as_nanos();
            let signals = SignalSnapshot::sample(fspec, machine.io_servers, horizon, 0.0);
            adaptive[ji].severity = signals.severity();
            if adaptive[ji].severity <= policy.dead_band() {
                continue;
            }
            // The shared-probe windows are already absolute (the job's
            // arrival gate is inside the probe), so no offset; tenancy
            // queueing is factored out of the defer-vs-crawl comparison
            // by the contention scale.
            let shared = &probe.jobs[ji].windows;
            let scale = contention_stretch(fspec, machine.io_servers, &clean.windows, shared, 0);
            for d in plan_deferrals(
                fspec,
                policy,
                machine.io_servers,
                &clean.windows,
                shared,
                0,
                scale,
            ) {
                let gname = d.group.map_or_else(|| "all".into(), |g| g.to_string());
                let label = format!("defer.g{gname}.r{}", d.round);
                adaptive[ji].deferrals += 1;
                lowered[ji].replans.push(ReplanMark {
                    name: label.clone(),
                    cat: "defer",
                    start_ns: d.from_ns,
                    dur_ns: d.release_ns.saturating_sub(d.from_ns).max(1),
                    slot: None,
                    args: vec![
                        ("job".into(), job.label.clone()),
                        ("stretch".into(), format!("{:.6}", d.stretch)),
                    ],
                });
                lowered[ji].gates.push(FaultGate {
                    group: d.group,
                    round: d.round,
                    from: SimTime::from_nanos(d.from_ns),
                    release: SimTime::from_nanos(d.release_ns),
                    label,
                    adaptive: true,
                });
            }
        }
    }

    let shared = run_machine(&lowered, machine, faults, obs);

    let mut outcomes: Vec<JobOutcome> = Vec::with_capacity(jobs.len());
    for (ji, job) in jobs.iter().enumerate() {
        let run = &shared.jobs[ji];
        let solo_elapsed = solos[ji]
            .as_ref()
            .map_or(run.report.elapsed, |s| s.report.elapsed);
        let others: Vec<(u64, u64)> = merge_intervals(
            shared
                .jobs
                .iter()
                .enumerate()
                .filter(|(oj, _)| *oj != ji)
                .flat_map(|(_, o)| o.ost.iter().copied())
                .collect(),
        );
        let own = total_len(&run.ost);
        let ost_overlap = if own == 0 {
            0.0
        } else {
            intersect_len(&run.ost, &others) as f64 / own as f64
        };
        outcomes.push(JobOutcome {
            label: job.label.clone(),
            strategy: job.plan.strategy,
            report: run.report.clone(),
            start_ns: run.start_ns,
            end_ns: run.end_ns,
            solo_elapsed,
            slowdown: slowdown(run.report.elapsed, solo_elapsed),
            ost_overlap,
            adaptive: adaptive[ji].clone(),
        });
    }

    if let Some(reg) = obs.registry {
        reg.describe("tenant.jobs", "count", "Concurrent jobs in the run");
        reg.describe("tenant.makespan_ns", "ns", "Shared-machine makespan");
        reg.describe(
            "tenant.slowdown",
            "ratio",
            "Per-job span over solo elapsed (interference cost)",
        );
        reg.describe(
            "tenant.ost_overlap_frac",
            "ratio",
            "Per-job fraction of OST service time overlapping other tenants",
        );
        reg.describe(
            "tenant.solo_elapsed_ns",
            "ns",
            "Per-job elapsed when simulated alone on the same nodes",
        );
        let none: [(&str, &str); 0] = [];
        reg.set_gauge("tenant.jobs", &none, jobs.len() as f64);
        reg.set_gauge(
            "tenant.makespan_ns",
            &none,
            shared.makespan.as_nanos() as f64,
        );
        for outcome in &outcomes {
            let labels = [
                ("job", outcome.label.as_str()),
                ("strategy", outcome.strategy.label()),
            ];
            reg.set_gauge("tenant.slowdown", &labels, outcome.slowdown);
            reg.set_gauge("tenant.ost_overlap_frac", &labels, outcome.ost_overlap);
            reg.set_gauge(
                "tenant.solo_elapsed_ns",
                &labels,
                outcome.solo_elapsed.as_nanos() as f64,
            );
        }
        // adaptive.* appears only for jobs the controller actually
        // handled, so Off (and all-static) runs keep their documents
        // byte-identical.
        for outcome in outcomes.iter().filter(|o| controller_ran(o.strategy)) {
            let labels = [
                ("job", outcome.label.as_str()),
                ("strategy", outcome.strategy.label()),
                ("policy", policy.label()),
            ];
            outcome.adaptive.record_into(reg, &labels, true);
        }
    }

    // Per-job window lanes, once the interference numbers are known.
    if let Some(tc) = shared.trace.as_ref().filter(|_| multi) {
        tc.name_process(PID_TENANTS, "tenants");
        for (ji, outcome) in outcomes.iter().enumerate() {
            tc.name_thread(PID_TENANTS, ji as u64, &format!("j{ji} {}", outcome.label));
            let slowdown = format!("{:.6}", outcome.slowdown);
            let overlap = format!("{:.6}", outcome.ost_overlap);
            tc.span_with_args(
                &format!("j{ji}.window"),
                "tenant",
                PID_TENANTS,
                ji as u64,
                outcome.start_ns,
                outcome.end_ns - outcome.start_ns,
                &[
                    ("job", outcome.label.as_str()),
                    ("strategy", outcome.strategy.label()),
                    ("slowdown", slowdown.as_str()),
                    ("ost_overlap", overlap.as_str()),
                ],
            );
        }
    }

    RunOutcome {
        jobs: outcomes,
        makespan: shared.makespan,
        engine: shared.engine,
        trace: shared.trace,
        recovery: None,
    }
}

/// Merge possibly-overlapping intervals into a sorted disjoint set.
pub(crate) fn merge_intervals(mut v: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    v.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(v.len());
    for (s, e) in v {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Total length of a disjoint, sorted interval set.
fn total_len(v: &[(u64, u64)]) -> u64 {
    v.iter().map(|(s, e)| e - s).sum()
}

/// Length of the intersection of two disjoint, sorted interval sets.
fn intersect_len(a: &[(u64, u64)], b: &[(u64, u64)]) -> u64 {
    let (mut i, mut j, mut acc) = (0usize, 0usize, 0u64);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if hi > lo {
            acc += hi - lo;
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_helpers() {
        let merged = merge_intervals(vec![(5, 9), (0, 3), (2, 4), (9, 12)]);
        assert_eq!(merged, vec![(0, 4), (5, 12)]);
        assert_eq!(total_len(&merged), 11);
        assert_eq!(intersect_len(&[(0, 10)], &[(5, 15)]), 5);
        assert_eq!(intersect_len(&[(0, 2), (4, 6)], &[(1, 5)]), 2);
        assert_eq!(intersect_len(&[(0, 2)], &[(2, 4)]), 0);
        assert_eq!(intersect_len(&[], &[(0, 4)]), 0);
    }
}
