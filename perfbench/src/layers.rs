//! Per-layer metrics of one traced repetition.
//!
//! The benchmark's own scopes (see [`crate::workload`]) are named
//! after the metric they feed; the simulator's existing
//! `build-activity-graph`, `des-run` and `trace-emit` scopes nest inside
//! the `sim.fifo` / `sim.fair` scope around `simulate_observed`. A
//! layer's self time is the exclusive time of its scopes, so the self
//! times partition the attributed part of the repetition's wall time.

use crate::workload::Counters;
use mcio_prof::PhaseRow;

/// One named metric value with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// Host-side totals of the traced repetition.
#[derive(Debug, Clone, Copy, Default)]
pub struct RepHost {
    /// Wall time of the repetition (setup and operations), ns.
    pub wall_ns: u64,
    /// User CPU seconds spent in it.
    pub user_s: f64,
    /// System CPU seconds spent in it.
    pub sys_s: f64,
}

/// Exclusive nanoseconds of the rows `pick` selects.
fn excl(rows: &[PhaseRow], pick: impl Fn(&str) -> bool) -> u64 {
    rows.iter()
        .filter(|r| pick(&r.path))
        .map(|r| r.exclusive_ns)
        .sum()
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// `ns / n`, or 0 when nothing was counted.
fn per(ns: u64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        ns as f64 / n as f64
    }
}

/// The per-layer metrics of one traced repetition, from its profiler
/// rows and work counters. `fcfs_ns` is the FCFS replay of a job
/// stream (0 for other workloads).
pub fn per_layer(rows: &[PhaseRow], k: &Counters, host: RepHost, fcfs_ns: u64) -> Vec<Metric> {
    let is = |name: &'static str| move |p: &str| p == name;
    let gen = excl(rows, is("workloads.gen"));
    let tp = excl(rows, is("plan.tp"));
    let mc = excl(rows, is("plan.mc"));
    let check = excl(rows, is("plan.check"));
    let lower = excl(rows, |p| p.ends_with("/build-activity-graph"));
    let des = excl(rows, |p| p.ends_with("/des-run"));
    let des_fifo = excl(rows, is("sim.fifo/des-run"));
    let des_fair = excl(rows, is("sim.fair/des-run"));
    let emit = excl(rows, |p| p.ends_with("/trace-emit"));
    let sim_other = excl(rows, |p| p == "sim.fifo" || p == "sim.fair");
    let parse = excl(rows, is("analyze.parse"));
    let cp = excl(rows, is("analyze.critical_path"));
    let backfill = excl(rows, is("sched.backfill"));
    let attributed: u64 = rows.iter().map(|r| r.exclusive_ns).sum();
    let unattributed = host.wall_ns as f64 - attributed as f64;
    vec![
        ("workloads.gen_ms", ms(gen), "ms"),
        ("workloads.extents", k.extents as f64, "count"),
        ("plan.tp_ms", ms(tp), "ms"),
        ("plan.mc_ms", ms(mc), "ms"),
        ("plan.check_ms", ms(check), "ms"),
        ("plan.ns_per_extent", per(tp + mc, k.extents_planned), "ns"),
        ("plan.messages", k.messages as f64, "count"),
        ("plan.io_requests", k.io_requests as f64, "count"),
        ("plan.aggregators", k.aggregators as f64, "count"),
        ("lower.ms", ms(lower), "ms"),
        ("lower.activities", k.activities as f64, "count"),
        ("lower.resources", k.resources as f64, "count"),
        ("lower.ns_per_activity", per(lower, k.activities), "ns"),
        ("des.ms", ms(des), "ms"),
        ("des.events", k.events as f64, "count"),
        ("des.events_cancelled", k.events_cancelled as f64, "count"),
        ("des.heap_high_water", k.heap_high_water as f64, "count"),
        ("des.ns_per_event", per(des, k.events), "ns"),
        ("des.fifo_ns_per_event", per(des_fifo, k.fifo_events), "ns"),
        ("des.fair_ns_per_event", per(des_fair, k.fair_events), "ns"),
        ("sim.other_ms", ms(sim_other), "ms"),
        ("trace.emit_ms", ms(emit), "ms"),
        ("trace.bytes", k.trace_bytes as f64, "bytes"),
        ("trace.spans", k.spans as f64, "count"),
        ("analyze.parse_ms", ms(parse), "ms"),
        ("analyze.critical_path_ms", ms(cp), "ms"),
        ("analyze.ns_per_span", per(parse + cp, k.spans), "ns"),
        ("sched.backfill_ms", ms(backfill), "ms"),
        ("sched.fcfs_ms", ms(fcfs_ns), "ms"),
        ("sched.speculation_ms", ms(backfill) - ms(fcfs_ns), "ms"),
        ("sched.us_per_job", per(backfill, k.jobs) / 1e3, "us"),
        ("sched.backfills", k.backfills as f64, "count"),
        ("sched.max_queue_depth", k.max_queue_depth as f64, "count"),
        ("host.user_s", host.user_s, "s"),
        ("host.sys_s", host.sys_s, "s"),
        ("host.wall_ms", ms(host.wall_ns), "ms"),
        (
            "host.attributed_pct",
            100.0 * per(attributed, host.wall_ns),
            "%",
        ),
        ("unattributed_ms", unattributed / 1e6, "ms"),
    ]
}
