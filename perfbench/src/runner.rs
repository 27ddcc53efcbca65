//! The measurement loop: repeat a workload for a fixed time, check
//! every operation, and reduce the repetitions to medians.
//!
//! A run is one process and one workload. Its first repetition warms
//! the process (caches, allocator, lazily built tables) and is checked
//! but not timed. Untraced runs then time each repetition's set-up and
//! operations separately. Traced runs alternate an untraced repetition
//! with a profiled one, so the difference of their medians is the
//! tracing overhead.
//!
//! How much work an input does depends on its memory draw (the job
//! stream's backfill decisions most of all), so one run cycles through
//! [`ENVIRONMENTS`] memory environments drawn from its seed: timed
//! repetition `i` uses environment `i mod ENVIRONMENTS`, and the warm-up
//! uses environment 0, the seed's own inputs. A run's median then does
//! not hinge on a single memory draw.

use crate::host;
use crate::layers::{per_layer, Metric, RepHost};
use crate::workload::{
    self, check_references, references, setup, Inputs, Outcome, Reference, Scale, Workload,
    DEFAULT_SEED,
};
use mcio_prof::Prof;
use mcio_sched::Policy;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Fewest set-up samples behind `setup_s`.
const MIN_SETUPS: usize = 9;
/// After each timed repetition, extra set-up samples are taken while
/// they fit in this slice, so cheap set-ups are sampled many times and
/// across the whole run rather than in one burst.
const SETUP_SLICE: Duration = Duration::from_millis(40);

/// Memory environments one run cycles through.
pub const ENVIRONMENTS: u64 = 8;

/// Input seed of environment `env` of run seed `seed`; environment 0
/// is the seed itself.
pub fn input_seed(seed: u64, env: u64) -> u64 {
    seed.wrapping_add(env << 32)
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Its input size.
    pub scale: Scale,
    /// Input seed.
    pub seed: u64,
    /// Measure at least this long (after the warm-up repetition).
    pub seconds: f64,
    /// Fewest timed repetitions, however long they take.
    pub min_reps: usize,
    /// Report per-layer metrics from profiled repetitions.
    pub trace: bool,
    /// Simulated results the operations must reproduce.
    pub references: Vec<Reference>,
}

impl Options {
    /// Full-size options; the committed references apply at the
    /// default seed.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        let references = if seed == DEFAULT_SEED {
            references(workload).to_vec()
        } else {
            Vec::new()
        };
        Options {
            workload,
            scale: Scale::Full,
            seed,
            seconds,
            min_reps: 3,
            trace,
            references,
        }
    }
}

/// The outcome of one run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations run (cells and schedules), warm-up included.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// One message per failed operation.
    pub errors: Vec<String>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Wall seconds of the untimed warm-up repetition.
    pub cold_rep_s: f64,
    /// Timed repetitions (traced runs: profiled ones).
    pub reps: usize,
    /// Set-up samples behind `setup_s`.
    pub setup_samples: usize,
    /// Deterministic counters of the last repetition.
    pub counters: workload::Counters,
    /// Simulated elapsed nanoseconds of each operation (a schedule's
    /// makespan), from its first passing repetition.
    pub simulated_ns: BTreeMap<String, u64>,
}

/// Counts operations and fails those that disagree with a reference
/// or with an earlier repetition on the same inputs.
struct Tally<'a> {
    refs: &'a [Reference],
    first: BTreeMap<(u64, String), Vec<u64>>,
    report: Report,
}

impl Tally<'_> {
    fn record(&mut self, env: u64, mut out: Outcome) {
        if env == 0 {
            check_references(&mut out.cells, self.refs);
        }
        for cell in &mut out.cells {
            let key = (env, cell.label.clone());
            match self.first.get(&key) {
                Some(d) if *d != cell.digest && cell.error.is_none() => {
                    cell.error = Some(format!(
                        "{}: outputs differ from the first repetition",
                        cell.label
                    ));
                }
                None if cell.error.is_none() => {
                    self.first.insert(key, cell.digest.clone());
                    if env == 0 {
                        self.report
                            .simulated_ns
                            .insert(cell.label.clone(), cell.elapsed_ns);
                    }
                }
                _ => {}
            }
        }
        let r = &mut self.report;
        r.attempted += out.cells.len() as u64;
        r.failed += out.failed();
        r.errors
            .extend(out.cells.iter().filter_map(|c| c.error.clone()));
    }
}

fn build(o: &Options, env: u64, prof: &Prof) -> Result<Inputs, String> {
    let seed = input_seed(o.seed, env);
    catch_unwind(AssertUnwindSafe(|| setup(o.workload, o.scale, seed, prof)))
        .unwrap_or_else(|_| Err("set-up panicked".to_string()))
        .map_err(|e| format!("{}: set-up failed: {e}", o.workload.name()))
}

/// Time one repetition in environment `env`: `(set-up, operations)`.
fn rep(
    o: &Options,
    env: u64,
    prof: &Prof,
    tally: &mut Tally,
) -> Result<(Duration, Duration), String> {
    let t0 = Instant::now();
    let inputs = build(o, env, prof)?;
    let t1 = Instant::now();
    let out = workload::run(o.workload, o.scale, inputs, prof);
    let t2 = Instant::now();
    tally.report.counters = out.counters.clone();
    tally.record(env, out);
    Ok((t1 - t0, t2 - t1))
}

/// Seconds one set-up takes (its inputs are dropped untimed).
fn time_setup(o: &Options, env: u64, prof: &Prof) -> Result<f64, String> {
    let t = Instant::now();
    let inputs = build(o, env, prof)?;
    let secs = t.elapsed().as_secs_f64();
    drop(inputs);
    Ok(secs)
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Measure one workload. Errors only when its inputs cannot be built;
/// failed operations are counted in the report instead.
pub fn run(o: &Options) -> Result<Report, String> {
    let mut tally = Tally {
        refs: &o.references,
        first: BTreeMap::new(),
        report: Report::default(),
    };
    let off = Prof::disabled();
    let (setup0, cold) = rep(o, 0, &off, &mut tally)?;
    tally.report.cold_rep_s = (setup0 + cold).as_secs_f64();

    let budget = Duration::from_secs_f64(o.seconds.max(0.0));
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut traced: Vec<Vec<Metric>> = Vec::new();
    let mut traced_walls = Vec::new();
    while walls.len() < o.min_reps.max(1) || start.elapsed() < budget {
        let env = walls.len() as u64 % ENVIRONMENTS;
        let (s, w) = rep(o, env, &off, &mut tally)?;
        setups.push(s.as_secs_f64());
        if !o.trace {
            walls.push(w.as_secs_f64());
            let slice = Instant::now();
            while slice.elapsed() + s < SETUP_SLICE {
                setups.push(time_setup(o, env, &off)?);
            }
            continue;
        }
        walls.push((s + w).as_secs_f64());
        let (metrics, wall) = traced_rep(o, env, &mut tally)?;
        traced.push(metrics);
        traced_walls.push(wall);
    }

    let report = if o.trace {
        // Work counts are those of environment 0 (the first profiled
        // repetition), so they repeat exactly for a seed; times and
        // ratios are medians over every profiled repetition.
        let mut metrics = Vec::new();
        for (i, &(name, first, unit)) in traced[0].iter().enumerate() {
            let value = if unit == "count" || unit == "bytes" {
                first
            } else {
                median(&mut traced.iter().map(|m| m[i].1).collect::<Vec<_>>())
            };
            metrics.push((name, value, unit));
        }
        let overhead = median(&mut traced_walls) - median(&mut walls);
        metrics.push(("host.trace_overhead_ms", overhead * 1e3, "ms"));
        let mut report = tally.report;
        report.metrics = metrics;
        report.reps = traced.len();
        report
    } else {
        while setups.len() < MIN_SETUPS {
            setups.push(time_setup(o, setups.len() as u64 % ENVIRONMENTS, &off)?);
        }
        let mut report = tally.report;
        report.reps = walls.len();
        report.metrics = vec![
            ("wall_s", median(&mut walls), "s"),
            ("setup_s", median(&mut setups), "s"),
            ("peak_rss_mb", host::peak_rss_mib().unwrap_or(0.0), "MiB"),
        ];
        report
    };
    Ok(Report {
        setup_samples: setups.len(),
        ..report
    })
}

/// One profiled repetition (plus, for a job stream, the FCFS replay of
/// the same stream): its per-layer metrics and wall seconds.
fn traced_rep(o: &Options, env: u64, tally: &mut Tally) -> Result<(Vec<Metric>, f64), String> {
    let prof = Prof::enabled();
    let (user0, sys0) = host::cpu_seconds();
    let (s, w) = rep(o, env, &prof, tally)?;
    let (user1, sys1) = host::cpu_seconds();
    let rep_host = RepHost {
        wall_ns: (s + w).as_nanos() as u64,
        user_s: user1 - user0,
        sys_s: sys1 - sys0,
    };
    let counters = tally.report.counters.clone();
    let fcfs_ns = if o.workload == Workload::JobstreamBackfill {
        fcfs_replay(o, env, tally)?
    } else {
        0
    };
    let metrics = per_layer(&prof.phases(), &counters, rep_host, fcfs_ns);
    Ok((metrics, rep_host.wall_ns as f64 / 1e9))
}

/// Replay environment `env`'s job stream under FCFS, checked like any
/// schedule; returns its wall nanoseconds.
fn fcfs_replay(o: &Options, env: u64, tally: &mut Tally) -> Result<u64, String> {
    let off = Prof::disabled();
    let Inputs::Stream(trace) = build(o, env, &off)? else {
        unreachable!("a job-stream workload builds a stream");
    };
    let t = Instant::now();
    let out = workload::guarded(vec![Policy::Fcfs.label().to_string()], || {
        workload::run_stream(trace, Policy::Fcfs, &off)
    });
    let ns = t.elapsed().as_nanos() as u64;
    tally.record(env, out);
    Ok(ns)
}
