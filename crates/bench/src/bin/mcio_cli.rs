//! A small experiment driver: run one collective with both strategies on
//! a chosen workload/machine, entirely from the command line — and
//! analyze the traces it writes.
//!
//! ```sh
//! mcio_cli --workload ior --ranks 120 --ppn 12 --per-proc 32M --buffer 8M
//! mcio_cli --workload collperf --ranks 64 --scale 4 --buffer 4M --rw read
//! mcio_cli --workload checkpoint --ranks 48 --per-proc 16M --pipeline double
//! mcio_cli --trace run.trace.json && mcio_cli analyze --trace run.trace.json
//! ```
//!
//! Run flags (all optional; defaults in parentheses):
//! `--workload ior|collperf|checkpoint` (ior), `--ranks N` (120),
//! `--ppn N` (12), `--per-proc BYTES` (32M), `--segments N` (8),
//! `--scale N` collperf dimension divisor (4), `--buffer BYTES` (16M),
//! `--stddev F` (0.35), `--seed N` (42), `--rw read|write` (write),
//! `--machine testbed|exascale|small` (testbed),
//! `--pipeline serial|double` (serial), `--two-level`,
//! `--strategy two-phase|mc` (mc) which plan the observed run executes,
//! `--engine fifo|fair` (fifo) which DES resource discipline serves
//! shared resources (fixed service slots vs amortized processor
//! sharing — byte-identical whenever nothing is shared),
//! `--trace FILE` (write a unified Chrome-trace JSON of the observed
//! run: resource service lanes plus logical round phases; open in
//! Perfetto), `--metrics FILE` (export the run's metric registry —
//! machine config, workload shape, planner decisions, per-resource
//! utilization, wait-time histograms, per-phase timings),
//! `--metrics-format json|csv|prom` (json), `--faults FILE` (inject a
//! deterministic fault plan — see `docs/robustness.md` for the DSL —
//! and run both strategies through the resilient executor; the trace
//! gains the pid-3 fault lanes and the report a completion verdict),
//! `--adaptive off|conservative|aggressive` (off; with `--faults`,
//! run the closed-loop controller that re-tunes, defers, and
//! re-places between rounds — the trace gains the pid-5 replan lanes
//! and `analyze` a replan-attribution section).
//!
//! The `analyze` subcommand consumes a `--trace` file and reports the
//! critical path (network-shuffle / OST-I/O / memory-wait / idle),
//! top-K longest round chains, per-aggregator I/O pressure, straggler
//! findings, and resource-class service percentiles:
//! `mcio_cli analyze --trace FILE [--report text|json] [--top N]`.
//! Adding `--timeline FILE` also writes the fixed-interval utilization
//! time-series (`mcio.timeline.v1`) for every resource class, OST, and
//! tenant lane: `[--timeline-format json|csv] [--bucket-ns N]`.
//!
//! The `diff` subcommand compares two runs and prints one line per
//! change — critical-path bucket deltas, utilization-timeline deltas,
//! straggler-set changes — so a regression names its cause. Inputs may
//! be two Chrome traces, two `mcio.perf_suite.v1` documents, or two
//! `mcio.analyze.v1` reports; identical runs print nothing and exit 0:
//! `mcio_cli diff A B`.
//!
//! The `sweep` subcommand fans a buffer × pipeline × strategy grid
//! across worker threads with a shared plan cache and writes a
//! byte-deterministic `mcio.sweep.v1` JSON document:
//! `mcio_cli sweep [--jobs N] [--out FILE] [--ranks N] [--ppn N]
//! [--seed N]` — same output bytes at any `--jobs` value.
//!
//! The `multitenant` subcommand runs N jobs from a spec file (see
//! `docs/multitenancy.md`) concurrently on one shared machine and
//! emits the byte-stable `mcio.multitenant.v1` document with per-job
//! slowdown and OST-overlap interference metrics:
//! `mcio_cli multitenant --spec FILE [--out FILE] [--trace FILE]`.
//!
//! The `schedule` subcommand replays a job-arrival trace (the
//! `mcio.jobtrace.v1` DSL — see `docs/scheduling.md`) through the
//! queue scheduler: jobs wait for free nodes, dispatch under
//! `--policy fcfs|backfill|priority` (FCFS; conservative backfill;
//! priority-with-aging), optionally gated by `--admission` (defer
//! dispatches whose predicted interference exceeds the slowdown /
//! OST-overlap budgets, read live from the tenant gauges), and emits
//! the byte-stable `mcio.schedule.v1` document with per-job wait /
//! turnaround / slowdown and stream makespan:
//! `mcio_cli schedule --trace FILE [--policy P] [--admission]
//! [--out FILE] [--jobs N] [--chrome FILE] [--metrics FILE]` —
//! same output bytes at any `--jobs` value; `--chrome` adds the pid-6
//! scheduler lanes `analyze` renders as the scheduler section.
//!
//! `run`, `sweep`, and `multitenant` all take `--prof FILE`: profile
//! the *simulator itself* and write the `mcio.prof.v1` sidecar — the
//! deterministic section (engine counters per cell) is byte-identical
//! across runs and `--jobs` values; the host section (wall-clock phase
//! table, events/sec, plan-cache timing, worker utilization) is not.
//! The primary output document is byte-identical with or without
//! `--prof`. The `prof` subcommand pretty-prints a sidecar —
//! `mcio_cli prof FILE [--top N] [--det]` — where `--det` emits only
//! the canonical deterministic section (the CI diffing target).
//!
//! Unknown flags or subcommands exit 2; unreadable/unwritable files
//! and `--jobs 0` exit 1. Nothing panics on bad input.

use mcio_analyze::{CriticalPath, RunDiff, TraceModel};
use mcio_bench::perf::Record;
use mcio_bench::{format_bytes, improvement_pct};
use mcio_cluster::spec::ClusterSpec;
use mcio_cluster::ProcessMap;
use mcio_core::hints::parse_bytes;
use mcio_core::{
    mcio as mc, run, simulate_observed, twophase, AdaptivePolicy, CollectiveConfig,
    CollectiveRequest, Exchange, Observe, Pipeline, PlanCache, ProcMemory, RunOutcome, RunSpec, Rw,
    Strategy, TenantJob,
};
use mcio_faults::FaultSpec;
use mcio_obs::{MetricsFormat, Registry};
use mcio_prof::{DetCell, PlanCacheStats, Prof, ProfReport, WorkerRow};
use mcio_sched::{render_schedule, run_schedule, JobTrace, Policy, SchedConfig};
use mcio_workloads::{science, CollPerf, Ior};
use std::collections::HashMap;
use std::process::exit;
use std::sync::Arc;

/// Flags that take a value in run mode.
const RUN_OPTS: &[&str] = &[
    "workload",
    "ranks",
    "ppn",
    "per-proc",
    "segments",
    "scale",
    "buffer",
    "stddev",
    "seed",
    "rw",
    "machine",
    "pipeline",
    "strategy",
    "trace",
    "metrics",
    "metrics-format",
    "faults",
    "adaptive",
    "prof",
    "engine",
];
/// Boolean flags in run mode.
const RUN_FLAGS: &[&str] = &["two-level", "help"];
/// Flags that take a value in analyze mode.
const ANALYZE_OPTS: &[&str] = &[
    "trace",
    "report",
    "top",
    "timeline",
    "timeline-format",
    "bucket-ns",
];
/// Boolean flags in analyze mode.
const ANALYZE_FLAGS: &[&str] = &["help"];
/// Flags that take a value in diff mode (none today; inputs are
/// positional).
const DIFF_OPTS: &[&str] = &[];
/// Boolean flags in diff mode.
const DIFF_FLAGS: &[&str] = &["help"];
/// Flags that take a value in sweep mode.
const SWEEP_OPTS: &[&str] = &["jobs", "out", "ranks", "ppn", "seed", "prof"];
/// Boolean flags in sweep mode.
const SWEEP_FLAGS: &[&str] = &["help"];
/// Flags that take a value in multitenant mode.
const MT_OPTS: &[&str] = &["spec", "out", "trace", "prof"];
/// Boolean flags in multitenant mode.
const MT_FLAGS: &[&str] = &["help"];
/// Flags that take a value in prof mode (the input file is positional).
const PROF_OPTS: &[&str] = &["top"];
/// Boolean flags in prof mode.
const PROF_FLAGS: &[&str] = &["help", "det"];
/// Flags that take a value in schedule mode.
const SCHED_OPTS: &[&str] = &["trace", "policy", "out", "jobs", "chrome", "metrics"];
/// Boolean flags in schedule mode.
const SCHED_FLAGS: &[&str] = &["help", "admission"];

/// Parse `--key value` / `--flag` argument lists against an explicit
/// whitelist. Anything else is a usage error: exit 2.
fn parse_args(
    args: &[String],
    value_keys: &[&str],
    bool_keys: &[&str],
    context: &str,
) -> (HashMap<String, String>, Vec<String>) {
    let mut opts: HashMap<String, String> = HashMap::new();
    let mut flags: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            eprintln!("mcio_cli {context}: unexpected argument `{a}` (flags start with --)");
            exit(2);
        };
        if bool_keys.contains(&key) {
            flags.push(key.to_string());
        } else if value_keys.contains(&key) {
            match it.next() {
                Some(v) => {
                    opts.insert(key.to_string(), v.clone());
                }
                None => {
                    eprintln!("mcio_cli {context}: flag --{key} needs a value");
                    exit(2);
                }
            }
        } else {
            eprintln!("mcio_cli {context}: unknown flag --{key} (run with --help for usage)");
            exit(2);
        }
    }
    (opts, flags)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => {
            args.remove(0);
            run_analyze(&args);
        }
        Some("sweep") => {
            args.remove(0);
            run_sweep(&args);
        }
        Some("multitenant") => {
            args.remove(0);
            run_multitenant_cmd(&args);
        }
        Some("diff") => {
            args.remove(0);
            run_diff(&args);
        }
        Some("prof") => {
            args.remove(0);
            run_prof(&args);
        }
        Some("schedule") => {
            args.remove(0);
            run_schedule_cmd(&args);
        }
        Some(first) if !first.starts_with("--") => {
            eprintln!(
                "mcio_cli: unknown subcommand `{first}` (expected `analyze`, `sweep`, \
                 `multitenant`, `diff`, `prof`, `schedule`, or run flags)"
            );
            exit(2);
        }
        _ => run_sim(&args),
    }
}

/// `mcio_cli analyze --trace FILE [--report text|json] [--top N]
/// [--timeline FILE [--timeline-format json|csv] [--bucket-ns N]]`
fn run_analyze(args: &[String]) {
    let (opts, flags) = parse_args(args, ANALYZE_OPTS, ANALYZE_FLAGS, "analyze");
    if flags.iter().any(|f| f == "help") {
        println!(
            "usage: mcio_cli analyze --trace FILE [--report text|json] [--top N] \
             [--timeline FILE [--timeline-format json|csv] [--bucket-ns N]]"
        );
        exit(0);
    }
    let Some(path) = opts.get("trace") else {
        eprintln!("mcio_cli analyze: --trace FILE is required");
        exit(2);
    };
    let top: usize = match opts.get("top").map(String::as_str).unwrap_or("5").parse() {
        Ok(n) => n,
        Err(e) => {
            eprintln!("mcio_cli analyze: --top: {e}");
            exit(2);
        }
    };
    let report = opts.get("report").map(String::as_str).unwrap_or("text");
    if !matches!(report, "text" | "json") {
        eprintln!("mcio_cli analyze: --report must be text|json, got `{report}`");
        exit(2);
    }
    let tl_format = opts
        .get("timeline-format")
        .map(String::as_str)
        .unwrap_or("json");
    if !matches!(tl_format, "json" | "csv") {
        eprintln!("mcio_cli analyze: --timeline-format must be json|csv, got `{tl_format}`");
        exit(2);
    }
    let bucket_override: Option<u64> = opts.get("bucket-ns").map(|raw| match raw.parse() {
        Ok(n) if n >= 1 => n,
        _ => {
            eprintln!("mcio_cli analyze: --bucket-ns must be a positive integer, got `{raw}`");
            exit(2);
        }
    });
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("mcio_cli analyze: cannot read {path}: {e}");
            exit(1);
        }
    };
    let model = match TraceModel::from_chrome_json(&text) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("mcio_cli analyze: {path} is not a chrome trace: {e}");
            exit(1);
        }
    };
    if let Some(tl_path) = opts.get("timeline") {
        let bucket_ns =
            bucket_override.unwrap_or_else(|| mcio_analyze::default_bucket_ns(model.makespan_ns()));
        let tl = mcio_analyze::timeline(&model, bucket_ns);
        let body = match tl_format {
            "csv" => tl.to_csv(),
            _ => tl.to_json(),
        };
        if let Err(e) = std::fs::write(tl_path, body) {
            eprintln!("mcio_cli analyze: cannot write timeline to {tl_path}: {e}");
            exit(1);
        }
        // Status goes to stderr so `--report json` stdout stays a pure
        // JSON document.
        eprintln!("mcio_cli analyze: timeline written to {tl_path}");
    }
    let analysis = mcio_analyze::analyze(&model, top);
    match report {
        "json" => print!("{}", analysis.to_json()),
        _ => print!("{}", analysis.to_text()),
    }
}

/// One side of a `mcio_cli diff` comparison: a raw Chrome trace, a
/// `mcio.perf_suite.v1` document, or a `mcio.analyze.v1` report
/// (reduced to what it carries — elapsed time and the critical-path
/// buckets; unknown top-level keys are ignored).
enum DiffDoc {
    Trace(Box<TraceModel>),
    Perf(Vec<Record>),
    Analyze { elapsed_ns: u64, cp: CriticalPath },
}

impl DiffDoc {
    fn kind(&self) -> &'static str {
        match self {
            DiffDoc::Trace(_) => "chrome trace",
            DiffDoc::Perf(_) => "perf_suite document",
            DiffDoc::Analyze { .. } => "analyze report",
        }
    }
}

/// Read one diff input, sniffing its kind: a JSON array is a Chrome
/// trace; a JSON object is dispatched on its `schema` stamp. Every
/// failure is a one-line exit 1.
fn load_diff_doc(path: &str) -> DiffDoc {
    use mcio_obs::json::{self, JsonValue};
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("mcio_cli diff: cannot read {path}: {e}");
            exit(1);
        }
    };
    if text.trim_start().starts_with('[') {
        match TraceModel::from_chrome_json(&text) {
            Ok(m) => return DiffDoc::Trace(Box::new(m)),
            Err(e) => {
                eprintln!("mcio_cli diff: {path} is not a chrome trace: {e}");
                exit(1);
            }
        }
    }
    let doc = match json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("mcio_cli diff: {path} is not valid JSON: {e}");
            exit(1);
        }
    };
    match doc.get("schema").and_then(JsonValue::as_str) {
        Some("mcio.perf_suite.v1") => match mcio_bench::perf::parse_records(&text) {
            Ok(records) => DiffDoc::Perf(records),
            Err(e) => {
                eprintln!("mcio_cli diff: {path}: {e}");
                exit(1);
            }
        },
        Some("mcio.analyze.v1") => {
            let num = |v: &JsonValue, key: &str| -> u64 {
                v.get(key).and_then(JsonValue::as_f64).unwrap_or_else(|| {
                    eprintln!("mcio_cli diff: {path}: analyze report is missing `{key}`");
                    exit(1);
                }) as u64
            };
            let elapsed_ns = num(&doc, "elapsed_ns");
            let Some(cp) = doc.get("critical_path") else {
                eprintln!("mcio_cli diff: {path}: analyze report is missing `critical_path`");
                exit(1);
            };
            DiffDoc::Analyze {
                elapsed_ns,
                cp: CriticalPath {
                    elapsed_ns,
                    network_shuffle_ns: num(cp, "network_shuffle_ns"),
                    ost_io_ns: num(cp, "ost_io_ns"),
                    memory_wait_ns: num(cp, "memory_wait_ns"),
                    retry_degraded_ns: num(cp, "retry_degraded_ns"),
                    idle_ns: num(cp, "idle_ns"),
                },
            }
        }
        Some(other) => {
            eprintln!(
                "mcio_cli diff: {path}: unsupported schema `{other}` (expected a chrome trace, \
                 mcio.perf_suite.v1, or mcio.analyze.v1)"
            );
            exit(1);
        }
        None => {
            eprintln!("mcio_cli diff: {path}: not a chrome trace and carries no `schema` stamp");
            exit(1);
        }
    }
}

/// `mcio_cli diff A B` — differential run attribution.
///
/// Compares two runs of the same document kind and prints one line per
/// change; identical runs print nothing and exit 0. Traces diff
/// through every lens (critical-path buckets, utilization timelines,
/// straggler sets); perf_suite documents diff per (scenario, strategy)
/// cell; analyze reports diff elapsed time and critical-path buckets.
fn run_diff(args: &[String]) {
    let (inputs, flag_args): (Vec<String>, Vec<String>) =
        args.iter().cloned().partition(|a| !a.starts_with("--"));
    let (_, flags) = parse_args(&flag_args, DIFF_OPTS, DIFF_FLAGS, "diff");
    if flags.iter().any(|f| f == "help") {
        println!("usage: mcio_cli diff A B   (two traces, perf_suite, or analyze documents)");
        exit(0);
    }
    let [a_path, b_path] = inputs.as_slice() else {
        eprintln!(
            "mcio_cli diff: expected exactly two input files, got {}",
            inputs.len()
        );
        exit(2);
    };
    let a = load_diff_doc(a_path);
    let b = load_diff_doc(b_path);
    match (&a, &b) {
        (DiffDoc::Trace(ma), DiffDoc::Trace(mb)) => {
            print!("{}", mcio_analyze::diff_models(ma, mb).to_text());
        }
        (DiffDoc::Perf(ra), DiffDoc::Perf(rb)) => {
            for line in mcio_bench::perf::diff_records(ra, rb) {
                println!("{line}");
            }
        }
        (
            DiffDoc::Analyze {
                elapsed_ns: ea,
                cp: cpa,
            },
            DiffDoc::Analyze {
                elapsed_ns: eb,
                cp: cpb,
            },
        ) => {
            // Reuse the trace diff's rendering for the lenses an
            // analyze report carries.
            let d = RunDiff {
                elapsed_a_ns: *ea,
                elapsed_b_ns: *eb,
                bucket_ns: 0,
                bucket_deltas: mcio_analyze::diff_critical_paths(cpa, cpb),
                timeline_deltas: Vec::new(),
                stragglers_added: Vec::new(),
                stragglers_removed: Vec::new(),
            };
            print!("{}", d.to_text());
        }
        _ => {
            eprintln!(
                "mcio_cli diff: cannot compare {a_path} ({}) against {b_path} ({})",
                a.kind(),
                b.kind()
            );
            exit(1);
        }
    }
}

/// `mcio_cli prof FILE [--top N] [--det]` — pretty-print a
/// `mcio.prof.v1` sidecar written by `run`/`sweep`/`multitenant`
/// `--prof` or `perf_suite --prof`.
///
/// Default output: the deterministic totals, the host headlines
/// (wall time, events/sec, allocator peak when counted), and the
/// top-N phases by exclusive wall time. `--det` instead emits only
/// the canonical deterministic section — byte-identical across runs
/// and `--jobs` values, so CI can `diff` two invocations directly.
fn run_prof(args: &[String]) {
    // Split positional inputs from flags, keeping each value flag's
    // operand with the flag (`--top 3` is not a positional "3").
    let mut inputs = Vec::new();
    let mut flag_args = Vec::new();
    let mut it = args.iter().cloned().peekable();
    while let Some(a) = it.next() {
        if a.starts_with("--") {
            let takes_value = PROF_OPTS.contains(&a.trim_start_matches("--"));
            flag_args.push(a);
            if takes_value {
                if let Some(v) = it.next() {
                    flag_args.push(v);
                }
            }
        } else {
            inputs.push(a);
        }
    }
    let (opts, flags) = parse_args(&flag_args, PROF_OPTS, PROF_FLAGS, "prof");
    if flags.iter().any(|f| f == "help") {
        println!("usage: mcio_cli prof FILE [--top N] [--det]");
        exit(0);
    }
    let [path] = inputs.as_slice() else {
        eprintln!(
            "mcio_cli prof: expected exactly one mcio.prof.v1 file, got {}",
            inputs.len()
        );
        exit(2);
    };
    let top: usize = match opts.get("top").map(String::as_str).unwrap_or("10").parse() {
        Ok(n) => n,
        Err(e) => {
            eprintln!("mcio_cli prof: --top: {e}");
            exit(2);
        }
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("mcio_cli prof: cannot read {path}: {e}");
            exit(1);
        }
    };
    let report = match ProfReport::from_json(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mcio_cli prof: {path}: {e}");
            exit(1);
        }
    };
    if flags.iter().any(|f| f == "det") {
        println!("{}", report.deterministic_json());
    } else {
        print!("{}", report.render_pretty(top));
    }
}

/// `mcio_cli sweep [--jobs N] [--out FILE] [--ranks N] [--ppn N] [--seed N]`
///
/// Fans a fixed buffer × pipeline × strategy grid over an IOR-shaped
/// workload across N worker threads, memoizing plans in a shared
/// [`PlanCache`] (the pipeline axis reuses the plan of its sibling
/// point, so half the grid is served from the cache). Writes a
/// byte-deterministic `mcio.sweep.v1` JSON document: the same bytes at
/// any `--jobs` value. Cache statistics go to stdout only — under
/// parallel execution concurrent first sights can both count as misses,
/// so the totals are not byte-stable and must stay out of the document.
fn run_sweep(args: &[String]) {
    let (opts, flags) = parse_args(args, SWEEP_OPTS, SWEEP_FLAGS, "sweep");
    if flags.iter().any(|f| f == "help") {
        println!(
            "usage: mcio_cli sweep [--jobs N] [--out FILE] [--ranks N] [--ppn N] [--seed N] \
             [--prof FILE]"
        );
        exit(0);
    }
    let get = |k: &str, d: &str| opts.get(k).cloned().unwrap_or_else(|| d.to_string());
    let jobs: usize = {
        let raw = get("jobs", "1");
        match raw.parse() {
            Ok(j) if j >= 1 => j,
            _ => {
                eprintln!("mcio_cli sweep: --jobs must be a positive integer, got `{raw}`");
                exit(1);
            }
        }
    };
    let num = |k: &str, d: &str| -> u64 {
        get(k, d).parse().unwrap_or_else(|e| {
            eprintln!("mcio_cli sweep: --{k}: {e}");
            exit(2);
        })
    };
    let ranks = num("ranks", "64") as usize;
    let ppn = num("ppn", "8") as usize;
    let seed = num("seed", "42");
    let out_path = get("out", "MCIO_sweep.json");
    if ranks == 0 || ppn == 0 {
        eprintln!("mcio_cli sweep: --ranks and --ppn must be positive");
        exit(1);
    }

    let grid = mcio_sweep::SweepSpec::new()
        .axis("buffer", ["2M", "4M", "8M"])
        .axis("pipeline", ["serial", "double"])
        .axis("strategy", ["two-phase", "mc"]);
    let points = grid.points();

    let req = Ior::paper(ranks, 8 << 20, 4).request(Rw::Write);
    let map = ProcessMap::block_ppn(ranks, ppn);
    let mut spec = ClusterSpec::ttu_testbed();
    if spec.nodes < map.nnodes() {
        spec.nodes = map.nnodes();
    }
    let cache = PlanCache::shared();
    let want_prof = opts.get("prof");
    let prof = if want_prof.is_some() {
        Prof::enabled()
    } else {
        Prof::disabled()
    };

    struct SweepRecord {
        key: String,
        elapsed_ns: u64,
        bandwidth_mibs: f64,
        naggs: usize,
        rounds: usize,
        engine: mcio_des::EngineProfile,
    }

    let (records, workers) = mcio_sweep::sweep_stats(jobs, &points, |point| {
        let buffer = parse_bytes(point.get("buffer")).expect("grid buffer parses");
        let strategy = match point.get("strategy") {
            "two-phase" => Strategy::TwoPhase,
            _ => Strategy::MemoryConscious,
        };
        let pipeline = match point.get("pipeline") {
            "double" => Pipeline::DoubleBuffered,
            _ => Pipeline::Serial,
        };
        let mem = ProcMemory::normal(ranks, buffer, 0.35, seed);
        let cfg = CollectiveConfig::with_buffer(buffer).mem_min(buffer / 2);
        let plan_scope = prof.scope("plan");
        let plan = cache.get_or_plan(strategy, &req, &map, &mem, &cfg);
        drop(plan_scope);
        // The one-job shorthand: the cached plan is simulated in place
        // (no copy), with the profiler handle threaded through.
        let (report, _) = simulate_observed(
            &plan,
            &map,
            &spec,
            pipeline,
            Exchange::Direct,
            Observe {
                registry: None,
                trace: false,
                prof: want_prof.map(|_| &prof),
                ..Observe::default()
            },
        );
        SweepRecord {
            key: point.key.clone(),
            elapsed_ns: report.elapsed.as_nanos(),
            bandwidth_mibs: report.bandwidth_mibs,
            naggs: plan.naggs(),
            rounds: plan.max_rounds(),
            engine: report.engine,
        }
    });

    let mut doc = String::from("{\n  \"schema\": \"mcio.sweep.v1\",\n  \"points\": [\n");
    for (i, r) in records.iter().enumerate() {
        doc.push_str(&format!(
            "    {{\"key\": \"{}\", \"elapsed_ns\": {}, \"bandwidth_mibs\": {:.6}, \
             \"aggregators\": {}, \"rounds\": {}}}{}\n",
            r.key,
            r.elapsed_ns,
            r.bandwidth_mibs,
            r.naggs,
            r.rounds,
            if i + 1 < records.len() { "," } else { "" },
        ));
    }
    doc.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(&out_path, &doc) {
        eprintln!("mcio_cli sweep: cannot write {out_path}: {e}");
        exit(1);
    }
    for r in &records {
        println!(
            "{:<40} elapsed {:>10.3} ms  {:>9.1} MiB/s  ({} aggs, {} rounds)",
            r.key,
            r.elapsed_ns as f64 / 1e6,
            r.bandwidth_mibs,
            r.naggs,
            r.rounds,
        );
    }
    println!(
        "plan cache: {} hits, {} misses, {} distinct plans",
        cache.hits(),
        cache.misses(),
        cache.len(),
    );
    println!("wrote {out_path}");

    if let Some(path) = want_prof {
        // Cells in grid-point order — the sweep merge already
        // canonicalized it, so the deterministic section is identical
        // at any --jobs value.
        let cells = records
            .iter()
            .map(|r| DetCell {
                label: r.key.clone(),
                engine: r.engine.clone(),
            })
            .collect();
        let rows = workers
            .iter()
            .map(|w| WorkerRow {
                worker: w.worker as u64,
                busy_ns: w.busy_ns,
                tasks: w.tasks,
            })
            .collect();
        let report = ProfReport::build(
            &prof,
            cells,
            Some(PlanCacheStats {
                hits: cache.hits(),
                misses: cache.misses(),
                distinct_plans: cache.len() as u64,
                plan_wall_ns: cache.plan_wall_ns(),
            }),
            rows,
        );
        if let Err(e) = std::fs::write(path, report.render()) {
            eprintln!("mcio_cli sweep: cannot write {path}: {e}");
            exit(1);
        }
        println!("profile written to {path}");
    }
}

/// `mcio_cli multitenant --spec FILE [--out FILE] [--trace FILE]`
///
/// Runs every job of a multi-tenant spec (see `docs/multitenancy.md`
/// for the DSL) concurrently on the shared machine and emits the
/// byte-stable `mcio.multitenant.v1` document — to `--out` when given,
/// to stdout otherwise. `--trace FILE` additionally writes the unified
/// Chrome trace (per-job round lanes plus the pid-4 tenant windows
/// `mcio_cli analyze` attributes into self vs. cross-job contention).
fn run_multitenant_cmd(args: &[String]) {
    let (opts, flags) = parse_args(args, MT_OPTS, MT_FLAGS, "multitenant");
    if flags.iter().any(|f| f == "help") {
        println!(
            "usage: mcio_cli multitenant --spec FILE [--out FILE] [--trace FILE] [--prof FILE]"
        );
        exit(0);
    }
    let Some(spec_path) = opts.get("spec") else {
        eprintln!("mcio_cli multitenant: --spec FILE is required");
        exit(2);
    };
    let text = match std::fs::read_to_string(spec_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("mcio_cli multitenant: cannot read {spec_path}: {e}");
            exit(1);
        }
    };
    let spec = match mcio_bench::mtspec::MtSpec::parse(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("mcio_cli multitenant: {spec_path}: {e}");
            exit(1);
        }
    };
    let jobs = spec.build_jobs();
    let want_trace = opts.get("trace");
    let want_prof = opts.get("prof");
    let prof = if want_prof.is_some() {
        Prof::enabled()
    } else {
        Prof::disabled()
    };
    let mt = run(&RunSpec {
        faults: spec.faults.as_ref(),
        observe: Observe {
            trace: want_trace.is_some(),
            prof: want_prof.map(|_| &prof),
            ..Observe::default()
        },
        ..RunSpec::new(&jobs, &spec.machine)
    });
    if let Some(path) = want_prof {
        // One cell: the whole multi-tenant machine is a single shared
        // DES run.
        let report = ProfReport::build(
            &prof,
            vec![DetCell {
                label: "multitenant".to_string(),
                engine: mt.engine.clone(),
            }],
            None,
            Vec::new(),
        );
        if let Err(e) = std::fs::write(path, report.render()) {
            eprintln!("mcio_cli multitenant: cannot write {path}: {e}");
            exit(1);
        }
        eprintln!("mcio_cli multitenant: profile written to {path}");
    }
    if let Some(path) = want_trace {
        let json = {
            let _emit_scope = prof.scope("trace-emit");
            mt.trace_json().expect("trace was requested")
        };
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("mcio_cli multitenant: cannot write trace to {path}: {e}");
            exit(1);
        }
    }
    let doc = mcio_bench::mtspec::render_run(&spec.machine.name, &mt);
    match opts.get("out") {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &doc) {
                eprintln!("mcio_cli multitenant: cannot write {path}: {e}");
                exit(1);
            }
            for j in &mt.jobs {
                println!(
                    "{:<12} {:<17} window {:>10.3} ms  slowdown {:>6.3}x  ost-overlap {:>5.3}",
                    j.label,
                    j.strategy.label(),
                    (j.end_ns - j.start_ns) as f64 / 1e6,
                    j.slowdown,
                    j.ost_overlap,
                );
            }
            println!("wrote {path}");
        }
        None => print!("{doc}"),
    }
}

/// `mcio_cli schedule --trace FILE [--policy fcfs|backfill|priority]
/// [--admission] [--out FILE] [--jobs N] [--chrome FILE]
/// [--metrics FILE]`
///
/// Replays a `mcio.jobtrace.v1` job stream through the queue
/// scheduler and emits the byte-stable `mcio.schedule.v1` document —
/// to `--out` when given, to stdout otherwise. `--jobs` only fans the
/// solo-baseline precompute; the document bytes never depend on it.
fn run_schedule_cmd(args: &[String]) {
    let (opts, flags) = parse_args(args, SCHED_OPTS, SCHED_FLAGS, "schedule");
    if flags.iter().any(|f| f == "help") {
        println!(
            "usage: mcio_cli schedule --trace FILE [--policy fcfs|backfill|priority] \
             [--admission] [--out FILE] [--jobs N] [--chrome FILE] [--metrics FILE]"
        );
        exit(0);
    }
    let Some(path) = opts.get("trace") else {
        eprintln!("mcio_cli schedule: --trace FILE is required");
        exit(2);
    };
    let policy = {
        let raw = opts.get("policy").map(String::as_str).unwrap_or("fcfs");
        Policy::parse(raw).unwrap_or_else(|| {
            eprintln!("mcio_cli schedule: --policy must be fcfs|backfill|priority, got `{raw}`");
            exit(2);
        })
    };
    let jobs: usize = {
        let raw = opts.get("jobs").map(String::as_str).unwrap_or("1");
        match raw.parse() {
            Ok(j) if j >= 1 => j,
            _ => {
                eprintln!("mcio_cli schedule: --jobs must be a positive integer, got `{raw}`");
                exit(1);
            }
        }
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("mcio_cli schedule: cannot read {path}: {e}");
            exit(1);
        }
    };
    let trace = match JobTrace::parse(&text) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("mcio_cli schedule: {path}: {e}");
            exit(1);
        }
    };
    let cfg = SchedConfig {
        policy,
        admission: flags.iter().any(|f| f == "admission"),
        jobs,
        collect_trace: opts.contains_key("chrome"),
    };
    let registry = opts.get("metrics").map(|_| Registry::shared());
    let s = run_schedule(&trace, &cfg, registry.as_ref());
    if let Some(chrome_path) = opts.get("chrome") {
        let json = s.trace.as_deref().expect("trace was requested");
        if let Err(e) = std::fs::write(chrome_path, json) {
            eprintln!("mcio_cli schedule: cannot write trace to {chrome_path}: {e}");
            exit(1);
        }
        eprintln!("mcio_cli schedule: scheduler trace written to {chrome_path}");
    }
    if let Some(metrics_path) = opts.get("metrics") {
        let registry = registry.as_ref().expect("metrics registry was created");
        let fmt = MetricsFormat::parse("json").expect("json is a metrics format");
        if let Err(e) = std::fs::write(metrics_path, fmt.render(&registry.snapshot())) {
            eprintln!("mcio_cli schedule: cannot write metrics to {metrics_path}: {e}");
            exit(1);
        }
        eprintln!("mcio_cli schedule: metrics written to {metrics_path}");
    }
    let doc = render_schedule(&s);
    match opts.get("out") {
        Some(out_path) => {
            if let Err(e) = std::fs::write(out_path, &doc) {
                eprintln!("mcio_cli schedule: cannot write {out_path}: {e}");
                exit(1);
            }
            for j in &s.jobs {
                println!(
                    "{:<12} wait {:>10.3} ms  turnaround {:>10.3} ms  slowdown {:>7.3}x  \
                     {:>2} nodes{}",
                    j.name,
                    j.wait_ns as f64 / 1e6,
                    j.turnaround_ns as f64 / 1e6,
                    j.slowdown,
                    j.nodes,
                    if j.backfilled { "  [backfill]" } else { "" },
                );
            }
            println!(
                "policy {}: makespan {:.3} ms, p50 slowdown {:.3}, p99 slowdown {:.3}, \
                 {} backfills, {} deferrals",
                s.policy.label(),
                s.makespan_ns as f64 / 1e6,
                s.p50_slowdown,
                s.p99_slowdown,
                s.backfills,
                s.admission_deferrals,
            );
            println!("wrote {out_path}");
        }
        None => print!("{doc}"),
    }
}

fn run_sim(args: &[String]) {
    let (opts, flags) = parse_args(args, RUN_OPTS, RUN_FLAGS, "run");
    if flags.iter().any(|f| f == "help") {
        // Keep the subcommand list in sync with the README's CLI table
        // — crates/bench/tests/help_sync.rs diffs the two.
        println!(
            "usage: mcio_cli [SUBCOMMAND] [FLAGS]\n\
             \n\
             subcommands:\n\
             \x20 (none)       run one collective, both strategies\n\
             \x20 analyze      critical-path + straggler report from a trace\n\
             \x20 diff         differential run attribution between two runs\n\
             \x20 sweep        parallel deterministic parameter grid\n\
             \x20 multitenant  N concurrent jobs on one shared machine\n\
             \x20 prof         pretty-print a mcio.prof.v1 profile sidecar\n\
             \x20 schedule     replay a job-arrival trace through the queue scheduler\n\
             \n\
             run flags: --workload ior|collperf|checkpoint, --ranks N, --ppn N,\n\
             \x20 --per-proc BYTES, --segments N, --scale N, --buffer BYTES,\n\
             \x20 --stddev F, --seed N, --rw read|write, --machine testbed|exascale|small,\n\
             \x20 --pipeline serial|double, --two-level, --strategy two-phase|mc,\n\
             \x20 --trace FILE, --metrics FILE, --metrics-format json|csv|prom,\n\
             \x20 --faults FILE, --adaptive off|conservative|aggressive, --prof FILE,\n\
             \x20 --engine fifo|fair\n\
             \n\
             each subcommand takes --help for its own flags; see the module docs\n\
             at the top of crates/bench/src/bin/mcio_cli.rs for details"
        );
        exit(0);
    }

    let get = |k: &str, d: &str| opts.get(k).cloned().unwrap_or_else(|| d.to_string());
    let bytes = |k: &str, d: &str| -> u64 {
        parse_bytes(&get(k, d)).unwrap_or_else(|e| {
            eprintln!("--{k}: {e}");
            exit(2);
        })
    };
    let num = |k: &str, d: &str| -> u64 {
        get(k, d).parse().unwrap_or_else(|e| {
            eprintln!("--{k}: {e}");
            exit(2);
        })
    };

    let ranks = num("ranks", "120") as usize;
    let ppn = num("ppn", "12") as usize;
    let buffer = bytes("buffer", "16M");
    let per_proc = bytes("per-proc", "32M");
    let stddev: f64 = get("stddev", "0.35").parse().unwrap_or(0.35);
    let seed = num("seed", "42");
    let rw = match get("rw", "write").as_str() {
        "read" => Rw::Read,
        "write" => Rw::Write,
        other => {
            eprintln!("--rw must be read|write, got `{other}`");
            exit(2);
        }
    };
    let pipeline = match get("pipeline", "serial").as_str() {
        "serial" => Pipeline::Serial,
        "double" => Pipeline::DoubleBuffered,
        other => {
            eprintln!("--pipeline must be serial|double, got `{other}`");
            exit(2);
        }
    };
    let observe_mc = match get("strategy", "mc").as_str() {
        "mc" | "memory-conscious" => true,
        "two-phase" | "tp" => false,
        other => {
            eprintln!("--strategy must be two-phase|mc, got `{other}`");
            exit(2);
        }
    };

    let map = ProcessMap::block_ppn(ranks, ppn);
    let mut spec = match get("machine", "testbed").as_str() {
        "testbed" => ClusterSpec::ttu_testbed(),
        "exascale" => ClusterSpec::exascale_2018(),
        "small" => ClusterSpec::small(map.nnodes(), ppn),
        other => {
            eprintln!("--machine must be testbed|exascale|small, got `{other}`");
            exit(2);
        }
    };
    if spec.nodes < map.nnodes() {
        spec.nodes = map.nnodes();
    }

    let req: CollectiveRequest = match get("workload", "ior").as_str() {
        "ior" => Ior::paper(ranks, per_proc, num("segments", "8")).request(rw),
        "collperf" => {
            let cp = CollPerf::paper(ranks, num("scale", "4"));
            cp.request(rw)
        }
        "checkpoint" => {
            let sizes: Vec<u64> = (0..ranks as u64)
                .map(|r| per_proc / 2 + (r * 977) % per_proc)
                .collect();
            science::checkpoint(rw, 4096, &sizes)
        }
        other => {
            eprintln!("--workload must be ior|collperf|checkpoint, got `{other}`");
            exit(2);
        }
    };

    let per_node = (req.total_bytes() / map.nnodes().max(1) as u64).max(1);
    let cfg = CollectiveConfig::with_buffer(buffer)
        .nah(2)
        .msg_group(per_node)
        .msg_ind((per_node / 2).max(1))
        .mem_min(buffer / 2);
    let env = ProcMemory::normal(ranks, buffer, stddev, seed);

    println!(
        "{} {} x {} ranks ({} nodes), {} total, buffer {} (stddev {stddev}), machine {}",
        get("workload", "ior"),
        rw.name(),
        ranks,
        map.nnodes(),
        format_bytes(req.total_bytes()),
        format_bytes(buffer),
        spec.name,
    );

    // Fault plan, validated before any simulation runs: unreadable or
    // malformed specs exit 1 with a one-line reason. The parser can't
    // know the machine, so OST targets are checked here against the
    // resolved spec.
    let fault_spec: Option<FaultSpec> = opts.get("faults").map(|path| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("mcio_cli: cannot read faults {path}: {e}");
            exit(1);
        });
        let fspec = FaultSpec::parse(&text).unwrap_or_else(|e| {
            eprintln!("mcio_cli: faults {path}: {e}");
            exit(1);
        });
        if let Err(e) = fspec.validate_osts(spec.io_servers) {
            eprintln!("mcio_cli: faults {path}: {e}");
            exit(1);
        }
        fspec
    });

    let policy = {
        let raw = get("adaptive", "off");
        AdaptivePolicy::parse(&raw).unwrap_or_else(|| {
            eprintln!("--adaptive must be off|conservative|aggressive, got `{raw}`");
            exit(2);
        })
    };

    let engine = {
        let raw = get("engine", "fifo");
        mcio_des::SharePolicy::parse(&raw).unwrap_or_else(|| {
            eprintln!("--engine must be fifo|fair, got `{raw}`");
            exit(2);
        })
    };

    let exchange = if flags.iter().any(|f| f == "two-level") {
        Exchange::TwoLevel
    } else {
        Exchange::Direct
    };
    let want_prof = opts.get("prof");
    let prof = if want_prof.is_some() {
        Prof::enabled()
    } else {
        Prof::disabled()
    };
    let plan_scope = prof.scope("plan");
    let tp_plan = twophase::plan(&req, &map, &env, &cfg);
    let mc_plan = mc::plan(&req, &map, &env, &cfg);
    drop(plan_scope);
    tp_plan.check(&req).expect("two-phase plan sound");
    mc_plan.check(&req).expect("memory-conscious plan sound");
    let [tp_job, mc_job] = [tp_plan, mc_plan].map(|plan| {
        TenantJob::new(plan.strategy.label(), plan, map.clone())
            .pipeline(pipeline)
            .exchange(exchange)
    });
    let (tp_plan, mc_plan) = (&tp_job.plan, &mc_job.plan);
    // Every pass runs one collective alone on the machine with the
    // requested (pipeline, exchange) pair, surviving the fault plan
    // when one was given.
    let simulate_job = |job: &TenantJob, observe: Observe<'_>| -> RunOutcome {
        run(&RunSpec {
            faults: fault_spec.as_ref(),
            policy,
            observe,
            memory: Some(&env),
            ..RunSpec::new(std::slice::from_ref(job), &spec)
        })
    };
    let summary = Observe {
        engine,
        ..Observe::default()
    };
    let tp_out = simulate_job(&tp_job, summary);
    let mc_out = simulate_job(&mc_job, summary);
    let (tp, mcr) = (&tp_out.jobs[0].report, &mc_out.jobs[0].report);
    println!(
        "two-phase       : {:>9.1} MiB/s  ({} aggs, {} rounds, elapsed {})",
        tp.bandwidth_mibs,
        tp_plan.naggs(),
        tp_plan.max_rounds(),
        tp.elapsed,
    );
    println!(
        "memory-conscious: {:>9.1} MiB/s  ({} aggs, {} rounds, elapsed {})  [{:+.1}%]",
        mcr.bandwidth_mibs,
        mc_plan.naggs(),
        mc_plan.max_rounds(),
        mcr.elapsed,
        improvement_pct(tp.bandwidth_mibs, mcr.bandwidth_mibs),
    );
    if let (Some(fspec), Some(tpo), Some(mco)) = (&fault_spec, &tp_out.recovery, &mc_out.recovery) {
        println!(
            "faults          : {} event(s), seed {}",
            fspec.events.len(),
            fspec.seed
        );
        for (label, o) in [("two-phase", tpo), ("memory-conscious", mco)] {
            println!(
                "{label:<16}: {}  (failovers {}, degraded rounds {}, retries {}, exhausted {})",
                if o.completed {
                    "completed"
                } else {
                    "INCOMPLETE"
                },
                o.failovers,
                o.degraded_rounds,
                o.retries,
                o.retry_exhausted,
            );
        }
        if !policy.is_off() {
            let a = &mc_out.jobs[0].adaptive;
            println!(
                "adaptive        : policy {} (severity {:.3}, deferrals {}, demotions {}, \
                 resplits {}{})",
                policy.label(),
                a.severity,
                a.deferrals,
                a.demotions,
                a.resplits,
                match a.retuned {
                    Some((old, new)) => format!(", msg_group {old} -> {new}"),
                    None => String::new(),
                },
            );
        }
    }

    // Observability exports: one extra observed run of the selected
    // strategy (--strategy, default memory-conscious) produces the
    // metrics registry, the unified Chrome trace, and/or the
    // `mcio.prof.v1` simulator profile.
    let want_metrics = opts.get("metrics");
    let want_trace = opts.get("trace");
    if want_metrics.is_some() || want_trace.is_some() || want_prof.is_some() {
        let fmt = match MetricsFormat::parse(&get("metrics-format", "json")) {
            Some(f) => f,
            None => {
                eprintln!("--metrics-format must be json|csv|prom");
                exit(2);
            }
        };
        let (label, obs_job) = if observe_mc {
            ("memory-conscious", &mc_job)
        } else {
            ("two-phase", &tp_job)
        };
        let registry = Arc::new(Registry::new());
        spec.record_into(&registry);
        mcio_workloads::record_request(&req, &registry);
        let observe = Observe {
            registry: want_metrics.map(|_| &registry),
            trace: want_trace.is_some(),
            prof: want_prof.map(|_| &prof),
            engine,
        };
        let outcome = simulate_job(obs_job, observe);
        if let Some(path) = want_metrics {
            if let Err(e) = std::fs::write(path, fmt.render(&registry.snapshot())) {
                eprintln!("mcio_cli: cannot write metrics to {path}: {e}");
                exit(1);
            }
            println!("{label} metrics written to {path}");
        }
        if let Some(path) = want_trace {
            let json = {
                let _emit_scope = prof.scope("trace-emit");
                outcome.trace_json().expect("trace was requested")
            };
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("mcio_cli: cannot write trace to {path}: {e}");
                exit(1);
            }
            println!("{label} timeline written to {path} (open in Perfetto)");
        }
        if let Some(path) = want_prof {
            let report = ProfReport::build(
                &prof,
                vec![DetCell {
                    label: format!("run/{label}"),
                    engine: outcome.engine.clone(),
                }],
                None,
                Vec::new(),
            );
            if let Err(e) = std::fs::write(path, report.render()) {
                eprintln!("mcio_cli: cannot write profile to {path}: {e}");
                exit(1);
            }
            println!("{label} profile written to {path}");
        }
    }
}
