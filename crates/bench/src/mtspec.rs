//! The multi-tenant spec DSL and the `mcio.multitenant.v1` renderer.
//!
//! A spec file describes one shared machine, N jobs and an optional
//! machine-level fault plan, one directive per line:
//!
//! ```text
//! # comments and blank lines are ignored
//! machine small:32x2            # or: testbed | exascale | small:<nodes>x<cores>
//! job a ranks=8 ppn=2 node_offset=0 start=0 workload=ior per_proc=2M \
//!       segments=3 buffer=512K stddev=0.3 seed=7 strategy=mc base=0
//! job b ranks=8 ppn=2 node_offset=4 start=250us base=1G strategy=two-phase
//! fault seed 5
//! fault ost_slow(0, 4.0, 0ns..20ms)
//! ```
//!
//! (`\` continuations are not supported — the example wraps only for
//! rustdoc width; a real `job` directive is one line.)
//!
//! Every `job` key is optional. Defaults: `ranks=8 ppn=2 node_offset=0
//! start=0 workload=ior per_proc=2M segments=4 scale=4 buffer=1M
//! stddev=0.3 seed=42 strategy=mc rw=write pipeline=serial
//! exchange=direct base=0`. `base` shifts every extent of the job's
//! request, giving each tenant its own region of the flat PFS offset
//! space — its "file". `fault` lines are concatenated (in order) and
//! parsed with the robustness DSL of `mcio-faults`.
//!
//! [`render_run`] serializes a shared-machine [`RunOutcome`] as the
//! `mcio.multitenant.v1` JSON document: manual string building,
//! `{:.6}` floats, no map iteration — the bytes are a pure function of
//! the outcome, so any worker-thread fan-out reproduces them exactly.

use mcio_cluster::spec::ClusterSpec;
use mcio_cluster::ProcessMap;
use mcio_core::exec_sim::{Exchange, Pipeline};
use mcio_core::hints::parse_bytes;
use mcio_core::{
    mcio, twophase, CollectiveConfig, CollectiveRequest, Extent, JobOutcome, ProcMemory,
    RunOutcome, Rw, Strategy, TenantJob,
};
use mcio_des::SimDuration;
use mcio_faults::FaultSpec;
use mcio_obs::trace::escape_json;
use mcio_workloads::{science, CollPerf, Ior};
use std::fmt::Write as _;

/// One parsed `job` directive (all knobs resolved to concrete values).
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Job name (unique within the spec).
    pub name: String,
    /// Ranks in the job.
    pub ranks: usize,
    /// Ranks per node.
    pub ppn: usize,
    /// First machine node of the job's partition.
    pub node_offset: usize,
    /// Arrival time.
    pub start: SimDuration,
    /// Workload shape: `ior`, `collperf` or `checkpoint`.
    pub workload: String,
    /// Per-process bytes (ior/checkpoint).
    pub per_proc: u64,
    /// IOR segment count.
    pub segments: u64,
    /// CollPerf dimension divisor.
    pub scale: u64,
    /// Nominal aggregator buffer.
    pub buffer: u64,
    /// Relative stddev of the per-process memory draw.
    pub stddev: f64,
    /// Memory-draw seed.
    pub seed: u64,
    /// Planning strategy.
    pub strategy: Strategy,
    /// Read or write.
    pub rw: Rw,
    /// Round pipelining.
    pub pipeline: Pipeline,
    /// Exchange shape.
    pub exchange: Exchange,
    /// Byte offset added to every extent — the job's file region.
    pub base: u64,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            name: String::new(),
            ranks: 8,
            ppn: 2,
            node_offset: 0,
            start: SimDuration::ZERO,
            workload: "ior".to_string(),
            per_proc: 2 << 20,
            segments: 4,
            scale: 4,
            buffer: 1 << 20,
            stddev: 0.3,
            seed: 42,
            strategy: Strategy::MemoryConscious,
            rw: Rw::Write,
            pipeline: Pipeline::Serial,
            exchange: Exchange::Direct,
            base: 0,
        }
    }
}

/// A parsed multi-tenant spec: machine, jobs, optional fault plan.
#[derive(Debug, Clone)]
pub struct MtSpec {
    /// The shared machine.
    pub machine: ClusterSpec,
    /// Job directives in file order.
    pub jobs: Vec<JobSpec>,
    /// Machine-level fault plan, when any `fault` line was present.
    pub faults: Option<FaultSpec>,
}

/// Parse a simulated-time duration: integer with an `ns`/`us`/`ms`/`s`
/// suffix (bare integers are nanoseconds).
pub fn parse_duration(s: &str) -> Result<SimDuration, String> {
    let (digits, mul) = if let Some(d) = s.strip_suffix("ns") {
        (d, 1u64)
    } else if let Some(d) = s.strip_suffix("us") {
        (d, 1_000)
    } else if let Some(d) = s.strip_suffix("ms") {
        (d, 1_000_000)
    } else if let Some(d) = s.strip_suffix('s') {
        (d, 1_000_000_000)
    } else {
        (s, 1)
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("`{s}` is not a duration (expected e.g. 250us, 3ms)"))?;
    Ok(SimDuration::from_nanos(n.saturating_mul(mul)))
}

fn parse_machine(value: &str) -> Result<ClusterSpec, String> {
    ClusterSpec::parse_compact(value)
}

fn parse_job(rest: &str, line_no: usize) -> Result<JobSpec, String> {
    let mut words = rest.split_whitespace();
    let name = words
        .next()
        .ok_or_else(|| format!("line {line_no}: job directive needs a name"))?;
    let mut job = JobSpec {
        name: name.to_string(),
        ..JobSpec::default()
    };
    for word in words {
        let (key, value) = word
            .split_once('=')
            .ok_or_else(|| format!("line {line_no}: expected key=value, got `{word}`"))?;
        let ctx = |e: String| format!("line {line_no}: {key}: {e}");
        match key {
            "ranks" => job.ranks = value.parse().map_err(|e| ctx(format!("{e}")))?,
            "ppn" => job.ppn = value.parse().map_err(|e| ctx(format!("{e}")))?,
            "node_offset" => job.node_offset = value.parse().map_err(|e| ctx(format!("{e}")))?,
            "start" => job.start = parse_duration(value).map_err(ctx)?,
            "workload" => match value {
                "ior" | "collperf" | "checkpoint" => job.workload = value.to_string(),
                other => {
                    return Err(ctx(format!(
                        "workload must be ior|collperf|checkpoint, got `{other}`"
                    )))
                }
            },
            "per_proc" => job.per_proc = parse_bytes(value).map_err(ctx)?,
            "segments" => job.segments = value.parse().map_err(|e| ctx(format!("{e}")))?,
            "scale" => job.scale = value.parse().map_err(|e| ctx(format!("{e}")))?,
            "buffer" => job.buffer = parse_bytes(value).map_err(ctx)?,
            "stddev" => job.stddev = value.parse().map_err(|e| ctx(format!("{e}")))?,
            "seed" => job.seed = value.parse().map_err(|e| ctx(format!("{e}")))?,
            "strategy" => {
                job.strategy = match value {
                    "mc" | "memory-conscious" => Strategy::MemoryConscious,
                    "tp" | "two-phase" => Strategy::TwoPhase,
                    other => {
                        return Err(ctx(format!("strategy must be two-phase|mc, got `{other}`")))
                    }
                }
            }
            "rw" => {
                job.rw = match value {
                    "read" => Rw::Read,
                    "write" => Rw::Write,
                    other => return Err(ctx(format!("rw must be read|write, got `{other}`"))),
                }
            }
            "pipeline" => {
                job.pipeline = match value {
                    "serial" => Pipeline::Serial,
                    "double" => Pipeline::DoubleBuffered,
                    other => {
                        return Err(ctx(format!(
                            "pipeline must be serial|double, got `{other}`"
                        )))
                    }
                }
            }
            "exchange" => {
                job.exchange = match value {
                    "direct" => Exchange::Direct,
                    "two-level" => Exchange::TwoLevel,
                    other => {
                        return Err(ctx(format!(
                            "exchange must be direct|two-level, got `{other}`"
                        )))
                    }
                }
            }
            "base" => job.base = parse_bytes(value).map_err(ctx)?,
            other => return Err(format!("line {line_no}: unknown job key `{other}`")),
        }
    }
    if job.ranks == 0 || job.ppn == 0 {
        return Err(format!("line {line_no}: ranks and ppn must be positive"));
    }
    Ok(job)
}

impl MtSpec {
    /// Parse a spec document. Errors carry the offending line number.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut machine: Option<ClusterSpec> = None;
        let mut jobs: Vec<JobSpec> = Vec::new();
        let mut fault_lines: Vec<&str> = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (directive, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
            match directive {
                "machine" => {
                    if machine.is_some() {
                        return Err(format!("line {line_no}: duplicate machine directive"));
                    }
                    machine = Some(parse_machine(rest.trim())?);
                }
                "job" => {
                    let job = parse_job(rest, line_no)?;
                    if jobs.iter().any(|j| j.name == job.name) {
                        return Err(format!("line {line_no}: duplicate job name `{}`", job.name));
                    }
                    jobs.push(job);
                }
                "fault" => fault_lines.push(rest.trim()),
                other => return Err(format!("line {line_no}: unknown directive `{other}`")),
            }
        }
        let machine = machine.ok_or("spec needs a machine directive")?;
        if jobs.is_empty() {
            return Err("spec needs at least one job directive".to_string());
        }
        let faults = if fault_lines.is_empty() {
            None
        } else {
            let f =
                FaultSpec::parse(&fault_lines.join("\n")).map_err(|e| format!("faults: {e}"))?;
            // The parser can't know the machine; with it resolved,
            // reject fault targets that don't exist on it.
            f.validate_osts(machine.io_servers)
                .map_err(|e| format!("faults: {e}"))?;
            Some(f)
        };
        let spec = MtSpec {
            machine,
            jobs,
            faults,
        };
        for job in &spec.jobs {
            let nnodes = job.ranks.div_ceil(job.ppn);
            if job.node_offset + nnodes > spec.machine.nodes {
                return Err(format!(
                    "job `{}` needs nodes {}..{} but the machine has {}",
                    job.name,
                    job.node_offset,
                    job.node_offset + nnodes,
                    spec.machine.nodes
                ));
            }
        }
        Ok(spec)
    }

    /// Plan every job and build the [`TenantJob`] list for
    /// [`mcio_core::run`].
    pub fn build_jobs(&self) -> Vec<TenantJob> {
        self.jobs.iter().map(build_tenant).collect()
    }
}

/// The job's request, shifted onto its file region at `base`.
fn build_request(job: &JobSpec) -> CollectiveRequest {
    let req = match job.workload.as_str() {
        "collperf" => CollPerf::paper(job.ranks, job.scale).request(job.rw),
        "checkpoint" => {
            let sizes: Vec<u64> = (0..job.ranks as u64)
                .map(|r| job.per_proc / 2 + (r * 977) % job.per_proc.max(1))
                .collect();
            science::checkpoint(job.rw, 4096, &sizes)
        }
        _ => Ior::paper(job.ranks, job.per_proc, job.segments).request(job.rw),
    };
    if job.base == 0 {
        return req;
    }
    CollectiveRequest::new(
        req.rw,
        req.ranks
            .iter()
            .map(|r| {
                r.extents
                    .iter()
                    .map(|e| Extent::new(e.offset + job.base, e.len))
                    .collect()
            })
            .collect(),
    )
}

/// Plan one job spec into a ready [`TenantJob`].
pub fn build_tenant(job: &JobSpec) -> TenantJob {
    let req = build_request(job);
    let map = ProcessMap::block_ppn(job.ranks, job.ppn);
    let mem = ProcMemory::normal(job.ranks, job.buffer, job.stddev, job.seed);
    let per_node = (req.total_bytes() / map.nnodes().max(1) as u64).max(1);
    let cfg = CollectiveConfig::with_buffer(job.buffer)
        .nah(2)
        .msg_group(per_node)
        .msg_ind((per_node / 2).max(1))
        .mem_min(job.buffer / 2);
    let plan = match job.strategy {
        Strategy::TwoPhase => twophase::plan(&req, &map, &mem, &cfg),
        Strategy::MemoryConscious => mcio::plan(&req, &map, &mem, &cfg),
    };
    TenantJob::new(job.name.clone(), plan, map)
        .node_offset(job.node_offset)
        .start(job.start)
        .pipeline(job.pipeline)
        .exchange(job.exchange)
}

/// One job's outcome as a `mcio.multitenant.v1` JSON object (no
/// trailing newline). Shared by the CLI document and the
/// `contention_suite` cells so the two renderings can never drift.
pub fn render_job(o: &JobOutcome) -> String {
    format!(
        "{{\"job\": \"{}\", \"strategy\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
         \"elapsed_ns\": {}, \"solo_ns\": {}, \"slowdown\": {:.6}, \"ost_overlap\": {:.6}, \
         \"bandwidth_mibs\": {:.6}}}",
        escape_json(&o.label),
        o.strategy.label(),
        o.start_ns,
        o.end_ns,
        o.report.elapsed.as_nanos(),
        o.solo_elapsed.as_nanos(),
        o.slowdown,
        o.ost_overlap,
        o.report.bandwidth_mibs,
    )
}

/// Render a whole run as the byte-stable `mcio.multitenant.v1`
/// document.
pub fn render_run(machine: &str, mt: &RunOutcome) -> String {
    let mut out = String::from("{\n  \"schema\": \"mcio.multitenant.v1\",\n");
    let _ = writeln!(out, "  \"machine\": \"{}\",", escape_json(machine));
    let _ = writeln!(out, "  \"tenants\": {},", mt.jobs.len());
    let _ = writeln!(out, "  \"makespan_ns\": {},", mt.makespan.as_nanos());
    out.push_str("  \"jobs\": [\n");
    for (i, job) in mt.jobs.iter().enumerate() {
        let _ = write!(out, "    {}", render_job(job));
        out.push_str(if i + 1 < mt.jobs.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcio_core::{run, RunSpec};

    const SPEC: &str = "\
# two tenants on a shared 8-node machine
machine small:8x2

job a ranks=8 ppn=2 node_offset=0 start=0     per_proc=256K segments=2 buffer=256K seed=1
job b ranks=8 ppn=2 node_offset=4 start=250us per_proc=256K segments=2 buffer=256K seed=2 base=1G strategy=two-phase
";

    #[test]
    fn parses_machine_jobs_and_defaults() {
        let spec = MtSpec::parse(SPEC).expect("spec parses");
        assert_eq!(spec.machine.nodes, 8);
        assert_eq!(spec.jobs.len(), 2);
        assert!(spec.faults.is_none());
        let a = &spec.jobs[0];
        assert_eq!(a.name, "a");
        assert_eq!(a.strategy, Strategy::MemoryConscious, "default strategy");
        assert_eq!(a.workload, "ior", "default workload");
        let b = &spec.jobs[1];
        assert_eq!(b.node_offset, 4);
        assert_eq!(b.start, SimDuration::from_micros(250));
        assert_eq!(b.base, 1 << 30);
        assert_eq!(b.strategy, Strategy::TwoPhase);
    }

    #[test]
    fn fault_lines_concatenate_into_one_plan() {
        let text = format!("{SPEC}fault seed 9\nfault ost_slow(0, 2.0, 0ns..5ms)\n");
        let spec = MtSpec::parse(&text).expect("faulted spec parses");
        let faults = spec.faults.expect("fault plan present");
        assert_eq!(faults.seed, 9);
        assert_eq!(faults.events.len(), 1);
    }

    #[test]
    fn rejects_malformed_specs() {
        for (text, needle) in [
            ("job a ranks=8", "machine directive"),
            ("machine small:8x2", "at least one job"),
            (
                "machine small:8x2\nmachine testbed\njob a",
                "duplicate machine",
            ),
            ("machine small:8x2\njob a\njob a", "duplicate job name"),
            ("machine small:8x2\njob a frobnicate=1", "unknown job key"),
            ("machine small:8x2\njob a ranks=0", "must be positive"),
            ("machine small:0x2\njob a", "must be positive"),
            ("machine small:8x2\njob a start=soon", "not a duration"),
            ("machine small:8x2\nwarp 9", "unknown directive"),
            (
                "machine small:2x2\njob a ranks=8 ppn=2 node_offset=1",
                "machine has 2",
            ),
        ] {
            let err = MtSpec::parse(text).expect_err(text);
            assert!(
                err.contains(needle),
                "`{text}` → `{err}` (wanted `{needle}`)"
            );
        }
    }

    #[test]
    fn duration_parsing() {
        assert_eq!(
            parse_duration("250us").unwrap(),
            SimDuration::from_micros(250)
        );
        assert_eq!(parse_duration("3ms").unwrap(), SimDuration::from_millis(3));
        assert_eq!(parse_duration("1s").unwrap(), SimDuration::from_secs(1));
        assert_eq!(parse_duration("7ns").unwrap(), SimDuration::from_nanos(7));
        assert_eq!(parse_duration("42").unwrap(), SimDuration::from_nanos(42));
        assert!(parse_duration("soon").is_err());
        assert!(parse_duration("1.5ms").is_err(), "fractions are rejected");
    }

    #[test]
    fn built_jobs_run_and_render_deterministically() {
        let spec = MtSpec::parse(SPEC).expect("spec parses");
        let jobs = spec.build_jobs();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[1].node_offset, 4);

        let run = |spec: &MtSpec, jobs: &[TenantJob]| {
            render_run(
                &spec.machine.name,
                &run(&RunSpec {
                    faults: spec.faults.as_ref(),
                    ..RunSpec::new(jobs, &spec.machine)
                }),
            )
        };
        let doc = run(&spec, &jobs);
        assert_eq!(doc, run(&spec, &jobs), "rendered bytes replay identically");
        assert!(doc.starts_with("{\n  \"schema\": \"mcio.multitenant.v1\",\n"));
        assert!(doc.contains("\"tenants\": 2,"));
        assert!(doc.contains("\"job\": \"a\""));
        assert!(doc.contains("\"strategy\": \"two-phase\""));
        // The staggered tenant starts exactly at its arrival time.
        assert!(doc.contains("\"start_ns\": 250000"), "{doc}");
    }
}
