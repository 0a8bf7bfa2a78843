//! The repository's benchmark: host time of whole scenario runs, and the
//! per-layer costs behind it.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each invocation runs one workload on one thread, as a closed loop of one
//! scenario at a time (`ScenarioSpec` → `Runner` → `Record`), for about
//! `--seconds` seconds. With `--trace 0` it reports the end-to-end metrics
//! (medians over the repetitions); with `--trace 1` it times the public
//! calls into each layer inside recorded spans, runs one traced scenario
//! and reports the per-layer metrics. Every repetition's record is checked;
//! a failed check counts the repetition as failed. The last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! See `NOTES.md` for the workloads and the metric map.

mod layers;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use netfence_experiments::prelude::*;

use trace::Tracer;
use workload::{check_record, digest, injected_packets, TimedRun, Workload};

/// Repetitions a timed run makes even when `--seconds` is short.
const MIN_REPS: usize = 3;
/// Set-up samples a timed run takes before its first repetition.
const MIN_SETUP_SAMPLES: usize = 9;
/// Host time spent sampling set-up alone after each repetition, as a
/// share of the repetition's own time.
const SETUP_SHARE: f64 = 0.05;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 7;
    let mut seconds = 30;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!(
                    "unknown workload {value:?}; expected one of {:?}",
                    Workload::ALL.map(Workload::name)
                ))?)
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value:?}: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds {value:?}: {e}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// What one invocation measured.
#[derive(Debug, Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Count one checked repetition, reporting a failed check on stderr.
    fn check(&mut self, w: Workload, record: &Record, reference: &Record) {
        self.attempted += 1;
        if let Err(e) = check_record(w, record, reference) {
            eprintln!("check failed ({}): {e}", w.name());
            self.failed += 1;
        }
    }

    fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // A non-finite value is not JSON; report it as a failure.
            let value = if value.is_finite() { *value } else { -1.0 };
            let _ =
                write!(metrics, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        let correct = self.failed == 0
            && self.attempted > 0
            && self.metrics.iter().all(|(_, v, _)| v.is_finite());
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted, self.failed
        )
    }
}

/// The median of `xs` (the mean of the middle two for an even count).
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// This process's peak resident set in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Where the result came from: commit, host and the generated spec.
fn provenance(args: &Args, spec: &ScenarioSpec) -> String {
    // Ask git only inside a clone's root, so git never reads outside it.
    let commit = std::path::Path::new(".git")
        .exists()
        .then(|| std::process::Command::new("git").args(["rev-parse", "HEAD"]).output().ok())
        .flatten()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|m| m.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"commit\": \"{commit}\", \"nproc\": {nproc}, \"cpu\": \"{cpu}\", \"spec\": {}}}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workload::spec_summary(spec)
    )
}

/// The untraced run: repeat the scenario until `--seconds` are used up and
/// report the end-to-end medians.
fn run_timed(args: &Args, spec: &ScenarioSpec) -> Outcome {
    let w = args.workload;
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut out = Outcome::default();

    // Warm-up: the first run fills the allocator and caches, and its record
    // is the reference every later repetition must equal.
    let first = TimedRun::run(spec);
    out.check(w, &first.record, &first.record);
    let (figure, value, _) = w.figure(&first.record);
    println!("{{\"record_digest\": \"{:016x}\", \"{figure}\": {value}}}", digest(&first.record));

    // Set-up alone, many times and spread over the whole run, so its
    // median neither rests on the few repetitions a long workload fits in
    // nor on one moment of the host's speed.
    let mut setup = Vec::new();
    let sample_setup = |setup: &mut Vec<f64>, for_s: f64| {
        let until = Instant::now() + Duration::from_secs_f64(for_s);
        while setup.len() < MIN_SETUP_SAMPLES || Instant::now() < until {
            let (_, build_s, deploy_s) = workload::time_setup(spec);
            setup.push(build_s + deploy_s);
        }
    };
    sample_setup(&mut setup, 0.0);

    // Start another repetition only while it is expected to end in time.
    let (mut run, mut pkts) = (Vec::new(), Vec::new());
    while run.len() < MIN_REPS
        || start.elapsed() + Duration::from_secs_f64(median(&run) * (1.0 + SETUP_SHARE)) < budget
    {
        let r = TimedRun::run(spec);
        out.check(w, &r.record, &first.record);
        run.push(r.run_s());
        setup.push(r.setup_s());
        pkts.push(injected_packets(&r.record) as f64 / r.loop_s());
        sample_setup(&mut setup, r.run_s() * SETUP_SHARE);
    }
    eprintln!(
        "{}: {} set-up samples; {} packets, {} events per run; run_s of the {} repetitions: {run:?}",
        w.name(),
        setup.len(),
        injected_packets(&first.record),
        first.record.engine.events,
        run.len(),
    );
    out.metric("run_s", median(&run), "s");
    out.metric("setup_s", median(&setup), "s");
    out.metric("sim_pkts_per_s", median(&pkts), "packets/s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    out
}

/// The traced run: one scenario traced at its layer boundaries and priced
/// by the run's own counters, then per-layer costs inside spans.
fn run_traced(args: &Args, spec: &ScenarioSpec) -> Outcome {
    let w = args.workload;
    let start = Instant::now();
    let mut out = Outcome::default();
    let mut tracer = Tracer::new();

    // Warm-up through `Runner::run` itself: its record is the reference the
    // benchmark's own build-deploy-run path must reproduce, which checks
    // the benchmark's topology mapping.
    let reference = Runner::new(spec.clone()).run();
    out.check(w, &reference, &reference);
    let untraced = TimedRun::run(spec);
    out.check(w, &untraced.record, &reference);

    // The same run with every layer boundary the benchmark can reach inside
    // a span.
    let root = tracer.enter("bench.scenario");
    let built = tracer.span("topo.build", 1, || workload::topo_spec(spec).build());
    let build_s = tracer.last_secs();
    let route_table_bytes = built.net.route_stats().table_bytes;
    drop(tracer.span("systems.deploy", 1, || workload::deploy(spec, &built)));
    let deploy_s = tracer.last_secs();
    let runner = Runner::new(spec.clone());
    let record = tracer.span("sim.engine.run_on", 1, || runner.run_on(built));
    let run_on_s = tracer.last_secs();
    tracer.exit(root, 0);
    out.check(w, &record, &reference);
    let traced_run_s = build_s + run_on_s;
    let loop_s = (run_on_s - deploy_s).max(1e-9);

    // The same spec undefended, as a reference for the defense's share of
    // host time (0 for an undefended workload).
    let defense_share = if spec.defense.kind == DefenseKind::None {
        0.0
    } else {
        let none = TimedRun::run(&spec.clone().defense(DefenseKind::None));
        (untraced.run_s() - none.run_s()) / untraced.run_s()
    };

    // Per-layer costs in what is left of `--seconds`, each call batch
    // inside its own span.
    let left = Duration::from_secs(args.seconds).saturating_sub(start.elapsed());
    let (costs, problems) = layers::measure(&mut tracer, spec, left.mul_f64(0.9));
    out.attempted += 1;
    if !problems.is_empty() {
        eprintln!("layer fixture checks failed: {problems:?}");
        out.failed += 1;
    }

    let e = &record.engine;
    let rep = &record.report;
    let packets = injected_packets(&record) as f64;
    for (name, ns) in &costs {
        out.metric(name.as_str(), *ns, "ns");
    }
    out.metric("sim.engine.ns_per_event", loop_s * 1e9 / e.events as f64, "ns");
    for (name, v) in [
        ("events", e.events),
        ("forwards", e.forwards),
        ("enqueues", e.enqueues),
        ("dequeues", e.dequeues),
        ("drops", e.drops),
    ] {
        out.metric(format!("sim.engine.{name}"), v as f64, "count");
    }
    out.metric("sim.engine.forwards_per_pkt", e.forwards as f64 / packets, "ratio");
    out.metric("sim.engine.drop_ratio", e.drops as f64 / packets, "ratio");
    out.metric("topo.build_s", build_s, "s");
    out.metric("topo.route_table_bytes", route_table_bytes as f64, "bytes");
    out.metric("systems.deploy_s", deploy_s, "s");
    for (name, v) in [
        ("stamped_decr", rep.stamped_decr),
        ("regular_drops", rep.regular_drops),
        ("request_drops", rep.request_drops),
        ("invalid_feedback", rep.invalid_feedback),
        ("rate_limiters", rep.rate_limiters as u64),
    ] {
        out.metric(format!("systems.{name}"), v as f64, "count");
    }

    // Count-priced attribution of the event loop: counters the engine and
    // the defense report keep today, times the per-call cost measured
    // above. MAC computations at access routers are not counted by the
    // program yet, so the access-router path stays unattributed.
    let cost = |name: &str| costs.iter().find(|(n, _)| n == name).map_or(0.0, |(_, ns)| *ns);
    let queue_s =
        (e.enqueues + e.dequeues) as f64 / 2.0 * cost("sim.queue.droptail.enq_deq_ns") / 1e9;
    let topology_s = e.forwards as f64 * cost("sim.topology.next_hop_ns") / 1e9;
    let core_s = rep.stamped_decr as f64 * cost("core.bottleneck_decr_attack_ns") / 1e9;
    let attributed_s = queue_s + topology_s + core_s;
    out.metric("trace.event_loop_s", loop_s, "s");
    out.metric("trace.priced_s.sim.queue", queue_s, "s");
    out.metric("trace.priced_s.sim.topology", topology_s, "s");
    out.metric("trace.priced_s.core", core_s, "s");
    out.metric("trace.attributed_s", attributed_s, "s");
    out.metric("trace.unattributed_s", loop_s - attributed_s, "s");
    out.metric("trace.agents", (rep.router_agents + rep.host_shims) as f64, "count");
    let self_s = tracer.self_secs_by_layer();
    for layer in trace::LAYERS {
        out.metric(format!("trace.self_s.{layer}"), self_s.get(layer).copied().unwrap_or(0.0), "s");
    }
    out.metric("trace.overhead_ratio", traced_run_s / untraced.run_s(), "ratio");
    out.metric("trace.defense_share", defense_share, "ratio");

    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    let path = format!("{dir}/perfbench/trace-{}-seed{}.jsonl", w.name(), args.seed);
    let written = std::fs::create_dir_all(format!("{dir}/perfbench"))
        .and_then(|()| std::fs::write(&path, tracer.to_jsonl()));
    match written {
        Ok(()) => eprintln!("{} spans written to {path}", tracer.spans().len()),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let spec = args.workload.spec(args.seed);
    println!("{}", provenance(&args, &spec));
    let out = if args.trace { run_traced(&args, &spec) } else { run_timed(&args, &spec) };
    println!("{}", out.to_json());
    ExitCode::SUCCESS
}
