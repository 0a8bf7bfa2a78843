//! `netfence`: regenerates each table and figure of the paper's evaluation
//! (§6) and this reproduction's own sweeps as plain-text tables.
//!
//! Run with: `cargo run --release -p netfence-experiments -- <experiment>
//! [--quick] [--full] [--trace]`.
//!
//! * `--quick` shrinks every experiment to a seconds-long smoke scale
//!   (fig7: 20 000 packets per cell instead of 200 000; fig13/fig14 are
//!   fast either way and ignore it).
//! * `--full` extends the topo_scale sweep to 100 K-host builds and 16 K-host
//!   simulations.
//! * `--trace` makes fig8 and chaos run one cell with observer telemetry
//!   enabled instead of the sweep, writing its timeline probes and sampled
//!   packet flight records as JSONL under `target/telemetry/`.
//!
//! A missing or unknown experiment name, or an unknown flag, prints the
//! usage and exits with status 2.

use std::process::ExitCode;

use netfence_experiments::chaos::{
    chaos_spec, run_chaos_sweep, ChaosFault, ChaosPoint, ChaosTopology, Severity,
};
use netfence_experiments::fig9::UserTraffic;
use netfence_experiments::prelude::*;
use netfence_experiments::report::{drop_budget_table, kbps, pct, render_table, secs2};
use netfence_experiments::{
    chaos, deployment, fig10, fig11, fig13, fig7, fig8, fig9, reaction, topo_scale, tournament,
};
use netfence_sim::time::{MILLI, SEC};

/// The command-line flags; each experiment reads the ones it understands.
struct Opts {
    quick: bool,
    full: bool,
    trace: bool,
}

type Run = fn(&Opts);

const EXPERIMENTS: [(&str, Run); 12] = [
    ("fig7", run_fig7),
    ("fig8", run_fig8),
    ("fig9", run_fig9),
    ("fig10", run_fig10),
    ("fig11", run_fig11),
    ("fig13", run_fig13),
    ("fig14", run_fig14),
    ("deployment", run_deployment),
    ("topo_scale", run_topo_scale),
    ("reaction", run_reaction),
    ("tournament", run_tournament),
    ("chaos", run_chaos),
];

fn main() -> ExitCode {
    let mut opts = Opts { quick: false, full: false, trace: false };
    let mut name = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--full" => opts.full = true,
            "--trace" => opts.trace = true,
            _ if name.is_none() && !arg.starts_with('-') => name = Some(arg),
            _ => return usage(),
        }
    }
    match EXPERIMENTS.iter().find(|(n, _)| Some(*n) == name.as_deref()) {
        Some((_, run)) => {
            run(&opts);
            ExitCode::SUCCESS
        }
        None => usage(),
    }
}

fn usage() -> ExitCode {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
    eprintln!("usage: netfence <experiment> [--quick] [--full] [--trace]");
    eprintln!("experiments: {}", names.join(" "));
    ExitCode::from(2)
}

/// `Scale::tiny()` under `--quick`, the default scale otherwise.
fn base_scale(opts: &Opts) -> Scale {
    if opts.quick {
        Scale::tiny()
    } else {
        Scale::default_scale()
    }
}

/// A reaction time in seconds, or "never" if goodput never recovered.
fn secs_or_never(s: Option<f64>) -> String {
    match s {
        Some(s) => format!("{s:.1}"),
        None => "never".to_string(),
    }
}

/// Print a Group-A throughput table (Figures 10, 13 and 14): one
/// `(case, user bps, attacker bps, fair share bps)` row per capacity case.
fn print_group_a(title: &str, rows: impl Iterator<Item = (&'static str, f64, f64, f64)>) {
    println!("{title}\n");
    let rows: Vec<Vec<String>> = rows
        .map(|(case, user, attacker, fair)| {
            vec![case.to_string(), kbps(user), kbps(attacker), kbps(fair)]
        })
        .collect();
    println!(
        "{}",
        render_table(&["case", "Group-A user", "Group-A attacker", "fair share"], &rows)
    );
}

/// Write a traced run's timeline and flight-recorder JSONL to
/// `target/telemetry/{name}_timeline.jsonl` and `{name}_trace.jsonl`.
fn write_telemetry(name: &str, dump: &TelemetryDump) {
    let dir = std::path::Path::new("target/telemetry");
    std::fs::create_dir_all(dir).expect("create target/telemetry");
    let timeline_path = dir.join(format!("{name}_timeline.jsonl"));
    let trace_path = dir.join(format!("{name}_trace.jsonl"));
    std::fs::write(&timeline_path, &dump.timeline_jsonl).expect("write timeline jsonl");
    std::fs::write(&trace_path, &dump.trace_jsonl).expect("write trace jsonl");
    println!("wrote {} and {}", timeline_path.display(), trace_path.display());
}

/// Figure 7: router micro-benchmarks (ns per packet).
fn run_fig7(opts: &Opts) {
    let iters: u64 = if opts.quick { 20_000 } else { 200_000 };
    let table: Vec<Vec<String>> = fig7::run_fig7(iters)
        .iter()
        .map(|r| {
            vec![
                r.packet_type.to_string(),
                r.router_type.to_string(),
                r.condition.to_string(),
                format!("{:.0}", r.netfence_ns),
                format!("{:.0}", r.tva_ns),
            ]
        })
        .collect();
    println!("Figure 7: per-packet processing overhead (ns/pkt), {iters} packets per cell\n");
    println!("{}", render_table(&["packet", "router", "condition", "NetFence", "TVA+"], &table));
    println!("Note: software AES on this host; the paper used a 3 GHz Xeon with the same relative structure.");
}

/// Figure 8: average 20 KB transfer time under unwanted-traffic floods.
/// `--trace` runs one NetFence cell with telemetry instead of the sweep.
fn run_fig8(opts: &Opts) {
    let scale = base_scale(opts);
    if opts.trace {
        let spec = fig8::fig8_spec(&scale, DefenseKind::NetFence, 100_000)
            .sampled(500 * MILLI)
            .traced(TelemetryConfig::full(4));
        let (record, dump) = Runner::new(spec).run_with_telemetry();
        println!("Figure 8 (NetFence cell, traced): drop budget\n");
        println!("{}", drop_budget_table(&record));
        println!(
            "engine: {} events, {} forwards, {} enqueues, {} dequeues, {} drops",
            record.engine.events,
            record.engine.forwards,
            record.engine.enqueues,
            record.engine.dequeues,
            record.engine.drops
        );
        println!(
            "timeline: {} rows ({} evicted); trace: {} hop events ({} evicted)",
            dump.timeline_rows, dump.timeline_evicted, dump.trace_events, dump.trace_evicted
        );
        write_telemetry("fig8", &dump);
        return;
    }
    println!(
        "Figure 8: unwanted request flooding, {} simulated senders per point, {}s simulated\n",
        scale.senders(),
        scale.sim_time / SEC
    );
    let rows: Vec<Vec<String>> = fig8::run_fig8(&scale, &DefenseKind::ALL)
        .iter()
        .map(|p| {
            vec![
                format!("{}K", p.represented_senders / 1000),
                p.system.label().to_string(),
                secs2(p.avg_transfer_secs),
                pct(p.completion_ratio),
            ]
        })
        .collect();
    println!("{}", render_table(&["senders", "system", "avg transfer (s)", "completed"], &rows));
}

/// Figure 9: throughput ratio under colluding floods.
fn run_fig9(opts: &Opts) {
    let scale = base_scale(opts);
    for (traffic, title) in [
        (UserTraffic::LongRunning, "(a) long-running TCP"),
        (UserTraffic::WebLike, "(b) web-like traffic"),
    ] {
        println!(
            "Figure 9{title}: colluding regular-packet floods, {} simulated senders per point\n",
            scale.senders()
        );
        let rows: Vec<Vec<String>> = fig9::run_fig9(&scale, &DefenseKind::ALL, traffic)
            .iter()
            .map(|p| {
                vec![
                    format!("{}K", p.represented_senders / 1000),
                    p.system.label().to_string(),
                    format!("{:.2}", p.throughput_ratio),
                    format!("{:.3}", p.fairness_index),
                    pct(p.utilization),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(&["senders", "system", "tput ratio", "fairness", "utilization"], &rows)
        );
    }
}

/// Figure 10: NetFence on a parking-lot topology with two bottlenecks.
fn run_fig10(opts: &Opts) {
    let mut scale = base_scale(opts);
    if opts.quick {
        scale.sim_time = 80 * SEC;
    }
    print_group_a(
        "Figure 10: Group-A throughput on the parking-lot topology (kbps)",
        fig10::run_fig10(&scale)
            .iter()
            .map(|p| (p.case.label, p.group_a_user_bps, p.group_a_attacker_bps, p.fair_share_bps)),
    );
}

/// Figure 11: microscopic on-off attacks.
fn run_fig11(opts: &Opts) {
    let (scale, toffs): (Scale, Vec<f64>) = if opts.quick {
        (Scale { sim_time: 80 * SEC, ..Scale::tiny() }, vec![1.5, 10.0])
    } else {
        (Scale { sim_time: 300 * SEC, ..Scale::default_scale() }, vec![1.5, 5.0, 10.0, 30.0, 100.0])
    };
    println!(
        "Figure 11: synchronized on-off attacks, {} senders, fair share 100 kbps\n",
        scale.senders()
    );
    let rows: Vec<Vec<String>> = fig11::run_fig11(&scale, 100_000, &toffs)
        .iter()
        .map(|p| {
            vec![
                format!("{:.1}", p.ton as f64 / 1e9),
                format!("{:.1}", p.toff as f64 / 1e9),
                kbps(p.avg_user_bps),
            ]
        })
        .collect();
    println!("{}", render_table(&["Ton (s)", "Toff (s)", "user throughput (kbps)"], &rows));
}

/// Figure 13: multi-bottleneck feedback in one packet (Appendix B.1).
fn run_fig13(_: &Opts) {
    print_group_a(
        "Figure 13: Appendix B.1 multi-bottleneck feedback (control-loop model, kbps)",
        fig13::run_fig13(16, 600)
            .iter()
            .map(|p| (p.case.label, p.group_a_user_bps, p.group_a_attacker_bps, p.fair_share_bps)),
    );
}

/// Figure 14: rate-limiter inference (Appendix B.2).
fn run_fig14(_: &Opts) {
    print_group_a(
        "Figure 14: Appendix B.2 rate-limiter inference (control-loop model, kbps)",
        fig13::run_fig14(16, 600)
            .iter()
            .map(|p| (p.case.label, p.group_a_user_bps, p.group_a_attacker_bps, p.fair_share_bps)),
    );
}

/// Incremental deployment: deploying-source-AS fraction vs legitimate
/// goodput for every defense system.
fn run_deployment(opts: &Opts) {
    let scale = base_scale(opts);
    println!(
        "Incremental deployment sweep: {} source ASes × {} hosts, 1 Mbps unwanted floods on the\n\
         victim, users fetching 20 KB pages; coverage = fraction of source ASes deploying\n\
         (core + destination always deploy when > 0).\n",
        scale.src_ases, scale.hosts_per_as
    );
    let points =
        deployment::run_deployment_sweep(&scale, &DefenseKind::EVERY, &deployment::COVERAGES);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{:.0}%", p.coverage * 100.0),
                p.system.label().to_string(),
                format!("{}/{}", p.deployed_ases, p.total_ases),
                kbps(p.avg_user_bps),
                kbps(p.avg_attacker_bps),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["coverage", "system", "deployed ASes", "user kbps", "attacker kbps"], &rows)
    );
    println!(
        "Shape to expect: user goodput non-decreasing in coverage for NetFence\n\
         (deployed routers demote legacy floods; each adopting AS protects its own users)."
    );
}

/// Topology scaling: host count vs build time, routing memory and simulated
/// packets per wall-clock second on generated transit-stub internets.
fn run_topo_scale(opts: &Opts) {
    let (build_hosts, sim_hosts): (&[usize], &[usize]) = if opts.quick {
        (&[500, 2_000], &[500])
    } else if opts.full {
        (&[1_000, 5_000, 10_000, 20_000, 50_000, 100_000], &[1_000, 4_000, 16_000])
    } else {
        (&[1_000, 5_000, 10_000, 20_000, 50_000], &[1_000, 4_000])
    };

    println!(
        "Transit-stub build sweep (3×2 transit core, doubly-homed Zipf(0.9) stubs,\n\
         AS-aggregated routing: one BFS per host-bearing router, dense next-hop tables):\n"
    );
    let rows: Vec<Vec<String>> = build_hosts
        .iter()
        .map(|&h| {
            let p = topo_scale::build_point(h, 7);
            vec![
                p.hosts.to_string(),
                p.stubs.to_string(),
                p.nodes.to_string(),
                p.links.to_string(),
                format!("{}×{}", p.routers, p.destinations),
                format!("{:.1}", p.route_table_bytes as f64 / 1024.0),
                format!("{:.1}", p.build_secs * 1000.0),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["hosts", "stubs", "nodes", "links", "routes", "route KiB", "build ms"],
            &rows
        )
    );

    println!(
        "Simulation sweep (5 s simulated unwanted flood, suppression off — the\n\
         NetFence-vs-None gap is the deployed data plane's overhead):\n"
    );
    let systems = [DefenseKind::NetFence, DefenseKind::None];
    let rows: Vec<Vec<String>> = sim_hosts
        .iter()
        .flat_map(|&h| {
            let p = topo_scale::run_point(h, 7, &systems);
            p.runs
                .into_iter()
                .map(|r| {
                    vec![
                        p.hosts.to_string(),
                        r.system.label().to_string(),
                        format!("{:.2}", r.wall_secs),
                        r.packets.to_string(),
                        format!("{:.0}", r.pkts_per_sec),
                        kbps(r.avg_user_bps),
                    ]
                })
                .collect::<Vec<_>>()
        })
        .collect();
    println!(
        "{}",
        render_table(&["hosts", "system", "wall s", "packets", "pkts/s", "user kbps"], &rows)
    );
}

/// Reaction time: control-plane latency/loss/outage vs how fast each
/// defense restores legitimate goodput after the attack begins.
fn run_reaction(opts: &Opts) {
    let mut scale = base_scale(opts);
    scale.sim_time = if opts.quick { 40 * SEC } else { 90 * SEC };
    println!(
        "Reaction time: attack at {}s, {} senders per point, {}s simulated\n",
        reaction::ATTACK_START / SEC,
        scale.senders(),
        scale.sim_time / SEC
    );
    let points =
        reaction::run_reaction_sweep(&scale, &reaction::SYSTEMS, &reaction::default_knobs());
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{}", p.knobs.latency / MILLI),
                format!("{:.1}%", p.knobs.loss_per_mille as f64 / 10.0),
                format!("{}", p.knobs.outage / SEC),
                p.system.label().to_string(),
                secs_or_never(p.reaction_secs),
                kbps(p.avg_user_bps),
                kbps(p.avg_attacker_bps),
                format!("{}", p.control_retransmits),
                format!("{}", p.control_lost),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "latency (ms)",
                "loss",
                "outage (s)",
                "system",
                "reaction (s)",
                "user kbps",
                "attacker kbps",
                "retx",
                "lost"
            ],
            &rows
        )
    );
}

/// Adversarial tournament: defense × strategy × topology × coverage grid,
/// printed as the full cell table plus the per-defense regret matrix.
fn run_tournament(opts: &Opts) {
    let mut scale = base_scale(opts);
    scale.sim_time = if opts.quick { 20 * SEC } else { 60 * SEC };
    let points = tournament::default_points();
    println!(
        "Tournament: {} defenses x {} strategy points, attack at {}s, {}s simulated\n",
        tournament::SYSTEMS.len(),
        points.len(),
        tournament::ATTACK_START / SEC,
        scale.sim_time / SEC
    );
    let cells = tournament::run_tournament(&scale, &tournament::SYSTEMS, &points);
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.system.label().to_string(),
                c.point.strategy.label().to_string(),
                c.point.topology.label().to_string(),
                format!("{}%", c.point.coverage_pct),
                kbps(c.avg_user_bps),
                kbps(c.avg_attacker_bps),
                secs_or_never(c.reaction_secs),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "system",
                "strategy",
                "topology",
                "coverage",
                "user kbps",
                "attacker kbps",
                "reaction (s)"
            ],
            &rows
        )
    );
    println!("Worst case per defense (regret vs the minimax winner):\n");
    let rows: Vec<Vec<String>> = tournament::regret_matrix(&cells)
        .iter()
        .map(|r| {
            vec![
                r.system.label().to_string(),
                kbps(r.worst_user_bps),
                r.worst_strategy.to_string(),
                r.worst_topology.to_string(),
                secs_or_never(r.worst_reaction_secs),
                kbps(r.regret_bps),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "system",
                "worst user kbps",
                "worst strategy",
                "on",
                "worst reaction (s)",
                "regret kbps"
            ],
            &rows
        )
    );
}

/// Chaos sweep: defense × fault kind × severity, with per-cell worst-case
/// recovery time and availability under the fault. `--trace` runs one
/// NetFence reboot cell with telemetry instead of the sweep and also prints
/// its fault timeline marks.
fn run_chaos(opts: &Opts) {
    let mut scale = base_scale(opts);
    scale.sim_time = if opts.quick { 25 * SEC } else { 60 * SEC };
    if opts.trace {
        let point = ChaosPoint {
            topology: ChaosTopology::Dumbbell,
            fault: ChaosFault::RouterReboot,
            severity: Severity::Mild,
        };
        let spec =
            chaos_spec(&scale, DefenseKind::NetFence, &point).traced(TelemetryConfig::full(4));
        let (record, dump) = Runner::new(spec).run_with_telemetry();
        println!("Chaos (NetFence reboot cell, traced)\n");
        for (i, w) in record.faults.iter().enumerate() {
            println!(
                "fault {}: {} at {}s, cleared {}s, recovery {}",
                i,
                w.kind,
                w.at / SEC,
                w.clear_at / SEC,
                match record.fault_recovery_secs(i) {
                    Some(s) => format!("{s:.1}s"),
                    None => "never".to_string(),
                }
            );
        }
        println!(
            "worst recovery: {:?}s, availability: {:?}",
            record.worst_fault_recovery_secs(),
            record.availability()
        );
        let fault_rows =
            dump.timeline_jsonl.lines().filter(|l| l.contains("\"series\":\"fault\"")).count();
        println!(
            "timeline: {} rows ({} fault marks, {} evicted); trace: {} hop events ({} evicted)",
            dump.timeline_rows,
            fault_rows,
            dump.timeline_evicted,
            dump.trace_events,
            dump.trace_evicted
        );
        write_telemetry("chaos", &dump);
        return;
    }
    let points = if opts.quick { chaos::quick_points() } else { chaos::default_points() };
    println!(
        "Chaos sweep: faults at {}s, {} cells, {} senders per cell, {}s simulated\n",
        chaos::FAULT_AT / SEC,
        points.len() * chaos::SYSTEMS.len(),
        scale.senders(),
        scale.sim_time / SEC
    );
    let rows: Vec<Vec<String>> = run_chaos_sweep(&scale, &chaos::SYSTEMS, &points)
        .iter()
        .map(|o| {
            vec![
                o.point.topology.label().to_string(),
                o.point.fault.label().to_string(),
                o.point.severity.label().to_string(),
                o.system.label().to_string(),
                match o.worst_recovery_secs {
                    Some(s) => format!("{s:.1}"),
                    None => "-".to_string(),
                },
                match o.availability {
                    Some(a) => pct(a),
                    None => "-".to_string(),
                },
                kbps(o.avg_user_bps),
                kbps(o.avg_attacker_bps),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "topology",
                "fault",
                "severity",
                "system",
                "worst recovery (s)",
                "availability",
                "user kbps",
                "attacker kbps"
            ],
            &rows
        )
    );
}
