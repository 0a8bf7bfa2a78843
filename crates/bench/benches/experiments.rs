//! Every bench of the NetFence reproduction in one target: the Figure 7
//! per-packet micro-benchmarks, the Figures 8–14 harnesses and the
//! deployment, topo_scale, reaction, tournament and chaos sweeps at reduced
//! scale, and the ablations of the design choices `DESIGN.md` calls out.
//!
//! Each function below is one benchmark group. Besides the timed rows, the
//! topo_scale, reaction, tournament and chaos functions record derived
//! metrics (engine rates, reaction and recovery times, regret) into the
//! merged `BENCH_results.json` via [`criterion::record_value`], so those
//! surfaces are tracked alongside the wall-clock numbers.

use criterion::{criterion_group, criterion_main, record_value, Criterion};
use netfence_core::monitor::BottleneckMonitor;
use netfence_core::prelude::*;
use netfence_crypto::{AsKeyTable, Cmac};
use netfence_experiments::chaos::{
    run_chaos_cell, ChaosFault, ChaosPoint, ChaosTopology, Severity,
};
use netfence_experiments::deployment::run_deployment_cell;
use netfence_experiments::fig10::{capacity_cases, run_fig10_case};
use netfence_experiments::fig11::run_fig11_cell;
use netfence_experiments::fig13::{run_fig13, run_fig14};
use netfence_experiments::fig7::{drive_into_mon, fixture};
use netfence_experiments::fig8::run_fig8_cell;
use netfence_experiments::fig9::{run_fig9_cell, UserTraffic};
use netfence_experiments::reaction::{run_reaction_cell, ReactionKnobs};
use netfence_experiments::topo_scale::{build_point, run_point, scale_spec};
use netfence_experiments::tournament::{
    regret_matrix, run_tournament, tournament_spec, TopologyKind, TournamentPoint, ATTACK_RATE,
};
use netfence_experiments::{AttackStrategy, DefenseKind, Runner, Scale};
use netfence_sim::time::secs;
use std::time::Duration;

/// The reduced scale of the simulated groups: 3 source ASes × 3 hosts,
/// seed 7, `sim_secs` simulated seconds (figs 9–11 change the AS and host
/// counts).
fn smoke_scale(sim_secs: u64) -> Scale {
    Scale { src_ases: 3, hosts_per_as: 3, sim_time: sim_secs * SEC, seed: 7 }
}

/// Figure 7: per-packet processing cost of the NetFence fast paths (the
/// `netfence fig7` experiment prints the same table from wall-clock
/// averages).
fn fig7_microbench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig7_microbench");

    // Access router, request packet (stamp nop).
    {
        let (mut access, _, flow) = fixture();
        g.bench_function("access_request_stamp", |b| {
            b.iter(|| {
                let mut h = NetFenceHeader::request(17, 0, Feedback::Nop { ts: 0, token: 0 });
                std::hint::black_box(access.process_outbound(SEC, flow, &mut h, 92))
            })
        });
    }

    // Access router, regular packet with nop feedback (idle network).
    {
        let (mut access, _, flow) = fixture();
        let mut h = NetFenceHeader::request(6, 0, Feedback::Nop { ts: 0, token: 0 });
        access.process_outbound(SEC, flow, &mut h, 92);
        let nop = h.presented;
        g.bench_function("access_regular_no_attack", |b| {
            b.iter(|| {
                let mut h = NetFenceHeader::regular(6, nop, None);
                std::hint::black_box(access.process_outbound(SEC, flow, &mut h, 1500))
            })
        });
    }

    // Bottleneck router stamping L↓ during an attack, and an idle one.
    {
        let (mut access, mut bl, flow) = fixture();
        let now = drive_into_mon(&mut bl);
        let mut h = NetFenceHeader::request(6, 0, Feedback::Nop { ts: 0, token: 0 });
        access.process_outbound(now, flow, &mut h, 92);
        let nop = h.presented;
        g.bench_function("bottleneck_stamp_decr_attack", |b| {
            b.iter(|| {
                let mut fb = nop;
                std::hint::black_box(bl.update_feedback(now, flow, AsId(1), &mut fb))
            })
        });
        g.bench_function("bottleneck_idle", |b| {
            let mut quiet = BottleneckLink::new(
                LinkId(501),
                10_000_000,
                AsKeyTable::new(),
                Config::default(),
                0,
            );
            b.iter(|| {
                let mut fb = nop;
                std::hint::black_box(quiet.update_feedback(now, flow, AsId(1), &mut fb))
            })
        });
    }

    // TVA+ stand-in: one capability MAC verification.
    {
        let cmac = Cmac::new(&[0x42u8; 16]);
        let mac = cmac.mac32(b"capability:12345678");
        g.bench_function("tva_capability_check", |b| {
            b.iter(|| std::hint::black_box(cmac.verify32(b"capability:12345678", mac)))
        });
    }
    g.finish();
}

/// Figure 8 at reduced scale: unwanted request flooding.
fn fig8_unwanted(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig8_unwanted_flood");
    g.sample_size(10).measurement_time(Duration::from_secs(5));
    let scale = smoke_scale(20);
    for system in [DefenseKind::NetFence, DefenseKind::Tva, DefenseKind::StopIt, DefenseKind::Fq] {
        g.bench_function(system.label(), |b| {
            b.iter(|| {
                let p = run_fig8_cell(&scale, system, 100_000, 100_000);
                std::hint::black_box(p.avg_transfer_secs)
            })
        });
    }
    g.finish();
}

/// Figure 9 at reduced scale: colluding regular-packet floods.
fn fig9_colluding(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig9_colluding");
    g.sample_size(10).measurement_time(Duration::from_secs(5));
    let scale = Scale { hosts_per_as: 4, ..smoke_scale(30) };
    for system in [DefenseKind::NetFence, DefenseKind::Fq] {
        g.bench_function(system.label(), |b| {
            b.iter(|| {
                let p = run_fig9_cell(&scale, system, UserTraffic::LongRunning, 100_000, 100_000);
                std::hint::black_box(p.throughput_ratio)
            })
        });
    }
    g.finish();
}

/// Figure 10 at reduced scale: the parking-lot topology.
fn fig10_parkinglot(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig10_parking_lot");
    g.sample_size(10).measurement_time(Duration::from_secs(5));
    let scale = Scale { src_ases: 1, hosts_per_as: 4, ..smoke_scale(30) };
    for case in capacity_cases(8, 80_000) {
        g.bench_function(case.label, |b| {
            b.iter(|| {
                let p = run_fig10_case(&scale, DefenseKind::NetFence, case);
                std::hint::black_box((p.group_a_user_bps, p.group_a_attacker_bps))
            })
        });
    }
    g.finish();
}

/// Figure 11 at reduced scale: synchronized on-off attacks.
fn fig11_onoff(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig11_onoff");
    g.sample_size(10).measurement_time(Duration::from_secs(5));
    let scale = Scale { src_ases: 2, hosts_per_as: 4, ..smoke_scale(30) };
    for toff in [1.5, 10.0] {
        g.bench_function(format!("ton0.5s_toff{toff}s"), |b| {
            b.iter(|| {
                let p = run_fig11_cell(&scale, 100_000, secs(0.5), secs(toff));
                std::hint::black_box(p.avg_user_bps)
            })
        });
    }
    g.finish();
}

/// Figure 13: the Appendix B.1 multi-bottleneck feedback design
/// (control-loop model).
fn fig13_multifeedback(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig13_multifeedback");
    g.sample_size(10);
    g.bench_function("three_capacity_cases", |b| {
        b.iter(|| std::hint::black_box(run_fig13(8, 200)))
    });
    g.finish();
}

/// Figure 14: the Appendix B.2 rate-limiter inference design (control-loop
/// model).
fn fig14_inference(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig14_inference");
    g.sample_size(10);
    g.bench_function("three_capacity_cases", |b| {
        b.iter(|| std::hint::black_box(run_fig14(8, 200)))
    });
    g.finish();
}

/// Ablation: the 2·Ilim stamping hysteresis vs 0/1 intervals (§4.3.4
/// argues 2 is the minimum robust value).
fn ablation_hysteresis(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_hysteresis");
    g.sample_size(10);
    for intervals in [0u32, 1, 2] {
        g.bench_function(format!("{intervals}x_ilim"), |b| {
            b.iter(|| {
                let mut cfg = Config::short_timers();
                cfg.hysteresis_intervals = intervals;
                let mut m = BottleneckMonitor::new(0);
                let mut now = 0;
                // Drive into mon, then check how long L↓ keeps being stamped
                // after a single congestion event (the robustness window).
                while !m.in_mon() {
                    now += SEC;
                    for i in 0..100 {
                        m.detector_mut().record(1500, i % 5 == 0);
                    }
                    m.tick(now, 10_000_000, &cfg);
                }
                m.note_congestion(now, &cfg);
                let mut window = 0u64;
                while m.should_stamp_decr(now + window * 100 * MILLI) {
                    window += 1;
                }
                std::hint::black_box(window)
            })
        });
    }
    g.finish();
}

/// Ablation: the leaky-bucket (queue) rate limiter vs a token bucket that
/// would admit synchronized bursts (§4.3.3).
fn ablation_bucket(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_bucket");
    g.sample_size(10);
    // Leaky bucket: a synchronized 50-packet burst after a long idle period
    // is smoothed out (only one packet departs immediately).
    g.bench_function("leaky_bucket_burst_admitted_pkts", |b| {
        b.iter(|| {
            let mut lb = LeakyBucket::new(0, 200_000, 2 * SEC);
            let now = 100 * SEC;
            let mut immediate = 0;
            for _ in 0..50 {
                if lb.offer(now, 1500) == BucketVerdict::Pass {
                    immediate += 1;
                }
            }
            std::hint::black_box(immediate)
        })
    });
    // Token bucket (what the paper rejects): the same burst is admitted
    // wholesale because idle time accrues credit.
    g.bench_function("token_bucket_burst_admitted_pkts", |b| {
        b.iter(|| {
            let rate = 200_000f64;
            let mut tokens: f64 = rate * 2.0; // 2 s of accumulated credit
            let mut immediate = 0;
            for _ in 0..50 {
                if tokens >= 1500.0 * 8.0 {
                    tokens -= 1500.0 * 8.0;
                    immediate += 1;
                }
            }
            std::hint::black_box(immediate)
        })
    });
    g.finish();
}

/// Ablation: the multiplicative-decrease parameter δ, 0.1 vs TCP's 0.5
/// (§4.6).
fn ablation_delta(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_delta");
    g.sample_size(10);
    for delta in [0.1f64, 0.5] {
        g.bench_function(format!("delta_{delta}"), |b| {
            b.iter(|| {
                let cfg = Config { multiplicative_decrease: delta, ..Config::default() };
                // Two senders converging on a 400 kbps link: measure the
                // steady-state average rate (larger δ under-utilizes).
                let mut x = AimdState::with_rate(300_000, 0);
                let mut y = AimdState::with_rate(60_000, 0);
                let mut sum = 0f64;
                for step in 1..200u64 {
                    let now = step * cfg.ilim;
                    let congested = x.rate() + y.rate() > 400_000;
                    for l in [&mut x, &mut y] {
                        if !congested {
                            l.observe(&Feedback::Mon {
                                link: LinkId(1),
                                action: Action::Incr,
                                ts: (now / SEC) as u32,
                                token: 0,
                                token_nop: None,
                            });
                        }
                        l.adjust(now, l.rate() as f64, &cfg);
                    }
                    if step > 100 {
                        sum += (x.rate() + y.rate()) as f64;
                    }
                }
                std::hint::black_box(sum / 100.0)
            })
        });
    }
    g.finish();
}

/// Incremental deployment at reduced scale: how much simulation cost the
/// per-node agent dispatch adds at zero, partial and full coverage (the
/// fast path must stay cheap when most nodes are legacy).
fn deployment_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("deployment_sweep");
    g.sample_size(10).measurement_time(Duration::from_secs(5));
    let scale = smoke_scale(20);
    for coverage in [0.0f64, 0.5, 1.0] {
        g.bench_function(format!("netfence_cov{coverage:.1}"), |b| {
            b.iter(|| {
                let p = run_deployment_cell(&scale, DefenseKind::NetFence, coverage);
                std::hint::black_box(p.avg_user_bps)
            })
        });
    }
    g.finish();
}

/// Topology scaling at reduced scale: how fast transit-stub internets build
/// (the AS-aggregated routing construction is the hot path) and how many
/// packets per second the engine simulates on them with and without a
/// NetFence deployment. The full sweep is `netfence topo_scale`.
fn topo_scale(c: &mut Criterion) {
    let mut g = c.benchmark_group("topo_scale");
    g.sample_size(10).measurement_time(Duration::from_secs(5));
    for hosts in [2_000usize, 8_000] {
        g.bench_function(format!("build_{hosts}_hosts"), |b| {
            b.iter(|| {
                let p = build_point(hosts, 7);
                std::hint::black_box(p.route_table_bytes)
            })
        });
    }
    for system in [DefenseKind::NetFence, DefenseKind::None] {
        g.bench_function(format!("sim_600_hosts_{}", system.label()), |b| {
            b.iter(|| {
                let r = Runner::new(scale_spec(600, system)).run();
                std::hint::black_box(r.avg_user_bps())
            })
        });
    }
    g.finish();
    // Engine-throughput and typed-drop derived metrics, recorded from one
    // measured point per system so the profiling counters ride
    // BENCH_results.json next to the wall-clock rows.
    let point = run_point(600, 7, &[DefenseKind::NetFence, DefenseKind::None]);
    for run in &point.runs {
        let label = run.system.label();
        let events_id = format!("engine_events_per_sec/600_hosts_{label}");
        record_value("topo_scale", &events_id, run.events_per_sec, 1);
        let pkts_id = format!("sim_pkts_per_sec/600_hosts_{label}");
        record_value("topo_scale", &pkts_id, run.pkts_per_sec, 1);
        let drops_id = format!("drop_cause_total/600_hosts_{label}");
        record_value("topo_scale", &drops_id, run.drop_total as f64, 1);
    }
}

/// Reaction time: times one reaction-sweep cell, then records the measured
/// reaction times (simulated nanoseconds, -1 = never recovered) per
/// (system × control-plane latency) point.
fn reaction(c: &mut Criterion) {
    let scale = smoke_scale(30);
    let mut g = c.benchmark_group("reaction");
    g.sample_size(10).measurement_time(Duration::from_secs(5));
    g.bench_function("cell_netfence_ideal", |b| {
        b.iter(|| {
            let p = run_reaction_cell(&scale, DefenseKind::NetFence, ReactionKnobs::ideal());
            std::hint::black_box(p.avg_user_bps)
        })
    });
    g.finish();

    for system in netfence_experiments::reaction::SYSTEMS {
        for latency in [0, 100 * MILLI, 2 * SEC] {
            let p = run_reaction_cell(&scale, system, ReactionKnobs::latency(latency));
            let ns = p.reaction_secs.map_or(-1.0, |s| s * 1e9);
            let id = format!("{}_lat{}ms", p.system.label(), latency / MILLI);
            record_value("reaction_secs_vs_latency", &id, ns, 1);
        }
    }
}

/// Tournament: times one tournament cell, then runs a reduced defense ×
/// strategy grid on the dumbbell and records every cell's user goodput plus
/// each defense's worst case and regret (bits per second; reaction as
/// simulated nanoseconds, -1 = never recovered).
fn tournament(c: &mut Criterion) {
    let scale = smoke_scale(25);
    let mut g = c.benchmark_group("tournament");
    g.sample_size(10).measurement_time(Duration::from_secs(5));
    g.bench_function("cell_netfence_shrew", |b| {
        b.iter(|| {
            let p = TournamentPoint {
                strategy: AttackStrategy::shrew_tuned(ATTACK_RATE),
                topology: TopologyKind::Dumbbell,
                coverage_pct: 100,
            };
            let spec = tournament_spec(&scale, DefenseKind::NetFence, &p);
            std::hint::black_box(Runner::new(spec).run().avg_user_bps())
        })
    });
    g.finish();

    let points: Vec<TournamentPoint> = AttackStrategy::lineup(ATTACK_RATE)
        .into_iter()
        .map(|strategy| TournamentPoint {
            strategy,
            topology: TopologyKind::Dumbbell,
            coverage_pct: 100,
        })
        .collect();
    let cells = run_tournament(&scale, &netfence_experiments::tournament::SYSTEMS, &points);
    for cell in &cells {
        let id = format!("{}_{}", cell.system.label(), cell.point.strategy.label());
        record_value("tournament_user_bps", &id, cell.avg_user_bps, 1);
    }
    for row in regret_matrix(&cells) {
        let id = row.system.label();
        record_value("tournament_worst_user_bps", id, row.worst_user_bps, 1);
        record_value("tournament_regret_bps", id, row.regret_bps, 1);
        let ns = row.worst_reaction_secs.map_or(-1.0, |s| s * 1e9);
        record_value("tournament_worst_reaction_ns", id, ns, 1);
    }
}

/// Chaos: times one chaos-sweep cell, then records worst-case recovery
/// (simulated seconds, censored at run end) and availability under the
/// fault per (system × mild fault) point on the dumbbell (-1 = metric
/// unavailable).
fn chaos(c: &mut Criterion) {
    let scale = smoke_scale(25);
    let point =
        |fault| ChaosPoint { topology: ChaosTopology::Dumbbell, fault, severity: Severity::Mild };
    let mut g = c.benchmark_group("chaos");
    g.sample_size(10).measurement_time(Duration::from_secs(5));
    g.bench_function("cell_netfence_reboot", |b| {
        b.iter(|| {
            let o = run_chaos_cell(&scale, DefenseKind::NetFence, point(ChaosFault::RouterReboot));
            std::hint::black_box(o.avg_user_bps)
        })
    });
    g.finish();

    for system in [DefenseKind::NetFence, DefenseKind::Fq] {
        for fault in [ChaosFault::LinkFailure, ChaosFault::RouterReboot, ChaosFault::KeyDesync] {
            let o = run_chaos_cell(&scale, system, point(fault));
            let id = format!("{}_{}", system.label(), fault.label());
            record_value(
                "chaos_worst_recovery_secs",
                &id,
                o.worst_recovery_secs.unwrap_or(-1.0),
                1,
            );
            record_value("chaos_availability", &id, o.availability.unwrap_or(-1.0), 1);
        }
    }
}

criterion_group!(
    benches,
    fig7_microbench,
    fig8_unwanted,
    fig9_colluding,
    fig10_parkinglot,
    fig11_onoff,
    fig13_multifeedback,
    fig14_inference,
    ablation_hysteresis,
    ablation_bucket,
    ablation_delta,
    deployment_sweep,
    topo_scale,
    reaction,
    tournament,
    chaos,
);
criterion_main!(benches);
