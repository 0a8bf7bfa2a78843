//! End-to-end integration tests spanning the crypto, core, sim and systems
//! crates: small packet-level simulations asserting the paper's qualitative
//! claims.

use netfence_core::as_police::AsPolicingMode;
use netfence_core::config::Config;
use netfence_sim::prelude::*;
use netfence_systems::NetFenceDefense;

const USER: u32 = 0x0a_00_00_01;
const ATTACKER: u32 = 0x0a_00_00_02;
const VICTIM: u32 = 0x0b_00_00_01;
const COLLUDER: u32 = 0x0b_00_00_02;

fn small_net(bottleneck: u64) -> (Network, LinkAddr) {
    let mut b = Network::builder();
    let ra = b.router(1, true);
    let rb = b.router(2, false);
    let rc = b.router(3, true);
    let (fwd, _) = b.duplex(ra, rb, bottleneck, 10 * MILLI, QueueKind::Red);
    b.duplex(rb, rc, bottleneck * 10, 10 * MILLI, QueueKind::Red);
    b.host(USER, 1, ra, 100_000_000, MILLI);
    b.host(ATTACKER, 1, ra, 100_000_000, MILLI);
    b.host(VICTIM, 3, rc, 100_000_000, MILLI);
    b.host(COLLUDER, 3, rc, 100_000_000, MILLI);
    let net = b.build();
    let addr = net.links[fwd].addr;
    (net, addr)
}

/// Without any defense, a 1 Mbps UDP flood starves a TCP user on a 1 Mbps
/// bottleneck; with NetFence the user gets a comparable share (the §3.4
/// guarantee).
#[test]
fn netfence_restores_fair_share_under_collusion() {
    let run = |defended: bool| -> (f64, f64) {
        let (net, _) = small_net(1_000_000);
        let deployment = if defended {
            NetFenceDefense::new(Config::short_timers()).deploy(&net, &DeploymentSpec::full())
        } else {
            Deployment::undefended(&net)
        };
        let mut sim = Simulator::new(
            net,
            deployment,
            SimConfig { end_time: 100 * SEC, ..Default::default() },
        );
        let user = sim.add_flow(0, |id| {
            Box::new(TcpFlow::new(
                id,
                USER,
                VICTIM,
                TcpWorkload::LongRunning,
                TcpConfig::default(),
                SimRng::new(1),
            ))
        });
        let attacker =
            sim.add_flow(0, |id| Box::new(UdpFlow::cbr(id, ATTACKER, COLLUDER, 1_000_000)));
        sim.run();
        (
            sim.progress(user).goodput_bps(0, 100 * SEC),
            sim.progress(attacker).goodput_bps(0, 100 * SEC),
        )
    };
    let (user_undef, attacker_undef) = run(false);
    let (user_def, attacker_def) = run(true);
    assert!(
        user_undef < 0.3 * attacker_undef,
        "undefended TCP should lose to the flood ({user_undef:.0} vs {attacker_undef:.0})"
    );
    assert!(
        user_def > 0.5 * attacker_def,
        "NetFence should restore a comparable share ({user_def:.0} vs {attacker_def:.0})"
    );
    assert!(user_def > 3.0 * user_undef, "NetFence should improve the user substantially");
}

/// Feedback-as-capability: a victim that withholds feedback reduces an
/// unwanted 1 Mbps flood to the strictly limited request channel.
#[test]
fn withholding_feedback_suppresses_unwanted_traffic() {
    let (net, _) = small_net(1_000_000);
    let mut defense = NetFenceDefense::new(Config::short_timers());
    defense.suppress_sender(VICTIM, ATTACKER);
    let deployment = defense.deploy(&net, &DeploymentSpec::full());
    let mut sim =
        Simulator::new(net, deployment, SimConfig { end_time: 30 * SEC, ..Default::default() });
    let attacker = sim.add_flow(0, |id| Box::new(UdpFlow::cbr(id, ATTACKER, VICTIM, 1_000_000)));
    sim.run();
    let delivered = sim.progress(attacker).goodput_bps(0, 30 * SEC);
    assert!(delivered < 150_000.0, "unwanted traffic not suppressed: {delivered:.0} bps");
}

/// The per-AS scalability claim: the bottleneck-side state NetFence keeps is
/// bounded by ASes and monitoring links, not by hosts; per-host state lives
/// only at access routers.
#[test]
fn bottleneck_state_is_not_per_host() {
    let (net, bottleneck) = small_net(1_000_000);
    let defense = NetFenceDefense::new(Config::short_timers());
    let deployment = defense.deploy(&net, &DeploymentSpec::full());
    let mut sim =
        Simulator::new(net, deployment, SimConfig { end_time: 60 * SEC, ..Default::default() });
    sim.add_flow(0, |id| Box::new(UdpFlow::cbr(id, ATTACKER, COLLUDER, 1_000_000)));
    sim.add_flow(0, |id| {
        Box::new(TcpFlow::new(
            id,
            USER,
            VICTIM,
            TcpWorkload::LongRunning,
            TcpConfig::default(),
            SimRng::new(1),
        ))
    });
    sim.run();
    let report = sim.report();
    assert!(report.link_in_mon(bottleneck));
    // Access routers keep per-(sender, bottleneck) limiters; with 2 senders
    // and a handful of monitored links this is a small number that scales
    // with senders-behind-this-access-router, not with all hosts at the
    // bottleneck.
    assert!(report.rate_limiters >= 2);
    assert!(report.rate_limiters <= 16);
}

/// §4.5 per-AS damage localization: AS 1 floods a shared 1 Mbps bottleneck
/// with two senders, AS 2 with one. With per-AS policing on the bottleneck
/// the policer drops AS 1's excess, the drop budget carries exactly the
/// policer drops the report counts, and AS 2's sender delivers more than
/// with policing off.
#[test]
fn as_policing_localizes_damage_to_the_flooding_as() {
    const AS1_A: u32 = 0x0a_00_01_01;
    const AS1_B: u32 = 0x0a_00_01_02;
    const AS2_A: u32 = 0x0a_00_02_01;
    const SINK_A: u32 = 0x0b_00_03_01;
    const SINK_B: u32 = 0x0b_00_03_02;
    const SINK_C: u32 = 0x0b_00_03_03;
    const END: Nanos = 60 * SEC;

    // Returns (policer drops, AsPolicer budget, AS 2 sender's delivered bytes).
    let run = |mode: Option<AsPolicingMode>| -> (u64, u64, u64) {
        let mut b = Network::builder();
        let r1 = b.router(1, true);
        let r2 = b.router(2, true);
        let core = b.router(100, false);
        let r3 = b.router(3, true);
        b.duplex(r1, core, 100_000_000, 10 * MILLI, QueueKind::Red);
        b.duplex(r2, core, 100_000_000, 10 * MILLI, QueueKind::Red);
        b.duplex(core, r3, 1_000_000, 10 * MILLI, QueueKind::Red);
        b.host(AS1_A, 1, r1, 100_000_000, MILLI);
        b.host(AS1_B, 1, r1, 100_000_000, MILLI);
        b.host(AS2_A, 2, r2, 100_000_000, MILLI);
        for sink in [SINK_A, SINK_B, SINK_C] {
            b.host(sink, 3, r3, 100_000_000, MILLI);
        }
        let net = b.build();
        let mut defense = NetFenceDefense::new(Config::short_timers());
        if let Some(mode) = mode {
            defense.enable_as_policing(mode);
        }
        let deployment = defense.deploy(&net, &DeploymentSpec::full());
        let mut sim =
            Simulator::new(net, deployment, SimConfig { end_time: END, ..Default::default() });
        sim.add_flow(0, |id| Box::new(UdpFlow::cbr(id, AS1_A, SINK_A, 2_000_000)));
        sim.add_flow(0, |id| Box::new(UdpFlow::cbr(id, AS1_B, SINK_B, 2_000_000)));
        let as2 = sim.add_flow(0, |id| Box::new(UdpFlow::cbr(id, AS2_A, SINK_C, 2_000_000)));
        sim.run();
        let report = sim.report();
        (
            report.as_policer_drops,
            report.drop_budget.get(DropCause::AsPolicer),
            sim.progress(as2).delivered_bytes,
        )
    };

    let (off_drops, _, off_as2) = run(None);
    assert_eq!(off_drops, 0, "no policer is installed without AS policing");
    for mode in [AsPolicingMode::FairShare, AsPolicingMode::HeavyHitter { factor_x100: 150 }] {
        let (drops, budget, as2) = run(Some(mode));
        assert!(drops > 0, "{mode:?}: the per-AS policer never dropped");
        assert_eq!(budget, drops, "{mode:?}: drop budget disagrees with the report");
        assert!(as2 > off_as2, "{mode:?}: AS 2 delivered {as2} B, unpoliced {off_as2} B");
    }
}
