//! Per-layer costs, measured through each layer's public functions.
//!
//! Every measured operation runs in batches; each batch is one span named
//! after the metric (`crypto.aes_block`, `core.access_request`, …) that
//! records how many calls it covers. An operation's cost is the median of
//! its batches' nanoseconds per call. The core fixtures are the Figure 7
//! ones: an access router in AS 1 and a bottleneck link in AS 2 sharing a
//! pairwise key.

use std::hint::black_box;
use std::time::{Duration, Instant};

use netfence_core::prelude::*;
use netfence_core::{bottleneck::BottleneckLink, feedback};
use netfence_crypto::{full_mesh_exchange, Aes128, AsKeyAgent, Cmac, MacInput, TimeVaryingSecret};
use netfence_experiments::prelude::*;
use netfence_sim::packet::HostAddr;
use netfence_sim::prelude::{
    ChannelClass, Classifier, DropTail, DrrQueue, DualChannelQueue, HierDrrQueue, Network, NodeId,
    Packet, PriorityLevelQueue, QueueDisc, RedQueue,
};

use crate::trace::Tracer;

/// Calls per span.
const BATCH: u64 = 2_000;
/// Batches every operation gets, however short the budget.
const MIN_BATCHES: usize = 5;
/// Packets held in a queue while its enqueue/dequeue pairs are timed.
const OCCUPANCY: usize = 16;
/// Limiters the access router ticks over (the colluding workload's count).
const TICK_LIMITERS: u32 = 80;
/// AIMD ticks per fixture: 100 control intervals, well inside `Ta`.
const TICKS: u64 = 100;

/// The measured operations, in report order.
const OPS: usize = 21;

/// Measure every layer; returns `(metric name, ns per call)` pairs, and
/// the fixture invariants that did not hold.
pub fn measure(
    tracer: &mut Tracer,
    spec: &ScenarioSpec,
    budget: Duration,
) -> (Vec<(String, f64)>, Vec<String>) {
    let per_op = budget / OPS as u32;
    let mut m = Meter { tracer, per_op, costs: Vec::new(), problems: Vec::new() };
    let root = m.tracer.enter("bench.layers");
    crypto(&mut m);
    core(&mut m);
    queues(&mut m);
    topology(&mut m, spec);
    m.tracer.exit(root, 0);
    debug_assert_eq!(m.costs.len(), OPS);
    (m.costs, m.problems)
}

struct Meter<'a> {
    tracer: &'a mut Tracer,
    per_op: Duration,
    costs: Vec<(String, f64)>,
    problems: Vec<String>,
}

impl Meter<'_> {
    /// Time `op` in batches of `batch` calls, each batch in a span named
    /// `name`, with fresh state from `setup` (built outside the span) for
    /// every batch. Records the median ns per call as `<name>_ns`.
    fn batches<S>(
        &mut self,
        name: &str,
        batch: u64,
        mut setup: impl FnMut() -> S,
        mut op: impl FnMut(&mut S, u64),
    ) {
        let mut warm = setup();
        for i in 0..batch {
            op(&mut warm, i);
        }
        let start = Instant::now();
        let mut samples = Vec::new();
        let mut i = batch;
        while samples.len() < MIN_BATCHES || start.elapsed() < self.per_op {
            let mut state = setup();
            let id = self.tracer.enter(name);
            for _ in 0..batch {
                op(&mut state, i);
                i += 1;
            }
            self.tracer.exit(id, batch);
            samples.push(self.tracer.secs(id) * 1e9 / batch as f64);
        }
        self.costs.push((format!("{name}_ns"), crate::median(&samples)));
    }

    /// [`Meter::batches`] over one state that lives across batches.
    fn calls(&mut self, name: &str, mut op: impl FnMut(u64)) {
        self.batches(name, BATCH, || (), |(), i| op(i));
    }
}

/// The Eq. 1 (`nf-nop`), Eq. 3 (`nf-decr`) and Passport MAC inputs, built
/// with the same fields as the protocol code.
fn mac_inputs() -> [(&'static str, MacInput); 3] {
    let mut nop = MacInput::new("nf-nop");
    nop.push_u32(0x0a00_0001).push_u32(0x1400_0001).push_u32(17).push_u32(0).push_u8(0);
    let mut decr = MacInput::new("nf-decr");
    decr.push_u32(0x0a00_0001)
        .push_u32(0x1400_0001)
        .push_u32(17)
        .push_u32(500)
        .push_u8(1)
        .push_u8(1)
        .push_u32(0xdead_beef);
    let mut passport = MacInput::new("passport");
    passport
        .push_u32(1)
        .push_u32(0x0a00_0001)
        .push_u32(0x1400_0001)
        .push_u32(1500)
        .push_bytes(&[7u8; 8])
        .push_u8(0);
    [("nf_nop", nop), ("nf_decr", decr), ("passport", passport)]
}

fn crypto(m: &mut Meter) {
    let aes = Aes128::new(&[0x2bu8; 16]);
    let mut block = [0u8; 16];
    m.calls("crypto.aes_block", |_| aes.encrypt_block(black_box(&mut block)));
    let cmac = Cmac::new(&[0x42u8; 16]);
    for (shape, input) in mac_inputs() {
        let bytes = input.as_bytes();
        m.calls(&format!("crypto.cmac_mac32.{shape}"), |_| {
            black_box(cmac.mac32(black_box(bytes)));
        });
    }
}

/// The Figure 7 fixture: an access router (AS 1), a bottleneck link (AS 2)
/// and the key they share.
fn fixture() -> (AccessRouter, BottleneckLink, Cmac, FlowPair) {
    let agents = vec![AsKeyAgent::new(1, 101), AsKeyAgent::new(2, 202)];
    let mut tables = full_mesh_exchange(&agents);
    let t1 = tables.remove(0);
    let t2 = tables.remove(0);
    let mut access = AccessRouter::new(Config::default(), AsId(1), [9u8; 16], t1);
    access.register_link_as(LinkId(500), AsId(2));
    let kai = t2.get(1).expect("AS 2 shares a key with AS 1").clone();
    let bl = BottleneckLink::new(LinkId(500), 10_000_000, t2, Config::default(), 0);
    let flow = FlowPair::new(HostId(0x0a00_0001), HostId(0x1400_0001));
    (access, bl, kai, flow)
}

/// Drive the bottleneck into a monitoring cycle; returns the time it got
/// there.
fn drive_into_mon(bl: &mut BottleneckLink) -> Nanos {
    let mut now = 0;
    while !bl.in_mon() {
        now += SEC;
        for i in 0..200 {
            bl.record_regular(1500, i % 5 == 0);
        }
        bl.tick(now);
    }
    now
}

/// `nop` feedback for `flow` from a request packet through `access`.
fn request_feedback(access: &mut AccessRouter, now: Nanos, flow: FlowPair) -> Feedback {
    let mut header = NetFenceHeader::request(6, 0, Feedback::Nop { ts: 0, token: 0 });
    access.process_outbound(now, flow, &mut header, 92);
    header.presented
}

/// An access router holding one regular-channel limiter per sender for
/// `TICK_LIMITERS` senders behind a monitored bottleneck.
fn tick_fixture() -> (AccessRouter, Nanos) {
    let (mut access, mut bl, _, _) = fixture();
    let now = drive_into_mon(&mut bl);
    for src in 0..TICK_LIMITERS {
        let flow = FlowPair::new(HostId(0x0a00_0001 + src), HostId(0x1400_0001));
        let mut fb = request_feedback(&mut access, now, flow);
        bl.update_feedback(now, flow, AsId(1), &mut fb);
        let mut h = NetFenceHeader::regular(6, fb, None);
        access.process_outbound(now, flow, &mut h, 1500);
    }
    (access, now)
}

fn core(m: &mut Meter) {
    // Access router, request packet: the request limiter (most of a
    // request flood dies here) and a fresh nop stamp for what passes.
    let (mut access, _, _, flow) = fixture();
    m.calls("core.access_request", |i| {
        let mut h = NetFenceHeader::request(17, 0, Feedback::Nop { ts: 0, token: 0 });
        black_box(access.process_outbound(SEC + i, flow, &mut h, 92));
    });

    // Access router, regular packet, no attack: validate nop, restamp nop.
    let (mut access, _, _, flow) = fixture();
    let nop = request_feedback(&mut access, SEC, flow);
    m.calls("core.access_regular_idle", |_| {
        let mut h = NetFenceHeader::regular(6, nop, None);
        black_box(access.process_outbound(SEC, flow, &mut h, 1500));
    });

    // Access router, regular packet under attack: validate L↓/L↑, run the
    // rate limiter, stamp L↑; keep presenting what the router returns.
    let (mut access, mut bl, _, flow) = fixture();
    let now = drive_into_mon(&mut bl);
    let mut current = request_feedback(&mut access, now, flow);
    bl.update_feedback(now, flow, AsId(1), &mut current);
    m.calls("core.access_regular_attack", |i| {
        let mut h = NetFenceHeader::regular(6, current, None);
        let v = access.process_outbound(now + i, flow, &mut h, 1500);
        if !matches!(v, AccessVerdict::Drop(_)) {
            current = h.presented;
        }
    });

    // Bottleneck, no attack: the packet is left untouched.
    let (_, mut bl, _, flow) = fixture();
    m.calls("core.bottleneck_idle", |_| {
        let mut fb = Feedback::Nop { ts: 1, token: 1 };
        black_box(bl.update_feedback(SEC, flow, AsId(1), &mut fb));
    });

    // Bottleneck under attack: convert L↑ into L↓.
    let (_, mut bl, _, flow) = fixture();
    let now = drive_into_mon(&mut bl);
    let incr = feedback::stamp_incr(&mut TimeVaryingSecret::new([9u8; 16]), now, flow, LinkId(500));
    m.calls("core.bottleneck_decr_attack", |_| {
        let mut fb = incr;
        black_box(bl.update_feedback(now, flow, AsId(1), &mut fb));
    });

    // The feedback primitives: stamp nop, stamp L↓, validate L↓ (the
    // access router's most expensive check: two MACs).
    let (_, _, kai, flow) = fixture();
    let mut ka = TimeVaryingSecret::new([9u8; 16]);
    m.calls("core.feedback_stamp_nop", |_| {
        black_box(feedback::stamp_nop(&mut ka, SEC, flow));
    });
    let nop = feedback::stamp_nop(&mut ka, SEC, flow);
    m.calls("core.feedback_stamp_decr", |_| {
        black_box(feedback::stamp_decr(&kai, flow, LinkId(500), black_box(&nop)));
    });
    let decr = feedback::stamp_decr(&kai, flow, LinkId(500), &nop).expect("nop converts to L↓");
    let w = Config::default().feedback_expiry;
    let mut invalid = 0u64;
    m.calls("core.feedback_validate", |_| {
        let ok = feedback::validate(&decr, &mut ka, |_| Some(&kai), SEC, flow, w);
        invalid += u64::from(ok.is_err());
    });
    if invalid > 0 {
        m.problems.push(format!("{invalid} L↓ validations failed in the fixture"));
    }

    // AIMD housekeeping over the colluding workload's 80 limiters: every
    // tick ends a control interval for each of them.
    let ilim = Config::default().ilim;
    m.batches("core.access_tick", TICKS, tick_fixture, |(access, now), _| {
        *now += ilim;
        black_box(access.tick(*now));
    });
}

/// A queue filled to `OCCUPANCY` with packets from 16 senders in 4 ASes at
/// mixed request priorities; every fourth packet rides the request channel.
fn filled(mut q: Box<dyn QueueDisc>) -> Box<dyn QueueDisc> {
    for i in 0..OCCUPANCY as u32 {
        let mut p = Packet::udp(i as usize, 0x0a00_0001 + i, 0x1400_0001, 1500, 0);
        p.src_as = 1 + i % 4;
        p.priority = (i % 8) as u8;
        if i % 4 == 3 {
            p.channel = ChannelClass::Request;
        }
        assert!(q.enqueue(0, p).is_empty(), "the fixture queue must hold {OCCUPANCY} packets");
    }
    q
}

fn queues(m: &mut Meter) {
    const CAPACITY: u64 = 10_000_000;
    // One 1500-byte transmission at the fixture capacity.
    const TX: Nanos = 1500 * 8 * 1_000_000_000 / CAPACITY;
    let qlim = (CAPACITY as f64 * 0.2 / 8.0) as usize;
    for kind in ["droptail", "red", "drr", "hier_drr", "priority", "dual_channel"] {
        let make = || -> Box<dyn QueueDisc> {
            match kind {
                "droptail" => Box::new(DropTail::new(1 << 20)),
                "red" => Box::new(RedQueue::for_capacity(CAPACITY, 7)),
                "drr" => Box::new(DrrQueue::new(Classifier::BySource, 1500, 1 << 20)),
                "hier_drr" => Box::new(HierDrrQueue::new(1500, 1 << 20)),
                "priority" => Box::new(PriorityLevelQueue::new(1 << 20)),
                // NetFence's three-channel bottleneck queue: RED regular
                // channel, priority-level request channel, 5% request share.
                _ => Box::new(DualChannelQueue::new(
                    Box::new(RedQueue::for_capacity(CAPACITY, 7)),
                    Box::new(PriorityLevelQueue::new(1 << 20)),
                    qlim / 4,
                    CAPACITY,
                    0.05,
                )),
            }
        };
        let mut q = filled(make());
        let mut lost = 0usize;
        m.calls(&format!("sim.queue.{kind}.enq_deq"), |i| {
            let now = i * TX;
            if let Some(p) = q.dequeue(now) {
                lost += q.enqueue(now, p).len();
            }
        });
        if lost > 0 || q.len_pkts() != OCCUPANCY {
            m.problems.push(format!(
                "{kind} queue lost {lost} packets; holds {} of {OCCUPANCY}",
                q.len_pkts()
            ));
        }
    }
}

/// Every `(node, destination)` next-hop lookup the workload's flows make on
/// their forward paths, and every sender (for access-router lookups).
fn forward_lookups(
    spec: &ScenarioSpec,
    built: &BuiltTopo,
) -> (Vec<(NodeId, HostAddr)>, Vec<HostAddr>) {
    let net: &Network = &built.net;
    let mut hops = Vec::new();
    let mut senders = Vec::new();
    for g in &built.groups {
        let attacker_dst = |i: usize| match spec.attack_target {
            AttackTarget::Victim => g.victim,
            AttackTarget::Colluders { .. } => g.colluders[i % g.colluders.len()],
        };
        let pairs = g.users.iter().map(|&u| (u, g.victim));
        let pairs = pairs.chain(g.attackers.iter().enumerate().map(|(i, &a)| (a, attacker_dst(i))));
        for (src, dst) in pairs {
            senders.push(src);
            let mut node = net.host_node(src);
            let end = net.host_node(dst);
            while node != end && hops.len() < 1 << 20 {
                let Some(link) = net.next_hop(node, dst) else { break };
                hops.push((node, dst));
                node = net.links[link].to;
            }
        }
    }
    (hops, senders)
}

fn topology(m: &mut Meter, spec: &ScenarioSpec) {
    let built = crate::workload::topo_spec(spec).build();
    let (hops, senders) = forward_lookups(spec, &built);
    let net = &built.net;
    m.calls("sim.topology.next_hop", |i| {
        let (node, dst) = hops[i as usize % hops.len()];
        black_box(net.next_hop(black_box(node), dst));
    });
    m.calls("sim.topology.access_router_of", |i| {
        black_box(net.access_router_of(black_box(senders[i as usize % senders.len()])));
    });
}
